//! Multi-layer perceptron with ReLU hidden activations.

use serde::{Deserialize, Serialize};
use specee_tensor::{ops, rng::Pcg, BackendKind};

use crate::dense::{Dense, DenseGrad};

/// Hidden-layer activation function (serialized with the network, so a
/// saved bank names it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit (the paper's choice, §4.3.2).
    Relu,
}

impl Activation {
    pub(crate) fn apply(self, x: f32) -> f32 {
        ops::relu(x)
    }

    /// Derivative expressed in terms of the activation *output*.
    pub(crate) fn derivative_from_output(self, y: f32) -> f32 {
        if y > 0.0 {
            1.0
        } else {
            0.0
        }
    }
}

/// A feed-forward network: dense layers with the chosen activation between
/// them and a *linear* final layer (callers apply sigmoid/softmax).
///
/// The SpecEE predictor is `Mlp::new(&[12, 512, 1], Activation::Relu, ..)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer dimensions, e.g. `&[12, 512, 1]`
    /// for one hidden layer of width 512.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn new(dims: &[usize], activation: Activation, rng: &mut Pcg) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Borrows the layers (optimizer access).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutably borrows the layers (optimizer access).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// The hidden-layer activation.
    pub(crate) fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass for one sample; the final layer is linear.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut h = x.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i != last {
                for v in &mut h {
                    *v = self.activation.apply(*v);
                }
            }
        }
        h
    }

    /// Forward pass through a compute backend. With
    /// [`BackendKind::Reference`] this is bit-identical to
    /// [`Mlp::forward`].
    pub fn forward_with(&self, backend: BackendKind, x: &[f32]) -> Vec<f32> {
        let mut h = x.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward_with(backend, &h);
            if i != last {
                for v in &mut h {
                    *v = self.activation.apply(*v);
                }
            }
        }
        h
    }

    /// Forward pass that keeps every intermediate activation (input of each
    /// layer plus final output), for use by [`Mlp::backward`]. Part of the
    /// per-sample reference [`crate::BinaryTrainer::train`] is pinned to.
    pub fn forward_trace(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut h = layer.forward(acts.last().expect("non-empty"));
            if i != last {
                for v in &mut h {
                    *v = self.activation.apply(*v);
                }
            }
            acts.push(h);
        }
        acts
    }

    /// Backward pass: given the trace from [`Mlp::forward_trace`] and the
    /// gradient of the loss with respect to the (linear) output, accumulates
    /// parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not match this network.
    pub fn backward(&self, trace: &[Vec<f32>], dout: &[f32], grads: &mut [DenseGrad]) {
        assert_eq!(trace.len(), self.layers.len() + 1, "trace length");
        assert_eq!(grads.len(), self.layers.len(), "grads length");
        let mut dy = dout.to_vec();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            // For hidden layers, `trace[i+1]` holds post-activation values;
            // fold the activation derivative into dy first.
            if i != self.layers.len() - 1 {
                for (g, &y) in dy.iter_mut().zip(trace[i + 1].iter()) {
                    *g *= self.activation.derivative_from_output(y);
                }
            }
            dy = layer.backward(&trace[i], &dy, &mut grads[i]);
        }
    }

    /// Fresh zeroed gradient buffers.
    pub fn zero_grads(&self) -> Vec<DenseGrad> {
        self.layers.iter().map(Dense::zero_grad).collect()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// FLOPs of one forward pass.
    pub fn flops(&self) -> f64 {
        self.layers.iter().map(Dense::flops).sum()
    }

    /// Parameter payload in bytes.
    pub fn bytes(&self) -> usize {
        self.layers.iter().map(Dense::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_flow_through() {
        let mut rng = Pcg::seed(1);
        let mlp = Mlp::new(&[12, 512, 1], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 12);
        assert_eq!(mlp.out_dim(), 1);
        assert_eq!(mlp.layers().len(), 2);
        assert_eq!(mlp.forward(&[0.1; 12]).len(), 1);
        assert_eq!(mlp.param_count(), 12 * 512 + 512 + 512 + 1);
    }

    #[test]
    fn trace_matches_forward() {
        let mut rng = Pcg::seed(2);
        let mlp = Mlp::new(&[4, 8, 8, 2], Activation::Relu, &mut rng);
        let x = [0.3, -0.5, 0.2, 0.9];
        let trace = mlp.forward_trace(&x);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.last().unwrap(), &mlp.forward(&x));
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let mut rng = Pcg::seed(3);
        let mlp = Mlp::new(&[3, 5, 1], Activation::Relu, &mut rng);
        let x = [0.2, -0.7, 0.5];
        let loss = |m: &Mlp| m.forward(&x)[0];

        let trace = mlp.forward_trace(&x);
        let mut grads = mlp.zero_grads();
        mlp.backward(&trace, &[1.0], &mut grads);

        // Numerically check a few first-layer weights.
        let eps = 1e-3;
        for (r, c) in [(0usize, 0usize), (2, 1), (4, 2)] {
            let mut mp = mlp.clone();
            let mut w = mp.layers[0].weights().clone();
            w.set(r, c, w.get(r, c) + eps);
            mp.layers[0] = rebuilt(&mp.layers[0], &w);
            let mut mm = mlp.clone();
            let mut w2 = mm.layers[0].weights().clone();
            w2.set(r, c, w2.get(r, c) - eps);
            mm.layers[0] = rebuilt(&mm.layers[0], &w2);
            let numeric = (loss(&mp) - loss(&mm)) / (2.0 * eps);
            let analytic = grads[0].dw.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "w[{r}][{c}]: numeric {numeric} analytic {analytic}"
            );
        }
    }

    fn rebuilt(d: &Dense, w: &specee_tensor::Matrix) -> Dense {
        // Dense has private fields; reconstruct through serde round-trip.
        let mut clone = d.clone();
        let json = serde_json_like(&clone, w);
        clone = json;
        clone
    }

    // Helper: rebuild a Dense with new weights via its public API surface.
    fn serde_json_like(d: &Dense, w: &specee_tensor::Matrix) -> Dense {
        // apply_step with the delta moves weights to the target.
        let mut delta = d.weights().clone();
        delta.add_scaled(w, -1.0); // delta = old - new, step subtracts
        let mut out = d.clone();
        out.apply_step(&delta, &vec![0.0; d.out_dim()]);
        out
    }

    #[test]
    fn relu_kills_negative_hidden_gradients() {
        let mut rng = Pcg::seed(4);
        let mlp = Mlp::new(&[2, 4, 1], Activation::Relu, &mut rng);
        let trace = mlp.forward_trace(&[-10.0, -10.0]);
        let mut grads = mlp.zero_grads();
        mlp.backward(&trace, &[1.0], &mut grads);
        // hidden outputs that are exactly zero must contribute zero gradient
        for (i, &h) in trace[1].iter().enumerate() {
            if h == 0.0 {
                for c in 0..2 {
                    assert_eq!(grads[0].dw.get(i, c), 0.0);
                }
            }
        }
    }
}
