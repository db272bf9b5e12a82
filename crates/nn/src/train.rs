//! Adam optimizer and binary-classification training loop.

use serde::{Deserialize, Serialize};
use specee_tensor::{ops, rng::Pcg, Matrix};

use crate::dense::DenseGrad;
use crate::metrics::BinaryMetrics;
use crate::mlp::Mlp;

/// Adam optimizer state for one [`Mlp`].
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m_w: Vec<Matrix>,
    v_w: Vec<Matrix>,
    m_b: Vec<Vec<f32>>,
    v_b: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates optimizer state matching the network's parameter shapes.
    pub fn new(mlp: &Mlp, lr: f32) -> Self {
        let m_w = mlp
            .layers()
            .iter()
            .map(|l| Matrix::zeros(l.out_dim(), l.in_dim()))
            .collect::<Vec<_>>();
        let m_b = mlp
            .layers()
            .iter()
            .map(|l| vec![0.0; l.out_dim()])
            .collect::<Vec<_>>();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            v_w: m_w.clone(),
            m_w,
            v_b: m_b.clone(),
            m_b,
        }
    }

    /// Applies one Adam update from accumulated gradients (scaled by
    /// `1/batch` by the caller).
    pub fn step(&mut self, mlp: &mut Mlp, grads: &[DenseGrad]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let g = &grads[i];
            let mw = &mut self.m_w[i];
            let vw = &mut self.v_w[i];
            let mut step_w = Matrix::zeros(g.dw.rows(), g.dw.cols());
            for idx in 0..g.dw.len() {
                let grad = g.dw.as_slice()[idx];
                let m = self.beta1 * mw.as_slice()[idx] + (1.0 - self.beta1) * grad;
                let v = self.beta2 * vw.as_slice()[idx] + (1.0 - self.beta2) * grad * grad;
                mw.as_mut_slice()[idx] = m;
                vw.as_mut_slice()[idx] = v;
                let mhat = m / bc1;
                let vhat = v / bc2;
                step_w.as_mut_slice()[idx] = self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            let mb = &mut self.m_b[i];
            let vb = &mut self.v_b[i];
            let mut step_b = vec![0.0; g.db.len()];
            for idx in 0..g.db.len() {
                let grad = g.db[idx];
                mb[idx] = self.beta1 * mb[idx] + (1.0 - self.beta1) * grad;
                vb[idx] = self.beta2 * vb[idx] + (1.0 - self.beta2) * grad * grad;
                let mhat = mb[idx] / bc1;
                let vhat = vb[idx] / bc2;
                step_b[idx] = self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            layer.apply_step(&step_w, &step_b);
        }
    }
}

/// Hyper-parameters for [`BinaryTrainer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f32,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 1e-3,
            epochs: 12,
            batch_size: 64,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Final average BCE loss over the training set.
    pub final_loss: f32,
    /// Loss after each epoch.
    pub loss_curve: Vec<f32>,
    /// Number of samples trained on.
    pub samples: usize,
}

/// Trains an [`Mlp`] with a sigmoid head on binary labels using BCE loss.
///
/// # Examples
///
/// ```
/// use specee_nn::{Activation, BinaryTrainer, Mlp, TrainConfig};
/// use specee_tensor::rng::Pcg;
///
/// let mut rng = Pcg::seed(5);
/// let mut mlp = Mlp::new(&[2, 16, 1], Activation::Relu, &mut rng);
/// // learn OR
/// let x = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
/// let y = vec![false, true, true, true];
/// let report = BinaryTrainer::new(TrainConfig { epochs: 200, ..Default::default() })
///     .train(&mut mlp, &x, &y);
/// assert!(report.final_loss < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct BinaryTrainer {
    config: TrainConfig,
}

impl BinaryTrainer {
    /// Creates a trainer with the given config.
    pub fn new(config: TrainConfig) -> Self {
        BinaryTrainer { config }
    }

    /// Runs training in place.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `labels` lengths differ, the input dims do not
    /// match the network, or the training set is empty.
    pub fn train(&self, mlp: &mut Mlp, inputs: &[Vec<f32>], labels: &[bool]) -> TrainReport {
        assert_eq!(inputs.len(), labels.len(), "inputs/labels length");
        assert!(!inputs.is_empty(), "empty training set");
        assert_eq!(mlp.out_dim(), 1, "binary head must have one output");
        let mut rng = Pcg::seed(self.config.seed);
        let mut adam = Adam::new(mlp, self.config.lr);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut loss_curve = Vec::with_capacity(self.config.epochs);
        for _epoch in 0..self.config.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(self.config.batch_size.max(1)) {
                let mut grads = mlp.zero_grads();
                for &i in batch {
                    let x = &inputs[i];
                    let target = if labels[i] { 1.0f32 } else { 0.0 };
                    let trace = mlp.forward_trace(x);
                    let logit = trace.last().expect("trace")[0];
                    let p = ops::sigmoid(logit);
                    // BCE over sigmoid: d(loss)/d(logit) = p - target.
                    let dlogit = p - target;
                    epoch_loss += bce(p, target) as f64;
                    mlp.backward(&trace, &[dlogit / batch.len() as f32], &mut grads);
                }
                adam.step(mlp, &grads);
            }
            loss_curve.push((epoch_loss / inputs.len() as f64) as f32);
        }
        TrainReport {
            final_loss: *loss_curve.last().expect("at least one epoch"),
            loss_curve,
            samples: inputs.len(),
        }
    }

    /// Evaluates classification quality at a threshold.
    pub fn evaluate(
        &self,
        mlp: &Mlp,
        inputs: &[Vec<f32>],
        labels: &[bool],
        threshold: f32,
    ) -> BinaryMetrics {
        let preds: Vec<bool> = inputs
            .iter()
            .map(|x| ops::sigmoid(mlp.forward(x)[0]) > threshold)
            .collect();
        BinaryMetrics::from_predictions(&preds, labels)
    }
}

fn bce(p: f32, target: f32) -> f32 {
    let p = p.clamp(1e-7, 1.0 - 1e-7);
    -(target * p.ln() + (1.0 - target) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Activation;

    fn xor_data() -> (Vec<Vec<f32>>, Vec<bool>) {
        let x = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![false, true, true, false];
        (x, y)
    }

    #[test]
    fn learns_xor() {
        let mut rng = Pcg::seed(7);
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::Relu, &mut rng);
        let (x, y) = xor_data();
        // replicate so batches have substance
        let xs: Vec<Vec<f32>> = x.iter().cycle().take(64).cloned().collect();
        let ys: Vec<bool> = y.iter().cycle().take(64).copied().collect();
        let trainer = BinaryTrainer::new(TrainConfig {
            epochs: 300,
            lr: 5e-3,
            ..Default::default()
        });
        let report = trainer.train(&mut mlp, &xs, &ys);
        assert!(report.final_loss < 0.1, "loss {}", report.final_loss);
        let metrics = trainer.evaluate(&mlp, &x, &y, 0.5);
        assert_eq!(metrics.accuracy(), 1.0);
    }

    #[test]
    fn loss_decreases() {
        let mut rng = Pcg::seed(8);
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Relu, &mut rng);
        let (x, y) = xor_data();
        let xs: Vec<Vec<f32>> = x.iter().cycle().take(32).cloned().collect();
        let ys: Vec<bool> = y.iter().cycle().take(32).copied().collect();
        let report = BinaryTrainer::new(TrainConfig {
            epochs: 60,
            lr: 5e-3,
            ..Default::default()
        })
        .train(&mut mlp, &xs, &ys);
        assert!(report.loss_curve.first().unwrap() > report.loss_curve.last().unwrap());
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_training() {
        let mut rng = Pcg::seed(1);
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Relu, &mut rng);
        BinaryTrainer::new(TrainConfig::default()).train(&mut mlp, &[], &[]);
    }
}
