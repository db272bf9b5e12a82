//! Adam optimizer and binary-classification training loop.
//!
//! [`BinaryTrainer::train`] works a mini-batch at a time: one
//! [`Backend::matmul_into`] per layer over the batch, the batch's output
//! gradients backpropagated into reusable buffers, every parameter
//! gradient summed over the batch's samples in batch order, and one
//! in-place Adam update. The per-sample path it replaced —
//! [`Mlp::forward_trace`], [`Mlp::backward`] and the allocating
//! [`Adam::step`] — stays as the reference the trainer-equivalence tests
//! pin it to: every weight, bias, Adam moment and loss bit for bit.
//!
//! [`Backend::matmul_into`]: specee_tensor::Backend::matmul_into

use serde::{Deserialize, Serialize};
use specee_tensor::{ops, rng::Pcg, BackendKind, Matrix};

use crate::dense::{Dense, DenseGrad};
use crate::metrics::BinaryMetrics;
use crate::mlp::Mlp;

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Adam optimizer state for one [`Mlp`], stepped from [`DenseGrad`]
/// buffers by the allocating [`Adam::step`] — the reference
/// [`BinaryTrainer::train`]'s in-place update is pinned to.
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
            beta1: BETA1,
            beta2: BETA2,
            eps: EPS,
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
    /// Panics if `inputs` and `labels` lengths differ, the training set is
    /// empty, the network has more than one output, or a sample's width is
    /// not the network's input width — all checked before the network is
    /// touched.
    pub fn train(&self, mlp: &mut Mlp, inputs: &[Vec<f32>], labels: &[bool]) -> TrainReport {
        self.train_batched(mlp, inputs, labels).0
    }

    /// [`BinaryTrainer::train`], also handing back each layer's final
    /// state (gradients and Adam moments).
    fn train_batched(
        &self,
        mlp: &mut Mlp,
        inputs: &[Vec<f32>],
        labels: &[bool],
    ) -> (TrainReport, Vec<LayerState>) {
        assert_eq!(inputs.len(), labels.len(), "inputs/labels length");
        assert!(!inputs.is_empty(), "empty training set");
        assert_eq!(mlp.out_dim(), 1, "binary head must have one output");
        let in_dim = mlp.in_dim();
        if let Some((i, x)) = inputs.iter().enumerate().find(|(_, x)| x.len() != in_dim) {
            panic!(
                "training sample {i} has {} features, the network takes {in_dim}",
                x.len()
            );
        }
        let batch_size = self.config.batch_size.max(1);
        let rows = batch_size.min(inputs.len());
        let mut states: Vec<LayerState> = mlp
            .layers()
            .iter()
            .map(|layer| LayerState::new(layer, rows))
            .collect();
        let mut xs = Vec::with_capacity(rows * in_dim);
        let mut rng = Pcg::seed(self.config.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut loss_curve = Vec::with_capacity(self.config.epochs);
        let mut t = 0u64;
        for _epoch in 0..self.config.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(batch_size) {
                xs.clear();
                for &i in batch {
                    xs.extend_from_slice(&inputs[i]);
                }
                forward_batch(mlp, &xs, batch.len(), &mut states);
                let head = states.last_mut().expect("a layer");
                for (s, &i) in batch.iter().enumerate() {
                    let target = if labels[i] { 1.0f32 } else { 0.0 };
                    let p = ops::sigmoid(head.out[s]);
                    // BCE over sigmoid: d(loss)/d(logit) = p - target.
                    let dlogit = p - target;
                    epoch_loss += bce(p, target) as f64;
                    head.delta[s] = dlogit / batch.len() as f32;
                }
                backward_batch(mlp, &xs, batch.len(), &mut states);
                t += 1;
                adam_update(mlp, &mut states, self.config.lr, t);
            }
            loss_curve.push((epoch_loss / inputs.len() as f64) as f32);
        }
        let report = TrainReport {
            final_loss: *loss_curve.last().expect("at least one epoch"),
            loss_curve,
            samples: inputs.len(),
        };
        (report, states)
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

/// One layer's working set for [`BinaryTrainer::train`]. The weight
/// gradient and its two Adam moments share one layout: the weights' own
/// (`out × in`, row-major) when the layer keeps or narrows its width
/// (`512 → 1`), their transpose (`in × out`) when it widens (`12 → 512`),
/// so the gradient's inner loop runs along the wider dimension.
#[derive(Debug)]
struct LayerState {
    in_dim: usize,
    out_dim: usize,
    transposed: bool,
    /// The batch's outputs, one row of `out_dim` a sample; after the
    /// activation on hidden layers.
    out: Vec<f32>,
    /// The batch's loss gradients at the layer's output, before the
    /// activation, one row a sample.
    delta: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    m_w: Vec<f32>,
    v_w: Vec<f32>,
    m_b: Vec<f32>,
    v_b: Vec<f32>,
}

impl LayerState {
    fn new(layer: &Dense, rows: usize) -> Self {
        let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
        let params = vec![0.0; in_dim * out_dim];
        let bias = vec![0.0; out_dim];
        LayerState {
            in_dim,
            out_dim,
            transposed: out_dim > in_dim,
            out: vec![0.0; rows * out_dim],
            delta: vec![0.0; rows * out_dim],
            dw: params.clone(),
            db: bias.clone(),
            m_w: params.clone(),
            v_w: params,
            m_b: bias.clone(),
            v_b: bias,
        }
    }

    /// Adds the `n` samples' `g·x` (and `g`) to the gradients, sample by
    /// sample in batch order, where `g` is a row of [`LayerState::delta`]
    /// and `x` the same sample's row of `xs`, its input to this layer.
    fn accumulate(&mut self, xs: &[f32], n: usize) {
        let gs = &self.delta[..n * self.out_dim];
        for g in gs.chunks_exact(self.out_dim) {
            for (d, &g) in self.db.iter_mut().zip(g) {
                *d += g;
            }
        }
        if self.transposed {
            add_outer_products(&mut self.dw, xs, self.in_dim, gs, self.out_dim, n);
        } else {
            add_outer_products(&mut self.dw, gs, self.out_dim, xs, self.in_dim, n);
        }
    }
}

/// Columns of `acc` one register block of [`add_outer_products`] holds.
const LANES: usize = 32;

/// `acc[a][b] += lhs[s][a] · rhs[s][b]` for `s` in `0..n`, one sample after
/// another, where `acc` is `lhs_dim × rhs_dim` and `lhs`, `rhs` hold `n`
/// rows of `lhs_dim`, `rhs_dim`. Each element's chain is the per-sample
/// order; a block of `LANES` columns stays in registers for the whole
/// batch.
fn add_outer_products(
    acc: &mut [f32],
    lhs: &[f32],
    lhs_dim: usize,
    rhs: &[f32],
    rhs_dim: usize,
    n: usize,
) {
    let blocks = rhs_dim / LANES;
    for block in 0..blocks {
        let b0 = block * LANES;
        for a in 0..lhs_dim {
            let out = &mut acc[a * rhs_dim + b0..a * rhs_dim + b0 + LANES];
            let mut sums = [0.0f32; LANES];
            sums.copy_from_slice(out);
            for s in 0..n {
                let l = lhs[s * lhs_dim + a];
                let r = &rhs[s * rhs_dim + b0..s * rhs_dim + b0 + LANES];
                for (sum, &r) in sums.iter_mut().zip(r) {
                    *sum += l * r;
                }
            }
            out.copy_from_slice(&sums);
        }
    }
    for a in 0..lhs_dim {
        for b in blocks * LANES..rhs_dim {
            let out = &mut acc[a * rhs_dim + b];
            for s in 0..n {
                *out += lhs[s * lhs_dim + a] * rhs[s * rhs_dim + b];
            }
        }
    }
}

/// Runs the `n` samples packed row-major in `xs` through every layer, one
/// weight pass a layer, into each layer's [`LayerState::out`]. `Blocked`'s
/// `matmul_into` is [`Matrix::matvec`] per input bit for bit, so every row
/// is [`Mlp::forward_trace`]'s.
fn forward_batch(mlp: &Mlp, xs: &[f32], n: usize, states: &mut [LayerState]) {
    let activation = mlp.activation();
    let last = states.len() - 1;
    for (l, layer) in mlp.layers().iter().enumerate() {
        let (below, rest) = states.split_at_mut(l);
        let input = match below.last() {
            Some(prev) => &prev.out[..n * prev.out_dim],
            None => xs,
        };
        let out = &mut rest[0].out[..n * layer.out_dim()];
        BackendKind::Blocked
            .get()
            .matmul_into(layer.weights(), input, n, out);
        for row in out.chunks_exact_mut(layer.out_dim()) {
            for (v, b) in row.iter_mut().zip(layer.bias()) {
                *v += b;
                if l != last {
                    *v = activation.apply(*v);
                }
            }
        }
    }
}

/// Backpropagates the batch from the output layer's
/// [`LayerState::delta`], adding to every layer's gradients what
/// [`Mlp::backward`] adds sample by sample. Layer 0's input gradient is
/// not computed.
fn backward_batch(mlp: &Mlp, xs: &[f32], n: usize, states: &mut [LayerState]) {
    let activation = mlp.activation();
    for (l, layer) in mlp.layers().iter().enumerate().rev() {
        let (below, rest) = states.split_at_mut(l);
        let state = &mut rest[0];
        let Some(prev) = below.last_mut() else {
            state.accumulate(xs, n);
            continue;
        };
        state.accumulate(&prev.out[..n * prev.out_dim], n);
        let gs = state.delta[..n * state.out_dim].chunks_exact(state.out_dim);
        let ds = prev.delta.chunks_exact_mut(prev.out_dim);
        for ((g, d), y) in gs.zip(ds).zip(prev.out.chunks_exact(prev.out_dim)) {
            // `Matrix::matvec_t`'s chain: rows in order, from zero; then
            // the activation's derivative.
            d.fill(0.0);
            for (r, &g) in g.iter().enumerate() {
                for (d, &w) in d.iter_mut().zip(layer.weights().row(r)) {
                    *d += w * g;
                }
            }
            for (d, &y) in d.iter_mut().zip(y) {
                *d *= activation.derivative_from_output(y);
            }
        }
    }
}

/// Adam step `t` from the accumulated gradients, in place, with the
/// reference [`Adam::step`]'s expressions; zeroes the gradients.
fn adam_update(mlp: &mut Mlp, states: &mut [LayerState], lr: f32, t: u64) {
    let bc1 = 1.0 - BETA1.powi(t as i32);
    let bc2 = 1.0 - BETA2.powi(t as i32);
    for (layer, st) in mlp.layers_mut().iter_mut().zip(states.iter_mut()) {
        adam_steps(&mut st.m_w, &mut st.v_w, &mut st.dw, lr, bc1, bc2);
        adam_steps(&mut st.m_b, &mut st.v_b, &mut st.db, lr, bc1, bc2);
        // The reference adds `step · −1`, which is `w − step` exactly.
        let (w, b) = layer.params_mut();
        if st.transposed {
            for (r, row) in w.chunks_exact_mut(st.in_dim).enumerate() {
                for (c, w) in row.iter_mut().enumerate() {
                    *w -= st.dw[c * st.out_dim + r];
                }
            }
        } else {
            for (w, step) in w.iter_mut().zip(&st.dw) {
                *w -= step;
            }
        }
        for (b, step) in b.iter_mut().zip(&st.db) {
            *b -= step;
        }
        st.dw.fill(0.0);
        st.db.fill(0.0);
    }
}

/// Moves the Adam moments `m`, `v` by the gradients `g` and overwrites
/// each gradient with its step (to be subtracted).
fn adam_steps(m: &mut [f32], v: &mut [f32], g: &mut [f32], lr: f32, bc1: f32, bc2: f32) {
    for ((m, v), g) in m.iter_mut().zip(v.iter_mut()).zip(g.iter_mut()) {
        let grad = *g;
        *m = BETA1 * *m + (1.0 - BETA1) * grad;
        *v = BETA2 * *v + (1.0 - BETA2) * grad * grad;
        let mhat = *m / bc1;
        let vhat = *v / bc2;
        *g = lr * mhat / (vhat.sqrt() + EPS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Activation;
    use proptest::prelude::*;

    /// The per-sample trainer [`BinaryTrainer::train`] replaced, verbatim:
    /// one `forward_trace` + `backward` a sample on the scalar oracle, one
    /// allocating [`Adam::step`] a batch. The reference it is pinned to.
    fn per_sample_train(
        config: &TrainConfig,
        mlp: &mut Mlp,
        inputs: &[Vec<f32>],
        labels: &[bool],
    ) -> (TrainReport, Adam) {
        let mut rng = Pcg::seed(config.seed);
        let mut adam = Adam::new(mlp, config.lr);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut loss_curve = Vec::with_capacity(config.epochs);
        for _epoch in 0..config.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(config.batch_size.max(1)) {
                let mut grads = mlp.zero_grads();
                for &i in batch {
                    let target = if labels[i] { 1.0f32 } else { 0.0 };
                    let trace = mlp.forward_trace(&inputs[i]);
                    let p = ops::sigmoid(trace.last().expect("trace")[0]);
                    let dlogit = p - target;
                    epoch_loss += bce(p, target) as f64;
                    mlp.backward(&trace, &[dlogit / batch.len() as f32], &mut grads);
                }
                adam.step(mlp, &grads);
            }
            loss_curve.push((epoch_loss / inputs.len() as f64) as f32);
        }
        let report = TrainReport {
            final_loss: *loss_curve.last().expect("at least one epoch"),
            loss_curve,
            samples: inputs.len(),
        };
        (report, adam)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `buf`, laid out as `state`'s weight gradient, in the weights' own
    /// row-major `out × in` order.
    fn row_major(state: &LayerState, buf: &[f32]) -> Vec<f32> {
        if !state.transposed {
            return buf.to_vec();
        }
        let (rows, cols) = (state.out_dim, state.in_dim);
        (0..rows * cols)
            .map(|at| buf[(at % cols) * rows + at / cols])
            .collect()
    }

    /// `n` random samples of width `width`, labelled by a random
    /// hyperplane with one label in eight flipped.
    fn dataset(width: usize, n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = Pcg::seed(seed);
        let mut plane = vec![0.0f32; width];
        rng.fill_uniform(&mut plane, 1.0);
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let mut x = vec![0.0f32; width];
                rng.fill_uniform(&mut x, 2.0);
                x
            })
            .collect();
        let labels = inputs
            .iter()
            .map(|x| {
                let side = x.iter().zip(&plane).map(|(a, b)| a * b).sum::<f32>() > 0.0;
                side != (rng.below(8) == 0)
            })
            .collect();
        (inputs, labels)
    }

    /// Trains one network both ways and asserts every weight, bias, Adam
    /// moment and loss equal bit for bit.
    fn assert_trains_like_the_reference(
        dims: &[usize],
        activation: Activation,
        config: &TrainConfig,
        n: usize,
        seed: u64,
    ) {
        let case = format!("{dims:?} {activation:?} n {n} {config:?}");
        let start = Mlp::new(dims, activation, &mut Pcg::seed(seed));
        let (inputs, labels) = dataset(dims[0], n, seed ^ 0x5eed);
        let mut reference = start.clone();
        let (want, adam) = per_sample_train(config, &mut reference, &inputs, &labels);
        let mut batched = start;
        let (got, states) =
            BinaryTrainer::new(config.clone()).train_batched(&mut batched, &inputs, &labels);
        let same = |what: String, got: &[f32], want: &[f32]| {
            assert_eq!(bits(got), bits(want), "{case}: {what}");
        };
        same("loss curve".into(), &got.loss_curve, &want.loss_curve);
        same("final loss".into(), &[got.final_loss], &[want.final_loss]);
        assert_eq!(got.samples, want.samples, "{case}");
        let layers = batched.layers().iter().zip(reference.layers());
        for (l, ((b, r), st)) in layers.zip(&states).enumerate() {
            let w = (b.weights().as_slice(), r.weights().as_slice());
            same(format!("layer {l} w"), w.0, w.1);
            same(format!("layer {l} b"), b.bias(), r.bias());
            let m_w = row_major(st, &st.m_w);
            same(format!("layer {l} m_w"), &m_w, adam.m_w[l].as_slice());
            let v_w = row_major(st, &st.v_w);
            same(format!("layer {l} v_w"), &v_w, adam.v_w[l].as_slice());
            same(format!("layer {l} m_b"), &st.m_b, &adam.m_b[l]);
            same(format!("layer {l} v_b"), &st.v_b, &adam.v_b[l]);
        }
    }

    /// Widths Fig. 8's sweep and the shapes around it use, from the
    /// degenerate to twice the paper's hidden width.
    const WIDTHS: [usize; 6] = [1, 3, 12, 64, 512, 1024];
    const BATCHES: [usize; 3] = [1, 7, 64];
    const RATES: [f32; 2] = [1e-3, 3e-3];
    /// Parameters × samples × epochs one case may train: a few tens of
    /// milliseconds of a debug build, both trainers.
    const BUDGET: usize = 4_000_000;

    /// `batch × full + ragged` samples (`ragged` in `1..batch` for a
    /// batch over one), cut to what `BUDGET` affords this network.
    fn samples(dims: &[usize], epochs: usize, batch: usize, full: usize, ragged: usize) -> usize {
        let params: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
        let wanted = batch * full
            + if batch > 1 {
                1 + ragged % (batch - 1)
            } else {
                0
            };
        wanted.min((BUDGET / (params * epochs)).max(1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Random depth-1–4 networks over `WIDTHS`, every batch size with a
        /// ragged last batch, 1–3 epochs, two rates.
        #[test]
        fn the_batched_trainer_is_the_per_sample_trainer_bit_for_bit(
            depth in 1usize..5,
            widths in (0usize..6, 0usize..6, 0usize..6, 0usize..6),
            batch in 0usize..3,
            epochs in 1usize..4,
            rate in 0usize..2,
            full in 1usize..3,
            ragged in 0usize..64,
            seed in 0u64..1_000_000,
        ) {
            let picks = [widths.0, widths.1, widths.2, widths.3];
            let mut dims: Vec<usize> = picks[..depth].iter().map(|&w| WIDTHS[w]).collect();
            dims.push(1);
            let batch = BATCHES[batch];
            let config = TrainConfig { lr: RATES[rate], epochs, batch_size: batch, seed };
            let n = samples(&dims, epochs, batch, full, ragged);
            assert_trains_like_the_reference(&dims, Activation::Relu, &config, n, seed);
        }
    }

    /// Every width as the input and as a hidden layer, and every depth,
    /// batch size and rate at least once, each batch size with a ragged
    /// last batch.
    #[test]
    fn every_width_depth_and_batch_trains_bit_for_bit() {
        let mut seed = 11;
        for (i, &width) in WIDTHS.iter().enumerate() {
            let batch = BATCHES[i % 3];
            let mut shapes = vec![vec![width, 1], vec![width, 3, 1], vec![3, width, 1]];
            shapes.push(vec![12, width, 3, 1]);
            shapes.push(vec![width, 12, 64, 3, 1]);
            for dims in shapes {
                let epochs = 1 + (seed as usize) % 3;
                let config = TrainConfig {
                    lr: RATES[seed as usize % 2],
                    epochs,
                    batch_size: batch,
                    seed,
                };
                let n = samples(&dims, epochs, batch, 1, seed as usize);
                assert_trains_like_the_reference(&dims, Activation::Relu, &config, n, seed);
                seed += 1;
            }
        }
    }

    /// The predictor's own shape and the decode recipe (12 → 512 → 1,
    /// ReLU, lr 3e-3, batch 64), over several full batches and a ragged
    /// one.
    #[test]
    fn the_exit_predictor_recipe_trains_bit_for_bit() {
        let config = TrainConfig {
            lr: 3e-3,
            epochs: 3,
            ..TrainConfig::default()
        };
        assert_trains_like_the_reference(&[12, 512, 1], Activation::Relu, &config, 3 * 64 + 29, 7);
    }

    #[test]
    #[should_panic(expected = "training sample 2 has 3 features, the network takes 2")]
    fn a_mis_sized_sample_is_named() {
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Relu, &mut Pcg::seed(1));
        let x = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0, 1.0]];
        BinaryTrainer::new(TrainConfig::default()).train(&mut mlp, &x, &[true, false, true]);
    }

    /// The widths are checked before the first batch: a bad sample that
    /// the first epoch reaches last leaves the network as it was.
    #[test]
    fn a_mis_sized_sample_leaves_the_network_untouched() {
        let config = TrainConfig {
            batch_size: 7,
            ..TrainConfig::default()
        };
        let (mut inputs, labels) = dataset(12, 200, 3);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        Pcg::seed(config.seed).shuffle(&mut order);
        inputs[*order.last().expect("samples")].push(0.5);
        let mut mlp = Mlp::new(&[12, 16, 1], Activation::Relu, &mut Pcg::seed(2));
        let before = mlp.clone();
        let trainer = BinaryTrainer::new(config);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trainer.train(&mut mlp, &inputs, &labels)
        }));
        assert!(run.is_err(), "a 13-wide sample must be refused");
        assert_eq!(mlp, before);
    }

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
