//! Vector kernels used by the transformer decoder and the SpecEE predictor.

/// In-place numerically-stable softmax.
///
/// An empty slice is left unchanged.
pub fn softmax_inplace(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

/// Returns the softmax of `x` without mutating it.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    softmax_inplace(&mut out);
    out
}

/// The two terms log-softmax subtracts from every element: the maximum
/// and `ln Σ exp(x - max)`.
fn log_normaliser(x: &[f32]) -> (f32, f32) {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = x.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
    (max, log_sum)
}

/// Log-softmax (stable); used for perplexity accounting.
pub fn log_softmax(x: &[f32]) -> Vec<f32> {
    if x.is_empty() {
        return Vec::new();
    }
    let (max, log_sum) = log_normaliser(x);
    x.iter().map(|v| v - max - log_sum).collect()
}

/// Negative log-likelihood of `index` under `softmax(x)`: the one element
/// `-log_softmax(x)[index]`, bit for bit, without the vocabulary-wide
/// vector.
///
/// # Panics
///
/// Panics if `index` is out of range.
pub fn nll(x: &[f32], index: usize) -> f32 {
    let (max, log_sum) = log_normaliser(x);
    -(x[index] - max - log_sum)
}

/// Index of the maximum element (first on ties).
///
/// Returns `None` for an empty slice.
pub fn argmax(x: &[f32]) -> Option<usize> {
    x.iter()
        .enumerate()
        .fold(None, |best: Option<(usize, f32)>, (i, &v)| match best {
            Some((_, bv)) if bv >= v => best,
            _ => Some((i, v)),
        })
        .map(|(i, _)| i)
}

/// Indices of the `k` largest elements, in descending value order.
///
/// Returns all indices if `k >= x.len()`.
pub fn top_k(x: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    let k = k.min(x.len());
    idx.select_nth_unstable_by(
        k.saturating_sub(1).min(x.len().saturating_sub(1)),
        |&a, &b| x[b].partial_cmp(&x[a]).unwrap_or(std::cmp::Ordering::Equal),
    );
    idx.truncate(k);
    idx.sort_by(|&a, &b| x[b].partial_cmp(&x[a]).unwrap_or(std::cmp::Ordering::Equal));
    idx
}

/// RMS normalization: `x_i * g_i / rms(x)` as used by Llama-family models.
///
/// # Panics
///
/// Panics if `x.len() != gain.len()`.
pub fn rmsnorm(x: &[f32], gain: &[f32], eps: f32) -> Vec<f32> {
    assert_eq!(x.len(), gain.len(), "rmsnorm shape");
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len().max(1) as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    x.iter()
        .zip(gain.iter())
        .map(|(v, g)| v * inv * g)
        .collect()
}

/// SiLU activation `x * sigmoid(x)` (Llama FFN gate).
#[inline]
pub fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

/// ReLU activation.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Euclidean norm.
pub fn l2_norm(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Normalizes a vector to unit L2 norm in place (no-op on zero vectors).
pub fn l2_normalize(x: &mut [f32]) {
    let n = l2_norm(x);
    if n > 0.0 {
        for v in x {
            *v /= n;
        }
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert_close(p.iter().sum::<f32>(), 1.0);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_close(*x, *y);
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let p = softmax(&[1000.0, -1000.0]);
        assert_close(p[0], 1.0);
        assert_close(p[1], 0.0);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = [0.5, -1.0, 2.0, 0.0];
        let ls = log_softmax(&x);
        let p = softmax(&x);
        for (l, q) in ls.iter().zip(p.iter()) {
            assert_close(l.exp(), *q);
        }
    }

    proptest::proptest! {
        /// `nll` is one element of `-log_softmax`, to the bit: random
        /// logits quantised so that ties (a shared maximum included) are
        /// common, down to a one-element slice.
        #[test]
        fn nll_is_one_element_of_log_softmax(seed in 0u64..10_000, len in 1usize..48, levels in 1u32..40) {
            let mut rng = crate::rng::Pcg::seed(seed);
            let x: Vec<f32> = (0..len)
                .map(|_| (rng.next_u64() % u64::from(levels)) as f32 * 0.37 - 5.0)
                .collect();
            let reference = log_softmax(&x);
            for (i, r) in reference.iter().enumerate() {
                proptest::prop_assert_eq!(nll(&x, i).to_bits(), (-r).to_bits());
            }
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn top_k_descending() {
        let x = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k(&x, 2), vec![1, 3]);
        assert_eq!(top_k(&x, 10), vec![1, 3, 2, 0]);
    }

    #[test]
    fn top_k_of_one() {
        assert_eq!(top_k(&[2.0], 1), vec![0]);
    }

    #[test]
    fn rmsnorm_produces_unit_rms() {
        let x = [3.0, 4.0];
        let g = [1.0, 1.0];
        let y = rmsnorm(&x, &g, 0.0);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / 2.0).sqrt();
        assert_close(rms, 1.0);
    }

    #[test]
    fn silu_known_values() {
        assert_close(silu(0.0), 0.0);
        assert!(silu(10.0) > 9.9);
    }

    #[test]
    fn sigmoid_bounds() {
        assert_close(sigmoid(0.0), 0.5);
        assert!(sigmoid(20.0) > 0.999);
        assert!(sigmoid(-20.0) < 0.001);
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        assert_close(l2_norm(&v), 1.0);
    }
}
