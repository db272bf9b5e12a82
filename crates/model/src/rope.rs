//! Rotary position embeddings (RoPE), as used by Llama-family models.

/// The `head_dim / 2` inverse frequencies `theta^(-2i / head_dim)`. They
/// depend on `(head_dim, theta)` alone, so a model builds them once and
/// every position of every layer reuses them.
#[derive(Debug, Clone, PartialEq)]
pub struct RopeFreqs(Vec<f32>);

impl RopeFreqs {
    /// The inverse frequencies of a `head_dim`-wide head at base `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `head_dim` is odd.
    pub fn new(head_dim: usize, theta: f32) -> Self {
        assert!(head_dim.is_multiple_of(2), "head_dim must be even");
        let freq = |i| theta.powf(-2.0 * i as f32 / head_dim as f32);
        RopeFreqs((0..head_dim / 2).map(freq).collect())
    }

    /// The `(sin, cos)` pairs of position `pos` — the same for every head
    /// and for queries and keys, so computed once per position.
    pub(crate) fn sin_cos_table(&self, pos: usize) -> Vec<(f32, f32)> {
        let at = |&freq: &f32| (pos as f32 * freq).sin_cos();
        self.0.iter().map(at).collect()
    }

    /// Rotates `x` (`[n_heads × head_dim]`, pairwise within each head) to
    /// position `pos`, in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not `n_heads * head_dim`.
    pub fn rotate(&self, x: &mut [f32], pos: usize, n_heads: usize) {
        rotate(x, &self.sin_cos_table(pos), n_heads);
    }

    /// [`RopeFreqs::rotate`] on a query and its key at the same position,
    /// sharing one `(sin, cos)` table between them.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions, for either vector.
    pub fn rotate_qk(&self, q: &mut [f32], k: &mut [f32], pos: usize, n_heads: usize) {
        let table = self.sin_cos_table(pos);
        rotate(q, &table, n_heads);
        rotate(k, &table, n_heads);
    }
}

/// Rotates `x` (`[n_heads × head_dim]`) by one position's `(sin, cos)`
/// table ([`RopeFreqs::sin_cos_table`]), in place.
pub(crate) fn rotate(x: &mut [f32], table: &[(f32, f32)], n_heads: usize) {
    assert_eq!(x.len(), n_heads * table.len() * 2, "rope shape");
    for head in x.chunks_exact_mut(table.len() * 2) {
        for (pair, &(sin, cos)) in head.chunks_exact_mut(2).zip(table) {
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a * cos - b * sin;
            pair[1] = a * sin + b * cos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee_tensor::ops::l2_norm;

    #[test]
    fn position_zero_is_identity() {
        let mut x = vec![0.5, -0.25, 1.0, 2.0];
        let orig = x.clone();
        RopeFreqs::new(4, 10000.0).rotate(&mut x, 0, 1);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let mut x = vec![0.3, -0.7, 0.2, 0.9, 1.1, -0.4, 0.0, 0.5];
        let before = l2_norm(&x);
        RopeFreqs::new(4, 10000.0).rotate(&mut x, 17, 2);
        assert!((l2_norm(&x) - before).abs() < 1e-5);
    }

    #[test]
    fn relative_property_dot_depends_on_distance() {
        // q at pos p and k at pos q: their dot depends only on p - q.
        let base_q = vec![0.4, 0.1];
        let base_k = vec![-0.2, 0.8];
        let dot_at = |pq: usize, pk: usize| {
            let mut q = base_q.clone();
            let mut k = base_k.clone();
            RopeFreqs::new(2, 10000.0).rotate(&mut q, pq, 1);
            RopeFreqs::new(2, 10000.0).rotate(&mut k, pk, 1);
            q[0] * k[0] + q[1] * k[1]
        };
        assert!((dot_at(5, 3) - dot_at(9, 7)).abs() < 1e-5);
        assert!((dot_at(5, 3) - dot_at(5, 2)).abs() > 1e-6);
    }

    /// The formula as it was before the table: `powf` + `sin_cos` redone
    /// for every head.
    fn per_head_reference(x: &mut [f32], pos: usize, n_heads: usize, head_dim: usize, theta: f32) {
        for h in 0..n_heads {
            let head = &mut x[h * head_dim..(h + 1) * head_dim];
            for i in 0..head_dim / 2 {
                let freq = theta.powf(-2.0 * i as f32 / head_dim as f32);
                let (sin, cos) = (pos as f32 * freq).sin_cos();
                let (a, b) = (head[2 * i], head[2 * i + 1]);
                head[2 * i] = a * cos - b * sin;
                head[2 * i + 1] = a * sin + b * cos;
            }
        }
    }

    #[test]
    fn shared_table_is_bit_identical_to_the_per_head_formula() {
        let (n_heads, head_dim) = (4, 32);
        let mut rng = specee_tensor::rng::Pcg::seed(5);
        // Built once, reused across positions: what a `Transformer` does.
        let freqs = RopeFreqs::new(head_dim, 10000.0);
        for pos in [0, 1, 17, 1023] {
            let mut q = vec![0.0f32; n_heads * head_dim];
            let mut k = q.clone();
            rng.fill_uniform(&mut q, 1.0);
            rng.fill_uniform(&mut k, 1.0);
            let (mut want_q, mut want_k) = (q.clone(), k.clone());
            per_head_reference(&mut want_q, pos, n_heads, head_dim, 10000.0);
            per_head_reference(&mut want_k, pos, n_heads, head_dim, 10000.0);

            let mut single = k.clone();
            freqs.rotate(&mut single, pos, n_heads);
            freqs.rotate_qk(&mut q, &mut k, pos, n_heads);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&q), bits(&want_q), "q at pos {pos}");
            assert_eq!(bits(&k), bits(&want_k), "k at pos {pos}");
            assert_eq!(bits(&single), bits(&want_k), "rotate at pos {pos}");
        }
    }

    #[test]
    #[should_panic(expected = "rope shape")]
    fn validates_shape() {
        let mut x = vec![0.0; 6];
        RopeFreqs::new(4, 10000.0).rotate(&mut x, 0, 2);
    }
}
