//! Vector kernels used by the transformer decoder and the SpecEE predictor.

/// `x[i] = x[i].exp()` for every element: each lane holds exactly the bits
/// [`f32::exp`] returns.
///
/// On x86-64 Linux `f32::exp` is glibc's `expf`, which on a CPU with FMA
/// and AVX2 resolves to `__expf_fma`: `x · 32/ln 2 = k + r` in f64,
/// `2^(k/32)` from a 32-entry table, `2^(r/32)` from a degree-3
/// polynomial, four fused multiply-adds and one rounding to f32. The
/// vector path evaluates exactly that — the same constants, operations and
/// order — 4 doubles a 256-bit register, and sends the lanes glibc sends
/// down its special path (`|x| >= 88`, the infinities, NaN) through
/// `f32::exp` itself. No lane reads another, so the register a lane sits
/// in cannot change a bit. It runs only where it agrees with `f32::exp` on
/// a probe set, checked once; a libm whose `expf` is not `__expf_fma`
/// (glibc before 2.27, a hwcaps tunable that masks FMA or AVX2) fails that
/// check and gets the scalar loop, as every other host does.
pub fn exp_in_place(x: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    {
        if x86::libm_expf_is_fma() {
            // SAFETY: `libm_expf_is_fma` checks FMA and AVX2.
            return unsafe { x86::exp_avx2(x) };
        }
    }
    exp_scalar(x);
}

/// The scalar loop: one `f32::exp` an element.
fn exp_scalar(x: &mut [f32]) {
    for v in x {
        *v = v.exp();
    }
}

/// The vector path of [`exp_in_place`]: glibc's `__expf_fma`
/// (`sysdeps/ieee754/flt-32/e_expf.c` built with FMA), lane for lane.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod x86 {
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// `__exp2f_data.tab`: the bits of `2^(i/32)` less `i << 47`, so that
    /// adding `k << 47` to entry `k % 32` builds `2^(k/32)` for any `k` the
    /// reduction yields.
    pub(super) static TABLE: [u64; 32] = [
        0x3ff0000000000000,
        0x3fefd9b0d3158574,
        0x3fefb5586cf9890f,
        0x3fef9301d0125b51,
        0x3fef72b83c7d517b,
        0x3fef54873168b9aa,
        0x3fef387a6e756238,
        0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715,
        0x3feef1a7373aa9cb,
        0x3feedea64c123422,
        0x3feece086061892d,
        0x3feebfdad5362a27,
        0x3feeb42b569d4f82,
        0x3feeab07dd485429,
        0x3feea47eb03a5585,
        0x3feea09e667f3bcd,
        0x3fee9f75e8ec5f74,
        0x3feea11473eb0187,
        0x3feea589994cce13,
        0x3feeace5422aa0db,
        0x3feeb737b0cdc5e5,
        0x3feec49182a3f090,
        0x3feed503b23e255d,
        0x3feee89f995ad3ad,
        0x3feeff76f2fb5e47,
        0x3fef199bdd85529c,
        0x3fef3720dcef9069,
        0x3fef5818dcfba487,
        0x3fef7c97337b9b5f,
        0x3fefa4afa2a490da,
        0x3fefd0765b6e4540,
    ];
    /// `32 / ln 2` (`invln2_scaled`, `0x1.71547652b82fep+5`).
    pub(super) const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
    /// `0x1.8p52`: added to `x · 32/ln 2`, it rounds it to the integer `k`
    /// in the low bits.
    pub(super) const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
    /// `poly_scaled`: the cubic, quadratic and linear coefficients of
    /// `2^(r/32)`.
    pub(super) const C: [f64; 3] = [
        f64::from_bits(0x3ebc_6af8_4b91_2394),
        f64::from_bits(0x3f2e_bfce_50fa_c4f3),
        f64::from_bits(0x3f96_2e42_ff0c_52d6),
    ];

    /// Whether glibc's `expf` is `__expf_fma` here, so that [`exp_avx2`]
    /// returns its bits: FMA and AVX2 are present (glibc's resolver asks for
    /// both) and, checked once, [`exp_avx2`] agrees with `f32::exp` on
    /// [`probes`]. Any other `expf` — `__expf_sse2`, whose unfused
    /// arithmetic rounds differently, or an older glibc's — fails that
    /// check, and the scalar loop runs instead.
    pub fn libm_expf_is_fma() -> bool {
        static AGREES: OnceLock<bool> = OnceLock::new();
        *AGREES.get_or_init(|| {
            std::arch::is_x86_feature_detected!("fma")
                && std::arch::is_x86_feature_detected!("avx2")
                // SAFETY: both features are checked on the lines above.
                && agrees_with_libm(|x| unsafe { exp_avx2(x) })
        })
    }

    /// Whether `path` returns `f32::exp`'s bits on every one of [`probes`].
    pub(super) fn agrees_with_libm(path: impl Fn(&mut [f32])) -> bool {
        let inputs = probes();
        let mut got = inputs.clone();
        path(&mut got);
        inputs
            .iter()
            .zip(&got)
            .all(|(x, y)| x.exp().to_bits() == y.to_bits())
    }

    /// The inputs [`libm_expf_is_fma`] checks: the only two f32 on which a
    /// reduction `r` computed by a multiply, then a subtract, rounds to a
    /// different result, and 254 values spread over `(-88, 88)`.
    fn probes() -> Vec<f32> {
        let spread = (0..254u16).map(|i| (f32::from(i) * 0.618_034).fract() * 175.0 - 87.5);
        [0x4202_422f, 0xc27c_65d9]
            .map(f32::from_bits)
            .into_iter()
            .chain(spread)
            .collect()
    }

    /// Overwrites lane `i` of `out` with `f32::exp` of lane `i` of `x` for
    /// each bit `i` set in `special`: the lanes glibc's own test sends down
    /// its special path, top-12 bits of `|x|` past `0x42a` — that is, not
    /// `|x| < 88`.
    #[cold]
    fn scalar_lanes(out: &mut [f32], x: &[f32], special: i32) {
        for (i, (o, v)) in out.iter_mut().zip(x).enumerate() {
            if (special >> i) & 1 != 0 {
                *o = v.exp();
            }
        }
    }

    /// Four lanes in one 256-bit register of doubles; the table through a
    /// gather.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4(lanes: &mut [f32; 4]) {
        let x = _mm_loadu_ps(lanes.as_ptr());
        let xd = _mm256_cvtps_pd(x);
        let (inv, shift) = (_mm256_set1_pd(INV_LN2_N), _mm256_set1_pd(SHIFT));
        let kd = _mm256_fmadd_pd(inv, xd, shift);
        let r = _mm256_fmsub_pd(inv, xd, _mm256_sub_pd(kd, shift));
        let ki = _mm256_castpd_si256(kd);
        // In bounds: every index is masked to `0..32`.
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_pd::<8>(TABLE.as_ptr().cast(), index);
        let t = _mm256_castpd_si256(t);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(C[0]), r, _mm256_set1_pd(C[1]));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(C[2]), r, _mm256_set1_pd(1.0));
        let y = _mm256_mul_pd(_mm256_fmadd_pd(z, r2, y), s);
        _mm_storeu_ps(lanes.as_mut_ptr(), _mm256_cvtpd_ps(y));
        let abs = _mm_andnot_ps(_mm_set1_ps(-0.0), x);
        let special = _mm_movemask_ps(_mm_cmp_ps::<_CMP_NLT_UQ>(abs, _mm_set1_ps(88.0)));
        if special != 0 {
            let mut orig = [0.0f32; 4];
            _mm_storeu_ps(orig.as_mut_ptr(), x);
            scalar_lanes(lanes, &orig, special);
        }
    }

    /// The vector path: four lanes at a time, the last partial chunk
    /// through a zero-padded copy.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_avx2(x: &mut [f32]) {
        let mut chunks = x.chunks_exact_mut(4);
        for chunk in &mut chunks {
            exp4(chunk.try_into().expect("chunks_exact_mut yields 4 lanes"));
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let mut padded = [0.0f32; 4];
            padded[..tail.len()].copy_from_slice(tail);
            exp4(&mut padded);
            tail.copy_from_slice(&padded[..tail.len()]);
        }
    }
}

/// In-place numerically-stable softmax: the maximum subtracted,
/// [`exp_in_place`], then one sum in element order.
///
/// An empty slice is left unchanged.
pub fn softmax_inplace(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in x.iter_mut() {
        *v -= max;
    }
    exp_in_place(x);
    let mut sum = 0.0;
    for v in x.iter() {
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
/// and `ln Σ exp(x - max)`, summed in element order.
fn log_normaliser(x: &[f32]) -> (f32, f32) {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut e: Vec<f32> = x.iter().map(|v| v - max).collect();
    exp_in_place(&mut e);
    (max, e.iter().sum::<f32>().ln())
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

/// `gate[i] = silu(gate[i]) * up[i]`, the gated FFN's activation: the
/// operations of [`silu`] in its order, `a * (1 / (1 + exp(-a))) * u`,
/// with every `exp(-a)` from one [`exp_in_place`] over the whole gate.
///
/// # Panics
///
/// Panics if `gate.len() != up.len()`.
pub fn silu_mul_in_place(gate: &mut [f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len(), "gate and up widths");
    let mut e: Vec<f32> = gate.iter().map(|a| -a).collect();
    exp_in_place(&mut e);
    for ((a, &u), e) in gate.iter_mut().zip(up).zip(e) {
        *a = *a * (1.0 / (1.0 + e)) * u;
    }
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
    use crate::rng::Pcg;

    fn assert_close(a: f32, b: f32) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// An `exp` path, as the tests call it.
    type ExpPath = fn(&mut [f32]);

    /// Every `exp` path this CPU can run, by name. [`exp_in_place`] only
    /// ever reaches the vector one when it has it; the tests below pin
    /// *each* to `f32::exp`.
    fn exp_paths() -> Vec<(&'static str, ExpPath)> {
        let mut paths: Vec<(&'static str, ExpPath)> = vec![("scalar", exp_scalar)];
        #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
        {
            if x86::libm_expf_is_fma() {
                // SAFETY: pushed only when the features are present.
                paths.push(("avx2+fma", |x| unsafe { x86::exp_avx2(x) }));
            }
        }
        paths
    }

    /// `__expf_sse2`, what glibc's `expf` is without FMA: `__expf_fma`'s
    /// table and polynomial, every product rounded before its sum.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn expf_sse2(x: f32) -> f32 {
        use x86::{C, INV_LN2_N, SHIFT, TABLE};
        if x.abs() >= 88.0 || x.is_nan() {
            return x.exp();
        }
        let z = INV_LN2_N * f64::from(x);
        let kd = z + SHIFT;
        let ki = kd.to_bits();
        let r = z - (kd - SHIFT);
        let t = TABLE[(ki % 32) as usize].wrapping_add(ki << 47);
        let y = (C[0] * r + C[1]) * (r * r) + (C[2] * r + 1.0);
        (y * f64::from_bits(t)) as f32
    }

    /// The probe behind [`exp_in_place`]'s choice rejects glibc's other
    /// `expf`, so a host whose `f32::exp` is `__expf_sse2` runs the scalar
    /// loop, and accepts the vector path wherever this CPU has it.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[test]
    fn the_probe_tells_expf_fma_from_expf_sse2() {
        let sse2 = |x: &mut [f32]| x.iter_mut().for_each(|v| *v = expf_sse2(*v));
        // A near miss: it rounds like `__expf_fma` on every 4099th bit
        // pattern (this prints 0), so only the probe set can tell them apart.
        let sample: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        let bad = exp_mismatches(sse2, &sample).len();
        println!(
            "__expf_sse2 differs on {bad} of {} sampled inputs",
            sample.len()
        );
        assert!(!x86::agrees_with_libm(sse2));
        let has_features = std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("avx2");
        assert_eq!(x86::libm_expf_is_fma(), has_features);
        println!("vector exp path in use: {}", x86::libm_expf_is_fma());
    }

    /// Bit patterns where an `exp` path can go wrong: signed zeros,
    /// subnormals, the special-path boundary at ±88, the overflow threshold
    /// `0x1.62e42ep6` and the underflow ones −103.28 (`-0x1.9d1d9ep6`) and
    /// −103.97 (`-0x1.9fe368p6`), each with a neighbour; the infinities and
    /// NaN payloads, quiet and signalling; and the only two f32 on which a
    /// reduction `r` computed by a plain multiply, then a subtract, rounds
    /// to a different result (found by the exhaustive test below).
    const EXP_EDGES: &[u32] = &[
        0x4202_422f,
        0xc27c_65d9,
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x007f_ffff,
        0x8000_0001,
        0x807f_ffff,
        0x42af_ffff,
        0x42b0_0000,
        0xc2af_ffff,
        0xc2b0_0000,
        0x42b1_7217,
        0x42b1_7218,
        0xc2ce_8ecf,
        0xc2ce_8ed0,
        0xc2cf_f1b4,
        0xc2cf_f1b5,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_0000,
        0x7f80_0001,
        0x7fa0_0000,
        0x7fff_ffff,
        0xffff_ffff,
    ];

    /// The inputs on which `path` and `f32::exp` disagree, as bit patterns.
    /// The inputs go in as rows of 1 to 37 lanes, so every tail length of
    /// both vector widths runs.
    fn exp_mismatches(path: ExpPath, inputs: &[f32]) -> Vec<u32> {
        let mut got = inputs.to_vec();
        let (mut start, mut len) = (0, 1);
        while start < got.len() {
            let end = (start + len).min(got.len());
            path(&mut got[start..end]);
            start = end;
            len = len % 37 + 1;
        }
        inputs
            .iter()
            .zip(&got)
            .filter(|(x, y)| x.exp().to_bits() != y.to_bits())
            .map(|(x, _)| x.to_bits())
            .collect()
    }

    #[test]
    fn every_exp_path_bit_identical_to_libm() {
        let sample = (0..=u32::MAX)
            .step_by(4099)
            .chain(EXP_EDGES.iter().copied());
        let inputs: Vec<f32> = sample.map(f32::from_bits).collect();
        let paths = exp_paths();
        for &(what, path) in &paths {
            let bad = exp_mismatches(path, &inputs);
            assert!(
                bad.is_empty(),
                "{what}: {} of {} inputs differ from f32::exp, the first {:#010x}",
                bad.len(),
                inputs.len(),
                bad[0]
            );
        }
        let names: Vec<&str> = paths.iter().map(|p| p.0).collect();
        println!(
            "pinned to f32::exp over {} inputs: {}",
            inputs.len(),
            names.join(", ")
        );
    }

    /// The vector paths against `f32::exp` on every f32, 2^16 at a time
    /// (the scalar path is `f32::exp` itself): `cargo test --release -p
    /// specee-tensor exp_is_libm_on_every_f32 -- --ignored --nocapture`.
    #[test]
    #[ignore = "all 2^32 inputs: run it in release with --ignored"]
    fn exp_is_libm_on_every_f32() {
        let paths: Vec<_> = exp_paths()
            .into_iter()
            .filter(|p| p.0 != "scalar")
            .collect();
        let mut mismatches = vec![0u64; paths.len()];
        for high in 0..=u32::from(u16::MAX) {
            let inputs: Vec<f32> = (0..=u32::from(u16::MAX))
                .map(|low| f32::from_bits((high << 16) | low))
                .collect();
            let want: Vec<u32> = inputs.iter().map(|x| x.exp().to_bits()).collect();
            for (&(_, path), count) in paths.iter().zip(&mut mismatches) {
                let mut got = inputs.clone();
                path(&mut got);
                *count += got
                    .iter()
                    .zip(&want)
                    .filter(|(g, w)| g.to_bits() != **w)
                    .count() as u64;
            }
        }
        for (&(what, _), count) in paths.iter().zip(&mismatches) {
            println!("{what}: {count} of 2^32 inputs differ from f32::exp");
        }
        if paths.is_empty() {
            println!("no vector exp path on this CPU: exp_in_place is the scalar loop");
        }
        assert!(mismatches.iter().all(|&count| count == 0));
    }

    /// The loop [`softmax_inplace`] replaced: one scalar `exp` an element,
    /// summed as it goes.
    fn softmax_oracle(x: &mut [f32]) {
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

    /// What `log_softmax` and `nll` subtracted before [`exp_in_place`]: the
    /// maximum and the log of a sum of scalar `exp`s.
    fn log_normaliser_oracle(x: &[f32]) -> (f32, f32) {
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = x.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
        (max, log_sum)
    }

    /// Rows the three callers of [`exp_in_place`] see: lengths 0–17, an
    /// attention head (64), a SiLU row (256), a vocabulary (2048); values
    /// within ±4 and within ±120 (a spread past 88: special lanes); and
    /// each again with one infinity or NaN.
    fn caller_rows(seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Pcg::seed(seed);
        let mut rows = Vec::new();
        for len in (0..=17).chain([64, 256, 2048]) {
            for scale in [4.0, 120.0] {
                let mut row = vec![0.0f32; len];
                rng.fill_uniform(&mut row, scale);
                for odd in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    if len > 0 {
                        let mut with = row.clone();
                        with[rng.next_u64() as usize % len] = odd;
                        rows.push(with);
                    }
                }
                rows.push(row);
            }
        }
        rows
    }

    #[test]
    fn softmax_is_its_scalar_loop_bit_for_bit() {
        for row in caller_rows(41) {
            let (mut got, mut want) = (row.clone(), row.clone());
            softmax_inplace(&mut got);
            softmax_oracle(&mut want);
            assert_eq!(bits(&got), bits(&want), "a row of {}", row.len());
        }
    }

    #[test]
    fn log_softmax_and_nll_are_their_scalar_loops_bit_for_bit() {
        for row in caller_rows(42) {
            let (max, log_sum) = log_normaliser_oracle(&row);
            let want: Vec<f32> = row.iter().map(|v| v - max - log_sum).collect();
            assert_eq!(
                bits(&log_softmax(&row)),
                bits(&want),
                "a row of {}",
                row.len()
            );
            let last = row.len().checked_sub(1);
            for i in (0..row.len()).step_by(97).chain(last) {
                assert_eq!(nll(&row, i).to_bits(), (-want[i]).to_bits(), "element {i}");
            }
        }
    }

    #[test]
    fn silu_mul_is_its_scalar_loop_bit_for_bit() {
        let mut rng = Pcg::seed(43);
        for gate in caller_rows(44) {
            let mut up = vec![0.0f32; gate.len()];
            rng.fill_uniform(&mut up, 2.0);
            let mut want = gate.clone();
            for (a, &u) in want.iter_mut().zip(&up) {
                *a = silu(*a) * u;
            }
            let mut got = gate.clone();
            silu_mul_in_place(&mut got, &up);
            assert_eq!(bits(&got), bits(&want), "a row of {}", gate.len());
        }
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
