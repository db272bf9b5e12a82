//! Cross-backend differential conformance suite.
//!
//! Every [`Backend`] implementation must honour the same shape contracts
//! (identical panic messages included) and sit inside a stated numerical
//! envelope relative to the scalar oracle:
//!
//! * `Blocked`, the runtime kernel, preserves the reference f32 summation
//!   order for `matvec`, `matvec_into`, `matmul_into` and `gemm`, and runs
//!   the oracle's own loop for `matvec_q`, so every one of them is checked
//!   for **bit identity** (`f32::to_bits`), not closeness.
//! * `matmul_into` on *every* backend equals that backend's own
//!   `matvec_into` input by input, bit for bit (the quantized backend
//!   included: batching may not change what it rounds). The `Blocked`
//!   kernel paths behind it (portable, AVX, AVX-512) are private, so each
//!   is pinned to the oracle on its own in `backend.rs`'s unit tests
//!   (`cargo test -p specee-tensor every_blocked -- --nocapture` prints the
//!   paths this CPU could pin); here the widest one is what runs.
//! * `QuantizedI8` rounds to i8 codes; its error is bounded analytically
//!   from the per-group half-step (`scale / 2`) and the bound is computed
//!   per instance and asserted.
//!
//! The suite is instantiated for all of [`BackendKind::ALL`] and backed by
//! differential proptests over random shapes, including degenerate
//! `0 x N` / `N x 0` matrices.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use specee_tensor::backend::{quantize_i8, I8_GROUP};
use specee_tensor::{
    grouped_matvec, AwqCalibration, AwqMatrix, BackendKind, GroupedGemm, GroupedGemmSpec, Matrix,
    Pcg, QuantBits, QuantizedMatrix,
};

/// Shapes exercised by every deterministic test: degenerate, tiny,
/// unaligned (prime), and larger-than-one-SIMD-block.
const SHAPES: &[(usize, usize)] = &[
    (0, 0),
    (0, 5),
    (5, 0),
    (1, 1),
    (1, 64),
    (3, 7),
    (4, 4),
    (5, 33),
    (7, 96),
    (13, 1),
    (16, 16),
    (17, 129),
    (33, 64),
];

/// Input counts for `matmul_into`: empty, the degenerate tile, remainders
/// of the four- and the eight-input register tile, and a full draft tree.
const MATMUL_INPUTS: &[usize] = &[0, 1, 3, 4, 5, 8, 9, 22];

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::random(rows, cols, 1.0, &mut Pcg::seed(seed))
}

fn vec_in(len: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    Pcg::seed(seed ^ 0x9e37).fill_uniform(&mut v, 1.0);
    v
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Captures a panic message from `f` (shape-contract pinning across
/// backends without one `#[should_panic]` test per backend).
fn panic_msg<F: FnOnce()>(f: F) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic payload>")
    }
}

/// Per-group i8 scales exactly as the `QuantizedI8` kernel derives them
/// (ragged tail becomes its own smaller group).
fn group_scales(v: &[f32], group: usize) -> Vec<f32> {
    v.chunks(group).map(|c| quantize_i8(c).0).collect()
}

/// Analytic error bound for `QuantizedI8::matvec` against the dense f32
/// product: per element, `|w·x − (s_w w_q)(s_x x_q)|` is at most
/// `(s_w/2)|x| + (|w| + s_w/2)(s_x/2)` — rounding moves each operand by
/// at most half a quantization step.
fn quant_matvec_bound(m: &Matrix, x: &[f32]) -> Vec<f64> {
    let xs = group_scales(x, I8_GROUP);
    let cols = m.cols();
    (0..m.rows())
        .map(|r| {
            let row = &m.as_slice()[r * cols..(r + 1) * cols];
            let ws = group_scales(row, I8_GROUP);
            let mut bound = 0.0f64;
            for (j, (&w, &xv)) in row.iter().zip(x.iter()).enumerate() {
                let sw = f64::from(ws[j / I8_GROUP]);
                let sx = f64::from(xs[j / I8_GROUP]);
                bound +=
                    (sw / 2.0) * f64::from(xv.abs()) + (f64::from(w.abs()) + sw / 2.0) * (sx / 2.0);
            }
            bound
        })
        .collect()
}

/// Analytic bound for `QuantizedI8::matvec_q` against the reference
/// dequantizing kernel: the weights' codes are shared, so the only new
/// error is activation rounding, `Σ_g s_g (s_x/2) Σ |w_q|`.
fn quant_matvec_q_bound(q: &QuantizedMatrix, x: &[f32]) -> Vec<f64> {
    let gs = q.group_size();
    let xs = group_scales(x, gs);
    let cols = q.cols();
    let groups_per_row = cols.checked_div(gs).unwrap_or(0);
    (0..q.rows())
        .map(|r| {
            let mut bound = 0.0f64;
            for (g, &sx) in xs.iter().enumerate().take(groups_per_row) {
                let base = r * cols + g * gs;
                let abs_codes: f64 = q.codes()[base..base + gs]
                    .iter()
                    .map(|&c| f64::from(c.unsigned_abs()))
                    .sum();
                bound += f64::from(q.scales()[r * groups_per_row + g])
                    * (f64::from(sx) / 2.0)
                    * abs_codes;
            }
            bound
        })
        .collect()
}

fn assert_within(got: &[f32], want: &[f32], bound: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        let err = f64::from(g - w).abs();
        // Generous slack for the f32 evaluation of the kernels themselves
        // (the analytic bound covers rounding, not accumulation order).
        let tol = bound[i] * (1.0 + 1e-5) + 1e-4;
        assert!(
            err <= tol,
            "{what}: row {i} error {err:e} exceeds bound {tol:e} (got {g}, want {w})"
        );
    }
}

// ---------------------------------------------------------------------------
// Backend registry basics
// ---------------------------------------------------------------------------

#[test]
fn kinds_name_their_backend_and_default_to_blocked() {
    for kind in BackendKind::ALL {
        assert_eq!(kind.to_string(), kind.get().name());
    }
    assert_eq!(BackendKind::default(), BackendKind::Blocked);
}

// ---------------------------------------------------------------------------
// Shared shape-contract suite, instantiated for every backend
// ---------------------------------------------------------------------------

/// `matvec` output length, finiteness, and degenerate shapes for one
/// backend.
fn check_shape_contract(kind: BackendKind) {
    let b = kind.get();
    for (i, &(rows, cols)) in SHAPES.iter().enumerate() {
        let m = mat(rows, cols, 100 + i as u64);
        let x = vec_in(cols, 200 + i as u64);
        let y = b.matvec(&m, &x);
        assert_eq!(y.len(), rows, "{}: matvec rows", b.name());
        assert!(y.iter().all(|v| v.is_finite()), "{}: finite", b.name());
        if cols == 0 {
            // An N x 0 product is an empty dot: exactly zero on every
            // backend, including the integer one.
            assert!(y.iter().all(|&v| v == 0.0), "{}: N x 0 is zero", b.name());
        }
        // matvec_into overwrites (it must not accumulate into stale y).
        let mut out = vec![7.25f32; rows];
        b.matvec_into(&m, &x, &mut out);
        assert_eq!(bits(&out), bits(&y), "{}: matvec_into == matvec", b.name());
    }
}

#[test]
fn shape_contract_reference() {
    check_shape_contract(BackendKind::Reference);
}

#[test]
fn shape_contract_blocked() {
    check_shape_contract(BackendKind::Blocked);
}

#[test]
fn shape_contract_quantized() {
    check_shape_contract(BackendKind::QuantizedI8);
}

/// `matmul_into` against the same backend's `matvec_into`, input by input
/// and bit for bit, over every shape × input count; stale output must be
/// overwritten.
fn check_matmul_contract(kind: BackendKind) {
    let b = kind.get();
    for (i, &(rows, cols)) in SHAPES.iter().enumerate() {
        let m = mat(rows, cols, 1500 + i as u64);
        for &n_in in MATMUL_INPUTS {
            let xs = vec_in(n_in * cols, 1600 + (i * 31 + n_in) as u64);
            let mut ys = vec![7.25f32; n_in * rows];
            b.matmul_into(&m, &xs, n_in, &mut ys);
            for n in 0..n_in {
                let want = b.matvec(&m, &xs[n * cols..(n + 1) * cols]);
                assert_eq!(
                    bits(&ys[n * rows..(n + 1) * rows]),
                    bits(&want),
                    "{}: matmul {rows}x{cols}, input {n} of {n_in}",
                    b.name()
                );
            }
        }
    }
}

#[test]
fn matmul_matches_per_input_matvec_reference() {
    check_matmul_contract(BackendKind::Reference);
}

#[test]
fn matmul_matches_per_input_matvec_blocked() {
    check_matmul_contract(BackendKind::Blocked);
}

#[test]
fn matmul_matches_per_input_matvec_quantized() {
    check_matmul_contract(BackendKind::QuantizedI8);
}

/// Every backend panics with the same message on every shape violation.
#[test]
fn shape_violations_panic_identically_across_backends() {
    let m = mat(4, 6, 1);
    let q = QuantizedMatrix::quantize(&mat(4, 6, 2), QuantBits::Int8, 3).unwrap();
    for kind in BackendKind::ALL {
        let b = kind.get();
        let name = b.name();
        let msg = panic_msg(|| drop(b.matvec(&m, &[0.0; 5])));
        assert!(msg.contains("matvec input length"), "{name}: {msg}");
        let msg = panic_msg(|| b.matvec_into(&m, &[0.0; 6], &mut [0.0; 3]));
        assert!(msg.contains("matvec output length"), "{name}: {msg}");
        let msg = panic_msg(|| b.matmul_into(&m, &[0.0; 11], 2, &mut [0.0; 8]));
        assert!(msg.contains("matmul input length"), "{name}: {msg}");
        let msg = panic_msg(|| b.matmul_into(&m, &[0.0; 12], 2, &mut [0.0; 7]));
        assert!(msg.contains("matmul output length"), "{name}: {msg}");
        let msg = panic_msg(|| drop(b.matvec_q(&q, &[0.0; 5])));
        assert!(
            msg.contains("quantized matvec input length"),
            "{name}: {msg}"
        );
        let msg = panic_msg(|| b.matvec_q_into(&q, &[0.0; 6], &mut [0.0; 5]));
        assert!(
            msg.contains("quantized matvec output length"),
            "{name}: {msg}"
        );
        let msg = panic_msg(|| drop(b.gemm(&m, &[vec![0]], &[])));
        assert!(msg.contains("group count mismatch"), "{name}: {msg}");
        let msg = panic_msg(|| drop(b.gemm(&m, &[vec![0]], &[vec![0.0; 5]])));
        assert!(msg.contains("input dimension mismatch"), "{name}: {msg}");
        let msg = panic_msg(|| drop(b.gemm(&m, &[vec![9]], &[vec![0.0; 6]])));
        assert!(msg.contains("row 9 out of bounds (4)"), "{name}: {msg}");
    }
}

// ---------------------------------------------------------------------------
// Matrix-level edge cases (satellite: empty shapes + pinned panics)
// ---------------------------------------------------------------------------

#[test]
fn matrix_matvec_into_handles_empty_shapes() {
    // 0 x N: nothing to write.
    let m = Matrix::zeros(0, 5);
    let mut y: Vec<f32> = vec![];
    m.matvec_into(&[1.0; 5], &mut y);
    assert!(y.is_empty());
    assert!(m.matvec(&[1.0; 5]).is_empty());
    // N x 0: every row is an empty dot, and stale output is overwritten.
    let m = Matrix::zeros(4, 0);
    let mut y = vec![3.5f32; 4];
    m.matvec_into(&[], &mut y);
    assert_eq!(y, vec![0.0; 4]);
    // 0 x 0 round trip.
    let m = Matrix::zeros(0, 0);
    assert!(m.matvec(&[]).is_empty());
}

#[test]
fn matrix_matvec_t_handles_empty_shapes() {
    // 0 x N transpose: zero vector of length N.
    assert_eq!(Matrix::zeros(0, 3).matvec_t(&[]), vec![0.0; 3]);
    // N x 0 transpose: empty output.
    assert!(Matrix::zeros(3, 0).matvec_t(&[1.0; 3]).is_empty());
    assert!(Matrix::zeros(0, 0).matvec_t(&[]).is_empty());
}

#[test]
#[should_panic(expected = "matvec input length")]
fn matrix_matvec_into_rejects_bad_input_length() {
    let mut y = vec![0.0; 2];
    Matrix::zeros(2, 3).matvec_into(&[0.0; 4], &mut y);
}

#[test]
#[should_panic(expected = "matvec output length")]
fn matrix_matvec_into_rejects_bad_output_length() {
    let mut y = vec![0.0; 1];
    Matrix::zeros(2, 3).matvec_into(&[0.0; 3], &mut y);
}

#[test]
#[should_panic(expected = "matvec_t input length")]
fn matrix_matvec_t_rejects_bad_input_length() {
    let _ = Matrix::zeros(2, 3).matvec_t(&[0.0; 3]);
}

// ---------------------------------------------------------------------------
// Blocked vs Reference: bit identity where summation order is preserved
// ---------------------------------------------------------------------------

#[test]
fn blocked_matvec_bit_identical_to_reference() {
    let (reference, blocked) = (BackendKind::Reference.get(), BackendKind::Blocked.get());
    for (i, &(rows, cols)) in SHAPES.iter().enumerate() {
        let m = mat(rows, cols, 400 + i as u64);
        let x = vec_in(cols, 500 + i as u64);
        assert_eq!(
            bits(&blocked.matvec(&m, &x)),
            bits(&reference.matvec(&m, &x)),
            "matvec {rows}x{cols}"
        );
    }
}

#[test]
fn blocked_matmul_bit_identical_to_reference() {
    let (reference, blocked) = (BackendKind::Reference.get(), BackendKind::Blocked.get());
    for (i, &(rows, cols)) in SHAPES.iter().enumerate() {
        let m = mat(rows, cols, 1700 + i as u64);
        for &n_in in MATMUL_INPUTS {
            let xs = vec_in(n_in * cols, 1800 + (i * 31 + n_in) as u64);
            let (mut a, mut b) = (vec![0.0f32; n_in * rows], vec![f32::NAN; n_in * rows]);
            reference.matmul_into(&m, &xs, n_in, &mut a);
            blocked.matmul_into(&m, &xs, n_in, &mut b);
            assert_eq!(bits(&b), bits(&a), "matmul {rows}x{cols}x{n_in}");
        }
    }
}

#[test]
fn blocked_gemm_bit_identical_to_reference() {
    let weight = mat(11, 37, 42);
    let groups = vec![vec![0, 3, 7], vec![], vec![10, 10, 1, 5, 2]];
    let inputs: Vec<Vec<f32>> = (0..3).map(|i| vec_in(37, 600 + i)).collect();
    let a = BackendKind::Reference.get().gemm(&weight, &groups, &inputs);
    let b = BackendKind::Blocked.get().gemm(&weight, &groups, &inputs);
    assert_eq!(a.len(), b.len());
    for (ya, yb) in a.iter().zip(&b) {
        assert_eq!(bits(ya), bits(yb));
    }
}

#[test]
fn blocked_matvec_q_bit_identical_to_reference() {
    // Quantized models run on the default kernel, so its dequantizing dot
    // must add each group's products in the oracle's order.
    let (reference, blocked) = (BackendKind::Reference.get(), BackendKind::Blocked.get());
    let shapes = [
        (3, 8, 4),
        (7, 32, 8),
        (16, 64, 16),
        (5, 96, 32),
        (33, 128, 32),
    ];
    for (i, &(rows, cols, group)) in shapes.iter().enumerate() {
        let m = mat(rows, cols, 900 + i as u64);
        let x = vec_in(cols, 950 + i as u64);
        for width in [QuantBits::Int8, QuantBits::Int4] {
            let q = QuantizedMatrix::quantize(&m, width, group).unwrap();
            let mut y = vec![f32::NAN; rows];
            blocked.matvec_q_into(&q, &x, &mut y);
            let want = reference.matvec_q(&q, &x);
            assert_eq!(
                bits(&y),
                bits(&want),
                "matvec_q {rows}x{cols}/{group} {width}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// QuantizedI8: analytic error bounds
// ---------------------------------------------------------------------------

#[test]
fn quantized_matvec_within_analytic_bound() {
    let reference = BackendKind::Reference.get();
    let quant = BackendKind::QuantizedI8.get();
    for (i, &(rows, cols)) in SHAPES.iter().enumerate() {
        let m = mat(rows, cols, 1000 + i as u64);
        let x = vec_in(cols, 1100 + i as u64);
        let dense = reference.matvec(&m, &x);
        let approx = quant.matvec(&m, &x);
        let bound = quant_matvec_bound(&m, &x);
        assert_within(&approx, &dense, &bound, &format!("i8 matvec {rows}x{cols}"));
    }
}

#[test]
fn quantized_matvec_q_within_activation_rounding_bound() {
    for &(rows, cols, group) in &[(4usize, 16usize, 8usize), (9, 48, 16), (5, 64, 32)] {
        let q = QuantizedMatrix::quantize(&mat(rows, cols, 1200), QuantBits::Int8, group).unwrap();
        let x = vec_in(cols, 1201);
        let dequant = BackendKind::Reference.get().matvec_q(&q, &x);
        let integer = BackendKind::QuantizedI8.get().matvec_q(&q, &x);
        let bound = quant_matvec_q_bound(&q, &x);
        assert_within(
            &integer,
            &dequant,
            &bound,
            &format!("i8 matvec_q {rows}x{cols}/{group}"),
        );
    }
}

#[test]
fn quantized_round_trips_exactly_representable_inputs() {
    // A matrix already on an exact i8 grid — integers scaled by a power
    // of two, with each group's absmax pinned at 127 so the derived scale
    // (absmax / 127 = 2^-7) is exact — survives quantization losslessly,
    // and both the integer and the f32 accumulations are exact for these
    // small products. The two backends must then agree to the bit.
    let grid = |k: i64| k as f32 / 128.0;
    let m = Matrix::from_fn(6, I8_GROUP, |r, c| {
        if c == 0 {
            grid(127)
        } else {
            grid(((r * 31 + c * 7) % 255) as i64 - 127)
        }
    });
    let x: Vec<f32> = (0..I8_GROUP)
        .map(|j| {
            if j == 0 {
                grid(-127)
            } else {
                grid(((j * 5) % 255) as i64 - 127)
            }
        })
        .collect();
    let dense = BackendKind::Reference.get().matvec(&m, &x);
    let approx = BackendKind::QuantizedI8.get().matvec(&m, &x);
    assert_eq!(bits(&approx), bits(&dense), "grid-aligned i8 matvec");
}

// ---------------------------------------------------------------------------
// Grouped GEMM (satellite: Backend::gemm vs per-row grouped_matvec)
// ---------------------------------------------------------------------------

#[test]
fn grouped_gemm_run_with_matches_run_and_grouped_matvec() {
    let weight = mat(12, 24, 1300);
    let specs = vec![
        GroupedGemmSpec::new(vec![0, 2, 11]),
        GroupedGemmSpec::new(vec![]),
        GroupedGemmSpec::new(vec![5, 5, 7, 1]),
    ];
    let inputs: Vec<Vec<f32>> = (0..3).map(|i| vec_in(24, 1400 + i)).collect();
    let plan = GroupedGemm::plan(&weight, &specs);

    let baseline = plan.run(&inputs);
    let per_row = grouped_matvec(&weight, &specs, &inputs);
    for kind in [BackendKind::Reference, BackendKind::Blocked] {
        let via_backend = plan.run_with(kind.get(), &inputs);
        assert_eq!(via_backend.len(), baseline.len(), "{kind}");
        for (i, (a, b)) in via_backend.iter().zip(&baseline).enumerate() {
            assert_eq!(bits(a), bits(b), "{kind}: run_with vs run, group {i}");
        }
        for (i, (a, b)) in via_backend.iter().zip(&per_row).enumerate() {
            assert_eq!(
                bits(a),
                bits(b),
                "{kind}: run_with vs grouped_matvec, group {i}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Differential proptests over random shapes (incl. 0 x N / N x 0)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_blocked_matvec_bit_identical(seed in 0u64..10_000, rows in 0usize..40, cols in 0usize..70) {
        let m = mat(rows, cols, seed);
        let x = vec_in(cols, seed.wrapping_add(1));
        let a = BackendKind::Reference.get().matvec(&m, &x);
        let b = BackendKind::Blocked.get().matvec(&m, &x);
        prop_assert_eq!(bits(&a), bits(&b));
        let mut into = vec![f32::NAN; rows];
        BackendKind::Blocked.get().matvec_into(&m, &x, &mut into);
        prop_assert_eq!(bits(&a), bits(&into));
    }

    #[test]
    fn prop_blocked_matmul_bit_identical(seed in 0u64..10_000, rows in 0usize..71, cols in 0usize..301, n_in in 0usize..25) {
        // Up to 17 row blocks (look-aheads that exist and ones that do not),
        // 75 column chunks and three full 8-input tiles.
        let m = mat(rows, cols, seed);
        let xs = vec_in(n_in * cols, seed.wrapping_add(8));
        let mut ys = vec![f32::NAN; n_in * rows];
        BackendKind::Blocked.get().matmul_into(&m, &xs, n_in, &mut ys);
        for n in 0..n_in {
            let want = BackendKind::Reference.get().matvec(&m, &xs[n * cols..(n + 1) * cols]);
            prop_assert_eq!(bits(&ys[n * rows..(n + 1) * rows]), bits(&want), "input {} of {}", n, n_in);
        }
    }

    #[test]
    fn prop_quantized_matvec_within_bound(seed in 0u64..10_000, rows in 0usize..24, cols in 0usize..70) {
        let m = mat(rows, cols, seed);
        let x = vec_in(cols, seed.wrapping_add(3));
        let dense = BackendKind::Reference.get().matvec(&m, &x);
        let approx = BackendKind::QuantizedI8.get().matvec(&m, &x);
        let bound = quant_matvec_bound(&m, &x);
        for (i, (g, w)) in approx.iter().zip(&dense).enumerate() {
            let err = f64::from(g - w).abs();
            prop_assert!(err <= bound[i] * (1.0 + 1e-5) + 1e-4, "row {}: {} > {}", i, err, bound[i]);
        }
    }

    #[test]
    fn prop_gemm_backends_agree(seed in 0u64..10_000, rows in 1usize..16, cols in 0usize..40, n_groups in 0usize..5) {
        let weight = mat(rows, cols, seed);
        let mut rng = Pcg::seed(seed.wrapping_add(4));
        let groups: Vec<Vec<usize>> = (0..n_groups)
            .map(|g| (0..(g + seed as usize) % 4).map(|_| rng.next_u64() as usize % rows).collect())
            .collect();
        let inputs: Vec<Vec<f32>> = (0..n_groups).map(|g| vec_in(cols, seed.wrapping_add(5 + g as u64))).collect();
        let a = BackendKind::Reference.get().gemm(&weight, &groups, &inputs);
        let b = BackendKind::Blocked.get().gemm(&weight, &groups, &inputs);
        prop_assert_eq!(a.len(), b.len());
        for (ya, yb) in a.iter().zip(&b) {
            prop_assert_eq!(bits(ya), bits(yb));
        }
    }

    // Satellite: AWQ quantize -> matvec error against the dense product
    // stays within the (normalized) bound `mse_on` reports, over random
    // calibration samples and alphas.
    #[test]
    fn prop_awq_error_within_mse_on_bound(seed in 0u64..10_000, alpha_step in 0usize..9) {
        let rows = 4 + (seed as usize % 5);
        let cols = 16;
        let w = mat(rows, cols, seed.wrapping_add(6));
        let samples: Vec<Vec<f32>> = (0..6).map(|i| vec_in(cols, seed.wrapping_add(7 + i))).collect();
        let calib = AwqCalibration::from_activations(&samples);
        let alpha = alpha_step as f32 / 8.0;
        let awq = AwqMatrix::quantize_with_alpha(&w, &calib, QuantBits::Int8, 8, alpha).unwrap();

        // Recompute the mean squared matvec error independently and check
        // the reported figure covers it.
        let reported = awq.mse_on(&w, &samples);
        let mut sq = 0.0f64;
        let mut n = 0usize;
        for x in &samples {
            let dense = w.matvec(x);
            let quant = awq.matvec(x);
            for (a, b) in dense.iter().zip(&quant) {
                sq += f64::from(a - b) * f64::from(a - b);
                n += 1;
            }
        }
        let measured = sq / n.max(1) as f64;
        prop_assert!(measured <= reported * (1.0 + 1e-9) + 1e-12, "{} vs {}", measured, reported);

        // The grid search can never do worse than this fixed alpha.
        let searched = AwqMatrix::quantize(&w, &calib, QuantBits::Int8, 8, &samples).unwrap();
        prop_assert!(searched.mse_on(&w, &samples) <= reported + 1e-12);

        // And the backend-routed quantized product agrees bit-for-bit with
        // the AwqMatrix's own kernel when routed through the oracle.
        for x in &samples {
            let own = awq.matvec(x);
            let routed = awq.matvec_with(BackendKind::Reference.get(), x);
            prop_assert_eq!(bits(&own), bits(&routed));
        }
    }
}
