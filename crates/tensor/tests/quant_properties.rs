//! Property-based tests for the quantized weight tier (ISSUE 10):
//!
//! (a) bitwise determinism — quantize → dequant → GEMV produces the same
//!     bits run after run, and the quantized kernel is bit-identical to
//!     the fp32 fused kernel on the dequantized (`Precision::apply`)
//!     weights, which is what makes the result independent of worker
//!     count (the pooled runtimes only ever reorder *independent* rows);
//! (b) a max-abs-error bound vs the fp32 fused path over random gate
//!     matrices, derived from the per-element quantization step;
//! (c) int8 round-trip of representable values (exact multiples of a
//!     power-of-two scale survive quantize → dequant bit-for-bit);
//! (d) the live-panel masked kernels at every tier equal the row-gather
//!     reference on the (dequantized) gate matrices, bit for bit, under
//!     masks that kill, keep or split 8-row panels.

use proptest::prelude::*;
use tensor::packed::MR;
use tensor::quant::{f16_bits_to_f32, f32_to_f16_bits, quantize_row_i8};
use tensor::{sgemv_masked_gather, FusedGates, Matrix, Precision, QuantizedGates, Vector};

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100i32..=100).prop_map(|x| x as f32 / 10.0)
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(finite_f32(), rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized by construction"))
}

fn vector(len: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(finite_f32(), len).prop_map(Vector::from)
}

fn gates(rows: usize, cols: usize) -> impl Strategy<Value = Vec<Matrix>> {
    proptest::collection::vec(matrix(rows, cols), 4)
}

fn precision() -> impl Strategy<Value = Precision> {
    any::<bool>().prop_map(|half| {
        if half {
            Precision::Fp16
        } else {
            Precision::Int8
        }
    })
}

/// A row mask over `rows` rows in one of the shapes the panel walk must
/// get right: all dead, all live, one live row per [`MR`]-row panel, only
/// the last (possibly partial) panel live, or a random density 0–100%.
fn panel_mask(rows: usize) -> impl Strategy<Value = Vec<bool>> {
    (
        0u8..5,
        0u32..=100,
        proptest::collection::vec(0u32..100, rows),
    )
        .prop_map(move |(kind, density, draws)| {
            let last = (rows - 1) / MR * MR;
            (0..rows)
                .map(|r| {
                    let p0 = r / MR * MR;
                    match kind {
                        0 => false,
                        1 => true,
                        2 => r - p0 == draws[p0] as usize % MR.min(rows - p0),
                        3 => r >= last,
                        _ => draws[r] < density,
                    }
                })
                .collect()
        })
}

/// Three gates of a random shape (rows straddling panel boundaries),
/// an input, a panel-shaped mask and any tier, fp32 included.
fn masked_case() -> impl Strategy<Value = (Vec<Matrix>, Vector, Vec<bool>, Precision)> {
    (1usize..=27, 1usize..=13).prop_flat_map(|(rows, cols)| {
        (
            proptest::collection::vec(matrix(rows, cols), 3),
            vector(cols),
            panel_mask(rows),
            (0usize..3).prop_map(|i| Precision::ALL[i]),
        )
    })
}

proptest! {
    /// (a) Bitwise determinism: two independent pack + GEMV passes give
    /// the same bits, and both equal the fp32 fused kernel run on the
    /// dequantized weights. The latter identity is the worker-count
    /// argument: every parallel runtime in the workspace is pinned to
    /// the fp32 kernels' bits regardless of `MEMLSTM_THREADS`, so a
    /// quantized run inherits that invariance through this equality.
    #[test]
    fn quantize_dequant_gemv_bitwise_deterministic(
        mats in gates(13, 11),
        x in vector(11),
        p in precision(),
    ) {
        let refs: Vec<&Matrix> = mats.iter().collect();
        let q1 = QuantizedGates::pack(&refs, p);
        let q2 = QuantizedGates::pack(&refs, p);
        let mut out1 = vec![0.0f32; q1.total_rows()];
        let mut out2 = vec![0.0f32; q2.total_rows()];
        q1.gemv_into(x.as_slice(), &mut out1);
        q2.gemv_into(x.as_slice(), &mut out2);
        for (a, b) in out1.iter().zip(&out2) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "re-pack + re-run drifted");
        }
        // Quantized kernel == fp32 kernel on the dequantized weights.
        let shadow: Vec<Matrix> = mats.iter().map(|m| p.apply(m)).collect();
        let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
        let exact = FusedGates::pack(&shadow_refs);
        let mut shadow_out = vec![0.0f32; exact.total_rows()];
        exact.gemv_into(x.as_slice(), &mut shadow_out);
        for (a, b) in out1.iter().zip(&shadow_out) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "dequant-on-load != fp32-on-dequantized");
        }
    }

    /// (a, masked path) The masked quantized kernel is bit-identical to
    /// the fp32 masked kernel on the dequantized weights under every
    /// mask.
    #[test]
    fn masked_quantized_gemv_bitwise_matches_dequantized_fp32(
        mats in gates(10, 7),
        x in vector(7),
        mask in proptest::collection::vec(any::<bool>(), 10),
        p in precision(),
    ) {
        let refs: Vec<&Matrix> = mats.iter().collect();
        let quant = QuantizedGates::pack(&refs, p);
        let shadow: Vec<Matrix> = mats.iter().map(|m| p.apply(m)).collect();
        let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
        let exact = FusedGates::pack(&shadow_refs);
        let mut a = vec![0.0f32; 3 * 10];
        let mut b = vec![0.0f32; 3 * 10];
        quant.gemv_masked_prefix_into(3, &x, &mask, 0.0, &mut a);
        exact.gemv_masked_prefix_into(3, &x, &mask, 0.0, &mut b);
        for (qa, qb) in a.iter().zip(&b) {
            prop_assert_eq!(qa.to_bits(), qb.to_bits());
        }
    }

    /// (d) The live-panel masked kernels equal the row-gather reference
    /// bitwise at every tier: fp32 against the gate matrices, fp16 and
    /// int8 against their `Precision::apply`-dequantized shadows.
    #[test]
    fn live_panel_masked_gemv_matches_gather_reference(
        (mats, x, mask, p) in masked_case(),
    ) {
        let rows = mats[0].rows();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let mut got = vec![f32::NAN; 3 * rows];
        match p {
            Precision::Fp32 => {
                FusedGates::pack(&refs).gemv_masked_prefix_into(3, &x, &mask, -3.5, &mut got)
            }
            _ => QuantizedGates::pack(&refs, p)
                .gemv_masked_prefix_into(3, &x, &mask, -3.5, &mut got),
        }
        for (g, m) in mats.iter().enumerate() {
            let want = sgemv_masked_gather(&p.apply(m), &x, &mask, -3.5);
            for (r, (a, b)) in got[g * rows..(g + 1) * rows].iter().zip(want.iter()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} gate {} row {}", p, g, r);
            }
        }
    }

    /// (b) Max-abs-error bound vs the fp32 fused path. Per element the
    /// quantization error is at most half a step — `scale / 2` for
    /// int8, `|w| * 2^-11` for fp16 — so row `r`'s GEMV error is
    /// bounded by `step/2 * Σ|x|` plus accumulation slack.
    #[test]
    fn quantized_gemv_error_bounded_vs_fp32(
        mats in gates(12, 9),
        x in vector(9),
        p in precision(),
    ) {
        let refs: Vec<&Matrix> = mats.iter().collect();
        let quant = QuantizedGates::pack(&refs, p);
        let exact = FusedGates::pack(&refs);
        let mut got = vec![0.0f32; quant.total_rows()];
        let mut want = vec![0.0f32; exact.total_rows()];
        quant.gemv_into(x.as_slice(), &mut got);
        exact.gemv_into(x.as_slice(), &mut want);
        let l1_x: f32 = x.iter().map(|v| v.abs()).sum();
        for (g, m) in mats.iter().enumerate() {
            for r in 0..m.rows() {
                let row = m.row(r);
                let max_abs = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
                let half_step = match p {
                    Precision::Int8 => max_abs / 127.0 / 2.0,
                    Precision::Fp16 => max_abs * (1.0 / 2048.0),
                    Precision::Fp32 => 0.0,
                };
                let bound = half_step * l1_x * 1.5 + 1e-4;
                let err = (got[g * 12 + r] - want[g * 12 + r]).abs();
                prop_assert!(
                    err <= bound,
                    "gate {} row {}: err {} > bound {} ({})", g, r, err, bound, p
                );
            }
        }
    }

    /// (c) int8 round-trip of representable values: rows whose entries
    /// are integer multiples `k * s` of a power-of-two scale `s`, with
    /// `max|row| = 127 s`, quantize to exactly `k` and dequantize back
    /// bit-for-bit.
    #[test]
    fn int8_round_trips_representable_values(
        codes in proptest::collection::vec(-127i32..=127, 1..24),
        scale_exp in -6i32..=3,
    ) {
        let s = (scale_exp as f32).exp2();
        // Force the row max to 127*s so the recovered scale is exactly s.
        let mut row: Vec<f32> = codes.iter().map(|&k| k as f32 * s).collect();
        row.push(127.0 * s);
        let mut q = Vec::new();
        let got_scale = quantize_row_i8(&row, &mut q);
        prop_assert_eq!(got_scale.to_bits(), s.to_bits(), "scale must recover exactly");
        for (&code, &v) in q.iter().zip(&row) {
            let rt = code as f32 * got_scale;
            prop_assert_eq!(rt.to_bits(), v.to_bits(), "code {} of {}", code, v);
        }
    }

    /// (c, fp16) every binary16 value survives the f32 round trip.
    #[test]
    fn f16_round_trips_all_finite_bit_patterns(bits in 0u16..0x7c00u16, sign in any::<bool>()) {
        let h = bits | if sign { 0x8000 } else { 0 };
        let rt = f32_to_f16_bits(f16_bits_to_f32(h));
        prop_assert_eq!(rt, h);
    }
}
