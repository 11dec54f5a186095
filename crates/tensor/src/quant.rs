//! Reduced-precision weight storage: the quantized twin of
//! [`FusedGates`](crate::FusedGates).
//!
//! The paper's diagnosis is that mobile-GPU LSTM inference is bound by
//! *weight* traffic against a small L2; fp16 and int8 weight storage are
//! the other big lever on that axis (cf. E-PUR and SHARP, which both run
//! RNN inference at reduced weight precision and convert the byte savings
//! directly into memory-bound speedups). This module provides:
//!
//! * [`Precision`] — the weight-precision knob (`fp32`/`fp16`/`int8`)
//!   threaded through plan compilation and pricing,
//! * hand-rolled `f32`↔`f16` bit conversions (round-to-nearest-even; no
//!   external crate),
//! * per-row symmetric int8 quantization (`scale = max|row| / 127`),
//! * [`QuantizedGates`] — gate matrices stored quantized in **exactly**
//!   the gate-major [`MR`]-row panel layout of
//!   [`FusedGates`](crate::FusedGates), with dequantize-on-load kernels.
//!
//! ## Bit-exactness contract
//!
//! Every kernel here replicates the fp32 panel micro-kernel's
//! accumulation order (the one behind
//! [`FusedGates::gemv_into`](crate::FusedGates::gemv_into)) —
//! the same `cols / 4` phase chunks, the same four per-lane accumulators,
//! the same `((a0 + a1) + a2) + a3` reduction, the same sequential tail.
//! The only change is that each weight element is dequantized as it is
//! loaded: `f16` storage converts exactly (every `f16` value is an `f32`
//! value), and `int8` storage applies one IEEE rounding (`q as f32 *
//! scale`). A quantized kernel is therefore **bit-identical** to the
//! fp32 kernel run on the dequantized weights ([`Precision::apply`]),
//! which makes determinism automatic and the quantization error a pure
//! weight-perturbation bound, testable per row.
//!
//! ## SIMD builds
//!
//! The int8 kernel has an AVX2 build (8 codes widened with `vpmovsxbd`
//! and `vcvtdq2ps`, times the lane scales, times the broadcast `x[k]`,
//! then added) and the fp16 kernel an AVX+F16C build (`vcvtph2ps`, exact
//! for every finite half). Each is chosen at run time by CPU feature
//! detection, performs per lane exactly the scalar build's roundings in
//! the scalar build's order (never FMA), and keeps the scalar build as
//! the fallback.
//!
//! ## Masked products
//!
//! The DRS-masked kernels walk the gate's [`MR`]-row panels like
//! [`FusedGates`](crate::FusedGates) does: a panel with no active row is
//! never read, any other panel runs the dense dequant-on-load kernel and
//! keeps its active rows. Nothing is gathered or dequantized row by row.
//! The host thus skips work in whole 8-row panels, while `gpu-sim`
//! prices the paper's per-row skipping; the two clocks count skipped
//! work differently, and the outputs are the same bits either way.

use crate::matrix::Matrix;
use crate::packed::{masked_panels_into, panel_gemv, MR};
use crate::vector::Vector;
use std::cell::RefCell;

thread_local! {
    /// One dequantized panel, reused by every column of a batched product;
    /// it grows once to the largest `MR * cols` seen and is then reused
    /// without touching the allocator.
    static DEQUANT_PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Weight-storage precision of the packed gate matrices.
///
/// `Fp32` is the default everywhere — quantization is strictly opt-in —
/// and the two quantized tiers shrink weight bytes by 2x and 4x.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-precision `f32` storage (the default; exact).
    #[default]
    Fp32,
    /// IEEE binary16 storage: half the weight bytes, ~3 decimal digits.
    Fp16,
    /// Per-row symmetric int8: a quarter of the weight bytes, one `f32`
    /// scale per matrix row.
    Int8,
}

impl Precision {
    /// Every precision tier, in decreasing storage order.
    pub const ALL: [Precision; 3] = [Precision::Fp32, Precision::Fp16, Precision::Int8];

    /// Stored bytes per weight element (4 / 2 / 1).
    pub fn bytes_per_weight(self) -> u64 {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 => 2,
            Precision::Int8 => 1,
        }
    }

    /// Scales an fp32 byte count to this tier's storage footprint.
    pub fn scale_bytes(self, bytes: u64) -> u64 {
        bytes * self.bytes_per_weight() / 4
    }

    /// Whether the tier stores anything narrower than `f32`.
    pub fn is_quantized(self) -> bool {
        !matches!(self, Precision::Fp32)
    }

    /// Canonical lowercase name (`"fp32"` / `"fp16"` / `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Fp16 => "fp16",
            Precision::Int8 => "int8",
        }
    }

    /// Parses a canonical name back into a tier.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fp32" => Some(Precision::Fp32),
            "fp16" => Some(Precision::Fp16),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }

    /// Quantizes and immediately dequantizes a matrix — the fp32 shadow
    /// of this tier's storage. `Fp32` is the identity. A quantized
    /// kernel on the original matrix is bit-identical to the fp32 kernel
    /// on `apply`'s result.
    pub fn apply(self, m: &Matrix) -> Matrix {
        match self {
            Precision::Fp32 => m.clone(),
            Precision::Fp16 => Matrix::from_fn(m.rows(), m.cols(), |r, c| {
                f16_bits_to_f32(f32_to_f16_bits(m.row(r)[c]))
            }),
            Precision::Int8 => {
                let (rows, cols) = m.shape();
                let mut out = Matrix::zeros(rows, cols);
                let mut q = Vec::with_capacity(cols);
                for r in 0..rows {
                    let scale = quantize_row_i8(m.row(r), &mut q);
                    for (slot, &code) in out.row_mut(r).iter_mut().zip(&q) {
                        *slot = code as f32 * scale;
                    }
                }
                out
            }
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Converts an `f32` to IEEE binary16 bits, rounding to nearest even —
/// the hardware conversion semantics (`vcvtps2ph` / `__float2half_rn`).
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN: preserve the class (quiet any NaN payload).
        return sign | 0x7c00 | u16::from(man != 0) << 9;
    }
    let unbiased = exp - 127;
    if unbiased < -25 {
        return sign; // underflows to zero even after rounding
    }
    if unbiased < -14 {
        // Subnormal half: shift the 24-bit significand (implicit bit
        // included) down past the 13 dropped bits plus the deficit.
        let man24 = 0x0080_0000 | man;
        let shift = (13 + (-14 - unbiased)) as u32;
        let rounded = round_shift_even(man24, shift);
        return sign | rounded as u16;
    }
    if unbiased > 15 {
        return sign | 0x7c00; // overflows to infinity
    }
    let half_exp = (unbiased + 15) as u32;
    // Round the 13 dropped mantissa bits; a carry out of the mantissa
    // bumps the exponent (and can round up to infinity at the top).
    let combined = round_shift_even((half_exp << 23) | man, 13);
    if combined >= 0x7c00 {
        return sign | 0x7c00;
    }
    sign | combined as u16
}

/// Shifts `v` right by `shift` bits, rounding the dropped bits to
/// nearest, ties to even.
fn round_shift_even(v: u32, shift: u32) -> u32 {
    if shift == 0 || shift > 31 {
        return if shift == 0 { v } else { 0 };
    }
    let kept = v >> shift;
    let rem = v & ((1u32 << shift) - 1);
    let halfway = 1u32 << (shift - 1);
    if rem > halfway || (rem == halfway && kept & 1 == 1) {
        kept + 1
    } else {
        kept
    }
}

/// Converts IEEE binary16 bits to `f32`. Exact: every `f16` value is
/// representable in `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1f;
    let man = u32::from(h & 0x3ff);
    if exp == 0 {
        // Zero or subnormal: value is man * 2^-24 (exact in f32).
        let v = man as f32 * (1.0 / 16_777_216.0);
        return if sign != 0 { -v } else { v };
    }
    if exp == 0x1f {
        return if man == 0 {
            f32::from_bits(sign | 0x7f80_0000)
        } else {
            f32::NAN
        };
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// Per-row symmetric int8 quantization: `scale = max|row| / 127`,
/// `q = round(v / scale)` clamped to `[-127, 127]`, written into `q_out`
/// (resized to the row). Returns the scale (0 for an all-zero row, whose
/// codes are all 0). Dequantization is `q as f32 * scale` — one IEEE
/// rounding per element.
pub fn quantize_row_i8(row: &[f32], q_out: &mut Vec<i8>) -> f32 {
    q_out.clear();
    q_out.resize(row.len(), 0);
    let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        return 0.0;
    }
    let scale = max_abs / 127.0;
    for (slot, &v) in q_out.iter_mut().zip(row) {
        *slot = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// Quantized storage backing a [`QuantizedGates`] slab.
#[derive(Debug, Clone, PartialEq)]
enum QuantStore {
    /// binary16 bits in the panel layout.
    F16(Vec<u16>),
    /// int8 codes in the panel layout plus one scale per (gate, row).
    I8 {
        q: Vec<i8>,
        /// `scales[g * rows + r]` — per-row symmetric scales.
        scales: Vec<f32>,
    },
}

/// Gate matrices stored at reduced precision in the gate-major,
/// [`MR`]-row column-interleaved panel layout of
/// [`FusedGates`](crate::FusedGates), with dequantize-on-load kernels.
///
/// The API mirrors `FusedGates` method for method; see the module docs
/// for the bit-exactness contract.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedGates {
    gates: usize,
    rows: usize,
    cols: usize,
    precision: Precision,
    store: QuantStore,
}

impl QuantizedGates {
    /// Packs the gate matrices into one quantized gate-major slab.
    ///
    /// # Panics
    /// Panics if `mats` is empty, the shapes differ, or `precision` is
    /// [`Precision::Fp32`] (use `FusedGates` for exact storage).
    pub fn pack(mats: &[&Matrix], precision: Precision) -> Self {
        assert!(
            precision.is_quantized(),
            "QuantizedGates::pack: use FusedGates for fp32 storage"
        );
        assert!(!mats.is_empty(), "QuantizedGates::pack: no gate matrices");
        let (rows, cols) = mats[0].shape();
        for (g, m) in mats.iter().enumerate() {
            assert_eq!(
                m.shape(),
                (rows, cols),
                "QuantizedGates::pack: gate {g} shape mismatch"
            );
        }
        let ppg = rows.div_ceil(MR);
        let slab_len = mats.len() * ppg * MR * cols;
        let store = match precision {
            Precision::Fp16 => {
                let mut data = vec![0u16; slab_len];
                for (g, m) in mats.iter().enumerate() {
                    let gate_base = g * ppg * MR * cols;
                    for p in 0..ppg {
                        let base = gate_base + p * MR * cols;
                        for lane in 0..MR.min(rows - p * MR) {
                            let row = m.row(p * MR + lane);
                            for (k, &v) in row.iter().enumerate() {
                                data[base + k * MR + lane] = f32_to_f16_bits(v);
                            }
                        }
                    }
                }
                QuantStore::F16(data)
            }
            Precision::Int8 => {
                let mut q = vec![0i8; slab_len];
                let mut scales = vec![0.0f32; mats.len() * rows];
                let mut row_q = Vec::new();
                for (g, m) in mats.iter().enumerate() {
                    let gate_base = g * ppg * MR * cols;
                    for p in 0..ppg {
                        let base = gate_base + p * MR * cols;
                        for lane in 0..MR.min(rows - p * MR) {
                            let r = p * MR + lane;
                            scales[g * rows + r] = quantize_row_i8(m.row(r), &mut row_q);
                            for (k, &code) in row_q.iter().enumerate() {
                                q[base + k * MR + lane] = code;
                            }
                        }
                    }
                }
                QuantStore::I8 { q, scales }
            }
            Precision::Fp32 => unreachable!(),
        };
        Self {
            gates: mats.len(),
            rows,
            cols,
            precision,
            store,
        }
    }

    /// Number of fused gate matrices.
    pub fn gates(&self) -> usize {
        self.gates
    }

    /// Rows of each gate matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of each gate matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total output rows of the fused product (`gates * rows`).
    pub fn total_rows(&self) -> usize {
        self.gates * self.rows
    }

    /// The storage tier.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes the quantized slab actually stores (codes plus, for int8,
    /// the per-row `f32` scales). This is what a residency model should
    /// budget for.
    pub fn weight_bytes(&self) -> u64 {
        match &self.store {
            QuantStore::F16(data) => data.len() as u64 * 2,
            QuantStore::I8 { q, scales } => q.len() as u64 + scales.len() as u64 * 4,
        }
    }

    /// Panels per gate.
    fn ppg(&self) -> usize {
        self.rows.div_ceil(MR)
    }

    /// The [`MR`] per-lane scales of global panel `q` (int8 only); dead
    /// lanes get 1.0 (their codes are 0, so the product stays 0).
    fn panel_scales(&self, scales: &[f32], panel: usize) -> [f32; MR] {
        let ppg = self.ppg();
        let (g, p) = (panel / ppg, panel % ppg);
        let live = MR.min(self.rows - p * MR);
        let mut out = [1.0f32; MR];
        for (lane, slot) in out.iter_mut().enumerate().take(live) {
            *slot = scales[g * self.rows + p * MR + lane];
        }
        out
    }

    /// Row sums of global panel `q` via the matching dequant-on-load
    /// micro-kernel.
    fn panel_sum(&self, q: usize, x: &[f32]) -> [f32; MR] {
        let span = q * MR * self.cols..(q + 1) * MR * self.cols;
        match &self.store {
            QuantStore::F16(data) => panel_gemv_f16(&data[span], self.cols, x),
            QuantStore::I8 { q: codes, scales } => {
                let lane_scales = self.panel_scales(scales, q);
                panel_gemv_i8(&codes[span], &lane_scales, self.cols, x)
            }
        }
    }

    /// Global panel `q` dequantized into `buf` in the fp32 panel layout:
    /// exactly the values the dequant-on-load kernels feed their
    /// accumulators (dead lanes 0).
    fn dequant_panel_into(&self, q: usize, buf: &mut Vec<f32>) {
        let span = q * MR * self.cols..(q + 1) * MR * self.cols;
        buf.clear();
        buf.resize(span.len(), 0.0);
        match &self.store {
            QuantStore::F16(data) => {
                for (d, &h) in buf.iter_mut().zip(&data[span]) {
                    *d = f16_bits_to_f32(h);
                }
            }
            QuantStore::I8 { q: codes, scales } => {
                let lane_scales = self.panel_scales(scales, q);
                for (dst, col) in buf.chunks_exact_mut(MR).zip(codes[span].chunks_exact(MR)) {
                    for ((d, &code), &scale) in dst.iter_mut().zip(col).zip(&lane_scales) {
                        *d = code as f32 * scale;
                    }
                }
            }
        }
    }

    /// Writes global panel `q`'s live lanes into the fused output slab.
    fn scatter(&self, q: usize, sum: &[f32; MR], out: &mut [f32]) {
        let ppg = self.ppg();
        let (g, p) = (q / ppg, q % ppg);
        let live = MR.min(self.rows - p * MR);
        let start = g * self.rows + p * MR;
        out[start..start + live].copy_from_slice(&sum[..live]);
    }

    /// The fused matrix-vector product, dequantizing on load: one pass
    /// over the slab computes every gate's pre-activations into `out`,
    /// gate-major. Bit-identical to `FusedGates::gemv_into` on the
    /// [`Precision::apply`]-dequantized matrices.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `out.len() != gates * rows`.
    pub fn gemv_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "QuantizedGates::gemv_into: x length");
        assert_eq!(
            out.len(),
            self.total_rows(),
            "QuantizedGates::gemv_into: out length"
        );
        for q in 0..self.gates * self.ppg() {
            let sum = self.panel_sum(q, x);
            self.scatter(q, &sum, out);
        }
    }

    /// Matrix-vector product of a single gate's matrix. Bit-identical to
    /// `FusedGates::gate_gemv_into` on the dequantized gate.
    ///
    /// # Panics
    /// Panics if `g >= gates`, `x.len() != cols`, or `out.len() != rows`.
    pub fn gate_gemv_into(&self, g: usize, x: &[f32], out: &mut [f32]) {
        assert!(g < self.gates, "QuantizedGates::gate_gemv_into: gate {g}");
        assert_eq!(
            x.len(),
            self.cols,
            "QuantizedGates::gate_gemv_into: x length"
        );
        assert_eq!(
            out.len(),
            self.rows,
            "QuantizedGates::gate_gemv_into: out length"
        );
        let ppg = self.ppg();
        for p in 0..ppg {
            let sum = self.panel_sum(g * ppg + p, x);
            let live = MR.min(self.rows - p * MR);
            out[p * MR..p * MR + live].copy_from_slice(&sum[..live]);
        }
    }

    /// Batched single-gate product with the panel loop outermost,
    /// streaming results through `write(column, row_start, values)` —
    /// the quantized twin of `FusedGates::gate_gemv_batch_with`.
    ///
    /// Each panel is dequantized once and the fp32 micro-kernel runs it
    /// for every column, which costs two vector operations per 8 weights
    /// and column where dequantizing on load costs four. The fp32 kernel
    /// on the dequantized panel is bit-identical to the dequant-on-load
    /// kernel, so column `i` equals `self.gate_gemv_into(g, &xs[i], ..)`.
    ///
    /// # Panics
    /// Panics if `g >= gates` or any `xs[i].len() != cols`.
    pub fn gate_gemv_batch_with(
        &self,
        g: usize,
        xs: &[Vector],
        mut write: impl FnMut(usize, usize, &[f32]),
    ) {
        assert!(
            g < self.gates,
            "QuantizedGates::gate_gemv_batch_with: gate {g}"
        );
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(
                x.len(),
                self.cols,
                "QuantizedGates::gate_gemv_batch_with: column {i} length"
            );
        }
        let ppg = self.ppg();
        // Taken rather than borrowed, so a `write` that re-enters this
        // kernel finds an empty buffer instead of a held borrow.
        let mut panel = DEQUANT_PANEL.take();
        for p in 0..ppg {
            self.dequant_panel_into(g * ppg + p, &mut panel);
            let live = MR.min(self.rows - p * MR);
            for (i, x) in xs.iter().enumerate() {
                let sum = panel_gemv(&panel, self.cols, x.as_slice());
                write(i, p * MR, &sum[..live]);
            }
        }
        DEQUANT_PANEL.set(panel);
    }

    /// Row-masked product of the first `ngates` gates under one shared
    /// DRS row mask — the quantized twin of
    /// `FusedGates::gemv_masked_prefix_into`.
    ///
    /// # Panics
    /// Panics if `ngates > gates`, `x.len() != cols`,
    /// `active.len() != rows`, or `out.len() != ngates * rows`.
    pub fn gemv_masked_prefix_into(
        &self,
        ngates: usize,
        x: &Vector,
        active: &[bool],
        skipped_value: f32,
        out: &mut [f32],
    ) {
        assert!(
            ngates <= self.gates,
            "QuantizedGates::gemv_masked_prefix_into: {ngates} > {} gates",
            self.gates
        );
        assert_eq!(
            out.len(),
            ngates * self.rows,
            "QuantizedGates::gemv_masked_prefix_into: out length"
        );
        for g in 0..ngates {
            let section = &mut out[g * self.rows..(g + 1) * self.rows];
            self.gate_gemv_masked_into(g, x, active, skipped_value, section);
        }
    }

    /// Row-masked product of one gate's matrix, walking its panels like
    /// `FusedGates::gate_gemv_masked_into`: a panel with no active row is
    /// filled with `skipped_value` unread, any other panel runs the dense
    /// dequant-on-load kernel and keeps its active rows. Bit-identical to
    /// [`sgemv_masked_gather`](crate::sgemv_masked_gather) on the
    /// [`Precision::apply`]-dequantized gate.
    ///
    /// # Panics
    /// Panics if `g >= gates`, `x.len() != cols`, `active.len() != rows`,
    /// or `out.len() != rows`.
    pub fn gate_gemv_masked_into(
        &self,
        g: usize,
        x: &Vector,
        active: &[bool],
        skipped_value: f32,
        out: &mut [f32],
    ) {
        assert!(
            g < self.gates,
            "QuantizedGates::gate_gemv_masked_into: gate {g}"
        );
        assert_eq!(
            x.len(),
            self.cols,
            "QuantizedGates::gate_gemv_masked_into: x length"
        );
        assert_eq!(
            active.len(),
            self.rows,
            "QuantizedGates::gate_gemv_masked_into: mask length"
        );
        assert_eq!(
            out.len(),
            self.rows,
            "QuantizedGates::gate_gemv_masked_into: out length"
        );
        let first = g * self.ppg();
        masked_panels_into(active, skipped_value, out, |p| {
            self.panel_sum(first + p, x.as_slice())
        });
    }
}

/// The fp32 panel kernel's accumulation order over an `f16`-stored
/// panel: the conversion to `f32` is exact, so each `*a += c * xv`
/// rounds exactly like the fp32 kernel on the dequantized panel.
///
/// Runs the AVX+F16C build when the CPU has both and the scalar build
/// otherwise; the two are bit-identical for every finite weight.
#[allow(unsafe_code)]
fn panel_gemv_f16(panel: &[u16], cols: usize, x: &[f32]) -> [f32; MR] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") && std::arch::is_x86_feature_detected!("f16c") {
        // SAFETY: only reachable when the CPU reports AVX and F16C.
        return unsafe { panel_gemv_f16_f16c(panel, cols, x) };
    }
    panel_gemv_f16_scalar(panel, cols, x)
}

/// The portable build of [`panel_gemv_f16`].
fn panel_gemv_f16_scalar(panel: &[u16], cols: usize, x: &[f32]) -> [f32; MR] {
    let chunks = cols / 4;
    let mut acc = [[0.0f32; MR]; 4];
    for i in 0..chunks {
        let base = i * 4 * MR;
        for phase in 0..4 {
            let xv = x[i * 4 + phase];
            let col = &panel[base + phase * MR..base + (phase + 1) * MR];
            for (a, &bits) in acc[phase].iter_mut().zip(col) {
                *a += f16_bits_to_f32(bits) * xv;
            }
        }
    }
    let mut sum = [0.0f32; MR];
    for r in 0..MR {
        sum[r] = ((acc[0][r] + acc[1][r]) + acc[2][r]) + acc[3][r];
    }
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col = &panel[k * MR..(k + 1) * MR];
        for r in 0..MR {
            sum[r] += f16_bits_to_f32(col[r]) * xv;
        }
    }
    sum
}

/// [`panel_gemv_f16_scalar`] built for AVX+F16C: `vcvtph2ps` widens one
/// panel column (8 halves) exactly, then `vmulps` and `vaddps` per phase
/// accumulator, the same `((a0 + a1) + a2) + a3` reduction and the scalar
/// tail. Never FMA.
///
/// # Safety
/// Caller must ensure the CPU supports AVX and F16C.
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,f16c")]
unsafe fn panel_gemv_f16_f16c(panel: &[u16], cols: usize, x: &[f32]) -> [f32; MR] {
    use core::arch::x86_64::*;
    // Bounds-checked once here, so every unchecked load below is in range.
    let panel = &panel[..MR * cols];
    let x = &x[..cols];
    let chunks = cols / 4;
    let mut acc = [_mm256_setzero_ps(); 4];
    for i in 0..chunks {
        let base = i * 4 * MR;
        for (phase, accp) in acc.iter_mut().enumerate() {
            let xv = _mm256_broadcast_ss(&x[i * 4 + phase]);
            let halves = _mm_loadu_si128(panel.as_ptr().add(base + phase * MR).cast());
            let col = _mm256_cvtph_ps(halves);
            *accp = _mm256_add_ps(*accp, _mm256_mul_ps(col, xv));
        }
    }
    let r = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), acc[2]), acc[3]);
    let mut sum = [0.0f32; MR];
    _mm256_storeu_ps(sum.as_mut_ptr(), r);
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col = &panel[k * MR..(k + 1) * MR];
        for r in 0..MR {
            sum[r] += f16_bits_to_f32(col[r]) * xv;
        }
    }
    sum
}

/// The fp32 panel kernel's accumulation order over an int8-stored panel
/// with per-lane scales: `q as f32` is exact for `|q| <= 127`, the scale
/// multiply is the dequantization's single IEEE rounding, and the
/// accumulation then matches the fp32 kernel on the dequantized panel
/// bit for bit.
///
/// Runs the AVX2 build when the CPU has it and the scalar build
/// otherwise; the two are bit-identical.
#[allow(unsafe_code)]
fn panel_gemv_i8(panel: &[i8], lane_scales: &[f32; MR], cols: usize, x: &[f32]) -> [f32; MR] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: only reachable when the CPU reports AVX2.
        return unsafe { panel_gemv_i8_avx2(panel, lane_scales, cols, x) };
    }
    panel_gemv_i8_scalar(panel, lane_scales, cols, x)
}

/// The portable build of [`panel_gemv_i8`].
fn panel_gemv_i8_scalar(
    panel: &[i8],
    lane_scales: &[f32; MR],
    cols: usize,
    x: &[f32],
) -> [f32; MR] {
    let chunks = cols / 4;
    let mut acc = [[0.0f32; MR]; 4];
    for i in 0..chunks {
        let base = i * 4 * MR;
        for phase in 0..4 {
            let xv = x[i * 4 + phase];
            let col = &panel[base + phase * MR..base + (phase + 1) * MR];
            for (lane, (a, &code)) in acc[phase].iter_mut().zip(col).enumerate() {
                *a += (code as f32 * lane_scales[lane]) * xv;
            }
        }
    }
    let mut sum = [0.0f32; MR];
    for r in 0..MR {
        sum[r] = ((acc[0][r] + acc[1][r]) + acc[2][r]) + acc[3][r];
    }
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col = &panel[k * MR..(k + 1) * MR];
        for r in 0..MR {
            sum[r] += (col[r] as f32 * lane_scales[r]) * xv;
        }
    }
    sum
}

/// [`panel_gemv_i8_scalar`] built for AVX2: 8 codes load with
/// `_mm_loadl_epi64` and widen exactly (`vpmovsxbd`, then `vcvtdq2ps`);
/// each lane then multiplies by its scale and by the broadcast `x[k]` and
/// adds — the scalar kernel's `(code as f32 * scale) * xv` with the same
/// two roundings, the same reduction and the scalar tail. Never FMA.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn panel_gemv_i8_avx2(
    panel: &[i8],
    lane_scales: &[f32; MR],
    cols: usize,
    x: &[f32],
) -> [f32; MR] {
    use core::arch::x86_64::*;
    // Bounds-checked once here, so every unchecked load below is in range.
    let panel = &panel[..MR * cols];
    let x = &x[..cols];
    let scales = _mm256_loadu_ps(lane_scales.as_ptr());
    let chunks = cols / 4;
    let mut acc = [_mm256_setzero_ps(); 4];
    for i in 0..chunks {
        let base = i * 4 * MR;
        for (phase, accp) in acc.iter_mut().enumerate() {
            let xv = _mm256_broadcast_ss(&x[i * 4 + phase]);
            let codes = _mm_loadl_epi64(panel.as_ptr().add(base + phase * MR).cast());
            let w = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes)), scales);
            *accp = _mm256_add_ps(*accp, _mm256_mul_ps(w, xv));
        }
    }
    let r = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), acc[2]), acc[3]);
    let mut sum = [0.0f32; MR];
    _mm256_storeu_ps(sum.as_mut_ptr(), r);
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col = &panel[k * MR..(k + 1) * MR];
        for r in 0..MR {
            sum[r] += (col[r] as f32 * lane_scales[r]) * xv;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FusedGates;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(seed);
            (h % 2000) as f32 / 700.0 - 1.4
        })
    }

    fn pseudo_vector(len: usize, seed: u32) -> Vector {
        Vector::from_fn(len, |i| {
            let h = (i as u32).wrapping_mul(97_003).wrapping_add(seed);
            (h % 1000) as f32 / 350.0 - 1.3
        })
    }

    fn gate_set(gates: usize, rows: usize, cols: usize, seed: u32) -> Vec<Matrix> {
        (0..gates)
            .map(|g| pseudo_matrix(rows, cols, seed + 31 * g as u32))
            .collect()
    }

    #[test]
    fn f16_round_trip_of_representable_values() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            65504.0,
            -65504.0,
            6.1035156e-5, // min normal
            5.9604645e-8, // min subnormal
            1.5,
            0.099975586,
        ] {
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(rt.to_bits(), v.to_bits(), "f16 round trip of {v}");
        }
    }

    #[test]
    fn f16_conversion_is_round_to_nearest_even() {
        // 1.0 + 2^-11 sits exactly between 1.0 and the next half
        // (1.0 + 2^-10): ties to even -> 1.0.
        assert_eq!(f32_to_f16_bits(1.0 + 0.00048828125), 0x3c00);
        // A hair above the tie rounds up.
        assert_eq!(f32_to_f16_bits(1.0 + 0.00048828125 + 1e-7), 0x3c01);
        // The next representable tie (1.0 + 3 * 2^-11) rounds to odd+1.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 0.00048828125), 0x3c02);
    }

    #[test]
    fn f16_overflow_and_underflow() {
        assert_eq!(f32_to_f16_bits(1e6), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e6), 0xfc00);
        assert_eq!(f32_to_f16_bits(1e-10), 0x0000);
        assert_eq!(f32_to_f16_bits(-1e-10), 0x8000);
        assert!(f16_bits_to_f32(0x7c00).is_infinite());
        assert!(f16_bits_to_f32(0x7e00).is_nan());
    }

    #[test]
    fn int8_per_row_scale_and_codes() {
        let row = [1.0f32, -2.0, 0.5, 2.0];
        let mut q = Vec::new();
        let scale = quantize_row_i8(&row, &mut q);
        assert_eq!(scale, 2.0 / 127.0);
        assert_eq!(q, vec![64, -127, 32, 127]);
        // All-zero row: scale 0, all codes 0, dequant 0.
        let zscale = quantize_row_i8(&[0.0, 0.0], &mut q);
        assert_eq!(zscale, 0.0);
        assert_eq!(q, vec![0, 0]);
    }

    #[test]
    fn precision_apply_fp32_is_identity() {
        let m = pseudo_matrix(9, 7, 3);
        assert_eq!(Precision::Fp32.apply(&m), m);
    }

    #[test]
    fn quantized_gemv_bit_identical_to_fp32_on_dequantized_weights() {
        // The heart of the contract: the dequant-on-load kernels equal
        // FusedGates on Precision::apply'd matrices, bit for bit, for
        // shapes straddling panel and phase-chunk boundaries.
        for precision in [Precision::Fp16, Precision::Int8] {
            for (rows, cols) in [(1, 1), (7, 5), (8, 8), (9, 12), (24, 16), (33, 31)] {
                let mats = gate_set(4, rows, cols, 11);
                let refs: Vec<&Matrix> = mats.iter().collect();
                let quant = QuantizedGates::pack(&refs, precision);
                let shadow: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
                let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
                let exact = FusedGates::pack(&shadow_refs);
                let x = pseudo_vector(cols, 7);
                let mut a = vec![0.0f32; 4 * rows];
                let mut b = vec![0.0f32; 4 * rows];
                quant.gemv_into(x.as_slice(), &mut a);
                exact.gemv_into(x.as_slice(), &mut b);
                for (i, (qa, qb)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        qa.to_bits(),
                        qb.to_bits(),
                        "{precision} {rows}x{cols} slab row {i}"
                    );
                }
                let mut one_q = vec![0.0f32; rows];
                let mut one_e = vec![0.0f32; rows];
                for g in 0..4 {
                    quant.gate_gemv_into(g, x.as_slice(), &mut one_q);
                    exact.gate_gemv_into(g, x.as_slice(), &mut one_e);
                    assert_eq!(one_q, one_e, "{precision} {rows}x{cols} gate {g}");
                }
            }
        }
    }

    #[test]
    fn quantized_masked_bit_identical_to_fp32_masked_on_dequantized() {
        for precision in [Precision::Fp16, Precision::Int8] {
            for (rows, cols) in [(5, 3), (16, 16), (33, 20)] {
                let mats = gate_set(4, rows, cols, 3);
                let refs: Vec<&Matrix> = mats.iter().collect();
                let quant = QuantizedGates::pack(&refs, precision);
                let shadow: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
                let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
                let exact = FusedGates::pack(&shadow_refs);
                let x = pseudo_vector(cols, 5);
                for skip_mod in [2usize, 3, 5] {
                    let active: Vec<bool> = (0..rows).map(|r| r % skip_mod != 0).collect();
                    let mut a = vec![0.0f32; 3 * rows];
                    let mut b = vec![0.0f32; 3 * rows];
                    quant.gemv_masked_prefix_into(3, &x, &active, 0.0, &mut a);
                    exact.gemv_masked_prefix_into(3, &x, &active, 0.0, &mut b);
                    for (i, (qa, qb)) in a.iter().zip(&b).enumerate() {
                        assert_eq!(
                            qa.to_bits(),
                            qb.to_bits(),
                            "{precision} {rows}x{cols} %{skip_mod} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_batch_columns_bit_identical_to_single() {
        for precision in [Precision::Fp16, Precision::Int8] {
            let mats = gate_set(4, 17, 9, 23);
            let refs: Vec<&Matrix> = mats.iter().collect();
            let quant = QuantizedGates::pack(&refs, precision);
            let xs: Vec<Vector> = (0..3).map(|i| pseudo_vector(9, 40 + i)).collect();
            for g in 0..4 {
                let mut outs = vec![vec![0.0f32; 17]; xs.len()];
                quant.gate_gemv_batch_with(g, &xs, |i, row0, vals| {
                    outs[i][row0..row0 + vals.len()].copy_from_slice(vals);
                });
                for (x, got) in xs.iter().zip(&outs) {
                    let mut single = vec![0.0f32; 17];
                    quant.gate_gemv_into(g, x.as_slice(), &mut single);
                    assert_eq!(*got, single);
                }
            }
        }
    }

    /// An int8 panel with `live` lanes of codes that hit ±127 and 0 and
    /// zero-coded dead lanes, plus its lane scales (dead lanes 1.0, as
    /// `panel_scales` sets them).
    fn i8_panel(cols: usize, live: usize, seed: u32) -> (Vec<i8>, [f32; MR]) {
        let mut panel = vec![0i8; MR * cols];
        for k in 0..cols {
            for lane in 0..live {
                let h = (k as u32 * 131 + lane as u32 * 29 + seed).wrapping_mul(2654435761) >> 7;
                panel[k * MR + lane] = match h % 5 {
                    0 => 127,
                    1 => -127,
                    2 => 0,
                    _ => (((h >> 3) % 255) as i32 - 127) as i8,
                };
            }
        }
        let mut scales = [1.0f32; MR];
        for (lane, s) in scales.iter_mut().enumerate().take(live) {
            *s = 0.0173 * (lane as f32 + 1.0) / 127.0;
        }
        (panel, scales)
    }

    /// The AVX2 int8 kernel agrees with the scalar build to the last bit
    /// for every `cols % 4` tail, with dead lanes and extreme codes.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[test]
    fn avx2_i8_kernel_bit_identical_to_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for live in [3usize, MR] {
            for cols in [1usize, 2, 3, 4, 5, 6, 7, 16, 29, 64] {
                let (panel, scales) = i8_panel(cols, live, 7);
                let x = pseudo_vector(cols, 19);
                let scalar = panel_gemv_i8_scalar(&panel, &scales, cols, x.as_slice());
                // SAFETY: AVX2 support checked above.
                let avx = unsafe { panel_gemv_i8_avx2(&panel, &scales, cols, x.as_slice()) };
                for r in 0..MR {
                    assert_eq!(
                        avx[r].to_bits(),
                        scalar[r].to_bits(),
                        "{live} live x {cols} cols lane {r}"
                    );
                }
            }
        }
    }

    /// The F16C fp16 kernel agrees with the scalar build to the last bit,
    /// with dead lanes and subnormal, zero and near-overflow halves.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[test]
    fn f16c_kernel_bit_identical_to_scalar() {
        if !(std::arch::is_x86_feature_detected!("avx")
            && std::arch::is_x86_feature_detected!("f16c"))
        {
            return;
        }
        let specials = [0x0001u16, 0x83ff, 0x0000, 0x8000, 0x7bff, 0xfbff, 0x0400];
        for live in [3usize, MR] {
            for cols in [1usize, 2, 3, 4, 5, 6, 7, 16, 29, 64] {
                let m = pseudo_matrix(MR, cols, 5);
                let mut panel = vec![0u16; MR * cols];
                for k in 0..cols {
                    for lane in 0..live {
                        let i = k * MR + lane;
                        panel[i] = if i.is_multiple_of(3) {
                            specials[i / 3 % specials.len()]
                        } else {
                            f32_to_f16_bits(m.row(lane)[k])
                        };
                    }
                }
                let x = pseudo_vector(cols, 23);
                let scalar = panel_gemv_f16_scalar(&panel, cols, x.as_slice());
                // SAFETY: AVX and F16C support checked above.
                let simd = unsafe { panel_gemv_f16_f16c(&panel, cols, x.as_slice()) };
                for r in 0..MR {
                    assert_eq!(
                        simd[r].to_bits(),
                        scalar[r].to_bits(),
                        "{live} live x {cols} cols lane {r}"
                    );
                }
            }
        }
    }

    /// `vcvtph2ps` equals the software conversion for every finite half
    /// bit pattern, subnormals and both zeros included.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[test]
    fn vcvtph2ps_matches_software_conversion_for_every_finite_half() {
        use core::arch::x86_64::{_mm256_cvtph_ps, _mm256_storeu_ps, _mm_loadu_si128};
        if !(std::arch::is_x86_feature_detected!("avx")
            && std::arch::is_x86_feature_detected!("f16c"))
        {
            return;
        }
        let finite: Vec<u16> = (0..=u16::MAX).filter(|h| h & 0x7c00 != 0x7c00).collect();
        assert_eq!(finite.len(), 2 * 31 * 1024);
        for chunk in finite.chunks_exact(8) {
            let mut wide = [0.0f32; 8];
            // SAFETY: AVX and F16C support checked above; `chunk` holds
            // exactly the 8 halves one load reads.
            unsafe {
                let halves = _mm_loadu_si128(chunk.as_ptr().cast());
                _mm256_storeu_ps(wide.as_mut_ptr(), _mm256_cvtph_ps(halves));
            }
            for (&h, w) in chunk.iter().zip(wide) {
                assert_eq!(w.to_bits(), f16_bits_to_f32(h).to_bits(), "half {h:#06x}");
            }
        }
    }

    #[test]
    fn weight_bytes_shrink_by_tier() {
        let mats = gate_set(4, 32, 32, 1);
        let refs: Vec<&Matrix> = mats.iter().collect();
        let fp32_bytes = 4 * 32 * 32 * 4u64;
        let f16 = QuantizedGates::pack(&refs, Precision::Fp16);
        let i8q = QuantizedGates::pack(&refs, Precision::Int8);
        assert_eq!(f16.weight_bytes(), fp32_bytes / 2);
        // int8 codes are a quarter, plus one f32 scale per row.
        assert_eq!(i8q.weight_bytes(), fp32_bytes / 4 + 4 * 32 * 4);
        assert_eq!(Precision::Fp16.scale_bytes(fp32_bytes), fp32_bytes / 2);
        assert_eq!(Precision::Int8.scale_bytes(fp32_bytes), fp32_bytes / 4);
    }

    #[test]
    fn precision_name_round_trip() {
        for p in Precision::ALL {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("fp8"), None);
    }

    #[test]
    #[should_panic(expected = "fp32 storage")]
    fn fp32_pack_rejected() {
        let m = Matrix::zeros(4, 4);
        QuantizedGates::pack(&[&m], Precision::Fp32);
    }
}
