//! Packed row-panel kernels: the cache- and SIMD-friendly layout behind
//! the fast `Sgemv` paths.
//!
//! A [`PackedMatrix`] stores the rows of a row-major [`Matrix`] in panels
//! of [`MR`] rows with the columns *interleaved*: panel `p` holds, for
//! each column `k`, the `MR` values `a[p*MR + 0..MR][k]` contiguously.
//! A matrix-vector product then walks each panel once, broadcasting one
//! `x[k]` across `MR` independent per-row accumulators — a loop the
//! compiler vectorizes across rows *without reassociating any float sum*,
//! because every lane is a separate output element.
//!
//! Bit-exactness contract: every kernel here accumulates each output row
//! in exactly the association order of [`crate::gemm::sgemv`]'s
//! row-at-a-time reference (four phase accumulators over the columns,
//! summed left-to-right, then a sequential tail). `PackedMatrix::gemv`
//! is therefore **bit-identical** to the reference kernel — the packed
//! layout buys throughput, never different numerics. The property tests
//! in `tests/properties.rs` pin this down.
//!
//! Packing costs one pass over the matrix, so it pays off when the same
//! matrix is applied many times — exactly the LSTM shape, where the
//! recurrent `U` matrices are applied at every timestep of every
//! sequence. `lstm::CellWeights` packs its weights once (lazily) and
//! reuses the panels for every plan execution.

use crate::matrix::Matrix;
use crate::vector::Vector;

/// Rows per packed panel (the register-blocking height of the kernels).
pub const MR: usize = 8;

/// A matrix re-laid out into [`MR`]-row column-interleaved panels.
///
/// See the module docs for the layout and the bit-exactness contract.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    /// `ceil(rows / MR)` panels of `MR * cols` values; lanes past the last
    /// row are zero padding (they are computed and discarded).
    data: Vec<f32>,
}

impl PackedMatrix {
    /// Packs a row-major matrix into row panels. One pass over `a`.
    pub fn pack(a: &Matrix) -> Self {
        let (rows, cols) = a.shape();
        let panels = rows.div_ceil(MR);
        let mut data = vec![0.0f32; panels * MR * cols];
        for p in 0..panels {
            let base = p * MR * cols;
            for lane in 0..MR.min(rows - p * MR) {
                let row = a.row(p * MR + lane);
                for (k, &v) in row.iter().enumerate() {
                    data[base + k * MR + lane] = v;
                }
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product, bit-identical to
    /// [`crate::gemm::sgemv`] on the unpacked matrix.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn gemv(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.len(),
            self.cols,
            "PackedMatrix::gemv: x length {} != cols {}",
            x.len(),
            self.cols
        );
        let mut y = Vector::zeros(self.rows);
        self.gemv_into(x.as_slice(), y.as_mut_slice());
        y
    }

    /// [`gemv`](Self::gemv) writing into a caller-provided slice.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn gemv_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "PackedMatrix::gemv_into: x length");
        assert_eq!(out.len(), self.rows, "PackedMatrix::gemv_into: out length");
        let panels = self.rows.div_ceil(MR);
        for p in 0..panels {
            let panel = &self.data[p * MR * self.cols..(p + 1) * MR * self.cols];
            let sum = panel_gemv(panel, self.cols, x);
            let live = MR.min(self.rows - p * MR);
            out[p * MR..p * MR + live].copy_from_slice(&sum[..live]);
        }
    }

    /// Batched matrix-vector product: applies the matrix to every column
    /// of `xs` with the *panel* loop outermost, so each packed panel is
    /// loaded once and reused across all `B` columns — the GEMM-shaped
    /// access pattern that amortizes weight traffic over a batch (the
    /// serving-side twin of the paper's tissue batching).
    ///
    /// Each column runs the same per-panel micro-kernel as
    /// [`gemv`](Self::gemv) in the same order, so column `i` of the result
    /// is **bit-identical** to `self.gemv(&xs[i])`.
    ///
    /// # Panics
    /// Panics if any `xs[i].len() != cols`.
    pub fn gemv_batch(&self, xs: &[Vector]) -> Vec<Vector> {
        let mut ys: Vec<Vector> = xs.iter().map(|_| Vector::zeros(self.rows)).collect();
        self.gemv_batch_into(xs, &mut ys);
        ys
    }

    /// [`gemv_batch`](Self::gemv_batch) writing into caller-provided
    /// vectors, so a steady-state serving loop can recycle its output
    /// buffers instead of allocating one `Vec<Vector>` per round.
    ///
    /// Each output vector is resized to `rows` (reusing its existing
    /// heap buffer once warm). Column `i` of the result is bit-identical
    /// to `self.gemv(&xs[i])`.
    ///
    /// # Panics
    /// Panics if `outs.len() != xs.len()` or any `xs[i].len() != cols`.
    pub fn gemv_batch_into(&self, xs: &[Vector], outs: &mut [Vector]) {
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(
                x.len(),
                self.cols,
                "PackedMatrix::gemv_batch: column {i} length {} != cols {}",
                x.len(),
                self.cols
            );
        }
        assert_eq!(
            outs.len(),
            xs.len(),
            "PackedMatrix::gemv_batch_into: output count mismatch"
        );
        for y in outs.iter_mut() {
            y.resize_fill(self.rows, 0.0);
        }
        let panels = self.rows.div_ceil(MR);
        for p in 0..panels {
            let panel = &self.data[p * MR * self.cols..(p + 1) * MR * self.cols];
            let live = MR.min(self.rows - p * MR);
            for (x, y) in xs.iter().zip(outs.iter_mut()) {
                let sum = panel_gemv(panel, self.cols, x.as_slice());
                y.as_mut_slice()[p * MR..p * MR + live].copy_from_slice(&sum[..live]);
            }
        }
    }
}

/// One panel's matrix-vector micro-kernel: `MR` rows at once, four phase
/// accumulators per row in the reference association order.
///
/// Runs the AVX build when the CPU has it (`is_x86_feature_detected!`
/// caches the CPUID probe) and the portable scalar build otherwise; the
/// two are bit-identical (see [`panel_gemv_avx`]).
#[allow(unsafe_code)]
pub(crate) fn panel_gemv(panel: &[f32], cols: usize, x: &[f32]) -> [f32; MR] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: only reachable when the CPU reports AVX.
        return unsafe { panel_gemv_avx(panel, cols, x) };
    }
    panel_gemv_scalar(panel, cols, x)
}

/// The portable build of [`panel_gemv`].
fn panel_gemv_scalar(panel: &[f32], cols: usize, x: &[f32]) -> [f32; MR] {
    let chunks = cols / 4;
    let mut acc = [[0.0f32; MR]; 4];
    for i in 0..chunks {
        let base = i * 4 * MR;
        for (phase, accp) in acc.iter_mut().enumerate() {
            let xv = x[i * 4 + phase];
            let col = &panel[base + phase * MR..base + (phase + 1) * MR];
            for (a, &c) in accp.iter_mut().zip(col) {
                *a += c * xv;
            }
        }
    }
    let mut sum = [0.0f32; MR];
    for (r, s) in sum.iter_mut().enumerate() {
        *s = ((acc[0][r] + acc[1][r]) + acc[2][r]) + acc[3][r];
    }
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col = &panel[k * MR..(k + 1) * MR];
        for (s, &c) in sum.iter_mut().zip(col) {
            *s += c * xv;
        }
    }
    sum
}

/// [`panel_gemv_scalar`] built for AVX: one 8-lane register per phase
/// accumulator, explicit `vmulps` then `vaddps` only — the single-panel
/// twin of the fused pair kernel.
///
/// Bit-exactness: lane `r` of `acc[phase]` performs exactly the scalar
/// kernel's `acc[phase][r] += col[r] * xv` (one rounding for the
/// multiply, one for the add, same chunk order), the reduction is the
/// same `((a0 + a1) + a2) + a3`, and the tail is the scalar loop. FMA is
/// never emitted: it rounds once, not twice.
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn panel_gemv_avx(panel: &[f32], cols: usize, x: &[f32]) -> [f32; MR] {
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
            let col = _mm256_loadu_ps(panel.as_ptr().add(base + phase * MR));
            *accp = _mm256_add_ps(*accp, _mm256_mul_ps(col, xv));
        }
    }
    let r = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), acc[2]), acc[3]);
    let mut sum = [0.0f32; MR];
    _mm256_storeu_ps(sum.as_mut_ptr(), r);
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col = &panel[k * MR..(k + 1) * MR];
        for (s, &c) in sum.iter_mut().zip(col) {
            *s += c * xv;
        }
    }
    sum
}

/// Row-masked product of one gate stored as `rows.div_ceil(MR)` panels,
/// walking the panels instead of gathering live rows: a panel with no
/// active row is filled with `skipped_value` without touching its
/// weights; any other panel runs the dense micro-kernel
/// (`panel_sum(p)` for panel `p` of the gate) and keeps only its active
/// rows.
///
/// Every lane of a panel kernel accumulates on its own, independent of
/// its position and of its neighbours, so each active row is
/// bit-identical to the gathered result of [`sgemv_masked_gather`].
pub(crate) fn masked_panels_into(
    active: &[bool],
    skipped_value: f32,
    out: &mut [f32],
    mut panel_sum: impl FnMut(usize) -> [f32; MR],
) {
    for (p, (lanes, rows)) in active.chunks(MR).zip(out.chunks_mut(MR)).enumerate() {
        if !lanes.contains(&true) {
            rows.fill(skipped_value);
            continue;
        }
        let sum = panel_sum(p);
        for ((o, &live), &s) in rows.iter_mut().zip(lanes).zip(&sum) {
            *o = if live { s } else { skipped_value };
        }
    }
}

/// Row-masked matrix-vector product via *gather*: the skip list's active
/// rows are gathered into a dense [`MR`]-row interleaved panel, the
/// branch-free panel micro-kernel runs over it, and the results scatter
/// back to their row positions; skipped rows produce `skipped_value`.
///
/// Bit-identical to the reference masked kernel (each active row is the
/// same dot product in the same association order), and to the dense
/// kernels when every row is active. It is the reference the packed
/// masked kernels, which walk panels instead of gathering, are tested
/// against.
///
/// # Panics
/// Panics if `x.len() != a.cols()` or `active.len() != a.rows()`.
pub fn sgemv_masked_gather(a: &Matrix, x: &Vector, active: &[bool], skipped_value: f32) -> Vector {
    assert_eq!(x.len(), a.cols(), "sgemv_masked_gather: x length mismatch");
    assert_eq!(
        active.len(),
        a.rows(),
        "sgemv_masked_gather: mask length mismatch"
    );
    let mut y = Vector::from(vec![skipped_value; a.rows()]);
    let out = y.as_mut_slice();
    let cols = a.cols();
    let mut panel = vec![0.0f32; MR * cols];
    let mut gathered: [usize; MR] = [0; MR];
    let mut rows: [&[f32]; MR] = [&[]; MR];
    let mut lanes = 0usize;
    let mut flush =
        |panel: &mut [f32], gathered: &[usize; MR], rows: &mut [&[f32]; MR], lanes: &mut usize| {
            if *lanes == 0 {
                return;
            }
            // Transpose the gathered rows into the interleaved panel with
            // the column index outermost: every store is sequential in the
            // scratch buffer, and the reads walk `lanes` parallel streams.
            if *lanes == MR {
                for (k, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                    for (slot, row) in chunk.iter_mut().zip(rows.iter()) {
                        *slot = row[k];
                    }
                }
            } else {
                // Partial panel (at most once per call): pad dead lanes
                // with zeros so the micro-kernel's extra work is
                // well-defined (the results are discarded).
                for (k, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                    for (slot, row) in chunk.iter_mut().zip(rows.iter().take(*lanes)) {
                        *slot = row[k];
                    }
                    chunk[*lanes..].fill(0.0);
                }
            }
            let sum = panel_gemv(panel, cols, x.as_slice());
            for (lane, &r) in gathered.iter().enumerate().take(*lanes) {
                out[r] = sum[lane];
            }
            *lanes = 0;
        };
    for (r, &is_active) in active.iter().enumerate() {
        if !is_active {
            continue;
        }
        rows[lanes] = a.row(r);
        gathered[lanes] = r;
        lanes += 1;
        if lanes == MR {
            flush(&mut panel, &gathered, &mut rows, &mut lanes);
        }
    }
    flush(&mut panel, &gathered, &mut rows, &mut lanes);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{sgemv, sgemv_masked_reference};

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

    #[test]
    fn packed_gemv_bit_identical_to_reference() {
        // Sizes straddling panel and chunk boundaries.
        for (rows, cols) in [
            (1, 1),
            (7, 5),
            (8, 8),
            (9, 12),
            (24, 16),
            (33, 31),
            (96, 96),
        ] {
            let a = pseudo_matrix(rows, cols, 11);
            let x = pseudo_vector(cols, 7);
            let packed = PackedMatrix::pack(&a);
            assert_eq!(packed.rows(), rows);
            assert_eq!(packed.cols(), cols);
            let fast = packed.gemv(&x);
            let reference = sgemv(&a, &x);
            for (f, r) in fast.iter().zip(reference.iter()) {
                assert_eq!(f.to_bits(), r.to_bits(), "{rows}x{cols} diverged");
            }
        }
    }

    /// The AVX single-panel kernel agrees with the scalar build to the
    /// last bit for every `cols % 4` tail and for partial panels whose
    /// dead lanes are zero padding (runs only where the CPU has AVX;
    /// elsewhere the dispatch never picks it).
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[test]
    fn avx_panel_kernel_bit_identical_to_scalar() {
        if !std::arch::is_x86_feature_detected!("avx") {
            return;
        }
        for rows in [3usize, 8] {
            for cols in [1usize, 2, 3, 4, 5, 6, 7, 16, 29, 64] {
                let packed = PackedMatrix::pack(&pseudo_matrix(rows, cols, 41));
                let x = pseudo_vector(cols, 13);
                let scalar = panel_gemv_scalar(&packed.data, cols, x.as_slice());
                // SAFETY: AVX support checked above.
                let avx = unsafe { panel_gemv_avx(&packed.data, cols, x.as_slice()) };
                for r in 0..MR {
                    assert_eq!(
                        avx[r].to_bits(),
                        scalar[r].to_bits(),
                        "{rows}x{cols} lane {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_masked_bit_identical_to_reference() {
        for (rows, cols) in [(5, 3), (16, 16), (33, 20), (96, 96)] {
            let a = pseudo_matrix(rows, cols, 3);
            let x = pseudo_vector(cols, 5);
            for skip_mod in [2usize, 3, 5] {
                let active: Vec<bool> = (0..rows).map(|r| r % skip_mod != 0).collect();
                let fast = sgemv_masked_gather(&a, &x, &active, -7.5);
                let reference = sgemv_masked_reference(&a, &x, &active, -7.5);
                for (f, r) in fast.iter().zip(reference.iter()) {
                    assert_eq!(f.to_bits(), r.to_bits());
                }
            }
        }
    }

    #[test]
    fn gather_masked_full_mask_equals_dense() {
        let a = pseudo_matrix(40, 24, 1);
        let x = pseudo_vector(24, 2);
        let full = vec![true; 40];
        let masked = sgemv_masked_gather(&a, &x, &full, 0.0);
        let dense = PackedMatrix::pack(&a).gemv(&x);
        for (m, d) in masked.iter().zip(dense.iter()) {
            assert_eq!(m.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn gather_masked_empty_mask_is_all_skipped() {
        let a = pseudo_matrix(9, 4, 8);
        let x = pseudo_vector(4, 9);
        let none = vec![false; 9];
        let y = sgemv_masked_gather(&a, &x, &none, 42.0);
        assert!(y.iter().all(|&v| v == 42.0));
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn packed_gemv_shape_mismatch_panics() {
        PackedMatrix::pack(&Matrix::zeros(4, 3)).gemv(&Vector::zeros(2));
    }

    #[test]
    fn batched_gemv_columns_bit_identical_to_single() {
        for (rows, cols) in [(1, 1), (7, 5), (9, 12), (33, 31), (96, 96)] {
            let a = pseudo_matrix(rows, cols, 21);
            let packed = PackedMatrix::pack(&a);
            for batch in [1usize, 2, 3, 8] {
                let xs: Vec<Vector> = (0..batch)
                    .map(|i| pseudo_vector(cols, 100 + i as u32))
                    .collect();
                let ys = packed.gemv_batch(&xs);
                assert_eq!(ys.len(), batch);
                for (x, y) in xs.iter().zip(&ys) {
                    let single = packed.gemv(x);
                    for (b, s) in y.iter().zip(single.iter()) {
                        assert_eq!(b.to_bits(), s.to_bits(), "{rows}x{cols} b{batch}");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_gemv_empty_batch_is_empty() {
        assert!(PackedMatrix::pack(&Matrix::zeros(4, 3))
            .gemv_batch(&[])
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "column 1 length")]
    fn batched_gemv_shape_mismatch_panics() {
        let packed = PackedMatrix::pack(&Matrix::zeros(4, 3));
        packed.gemv_batch(&[Vector::zeros(3), Vector::zeros(2)]);
    }
}
