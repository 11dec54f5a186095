//! Kernel-level comparison of the GEMM/GEMV paths:
//!
//! * dense SGEMV — the naive rowwise reference (`tensor::gemm::sgemv`)
//!   versus the packed row-panel kernel (`PackedMatrix::gemv`), with the
//!   pack done once outside the timing loop exactly as plans cache it;
//! * masked SGEMV — the naive row-skipping reference
//!   (`sgemv_masked_reference`) versus the gather-based skip-list kernel
//!   (`sgemv_masked`) at paper-realistic skip ratios;
//! * quantized gates — per weight tier (fp32/fp16/int8), the dense fused
//!   4-gate GEMV and the DRS-masked `U_{f,i,c}` prefix product, which
//!   skips only the 8-row panels with no active row. This is where the
//!   host cost of the low-precision tiers is recorded.
//!
//! Shapes follow the LSTM gate matrices: `H x H` recurrent blocks and the
//! `4H x H` stacked input projections of Table I's hidden sizes. In
//! measurement mode (`cargo bench`) the medians are also written to
//! `BENCH_gemm.json` at the repository root. Every figure is host
//! wall-clock time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tensor::gemm::{sgemv, sgemv_masked, sgemv_masked_reference};
use tensor::packed::MR;
use tensor::{FusedGates, Matrix, PackedMatrix, Precision, QuantizedGates, Vector};

/// `(rows, cols)` of the dense comparisons: recurrent `H x H` blocks at
/// the paper's hidden sizes plus the stacked `4H x H` gate projection.
const DENSE_SHAPES: [(usize, usize); 4] = [(128, 128), (256, 256), (512, 256), (1024, 256)];

/// Hidden sizes of the fused 4-gate comparison (`U_{f,i,c,o}` at `H x H`
/// each, applied to one `h_{t-1}`).
const FUSED_HIDDEN: [usize; 3] = [128, 256, 512];

/// Fraction of rows the skip list removes (Fig. 14's AO band and beyond).
const SKIP_RATIOS: [f64; 3] = [0.25, 0.50, 0.75];

/// Hidden sizes of the per-tier quantized-gate comparison.
const QUANT_HIDDEN: [usize; 3] = [128, 256, 512];

/// DRS skip ratios of the per-tier masked prefix product.
const QUANT_SKIPS: [f64; 2] = [0.35, 0.65];

/// Masked comparisons run on a recurrent-sized block.
const MASKED_SHAPE: (usize, usize) = (256, 256);

fn test_matrix(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) % 13) as f32 * 0.083 - 0.5
    })
}

fn test_vector(len: usize) -> Vector {
    Vector::from_fn(len, |i| ((i * 17) % 11) as f32 * 0.091 - 0.45)
}

/// A deterministic skip list keeping roughly `1 - skip_ratio` of rows.
fn skip_mask(rows: usize, skip_ratio: f64) -> Vec<bool> {
    let period = 20usize;
    let skipped = (skip_ratio * period as f64).round() as usize;
    (0..rows).map(|r| (r * 7 + 3) % period >= skipped).collect()
}

fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgemv_dense");
    group.sample_size(20);
    for &(rows, cols) in &DENSE_SHAPES {
        let a = test_matrix(rows, cols);
        let x = test_vector(cols);
        let packed = PackedMatrix::pack(&a);
        // The two paths must agree bitwise before we time them.
        assert_eq!(sgemv(&a, &x).as_slice(), packed.gemv(&x).as_slice());
        group.bench_with_input(
            BenchmarkId::new("naive", format!("{rows}x{cols}")),
            &(),
            |b, _| b.iter(|| black_box(sgemv(&a, &x))),
        );
        group.bench_with_input(
            BenchmarkId::new("packed", format!("{rows}x{cols}")),
            &(),
            |b, _| b.iter(|| black_box(packed.gemv(&x))),
        );
    }
    group.finish();
}

/// Four deterministic `H x H` gate matrices.
fn gate_mats(h: usize) -> Vec<Matrix> {
    (0..4)
        .map(|g| {
            Matrix::from_fn(h, h, |r, c| {
                ((r * 31 + c * 7 + g * 5) % 13) as f32 * 0.083 - 0.5
            })
        })
        .collect()
}

/// The four `H x H` gate matrices of one fused comparison, plus their
/// individually packed forms and the fused slab. Both sides use the same
/// packed panel micro-kernel and write into caller-owned buffers: the
/// fused win is one pass over `h` and panel-pair ILP, not allocation.
fn fused_setup(h: usize) -> (FusedGates, Vec<PackedMatrix>, Vector) {
    let mats = gate_mats(h);
    let refs: Vec<&Matrix> = mats.iter().collect();
    let fused = FusedGates::pack(&refs);
    let singles: Vec<PackedMatrix> = mats.iter().map(PackedMatrix::pack).collect();
    (fused, singles, test_vector(h))
}

fn bench_fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgemv_fused_gates");
    group.sample_size(20);
    for &h in &FUSED_HIDDEN {
        let (fused, singles, x) = fused_setup(h);
        let mut slab = vec![0.0f32; 4 * h];
        let mut unfused = vec![0.0f32; 4 * h];
        // The fused slab's sections must agree bitwise with the per-gate
        // launches before we time either side.
        fused.gemv_into(x.as_slice(), &mut slab);
        for (g, p) in singles.iter().enumerate() {
            p.gemv_into(x.as_slice(), &mut unfused[g * h..(g + 1) * h]);
        }
        assert_eq!(slab, unfused);
        group.bench_with_input(
            BenchmarkId::new("per_gate", format!("H{h}")),
            &(),
            |b, _| {
                b.iter(|| {
                    for (g, p) in singles.iter().enumerate() {
                        p.gemv_into(x.as_slice(), &mut unfused[g * h..(g + 1) * h]);
                    }
                    black_box(&mut unfused);
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("fused", format!("H{h}")), &(), |b, _| {
            b.iter(|| {
                fused.gemv_into(x.as_slice(), &mut slab);
                black_box(&mut slab);
            })
        });
    }
    group.finish();
}

fn bench_masked(c: &mut Criterion) {
    let (rows, cols) = MASKED_SHAPE;
    let a = test_matrix(rows, cols);
    let x = test_vector(cols);
    let mut group = c.benchmark_group("sgemv_masked");
    group.sample_size(20);
    for &ratio in &SKIP_RATIOS {
        let mask = skip_mask(rows, ratio);
        assert_eq!(
            sgemv_masked_reference(&a, &x, &mask, 0.0).as_slice(),
            sgemv_masked(&a, &x, &mask, 0.0).as_slice()
        );
        group.bench_with_input(
            BenchmarkId::new("reference", format!("skip{:.0}%", ratio * 100.0)),
            &(),
            |b, _| b.iter(|| black_box(sgemv_masked_reference(&a, &x, &mask, 0.0))),
        );
        group.bench_with_input(
            BenchmarkId::new("gather", format!("skip{:.0}%", ratio * 100.0)),
            &(),
            |b, _| b.iter(|| black_box(sgemv_masked(&a, &x, &mask, 0.0))),
        );
    }
    group.finish();
}

/// One tier's packed `U_{f,i,c,o}` quartet: the exact fp32 slab or its
/// quantized twin (the split `lstm`'s gate slab makes).
enum TierSlab {
    Exact(FusedGates),
    Quant(QuantizedGates),
}

impl TierSlab {
    fn pack(h: usize, precision: Precision) -> Self {
        let mats = gate_mats(h);
        let refs: Vec<&Matrix> = mats.iter().collect();
        match precision {
            Precision::Fp32 => TierSlab::Exact(FusedGates::pack(&refs)),
            p => TierSlab::Quant(QuantizedGates::pack(&refs, p)),
        }
    }

    /// Dense fused product over all four gates.
    fn gemv_into(&self, x: &Vector, out: &mut [f32]) {
        match self {
            TierSlab::Exact(f) => f.gemv_into(x.as_slice(), out),
            TierSlab::Quant(q) => q.gemv_into(x.as_slice(), out),
        }
    }

    /// DRS-masked product of the `f, i, c` prefix under one shared mask.
    fn masked_into(&self, x: &Vector, mask: &[bool], out: &mut [f32]) {
        match self {
            TierSlab::Exact(f) => f.gemv_masked_prefix_into(3, x, mask, 0.0, out),
            TierSlab::Quant(q) => q.gemv_masked_prefix_into(3, x, mask, 0.0, out),
        }
    }
}

/// Share of [`MR`]-row panels with at least one active row: the part of
/// a masked product the host still computes.
fn live_panel_frac(mask: &[bool]) -> f64 {
    let panels = mask.chunks(MR);
    let n = panels.len();
    panels.filter(|p| p.contains(&true)).count() as f64 / n as f64
}

fn bench_quant_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_gates");
    group.sample_size(20);
    for &h in &QUANT_HIDDEN {
        let x = test_vector(h);
        for precision in Precision::ALL {
            let slab = TierSlab::pack(h, precision);
            let mut out = vec![0.0f32; 4 * h];
            group.bench_with_input(
                BenchmarkId::new(format!("dense_{precision}"), format!("H{h}")),
                &(),
                |b, _| {
                    b.iter(|| {
                        slab.gemv_into(&x, &mut out);
                        black_box(&mut out);
                    })
                },
            );
            for &skip in &QUANT_SKIPS {
                let mask = skip_mask(h, skip);
                group.bench_with_input(
                    BenchmarkId::new(
                        format!("masked_{precision}"),
                        format!("H{h}_skip{:.0}%", skip * 100.0),
                    ),
                    &(),
                    |b, _| {
                        b.iter(|| {
                            slab.masked_into(&x, &mask, &mut out[..3 * h]);
                            black_box(&mut out);
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_gemm_kernels(c: &mut Criterion) {
    bench_dense(c);
    bench_fused(c);
    bench_masked(c);
    bench_quant_gates(c);
    if c.is_measuring() {
        emit_json();
    }
}

/// Seconds per call of `f`, timed over `iters` calls.
fn per_call_s(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// The median of a set of timings.
fn median(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median seconds over `reps` timings of `iters` calls of `f`, so
/// microsecond kernels get a stable reading.
fn median_s(reps: usize, iters: usize, f: &dyn Fn()) -> f64 {
    let mut times: Vec<f64> = (0..reps).map(|_| per_call_s(iters, f)).collect();
    median(&mut times)
}

/// Re-times every comparison directly and writes `BENCH_gemm.json`.
fn emit_json() {
    const REPS: usize = 7;
    const ITERS: usize = 200;
    let mut dense = Vec::new();
    for &(rows, cols) in &DENSE_SHAPES {
        let a = test_matrix(rows, cols);
        let x = test_vector(cols);
        let packed = PackedMatrix::pack(&a);
        let naive_s = median_s(REPS, ITERS, &|| {
            black_box(sgemv(&a, &x));
        });
        let packed_s = median_s(REPS, ITERS, &|| {
            black_box(packed.gemv(&x));
        });
        dense.push(format!(
            "    {{\"rows\": {rows}, \"cols\": {cols}, \"naive_s\": {naive_s:.9}, \
             \"packed_s\": {packed_s:.9}, \"speedup\": {:.3}}}",
            naive_s / packed_s
        ));
    }
    let mut fused_rows = Vec::new();
    for &h in &FUSED_HIDDEN {
        let (fused, singles, x) = fused_setup(h);
        // `median_s` takes `Fn`, so the output slabs live in cells.
        let slab = std::cell::RefCell::new(vec![0.0f32; 4 * h]);
        let per_gate_s = median_s(REPS, ITERS, &|| {
            let mut slab = slab.borrow_mut();
            for (g, p) in singles.iter().enumerate() {
                p.gemv_into(x.as_slice(), &mut slab[g * h..(g + 1) * h]);
            }
            black_box(&mut *slab);
        });
        let fused_s = median_s(REPS, ITERS, &|| {
            let mut slab = slab.borrow_mut();
            fused.gemv_into(x.as_slice(), &mut slab);
            black_box(&mut *slab);
        });
        fused_rows.push(format!(
            "    {{\"hidden\": {h}, \"gates\": 4, \"per_gate_s\": {per_gate_s:.9}, \
             \"fused_s\": {fused_s:.9}, \"speedup\": {:.3}}}",
            per_gate_s / fused_s
        ));
    }
    let (rows, cols) = MASKED_SHAPE;
    let a = test_matrix(rows, cols);
    let x = test_vector(cols);
    let mut masked = Vec::new();
    for &ratio in &SKIP_RATIOS {
        let mask = skip_mask(rows, ratio);
        let reference_s = median_s(REPS, ITERS, &|| {
            black_box(sgemv_masked_reference(&a, &x, &mask, 0.0));
        });
        let gather_s = median_s(REPS, ITERS, &|| {
            black_box(sgemv_masked(&a, &x, &mask, 0.0));
        });
        masked.push(format!(
            "    {{\"rows\": {rows}, \"cols\": {cols}, \"skip_ratio\": {ratio:.2}, \
             \"reference_s\": {reference_s:.9}, \"gather_s\": {gather_s:.9}, \
             \"speedup\": {:.3}}}",
            reference_s / gather_s
        ));
    }
    // The tiers are timed interleaved, one repetition of every (tier,
    // product) pair after another, so a drift in machine speed during
    // the run moves all three tiers alike.
    const QUANT_REPS: usize = 11;
    let mut quant = Vec::new();
    for &h in &QUANT_HIDDEN {
        let x = test_vector(h);
        let masks: Vec<Vec<bool>> = QUANT_SKIPS.iter().map(|&s| skip_mask(h, s)).collect();
        let slabs: Vec<TierSlab> = Precision::ALL
            .iter()
            .map(|&p| TierSlab::pack(h, p))
            .collect();
        let mut out = vec![0.0f32; 4 * h];
        // `times[tier][0]` holds the dense product, `times[tier][1 + m]`
        // the masked product under mask `m`.
        let mut times = vec![vec![Vec::new(); 1 + masks.len()]; slabs.len()];
        for _ in 0..QUANT_REPS {
            for (slab, t) in slabs.iter().zip(times.iter_mut()) {
                t[0].push(per_call_s(ITERS, || {
                    slab.gemv_into(&x, &mut out);
                    black_box(&mut out);
                }));
                for (mask, tm) in masks.iter().zip(&mut t[1..]) {
                    tm.push(per_call_s(ITERS, || {
                        slab.masked_into(&x, mask, &mut out[..3 * h]);
                        black_box(&mut out);
                    }));
                }
            }
        }
        for (precision, t) in Precision::ALL.iter().zip(&mut times) {
            let (dense_times, masked_times) = t.split_at_mut(1);
            let masked: Vec<String> = QUANT_SKIPS
                .iter()
                .zip(&masks)
                .zip(masked_times)
                .map(|((skip, mask), tm)| {
                    format!(
                        "{{\"skip_ratio\": {skip:.2}, \"live_panel_frac\": {:.3}, \
                         \"masked_s\": {:.9}}}",
                        live_panel_frac(mask),
                        median(tm)
                    )
                })
                .collect();
            quant.push(format!(
                "      {{\"hidden\": {h}, \"precision\": \"{precision}\", \
                 \"dense_s\": {:.9}, \"masked\": [{}]}}",
                median(&mut dense_times[0]),
                masked.join(", ")
            ));
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"gemm_kernels\",\n  \"dense_sgemv\": [\n{}\n  ],\n  \
         \"fused_gates\": [\n{}\n  ],\n  \"masked_sgemv\": [\n{}\n  ],\n  \
         \"quant_gates\": {{\n    \"clock\": \"host\",\n    \"dense_gates\": 4,\n    \
         \"masked_gates\": 3,\n    \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        dense.join(",\n"),
        fused_rows.join(",\n"),
        masked.join(",\n"),
        quant.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(path, json).expect("write BENCH_gemm.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, bench_gemm_kernels);
criterion_main!(benches);
