//! Benchmark of the memlstm stack on two clocks: the host wall clock of
//! the real f32/int8 engine and the simulated device time `gpu-sim`
//! prices from the kernel stream.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `imdb-baseline-fp32`, `mt-combined-int8`, `mr-fleet-serve`
//! (why each was chosen: NOTES.md). Set-up runs four times from scratch
//! and `setup_s` is their median; each set-up is followed by its share
//! of the `--seconds` of measurement. Host times are reported on the
//! reference-host scale of the yardstick (`yardstick.rs`), which cancels
//! most of the shared host's swings in speed. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` splits each share into an untraced
//! and a traced half, prints the per-layer metrics and the tracing
//! overhead, and writes a Chrome trace to `perfbench/out/`.
//! Human-readable figures go to stderr; the last line of stdout is the
//! JSON result.

mod fleet;
mod host;
mod report;
mod single;
mod trace;
mod yardstick;

use gpu_sim::DeviceModel;
use report::{Metrics, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use tensor::Precision;
use trace::TraceFile;
use workloads::{Benchmark, SynthParams, Workload};
use yardstick::Yardstick;

/// Seed of the network weights, shared by every run: the model under
/// test is fixed, and `--seed` varies only its inputs.
pub(crate) const MODEL_SEED: u64 = 0x0DE1_5EED;

/// Generates `benchmark`'s workload with the network drawn from
/// [`MODEL_SEED`] and the input sequences (offline and evaluation sets)
/// drawn from `seed`. `Workload::generate_with` seeds the network from
/// `params.seed ^ seed`, so folding `seed` into `params.seed` cancels it.
pub(crate) fn seeded_workload(benchmark: Benchmark, eval_n: usize, seed: u64) -> Workload {
    let mut params = SynthParams::for_benchmark(benchmark);
    params.seed ^= MODEL_SEED ^ seed;
    Workload::generate_with(benchmark, &params, eval_n, seed)
}

/// Set-ups per run; `setup_s` is their median. An even count, so that
/// with set-ups pinned to alternate CPUs the median averages the two.
const SETUPS: usize = 4;

const WORKLOADS: [&str; 3] = ["imdb-baseline-fp32", "mt-combined-int8", "mr-fleet-serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Sets the run conditions from the benchmark itself: the pool width
/// (every `pool::Pool::new` reads it), never the caller's environment.
fn set_run_conditions() {
    std::env::set_var("MEMLSTM_THREADS", host::pool_width().to_string());
}

/// Host seconds of each set-up stage (0 for a stage a workload does
/// not have).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub offline_s: f64,
    pub compile_s: f64,
    pub warmup_s: f64,
    pub pool_busy_frac: f64,
}

impl SetupTimes {
    /// The same stages with every time multiplied by `factor`.
    fn scaled(self, factor: f64) -> Self {
        Self {
            total_s: self.total_s * factor,
            generate_s: self.generate_s * factor,
            offline_s: self.offline_s * factor,
            compile_s: self.compile_s * factor,
            warmup_s: self.warmup_s * factor,
            pool_busy_frac: self.pool_busy_frac,
        }
    }
}

/// Set-up times on the reference-host scale. A set-up lasts seconds,
/// through many swings of the vCPU's speed, so it is scaled by the run's
/// median yardstick reading rather than by readings at its ends. Over
/// five mt seeds, `setup_s` ranged over 24% of its median with readings
/// at the ends, 18% unscaled, and 9% scaled by the run median.
fn scale_setups(setups: &[SetupTimes], yard: &Yardstick) -> Vec<SetupTimes> {
    let factor = yardstick::REFERENCE_MS / yard.median_ms();
    setups.iter().map(|t| t.scaled(factor)).collect()
}

/// Median of one set-up stage over the set-ups of a run.
fn setup_median(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    host::median(&setups.iter().map(f).collect::<Vec<_>>())
}

/// Per-layer set-up metrics: the median of each stage.
fn setup_metrics(metrics: &mut Metrics, setups: &[SetupTimes]) {
    metrics.set(
        "workloads.generate_s",
        setup_median(setups, |t| t.generate_s),
    );
    metrics.set("memlstm.offline_s", setup_median(setups, |t| t.offline_s));
    metrics.set(
        "memlstm.plan_compile_s",
        setup_median(setups, |t| t.compile_s),
    );
    metrics.set("lstm.warmup_s", setup_median(setups, |t| t.warmup_s));
    metrics.set("pool.busy_frac", setup_median(setups, |t| t.pool_busy_frac));
}

/// End-to-end host metrics of a measured phase: `samples_ms` on the
/// reference-host scale, `wall_ms` the same samples as the wall clock
/// read them.
fn host_metrics(
    metrics: &mut Metrics,
    samples_ms: &[f64],
    wall_ms: &[f64],
    seq_per_s: f64,
    setup_s: f64,
    yard: &Yardstick,
) {
    let (tail_pct, tail_ms) = host::tail(samples_ms);
    metrics.set("host_seq_per_s", seq_per_s);
    metrics.set("host_ms_p50", host::median(samples_ms));
    metrics.set("host_ms_tail", tail_ms);
    metrics.set("setup_s", setup_s);
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    metrics.set("host.wall_ms_p50", host::median(wall_ms));
    eprintln!(
        "[perfbench] tail = p{tail_pct:.2} over {} samples; wall-clock p50 {:.3} ms; \
         yardstick {:.4} ms (median of {} readings; reference {} ms)",
        samples_ms.len(),
        host::median(wall_ms),
        yard.median_ms(),
        yard.readings(),
        yardstick::REFERENCE_MS
    );
}

fn overhead_metrics(metrics: &mut Metrics, untraced: f64, traced: f64) {
    metrics.set("trace.untraced_seq_per_s", untraced);
    metrics.set("trace.traced_seq_per_s", traced);
    metrics.set("trace.overhead_frac", 1.0 - traced / untraced);
}

fn write_trace(tf: TraceFile, workload: &str, seed: u64) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{workload}-seed{seed}.trace.json");
    let json = tf.into_chrome(&host::describe()).to_json();
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("[perfbench] wrote {path}"),
        Err(e) => eprintln!("[perfbench] could not write {path}: {e}"),
    }
}

/// Measured seconds before (untraced) and after (traced) the midpoint of
/// one set-up's share of the run.
fn slice_seconds(args: &Args) -> (f64, f64) {
    let slice = args.seconds / SETUPS as f64;
    if args.trace {
        (slice / 2.0, slice / 2.0)
    } else {
        (slice, 0.0)
    }
}

/// Runs a single-stream workload; returns `(attempted, failed)`.
///
/// Each of the [`SETUPS`] set-ups is followed by its share of the
/// measured time, so the host figures are spread over the whole run.
fn run_single(spec: single::Spec, args: &Args, metrics: &mut Metrics) -> (u64, u64) {
    // The device preset is fixed here; `MEMLSTM_DEVICE` is never read.
    let device = DeviceModel::tegra_x1();
    let (untraced_s, traced_s) = slice_seconds(args);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut untraced = single::Measured::default();
    let mut traced = single::Measured::default();
    let mut tf = args.trace.then(TraceFile::new);
    let mut violations = 0;
    let (mut worst_quant, mut worst_total) = (0.0f64, 0.0f64);
    let mut last = None;
    let cpus = host::CpuRotation::new();
    let mut yard = Yardstick::new();
    for i in 0..SETUPS {
        drop(last.take());
        // A set-up that fans out on the pool stays unpinned: its workers
        // would inherit the pin and share one CPU.
        if !spec.combined {
            cpus.pin(i);
        }
        let mut p = single::prepare(&spec, args.seed, &device);
        cpus.unpin();
        setups.push(p.times);
        let m = single::measure(&mut p, &device, &mut yard, untraced_s, None, 0);
        let (errors, total) = single::logit_errors(&p, &device);
        worst_quant = errors.iter().copied().fold(worst_quant, f64::max);
        worst_total = worst_total.max(total);
        violations += single::bound_violations(&errors, &m);
        eprintln!(
            "[perfbench] set-up {i}: {:.3} s wall, then {} sequences, median {:.2} ms ({:.2} ms wall)",
            p.times.total_s,
            m.samples_ms.len(),
            host::median(&m.samples_ms),
            host::median(&m.wall_ms)
        );
        untraced.absorb(m);
        if let Some(tf) = tf.as_mut() {
            let first_id = traced.samples_ms.len() as u64;
            let m = single::measure(&mut p, &device, &mut yard, traced_s, Some(tf), first_id);
            violations += single::bound_violations(&errors, &m);
            traced.absorb(m);
        }
        last = Some(p);
    }
    let p = last.expect("at least one set-up");
    if spec.precision.is_quantized() {
        eprintln!(
            "[perfbench] max-abs logit error from quantization {worst_quant:.4} (bound {}); \
             from the exact fp32 network {worst_total:.4}",
            single::INT8_LOGIT_BOUND
        );
    }
    let setups = scale_setups(&setups, &yard);
    let setup_s = setup_median(&setups, |t| t.total_s);
    host_metrics(
        metrics,
        &untraced.samples_ms,
        &untraced.wall_ms,
        untraced.seq_per_s(),
        setup_s,
        &yard,
    );
    let mut attempted = untraced.samples_ms.len() as u64;
    let mut failed = untraced.failed + violations;
    if let Some(tf) = tf {
        overhead_metrics(metrics, untraced.seq_per_s(), traced.seq_per_s());
        single::fixed_metrics(&p, &untraced, metrics);
        single::traced_metrics(&traced, metrics);
        setup_metrics(metrics, &setups);
        write_trace(tf, &args.workload, args.seed);
        attempted += traced.samples_ms.len() as u64;
        failed += traced.failed;
    }
    (attempted, failed)
}

/// Runs the fleet serve workload; returns `(attempted, failed)`. Set-ups
/// and measured slices alternate as in [`run_single`].
fn run_fleet(args: &Args, metrics: &mut Metrics) -> (u64, u64) {
    let (untraced_s, traced_s) = slice_seconds(args);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut untraced = fleet::Measured::default();
    let mut traced = fleet::Measured::default();
    let mut tf = args.trace.then(TraceFile::new);
    let mut last = None;
    let cpus = host::CpuRotation::new();
    let mut yard = Yardstick::new();
    for i in 0..SETUPS {
        drop(last.take());
        cpus.pin(i);
        let p = fleet::prepare(args.seed);
        cpus.unpin();
        setups.push(p.times);
        let m = fleet::measure(&p, &mut yard, untraced_s, None, 0);
        eprintln!(
            "[perfbench] set-up {i}: {:.3} s wall, then {} requests, median {:.3} ms ({:.3} ms wall)",
            p.times.total_s,
            m.request_ms().len(),
            host::median(m.request_ms()),
            host::median(&m.wall_request_ms)
        );
        untraced.absorb(m);
        if let Some(tf) = tf.as_mut() {
            let m = fleet::measure(&p, &mut yard, traced_s, Some(tf), traced.replays);
            traced.absorb(m);
        }
        last = Some(p);
    }
    let p = last.expect("at least one set-up");
    let setups = scale_setups(&setups, &yard);
    let setup_s = setup_median(&setups, |t| t.total_s);
    host_metrics(
        metrics,
        untraced.request_ms(),
        &untraced.wall_request_ms,
        untraced.seq_per_s(),
        setup_s,
        &yard,
    );
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    if let Some(tf) = tf {
        overhead_metrics(metrics, untraced.seq_per_s(), traced.seq_per_s());
        fleet::fixed_metrics(&p, metrics);
        fleet::traced_metrics(&traced, metrics);
        setup_metrics(metrics, &setups);
        write_trace(tf, &args.workload, args.seed);
        attempted += traced.attempted;
        failed += traced.failed;
    }
    (attempted, failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    set_run_conditions();
    eprintln!(
        "[perfbench] {} seed={} seconds={} trace={} host: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::describe()
    );
    let mut metrics = Metrics::default();
    let (attempted, failed) = match args.workload.as_str() {
        "imdb-baseline-fp32" => run_single(
            single::Spec {
                benchmark: Benchmark::Imdb,
                precision: Precision::Fp32,
                combined: false,
                eval_n: 4,
            },
            &args,
            &mut metrics,
        ),
        "mt-combined-int8" => run_single(
            single::Spec {
                benchmark: Benchmark::Mt,
                precision: Precision::Int8,
                combined: true,
                eval_n: 4,
            },
            &args,
            &mut metrics,
        ),
        _ => run_fleet(&args, &mut metrics),
    };
    let defs = if args.trace {
        metrics.set("failed_frac", failed as f64 / attempted.max(1) as f64);
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", metrics.result_line(defs, attempted, failed));
    ExitCode::SUCCESS
}
