//! The single-stream workloads: one sequence at a time through
//! `PlanRuntime`, priced on the simulated device as it runs.

use crate::host;
use crate::report::Metrics;
use crate::trace::{phase_index, PhaseSink, PhaseTotals, TraceFile};
use crate::yardstick::{self, Yardstick};
use crate::SetupTimes;
use gpu_sim::{DeviceModel, GpuDevice};
use lstm::plan::{ExecutionPlan, NullSink, PlanOutput, PlanRuntime};
use memlstm::exec::{OptRunStats, OptimizedExecutor, OptimizerConfig};
use memlstm::thresholds::{threshold_sets, Evaluator};
use pool::Pool;
use std::time::Instant;
use tensor::Precision;
use workloads::{teacher_match_nested, Benchmark, Workload};

/// Threshold sets the combined scheme's operating point is drawn from,
/// and the fixed index used (set 0 is the baseline, the last the most
/// aggressive).
const THRESHOLD_SETS: usize = 11;
const THRESHOLD_SET: usize = 7;

/// Max-abs logit error an int8 plan may show against the same plan run
/// in fp32. The value is borrowed from the quant sweep
/// (`crates/bench/src/bin/quant.rs`), which pins it on a different
/// comparison: the int8 baseline plan against the exact fp32 network.
pub const INT8_LOGIT_BOUND: f64 = 2.0;

/// A single-stream workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub benchmark: Benchmark,
    pub precision: Precision,
    /// The paper's combined scheme (tissues + hardware DRS) instead of
    /// the baseline plan.
    pub combined: bool,
    /// Distinct evaluation sequences; the measured phase cycles through
    /// them.
    pub eval_n: usize,
}

/// Everything set-up produces: the plan, a warm runtime, and the
/// reference outputs every measured sequence is checked against.
pub struct Prepared {
    workload: Workload,
    plan: ExecutionPlan,
    runtime: PlanRuntime,
    out: PlanOutput,
    /// Reference logits per evaluation sequence, as bit patterns.
    reference: Vec<Vec<u32>>,
    pub times: SetupTimes,
    pub skip_frac: f64,
    pub mean_tissue: f64,
    pub teacher_match: f64,
}

fn bits(out: &PlanOutput) -> Vec<u32> {
    out.logits.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Generates the workload from `seed`, runs the offline phase and plan
/// compile, then warms the runtime: a reference pass with `NullSink`
/// over every evaluation sequence (filling the lazily packed gate slabs
/// and the workspace) and one priced pass, so no lazy work lands in the
/// first measured sequence.
///
/// The combined scheme's offline phase and compile run on a calibration
/// set drawn from the model seed, not from `seed`: like the weights, the
/// compiled plan belongs to the deployed model, and `seed` varies only
/// the inputs it serves.
pub fn prepare(spec: &Spec, seed: u64, device: &DeviceModel) -> Prepared {
    pool::start_capture();
    let t0 = Instant::now();
    let workload = crate::seeded_workload(spec.benchmark, spec.eval_n, seed);
    let calibration = spec
        .combined
        .then(|| crate::seeded_workload(spec.benchmark, 1, crate::MODEL_SEED));
    let t_generated = Instant::now();
    let (plan, t_offline) = match calibration {
        Some(calibration) => {
            let ev = Evaluator::new(calibration, device.clone())
                .with_pool(Pool::with_workers(host::pool_width()));
            let t_offline = Instant::now();
            let set = threshold_sets(
                ev.upper_alpha_inter(),
                ev.upper_alpha_intra(),
                THRESHOLD_SETS,
            )[THRESHOLD_SET];
            let config = OptimizerConfig {
                precision: spec.precision,
                ..ev.combined_config(&set)
            };
            let plan = OptimizedExecutor::new(ev.workload().network(), ev.predictors(), config)
                .on_device(device.clone())
                .plan_probes(ev.workload().dataset().offline());
            (plan, t_offline)
        }
        None => {
            let seq_len = workload.spec().seq_len;
            let plan = ExecutionPlan::compile_baseline(workload.network(), seq_len, device)
                .with_precision(spec.precision);
            (plan, t_generated)
        }
    };
    let t_compiled = Instant::now();

    let net = workload.network();
    let eval = workload.eval_set();
    let mut runtime = PlanRuntime::new();
    let mut out = PlanOutput::new();
    let mut reference = Vec::with_capacity(eval.len());
    let mut preds = Vec::with_capacity(eval.len());
    let (mut skip, mut tissue) = (0.0, 0.0);
    for xs in eval {
        runtime.run_lstm_into(&plan, net, xs, &mut NullSink, &mut out);
        reference.push(bits(&out));
        preds.push(net.step_predictions(out.layer_hs.last().expect("at least one layer")));
        let stats = OptRunStats::from_plan_run(&plan, &out);
        skip += stats.mean_skip_fraction();
        tissue += stats.mean_tissue_size();
    }
    let mut gpu = GpuDevice::for_model(device);
    let mut session = gpu.begin_trace();
    runtime.run_lstm_into(&plan, net, &eval[0], &mut session, &mut out);
    session.finish();
    let t_warm = Instant::now();
    let profile = pool::stop_capture();

    let n = eval.len() as f64;
    let total_s = t_warm.duration_since(t0).as_secs_f64();
    let teacher_match = teacher_match_nested(workload.teacher_labels(), &preds);
    Prepared {
        plan,
        runtime,
        out,
        reference,
        times: SetupTimes {
            total_s,
            generate_s: t_generated.duration_since(t0).as_secs_f64(),
            offline_s: t_offline.duration_since(t_generated).as_secs_f64(),
            compile_s: t_compiled.duration_since(t_offline).as_secs_f64(),
            warmup_s: t_warm.duration_since(t_compiled).as_secs_f64(),
            pool_busy_frac: profile.total_busy_s() / (total_s * host::pool_width() as f64),
        },
        skip_frac: skip / n,
        mean_tissue: tissue / n,
        teacher_match,
        workload,
    }
}

/// Simulated figures of one sequence, fixed by the plan and the input.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SimSeq {
    time_s: f64,
    energy_j: f64,
    launches: u64,
    dram_bytes: u64,
    dram_read_bytes: u64,
    l2_hit_bytes: u64,
    stall_onchip_s: f64,
    stall_offchip_s: f64,
}

/// What a measured phase observed.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host milliseconds per sequence, as the wall clock read them.
    pub wall_ms: Vec<f64>,
    /// The same on the reference-host scale (see `yardstick`).
    pub samples_ms: Vec<f64>,
    pub failed: u64,
    /// Simulated figures per evaluation sequence (first run of each).
    sims: Vec<Option<SimSeq>>,
    /// Per-phase host totals (traced phase only).
    pub phases: PhaseTotals,
    /// Simulated seconds per host phase of each evaluation sequence,
    /// from profiler spans (traced phase only).
    phase_sim_s: Vec<Option<[f64; 3]>>,
}

impl Measured {
    /// Sequences per reference-host second, back to back.
    pub fn seq_per_s(&self) -> f64 {
        self.samples_ms.len() as f64 * 1e3 / self.samples_ms.iter().sum::<f64>()
    }

    /// Pools a later phase into this one. Simulated figures come from a
    /// new set-up of the same seed and must equal the first phase's;
    /// every sequence of a phase that differs counts as failed.
    pub fn absorb(&mut self, other: Measured) {
        if self.sims.is_empty() {
            self.sims = other.sims;
        } else if self.sims != other.sims {
            self.failed += other.samples_ms.len() as u64;
        }
        if self.phase_sim_s.iter().all(Option::is_none) {
            self.phase_sim_s = other.phase_sim_s;
        }
        self.wall_ms.extend(other.wall_ms);
        self.samples_ms.extend(other.samples_ms);
        self.failed += other.failed;
        self.phases.add(&other.phases);
    }
}

/// Runs sequences back to back for `seconds`, cycling through the
/// evaluation set. Every sequence is priced on a fresh device state and
/// its logits compared bit for bit with the reference; a differing
/// result, or a simulated figure that differs from the same sequence's
/// earlier run, counts as a failure. Each sequence is bracketed by
/// yardstick readings on its CPU, which scale its host time (and, with
/// `trace`, its stamped phase times) to the reference host.
pub fn measure(
    p: &mut Prepared,
    device: &DeviceModel,
    yard: &mut Yardstick,
    seconds: f64,
    mut trace: Option<&mut TraceFile>,
    first_id: u64,
) -> Measured {
    let wl = &p.workload;
    let net = wl.network();
    let eval = wl.eval_set();
    let mut gpu = GpuDevice::for_model(device);
    let cpus = host::CpuRotation::new();
    let mut m = Measured {
        sims: vec![None; eval.len()],
        phase_sim_s: vec![None; eval.len()],
        ..Measured::default()
    };
    let start = Instant::now();
    let mut i = 0usize;
    // At least one pass over the evaluation set, so the simulated
    // figures cover every sequence and repeat exactly.
    while i < eval.len() || start.elapsed().as_secs_f64() < seconds {
        let k = i % eval.len();
        let xs = &eval[k];
        cpus.pin(i);
        let before_ms = yard.read_ms();
        let t0 = Instant::now();
        gpu.reset();
        let mut session = gpu.begin_trace();
        let mut totals = PhaseTotals::default();
        let report = match trace.as_deref_mut() {
            None => {
                p.runtime
                    .run_lstm_into(&p.plan, net, xs, &mut session, &mut p.out);
                session.finish()
            }
            Some(tf) => {
                session.enable_profiling();
                session.set_device_tag(device.span_name());
                let id = first_id + i as u64;
                let root = tf.log.open(format!("seq {id}"), id, None);
                let mut sink = PhaseSink::new(session, Some((&mut tf.log, root)));
                p.runtime
                    .run_lstm_into(&p.plan, net, xs, &mut sink, &mut p.out);
                let (phase_totals, mut session) = sink.finish();
                tf.log.close(root);
                totals = phase_totals;
                let profile = session.take_profiler().expect("profiling enabled");
                let mut sim = [0.0; 3];
                for span in profile.spans() {
                    sim[phase_index(span.tag.phase)] += span.time_s;
                }
                m.phase_sim_s[k].get_or_insert(sim);
                tf.add_profile(id, &profile);
                session.finish()
            }
        };
        let host_ms = t0.elapsed().as_secs_f64() * 1e3;
        let scale = yardstick::scale(before_ms, yard.read_ms());
        m.wall_ms.push(host_ms);
        m.samples_ms.push(host_ms * scale);
        m.phases.add(&totals.scaled(scale));
        let sim = SimSeq {
            time_s: report.time_s,
            energy_j: report.energy.total_j(),
            launches: report.launches,
            dram_bytes: report.dram_bytes(),
            dram_read_bytes: report.dram_read_bytes,
            l2_hit_bytes: report.l2_hit_bytes,
            stall_onchip_s: report.stall.on_chip_s,
            stall_offchip_s: report.stall.off_chip_s,
        };
        let repeat_ok = match m.sims[k] {
            None => {
                m.sims[k] = Some(sim);
                true
            }
            Some(first) => first == sim,
        };
        if !repeat_ok || bits(&p.out) != p.reference[k] {
            m.failed += 1;
        }
        i += 1;
    }
    m
}

/// Max-abs logit error of each evaluation sequence's reference output
/// against `plan`.
fn errors_against(p: &Prepared, plan: &ExecutionPlan) -> Vec<f64> {
    let net = p.workload.network();
    let mut runtime = PlanRuntime::new();
    p.workload
        .eval_set()
        .iter()
        .zip(&p.reference)
        .map(|(xs, reference)| {
            let out = runtime.run_lstm(plan, net, xs, &mut NullSink);
            out.logits
                .as_slice()
                .iter()
                .zip(reference)
                .map(|(a, b)| f64::from((a - f32::from_bits(*b)).abs()))
                .fold(0.0, f64::max)
        })
        .collect()
}

/// Quantization error of each evaluation sequence: the max-abs logit
/// difference between the plan at its precision and the same plan run
/// in fp32, which isolates the weight tier from the scheme's own
/// approximations. Empty for fp32 plans, which [`measure`] holds to bit
/// identity instead. Also returns the largest difference from the exact
/// fp32 baseline network (tier plus scheme), for the report.
pub fn logit_errors(p: &Prepared, device: &DeviceModel) -> (Vec<f64>, f64) {
    if !p.plan.precision.is_quantized() {
        return (Vec::new(), 0.0);
    }
    let mut fp32 = p.plan.clone();
    fp32.precision = Precision::Fp32;
    let quant = errors_against(p, &fp32);
    let wl = &p.workload;
    let exact = ExecutionPlan::compile_baseline(wl.network(), wl.spec().seq_len, device);
    let total = errors_against(p, &exact).into_iter().fold(0.0, f64::max);
    (quant, total)
}

/// Measured runs of sequences whose logit error breaks the int8 bound;
/// each is a failed operation.
pub fn bound_violations(errors: &[f64], m: &Measured) -> u64 {
    if errors.is_empty() {
        return 0;
    }
    (0..m.samples_ms.len())
        .filter(|i| errors[i % errors.len()] > INT8_LOGIT_BOUND)
        .count() as u64
}

/// Simulated, tensor and memlstm figures of the workload (identical on
/// every run at a fixed seed).
pub fn fixed_metrics(p: &Prepared, m: &Measured, metrics: &mut Metrics) {
    let sims: Vec<SimSeq> = m.sims.iter().flatten().copied().collect();
    let n = sims.len() as f64;
    let mean = |f: fn(&SimSeq) -> f64| sims.iter().map(f).sum::<f64>() / n;
    metrics.set("sim_ms_per_seq", mean(|s| s.time_s) * 1e3);
    metrics.set("sim_mj_per_seq", mean(|s| s.energy_j) * 1e3);
    metrics.set("gpu_sim.kernels_per_seq", mean(|s| s.launches as f64));
    metrics.set(
        "gpu_sim.dram_mb_per_seq",
        mean(|s| s.dram_bytes as f64) / 1e6,
    );
    let hits: f64 = sims.iter().map(|s| s.l2_hit_bytes as f64).sum();
    let misses: f64 = sims.iter().map(|s| s.dram_read_bytes as f64).sum();
    metrics.set("gpu_sim.l2_hit_frac", hits / (hits + misses));
    metrics.set("gpu_sim.stall_onchip_ms", mean(|s| s.stall_onchip_s) * 1e3);
    metrics.set(
        "gpu_sim.stall_offchip_ms",
        mean(|s| s.stall_offchip_s) * 1e3,
    );
    metrics.set("teacher_match", p.teacher_match);
    metrics.set("memlstm.skip_frac", p.skip_frac);
    metrics.set("memlstm.mean_tissue", p.mean_tissue);

    // Gate-weight bytes the host kernels stream per sequence at the
    // plan's precision: W once per layer (batched Wx), U once per cell,
    // less the f/i/c rows Dynamic Row Skip leaves out.
    let config = &p.workload.network().config();
    let seq_len = p.plan.seq_len as f64;
    let precision = p.plan.precision;
    let bytes: f64 = (0..config.num_layers)
        .map(|l| {
            precision.scale_bytes(config.united_w_bytes(l)) as f64
                + seq_len
                    * precision.scale_bytes(config.united_u_bytes()) as f64
                    * (1.0 - 0.75 * p.skip_frac)
        })
        .sum();
    metrics.set("tensor.weight_mb_per_seq", bytes / 1e6);
}

/// Host per-layer figures of a traced phase.
pub fn traced_metrics(m: &Measured, metrics: &mut Metrics) {
    let n = m.samples_ms.len() as f64;
    let [wx, cells, head] = m.phases.self_s;
    metrics.set("lstm.wx_ms", wx / n * 1e3);
    metrics.set("lstm.cells_ms", cells / n * 1e3);
    metrics.set("lstm.head_ms", head / n * 1e3);
    metrics.set("lstm.wx_share", wx / (wx + cells + head + m.phases.price_s));
    metrics.set("gpu_sim.price_ms", m.phases.price_s / n * 1e3);
    metrics.set("tensor.wx_gflops", m.phases.flops[0] as f64 / wx / 1e9);
    metrics.set(
        "tensor.cells_gflops",
        m.phases.flops[1] as f64 / cells / 1e9,
    );
    let sims: Vec<[f64; 3]> = m.phase_sim_s.iter().flatten().copied().collect();
    let per_seq = |phase: usize| sims.iter().map(|s| s[phase]).sum::<f64>() / sims.len() as f64;
    metrics.set("gpu_sim.wx_sim_ms", per_seq(0) * 1e3);
    metrics.set("gpu_sim.cells_sim_ms", per_seq(1) * 1e3);
}
