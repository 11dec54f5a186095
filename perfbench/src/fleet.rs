//! The serve workload: an open-loop trace of short MR requests routed by
//! `Affinity` across a heterogeneous fleet and served in `BatchRuntime`
//! gangs.
//!
//! The trace is open loop on the simulated clock (arrivals follow a
//! seeded exponential schedule whatever the fleet does) and closed loop
//! on the host clock (the host runs rounds as fast as it can). A fixed
//! trace is replayed again and again during the measured phase, so every
//! simulated figure repeats exactly while the host clock is sampled many
//! times.

use crate::host;
use crate::report::Metrics;
use crate::trace::TraceFile;
use crate::yardstick::{self, Yardstick};
use crate::SetupTimes;
use gpu_sim::DeviceModel;
use lstm::plan::{ExecutionPlan, NullSink, PlanRuntime};
use memlstm::fleet::{Affinity, FleetEngine, FleetMetrics};
use memlstm::serve::{
    FaultPlan, Request, RoundReport, ServeConfig, ServeMetrics, ServeOutcome, ShedReason,
    SheddingPolicy,
};
use rand::Rng;
use std::collections::HashMap;
use std::time::Instant;
use tensor::init::seeded_rng;
use tensor::Vector;
use workloads::{Benchmark, Workload};

/// Distinct request payloads.
const EVAL_N: usize = 24;
/// Requests per replay of the trace.
const REQUESTS: usize = 240;
/// Gang size cap per round.
const MAX_BATCH: usize = 4;
// Traffic is calibrated to the solo round time `round_s`: the simulated
// time the lead device (`devices()[0]`) takes to serve one request alone,
// as the repository's fleet bench (`crates/bench/src/bin/fleet.rs`) does.
/// Offered load: the mean arrival gap is `round_s / (LOAD_PER_DEVICE *
/// devices)`, two solo rounds' worth of requests per device per round,
/// which keeps the whole fleet busy with gangs forming.
const LOAD_PER_DEVICE: f64 = 2.0;
/// Rates the `max_rate_rps` sweep tries, as multiples of the offered
/// rate, ascending.
const RATE_LADDER: [f64; 6] = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0];
/// Relative deadlines per request class (`id % 4`), in solo rounds;
/// class 0 has none.
const DEADLINE_ROUNDS: [Option<f64>; 4] = [None, Some(1.5), Some(4.0), Some(12.0)];
/// The sweep's p99 latency limit, in solo rounds: the loosest deadline.
const P99_LIMIT_ROUNDS: f64 = 12.0;
/// Share of execution attempts that raise a transient fault. Faults are
/// never scheduled on two consecutive attempts, so one retry always
/// absorbs them and no request ends `Failed`.
const FAULT_RATE: f64 = 0.05;

/// The fleet: every device preset once.
fn devices() -> Vec<DeviceModel> {
    vec![
        DeviceModel::tegra_x1(),
        DeviceModel::tegra_x2(),
        DeviceModel::adreno_5xx(),
        DeviceModel::tegra_x1_2x(),
    ]
}

/// Seeded arrival times at `rate_rps`, in submission order.
fn arrivals(seed: u64, rate_rps: f64) -> Vec<f64> {
    let mut rng = seeded_rng(seed ^ 0xA881_7A15);
    let mut clock = 0.0;
    (0..REQUESTS)
        .map(|_| {
            clock += -f64::ln(1.0 - rng.gen::<f64>()) / rate_rps;
            clock
        })
        .collect()
}

/// Seeded fault schedule for device `index`: attempts fault with
/// probability [`FAULT_RATE`], never two in a row.
fn faults(seed: u64, index: usize) -> FaultPlan {
    let mut rng = seeded_rng(seed ^ 0xFA17 ^ ((index as u64) << 32));
    let mut last = None;
    let attempts: Vec<u64> = (0..4 * REQUESTS as u64)
        .filter(|&a| {
            let hit = rng.gen::<f64>() < FAULT_RATE && last != Some(a.wrapping_sub(1));
            if hit {
                last = Some(a);
            }
            hit
        })
        .collect();
    FaultPlan::at_attempts(attempts)
}

/// Everything set-up produces.
pub struct Prepared {
    workload: Workload,
    plans: Vec<ExecutionPlan>,
    seed: u64,
    /// Simulated seconds the lead device takes to serve one request
    /// alone.
    round_s: f64,
    trace: Vec<f64>,
    /// Solo-run reference logits per payload, as bit patterns.
    reference: Vec<Vec<u32>>,
    /// The exact network's final label per payload.
    teacher: Vec<usize>,
    /// Simulated outcome of the warm-up replay; every measured replay
    /// must reproduce it exactly.
    expected: Replay,
    pub times: SetupTimes,
}

/// Simulated results of one replay (host timings kept apart).
#[derive(Debug, Clone, Default, PartialEq)]
struct Replay {
    /// Per request: `Some(latency_s)` when served, `None` when shed or
    /// failed.
    latency_s: Vec<Option<f64>>,
    queue_wait_s: Vec<f64>,
    exec_s: Vec<f64>,
    rounds: Vec<(usize, RoundReport)>,
    metrics: Option<FleetMetrics>,
    /// Requests whose outcome was missing, duplicated, `Failed`,
    /// refused, or whose logits differ from the solo reference.
    failed: u64,
    teacher_hits: u64,
}

/// Host timings of one replay.
#[derive(Debug, Default)]
struct HostTimes {
    /// Per request served: its share of its round's host time (routing
    /// of the arrivals before the round included).
    request_ms: Vec<f64>,
    step_ms: Vec<f64>,
    route_us: Vec<f64>,
}

impl HostTimes {
    /// Appends `other` with every time multiplied by `factor`.
    fn extend_scaled(&mut self, other: &HostTimes, factor: f64) {
        let scaled = |xs: &[f64]| xs.iter().map(|x| x * factor).collect::<Vec<_>>();
        self.request_ms.extend(scaled(&other.request_ms));
        self.step_ms.extend(scaled(&other.step_ms));
        self.route_us.extend(scaled(&other.route_us));
    }
}

fn bits(v: &Vector) -> Vec<u32> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn argmax(v: &Vector) -> usize {
    v.as_slice()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Replays `trace` once on a fresh fleet, checking every outcome.
fn replay(
    p: &Prepared,
    trace_times: &[f64],
    mut host: Option<&mut HostTimes>,
    mut tf: Option<&mut TraceFile>,
    id_base: u64,
) -> Replay {
    let wl = &p.workload;
    let members = p
        .plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let config = ServeConfig::builder(plan.device.clone())
                .with_max_batch(MAX_BATCH)
                .with_queue_capacity(REQUESTS)
                .with_shedding(SheddingPolicy::expired())
                .with_faults(faults(p.seed, i))
                .with_max_retries(2)
                .build()
                .expect("serve config is valid");
            (plan, config)
        })
        .collect();
    let mut fleet = FleetEngine::new(wl.network(), members, Box::new(Affinity))
        .expect("plans share the network and sequence length");
    let payloads = wl.eval_set();
    let mut out = Replay::default();
    // Outcomes per id; a refused submit resolves its id as a failure.
    let mut seen = vec![0u32; trace_times.len()];
    let mut next = 0usize;
    let mut mark = Instant::now();
    // Each replay builds a fresh fleet, so every member's first round
    // allocates its batch workspaces (and, after a CPU switch, refills
    // caches). A serving process pays that once; the benchmark pays it
    // per replay, so those rounds are left out of the host samples.
    let mut warm = vec![false; p.plans.len()];
    loop {
        // Submit every request that has arrived by the fleet's clock;
        // when the fleet is idle, the next arrival advances it.
        while next < trace_times.len()
            && (trace_times[next] <= fleet.clock_s() || fleet.pending() == 0)
        {
            let id = next as u64;
            let arrival_s = trace_times[next];
            let request = Request {
                id,
                xs: payloads[next % payloads.len()].clone(),
                arrival_s,
                deadline_s: DEADLINE_ROUNDS[next % 4].map(|d| arrival_s + d * p.round_s),
            };
            let start_us = tf.as_deref().map(|tf| tf.log.now_us());
            let t0 = Instant::now();
            let routed = fleet.submit(request);
            if let Some(h) = host.as_deref_mut() {
                h.route_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            if let (Some(tf), Some(start_us)) = (tf.as_deref_mut(), start_us) {
                tf.log.record("route", id_base + id, start_us);
            }
            if routed.is_err() {
                out.failed += 1;
                seen[next] += 1;
            }
            next += 1;
        }
        let start_us = tf.as_deref().map(|tf| tf.log.now_us());
        let t0 = Instant::now();
        let Some((device, report)) = fleet.step() else {
            if next == trace_times.len() {
                break;
            }
            continue;
        };
        let now = Instant::now();
        if let (Some(h), true) = (host.as_deref_mut(), warm[device]) {
            h.step_ms.push(now.duration_since(t0).as_secs_f64() * 1e3);
            // The round's host time, routing of its arrivals included, is
            // shared by its gang: one sample per request served.
            let per_request = now.duration_since(mark).as_secs_f64() * 1e3 / report.batch as f64;
            h.request_ms
                .extend(std::iter::repeat_n(per_request, report.batch));
        }
        mark = now;
        warm[device] = true;
        if let (Some(tf), Some(start_us)) = (tf.as_deref_mut(), start_us) {
            let id = id_base + out.rounds.len() as u64;
            tf.log
                .record(format!("round/device {device}"), id, start_us);
            tf.add_round(
                device as u32,
                id,
                report.start_s,
                report.time_s,
                report.batch,
            );
        }
        out.rounds.push((device, report));
    }
    let outcomes = fleet.drain();

    // Conservation: every submitted id resolves exactly once.
    out.latency_s = vec![None; trace_times.len()];
    let round_of: HashMap<u64, (f64, f64)> = out
        .rounds
        .iter()
        .flat_map(|(_, r)| r.ids.iter().map(move |&id| (id, (r.start_s, r.time_s))))
        .collect();
    for o in &outcomes {
        let id = o.outcome.id() as usize;
        match seen.get_mut(id) {
            Some(n) => *n += 1,
            None => {
                out.failed += 1;
                continue;
            }
        }
        match &o.outcome {
            ServeOutcome::Completed(c) | ServeOutcome::DeadlineMiss(c) => {
                let k = id % payloads.len();
                if bits(&c.logits) != p.reference[k] {
                    out.failed += 1;
                }
                if argmax(&c.logits) == p.teacher[k] {
                    out.teacher_hits += 1;
                }
                out.latency_s[id] = Some(c.latency_s);
                if let Some(&(start_s, time_s)) = round_of.get(&c.id) {
                    out.queue_wait_s.push(start_s - c.arrival_s);
                    out.exec_s.push(time_s);
                }
            }
            ServeOutcome::Failed(_) => out.failed += 1,
            ServeOutcome::Shed(s) if s.reason == ShedReason::Overflow => out.failed += 1,
            ServeOutcome::Shed(_) => {}
        }
    }
    out.failed += seen.iter().filter(|&&n| n != 1).count() as u64;
    out.metrics = Some(fleet.metrics());
    out
}

/// Simulated seconds `plan`'s device takes to serve one request alone.
fn solo_round_s(workload: &Workload, plan: &ExecutionPlan) -> f64 {
    let config = ServeConfig::builder(plan.device.clone())
        .build()
        .expect("serve config is valid");
    let mut fleet = FleetEngine::new(workload.network(), vec![(plan, config)], Box::new(Affinity))
        .expect("one plan");
    let request = Request {
        id: 0,
        xs: workload.eval_set()[0].clone(),
        arrival_s: 0.0,
        deadline_s: None,
    };
    fleet.submit(request).expect("an idle fleet admits");
    while fleet.step().is_some() {}
    fleet.drain();
    fleet.metrics().makespan_s
}

/// Offered rate of the measured trace, simulated requests per second.
fn offered_rps(round_s: f64) -> f64 {
    LOAD_PER_DEVICE * devices().len() as f64 / round_s
}

/// Generates the MR workload, compiles one baseline plan per device,
/// computes the solo reference logits, and warms the serving path with
/// one full replay (which also fixes the expected simulated outcome).
pub fn prepare(seed: u64) -> Prepared {
    let t0 = Instant::now();
    let workload = crate::seeded_workload(Benchmark::Mr, EVAL_N, seed);
    let t_generated = Instant::now();
    let seq_len = workload.spec().seq_len;
    let plans: Vec<ExecutionPlan> = devices()
        .iter()
        .map(|d| ExecutionPlan::compile_baseline(workload.network(), seq_len, d))
        .collect();
    let round_s = solo_round_s(&workload, &plans[0]);
    let t_compiled = Instant::now();
    let mut runtime = PlanRuntime::new();
    let reference = workload
        .eval_set()
        .iter()
        .map(|xs| {
            bits(
                &runtime
                    .run_lstm(&plans[0], workload.network(), xs, &mut NullSink)
                    .logits,
            )
        })
        .collect();
    let mut p = Prepared {
        teacher: workload.teacher_final_labels(),
        workload,
        plans,
        seed,
        round_s,
        trace: arrivals(seed, offered_rps(round_s)),
        reference,
        expected: Replay::default(),
        times: SetupTimes {
            generate_s: t_generated.duration_since(t0).as_secs_f64(),
            compile_s: t_compiled.duration_since(t_generated).as_secs_f64(),
            ..SetupTimes::default()
        },
    };
    p.expected = replay(&p, &p.trace, None, None, 0);
    let t_warm = Instant::now();
    p.times.warmup_s = t_warm.duration_since(t_compiled).as_secs_f64();
    p.times.total_s = t_warm.duration_since(t0).as_secs_f64();
    p
}

/// Host observations of a measured phase, on the reference-host scale
/// (see `yardstick`) unless named `wall`.
#[derive(Debug, Default)]
pub struct Measured {
    times: HostTimes,
    /// Per request served, as the wall clock read it.
    pub wall_request_ms: Vec<f64>,
    pub served: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Time spent replaying.
    pub busy_s: f64,
    pub replays: u64,
}

impl Measured {
    /// Requests served per reference-host second of replaying.
    pub fn seq_per_s(&self) -> f64 {
        self.served as f64 / self.busy_s
    }

    pub fn request_ms(&self) -> &[f64] {
        &self.times.request_ms
    }

    /// Pools a later phase into this one.
    pub fn absorb(&mut self, other: Measured) {
        self.times.extend_scaled(&other.times, 1.0);
        self.wall_request_ms.extend(other.wall_request_ms);
        self.served += other.served;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy_s += other.busy_s;
        self.replays += other.replays;
    }
}

/// Replays the trace until `seconds` have passed (at least once). A
/// replay whose simulated outcome differs from the warm-up replay counts
/// every one of its requests as failed.
pub fn measure(
    p: &Prepared,
    yard: &mut Yardstick,
    seconds: f64,
    mut tf: Option<&mut TraceFile>,
    first_replay: u64,
) -> Measured {
    let mut m = Measured::default();
    let cpus = host::CpuRotation::new();
    let start = Instant::now();
    let mut replays = 0u64;
    while replays == 0 || start.elapsed().as_secs_f64() < seconds {
        cpus.pin(replays as usize);
        let id_base = (first_replay + replays) * 1_000_000;
        let mut times = HostTimes::default();
        let before_ms = yard.read_ms();
        let t0 = Instant::now();
        let r = replay(p, &p.trace, Some(&mut times), tf.as_deref_mut(), id_base);
        let busy_s = t0.elapsed().as_secs_f64();
        let scale = yardstick::scale(before_ms, yard.read_ms());
        m.times.extend_scaled(&times, scale);
        m.wall_request_ms.extend(times.request_ms);
        m.busy_s += busy_s * scale;
        m.attempted += REQUESTS as u64;
        m.served += r.latency_s.iter().flatten().count() as u64;
        m.failed += if r == p.expected {
            r.failed
        } else {
            REQUESTS as u64
        };
        replays += 1;
    }
    m.replays = replays;
    m
}

/// Simulated p99 latency of a replay, counting unserved requests as
/// missing any limit.
fn p99_ms(r: &Replay) -> f64 {
    let lat: Vec<f64> = r
        .latency_s
        .iter()
        .map(|l| l.map_or(f64::INFINITY, |s| s * 1e3))
        .collect();
    host::percentile(&lat, 99.0)
}

/// The highest ladder rate whose p99 stays within [`P99_LIMIT_ROUNDS`] with
/// no growing backlog: the fleet must finish within the limit after the
/// last arrival. 0 when no rate qualifies.
fn max_rate_rps(p: &Prepared) -> f64 {
    let offered = offered_rps(p.round_s);
    let limit_ms = P99_LIMIT_ROUNDS * p.round_s * 1e3;
    RATE_LADDER
        .iter()
        .map(|m| m * offered)
        .filter(|&rate| {
            let times = arrivals(p.seed, rate);
            let r = replay(p, &times, None, None, 0);
            let last_arrival = times.last().copied().unwrap_or(0.0);
            let makespan = r
                .rounds
                .iter()
                .map(|(_, rr)| rr.start_s + rr.time_s)
                .fold(0.0, f64::max);
            let drain_ms = (makespan - last_arrival) * 1e3;
            let ok = p99_ms(&r) <= limit_ms && drain_ms <= limit_ms;
            let fm = r.metrics.as_ref().expect("replay records fleet metrics");
            eprintln!(
                "[perfbench] offered {rate:.0} rps: p99 {:.3} ms, drain after last arrival {drain_ms:.3} ms, slo {:.3}{}",
                p99_ms(&r),
                fm.slo_attainment,
                if ok { "" } else { " (over the limit)" }
            );
            ok
        })
        .fold(0.0, f64::max)
}

/// Simulated and count figures of the workload (identical on every run
/// at a fixed seed), plus the sweep for `max_rate_rps`.
pub fn fixed_metrics(p: &Prepared, metrics: &mut Metrics) {
    let r = &p.expected;
    let served: Vec<f64> = r.latency_s.iter().flatten().map(|s| s * 1e3).collect();
    let busy_s: f64 = r.rounds.iter().map(|(_, rr)| rr.time_s).sum();
    let gangs: usize = r.rounds.iter().map(|(_, rr)| rr.batch).sum();
    let mean_gang = gangs as f64 / r.rounds.len() as f64;
    metrics.set("sim_ms_per_seq", busy_s * 1e3 / served.len() as f64);
    metrics.set("teacher_match", r.teacher_hits as f64 / served.len() as f64);
    metrics.set("serve_p50_ms", host::percentile(&served, 50.0));
    metrics.set("serve_p99_ms", p99_ms(r));
    let fm = r.metrics.as_ref().expect("replay records fleet metrics");
    metrics.set("slo_attainment", fm.slo_attainment);
    eprintln!(
        "[perfbench] solo round {:.3} ms; offered {:.0} rps; fleet busy {:.3} of its time; slo {:.3}",
        p.round_s * 1e3,
        offered_rps(p.round_s),
        busy_s / (devices().len() as f64 * fm.makespan_s),
        fm.slo_attainment
    );
    metrics.set("max_rate_rps", max_rate_rps(p));
    metrics.set("serve.mean_gang", mean_gang);
    let waits: Vec<f64> = r.queue_wait_s.iter().map(|s| s * 1e3).collect();
    let execs: Vec<f64> = r.exec_s.iter().map(|s| s * 1e3).collect();
    metrics.set("serve.queue_wait_ms_p99", host::percentile(&waits, 99.0));
    metrics.set("serve.exec_ms_p50", host::percentile(&execs, 50.0));
    let sum = |f: fn(&ServeMetrics) -> u64| fm.per_device.iter().map(|d| f(&d.serve)).sum::<u64>();
    let (retries, faults, rounds) = (sum(|s| s.retries), sum(|s| s.faults), sum(|s| s.rounds));
    metrics.set("serve.retries", retries as f64);
    let attempts = (rounds + retries) as f64;
    metrics.set(
        "serve.attempt_success_frac",
        (attempts - faults as f64) / attempts,
    );
    metrics.set("fleet.rerouted", fm.rerouted as f64);
    metrics.set("fleet.util_imbalance", fm.utilization_imbalance);

    // Gate weights streamed per served request: W and U once per gang
    // timestep, shared by the gang.
    let config = p.workload.network().config();
    let seq_len = config.seq_len as f64;
    let bytes: f64 = (0..config.num_layers)
        .map(|l| config.united_w_bytes(l) as f64 + seq_len * config.united_u_bytes() as f64)
        .sum();
    metrics.set("tensor.weight_mb_per_seq", bytes / mean_gang / 1e6);
}

/// Host per-layer figures of a traced phase.
pub fn traced_metrics(m: &Measured, metrics: &mut Metrics) {
    metrics.set("serve.step_ms_p50", host::median(&m.times.step_ms));
    metrics.set("fleet.route_us_p50", host::median(&m.times.route_us));
}
