//! Host-clock instrumentation wrapped around the runtime from outside.
//!
//! [`PhaseSink`] sits between `PlanRuntime` and a pricing
//! `TraceSession`. The runtime announces every phase through
//! `KernelSink::tag` before it runs that phase's numerics, so stamping
//! the host clock at each tag transition splits a sequence into Wx,
//! cell and head intervals with no instrumentation inside the program.
//! Time spent inside `emit` is pricing (the `gpu-sim` layer) and is
//! subtracted from the phase it interrupts, giving each phase's self
//! time.
//!
//! [`SpanLog`] keeps the resulting host spans in memory; at the end of a
//! traced run it is written as one Chrome trace beside the simulated
//! `gpu-sim` profiler spans, as two processes.

use gpu_sim::profile::{ArgValue, ChromeTrace, Phase};
use gpu_sim::{KernelDesc, Profiler, SpanTag};
use lstm::plan::KernelSink;
use std::time::Instant;

/// Host phases a sequence is split into.
pub const PHASES: [&str; 3] = ["wx", "cells", "head"];

/// Index into [`PHASES`] of a runtime phase. Tissue rounds and the
/// runtime's link-search kernels belong to the recurrent body.
pub fn phase_index(phase: Phase) -> usize {
    match phase {
        Phase::Wx => 0,
        Phase::Head => 2,
        _ => 1,
    }
}

/// One host span. `parent` indexes the same log; spans of one sequence
/// or request share `id`.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub name: String,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    /// Host microseconds spent pricing inside this span.
    pub price_us: f64,
}

/// In-memory host span log with one epoch for the whole run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<HostSpan>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span now and returns its index.
    pub fn open(&mut self, name: impl Into<String>, id: u64, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.spans.push(HostSpan {
            name: name.into(),
            id,
            parent,
            start_us: now,
            end_us: now,
            price_us: 0.0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_us = self.now_us();
    }

    /// Records a root span that started at `start_us` and ends now.
    pub fn record(&mut self, name: impl Into<String>, id: u64, start_us: f64) -> usize {
        let index = self.open(name, id, None);
        self.spans[index].start_us = start_us;
        index
    }
}

/// Per-phase host totals accumulated by a [`PhaseSink`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    /// Self seconds per phase (pricing excluded), indexed like [`PHASES`].
    pub self_s: [f64; 3],
    /// Host seconds spent pricing emitted kernels.
    pub price_s: f64,
    /// Flops of the emitted kernels per phase.
    pub flops: [u64; 3],
}

impl PhaseTotals {
    pub fn add(&mut self, other: &PhaseTotals) {
        for (acc, v) in self.self_s.iter_mut().zip(other.self_s) {
            *acc += v;
        }
        for (acc, v) in self.flops.iter_mut().zip(other.flops) {
            *acc += v;
        }
        self.price_s += other.price_s;
    }

    /// The same totals with every time multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> PhaseTotals {
        PhaseTotals {
            self_s: self.self_s.map(|t| t * factor),
            price_s: self.price_s * factor,
            flops: self.flops,
        }
    }
}

/// Wraps a pricing sink, stamping the host clock at tag transitions and
/// around each forwarded `emit`. With a span log it also records one
/// span per contiguous phase interval, as children of `parent`.
pub struct PhaseSink<'a, S: KernelSink> {
    inner: S,
    totals: PhaseTotals,
    phase: usize,
    mark: Instant,
    price_in_phase: f64,
    log: Option<(&'a mut SpanLog, usize)>,
    open_span: Option<usize>,
}

impl<'a, S: KernelSink> PhaseSink<'a, S> {
    pub fn new(inner: S, log: Option<(&'a mut SpanLog, usize)>) -> Self {
        Self {
            inner,
            totals: PhaseTotals::default(),
            phase: 0,
            mark: Instant::now(),
            price_in_phase: 0.0,
            log,
            open_span: None,
        }
    }

    fn close_phase(&mut self, now: Instant) {
        let wall = now.duration_since(self.mark).as_secs_f64();
        self.totals.self_s[self.phase] += wall - self.price_in_phase;
        if let (Some((log, _)), Some(span)) = (self.log.as_mut(), self.open_span.take()) {
            log.close(span);
            log.spans[span].price_us = self.price_in_phase * 1e6;
        }
        self.price_in_phase = 0.0;
        self.mark = now;
    }

    /// Closes the last phase and returns the totals and the inner sink.
    pub fn finish(mut self) -> (PhaseTotals, S) {
        self.close_phase(Instant::now());
        (self.totals, self.inner)
    }
}

impl<S: KernelSink> KernelSink for PhaseSink<'_, S> {
    fn begin_layer(&mut self, layer: usize) {
        self.inner.begin_layer(layer);
    }

    fn begin_tail(&mut self) {
        self.inner.begin_tail();
    }

    fn tag(&mut self, tag: SpanTag) {
        let phase = phase_index(tag.phase);
        // Every layer starts with Wx after the previous layer's cells, so
        // a phase change also marks each layer boundary.
        if phase != self.phase || (self.log.is_some() && self.open_span.is_none()) {
            self.close_phase(Instant::now());
            self.phase = phase;
            if let Some((log, parent)) = self.log.as_mut() {
                let id = log.spans[*parent].id;
                let name = match tag.layer {
                    Some(l) => format!("L{l}/{}", PHASES[phase]),
                    None => PHASES[phase].to_owned(),
                };
                self.open_span = Some(log.open(name, id, Some(*parent)));
            }
        }
        self.inner.tag(tag);
    }

    fn emit(&mut self, kernel: &KernelDesc) {
        self.totals.flops[self.phase] += kernel.flops;
        let t0 = Instant::now();
        self.inner.emit(kernel);
        let dt = t0.elapsed().as_secs_f64();
        self.totals.price_s += dt;
        self.price_in_phase += dt;
    }
}

/// One Chrome trace in the making: host spans stay in a [`SpanLog`]
/// until the end of the run; simulated spans are added to the trace as
/// each sequence or round completes.
pub struct TraceFile {
    pub log: SpanLog,
    sim: ChromeTrace,
    sim_offset_us: f64,
}

/// Process ids of the two clocks in the trace.
const HOST_PID: u32 = 1;
const SIM_PID: u32 = 2;

impl TraceFile {
    pub fn new() -> Self {
        let mut sim = ChromeTrace::new();
        sim.add_process_name(SIM_PID, "gpu-sim (simulated time)");
        Self {
            log: SpanLog::new(),
            sim,
            sim_offset_us: 0.0,
        }
    }

    /// Appends one sequence's simulated kernel spans, laid end to end
    /// after the previous sequence's.
    pub fn add_profile(&mut self, id: u64, profile: &Profiler) {
        for span in profile.spans() {
            let args = [
                ("id", ArgValue::Int(id as i64)),
                ("phase", ArgValue::Str(span.tag.label())),
                (
                    "stall_on_chip_us",
                    ArgValue::Num(span.stall.on_chip_s * 1e6),
                ),
                (
                    "stall_off_chip_us",
                    ArgValue::Num(span.stall.off_chip_s * 1e6),
                ),
                (
                    "dram_read_bytes",
                    ArgValue::Int(span.dram_read_bytes as i64),
                ),
                ("flops", ArgValue::Int(span.flops as i64)),
            ];
            self.sim.add_span(
                SIM_PID,
                0,
                &span.label,
                span.tag.phase.name(),
                self.sim_offset_us + span.start_s * 1e6,
                span.time_s * 1e6,
                &args,
            );
        }
        self.sim_offset_us += profile.total_s() * 1e6;
    }

    /// Adds one simulated serving round on device lane `device`.
    pub fn add_round(&mut self, device: u32, id: u64, start_s: f64, time_s: f64, batch: usize) {
        self.sim.add_span(
            SIM_PID,
            device,
            "round",
            "serve",
            start_s * 1e6,
            time_s * 1e6,
            &[
                ("id", ArgValue::Int(id as i64)),
                ("batch", ArgValue::Int(batch as i64)),
            ],
        );
    }

    /// Finishes the trace: host spans become process 1, beside the
    /// simulated process 2.
    pub fn into_chrome(self, host_facts: &str) -> ChromeTrace {
        let mut t = self.sim;
        t.add_process_name(HOST_PID, &format!("host (wall clock; {host_facts})"));
        t.add_thread_name(HOST_PID, 0, "benchmark thread");
        for (i, s) in self.log.spans.iter().enumerate() {
            let mut args = vec![
                ("id", ArgValue::Int(s.id as i64)),
                ("span", ArgValue::Int(i as i64)),
                ("price_us", ArgValue::Num(s.price_us)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", ArgValue::Int(p as i64)));
            }
            let category = s.name.rsplit('/').next().unwrap_or("span");
            t.add_span(
                HOST_PID,
                0,
                &s.name,
                category,
                s.start_us,
                s.end_us - s.start_us,
                &args,
            );
        }
        t
    }
}
