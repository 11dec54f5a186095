//! Metric definitions and the result line.
//!
//! The two tables below mirror `end_to_end` and `per_layer` in
//! `BENCHMARK.json`; `perfbench/steady.py` checks that every run prints
//! exactly these names.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Host time of the real f32/int8 engine: the wall clock, scaled to
    /// the reference host by the yardstick (see `yardstick`) unless the
    /// metric's name says `wall`.
    Host,
    /// Simulated device time (or a figure derived from simulated state).
    Sim,
    /// A count or ratio that involves no clock.
    None,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "simulated",
            Clock::None => "-",
        }
    }
}

/// One reported metric.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock) -> Def {
    Def { name, unit, clock }
}

/// Printed by untraced runs (`--trace 0`). Every one applies to every
/// workload and is never 0.
pub const END_TO_END: &[Def] = &[
    def("host_seq_per_s", "1/s", Clock::Host),
    def("host_ms_p50", "ms", Clock::Host),
    def("host_ms_tail", "ms", Clock::Host),
    def("setup_s", "s", Clock::Host),
    def("peak_rss_mb", "MB", Clock::Host),
];

/// Printed by traced runs (`--trace 1`). A metric that does not apply to
/// a workload reads 0 there (see NOTES.md for the table).
pub const PER_LAYER: &[Def] = &[
    // End-to-end figures that repeat exactly at a fixed seed, or exist
    // only on some workloads.
    def("sim_ms_per_seq", "ms", Clock::Sim),
    def("sim_mj_per_seq", "mJ", Clock::Sim),
    def("teacher_match", "frac", Clock::None),
    def("failed_frac", "frac", Clock::None),
    def("serve_p50_ms", "ms", Clock::Sim),
    def("serve_p99_ms", "ms", Clock::Sim),
    def("slo_attainment", "frac", Clock::Sim),
    def("max_rate_rps", "1/s", Clock::Sim),
    // Tracing overhead, and host_ms_p50 as the wall clock read it.
    def("trace.untraced_seq_per_s", "1/s", Clock::Host),
    def("trace.traced_seq_per_s", "1/s", Clock::Host),
    def("trace.overhead_frac", "frac", Clock::Host),
    def("host.wall_ms_p50", "ms", Clock::Host),
    // workloads
    def("workloads.generate_s", "s", Clock::Host),
    // memlstm compile
    def("memlstm.offline_s", "s", Clock::Host),
    def("memlstm.plan_compile_s", "s", Clock::Host),
    def("lstm.warmup_s", "s", Clock::Host),
    def("memlstm.skip_frac", "frac", Clock::None),
    def("memlstm.mean_tissue", "cells", Clock::None),
    // lstm
    def("lstm.wx_ms", "ms", Clock::Host),
    def("lstm.cells_ms", "ms", Clock::Host),
    def("lstm.head_ms", "ms", Clock::Host),
    def("lstm.wx_share", "frac", Clock::Host),
    // tensor
    def("tensor.wx_gflops", "GFLOP/s", Clock::Host),
    def("tensor.cells_gflops", "GFLOP/s", Clock::Host),
    def("tensor.weight_mb_per_seq", "MB", Clock::None),
    // gpu-sim
    def("gpu_sim.price_ms", "ms", Clock::Host),
    def("gpu_sim.kernels_per_seq", "count", Clock::Sim),
    def("gpu_sim.dram_mb_per_seq", "MB", Clock::Sim),
    def("gpu_sim.l2_hit_frac", "frac", Clock::Sim),
    def("gpu_sim.stall_onchip_ms", "ms", Clock::Sim),
    def("gpu_sim.stall_offchip_ms", "ms", Clock::Sim),
    def("gpu_sim.wx_sim_ms", "ms", Clock::Sim),
    def("gpu_sim.cells_sim_ms", "ms", Clock::Sim),
    // memlstm serve and fleet
    def("serve.step_ms_p50", "ms", Clock::Host),
    def("fleet.route_us_p50", "us", Clock::Host),
    def("serve.mean_gang", "requests", Clock::Sim),
    def("serve.queue_wait_ms_p99", "ms", Clock::Sim),
    def("serve.exec_ms_p50", "ms", Clock::Sim),
    def("serve.retries", "count", Clock::Sim),
    def("serve.attempt_success_frac", "frac", Clock::Sim),
    def("fleet.rerouted", "count", Clock::Sim),
    def("fleet.util_imbalance", "frac", Clock::Sim),
    // pool
    def("pool.busy_frac", "frac", Clock::Host),
];

/// Metric values by name, filled by the workloads.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records a value; non-finite values (a ratio over an empty phase)
    /// are recorded as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        // `+ 0.0` turns an empty sum's -0 into 0.
        self.values
            .insert(name, if value.is_finite() { value + 0.0 } else { 0.0 });
    }

    /// Prints every metric of `defs` with its unit and clock to stderr,
    /// and returns the result line for stdout.
    pub fn result_line(&self, defs: &[Def], attempted: u64, failed: u64) -> String {
        let mut json = String::new();
        for (i, d) in defs.iter().enumerate() {
            let value = self.values.get(d.name).copied();
            eprintln!(
                "  {:<28} {:>14} {:<8} {}",
                d.name,
                value.map_or("n/a (0)".to_owned(), |v| format!("{v:.6}")),
                d.unit,
                d.clock.name()
            );
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                value.unwrap_or(0.0),
                d.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            failed == 0
        )
    }
}
