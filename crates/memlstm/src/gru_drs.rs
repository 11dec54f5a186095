//! The Dynamic-Row-Skip adaptation for GRUs (paper Sec. II-B: the
//! proposed methods "can also be applied to GRUs with simple adjustment").
//!
//! The adjustment: a GRU's output is gated by the update gate —
//! `h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ h̃_t` — so a near-zero element of
//! `z_t` makes the unit copy its history regardless of the candidate.
//! The reordered flow computes `z_t` first (`Sgemv(U_z, h)`), thresholds
//! it, and skips the corresponding rows of `U_r` and `U_h` (two thirds of
//! the united matrix).
//!
//! Like every executor, this is a facade over the plan pipeline:
//! [`GruDrsExecutor::plan`] lowers the flow into an [`ExecutionPlan`]
//! whose masked `Sgemv(U_rh, h, R)` is a
//! [`MaskedUKernel`] template instantiated at
//! runtime from the actual update-gate values.

use crate::drs::DrsConfig;
use lstm::gru_exec::GruNetwork;
use lstm::plan::{
    ExecutionPlan, GruDrsCellPlan, GruLayerBody, GruLayerPlan, MaskedUKernel, PlanBody,
    PlanRuntime, TraceCollector,
};
use lstm::regions::{NetworkRegions, RegionAllocator};
use lstm::schedule::{
    drs_kernel, ew_kernel, head_kernel, u_sgemv_kernel, wx_sgemm_kernel, NetworkRun,
};
use tensor::{Precision, Vector};

/// GRU executor with update-gate-driven row skipping.
#[derive(Debug, Clone)]
pub struct GruDrsExecutor<'a> {
    net: &'a GruNetwork,
    config: DrsConfig,
    device: gpu_sim::DeviceModel,
    precision: Precision,
}

impl<'a> GruDrsExecutor<'a> {
    /// Creates the executor, planning for the default preset (the
    /// paper's Tegra X1) at fp32 weight precision.
    pub fn new(net: &'a GruNetwork, config: DrsConfig) -> Self {
        Self {
            net,
            config,
            device: gpu_sim::DeviceModel::default_preset(),
            precision: Precision::Fp32,
        }
    }

    /// Plans for `device` instead of the default preset.
    pub fn on_device(mut self, device: gpu_sim::DeviceModel) -> Self {
        self.device = device;
        self
    }

    /// Stores the packed gate matrices at `precision` (fp32 default;
    /// fp16/int8 opt into the quantized weight tiers).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Compiles the GRU Dynamic-Row-Skip flow into an [`ExecutionPlan`]
    /// for sequences of length `seq_len`.
    ///
    /// # Panics
    /// Panics if `seq_len` is zero.
    pub fn plan(&self, seq_len: usize) -> ExecutionPlan {
        assert!(seq_len > 0, "GruDrsExecutor::plan: zero-length sequence");
        let hidden = self.net.hidden();
        let num_layers = self.net.layers().len();
        let mut alloc = RegionAllocator::new();
        let regions = NetworkRegions::allocate(&mut alloc, num_layers);
        let mut layers = Vec::with_capacity(num_layers);
        for (l, layer) in self.net.layers().iter().enumerate() {
            let weights = layer.weights();
            // Three gates instead of four on the W side (the GRU keeps the
            // baseline's DRAM accounting here; only flops shrink).
            let mut wx = wx_sgemm_kernel(
                l,
                regions.layers[l].w,
                hidden,
                weights.input_dim(),
                seq_len,
                &mut alloc,
            );
            wx.label = format!("Sgemm(W_rzh,x) layer{l}");
            wx.flops = wx.flops * 3 / 4;
            let cells = (0..seq_len)
                .map(|t| GruDrsCellPlan {
                    // Step 1: the update gate alone (U_z slice).
                    uz: u_sgemv_kernel(
                        format!("Sgemv(U_z,h) l{l} t{t}"),
                        regions.layers[l].u_o,
                        hidden,
                        hidden,
                        &mut alloc,
                    ),
                    // Step 2: threshold into the skip list.
                    select: drs_kernel(format!("DRS l{l} t{t}"), hidden, &mut alloc),
                    // Step 3: the masked U_{r,h} GEMV (two gates) — priced
                    // at runtime from the actual z_t mask.
                    masked: MaskedUKernel::new(
                        format!("Sgemv(U_rh,h,R) l{l} t{t}"),
                        2,
                        hidden,
                        1,
                        regions.layers[l].u_fic,
                        self.config.mode,
                        false,
                        &mut alloc,
                    ),
                    ew: ew_kernel(format!("gru_ew l{l} t{t}"), hidden, 1, &mut alloc),
                })
                .collect();
            layers.push(GruLayerPlan {
                wx,
                body: GruLayerBody::Drs {
                    alpha_intra: self.config.alpha_intra,
                    cells,
                },
            });
        }
        let head = head_kernel(regions.head, self.net.num_classes(), hidden, &mut alloc);
        let plan = ExecutionPlan {
            regions,
            seq_len,
            body: PlanBody::Gru(layers),
            head,
            device: self.device.clone(),
            precision: Precision::Fp32,
        };
        plan.with_precision(self.precision)
    }

    /// Runs `xs`, producing numbers, the kernel trace, and the mean skip
    /// fraction.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn run(&self, xs: &[Vector]) -> (NetworkRun, f64) {
        assert!(!xs.is_empty(), "GruDrsExecutor::run: empty input");
        let plan = self.plan(xs.len());
        let mut collector = TraceCollector::default();
        let output = PlanRuntime::new().run_gru(&plan, self.net, xs, &mut collector);
        let mean_skip = output.mean_skip_fraction();
        (collector.into_network_run(plan.regions, output), mean_skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drs::DrsMode;
    use gpu_sim::{GpuConfig, GpuDevice, KernelDesc};
    use lstm::gru_exec::GruBaselineExecutor;
    use rand::Rng;
    use tensor::init::seeded_rng;

    fn setup() -> (GruNetwork, Vec<Vector>) {
        let mut rng = seeded_rng(8);
        // Hidden width large enough that the united matrix does not fit in
        // the L2 (the realistic regime where DRS traffic savings show).
        let net = GruNetwork::random(24, 256, 1, 3, &mut rng);
        let xs: Vec<Vector> = (0..8)
            .map(|_| Vector::from_fn(24, |_| rng.gen_range(-1.0f32..1.0)))
            .collect();
        (net, xs)
    }

    #[test]
    fn zero_alpha_matches_exact() {
        let (net, xs) = setup();
        let exec = GruDrsExecutor::new(
            &net,
            DrsConfig {
                alpha_intra: 0.0,
                mode: DrsMode::Hardware,
            },
        );
        let (run, skip) = exec.run(&xs);
        let (_, logits) = net.forward(&xs);
        assert_eq!(skip, 0.0);
        for (a, b) in run.logits.iter().zip(logits.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn skipping_reduces_simulated_time() {
        let (net, xs) = setup();
        let mut device = GpuDevice::new(GpuConfig::tegra_x1());
        let base = device.run_trace(GruBaselineExecutor::new(&net).run(&xs).trace());
        let exec = GruDrsExecutor::new(
            &net,
            DrsConfig {
                alpha_intra: 0.08,
                mode: DrsMode::Hardware,
            },
        );
        let (run, skip) = exec.run(&xs);
        device.reset();
        let opt = device.run_trace(run.trace());
        assert!(skip > 0.1, "no rows skipped: {skip}");
        assert!(opt.dram_read_bytes < base.dram_read_bytes);
    }

    #[test]
    fn skipped_units_copy_history() {
        let (net, xs) = setup();
        let exec = GruDrsExecutor::new(
            &net,
            DrsConfig {
                alpha_intra: 0.05,
                mode: DrsMode::Hardware,
            },
        );
        let (run, _) = exec.run(&xs);
        let (outputs, _) = net.forward(&xs);
        // Bounded divergence from the exact trajectory.
        let last_exact = outputs.last().unwrap().last().unwrap();
        let last_opt = run.layers.last().unwrap().hs.last().unwrap();
        assert!(last_exact.sub(last_opt).max_abs() < 0.4);
    }

    #[test]
    fn skip_fraction_grows_with_alpha() {
        let (net, xs) = setup();
        let skip_at = |alpha: f32| {
            GruDrsExecutor::new(
                &net,
                DrsConfig {
                    alpha_intra: alpha,
                    mode: DrsMode::Hardware,
                },
            )
            .run(&xs)
            .1
        };
        assert!(skip_at(0.15) >= skip_at(0.03));
    }

    #[test]
    fn plan_reuse_matches_one_shot_execution() {
        let (net, xs) = setup();
        let exec = GruDrsExecutor::new(
            &net,
            DrsConfig {
                alpha_intra: 0.08,
                mode: DrsMode::Hardware,
            },
        );
        let (run, skip) = exec.run(&xs);

        let plan = exec.plan(xs.len());
        let mut runtime = PlanRuntime::new();
        let mut trace: Vec<KernelDesc> = Vec::new();
        let out = runtime.run_gru(&plan, &net, &xs, &mut trace);
        assert_eq!(out.logits, run.logits);
        assert_eq!(out.mean_skip_fraction(), skip);
        assert_eq!(trace, run.trace().cloned().collect::<Vec<_>>());
    }
}
