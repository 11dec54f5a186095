//! The LSTM plan executor, for a gang of one or more sequences.
//!
//! The paper's diagnosis (Fig. 4/6) is that mobile-GPU LSTM inference is
//! DRAM-bound on *weight* reloads; tissues and Dynamic Row Skip attack
//! that within one sequence. Serving many concurrent sequences offers the
//! same lever across requests: running B sequences in lockstep turns each
//! per-step `Sgemv(U, h)` into an `Sgemm(U, H_B)`, so one weight load
//! serves B hidden vectors (cf. Appleyard et al.'s batched RNN kernels
//! and E-PUR's weight-reuse argument).
//!
//! [`BatchRuntime`] executes one compiled [`ExecutionPlan`] on B
//! sequences at once, and it is the *only* executor of the LSTM layer
//! bodies ([`LayerBody::Baseline`], [`LayerBody::Drs`],
//! [`LayerBody::Tissues`]): [`PlanRuntime`](crate::plan::PlanRuntime)'s
//! LSTM entry points run a gang of one through it. Sequences are
//! independent and every per-sequence function is called in the same
//! per-sequence order whatever the gang size, so interchanging the
//! timestep and sequence loops cannot change any value — every
//! per-sequence output is **bit-identical** to running that sequence
//! alone. Batching changes only the emitted kernel stream: one batched
//! kernel per planned kernel, priced by [`batch_kernel`] with amortized
//! weight traffic. A gang of one emits the planned kernels themselves.

use crate::cell::{CellWeights, GatePreacts};
use crate::drs::{skip_fraction, trivial_row_mask_into};
use crate::network::LstmNetwork;
use crate::plan::{
    ExecutionPlan, KernelSink, LayerBody, NullSink, PlanBody, PlanOutput, PrevSource, SkipStats,
    TissueKernels, TissuePlan,
};
use crate::regions::NetworkRegions;
use crate::workspace::Workspace;
use gpu_sim::{KernelDesc, KernelKind, RegionId, SpanTag};
use std::fmt::Write as _;
use std::{mem, slice};
use tensor::{Precision, Vector};

/// Derives the batched form of a planned kernel serving `batch`
/// concurrent sequences.
///
/// Allocating convenience wrapper over [`batch_kernel_into`].
pub fn batch_kernel(desc: &KernelDesc, batch: usize, regions: &NetworkRegions) -> KernelDesc {
    let mut out = KernelDesc::builder(String::new(), KernelKind::Other).build();
    batch_kernel_into(desc, batch, regions, &mut out);
    out
}

/// Writes the batched form of a planned kernel into a recycled
/// descriptor — the zero-allocation form for steady-state serving loops
/// (the label and access-list buffers of `out` are reused).
///
/// Compute, transient traffic, and thread counts scale with the batch;
/// reads of persistent weight regions (per [`NetworkRegions::is_weight`])
/// do **not** — the weight tile is staged once and reused by every
/// sequence, which is the entire simulated speedup. On-chip traffic
/// scales only in its non-weight part for the same reason, and a batched
/// `Sgemv` becomes an `Sgemm`.
///
/// `batch <= 1` copies the kernel unchanged, so a batch of one prices
/// bit-identically to serial execution.
pub fn batch_kernel_into(
    desc: &KernelDesc,
    batch: usize,
    regions: &NetworkRegions,
    out: &mut KernelDesc,
) {
    out.copy_from(desc);
    if batch <= 1 {
        return;
    }
    let b = batch as u64;
    let mut weight_bytes = 0u64;
    for r in &mut out.reads {
        if regions.is_weight(r.region) {
            weight_bytes += r.bytes;
        } else {
            r.bytes *= b;
        }
    }
    for w in &mut out.writes {
        w.bytes *= b;
    }
    out.flops *= b;
    out.smem_bytes = weight_bytes + b * out.smem_bytes.saturating_sub(weight_bytes);
    out.threads = u32::try_from(u64::from(out.threads) * b).unwrap_or(u32::MAX);
    out.skipped_threads = u32::try_from(u64::from(out.skipped_threads) * b).unwrap_or(u32::MAX);
    if out.kind == KernelKind::Sgemv {
        out.kind = KernelKind::Sgemm;
    }
    push_batch_suffix(&mut out.label, batch);
}

/// Appends the batch-size suffix the serve traces use (`"... xB4"`) in
/// place.
fn push_batch_suffix(label: &mut String, batch: usize) {
    let _ = write!(label, " xB{batch}");
}

/// Grows `v` to at least `n` entries and returns its first `n`. Scratch
/// sized by a varying count (gang size, tissue size) keeps its high-water
/// entries instead of dropping and rebuilding them when the count shrinks
/// and grows again.
fn high_water<T>(v: &mut Vec<T>, n: usize, fill: impl FnMut() -> T) -> &mut [T] {
    if v.len() < n {
        v.resize_with(n, fill);
    }
    &mut v[..n]
}

/// The sink as a gang of `b` sequences sees it: every planned kernel is
/// launched once for the whole gang.
struct GangSink<'a, K> {
    sink: &'a mut K,
    b: usize,
    regions: &'a NetworkRegions,
    /// Recycled descriptor the batched forms are written into.
    batched: &'a mut KernelDesc,
}

impl<K: KernelSink> GangSink<'_, K> {
    /// Announces a plan phase, carrying the batch size when there is an
    /// actual batch.
    fn tag(&mut self, tag: SpanTag) {
        let tag = if self.b > 1 {
            tag.with_batch(self.b)
        } else {
            tag
        };
        self.sink.tag(tag);
    }

    /// Launches a planned kernel for the gang: the planned descriptor
    /// itself for a gang of one (no copy), else its batched form.
    fn emit(&mut self, desc: &KernelDesc) {
        if self.b == 1 {
            self.sink.emit(desc);
        } else {
            batch_kernel_into(desc, self.b, self.regions, self.batched);
            self.sink.emit(self.batched);
        }
    }

    /// Launches a masked kernel already priced over the whole gang's
    /// masks, labelling it with the batch size when there is a batch.
    fn emit_masked(&mut self, desc: &mut KernelDesc) {
        if self.b > 1 {
            push_batch_suffix(&mut desc.label, self.b);
        }
        self.sink.emit(desc);
    }
}

/// The runtime's shared (cross-sequence) recycled scratch: the
/// concatenated mask list a masked kernel prices over and the descriptor
/// it is instantiated into.
#[derive(Debug)]
struct SharedScratch {
    all_masks: Vec<Vec<bool>>,
    union_mask: Vec<bool>,
    masked_desc: KernelDesc,
}

impl Default for SharedScratch {
    fn default() -> Self {
        Self {
            all_masks: Vec::new(),
            union_mask: Vec::new(),
            masked_desc: KernelDesc::builder(String::new(), KernelKind::Other).build(),
        }
    }
}

/// Executes LSTM [`ExecutionPlan`]s over a gang of sequences in lockstep.
///
/// It owns its transient state — one [`Workspace`] and one `W·x` buffer
/// per gang member, plus the shared masked-kernel and batched-kernel
/// scratch — and reuses every buffer across executions. Per-member
/// scratch is kept at the largest gang seen, so a warm serving loop whose
/// gang size varies from round to round performs zero heap allocations
/// per steady-state timestep.
#[derive(Debug)]
pub struct BatchRuntime {
    wx: Vec<Vec<GatePreacts>>,
    ws: Vec<Workspace>,
    shared: SharedScratch,
    batched: KernelDesc,
}

impl Default for BatchRuntime {
    fn default() -> Self {
        Self {
            wx: Vec::new(),
            ws: Vec::new(),
            shared: SharedScratch::default(),
            batched: KernelDesc::builder(String::new(), KernelKind::Other).build(),
        }
    }
}

impl BatchRuntime {
    /// Creates a runtime with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes an LSTM plan on every sequence of `seqs` in lockstep,
    /// streaming one *batched* kernel per planned kernel into `sink`.
    ///
    /// Allocating convenience wrapper over
    /// [`run_lstm_batch_into`](Self::run_lstm_batch_into); returns exactly
    /// one output per sequence.
    ///
    /// # Panics
    /// Panics if `seqs` is empty, if any sequence is empty or differs
    /// from the plan's compiled length, or if the plan was compiled for a
    /// GRU network or a different layer count.
    pub fn run_lstm_batch(
        &mut self,
        plan: &ExecutionPlan,
        net: &LstmNetwork,
        seqs: &[Vec<Vector>],
        sink: &mut impl KernelSink,
    ) -> Vec<PlanOutput> {
        let mut outs = Vec::new();
        self.run_lstm_batch_into(plan, net, seqs, sink, &mut outs);
        outs
    }

    /// [`run_lstm_batch`](Self::run_lstm_batch) into a recycled output
    /// vector: output `i` of the gang lands in `outs[i]`, for `i <
    /// seqs.len()`. `outs` only ever grows — entries past the gang keep
    /// whatever an earlier, larger gang left there, so read `outs[..b]`
    /// (or zip with the gang). Output `i` is bit-identical to
    /// `PlanRuntime::run_lstm(plan, net, &seqs[i], ..)`.
    ///
    /// # Panics
    /// As [`run_lstm_batch`](Self::run_lstm_batch).
    pub fn run_lstm_batch_into(
        &mut self,
        plan: &ExecutionPlan,
        net: &LstmNetwork,
        seqs: &[Vec<Vector>],
        sink: &mut impl KernelSink,
        outs: &mut Vec<PlanOutput>,
    ) {
        let outs = high_water(outs, seqs.len(), PlanOutput::new);
        self.run_gang(plan, net, seqs, sink, outs);
    }

    /// Runs `plan` over the gang `seqs` (slices or vectors of inputs),
    /// writing output `s` into `outs[s]`. A gang of one is how
    /// [`PlanRuntime`](crate::plan::PlanRuntime) executes LSTM plans.
    ///
    /// # Panics
    /// As [`run_lstm_batch`](Self::run_lstm_batch); also if `outs` and
    /// `seqs` differ in length.
    pub(crate) fn run_gang<X: AsRef<[Vector]>>(
        &mut self,
        plan: &ExecutionPlan,
        net: &LstmNetwork,
        seqs: &[X],
        sink: &mut impl KernelSink,
        outs: &mut [PlanOutput],
    ) {
        assert!(!seqs.is_empty(), "run_lstm_batch: empty batch");
        assert_eq!(outs.len(), seqs.len(), "one output per gang member");
        for (i, xs) in seqs.iter().enumerate() {
            let xs = xs.as_ref();
            assert!(!xs.is_empty(), "run_lstm: empty input (sequence {i})");
            assert_eq!(
                xs.len(),
                plan.seq_len,
                "plan compiled for sequence length {}, got {} (sequence {i})",
                plan.seq_len,
                xs.len()
            );
        }
        let PlanBody::Lstm(layer_plans) = &plan.body else {
            panic!("run_lstm: plan was compiled for a GRU network");
        };
        assert_eq!(
            layer_plans.len(),
            net.layers().len(),
            "plan/network layer count mismatch"
        );
        let b = seqs.len();

        let Self {
            wx,
            ws,
            shared,
            batched,
        } = self;
        let wx = high_water(wx, b, Vec::new);
        let ws = high_water(ws, b, Workspace::new);
        let mut gang = GangSink {
            sink,
            b,
            regions: &plan.regions,
            batched,
        };
        for out in outs.iter_mut() {
            out.layer_hs.resize_with(layer_plans.len(), Vec::new);
            out.layer_skips.clear();
            out.layer_skips
                .resize(layer_plans.len(), SkipStats::default());
        }
        for (l, (lp, layer)) in layer_plans.iter().zip(net.layers()).enumerate() {
            gang.sink.begin_layer(l);
            gang.tag(SpanTag::wx(l));
            gang.emit(&lp.wx);
            for (s, wx_s) in wx.iter_mut().enumerate() {
                let current: &[Vector] = if l == 0 {
                    seqs[s].as_ref()
                } else {
                    &outs[s].layer_hs[l - 1]
                };
                layer
                    .weights()
                    .precompute_wx_batch_into_at(plan.precision, current, wx_s);
            }
            Self::execute_lstm_body_into(
                l,
                plan.precision,
                &lp.body,
                layer.weights(),
                wx,
                ws,
                shared,
                &mut gang,
                outs,
            );
        }
        gang.sink.begin_tail();
        gang.tag(SpanTag::head());
        gang.emit(&plan.head);
        for out in outs.iter_mut() {
            let h_final = out
                .layer_hs
                .last()
                .and_then(|hs| hs.last())
                .expect("non-empty sequence");
            net.apply_head_into(h_final, &mut out.logits);
        }
    }

    /// Executes one planned layer body *numerically only* — no kernels,
    /// no skip accounting — on precomputed `W·x` terms at `precision`.
    /// Backs [`PlanRuntime::layer_numerics_at`](crate::plan::PlanRuntime::layer_numerics_at).
    pub(crate) fn layer_numerics_at(
        &mut self,
        precision: Precision,
        body: &LayerBody,
        weights: &CellWeights,
        wx: &[GatePreacts],
    ) -> Vec<Vector> {
        let mut out = PlanOutput {
            layer_hs: vec![Vec::new()],
            logits: Vector::zeros(0),
            layer_skips: vec![SkipStats::default()],
        };
        // A gang of one never batches a kernel, so it consults no region.
        let regions = NetworkRegions {
            layers: Vec::new(),
            head: RegionId::new(0),
        };
        let Self {
            ws,
            shared,
            batched,
            ..
        } = self;
        let mut gang = GangSink {
            sink: &mut NullSink,
            b: 1,
            regions: &regions,
            batched,
        };
        // Layer index 0 is a placeholder: the NullSink drops the tags.
        Self::execute_lstm_body_into(
            0,
            precision,
            body,
            weights,
            slice::from_ref(&wx),
            high_water(ws, 1, Workspace::new),
            shared,
            &mut gang,
            slice::from_mut(&mut out),
        );
        out.layer_hs.pop().expect("one layer")
    }

    /// The first gang member's workspace, for the single-sequence GRU
    /// executor.
    pub(crate) fn solo_workspace(&mut self) -> &mut Workspace {
        &mut high_water(&mut self.ws, 1, Workspace::new)[0]
    }

    /// Executes one layer body for every sequence of the gang, emitting
    /// one kernel per planned kernel. Hidden outputs land in
    /// `outs[s].layer_hs[layer]`, skip statistics in
    /// `outs[s].layer_skips[layer]`.
    #[allow(clippy::too_many_arguments)] // internal: the runtime split needs each piece
    fn execute_lstm_body_into<W: AsRef<[GatePreacts]>>(
        layer: usize,
        precision: Precision,
        body: &LayerBody,
        weights: &CellWeights,
        wx: &[W],
        ws: &mut [Workspace],
        shared: &mut SharedScratch,
        gang: &mut GangSink<'_, impl KernelSink>,
        outs: &mut [PlanOutput],
    ) {
        let hidden = weights.hidden();
        let b = wx.len();
        match body {
            LayerBody::Baseline { cells } => {
                for s in 0..b {
                    assert_eq!(
                        cells.len(),
                        wx[s].as_ref().len(),
                        "plan/input length mismatch"
                    );
                    ws[s].h.resize_fill(hidden, 0.0);
                    ws[s].c.resize_fill(hidden, 0.0);
                    outs[s].layer_hs[layer].resize_with(cells.len(), || Vector::zeros(0));
                }
                for (t, cell) in cells.iter().enumerate() {
                    gang.tag(SpanTag::cells(layer, t));
                    gang.emit(&cell.sgemv);
                    for s in 0..b {
                        let w = &mut ws[s];
                        weights.step_fused_into_at(
                            precision,
                            &wx[s].as_ref()[t],
                            &w.h,
                            &w.c,
                            &mut w.cell,
                            &mut w.h_next,
                            &mut w.c_next,
                        );
                        mem::swap(&mut w.h, &mut w.h_next);
                        mem::swap(&mut w.c, &mut w.c_next);
                        outs[s].layer_hs[layer][t].clone_from(&w.h);
                    }
                    gang.emit(&cell.ew);
                }
            }
            LayerBody::Drs { alpha_intra, cells } => {
                for s in 0..b {
                    assert_eq!(
                        cells.len(),
                        wx[s].as_ref().len(),
                        "plan/input length mismatch"
                    );
                    ws[s].h.resize_fill(hidden, 0.0);
                    ws[s].c.resize_fill(hidden, 0.0);
                    outs[s].layer_hs[layer].resize_with(cells.len(), || Vector::zeros(0));
                }
                for (t, cell) in cells.iter().enumerate() {
                    gang.tag(SpanTag::cells(layer, t));
                    gang.emit(&cell.uo);
                    gang.emit(&cell.gate_ew);
                    for s in 0..b {
                        let w = &mut ws[s];
                        weights.output_gate_into_at(
                            precision,
                            &wx[s].as_ref()[t].o,
                            &w.h,
                            &mut w.cell,
                            &mut w.gate,
                        );
                    }
                    gang.emit(&cell.select);
                    let masks = high_water(&mut shared.all_masks, b, Vec::new);
                    for s in 0..b {
                        trivial_row_mask_into(&ws[s].gate, *alpha_intra, &mut masks[s]);
                        outs[s].layer_skips[layer].push(skip_fraction(&masks[s]));
                    }
                    cell.masked.instantiate_batch_into(
                        masks,
                        b,
                        &mut shared.union_mask,
                        &mut shared.masked_desc,
                    );
                    gang.emit_masked(&mut shared.masked_desc);
                    gang.emit(&cell.ew);
                    for s in 0..b {
                        let w = &mut ws[s];
                        weights.step_masked_into_at(
                            precision,
                            &wx[s].as_ref()[t],
                            &w.h,
                            &w.c,
                            &w.gate,
                            &masks[s],
                            &mut w.cell,
                            &mut w.h_next,
                            &mut w.c_next,
                        );
                        mem::swap(&mut w.h, &mut w.h_next);
                        mem::swap(&mut w.c, &mut w.c_next);
                        outs[s].layer_hs[layer][t].clone_from(&w.h);
                    }
                }
            }
            LayerBody::Tissues {
                search,
                link,
                alpha_intra,
                predicted_h,
                predicted_c,
                tissues,
            } => {
                gang.tag(SpanTag::offline(layer));
                gang.emit(search);
                if let Some(k) = link {
                    gang.emit(k);
                }
                let n = wx[0].as_ref().len();
                for w in ws.iter_mut() {
                    w.zero_h.resize_fill(hidden, 0.0);
                    w.zero_c.resize_fill(hidden, 0.0);
                    w.h_slots.resize_with(n, || Vector::zeros(0));
                    w.c_slots.resize_with(n, || Vector::zeros(0));
                    w.filled.clear();
                    w.filled.resize(n, false);
                }
                for (k, tp) in tissues.iter().enumerate() {
                    gang.tag(SpanTag::tissue(layer, k, tp.sublayers.first().copied()));
                    // The schedule guarantees every Prior predecessor was
                    // produced by an earlier tissue; check up front so
                    // the in-place slot writes below cannot mask a
                    // malformed plan.
                    for w in ws.iter() {
                        for (&t, src) in tp.cells.iter().zip(&tp.prev) {
                            if matches!(src, PrevSource::Prior) {
                                assert!(
                                    w.filled[t - 1],
                                    "schedule guarantees the predecessor already ran"
                                );
                            }
                        }
                    }
                    match &tp.kernels {
                        TissueKernels::Plain { sgemm, ew } => {
                            gang.emit(sgemm);
                            gang.emit(ew);
                            for (s, w) in ws.iter_mut().enumerate() {
                                Self::step_tissue(
                                    precision,
                                    weights,
                                    wx[s].as_ref(),
                                    tp,
                                    predicted_h,
                                    predicted_c,
                                    false,
                                    w,
                                );
                            }
                        }
                        TissueKernels::Drs {
                            uo,
                            gate_ew,
                            select,
                            masked,
                            ew,
                        } => {
                            gang.emit(uo);
                            gang.emit(gate_ew);
                            gang.emit(select);
                            let size = tp.cells.len();
                            for (s, w) in ws.iter_mut().enumerate() {
                                let Workspace {
                                    cell,
                                    os,
                                    masks,
                                    h_slots,
                                    zero_h,
                                    ..
                                } = w;
                                let os = high_water(os, size, || Vector::zeros(0));
                                let masks = high_water(masks, size, Vec::new);
                                for (i, (&t, src)) in tp.cells.iter().zip(&tp.prev).enumerate() {
                                    let h_prev = match src {
                                        PrevSource::Zeros => &*zero_h,
                                        PrevSource::Predicted => predicted_h,
                                        PrevSource::Prior => &h_slots[t - 1],
                                    };
                                    weights.output_gate_into_at(
                                        precision,
                                        &wx[s].as_ref()[t].o,
                                        h_prev,
                                        cell,
                                        &mut os[i],
                                    );
                                    trivial_row_mask_into(&os[i], *alpha_intra, &mut masks[i]);
                                }
                                for mask in masks.iter() {
                                    outs[s].layer_skips[layer].push(skip_fraction(mask));
                                }
                            }
                            // Concatenate each sequence's masks
                            // (sequence-major, matching the per-sequence
                            // pricing order).
                            let all_masks = high_water(&mut shared.all_masks, b * size, Vec::new);
                            for (s, w) in ws.iter().enumerate() {
                                for (i, mask) in w.masks[..size].iter().enumerate() {
                                    all_masks[s * size + i].clone_from(mask);
                                }
                            }
                            masked.instantiate_batch_into(
                                all_masks,
                                b,
                                &mut shared.union_mask,
                                &mut shared.masked_desc,
                            );
                            gang.emit_masked(&mut shared.masked_desc);
                            gang.emit(ew);
                            for (s, w) in ws.iter_mut().enumerate() {
                                Self::step_tissue(
                                    precision,
                                    weights,
                                    wx[s].as_ref(),
                                    tp,
                                    predicted_h,
                                    predicted_c,
                                    true,
                                    w,
                                );
                            }
                        }
                    }
                }
                for (s, w) in ws.iter_mut().enumerate() {
                    let hs_out = &mut outs[s].layer_hs[layer];
                    hs_out.resize_with(n, || Vector::zeros(0));
                    for (t, slot) in hs_out.iter_mut().enumerate() {
                        assert!(w.filled[t], "every cell scheduled exactly once");
                        mem::swap(slot, &mut w.h_slots[t]);
                    }
                }
            }
        }
    }

    /// Runs one sequence's tissue steps into its workspace slots: fused
    /// exact steps, or — when `masked` — the Dynamic-Row-Skip steps on
    /// the gates and masks already computed in `w.os`/`w.masks`.
    #[allow(clippy::too_many_arguments)] // internal: the workspace split needs each piece
    fn step_tissue(
        precision: Precision,
        weights: &CellWeights,
        wx: &[GatePreacts],
        tp: &TissuePlan,
        predicted_h: &Vector,
        predicted_c: &Vector,
        masked: bool,
        w: &mut Workspace,
    ) {
        let Workspace {
            cell,
            os,
            masks,
            h_slots,
            c_slots,
            filled,
            zero_h,
            zero_c,
            ..
        } = w;
        for (i, (&t, src)) in tp.cells.iter().zip(&tp.prev).enumerate() {
            let (done_h, rest_h) = h_slots.split_at_mut(t);
            let (done_c, rest_c) = c_slots.split_at_mut(t);
            let (h_prev, c_prev) = match src {
                PrevSource::Zeros => (&*zero_h, &*zero_c),
                PrevSource::Predicted => (predicted_h, predicted_c),
                PrevSource::Prior => (&done_h[t - 1], &done_c[t - 1]),
            };
            if masked {
                weights.step_masked_into_at(
                    precision,
                    &wx[t],
                    h_prev,
                    c_prev,
                    &os[i],
                    &masks[i],
                    cell,
                    &mut rest_h[0],
                    &mut rest_c[0],
                );
            } else {
                weights.step_fused_into_at(
                    precision,
                    &wx[t],
                    h_prev,
                    c_prev,
                    cell,
                    &mut rest_h[0],
                    &mut rest_c[0],
                );
            }
            filled[t] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::plan::PlanRuntime;
    use crate::schedule::u_sgemv_kernel;
    use gpu_sim::{DeviceModel, GpuConfig, GpuDevice};
    use tensor::init::seeded_rng;

    fn setup(seed: u64) -> (LstmNetwork, Vec<Vec<Vector>>) {
        let config = ModelConfig::new("test", 12, 24, 2, 8, 3).unwrap();
        let mut rng = seeded_rng(seed);
        let net = LstmNetwork::random(&config, &mut rng);
        let seqs = (0..4)
            .map(|_| crate::random_inputs(&config, &mut rng))
            .collect();
        (net, seqs)
    }

    #[test]
    fn gang_of_one_emits_the_planned_kernel_list() {
        let (net, seqs) = setup(21);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        let mut trace: Vec<KernelDesc> = Vec::new();
        let batched = BatchRuntime::new().run_lstm_batch(&plan, &net, &seqs[..1], &mut trace);
        // A gang of one launches the plan's own descriptors, in plan
        // order: per layer `wx`, then per cell `sgemv`/`ew`; then `head`.
        let PlanBody::Lstm(layers) = &plan.body else {
            unreachable!()
        };
        let mut planned = Vec::new();
        for lp in layers {
            planned.push(lp.wx.clone());
            let LayerBody::Baseline { cells } = &lp.body else {
                unreachable!()
            };
            for cell in cells {
                planned.push(cell.sgemv.clone());
                planned.push(cell.ew.clone());
            }
        }
        planned.push(plan.head.clone());
        assert_eq!(trace, planned);
        let exact = net.forward(&seqs[0]);
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0].logits, exact.logits);
        assert_eq!(batched[0].layer_hs, exact.layer_outputs);
    }

    #[test]
    fn shrinking_gang_writes_the_leading_outputs_and_keeps_the_rest() {
        let (net, seqs) = setup(27);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        let mut runtime = BatchRuntime::new();
        let mut outs = Vec::new();
        runtime.run_lstm_batch_into(&plan, &net, &seqs, &mut crate::plan::NullSink, &mut outs);
        let full = outs.clone();
        runtime.run_lstm_batch_into(
            &plan,
            &net,
            &seqs[2..3],
            &mut crate::plan::NullSink,
            &mut outs,
        );
        assert_eq!(
            outs.len(),
            seqs.len(),
            "outputs keep their high-water length"
        );
        assert_eq!(outs[0], full[2]);
        assert_eq!(outs[1..], full[1..]);
    }

    #[test]
    fn batched_outputs_bit_identical_per_sequence() {
        let (net, seqs) = setup(22);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        let batched =
            BatchRuntime::new().run_lstm_batch(&plan, &net, &seqs, &mut crate::plan::NullSink);
        for (xs, out) in seqs.iter().zip(&batched) {
            let serial = PlanRuntime::new().run_lstm(&plan, &net, xs, &mut crate::plan::NullSink);
            assert_eq!(*out, serial);
        }
    }

    #[test]
    fn batched_kernel_amortizes_weight_reads_only() {
        let (net, seqs) = setup(23);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        let PlanBody::Lstm(layers) = &plan.body else {
            unreachable!()
        };
        let wx = &layers[0].wx;
        let k = batch_kernel(wx, 8, &plan.regions);
        assert_eq!(k.flops, 8 * wx.flops);
        // Weight read unchanged; the transient activation read scales.
        assert_eq!(k.reads[0].bytes, wx.reads[0].bytes);
        assert_eq!(k.reads[1].bytes, 8 * wx.reads[1].bytes);
        assert_eq!(k.writes[0].bytes, 8 * wx.writes[0].bytes);
        assert!(k.label.ends_with(" xB8"));
        // A batched recurrent Sgemv becomes an Sgemm.
        let LayerBody::Baseline { cells } = &layers[0].body else {
            unreachable!()
        };
        let sgemm = batch_kernel(&cells[0].sgemv, 4, &plan.regions);
        assert_eq!(sgemm.kind, KernelKind::Sgemm);
        assert_eq!(sgemm.reads[0].bytes, cells[0].sgemv.reads[0].bytes);
        // Batch of one is the identity.
        assert_eq!(batch_kernel(wx, 1, &plan.regions), *wx);
    }

    #[test]
    fn batched_run_is_cheaper_than_serial_per_sequence() {
        let (net, seqs) = setup(24);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());

        let mut serial_time = 0.0;
        for xs in &seqs {
            let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
            let mut session = dev.begin_trace();
            PlanRuntime::new().run_lstm(&plan, &net, xs, &mut session);
            serial_time += session.finish().time_s;
        }

        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let mut session = dev.begin_trace();
        BatchRuntime::new().run_lstm_batch(&plan, &net, &seqs, &mut session);
        let batched_time = session.finish().time_s;

        assert!(
            batched_time < serial_time / 2.0,
            "batch-{} run should amortize weight loads: {batched_time} vs serial {serial_time}",
            seqs.len()
        );
    }

    #[test]
    fn masked_template_batch_prices_union_across_sequences() {
        use crate::drs::DrsMode;
        use crate::regions::RegionAllocator;
        use crate::schedule::F32;
        let mut alloc = RegionAllocator::new();
        let u = alloc.fresh();
        let k =
            crate::plan::MaskedUKernel::new("m", 3, 8, 1, u, DrsMode::Hardware, true, &mut alloc);
        // Two sequences with disjoint active halves: the weight read
        // covers the union (all rows), compute covers each half.
        let lo: Vec<bool> = (0..8).map(|i| i < 4).collect();
        let hi: Vec<bool> = (0..8).map(|i| i >= 4).collect();
        let priced = k.instantiate_batch(&[lo.clone(), hi], 2);
        assert_eq!(priced.reads[0].bytes, 3 * 8 * 8 * F32);
        assert_eq!(priced.flops, 2 * 3 * 8 * 8); // 2 x half the rows
        assert_eq!(priced.kind, KernelKind::Sgemm);
        // One sequence prices like `instantiate`.
        assert_eq!(
            k.instantiate_batch(std::slice::from_ref(&lo), 1),
            k.instantiate(std::slice::from_ref(&lo))
        );
    }

    #[test]
    fn batched_sgemv_priced_with_u_sgemv_regions() {
        // Sanity: a u_sgemv kernel built against a real weight region is
        // recognized as amortizable.
        let mut alloc = crate::regions::RegionAllocator::new();
        let regions = NetworkRegions::allocate(&mut alloc, 1);
        let k = u_sgemv_kernel("Sgemv(U,h)", regions.layers[0].u_full, 32, 8, &mut alloc);
        let batched = batch_kernel(&k, 4, &regions);
        assert_eq!(batched.reads[0].bytes, k.reads[0].bytes);
        assert_eq!(batched.reads[1].bytes, 4 * k.reads[1].bytes);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let (net, seqs) = setup(25);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        BatchRuntime::new().run_lstm_batch(&plan, &net, &[], &mut crate::plan::NullSink);
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn wrong_length_sequence_rejected() {
        let (net, seqs) = setup(26);
        let plan = ExecutionPlan::compile_baseline(
            &net,
            seqs[0].len() + 1,
            &DeviceModel::default_preset(),
        );
        BatchRuntime::new().run_lstm_batch(&plan, &net, &seqs, &mut crate::plan::NullSink);
    }
}
