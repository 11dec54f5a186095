//! The reusable step-loop workspace: every transient buffer the
//! streaming runtimes touch per timestep, allocated once and recycled
//! across runs.
//!
//! The paper's premise is that the recurrent loop is launch-bound and
//! bandwidth-bound; the host-side analogue of that waste is per-step heap
//! churn. A [`Workspace`] owns one sequence's fused gate slab, `(h, c)`
//! double buffers, skip-mask scratch and tissue slots. The
//! [`BatchRuntime`](crate::batch::BatchRuntime) keeps one per gang member
//! (at the largest gang seen), and a
//! [`PlanRuntime`](crate::plan::PlanRuntime) runs on the first of them —
//! LSTM plans as a gang of one, GRU plans through its own executor — so
//! either performs zero heap allocations per steady-state timestep
//! (asserted by the `alloc_audit` bench).

use crate::cell::CellScratch;
use crate::gru::GruScratch;
use gpu_sim::{KernelDesc, KernelKind};
use tensor::Vector;

/// Recycled buffers for one executing layer body.
///
/// Every field is scratch: the contents carry no meaning between runs,
/// only the capacity. The runtimes resize (never reallocate, once warm)
/// at the start of each layer and overwrite in place per timestep.
#[derive(Debug)]
pub struct Workspace {
    /// LSTM cell scratch: the fused `U` gate slab plus the row-gather
    /// panel used by masked GEMVs.
    pub(crate) cell: CellScratch,
    /// GRU scratch: per-gate slabs, `r`, `z`, and `r ⊙ h` buffers.
    pub(crate) gru: GruScratch,
    /// Hidden-state double buffer (current side).
    pub(crate) h: Vector,
    /// Cell-state double buffer (current side).
    pub(crate) c: Vector,
    /// Hidden-state double buffer (next side, swapped each step).
    pub(crate) h_next: Vector,
    /// Cell-state double buffer (next side, swapped each step).
    pub(crate) c_next: Vector,
    /// The hoisted gate driving Dynamic Row Skip: `o_t` for the LSTM,
    /// `z_t` for the GRU.
    pub(crate) gate: Vector,
    /// Per-cell active-row mask of the GRU's DRS flow
    /// (`DRS(z_t, α_intra, R)` output).
    pub(crate) active: Vec<bool>,
    /// Column-wise union of the masks the GRU's masked kernel prices
    /// over.
    pub(crate) union_mask: Vec<bool>,
    /// The recycled descriptor the GRU's masked template is
    /// instantiated into.
    pub(crate) masked_desc: KernelDesc,
    /// Per-cell output gates of one tissue (parallel to its cells; kept
    /// at the largest tissue seen).
    pub(crate) os: Vec<Vector>,
    /// Per-cell active masks of one tissue (parallel to its cells; kept
    /// at the largest tissue seen).
    pub(crate) masks: Vec<Vec<bool>>,
    /// Per-timestep hidden outputs of a reorganized layer.
    pub(crate) h_slots: Vec<Vector>,
    /// Per-timestep cell outputs of a reorganized layer.
    pub(crate) c_slots: Vec<Vector>,
    /// Which slots have been produced so far (schedule-order guard).
    pub(crate) filled: Vec<bool>,
    /// The genuine zero initial hidden state, sized per layer.
    pub(crate) zero_h: Vector,
    /// The genuine zero initial cell state, sized per layer.
    pub(crate) zero_c: Vector,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        Self {
            cell: CellScratch::new(),
            gru: GruScratch::new(),
            h: Vector::zeros(0),
            c: Vector::zeros(0),
            h_next: Vector::zeros(0),
            c_next: Vector::zeros(0),
            gate: Vector::zeros(0),
            active: Vec::new(),
            union_mask: Vec::new(),
            masked_desc: KernelDesc::builder(String::new(), KernelKind::Other).build(),
            os: Vec::new(),
            masks: Vec::new(),
            h_slots: Vec::new(),
            c_slots: Vec::new(),
            filled: Vec::new(),
            zero_h: Vector::zeros(0),
            zero_c: Vector::zeros(0),
        }
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}
