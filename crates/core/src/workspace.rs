//! Reusable decode state, so steady-state decoding is allocation-free.
//!
//! The seed decoder allocated its APP memory, Λ memory and scratch rows on
//! every `decode` call. [`DecodeWorkspace`] owns those buffers instead — the
//! software analogue of the paper's dedicated L/Λ memory banks, which exist
//! once in silicon and are merely re-initialised between frames. It also owns
//! the slot-major lane buffers and [`LaneScratch`] the lane-parallel SISO
//! kernels run out of (see [`crate::arith::LaneKernel`]). A workspace
//! is created (or grown) on first use with a given code and then reused:
//! every subsequent [`Decoder::decode_into`](crate::engine::Decoder::decode_into)
//! with the same code performs **zero heap allocations**, which the engine
//! enforces with a debug assertion on the buffer fingerprints.

use ldpc_codes::CompiledCode;

use crate::arith::LaneScratch;
use crate::early_term::{verdict_capacity, NO_DECISION};

/// Buffer set for decoding frames of one code with messages of type `M`.
///
/// A workspace may be moved between codes: `prepare` grows the buffers as
/// needed. Only the steady state (same code as the previous call) is
/// guaranteed allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DecodeWorkspace<M> {
    /// A-posteriori messages `L_n`, length `n`.
    pub(crate) app: Vec<M>,
    /// Channel messages (flooding schedule only), length `n`.
    pub(crate) chan: Vec<M>,
    /// Check messages `Λ_mn`, one per edge, indexed `entry · z + r`.
    pub(crate) lambda: Vec<M>,
    /// Second edge buffer for the flooding schedule's double buffering.
    pub(crate) lambda_alt: Vec<M>,
    /// Row gather scratch `λ`, capacity = max check degree.
    pub(crate) row_in: Vec<M>,
    /// Row output scratch `Λ'`, capacity = max check degree.
    pub(crate) row_out: Vec<M>,
    /// Lane-major gather buffer `λ` of one layer (slot-major, `degree · z`),
    /// the input of [`LaneKernel::check_node_update_lanes`](crate::arith::LaneKernel::check_node_update_lanes).
    pub(crate) lane_in: Vec<M>,
    /// Lane-major output buffer `Λ'` of one layer (slot-major, `degree · z`).
    pub(crate) lane_out: Vec<M>,
    /// Transient storage of the lane kernels (fallback rows + vector lanes).
    pub(crate) lane_scratch: LaneScratch<M>,
    /// Hard-decision scratch, length `n`.
    pub(crate) hard: Vec<u8>,
    /// Early-termination decision record: the previous iteration's
    /// information-bit hard decisions, interleaved like the APP memory
    /// (`decisions[i · width + slot]`) and compacted with it. Reset to
    /// [`NO_DECISION`](crate::early_term::NO_DECISION) per frame.
    pub(crate) decisions: Vec<u8>,
    /// Per-frame verdict scratch of the early-termination check.
    pub(crate) verdicts: Vec<u8>,
    /// Original frame index of each packed column of the current group (the
    /// active set; converged frames are compacted out).
    pub(crate) group_active: Vec<u32>,
    /// Per-iteration survivor list scratch of the group path.
    pub(crate) group_keep: Vec<u32>,
    /// Single-frame APP extraction scratch of the group path, length `n`.
    pub(crate) group_frame: Vec<M>,
    /// Original frame indices of the stage-1 failures a cascade escalates
    /// (see [`crate::cascade`]).
    pub(crate) cascade_pending: Vec<u32>,
    /// Frame-contiguous handoff LLRs of the escalated frames.
    pub(crate) cascade_llrs: Vec<f64>,
    /// Stage ≥ 2 output slots, swapped against the caller's outputs.
    pub(crate) cascade_outs: Vec<crate::result::DecodeOutput>,
}

impl<M: Copy> DecodeWorkspace<M> {
    /// An empty workspace; buffers are allocated on first use.
    #[must_use]
    pub fn new() -> Self {
        DecodeWorkspace {
            app: Vec::new(),
            chan: Vec::new(),
            lambda: Vec::new(),
            lambda_alt: Vec::new(),
            row_in: Vec::new(),
            row_out: Vec::new(),
            lane_in: Vec::new(),
            lane_out: Vec::new(),
            lane_scratch: LaneScratch::new(),
            hard: Vec::new(),
            decisions: Vec::new(),
            verdicts: Vec::new(),
            group_active: Vec::new(),
            group_keep: Vec::new(),
            group_frame: Vec::new(),
            cascade_pending: Vec::new(),
            cascade_llrs: Vec::new(),
            cascade_outs: Vec::new(),
        }
    }

    /// A workspace with capacity pre-allocated for `compiled` (including the
    /// flooding-only buffers), so even the first decode is allocation-free.
    #[must_use]
    pub fn for_code(compiled: &CompiledCode) -> Self {
        let mut ws = Self::new();
        ws.reserve_for(compiled, true);
        ws
    }

    /// Grows every buffer to the capacity `compiled` needs.
    pub fn reserve_for(&mut self, compiled: &CompiledCode, flooding: bool) {
        let n = compiled.n();
        let edges = compiled.num_edges();
        let degree = compiled.max_degree();
        let info = compiled.info_bits();
        reserve_to(&mut self.app, n);
        reserve_to(&mut self.lambda, edges);
        reserve_to(&mut self.row_in, degree);
        reserve_to(&mut self.row_out, degree);
        reserve_to(&mut self.lane_in, degree * compiled.z());
        reserve_to(&mut self.lane_out, degree * compiled.z());
        self.lane_scratch.reserve(degree, compiled.z());
        reserve_to(&mut self.hard, n);
        reserve_to(&mut self.decisions, info);
        reserve_to(&mut self.verdicts, verdict_capacity(1));
        if flooding {
            reserve_to(&mut self.chan, n);
            reserve_to(&mut self.lambda_alt, edges);
        }
    }

    /// Whether every buffer already has the capacity `compiled` needs, i.e.
    /// whether the next `prepare` for this code is guaranteed allocation-free.
    #[must_use]
    pub fn is_ready_for(&self, compiled: &CompiledCode, flooding: bool) -> bool {
        let n = compiled.n();
        let edges = compiled.num_edges();
        let degree = compiled.max_degree();
        let info = compiled.info_bits();
        self.app.capacity() >= n
            && self.lambda.capacity() >= edges
            && self.row_in.capacity() >= degree
            && self.row_out.capacity() >= degree
            && self.lane_in.capacity() >= degree * compiled.z()
            && self.lane_out.capacity() >= degree * compiled.z()
            && self.lane_scratch.is_ready(degree, compiled.z())
            && self.hard.capacity() >= n
            && self.decisions.capacity() >= info
            && self.verdicts.capacity() >= verdict_capacity(1)
            && (!flooding || (self.chan.capacity() >= n && self.lambda_alt.capacity() >= edges))
    }

    /// Resets the per-frame state: Λ memory zeroed, APP sized to `n` (the
    /// engine refills it from the channel LLRs), early-termination record
    /// reset.
    pub(crate) fn prepare(&mut self, compiled: &CompiledCode, zero: M, flooding: bool) {
        self.reserve_for(compiled, flooding);
        self.app.clear();
        self.app.resize(compiled.n(), zero);
        self.lambda.clear();
        self.lambda.resize(compiled.num_edges(), zero);
        // The lane buffers are fully written before every read; only their
        // *length* must cover a whole layer so the engine can slice them.
        let lane_len = compiled.max_degree() * compiled.z();
        self.lane_in.clear();
        self.lane_in.resize(lane_len, zero);
        self.lane_out.clear();
        self.lane_out.resize(lane_len, zero);
        self.decisions.clear();
        self.decisions.resize(compiled.info_bits(), NO_DECISION);
        if flooding {
            self.chan.clear();
            self.chan.resize(compiled.n(), zero);
            // The flooding schedule writes every edge of `lambda_alt` before
            // reading it, so its contents need no initialisation — only its
            // length must match for the buffer swap.
            self.lambda_alt.clear();
            self.lambda_alt.resize(compiled.num_edges(), zero);
        }
    }

    /// Grows every buffer the frame-major group path touches to the capacity
    /// a `width`-frame group of `compiled` needs (see [`crate::group`] for
    /// the layout): the single-frame buffers scaled by `width`, plus the
    /// per-frame decision records and the group bookkeeping scratch.
    pub fn reserve_for_group(&mut self, compiled: &CompiledCode, width: usize) {
        let n = compiled.n();
        let edges = compiled.num_edges();
        let degree = compiled.max_degree();
        let info = compiled.info_bits();
        let zw = compiled.z() * width;
        reserve_to(&mut self.app, n * width);
        reserve_to(&mut self.lambda, edges * width);
        reserve_to(&mut self.row_in, degree);
        reserve_to(&mut self.row_out, degree);
        reserve_to(&mut self.lane_in, degree * zw);
        reserve_to(&mut self.lane_out, degree * zw);
        self.lane_scratch.reserve(degree, zw);
        reserve_to(&mut self.hard, n);
        reserve_to(&mut self.decisions, info * width);
        reserve_to(&mut self.verdicts, verdict_capacity(width));
        reserve_to(&mut self.group_active, width);
        reserve_to(&mut self.group_keep, width);
        reserve_to(&mut self.group_frame, n);
    }

    /// Whether preparing a group decode (`prepare_group`) with these parameters is
    /// guaranteed allocation-free.
    #[must_use]
    pub fn is_ready_for_group(&self, compiled: &CompiledCode, width: usize) -> bool {
        let n = compiled.n();
        let info = compiled.info_bits();
        let zw = compiled.z() * width;
        let degree = compiled.max_degree();
        self.app.capacity() >= n * width
            && self.lambda.capacity() >= compiled.num_edges() * width
            && self.lane_in.capacity() >= degree * zw
            && self.lane_out.capacity() >= degree * zw
            && self.lane_scratch.is_ready(degree, zw)
            && self.hard.capacity() >= n
            && self.decisions.capacity() >= info * width
            && self.verdicts.capacity() >= verdict_capacity(width)
            && self.group_active.capacity() >= width
            && self.group_keep.capacity() >= width
            && self.group_frame.capacity() >= n
    }

    /// Resets the workspace for a `width`-frame group decode: Λ memory zeroed
    /// at group stride, APP sized for the group (the group driver packs it
    /// from the channel LLRs), the active set reset to all frames, every
    /// per-frame decision record reset.
    pub(crate) fn prepare_group(&mut self, compiled: &CompiledCode, zero: M, width: usize) {
        self.reserve_for_group(compiled, width);
        self.app.clear();
        self.app.resize(compiled.n() * width, zero);
        self.lambda.clear();
        self.lambda.resize(compiled.num_edges() * width, zero);
        let lane_len = compiled.max_degree() * compiled.z() * width;
        self.lane_in.clear();
        self.lane_in.resize(lane_len, zero);
        self.lane_out.clear();
        self.lane_out.resize(lane_len, zero);
        self.group_active.clear();
        self.group_active.extend(0..width as u32);
        self.decisions.clear();
        self.decisions
            .resize(compiled.info_bits() * width, NO_DECISION);
    }

    /// Grows every buffer a [`crate::cascade::CascadeDecoder`] needs for a
    /// `width`-frame group of `compiled`: the group-path buffers plus the
    /// escalation scratch (pending list, handoff LLRs and stage output
    /// slots, all sized for the worst case of every frame escalating).
    pub fn reserve_for_cascade(&mut self, compiled: &CompiledCode, width: usize) {
        self.reserve_for_group(compiled, width);
        reserve_to(&mut self.cascade_pending, width);
        reserve_to(&mut self.cascade_llrs, compiled.n() * width);
        if self.cascade_outs.len() < width {
            self.cascade_outs
                .resize_with(width, crate::result::DecodeOutput::empty);
        }
    }

    /// Whether a cascade decode of a `width`-frame group is guaranteed not to
    /// grow any workspace-owned buffer. (The stage output slots' *inner*
    /// buffers still grow on the first escalation that reaches them — they
    /// are swapped against caller outputs, so their contents are not part of
    /// the workspace's steady state.)
    #[must_use]
    pub fn is_ready_for_cascade(&self, compiled: &CompiledCode, width: usize) -> bool {
        self.is_ready_for_group(compiled, width)
            && self.cascade_pending.capacity() >= width
            && self.cascade_llrs.capacity() >= compiled.n() * width
            && self.cascade_outs.len() >= width
    }

    /// Pointer/capacity fingerprint of the cascade buffers on top of
    /// [`DecodeWorkspace::group_fingerprint`]. The stage output slots
    /// contribute only their outer vector (their inner buffers are swapped
    /// with caller outputs, so their identity legitimately changes).
    #[must_use]
    pub fn cascade_fingerprint(&self) -> Vec<(usize, usize)> {
        let mut fp = self.group_fingerprint();
        fp.push((
            self.cascade_pending.as_ptr() as usize,
            self.cascade_pending.capacity(),
        ));
        fp.push((
            self.cascade_llrs.as_ptr() as usize,
            self.cascade_llrs.capacity(),
        ));
        fp.push((
            self.cascade_outs.as_ptr() as usize,
            self.cascade_outs.capacity(),
        ));
        fp
    }

    /// Pointer/capacity fingerprint of the group-path buffers (everything
    /// [`DecodeWorkspace::allocation_fingerprint`] covers, plus the group
    /// bookkeeping). Building the vector
    /// allocates, so this is a test/debug aid, not a hot-path call.
    #[must_use]
    pub fn group_fingerprint(&self) -> Vec<(usize, usize)> {
        let mut fp: Vec<(usize, usize)> = self.allocation_fingerprint().to_vec();
        fp.push((
            self.group_active.as_ptr() as usize,
            self.group_active.capacity(),
        ));
        fp.push((
            self.group_keep.as_ptr() as usize,
            self.group_keep.capacity(),
        ));
        fp.push((
            self.group_frame.as_ptr() as usize,
            self.group_frame.capacity(),
        ));
        fp
    }

    /// Pointer/capacity fingerprint of every buffer. Two equal fingerprints
    /// around a `decode_into` call prove the call performed no reallocation
    /// (and therefore no heap allocation, as the engine owns no other state).
    #[must_use]
    pub fn allocation_fingerprint(&self) -> [(usize, usize); 14] {
        // The flooding schedule swaps `lambda` and `lambda_alt` every
        // iteration; order the pair by address so the swap (which moves no
        // memory) does not change the fingerprint.
        let lambda = (self.lambda.as_ptr() as usize, self.lambda.capacity());
        let lambda_alt = (
            self.lambda_alt.as_ptr() as usize,
            self.lambda_alt.capacity(),
        );
        let (lo, hi) = if lambda <= lambda_alt {
            (lambda, lambda_alt)
        } else {
            (lambda_alt, lambda)
        };
        let scratch = self.lane_scratch.fingerprint();
        [
            (self.app.as_ptr() as usize, self.app.capacity()),
            (self.chan.as_ptr() as usize, self.chan.capacity()),
            lo,
            hi,
            (self.row_in.as_ptr() as usize, self.row_in.capacity()),
            (self.row_out.as_ptr() as usize, self.row_out.capacity()),
            (self.lane_in.as_ptr() as usize, self.lane_in.capacity()),
            (self.lane_out.as_ptr() as usize, self.lane_out.capacity()),
            scratch[0],
            scratch[1],
            scratch[2],
            (self.hard.as_ptr() as usize, self.hard.capacity()),
            (self.decisions.as_ptr() as usize, self.decisions.capacity()),
            (self.verdicts.as_ptr() as usize, self.verdicts.capacity()),
        ]
    }
}

fn reserve_to<T>(buf: &mut Vec<T>, capacity: usize) {
    if buf.capacity() < capacity {
        buf.reserve_exact(capacity - buf.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{CodeId, CodeRate, Standard};

    fn compiled() -> CompiledCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap()
            .compile()
    }

    #[test]
    fn for_code_is_ready_immediately() {
        let compiled = compiled();
        let ws = DecodeWorkspace::<f64>::for_code(&compiled);
        assert!(ws.is_ready_for(&compiled, false));
        assert!(ws.is_ready_for(&compiled, true));
    }

    #[test]
    fn empty_workspace_becomes_ready_after_prepare() {
        let compiled = compiled();
        let mut ws = DecodeWorkspace::<f64>::new();
        assert!(!ws.is_ready_for(&compiled, false));
        ws.prepare(&compiled, 0.0, false);
        assert!(ws.is_ready_for(&compiled, false));
        assert_eq!(ws.lambda.len(), compiled.num_edges());
        assert!(ws.lambda.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn prepare_is_allocation_free_once_ready() {
        let compiled = compiled();
        let mut ws = DecodeWorkspace::<f64>::for_code(&compiled);
        ws.prepare(&compiled, 0.0, true);
        let fp = ws.allocation_fingerprint();
        for _ in 0..3 {
            ws.prepare(&compiled, 0.0, true);
        }
        assert_eq!(fp, ws.allocation_fingerprint());
    }

    #[test]
    fn workspace_grows_across_codes() {
        let small = compiled();
        let big = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304)
            .build()
            .unwrap()
            .compile();
        let mut ws = DecodeWorkspace::<f64>::for_code(&small);
        assert!(!ws.is_ready_for(&big, false));
        ws.prepare(&big, 0.0, false);
        assert!(ws.is_ready_for(&big, false));
        // And it still serves the small code without shrinking.
        assert!(ws.is_ready_for(&small, false));
    }
}
