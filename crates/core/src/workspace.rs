//! Reusable decode state, so steady-state decoding is allocation-free.
//!
//! The seed decoder allocated its APP memory, Λ memory and scratch rows on
//! every `decode` call. [`DecodeWorkspace`] owns those buffers instead — the
//! software analogue of the paper's dedicated L/Λ memory banks, which exist
//! once in silicon and are merely re-initialised between frames. It also owns
//! the [`LaneScratch`] the lane-parallel SISO kernels run out of (see
//! [`crate::arith::LaneKernel`]).
//!
//! There is one decode driver, and a single frame is a group of width 1, so
//! the workspace is sized by the group width alone:
//! [`DecodeWorkspace::reserve_for`]`(compiled, width)` grows every buffer,
//! [`DecodeWorkspace::is_ready_for`] says whether a `width`-frame group is
//! allocation-free, and one [`DecodeWorkspace::allocation_fingerprint`]
//! covers every buffer. Once a workspace is ready, every further decode of
//! that code at that width or narrower performs **zero heap allocations**,
//! which the drivers enforce with a debug assertion on the fingerprint.

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
    /// Transient storage of the lane kernels and of the scalar row loops
    /// (the row-serial reference and the flooding schedule); see
    /// [`LaneScratch`].
    pub(crate) lane_scratch: LaneScratch<M>,
    /// Per-frame parity verdicts of the group (see
    /// [`DecoderArithmetic::parity_verdicts`](crate::arith::DecoderArithmetic::parity_verdicts)),
    /// one per packed column.
    pub(crate) parity: Vec<u8>,
    /// Early-termination decision record: the previous iteration's
    /// information-bit hard decisions, interleaved like the APP memory
    /// (`decisions[i · width + slot]`) and compacted with it. Reset to
    /// [`NO_DECISION`](crate::early_term::NO_DECISION) per frame when an
    /// early-termination rule is configured, empty otherwise.
    pub(crate) decisions: Vec<u8>,
    /// Per-frame verdict scratch of the early-termination check.
    pub(crate) verdicts: Vec<u8>,
    /// Original frame index of each packed column of the current group (the
    /// active set; converged frames are compacted out).
    pub(crate) group_active: Vec<u32>,
    /// Per-iteration survivor list scratch of the group path.
    pub(crate) group_keep: Vec<u32>,
    /// Ingest scratch of the group path: one frame quantised before it is
    /// interleaved into the APP memory, length `n`.
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
            lane_scratch: LaneScratch::new(),
            parity: Vec::new(),
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

    /// A workspace with capacity pre-allocated for single frames of
    /// `compiled`, so even the first layered or cascade decode of one frame
    /// is allocation-free.
    #[must_use]
    pub fn for_code(compiled: &CompiledCode) -> Self {
        let mut ws = Self::new();
        ws.reserve_for(compiled, 1);
        ws
    }

    /// Grows every buffer to the capacity a `width`-frame group of
    /// `compiled` needs (see [`crate::group`] for the layout): the
    /// per-message buffers scaled by `width`, the per-frame decision records,
    /// the group bookkeeping and the cascade escalation scratch (sized for
    /// the worst case of every frame escalating). The flooding-only buffers
    /// are sized by the flooding decoder itself.
    pub fn reserve_for(&mut self, compiled: &CompiledCode, width: usize) {
        self.reserve_decode(compiled, width);
        reserve_to(&mut self.cascade_pending, width);
        reserve_to(&mut self.cascade_llrs, compiled.n() * width);
        if self.cascade_outs.len() < width {
            self.cascade_outs
                .resize_with(width, crate::result::DecodeOutput::empty);
        }
    }

    /// The part of [`DecodeWorkspace::reserve_for`] the layered driver needs.
    /// It leaves the cascade scratch alone: a cascade lends those buffers out
    /// of the workspace while its later stages decode through it.
    fn reserve_decode(&mut self, compiled: &CompiledCode, width: usize) {
        let n = compiled.n();
        let degree = compiled.max_degree();
        let zw = compiled.z() * width;
        reserve_to(&mut self.app, n * width);
        reserve_to(&mut self.lambda, compiled.num_edges() * width);
        self.lane_scratch.reserve(degree, zw);
        reserve_to(&mut self.parity, width);
        reserve_to(&mut self.decisions, compiled.info_bits() * width);
        reserve_to(&mut self.verdicts, verdict_capacity(width));
        reserve_to(&mut self.group_active, width);
        reserve_to(&mut self.group_keep, width);
        reserve_to(&mut self.group_frame, n);
    }

    /// Whether every buffer [`DecodeWorkspace::reserve_for`] sizes already
    /// has the capacity a `width`-frame group of `compiled` needs, i.e.
    /// whether decoding such a group is guaranteed allocation-free.
    #[must_use]
    pub fn is_ready_for(&self, compiled: &CompiledCode, width: usize) -> bool {
        let n = compiled.n();
        let degree = compiled.max_degree();
        let zw = compiled.z() * width;
        self.app.capacity() >= n * width
            && self.lambda.capacity() >= compiled.num_edges() * width
            && self.lane_scratch.is_ready(degree, zw)
            && self.parity.capacity() >= width
            && self.decisions.capacity() >= compiled.info_bits() * width
            && self.verdicts.capacity() >= verdict_capacity(width)
            && self.group_active.capacity() >= width
            && self.group_keep.capacity() >= width
            && self.group_frame.capacity() >= n
            && self.cascade_pending.capacity() >= width
            && self.cascade_llrs.capacity() >= n * width
            && self.cascade_outs.len() >= width
    }

    /// Resets the workspace for decoding a `width`-frame group: Λ memory
    /// zeroed at group stride, APP sized for the group (not refilled: the
    /// driver's ingest overwrites all of it, so only the part a previous,
    /// narrower decode left unsized is written here), the ingest scratch
    /// sized for one frame when the group is wider than one, the active set
    /// reset to all frames, one parity verdict per frame, and every
    /// per-frame decision record reset when `early_termination` says a
    /// rule will read them.
    pub(crate) fn prepare(
        &mut self,
        compiled: &CompiledCode,
        zero: M,
        width: usize,
        early_termination: bool,
    ) {
        self.reserve_decode(compiled, width);
        self.app.resize(compiled.n() * width, zero);
        self.lambda.clear();
        self.lambda.resize(compiled.num_edges() * width, zero);
        self.group_active.clear();
        self.group_active.extend(0..width as u32);
        self.group_frame.clear();
        if width > 1 {
            self.group_frame.resize(compiled.n(), zero);
        }
        self.parity.clear();
        self.parity.resize(width, 0);
        self.decisions.clear();
        if early_termination {
            self.decisions
                .resize(compiled.info_bits() * width, NO_DECISION);
        }
    }

    /// Pointer/capacity fingerprint of every buffer. Two equal fingerprints
    /// around a decode call prove the call performed no reallocation (and
    /// therefore no heap allocation, as the decoders own no other state).
    /// The cascade's output slots contribute only their outer vector: their
    /// inner buffers are swapped with caller outputs, so their identity
    /// legitimately changes.
    #[must_use]
    pub fn allocation_fingerprint(&self) -> [(usize, usize); 18] {
        fn fp<T>(buf: &Vec<T>) -> (usize, usize) {
            (buf.as_ptr() as usize, buf.capacity())
        }
        // The flooding schedule swaps `lambda` and `lambda_alt` every
        // iteration; order the pair by address so the swap (which moves no
        // memory) does not change the fingerprint.
        let (lambda, lambda_alt) = (fp(&self.lambda), fp(&self.lambda_alt));
        let (lo, hi) = if lambda <= lambda_alt {
            (lambda, lambda_alt)
        } else {
            (lambda_alt, lambda)
        };
        let scratch = self.lane_scratch.fingerprint();
        [
            fp(&self.app),
            fp(&self.chan),
            lo,
            hi,
            scratch[0],
            scratch[1],
            scratch[2],
            scratch[3],
            scratch[4],
            fp(&self.parity),
            fp(&self.decisions),
            fp(&self.verdicts),
            fp(&self.group_active),
            fp(&self.group_keep),
            fp(&self.group_frame),
            fp(&self.cascade_pending),
            fp(&self.cascade_llrs),
            fp(&self.cascade_outs),
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
        assert!(ws.is_ready_for(&compiled, 1));
        assert!(
            !ws.is_ready_for(&compiled, 2),
            "groups need a wider reserve"
        );
    }

    #[test]
    fn empty_workspace_becomes_ready_after_prepare() {
        let compiled = compiled();
        let mut ws = DecodeWorkspace::<f64>::new();
        assert!(!ws.is_ready_for(&compiled, 1));
        ws.prepare(&compiled, 0.0, 1, true);
        assert_eq!(ws.lambda.len(), compiled.num_edges());
        assert!(ws.lambda.iter().all(|&v| v == 0.0));
        // `prepare` sizes what the layered driver touches; the cascade
        // scratch joins on the full reserve.
        assert!(!ws.is_ready_for(&compiled, 1));
        ws.reserve_for(&compiled, 1);
        assert!(ws.is_ready_for(&compiled, 1));
    }

    #[test]
    fn prepare_is_allocation_free_once_ready() {
        let compiled = compiled();
        let mut ws = DecodeWorkspace::<f64>::new();
        ws.reserve_for(&compiled, 3);
        let fp = ws.allocation_fingerprint();
        for width in [3, 1, 2, 3] {
            ws.prepare(&compiled, 0.0, width, true);
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
        assert!(!ws.is_ready_for(&big, 1));
        ws.reserve_for(&big, 1);
        assert!(ws.is_ready_for(&big, 1));
        // And it still serves the small code without shrinking.
        assert!(ws.is_ready_for(&small, 1));
    }
}
