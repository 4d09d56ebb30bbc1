//! Per-frame completion: the [`DecodeOutcome`] a submitted frame resolves to
//! and the [`FrameHandle`] a caller waits on.
//!
//! Completion is a one-shot slot shared between the submitting caller and the
//! shard worker: the worker fills it exactly once ([`Slot::complete`]), the
//! handle blocks on it ([`FrameHandle::wait`]). The service guarantees that
//! every *accepted* frame — every successful `submit`, blocking or not — is
//! eventually completed, including through shutdown, so `wait` cannot hang on
//! an accepted frame.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ldpc_codes::CodeId;
use ldpc_core::{DecodeError, DecodeOutput};

/// How the service resolved one submitted frame.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DecodeOutcome {
    /// The frame was decoded; the output is bit-identical to what a direct
    /// `decode_batch` call on the same mode would have produced.
    Decoded(DecodeOutput),
    /// The frame's deadline had passed when its shard worker pulled it for
    /// decoding, so the decoder's time was not spent on it.
    Expired,
    /// Admission control shed the frame: its deadline was still in the
    /// future, but the shard's queue depth and observed decode cost showed
    /// it could not be met, so the frame was dropped up front instead of
    /// decoded late (see [`ShardPolicy::shed`](crate::ShardPolicy::shed)).
    /// Counted in [`ShardStats::shed`](crate::ShardStats::shed) — never a
    /// silent drop.
    Shed,
    /// The decode engine rejected the coalesced batch (cannot happen for
    /// frames the service validated at submission; kept for robustness).
    Failed(DecodeError),
    /// The serving pipeline dropped the frame without resolving it — only
    /// possible if a shard worker panicked mid-batch. The completion-on-drop
    /// guard turns that crash into this outcome instead of a handle that
    /// hangs forever, and the drop is accounted in
    /// [`ShardStats::abandoned`](crate::ShardStats::abandoned).
    Abandoned,
    /// The frame made its batch's decode panic: quarantine bisection retried
    /// the crashed batch in halves until this frame was isolated as the
    /// offender, the innocent frames decoded normally, and this one was
    /// resolved here instead of crashing the batch again. Counted in
    /// [`ShardStats::quarantined`](crate::ShardStats::quarantined).
    Poisoned,
}

impl DecodeOutcome {
    /// Whether the frame was actually decoded.
    #[must_use]
    pub fn is_decoded(&self) -> bool {
        matches!(self, DecodeOutcome::Decoded(_))
    }

    /// The decode output, if the frame was decoded.
    #[must_use]
    pub fn into_output(self) -> Option<DecodeOutput> {
        match self {
            DecodeOutcome::Decoded(out) => Some(out),
            _ => None,
        }
    }
}

/// One-shot completion slot shared by a frame's handle and its shard worker.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    state: Mutex<Option<DecodeOutcome>>,
    done: Condvar,
}

impl Slot {
    /// Resolves the frame. Must be called exactly once per accepted frame.
    pub(crate) fn complete(&self, outcome: DecodeOutcome) {
        let mut state = self.state.lock().expect("completion slot poisoned");
        debug_assert!(state.is_none(), "frame completed twice");
        *state = Some(outcome);
        self.done.notify_all();
    }

    /// Resolves the frame only if it is still pending (no-op otherwise),
    /// reporting whether this call resolved it. Used by the
    /// completion-on-drop guard, which must tolerate racing the explicit
    /// completion path — and which only accounts the drop when it really
    /// was the resolving side.
    pub(crate) fn try_complete(&self, outcome: DecodeOutcome) -> bool {
        let mut state = self.state.lock().expect("completion slot poisoned");
        if state.is_none() {
            *state = Some(outcome);
            self.done.notify_all();
            true
        } else {
            false
        }
    }
}

/// Completion handle for one accepted frame.
///
/// Obtained from the service's submit methods; consumed by
/// [`wait`](FrameHandle::wait) (or [`wait_timeout`](FrameHandle::wait_timeout),
/// which hands the handle back if the frame is still in flight).
#[derive(Debug)]
pub struct FrameHandle {
    code: CodeId,
    slot: Arc<Slot>,
}

impl FrameHandle {
    pub(crate) fn new(code: CodeId, slot: Arc<Slot>) -> Self {
        FrameHandle { code, slot }
    }

    /// The mode the frame was submitted under.
    #[must_use]
    pub fn code(&self) -> CodeId {
        self.code
    }

    /// Whether the frame has already been resolved (non-blocking).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.slot
            .state
            .lock()
            .expect("completion slot poisoned")
            .is_some()
    }

    /// Blocks until the frame is resolved and returns its outcome.
    #[must_use]
    pub fn wait(self) -> DecodeOutcome {
        let mut state = self.slot.state.lock().expect("completion slot poisoned");
        loop {
            if let Some(outcome) = state.take() {
                return outcome;
            }
            state = self
                .slot
                .done
                .wait(state)
                .expect("completion slot poisoned");
        }
    }

    /// Like [`wait`](FrameHandle::wait) with a timeout; returns the handle
    /// back (for retrying) if the frame is still in flight when it elapses.
    pub fn wait_timeout(self, timeout: Duration) -> Result<DecodeOutcome, FrameHandle> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.slot.state.lock().expect("completion slot poisoned");
        loop {
            if let Some(outcome) = state.take() {
                return Ok(outcome);
            }
            let now = std::time::Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|r| !r.is_zero())
            else {
                drop(state);
                return Err(self);
            };
            let (next, timed_out) = self
                .slot
                .done
                .wait_timeout(state, remaining)
                .expect("completion slot poisoned");
            state = next;
            if timed_out.timed_out() && state.is_none() {
                drop(state);
                return Err(self);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{CodeRate, Standard};

    fn handle() -> (Arc<Slot>, FrameHandle) {
        let slot = Arc::new(Slot::default());
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
        (slot.clone(), FrameHandle::new(code, slot))
    }

    #[test]
    fn wait_returns_the_completed_outcome() {
        let (slot, handle) = handle();
        assert!(!handle.is_complete());
        slot.complete(DecodeOutcome::Expired);
        assert!(handle.is_complete());
        assert_eq!(handle.wait(), DecodeOutcome::Expired);
    }

    #[test]
    fn wait_blocks_until_completion_from_another_thread() {
        let (slot, handle) = handle();
        let waiter = std::thread::spawn(move || handle.wait());
        std::thread::sleep(Duration::from_millis(20));
        slot.complete(DecodeOutcome::Decoded(DecodeOutput::empty()));
        let outcome = waiter.join().unwrap();
        assert!(outcome.is_decoded());
        assert_eq!(outcome.into_output(), Some(DecodeOutput::empty()));
    }

    #[test]
    fn wait_timeout_hands_the_handle_back_when_pending() {
        let (slot, handle) = handle();
        let handle = handle
            .wait_timeout(Duration::from_millis(10))
            .expect_err("still pending");
        slot.complete(DecodeOutcome::Expired);
        assert_eq!(
            handle.wait_timeout(Duration::from_secs(5)).unwrap(),
            DecodeOutcome::Expired
        );
    }

    #[test]
    fn outcome_accessors() {
        assert!(!DecodeOutcome::Expired.is_decoded());
        assert_eq!(DecodeOutcome::Expired.into_output(), None);
        let failed = DecodeOutcome::Failed(DecodeError::BatchShape { reason: "x".into() });
        assert!(!failed.is_decoded());
    }
}
