//! The detector abstraction shared by all rejuvenation algorithms.

use crate::snapshot::{DetectorSnapshot, SnapshotError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The verdict a detector returns for each observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decision {
    /// The system looks healthy enough; keep serving.
    Continue,
    /// Sustained degradation detected: trigger software rejuvenation now.
    Rejuvenate,
}

impl Decision {
    /// Returns `true` for [`Decision::Rejuvenate`].
    pub fn is_rejuvenate(self) -> bool {
        self == Decision::Rejuvenate
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Continue => write!(f, "continue"),
            Decision::Rejuvenate => write!(f, "rejuvenate"),
        }
    }
}

/// A software-rejuvenation detector.
///
/// Implementations consume one observation of the customer-affecting
/// metric at a time (smaller is better, as for response times) and
/// answer whether the system should be rejuvenated *now*.
///
/// After returning [`Decision::Rejuvenate`], implementations reset their
/// internal state, exactly as the paper's pseudo-code does
/// (`d := 0; N := 0`), so one detector instance can supervise a system
/// across many rejuvenation cycles.
///
/// The trait is object-safe; simulation harnesses hold detectors as
/// `Box<dyn RejuvenationDetector>`.
pub trait RejuvenationDetector: Send {
    /// Feeds one observation and returns the rejuvenation decision.
    fn observe(&mut self, value: f64) -> Decision;

    /// Feeds a whole batch of observations, appending the **absolute
    /// sequence number** (`base_seq + index`) of every observation that
    /// triggered a rejuvenation to `fired`, in ascending order.
    ///
    /// The contract is strict equivalence: for any split of a stream
    /// into batches, the detector state after `observe_batch` and the
    /// fired sequence numbers must be exactly what the same stream fed
    /// through [`observe`] one value at a time would produce — including
    /// bitwise-identical floating-point state, which is what keeps the
    /// monitoring plane's decision digests the same whether a detector
    /// runs a batch kernel or the per-sample loop. The default
    /// implementation *is* the per-sample loop, so external
    /// implementations inherit correct (if unaccelerated) behaviour;
    /// the in-crate detectors override it with kernels that hoist
    /// config constants, keep state in locals and sum whole averaging
    /// windows with tight slice loops.
    ///
    /// `fired` is not cleared — callers own its lifecycle so one
    /// allocation can be reused across drains.
    ///
    /// [`observe`]: RejuvenationDetector::observe
    fn observe_batch(&mut self, values: &[f64], fired: &mut Vec<u64>, base_seq: u64) {
        for (i, &value) in values.iter().enumerate() {
            if self.observe(value).is_rejuvenate() {
                fired.push(base_seq + i as u64);
            }
        }
    }

    /// Feeds one observation produced at `at_secs` (seconds of
    /// simulation or wall-clock time). The paper's algorithms are
    /// index-based, so the default ignores the timestamp and defers to
    /// [`RejuvenationDetector::observe`]; monitoring façades override
    /// this to propagate timestamps into latency instrumentation. The
    /// decision must never depend on `at_secs`.
    fn observe_at(&mut self, at_secs: f64, value: f64) -> Decision {
        let _ = at_secs;
        self.observe(value)
    }

    /// Clears all internal state back to the post-construction state.
    fn reset(&mut self);

    /// Short algorithm name ("SRAA", "SARAA", "CLTA", …) for reports.
    fn name(&self) -> &'static str;

    /// The number of rejuvenations this detector has triggered so far.
    fn rejuvenation_count(&self) -> u64;

    /// Captures the complete internal state (configuration included) as
    /// a serialisable [`DetectorSnapshot`], or `None` for detectors that
    /// do not support checkpointing.
    ///
    /// A snapshot taken mid-window must resume *behaviour-identically*:
    /// restoring it and feeding the same suffix of observations yields
    /// the same decisions and trigger counts as the uninterrupted run.
    fn snapshot(&self) -> Option<DetectorSnapshot> {
        None
    }

    /// Replaces the internal state (configuration included) with the
    /// snapshot's.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if this detector does not
    /// implement checkpointing, [`SnapshotError::KindMismatch`] if the
    /// snapshot belongs to a different detector kind.
    fn restore(&mut self, snapshot: &DetectorSnapshot) -> Result<(), SnapshotError> {
        let _ = snapshot;
        Err(SnapshotError::Unsupported {
            detector: self.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_helpers() {
        assert!(Decision::Rejuvenate.is_rejuvenate());
        assert!(!Decision::Continue.is_rejuvenate());
        assert_eq!(Decision::Continue.to_string(), "continue");
        assert_eq!(Decision::Rejuvenate.to_string(), "rejuvenate");
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_boxed(_d: Box<dyn RejuvenationDetector>) {}
    }
}
