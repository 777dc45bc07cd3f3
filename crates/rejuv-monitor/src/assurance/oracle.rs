//! Named guarantee checkers for the crash-simulation harness.
//!
//! Each oracle inspects the artifacts a crashed-and-resumed run leaves
//! behind — the JSONL trace, the on-disk checkpoint, the final report —
//! and either vouches for one named guarantee or returns a
//! [`Violation`] describing exactly how it broke:
//!
//! * **G1 — a checkpoint file is never torn.** Whatever instant the
//!   crash landed at, the *published* checkpoint path parses, carries
//!   the current [`SNAPSHOT_VERSION`], and matches the fleet topology
//!   ([`check_g1_checkpoint_integrity`]).
//! * **G2 — resumed replay ≡ uninterrupted replay.** Replaying the
//!   surviving trace from the surviving checkpoint converges with
//!   replaying it from scratch: byte-identical reports when the
//!   checkpoint was taken at a quiescent (empty-queue) instant, and
//!   identical decision digests/counters otherwise
//!   ([`check_g2_replay_convergence`]).
//! * **G3 — shutdown drains every accepted observation.** At clean
//!   completion every sample the queues accepted since the resume
//!   baseline has been observed by a detector, and drops are accounted
//!   exactly once: `accepted − processed` never grows past the
//!   baseline's in-flight debt and `dropped` never moves without a
//!   drop ([`check_g3_no_loss`]).
//! * **G4 — restore never mutates on rejection.** A rejected
//!   checkpoint (wrong version, shard count, detector kind, or spec
//!   drift) leaves the supervisor byte-for-byte untouched
//!   ([`check_g4_rejection_is_pure`]).

use crate::event::MonitorEvent;
use crate::supervisor::{
    MonitorReport, Supervisor, SupervisorConfig, SupervisorSnapshot, SNAPSHOT_VERSION,
};
use crate::{checkpoint, replay_fleet_events};
use rejuv_core::DetectorSpec;
use std::fmt;
use std::path::Path;

/// One broken guarantee, as reported by an oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which named guarantee broke: `"G1"` … `"G4"`.
    pub guarantee: &'static str,
    /// What exactly was observed.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated: {}", self.guarantee, self.detail)
    }
}

impl std::error::Error for Violation {}

fn violation(guarantee: &'static str, detail: impl Into<String>) -> Violation {
    Violation {
        guarantee,
        detail: detail.into(),
    }
}

/// **G1.** Loads and validates the published checkpoint at `path`.
///
/// Returns `Ok(None)` when no checkpoint was ever published (a crash
/// before the first cadence crossing leaves nothing, which is fine);
/// `Ok(Some(snapshot))` when the file parses, carries the current
/// format version and describes `expected_shards` shards. Any torn,
/// truncated or topology-drifted file is a violation — the atomic
/// write-temp/fsync/rename pipeline must never publish one.
///
/// # Errors
///
/// [`Violation`] tagged `"G1"` describing the torn or invalid file.
pub fn check_g1_checkpoint_integrity(
    path: &Path,
    expected_shards: usize,
) -> Result<Option<SupervisorSnapshot>, Violation> {
    if !path.exists() {
        return Ok(None);
    }
    let snapshot = checkpoint::load_snapshot(path)
        .map_err(|e| violation("G1", format!("published checkpoint does not load: {e}")))?;
    if snapshot.version != SNAPSHOT_VERSION {
        return Err(violation(
            "G1",
            format!(
                "checkpoint version {} (expected {SNAPSHOT_VERSION})",
                snapshot.version
            ),
        ));
    }
    if snapshot.shards.len() != expected_shards {
        return Err(violation(
            "G1",
            format!(
                "checkpoint describes {} shard(s), run had {expected_shards}",
                snapshot.shards.len()
            ),
        ));
    }
    for (i, shard) in snapshot.shards.iter().enumerate() {
        if shard.processed < shard.rejuvenations {
            return Err(violation(
                "G1",
                format!("shard {i}: more rejuvenations than observations"),
            ));
        }
        if shard.accepted < shard.processed {
            return Err(violation(
                "G1",
                format!(
                    "shard {i}: processed {} exceeds accepted {}",
                    shard.processed, shard.accepted
                ),
            ));
        }
    }
    Ok(Some(snapshot))
}

/// What [`check_g2_replay_convergence`] proved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum G2Outcome {
    /// No checkpoint survived; the fresh replay alone completed — the
    /// guarantee holds vacuously.
    FreshOnly,
    /// The checkpoint was quiescent (every shard had drained all
    /// accepted samples, nothing dropped): the resumed and fresh
    /// reports were byte-identical.
    ByteIdentical,
    /// The checkpoint carried in-flight queue debt (accepted but not
    /// yet drained samples, which a crash legitimately loses): decision
    /// digests, processed counts and rejuvenations were identical.
    DigestIdentical,
}

/// **G2.** Replays `events` twice — from scratch and resumed from
/// `snapshot` — and checks the runs converge.
///
/// When the snapshot was taken at a quiescent instant (per shard,
/// `accepted == processed` and `dropped == 0`, which is how every
/// checkpoint this crate takes on the synchronous path looks) the two
/// final reports must serialise to identical bytes. A checkpoint taken
/// while queues held in-flight samples resumes the *lifetime* accepted
/// counter including samples the crash destroyed, so the comparison
/// relaxes to the decision-relevant state: per-shard digests, processed
/// counts, and rejuvenation counts.
///
/// # Errors
///
/// [`Violation`] tagged `"G2"` when either replay fails or the runs
/// diverge.
pub fn check_g2_replay_convergence(
    events: &[MonitorEvent],
    config: SupervisorConfig,
    specs: &[DetectorSpec],
    snapshot: Option<&SupervisorSnapshot>,
) -> Result<G2Outcome, Violation> {
    let fresh = replay_fleet_events(events, config, specs, None)
        .map_err(|e| violation("G2", format!("fresh replay failed: {e}")))?;
    let Some(snapshot) = snapshot else {
        return Ok(G2Outcome::FreshOnly);
    };
    let resumed = replay_fleet_events(events, config, specs, Some(snapshot))
        .map_err(|e| violation("G2", format!("resumed replay failed: {e}")))?;
    let fresh = fresh.report();
    let resumed = resumed.report();
    let quiescent = snapshot
        .shards
        .iter()
        .all(|s| s.accepted == s.processed && s.dropped == 0);
    if quiescent {
        let fresh_bytes = serde_json::to_string(&fresh)
            .map_err(|e| violation("G2", format!("cannot serialise fresh report: {e}")))?;
        let resumed_bytes = serde_json::to_string(&resumed)
            .map_err(|e| violation("G2", format!("cannot serialise resumed report: {e}")))?;
        if fresh_bytes != resumed_bytes {
            return Err(violation(
                "G2",
                first_divergence(&fresh, &resumed)
                    .unwrap_or_else(|| "reports differ outside per-shard state".to_owned()),
            ));
        }
        return Ok(G2Outcome::ByteIdentical);
    }
    if let Some(diff) = first_divergence(&fresh, &resumed) {
        return Err(violation("G2", diff));
    }
    Ok(G2Outcome::DigestIdentical)
}

/// The first decision-relevant difference between two reports, if any.
fn first_divergence(fresh: &MonitorReport, resumed: &MonitorReport) -> Option<String> {
    if fresh.shards.len() != resumed.shards.len() {
        return Some(format!(
            "shard count {} vs {}",
            fresh.shards.len(),
            resumed.shards.len()
        ));
    }
    for (f, r) in fresh.shards.iter().zip(&resumed.shards) {
        if f.digest != r.digest {
            return Some(format!(
                "shard {}: digest {} (fresh) vs {} (resumed)",
                f.shard, f.digest, r.digest
            ));
        }
        if f.processed != r.processed {
            return Some(format!(
                "shard {}: processed {} (fresh) vs {} (resumed)",
                f.shard, f.processed, r.processed
            ));
        }
        if f.rejuvenations != r.rejuvenations {
            return Some(format!(
                "shard {}: rejuvenations {} (fresh) vs {} (resumed)",
                f.shard, f.rejuvenations, r.rejuvenations
            ));
        }
    }
    None
}

/// **G3.** Checks the no-loss accounting of a *completed* run against
/// the checkpoint it resumed from (pass `None` for a fresh run; the
/// baseline is then all zeros).
///
/// A checkpoint may legitimately record samples that were accepted into
/// a queue but not yet drained when it was taken — a real crash
/// destroys those, and nothing can observe them afterwards. That debt
/// is the *only* slack the guarantee allows: at clean shutdown every
/// shard must satisfy
///
/// * `accepted − processed == baseline.accepted − baseline.processed`
///   (every sample accepted since the resume was drained and observed),
/// * `dropped >= baseline.dropped` and, when `lossless` is set (the
///   workload used only blocking producers), `dropped ==
///   baseline.dropped` (drops are accounted, never invented).
///
/// # Errors
///
/// [`Violation`] tagged `"G3"` naming the shard whose accounting leaks.
pub fn check_g3_no_loss(
    report: &MonitorReport,
    baseline: Option<&SupervisorSnapshot>,
    lossless: bool,
) -> Result<(), Violation> {
    for (i, shard) in report.shards.iter().enumerate() {
        let (base_accepted, base_processed, base_dropped) = baseline
            .and_then(|s| s.shards.get(i))
            .map(|s| (s.accepted, s.processed, s.dropped))
            .unwrap_or((0, 0, 0));
        let debt = base_accepted - base_processed;
        if shard.accepted < shard.processed {
            return Err(violation(
                "G3",
                format!(
                    "shard {i}: processed {} exceeds accepted {}",
                    shard.processed, shard.accepted
                ),
            ));
        }
        if shard.accepted - shard.processed != debt {
            return Err(violation(
                "G3",
                format!(
                    "shard {i}: {} accepted sample(s) unobserved at shutdown \
                     (baseline in-flight debt was {debt})",
                    shard.accepted - shard.processed
                ),
            ));
        }
        if shard.dropped < base_dropped {
            return Err(violation(
                "G3",
                format!(
                    "shard {i}: dropped count went backwards ({} < {base_dropped})",
                    shard.dropped
                ),
            ));
        }
        if lossless && shard.dropped != base_dropped {
            return Err(violation(
                "G3",
                format!(
                    "shard {i}: {} drop(s) invented under a lossless workload",
                    shard.dropped - base_dropped
                ),
            ));
        }
    }
    Ok(())
}

/// **G4.** Feeds a rejectable snapshot to `supervisor.restore` and
/// checks both halves of the contract: the restore *is* rejected (with
/// the typed [`crate::supervisor::RestoreError`]), and the supervisor's
/// serialised report is byte-for-byte what it was before the attempt —
/// rejection never mutates.
///
/// # Errors
///
/// [`Violation`] tagged `"G4"` when the bad snapshot was accepted or
/// the rejection left a mark.
pub fn check_g4_rejection_is_pure(
    supervisor: &mut Supervisor,
    bad: &SupervisorSnapshot,
) -> Result<(), Violation> {
    let before = serde_json::to_string(&supervisor.report())
        .map_err(|e| violation("G4", format!("cannot serialise report: {e}")))?;
    match supervisor.restore(bad) {
        Ok(()) => {
            return Err(violation(
                "G4",
                "a corrupted snapshot was accepted by restore".to_owned(),
            ))
        }
        Err(_typed) => {}
    }
    let after = serde_json::to_string(&supervisor.report())
        .map_err(|e| violation("G4", format!("cannot serialise report: {e}")))?;
    if before != after {
        return Err(violation(
            "G4",
            "rejected restore mutated the supervisor's report".to_owned(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::UNTIMED;
    use crate::supervisor::SupervisorConfig;
    use rejuv_core::{DetectorKind, DetectorSpec};

    fn specs() -> Vec<DetectorSpec> {
        vec![
            DetectorSpec::with_baseline(DetectorKind::Sraa, 5.0, 5.0),
            DetectorSpec::with_baseline(DetectorKind::Cusum, 5.0, 5.0),
        ]
    }

    fn seeded_supervisor() -> Supervisor {
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &specs()).unwrap();
        for i in 0..120u64 {
            let shard = (i % 2) as usize;
            sup.process_sync(shard, if shard == 1 { 55.0 } else { 4.0 }, UNTIMED)
                .unwrap();
        }
        sup
    }

    #[test]
    fn g1_accepts_a_round_tripped_checkpoint_and_rejects_torn_bytes() {
        let dir = std::env::temp_dir().join(format!("rejuv-oracle-g1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let sup = seeded_supervisor();
        let snap = sup.snapshot();
        checkpoint::save_snapshot(&path, &snap).unwrap();
        assert_eq!(
            check_g1_checkpoint_integrity(&path, 2).unwrap(),
            Some(snap.clone())
        );
        assert_eq!(
            check_g1_checkpoint_integrity(&dir.join("absent.json"), 2).unwrap(),
            None
        );

        // A mid-JSON cut is a violation, not a panic.
        let full = serde_json::to_string_pretty(&snap).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = check_g1_checkpoint_integrity(&path, 2).unwrap_err();
        assert_eq!(err.guarantee, "G1");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn g3_accepts_clean_accounting_and_flags_unobserved_samples() {
        let sup = seeded_supervisor();
        let report = sup.report();
        check_g3_no_loss(&report, None, true).unwrap();

        let mut leaky = report.clone();
        leaky.shards[0].accepted += 3;
        let err = check_g3_no_loss(&leaky, None, true).unwrap_err();
        assert_eq!(err.guarantee, "G3");
        assert!(err.detail.contains("unobserved"), "{}", err.detail);
    }

    #[test]
    fn g4_passes_on_the_typed_rejections_and_catches_accepted_garbage() {
        let mut sup = seeded_supervisor();
        let mut bad = sup.snapshot();
        bad.version += 9;
        check_g4_rejection_is_pure(&mut sup, &bad).unwrap();

        // A snapshot that *is* valid must make the oracle complain that
        // restore accepted it.
        let good = sup.snapshot();
        let err = check_g4_rejection_is_pure(&mut sup, &good).unwrap_err();
        assert_eq!(err.guarantee, "G4");
        assert!(err.detail.contains("accepted"), "{}", err.detail);
    }
}
