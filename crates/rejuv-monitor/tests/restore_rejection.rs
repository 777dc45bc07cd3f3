//! Exhaustive restore-rejection coverage: every way a checkpoint can
//! disagree with the configured supervisor — snapshot version, shard
//! count, per-shard detector kind (all ordered kind pairs), and
//! same-kind spec drift, per-shard histogram shape (bounds, bucket
//! count, count total) — must return its typed [`RestoreError`]
//! *without mutating supervisor state*: the report (digests included)
//! is byte-identical before and after the failed restore. Two things
//! restore accepts are pinned too: a spec-less checkpoint from an older
//! build (kind-checked; the configured spec stays), and a checkpoint
//! whose `metrics` section disagrees with its shards (never read).

use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{
    Histogram, HistogramProblem, RestoreError, Supervisor, SupervisorConfig, SupervisorSnapshot,
    SNAPSHOT_VERSION, SNAPSHOT_VERSION_DLQ,
};

fn supervisor_of(kinds: &[DetectorKind]) -> Supervisor {
    let specs: Vec<DetectorSpec> = kinds.iter().map(|&k| DetectorSpec::new(k)).collect();
    Supervisor::with_specs(SupervisorConfig::default(), &specs).expect("default specs build")
}

/// Feeds a deterministic stream so the supervisor has non-trivial
/// digests and counters to preserve.
fn warm_up(sup: &mut Supervisor) {
    for i in 0..120u64 {
        let shard = (i as usize) % sup.shard_count();
        let value = if i % 11 == 0 {
            70.0
        } else {
            4.0 + (i % 3) as f64
        };
        sup.process_sync(shard, value).unwrap();
    }
}

#[test]
fn every_kind_pair_mismatch_is_rejected_without_mutation() {
    for &donor_kind in &DetectorKind::ALL {
        for &target_kind in &DetectorKind::ALL {
            if donor_kind == target_kind {
                continue;
            }
            let mut donor = supervisor_of(&[donor_kind]);
            warm_up(&mut donor);
            let checkpoint = donor.snapshot();

            let mut target = supervisor_of(&[target_kind]);
            warm_up(&mut target);
            let before = target.report();

            let err = target
                .restore(&checkpoint)
                .expect_err("cross-kind restore must fail");
            assert!(
                matches!(err, RestoreError::Detector { shard: 0, .. }),
                "{donor_kind:?} checkpoint into {target_kind:?} supervisor: \
                 expected a Detector kind error, got {err:?}"
            );
            assert_eq!(
                target.report(),
                before,
                "failed {donor_kind:?}->{target_kind:?} restore must leave no trace"
            );
        }
    }
}

#[test]
fn kind_mismatch_on_a_later_shard_names_that_shard() {
    // First shard agrees, second does not: validation must reach shard 1
    // and must not have touched shard 0 when it fails.
    let mut donor = supervisor_of(&[DetectorKind::Sraa, DetectorKind::Clta]);
    warm_up(&mut donor);
    let checkpoint = donor.snapshot();

    let mut target = supervisor_of(&[DetectorKind::Sraa, DetectorKind::Cusum]);
    warm_up(&mut target);
    let before = target.report();
    let err = target.restore(&checkpoint).expect_err("shard 1 mismatches");
    assert!(matches!(err, RestoreError::Detector { shard: 1, .. }));
    assert_eq!(target.report(), before);
}

#[test]
fn version_mismatch_is_rejected_without_mutation() {
    let mut donor = supervisor_of(&[DetectorKind::Sraa]);
    warm_up(&mut donor);
    // `SNAPSHOT_VERSION_DLQ` (v4) is the one *higher* version restore
    // accepts — everything else must be rejected.
    for bad_version in [0, SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION_DLQ + 1, 99] {
        let mut checkpoint = donor.snapshot();
        checkpoint.version = bad_version;
        let mut target = supervisor_of(&[DetectorKind::Sraa]);
        warm_up(&mut target);
        let before = target.report();
        assert_eq!(
            target.restore(&checkpoint),
            Err(RestoreError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: bad_version,
            })
        );
        assert_eq!(target.report(), before);
    }
}

#[test]
fn shard_count_mismatch_is_rejected_without_mutation() {
    let mut donor = supervisor_of(&[DetectorKind::Sraa, DetectorKind::Clta]);
    warm_up(&mut donor);
    let checkpoint = donor.snapshot();
    for target_kinds in [
        &[DetectorKind::Sraa][..],
        &[DetectorKind::Sraa, DetectorKind::Clta, DetectorKind::Cusum][..],
    ] {
        let mut target = supervisor_of(target_kinds);
        warm_up(&mut target);
        let before = target.report();
        assert_eq!(
            target.restore(&checkpoint),
            Err(RestoreError::ShardCountMismatch {
                expected: target_kinds.len(),
                found: 2,
            })
        );
        assert_eq!(target.report(), before);
    }
}

#[test]
fn same_kind_knob_drift_is_rejected_without_mutation() {
    // Same detector kind everywhere, but shard 1's knobs drifted:
    // restore must refuse with SpecMismatch naming the shard, values
    // and leave the target untouched.
    let base = DetectorSpec::new(DetectorKind::Sraa);
    let mut drifted = base;
    drifted.depth = base.depth + 2;

    let mut donor = Supervisor::with_specs(SupervisorConfig::default(), &[base, drifted]).unwrap();
    warm_up(&mut donor);
    let checkpoint = donor.snapshot();

    let mut target = Supervisor::with_specs(SupervisorConfig::default(), &[base, base]).unwrap();
    warm_up(&mut target);
    let before = target.report();
    assert_eq!(
        target.restore(&checkpoint),
        Err(RestoreError::SpecMismatch {
            shard: 1,
            expected: Box::new(base),
            found: Box::new(drifted),
        })
    );
    assert_eq!(target.report(), before);
}

/// `h` rebuilt through its serialised form with one field replaced —
/// the edit a hand-modified or foreign checkpoint file carries.
fn edited(h: &Histogram, bounds: &[f64], counts: &[u64], count: u64) -> Histogram {
    let json = format!(
        r#"{{"bounds":{},"count":{count},"counts":{},"sum":{}}}"#,
        serde_json::to_string(bounds).unwrap(),
        serde_json::to_string(counts).unwrap(),
        serde_json::to_string(&h.sum()).unwrap(),
    );
    serde_json::from_str(&json).expect("edited histogram parses")
}

/// Restores `checkpoint` into a warmed-up copy of the donor's topology
/// and requires `expected` with the report byte-identical afterwards.
fn assert_rejected_without_mutation(
    kinds: &[DetectorKind],
    checkpoint: &SupervisorSnapshot,
    expected: RestoreError,
) {
    let mut target = supervisor_of(kinds);
    warm_up(&mut target);
    let before = serde_json::to_string(&target.report()).unwrap();
    assert_eq!(target.restore(checkpoint), Err(expected));
    assert_eq!(serde_json::to_string(&target.report()).unwrap(), before);
}

#[test]
fn reordered_histogram_bounds_are_rejected_without_mutation() {
    // Restored unchecked, this would panic in the next report's
    // `Histogram::merge` on the differing bounds.
    let kinds = [DetectorKind::Sraa, DetectorKind::Clta];
    let mut donor = supervisor_of(&kinds);
    warm_up(&mut donor);
    let mut checkpoint = donor.snapshot();
    let h = &checkpoint.shards[1].value_hist;
    let mut bounds = h.bounds().to_vec();
    bounds.swap(2, 3);
    checkpoint.shards[1].value_hist = edited(h, &bounds, h.counts(), h.count());
    assert_rejected_without_mutation(
        &kinds,
        &checkpoint,
        RestoreError::HistogramMismatch {
            shard: 1,
            histogram: "observation_value",
            problem: HistogramProblem::Bounds,
        },
    );
}

#[test]
fn truncated_histogram_counts_are_rejected_without_mutation() {
    // Restored unchecked, every later `record_slice` would silently
    // drop the counts of buckets 1 and up.
    let kinds = [DetectorKind::Sraa];
    let mut donor = supervisor_of(&kinds);
    warm_up(&mut donor);
    let mut checkpoint = donor.snapshot();
    let h = &checkpoint.shards[0].value_hist;
    checkpoint.shards[0].value_hist = edited(h, h.bounds(), &[1], h.count());
    assert_rejected_without_mutation(
        &kinds,
        &checkpoint,
        RestoreError::HistogramMismatch {
            shard: 0,
            histogram: "observation_value",
            problem: HistogramProblem::BucketCount {
                expected: 8,
                found: 1,
            },
        },
    );
}

#[test]
fn histogram_counts_that_miss_the_total_are_rejected_without_mutation() {
    let kinds = [DetectorKind::Sraa];
    let mut donor = supervisor_of(&kinds);
    warm_up(&mut donor);
    let pristine = donor.snapshot();

    let mut checkpoint = pristine.clone();
    let h = &pristine.shards[0].latency_hist;
    let mut counts = h.counts().to_vec();
    counts[0] += 1;
    let bucket_total = counts.iter().map(|&c| u128::from(c)).sum();
    checkpoint.shards[0].latency_hist = edited(h, h.bounds(), &counts, h.count());
    assert_rejected_without_mutation(
        &kinds,
        &checkpoint,
        RestoreError::HistogramMismatch {
            shard: 0,
            histogram: "inter_observation_latency",
            problem: HistogramProblem::CountMismatch {
                count: h.count(),
                bucket_total,
            },
        },
    );

    // Counts whose sum overflows a `u64` are a mismatch, not a panic.
    let mut checkpoint = pristine.clone();
    let h = &pristine.shards[0].value_hist;
    let mut counts = vec![0; h.counts().len()];
    counts[0] = u64::MAX;
    counts[1] = 1;
    checkpoint.shards[0].value_hist = edited(h, h.bounds(), &counts, u64::MAX);
    assert_rejected_without_mutation(
        &kinds,
        &checkpoint,
        RestoreError::HistogramMismatch {
            shard: 0,
            histogram: "observation_value",
            problem: HistogramProblem::CountMismatch {
                count: u64::MAX,
                bucket_total: u128::from(u64::MAX) + 1,
            },
        },
    );
}

#[test]
fn foreign_histogram_bounds_are_rejected_without_mutation() {
    // A batch histogram carrying the latency bounds (well-formed, just
    // not this instrument's), and a bound that is NaN: both are bounds
    // mismatches, named by shard and histogram.
    let kinds = [DetectorKind::Sraa, DetectorKind::Cusum];
    let mut donor = supervisor_of(&kinds);
    warm_up(&mut donor);
    let pristine = donor.snapshot();

    let mut checkpoint = pristine.clone();
    checkpoint.shards[1].batch_hist = pristine.shards[1].latency_hist.clone();
    assert_rejected_without_mutation(
        &kinds,
        &checkpoint,
        RestoreError::HistogramMismatch {
            shard: 1,
            histogram: "drain_batch_size",
            problem: HistogramProblem::Bounds,
        },
    );

    let mut checkpoint = pristine.clone();
    let h = &pristine.shards[0].batch_hist;
    let mut bounds = h.bounds().to_vec();
    bounds[0] = f64::NAN;
    checkpoint.shards[0].batch_hist = edited(h, &bounds, h.counts(), h.count());
    assert_rejected_without_mutation(
        &kinds,
        &checkpoint,
        RestoreError::HistogramMismatch {
            shard: 0,
            histogram: "drain_batch_size",
            problem: HistogramProblem::Bounds,
        },
    );
}

/// `checkpoint` as an older build that ran opaque detectors wrote it:
/// every shard's `spec` is `null` in the file.
fn without_specs(checkpoint: &SupervisorSnapshot) -> SupervisorSnapshot {
    let mut json = serde_json::to_string(checkpoint).unwrap();
    while let Some(start) = json.find(r#""spec":{"#) {
        let end = start + json[start..].find('}').expect("flat spec object") + 1;
        json.replace_range(start..end, r#""spec":null"#);
    }
    serde_json::from_str(&json).expect("a spec-less checkpoint parses")
}

#[test]
fn spec_less_checkpoint_restores_and_keeps_the_configured_spec() {
    let spec = DetectorSpec::new(DetectorKind::Sraa);
    let mut donor = supervisor_of(&[DetectorKind::Sraa]);
    warm_up(&mut donor);
    let legacy = without_specs(&donor.snapshot());
    assert_eq!(legacy.shards[0].spec, None);

    // Restores under the kind check alone; the configured spec stays.
    let mut target = supervisor_of(&[DetectorKind::Sraa]);
    target
        .restore(&legacy)
        .expect("a spec-less checkpoint restores");
    assert_eq!(target.spec(0), &spec);
    assert_eq!(target.report(), donor.report());
    let next = target.snapshot();
    assert_eq!(next.shards[0].spec, Some(spec), "checkpoints carry it on");
    assert_eq!(next, donor.snapshot());

    // A drifted spec is still refused, leaving no trace (G4).
    let mut drifted = spec;
    drifted.buckets += 1;
    let mut bad = next.clone();
    bad.shards[0].spec = Some(drifted);
    let before = serde_json::to_string(&target.report()).unwrap();
    assert_eq!(
        target.restore(&bad),
        Err(RestoreError::SpecMismatch {
            shard: 0,
            expected: Box::new(spec),
            found: Box::new(drifted),
        })
    );
    assert_eq!(serde_json::to_string(&target.report()).unwrap(), before);

    // A workload-shift hot reload still diffs against the kept spec.
    let mut shifted = spec;
    shifted.mu = 7.5;
    assert_eq!(target.reload_specs(&[shifted]), Ok(vec![0]));
    assert_eq!(target.snapshot().shards[0].spec, Some(shifted));
}

#[test]
fn checkpoint_metrics_are_rebuilt_not_restored() {
    // The report derives from shard state alone: a foreign gauge and a
    // tampered topology gauge in the checkpoint's `metrics` section
    // must not leak into the resumed run.
    let kinds = [DetectorKind::Sraa, DetectorKind::Clta];
    let mut live = supervisor_of(&kinds);
    warm_up(&mut live);
    let mut checkpoint = live.snapshot();
    let gauges = &mut checkpoint.metrics.gauges;
    gauges.insert("shards".to_owned(), 99.0);
    gauges.insert("foreign_gauge".to_owned(), 1.0);

    let mut resumed = supervisor_of(&kinds);
    resumed.restore(&checkpoint).expect("shard state fits");
    warm_up(&mut live);
    warm_up(&mut resumed);
    assert_eq!(
        serde_json::to_string(&resumed.report()).unwrap(),
        serde_json::to_string(&live.report()).unwrap()
    );
}
