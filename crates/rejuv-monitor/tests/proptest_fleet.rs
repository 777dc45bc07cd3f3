//! Property-based tests for heterogeneous fleets: an arbitrary mixed
//! [`FleetConfig`] must survive serialise→parse unchanged, and an
//! arbitrary mixed-fleet [`SupervisorSnapshot`] must survive
//! restore→snapshot (and a JSON round trip) unchanged — the fleet-level
//! extension of `rejuv-core`'s per-detector snapshot round-trip suite.

use proptest::prelude::*;
use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{FleetConfig, Supervisor, SupervisorConfig, SupervisorSnapshot, UNTIMED};

/// An arbitrary valid spec: any detector kind with knobs drawn from
/// ranges every kind's builder accepts, so `FleetConfig::new` never
/// rejects a generated fleet.
fn spec_strategy() -> impl Strategy<Value = DetectorSpec> {
    (
        0usize..DetectorKind::ALL.len(),
        (1.0f64..10.0, 0.5f64..10.0),
        (1usize..40, 1usize..6, 1u32..5),
        (1.0f64..3.0, 0.0f64..1.5, 0.5f64..8.0),
        (0.05f64..1.0, 1.0f64..4.0),
    )
        .prop_map(
            |(
                kind,
                (mu, sigma),
                (sample_size, buckets, depth),
                (quantile, reference, decision),
                (weight, limit),
            )| {
                let mut spec = DetectorSpec::new(DetectorKind::ALL[kind]);
                spec.mu = mu;
                spec.sigma = sigma;
                spec.sample_size = sample_size;
                spec.buckets = buckets;
                spec.depth = depth;
                spec.quantile = quantile;
                spec.reference = reference;
                spec.decision = decision;
                spec.weight = weight;
                spec.limit = limit;
                spec
            },
        )
}

fn fleet_strategy() -> impl Strategy<Value = FleetConfig> {
    proptest::collection::vec(spec_strategy(), 1..8)
        .prop_map(|specs| FleetConfig::new(specs).expect("generated specs are valid"))
}

proptest! {
    /// `to_toml` renders with shortest-round-trip float formatting, so
    /// parsing the rendered file must reproduce the fleet exactly —
    /// every kind, every knob, bit-for-bit floats.
    #[test]
    fn fleet_config_toml_round_trips(fleet in fleet_strategy()) {
        let text = fleet.to_toml();
        let back = FleetConfig::parse(&text).expect("rendered fleet config parses");
        prop_assert_eq!(back, fleet);
    }

    /// A mixed-fleet checkpoint restored into a fresh same-fleet
    /// supervisor and re-snapshotted must be unchanged, including after
    /// a JSON round trip — digests, counters, metrics and the carried
    /// per-shard specs all survive.
    #[test]
    fn mixed_fleet_snapshot_round_trips(
        fleet in fleet_strategy(),
        values in proptest::collection::vec(0.0f64..60.0, 0..300),
    ) {
        let config = SupervisorConfig::default();
        let mut live = Supervisor::with_specs(config, fleet.specs()).unwrap();
        let shards = fleet.shard_count();
        for (i, &v) in values.iter().enumerate() {
            live.process_sync(i % shards, v, UNTIMED).unwrap();
        }
        let snapshot = live.snapshot();

        let json = serde_json::to_string(&snapshot).expect("snapshot serialises");
        let reparsed: SupervisorSnapshot =
            serde_json::from_str(&json).expect("snapshot deserialises");
        prop_assert_eq!(&reparsed, &snapshot, "JSON round trip must be lossless");

        let mut fresh = Supervisor::with_specs(config, fleet.specs()).unwrap();
        fresh.restore(&reparsed).expect("same-fleet restore succeeds");
        let again = fresh.snapshot();
        prop_assert_eq!(&again, &snapshot);
    }
}
