//! What each detector kind decides on response times no healthy system
//! reports: NaN, ±inf, negative values, subnormals and `-0.0`.
//!
//! `proptest_batch.rs` salts its streams with NaN and +inf but pins only
//! `observe_batch` ≡ `observe`; this table pins the *semantics* — the
//! fired sequence numbers and the final detector state of each of the
//! six kinds on a set of adversarial streams — so a kernel rewrite that
//! keeps batch ≡ scalar but changes what a NaN or an infinity does is
//! caught too. DESIGN.md "Detector inputs" spells the rules out per kind.
//!
//! Every case runs three ways (one `observe` per value, one
//! `observe_batch` over the whole stream, `observe_batch` in chunks of
//! five) and all three must agree with the pinned row. On an intentional
//! semantic change the failure prints the whole new table.

use rejuv_core::{DetectorKind, DetectorSnapshot, DetectorSpec, RejuvenationDetector};

const STREAM_LEN: usize = 48;

/// Named input streams.
type Streams = Vec<(&'static str, Vec<f64>)>;

/// `(name, cycle)`: each stream repeats its cycle to `STREAM_LEN` values.
fn streams() -> Streams {
    let tiny = f64::from_bits(1); // smallest subnormal
    let cycles: [(&'static str, &[f64]); 8] = [
        ("nan", &[f64::NAN]),
        ("+inf", &[f64::INFINITY]),
        ("-inf", &[f64::NEG_INFINITY]),
        ("+inf,-inf", &[f64::INFINITY, f64::NEG_INFINITY]),
        ("negative", &[-7.5, -0.5, -1e300]),
        (
            "zeros+subnormals",
            &[-0.0, 0.0, tiny, -tiny, f64::MIN_POSITIVE / 2.0],
        ),
        ("max", &[f64::MAX]),
        (
            "salted shift",
            &[
                40.0,
                f64::NAN,
                40.0,
                f64::INFINITY,
                40.0,
                f64::NEG_INFINITY,
                40.0,
                -0.0,
            ],
        ),
    ];
    cycles
        .iter()
        .map(|&(name, cycle)| {
            let stream = cycle.iter().copied().cycle().take(STREAM_LEN).collect();
            (name, stream)
        })
        .collect()
}

/// `(baseline label, spec, stream names)`: every kind at the paper's SLA
/// baseline on every stream, and at `µX = 0, σX = 1` — where bucket 0's
/// target is `0.0` itself — on the signed-zero/subnormal stream.
fn cases() -> Vec<(&'static str, DetectorSpec, Streams)> {
    let mut cases = Vec::new();
    for kind in DetectorKind::ALL {
        cases.push(("µ5σ5", DetectorSpec::new(kind), streams()));
    }
    for kind in DetectorKind::ALL {
        let zeros = streams()
            .into_iter()
            .filter(|(name, _)| *name == "zeros+subnormals")
            .collect();
        cases.push(("µ0σ1", DetectorSpec::with_baseline(kind, 0.0, 1.0), zeros));
    }
    cases
}

/// The carried state, without the (unchanged) configuration.
fn state(detector: &dyn RejuvenationDetector) -> String {
    match detector.snapshot().expect("every kind snapshots") {
        DetectorSnapshot::Sraa {
            window,
            chain,
            windows_seen,
            ..
        }
        | DetectorSnapshot::Saraa {
            window,
            chain,
            windows_seen,
            ..
        }
        | DetectorSnapshot::Static {
            window,
            chain,
            windows_seen,
            ..
        } => format!(
            "N={} d={} triggers={} seen={windows_seen} {window:?}",
            chain.bucket(),
            chain.count(),
            chain.triggers()
        ),
        DetectorSnapshot::Clta {
            window,
            windows_seen,
            triggers,
            ..
        } => format!("triggers={triggers} seen={windows_seen} {window:?}"),
        DetectorSnapshot::Cusum {
            statistic,
            triggers,
            ..
        } => format!("s={statistic:?} triggers={triggers}"),
        DetectorSnapshot::Ewma {
            statistic,
            decay_sq,
            triggers,
            ..
        } => format!("z={statistic:?} decay_sq={decay_sq:?} triggers={triggers}"),
    }
}

/// Fired sequence numbers and final state, through `observe` and through
/// `observe_batch` whole and in chunks of five; panics unless all three
/// agree.
fn run(spec: &DetectorSpec, stream: &[f64]) -> (Vec<u64>, String) {
    let mut scalar = spec.build().unwrap();
    let scalar_fired: Vec<u64> = (0..stream.len() as u64)
        .filter(|&i| scalar.observe(stream[i as usize]).is_rejuvenate())
        .collect();
    let scalar_state = state(scalar.as_ref());
    for chunk in [stream.len().max(1), 5] {
        let mut batch = spec.build().unwrap();
        let mut fired = Vec::new();
        for (c, values) in stream.chunks(chunk).enumerate() {
            batch.observe_batch(values, &mut fired, (c * chunk) as u64);
        }
        assert_eq!(fired, scalar_fired, "{} chunk {chunk}: fires", spec.kind);
        assert_eq!(
            state(batch.as_ref()),
            scalar_state,
            "{} chunk {chunk}: state",
            spec.kind
        );
    }
    (scalar_fired, scalar_state)
}

/// `(baseline, kind, stream, fired, final state)`.
type Row = (
    &'static str,
    &'static str,
    &'static str,
    &'static [u64],
    &'static str,
);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("µ5σ5", "sraa", "nan", &[], "N=0 d=0 triggers=0 seen=24 AveragingWindow { size: 2, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "sraa", "+inf", &[39], "N=1 d=0 triggers=1 seen=24 AveragingWindow { size: 2, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "sraa", "-inf", &[], "N=0 d=0 triggers=0 seen=24 AveragingWindow { size: 2, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "sraa", "+inf,-inf", &[], "N=0 d=0 triggers=0 seen=24 AveragingWindow { size: 2, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "sraa", "negative", &[], "N=0 d=0 triggers=0 seen=24 AveragingWindow { size: 2, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "sraa", "zeros+subnormals", &[], "N=0 d=0 triggers=0 seen=24 AveragingWindow { size: 2, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "sraa", "max", &[39], "N=1 d=0 triggers=1 seen=24 AveragingWindow { size: 2, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "sraa", "salted shift", &[], "N=0 d=1 triggers=0 seen=24 AveragingWindow { size: 2, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "saraa", "nan", &[], "N=0 d=0 triggers=0 seen=12 AveragingWindow { size: 4, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "saraa", "+inf", &[47], "N=0 d=0 triggers=1 seen=20 AveragingWindow { size: 4, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "saraa", "-inf", &[], "N=0 d=0 triggers=0 seen=12 AveragingWindow { size: 4, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "saraa", "+inf,-inf", &[], "N=0 d=0 triggers=0 seen=12 AveragingWindow { size: 4, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "saraa", "negative", &[], "N=0 d=0 triggers=0 seen=12 AveragingWindow { size: 4, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "saraa", "zeros+subnormals", &[], "N=0 d=0 triggers=0 seen=12 AveragingWindow { size: 4, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "saraa", "max", &[47], "N=0 d=0 triggers=1 seen=20 AveragingWindow { size: 4, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "saraa", "salted shift", &[], "N=0 d=0 triggers=0 seen=12 AveragingWindow { size: 4, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "clta", "nan", &[], "triggers=0 seen=1 AveragingWindow { size: 30, sum: NaN, filled: 18 }"),
    ("µ5σ5", "clta", "+inf", &[29], "triggers=1 seen=1 AveragingWindow { size: 30, sum: inf, filled: 18 }"),
    ("µ5σ5", "clta", "-inf", &[], "triggers=0 seen=1 AveragingWindow { size: 30, sum: -inf, filled: 18 }"),
    ("µ5σ5", "clta", "+inf,-inf", &[], "triggers=0 seen=1 AveragingWindow { size: 30, sum: NaN, filled: 18 }"),
    ("µ5σ5", "clta", "negative", &[], "triggers=0 seen=1 AveragingWindow { size: 30, sum: -6e300, filled: 18 }"),
    ("µ5σ5", "clta", "zeros+subnormals", &[], "triggers=0 seen=1 AveragingWindow { size: 30, sum: 3.3376107877608026e-308, filled: 18 }"),
    ("µ5σ5", "clta", "max", &[29], "triggers=1 seen=1 AveragingWindow { size: 30, sum: inf, filled: 18 }"),
    ("µ5σ5", "clta", "salted shift", &[], "triggers=0 seen=1 AveragingWindow { size: 30, sum: NaN, filled: 18 }"),
    ("µ5σ5", "static", "nan", &[], "N=0 d=0 triggers=0 seen=48 AveragingWindow { size: 1, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "static", "+inf", &[19, 39], "N=2 d=0 triggers=2 seen=48 AveragingWindow { size: 1, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "static", "-inf", &[], "N=0 d=0 triggers=0 seen=48 AveragingWindow { size: 1, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "static", "+inf,-inf", &[], "N=0 d=0 triggers=0 seen=48 AveragingWindow { size: 1, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "static", "negative", &[], "N=0 d=0 triggers=0 seen=48 AveragingWindow { size: 1, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "static", "zeros+subnormals", &[], "N=0 d=0 triggers=0 seen=48 AveragingWindow { size: 1, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "static", "max", &[19, 39], "N=2 d=0 triggers=2 seen=48 AveragingWindow { size: 1, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "static", "salted shift", &[], "N=3 d=0 triggers=0 seen=48 AveragingWindow { size: 1, sum: 0.0, filled: 0 }"),
    ("µ5σ5", "cusum", "nan", &[], "s=0.0 triggers=0"),
    ("µ5σ5", "cusum", "+inf", &[], "s=0.0 triggers=0"),
    ("µ5σ5", "cusum", "-inf", &[], "s=0.0 triggers=0"),
    ("µ5σ5", "cusum", "+inf,-inf", &[], "s=0.0 triggers=0"),
    ("µ5σ5", "cusum", "negative", &[], "s=0.0 triggers=0"),
    ("µ5σ5", "cusum", "zeros+subnormals", &[], "s=0.0 triggers=0"),
    ("µ5σ5", "cusum", "max", &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47], "s=0.0 triggers=48"),
    ("µ5σ5", "cusum", "salted shift", &[0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 42, 44, 46], "s=0.0 triggers=24"),
    ("µ5σ5", "ewma", "nan", &[], "z=5.0 decay_sq=1.0 triggers=0"),
    ("µ5σ5", "ewma", "+inf", &[], "z=5.0 decay_sq=1.0 triggers=0"),
    ("µ5σ5", "ewma", "-inf", &[], "z=5.0 decay_sq=1.0 triggers=0"),
    ("µ5σ5", "ewma", "+inf,-inf", &[], "z=5.0 decay_sq=1.0 triggers=0"),
    ("µ5σ5", "ewma", "negative", &[], "z=-4.324319970620299e299 decay_sq=1.0136342709353884e-12 triggers=0"),
    ("µ5σ5", "ewma", "zeros+subnormals", &[], "z=5.033970279350556e-6 decay_sq=1.0136342709353884e-12 triggers=0"),
    ("µ5σ5", "ewma", "max", &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47], "z=5.0 decay_sq=1.0 triggers=48"),
    ("µ5σ5", "ewma", "salted shift", &[0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 42, 44, 46], "z=3.75 decay_sq=0.5625 triggers=24"),
    ("µ0σ1", "sraa", "zeros+subnormals", &[], "N=0 d=0 triggers=0 seen=24 AveragingWindow { size: 2, sum: 0.0, filled: 0 }"),
    ("µ0σ1", "saraa", "zeros+subnormals", &[], "N=0 d=3 triggers=0 seen=12 AveragingWindow { size: 4, sum: 5e-324, filled: 3 }"),
    ("µ0σ1", "clta", "zeros+subnormals", &[], "triggers=0 seen=1 AveragingWindow { size: 30, sum: 3.3376107877608026e-308, filled: 18 }"),
    ("µ0σ1", "static", "zeros+subnormals", &[], "N=0 d=1 triggers=0 seen=48 AveragingWindow { size: 1, sum: 0.0, filled: 0 }"),
    ("µ0σ1", "cusum", "zeros+subnormals", &[], "s=0.0 triggers=0"),
    ("µ0σ1", "ewma", "zeros+subnormals", &[], "z=1.53845968777111e-309 decay_sq=1.0136342709353884e-12 triggers=0"),
];

#[test]
fn detector_input_semantics_are_pinned() {
    let mut actual = Vec::new();
    for (baseline, spec, streams) in cases() {
        for (name, stream) in streams {
            let (fired, state) = run(&spec, &stream);
            actual.push((baseline, spec.kind.cli_name(), name, fired, state));
        }
    }
    let matches = actual.len() == PINNED.len()
        && actual
            .iter()
            .zip(PINNED)
            .all(|(a, p)| (a.0, a.1, a.2, &a.3[..], a.4.as_str()) == (p.0, p.1, p.2, p.3, p.4));
    if !matches {
        let mut table = String::new();
        for (baseline, kind, stream, fired, state) in &actual {
            table.push_str(&format!(
                "    ({baseline:?}, {kind:?}, {stream:?}, &{fired:?}, {state:?}),\n"
            ));
        }
        panic!("detector input semantics changed; the new table is:\n{table}");
    }
}
