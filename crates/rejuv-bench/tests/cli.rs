//! Smoke tests for the `figures`, `optimize` and `monitord` binaries:
//! they must run end to end with small parameters and leave well-formed
//! artifacts.

use std::path::Path;
use std::process::Command;

fn figures_bin() -> &'static str {
    env!("CARGO_BIN_EXE_figures")
}

fn optimize_bin() -> &'static str {
    env!("CARGO_BIN_EXE_optimize")
}

fn monitord_bin() -> &'static str {
    env!("CARGO_BIN_EXE_monitord")
}

fn bench_monitor_bin() -> &'static str {
    env!("CARGO_BIN_EXE_bench_monitor")
}

#[test]
fn figures_fig5_is_fast_and_writes_artifacts() {
    let out = tempdir("fig5");
    let status = Command::new(figures_bin())
        .args(["--fig", "5", "--out"])
        .arg(&out)
        .status()
        .expect("figures binary runs");
    assert!(status.success());
    let csv = std::fs::read_to_string(Path::new(&out).join("fig05_density.csv")).unwrap();
    assert!(csv.starts_with("n,x,exact_pdf,normal_pdf"));
    // All four panels present.
    for n in ["\n1,", "\n5,", "\n15,", "\n30,"] {
        assert!(csv.contains(n), "missing panel {n}");
    }
    let report = std::fs::read_to_string(Path::new(&out).join("report.md")).unwrap();
    assert!(report.contains("tail masses"));
    assert!(report.contains("3.69%"), "paper reference row present");
}

#[test]
fn figures_quick_fig16_writes_csv_and_plt() {
    let out = tempdir("fig16");
    let status = Command::new(figures_bin())
        .args([
            "--fig",
            "16",
            "--replications",
            "1",
            "--transactions",
            "2000",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("figures binary runs");
    assert!(status.success());
    let csv = std::fs::read_to_string(Path::new(&out).join("fig16_response_time.csv")).unwrap();
    let header = csv.lines().next().unwrap();
    assert!(header.contains("SRAA"));
    assert!(header.contains("SARAA"));
    assert!(header.contains("CLTA"));
    assert!(header.contains("no rejuvenation"));
    let plt = std::fs::read_to_string(Path::new(&out).join("fig16_response_time.plt")).unwrap();
    assert!(plt.contains("plot 'fig16_response_time.csv'"));

    // The machine-readable summary carries the same series.
    let json = std::fs::read_to_string(Path::new(&out).join("summary.json")).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed["protocol"]["replications"], 1);
    assert!(parsed["figures"]["fig16_response_time"].is_array());
}

#[test]
fn optimize_prints_a_pareto_front() {
    let output = Command::new(optimize_bin())
        .args([
            "--replications",
            "1",
            "--transactions",
            "2000",
            "--budget",
            "4",
        ])
        .output()
        .expect("optimize binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Pareto front"));
    assert!(stdout.contains("scalarized winner"));
    assert!(stdout.contains("candidates evaluated"));
}

#[test]
fn monitord_checkpoint_then_resume_matches_full_replay() {
    let out = tempdir("monitord-ckpt");
    let out = Path::new(&out);
    let trace = out.join("trace.jsonl");
    let ckpt = out.join("ckpt.json");
    let run = |extra: &[&str]| {
        let status = Command::new(monitord_bin())
            .args(["--hosts", "2", "--detector", "saraa"])
            .args(extra)
            .status()
            .expect("monitord runs");
        assert!(status.success());
    };
    run(&[
        "--transactions",
        "8000",
        "--trace",
        trace.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "2000",
        "--report",
        out.join("live.json").to_str().unwrap(),
    ]);
    run(&[
        "--replay",
        trace.to_str().unwrap(),
        "--report",
        out.join("full.json").to_str().unwrap(),
    ]);
    run(&[
        "--replay",
        trace.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
        "--report",
        out.join("resumed.json").to_str().unwrap(),
    ]);
    let live = std::fs::read(out.join("live.json")).unwrap();
    let full = std::fs::read(out.join("full.json")).unwrap();
    let resumed = std::fs::read(out.join("resumed.json")).unwrap();
    assert_eq!(live, full, "replay must reproduce the live report");
    assert_eq!(live, resumed, "resumed replay must reproduce it too");
    let snapshot: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&ckpt).unwrap()).unwrap();
    assert_eq!(snapshot["version"], 3, "versioned checkpoint format");
}

#[test]
fn monitord_fleet_live_replay_and_resume_are_byte_identical() {
    let fleet = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fleet.toml");
    let out = tempdir("monitord-fleet");
    let out = Path::new(&out);
    let trace = out.join("trace.jsonl");
    let ckpt = out.join("ckpt.json");
    let run = |extra: &[&str]| {
        let output = Command::new(monitord_bin())
            .args(extra)
            .output()
            .expect("monitord runs");
        assert!(
            output.status.success(),
            "monitord {extra:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let live_out = run(&[
        "--fleet",
        fleet,
        "--transactions",
        "8000",
        "--trace",
        trace.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "2000",
        "--report",
        out.join("live.json").to_str().unwrap(),
    ]);
    // The mixed fleet is summarised per kind on stdout.
    assert!(live_out.contains("sraa x1, saraa x1, clta x1, cusum x1"));
    assert!(live_out.contains("detector SRAA:"));
    assert!(live_out.contains("detector CUSUM:"));

    // Replay with the fleet file cross-checks it against the header.
    run(&[
        "--replay",
        trace.to_str().unwrap(),
        "--fleet",
        fleet,
        "--report",
        out.join("full.json").to_str().unwrap(),
    ]);
    // Replay without it works too: the FleetStart header is
    // self-contained.
    run(&[
        "--replay",
        trace.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
        "--report",
        out.join("resumed.json").to_str().unwrap(),
    ]);
    let live = std::fs::read(out.join("live.json")).unwrap();
    let full = std::fs::read(out.join("full.json")).unwrap();
    let resumed = std::fs::read(out.join("resumed.json")).unwrap();
    assert_eq!(live, full, "fleet replay must reproduce the live report");
    assert_eq!(live, resumed, "resumed fleet replay must reproduce it too");

    // The report breaks rejuvenations out per detector kind, and the
    // checkpoint carries the per-shard specs.
    let report: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&live).unwrap()).unwrap();
    let kinds: Vec<&str> = report["by_detector"]
        .as_array()
        .unwrap()
        .iter()
        .map(|k| k["detector"].as_str().unwrap())
        .collect();
    assert_eq!(kinds, ["CLTA", "CUSUM", "SARAA", "SRAA"]);
    let snapshot: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&ckpt).unwrap()).unwrap();
    assert_eq!(snapshot["version"], 3);
    assert_eq!(snapshot["shards"][3]["spec"]["kind"], "Cusum");
}

/// Runs `bin` with `args`, expecting a clean one-line failure: the
/// given exit code, a `{prog}: ...` stderr diagnostic containing
/// `needle`, and no panic backtrace.
fn expect_bin_failure(bin: &str, prog: &str, args: &[&str], code: i32, needle: &str) {
    let output = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(code),
        "{prog} {args:?} exit status"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("{prog}: ")) && stderr.contains(needle),
        "missing diagnostic {needle:?} in stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "panic output leaked to the operator:\n{stderr}"
    );
}

fn expect_failure(args: &[&str], code: i32, needle: &str) {
    expect_bin_failure(monitord_bin(), "monitord", args, code, needle);
}

#[test]
fn monitord_rejects_unknown_flags_without_a_backtrace() {
    expect_failure(&["--bogus"], 2, "unknown option --bogus");
    expect_failure(&["--queue", "mutex"], 2, "unknown option --queue");
    expect_failure(&["--scalar-drain"], 2, "unknown option --scalar-drain");
}

#[test]
fn monitord_rejects_unparsable_values_without_a_backtrace() {
    expect_failure(
        &["--hosts", "banana"],
        2,
        "invalid value \"banana\" for --hosts",
    );
    expect_failure(&["--load", "many"], 2, "invalid value \"many\" for --load");
}

#[test]
fn monitord_rejects_missing_values_and_bad_combinations() {
    expect_failure(&["--hosts"], 2, "missing value for --hosts");
    expect_failure(&["--hosts", "0"], 2, "--hosts must be positive");
    expect_failure(&["--hosts", "65537"], 2, "--hosts must be at most 65536");
    expect_failure(&["--detector", "nonsense"], 2, "unknown detector nonsense");
    expect_failure(
        &["--fleet", "whatever.toml", "--mu", "4.0"],
        2,
        "cannot be combined with --detector/--mu/--sigma",
    );
    expect_failure(
        &["--dst-seeds", "4"],
        2,
        "only makes sense together with --dst",
    );
}

#[test]
fn monitord_rejects_an_invalid_baseline_without_a_backtrace() {
    for args in [
        &["--sigma", "-1"][..],
        &["--mu", "nan"],
        &["--mu", "inf"],
        &["--detector", "cusum", "--sigma", "0"],
    ] {
        let args = [args, &["--transactions", "200"]].concat();
        expect_failure(&args, 2, "--mu/--sigma: invalid parameter");
    }
    // A replay rebuilds its detectors from the same flags.
    let log = Path::new(&tempdir("monitord-bad-baseline")).join("start.jsonl");
    let header = r#"{"Start":{"shards":1,"detector":"CLTA","queue_capacity":4,"drain_batch":4,"snapshot_every":null}}"#;
    std::fs::write(&log, format!("{header}\n")).unwrap();
    expect_failure(
        &["--replay", log.to_str().unwrap(), "--sigma", "-1"],
        2,
        "--mu/--sigma: invalid parameter sigma = -1",
    );
}

// A header's shard count is read before anything else is checked: a
// count past the limit is refused before it is allocated, not
// aborted on.
#[test]
fn monitord_rejects_a_replay_header_with_too_many_shards() {
    let log = Path::new(&tempdir("monitord-huge-header")).join("start.jsonl");
    let header = r#"{"Start":{"shards":4000000000,"detector":"SRAA","queue_capacity":4,"drain_batch":4,"snapshot_every":null}}"#;
    std::fs::write(&log, format!("{header}\n")).unwrap();
    expect_failure(
        &["--replay", log.to_str().unwrap()],
        1,
        "4000000000 shards exceed the limit of 65536 shards per fleet",
    );
}

#[test]
fn monitord_homogeneous_replay_matches_live_for_every_kind() {
    let out = tempdir("monitord-kinds");
    for kind in ["sraa", "saraa", "clta", "static", "cusum", "ewma"] {
        let trace = Path::new(&out).join(format!("{kind}.jsonl"));
        let live = Path::new(&out).join(format!("{kind}-live.json"));
        let replay = Path::new(&out).join(format!("{kind}-replay.json"));
        let status = Command::new(monitord_bin())
            .args(["--hosts", "2", "--transactions", "3000", "--detector", kind])
            .args(["--trace", trace.to_str().unwrap()])
            .args(["--report", live.to_str().unwrap()])
            .output()
            .expect("monitord runs")
            .status;
        assert!(status.success(), "{kind} live run");
        let status = Command::new(monitord_bin())
            .args(["--replay", trace.to_str().unwrap()])
            .args(["--report", replay.to_str().unwrap()])
            .output()
            .expect("monitord runs")
            .status;
        assert!(status.success(), "{kind} replay");
        assert_eq!(
            std::fs::read(&live).unwrap(),
            std::fs::read(&replay).unwrap(),
            "{kind}: the Start header must rebuild the live detectors"
        );
    }
}

#[test]
fn monitord_reports_a_torn_resume_checkpoint_cleanly() {
    let out = tempdir("monitord-torn-resume");
    let ckpt = Path::new(&out).join("torn.json");
    // A mid-JSON prefix, as if the file were cut mid-write.
    std::fs::write(&ckpt, br#"{"version":3,"shards":[{"shard":0,"pro"#).unwrap();
    expect_failure(
        &["--transactions", "10", "--resume", ckpt.to_str().unwrap()],
        1,
        "cannot load checkpoint",
    );
    // Same clean failure on the replay path.
    expect_failure(
        &[
            "--replay",
            "/nonexistent/trace.jsonl",
            "--resume",
            ckpt.to_str().unwrap(),
        ],
        1,
        "cannot open",
    );
}

// A tampered or foreign event log is a runtime failure: replay must
// reject it with one diagnostic line, never panic or report success.
#[test]
fn monitord_rejects_a_malformed_replay_log_cleanly() {
    let out = tempdir("monitord-bad-log");
    let header = r#"{"Start":{"shards":2,"detector":"SRAA","queue_capacity":4,"drain_batch":4,"snapshot_every":null}}"#;
    let cases = [
        (
            r#"{"Batch":{"shard":7,"seq":0,"values":[4.0]}}"#,
            "shard 7 of a 2-shard fleet",
        ),
        (
            r#"{"Batch":{"shard":0,"seq":0,"values":[1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0]}}"#,
            "holds 10 values",
        ),
        (
            r#"{"Batch":{"shard":0,"seq":18446744073709551615,"values":[4.0,5.0]}}"#,
            "overflows",
        ),
        (
            r#"{"TimedBatch":{"shard":1,"seq":0,"values":[4.0,5.0],"times":[0.5]}}"#,
            "1 times for 2 values",
        ),
    ];
    for (i, (line, needle)) in cases.iter().enumerate() {
        let log = Path::new(&out).join(format!("bad{i}.jsonl"));
        std::fs::write(&log, format!("{header}\n{line}\n")).unwrap();
        expect_failure(&["--replay", log.to_str().unwrap()], 1, needle);
        let output = Command::new(monitord_bin())
            .args(["--replay", log.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr.lines().count(), 1, "one diagnostic line:\n{stderr}");
    }
}

// A log header's supervisor config is outside input: a zero drain batch
// or queue, or a queue capacity no allocator can reserve, is a typed
// failure on both header kinds. Only overflowing capacities are tried,
// never ones that would really allocate.
#[test]
fn monitord_rejects_an_unbuildable_header_config_cleanly() {
    let out = tempdir("monitord-bad-header");
    let spec = r#"{"buckets":5,"decision":5.0,"depth":3,"kind":"Sraa","limit":3.0,"mu":5.0,"quantile":1.96,"reference":0.5,"sample_size":2,"sigma":5.0,"weight":0.25}"#;
    let cases = [
        ("0", "1024", "parameter drain_batch must be at least 1"),
        ("512", "0", "parameter queue_capacity must be at least 1"),
        (
            "512",
            "4611686018427387904",
            "queue_capacity = 4611686018427388000: expected a capacity the allocator can reserve",
        ),
        (
            "512",
            "18446744073709551615",
            "expected a capacity the allocator can reserve",
        ),
    ];
    for (i, (drain_batch, queue_capacity, needle)) in cases.iter().enumerate() {
        let config = format!(
            r#""drain_batch":{drain_batch},"queue_capacity":{queue_capacity},"shards":1,"snapshot_every":null"#
        );
        for (kind, header) in [
            (
                "start",
                format!(r#"{{"Start":{{"detector":"sraa",{config}}}}}"#),
            ),
            (
                "fleet",
                format!(r#"{{"FleetStart":{{{config},"specs":[{spec}]}}}}"#),
            ),
        ] {
            let log = Path::new(&out).join(format!("{kind}{i}.jsonl"));
            std::fs::write(&log, format!("{header}\n")).unwrap();
            expect_failure(&["--replay", log.to_str().unwrap()], 1, needle);
            let output = Command::new(monitord_bin())
                .args(["--replay", log.to_str().unwrap()])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(stderr.lines().count(), 1, "one diagnostic line:\n{stderr}");
        }
    }
}

// Without the failpoints feature the --dst surface must fail fast with
// a pointer at the right build, not silently run nothing.
#[cfg(not(feature = "failpoints"))]
#[test]
fn monitord_dst_requires_the_failpoints_build() {
    expect_failure(&["--dst"], 2, "requires a failpoints build");
}

// With the feature, a single-site single-seed sweep is a fast
// end-to-end smoke of the crash-simulation pipeline.
#[cfg(feature = "failpoints")]
#[test]
fn monitord_dst_runs_a_filtered_sweep() {
    let out = tempdir("monitord-dst");
    let output = Command::new(monitord_bin())
        .args([
            "--dst",
            "--dst-sites",
            "checkpoint.renamed",
            "--dst-seeds",
            "1",
            "--dst-dir",
        ])
        .arg(&out)
        .env("REJUV_DST_SEED", "7")
        .output()
        .expect("monitord runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "dst sweep failed:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("dst sweep: 1 seed(s) from base 0x7"));
    let catalog = rejuv_monitor::assurance::failpoints::CATALOG.len();
    assert!(
        stdout.contains(&format!("1/{catalog} sites covered")),
        "coverage line:\n{stdout}"
    );
}

#[test]
fn monitord_rejects_degenerate_runtime_knobs() {
    expect_failure(&["--consumers", "0"], 2, "--consumers must be positive");
    expect_failure(
        &["--checkpoint-every", "0"],
        2,
        "--checkpoint-every must be positive",
    );
    expect_failure(&["--producer-batch"], 2, "unknown option --producer-batch");
}

#[test]
fn monitord_rejects_incoherent_dlq_and_watch_flags() {
    expect_failure(
        &["--dlq-cap", "16"],
        2,
        "--dlq-cap only makes sense together with --dlq",
    );
    expect_failure(
        &["--dlq", "--dlq-cap", "0"],
        2,
        "--dlq-cap must be positive",
    );
    expect_failure(
        &["--dlq", "--replay", "whatever.jsonl"],
        2,
        "cannot be combined",
    );
    expect_failure(&["--fleet-watch"], 2, "--fleet-watch requires --fleet");
    expect_failure(
        &[
            "--fleet",
            "whatever.toml",
            "--fleet-watch",
            "--replay",
            "whatever.jsonl",
        ],
        2,
        "--fleet-watch only makes sense for a live run",
    );
}

#[test]
fn monitord_rejects_incoherent_listen_flags() {
    expect_failure(
        &["--listen", "notanaddr"],
        2,
        "invalid value \"notanaddr\" for --listen",
    );
    expect_failure(&["--listen"], 2, "missing value for --listen");
    expect_failure(
        &["--replay", "whatever.jsonl", "--listen", "127.0.0.1:0"],
        2,
        "--listen only makes sense for a live run",
    );
    expect_failure(
        &["--dst", "--listen", "127.0.0.1:0"],
        2,
        "--listen only makes sense for a live run",
    );
}

// A busy (or unbindable) --listen address is a runtime failure, not a
// usage error: the daemon must exit 1 with a one-line diagnostic before
// doing any work.
#[test]
fn monitord_reports_an_unbindable_listen_address_cleanly() {
    let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("grab a port");
    let busy = holder.local_addr().unwrap().to_string();
    expect_failure(
        &["--transactions", "10", "--listen", &busy],
        1,
        "cannot bind --listen",
    );
}

#[test]
fn bench_monitor_rejects_incoherent_listen_flags() {
    let reject = |args: &[&str], needle: &str| {
        expect_bin_failure(bench_monitor_bin(), "bench_monitor", args, 2, needle);
    };
    reject(
        &["--quick", "--listen", "notanaddr"],
        "invalid value \"notanaddr\" for --listen",
    );
    reject(
        &["--quick", "--lossy", "--listen", "127.0.0.1:0"],
        "cannot be combined with --lossy",
    );
}

#[test]
fn bench_monitor_reports_an_unbindable_listen_address_cleanly() {
    let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("grab a port");
    let busy = holder.local_addr().unwrap().to_string();
    expect_bin_failure(
        bench_monitor_bin(),
        "bench_monitor",
        &[
            "--quick",
            "--shards",
            "1",
            "--observations",
            "100",
            "--consumers",
            "1",
            "--listen",
            &busy,
        ],
        1,
        "cannot bind --listen",
    );
}

#[test]
fn bench_monitor_rejects_degenerate_flags_without_a_backtrace() {
    let reject = |args: &[&str], needle: &str| {
        expect_bin_failure(bench_monitor_bin(), "bench_monitor", args, 2, needle);
    };
    reject(&["--shards", "0"], "--shards must be positive");
    reject(
        &["--producer-batch", "0"],
        "--producer-batch must be positive",
    );
    reject(&["--consumers", "0"], "--consumers counts must be positive");
    reject(&["--consumers", ""], "invalid value \"\" for --consumers");
    reject(&["--dlq"], "--dlq only makes sense together with --lossy");
    reject(
        &["--lossy", "--dlq", "--dlq-cap", "0"],
        "--dlq-cap must be positive",
    );
    reject(&["--bogus"], "unknown option --bogus");
}

// A `--dlq` live run records its dead-letter state in the checkpoint
// (format version 4) and prints the dead-letter and event-bus summary
// lines; the report itself is indistinguishable from a default run.
#[test]
fn monitord_dlq_run_writes_a_v4_checkpoint_and_an_unchanged_report() {
    let out = tempdir("monitord-dlq");
    let out = Path::new(&out);
    let ckpt = out.join("ckpt.json");
    let run = |extra: &[&str]| {
        let output = Command::new(monitord_bin())
            .args(["--hosts", "2", "--transactions", "8000"])
            .args(extra)
            .output()
            .expect("monitord runs");
        assert!(
            output.status.success(),
            "monitord {extra:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let stdout = run(&[
        "--dlq",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "2000",
        "--report",
        out.join("dlq.json").to_str().unwrap(),
    ]);
    assert!(stdout.contains("dead-letter queue: "), "stdout:\n{stdout}");
    assert!(stdout.contains("event bus: "), "stdout:\n{stdout}");
    run(&["--report", out.join("plain.json").to_str().unwrap()]);
    assert_eq!(
        std::fs::read(out.join("dlq.json")).unwrap(),
        std::fs::read(out.join("plain.json")).unwrap(),
        "--dlq must not perturb the report of an unsaturated run"
    );
    let snapshot: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&ckpt).unwrap()).unwrap();
    assert_eq!(snapshot["version"], 4, "DLQ checkpoints use format v4");
    assert!(snapshot["dlq"].is_array(), "per-shard dead-letter entries");
}

fn tempdir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("rejuv-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.to_string_lossy().into_owned()
}
