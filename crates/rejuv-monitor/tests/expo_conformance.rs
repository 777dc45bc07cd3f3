//! Golden-file conformance suite for the Prometheus text exposition.
//!
//! The same deterministic 4-kind fleet workload that pins the event-log
//! and report formats (`fleet_conformance.rs`) also pins the `/metrics`
//! body: the rendered exposition for the example fleet is checked in
//! under `tests/golden/fleet_metrics.prom` and must stay byte-identical
//! across refactors. The suite additionally asserts the body passes the
//! exposition linter below (HELP/TYPE discipline, family contiguity,
//! cumulative `le` buckets ending in `+Inf == _count`), as do a body
//! with hostile label values and the body `MetricsServer` serves, that
//! rendering is a pure function of the snapshot, and that capturing a
//! snapshot never perturbs the supervisor's own artifacts.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! REJUV_REGEN_GOLDEN=1 cargo test -p rejuv-monitor --test expo_conformance
//! ```

use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::expo::render;
use rejuv_monitor::{
    ExpoSnapshot, FleetConfig, Histogram, MetricsServer, MonitorReport, ShardRuntime,
    SharedSupervisor, Supervisor, SupervisorConfig, UNTIMED,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;

const FLEET_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fleet.toml");
const METRICS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_metrics.prom"
);

fn config() -> SupervisorConfig {
    SupervisorConfig {
        queue_capacity: 256,
        drain_batch: 16,
        snapshot_every: Some(200),
        ..SupervisorConfig::default()
    }
}

/// The same deterministic workload as the fleet conformance suite: a
/// pure function of the observation index, mostly-healthy values with
/// periodic sustained spikes so every detector kind does real work.
fn value_at(i: u64) -> f64 {
    if (i / 37) % 9 == 8 {
        55.0 + (i % 5) as f64
    } else {
        3.0 + (i % 6) as f64 * 0.7
    }
}

/// Runs the recorded workload and returns the supervisor at its end
/// state, fully drained.
fn run_workload() -> Supervisor {
    let fleet = FleetConfig::load(Path::new(FLEET_PATH)).expect("example fleet parses");
    let mut sup = Supervisor::with_specs(config(), fleet.specs()).expect("example fleet builds");
    let shards = fleet.shard_count() as u64;
    for i in 0..1600u64 {
        assert_eq!(
            sup.sender((i % shards) as usize)
                .send_batch([(value_at(i), UNTIMED)]),
            1
        );
        if i % 23 == 0 {
            sup.poll_all().unwrap();
        }
    }
    while sup.poll_all().unwrap() > 0 {}
    sup
}

fn regen_requested() -> bool {
    std::env::var_os("REJUV_REGEN_GOLDEN").is_some()
}

fn read_golden(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {path}: {e}\n\
             (regenerate with REJUV_REGEN_GOLDEN=1)"
        )
    })
}

#[test]
fn golden_metrics_body_stays_byte_identical() {
    let sup = run_workload();
    let body = render(&ExpoSnapshot::capture(&sup).with_scrapes(1));

    if regen_requested() {
        std::fs::write(METRICS_PATH, &body).expect("write golden metrics body");
        println!("regenerated golden file {METRICS_PATH}");
        return;
    }

    assert_eq!(
        body.into_bytes(),
        read_golden(METRICS_PATH),
        "rendered /metrics body diverged from the golden exposition \
         (REJUV_REGEN_GOLDEN=1 to accept an intentional change)"
    );
}

#[test]
fn golden_metrics_body_passes_the_linter() {
    let sup = run_workload();
    let body = render(&ExpoSnapshot::capture(&sup).with_scrapes(1));
    lint(&body).expect("exposition body is well-formed");
    // The golden run is a real mixed-fleet workout: every shard shows
    // up, and at least one family of each type is present.
    for shard in 0..sup.shard_count() {
        assert!(
            body.contains(&format!("{{shard=\"{shard}\",")),
            "shard {shard} missing from the exposition"
        );
    }
    for kind in ["counter", "gauge", "histogram"] {
        assert!(
            body.lines().any(|l| l.ends_with(&format!(" {kind}"))),
            "no {kind} family in the exposition"
        );
    }
}

#[test]
fn rendering_is_a_pure_function_of_the_run() {
    let a = render(&ExpoSnapshot::capture(&run_workload()).with_scrapes(7));
    let b = render(&ExpoSnapshot::capture(&run_workload()).with_scrapes(7));
    assert_eq!(a, b, "two identical runs rendered different expositions");
}

#[test]
fn capturing_a_snapshot_leaves_the_report_untouched() {
    let mut scraped = run_workload();
    let quiet = run_workload();
    let before = serde_json::to_string_pretty(&scraped.report()).unwrap();
    for _ in 0..5 {
        let _ = render(&ExpoSnapshot::capture(&scraped));
    }
    // Also after further ingestion: scrapes interleaved with work must
    // not change where the run ends up.
    assert_eq!(scraped.sender(0).send_batch([(3.0, UNTIMED)]), 1);
    while scraped.poll_all().unwrap() > 0 {}
    let _ = render(&ExpoSnapshot::capture(&scraped));
    assert_eq!(
        before,
        serde_json::to_string_pretty(&quiet.report()).unwrap(),
        "capturing snapshots perturbed the report"
    );
}

/// CI hook: lints an exposition body scraped from a *live* `monitord`
/// process. A no-op unless `REJUV_LINT_FILE` names a file, so the test
/// is invisible in ordinary runs.
#[test]
fn lint_exposition_file() {
    let Some(path) = std::env::var_os("REJUV_LINT_FILE") else {
        return;
    };
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", Path::new(&path).display()));
    lint(&body).unwrap_or_else(|e| {
        panic!(
            "scraped exposition {} failed the linter: {e}",
            Path::new(&path).display()
        )
    });
    assert!(
        body.contains("rejuv_exposition_scrapes_total"),
        "scraped body is missing the scrape counter"
    );
}

/// Two small SRAA shards with no observations yet.
fn sample_supervisor() -> Supervisor {
    let spec = DetectorSpec {
        sample_size: 2,
        buckets: 2,
        depth: 1,
        ..DetectorSpec::new(DetectorKind::Sraa)
    };
    Supervisor::with_specs(SupervisorConfig::default(), &[spec; 2]).unwrap()
}

#[test]
fn escaped_labels_render_and_lint() {
    let sup = sample_supervisor();
    // A hostile detector name must escape into a valid body.
    let report = {
        let mut r = sup.report();
        r.shards[0].detector = "bad\"name\\with\nnewline".to_owned();
        r
    };
    let snap = ExpoSnapshot {
        shard_runtime: (0..report.shards.len())
            .map(|i| ShardRuntime {
                shard: i as u32,
                backlog: 0,
                dead_letters_pending: None,
            })
            .collect(),
        report,
        drain: None,
        scrapes: 1,
    };
    let body = render(&snap);
    assert!(body.contains("detector=\"bad\\\"name\\\\with\\nnewline\""));
    lint(&body).expect("escaped body lints clean");
}

#[test]
fn histogram_buckets_are_cumulative_with_inf_equal_to_count() {
    let mut lat = Histogram::new(&[1.0, 5.0, 25.0]);
    lat.record_slice(&[0.5, 0.9, 3.0, 30.0, 400.0]);
    let mut snap = ExpoSnapshot::capture(&sample_supervisor());
    snap.report
        .metrics
        .histograms
        .insert("lat.ms".to_owned(), lat);
    let body = render(&snap);
    lint(&body).expect("body lints clean");

    let bucket_lines: Vec<&str> = body
        .lines()
        .filter(|l| l.starts_with("rejuv_lat_ms_bucket"))
        .collect();
    assert_eq!(
        bucket_lines,
        vec![
            "rejuv_lat_ms_bucket{le=\"1\"} 2",
            "rejuv_lat_ms_bucket{le=\"5\"} 3",
            "rejuv_lat_ms_bucket{le=\"25\"} 3",
            "rejuv_lat_ms_bucket{le=\"+Inf\"} 5",
        ],
        "per-bucket counts render as cumulative le series"
    );
    assert!(body.contains("rejuv_lat_ms_count 5"));
    assert!(body.contains("rejuv_lat_ms_sum 434.4"));
}

#[test]
fn rendering_is_stable_across_runs() {
    let sup = sample_supervisor();
    let a = render(&ExpoSnapshot::capture(&sup));
    let b = render(&ExpoSnapshot::capture(&sup));
    assert_eq!(a, b, "same state must render byte-identically");
    lint(&a).expect("body lints clean");
}

#[test]
fn lint_rejects_malformed_bodies() {
    // Sample before TYPE.
    assert!(lint("rejuv_x_total 1\n").is_err());
    // Unknown type.
    assert!(lint("# HELP x y\n# TYPE x summary\nx 1\n").is_err());
    // Non-monotone le bounds.
    let bad = "# HELP h hist\n# TYPE h histogram\n\
               h_bucket{le=\"5\"} 1\nh_bucket{le=\"1\"} 2\n\
               h_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n";
    assert!(lint(bad).unwrap_err().contains("not increasing"));
    // Non-cumulative bucket counts.
    let bad = "# HELP h hist\n# TYPE h histogram\n\
               h_bucket{le=\"1\"} 3\nh_bucket{le=\"5\"} 2\n\
               h_bucket{le=\"+Inf\"} 3\nh_sum 3\nh_count 3\n";
    assert!(lint(bad).unwrap_err().contains("cumulative"));
    // +Inf bucket disagreeing with _count.
    let bad = "# HELP h hist\n# TYPE h histogram\n\
               h_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 3\n";
    assert!(lint(bad).unwrap_err().contains("_count"));
    // Duplicate series.
    let bad = "# HELP g gauge\n# TYPE g gauge\ng 1\ng 2\n";
    assert!(lint(bad).unwrap_err().contains("duplicate"));
    // Split family.
    let bad = "# HELP a c\n# TYPE a counter\na 1\n\
               # HELP b c\n# TYPE b counter\nb 1\n\
               # TYPE a counter\n";
    assert!(lint(bad).unwrap_err().contains("duplicate TYPE"));
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    (head.to_owned(), body.to_owned())
}

#[test]
fn serves_metrics_healthz_report_and_404() {
    let shared = SharedSupervisor::new(sample_supervisor());
    let server = MetricsServer::bind("127.0.0.1:0".parse().unwrap(), shared.clone(), None)
        .expect("bind an ephemeral port");
    let addr = server.local_addr();

    let (head, body) = get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    let (head, body) = get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"));
    lint(&body).expect("served body lints clean");
    assert!(body.contains("rejuv_exposition_scrapes_total 1"));

    let (_, body) = get(addr, "/metrics");
    assert!(body.contains("rejuv_exposition_scrapes_total 2"));

    let (head, body) = get(addr, "/report");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let report: MonitorReport = serde_json::from_str(&body).expect("report parses");
    assert_eq!(report.shards.len(), 2);

    let (head, _) = get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    assert_eq!(server.scrapes(), 2);
    server.shutdown();
    // With the responder's handle gone the supervisor is
    // reclaimable again.
    assert!(shared.try_into_inner().is_ok());
}

// ---------------------------------------------------------------------
// The exposition linter
// ---------------------------------------------------------------------

/// Checks whether `c` may start a metric name.
fn name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

/// Checks whether `c` may continue a metric name.
fn name_cont(c: char) -> bool {
    name_start(c) || c.is_ascii_digit()
}

/// Splits a sample line into `(series name, label block, value)`.
fn split_sample(line: &str) -> Result<(String, String, String), String> {
    let name: String = line.chars().take_while(|&c| name_cont(c)).collect();
    if name.is_empty() || !name_start(name.chars().next().unwrap()) {
        return Err(format!("invalid metric name in sample line: {line:?}"));
    }
    let rest = &line[name.len()..];
    let (labels, rest) = if let Some(stripped) = rest.strip_prefix('{') {
        let end = stripped
            .rfind('}')
            .ok_or_else(|| format!("unterminated label block: {line:?}"))?;
        (stripped[..end].to_owned(), &stripped[end + 1..])
    } else {
        (String::new(), rest)
    };
    let value = rest.trim();
    if value.is_empty() || value.contains(' ') {
        return Err(format!(
            "expected exactly one value in sample line: {line:?}"
        ));
    }
    let ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
    if !ok {
        return Err(format!("unparsable sample value {value:?} in {line:?}"));
    }
    Ok((name, labels, value.to_owned()))
}

/// Parses an `le="…"` bound out of a bucket label block.
fn le_bound(labels: &str) -> Result<f64, String> {
    let tag = "le=\"";
    let start = labels
        .find(tag)
        .ok_or_else(|| format!("bucket sample without le label: {labels:?}"))?;
    let rest = &labels[start + tag.len()..];
    let end = rest
        .find('"')
        .ok_or_else(|| format!("unterminated le label: {labels:?}"))?;
    let raw = &rest[..end];
    match raw {
        "+Inf" => Ok(f64::INFINITY),
        raw => raw
            .parse::<f64>()
            .map_err(|_| format!("unparsable le bound {raw:?}")),
    }
}

/// Lints a text exposition body against the format rules the renderer
/// promises: `# HELP`/`# TYPE` before samples, valid metric names and
/// values, contiguous families, no duplicate series, and — for
/// histograms — monotone `le` bounds, cumulative bucket counts, a
/// final `+Inf` bucket and `+Inf == _count`.
///
/// # Errors
///
/// Returns the first violation found, described with the offending
/// line.
fn lint(body: &str) -> Result<(), String> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut closed: BTreeSet<String> = BTreeSet::new();
    let mut current: Option<String> = None;
    let mut seen_series: BTreeSet<String> = BTreeSet::new();
    // Per (histogram family, non-le labels): bucket (bound, cumulative
    // count) list, _count and _sum presence.
    let mut buckets: BTreeMap<(String, String), Vec<(f64, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut sums: BTreeSet<(String, String)> = BTreeSet::new();

    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("").to_owned();
            let tail = parts.next().unwrap_or("");
            if name.is_empty() || !name.chars().all(name_cont) {
                return Err(format!("invalid name in comment line: {line:?}"));
            }
            match keyword {
                "HELP" => {
                    if tail.is_empty() {
                        return Err(format!("HELP without text: {line:?}"));
                    }
                }
                "TYPE" => {
                    if !matches!(tail, "counter" | "gauge" | "histogram") {
                        return Err(format!("unknown TYPE {tail:?}: {line:?}"));
                    }
                    if typed.insert(name.clone(), tail.to_owned()).is_some() {
                        return Err(format!("duplicate TYPE for {name}"));
                    }
                    if let Some(prev) = current.replace(name) {
                        closed.insert(prev);
                    }
                }
                other => return Err(format!("unknown comment keyword {other:?}: {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("malformed comment line: {line:?}"));
        }
        let (series, labels, value) = split_sample(line)?;
        let family = match current.as_deref() {
            Some(fam) if typed.get(fam).map(String::as_str) == Some("histogram") => {
                let base = series
                    .strip_suffix("_bucket")
                    .or_else(|| series.strip_suffix("_sum"))
                    .or_else(|| series.strip_suffix("_count"))
                    .unwrap_or(&series);
                if base != fam {
                    return Err(format!(
                        "sample {series} outside its histogram family {fam}"
                    ));
                }
                fam.to_owned()
            }
            Some(fam) => {
                if series != fam {
                    return Err(format!("sample {series} under family {fam}"));
                }
                fam.to_owned()
            }
            None => return Err(format!("sample before any # TYPE header: {line:?}")),
        };
        if closed.contains(&family) {
            return Err(format!("family {family} is not contiguous"));
        }
        let key = format!("{series}{{{labels}}}");
        if !seen_series.insert(key.clone()) {
            return Err(format!("duplicate series {key}"));
        }
        if typed.get(&family).map(String::as_str) == Some("histogram") {
            let non_le: String = labels
                .split(',')
                .filter(|l| !l.starts_with("le=") && !l.is_empty())
                .collect::<Vec<_>>()
                .join(",");
            let slot = (family.clone(), non_le);
            if series.ends_with("_bucket") {
                let bound = le_bound(&labels)?;
                let count = value
                    .parse::<u64>()
                    .map_err(|_| format!("non-integral bucket count: {line:?}"))?;
                buckets.entry(slot).or_default().push((bound, count));
            } else if series.ends_with("_count") {
                let count = value
                    .parse::<u64>()
                    .map_err(|_| format!("non-integral _count: {line:?}"))?;
                counts.insert(slot, count);
            } else if series.ends_with("_sum") {
                sums.insert(slot);
            } else {
                return Err(format!("bare sample {series} in a histogram family"));
            }
        }
    }

    for (slot, series) in &buckets {
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_count = 0u64;
        for (bound, count) in series {
            if *bound <= prev_bound {
                return Err(format!("le bounds not increasing in {}", slot.0));
            }
            if *count < prev_count {
                return Err(format!("bucket counts not cumulative in {}", slot.0));
            }
            prev_bound = *bound;
            prev_count = *count;
        }
        let Some((last_bound, last_count)) = series.last() else {
            continue;
        };
        if !last_bound.is_infinite() {
            return Err(format!("histogram {} lacks a +Inf bucket", slot.0));
        }
        match counts.get(slot) {
            Some(total) if total == last_count => {}
            Some(total) => {
                return Err(format!(
                    "histogram {}: +Inf bucket {last_count} != _count {total}",
                    slot.0
                ));
            }
            None => return Err(format!("histogram {} lacks _count", slot.0)),
        }
        if !sums.contains(slot) {
            return Err(format!("histogram {} lacks _sum", slot.0));
        }
    }
    Ok(())
}
