//! Prometheus text exposition of the monitoring runtime.
//!
//! The end-of-run [`MonitorReport`] is a
//! *post-mortem* artifact; a live operator needs to watch a shard
//! saturate or a detector fire while the run is still going. This
//! module renders a **point-in-time snapshot** of the supervisor —
//! report counters/gauges/histograms, per-shard accounting and
//! runtime gauges (queue backlog, dead-letters pending), per-kind
//! fleet rollups, and optional drain-plane telemetry — in the
//! [Prometheus text exposition format] (version `0.0.4`).
//!
//! Three properties are load-bearing and pinned by the conformance
//! suite (`tests/expo_conformance.rs`):
//!
//! 1. **Read-only capture.** [`ExpoSnapshot::capture`] takes
//!    `&Supervisor` and only calls pure accessors
//!    ([`Supervisor::report`], [`Supervisor::backlog`],
//!    [`Supervisor::dlq_stats`]). A scrape can never perturb decision
//!    digests, traces or checkpoints — reports stay byte-identical
//!    with and without a scraper attached.
//! 2. **Stable output.** Metric families render in a fixed section
//!    order; within a family, series follow shard index / sorted kind
//!    name / sorted metric name (the report's `BTreeMap`s). Two
//!    captures of the same state render byte-identical bodies.
//! 3. **Format conformance.** Metric names are sanitised to
//!    `[a-zA-Z_:][a-zA-Z0-9_:]*`, label values escape `\`, `"` and
//!    newline, histogram buckets are *cumulative* with a final
//!    `+Inf` bucket equal to `_count`, and every family carries
//!    `# HELP`/`# TYPE` headers. The linter in
//!    `tests/expo_conformance.rs` machine-checks all of this.
//!
//! [Prometheus text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/
use crate::metrics::Histogram;
use crate::pool::PoolStats;
use crate::supervisor::{MonitorReport, Supervisor};
use std::fmt::Write as _;

/// Every exported metric name starts with this prefix.
const PREFIX: &str = "rejuv_";

/// Live per-shard gauges that exist only while the runtime is up and
/// therefore ride alongside the report instead of inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRuntime {
    /// Shard index.
    pub shard: u32,
    /// Queue depth hint (samples buffered and not yet drained).
    pub backlog: u64,
    /// Dead-letter samples captured and awaiting replay; `None` when
    /// the shard has no dead-letter queue attached.
    pub dead_letters_pending: Option<u64>,
}

/// Drain-plane telemetry (consumer pool) at scrape time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainPlane {
    /// Worker threads in the pool.
    pub consumers: u64,
    /// Whole-shard ownership transfers (work-stealing events).
    pub steals: u64,
    /// Times a worker actually went to sleep waiting for work.
    pub parks: u64,
    /// Observations drained per worker, by worker index.
    pub per_worker_drained: Vec<u64>,
}

impl From<&PoolStats> for DrainPlane {
    fn from(stats: &PoolStats) -> Self {
        DrainPlane {
            consumers: stats.consumers as u64,
            steals: stats.steals,
            parks: stats.parks,
            per_worker_drained: stats.per_thread_drains.clone(),
        }
    }
}

/// A point-in-time view of everything the exposition renders.
///
/// Captured under a single supervisor lock acquisition (callers using
/// [`SharedSupervisor`](crate::SharedSupervisor) run `capture` inside
/// one `with` closure), so all series in one scrape body describe the
/// same instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpoSnapshot {
    /// The supervisor's report at capture time (pure accessor).
    pub report: MonitorReport,
    /// Live per-shard gauges, by shard index.
    pub shard_runtime: Vec<ShardRuntime>,
    /// Drain-plane telemetry, when a consumer pool is attached.
    pub drain: Option<DrainPlane>,
    /// Scrapes served by this process, including the current one
    /// (`0` for offline renders).
    pub scrapes: u64,
}

impl ExpoSnapshot {
    /// Captures the supervisor's current state. Read-only: only pure
    /// `&self` accessors are called, so capturing cannot perturb
    /// digests, traces or checkpoints.
    pub fn capture(sup: &Supervisor) -> ExpoSnapshot {
        let report = sup.report();
        let shard_runtime = (0..sup.shard_count())
            .map(|shard| ShardRuntime {
                shard: shard as u32,
                backlog: sup.backlog(shard) as u64,
                dead_letters_pending: sup.dlq_stats(shard).map(|s| s.pending as u64),
            })
            .collect();
        ExpoSnapshot {
            report,
            shard_runtime,
            drain: None,
            scrapes: 0,
        }
    }

    /// Attaches drain-plane telemetry (consumer pool stats).
    #[must_use]
    pub fn with_drain(mut self, stats: &PoolStats) -> Self {
        self.drain = Some(DrainPlane::from(stats));
        self
    }

    /// Sets the scrape serial exported as
    /// `rejuv_exposition_scrapes_total`.
    #[must_use]
    pub fn with_scrapes(mut self, scrapes: u64) -> Self {
        self.scrapes = scrapes;
        self
    }
}

/// Sanitises a metric-name fragment to the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: invalid characters become `_`, and a
/// leading digit gains a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid = c.is_ascii_alphabetic() || c == '_' || c == ':' || c.is_ascii_digit();
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if valid { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text: `\` → `\\`, newline → `\n`.
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value the way Prometheus expects: integral floats
/// without a fraction, infinities as `+Inf`/`-Inf`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let mut text = Vec::with_capacity(24);
        serde_json::float::write_plain(&mut text, v);
        text.into_iter().map(char::from).collect()
    }
}

/// One metric family under construction: header plus samples.
struct Family<'a> {
    out: &'a mut String,
}

/// Writes the `# HELP`/`# TYPE` header for `name` and returns a
/// sample writer. `kind` is `counter`, `gauge` or `histogram`.
fn family<'a>(out: &'a mut String, name: &str, kind: &str, help: &str) -> Family<'a> {
    let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
    Family { out }
}

impl Family<'_> {
    /// Appends one sample line. `labels` are `(name, raw value)`
    /// pairs; values are escaped here.
    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        let _ = write!(self.out, "{name}");
        if !labels.is_empty() {
            let _ = write!(self.out, "{{");
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    let _ = write!(self.out, ",");
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label_value(v));
            }
            let _ = write!(self.out, "}}");
        }
        let _ = writeln!(self.out, " {value}");
    }
}

/// Renders one report histogram as cumulative `_bucket`/`_sum`/
/// `_count` series. The report stores *per-bucket* counts (last
/// entry = overflow past the top bound); the exposition accumulates
/// them so each `le` bucket counts everything at or below its bound,
/// ending with `+Inf` == `_count`.
fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let mut fam = family(
        out,
        name,
        "histogram",
        &format!("Registry histogram `{name}`."),
    );
    let mut cumulative = 0u64;
    for (bound, count) in h.bounds().iter().zip(h.counts()) {
        cumulative += count;
        fam.sample(
            &format!("{name}_bucket"),
            &[("le", &fmt_value(*bound))],
            &cumulative.to_string(),
        );
    }
    fam.sample(
        &format!("{name}_bucket"),
        &[("le", "+Inf")],
        &h.count().to_string(),
    );
    fam.sample(&format!("{name}_sum"), &[], &fmt_value(h.sum()));
    fam.sample(&format!("{name}_count"), &[], &h.count().to_string());
}

/// Renders the snapshot as a Prometheus text exposition body.
///
/// Section order is fixed (self-telemetry, per-shard families,
/// per-kind rollups, drain plane, report metrics); within a family,
/// series order follows shard index, sorted detector-kind name, or
/// sorted metric name. Rendering the same snapshot twice produces
/// byte-identical bodies.
pub fn render(snap: &ExpoSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let report = &snap.report;

    // Self-telemetry.
    family(
        &mut out,
        "rejuv_exposition_scrapes_total",
        "counter",
        "Scrapes served by this process, including the current one.",
    )
    .sample(
        "rejuv_exposition_scrapes_total",
        &[],
        &snap.scrapes.to_string(),
    );

    // Per-shard accounting (from the report) and live runtime gauges.
    type ShardCounter = (
        &'static str,
        &'static str,
        fn(&crate::supervisor::ShardReport) -> u64,
    );
    let shard_label = |s: &crate::supervisor::ShardReport| s.shard.to_string();
    let counters: [ShardCounter; 6] = [
        (
            "rejuv_shard_processed_total",
            "Observations fed through the shard's detector.",
            |s| s.processed,
        ),
        (
            "rejuv_shard_accepted_total",
            "Observations accepted into the shard queue over its lifetime.",
            |s| s.accepted,
        ),
        (
            "rejuv_shard_dropped_total",
            "Observations dropped to back-pressure.",
            |s| s.dropped,
        ),
        (
            "rejuv_shard_producer_waits_total",
            "Times a blocking producer parked on back-pressure.",
            |s| s.producer_waits,
        ),
        (
            "rejuv_shard_rejuvenations_total",
            "Rejuvenate decisions returned by the shard's detector.",
            |s| s.rejuvenations,
        ),
        (
            "rejuv_shard_detector_triggers_total",
            "Lifetime trigger count reported by the detector itself.",
            |s| s.detector_triggers,
        ),
    ];
    for (name, help, get) in counters {
        let mut fam = family(&mut out, name, "counter", help);
        for s in &report.shards {
            fam.sample(
                name,
                &[("shard", &shard_label(s)), ("detector", &s.detector)],
                &get(s).to_string(),
            );
        }
    }
    {
        let mut fam = family(
            &mut out,
            "rejuv_shard_backlog",
            "gauge",
            "Queue depth hint: samples buffered and not yet drained.",
        );
        for (s, rt) in report.shards.iter().zip(&snap.shard_runtime) {
            fam.sample(
                "rejuv_shard_backlog",
                &[("shard", &shard_label(s)), ("detector", &s.detector)],
                &rt.backlog.to_string(),
            );
        }
    }
    if snap
        .shard_runtime
        .iter()
        .any(|rt| rt.dead_letters_pending.is_some())
    {
        let mut fam = family(
            &mut out,
            "rejuv_shard_dead_letters_pending",
            "gauge",
            "Dead-letter samples captured and awaiting replay.",
        );
        for (s, rt) in report.shards.iter().zip(&snap.shard_runtime) {
            if let Some(pending) = rt.dead_letters_pending {
                fam.sample(
                    "rejuv_shard_dead_letters_pending",
                    &[("shard", &shard_label(s)), ("detector", &s.detector)],
                    &pending.to_string(),
                );
            }
        }
    }

    // Per-detector-kind fleet rollups (sorted by kind name already).
    {
        let mut fam = family(
            &mut out,
            "rejuv_detector_shards",
            "gauge",
            "Shards currently running this detector kind.",
        );
        for k in &report.by_detector {
            fam.sample(
                "rejuv_detector_shards",
                &[("detector", &k.detector)],
                &k.shards.to_string(),
            );
        }
    }
    {
        let mut fam = family(
            &mut out,
            "rejuv_detector_processed_total",
            "counter",
            "Observations processed by shards of this detector kind.",
        );
        for k in &report.by_detector {
            fam.sample(
                "rejuv_detector_processed_total",
                &[("detector", &k.detector)],
                &k.processed.to_string(),
            );
        }
    }
    {
        let mut fam = family(
            &mut out,
            "rejuv_detector_rejuvenations_total",
            "counter",
            "Rejuvenate decisions returned by shards of this detector kind.",
        );
        for k in &report.by_detector {
            fam.sample(
                "rejuv_detector_rejuvenations_total",
                &[("detector", &k.detector)],
                &k.rejuvenations.to_string(),
            );
        }
    }

    // Drain-plane telemetry, when a consumer pool is attached.
    if let Some(drain) = &snap.drain {
        family(
            &mut out,
            "rejuv_drain_consumers",
            "gauge",
            "Worker threads in the consumer pool.",
        )
        .sample("rejuv_drain_consumers", &[], &drain.consumers.to_string());
        family(
            &mut out,
            "rejuv_drain_steals_total",
            "counter",
            "Whole-shard ownership transfers (work-stealing events).",
        )
        .sample("rejuv_drain_steals_total", &[], &drain.steals.to_string());
        family(
            &mut out,
            "rejuv_drain_parks_total",
            "counter",
            "Times a worker went to sleep waiting for work.",
        )
        .sample("rejuv_drain_parks_total", &[], &drain.parks.to_string());
        let mut fam = family(
            &mut out,
            "rejuv_drain_worker_drained_total",
            "counter",
            "Observations drained per worker.",
        );
        for (w, drained) in drain.per_worker_drained.iter().enumerate() {
            fam.sample(
                "rejuv_drain_worker_drained_total",
                &[("worker", &w.to_string())],
                &drained.to_string(),
            );
        }
    }

    // Report metrics: counters, gauges, histograms (BTreeMap order).
    for (name, value) in &report.metrics.counters {
        let metric = format!("{PREFIX}{}_total", sanitize_metric_name(name));
        family(
            &mut out,
            &metric,
            "counter",
            &format!("Registry counter `{name}`."),
        )
        .sample(&metric, &[], &value.to_string());
    }
    for (name, value) in &report.metrics.gauges {
        let metric = format!("{PREFIX}{}", sanitize_metric_name(name));
        family(
            &mut out,
            &metric,
            "gauge",
            &format!("Registry gauge `{name}`."),
        )
        .sample(&metric, &[], &fmt_value(*value));
    }
    for (name, h) in &report.metrics.histograms {
        let metric = format!("{PREFIX}{}", sanitize_metric_name(name));
        render_histogram(&mut out, &metric, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::UNTIMED;
    use crate::supervisor::tests::sraa;
    use crate::supervisor::SupervisorConfig;

    fn sample_supervisor() -> Supervisor {
        Supervisor::with_specs(SupervisorConfig::default(), &[sraa(); 2]).unwrap()
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
        assert_eq!(
            escape_label_value("\\\"\n"),
            "\\\\\\\"\\n",
            "all three escapes compose"
        );
    }

    #[test]
    fn help_escaping_keeps_quotes() {
        assert_eq!(escape_help("a\\b \"q\" c\nd"), "a\\\\b \"q\" c\\nd");
    }

    #[test]
    fn metric_name_sanitization() {
        assert_eq!(sanitize_metric_name("good_name:x9"), "good_name:x9");
        assert_eq!(sanitize_metric_name("dots.and-dashes"), "dots_and_dashes");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("spaced out"), "spaced_out");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn capture_is_read_only() {
        let mut sup = sample_supervisor();
        assert_eq!(sup.sender(0).send_batch([(4.2, UNTIMED)]), 1);
        sup.poll_all().unwrap();
        let before = serde_json::to_string_pretty(&sup.report()).unwrap();
        for _ in 0..3 {
            let _ = render(&ExpoSnapshot::capture(&sup));
        }
        let after = serde_json::to_string_pretty(&sup.report()).unwrap();
        assert_eq!(before, after, "scraping must not perturb the report");
    }
}
