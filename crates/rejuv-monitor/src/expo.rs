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
//!    `# HELP`/`# TYPE` headers. [`lint`] machine-checks all of this.
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
        format!("{v}")
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
pub fn lint(body: &str) -> Result<(), String> {
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

#[cfg(test)]
mod tests {
    use super::*;
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
    fn capture_is_read_only() {
        let mut sup = sample_supervisor();
        assert!(sup.ingest(0, 4.2));
        sup.poll_all().unwrap();
        let before = serde_json::to_string_pretty(&sup.report()).unwrap();
        for _ in 0..3 {
            let _ = render(&ExpoSnapshot::capture(&sup));
        }
        let after = serde_json::to_string_pretty(&sup.report()).unwrap();
        assert_eq!(before, after, "scraping must not perturb the report");
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
}
