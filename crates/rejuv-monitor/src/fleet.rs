//! The fleet configuration file format: one detector spec per shard.
//!
//! A [`FleetConfig`] assigns every monitored shard (host) its own
//! [`DetectorSpec`] — kind, SLA baseline and knobs — so one supervisor
//! can run a *mixed* fleet, the deployment shape the ROADMAP's
//! "heterogeneous shards" item asks for. The on-disk format is a
//! minimal TOML-like dialect parsed without any dependency, mirroring
//! the hand-rolled key=value style of `rejuv-core`'s config builders:
//!
//! ```text
//! # fleet.toml — 4 hosts, three detector families
//! [fleet]
//! shards = 4
//!
//! [defaults]
//! mu = 5.0            # SLA baseline applied to every shard
//! sigma = 5.0
//!
//! [shard 0]
//! detector = sraa
//! sample_size = 2
//! buckets = 5
//! depth = 3
//!
//! [shard 1]
//! detector = saraa
//! sample_size = 4
//!
//! [shard 2]
//! detector = clta
//! quantile = 1.96
//!
//! [shard 3]
//! detector = cusum
//! reference = 0.5
//! decision = 5.0
//! ```
//!
//! Rules:
//!
//! * `[fleet] shards = N` fixes the shard count; otherwise it is the
//!   highest `[shard i]` index + 1. Shards without a section run the
//!   `[defaults]` spec unchanged.
//! * `[defaults]` keys are layered under every shard section; a shard's
//!   own keys win. `detector` selects the kind (default `sraa`), and a
//!   kind switch re-seeds the kind's default knobs before any explicit
//!   keys apply.
//! * `#` starts a comment; values may be bare or double-quoted; every
//!   spec is validated through the `rejuv-core` builders at parse time.
//!
//! [`FleetConfig::to_toml`] renders a parseable file that round-trips
//! losslessly (shortest-round-trip float formatting), the property the
//! fleet proptest suite pins down.

use rejuv_core::{ConfigError, DetectorKind, DetectorSpec, RejuvenationDetector};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

/// The most shards one fleet may have. A fleet file's `shards` key and
/// an event-log `Start` header's shard count are read before anything
/// else is checked, and each shard costs a queue, a detector and three
/// histograms, so a count past this bound is refused with
/// [`FleetError::TooManyShards`] instead of being allocated.
pub const MAX_SHARDS: usize = 65_536;

/// Per-shard detector assignments for one supervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    specs: Vec<DetectorSpec>,
}

/// Why a fleet config file was rejected.
#[derive(Debug)]
pub enum FleetError {
    /// The file defines no shards at all.
    Empty,
    /// A line is not a section header, key=value pair, comment or blank.
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// An unrecognised `[section]` name.
    UnknownSection {
        /// 1-based line number.
        line: usize,
        /// The offending section name.
        section: String,
    },
    /// Two sections configure the same shard index.
    DuplicateShard {
        /// The shard index configured twice.
        shard: usize,
    },
    /// A `[shard i]` index is outside `0..shards`.
    ShardOutOfRange {
        /// The offending shard index.
        shard: usize,
        /// The declared fleet size.
        shards: usize,
    },
    /// An unrecognised key in a section.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The offending key.
        key: String,
    },
    /// A value failed to parse as its key's type.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value was rejected.
        key: String,
        /// The raw value text.
        value: String,
    },
    /// The fleet has more than [`MAX_SHARDS`] shards.
    TooManyShards {
        /// The shard count asked for.
        shards: usize,
    },
    /// A shard's assembled spec failed detector validation.
    Invalid {
        /// The offending shard index.
        shard: usize,
        /// The builder error.
        source: ConfigError,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Empty => write!(f, "fleet config defines no shards"),
            FleetError::Malformed { line } => {
                write!(f, "line {line}: expected `[section]` or `key = value`")
            }
            FleetError::UnknownSection { line, section } => write!(
                f,
                "line {line}: unknown section [{section}] (expected [fleet], [defaults] or [shard N])"
            ),
            FleetError::DuplicateShard { shard } => {
                write!(f, "shard {shard} is configured twice")
            }
            FleetError::ShardOutOfRange { shard, shards } => write!(
                f,
                "shard {shard} is outside the declared fleet of {shards} shard(s)"
            ),
            FleetError::UnknownKey { line, key } => write!(f, "line {line}: unknown key `{key}`"),
            FleetError::BadValue { line, key, value } => {
                write!(f, "line {line}: bad value `{value}` for key `{key}`")
            }
            FleetError::TooManyShards { shards } => write!(
                f,
                "{shards} shards exceed the limit of {MAX_SHARDS} shards per fleet"
            ),
            FleetError::Invalid { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

fn check_shard_count(shards: usize) -> Result<(), FleetError> {
    if shards > MAX_SHARDS {
        return Err(FleetError::TooManyShards { shards });
    }
    Ok(())
}

/// Which section a parsed line belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Section {
    Fleet,
    Defaults,
    Shard(usize),
}

/// A raw `key = value` pair with its source line (for error messages).
type RawEntry = (String, String, usize);

impl FleetConfig {
    /// Wraps explicit per-shard specs, validating each.
    ///
    /// # Errors
    ///
    /// [`FleetError::Empty`] for an empty list,
    /// [`FleetError::TooManyShards`] for more than [`MAX_SHARDS`],
    /// [`FleetError::Invalid`] for a spec its builder rejects.
    pub fn new(specs: Vec<DetectorSpec>) -> Result<FleetConfig, FleetError> {
        if specs.is_empty() {
            return Err(FleetError::Empty);
        }
        check_shard_count(specs.len())?;
        for (shard, spec) in specs.iter().enumerate() {
            spec.validate()
                .map_err(|source| FleetError::Invalid { shard, source })?;
        }
        Ok(FleetConfig { specs })
    }

    /// A homogeneous fleet: `shards` copies of one spec (what the old
    /// `monitord --detector` flag and a log's `Start` header express).
    /// The count is checked before anything is allocated, and the
    /// allocation itself is fallible.
    ///
    /// # Errors
    ///
    /// As [`FleetConfig::new`]; [`FleetError::TooManyShards`] also when
    /// the allocator refuses the specs.
    pub fn homogeneous(spec: DetectorSpec, shards: usize) -> Result<FleetConfig, FleetError> {
        check_shard_count(shards)?;
        let mut specs = Vec::new();
        specs
            .try_reserve_exact(shards)
            .map_err(|_| FleetError::TooManyShards { shards })?;
        specs.resize(shards, spec);
        FleetConfig::new(specs)
    }

    /// Parses the TOML-like fleet file format (see the module docs).
    ///
    /// # Errors
    ///
    /// A typed [`FleetError`] naming the offending line, key or shard.
    pub fn parse(text: &str) -> Result<FleetConfig, FleetError> {
        let mut declared: Option<usize> = None;
        let mut defaults: Vec<RawEntry> = Vec::new();
        let mut sections: BTreeMap<usize, Vec<RawEntry>> = BTreeMap::new();
        let mut current: Option<Section> = None;

        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = strip_comment(raw).trim();
            if content.is_empty() {
                continue;
            }
            if let Some(name) = content
                .strip_prefix('[')
                .and_then(|rest| rest.strip_suffix(']'))
            {
                let section = parse_section(name.trim(), line)?;
                if let Section::Shard(shard) = section {
                    if sections.contains_key(&shard) {
                        return Err(FleetError::DuplicateShard { shard });
                    }
                    sections.insert(shard, Vec::new());
                }
                current = Some(section);
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(FleetError::Malformed { line });
            };
            let key = key.trim().to_owned();
            let value = unquote(value.trim()).to_owned();
            match current {
                None => return Err(FleetError::Malformed { line }),
                Some(Section::Fleet) => match key.as_str() {
                    "shards" => {
                        declared = Some(value.parse().map_err(|_| FleetError::BadValue {
                            line,
                            key,
                            value: value.clone(),
                        })?);
                    }
                    _ => return Err(FleetError::UnknownKey { line, key }),
                },
                Some(Section::Defaults) => defaults.push((key, value, line)),
                Some(Section::Shard(shard)) => {
                    sections
                        .get_mut(&shard)
                        .expect("section registered")
                        .push((key, value, line));
                }
            }
        }

        let implied = sections.keys().next_back().map_or(0, |&max| max + 1);
        let shards = declared.unwrap_or(implied);
        if shards == 0 {
            return Err(FleetError::Empty);
        }
        check_shard_count(shards)?;
        if implied > shards {
            return Err(FleetError::ShardOutOfRange {
                shard: implied - 1,
                shards,
            });
        }

        let empty: Vec<RawEntry> = Vec::new();
        let mut specs = Vec::with_capacity(shards);
        for shard in 0..shards {
            let own = sections.get(&shard).unwrap_or(&empty);
            // The kind decides which defaults seed the spec, so find it
            // first: the shard's own `detector` key wins over the
            // defaults section's.
            let kind_entry = own
                .iter()
                .chain(defaults.iter())
                .find(|(key, _, _)| key == "detector");
            let kind = match kind_entry {
                None => DetectorKind::Sraa,
                Some((key, value, line)) => {
                    DetectorKind::parse(value).ok_or_else(|| FleetError::BadValue {
                        line: *line,
                        key: key.clone(),
                        value: value.clone(),
                    })?
                }
            };
            let mut spec = DetectorSpec::new(kind);
            for (key, value, line) in defaults.iter().chain(own.iter()) {
                apply_key(&mut spec, key, value, *line)?;
            }
            spec.validate()
                .map_err(|source| FleetError::Invalid { shard, source })?;
            specs.push(spec);
        }
        Ok(FleetConfig { specs })
    }

    /// Reads and parses a fleet file.
    ///
    /// # Errors
    ///
    /// I/O errors from reading; `InvalidData` wrapping the
    /// [`FleetError`] message for parse failures.
    pub fn load(path: &Path) -> io::Result<FleetConfig> {
        let text = std::fs::read_to_string(path)?;
        FleetConfig::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("fleet config {}: {e}", path.display()),
            )
        })
    }

    /// The per-shard specs, indexed by shard.
    pub fn specs(&self) -> &[DetectorSpec] {
        &self.specs
    }

    /// Number of shards the fleet defines.
    pub fn shard_count(&self) -> usize {
        self.specs.len()
    }

    /// Builds every shard's detector (specs were validated at
    /// construction, so this cannot fail).
    pub fn detectors(&self) -> Vec<Box<dyn RejuvenationDetector>> {
        self.specs
            .iter()
            .map(|s| s.build().expect("specs are validated at construction"))
            .collect()
    }

    /// A compact human summary, e.g. `"sraa x2, clta x1, cusum x1"`.
    pub fn summary(&self) -> String {
        let mut counts: Vec<(DetectorKind, usize)> = Vec::new();
        for spec in &self.specs {
            match counts.iter_mut().find(|(k, _)| *k == spec.kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((spec.kind, 1)),
            }
        }
        counts
            .iter()
            .map(|(kind, n)| format!("{kind} x{n}"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Renders a config file that [`FleetConfig::parse`] reads back to
    /// an equal `FleetConfig`. Every shard is written in full (no
    /// `[defaults]` factoring), with shortest-round-trip float
    /// formatting, so serialise→parse is lossless.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("[fleet]\n");
        out.push_str(&format!("shards = {}\n", self.specs.len()));
        for (shard, spec) in self.specs.iter().enumerate() {
            out.push_str(&format!("\n[shard {shard}]\n"));
            out.push_str(&format!("detector = {}\n", spec.kind));
            out.push_str(&format!("mu = {:?}\n", spec.mu));
            out.push_str(&format!("sigma = {:?}\n", spec.sigma));
            out.push_str(&format!("sample_size = {}\n", spec.sample_size));
            out.push_str(&format!("buckets = {}\n", spec.buckets));
            out.push_str(&format!("depth = {}\n", spec.depth));
            out.push_str(&format!("quantile = {:?}\n", spec.quantile));
            out.push_str(&format!("reference = {:?}\n", spec.reference));
            out.push_str(&format!("decision = {:?}\n", spec.decision));
            out.push_str(&format!("weight = {:?}\n", spec.weight));
            out.push_str(&format!("limit = {:?}\n", spec.limit));
        }
        out
    }
}

/// Strips a trailing `#` comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut quoted = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => quoted = !quoted,
            '#' if !quoted => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Removes one matching pair of surrounding double quotes, if present.
fn unquote(value: &str) -> &str {
    value
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or(value)
}

fn parse_section(name: &str, line: usize) -> Result<Section, FleetError> {
    match name {
        "fleet" => return Ok(Section::Fleet),
        "defaults" => return Ok(Section::Defaults),
        _ => {}
    }
    // `[shard N]` or `[shard.N]` — any whitespace (spaces or tabs, as
    // some editors insert) around the separator is accepted.
    let index = name
        .strip_prefix("shard")
        .map(|rest| rest.trim_start_matches(|c: char| c.is_whitespace() || c == '.'))
        .and_then(|rest| rest.parse::<usize>().ok());
    match index {
        Some(shard) => Ok(Section::Shard(shard)),
        None => Err(FleetError::UnknownSection {
            line,
            section: name.to_owned(),
        }),
    }
}

/// Applies one `key = value` pair onto a spec.
fn apply_key(
    spec: &mut DetectorSpec,
    key: &str,
    value: &str,
    line: usize,
) -> Result<(), FleetError> {
    fn parsed<T: std::str::FromStr>(key: &str, value: &str, line: usize) -> Result<T, FleetError> {
        value.parse().map_err(|_| FleetError::BadValue {
            line,
            key: key.to_owned(),
            value: value.to_owned(),
        })
    }
    match key {
        // The kind was resolved before defaults were layered.
        "detector" => {}
        "mu" => spec.mu = parsed(key, value, line)?,
        "sigma" => spec.sigma = parsed(key, value, line)?,
        "sample_size" => spec.sample_size = parsed(key, value, line)?,
        "buckets" => spec.buckets = parsed(key, value, line)?,
        "depth" => spec.depth = parsed(key, value, line)?,
        "quantile" => spec.quantile = parsed(key, value, line)?,
        "reference" => spec.reference = parsed(key, value, line)?,
        "decision" => spec.decision = parsed(key, value, line)?,
        "weight" => spec.weight = parsed(key, value, line)?,
        "limit" => spec.limit = parsed(key, value, line)?,
        _ => {
            return Err(FleetError::UnknownKey {
                line,
                key: key.to_owned(),
            })
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: &str = r#"
# A 4-shard mixed fleet.
[fleet]
shards = 4

[defaults]
mu = 5.0
sigma = 5.0

[shard 0]
detector = sraa
sample_size = 2
buckets = 5
depth = 3

[shard 1]
detector = saraa   # inline comment
sample_size = 4

[shard 2]
detector = "clta"
quantile = 1.96

[shard 3]
detector = cusum
reference = 0.5
decision = 5.0
"#;

    #[test]
    fn shard_counts_past_the_limit_are_refused_before_allocating() {
        let spec = DetectorSpec::new(DetectorKind::Sraa);
        for text in ["[fleet]\nshards = 4000000000\n", "[shard 4000000000]\n"] {
            assert!(
                matches!(
                    FleetConfig::parse(text),
                    Err(FleetError::TooManyShards { shards }) if shards > MAX_SHARDS
                ),
                "{text:?}"
            );
        }
        let err = FleetConfig::homogeneous(spec, 4_000_000_000).unwrap_err();
        assert_eq!(
            err.to_string(),
            "4000000000 shards exceed the limit of 65536 shards per fleet"
        );
        assert_eq!(
            FleetConfig::homogeneous(spec, MAX_SHARDS)
                .unwrap()
                .shard_count(),
            MAX_SHARDS
        );
    }

    #[test]
    fn parses_a_mixed_fleet() {
        let fleet = FleetConfig::parse(MIXED).unwrap();
        assert_eq!(fleet.shard_count(), 4);
        let kinds: Vec<DetectorKind> = fleet.specs().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DetectorKind::Sraa,
                DetectorKind::Saraa,
                DetectorKind::Clta,
                DetectorKind::Cusum,
            ]
        );
        assert_eq!(fleet.specs()[1].sample_size, 4);
        assert_eq!(fleet.specs()[2].quantile, 1.96);
        assert_eq!(fleet.summary(), "sraa x1, saraa x1, clta x1, cusum x1");
        let names: Vec<&str> = fleet.detectors().iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["SRAA", "SARAA", "CLTA", "CUSUM"]);
    }

    #[test]
    fn defaults_fill_unconfigured_shards() {
        let text = "[fleet]\nshards = 3\n[defaults]\ndetector = clta\nmu = 4.0\n";
        let fleet = FleetConfig::parse(text).unwrap();
        assert_eq!(fleet.shard_count(), 3);
        for spec in fleet.specs() {
            assert_eq!(spec.kind, DetectorKind::Clta);
            assert_eq!(spec.mu, 4.0);
            assert_eq!(spec.sample_size, 30, "kind defaults seed the spec");
        }
    }

    #[test]
    fn shard_count_is_implied_by_the_highest_index() {
        let text = "[shard 0]\ndetector = sraa\n[shard 2]\ndetector = ewma\n";
        let fleet = FleetConfig::parse(text).unwrap();
        assert_eq!(fleet.shard_count(), 3);
        assert_eq!(
            fleet.specs()[1].kind,
            DetectorKind::Sraa,
            "gap runs defaults"
        );
        assert_eq!(fleet.specs()[2].kind, DetectorKind::Ewma);
    }

    #[test]
    fn kind_switch_reseeds_kind_defaults_before_shard_keys() {
        // The defaults section sets a SARAA-ish sample size; shard 0
        // switches to CLTA, which must start from CLTA's defaults and
        // then apply both layers' explicit keys.
        let text = "[defaults]\nsample_size = 7\n[shard 0]\ndetector = clta\n";
        let fleet = FleetConfig::parse(text).unwrap();
        assert_eq!(fleet.specs()[0].kind, DetectorKind::Clta);
        assert_eq!(
            fleet.specs()[0].sample_size,
            7,
            "explicit defaults keys still apply over kind defaults"
        );
        assert_eq!(fleet.specs()[0].quantile, 1.96);
    }

    #[test]
    fn typed_errors_name_the_offence() {
        assert!(matches!(FleetConfig::parse(""), Err(FleetError::Empty)));
        assert!(matches!(
            FleetConfig::parse("[garbage]\n"),
            Err(FleetError::UnknownSection { line: 1, .. })
        ));
        assert!(matches!(
            FleetConfig::parse("[shard 0]\ndetector = markov\n"),
            Err(FleetError::BadValue { line: 2, .. })
        ));
        assert!(matches!(
            FleetConfig::parse("[shard 0]\nwindow = 3\n"),
            Err(FleetError::UnknownKey { line: 2, .. })
        ));
        assert!(matches!(
            FleetConfig::parse("[shard 0]\ndetector = sraa\n[shard 0]\n"),
            Err(FleetError::DuplicateShard { shard: 0 })
        ));
        assert!(matches!(
            FleetConfig::parse("[fleet]\nshards = 1\n[shard 4]\n"),
            Err(FleetError::ShardOutOfRange {
                shard: 4,
                shards: 1
            })
        ));
        assert!(matches!(
            FleetConfig::parse("[shard 0]\ndetector = sraa\nsample_size = 0\n"),
            Err(FleetError::Invalid { shard: 0, .. })
        ));
        assert!(matches!(
            FleetConfig::parse("no section\n"),
            Err(FleetError::Malformed { line: 1 })
        ));
    }

    #[test]
    fn crlf_line_endings_parse_identically() {
        // A Windows-edited fleet file: every line ends \r\n (including
        // after inline comments and quoted values).
        let crlf = MIXED.replace('\n', "\r\n");
        assert_eq!(
            FleetConfig::parse(&crlf).unwrap(),
            FleetConfig::parse(MIXED).unwrap()
        );
        // A final line without a trailing newline but with a stray \r.
        let fleet = FleetConfig::parse("[shard 0]\r\ndetector = clta\r").unwrap();
        assert_eq!(fleet.specs()[0].kind, DetectorKind::Clta);
    }

    #[test]
    fn tabs_and_trailing_whitespace_around_keys_parse() {
        // Tab-indented keys, tabs around `=`, trailing spaces/tabs
        // after values, and a tab inside the section header.
        let text = "[fleet]\t\nshards\t=\t2  \n[shard\t0]\n\tdetector = clta\t\n\
                    [shard . 1]  \n  detector\t= cusum  \t\n";
        let fleet = FleetConfig::parse(text).unwrap();
        assert_eq!(fleet.shard_count(), 2);
        assert_eq!(fleet.specs()[0].kind, DetectorKind::Clta);
        assert_eq!(fleet.specs()[1].kind, DetectorKind::Cusum);
    }

    #[test]
    fn to_toml_round_trips() {
        let fleet = FleetConfig::parse(MIXED).unwrap();
        let rendered = fleet.to_toml();
        let back = FleetConfig::parse(&rendered).unwrap();
        assert_eq!(fleet, back);
        // And rendering is a fixed point.
        assert_eq!(rendered, back.to_toml());
    }

    #[test]
    fn homogeneous_matches_a_repeated_spec() {
        let spec = DetectorSpec::new(DetectorKind::Ewma);
        let fleet = FleetConfig::homogeneous(spec, 3).unwrap();
        assert_eq!(fleet.shard_count(), 3);
        assert!(fleet.specs().iter().all(|s| *s == spec));
        assert!(FleetConfig::homogeneous(spec, 0).is_err());
    }
}
