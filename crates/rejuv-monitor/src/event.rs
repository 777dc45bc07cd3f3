//! The structured JSONL event log.
//!
//! Every state change the runtime observes — run header, drained
//! observation batches, rejuvenation decisions, checkpoint points — is
//! appended as one JSON object per line, the same
//! one-self-contained-record-per-line format as
//! `rejuv_ecommerce::trace::EventTrace::write_jsonl`. A recorded log is
//! a complete replay script: `monitord --replay` re-ingests the `Batch`
//! lines through a fresh supervisor (rebuilt from the `Start` header)
//! and must reproduce every decision bit-for-bit.

use rejuv_core::{DetectorSnapshot, DetectorSpec};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// One line of the monitor event log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MonitorEvent {
    /// Run header: enough configuration to rebuild an identical
    /// supervisor for replay. Always the first line of a log.
    Start {
        /// Number of monitored shards.
        shards: u32,
        /// Detector kind attached to every shard (a
        /// `RejuvenationDetector::name`).
        detector: String,
        /// Per-shard ingestion queue capacity.
        queue_capacity: u64,
        /// Maximum observations drained per poll.
        drain_batch: u64,
        /// Checkpoint cadence, observations per shard (`None` disabled).
        snapshot_every: Option<u64>,
    },
    /// Heterogeneous-fleet run header: like [`MonitorEvent::Start`] but
    /// carrying one full [`DetectorSpec`] per shard, so a mixed-fleet
    /// log is self-contained — replay rebuilds the exact fleet without
    /// needing the original fleet config file. Written instead of
    /// `Start` whenever the supervisor was built from specs.
    FleetStart {
        /// Number of monitored shards (`specs.len()`).
        shards: u32,
        /// Per-shard detector specs, by shard index.
        specs: Vec<DetectorSpec>,
        /// Per-shard ingestion queue capacity.
        queue_capacity: u64,
        /// Maximum observations drained per poll.
        drain_batch: u64,
        /// Checkpoint cadence, observations per shard (`None` disabled).
        snapshot_every: Option<u64>,
    },
    /// One drained batch of observations, in processing order. `seq` is
    /// the shard-local index of the first value.
    Batch {
        /// Shard that processed the batch.
        shard: u32,
        /// Shard-local sequence number of `values[0]` (0-based).
        seq: u64,
        /// The observation values, oldest first.
        values: Vec<f64>,
    },
    /// Version-2 batch record: a drained batch whose samples carry
    /// simulation timestamps. Written instead of [`MonitorEvent::Batch`]
    /// whenever at least one sample in the batch is timed, so replay can
    /// rebuild the inter-observation latency histogram bit-for-bit.
    /// Logs written before timestamps existed contain only `Batch`
    /// records and still replay unchanged.
    TimedBatch {
        /// Shard that processed the batch.
        shard: u32,
        /// Shard-local sequence number of `values[0]` (0-based).
        seq: u64,
        /// The observation values, oldest first.
        values: Vec<f64>,
        /// Per-sample timestamps (seconds of simulation time), aligned
        /// with `values`; untimed samples are `NaN` (serialised `null`).
        times: Vec<f64>,
    },
    /// The shard's detector decided to rejuvenate on observation `seq`.
    Rejuvenated {
        /// Shard whose detector fired.
        shard: u32,
        /// Shard-local sequence number of the triggering observation.
        seq: u64,
    },
    /// A detector state checkpoint taken after observation `seq`.
    Snapshot {
        /// Shard that was checkpointed.
        shard: u32,
        /// Shard-local sequence number of the last processed
        /// observation.
        seq: u64,
        /// The complete detector state.
        state: DetectorSnapshot,
    },
}

/// An append-only JSONL writer for [`MonitorEvent`]s.
///
/// Every line is assembled in one reusable buffer and handed to the
/// sink in a single `write_all`. The two hot records, `Batch` and
/// `TimedBatch`, are encoded straight to bytes; the rest go through
/// `serde_json`. Both paths produce the same canonical text.
pub struct EventLog {
    sink: Box<dyn Write + Send>,
    line: Vec<u8>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog").finish_non_exhaustive()
    }
}

impl EventLog {
    /// Wraps any writer (a file, a `Vec<u8>` buffer, …).
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        EventLog {
            sink,
            line: Vec::new(),
        }
    }

    /// Appends one event as a JSON line.
    pub fn record(&mut self, event: &MonitorEvent) -> io::Result<()> {
        self.line.clear();
        encode_line(event, &mut self.line)?;
        self.sink.write_all(&self.line)
    }

    /// Appends lines already encoded by [`encode_line`] or
    /// [`encode_batch`].
    pub(crate) fn write_encoded(&mut self, lines: &[u8]) -> io::Result<()> {
        self.sink.write_all(lines)
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.sink.flush()
    }
}

/// A cloneable in-memory byte sink for capturing an [`EventLog`]
/// without touching the filesystem (tests, in-process replay checks).
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer {
    bytes: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        SharedBuffer::default()
    }

    /// A copy of everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.bytes.lock().expect("buffer lock poisoned").clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes
            .lock()
            .expect("buffer lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Appends `event` and its terminating `\n` to `out`, byte-identical to
/// `serde_json::to_string(event)` plus `\n`: keys in sorted order, each
/// float as the token [`serde_json::float::write_json`] writes.
pub(crate) fn encode_line(event: &MonitorEvent, out: &mut Vec<u8>) -> io::Result<()> {
    match event {
        MonitorEvent::Batch { shard, seq, values } => encode_batch(*shard, *seq, values, None, out),
        MonitorEvent::TimedBatch {
            shard,
            seq,
            values,
            times,
        } => encode_batch(*shard, *seq, values, Some(times), out),
        _ => {
            let text = serde_json::to_string(event)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            out.extend_from_slice(text.as_bytes());
            out.push(b'\n');
        }
    }
    Ok(())
}

/// Appends the line of a drained batch from borrowed slices: a
/// [`MonitorEvent::TimedBatch`] line when `times` is given, else a
/// [`MonitorEvent::Batch`] line. The one batch encoder, for
/// [`encode_line`] and for the drain path, which logs a batch straight
/// from its scratch buffers.
pub(crate) fn encode_batch(
    shard: u32,
    seq: u64,
    values: &[f64],
    times: Option<&[f64]>,
    out: &mut Vec<u8>,
) {
    let tag = if times.is_some() {
        "TimedBatch"
    } else {
        "Batch"
    };
    write!(out, "{{\"{tag}\":{{\"seq\":{seq},\"shard\":{shard},")
        .expect("writing to a Vec cannot fail");
    if let Some(times) = times {
        out.extend_from_slice(b"\"times\":");
        encode_floats(times, out);
        out.push(b',');
    }
    out.extend_from_slice(b"\"values\":");
    encode_floats(values, out);
    out.extend_from_slice(b"}}\n");
}

fn encode_floats(values: &[f64], out: &mut Vec<u8>) {
    out.push(b'[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        serde_json::float::write_json(out, v);
    }
    out.push(b']');
}

/// Parses one log line. Canonical `Batch`/`TimedBatch` lines (exactly
/// what [`EventLog::record`] writes) take a hand-rolled fast path; every
/// other line, and any token the fast path is not sure of, goes to
/// `serde_json::from_str`. The fast path accepts only lines the serde
/// path also accepts, and yields a bitwise-equal event for them.
fn decode_line(line: &str) -> Result<MonitorEvent, serde_json::Error> {
    match BatchLine::parse(line) {
        Some(event) => Ok(event),
        None => serde_json::from_str(line),
    }
}

/// Cursor over one canonical batch line (the [`decode_line`] fast
/// path). Every method returns `None` at the first byte it does not
/// expect, which sends the whole line to the serde path.
///
/// The serde parser reads a number as the longest run of
/// `[0-9.eE+-]`. Every number the fast path accepts is followed by `,`,
/// `]` or `}` (checked by the caller), so both parsers see the same
/// token and, through `str::parse`, the same value.
struct BatchLine<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> BatchLine<'a> {
    fn parse(text: &'a str) -> Option<MonitorEvent> {
        let mut cur = BatchLine { text, pos: 0 };
        let timed = if cur.eat("{\"Batch\":{\"seq\":") {
            false
        } else if cur.eat("{\"TimedBatch\":{\"seq\":") {
            true
        } else {
            return None;
        };
        let seq = cur.unsigned()?;
        cur.expect(",\"shard\":")?;
        let shard = u32::try_from(cur.unsigned()?).ok()?;
        let times = if timed {
            cur.expect(",\"times\":")?;
            Some(cur.floats()?)
        } else {
            None
        };
        cur.expect(",\"values\":")?;
        let values = cur.floats()?;
        cur.expect("}}")?;
        if cur.pos != text.len() {
            return None;
        }
        Some(match times {
            Some(times) => MonitorEvent::TimedBatch {
                shard,
                seq,
                values,
                times,
            },
            None => MonitorEvent::Batch { shard, seq, values },
        })
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, tag: &str) -> bool {
        let hit = self.bytes()[self.pos..].starts_with(tag.as_bytes());
        if hit {
            self.pos += tag.len();
        }
        hit
    }

    fn expect(&mut self, tag: &str) -> Option<()> {
        self.eat(tag).then_some(())
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn unsigned(&mut self) -> Option<u64> {
        let start = self.pos;
        if self.digits() == 0 {
            return None;
        }
        self.text[start..self.pos].parse().ok()
    }

    /// A JSON array of float tokens and `null`s (NaN).
    fn floats(&mut self) -> Option<Vec<f64>> {
        self.expect("[")?;
        let mut out = Vec::new();
        if self.eat("]") {
            return Some(out);
        }
        loop {
            out.push(if self.eat("null") {
                f64::NAN
            } else {
                self.float()?
            });
            if self.eat("]") {
                return Some(out);
            }
            self.expect(",")?;
        }
    }

    /// One strict-grammar JSON number with a fraction or an exponent:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Integer tokens
    /// are left to serde, which reads them as integers first (so `-0`
    /// becomes `+0.0` there).
    fn float(&mut self) -> Option<f64> {
        let start = self.pos;
        self.eat("-");
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes()[int_start] == b'0') {
            return None;
        }
        let mut is_float = false;
        if self.eat(".") {
            if self.digits() == 0 {
                return None;
            }
            is_float = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return None;
            }
            is_float = true;
        }
        if !is_float {
            return None;
        }
        self.text[start..self.pos].parse().ok()
    }
}

/// Reads the next line into `buf` (cleared first), dropping a `\n` or
/// `\r\n` terminator exactly as [`BufRead::lines`] does. `Ok(false)` at
/// end of input.
fn next_line<R: BufRead>(reader: &mut R, buf: &mut String) -> io::Result<bool> {
    buf.clear();
    if reader.read_line(buf)? == 0 {
        return Ok(false);
    }
    if buf.ends_with('\n') {
        buf.pop();
        if buf.ends_with('\r') {
            buf.pop();
        }
    }
    Ok(true)
}

fn invalid_line(number: usize, e: serde_json::Error) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("event log line {number}: {e}"),
    )
}

/// Reads a full JSONL event log back, skipping blank lines.
///
/// # Errors
///
/// I/O errors from the reader, or `InvalidData` for unparseable lines.
pub fn read_events<R: BufRead>(mut reader: R) -> io::Result<Vec<MonitorEvent>> {
    let mut events = Vec::new();
    let mut line = String::new();
    let mut number = 0;
    while next_line(&mut reader, &mut line)? {
        number += 1;
        if line.trim().is_empty() {
            continue;
        }
        events.push(decode_line(&line).map_err(|e| invalid_line(number, e))?);
    }
    Ok(events)
}

/// Reads a JSONL event log that may end in a *torn* final line — the
/// footprint of a crash (or `SIGTERM`) that caught the writer mid-line.
///
/// All complete lines are parsed exactly as [`read_events`] would; a
/// final line that fails to parse is dropped and returned as
/// `Some(line)` so the caller can report it. A parse failure on any
/// *non-final* line is still an error: mid-log corruption is never
/// silently skipped.
///
/// Lines are streamed: only a line that fails to parse makes the reader
/// look further ahead, reading the rest of the log to tell a torn tail
/// (nothing but blank lines follow) from corruption.
///
/// # Errors
///
/// I/O errors from the reader, or `InvalidData` for an unparseable line
/// that is not the last line of the log.
pub fn read_events_tolerant<R: BufRead>(
    mut reader: R,
) -> io::Result<(Vec<MonitorEvent>, Option<String>)> {
    let mut events = Vec::new();
    let mut line = String::new();
    let mut number = 0;
    while next_line(&mut reader, &mut line)? {
        number += 1;
        if line.trim().is_empty() {
            continue;
        }
        match decode_line(&line) {
            Ok(event) => events.push(event),
            Err(e) => {
                let mut rest = String::new();
                let mut corrupt = false;
                while next_line(&mut reader, &mut rest)? {
                    corrupt |= !rest.trim().is_empty();
                }
                if corrupt {
                    return Err(invalid_line(number, e));
                }
                return Ok((events, Some(line)));
            }
        }
    }
    Ok((events, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rejuv_core::{RejuvenationDetector, Sraa, SraaConfig};

    fn events() -> Vec<MonitorEvent> {
        let mut sraa = Sraa::new(
            SraaConfig::builder(5.0, 5.0)
                .sample_size(2)
                .build()
                .unwrap(),
        );
        sraa.observe(3.5);
        vec![
            MonitorEvent::Start {
                shards: 2,
                detector: "SRAA".to_owned(),
                queue_capacity: 1024,
                drain_batch: 64,
                snapshot_every: Some(500),
            },
            MonitorEvent::FleetStart {
                shards: 2,
                specs: vec![
                    rejuv_core::DetectorSpec::new(rejuv_core::DetectorKind::Sraa),
                    rejuv_core::DetectorSpec::new(rejuv_core::DetectorKind::Cusum),
                ],
                queue_capacity: 1024,
                drain_batch: 64,
                snapshot_every: None,
            },
            MonitorEvent::Batch {
                shard: 0,
                seq: 0,
                values: vec![1.25, 40.0, 3.0],
            },
            MonitorEvent::Rejuvenated { shard: 0, seq: 2 },
            MonitorEvent::TimedBatch {
                shard: 1,
                seq: 3,
                values: vec![2.0, 6.5],
                times: vec![0.25, 1.75],
            },
            MonitorEvent::Snapshot {
                shard: 1,
                seq: 7,
                state: sraa.snapshot().unwrap(),
            },
        ]
    }

    #[test]
    fn log_round_trips_through_jsonl() {
        let buffer = SharedBuffer::new();
        {
            let mut log = EventLog::new(Box::new(buffer.clone()));
            for event in &events() {
                log.record(event).unwrap();
            }
            log.flush().unwrap();
        }
        let bytes = buffer.contents();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert_eq!(text.lines().count(), 6, "one JSON object per line");
        let back = read_events(io::Cursor::new(bytes)).unwrap();
        assert_eq!(back, events());
    }

    #[test]
    fn timed_batch_nan_times_round_trip_as_null() {
        let event = MonitorEvent::TimedBatch {
            shard: 0,
            seq: 0,
            values: vec![1.0, 2.0],
            times: vec![0.5, f64::NAN],
        };
        let line = serde_json::to_string(&event).unwrap();
        assert!(line.contains("null"), "untimed entries serialise as null");
        let back: MonitorEvent = serde_json::from_str(&line).unwrap();
        let MonitorEvent::TimedBatch { times, values, .. } = back else {
            panic!("variant survives");
        };
        assert_eq!(values, vec![1.0, 2.0]);
        assert_eq!(times[0], 0.5);
        assert!(times[1].is_nan());
    }

    #[test]
    fn tolerant_reader_drops_only_a_torn_final_line() {
        let buffer = SharedBuffer::new();
        {
            let mut log = EventLog::new(Box::new(buffer.clone()));
            for event in &events() {
                log.record(event).unwrap();
            }
        }
        let mut bytes = buffer.contents();
        // A crash mid-write leaves a truncated trailing line.
        bytes.extend_from_slice(b"{\"Batch\":{\"shard\":0,\"se");
        let (parsed, torn) = read_events_tolerant(io::Cursor::new(bytes.clone())).unwrap();
        assert_eq!(parsed, events());
        assert!(torn.expect("torn tail reported").starts_with("{\"Batch\""));

        // The same garbage mid-log is corruption, not a torn tail.
        let mut corrupted = b"not json\n".to_vec();
        corrupted.extend_from_slice(&bytes);
        let err = read_events_tolerant(io::Cursor::new(corrupted)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A clean log reports no torn tail.
        let clean = {
            let buffer = SharedBuffer::new();
            let mut log = EventLog::new(Box::new(buffer.clone()));
            log.record(&events()[0]).unwrap();
            buffer.contents()
        };
        let (parsed, torn) = read_events_tolerant(io::Cursor::new(clean)).unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(torn.is_none());
    }

    #[test]
    fn blank_lines_are_skipped_and_garbage_rejected() {
        let ok = read_events(io::Cursor::new(b"\n\n".to_vec())).unwrap();
        assert!(ok.is_empty());
        let err = read_events(io::Cursor::new(b"not json\n".to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }
}
