//! Equivalence suite for the event-log codec.
//!
//! `EventLog::record` writes `Batch`/`TimedBatch` lines straight to
//! bytes, and `read_events` parses canonical batch lines by hand. Both
//! are pinned here against the plain `serde_json` path they replace:
//!
//! 1. *encode*: every line is byte-identical to
//!    `serde_json::to_string(event) + "\n"`;
//! 2. *decode*: every encoded line reads back bitwise equal to the
//!    serde result (non-finite floats come back as `NaN`, compared by
//!    bits);
//! 3. *fallback*: non-canonical and malformed lines give the same event
//!    or the same error as a `lines()` + `serde_json::from_str`
//!    reference reader;
//! 4. *torn tails*: a log cut at any byte offset gives
//!    `read_events_tolerant` the same `(events, torn)` as the reference.

use proptest::prelude::*;
use rejuv_monitor::{
    load_snapshot, read_events, read_events_tolerant, EventLog, MonitorEvent, SharedBuffer,
};
use std::io::{self, BufRead};

/// Floats whose text form is easy to get wrong: zeros, subnormals, the
/// extremes of the exponent range, integral values (which need `.0`)
/// and the non-finite values (which serialise as `null`).
const SPECIAL: [f64; 20] = [
    0.0,
    -0.0,
    1.0,
    -3.0,
    5e-324,
    2.225_073_858_507_201e-308,
    1e-300,
    1e308,
    -1e308,
    f64::MAX,
    1e22,
    1e21,
    1e23,
    9_007_199_254_740_993.0,
    123_456_789.0,
    0.1,
    1.0 / 3.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn float_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        any::<u64>().prop_map(f64::from_bits),
        (-1e6f64..1e6).prop_map(|v| v.round()),
        0.0f64..50.0,
        0.0f64..1e7,
    ]
}

fn floats(max: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(float_strategy(), 0..max)
}

fn batch_strategy() -> impl Strategy<Value = MonitorEvent> {
    prop_oneof![
        (any::<u64>(), 0u32..=u32::MAX, floats(24))
            .prop_map(|(seq, shard, values)| MonitorEvent::Batch { shard, seq, values }),
        (any::<u64>(), 0u32..=u32::MAX, floats(24), floats(24)).prop_map(
            |(seq, shard, values, times)| MonitorEvent::TimedBatch {
                shard,
                seq,
                values,
                times,
            }
        ),
    ]
}

fn encode(events: &[MonitorEvent]) -> Vec<u8> {
    let buffer = SharedBuffer::new();
    let mut log = EventLog::new(Box::new(buffer.clone()));
    for event in events {
        log.record(event).expect("record into memory");
    }
    log.flush().unwrap();
    buffer.contents()
}

/// The float fields of a batch event, as bits (other events: empty).
fn float_bits(event: &MonitorEvent) -> (Vec<u64>, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match event {
        MonitorEvent::Batch { values, .. } => (bits(values), Vec::new()),
        MonitorEvent::TimedBatch { values, times, .. } => (bits(values), bits(times)),
        _ => (Vec::new(), Vec::new()),
    }
}

/// Bitwise event equality: `PartialEq` plus identical float bits, so
/// `-0.0 != 0.0` and a `NaN` must carry the same payload.
fn same_bits(a: &MonitorEvent, b: &MonitorEvent) -> bool {
    let header = |e: &MonitorEvent| match e {
        MonitorEvent::Batch { shard, seq, .. } => Some((0, *shard, *seq)),
        MonitorEvent::TimedBatch { shard, seq, .. } => Some((1, *shard, *seq)),
        _ => None,
    };
    match (header(a), header(b)) {
        (Some(ha), Some(hb)) => ha == hb && float_bits(a) == float_bits(b),
        (None, None) => a == b,
        _ => false,
    }
}

fn same_events(a: &[MonitorEvent], b: &[MonitorEvent]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(x, y))
}

/// `event` after a trip through JSON text: non-finite floats become the
/// canonical `NaN` that `null` parses to.
fn through_json(event: &MonitorEvent) -> MonitorEvent {
    let canon = |v: &[f64]| {
        v.iter()
            .map(|&x| if x.is_finite() { x } else { f64::NAN })
            .collect()
    };
    match event {
        MonitorEvent::Batch { shard, seq, values } => MonitorEvent::Batch {
            shard: *shard,
            seq: *seq,
            values: canon(values),
        },
        MonitorEvent::TimedBatch {
            shard,
            seq,
            values,
            times,
        } => MonitorEvent::TimedBatch {
            shard: *shard,
            seq: *seq,
            values: canon(values),
            times: canon(times),
        },
        other => other.clone(),
    }
}

/// The reference reader: `BufRead::lines` plus `serde_json::from_str`
/// per line, exactly the pre-codec `read_events`.
fn reference_read(bytes: &[u8]) -> io::Result<Vec<MonitorEvent>> {
    let mut events = Vec::new();
    for (number, line) in io::Cursor::new(bytes).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("event log line {}: {e}", number + 1),
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

/// The reference tolerant reader: collect every line, then parse, and
/// forgive a parse failure only on the last non-blank line.
fn reference_read_tolerant(bytes: &[u8]) -> io::Result<(Vec<MonitorEvent>, Option<String>)> {
    let lines: Vec<String> = io::Cursor::new(bytes).lines().collect::<io::Result<_>>()?;
    let last_content = lines
        .iter()
        .rposition(|l| !l.trim().is_empty())
        .unwrap_or(0);
    let mut events = Vec::new();
    for (number, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str(line) {
            Ok(event) => events.push(event),
            Err(_) if number == last_content => return Ok((events, Some(line.clone()))),
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("event log line {}: {e}", number + 1),
                ))
            }
        }
    }
    Ok((events, None))
}

/// Same events bitwise, or the same error kind and message.
fn assert_same_read(bytes: &[u8]) {
    let shown = String::from_utf8_lossy(bytes);
    match (read_events(io::Cursor::new(bytes)), reference_read(bytes)) {
        (Ok(got), Ok(want)) => assert!(
            same_events(&got, &want),
            "{shown:?}: decoded {got:?}, reference {want:?}"
        ),
        (Err(got), Err(want)) => {
            assert_eq!(got.kind(), want.kind(), "{shown:?}");
            assert_eq!(got.to_string(), want.to_string(), "{shown:?}");
        }
        (got, want) => panic!("{shown:?}: decoded {got:?}, reference {want:?}"),
    }
}

fn assert_same_tolerant(bytes: &[u8]) {
    let shown = String::from_utf8_lossy(bytes);
    match (
        read_events_tolerant(io::Cursor::new(bytes)),
        reference_read_tolerant(bytes),
    ) {
        (Ok((got, got_torn)), Ok((want, want_torn))) => {
            assert!(same_events(&got, &want), "{shown:?}");
            assert_eq!(got_torn, want_torn, "{shown:?}");
        }
        (Err(got), Err(want)) => {
            assert_eq!(got.kind(), want.kind(), "{shown:?}");
            assert_eq!(got.to_string(), want.to_string(), "{shown:?}");
        }
        (got, want) => panic!("{shown:?}: decoded {got:?}, reference {want:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The direct encoder writes exactly the serde text.
    #[test]
    fn record_is_byte_identical_to_serde(event in batch_strategy()) {
        let line = encode(std::slice::from_ref(&event));
        let want = serde_json::to_string(&event).unwrap() + "\n";
        prop_assert_eq!(String::from_utf8(line).unwrap(), want);
    }

    /// Every encoded line decodes to the event, bit for bit, and to the
    /// same value the serde path reads.
    #[test]
    fn encoded_lines_decode_bitwise(events in proptest::collection::vec(batch_strategy(), 1..6)) {
        let bytes = encode(&events);
        let back = read_events(io::Cursor::new(&bytes)).expect("encoded log parses");
        let want: Vec<MonitorEvent> = events.iter().map(through_json).collect();
        prop_assert!(same_events(&back, &want), "decoded {:?}, want {:?}", back, want);
        prop_assert!(same_events(&back, &reference_read(&bytes).unwrap()));
    }

    /// Corrupting one byte of a canonical line never makes the fast path
    /// accept what serde rejects, nor read a different value.
    #[test]
    fn mutated_lines_match_the_reference(
        event in batch_strategy(),
        at in 0usize..4096,
        pick in 0usize..MUTANTS.len(),
    ) {
        let mut bytes = encode(std::slice::from_ref(&event));
        bytes.pop(); // keep the mutation off the terminator
        let at = at % bytes.len();
        bytes[at] = MUTANTS[pick];
        bytes.push(b'\n');
        assert_same_read(&bytes);
        assert_same_tolerant(&bytes);
    }
}

/// Replacement bytes for [`mutated_lines_match_the_reference`]: every
/// byte class the batch grammar cares about.
const MUTANTS: [u8; 16] = [
    b'0', b'1', b'9', b'.', b'e', b'E', b'+', b'-', b',', b'[', b']', b'{', b'}', b' ', b'n', b'"',
];

#[test]
fn non_canonical_lines_match_the_reference() {
    let corpus: &[&[u8]] = &[
        // Canonical, for contrast.
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5,null,2.0]}}"#,
        br#"{"TimedBatch":{"seq":0,"shard":0,"times":[],"values":[]}}"#,
        // Whitespace anywhere.
        br#"{"Batch": {"seq":7,"shard":1,"values":[1.5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[ 1.5 , 2.5 ]}}"#,
        br#"  {"Batch":{"seq":7,"shard":1,"values":[1.5]}}  "#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5]}}	"#,
        // Reordered and duplicated keys.
        br#"{"Batch":{"shard":1,"seq":7,"values":[1.5]}}"#,
        br#"{"TimedBatch":{"seq":0,"shard":0,"values":[1.5],"times":[2.5]}}"#,
        br#"{"Batch":{"seq":7,"seq":8,"shard":1,"values":[1.5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5],"values":[2.5]}}"#,
        // Integer tokens, which serde reads as integers first.
        br#"{"Batch":{"seq":7,"shard":1,"values":[1,2,3]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[-0]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[-0.0]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[18446744073709551616]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[-9223372036854775809]}}"#,
        // Number forms outside the strict grammar.
        br#"{"Batch":{"seq":7,"shard":1,"values":[+1.0]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[.5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1e5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1E+5,2e-5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1e400,-1e400,1e-400]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[01.5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5e]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5.5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5-2]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[--1.5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[NaN]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[inf]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[nul]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[nullnull]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":["1.5"]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5,]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[,1.5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[[1.5]]}}"#,
        // Header integers: leading zeros, floats, signs, overflow.
        br#"{"Batch":{"seq":007,"shard":01,"values":[1.5]}}"#,
        br#"{"Batch":{"seq":7.0,"shard":1,"values":[1.5]}}"#,
        br#"{"Batch":{"seq":-7,"shard":1,"values":[1.5]}}"#,
        br#"{"Batch":{"seq":18446744073709551615,"shard":4294967295,"values":[]}}"#,
        br#"{"Batch":{"seq":18446744073709551616,"shard":1,"values":[]}}"#,
        br#"{"Batch":{"seq":7,"shard":4294967296,"values":[1.5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1e2,"values":[1.5]}}"#,
        // Wrong or missing fields, wrong variant shapes.
        br#"{"Batch":{"seq":7,"shard":1,"times":[1.5],"values":[1.5]}}"#,
        br#"{"TimedBatch":{"seq":7,"shard":1,"values":[1.5]}}"#,
        br#"{"TimedBatch":{"seq":7,"shard":1,"times":[1.5,2.5],"values":[1.5]}}"#,
        br#"{"Batch":{"seq":7,"shard":1}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5]},"Batch":{}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5]}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5]}}}"#,
        br#"{"Batch":{"seq":7,"shard":1,"values":[1.5]}}x"#,
        br#"{"Batchy":{"seq":7,"shard":1,"values":[1.5]}}"#,
        br#"{"Rejuvenated":{"seq":3,"shard":1}}"#,
        // Line endings and blank lines.
        b"{\"Batch\":{\"seq\":7,\"shard\":1,\"values\":[1.5]}}\r\n\r\n",
        b"{\"Batch\":{\"seq\":7,\"shard\":1,\"values\":[1.5]}}\r",
        b"{\"Batch\":{\"seq\":7,\"shard\":1,\"values\":[1.5]\r}}\n",
        b"\n \n\t\n",
        // Invalid UTF-8, inside and outside the float arrays.
        b"{\"Batch\":{\"seq\":7,\"shard\":1,\"values\":[1.5\xff]}}\n",
        b"{\"Batch\":{\"seq\":7,\"shard\":1,\"values\":[1.5]}}\n\xc3\x28\n",
    ];
    for line in corpus {
        let mut bytes = line.to_vec();
        if !bytes.ends_with(b"\n") {
            bytes.push(b'\n');
        }
        assert_same_read(&bytes);
        assert_same_tolerant(&bytes);
    }
}

#[test]
fn torn_timed_batch_at_every_offset_matches_the_reference() {
    let events = [
        MonitorEvent::Start {
            shards: 2,
            detector: "SRAA".to_owned(),
            queue_capacity: 64,
            drain_batch: 8,
            snapshot_every: None,
        },
        MonitorEvent::Batch {
            shard: 0,
            seq: 0,
            values: vec![1.25, 40.0],
        },
        MonitorEvent::TimedBatch {
            shard: 1,
            seq: 12_345,
            values: vec![2.0, 6.5, 1e-300, -0.0, 1e22, 3.0],
            times: vec![0.25, f64::NAN, 1.75, 1e308, 5e-324, 12.5],
        },
    ];
    let log = encode(&events);
    let last_start = log[..log.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("three lines")
        + 1;
    for cut in 0..=log.len() {
        let torn = &log[..cut];
        assert_same_tolerant(torn);
        // The same cut followed by blank lines is still a torn tail;
        // followed by another event it is mid-log corruption.
        let mut padded = torn.to_vec();
        padded.extend_from_slice(b"\n\n");
        assert_same_tolerant(&padded);
        let mut followed = torn.to_vec();
        followed.extend_from_slice(b"\n{\"Rejuvenated\":{\"seq\":3,\"shard\":1}}\n");
        assert_same_tolerant(&followed);
        if cut > last_start && cut < log.len() - 1 {
            let (parsed, tail) = read_events_tolerant(io::Cursor::new(torn)).unwrap();
            assert_eq!(parsed.len(), 2, "cut {cut}: the complete lines survive");
            assert!(tail.is_some(), "cut {cut}: the torn line is reported");
        }
    }
}

/// A batch line nested 200 000 arrays deep: the recursive shim parser
/// used to overflow the stack on it and abort the process.
fn deeply_nested_line() -> Vec<u8> {
    let mut line = br#"{"Batch":{"seq":0,"shard":0,"values":"#.to_vec();
    line.extend(std::iter::repeat_n(b'[', 200_000));
    line.push(b'\n');
    line
}

#[test]
fn deeply_nested_input_is_an_error_not_an_abort() {
    let line = deeply_nested_line();
    let err = read_events(io::Cursor::new(&line)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("recursion limit"), "{err}");

    // Mid-log it is corruption; as the last line it is a torn tail.
    let mut mid_log = line.clone();
    mid_log.extend_from_slice(b"{\"Rejuvenated\":{\"seq\":3,\"shard\":1}}\n");
    let err = read_events_tolerant(io::Cursor::new(mid_log)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let (events, torn) = read_events_tolerant(io::Cursor::new(&line)).unwrap();
    assert!(events.is_empty());
    assert!(torn.is_some());

    // A checkpoint file is parsed by the same shim.
    let path = std::env::temp_dir().join(format!(
        "rejuv-event-codec-nested-{}.json",
        std::process::id()
    ));
    let mut checkpoint = b"{\"shards\":".to_vec();
    checkpoint.extend(std::iter::repeat_n(b'[', 200_000));
    std::fs::write(&path, &checkpoint).unwrap();
    let err = load_snapshot(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("recursion limit"), "{err}");
}
