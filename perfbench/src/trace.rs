//! In-memory spans recorded around the benchmark's calls into each
//! layer.
//!
//! The system under test is not instrumented: every span brackets one
//! call the benchmark itself makes into a public function. A disabled
//! tracer reads no clock, so untraced runs pay one predictable branch
//! per call site.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept for the written trace; later spans still count in the
/// per-name totals.
const MAX_STORED: usize = 1 << 17;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has been started but not ended.
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    index: Option<u32>,
    start: Instant,
}

/// Per-name totals over every span, stored or not.
#[derive(Debug, Clone, Copy)]
pub struct Total {
    /// Spans ended under this name.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub ns: u64,
}

/// Records spans in memory and writes them out at the end of a run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    totals: Vec<(&'static str, Total)>,
}

impl Tracer {
    /// A tracer; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a span named `name`, caused by `parent`.
    pub fn start(&mut self, name: &'static str, parent: Option<&Open>) -> Option<Open> {
        if !self.on {
            return None;
        }
        let parent = parent.and_then(|p| p.index);
        let index = (self.spans.len() < MAX_STORED).then(|| {
            self.spans.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        });
        Some(Open {
            name,
            index,
            start: Instant::now(),
        })
    }

    /// Ends a span and returns its duration in nanoseconds (0 when the
    /// tracer is off).
    pub fn end(&mut self, open: Option<Open>) -> u64 {
        let Some(open) = open else {
            return 0;
        };
        let end = Instant::now();
        self.close(open, end)
    }

    /// Records a span timed elsewhere, e.g. inside a closure that cannot
    /// borrow the tracer.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&Open>,
        start: Instant,
        end: Instant,
    ) {
        if let Some(mut open) = self.start(name, parent) {
            open.start = start;
            self.close(open, end);
        }
    }

    fn close(&mut self, open: Open, end: Instant) -> u64 {
        let ns = end.duration_since(open.start).as_nanos() as u64;
        if let Some(i) = open.index {
            let span = &mut self.spans[i as usize];
            span.start_ns = open.start.saturating_duration_since(self.epoch).as_nanos() as u64;
            span.end_ns = span.start_ns + ns;
        }
        match self.totals.iter_mut().find(|(n, _)| *n == open.name) {
            Some((_, total)) => {
                total.count += 1;
                total.ns += ns;
            }
            None => self.totals.push((open.name, Total { count: 1, ns })),
        }
        ns
    }

    /// Totals for `name` (zero when no such span ended).
    pub fn total(&self, name: &str) -> Total {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(Total { count: 0, ns: 0 }, |(_, t)| *t)
    }

    /// Writes the stored spans as JSON lines (`id`, `name`, `parent`,
    /// `start_ns`, `end_ns`), followed by one line per name total.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        for (name, total) in &self.totals {
            writeln!(
                out,
                "{{\"total\":\"{name}\",\"count\":{},\"ns\":{}}}",
                total.count, total.ns
            )?;
        }
        out.flush()
    }
}
