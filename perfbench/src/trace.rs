//! Spans recorded by the benchmark's own code around its calls into the
//! program's layers. Nothing inside the program is instrumented.
//!
//! Every thread owns its [`Spans`] buffer, so recording takes no lock;
//! buffers are merged and written out once the traced run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: what was called, on which model, when, and what
/// caused it. `req` ties together the spans of one request (0 = none).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub label: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn nanos(&self) -> f64 {
        self.end.duration_since(self.start).as_nanos() as f64
    }
}

/// A per-thread span buffer. Ids carry the buffer's tag in their high
/// bits, so ids from different threads never collide.
#[derive(Debug)]
pub struct Spans {
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(tag: u64) -> Self {
        Spans {
            tag,
            next: 0,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        label: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        self.next += 1;
        let id = (self.tag << 40) | self.next;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            label,
            start,
            end,
        });
        id
    }
}

/// Runs `f`, recording it as a span when tracing is on.
pub fn timed<T>(
    spans: &mut Option<Spans>,
    name: &'static str,
    label: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    if let Some(s) = spans {
        s.record(name, label, start, Instant::now(), 0, 0);
    }
    out
}

/// Durations in nanoseconds of every span named `name` (and labelled
/// `label`, when given).
pub fn durations(spans: &[Span], name: &str, label: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
        .map(Span::nanos)
        .collect()
}

/// Writes the spans as CSV, times in nanoseconds since `origin`.
pub fn write_csv(path: &Path, origin: Instant, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,req,name,label,start_ns,end_ns")?;
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos();
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.req,
            s.name,
            s.label,
            ns(s.start),
            ns(s.end)
        )?;
    }
    out.flush()
}
