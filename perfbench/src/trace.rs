//! In-memory spans recorded around the benchmark's calls into the public
//! API, written out as Chrome trace-event JSON when the run ends.
//!
//! A span carries its layer, the request it served, its parent span, its
//! start and end, the clock those are on, and the counts the call
//! returned. Spans inside the program are not recorded here: the
//! benchmark only sees the boundaries of public calls.

use std::fmt::Write as _;
use std::time::Instant;

/// Most spans kept; later ones are counted but dropped, so a long traced
/// run cannot grow the trace file without bound.
const MAX_SPANS: usize = 200_000;

pub struct Span {
    pub layer: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `measured` spans are on the wall clock since the tracer started;
    /// `modeled` spans are on the serve loop's modeled timeline.
    pub clock: &'static str,
    pub counts: Vec<(&'static str, u64)>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Wall-clock offset of `t` from the tracer's origin.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span; returns its index for use as a parent.
    pub fn span(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). Each clock gets its own process row.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let pid = if s.clock == "modeled" { 2 } else { 1 };
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"request\":{},\"parent\":{},\"clock\":\"{}\"",
                if i == 0 { "" } else { ",\n" },
                s.layer,
                pid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.clock,
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        let _ = write!(out, "\n],\"dropped_spans\":{}}}\n", self.dropped);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
