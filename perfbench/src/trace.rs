//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer
//! was made), the index of the span that caused it, and the id of the
//! op it belongs to.  With recording off (see [`Tracer::run_as`]),
//! [`Tracer::span`] only runs its closure, so the traced and untraced
//! versions of an op execute the same code and their difference is the
//! tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.  A span opened with no
    /// enclosing span starts a new op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        if self.stack.is_empty() {
            self.op += 1;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `op` with recording on or off, adding its wall time to
    /// `overhead`.
    pub fn run_as<T>(
        &mut self,
        record: bool,
        overhead: &mut Overhead,
        op: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.set_recording(record);
        let start = Instant::now();
        let out = op(self);
        let ns = start.elapsed().as_secs_f64() * 1e9;
        let side = if record {
            &mut overhead.on
        } else {
            &mut overhead.off
        };
        side.0 += ns;
        side.1 += 1;
        out
    }

    /// The id of the op the latest root span started.
    pub fn last_op(&self) -> u64 {
        self.op
    }

    /// Each span's self time: its duration minus the part of it that
    /// its direct children cover (children run sequentially, so they
    /// never overlap).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns();
            }
        }
        out
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *by.entry(s.name).or_insert(0) += ns;
        }
        by
    }

    /// Total duration per span name, in nanoseconds.
    pub fn total_by_name(&self) -> BTreeMap<&'static str, u64> {
        self.total_by_name_in(|_| true)
    }

    /// Total duration per span name over the ops `keep` selects.
    pub fn total_by_name_in(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for s in self.spans.iter().filter(|s| keep(s.op)) {
            *by.entry(s.name).or_insert(0) += s.dur_ns();
        }
        by
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Wall time of the same ops run with recording on and off.
#[derive(Default)]
pub struct Overhead {
    on: (f64, usize),
    off: (f64, usize),
}

impl Overhead {
    /// What recording adds to an op's mean wall time, in percent.
    pub fn pct(&self) -> f64 {
        let mean = |(ns, n): (f64, usize)| ns / n as f64;
        100.0 * (mean(self.on) - mean(self.off)) / mean(self.off)
    }
}
