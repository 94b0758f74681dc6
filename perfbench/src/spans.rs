//! In-memory spans for the traced run, written out as Chrome trace-event
//! JSON when the run ends (Perfetto and `chrome://tracing` open it).

use crate::alloc::AllocCount;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    /// Spans of one request (one analysis, one edit, one frame) share it.
    pub req: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Allocations made inside the span, children included. Zero for
    /// spans synthesized from the program's own stage timings.
    pub alloc: AllocCount,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans while `on`; when off, [`Tracer::span`] only runs its
/// closure, so traced and untraced replays execute the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<(usize, AllocCount)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            req,
            parent: self.stack.last().map(|&(i, _)| i),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            alloc: AllocCount::default(),
        });
        self.stack.push((idx, AllocCount::now()));
        let out = f(self);
        let (idx, before) = self.stack.pop().expect("span stack is balanced");
        let span = &mut self.spans[idx];
        span.alloc = AllocCount::now().since(before);
        span.end = self.epoch.elapsed();
        out
    }

    /// The most recent span named `name`.
    pub fn last(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// Adds child spans of `parent` from durations the program measured
    /// itself, laid end to end from the parent's start in the order
    /// given: the durations are exact, the placement is not.
    pub fn synthesize(&mut self, parent: &str, children: &[(&'static str, Duration)]) {
        let Some(pi) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let (req, mut at) = (self.spans[pi].req, self.spans[pi].start);
        for &(name, dur) in children {
            self.spans.push(Span {
                name,
                req,
                parent: Some(pi),
                start: at,
                end: at + dur,
                alloc: AllocCount::default(),
            });
            at += dur;
        }
    }

    /// Every span's self time: its duration minus the part of it its
    /// children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut kids: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(span, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = span.start;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.dur().saturating_sub(covered)
            })
            .collect()
    }

    /// Total and self time per span name, in milliseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur().as_secs_f64() * 1e3;
            e.2 += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, with its request id, parent, self time and allocations.
    pub fn chrome_json(&self) -> String {
        let own = self.self_times();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                concat!(
                    r#"{{"name": "{}", "ph": "X", "pid": 1, "tid": 1, "ts": {:.3}, "dur": {:.3}, "#,
                    r#""args": {{"span": {}, "parent": {}, "req": {}, "self_us": {:.3}, "#,
                    r#""allocs": {}, "alloc_bytes": {}}}}}"#
                ),
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur().as_secs_f64() * 1e6,
                i,
                parent,
                s.req,
                own[i].as_secs_f64() * 1e6,
                s.alloc.allocs,
                s.alloc.bytes,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
