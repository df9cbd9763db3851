//! In-memory span recorder for traced runs.
//!
//! Spans are taken in the benchmark's own code, around its calls into
//! the library; nothing inside the program is instrumented. Every span
//! carries the id of the message it belongs to, so all spans of one
//! message can be grouped, and the id of the span that caused it. The
//! spans are written out once, at exit, as JSON lines.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub msg: u64,
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name a parent that is
    /// recorded after them.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under an id from [`Tracer::id`].
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        msg: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            msg,
            name,
            start_us: us(start),
            end_us: us(end),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Records a span under a fresh id.
    pub fn record(
        &self,
        name: &'static str,
        msg: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        self.record_as(self.id(), name, msg, parent, start, end);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"msg\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, parent, s.msg, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Per span name: how many spans, their total duration and their total
/// self time, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

/// A span's self time is its duration minus the part of it that its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = (s.end_us - s.start_us).max(0.0);
        let covered = children
            .get(&s.id)
            .map_or(0.0, |c| covered_us(c, s.start_us, s.end_us));
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_us += dur;
        t.self_us += dur - covered;
    }
    totals
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            msg: 1,
            name,
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "msg", 0.0, 100.0),
            span(2, Some(1), "write", 0.0, 40.0),
            // Overlaps the write: the overlap counts once.
            span(3, Some(1), "read", 30.0, 90.0),
            // Sticks out past the parent: clipped.
            span(4, Some(1), "late", 95.0, 120.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["msg"].count, 1);
        assert_eq!(t["msg"].total_us, 100.0);
        assert_eq!(t["msg"].self_us, 100.0 - 90.0 - 5.0);
        assert_eq!(t["write"].self_us, 40.0);
        assert_eq!(t["late"].total_us, 25.0);
    }

    #[test]
    fn recorder_keeps_parents_and_message_ids() {
        let tr = Tracer::new();
        let root = tr.id();
        let t0 = Instant::now();
        tr.record("child", 7, Some(root), t0, t0);
        tr.record_as(root, "root", 7, None, t0, t0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root));
        assert!(spans.iter().all(|s| s.msg == 7));
    }
}
