//! Spans taken **outside** the layers: the load generator brackets its
//! calls into the service's public functions, keeps the spans in memory
//! and writes them to `trace.jsonl` when the run ends.  A span is
//! `(name, start, end, parent, request id)`; its self time is its
//! duration minus what its children cover.
//!
//! Only the load-generator thread records, so the recorder is a plain
//! `Vec`.  A busy closed loop answers a million and a half requests in a
//! run; `sample` keeps one request in that many so the file stays small
//! — a request is either traced with all its children or not at all.

use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    sample: u64,
    origin: Instant,
    spans: Vec<Span>,
}

/// Totals of every span with one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

impl Tracer {
    /// A recorder that starts off; `sample` ≥ 1 keeps requests whose id
    /// is a multiple of it.
    pub fn new(sample: u64) -> Tracer {
        Tracer {
            on: false,
            sample: sample.max(1),
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether request `req` is recorded right now.
    #[inline]
    pub fn wants(&self, req: u64) -> bool {
        self.on && req.is_multiple_of(self.sample)
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span at `start`; close it with [`end`](Tracer::end).
    pub fn begin_at(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        start: Instant,
    ) -> SpanId {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end_at(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Record a finished span in one call.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.begin_at(name, req, parent, start);
        self.end_at(id, end);
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals, each clipped to the parent.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if hi > lo {
                    children[s.parent as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut edge) = (0u64, s.start_ns);
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(edge);
                    if hi > lo {
                        covered += hi - lo;
                        edge = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per-name totals, and how far the self times are from summing to
    /// the root spans' total (0 by construction; reported as a check).
    pub fn totals(&self) -> (BTreeMap<&'static str, NameTotals>, f64) {
        let selfs = self.self_times();
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        let (mut root_total, mut self_total) = (0u64, 0u64);
        for (s, &self_ns) in self.spans.iter().zip(&selfs) {
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
            self_total += self_ns;
            if s.parent == NO_PARENT {
                root_total += s.end_ns - s.start_ns;
            }
        }
        // Children clipped to their parent can still overhang a *root*
        // only through nesting errors; the gap is what the acceptance
        // criterion bounds at 1 %.
        let gap = if root_total == 0 {
            0.0
        } else {
            (self_total as f64 - root_total as f64).abs() / root_total as f64
        };
        (by_name, gap)
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times();
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": {}, \"req\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                json::quote(s.name),
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let mut t = Tracer::new(1);
        t.set_on(true);
        let o = Instant::now();
        let at = |us: u64| o + Duration::from_micros(us);
        let root = t.record("request", 1, NO_PARENT, at(0), at(100));
        // Two overlapping children cover 10..50, a third 70..80, and one
        // overhangs the parent's end (clipped to 90..100).
        t.record("submit", 1, root, at(10), at(40));
        let kid = t.record("next_done", 1, root, at(30), at(50));
        t.record("verify", 1, root, at(70), at(80));
        t.record("late", 1, root, at(90), at(130));
        t.record("decode", 1, kid, at(35), at(45));
        let selfs = t.self_times();
        assert_eq!(selfs[root as usize], 100_000 - 40_000 - 10_000 - 10_000);
        assert_eq!(selfs[kid as usize], 10_000);
        let (by_name, _) = t.totals();
        assert_eq!(by_name["decode"].count, 1);
        assert_eq!(by_name["decode"].self_ns, 10_000);
    }

    #[test]
    fn properly_nested_self_times_sum_to_the_roots() {
        let mut t = Tracer::new(1);
        t.set_on(true);
        let o = Instant::now();
        let at = |us: u64| o + Duration::from_micros(us);
        for r in 0..50u64 {
            let base = r * 1000;
            let root = t.record("request", r, NO_PARENT, at(base), at(base + 900));
            let a = t.record("a", r, root, at(base + 100), at(base + 400));
            t.record("b", r, a, at(base + 150), at(base + 300));
            t.record("c", r, root, at(base + 500), at(base + 800));
        }
        let (_, gap) = t.totals();
        assert!(gap < 1e-12, "gap {gap}");
    }

    #[test]
    fn sampling_keeps_whole_requests() {
        let mut t = Tracer::new(4);
        assert!(!t.wants(8), "off until switched on");
        t.set_on(true);
        assert!(t.wants(8) && !t.wants(9));
    }

    #[test]
    fn jsonl_lines_parse_and_carry_parent_and_request() {
        let mut t = Tracer::new(1);
        t.set_on(true);
        let o = Instant::now();
        let root = t.record("request", 42, NO_PARENT, o, o + Duration::from_micros(5));
        t.record("submit", 42, root, o, o + Duration::from_micros(2));
        // `out/` is the benchmark's own scratch directory (git-ignored).
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test-trace.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<json::Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&json::Value::Null));
        assert_eq!(
            lines[1].get("parent").and_then(json::Value::as_f64),
            Some(0.0)
        );
        assert_eq!(
            lines[1].get("req").and_then(json::Value::as_f64),
            Some(42.0)
        );
        assert_eq!(
            lines[1].get("self_ns").and_then(json::Value::as_f64),
            Some(2000.0)
        );
    }
}
