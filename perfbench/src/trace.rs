//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name, a start, an end, the span that caused it and, for a
//! served job, the job's id. Spans stay in memory until the run ends and
//! are then written out as JSON. A disabled tracer records nothing and
//! costs one branch per call, so the same code path serves the untraced
//! runs that report end-to-end metrics.

use hstencil_testkit::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its tracer; `NONE` for "no span".
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub job: Option<u64>,
}

pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// An empty tracer on the same clock, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.on)
    }

    /// Tags an open or closed span with a job id learned after it opened.
    pub fn set_job(&mut self, id: SpanId, job: u64) {
        if id != NONE {
            self.spans[id].job = Some(job);
        }
    }

    /// Pauses or resumes recording (for untraced comparison segments
    /// inside a traced run).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, job: Option<u64>) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent, None);
        let r = f();
        self.close(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans (recorded by another thread against the same
    /// epoch) into this tracer, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of its interval that its children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_within(kids, s.start_ns, s.end_ns);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::array(self.spans.iter().map(|s| {
            Json::object([
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                (
                    "parent",
                    if s.parent == NONE {
                        Json::Null
                    } else {
                        Json::UInt(s.parent as u64)
                    },
                ),
                ("job", s.job.map_or(Json::Null, Json::UInt)),
            ])
        }))
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
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

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now(), true);
        t.spans = vec![
            span("root", 0, 100, NONE),
            span("a", 10, 40, 0),
            span("a", 30, 50, 0),
            span("b", 60, 70, 0),
            span("leaf", 62, 65, 3),
        ];
        let s = t.self_seconds();
        assert!((s["root"] - 50e-9).abs() < 1e-15);
        assert!((s["a"] - 50e-9).abs() < 1e-15);
        assert!((s["b"] - 7e-9).abs() < 1e-15);
        assert!((s["leaf"] - 3e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.open("x", NONE, None);
        t.close(id);
        assert_eq!(t.span("y", NONE, || 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.span("a0", NONE, || ());
        let mut b = Tracer::new(epoch, true);
        let p = b.open("b0", NONE, Some(4));
        b.span("b1", p, || ());
        b.close(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].job, Some(4));
    }
}
