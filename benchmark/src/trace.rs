//! The span recorder of the traced run. It lives in the benchmark only:
//! spans wrap the driver's calls into each layer's public functions, so
//! nothing inside the measured program changes.
//!
//! Every span feeds a per-name aggregate (count, total, self time and
//! the durations themselves, for medians); the full `{id, parent, req,
//! name, start_ns, end_ns}` record is kept only for a deterministic
//! 1-in-64 sample of requests. Everything stays in memory until the
//! run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// Requests whose id is a multiple of this keep their full spans.
pub const SPAN_SAMPLE: u64 = 64;

/// One recorded span. `parent` is `0` for a request's root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything recorded under one span name.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    pub durations_ns: Vec<u32>,
}

impl Agg {
    pub fn median_ns(&self) -> f64 {
        let mut sorted = self.durations_ns.clone();
        sorted.sort_unstable();
        stats::quantile_ns(&sorted, 0.5)
    }

    pub fn median_us(&self) -> f64 {
        self.median_ns() / 1e3
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<Instant>);

struct Frame {
    id: u32,
    name: &'static str,
    req: u64,
    child_ns: u64,
}

/// A single-threaded span recorder; each client thread owns one.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<Frame>,
    aggs: Vec<(&'static str, Agg)>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            next_id: 0,
            stack: Vec::new(),
            aggs: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off; only between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "a span is open");
        self.enabled = enabled;
    }

    /// Opens a span under the innermost open span. Spans must be closed
    /// in reverse order of opening.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        self.next_id += 1;
        self.stack.push(Frame {
            id: self.next_id,
            name,
            req,
            child_ns: 0,
        });
        Open(Some(Instant::now()))
    }

    /// Closes the innermost open span and returns its duration in
    /// nanoseconds (`0` when tracing is off).
    #[inline]
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(start) = open.0 else { return 0 };
        let end = Instant::now();
        let frame = self.stack.pop().expect("end without a matching begin");
        let duration = ns(end.duration_since(start));
        let parent = self.stack.last_mut().map_or(0, |p| {
            p.child_ns += duration;
            p.id
        });
        self.record(frame.name, duration, self_time(duration, frame.child_ns));
        if frame.req.is_multiple_of(SPAN_SAMPLE) {
            let start_ns = ns(start.duration_since(self.epoch));
            self.spans.push(Span {
                id: frame.id,
                parent,
                req: frame.req,
                name: frame.name,
                start_ns,
                end_ns: start_ns + duration,
            });
        }
        duration
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, req);
        let value = f();
        self.end(open);
        value
    }

    fn record(&mut self, name: &'static str, duration: u64, self_ns: u64) {
        let at = match self.aggs.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.aggs.push((name, Agg::default()));
                self.aggs.len() - 1
            }
        };
        let agg = &mut self.aggs[at].1;
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += self_ns;
        agg.durations_ns
            .push(u32::try_from(duration).unwrap_or(u32::MAX));
    }

    pub fn agg(&self, name: &str) -> Option<&Agg> {
        self.aggs.iter().find(|(n, _)| *n == name).map(|(_, a)| a)
    }

    /// Median duration under `name` in microseconds (`0.0` when the
    /// name never occurred).
    pub fn median_us(&self, name: &str) -> f64 {
        self.agg(name).map_or(0.0, Agg::median_us)
    }

    /// Folds another tracer's aggregates and sampled spans into this
    /// one (span ids stay unique per source tracer only).
    pub fn merge(&mut self, other: Tracer) {
        for (name, agg) in other.aggs {
            match self.aggs.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => {
                    mine.count += agg.count;
                    mine.total_ns += agg.total_ns;
                    mine.self_ns += agg.self_ns;
                    mine.durations_ns.extend(agg.durations_ns);
                }
                None => self.aggs.push((name, agg)),
            }
        }
        self.spans.extend(other.spans);
    }

    /// The trace as JSON lines: one line per aggregate, then one per
    /// sampled span.
    pub fn to_jsonl(&self, phase: &str) -> String {
        let mut out = String::new();
        let mut aggs: Vec<&(&'static str, Agg)> = self.aggs.iter().collect();
        aggs.sort_by_key(|(name, _)| *name);
        for (name, agg) in aggs {
            let _ = writeln!(
                out,
                "{{\"phase\": \"{phase}\", \"agg\": \"{name}\", \"count\": {}, \"total_ns\": {}, \
                 \"self_ns\": {}, \"median_ns\": {:.1}}}",
                agg.count,
                agg.total_ns,
                agg.self_ns,
                agg.median_ns()
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"phase\": \"{phase}\", \"id\": {}, \"parent\": {}, \"req\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A span's self time: its duration minus what its children cover.
pub fn self_time(duration_ns: u64, children_ns: u64) -> u64 {
    duration_ns.saturating_sub(children_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_time(1000, 300), 700);
        assert_eq!(self_time(1000, 0), 1000);
        // Clock jitter can make children sum past the parent by a tick.
        assert_eq!(self_time(1000, 1001), 0);
    }

    #[test]
    fn nested_spans_attribute_children_to_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin("op", 0);
        t.span("layer.a", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("layer.b", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end(root);

        let (op, a, b) = (
            t.agg("op").unwrap(),
            t.agg("layer.a").unwrap(),
            t.agg("layer.b").unwrap(),
        );
        assert_eq!((op.count, a.count, b.count), (1, 1, 1));
        assert_eq!(op.self_ns, op.total_ns - a.total_ns - b.total_ns);
        assert_eq!(a.self_ns, a.total_ns);
        assert!(op.total_ns >= a.total_ns + b.total_ns);

        // Request 0 is in the 1-in-64 sample: children point at the root.
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(root.parent, 0);
        for child in spans.iter().filter(|s| s.name != "op") {
            assert_eq!(child.parent, root.id);
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
    }

    #[test]
    fn only_the_request_sample_keeps_spans_and_off_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        for req in 0..130 {
            t.span("op", req, || ());
        }
        assert_eq!(t.agg("op").unwrap().count, 130);
        let kept: Vec<u64> = t.spans().iter().map(|s| s.req).collect();
        assert_eq!(kept, vec![0, 64, 128]);

        let mut off = Tracer::new(false, Instant::now());
        off.span("op", 0, || ());
        assert!(off.agg("op").is_none() && off.spans().is_empty());
    }

    #[test]
    fn merge_adds_counts_and_keeps_medians_meaningful() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let mut b = Tracer::new(true, epoch);
        a.span("op", 1, || ());
        b.span("op", 2, || ());
        b.span("other", 2, || ());
        a.merge(b);
        assert_eq!(a.agg("op").unwrap().count, 2);
        assert_eq!(a.agg("op").unwrap().durations_ns.len(), 2);
        assert_eq!(a.agg("other").unwrap().count, 1);
    }
}
