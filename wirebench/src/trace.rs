//! In-memory span recording.
//!
//! Spans carry a name, start, end, parent span and request id. They are
//! kept in memory for the run and written out once at the end, so the
//! only cost on a measured path is two clock reads and a push.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name (a per-layer metric's layer prefix, e.g. `gsp.propagate`).
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or replayed round) the span belongs to.
    pub req: u64,
    /// Start, from the trace epoch.
    pub start: Duration,
    /// End, from the trace epoch.
    pub end: Duration,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one run.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new() }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.epoch);
        self.spans.push(Span { name, parent, req, start: at(start), end: at(end) });
        self.spans.len() - 1
    }

    /// Opens a span that children can name as parent; [`Self::close`]
    /// sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Ends an [`Self::open`] span now.
    pub fn close(&mut self, id: SpanId) {
        let end = Instant::now().saturating_duration_since(self.epoch);
        if let Some(span) = self.spans.get_mut(id) {
            span.end = end;
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// Every span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration().as_secs_f64()).collect()
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children's intervals cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(kids) = s.parent.and_then(|p| children.get_mut(p)) {
                kids.push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| span.duration().saturating_sub(covered(span, kids)))
            .collect()
    }

    /// The trace as JSON: one object per span, with its self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, (s, self_time)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"req\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}{sep}",
                s.name,
                s.req,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                self_time.as_secs_f64() * 1e6,
            );
        }
        out.push(']');
        out
    }
}

/// Length of the union of `kids` clipped to `span`.
fn covered(span: &Span, kids: &mut [(Duration, Duration)]) -> Duration {
    kids.sort();
    let mut total = Duration::ZERO;
    let mut reach = span.start;
    for &(start, end) in kids.iter() {
        let start = start.max(reach);
        let end = end.min(span.end);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut t = Trace::new(epoch);
        let root = t.record("round", None, 1, at(0), at(100));
        t.record("a", Some(root), 1, at(10), at(40));
        // Overlaps `a`: the union, not the sum, is covered.
        t.record("b", Some(root), 1, at(30), at(50));
        // Sticks out past the parent: only the inside part counts.
        t.record("c", Some(root), 1, at(90), at(120));
        let other = t.record("other", None, 2, at(0), at(5));
        let selfs = t.self_times();
        assert_eq!(selfs[root], Duration::from_millis(100 - 40 - 10));
        assert_eq!(selfs[other], Duration::from_millis(5));
        assert_eq!(t.durations("a"), vec![0.03]);
    }
}
