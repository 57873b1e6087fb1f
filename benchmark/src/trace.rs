//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; they nest through an explicit open-span stack, so a
//! span's parent is whatever was open when it started. Nothing is written
//! until the run ends.

use std::time::Instant;

/// Whole nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// Layer boundaries the harness records. The discriminant indexes
/// [`SPAN_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// One `SimSession::step()` call, driven by the harness.
    SimStep = 0,
    /// One whole `hcsim_service::serve()` call (service workload).
    ServiceServe = 1,
    /// The real mapper's `on_mapping_event`.
    MapEvent = 2,
    /// The real mapper's `on_task_finished`.
    TaskFinished = 3,
    /// The benchmark's own shadow probes (subtracted as overhead).
    Probe = 4,
}

/// Span names as written to the trace file.
pub const SPAN_NAMES: [&str; 5] =
    ["sim.step", "service.serve", "core.map_event", "core.task_finished", "bench.probe"];

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; `id` is its index in [`Tracer::spans`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub parent: u32,
    pub trial: u32,
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. One per traced pass, shared by the harness (step spans)
/// and the mapper wrapper (mapper spans) on the same thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    trial: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, trial: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Spans recorded from now on belong to `trial`.
    pub fn set_trial(&mut self, trial: u32) {
        debug_assert!(self.open.is_empty(), "trial changed inside an open span");
        self.trial = trial;
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: SpanName) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = ns_since(self.epoch);
        self.spans.push(Span { parent, trial: self.trial, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end_ns = ns_since(self.epoch);
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children run on the parent's thread inside its
/// interval, so the subtraction never underflows for recorded spans; the
/// saturation only guards hand-built input.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = &mut own[span.parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Total duration, total self time and count of the spans named `name`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span], own: &[u64], name: SpanName) -> SpanTotals {
    let mut t = SpanTotals::default();
    for (span, &self_ns) in spans.iter().zip(own) {
        if span.name == name {
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: SpanName, start_ns: u64, end_ns: u64) -> Span {
        Span { parent, trial: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(NO_PARENT, SpanName::SimStep, 0, 100),
            span(0, SpanName::Probe, 10, 30),
            span(0, SpanName::MapEvent, 30, 90),
            span(NO_PARENT, SpanName::SimStep, 100, 110),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![20, 20, 60, 10]);
        let steps = totals(&spans, &own, SpanName::SimStep);
        assert_eq!(steps, SpanTotals { count: 2, total_ns: 110, self_ns: 30 });
        // Self times partition the root spans' wall time exactly.
        assert_eq!(own.iter().sum::<u64>(), 110);
    }

    #[test]
    fn recorded_children_never_exceed_their_parent() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.set_trial(3);
        for _ in 0..200 {
            let step = tracer.open(SpanName::SimStep);
            let probe = tracer.open(SpanName::Probe);
            tracer.close(probe);
            let map = tracer.open(SpanName::MapEvent);
            std::hint::black_box((0..50).sum::<u64>());
            tracer.close(map);
            tracer.close(step);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 600);
        assert!(spans.iter().all(|s| s.trial == 3));
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                let p = &spans[s.parent as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
                children[s.parent as usize] += s.duration_ns();
            }
        }
        for (s, c) in spans.iter().zip(children) {
            assert!(c <= s.duration_ns(), "children {c} ns exceed parent {} ns", s.duration_ns());
        }
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::new(Instant::now());
        let outer = tracer.open(SpanName::SimStep);
        let _inner = tracer.open(SpanName::MapEvent);
        tracer.close(outer);
    }
}
