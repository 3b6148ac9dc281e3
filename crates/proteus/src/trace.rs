//! Structured event tracing for the simulator.
//!
//! A [`Tracer`] is a cloneable handle that is either *disabled* (the default;
//! every hook is a single `Option` test, no allocation, no formatting) or
//! connected to a [`TraceSink`]. Hooks build their [`TraceEvent`] inside a
//! closure passed to [`Tracer::emit_with`], so the cost of formatting the
//! `detail` string is only paid when a sink is attached.
//!
//! [`RingBufferSink`] ships with the crate: it keeps the last `capacity`
//! events in memory — cheap enough to leave on for post-mortem inspection
//! in tests. Any other destination implements [`TraceSink`].
//!
//! The simulator is single-threaded by design (each `System` lives on one OS
//! thread; the bench harness parallelises across *independent* simulations),
//! so the handle is `Rc<RefCell<…>>` rather than an atomic structure.

use std::cell::RefCell;
use std::rc::Rc;

use crate::ids::ProcId;
use crate::time::Cycles;

/// One structured trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the event happened.
    pub at: Cycles,
    /// Which subsystem emitted it (`"engine"`, `"network"`, `"processor"`,
    /// `"coherence"`, `"runtime"`).
    pub source: &'static str,
    /// Event kind within the subsystem (`"dispatch"`, `"send"`, `"occupy"`,
    /// `"access"`, …).
    pub kind: &'static str,
    /// Processor the event is about, if any.
    pub proc: Option<ProcId>,
    /// Free-form `key=value` detail, built lazily.
    pub detail: String,
}

/// Destination for trace events.
pub trait TraceSink {
    /// Record one event.
    fn record(&mut self, event: TraceEvent);
    /// Flush any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// In-memory sink keeping the most recent `capacity` events.
#[derive(Clone, Debug, Default)]
pub struct RingBufferSink {
    capacity: usize,
    events: std::collections::VecDeque<TraceEvent>,
    /// Total events ever recorded (including those evicted).
    recorded: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (`0` keeps nothing but still
    /// counts).
    pub fn new(capacity: usize) -> RingBufferSink {
        RingBufferSink {
            capacity,
            events: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            recorded: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Total events recorded over the sink's lifetime, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: TraceEvent) {
        self.recorded += 1;
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }
}

/// Cloneable tracing handle; disabled by default.
///
/// All simulator hook points hold one of these and call [`Tracer::emit_with`].
/// When disabled the call is a branch on a `None` — the event closure never
/// runs.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that drops everything (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer writing into `sink`. Returns the handle plus a shared
    /// reference to the sink so the caller can inspect it afterwards.
    pub fn to_sink<S: TraceSink + 'static>(sink: S) -> (Tracer, Rc<RefCell<S>>) {
        let shared = Rc::new(RefCell::new(sink));
        let tracer = Tracer {
            sink: Some(shared.clone()),
        };
        (tracer, shared)
    }

    /// Convenience: a tracer backed by a [`RingBufferSink`] of `capacity`.
    pub fn ring(capacity: usize) -> (Tracer, Rc<RefCell<RingBufferSink>>) {
        Tracer::to_sink(RingBufferSink::new(capacity))
    }

    /// True when a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record the event built by `f` — `f` runs only when a sink is attached.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(f());
        }
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, detail: &str) -> TraceEvent {
        TraceEvent {
            at: Cycles(at),
            source: "test",
            kind: "k",
            proc: Some(ProcId(3)),
            detail: detail.to_string(),
        }
    }

    #[test]
    fn disabled_tracer_never_runs_closure() {
        let t = Tracer::disabled();
        t.emit_with(|| unreachable!("closure must not run when disabled"));
        assert!(!t.is_enabled());
    }

    #[test]
    fn ring_buffer_keeps_last_n() {
        let (t, sink) = Tracer::ring(2);
        assert!(t.is_enabled());
        for i in 0..5 {
            t.emit_with(|| ev(i, "x"));
        }
        let s = sink.borrow();
        assert_eq!(s.recorded(), 5);
        let ats: Vec<u64> = s.events().map(|e| e.at.get()).collect();
        assert_eq!(ats, vec![3, 4]);
    }

    #[test]
    fn clones_share_one_sink() {
        let (t, sink) = Tracer::ring(8);
        let t2 = t.clone();
        t.emit_with(|| ev(1, ""));
        t2.emit_with(|| ev(2, ""));
        assert_eq!(sink.borrow().recorded(), 2);
    }
}
