//! Generic discrete-event simulation driver.

use crate::event::{EventQueue, QueueCounters};
use crate::time::Cycles;
use crate::trace::{TraceEvent, Tracer};

/// A simulation: state plus an event handler. The engine owns the clock and
/// the queue; the handler schedules follow-on events.
pub trait Simulation {
    /// The event alphabet of this simulation.
    type Event;

    /// Handle one event at time `now`, scheduling any follow-on events.
    fn handle(&mut self, now: Cycles, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Short label for an event, used by the engine's trace hook. The
    /// default collapses the whole alphabet into one label; simulations
    /// with an attached tracer should override it.
    fn event_label(_event: &Self::Event) -> &'static str {
        "event"
    }
}

/// The event-loop driver.
pub struct Engine<S: Simulation> {
    queue: EventQueue<S::Event>,
    tracer: Tracer,
}

impl<S: Simulation> Default for Engine<S> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<S: Simulation> Engine<S> {
    /// A fresh engine at time zero.
    pub fn new() -> Engine<S> {
        Engine {
            queue: EventQueue::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// The event queue, for seeding initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<S::Event> {
        &mut self.queue
    }

    /// Attach a tracer; every dispatched event is recorded through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.queue.now()
    }

    /// Peak number of pending events over the engine's lifetime.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak_len()
    }

    /// The queue's work counters over the engine's lifetime.
    pub fn queue_counters(&self) -> QueueCounters {
        self.queue.counters()
    }

    /// Run until the queue empties or the time `horizon` is passed, and
    /// return the number of events processed. Events stamped exactly at the
    /// horizon still run; a run that reaches the horizon leaves the clock
    /// there.
    ///
    /// The loop touches the queue once per event: `pop_before` fuses the
    /// peek/pop pair.
    pub fn run_until(&mut self, sim: &mut S, horizon: Cycles) -> u64 {
        let mut events = 0u64;
        loop {
            let Some((now, ev)) = self.queue.pop_before(horizon) else {
                if !self.queue.is_empty() {
                    self.queue.advance_to(horizon);
                }
                return events;
            };
            self.tracer.emit_with(|| TraceEvent {
                at: now,
                source: "engine",
                kind: S::event_label(&ev),
                proc: None,
                detail: String::new(),
            });
            sim.handle(now, ev, &mut self.queue);
            events += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ping-pong simulation: each event schedules the next until a cap.
    struct PingPong {
        handled: Vec<(u64, u32)>,
        cap: u32,
    }

    impl Simulation for PingPong {
        type Event = u32;
        fn handle(&mut self, now: Cycles, ev: u32, queue: &mut EventQueue<u32>) {
            self.handled.push((now.get(), ev));
            if ev < self.cap {
                queue.schedule_after(Cycles(10), ev + 1);
            }
        }
    }

    #[test]
    fn runs_to_quiescence() {
        let mut sim = PingPong {
            handled: vec![],
            cap: 3,
        };
        let mut eng = Engine::new();
        eng.queue_mut().schedule_at(Cycles(5), 0);
        assert_eq!(eng.run_until(&mut sim, Cycles(1_000)), 4);
        assert_eq!(sim.handled, vec![(5, 0), (15, 1), (25, 2), (35, 3)]);
        // Quiescent: the clock stays at the last event.
        assert_eq!(eng.now(), Cycles(35));
    }

    #[test]
    fn horizon_stops_before_later_events() {
        let mut sim = PingPong {
            handled: vec![],
            cap: 1_000,
        };
        let mut eng = Engine::new();
        eng.queue_mut().schedule_at(Cycles(0), 0);
        assert_eq!(eng.run_until(&mut sim, Cycles(95)), 10); // 0,10,...,90
        assert_eq!(sim.handled.len(), 10);
        assert_eq!(eng.now(), Cycles(95));
    }

    #[test]
    fn event_at_horizon_still_runs() {
        let mut sim = PingPong {
            handled: vec![],
            cap: 0,
        };
        let mut eng = Engine::new();
        eng.queue_mut().schedule_at(Cycles(100), 0);
        assert_eq!(eng.run_until(&mut sim, Cycles(100)), 1);
        assert_eq!(sim.handled, vec![(100, 0)]);
    }

    #[test]
    fn resume_after_horizon_continues() {
        let mut sim = PingPong {
            handled: vec![],
            cap: 5,
        };
        let mut eng = Engine::new();
        eng.queue_mut().schedule_at(Cycles(0), 0);
        eng.run_until(&mut sim, Cycles(25));
        assert_eq!(sim.handled.len(), 3);
        assert_eq!(eng.run_until(&mut sim, Cycles(1_000)), 3);
        assert_eq!(sim.handled.len(), 6);
    }
}
