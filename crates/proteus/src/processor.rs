//! Simulated processors: serial task service with a FIFO run queue.
//!
//! Each processor serves one task at a time; while it is busy, arriving tasks
//! queue. This serialization is what produces the paper's key *resource
//! contention* effects — most importantly the B-tree root bottleneck, where
//! "activations arrive at a rate greater than the rate at which the processor
//! completes each activation".

use std::collections::VecDeque;

use crate::ids::ProcId;
use crate::time::Cycles;
use crate::trace::{TraceEvent, Tracer};

/// Utilization counters for one processor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// Cycles this processor spent executing tasks.
    pub busy_cycles: u64,
    /// Tasks completed.
    pub tasks_served: u64,
    /// Largest number of tasks seen waiting in the queue (the task in
    /// service, having been popped, is not counted).
    pub max_queue_depth: usize,
}

/// One simulated processor holding queued tasks of type `T`.
#[derive(Clone, Debug)]
pub struct Processor<T> {
    id: ProcId,
    queue: VecDeque<T>,
    busy_until: Cycles,
    stats: ProcessorStats,
    tracer: Tracer,
}

impl<T> Processor<T> {
    /// An idle processor with an empty queue.
    pub fn new(id: ProcId) -> Processor<T> {
        Processor {
            id,
            queue: VecDeque::new(),
            busy_until: Cycles::ZERO,
            stats: ProcessorStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer; [`Processor::occupy`] records one event per served
    /// task.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This processor's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The time at which the processor finishes its current work.
    pub fn busy_until(&self) -> Cycles {
        self.busy_until
    }

    /// Number of tasks waiting (not including any in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueue a task for FIFO service.
    pub fn enqueue(&mut self, task: T) {
        self.queue.push_back(task);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
    }

    /// Remove and return every queued task (the in-service busy window is
    /// untouched). Used for fail-stop faults: when a processor dies, its
    /// queued work is surrendered to the caller so senders can reclaim or
    /// reroute what was still waiting for service.
    pub fn drain(&mut self) -> Vec<T> {
        self.queue.drain(..).collect()
    }

    /// Pop the next task if the processor is free at `now`.
    ///
    /// Returns `None` either when the queue is empty or when the processor is
    /// still busy; in the latter case the caller should re-poll at
    /// [`busy_until`](Self::busy_until).
    pub fn take_ready(&mut self, now: Cycles) -> Option<T> {
        if self.busy_until > now {
            return None;
        }
        self.queue.pop_front()
    }

    /// Mark the processor busy for `duration` starting at `start`, recording
    /// the completed task. Returns the completion time.
    pub fn occupy(&mut self, start: Cycles, duration: Cycles) -> Cycles {
        debug_assert!(
            self.busy_until <= start,
            "processor {:?} double-booked: busy until {:?}, asked to start at {start:?}",
            self.id,
            self.busy_until
        );
        self.busy_until = start + duration;
        self.stats.busy_cycles += duration.get();
        self.stats.tasks_served += 1;
        self.tracer.emit_with(|| TraceEvent {
            at: start,
            source: "processor",
            kind: "occupy",
            proc: Some(self.id),
            detail: format!("busy={} queued={}", duration.get(), self.queue.len()),
        });
        self.busy_until
    }

    /// Utilization counters.
    pub fn stats(&self) -> &ProcessorStats {
        &self.stats
    }

    /// Fraction of `elapsed` the processor spent busy.
    pub fn utilization(&self, elapsed: Cycles) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            (self.stats.busy_cycles as f64 / elapsed.get() as f64).min(1.0)
        }
    }

    /// Reset utilization counters (warm-up exclusion).
    pub fn reset_stats(&mut self) {
        self.stats = ProcessorStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut p = Processor::new(ProcId(0));
        p.enqueue("a");
        p.enqueue("b");
        assert_eq!(p.take_ready(Cycles(0)), Some("a"));
        assert_eq!(p.take_ready(Cycles(0)), Some("b"));
        assert_eq!(p.take_ready(Cycles(0)), None);
    }

    #[test]
    fn busy_processor_defers_service() {
        let mut p = Processor::new(ProcId(0));
        p.enqueue(1);
        let done = p.occupy(Cycles(0), Cycles(100));
        assert_eq!(done, Cycles(100));
        assert_eq!(p.take_ready(Cycles(50)), None);
        assert_eq!(p.take_ready(Cycles(100)), Some(1));
    }

    #[test]
    fn occupy_accumulates_stats() {
        let mut p: Processor<()> = Processor::new(ProcId(1));
        p.occupy(Cycles(0), Cycles(30));
        p.occupy(Cycles(30), Cycles(20));
        assert_eq!(p.stats().busy_cycles, 50);
        assert_eq!(p.stats().tasks_served, 2);
        assert!((p.utilization(Cycles(100)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_queue_depth_tracked() {
        let mut p = Processor::new(ProcId(0));
        for i in 0..5 {
            p.enqueue(i);
        }
        p.take_ready(Cycles(0));
        p.enqueue(9);
        assert_eq!(p.stats().max_queue_depth, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double-booked")]
    fn double_booking_asserts_in_debug() {
        let mut p: Processor<()> = Processor::new(ProcId(0));
        p.occupy(Cycles(0), Cycles(10));
        p.occupy(Cycles(5), Cycles(10));
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut p: Processor<()> = Processor::new(ProcId(0));
        p.occupy(Cycles(0), Cycles(100));
        assert_eq!(p.utilization(Cycles(50)), 1.0);
        assert_eq!(p.utilization(Cycles::ZERO), 0.0);
    }
}
