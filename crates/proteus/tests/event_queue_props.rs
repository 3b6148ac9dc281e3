//! Differential property tests: the two-tier wheel+heap `EventQueue` must be
//! observationally identical to the old single-`BinaryHeap` implementation —
//! same `(time, seq)` pop order (including same-cycle FIFO ties), same clock,
//! same horizon clamping, same peak depth — under arbitrary
//! schedule/pop/advance interleavings.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use proteus::event::EventQueue;
use proteus::Cycles;

/// The queue's wheel width in cycles: events due this far from `now` or
/// further wait in its heap.
const WHEEL_SLOTS: u64 = 4096;

/// The pre-optimization queue, reproduced verbatim as the reference model:
/// one max-heap with inverted `(time, seq)` ordering, `pop` advances the
/// clock, `pop_before` is the peek-then-pop pair the engine used to do.
struct RefQueue<E> {
    heap: BinaryHeap<RefScheduled<E>>,
    seq: u64,
    now: Cycles,
    peak: usize,
}

struct RefScheduled<E> {
    at: Cycles,
    seq: u64,
    event: E,
}

impl<E> PartialEq for RefScheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for RefScheduled<E> {}
impl<E> PartialOrd for RefScheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for RefScheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> RefQueue<E> {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Cycles::ZERO,
            peak: 0,
        }
    }

    fn schedule_at(&mut self, at: Cycles, event: E) {
        let at = at.max(self.now);
        self.heap.push(RefScheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<(Cycles, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }

    fn pop_before(&mut self, horizon: Cycles) -> Option<(Cycles, E)> {
        if self.peek_time()? > horizon {
            return None;
        }
        self.pop()
    }

    fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|s| s.at)
    }

    fn advance_to(&mut self, t: Cycles) {
        self.now = self.now.max(t);
    }
}

/// One step of the interleaving tape. Raw `(tag, value)` pairs are decoded
/// here so the generated inputs print readably on failure.
#[derive(Debug)]
enum Op {
    /// Schedule at `now + delta`. Deltas span several wheel windows so both
    /// tiers and the migration path are exercised; small deltas (and 0)
    /// produce same-cycle ties, and deltas within two cycles of
    /// `WHEEL_SLOTS` land on either side of the wheel/heap boundary.
    Schedule(u64),
    /// Pop unconditionally.
    Pop,
    /// Pop only if the next event is within `now + slack`.
    PopBefore(u64),
    /// Advance the clock toward `now + delta`, clamped to the next pending
    /// event (the legality condition `advance_to` asserts).
    Advance(u64),
    /// Compare `peek_time` without mutating.
    Peek,
}

fn decode(tape: &[(u8, u64)]) -> Vec<Op> {
    tape.iter()
        .map(|&(tag, v)| match tag % 9 {
            // Weight scheduling and popping heaviest; bias deltas toward
            // ties and window boundaries.
            0 | 1 => Op::Schedule(v % 12_288),
            2 => Op::Schedule(v % 3),
            3 => Op::Schedule(WHEEL_SLOTS - 2 + v % 4),
            4 | 5 => Op::Pop,
            6 => Op::PopBefore(v % 9_000),
            7 => Op::Advance(v % 5_000),
            _ => Op::Peek,
        })
        .collect()
}

/// Run one op against both queues and check every observable agrees.
fn step(
    op: &Op,
    q: &mut EventQueue<usize>,
    r: &mut RefQueue<usize>,
    next_id: &mut usize,
) -> Result<(), TestCaseError> {
    match *op {
        Op::Schedule(delta) => {
            let at = r.now + Cycles(delta);
            q.schedule_at(at, *next_id);
            r.schedule_at(at, *next_id);
            *next_id += 1;
        }
        Op::Pop => {
            prop_assert_eq!(q.pop(), r.pop(), "pop diverged");
        }
        Op::PopBefore(slack) => {
            let horizon = r.now + Cycles(slack);
            prop_assert_eq!(
                q.pop_before(horizon),
                r.pop_before(horizon),
                "pop_before({:?}) diverged",
                horizon
            );
        }
        Op::Advance(delta) => {
            let mut t = r.now + Cycles(delta);
            if let Some(next) = r.peek_time() {
                t = t.min(next);
            }
            q.advance_to(t);
            r.advance_to(t);
        }
        Op::Peek => {
            prop_assert_eq!(q.peek_time(), r.peek_time(), "peek_time diverged");
        }
    }
    prop_assert_eq!(q.now(), r.now, "clock diverged");
    prop_assert_eq!(q.len(), r.heap.len(), "len diverged");
    prop_assert_eq!(q.peak_len(), r.peak, "peak_len diverged");
    Ok(())
}

/// Run a fixed tape against both queues, then drain both.
fn run_tape(ops: &[Op]) {
    let mut q = EventQueue::new();
    let mut r = RefQueue::new();
    let mut next_id = 0usize;
    for op in ops {
        step(op, &mut q, &mut r, &mut next_id).unwrap();
    }
    loop {
        let (a, b) = (q.pop(), r.pop());
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn heap_event_keeps_its_turn_once_the_window_reaches_it_by_pop() {
    // Event 0 at W + 100 waits in the heap. Popping event 1 at 200 brings
    // it within the window; events 2 and 3 are then scheduled for the same
    // cycle straight into the wheel and must pop after it. Event 4 is one
    // cycle past the new window and goes to the heap.
    run_tape(&[
        Op::Schedule(WHEEL_SLOTS + 100),
        Op::Schedule(200),
        Op::Pop,
        Op::Schedule(WHEEL_SLOTS - 100),
        Op::Schedule(WHEEL_SLOTS - 100),
        Op::Schedule(WHEEL_SLOTS),
        Op::Peek,
    ]);
}

#[test]
fn heap_event_keeps_its_turn_once_the_window_reaches_it_by_advance() {
    // As above, but the clock reaches the heap event through `advance_to`:
    // afterwards the event is exactly `WHEEL_SLOTS - 1` cycles away, the
    // last slot of the window.
    run_tape(&[
        Op::Schedule(WHEEL_SLOTS + 50),
        Op::Schedule(WHEEL_SLOTS + 50),
        Op::Advance(51),
        Op::Schedule(WHEEL_SLOTS - 1),
        Op::Schedule(WHEEL_SLOTS),
        Op::Schedule(WHEEL_SLOTS - 1),
        Op::Pop,
        Op::Schedule(0),
    ]);
}

#[test]
fn peak_len_counts_both_tiers() {
    // Alternate near and far events, pop part of the backlog so heap
    // entries move into the wheel, then refill past the old peak.
    let mut ops = Vec::new();
    for i in 0..40 {
        ops.push(Op::Schedule(if i % 2 == 0 { i } else { WHEEL_SLOTS + i }));
    }
    ops.extend((0..25).map(|_| Op::Pop));
    for i in 0..30 {
        ops.push(Op::Schedule(WHEEL_SLOTS - 1 + i % 3));
    }
    run_tape(&ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn two_tier_queue_matches_binary_heap_reference(
        tape in proptest::collection::vec((0u8..9, 0u64..1 << 32), 1..400)
    ) {
        let ops = decode(&tape);
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut next_id = 0usize;
        for op in &ops {
            step(op, &mut q, &mut r, &mut next_id)?;
        }
        // Drain whatever is left: full residual order must agree too.
        loop {
            let (a, b) = (q.pop(), r.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_cycle_bursts_keep_fifo_order_across_tiers(
        // Bursts of same-time events at offsets straddling the window edge.
        offsets in proptest::collection::vec(0u64..10_000, 1..40),
        burst in 1usize..20,
    ) {
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut id = 0usize;
        for &off in &offsets {
            for _ in 0..burst {
                q.schedule_at(Cycles(off), id);
                r.schedule_at(Cycles(off), id);
                id += 1;
            }
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn horizon_never_admits_late_events_and_never_loses_early_ones(
        times in proptest::collection::vec(0u64..20_000, 1..100),
        horizon in 0u64..20_000,
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Cycles(t), i);
        }
        let within = times.iter().filter(|&&t| t <= horizon).count();
        let mut got = 0usize;
        while let Some((at, _)) = q.pop_before(Cycles(horizon)) {
            prop_assert!(at.get() <= horizon, "popped past horizon");
            got += 1;
        }
        prop_assert_eq!(got, within, "horizon drain lost or invented events");
        prop_assert_eq!(q.len(), times.len() - within);
    }
}
