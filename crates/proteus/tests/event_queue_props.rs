//! Differential property tests: the three-tier `EventQueue` (fine wheel,
//! coarse wheel, overflow heap) must be observationally identical to the
//! old single-`BinaryHeap` implementation — same `(time, seq)` pop order
//! (including same-cycle FIFO ties), same clock, same horizon clamping, same
//! peak depth — under arbitrary schedule/pop/advance interleavings.
//!
//! `wide_tapes_match_binary_heap_reference_long` is `#[ignore]`d: it runs
//! the wide-tape property for 20,000 cases. Run it with
//! `cargo test --release -p proteus --test event_queue_props -- --include-ignored`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use proteus::event::EventQueue;
use proteus::Cycles;

/// The fine wheel's width in cycles: two buckets.
const WHEEL_SLOTS: u64 = 4096;
/// A bucket's width in cycles.
const BUCKET: u64 = 2048;
/// Buckets from `now`'s to the first one past the coarse wheel: the fine
/// wheel's two and the coarse wheel's 64. Events in that bucket or later
/// wait in the overflow heap.
const REACH_BUCKETS: u64 = 66;

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
    /// Schedule at `now + delta`. Small deltas (and 0) produce same-cycle
    /// ties, deltas within two cycles of `WHEEL_SLOTS` straddle the fine
    /// wheel's far edge, and deltas up to 600,000 cycles cross the coarse
    /// wheel into the overflow heap.
    Schedule(u64),
    /// Schedule on an absolute bucket edge `buckets` buckets past `now`'s:
    /// at the bucket's first cycle, or (`last`) at the cycle before it.
    Edge { buckets: u64, last: bool },
    /// Schedule `offset` cycles after the start of the first bucket past
    /// the coarse wheel's reach (`-1`: the last coarse cycle).
    Reach(i64),
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

/// Decode a tape whose deltas stay within a few fine windows.
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

/// Decode a tape whose deltas reach past the coarse wheel, with schedules
/// on bucket edges and on either side of the coarse reach, and horizons and
/// clock advances spanning many buckets.
fn decode_wide(tape: &[(u8, u64)]) -> Vec<Op> {
    tape.iter()
        .map(|&(tag, v)| match tag % 12 {
            0 => Op::Schedule(v % 12_288),
            1 => Op::Schedule(v % 600_000),
            2 => Op::Schedule(v % 3),
            3 => Op::Edge {
                buckets: 1 + (v >> 1) % (REACH_BUCKETS + 4),
                last: v & 1 == 1,
            },
            4 => Op::Reach(v as i64 % 3 - 1),
            5..=7 => Op::Pop,
            8 => Op::PopBefore(v % 300_000),
            9 => Op::PopBefore(v % 3_000),
            10 => Op::Advance(v % 300_000),
            _ => Op::Peek,
        })
        .collect()
}

/// The absolute time `op` schedules at, from the clock `now`, or `None`
/// for an op that schedules nothing.
fn schedule_time(op: &Op, now: Cycles) -> Option<Cycles> {
    let bucket_start = |b: u64| Cycles(((now.get() / BUCKET) + b) * BUCKET);
    match *op {
        Op::Schedule(delta) => Some(now + Cycles(delta)),
        Op::Edge { buckets, last } => Some(Cycles(bucket_start(buckets).get() - u64::from(last))),
        Op::Reach(offset) => Some(Cycles(
            bucket_start(REACH_BUCKETS)
                .get()
                .wrapping_add_signed(offset),
        )),
        _ => None,
    }
}

/// Run one op against both queues and check every observable agrees.
fn step(
    op: &Op,
    q: &mut EventQueue<usize>,
    r: &mut RefQueue<usize>,
    next_id: &mut usize,
) -> Result<(), TestCaseError> {
    if let Some(at) = schedule_time(op, r.now) {
        q.schedule_at(at, *next_id);
        r.schedule_at(at, *next_id);
        *next_id += 1;
    }
    match *op {
        Op::Schedule(_) | Op::Edge { .. } | Op::Reach(_) => {}
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

/// Run `ops` against both queues, then drain both: the full residual order
/// must agree too.
fn differential(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut q = EventQueue::new();
    let mut r = RefQueue::new();
    let mut next_id = 0usize;
    for op in ops {
        step(op, &mut q, &mut r, &mut next_id)?;
    }
    loop {
        let (a, b) = (q.pop(), r.pop());
        prop_assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            return Ok(());
        }
    }
}

/// Run a fixed tape through [`differential`].
fn run_tape(ops: &[Op]) {
    differential(ops).unwrap();
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

#[test]
fn a_tie_keeps_fifo_order_from_heap_through_coarse_to_fine() {
    // Events 0 and 1 at 300,000 wait in the overflow heap. After the clock
    // reaches 200,000, events 2 and 3 for the same cycle go straight into
    // its coarse bucket, which by then holds 0 and 1; after 299,000, events
    // 4 and 5 go straight into the fine wheel, which by then holds 0 to 3.
    run_tape(&[
        Op::Schedule(300_000),
        Op::Schedule(300_000),
        Op::Advance(200_000),
        Op::Schedule(100_000),
        Op::Schedule(100_000),
        Op::Peek,
        Op::Advance(99_000),
        Op::Schedule(1_000),
        Op::Schedule(1_000),
        Op::Peek,
    ]);
}

#[test]
fn a_refused_pop_on_an_empty_fine_wheel_changes_nothing() {
    // The only pending event is in the coarse wheel (then the heap), past
    // the horizon: the pop is refused, and an event scheduled just after it
    // for a near cycle still goes first.
    for far in [50_000, 500_000] {
        run_tape(&[
            Op::Schedule(far),
            Op::PopBefore(1_000),
            Op::Schedule(10),
            Op::Peek,
            Op::PopBefore(far - 1),
            Op::PopBefore(far - 1),
            Op::Schedule(0),
        ]);
    }
}

#[test]
fn advance_to_across_many_buckets() {
    // Two events wait in the overflow heap. The clock jumps 146 buckets,
    // which brings both into the coarse wheel; near events scheduled then
    // pop first, and a second jump, clamped to the earlier far event, moves
    // its bucket into the fine wheel.
    run_tape(&[
        Op::Schedule(400_000),
        Op::Schedule(330_000),
        Op::Advance(300_000),
        Op::Schedule(0),
        Op::Schedule(1_000),
        Op::Pop,
        Op::Pop,
        Op::Advance(100_000),
        Op::Schedule(REACH_BUCKETS * BUCKET),
        Op::Peek,
    ]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn two_tier_queue_matches_binary_heap_reference(
        tape in proptest::collection::vec((0u8..9, 0u64..1 << 32), 1..400)
    ) {
        differential(&decode(&tape))?;
    }

    #[test]
    fn wide_tapes_match_binary_heap_reference(
        tape in proptest::collection::vec((0u8..12, 0u64..1 << 32), 1..400)
    ) {
        differential(&decode_wide(&tape))?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The wide-tape property over 20,000 cases (ignored by default; CI runs
    /// it in release).
    #[test]
    #[ignore]
    fn wide_tapes_match_binary_heap_reference_long(
        tape in proptest::collection::vec((0u8..12, 0u64..1 << 32), 1..400)
    ) {
        differential(&decode_wide(&tape))?;
    }
}
