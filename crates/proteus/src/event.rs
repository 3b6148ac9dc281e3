//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence-number)`: two events scheduled for
//! the same cycle pop in the order they were scheduled. This makes entire
//! simulations bit-for-bit reproducible, which the experiment harness and the
//! property tests rely on.
//!
//! # Structure
//!
//! Each pending event is written once into a slab of nodes and stays there
//! until it pops; freed nodes form a free list, so a steady-state run
//! reuses the same few nodes and allocates nothing. What moves between the
//! two tiers is a 4-byte node index, never the event:
//!
//! * **Wheel.** Events due within `WHEEL_SLOTS` cycles of `now` sit in a
//!   timing wheel, one slot per cycle. A slot is a `head`/`tail` pair of
//!   indices into a singly linked list of slab nodes, and a bitmap over the
//!   slots finds the next occupied one by a word-wise scan.
//! * **Heap.** Events further out sit in a binary heap of
//!   `(time, seq, node)` triples.
//!
//! The window follows the clock: an event goes into the wheel when
//! `at - now < WHEEL_SLOTS`. Right after every pop and every `advance_to`,
//! before the caller can schedule anything at the new `now`, every heap
//! entry with `at < now + WHEEL_SLOTS` moves into the wheel. So the wheel
//! holds exactly the pending events in `[now, now + WHEEL_SLOTS)` and the
//! heap the later ones.
//!
//! Determinism does not depend on which tier an event lands in:
//!
//! * Every wheel time precedes every heap time, so the two tiers never tie.
//! * The window is `WHEEL_SLOTS` wide, so each slot holds one timestamp.
//! * Within a slot, events are appended in sequence order. Those that waited
//!   in the heap were scheduled while their time was still out of the
//!   window, so before any event scheduled straight into the slot; they
//!   move in the heap's `(time, seq)` order, all at once, as soon as the
//!   window reaches them. FIFO ties therefore come out of a plain linked
//!   list.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Cycles;

/// Width of the near-future window, in cycles (one slot per cycle). Must be
/// a power of two: slot lookup is a mask, not a division.
const WHEEL_SLOTS: usize = 4096;
/// Words in the slot-occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
/// The null node index: end of a list, empty slot, empty free list.
const NIL: u32 = u32::MAX;

/// A slab entry: a pending event (`None` while on the free list) and the
/// next node of its wheel slot or of the free list.
struct Node<E> {
    event: Option<E>,
    next: u32,
}

/// The linked list of one wheel slot; `tail` is stale while `head` is `NIL`.
#[derive(Copy, Clone)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    /// Every pending event, written once; free nodes are chained from `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Near-future tier: slot `t % WHEEL_SLOTS` lists the events at time `t`
    /// for `t` in `[now, now + WHEEL_SLOTS)`, in FIFO order.
    slots: Box<[Slot]>,
    /// One bit per slot; set iff the slot is non-empty.
    occupied: [u64; WHEEL_WORDS],
    wheel_len: usize,
    /// Far-future tier: `(time, seq, node)` for events at
    /// `now + WHEEL_SLOTS` or later, earliest first.
    heap: BinaryHeap<Reverse<(Cycles, u64, u32)>>,
    seq: u64,
    now: Cycles,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            slots: vec![EMPTY_SLOT; WHEEL_SLOTS].into_boxed_slice(),
            occupied: [0; WHEEL_WORDS],
            wheel_len: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            now: Cycles::ZERO,
            peak: 0,
        }
    }

    /// The current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.heap.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the queue has ever been (pending events), for profiling.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the queue
    /// clamps to `now` so time never runs backwards, and debug builds assert.
    pub fn schedule_at(&mut self, at: Cycles, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let node = self.alloc(event);
        if self.in_window(at) {
            self.push_wheel(at, node);
        } else {
            self.heap.push(Reverse((at, self.seq, node)));
        }
        self.seq += 1;
        let len = self.len();
        if len > self.peak {
            self.peak = len;
        }
    }

    /// Schedule `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: Cycles, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        self.pop_before(Cycles::MAX)
    }

    /// Pop the earliest event if its timestamp is at or before `horizon`,
    /// advancing `now` to it. One call replaces a `peek_time` + `pop` pair
    /// in the event loop's hot path.
    pub fn pop_before(&mut self, horizon: Cycles) -> Option<(Cycles, E)> {
        let (t, node) = if self.wheel_len > 0 {
            let (idx, t) = self.wheel_next();
            if t > horizon {
                return None;
            }
            (t, self.pop_slot(idx))
        } else {
            // Wheel times always precede heap times, so an empty wheel means
            // the heap's minimum is the queue's minimum.
            let Reverse((t, _, node)) = *self.heap.peek()?;
            if t > horizon {
                return None;
            }
            self.heap.pop();
            (t, node)
        };
        let event = self.release(node);
        self.now = t;
        self.follow_now();
        Some((t, event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycles> {
        if self.wheel_len > 0 {
            Some(self.wheel_next().1)
        } else {
            self.heap.peek().map(|&Reverse((at, _, _))| at)
        }
    }

    /// Advance the clock to `t` without processing events (used when a run
    /// stops at a time horizon: the simulation's notion of "now" is the
    /// horizon, not the last event). Must not skip past pending events.
    pub fn advance_to(&mut self, t: Cycles) {
        debug_assert!(t >= self.now, "clock cannot run backwards");
        if let Some(next) = self.peek_time() {
            debug_assert!(t <= next, "advance_to would skip pending events");
        }
        self.now = self.now.max(t);
        self.follow_now();
    }

    /// Store `event` in a free node (or a new one) and return its index.
    #[inline]
    fn alloc(&mut self, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.event = Some(event);
            node.next = NIL;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("more than u32::MAX - 1 pending events");
            self.nodes.push(Node {
                event: Some(event),
                next: NIL,
            });
            idx
        }
    }

    /// Take the event out of `idx` and put the node on the free list.
    #[inline]
    fn release(&mut self, idx: u32) -> E {
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("released node holds no event");
        node.next = self.free;
        self.free = idx;
        event
    }

    /// Append node `idx`, due at `at`, to the tail of its wheel slot.
    #[inline]
    fn push_wheel(&mut self, at: Cycles, idx: u32) {
        let s = (at.get() as usize) & (WHEEL_SLOTS - 1);
        let slot = &mut self.slots[s];
        if slot.head == NIL {
            slot.head = idx;
            self.occupied[s >> 6] |= 1u64 << (s & 63);
        } else {
            self.nodes[slot.tail as usize].next = idx;
        }
        slot.tail = idx;
        self.wheel_len += 1;
    }

    /// Unlink and return the head node of occupied slot `s`.
    #[inline]
    fn pop_slot(&mut self, s: usize) -> u32 {
        let idx = self.slots[s].head;
        let next = self.nodes[idx as usize].next;
        self.slots[s].head = next;
        if next == NIL {
            self.occupied[s >> 6] &= !(1u64 << (s & 63));
        }
        self.wheel_len -= 1;
        idx
    }

    /// Whether an event at `at >= now` belongs in the wheel. A difference,
    /// not `at < now + WHEEL_SLOTS`, so the rule still holds where that sum
    /// would saturate at `Cycles::MAX`.
    #[inline]
    fn in_window(&self, at: Cycles) -> bool {
        at.get() - self.now.get() < WHEEL_SLOTS as u64
    }

    /// Move every heap entry that the window `[now, now + WHEEL_SLOTS)` now
    /// covers into the wheel. Heap pops come out in `(time, seq)` order, and
    /// nothing has been scheduled at the new `now` yet, so each slot is
    /// extended in sequence order.
    #[inline]
    fn follow_now(&mut self) {
        while let Some(&Reverse((at, _, idx))) = self.heap.peek() {
            if !self.in_window(at) {
                break;
            }
            self.heap.pop();
            self.push_wheel(at, idx);
        }
    }

    /// Index and timestamp of the earliest occupied wheel slot. Requires a
    /// non-empty wheel. Every live slot holds a time in
    /// `[now, now + WHEEL_SLOTS)`, so the first set bit in a circular scan
    /// from `now` is the earliest event.
    fn wheel_next(&self) -> (usize, Cycles) {
        debug_assert!(self.wheel_len > 0, "scan of empty wheel");
        let start = (self.now.get() as usize) & (WHEEL_SLOTS - 1);
        let mut word = start >> 6;
        let mut bits = self.occupied[word] & (!0u64 << (start & 63));
        // `<= WHEEL_WORDS` re-scans the starting word in full after a wrap:
        // its low bits (times just under one window away) are only reachable
        // circularly.
        for _ in 0..=WHEEL_WORDS {
            if bits != 0 {
                let idx = (word << 6) | bits.trailing_zeros() as usize;
                let delta = idx.wrapping_sub(start) & (WHEEL_SLOTS - 1);
                return (idx, Cycles(self.now.get() + delta as u64));
            }
            word = (word + 1) & (WHEEL_WORDS - 1);
            bits = self.occupied[word];
        }
        unreachable!("wheel_len > 0 but occupancy bitmap is empty");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(30), "c");
        q.schedule_at(Cycles(10), "a");
        q.schedule_at(Cycles(20), "b");
        assert_eq!(q.pop(), Some((Cycles(10), "a")));
        assert_eq!(q.pop(), Some((Cycles(20), "b")));
        assert_eq!(q.pop(), Some((Cycles(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Cycles(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(5), i)));
        }
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(42), ());
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles(42));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(10), "first");
        q.pop();
        q.schedule_after(Cycles(5), "second");
        assert_eq!(q.pop(), Some((Cycles(15), "second")));
    }

    #[test]
    fn peek_does_not_advance_time() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(7), ());
        assert_eq!(q.peek_time(), Some(Cycles(7)));
        assert_eq!(q.now(), Cycles::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_asserts_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(10), ());
        q.pop();
        q.schedule_at(Cycles(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(1), 1u32);
        q.schedule_at(Cycles(3), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule_at(Cycles(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn far_future_events_overflow_to_heap_and_come_back() {
        let mut q = EventQueue::new();
        let far = Cycles(10 * WHEEL_SLOTS as u64 + 3);
        q.schedule_at(far, "far");
        q.schedule_at(Cycles(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycles(1)));
        assert_eq!(q.pop(), Some((Cycles(1), "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo_across_window_advance() {
        // All events land in the heap first (far future), then migrate into
        // the wheel together; same-cycle FIFO order must survive the move,
        // including for events appended after the window advance.
        let t = Cycles(3 * WHEEL_SLOTS as u64 + 17);
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        assert_eq!(q.pop(), Some((t, 0)));
        for i in 10..20 {
            q.schedule_at(t, i);
        }
        for i in 1..20 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn window_boundary_is_exclusive() {
        // An event exactly one window away goes to the heap but still pops
        // in order relative to a wheel event.
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(WHEEL_SLOTS as u64), "boundary");
        q.schedule_at(Cycles(WHEEL_SLOTS as u64 - 1), "in-window");
        assert_eq!(q.pop(), Some((Cycles(WHEEL_SLOTS as u64 - 1), "in-window")));
        assert_eq!(q.pop(), Some((Cycles(WHEEL_SLOTS as u64), "boundary")));
    }

    #[test]
    fn ties_at_the_end_of_time_stay_fifo() {
        // `now + WHEEL_SLOTS` saturates here; the heap event must still join
        // the wheel ahead of the same-cycle event scheduled after it.
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::MAX, "first");
        q.advance_to(Cycles(u64::MAX - 10));
        q.schedule_at(Cycles::MAX, "second");
        assert_eq!(q.pop(), Some((Cycles::MAX, "first")));
        assert_eq!(q.pop(), Some((Cycles::MAX, "second")));
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(10), "a");
        q.schedule_at(Cycles(20), "b");
        assert_eq!(q.pop_before(Cycles(5)), None);
        assert_eq!(q.now(), Cycles::ZERO);
        assert_eq!(q.pop_before(Cycles(10)), Some((Cycles(10), "a")));
        assert_eq!(q.pop_before(Cycles(15)), None);
        assert_eq!(q.pop_before(Cycles(20)), Some((Cycles(20), "b")));
        assert_eq!(q.pop_before(Cycles::MAX), None);
    }

    #[test]
    fn pop_before_does_not_move_window_past_horizon() {
        // A refused pop must leave the queue observably unchanged.
        let far = Cycles(5 * WHEEL_SLOTS as u64);
        let mut q = EventQueue::new();
        q.schedule_at(far, ());
        assert_eq!(q.pop_before(Cycles(100)), None);
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(far), Some((far, ())));
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        for i in 0..5 {
            q.schedule_at(Cycles(i), ());
        }
        q.pop();
        q.pop();
        q.schedule_at(Cycles(9), ());
        assert_eq!(q.peak_len(), 5);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn long_sparse_run_crosses_many_windows() {
        let mut q = EventQueue::new();
        let step = Cycles(WHEEL_SLOTS as u64 / 2 + 1);
        q.schedule_at(Cycles(1), 0u64);
        let mut popped = 0u64;
        while let Some((t, i)) = q.pop() {
            assert_eq!(i, popped);
            assert_eq!(q.now(), t);
            popped += 1;
            if popped < 50 {
                q.schedule_after(step, popped);
            }
        }
        assert_eq!(popped, 50);
    }
}
