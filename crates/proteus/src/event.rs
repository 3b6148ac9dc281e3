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
//! three tiers is a 4-byte node index, never the event. Time is cut into
//! buckets of `BUCKET_CYCLES` cycles; bucket `b` holds the times
//! `[b * BUCKET_CYCLES, (b + 1) * BUCKET_CYCLES)`, and `base` is the bucket
//! of `now`:
//!
//! * **Fine wheel.** Events in buckets `base` and `base + 1` sit in a timing
//!   wheel of `FINE_SLOTS` = two buckets' worth of slots, one per cycle. A
//!   slot is a `head`/`tail` pair of indices into a singly linked list of
//!   slab nodes, and a bitmap over the slots finds the next occupied one by
//!   a word-wise scan.
//! * **Coarse wheel.** Events in the next `COARSE_BUCKETS` buckets,
//!   `[base + 2, base + 2 + COARSE_BUCKETS)`, sit in one list per bucket,
//!   threaded through the same `next` links, with the bucket's earliest
//!   time and a one-word occupancy bitmap. A node keeps its time's offset
//!   within its bucket in the padding after `next`. That reach, at least
//!   `COARSE_BUCKETS * BUCKET_CYCLES` cycles past `now`, covers the
//!   runtime's retransmission timers and their first backoffs, its
//!   heartbeats and its think times.
//! * **Overflow heap.** Events further out sit in a binary heap of
//!   `(time, seq, node)` triples.
//!
//! Which tier holds an event depends only on its bucket and `base`, so all
//! pending events of one bucket share a tier, and every fine time precedes
//! every coarse time, which precedes every heap time. When `now` enters a
//! new bucket (a pop or `advance_to`), `base` follows it at once, before the
//! caller can schedule anything: each coarse bucket that enters the fine
//! window moves over whole, in list order, and each heap entry whose bucket
//! comes within reach moves, in heap order, into the fine or the coarse
//! wheel. When the fine wheel is empty, a pop jumps `base` straight to the
//! bucket of the earliest pending event, but only once that event is known
//! to be within the horizon, so a refused `pop_before` changes nothing.
//!
//! Same-cycle FIFO order needs no per-event comparison. The events at one
//! time `t` were scheduled in three phases, each later than the one before:
//! while `t`'s bucket was out of reach (heap), while it was in the coarse
//! wheel, and while it was in the fine window. A bucket's list starts empty
//! when the bucket comes within reach, takes the heap's entries in
//! `(time, seq)` order and then direct schedules in `seq` order; a fine slot
//! starts empty when its bucket enters the window and takes that list in
//! order, then direct schedules. Each list is therefore in `seq` order per
//! timestamp, and a fine slot, which holds a single timestamp, pops FIFO.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Cycles;

/// log2 of the bucket width.
const BUCKET_BITS: u32 = 11;
/// Width of a bucket, in cycles.
const BUCKET_CYCLES: u64 = 1 << BUCKET_BITS;
/// Slots of the fine wheel: one per cycle of the two buckets it holds.
/// Slot lookup is a mask, not a division.
const FINE_SLOTS: usize = 2 * BUCKET_CYCLES as usize;
/// Words in the fine wheel's slot-occupancy bitmap.
const FINE_WORDS: usize = FINE_SLOTS / 64;
/// Buckets of the coarse wheel; one occupancy bit each, in one word.
const COARSE_BUCKETS: u64 = 64;
/// The null node index: end of a list, empty slot, empty free list.
const NIL: u32 = u32::MAX;

/// A slab entry: a pending event (`None` while on the free list), the next
/// node of its list (fine slot, coarse bucket or free list) and, while it
/// waits in a coarse bucket, its time's offset within that bucket.
struct Node<E> {
    event: Option<E>,
    next: u32,
    offset: u32,
}

/// The linked list of one fine slot; `tail` is stale while `head` is `NIL`.
#[derive(Copy, Clone)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// The linked list of one coarse bucket and its earliest time; `tail` and
/// `earliest` are stale while `head` is `NIL`.
#[derive(Copy, Clone)]
struct Bucket {
    head: u32,
    tail: u32,
    earliest: Cycles,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
    earliest: Cycles::MAX,
};

/// Deterministic work counters of an [`EventQueue`], over its lifetime.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Events scheduled into the coarse wheel: two or more buckets past
    /// `now`'s, within its reach.
    pub coarse_schedules: u64,
    /// Events scheduled into the overflow heap, beyond the coarse reach.
    pub overflow_schedules: u64,
    /// Events moved from a coarse bucket into the fine wheel.
    pub bucket_moves: u64,
}

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    /// Every pending event, written once; free nodes are chained from `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// The bucket of `now`: the fine wheel holds buckets `base` and
    /// `base + 1`, the coarse wheel the `COARSE_BUCKETS` after them.
    base: u64,
    /// Fine tier: slot `t % FINE_SLOTS` lists the events at time `t` for
    /// `t` in buckets `base` and `base + 1`, in FIFO order.
    slots: Box<[Slot]>,
    /// One bit per fine slot; set iff the slot is non-empty.
    occupied: [u64; FINE_WORDS],
    fine_len: usize,
    /// Coarse tier: bucket `b % COARSE_BUCKETS` lists the events of bucket
    /// `b`, for `b` in `[base + 2, base + 2 + COARSE_BUCKETS)`.
    buckets: [Bucket; COARSE_BUCKETS as usize],
    /// One bit per coarse bucket; set iff the bucket is non-empty.
    coarse_occupied: u64,
    coarse_len: usize,
    /// Overflow tier: `(time, seq, node)` for events past the coarse reach,
    /// earliest first.
    heap: BinaryHeap<Reverse<(Cycles, u64, u32)>>,
    seq: u64,
    now: Cycles,
    peak: usize,
    counters: QueueCounters,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket of time `t`.
#[inline]
fn bucket_of(t: Cycles) -> u64 {
    t.get() >> BUCKET_BITS
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            base: 0,
            slots: vec![EMPTY_SLOT; FINE_SLOTS].into_boxed_slice(),
            occupied: [0; FINE_WORDS],
            fine_len: 0,
            buckets: [EMPTY_BUCKET; COARSE_BUCKETS as usize],
            coarse_occupied: 0,
            coarse_len: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            now: Cycles::ZERO,
            peak: 0,
            counters: QueueCounters::default(),
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
        self.fine_len + self.coarse_len + self.heap.len()
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

    /// How many schedules went past the fine wheel, and how many events
    /// moved from the coarse wheel into it, since the queue was made.
    #[inline]
    pub fn counters(&self) -> QueueCounters {
        self.counters
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
        let ahead = bucket_of(at) - self.base;
        if ahead < 2 {
            self.push_fine(at, node);
        } else if ahead < 2 + COARSE_BUCKETS {
            self.push_coarse(at, node);
            self.counters.coarse_schedules += 1;
        } else {
            self.heap.push(Reverse((at, self.seq, node)));
            self.counters.overflow_schedules += 1;
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
    #[inline]
    pub fn pop_before(&mut self, horizon: Cycles) -> Option<(Cycles, E)> {
        if self.fine_len == 0 && !self.jump_before(horizon) {
            return None;
        }
        let (s, t) = self.fine_next();
        if t > horizon {
            return None;
        }
        let node = self.pop_slot(s);
        let event = self.release(node);
        self.now = t;
        if bucket_of(t) != self.base {
            self.rebase(bucket_of(t));
        }
        Some((t, event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycles> {
        if self.fine_len > 0 {
            Some(self.fine_next().1)
        } else {
            self.far_next()
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
        if bucket_of(self.now) != self.base {
            self.rebase(bucket_of(self.now));
        }
    }

    /// With the fine wheel empty, move the window to the bucket of the
    /// earliest pending event (coarse wheel or heap) if that event is at or
    /// before `horizon`, and set `now` to its time. Returns whether it did;
    /// a refused jump changes nothing.
    #[cold]
    fn jump_before(&mut self, horizon: Cycles) -> bool {
        match self.far_next() {
            Some(t) if t <= horizon => {
                self.now = t;
                self.rebase(bucket_of(t));
                true
            }
            _ => false,
        }
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
                offset: 0,
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

    /// Append node `idx`, due at `at` and linked to nothing, to the tail of
    /// its fine slot.
    #[inline]
    fn push_fine(&mut self, at: Cycles, idx: u32) {
        let s = (at.get() as usize) & (FINE_SLOTS - 1);
        let slot = &mut self.slots[s];
        if slot.head == NIL {
            slot.head = idx;
            self.occupied[s >> 6] |= 1u64 << (s & 63);
        } else {
            self.nodes[slot.tail as usize].next = idx;
        }
        slot.tail = idx;
        self.fine_len += 1;
    }

    /// Append node `idx`, due at `at` and linked to nothing, to the tail of
    /// its coarse bucket.
    #[inline]
    fn push_coarse(&mut self, at: Cycles, idx: u32) {
        let b = (bucket_of(at) % COARSE_BUCKETS) as usize;
        self.nodes[idx as usize].offset = (at.get() & (BUCKET_CYCLES - 1)) as u32;
        let bucket = &mut self.buckets[b];
        if bucket.head == NIL {
            bucket.head = idx;
            bucket.earliest = at;
            self.coarse_occupied |= 1u64 << b;
        } else {
            self.nodes[bucket.tail as usize].next = idx;
            bucket.earliest = bucket.earliest.min(at);
        }
        bucket.tail = idx;
        self.coarse_len += 1;
    }

    /// Unlink and return the head node of occupied fine slot `s`.
    #[inline]
    fn pop_slot(&mut self, s: usize) -> u32 {
        let idx = self.slots[s].head;
        let next = self.nodes[idx as usize].next;
        self.slots[s].head = next;
        if next == NIL {
            self.occupied[s >> 6] &= !(1u64 << (s & 63));
        }
        self.fine_len -= 1;
        idx
    }

    /// Move `base` forward to `to`, the bucket of the (new) `now`. Every
    /// pending event is at `now` or later, so the buckets before `to` are
    /// empty in every tier. Coarse buckets that enter the fine window move
    /// first, emptying their slots of the coarse wheel; heap entries then
    /// fill the buckets that came within reach, in `(time, seq)` order.
    #[cold]
    fn rebase(&mut self, to: u64) {
        let from = self.base;
        debug_assert!(to > from, "the fine window only moves forward");
        self.base = to;
        // The new window `[to, to + 2)`, less what was already in the fine
        // wheel or still out of the coarse wheel's reach.
        for b in to.max(from + 2)..(to + 2).min(from + 2 + COARSE_BUCKETS) {
            self.drain_bucket(b);
        }
        while let Some(&Reverse((at, _, idx))) = self.heap.peek() {
            let ahead = bucket_of(at) - to;
            if ahead >= 2 + COARSE_BUCKETS {
                break;
            }
            self.heap.pop();
            if ahead < 2 {
                self.push_fine(at, idx);
            } else {
                self.push_coarse(at, idx);
            }
        }
    }

    /// Move every event of coarse bucket `b` into the fine wheel, in list
    /// order.
    fn drain_bucket(&mut self, b: u64) {
        let k = (b % COARSE_BUCKETS) as usize;
        if self.coarse_occupied & (1u64 << k) == 0 {
            return;
        }
        self.coarse_occupied &= !(1u64 << k);
        let mut idx = self.buckets[k].head;
        self.buckets[k] = EMPTY_BUCKET;
        let start = b << BUCKET_BITS;
        let mut moved = 0;
        while idx != NIL {
            let node = &mut self.nodes[idx as usize];
            let next = node.next;
            node.next = NIL;
            let at = Cycles(start | u64::from(node.offset));
            self.push_fine(at, idx);
            moved += 1;
            idx = next;
        }
        self.coarse_len -= moved;
        self.counters.bucket_moves += moved as u64;
    }

    /// Timestamp of the earliest event outside the fine wheel: the earliest
    /// time of the first occupied coarse bucket in circular order from
    /// `base + 2`, or else the heap's minimum.
    fn far_next(&self) -> Option<Cycles> {
        if self.coarse_occupied != 0 {
            let first = ((self.base + 2) % COARSE_BUCKETS) as u32;
            let k = (self.coarse_occupied.rotate_right(first).trailing_zeros() + first)
                % COARSE_BUCKETS as u32;
            Some(self.buckets[k as usize].earliest)
        } else {
            self.heap.peek().map(|&Reverse((at, _, _))| at)
        }
    }

    /// Index and timestamp of the earliest occupied fine slot. Requires a
    /// non-empty fine wheel. Every live slot holds a time in
    /// `[now, (base + 2) * BUCKET_CYCLES)`, fewer than `FINE_SLOTS` cycles,
    /// so the first set bit in a circular scan from `now` is the earliest
    /// event.
    fn fine_next(&self) -> (usize, Cycles) {
        debug_assert!(self.fine_len > 0, "scan of empty fine wheel");
        let start = (self.now.get() as usize) & (FINE_SLOTS - 1);
        let mut word = start >> 6;
        let mut bits = self.occupied[word] & (!0u64 << (start & 63));
        // `<= FINE_WORDS` re-scans the starting word in full after a wrap:
        // its low bits (times just under one window away) are only reachable
        // circularly.
        for _ in 0..=FINE_WORDS {
            if bits != 0 {
                let idx = (word << 6) | bits.trailing_zeros() as usize;
                let delta = idx.wrapping_sub(start) & (FINE_SLOTS - 1);
                return (idx, Cycles(self.now.get() + delta as u64));
            }
            word = (word + 1) & (FINE_WORDS - 1);
            bits = self.occupied[word];
        }
        unreachable!("fine_len > 0 but occupancy bitmap is empty");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reach of the coarse wheel from a bucket-aligned `now`: events
    /// this many cycles out or further wait in the heap.
    const REACH: u64 = (2 + COARSE_BUCKETS) * BUCKET_CYCLES;

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
    fn the_bucket_offset_rides_in_the_node_padding() {
        assert_eq!(
            std::mem::size_of::<Node<u64>>(),
            std::mem::size_of::<Option<u64>>() + 8
        );
        assert_eq!(
            std::mem::size_of::<Node<[u64; 14]>>(),
            std::mem::size_of::<Option<[u64; 14]>>() + 8
        );
    }

    #[test]
    fn each_tier_takes_its_share_of_schedules() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(FINE_SLOTS as u64 - 1), "fine");
        q.schedule_at(Cycles(FINE_SLOTS as u64), "coarse");
        q.schedule_at(Cycles(25_000), "timer");
        q.schedule_at(Cycles(REACH - 1), "last coarse");
        q.schedule_at(Cycles(REACH), "overflow");
        assert_eq!(
            q.counters(),
            QueueCounters {
                coarse_schedules: 3,
                overflow_schedules: 1,
                bucket_moves: 0,
            }
        );
        assert_eq!(q.len(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            ["fine", "coarse", "timer", "last coarse", "overflow"]
        );
        // The three coarse schedules moved into the fine wheel, and so did
        // the overflow entry, by way of the coarse wheel.
        assert_eq!(q.counters().bucket_moves, 4);
    }

    #[test]
    fn far_future_events_overflow_to_heap_and_come_back() {
        let mut q = EventQueue::new();
        let far = Cycles(10 * REACH + 3);
        q.schedule_at(far, "far");
        q.schedule_at(Cycles(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycles(1)));
        assert_eq!(q.pop(), Some((Cycles(1), "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.counters().overflow_schedules, 1);
    }

    #[test]
    fn ties_pop_fifo_across_window_advance() {
        // All events land in the coarse wheel first, then move into the
        // fine wheel together; same-cycle FIFO order must survive the move,
        // including for events appended after the window advance.
        let t = Cycles(3 * FINE_SLOTS as u64 + 17);
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
    fn a_tie_keeps_fifo_order_from_heap_through_coarse_to_fine() {
        // Events 0..3 are scheduled while `t` is out of reach (heap), 3..6
        // once its bucket is in the coarse wheel, 6..9 once it is in the
        // fine window.
        let t = Cycles(3 * REACH + 100);
        let mut q = EventQueue::new();
        for i in 0..3 {
            q.schedule_at(t, i);
        }
        q.advance_to(Cycles(t.get() - REACH / 2));
        assert_eq!(q.counters().overflow_schedules, 3);
        for i in 3..6 {
            q.schedule_at(t, i);
        }
        assert_eq!(q.counters().coarse_schedules, 3);
        q.advance_to(Cycles(t.get() - 10));
        for i in 6..9 {
            q.schedule_at(t, i);
        }
        assert_eq!(q.counters().bucket_moves, 6);
        for i in 0..9 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn window_boundary_is_exclusive() {
        // An event exactly one fine window away goes to the coarse wheel
        // but still pops in order relative to a fine-wheel event.
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(FINE_SLOTS as u64), "boundary");
        q.schedule_at(Cycles(FINE_SLOTS as u64 - 1), "in-window");
        assert_eq!(q.counters().coarse_schedules, 1);
        assert_eq!(q.pop(), Some((Cycles(FINE_SLOTS as u64 - 1), "in-window")));
        assert_eq!(q.pop(), Some((Cycles(FINE_SLOTS as u64), "boundary")));
    }

    #[test]
    fn ties_at_the_end_of_time_stay_fifo() {
        // The last bucket is shorter than the others; the heap event must
        // still join the fine wheel ahead of the same-cycle event scheduled
        // after it.
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
        // A refused pop must leave the queue observably unchanged, from
        // either far tier: a near event scheduled afterwards still goes
        // first.
        for far in [Cycles(5 * FINE_SLOTS as u64), Cycles(5 * REACH)] {
            let mut q = EventQueue::new();
            q.schedule_at(far, "far");
            assert_eq!(q.pop_before(Cycles(100)), None);
            assert_eq!(q.peek_time(), Some(far));
            assert_eq!(q.len(), 1);
            assert_eq!(q.counters().bucket_moves, 0);
            q.schedule_at(Cycles(50), "near");
            assert_eq!(q.pop_before(far), Some((Cycles(50), "near")));
            assert_eq!(q.pop_before(far), Some((far, "far")));
        }
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
        for step in [FINE_SLOTS as u64 / 2 + 1, 25_000, REACH + 1] {
            let mut q = EventQueue::new();
            q.schedule_at(Cycles(1), 0u64);
            let mut popped = 0u64;
            while let Some((t, i)) = q.pop() {
                assert_eq!(i, popped);
                assert_eq!(q.now(), t);
                popped += 1;
                if popped < 50 {
                    q.schedule_after(Cycles(step), popped);
                }
            }
            assert_eq!(popped, 50);
        }
    }
}
