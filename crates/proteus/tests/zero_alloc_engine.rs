//! With no tracer attached, the steady-state event loop makes zero heap
//! allocations per event: the queue reuses slab nodes from its free list,
//! its coarse wheel is a fixed array of lists through those nodes, its
//! overflow heap keeps its capacity, and the lazy `emit_with` closure
//! never runs. The coherence caches own no storage until their first fill,
//! grow their tag arrays only to cover the sets fills reach, and allocate
//! nothing once every set is covered; the directory allocates one 1,020-byte
//! page per 85 lines at the first miss on one of them, and nothing for the
//! lines below, plus one 680-byte side array when a processor above P63
//! first shares one of the page's lines and one 340-byte side array when
//! one of its lines is first occupied past 2^31 cycles. Verified with a
//! counting global allocator rather than inspection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proteus::coherence::{make_addr, Access};
use proteus::{
    Cache, CacheConfig, CoherenceCosts, CoherenceSystem, Cycles, Engine, EventQueue, LineState,
    Network, ProcId, QueueCounters, Simulation,
};

thread_local! {
    // Per thread, so the tests in this file can run side by side without
    // seeing each other's allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

/// Run `f`, returning its result with the allocations it made and the bytes
/// they asked for.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (count, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCATIONS.with(Cell::get) - count,
        BYTES.with(Cell::get) - bytes,
    )
}

struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator; the counter is a
// const-initialised thread-local `Cell` (no destructor, never allocates).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ping-pong: every event schedules the next, forever, one near-future
/// wheel slot ahead.
struct PingPong;

impl Simulation for PingPong {
    type Event = u32;

    fn handle(&mut self, _now: Cycles, ev: u32, queue: &mut EventQueue<u32>) {
        queue.schedule_after(Cycles(7), ev.wrapping_add(1));
    }
}

/// Near and far traffic: a ping-pong chain of even events 7 cycles apart
/// (in the fine wheel), where every fourth link also schedules an odd leaf
/// event 10,000 cycles out (past the fine wheel's 4,096 cycles, into the
/// coarse wheel), every sixteenth a leaf 100,000 cycles out (coarse wheel,
/// near the end of its reach) and every sixty-fourth a leaf 300,000 cycles
/// out (past the coarse reach, into the overflow heap). Leaves move from
/// the heap into the coarse wheel and from there into the fine wheel as the
/// clock reaches them, and schedule nothing, so about 2,000 of them are
/// pending at any time.
struct NearAndFar;

impl Simulation for NearAndFar {
    type Event = u32;

    fn handle(&mut self, _now: Cycles, ev: u32, queue: &mut EventQueue<u32>) {
        if ev.is_multiple_of(2) {
            queue.schedule_after(Cycles(7), ev.wrapping_add(2));
            if ev.is_multiple_of(8) {
                queue.schedule_after(Cycles(10_000), ev.wrapping_add(1));
            }
            if ev.is_multiple_of(32) {
                queue.schedule_after(Cycles(100_000), ev.wrapping_add(3));
            }
            if ev.is_multiple_of(128) {
                queue.schedule_after(Cycles(300_000), ev.wrapping_add(5));
            }
        }
    }
}

/// What one steady-state window did: allocations, events, the peak backlog
/// and the queue's work counters over the window.
struct SteadyState {
    allocations: u64,
    events: u64,
    peak: usize,
    counters: QueueCounters,
}

/// Run `sim` from one seed event through a warm-up that reaches its
/// deepest backlog (the farthest leaf is 300,000 cycles out), then count
/// allocations over a long steady-state window.
fn steady_state_allocations<S: Simulation<Event = u32>>(mut sim: S) -> SteadyState {
    let mut eng: Engine<S> = Engine::new();
    eng.queue_mut().schedule_at(Cycles::ZERO, 0);
    eng.run_until(&mut sim, Cycles(400_000));
    let before = (ALLOCATIONS.with(Cell::get), eng.queue_counters());
    let events = eng.run_until(&mut sim, Cycles(1_400_000));
    let after = (ALLOCATIONS.with(Cell::get), eng.queue_counters());
    assert!(events > 100_000, "expected a long steady-state run");
    SteadyState {
        allocations: after.0 - before.0,
        events,
        peak: eng.peak_queue_depth(),
        counters: QueueCounters {
            coarse_schedules: after.1.coarse_schedules - before.1.coarse_schedules,
            overflow_schedules: after.1.overflow_schedules - before.1.overflow_schedules,
            bucket_moves: after.1.bucket_moves - before.1.bucket_moves,
        },
    }
}

#[test]
fn disabled_tracer_event_loop_allocates_nothing() {
    let SteadyState {
        allocations,
        events,
        ..
    } = steady_state_allocations(PingPong);
    assert_eq!(
        allocations, 0,
        "steady-state event loop allocated {allocations} times over {events} events"
    );
}

#[test]
fn far_future_heap_and_its_move_into_the_wheel_allocate_nothing() {
    let SteadyState {
        allocations,
        events,
        peak,
        counters,
    } = steady_state_allocations(NearAndFar);
    assert!(
        peak > 1_500,
        "expected thousands of far events pending, got {peak}"
    );
    // The window crosses coarse buckets and the overflow heap.
    assert!(counters.coarse_schedules > 10_000, "{counters:?}");
    assert!(counters.overflow_schedules > 1_000, "{counters:?}");
    assert!(counters.bucket_moves > 10_000, "{counters:?}");
    assert_eq!(
        allocations, 0,
        "near+far event loop allocated {allocations} times over {events} events"
    );
}

/// Bytes of one default (64 KB, 4-way) cache's tag array: a word per way.
fn tag_array_bytes() -> u64 {
    let config = CacheConfig::default();
    config.sets() * config.ways as u64 * 8
}

#[test]
fn a_coherence_system_owns_no_cache_storage_until_it_misses() {
    const PROCESSORS: u32 = 128;
    let (_system, allocations, bytes) = allocations_in(|| {
        CoherenceSystem::new(
            PROCESSORS,
            CacheConfig::default(),
            CoherenceCosts::default(),
        )
    });
    assert!(
        allocations < u64::from(PROCESSORS),
        "building {PROCESSORS} processors' caches allocated {allocations} times"
    );
    assert!(
        bytes < tag_array_bytes(),
        "building {PROCESSORS} processors' caches allocated {bytes} B, \
         more than one cache's {} B of tags",
        tag_array_bytes()
    );
}

/// Bytes of the first `sets` sets of a default cache's tag array.
fn tag_bytes(sets: u64) -> u64 {
    sets * CacheConfig::default().ways as u64 * 8
}

#[test]
fn a_cache_grows_its_tags_to_each_filled_sets_power_of_two_then_never() {
    let (mut cache, allocations, _) = allocations_in(|| Cache::new(CacheConfig::default()));
    assert_eq!(allocations, 0, "Cache::new allocated");

    let ((), allocations, _) = allocations_in(|| {
        assert_eq!(cache.hit_read(7), None);
        assert_eq!(cache.hit_write(7), None);
        assert_eq!(cache.invalidate(7), None);
        cache.set_state(7, LineState::Modified);
    });
    assert_eq!(allocations, 0, "accesses to an empty cache allocated");

    // Each fill past the covered sets grows the array once, to the next
    // power of two of sets holding the filled one; a fill within them and
    // every access to them allocate nothing. The cache has 1,024 sets.
    let fills = [
        (7, 1, tag_bytes(8)),
        (3, 0, 0),
        (8, 1, tag_bytes(16)),
        (4096 + 1023, 1, tag_array_bytes()),
        (700, 0, 0),
    ];
    for (line, grows, bytes_after) in fills {
        let (evicted, allocations, bytes) = allocations_in(|| cache.fill(line, LineState::Shared));
        assert_eq!(evicted, None);
        assert_eq!(
            (allocations, bytes),
            (grows, bytes_after),
            "the fill of line {line} grew the tags wrongly"
        );
        let ((), allocations, _) = allocations_in(|| {
            assert_eq!(cache.hit_read(line), Some(LineState::Shared));
            cache.hit_read(line + 1);
        });
        assert_eq!(allocations, 0, "a hit allocated");
    }

    // Many times the cache's capacity, so every set fills, evicts, upgrades,
    // downgrades and loses lines to invalidation.
    let ((), allocations, _) = allocations_in(|| {
        for group in 0..50_000u64 {
            let line = group.wrapping_mul(0x9e37_79b9) % 40_000;
            cache.fill(line, LineState::Shared);
            if cache.hit_write(line) != Some(LineState::Modified) {
                cache.fill(line, LineState::Modified);
            }
            if group % 2 == 0 {
                cache.set_state(line, LineState::Shared);
            }
            if group % 3 == 0 {
                cache.invalidate(line);
            }
            cache.hit_read(line ^ 1);
        }
    });
    assert_eq!(allocations, 0, "a filled cache allocated again");
    assert!(cache.stats().writebacks > 0 && cache.stats().invalidations_received > 0);
}

/// The first line of the last page that starts below 2^20 lines into its
/// home. A line this far in cost the dense directory, a 32-byte entry for
/// every line up to it, 33.5 MB.
const FAR_LINE: u64 = (1 << 20) / PAGE_LINES * PAGE_LINES;

/// Directory entries per page.
const PAGE_LINES: u64 = 85;
/// Bytes of a page: 85 entries of 12 bytes.
const PAGE_BYTES: u64 = 1020;
/// Bytes of a page's side array: the P64–P127 sharer words of its lines.
const SIDE_ARRAY_BYTES: u64 = 680;
/// Bytes of a page's time array: bits 31–62 of its lines' occupancy times.
const TIME_ARRAY_BYTES: u64 = 340;
/// Bytes of a page-table slot: the page and two side-array pointers.
const SLOT_BYTES: u64 = 24;

/// A coherence system of `processors` whose caches at `warm` have made
/// their first fill on a line of the last home that maps to the last set,
/// which allocates their whole tag arrays, so that only the directory
/// allocates from then on.
fn warmed(processors: u32, warm: &[u32]) -> (CoherenceSystem, Network) {
    let mut sys = CoherenceSystem::new(
        processors,
        CacheConfig::default(),
        CoherenceCosts::default(),
    );
    let mut net = Network::new(processors);
    let config = CacheConfig::default();
    let last_set = (config.sets() - 1) * config.line_bytes;
    for &p in warm {
        sys.access(
            ProcId(p),
            make_addr(ProcId(processors - 1), last_set),
            Access::Read,
            &mut net,
            Cycles::ZERO,
        );
    }
    (sys, net)
}

/// The address of line `line` past [`FAR_LINE`] in P0's memory.
fn far(line: u64) -> u64 {
    make_addr(
        ProcId(0),
        (FAR_LINE + line) * CacheConfig::default().line_bytes,
    )
}

#[test]
fn a_far_miss_allocates_one_directory_page_and_misses_within_it_nothing() {
    // 64 processors, the most whose sharers fit the entries alone.
    let (mut sys, mut net) = warmed(64, &[1, 63]);
    let (out, allocations, bytes) =
        allocations_in(|| sys.access(ProcId(1), far(0), Access::Write, &mut net, Cycles(100)));
    assert!(!out.hit);
    let table_bytes = (FAR_LINE / PAGE_LINES + 1) * SLOT_BYTES;
    assert_eq!(
        (allocations, bytes),
        (2, PAGE_BYTES + table_bytes),
        "a miss {FAR_LINE} lines into a home must allocate one {PAGE_BYTES} B page, \
         {table_bytes} B of page table and no side array"
    );

    // The two requesters take the page's lines from each other, so every
    // write misses and moves ownership; every fourth access is a read.
    let before = sys.stats().read_misses + sys.stats().write_misses;
    let ((), allocations, _) = allocations_in(|| {
        for i in 0..10_000u64 {
            let proc = ProcId(if i % 2 == 0 { 1 } else { 63 });
            let kind = if i % 4 == 3 {
                Access::Read
            } else {
                Access::Write
            };
            let line = (i / 2 * 7) % PAGE_LINES;
            sys.access(proc, far(line), kind, &mut net, Cycles(200 + i));
        }
    });
    let misses = sys.stats().read_misses + sys.stats().write_misses - before;
    assert!(
        misses >= 9_000,
        "expected nearly every access to miss, got {misses}"
    );
    assert_eq!(allocations, 0, "{misses} misses within one page allocated");
    sys.check_invariants().unwrap();
}

#[test]
fn the_first_sharer_above_p63_on_a_page_allocates_its_side_array_and_later_ones_nothing() {
    let high = [64, 65, 100, 127];
    let (mut sys, mut net) = warmed(128, &[1, 64, 65, 100, 127]);
    sys.access(ProcId(1), far(0), Access::Write, &mut net, Cycles(100));

    let (out, allocations, bytes) =
        allocations_in(|| sys.access(ProcId(64), far(0), Access::Read, &mut net, Cycles(200)));
    assert!(!out.hit);
    assert_eq!(
        (allocations, bytes),
        (1, SIDE_ARRAY_BYTES),
        "P64 joining a page's first sharer set above P63 must allocate its side array"
    );

    // High and low processors take the page's lines from each other: high
    // sharers join and leave every line, and nothing allocates.
    let ((), allocations, _) = allocations_in(|| {
        for i in 0..10_000u64 {
            let proc = if i % 2 == 0 {
                ProcId(1)
            } else {
                ProcId(high[(i / 2) as usize % high.len()])
            };
            let kind = if i % 4 == 3 {
                Access::Read
            } else {
                Access::Write
            };
            let line = (i / 2 * 7) % PAGE_LINES;
            sys.access(proc, far(line), kind, &mut net, Cycles(300 + i));
        }
    });
    assert_eq!(allocations, 0, "sharers above P63 allocated again");
    sys.check_invariants().unwrap();
}

/// The first cycle past the directory's 31 stored low time bits.
const TIME_2_31: u64 = 1 << 31;

#[test]
fn the_first_occupancy_past_2_31_on_a_page_allocates_its_time_array_and_later_ones_nothing() {
    let (mut sys, mut net) = warmed(64, &[1, 63]);
    sys.access(ProcId(1), far(0), Access::Write, &mut net, Cycles(100));

    // A miss issued just before 2^31 whose occupancy ends after it.
    let (out, allocations, bytes) = allocations_in(|| {
        sys.access(
            ProcId(63),
            far(1),
            Access::Write,
            &mut net,
            Cycles(TIME_2_31 - 1),
        )
    });
    assert!(!out.hit);
    assert_eq!(
        (allocations, bytes),
        (1, TIME_ARRAY_BYTES),
        "a page's first occupancy past 2^31 must allocate its time array"
    );
    assert_eq!(sys.allocations().time_arrays, 1);

    // The two requesters take the page's lines from each other, every
    // line is occupied past 2^31 and then past 2^32, and nothing allocates.
    let ((), allocations, _) = allocations_in(|| {
        for i in 0..10_000u64 {
            let proc = ProcId(if i % 2 == 0 { 1 } else { 63 });
            let kind = if i % 4 == 3 {
                Access::Read
            } else {
                Access::Write
            };
            let line = (i / 2 * 7) % PAGE_LINES;
            let at = TIME_2_31 + (i % 5_000) * (TIME_2_31 / 2_000);
            sys.access(proc, far(line), kind, &mut net, Cycles(at));
        }
    });
    assert_eq!(allocations, 0, "occupancy past 2^31 allocated again");
    assert_eq!(sys.allocations().time_arrays, 1);
    sys.check_invariants().unwrap();
}
