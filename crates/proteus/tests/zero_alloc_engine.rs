//! With no tracer attached, the steady-state event loop makes zero heap
//! allocations per event: the queue reuses slab nodes from its free list,
//! its far-future heap keeps its capacity, and the lazy `emit_with` closure
//! never runs. Verified with a counting global allocator rather than
//! inspection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proteus::{Cycles, Engine, EventQueue, Simulation};

thread_local! {
    // Per thread, so the tests in this file can run side by side without
    // seeing each other's allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator; the counter is a
// const-initialised thread-local `Cell` (no destructor, never allocates).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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
/// (in the wheel), where every fourth link also schedules an odd leaf event
/// 10 000 cycles out (past the wheel's 4096-cycle window, into the heap).
/// Leaves move from the heap into the wheel as the clock reaches them and
/// schedule nothing, so about 360 of them are pending at any time.
struct NearAndFar;

impl Simulation for NearAndFar {
    type Event = u32;

    fn handle(&mut self, _now: Cycles, ev: u32, queue: &mut EventQueue<u32>) {
        if ev.is_multiple_of(2) {
            queue.schedule_after(Cycles(7), ev.wrapping_add(2));
            if ev.is_multiple_of(8) {
                queue.schedule_after(Cycles(10_000), ev.wrapping_add(1));
            }
        }
    }
}

/// Run `sim` from one seed event through a warm-up that reaches its
/// deepest backlog, then count allocations over a long steady-state window.
/// Returns the allocations, the events in the window and the peak backlog.
fn steady_state_allocations<S: Simulation<Event = u32>>(mut sim: S) -> (u64, u64, usize) {
    let mut eng: Engine<S> = Engine::new();
    eng.queue_mut().schedule_at(Cycles::ZERO, 0);
    eng.run_until(&mut sim, Cycles(100_000));
    let before = ALLOCATIONS.with(Cell::get);
    let out = eng.run_until(&mut sim, Cycles(1_000_000));
    let after = ALLOCATIONS.with(Cell::get);
    assert!(out.events > 100_000, "expected a long steady-state run");
    (after - before, out.events, eng.peak_queue_depth())
}

#[test]
fn disabled_tracer_event_loop_allocates_nothing() {
    let (allocations, events, _) = steady_state_allocations(PingPong);
    assert_eq!(
        allocations, 0,
        "steady-state event loop allocated {allocations} times over {events} events"
    );
}

#[test]
fn far_future_heap_and_its_move_into_the_wheel_allocate_nothing() {
    let (allocations, events, peak) = steady_state_allocations(NearAndFar);
    assert!(
        peak > 300,
        "expected hundreds of far events pending, got {peak}"
    );
    assert_eq!(
        allocations, 0,
        "near+far event loop allocated {allocations} times over {events} events"
    );
}
