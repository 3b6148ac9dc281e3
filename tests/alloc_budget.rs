//! Heap allocations on the method-invoke path, counted exactly.
//!
//! A counting global allocator (per thread, so tests running side by side
//! do not see each other's allocations) checks, after a warm-up, that:
//!
//! * a `Behavior::invoke` with at most four argument and result words makes
//!   no heap allocation at all, through the shared-memory path and through
//!   the message-passing (RPC) path — the steady-state loop of a thread
//!   that does nothing but invoke allocates zero times;
//! * whole application runs under shared memory, a fault-free
//!   computation-migration run, and one whose every remote message rides
//!   the recovery protocol's sequence-numbered envelopes under chaos
//!   faults, stay within a pinned budget of allocations per completed
//!   operation, far below one: operations themselves allocate nothing;
//! * a shared-memory B-tree run stays within a pinned peak of live heap
//!   bytes, which gates the coherence directory's layout, the B-tree's
//!   fixed node blocks and the object table's entries and growth;
//! * a shared-memory counting run of 104 requesters stays within a pinned
//!   peak, which gates tag arrays that cover only the sets filled;
//! * two shared-memory counting runs allocate an exact number of directory
//!   pages, P64–P127 sharer side arrays and high-time side arrays, as the
//!   directory counts them;
//! * a shared-memory B-tree run whose paths outgrow their inline words
//!   makes an exact number of allocations, one path spill per operation
//!   box;
//! * the JSON value of a table's rows holds little more than its text.
//!
//! The counts are deterministic: they depend on the code path, not on the
//! host, so the budgets are exact gates on regressions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bench::{rows_to_json, Row};
use migrate_apps::btree::BTreeExperiment;
use migrate_apps::counting::CountingExperiment;
use migrate_rt::{
    Annotation, Behavior, Frame, Goid, Invoke, MachineConfig, MethodEnv, MethodId, Runner, Scheme,
    StepCtx, StepResult, Word, WordVec,
};
use proteus::{Cycles, DirectoryAllocations, FaultPlan, ProcId};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread allocated less those it freed (negative if it
    // frees another thread's memory), and their high-water mark.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Move this thread's live bytes by `delta`, raising the peak if needed.
fn live_moved(delta: i64) {
    let live = LIVE.with(|n| {
        n.set(n.get() + delta);
        n.get()
    });
    PEAK.with(|n| n.set(n.get().max(live)));
}

// SAFETY: pure pass-through to the system allocator; the counters are
// const-initialised thread-local `Cell`s (no destructor, never allocate).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        live_moved(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_moved(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        live_moved(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the current thread while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// An object whose one method takes two words and returns four: touches
/// two lines under its lock, like a small balancer.
struct Quad {
    value: Word,
}

impl Behavior for Quad {
    fn invoke(&mut self, _m: MethodId, args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
        env.lock();
        env.read(8, 24);
        env.compute(Cycles(40));
        self.value += args[0] + args[1];
        env.write(8, 8);
        env.unlock();
        [self.value, args[0], args[1], 7].into()
    }
    fn size_bytes(&self) -> u64 {
        32
    }
}

/// A thread that invokes its target forever.
struct Invoker {
    target: Goid,
    round: Word,
}

impl Frame for Invoker {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        self.round += 1;
        StepResult::Invoke(Invoke::new(
            self.target,
            MethodId(0),
            [self.round, 2],
            Annotation::Rpc,
        ))
    }
    fn on_result(&mut self, results: &[Word]) {
        assert_eq!(results.len(), 4);
        assert_eq!(results[1], self.round);
    }
    fn live_words(&self) -> u64 {
        2
    }
}

/// Allocations over a steady-state window of threads on P0 and P2 invoking
/// an object homed on P1, after a warm-up that sizes every buffer (the event
/// queue's slab and heap included: they grow only to the deepest backlog).
fn steady_state_invoke_allocations(scheme: Scheme) -> u64 {
    let mut runner = Runner::new(MachineConfig::new(4, scheme));
    let target = runner
        .system
        .create_object(Box::new(Quad { value: 0 }), ProcId(1), false);
    for p in [0, 2] {
        runner.spawn(ProcId(p), Box::new(Invoker { target, round: 0 }));
    }
    runner.run_until(Cycles(200_000));
    let value = |r: &Runner| r.system.objects().state::<Quad>(target).map(|q| q.value);
    let before = value(&runner);
    let ((), allocations) = allocations_during(|| runner.run_until(Cycles(2_000_000)));
    assert!(value(&runner) > before, "the window must run invocations");
    allocations
}

#[test]
fn shared_memory_invoke_allocates_nothing() {
    assert_eq!(
        steady_state_invoke_allocations(Scheme::shared_memory()),
        0,
        "a <=4-word invoke through the shared-memory path allocated"
    );
}

#[test]
fn rpc_invoke_allocates_nothing() {
    assert_eq!(
        steady_state_invoke_allocations(Scheme::rpc()),
        0,
        "a <=4-word invoke through the message-passing path allocated"
    );
}

/// Allocations per completed operation over a measured window that follows
/// the paper's warm-up, metrics extraction included.
fn allocations_per_op(mut runner: Runner, warmup: Cycles, window: Cycles) -> f64 {
    runner.run_until(warmup);
    let (metrics, allocations) = allocations_during(|| runner.run(Cycles::ZERO, window));
    assert!(metrics.ops > 1000, "window too short: {} ops", metrics.ops);
    allocations as f64 / metrics.ops as f64
}

#[test]
fn counting_network_sm_allocation_budget() {
    let (runner, _spec) = CountingExperiment::paper(16, 0, Scheme::shared_memory()).build();
    let per_op = allocations_per_op(runner, Cycles(200_000), Cycles(2_000_000));
    assert!(
        per_op <= COUNTING_SM_BUDGET,
        "counting-16 SM: {per_op:.3} allocations per op, budget {COUNTING_SM_BUDGET}"
    );
}

#[test]
fn btree_sm_allocation_budget() {
    let (runner, _root) = BTreeExperiment::paper(0, Scheme::shared_memory()).build();
    let per_op = allocations_per_op(runner, Cycles(200_000), Cycles(2_000_000));
    assert!(
        per_op <= BTREE_SM_BUDGET,
        "btree SM: {per_op:.3} allocations per op, budget {BTREE_SM_BUDGET}"
    );
}

/// Counting network, 16 requesters, CP without faults: every traversal
/// migrates off its requester and its frame comes home by the
/// short-circuited `OperationReturn`, the path no SM run takes.
#[test]
fn counting_network_cp_allocation_budget() {
    let exp = CountingExperiment::paper(16, 0, Scheme::computation_migration());
    let (runner, _spec) = exp.build();
    let per_op = allocations_per_op(runner, Cycles(200_000), Cycles(2_000_000));
    assert!(
        per_op <= COUNTING_CP_BUDGET,
        "counting-16 CP: {per_op:.4} allocations per op, budget {COUNTING_CP_BUDGET}"
    );
}

/// The highest live heap of the current thread while running `f`, in bytes
/// above what was live when it started.
fn peak_heap_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|n| n.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as u64)
}

/// B-tree, fanout 10, think 0, SM: the cell whose coherence directory
/// grows the most, run for 2 M cycles after its build. The peak counts the
/// directory pages and page tables its misses allocate, the caches' tag
/// arrays, and the nodes that splits add (a 48-byte header and one block
/// each) with their object-table slots.
#[test]
fn btree_fanout10_sm_peak_heap_budget() {
    let exp = BTreeExperiment {
        fanout: 10,
        ..BTreeExperiment::paper(0, Scheme::shared_memory())
    };
    let (mut runner, _root) = exp.build();
    let (metrics, peak) = peak_heap_during(|| runner.run(Cycles::ZERO, Cycles(2_000_000)));
    assert!(metrics.ops > 1000, "window too short: {} ops", metrics.ops);
    assert!(
        peak <= BTREE_FANOUT10_SM_PEAK_BYTES,
        "btree fanout-10 SM: peak heap {peak} B above the built machine, \
         budget {BTREE_FANOUT10_SM_PEAK_BYTES} B"
    );
}

/// B-tree, fanout 10, think 0, SM, 10 M cycles after its build: the tree
/// grows from five levels to six, so descents to its leaves pass five
/// ancestors, one past a path's inline words. Each requester's operation
/// box spills its path once and every later operation in that box reuses
/// the buffer; the rest are the directory pages and the nodes that splits
/// add.
#[test]
fn btree_fanout10_sm_allocations_are_exact() {
    let exp = BTreeExperiment {
        fanout: 10,
        ..BTreeExperiment::paper(0, Scheme::shared_memory())
    };
    let (mut runner, _root) = exp.build();
    let (metrics, allocations) =
        allocations_during(|| runner.run(Cycles::ZERO, Cycles(10_000_000)));
    assert_eq!(metrics.ops, 87_733, "a different run");
    assert_eq!(
        allocations, BTREE_FANOUT10_SM_ALLOCATIONS,
        "btree fanout-10 SM: allocations in 10 M cycles"
    );
}

/// Counting network, 104 requesters (128 processors), SM: the cell whose
/// caches hold the fewest distinct sets, run for 2 M cycles after its
/// build. Every requester's cache makes its first fills here, on the few
/// low sets the 24 balancers' lines map to, so the peak counts their tag
/// arrays, the directory's pages and side arrays, and the run's own
/// buffers.
#[test]
fn counting104_sm_peak_heap_budget() {
    let (mut runner, _spec) = CountingExperiment::paper(104, 0, Scheme::shared_memory()).build();
    let (metrics, peak) = peak_heap_during(|| runner.run(Cycles::ZERO, Cycles(2_000_000)));
    assert!(metrics.ops > 1000, "window too short: {} ops", metrics.ops);
    assert!(
        peak <= COUNTING104_SM_PEAK_BYTES,
        "counting-104 SM: peak heap {peak} B above the built machine, \
         budget {COUNTING104_SM_PEAK_BYTES} B"
    );
}

/// The rows of one Figure 2 point, from short counting-16 runs under the
/// five schemes: the JSON value `rows_to_json` returns holds each run's
/// metrics as rendered text, so it takes little more than the text it
/// renders to. A tree of keyed nodes took about four times the text.
#[test]
fn rendered_metrics_take_little_more_than_their_text() {
    let rows: Vec<Row> = Scheme::figure2_rows()
        .into_iter()
        .map(|scheme| {
            let (mut runner, _spec) = CountingExperiment::paper(16, 0, scheme).build();
            Row {
                label: scheme.label(),
                metrics: runner.run(Cycles(20_000), Cycles(100_000)),
            }
        })
        .collect();
    let before = LIVE.with(Cell::get);
    let json = rows_to_json(&rows);
    let held = (LIVE.with(Cell::get) - before) as usize;
    let text = json.render().len();
    let budget = text + RENDERED_ROW_OVERHEAD_BYTES * rows.len();
    assert!(
        held <= budget,
        "{} rows hold {held} B for {text} B of text, budget {budget} B",
        rows.len()
    );
}

/// Counting network, 16 requesters, CP under `FaultPlan::chaos`: every
/// remote message is a buffered envelope that is acked, retried or
/// deduplicated, so the transport's bookkeeping runs several times per op.
#[test]
fn counting_network_chaos_envelope_allocation_budget() {
    let exp = CountingExperiment {
        faults: Some(FaultPlan::chaos(0)),
        ..CountingExperiment::paper(16, 0, Scheme::computation_migration())
    };
    let (runner, _spec) = exp.build();
    let per_op = allocations_per_op(runner, Cycles(200_000), Cycles(8_000_000));
    assert!(
        per_op <= COUNTING_CHAOS_BUDGET,
        "counting-16 CP under chaos: {per_op:.4} allocations per op, \
         budget {COUNTING_CHAOS_BUDGET}"
    );
}

/// The coherence directory's own allocation counters over the first 1 M
/// cycles of a counting-network SM run. At 104 requesters (128 processors)
/// requesters above P63 join sharer sets, so every one of the 24 balancer
/// homes' pages gains a side array; at 16 requesters (40 processors) no
/// page ever does. Neither run reaches 2^31 cycles, so no page needs a
/// high-time side array.
#[test]
fn sm_directory_allocations_are_exact() {
    let allocations = |requesters: u32| {
        let exp = CountingExperiment::paper(requesters, 0, Scheme::shared_memory());
        let (mut runner, _spec) = exp.build();
        let (metrics, profile) = runner.run_profiled(Cycles::ZERO, Cycles(1_000_000));
        assert!(metrics.ops > 1000, "window too short: {} ops", metrics.ops);
        profile.directory
    };
    assert_eq!(
        allocations(104),
        DirectoryAllocations {
            pages: 24,
            side_arrays: 24,
            time_arrays: 0,
        }
    );
    assert_eq!(
        allocations(16),
        DirectoryAllocations {
            pages: 24,
            side_arrays: 0,
            time_arrays: 0,
        }
    );
}

/// Counting network, 16 requesters, SM: measured 0.00033 allocations per
/// op, 4 in a window of 12,103 ops (was 9.05 when method results were heap
/// vectors, 1.048 when every event-wheel slot grew its own buffer on first
/// use, 1.00033 while each token's traversal frame was a fresh box). No
/// operation allocates: each driver writes its next traversal into the box
/// of its last one.
const COUNTING_SM_BUDGET: f64 = 0.001;

/// Counting network, 16 requesters, CP, no faults: measured 0.00102
/// allocations per op, 6 in a window of 5,884 ops (1.00102 while each
/// traversal frame was a fresh box). The frame comes back to its driver
/// when the migrated traversal returns, before its value reaches home.
const COUNTING_CP_BUDGET: f64 = 0.002;

/// B-tree, think 0, SM: measured 0.00671 allocations per op, 51 in a window
/// of 7,602 ops (was 10.75, then 2.755 with per-slot wheel buffers, 2.497
/// while every cache set was its own vector that grew on first use, 2.0088
/// while each operation grew a heap vector for its ancestor path, 1.01158
/// while each operation frame was a fresh box, 0.00987 while each node's
/// key and child vectors regrew as inserts filled them). What remains is
/// the directory pages and the B-tree nodes that splits add, two
/// allocations each: the node and its fixed block.
const BTREE_SM_BUDGET: f64 = 0.007;

/// Counting network, 16 requesters, CP under chaos, 8 M-cycle window
/// (chaos completes about a quarter of the fault-free ops): measured
/// 0.00291 allocations per op, 17 in a window of 5,838 ops (was 3.082 when
/// every ack rebuilt the dedup set with `split_off` and the buffer was a
/// B-tree, 1.280 with per-slot wheel buffers, 1.00291 while each traversal
/// frame was a fresh box). Envelopes, acks, retries and dedup allocate
/// nothing per operation either.
const COUNTING_CHAOS_BUDGET: f64 = 0.004;

/// B-tree, fanout 10, think 0, SM, 2 M cycles: 1% headroom over the
/// 1,259,648 B of peak live heap above the built machine measured when the
/// budget was set, with 12-byte directory entries on 85-line pages of
/// 1,020 B, each B-tree node a 48-byte header and one fixed block, tag
/// arrays that cover only the sets filled and 40-byte object-table entries
/// in a table that grows by an eighth. It was 1,416,288 B (budget
/// 1,430,063 B) while each node was a 96-byte header with key and child
/// vectors that doubled and each entry took 48 bytes, 1,607,624 B with
/// 16-byte directory entries on 64-line pages of 1 KB and an object table
/// that doubled, and 1,927,872 B while each directory entry took 24 bytes,
/// on 1.5 KB pages.
const BTREE_FANOUT10_SM_PEAK_BYTES: u64 = 1_272_244;

/// Counting network, 104 requesters, SM, 2 M cycles: 1% headroom over the
/// 127,704 B of peak live heap above the built machine measured when the
/// budget was set, with tag arrays that cover only the sets filled. It was
/// 3,522,264 B while each cache's first fill allocated all 1,024 sets, 32 KB,
/// of which the network's lines use a few low ones.
const COUNTING104_SM_PEAK_BYTES: u64 = 128_981;

/// B-tree, fanout 10, think 0, SM, 10 M cycles: measured exactly. It was
/// 65,575 while each operation started with an empty inline path, so every
/// descent through five ancestors spilled a fresh heap buffer (50,278 of
/// them in 87,733 operations); now each of the 16 requesters' boxes spills
/// once.
const BTREE_FANOUT10_SM_ALLOCATIONS: u64 = 15_313;

/// Bytes a row of `rows_to_json` may hold beyond its rendered text: its
/// array slot, its two-field object with their keys and its label. Five
/// counting-16 rows measured 23,787 B held for 23,128 B of text (91,268 B
/// while each run's metrics were a tree of keyed nodes).
const RENDERED_ROW_OVERHEAD_BYTES: usize = 256;
