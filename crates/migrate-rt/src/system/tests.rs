use super::*;
use crate::cost::Category;
use crate::frame::{Invoke, StepCtx, StepResult};
use crate::mechanism::{Annotation, DispatchKind};
use crate::object::MethodEnv;
use crate::types::{MethodId, Word, WordVec};

/// A cell object: lock, read state, compute, bump, write state, unlock.
/// The state spans several cache lines, like a balancer or B-tree node.
struct Cell {
    value: Word,
    compute: u64,
}

impl Behavior for Cell {
    fn invoke(&mut self, _m: MethodId, _args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
        env.lock();
        env.read(8, 56);
        env.compute(Cycles(self.compute));
        self.value += 1;
        env.write(8, 24);
        env.unlock();
        [self.value].into()
    }
    fn size_bytes(&self) -> u64 {
        64
    }
}

/// A read-only probe method on a cell-like object.
struct ReadCell {
    value: Word,
}

impl Behavior for ReadCell {
    fn invoke(&mut self, m: MethodId, _args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
        match m {
            MethodId(0) => {
                env.read(8, 8);
                env.compute(Cycles(30));
                [self.value].into()
            }
            _ => {
                env.compute(Cycles(30));
                self.value += 1;
                env.write(8, 8);
                [self.value].into()
            }
        }
    }
    fn size_bytes(&self) -> u64 {
        16
    }
}

/// The §2.5 access pattern: `repeats` consecutive accesses to each of
/// the targets in order.
struct ChainOp {
    targets: Vec<Goid>,
    annotation: Annotation,
    repeats: u32,
    idx: usize,
    done_on_current: u32,
    acc: Word,
}

impl ChainOp {
    fn new(targets: Vec<Goid>, annotation: Annotation, repeats: u32) -> ChainOp {
        ChainOp {
            targets,
            annotation,
            repeats,
            idx: 0,
            done_on_current: 0,
            acc: 0,
        }
    }
}

impl Frame for ChainOp {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.idx >= self.targets.len() {
            return StepResult::Return([self.acc].into());
        }
        let target = self.targets[self.idx];
        StepResult::Invoke(Invoke::new(target, MethodId(0), [], self.annotation))
    }
    fn on_result(&mut self, results: &[Word]) {
        self.acc += results[0];
        self.done_on_current += 1;
        if self.done_on_current >= self.repeats {
            self.done_on_current = 0;
            self.idx += 1;
        }
    }
    fn live_words(&self) -> u64 {
        4 + self.targets.len() as u64
    }
    fn is_operation(&self) -> bool {
        true
    }
    fn label(&self) -> &'static str {
        "chain-op"
    }
}

/// Driver: think, run a chain op, repeat `ops` times, halt.
struct TestDriver {
    targets: Vec<Goid>,
    annotation: Annotation,
    repeats: u32,
    think: Cycles,
    ops_remaining: u32,
    thinking: bool,
}

impl Frame for TestDriver {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.ops_remaining == 0 {
            return StepResult::Halt;
        }
        if !self.thinking {
            self.thinking = true;
            return StepResult::Sleep(self.think);
        }
        self.thinking = false;
        self.ops_remaining -= 1;
        StepResult::Call(Box::new(ChainOp::new(
            self.targets.clone(),
            self.annotation,
            self.repeats,
        )))
    }
    fn on_result(&mut self, _results: &[Word]) {}
    fn live_words(&self) -> u64 {
        4
    }
    fn label(&self) -> &'static str {
        "test-driver"
    }
}

fn build(
    scheme: Scheme,
    procs: u32,
    targets_on: &[u32],
    annotation: Annotation,
    repeats: u32,
    ops: u32,
) -> (Runner, Vec<Goid>) {
    let cfg = MachineConfig::new(procs, scheme);
    let mut runner = Runner::new(cfg);
    let targets: Vec<Goid> = targets_on
        .iter()
        .map(|&p| {
            runner.system.create_object(
                Box::new(Cell {
                    value: 0,
                    compute: 100,
                }),
                ProcId(p),
                false,
            )
        })
        .collect();
    runner.spawn(
        ProcId(0),
        Box::new(TestDriver {
            targets: targets.clone(),
            annotation,
            repeats,
            think: Cycles::ZERO,
            ops_remaining: ops,
            thinking: false,
        }),
    );
    (runner, targets)
}

#[test]
fn local_invoke_sends_no_messages() {
    let (mut runner, _) = build(Scheme::rpc(), 2, &[0], Annotation::Rpc, 3, 1);
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 1);
    assert_eq!(m.messages, 0);
}

#[test]
fn rpc_round_trip_counts_messages() {
    // 1 op, 3 accesses to one remote object: 3 requests + 3 replies.
    let (mut runner, targets) = build(Scheme::rpc(), 2, &[1], Annotation::Rpc, 3, 1);
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 1);
    assert_eq!(m.migrations, 0);
    assert_eq!(m.message_kinds[&MessageKind::RpcRequest], 3);
    assert_eq!(m.message_kinds[&MessageKind::RpcReply], 3);
    assert_eq!(m.messages, 6);
    // The object was actually bumped three times.
    let cell = runner.system.objects().state::<Cell>(targets[0]).unwrap();
    assert_eq!(cell.value, 3);
}

#[test]
fn migration_makes_repeat_accesses_local() {
    // 1 op, 3 accesses to one remote object under CM: ONE migration, the
    // other two accesses are local, one short-circuited return.
    let (mut runner, targets) = build(
        Scheme::computation_migration(),
        2,
        &[1],
        Annotation::Migrate,
        3,
        1,
    );
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 1);
    assert_eq!(m.migrations, 1);
    assert_eq!(m.message_kinds[&MessageKind::Migration], 1);
    assert_eq!(m.message_kinds[&MessageKind::OperationReturn], 1);
    assert_eq!(m.messages, 2);
    let cell = runner.system.objects().state::<Cell>(targets[0]).unwrap();
    assert_eq!(cell.value, 3);
}

/// A chain op that counts its own drops.
struct DropCounted {
    op: ChainOp,
    drops: std::rc::Rc<std::cell::Cell<u32>>,
}

impl Drop for DropCounted {
    fn drop(&mut self) {
        self.drops.set(self.drops.get() + 1);
    }
}

impl Frame for DropCounted {
    fn step(&mut self, ctx: &StepCtx) -> StepResult {
        self.op.step(ctx)
    }
    fn on_result(&mut self, results: &[Word]) {
        self.op.on_result(results);
    }
    fn live_words(&self) -> u64 {
        self.op.live_words()
    }
    fn is_operation(&self) -> bool {
        self.op.is_operation()
    }
    fn label(&self) -> &'static str {
        self.op.label()
    }
}

/// Like `TestDriver` at zero think, spawning drop-counted ops and keeping
/// the default `recycle_child`: every op must be gone before the driver
/// steps again.
struct PlainDriver {
    targets: Vec<Goid>,
    annotation: Annotation,
    ops: u32,
    spawned: u32,
    drops: std::rc::Rc<std::cell::Cell<u32>>,
}

impl Frame for PlainDriver {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        assert_eq!(
            self.drops.get(),
            self.spawned,
            "a finished op outlived its return"
        );
        if self.spawned == self.ops {
            return StepResult::Halt;
        }
        self.spawned += 1;
        StepResult::Call(Box::new(DropCounted {
            op: ChainOp::new(self.targets.clone(), self.annotation, 3),
            drops: self.drops.clone(),
        }))
    }
    fn on_result(&mut self, _results: &[Word]) {}
    fn live_words(&self) -> u64 {
        4
    }
    fn label(&self) -> &'static str {
        "test-driver"
    }
}

#[test]
fn default_recycle_child_drops_the_finished_op() {
    // Locally returned (RPC) and short-circuited home from a migration
    // (CM), a finished op reaches a parent that keeps the default hook and
    // is dropped there; the run matches `TestDriver`'s.
    for (scheme, annotation) in [
        (Scheme::rpc(), Annotation::Rpc),
        (Scheme::computation_migration(), Annotation::Migrate),
    ] {
        let (mut runner, _) = build(scheme, 4, &[1, 2, 3], annotation, 3, 5);
        let expected = runner.run(Cycles::ZERO, Cycles(1_000_000));
        // The same machine, its `TestDriver` given no ops (it halts at once).
        let (mut runner, targets) = build(scheme, 4, &[1, 2, 3], annotation, 3, 0);
        let drops = std::rc::Rc::new(std::cell::Cell::new(0));
        let driver = PlainDriver {
            targets,
            annotation,
            ops: 5,
            spawned: 0,
            drops: drops.clone(),
        };
        runner.spawn(ProcId(0), Box::new(driver));
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(drops.get(), 5);
        assert_eq!(m.ops, 5);
        assert_eq!(
            (m.messages, m.migrations, m.mean_op_latency),
            (
                expected.messages,
                expected.migrations,
                expected.mean_op_latency
            ),
            "{scheme:?}"
        );
    }
}

/// A chain op that counts how often the runtime sizes it.
struct SizeCounted {
    op: ChainOp,
    sized: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Frame for SizeCounted {
    fn step(&mut self, ctx: &StepCtx) -> StepResult {
        self.op.step(ctx)
    }
    fn on_result(&mut self, results: &[Word]) {
        self.op.on_result(results);
    }
    fn live_words(&self) -> u64 {
        self.sized.set(self.sized.get() + 1);
        self.op.live_words()
    }
    fn is_operation(&self) -> bool {
        true
    }
}

/// A driver that runs one op and halts.
struct OneOp(Option<Box<dyn Frame>>);

impl Frame for OneOp {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        self.0.take().map_or(StepResult::Halt, StepResult::Call)
    }
    fn on_result(&mut self, _results: &[Word]) {}
    fn live_words(&self) -> u64 {
        4
    }
}

#[test]
fn a_migration_is_sized_once_at_send() {
    // The sender sizes the migrating frame once; the receive charge uses
    // the record every copy of the message carries.
    for faults in [None, Some(FaultPlan::disabled())] {
        let mut cfg = MachineConfig::new(4, Scheme::computation_migration());
        cfg.faults = faults;
        let mut runner = Runner::new(cfg);
        let targets = (1..4)
            .map(|p| {
                let cell = Cell {
                    value: 0,
                    compute: 100,
                };
                runner
                    .system
                    .create_object(Box::new(cell), ProcId(p), false)
            })
            .collect();
        let sized = std::rc::Rc::new(std::cell::Cell::new(0));
        let op = SizeCounted {
            op: ChainOp::new(targets, Annotation::Migrate, 1),
            sized: sized.clone(),
        };
        runner.spawn(ProcId(0), Box::new(OneOp(Some(Box::new(op)))));
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        assert_eq!(m.migrations, 3);
        assert_eq!(sized.get(), m.migrations, "{:?}", runner.system.cfg.faults);
    }
}

#[test]
fn an_event_stays_within_112_bytes() {
    // Every event is copied through the queue's tiers; a plain arrival
    // carries only its wire words beside the payload.
    assert!(std::mem::size_of::<Event>() <= 112);
}

#[test]
fn migration_chain_passes_linkage_and_short_circuits() {
    // Figure 1's pattern: m=3 items on 3 different processors, n=1: the
    // frame hops item to item (3 migrations) and returns directly home
    // (1 message), total 4 — versus 6 for RPC.
    let (mut runner, _) = build(
        Scheme::computation_migration(),
        4,
        &[1, 2, 3],
        Annotation::Migrate,
        1,
        1,
    );
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 1);
    assert_eq!(m.migrations, 3);
    assert_eq!(m.message_kinds[&MessageKind::OperationReturn], 1);
    assert_eq!(m.messages, 4);

    let (mut runner, _) = build(Scheme::rpc(), 4, &[1, 2, 3], Annotation::Rpc, 1, 1);
    let r = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(r.messages, 6);
}

#[test]
fn cm_scheme_with_rpc_annotation_behaves_like_rpc() {
    // The annotation is what moves; under the CM scheme an unannotated
    // call is still RPC.
    let (mut runner, _) = build(
        Scheme::computation_migration(),
        2,
        &[1],
        Annotation::Rpc,
        2,
        1,
    );
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.migrations, 0);
    assert_eq!(m.message_kinds[&MessageKind::RpcRequest], 2);
}

#[test]
fn rpc_scheme_ignores_migrate_annotation() {
    // Under the RPC scheme the Migrate annotation is inert (performance
    // portability: same program, different mapping).
    let (mut runner, _) = build(Scheme::rpc(), 2, &[1], Annotation::Migrate, 2, 1);
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.migrations, 0);
    assert_eq!(m.message_kinds[&MessageKind::RpcRequest], 2);
}

#[test]
fn shared_memory_caches_after_first_access() {
    let (mut runner, targets) = build(Scheme::shared_memory(), 2, &[1], Annotation::Rpc, 5, 1);
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 1);
    // No runtime messages at all — only coherence traffic.
    assert_eq!(m.message_kinds.len(), 0);
    assert!(m.messages > 0, "coherence protocol messages expected");
    assert!(m.cache_hit_rate > 0.0, "later accesses should hit");
    let cell = runner.system.objects().state::<Cell>(targets[0]).unwrap();
    assert_eq!(cell.value, 5);
}

#[test]
fn sm_write_sharing_generates_more_traffic_than_cm() {
    // Two threads write-sharing one object: the line ping-pongs under
    // SM; under CM each access is one migration message.
    let mk = |scheme| {
        let cfg = MachineConfig::new(3, scheme);
        let mut runner = Runner::new(cfg);
        let t = runner.system.create_object(
            Box::new(Cell {
                value: 0,
                compute: 100,
            }),
            ProcId(2),
            false,
        );
        for p in 0..2 {
            runner.spawn(
                ProcId(p),
                Box::new(TestDriver {
                    targets: vec![t],
                    annotation: Annotation::Migrate,
                    repeats: 1,
                    think: Cycles::ZERO,
                    ops_remaining: 50,
                    thinking: false,
                }),
            );
        }
        runner.run(Cycles::ZERO, Cycles(2_000_000))
    };
    let sm = mk(Scheme::shared_memory());
    let cm = mk(Scheme::computation_migration());
    assert_eq!(sm.ops, 100);
    assert_eq!(cm.ops, 100);
    assert!(
        sm.bandwidth_words_per_10 > cm.bandwidth_words_per_10,
        "SM {} vs CM {}",
        sm.bandwidth_words_per_10,
        cm.bandwidth_words_per_10
    );
}

#[test]
fn sm_lock_contention_accounted() {
    let cfg = MachineConfig::new(3, Scheme::shared_memory());
    let mut runner = Runner::new(cfg);
    let t = runner.system.create_object(
        Box::new(Cell {
            value: 0,
            compute: 500,
        }),
        ProcId(2),
        false,
    );
    for p in 0..2 {
        runner.spawn(
            ProcId(p),
            Box::new(TestDriver {
                targets: vec![t],
                annotation: Annotation::Rpc,
                repeats: 1,
                think: Cycles::ZERO,
                ops_remaining: 100,
                thinking: false,
            }),
        );
    }
    let m = runner.run(Cycles::ZERO, Cycles(2_000_000));
    assert_eq!(m.ops, 200);
    assert!(
        m.accounting.total(Category::LockStall) > 0,
        "contending writers must stall on the object lock"
    );
}

#[test]
fn replication_serves_reads_locally() {
    // Replicated object, read-only invoke from a replica processor: no
    // messages at all under CM w/repl.
    let mut cfg = MachineConfig::new(3, Scheme::computation_migration().with_replication());
    cfg.replica_procs = vec![ProcId(0), ProcId(1)];
    let mut runner = Runner::new(cfg);
    let t = runner
        .system
        .create_object(Box::new(ReadCell { value: 7 }), ProcId(2), true);
    struct ReadOp {
        target: Goid,
        done: bool,
    }
    impl Frame for ReadOp {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            if self.done {
                return StepResult::Return([].into());
            }
            self.done = true;
            StepResult::Invoke(
                Invoke::new(self.target, MethodId(0), [], Annotation::Migrate).reading(),
            )
        }
        fn on_result(&mut self, results: &[Word]) {
            assert_eq!(results, &[7]);
        }
        fn live_words(&self) -> u64 {
            2
        }
        fn is_operation(&self) -> bool {
            true
        }
    }
    struct OneShot {
        target: Goid,
        fired: bool,
    }
    impl Frame for OneShot {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            if self.fired {
                return StepResult::Halt;
            }
            self.fired = true;
            StepResult::Call(Box::new(ReadOp {
                target: self.target,
                done: false,
            }))
        }
        fn on_result(&mut self, _r: &[Word]) {}
        fn live_words(&self) -> u64 {
            2
        }
    }
    runner.spawn(
        ProcId(0),
        Box::new(OneShot {
            target: t,
            fired: false,
        }),
    );
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 1);
    assert_eq!(m.messages, 0, "replica read must stay local");
}

#[test]
fn replicated_write_broadcasts_updates() {
    let mut cfg = MachineConfig::new(4, Scheme::rpc().with_replication());
    cfg.replica_procs = vec![ProcId(0), ProcId(1), ProcId(2)];
    let mut runner = Runner::new(cfg);
    // Replicated object homed at P3; a write from P0 must fan updates
    // out to the replicas.
    let t = runner
        .system
        .create_object(Box::new(ReadCell { value: 0 }), ProcId(3), true);
    struct WriteOnce {
        target: Goid,
        state: u8,
    }
    impl Frame for WriteOnce {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            match self.state {
                0 => {
                    self.state = 1;
                    StepResult::Invoke(Invoke::new(self.target, MethodId(1), [], Annotation::Rpc))
                }
                _ => StepResult::Halt,
            }
        }
        fn on_result(&mut self, _r: &[Word]) {}
        fn live_words(&self) -> u64 {
            2
        }
    }
    runner.spawn(
        ProcId(0),
        Box::new(WriteOnce {
            target: t,
            state: 0,
        }),
    );
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.message_kinds[&MessageKind::ReplicaUpdate], 3);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (mut runner, _) = build(
            Scheme::computation_migration(),
            4,
            &[1, 2, 3],
            Annotation::Migrate,
            2,
            10,
        );
        let m = runner.run(Cycles(10_000), Cycles(500_000));
        (m.ops, m.messages, m.message_words, m.migrations)
    };
    assert_eq!(run(), run());
}

#[test]
fn hw_support_improves_cm_throughput() {
    let go = |scheme| {
        let (mut runner, _) = build(scheme, 4, &[1, 2, 3], Annotation::Migrate, 1, 1000);
        runner
            .run(Cycles(10_000), Cycles(500_000))
            .throughput_per_1000
    };
    let sw = go(Scheme::computation_migration());
    let hw = go(Scheme::computation_migration().with_hardware());
    assert!(hw > sw, "hw {hw} should beat sw {sw}");
    // The paper estimates roughly a 20% improvement.
    assert!(hw / sw > 1.05 && hw / sw < 1.6, "ratio {}", hw / sw);
}

#[test]
fn migration_accounting_sums_to_total_charges() {
    let (mut runner, _) = build(
        Scheme::computation_migration(),
        2,
        &[1],
        Annotation::Migrate,
        1,
        20,
    );
    let m = runner.run(Cycles::ZERO, Cycles(500_000));
    assert!(m.migrations >= 19, "migrations {}", m.migrations);
    // Every Table 5 category for migrations is a subset of the global
    // accounting.
    for (k, v) in m.migration_accounting.totals() {
        assert!(
            m.accounting.total(k) >= v,
            "{k:?}: migration {v} > total {}",
            m.accounting.total(k)
        );
    }
    // Mean migration overhead lands in the paper's ballpark (~651
    // cycles total with ~150 user code).
    let per = m.migration_accounting.grand_total() as f64 / m.migrations as f64;
    assert!((450.0..900.0).contains(&per), "per-migration cycles {per}");
}

#[test]
fn think_time_reduces_throughput() {
    let go = |think: u64| {
        let cfg = MachineConfig::new(2, Scheme::rpc());
        let mut runner = Runner::new(cfg);
        let t = runner.system.create_object(
            Box::new(Cell {
                value: 0,
                compute: 100,
            }),
            ProcId(1),
            false,
        );
        runner.spawn(
            ProcId(0),
            Box::new(TestDriver {
                targets: vec![t],
                annotation: Annotation::Rpc,
                repeats: 1,
                think: Cycles(think),
                ops_remaining: u32::MAX,
                thinking: false,
            }),
        );
        runner
            .run(Cycles(10_000), Cycles(500_000))
            .throughput_per_1000
    };
    let fast = go(0);
    let slow = go(10_000);
    assert!(
        fast > 2.0 * slow,
        "think time must throttle: {fast} vs {slow}"
    );
}

// ------------------------------------------------------------------
// Extension mechanisms: object migration, thread migration, and
// multiple-activation migration (DESIGN.md §7)
// ------------------------------------------------------------------

#[test]
fn object_migration_pulls_object_and_goes_local() {
    // 3 accesses to one remote object under OM: one pull + one move,
    // then everything is local. The object's home follows the thread.
    let (mut runner, targets) = build(Scheme::object_migration(), 2, &[1], Annotation::Rpc, 3, 1);
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 1);
    assert_eq!(m.message_kinds[&MessageKind::ObjectPull], 1);
    assert_eq!(m.message_kinds[&MessageKind::ObjectMove], 1);
    assert_eq!(m.messages, 2);
    assert_eq!(runner.system.objects().home(targets[0]), ProcId(0));
    let cell = runner.system.objects().state::<Cell>(targets[0]).unwrap();
    assert_eq!(cell.value, 3, "all three accesses applied after the pull");
}

#[test]
fn object_migration_ping_pongs_between_writers() {
    // Two threads on different processors taking turns on the same
    // object (think time forces interleaving): it bounces back and
    // forth, everyone completes, nothing is lost.
    let cfg = MachineConfig::new(3, Scheme::object_migration());
    let mut runner = Runner::new(cfg);
    let t = runner.system.create_object(
        Box::new(Cell {
            value: 0,
            compute: 100,
        }),
        ProcId(2),
        false,
    );
    for p in 0..2 {
        runner.spawn(
            ProcId(p),
            Box::new(TestDriver {
                targets: vec![t],
                annotation: Annotation::Rpc,
                repeats: 1,
                think: Cycles(2_000),
                ops_remaining: 30,
                thinking: false,
            }),
        );
    }
    let m = runner.run(Cycles::ZERO, Cycles(5_000_000));
    assert_eq!(m.ops, 60);
    let moves = m.message_kinds[&MessageKind::ObjectMove];
    assert!(moves >= 20, "object must ping-pong: {moves} moves");
    // Pulls that arrive at a stale home are forwarded after the object
    // moved on.
    assert!(
        m.message_kinds[&MessageKind::ObjectPull] >= moves,
        "pulls chase the object"
    );
    let cell = runner.system.objects().state::<Cell>(t).unwrap();
    assert_eq!(cell.value, 60, "no lost updates while bouncing");
}

#[test]
fn thread_migration_rehomes_the_whole_thread() {
    // A chain over three remote objects: the thread moves to each in
    // turn and STAYS; there is no return message at all.
    let (mut runner, _) = build(
        Scheme::thread_migration(),
        4,
        &[1, 2, 3],
        Annotation::Rpc,
        1,
        1,
    );
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 1);
    assert_eq!(m.message_kinds[&MessageKind::ThreadMove], 3);
    assert_eq!(m.messages, 3, "no replies, no returns: the thread stays");
    // Thread moves cost more words than activation migrations would:
    // the whole stack + control block ships each hop.
    assert!(m.message_words > 3 * 20);
}

#[test]
fn thread_migration_repeat_ops_start_from_last_home() {
    // After an op ends at the data, the next op starts there: a second
    // identical op is fully local (locality of the coarsest kind).
    let (mut runner, _) = build(Scheme::thread_migration(), 2, &[1], Annotation::Rpc, 2, 3);
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 3);
    // Only the very first access moves the thread; the rest are local.
    assert_eq!(m.message_kinds[&MessageKind::ThreadMove], 1);
    assert_eq!(m.messages, 1);
}

/// A parent frame that Calls a child while migrated: exercises
/// multiple-activation migration (§6 future work).
struct GroupParent {
    targets: Vec<Goid>,
    phase: u8,
    total: Word,
}

impl Frame for GroupParent {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        match self.phase {
            0 => {
                // Move the whole group (just this frame so far) to the
                // first target.
                self.phase = 1;
                StepResult::Invoke(Invoke::new(
                    self.targets[0],
                    MethodId(0),
                    [],
                    Annotation::MigrateAll,
                ))
            }
            1 => {
                // While migrated: call a child that works on the second
                // target (local call within the detached group).
                self.phase = 2;
                StepResult::Call(Box::new(GroupChild {
                    target: self.targets[1],
                    done: false,
                }))
            }
            _ => StepResult::Return([self.total].into()),
        }
    }
    fn on_result(&mut self, results: &[Word]) {
        self.total += results[0];
    }
    fn live_words(&self) -> u64 {
        6
    }
    fn is_operation(&self) -> bool {
        true
    }
    fn label(&self) -> &'static str {
        "group-parent"
    }
}

struct GroupChild {
    target: Goid,
    done: bool,
}

impl Frame for GroupChild {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.done {
            return StepResult::Return([100].into());
        }
        self.done = true;
        StepResult::Invoke(Invoke::new(
            self.target,
            MethodId(0),
            [],
            Annotation::MigrateAll,
        ))
    }
    fn on_result(&mut self, _results: &[Word]) {}
    fn live_words(&self) -> u64 {
        3
    }
    fn label(&self) -> &'static str {
        "group-child"
    }
}

struct GroupDriver {
    targets: Vec<Goid>,
    fired: bool,
    result: Option<Word>,
}

impl Frame for GroupDriver {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.fired {
            return StepResult::Halt;
        }
        self.fired = true;
        StepResult::Call(Box::new(GroupParent {
            targets: self.targets.clone(),
            phase: 0,
            total: 0,
        }))
    }
    fn on_result(&mut self, results: &[Word]) {
        self.result = Some(results[0]);
    }
    fn live_words(&self) -> u64 {
        2
    }
}

#[test]
fn multiple_activation_migration_moves_the_group() {
    // Parent migrates (migrate_all), then Calls a child while detached;
    // the child re-migrates THE GROUP to a second processor; both
    // frames travel together and the final return short-circuits home.
    let cfg = MachineConfig::new(3, Scheme::computation_migration());
    let mut runner = Runner::new(cfg);
    let a = runner.system.create_object(
        Box::new(Cell {
            value: 0,
            compute: 80,
        }),
        ProcId(1),
        false,
    );
    let b = runner.system.create_object(
        Box::new(Cell {
            value: 0,
            compute: 80,
        }),
        ProcId(2),
        false,
    );
    runner.spawn(
        ProcId(0),
        Box::new(GroupDriver {
            targets: vec![a, b],
            fired: false,
            result: None,
        }),
    );
    let m = runner.run(Cycles::ZERO, Cycles(2_000_000));
    assert_eq!(m.ops, 1, "the operation completed");
    // Two migrations (P0->P1 with one frame, P1->P2 with two frames) and
    // one short-circuited return from P2.
    assert_eq!(m.message_kinds[&MessageKind::Migration], 2);
    assert_eq!(m.message_kinds[&MessageKind::OperationReturn], 1);
    assert_eq!(m.messages, 3);
    // Both objects were touched exactly once each.
    assert_eq!(runner.system.objects().state::<Cell>(a).unwrap().value, 1);
    assert_eq!(runner.system.objects().state::<Cell>(b).unwrap().value, 1);
}

#[test]
fn migrate_all_from_home_matches_single_when_stack_is_shallow() {
    // With a one-deep operation stack, MigrateAll degenerates to the
    // prototype's single-activation migration.
    let (mut runner, _) = build(
        Scheme::computation_migration(),
        2,
        &[1],
        Annotation::MigrateAll,
        2,
        1,
    );
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.ops, 1);
    assert_eq!(m.message_kinds[&MessageKind::Migration], 1);
    assert_eq!(m.message_kinds[&MessageKind::OperationReturn], 1);
}

#[test]
fn ops_counted_only_in_window() {
    let (mut runner, _) = build(Scheme::rpc(), 2, &[1], Annotation::Rpc, 1, 1000);
    let m = runner.run(Cycles(100_000), Cycles(100_000));
    // Warm-up ops are excluded; the window still sees steady progress.
    assert!(m.ops > 0);
    let expected = m.throughput_per_1000 * 100_000.0 / 1000.0;
    assert!((m.ops as f64 - expected).abs() < 1.0);
}

#[test]
fn dispatch_stats_attribute_mechanisms_to_call_sites() {
    // The Figure-1 chain: 3 remote items, Migrate annotation → every
    // invocation dispatched as a migration, all from the "chain-op" site.
    let (mut runner, _) = build(
        Scheme::computation_migration(),
        4,
        &[1, 2, 3],
        Annotation::Migrate,
        1,
        2,
    );
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    // Per op: one initial migration off the home, then two re-migrations
    // from the already-detached frame. All from the "chain-op" site.
    assert_eq!(m.dispatch.count(DispatchKind::Migration), 2);
    assert_eq!(m.dispatch.count(DispatchKind::Remigration), 4);
    assert_eq!(
        m.dispatch.count(DispatchKind::Migration) + m.dispatch.count(DispatchKind::Remigration),
        m.migrations
    );
    assert_eq!(
        m.dispatch.site_count("chain-op", DispatchKind::Migration),
        2
    );
    assert_eq!(
        m.dispatch.site_count("chain-op", DispatchKind::Remigration),
        4
    );
    assert_eq!(m.dispatch.count(DispatchKind::Rpc), 0);
    // Same program under RPC: the dispatch table shifts wholesale.
    let (mut runner, _) = build(Scheme::rpc(), 4, &[1, 2, 3], Annotation::Migrate, 1, 2);
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert_eq!(m.dispatch.count(DispatchKind::Migration), 0);
    assert_eq!(m.dispatch.site_count("chain-op", DispatchKind::Rpc), 6);
}

#[test]
fn audit_mode_populates_summary() {
    let mut cfg = MachineConfig::new(4, Scheme::computation_migration());
    cfg.audit = true;
    let mut runner = Runner::new(cfg);
    let targets: Vec<Goid> = (1..4)
        .map(|p| {
            runner.system.create_object(
                Box::new(Cell {
                    value: 0,
                    compute: 100,
                }),
                ProcId(p),
                false,
            )
        })
        .collect();
    runner.spawn(
        ProcId(0),
        Box::new(TestDriver {
            targets,
            annotation: Annotation::Migrate,
            repeats: 2,
            think: Cycles::ZERO,
            ops_remaining: 5,
            thinking: false,
        }),
    );
    let m = runner.run(Cycles::ZERO, Cycles(2_000_000));
    let audit = m.audit.expect("audit requested");
    assert!(audit.tasks_checked > 0);
    assert_eq!(audit.grand_total, audit.busy_total + audit.transit_total);
    assert_eq!(audit.grand_total, m.accounting.grand_total());
}

#[test]
fn auto_learns_to_migrate_a_hot_site() {
    // 10 ops, each making 3 accesses to one remote object. The first
    // op's window is empty → 3 RPCs; its episode (3 remote accesses)
    // crosses the 1.5 threshold, so every later op migrates once and
    // runs the remaining accesses locally.
    let (mut runner, _) = build(
        Scheme::computation_migration(),
        2,
        &[1],
        Annotation::Auto,
        3,
        10,
    );
    let m = runner.run(Cycles::ZERO, Cycles(4_000_000));
    assert_eq!(m.ops, 10);
    assert_eq!(m.migrations, 9, "all ops after the first migrate");
    assert_eq!(m.dispatch.site_count("chain-op", DispatchKind::Rpc), 3);
    assert_eq!(
        m.dispatch.site_count("chain-op", DispatchKind::Migration),
        9
    );
    let p = m.policy.expect("Auto dispatched remotely: stats present");
    assert_eq!(p.episodes, 10, "one closed episode per operation");
    assert_eq!(p.sites, 1);
    assert_eq!(p.flips, 1, "RPC → migrate exactly once");
    assert_eq!(p.decisions, p.migrate_decisions + p.rpc_decisions);
    assert!(p.migrate_decisions >= 9);
    // Policy bookkeeping is visible in the audited accounting.
    let decide = m.accounting.total(Category::PolicyDecide);
    let update = m.accounting.total(Category::PolicyUpdate);
    assert_eq!(decide, p.decisions * 6, "policy.decide = decisions × cost");
    assert_eq!(update, p.episodes * 12, "policy.update = episodes × cost");
}

#[test]
fn auto_is_inert_under_a_migration_disabled_scheme() {
    // Under the plain-RPC scheme the policy is never consulted: no
    // migrations, no policy stats, no policy.* charges — an Auto
    // annotation degenerates to Rpc exactly like Migrate does.
    let (mut runner, _) = build(Scheme::rpc(), 2, &[1], Annotation::Auto, 3, 5);
    let m = runner.run(Cycles::ZERO, Cycles(4_000_000));
    assert_eq!(m.ops, 5);
    assert_eq!(m.migrations, 0);
    assert_eq!(m.dispatch.count(DispatchKind::Migration), 0);
    assert_eq!(m.dispatch.count(DispatchKind::Remigration), 0);
    assert_eq!(m.dispatch.site_count("chain-op", DispatchKind::Rpc), 15);
    assert!(m.policy.is_none(), "engine never consulted");
    assert_eq!(m.accounting.total(Category::PolicyDecide), 0);
    assert_eq!(m.accounting.total(Category::PolicyUpdate), 0);
}

#[test]
fn auto_under_audit_keeps_busy_equal_to_charged() {
    // The busy==charged identity must hold with policy decisions and
    // episode updates folded into task slices (metrics() panics if the
    // audit fails, so reaching the asserts is the test).
    let mut cfg = MachineConfig::new(4, Scheme::computation_migration());
    cfg.audit = true;
    let mut runner = Runner::new(cfg);
    let targets: Vec<Goid> = (1..4)
        .map(|p| {
            runner.system.create_object(
                Box::new(Cell {
                    value: 0,
                    compute: 100,
                }),
                ProcId(p),
                false,
            )
        })
        .collect();
    runner.spawn(
        ProcId(0),
        Box::new(TestDriver {
            targets,
            annotation: Annotation::Auto,
            repeats: 2,
            think: Cycles::ZERO,
            ops_remaining: 8,
            thinking: false,
        }),
    );
    let m = runner.run(Cycles::ZERO, Cycles(4_000_000));
    let audit = m.audit.expect("audit requested");
    assert!(audit.tasks_checked > 0);
    assert_eq!(audit.grand_total, audit.busy_total + audit.transit_total);
    assert!(m.policy.is_some(), "Auto was dispatched remotely");
    assert!(m.accounting.total(Category::PolicyUpdate) > 0);
}

#[test]
fn auto_migrates_along_a_chain_once_learned() {
    // Figure-1 chain under Auto: once the site is hot, a detached frame
    // re-migrates item to item exactly like a static Migrate annotation.
    let (mut runner, _) = build(
        Scheme::computation_migration(),
        4,
        &[1, 2, 3],
        Annotation::Auto,
        1,
        6,
    );
    let m = runner.run(Cycles::ZERO, Cycles(4_000_000));
    assert_eq!(m.ops, 6);
    assert!(
        m.dispatch.site_count("chain-op", DispatchKind::Remigration) > 0,
        "detached Auto frames consult the policy too"
    );
    assert!(m.migrations > 0);
}

#[test]
fn malformed_migration_is_recorded_not_fatal() {
    // A Migration message with no frames is a protocol violation; the
    // runtime must drop it, record the error, and keep the run alive.
    let (mut runner, targets) = build(
        Scheme::computation_migration(),
        2,
        &[1],
        Annotation::Migrate,
        1,
        1,
    );
    let victim = runner.spawn(
        ProcId(0),
        Box::new(TestDriver {
            targets: targets.clone(),
            annotation: Annotation::Migrate,
            repeats: 1,
            think: Cycles(500_000),
            ops_remaining: 1,
            thinking: false,
        }),
    );
    let payload = Payload::Migration {
        thread: victim,
        reply_to: ProcId(0),
        frames: Vec::new(),
        invoke: Invoke::new(targets[0], MethodId(0), [], Annotation::Rpc),
    };
    let arrival = Event::Arrive {
        dst: ProcId(1),
        src: ProcId(0),
        words: runner.system.core.recv_meta(&payload).words,
        payload,
    };
    runner.engine.queue_mut().schedule_at(Cycles(10), arrival);
    let m = runner.run(Cycles::ZERO, Cycles(2_000_000));
    assert_eq!(m.runtime_errors, 1);
    assert!(matches!(
        runner.system.runtime_errors()[0],
        RuntimeError::EmptyMigration { thread, at: ProcId(1) } if thread == victim
    ));
    // The healthy thread's operation still completed and the machine
    // quiesced (the orphaned thread was terminated).
    assert_eq!(m.ops, 1);
    assert_eq!(
        runner
            .system
            .objects()
            .state::<Cell>(targets[0])
            .unwrap()
            .value,
        1
    );
}

/// An operation that migrates to `target` and then, at the migration
/// target, sleeps for `sleep` — or halts when `sleep` is `None`. Neither is
/// something a detached group may do at home's expense.
struct StrayOp {
    target: Goid,
    sleep: Option<Cycles>,
    invoked: bool,
}

impl Frame for StrayOp {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if !self.invoked {
            self.invoked = true;
            return StepResult::Invoke(Invoke::new(
                self.target,
                MethodId(0),
                [],
                Annotation::Migrate,
            ));
        }
        match self.sleep {
            Some(d) => StepResult::Sleep(d),
            None => StepResult::Halt,
        }
    }
    fn on_result(&mut self, _results: &[Word]) {}
    fn live_words(&self) -> u64 {
        3
    }
    fn is_operation(&self) -> bool {
        true
    }
    fn label(&self) -> &'static str {
        "stray-op"
    }
}

/// Driver: call one operation, then halt if it ever returns.
struct OneShotDriver {
    op: Option<Box<dyn Frame>>,
}

impl Frame for OneShotDriver {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        match self.op.take() {
            Some(op) => StepResult::Call(op),
            None => StepResult::Halt,
        }
    }
    fn on_result(&mut self, _results: &[Word]) {}
    fn live_words(&self) -> u64 {
        2
    }
}

/// Run one [`StrayOp`] from P0 against a cell on P1 under computation
/// migration with the audit on, until the machine quiesces. Returns the
/// runner, the thread and the window's metrics.
fn run_stray(sleep: Option<Cycles>) -> (Runner, ThreadId, RunMetrics) {
    let mut cfg = MachineConfig::new(2, Scheme::computation_migration());
    cfg.audit = true;
    let mut runner = Runner::new(cfg);
    let target = runner.system.create_object(
        Box::new(Cell {
            value: 0,
            compute: 100,
        }),
        ProcId(1),
        false,
    );
    let op = StrayOp {
        target,
        sleep,
        invoked: false,
    };
    let op: Box<dyn Frame> = Box::new(op);
    let tid = runner.spawn(ProcId(0), Box::new(OneShotDriver { op: Some(op) }));
    let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
    assert!(runner.engine.queue_mut().is_empty(), "the engine drained");
    let audit = m.audit.as_ref().expect("audit requested");
    assert!(audit.tasks_checked > 0);
    assert_eq!(audit.grand_total, audit.busy_total + audit.transit_total);
    assert_eq!(m.message_kinds[&MessageKind::Migration], 1);
    (runner, tid, m)
}

#[test]
fn a_detached_frame_that_sleeps_terminates_its_thread() {
    for sleep in [Cycles::ZERO, Cycles(5_000)] {
        let (mut runner, tid, m) = run_stray(Some(sleep));
        assert_eq!(m.runtime_errors, 1, "sleep {sleep:?}");
        assert!(matches!(
            runner.system.runtime_errors(),
            [RuntimeError::DetachedFrameSlept { thread, at: ProcId(1) }] if *thread == tid
        ));
        assert_eq!(
            runner.system.threads[tid.index()].status,
            ThreadStatus::Done
        );
        assert!(!m.message_kinds.contains_key(&MessageKind::OperationReturn));
        assert_eq!(m.ops, 0);
        // A stray wake-up must not revive the terminated thread.
        let now = runner.now();
        runner.engine.queue_mut().schedule_at(now, Event::Wake(tid));
        runner.run_until(now + Cycles(1_000_000));
        assert!(runner.engine.queue_mut().is_empty());
        assert_eq!(
            runner.system.threads[tid.index()].status,
            ThreadStatus::Done
        );
        assert_eq!(runner.system.ops_completed, 0);
        assert_eq!(runner.system.runtime_errors().len(), 1);
    }
}

#[test]
fn a_detached_group_that_halts_sends_no_return() {
    let (runner, tid, m) = run_stray(None);
    assert_eq!(
        runner.system.threads[tid.index()].status,
        ThreadStatus::Done
    );
    assert!(!m.message_kinds.contains_key(&MessageKind::OperationReturn));
    assert_eq!(m.runtime_errors, 0);
    assert!(runner.system.runtime_errors().is_empty());
    assert_eq!(m.ops, 0);
}

/// An operation that makes `invokes` in order, then returns.
struct ScriptOp {
    invokes: Vec<Invoke>,
    done: usize,
}

impl Frame for ScriptOp {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        match self.invokes.get(self.done) {
            Some(inv) => StepResult::Invoke(inv.clone()),
            None => StepResult::Return([self.done as Word].into()),
        }
    }
    fn on_result(&mut self, _results: &[Word]) {
        self.done += 1;
    }
    fn live_words(&self) -> u64 {
        3
    }
    fn is_operation(&self) -> bool {
        true
    }
    fn label(&self) -> &'static str {
        "script-op"
    }
}

#[test]
fn a_parked_group_whose_home_died_is_reclaimed_not_resumed() {
    // The op migrates to P1's cell, RPCs P2's cell from there and would
    // then bump P1's cell again. P0, the thread's home, dies while the
    // group waits at P1 for the reply: the reply must reclaim the group.
    let mut cfg = MachineConfig::new(3, Scheme::computation_migration());
    cfg.faults = Some(FaultPlan::disabled());
    let mut runner = Runner::new(cfg);
    let cells: Vec<Goid> = (1..3)
        .map(|p| {
            let cell = Cell {
                value: 0,
                compute: 100,
            };
            runner
                .system
                .create_object(Box::new(cell), ProcId(p), false)
        })
        .collect();
    let op: Box<dyn Frame> = Box::new(ScriptOp {
        invokes: vec![
            Invoke::new(cells[0], MethodId(0), [], Annotation::Migrate),
            Invoke::new(cells[1], MethodId(0), [], Annotation::Rpc),
            Invoke::new(cells[0], MethodId(0), [], Annotation::Migrate),
        ],
        done: 0,
    });
    let tid = runner.spawn(ProcId(0), Box::new(OneShotDriver { op: Some(op) }));
    let mut now = Cycles::ZERO;
    while runner.system.threads[tid.index()].parked.is_none() {
        now += Cycles(10);
        assert!(now < Cycles(1_000_000), "the group never parked");
        runner.run_until(now);
    }
    runner.system.kill_processor(now, ProcId(0));
    runner.run_until(now + Cycles(10_000_000));
    let value = |g: Goid| runner.system.objects().state::<Cell>(g).unwrap().value;
    assert_eq!((value(cells[0]), value(cells[1])), (1, 1));
    assert!(runner.system.threads[tid.index()].parked.is_none());
    assert!(
        runner.system.runtime_errors().iter().any(|e| matches!(
            e,
            RuntimeError::FrameReclaimed { thread, at: ProcId(1), frames: 1 } if *thread == tid
        )),
        "{:?}",
        runner.system.runtime_errors()
    );
}

#[test]
fn a_threads_migrations_travel_in_its_one_group_buffer() {
    // Under CM each op leaves home in the thread's spare group buffer, and
    // the buffer comes back to the thread where the group's base returns:
    // every op travels in the first one's allocation. The spare is seen
    // taken while each op is away, so the buffer really travelled.
    let (mut runner, targets) = build(
        Scheme::computation_migration(),
        4,
        &[1, 2, 3],
        Annotation::Migrate,
        1,
        0,
    );
    let driver = TestDriver {
        targets,
        annotation: Annotation::Migrate,
        repeats: 1,
        think: Cycles(5_000),
        ops_remaining: 5,
        thinking: false,
    };
    let tid = runner.spawn(ProcId(0), Box::new(driver));
    let (mut now, mut completed, mut taken) = (Cycles::ZERO, 0, false);
    let mut buffers = Vec::new();
    while runner.system.ops_completed < 5 {
        now += Cycles(100);
        assert!(now < Cycles(1_000_000), "the ops never finished");
        runner.run_until(now);
        let spare = &runner.system.threads[tid.index()].spare;
        taken |= spare.capacity() == 0;
        if runner.system.ops_completed > completed {
            completed = runner.system.ops_completed;
            assert!(taken, "op {completed} did not take the spare buffer");
            assert!(
                spare.capacity() > 0,
                "op {completed}'s buffer did not come back"
            );
            buffers.push(spare.as_ptr());
            taken = false;
        }
    }
    assert_eq!(runner.system.core.migrations, 15);
    assert_eq!(buffers.len(), 5);
    assert!(
        buffers.iter().all(|&at| at == buffers[0]),
        "a migration did not travel in the thread's buffer"
    );
}

#[test]
fn error_counts_stay_exact_past_the_detail_cap() {
    // Only the detail list is capped; the counts in the metrics keep going.
    let mut sys = System::new(MachineConfig::new(2, Scheme::rpc()));
    let recorded = MAX_ERROR_DETAILS as u64 + 476;
    for i in 0..recorded {
        let error = if i % 4 == 0 {
            RuntimeError::NetworkRejected {
                src: ProcId(0),
                dst: ProcId(9),
            }
        } else {
            RuntimeError::DuplicateDelivery {
                seq: i,
                at: ProcId(1),
            }
        };
        sys.core.record_error(Cycles(i), error);
    }
    let m = sys.metrics(Cycles(recorded));
    assert_eq!(m.runtime_errors, recorded);
    assert_eq!(
        m.runtime_error_codes,
        vec![
            ("duplicate_delivery", recorded - recorded.div_ceil(4)),
            ("network_rejected", recorded.div_ceil(4)),
        ]
    );
    assert_eq!(sys.runtime_errors().len(), MAX_ERROR_DETAILS);
}

/// A machine of `processors` that [`MachineConfig::validate`] checks after
/// `edit`.
fn validated(processors: u32, edit: impl FnOnce(&mut MachineConfig)) -> Result<(), ConfigError> {
    let mut cfg = MachineConfig::new(processors, Scheme::computation_migration());
    edit(&mut cfg);
    cfg.validate()
}

#[test]
fn a_machine_of_one_to_max_processors_naming_its_own_processors_is_valid() {
    for processors in [1, 64, MAX_PROCESSORS] {
        let last = ProcId(processors - 1);
        let ok = validated(processors, |cfg| {
            cfg.data_procs = vec![ProcId(0), last];
            cfg.replica_procs = vec![last];
            cfg.faults = Some(FaultPlan::fail_stop(last, Cycles(10)));
        });
        assert_eq!(ok, Ok(()), "{processors} processors");
    }
}

#[test]
fn a_machine_without_processors_is_rejected() {
    assert_eq!(validated(0, |_| {}), Err(ConfigError::NoProcessors));
}

#[test]
fn a_machine_past_the_sharer_mask_is_rejected() {
    let processors = MAX_PROCESSORS + 1;
    assert_eq!(
        validated(processors, |_| {}),
        Err(ConfigError::TooManyProcessors { processors })
    );
}

#[test]
fn a_data_processor_outside_the_machine_is_rejected() {
    assert_eq!(
        validated(4, |cfg| cfg.data_procs = vec![ProcId(1), ProcId(4)]),
        Err(ConfigError::DataProcOutside {
            proc: ProcId(4),
            processors: 4
        })
    );
}

#[test]
fn a_replica_processor_outside_the_machine_is_rejected() {
    assert_eq!(
        validated(4, |cfg| cfg.replica_procs = vec![ProcId(9)]),
        Err(ConfigError::ReplicaProcOutside {
            proc: ProcId(9),
            processors: 4
        })
    );
}

#[test]
fn a_kill_victim_outside_the_machine_is_rejected() {
    assert_eq!(
        validated(4, |cfg| cfg.faults =
            Some(FaultPlan::fail_stop(ProcId(4), Cycles(10)))),
        Err(ConfigError::KillVictimOutside {
            proc: ProcId(4),
            processors: 4
        })
    );
}

#[test]
fn failover_without_a_fault_plan_is_rejected() {
    let failover = |cfg: &mut MachineConfig| cfg.failover = FailoverConfig { enabled: true };
    assert_eq!(
        validated(4, failover),
        Err(ConfigError::FailoverWithoutFaultPlan)
    );
    let with_plan = validated(4, |cfg| {
        failover(cfg);
        cfg.faults = Some(FaultPlan::disabled());
    });
    assert_eq!(with_plan, Ok(()));
}

#[test]
#[should_panic(expected = "replica processor P9 outside the machine of 4 processors")]
fn runner_new_panics_with_the_configuration_error() {
    let mut cfg = MachineConfig::new(4, Scheme::computation_migration());
    cfg.replica_procs = vec![ProcId(9)];
    Runner::new(cfg);
}
