//! Cross-validate the simulator against the §2.5 closed-form message model.
//!
//! One thread makes `n` consecutive accesses to each of `m` remote items.
//! The simulated message counts must match `migrate-model`'s formulas
//! *exactly*:
//!
//! * RPC: `2·n·m` messages,
//! * computation migration: `m + 1` (one hop per item, one short-circuited
//!   return),
//! * data migration (cache-coherent shared memory, read-only, cold caches):
//!   `2·m` (one request + one data line per item; repeats hit locally).

use migrate_model::Pattern;
use migrate_rt::{
    Annotation, Behavior, Frame, Invoke, MachineConfig, MethodEnv, MethodId, Runner, Scheme,
    StepCtx, StepResult, Word, WordVec,
};
use proteus::{Cycles, ProcId};

/// A read-only item: one word of state on a single cache line.
struct Item;

impl Behavior for Item {
    fn invoke(&mut self, _m: MethodId, args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
        env.read(8, 8);
        env.compute(Cycles(50));
        [args[0] + 1].into()
    }
    fn size_bytes(&self) -> u64 {
        16
    }
}

struct ChainOp {
    items: Vec<migrate_rt::Goid>,
    n: u32,
    annotation: Annotation,
    idx: usize,
    done: u32,
    acc: Word,
}

impl Frame for ChainOp {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.idx >= self.items.len() {
            return StepResult::Return([self.acc].into());
        }
        let t = self.items[self.idx];
        StepResult::Invoke(Invoke::new(t, MethodId(0), [self.acc], self.annotation).reading())
    }
    fn on_result(&mut self, r: &[Word]) {
        self.acc = r[0];
        self.done += 1;
        if self.done >= self.n {
            self.done = 0;
            self.idx += 1;
        }
    }
    fn live_words(&self) -> u64 {
        5
    }
    fn is_operation(&self) -> bool {
        true
    }
}

struct OneShot(Option<Box<ChainOp>>);

impl Frame for OneShot {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        match self.0.take() {
            Some(op) => StepResult::Call(op),
            None => StepResult::Halt,
        }
    }
    fn on_result(&mut self, _r: &[Word]) {}
    fn live_words(&self) -> u64 {
        1
    }
}

/// Run the scenario and return (messages, ops, expected accumulator check).
fn simulate(m: u64, n: u32, scheme: Scheme, annotation: Annotation) -> u64 {
    let mut runner = Runner::new(MachineConfig::new(m as u32 + 1, scheme));
    let items: Vec<_> = (1..=m)
        .map(|i| {
            runner
                .system
                .create_object(Box::new(Item), ProcId(i as u32), false)
        })
        .collect();
    runner.spawn(
        ProcId(0),
        Box::new(OneShot(Some(Box::new(ChainOp {
            items,
            n,
            annotation,
            idx: 0,
            done: 0,
            acc: 0,
        })))),
    );
    let metrics = runner.run(Cycles::ZERO, Cycles(5_000_000));
    assert_eq!(metrics.ops, 1, "operation must complete");
    metrics.messages
}

#[test]
fn rpc_messages_match_model() {
    for (m, n) in [(1u64, 1u32), (1, 5), (3, 1), (3, 4), (6, 2), (8, 8)] {
        let sim = simulate(m, n, Scheme::rpc(), Annotation::Rpc);
        let model = Pattern::new(m, u64::from(n)).rpc_messages();
        assert_eq!(sim, model, "RPC m={m} n={n}");
    }
}

#[test]
fn computation_migration_messages_match_model() {
    for (m, n) in [(1u64, 1u32), (1, 5), (3, 1), (3, 4), (6, 2), (8, 8)] {
        let sim = simulate(m, n, Scheme::computation_migration(), Annotation::Migrate);
        let model = Pattern::new(m, u64::from(n)).computation_migration_messages();
        assert_eq!(sim, model, "CM m={m} n={n}");
    }
}

#[test]
fn data_migration_messages_match_model() {
    // Read-only accesses under cache-coherent shared memory: each item's
    // line is fetched once (request + data) and every repeat hits — the
    // paper's idealized data-migration count.
    for (m, n) in [(1u64, 1u32), (1, 5), (3, 4), (6, 2), (8, 8)] {
        let sim = simulate(m, n, Scheme::shared_memory(), Annotation::Rpc);
        let model = Pattern::new(m, u64::from(n)).data_migration_messages();
        assert_eq!(sim, model, "DM m={m} n={n}");
    }
}

#[test]
fn annotation_is_performance_only() {
    // Identical result under every mechanism; only message counts differ.
    let counts: Vec<u64> = [
        simulate(4, 3, Scheme::rpc(), Annotation::Rpc),
        simulate(4, 3, Scheme::computation_migration(), Annotation::Migrate),
        simulate(4, 3, Scheme::shared_memory(), Annotation::Rpc),
    ]
    .to_vec();
    // RPC 24, CM 5, DM 8 — all different, all correct.
    assert_eq!(counts, vec![24, 5, 8]);
}

#[test]
fn cm_scheme_honors_per_site_annotation() {
    // Under the CM scheme, *unannotated* call sites still use RPC: the
    // mechanism choice is per call site, not global.
    let sim = simulate(3, 2, Scheme::computation_migration(), Annotation::Rpc);
    assert_eq!(sim, Pattern::new(3, 2).rpc_messages());
}
