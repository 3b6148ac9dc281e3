//! Tuning with annotations (§3.1): move one word, change the communication
//! pattern, keep the semantics.
//!
//! The same chain-of-accesses procedure runs twice under the computation-
//! migration scheme: once with plain call sites (remote accesses become
//! RPCs) and once with the migration annotation (the activation hops item
//! to item and the result short-circuits home). The results are identical;
//! only the message pattern changes — which is the paper's §2.5/Figure 1
//! model, checked here against `migrate-model`'s closed forms.
//!
//! Run with: `cargo run --release --example annotation_tuning`

use migrate_model::Pattern;
use migrate_rt::{
    Annotation, Behavior, Frame, Invoke, MachineConfig, MethodEnv, MethodId, Runner, Scheme,
    StepCtx, StepResult, Word, WordVec,
};
use proteus::{Cycles, ProcId};

/// A data item that adds its id to a running sum.
struct Item {
    id: u64,
}

impl Behavior for Item {
    fn invoke(&mut self, _m: MethodId, args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
        env.read(8, 8);
        env.compute(Cycles(80));
        [args[0] + self.id].into()
    }
    fn size_bytes(&self) -> u64 {
        16
    }
}

/// The §2.5 scenario: `n` consecutive accesses to each of `m` items.
struct ChainOp {
    items: Vec<migrate_rt::Goid>,
    accesses_per_item: u32,
    annotation: Annotation,
    idx: usize,
    done: u32,
    sum: Word,
}

impl Frame for ChainOp {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.idx >= self.items.len() {
            return StepResult::Return([self.sum].into());
        }
        let target = self.items[self.idx];
        StepResult::Invoke(Invoke::new(
            target,
            MethodId(0),
            [self.sum],
            self.annotation,
        ))
    }
    fn on_result(&mut self, results: &[Word]) {
        self.sum = results[0];
        self.done += 1;
        if self.done >= self.accesses_per_item {
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

struct OneShot {
    op: Option<Box<ChainOp>>,
    result: Option<Word>,
}

impl Frame for OneShot {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        match self.op.take() {
            Some(op) => StepResult::Call(op),
            None => StepResult::Halt,
        }
    }
    fn on_result(&mut self, results: &[Word]) {
        self.result = Some(results[0]);
    }
    fn live_words(&self) -> u64 {
        2
    }
}

fn run(m: u64, n: u32, annotation: Annotation) -> (u64, f64) {
    // m items on processors 1..=m; the thread on processor 0.
    let mut runner = Runner::new(MachineConfig::new(
        m as u32 + 1,
        Scheme::computation_migration(),
    ));
    let items: Vec<_> = (1..=m)
        .map(|i| {
            runner
                .system
                .create_object(Box::new(Item { id: i }), ProcId(i as u32), false)
        })
        .collect();
    runner.spawn(
        ProcId(0),
        Box::new(OneShot {
            op: Some(Box::new(ChainOp {
                items,
                accesses_per_item: n,
                annotation,
                idx: 0,
                done: 0,
                sum: 0,
            })),
            result: None,
        }),
    );
    let metrics = runner.run(Cycles::ZERO, Cycles(1_000_000));
    // Expected sum: each item i contributes i exactly n times.
    let expected: u64 = (1..=m).map(|i| i * u64::from(n)).sum();
    assert_eq!(metrics.ops, 1);
    (expected, metrics.messages as f64)
}

fn main() {
    println!("same procedure, two annotations, CM scheme (the paper's tuning story)\n");
    println!(
        "{:<8} {:<12} {:>14} {:>16} {:>10}",
        "(m, n)", "annotation", "sim messages", "model predicts", "result ok"
    );
    for (m, n) in [(1u64, 1u32), (3, 1), (3, 4), (6, 1), (6, 4)] {
        let pattern = Pattern::new(m, u64::from(n));
        for (annotation, predicted) in [
            (Annotation::Rpc, pattern.rpc_messages()),
            (
                Annotation::Migrate,
                pattern.computation_migration_messages(),
            ),
        ] {
            let (expected, messages) = run(m, n, annotation);
            println!(
                "({m:>2},{n:>2})  {:<12} {:>14} {:>16} {:>10}",
                format!("{annotation:?}"),
                messages,
                predicted,
                expected > 0
            );
            assert_eq!(
                messages as u64, predicted,
                "simulator must match the closed-form §2.5 model"
            );
        }
    }
    println!("\nmessage counts match migrate-model's closed forms exactly;");
    println!("the annotation changed the pattern, never the sum.");
}
