//! Quickstart: one object, one thread, three remote-access mechanisms.
//!
//! Builds a four-processor machine with a counter object on P1 and a thread
//! on P0 that bumps it 100 times, then runs the *same program* under RPC,
//! cache-coherent shared memory, and computation migration, printing what
//! each mechanism costs.
//!
//! Run with: `cargo run --release --example quickstart`

use migrate_rt::{
    Annotation, Behavior, Frame, Invoke, MachineConfig, MethodEnv, MethodId, Runner, Scheme,
    StepCtx, StepResult, Word, WordVec,
};
use proteus::{Cycles, ProcId};

/// A counter object: lock, read, bump, write, unlock.
struct Counter {
    value: u64,
}

impl Behavior for Counter {
    fn invoke(&mut self, _m: MethodId, _args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
        env.lock();
        env.read(8, 8);
        env.compute(Cycles(100)); // the method's user code
        self.value += 1;
        env.write(8, 8);
        env.unlock();
        [self.value].into()
    }
    fn size_bytes(&self) -> u64 {
        16
    }
}

/// One operation: three consecutive bumps of the counter.
///
/// The call sites carry the migration annotation; under an RPC or SM scheme
/// the annotation is inert — the paper's "affects only performance, not
/// semantics".
struct BumpOp {
    counter: migrate_rt::Goid,
    remaining: u32,
    last: Word,
}

impl Frame for BumpOp {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.remaining == 0 {
            return StepResult::Return([self.last].into());
        }
        StepResult::Invoke(Invoke::new(
            self.counter,
            MethodId(0),
            [],
            Annotation::Migrate,
        ))
    }
    fn on_result(&mut self, results: &[Word]) {
        self.last = results[0];
        self.remaining -= 1;
    }
    fn live_words(&self) -> u64 {
        3
    }
    fn is_operation(&self) -> bool {
        true
    }
}

/// The thread's base activation: run 100 operations, then halt.
struct Driver {
    counter: migrate_rt::Goid,
    ops: u32,
}

impl Frame for Driver {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.ops == 0 {
            return StepResult::Halt;
        }
        self.ops -= 1;
        StepResult::Call(Box::new(BumpOp {
            counter: self.counter,
            remaining: 3,
            last: 0,
        }))
    }
    fn on_result(&mut self, _results: &[Word]) {}
    fn live_words(&self) -> u64 {
        2
    }
}

fn run(scheme: Scheme) {
    let mut runner = Runner::new(MachineConfig::new(4, scheme));
    let counter = runner
        .system
        .create_object(Box::new(Counter { value: 0 }), ProcId(1), false);
    runner.spawn(ProcId(0), Box::new(Driver { counter, ops: 100 }));
    let m = runner.run(Cycles::ZERO, Cycles(2_000_000));
    let value = runner
        .system
        .objects()
        .state::<Counter>(counter)
        .expect("counter")
        .value;
    println!(
        "{:<22} ops={:<4} counter={:<4} messages={:<6} migrations={:<4} mean op latency={:.0} cycles",
        scheme.label(),
        m.ops,
        value,
        m.messages,
        m.migrations,
        m.mean_op_latency
    );
    assert_eq!(value, 300, "semantics identical under every mechanism");
}

fn main() {
    println!("same program, three mechanisms (100 ops x 3 accesses):\n");
    run(Scheme::rpc());
    run(Scheme::shared_memory());
    run(Scheme::computation_migration());
    println!("\nnote: CM sends 1 migration + 1 short-circuit return per op (4 total");
    println!("messages would be 6 under RPC), and repeat accesses are local.");
}
