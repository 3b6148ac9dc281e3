//! # migrate-rt — a computation-migration runtime
//!
//! Reproduction of the core contribution of *Computation Migration:
//! Enhancing Locality for Distributed-Memory Parallel Systems* (Hsieh, Wang,
//! Weihl, PPoPP 1993): a Prelude-style runtime in which a remote data access
//! can be performed by
//!
//! * **RPC** — the access runs at the data, the thread stays put (two
//!   messages per access);
//! * **data migration** — cache-coherent shared memory moves the data to the
//!   thread (see [`proteus::coherence`]);
//! * **computation migration** — the *top activation frame of the thread*
//!   moves to the data and keeps executing there, so subsequent accesses are
//!   local and the final return short-circuits straight back to the caller.
//!
//! The mechanism is chosen per call site with a one-word [`Annotation`]
//! honored (or ignored) by the machine-level [`Scheme`]; the application
//! source is identical under all mechanisms, which is the paper's central
//! software-engineering claim.
//!
//! Because Rust cannot serialize closures, continuations are encoded
//! explicitly: a [`Frame`] is a resumable state machine whose fields are the
//! live variables — exactly the "continuation procedure whose arguments are
//! the live variables at the migration point" that the Prelude compiler
//! generated (§3.2 of the paper).
//!
//! ## Quick example
//!
//! ```
//! use migrate_rt::{
//!     Annotation, Behavior, Frame, Invoke, MachineConfig, MethodEnv, MethodId, Runner, Scheme,
//!     StepCtx, StepResult, Word, WordVec,
//! };
//! use proteus::{Cycles, ProcId};
//!
//! // An object holding a counter.
//! struct Counter(u64);
//! impl Behavior for Counter {
//!     fn invoke(&mut self, _m: MethodId, _a: &[Word], env: &mut dyn MethodEnv) -> WordVec {
//!         env.lock();
//!         env.read(8, 8);
//!         env.compute(Cycles(50));
//!         self.0 += 1;
//!         env.write(8, 8);
//!         env.unlock();
//!         [self.0].into()
//!     }
//!     fn size_bytes(&self) -> u64 { 16 }
//! }
//!
//! // A driver that bumps the counter once and halts.
//! struct Driver { target: migrate_rt::Goid, done: bool }
//! impl Frame for Driver {
//!     fn step(&mut self, _ctx: &StepCtx) -> StepResult {
//!         if self.done { return StepResult::Halt; }
//!         self.done = true;
//!         StepResult::Invoke(Invoke::new(self.target, MethodId(0), [], Annotation::Rpc))
//!     }
//!     fn on_result(&mut self, results: &[Word]) { assert_eq!(results, &[1]); }
//!     fn live_words(&self) -> u64 { 2 }
//! }
//!
//! let mut runner = Runner::new(MachineConfig::new(4, Scheme::computation_migration()));
//! let counter = runner.system.create_object(Box::new(Counter(0)), ProcId(1), false);
//! runner.spawn(ProcId(0), Box::new(Driver { target: counter, done: false }));
//! let metrics = runner.run(Cycles(0), Cycles(100_000));
//! assert_eq!(metrics.ops, 0); // the driver is not an operation frame
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod error;
pub mod frame;
pub mod mechanism;
pub mod message;
pub mod object;
pub mod policy;
pub mod system;
pub mod types;

/// The seeded generator behind runtime object placement; it lives in
/// `proteus` so every seeded draw in the workspace shares one SplitMix64.
pub use proteus::rng;

pub use cost::{Accounting, Category, CostModel};
pub use error::{ConfigError, RuntimeError};
pub use frame::{Frame, Invoke, StepCtx, StepResult};
pub use mechanism::{Annotation, DataAccess, DispatchKind, DispatchStats, Scheme};
pub use message::{MessageKind, Payload};
pub use object::{Behavior, MethodEnv, ObjectEntry, ObjectTable};
pub use policy::PolicyStats;
pub use system::{
    AuditSummary, EngineProfile, Event, FailoverConfig, FailoverStats, MachineConfig,
    ProcWindowStats, RecoveryStats, RunMetrics, Runner, System,
};
pub use types::{Goid, MethodId, ThreadId, Word, WordVec};
