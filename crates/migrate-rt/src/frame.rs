//! Activation frames: the continuation encoding.
//!
//! Prelude's compiler turned "the rest of this procedure after the migration
//! point" into a *continuation procedure* whose arguments were the live
//! variables (§3.2). Rust has no closure serialization, so we make the same
//! object explicit: a [`Frame`] is a resumable state machine whose fields are
//! exactly the live variables and whose discriminant is the continuation
//! label. Migrating a frame ships those fields ([`Frame::live_words`] meters
//! the marshalling cost) and resumes `step` on the destination processor —
//! precisely the alternate implementation sketched in §3.3 of the paper
//! (marshal the live variables, jump back in at an alternate entry point).
//!
//! A frame never touches simulator state directly; it *requests* effects by
//! returning a [`StepResult`], and receives values back through
//! [`Frame::on_result`]. That inversion is what lets one application source
//! run unchanged under RPC, shared memory, or computation migration.

use std::any::Any;

use proteus::{Cycles, ProcId};

use crate::mechanism::Annotation;
use crate::types::{Goid, MethodId, Word, WordVec};

/// A pending instance-method invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invoke {
    /// Target object.
    pub target: Goid,
    /// Method selector.
    pub method: MethodId,
    /// Argument words. Up to four words ride inline in the envelope with no
    /// heap allocation.
    pub args: WordVec,
    /// The call-site annotation (§3.1): plain call or migration point.
    pub annotation: Annotation,
    /// Whether the method only reads the object. Read-only calls on
    /// replicated objects may be satisfied by a local replica.
    pub read_only: bool,
}

impl Invoke {
    /// An invocation of `method` on `target` from a call site carrying
    /// `annotation` (§3.1).
    pub fn new(
        target: Goid,
        method: MethodId,
        args: impl Into<WordVec>,
        annotation: Annotation,
    ) -> Invoke {
        Invoke {
            target,
            method,
            args: args.into(),
            annotation,
            read_only: false,
        }
    }

    /// Mark the method as read-only (replica-servable).
    pub fn reading(mut self) -> Invoke {
        self.read_only = true;
        self
    }

    /// Marshalled size of the request in words (target + method + args).
    pub fn request_words(&self) -> u64 {
        2 + self.args.len() as u64
    }
}

/// What a frame asks the runtime to do next.
pub enum StepResult {
    /// Charge `user code` cycles and step again.
    Compute(Cycles),
    /// Push a child activation (local call). The child's `Return` value
    /// arrives via `on_result` on this frame.
    Call(Box<dyn Frame>),
    /// Invoke an instance method; the result arrives via `on_result`.
    Invoke(Invoke),
    /// Block the thread off-processor for a duration (think time).
    Sleep(Cycles),
    /// Finish this activation, returning values to the caller.
    Return(WordVec),
    /// Terminate the whole thread.
    Halt,
}

impl core::fmt::Debug for StepResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StepResult::Compute(c) => write!(f, "Compute({c:?})"),
            StepResult::Call(frame) => write!(f, "Call({})", frame.label()),
            StepResult::Invoke(i) => write!(f, "Invoke({:?}.{:?})", i.target, i.method),
            StepResult::Sleep(c) => write!(f, "Sleep({c:?})"),
            StepResult::Return(v) => write!(f, "Return({v:?})"),
            StepResult::Halt => write!(f, "Halt"),
        }
    }
}

/// Context visible to a stepping frame.
#[derive(Copy, Clone, Debug)]
pub struct StepCtx {
    /// Current simulated time.
    pub now: Cycles,
    /// Processor the frame is currently executing on. A migrated frame sees
    /// this change between steps — that is the whole point.
    pub proc: ProcId,
}

/// A resumable activation record. `Any` lets a parent take a finished
/// child back as its concrete type (see [`Frame::recycle_child`]).
pub trait Frame: Any {
    /// Advance to the next runtime interaction.
    fn step(&mut self, ctx: &StepCtx) -> StepResult;

    /// Deliver the result of the last `Invoke` or of a child `Call`.
    fn on_result(&mut self, results: &[Word]);

    /// Number of live words that must be marshalled if this frame migrates
    /// *now*. Prelude computed this at compile time per migration point; we
    /// report it from the live fields.
    fn live_words(&self) -> u64;

    /// `true` for application operation frames (one B-tree op, one
    /// counting-network traversal): the metric harness counts completions of
    /// such frames as operations.
    fn is_operation(&self) -> bool {
        false
    }

    /// Debug label.
    fn label(&self) -> &'static str {
        "frame"
    }

    /// Take back `child`, a frame this one spawned with
    /// [`StepResult::Call`], once it has returned: right after its value
    /// reached this frame's `on_result`, or, if `child` was the base of a
    /// migrated group, as soon as it returned away from home (its value
    /// travels home in a message; the box is handed over at once).
    ///
    /// Host-only: no message carries the box, no cycles are charged and
    /// `live_words` is not consulted, so the simulation is the same whether
    /// the parent keeps the box or drops it. A driver that spawns one
    /// operation at a time keeps it as its one spare and writes its next
    /// operation into it instead of allocating; it downcasts through `Any`,
    /// dropping a child of any other type. The default drops `child`.
    fn recycle_child(&mut self, _child: Box<dyn Frame>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-phase frame used to exercise the trait surface.
    struct TwoPhase {
        phase: u8,
        got: Vec<Word>,
    }

    impl Frame for TwoPhase {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            match self.phase {
                0 => {
                    self.phase = 1;
                    StepResult::Invoke(Invoke::new(Goid(1), MethodId(0), [7], Annotation::Rpc))
                }
                _ => StepResult::Return(self.got[..].into()),
            }
        }
        fn on_result(&mut self, results: &[Word]) {
            self.got = results.to_vec();
        }
        fn live_words(&self) -> u64 {
            1 + self.got.len() as u64
        }
        fn is_operation(&self) -> bool {
            true
        }
    }

    #[test]
    fn frame_round_trip() {
        let ctx = StepCtx {
            now: Cycles(0),
            proc: ProcId(0),
        };
        let mut f = TwoPhase {
            phase: 0,
            got: vec![],
        };
        match f.step(&ctx) {
            StepResult::Invoke(i) => {
                assert_eq!(i.target, Goid(1));
                assert_eq!(i.request_words(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        f.on_result(&[42, 43]);
        match f.step(&ctx) {
            StepResult::Return(v) => assert_eq!(&v[..], &[42, 43]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.live_words(), 3);
        assert!(f.is_operation());
    }

    #[test]
    fn invoke_builders() {
        let i = Invoke::new(Goid(2), MethodId(1), [1, 2], Annotation::Migrate).reading();
        assert_eq!(i.annotation, Annotation::Migrate);
        assert!(i.read_only);
        assert_eq!(i.request_words(), 4);
    }

    #[test]
    fn step_result_debug_is_informative() {
        let s = StepResult::Invoke(Invoke::new(Goid(9), MethodId(3), [], Annotation::Rpc));
        assert_eq!(format!("{s:?}"), "Invoke(g9.m3)");
        assert_eq!(format!("{:?}", StepResult::Halt), "Halt");
    }
}
