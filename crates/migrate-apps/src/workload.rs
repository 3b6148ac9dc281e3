//! Deterministic workload generation, and the requester threads that
//! issue it.
//!
//! Every experiment run is seeded: the same configuration replays the same
//! key streams and placement decisions, which keeps scheme comparisons
//! apples-to-apples (all rows of a table see identical workloads).

use std::any::Any;

use migrate_rt::{Annotation, Frame, StepCtx, StepResult, Word};
use proteus::rng::SplitMix64;
use proteus::Cycles;

/// Where a [`Requester`] gets its operations: each application supplies
/// one.
pub trait OpSource: 'static {
    /// The operation frame this source issues.
    type Op: Frame;

    /// The next operation, with `annotation` on every call site it makes.
    fn next_op(&mut self, annotation: Annotation) -> Self::Op;
}

/// A requester thread's base activation, the paper's root driver frame:
/// think, issue the next operation from its source, repeat until the
/// horizon or its cap.
pub struct Requester<S: OpSource> {
    source: S,
    think: Cycles,
    thinking: bool,
    /// Operations completed by this requester.
    pub completed: u64,
    /// Stop after this many requests (`u64::MAX` = run to the horizon).
    /// A capped requester halts, letting the machine drain to quiescence.
    pub max_requests: u64,
    /// Call-site annotation stamped on every invoke of the operations it
    /// issues (`Migrate` reproduces the paper's static choice; `Auto` hands
    /// it to the adaptive policy).
    pub annotation: Annotation,
    /// The last operation's box, handed back when it finished: the next
    /// operation is written into it instead of a new allocation.
    spare: Option<Box<S::Op>>,
}

impl<S: OpSource> Requester<S> {
    /// A requester issuing `source`'s operations, `think` cycles apart.
    pub fn new(source: S, think: Cycles) -> Requester<S> {
        Requester {
            source,
            think,
            thinking: false,
            completed: 0,
            max_requests: u64::MAX,
            annotation: Annotation::Migrate,
            spare: None,
        }
    }

    /// Whether a finished operation's box is kept for the next one.
    #[cfg(test)]
    pub(crate) fn holds_spare(&self) -> bool {
        self.spare.is_some()
    }
}

impl<S: OpSource> Frame for Requester<S> {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        if self.completed >= self.max_requests {
            return StepResult::Halt;
        }
        if !self.thinking {
            self.thinking = true;
            return StepResult::Sleep(self.think);
        }
        self.thinking = false;
        let op = self.source.next_op(self.annotation);
        StepResult::Call(match self.spare.take() {
            Some(mut spare) => {
                *spare = op;
                spare
            }
            None => Box::new(op),
        })
    }

    fn on_result(&mut self, _results: &[Word]) {
        self.completed += 1;
    }

    fn recycle_child(&mut self, child: Box<dyn Frame>) {
        if let Ok(op) = (child as Box<dyn Any>).downcast() {
            self.spare = Some(op);
        }
    }

    fn live_words(&self) -> u64 {
        4
    }

    fn label(&self) -> &'static str {
        "requester"
    }
}

/// A deterministic stream of B-tree keys: a mix of lookups of existing keys
/// and inserts of fresh keys.
#[derive(Clone, Debug)]
pub struct KeyStream {
    rng: SplitMix64,
    key_space: u64,
    insert_permille: u32,
}

/// One generated request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The key to operate on.
    pub key: u64,
    /// `true` for insert, `false` for lookup.
    pub insert: bool,
}

impl KeyStream {
    /// A stream over `[0, key_space)` issuing inserts with probability
    /// `insert_permille`/1000.
    pub fn new(seed: u64, key_space: u64, insert_permille: u32) -> KeyStream {
        assert!(key_space > 0, "empty key space");
        assert!(insert_permille <= 1000, "permille out of range");
        KeyStream {
            rng: SplitMix64::new(seed),
            key_space,
            insert_permille,
        }
    }

    /// Next request.
    pub fn next_request(&mut self) -> Request {
        let insert = self.rng.below(1000) < u64::from(self.insert_permille);
        let key = self.rng.below(self.key_space);
        Request { key, insert }
    }
}

/// The sorted, distinct keys pre-loaded into the B-tree before measurement
/// (the paper builds a 10 000-key tree first).
///
/// Keys are spread across the key space so subsequent random inserts land
/// between existing keys.
pub fn initial_keys(count: u64, key_space: u64) -> Vec<u64> {
    assert!(count > 0 && key_space >= count);
    let stride = key_space / count;
    (0..count).map(|i| i * stride + stride / 2).collect()
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use proteus::ProcId;

    use super::*;

    /// An operation that returns its serial number at once.
    struct Numbered(u64);

    impl Frame for Numbered {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            StepResult::Return([self.0].into())
        }
        fn on_result(&mut self, _results: &[Word]) {}
        fn live_words(&self) -> u64 {
            1
        }
        fn is_operation(&self) -> bool {
            true
        }
    }

    /// Issues `Numbered(1)`, `Numbered(2)`, …
    struct Serial(u64);

    impl OpSource for Serial {
        type Op = Numbered;
        fn next_op(&mut self, _annotation: Annotation) -> Numbered {
            self.0 += 1;
            Numbered(self.0)
        }
    }

    /// A frame of another type that notes its own drop.
    struct Stranger(Rc<Cell<bool>>);

    impl Drop for Stranger {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    impl Frame for Stranger {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            StepResult::Halt
        }
        fn on_result(&mut self, _results: &[Word]) {}
        fn live_words(&self) -> u64 {
            0
        }
    }

    /// What `requester` does next, past its think-time sleep.
    fn next_step(requester: &mut dyn Frame) -> StepResult {
        let ctx = StepCtx {
            now: Cycles::ZERO,
            proc: ProcId(0),
        };
        loop {
            match requester.step(&ctx) {
                StepResult::Sleep(_) => {}
                next => return next,
            }
        }
    }

    /// The operation `requester` spawns next.
    fn next_call(requester: &mut dyn Frame) -> Box<dyn Frame> {
        match next_step(requester) {
            StepResult::Call(op) => op,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Where a frame's state sits on the heap.
    fn address(frame: &dyn Frame) -> *const () {
        frame as *const dyn Frame as *const ()
    }

    #[test]
    fn requester_writes_its_next_operation_into_the_returned_box() {
        let mut requester = Requester::new(Serial(0), Cycles::ZERO);
        let first = next_call(&mut requester);
        let at = address(&*first);
        requester.recycle_child(first);
        assert!(requester.spare.is_some(), "the operation box was not kept");
        let second = next_call(&mut requester);
        assert_eq!(address(&*second), at, "the operation box was not reused");
        let op = (second as Box<dyn Any>).downcast::<Numbered>().unwrap();
        assert_eq!(op.0, 2, "stale operation");
    }

    #[test]
    fn requester_drops_a_returned_frame_of_another_type() {
        let mut requester = Requester::new(Serial(0), Cycles::ZERO);
        let dropped = Rc::new(Cell::new(false));
        requester.recycle_child(Box::new(Stranger(dropped.clone())));
        assert!(dropped.get(), "a frame of another type was kept");
        assert!(requester.spare.is_none());
    }

    #[test]
    fn requester_halts_at_its_cap() {
        let mut requester = Requester::new(Serial(0), Cycles(500));
        requester.max_requests = 2;
        let ctx = StepCtx {
            now: Cycles::ZERO,
            proc: ProcId(0),
        };
        assert!(matches!(
            requester.step(&ctx),
            StepResult::Sleep(Cycles(500))
        ));
        for _ in 0..2 {
            let op = next_call(&mut requester);
            requester.on_result(&[0]);
            requester.recycle_child(op);
        }
        assert_eq!(requester.completed, 2);
        assert!(matches!(next_step(&mut requester), StepResult::Halt));
    }

    #[test]
    fn key_stream_deterministic() {
        let mut a = KeyStream::new(7, 1000, 500);
        let mut b = KeyStream::new(7, 1000, 500);
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn key_stream_respects_space() {
        let mut s = KeyStream::new(1, 50, 500);
        for _ in 0..1000 {
            assert!(s.next_request().key < 50);
        }
    }

    #[test]
    fn insert_fraction_approximate() {
        let mut s = KeyStream::new(3, 1_000_000, 250);
        let inserts = (0..10_000).filter(|_| s.next_request().insert).count();
        assert!((2000..3000).contains(&inserts), "inserts {inserts}");
    }

    #[test]
    fn zero_and_full_permille_are_pure() {
        let mut lookups = KeyStream::new(1, 100, 0);
        let mut inserts = KeyStream::new(1, 100, 1000);
        for _ in 0..100 {
            assert!(!lookups.next_request().insert);
            assert!(inserts.next_request().insert);
        }
    }

    #[test]
    fn initial_keys_sorted_distinct_in_space() {
        let keys = initial_keys(10_000, 1 << 32);
        assert_eq!(keys.len(), 10_000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(*keys.last().unwrap() < (1u64 << 32));
    }
}
