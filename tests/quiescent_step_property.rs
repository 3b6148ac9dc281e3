//! The counting network's correctness condition, at quiescence.
//!
//! A counting network guarantees the *step property* on its output wires
//! once every token has exited. We cap each driver, run the machine to
//! quiescence, and check the exact property under every scheme and several
//! thread counts — concurrent interleavings (including migrations and lock
//! contention) must never break it, because the annotation/mechanism choice
//! affects only performance (§3.1).

use std::cell::RefCell;
use std::rc::Rc;

use migrate_apps::counting::{has_step_property, CountingExperiment, OutputCounter, Traversals};
use migrate_apps::workload::Requester;
use migrate_rt::{Frame, Scheme, StepCtx, StepResult, Word};
use proteus::{Cycles, ProcId};

fn drained_counts(requesters: u32, per_thread: u64, scheme: Scheme) -> Vec<u64> {
    let exp = CountingExperiment {
        requests_per_thread: Some(per_thread),
        ..CountingExperiment::paper(requesters, 0, scheme)
    };
    let (mut runner, spec) = exp.build();
    // Far horizon: drivers halt after their caps, so the machine quiesces.
    runner.run_until(Cycles(50_000_000));
    spec.counters_in_output_order()
        .iter()
        .map(|&g| {
            runner
                .system
                .objects()
                .state::<OutputCounter>(g)
                .expect("counter")
                .count
        })
        .collect()
}

#[test]
fn step_property_under_computation_migration() {
    for requesters in [1u32, 3, 8, 16] {
        let counts = drained_counts(requesters, 25, Scheme::computation_migration());
        let total: u64 = counts.iter().sum();
        assert_eq!(total, u64::from(requesters) * 25, "all tokens exited");
        assert!(
            has_step_property(&counts),
            "{requesters} threads: {counts:?}"
        );
    }
}

#[test]
fn step_property_under_rpc() {
    let counts = drained_counts(8, 20, Scheme::rpc());
    assert_eq!(counts.iter().sum::<u64>(), 160);
    assert!(has_step_property(&counts), "{counts:?}");
}

#[test]
fn step_property_under_shared_memory() {
    let counts = drained_counts(8, 20, Scheme::shared_memory());
    assert_eq!(counts.iter().sum::<u64>(), 160);
    assert!(has_step_property(&counts), "{counts:?}");
}

#[test]
fn step_property_with_hardware_support() {
    let counts = drained_counts(16, 15, Scheme::computation_migration().with_hardware());
    assert_eq!(counts.iter().sum::<u64>(), 240);
    assert!(has_step_property(&counts), "{counts:?}");
}

/// What one requester saw: every value its traversals returned, where on
/// the heap each traversal frame it spawned sat, and how many finished
/// frames came back to it.
#[derive(Default)]
struct Log {
    values: Vec<Word>,
    frames: Vec<*const ()>,
    handed_back: usize,
}

/// The app's own requester, wrapped to record its traversals.
struct Recorder {
    driver: Requester<Traversals>,
    log: Rc<RefCell<Log>>,
}

impl Frame for Recorder {
    fn step(&mut self, ctx: &StepCtx) -> StepResult {
        let next = self.driver.step(ctx);
        if let StepResult::Call(op) = &next {
            let at = &**op as *const dyn Frame as *const ();
            self.log.borrow_mut().frames.push(at);
        }
        next
    }
    fn on_result(&mut self, results: &[Word]) {
        self.log.borrow_mut().values.push(results[0]);
        self.driver.on_result(results);
    }
    fn live_words(&self) -> u64 {
        self.driver.live_words()
    }
    fn recycle_child(&mut self, child: Box<dyn Frame>) {
        self.log.borrow_mut().handed_back += 1;
        self.driver.recycle_child(child);
    }
}

/// Run `requesters` recording drivers of `per_thread` tokens each to
/// quiescence and return their logs.
fn drained_logs(requesters: u32, per_thread: u64, scheme: Scheme) -> Vec<Log> {
    // The experiment's own drivers halt at once; recorders take their
    // processors, after the balancers.
    let exp = CountingExperiment {
        requests_per_thread: Some(0),
        ..CountingExperiment::paper(requesters, 0, scheme)
    };
    let (mut runner, spec) = exp.build();
    let first = spec.wiring.balancers() as u32;
    let logs: Vec<_> = (0..requesters)
        .map(|r| {
            let log = Rc::new(RefCell::new(Log::default()));
            let traversals = Traversals {
                spec: spec.clone(),
                entry_wire: r % 8,
            };
            let mut driver = Requester::new(traversals, Cycles::ZERO);
            driver.max_requests = per_thread;
            let recorder = Recorder {
                driver,
                log: log.clone(),
            };
            runner.spawn(ProcId(first + r), Box::new(recorder));
            log
        })
        .collect();
    runner.run_until(Cycles(50_000_000));
    logs.into_iter().map(|l| l.take()).collect()
}

#[test]
fn values_partition_the_range() {
    // Beyond the step property: the values the operations returned are
    // exactly 0..total, each once. A traversal written into a reused frame
    // that kept its last value would return that value again.
    for scheme in [
        Scheme::computation_migration(),
        Scheme::rpc(),
        Scheme::shared_memory(),
    ] {
        let logs = drained_logs(4, 10, scheme);
        let mut values: Vec<Word> = logs.iter().flat_map(|l| l.values.clone()).collect();
        values.sort_unstable();
        assert_eq!(values, (0..40).collect::<Vec<Word>>(), "{scheme:?}");
    }
}

#[test]
fn migrated_traversals_reuse_their_drivers_frame() {
    // Under CM every traversal leaves its requester and its value comes
    // home in an `OperationReturn`; the frame goes back to the driver, so
    // each driver's traversals all sit in its first one's allocation. The
    // allocator may put a freed box back at the same address, so the count
    // of frames handed back is what shows the hand-over.
    for log in drained_logs(4, 10, Scheme::computation_migration()) {
        assert_eq!(log.frames.len(), 10);
        assert_eq!(
            log.handed_back, 10,
            "a finished traversal was not handed back"
        );
        assert!(
            log.frames.iter().all(|&at| at == log.frames[0]),
            "a traversal was not written into the driver's returned frame"
        );
    }
}
