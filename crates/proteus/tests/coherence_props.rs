//! Property tests for the directory coherence protocol.
//!
//! Random access sequences from random processors must never violate the
//! directory invariants (single Modified owner, sharer sets consistent with
//! cache contents), and basic protocol economics (hits after fetch,
//! determinism) must hold on every path.

use proptest::prelude::*;
use proteus::coherence::{make_addr, Access};
use proteus::{CacheConfig, CoherenceCosts, CoherenceSystem, Cycles, Network, ProcId};

const PROCS: u32 = 6;

fn system() -> (CoherenceSystem, Network) {
    // A tiny cache so evictions occur within short random sequences.
    let cache = CacheConfig {
        size_bytes: 512,
        line_bytes: 16,
        ways: 2,
    };
    (
        CoherenceSystem::new(PROCS, cache, CoherenceCosts::default()),
        Network::new(PROCS),
    )
}

#[derive(Clone, Debug)]
struct Op {
    proc: u32,
    home: u32,
    offset: u64,
    write: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..PROCS, 0..PROCS, 0u64..64, any::<bool>()).prop_map(|(proc, home, slot, write)| Op {
        proc,
        home,
        offset: slot * 16,
        write,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn invariants_hold_under_random_traffic(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let (mut sys, mut net) = system();
        let mut t = Cycles::ZERO;
        for op in &ops {
            let kind = if op.write { Access::Write } else { Access::Read };
            let addr = make_addr(ProcId(op.home), op.offset);
            let out = sys.access(ProcId(op.proc), addr, kind, &mut net, t);
            prop_assert!(out.latency > Cycles::ZERO);
            t = t + out.latency + Cycles(10);
            sys.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn access_after_fetch_hits(proc in 0..PROCS, home in 0..PROCS, slot in 0u64..32, write in any::<bool>()) {
        let (mut sys, mut net) = system();
        let kind = if write { Access::Write } else { Access::Read };
        let addr = make_addr(ProcId(home), slot * 16);
        let first = sys.access(ProcId(proc), addr, kind, &mut net, Cycles::ZERO);
        prop_assert!(!first.hit);
        let second = sys.access(ProcId(proc), addr, kind, &mut net, first.latency);
        prop_assert!(second.hit, "immediate re-access must hit");
        // A hit generates no traffic.
        let before = net.traffic().clone();
        sys.access(ProcId(proc), addr, kind, &mut net, Cycles(10_000));
        prop_assert_eq!(net.traffic(), &before);
    }

    #[test]
    fn writer_invalidates_every_reader(readers in proptest::collection::btree_set(0..PROCS, 1..5), slot in 0u64..16) {
        let (mut sys, mut net) = system();
        let addr = make_addr(ProcId(0), slot * 16);
        for &r in &readers {
            sys.access(ProcId(r), addr, Access::Read, &mut net, Cycles::ZERO);
        }
        let writer = ProcId(5);
        sys.access(writer, addr, Access::Write, &mut net, Cycles(1_000));
        sys.check_invariants().map_err(TestCaseError::fail)?;
        // After the write, every previous reader misses again.
        for &r in &readers {
            if ProcId(r) != writer {
                let out = sys.access(ProcId(r), addr, Access::Read, &mut net, Cycles(2_000));
                prop_assert!(!out.hit, "reader P{r} must have been invalidated");
                break; // only the first re-reader is guaranteed to miss (it resharess the line)
            }
        }
    }

    #[test]
    fn replay_is_deterministic(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let run = |ops: &[Op]| {
            let (mut sys, mut net) = system();
            let mut latencies = Vec::new();
            let mut t = Cycles::ZERO;
            for op in ops {
                let kind = if op.write { Access::Write } else { Access::Read };
                let addr = make_addr(ProcId(op.home), op.offset);
                let out = sys.access(ProcId(op.proc), addr, kind, &mut net, t);
                t += out.latency;
                latencies.push(out.latency.get());
            }
            (latencies, net.traffic().clone())
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }

    #[test]
    fn traffic_only_grows(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let (mut sys, mut net) = system();
        let mut last_words = 0;
        let mut t = Cycles::ZERO;
        for op in &ops {
            let kind = if op.write { Access::Write } else { Access::Read };
            let addr = make_addr(ProcId(op.home), op.offset);
            let out = sys.access(ProcId(op.proc), addr, kind, &mut net, t);
            t += out.latency;
            prop_assert!(net.traffic().words >= last_words);
            last_words = net.traffic().words;
        }
    }

    #[test]
    fn occupancy_never_reorders_time(slot in 0u64..8, n in 2u32..6) {
        // Back-to-back conflicting accesses at the same nominal time queue:
        // each gets a strictly larger completion time.
        let (mut sys, mut net) = system();
        let addr = make_addr(ProcId(0), slot * 16);
        let mut completions = Vec::new();
        for p in 1..=n {
            let out = sys.access(ProcId(p % PROCS), addr, Access::Write, &mut net, Cycles::ZERO);
            completions.push(out.latency.get());
        }
        let mut sorted = completions.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&completions, &sorted, "hot-line transactions serialize");
        prop_assert!(completions.windows(2).all(|w| w[0] < w[1]));
    }
}
