//! Property tests for the distributed B-tree.
//!
//! The simulated tree — bulk-loaded, then mutated by concurrent simulated
//! operations under every mechanism — must always satisfy the B-link
//! invariants and agree with a `std::collections::BTreeSet` oracle on
//! membership.
//!
//! `simulated_ops_agree_with_btreeset_oracle_long` is `#[ignore]`d: it runs
//! the oracle property for 4,800 cases. Run it with
//! `cargo test --release -p migrate-apps --test btree_props -- --include-ignored`.

use std::collections::BTreeSet;

use migrate_apps::btree::{bulk_load, lookup_pure, verify_tree, BTreeExperiment, BTreeOp};
use migrate_rt::{Annotation, Frame, MachineConfig, Runner, Scheme, StepCtx, StepResult, Word};
use proptest::prelude::*;
use proteus::{Cycles, ProcId};

/// A scripted driver: runs exactly the given operations, then halts.
struct ScriptedDriver {
    root: migrate_rt::Goid,
    script: Vec<(u64, bool)>, // (key, insert)
    next: usize,
}

impl Frame for ScriptedDriver {
    fn step(&mut self, _ctx: &StepCtx) -> StepResult {
        match self.script.get(self.next) {
            Some(&(key, insert)) => {
                self.next += 1;
                let op = BTreeOp::new(self.root, key, insert, Annotation::Migrate);
                StepResult::Call(Box::new(op))
            }
            None => StepResult::Halt,
        }
    }
    fn on_result(&mut self, _r: &[Word]) {}
    fn live_words(&self) -> u64 {
        3
    }
}

fn keyset() -> impl Strategy<Value = BTreeSet<u64>> {
    proptest::collection::btree_set(0u64..100_000, 2..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bulk_load_is_faithful(keys in keyset(), fanout in 4usize..32) {
        let mut runner = Runner::new({
            let mut cfg = MachineConfig::new(8, Scheme::rpc());
            cfg.data_procs = (0..8).map(ProcId).collect();
            cfg
        });
        let sorted: Vec<u64> = keys.iter().copied().collect();
        let root = bulk_load(&mut runner.system, &sorted, fanout, 50, 8, 7);
        let stats = verify_tree(&runner.system, root).map_err(TestCaseError::fail)?;
        prop_assert_eq!(stats.keys, sorted.len() as u64);
        // Every loaded key is found; neighbours that were not loaded are not.
        for &k in sorted.iter().take(50) {
            prop_assert!(lookup_pure(&runner.system, root, k));
        }
        for k in (0..100_000u64).step_by(striding(&keys)) {
            prop_assert_eq!(lookup_pure(&runner.system, root, k), keys.contains(&k));
        }
    }

    #[test]
    fn simulated_ops_agree_with_btreeset_oracle(
        initial in keyset(),
        ops in ops(),
        scheme_idx in 0usize..4,
    ) {
        agrees_with_btreeset_oracle(&initial, &ops, scheme_idx)?;
    }

    #[test]
    fn tree_never_corrupts_under_insert_storm(seed in 0u64..1_000) {
        // Insert-only storm on a tiny tree: many splits, including root
        // growth, under computation migration.
        let exp = BTreeExperiment {
            initial_keys: 16,
            fanout: 4,
            data_procs: 6,
            requesters: 4,
            think: Cycles::ZERO,
            scheme: Scheme::computation_migration(),
            insert_permille: 1000,
            key_space: 10_000,
            node_compute: 40,
            cost_override: None,
            requests_per_thread: None,
            seed,
            audit: true,
            faults: None,
            failover: migrate_rt::FailoverConfig::default(),
            annotation: migrate_rt::Annotation::Migrate,
        };
        let (mut runner, root) = exp.build();
        runner.run_until(Cycles(1_500_000));
        let stats = verify_tree(&runner.system, root).map_err(TestCaseError::fail)?;
        prop_assert!(stats.keys >= 16);
        prop_assert!(stats.height >= 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_800))]

    /// The oracle property over 100 times as many cases (ignored by
    /// default; CI runs it in release).
    #[test]
    #[ignore]
    fn simulated_ops_agree_with_btreeset_oracle_long(
        initial in keyset(),
        ops in ops(),
        scheme_idx in 0usize..4,
    ) {
        agrees_with_btreeset_oracle(&initial, &ops, scheme_idx)?;
    }
}

/// Up to 120 `(key, insert)` operations.
fn ops() -> impl Strategy<Value = Vec<(u64, bool)>> {
    proptest::collection::vec((0u64..100_000, any::<bool>()), 1..120)
}

/// Bulk-load `initial`, run `ops` split between two concurrent scripted
/// drivers under scheme `scheme_idx`, and check the drained tree against
/// a `BTreeSet` of the initial keys plus every inserted key.
fn agrees_with_btreeset_oracle(
    initial: &BTreeSet<u64>,
    ops: &[(u64, bool)],
    scheme_idx: usize,
) -> Result<(), TestCaseError> {
    let scheme = [
        Scheme::rpc(),
        Scheme::computation_migration(),
        Scheme::computation_migration().with_replication(),
        Scheme::shared_memory(),
    ][scheme_idx];
    let mut cfg = MachineConfig::new(10, scheme);
    cfg.data_procs = (0..8).map(ProcId).collect();
    cfg.replica_procs = vec![ProcId(8), ProcId(9)];
    let mut runner = Runner::new(cfg);
    let sorted: Vec<u64> = initial.iter().copied().collect();
    let root = bulk_load(&mut runner.system, &sorted, 8, 50, 8, 11);

    // Two concurrent scripted drivers split the op list.
    let mid = ops.len() / 2;
    for (i, chunk) in [&ops[..mid], &ops[mid..]].iter().enumerate() {
        runner.spawn(
            ProcId(8 + i as u32),
            Box::new(ScriptedDriver {
                root,
                script: chunk.to_vec(),
                next: 0,
            }),
        );
    }
    runner.run_until(Cycles(80_000_000));

    // Oracle: the initial set plus every inserted key.
    let mut oracle = initial.clone();
    for &(k, insert) in ops {
        if insert {
            oracle.insert(k);
        }
    }
    let stats = verify_tree(&runner.system, root).map_err(TestCaseError::fail)?;
    prop_assert_eq!(stats.keys, oracle.len() as u64, "key count mismatch");
    // Membership spot checks: every scripted key and its neighbours.
    for &(k, _) in ops {
        prop_assert_eq!(
            lookup_pure(&runner.system, root, k),
            oracle.contains(&k),
            "key {}",
            k
        );
        let probe = k.wrapping_add(1) % 100_000;
        prop_assert_eq!(
            lookup_pure(&runner.system, root, probe),
            oracle.contains(&probe),
            "probe {}",
            probe
        );
    }
    Ok(())
}

/// Pick a probe stride that keeps the negative-membership scan cheap.
fn striding(keys: &BTreeSet<u64>) -> usize {
    (100_000 / (keys.len().max(1) * 4)).max(97)
}
