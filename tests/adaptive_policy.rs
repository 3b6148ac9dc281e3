//! Acceptance tests for adaptive dispatch (`Annotation::Auto`).
//!
//! Three properties ride the whole stack:
//! * same-seed adaptive runs serialize to byte-identical JSON artifacts;
//! * the busy == charged cycle audit stays green under `Auto` on both
//!   applications;
//! * the policy never emits a dispatch mechanism the scheme forbids —
//!   under a migration-disabled scheme an `Auto` site must degrade to
//!   RPC, never migrate, and the policy machinery stays fully inert.

use bench::metrics_to_json;
use migrate_apps::btree::BTreeExperiment;
use migrate_apps::counting::CountingExperiment;
use migrate_rt::{cost, Annotation, Category, DispatchKind, RunMetrics, Scheme};
use proptest::prelude::*;
use proteus::Cycles;

/// A small audited B-tree run with every call site annotated `Auto`.
fn adaptive_btree(seed: u64, scheme: Scheme) -> RunMetrics {
    let exp = BTreeExperiment {
        initial_keys: 200,
        data_procs: 6,
        requesters: 4,
        seed,
        annotation: Annotation::Auto,
        audit: true,
        ..BTreeExperiment::paper(0, scheme)
    };
    let (mut runner, _root) = exp.build();
    let metrics = runner.run(Cycles(40_000), Cycles(120_000));
    runner.system.audit().expect("audit must close under Auto");
    metrics
}

/// A small audited counting-network run with every call site `Auto`.
fn adaptive_counting(seed: u64, scheme: Scheme) -> RunMetrics {
    let exp = CountingExperiment {
        seed,
        annotation: Annotation::Auto,
        audit: true,
        ..CountingExperiment::paper(8, 0, scheme)
    };
    let (mut runner, _spec) = exp.build();
    let metrics = runner.run(Cycles(30_000), Cycles(90_000));
    runner.system.audit().expect("audit must close under Auto");
    metrics
}

#[test]
fn adaptive_artifacts_are_byte_identical_across_runs() {
    for seed in [0u64, 7] {
        let a = metrics_to_json(&adaptive_btree(seed, Scheme::computation_migration())).render();
        let b = metrics_to_json(&adaptive_btree(seed, Scheme::computation_migration())).render();
        assert_eq!(a, b, "btree seed {seed} not deterministic");
        assert!(a.contains("\"policy\""), "adaptive artifact lacks policy");
        let c = metrics_to_json(&adaptive_counting(seed, Scheme::computation_migration())).render();
        let d = metrics_to_json(&adaptive_counting(seed, Scheme::computation_migration())).render();
        assert_eq!(c, d, "counting seed {seed} not deterministic");
        assert!(c.contains("\"policy\""), "adaptive artifact lacks policy");
    }
}

#[test]
fn audit_stays_green_under_auto_on_both_apps() {
    let m = adaptive_btree(3, Scheme::computation_migration());
    let p = m.policy.as_ref().expect("policy stats under Auto");
    assert!(p.decisions > 0, "no decisions: {p:?}");
    assert!(p.episodes > 0, "no episodes: {p:?}");
    assert!(m.migrations > 0, "Auto never migrated the hot descents");
    let m = adaptive_counting(3, Scheme::computation_migration());
    let p = m.policy.as_ref().expect("policy stats under Auto");
    assert!(p.decisions > 0, "no decisions: {p:?}");
    assert!(m.migrations > 0, "Auto never migrated the traversals");
}

#[test]
fn policy_charges_are_decisions_and_episodes_times_their_cost() {
    // policy.decide and policy.update each have one charge site, paired
    // with one counter: a swapped category there would pass every golden,
    // since no golden runs `Auto`.
    let scheme = Scheme::computation_migration();
    for m in [adaptive_btree(3, scheme), adaptive_counting(3, scheme)] {
        let p = m.policy.as_ref().expect("policy stats under Auto");
        assert!(p.decisions > 0 && p.episodes > 0, "{p:?}");
        assert_eq!(
            m.accounting.total(Category::PolicyDecide),
            p.decisions * cost::POLICY_DECIDE.get()
        );
        assert_eq!(
            m.accounting.total(Category::PolicyUpdate),
            p.episodes * cost::POLICY_UPDATE.get()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the policy decides, the scheme has the final word: a
    /// migration-disabled scheme must never see a migration dispatch from
    /// an `Auto` site, and with migration disabled the policy must stay
    /// fully inert (no stats, no migrations).
    #[test]
    fn policy_never_emits_a_forbidden_dispatch_kind(
        seed in 0u64..1_000,
        scheme_idx in 0usize..4,
        counting in any::<bool>(),
    ) {
        let scheme = [
            Scheme::rpc(),
            Scheme::shared_memory(),
            Scheme::computation_migration(),
            Scheme::computation_migration().with_replication(),
        ][scheme_idx];
        let m = if counting {
            adaptive_counting(seed, scheme)
        } else {
            adaptive_btree(seed, scheme)
        };
        for (site, kind, count) in m.dispatch.rows() {
            if count == 0 {
                continue;
            }
            let migratory = matches!(kind, DispatchKind::Migration | DispatchKind::Remigration);
            prop_assert!(
                scheme.migration || !migratory,
                "scheme {:?} forbids migration but site {} dispatched {:?} x{}",
                scheme, site, kind, count
            );
        }
        if scheme.migration {
            prop_assert!(m.policy.is_some(), "policy silent under a migration scheme");
        } else {
            prop_assert!(m.policy.is_none(), "policy active under a forbidding scheme");
            prop_assert_eq!(m.migrations, 0);
        }
    }
}
