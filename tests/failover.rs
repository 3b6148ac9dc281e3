//! Cross-crate acceptance tests for permanent-crash failover: heartbeat
//! failure detection, primary-backup replication, and deterministic
//! re-homing.
//!
//! Three contracts, per ISSUE acceptance criteria:
//!
//! 1. **No false positives.** On a fault-free machine the detector must stay
//!    silent for every scheme and seed: probes ride the reliable layer's
//!    fast path and are acked on delivery, so the retry budget can never
//!    exhaust.
//! 2. **No false negatives.** A permanently crashed processor is always
//!    declared dead — by exactly one suspicion and one promotion — no
//!    matter when it dies or which scheme carries the traffic.
//! 3. **Applications survive.** With one processor killed mid-run, both
//!    applications drain to a valid terminal state: counting tokens are
//!    conserved (modulo threads that died with the victim — measured zero
//!    across this sweep) and the B-tree keeps every structural invariant.
//!    The per-cell asserts live in `bench::failover_cell_*`; the sweep here
//!    just drives them across seeds × schemes.

use bench::{failover_cell_btree, failover_cell_counting, failover_schemes};
use migrate_apps::counting::CountingExperiment;
use migrate_rt::system::DETECTION_LATENCY_BOUND;
use migrate_rt::{cost, Category, FailoverConfig};
use proteus::{Cycles, FaultPlan, ProcId, Tracer};

/// Trace events a crash run keeps: every event of the run fits, so the
/// kill and its declaration are both still there at the end.
const TRACE_CAPACITY: usize = 1 << 16;

/// A small fault-free counting run with the failure detector on. The
/// fault plan injects nothing; it gives the probes acked envelopes, so a
/// probe that went unacknowledged would time out and be suspected.
fn fault_free_failover_run(seed: u64, scheme: migrate_rt::Scheme) -> migrate_rt::Runner {
    let exp = CountingExperiment {
        requests_per_thread: Some(4),
        faults: Some(FaultPlan::disabled()),
        failover: FailoverConfig { enabled: true },
        audit: true,
        seed: 0xC0DE ^ seed,
        ..CountingExperiment::paper(4, 0, scheme)
    };
    let (mut runner, _spec) = exp.build();
    runner.run_until(Cycles(1_000_000));
    runner
}

#[test]
fn fault_free_detector_never_suspects() {
    for (name, scheme) in failover_schemes() {
        for seed in 0..64u64 {
            let runner = fault_free_failover_run(seed, scheme);
            let f = runner.system.failover_stats();
            assert_eq!(
                f.suspicions, 0,
                "{name} seed {seed}: false-positive suspicion on a fault-free machine"
            );
            assert_eq!(f.promotions, 0, "{name} seed {seed}");
            assert_eq!(f.rehomed_objects, 0, "{name} seed {seed}");
            assert!(
                f.heartbeats_sent > 0,
                "{name} seed {seed}: detector never probed"
            );
            runner
                .system
                .audit()
                .unwrap_or_else(|e| panic!("{name} seed {seed}: audit failed: {e}"));
        }
    }
}

#[test]
fn permanent_crash_is_always_declared() {
    let scheme = migrate_rt::Scheme::computation_migration();
    let mut largest_gap = Cycles::ZERO;
    for seed in 0..64u64 {
        // Vary both the victim and the kill time across seeds.
        let victim = ProcId((seed % 24) as u32);
        let at = Cycles(5_000 + 4_000 * (seed % 16));
        let exp = CountingExperiment {
            requests_per_thread: Some(4),
            faults: Some(FaultPlan::fail_stop(victim, at)),
            failover: FailoverConfig { enabled: true },
            audit: true,
            seed: 0xC0DE ^ seed,
            ..CountingExperiment::paper(4, 0, scheme)
        };
        let (mut runner, _spec) = exp.build();
        let (tracer, sink) = Tracer::ring(TRACE_CAPACITY);
        runner.set_tracer(tracer);
        runner.run_until(Cycles(2_000_000));
        assert!(
            runner.system.is_failed(victim),
            "seed {seed}: kill never executed"
        );
        assert!(
            runner.system.is_declared_dead(victim),
            "seed {seed}: victim {victim:?} (killed at {at:?}) never declared dead"
        );
        let f = runner.system.failover_stats();
        assert_eq!(f.suspicions, 1, "seed {seed}: {f:?}");
        assert_eq!(f.promotions, 1, "seed {seed}: {f:?}");
        runner
            .system
            .audit()
            .unwrap_or_else(|e| panic!("seed {seed}: audit failed: {e}"));

        let sink = sink.borrow();
        assert!(
            sink.recorded() <= TRACE_CAPACITY as u64,
            "seed {seed}: the ring dropped events"
        );
        let declared = sink
            .events()
            .find(|e| e.kind == "suspect")
            .unwrap_or_else(|| panic!("seed {seed}: no suspect event traced"))
            .at;
        let gap = declared - at;
        assert!(
            gap <= DETECTION_LATENCY_BOUND,
            "seed {seed}: {victim:?} killed at {at:?} was declared at {declared:?}, \
             {gap:?} later, past the {DETECTION_LATENCY_BOUND:?} bound"
        );
        largest_gap = largest_gap.max(gap);
    }
    println!(
        "largest kill-to-declaration gap: {} cycles (bound {})",
        largest_gap.get(),
        DETECTION_LATENCY_BOUND.get()
    );
}

#[test]
fn counting_survives_processor_death_for_all_schemes_and_seeds() {
    for (name, scheme) in failover_schemes() {
        for seed in 0..32u64 {
            // failover_cell_counting panics on any validity violation:
            // duplicated tokens, lost tokens beyond dead threads, missing or
            // repeated promotion, open audit.
            let m = failover_cell_counting(seed, scheme);
            let f = m.failover.as_ref().expect("failover stats present");
            assert_eq!(f.promotions, 1, "{name} seed {seed}");
        }
    }
}

#[test]
fn btree_survives_processor_death_for_all_schemes_and_seeds() {
    for (name, scheme) in failover_schemes() {
        for seed in 0..32u64 {
            // failover_cell_btree panics on any validity violation: corrupt
            // tree, key-population bounds, missing or repeated promotion,
            // open audit.
            let m = failover_cell_btree(seed, scheme);
            let f = m.failover.as_ref().expect("failover stats present");
            assert_eq!(f.promotions, 1, "{name} seed {seed}");
        }
    }
}

#[test]
fn replication_disabled_runs_carry_no_failover_stats() {
    let exp = CountingExperiment {
        audit: true,
        ..CountingExperiment::paper(8, 0, migrate_rt::Scheme::computation_migration())
    };
    let m = exp.run(Cycles(20_000), Cycles(60_000));
    assert!(m.failover.is_none(), "failover stats on a disabled run");
    let rendered = bench::metrics_to_json(&m).render();
    assert!(
        !rendered.contains("\"failover\""),
        "disabled-path JSON leaks the failover key: schema must be byte-stable"
    );
}

#[test]
fn failover_sweep_json_is_deterministic() {
    let rows_a = bench::failover_sweep(7);
    let rows_b = bench::failover_sweep(7);
    assert_eq!(
        bench::rows_to_json(&rows_a).render(),
        bench::rows_to_json(&rows_b).render(),
        "failover sweep not reproducible"
    );
}

#[test]
fn replication_traffic_is_charged_and_audited() {
    // A failover run must close the cycle audit (busy == charged) with
    // replication deltas and recovery work included, and the new audited
    // categories must actually receive charges.
    let m = failover_cell_counting(1, migrate_rt::Scheme::computation_migration());
    let f = m.failover.as_ref().expect("failover stats");
    assert!(f.replication_deltas > 0, "no deltas shipped: {f:?}");
    assert!(f.heartbeats_sent > 0);
    let acct = &m.accounting;
    for cat in [
        Category::RecoveryHeartbeat,
        Category::RecoverySuspicion,
        Category::RecoveryPromotion,
        Category::RecoveryRehome,
        Category::ReplicationDeltaSend,
        Category::ReplicationDeltaApply,
    ] {
        assert!(acct.total(cat) > 0, "{} never charged", cat.name());
    }
}

#[test]
fn reroute_charges_are_rerouted_calls_times_their_cost() {
    // One recovery.reroute charge per rerouted envelope; the failover
    // golden's cells happen to reroute nothing.
    let scheme = migrate_rt::Scheme::computation_migration();
    let m = failover_cell_counting(1, scheme);
    let rerouted = m.failover.as_ref().expect("failover stats").rerouted_calls;
    assert!(rerouted > 0, "seed 1 reroutes no envelope");
    assert_eq!(
        m.accounting.total(Category::RecoveryReroute),
        rerouted * cost::REROUTE.get()
    );
}
