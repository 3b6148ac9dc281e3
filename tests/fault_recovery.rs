//! Cross-crate acceptance test for deterministic fault injection and the
//! migration recovery protocol.
//!
//! Under `MachineConfig::faults` the runtime must deliver every message
//! exactly once *semantically* — drops are retried, duplicates suppressed,
//! crash-restarts survived — so capped (drained) runs of both applications
//! must produce byte-for-byte the same application-level results a perfect
//! network would: every counting token exits exactly once, and the B-tree
//! stays structurally valid and holds exactly the initial keys plus the
//! issued inserts.
//! The cycle-accounting audit stays on throughout: recovery work (acks,
//! retries, dedup, reclamation, injected outages) must obey busy == charged
//! like any other task.

use bench::json::Json;
use bench::{failover_schemes, metrics_to_json};
use migrate_apps::btree::{lookup_pure, verify_tree, BTreeExperiment};
use migrate_apps::counting::{has_step_property, CountingExperiment, OutputCounter};
use migrate_rt::{cost, Annotation, Category, DispatchKind, RunMetrics, Scheme};
use proteus::{Cycles, FaultPlan, QueueCounters};

/// Drained counting run under a fault plan: capped drivers, far horizon, so
/// the machine quiesces and the exact token count is checkable.
fn faulted_counting_counts(
    seed: u64,
    plan: FaultPlan,
    requesters: u32,
    per_thread: u64,
    scheme: Scheme,
) -> Vec<u64> {
    let exp = CountingExperiment {
        requests_per_thread: Some(per_thread),
        faults: Some(plan),
        audit: true,
        seed: 0xC0DE ^ seed,
        ..CountingExperiment::paper(requesters, 0, scheme)
    };
    let (mut runner, spec) = exp.build();
    runner.run_until(Cycles(200_000_000));
    // Audit identity must hold over the whole faulted run.
    runner
        .system
        .audit()
        .unwrap_or_else(|e| panic!("audit failed under faults: {e}"));
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
fn counting_tokens_conserved_for_all_schemes_and_seeds() {
    let requesters = 4u32;
    let per_thread = 6u64;
    for (name, scheme) in failover_schemes() {
        for seed in 0..32u64 {
            let counts = faulted_counting_counts(
                seed,
                FaultPlan::chaos(seed),
                requesters,
                per_thread,
                scheme,
            );
            let total: u64 = counts.iter().sum();
            assert_eq!(
                total,
                u64::from(requesters) * per_thread,
                "{name} seed {seed}: tokens lost or duplicated: {counts:?}"
            );
            assert!(
                has_step_property(&counts),
                "{name} seed {seed}: step property broken: {counts:?}"
            );
        }
    }
}

#[test]
fn btree_stays_valid_for_all_schemes_and_seeds() {
    for (name, scheme) in failover_schemes() {
        for seed in 0..32u64 {
            let initial = 120u64;
            let requesters = 4u32;
            let per_thread = 5u64;
            let exp = BTreeExperiment {
                initial_keys: initial,
                fanout: 8,
                data_procs: 8,
                requesters,
                key_space: 1 << 16,
                requests_per_thread: Some(per_thread),
                faults: Some(FaultPlan::chaos(seed)),
                audit: true,
                seed: 0xB7EE ^ seed,
                ..BTreeExperiment::paper(0, scheme)
            };
            let (mut runner, root) = exp.build();
            runner.run_until(Cycles(200_000_000));
            runner
                .system
                .audit()
                .unwrap_or_else(|e| panic!("{name} seed {seed}: audit failed: {e}"));
            let stats = verify_tree(&runner.system, root)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: tree corrupt: {e}"));
            // Exactly-once semantics fix the key set: the initial keys plus
            // every issued insert, each landing once however often its
            // messages were dropped, duplicated or replayed.
            let oracle = exp.drained_keys();
            assert_eq!(
                stats.keys,
                oracle.len() as u64,
                "{name} seed {seed}: key count differs from the oracle"
            );
            for &k in &oracle {
                assert!(
                    lookup_pure(&runner.system, root, k),
                    "{name} seed {seed}: key {k} missing"
                );
            }
        }
    }
}

#[test]
fn same_fault_seed_replays_to_identical_json() {
    for seed in [0u64, 7, 19] {
        let a = bench::fault_cell_counting(seed, Scheme::computation_migration());
        let b = bench::fault_cell_counting(seed, Scheme::computation_migration());
        assert_eq!(
            metrics_to_json(&a).render(),
            metrics_to_json(&b).render(),
            "seed {seed}: fault replay diverged"
        );
        let c = bench::fault_cell_btree(seed, Scheme::rpc());
        let d = bench::fault_cell_btree(seed, Scheme::rpc());
        assert_eq!(
            metrics_to_json(&c).render(),
            metrics_to_json(&d).render(),
            "seed {seed}: btree fault replay diverged"
        );
    }
}

#[test]
fn different_fault_seeds_usually_diverge() {
    // Not an invariant — but if every seed produced identical recovery
    // activity, the injector would not be sampling its stream.
    let a = bench::fault_cell_counting(1, Scheme::computation_migration());
    let b = bench::fault_cell_counting(2, Scheme::computation_migration());
    assert_ne!(
        metrics_to_json(&a).render(),
        metrics_to_json(&b).render(),
        "seeds 1 and 2 produced identical faulted runs"
    );
}

#[test]
fn fault_free_json_has_no_fault_keys() {
    let exp = CountingExperiment {
        audit: true,
        ..CountingExperiment::paper(8, 0, Scheme::computation_migration())
    };
    let m = exp.run(Cycles(20_000), Cycles(60_000));
    assert!(m.recovery.is_none(), "recovery stats on a fault-free run");
    assert!(m.faults.is_none(), "fault stats on a fault-free run");
    assert!(m.runtime_error_codes.is_empty());
    let rendered = metrics_to_json(&m).render();
    for key in ["\"recovery\"", "\"faults\"", "\"runtime_error_codes\""] {
        assert!(
            !rendered.contains(key),
            "fault-free JSON leaks {key}: schema must be byte-stable"
        );
    }
}

/// A plan harsh enough to exhaust migration retries: nearly one in three
/// messages dropped, so some migrations lose all
/// `migrate_rt::system::MAX_MIGRATION_ATTEMPTS` sends and degrade.
fn fallback_metrics(seed: u64) -> RunMetrics {
    let exp = CountingExperiment {
        requests_per_thread: Some(8),
        faults: Some(FaultPlan {
            drop_permille: 300,
            ..FaultPlan::chaos(seed)
        }),
        audit: true,
        ..CountingExperiment::paper(8, 0, Scheme::computation_migration())
    };
    let (mut runner, _spec) = exp.build();
    runner.run_until(Cycles(200_000_000));
    runner.system.metrics(Cycles(200_000_000))
}

#[test]
fn frame_reclaim_charges_are_fallbacks_times_their_cost() {
    // One recovery.frame_reclaim charge per fallback, and no golden run
    // takes a fallback.
    let m = fallback_metrics(3);
    let fallbacks = m.recovery.as_ref().expect("recovery stats").fallbacks;
    assert!(fallbacks > 0);
    assert_eq!(
        m.accounting.total(Category::RecoveryReclaim),
        fallbacks * cost::FRAME_RECLAIM.get()
    );
}

#[test]
fn dedup_charges_are_suppressed_duplicates_times_their_cost() {
    // One recovery.dedup charge per suppressed duplicate copy, whatever
    // kind of message it duplicates.
    let scheme = Scheme::computation_migration();
    let exp = CountingExperiment {
        requests_per_thread: Some(8),
        faults: Some(FaultPlan::chaos(0)),
        audit: true,
        ..CountingExperiment::paper(8, 0, scheme)
    };
    let (mut runner, _spec) = exp.build();
    runner.run_until(Cycles(200_000_000));
    let m = runner.system.metrics(Cycles(200_000_000));
    let suppressed = m
        .recovery
        .as_ref()
        .expect("recovery stats")
        .duplicates_suppressed;
    assert!(suppressed > 0, "chaos seed 0 suppresses no duplicate");
    assert_eq!(
        m.accounting.total(Category::RecoveryDedup),
        suppressed * cost::DEDUP_CHECK.get()
    );
}

#[test]
fn exhausted_migrations_degrade_to_rpc() {
    let m = fallback_metrics(3);
    assert!(
        m.dispatch.count(DispatchKind::RpcFallback) > 0,
        "no RPC fallbacks despite 30% drops"
    );
    let r = m.recovery.as_ref().expect("recovery stats present");
    assert!(r.fallbacks > 0);
    assert!(
        m.dispatch.count(DispatchKind::RpcFallback) <= r.fallbacks,
        "more fallback dispatches than fallbacks taken"
    );
    // The degradation surfaces in the JSON artifact, by its stable label.
    let rendered = metrics_to_json(&m).render();
    assert!(rendered.contains("rpc_fallback"), "JSON lacks rpc_fallback");
    assert!(rendered.contains("\"recovery\""));
    assert!(rendered.contains("migration_timeout"), "error codes absent");
}

#[test]
fn crash_restarts_never_resurrect_finished_threads() {
    // Crash-heavy plan: every processor takes repeated crash-restart windows
    // while capped drivers finish. A terminated driver that a stray Wake or
    // queued Step revives would emit extra tokens and break conservation.
    let requesters = 6u32;
    let per_thread = 5u64;
    for seed in 0..8u64 {
        let plan = FaultPlan {
            crash_permille: 60,
            crash_cycles: Cycles(12_000),
            ..FaultPlan::chaos(seed)
        };
        let counts = faulted_counting_counts(
            seed,
            plan,
            requesters,
            per_thread,
            Scheme::computation_migration(),
        );
        let total: u64 = counts.iter().sum();
        assert_eq!(
            total,
            u64::from(requesters) * per_thread,
            "seed {seed}: resurrection or loss under crash-restart: {counts:?}"
        );
    }
}

#[test]
fn dedup_table_stays_bounded_by_inflight_window() {
    // The receiver-side dedup table must be O(in-flight window), not O(total
    // messages): the acked-below watermark prunes every sequence number no
    // live envelope can replay. After a drained chaos run that delivered
    // thousands of envelopes, at most a handful of entries (unacked
    // stragglers still inside the window) may remain.
    for seed in 0..8u64 {
        let exp = CountingExperiment {
            requests_per_thread: Some(8),
            faults: Some(FaultPlan::chaos(seed)),
            audit: true,
            seed: 0xC0DE ^ seed,
            ..CountingExperiment::paper(8, 0, Scheme::computation_migration())
        };
        let (mut runner, _spec) = exp.build();
        runner.run_until(Cycles(200_000_000));
        let m = runner.system.metrics(Cycles(200_000_000));
        assert!(
            m.messages > 500,
            "seed {seed}: run too small to exercise the table ({} messages)",
            m.messages
        );
        let size = runner.system.dedup_table_size();
        assert!(
            size <= 64,
            "seed {seed}: dedup table grew with message count ({size} entries \
             after {} messages) — watermark pruning broken",
            m.messages
        );
    }
}

#[test]
fn crash_during_frame_transfer_completes_migration_exactly_once() {
    // Crash-restart windows and drops land mid frame transfer: the victim
    // dies holding queued Migration deliveries, restarts, and the sender's
    // retransmission either completes the migration (late ack suppresses the
    // duplicate) or exhausts its budget and degrades to RpcFallback. Either
    // way the operation must run EXACTLY once — a double-executed migration
    // would emit a duplicate token and break conservation; a lost one would
    // break the total. At 15% drops some migrations exhaust their attempts,
    // so the fallback path triggers alongside successful retransmissions
    // across the seed sweep.
    let requesters = 6u32;
    let per_thread = 5u64;
    let mut fallbacks_seen = 0u64;
    for seed in 0..16u64 {
        let plan = FaultPlan {
            drop_permille: 150,
            crash_permille: 80,
            crash_cycles: Cycles(15_000),
            ..FaultPlan::chaos(seed)
        };
        let exp = CountingExperiment {
            requests_per_thread: Some(per_thread),
            faults: Some(plan),
            audit: true,
            seed: 0xC0DE ^ seed,
            ..CountingExperiment::paper(requesters, 0, Scheme::computation_migration())
        };
        let (mut runner, spec) = exp.build();
        runner.run_until(Cycles(200_000_000));
        runner
            .system
            .audit()
            .unwrap_or_else(|e| panic!("seed {seed}: audit failed: {e}"));
        let total: u64 = spec
            .counters_in_output_order()
            .iter()
            .map(|&g| {
                runner
                    .system
                    .objects()
                    .state::<OutputCounter>(g)
                    .expect("counter")
                    .count
            })
            .sum();
        assert_eq!(
            total,
            u64::from(requesters) * per_thread,
            "seed {seed}: a migration executed twice or vanished mid-transfer"
        );
        let m = runner.system.metrics(Cycles(200_000_000));
        fallbacks_seen += m.dispatch.count(DispatchKind::RpcFallback);
    }
    assert!(
        fallbacks_seen > 0,
        "sweep never exercised the degraded-to-RPC path"
    );
}

#[test]
fn fault_sweep_json_is_deterministic() {
    let rows_a = bench::fault_sweep(5);
    let rows_b = bench::fault_sweep(5);
    let ja = bench::rows_to_json(&rows_a).render();
    let jb = bench::rows_to_json(&rows_b).render();
    assert_eq!(ja, jb, "fault sweep not reproducible");
    // Every faulted row carries the recovery/fault sections.
    match bench::json::parse(&ja).expect("sweep JSON parses") {
        Json::Arr(rows) => {
            assert_eq!(rows.len(), 4);
            for row in rows {
                let rendered = row.render();
                assert!(rendered.contains("\"recovery\""));
                assert!(rendered.contains("\"faults\""));
            }
        }
        other => panic!("expected array, got {other:?}"),
    }
}

/// The event queue's work counters, pinned exactly for one fault-injected
/// cell: counting-16 under CP with adaptive dispatch and the seed-0 chaos
/// plan, 2 M cycles from a cold start. Retransmission timers (25,000 cycles
/// and their backoffs) land in the coarse wheel and move into the fine
/// wheel when the clock reaches their bucket; under 0.1% of the events
/// overflow to the heap.
#[test]
fn chaos_cell_queue_counters_are_pinned() {
    let exp = CountingExperiment {
        annotation: Annotation::Auto,
        faults: Some(FaultPlan::chaos(0)),
        ..CountingExperiment::paper(16, 0, Scheme::computation_migration())
    };
    let (mut runner, _spec) = exp.build();
    let (metrics, profile) = runner.run_profiled(Cycles::ZERO, Cycles(2_000_000));
    assert_eq!(profile.events, 61_671);
    assert_eq!(
        profile.queue,
        QueueCounters {
            coarse_schedules: 13_307,
            overflow_schedules: 18,
            bucket_moves: 13_177,
        }
    );
    // Every first send and every retry arms a timer in the coarse wheel.
    let recovery = metrics.recovery.expect("recovery stats");
    assert!(profile.queue.coarse_schedules > recovery.retries);
    assert!(profile.queue.overflow_schedules * 1_000 < profile.events);
}

/// A fault-free message-passing cell schedules nothing past the coarse
/// wheel's reach.
#[test]
fn fault_free_cell_never_overflows_the_coarse_wheel() {
    let exp = CountingExperiment::paper(16, 0, Scheme::computation_migration());
    let (mut runner, _spec) = exp.build();
    let (_, profile) = runner.run_profiled(Cycles::ZERO, Cycles(2_000_000));
    assert!(profile.events > 10_000);
    assert_eq!(profile.queue.overflow_schedules, 0);
}
