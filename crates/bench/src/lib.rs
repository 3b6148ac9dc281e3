//! # bench — experiment harness for every table and figure
//!
//! Shared runners behind the `experiments` binary, which prints the paper's
//! tables/figures from fresh simulations, and the host-speed benchmark in
//! `perfbench/`. Each function corresponds to one artifact of the paper's
//! evaluation; DESIGN.md §4 maps them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use migrate_apps::btree::BTreeExperiment;
use migrate_apps::counting::{CountingExperiment, Topology};
use migrate_rt::{Accounting, Annotation, Category, CostModel, RunMetrics, Runner, Scheme};
use proteus::{CoherenceCosts, Cycles, ProcId};

pub mod json;
pub mod pool;

use json::{obj, Json};

/// Default warm-up for counting-network points.
pub const COUNTING_WARMUP: Cycles = Cycles(150_000);
/// Default measurement window for counting-network points.
pub const COUNTING_WINDOW: Cycles = Cycles(400_000);
/// Default warm-up for B-tree rows.
pub const BTREE_WARMUP: Cycles = Cycles(200_000);
/// Default measurement window for B-tree rows.
pub const BTREE_WINDOW: Cycles = Cycles(800_000);

/// One measured row: scheme label + metrics.
#[derive(Clone, Debug)]
pub struct Row {
    /// Scheme label as printed in the paper.
    pub label: String,
    /// The measured metrics.
    pub metrics: RunMetrics,
}

/// One Figure 2/3 point: requester count + all five scheme rows.
#[derive(Clone, Debug)]
pub struct CountingPoint {
    /// Total requesting processes.
    pub requesters: u32,
    /// Rows in the figure's legend order.
    pub rows: Vec<Row>,
}

/// Run one counting-network cell.
pub fn counting_cell(requesters: u32, think: u64, scheme: Scheme) -> RunMetrics {
    CountingExperiment::paper(requesters, think, scheme).run(COUNTING_WARMUP, COUNTING_WINDOW)
}

/// Figures 2 and 3: sweep requester counts for all five schemes at one
/// think time. Independent simulations run on the bounded worker pool
/// (see [`pool`]); the cell list is row-major (requester count outer,
/// scheme inner), so each point takes the next `schemes.len()` rows.
pub fn counting_sweep(think: u64, requester_counts: &[u32]) -> Vec<CountingPoint> {
    let schemes = Scheme::figure2_rows();
    let cells: Vec<_> = requester_counts
        .iter()
        .flat_map(|&requesters| schemes.iter().map(move |&s| (s.label(), (requesters, s))))
        .collect();
    let mut rows = labelled_rows(&cells, |&(requesters, scheme)| {
        counting_cell(requesters, think, scheme)
    })
    .into_iter();
    requester_counts
        .iter()
        .map(|&requesters| CountingPoint {
            requesters,
            rows: rows.by_ref().take(schemes.len()).collect(),
        })
        .collect()
}

/// Run one B-tree row.
pub fn btree_cell(think: u64, scheme: Scheme, fanout: usize) -> RunMetrics {
    BTreeExperiment {
        fanout,
        ..BTreeExperiment::paper(think, scheme)
    }
    .run(BTREE_WARMUP, BTREE_WINDOW)
}

/// Tables 1 and 2: all nine schemes at zero think time (throughput and
/// bandwidth come from the same runs).
pub fn btree_table(think: u64, schemes: &[Scheme]) -> Vec<Row> {
    let cells: Vec<_> = schemes.iter().map(|&s| (s.label(), s)).collect();
    labelled_rows(&cells, |&scheme| btree_cell(think, scheme, 100))
}

/// Tables 3 and 4: the think-10 000 rows the paper prints (SM, CP w/repl.,
/// CP w/repl. & HW).
pub fn btree_table_think() -> Vec<Row> {
    let schemes = [
        Scheme::shared_memory(),
        Scheme::computation_migration().with_replication(),
        Scheme::computation_migration()
            .with_replication()
            .with_hardware(),
    ];
    btree_table(10_000, &schemes)
}

/// The §4.2 fanout-10 experiment: CP w/repl. vs SM at zero think time.
pub fn fanout10_rows() -> Vec<Row> {
    let cells = [
        Scheme::shared_memory(),
        Scheme::computation_migration().with_replication(),
    ]
    .map(|s| (s.label(), s));
    labelled_rows(&cells, |&scheme| btree_cell(0, scheme, 10))
}

/// Extension comparison (DESIGN.md §7): the mechanisms the paper discusses
/// but did not measure — Emerald-style object migration ("OM") and whole-
/// thread migration ("TM") — next to the paper's three, on both workloads.
pub fn extension_rows(think: u64) -> (Vec<Row>, Vec<Row>) {
    let schemes = [
        Scheme::shared_memory(),
        Scheme::rpc(),
        Scheme::computation_migration(),
        Scheme::object_migration(),
        Scheme::thread_migration(),
    ];
    // One cell list for both workloads: counting cells first, then B-tree.
    let cells: Vec<_> = [true, false]
        .into_iter()
        .flat_map(|is_counting| schemes.map(|s| (s.label(), (is_counting, s))))
        .collect();
    let mut counting = labelled_rows(&cells, |&(is_counting, s)| {
        if is_counting {
            counting_cell(32, think, s)
        } else {
            btree_cell(think, s, 100)
        }
    });
    let btree = counting.split_off(schemes.len());
    (counting, btree)
}

/// One fault-injected counting-network run under `FaultPlan::chaos(seed)`.
pub fn fault_cell_counting(seed: u64, scheme: Scheme) -> RunMetrics {
    let mut exp = CountingExperiment::paper(8, 0, scheme);
    exp.faults = Some(proteus::FaultPlan::chaos(seed));
    exp.audit = true;
    exp.run(Cycles(20_000), Cycles(60_000))
}

/// One fault-injected B-tree run under `FaultPlan::chaos(seed)` (small tree,
/// few requesters: the point is protocol survival, not steady-state rates).
pub fn fault_cell_btree(seed: u64, scheme: Scheme) -> RunMetrics {
    let mut exp = BTreeExperiment::paper(0, scheme);
    exp.initial_keys = 400;
    exp.requesters = 6;
    exp.faults = Some(proteus::FaultPlan::chaos(seed));
    exp.audit = true;
    exp.run(Cycles(30_000), Cycles(80_000))
}

/// The `--faults <seed>` sweep: both applications under RPC and computation
/// migration with the chaos fault plan and the cycle audit on. Deterministic:
/// the same seed yields identical metrics (and identical JSON) on every run.
pub fn fault_sweep(seed: u64) -> Vec<Row> {
    let schemes = [Scheme::rpc(), Scheme::computation_migration()].map(|s| (s.label(), s));
    app_sweep(seed, &schemes, fault_cell_counting, fault_cell_btree)
}

/// One application's cell at a seed under a scheme.
type AppCell = fn(u64, Scheme) -> RunMetrics;

/// Run the `counting` cells, then the `btree` cells, under every named
/// scheme at `seed`; rows are labelled `<app> <scheme name>`.
fn app_sweep(
    seed: u64,
    schemes: &[(impl std::fmt::Display, Scheme)],
    counting: AppCell,
    btree: AppCell,
) -> Vec<Row> {
    let cells: Vec<_> = [("counting", counting), ("btree", btree)]
        .into_iter()
        .flat_map(|(app, cell)| {
            schemes
                .iter()
                .map(move |(name, s)| (format!("{app} {name}"), (cell, *s)))
        })
        .collect();
    labelled_rows(&cells, |&(cell, s)| cell(seed, s))
}

/// The eight scheme families the runtime implements (the paper's three plus
/// hardware/replication variants and the DESIGN.md §7 extensions), used by
/// the failover chaos sweep: a processor death must be survivable no matter
/// which mechanism carries the traffic. The audit and fault-recovery tests
/// sweep the same list.
pub fn failover_schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("SM", Scheme::shared_memory()),
        ("RPC", Scheme::rpc()),
        ("RPC+HW", Scheme::rpc().with_hardware()),
        ("CM", Scheme::computation_migration()),
        ("CM+HW", Scheme::computation_migration().with_hardware()),
        (
            "CM+repl",
            Scheme::computation_migration().with_replication(),
        ),
        ("OM", Scheme::object_migration()),
        ("TM", Scheme::thread_migration()),
    ]
}

/// Horizon for failover cells: long enough for the kill, the detection
/// latency (at most [`migrate_rt::system::DETECTION_LATENCY_BOUND`]), the
/// promotion, and a full post-failover drain of every capped driver.
pub const FAILOVER_HORIZON: Cycles = Cycles(8_000_000);

/// One failover counting cell: capped drivers, one balancer processor
/// permanently killed mid-run, failure detection + replication on.
///
/// Panics unless the run ends **valid**: the victim was declared dead by
/// exactly one suspicion/promotion, the cycle audit closes, no token was
/// duplicated, and every token not forfeited by a thread that died with the
/// victim made it out of the network.
pub fn failover_cell_counting(seed: u64, scheme: Scheme) -> RunMetrics {
    let requesters = 4u32;
    let per_thread = 6u64;
    // Victims rotate over the 24 balancer processors: they host network
    // objects but no driver threads (except transiently under thread
    // migration), so the kill exercises re-homing rather than plain loss.
    let victim = ProcId((seed % 24) as u32);
    let at = Cycles(25_000 + 2_500 * (seed % 8));
    let exp = CountingExperiment {
        requests_per_thread: Some(per_thread),
        faults: Some(proteus::FaultPlan::fail_stop(victim, at)),
        failover: migrate_rt::FailoverConfig { enabled: true },
        audit: true,
        seed: 0xC0DE ^ seed,
        ..CountingExperiment::paper(requesters, 0, scheme)
    };
    let (mut runner, spec) = exp.build();
    runner.run_until(FAILOVER_HORIZON);
    let threads_lost = assert_failed_over(&runner, seed, victim);
    let total: u64 = spec
        .counters_in_output_order()
        .iter()
        .map(|&g| {
            runner
                .system
                .objects()
                .state::<migrate_apps::counting::OutputCounter>(g)
                .expect("counter state")
                .count
        })
        .sum();
    let issued = u64::from(requesters) * per_thread;
    if threads_lost == 0 {
        assert_eq!(total, issued, "seed {seed}: tokens lost or duplicated");
    }
    assert!(
        total <= issued,
        "seed {seed}: token duplicated ({total} > {issued})"
    );
    // Each thread that died with the victim forfeits at most its full
    // quota; every other token must have survived via reroute/re-home.
    assert!(
        total >= issued.saturating_sub(threads_lost * per_thread),
        "seed {seed}: tokens lost beyond dead threads \
         (exited {total}, issued {issued}, threads lost {threads_lost})"
    );
    runner.system.metrics(FAILOVER_HORIZON)
}

/// The checks every failover cell makes once its run ends: the cycle audit
/// closes, and `victim` was declared dead by exactly one suspicion and one
/// promotion. Returns the number of threads lost with the victim.
fn assert_failed_over(runner: &Runner, seed: u64, victim: ProcId) -> u64 {
    runner
        .system
        .audit()
        .unwrap_or_else(|e| panic!("seed {seed}: audit failed under failover: {e}"));
    assert!(
        runner.system.is_declared_dead(victim),
        "seed {seed}: victim {victim:?} never declared dead"
    );
    let f = runner.system.failover_stats();
    assert_eq!(f.suspicions, 1, "seed {seed}: suspicions {f:?}");
    assert_eq!(f.promotions, 1, "seed {seed}: promotions {f:?}");
    f.threads_lost
}

/// One failover B-tree cell: capped requesters, one data processor (object
/// host) permanently killed mid-run, failure detection + replication on.
///
/// Panics unless the run ends **valid**: exactly one suspicion/promotion,
/// audit closed, and the re-homed tree still satisfies every structural
/// invariant, holds every initial key and only keys that were issued, and,
/// when no thread died with the victim, exactly
/// [`BTreeExperiment::drained_keys`].
pub fn failover_cell_btree(seed: u64, scheme: Scheme) -> RunMetrics {
    let initial = 120u64;
    let requesters = 4u32;
    let per_thread = 5u64;
    let data_procs = 8u32;
    let victim = ProcId((seed % u64::from(data_procs)) as u32);
    let at = Cycles(30_000 + 3_000 * (seed % 8));
    let exp = BTreeExperiment {
        initial_keys: initial,
        fanout: 8,
        data_procs,
        requesters,
        key_space: 1 << 16,
        requests_per_thread: Some(per_thread),
        faults: Some(proteus::FaultPlan::fail_stop(victim, at)),
        failover: migrate_rt::FailoverConfig { enabled: true },
        audit: true,
        seed: 0xB7EE ^ seed,
        ..BTreeExperiment::paper(0, scheme)
    };
    let (mut runner, root) = exp.build();
    runner.run_until(FAILOVER_HORIZON);
    let threads_lost = assert_failed_over(&runner, seed, victim);
    let stats = migrate_apps::btree::verify_tree(&runner.system, root)
        .unwrap_or_else(|e| panic!("seed {seed}: tree corrupt after failover: {e}"));
    let present = |k: u64| migrate_apps::btree::lookup_pure(&runner.system, root, k);
    for k in migrate_apps::workload::initial_keys(initial, exp.key_space) {
        assert!(present(k), "seed {seed}: initial key {k} vanished");
    }
    // A dead thread's unfinished inserts may be absent; nothing else may.
    let oracle = exp.drained_keys();
    let found = oracle.iter().filter(|&&k| present(k)).count() as u64;
    assert_eq!(
        found, stats.keys,
        "seed {seed}: the tree holds keys that were never issued"
    );
    if threads_lost == 0 {
        assert_eq!(
            found,
            oracle.len() as u64,
            "seed {seed}: issued inserts missing"
        );
    }
    runner.system.metrics(FAILOVER_HORIZON)
}

/// The `--failover <seed>` chaos sweep: both applications under every scheme
/// family, one permanent mid-run processor crash per cell. Each cell asserts
/// its own application validity (token conservation, B-tree invariants) and
/// exactly one backup promotion; the returned rows carry the metrics for the
/// JSON artifact. Deterministic for a given seed.
pub fn failover_sweep(seed: u64) -> Vec<Row> {
    app_sweep(
        seed,
        &failover_schemes(),
        failover_cell_counting,
        failover_cell_btree,
    )
}

// ----------------------------------------------------------------------
// Adaptive dispatch: the `adaptive` sweep (paper §7's open problem)
// ----------------------------------------------------------------------

/// The three dispatch variants an adaptive cell compares: the two static
/// annotations a §3.1 programmer would choose between, plus the online
/// policy (`Annotation::Auto`) that decides per call site at run time.
/// Row order is fixed; [`adaptive_validity`] indexes into it.
pub fn adaptive_variants() -> Vec<(&'static str, Scheme, Annotation)> {
    vec![
        ("static RPC", Scheme::rpc(), Annotation::Rpc),
        (
            "static CM",
            Scheme::computation_migration(),
            Annotation::Migrate,
        ),
        (
            "adaptive",
            Scheme::computation_migration(),
            Annotation::Auto,
        ),
    ]
}

/// One adaptive B-tree cell at paper scale, audited. Panics if the cycle
/// audit fails or the tree violates a structural invariant afterwards.
pub fn adaptive_cell_btree(seed: u64, scheme: Scheme, annotation: Annotation) -> RunMetrics {
    let exp = BTreeExperiment {
        seed: 0xADA5 ^ seed,
        annotation,
        audit: true,
        ..BTreeExperiment::paper(0, scheme)
    };
    let (mut runner, root) = exp.build();
    let metrics = runner.run(BTREE_WARMUP, BTREE_WINDOW);
    runner
        .system
        .audit()
        .unwrap_or_else(|e| panic!("seed {seed}: adaptive btree audit failed: {e}"));
    migrate_apps::btree::verify_tree(&runner.system, root)
        .unwrap_or_else(|e| panic!("seed {seed}: adaptive btree corrupt: {e}"));
    metrics
}

/// One adaptive counting-network cell at paper scale, audited.
pub fn adaptive_cell_counting(seed: u64, scheme: Scheme, annotation: Annotation) -> RunMetrics {
    let exp = CountingExperiment {
        seed: 0xADA5 ^ seed,
        annotation,
        audit: true,
        ..CountingExperiment::paper(16, 0, scheme)
    };
    let (mut runner, _spec) = exp.build();
    let metrics = runner.run(COUNTING_WARMUP, COUNTING_WINDOW);
    runner
        .system
        .audit()
        .unwrap_or_else(|e| panic!("seed {seed}: adaptive counting audit failed: {e}"));
    metrics
}

/// One adaptive comparison point: one application and seed measured under
/// every [`adaptive_variants`] row.
#[derive(Clone, Debug)]
pub struct AdaptiveCell {
    /// Application ("counting" or "btree").
    pub app: &'static str,
    /// Experiment seed (xored into the machine seed).
    pub seed: u64,
    /// Rows in [`adaptive_variants`] order.
    pub rows: Vec<Row>,
}

impl AdaptiveCell {
    /// Mean charged cycles per completed operation for variant row `i` —
    /// the cost metric the acceptance bound compares (total charged cycles
    /// normalizes away the fixed measurement window; per-op makes cells
    /// with different completion counts comparable).
    pub fn cycles_per_op(&self, i: usize) -> f64 {
        let m = &self.rows[i].metrics;
        m.accounting.grand_total() as f64 / m.ops.max(1) as f64
    }
}

/// The `adaptive` sweep: both applications × every seed × the three
/// dispatch variants, on the worker pool. Row-major like
/// [`counting_sweep`]: app outer, seed middle, variant inner.
pub fn adaptive_sweep(seeds: &[u64]) -> Vec<AdaptiveCell> {
    let variants = adaptive_variants();
    let mut keys = Vec::new();
    for app in ["btree", "counting"] {
        for &seed in seeds {
            for &(label, scheme, annotation) in &variants {
                keys.push((label.to_string(), (app, seed, scheme, annotation)));
            }
        }
    }
    let mut rows = labelled_rows(&keys, |&(app, seed, scheme, annotation)| {
        if app == "btree" {
            adaptive_cell_btree(seed, scheme, annotation)
        } else {
            adaptive_cell_counting(seed, scheme, annotation)
        }
    })
    .into_iter();
    keys.chunks(variants.len())
        .map(|variant_keys| {
            let (_, (app, seed, _, _)) = variant_keys[0];
            AdaptiveCell {
                app,
                seed,
                rows: rows.by_ref().take(variants.len()).collect(),
            }
        })
        .collect()
}

/// Check an adaptive sweep's acceptance properties and render one
/// self-asserting `adaptive-ok` line per check (CI greps for the marker).
///
/// Panics unless, in every cell: the adaptive row carries policy stats
/// with at least one consultation while both static rows carry none, the
/// B-tree adaptive cost lands within 10% of the best static variant, and
/// the counting adaptive run actually migrates. In aggregate over all
/// seeds, adaptive must strictly beat always-RPC on both applications.
pub fn adaptive_validity(cells: &[AdaptiveCell]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut agg: std::collections::BTreeMap<&'static str, (f64, f64)> =
        std::collections::BTreeMap::new();
    for cell in cells {
        let (app, seed) = (cell.app, cell.seed);
        let rpc = cell.cycles_per_op(0);
        let cm = cell.cycles_per_op(1);
        let ada = cell.cycles_per_op(2);
        for i in 0..2 {
            assert!(
                cell.rows[i].metrics.policy.is_none(),
                "{app} seed {seed}: static variant {:?} grew policy stats",
                cell.rows[i].label
            );
        }
        let m = &cell.rows[2].metrics;
        let p = m
            .policy
            .as_ref()
            .unwrap_or_else(|| panic!("{app} seed {seed}: adaptive run has no policy stats"));
        assert!(
            p.decisions > 0 && p.decisions == p.migrate_decisions + p.rpc_decisions,
            "{app} seed {seed}: inconsistent policy decisions {p:?}"
        );
        match app {
            "btree" => {
                let best = rpc.min(cm);
                assert!(
                    ada <= best * 1.10,
                    "{app} seed {seed}: adaptive {ada:.1} cyc/op not within 10% of \
                     best static {best:.1} (rpc {rpc:.1}, cm {cm:.1})"
                );
                lines.push(format!(
                    "adaptive-ok btree seed={seed}: adaptive {ada:.1} cyc/op within 10% of \
                     best static {best:.1} (rpc {rpc:.1}, cm {cm:.1})"
                ));
            }
            _ => {
                assert!(
                    m.migrations > 0,
                    "{app} seed {seed}: adaptive run never migrated"
                );
                lines.push(format!(
                    "adaptive-ok counting seed={seed}: adaptive {ada:.1} cyc/op \
                     (rpc {rpc:.1}, cm {cm:.1}), {} migrations",
                    m.migrations
                ));
            }
        }
        let e = agg.entry(app).or_insert((0.0, 0.0));
        e.0 += rpc;
        e.1 += ada;
    }
    for (app, (rpc_sum, ada_sum)) in agg {
        assert!(
            ada_sum < rpc_sum,
            "{app}: adaptive did not beat always-RPC in aggregate \
             ({ada_sum:.0} >= {rpc_sum:.0} cyc/op summed)"
        );
        lines.push(format!(
            "adaptive-ok {app} aggregate: adaptive {ada_sum:.0} summed cyc/op \
             strictly beats always-RPC {rpc_sum:.0}"
        ));
    }
    lines
}

/// Serialize adaptive cells to a JSON array (adaptive rows carry the
/// `policy` object via [`metrics_to_json`]; static rows do not).
pub fn adaptive_to_json(cells: &[AdaptiveCell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("app", Json::Str(c.app.to_string())),
                    ("seed", Json::Int(c.seed)),
                    ("rows", rows_to_json(&c.rows)),
                ])
            })
            .collect(),
    )
}

// ----------------------------------------------------------------------
// Ablations: the `ablations` target (DESIGN.md §6 points 6–7, §7)
// ----------------------------------------------------------------------

/// Warm-up and measurement window for every ablation cell.
const ABLATION_WARMUP: Cycles = Cycles(100_000);
const ABLATION_WINDOW: Cycles = Cycles(300_000);

/// Run labelled cells on the worker pool, keeping their order.
fn labelled_rows<E: Sync>(
    cells: &[(String, E)],
    run: impl Fn(&E) -> RunMetrics + Sync,
) -> Vec<Row> {
    let metrics = pool::map_indexed(cells, |(_, exp)| run(exp));
    cells
        .iter()
        .zip(metrics)
        .map(|((label, _), metrics)| Row {
            label: label.clone(),
            metrics,
        })
        .collect()
}

/// Cost ablation on the B-tree at zero think time (DESIGN.md §6 point 6).
///
/// Six RPC rows sweep the two documented calibration constants,
/// `rpc_dispatch` and `rpc_stub_words` (labelled `RPC <dispatch> cyc,
/// <words> words`): with both at zero, RPC ties CP at the root bottleneck.
/// Four CP rows then isolate the two hardware-support estimates (`CP
/// software`, `CP +register NIC`, `CP +HW GOID`, `CP +both`); `CP software`
/// is also the reference the RPC rows are compared against.
pub fn ablation_costs() -> Vec<Row> {
    let rpc = |dispatch: u64, stub_words: u64| {
        let cost = CostModel {
            rpc_dispatch: Cycles(dispatch),
            rpc_stub_words: stub_words,
            ..CostModel::default()
        };
        (
            format!("RPC {dispatch} cyc, {stub_words} words"),
            (Scheme::rpc(), cost),
        )
    };
    let cp = |label: &str, cost: CostModel| {
        (
            format!("CP {label}"),
            (Scheme::computation_migration(), cost),
        )
    };
    let cells = [
        rpc(0, 0),
        rpc(0, 16),
        rpc(300, 16),
        rpc(600, 0),
        rpc(600, 16),
        rpc(1200, 16),
        cp("software", CostModel::default()),
        cp(
            "+register NIC",
            CostModel::default().with_hw_message_support(),
        ),
        cp("+HW GOID", CostModel::default().with_hw_goid_support()),
        cp(
            "+both",
            CostModel::default()
                .with_hw_message_support()
                .with_hw_goid_support(),
        ),
    ];
    labelled_rows(&cells, |(scheme, cost)| {
        BTreeExperiment {
            cost_override: Some(*cost),
            ..BTreeExperiment::paper(0, *scheme)
        }
        .run(ABLATION_WARMUP, ABLATION_WINDOW)
    })
}

/// Shared-memory contention ablation on the counting network, 48
/// requesters, zero think time (DESIGN.md §6 point 7). The first row is
/// the `CP w/HW` reference. `SM full model` runs the whole coherence model;
/// `SM no lock penalty`, `SM no spin reads` and `SM no extras` drop the
/// contended-lock penalty, the test-and-test-and-set spin reads, or both
/// of those plus the LimitLESS trap costs.
pub fn ablation_contention() -> Vec<Row> {
    let sm = |label: &str, coherence: CoherenceCosts| {
        (
            format!("SM {label}"),
            (Scheme::shared_memory(), Some(coherence)),
        )
    };
    let cells = [
        {
            let cm_hw = Scheme::computation_migration().with_hardware();
            (cm_hw.label(), (cm_hw, None))
        },
        sm("full model", CoherenceCosts::default()),
        sm(
            "no lock penalty",
            CoherenceCosts {
                contended_lock_penalty: Cycles::ZERO,
                ..CoherenceCosts::default()
            },
        ),
        sm(
            "no spin reads",
            CoherenceCosts {
                max_spin_reads: 0,
                ..CoherenceCosts::default()
            },
        ),
        sm(
            "no extras",
            CoherenceCosts {
                contended_lock_penalty: Cycles::ZERO,
                max_spin_reads: 0,
                limitless_trap: Cycles::ZERO,
                limitless_per_sharer: Cycles::ZERO,
            },
        ),
    ];
    labelled_rows(&cells, |(scheme, coherence)| {
        CountingExperiment {
            coherence_override: *coherence,
            ..CountingExperiment::paper(48, 0, *scheme)
        }
        .run(ABLATION_WARMUP, ABLATION_WINDOW)
    })
}

/// Counting-network topology ablation, 32 requesters, zero think time
/// (DESIGN.md §7): the paper's 6-stage bitonic network against the 9-stage
/// periodic one, under CP and SM. Rows are labelled `<topology> <scheme>`.
pub fn ablation_topology() -> Vec<Row> {
    let mut cells = Vec::new();
    for (name, topology) in [
        ("bitonic", Topology::Bitonic),
        ("periodic", Topology::Periodic),
    ] {
        for scheme in [Scheme::computation_migration(), Scheme::shared_memory()] {
            cells.push((format!("{name} {}", scheme.label()), (topology, scheme)));
        }
    }
    labelled_rows(&cells, |&(topology, scheme)| {
        CountingExperiment {
            topology,
            ..CountingExperiment::paper(32, 0, scheme)
        }
        .run(ABLATION_WARMUP, ABLATION_WINDOW)
    })
}

/// One Table 5 line: category name and mean cycles per migration.
#[derive(Clone, Debug)]
pub struct BreakdownLine {
    /// Category (Table 5 row).
    pub category: Category,
    /// Mean cycles per migration.
    pub cycles: f64,
}

/// Table 5: run the counting network under plain CM and attribute every
/// charged cycle of the migration path to its category.
pub fn migration_breakdown() -> (Vec<BreakdownLine>, f64, u64) {
    let metrics = counting_cell(16, 0, Scheme::computation_migration());
    let migrations = metrics.migrations.max(1);
    let acct = &metrics.migration_accounting;
    let lines: Vec<BreakdownLine> = TABLE5_CATEGORIES
        .iter()
        .map(|&category| BreakdownLine {
            category,
            cycles: acct.total(category) as f64 / migrations as f64,
        })
        .collect();
    let total = acct.grand_total() as f64 / migrations as f64;
    (lines, total, metrics.migrations)
}

/// The Table 5 categories in the paper's print order.
pub const TABLE5_CATEGORIES: &[Category] = &[
    Category::UserCode,
    Category::NetworkTransit,
    Category::CopyPacket,
    Category::ThreadCreation,
    Category::LinkageRecv,
    Category::Unmarshal,
    Category::GoidTranslation,
    Category::Scheduler,
    Category::ForwardingCheck,
    Category::AllocPacketRecv,
    Category::LinkageSend,
    Category::AllocPacketSend,
    Category::MessageSend,
    Category::Marshal,
];

/// Serialize a [`RunMetrics`] to JSON (every field the text tables print,
/// plus the observability extensions: dispatch counters, per-processor
/// stats, audit summary, and the full accounting breakdown), already
/// rendered: a document of many runs holds each as one string rather than
/// as a tree of some hundred keyed nodes. Parse its `render()` to inspect
/// fields.
pub fn metrics_to_json(m: &RunMetrics) -> Json {
    let accounting = |a: &Accounting| {
        Json::Obj(
            a.totals()
                .map(|(category, cycles)| (category.name().to_string(), Json::Int(cycles)))
                .collect(),
        )
    };
    let dispatch = Json::Arr(
        m.dispatch
            .rows()
            .map(|(site, kind, count)| {
                obj(vec![
                    ("site", Json::Str(site.to_string())),
                    ("mechanism", Json::Str(kind.label().to_string())),
                    ("count", Json::Int(count)),
                ])
            })
            .collect(),
    );
    let per_proc = Json::Arr(
        m.per_proc
            .iter()
            .map(|p| {
                obj(vec![
                    ("proc", Json::Int(u64::from(p.proc))),
                    ("utilization", Json::Num(p.utilization)),
                    ("busy_cycles", Json::Int(p.busy_cycles)),
                    ("tasks_served", Json::Int(p.tasks_served)),
                    ("max_queue_depth", Json::Int(p.max_queue_depth as u64)),
                ])
            })
            .collect(),
    );
    let audit = match &m.audit {
        Some(a) => obj(vec![
            ("tasks_checked", Json::Int(a.tasks_checked)),
            ("grand_total", Json::Int(a.grand_total)),
            ("busy_total", Json::Int(a.busy_total)),
            ("transit_total", Json::Int(a.transit_total)),
        ]),
        None => Json::Null,
    };
    let mut fields = vec![
        ("window_cycles", Json::Int(m.window.get())),
        ("ops", Json::Int(m.ops)),
        ("throughput_per_1000", Json::Num(m.throughput_per_1000)),
        (
            "bandwidth_words_per_10",
            Json::Num(m.bandwidth_words_per_10),
        ),
        ("load_word_hops_per_10", Json::Num(m.load_word_hops_per_10)),
        ("messages", Json::Int(m.messages)),
        ("message_words", Json::Int(m.message_words)),
        ("cache_hit_rate", Json::Num(m.cache_hit_rate)),
        ("mean_op_latency", Json::Num(m.mean_op_latency)),
        ("migrations", Json::Int(m.migrations)),
        ("max_proc_utilization", Json::Num(m.max_proc_utilization)),
        ("accounting", accounting(&m.accounting)),
        ("migration_accounting", accounting(&m.migration_accounting)),
        ("dispatch", dispatch),
        ("per_proc", per_proc),
        ("audit", audit),
        ("runtime_errors", Json::Int(m.runtime_errors)),
    ];
    // Fault-injection fields appear only when they carry information, so a
    // fault-free run's JSON stays byte-identical to the pre-fault schema.
    if !m.runtime_error_codes.is_empty() {
        fields.push((
            "runtime_error_codes",
            Json::Obj(
                m.runtime_error_codes
                    .iter()
                    .map(|(code, n)| (code.to_string(), Json::Int(*n)))
                    .collect(),
            ),
        ));
    }
    if let Some(r) = &m.recovery {
        fields.push((
            "recovery",
            obj(vec![
                ("acks_sent", Json::Int(r.acks_sent)),
                ("retries", Json::Int(r.retries)),
                ("duplicates_suppressed", Json::Int(r.duplicates_suppressed)),
                ("fallbacks", Json::Int(r.fallbacks)),
                ("frames_reclaimed", Json::Int(r.frames_reclaimed)),
                ("messages_lost", Json::Int(r.messages_lost)),
            ]),
        ));
    }
    if let Some(f) = &m.failover {
        fields.push((
            "failover",
            obj(vec![
                ("heartbeats_sent", Json::Int(f.heartbeats_sent)),
                ("suspicions", Json::Int(f.suspicions)),
                ("promotions", Json::Int(f.promotions)),
                ("rehomed_objects", Json::Int(f.rehomed_objects)),
                ("frames_lost", Json::Int(f.frames_lost)),
                ("threads_lost", Json::Int(f.threads_lost)),
                ("rerouted_calls", Json::Int(f.rerouted_calls)),
                ("replication_deltas", Json::Int(f.replication_deltas)),
                ("replication_words", Json::Int(f.replication_words)),
            ]),
        ));
    }
    if let Some(f) = &m.faults {
        fields.push((
            "faults",
            obj(vec![
                ("decisions", Json::Int(f.decisions)),
                ("drops", Json::Int(f.drops)),
                ("duplicates", Json::Int(f.duplicates)),
                ("delays", Json::Int(f.delays)),
                ("stalls", Json::Int(f.stalls)),
                ("crashes", Json::Int(f.crashes)),
            ]),
        ));
    }
    if let Some(p) = &m.policy {
        fields.push((
            "policy",
            obj(vec![
                ("decisions", Json::Int(p.decisions)),
                ("migrate_decisions", Json::Int(p.migrate_decisions)),
                ("rpc_decisions", Json::Int(p.rpc_decisions)),
                ("flips", Json::Int(p.flips)),
                ("episodes", Json::Int(p.episodes)),
                ("sites", Json::Int(p.sites)),
                ("window_occupancy", Json::Int(p.window_occupancy)),
            ]),
        ));
    }
    Json::Rendered(obj(fields).render().into_boxed_str())
}

/// Serialize labeled rows (one table) to a JSON array.
pub fn rows_to_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                obj(vec![
                    ("scheme", Json::Str(row.label.clone())),
                    ("metrics", metrics_to_json(&row.metrics)),
                ])
            })
            .collect(),
    )
}

/// Serialize Figure 2/3 sweep points to a JSON array.
pub fn points_to_json(points: &[CountingPoint]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                obj(vec![
                    ("requesters", Json::Int(u64::from(p.requesters))),
                    ("rows", rows_to_json(&p.rows)),
                ])
            })
            .collect(),
    )
}

/// Serialize the Table 5 breakdown to JSON.
pub fn breakdown_to_json(lines: &[BreakdownLine], total: f64, migrations: u64) -> Json {
    obj(vec![
        ("migrations", Json::Int(migrations)),
        ("total_cycles_per_migration", Json::Num(total)),
        (
            "categories",
            Json::Obj(
                lines
                    .iter()
                    .map(|l| (l.category.name().to_string(), Json::Num(l.cycles)))
                    .collect(),
            ),
        ),
    ])
}

/// Render rows as an aligned text table of throughput and bandwidth.
pub fn render_rows(title: &str, rows: &[Row]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>10} {:>8}\n",
        "Scheme", "ops/1000cyc", "words/10cyc", "msgs", "hitrate"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<22} {:>12.4} {:>12.2} {:>10} {:>8.3}\n",
            row.label,
            row.metrics.throughput_per_1000,
            row.metrics.bandwidth_words_per_10,
            row.metrics.messages,
            row.metrics.cache_hit_rate,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_cell_produces_work() {
        let m = counting_cell(8, 0, Scheme::computation_migration());
        assert!(m.ops > 50, "ops {}", m.ops);
        assert!(m.migrations > 0);
    }

    #[test]
    fn sweep_collects_all_cells() {
        let points = counting_sweep(10_000, &[8, 16]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.rows.len(), 5);
        }
    }

    #[test]
    fn table5_breakdown_totals_in_paper_ballpark() {
        let (lines, total, migrations) = migration_breakdown();
        assert!(migrations > 100, "migrations {migrations}");
        // The paper's Table 5 totals 651 cycles per migration.
        assert!((450.0..900.0).contains(&total), "total {total}");
        let user = lines
            .iter()
            .find(|l| l.category == Category::UserCode)
            .unwrap()
            .cycles;
        assert!((100.0..220.0).contains(&user), "user code {user}");
    }

    #[test]
    fn adaptive_sweep_validates_and_serializes() {
        let cells = adaptive_sweep(&[0, 1]);
        assert_eq!(cells.len(), 4); // 2 apps x 2 seeds
        let lines = adaptive_validity(&cells);
        assert!(lines.iter().all(|l| l.starts_with("adaptive-ok")));
        // Per-cell lines plus one aggregate line per app.
        assert_eq!(lines.len(), cells.len() + 2);
        let json = adaptive_to_json(&cells).render();
        assert!(json.contains("\"policy\""));
        assert!(json.contains("\"migrate_decisions\""));
    }

    #[test]
    fn policy_field_absent_without_auto_annotation() {
        let m = counting_cell(8, 0, Scheme::computation_migration());
        assert!(m.policy.is_none());
        assert!(!metrics_to_json(&m).render().contains("\"policy\""));
    }

    /// Throughput of the row labelled `label`.
    fn throughput(rows: &[Row], label: &str) -> f64 {
        rows.iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("no row {label:?}"))
            .metrics
            .throughput_per_1000
    }

    #[test]
    fn ablation_costs_shape() {
        let rows = ablation_costs();
        let t = |label: &str| throughput(&rows, label);
        let cp = t("CP software");
        // Message counts alone make RPC tie CP; the calibrated stub costs
        // open the paper's gap.
        assert!(cp / t("RPC 0 cyc, 0 words") < 1.0);
        assert!(cp / t("RPC 600 cyc, 16 words") > 1.5);
        let by_dispatch: Vec<f64> = [0, 300, 600, 1200]
            .iter()
            .map(|d| t(&format!("RPC {d} cyc, 16 words")))
            .collect();
        assert!(
            by_dispatch.windows(2).all(|w| w[0] > w[1]),
            "RPC throughput by dispatch cost {by_dispatch:?}"
        );
        let hw: Vec<f64> = ["+both", "+register NIC", "+HW GOID", "software"]
            .iter()
            .map(|l| t(&format!("CP {l}")))
            .collect();
        assert!(hw.windows(2).all(|w| w[0] > w[1]), "CP by hardware {hw:?}");
    }

    #[test]
    fn ablation_contention_shape() {
        let rows = ablation_contention();
        let cm_hw = throughput(&rows, "CP w/HW");
        // The paper's crossover holds only with the contended-lock penalty.
        assert!(throughput(&rows, "SM full model") < cm_hw);
        assert!(throughput(&rows, "SM no lock penalty") > cm_hw);
    }

    #[test]
    fn ablation_topology_shape() {
        let rows = ablation_topology();
        let t = |label: &str| throughput(&rows, label);
        // Each extra stage is an extra hop for CP; SM does not care.
        assert!(t("periodic CP") <= 0.85 * t("bitonic CP"));
        let (bitonic, periodic) = (t("bitonic SM"), t("periodic SM"));
        assert!((periodic - bitonic).abs() <= 0.01 * bitonic);
    }

    #[test]
    fn render_is_stable() {
        let rows = vec![Row {
            label: "SM".into(),
            metrics: counting_cell(8, 10_000, Scheme::shared_memory()),
        }];
        let s = render_rows("test", &rows);
        assert!(s.contains("SM"));
        assert!(s.contains("ops/1000cyc"));
    }
}
