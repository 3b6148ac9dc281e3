//! The four workloads: which cells a pass runs, how one cell runs, and the
//! checks its simulated outputs must pass.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use bench::json::{obj, Json};
use bench::{CountingPoint, Row};
use migrate_apps::btree::{verify_tree, BTreeExperiment};
use migrate_apps::counting::{Balancer, CountingExperiment, CountingSpec, OutputCounter};
use migrate_rt::{Annotation, FailoverConfig, Goid, RunMetrics, Runner, Scheme, System};
use proteus::trace::Tracer;
use proteus::{Cycles, FaultPlan, ProcId};

use crate::clock::{cpu_timed, thread_cpu_s};
use crate::sink::{LayerSink, ENGINE_KINDS, ERROR_CODES};

/// Simulated cycles of one long-window cell, per workload, sized so an
/// untraced pass takes about a second on a 2-vCPU x86-64 host. There is no
/// warm-up: the whole run is measured, so every count covers the same span
/// as the trace.
fn long_window(workload: Workload) -> Cycles {
    match workload {
        Workload::Reproduce => unreachable!("reproduce runs the paper's windows"),
        Workload::Mp => Cycles(12_000_000),
        Workload::Sm => Cycles(10_000_000),
        Workload::Faults => Cycles(12_000_000),
    }
}

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every simulation cell behind `experiments all`, checked against the
    /// golden artifacts.
    Reproduce,
    /// Long-window steady state under the message-passing schemes.
    Mp,
    /// Long-window steady state under shared memory.
    Sm,
    /// Long-window chaos and processor-kill runs under CP with `Auto`.
    Faults,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Reproduce,
        Workload::Mp,
        Workload::Sm,
        Workload::Faults,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::Mp => "mp",
            Workload::Sm => "sm",
            Workload::Faults => "faults",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One application experiment.
#[derive(Clone, Debug)]
pub enum Exp {
    /// A counting-network experiment.
    Counting(CountingExperiment),
    /// A B-tree experiment.
    BTree(BTreeExperiment),
}

/// One simulation cell: an experiment plus its run length and checks.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Unique name within the workload.
    pub name: String,
    /// The experiment to build.
    pub exp: Exp,
    /// Warm-up cycles before the measured window.
    pub warmup: Cycles,
    /// Measured window.
    pub window: Cycles,
    /// Golden artifact this cell feeds (reproduce only; empty otherwise).
    pub artifact: &'static str,
    /// Processor killed mid-run (failover cells).
    pub victim: Option<ProcId>,
}

/// What a pass runs.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Cells in report order.
    pub cells: Vec<Cell>,
    /// Full-scale plans compare outputs to the golden artifacts and the
    /// recorded default-seed counts; shortened plans only self-check.
    pub full_scale: bool,
}

impl Plan {
    /// The workload as the benchmark measures it.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        Plan::build(workload, seed, None)
    }

    /// Every window cut to `window` cycles (for the self-test).
    #[cfg(test)]
    pub fn shortened(workload: Workload, seed: u64, window: Cycles) -> Plan {
        Plan::build(workload, seed, Some(window))
    }

    fn build(workload: Workload, seed: u64, short: Option<Cycles>) -> Plan {
        let cells = match workload {
            Workload::Reproduce => reproduce_cells(short),
            _ => long_window_cells(workload, seed, short.unwrap_or(long_window(workload))),
        };
        Plan {
            workload,
            seed,
            cells,
            full_scale: short.is_none(),
        }
    }

    /// The order pass number `pass` hands cells to the pool. Long-window
    /// cells go in plan order, which lists the longest first. `reproduce`
    /// draws a permutation from the seed and the pass number: the seed must
    /// not change its simulations, only their scheduling, and a fresh order
    /// per pass lets a run's medians average over which cells overlap. The
    /// warm-up pass (number 0) keeps plan order, so the heap peak it gives
    /// does not depend on the seed.
    pub fn order(&self, pass: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        if self.workload != Workload::Reproduce || pass == 0 {
            return order;
        }
        let mut rng =
            migrate_rt::rng::SplitMix64::new(self.seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order
    }
}

// ----------------------------------------------------------------------
// Long-window workloads
// ----------------------------------------------------------------------

/// The message-passing schemes `mp` runs both applications under.
fn mp_schemes() -> Vec<Scheme> {
    vec![
        Scheme::rpc(),
        Scheme::rpc().with_hardware(),
        Scheme::rpc().with_replication(),
        Scheme::computation_migration(),
        Scheme::computation_migration().with_hardware(),
        Scheme::computation_migration().with_replication(),
        Scheme::object_migration(),
        Scheme::thread_migration(),
    ]
}

fn long_window_cells(workload: Workload, seed: u64, window: Cycles) -> Vec<Cell> {
    // Seed 0 gives the paper's experiment seeds.
    let counting = |requesters: u32, think: u64, scheme: Scheme| CountingExperiment {
        seed: 0xC0DE ^ seed,
        audit: true,
        ..CountingExperiment::paper(requesters, think, scheme)
    };
    let btree = |think: u64, scheme: Scheme| BTreeExperiment {
        seed: 0xB7EE ^ seed,
        audit: true,
        ..BTreeExperiment::paper(think, scheme)
    };
    let cell = |name: String, exp: Exp| Cell {
        name,
        exp,
        warmup: Cycles::ZERO,
        window,
        artifact: "",
        victim: None,
    };
    let cp = Scheme::computation_migration();
    let sm = Scheme::shared_memory();
    // Each list names the longest cells first, so the pool's last cell to
    // start is a short one.
    match workload {
        Workload::Reproduce => unreachable!("reproduce runs the paper cells"),
        Workload::Mp => {
            // 24 balancer processors + 104 requesters = 128, the
            // coherence sharer-bitmask limit.
            let exp = Exp::Counting(counting(104, 0, cp));
            let mut cells = vec![cell("counting-104 CP".to_string(), exp)];
            for s in mp_schemes() {
                let exp = Exp::Counting(counting(16, 0, s));
                cells.push(cell(format!("counting-16 {}", s.label()), exp));
            }
            for s in mp_schemes() {
                let exp = Exp::BTree(btree(0, s));
                cells.push(cell(format!("btree {}", s.label()), exp));
            }
            cells
        }
        Workload::Sm => vec![
            cell(
                "btree fanout-10 SM".to_string(),
                Exp::BTree(BTreeExperiment {
                    fanout: 10,
                    ..btree(0, sm)
                }),
            ),
            cell("btree SM".to_string(), Exp::BTree(btree(0, sm))),
            cell(
                "counting-16 SM".to_string(),
                Exp::Counting(counting(16, 0, sm)),
            ),
            cell(
                "counting-104 SM".to_string(),
                Exp::Counting(counting(104, 0, sm)),
            ),
            cell(
                "btree think-10000 SM".to_string(),
                Exp::BTree(btree(10_000, sm)),
            ),
        ],
        Workload::Faults => {
            // Chaos and kill run in separate cells: chaos with failover
            // enabled is not a combination the runtime survives yet.
            let failover = FailoverConfig {
                enabled: true,
                ..Default::default()
            };
            let kill_at = Cycles(window.get() / 2);
            // A B-tree data processor.
            let btree_victim = ProcId(3);
            // Each kind of cell runs in two variants, so that no single cell
            // is longer than the rest of the pass and the pass keeps both
            // workers busy to its end. The variants differ in their seeds
            // (variant 1 runs the workload seed itself) and, since the
            // counting network at think 0 draws no random numbers, in the
            // killed third-layer balancer.
            let variants = [(1, seed, ProcId(9)), (2, seed ^ 0xFA17, ProcId(10))];
            let mut cells = Vec::new();
            for (n, s, counting_victim) in variants {
                cells.push(Cell {
                    victim: Some(counting_victim),
                    ..cell(
                        format!("counting-16 kill #{n}"),
                        Exp::Counting(CountingExperiment {
                            seed: 0xC0DE ^ s,
                            annotation: Annotation::Auto,
                            faults: Some(FaultPlan::fail_stop(counting_victim, kill_at)),
                            failover: failover.clone(),
                            ..counting(16, 0, cp)
                        }),
                    )
                });
            }
            for (n, s, _) in variants {
                cells.push(cell(
                    format!("counting-16 chaos #{n}"),
                    Exp::Counting(CountingExperiment {
                        seed: 0xC0DE ^ s,
                        annotation: Annotation::Auto,
                        faults: Some(FaultPlan::chaos(s)),
                        ..counting(16, 0, cp)
                    }),
                ));
            }
            for (n, s, _) in variants {
                cells.push(Cell {
                    victim: Some(btree_victim),
                    ..cell(
                        format!("btree kill #{n}"),
                        Exp::BTree(BTreeExperiment {
                            seed: 0xB7EE ^ s,
                            annotation: Annotation::Auto,
                            faults: Some(FaultPlan::fail_stop(btree_victim, kill_at)),
                            failover: failover.clone(),
                            ..btree(0, cp)
                        }),
                    )
                });
            }
            for (n, s, _) in variants {
                cells.push(cell(
                    format!("btree chaos #{n}"),
                    Exp::BTree(BTreeExperiment {
                        seed: 0xB7EE ^ s,
                        annotation: Annotation::Auto,
                        faults: Some(FaultPlan::chaos(s)),
                        ..btree(0, cp)
                    }),
                ));
            }
            cells
        }
    }
}

// ----------------------------------------------------------------------
// Reproduce: the cells behind `experiments all`, and their artifacts
// ----------------------------------------------------------------------

const FIG2_REQUESTERS: [u32; 5] = [8, 16, 32, 48, 64];

fn think_rows() -> Vec<Scheme> {
    vec![
        Scheme::shared_memory(),
        Scheme::computation_migration().with_replication(),
        Scheme::computation_migration()
            .with_replication()
            .with_hardware(),
    ]
}

fn fanout10_schemes() -> Vec<Scheme> {
    vec![
        Scheme::shared_memory(),
        Scheme::computation_migration().with_replication(),
    ]
}

fn extension_schemes() -> Vec<Scheme> {
    vec![
        Scheme::shared_memory(),
        Scheme::rpc(),
        Scheme::computation_migration(),
        Scheme::object_migration(),
        Scheme::thread_migration(),
    ]
}

/// Cells in the order [`reproduce_document`] consumes their metrics.
fn reproduce_cells(short: Option<Cycles>) -> Vec<Cell> {
    let (counting_warmup, counting_window, btree_warmup, btree_window) = match short {
        None => (
            bench::COUNTING_WARMUP,
            bench::COUNTING_WINDOW,
            bench::BTREE_WARMUP,
            bench::BTREE_WINDOW,
        ),
        Some(w) => (Cycles(w.get() / 4), w, Cycles(w.get() / 4), w),
    };
    let mut cells = Vec::new();
    let mut counting = |artifact: &'static str, requesters: u32, think: u64, scheme: Scheme| {
        cells.push(Cell {
            name: format!("{artifact} counting-{requesters} {}", scheme.label()),
            exp: Exp::Counting(CountingExperiment::paper(requesters, think, scheme)),
            warmup: counting_warmup,
            window: counting_window,
            artifact,
            victim: None,
        })
    };
    for (artifact, think) in [("fig2_fig3_think10000", 10_000), ("fig2_fig3_think0", 0)] {
        for requesters in FIG2_REQUESTERS {
            for scheme in Scheme::figure2_rows() {
                counting(artifact, requesters, think, scheme);
            }
        }
    }
    counting("table5", 16, 0, Scheme::computation_migration());
    for scheme in extension_schemes() {
        counting("extensions", 32, 0, scheme);
    }
    let mut btree = |artifact: &'static str, think: u64, fanout: usize, scheme: Scheme| {
        cells.push(Cell {
            name: format!("{artifact} btree {}", scheme.label()),
            exp: Exp::BTree(BTreeExperiment {
                fanout,
                ..BTreeExperiment::paper(think, scheme)
            }),
            warmup: btree_warmup,
            window: btree_window,
            artifact,
            victim: None,
        })
    };
    for scheme in Scheme::table1_rows() {
        btree("table1_table2", 0, 100, scheme);
    }
    for scheme in think_rows() {
        btree("table3_table4", 10_000, 100, scheme);
    }
    for scheme in fanout10_schemes() {
        btree("fanout10", 0, 10, scheme);
    }
    for scheme in extension_schemes() {
        btree("extensions", 0, 100, scheme);
    }
    cells
}

/// Assemble the `experiments all --json` document from the metrics of
/// [`reproduce_cells`], in that order.
pub fn reproduce_document(metrics: Vec<RunMetrics>) -> Json {
    let mut metrics = metrics.into_iter();
    let mut rows = |schemes: Vec<Scheme>| -> Vec<Row> {
        schemes
            .into_iter()
            .map(|s| Row {
                label: s.label(),
                metrics: metrics.next().expect("one metrics per cell"),
            })
            .collect()
    };
    let mut fig2 = Vec::new();
    for name in ["fig2_fig3_think10000", "fig2_fig3_think0"] {
        let points: Vec<CountingPoint> = FIG2_REQUESTERS
            .iter()
            .map(|&requesters| CountingPoint {
                requesters,
                rows: rows(Scheme::figure2_rows()),
            })
            .collect();
        fig2.push((name, bench::points_to_json(&points)));
    }
    let table5 = rows(vec![Scheme::computation_migration()])
        .remove(0)
        .metrics;
    let ext_counting = rows(extension_schemes());
    let table1 = rows(Scheme::table1_rows());
    let table3 = rows(think_rows());
    let fanout10 = rows(fanout10_schemes());
    let ext_btree = rows(extension_schemes());

    let migrations = table5.migrations.max(1);
    let lines: Vec<bench::BreakdownLine> = bench::TABLE5_CATEGORIES
        .iter()
        .map(|&category| bench::BreakdownLine {
            category,
            cycles: table5.migration_accounting.total(category) as f64 / migrations as f64,
        })
        .collect();
    let total = table5.migration_accounting.grand_total() as f64 / migrations as f64;

    let mut artifacts = vec![("fig1", fig1())];
    artifacts.extend(fig2);
    artifacts.extend([
        ("table1_table2", bench::rows_to_json(&table1)),
        ("table3_table4", bench::rows_to_json(&table3)),
        (
            "table5",
            bench::breakdown_to_json(&lines, total, table5.migrations),
        ),
        ("fanout10", bench::rows_to_json(&fanout10)),
        (
            "extensions",
            obj(vec![
                ("counting", bench::rows_to_json(&ext_counting)),
                ("btree", bench::rows_to_json(&ext_btree)),
            ]),
        ),
    ]);
    obj(vec![
        ("schema_version", Json::Int(1)),
        ("artifacts", obj(artifacts)),
    ])
}

/// Figure 1 (the analytic model; no simulation).
fn fig1() -> Json {
    use migrate_model::{figure1, Pattern};
    let patterns = [
        Pattern::new(1, 1),
        Pattern::new(3, 1),
        Pattern::new(3, 4),
        Pattern::new(6, 1),
        Pattern::new(6, 4),
        Pattern::new(8, 8),
    ];
    Json::Arr(
        figure1(&patterns)
            .iter()
            .map(|row| {
                obj(vec![
                    ("items", Json::Int(row.pattern.items)),
                    (
                        "accesses_per_item",
                        Json::Int(row.pattern.accesses_per_item),
                    ),
                    ("rpc", Json::Int(row.rpc)),
                    ("data_migration", Json::Int(row.data_migration)),
                    (
                        "computation_migration",
                        Json::Int(row.computation_migration),
                    ),
                ])
            })
            .collect(),
    )
}

// ----------------------------------------------------------------------
// Running one cell
// ----------------------------------------------------------------------

/// Deterministic per-layer counts of one cell (or, summed, of a pass),
/// keyed by per-layer metric name.
pub type Counts = BTreeMap<String, u64>;

/// Dispatch kinds, by [`migrate_rt::DispatchKind::label`].
pub const DISPATCH_KINDS: [&str; 9] = [
    "local_inline",
    "replica_read",
    "rpc",
    "migration",
    "remigration",
    "thread_move",
    "object_pull",
    "shared_memory",
    "rpc_fallback",
];

/// What one cell run measured.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// B-tree (rather than counting-network) cell.
    pub btree: bool,
    /// CPU seconds in the experiment's `build`.
    pub setup_s: f64,
    /// CPU seconds in `Runner::run_profiled`.
    pub run_s: f64,
    /// CPU seconds of one extra `System::metrics` call (traced runs only).
    pub extract_s: f64,
    /// CPU seconds in `System::audit`.
    pub audit_s: f64,
    /// CPU seconds of the whole cell, checks included.
    pub cpu_s: f64,
    /// When the cell started and ended, and on which worker.
    pub started: Instant,
    /// See `started`.
    pub ended: Instant,
    /// See `started`.
    pub worker: std::thread::ThreadId,
    /// The window's metrics, until the pass takes them: a stored pass keeps
    /// only what the report needs, so earlier passes do not weigh on the
    /// heap of later ones.
    pub metrics: Option<RunMetrics>,
    /// The window's shared-memory cache hit rate (0 without accesses).
    pub cache_hit_rate: f64,
    /// Utilization of the window's busiest processor.
    pub max_utilization: f64,
    /// Peak pending-event count.
    pub peak_queue_depth: usize,
    /// Deterministic counts.
    pub counts: Counts,
    /// Host ns per [`ENGINE_KINDS`] entry (traced runs only).
    pub self_ns: [u64; ENGINE_KINDS.len()],
}

/// Run one cell, with the benchmark's trace sink attached when `traced`.
/// Panics and failed checks come back as `Err`.
pub fn run_cell(cell: &Cell, traced: bool) -> Result<CellRun, String> {
    catch_unwind(AssertUnwindSafe(|| run_cell_checked(cell, traced)))
        .unwrap_or_else(|payload| {
            Err(payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string()))
        })
        .map_err(|e| format!("{}: {e}", cell.name))
}

enum Built {
    Tree(Goid),
    Network(Arc<CountingSpec>, u32),
}

fn run_cell_checked(cell: &Cell, traced: bool) -> Result<CellRun, String> {
    let started = Instant::now();
    let cpu_started = thread_cpu_s();
    let ((mut runner, built), setup_s) = cpu_timed(|| match &cell.exp {
        Exp::Counting(e) => {
            let (runner, spec) = e.build();
            (runner, Built::Network(spec, e.requesters))
        }
        Exp::BTree(e) => {
            let (runner, root) = e.build();
            (runner, Built::Tree(root))
        }
    });
    let sink = traced.then(|| {
        let (tracer, sink) = Tracer::to_sink(LayerSink::default());
        runner.set_tracer(tracer);
        sink
    });
    let ((metrics, profile), run_s) =
        cpu_timed(|| runner.run_profiled(cell.warmup, cell.window));
    let mut extract_s = 0.0;
    let trace = sink.map(|sink| {
        sink.borrow_mut().finish();
        extract_s = cpu_timed(|| std::hint::black_box(runner.system.metrics(runner.now()))).1;
        let trace = sink.borrow().clone();
        trace
    });
    let (audit, audit_s) = cpu_timed(|| runner.system.audit());
    audit.map_err(|e| format!("audit failed: {e}"))?;

    let mut counts = counts_of(&metrics, profile.events);
    let mut self_ns = [0; ENGINE_KINDS.len()];
    if let Some(trace) = &trace {
        let traced_events: u64 = trace.events.iter().sum();
        if traced_events != profile.events {
            return Err(format!(
                "{traced_events} engine records for {} dispatched events",
                profile.events
            ));
        }
        for (kind, n) in ENGINE_KINDS.iter().zip(trace.events) {
            counts.insert(format!("engine.events.{kind}"), n);
        }
        counts.insert("coherence.misses".to_string(), trace.coherence_misses);
        for ((code, _), n) in ERROR_CODES.iter().zip(trace.errors) {
            counts.insert(format!("runtime.errors.{code}"), n);
        }
        self_ns = trace.self_ns;
    }
    if cell.artifact.is_empty() {
        check_long_window(cell, &mut runner, &built, &metrics)?;
    }
    Ok(CellRun {
        btree: matches!(built, Built::Tree(_)),
        setup_s,
        run_s,
        extract_s,
        audit_s,
        cpu_s: thread_cpu_s() - cpu_started,
        started,
        ended: Instant::now(),
        worker: std::thread::current().id(),
        peak_queue_depth: profile.peak_queue_depth,
        cache_hit_rate: metrics.cache_hit_rate,
        max_utilization: metrics.max_proc_utilization,
        metrics: Some(metrics),
        counts,
        self_ns,
    })
}

fn counts_of(m: &RunMetrics, events: u64) -> Counts {
    let recovery = m.recovery.clone().unwrap_or_default();
    let faults = m.faults.clone().unwrap_or_default();
    let failover = m.failover.clone().unwrap_or_default();
    let policy = m.policy.clone().unwrap_or_default();
    let mut counts: Counts = [
        ("engine.events", events),
        ("ops", m.ops),
        ("network.sends", m.messages),
        ("network.words", m.message_words),
        (
            "processor.tasks",
            m.per_proc.iter().map(|p| p.tasks_served).sum(),
        ),
        ("fault.decisions", faults.decisions),
        ("fault.drops", faults.drops),
        ("fault.duplicates", faults.duplicates),
        ("runtime.migrations", m.migrations),
        ("recovery.acks", recovery.acks_sent),
        ("recovery.retries", recovery.retries),
        (
            "recovery.duplicates_suppressed",
            recovery.duplicates_suppressed,
        ),
        ("recovery.fallbacks", recovery.fallbacks),
        ("recovery.messages_lost", recovery.messages_lost),
        ("failover.heartbeats", failover.heartbeats_sent),
        ("failover.deltas", failover.replication_deltas),
        ("failover.delta_words", failover.replication_words),
        ("failover.rerouted", failover.rerouted_calls),
        ("failover.threads_lost", failover.threads_lost),
        ("policy.decisions", policy.decisions),
        ("policy.flips", policy.flips),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for kind in DISPATCH_KINDS {
        counts.insert(format!("dispatch.{kind}"), 0);
    }
    for (_, kind, n) in m.dispatch.rows() {
        *counts
            .get_mut(&format!("dispatch.{}", kind.label()))
            .unwrap_or_else(|| panic!("unknown dispatch kind {}", kind.label())) += n;
    }
    counts
}

/// Checks that hold at any seed once a long-window run ends: the audit
/// closed (already checked), the application state is valid, and failover
/// cells saw exactly one suspicion and one promotion.
fn check_long_window(
    cell: &Cell,
    runner: &mut Runner,
    built: &Built,
    metrics: &RunMetrics,
) -> Result<(), String> {
    if metrics.ops == 0 {
        return Err("no operation completed".to_string());
    }
    settle(runner)?;
    let system = &runner.system;
    match built {
        Built::Tree(root) => {
            verify_tree(system, *root).map_err(|e| format!("tree corrupt: {e}"))?;
        }
        Built::Network(spec, requesters) => check_tokens(system, spec, *requesters)?,
    }
    if let Some(victim) = cell.victim {
        if !system.is_declared_dead(victim) {
            return Err(format!("victim {victim:?} never declared dead"));
        }
        let f = system.failover_stats();
        if f.suspicions != 1 || f.promotions != 1 {
            return Err(format!(
                "{} suspicions and {} promotions, expected one each",
                f.suspicions, f.promotions
            ));
        }
    }
    Ok(())
}

/// Under object migration an object is out of the table while it travels.
/// Run on in short steps until every object is at rest, so the state
/// checks see all of them.
fn settle(runner: &mut Runner) -> Result<(), String> {
    const STEP: Cycles = Cycles(500);
    for _ in 0..1_000 {
        let objects = runner.system.objects();
        if objects.goids().all(|g| objects.entry(g).behavior.is_some()) {
            return Ok(());
        }
        let next = runner.now() + STEP;
        runner.run_until(next);
    }
    Err("objects still in flight 500 000 cycles after the run".to_string())
}

/// No token is duplicated: each stage of the network (balancer layers, then
/// the output counters) passes on at most the tokens it received, and no
/// more tokens are inside the network than there are requesters.
fn check_tokens(system: &System, spec: &CountingSpec, requesters: u32) -> Result<(), String> {
    let objects = system.objects();
    let mut stages = Vec::new();
    for layer in &spec.balancers {
        let mut passed = 0;
        for &g in layer {
            passed += objects
                .state::<Balancer>(g)
                .ok_or("balancer state missing")?
                .traversals;
        }
        stages.push(passed);
    }
    let mut drawn = 0;
    for &g in &spec.counters {
        drawn += objects
            .state::<OutputCounter>(g)
            .ok_or("counter state missing")?
            .count;
    }
    stages.push(drawn);
    if let Some(i) = (1..stages.len()).find(|&i| stages[i] > stages[i - 1]) {
        return Err(format!(
            "token duplicated: stage {i} passed {} tokens, stage {} only {}",
            stages[i],
            i - 1,
            stages[i - 1]
        ));
    }
    if stages[0] - drawn > u64::from(requesters) {
        return Err(format!(
            "{} tokens inside the network with {requesters} requesters",
            stages[0] - drawn
        ));
    }
    Ok(())
}
