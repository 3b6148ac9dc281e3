//! One pass over a workload's cells, timed, with every output checked.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::clock::cpu_timed;
use crate::workloads::{reproduce_document, run_cell, CellRun, Counts, Plan, Workload};

/// The `experiments all --json` output the reproduce workload must match.
const GOLDEN: &str = include_str!("../../golden/all.json");

/// Counts recorded at the default seed, one line per long-window cell:
/// `workload<TAB>cell<TAB>key=value ...`.
const EXPECTED: &str = include_str!("../expected.txt");

/// The workload seed whose counts [`EXPECTED`] records.
pub const DEFAULT_SEED: u64 = 0;

/// Counts compared with [`EXPECTED`] (plus every `engine.events.*` kind in
/// traced passes).
pub const EXPECTED_KEYS: [&str; 6] = [
    "engine.events",
    "ops",
    "network.sends",
    "runtime.migrations",
    "recovery.retries",
    "failover.deltas",
];

/// Worker threads of the pool every pass runs its cells on. Each cell runs
/// on one thread. Two workers rather than one because, on a 2-vCPU guest,
/// each vCPU's speed drifts with its own host load: keeping both busy
/// averages the two drifts, which cut the run-to-run spread of the
/// long-window workloads from about 22% to 14% (IQR over median, five
/// seeds, 30 s runs).
pub const WORKERS: usize = 2;

/// What one pass measured.
pub struct Pass {
    /// CPU seconds of the pass: every cell (set-up, run and checks) plus
    /// rendering the document.
    pub cpu_s: f64,
    /// Wall seconds from the first cell starting to the pass's end.
    pub wall_s: f64,
    /// Per cell, in plan order: the run, or why it failed.
    pub cells: Vec<Result<CellRun, String>>,
    /// Failed cells (plan index → reason), including output mismatches.
    pub failures: BTreeMap<usize, String>,
    /// CPU seconds building and rendering the JSON document (reproduce).
    pub json_render_s: f64,
    /// Allocations and bytes requested during the pass.
    pub allocations: u64,
    /// See `allocations`.
    pub alloc_bytes: u64,
    /// Live-heap high-water mark during the pass, above the bytes live when
    /// it started.
    pub peak_heap_bytes: usize,
    /// Seconds from the first worker running out of cells to the last cell
    /// ending.
    pub pool_tail_s: f64,
    /// Σ cell seconds / (workers × seconds until the last cell ended).
    pub pool_utilization: f64,
    /// CPU seconds of the reference computation around the pass
    /// (`calibrate.rs`); NaN until measured.
    pub reference_s: f64,
}

impl Pass {
    /// CPU `seconds` measured in this pass, at the reference host speed.
    pub fn scaled(&self, seconds: f64) -> f64 {
        seconds * crate::calibrate::NOMINAL_S / self.reference_s
    }
}

impl Pass {
    /// The successful cell runs.
    pub fn runs(&self) -> impl Iterator<Item = &CellRun> {
        self.cells.iter().filter_map(|c| c.as_ref().ok())
    }

    /// Counts summed over the pass's cells.
    pub fn counts(&self) -> Counts {
        let mut total = Counts::new();
        for run in self.runs() {
            for (k, v) in &run.counts {
                *total.entry(k.clone()).or_insert(0) += v;
            }
        }
        total
    }
}

/// Run every cell of `plan` once on the pool and check the outputs.
/// `number` counts the run's passes; it picks the pool order in
/// `reproduce`.
pub fn run_pass(plan: &Plan, traced: bool, number: u64) -> Pass {
    let reproduce = plan.workload == Workload::Reproduce;
    let live_before = alloc::reset_peak();
    let before = alloc::snapshot();
    let start = Instant::now();
    let order = plan.order(number);
    let ran = bench::pool::map_indexed(&order, |&i| run_cell(&plan.cells[i], traced));
    let mut slots: Vec<Option<Result<CellRun, String>>> = plan.cells.iter().map(|_| None).collect();
    for (&i, run) in order.iter().zip(ran) {
        slots[i] = Some(run);
    }
    let mut cells: Vec<Result<CellRun, String>> = slots
        .into_iter()
        .map(|s| s.expect("every cell ran"))
        .collect();
    let pool_end = Instant::now();
    let metrics: Option<Vec<_>> = cells
        .iter_mut()
        .map(|c| c.as_mut().ok().and_then(|run| run.metrics.take()))
        .collect();
    let mut json_render_s = 0.0;
    let mut document = None;
    if let Some(metrics) = metrics.filter(|_| reproduce) {
        let (rendered, cpu_s) = cpu_timed(|| reproduce_document(metrics).render() + "\n");
        document = Some(rendered);
        json_render_s = cpu_s;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_heap_bytes = alloc::peak_bytes() - live_before;
    let after = alloc::snapshot();

    let mut pass = Pass {
        cpu_s: cells.iter().flatten().map(|r| r.cpu_s).sum::<f64>() + json_render_s,
        wall_s,
        failures: BTreeMap::new(),
        json_render_s,
        allocations: after.allocations - before.allocations,
        alloc_bytes: after.bytes - before.bytes,
        peak_heap_bytes,
        pool_tail_s: 0.0,
        pool_utilization: 0.0,
        reference_s: f64::NAN,
        cells,
    };
    pool_stats(&mut pass, start, pool_end);
    for (i, cell) in pass.cells.iter().enumerate() {
        if let Err(e) = cell {
            pass.failures.insert(i, e.clone());
        }
    }
    if let Some(document) = document.filter(|_| plan.full_scale) {
        check_golden(plan, &document, &mut pass.failures);
    }
    if plan.full_scale && !reproduce && plan.seed == DEFAULT_SEED {
        check_expected(plan, &pass.cells, &mut pass.failures);
    }
    pass
}

fn pool_stats(pass: &mut Pass, start: Instant, end: Instant) {
    let mut busy = 0.0;
    let mut last_end: std::collections::HashMap<std::thread::ThreadId, Instant> =
        std::collections::HashMap::new();
    for run in pass.runs() {
        busy += run.ended.duration_since(run.started).as_secs_f64();
        let e = last_end.entry(run.worker).or_insert(run.ended);
        *e = (*e).max(run.ended);
    }
    let span = end.duration_since(start).as_secs_f64();
    pass.pool_utilization = busy / (WORKERS as f64 * span);
    let first_idle = last_end.values().min().copied().unwrap_or(end);
    pass.pool_tail_s = end.duration_since(first_idle).as_secs_f64();
}

/// Byte-compare the document with the golden file. A differing artifact
/// fails every cell that feeds it; any other difference fails every cell.
fn check_golden(plan: &Plan, document: &str, failures: &mut BTreeMap<usize, String>) {
    if document == GOLDEN {
        return;
    }
    let artifacts = |text: &str| match bench::json::parse(text) {
        Ok(doc) => match doc.get("artifacts") {
            Some(bench::json::Json::Obj(fields)) => fields
                .iter()
                .map(|(name, value)| (name.clone(), value.render()))
                .collect(),
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    let golden = artifacts(GOLDEN);
    let differing: Vec<String> = artifacts(document)
        .into_iter()
        .filter(|artifact| !golden.contains(artifact))
        .map(|(name, _)| name)
        .collect();
    let fed = |cell: &crate::workloads::Cell| differing.iter().any(|name| name == cell.artifact);
    let any_fed = plan.cells.iter().any(fed);
    for (i, cell) in plan.cells.iter().enumerate() {
        if fed(cell) || !any_fed {
            failures.insert(
                i,
                format!(
                    "{}: output differs from golden/all.json ({differing:?})",
                    cell.name
                ),
            );
        }
    }
}

/// The recorded default-seed counts of `workload`, by cell name.
fn expected_counts(workload: Workload) -> BTreeMap<&'static str, Vec<(&'static str, u64)>> {
    EXPECTED
        .lines()
        .filter(|line| !line.is_empty())
        .filter_map(|line| {
            let mut fields = line.split('\t');
            let (w, cell, counts) = (fields.next()?, fields.next()?, fields.next()?);
            (w == workload.name()).then(|| {
                let counts = counts
                    .split(' ')
                    .map(|kv| {
                        let (k, v) = kv.split_once('=').expect("key=value");
                        (k, v.parse().expect("integer count"))
                    })
                    .collect();
                (cell, counts)
            })
        })
        .collect()
}

/// The [`EXPECTED`] line for one cell run.
pub fn expected_line(workload: Workload, cell: &str, run: &CellRun) -> String {
    let counts: Vec<String> = run
        .counts
        .iter()
        .filter(|(k, _)| EXPECTED_KEYS.contains(&k.as_str()) || k.starts_with("engine.events."))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!("{}\t{cell}\t{}", workload.name(), counts.join(" "))
}

fn check_expected(
    plan: &Plan,
    cells: &[Result<CellRun, String>],
    failures: &mut BTreeMap<usize, String>,
) {
    let expected = expected_counts(plan.workload);
    for (i, (cell, run)) in plan.cells.iter().zip(cells).enumerate() {
        let Ok(run) = run else { continue };
        let Some(want) = expected.get(cell.name.as_str()) else {
            failures.insert(i, format!("{}: no expected counts recorded", cell.name));
            continue;
        };
        for &(key, value) in want {
            match run.counts.get(key) {
                Some(&got) if got != value => {
                    failures.insert(i, format!("{}: {key} = {got}, expected {value}", cell.name));
                }
                Some(_) => {}
                // Per-kind engine counts exist only in traced runs.
                None if key.starts_with("engine.events.") => {}
                None => {
                    failures.insert(i, format!("{}: no {key} count", cell.name));
                }
            }
        }
    }
}
