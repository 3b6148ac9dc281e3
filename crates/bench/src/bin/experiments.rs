//! Regenerate every table and figure of the paper from fresh simulations.
//!
//! ```text
//! experiments [all|fig1|fig2|fig3|table1|table2|table3|table4|table5|fanout10|extensions
//!             |faults|failover|adaptive|ablations]
//!             [--json <path>] [--faults <seed>|<a..b>] [--failover <seed>] [--jobs <n>]
//! ```
//!
//! With no argument (or `all`) everything runs; output is the paper's
//! artifacts side by side with the published numbers, in EXPERIMENTS.md
//! format. `--faults <seed>` additionally runs both applications under the
//! deterministic chaos fault plan (`proteus::FaultPlan::chaos(seed)`) and
//! emits a `fault_sweep` artifact alongside whatever the positional target
//! selects; `--faults <a..b>` sweeps every seed in the half-open range.
//! `--failover <seed>` runs the failover chaos sweep instead: one permanent
//! mid-run processor crash per cell with failure detection and primary-
//! backup replication on, every cell asserting application validity. Given
//! `--faults`/`--failover` with no positional target, only that sweep runs.
//! The `adaptive` target runs the adaptive-dispatch sweep (seeds 0..32,
//! both applications, static RPC vs static CM vs `Annotation::Auto`), each
//! cell audited and self-asserting the acceptance bounds (`adaptive-ok`
//! lines). The `ablations` target runs the cost, contention and topology
//! ablations behind DESIGN.md §6 points 6–7 and §7; like the sweeps, it is
//! not part of `all`.
//! The fault-free artifacts are byte-identical whether or not these flags
//! are passed (CI checks this). With `--json <path>` the same runs are also
//! written to `<path>` as a machine-readable document:
//!
//! ```text
//! {"schema_version":1,"artifacts":{"fig1":...,"fig2":...,...}}
//! ```
//!
//! `--jobs <n>` bounds the sweep worker pool (default: one worker per
//! available core); results are byte-identical for any worker count.
//! Host speed is measured separately, by the `perfbench/` package.

use bench::json::{obj, Json};
use bench::{
    breakdown_to_json, btree_table, btree_table_think, counting_sweep, extension_rows,
    fanout10_rows, migration_breakdown, points_to_json, render_rows, rows_to_json, CountingPoint,
};
use migrate_model::{figure1, Pattern};
use migrate_rt::Scheme;

const USAGE: &str = "usage: experiments [all|fig1|fig2|fig3|table1|table2|table3|table4|table5|fanout10|extensions|faults|failover|adaptive|ablations] [--json <path>] [--faults <seed>|<a..b>] [--failover <seed>] [--jobs <n>]";

/// The `--faults` argument: one seed, or a half-open `a..b` range of them.
#[derive(Copy, Clone, Debug)]
enum SeedSpec {
    One(u64),
    Range(u64, u64),
}

fn parse_seed_spec(s: &str) -> Option<SeedSpec> {
    if let Some((a, b)) = s.split_once("..") {
        let (a, b) = (a.parse().ok()?, b.parse().ok()?);
        (a < b).then_some(SeedSpec::Range(a, b))
    } else {
        s.parse().ok().map(SeedSpec::One)
    }
}

/// Print `msg` and the usage line, then exit with status 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// Remove `flag` and its value from `args`. A missing value, or one that is
/// itself a flag, is a usage error.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    match args.get(i) {
        Some(value) if !value.starts_with("--") => Some(args.remove(i)),
        _ => usage_exit(&format!("{flag} requires a value")),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_value(&mut args, "--json");
    if let Some(n) = take_value(&mut args, "--jobs") {
        match n.parse::<usize>() {
            Ok(n) if n > 0 => bench::pool::set_jobs(n),
            _ => usage_exit(&format!("--jobs must be a positive integer, got {n:?}")),
        }
    }
    let faults_seed = take_value(&mut args, "--faults").map(|seed| {
        parse_seed_spec(&seed).unwrap_or_else(|| {
            usage_exit(&format!(
                "--faults takes an integer seed or an a..b range (a < b), got {seed:?}"
            ))
        })
    });
    let failover_seed = take_value(&mut args, "--failover").map(|seed| {
        seed.parse::<u64>().unwrap_or_else(|_| {
            usage_exit(&format!("--failover seed must be an integer, got {seed:?}"))
        })
    });
    let arg = args.first().cloned().unwrap_or_else(|| {
        if failover_seed.is_some() && faults_seed.is_none() {
            "failover".to_string()
        } else if faults_seed.is_some() {
            "faults".to_string()
        } else {
            "all".to_string()
        }
    });
    let known = [
        "all",
        "fig1",
        "fig2",
        "fig3",
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fanout10",
        "extensions",
        "faults",
        "failover",
        "adaptive",
        "ablations",
    ];
    if !known.contains(&arg.as_str()) || args.len() > 1 {
        usage_exit(&format!("unknown arguments {args:?}"));
    }
    let all = arg == "all";
    let mut artifacts: Vec<(String, Json)> = Vec::new();
    let mut emit = |name: &str, value: Json| artifacts.push((name.to_string(), value));
    if all || arg == "fig1" {
        fig1(&mut emit);
    }
    if all || arg == "fig2" || arg == "fig3" {
        fig2_fig3(&mut emit);
    }
    if all || arg == "table1" || arg == "table2" {
        table1_2(&mut emit);
    }
    if all || arg == "table3" || arg == "table4" {
        table3_4(&mut emit);
    }
    if all || arg == "table5" {
        table5(&mut emit);
    }
    if all || arg == "fanout10" {
        fanout10(&mut emit);
    }
    if all || arg == "extensions" {
        extensions(&mut emit);
    }
    if arg == "faults" || faults_seed.is_some() {
        faults(faults_seed.unwrap_or(SeedSpec::One(0)), &mut emit);
    }
    if arg == "failover" || failover_seed.is_some() {
        failover(failover_seed.unwrap_or(0), &mut emit);
    }
    if arg == "adaptive" {
        adaptive(&mut emit);
    }
    if arg == "ablations" {
        ablations(&mut emit);
    }
    if let Some(path) = json_path {
        let doc = obj(vec![
            ("schema_version", Json::Int(1)),
            ("artifacts", Json::Obj(artifacts)),
        ]);
        if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote JSON artifacts to {path}");
    }
}

type Emit<'a> = &'a mut dyn FnMut(&str, Json);

fn print_fault_rows(rows: &[bench::Row]) {
    print!("{}", render_rows("measured under faults:", rows));
    for row in rows {
        if let Some(r) = &row.metrics.recovery {
            println!(
                "  {}: retries {}  dup-suppressed {}  rpc-fallbacks {}  lost {}",
                row.label, r.retries, r.duplicates_suppressed, r.fallbacks, r.messages_lost
            );
        }
    }
    println!();
}

fn faults(spec: SeedSpec, emit: Emit) {
    println!("== Fault sweep: deterministic chaos plan ==");
    println!("(drops, duplicates, delays, stalls, crash-restarts; recovery via");
    println!(" acks + timeout/retry, migrations degrade to RPC on exhaustion)\n");
    match spec {
        SeedSpec::One(seed) => {
            println!("seed {seed}:");
            let rows = bench::fault_sweep(seed);
            print_fault_rows(&rows);
            emit(
                "fault_sweep",
                obj(vec![
                    ("seed", Json::Int(seed)),
                    ("rows", rows_to_json(&rows)),
                ]),
            );
        }
        SeedSpec::Range(a, b) => {
            let runs: Vec<Json> = (a..b)
                .map(|seed| {
                    println!("seed {seed}:");
                    let rows = bench::fault_sweep(seed);
                    print_fault_rows(&rows);
                    obj(vec![
                        ("seed", Json::Int(seed)),
                        ("rows", rows_to_json(&rows)),
                    ])
                })
                .collect();
            emit(
                "fault_sweep",
                obj(vec![
                    (
                        "seed_range",
                        obj(vec![("start", Json::Int(a)), ("end", Json::Int(b))]),
                    ),
                    ("runs", Json::Arr(runs)),
                ]),
            );
        }
    }
}

fn failover(seed: u64, emit: Emit) {
    println!("== Failover sweep: one permanent processor crash per cell, seed {seed} ==");
    println!("(heartbeat failure detection, primary-backup replication, deterministic");
    println!(" re-homing; every cell asserts token conservation / B-tree invariants");
    println!(" and exactly one backup promotion)\n");
    let rows = bench::failover_sweep(seed);
    print!(
        "{}",
        render_rows("measured under one processor death:", &rows)
    );
    for row in &rows {
        if let Some(f) = &row.metrics.failover {
            println!(
                "  {}: suspicions {}  promotions {}  rehomed {}  rerouted {}  deltas {} ({} words)",
                row.label,
                f.suspicions,
                f.promotions,
                f.rehomed_objects,
                f.rerouted_calls,
                f.replication_deltas,
                f.replication_words
            );
        }
    }
    println!();
    emit(
        "failover",
        obj(vec![
            ("seed", Json::Int(seed)),
            ("rows", rows_to_json(&rows)),
        ]),
    );
}

fn adaptive(emit: Emit) {
    println!("== Adaptive dispatch: online RPC-vs-migration policy (paper §7) ==");
    println!("(seeds 0..32, both applications; each cell compares static RPC,");
    println!(" static CM, and the Annotation::Auto per-call-site online policy;");
    println!(" every cell audited, acceptance bounds self-asserted)\n");
    let seeds: Vec<u64> = (0..32).collect();
    let cells = bench::adaptive_sweep(&seeds);
    for line in bench::adaptive_validity(&cells) {
        println!("{line}");
    }
    println!();
    emit(
        "adaptive",
        obj(vec![
            (
                "seed_range",
                obj(vec![("start", Json::Int(0)), ("end", Json::Int(32))]),
            ),
            ("cells", bench::adaptive_to_json(&cells)),
        ]),
    );
}

fn ablations(emit: Emit) {
    println!("== Ablations: calibration constants, SM contention model, topology ==");
    println!("(DESIGN.md §6 points 6-7 and §7; every cell warms up 100k cycles and");
    println!(" measures 300k)\n");
    let costs = bench::ablation_costs();
    print!(
        "{}",
        render_rows(
            "RPC stub costs and hardware estimates (B-tree, 0 think):",
            &costs
        )
    );
    let cp = costs
        .iter()
        .find(|r| r.label == "CP software")
        .expect("CP reference row");
    for rpc in costs.iter().filter(|r| r.label.starts_with("RPC")) {
        println!(
            "  CP/RPC at {}: {:.2}",
            rpc.label,
            cp.metrics.throughput_per_1000 / rpc.metrics.throughput_per_1000
        );
    }
    println!();
    let contention = bench::ablation_contention();
    print!(
        "{}",
        render_rows(
            "SM contention model (counting network, 48 requesters, 0 think):",
            &contention
        )
    );
    println!();
    let topology = bench::ablation_topology();
    print!(
        "{}",
        render_rows(
            "bitonic (6 stages) vs periodic (9 stages) network, 32 requesters, 0 think:",
            &topology
        )
    );
    println!();
    emit(
        "ablations",
        obj(vec![
            ("costs", rows_to_json(&costs)),
            ("contention", rows_to_json(&contention)),
            ("topology", rows_to_json(&topology)),
        ]),
    );
}

fn extensions(emit: Emit) {
    println!("== Extensions: object migration (Emerald-style) and thread migration ==");
    println!("(mechanisms the paper discusses but did not measure; DESIGN.md §7)\n");
    let (counting, btree) = extension_rows(0);
    print!(
        "{}",
        render_rows("counting network, 32 requesters, 0 think:", &counting)
    );
    println!();
    print!("{}", render_rows("B-tree, 16 requesters, 0 think:", &btree));
    println!();
    emit(
        "extensions",
        obj(vec![
            ("counting", rows_to_json(&counting)),
            ("btree", rows_to_json(&btree)),
        ]),
    );
}

fn fig1(emit: Emit) {
    println!("== Figure 1: message counts (analytic model, §2.5) ==");
    println!("one thread, n consecutive accesses to each of m items\n");
    println!(
        "{:<10} {:>8} {:>10} {:>16}",
        "(m, n)", "RPC", "data mig.", "computation mig."
    );
    let patterns = [
        Pattern::new(1, 1),
        Pattern::new(3, 1),
        Pattern::new(3, 4),
        Pattern::new(6, 1),
        Pattern::new(6, 4),
        Pattern::new(8, 8),
    ];
    let rows = figure1(&patterns);
    for row in &rows {
        println!(
            "({:>2},{:>2})    {:>8} {:>10} {:>16}",
            row.pattern.items,
            row.pattern.accesses_per_item,
            row.rpc,
            row.data_migration,
            row.computation_migration
        );
    }
    println!();
    emit(
        "fig1",
        Json::Arr(
            rows.iter()
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
        ),
    );
}

fn print_counting(points: &[CountingPoint], metric: &str) {
    let labels: Vec<String> = points[0].rows.iter().map(|r| r.label.clone()).collect();
    print!("{:<10}", "procs");
    for l in &labels {
        print!(" {l:>18}");
    }
    println!();
    for p in points {
        print!("{:<10}", p.requesters);
        for row in &p.rows {
            let v = match metric {
                "throughput" => row.metrics.throughput_per_1000,
                _ => row.metrics.bandwidth_words_per_10,
            };
            print!(" {v:>18.4}");
        }
        println!();
    }
    println!();
}

fn fig2_fig3(emit: Emit) {
    for think in [10_000u64, 0] {
        println!("== Figures 2 & 3: counting network, {think} cycle think time ==");
        let points = counting_sweep(think, &[8, 16, 32, 48, 64]);
        println!("-- Figure 2: throughput (requests/1000 cycles) --");
        print_counting(&points, "throughput");
        println!("-- Figure 3: bandwidth (words sent/10 cycles) --");
        print_counting(&points, "bandwidth");
        // fig2 (throughput) and fig3 (bandwidth) come from the same runs;
        // emit one artifact per think time holding both.
        let name = if think == 0 {
            "fig2_fig3_think0"
        } else {
            "fig2_fig3_think10000"
        };
        emit(name, points_to_json(&points));
    }
}

fn table1_2(emit: Emit) {
    println!("== Tables 1 & 2: B-tree, 0 cycle think time ==");
    println!("paper Table 1 (ops/1000cyc): SM 1.837  RPC 0.3828  RPC w/HW 0.5133");
    println!("  RPC w/repl. 0.6060  RPC w/repl.&HW 0.7830  CP 0.8018  CP w/HW 0.9570");
    println!("  CP w/repl. 1.155  CP w/repl.&HW 1.341");
    println!("paper Table 2 (words/10cyc): SM 75  RPC 7.3  RPC w/HW 9.9  RPC w/repl. 7.0");
    println!("  RPC w/repl.&HW 9.3  CP 3.5  CP w/HW 4.3  CP w/repl. 3.8  CP w/repl.&HW 3.9\n");
    let rows = btree_table(0, &Scheme::table1_rows());
    print!("{}", render_rows("measured:", &rows));
    println!();
    emit("table1_table2", rows_to_json(&rows));
}

fn table3_4(emit: Emit) {
    println!("== Tables 3 & 4: B-tree, 10000 cycle think time ==");
    println!("paper Table 3 (ops/1000cyc): SM 1.071  CP w/repl. 0.9816  CP w/repl.&HW 1.053");
    println!("paper Table 4 (words/10cyc): SM 16  CP w/repl. 2.5  CP w/repl.&HW 2.7\n");
    let rows = btree_table_think();
    print!("{}", render_rows("measured:", &rows));
    println!();
    emit("table3_table4", rows_to_json(&rows));
}

fn table5(emit: Emit) {
    println!("== Table 5: cost breakdown for one migration (counting network, CP) ==");
    println!("paper: total 651 = user 150 + transit 17 + receiver ~341 + sender ~143\n");
    let (lines, total, migrations) = migration_breakdown();
    println!("measured over {migrations} migrations:");
    println!("{:<28} {:>10}", "category", "cycles");
    println!("{:<28} {:>10.1}", "TOTAL", total);
    for line in &lines {
        println!("{:<28} {:>10.1}", line.category.name(), line.cycles);
    }
    println!();
    emit("table5", breakdown_to_json(&lines, total, migrations));
}

fn fanout10(emit: Emit) {
    println!("== §4.2 fanout-10 B-tree: CP w/repl. vs SM, 0 think time ==");
    println!("paper: CP w/repl. 2.076 vs SM 2.427 ops/1000 cycles\n");
    let rows = fanout10_rows();
    print!("{}", render_rows("measured:", &rows));
    println!();
    emit("fanout10", rows_to_json(&rows));
}
