//! Host-speed benchmark of the simulator.
//!
//! ```text
//! perfbench --workload <reproduce|mp|sm|faults> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <mp|sm|faults> --seed 0 --print-expected
//! ```
//!
//! Runs one untimed warm-up pass over the workload's cells, then untraced
//! passes (and, with `--trace 1`, a traced pass after each) until
//! `--seconds` have elapsed. Every pass checks its simulated outputs, and is
//! bracketed by timings of a fixed reference computation that scale its host
//! times (thread CPU time) to a fixed host speed. The last line of standard output is one JSON
//! object: `correct`, `attempted` and `failed` cell runs, and the metrics —
//! the end-to-end ones (medians over untraced passes) with `--trace 0`, the
//! per-layer ones with `--trace 1`. NOTES.md explains the workloads and the
//! metrics.

mod alloc;
mod calibrate;
mod clock;
mod pass;
mod report;
mod sink;
mod workloads;

use std::time::{Duration, Instant};

use pass::{run_pass, Pass};
use workloads::{Plan, Workload};

const USAGE: &str = "usage: perfbench --workload <reproduce|mp|sm|faults> --seed <n> \
                     --seconds <s> --trace <0|1> [--print-expected]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut print_expected = false;
    while let Some(flag) = args.next() {
        if flag == "--print-expected" {
            print_expected = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(pass::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        print_expected,
    })
}

/// Failed cell runs of `pass`, reported on standard error.
fn failures(pass: &Pass) -> u64 {
    for reason in pass.failures.values() {
        eprintln!("FAILED {reason}");
    }
    pass.failures.len() as u64
}

/// Fail the traced cells whose counts differ from the untraced run of the
/// same cell: tracing must observe the simulation, never change it.
fn check_trace_counts(plan: &Plan, plain: &Pass, traced: &mut Pass) {
    let runs = plain.cells.iter().zip(&traced.cells);
    for (i, (cell, (a, b))) in plan.cells.iter().zip(runs).enumerate() {
        let (Ok(a), Ok(b)) = (a, b) else { continue };
        if a.counts
            .iter()
            .any(|(k, v)| b.counts.get(k).is_some_and(|w| w != v))
        {
            let reason = format!("{}: traced counts differ from untraced counts", cell.name);
            traced.failures.insert(i, reason);
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    bench::pool::set_jobs(pass::WORKERS);
    let plan = Plan::new(args.workload, args.seed);

    if args.print_expected {
        // Record the counts rather than check them against the old record.
        let plan = Plan {
            full_scale: false,
            ..plan
        };
        let pass = run_pass(&plan, true, 0);
        if failures(&pass) > 0 {
            std::process::exit(1);
        }
        for (cell, run) in plan.cells.iter().zip(pass.runs()) {
            println!("{}", pass::expected_line(plan.workload, &cell.name, run));
        }
        return;
    }

    // The warm-up pass counts against `--seconds`; the loop stops when one
    // more round would overrun it, so a run lasts about `--seconds`.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    // The warm-up pass runs its cells one at a time, so its heap peak does
    // not depend on which cells happen to overlap: it gives `peak_heap_mb`.
    bench::pool::set_jobs(1);
    let warm_up = run_pass(&plan, false, 0);
    bench::pool::set_jobs(pass::WORKERS);
    attempted += warm_up.cells.len() as u64;
    failed += failures(&warm_up);
    let peak_heap_bytes = warm_up.peak_heap_bytes;
    drop(warm_up);

    // Every pass is scaled by the mean of the reference times taken just
    // before and just after it.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut reference = calibrate::reference_s(pass::WORKERS);
    let mut timed_pass = |traced: bool, number: u64| {
        let mut p = run_pass(&plan, traced, number);
        let after = calibrate::reference_s(pass::WORKERS);
        p.reference_s = (reference + after) / 2.0;
        reference = after;
        p
    };
    for number in 1.. {
        let round = Instant::now();
        let p = timed_pass(false, number);
        attempted += p.cells.len() as u64;
        failed += failures(&p);
        if args.trace {
            let mut t = timed_pass(true, number);
            check_trace_counts(&plan, &p, &mut t);
            attempted += t.cells.len() as u64;
            failed += failures(&t);
            traced.push(t);
        }
        plain.push(p);
        if Instant::now() + round.elapsed() > deadline {
            break;
        }
    }

    println!(
        "perfbench workload={} seed={} cells/pass={} untraced passes={} traced passes={}",
        plan.workload.name(),
        plan.seed,
        plan.cells.len(),
        plain.len(),
        traced.len()
    );
    let entries = if args.trace {
        report::per_layer(&plain, &traced)
    } else {
        report::end_to_end(&plain, peak_heap_bytes)
    };
    for e in &entries {
        println!(
            "{:<36} {:>22} {:<12} ({} is better)",
            e.name,
            e.value.render(),
            e.unit,
            e.better
        );
    }
    if !args.trace {
        // Not a result metric: a median of zero has no spread to bound.
        // The result line carries it as `failed` / `attempted`.
        println!(
            "{:<36} {:>22} {:<12} ({failed} of {attempted} cell runs failed)",
            "error_rate",
            failed as f64 / attempted as f64,
            "ratio"
        );
    }
    println!("{}", report::result_line(attempted, failed, &entries));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::json::Json;
    use proteus::Cycles;

    /// Window of the shortened passes: long enough in `faults` for the
    /// victim to be declared dead after its mid-run kill.
    fn short(workload: Workload) -> Cycles {
        match workload {
            Workload::Faults => Cycles(800_000),
            _ => Cycles(100_000),
        }
    }

    fn per_cell(pass: &Pass) -> Vec<&workloads::Counts> {
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        pass.runs().map(|r| &r.counts).collect()
    }

    #[test]
    fn counts_repeat_across_passes_and_under_tracing() {
        bench::pool::set_jobs(pass::WORKERS);
        for workload in Workload::ALL {
            let plan = Plan::shortened(workload, 7, short(workload));
            let (a, b) = (run_pass(&plan, false, 1), run_pass(&plan, false, 2));
            let (ta, tb) = (run_pass(&plan, true, 3), run_pass(&plan, true, 4));
            assert_eq!(per_cell(&a), per_cell(&b), "{workload:?} untraced");
            assert_eq!(per_cell(&ta), per_cell(&tb), "{workload:?} traced");
            for (plain, traced) in per_cell(&a).into_iter().zip(per_cell(&ta)) {
                for (k, v) in plain {
                    assert_eq!(traced.get(k), Some(v), "{workload:?} {k} under tracing");
                }
                for k in ["engine.events.poll", "coherence.misses", "recovery.retries"] {
                    assert!(traced.contains_key(k), "{workload:?} traced pass lacks {k}");
                }
            }
        }
    }

    #[test]
    fn reproduce_matches_golden_in_any_cell_order() {
        bench::pool::set_jobs(pass::WORKERS);
        let pass = run_pass(&Plan::new(Workload::Reproduce, 11), false, 1);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
    }

    /// The reported names, units and directions are the ones
    /// BENCHMARK.json declares, in the same order.
    #[test]
    fn reported_metrics_match_benchmark_json() {
        let doc = bench::json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let reported = |entries: Vec<report::Entry>| -> Vec<(String, String, String)> {
            entries
                .into_iter()
                .map(|e| (e.name, e.unit.to_string(), e.better.to_string()))
                .collect()
        };
        let plan = Plan::shortened(Workload::Faults, 0, short(Workload::Faults));
        let (plain, traced) = (
            vec![run_pass(&plan, false, 1)],
            vec![run_pass(&plan, true, 1)],
        );
        assert_eq!(
            reported(report::end_to_end(&plain, 1)),
            declared("end_to_end")
        );
        assert_eq!(
            reported(report::per_layer(&plain, &traced)),
            declared("per_layer")
        );
    }
}
