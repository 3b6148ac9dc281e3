//! Turning passes into the named metrics the benchmark reports.

use bench::json::{obj, Json};

use crate::pass::Pass;
use crate::sink::{ENGINE_KINDS, ERROR_CODES};
use crate::workloads::DISPATCH_KINDS;

/// Engine event kinds reported per kind (the rare `disrupt` and `kill`
/// still count in `engine.events`).
fn reported_kinds() -> &'static [&'static str] {
    &ENGINE_KINDS[..6]
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Metric name, as in BENCHMARK.json.
    pub name: String,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The value.
    pub value: Json,
}

#[derive(Default)]
struct Entries(Vec<Entry>);

impl Entries {
    fn num(&mut self, name: impl Into<String>, unit: &'static str, better: &'static str, v: f64) {
        self.0.push(Entry {
            name: name.into(),
            unit,
            better,
            value: Json::Num(v),
        });
    }

    fn count(&mut self, name: impl Into<String>, v: u64) {
        self.0.push(Entry {
            name: name.into(),
            unit: "count",
            better: "lower",
            value: Json::Int(v),
        });
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(passes.iter().map(f).collect())
}

fn events(pass: &Pass) -> u64 {
    pass.runs().map(|r| r.counts["engine.events"]).sum()
}

/// The end-to-end metrics, from untraced passes and the heap peak of the
/// serial warm-up pass. Host times are scaled to the reference host speed
/// ([`Pass::scaled`]).
pub fn end_to_end(plain: &[Pass], peak_heap_bytes: usize) -> Vec<Entry> {
    let mut e = Entries::default();
    e.num(
        "pass_cpu_s",
        "s",
        "lower",
        median_of(plain, |p| p.scaled(p.cpu_s)),
    );
    e.num(
        "events_per_s",
        "1/s",
        "higher",
        median_of(plain, |p| {
            events(p) as f64 / p.scaled(p.runs().map(|r| r.run_s).sum::<f64>())
        }),
    );
    e.num(
        "setup_s",
        "s",
        "lower",
        median_of(plain, |p| p.scaled(p.runs().map(|r| r.setup_s).sum())),
    );
    e.num("peak_heap_mb", "MB", "lower", peak_heap_bytes as f64 / 1e6);
    e.0
}

/// The per-layer metrics: counts and self times from the traced passes,
/// pass-level host figures from the untraced ones. Host times are scaled as
/// in [`end_to_end`], except the `host.*` figures, which show the scaling's
/// inputs and the unscaled wall time.
pub fn per_layer(plain: &[Pass], traced: &[Pass]) -> Vec<Entry> {
    let last = traced.last().expect("at least one traced pass");
    let counts = last.counts();
    let c = |k: &str| counts.get(k).copied().unwrap_or(0);
    let mut e = Entries::default();

    e.count("engine.events", c("engine.events"));
    for kind in reported_kinds() {
        e.count(
            format!("engine.events.{kind}"),
            c(&format!("engine.events.{kind}")),
        );
    }
    e.count(
        "engine.peak_queue_depth",
        last.runs()
            .map(|r| r.peak_queue_depth as u64)
            .max()
            .unwrap_or(0),
    );
    for kind in reported_kinds() {
        let i = ENGINE_KINDS
            .iter()
            .position(|k| k == kind)
            .expect("known kind");
        let ns = median_of(traced, |p| {
            let ns: u64 = p.runs().map(|r| r.self_ns[i]).sum();
            p.scaled(ns as f64) / c(&format!("engine.events.{kind}")).max(1) as f64
        });
        e.num(format!("engine.self_ns.{kind}"), "ns/event", "lower", ns);
    }

    e.count("network.sends", c("network.sends"));
    e.num("network.words", "words", "lower", c("network.words") as f64);
    e.count("coherence.misses", c("coherence.misses"));
    let hit_rates: Vec<f64> = last
        .runs()
        .map(|r| r.cache_hit_rate)
        .filter(|&h| h > 0.0)
        .collect();
    let mean_hit_rate = if hit_rates.is_empty() {
        0.0
    } else {
        hit_rates.iter().sum::<f64>() / hit_rates.len() as f64
    };
    e.num("cache.hit_rate", "ratio", "higher", mean_hit_rate);
    e.count("processor.tasks", c("processor.tasks"));
    let utils: Vec<f64> = last.runs().map(|r| r.max_utilization).collect();
    e.num(
        "processor.max_utilization",
        "ratio",
        "lower",
        utils.iter().sum::<f64>() / utils.len().max(1) as f64,
    );

    for k in ["fault.decisions", "fault.drops", "fault.duplicates"] {
        e.count(k, c(k));
    }
    for kind in DISPATCH_KINDS {
        e.count(format!("dispatch.{kind}"), c(&format!("dispatch.{kind}")));
    }
    e.count("runtime.migrations", c("runtime.migrations"));
    for k in [
        "recovery.acks",
        "recovery.retries",
        "recovery.duplicates_suppressed",
        "recovery.fallbacks",
        "recovery.messages_lost",
    ] {
        e.count(k, c(k));
    }
    let (acks, retries) = (c("recovery.acks"), c("recovery.retries"));
    let first_try = if acks + retries == 0 {
        1.0
    } else {
        acks as f64 / (acks + retries) as f64
    };
    e.num("recovery.first_try_ratio", "ratio", "higher", first_try);
    e.count("failover.heartbeats", c("failover.heartbeats"));
    e.count("failover.deltas", c("failover.deltas"));
    e.num(
        "failover.delta_words",
        "words",
        "lower",
        c("failover.delta_words") as f64,
    );
    e.count("failover.rerouted", c("failover.rerouted"));
    e.count("failover.threads_lost", c("failover.threads_lost"));
    e.count("policy.decisions", c("policy.decisions"));
    e.count("policy.flips", c("policy.flips"));
    for (code, _) in ERROR_CODES {
        e.count(
            format!("runtime.errors.{code}"),
            c(&format!("runtime.errors.{code}")),
        );
    }

    let sum =
        |p: &Pass, f: &dyn Fn(&crate::workloads::CellRun) -> f64| p.runs().map(f).sum::<f64>();
    e.num(
        "metrics.extract_s",
        "s",
        "lower",
        median_of(traced, |p| p.scaled(sum(p, &|r| r.extract_s))),
    );
    e.num(
        "audit.check_s",
        "s",
        "lower",
        median_of(plain, |p| p.scaled(sum(p, &|r| r.audit_s))),
    );
    e.num(
        "setup.btree_s",
        "s",
        "lower",
        median_of(plain, |p| {
            p.scaled(sum(p, &|r| if r.btree { r.setup_s } else { 0.0 }))
        }),
    );
    e.num(
        "setup.counting_s",
        "s",
        "lower",
        median_of(plain, |p| {
            p.scaled(sum(p, &|r| if r.btree { 0.0 } else { r.setup_s }))
        }),
    );
    e.num(
        "pool.utilization",
        "ratio",
        "higher",
        median_of(plain, |p| p.pool_utilization),
    );
    e.num(
        "pool.tail_s",
        "s",
        "lower",
        median_of(plain, |p| p.scaled(p.pool_tail_s)),
    );
    e.num(
        "json.render_s",
        "s",
        "lower",
        median_of(plain, |p| p.scaled(p.json_render_s)),
    );
    e.num(
        "alloc.per_event",
        "count/event",
        "lower",
        median_of(plain, |p| p.allocations as f64 / events(p).max(1) as f64),
    );
    e.num(
        "alloc.bytes_per_event",
        "B/event",
        "lower",
        median_of(plain, |p| p.alloc_bytes as f64 / events(p).max(1) as f64),
    );
    e.num(
        "trace.overhead",
        "ratio",
        "lower",
        median_of(traced, |p| p.scaled(p.cpu_s)) / median_of(plain, |p| p.scaled(p.cpu_s)),
    );
    e.num(
        "host.reference_s",
        "s",
        "lower",
        median_of(plain, |p| p.reference_s),
    );
    e.num(
        "host.unscaled_cpu_s",
        "s",
        "lower",
        median_of(plain, |p| p.cpu_s),
    );
    e.num("host.wall_s", "s", "lower", median_of(plain, |p| p.wall_s));
    e.0
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, entries: &[Entry]) -> String {
    let metrics = entries
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                obj(vec![
                    ("value", m.value.clone()),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}
