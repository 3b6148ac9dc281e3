//! Cross-crate integration test: the cycle-accounting audit holds for both
//! applications under every scheme, and the JSON artifact layer round-trips
//! the resulting metrics.
//!
//! This is the PR's acceptance test for the observability layer: with
//! [`migrate_rt::MachineConfig::audit`] on, `metrics()` panics unless every
//! charged cycle is attributed to a registered Table-5 category and every
//! task's busy duration equals the sum of busy-category charges made while
//! it ran. Registered under the `bench` crate (see its `Cargo.toml`), which
//! is the one crate that depends on both applications and the JSON codec.

use bench::json::{parse, Json};
use bench::{failover_schemes, metrics_to_json, rows_to_json, Row};
use migrate_apps::btree::BTreeExperiment;
use migrate_apps::counting::CountingExperiment;
use migrate_rt::{cost, Category, MessageKind, RunMetrics, Scheme};
use proteus::Cycles;

fn audited_counting(scheme: Scheme) -> RunMetrics {
    let exp = CountingExperiment {
        audit: true,
        ..CountingExperiment::paper(8, 0, scheme)
    };
    exp.run(Cycles(20_000), Cycles(60_000))
}

fn audited_btree(scheme: Scheme) -> RunMetrics {
    let exp = BTreeExperiment {
        initial_keys: 400,
        requesters: 6,
        audit: true,
        ..BTreeExperiment::paper(0, scheme)
    };
    exp.run(Cycles(30_000), Cycles(80_000))
}

fn check_audited(name: &str, metrics: &RunMetrics) {
    // metrics() already panicked if the audit failed; check the summary
    // is present and internally consistent.
    let audit = metrics
        .audit
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: audit summary missing"));
    assert!(audit.tasks_checked > 0, "{name}: no tasks audited");
    assert_eq!(
        audit.grand_total,
        audit.busy_total + audit.transit_total,
        "{name}: audit totals do not decompose"
    );
    assert!(audit.busy_total > 0, "{name}: no busy cycles charged");
    assert!(
        metrics.dispatch.total() > 0,
        "{name}: no mechanism dispatches recorded"
    );
    assert_eq!(metrics.runtime_errors, 0, "{name}: runtime errors recorded");
    assert!(metrics.ops > 0, "{name}: no operations completed");
}

#[test]
fn audit_holds_for_counting_network_under_all_schemes() {
    for (name, scheme) in failover_schemes() {
        let metrics = audited_counting(scheme);
        check_audited(&format!("counting/{name}"), &metrics);
    }
}

#[test]
fn audit_holds_for_btree_under_all_schemes() {
    for (name, scheme) in failover_schemes() {
        let metrics = audited_btree(scheme);
        check_audited(&format!("btree/{name}"), &metrics);
    }
}

#[test]
fn json_artifacts_round_trip() {
    let metrics = audited_counting(Scheme::computation_migration());
    let rows = vec![Row {
        label: Scheme::computation_migration().label(),
        metrics: metrics.clone(),
    }];
    let text = rows_to_json(&rows).render();
    let doc = parse(&text).expect("rendered JSON parses");
    let row = &doc.as_arr().expect("array of rows")[0];
    assert_eq!(
        row.get("scheme").and_then(Json::as_str),
        Some(Scheme::computation_migration().label().as_str())
    );
    let m = row.get("metrics").expect("metrics object");
    assert_eq!(m.get("ops").and_then(Json::as_u64), Some(metrics.ops));
    assert_eq!(
        m.get("migrations").and_then(Json::as_u64),
        Some(metrics.migrations)
    );
    assert_eq!(
        m.get("throughput_per_1000").and_then(Json::as_f64),
        Some(metrics.throughput_per_1000)
    );
    // The audit summary survives serialization with exact integers.
    let audit = metrics.audit.as_ref().expect("audit on");
    let audit_json = m.get("audit").expect("audit object");
    assert_eq!(
        audit_json.get("grand_total").and_then(Json::as_u64),
        Some(audit.grand_total)
    );
    assert_eq!(
        audit_json.get("transit_total").and_then(Json::as_u64),
        Some(audit.transit_total)
    );
    // The accounting breakdown is an object with one integer per category,
    // and its values sum to the audit's grand total.
    let accounting = m.get("accounting").expect("accounting object");
    let sum: u64 = match accounting {
        Json::Obj(fields) => fields
            .iter()
            .map(|(_, v)| v.as_u64().expect("integer cycles"))
            .sum(),
        other => panic!("accounting is not an object: {other:?}"),
    };
    assert_eq!(sum, audit.grand_total);
    // Dispatch rows serialize site + mechanism labels.
    let dispatch = m.get("dispatch").and_then(Json::as_arr).expect("dispatch");
    assert!(!dispatch.is_empty());
    for d in dispatch {
        assert!(d.get("site").and_then(Json::as_str).is_some());
        assert!(d.get("mechanism").and_then(Json::as_str).is_some());
        assert!(d.get("count").and_then(Json::as_u64).is_some());
    }
    // metrics_to_json alone round-trips too (used by the binary's artifact
    // document).
    let alone = parse(&metrics_to_json(&metrics).render()).expect("parses");
    assert_eq!(
        alone.get("message_words").and_then(Json::as_u64),
        Some(metrics.message_words)
    );
}

#[test]
fn replica_apply_charges_are_replica_updates_times_their_cost() {
    // Every replica update sent is applied once, at one charge site. A
    // drained, fault-free run measured from time 0 has no update in
    // flight at either end of the window; no golden B-tree cell sends one.
    let per_thread = 20;
    let exp = BTreeExperiment {
        initial_keys: 8,
        fanout: 4,
        data_procs: 8,
        requesters: 4,
        insert_permille: 1000,
        requests_per_thread: Some(per_thread),
        audit: true,
        ..BTreeExperiment::paper(0, Scheme::computation_migration().with_replication())
    };
    let (mut runner, _root) = exp.build();
    let m = runner.run(Cycles::ZERO, Cycles(20_000_000));
    assert_eq!(m.ops, u64::from(exp.requesters) * per_thread, "not drained");
    let updates = m.message_kinds[&MessageKind::ReplicaUpdate];
    assert!(updates > 0);
    assert_eq!(
        m.accounting.total(Category::ReplicaApply),
        updates * cost::REPLICA_APPLY.get()
    );
}
