//! The paper's headline qualitative results, asserted as tests.
//!
//! These run the two applications at (scaled-down) paper configurations and
//! check the *shape* of the evaluation: who wins, in which regime, and in
//! which direction each mechanism moves. EXPERIMENTS.md records the full
//! quantitative comparison; these tests pin the orderings so a regression
//! that flips a conclusion fails CI.

use migrate_apps::btree::BTreeExperiment;
use migrate_apps::counting::CountingExperiment;
use migrate_rt::{RunMetrics, Scheme};
use proteus::Cycles;

fn counting(requesters: u32, think: u64, scheme: Scheme) -> RunMetrics {
    CountingExperiment::paper(requesters, think, scheme).run(Cycles(100_000), Cycles(300_000))
}

fn btree(think: u64, scheme: Scheme) -> RunMetrics {
    BTreeExperiment::paper(think, scheme).run(Cycles(150_000), Cycles(500_000))
}

// ---------------------------------------------------------------------
// Counting network (§4.1, Figures 2 & 3)
// ---------------------------------------------------------------------

#[test]
fn counting_throughput_order_sm_cm_rpc() {
    // Figure 2's legend order at moderate load.
    let sm = counting(16, 0, Scheme::shared_memory());
    let cm = counting(16, 0, Scheme::computation_migration());
    let rpc = counting(16, 0, Scheme::rpc());
    assert!(
        sm.throughput_per_1000 > cm.throughput_per_1000,
        "SM {} vs CM {}",
        sm.throughput_per_1000,
        cm.throughput_per_1000
    );
    assert!(
        cm.throughput_per_1000 > 1.5 * rpc.throughput_per_1000,
        "CM {} vs RPC {}",
        cm.throughput_per_1000,
        rpc.throughput_per_1000
    );
}

#[test]
fn counting_cm_with_hardware_beats_sm_under_high_contention() {
    // §4.1: "under high contention, computation migration with hardware
    // support can perform better than shared memory".
    let sm = counting(48, 0, Scheme::shared_memory());
    let cm_hw = counting(48, 0, Scheme::computation_migration().with_hardware());
    assert!(
        cm_hw.throughput_per_1000 > sm.throughput_per_1000,
        "CM w/HW {} vs SM {}",
        cm_hw.throughput_per_1000,
        sm.throughput_per_1000
    );
}

#[test]
fn counting_sm_needs_most_bandwidth_under_contention() {
    // Figure 3 at zero think time: coherence activity makes SM the most
    // bandwidth-hungry, and CM needs less than RPC and SM.
    let sm = counting(32, 0, Scheme::shared_memory());
    let cm = counting(32, 0, Scheme::computation_migration());
    let rpc = counting(32, 0, Scheme::rpc());
    assert!(sm.bandwidth_words_per_10 > rpc.bandwidth_words_per_10);
    assert!(sm.bandwidth_words_per_10 > 2.0 * cm.bandwidth_words_per_10);
    assert!(cm.bandwidth_words_per_10 < rpc.bandwidth_words_per_10);
}

#[test]
fn counting_hw_support_improves_cm_about_twenty_percent() {
    let cm = counting(32, 0, Scheme::computation_migration());
    let cm_hw = counting(32, 0, Scheme::computation_migration().with_hardware());
    let gain = cm_hw.throughput_per_1000 / cm.throughput_per_1000;
    assert!((1.05..1.6).contains(&gain), "gain {gain}");
}

#[test]
fn counting_throughput_scales_then_saturates() {
    // Throughput rises with requesters, then the six-stage pipeline (four
    // balancers per stage) saturates.
    let t8 = counting(8, 0, Scheme::computation_migration()).throughput_per_1000;
    let t32 = counting(32, 0, Scheme::computation_migration()).throughput_per_1000;
    let t64 = counting(64, 0, Scheme::computation_migration()).throughput_per_1000;
    assert!(t32 > 1.8 * t8, "t8={t8} t32={t32}");
    assert!(t64 < 1.2 * t32, "saturation: t32={t32} t64={t64}");
}

#[test]
fn counting_migrations_track_network_depth() {
    let m = counting(16, 0, Scheme::computation_migration());
    let per_op = m.migrations as f64 / m.ops as f64;
    assert!((5.0..7.2).contains(&per_op), "migrations/op {per_op}");
}

// ---------------------------------------------------------------------
// B-tree (§4.2, Tables 1–4)
// ---------------------------------------------------------------------

#[test]
fn btree_table1_ordering_holds() {
    let sm = btree(0, Scheme::shared_memory());
    let rpc = btree(0, Scheme::rpc());
    let cp = btree(0, Scheme::computation_migration());
    let cp_r = btree(0, Scheme::computation_migration().with_replication());
    let cp_rh = btree(
        0,
        Scheme::computation_migration()
            .with_replication()
            .with_hardware(),
    );
    // SM wins overall (automatic replication in the caches).
    assert!(sm.throughput_per_1000 > cp_rh.throughput_per_1000);
    // Replication + hardware close most of the gap.
    assert!(cp_rh.throughput_per_1000 > cp_r.throughput_per_1000);
    assert!(cp_r.throughput_per_1000 > cp.throughput_per_1000);
    // CM beats RPC by roughly the paper's factor (2.1x; allow 1.5–3x).
    let ratio = cp.throughput_per_1000 / rpc.throughput_per_1000;
    assert!((1.5..3.0).contains(&ratio), "CP/RPC {ratio}");
}

#[test]
fn btree_root_bottleneck_saturates_one_processor() {
    // Under plain CM every operation migrates to the root's home first; the
    // busiest processor should be pegged.
    let m = btree(0, Scheme::computation_migration());
    assert!(
        m.max_proc_utilization > 0.95,
        "root home utilization {}",
        m.max_proc_utilization
    );
}

#[test]
fn btree_replication_trades_bandwidth_for_throughput() {
    let cp = btree(0, Scheme::computation_migration());
    let cp_r = btree(0, Scheme::computation_migration().with_replication());
    // Fewer migrations per op (the root hop is gone)...
    let per_plain = cp.migrations as f64 / cp.ops as f64;
    let per_repl = cp_r.migrations as f64 / cp_r.ops as f64;
    assert!(per_repl < per_plain, "{per_repl} vs {per_plain}");
    // ...and higher throughput.
    assert!(cp_r.throughput_per_1000 > 1.2 * cp.throughput_per_1000);
}

#[test]
fn btree_sm_pays_for_its_caches_in_bandwidth() {
    // Table 2: SM needs an order of magnitude more network words.
    let sm = btree(0, Scheme::shared_memory());
    let cp = btree(0, Scheme::computation_migration());
    assert!(
        sm.bandwidth_words_per_10 > 10.0 * cp.bandwidth_words_per_10,
        "SM {} vs CP {}",
        sm.bandwidth_words_per_10,
        cp.bandwidth_words_per_10
    );
}

#[test]
fn btree_think_time_brings_sm_and_cm_together() {
    // Tables 3 & 4: at 10000-cycle think time SM and CP w/repl.&HW are
    // "almost identical"; SM still uses far more bandwidth.
    let sm = btree(10_000, Scheme::shared_memory());
    let cp = btree(
        10_000,
        Scheme::computation_migration()
            .with_replication()
            .with_hardware(),
    );
    let ratio = cp.throughput_per_1000 / sm.throughput_per_1000;
    assert!(
        (0.75..1.35).contains(&ratio),
        "CP/SM at think 10000: {ratio}"
    );
    assert!(sm.bandwidth_words_per_10 > 4.0 * cp.bandwidth_words_per_10);
}

#[test]
fn btree_fanout10_lifts_cm_with_replication() {
    // §4.2: smaller nodes mean cheaper activations and a wider root, so
    // CP w/repl. improves markedly over its fanout-100 figure and the
    // SM gap narrows.
    let wide = BTreeExperiment::paper(0, Scheme::computation_migration().with_replication())
        .run(Cycles(150_000), Cycles(500_000));
    let narrow = BTreeExperiment {
        fanout: 10,
        ..BTreeExperiment::paper(0, Scheme::computation_migration().with_replication())
    }
    .run(Cycles(150_000), Cycles(500_000));
    assert!(
        narrow.throughput_per_1000 > 1.2 * wide.throughput_per_1000,
        "fanout10 {} vs fanout100 {}",
        narrow.throughput_per_1000,
        wide.throughput_per_1000
    );
}

#[test]
fn btree_rpc_gains_more_from_hw_than_cm() {
    // Table 1: RPC improves ~34% with hardware support, CM ~19% — RPC has
    // twice the messages to accelerate. Allow generous bands.
    let rpc = btree(0, Scheme::rpc());
    let rpc_hw = btree(0, Scheme::rpc().with_hardware());
    let cp = btree(0, Scheme::computation_migration());
    let cp_hw = btree(0, Scheme::computation_migration().with_hardware());
    let rpc_gain = rpc_hw.throughput_per_1000 / rpc.throughput_per_1000;
    let cp_gain = cp_hw.throughput_per_1000 / cp.throughput_per_1000;
    assert!(rpc_gain > 1.05, "rpc gain {rpc_gain}");
    assert!(cp_gain > 1.05, "cp gain {cp_gain}");
}
