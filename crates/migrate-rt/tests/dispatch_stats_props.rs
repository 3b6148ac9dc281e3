//! Property tests for the per-call-site dispatch counters.
//!
//! `DispatchStats` keeps one row of counters per call site in first-seen
//! order and finds a site by its label's address before its text. Whatever
//! the order of the stream and whichever copy of a label it names, what it
//! reports must equal a `BTreeMap<(&str, DispatchKind), u64>` keyed by the
//! label's text.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use migrate_rt::{DispatchKind, DispatchStats};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const KINDS: [DispatchKind; 9] = [
    DispatchKind::LocalInline,
    DispatchKind::ReplicaRead,
    DispatchKind::Rpc,
    DispatchKind::Migration,
    DispatchKind::Remigration,
    DispatchKind::ThreadMove,
    DispatchKind::ObjectPull,
    DispatchKind::SharedMemory,
    DispatchKind::RpcFallback,
];

/// Six call-site labels. The second has the first's text at another
/// address, as a literal compiled into another crate would; the rest are
/// distinct, and "btree" sorts before "btree-op".
fn labels() -> [&'static str; 6] {
    static COPY: OnceLock<&'static str> = OnceLock::new();
    let copy = *COPY.get_or_init(|| Box::leak(String::from("btree-op").into_boxed_str()));
    [
        "btree-op",
        copy,
        "counting-driver",
        "balancer",
        "btree",
        "root",
    ]
}

/// A stream of `(label index, kind index, shuffle key)` dispatches over
/// the first one to six labels.
fn stream() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    let dispatch = (0..6usize, 0..KINDS.len(), any::<u64>());
    (1..7usize, pvec(dispatch, 0..200)).prop_map(|(sites, stream)| {
        stream
            .into_iter()
            .map(|(site, kind, key)| (site % sites, kind, key))
            .collect()
    })
}

fn record(stream: &[(usize, usize, u64)]) -> DispatchStats {
    let labels = labels();
    let mut stats = DispatchStats::default();
    for &(site, kind, _) in stream {
        stats.record(labels[site], KINDS[kind]);
    }
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stats_match_a_text_keyed_btree_map(stream in stream()) {
        let labels = labels();
        prop_assert!(!std::ptr::eq(labels[0], labels[1]) && labels[0] == labels[1]);
        let stats = record(&stream);
        let mut reference: BTreeMap<(&str, DispatchKind), u64> = BTreeMap::new();
        for &(site, kind, _) in &stream {
            *reference.entry((labels[site], KINDS[kind])).or_insert(0) += 1;
        }

        let rows: Vec<_> = stats.rows().collect();
        let expected: Vec<_> = reference.iter().map(|(&(s, k), &n)| (s, k, n)).collect();
        prop_assert_eq!(rows, expected);
        for kind in KINDS {
            let count: u64 = reference
                .iter()
                .filter(|((_, k), _)| *k == kind)
                .map(|(_, n)| n)
                .sum();
            prop_assert_eq!(stats.count(kind), count);
            for site in labels {
                let n = reference.get(&(site, kind)).copied().unwrap_or(0);
                prop_assert_eq!(stats.site_count(site, kind), n);
            }
        }
        prop_assert_eq!(stats.total(), stream.len() as u64);
    }

    #[test]
    fn the_same_multiset_in_another_order_compares_equal(stream in stream()) {
        let mut shuffled = stream.clone();
        shuffled.sort_unstable_by_key(|&(_, _, key)| key);
        prop_assert_eq!(record(&stream), record(&shuffled));
    }
}

#[test]
fn a_label_copy_counts_on_the_same_row() {
    let [original, copy, ..] = labels();
    let mut stats = DispatchStats::default();
    stats.record(copy, DispatchKind::Rpc);
    stats.record(original, DispatchKind::Rpc);
    stats.record(original, DispatchKind::Migration);
    assert_eq!(
        stats.rows().collect::<Vec<_>>(),
        vec![
            ("btree-op", DispatchKind::Rpc, 2),
            ("btree-op", DispatchKind::Migration, 1),
        ]
    );
    assert_eq!(stats.site_count(copy, DispatchKind::Migration), 1);
}

#[test]
fn different_counts_compare_unequal() {
    let [original, _, other, ..] = labels();
    let mut a = DispatchStats::default();
    a.record(original, DispatchKind::Rpc);
    let mut b = a.clone();
    assert_eq!(a, b);
    b.record(original, DispatchKind::Rpc);
    assert_ne!(a, b);
    a.record(other, DispatchKind::Rpc);
    assert_ne!(a, b);
}
