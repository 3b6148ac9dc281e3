//! Property tests for the cost model and scheme algebra.

use migrate_rt::cost::{Category, THREAD_CREATION};
use migrate_rt::{CostModel, Scheme};
use proptest::prelude::*;
use proteus::Cycles;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn marshalling_monotone_in_words(a in 0u64..10_000, b in 0u64..10_000) {
        let c = CostModel::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(c.marshal(lo) <= c.marshal(hi));
        prop_assert!(c.unmarshal(lo) <= c.unmarshal(hi));
        prop_assert!(c.send(lo) <= c.send(hi));
        prop_assert!(c.receive(lo, false) <= c.receive(hi, false));
    }

    #[test]
    fn hardware_support_never_costs_more(words in 0u64..10_000, short in any::<bool>()) {
        let sw = CostModel::default();
        let hw = CostModel::default().with_hw_message_support().with_hw_goid_support();
        prop_assert!(hw.send(words) <= sw.send(words));
        prop_assert!(hw.receive(words, short) <= sw.receive(words, short));
    }

    #[test]
    fn short_method_discount_is_exactly_thread_creation(words in 0u64..10_000) {
        let c = CostModel::default();
        prop_assert_eq!(
            c.receive(words, false) - c.receive(words, true),
            THREAD_CREATION
        );
    }

    #[test]
    fn receive_dominates_send(words in 0u64..1_000) {
        // The Table 5 asymmetry: the receive path (copy, thread, unmarshal,
        // translation, scheduling) always outweighs the send path.
        let c = CostModel::default();
        prop_assert!(c.receive(words, false) > c.send(words));
    }

    #[test]
    fn scheme_labels_are_unique_and_stable(idx in 0usize..9) {
        let rows = Scheme::table1_rows();
        let labels: Vec<String> = rows.iter().map(Scheme::label).collect();
        // All nine table rows have distinct labels.
        for (i, a) in labels.iter().enumerate() {
            for (j, b) in labels.iter().enumerate() {
                if i != j {
                    prop_assert_ne!(a, b);
                }
            }
        }
        // label() is a pure function of the scheme.
        prop_assert_eq!(rows[idx].label(), rows[idx].label());
    }

    #[test]
    fn hw_builders_commute(words in 0u64..1_000) {
        let a = CostModel::default().with_hw_message_support().with_hw_goid_support();
        let b = CostModel::default().with_hw_goid_support().with_hw_message_support();
        prop_assert_eq!(a.send(words), b.send(words));
        prop_assert_eq!(a.receive(words, false), b.receive(words, false));
        prop_assert_eq!(a, b);
        prop_assert!(a
            .receive_charges(words, false)
            .contains(&(Category::GoidTranslation, Cycles::ZERO)));
    }
}
