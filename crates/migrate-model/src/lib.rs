//! # migrate-model — the analytic message-count model of §2.5 / Figure 1
//!
//! The paper motivates computation migration with a simple counting model:
//! one thread on processor P0 makes `n` consecutive accesses to each of `m`
//! data items living on processors P1…Pm.
//!
//! * **RPC** sends a request and a reply for *every* access: `2·n·m`.
//! * **Data migration** moves each datum once and then accesses it locally:
//!   `2·m` (request + data, per item).
//! * **Computation migration** moves the activation to each item in turn —
//!   one message per item — and the final return short-circuits directly to
//!   the caller: `m + 1`.
//!
//! (Figure 1 labels each migration hop "1" and each request/reply pair "2";
//! the model deliberately ignores message sizes and contention, which the
//! simulator crates account for.)
//!
//! The integration tests cross-validate these formulas against actual
//! message counts observed in the `migrate-rt` simulator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The access pattern of the §2.5 scenario.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    /// Number of distinct remote data items (on distinct processors).
    pub items: u64,
    /// Consecutive accesses made to each item.
    pub accesses_per_item: u64,
}

impl Pattern {
    /// A pattern of `m` items × `n` accesses each.
    pub fn new(items: u64, accesses_per_item: u64) -> Pattern {
        Pattern {
            items,
            accesses_per_item,
        }
    }

    /// Messages under RPC: two per access (`2·n·m`).
    pub fn rpc_messages(&self) -> u64 {
        2 * self.items * self.accesses_per_item
    }

    /// Messages under data migration: two per item (request + data), after
    /// which all `n` accesses are local. Coherence traffic from sharing is
    /// ignored, exactly as in the paper's model.
    pub fn data_migration_messages(&self) -> u64 {
        2 * self.items
    }

    /// Messages under computation migration: one migration per item plus the
    /// short-circuited final return.
    pub fn computation_migration_messages(&self) -> u64 {
        if self.items == 0 {
            0
        } else {
            self.items + 1
        }
    }

    /// Message savings of computation migration over data migration (signed:
    /// CM wins whenever `m > 1`).
    pub fn cm_saving_vs_data_migration(&self) -> i64 {
        self.data_migration_messages() as i64 - self.computation_migration_messages() as i64
    }
}

/// One row of the Figure 1 comparison table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Figure1Row {
    /// The pattern.
    pub pattern: Pattern,
    /// RPC message count.
    pub rpc: u64,
    /// Data-migration message count.
    pub data_migration: u64,
    /// Computation-migration message count.
    pub computation_migration: u64,
}

/// Build the Figure 1 comparison for a set of `(m, n)` patterns.
pub fn figure1(patterns: &[Pattern]) -> Vec<Figure1Row> {
    patterns
        .iter()
        .map(|&pattern| Figure1Row {
            pattern,
            rpc: pattern.rpc_messages(),
            data_migration: pattern.data_migration_messages(),
            computation_migration: pattern.computation_migration_messages(),
        })
        .collect()
}

/// The three mechanisms compared in Figure 1.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mechanism {
    /// Remote procedure call.
    Rpc,
    /// Data migration (move/copy the data to the thread).
    DataMigration,
    /// Computation migration (move the activation to the data).
    ComputationMigration,
}

/// The message pattern drawn in Figure 1: per-link message counts for each
/// mechanism, as `(from, to, messages)` triples over processors `0..=m`
/// (0 is the requester; `1..=m` hold the data).
pub fn figure1_links(pattern: Pattern, mechanism: Mechanism) -> Vec<(u32, u32, u64)> {
    let m = pattern.items as u32;
    let n = pattern.accesses_per_item;
    match mechanism {
        Mechanism::Rpc => (1..=m).flat_map(|p| [(0, p, n), (p, 0, n)]).collect(),
        Mechanism::DataMigration => (1..=m).flat_map(|p| [(0, p, 1), (p, 0, 1)]).collect(),
        Mechanism::ComputationMigration => {
            if m == 0 {
                return Vec::new();
            }
            let mut links = vec![(0, 1, 1)];
            links.extend((1..m).map(|p| (p, p + 1, 1)));
            links.push((m, 0, 1));
            links
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_is_two_per_access() {
        assert_eq!(Pattern::new(3, 4).rpc_messages(), 24);
        assert_eq!(Pattern::new(1, 1).rpc_messages(), 2);
    }

    #[test]
    fn data_migration_is_two_per_item() {
        assert_eq!(Pattern::new(3, 4).data_migration_messages(), 6);
        assert_eq!(Pattern::new(3, 1000).data_migration_messages(), 6);
    }

    #[test]
    fn computation_migration_is_one_per_item_plus_return() {
        assert_eq!(Pattern::new(3, 4).computation_migration_messages(), 4);
        assert_eq!(Pattern::new(6, 1).computation_migration_messages(), 7);
        assert_eq!(Pattern::new(0, 5).computation_migration_messages(), 0);
    }

    #[test]
    fn cm_never_loses_to_rpc_and_wins_beyond_one_access() {
        for m in 1..20 {
            for n in 1..20 {
                let p = Pattern::new(m, n);
                let cm = p.computation_migration_messages();
                let rpc = p.rpc_messages();
                assert!(cm <= rpc, "m={m} n={n}");
                if m * n > 1 {
                    assert!(cm < rpc, "m={m} n={n}");
                }
            }
        }
    }

    #[test]
    fn cm_beats_data_migration_iff_multiple_items() {
        assert!(Pattern::new(1, 5).cm_saving_vs_data_migration() == 0);
        for m in 2..20 {
            assert!(
                Pattern::new(m, 5).cm_saving_vs_data_migration() > 0,
                "m={m}"
            );
        }
    }

    #[test]
    fn figure1_rows_consistent() {
        let rows = figure1(&[Pattern::new(3, 2), Pattern::new(6, 1)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rpc, 12);
        assert_eq!(rows[0].data_migration, 6);
        assert_eq!(rows[0].computation_migration, 4);
        assert_eq!(rows[1].computation_migration, 7);
    }

    #[test]
    fn link_counts_sum_to_totals() {
        for m in 1..8 {
            for n in 1..5 {
                let p = Pattern::new(m, n);
                let sum = |mech| -> u64 { figure1_links(p, mech).iter().map(|&(_, _, c)| c).sum() };
                assert_eq!(sum(Mechanism::Rpc), p.rpc_messages());
                assert_eq!(sum(Mechanism::DataMigration), p.data_migration_messages());
                assert_eq!(
                    sum(Mechanism::ComputationMigration),
                    p.computation_migration_messages()
                );
            }
        }
    }

    #[test]
    fn cm_links_form_a_ring() {
        let links = figure1_links(Pattern::new(3, 9), Mechanism::ComputationMigration);
        assert_eq!(links, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
    }
}
