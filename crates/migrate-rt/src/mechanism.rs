//! Remote-access mechanisms and scheme configuration.
//!
//! The paper's central claim is that the *mechanism* used for a remote
//! access — RPC, data migration (cache-coherent shared memory), or
//! computation migration — should be a per-call-site, performance-only
//! choice. [`Annotation`] is the program annotation of §3.1; [`Scheme`] is
//! the machine-level configuration an experiment runs under (the rows of
//! Tables 1–4).

use crate::cost::CostModel;

/// The per-call-site program annotation (§3.1).
///
/// Annotating a call site affects only performance, never semantics, and
/// migration is conditional on locality: a local target is always invoked
/// directly.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Annotation {
    /// Plain instance-method call: remote targets are reached by RPC.
    #[default]
    Rpc,
    /// Migrate the current activation to the target's processor and continue
    /// execution there (the paper's prototype: single-activation migration).
    Migrate,
    /// Migrate the *whole activation group above the thread base* — the
    /// multiple-activation migration the paper names as future work (§6).
    /// From an already-migrated group, this moves the entire group again.
    MigrateAll,
    /// Let the runtime decide online between RPC and computation migration,
    /// per call site — the §7 open problem ("deciding when to migrate...
    /// could be made dynamically based on reference patterns"). The policy
    /// engine ([`crate::policy`]) tracks a sliding window of remote-access
    /// counts per call site and migrates once the observed mean crosses a
    /// threshold, decaying back to RPC when locality disappears. Under a
    /// scheme with `migration` disabled, `Auto` is inert and behaves exactly
    /// like [`Annotation::Rpc`] — the policy can never emit a mechanism the
    /// scheme forbids.
    Auto,
}

/// How remote data is reached at the machine level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DataAccess {
    /// Message passing: objects are accessed where they live, via RPC or
    /// computation migration.
    MessagePassing,
    /// Cache-coherent shared memory (data migration): methods run on the
    /// invoking processor and every field access goes through the cache.
    SharedMemory,
    /// Emerald-style object migration: a remote invoke *pulls the object* to
    /// the invoking processor (its home moves; later accesses chase it).
    /// The comparison the paper wanted but had not finished implementing
    /// ("our group has not finished implementing object migration in
    /// Prelude yet", §4).
    ObjectMigration,
    /// Whole-thread migration (§2.3): a remote invoke moves the *entire
    /// thread* — every activation — to the data, permanently rehoming it.
    /// The grain the paper argues is too coarse.
    ThreadMigration,
}

/// How one invocation was ultimately dispatched — the runtime's *observed*
/// mechanism choice, as opposed to the [`Annotation`] requested at the call
/// site. The two differ exactly when the paper says they should: local
/// targets are always invoked inline, and disabling `Scheme::migration`
/// downgrades `Migrate` to RPC.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DispatchKind {
    /// Target object was local: invoked inline.
    LocalInline,
    /// Read-only method answered from a local software replica.
    ReplicaRead,
    /// Remote procedure call.
    Rpc,
    /// Computation migration of the current activation (group).
    Migration,
    /// A detached (already-migrated) activation migrated onward.
    Remigration,
    /// Whole-thread migration (TM substrate).
    ThreadMove,
    /// Emerald-style object pull (OM substrate).
    ObjectPull,
    /// Shared-memory execution through the coherence oracle.
    SharedMemory,
    /// A migration that exhausted its retry budget under fault injection and
    /// was re-issued as a plain RPC at the same call site (recovery
    /// protocol's graceful degradation).
    RpcFallback,
}

impl DispatchKind {
    /// Stable snake_case label used in metrics and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            DispatchKind::LocalInline => "local_inline",
            DispatchKind::ReplicaRead => "replica_read",
            DispatchKind::Rpc => "rpc",
            DispatchKind::Migration => "migration",
            DispatchKind::Remigration => "remigration",
            DispatchKind::ThreadMove => "thread_move",
            DispatchKind::ObjectPull => "object_pull",
            DispatchKind::SharedMemory => "shared_memory",
            DispatchKind::RpcFallback => "rpc_fallback",
        }
    }
}

/// Every [`DispatchKind`] in declaration order: `KINDS[kind as usize]` is
/// `kind`, so a call site's counters are one fixed-size row.
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

/// The index of `site`'s row among per-call-site `rows`. A row is found by
/// the label's address first and by its text second, because the same
/// literal may sit at more than one address (one copy per crate); the text
/// compare runs only when no row holds this address.
fn site_index<T>(rows: &[(&'static str, T)], site: &'static str) -> Option<usize> {
    rows.iter()
        .position(|&(label, _)| std::ptr::eq(label, site))
        .or_else(|| rows.iter().position(|&(label, _)| label == site))
}

/// `site`'s row among per-call-site `rows`, found by [`site_index`] or
/// appended as `new()` the first time the site is seen.
pub(crate) fn site_row<'a, T>(
    rows: &'a mut Vec<(&'static str, T)>,
    site: &'static str,
    new: impl FnOnce() -> T,
) -> &'a mut T {
    let row = match site_index(rows, site) {
        Some(row) => row,
        None => {
            rows.push((site, new()));
            rows.len() - 1
        }
    };
    &mut rows[row].1
}

/// Per-call-site dispatch counters: how many invocations each source frame
/// resolved to each mechanism. The call site is identified by the invoking
/// frame's label (the static name of the activation that issued the
/// `Invoke`), which is the granularity at which the paper's annotations are
/// placed.
///
/// Each call site is one row of counters indexed by `DispatchKind as
/// usize`, kept in first-seen order and found by the label's address (by
/// its text only when no row holds that address), so a
/// [`DispatchStats::record`] is a short scan and an increment, with no
/// string compare on the way. Ordering happens only when the counters are
/// read: [`DispatchStats::rows`] sorts the sites by text, and two stats are
/// equal when their rows are.
#[derive(Clone, Debug, Default)]
pub struct DispatchStats {
    sites: Vec<(&'static str, [u64; KINDS.len()])>,
}

impl DispatchStats {
    /// Record one dispatch decision made at `site`.
    pub fn record(&mut self, site: &'static str, kind: DispatchKind) {
        site_row(&mut self.sites, site, || [0; KINDS.len()])[kind as usize] += 1;
    }

    /// Total dispatches of `kind` across all call sites.
    pub fn count(&self, kind: DispatchKind) -> u64 {
        self.sites
            .iter()
            .map(|(_, counts)| counts[kind as usize])
            .sum()
    }

    /// Dispatches of `kind` from one call site.
    pub fn site_count(&self, site: &'static str, kind: DispatchKind) -> u64 {
        site_index(&self.sites, site).map_or(0, |row| self.sites[row].1[kind as usize])
    }

    /// All `(site, kind, count)` rows with a non-zero count, sites in text
    /// order and kinds in declaration order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, DispatchKind, u64)> + '_ {
        let mut sites: Vec<_> = self.sites.iter().collect();
        sites.sort_unstable_by_key(|(site, _)| *site);
        sites.into_iter().flat_map(|&(site, counts)| {
            KINDS
                .into_iter()
                .zip(counts)
                .filter(|&(_, n)| n > 0)
                .map(move |(kind, n)| (site, kind, n))
        })
    }

    /// Total dispatches recorded.
    pub fn total(&self) -> u64 {
        self.sites.iter().flat_map(|(_, counts)| counts).sum()
    }
}

impl PartialEq for DispatchStats {
    fn eq(&self, other: &DispatchStats) -> bool {
        self.rows().eq(other.rows())
    }
}

impl Eq for DispatchStats {}

/// A complete experiment configuration — one row of the paper's tables.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Scheme {
    /// Data-access substrate.
    pub access: DataAccess,
    /// Honor [`Annotation::Migrate`] (computation migration). When false,
    /// annotated calls fall back to RPC — flipping this bit is the paper's
    /// "simply moving the annotation".
    pub migration: bool,
    /// Hardware support ("w/HW"): the register-mapped network-interface
    /// estimate (Henry & Joerg) plus hardware GOID translation (J-Machine).
    pub hardware: bool,
    /// Software replication (multi-version memory) for objects the
    /// application marks replicated, e.g. the B-tree root.
    pub replication: bool,
}

impl Scheme {
    /// Cache-coherent shared memory ("SM" in the tables).
    pub fn shared_memory() -> Scheme {
        Scheme {
            access: DataAccess::SharedMemory,
            migration: false,
            hardware: false,
            replication: false,
        }
    }

    /// Remote procedure call ("RPC").
    pub fn rpc() -> Scheme {
        Scheme {
            access: DataAccess::MessagePassing,
            migration: false,
            hardware: false,
            replication: false,
        }
    }

    /// Computation migration ("CP" in the tables).
    pub fn computation_migration() -> Scheme {
        Scheme {
            access: DataAccess::MessagePassing,
            migration: true,
            hardware: false,
            replication: false,
        }
    }

    /// Emerald-style object migration ("OM"; extension — see DESIGN.md §7).
    pub fn object_migration() -> Scheme {
        Scheme {
            access: DataAccess::ObjectMigration,
            migration: false,
            hardware: false,
            replication: false,
        }
    }

    /// Whole-thread migration ("TM"; extension — see DESIGN.md §7).
    pub fn thread_migration() -> Scheme {
        Scheme {
            access: DataAccess::ThreadMigration,
            migration: false,
            hardware: false,
            replication: false,
        }
    }

    /// Add both hardware-support estimates ("w/HW").
    pub fn with_hardware(mut self) -> Scheme {
        self.hardware = true;
        self
    }

    /// Add software replication ("w/repl.").
    pub fn with_replication(mut self) -> Scheme {
        self.replication = true;
        self
    }

    /// The cost model this scheme implies.
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            hw_message: self.hardware,
            hw_goid: self.hardware,
            ..CostModel::default()
        }
    }

    /// Short label matching the paper's tables ("SM", "RPC w/repl. & HW", …).
    pub fn label(&self) -> String {
        match self.access {
            DataAccess::SharedMemory => "SM".to_string(),
            DataAccess::ObjectMigration => "OM".to_string(),
            DataAccess::ThreadMigration => "TM".to_string(),
            DataAccess::MessagePassing => {
                let mut s = if self.migration { "CP" } else { "RPC" }.to_string();
                match (self.replication, self.hardware) {
                    (true, true) => s.push_str(" w/repl. & HW"),
                    (true, false) => s.push_str(" w/repl."),
                    (false, true) => s.push_str(" w/HW"),
                    (false, false) => {}
                }
                s
            }
        }
    }

    /// The nine message-passing + shared-memory rows of Tables 1 and 2, in
    /// the paper's order.
    pub fn table1_rows() -> Vec<Scheme> {
        vec![
            Scheme::shared_memory(),
            Scheme::rpc(),
            Scheme::rpc().with_hardware(),
            Scheme::rpc().with_replication(),
            Scheme::rpc().with_replication().with_hardware(),
            Scheme::computation_migration(),
            Scheme::computation_migration().with_hardware(),
            Scheme::computation_migration().with_replication(),
            Scheme::computation_migration()
                .with_replication()
                .with_hardware(),
        ]
    }

    /// The five lines of Figures 2 and 3, in legend order.
    pub fn figure2_rows() -> Vec<Scheme> {
        vec![
            Scheme::shared_memory(),
            Scheme::computation_migration().with_hardware(),
            Scheme::computation_migration(),
            Scheme::rpc().with_hardware(),
            Scheme::rpc(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus::Cycles;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Scheme::shared_memory().label(), "SM");
        assert_eq!(Scheme::rpc().label(), "RPC");
        assert_eq!(Scheme::rpc().with_hardware().label(), "RPC w/HW");
        assert_eq!(
            Scheme::computation_migration().with_replication().label(),
            "CP w/repl."
        );
        assert_eq!(
            Scheme::computation_migration()
                .with_replication()
                .with_hardware()
                .label(),
            "CP w/repl. & HW"
        );
    }

    #[test]
    fn table1_has_nine_rows_in_order() {
        let rows = Scheme::table1_rows();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].label(), "SM");
        assert_eq!(rows[1].label(), "RPC");
        assert_eq!(rows[8].label(), "CP w/repl. & HW");
    }

    #[test]
    fn figure2_has_five_lines() {
        assert_eq!(Scheme::figure2_rows().len(), 5);
    }

    #[test]
    fn hw_scheme_yields_cheaper_costs() {
        let sw = Scheme::computation_migration().cost_model();
        let hw = Scheme::computation_migration().with_hardware().cost_model();
        assert!(hw.send(4) < sw.send(4));
        assert!(hw.receive(4, false) < sw.receive(4, false));
        assert_eq!(hw.goid_translation(), Cycles::ZERO);
    }

    #[test]
    fn kinds_are_indexed_by_their_discriminant() {
        for (i, kind) in KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{}", kind.label());
        }
    }

    #[test]
    fn annotation_default_is_rpc() {
        assert_eq!(Annotation::default(), Annotation::Rpc);
    }

    #[test]
    fn migration_bit_distinguishes_cp_from_rpc() {
        assert!(Scheme::computation_migration().migration);
        assert!(!Scheme::rpc().migration);
        // Both are message passing; SM is not.
        assert_eq!(Scheme::rpc().access, DataAccess::MessagePassing);
        assert_eq!(Scheme::shared_memory().access, DataAccess::SharedMemory);
    }
}
