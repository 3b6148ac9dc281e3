//! Metrics layer: window reset, the cycle-accounting audit, and
//! [`RunMetrics`] extraction. The optional layers' stats appear exactly
//! when the layer is present.

use std::collections::BTreeMap;

use proteus::fault::FaultStats;
use proteus::stats::{CycleAccounting, Histogram};
use proteus::Cycles;

use super::{FailoverStats, RecoveryStats, System};
use crate::cost::{category_ids as cat, CategoryTable, DenseAccounting};
use crate::mechanism::DispatchStats;
use crate::message::MessageKind;
use crate::policy::PolicyStats;

/// Per-processor utilization figures for one measurement window.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcWindowStats {
    /// Processor index.
    pub proc: u32,
    /// Fraction of the window the processor spent busy.
    pub utilization: f64,
    /// Busy cycles in the window.
    pub busy_cycles: u64,
    /// Tasks served in the window.
    pub tasks_served: u64,
    /// Deepest run queue observed in the window.
    pub max_queue_depth: usize,
}

/// Result of the cycle-accounting audit (see [`super::MachineConfig::audit`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditSummary {
    /// Tasks whose busy duration was cross-checked against charges.
    pub tasks_checked: u64,
    /// Total cycles charged across all categories in the window.
    pub grand_total: u64,
    /// Cycles charged to processor-busy categories (everything except
    /// network transit).
    pub busy_total: u64,
    /// Cycles charged to [`crate::cost::categories::NETWORK_TRANSIT`].
    pub transit_total: u64,
}

/// Metrics extracted from the measurement window of a run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Length of the measurement window.
    pub window: Cycles,
    /// Operations completed in the window.
    pub ops: u64,
    /// Paper unit: operations per 1000 cycles.
    pub throughput_per_1000: f64,
    /// Paper unit: words sent per 10 cycles.
    pub bandwidth_words_per_10: f64,
    /// Network load: word-hops per 10 cycles (words weighted by distance).
    pub load_word_hops_per_10: f64,
    /// Messages injected (runtime + coherence protocol).
    pub messages: u64,
    /// Total message words.
    pub message_words: u64,
    /// Shared-memory cache hit rate over the window (0 when no accesses).
    pub cache_hit_rate: f64,
    /// Mean operation latency in cycles.
    pub mean_op_latency: f64,
    /// Activation migrations performed.
    pub migrations: u64,
    /// Utilization of the busiest processor (bottleneck indicator).
    pub max_proc_utilization: f64,
    /// Full cycle accounting for the window.
    pub accounting: CycleAccounting,
    /// Accounting restricted to migration messages + migrated user code
    /// (regenerates Table 5 when divided by `migrations`).
    pub migration_accounting: CycleAccounting,
    /// Message counts by kind (kinds never sent in the window are absent).
    pub message_kinds: BTreeMap<MessageKind, u64>,
    /// Per-call-site mechanism-dispatch counters for the window.
    pub dispatch: DispatchStats,
    /// Per-processor utilization/queue statistics for the window.
    pub per_proc: Vec<ProcWindowStats>,
    /// Audit result (`Some` exactly when [`super::MachineConfig::audit`] is
    /// set; extraction panics instead of returning a failed audit).
    pub audit: Option<AuditSummary>,
    /// Runtime protocol errors recorded since the system was built (not
    /// reset per window — any nonzero value deserves attention).
    pub runtime_errors: u64,
    /// Runtime-error counts by stable [`crate::RuntimeError::code`], sorted
    /// by code. Empty exactly when `runtime_errors` is zero.
    pub runtime_error_codes: Vec<(&'static str, u64)>,
    /// Recovery-protocol activity in the window (`Some` exactly when
    /// [`super::MachineConfig::faults`] is set).
    pub recovery: Option<RecoveryStats>,
    /// Fault-injection decisions in the window (`Some` exactly when
    /// [`super::MachineConfig::faults`] is set).
    pub faults: Option<FaultStats>,
    /// Failure-detection and replication activity in the window (`Some`
    /// exactly when [`super::MachineConfig::failover`] is enabled).
    pub failover: Option<FailoverStats>,
    /// Adaptive-dispatch policy activity in the window (`Some` exactly when
    /// the policy engine was consulted at least once over the run — i.e.
    /// some [`crate::Annotation::Auto`] call site dispatched remotely under
    /// a migration-enabled scheme).
    pub policy: Option<PolicyStats>,
}

impl System {
    /// Begin the measurement window at `now`: reset every counter while
    /// preserving machine state (cache contents, queues, in-flight work).
    pub fn reset_window(&mut self, now: Cycles) {
        self.window_start = now;
        self.core.net.reset_traffic();
        self.coherence.reset_stats();
        for p in &mut self.procs {
            p.reset_stats();
        }
        self.core.acct = DenseAccounting::default();
        self.core.migration_acct = DenseAccounting::default();
        self.core.migrations = 0;
        self.core.msg_counts = [0; MessageKind::ALL.len()];
        self.ops_completed = 0;
        self.op_latency = Histogram::new(100, 4096);
        self.dispatch = DispatchStats::default();
        self.audit_tasks = 0;
        self.audit_violations.clear();
        if let Some(f) = &mut self.faults {
            // Counters restart; the decision stream continues so the window
            // replays identically whether or not a warm-up preceded it.
            f.reset_stats();
        }
        if let Some(f) = &mut self.failover {
            f.stats = FailoverStats::default();
        }
        if let Some(p) = &mut self.policy {
            // Same contract as the fault injector: counters restart, but the
            // sliding windows (and each site's current mode) persist —
            // warm-up is how the policy learns.
            p.reset_stats();
        }
    }

    /// Cross-check the window's cycle accounting (see
    /// [`super::MachineConfig::audit`]): every per-task busy duration
    /// matched its charges, the grand total equals the sum over registered
    /// categories, and the migration accounting is a sub-accounting of the
    /// full one. (Registry closure — every charged category being
    /// registered — holds by construction: charges are keyed by
    /// [`crate::CategoryId`], which only exists for entries of
    /// [`crate::cost::categories::ALL`].)
    pub fn audit(&self) -> Result<AuditSummary, String> {
        if let Some(v) = self.audit_violations.first() {
            return Err(format!(
                "{} task(s) with unattributed busy cycles; first: {v}",
                self.audit_violations.len()
            ));
        }
        let acct = &self.core.acct;
        let registered_total: u64 = CategoryTable::iter().map(|id| acct.total(id)).sum();
        if registered_total != acct.grand_total() {
            return Err(format!(
                "grand total {} != sum over registered categories {registered_total}",
                acct.grand_total()
            ));
        }
        for id in CategoryTable::iter() {
            let total = self.core.migration_acct.total(id);
            if acct.total(id) < total {
                return Err(format!(
                    "migration accounting charges {total} cycles of {:?} \
                     but the full accounting only has {}",
                    id.name(),
                    acct.total(id)
                ));
            }
        }
        let transit_total = acct.total(cat::NETWORK_TRANSIT);
        Ok(AuditSummary {
            tasks_checked: self.audit_tasks,
            grand_total: acct.grand_total(),
            busy_total: acct.grand_total() - transit_total,
            transit_total,
        })
    }

    /// Extract metrics for a window that ended at `now`.
    pub fn metrics(&self, now: Cycles) -> RunMetrics {
        let window = now - self.window_start;
        let traffic = self.core.net.traffic();
        let cache = self.coherence.aggregate_cache_stats();
        let max_util = self
            .procs
            .iter()
            .map(|p| p.utilization(window))
            .fold(0.0f64, f64::max);
        let per_proc = self
            .procs
            .iter()
            .map(|p| {
                let s = p.stats();
                ProcWindowStats {
                    proc: p.id().0,
                    utilization: p.utilization(window),
                    busy_cycles: s.busy_cycles,
                    tasks_served: s.tasks_served,
                    max_queue_depth: s.max_queue_depth,
                }
            })
            .collect();
        let audit = self
            .cfg
            .audit
            .then(|| self.audit().expect("cycle-accounting audit failed"));
        RunMetrics {
            window,
            ops: self.ops_completed,
            throughput_per_1000: if window.is_zero() {
                0.0
            } else {
                self.ops_completed as f64 * 1000.0 / window.get() as f64
            },
            bandwidth_words_per_10: traffic.words_per_10_cycles(window),
            load_word_hops_per_10: traffic.word_hops_per_10_cycles(window),
            messages: traffic.messages,
            message_words: traffic.words,
            cache_hit_rate: cache.hit_rate(),
            mean_op_latency: self.op_latency.mean(),
            migrations: self.core.migrations,
            max_proc_utilization: max_util,
            accounting: self.core.acct.to_cycle_accounting(),
            migration_accounting: self.core.migration_acct.to_cycle_accounting(),
            message_kinds: MessageKind::ALL
                .into_iter()
                .zip(self.core.msg_counts)
                .filter(|&(_, n)| n > 0)
                .collect(),
            dispatch: self.dispatch.clone(),
            per_proc,
            audit,
            runtime_errors: self.core.runtime_errors.len() as u64,
            runtime_error_codes: {
                let mut by_code: BTreeMap<&'static str, u64> = BTreeMap::new();
                for e in &self.core.runtime_errors {
                    *by_code.entry(e.code()).or_insert(0) += 1;
                }
                by_code.into_iter().collect()
            },
            recovery: self.faults.as_ref().map(|f| f.stats.clone()),
            faults: self.faults.as_ref().map(|f| f.injector.stats().clone()),
            failover: self.failover.as_ref().map(|f| f.stats.clone()),
            policy: self.policy.as_ref().map(|p| p.stats()),
        }
    }
}
