//! The runtime system: threads, mechanism dispatch, and metrics.
//!
//! This module ties everything together into an executable machine model:
//!
//! * application threads are stacks of [`Frame`]s living at a home processor;
//! * an [`Invoke`] from the top frame is dispatched per the configured
//!   [`Scheme`]: inline when local, by RPC, by *computation migration* (the
//!   frame itself moves, with linkage passed so the final return
//!   short-circuits back to the caller — §3.2 of the paper), or through the
//!   cache-coherence oracle under shared memory;
//! * every cycle charged is attributed to a Table 5 accounting category, and
//!   migration-specific charges are additionally folded into a separate
//!   accounting that regenerates Table 5 itself.

use std::collections::BTreeMap;

use proteus::coherence::Access;
use proteus::engine::{Engine, Simulation};
use proteus::event::EventQueue;
use proteus::fault::{FaultInjector, FaultPlan, FaultStats};
use proteus::stats::{CycleAccounting, Histogram};
use proteus::trace::{TraceEvent, Tracer};
use proteus::{
    CacheConfig, CoherenceCosts, CoherenceSystem, Cycles, Network, NetworkConfig, ProcId,
    Processor, ProcessorStats,
};

use crate::cost::{category_ids as cat, CategoryId, CategoryTable, CostModel, DenseAccounting};
use crate::error::RuntimeError;
use crate::frame::{Frame, Invoke, StepCtx, StepResult};
use crate::mechanism::{Annotation, DataAccess, DispatchKind, DispatchStats, Scheme};
use crate::message::{Message, MessageKind, Payload};
use crate::object::{Behavior, MethodEnv, ObjectTable};
use crate::policy::{PolicyConfig, PolicyEngine, PolicyStats};
use crate::rng::SplitMix64;
use crate::transport::{InFlight, Window};
use crate::types::{Goid, ThreadId, WordVec};

/// Full machine + scheme configuration for one experiment run.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processors.
    pub processors: u32,
    /// The remote-access scheme (one table row).
    pub scheme: Scheme,
    /// Network constants.
    pub network: NetworkConfig,
    /// Cache geometry (shared-memory scheme).
    pub cache: CacheConfig,
    /// Coherence protocol constants.
    pub coherence: CoherenceCosts,
    /// Seed for all runtime-internal randomness (object placement).
    pub seed: u64,
    /// Processors eligible to receive objects created with `home = None`
    /// (e.g. nodes allocated by B-tree splits).
    pub data_procs: Vec<ProcId>,
    /// Processors holding software replicas of replicated objects.
    pub replica_procs: Vec<ProcId>,
    /// Words carried by one replica-update message.
    pub replica_update_words: u64,
    /// Override the scheme-derived cost model (ablation studies).
    pub cost_override: Option<CostModel>,
    /// Cycle-accounting audit mode: cross-check, for every executed task,
    /// that the processor-busy duration equals the cycles charged to busy
    /// accounting categories, and at metrics extraction that every charged
    /// cycle belongs to a registered [`crate::cost::categories::ALL`]
    /// category. Costs nothing
    /// when off; when on, [`System::metrics`] panics on any discrepancy.
    pub audit: bool,
    /// Deterministic fault injection (`None` = fail-free, the default).
    /// When set, every remote runtime message travels in a sequence-numbered
    /// envelope under the ack/timeout/retry recovery protocol, and the plan
    /// decides which messages are dropped, duplicated, delayed, or trigger
    /// receiver stalls/crash-restarts. The fault-free path is untouched:
    /// with `None` the runtime's behaviour is bit-identical to a build
    /// without this feature.
    pub faults: Option<FaultPlan>,
    /// Recovery-protocol tuning (timeouts, backoff, retry budget). Ignored
    /// unless [`MachineConfig::faults`] is set.
    pub recovery: RecoveryConfig,
    /// Fail-stop tolerance layer: heartbeat failure detection plus
    /// primary-backup object replication. Off by default; when off, the
    /// runtime's behaviour is bit-identical to a build without the feature
    /// (no probes, no deltas, no extra state consulted on the hot path).
    pub failover: FailoverConfig,
    /// Tuning of the adaptive dispatch policy consulted for
    /// [`Annotation::Auto`] call sites (see [`crate::policy`]). Only
    /// consulted when the scheme has migration enabled *and* an `Auto`
    /// invoke reaches a remote dispatch point; otherwise the engine stays
    /// inert and artifacts are byte-identical to a build without it.
    pub policy: PolicyConfig,
}

/// Configuration of the fail-stop tolerance layer: a heartbeat-based failure
/// detector plus primary-backup replication of object state.
///
/// The detector is a ring: each live processor periodically probes its
/// successor (skipping processors already declared dead) with a
/// [`Payload::Heartbeat`] envelope. The probe rides the same sequence-
/// numbered ack/retry machinery as every other message, so "no ack after
/// [`FailoverConfig::max_heartbeat_attempts`] sends" is the suspicion
/// rule — deterministic, and safe against queueing delay because the
/// retransmission timeouts are far above one service round-trip. Exactly one
/// processor (the ring predecessor) probes each node, so a permanent crash
/// produces exactly one suspicion and one promotion.
///
/// Replication: every object gets a deterministic backup home (the next
/// live processor after its primary, mod machine size). Mutating methods at
/// the primary ship a sequence-numbered [`Payload::BackupDelta`] to the
/// backup, charged to `replication.*` categories. On declared death the
/// backup already holds the state: the directory re-homes the victim's
/// objects to their backups and in-flight traffic is rerouted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Master switch. When `false` nothing below is consulted.
    pub enabled: bool,
    /// Period of the ring heartbeat probe.
    pub heartbeat_interval: Cycles,
    /// Send attempts a Heartbeat envelope gets before the prober declares
    /// the destination dead (the suspicion threshold). With the default
    /// recovery timeouts, 3 attempts ≈ 175k cycles of silence.
    pub max_heartbeat_attempts: u32,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            enabled: false,
            heartbeat_interval: Cycles(50_000),
            max_heartbeat_attempts: 3,
        }
    }
}

/// Counters of failure-detection and replication activity in a window (only
/// collected when [`MachineConfig::failover`] is enabled).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Heartbeat probes sent by the ring detector.
    pub heartbeats_sent: u64,
    /// Processors suspected dead (heartbeat retry budget exhausted).
    pub suspicions: u64,
    /// Backup promotions performed (one per declared-dead processor).
    pub promotions: u64,
    /// Objects re-homed from a dead primary to their backup.
    pub rehomed_objects: u64,
    /// Activation frames destroyed with a dead processor (reclaimed, never
    /// recovered — threads are state machines, so the work they represented
    /// is lost, not replayed).
    pub frames_lost: u64,
    /// Threads terminated by a processor death: threads homed at the victim,
    /// plus threads whose detached activation group was parked there. Each
    /// one forfeits whatever work it had not yet completed; applications use
    /// this to bound permissible loss in conservation checks.
    pub threads_lost: u64,
    /// In-flight envelopes rerouted away from a declared-dead destination.
    pub rerouted_calls: u64,
    /// Primary-backup state deltas shipped.
    pub replication_deltas: u64,
    /// Total words of replication delta payload shipped.
    pub replication_words: u64,
}

/// Tuning of the ack/timeout/retry recovery protocol (only active under
/// fault injection).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Retransmission timeout for the first copy of an envelope. Chosen well
    /// above one round-trip *plus service queueing*: the ack is sent when the
    /// delivered task executes, not when the envelope lands, so tight
    /// timeouts cause spurious (correct but wasteful) retransmissions.
    pub base_timeout: Cycles,
    /// Cap on the exponentially backed-off retransmission timeout.
    pub backoff_cap: Cycles,
    /// Send attempts a Migration envelope gets before the sender gives up
    /// and degrades the call to plain RPC ([`DispatchKind::RpcFallback`]).
    /// Non-migration envelopes retry indefinitely (with capped backoff) —
    /// they are the fallback path, so they must eventually go through.
    pub max_migration_attempts: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            base_timeout: Cycles(25_000),
            backoff_cap: Cycles(200_000),
            max_migration_attempts: 4,
        }
    }
}

/// Counters of recovery-protocol activity in a window (only collected under
/// fault injection).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Delivery acknowledgements sent.
    pub acks_sent: u64,
    /// Envelope retransmissions after a timeout.
    pub retries: u64,
    /// Duplicate deliveries suppressed at a receiver.
    pub duplicates_suppressed: u64,
    /// Migrations that exhausted retries and fell back to RPC.
    pub fallbacks: u64,
    /// Activation frames reclaimed because their thread had terminated by
    /// the time its migration gave up.
    pub frames_reclaimed: u64,
    /// Messages that never arrived (dropped by the plan, or lost to a
    /// crashed receiver).
    pub messages_lost: u64,
}

impl MachineConfig {
    /// A machine of `processors` nodes running `scheme`, with paper-default
    /// constants everywhere else.
    pub fn new(processors: u32, scheme: Scheme) -> MachineConfig {
        MachineConfig {
            processors,
            scheme,
            network: NetworkConfig::default(),
            cache: CacheConfig::default(),
            coherence: CoherenceCosts::default(),
            seed: 0x5EED,
            data_procs: Vec::new(),
            replica_procs: Vec::new(),
            replica_update_words: 16,
            cost_override: None,
            audit: false,
            faults: None,
            recovery: RecoveryConfig::default(),
            failover: FailoverConfig::default(),
            policy: PolicyConfig::default(),
        }
    }
}

/// Simulation events.
pub enum Event {
    /// A runtime message arrives at a processor.
    Arrive(ProcId, Message),
    /// A processor is free to serve its next queued task.
    Poll(ProcId),
    /// A sleeping thread's think time expired.
    Wake(ThreadId),
    /// A sequence-numbered envelope copy arrives (recovery protocol; the
    /// payload stays buffered at the sender until acknowledged, so only the
    /// metadata needed to charge the receive path travels in the event).
    ArriveSeq {
        /// Receiving processor.
        dst: ProcId,
        /// Sending processor.
        src: ProcId,
        /// Envelope sequence number.
        seq: u64,
        /// Wire words, for the receive-path charge.
        words: u64,
        /// Payload kind.
        kind: MessageKind,
        /// Whether the payload takes the short-method receive path.
        short: bool,
    },
    /// A retransmission timer for envelope `seq` expired (stale once the
    /// envelope is acknowledged).
    Timeout(u64),
    /// An injected processor disruption lands: a transient stall, or a
    /// crash-restart that loses arriving messages for the duration.
    Disrupt {
        /// The disrupted processor.
        proc: ProcId,
        /// Length of the outage.
        duration: Cycles,
        /// Crash-restart (loses arrivals) vs. plain stall.
        crash: bool,
    },
    /// A permanent fail-stop crash lands: the processor dies now and never
    /// restarts (scheduled from [`proteus::FaultPlan::kill`]).
    Kill(ProcId),
    /// Periodic tick of the ring failure detector: every live processor
    /// probes its ring successor. Only scheduled when failover is enabled.
    HeartbeatTick,
}

enum RecvCharge {
    /// Locally generated task: no receive overhead.
    None,
    /// Message receive path with the Table 5 categories.
    Message {
        words: u64,
        kind: MessageKind,
        short: bool,
    },
    /// Lightweight replica-update application.
    Replica,
}

enum Work {
    /// Step a thread at its home processor.
    Step(ThreadId),
    /// Deliver results to the thread's top frame at home, then step.
    Deliver {
        thread: ThreadId,
        results: WordVec,
        completes_op: bool,
    },
    /// Deliver an RPC reply to a detached (migrated) frame parked here.
    DeliverDetached { thread: ThreadId, results: WordVec },
    /// A migrated activation group arrives: run its pending invoke and
    /// continue it here.
    MigrationArrive {
        thread: ThreadId,
        reply_to: ProcId,
        frames: Vec<Box<dyn Frame>>,
        invoke: Invoke,
    },
    /// Serve an object-migration pull (hand over / forward / retry).
    ServePull {
        thread: ThreadId,
        reply_to: ProcId,
        target: Goid,
    },
    /// Install a pulled object and let the requesting thread re-issue its
    /// invoke (now local).
    InstallObject {
        thread: ThreadId,
        target: Goid,
        behavior: Box<dyn Behavior>,
    },
    /// A wholly migrated thread arrives: rehome it, run the pending invoke,
    /// and continue.
    ThreadArrive {
        thread: ThreadId,
        frames: Vec<Box<dyn Frame>>,
        invoke: Invoke,
    },
    /// Server side of an RPC.
    ServeRpc {
        thread: ThreadId,
        reply_to: ProcId,
        invoke: Invoke,
    },
    /// Apply a software-replication update.
    ReplicaApply,
    /// Suppress a duplicate delivery of envelope `seq` (recovery protocol).
    DuplicateDrop { seq: u64 },
    /// Apply a delivery acknowledgement: release the retransmission buffer.
    AckApply { seq: u64 },
    /// Retransmit (or give up on) unacked envelope `seq`.
    Retransmit { seq: u64 },
    /// Sit out an injected stall or crash-restart outage.
    Outage { duration: Cycles, crash: bool },
    /// Send a failure-detector heartbeat probe to `to`.
    HeartbeatProbe { to: ProcId },
    /// Receive a heartbeat probe (the ack the receive path sends is the
    /// liveness evidence; nothing else to do).
    HeartbeatRecv,
    /// Apply a primary-backup replication delta at the backup. The fields
    /// reconstruct the payload if the backup dies before applying it.
    BackupApply {
        target: Goid,
        delta_seq: u64,
        words: u64,
    },
}

/// Receipt the receive path must acknowledge back to the sender.
#[derive(Copy, Clone)]
struct AckTicket {
    to: ProcId,
    seq: u64,
}

struct QueuedTask {
    recv: RecvCharge,
    work: Work,
    /// `Some` exactly when this task delivers (or re-delivers) a
    /// sequence-numbered envelope: executing it sends the ack.
    ack: Option<AckTicket>,
}

impl QueuedTask {
    fn new(recv: RecvCharge, work: Work) -> QueuedTask {
        QueuedTask {
            recv,
            work,
            ack: None,
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ThreadStatus {
    /// Runnable or running at home.
    Active,
    /// Blocked in think time.
    Sleeping,
    /// Waiting for an RPC reply (frame parked where it called from).
    WaitingReply,
    /// Top activation group migrated away; waiting for its short-circuited
    /// return.
    Detached,
    /// The whole thread is in flight to a new home (thread migration).
    Moving,
    /// Terminated.
    Done,
}

struct ThreadState {
    home: ProcId,
    stack: Vec<Box<dyn Frame>>,
    status: ThreadStatus,
    op_started: Option<Cycles>,
    /// Call site of the first [`Annotation::Auto`] invoke of the current
    /// operation, if any: the open policy *episode*. Closed (folded into the
    /// site's sliding window) when the operation completes.
    auto_site: Option<&'static str>,
    /// Remote data accesses observed by the open episode: `Auto` invokes
    /// whose target is homed away from the *thread's* home and not served by
    /// a local replica. The thread home is stable while detached, so this
    /// count measures the access pattern, not the policy's own choices.
    auto_remote: u32,
}

/// A migrating activation group with its pending invoke, as carried by
/// [`Payload::Migration`].
type ArrivingGroup = (ProcId, Vec<Box<dyn Frame>>, Invoke);

struct DetachedFrame {
    /// The migrated activation group, bottom first (one frame in the
    /// paper's prototype; several under multiple-activation migration).
    stack: Vec<Box<dyn Frame>>,
    at: ProcId,
    reply_to: ProcId,
}

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

/// Result of the cycle-accounting audit (see [`MachineConfig::audit`]).
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
    /// Audit result (`Some` exactly when [`MachineConfig::audit`] is set;
    /// extraction panics instead of returning a failed audit).
    pub audit: Option<AuditSummary>,
    /// Runtime protocol errors recorded since the system was built (not
    /// reset per window — any nonzero value deserves attention).
    pub runtime_errors: u64,
    /// Runtime-error counts by stable [`RuntimeError::code`], sorted by
    /// code. Empty exactly when `runtime_errors` is zero.
    pub runtime_error_codes: Vec<(&'static str, u64)>,
    /// Recovery-protocol activity in the window (`Some` exactly when
    /// [`MachineConfig::faults`] is set).
    pub recovery: Option<RecoveryStats>,
    /// Fault-injection decisions in the window (`Some` exactly when
    /// [`MachineConfig::faults`] is set).
    pub faults: Option<FaultStats>,
    /// Failure-detection and replication activity in the window (`Some`
    /// exactly when [`MachineConfig::failover`] is enabled).
    pub failover: Option<FailoverStats>,
    /// Adaptive-dispatch policy activity in the window (`Some` exactly when
    /// the policy engine was consulted at least once over the run — i.e.
    /// some [`Annotation::Auto`] call site dispatched remotely under a
    /// migration-enabled scheme).
    pub policy: Option<PolicyStats>,
}

/// The machine + runtime state. Implements [`Simulation`] so a
/// [`proteus::Engine`] can drive it; most users go through [`Runner`].
pub struct System {
    cfg: MachineConfig,
    cost: CostModel,
    net: Network,
    coherence: CoherenceSystem,
    procs: Vec<Processor<QueuedTask>>,
    poll_pending: Vec<bool>,
    replica_at: Vec<bool>,
    objects: ObjectTable,
    threads: Vec<ThreadState>,
    /// Parked detached activation groups, indexed by thread; grown to the
    /// thread count when the first group parks.
    detached: Vec<Option<DetachedFrame>>,
    /// Recycled frame-group buffers. Every migration allocates a `Vec` for
    /// the travelling activation group; reusing the emptied buffers
    /// (capacity only — contents are always cleared) keeps the steady-state
    /// migration hot path free of heap churn without touching simulation
    /// semantics.
    frame_pool: Vec<Vec<Box<dyn Frame>>>,
    rng: SplitMix64,
    acct: DenseAccounting,
    migration_acct: DenseAccounting,
    migration_ctx: bool,
    migrations: u64,
    ops_completed: u64,
    op_latency: Histogram,
    /// Messages sent in the window, indexed by `MessageKind as usize`.
    msg_counts: [u64; MessageKind::ALL.len()],
    window_start: Cycles,
    dispatch: DispatchStats,
    tracer: Tracer,
    /// Monotone count of cycles charged to busy (non-transit) categories;
    /// the audit compares per-task deltas of this against execute()'s
    /// returned busy duration, so window resets don't disturb it.
    busy_charged: u64,
    audit_tasks: u64,
    audit_violations: Vec<String>,
    runtime_errors: Vec<RuntimeError>,
    /// Fault injector (`Some` exactly when `cfg.faults` is set). Its absence
    /// keeps the fault-free fast path bit-identical to the pre-fault runtime.
    faults: Option<FaultInjector>,
    /// Unacked envelopes and delivered flags, indexed by sequence number
    /// (global across processors; the *order* of allocation is
    /// deterministic, so fault decisions replay exactly). Its watermark
    /// advances whenever an envelope leaves the retransmission buffer,
    /// keeping the dedup table O(in-flight window) on long chaos runs.
    transport: Window,
    /// Per-processor crash-restart horizon: arrivals before this time are
    /// lost.
    crashed_until: Vec<Cycles>,
    recovery: RecoveryStats,
    /// Permanently failed (fail-stop) processors: dead hardware. Set by
    /// [`Event::Kill`]; never cleared.
    failed: Vec<bool>,
    /// Processors the failure detector has declared dead: dead protocol
    /// state. Lags `failed` by the detection latency.
    declared_dead: Vec<bool>,
    /// Per-object replication delta sequence numbers (primary side),
    /// indexed by goid; grown on demand.
    delta_seqs: Vec<u64>,
    failover: FailoverStats,
    /// Adaptive dispatch policy (see [`crate::policy`]). Consulted only for
    /// [`Annotation::Auto`] dispatches under migration-enabled schemes.
    policy: PolicyEngine,
}

impl System {
    /// Build a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> System {
        let n = cfg.processors;
        assert!(n > 0, "machine needs at least one processor");
        let mut replica_at = vec![false; n as usize];
        for p in &cfg.replica_procs {
            replica_at[p.index()] = true;
        }
        System {
            cost: cfg
                .cost_override
                .clone()
                .unwrap_or_else(|| cfg.scheme.cost_model()),
            net: Network::new(n, cfg.network.clone()),
            coherence: CoherenceSystem::new(n, cfg.cache.clone(), cfg.coherence.clone()),
            procs: (0..n).map(|i| Processor::new(ProcId(i))).collect(),
            poll_pending: vec![false; n as usize],
            replica_at,
            objects: ObjectTable::new(),
            threads: Vec::new(),
            detached: Vec::new(),
            frame_pool: Vec::new(),
            rng: SplitMix64::new(cfg.seed),
            acct: DenseAccounting::default(),
            migration_acct: DenseAccounting::default(),
            migration_ctx: false,
            migrations: 0,
            ops_completed: 0,
            op_latency: Histogram::new(100, 4096),
            msg_counts: [0; MessageKind::ALL.len()],
            window_start: Cycles::ZERO,
            dispatch: DispatchStats::default(),
            tracer: Tracer::disabled(),
            busy_charged: 0,
            audit_tasks: 0,
            audit_violations: Vec::new(),
            runtime_errors: Vec::new(),
            faults: cfg.faults.clone().map(FaultInjector::new),
            transport: Window::default(),
            crashed_until: vec![Cycles::ZERO; n as usize],
            recovery: RecoveryStats::default(),
            failed: vec![false; n as usize],
            declared_dead: vec![false; n as usize],
            delta_seqs: Vec::new(),
            failover: FailoverStats::default(),
            policy: PolicyEngine::new(cfg.policy.clone()),
            cfg,
        }
    }

    /// Attach a tracer to the whole machine: runtime dispatch decisions,
    /// network sends, processor occupancy, and coherence misses all record
    /// through (clones of) the same handle.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.net.set_tracer(tracer.clone());
        self.coherence.set_tracer(tracer.clone());
        for p in &mut self.procs {
            p.set_tracer(tracer.clone());
        }
        if let Some(f) = &mut self.faults {
            f.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Recovery-protocol activity since the window started.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Fault-injection decisions since the window started (`None` when fault
    /// injection is off).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Failure-detection and replication activity since the window started.
    pub fn failover_stats(&self) -> &FailoverStats {
        &self.failover
    }

    /// Current size of the receiver-side duplicate-suppression table. The
    /// watermark prune keeps this O(in-flight window) regardless of how many
    /// envelopes a long chaos run delivers.
    pub fn dedup_table_size(&self) -> usize {
        self.transport.dedup_table_size()
    }

    /// `true` if `proc` has suffered a permanent fail-stop crash.
    pub fn is_failed(&self, proc: ProcId) -> bool {
        self.failed[proc.index()]
    }

    /// `true` if the failure detector has declared `proc` dead.
    pub fn is_declared_dead(&self, proc: ProcId) -> bool {
        self.declared_dead[proc.index()]
    }

    /// Per-call-site mechanism-dispatch counters for the current window.
    pub fn dispatch_stats(&self) -> &DispatchStats {
        &self.dispatch
    }

    /// Protocol errors recorded since the system was built.
    pub fn runtime_errors(&self) -> &[RuntimeError] {
        &self.runtime_errors
    }

    /// The configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The object table (for application setup and post-run verification).
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// Create an object at `home`; `replicated` marks it for software
    /// replication (effective only when the scheme enables replication).
    pub fn create_object(
        &mut self,
        behavior: Box<dyn Behavior>,
        home: ProcId,
        replicated: bool,
    ) -> Goid {
        assert!(home.index() < self.procs.len(), "home out of range");
        let goid = self.objects.create(behavior, home);
        if replicated {
            self.objects.set_replicated(goid, true);
        }
        goid
    }

    /// Mutably access a typed object's state outside simulation (setup and
    /// verification). Panics if the object is of a different type.
    pub fn with_object_mut<T: 'static, R>(&mut self, goid: Goid, f: impl FnOnce(&mut T) -> R) -> R {
        let state = self
            .objects
            .state_mut::<T>(goid)
            .expect("object missing or of unexpected type");
        f(state)
    }

    /// Mark or unmark an object for software replication.
    pub fn set_replicated(&mut self, goid: Goid, replicated: bool) {
        self.objects.set_replicated(goid, replicated);
    }

    /// Register a thread at `home` whose base activation is `driver`. The
    /// caller must also schedule its initial [`Event::Wake`] (see
    /// [`Runner::spawn`]).
    pub fn add_thread(&mut self, home: ProcId, driver: Box<dyn Frame>) -> ThreadId {
        assert!(home.index() < self.procs.len(), "home out of range");
        let tid = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadState {
            home,
            stack: vec![driver],
            status: ThreadStatus::Active,
            op_started: None,
            auto_site: None,
            auto_remote: 0,
        });
        tid
    }

    /// Operations completed since the window started.
    pub fn ops_completed(&self) -> u64 {
        self.ops_completed
    }

    /// Activation migrations performed since the window started.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Per-processor utilization stats.
    pub fn proc_stats(&self, p: ProcId) -> &ProcessorStats {
        self.procs[p.index()].stats()
    }

    /// Begin the measurement window at `now`: reset every counter while
    /// preserving machine state (cache contents, queues, in-flight work).
    pub fn reset_window(&mut self, now: Cycles) {
        self.window_start = now;
        self.net.reset_traffic();
        self.coherence.reset_stats();
        for p in &mut self.procs {
            p.reset_stats();
        }
        self.acct = DenseAccounting::default();
        self.migration_acct = DenseAccounting::default();
        self.migrations = 0;
        self.ops_completed = 0;
        self.op_latency = Histogram::new(100, 4096);
        self.msg_counts = [0; MessageKind::ALL.len()];
        self.dispatch = DispatchStats::default();
        self.audit_tasks = 0;
        self.audit_violations.clear();
        self.recovery = RecoveryStats::default();
        self.failover = FailoverStats::default();
        if let Some(f) = &mut self.faults {
            // Counters restart; the decision stream continues so the window
            // replays identically whether or not a warm-up preceded it.
            f.reset_stats();
        }
        // Same contract as the fault injector: counters restart, but the
        // sliding windows (and each site's current mode) persist — warm-up
        // is how the policy learns.
        self.policy.reset_stats();
    }

    /// Cross-check the window's cycle accounting (see
    /// [`MachineConfig::audit`]): every per-task busy duration matched its
    /// charges, the grand total equals the sum over registered categories,
    /// and the migration accounting is a sub-accounting of the full one.
    /// (Registry closure — every charged category being registered — now
    /// holds by construction: charges are keyed by [`CategoryId`], which
    /// only exists for entries of [`crate::cost::categories::ALL`].)
    pub fn audit(&self) -> Result<AuditSummary, String> {
        if let Some(v) = self.audit_violations.first() {
            return Err(format!(
                "{} task(s) with unattributed busy cycles; first: {v}",
                self.audit_violations.len()
            ));
        }
        let registered_total: u64 = CategoryTable::iter().map(|id| self.acct.total(id)).sum();
        if registered_total != self.acct.grand_total() {
            return Err(format!(
                "grand total {} != sum over registered categories {registered_total}",
                self.acct.grand_total()
            ));
        }
        for id in CategoryTable::iter() {
            let total = self.migration_acct.total(id);
            if self.acct.total(id) < total {
                return Err(format!(
                    "migration accounting charges {total} cycles of {:?} \
                     but the full accounting only has {}",
                    id.name(),
                    self.acct.total(id)
                ));
            }
        }
        let transit_total = self.acct.total(cat::NETWORK_TRANSIT);
        Ok(AuditSummary {
            tasks_checked: self.audit_tasks,
            grand_total: self.acct.grand_total(),
            busy_total: self.acct.grand_total() - transit_total,
            transit_total,
        })
    }

    /// Extract metrics for a window that ended at `now`.
    pub fn metrics(&self, now: Cycles) -> RunMetrics {
        let window = now - self.window_start;
        let traffic = self.net.traffic();
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
            migrations: self.migrations,
            max_proc_utilization: max_util,
            accounting: self.acct.to_cycle_accounting(),
            migration_accounting: self.migration_acct.to_cycle_accounting(),
            message_kinds: MessageKind::ALL
                .into_iter()
                .zip(self.msg_counts)
                .filter(|&(_, n)| n > 0)
                .collect(),
            dispatch: self.dispatch.clone(),
            per_proc,
            audit,
            runtime_errors: self.runtime_errors.len() as u64,
            runtime_error_codes: {
                let mut by_code: BTreeMap<&'static str, u64> = BTreeMap::new();
                for e in &self.runtime_errors {
                    *by_code.entry(e.code()).or_insert(0) += 1;
                }
                by_code.into_iter().collect()
            },
            recovery: self.faults.as_ref().map(|_| self.recovery.clone()),
            faults: self.faults.as_ref().map(|f| f.stats().clone()),
            failover: self.cfg.failover.enabled.then(|| self.failover.clone()),
            policy: self.policy.is_active().then(|| self.policy.stats()),
        }
    }

    // ------------------------------------------------------------------
    // Charging helpers
    // ------------------------------------------------------------------

    fn charge(&mut self, category: CategoryId, cycles: Cycles) {
        self.acct.charge(category, cycles);
        if self.migration_ctx {
            self.migration_acct.charge(category, cycles);
        }
        // Network transit is wire time, not processor time; every other
        // category must show up in some task's busy duration (audited per
        // task in the Poll handler).
        if category != cat::NETWORK_TRANSIT {
            self.busy_charged += cycles.get();
        }
    }

    fn charge_user(&mut self, cycles: Cycles) {
        self.charge(cat::USER_CODE, cycles);
    }

    // ------------------------------------------------------------------
    // Frame-group buffer recycling
    // ------------------------------------------------------------------

    /// The detached activation group parked for `thread`, if any.
    fn detached_group(&self, thread: ThreadId) -> Option<&DetachedFrame> {
        self.detached.get(thread.index())?.as_ref()
    }

    /// Park `thread`'s detached activation group (replacing any earlier one).
    fn park_detached(&mut self, thread: ThreadId, group: DetachedFrame) {
        let t = thread.index();
        if t >= self.detached.len() {
            self.detached
                .resize_with(self.threads.len().max(t + 1), || None);
        }
        self.detached[t] = Some(group);
    }

    /// A buffer for a migrating activation group, reusing a recycled one's
    /// capacity when available.
    fn take_frame_vec(&mut self) -> Vec<Box<dyn Frame>> {
        self.frame_pool.pop().unwrap_or_default()
    }

    /// Return an emptied (or about-to-be-dropped) frame-group buffer to the
    /// pool. Contents are cleared; only capacity is reused.
    fn recycle_frame_vec(&mut self, mut v: Vec<Box<dyn Frame>>) {
        /// Buffers kept beyond this bound just drop.
        const FRAME_POOL_CAP: usize = 32;
        if v.capacity() > 0 && self.frame_pool.len() < FRAME_POOL_CAP {
            v.clear();
            self.frame_pool.push(v);
        }
    }

    /// Record how an invocation issued from call site `site` was dispatched.
    fn record_dispatch(
        &mut self,
        now: Cycles,
        proc: ProcId,
        site: &'static str,
        kind: DispatchKind,
    ) {
        self.dispatch.record(site, kind);
        self.tracer.emit_with(|| TraceEvent {
            at: now,
            source: "runtime",
            kind: "dispatch",
            proc: Some(proc),
            detail: format!("site={site} mechanism={}", kind.label()),
        });
    }

    /// Record a protocol error instead of aborting the simulation: the
    /// offending task is dropped after its already-charged busy time, the
    /// error is kept for [`System::runtime_errors`] / [`RunMetrics`], and
    /// threads whose state the error orphans are terminated so the run
    /// still quiesces.
    fn record_runtime_error(&mut self, now: Cycles, error: RuntimeError) {
        match error {
            RuntimeError::EmptyMigration { thread, .. }
            | RuntimeError::DetachedFrameSlept { thread, .. } => {
                self.threads[thread.index()].status = ThreadStatus::Done;
            }
            // The group may be parked at another processor; leave it alone.
            // Recovery-family errors (timeouts, duplicates, reclamations,
            // rejected sends) record activity the protocol already handled.
            _ => {}
        }
        self.tracer.emit_with(|| TraceEvent {
            at: now,
            source: "runtime",
            kind: "error",
            proc: None,
            detail: error.to_string(),
        });
        // Bounded: a malformed-message storm must not grow memory forever.
        if self.runtime_errors.len() < 1024 {
            self.runtime_errors.push(error);
        }
    }

    /// Wire size of a payload in words: general-purpose RPC stubs marshal a
    /// larger record than the compact generated migration messages (§4.3).
    fn wire_words(&self, payload: &Payload) -> u64 {
        let extra = match payload.kind() {
            MessageKind::RpcRequest | MessageKind::RpcReply => self.cost.rpc_stub_words,
            _ => 0,
        };
        payload.words() + extra
    }

    /// Charge the sender-side costs of a message (Table 5 categories plus
    /// network transit) and book the wire traffic. Returns
    /// `(overhead, Some(latency))`, or `(overhead, None)` when the network
    /// rejected the route (the error is recorded; nothing was sent).
    fn charge_send(
        &mut self,
        src: ProcId,
        dst: ProcId,
        kind: MessageKind,
        words: u64,
        send_time: Cycles,
    ) -> (Cycles, Option<Cycles>) {
        let was_migration_ctx = self.migration_ctx;
        // Charges for a migration *message* always count toward Table 5,
        // wherever they happen.
        self.migration_ctx = was_migration_ctx || kind == MessageKind::Migration;
        self.charge(cat::LINKAGE_SEND, self.cost.linkage_send);
        self.charge(cat::ALLOC_PACKET_SEND, self.cost.alloc_packet_send);
        self.charge(cat::MARSHAL, self.cost.marshal(words));
        self.charge(cat::MESSAGE_SEND, self.cost.message_send);
        let overhead = self.cost.linkage_send
            + self.cost.alloc_packet_send
            + self.cost.marshal(words)
            + self.cost.message_send;
        let latency = match self.net.send_at(send_time, src, dst, words) {
            Ok(l) => l,
            Err(_) => {
                self.migration_ctx = was_migration_ctx;
                self.record_runtime_error(send_time, RuntimeError::NetworkRejected { src, dst });
                return (overhead, None);
            }
        };
        self.charge(cat::NETWORK_TRANSIT, latency);
        self.migration_ctx = was_migration_ctx;
        (overhead, Some(latency))
    }

    /// Charge the sender-side overhead of a message and schedule its
    /// arrival; returns the processor-busy overhead.
    ///
    /// Under fault injection every remote message rides a sequence-numbered
    /// envelope through [`System::send_reliable`] (acks themselves are fired
    /// and forgotten, but still subject to the fault plan). With faults off
    /// this is the bit-exact pre-fault path.
    fn send_message(
        &mut self,
        src: ProcId,
        dst: ProcId,
        payload: Payload,
        send_time: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        if self.faults.is_some() && src != dst {
            return if payload.kind() == MessageKind::Ack {
                self.send_ack_unreliable(src, dst, payload, send_time, queue)
            } else {
                self.send_reliable(src, dst, payload, send_time, queue)
            };
        }
        let words = self.wire_words(&payload);
        let kind = payload.kind();
        let (overhead, latency) = self.charge_send(src, dst, kind, words, send_time);
        let Some(latency) = latency else {
            return overhead;
        };
        self.msg_counts[kind as usize] += 1;
        if kind == MessageKind::Migration {
            self.migrations += 1;
        }
        queue.schedule_at(
            send_time + overhead + latency,
            Event::Arrive(dst, Message { src, payload }),
        );
        overhead
    }

    /// Receive-path short-method flag for a payload (mirrors the charges the
    /// `Event::Arrive` handler makes on the fault-free path).
    fn recv_short(payload: &Payload) -> bool {
        match payload {
            Payload::RpcRequest { invoke, .. } => invoke.short_method,
            Payload::Migration { .. } | Payload::ThreadMove { .. } => false,
            _ => true,
        }
    }

    /// Send a payload in a sequence-numbered envelope: the payload stays in
    /// the sender's retransmission buffer until acknowledged, and only
    /// envelope metadata travels through the event queue, so drops and
    /// duplicates are handled without cloning (unclonable) frames.
    fn send_reliable(
        &mut self,
        src: ProcId,
        dst: ProcId,
        payload: Payload,
        send_time: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let words = self.wire_words(&payload);
        let kind = payload.kind();
        let (overhead, latency) = self.charge_send(src, dst, kind, words, send_time);
        let Some(latency) = latency else {
            return overhead;
        };
        self.msg_counts[kind as usize] += 1;
        if kind == MessageKind::Migration {
            self.migrations += 1;
        }
        let short = System::recv_short(&payload);
        let seq = self.transport.push(InFlight {
            src,
            dst,
            kind,
            words,
            short,
            payload: Some(payload),
            attempt: 1,
        });
        self.launch_envelope(seq, send_time + overhead, latency, queue);
        overhead
    }

    /// Retransmission timeout for send attempt `attempt` (exponential
    /// backoff, capped).
    fn rto(&self, attempt: u32) -> Cycles {
        let shift = attempt.saturating_sub(1).min(16);
        let backed_off = self
            .cfg
            .recovery
            .base_timeout
            .get()
            .saturating_mul(1 << shift);
        Cycles(backed_off.min(self.cfg.recovery.backoff_cap.get()))
    }

    /// Put one copy of envelope `seq` on the wire at `launch_time`: draw its
    /// fault fate, schedule the surviving arrival(s) and any injected
    /// disruption, and arm the retransmission timer.
    fn launch_envelope(
        &mut self,
        seq: u64,
        launch_time: Cycles,
        latency: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        let entry = self.transport.get(seq).expect("launching unknown envelope");
        let (src, dst, kind, words, short, attempt) = (
            entry.src,
            entry.dst,
            entry.kind,
            entry.words,
            entry.short,
            entry.attempt,
        );
        let fate = self
            .faults
            .as_mut()
            .expect("reliable path requires an injector")
            .fate(launch_time, src, dst);
        if fate.dropped {
            self.recovery.messages_lost += 1;
        } else {
            let arrive = launch_time + latency + fate.delay;
            if let Some(d) = fate.crash {
                queue.schedule_at(
                    arrive,
                    Event::Disrupt {
                        proc: dst,
                        duration: d,
                        crash: true,
                    },
                );
            } else if let Some(d) = fate.stall {
                queue.schedule_at(
                    arrive,
                    Event::Disrupt {
                        proc: dst,
                        duration: d,
                        crash: false,
                    },
                );
            }
            queue.schedule_at(
                arrive,
                Event::ArriveSeq {
                    dst,
                    src,
                    seq,
                    words,
                    kind,
                    short,
                },
            );
            if let Some(extra) = fate.duplicate {
                // The duplicate copy is real wire traffic and transit time.
                if let Ok(lat2) = self.net.send_at(arrive, src, dst, words) {
                    self.charge(cat::NETWORK_TRANSIT, lat2);
                }
                queue.schedule_at(
                    arrive + extra,
                    Event::ArriveSeq {
                        dst,
                        src,
                        seq,
                        words,
                        kind,
                        short,
                    },
                );
            }
        }
        queue.schedule_at(launch_time + self.rto(attempt), Event::Timeout(seq));
    }

    /// Fire-and-forget ack send: charged like any message, subject to the
    /// fault plan, but never buffered — a lost ack is recovered by the data
    /// sender's retransmission (which the receiver dedups and re-acks).
    fn send_ack_unreliable(
        &mut self,
        src: ProcId,
        dst: ProcId,
        payload: Payload,
        send_time: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let Payload::Ack { seq } = payload else {
            unreachable!("send_ack_unreliable called with a non-ack payload");
        };
        let words = self.wire_words(&payload);
        let (overhead, latency) = self.charge_send(src, dst, MessageKind::Ack, words, send_time);
        let Some(latency) = latency else {
            return overhead;
        };
        self.msg_counts[MessageKind::Ack as usize] += 1;
        let fate = self
            .faults
            .as_mut()
            .expect("ack path only runs under fault injection")
            .fate(send_time, src, dst);
        if fate.dropped {
            self.recovery.messages_lost += 1;
            return overhead;
        }
        let arrive = send_time + overhead + latency + fate.delay;
        if let Some(d) = fate.crash {
            queue.schedule_at(
                arrive,
                Event::Disrupt {
                    proc: dst,
                    duration: d,
                    crash: true,
                },
            );
        } else if let Some(d) = fate.stall {
            queue.schedule_at(
                arrive,
                Event::Disrupt {
                    proc: dst,
                    duration: d,
                    crash: false,
                },
            );
        }
        queue.schedule_at(
            arrive,
            Event::Arrive(
                dst,
                Message {
                    src,
                    payload: Payload::Ack { seq },
                },
            ),
        );
        if let Some(extra) = fate.duplicate {
            queue.schedule_at(
                arrive + extra,
                Event::Arrive(
                    dst,
                    Message {
                        src,
                        payload: Payload::Ack { seq },
                    },
                ),
            );
        }
        overhead
    }

    /// Charge the receive path of a message; returns the processor-busy
    /// overhead.
    fn charge_recv(&mut self, words: u64, kind: MessageKind, short: bool) -> Cycles {
        let was = self.migration_ctx;
        self.migration_ctx = was || kind == MessageKind::Migration;
        self.charge(cat::COPY_PACKET, self.cost.copy_packet);
        let thread = if short {
            Cycles::ZERO
        } else {
            self.cost.thread_creation
        };
        self.charge(cat::THREAD_CREATION, thread);
        self.charge(cat::LINKAGE_RECV, self.cost.linkage_recv);
        self.charge(cat::UNMARSHAL, self.cost.unmarshal(words));
        self.charge(cat::GOID_TRANSLATION, self.cost.goid_translation);
        self.charge(cat::SCHEDULER, self.cost.scheduler);
        self.charge(cat::FORWARDING_CHECK, self.cost.forwarding_check);
        self.charge(cat::ALLOC_PACKET_RECV, self.cost.alloc_packet_recv);
        self.migration_ctx = was;
        self.cost.copy_packet
            + thread
            + self.cost.linkage_recv
            + self.cost.unmarshal(words)
            + self.cost.goid_translation
            + self.cost.scheduler
            + self.cost.forwarding_check
            + self.cost.alloc_packet_recv
    }

    // ------------------------------------------------------------------
    // Method execution
    // ------------------------------------------------------------------

    /// `true` if `proc` can serve `inv` from a local software replica.
    fn replica_readable(&self, proc: ProcId, inv: &Invoke) -> bool {
        self.cfg.scheme.replication
            && inv.read_only
            && self.replica_at[proc.index()]
            && self.objects.entry(inv.target).replicated
            && self.objects.home(inv.target) != proc
    }

    /// Run a method inline at `proc` under message passing (at the object's
    /// home, or against a local replica for read-only methods). Returns the
    /// busy cycles and the results.
    fn invoke_inline(
        &mut self,
        proc: ProcId,
        inv: &Invoke,
        logical_now: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> (Cycles, WordVec) {
        let entry = self.objects.entry(inv.target);
        let is_home = entry.home == proc;
        let replicated = entry.replicated;
        debug_assert!(
            is_home || self.replica_readable(proc, inv),
            "invoke_inline on non-local, non-replica object"
        );
        let replica_read = !is_home;
        let mut behavior = self.objects.take_behavior(inv.target);
        let mut env = MpEnv {
            user: Cycles::ZERO,
            replica_read,
            wrote_bytes: 0,
            objects: &mut self.objects,
            rng: &mut self.rng,
            data_procs: &self.cfg.data_procs,
        };
        let results = behavior.invoke(inv.method, &inv.args, &mut env);
        let user = env.user;
        let wrote_bytes = env.wrote_bytes;
        self.objects.put_behavior(inv.target, behavior);
        self.charge_user(user);
        let mut busy = user;
        // A write to a replicated object must update the software replicas.
        if is_home && !inv.read_only && replicated && self.cfg.scheme.replication {
            busy += self.broadcast_replica_update(proc, inv.target, logical_now + user, queue);
        }
        // Primary-backup replication: a mutating method at the primary ships
        // its written footprint to the object's backup as a sequenced delta.
        if self.cfg.failover.enabled && is_home && wrote_bytes > 0 {
            busy += self.ship_backup_delta(
                proc,
                proc,
                inv.target,
                wrote_bytes,
                logical_now + busy,
                queue,
            );
        }
        (busy, results)
    }

    /// Run a method on the *invoking* processor under cache-coherent shared
    /// memory: every field access is a metered coherence transaction, and
    /// the object lock serializes conflicting critical sections.
    fn invoke_sm(
        &mut self,
        proc: ProcId,
        inv: &Invoke,
        logical_now: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> (Cycles, WordVec) {
        let entry = self.objects.entry(inv.target);
        let base = entry.base_addr;
        let size = entry.size_bytes;
        let goid = inv.target;
        let mut behavior = self.objects.take_behavior(goid);
        let mut env = SmEnv {
            proc,
            base,
            size,
            goid,
            logical_start: logical_now,
            elapsed: Cycles::ZERO,
            user: Cycles::ZERO,
            mem_stall: Cycles::ZERO,
            lock_stall: Cycles::ZERO,
            wrote_bytes: 0,
            objects: &mut self.objects,
            coherence: &mut self.coherence,
            net: &mut self.net,
            rng: &mut self.rng,
            data_procs: &self.cfg.data_procs,
        };
        let results = behavior.invoke(inv.method, &inv.args, &mut env);
        let (elapsed, user, mem, lock) = (env.elapsed, env.user, env.mem_stall, env.lock_stall);
        let wrote_bytes = env.wrote_bytes;
        self.objects.put_behavior(goid, behavior);
        self.charge_user(user);
        self.charge(cat::MEMORY_STALL, mem);
        self.charge(cat::LOCK_STALL, lock);
        let mut busy = elapsed;
        // Under shared memory the mutation happened in the home node's
        // memory; replication still ships the written footprint to the
        // home's backup so a fail-stop crash of the home loses nothing.
        if self.cfg.failover.enabled && wrote_bytes > 0 {
            let home = self.objects.home(goid);
            busy +=
                self.ship_backup_delta(proc, home, goid, wrote_bytes, logical_now + busy, queue);
        }
        (busy, results)
    }

    /// Broadcast a replica update after a write to a replicated object.
    fn broadcast_replica_update(
        &mut self,
        src: ProcId,
        target: Goid,
        send_time: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let mut busy = Cycles::ZERO;
        for i in 0..self.cfg.replica_procs.len() {
            let p = self.cfg.replica_procs[i];
            if p == src {
                continue;
            }
            let payload = Payload::ReplicaUpdate {
                target,
                words: self.cfg.replica_update_words,
            };
            busy += self.send_message(src, p, payload, send_time + busy, queue);
        }
        busy
    }

    // ------------------------------------------------------------------
    // Failover: detection, replication, re-homing
    // ------------------------------------------------------------------

    /// Deterministic backup placement: the next processor after `home` in
    /// ring order, skipping processors already declared dead. With one
    /// processor there is no backup (`backup_for(p) == p`).
    fn backup_for(&self, home: ProcId) -> ProcId {
        let n = self.procs.len();
        let mut b = (home.index() + 1) % n;
        while b != home.index() && self.declared_dead[b] {
            b = (b + 1) % n;
        }
        ProcId(b as u32)
    }

    /// Ship a sequence-numbered state delta for `target` from the executing
    /// processor to the backup of the object's home. Returns the busy cycles
    /// (charged to `replication.*`).
    fn ship_backup_delta(
        &mut self,
        proc: ProcId,
        home: ProcId,
        target: Goid,
        wrote_bytes: u64,
        send_time: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let backup = self.backup_for(home);
        if backup == home {
            return Cycles::ZERO; // single-processor machine: nowhere to back up
        }
        if backup == proc {
            return Cycles::ZERO; // the executor is the backup: delta applies locally, free
        }
        let g = target.0 as usize;
        if g >= self.delta_seqs.len() {
            self.delta_seqs.resize(self.objects.len().max(g + 1), 0);
        }
        self.delta_seqs[g] += 1;
        let delta_seq = self.delta_seqs[g];
        let words = wrote_bytes.div_ceil(8).max(1);
        self.charge(cat::REPLICATION_DELTA_SEND, self.cost.delta_send);
        self.failover.replication_deltas += 1;
        self.failover.replication_words += words;
        self.cost.delta_send
            + self.send_message(
                proc,
                backup,
                Payload::BackupDelta {
                    target,
                    delta_seq,
                    words,
                },
                send_time,
                queue,
            )
    }

    /// Declare `victim` dead (heartbeat suspicion threshold reached at the
    /// ring predecessor `proc`): promote its backup, re-home every object it
    /// was primary for, and let in-flight traffic reroute on its next
    /// timeout. All charges land in the detecting task's busy window.
    fn declare_dead(
        &mut self,
        victim: ProcId,
        now: Cycles,
        proc: ProcId,
        acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let _ = queue;
        if self.declared_dead[victim.index()] {
            return acc;
        }
        self.declared_dead[victim.index()] = true;
        self.failover.suspicions += 1;
        self.charge(cat::RECOVERY_SUSPICION, self.cost.suspicion);
        let mut acc = acc + self.cost.suspicion;
        self.tracer.emit_with(|| TraceEvent {
            at: now + acc,
            source: "runtime",
            kind: "suspect",
            proc: Some(proc),
            detail: format!("declared {} dead (heartbeat silence)", victim.index()),
        });
        // Promotion: the backup already holds the replicated state; flip
        // the directory. The backup is computed once — every object homed
        // at the victim shares the same ring successor.
        self.failover.promotions += 1;
        self.charge(cat::RECOVERY_PROMOTION, self.cost.promotion);
        acc += self.cost.promotion;
        let backup = self.backup_for(victim);
        let dead_objects: Vec<Goid> = self
            .objects
            .goids()
            .filter(|g| self.objects.home(*g) == victim)
            .collect();
        for g in dead_objects {
            self.objects.rehome(g, backup);
            self.charge(cat::RECOVERY_REHOME, self.cost.rehome_per_object);
            acc += self.cost.rehome_per_object;
            self.failover.rehomed_objects += 1;
        }
        self.tracer.emit_with(|| TraceEvent {
            at: now + acc,
            source: "runtime",
            kind: "promote",
            proc: Some(backup),
            detail: format!(
                "backup of {} promoted; {} object(s) re-homed",
                victim.index(),
                self.failover.rehomed_objects
            ),
        });
        acc
    }

    /// Reroute (or retire) unacked envelope `seq` whose destination has been
    /// declared dead: pick a live destination by payload kind — post-rehome,
    /// the object directory already points at the promoted backup — and
    /// relaunch; envelopes with no live destination are dropped with
    /// [`RuntimeError::UnroutableToDead`].
    fn reroute(
        &mut self,
        seq: u64,
        now: Cycles,
        proc: ProcId,
        acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let entry = self
            .transport
            .get(seq)
            .expect("reroute on unknown envelope");
        let (src, dst, kind, words) = (entry.src, entry.dst, entry.kind, entry.words);
        debug_assert!(self.declared_dead[dst.index()]);
        let new_dst = match entry.payload.as_ref() {
            // Tombstone: a copy was delivered (and executed) before the
            // death; only the ack was lost. The work is done — retire.
            None => None,
            Some(p) => match p {
                // A probe to a declared-dead processor has served its
                // purpose; nothing to redirect.
                Payload::Heartbeat => None,
                // Calls follow the object: the directory already points at
                // the promoted backup.
                Payload::RpcRequest { invoke, .. }
                | Payload::Migration { invoke, .. }
                | Payload::ThreadMove { invoke, .. } => Some(self.objects.home(invoke.target)),
                Payload::ObjectPull { target, .. } | Payload::ObjectMove { target, .. } => {
                    Some(self.objects.home(*target))
                }
                // Replies follow the caller: a parked detached group, or the
                // thread's home.
                Payload::RpcReply { thread, .. } => Some(
                    self.detached_group(*thread)
                        .map(|d| d.at)
                        .unwrap_or(self.threads[thread.index()].home),
                ),
                Payload::OperationReturn { thread, .. } => Some(self.threads[thread.index()].home),
                // The backup died: re-replicate to the home's new backup.
                Payload::BackupDelta { target, .. } => {
                    Some(self.backup_for(self.objects.home(*target)))
                }
                Payload::ReplicaUpdate { .. } | Payload::Ack { .. } => None,
            },
        };
        match new_dst {
            Some(d) if !self.declared_dead[d.index()] && d != dst => {
                self.failover.rerouted_calls += 1;
                self.charge(cat::RECOVERY_REROUTE, self.cost.reroute);
                let acc = acc + self.cost.reroute;
                let entry = self.transport.get_mut(seq).expect("entry checked above");
                entry.dst = d;
                entry.attempt = 1;
                let (overhead, latency) = self.charge_send(src, d, kind, words, now + acc);
                let acc = acc + overhead;
                self.msg_counts[kind as usize] += 1;
                self.tracer.emit_with(|| TraceEvent {
                    at: now + acc,
                    source: "runtime",
                    kind: "reroute",
                    proc: Some(proc),
                    detail: format!("seq={seq} kind={kind:?} {} -> {}", dst.index(), d.index()),
                });
                if let Some(latency) = latency {
                    self.launch_envelope(seq, now + acc, latency, queue);
                }
                acc
            }
            _ => {
                // No live destination (or the work already happened): retire
                // the envelope so the watermark can advance.
                let retired = self.transport.remove(seq).expect("entry checked above");
                if retired.payload.is_some() && kind != MessageKind::Heartbeat {
                    self.record_runtime_error(
                        now + acc,
                        RuntimeError::UnroutableToDead { dst, seq },
                    );
                }
                if let Some(Payload::Migration { frames, .. })
                | Some(Payload::ThreadMove { frames, .. }) = retired.payload
                {
                    let n = frames.len() as u64;
                    self.recycle_frame_vec(frames);
                    self.failover.frames_lost += n;
                }
                self.transport.advance();
                acc
            }
        }
    }

    /// A permanent fail-stop crash lands at `victim`: mark the hardware
    /// dead, surrender its queued work back to the senders' retransmission
    /// buffers, and terminate the threads that died with it. Nothing is
    /// charged — death is not protocol work; detection and recovery (which
    /// are) happen later in live processors' task windows.
    fn kill_processor(&mut self, now: Cycles, victim: ProcId, queue: &mut EventQueue<Event>) {
        let _ = queue;
        let v = victim.index();
        if self.failed[v] {
            return;
        }
        self.failed[v] = true;
        // A permanent crash is a restart window that never closes: the
        // existing crash-horizon checks swallow every later arrival.
        self.crashed_until[v] = Cycles(u64::MAX);
        self.tracer.emit_with(|| TraceEvent {
            at: now,
            source: "runtime",
            kind: "kill",
            proc: Some(victim),
            detail: "permanent fail-stop crash".to_string(),
        });
        // Queued envelope deliveries die un-executed, but the senders still
        // hold the payload copies (they were never acknowledged): restore
        // them to the retransmission buffers and undo the delivery
        // bookkeeping, so the next timeout redelivers — and, once the death
        // is declared, reroutes. Locally generated work dies with the node.
        let orphans = self.procs[v].drain();
        for task in orphans {
            let QueuedTask { work, ack, .. } = task;
            let Some(ticket) = ack else { continue };
            let seq = ticket.seq;
            let kind = self.transport.get(seq).map(|e| e.kind);
            let payload = match (work, kind) {
                (
                    Work::ServeRpc {
                        thread,
                        reply_to,
                        invoke,
                    },
                    _,
                ) => Some(Payload::RpcRequest {
                    thread,
                    reply_to,
                    invoke,
                }),
                (
                    Work::Deliver {
                        thread,
                        results,
                        completes_op,
                    },
                    Some(MessageKind::OperationReturn),
                ) => Some(Payload::OperationReturn {
                    thread,
                    completes_op,
                    results,
                }),
                (
                    Work::Deliver {
                        thread, results, ..
                    },
                    _,
                )
                | (Work::DeliverDetached { thread, results }, _) => {
                    Some(Payload::RpcReply { thread, results })
                }
                (
                    Work::MigrationArrive {
                        thread,
                        reply_to,
                        frames,
                        invoke,
                    },
                    _,
                ) => Some(Payload::Migration {
                    thread,
                    reply_to,
                    frames,
                    invoke,
                }),
                (
                    Work::ServePull {
                        thread,
                        reply_to,
                        target,
                    },
                    _,
                ) => Some(Payload::ObjectPull {
                    thread,
                    reply_to,
                    target,
                }),
                (
                    Work::InstallObject {
                        thread,
                        target,
                        behavior,
                    },
                    _,
                ) => Some(Payload::ObjectMove {
                    thread,
                    target,
                    behavior,
                }),
                (
                    Work::ThreadArrive {
                        thread,
                        frames,
                        invoke,
                    },
                    _,
                ) => Some(Payload::ThreadMove {
                    thread,
                    frames,
                    invoke,
                }),
                (
                    Work::BackupApply {
                        target,
                        delta_seq,
                        words,
                    },
                    _,
                ) => Some(Payload::BackupDelta {
                    target,
                    delta_seq,
                    words,
                }),
                (Work::HeartbeatRecv, _) => Some(Payload::Heartbeat),
                // Duplicate suppressions and everything else deliverable
                // was already processed once — nothing to restore.
                _ => None,
            };
            if let Some(p) = payload {
                self.transport.undeliver(seq, p);
            }
        }
        // Threads homed at the dead processor die with it — except Moving
        // threads, whose entire state is in flight: a ThreadMove rehomes
        // wherever it (re)lands.
        for t in 0..self.threads.len() {
            if self.threads[t].home == victim
                && !matches!(
                    self.threads[t].status,
                    ThreadStatus::Moving | ThreadStatus::Done
                )
            {
                self.threads[t].status = ThreadStatus::Done;
                self.failover.threads_lost += 1;
                let stack = std::mem::take(&mut self.threads[t].stack);
                self.failover.frames_lost += stack.len() as u64;
                self.recycle_frame_vec(stack);
            }
        }
        // Detached activation groups parked at the victim are destroyed;
        // their threads can never receive the short-circuited return.
        for t in 0..self.detached.len() {
            let Some(d) = self.detached[t].take_if(|d| d.at == victim) else {
                continue;
            };
            let tid = ThreadId(t as u32);
            let n = d.stack.len() as u64;
            self.recycle_frame_vec(d.stack);
            self.failover.frames_lost += n;
            if self.threads[tid.index()].status != ThreadStatus::Done {
                self.failover.threads_lost += 1;
            }
            self.threads[tid.index()].status = ThreadStatus::Done;
            self.record_runtime_error(
                now,
                RuntimeError::FrameReclaimed {
                    thread: tid,
                    at: victim,
                    frames: n,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Operation bookkeeping
    // ------------------------------------------------------------------

    /// Close one operation: count it, record its latency, and fold any open
    /// adaptive-dispatch episode into the policy's sliding window. Returns
    /// the cycles charged for the policy update so the caller can include
    /// them in its busy accumulator (the audit's busy==charged identity).
    fn complete_op(&mut self, tid: ThreadId, at: Cycles) -> Cycles {
        self.ops_completed += 1;
        let t = tid.index();
        if let Some(start) = self.threads[t].op_started.take() {
            self.op_latency.record(at - start);
        }
        if let Some(site) = self.threads[t].auto_site.take() {
            let remote = std::mem::take(&mut self.threads[t].auto_remote);
            self.policy.record_episode(site, remote);
            self.charge(cat::POLICY_UPDATE, self.cost.policy_update);
            self.cost.policy_update
        } else {
            Cycles::ZERO
        }
    }

    // ------------------------------------------------------------------
    // Adaptive dispatch (Annotation::Auto)
    // ------------------------------------------------------------------

    /// Track one `Auto` invoke for the thread's open policy episode: open
    /// the episode at the first `Auto` invoke of the operation (local or
    /// not, so an all-local operation still records a 0-sample and decays
    /// its site back toward RPC), and count the access when the target is
    /// homed away from the *thread's* home and not served by a local
    /// replica. The thread home never changes while the activation is
    /// detached, so the count reflects the access pattern rather than the
    /// policy's own placement choices — migrating does not erase the
    /// evidence that migration was right.
    fn note_auto_access(
        &mut self,
        tid: ThreadId,
        site: &'static str,
        target_home: ProcId,
        replica_served: bool,
    ) {
        let t = tid.index();
        if self.threads[t].auto_site.is_none() {
            self.threads[t].auto_site = Some(site);
            self.threads[t].auto_remote = 0;
        }
        if target_home != self.threads[t].home && !replica_served {
            self.threads[t].auto_remote = self.threads[t].auto_remote.saturating_add(1);
        }
    }

    /// Consult the policy engine for one remote `Auto` dispatch. The caller
    /// has already charged (and accumulated) [`CostModel::policy_decide`].
    /// Emits a trace event when the site changes mode.
    fn policy_decide(&mut self, now: Cycles, proc: ProcId, site: &'static str) -> bool {
        self.charge(cat::POLICY_DECIDE, self.cost.policy_decide);
        let d = self.policy.decide(site);
        if d.flipped {
            self.tracer.emit_with(|| TraceEvent {
                at: now,
                source: "runtime",
                kind: "policy-flip",
                proc: Some(proc),
                detail: format!(
                    "site={site} mode={}",
                    if d.migrate { "migrate" } else { "rpc" }
                ),
            });
        }
        d.migrate
    }

    // ------------------------------------------------------------------
    // Execution slices
    // ------------------------------------------------------------------

    /// Step a thread at its home processor until it blocks, sleeps, yields,
    /// or finishes. Returns total busy cycles (including `acc` carried in).
    fn run_thread_slice(
        &mut self,
        now: Cycles,
        proc: ProcId,
        tid: ThreadId,
        deliver: Option<(WordVec, bool)>,
        mut acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let t = tid.index();
        debug_assert_eq!(self.threads[t].home, proc, "thread stepped off-home");
        // A task queued before the thread finished — or before the
        // protocol-error path terminated it — must not revive it.
        if self.threads[t].status == ThreadStatus::Done {
            return acc;
        }
        let mut frame = match self.threads[t].stack.pop() {
            Some(f) => f,
            None => return acc,
        };
        self.threads[t].status = ThreadStatus::Active;
        if let Some((results, completes_op)) = deliver {
            if completes_op {
                acc += self.complete_op(tid, now + acc);
            }
            frame.on_result(&results);
        }
        let mut steps = 0u64;
        loop {
            steps += 1;
            assert!(steps < 1_000_000, "frame livelock: {}", frame.label());
            let ctx = StepCtx {
                now: now + acc,
                proc,
            };
            match frame.step(&ctx) {
                StepResult::Compute(c) => {
                    self.charge_user(c);
                    acc += c;
                }
                StepResult::Call(child) => {
                    self.charge(cat::LOCAL_LINKAGE, self.cost.local_call);
                    acc += self.cost.local_call;
                    if child.is_operation() {
                        self.threads[t].op_started = Some(now + acc);
                    }
                    self.threads[t].stack.push(frame);
                    frame = child;
                }
                StepResult::Sleep(d) => {
                    if d.is_zero() {
                        continue;
                    }
                    self.threads[t].stack.push(frame);
                    self.threads[t].status = ThreadStatus::Sleeping;
                    queue.schedule_at(now + acc + d, Event::Wake(tid));
                    return acc;
                }
                StepResult::Return(vals) => {
                    if frame.is_operation() {
                        acc += self.complete_op(tid, now + acc);
                    }
                    match self.threads[t].stack.pop() {
                        Some(mut parent) => {
                            self.charge(cat::LOCAL_LINKAGE, self.cost.local_call);
                            acc += self.cost.local_call;
                            parent.on_result(&vals);
                            frame = parent;
                        }
                        None => {
                            self.threads[t].status = ThreadStatus::Done;
                            return acc;
                        }
                    }
                }
                StepResult::Halt => {
                    self.threads[t].status = ThreadStatus::Done;
                    return acc;
                }
                StepResult::Invoke(inv) => match self.cfg.scheme.access {
                    DataAccess::SharedMemory => {
                        self.record_dispatch(
                            now + acc,
                            proc,
                            frame.label(),
                            DispatchKind::SharedMemory,
                        );
                        let (lat, results) = self.invoke_sm(proc, &inv, now + acc, queue);
                        acc += lat;
                        frame.on_result(&results);
                        // Yield so lock windows interleave near the correct
                        // global time (DESIGN.md §6.2).
                        self.threads[t].stack.push(frame);
                        self.procs[proc.index()]
                            .enqueue(QueuedTask::new(RecvCharge::None, Work::Step(tid)));
                        return acc;
                    }
                    DataAccess::ObjectMigration => {
                        self.charge(cat::LOCALITY_CHECK, self.cost.locality_check);
                        acc += self.cost.locality_check;
                        let home = self.objects.home(inv.target);
                        if home == proc {
                            if self.objects.entry(inv.target).behavior.is_none() {
                                // Rehomed to us but still in flight (another
                                // thread on this processor pulled it): retry
                                // once it has had time to arrive.
                                self.threads[t].stack.push(frame);
                                self.threads[t].status = ThreadStatus::Sleeping;
                                queue.schedule_at(now + acc + Cycles(200), Event::Wake(tid));
                                return acc;
                            }
                            self.record_dispatch(
                                now + acc,
                                proc,
                                frame.label(),
                                DispatchKind::LocalInline,
                            );
                            let (lat, results) = self.invoke_inline(proc, &inv, now + acc, queue);
                            acc += lat;
                            frame.on_result(&results);
                            continue;
                        }
                        // Pull the object here (Emerald-style); the frame
                        // re-issues the same invoke once it is installed.
                        self.record_dispatch(
                            now + acc,
                            proc,
                            frame.label(),
                            DispatchKind::ObjectPull,
                        );
                        self.threads[t].status = ThreadStatus::WaitingReply;
                        self.threads[t].stack.push(frame);
                        let payload = Payload::ObjectPull {
                            thread: tid,
                            reply_to: proc,
                            target: inv.target,
                        };
                        acc += self.send_message(proc, home, payload, now + acc, queue);
                        return acc;
                    }
                    DataAccess::ThreadMigration => {
                        self.charge(cat::LOCALITY_CHECK, self.cost.locality_check);
                        acc += self.cost.locality_check;
                        let home = self.objects.home(inv.target);
                        if home == proc {
                            self.record_dispatch(
                                now + acc,
                                proc,
                                frame.label(),
                                DispatchKind::LocalInline,
                            );
                            let (lat, results) = self.invoke_inline(proc, &inv, now + acc, queue);
                            acc += lat;
                            frame.on_result(&results);
                            continue;
                        }
                        // Move the whole thread to the data (§2.3): every
                        // activation ships; the thread is rehomed on arrival.
                        self.record_dispatch(
                            now + acc,
                            proc,
                            frame.label(),
                            DispatchKind::ThreadMove,
                        );
                        self.threads[t].status = ThreadStatus::Moving;
                        let mut frames = std::mem::take(&mut self.threads[t].stack);
                        frames.push(frame);
                        let payload = Payload::ThreadMove {
                            thread: tid,
                            frames,
                            invoke: inv,
                        };
                        acc += self.send_message(proc, home, payload, now + acc, queue);
                        return acc;
                    }
                    DataAccess::MessagePassing => {
                        self.charge(cat::LOCALITY_CHECK, self.cost.locality_check);
                        acc += self.cost.locality_check;
                        let home = self.objects.home(inv.target);
                        let replica_served = home != proc && self.replica_readable(proc, &inv);
                        if inv.annotation == Annotation::Auto && self.cfg.scheme.migration {
                            self.note_auto_access(tid, frame.label(), home, replica_served);
                        }
                        if home == proc || replica_served {
                            let kind = if home == proc {
                                DispatchKind::LocalInline
                            } else {
                                DispatchKind::ReplicaRead
                            };
                            self.record_dispatch(now + acc, proc, frame.label(), kind);
                            let (lat, results) = self.invoke_inline(proc, &inv, now + acc, queue);
                            acc += lat;
                            frame.on_result(&results);
                            continue;
                        }
                        // How much of the stack migrates: the top activation
                        // (the paper's prototype) or the whole group above
                        // the thread base (§6 future work).
                        let depth = match inv.annotation {
                            Annotation::Migrate => 1,
                            Annotation::MigrateAll => self.threads[t].stack.len(),
                            Annotation::Rpc => 0,
                            Annotation::Auto => {
                                if self.cfg.scheme.migration {
                                    acc += self.cost.policy_decide;
                                    usize::from(self.policy_decide(now + acc, proc, frame.label()))
                                } else {
                                    0
                                }
                            }
                        };
                        if self.cfg.scheme.migration
                            && depth > 0
                            && !self.threads[t].stack.is_empty()
                        {
                            // The activation group leaves home; linkage
                            // (reply_to) lets its eventual return
                            // short-circuit back.
                            self.record_dispatch(
                                now + acc,
                                proc,
                                frame.label(),
                                DispatchKind::Migration,
                            );
                            self.threads[t].status = ThreadStatus::Detached;
                            let len = self.threads[t].stack.len();
                            let keep = (len + 1 - depth.min(len)).min(len);
                            let mut frames = self.take_frame_vec();
                            frames.extend(self.threads[t].stack.drain(keep..));
                            frames.push(frame);
                            let payload = Payload::Migration {
                                thread: tid,
                                reply_to: proc,
                                frames,
                                invoke: inv,
                            };
                            acc += self.send_message(proc, home, payload, now + acc, queue);
                            return acc;
                        }
                        self.record_dispatch(now + acc, proc, frame.label(), DispatchKind::Rpc);
                        self.threads[t].status = ThreadStatus::WaitingReply;
                        self.threads[t].stack.push(frame);
                        let payload = Payload::RpcRequest {
                            thread: tid,
                            reply_to: proc,
                            invoke: inv,
                        };
                        acc += self.send_message(proc, home, payload, now + acc, queue);
                        return acc;
                    }
                },
            }
        }
    }

    /// Continue a detached (migrated) activation group at `proc`.
    /// `arriving` carries the linkage + pending invoke when the group has
    /// just arrived.
    ///
    /// A well-formed simulation never violates this function's protocol
    /// invariants (a migration message carries at least one frame; a reply
    /// for a detached activation finds its group parked here; detached
    /// frames never sleep). Violations return `Err` with the busy cycles
    /// already charged, so the caller can keep the processor accounting
    /// consistent while recording the error instead of aborting the run.
    #[allow(clippy::too_many_arguments)]
    fn run_detached_slice(
        &mut self,
        now: Cycles,
        proc: ProcId,
        tid: ThreadId,
        arriving: Option<ArrivingGroup>,
        deliver: Option<WordVec>,
        mut acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Result<Cycles, (Cycles, RuntimeError)> {
        let (mut lower, mut frame, reply_to) = match arriving {
            Some((reply_to, mut frames, inv)) => {
                // The pending invoke runs here — that is the point of the
                // migration. User code at this hop counts toward Table 5.
                debug_assert_eq!(
                    self.objects.home(inv.target),
                    proc,
                    "migration arrived at wrong processor"
                );
                let Some(mut frame) = frames.pop() else {
                    return Err((
                        acc,
                        RuntimeError::EmptyMigration {
                            thread: tid,
                            at: proc,
                        },
                    ));
                };
                self.migration_ctx = true;
                let (lat, results) = self.invoke_inline(proc, &inv, now + acc, queue);
                self.migration_ctx = false;
                acc += lat;
                frame.on_result(&results);
                (frames, frame, reply_to)
            }
            None => {
                let Some(mut d) = self.detached.get_mut(tid.index()).and_then(Option::take) else {
                    return Err((
                        acc,
                        RuntimeError::UnknownDetachedGroup {
                            thread: tid,
                            at: proc,
                        },
                    ));
                };
                debug_assert_eq!(d.at, proc, "detached frames resumed off-site");
                let Some(mut frame) = d.stack.pop() else {
                    return Err((
                        acc,
                        RuntimeError::UnknownDetachedGroup {
                            thread: tid,
                            at: proc,
                        },
                    ));
                };
                if let Some(results) = deliver {
                    frame.on_result(&results);
                }
                (d.stack, frame, d.reply_to)
            }
        };
        let mut steps = 0u64;
        loop {
            steps += 1;
            assert!(steps < 1_000_000, "frame livelock: {}", frame.label());
            let ctx = StepCtx {
                now: now + acc,
                proc,
            };
            match frame.step(&ctx) {
                StepResult::Compute(c) => {
                    self.charge_user(c);
                    acc += c;
                }
                StepResult::Call(child) => {
                    // Local call within the migrated group (only possible
                    // once multiple activations can migrate together).
                    self.charge(cat::LOCAL_LINKAGE, self.cost.local_call);
                    acc += self.cost.local_call;
                    if child.is_operation() {
                        self.threads[tid.index()].op_started = Some(now + acc);
                    }
                    lower.push(frame);
                    frame = child;
                }
                StepResult::Sleep(_) => {
                    // Think time runs at the thread's home, never at a
                    // migration target (the driver frame stays behind).
                    return Err((
                        acc,
                        RuntimeError::DetachedFrameSlept {
                            thread: tid,
                            at: proc,
                        },
                    ));
                }
                StepResult::Return(vals) => match lower.pop() {
                    Some(mut parent) => {
                        if frame.is_operation() {
                            acc += self.complete_op(tid, now + acc);
                        }
                        self.charge(cat::LOCAL_LINKAGE, self.cost.local_call);
                        acc += self.cost.local_call;
                        parent.on_result(&vals);
                        frame = parent;
                    }
                    None => {
                        // The group's base returned: short-circuit straight
                        // to the original caller, not through intermediate
                        // processors (§3.2).
                        self.recycle_frame_vec(lower);
                        let payload = Payload::OperationReturn {
                            thread: tid,
                            completes_op: frame.is_operation(),
                            results: vals,
                        };
                        acc += self.send_message(proc, reply_to, payload, now + acc, queue);
                        return Ok(acc);
                    }
                },
                StepResult::Halt => {
                    self.threads[tid.index()].status = ThreadStatus::Done;
                    return Ok(acc);
                }
                StepResult::Invoke(inv) => {
                    self.charge(cat::LOCALITY_CHECK, self.cost.locality_check);
                    acc += self.cost.locality_check;
                    debug_assert_eq!(
                        self.cfg.scheme.access,
                        DataAccess::MessagePassing,
                        "detached frames exist only under message passing"
                    );
                    let home = self.objects.home(inv.target);
                    let replica_served = home != proc && self.replica_readable(proc, &inv);
                    if inv.annotation == Annotation::Auto && self.cfg.scheme.migration {
                        self.note_auto_access(tid, frame.label(), home, replica_served);
                    }
                    if home == proc || replica_served {
                        let kind = if home == proc {
                            DispatchKind::LocalInline
                        } else {
                            DispatchKind::ReplicaRead
                        };
                        self.record_dispatch(now + acc, proc, frame.label(), kind);
                        let (lat, results) = self.invoke_inline(proc, &inv, now + acc, queue);
                        acc += lat;
                        frame.on_result(&results);
                        continue;
                    }
                    let migrate_again = self.cfg.scheme.migration
                        && match inv.annotation {
                            Annotation::Migrate | Annotation::MigrateAll => true,
                            Annotation::Rpc => false,
                            Annotation::Auto => {
                                acc += self.cost.policy_decide;
                                self.policy_decide(now + acc, proc, frame.label())
                            }
                        };
                    if migrate_again {
                        // Re-migrate the whole group, passing the original
                        // linkage along and leaving nothing behind ("destroy
                        // the original thread" on this processor). A group
                        // cannot split further once detached.
                        self.record_dispatch(
                            now + acc,
                            proc,
                            frame.label(),
                            DispatchKind::Remigration,
                        );
                        let mut frames = std::mem::take(&mut lower);
                        frames.push(frame);
                        let payload = Payload::Migration {
                            thread: tid,
                            reply_to,
                            frames,
                            invoke: inv,
                        };
                        acc += self.send_message(proc, home, payload, now + acc, queue);
                        return Ok(acc);
                    }
                    // RPC from the current location; the reply comes back
                    // here, where the group parks.
                    self.record_dispatch(now + acc, proc, frame.label(), DispatchKind::Rpc);
                    let mut stack = std::mem::take(&mut lower);
                    stack.push(frame);
                    self.park_detached(
                        tid,
                        DetachedFrame {
                            stack,
                            at: proc,
                            reply_to,
                        },
                    );
                    let payload = Payload::RpcRequest {
                        thread: tid,
                        reply_to: proc,
                        invoke: inv,
                    };
                    acc += self.send_message(proc, home, payload, now + acc, queue);
                    return Ok(acc);
                }
            }
        }
    }

    /// Serve an object-migration pull at this processor: hand the object
    /// over (rehoming it at the requester), forward the pull if the object
    /// has already moved on, or retry shortly if it is in flight.
    #[allow(clippy::too_many_arguments)]
    fn serve_pull(
        &mut self,
        now: Cycles,
        proc: ProcId,
        thread: ThreadId,
        reply_to: ProcId,
        target: Goid,
        mut acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let home = self.objects.home(target);
        if home != proc {
            // The object moved away: forward the pull (forwarding check +
            // chase message).
            self.charge(cat::FORWARDING_CHECK, self.cost.forwarding_check);
            acc += self.cost.forwarding_check;
            let payload = Payload::ObjectPull {
                thread,
                reply_to,
                target,
            };
            acc += self.send_message(proc, home, payload, now + acc, queue);
            return acc;
        }
        if self.objects.entry(target).behavior.is_none() {
            // In flight towards us: retry after a short delay.
            self.charge(cat::SCHEDULER, self.cost.scheduler);
            acc += self.cost.scheduler;
            queue.schedule_at(
                now + acc + Cycles(200),
                Event::Arrive(
                    proc,
                    Message {
                        src: proc,
                        payload: Payload::ObjectPull {
                            thread,
                            reply_to,
                            target,
                        },
                    },
                ),
            );
            return acc;
        }
        // Pack the object and rehome it at the requester *now*, so later
        // pulls chase it to its new location.
        let behavior = self.objects.take_behavior(target);
        self.objects.entry_mut(target).home = reply_to;
        self.charge(cat::GOID_TRANSLATION, self.cost.goid_translation);
        acc += self.cost.goid_translation;
        let payload = Payload::ObjectMove {
            thread,
            target,
            behavior,
        };
        acc += self.send_message(proc, reply_to, payload, now + acc, queue);
        acc
    }

    /// Execute one queued task at `proc`, returning its busy duration.
    fn execute(
        &mut self,
        now: Cycles,
        proc: ProcId,
        task: QueuedTask,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let QueuedTask { recv, work, ack } = task;
        let mut acc = match recv {
            RecvCharge::None => Cycles::ZERO,
            RecvCharge::Message { words, kind, short } => self.charge_recv(words, kind, short),
            RecvCharge::Replica => {
                self.charge(cat::REPLICA_APPLY, self.cost.replica_apply);
                self.cost.replica_apply
            }
        };
        if let Some(ticket) = ack {
            // Acknowledge the envelope as part of processing it, so the ack's
            // send-side charges stay inside this task's busy window.
            self.recovery.acks_sent += 1;
            acc += self.send_message(
                proc,
                ticket.to,
                Payload::Ack { seq: ticket.seq },
                now + acc,
                queue,
            );
        }
        match work {
            Work::Step(tid) => self.run_thread_slice(now, proc, tid, None, acc, queue),
            Work::Deliver {
                thread,
                results,
                completes_op,
            } => {
                self.run_thread_slice(now, proc, thread, Some((results, completes_op)), acc, queue)
            }
            Work::DeliverDetached { thread, results } => self
                .run_detached_slice(now, proc, thread, None, Some(results), acc, queue)
                .unwrap_or_else(|(busy, error)| {
                    self.record_runtime_error(now + busy, error);
                    busy
                }),
            Work::MigrationArrive {
                thread,
                reply_to,
                frames,
                invoke,
            } => {
                if self.threads[thread.index()].status == ThreadStatus::Done {
                    // The thread died with its processor while this
                    // (rerouted) migration was in flight: reclaim the
                    // orphaned frames instead of running a dead operation.
                    let n = frames.len() as u64;
                    self.recycle_frame_vec(frames);
                    self.recovery.frames_reclaimed += n;
                    self.record_runtime_error(
                        now + acc,
                        RuntimeError::FrameReclaimed {
                            thread,
                            at: proc,
                            frames: n,
                        },
                    );
                    return acc;
                }
                self.run_detached_slice(
                    now,
                    proc,
                    thread,
                    Some((reply_to, frames, invoke)),
                    None,
                    acc,
                    queue,
                )
                .unwrap_or_else(|(busy, error)| {
                    self.record_runtime_error(now + busy, error);
                    busy
                })
            }
            Work::ServePull {
                thread,
                reply_to,
                target,
            } => self.serve_pull(now, proc, thread, reply_to, target, acc, queue),
            Work::InstallObject {
                thread,
                target,
                behavior,
            } => {
                // The home pointer was flipped when the object was packed;
                // install the state and let the thread retry its invoke,
                // which is now local.
                debug_assert_eq!(self.objects.home(target), proc, "object landed off-home");
                self.charge(cat::GOID_TRANSLATION, self.cost.goid_translation);
                let acc = acc + self.cost.goid_translation;
                self.objects.put_behavior(target, behavior);
                if self.threads[thread.index()].status == ThreadStatus::Done {
                    // The puller died with its processor; the object was
                    // rerouted here (its re-homed directory entry) so its
                    // state survives, but there is no thread to resume.
                    return acc;
                }
                self.run_thread_slice(now, proc, thread, None, acc, queue)
            }
            Work::ThreadArrive {
                thread,
                frames,
                invoke,
            } => {
                // Rehome the thread (§2.3: the thread continues where the
                // data is), run the pending invoke, deliver, continue.
                let t = thread.index();
                self.threads[t].home = proc;
                let old = std::mem::replace(&mut self.threads[t].stack, frames);
                self.recycle_frame_vec(old);
                self.threads[t].status = ThreadStatus::Active;
                let (lat, results) = self.invoke_inline(proc, &invoke, now + acc, queue);
                self.run_thread_slice(now, proc, thread, Some((results, false)), acc + lat, queue)
            }
            Work::ServeRpc {
                thread,
                reply_to,
                invoke,
            } => {
                // General-purpose stub dispatch: thread set-up/tear-down via
                // the scheduler plus the second argument copy (§4.3).
                self.charge(cat::RPC_DISPATCH, self.cost.rpc_dispatch);
                let acc = acc + self.cost.rpc_dispatch;
                let (lat, results) = self.invoke_inline(proc, &invoke, now + acc, queue);
                let mut total = acc + lat;
                let payload = Payload::RpcReply { thread, results };
                total += self.send_message(proc, reply_to, payload, now + total, queue);
                total
            }
            Work::ReplicaApply => acc,
            Work::DuplicateDrop { seq } => {
                self.charge(cat::RECOVERY_DEDUP, self.cost.dedup_check);
                self.recovery.duplicates_suppressed += 1;
                self.record_runtime_error(
                    now + acc,
                    RuntimeError::DuplicateDelivery { seq, at: proc },
                );
                acc + self.cost.dedup_check
            }
            Work::AckApply { seq } => {
                if self.transport.remove(seq).is_some() {
                    self.transport.advance();
                }
                acc
            }
            Work::Retransmit { seq } => self.retransmit(seq, now, proc, acc, queue),
            Work::HeartbeatProbe { to } => {
                if self.failed[proc.index()] || self.declared_dead[to.index()] {
                    // The prober died, or the target was declared dead since
                    // the tick fanned out: nothing left to probe.
                    return acc;
                }
                self.charge(cat::RECOVERY_HEARTBEAT, self.cost.heartbeat_probe);
                let acc = acc + self.cost.heartbeat_probe;
                self.failover.heartbeats_sent += 1;
                acc + self.send_message(proc, to, Payload::Heartbeat, now + acc, queue)
            }
            // The ack the receive path already sent *is* the liveness
            // evidence; the probe itself carries no work.
            Work::HeartbeatRecv => acc,
            Work::BackupApply { .. } => {
                self.charge(cat::REPLICATION_DELTA_APPLY, self.cost.delta_apply);
                acc + self.cost.delta_apply
            }
            Work::Outage { duration, crash } => {
                // The injected disruption occupies the processor for its
                // duration; charge it so the audit identity holds.
                let category = if crash {
                    cat::FAULT_CRASH
                } else {
                    cat::FAULT_STALL
                };
                self.charge(category, duration);
                acc + duration
            }
        }
    }

    /// Handle a fired retransmission timer for envelope `seq`: either resend
    /// it (with backoff) or — for a migration out of attempts — degrade to a
    /// plain RPC at the same call site.
    fn retransmit(
        &mut self,
        seq: u64,
        now: Cycles,
        proc: ProcId,
        acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let Some(entry) = self.transport.get(seq) else {
            return acc; // acked between timer fire and task execution
        };
        let (src, dst, kind, words, attempt) =
            (entry.src, entry.dst, entry.kind, entry.words, entry.attempt);
        debug_assert_eq!(src, proc, "retransmit task ran off the sender");
        self.charge(cat::RECOVERY_TIMEOUT, self.cost.timeout_handler);
        let acc = acc + self.cost.timeout_handler;
        if self.cfg.failover.enabled && self.declared_dead[dst.index()] {
            // The destination was declared dead (by this processor or any
            // other): redirect the buffered payload instead of resending
            // into the void.
            return self.reroute(seq, now, proc, acc, queue);
        }
        if self.cfg.failover.enabled
            && kind == MessageKind::Heartbeat
            && attempt >= self.cfg.failover.max_heartbeat_attempts
        {
            // Suspicion: the probe's retry budget is exhausted with no ack —
            // the ring predecessor declares the destination dead.
            self.transport.remove(seq);
            self.transport.advance();
            return self.declare_dead(dst, now, proc, acc, queue);
        }
        if kind == MessageKind::Migration && attempt >= self.cfg.recovery.max_migration_attempts {
            return self.fallback_to_rpc(seq, now, proc, acc, queue);
        }
        self.transport
            .get_mut(seq)
            .expect("entry checked above")
            .attempt = attempt + 1;
        self.recovery.retries += 1;
        let (overhead, latency) = self.charge_send(src, dst, kind, words, now + acc);
        let acc = acc + overhead;
        let Some(latency) = latency else {
            return acc; // route rejected (recorded); the timer re-arms below anyway
        };
        self.msg_counts[kind as usize] += 1;
        self.tracer.emit_with(|| TraceEvent {
            at: now + acc,
            source: "runtime",
            kind: "retry",
            proc: Some(proc),
            detail: format!(
                "seq={seq} attempt={} kind={kind:?} dst={}",
                attempt + 1,
                dst.index()
            ),
        });
        self.launch_envelope(seq, now + acc, latency, queue);
        acc
    }

    /// Graceful degradation: a migration envelope exhausted its retry
    /// budget. Reclaim the buffered frames and re-issue the invocation as a
    /// plain RPC from the sending processor (the mechanism downgrade the
    /// paper's annotation semantics permit: performance, never semantics).
    fn fallback_to_rpc(
        &mut self,
        seq: u64,
        now: Cycles,
        proc: ProcId,
        acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let entry = self
            .transport
            .remove(seq)
            .expect("fallback on unknown envelope");
        // The envelope is retired: any straggler copy still in flight must
        // be treated as a duplicate, not re-executed. (If the watermark
        // passes `seq` right away the tombstone is pruned again — copies
        // below the watermark are duplicates by definition.)
        self.transport.mark_delivered(seq);
        self.transport.advance();
        let Some(Payload::Migration {
            thread,
            reply_to,
            frames,
            invoke,
        }) = entry.payload
        else {
            return acc; // tombstone — a copy was delivered after all
        };
        self.charge(cat::RECOVERY_RECLAIM, self.cost.frame_reclaim);
        let acc = acc + self.cost.frame_reclaim;
        self.recovery.fallbacks += 1;
        self.record_runtime_error(
            now + acc,
            RuntimeError::MigrationTimeout { thread, at: proc },
        );
        let t = thread.index();
        if self.threads[t].status == ThreadStatus::Done {
            // The thread died while its frames were marooned in the
            // retransmission buffer: reclaim them, nothing to re-issue.
            let n = frames.len() as u64;
            self.recycle_frame_vec(frames);
            self.recovery.frames_reclaimed += n;
            self.record_runtime_error(
                now + acc,
                RuntimeError::FrameReclaimed {
                    thread,
                    at: proc,
                    frames: n,
                },
            );
            return acc;
        }
        let site = frames.last().expect("migration carries frames").label();
        self.record_dispatch(now + acc, proc, site, DispatchKind::RpcFallback);
        let home = self.objects.home(invoke.target);
        let mut acc = acc;
        if reply_to == proc {
            // First migration, leaving the thread's home: put the frames
            // back on the home stack and wait for an RPC reply instead.
            let mut frames = frames;
            self.threads[t].stack.append(&mut frames);
            self.recycle_frame_vec(frames);
            self.threads[t].status = ThreadStatus::WaitingReply;
            acc += self.send_message(
                proc,
                home,
                Payload::RpcRequest {
                    thread,
                    reply_to: proc,
                    invoke,
                },
                now + acc,
                queue,
            );
        } else {
            // Re-migration of an already-detached group: park the group
            // here and route the reply back through the detached path.
            self.park_detached(
                thread,
                DetachedFrame {
                    stack: frames,
                    at: proc,
                    reply_to,
                },
            );
            acc += self.send_message(
                proc,
                home,
                Payload::RpcRequest {
                    thread,
                    reply_to: proc,
                    invoke,
                },
                now + acc,
                queue,
            );
        }
        acc
    }

    /// Build the receive-side task for a delivered payload. Shared between
    /// the fault-free [`Event::Arrive`] path and the reliable-envelope
    /// delivery path, so both charge identical receive costs.
    fn task_for_payload(&self, dest: ProcId, src: ProcId, payload: Payload) -> QueuedTask {
        match payload {
            Payload::RpcRequest {
                thread,
                reply_to,
                invoke,
            } => QueuedTask::new(
                RecvCharge::Message {
                    words: 2 + invoke.request_words() + self.cost.rpc_stub_words,
                    kind: MessageKind::RpcRequest,
                    short: invoke.short_method,
                },
                Work::ServeRpc {
                    thread,
                    reply_to,
                    invoke,
                },
            ),
            Payload::RpcReply { thread, results } => {
                let words = 1 + results.len() as u64 + self.cost.rpc_stub_words;
                let detached_here = self.detached_group(thread).is_some_and(|d| d.at == dest);
                QueuedTask::new(
                    RecvCharge::Message {
                        words,
                        kind: MessageKind::RpcReply,
                        short: true,
                    },
                    if detached_here {
                        Work::DeliverDetached { thread, results }
                    } else {
                        Work::Deliver {
                            thread,
                            results,
                            completes_op: false,
                        }
                    },
                )
            }
            Payload::Migration {
                thread,
                reply_to,
                frames,
                invoke,
            } => QueuedTask::new(
                RecvCharge::Message {
                    words: 2 + crate::message::frames_words(&frames) + invoke.request_words(),
                    kind: MessageKind::Migration,
                    short: false,
                },
                Work::MigrationArrive {
                    thread,
                    reply_to,
                    frames,
                    invoke,
                },
            ),
            Payload::ObjectPull {
                thread,
                reply_to,
                target,
            } => QueuedTask::new(
                // A self-addressed pull is a local retry (the object
                // was in flight): no receive path to pay.
                if src == dest {
                    RecvCharge::None
                } else {
                    RecvCharge::Message {
                        words: 3,
                        kind: MessageKind::ObjectPull,
                        short: true,
                    }
                },
                Work::ServePull {
                    thread,
                    reply_to,
                    target,
                },
            ),
            Payload::ObjectMove {
                thread,
                target,
                behavior,
            } => QueuedTask::new(
                RecvCharge::Message {
                    words: 1 + behavior.size_bytes().div_ceil(8),
                    kind: MessageKind::ObjectMove,
                    short: true,
                },
                Work::InstallObject {
                    thread,
                    target,
                    behavior,
                },
            ),
            Payload::ThreadMove {
                thread,
                frames,
                invoke,
            } => QueuedTask::new(
                RecvCharge::Message {
                    words: 16 + crate::message::frames_words(&frames) + invoke.request_words(),
                    kind: MessageKind::ThreadMove,
                    short: false,
                },
                Work::ThreadArrive {
                    thread,
                    frames,
                    invoke,
                },
            ),
            Payload::OperationReturn {
                thread,
                completes_op,
                results,
            } => QueuedTask::new(
                RecvCharge::Message {
                    words: 1 + results.len() as u64,
                    kind: MessageKind::OperationReturn,
                    short: true,
                },
                Work::Deliver {
                    thread,
                    results,
                    completes_op,
                },
            ),
            Payload::ReplicaUpdate { .. } => {
                QueuedTask::new(RecvCharge::Replica, Work::ReplicaApply)
            }
            Payload::Ack { seq } => QueuedTask::new(
                RecvCharge::Message {
                    words: 1,
                    kind: MessageKind::Ack,
                    short: true,
                },
                Work::AckApply { seq },
            ),
            Payload::Heartbeat => QueuedTask::new(
                RecvCharge::Message {
                    words: 1,
                    kind: MessageKind::Heartbeat,
                    short: true,
                },
                Work::HeartbeatRecv,
            ),
            Payload::BackupDelta {
                target,
                delta_seq,
                words,
            } => QueuedTask::new(
                RecvCharge::Message {
                    words: 2 + words,
                    kind: MessageKind::BackupDelta,
                    short: true,
                },
                Work::BackupApply {
                    target,
                    delta_seq,
                    words,
                },
            ),
        }
    }

    fn ensure_poll(&mut self, proc: ProcId, now: Cycles, queue: &mut EventQueue<Event>) {
        if self.poll_pending[proc.index()] || self.failed[proc.index()] {
            return;
        }
        self.poll_pending[proc.index()] = true;
        let at = self.procs[proc.index()].busy_until().max(now);
        queue.schedule_at(at, Event::Poll(proc));
    }
}

impl Simulation for System {
    type Event = Event;

    fn event_label(event: &Event) -> &'static str {
        match event {
            Event::Arrive(..) => "arrive",
            Event::ArriveSeq { .. } => "arrive_seq",
            Event::Poll(_) => "poll",
            Event::Wake(_) => "wake",
            Event::Timeout(_) => "timeout",
            Event::Disrupt { .. } => "disrupt",
            Event::Kill(_) => "kill",
            Event::HeartbeatTick => "heartbeat_tick",
        }
    }

    fn handle(&mut self, now: Cycles, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::Arrive(dest, msg) => {
                if self.faults.is_some()
                    && msg.src != dest
                    && now < self.crashed_until[dest.index()]
                {
                    // The destination is mid crash-restart: fire-and-forget
                    // traffic (acks) arriving now is simply lost. Envelope
                    // traffic never takes this path, and self-addressed
                    // retries are local, not wire traffic.
                    self.recovery.messages_lost += 1;
                    self.tracer.emit_with(|| TraceEvent {
                        at: now,
                        source: "runtime",
                        kind: "lost",
                        proc: Some(dest),
                        detail: format!("src={} (destination crashed)", msg.src.index()),
                    });
                    return;
                }
                let task = self.task_for_payload(dest, msg.src, msg.payload);
                self.procs[dest.index()].enqueue(task);
                self.ensure_poll(dest, now, queue);
            }
            Event::ArriveSeq {
                dst,
                src,
                seq,
                words,
                kind,
                short,
            } => {
                if now < self.crashed_until[dst.index()] {
                    // Crash-restart swallowed this copy; the sender's
                    // timeout will retransmit it.
                    self.recovery.messages_lost += 1;
                    self.tracer.emit_with(|| TraceEvent {
                        at: now,
                        source: "runtime",
                        kind: "lost",
                        proc: Some(dst),
                        detail: format!("seq={seq} (destination crashed)"),
                    });
                    return;
                }
                let ticket = AckTicket { to: src, seq };
                let mut task = match self.transport.deliver(seq) {
                    Some(payload) => self.task_for_payload(dst, src, payload),
                    // Already processed (an injected duplicate, a
                    // retransmission racing its own ack, or a tombstone left
                    // by a fallback): suppress, but still charge the receive
                    // path and re-ack.
                    None => QueuedTask::new(
                        RecvCharge::Message { words, kind, short },
                        Work::DuplicateDrop { seq },
                    ),
                };
                task.ack = Some(ticket);
                self.procs[dst.index()].enqueue(task);
                self.ensure_poll(dst, now, queue);
            }
            Event::Timeout(seq) => {
                let Some(entry) = self.transport.get(seq) else {
                    return; // acked meanwhile — stale timer
                };
                let src = entry.src;
                if self.failed[src.index()] {
                    // The sender died: nobody is left to retransmit, and no
                    // ack will ever release the buffer. Retire the envelope
                    // so the dedup watermark can advance past it.
                    self.transport.remove(seq);
                    self.transport.advance();
                    return;
                }
                self.procs[src.index()]
                    .enqueue(QueuedTask::new(RecvCharge::None, Work::Retransmit { seq }));
                self.ensure_poll(src, now, queue);
            }
            Event::Disrupt {
                proc,
                duration,
                crash,
            } => {
                if crash {
                    let until = (now + duration).max(self.crashed_until[proc.index()]);
                    self.crashed_until[proc.index()] = until;
                }
                self.procs[proc.index()].enqueue(QueuedTask::new(
                    RecvCharge::None,
                    Work::Outage { duration, crash },
                ));
                self.ensure_poll(proc, now, queue);
            }
            Event::Kill(victim) => self.kill_processor(now, victim, queue),
            Event::HeartbeatTick => {
                // Ring detector: every live processor probes its successor
                // (skipping the declared dead, so a dead node's predecessor
                // adopts the probe responsibility for the node after it).
                let n = self.procs.len();
                for p in 0..n {
                    if self.failed[p] || self.declared_dead[p] {
                        continue;
                    }
                    let mut to = (p + 1) % n;
                    while to != p && self.declared_dead[to] {
                        to = (to + 1) % n;
                    }
                    if to == p {
                        continue;
                    }
                    self.procs[p].enqueue(QueuedTask::new(
                        RecvCharge::None,
                        Work::HeartbeatProbe {
                            to: ProcId(to as u32),
                        },
                    ));
                    self.ensure_poll(ProcId(p as u32), now, queue);
                }
                queue.schedule_at(
                    now + self.cfg.failover.heartbeat_interval,
                    Event::HeartbeatTick,
                );
            }
            Event::Wake(tid) => {
                // A pending Wake must not resurrect a thread that finished —
                // or was terminated by the protocol-error path — meanwhile.
                if self.threads[tid.index()].status == ThreadStatus::Done {
                    return;
                }
                let home = self.threads[tid.index()].home;
                self.threads[tid.index()].status = ThreadStatus::Active;
                self.procs[home.index()]
                    .enqueue(QueuedTask::new(RecvCharge::None, Work::Step(tid)));
                self.ensure_poll(home, now, queue);
            }
            Event::Poll(proc) => {
                self.poll_pending[proc.index()] = false;
                if let Some(task) = self.procs[proc.index()].take_ready(now) {
                    let charged_before = self.busy_charged;
                    let dur = self.execute(now, proc, task, queue);
                    if self.cfg.audit {
                        // Every busy cycle of this task must have been
                        // charged to exactly one accounting category.
                        let attributed = self.busy_charged - charged_before;
                        if dur.get() != attributed && self.audit_violations.len() < 16 {
                            self.audit_violations.push(format!(
                                "task on {proc:?} at {now:?}: busy {} != charged {attributed}",
                                dur.get()
                            ));
                        }
                        self.audit_tasks += 1;
                    }
                    self.procs[proc.index()].occupy(now, dur.max(Cycles(1)));
                }
                if self.procs[proc.index()].queue_len() > 0 {
                    self.ensure_poll(proc, now, queue);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Method environments
// ----------------------------------------------------------------------

/// Environment for message-passing execution (at home or on a replica).
struct MpEnv<'a> {
    user: Cycles,
    replica_read: bool,
    /// Bytes written by the method — the delta footprint primary-backup
    /// replication ships to the backup (0 when failover is off or the
    /// method only reads).
    wrote_bytes: u64,
    objects: &'a mut ObjectTable,
    rng: &'a mut SplitMix64,
    data_procs: &'a [ProcId],
}

impl MethodEnv for MpEnv<'_> {
    fn compute(&mut self, cycles: Cycles) {
        self.user += cycles;
    }
    fn read(&mut self, _offset: u64, _len: u64) {
        // Local memory at the object's home: covered by the method's
        // compute() charges.
    }
    fn write(&mut self, _offset: u64, len: u64) {
        assert!(
            !self.replica_read,
            "write through a read-only replica view (method wrongly marked read_only)"
        );
        self.wrote_bytes += len;
    }
    fn lock(&mut self) {
        // The home processor serves one activation at a time: mutual
        // exclusion is structural under message passing.
    }
    fn unlock(&mut self) {}
    fn create(&mut self, behavior: Box<dyn Behavior>, home: Option<ProcId>) -> Goid {
        assert!(
            !self.replica_read,
            "object creation through a read-only replica view"
        );
        let home = home.unwrap_or_else(|| {
            assert!(
                !self.data_procs.is_empty(),
                "create(None) requires configured data_procs"
            );
            self.data_procs[self.rng.below(self.data_procs.len() as u64) as usize]
        });
        self.objects.create(behavior, home)
    }
    fn rng(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// Environment for shared-memory execution on the invoking processor.
struct SmEnv<'a> {
    proc: ProcId,
    base: u64,
    size: u64,
    goid: Goid,
    logical_start: Cycles,
    elapsed: Cycles,
    user: Cycles,
    mem_stall: Cycles,
    lock_stall: Cycles,
    /// Bytes written through explicit `write()` calls (excludes internal
    /// lock-word traffic) — the footprint primary-backup replication ships.
    wrote_bytes: u64,
    objects: &'a mut ObjectTable,
    coherence: &'a mut CoherenceSystem,
    net: &'a mut Network,
    rng: &'a mut SplitMix64,
    data_procs: &'a [ProcId],
}

impl SmEnv<'_> {
    fn mem(&mut self, offset: u64, len: u64, kind: Access) {
        debug_assert!(
            offset + len <= self.size,
            "field access out of object bounds"
        );
        let at = self.logical_start + self.elapsed;
        let out = self.coherence.access_range(
            self.proc,
            self.base + offset,
            len.max(1),
            kind,
            self.net,
            at,
        );
        self.elapsed += out.latency;
        self.mem_stall += out.latency;
    }
}

impl MethodEnv for SmEnv<'_> {
    fn compute(&mut self, cycles: Cycles) {
        self.elapsed += cycles;
        self.user += cycles;
    }
    fn read(&mut self, offset: u64, len: u64) {
        self.mem(offset, len, Access::Read);
    }
    fn write(&mut self, offset: u64, len: u64) {
        self.wrote_bytes += len;
        self.mem(offset, len, Access::Write);
    }
    fn lock(&mut self) {
        let t_now = self.logical_start + self.elapsed;
        let free_at = self.objects.entry(self.goid).lock_free_at;
        let stalled_here = free_at > t_now;
        if stalled_here {
            let stall = free_at - t_now;
            // Test-and-set spinning: while waiting, this processor re-probes
            // the lock word with atomic read-modify-writes. Each probe is an
            // ownership transfer — it books real protocol traffic, occupies
            // the line (serializing contended handoffs), and steals the line
            // from the holder so the next critical section starts with a
            // miss. This is the coherence activity that throttles
            // write-shared objects in the paper's SM runs. The probes'
            // latency is subsumed by the stall itself.
            let costs = self.coherence.costs();
            let (interval, max_reads) = (costs.spin_interval, costs.max_spin_reads);
            let n = ((stall.get() / interval.get().max(1)) + 1).min(u64::from(max_reads));
            for i in 0..n {
                let at = t_now + interval * i;
                let _ = self
                    .coherence
                    .access(self.proc, self.base, Access::Write, self.net, at);
            }
            self.elapsed += stall;
            self.lock_stall += stall;
        }
        // Winning test-and-set on the lock word (first word of the object):
        // a real coherence write, queued behind any spin-read burst.
        let was_stalled = stalled_here;
        self.mem(0, 8, Access::Write);
        if was_stalled {
            // Spinner interference on the critical section (see
            // CoherenceCosts::contended_lock_penalty).
            let penalty = self.coherence.costs().contended_lock_penalty;
            self.elapsed += penalty;
            self.lock_stall += penalty;
        }
        // Reserve the window; unlock() extends it to the true release time.
        self.objects.entry_mut(self.goid).lock_free_at = self.logical_start + self.elapsed;
    }
    fn unlock(&mut self) {
        self.mem(0, 8, Access::Write);
        self.objects.entry_mut(self.goid).lock_free_at = self.logical_start + self.elapsed;
    }
    fn create(&mut self, behavior: Box<dyn Behavior>, home: Option<ProcId>) -> Goid {
        let home = home.unwrap_or_else(|| {
            assert!(
                !self.data_procs.is_empty(),
                "create(None) requires configured data_procs"
            );
            self.data_procs[self.rng.below(self.data_procs.len() as u64) as usize]
        });
        self.objects.create(behavior, home)
    }
    fn rng(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

// ----------------------------------------------------------------------
// Runner
// ----------------------------------------------------------------------

/// Convenience wrapper binding a [`System`] to an [`Engine`]: spawn threads,
/// run a warm-up, measure a window, extract metrics.
pub struct Runner {
    /// The machine.
    pub system: System,
    engine: Engine<System>,
}

/// Event-loop profile of one run (see [`Runner::run_profiled`]): how hard
/// the simulator core itself worked, as opposed to what it simulated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EngineProfile {
    /// Events dispatched, warm-up included.
    pub events: u64,
    /// Peak number of pending events over the run.
    pub peak_queue_depth: usize,
}

impl Runner {
    /// Build a runner for a configuration. A permanent-crash fault
    /// ([`FaultPlan::kill`]) and the failure detector's probe tick are
    /// scheduled here, before the first event runs; with neither configured
    /// the event stream is untouched.
    pub fn new(cfg: MachineConfig) -> Runner {
        let mut engine: Engine<System> = Engine::new();
        if let Some((victim, at)) = cfg.faults.as_ref().and_then(|f| f.kill) {
            assert!(
                victim.index() < cfg.processors as usize,
                "kill victim outside the machine"
            );
            engine.queue_mut().schedule_at(at, Event::Kill(victim));
        }
        if cfg.failover.enabled {
            engine
                .queue_mut()
                .schedule_at(cfg.failover.heartbeat_interval, Event::HeartbeatTick);
        }
        Runner {
            system: System::new(cfg),
            engine,
        }
    }

    /// Attach a tracer to the engine and the whole machine.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer.clone());
        self.system.set_tracer(tracer);
    }

    /// Spawn a thread at `home` with base activation `driver`, scheduled to
    /// start at time zero.
    pub fn spawn(&mut self, home: ProcId, driver: Box<dyn Frame>) -> ThreadId {
        let tid = self.system.add_thread(home, driver);
        let now = self.engine.now();
        self.engine.queue_mut().schedule_at(now, Event::Wake(tid));
        tid
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.engine.now()
    }

    /// Run until `horizon` (absolute time) without touching counters.
    pub fn run_until(&mut self, horizon: Cycles) {
        self.engine.run_until(&mut self.system, horizon);
    }

    /// Run a warm-up of `warmup` cycles, then measure a `window`-cycle
    /// window and return its metrics.
    pub fn run(&mut self, warmup: Cycles, window: Cycles) -> RunMetrics {
        self.run_profiled(warmup, window).0
    }

    /// Like [`Runner::run`], but also report how the event loop itself
    /// performed. The simulation is identical — profiling only reads
    /// counters the engine keeps anyway.
    pub fn run_profiled(&mut self, warmup: Cycles, window: Cycles) -> (RunMetrics, EngineProfile) {
        let start = self.engine.now();
        let mut events = 0u64;
        if !warmup.is_zero() {
            events += self
                .engine
                .run_until(&mut self.system, start + warmup)
                .events;
        }
        self.system.reset_window(start + warmup);
        let end = start + warmup + window;
        events += self.engine.run_until(&mut self.system, end).events;
        let profile = EngineProfile {
            events,
            peak_queue_depth: self.engine.peak_queue_depth(),
        };
        (self.system.metrics(end), profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::categories;
    use crate::frame::{StepCtx, StepResult};
    use crate::types::{MethodId, Word};

    /// A cell object: lock, read state, compute, bump, write state, unlock.
    /// The state spans several cache lines, like a balancer or B-tree node.
    struct Cell {
        value: Word,
        compute: u64,
    }

    impl Behavior for Cell {
        fn invoke(&mut self, _m: MethodId, _args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
            env.lock();
            env.read(8, 56);
            env.compute(Cycles(self.compute));
            self.value += 1;
            env.write(8, 24);
            env.unlock();
            [self.value].into()
        }
        fn size_bytes(&self) -> u64 {
            64
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A read-only probe method on a cell-like object.
    struct ReadCell {
        value: Word,
    }

    impl Behavior for ReadCell {
        fn invoke(&mut self, m: MethodId, _args: &[Word], env: &mut dyn MethodEnv) -> WordVec {
            match m {
                MethodId(0) => {
                    env.read(8, 8);
                    env.compute(Cycles(30));
                    [self.value].into()
                }
                _ => {
                    env.compute(Cycles(30));
                    self.value += 1;
                    env.write(8, 8);
                    [self.value].into()
                }
            }
        }
        fn size_bytes(&self) -> u64 {
            16
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// The §2.5 access pattern: `repeats` consecutive accesses to each of
    /// the targets in order.
    struct ChainOp {
        targets: Vec<Goid>,
        annotation: Annotation,
        repeats: u32,
        idx: usize,
        done_on_current: u32,
        acc: Word,
    }

    impl ChainOp {
        fn new(targets: Vec<Goid>, annotation: Annotation, repeats: u32) -> ChainOp {
            ChainOp {
                targets,
                annotation,
                repeats,
                idx: 0,
                done_on_current: 0,
                acc: 0,
            }
        }
    }

    impl Frame for ChainOp {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            if self.idx >= self.targets.len() {
                return StepResult::Return([self.acc].into());
            }
            let target = self.targets[self.idx];
            let inv = match self.annotation {
                Annotation::Migrate => Invoke::migrate(target, MethodId(0), []),
                Annotation::MigrateAll => Invoke::migrate_all(target, MethodId(0), []),
                Annotation::Rpc => Invoke::rpc(target, MethodId(0), []),
                Annotation::Auto => Invoke::auto(target, MethodId(0), []),
            };
            StepResult::Invoke(inv)
        }
        fn on_result(&mut self, results: &[Word]) {
            self.acc += results[0];
            self.done_on_current += 1;
            if self.done_on_current >= self.repeats {
                self.done_on_current = 0;
                self.idx += 1;
            }
        }
        fn live_words(&self) -> u64 {
            4 + self.targets.len() as u64
        }
        fn is_operation(&self) -> bool {
            true
        }
        fn label(&self) -> &'static str {
            "chain-op"
        }
    }

    /// Driver: think, run a chain op, repeat `ops` times, halt.
    struct TestDriver {
        targets: Vec<Goid>,
        annotation: Annotation,
        repeats: u32,
        think: Cycles,
        ops_remaining: u32,
        thinking: bool,
    }

    impl Frame for TestDriver {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            if self.ops_remaining == 0 {
                return StepResult::Halt;
            }
            if !self.thinking {
                self.thinking = true;
                return StepResult::Sleep(self.think);
            }
            self.thinking = false;
            self.ops_remaining -= 1;
            StepResult::Call(Box::new(ChainOp::new(
                self.targets.clone(),
                self.annotation,
                self.repeats,
            )))
        }
        fn on_result(&mut self, _results: &[Word]) {}
        fn live_words(&self) -> u64 {
            4
        }
        fn label(&self) -> &'static str {
            "test-driver"
        }
    }

    fn build(
        scheme: Scheme,
        procs: u32,
        targets_on: &[u32],
        annotation: Annotation,
        repeats: u32,
        ops: u32,
    ) -> (Runner, Vec<Goid>) {
        let cfg = MachineConfig::new(procs, scheme);
        let mut runner = Runner::new(cfg);
        let targets: Vec<Goid> = targets_on
            .iter()
            .map(|&p| {
                runner.system.create_object(
                    Box::new(Cell {
                        value: 0,
                        compute: 100,
                    }),
                    ProcId(p),
                    false,
                )
            })
            .collect();
        runner.spawn(
            ProcId(0),
            Box::new(TestDriver {
                targets: targets.clone(),
                annotation,
                repeats,
                think: Cycles::ZERO,
                ops_remaining: ops,
                thinking: false,
            }),
        );
        (runner, targets)
    }

    #[test]
    fn local_invoke_sends_no_messages() {
        let (mut runner, _) = build(Scheme::rpc(), 2, &[0], Annotation::Rpc, 3, 1);
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        assert_eq!(m.messages, 0);
    }

    #[test]
    fn rpc_round_trip_counts_messages() {
        // 1 op, 3 accesses to one remote object: 3 requests + 3 replies.
        let (mut runner, targets) = build(Scheme::rpc(), 2, &[1], Annotation::Rpc, 3, 1);
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        assert_eq!(m.migrations, 0);
        assert_eq!(m.message_kinds[&MessageKind::RpcRequest], 3);
        assert_eq!(m.message_kinds[&MessageKind::RpcReply], 3);
        assert_eq!(m.messages, 6);
        // The object was actually bumped three times.
        let cell = runner.system.objects().state::<Cell>(targets[0]).unwrap();
        assert_eq!(cell.value, 3);
    }

    #[test]
    fn migration_makes_repeat_accesses_local() {
        // 1 op, 3 accesses to one remote object under CM: ONE migration, the
        // other two accesses are local, one short-circuited return.
        let (mut runner, targets) = build(
            Scheme::computation_migration(),
            2,
            &[1],
            Annotation::Migrate,
            3,
            1,
        );
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        assert_eq!(m.migrations, 1);
        assert_eq!(m.message_kinds[&MessageKind::Migration], 1);
        assert_eq!(m.message_kinds[&MessageKind::OperationReturn], 1);
        assert_eq!(m.messages, 2);
        let cell = runner.system.objects().state::<Cell>(targets[0]).unwrap();
        assert_eq!(cell.value, 3);
    }

    #[test]
    fn migration_chain_passes_linkage_and_short_circuits() {
        // Figure 1's pattern: m=3 items on 3 different processors, n=1: the
        // frame hops item to item (3 migrations) and returns directly home
        // (1 message), total 4 — versus 6 for RPC.
        let (mut runner, _) = build(
            Scheme::computation_migration(),
            4,
            &[1, 2, 3],
            Annotation::Migrate,
            1,
            1,
        );
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        assert_eq!(m.migrations, 3);
        assert_eq!(m.message_kinds[&MessageKind::OperationReturn], 1);
        assert_eq!(m.messages, 4);

        let (mut runner, _) = build(Scheme::rpc(), 4, &[1, 2, 3], Annotation::Rpc, 1, 1);
        let r = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(r.messages, 6);
    }

    #[test]
    fn cm_scheme_with_rpc_annotation_behaves_like_rpc() {
        // The annotation is what moves; under the CM scheme an unannotated
        // call is still RPC.
        let (mut runner, _) = build(
            Scheme::computation_migration(),
            2,
            &[1],
            Annotation::Rpc,
            2,
            1,
        );
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.migrations, 0);
        assert_eq!(m.message_kinds[&MessageKind::RpcRequest], 2);
    }

    #[test]
    fn rpc_scheme_ignores_migrate_annotation() {
        // Under the RPC scheme the Migrate annotation is inert (performance
        // portability: same program, different mapping).
        let (mut runner, _) = build(Scheme::rpc(), 2, &[1], Annotation::Migrate, 2, 1);
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.migrations, 0);
        assert_eq!(m.message_kinds[&MessageKind::RpcRequest], 2);
    }

    #[test]
    fn shared_memory_caches_after_first_access() {
        let (mut runner, targets) = build(Scheme::shared_memory(), 2, &[1], Annotation::Rpc, 5, 1);
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        // No runtime messages at all — only coherence traffic.
        assert_eq!(m.message_kinds.len(), 0);
        assert!(m.messages > 0, "coherence protocol messages expected");
        assert!(m.cache_hit_rate > 0.0, "later accesses should hit");
        let cell = runner.system.objects().state::<Cell>(targets[0]).unwrap();
        assert_eq!(cell.value, 5);
    }

    #[test]
    fn sm_write_sharing_generates_more_traffic_than_cm() {
        // Two threads write-sharing one object: the line ping-pongs under
        // SM; under CM each access is one migration message.
        let mk = |scheme| {
            let cfg = MachineConfig::new(3, scheme);
            let mut runner = Runner::new(cfg);
            let t = runner.system.create_object(
                Box::new(Cell {
                    value: 0,
                    compute: 100,
                }),
                ProcId(2),
                false,
            );
            for p in 0..2 {
                runner.spawn(
                    ProcId(p),
                    Box::new(TestDriver {
                        targets: vec![t],
                        annotation: Annotation::Migrate,
                        repeats: 1,
                        think: Cycles::ZERO,
                        ops_remaining: 50,
                        thinking: false,
                    }),
                );
            }
            runner.run(Cycles::ZERO, Cycles(2_000_000))
        };
        let sm = mk(Scheme::shared_memory());
        let cm = mk(Scheme::computation_migration());
        assert_eq!(sm.ops, 100);
        assert_eq!(cm.ops, 100);
        assert!(
            sm.bandwidth_words_per_10 > cm.bandwidth_words_per_10,
            "SM {} vs CM {}",
            sm.bandwidth_words_per_10,
            cm.bandwidth_words_per_10
        );
    }

    #[test]
    fn sm_lock_contention_accounted() {
        let cfg = MachineConfig::new(3, Scheme::shared_memory());
        let mut runner = Runner::new(cfg);
        let t = runner.system.create_object(
            Box::new(Cell {
                value: 0,
                compute: 500,
            }),
            ProcId(2),
            false,
        );
        for p in 0..2 {
            runner.spawn(
                ProcId(p),
                Box::new(TestDriver {
                    targets: vec![t],
                    annotation: Annotation::Rpc,
                    repeats: 1,
                    think: Cycles::ZERO,
                    ops_remaining: 100,
                    thinking: false,
                }),
            );
        }
        let m = runner.run(Cycles::ZERO, Cycles(2_000_000));
        assert_eq!(m.ops, 200);
        assert!(
            m.accounting.total(cat::LOCK_STALL.name()) > 0,
            "contending writers must stall on the object lock"
        );
    }

    #[test]
    fn replication_serves_reads_locally() {
        // Replicated object, read-only invoke from a replica processor: no
        // messages at all under CM w/repl.
        let mut cfg = MachineConfig::new(3, Scheme::computation_migration().with_replication());
        cfg.replica_procs = vec![ProcId(0), ProcId(1)];
        let mut runner = Runner::new(cfg);
        let t = runner
            .system
            .create_object(Box::new(ReadCell { value: 7 }), ProcId(2), true);
        struct ReadOp {
            target: Goid,
            done: bool,
        }
        impl Frame for ReadOp {
            fn step(&mut self, _ctx: &StepCtx) -> StepResult {
                if self.done {
                    return StepResult::Return([].into());
                }
                self.done = true;
                StepResult::Invoke(Invoke::migrate(self.target, MethodId(0), []).reading())
            }
            fn on_result(&mut self, results: &[Word]) {
                assert_eq!(results, &[7]);
            }
            fn live_words(&self) -> u64 {
                2
            }
            fn is_operation(&self) -> bool {
                true
            }
        }
        struct OneShot {
            target: Goid,
            fired: bool,
        }
        impl Frame for OneShot {
            fn step(&mut self, _ctx: &StepCtx) -> StepResult {
                if self.fired {
                    return StepResult::Halt;
                }
                self.fired = true;
                StepResult::Call(Box::new(ReadOp {
                    target: self.target,
                    done: false,
                }))
            }
            fn on_result(&mut self, _r: &[Word]) {}
            fn live_words(&self) -> u64 {
                2
            }
        }
        runner.spawn(
            ProcId(0),
            Box::new(OneShot {
                target: t,
                fired: false,
            }),
        );
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        assert_eq!(m.messages, 0, "replica read must stay local");
    }

    #[test]
    fn replicated_write_broadcasts_updates() {
        let mut cfg = MachineConfig::new(4, Scheme::rpc().with_replication());
        cfg.replica_procs = vec![ProcId(0), ProcId(1), ProcId(2)];
        let mut runner = Runner::new(cfg);
        // Replicated object homed at P3; a write from P0 must fan updates
        // out to the replicas.
        let t = runner
            .system
            .create_object(Box::new(ReadCell { value: 0 }), ProcId(3), true);
        struct WriteOnce {
            target: Goid,
            state: u8,
        }
        impl Frame for WriteOnce {
            fn step(&mut self, _ctx: &StepCtx) -> StepResult {
                match self.state {
                    0 => {
                        self.state = 1;
                        StepResult::Invoke(Invoke::rpc(self.target, MethodId(1), []))
                    }
                    _ => StepResult::Halt,
                }
            }
            fn on_result(&mut self, _r: &[Word]) {}
            fn live_words(&self) -> u64 {
                2
            }
        }
        runner.spawn(
            ProcId(0),
            Box::new(WriteOnce {
                target: t,
                state: 0,
            }),
        );
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.message_kinds[&MessageKind::ReplicaUpdate], 3);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut runner, _) = build(
                Scheme::computation_migration(),
                4,
                &[1, 2, 3],
                Annotation::Migrate,
                2,
                10,
            );
            let m = runner.run(Cycles(10_000), Cycles(500_000));
            (m.ops, m.messages, m.message_words, m.migrations)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hw_support_improves_cm_throughput() {
        let go = |scheme| {
            let (mut runner, _) = build(scheme, 4, &[1, 2, 3], Annotation::Migrate, 1, 1000);
            runner
                .run(Cycles(10_000), Cycles(500_000))
                .throughput_per_1000
        };
        let sw = go(Scheme::computation_migration());
        let hw = go(Scheme::computation_migration().with_hardware());
        assert!(hw > sw, "hw {hw} should beat sw {sw}");
        // The paper estimates roughly a 20% improvement.
        assert!(hw / sw > 1.05 && hw / sw < 1.6, "ratio {}", hw / sw);
    }

    #[test]
    fn migration_accounting_sums_to_total_charges() {
        let (mut runner, _) = build(
            Scheme::computation_migration(),
            2,
            &[1],
            Annotation::Migrate,
            1,
            20,
        );
        let m = runner.run(Cycles::ZERO, Cycles(500_000));
        assert!(m.migrations >= 19, "migrations {}", m.migrations);
        // Every Table 5 category for migrations is a subset of the global
        // accounting.
        for (k, v) in m.migration_accounting.totals() {
            assert!(
                m.accounting.total(k) >= v,
                "category {k}: migration {v} > total {}",
                m.accounting.total(k)
            );
        }
        // Mean migration overhead lands in the paper's ballpark (~651
        // cycles total with ~150 user code).
        let per = m.migration_accounting.grand_total() as f64 / m.migrations as f64;
        assert!((450.0..900.0).contains(&per), "per-migration cycles {per}");
    }

    #[test]
    fn think_time_reduces_throughput() {
        let go = |think: u64| {
            let cfg = MachineConfig::new(2, Scheme::rpc());
            let mut runner = Runner::new(cfg);
            let t = runner.system.create_object(
                Box::new(Cell {
                    value: 0,
                    compute: 100,
                }),
                ProcId(1),
                false,
            );
            runner.spawn(
                ProcId(0),
                Box::new(TestDriver {
                    targets: vec![t],
                    annotation: Annotation::Rpc,
                    repeats: 1,
                    think: Cycles(think),
                    ops_remaining: u32::MAX,
                    thinking: false,
                }),
            );
            runner
                .run(Cycles(10_000), Cycles(500_000))
                .throughput_per_1000
        };
        let fast = go(0);
        let slow = go(10_000);
        assert!(
            fast > 2.0 * slow,
            "think time must throttle: {fast} vs {slow}"
        );
    }

    // ------------------------------------------------------------------
    // Extension mechanisms: object migration, thread migration, and
    // multiple-activation migration (DESIGN.md §7)
    // ------------------------------------------------------------------

    #[test]
    fn object_migration_pulls_object_and_goes_local() {
        // 3 accesses to one remote object under OM: one pull + one move,
        // then everything is local. The object's home follows the thread.
        let (mut runner, targets) =
            build(Scheme::object_migration(), 2, &[1], Annotation::Rpc, 3, 1);
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        assert_eq!(m.message_kinds[&MessageKind::ObjectPull], 1);
        assert_eq!(m.message_kinds[&MessageKind::ObjectMove], 1);
        assert_eq!(m.messages, 2);
        assert_eq!(runner.system.objects().home(targets[0]), ProcId(0));
        let cell = runner.system.objects().state::<Cell>(targets[0]).unwrap();
        assert_eq!(cell.value, 3, "all three accesses applied after the pull");
    }

    #[test]
    fn object_migration_ping_pongs_between_writers() {
        // Two threads on different processors taking turns on the same
        // object (think time forces interleaving): it bounces back and
        // forth, everyone completes, nothing is lost.
        let cfg = MachineConfig::new(3, Scheme::object_migration());
        let mut runner = Runner::new(cfg);
        let t = runner.system.create_object(
            Box::new(Cell {
                value: 0,
                compute: 100,
            }),
            ProcId(2),
            false,
        );
        for p in 0..2 {
            runner.spawn(
                ProcId(p),
                Box::new(TestDriver {
                    targets: vec![t],
                    annotation: Annotation::Rpc,
                    repeats: 1,
                    think: Cycles(2_000),
                    ops_remaining: 30,
                    thinking: false,
                }),
            );
        }
        let m = runner.run(Cycles::ZERO, Cycles(5_000_000));
        assert_eq!(m.ops, 60);
        let moves = m.message_kinds[&MessageKind::ObjectMove];
        assert!(moves >= 20, "object must ping-pong: {moves} moves");
        // Pulls that arrive at a stale home are forwarded after the object
        // moved on.
        assert!(
            m.message_kinds[&MessageKind::ObjectPull] >= moves,
            "pulls chase the object"
        );
        let cell = runner.system.objects().state::<Cell>(t).unwrap();
        assert_eq!(cell.value, 60, "no lost updates while bouncing");
    }

    #[test]
    fn thread_migration_rehomes_the_whole_thread() {
        // A chain over three remote objects: the thread moves to each in
        // turn and STAYS; there is no return message at all.
        let (mut runner, _) = build(
            Scheme::thread_migration(),
            4,
            &[1, 2, 3],
            Annotation::Rpc,
            1,
            1,
        );
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        assert_eq!(m.message_kinds[&MessageKind::ThreadMove], 3);
        assert_eq!(m.messages, 3, "no replies, no returns: the thread stays");
        // Thread moves cost more words than activation migrations would:
        // the whole stack + control block ships each hop.
        assert!(m.message_words > 3 * 20);
    }

    #[test]
    fn thread_migration_repeat_ops_start_from_last_home() {
        // After an op ends at the data, the next op starts there: a second
        // identical op is fully local (locality of the coarsest kind).
        let (mut runner, _) = build(Scheme::thread_migration(), 2, &[1], Annotation::Rpc, 2, 3);
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 3);
        // Only the very first access moves the thread; the rest are local.
        assert_eq!(m.message_kinds[&MessageKind::ThreadMove], 1);
        assert_eq!(m.messages, 1);
    }

    /// A parent frame that Calls a child while migrated: exercises
    /// multiple-activation migration (§6 future work).
    struct GroupParent {
        targets: Vec<Goid>,
        phase: u8,
        total: Word,
    }

    impl Frame for GroupParent {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            match self.phase {
                0 => {
                    // Move the whole group (just this frame so far) to the
                    // first target.
                    self.phase = 1;
                    StepResult::Invoke(Invoke::migrate_all(self.targets[0], MethodId(0), []))
                }
                1 => {
                    // While migrated: call a child that works on the second
                    // target (local call within the detached group).
                    self.phase = 2;
                    StepResult::Call(Box::new(GroupChild {
                        target: self.targets[1],
                        done: false,
                    }))
                }
                _ => StepResult::Return([self.total].into()),
            }
        }
        fn on_result(&mut self, results: &[Word]) {
            self.total += results[0];
        }
        fn live_words(&self) -> u64 {
            6
        }
        fn is_operation(&self) -> bool {
            true
        }
        fn label(&self) -> &'static str {
            "group-parent"
        }
    }

    struct GroupChild {
        target: Goid,
        done: bool,
    }

    impl Frame for GroupChild {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            if self.done {
                return StepResult::Return([100].into());
            }
            self.done = true;
            StepResult::Invoke(Invoke::migrate_all(self.target, MethodId(0), []))
        }
        fn on_result(&mut self, _results: &[Word]) {}
        fn live_words(&self) -> u64 {
            3
        }
        fn label(&self) -> &'static str {
            "group-child"
        }
    }

    struct GroupDriver {
        targets: Vec<Goid>,
        fired: bool,
        result: Option<Word>,
    }

    impl Frame for GroupDriver {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            if self.fired {
                return StepResult::Halt;
            }
            self.fired = true;
            StepResult::Call(Box::new(GroupParent {
                targets: self.targets.clone(),
                phase: 0,
                total: 0,
            }))
        }
        fn on_result(&mut self, results: &[Word]) {
            self.result = Some(results[0]);
        }
        fn live_words(&self) -> u64 {
            2
        }
    }

    #[test]
    fn multiple_activation_migration_moves_the_group() {
        // Parent migrates (migrate_all), then Calls a child while detached;
        // the child re-migrates THE GROUP to a second processor; both
        // frames travel together and the final return short-circuits home.
        let cfg = MachineConfig::new(3, Scheme::computation_migration());
        let mut runner = Runner::new(cfg);
        let a = runner.system.create_object(
            Box::new(Cell {
                value: 0,
                compute: 80,
            }),
            ProcId(1),
            false,
        );
        let b = runner.system.create_object(
            Box::new(Cell {
                value: 0,
                compute: 80,
            }),
            ProcId(2),
            false,
        );
        runner.spawn(
            ProcId(0),
            Box::new(GroupDriver {
                targets: vec![a, b],
                fired: false,
                result: None,
            }),
        );
        let m = runner.run(Cycles::ZERO, Cycles(2_000_000));
        assert_eq!(m.ops, 1, "the operation completed");
        // Two migrations (P0->P1 with one frame, P1->P2 with two frames) and
        // one short-circuited return from P2.
        assert_eq!(m.message_kinds[&MessageKind::Migration], 2);
        assert_eq!(m.message_kinds[&MessageKind::OperationReturn], 1);
        assert_eq!(m.messages, 3);
        // Both objects were touched exactly once each.
        assert_eq!(runner.system.objects().state::<Cell>(a).unwrap().value, 1);
        assert_eq!(runner.system.objects().state::<Cell>(b).unwrap().value, 1);
    }

    #[test]
    fn migrate_all_from_home_matches_single_when_stack_is_shallow() {
        // With a one-deep operation stack, MigrateAll degenerates to the
        // prototype's single-activation migration.
        let (mut runner, _) = build(
            Scheme::computation_migration(),
            2,
            &[1],
            Annotation::MigrateAll,
            2,
            1,
        );
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.ops, 1);
        assert_eq!(m.message_kinds[&MessageKind::Migration], 1);
        assert_eq!(m.message_kinds[&MessageKind::OperationReturn], 1);
    }

    #[test]
    fn ops_counted_only_in_window() {
        let (mut runner, _) = build(Scheme::rpc(), 2, &[1], Annotation::Rpc, 1, 1000);
        let m = runner.run(Cycles(100_000), Cycles(100_000));
        // Warm-up ops are excluded; the window still sees steady progress.
        assert!(m.ops > 0);
        let expected = m.throughput_per_1000 * 100_000.0 / 1000.0;
        assert!((m.ops as f64 - expected).abs() < 1.0);
    }

    #[test]
    fn dispatch_stats_attribute_mechanisms_to_call_sites() {
        // The Figure-1 chain: 3 remote items, Migrate annotation → every
        // invocation dispatched as a migration, all from the "chain-op" site.
        let (mut runner, _) = build(
            Scheme::computation_migration(),
            4,
            &[1, 2, 3],
            Annotation::Migrate,
            1,
            2,
        );
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        // Per op: one initial migration off the home, then two re-migrations
        // from the already-detached frame. All from the "chain-op" site.
        assert_eq!(m.dispatch.count(DispatchKind::Migration), 2);
        assert_eq!(m.dispatch.count(DispatchKind::Remigration), 4);
        assert_eq!(
            m.dispatch.count(DispatchKind::Migration) + m.dispatch.count(DispatchKind::Remigration),
            m.migrations
        );
        assert_eq!(
            m.dispatch.site_count("chain-op", DispatchKind::Migration),
            2
        );
        assert_eq!(
            m.dispatch.site_count("chain-op", DispatchKind::Remigration),
            4
        );
        assert_eq!(m.dispatch.count(DispatchKind::Rpc), 0);
        // Same program under RPC: the dispatch table shifts wholesale.
        let (mut runner, _) = build(Scheme::rpc(), 4, &[1, 2, 3], Annotation::Migrate, 1, 2);
        let m = runner.run(Cycles::ZERO, Cycles(1_000_000));
        assert_eq!(m.dispatch.count(DispatchKind::Migration), 0);
        assert_eq!(m.dispatch.site_count("chain-op", DispatchKind::Rpc), 6);
    }

    #[test]
    fn audit_mode_populates_summary() {
        let mut cfg = MachineConfig::new(4, Scheme::computation_migration());
        cfg.audit = true;
        let mut runner = Runner::new(cfg);
        let targets: Vec<Goid> = (1..4)
            .map(|p| {
                runner.system.create_object(
                    Box::new(Cell {
                        value: 0,
                        compute: 100,
                    }),
                    ProcId(p),
                    false,
                )
            })
            .collect();
        runner.spawn(
            ProcId(0),
            Box::new(TestDriver {
                targets,
                annotation: Annotation::Migrate,
                repeats: 2,
                think: Cycles::ZERO,
                ops_remaining: 5,
                thinking: false,
            }),
        );
        let m = runner.run(Cycles::ZERO, Cycles(2_000_000));
        let audit = m.audit.expect("audit requested");
        assert!(audit.tasks_checked > 0);
        assert_eq!(audit.grand_total, audit.busy_total + audit.transit_total);
        assert_eq!(audit.grand_total, m.accounting.grand_total());
    }

    #[test]
    fn auto_learns_to_migrate_a_hot_site() {
        // 10 ops, each making 3 accesses to one remote object. The first
        // op's window is empty → 3 RPCs; its episode (3 remote accesses)
        // crosses the 1.5 threshold, so every later op migrates once and
        // runs the remaining accesses locally.
        let (mut runner, _) = build(
            Scheme::computation_migration(),
            2,
            &[1],
            Annotation::Auto,
            3,
            10,
        );
        let m = runner.run(Cycles::ZERO, Cycles(4_000_000));
        assert_eq!(m.ops, 10);
        assert_eq!(m.migrations, 9, "all ops after the first migrate");
        assert_eq!(m.dispatch.site_count("chain-op", DispatchKind::Rpc), 3);
        assert_eq!(
            m.dispatch.site_count("chain-op", DispatchKind::Migration),
            9
        );
        let p = m.policy.expect("Auto dispatched remotely: stats present");
        assert_eq!(p.episodes, 10, "one closed episode per operation");
        assert_eq!(p.sites, 1);
        assert_eq!(p.flips, 1, "RPC → migrate exactly once");
        assert_eq!(p.decisions, p.migrate_decisions + p.rpc_decisions);
        assert!(p.migrate_decisions >= 9);
        // Policy bookkeeping is visible in the audited accounting.
        let decide = m.accounting.total(categories::POLICY_DECIDE);
        let update = m.accounting.total(categories::POLICY_UPDATE);
        assert_eq!(decide, p.decisions * 6, "policy.decide = decisions × cost");
        assert_eq!(update, p.episodes * 12, "policy.update = episodes × cost");
    }

    #[test]
    fn auto_is_inert_under_a_migration_disabled_scheme() {
        // Under the plain-RPC scheme the policy is never consulted: no
        // migrations, no policy stats, no policy.* charges — an Auto
        // annotation degenerates to Rpc exactly like Migrate does.
        let (mut runner, _) = build(Scheme::rpc(), 2, &[1], Annotation::Auto, 3, 5);
        let m = runner.run(Cycles::ZERO, Cycles(4_000_000));
        assert_eq!(m.ops, 5);
        assert_eq!(m.migrations, 0);
        assert_eq!(m.dispatch.count(DispatchKind::Migration), 0);
        assert_eq!(m.dispatch.count(DispatchKind::Remigration), 0);
        assert_eq!(m.dispatch.site_count("chain-op", DispatchKind::Rpc), 15);
        assert!(m.policy.is_none(), "engine never consulted");
        assert_eq!(m.accounting.total(categories::POLICY_DECIDE), 0);
        assert_eq!(m.accounting.total(categories::POLICY_UPDATE), 0);
    }

    #[test]
    fn auto_under_audit_keeps_busy_equal_to_charged() {
        // The busy==charged identity must hold with policy decisions and
        // episode updates folded into task slices (metrics() panics if the
        // audit fails, so reaching the asserts is the test).
        let mut cfg = MachineConfig::new(4, Scheme::computation_migration());
        cfg.audit = true;
        let mut runner = Runner::new(cfg);
        let targets: Vec<Goid> = (1..4)
            .map(|p| {
                runner.system.create_object(
                    Box::new(Cell {
                        value: 0,
                        compute: 100,
                    }),
                    ProcId(p),
                    false,
                )
            })
            .collect();
        runner.spawn(
            ProcId(0),
            Box::new(TestDriver {
                targets,
                annotation: Annotation::Auto,
                repeats: 2,
                think: Cycles::ZERO,
                ops_remaining: 8,
                thinking: false,
            }),
        );
        let m = runner.run(Cycles::ZERO, Cycles(4_000_000));
        let audit = m.audit.expect("audit requested");
        assert!(audit.tasks_checked > 0);
        assert_eq!(audit.grand_total, audit.busy_total + audit.transit_total);
        assert!(m.policy.is_some(), "Auto was dispatched remotely");
        assert!(m.accounting.total(categories::POLICY_UPDATE) > 0);
    }

    #[test]
    fn auto_migrates_along_a_chain_once_learned() {
        // Figure-1 chain under Auto: once the site is hot, a detached frame
        // re-migrates item to item exactly like a static Migrate annotation.
        let (mut runner, _) = build(
            Scheme::computation_migration(),
            4,
            &[1, 2, 3],
            Annotation::Auto,
            1,
            6,
        );
        let m = runner.run(Cycles::ZERO, Cycles(4_000_000));
        assert_eq!(m.ops, 6);
        assert!(
            m.dispatch.site_count("chain-op", DispatchKind::Remigration) > 0,
            "detached Auto frames consult the policy too"
        );
        assert!(m.migrations > 0);
    }

    #[test]
    fn malformed_migration_is_recorded_not_fatal() {
        // A Migration message with no frames is a protocol violation; the
        // runtime must drop it, record the error, and keep the run alive.
        let (mut runner, targets) = build(
            Scheme::computation_migration(),
            2,
            &[1],
            Annotation::Migrate,
            1,
            1,
        );
        let victim = runner.spawn(
            ProcId(0),
            Box::new(TestDriver {
                targets: targets.clone(),
                annotation: Annotation::Migrate,
                repeats: 1,
                think: Cycles(500_000),
                ops_remaining: 1,
                thinking: false,
            }),
        );
        runner.engine.queue_mut().schedule_at(
            Cycles(10),
            Event::Arrive(
                ProcId(1),
                Message {
                    src: ProcId(0),
                    payload: Payload::Migration {
                        thread: victim,
                        reply_to: ProcId(0),
                        frames: Vec::new(),
                        invoke: Invoke::rpc(targets[0], MethodId(0), []),
                    },
                },
            ),
        );
        let m = runner.run(Cycles::ZERO, Cycles(2_000_000));
        assert_eq!(m.runtime_errors, 1);
        assert!(matches!(
            runner.system.runtime_errors()[0],
            RuntimeError::EmptyMigration { thread, at: ProcId(1) } if thread == victim
        ));
        // The healthy thread's operation still completed and the machine
        // quiesced (the orphaned thread was terminated).
        assert_eq!(m.ops, 1);
        assert_eq!(
            runner
                .system
                .objects()
                .state::<Cell>(targets[0])
                .unwrap()
                .value,
            1
        );
    }
}
