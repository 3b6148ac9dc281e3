//! The runtime system: threads, mechanism dispatch, and metrics.
//!
//! This module ties everything together into an executable machine model:
//!
//! * application threads are stacks of [`Frame`]s living at a home processor;
//! * an [`Invoke`](crate::Invoke) from the top frame is dispatched per the
//!   configured [`Scheme`]: inline when local, by RPC, by *computation
//!   migration* (the frame itself moves, with linkage passed so the final
//!   return short-circuits back to the caller — §3.2 of the paper), or
//!   through the cache-coherence oracle under shared memory;
//! * every cycle charged is attributed to a Table 5 accounting category, and
//!   migration-specific charges are additionally folded into a separate
//!   accounting that regenerates Table 5 itself.
//!
//! [`System`] is built from layers, one child module each, each owning its
//! state:
//!
//! * `Core` (here): the always-on charging state every layer books into —
//!   cost model, accountings, message counts, network, tracer, errors;
//! * `dispatch`: task execution, message delivery, object pulls, the
//!   adaptive policy hooks, and one step loop for every activation group:
//!   the thread's stack at home and a migrated group away from it step the
//!   same way, and only where the group runs (`away`) decides how a sleep,
//!   the base frame's return and a migration end;
//! * `transport` (optional): fault injection and the ack/timeout/retry
//!   recovery protocol over sequence-numbered envelopes;
//! * `failover` (optional): heartbeat detection, primary-backup deltas,
//!   re-homing, rerouting and permanent processor loss;
//! * `env`: the method environments of message passing and shared memory;
//! * `metrics`: window reset, the cycle-accounting audit, [`RunMetrics`].
//!
//! An off layer is `None`; nothing else checks a flag.

use proteus::engine::{Engine, Simulation};
use proteus::event::EventQueue;
use proteus::fault::{FaultPlan, FaultStats};
use proteus::stats::Histogram;
use proteus::trace::{TraceEvent, Tracer};
use proteus::{
    CacheConfig, CoherenceCosts, CoherenceSystem, Cycles, Network, NetworkConfig, ProcId,
    Processor, ProcessorStats,
};

use crate::cost::{category_ids as cat, CategoryId, CostModel, DenseAccounting};
use crate::error::RuntimeError;
use crate::frame::Frame;
use crate::mechanism::{DispatchStats, Scheme};
use crate::message::{Message, MessageKind, Payload};
use crate::object::{Behavior, ObjectTable};
use crate::policy::{PolicyConfig, PolicyEngine};
use crate::rng::SplitMix64;
use crate::types::{Goid, ThreadId};

mod dispatch;
mod env;
mod failover;
mod metrics;
#[cfg(test)]
mod tests;
mod transport;

pub use failover::FailoverStats;
pub use metrics::{AuditSummary, ProcWindowStats, RunMetrics};
pub use transport::RecoveryStats;

use failover::Failover;
use transport::Faults;

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
    /// [`crate::Annotation::Auto`] call sites (see [`crate::policy`]). Only
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
    /// and degrades the call to plain RPC ([`crate::DispatchKind::RpcFallback`]).
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
        /// What the receive-path charge needs.
        meta: RecvMeta,
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

/// A task queued at a processor.
enum Work {
    /// Step a thread at its home processor.
    Step(ThreadId),
    /// Deliver a runtime message: charge its receive path, acknowledge
    /// envelope `seq` back to `src` if it came in one, then act on it.
    Message {
        src: ProcId,
        payload: Payload,
        seq: Option<u64>,
    },
    /// Suppress a duplicate copy of envelope `seq` (recovery protocol),
    /// still paying the receive path the envelope's metadata describes and
    /// re-acknowledging it to `src`.
    DuplicateDrop {
        src: ProcId,
        seq: u64,
        meta: RecvMeta,
    },
    /// Retransmit (or give up on) unacked envelope `seq`.
    Retransmit { seq: u64 },
    /// Sit out an injected stall or crash-restart outage.
    Outage { duration: Cycles, crash: bool },
    /// Send a failure-detector heartbeat probe to `to`.
    HeartbeatProbe { to: ProcId },
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
    /// Call site of the first [`crate::Annotation::Auto`] invoke of the
    /// current operation, if any: the open policy *episode*. Closed (folded
    /// into the site's sliding window) when the operation completes.
    auto_site: Option<&'static str>,
    /// Remote data accesses observed by the open episode: `Auto` invokes
    /// whose target is homed away from the *thread's* home and not served by
    /// a local replica. The thread home is stable while detached, so this
    /// count measures the access pattern, not the policy's own choices.
    auto_remote: u32,
}

/// An activation group about to resume: the frames below the top, the top
/// frame, and where it runs — `None` for the thread's own stack at home,
/// else the processor a migrated group's final return short-circuits to.
type ResumingGroup = (Vec<Box<dyn Frame>>, Box<dyn Frame>, Option<ProcId>);

struct DetachedFrame {
    /// The migrated activation group, bottom first (one frame in the
    /// paper's prototype; several under multiple-activation migration).
    stack: Vec<Box<dyn Frame>>,
    at: ProcId,
    reply_to: ProcId,
}

/// What charging a payload's receive path needs, kept where the payload
/// itself is not: in an envelope's arrival event, a duplicate's suppression
/// task and the sender's retransmission buffer. Only the runtime builds one,
/// from the payload it describes.
#[derive(Copy, Clone, Debug)]
pub struct RecvMeta {
    /// Wire words.
    words: u64,
    /// Payload kind.
    kind: MessageKind,
    /// Short-method receive path: no thread creation.
    short: bool,
}

/// The always-on charging state every layer books into. [`System`] lends
/// it to a layer as a plain field, so a layer call borrows `core` beside
/// its own state instead of all of `System`.
struct Core {
    cost: CostModel,
    net: Network,
    tracer: Tracer,
    acct: DenseAccounting,
    migration_acct: DenseAccounting,
    migration_ctx: bool,
    /// Monotone count of cycles charged to busy (non-transit) categories;
    /// the audit compares per-task deltas of this against execute()'s
    /// returned busy duration, so window resets don't disturb it.
    busy_charged: u64,
    /// Messages sent in the window, indexed by `MessageKind as usize`.
    msg_counts: [u64; MessageKind::ALL.len()],
    migrations: u64,
    runtime_errors: Vec<RuntimeError>,
}

impl Core {
    /// Charge `cycles` to `category`; returns `cycles`, so a caller adds
    /// what it charged to its busy accumulator in the same expression.
    #[inline]
    fn charge(&mut self, category: CategoryId, cycles: Cycles) -> Cycles {
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
        cycles
    }

    #[inline]
    fn charge_user(&mut self, cycles: Cycles) -> Cycles {
        self.charge(cat::USER_CODE, cycles)
    }

    /// Record a protocol error instead of aborting the simulation: the
    /// offending task is dropped after its already-charged busy time and
    /// the error is kept for [`System::runtime_errors`] / [`RunMetrics`].
    fn record_error(&mut self, now: Cycles, error: RuntimeError) {
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
    #[inline]
    fn wire_words(&self, payload: &Payload) -> u64 {
        let extra = match payload.kind() {
            MessageKind::RpcRequest | MessageKind::RpcReply => self.cost.rpc_stub_words,
            _ => 0,
        };
        payload.words() + extra
    }

    /// The receive-path metadata of `payload`: only RPC requests for long
    /// methods and arriving activations pay thread creation.
    #[inline]
    fn recv_meta(&self, payload: &Payload) -> RecvMeta {
        let short = match payload {
            Payload::RpcRequest { invoke, .. } => invoke.short_method,
            Payload::Migration { .. } | Payload::ThreadMove { .. } => false,
            _ => true,
        };
        RecvMeta {
            words: self.wire_words(payload),
            kind: payload.kind(),
            short,
        }
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
        let overhead = self.charge(cat::LINKAGE_SEND, self.cost.linkage_send)
            + self.charge(cat::ALLOC_PACKET_SEND, self.cost.alloc_packet_send)
            + self.charge(cat::MARSHAL, self.cost.marshal(words))
            + self.charge(cat::MESSAGE_SEND, self.cost.message_send);
        let latency = match self.net.send_at(send_time, src, dst, words) {
            Ok(l) => l,
            Err(_) => {
                self.migration_ctx = was_migration_ctx;
                self.record_error(send_time, RuntimeError::NetworkRejected { src, dst });
                return (overhead, None);
            }
        };
        self.charge(cat::NETWORK_TRANSIT, latency);
        self.migration_ctx = was_migration_ctx;
        (overhead, Some(latency))
    }

    /// Booking prologue of every first send: charge the sender side of
    /// `payload` and, when the network took it, count the message (and the
    /// migration it performs). Returns what [`Core::charge_send`] returns.
    fn book_send(
        &mut self,
        src: ProcId,
        dst: ProcId,
        payload: &Payload,
        send_time: Cycles,
    ) -> (Cycles, Option<Cycles>) {
        let kind = payload.kind();
        let sent = self.charge_send(src, dst, kind, self.wire_words(payload), send_time);
        if sent.1.is_some() {
            self.msg_counts[kind as usize] += 1;
            if kind == MessageKind::Migration {
                self.migrations += 1;
            }
        }
        sent
    }

    /// Charge the receive path of a message; returns the processor-busy
    /// overhead.
    fn charge_recv(&mut self, RecvMeta { words, kind, short }: RecvMeta) -> Cycles {
        let was = self.migration_ctx;
        self.migration_ctx = was || kind == MessageKind::Migration;
        let thread = if short {
            Cycles::ZERO
        } else {
            self.cost.thread_creation
        };
        let overhead = self.charge(cat::COPY_PACKET, self.cost.copy_packet)
            + self.charge(cat::THREAD_CREATION, thread)
            + self.charge(cat::LINKAGE_RECV, self.cost.linkage_recv)
            + self.charge(cat::UNMARSHAL, self.cost.unmarshal(words))
            + self.charge(cat::GOID_TRANSLATION, self.cost.goid_translation)
            + self.charge(cat::SCHEDULER, self.cost.scheduler)
            + self.charge(cat::FORWARDING_CHECK, self.cost.forwarding_check)
            + self.charge(cat::ALLOC_PACKET_RECV, self.cost.alloc_packet_recv);
        self.migration_ctx = was;
        overhead
    }
}

/// The machine + runtime state. Implements [`Simulation`] so a
/// [`proteus::Engine`] can drive it; most users go through [`Runner`].
pub struct System {
    cfg: MachineConfig,
    core: Core,
    coherence: CoherenceSystem,
    procs: Vec<Processor<Work>>,
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
    ops_completed: u64,
    op_latency: Histogram,
    window_start: Cycles,
    dispatch: DispatchStats,
    audit_tasks: u64,
    audit_violations: Vec<String>,
    /// Transport layer: fault injection plus the recovery protocol (`Some`
    /// exactly when `cfg.faults` is set).
    faults: Option<Faults>,
    /// Fail-stop tolerance layer (`Some` exactly when failover is enabled).
    failover: Option<Failover>,
    /// Adaptive dispatch policy (see [`crate::policy`]), built the first
    /// time an [`crate::Annotation::Auto`] dispatch consults or feeds it.
    policy: Option<PolicyEngine>,
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
            core: Core {
                cost: cfg
                    .cost_override
                    .clone()
                    .unwrap_or_else(|| cfg.scheme.cost_model()),
                net: Network::new(n, cfg.network.clone()),
                tracer: Tracer::disabled(),
                acct: DenseAccounting::default(),
                migration_acct: DenseAccounting::default(),
                migration_ctx: false,
                busy_charged: 0,
                msg_counts: [0; MessageKind::ALL.len()],
                migrations: 0,
                runtime_errors: Vec::new(),
            },
            coherence: CoherenceSystem::new(n, cfg.cache.clone(), cfg.coherence.clone()),
            procs: (0..n).map(|i| Processor::new(ProcId(i))).collect(),
            poll_pending: vec![false; n as usize],
            replica_at,
            objects: ObjectTable::new(),
            threads: Vec::new(),
            detached: Vec::new(),
            frame_pool: Vec::new(),
            rng: SplitMix64::new(cfg.seed),
            ops_completed: 0,
            op_latency: Histogram::new(100, 4096),
            window_start: Cycles::ZERO,
            dispatch: DispatchStats::default(),
            audit_tasks: 0,
            audit_violations: Vec::new(),
            faults: cfg
                .faults
                .clone()
                .map(|plan| Faults::new(plan, cfg.recovery.clone(), n)),
            failover: cfg
                .failover
                .enabled
                .then(|| Failover::new(cfg.failover.clone(), n)),
            policy: None,
            cfg,
        }
    }

    /// Attach a tracer to the whole machine: runtime dispatch decisions,
    /// network sends, processor occupancy, and coherence misses all record
    /// through (clones of) the same handle.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.core.net.set_tracer(tracer.clone());
        self.coherence.set_tracer(tracer.clone());
        for p in &mut self.procs {
            p.set_tracer(tracer.clone());
        }
        if let Some(f) = &mut self.faults {
            f.injector.set_tracer(tracer.clone());
        }
        self.core.tracer = tracer;
    }

    /// Recovery-protocol activity since the window started (all zero when
    /// fault injection is off).
    pub fn recovery_stats(&self) -> &RecoveryStats {
        self.faults
            .as_ref()
            .map_or(&*transport::NO_RECOVERY, |f| &f.stats)
    }

    /// Fault-injection decisions since the window started (`None` when fault
    /// injection is off).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.injector.stats())
    }

    /// Failure-detection and replication activity since the window started
    /// (all zero when failover is off).
    pub fn failover_stats(&self) -> &FailoverStats {
        self.failover
            .as_ref()
            .map_or(&*failover::NO_FAILOVER, |f| &f.stats)
    }

    /// Current size of the receiver-side duplicate-suppression table. The
    /// watermark prune keeps this O(in-flight window) regardless of how many
    /// envelopes a long chaos run delivers.
    pub fn dedup_table_size(&self) -> usize {
        self.faults
            .as_ref()
            .map_or(0, |f| f.window.dedup_table_size())
    }

    /// `true` if `proc` has suffered a permanent fail-stop crash.
    pub fn is_failed(&self, proc: ProcId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.failed[proc.index()])
    }

    /// `true` if the failure detector has declared `proc` dead.
    pub fn is_declared_dead(&self, proc: ProcId) -> bool {
        self.failover
            .as_ref()
            .is_some_and(|f| f.is_declared_dead(proc))
    }

    /// Per-call-site mechanism-dispatch counters for the current window.
    pub fn dispatch_stats(&self) -> &DispatchStats {
        &self.dispatch
    }

    /// Protocol errors recorded since the system was built.
    pub fn runtime_errors(&self) -> &[RuntimeError] {
        &self.core.runtime_errors
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
        self.core.migrations
    }

    /// Per-processor utilization stats.
    pub fn proc_stats(&self, p: ProcId) -> &ProcessorStats {
        self.procs[p.index()].stats()
    }

    // ------------------------------------------------------------------
    // Parked activation groups and frame-group buffer recycling
    // ------------------------------------------------------------------

    /// Put `group` back on top of `tid`'s home stack (the whole stack, while
    /// the thread's own group runs) and set the thread's status.
    fn park_home(&mut self, tid: ThreadId, mut group: Vec<Box<dyn Frame>>, status: ThreadStatus) {
        let thread = &mut self.threads[tid.index()];
        thread.status = status;
        // An empty stack takes over the group's buffer instead of
        // allocating one to append into.
        if thread.stack.is_empty() {
            std::mem::swap(&mut thread.stack, &mut group);
        } else {
            thread.stack.append(&mut group);
        }
        self.recycle_frame_vec(group);
    }

    /// Park a group awaiting an RPC reply at `proc`: at home (`away` is
    /// `None`) back on the thread's stack; away, here, with the linkage its
    /// final return short-circuits to (replacing any earlier group).
    fn park_for_reply(
        &mut self,
        proc: ProcId,
        tid: ThreadId,
        stack: Vec<Box<dyn Frame>>,
        away: Option<ProcId>,
    ) {
        let Some(reply_to) = away else {
            return self.park_home(tid, stack, ThreadStatus::WaitingReply);
        };
        let t = tid.index();
        if t >= self.detached.len() {
            self.detached
                .resize_with(self.threads.len().max(t + 1), || None);
        }
        self.detached[t] = Some(DetachedFrame {
            stack,
            at: proc,
            reply_to,
        });
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

    /// [`Core::charge`], for layers that hold all of `System`.
    #[inline]
    fn charge(&mut self, category: CategoryId, cycles: Cycles) -> Cycles {
        self.core.charge(category, cycles)
    }

    /// Charge the sender-side overhead of a message and schedule its
    /// arrival; returns the processor-busy overhead.
    ///
    /// With the transport layer present every remote message rides it
    /// (envelopes, or fire-and-forget acks under the fault plan); without
    /// it this is the bit-exact fault-free path.
    fn send_message(
        &mut self,
        src: ProcId,
        dst: ProcId,
        payload: Payload,
        send_time: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        if let Some(faults) = self.faults.as_mut().filter(|_| src != dst) {
            return faults.send(&mut self.core, src, dst, payload, send_time, queue);
        }
        let (overhead, latency) = self.core.book_send(src, dst, &payload, send_time);
        if let Some(latency) = latency {
            queue.schedule_at(
                send_time + overhead + latency,
                Event::Arrive(dst, Message { src, payload }),
            );
        }
        overhead
    }

    fn ensure_poll(&mut self, proc: ProcId, now: Cycles, queue: &mut EventQueue<Event>) {
        if self.poll_pending[proc.index()] || self.is_failed(proc) {
            return;
        }
        self.poll_pending[proc.index()] = true;
        let at = self.procs[proc.index()].busy_until().max(now);
        queue.schedule_at(at, Event::Poll(proc));
    }

    /// Queue `task` at `proc` and make sure a poll will serve it.
    fn enqueue(&mut self, proc: ProcId, task: Work, now: Cycles, queue: &mut EventQueue<Event>) {
        self.procs[proc.index()].enqueue(task);
        self.ensure_poll(proc, now, queue);
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
            Event::Arrive(dest, Message { src, payload }) => {
                // A destination mid crash-restart loses fire-and-forget
                // traffic (acks) arriving now. Envelope traffic never takes
                // this path, and self-addressed retries are local, not wire
                // traffic.
                let detail = || format!("src={} (destination crashed)", src.index());
                let tracer = &self.core.tracer;
                if src != dest
                    && self
                        .faults
                        .as_mut()
                        .is_some_and(|f| f.swallows(tracer, now, dest, detail))
                {
                    return;
                }
                self.enqueue(
                    dest,
                    Work::Message {
                        src,
                        payload,
                        seq: None,
                    },
                    now,
                    queue,
                );
            }
            Event::ArriveSeq {
                dst,
                src,
                seq,
                meta,
            } => self.on_arrive_seq(now, dst, src, seq, meta, queue),
            Event::Timeout(seq) => self.on_timeout(now, seq, queue),
            Event::Disrupt {
                proc,
                duration,
                crash,
            } => self.on_disrupt(now, proc, duration, crash, queue),
            Event::Kill(victim) => self.kill_processor(now, victim),
            Event::HeartbeatTick => self.heartbeat_tick(now, queue),
            Event::Wake(tid) => {
                // A pending Wake must not resurrect a thread that finished —
                // or was terminated by the protocol-error path — meanwhile.
                if self.threads[tid.index()].status == ThreadStatus::Done {
                    return;
                }
                let home = self.threads[tid.index()].home;
                self.threads[tid.index()].status = ThreadStatus::Active;
                self.enqueue(home, Work::Step(tid), now, queue);
            }
            Event::Poll(proc) => {
                self.poll_pending[proc.index()] = false;
                if let Some(task) = self.procs[proc.index()].take_ready(now) {
                    let charged_before = self.core.busy_charged;
                    let dur = self.execute(now, proc, task, queue);
                    if self.cfg.audit {
                        // Every busy cycle of this task must have been
                        // charged to exactly one accounting category.
                        let attributed = self.core.busy_charged - charged_before;
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
