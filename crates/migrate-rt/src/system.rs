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

use proteus::coherence::MAX_PROCESSORS;
use proteus::engine::{Engine, Simulation};
use proteus::event::{EventQueue, QueueCounters};
use proteus::fault::FaultPlan;
use proteus::rng::SplitMix64;
use proteus::stats::Histogram;
use proteus::trace::{TraceEvent, Tracer};
use proteus::{
    CacheConfig, CoherenceCosts, CoherenceSystem, Cycles, DirectoryAllocations, Network, ProcId,
    Processor,
};

use crate::cost::{Accounting, Category, CostModel};
use crate::error::{ConfigError, RuntimeError};
use crate::frame::Frame;
use crate::mechanism::{DispatchStats, Scheme};
use crate::message::{MessageKind, Payload};
use crate::object::{Behavior, ObjectTable};
use crate::policy::PolicyEngine;
use crate::types::{Goid, ThreadId};

mod dispatch;
mod env;
mod failover;
mod metrics;
#[cfg(test)]
mod tests;
mod transport;

pub use failover::{FailoverStats, DETECTION_LATENCY_BOUND};
pub use metrics::{AuditSummary, ProcWindowStats, RunMetrics};
pub use transport::{RecoveryStats, MAX_MIGRATION_ATTEMPTS};

use failover::Failover;
use transport::Faults;

/// Full machine + scheme configuration for one experiment run.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processors.
    pub processors: u32,
    /// The remote-access scheme (one table row).
    pub scheme: Scheme,
    /// The coherence protocol's contention costs (ablation studies).
    pub coherence: CoherenceCosts,
    /// Seed for all runtime-internal randomness (object placement).
    pub seed: u64,
    /// Processors eligible to receive objects created with `home = None`
    /// (e.g. nodes allocated by B-tree splits).
    pub data_procs: Vec<ProcId>,
    /// Processors holding software replicas of replicated objects.
    pub replica_procs: Vec<ProcId>,
    /// Override the scheme-derived cost model (ablation studies): its two
    /// hardware-support flags and two RPC calibration values. Every other
    /// runtime cost is a constant of [`crate::cost`].
    pub cost_override: Option<CostModel>,
    /// Cycle-accounting audit mode: cross-check, for every executed task,
    /// that the processor-busy duration equals the cycles charged to busy
    /// accounting categories, and at metrics extraction that the grand
    /// total is the sum over [`Category::ALL`] and the migration accounting
    /// is a sub-accounting of the full one. Costs nothing when off; when
    /// on, [`System::metrics`] panics on any discrepancy.
    pub audit: bool,
    /// Deterministic fault injection (`None` = fail-free, the default).
    /// When set, every remote runtime message travels in a sequence-numbered
    /// envelope under the ack/timeout/retry recovery protocol, and the plan
    /// decides which messages are dropped, duplicated, delayed, or trigger
    /// receiver stalls/crash-restarts. The fault-free path is untouched:
    /// with `None` the runtime's behaviour is bit-identical to a build
    /// without this feature.
    pub faults: Option<FaultPlan>,
    /// Fail-stop tolerance layer: heartbeat failure detection plus
    /// primary-backup object replication. Off by default; when off, the
    /// runtime's behaviour is bit-identical to a build without the feature
    /// (no probes, no deltas, no extra state consulted on the hot path).
    /// When on, the machine needs a fault plan ([`MachineConfig::validate`]).
    pub failover: FailoverConfig,
}

/// Configuration of the fail-stop tolerance layer: a heartbeat-based failure
/// detector plus primary-backup replication of object state.
///
/// The detector is a ring: each live processor periodically probes its
/// successor (skipping processors already declared dead) with a
/// [`Payload::Heartbeat`] envelope. The probe rides the same sequence-
/// numbered ack/retry machinery as every other message, so "no ack after a
/// fixed number of sends" is the suspicion rule — deterministic, and safe
/// against queueing delay because the retransmission timeouts are far above
/// one service round-trip. A permanent crash is declared within
/// [`DETECTION_LATENCY_BOUND`] cycles. Exactly one processor (the ring
/// predecessor) probes each node, so a permanent crash produces exactly one
/// suspicion and one promotion.
///
/// Replication: every object gets a deterministic backup home (the next
/// live processor after its primary, mod machine size). Mutating methods at
/// the primary ship a sequence-numbered [`Payload::BackupDelta`] to the
/// backup, charged to `replication.*` categories. On declared death the
/// backup already holds the state: the directory re-homes the victim's
/// objects to their backups and in-flight traffic is rerouted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Master switch. When `false` the layer does not exist.
    pub enabled: bool,
}

impl MachineConfig {
    /// A machine of `processors` nodes running `scheme`, with paper-default
    /// constants everywhere else.
    pub fn new(processors: u32, scheme: Scheme) -> MachineConfig {
        MachineConfig {
            processors,
            scheme,
            coherence: CoherenceCosts::default(),
            seed: 0x5EED,
            data_procs: Vec::new(),
            replica_procs: Vec::new(),
            cost_override: None,
            audit: false,
            faults: None,
            failover: FailoverConfig::default(),
        }
    }

    /// Check that the machine can be modelled: it has at least one and at
    /// most [`MAX_PROCESSORS`] processors, every processor the
    /// configuration names (data and replica processors, the fault plan's
    /// kill victim) is inside it, and failover has the fault plan its
    /// probes ride. [`System::new`] panics with the error's message.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let processors = self.processors;
        if processors == 0 {
            return Err(ConfigError::NoProcessors);
        }
        if processors > MAX_PROCESSORS {
            return Err(ConfigError::TooManyProcessors { processors });
        }
        let outside = |p: &ProcId| p.0 >= processors;
        if let Some(&proc) = self.data_procs.iter().find(|p| outside(p)) {
            return Err(ConfigError::DataProcOutside { proc, processors });
        }
        if let Some(&proc) = self.replica_procs.iter().find(|p| outside(p)) {
            return Err(ConfigError::ReplicaProcOutside { proc, processors });
        }
        if let Some((proc, _)) = self.faults.as_ref().and_then(|f| f.kill) {
            if outside(&proc) {
                return Err(ConfigError::KillVictimOutside { proc, processors });
            }
        }
        if self.failover.enabled && self.faults.is_none() {
            return Err(ConfigError::FailoverWithoutFaultPlan);
        }
        Ok(())
    }
}

/// Simulation events.
pub enum Event {
    /// A runtime message arrives at a processor. Its kind is its payload's,
    /// so only the wire words its sender sized travel beside it.
    Arrive {
        /// Receiving processor.
        dst: ProcId,
        /// Sending processor.
        src: ProcId,
        /// Wire words, as sized at send.
        words: u64,
        /// The payload.
        payload: Payload,
    },
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
    /// Deliver one copy of a runtime message: charge the receive path
    /// `meta` describes, acknowledge envelope `seq` back to `src` if the
    /// copy came in one, then act on the payload. A `None` payload is a
    /// suppressed duplicate of an envelope already delivered.
    Deliver {
        src: ProcId,
        meta: RecvMeta,
        seq: Option<u64>,
        payload: Option<Payload>,
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
    /// Running or runnable, in think time, waiting for an RPC reply, or
    /// waiting for a migrated group's short-circuited return: nothing reads
    /// which.
    Live,
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
    /// The thread's activation group parked away from home awaiting an RPC
    /// reply, if any.
    parked: Option<ParkedGroup>,
    /// An emptied group buffer: a migration from home travels in it, and it
    /// comes back here where the group empties (host memory only).
    spare: Vec<Box<dyn Frame>>,
}

/// An activation group about to resume: the frames below the top, the top
/// frame, and where it runs — `None` for the thread's own stack at home,
/// else the processor a migrated group's final return short-circuits to.
type ResumingGroup = (Vec<Box<dyn Frame>>, Box<dyn Frame>, Option<ProcId>);

/// A migrated activation group parked at `at` until an RPC reply arrives.
struct ParkedGroup {
    /// The migrated activation group, bottom first (one frame in the
    /// paper's prototype; several under multiple-activation migration).
    stack: Vec<Box<dyn Frame>>,
    at: ProcId,
    reply_to: ProcId,
}

/// A message's kind and wire words: what booking its send and charging
/// its receive path need. The sender makes it once, from the payload, and
/// every copy of the message carries it to its delivery: the arrival event
/// of an envelope (whose payload stays in the sender's retransmission
/// buffer), the delivery task, and the buffer entry itself.
#[derive(Copy, Clone, Debug)]
pub struct RecvMeta {
    /// Wire words.
    words: u64,
    /// Payload kind.
    kind: MessageKind,
}

/// The always-on charging state every layer books into. [`System`] lends
/// it to a layer as a plain field, so a layer call borrows `core` beside
/// its own state instead of all of `System`.
struct Core {
    cost: CostModel,
    net: Network,
    tracer: Tracer,
    acct: Accounting,
    migration_acct: Accounting,
    migration_ctx: bool,
    /// Monotone count of cycles charged to busy (non-transit) categories;
    /// the audit compares per-task deltas of this against execute()'s
    /// returned busy duration, so window resets don't disturb it.
    busy_charged: u64,
    /// Messages sent in the window, indexed by `MessageKind as usize`.
    msg_counts: [u64; MessageKind::ALL.len()],
    migrations: u64,
    /// The first [`MAX_ERROR_DETAILS`] protocol errors, in full.
    runtime_errors: Vec<RuntimeError>,
    /// Every protocol error ever recorded, counted by variant: indexed like
    /// `RuntimeError::CODES`.
    error_counts: [u64; RuntimeError::CODES.len()],
}

/// Protocol errors kept in full; later ones are only counted, so a
/// malformed-message storm cannot grow memory without bound.
const MAX_ERROR_DETAILS: usize = 1024;

impl Core {
    /// Charge `cycles` to `category`; returns `cycles`, so a caller adds
    /// what it charged to its busy accumulator in the same expression.
    #[inline]
    fn charge(&mut self, category: Category, cycles: Cycles) -> Cycles {
        self.acct.charge(category, cycles);
        if self.migration_ctx {
            self.migration_acct.charge(category, cycles);
        }
        // Network transit is wire time, not processor time; every other
        // category must show up in some task's busy duration (audited per
        // task in the Poll handler).
        if category != Category::NetworkTransit {
            self.busy_charged += cycles.get();
        }
        cycles
    }

    #[inline]
    fn charge_user(&mut self, cycles: Cycles) -> Cycles {
        self.charge(Category::UserCode, cycles)
    }

    /// Record a protocol error instead of aborting the simulation: the
    /// offending task is dropped after its already-charged busy time, the
    /// error is counted for [`RunMetrics`], and the first
    /// [`MAX_ERROR_DETAILS`] are kept for [`System::runtime_errors`].
    fn record_error(&mut self, now: Cycles, error: RuntimeError) {
        self.tracer.emit_with(|| TraceEvent {
            at: now,
            source: "runtime",
            kind: "error",
            proc: None,
            detail: error.to_string(),
        });
        self.error_counts[error.index()] += 1;
        if self.runtime_errors.len() < MAX_ERROR_DETAILS {
            self.runtime_errors.push(error);
        }
    }

    /// The one sizing of `payload`: its kind and wire words. General-purpose
    /// RPC stubs marshal a larger record than the compact generated
    /// migration messages (§4.3).
    #[inline]
    fn recv_meta(&self, payload: &Payload) -> RecvMeta {
        let kind = payload.kind();
        let extra = match kind {
            MessageKind::RpcRequest | MessageKind::RpcReply => self.cost.rpc_stub_words,
            _ => 0,
        };
        RecvMeta {
            words: payload.words() + extra,
            kind,
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
        RecvMeta { words, kind }: RecvMeta,
        send_time: Cycles,
    ) -> (Cycles, Option<Cycles>) {
        let was_migration_ctx = self.migration_ctx;
        // Charges for a migration *message* always count toward Table 5,
        // wherever they happen.
        self.migration_ctx = was_migration_ctx || kind == MessageKind::Migration;
        let mut overhead = Cycles::ZERO;
        for (category, cycles) in self.cost.send_charges(words) {
            overhead += self.charge(category, cycles);
        }
        let latency = match self.net.send_at(send_time, src, dst, words) {
            Ok(l) => l,
            Err(_) => {
                self.migration_ctx = was_migration_ctx;
                self.record_error(send_time, RuntimeError::NetworkRejected { src, dst });
                return (overhead, None);
            }
        };
        self.charge(Category::NetworkTransit, latency);
        self.migration_ctx = was_migration_ctx;
        (overhead, Some(latency))
    }

    /// Booking prologue of every first send: charge the sender side of the
    /// message `meta` describes and, when the network took it, count the
    /// message (and the migration it performs). Returns what
    /// [`Core::charge_send`] returns.
    fn book_send(
        &mut self,
        src: ProcId,
        dst: ProcId,
        meta: RecvMeta,
        send_time: Cycles,
    ) -> (Cycles, Option<Cycles>) {
        let sent = self.charge_send(src, dst, meta, send_time);
        if sent.1.is_some() {
            self.msg_counts[meta.kind as usize] += 1;
            if meta.kind == MessageKind::Migration {
                self.migrations += 1;
            }
        }
        sent
    }

    /// Charge the receive path of a message; returns the processor-busy
    /// overhead.
    fn charge_recv(&mut self, RecvMeta { words, kind }: RecvMeta) -> Cycles {
        let was = self.migration_ctx;
        self.migration_ctx = was || kind == MessageKind::Migration;
        let mut overhead = Cycles::ZERO;
        for (category, cycles) in self.cost.receive_charges(words, !kind.creates_thread()) {
            overhead += self.charge(category, cycles);
        }
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
    /// Build a machine from a configuration. Panics with the message of
    /// [`MachineConfig::validate`]'s error if the machine cannot be modelled.
    pub fn new(cfg: MachineConfig) -> System {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let n = cfg.processors;
        let cache = CacheConfig::default();
        let mut replica_at = vec![false; n as usize];
        for p in &cfg.replica_procs {
            replica_at[p.index()] = true;
        }
        System {
            core: Core {
                cost: cfg.cost_override.unwrap_or_else(|| cfg.scheme.cost_model()),
                net: Network::new(n),
                tracer: Tracer::disabled(),
                acct: Accounting::default(),
                migration_acct: Accounting::default(),
                migration_ctx: false,
                busy_charged: 0,
                msg_counts: [0; MessageKind::ALL.len()],
                migrations: 0,
                runtime_errors: Vec::new(),
                error_counts: [0; RuntimeError::CODES.len()],
            },
            objects: ObjectTable::new(n, cache.line_bytes),
            coherence: CoherenceSystem::new(n, cache, cfg.coherence),
            procs: (0..n).map(|i| Processor::new(ProcId(i))).collect(),
            poll_pending: vec![false; n as usize],
            replica_at,
            threads: Vec::new(),
            rng: SplitMix64::new(cfg.seed),
            ops_completed: 0,
            op_latency: Histogram::new(100, 4096),
            window_start: Cycles::ZERO,
            dispatch: DispatchStats::default(),
            audit_tasks: 0,
            audit_violations: Vec::new(),
            faults: cfg.faults.clone().map(|plan| Faults::new(plan, n)),
            failover: cfg.failover.enabled.then(|| Failover::new(n)),
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

    /// The protocol errors recorded since the system was built, in full.
    /// The list is capped; [`RunMetrics::runtime_errors`] counts them all.
    pub fn runtime_errors(&self) -> &[RuntimeError] {
        &self.core.runtime_errors
    }

    /// The object table (for application setup and post-run verification).
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// Make room in the object table for `additional` more objects, for
    /// set-up code that knows how many it is about to create.
    pub fn reserve_objects(&mut self, additional: usize) {
        self.objects.reserve(additional);
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
            status: ThreadStatus::Live,
            op_started: None,
            auto_site: None,
            auto_remote: 0,
            parked: None,
            spare: Vec::new(),
        });
        tid
    }

    // ------------------------------------------------------------------
    // Parked activation groups
    // ------------------------------------------------------------------

    /// Put `group` back on top of `tid`'s home stack (the whole stack, while
    /// the thread's own group runs); the thread is live. An empty stack
    /// takes over the group's buffer; otherwise the group is a migrated one
    /// coming home, and its emptied buffer becomes the thread's spare.
    fn park_home(&mut self, tid: ThreadId, mut group: Vec<Box<dyn Frame>>) {
        let thread = &mut self.threads[tid.index()];
        thread.status = ThreadStatus::Live;
        if thread.stack.is_empty() {
            thread.stack = group;
        } else {
            thread.stack.append(&mut group);
            thread.spare = group;
        }
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
            return self.park_home(tid, stack);
        };
        self.threads[tid.index()].parked = Some(ParkedGroup {
            stack,
            at: proc,
            reply_to,
        });
    }

    /// [`Core::charge`], for layers that hold all of `System`.
    #[inline]
    fn charge(&mut self, category: Category, cycles: Cycles) -> Cycles {
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
        let meta = self.core.recv_meta(&payload);
        if let Some(faults) = self.faults.as_mut().filter(|_| src != dst) {
            return faults.send(&mut self.core, src, dst, meta, payload, send_time, queue);
        }
        let (overhead, latency) = self.core.book_send(src, dst, meta, send_time);
        if let Some(latency) = latency {
            let arrival = Event::Arrive {
                dst,
                src,
                words: meta.words,
                payload,
            };
            queue.schedule_at(send_time + overhead + latency, arrival);
        }
        overhead
    }

    /// One copy of a message from `src` lands at `dst`: a plain message
    /// with its `payload`, or a copy of envelope `seq`, whose payload the
    /// sender's retransmission buffer holds. A destination mid
    /// crash-restart loses the copy (an envelope's sender will retransmit
    /// it); a self-addressed plain message is a local hand-off, not wire
    /// traffic, and cannot be lost. Otherwise queue its delivery: an
    /// envelope copy takes the buffered payload if no copy was delivered
    /// before it, and is a suppressed duplicate if one was.
    #[allow(clippy::too_many_arguments)]
    fn arrive(
        &mut self,
        now: Cycles,
        dst: ProcId,
        src: ProcId,
        meta: RecvMeta,
        seq: Option<u64>,
        mut payload: Option<Payload>,
        queue: &mut EventQueue<Event>,
    ) {
        if let Some(faults) = self.faults.as_mut().filter(|_| seq.is_some() || src != dst) {
            let detail = || format!("src={} seq={seq:?} (destination crashed)", src.index());
            if faults.swallows(&self.core.tracer, now, dst, detail) {
                return;
            }
            if let Some(seq) = seq {
                payload = faults.window.deliver(seq);
            }
        }
        let work = Work::Deliver {
            src,
            meta,
            seq,
            payload,
        };
        self.enqueue(dst, work, now, queue);
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
            Event::Arrive { .. } => "arrive",
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
            Event::Arrive {
                dst,
                src,
                words,
                payload,
            } => {
                let meta = RecvMeta {
                    words,
                    kind: payload.kind(),
                };
                self.arrive(now, dst, src, meta, None, Some(payload), queue);
            }
            Event::ArriveSeq {
                dst,
                src,
                seq,
                meta,
            } => self.arrive(now, dst, src, meta, Some(seq), None, queue),
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
                self.threads[tid.index()].status = ThreadStatus::Live;
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
    /// Where the event queue put the run's schedules beyond its fine
    /// wheel, and how many moved back into it, warm-up included.
    pub queue: QueueCounters,
    /// Coherence directory pages, P64–P127 side arrays and high-time side
    /// arrays allocated since the machine was built, warm-up included (zero
    /// when the run makes no shared-memory access).
    pub directory: DirectoryAllocations,
}

impl Runner {
    /// Build a runner for a configuration. A permanent-crash fault
    /// ([`FaultPlan::kill`]) and the failure detector's probe tick are
    /// scheduled here, before the first event runs; with neither configured
    /// the event stream is untouched. Panics like [`System::new`] on a
    /// machine that cannot be modelled.
    pub fn new(cfg: MachineConfig) -> Runner {
        let mut engine: Engine<System> = Engine::new();
        if let Some((victim, at)) = cfg.faults.as_ref().and_then(|f| f.kill) {
            engine.queue_mut().schedule_at(at, Event::Kill(victim));
        }
        if cfg.failover.enabled {
            engine
                .queue_mut()
                .schedule_at(failover::HEARTBEAT_INTERVAL, Event::HeartbeatTick);
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
            events += self.engine.run_until(&mut self.system, start + warmup);
        }
        self.system.reset_window(start + warmup);
        let end = start + warmup + window;
        events += self.engine.run_until(&mut self.system, end);
        let profile = EngineProfile {
            events,
            peak_queue_depth: self.engine.peak_queue_depth(),
            queue: self.engine.queue_counters(),
            directory: self.system.coherence.allocations(),
        };
        (self.system.metrics(end), profile)
    }
}
