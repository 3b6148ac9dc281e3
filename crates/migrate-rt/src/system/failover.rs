//! Fail-stop tolerance layer: the ring heartbeat detector, primary-backup
//! replication deltas, declaring a processor dead, re-homing its objects
//! and rerouting in-flight envelopes away from it. It exists exactly when
//! [`super::FailoverConfig::enabled`] is set, and rides the transport
//! layer: probes are acked envelopes, so a machine with failover also has a
//! fault plan ([`FaultPlan::disabled`](proteus::FaultPlan::disabled) when it
//! injects nothing).
//!
//! Permanent processor loss itself ([`super::Event::Kill`], from a fault
//! plan) also lives here: it hands queued deliveries back to the senders'
//! retransmission buffers and terminates the threads that died.

use std::sync::LazyLock;

use proteus::event::EventQueue;
use proteus::trace::TraceEvent;
use proteus::{Cycles, ProcId};

use super::transport::rto;
use super::{Event, System, ThreadStatus, Work};
use crate::cost::{self, Category};
use crate::error::RuntimeError;
use crate::message::{MessageKind, Payload};
use crate::types::{Goid, ThreadId};

/// Counters of failure-detection and replication activity in a window (only
/// collected when [`super::MachineConfig::failover`] is enabled).
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

/// Period of the ring heartbeat probe.
pub(super) const HEARTBEAT_INTERVAL: Cycles = Cycles(50_000);

/// Send attempts a heartbeat envelope gets before its prober declares the
/// destination dead (the suspicion threshold).
pub(super) const MAX_HEARTBEAT_ATTEMPTS: u32 = 3;

/// Longest time from a permanent crash to its declaration, derived from
/// the detector's constants: the victim's ring predecessor sends its next
/// probe at most one heartbeat interval after the crash, and declares the
/// victim dead when that probe's last retransmission timeout expires
/// unacknowledged. Not counted: the few cycles the prober spends queueing
/// for and running the probe and the timeout handler.
pub const DETECTION_LATENCY_BOUND: Cycles = {
    let mut bound = HEARTBEAT_INTERVAL.0;
    let mut attempt = 1;
    while attempt <= MAX_HEARTBEAT_ATTEMPTS {
        bound += rto(attempt).0;
        attempt += 1;
    }
    Cycles(bound)
};

/// What [`System::failover_stats`] reports with failover off.
pub(super) static NO_FAILOVER: LazyLock<FailoverStats> = LazyLock::new(FailoverStats::default);

/// The failover layer's state.
pub(super) struct Failover {
    /// Processors the failure detector has declared dead: dead protocol
    /// state. Lags the hardware failure by the detection latency.
    declared_dead: Vec<bool>,
    /// Per-object replication delta sequence numbers (primary side),
    /// indexed by goid; grown on demand.
    delta_seqs: Vec<u64>,
    pub(super) stats: FailoverStats,
}

impl Failover {
    pub(super) fn new(processors: u32) -> Failover {
        Failover {
            declared_dead: vec![false; processors as usize],
            delta_seqs: Vec::new(),
            stats: FailoverStats::default(),
        }
    }

    pub(super) fn is_declared_dead(&self, proc: ProcId) -> bool {
        self.declared_dead[proc.index()]
    }

    /// The next processor after `p` in ring order that is not declared
    /// dead, or `p` itself when there is none. It is both the processor `p`
    /// probes and the deterministic backup of objects homed at `p` (with
    /// one processor there is no backup: `ring_successor(p) == p`).
    fn ring_successor(&self, p: ProcId) -> ProcId {
        let n = self.declared_dead.len();
        let mut b = (p.index() + 1) % n;
        while b != p.index() && self.declared_dead[b] {
            b = (b + 1) % n;
        }
        ProcId(b as u32)
    }

    /// The processor live processor `p` probes, if any: its ring successor
    /// (`None` when `p` is declared dead or has no live successor).
    fn probe_target(&self, p: ProcId) -> Option<ProcId> {
        let to = self.ring_successor(p);
        (!self.is_declared_dead(p) && to != p).then_some(to)
    }
}

impl System {
    /// Ship a sequence-numbered state delta for `target` from the executing
    /// processor to the backup of the object's home. Returns the busy cycles
    /// (charged to `replication.*`); zero without failover.
    pub(super) fn ship_backup_delta(
        &mut self,
        proc: ProcId,
        home: ProcId,
        target: Goid,
        wrote_bytes: u64,
        send_time: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let objects = self.objects.len();
        let Some(failover) = &mut self.failover else {
            return Cycles::ZERO;
        };
        let backup = failover.ring_successor(home);
        // A single-processor machine has nowhere to back up; when the
        // executor is the backup the delta applies locally, free.
        if backup == home || backup == proc {
            return Cycles::ZERO;
        }
        let g = target.0 as usize;
        if g >= failover.delta_seqs.len() {
            failover.delta_seqs.resize(objects.max(g + 1), 0);
        }
        failover.delta_seqs[g] += 1;
        let delta_seq = failover.delta_seqs[g];
        let words = wrote_bytes.div_ceil(8).max(1);
        failover.stats.replication_deltas += 1;
        failover.stats.replication_words += words;
        let cost = self.charge(Category::ReplicationDeltaSend, cost::DELTA_SEND);
        let payload = Payload::BackupDelta {
            target,
            delta_seq,
            words,
        };
        cost + self.send_message(proc, backup, payload, send_time, queue)
    }

    /// Ring detector tick: every live processor probes its ring successor
    /// (skipping the declared dead, so a dead node's predecessor adopts the
    /// probe responsibility for the node after it).
    pub(super) fn heartbeat_tick(&mut self, now: Cycles, queue: &mut EventQueue<Event>) {
        if self.failover.is_none() {
            return;
        }
        for p in (0..self.procs.len()).map(|p| ProcId(p as u32)) {
            let to = self.failover.as_ref().and_then(|f| f.probe_target(p));
            if let Some(to) = to.filter(|_| !self.is_failed(p)) {
                self.enqueue(p, Work::HeartbeatProbe { to }, now, queue);
            }
        }
        queue.schedule_at(now + HEARTBEAT_INTERVAL, Event::HeartbeatTick);
    }

    /// Send one heartbeat probe from `proc` to `to`; returns the task's busy
    /// cycles.
    pub(super) fn probe(
        &mut self,
        now: Cycles,
        proc: ProcId,
        to: ProcId,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        if self.is_failed(proc) {
            return Cycles::ZERO; // the prober died since the tick fanned out
        }
        let Some(failover) = &mut self.failover else {
            return Cycles::ZERO;
        };
        if failover.is_declared_dead(to) {
            return Cycles::ZERO; // nothing left to probe
        }
        failover.stats.heartbeats_sent += 1;
        let acc = self.charge(Category::RecoveryHeartbeat, cost::HEARTBEAT_PROBE);
        acc + self.send_message(proc, to, Payload::Heartbeat, now + acc, queue)
    }

    /// Declare `victim` dead (heartbeat suspicion threshold reached at the
    /// ring predecessor `proc`): promote its backup, re-home every object it
    /// was primary for, and let in-flight traffic reroute on its next
    /// timeout. All charges land in the detecting task's busy window.
    pub(super) fn declare_dead(
        &mut self,
        victim: ProcId,
        now: Cycles,
        proc: ProcId,
        acc: Cycles,
    ) -> Cycles {
        let Some(failover) = &mut self.failover else {
            return acc;
        };
        if failover.is_declared_dead(victim) {
            return acc;
        }
        failover.declared_dead[victim.index()] = true;
        // Promotion: the backup already holds the replicated state; flip
        // the directory. The backup is computed once — every object homed
        // at the victim shares the same ring successor.
        let backup = failover.ring_successor(victim);
        let dead_objects: Vec<Goid> = self
            .objects
            .goids()
            .filter(|g| self.objects.home(*g) == victim)
            .collect();
        failover.stats.suspicions += 1;
        failover.stats.promotions += 1;
        failover.stats.rehomed_objects += dead_objects.len() as u64;
        let rehomed_total = failover.stats.rehomed_objects;
        let mut acc = acc + self.charge(Category::RecoverySuspicion, cost::SUSPICION);
        self.core.tracer.emit_with(|| TraceEvent {
            at: now + acc,
            source: "runtime",
            kind: "suspect",
            proc: Some(proc),
            detail: format!("declared {} dead (heartbeat silence)", victim.index()),
        });
        acc += self.charge(Category::RecoveryPromotion, cost::PROMOTION);
        for g in dead_objects {
            self.objects.rehome(g, backup);
            acc += self.charge(Category::RecoveryRehome, cost::REHOME_PER_OBJECT);
        }
        self.core.tracer.emit_with(|| TraceEvent {
            at: now + acc,
            source: "runtime",
            kind: "promote",
            proc: Some(backup),
            detail: format!(
                "backup of {} promoted; {rehomed_total} object(s) re-homed",
                victim.index()
            ),
        });
        acc
    }

    /// Where a payload bound for a declared-dead processor goes instead:
    /// calls follow the object (the directory already points at the
    /// promoted backup), replies follow the caller, deltas go to the home's
    /// new backup. `None`: nothing to redirect.
    fn reroute_target(&self, payload: &Payload) -> Option<ProcId> {
        match payload {
            // A probe to a declared-dead processor has served its purpose.
            Payload::Heartbeat | Payload::ReplicaUpdate { .. } | Payload::Ack { .. } => None,
            Payload::RpcRequest { invoke, .. }
            | Payload::Migration { invoke, .. }
            | Payload::ThreadMove { invoke, .. } => Some(self.objects.home(invoke.target)),
            Payload::ObjectPull { target, .. } | Payload::ObjectMove { target, .. } => {
                Some(self.objects.home(*target))
            }
            // A parked detached group, or the thread's home.
            Payload::RpcReply { thread, .. } => {
                let thread = &self.threads[thread.index()];
                Some(thread.parked.as_ref().map_or(thread.home, |g| g.at))
            }
            Payload::OperationReturn { thread, .. } => Some(self.threads[thread.index()].home),
            // The backup died: re-replicate to the home's new backup.
            Payload::BackupDelta { target, .. } => {
                let home = self.objects.home(*target);
                self.failover.as_ref().map(|f| f.ring_successor(home))
            }
        }
    }

    /// Reroute (or retire) unacked envelope `seq` whose destination has been
    /// declared dead: pick a live destination by payload kind and relaunch;
    /// envelopes with no live destination are dropped with
    /// [`RuntimeError::UnroutableToDead`].
    pub(super) fn reroute(
        &mut self,
        seq: u64,
        now: Cycles,
        acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let entry = self
            .faults
            .as_ref()
            .and_then(|f| f.window.get(seq))
            .expect("reroute on unknown envelope");
        let (dst, kind) = (entry.dst, entry.meta.kind);
        debug_assert!(self.is_declared_dead(dst));
        // A tombstone (no payload) was delivered and executed before the
        // death; only the ack was lost, so the work is done.
        let new_dst = entry
            .payload
            .as_ref()
            .and_then(|p| self.reroute_target(p))
            .filter(|&d| !self.is_declared_dead(d) && d != dst);
        if let Some(to) = new_dst {
            if let Some(failover) = &mut self.failover {
                failover.stats.rerouted_calls += 1;
            }
            let acc = acc + self.charge(Category::RecoveryReroute, cost::REROUTE);
            return acc + self.redirect(seq, to, now + acc, queue);
        }
        // No live destination (or the work already happened): retire the
        // envelope so the watermark can advance.
        let retired = self
            .transport()
            .window
            .retire(seq)
            .expect("entry checked above");
        if retired.payload.is_some() && kind != MessageKind::Heartbeat {
            self.core
                .record_error(now + acc, RuntimeError::UnroutableToDead { dst, seq });
        }
        if let Some(Payload::Migration { frames, .. } | Payload::ThreadMove { frames, .. }) =
            retired.payload
        {
            if let Some(failover) = &mut self.failover {
                failover.stats.frames_lost += frames.len() as u64;
            }
        }
        acc
    }

    /// A permanent fail-stop crash lands at `victim`: mark the hardware
    /// dead, surrender its queued work back to the senders' retransmission
    /// buffers, and terminate the threads that died with it. Nothing is
    /// charged — death is not protocol work; detection and recovery (which
    /// are) happen later in live processors' task windows. Only a fault
    /// plan schedules kills; without the transport layer this is a no-op.
    pub(super) fn kill_processor(&mut self, now: Cycles, victim: ProcId) {
        let v = victim.index();
        let Some(faults) = &mut self.faults else {
            return;
        };
        if faults.failed[v] {
            return;
        }
        faults.failed[v] = true;
        // A permanent crash is a restart window that never closes: the
        // existing crash-horizon checks swallow every later arrival.
        faults.crashed_until[v] = Cycles(u64::MAX);
        self.core.tracer.emit_with(|| TraceEvent {
            at: now,
            source: "runtime",
            kind: "kill",
            proc: Some(victim),
            detail: "permanent fail-stop crash".to_string(),
        });
        // Queued envelope deliveries die un-executed, but the senders still
        // hold them unacknowledged: put each payload back in its buffer
        // entry, so the next timeout redelivers — and, once the death is
        // declared, reroutes. Locally generated work and duplicate
        // suppressions die with the node.
        for task in self.procs[v].drain() {
            if let Work::Deliver {
                seq: Some(seq),
                payload: Some(payload),
                ..
            } = task
            {
                faults.window.undeliver(seq, payload);
            }
        }
        let (mut threads_lost, mut frames_lost) = (0, 0);
        for (t, thread) in self.threads.iter_mut().enumerate() {
            // A thread homed at the dead processor dies with it and loses
            // its home frames — unless it is Moving: its entire state is in
            // flight, and a ThreadMove rehomes wherever it (re)lands.
            let mut lost = thread.home == victim
                && !matches!(thread.status, ThreadStatus::Moving | ThreadStatus::Done);
            if lost {
                frames_lost += std::mem::take(&mut thread.stack).len() as u64;
            }
            // A group parked at the victim is destroyed: its thread can
            // never receive the short-circuited return.
            if let Some(group) = thread.parked.take_if(|g| g.at == victim) {
                let n = group.stack.len() as u64;
                frames_lost += n;
                lost |= thread.status != ThreadStatus::Done;
                let error = RuntimeError::FrameReclaimed {
                    thread: ThreadId(t as u32),
                    at: victim,
                    frames: n,
                };
                self.core.record_error(now, error);
            }
            if lost {
                thread.status = ThreadStatus::Done;
                threads_lost += 1;
            }
        }
        if let Some(failover) = &mut self.failover {
            failover.stats.threads_lost += threads_lost;
            failover.stats.frames_lost += frames_lost;
        }
    }
}

#[cfg(test)]
mod tests {
    use proteus::event::EventQueue;
    use proteus::{Cycles, FaultPlan, ProcId};

    use super::super::transport::InFlight;
    use super::super::{FailoverConfig, MachineConfig, RecvMeta, System, ThreadStatus, Work};
    use crate::error::RuntimeError;
    use crate::frame::{Frame, Invoke, StepCtx, StepResult};
    use crate::mechanism::{Annotation, Scheme};
    use crate::message::Payload;
    use crate::types::{Goid, MethodId, ThreadId, Word};

    struct Parked;

    impl Frame for Parked {
        fn step(&mut self, _ctx: &StepCtx) -> StepResult {
            StepResult::Halt
        }
        fn on_result(&mut self, _results: &[Word]) {}
        fn live_words(&self) -> u64 {
            3
        }
    }

    /// Buffer `payload` as an envelope from `src` to `dst` and hand its
    /// first copy to the receiver: its record, its sequence number and the
    /// delivered payload, as the arrival path leaves them.
    fn deliver_envelope(
        sys: &mut System,
        src: ProcId,
        dst: ProcId,
        p: Payload,
    ) -> (RecvMeta, u64, Payload) {
        let meta = sys.core.recv_meta(&p);
        let window = &mut sys.faults.as_mut().unwrap().window;
        let seq = window.push(InFlight {
            src,
            dst,
            meta,
            payload: Some(p),
            attempt: 1,
        });
        (meta, seq, window.deliver(seq).expect("first copy delivers"))
    }

    #[test]
    fn kill_hands_queued_deliveries_back_to_the_senders() {
        let mut cfg = MachineConfig::new(4, Scheme::computation_migration());
        cfg.faults = Some(FaultPlan::disabled());
        cfg.failover = FailoverConfig { enabled: true };
        let mut sys = System::new(cfg);
        let (src, victim) = (ProcId(0), ProcId(1));
        let target = Goid(0);
        let invoke = || Invoke::new(target, MethodId(0), [7], Annotation::Rpc);
        let payloads = [
            Payload::Migration {
                thread: ThreadId(0),
                reply_to: src,
                frames: vec![Box::new(Parked) as Box<dyn Frame>],
                invoke: invoke(),
            },
            Payload::RpcRequest {
                thread: ThreadId(1),
                reply_to: src,
                invoke: invoke(),
            },
            Payload::BackupDelta {
                target,
                delta_seq: 3,
                words: 2,
            },
            Payload::ReplicaUpdate { target, words: 16 },
            Payload::Heartbeat,
        ];
        let mut restored = Vec::new();
        for p in payloads {
            let (meta, seq, payload) = deliver_envelope(&mut sys, src, victim, p);
            sys.procs[victim.index()].enqueue(Work::Deliver {
                src,
                meta,
                seq: Some(seq),
                payload: Some(payload),
            });
            restored.push((seq, meta.kind));
        }
        // A copy of an envelope whose first delivery already executed: its
        // suppression task has nothing to hand back.
        let (meta, dup, _executed) = deliver_envelope(&mut sys, src, victim, Payload::Heartbeat);
        sys.procs[victim.index()].enqueue(Work::Deliver {
            src,
            meta,
            seq: Some(dup),
            payload: None,
        });
        // Locally generated work dies with the node.
        sys.procs[victim.index()].enqueue(Work::Step(ThreadId(0)));
        assert_eq!(sys.dedup_table_size(), restored.len() + 1);

        sys.kill_processor(Cycles(10), victim);

        assert!(sys.is_failed(victim));
        assert_eq!(sys.procs[victim.index()].queue_len(), 0);
        // Only the duplicate's delivered flag is left.
        assert_eq!(sys.dedup_table_size(), 1);
        let window = &sys.faults.as_ref().unwrap().window;
        for &(seq, kind) in &restored {
            let entry = window.get(seq).expect("still buffered");
            let payload = entry.payload.as_ref().expect("payload restored");
            assert_eq!(payload.kind(), kind, "seq {seq}");
        }
        assert!(window.get(dup).unwrap().payload.is_none());

        // Once the replica's processor is declared dead, the restored update
        // retires like any other undeliverable kind.
        let (replica_seq, _) = restored[3];
        sys.declare_dead(victim, Cycles(20), src, Cycles::ZERO);
        let mut queue = EventQueue::new();
        sys.reroute(replica_seq, Cycles(20), Cycles::ZERO, &mut queue);
        let window = &sys.faults.as_ref().unwrap().window;
        assert!(window.get(replica_seq).is_none());
        assert!(matches!(
            sys.runtime_errors().last(),
            Some(RuntimeError::UnroutableToDead { dst, seq }) if *dst == victim && *seq == replica_seq
        ));
    }

    #[test]
    fn kill_destroys_groups_parked_at_the_victim_and_home_frames_homed_there() {
        let mut cfg = MachineConfig::new(4, Scheme::computation_migration());
        cfg.faults = Some(FaultPlan::disabled());
        cfg.failover = FailoverConfig { enabled: true };
        let mut sys = System::new(cfg);
        let victim = ProcId(1);
        let frames = |n| -> Vec<Box<dyn Frame>> { (0..n).map(|_| Box::new(Parked) as _).collect() };
        // Homed at the victim, its group parked elsewhere: it loses only
        // its home frame (the group is reclaimed when its reply comes).
        let homed = sys.add_thread(victim, Box::new(Parked));
        sys.park_for_reply(ProcId(2), homed, frames(2), Some(victim));
        // Homed elsewhere, its group parked at the victim: the group goes.
        let visiting = sys.add_thread(ProcId(0), Box::new(Parked));
        sys.park_for_reply(victim, visiting, frames(1), Some(ProcId(0)));
        // Homed at the victim and parked there too: lost once.
        let both = sys.add_thread(victim, Box::new(Parked));
        sys.park_for_reply(victim, both, frames(1), Some(victim));
        let bystander = sys.add_thread(ProcId(3), Box::new(Parked));

        sys.kill_processor(Cycles(10), victim);

        let stats = sys.failover_stats();
        assert_eq!((stats.threads_lost, stats.frames_lost), (3, 4));
        let thread = |tid: ThreadId| &sys.threads[tid.index()];
        let parked = |tid| thread(tid).parked.as_ref().map(|g| (g.at, g.stack.len()));
        for tid in [homed, visiting, both] {
            assert_eq!(thread(tid).status, ThreadStatus::Done, "{tid:?}");
        }
        assert!(thread(homed).stack.is_empty());
        assert_eq!(parked(homed), Some((ProcId(2), 2)));
        assert_eq!(thread(visiting).stack.len(), 1);
        assert_eq!(parked(visiting), None);
        assert!(thread(both).stack.is_empty());
        assert_eq!(parked(both), None);
        assert_eq!(thread(bystander).status, ThreadStatus::Live);
        assert_eq!(thread(bystander).stack.len(), 1);
        let reclaimed = |tid| RuntimeError::FrameReclaimed {
            thread: tid,
            at: victim,
            frames: 1,
        };
        assert_eq!(sys.runtime_errors(), [reclaimed(visiting), reclaimed(both)]);
    }
}
