//! Dispatch layer: executing queued tasks, delivering runtime messages,
//! stepping activation groups (a thread's stack at home and a migrated
//! group away from home, in one loop), serving object pulls, and the
//! adaptive-policy hooks of `Auto` sites.

use proteus::event::EventQueue;
use proteus::trace::TraceEvent;
use proteus::{Cycles, ProcId};

use super::env::{MpEnv, SmEnv};
use super::{DetachedFrame, Event, ResumingGroup, System, ThreadStatus, Work};
use crate::cost::Category;
use crate::error::RuntimeError;
use crate::frame::{Frame, Invoke, StepCtx, StepResult};
use crate::mechanism::{Annotation, DataAccess, DispatchKind};
use crate::message::{Message, Payload};
use crate::policy::PolicyEngine;
use crate::types::{Goid, ThreadId, WordVec};

/// Words carried by one replica-update message (the replicated object's
/// new state), on top of the target's id.
const REPLICA_UPDATE_WORDS: u64 = 16;

impl System {
    /// Execute one queued task at `proc`, returning its busy duration.
    pub(super) fn execute(
        &mut self,
        now: Cycles,
        proc: ProcId,
        work: Work,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let (mut acc, ack) = match &work {
            Work::Message { src, payload, seq } => (
                self.charge_delivery(proc, *src, payload),
                seq.map(|s| (*src, s)),
            ),
            Work::DuplicateDrop { src, seq, meta } => {
                (self.core.charge_recv(*meta), Some((*src, *seq)))
            }
            _ => (Cycles::ZERO, None),
        };
        if let Some((src, seq)) = ack {
            // Acknowledge the envelope as part of processing it, so the ack's
            // send-side charges stay inside this task's busy window.
            self.transport().stats.acks_sent += 1;
            acc += self.send_message(proc, src, Payload::Ack { seq }, now + acc, queue);
        }
        match work {
            Work::Step(tid) => self.run_thread_slice(now, proc, tid, None, acc, queue),
            Work::Message { payload, .. } => self.deliver(now, proc, payload, acc, queue),
            Work::DuplicateDrop { seq, .. } => {
                self.transport().stats.duplicates_suppressed += 1;
                let error = RuntimeError::DuplicateDelivery { seq, at: proc };
                self.core.record_error(now + acc, error);
                acc + self.charge(Category::RecoveryDedup, self.core.cost.dedup_check)
            }
            Work::Retransmit { seq } => self.retransmit(seq, now, proc, acc, queue),
            Work::HeartbeatProbe { to } => self.probe(now, proc, to, acc, queue),
            Work::Outage { duration, crash } => {
                // The injected disruption occupies the processor for its
                // duration; charge it so the audit identity holds.
                let category = if crash {
                    Category::FaultCrash
                } else {
                    Category::FaultStall
                };
                acc + self.charge(category, duration)
            }
        }
    }

    /// Charge the receive path of a payload delivered at `proc`: the Table 5
    /// message categories, sized by its wire words — except a replica
    /// update, which takes the lightweight apply path, and a self-addressed
    /// object pull, a local retry with no receive path to pay.
    fn charge_delivery(&mut self, proc: ProcId, src: ProcId, payload: &Payload) -> Cycles {
        match payload {
            Payload::ReplicaUpdate { .. } => {
                self.charge(Category::ReplicaApply, self.core.cost.replica_apply)
            }
            Payload::ObjectPull { .. } if src == proc => Cycles::ZERO,
            _ => self.core.charge_recv(self.core.recv_meta(payload)),
        }
    }

    /// Act on a payload delivered at `proc` whose receive path is charged.
    fn deliver(
        &mut self,
        now: Cycles,
        proc: ProcId,
        payload: Payload,
        acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        match payload {
            Payload::RpcRequest {
                thread,
                reply_to,
                invoke,
            } => {
                // General-purpose stub dispatch: thread set-up/tear-down via
                // the scheduler plus the second argument copy (§4.3).
                let acc = acc + self.charge(Category::RpcDispatch, self.core.cost.rpc_dispatch);
                let (lat, results) = self.invoke_inline(proc, &invoke, now + acc, queue);
                let acc = acc + lat;
                let payload = Payload::RpcReply { thread, results };
                acc + self.send_message(proc, reply_to, payload, now + acc, queue)
            }
            // A reply goes to the detached group parked here, if any, else
            // to the thread at home.
            Payload::RpcReply { thread, results } => {
                let parked = self.detached.get_mut(thread.index());
                let Some(group) = parked.and_then(|d| d.take_if(|g| g.at == proc)) else {
                    let results = Some((results, false));
                    return self.run_thread_slice(now, proc, thread, results, acc, queue);
                };
                let DetachedFrame {
                    mut stack,
                    reply_to,
                    ..
                } = group;
                let Some(mut frame) = stack.pop() else {
                    let error = RuntimeError::UnknownDetachedGroup { thread, at: proc };
                    self.core.record_error(now + acc, error);
                    return acc;
                };
                frame.on_result(&results);
                let group = (stack, frame, Some(reply_to));
                self.run_group(now, proc, thread, group, acc, queue)
            }
            Payload::OperationReturn {
                thread,
                completes_op,
                results,
            } => {
                self.run_thread_slice(now, proc, thread, Some((results, completes_op)), acc, queue)
            }
            Payload::Migration {
                thread,
                reply_to,
                mut frames,
                invoke,
            } => {
                let t = thread.index();
                if self.threads[t].status == ThreadStatus::Done {
                    // The thread died with its processor while this
                    // (rerouted) migration was in flight: reclaim the
                    // orphaned frames instead of running a dead operation.
                    self.reclaim_frames(now + acc, proc, thread, frames);
                    return acc;
                }
                let Some(mut frame) = frames.pop() else {
                    // A protocol violation orphans the thread: terminate it
                    // so the run still quiesces.
                    self.threads[t].status = ThreadStatus::Done;
                    let error = RuntimeError::EmptyMigration { thread, at: proc };
                    self.core.record_error(now + acc, error);
                    return acc;
                };
                // The pending invoke runs here — that is the point of the
                // migration. User code at this hop counts toward Table 5.
                debug_assert_eq!(
                    self.objects.home(invoke.target),
                    proc,
                    "migration arrived at wrong processor"
                );
                self.core.migration_ctx = true;
                let (lat, results) = self.invoke_inline(proc, &invoke, now + acc, queue);
                self.core.migration_ctx = false;
                frame.on_result(&results);
                let group = (frames, frame, Some(reply_to));
                self.run_group(now, proc, thread, group, acc + lat, queue)
            }
            Payload::ObjectPull {
                thread,
                reply_to,
                target,
            } => self.serve_pull(now, proc, thread, reply_to, target, acc, queue),
            Payload::ObjectMove {
                thread,
                target,
                behavior,
            } => {
                // The home pointer was flipped when the object was packed;
                // install the state and let the thread retry its invoke,
                // which is now local.
                debug_assert_eq!(self.objects.home(target), proc, "object landed off-home");
                let acc =
                    acc + self.charge(Category::GoidTranslation, self.core.cost.goid_translation);
                self.objects.put_behavior(target, behavior);
                if self.threads[thread.index()].status == ThreadStatus::Done {
                    // The puller died with its processor; the object was
                    // rerouted here (its re-homed directory entry) so its
                    // state survives, but there is no thread to resume.
                    return acc;
                }
                self.run_thread_slice(now, proc, thread, None, acc, queue)
            }
            Payload::ThreadMove {
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
                self.threads[t].status = ThreadStatus::Live;
                let (lat, results) = self.invoke_inline(proc, &invoke, now + acc, queue);
                self.run_thread_slice(now, proc, thread, Some((results, false)), acc + lat, queue)
            }
            Payload::Ack { seq } => {
                // Release the retransmission buffer.
                self.transport().window.retire(seq);
                acc
            }
            Payload::BackupDelta { .. } => {
                acc + self.charge(Category::ReplicationDeltaApply, self.core.cost.delta_apply)
            }
            // The receive path was the whole job: a replica update is
            // applied by its charge, and the ack a heartbeat's receive path
            // sent is the liveness evidence.
            Payload::ReplicaUpdate { .. } | Payload::Heartbeat => acc,
        }
    }

    /// Reclaim the frames of a migration whose thread terminated while it
    /// was in flight or buffered.
    pub(super) fn reclaim_frames(
        &mut self,
        at: Cycles,
        proc: ProcId,
        thread: ThreadId,
        frames: Vec<Box<dyn Frame>>,
    ) {
        let n = frames.len() as u64;
        self.recycle_frame_vec(frames);
        if let Some(faults) = &mut self.faults {
            faults.stats.frames_reclaimed += n;
        }
        let error = RuntimeError::FrameReclaimed {
            thread,
            at: proc,
            frames: n,
        };
        self.core.record_error(at, error);
    }

    /// Record how an invocation issued from call site `site` was dispatched.
    pub(super) fn record_dispatch(
        &mut self,
        now: Cycles,
        proc: ProcId,
        site: &'static str,
        kind: DispatchKind,
    ) {
        self.dispatch.record(site, kind);
        self.core.tracer.emit_with(|| TraceEvent {
            at: now,
            source: "runtime",
            kind: "dispatch",
            proc: Some(proc),
            detail: format!("site={site} mechanism={}", kind.label()),
        });
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
        self.core.charge_user(user);
        let mut busy = user;
        // A write to a replicated object must update the software replicas.
        if is_home && !inv.read_only && replicated && self.cfg.scheme.replication {
            busy += self.broadcast_replica_update(proc, inv.target, logical_now + user, queue);
        }
        // Primary-backup replication: a mutating method at the primary ships
        // its written footprint to the object's backup as a sequenced delta.
        if is_home && wrote_bytes > 0 {
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
            net: &mut self.core.net,
            rng: &mut self.rng,
            data_procs: &self.cfg.data_procs,
        };
        let results = behavior.invoke(inv.method, &inv.args, &mut env);
        let (elapsed, user, mem, lock) = (env.elapsed, env.user, env.mem_stall, env.lock_stall);
        let wrote_bytes = env.wrote_bytes;
        self.objects.put_behavior(goid, behavior);
        self.core.charge_user(user);
        self.charge(Category::MemoryStall, mem);
        self.charge(Category::LockStall, lock);
        let mut busy = elapsed;
        // Under shared memory the mutation happened in the home node's
        // memory; replication still ships the written footprint to the
        // home's backup so a fail-stop crash of the home loses nothing.
        if wrote_bytes > 0 {
            let home = self.objects.home(goid);
            busy +=
                self.ship_backup_delta(proc, home, goid, wrote_bytes, logical_now + busy, queue);
        }
        (busy, results)
    }

    /// Broadcast a replica update after a write to a replicated object:
    /// one [`REPLICA_UPDATE_WORDS`]-word message to every other replica.
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
                words: REPLICA_UPDATE_WORDS,
            };
            busy += self.send_message(src, p, payload, send_time + busy, queue);
        }
        busy
    }

    // ------------------------------------------------------------------
    // Operation bookkeeping and adaptive dispatch (Annotation::Auto)
    // ------------------------------------------------------------------

    /// The policy engine, built on first use.
    fn policy(&mut self) -> &mut PolicyEngine {
        self.policy.get_or_insert_with(PolicyEngine::default)
    }

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
        let Some(site) = self.threads[t].auto_site.take() else {
            return Cycles::ZERO;
        };
        let remote = std::mem::take(&mut self.threads[t].auto_remote);
        self.policy().record_episode(site, remote);
        self.charge(Category::PolicyUpdate, self.core.cost.policy_update)
    }

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

    /// Whether an invoke that must leave `proc` migrates instead of making
    /// an RPC: never under a scheme without migration; otherwise the
    /// annotation decides, and an `Auto` site consults the policy engine,
    /// paying its decide charge into `acc`. Emits a trace event when the
    /// site changes mode.
    fn wants_migration(
        &mut self,
        now: Cycles,
        proc: ProcId,
        site: &'static str,
        annotation: Annotation,
        acc: &mut Cycles,
    ) -> bool {
        if !self.cfg.scheme.migration {
            return false;
        }
        match annotation {
            Annotation::Migrate | Annotation::MigrateAll => true,
            Annotation::Rpc => false,
            Annotation::Auto => {
                *acc += self.charge(Category::PolicyDecide, self.core.cost.policy_decide);
                let d = self.policy().decide(site);
                if d.flipped {
                    let at = now + *acc;
                    self.core.tracer.emit_with(|| TraceEvent {
                        at,
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
        }
    }

    /// The invoke prologue of the group loop under every scheme but shared
    /// memory: the locality check, the `Auto` episode's access count, and
    /// the invoke itself when its object is homed at `proc` or served by a
    /// local replica. Returns the results when the invoke ran here, or the
    /// object's home when it must leave.
    #[allow(clippy::too_many_arguments)]
    fn invoke_here(
        &mut self,
        now: Cycles,
        proc: ProcId,
        tid: ThreadId,
        site: &'static str,
        inv: &Invoke,
        acc: &mut Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Result<WordVec, ProcId> {
        *acc += self.charge(Category::LocalityCheck, self.core.cost.locality_check);
        let home = self.objects.home(inv.target);
        let replica_served = home != proc && self.replica_readable(proc, inv);
        if inv.annotation == Annotation::Auto && self.cfg.scheme.migration {
            self.note_auto_access(tid, site, home, replica_served);
        }
        let kind = if home == proc {
            DispatchKind::LocalInline
        } else if replica_served {
            DispatchKind::ReplicaRead
        } else {
            return Err(home);
        };
        self.record_dispatch(now + *acc, proc, site, kind);
        let (lat, results) = self.invoke_inline(proc, inv, now + *acc, queue);
        *acc += lat;
        Ok(results)
    }

    // ------------------------------------------------------------------
    // Execution slices
    // ------------------------------------------------------------------

    /// Resume a thread at its home processor: pop its top frame, hand it
    /// the results being delivered (closing the operation they complete),
    /// and step the thread's stack as the group at home. Returns total busy
    /// cycles (including `acc` carried in).
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
        let Some(mut frame) = self.threads[t].stack.pop() else {
            return acc;
        };
        self.threads[t].status = ThreadStatus::Live;
        if let Some((results, completes_op)) = deliver {
            if completes_op {
                acc += self.complete_op(tid, now + acc);
            }
            frame.on_result(&results);
        }
        let lower = std::mem::take(&mut self.threads[t].stack);
        self.run_group(now, proc, tid, (lower, frame, None), acc, queue)
    }

    /// Step an activation group at `proc` from its top frame until it
    /// blocks, sleeps, yields, leaves or finishes. Returns total busy cycles
    /// (including `acc` carried in). `group` is the frames below the top,
    /// the top frame, and `away`: `None` for the thread's own stack at
    /// home, else the processor the migrated group's final return
    /// short-circuits to. Only a sleep, the base frame's return and a
    /// migration depend on `away`; an arm that parks the group puts its
    /// frames back. A frame that returns is handed to its parent through
    /// [`Frame::recycle_child`]: the frame below it in the group, or, for a
    /// migrated group's base, the frame parked on top of the thread's home
    /// stack.
    ///
    /// A well-formed simulation never lets a migrated frame sleep; one that
    /// does is a protocol error, recorded instead of aborting the run, with
    /// the busy cycles already charged standing.
    fn run_group(
        &mut self,
        now: Cycles,
        proc: ProcId,
        tid: ThreadId,
        (mut lower, mut frame, away): ResumingGroup,
        mut acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let t = tid.index();
        let mut steps = 0u64;
        loop {
            steps += 1;
            assert!(steps < 1_000_000, "frame livelock: {}", frame.label());
            let ctx = StepCtx {
                now: now + acc,
                proc,
            };
            let inv = match frame.step(&ctx) {
                StepResult::Compute(c) => {
                    self.core.charge_user(c);
                    acc += c;
                    continue;
                }
                StepResult::Call(child) => {
                    acc += self.charge(Category::LocalLinkage, self.core.cost.local_call);
                    if child.is_operation() {
                        self.threads[t].op_started = Some(now + acc);
                    }
                    lower.push(frame);
                    frame = child;
                    continue;
                }
                StepResult::Sleep(_) if away.is_some() => {
                    // Think time runs at the thread's home, never at a
                    // migration target (the driver frame stays behind):
                    // the orphaned thread is terminated.
                    self.threads[t].status = ThreadStatus::Done;
                    let error = RuntimeError::DetachedFrameSlept {
                        thread: tid,
                        at: proc,
                    };
                    self.core.record_error(now + acc, error);
                    return acc;
                }
                StepResult::Sleep(d) if d.is_zero() => continue,
                StepResult::Sleep(d) => {
                    lower.push(frame);
                    self.park_home(tid, lower);
                    queue.schedule_at(now + acc + d, Event::Wake(tid));
                    return acc;
                }
                StepResult::Return(vals) => {
                    let parent = lower.pop();
                    if let (None, Some(reply_to)) = (&parent, away) {
                        // The group's base returned: short-circuit straight
                        // to the original caller, not through intermediate
                        // processors (§3.2). The box itself goes to the
                        // parent parked on top of the home stack at once
                        // (host memory: no message, no charge).
                        self.recycle_frame_vec(lower);
                        let completes_op = frame.is_operation();
                        if let Some(parent) = self.threads[t].stack.last_mut() {
                            parent.recycle_child(frame);
                        }
                        let payload = Payload::OperationReturn {
                            thread: tid,
                            completes_op,
                            results: vals,
                        };
                        return acc + self.send_message(proc, reply_to, payload, now + acc, queue);
                    }
                    if frame.is_operation() {
                        acc += self.complete_op(tid, now + acc);
                    }
                    let Some(mut parent) = parent else {
                        self.threads[t].status = ThreadStatus::Done;
                        return acc;
                    };
                    acc += self.charge(Category::LocalLinkage, self.core.cost.local_call);
                    parent.on_result(&vals);
                    parent.recycle_child(frame);
                    frame = parent;
                    continue;
                }
                StepResult::Halt => {
                    self.threads[t].status = ThreadStatus::Done;
                    return acc;
                }
                StepResult::Invoke(inv) => inv,
            };
            let access = self.cfg.scheme.access;
            debug_assert!(
                away.is_none() || access == DataAccess::MessagePassing,
                "detached frames exist only under message passing"
            );
            let site = frame.label();
            if access == DataAccess::SharedMemory {
                self.record_dispatch(now + acc, proc, site, DispatchKind::SharedMemory);
                let (lat, results) = self.invoke_sm(proc, &inv, now + acc, queue);
                acc += lat;
                frame.on_result(&results);
                // Yield so lock windows interleave near the correct global
                // time (DESIGN.md §6.2).
                lower.push(frame);
                self.park_home(tid, lower);
                self.procs[proc.index()].enqueue(Work::Step(tid));
                return acc;
            }
            if access == DataAccess::ObjectMigration
                && self.objects.home(inv.target) == proc
                && self.objects.entry(inv.target).behavior.is_none()
            {
                // Rehomed to us but still in flight (another thread on this
                // processor pulled it): retry once it has had time to
                // arrive.
                acc += self.charge(Category::LocalityCheck, self.core.cost.locality_check);
                lower.push(frame);
                self.park_home(tid, lower);
                queue.schedule_at(now + acc + Cycles(200), Event::Wake(tid));
                return acc;
            }
            let home = match self.invoke_here(now, proc, tid, site, &inv, &mut acc, queue) {
                Ok(results) => {
                    frame.on_result(&results);
                    continue;
                }
                Err(home) => home,
            };
            let payload = match access {
                DataAccess::ObjectMigration => {
                    // Pull the object here (Emerald-style); the frame
                    // re-issues the same invoke once it is installed.
                    self.record_dispatch(now + acc, proc, site, DispatchKind::ObjectPull);
                    lower.push(frame);
                    self.park_for_reply(proc, tid, lower, None);
                    Payload::ObjectPull {
                        thread: tid,
                        reply_to: proc,
                        target: inv.target,
                    }
                }
                DataAccess::ThreadMigration => {
                    // Move the whole thread to the data (§2.3): every
                    // activation ships; the thread is rehomed on arrival.
                    self.record_dispatch(now + acc, proc, site, DispatchKind::ThreadMove);
                    self.threads[t].status = ThreadStatus::Moving;
                    lower.push(frame);
                    Payload::ThreadMove {
                        thread: tid,
                        frames: lower,
                        invoke: inv,
                    }
                }
                // The activation group leaves, with linkage (reply_to) letting
                // its eventual return short-circuit back. From home it is the
                // top activation (the paper's prototype) or everything above
                // the thread base (§6 future work); away, the whole group
                // re-migrates, passing the original linkage along and leaving
                // nothing behind ("destroy the original thread" here).
                _ if self.wants_migration(now, proc, site, inv.annotation, &mut acc)
                    && (away.is_some() || !lower.is_empty()) =>
                {
                    let (kind, reply_to, frames) = match away {
                        Some(reply_to) => {
                            lower.push(frame);
                            (DispatchKind::Remigration, reply_to, lower)
                        }
                        None => {
                            let keep = match inv.annotation {
                                Annotation::MigrateAll => 1,
                                _ => lower.len(),
                            };
                            // The top frame goes straight into the travelling
                            // buffer: pushing it onto the home stack first
                            // could outgrow that stack's buffer.
                            let mut frames = self.frame_pool.pop().unwrap_or_default();
                            frames.extend(lower.drain(keep..));
                            frames.push(frame);
                            self.park_home(tid, lower);
                            (DispatchKind::Migration, proc, frames)
                        }
                    };
                    self.record_dispatch(now + acc, proc, site, kind);
                    Payload::Migration {
                        thread: tid,
                        reply_to,
                        frames,
                        invoke: inv,
                    }
                }
                _ => {
                    // RPC from the current location; the reply comes back
                    // here, where the group parks.
                    self.record_dispatch(now + acc, proc, site, DispatchKind::Rpc);
                    lower.push(frame);
                    self.park_for_reply(proc, tid, lower, away);
                    Payload::RpcRequest {
                        thread: tid,
                        reply_to: proc,
                        invoke: inv,
                    }
                }
            };
            return acc + self.send_message(proc, home, payload, now + acc, queue);
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
        let pull = Payload::ObjectPull {
            thread,
            reply_to,
            target,
        };
        if home != proc {
            // The object moved away: forward the pull (forwarding check +
            // chase message).
            acc += self.charge(Category::ForwardingCheck, self.core.cost.forwarding_check);
            acc += self.send_message(proc, home, pull, now + acc, queue);
            return acc;
        }
        if self.objects.entry(target).behavior.is_none() {
            // In flight towards us: retry after a short delay.
            acc += self.charge(Category::Scheduler, self.core.cost.scheduler);
            let retry = Message {
                src: proc,
                payload: pull,
            };
            queue.schedule_at(now + acc + Cycles(200), Event::Arrive(proc, retry));
            return acc;
        }
        // Pack the object and rehome it at the requester *now*, so later
        // pulls chase it to its new location.
        let behavior = self.objects.take_behavior(target);
        self.objects.entry_mut(target).home = reply_to;
        acc += self.charge(Category::GoidTranslation, self.core.cost.goid_translation);
        let payload = Payload::ObjectMove {
            thread,
            target,
            behavior,
        };
        acc += self.send_message(proc, reply_to, payload, now + acc, queue);
        acc
    }
}
