//! Transport layer: fault injection and the ack/timeout/retry recovery
//! protocol. It exists exactly when the machine has a fault plan; then
//! every remote runtime message rides a sequence-numbered envelope (acks
//! travel fire-and-forget), each copy's fate is drawn from the plan, and
//! unacknowledged envelopes are retransmitted, rerouted or degraded.
//!
//! Reliable-delivery bookkeeping is the [`Window`]: the sender-side
//! retransmission buffer and the receiver-side duplicate-suppression table,
//! kept as one window indexed by envelope sequence number.
//!
//! Every envelope the runtime ever sent has a sequence number in
//! `0..next_seq`. The window covers `[acked_below, next_seq)`: everything
//! below the watermark `acked_below` has left the retransmission buffer, so
//! any copy of it still in the network is a duplicate by definition. Each
//! sequence number inside the window owns one 4-byte slot holding
//!
//! * the slab index of its buffered [`InFlight`] entry, or [`EMPTY`] once
//!   the envelope was acknowledged, retired or abandoned, and
//! * a *delivered* flag in the top bit: a copy was handed to the receiver
//!   (or the envelope was tombstoned by a fallback), so later copies are
//!   duplicates.
//!
//! The entries themselves live in a slab (`Vec<Option<InFlight>>` with a
//! free list), so one stuck envelope at the front keeps only 4 bytes per
//! later sequence number alive, not a whole entry. Lookup, removal and the
//! duplicate check are O(1) and allocation-free; advancing the watermark
//! pops empty slots off the front.

use std::collections::VecDeque;
use std::sync::LazyLock;

use proteus::event::EventQueue;
use proteus::fault::{FaultInjector, FaultPlan};
use proteus::trace::{TraceEvent, Tracer};
use proteus::{Cycles, ProcId};

use super::{Core, Event, RecoveryConfig, RecvMeta, System, ThreadStatus, Work};
use crate::cost::category_ids as cat;
use crate::error::RuntimeError;
use crate::mechanism::DispatchKind;
use crate::message::{Message, MessageKind, Payload};

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

/// What [`System::recovery_stats`] reports without fault injection.
pub(super) static NO_RECOVERY: LazyLock<RecoveryStats> = LazyLock::new(RecoveryStats::default);

/// The transport layer's state.
pub(super) struct Faults {
    pub(super) injector: FaultInjector,
    cfg: RecoveryConfig,
    /// Unacked envelopes and delivered flags, indexed by sequence number
    /// (global across processors; the *order* of allocation is
    /// deterministic, so fault decisions replay exactly).
    pub(super) window: Window,
    /// Per-processor crash-restart horizon: arrivals before this time are
    /// lost.
    pub(super) crashed_until: Vec<Cycles>,
    /// Permanently failed (fail-stop) processors: dead hardware. Set by
    /// [`Event::Kill`]; never cleared.
    pub(super) failed: Vec<bool>,
    pub(super) stats: RecoveryStats,
}

impl Faults {
    pub(super) fn new(plan: FaultPlan, cfg: RecoveryConfig, processors: u32) -> Faults {
        let n = processors as usize;
        Faults {
            injector: FaultInjector::new(plan),
            cfg,
            window: Window::default(),
            crashed_until: vec![Cycles::ZERO; n],
            failed: vec![false; n],
            stats: RecoveryStats::default(),
        }
    }

    /// Restart the window counters; the decision stream continues.
    pub(super) fn reset_stats(&mut self) {
        self.stats = RecoveryStats::default();
        self.injector.reset_stats();
    }

    /// `true` if `dst` is mid crash-restart at `now`: the arriving message
    /// is lost, counted and traced with `detail`.
    pub(super) fn swallows(
        &mut self,
        tracer: &Tracer,
        now: Cycles,
        dst: ProcId,
        detail: impl FnOnce() -> String,
    ) -> bool {
        let lost = now < self.crashed_until[dst.index()];
        if lost {
            self.stats.messages_lost += 1;
            tracer.emit_with(|| TraceEvent {
                at: now,
                source: "runtime",
                kind: "lost",
                proc: Some(dst),
                detail: detail(),
            });
        }
        lost
    }

    /// Send a remote message: acks go fire-and-forget, everything else in a
    /// sequence-numbered envelope whose payload stays in the sender's
    /// retransmission buffer until acknowledged. Only envelope metadata
    /// travels through the event queue, so drops and duplicates are handled
    /// without cloning (unclonable) frames. Returns the send overhead.
    pub(super) fn send(
        &mut self,
        core: &mut Core,
        src: ProcId,
        dst: ProcId,
        payload: Payload,
        send_time: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let (overhead, latency) = core.book_send(src, dst, &payload, send_time);
        let Some(latency) = latency else {
            return overhead;
        };
        if let Payload::Ack { seq } = payload {
            // Never buffered: a lost ack is recovered by the data sender's
            // retransmission, which the receiver dedups and re-acks.
            let ack = || {
                Event::Arrive(
                    dst,
                    Message {
                        src,
                        payload: Payload::Ack { seq },
                    },
                )
            };
            self.schedule_copy(send_time, overhead + latency, src, dst, ack, queue);
            return overhead;
        }
        let seq = self.window.push(InFlight {
            src,
            dst,
            meta: core.recv_meta(&payload),
            payload: Some(payload),
            attempt: 1,
        });
        self.launch_envelope(core, seq, send_time + overhead, latency, queue);
        overhead
    }

    /// Retransmission timeout for send attempt `attempt` (exponential
    /// backoff, capped).
    fn rto(&self, attempt: u32) -> Cycles {
        let shift = attempt.saturating_sub(1).min(16);
        let backed_off = self.cfg.base_timeout.get().saturating_mul(1 << shift);
        Cycles(backed_off.min(self.cfg.backoff_cap.get()))
    }

    /// Draw the fault fate of one copy put on the wire at `sent` and
    /// schedule what survives: the stall or crash it triggers at the
    /// destination, its arrival after `transit` (plus any injected delay),
    /// and a duplicate copy. Returns the arrival time when the plan
    /// duplicated the copy, so the caller can book the duplicate's wire
    /// traffic. Envelopes do; acks do not — a known modelling approximation
    /// (DESIGN.md §6), kept because the pinned benchmark counts of
    /// `network.sends` depend on it.
    fn schedule_copy(
        &mut self,
        sent: Cycles,
        transit: Cycles,
        src: ProcId,
        dst: ProcId,
        arrival: impl Fn() -> Event,
        queue: &mut EventQueue<Event>,
    ) -> Option<Cycles> {
        let fate = self.injector.fate(sent, src, dst);
        if fate.dropped {
            self.stats.messages_lost += 1;
            return None;
        }
        let arrive = sent + transit + fate.delay;
        let outage = (fate.crash.map(|d| (d, true))).or(fate.stall.map(|d| (d, false)));
        if let Some((duration, crash)) = outage {
            queue.schedule_at(
                arrive,
                Event::Disrupt {
                    proc: dst,
                    duration,
                    crash,
                },
            );
        }
        queue.schedule_at(arrive, arrival());
        let extra = fate.duplicate?;
        queue.schedule_at(arrive + extra, arrival());
        Some(arrive)
    }

    /// Put one copy of envelope `seq` on the wire at `launch_time`: draw its
    /// fault fate, schedule the surviving arrival(s) and any injected
    /// disruption, and arm the retransmission timer.
    fn launch_envelope(
        &mut self,
        core: &mut Core,
        seq: u64,
        launch_time: Cycles,
        latency: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        let entry = self.window.get(seq).expect("launching unknown envelope");
        let (src, dst, meta, attempt) = (entry.src, entry.dst, entry.meta, entry.attempt);
        let arrival = || Event::ArriveSeq {
            dst,
            src,
            seq,
            meta,
        };
        if let Some(at) = self.schedule_copy(launch_time, latency, src, dst, arrival, queue) {
            // The duplicate envelope copy is real wire traffic and transit.
            if let Ok(lat2) = core.net.send_at(at, src, dst, meta.words) {
                core.charge(cat::NETWORK_TRANSIT, lat2);
            }
        }
        queue.schedule_at(launch_time + self.rto(attempt), Event::Timeout(seq));
    }

    /// Send buffered envelope `seq` again, to its current destination, at
    /// `now`: charge and count the send, trace it at the sender as `event`
    /// with `detail`, and launch the copy. Returns the send overhead.
    fn relaunch(
        &mut self,
        core: &mut Core,
        seq: u64,
        now: Cycles,
        event: &'static str,
        detail: impl FnOnce() -> String,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let entry = self.window.get(seq).expect("relaunching unknown envelope");
        let (src, dst, RecvMeta { kind, words, .. }) = (entry.src, entry.dst, entry.meta);
        let (overhead, latency) = core.charge_send(src, dst, kind, words, now);
        // A rejected route was recorded and nothing went on the wire.
        if let Some(latency) = latency {
            core.msg_counts[kind as usize] += 1;
            core.tracer.emit_with(|| TraceEvent {
                at: now + overhead,
                source: "runtime",
                kind: event,
                proc: Some(src),
                detail: detail(),
            });
            self.launch_envelope(core, seq, now + overhead, latency, queue);
        }
        overhead
    }
}

impl System {
    /// The transport layer, for tasks and events only it creates.
    pub(super) fn transport(&mut self) -> &mut Faults {
        self.faults
            .as_mut()
            .expect("transport work without the transport layer")
    }

    /// A copy of envelope `seq` lands at `dst`: queue its delivery — or,
    /// if a copy was already delivered, its suppression — with the ack
    /// ticket.
    pub(super) fn on_arrive_seq(
        &mut self,
        now: Cycles,
        dst: ProcId,
        src: ProcId,
        seq: u64,
        meta: RecvMeta,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(faults) = &mut self.faults else {
            return; // only the transport layer sends envelopes
        };
        // A crash-restart swallows the copy; the sender's timeout will
        // retransmit it.
        if faults.swallows(&self.core.tracer, now, dst, || {
            format!("seq={seq} (destination crashed)")
        }) {
            return;
        }
        let work = match faults.window.deliver(seq) {
            Some(payload) => Work::Message {
                src,
                payload,
                seq: Some(seq),
            },
            // Already processed (an injected duplicate, a retransmission
            // racing its own ack, or a tombstone left by a fallback):
            // suppress, but still charge the receive path and re-ack.
            None => Work::DuplicateDrop { src, seq, meta },
        };
        self.enqueue(dst, work, now, queue);
    }

    /// The retransmission timer of envelope `seq` fired.
    pub(super) fn on_timeout(&mut self, now: Cycles, seq: u64, queue: &mut EventQueue<Event>) {
        let faults = self.transport();
        let Some(entry) = faults.window.get(seq) else {
            return; // acked meanwhile — stale timer
        };
        let src = entry.src;
        if faults.failed[src.index()] {
            // The sender died: nobody is left to retransmit, and no ack will
            // ever release the buffer. Retire the envelope so the dedup
            // watermark can advance past it.
            faults.window.retire(seq);
            return;
        }
        self.enqueue(src, Work::Retransmit { seq }, now, queue);
    }

    /// An injected stall or crash-restart lands at `proc`.
    pub(super) fn on_disrupt(
        &mut self,
        now: Cycles,
        proc: ProcId,
        duration: Cycles,
        crash: bool,
        queue: &mut EventQueue<Event>,
    ) {
        if crash {
            let crashed_until = &mut self.transport().crashed_until[proc.index()];
            *crashed_until = (now + duration).max(*crashed_until);
        }
        self.enqueue(proc, Work::Outage { duration, crash }, now, queue);
    }

    /// Handle a fired retransmission timer for envelope `seq`: either resend
    /// it (with backoff) or — for a migration out of attempts — degrade to a
    /// plain RPC at the same call site. With failover, an envelope to a
    /// declared-dead processor is rerouted, and a heartbeat out of attempts
    /// declares its destination dead.
    pub(super) fn retransmit(
        &mut self,
        seq: u64,
        now: Cycles,
        proc: ProcId,
        acc: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let faults = self.transport();
        let Some(entry) = faults.window.get(seq) else {
            return acc; // acked between timer fire and task execution
        };
        let (dst, kind, attempt) = (entry.dst, entry.meta.kind, entry.attempt);
        let max_migration_attempts = faults.cfg.max_migration_attempts;
        debug_assert_eq!(entry.src, proc, "retransmit task ran off the sender");
        let acc = acc + self.charge(cat::RECOVERY_TIMEOUT, self.core.cost.timeout_handler);
        if let Some(failover) = &self.failover {
            if failover.is_declared_dead(dst) {
                // The destination was declared dead (by this processor or
                // any other): redirect the buffered payload instead of
                // resending into the void.
                return self.reroute(seq, now, acc, queue);
            }
            if kind == MessageKind::Heartbeat && attempt >= failover.max_heartbeat_attempts() {
                // Suspicion: the probe's retry budget is exhausted with no
                // ack — the ring predecessor declares the destination dead.
                self.transport().window.retire(seq);
                return self.declare_dead(dst, now, proc, acc);
            }
        }
        if kind == MessageKind::Migration && attempt >= max_migration_attempts {
            return self.fallback_to_rpc(seq, now, proc, acc, queue);
        }
        // Field borrow, not `transport()`: the send also needs `core`.
        let Some(faults) = self.faults.as_mut() else {
            return acc;
        };
        faults
            .window
            .get_mut(seq)
            .expect("entry checked above")
            .attempt = attempt + 1;
        faults.stats.retries += 1;
        let detail = || {
            format!(
                "seq={seq} attempt={} kind={kind:?} dst={}",
                attempt + 1,
                dst.index()
            )
        };
        acc + faults.relaunch(&mut self.core, seq, now + acc, "retry", detail, queue)
    }

    /// Re-point buffered envelope `seq` at live destination `to` and send
    /// it there (failover rerouting). Returns the send overhead.
    pub(super) fn redirect(
        &mut self,
        seq: u64,
        to: ProcId,
        now: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Cycles {
        let Some(faults) = self.faults.as_mut() else {
            return Cycles::ZERO;
        };
        let entry = faults
            .window
            .get_mut(seq)
            .expect("rerouting unknown envelope");
        let (from, kind) = (entry.dst, entry.meta.kind);
        entry.dst = to;
        entry.attempt = 1;
        let detail = || format!("seq={seq} kind={kind:?} {} -> {}", from.index(), to.index());
        faults.relaunch(&mut self.core, seq, now, "reroute", detail, queue)
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
        let faults = self.transport();
        let entry = faults
            .window
            .remove(seq)
            .expect("fallback on unknown envelope");
        // The envelope is retired: any straggler copy still in flight must
        // be treated as a duplicate, not re-executed. (If the watermark
        // passes `seq` right away the tombstone is pruned again — copies
        // below the watermark are duplicates by definition.)
        faults.window.mark_delivered(seq);
        faults.window.advance();
        let Some(Payload::Migration {
            thread,
            reply_to,
            frames,
            invoke,
        }) = entry.payload
        else {
            return acc; // tombstone — a copy was delivered after all
        };
        let acc = acc + self.charge(cat::RECOVERY_RECLAIM, self.core.cost.frame_reclaim);
        self.transport().stats.fallbacks += 1;
        self.core.record_error(
            now + acc,
            RuntimeError::MigrationTimeout { thread, at: proc },
        );
        let t = thread.index();
        if self.threads[t].status == ThreadStatus::Done {
            // The thread died while its frames were marooned in the
            // retransmission buffer: reclaim them, nothing to re-issue.
            self.reclaim_frames(now + acc, proc, thread, frames);
            return acc;
        }
        let site = frames.last().expect("migration carries frames").label();
        self.record_dispatch(now + acc, proc, site, DispatchKind::RpcFallback);
        let home = self.objects.home(invoke.target);
        // A first migration left the thread's home: its frames go back on
        // the home stack. A re-migrated group parks here, and the reply
        // routes back to it.
        let away = (reply_to != proc).then_some(reply_to);
        self.park_for_reply(proc, thread, frames, away);
        let payload = Payload::RpcRequest {
            thread,
            reply_to: proc,
            invoke,
        };
        acc + self.send_message(proc, home, payload, now + acc, queue)
    }
}

/// Sender-side retransmission buffer entry for one unacked envelope.
pub(crate) struct InFlight {
    /// Sending processor.
    pub(crate) src: ProcId,
    /// Current destination (rerouting may change it).
    pub(crate) dst: ProcId,
    /// The buffered payload's kind, wire words (resends charge the same
    /// figure) and receive path.
    pub(crate) meta: RecvMeta,
    /// The buffered payload; taken by the first delivery, so a `Some` here
    /// means no copy has been delivered yet.
    pub(crate) payload: Option<Payload>,
    /// Send attempts so far (1 = the original send).
    pub(crate) attempt: u32,
}

/// Top bit of a slot: a copy of this sequence number was delivered.
const DELIVERED: u32 = 1 << 31;
/// Slot value (without the delivered bit) of a sequence number whose entry
/// has left the retransmission buffer.
const EMPTY: u32 = DELIVERED - 1;

/// The sequence-indexed retransmission and duplicate-suppression window.
#[derive(Default)]
pub(crate) struct Window {
    /// Duplicate-suppression watermark and sequence number of `slots[0]`:
    /// every envelope with `seq < acked_below` has left the retransmission
    /// buffer and its delivered flag has been pruned.
    acked_below: u64,
    /// One slot per sequence number in `[acked_below, next_seq)`.
    slots: VecDeque<u32>,
    /// Buffered entries, addressed by the slots' slab indices.
    slab: Vec<Option<InFlight>>,
    /// Vacant slab indices, reused before the slab grows.
    free: Vec<u32>,
    /// Slots in the window with the delivered bit set.
    delivered: usize,
}

impl Window {
    /// The sequence number the next [`Window::push`] assigns.
    fn next_seq(&self) -> u64 {
        self.acked_below + self.slots.len() as u64
    }

    /// Delivered flags still held inside the window: the size of the
    /// receiver-side duplicate-suppression table.
    pub(crate) fn dedup_table_size(&self) -> usize {
        self.delivered
    }

    /// Position of `seq`'s slot, if `seq` is inside the window.
    fn position(&self, seq: u64) -> Option<usize> {
        let offset = seq.checked_sub(self.acked_below)?;
        (offset < self.slots.len() as u64).then_some(offset as usize)
    }

    /// Slab index of `seq`'s buffered entry, if it has one.
    fn slab_index(&self, seq: u64) -> Option<usize> {
        let slot = self.slots[self.position(seq)?] & !DELIVERED;
        (slot != EMPTY).then_some(slot as usize)
    }

    /// Buffer a new envelope under the next sequence number and return it.
    pub(crate) fn push(&mut self, entry: InFlight) -> u64 {
        let seq = self.next_seq();
        let index = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(entry);
                i
            }
            None => {
                let i = self.slab.len() as u32;
                assert!(i < EMPTY, "retransmission buffer overflow");
                self.slab.push(Some(entry));
                i
            }
        };
        self.slots.push_back(index);
        seq
    }

    /// The buffered entry of `seq`, if it has not left the buffer.
    pub(crate) fn get(&self, seq: u64) -> Option<&InFlight> {
        self.slab[self.slab_index(seq)?].as_ref()
    }

    /// Mutable access to the buffered entry of `seq`.
    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut InFlight> {
        let i = self.slab_index(seq)?;
        self.slab[i].as_mut()
    }

    /// Take `seq`'s entry out of the retransmission buffer (acknowledged,
    /// retired or abandoned). Its delivered flag stays until the watermark
    /// passes it; call [`Window::advance`] afterwards.
    pub(crate) fn remove(&mut self, seq: u64) -> Option<InFlight> {
        let pos = self.position(seq)?;
        let slot = self.slots[pos];
        let index = slot & !DELIVERED;
        if index == EMPTY {
            return None;
        }
        self.slots[pos] = (slot & DELIVERED) | EMPTY;
        self.free.push(index);
        self.slab[index as usize].take()
    }

    /// [`Window::remove`] then [`Window::advance`].
    pub(crate) fn retire(&mut self, seq: u64) -> Option<InFlight> {
        let entry = self.remove(seq);
        self.advance();
        entry
    }

    /// Advance the watermark to the smallest sequence number still in the
    /// buffer (or to `next_seq` if the buffer is empty), pruning the
    /// delivered flags it passes.
    pub(crate) fn advance(&mut self) {
        while let Some(&slot) = self.slots.front() {
            if slot & !DELIVERED != EMPTY {
                break;
            }
            if slot & DELIVERED != 0 {
                self.delivered -= 1;
            }
            self.slots.pop_front();
            self.acked_below += 1;
        }
    }

    /// `true` if a copy of `seq` arriving now must be suppressed: it is
    /// below the watermark, or a copy was already delivered.
    fn is_duplicate(&self, seq: u64) -> bool {
        seq < self.acked_below
            || self
                .position(seq)
                .is_some_and(|pos| self.slots[pos] & DELIVERED != 0)
    }

    /// Set `seq`'s delivered flag (a no-op outside the window: below the
    /// watermark every copy is a duplicate anyway). Besides first
    /// deliveries, this tombstones a retired envelope whose straggler
    /// copies must not be re-executed.
    pub(crate) fn mark_delivered(&mut self, seq: u64) {
        if let Some(pos) = self.position(seq) {
            if self.slots[pos] & DELIVERED == 0 {
                self.slots[pos] |= DELIVERED;
                self.delivered += 1;
            }
        }
    }

    /// A copy of `seq` arrived: return its payload and flag it delivered if
    /// this is the first delivery of a buffered envelope. `None` means the
    /// copy is a duplicate (or its envelope was tombstoned) and must be
    /// suppressed.
    pub(crate) fn deliver(&mut self, seq: u64) -> Option<Payload> {
        if self.is_duplicate(seq) {
            return None;
        }
        let payload = self.get_mut(seq)?.payload.take()?;
        self.mark_delivered(seq);
        Some(payload)
    }

    /// Undo a delivery whose task died queued at a killed processor: put
    /// the payload back into the still-buffered entry and clear the
    /// delivered flag, so the next timeout redelivers it.
    pub(crate) fn undeliver(&mut self, seq: u64, payload: Payload) {
        let Some(entry) = self.get_mut(seq) else {
            return;
        };
        debug_assert!(
            entry.payload.is_none(),
            "restoring an envelope that was never delivered"
        );
        entry.payload = Some(payload);
        let pos = self
            .position(seq)
            .expect("buffered entries lie inside the window");
        if self.slots[pos] & DELIVERED != 0 {
            self.slots[pos] &= !DELIVERED;
            self.delivered -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    /// An entry whose `meta.words` field carries a tag the reference also
    /// stores, and whose payload is an ack carrying the same tag.
    fn entry(tag: u64) -> InFlight {
        InFlight {
            src: ProcId(0),
            dst: ProcId(1),
            meta: RecvMeta {
                words: tag,
                kind: MessageKind::Heartbeat,
                short: true,
            },
            payload: Some(Payload::Ack { seq: tag }),
            attempt: 1,
        }
    }

    fn payload_tag(p: &Payload) -> u64 {
        match p {
            Payload::Ack { seq } => *seq,
            _ => unreachable!("test payloads are acks"),
        }
    }

    /// The previous bookkeeping, kept as the reference model: an ordered map
    /// of buffered entries (tag, payload tag), an ordered set of delivered
    /// sequence numbers, and a watermark advance that rebuilds the set with
    /// `split_off`.
    #[derive(Default)]
    struct Reference {
        next_seq: u64,
        in_flight: BTreeMap<u64, (u64, Option<u64>)>,
        delivered_seqs: BTreeSet<u64>,
        acked_below: u64,
    }

    impl Reference {
        fn push(&mut self, tag: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.in_flight.insert(seq, (tag, Some(tag)));
            seq
        }

        fn advance(&mut self) {
            let floor = self
                .in_flight
                .keys()
                .next()
                .copied()
                .unwrap_or(self.next_seq);
            if floor > self.acked_below {
                self.acked_below = floor;
                self.delivered_seqs = self.delivered_seqs.split_off(&floor);
            }
        }

        fn is_duplicate(&self, seq: u64) -> bool {
            seq < self.acked_below || self.delivered_seqs.contains(&seq)
        }

        fn deliver(&mut self, seq: u64) -> Option<u64> {
            if self.is_duplicate(seq) {
                return None;
            }
            let payload = self.in_flight.get_mut(&seq).and_then(|e| e.1.take())?;
            self.delivered_seqs.insert(seq);
            Some(payload)
        }

        fn undeliver(&mut self, seq: u64, payload: u64) {
            if let Some(entry) = self.in_flight.get_mut(&seq) {
                entry.1 = Some(payload);
                self.delivered_seqs.remove(&seq);
            }
        }
    }

    /// One step of a random schedule; `pick` selects a sequence number
    /// around the current window (a little below the watermark to a little
    /// past `next_seq`).
    #[derive(Debug)]
    enum Op {
        Push,
        AckRemove(u64),
        FirstDelivery(u64),
        FallbackTombstone(u64),
        KillUndeliver(u64),
        Advance,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..12, any::<u64>()).prop_map(|(k, pick)| match k {
            0..=3 => Op::Push,
            4 | 5 => Op::AckRemove(pick),
            6..=8 => Op::FirstDelivery(pick),
            9 => Op::FallbackTombstone(pick),
            10 => Op::KillUndeliver(pick),
            _ => Op::Advance,
        })
    }

    fn pick_seq(r: &Reference, pick: u64) -> u64 {
        let lo = r.acked_below.saturating_sub(2);
        lo + pick % (r.next_seq + 2 - lo)
    }

    fn apply(w: &mut Window, r: &mut Reference, op: &Op, tag: u64) -> Result<(), TestCaseError> {
        match *op {
            Op::Push => prop_assert_eq!(w.push(entry(tag)), r.push(tag)),
            Op::AckRemove(pick) => {
                // The ack handler: retire the entry, then advance.
                let seq = pick_seq(r, pick);
                let got = w.remove(seq).map(|e| e.meta.words);
                let want = r.in_flight.remove(&seq).map(|e| e.0);
                prop_assert_eq!(got, want);
                if want.is_some() {
                    w.advance();
                    r.advance();
                }
            }
            Op::FirstDelivery(pick) => {
                let seq = pick_seq(r, pick);
                let got = w.deliver(seq).map(|p| payload_tag(&p));
                prop_assert_eq!(got, r.deliver(seq));
            }
            Op::FallbackTombstone(pick) => {
                // A migration out of attempts: retire, tombstone, advance.
                let seq = pick_seq(r, pick);
                let got = w.remove(seq).map(|e| e.meta.words);
                let want = r.in_flight.remove(&seq).map(|e| e.0);
                prop_assert_eq!(got, want);
                if want.is_some() {
                    w.mark_delivered(seq);
                    r.delivered_seqs.insert(seq);
                    w.advance();
                    r.advance();
                }
            }
            Op::KillUndeliver(pick) => {
                // Only a delivered, still-buffered envelope can be restored.
                let seq = pick_seq(r, pick);
                if let Some(&(tag, None)) = r.in_flight.get(&seq) {
                    w.undeliver(seq, Payload::Ack { seq: tag });
                    r.undeliver(seq, tag);
                }
            }
            Op::Advance => {
                w.advance();
                r.advance();
            }
        }
        Ok(())
    }

    fn check(w: &Window, r: &Reference) -> Result<(), TestCaseError> {
        prop_assert_eq!(w.next_seq(), r.next_seq);
        prop_assert_eq!(w.acked_below, r.acked_below);
        prop_assert_eq!(w.dedup_table_size(), r.delivered_seqs.len());
        for seq in 0..r.next_seq + 2 {
            let got = w
                .get(seq)
                .map(|e| (e.meta.words, e.payload.as_ref().map(payload_tag)));
            prop_assert_eq!(got, r.in_flight.get(&seq).copied(), "get({})", seq);
            prop_assert_eq!(
                w.is_duplicate(seq),
                r.is_duplicate(seq),
                "duplicate verdict for {}",
                seq
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The window is observationally identical to the ordered-collection
        /// bookkeeping it replaced, after every step of a random schedule.
        #[test]
        fn window_matches_ordered_collections(ops in proptest::collection::vec(op(), 1..240)) {
            let mut w = Window::default();
            let mut r = Reference::default();
            for (tag, op) in ops.iter().enumerate() {
                apply(&mut w, &mut r, op, 1000 + tag as u64)?;
                check(&w, &r)?;
            }
        }
    }

    #[test]
    fn stuck_envelope_keeps_later_slots_but_frees_their_entries() {
        let mut w = Window::default();
        let stuck = w.push(entry(0));
        for tag in 1..100 {
            let seq = w.push(entry(tag));
            assert_eq!(w.deliver(seq).map(|p| payload_tag(&p)), Some(tag));
            assert!(w.remove(seq).is_some());
            w.advance();
        }
        // The stuck envelope pins the watermark; every later sequence number
        // keeps its delivered flag, but the slab holds one entry at a time.
        assert_eq!(w.acked_below, stuck);
        assert_eq!(w.dedup_table_size(), 99);
        assert_eq!(w.slab.len(), 2);
        assert!(w.remove(stuck).is_some());
        w.advance();
        assert_eq!(w.acked_below, 100);
        assert_eq!(w.dedup_table_size(), 0);
        assert!(w.is_duplicate(50));
        assert!(!w.is_duplicate(100));
    }
}
