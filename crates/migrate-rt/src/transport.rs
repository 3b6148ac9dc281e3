//! Reliable-delivery bookkeeping for the recovery protocol: the sender-side
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

use proteus::ProcId;

use crate::message::{MessageKind, Payload};

/// Sender-side retransmission buffer entry for one unacked envelope.
pub(crate) struct InFlight {
    /// Sending processor.
    pub(crate) src: ProcId,
    /// Current destination (rerouting may change it).
    pub(crate) dst: ProcId,
    /// Kind of the buffered payload.
    pub(crate) kind: MessageKind,
    /// Wire words (receive-path charge uses the same figure).
    pub(crate) words: u64,
    /// Short-method receive path?
    pub(crate) short: bool,
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

    /// An entry whose `words` field carries a tag the reference also stores,
    /// and whose payload is an ack carrying the same tag.
    fn entry(tag: u64) -> InFlight {
        InFlight {
            src: ProcId(0),
            dst: ProcId(1),
            kind: MessageKind::Heartbeat,
            words: tag,
            short: true,
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
                let got = w.remove(seq).map(|e| e.words);
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
                let got = w.remove(seq).map(|e| e.words);
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
                .map(|e| (e.words, e.payload.as_ref().map(payload_tag)));
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
