//! Property tests for message payload sizing under the recovery protocol.
//!
//! The reliable-envelope layer snapshots `Payload::words()` once at send
//! time and replays it for every retransmission and injected duplicate, so
//! `words()` must be a pure function of the payload's shape: duplicating a
//! message, delivering copies out of order, or retrying after a timeout can
//! never change the wire size the accounting books.

use migrate_rt::frame::{Frame, Invoke, StepCtx, StepResult};
use migrate_rt::{Annotation, Goid, MethodId, Payload, ThreadId, Word};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use proteus::ProcId;

/// A frame whose live size is the only thing that matters here.
struct Sized(u64);
impl Frame for Sized {
    fn step(&mut self, _: &StepCtx) -> StepResult {
        StepResult::Halt
    }
    fn on_result(&mut self, _: &[Word]) {}
    fn live_words(&self) -> u64 {
        self.0
    }
}

fn migration(frame_sizes: &[u64], args: usize) -> Payload {
    Payload::Migration {
        thread: ThreadId(0),
        reply_to: ProcId(0),
        frames: frame_sizes
            .iter()
            .map(|&w| Box::new(Sized(w)) as _)
            .collect(),
        invoke: Invoke::new(Goid(1), MethodId(0), vec![7; args], Annotation::Migrate),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn words_is_pure_across_repeated_reads(
        frame_sizes in pvec(0u64..64, 1..5),
        args in 0usize..8,
        copies in 2usize..6,
    ) {
        // An injected duplicate re-reads the same buffered payload; every
        // read must book the same size.
        let p = migration(&frame_sizes, args);
        let first = p.words();
        for _ in 0..copies {
            prop_assert_eq!(p.words(), first);
        }
        prop_assert_eq!(p.kind(), migrate_rt::MessageKind::Migration);
    }

    #[test]
    fn words_conserved_across_reorder(
        frame_sizes in pvec(0u64..64, 1..6),
        args in 0usize..8,
        rotation in 0usize..6,
    ) {
        // Deliveries arriving out of order are still the same payloads: the
        // multiset of sizes — and therefore the booked total — is invariant
        // under any permutation of the delivery order.
        let batch: Vec<Payload> = (0..frame_sizes.len())
            .map(|i| migration(&frame_sizes[..=i], args))
            .collect();
        let in_order: u64 = batch.iter().map(Payload::words).sum();
        let n = batch.len();
        let reordered: u64 = (0..n)
            .map(|i| batch[(i + rotation) % n].words())
            .sum();
        prop_assert_eq!(in_order, reordered);
    }

    #[test]
    fn words_matches_closed_form(
        frame_sizes in pvec(0u64..64, 1..5),
        args in 0usize..8,
    ) {
        // 2 linkage words + per-frame (live + 2 linkage, top frame's linkage
        // in the header) + (target, method) + args.
        let p = migration(&frame_sizes, args);
        let frames: u64 =
            frame_sizes.iter().map(|w| w + 2).sum::<u64>() - 2;
        prop_assert_eq!(p.words(), 2 + frames + 2 + args as u64);
    }

    #[test]
    fn ack_is_always_one_word(seq in any::<u64>()) {
        let p = Payload::Ack { seq };
        prop_assert_eq!(p.words(), 1);
        prop_assert_eq!(p.kind(), migrate_rt::MessageKind::Ack);
    }
}
