//! Runtime messages exchanged between processors.

use proteus::ProcId;

use crate::frame::{Frame, Invoke};
use crate::object::Behavior;
use crate::types::{Goid, ThreadId, WordVec};

/// Marshalled size of a frame group: each frame's live words plus two words
/// of per-frame linkage (return address + frame descriptor).
pub fn frames_words(frames: &[Box<dyn Frame>]) -> u64 {
    frames
        .iter()
        .map(|f| f.live_words() + 2)
        .sum::<u64>()
        .saturating_sub(2) // the top frame's linkage rides in the header
}

/// Payload of a runtime message. Sizes (in words) drive both marshalling
/// cost and network bandwidth accounting.
pub enum Payload {
    /// Client stub → server stub: run `invoke` at the target's home and send
    /// the result back to `reply_to`.
    RpcRequest {
        /// Thread waiting for the reply.
        thread: ThreadId,
        /// Processor the reply must be sent to (where the calling frame
        /// sits — the thread's home, or wherever a migrated frame currently
        /// is).
        reply_to: ProcId,
        /// The call.
        invoke: Invoke,
    },
    /// Server stub → client stub: the result of an RPC.
    RpcReply {
        /// Thread to resume.
        thread: ThreadId,
        /// Result words (inline up to four words).
        results: WordVec,
    },
    /// A migrating activation group (bottom…top; the paper's prototype sends
    /// one frame, multiple-activation migration sends several) plus the
    /// invocation to perform on arrival. `reply_to` is the *original*
    /// caller — linkage is passed along on every re-migration so the final
    /// return short-circuits (§3.2).
    Migration {
        /// Thread the frames belong to.
        thread: ThreadId,
        /// Where the eventual return value must go (the thread's home).
        reply_to: ProcId,
        /// The continuation frames, bottom first: live variables + resume
        /// labels.
        frames: Vec<Box<dyn Frame>>,
        /// The invocation that triggered the migration, performed on arrival.
        invoke: Invoke,
    },
    /// Object migration: ask the target's home to send the object here.
    ObjectPull {
        /// Thread waiting for the object.
        thread: ThreadId,
        /// Requesting processor (where the object will be rehomed).
        reply_to: ProcId,
        /// The object to pull.
        target: Goid,
    },
    /// Object migration: the object itself, in flight to its new home.
    ObjectMove {
        /// Thread to resume once installed.
        thread: ThreadId,
        /// The object being moved.
        target: Goid,
        /// The object's state.
        behavior: Box<dyn Behavior>,
    },
    /// Whole-thread migration: every activation of the thread, rehoming it
    /// at the destination (§2.3).
    ThreadMove {
        /// The migrating thread.
        thread: ThreadId,
        /// Its full stack, bottom (base) first.
        frames: Vec<Box<dyn Frame>>,
        /// The invocation that triggered the move, performed on arrival.
        invoke: Invoke,
    },
    /// A migrated frame finished: deliver results directly to the thread's
    /// home, short-circuiting all intermediate processors.
    OperationReturn {
        /// Thread to resume at its home.
        thread: ThreadId,
        /// Whether the returning base frame was an operation frame (drives
        /// the ops-completed metric at the home).
        completes_op: bool,
        /// Result words (inline up to four words).
        results: WordVec,
    },
    /// Software replication: update/invalidate a replica after a write to a
    /// replicated object.
    ReplicaUpdate {
        /// The replicated object.
        target: Goid,
        /// Words of update payload carried.
        words: u64,
    },
    /// Recovery protocol: acknowledge delivery of sequence-numbered envelope
    /// `seq` so the sender can release its retransmission buffer. Only sent
    /// when fault injection is enabled.
    Ack {
        /// The acknowledged envelope.
        seq: u64,
    },
    /// Failure detector: a heartbeat probe. Carries no data — the probe's
    /// delivery acknowledgement *is* the liveness evidence; a probe whose
    /// retransmissions exhaust declares the destination dead. Only sent when
    /// failover is enabled.
    Heartbeat,
    /// Primary-backup replication: a sequence-numbered state delta shipped
    /// from an object's primary to its backup after a mutating method. Only
    /// sent when failover is enabled.
    BackupDelta {
        /// The mutated object.
        target: Goid,
        /// Per-object delta sequence number (the backup applies in order).
        delta_seq: u64,
        /// Words of delta payload (the mutated footprint of the method).
        words: u64,
    },
}

impl Payload {
    /// Marshalled payload size in words (network headers are added by the
    /// network model).
    pub fn words(&self) -> u64 {
        match self {
            // thread + reply_to + (target, method, args…)
            Payload::RpcRequest { invoke, .. } => 2 + invoke.request_words(),
            Payload::RpcReply { results, .. } => 1 + results.len() as u64,
            // linkage (thread, reply_to) + live frames + pending invoke
            Payload::Migration { frames, invoke, .. } => {
                2 + frames_words(frames) + invoke.request_words()
            }
            Payload::ObjectPull { .. } => 3,
            // goid + the object's memory image
            Payload::ObjectMove { behavior, .. } => 1 + behavior.size_bytes().div_ceil(8),
            // thread control block (16 words) + stack + pending invoke
            Payload::ThreadMove { frames, invoke, .. } => {
                16 + frames_words(frames) + invoke.request_words()
            }
            Payload::OperationReturn { results, .. } => 1 + results.len() as u64,
            Payload::ReplicaUpdate { words, .. } => 1 + words,
            Payload::Ack { .. } => 1,
            Payload::Heartbeat => 1,
            // goid + delta seq + the delta body
            Payload::BackupDelta { words, .. } => 2 + words,
        }
    }

    /// Short kind tag, used for accounting.
    pub fn kind(&self) -> MessageKind {
        match self {
            Payload::RpcRequest { .. } => MessageKind::RpcRequest,
            Payload::RpcReply { .. } => MessageKind::RpcReply,
            Payload::Migration { .. } => MessageKind::Migration,
            Payload::ObjectPull { .. } => MessageKind::ObjectPull,
            Payload::ObjectMove { .. } => MessageKind::ObjectMove,
            Payload::ThreadMove { .. } => MessageKind::ThreadMove,
            Payload::OperationReturn { .. } => MessageKind::OperationReturn,
            Payload::ReplicaUpdate { .. } => MessageKind::ReplicaUpdate,
            Payload::Ack { .. } => MessageKind::Ack,
            Payload::Heartbeat => MessageKind::Heartbeat,
            Payload::BackupDelta { .. } => MessageKind::BackupDelta,
        }
    }
}

/// Discriminant of a payload, for statistics, ordered by declaration.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageKind {
    /// RPC call message.
    RpcRequest,
    /// RPC reply message.
    RpcReply,
    /// Activation migration message.
    Migration,
    /// Object-migration pull request.
    ObjectPull,
    /// Object-migration transfer.
    ObjectMove,
    /// Whole-thread migration transfer.
    ThreadMove,
    /// Short-circuited final return of a migrated activation.
    OperationReturn,
    /// Replica update broadcast.
    ReplicaUpdate,
    /// Recovery-protocol delivery acknowledgement.
    Ack,
    /// Failure-detector heartbeat probe.
    Heartbeat,
    /// Primary-backup replication state delta.
    BackupDelta,
}

impl MessageKind {
    /// Every kind, in declaration order: `ALL[k as usize] == k`.
    pub(crate) const ALL: [MessageKind; 11] = [
        MessageKind::RpcRequest,
        MessageKind::RpcReply,
        MessageKind::Migration,
        MessageKind::ObjectPull,
        MessageKind::ObjectMove,
        MessageKind::ThreadMove,
        MessageKind::OperationReturn,
        MessageKind::ReplicaUpdate,
        MessageKind::Ack,
        MessageKind::Heartbeat,
        MessageKind::BackupDelta,
    ];

    /// Whether the receiver creates a thread for a message of this kind:
    /// only RPC requests and arriving activations do. Every other message
    /// takes the short receive path of [`crate::CostModel::receive_charges`].
    pub fn creates_thread(self) -> bool {
        matches!(
            self,
            MessageKind::RpcRequest | MessageKind::Migration | MessageKind::ThreadMove
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{StepCtx, StepResult};
    use crate::mechanism::Annotation;
    use crate::types::{MethodId, Word};

    struct Fixed(u64);
    impl Frame for Fixed {
        fn step(&mut self, _: &StepCtx) -> StepResult {
            StepResult::Halt
        }
        fn on_result(&mut self, _: &[Word]) {}
        fn live_words(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn rpc_request_size() {
        let p = Payload::RpcRequest {
            thread: ThreadId(0),
            reply_to: ProcId(0),
            invoke: Invoke::new(Goid(1), MethodId(0), [1, 2, 3], Annotation::Rpc),
        };
        // 2 linkage + (2 + 3 args)
        assert_eq!(p.words(), 7);
        assert_eq!(p.kind(), MessageKind::RpcRequest);
    }

    #[test]
    fn migration_size_includes_live_frames() {
        let p = Payload::Migration {
            thread: ThreadId(0),
            reply_to: ProcId(0),
            frames: vec![Box::new(Fixed(5))],
            invoke: Invoke::new(Goid(1), MethodId(0), [9], Annotation::Migrate),
        };
        // 2 linkage + 5 live + (2 + 1 arg)
        assert_eq!(p.words(), 10);
        assert_eq!(p.kind(), MessageKind::Migration);

        // A two-frame group adds the second frame's live words + linkage.
        let p2 = Payload::Migration {
            thread: ThreadId(0),
            reply_to: ProcId(0),
            frames: vec![Box::new(Fixed(3)), Box::new(Fixed(5))],
            invoke: Invoke::new(Goid(1), MethodId(0), [9], Annotation::MigrateAll),
        };
        assert_eq!(p2.words(), 15);
    }

    #[test]
    fn object_move_sizes() {
        struct Obj;
        impl Behavior for Obj {
            fn invoke(
                &mut self,
                _m: MethodId,
                _a: &[Word],
                _e: &mut dyn crate::object::MethodEnv,
            ) -> WordVec {
                WordVec::new()
            }
            fn size_bytes(&self) -> u64 {
                100
            }
        }
        let pull = Payload::ObjectPull {
            thread: ThreadId(0),
            reply_to: ProcId(1),
            target: Goid(3),
        };
        assert_eq!(pull.words(), 3);
        assert_eq!(pull.kind(), MessageKind::ObjectPull);
        let mv = Payload::ObjectMove {
            thread: ThreadId(0),
            target: Goid(3),
            behavior: Box::new(Obj),
        };
        assert_eq!(mv.words(), 14); // 1 + ceil(100/8)
        assert_eq!(mv.kind(), MessageKind::ObjectMove);
    }

    #[test]
    fn thread_move_size_includes_control_block() {
        let p = Payload::ThreadMove {
            thread: ThreadId(0),
            frames: vec![Box::new(Fixed(4)), Box::new(Fixed(6))],
            invoke: Invoke::new(Goid(1), MethodId(0), [], Annotation::Rpc),
        };
        // 16 ctrl + (4 + 6 + 2 linkage) + 2 invoke
        assert_eq!(p.words(), 30);
        assert_eq!(p.kind(), MessageKind::ThreadMove);
    }

    #[test]
    fn reply_and_return_sizes() {
        let p = Payload::RpcReply {
            thread: ThreadId(0),
            results: [1, 2].into(),
        };
        assert_eq!(p.words(), 3);
        let r = Payload::OperationReturn {
            thread: ThreadId(0),
            completes_op: true,
            results: [1].into(),
        };
        assert_eq!(r.words(), 2);
        assert_eq!(r.kind(), MessageKind::OperationReturn);
    }

    #[test]
    fn ack_size() {
        let p = Payload::Ack { seq: 12345 };
        assert_eq!(p.words(), 1);
        assert_eq!(p.kind(), MessageKind::Ack);
    }

    #[test]
    fn failover_message_sizes() {
        let hb = Payload::Heartbeat;
        assert_eq!(hb.words(), 1);
        assert_eq!(hb.kind(), MessageKind::Heartbeat);
        let d = Payload::BackupDelta {
            target: Goid(4),
            delta_seq: 9,
            words: 6,
        };
        assert_eq!(d.words(), 8);
        assert_eq!(d.kind(), MessageKind::BackupDelta);
    }

    #[test]
    fn replica_update_size() {
        let p = Payload::ReplicaUpdate {
            target: Goid(0),
            words: 16,
        };
        assert_eq!(p.words(), 17);
        assert_eq!(p.kind(), MessageKind::ReplicaUpdate);
    }

    #[test]
    fn only_requests_and_arriving_activations_create_threads() {
        let creating: Vec<MessageKind> = MessageKind::ALL
            .into_iter()
            .filter(|k| k.creates_thread())
            .collect();
        assert_eq!(
            creating,
            [
                MessageKind::RpcRequest,
                MessageKind::Migration,
                MessageKind::ThreadMove
            ]
        );
    }

    #[test]
    fn all_kinds_are_indexed_by_discriminant() {
        for (i, k) in MessageKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        assert!(MessageKind::ALL.windows(2).all(|w| w[0] < w[1]));
    }
}
