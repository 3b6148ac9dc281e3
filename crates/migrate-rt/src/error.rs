//! Typed runtime errors for malformed protocol state, and typed errors for
//! machine configurations the simulator cannot model ([`ConfigError`]).
//!
//! The migration protocol has invariants a well-formed simulation never
//! violates (a `Migration` message always carries frames; a reply for a
//! detached activation always finds its group parked at the destination).
//! Rather than aborting the whole simulation with a panic when a malformed
//! message shows up, the runtime records a [`RuntimeError`], drops the
//! offending task after charging what it already consumed, and keeps going.
//! Debug builds still assert so model bugs surface loudly in tests; release
//! runs surface the errors through `System::runtime_errors` and the metrics
//! audit instead of tearing down a multi-minute experiment.
//!
//! Under fault injection (`MachineConfig::faults`) a second family of
//! variants records *expected* recovery activity — duplicate deliveries
//! suppressed, migrations that timed out and fell back to RPC, orphaned
//! frames reclaimed — so a faulty run's JSON artifact names exactly what the
//! recovery layer did. Each variant has a stable snake_case [`RuntimeError::code`]
//! used as the JSON key.

use proteus::coherence::MAX_PROCESSORS;
use proteus::ProcId;

use crate::types::ThreadId;

/// A protocol invariant violated by a runtime message, or a recovery action
/// taken under fault injection.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A `Migration` message arrived carrying no activation frames.
    EmptyMigration {
        /// Thread the message claimed to migrate.
        thread: ThreadId,
        /// Processor the message arrived at.
        at: ProcId,
    },
    /// A reply or continuation addressed a detached activation group that is
    /// not parked at the destination processor.
    UnknownDetachedGroup {
        /// Thread whose group was expected.
        thread: ThreadId,
        /// Processor the message arrived at.
        at: ProcId,
    },
    /// A detached (migrated) activation asked to sleep; think time runs at
    /// the thread's home, never at a migration target.
    DetachedFrameSlept {
        /// The offending thread.
        thread: ThreadId,
        /// Processor the detached group was running on.
        at: ProcId,
    },
    /// The network rejected a send because it addressed a processor outside
    /// the machine (see `proteus::SendError`). The message was not sent.
    NetworkRejected {
        /// Source of the rejected send.
        src: ProcId,
        /// Destination of the rejected send.
        dst: ProcId,
    },
    /// A migration exhausted its retry budget and fell back to plain RPC at
    /// the same call site.
    MigrationTimeout {
        /// The thread whose migration timed out.
        thread: ThreadId,
        /// The sending processor (where the fallback RPC was issued).
        at: ProcId,
    },
    /// A duplicate delivery of an already-processed message was suppressed.
    DuplicateDelivery {
        /// Sequence number of the duplicated envelope.
        seq: u64,
        /// Processor that suppressed the duplicate.
        at: ProcId,
    },
    /// Activation frames buffered for a timed-out migration were reclaimed
    /// because their thread had already terminated.
    FrameReclaimed {
        /// The terminated thread the frames belonged to.
        thread: ThreadId,
        /// Processor the frames were reclaimed at.
        at: ProcId,
        /// Number of frames reclaimed.
        frames: u64,
    },
    /// An in-flight envelope addressed a processor that was declared dead
    /// and could not be rerouted to a live destination (failover). The
    /// envelope was dropped.
    UnroutableToDead {
        /// The dead destination.
        dst: ProcId,
        /// Sequence number of the dropped envelope.
        seq: u64,
    },
}

impl RuntimeError {
    /// Every variant's [`RuntimeError::code`], in declaration order: a
    /// per-variant counter array is indexed like this list.
    pub(crate) const CODES: [&'static str; 8] = [
        "empty_migration",
        "unknown_detached_group",
        "detached_frame_slept",
        "network_rejected",
        "migration_timeout",
        "duplicate_delivery",
        "frame_reclaimed",
        "unroutable_to_dead",
    ];

    /// This error's variant index into [`RuntimeError::CODES`].
    pub(crate) fn index(&self) -> usize {
        match self {
            RuntimeError::EmptyMigration { .. } => 0,
            RuntimeError::UnknownDetachedGroup { .. } => 1,
            RuntimeError::DetachedFrameSlept { .. } => 2,
            RuntimeError::NetworkRejected { .. } => 3,
            RuntimeError::MigrationTimeout { .. } => 4,
            RuntimeError::DuplicateDelivery { .. } => 5,
            RuntimeError::FrameReclaimed { .. } => 6,
            RuntimeError::UnroutableToDead { .. } => 7,
        }
    }

    /// Stable snake_case identifier for this error, used as the key in JSON
    /// artifacts. New variants must add a code to `CODES`; codes never
    /// change.
    pub fn code(&self) -> &'static str {
        Self::CODES[self.index()]
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::EmptyMigration { thread, at } => {
                write!(
                    f,
                    "migration message for {thread:?} at {at:?} carries no frames"
                )
            }
            RuntimeError::UnknownDetachedGroup { thread, at } => {
                write!(f, "no detached frame group for {thread:?} parked at {at:?}")
            }
            RuntimeError::DetachedFrameSlept { thread, at } => {
                write!(
                    f,
                    "detached frame of {thread:?} at {at:?} tried to sleep \
                     (think time runs at the thread's home)"
                )
            }
            RuntimeError::NetworkRejected { src, dst } => {
                write!(f, "network rejected send {src:?} -> {dst:?}")
            }
            RuntimeError::MigrationTimeout { thread, at } => {
                write!(
                    f,
                    "migration of {thread:?} from {at:?} exhausted retries; fell back to RPC"
                )
            }
            RuntimeError::DuplicateDelivery { seq, at } => {
                write!(
                    f,
                    "duplicate delivery of envelope #{seq} suppressed at {at:?}"
                )
            }
            RuntimeError::FrameReclaimed { thread, at, frames } => {
                write!(
                    f,
                    "{frames} orphaned frame(s) of terminated {thread:?} reclaimed at {at:?}"
                )
            }
            RuntimeError::UnroutableToDead { dst, seq } => {
                write!(
                    f,
                    "envelope #{seq} to dead {dst:?} could not be rerouted; dropped"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A machine configuration the simulator cannot model, reported by
/// [`MachineConfig::validate`](crate::MachineConfig::validate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The machine has no processors.
    NoProcessors,
    /// More processors than a directory's sharer set covers
    /// ([`MAX_PROCESSORS`]).
    TooManyProcessors {
        /// Processors configured.
        processors: u32,
    },
    /// A processor eligible for object placement is outside the machine.
    DataProcOutside {
        /// The offending processor.
        proc: ProcId,
        /// Processors the machine has.
        processors: u32,
    },
    /// A software-replica processor is outside the machine.
    ReplicaProcOutside {
        /// The offending processor.
        proc: ProcId,
        /// Processors the machine has.
        processors: u32,
    },
    /// The fault plan kills a processor outside the machine.
    KillVictimOutside {
        /// The offending processor.
        proc: ProcId,
        /// Processors the machine has.
        processors: u32,
    },
    /// Failover is enabled without a fault plan. Heartbeat probes need the
    /// transport layer's acked envelopes to ever time out; give the machine
    /// `FaultPlan::disabled()` when it injects nothing.
    FailoverWithoutFaultPlan,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoProcessors => write!(f, "machine needs at least one processor"),
            ConfigError::TooManyProcessors { processors } => write!(
                f,
                "{processors} processors: the sharer bitmask covers at most {MAX_PROCESSORS}"
            ),
            ConfigError::DataProcOutside { proc, processors } => write!(
                f,
                "data processor {proc:?} outside the machine of {processors} processors"
            ),
            ConfigError::ReplicaProcOutside { proc, processors } => write!(
                f,
                "replica processor {proc:?} outside the machine of {processors} processors"
            ),
            ConfigError::KillVictimOutside { proc, processors } => write!(
                f,
                "kill victim {proc:?} outside the machine of {processors} processors"
            ),
            ConfigError::FailoverWithoutFaultPlan => write!(
                f,
                "failover needs a fault plan: heartbeats ride acked envelopes \
                 (use FaultPlan::disabled() to inject nothing)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            RuntimeError::EmptyMigration {
                thread: ThreadId(0),
                at: ProcId(0),
            },
            RuntimeError::UnknownDetachedGroup {
                thread: ThreadId(0),
                at: ProcId(0),
            },
            RuntimeError::DetachedFrameSlept {
                thread: ThreadId(0),
                at: ProcId(0),
            },
            RuntimeError::NetworkRejected {
                src: ProcId(0),
                dst: ProcId(1),
            },
            RuntimeError::MigrationTimeout {
                thread: ThreadId(0),
                at: ProcId(0),
            },
            RuntimeError::DuplicateDelivery {
                seq: 7,
                at: ProcId(0),
            },
            RuntimeError::FrameReclaimed {
                thread: ThreadId(0),
                at: ProcId(0),
                frames: 2,
            },
            RuntimeError::UnroutableToDead {
                dst: ProcId(3),
                seq: 11,
            },
        ];
        let codes: Vec<&str> = all.iter().map(RuntimeError::code).collect();
        assert_eq!(
            codes,
            RuntimeError::CODES,
            "one error per variant, in order"
        );
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes collide: {codes:?}");
        for (e, code) in all.iter().zip(&codes) {
            assert_eq!(*code, code.to_lowercase(), "not snake_case: {code}");
            assert!(!e.to_string().is_empty());
        }
    }
}
