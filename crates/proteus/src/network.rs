//! Interconnection network model: latency and bandwidth accounting.
//!
//! Latency of a message is `LAUNCH + PER_HOP × hops(src, dst)`, with the
//! constants chosen so that a typical cross-machine message on the paper's
//! 24–88 processor meshes costs about the 17 cycles of "network transit"
//! reported in Table 5. Every message carries a `HEADER_WORDS` header.
//! Bandwidth is accounted in word-hops (see [`TrafficStats`]).

use crate::ids::ProcId;
use crate::stats::TrafficStats;
use crate::time::Cycles;
use crate::topology::Mesh;
use crate::trace::{TraceEvent, Tracer};

/// Fixed cost to launch a message onto the wire. With the mean hop count
/// of the paper's 24–88 processor meshes (about 5–7) this lands a typical
/// transit near Table 5's 17 cycles.
pub(crate) const LAUNCH: Cycles = Cycles(10);
/// Propagation cost per mesh hop.
pub(crate) const PER_HOP: Cycles = Cycles(1);
/// Words of header prepended to every message payload.
const HEADER_WORDS: u64 = 2;

/// A send addressed a processor the machine does not have.
///
/// The mesh is the most-square rectangle covering the processor count, so
/// some mesh coordinates may exceed the machine (24 processors → 5×5 mesh);
/// the check is against the *configured* processor count, not the mesh.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The source `ProcId` is ≥ the machine's processor count.
    SrcOutOfRange {
        /// The offending processor id.
        proc: ProcId,
        /// Processors the machine actually has.
        processors: u32,
    },
    /// The destination `ProcId` is ≥ the machine's processor count.
    DstOutOfRange {
        /// The offending processor id.
        proc: ProcId,
        /// Processors the machine actually has.
        processors: u32,
    },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::SrcOutOfRange { proc, processors } => write!(
                f,
                "send source P{} out of range (machine has {} processors)",
                proc.0, processors
            ),
            SendError::DstOutOfRange { proc, processors } => write!(
                f,
                "send destination P{} out of range (machine has {} processors)",
                proc.0, processors
            ),
        }
    }
}

impl std::error::Error for SendError {}

/// The machine interconnect: topology + cost model + traffic accounting.
#[derive(Clone, Debug)]
pub struct Network {
    processors: u32,
    /// Grid coordinates of every processor, precomputed: hop counts are on
    /// the critical path of every message and coherence transaction, and the
    /// mesh's division-based coordinate math would dominate them.
    coords: Vec<(u32, u32)>,
    traffic: TrafficStats,
    tracer: Tracer,
}

impl Network {
    /// A network over the most-square mesh for `processors` nodes.
    pub fn new(processors: u32) -> Network {
        let mesh = Mesh::for_processors(processors);
        let coords = (0..processors).map(|p| mesh.coords(ProcId(p))).collect();
        Network {
            processors,
            coords,
            traffic: TrafficStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer; [`Network::send_at`] records one event per message.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Send a message of `payload_words` words: books traffic (header +
    /// payload, times hops) and returns the transit latency the caller should
    /// use to schedule the arrival event. The latency does not depend on the
    /// size: the paper's model charges marshalling separately and treats the
    /// network as pipelined.
    ///
    /// A message to self is *defined* to cost nothing and take no time (no
    /// traffic is booked, `Ok(Cycles::ZERO)` is returned) — the runtime
    /// checks locality before invoking any remote mechanism, matching the
    /// paper's "migration is conditional on the location of the computation".
    /// A route naming a processor outside the machine is rejected with a
    /// typed [`SendError`] rather than a panic: the coordinates table covers
    /// exactly the configured processors, so its lookups are the check.
    pub fn send(
        &mut self,
        src: ProcId,
        dst: ProcId,
        payload_words: u64,
    ) -> Result<Cycles, SendError> {
        let processors = self.processors;
        let Some(&(ax, ay)) = self.coords.get(src.index()) else {
            return Err(SendError::SrcOutOfRange {
                proc: src,
                processors,
            });
        };
        let Some(&(bx, by)) = self.coords.get(dst.index()) else {
            return Err(SendError::DstOutOfRange {
                proc: dst,
                processors,
            });
        };
        if src == dst {
            return Ok(Cycles::ZERO);
        }
        let words = HEADER_WORDS + payload_words;
        let hops = ax.abs_diff(bx) + ay.abs_diff(by);
        self.traffic.record(words, hops);
        Ok(LAUNCH + PER_HOP * u64::from(hops))
    }

    /// [`Network::send`] plus a trace record stamped `at` — for callers that
    /// know the simulated time (protocol-internal sends inside the coherence
    /// model are summarised by its own `access` hook instead).
    pub fn send_at(
        &mut self,
        at: Cycles,
        src: ProcId,
        dst: ProcId,
        payload_words: u64,
    ) -> Result<Cycles, SendError> {
        let latency = self.send(src, dst, payload_words)?;
        if src != dst {
            self.tracer.emit_with(|| TraceEvent {
                at,
                source: "network",
                kind: "send",
                proc: Some(src),
                detail: format!(
                    "dst={} words={} latency={}",
                    dst.0,
                    HEADER_WORDS + payload_words,
                    latency.get()
                ),
            });
        }
        Ok(latency)
    }

    /// Traffic accumulated so far.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Reset traffic counters (used to exclude warm-up phases from the
    /// measured window, as the experiments do).
    pub fn reset_traffic(&mut self) {
        self.traffic = TrafficStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(25)
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut n = net();
        // P0=(0,0), P24=(4,4) on a 5x5 mesh: 8 hops.
        assert_eq!(n.send(ProcId(0), ProcId(24), 0), Ok(Cycles(10 + 8)));
        assert_eq!(n.send(ProcId(0), ProcId(1), 0), Ok(Cycles(11)));
    }

    #[test]
    fn self_send_is_free() {
        let mut n = net();
        assert_eq!(n.send(ProcId(3), ProcId(3), 100), Ok(Cycles::ZERO));
        assert_eq!(n.traffic().messages, 0);
    }

    #[test]
    fn send_books_header_plus_payload_times_hops() {
        let mut n = net();
        let lat = n.send(ProcId(0), ProcId(2), 6).unwrap(); // 2 hops
        assert_eq!(lat, Cycles(12));
        assert_eq!(n.traffic().messages, 1);
        assert_eq!(n.traffic().words, 8);
        assert_eq!(n.traffic().word_hops, 16);
    }

    #[test]
    fn reset_traffic_clears_counters() {
        let mut n = net();
        n.send(ProcId(0), ProcId(1), 4).unwrap();
        n.reset_traffic();
        assert_eq!(n.traffic(), &TrafficStats::default());
    }

    #[test]
    fn out_of_range_routes_are_rejected_not_booked() {
        // 24 processors sit on a 5×5 mesh: P24 has mesh coordinates but is
        // outside the machine, so sends naming it must fail.
        let mut n = Network::new(24);
        assert_eq!(
            n.send(ProcId(0), ProcId(24), 4),
            Err(SendError::DstOutOfRange {
                proc: ProcId(24),
                processors: 24
            })
        );
        assert_eq!(
            n.send(ProcId(99), ProcId(0), 4),
            Err(SendError::SrcOutOfRange {
                proc: ProcId(99),
                processors: 24
            })
        );
        // Even a self-send to a nonexistent processor is rejected.
        assert!(n.send(ProcId(30), ProcId(30), 0).is_err());
        assert_eq!(n.traffic().messages, 0, "rejected sends book no traffic");
        assert_eq!(
            n.send_at(Cycles(5), ProcId(1), ProcId(25), 4),
            Err(SendError::DstOutOfRange {
                proc: ProcId(25),
                processors: 24
            })
        );
    }

    #[test]
    fn latency_symmetric() {
        let mut n = net();
        for a in 0..25u32 {
            for b in 0..25u32 {
                assert_eq!(
                    n.send(ProcId(a), ProcId(b), 0),
                    n.send(ProcId(b), ProcId(a), 0)
                );
            }
        }
    }

    #[test]
    fn mean_transit_near_paper_constant() {
        // On the 88-processor machine of the counting-network experiments the
        // mean message transit should land near Table 5's 17 cycles.
        let mut n = Network::new(88);
        let mut total = 0u64;
        let mut count = 0u64;
        for a in 0..88u32 {
            for b in 0..88u32 {
                if a != b {
                    total += n.send(ProcId(a), ProcId(b), 0).unwrap().get();
                    count += 1;
                }
            }
        }
        let mean = total as f64 / count as f64;
        assert!((14.0..20.0).contains(&mean), "mean transit {mean}");
    }
}
