//! Interconnection network model: latency and bandwidth accounting.
//!
//! Latency of a message is `launch + per_hop × hops(src, dst)`. The constants
//! default so that a typical cross-machine message on the paper's 24–88
//! processor meshes costs about the 17 cycles of "network transit" reported
//! in Table 5. Bandwidth is accounted in word-hops (see [`TrafficStats`]).

use crate::ids::ProcId;
use crate::stats::TrafficStats;
use crate::time::Cycles;
use crate::topology::Mesh;
use crate::trace::{TraceEvent, Tracer};

/// Tunable network parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Fixed cost to launch a message onto the wire, in cycles.
    pub launch: Cycles,
    /// Per-hop propagation cost, in cycles.
    pub per_hop: Cycles,
    /// Words of header prepended to every message payload.
    pub header_words: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        // launch 10 + ~5-7 mean hops × 1 ≈ the paper's 17-cycle transit.
        NetworkConfig {
            launch: Cycles(10),
            per_hop: Cycles(1),
            header_words: 2,
        }
    }
}

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
    mesh: Mesh,
    processors: u32,
    /// Grid coordinates of every processor, precomputed: hop counts are on
    /// the critical path of every message and coherence transaction, and the
    /// mesh's division-based coordinate math would dominate them.
    coords: Vec<(u32, u32)>,
    config: NetworkConfig,
    traffic: TrafficStats,
    tracer: Tracer,
}

impl Network {
    /// A network over the most-square mesh for `processors` nodes.
    pub fn new(processors: u32, config: NetworkConfig) -> Network {
        let mesh = Mesh::for_processors(processors);
        let coords = (0..processors).map(|p| mesh.coords(ProcId(p))).collect();
        Network {
            mesh,
            processors,
            coords,
            config,
            traffic: TrafficStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The configured processor count (may be less than the mesh capacity).
    pub fn processors(&self) -> u32 {
        self.processors
    }

    /// Attach a tracer; [`Network::send_at`] records one event per message.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Hop count between two processors.
    pub fn hops(&self, src: ProcId, dst: ProcId) -> u32 {
        match (
            self.coords.get(src.0 as usize),
            self.coords.get(dst.0 as usize),
        ) {
            (Some(&(ax, ay)), Some(&(bx, by))) => ax.abs_diff(bx) + ay.abs_diff(by),
            // Processors outside the machine still get mesh geometry (the
            // precomputed table only covers configured processors).
            _ => self.mesh.hops(src, dst),
        }
    }

    /// Transit latency for a message from `src` to `dst` (independent of
    /// size: the paper's model charges marshalling separately and treats the
    /// network as pipelined).
    pub fn latency(&self, src: ProcId, dst: ProcId) -> Cycles {
        if src == dst {
            return Cycles::ZERO;
        }
        self.config.launch + self.config.per_hop * u64::from(self.hops(src, dst))
    }

    /// Send a message of `payload_words` words: books traffic (header +
    /// payload, times hops) and returns the transit latency the caller should
    /// use to schedule the arrival event.
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
        let words = self.config.header_words + payload_words;
        let hops = ax.abs_diff(bx) + ay.abs_diff(by);
        self.traffic.record(words, hops);
        Ok(self.config.launch + self.config.per_hop * u64::from(hops))
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
                    self.config.header_words + payload_words,
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
        Network::new(25, NetworkConfig::default())
    }

    #[test]
    fn latency_scales_with_hops() {
        let n = net();
        // P0=(0,0), P24=(4,4) on a 5x5 mesh: 8 hops.
        assert_eq!(n.latency(ProcId(0), ProcId(24)), Cycles(10 + 8));
        assert_eq!(n.latency(ProcId(0), ProcId(1)), Cycles(11));
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
        let mut n = Network::new(24, NetworkConfig::default());
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
        let n = net();
        for a in 0..25u32 {
            for b in 0..25u32 {
                assert_eq!(
                    n.latency(ProcId(a), ProcId(b)),
                    n.latency(ProcId(b), ProcId(a))
                );
            }
        }
    }

    #[test]
    fn mean_transit_near_paper_constant() {
        // On the 88-processor machine of the counting-network experiments the
        // mean message transit should land near Table 5's 17 cycles.
        let n = Network::new(88, NetworkConfig::default());
        let mut total = 0u64;
        let mut count = 0u64;
        for a in 0..88u32 {
            for b in 0..88u32 {
                if a != b {
                    total += n.latency(ProcId(a), ProcId(b)).get();
                    count += 1;
                }
            }
        }
        let mean = total as f64 / count as f64;
        assert!((14.0..20.0).contains(&mean), "mean transit {mean}");
    }
}
