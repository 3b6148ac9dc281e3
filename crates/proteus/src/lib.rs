//! # proteus — a deterministic discrete-event multiprocessor simulator
//!
//! Substrate for the reproduction of *Computation Migration: Enhancing
//! Locality for Distributed-Memory Parallel Systems* (Hsieh, Wang, Weihl,
//! PPoPP 1993). The paper ran its Prelude runtime on the Proteus simulator of
//! an Alewife-like machine; this crate rebuilds the pieces of that substrate
//! the experiments depend on:
//!
//! * a deterministic [`event::EventQueue`] and [`engine::Engine`] driver,
//! * a 2-D mesh [`topology::Mesh`] with a latency/bandwidth-accounting
//!   [`network::Network`],
//! * serial-service [`processor::Processor`]s whose queueing produces the
//!   paper's resource-contention effects,
//! * a 64 KB / 16-byte-line [`cache::Cache`] per processor under a full-map
//!   directory MSI protocol ([`coherence::CoherenceSystem`]) — the paper's
//!   "data migration" mechanism,
//! * traffic, cache and latency [`stats`]; the per-category cycle
//!   accounting that regenerates the paper's Table 5 lives in the runtime.
//!
//! Everything is single-threaded and seeded: identical configurations replay
//! identical histories, which the experiment harness and property tests rely
//! on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod coherence;
pub mod engine;
pub mod event;
pub mod fault;
pub mod ids;
pub mod network;
pub mod processor;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use cache::{Cache, CacheConfig, LineState};
pub use coherence::{Access, AccessOutcome, CoherenceCosts, CoherenceSystem, DirectoryAllocations};
pub use engine::{Engine, Simulation};
pub use event::{EventQueue, QueueCounters};
pub use fault::{FaultInjector, FaultPlan, FaultStats, MessageFate};
pub use ids::ProcId;
pub use network::{Network, SendError};
pub use processor::{Processor, ProcessorStats};
pub use stats::{CacheStats, Histogram, TrafficStats};
pub use time::Cycles;
pub use topology::Mesh;
pub use trace::{RingBufferSink, TraceEvent, TraceSink, Tracer};
