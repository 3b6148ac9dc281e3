//! # migrate-apps — the paper's two applications
//!
//! The evaluation workloads of *Computation Migration* (PPoPP 1993), built
//! on the [`migrate_rt`] runtime:
//!
//! * [`counting`] — an eight-by-eight bitonic **counting network** (§4.1):
//!   six stages of four balancers on twenty-four processors, 8–64 requester
//!   threads, think times 0 and 10 000 cycles (Figures 2 and 3);
//! * [`btree`] — a **distributed B-tree** (§4.2): 10 000 keys, fanout ≤ 100
//!   (or 10 for the small-node variant), nodes random over 48 processors,
//!   16 requesters, with optional software replication of the root
//!   (Tables 1–4);
//! * [`workload`] — deterministic seeded request streams, so every scheme in
//!   a table sees an identical workload, and the [`workload::Requester`]
//!   thread that issues either app's operations.
//!
//! Both applications are written once against the runtime's frame/object
//! API; the *only* thing an experiment changes is the
//! [`Scheme`](migrate_rt::Scheme) — which is the paper's point.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod counting;
pub mod workload;

pub use migrate_rt::Goid;
