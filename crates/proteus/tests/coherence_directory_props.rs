//! Differential property tests: the paged per-home directory, whose 12-byte
//! entries keep the P0–P63 sharer word (P64–P127 go to a page's side array),
//! the low 31 bits of the line's occupancy time (bits 31–62 go to a second
//! side array) and a dirty line's owner as its single sharer, must be
//! observationally
//! identical to the old hash-map directory with an explicit owner — same
//! access outcomes, protocol counters and network traffic after every
//! access, and the same per-cache counters at the end — under arbitrary
//! reads, writes and multi-line range accesses over several homes, with
//! caches small enough that evictions happen all the time. A second
//! property runs at 128 processors, so requesters, homes and owners land in
//! both sharer words, and sharers above P63 join and leave pages that
//! P0–P63 allocated. A third runs that machine from just below 2^31, 2^32
//! or 2^62 + 2^31 cycles, so line occupancies cross into the high-time side
//! array partway through the run.

use std::collections::HashMap;

use proptest::prelude::*;
use proteus::coherence::{
    make_addr, Access, AccessOutcome, ProtocolStats, CACHE_OP, DIRECTORY, HIT, HW_SHARER_LIMIT,
    MEMORY,
};
use proteus::{
    Cache, CacheConfig, CacheStats, CoherenceCosts, CoherenceSystem, Cycles, LineState, Network,
    ProcId,
};

/// Processors of the small machine.
const PROCS: u32 = 6;
/// Processors of the largest machine the sharer mask covers.
const MAX_PROCS: u32 = 128;

fn tiny_cache() -> CacheConfig {
    // 8 sets x 2 ways of 16-byte lines: evictions within a few accesses.
    CacheConfig {
        size_bytes: 256,
        line_bytes: 16,
        ways: 2,
    }
}

fn xfer(net: &mut Network, src: ProcId, dst: ProcId, payload_words: u64) -> Cycles {
    net.send(src, dst, payload_words)
        .expect("coherence protocol addressed a processor outside the machine")
}

#[derive(Copy, Clone, Default)]
struct RefEntry {
    owner: Option<ProcId>,
    sharers: u128,
}

/// The pre-optimization protocol, reproduced as the reference model: one
/// hash map from global line number to directory entry, probed with
/// `entry` / `get_mut`, plus a second hash map of per-line occupancy.
struct RefCoherence {
    caches: Vec<Cache>,
    directory: HashMap<u64, RefEntry>,
    busy_until: HashMap<u64, Cycles>,
    costs: CoherenceCosts,
    line_shift: u32,
    words_per_line: u64,
    stats: ProtocolStats,
}

impl RefCoherence {
    fn new(processors: u32, cache: CacheConfig, costs: CoherenceCosts) -> RefCoherence {
        RefCoherence {
            caches: (0..processors).map(|_| Cache::new(cache.clone())).collect(),
            directory: HashMap::new(),
            busy_until: HashMap::new(),
            costs,
            line_shift: cache.line_bytes.trailing_zeros(),
            words_per_line: cache.words_per_line(),
            stats: ProtocolStats::default(),
        }
    }

    fn home_of_line(&self, line: u64) -> ProcId {
        ProcId(((line << self.line_shift) >> 32) as u32)
    }

    fn access(
        &mut self,
        proc: ProcId,
        addr: u64,
        kind: Access,
        net: &mut Network,
        at: Cycles,
    ) -> AccessOutcome {
        self.line_access(proc, addr >> self.line_shift, kind, net, at)
    }

    fn access_range(
        &mut self,
        proc: ProcId,
        addr: u64,
        bytes: u64,
        kind: Access,
        net: &mut Network,
        at: Cycles,
    ) -> AccessOutcome {
        let first = addr >> self.line_shift;
        let last = (addr + bytes.max(1) - 1) >> self.line_shift;
        let mut latency = Cycles::ZERO;
        let mut all_hit = true;
        for line in first..=last {
            let out = self.line_access(proc, line, kind, net, at + latency);
            latency += out.latency;
            all_hit &= out.hit;
        }
        AccessOutcome {
            latency,
            hit: all_hit,
        }
    }

    fn line_access(
        &mut self,
        proc: ProcId,
        line: u64,
        kind: Access,
        net: &mut Network,
        at: Cycles,
    ) -> AccessOutcome {
        let out = match kind {
            Access::Read => self.read(proc, line, net),
            Access::Write => self.write(proc, line, net),
        };
        if out.hit {
            return out;
        }
        let free = self.busy_until.get(&line).copied().unwrap_or(Cycles::ZERO);
        let start = at.max(free);
        let wait = start - at;
        self.busy_until.insert(line, start + out.latency);
        AccessOutcome {
            latency: wait + out.latency,
            hit: false,
        }
    }

    fn read(&mut self, proc: ProcId, line: u64, net: &mut Network) -> AccessOutcome {
        if self.caches[proc.index()].hit_read(line).is_some() {
            return AccessOutcome {
                latency: HIT,
                hit: true,
            };
        }
        self.stats.read_misses += 1;
        let home = self.home_of_line(line);
        let owner = self.directory.entry(line).or_default().owner;
        let mut latency = xfer(net, proc, home, 1) + DIRECTORY;
        match owner {
            Some(o) if o != proc => {
                self.stats.owner_forwards += 1;
                latency += xfer(net, home, o, 1) + CACHE_OP;
                latency += xfer(net, o, proc, self.words_per_line);
                xfer(net, o, home, self.words_per_line);
                self.caches[o.index()].set_state(line, LineState::Shared);
                let entry = self.directory.get_mut(&line).expect("entry exists");
                entry.owner = None;
                entry.sharers |= 1 << o.0;
                entry.sharers |= 1 << proc.0;
            }
            _ => {
                latency += MEMORY + xfer(net, home, proc, self.words_per_line);
                let entry = self.directory.get_mut(&line).expect("entry exists");
                entry.owner = None;
                entry.sharers |= 1 << proc.0;
            }
        }
        self.fill(proc, line, LineState::Shared, net);
        AccessOutcome {
            latency,
            hit: false,
        }
    }

    fn write(&mut self, proc: ProcId, line: u64, net: &mut Network) -> AccessOutcome {
        if self.caches[proc.index()].hit_write(line) == Some(LineState::Modified) {
            return AccessOutcome {
                latency: HIT,
                hit: true,
            };
        }
        self.stats.write_misses += 1;
        let home = self.home_of_line(line);
        let entry = *self.directory.entry(line).or_default();
        let sharers = entry.sharers & !(1 << proc.0);
        let mut latency = xfer(net, proc, home, 1) + DIRECTORY;
        if let Some(o) = entry.owner.filter(|&o| o != proc) {
            self.stats.owner_forwards += 1;
            latency += xfer(net, home, o, 1) + CACHE_OP;
            latency += xfer(net, o, proc, self.words_per_line);
            self.caches[o.index()].invalidate(line);
        } else {
            let mut inval_wait = Cycles::ZERO;
            for s in (0..MAX_PROCS)
                .filter(|&s| (sharers >> s) & 1 == 1)
                .map(ProcId)
            {
                self.stats.invalidations_sent += 1;
                let there = xfer(net, home, s, 1);
                let back = xfer(net, s, home, 1);
                inval_wait = inval_wait.max(there + CACHE_OP + back);
                self.caches[s.index()].invalidate(line);
            }
            let count = sharers.count_ones() as usize;
            if count > HW_SHARER_LIMIT {
                let overflow = (count - HW_SHARER_LIMIT) as u64;
                self.stats.limitless_traps += 1;
                inval_wait +=
                    self.costs.limitless_trap + self.costs.limitless_per_sharer * overflow;
            }
            latency += inval_wait;
            if self.caches[proc.index()].probe(line).is_some() {
                latency += xfer(net, home, proc, 1);
            } else {
                latency += MEMORY + xfer(net, home, proc, self.words_per_line);
            }
        }
        let entry = self.directory.get_mut(&line).expect("entry exists");
        entry.owner = Some(proc);
        entry.sharers = 1 << proc.0;
        self.fill(proc, line, LineState::Modified, net);
        AccessOutcome {
            latency,
            hit: false,
        }
    }

    fn fill(&mut self, proc: ProcId, line: u64, state: LineState, net: &mut Network) {
        if let Some(ev) = self.caches[proc.index()].fill(line, state) {
            let ev_home = self.home_of_line(ev.line);
            if let Some(entry) = self.directory.get_mut(&ev.line) {
                entry.sharers &= !(1 << proc.0);
                if entry.owner == Some(proc) {
                    entry.owner = None;
                }
            }
            if ev.state == LineState::Modified {
                self.stats.eviction_writebacks += 1;
                xfer(net, proc, ev_home, self.words_per_line);
            }
        }
    }
}

#[derive(Clone, Debug)]
struct Op {
    proc: u32,
    home: u32,
    /// Byte offset within the home's memory.
    offset: u64,
    /// 0 for a single-word access, else an `access_range` length in bytes.
    range: u64,
    write: bool,
    /// Cycles the issue time advances before this access.
    advance: u64,
}

/// Accesses by processors drawn from `procs` to homes drawn from `homes`.
fn op_strategy(procs: &'static [u32], homes: &'static [u32]) -> impl Strategy<Value = Op> {
    (
        (0..procs.len(), 0..homes.len()),
        0u64..96,
        0u64..4,
        0u64..64,
        any::<bool>(),
        0u64..120,
    )
        .prop_map(move |((proc, home), slot, span, len, write, advance)| Op {
            proc: procs[proc],
            home: homes[home],
            // A few far-out lines make home tables grow in big steps.
            offset: if slot >= 90 { slot * 1024 } else { slot * 8 },
            range: if span == 0 { 0 } else { len + 1 },
            write,
            advance,
        })
}

/// Every processor of the small machine.
const SMALL: [u32; PROCS as usize] = [0, 1, 2, 3, 4, 5];

/// A dozen processors of the 128-processor machine: four at each end and
/// four around P64, so lines gather sharers and owners in both sharer words
/// and across their boundary.
const WIDE: [u32; 12] = [0, 1, 2, 3, 62, 63, 64, 65, 124, 125, 126, 127];

/// The processors of [`WIDE`] whose sharer bits sit in the first word.
const LOW: [u32; 6] = [0, 1, 2, 3, 62, 63];

/// A run on the 128-processor machine in three phases: P0–P63 requesters
/// allocate the pages (`first`); requesters from the whole machine join
/// and leave sharer sets on them (`mixed`), so side arrays appear partway
/// through the run; then P0–P63 requesters write every line the run
/// touched, so every sharer above P63 leaves and the side-array words must
/// all go back to 0 (a stale bit fails `check_invariants`, whose sharer
/// sets must equal the caches holding each line).
fn phased(first: Vec<Op>, mixed: Vec<Op>) -> Vec<Op> {
    let sweep: Vec<Op> = first
        .iter()
        .chain(&mixed)
        .enumerate()
        .map(|(i, op)| Op {
            proc: LOW[i % LOW.len()],
            write: true,
            ..op.clone()
        })
        .collect();
    [first, mixed, sweep].concat()
}

/// Start times just below the boundaries of the stored time bits: the first
/// time with bit 31 set, the first with bit 32 set (the high bits step from
/// 1 to 2 as the low bits wrap), and one near the top of the 63-bit time.
const LATE_ORIGINS: [u64; 3] = [
    (1 << 31) - 2_000,
    (1 << 32) - 2_000,
    (1 << 62) + (1 << 31) - 2_000,
];

/// Replay `ops` on the paged directory and the reference on a machine of
/// `processors` from time `origin`, comparing every outcome and the traffic
/// after every access.
fn replay(processors: u32, origin: Cycles, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut paged = CoherenceSystem::new(processors, tiny_cache(), CoherenceCosts::default());
    let mut paged_net = Network::new(processors);
    let mut reference = RefCoherence::new(processors, tiny_cache(), CoherenceCosts::default());
    let mut ref_net = Network::new(processors);
    let mut at = origin;
    for (i, op) in ops.iter().enumerate() {
        at += Cycles(op.advance);
        let kind = if op.write {
            Access::Write
        } else {
            Access::Read
        };
        let proc = ProcId(op.proc);
        let addr = make_addr(ProcId(op.home), op.offset);
        let (got, want) = if op.range == 0 {
            (
                paged.access(proc, addr, kind, &mut paged_net, at),
                reference.access(proc, addr, kind, &mut ref_net, at),
            )
        } else {
            (
                paged.access_range(proc, addr, op.range, kind, &mut paged_net, at),
                reference.access_range(proc, addr, op.range, kind, &mut ref_net, at),
            )
        };
        prop_assert_eq!(got, want, "access {} ({:?})", i, op);
        prop_assert_eq!(paged.stats(), &reference.stats, "access {} ({:?})", i, op);
        prop_assert_eq!(
            paged_net.traffic(),
            ref_net.traffic(),
            "access {} ({:?})",
            i,
            op
        );
    }
    for p in 0..processors {
        let want: &CacheStats = reference.caches[p as usize].stats();
        prop_assert_eq!(paged.cache_stats(ProcId(p)), want, "cache of P{}", p);
    }
    paged.check_invariants().map_err(TestCaseError::fail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_directory_matches_hash_map_directory(
        ops in proptest::collection::vec(op_strategy(&SMALL, &SMALL), 1..300)
    ) {
        replay(PROCS, Cycles::ZERO, &ops)?;
    }

    #[test]
    fn paged_directory_matches_at_128_processors_across_both_sharer_words(
        first in proptest::collection::vec(op_strategy(&LOW, &WIDE), 1..100),
        mixed in proptest::collection::vec(op_strategy(&WIDE, &WIDE), 1..200),
    ) {
        replay(MAX_PROCS, Cycles::ZERO, &phased(first, mixed))?;
    }

    #[test]
    fn paged_directory_matches_with_occupancy_past_2_31(
        origin in 0..LATE_ORIGINS.len(),
        first in proptest::collection::vec(op_strategy(&LOW, &WIDE), 1..100),
        mixed in proptest::collection::vec(op_strategy(&WIDE, &WIDE), 1..200),
    ) {
        replay(MAX_PROCS, Cycles(LATE_ORIGINS[origin]), &phased(first, mixed))?;
    }
}
