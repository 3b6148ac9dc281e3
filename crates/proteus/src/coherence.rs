//! Directory-based cache coherence (data migration substrate).
//!
//! This is the "data migration" mechanism of the paper: an Alewife-style
//! invalidation protocol with a full-map directory at each line's home node.
//! The protocol is driven as a *synchronous oracle*: an access computes its
//! latency and immediately applies all directory/cache side effects, booking
//! every protocol message into the network's traffic statistics. DESIGN.md §6
//! discusses the fidelity trade-off (Proteus itself used augmented direct
//! execution).
//!
//! Addresses are global: the home processor is encoded in the high 32 bits
//! (see [`make_addr`]), so any component can locate a line's directory
//! without a translation table — the paper's machines likewise derived home
//! nodes from physical addresses.

use crate::cache::{Cache, CacheConfig, LineState};
use crate::ids::ProcId;
use crate::network::Network;
use crate::stats::CacheStats;
use crate::time::Cycles;
use crate::trace::{TraceEvent, Tracer};

/// Build a global shared-memory address: `home` in the high bits, byte
/// `offset` (< 2^32) within that node's memory in the low bits.
#[inline]
pub fn make_addr(home: ProcId, offset: u64) -> u64 {
    debug_assert!(offset < (1 << 32), "per-node offset overflow");
    (u64::from(home.0) << 32) | offset
}

/// The home processor of a global address.
#[inline]
pub fn home_of_addr(addr: u64) -> ProcId {
    ProcId((addr >> 32) as u32)
}

const OUTSIDE_MACHINE: &str = "coherence protocol addressed a processor outside the machine";

/// Protocol-internal transfer. The directory only ever names processors of
/// this machine, so a rejected route here is a model bug worth stopping on.
#[inline]
fn xfer(net: &mut Network, src: ProcId, dst: ProcId, payload_words: u64) -> Cycles {
    net.send(src, dst, payload_words).expect(OUTSIDE_MACHINE)
}

/// The processors sharing a line, as a bitmask. The paper's machines top out
/// at 88 processors, so 128 bits cover every configuration this simulator
/// accepts (asserted in [`CoherenceSystem::new`]); membership updates are
/// single bit operations with no per-entry heap churn.
#[derive(Copy, Clone, Default, PartialEq, Eq)]
struct SharerSet(u128);

impl SharerSet {
    fn insert(&mut self, p: ProcId) {
        self.0 |= 1u128 << p.0;
    }

    fn remove(&mut self, p: ProcId) {
        self.0 &= !(1u128 << p.0);
    }

    fn clear(&mut self) {
        self.0 = 0;
    }

    fn contains(&self, p: ProcId) -> bool {
        (self.0 >> p.0) & 1 == 1
    }

    fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    fn iter(&self) -> SharerIter {
        SharerIter(self.0)
    }
}

impl std::fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending-`ProcId` iterator over a [`SharerSet`].
struct SharerIter(u128);

impl Iterator for SharerIter {
    type Item = ProcId;

    fn next(&mut self) -> Option<ProcId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(ProcId(i))
    }
}

/// Kind of memory access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Access {
    /// Load.
    Read,
    /// Store (or atomic read-modify-write).
    Write,
}

/// Protocol cost constants, in cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoherenceCosts {
    /// A cache hit.
    pub hit: Cycles,
    /// Directory lookup/update at the home node.
    pub directory: Cycles,
    /// Memory array access at the home node.
    pub memory: Cycles,
    /// Cache-array manipulation at a third party (downgrade/flush).
    pub cache_op: Cycles,
    /// Interval between test-and-set probes of a contended lock line by a
    /// spinning processor.
    pub spin_interval: Cycles,
    /// Cap on modelled spin probes per lock acquisition (bounds the
    /// synthetic burst; real spinners back off).
    pub max_spin_reads: u32,
    /// LimitLESS hardware pointer count (Alewife: 5). Invalidating more
    /// sharers than this traps to software at the home node.
    pub hw_sharer_limit: usize,
    /// Fixed cost of the LimitLESS software trap.
    pub limitless_trap: Cycles,
    /// Per-sharer cost of software-issued invalidations inside the trap
    /// (sent serially, unlike the parallel hardware case).
    pub limitless_per_sharer: Cycles,
    /// Extra critical-section cycles when a lock acquisition was contended:
    /// spinners steal the lock line mid-section, forcing the holder to
    /// re-fetch it, and the resulting bursts take LimitLESS traps at the
    /// directory. The synchronous oracle cannot interleave those thefts
    /// event-by-event (DESIGN.md §6.1), so their aggregate cost is charged
    /// here, on contended acquisitions only.
    pub contended_lock_penalty: Cycles,
}

impl Default for CoherenceCosts {
    fn default() -> Self {
        CoherenceCosts {
            hit: Cycles(2),
            directory: Cycles(5),
            memory: Cycles(8),
            cache_op: Cycles(4),
            spin_interval: Cycles(150),
            max_spin_reads: 4,
            hw_sharer_limit: 5,
            limitless_trap: Cycles(50),
            limitless_per_sharer: Cycles(15),
            contended_lock_penalty: Cycles(450),
        }
    }
}

/// Counters for protocol activity beyond per-cache hit/miss stats.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Read transactions that required the directory.
    pub read_misses: u64,
    /// Write transactions that required the directory.
    pub write_misses: u64,
    /// Invalidation messages sent to sharers.
    pub invalidations_sent: u64,
    /// LimitLESS software traps taken (sharer count exceeded the hardware
    /// pointers).
    pub limitless_traps: u64,
    /// Interventions forwarded to a Modified owner.
    pub owner_forwards: u64,
    /// Writebacks caused by eviction of Modified lines.
    pub eviction_writebacks: u64,
}

/// The home directory's state for one line.
#[derive(Copy, Clone, Debug, Default)]
struct DirEntry {
    owner: Option<ProcId>,
    sharers: SharerSet,
    /// Occupancy: a line in the middle of a protocol transaction cannot
    /// serve the next request until this time — this is what serializes
    /// bursts on hot (write-shared) lines.
    busy_until: Cycles,
}

/// Outcome of one shared-memory access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Latency the accessing processor stalls for.
    pub latency: Cycles,
    /// Whether the access hit in the local cache.
    pub hit: bool,
}

/// The machine-wide coherence fabric: one cache per processor plus the
/// distributed full-map directory.
#[derive(Clone, Debug)]
pub struct CoherenceSystem {
    caches: Vec<Cache>,
    /// The full-map directory, kept where Alewife keeps it: at each line's
    /// home. `directory[home][offset]` is the entry of the line at
    /// node-local line offset `offset` in `home`'s memory. Objects are
    /// bump-allocated densely from offset 0 in each home's address space, so
    /// a home's table is as long as the highest line ever missed there and
    /// grows on demand; a miss indexes it instead of hashing.
    directory: Vec<Vec<DirEntry>>,
    costs: CoherenceCosts,
    /// `line_bytes.trailing_zeros()`: line math is a shift, not a division.
    line_shift: u32,
    /// Mask of a line number's node-local offset bits (below the home).
    offset_mask: u64,
    words_per_line: u64,
    stats: ProtocolStats,
    tracer: Tracer,
}

impl CoherenceSystem {
    /// A coherence system for `processors` nodes with the given cache
    /// geometry and protocol costs.
    pub fn new(processors: u32, cache: CacheConfig, costs: CoherenceCosts) -> CoherenceSystem {
        assert!(
            cache.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            processors <= 128,
            "the sharer bitmask covers at most 128 processors"
        );
        let line_shift = cache.line_bytes.trailing_zeros();
        let words_per_line = cache.words_per_line();
        CoherenceSystem {
            caches: (0..processors).map(|_| Cache::new(cache.clone())).collect(),
            directory: vec![Vec::new(); processors as usize],
            costs,
            line_shift,
            offset_mask: (1u64 << (32 - line_shift)) - 1,
            words_per_line,
            stats: ProtocolStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer. One event is recorded per *missing* line access
    /// (hits are far too numerous to trace and are already counted in
    /// [`CacheStats`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Line-granular address containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Home processor of a line.
    #[inline]
    pub fn home_of_line(&self, line: u64) -> ProcId {
        home_of_addr(line << self.line_shift)
    }

    /// Perform one access by `proc` to global byte address `addr`, issued at
    /// simulated time `at`.
    ///
    /// Applies all protocol side effects immediately and books every protocol
    /// message into `net`; returns the latency the accessing processor
    /// stalls. Misses queue behind any in-flight transaction on the same
    /// line (line occupancy), which serializes contended hot lines.
    pub fn access(
        &mut self,
        proc: ProcId,
        addr: u64,
        kind: Access,
        net: &mut Network,
        at: Cycles,
    ) -> AccessOutcome {
        let line = self.line_of(addr);
        self.line_access(proc, line, kind, net, at)
    }

    /// The directory coordinates `(home, node-local line offset)` of `line`.
    #[inline]
    fn coords(&self, line: u64) -> (usize, usize) {
        let home = self.home_of_line(line).index();
        (home, (line & self.offset_mask) as usize)
    }

    /// The directory slot of `line`, growing the home's table to cover it.
    /// A home outside the machine is a model bug, the same one [`xfer`]
    /// stops on.
    fn slot(&mut self, line: u64) -> (usize, usize) {
        let (home, offset) = self.coords(line);
        let table = self.directory.get_mut(home).expect(OUTSIDE_MACHINE);
        if offset >= table.len() {
            table.resize(offset + 1, DirEntry::default());
        }
        (home, offset)
    }

    /// The directory entry of `line`, if the directory has ever seen it.
    fn entry_mut(&mut self, line: u64) -> Option<&mut DirEntry> {
        let (home, offset) = self.coords(line);
        self.directory.get_mut(home)?.get_mut(offset)
    }

    fn line_access(
        &mut self,
        proc: ProcId,
        line: u64,
        kind: Access,
        net: &mut Network,
        at: Cycles,
    ) -> AccessOutcome {
        let cache = &mut self.caches[proc.index()];
        let hit = match kind {
            Access::Read => cache.hit_read(line).is_some(),
            Access::Write => cache.hit_modified(line),
        };
        if hit {
            return AccessOutcome {
                latency: self.costs.hit,
                hit: true,
            };
        }
        // One directory touch per miss: copy the entry out, run the
        // protocol against the copy, store it back before the fill (whose
        // eviction may update another line's entry).
        let (home, offset) = self.slot(line);
        let mut entry = self.directory[home][offset];
        let (latency, state) = match kind {
            Access::Read => (
                self.read_miss(proc, line, &mut entry, net),
                LineState::Shared,
            ),
            Access::Write => (
                self.write_miss(proc, line, &mut entry, net),
                LineState::Modified,
            ),
        };
        // Occupancy: queue behind the previous transaction on this line.
        let start = at.max(entry.busy_until);
        let wait = start - at;
        entry.busy_until = start + latency;
        self.directory[home][offset] = entry;
        self.fill(proc, line, state, net);
        self.tracer.emit_with(|| TraceEvent {
            at,
            source: "coherence",
            kind: "miss",
            proc: Some(proc),
            detail: format!(
                "line={line} op={kind:?} wait={} latency={}",
                wait.get(),
                latency.get()
            ),
        });
        AccessOutcome {
            latency: wait + latency,
            hit: false,
        }
    }

    /// Access a `bytes`-long field starting at `addr`: one protocol
    /// transaction per distinct line touched. Returns the summed latency.
    pub fn access_range(
        &mut self,
        proc: ProcId,
        addr: u64,
        bytes: u64,
        kind: Access,
        net: &mut Network,
        at: Cycles,
    ) -> AccessOutcome {
        let first = self.line_of(addr);
        let last = self.line_of(addr + bytes.max(1) - 1);
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

    /// A read miss by `proc` against the line's directory `entry`: books
    /// the protocol messages and returns the requester's latency.
    fn read_miss(
        &mut self,
        proc: ProcId,
        line: u64,
        entry: &mut DirEntry,
        net: &mut Network,
    ) -> Cycles {
        self.stats.read_misses += 1;
        let home = self.home_of_line(line);
        // Request to home directory (1 word: address).
        let mut latency = xfer(net, proc, home, 1) + self.costs.directory;
        match entry.owner {
            Some(o) if o != proc => {
                // Intervention: home forwards to owner; owner downgrades,
                // sends data to requester and a sharing writeback home.
                self.stats.owner_forwards += 1;
                latency += xfer(net, home, o, 1) + self.costs.cache_op;
                latency += xfer(net, o, proc, self.words_per_line);
                xfer(net, o, home, self.words_per_line); // writeback, off critical path
                self.caches[o.index()].set_state(line, LineState::Shared);
                entry.sharers.insert(o);
            }
            _ => {
                // Clean at home (or we were the stale "owner" after eviction):
                // memory supplies the line.
                latency += self.costs.memory + xfer(net, home, proc, self.words_per_line);
            }
        }
        entry.owner = None;
        entry.sharers.insert(proc);
        latency
    }

    /// A write miss (or Shared→Modified upgrade) by `proc` against the
    /// line's directory `entry`: books the protocol messages and returns the
    /// requester's latency.
    fn write_miss(
        &mut self,
        proc: ProcId,
        line: u64,
        entry: &mut DirEntry,
        net: &mut Network,
    ) -> Cycles {
        self.stats.write_misses += 1;
        let home = self.home_of_line(line);
        let mut sharers = entry.sharers;
        sharers.remove(proc);
        // Exclusive request to home (1 word: address).
        let mut latency = xfer(net, proc, home, 1) + self.costs.directory;
        if let Some(o) = entry.owner.filter(|&o| o != proc) {
            // Home forwards to the dirty owner; owner flushes to requester.
            self.stats.owner_forwards += 1;
            latency += xfer(net, home, o, 1) + self.costs.cache_op;
            latency += xfer(net, o, proc, self.words_per_line);
            self.caches[o.index()].invalidate(line);
        } else {
            // Invalidate the sharers. Up to the LimitLESS hardware pointer
            // count this happens in parallel (requester waits for the
            // slowest ack); sharers *beyond* the hardware pointers trap to
            // software at the home node, which issues their invalidations
            // serially — the cost that makes widely-shared lines expensive
            // to write.
            let mut inval_wait = Cycles::ZERO;
            for s in sharers.iter() {
                self.stats.invalidations_sent += 1;
                let there = xfer(net, home, s, 1);
                let back = xfer(net, s, home, 1);
                inval_wait = inval_wait.max(there + self.costs.cache_op + back);
                self.caches[s.index()].invalidate(line);
            }
            if sharers.len() > self.costs.hw_sharer_limit {
                let overflow = (sharers.len() - self.costs.hw_sharer_limit) as u64;
                self.stats.limitless_traps += 1;
                inval_wait +=
                    self.costs.limitless_trap + self.costs.limitless_per_sharer * overflow;
            }
            latency += inval_wait;
            // An upgrade (requester already holds the line Shared) gets an
            // exclusivity ack, not a second copy of the data; only a true
            // miss reads memory and ships the line.
            if self.caches[proc.index()].probe(line).is_some() {
                latency += xfer(net, home, proc, 1);
            } else {
                latency += self.costs.memory + xfer(net, home, proc, self.words_per_line);
            }
        }
        entry.owner = Some(proc);
        entry.sharers.clear();
        entry.sharers.insert(proc);
        latency
    }

    /// Insert the line locally and clean up any eviction in the directory.
    fn fill(&mut self, proc: ProcId, line: u64, state: LineState, net: &mut Network) {
        if let Some(ev) = self.caches[proc.index()].fill(line, state) {
            let ev_home = self.home_of_line(ev.line);
            if let Some(entry) = self.entry_mut(ev.line) {
                entry.sharers.remove(proc);
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

    /// The protocol cost constants in force.
    pub fn costs(&self) -> &CoherenceCosts {
        &self.costs
    }

    /// Protocol-level counters.
    pub fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    /// Per-processor cache counters.
    pub fn cache_stats(&self, proc: ProcId) -> &CacheStats {
        self.caches[proc.index()].stats()
    }

    /// Machine-wide aggregated cache counters.
    pub fn aggregate_cache_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for c in &self.caches {
            agg.merge(c.stats());
        }
        agg
    }

    /// Reset all counters (warm-up exclusion); cache and directory contents
    /// are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = ProtocolStats::default();
        for c in &mut self.caches {
            c.reset_stats();
        }
    }

    /// Check the protocol invariant for every directory entry:
    /// a Modified owner excludes all other sharers, and every recorded sharer
    /// actually holds the line. Entries are visited home by home in line
    /// order; that includes the never-missed lines below each home's highest
    /// missed line, whose empty entries hold trivially (no cache can hold a
    /// line that never missed). Used by property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let lines = self.directory.iter().enumerate().flat_map(|(home, table)| {
            let base = (home as u64) << (32 - self.line_shift);
            table
                .iter()
                .enumerate()
                .map(move |(offset, entry)| (base | offset as u64, entry))
        });
        for (line, entry) in lines {
            if let Some(o) = entry.owner {
                if entry.sharers.len() != 1 || !entry.sharers.contains(o) {
                    return Err(format!(
                        "line {line:#x}: owner {o:?} but sharers {:?}",
                        entry.sharers
                    ));
                }
                match self.caches[o.index()].probe(line) {
                    Some(LineState::Modified) => {}
                    other => {
                        return Err(format!(
                            "line {line:#x}: directory owner {o:?} holds {other:?}"
                        ))
                    }
                }
                for (i, c) in self.caches.iter().enumerate() {
                    if i != o.index() && c.probe(line).is_some() {
                        return Err(format!(
                            "line {line:#x}: owned by {o:?} but also cached at P{i}"
                        ));
                    }
                }
            } else {
                for (i, c) in self.caches.iter().enumerate() {
                    match c.probe(line) {
                        Some(LineState::Modified) => {
                            return Err(format!(
                                "line {line:#x}: P{i} Modified without directory ownership"
                            ))
                        }
                        Some(LineState::Shared) if !entry.sharers.contains(ProcId(i as u32)) => {
                            return Err(format!(
                                "line {line:#x}: P{i} caches line absent from sharer set"
                            ))
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;

    fn system() -> (CoherenceSystem, Network) {
        (
            CoherenceSystem::new(4, CacheConfig::default(), CoherenceCosts::default()),
            Network::new(4, NetworkConfig::default()),
        )
    }

    fn addr(home: u32, off: u64) -> u64 {
        make_addr(ProcId(home), off)
    }

    #[test]
    fn addr_encoding_round_trips() {
        let a = make_addr(ProcId(7), 1234);
        assert_eq!(home_of_addr(a), ProcId(7));
        assert_eq!(a & 0xFFFF_FFFF, 1234);
    }

    #[test]
    #[should_panic(expected = "coherence protocol addressed a processor outside the machine")]
    fn access_homed_outside_the_machine_is_diagnosed() {
        let (mut sys, mut net) = system();
        sys.access(ProcId(0), addr(4, 0), Access::Read, &mut net, Cycles::ZERO);
    }

    #[test]
    fn first_read_misses_then_hits() {
        let (mut sys, mut net) = system();
        let a = addr(1, 0);
        let miss = sys.access(ProcId(0), a, Access::Read, &mut net, Cycles::ZERO);
        assert!(!miss.hit);
        assert!(miss.latency > Cycles(10));
        let hit = sys.access(ProcId(0), a, Access::Read, &mut net, Cycles::ZERO);
        assert!(hit.hit);
        assert_eq!(hit.latency, Cycles(2));
        sys.check_invariants().unwrap();
    }

    #[test]
    fn local_read_still_charges_directory_but_no_traffic() {
        let (mut sys, mut net) = system();
        let a = addr(0, 0);
        let out = sys.access(ProcId(0), a, Access::Read, &mut net, Cycles::ZERO);
        assert!(!out.hit);
        // Home is self: no messages on the network.
        assert_eq!(net.traffic().messages, 0);
        assert_eq!(out.latency, Cycles(5 + 8));
    }

    #[test]
    fn write_invalidates_sharers() {
        let (mut sys, mut net) = system();
        let a = addr(0, 0);
        sys.access(ProcId(1), a, Access::Read, &mut net, Cycles::ZERO);
        sys.access(ProcId(2), a, Access::Read, &mut net, Cycles::ZERO);
        let before = net.traffic().messages;
        sys.access(ProcId(3), a, Access::Write, &mut net, Cycles::ZERO);
        // Invalidations + acks for P1 and P2, plus request and data.
        assert!(net.traffic().messages >= before + 5);
        assert_eq!(sys.stats().invalidations_sent, 2);
        let line = sys.line_of(a);
        // Sharers' caches no longer hold the line.
        assert_eq!(sys.cache_stats(ProcId(1)).invalidations_received, 1);
        assert_eq!(sys.cache_stats(ProcId(2)).invalidations_received, 1);
        sys.check_invariants().unwrap();
        // Writer now hits.
        let hit = sys.access(ProcId(3), a, Access::Write, &mut net, Cycles::ZERO);
        assert!(hit.hit);
        let _ = line;
    }

    #[test]
    fn read_of_dirty_line_forwards_to_owner() {
        let (mut sys, mut net) = system();
        let a = addr(0, 64);
        sys.access(ProcId(1), a, Access::Write, &mut net, Cycles::ZERO);
        let out = sys.access(ProcId(2), a, Access::Read, &mut net, Cycles::ZERO);
        assert!(!out.hit);
        assert_eq!(sys.stats().owner_forwards, 1);
        sys.check_invariants().unwrap();
        // Both now share read access.
        assert!(
            sys.access(ProcId(1), a, Access::Read, &mut net, Cycles::ZERO)
                .hit
        );
        assert!(
            sys.access(ProcId(2), a, Access::Read, &mut net, Cycles::ZERO)
                .hit
        );
    }

    #[test]
    fn write_after_write_migrates_ownership() {
        let (mut sys, mut net) = system();
        let a = addr(3, 16);
        sys.access(ProcId(0), a, Access::Write, &mut net, Cycles::ZERO);
        sys.access(ProcId(1), a, Access::Write, &mut net, Cycles::ZERO);
        sys.check_invariants().unwrap();
        assert!(
            sys.access(ProcId(1), a, Access::Write, &mut net, Cycles::ZERO)
                .hit
        );
        assert!(
            !sys.access(ProcId(0), a, Access::Write, &mut net, Cycles::ZERO)
                .hit
        );
    }

    #[test]
    fn shared_to_modified_upgrade_hits_directory() {
        let (mut sys, mut net) = system();
        let a = addr(2, 32);
        sys.access(ProcId(0), a, Access::Read, &mut net, Cycles::ZERO);
        let up = sys.access(ProcId(0), a, Access::Write, &mut net, Cycles::ZERO);
        assert!(!up.hit, "upgrade requires a directory transaction");
        sys.check_invariants().unwrap();
    }

    #[test]
    fn access_range_touches_each_line_once() {
        let (mut sys, mut net) = system();
        let a = addr(1, 0);
        // 40 bytes starting at 0 spans lines 0,1,2 (16B lines).
        let out = sys.access_range(ProcId(0), a, 40, Access::Read, &mut net, Cycles::ZERO);
        assert!(!out.hit);
        assert_eq!(sys.stats().read_misses, 3);
        let again = sys.access_range(ProcId(0), a, 40, Access::Read, &mut net, Cycles::ZERO);
        assert!(again.hit);
        assert_eq!(again.latency, Cycles(6));
    }

    #[test]
    fn write_shared_line_ping_pongs_traffic() {
        // The counting-network effect: a write-shared balancer bounces
        // between caches, generating traffic on every access.
        let (mut sys, mut net) = system();
        let a = addr(0, 0);
        for round in 0..10 {
            for p in 1..4u32 {
                let out = sys.access(ProcId(p), a, Access::Write, &mut net, Cycles::ZERO);
                assert!(!out.hit, "round {round} P{p} should miss");
            }
        }
        sys.check_invariants().unwrap();
        assert!(net.traffic().word_hops > 100);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let (mut sys, mut net) = system();
        let a = addr(1, 0);
        sys.access(ProcId(0), a, Access::Read, &mut net, Cycles::ZERO);
        sys.reset_stats();
        assert_eq!(sys.aggregate_cache_stats().misses, 0);
        assert!(
            sys.access(ProcId(0), a, Access::Read, &mut net, Cycles::ZERO)
                .hit
        );
    }
}
