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

/// The most processors a machine may have: the width of the directory's
/// sharer sets. The paper's machines top out at 88 processors.
pub const MAX_PROCESSORS: u32 = 128;

/// The processors sharing a line, as a 128-bit mask in two words: P0–P63 in
/// the first, P64–P127 in the second. [`MAX_PROCESSORS`] bits cover every
/// machine this simulator accepts (asserted in [`CoherenceSystem::new`]);
/// membership updates are single bit operations. The protocol reads and
/// writes the whole set; a [`Page`] stores the first word in the line's
/// entry and the second in a side array that only lines with a sharer above
/// P63 ever need.
#[derive(Copy, Clone, Default, PartialEq, Eq)]
struct SharerSet([u64; 2]);

impl SharerSet {
    /// The word holding `p`'s bit, and that bit.
    #[inline]
    fn bit(p: ProcId) -> (usize, u64) {
        ((p.0 >> 6) as usize, 1 << (p.0 & 63))
    }

    fn insert(&mut self, p: ProcId) {
        let (word, bit) = Self::bit(p);
        self.0[word] |= bit;
    }

    fn remove(&mut self, p: ProcId) {
        let (word, bit) = Self::bit(p);
        self.0[word] &= !bit;
    }

    /// The set holding only `p`.
    fn only(p: ProcId) -> SharerSet {
        let mut set = SharerSet::default();
        set.insert(p);
        set
    }

    fn contains(&self, p: ProcId) -> bool {
        let (word, bit) = Self::bit(p);
        self.0[word] & bit != 0
    }

    fn len(&self) -> usize {
        (self.0[0].count_ones() + self.0[1].count_ones()) as usize
    }

    fn iter(&self) -> SharerIter {
        SharerIter {
            words: self.0,
            word: 0,
        }
    }
}

impl std::fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending-`ProcId` iterator over a [`SharerSet`].
struct SharerIter {
    words: [u64; 2],
    /// The word being drained; its lower neighbours are empty.
    word: usize,
}

impl Iterator for SharerIter {
    type Item = ProcId;

    fn next(&mut self) -> Option<ProcId> {
        while let Some(bits) = self.words.get_mut(self.word) {
            if *bits != 0 {
                let i = bits.trailing_zeros();
                *bits &= *bits - 1;
                return Some(ProcId(self.word as u32 * 64 + i));
            }
            self.word += 1;
        }
        None
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

/// A cache hit.
pub const HIT: Cycles = Cycles(2);
/// Directory lookup/update at the home node.
pub const DIRECTORY: Cycles = Cycles(5);
/// Memory array access at the home node.
pub const MEMORY: Cycles = Cycles(8);
/// Cache-array manipulation at a third party (downgrade/flush).
pub const CACHE_OP: Cycles = Cycles(4);
/// LimitLESS hardware pointer count (Alewife: 5). Invalidating more sharers
/// than this traps to software at the home node.
pub const HW_SHARER_LIMIT: usize = 5;

/// The protocol costs a run varies: the contention terms the shared-memory
/// ablation switches off. Every other cost is a constant of this module.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CoherenceCosts {
    /// Cap on modelled spin probes per lock acquisition (bounds the
    /// synthetic burst; real spinners back off).
    pub max_spin_reads: u32,
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
            max_spin_reads: 4,
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

/// What the directory has allocated since its coherence system was built,
/// warm-up included: [`CoherenceSystem::reset_stats`] leaves these alone,
/// because an allocation outlives the window that made it. Each is a plain
/// count bumped only where the allocation happens.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DirectoryAllocations {
    /// Directory pages (85 entries in 1,020 B), each allocated by the first
    /// miss on one of its lines.
    pub pages: u64,
    /// P64–P127 sharer side arrays (680 B), each allocated when a processor
    /// above P63 first joins a sharer set on its page.
    pub side_arrays: u64,
    /// High occupancy side arrays (340 B), each allocated when a line of
    /// its page is first occupied until a time of 2^31 cycles or more.
    pub time_arrays: u64,
}

/// Bit 63 of [`DirEntry::busy`]: the line is dirty at its single sharer.
const DIRTY: u64 = 1 << 63;

/// The home directory's state for one line, as the protocol reads and
/// writes it: the full sharer set and the occupancy word. A [`Page`] stores
/// it in 12 bytes plus, on lines with a sharer above P63, one side-array
/// word and, on pages occupied past 2^31 cycles, one high-time word. A
/// dirty line's Modified owner is its only sharer — the invariant
/// [`CoherenceSystem::check_invariants`] enforces — so the owner is not
/// stored apart from the sharers, only the dirty flag is.
#[derive(Copy, Clone, Debug, Default)]
struct DirEntry {
    sharers: SharerSet,
    /// Occupancy in the low 63 bits: a line in the middle of a protocol
    /// transaction cannot serve the next request until this time — this is
    /// what serializes bursts on hot (write-shared) lines. Bit 63 is
    /// [`DIRTY`].
    busy: u64,
}

impl DirEntry {
    fn dirty(&self) -> bool {
        self.busy & DIRTY != 0
    }

    /// The Modified owner: the lowest sharer of a dirty line.
    fn owner(&self) -> Option<ProcId> {
        if !self.dirty() {
            return None;
        }
        self.sharers.iter().next()
    }

    /// Make `p` the Modified owner and only sharer.
    fn set_owner(&mut self, p: ProcId) {
        self.sharers = SharerSet::only(p);
        self.busy |= DIRTY;
    }

    fn clear_dirty(&mut self) {
        self.busy &= !DIRTY;
    }

    fn busy_until(&self) -> Cycles {
        Cycles(self.busy & !DIRTY)
    }

    fn set_busy_until(&mut self, t: Cycles) {
        assert!(
            t.get() < DIRTY,
            "line occupancy {t:?} overflows the directory's 63-bit time"
        );
        self.busy = (self.busy & DIRTY) | t.get();
    }
}

/// The occupancy time bits a [`StoredEntry`] keeps; the bits above go to
/// its page's high-time side array.
const LOW_TIME_BITS: u32 = 31;

/// Bit 31 of [`StoredEntry::occupancy`]: the dirty flag.
const STORED_DIRTY: u32 = 1 << LOW_TIME_BITS;

/// A [`DirEntry`] as its page stores it, in 12 bytes: the sharer word for
/// P0–P63, and the occupancy word with the time's low 31 bits and the dirty
/// flag in bit 31. Packed to 4-byte alignment, so a page of them has no
/// padding.
#[derive(Copy, Clone, Debug, Default)]
#[repr(C, packed(4))]
struct StoredEntry {
    sharers: u64,
    occupancy: u32,
}

/// Directory entries per page: the most 12-byte entries that fit 1 KB. A
/// home's directory is a table of pages, each allocated by the first miss
/// on one of its lines.
const PAGE_LINES: usize = 85;

/// One page of a home's directory: its 85 lines' stored entries in 1,020 B,
/// plus two side arrays that only some pages ever need, each allocated when
/// the first of its page's lines needs it and kept from then on:
///
/// * `high_sharers`, the lines' P64–P127 sharer words (680 B), when a
///   processor above P63 first joins a sharer set on the page, so it never
///   exists on machines of 64 processors or fewer; a word whose high
///   sharers all left is 0;
/// * `high_times`, the lines' occupancy bits 31–62 (340 B), when a line of
///   the page is first occupied until 2^31 cycles or later, so every time
///   below 2^63 is stored exactly.
#[derive(Clone, Debug)]
struct Page {
    entries: Box<[StoredEntry; PAGE_LINES]>,
    high_sharers: Option<Box<[u64; PAGE_LINES]>>,
    high_times: Option<Box<[u32; PAGE_LINES]>>,
}

/// Write `word` into `side[index]`, allocating the side array (and counting
/// it in `allocated`) if the word is its page's first non-zero one. A zero
/// word needs no array, but overwrites a stale word in one that exists.
#[inline]
fn store_side<T: Copy + Default + PartialEq>(
    side: &mut Option<Box<[T; PAGE_LINES]>>,
    index: usize,
    word: T,
    allocated: &mut u64,
) {
    match side {
        Some(words) => words[index] = word,
        None if word != T::default() => *side = Some(new_side(index, word, allocated)),
        None => {}
    }
}

/// A side array holding only `word` at `index`, counted in `allocated`. Out
/// of line: a page allocates each side array at most once.
#[cold]
#[inline(never)]
fn new_side<T: Copy + Default>(index: usize, word: T, allocated: &mut u64) -> Box<[T; PAGE_LINES]> {
    *allocated += 1;
    let mut words = Box::new([T::default(); PAGE_LINES]);
    words[index] = word;
    words
}

impl Page {
    fn new() -> Page {
        Page {
            entries: Box::new([StoredEntry::default(); PAGE_LINES]),
            high_sharers: None,
            high_times: None,
        }
    }

    /// The entry of the page's line `index`, with its full sharer set and
    /// occupancy time.
    fn load(&self, index: usize) -> DirEntry {
        let stored = self.entries[index];
        let high_sharers = self.high_sharers.as_ref().map_or(0, |words| words[index]);
        let high_time = self.high_times.as_ref().map_or(0, |words| words[index]);
        let occupancy = stored.occupancy;
        let dirty = if occupancy & STORED_DIRTY != 0 {
            DIRTY
        } else {
            0
        };
        DirEntry {
            sharers: SharerSet([stored.sharers, high_sharers]),
            busy: dirty
                | u64::from(high_time) << LOW_TIME_BITS
                | u64::from(occupancy & !STORED_DIRTY),
        }
    }

    /// Store `entry` as the page's line `index`, allocating each side array
    /// that the entry is the first on the page to need and counting it in
    /// `allocations`.
    #[inline]
    fn store(&mut self, index: usize, entry: DirEntry, allocations: &mut DirectoryAllocations) {
        let [low, high] = entry.sharers.0;
        let time = entry.busy_until().get();
        let dirty = if entry.dirty() { STORED_DIRTY } else { 0 };
        self.entries[index] = StoredEntry {
            sharers: low,
            occupancy: dirty | (time as u32 & !STORED_DIRTY),
        };
        store_side(
            &mut self.high_sharers,
            index,
            high,
            &mut allocations.side_arrays,
        );
        store_side(
            &mut self.high_times,
            index,
            (time >> LOW_TIME_BITS) as u32,
            &mut allocations.time_arrays,
        );
    }
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
    /// home. `directory[home][offset / 85]` is the page holding the entry of
    /// the line at node-local line offset `offset` in `home`'s memory, at
    /// `offset % 85`. A page is allocated by the first miss on one of its
    /// lines and never moves; only the page table, 24 bytes a page, grows
    /// with the highest line missed. A miss indexes the table instead of
    /// hashing.
    directory: Vec<Vec<Option<Page>>>,
    costs: CoherenceCosts,
    /// `line_bytes.trailing_zeros()`: line math is a shift, not a division.
    line_shift: u32,
    /// Mask of a line number's node-local offset bits (below the home).
    offset_mask: u64,
    words_per_line: u64,
    stats: ProtocolStats,
    allocations: DirectoryAllocations,
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
            processors <= MAX_PROCESSORS,
            "the sharer bitmask covers at most {MAX_PROCESSORS} processors"
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
            allocations: DirectoryAllocations::default(),
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

    /// The directory coordinates `(home, page, index in page)` of `line`.
    #[inline]
    fn coords(&self, line: u64) -> (usize, usize, usize) {
        let home = self.home_of_line(line).index();
        let offset = (line & self.offset_mask) as usize;
        (home, offset / PAGE_LINES, offset % PAGE_LINES)
    }

    /// The directory page `page` of `home`, allocating it on first use, and
    /// the counters its stores bump. A home outside the machine is a model
    /// bug, the same one [`xfer`] stops on.
    fn page_mut(&mut self, home: usize, page: usize) -> (&mut Page, &mut DirectoryAllocations) {
        let pages = self.directory.get_mut(home).expect(OUTSIDE_MACHINE);
        if page >= pages.len() {
            pages.resize_with(page + 1, || None);
        }
        let allocations = &mut self.allocations;
        let page = pages[page].get_or_insert_with(|| {
            allocations.pages += 1;
            Page::new()
        });
        (page, allocations)
    }

    /// Apply `update` to the directory entry of `line`, if its page has ever
    /// been allocated.
    fn update_entry(&mut self, line: u64, update: impl FnOnce(&mut DirEntry)) {
        let (home, page, index) = self.coords(line);
        let Some(page) = self
            .directory
            .get_mut(home)
            .and_then(|pages| pages.get_mut(page))
            .and_then(Option::as_mut)
        else {
            return;
        };
        let mut entry = page.load(index);
        update(&mut entry);
        page.store(index, entry, &mut self.allocations);
    }

    /// One line's access: the cache hit test here, inline in every caller;
    /// a miss goes to the directory through [`Self::miss`].
    #[inline]
    fn line_access(
        &mut self,
        proc: ProcId,
        line: u64,
        kind: Access,
        net: &mut Network,
        at: Cycles,
    ) -> AccessOutcome {
        let cache = &mut self.caches[proc.index()];
        let (hit, upgrade) = match kind {
            Access::Read => (cache.hit_read(line).is_some(), false),
            Access::Write => match cache.hit_write(line) {
                Some(LineState::Modified) => (true, false),
                held => (false, held.is_some()),
            },
        };
        if hit {
            return AccessOutcome {
                latency: HIT,
                hit: true,
            };
        }
        AccessOutcome {
            latency: self.miss(proc, line, kind, upgrade, net, at),
            hit: false,
        }
    }

    /// A miss on `line`, `upgrade` when it is a write to a Shared copy the
    /// requester holds: runs the protocol and returns the requester's wait
    /// plus latency. One directory touch: copy the entry out, run the
    /// protocol against the copy, store it back before the fill (whose
    /// eviction may update another line's entry).
    #[inline(never)]
    fn miss(
        &mut self,
        proc: ProcId,
        line: u64,
        kind: Access,
        upgrade: bool,
        net: &mut Network,
        at: Cycles,
    ) -> Cycles {
        let (home, page, index) = self.coords(line);
        let mut entry = self.page_mut(home, page).0.load(index);
        let (latency, state) = match kind {
            Access::Read => (
                self.read_miss(proc, line, &mut entry, net),
                LineState::Shared,
            ),
            Access::Write => (
                self.write_miss(proc, line, upgrade, &mut entry, net),
                LineState::Modified,
            ),
        };
        // Occupancy: queue behind the previous transaction on this line.
        let start = at.max(entry.busy_until());
        let wait = start - at;
        entry.set_busy_until(start + latency);
        let (page, allocations) = self.page_mut(home, page);
        page.store(index, entry, allocations);
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
        wait + latency
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
        let mut latency = xfer(net, proc, home, 1) + DIRECTORY;
        match entry.owner() {
            Some(o) if o != proc => {
                // Intervention: home forwards to owner; owner downgrades,
                // sends data to requester and a sharing writeback home.
                self.stats.owner_forwards += 1;
                latency += xfer(net, home, o, 1) + CACHE_OP;
                latency += xfer(net, o, proc, self.words_per_line);
                xfer(net, o, home, self.words_per_line); // writeback, off critical path
                self.caches[o.index()].set_state(line, LineState::Shared);
            }
            _ => {
                // Clean at home (or we were the stale "owner" after eviction):
                // memory supplies the line.
                latency += MEMORY + xfer(net, home, proc, self.words_per_line);
            }
        }
        // A former owner stays on as a sharer.
        entry.clear_dirty();
        entry.sharers.insert(proc);
        latency
    }

    /// A write miss by `proc` against the line's directory `entry`, an
    /// `upgrade` if the requester holds the line Shared: books the protocol
    /// messages and returns the requester's latency.
    fn write_miss(
        &mut self,
        proc: ProcId,
        line: u64,
        upgrade: bool,
        entry: &mut DirEntry,
        net: &mut Network,
    ) -> Cycles {
        self.stats.write_misses += 1;
        let home = self.home_of_line(line);
        let mut sharers = entry.sharers;
        sharers.remove(proc);
        // Exclusive request to home (1 word: address).
        let mut latency = xfer(net, proc, home, 1) + DIRECTORY;
        if let Some(o) = entry.owner().filter(|&o| o != proc) {
            // Home forwards to the dirty owner; owner flushes to requester.
            self.stats.owner_forwards += 1;
            latency += xfer(net, home, o, 1) + CACHE_OP;
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
                inval_wait = inval_wait.max(there + CACHE_OP + back);
                self.caches[s.index()].invalidate(line);
            }
            if sharers.len() > HW_SHARER_LIMIT {
                let overflow = (sharers.len() - HW_SHARER_LIMIT) as u64;
                self.stats.limitless_traps += 1;
                inval_wait +=
                    self.costs.limitless_trap + self.costs.limitless_per_sharer * overflow;
            }
            latency += inval_wait;
            // An upgrade gets an exclusivity ack, not a second copy of the
            // data; only a true miss reads memory and ships the line.
            if upgrade {
                latency += xfer(net, home, proc, 1);
            } else {
                latency += MEMORY + xfer(net, home, proc, self.words_per_line);
            }
        }
        entry.set_owner(proc);
        latency
    }

    /// Insert the line locally and clean up any eviction in the directory.
    fn fill(&mut self, proc: ProcId, line: u64, state: LineState, net: &mut Network) {
        if let Some(ev) = self.caches[proc.index()].fill(line, state) {
            let ev_home = self.home_of_line(ev.line);
            self.update_entry(ev.line, |entry| {
                if entry.owner() == Some(proc) {
                    entry.clear_dirty();
                }
                entry.sharers.remove(proc);
            });
            if ev.state == LineState::Modified {
                self.stats.eviction_writebacks += 1;
                xfer(net, proc, ev_home, self.words_per_line);
            }
        }
    }

    /// The protocol costs in force.
    pub fn costs(&self) -> &CoherenceCosts {
        &self.costs
    }

    /// Protocol-level counters.
    pub fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    /// Directory pages and their side arrays allocated so far.
    pub fn allocations(&self) -> DirectoryAllocations {
        self.allocations
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
    /// a dirty line has exactly one sharer, its Modified owner, and no other
    /// cache holds it; the sharers of a clean line are exactly the caches
    /// holding it, each Shared. Entries are visited home by home in line
    /// order, page by allocated page; that includes the never-missed lines
    /// of each page, whose empty entries hold trivially (no cache can hold a
    /// line that never missed). Used by property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let lines = self.directory.iter().enumerate().flat_map(|(home, pages)| {
            let base = (home as u64) << (32 - self.line_shift);
            pages.iter().enumerate().flat_map(move |(number, page)| {
                let first = base | (number * PAGE_LINES) as u64;
                page.iter()
                    .flat_map(|page| (0..PAGE_LINES).map(|index| page.load(index)))
                    .zip(first..)
                    .map(|(entry, line)| (line, entry))
            })
        });
        for (line, entry) in lines {
            if entry.dirty() {
                let Some(o) = entry.owner().filter(|_| entry.sharers.len() == 1) else {
                    return Err(format!(
                        "line {line:#x}: dirty but sharers {:?}",
                        entry.sharers
                    ));
                };
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
                let holds = |s: &ProcId| self.caches.get(s.index()).and_then(|c| c.probe(line));
                if let Some(s) = entry.sharers.iter().find(|s| holds(s).is_none()) {
                    return Err(format!(
                        "line {line:#x}: sharer {s:?} does not hold the line"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> (CoherenceSystem, Network) {
        (
            CoherenceSystem::new(4, CacheConfig::default(), CoherenceCosts::default()),
            Network::new(4),
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
    fn a_stored_entry_is_12_bytes_and_a_page_1020_bytes() {
        assert_eq!(std::mem::size_of::<StoredEntry>(), 12);
        assert_eq!(std::mem::size_of::<[StoredEntry; PAGE_LINES]>(), 1020);
        assert_eq!(std::mem::size_of::<[u64; PAGE_LINES]>(), 680);
        assert_eq!(std::mem::size_of::<[u32; PAGE_LINES]>(), 340);
        // A page-table slot is the three pointers, with no tag word.
        assert_eq!(std::mem::size_of::<Option<Page>>(), 24);
    }

    /// The P64–P127 sharer side array of the page holding line `a`, if it
    /// has one.
    fn side_array(sys: &CoherenceSystem, a: u64) -> Option<[u64; PAGE_LINES]> {
        let (home, page, _) = sys.coords(sys.line_of(a));
        let page = sys.directory[home][page].as_ref().expect("the page missed");
        page.high_sharers.as_deref().copied()
    }

    #[test]
    fn a_page_stores_every_time_below_2_63_exactly() {
        let mut page = Page::new();
        let mut allocations = DirectoryAllocations::default();
        let times = [0, 1, (1 << 31) - 1, 1 << 31, (1 << 32) + 5, DIRTY - 1];
        for (index, &time) in times.iter().enumerate() {
            for dirty in [false, true] {
                let mut entry = DirEntry::default();
                entry.sharers.insert(ProcId(3));
                if dirty {
                    entry.set_owner(ProcId(3));
                }
                entry.set_busy_until(Cycles(time));
                page.store(index, entry, &mut allocations);
                let back = page.load(index);
                assert_eq!(back.busy_until(), Cycles(time), "dirty {dirty}");
                assert_eq!((back.dirty(), back.sharers), (dirty, entry.sharers));
            }
        }
        // The lines stored before 2^31 read back from the side array's 0s.
        assert_eq!(page.load(2).busy_until(), Cycles((1 << 31) - 1));
        assert_eq!(
            allocations,
            DirectoryAllocations {
                pages: 0,
                side_arrays: 0,
                time_arrays: 1,
            }
        );
    }

    #[test]
    fn a_side_array_appears_with_the_first_sharer_above_p63_and_empties_when_it_leaves() {
        let mut sys = CoherenceSystem::new(128, CacheConfig::default(), CoherenceCosts::default());
        let mut net = Network::new(128);
        let a = addr(5, 0);
        let b = addr(5, 16 * 9);
        for p in [0, 63] {
            sys.access(ProcId(p), a, Access::Read, &mut net, Cycles::ZERO);
        }
        assert_eq!(
            side_array(&sys, a),
            None,
            "P0-P63 sharers need no side array"
        );
        sys.access(ProcId(64), a, Access::Read, &mut net, Cycles::ZERO);
        sys.access(ProcId(127), b, Access::Write, &mut net, Cycles::ZERO);
        let words = side_array(&sys, a).expect("P64 joined");
        assert_eq!((words[0], words[9]), (1, 1 << 63));
        assert_eq!(words.iter().filter(|&&w| w != 0).count(), 2);
        sys.check_invariants().unwrap();
        // P1 takes both lines: every high sharer leaves, the words go to 0.
        sys.access(ProcId(1), a, Access::Write, &mut net, Cycles::ZERO);
        sys.access(ProcId(1), b, Access::Write, &mut net, Cycles::ZERO);
        assert_eq!(side_array(&sys, a), Some([0; PAGE_LINES]));
        sys.check_invariants().unwrap();
    }

    #[test]
    fn dirty_entry_decodes_its_single_sharer_as_owner() {
        let mut entry = DirEntry::default();
        entry.set_busy_until(Cycles(77));
        entry.set_owner(ProcId(100));
        assert_eq!(entry.owner(), Some(ProcId(100)));
        assert_eq!(entry.busy_until(), Cycles(77));
        entry.clear_dirty();
        assert_eq!(entry.owner(), None);
        assert!(entry.sharers.contains(ProcId(100)));
    }

    #[test]
    #[should_panic(expected = "overflows the directory's 63-bit time")]
    fn occupancy_past_63_bits_is_rejected() {
        DirEntry::default().set_busy_until(Cycles(DIRTY));
    }

    /// A system whose line at `addr(1, 0)` P2 holds Modified, with its
    /// directory entry handed to `corrupt`.
    fn corrupted(corrupt: impl FnOnce(&mut DirEntry)) -> Result<(), String> {
        let (mut sys, mut net) = system();
        let a = addr(1, 0);
        sys.access(ProcId(2), a, Access::Write, &mut net, Cycles::ZERO);
        sys.check_invariants().unwrap();
        let line = sys.line_of(a);
        sys.update_entry(line, corrupt);
        sys.check_invariants()
    }

    #[test]
    fn invariants_reject_a_dirty_entry_without_sharers() {
        let err = corrupted(|entry| entry.sharers = SharerSet::default()).unwrap_err();
        assert!(err.contains("dirty but sharers {}"), "{err}");
    }

    #[test]
    fn invariants_reject_a_dirty_entry_with_two_sharers() {
        let err = corrupted(|entry| entry.sharers.insert(ProcId(3))).unwrap_err();
        assert!(err.contains("dirty but sharers {P2, P3}"), "{err}");
    }

    #[test]
    fn invariants_reject_a_clean_sharer_that_does_not_hold_the_line() {
        let (mut sys, mut net) = system();
        let a = addr(1, 0);
        sys.access(ProcId(2), a, Access::Read, &mut net, Cycles::ZERO);
        sys.check_invariants().unwrap();
        sys.update_entry(sys.line_of(a), |entry| entry.sharers.insert(ProcId(3)));
        let err = sys.check_invariants().unwrap_err();
        assert!(err.contains("sharer P3 does not hold the line"), "{err}");
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
