//! Per-processor shared-memory cache.
//!
//! The paper's machine gives each processor a 64 KB shared-memory cache with
//! 16-byte lines (§4). We model a set-associative cache with LRU replacement
//! and MSI line states; the directory protocol lives in [`crate::coherence`].
//!
//! The whole cache is one flat array of `sets × ways` tag words, one word
//! per way: the line plus one, shifted left, with the Modified state in the
//! low bit, and 0 for an empty way. LRU is kept by position: each set runs
//! most recently used first with its empty ways last, so a hit or a fill
//! moves the way to the front, an eviction takes the last way, and an
//! invalidation closes the gap without reordering the rest. The array
//! covers only the sets that fills have reached: a fill past its end grows
//! it to the next power of two of sets that holds the filled one, up to
//! the whole geometry. A machine that never misses in shared memory (every
//! message-passing scheme) owns no cache storage, and a cache whose lines
//! all map to a few low sets (the counting network's) owns only those.

use std::ops::Range;

use crate::stats::CacheStats;

/// Coherence state of a cached line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LineState {
    /// Read-only copy; other caches may also hold it.
    Shared,
    /// Writable, exclusive, possibly dirty copy.
    Modified,
}

/// Cache geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl Default for CacheConfig {
    /// The paper's geometry: 64 KB, 16-byte lines; 4-way is a conventional
    /// choice the paper does not specify.
    fn default() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 16,
            ways: 4,
        }
    }
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        lines / self.ways as u64
    }

    /// The line-granular address (address with offset bits dropped).
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    /// Words (8 bytes) per line, for traffic accounting of line transfers.
    pub fn words_per_line(&self) -> u64 {
        (self.line_bytes / 8).max(1)
    }
}

/// A line evicted to make room for a fill.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The line-granular address evicted.
    pub line: u64,
    /// Its state at eviction (Modified lines need a writeback).
    pub state: LineState,
}

/// Lines at or above this cannot be tagged: `line + 1` must fit in the 63
/// bits above the state bit.
const LINE_LIMIT: u64 = (1 << 63) - 1;

/// The tag of `line` with its state bit clear.
#[inline]
fn key(line: u64) -> u64 {
    assert!(
        line < LINE_LIMIT,
        "line {line:#x} is beyond the cache's 63-bit tag range"
    );
    (line + 1) << 1
}

#[inline]
fn state_bit(state: LineState) -> u64 {
    u64::from(state == LineState::Modified)
}

#[inline]
fn state_of(tag: u64) -> LineState {
    if tag & 1 == 1 {
        LineState::Modified
    } else {
        LineState::Shared
    }
}

/// The way in `set` holding the line whose tag is `key` (state bit clear).
/// Empty ways are 0 and never match: every key is at least 2.
#[inline]
fn find(set: &[u64], key: u64) -> Option<usize> {
    set.iter().position(|&tag| tag & !1 == key)
}

/// Put `tag` at the front of `set`, moving the ways before `pos` back by
/// one and overwriting the way at `pos`. A plain loop: on sets this short,
/// `rotate_right`'s general-purpose code costs more than the moves it makes.
#[inline]
fn promote(set: &mut [u64], pos: usize, tag: u64) {
    let ways = &mut set[..=pos];
    for i in (1..ways.len()).rev() {
        ways[i] = ways[i - 1];
    }
    ways[0] = tag;
}

/// One processor's cache.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` tag words, set after set. A tag is
    /// `((line + 1) << 1) | modified` and 0 is an empty way. Each set runs
    /// most recently used first, empty ways last. Covers a power of two of
    /// the lowest sets, or all of them, once any of them has been filled;
    /// a set past its end holds nothing.
    tags: Vec<u64>,
    /// Number of sets the geometry implies.
    sets: usize,
    /// `sets - 1` when the set count is a power of two, letting the
    /// per-access set index be a mask instead of a division.
    set_mask: Option<u64>,
    stats: CacheStats,
}

impl Cache {
    /// An empty cache with the given geometry. Allocates nothing.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.ways > 0, "cache must have at least one way");
        let sets = config.sets() as usize;
        assert!(sets > 0, "cache must have at least one set");
        Cache {
            tags: Vec::new(),
            sets,
            set_mask: (sets as u64).is_power_of_two().then(|| sets as u64 - 1),
            config,
            stats: CacheStats::default(),
        }
    }

    /// The index range of `line`'s set in `tags`.
    #[inline]
    fn set_range(&self, line: u64) -> Range<usize> {
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets as u64,
        } as usize;
        let ways = self.config.ways;
        set * ways..(set + 1) * ways
    }

    /// The ways of `line`'s set; empty if no fill has reached it.
    #[inline]
    fn set_mut(&mut self, line: u64) -> &mut [u64] {
        let range = self.set_range(line);
        self.tags.get_mut(range).unwrap_or(&mut [])
    }

    /// The state of `line` if present.
    pub fn probe(&self, line: u64) -> Option<LineState> {
        let key = key(line);
        let set = self.tags.get(self.set_range(line))?;
        find(set, key).map(|pos| state_of(set[pos]))
    }

    /// The read-hit test, in one scan of the set: if `line` is resident,
    /// make it the most recently used, count a hit, and return its state.
    pub fn hit_read(&mut self, line: u64) -> Option<LineState> {
        let key = key(line);
        let set = self.set_mut(line);
        let pos = find(set, key)?;
        let tag = set[pos];
        promote(set, pos, tag);
        self.stats.hits += 1;
        Some(state_of(tag))
    }

    /// The write-hit test, in one scan of the set: returns the state `line`
    /// is held in, if resident. A write hits only if this cache already
    /// holds the line Modified; that copy becomes the most recently used and
    /// counts a hit. A Shared copy must still take the upgrade path and is
    /// deliberately left untouched (no LRU refresh, no hit counted), but is
    /// reported so the protocol knows the requester holds the data.
    pub fn hit_write(&mut self, line: u64) -> Option<LineState> {
        let key = key(line);
        let set = self.set_mut(line);
        let pos = find(set, key)?;
        let tag = set[pos];
        if tag & 1 == 0 {
            return Some(LineState::Shared);
        }
        promote(set, pos, tag);
        self.stats.hits += 1;
        Some(LineState::Modified)
    }

    /// Insert (or upgrade) `line` in `state` as the most recently used,
    /// returning any eviction needed to make room. Counts a miss.
    pub fn fill(&mut self, line: u64, state: LineState) -> Option<Evicted> {
        let key = key(line);
        let end = self.set_range(line).end;
        if end > self.tags.len() {
            // Cover the filled set: the next power of two of sets, at most
            // all of them.
            let ways = self.config.ways;
            let words = (end / ways).next_power_of_two().min(self.sets) * ways;
            self.tags.reserve_exact(words - self.tags.len());
            self.tags.resize(words, 0);
        }
        self.stats.misses += 1;
        let tag = key | state_bit(state);
        let set = self.set_mut(line);
        if let Some(pos) = find(set, key) {
            // Upgrade in place (e.g. Shared -> Modified).
            promote(set, pos, tag);
            return None;
        }
        // The last way is empty if any is, else the least recently used.
        let last = set.len() - 1;
        let victim = set[last];
        promote(set, last, tag);
        if victim == 0 {
            return None;
        }
        let evicted = Evicted {
            line: (victim >> 1) - 1,
            state: state_of(victim),
        };
        if evicted.state == LineState::Modified {
            self.stats.writebacks += 1;
        }
        Some(evicted)
    }

    /// Change the state of a resident line (e.g. Modified -> Shared on a
    /// remote read) without refreshing LRU. No-op if the line is absent.
    pub fn set_state(&mut self, line: u64, state: LineState) {
        let key = key(line);
        let set = self.set_mut(line);
        if let Some(pos) = find(set, key) {
            set[pos] = key | state_bit(state);
        }
    }

    /// Drop `line` (remote invalidation), keeping the other ways in order.
    /// Returns its state if it was resident, so the caller can account a
    /// writeback for Modified lines.
    pub fn invalidate(&mut self, line: u64) -> Option<LineState> {
        let key = key(line);
        let set = self.set_mut(line);
        let pos = find(set, key)?;
        let state = state_of(set[pos]);
        let rest = &mut set[pos..];
        for i in 1..rest.len() {
            rest[i - 1] = rest[i];
        }
        rest[rest.len() - 1] = 0;
        self.stats.invalidations_received += 1;
        if state == LineState::Modified {
            self.stats.writebacks += 1;
        }
        Some(state)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset counters (warm-up exclusion); contents stay.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lines below `limit` that `c` holds.
    fn resident(c: &Cache, limit: u64) -> usize {
        (0..limit).filter(|&line| c.probe(line).is_some()).count()
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways of 16-byte lines = 128 bytes.
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            ways: 2,
        })
    }

    #[test]
    fn default_geometry_matches_paper() {
        let c = CacheConfig::default();
        assert_eq!(c.size_bytes, 65536);
        assert_eq!(c.line_bytes, 16);
        assert_eq!(c.sets(), 1024);
        assert_eq!(c.words_per_line(), 2);
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(100), None);
        assert_eq!(c.fill(100, LineState::Shared), None);
        assert_eq!(c.probe(100), Some(LineState::Shared));
        c.hit_read(100);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, LineState::Shared);
        c.fill(4, LineState::Shared);
        c.hit_read(0); // 4 is now LRU
        let ev = c.fill(8, LineState::Shared).expect("eviction");
        assert_eq!(ev.line, 4);
        assert_eq!(c.probe(0), Some(LineState::Shared));
        assert_eq!(c.probe(8), Some(LineState::Shared));
    }

    #[test]
    fn modified_eviction_counts_writeback() {
        let mut c = tiny();
        c.fill(0, LineState::Modified);
        c.fill(4, LineState::Shared);
        let ev = c.fill(8, LineState::Shared).expect("eviction");
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fill_upgrades_in_place() {
        let mut c = tiny();
        c.fill(0, LineState::Shared);
        assert_eq!(c.fill(0, LineState::Modified), None);
        assert_eq!(c.probe(0), Some(LineState::Modified));
        assert_eq!(resident(&c, 16), 1);
    }

    #[test]
    fn invalidate_removes_and_reports_state() {
        let mut c = tiny();
        c.fill(0, LineState::Modified);
        assert_eq!(c.invalidate(0), Some(LineState::Modified));
        assert_eq!(c.probe(0), None);
        assert_eq!(c.stats().invalidations_received, 1);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn set_state_downgrades() {
        let mut c = tiny();
        c.fill(0, LineState::Modified);
        c.set_state(0, LineState::Shared);
        assert_eq!(c.probe(0), Some(LineState::Shared));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for line in 0..4 {
            c.fill(line, LineState::Shared);
        }
        assert_eq!(resident(&c, 16), 4);
        for line in 0..4 {
            assert!(c.probe(line).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "cache must have at least one way")]
    fn zero_ways_is_rejected_by_name() {
        Cache::new(CacheConfig {
            ways: 0,
            ..CacheConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "beyond the cache's 63-bit tag range")]
    fn line_beyond_the_tag_range_is_rejected() {
        tiny().fill(LINE_LIMIT, LineState::Shared);
    }

    #[test]
    fn largest_taggable_line_round_trips() {
        let mut c = tiny();
        let top = LINE_LIMIT - 1;
        c.fill(top, LineState::Modified);
        assert_eq!(c.probe(top), Some(LineState::Modified));
        // `top` shares set 2 with lines 2 and 6; two more fills evict it.
        c.fill(2, LineState::Shared);
        let ev = c.fill(6, LineState::Shared).expect("eviction");
        assert_eq!(
            ev,
            Evicted {
                line: top,
                state: LineState::Modified
            }
        );
    }

    #[test]
    fn fills_grow_the_tags_to_the_filled_sets_power_of_two() {
        let mut c = Cache::new(CacheConfig::default());
        let words = |c: &Cache| c.tags.len() / c.config.ways;
        assert_eq!(words(&c), 0);
        c.fill(2, LineState::Shared);
        assert_eq!(words(&c), 4, "set 2 needs 3 sets, rounded up to 4");
        c.fill(1, LineState::Shared);
        assert_eq!(words(&c), 4, "a covered set does not grow the tags");
        c.fill(1024 + 700, LineState::Modified);
        assert_eq!(words(&c), 1024, "set 700 rounds up to the whole cache");
        assert_eq!(c.probe(2), Some(LineState::Shared), "growth kept the lines");
        assert_eq!(c.probe(1724), Some(LineState::Modified));

        // A set count that is no power of two caps the growth at the
        // geometry: 3 sets of 1 way.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 48,
            line_bytes: 16,
            ways: 1,
        });
        c.fill(2, LineState::Shared);
        assert_eq!(words(&c), 3);
    }

    #[test]
    fn capacity_bounded_by_geometry() {
        let mut c = tiny();
        for line in 0..100 {
            c.fill(line, LineState::Shared);
        }
        assert!(resident(&c, 100) <= 8);
    }
}
