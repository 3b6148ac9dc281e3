//! Differential property tests: the flat-tag `Cache`, which keeps LRU order
//! by position within each set, must be observationally identical to the
//! old cache that kept a `Vec` of ways per set and evicted the way with the
//! smallest LRU stamp — same return values, same evictions, same counters
//! and same occupancy after every operation of an arbitrary tape.

use proptest::prelude::*;
use proteus::cache::{Cache, CacheConfig, Evicted, LineState};
use proteus::CacheStats;

/// The stamp-based cache, reproduced as the reference model: a `Vec` of
/// ways per set, each way stamped from a counter bumped by every fill and
/// every hit-path access, and the smallest stamp evicted.
struct RefCache {
    ways: usize,
    sets: Vec<Vec<Way>>,
    tick: u64,
    stats: CacheStats,
}

struct Way {
    line: u64,
    state: LineState,
    lru: u64,
}

impl RefCache {
    fn new(config: &CacheConfig) -> RefCache {
        let sets = (config.size_bytes / config.line_bytes) as usize / config.ways;
        RefCache {
            ways: config.ways,
            sets: (0..sets).map(|_| Vec::new()).collect(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<Way> {
        let idx = (line % self.sets.len() as u64) as usize;
        &mut self.sets[idx]
    }

    fn probe(&mut self, line: u64) -> Option<LineState> {
        self.set(line)
            .iter()
            .find(|w| w.line == line)
            .map(|w| w.state)
    }

    fn hit_read(&mut self, line: u64) -> Option<LineState> {
        let tick = self.tick + 1;
        let w = self.set(line).iter_mut().find(|w| w.line == line)?;
        w.lru = tick;
        let state = w.state;
        self.tick = tick;
        self.stats.hits += 1;
        Some(state)
    }

    fn hit_write(&mut self, line: u64) -> Option<LineState> {
        let tick = self.tick + 1;
        let w = self.set(line).iter_mut().find(|w| w.line == line)?;
        let state = w.state;
        if state == LineState::Modified {
            w.lru = tick;
            self.tick = tick;
            self.stats.hits += 1;
        }
        Some(state)
    }

    fn fill(&mut self, line: u64, state: LineState) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        self.stats.misses += 1;
        let set = self.set(line);
        if let Some(w) = set.iter_mut().find(|w| w.line == line) {
            w.state = state;
            w.lru = tick;
            return None;
        }
        let evicted = if set.len() >= ways {
            let victim = (0..set.len())
                .min_by_key(|&i| set[i].lru)
                .expect("non-empty set");
            let w = set.swap_remove(victim);
            Some(Evicted {
                line: w.line,
                state: w.state,
            })
        } else {
            None
        };
        set.push(Way {
            line,
            state,
            lru: tick,
        });
        if matches!(&evicted, Some(e) if e.state == LineState::Modified) {
            self.stats.writebacks += 1;
        }
        evicted
    }

    fn set_state(&mut self, line: u64, state: LineState) {
        if let Some(w) = self.set(line).iter_mut().find(|w| w.line == line) {
            w.state = state;
        }
    }

    fn invalidate(&mut self, line: u64) -> Option<LineState> {
        let set = self.set(line);
        let pos = set.iter().position(|w| w.line == line)?;
        let state = set.swap_remove(pos).state;
        self.stats.invalidations_received += 1;
        if state == LineState::Modified {
            self.stats.writebacks += 1;
        }
        Some(state)
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Probe(u64),
    HitRead(u64),
    HitWrite(u64),
    Fill(u64, LineState),
    SetState(u64, LineState),
    Invalidate(u64),
}

/// Geometries as `(ways, sets)`: direct-mapped, 2-way with a set count that
/// is not a power of two (the division path), and 4-way like the paper's,
/// with a power-of-two set count (the mask path) and without.
const GEOMETRIES: [(usize, u64); 4] = [(1, 4), (2, 3), (4, 8), (4, 5)];

/// Lines are drawn below this, three times the largest geometry's capacity,
/// and folded into three times each geometry's own, so sets fill, evict and
/// refill within a short tape.
const LINES: u64 = 96;

fn config(ways: usize, sets: u64) -> CacheConfig {
    CacheConfig {
        size_bytes: 16 * ways as u64 * sets,
        line_bytes: 16,
        ways,
    }
}

/// One random operation. Fills and hits are weighted up so most tapes
/// reach full sets and reorder them.
fn op() -> impl Strategy<Value = Op> {
    (0u8..12, 0..LINES, any::<bool>()).prop_map(|(kind, line, modified)| {
        let state = if modified {
            LineState::Modified
        } else {
            LineState::Shared
        };
        match kind {
            0 => Op::Probe(line),
            1..=3 => Op::HitRead(line),
            4 | 5 => Op::HitWrite(line),
            6..=9 => Op::Fill(line, state),
            10 => Op::SetState(line, state),
            _ => Op::Invalidate(line),
        }
    })
}

/// What one operation returned, in a form both caches can be compared on.
#[derive(Debug, PartialEq)]
enum Outcome {
    Nothing,
    State(Option<LineState>),
    Fill(Option<Evicted>),
}

/// Replay `tape` on both caches of one geometry, comparing every result,
/// the counters and the occupancy after each step.
fn replay(ways: usize, sets: u64, tape: &[Op]) -> Result<(), TestCaseError> {
    use Outcome::*;
    let config = config(ways, sets);
    let mut cache = Cache::new(config.clone());
    let mut reference = RefCache::new(&config);
    let lines = 3 * ways as u64 * sets;
    for (step, &op) in tape.iter().enumerate() {
        let (got, want) = match op {
            Op::Probe(l) => (
                State(cache.probe(l % lines)),
                State(reference.probe(l % lines)),
            ),
            Op::HitRead(l) => (
                State(cache.hit_read(l % lines)),
                State(reference.hit_read(l % lines)),
            ),
            Op::HitWrite(l) => (
                State(cache.hit_write(l % lines)),
                State(reference.hit_write(l % lines)),
            ),
            Op::Fill(l, s) => (
                Fill(cache.fill(l % lines, s)),
                Fill(reference.fill(l % lines, s)),
            ),
            Op::SetState(l, s) => {
                cache.set_state(l % lines, s);
                reference.set_state(l % lines, s);
                (Nothing, Nothing)
            }
            Op::Invalidate(l) => (
                State(cache.invalidate(l % lines)),
                State(reference.invalidate(l % lines)),
            ),
        };
        prop_assert_eq!(got, want, "{:?} at step {}", op, step);
        prop_assert_eq!(cache.stats(), &reference.stats, "{:?} at step {}", op, step);
        let resident = (0..lines).filter(|&l| cache.probe(l).is_some()).count();
        prop_assert_eq!(
            resident,
            reference.resident_lines(),
            "{:?} at step {}",
            op,
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_cache_matches_the_stamp_cache(tape in proptest::collection::vec(op(), 1..400)) {
        for (ways, sets) in GEOMETRIES {
            replay(ways, sets, &tape).map_err(|e| {
                TestCaseError::fail(format!("{ways}-way, {sets} sets: {e}"))
            })?;
        }
    }
}
