//! Deterministic workload generation.
//!
//! Every experiment run is seeded: the same configuration replays the same
//! key streams and placement decisions, which keeps scheme comparisons
//! apples-to-apples (all rows of a table see identical workloads).

use proteus::rng::SplitMix64;

/// A deterministic stream of B-tree keys: a mix of lookups of existing keys
/// and inserts of fresh keys.
#[derive(Clone, Debug)]
pub struct KeyStream {
    rng: SplitMix64,
    key_space: u64,
    insert_permille: u32,
}

/// One generated request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The key to operate on.
    pub key: u64,
    /// `true` for insert, `false` for lookup.
    pub insert: bool,
}

impl KeyStream {
    /// A stream over `[0, key_space)` issuing inserts with probability
    /// `insert_permille`/1000.
    pub fn new(seed: u64, key_space: u64, insert_permille: u32) -> KeyStream {
        assert!(key_space > 0, "empty key space");
        assert!(insert_permille <= 1000, "permille out of range");
        KeyStream {
            rng: SplitMix64::new(seed),
            key_space,
            insert_permille,
        }
    }

    /// Next request.
    pub fn next_request(&mut self) -> Request {
        let insert = self.rng.below(1000) < u64::from(self.insert_permille);
        let key = self.rng.below(self.key_space);
        Request { key, insert }
    }
}

/// The sorted, distinct keys pre-loaded into the B-tree before measurement
/// (the paper builds a 10 000-key tree first).
///
/// Keys are spread across the key space so subsequent random inserts land
/// between existing keys.
pub fn initial_keys(count: u64, key_space: u64) -> Vec<u64> {
    assert!(count > 0 && key_space >= count);
    let stride = key_space / count;
    (0..count).map(|i| i * stride + stride / 2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stream_deterministic() {
        let mut a = KeyStream::new(7, 1000, 500);
        let mut b = KeyStream::new(7, 1000, 500);
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn key_stream_respects_space() {
        let mut s = KeyStream::new(1, 50, 500);
        for _ in 0..1000 {
            assert!(s.next_request().key < 50);
        }
    }

    #[test]
    fn insert_fraction_approximate() {
        let mut s = KeyStream::new(3, 1_000_000, 250);
        let inserts = (0..10_000).filter(|_| s.next_request().insert).count();
        assert!((2000..3000).contains(&inserts), "inserts {inserts}");
    }

    #[test]
    fn zero_and_full_permille_are_pure() {
        let mut lookups = KeyStream::new(1, 100, 0);
        let mut inserts = KeyStream::new(1, 100, 1000);
        for _ in 0..100 {
            assert!(!lookups.next_request().insert);
            assert!(inserts.next_request().insert);
        }
    }

    #[test]
    fn initial_keys_sorted_distinct_in_space() {
        let keys = initial_keys(10_000, 1 << 32);
        assert_eq!(keys.len(), 10_000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(*keys.last().unwrap() < (1u64 << 32));
    }
}
