//! Simulation statistics: network traffic, caches and latency histograms.

use crate::time::Cycles;

/// Aggregate network traffic counters.
///
/// `words` is the unit behind the paper's "words sent / 10 cycles" bandwidth
/// figures; `word_hops` additionally weights each word by the distance it
/// travels (a W-word message over h hops adds W·h), which is the stricter
/// congestion measure (see DESIGN.md §6.3).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages injected into the network.
    pub messages: u64,
    /// Total words across all messages (header + payload).
    pub words: u64,
    /// Words × hops: network load.
    pub word_hops: u64,
}

impl TrafficStats {
    /// Record one message of `words` total size travelling `hops` hops.
    pub fn record(&mut self, words: u64, hops: u32) {
        self.messages += 1;
        self.words += words;
        self.word_hops += words * u64::from(hops);
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.messages += other.messages;
        self.words += other.words;
        self.word_hops += other.word_hops;
    }

    /// Network bandwidth in the paper's unit: words sent per 10 cycles.
    pub fn words_per_10_cycles(&self, elapsed: Cycles) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.words as f64 * 10.0 / elapsed.get() as f64
    }

    /// Network *load* per 10 cycles, weighting each word by the hops it
    /// travels (a stricter congestion measure than plain words sent).
    pub fn word_hops_per_10_cycles(&self, elapsed: Cycles) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.word_hops as f64 * 10.0 / elapsed.get() as f64
    }
}

/// Cache hit/miss counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses satisfied by the local cache.
    pub hits: u64,
    /// Accesses requiring a coherence transaction.
    pub misses: u64,
    /// Lines invalidated by remote writers.
    pub invalidations_received: u64,
    /// Dirty lines written back on eviction or downgrade.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations_received += other.invalidations_received;
        self.writebacks += other.writebacks;
    }
}

/// A simple fixed-bucket histogram for latency distributions.
#[derive(Clone, Debug)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with `buckets` buckets of `bucket_width` cycles each.
    pub fn new(bucket_width: u64, buckets: usize) -> Histogram {
        assert!(bucket_width > 0 && buckets > 0);
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Forget every sample, keeping the bucket shape and its storage.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        (self.overflow, self.count, self.sum, self.max) = (0, 0, 0, 0);
    }

    /// Record one sample.
    pub fn record(&mut self, value: Cycles) {
        let v = value.get();
        let idx = (v / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate p-th percentile using bucket lower bounds.
    ///
    /// The contract, pinned by unit tests:
    /// * an empty histogram returns 0 for every `p`;
    /// * `p` is clamped to `0.0..=100.0` (a NaN behaves like 0);
    /// * `p = 0.0` returns the bucket lower bound of the *smallest*
    ///   recorded sample (not bucket 0's);
    /// * `p = 100.0` returns the bucket lower bound of the largest
    ///   bucketed sample, or [`Histogram::max`] exactly when any sample
    ///   overflowed the bucket range.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the bounding sample, at least 1 so p = 0 lands on the
        // smallest recorded sample. (A NaN `p` survives clamp, but the
        // `as u64` cast saturates NaN to 0 and the max(1) restores rank 1.)
        let target = (((p / 100.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return i as u64 * self.bucket_width;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_record_accumulates_word_hops() {
        let mut t = TrafficStats::default();
        t.record(10, 3);
        t.record(4, 0);
        assert_eq!(t.messages, 2);
        assert_eq!(t.words, 14);
        assert_eq!(t.word_hops, 30);
    }

    #[test]
    fn traffic_bandwidth_unit() {
        let mut t = TrafficStats::default();
        t.record(100, 3); // 100 words, 300 word-hops
        assert!((t.words_per_10_cycles(Cycles(1000)) - 1.0).abs() < 1e-12);
        assert!((t.word_hops_per_10_cycles(Cycles(1000)) - 3.0).abs() < 1e-12);
        assert_eq!(t.words_per_10_cycles(Cycles::ZERO), 0.0);
        assert_eq!(t.word_hops_per_10_cycles(Cycles::ZERO), 0.0);
    }

    #[test]
    fn traffic_merge() {
        let mut a = TrafficStats::default();
        a.record(5, 2);
        let mut b = TrafficStats::default();
        b.record(7, 1);
        a.merge(&b);
        assert_eq!(a.messages, 2);
        assert_eq!(a.words, 12);
        assert_eq!(a.word_hops, 17);
    }

    #[test]
    fn cache_hit_rate() {
        let mut c = CacheStats::default();
        assert_eq!(c.hit_rate(), 0.0);
        c.hits = 3;
        c.misses = 1;
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_mean_and_percentile() {
        let mut h = Histogram::new(10, 10);
        for v in [5u64, 15, 15, 25, 95, 200] {
            h.record(Cycles(v));
        }
        assert_eq!(h.count(), 6);
        assert!((h.mean() - (5 + 15 + 15 + 25 + 95 + 200) as f64 / 6.0).abs() < 1e-9);
        assert_eq!(h.max(), 200);
        // Median falls in the 10..20 bucket.
        assert_eq!(h.percentile(50.0), 10);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new(10, 4);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        // The full documented contract for an empty histogram: 0 for every
        // p, in and out of range.
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 0);
        assert_eq!(h.percentile(-1.0), 0);
        assert_eq!(h.percentile(1e9), 0);
    }

    #[test]
    fn a_cleared_histogram_reads_like_a_fresh_one() {
        let mut h = Histogram::new(10, 4);
        for v in [5u64, 25, 1234] {
            h.record(Cycles(v));
        }
        h.clear();
        assert_eq!((h.count(), h.max(), h.mean()), (0, 0, 0.0));
        assert_eq!(h.percentile(100.0), 0);
        h.record(Cycles(31));
        assert_eq!((h.count(), h.max(), h.percentile(0.0)), (1, 31, 30));
    }

    #[test]
    fn histogram_percentile_edge_cases() {
        let mut h = Histogram::new(10, 4);
        h.record(Cycles(25)); // bucket 2
        h.record(Cycles(31)); // bucket 3
                              // p = 0 lands on the smallest sample's bucket, not bucket 0.
        assert_eq!(h.percentile(0.0), 20);
        assert_eq!(h.percentile(100.0), 30);
        // Out-of-range p clamps to the endpoints.
        assert_eq!(h.percentile(-5.0), 20);
        assert_eq!(h.percentile(250.0), 30);
        // Overflow samples push p = 100 to the exact max.
        h.record(Cycles(1234));
        assert_eq!(h.percentile(100.0), 1234);
        assert_eq!(h.percentile(0.0), 20);
        assert_eq!(h.max(), 1234);
    }
}
