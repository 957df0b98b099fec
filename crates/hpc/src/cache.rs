//! Set-associative LRU cache model.

use serde::{Deserialize, Serialize};

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A 32 KiB, 8-way, 64-byte-line L1 data cache.
    pub fn l1d() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// A 1 MiB, 16-way, 64-byte-line last-level cache.
    pub fn llc() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024 * 1024,
            line_bytes: 64,
            ways: 16,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes or capacity not a
    /// multiple of `line_bytes × ways`).
    pub fn num_sets(&self) -> usize {
        assert!(
            self.size_bytes > 0 && self.line_bytes > 0 && self.ways > 0,
            "cache geometry must be non-zero"
        );
        // A positive multiple of the set size is at least one set.
        let set_bytes = self.line_bytes * self.ways;
        assert!(
            self.size_bytes.is_multiple_of(set_bytes),
            "cache capacity must be a multiple of line size x associativity"
        );
        self.size_bytes / set_bytes
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Only tag state is modelled (no data), which is all the counter simulation
/// needs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[set][way] = Some(tag)`, most-recently-used first.
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let num_sets = config.num_sets();
        Cache {
            config,
            sets: vec![Vec::with_capacity(config.ways); num_sets],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Performs one access to byte address `address`. Returns `true` on hit.
    pub fn access(&mut self, address: u64) -> bool {
        let line = address / self.config.line_bytes as u64;
        let set_index = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[set_index];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.insert(0, t);
            self.hits += 1;
            true
        } else {
            if set.len() == self.config.ways {
                set.pop(); // evict LRU
            }
            set.insert(0, tag);
            self.misses += 1;
            false
        }
    }

    /// Number of hits since construction or the last [`Cache::reset_stats`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses since construction or the last [`Cache::reset_stats`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total number of accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Resets the hit/miss statistics (cache contents are kept, matching how
    /// perf counters are read per interval without flushing the cache).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Empties the cache and clears the statistics.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> Cache {
        // 4 sets x 2 ways x 64-byte lines = 512 bytes
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn geometry_is_computed_correctly() {
        assert_eq!(CacheConfig::l1d().num_sets(), 64);
        assert_eq!(CacheConfig::llc().num_sets(), 1024);
        assert_eq!(tiny_cache().config().num_sets(), 4);
    }

    #[test]
    fn repeated_access_hits_after_first_miss() {
        let mut cache = tiny_cache();
        assert!(!cache.access(0x1000));
        assert!(cache.access(0x1000));
        assert!(cache.access(0x1004), "same line, different offset");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_line() {
        let mut cache = tiny_cache();
        // Three distinct lines mapping to the same set (stride = sets*line = 256).
        let a = 0x0000;
        let b = 0x0100;
        let c = 0x0200;
        cache.access(a); // miss
        cache.access(b); // miss
        cache.access(a); // hit, a becomes MRU
        cache.access(c); // miss, evicts b (LRU)
        assert!(cache.access(a), "a should still be resident");
        assert!(!cache.access(b), "b should have been evicted");
    }

    #[test]
    fn working_set_larger_than_cache_always_misses_on_streaming() {
        let mut cache = tiny_cache();
        // Stream through 64 distinct lines twice; capacity is 8 lines.
        for round in 0..2 {
            for i in 0..64u64 {
                cache.access(i * 64);
            }
            if round == 0 {
                assert_eq!(cache.misses(), 64);
            }
        }
        // second pass also misses everything (LRU streaming pathology)
        assert_eq!(cache.misses(), 128);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn small_working_set_fits_and_hits() {
        let mut cache = tiny_cache();
        for _ in 0..10 {
            for i in 0..4u64 {
                cache.access(i * 64);
            }
        }
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 36);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut cache = tiny_cache();
        cache.access(0x40);
        cache.reset_stats();
        assert_eq!(cache.accesses(), 0);
        assert!(cache.access(0x40), "line survives a stats reset");
        cache.flush();
        assert!(!cache.access(0x40), "flush empties the cache");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn degenerate_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 0,
            line_bytes: 64,
            ways: 1,
        });
    }

    #[test]
    #[should_panic(expected = "multiple of line size x associativity")]
    fn capacity_off_the_set_size_panics() {
        // 1000 B of 64 B lines in 8 ways is 1.95 sets; it must not
        // silently become one 512 B set.
        let _ = Cache::new(CacheConfig {
            size_bytes: 1000,
            line_bytes: 64,
            ways: 8,
        });
    }

    #[test]
    #[should_panic(expected = "multiple of line size x associativity")]
    fn capacity_below_one_set_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 8,
        });
    }
}
