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
    /// multiple of `line_bytes × ways`), if `line_bytes` is not a power of
    /// two, or if the set count is not a power of two: a [`Cache`] finds a
    /// line's set and tag by shift and mask.
    pub fn num_sets(&self) -> usize {
        assert!(
            self.size_bytes > 0 && self.line_bytes > 0 && self.ways > 0,
            "cache geometry must be non-zero"
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "cache line size must be a power of two"
        );
        // A positive multiple of the set size is at least one set.
        let set_bytes = self.line_bytes * self.ways;
        assert!(
            self.size_bytes.is_multiple_of(set_bytes),
            "cache capacity must be a multiple of line size x associativity"
        );
        let num_sets = self.size_bytes / set_bytes;
        assert!(
            num_sets.is_power_of_two(),
            "cache set count must be a power of two"
        );
        num_sets
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Only tag state is modelled (no data), which is all the counter simulation
/// needs. The tags of every set sit in one flat array, each set's slice
/// ordered most recently used first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: an address's line is `address >> line_shift`.
    line_shift: u32,
    /// `log2(num_sets)`: a line's tag is `line >> set_shift`.
    set_shift: u32,
    /// `tags[set * ways..][..filled[set]]`: the set's resident tags, most
    /// recently used first. Slots past `filled[set]` hold 0.
    tags: Vec<u64>,
    /// Resident tags per set.
    filled: Vec<usize>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`CacheConfig::num_sets`] rejects.
    pub fn new(config: CacheConfig) -> Cache {
        let num_sets = config.num_sets();
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: num_sets.trailing_zeros(),
            tags: vec![0; num_sets * config.ways],
            filled: vec![0; num_sets],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Performs one access to byte address `address`. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, address: u64) -> bool {
        let line = address >> self.line_shift;
        let set = (line & ((1 << self.set_shift) - 1)) as usize;
        let tag = line >> self.set_shift;
        let ways = self.config.ways;
        let slots = &mut self.tags[set * ways..(set + 1) * ways];
        let filled = &mut self.filled[set];
        let hit = slots[..*filled].iter().position(|&t| t == tag);
        // The slot the tag comes from (a hit) or the one a miss frees: the
        // first empty slot, or the LRU way of a full set.
        let from = match hit {
            Some(way) => way,
            None if *filled < ways => {
                *filled += 1;
                *filled - 1
            }
            None => ways - 1,
        };
        slots.copy_within(..from, 1);
        slots[0] = tag;
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit.is_some()
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
        self.tags.fill(0);
        self.filled.fill(0);
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The move-to-front reference: one `Vec` of tags per set, most recently
    /// used first, found by division.
    struct MoveToFront {
        line_bytes: u64,
        ways: usize,
        sets: Vec<Vec<u64>>,
    }

    impl MoveToFront {
        fn new(config: CacheConfig) -> MoveToFront {
            MoveToFront {
                line_bytes: config.line_bytes as u64,
                ways: config.ways,
                sets: vec![Vec::new(); config.num_sets()],
            }
        }

        fn access(&mut self, address: u64) -> bool {
            let line = address / self.line_bytes;
            let num_sets = self.sets.len() as u64;
            let set = &mut self.sets[(line % num_sets) as usize];
            let tag = line / num_sets;
            let hit = match set.iter().position(|&t| t == tag) {
                Some(way) => {
                    set.remove(way);
                    true
                }
                None => {
                    if set.len() == self.ways {
                        set.pop();
                    }
                    false
                }
            };
            set.insert(0, tag);
            hit
        }
    }

    fn tiny_cache() -> Cache {
        // 4 sets x 2 ways x 64-byte lines = 512 bytes
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn flat_sets_hit_and_miss_like_move_to_front() {
        let geometries = [tiny_cache().config, CacheConfig::l1d(), CacheConfig::llc()];
        for (seed, config) in geometries.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut flat = Cache::new(config);
            let mut reference = MoveToFront::new(config);
            // Mostly a region three times the capacity, so sets fill, hit,
            // evict and refill; now and then a line anywhere in the address
            // space, so the top tag bits take part.
            let region = 3 * config.size_bytes as u64;
            for i in 0..200_000 {
                let address = if rng.gen_bool(0.01) {
                    rng.gen::<u64>()
                } else {
                    rng.gen_range(0..region)
                };
                let expected = reference.access(address);
                assert_eq!(
                    flat.access(address),
                    expected,
                    "{config:?}: access {i} to {address:#x}"
                );
            }
            assert!(flat.hits() > 0 && flat.misses() > 0, "{config:?}");
        }
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
    #[should_panic(expected = "line size must be a power of two")]
    fn line_size_off_a_power_of_two_panics() {
        // Ten 96 B sets: a whole number of sets, but 48 B lines cannot be
        // found by shift.
        let _ = Cache::new(CacheConfig {
            size_bytes: 960,
            line_bytes: 48,
            ways: 2,
        });
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn set_count_off_a_power_of_two_panics() {
        // Three 128 B sets: a whole number of sets, but not a mask's worth.
        let _ = Cache::new(CacheConfig {
            size_bytes: 384,
            line_bytes: 64,
            ways: 2,
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
