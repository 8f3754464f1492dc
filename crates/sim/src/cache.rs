//! Set-associative, LRU, inclusive cache hierarchy (Table I).
//!
//! Each level allocates only the sets and ways the simulated program's
//! memory can reach. The simulator accesses the cache only after
//! `check_addr` has accepted the address (`addr < words * 8`), so every
//! line index is below `L = ceil(reachable_bytes / line_bytes)`. A level
//! keeps `min(sets, L)` sets of `min(ways, ceil(L / sets))` ways: no set
//! can then hold more distinct lines than it has allocated ways, so the
//! small layout never evicts where the full one would not, both fill the
//! first invalid way, and hits, LRU stamps, latencies and [`CacheStats`]
//! are identical to the full configured geometry. The Table I L3 alone
//! is 24,576 ways (393 KB of tags and stamps); a MiniC kernel reaches at
//! most 864 of its lines, and every checkpoint clones this state.

use casted_ir::{CacheLevelConfig, MachineConfig};

/// Per-level hit counters plus memory accesses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits per level, in hierarchy order (L1 first).
    pub hits: Vec<u64>,
    /// Accesses that missed every level and went to memory.
    pub memory_accesses: u64,
    /// Total accesses.
    pub accesses: u64,
}

impl CacheStats {
    /// Miss ratio of the first level (1.0 when there were no accesses
    /// is reported as 0.0).
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let l1_hits = self.hits.first().copied().unwrap_or(0);
        1.0 - l1_hits as f64 / self.accesses as f64
    }
}

/// One cache level: the reachable `sets × ways` of line tags with LRU
/// stamps.
#[derive(Clone)]
struct Level {
    cfg: CacheLevelConfig,
    /// Set-index mask of the full geometry (`cfg.sets() - 1`).
    set_mask: usize,
    /// Lines the program can address; a line at or past this bound
    /// could alias a way the full geometry keeps apart, so it panics.
    lines: u64,
    /// Allocated ways per set (`<= cfg.ways`).
    ways: usize,
    /// `tags[set * ways + way]` = line address or `u64::MAX` (invalid).
    tags: Vec<u64>,
    /// LRU timestamp parallel to `tags`.
    stamp: Vec<u64>,
    tick: u64,
    /// Indices of ways that have ever been filled, in fill order.
    /// Lines are never invalidated, so this is exactly the valid set;
    /// it lets `fingerprint_into` scale with residency instead of
    /// scanning every allocated way.
    touched: Vec<u32>,
}

impl Level {
    fn new(cfg: CacheLevelConfig, reachable_bytes: u64) -> Self {
        let sets = cfg.sets();
        let lines = reachable_bytes.div_ceil(cfg.line_bytes as u64);
        let sets_alloc = sets.min(lines as usize);
        // With a power-of-two set count, lines `< L` spread at most
        // `ceil(L / sets)` to a set. Any other count indexes through a
        // mask with holes, which can crowd a set more; keep every way.
        let ways = if sets.is_power_of_two() {
            cfg.ways.min(lines.div_ceil(sets as u64) as usize)
        } else {
            cfg.ways
        };
        Level {
            set_mask: sets - 1,
            lines,
            ways,
            tags: vec![u64::MAX; sets_alloc * ways],
            stamp: vec![0; sets_alloc * ways],
            tick: 0,
            touched: Vec::new(),
            cfg,
        }
    }

    /// Line index and first allocated way of the set holding `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, usize) {
        let line = addr / self.cfg.line_bytes as u64;
        assert!(
            line < self.lines,
            "cache access at {addr:#x} is past the {} reachable lines of {}",
            self.lines,
            self.cfg.name
        );
        (line, ((line as usize) & self.set_mask) * self.ways)
    }

    /// Probe for `addr`; on hit refresh LRU and return true.
    fn probe(&mut self, addr: u64) -> bool {
        let (line, base) = self.locate(addr);
        self.tick += 1;
        for idx in base..base + self.ways {
            if self.tags[idx] == line {
                self.stamp[idx] = self.tick;
                return true;
            }
        }
        false
    }

    /// Insert the line for `addr`, evicting the LRU way.
    fn fill(&mut self, addr: u64) {
        let (line, base) = self.locate(addr);
        self.tick += 1;
        let mut victim = base;
        for idx in base..base + self.ways {
            if self.tags[idx] == u64::MAX {
                victim = idx;
                break;
            }
            if self.stamp[idx] < self.stamp[victim] {
                victim = idx;
            }
        }
        if self.tags[victim] == u64::MAX {
            self.touched.push(victim as u32);
        }
        self.tags[victim] = line;
        self.stamp[victim] = self.tick;
    }

    /// Index of allocated slot `idx` in the full configured geometry.
    fn logical_index(&self, idx: usize) -> u64 {
        ((idx / self.ways) * self.cfg.ways + idx % self.ways) as u64
    }

    fn heap_bytes(&self) -> usize {
        (self.tags.capacity() + self.stamp.capacity()) * 8 + self.touched.capacity() * 4
    }
}

/// The full hierarchy. `access` returns the latency of the satisfying
/// level and fills all levels above it (inclusive fill on access).
///
/// `Clone` snapshots the complete replacement state (tags, LRU stamps,
/// counters), which is what lets the checkpoint engine resume a run
/// with bit-identical cache timing (see `crate::checkpoint`). Sized to
/// the reachable memory (module doc), a clone costs a few KB for a
/// MiniC kernel instead of the ~430 KB of the full Table I geometry.
#[derive(Clone)]
pub struct CacheHierarchy {
    levels: Vec<Level>,
    memory_latency: u32,
    /// Latency when there are no cache levels at all (perfect memory).
    perfect_latency: u32,
    /// Public statistics.
    pub stats: CacheStats,
}

impl CacheHierarchy {
    /// Build the hierarchy described by `config` for a program that
    /// addresses bytes `[0, reachable_bytes)`. Accessing an address at
    /// or past that bound panics.
    pub fn new(config: &MachineConfig, reachable_bytes: u64) -> Self {
        CacheHierarchy {
            levels: config
                .cache_levels
                .iter()
                .map(|cfg| Level::new(cfg.clone(), reachable_bytes))
                .collect(),
            memory_latency: config.memory_latency,
            perfect_latency: config.latency.load_hit,
            stats: CacheStats {
                hits: vec![0; config.cache_levels.len()],
                ..CacheStats::default()
            },
        }
    }

    /// Access byte address `addr`; returns the access latency in
    /// cycles. Reads and writes follow the same allocate-on-access
    /// path (write-allocate).
    pub fn access(&mut self, addr: u64) -> u32 {
        self.stats.accesses += 1;
        if self.levels.is_empty() {
            return self.perfect_latency;
        }
        for i in 0..self.levels.len() {
            if self.levels[i].probe(addr) {
                self.stats.hits[i] += 1;
                // Inclusive fill into the levels above.
                for j in 0..i {
                    self.levels[j].fill(addr);
                }
                return self.levels[i].cfg.latency;
            }
        }
        self.stats.memory_accesses += 1;
        for level in &mut self.levels {
            level.fill(addr);
        }
        self.memory_latency
    }

    /// Absorb the timing-relevant replacement state into `h`: per
    /// level, the LRU tick plus every *valid* line's `(index, tag,
    /// stamp)`. `index` is `set * ways + way` in the full configured
    /// geometry, so the digest does not depend on how much of it is
    /// allocated. Two hierarchies that hash equal respond identically
    /// to every future access sequence, which is what the convergence
    /// pruning in `crate::checkpoint` relies on.
    ///
    /// Valid ways are enumerated through the fill-order `touched`
    /// list, so the cost scales with residency rather than capacity.
    /// Fill order is part of the hashed sequence, but that costs no
    /// pruning in practice: `tick` counts every probe and fill, so
    /// two runs whose access histories diverged at all already hash
    /// differently, and runs with identical histories fill in the
    /// same order.
    pub fn fingerprint_into(&self, h: &mut casted_util::hash::Fnv64) {
        h.write_u64_round(self.levels.len() as u64);
        for level in &self.levels {
            h.write_u64_round(level.tick);
            for &idx in &level.touched {
                let idx = idx as usize;
                h.write_u64_round(level.logical_index(idx));
                h.write_u64_round(level.tags[idx]);
                h.write_u64_round(level.stamp[idx]);
            }
        }
    }

    /// Heap bytes held by the replacement state and the counters.
    pub fn heap_bytes(&self) -> usize {
        let levels: usize = self.levels.iter().map(Level::heap_bytes).sum();
        levels + self.stats.hits.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::itanium2_like(2, 1)
    }

    /// Twice the L3: every level is allocated in full.
    const FULL: u64 = 8 << 20;

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = CacheHierarchy::new(&cfg(), FULL);
        assert_eq!(c.access(4096), 150);
        assert_eq!(c.access(4096), 1);
        assert_eq!(c.access(4096 + 32), 1, "same 64B line");
        assert_eq!(c.stats.memory_accesses, 1);
        assert_eq!(c.stats.hits[0], 2);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut c = CacheHierarchy::new(&cfg(), FULL);
        // L1: 16K, 64B lines, 4-way -> 64 sets. Fill one set with 5
        // lines (stride = 64 sets * 64B = 4096B) to evict the first.
        for i in 0..5u64 {
            c.access(4096 + i * 4096);
        }
        // First line evicted from L1 but still in L2 (256K).
        let lat = c.access(4096);
        assert_eq!(lat, 5, "expected an L2 hit");
    }

    #[test]
    fn streaming_beyond_l3_goes_to_memory() {
        let mut c = CacheHierarchy::new(&cfg(), FULL);
        // Touch 6 MB with 128-byte stride: twice the L3.
        let lines = 6 * 1024 * 1024 / 128;
        for i in 0..lines as u64 {
            c.access(4096 + i * 128);
        }
        // Re-streaming from the start must miss L3 again (LRU).
        let lat = c.access(4096);
        assert_eq!(lat, 150);
        assert!(c.stats.memory_accesses > lines as u64 / 2);
    }

    #[test]
    fn perfect_memory_has_flat_latency() {
        let mut c = CacheHierarchy::new(&MachineConfig::perfect_memory(1, 1), FULL);
        for i in 0..1000u64 {
            assert_eq!(c.access(i * 8192), 1);
        }
        assert_eq!(c.stats.memory_accesses, 0);
    }

    #[test]
    fn lru_keeps_hot_line() {
        let mut c = CacheHierarchy::new(&cfg(), FULL);
        // Hot line A, then stream 4 conflicting lines while re-touching
        // A between fills: A must stay resident in L1.
        let a = 4096u64;
        c.access(a);
        for i in 1..=4u64 {
            c.access(a + i * 4096);
            c.access(a);
        }
        assert_eq!(c.access(a), 1);
    }

    #[test]
    fn allocation_follows_reachable_memory() {
        let full = CacheHierarchy::new(&cfg(), FULL);
        let small = CacheHierarchy::new(&cfg(), 64 * 1024);
        // 64 KB: 1,024 L1 lines over 64 sets (all 4 ways), 512 L2 and
        // L3 lines over 256 and 2,048 sets (2 ways and 1 way).
        let ways =
            |c: &CacheHierarchy| -> Vec<usize> { c.levels.iter().map(|l| l.tags.len()).collect() };
        assert_eq!(ways(&full), vec![256, 2048, 24576]);
        assert_eq!(ways(&small), vec![256, 512, 512]);
        assert!(small.heap_bytes() * 10 < full.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "reachable lines")]
    fn access_past_reachable_memory_panics() {
        // Line 512 of L3 would share set 0's only allocated way with
        // line 0 in a 64 KB layout; it must panic, not alias.
        let mut c = CacheHierarchy::new(&cfg(), 64 * 1024);
        c.access(64 * 1024);
    }
}
