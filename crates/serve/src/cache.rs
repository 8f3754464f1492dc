//! Sharded content-addressed reply cache with LRU eviction under a
//! byte budget.
//!
//! Keys are [`crate::protocol::cache_key`] digests of canonical
//! request encodings; values are the **encoded reply frames** the cold
//! path produced. Caching bytes (not decoded structs) makes the
//! serving-path guarantee trivial: a cache hit replays exactly the
//! bytes a recomputation would have written — the determinism gate in
//! `tests/serve_determinism.rs` pins this end to end.
//!
//! The map is split into `SHARDS` independently locked shards (key →
//! shard by high digest bits) so concurrent connection threads on the
//! hit path do not serialize behind one lock. Each shard owns
//! `byte_budget / SHARDS` bytes; inserting past the budget
//! evicts least-recently-used entries first (recency is a per-shard
//! monotonic tick stamped on every hit). Eviction scans the shard for
//! the minimum stamp — O(entries) but only on the insert path, never
//! on the hot hit path.
//!
//! Instrumented via `casted-obs`: `serve.cache.hit`, `serve.cache.miss`,
//! `serve.cache.evict`, `serve.cache.insert` counters and the
//! `serve.cache.bytes` gauge.

use std::collections::HashMap;

use casted_util::Mutex;

/// Independently locked shards of the map.
const SHARDS: usize = 16;

/// Cache sizing.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Total byte budget across all shards (0 disables caching).
    pub byte_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: 32 << 20,
        }
    }
}

struct Entry {
    bytes: Vec<u8>,
    stamp: u64,
}

/// Bookkeeping overhead charged per entry on top of the payload, so a
/// flood of tiny replies still respects the budget.
const ENTRY_OVERHEAD: usize = 64;

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
}

impl Shard {
    fn cost(bytes: &[u8]) -> usize {
        bytes.len() + ENTRY_OVERHEAD
    }

    fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.map.get_mut(&key)?;
        e.stamp = tick;
        Some(e.bytes.clone())
    }

    /// Insert, evicting LRU entries until the shard fits its budget.
    /// Returns the number of evictions.
    fn insert(&mut self, key: u64, bytes: Vec<u8>, budget: usize) -> u64 {
        let cost = Self::cost(&bytes);
        if cost > budget {
            return 0; // An oversized reply just isn't cached.
        }
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key,
            Entry {
                bytes,
                stamp: self.tick,
            },
        ) {
            self.bytes -= Self::cost(&old.bytes);
        }
        self.bytes += cost;
        let mut evicted = 0;
        while self.bytes > budget {
            // Never evict the entry just inserted (it holds the
            // maximum stamp anyway; the filter makes that a guarantee
            // rather than a consequence).
            let victim = self
                .map
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            let gone = self.map.remove(&victim).unwrap();
            self.bytes -= Self::cost(&gone.bytes);
            evicted += 1;
        }
        evicted
    }
}

/// The sharded content-addressed reply cache.
pub struct Cache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
}

impl Cache {
    /// Build a cache from its config.
    pub fn new(cfg: &CacheConfig) -> Cache {
        Cache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: cfg.byte_budget / SHARDS,
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // High bits: FNV's low bits are the least mixed.
        &self.shards[(key >> 40) as usize % SHARDS]
    }

    /// Look up a reply. Records `serve.cache.{hit,miss}`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let out = self.shard(key).lock().get(key);
        casted_obs::inc(if out.is_some() {
            "serve.cache.hit"
        } else {
            "serve.cache.miss"
        });
        out
    }

    /// Insert a reply, evicting LRU entries past the byte budget.
    /// Records `serve.cache.insert` / `serve.cache.evict` and the
    /// `serve.cache.bytes` gauge.
    pub fn insert(&self, key: u64, bytes: Vec<u8>) {
        let evicted = self.shard(key).lock().insert(key, bytes, self.shard_budget);
        casted_obs::inc("serve.cache.insert");
        if evicted > 0 {
            casted_obs::add("serve.cache.evict", evicted);
        }
        casted_obs::gauge_set("serve.cache.bytes", self.bytes() as u64);
    }

    /// Total cached payload bytes (incl. per-entry overhead).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Total cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache whose shard 0 holds `budget` bytes. The tests' small
    /// keys all land in shard 0 (their high bits are zero).
    fn tiny(budget: usize) -> Cache {
        Cache::new(&CacheConfig {
            byte_budget: budget * SHARDS,
        })
    }

    #[test]
    fn get_after_insert_returns_the_bytes() {
        let c = tiny(4096);
        assert_eq!(c.get(1), None);
        c.insert(1, vec![1, 2, 3]);
        assert_eq!(c.get(1), Some(vec![1, 2, 3]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_replaces_and_keeps_accounting() {
        let c = tiny(4096);
        c.insert(1, vec![0; 100]);
        let b0 = c.bytes();
        c.insert(1, vec![0; 10]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), b0 - 90);
    }

    #[test]
    fn eviction_is_lru_under_byte_budget() {
        // Budget fits two ~(100+overhead) entries, not three.
        let c = tiny(2 * (100 + ENTRY_OVERHEAD) + 20);
        c.insert(1, vec![0; 100]);
        c.insert(2, vec![0; 100]);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        c.insert(3, vec![0; 100]);
        assert!(c.get(1).is_some(), "recently-used entry survived");
        assert_eq!(c.get(2), None, "LRU entry evicted");
        assert!(c.get(3).is_some(), "fresh entry present");
        assert!(c.bytes() <= 2 * (100 + ENTRY_OVERHEAD) + 20);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let c = tiny(64);
        c.insert(1, vec![0; 1000]);
        assert_eq!(c.get(1), None);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let c = tiny(0);
        c.insert(1, vec![1]);
        assert_eq!(c.get(1), None);
    }

    #[test]
    fn shards_partition_keys() {
        let c = Cache::new(&CacheConfig {
            byte_budget: 1 << 20,
        });
        for k in 0..1000u64 {
            c.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), vec![0; 8]);
        }
        assert_eq!(c.len(), 1000);
        let occupied = c.shards.iter().filter(|s| !s.lock().map.is_empty()).count();
        assert_eq!(occupied, SHARDS, "keys should spread over every shard");
    }
}
