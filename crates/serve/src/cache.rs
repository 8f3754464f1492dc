//! Content-addressed reply cache: one byte-budgeted LRU behind one
//! lock.
//!
//! Keys are [`crate::protocol::cache_key`] digests of canonical
//! request encodings; values are the **encoded reply frames** the cold
//! path produced. Caching bytes (not decoded structs) makes the
//! serving-path guarantee trivial: a cache hit replays exactly the
//! bytes a recomputation would have written — the determinism gate in
//! `tests/serve_determinism.rs` pins this end to end.
//!
//! The map is a [`casted_util::lru::ByteLru`], the LRU the artifact
//! store's front cache uses: each entry is charged its bytes plus a
//! fixed overhead, a reply larger than the whole budget is not
//! cached, and inserting past the budget evicts least-recently-used
//! entries first. Its only reader is the event-loop thread and its
//! writers are the workers, so one mutex is all the locking it needs.
//!
//! Instrumented via `casted-obs`: `serve.cache.hit`, `serve.cache.miss`,
//! `serve.cache.evict`, `serve.cache.insert` counters and the
//! `serve.cache.bytes` gauge.

use casted_util::lru::ByteLru;
use casted_util::Mutex;

/// Cache sizing.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Total byte budget (0 disables caching).
    pub byte_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: 32 << 20,
        }
    }
}

/// The content-addressed reply cache.
pub struct Cache {
    lru: Mutex<ByteLru<u64>>,
}

impl Cache {
    /// Build a cache from its config.
    pub fn new(cfg: &CacheConfig) -> Cache {
        Cache {
            lru: Mutex::new(ByteLru::new(cfg.byte_budget)),
        }
    }

    /// Look up a reply. Records `serve.cache.{hit,miss}`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let out = self.lru.lock().get(&key);
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
        let (evicted, held) = {
            let mut lru = self.lru.lock();
            (lru.insert(key, bytes), lru.bytes())
        };
        casted_obs::inc("serve.cache.insert");
        if evicted > 0 {
            casted_obs::add("serve.cache.evict", evicted);
        }
        casted_obs::gauge_set("serve.cache.bytes", held as u64);
    }

    /// Total cached payload bytes (incl. per-entry overhead).
    pub fn bytes(&self) -> usize {
        self.lru.lock().bytes()
    }

    /// Total cached entries.
    pub fn len(&self) -> usize {
        self.lru.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_util::lru::ENTRY_OVERHEAD;

    fn tiny(budget: usize) -> Cache {
        Cache::new(&CacheConfig {
            byte_budget: budget,
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
    fn a_small_budget_still_caches_a_reply_an_eighth_its_size() {
        let c = tiny(16 << 10);
        c.insert(1, vec![5; 2 << 10]);
        assert_eq!(c.get(1), Some(vec![5; 2 << 10]));
    }
}
