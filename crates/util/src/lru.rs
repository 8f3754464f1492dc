//! A byte-budgeted least-recently-used map from keys to byte payloads:
//! the one LRU behind the artifact store's in-memory front cache
//! (`store`) and `casted-serve`'s reply cache.
//!
//! Each entry is charged its payload length plus [`ENTRY_OVERHEAD`],
//! so a flood of tiny values still respects the budget. Recency is a
//! monotonic stamp per entry, mirrored in an ordered index (stamp →
//! key), so eviction pops the oldest entry instead of scanning the
//! map. Callers that share a map across threads wrap it in one
//! [`crate::Mutex`].

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Bookkeeping bytes charged per entry on top of its payload.
pub const ENTRY_OVERHEAD: usize = 64;

/// The byte-budgeted LRU map.
pub struct ByteLru<K> {
    budget: usize,
    bytes: usize,
    tick: u64,
    map: HashMap<K, (u64, Vec<u8>)>,
    order: BTreeMap<u64, K>,
}

fn cost(payload: &[u8]) -> usize {
    payload.len() + ENTRY_OVERHEAD
}

impl<K: Hash + Eq + Clone> ByteLru<K> {
    /// An empty map holding at most `budget` charged bytes (0 caches
    /// nothing).
    pub fn new(budget: usize) -> ByteLru<K> {
        ByteLru {
            budget,
            bytes: 0,
            tick: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// A copy of the payload under `key`, marking it most recently
    /// used.
    pub fn get(&mut self, key: &K) -> Option<Vec<u8>> {
        self.tick += 1;
        let (stamp, payload) = self.map.get_mut(key)?;
        let k = self.order.remove(stamp).expect("indexed stamp");
        *stamp = self.tick;
        self.order.insert(self.tick, k);
        Some(payload.clone())
    }

    /// Insert `payload` under `key`, replacing any entry there, then
    /// evict least-recently-used entries until the map fits its
    /// budget. A payload larger than the budget is not cached (the
    /// old entry is still dropped). The new entry is never evicted:
    /// it fits alone and holds the newest stamp. Returns the number
    /// of entries evicted.
    pub fn insert(&mut self, key: K, payload: Vec<u8>) -> u64 {
        if let Some((stamp, old)) = self.map.remove(&key) {
            self.order.remove(&stamp);
            self.bytes -= cost(&old);
        }
        if cost(&payload) > self.budget {
            return 0;
        }
        self.tick += 1;
        self.bytes += cost(&payload);
        self.order.insert(self.tick, key.clone());
        self.map.insert(key, (self.tick, payload));
        let mut evicted = 0;
        while self.bytes > self.budget {
            let (_, victim) = self
                .order
                .pop_first()
                .expect("over budget implies an older entry");
            let (_, gone) = self.map.remove(&victim).expect("indexed key");
            self.bytes -= cost(&gone);
            evicted += 1;
        }
        evicted
    }

    /// Charged bytes held (payloads plus per-entry overhead).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_pops_the_oldest_and_reports_the_count() {
        // Three 100-byte entries fit; a fourth pushes out the oldest.
        let mut lru = ByteLru::new(3 * (100 + ENTRY_OVERHEAD));
        for k in 1..=3u64 {
            assert_eq!(lru.insert(k, vec![0; 100]), 0);
        }
        // Touch 1 and 3 so 2 is the oldest.
        assert!(lru.get(&1).is_some());
        assert!(lru.get(&3).is_some());
        assert_eq!(lru.insert(4, vec![0; 100]), 1);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.len(), 3);
        // A payload needing two slots evicts the two oldest (1, 3).
        assert_eq!(lru.insert(5, vec![0; 264]), 2);
        assert_eq!((lru.get(&1), lru.get(&3)), (None, None));
        assert!(lru.get(&4).is_some() && lru.get(&5).is_some());
        assert_eq!(lru.bytes(), 100 + 264 + 2 * ENTRY_OVERHEAD);
        // A payload as large as the whole budget evicts everything
        // else and stays.
        assert_eq!(lru.insert(6, vec![0; 300 + 2 * ENTRY_OVERHEAD]), 2);
        assert_eq!(lru.len(), 1);
        assert!(lru.get(&6).is_some());
    }

    #[test]
    fn oversized_insert_drops_the_stale_entry() {
        let mut lru = ByteLru::new(200);
        lru.insert(7u64, vec![1; 10]);
        assert_eq!(lru.insert(7, vec![2; 500]), 0);
        assert_eq!(lru.get(&7), None);
        assert_eq!((lru.len(), lru.bytes()), (0, 0));
    }
}
