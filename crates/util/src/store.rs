//! The workspace's one on-disk content-addressed store. The staged
//! compile pipeline keeps its stage artifacts here (see
//! `docs/PIPELINE.md`), and the compositional fault campaigns keep
//! their section evidence and program records here as the `sect` and
//! `prog` kinds (`casted-faults::sections`, `docs/INCREMENTAL.md`).
//!
//! One file per artifact under a flat directory, named
//! `"{key:016x}.{kind}"`, an envelope that echoes the format version,
//! the key and the kind, a whole-file FNV-1a checksum tail, strictly
//! canonical decoding, and atomic temp+rename writes; callers encode
//! only their payload. Any damage — a flipped byte, a truncation, a
//! foreign or out-of-date format — makes [`ArtifactStore::load`]
//! return `None`: a cache **miss**, never wrong bytes. The caller then
//! recomputes and re-saves, healing the store in place.
//!
//! On top of that the store enforces a shared LRU byte budget across
//! all artifact kinds: an in-memory recency index is seeded from a
//! directory scan at open (ordered by file modification time) and
//! updated on every load/save; when a save pushes the resident total
//! over the budget, least-recently-used artifacts are deleted first.
//! The index is per-instance — concurrent processes sharing a
//! directory stay correct (atomic writes, self-verifying reads), they
//! just track recency independently.
//!
//! A bounded **in-memory front cache** sits over the disk layer:
//! artifacts are content-addressed, so a verified payload can be kept
//! in a process-local map and served on repeat loads without
//! re-reading or re-checksumming the file. Long-lived hosts
//! (`casted-serve`) hit it on every hot compile stage and section;
//! [`ArtifactStore::load_traced`] reports which layer answered so
//! callers can count memory hits (`compile.stages.mem_hit`). The
//! front cache has its own LRU byte budget, independent of the disk
//! budget, and is write-through: a save lands in both layers and
//! replaces what either held under that key (a section record gains
//! escape evidence under its unchanged key).

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{get_bytes, get_str, get_uvarint, put_bytes, put_str, put_uvarint};
use crate::hash::fnv1a;
use crate::pool::Mutex;

/// Bump on any incompatible change to the envelope layout. Stage
/// payload formats carry their own `STAGE_FORMAT_VERSION`s (mixed into
/// the artifact keys); this version covers only the envelope itself.
pub const STORE_FORMAT_VERSION: u64 = 1;

/// Upper bound on a decoded artifact payload (and kind string): keeps
/// a corrupted length field from asking the decoder to allocate the
/// address space.
const MAX_PAYLOAD: usize = 1 << 30;

/// Envelope: version, key echo, kind echo, payload, FNV-1a tail.
fn encode_envelope(key: u64, kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + kind.len() + 32);
    put_uvarint(&mut buf, STORE_FORMAT_VERSION);
    put_uvarint(&mut buf, key);
    put_str(&mut buf, kind);
    put_bytes(&mut buf, payload);
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Strict inverse of [`encode_envelope`]; `None` on any damage.
fn decode_envelope(key: u64, kind: &str, bytes: &[u8]) -> Option<Vec<u8>> {
    if bytes.len() < 8 {
        return None;
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv1a(payload) != stored {
        return None;
    }
    let mut pos = 0;
    if get_uvarint(payload, &mut pos)? != STORE_FORMAT_VERSION {
        return None;
    }
    if get_uvarint(payload, &mut pos)? != key {
        return None;
    }
    if get_str(payload, &mut pos, MAX_PAYLOAD)? != kind {
        return None;
    }
    let body = get_bytes(payload, &mut pos, MAX_PAYLOAD)?.to_vec();
    (pos == payload.len()).then_some(body)
}

struct LruEntry {
    seq: u64,
    size: u64,
}

struct Lru {
    next_seq: u64,
    entries: HashMap<String, LruEntry>,
    total: u64,
}

/// Which cache layer answered an [`ArtifactStore::load_traced`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadSource {
    /// Served from the in-process front cache — no file I/O, no
    /// checksum re-verification.
    Memory,
    /// Read and integrity-checked from the on-disk store.
    Disk,
}

struct MemEntry {
    seq: u64,
    payload: Vec<u8>,
}

struct MemCache {
    next_seq: u64,
    entries: HashMap<(String, u64), MemEntry>,
    total: u64,
}

/// Default in-memory front-cache budget: enough for the hot stage
/// artifacts of thousands of distinct programs, small next to the
/// serve reply cache's 32 MiB default.
pub const DEFAULT_MEM_BUDGET: u64 = 16 << 20;

/// The content-addressed artifact store. Cheap to share by reference
/// across threads (the recency index is behind a mutex; file I/O is
/// lock-free).
pub struct ArtifactStore {
    dir: PathBuf,
    budget: u64,
    lru: Mutex<Lru>,
    mem_budget: u64,
    mem: Mutex<MemCache>,
}

impl ArtifactStore {
    /// Open (creating the directory if needed) with no byte budget and
    /// the default in-memory front-cache budget.
    pub fn open(dir: &Path) -> io::Result<ArtifactStore> {
        ArtifactStore::open_with_budgets(dir, u64::MAX, DEFAULT_MEM_BUDGET)
    }

    /// Open with a shared LRU byte budget across all artifact kinds and
    /// an explicit memory budget. A `mem_budget` of 0 disables the
    /// front cache (every load re-reads disk). Existing files are
    /// indexed oldest-first by modification time, so eviction order
    /// survives a reopen.
    pub fn open_with_budgets(dir: &Path, budget: u64, mem_budget: u64) -> io::Result<ArtifactStore> {
        std::fs::create_dir_all(dir)?;
        let mut found: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = match entry {
                Ok(e) => e,
                Err(_) => continue,
            };
            let name = match entry.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            // Skip orphaned temp files and anything foreign.
            if name.starts_with('.') || !name.contains('.') {
                continue;
            }
            let meta = match entry.metadata() {
                Ok(m) => m,
                Err(_) => continue,
            };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            found.push((name, meta.len(), mtime));
        }
        // Oldest first; name breaks ties so the seed order is stable
        // even on filesystems with coarse mtimes.
        found.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut lru = Lru {
            next_seq: 0,
            entries: HashMap::with_capacity(found.len()),
            total: 0,
        };
        for (name, size, _) in found {
            let seq = lru.next_seq;
            lru.next_seq += 1;
            lru.total += size;
            lru.entries.insert(name, LruEntry { seq, size });
        }
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
            budget,
            lru: Mutex::new(lru),
            mem_budget,
            mem: Mutex::new(MemCache {
                next_seq: 0,
                entries: HashMap::new(),
                total: 0,
            }),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes currently indexed as resident.
    pub fn resident_bytes(&self) -> u64 {
        self.lru.lock().total
    }

    fn file_name(kind: &str, key: u64) -> String {
        format!("{key:016x}.{kind}")
    }

    fn path(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(Self::file_name(kind, key))
    }

    /// Bytes currently held by the in-memory front cache.
    pub fn mem_resident_bytes(&self) -> u64 {
        self.mem.lock().total
    }

    /// Look up `(kind, key)` in the in-memory front cache, refreshing
    /// its recency on a hit.
    fn mem_get(&self, kind: &str, key: u64) -> Option<Vec<u8>> {
        if self.mem_budget == 0 {
            return None;
        }
        let mut mem = self.mem.lock();
        let seq = mem.next_seq;
        mem.next_seq += 1;
        let entry = mem.entries.get_mut(&(kind.to_string(), key))?;
        entry.seq = seq;
        Some(entry.payload.clone())
    }

    /// Insert a payload into the front cache, replacing any entry
    /// under the same key, then evict least-recently-used entries past
    /// the memory budget.
    fn mem_put(&self, kind: &str, key: u64, payload: &[u8]) {
        let mut mem = self.mem.lock();
        let slot = (kind.to_string(), key);
        if let Some(old) = mem.entries.remove(&slot) {
            mem.total -= old.payload.len() as u64;
        }
        if self.mem_budget == 0 || payload.len() as u64 > self.mem_budget {
            return;
        }
        let seq = mem.next_seq;
        mem.next_seq += 1;
        mem.total += payload.len() as u64;
        mem.entries.insert(
            slot,
            MemEntry {
                seq,
                payload: payload.to_vec(),
            },
        );
        while mem.total > self.mem_budget {
            let victim = mem
                .entries
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| k.clone())
                .expect("over budget implies non-empty");
            if let Some(e) = mem.entries.remove(&victim) {
                mem.total -= e.payload.len() as u64;
            }
        }
    }

    /// Load and integrity-check the `kind` artifact stored under
    /// `key`. Any damage is a miss (`None`), never wrong bytes. A hit
    /// refreshes the artifact's LRU recency.
    pub fn load(&self, kind: &str, key: u64) -> Option<Vec<u8>> {
        self.load_traced(kind, key).map(|(payload, _)| payload)
    }

    /// [`ArtifactStore::load`], additionally reporting which layer
    /// answered — the in-process front cache or the on-disk store — so
    /// callers can meter memory hits.
    pub fn load_traced(&self, kind: &str, key: u64) -> Option<(Vec<u8>, LoadSource)> {
        if let Some(payload) = self.mem_get(kind, key) {
            return Some((payload, LoadSource::Memory));
        }
        let payload = self.load_disk(kind, key)?;
        self.mem_put(kind, key, &payload);
        Some((payload, LoadSource::Disk))
    }

    fn load_disk(&self, kind: &str, key: u64) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.path(kind, key)).ok()?;
        let payload = decode_envelope(key, kind, &bytes)?;
        let mut lru = self.lru.lock();
        let seq = lru.next_seq;
        lru.next_seq += 1;
        let name = Self::file_name(kind, key);
        match lru.entries.get_mut(&name) {
            Some(e) => e.seq = seq,
            None => {
                // Written by another process since open: adopt it.
                lru.total += bytes.len() as u64;
                lru.entries.insert(
                    name,
                    LruEntry {
                        seq,
                        size: bytes.len() as u64,
                    },
                );
            }
        }
        Some(payload)
    }

    /// Persist an artifact atomically (temp file + rename), then evict
    /// least-recently-used artifacts while the resident total exceeds
    /// the byte budget. The just-written artifact holds the highest
    /// recency, so it is evicted only if it alone exceeds the budget.
    pub fn save(&self, kind: &str, key: u64, payload: &[u8]) -> io::Result<()> {
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = encode_envelope(key, kind, payload);
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, self.path(kind, key))?;
        self.mem_put(kind, key, payload);

        let mut evict: Vec<String> = Vec::new();
        {
            let mut lru = self.lru.lock();
            let name = Self::file_name(kind, key);
            if let Some(old) = lru.entries.remove(&name) {
                lru.total -= old.size;
            }
            let seq = lru.next_seq;
            lru.next_seq += 1;
            lru.total += bytes.len() as u64;
            lru.entries.insert(
                name,
                LruEntry {
                    seq,
                    size: bytes.len() as u64,
                },
            );
            while lru.total > self.budget && !lru.entries.is_empty() {
                let victim = lru
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.seq)
                    .map(|(n, _)| n.clone())
                    .expect("non-empty");
                if let Some(e) = lru.entries.remove(&victim) {
                    lru.total -= e.size;
                }
                evict.push(victim);
            }
        }
        for name in evict {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        Ok(())
    }

    /// Delete every artifact written under a *different* envelope
    /// format version, reclaiming disk a version bump stranded: old
    /// envelopes would never hit again (the version check makes every
    /// load a miss) yet still count against the byte budget and crowd
    /// out live entries. Returns the number of files deleted.
    ///
    /// Only files whose checksum verifies and whose version field
    /// differs from [`STORE_FORMAT_VERSION`] are removed: a damaged
    /// file is indistinguishable from a half-written one and is left
    /// for the healing path (a fresh save overwrites it in place).
    /// Temp files and live-version artifacts are never touched.
    pub fn gc_stale_versions(&self) -> io::Result<usize> {
        let mut dropped: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") || !entry.file_type()?.is_file() {
                continue;
            }
            let Ok(bytes) = std::fs::read(entry.path()) else {
                continue;
            };
            if !envelope_version_is_stale(&bytes) {
                continue;
            }
            if std::fs::remove_file(entry.path()).is_ok() {
                dropped.push(name);
            }
        }
        let mut lru = self.lru.lock();
        let removed = dropped.len();
        for name in dropped {
            if let Some(e) = lru.entries.remove(&name) {
                lru.total -= e.size;
            }
        }
        Ok(removed)
    }
}

/// Does `bytes` hold an intact envelope from another format
/// generation? Damage (bad checksum, short file, unreadable varint)
/// is *not* stale — see [`ArtifactStore::gc_stale_versions`].
fn envelope_version_is_stale(bytes: &[u8]) -> bool {
    if bytes.len() < 8 {
        return false;
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if fnv1a(payload) != stored {
        return false;
    }
    let mut pos = 0;
    match get_uvarint(payload, &mut pos) {
        Some(v) => v != STORE_FORMAT_VERSION,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "casted-artifact-store-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_by_kind_and_key() {
        let dir = temp_store_dir("roundtrip");
        let store = ArtifactStore::open(&dir).unwrap();
        store.save("ir", 7, b"module bytes").unwrap();
        store.save("sched", 7, b"schedule bytes").unwrap();
        assert_eq!(store.load("ir", 7).unwrap(), b"module bytes");
        assert_eq!(store.load("sched", 7).unwrap(), b"schedule bytes");
        assert!(store.load("ir", 8).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_truncation_and_version_skew_are_misses() {
        let dir = temp_store_dir("sabotage");
        // Front cache off: this test exercises the disk integrity
        // layer, which a memory hit would (correctly) bypass.
        let store = ArtifactStore::open_with_budgets(&dir, u64::MAX, 0).unwrap();
        store.save("ed", 0xABCD, b"stage payload with some length").unwrap();
        let path = dir.join("000000000000abcd.ed");
        let clean = std::fs::read(&path).unwrap();

        // Flip one byte anywhere: the checksum must reject the file.
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 1;
            std::fs::write(&path, &bad).unwrap();
            assert!(store.load("ed", 0xABCD).is_none(), "flipped byte {i} accepted");
        }

        // Truncations at every length are misses too.
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(store.load("ed", 0xABCD).is_none(), "truncation to {cut} accepted");
        }

        // A record written under a different envelope version is a
        // miss even with a valid checksum.
        let mut skewed = Vec::new();
        put_uvarint(&mut skewed, STORE_FORMAT_VERSION + 1);
        put_uvarint(&mut skewed, 0xABCD);
        put_str(&mut skewed, "ed");
        put_bytes(&mut skewed, b"stage payload with some length");
        let sum = fnv1a(&skewed);
        skewed.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &skewed).unwrap();
        assert!(store.load("ed", 0xABCD).is_none());

        // Healing: a fresh save overwrites the damage and hits again.
        store.save("ed", 0xABCD, b"stage payload with some length").unwrap();
        assert_eq!(
            store.load("ed", 0xABCD).unwrap(),
            b"stage payload with some length"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_deletes_stale_versions_and_spares_live_entries() {
        let dir = temp_store_dir("gc");
        let store = ArtifactStore::open(&dir).unwrap();
        store.save("ir", 1, b"live one").unwrap();
        store.save("sched", 2, b"live two").unwrap();
        let live_bytes = store.resident_bytes();

        // Two intact envelopes from the previous format generation.
        for (key, kind) in [(0x10u64, "ir"), (0x11u64, "ed")] {
            let mut old = Vec::new();
            put_uvarint(&mut old, STORE_FORMAT_VERSION + 1);
            put_uvarint(&mut old, key);
            put_str(&mut old, kind);
            put_bytes(&mut old, b"stranded payload");
            let sum = fnv1a(&old);
            old.extend_from_slice(&sum.to_le_bytes());
            std::fs::write(dir.join(ArtifactStore::file_name(kind, key)), &old).unwrap();
        }
        // One damaged file: bad checksum, must be left for healing.
        let damaged = dir.join(ArtifactStore::file_name("ra", 0x12));
        std::fs::write(&damaged, b"not an envelope at all").unwrap();

        // Re-open so the LRU index adopts the stranded files too.
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.resident_bytes() > live_bytes);
        assert_eq!(store.gc_stale_versions().unwrap(), 2);

        // Live entries survive, still load, and the index shrank back.
        assert_eq!(store.load("ir", 1).unwrap(), b"live one");
        assert_eq!(store.load("sched", 2).unwrap(), b"live two");
        assert!(store.load("ir", 0x10).is_none());
        assert!(!dir.join(ArtifactStore::file_name("ir", 0x10)).exists());
        assert!(!dir.join(ArtifactStore::file_name("ed", 0x11)).exists());
        assert!(damaged.exists(), "damaged file must be left for healing");

        // Second pass finds nothing more to do.
        assert_eq!(store.gc_stale_versions().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_and_kind_echo_bind_the_artifact() {
        let dir = temp_store_dir("echo");
        let store = ArtifactStore::open(&dir).unwrap();
        store.save("ir", 1, b"one").unwrap();
        // A file renamed to another key (or kind) must not be accepted
        // there: the envelope echoes both.
        std::fs::copy(dir.join(ArtifactStore::file_name("ir", 1)), dir.join(ArtifactStore::file_name("ir", 2)))
            .unwrap();
        std::fs::copy(dir.join(ArtifactStore::file_name("ir", 1)), dir.join(ArtifactStore::file_name("ed", 1)))
            .unwrap();
        assert!(store.load("ir", 2).is_none());
        assert!(store.load("ed", 1).is_none());
        assert_eq!(store.load("ir", 1).unwrap(), b"one");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_budget_evicts_least_recent_first() {
        let dir = temp_store_dir("lru");
        // Each envelope is payload + ~20 bytes of framing; a budget of
        // three-ish records keeps the arithmetic simple.
        let payload = [0u8; 100];
        // Front cache off so disk eviction is observable as a miss.
        let store = ArtifactStore::open_with_budgets(&dir, 400, 0).unwrap();
        store.save("a", 1, &payload).unwrap();
        store.save("a", 2, &payload).unwrap();
        store.save("a", 3, &payload).unwrap();
        assert!(store.load("a", 1).is_some());
        assert!(store.load("a", 2).is_some());
        assert!(store.load("a", 3).is_some());
        // Refresh 1 so 2 becomes the least-recent, then push over
        // budget: 2 must go, 1 and 3 must stay.
        assert!(store.load("a", 1).is_some());
        assert!(store.load("a", 3).is_some());
        store.save("a", 4, &payload).unwrap();
        assert!(store.load("a", 2).is_none(), "least-recent artifact survived");
        assert!(store.load("a", 1).is_some());
        assert!(store.load("a", 3).is_some());
        assert!(store.load("a", 4).is_some());
        assert!(store.resident_bytes() <= 400);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_front_cache_answers_repeat_loads() {
        let dir = temp_store_dir("mem-hit");
        let store = ArtifactStore::open(&dir).unwrap();
        store.save("ir", 5, b"hot artifact").unwrap();
        // Write-through: the save already populated the front cache.
        let (payload, src) = store.load_traced("ir", 5).unwrap();
        assert_eq!(payload, b"hot artifact");
        assert_eq!(src, LoadSource::Memory);
        // Memory hits survive the disk layer vanishing entirely —
        // content-addressed artifacts are immutable, so the in-process
        // copy stays valid.
        std::fs::remove_dir_all(&dir).unwrap();
        let (payload, src) = store.load_traced("ir", 5).unwrap();
        assert_eq!(payload, b"hot artifact");
        assert_eq!(src, LoadSource::Memory);
        assert!(store.load("ir", 6).is_none());
    }

    #[test]
    fn save_replaces_the_front_cache_entry() {
        let dir = temp_store_dir("mem-replace");
        let store = ArtifactStore::open(&dir).unwrap();
        store.save("sect", 3, b"first").unwrap();
        assert_eq!(store.load("sect", 3).unwrap(), b"first");
        store.save("sect", 3, b"second!").unwrap();
        assert_eq!(store.load_traced("sect", 3).unwrap(), (b"second!".to_vec(), LoadSource::Memory));
        assert_eq!(store.mem_resident_bytes(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_front_cache_promotes_disk_loads() {
        let dir = temp_store_dir("mem-promote");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.save("ir", 9, b"persisted").unwrap();
        }
        // A fresh instance starts cold: first load reads disk, second
        // is a memory hit.
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(
            store.load_traced("ir", 9).unwrap(),
            (b"persisted".to_vec(), LoadSource::Disk)
        );
        assert_eq!(
            store.load_traced("ir", 9).unwrap(),
            (b"persisted".to_vec(), LoadSource::Memory)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_front_cache_respects_its_own_budget() {
        let dir = temp_store_dir("mem-budget");
        let payload = [7u8; 100];
        let store = ArtifactStore::open_with_budgets(&dir, u64::MAX, 250).unwrap();
        store.save("a", 1, &payload).unwrap();
        store.save("a", 2, &payload).unwrap();
        // Refresh 1, then push over the memory budget: 2 is evicted
        // from memory (but not from disk).
        assert_eq!(store.load_traced("a", 1).unwrap().1, LoadSource::Memory);
        store.save("a", 3, &payload).unwrap();
        assert!(store.mem_resident_bytes() <= 250);
        assert_eq!(store.load_traced("a", 2).unwrap().1, LoadSource::Disk);
        assert_eq!(store.load_traced("a", 3).unwrap().1, LoadSource::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_seeds_the_index_from_disk() {
        let dir = temp_store_dir("reopen");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.save("ir", 10, b"ten").unwrap();
            store.save("ir", 11, b"eleven").unwrap();
        }
        let store = ArtifactStore::open_with_budgets(&dir, u64::MAX, DEFAULT_MEM_BUDGET).unwrap();
        assert!(store.resident_bytes() > 0);
        assert_eq!(store.load("ir", 10).unwrap(), b"ten");
        assert_eq!(store.load("ir", 11).unwrap(), b"eleven");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
