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
//! The disk layer has no budget, index or garbage collection: nothing
//! deletes an artifact file. Concurrent processes sharing a directory
//! stay correct (atomic writes, self-verifying reads).
//!
//! A bounded **in-memory front cache** sits over the disk layer:
//! artifacts are content-addressed, so a verified payload can be kept
//! in a process-local [`ByteLru`] (16 MiB) and served on repeat loads
//! without re-reading or re-checksumming the file. Long-lived hosts
//! (`casted-serve`) hit it on every hot compile stage and section;
//! [`ArtifactStore::load_traced`] reports which layer answered so
//! callers can count memory hits (`compile.stages.mem_hit`). The
//! front cache is write-through: a save lands in both layers and
//! replaces what either held under that key (a section record gains
//! escape evidence under its unchanged key).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{get_bytes, get_str, get_uvarint, put_bytes, put_str, put_uvarint};
use crate::hash::fnv1a;
use crate::lru::ByteLru;
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

/// Which cache layer answered an [`ArtifactStore::load_traced`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadSource {
    /// Served from the in-process front cache — no file I/O, no
    /// checksum re-verification.
    Memory,
    /// Read and integrity-checked from the on-disk store.
    Disk,
}

/// Front-cache budget: enough for the hot stage artifacts of thousands
/// of distinct programs, small next to the serve reply cache's 32 MiB
/// default.
const MEM_BUDGET: usize = 16 << 20;

/// The content-addressed artifact store. Cheap to share by reference
/// across threads (the front cache is behind a mutex; file I/O is
/// lock-free).
pub struct ArtifactStore {
    dir: PathBuf,
    mem: Mutex<ByteLru<(String, u64)>>,
}

impl ArtifactStore {
    /// Open the store at `dir`, creating the directory if needed.
    pub fn open(dir: &Path) -> io::Result<ArtifactStore> {
        std::fs::create_dir_all(dir)?;
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
            mem: Mutex::new(ByteLru::new(MEM_BUDGET)),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{kind}"))
    }

    /// Load and integrity-check the `kind` artifact stored under
    /// `key`. Any damage is a miss (`None`), never wrong bytes.
    pub fn load(&self, kind: &str, key: u64) -> Option<Vec<u8>> {
        self.load_traced(kind, key).map(|(payload, _)| payload)
    }

    /// [`ArtifactStore::load`], additionally reporting which layer
    /// answered — the in-process front cache or the on-disk store — so
    /// callers can meter memory hits.
    pub fn load_traced(&self, kind: &str, key: u64) -> Option<(Vec<u8>, LoadSource)> {
        let slot = (kind.to_string(), key);
        if let Some(payload) = self.mem.lock().get(&slot) {
            return Some((payload, LoadSource::Memory));
        }
        let bytes = std::fs::read(self.path(kind, key)).ok()?;
        let payload = decode_envelope(key, kind, &bytes)?;
        self.mem.lock().insert(slot, payload.clone());
        Some((payload, LoadSource::Disk))
    }

    /// Persist an artifact atomically (temp file + rename) and replace
    /// the front cache's entry under its key. A failed write or rename
    /// removes the temp file, so a full disk leaves nothing behind.
    pub fn save(&self, kind: &str, key: u64, payload: &[u8]) -> io::Result<()> {
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::write(&tmp, encode_envelope(key, kind, payload))
            .and_then(|()| std::fs::rename(&tmp, self.path(kind, key)));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.mem
            .lock()
            .insert((kind.to_string(), key), payload.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::ENTRY_OVERHEAD;

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
        let store = ArtifactStore::open(&dir).unwrap();
        store.save("ed", 0xABCD, b"stage payload with some length").unwrap();
        // Loads go through a second handle, as after a reopen: this
        // test exercises the disk integrity layer, which the writer's
        // front cache would (correctly) bypass. Misses cache nothing,
        // so every load below reads the file.
        let disk = ArtifactStore::open(&dir).unwrap();
        let path = dir.join("000000000000abcd.ed");
        let clean = std::fs::read(&path).unwrap();

        // Flip one byte anywhere: the checksum must reject the file.
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 1;
            std::fs::write(&path, &bad).unwrap();
            assert!(disk.load("ed", 0xABCD).is_none(), "flipped byte {i} accepted");
        }

        // Truncations at every length are misses too.
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(disk.load("ed", 0xABCD).is_none(), "truncation to {cut} accepted");
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
        assert!(disk.load("ed", 0xABCD).is_none());

        // Healing: a fresh save overwrites the damage and hits again.
        store.save("ed", 0xABCD, b"stage payload with some length").unwrap();
        assert_eq!(
            disk.load("ed", 0xABCD).unwrap(),
            b"stage payload with some length"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_and_kind_echo_bind_the_artifact() {
        let dir = temp_store_dir("echo");
        let store = ArtifactStore::open(&dir).unwrap();
        store.save("ir", 1, b"one").unwrap();
        // A file renamed to another key (or kind) must not be accepted
        // there: the envelope echoes both.
        std::fs::copy(store.path("ir", 1), store.path("ir", 2)).unwrap();
        std::fs::copy(store.path("ir", 1), store.path("ed", 1)).unwrap();
        assert!(store.load("ir", 2).is_none());
        assert!(store.load("ed", 1).is_none());
        assert_eq!(store.load("ir", 1).unwrap(), b"one");
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
        assert_eq!(
            store.load_traced("sect", 3).unwrap(),
            (b"second!".to_vec(), LoadSource::Memory)
        );
        assert_eq!(store.mem.lock().bytes(), 7 + ENTRY_OVERHEAD);
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
        // Room for two 100-byte payloads, not three.
        let budget = 2 * (100 + ENTRY_OVERHEAD) + 50;
        let store = ArtifactStore {
            mem: Mutex::new(ByteLru::new(budget)),
            ..ArtifactStore::open(&dir).unwrap()
        };
        store.save("a", 1, &payload).unwrap();
        store.save("a", 2, &payload).unwrap();
        // Refresh 1, then push over the memory budget: 2 is evicted
        // from memory (but not from disk).
        assert_eq!(store.load_traced("a", 1).unwrap().1, LoadSource::Memory);
        store.save("a", 3, &payload).unwrap();
        assert!(store.mem.lock().bytes() <= budget);
        assert_eq!(store.load_traced("a", 2).unwrap().1, LoadSource::Disk);
        assert_eq!(store.load_traced("a", 3).unwrap().1, LoadSource::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_save_removes_its_temp_file() {
        let dir = temp_store_dir("failed-save");
        let store = ArtifactStore::open(&dir).unwrap();
        // A directory where the artifact belongs makes the rename fail.
        std::fs::create_dir(store.path("ir", 3)).unwrap();
        assert!(store.save("ir", 3, b"never lands").is_err());
        let temps = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with(".tmp-")
            })
            .count();
        assert_eq!(temps, 0, "a failed save stranded its temp file");
        assert!(store.load("ir", 3).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
