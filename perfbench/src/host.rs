//! Host facts: CPU affinity, peak memory, scratch space, line count.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The repository root (the benchmark's package sits one level below).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives inside the repository")
        .to_path_buf()
}

/// A fresh empty scratch directory next to the benchmark binary (inside
/// the build directory, so a run writes nothing else in the checkout).
pub fn scratch_dir(tag: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    let dir = exe
        .parent()
        .expect("executable has a parent directory")
        .join(format!("perfbench-scratch-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Restrict the process to at most `n` CPUs, before any thread starts,
/// so the workspace's pools (sized by `available_parallelism`, which
/// honours the affinity mask) use at most `n` threads on larger hosts.
#[cfg(target_os = "linux")]
pub fn limit_cpus(n: usize) {
    const WORDS: usize = 16; // 1024 CPUs, glibc's cpu_set_t
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return;
    }
    let mut kept = 0;
    for word in mask.iter_mut() {
        for bit in 0..64 {
            if *word & (1 << bit) != 0 {
                if kept < n {
                    kept += 1;
                } else {
                    *word &= !(1 << bit);
                }
            }
        }
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // holding a non-empty subset of the CPUs the thread may already use.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
pub fn limit_cpus(_n: usize) {}

/// Hand the allocator's free memory back to the operating system
/// (glibc's `malloc_trim`), so what one pass freed does not count in
/// the next pass's resident set. A no-op elsewhere.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only returns free heap pages to the kernel;
    // it takes no pointers and is safe to call at any time.
    unsafe { malloc_trim(0) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_memory() {}

/// One `kB` field of `/proc/self/status` (`VmRSS`, say); 0 when absent.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Samples this process's resident set (`VmRSS`) every few
/// milliseconds on a thread of its own, so a run can report the peak of
/// each round rather than one peak over a number of rounds that varies
/// with the host's speed. Dropping it stops and joins the thread.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl RssSampler {
    const PERIOD: Duration = Duration::from_millis(5);

    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(status_kb("VmRSS")));
        let thread = {
            let (stop, peak_kb) = (stop.clone(), peak_kb.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak_kb.fetch_max(status_kb("VmRSS"), Ordering::Relaxed);
                    std::thread::sleep(Self::PERIOD);
                }
            })
        };
        RssSampler {
            stop,
            peak_kb,
            thread: Some(thread),
        }
    }

    /// The highest resident set seen since the last call (or the
    /// start), in MB; the next window starts at the current size.
    pub fn take(&self) -> f64 {
        let now = status_kb("VmRSS");
        let peak = self.peak_kb.swap(now, Ordering::Relaxed).max(now);
        peak as f64 / 1024.0
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Non-blank lines of Rust in the repository, excluding this
/// benchmark's own directory and build output.
pub fn rust_lines() -> usize {
    fn walk(dir: &Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" || name == "perfbench" {
                continue;
            }
            if path.is_dir() {
                walk(&path, total);
            } else if name.ends_with(".rs") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                *total += text.lines().filter(|l| !l.trim().is_empty()).count();
            }
        }
    }
    let mut total = 0;
    walk(&repo_root(), &mut total);
    total
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
