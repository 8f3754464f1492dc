//! # casted-obs — pipeline-wide metrics and tracing
//!
//! A zero-registry-dependency observability layer in the style of
//! `casted-util`: everything lives on `std`, nothing talks to the
//! network, and the output formats are deterministic enough to golden-
//! test. It is the substrate the experiment sweeps report their cost
//! against (see `docs/OBSERVABILITY.md`).
//!
//! Three metric kinds, one process-global [`Registry`]:
//!
//! * **Counters** ([`Counter`]) — monotonically increasing, saturating
//!   `u64` event counts (cycles simulated, checks emitted, trials
//!   run). Counter values depend only on *what work was done*, never
//!   on how fast the host did it, so the counter-only snapshot
//!   ([`snapshot_json`]) is bit-reproducible and is pinned by golden
//!   tests exactly like the `results/` CSVs.
//! * **Gauges** ([`Gauge`]) — last-write-wins `u64` readings that *are*
//!   host- or timing-dependent (worker-pool width, pool utilization,
//!   trials/sec). Excluded from the counter-only snapshot.
//! * **Histograms** ([`Hist`]) — fixed-bucket distributions with
//!   `p50`/`p95`/`p99` queries, fed in nanoseconds by the scoped
//!   [`Span`] wall-clock timer. Also excluded from the snapshot.
//!
//! ## Recording is off by default
//!
//! The global recording switch starts **disabled**: every convenience
//! entry point ([`add`], [`inc`], [`gauge_set`], [`observe_ns`],
//! [`span`]) checks one relaxed atomic load and returns immediately,
//! so instrumented hot paths cost a compare-and-branch when nobody is
//! measuring. `--metrics` on the `castedc` and figure binaries flips
//! the switch ([`set_enabled`]); tests flip it around the region they
//! measure. Instrumentation in the workspace additionally flushes in
//! *bulk* (one `add` per simulated run, not per cycle), so the
//! simulator's inner loop is untouched either way.
//!
//! ## Naming convention
//!
//! `layer.subsystem.metric`, lowercase, with timer histograms suffixed
//! `_ns` (`frontend.lex_ns`, `sim.cycles`, `faults.outcome.detected`).
//! Names are `&'static str` so recording never allocates.

pub mod export;
pub mod metrics;
pub mod registry;

pub use metrics::{Counter, Gauge, Hist, DEFAULT_TIME_BOUNDS_NS};
pub use registry::{global, Registry};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metric recording globally enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn global metric recording on or off. Off (the default) makes
/// every recording entry point an early-return — the "disabled fast
/// path", one relaxed load per call.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Add `v` to the global counter `name` (registering it on first use).
#[inline]
pub fn add(name: &'static str, v: u64) {
    if enabled() {
        global().counter(name).add(v);
    }
}

/// Increment the global counter `name` by one.
#[inline]
pub fn inc(name: &'static str) {
    add(name, 1);
}

/// Set the global gauge `name` to `v`.
#[inline]
pub fn gauge_set(name: &'static str, v: u64) {
    if enabled() {
        global().gauge(name).set(v);
    }
}

/// Record `ns` into the global timing histogram `name`.
#[inline]
pub fn observe_ns(name: &'static str, ns: u64) {
    if enabled() {
        global().hist(name).observe(ns);
    }
}

/// A scoped wall-clock timer: records the elapsed nanoseconds into the
/// timing histogram `name` when dropped. When recording is disabled
/// the constructor does not even read the clock.
#[must_use = "a Span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    armed: Option<(&'static str, Instant)>,
}

impl Span {
    /// Elapsed time so far, in nanoseconds (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.armed
            .as_ref()
            .map(|(_, t)| t.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, t)) = self.armed.take() {
            global().hist(name).observe(t.elapsed().as_nanos() as u64);
        }
    }
}

/// Start a [`Span`] over the timing histogram `name`.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        armed: enabled().then(|| (name, Instant::now())),
    }
}

/// Zero every metric in the global registry (names stay registered).
/// Call between measured regions — e.g. at the top of each test that
/// asserts on global metric values.
pub fn reset() {
    global().reset();
}

/// Full JSON export of the global registry: counters, gauges and
/// timing histograms. Key order is deterministic (sorted by name) but
/// timer/gauge *values* are host-dependent.
pub fn export_json() -> String {
    export::export_json(global())
}

/// Counter-only snapshot of the global registry: sorted counter names
/// and values, nothing timing- or host-dependent. Two identical seeded
/// runs produce byte-identical snapshots — see `tests/obs_snapshot.rs`.
pub fn snapshot_json() -> String {
    export::snapshot_json(global())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global-switch tests mutate process state; serialize them.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        add("t.lib.disabled", 5);
        gauge_set("t.lib.disabled_gauge", 7);
        observe_ns("t.lib.disabled_ns", 100);
        // Nothing recorded, and the disabled span never reads a clock.
        let s = span("t.lib.disabled_span_ns");
        assert_eq!(s.elapsed_ns(), 0);
        drop(s);
        assert!(!snapshot_json().contains("t.lib.disabled"));
    }

    #[test]
    fn enabled_recording_lands_in_the_global_registry() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        add("t.lib.hits", 2);
        inc("t.lib.hits");
        observe_ns("t.lib.span_ns", 1_000);
        let snap = snapshot_json();
        assert!(snap.contains("\"t.lib.hits\": 3"), "{snap}");
        // Timings never leak into the counter-only snapshot.
        assert!(!snap.contains("span_ns"), "{snap}");
        assert!(export_json().contains("t.lib.span_ns"));
        set_enabled(false);
    }

    #[test]
    fn reset_between_tests_zeroes_but_keeps_names() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        add("t.lib.resettable", 41);
        assert!(snapshot_json().contains("\"t.lib.resettable\": 41"));
        reset();
        // Still present (registered), but back to zero.
        assert!(snapshot_json().contains("\"t.lib.resettable\": 0"));
        set_enabled(false);
    }
}
