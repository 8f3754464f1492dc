//! Counter-exact metrics snapshot, mirroring `tests/determinism.rs`:
//! the counter-only view of the metrics registry must be **byte-
//! identical** across two identical seeded quick-grid runs, and must
//! match the checked-in golden snapshot
//! (`tests/snapshots/quick_grid_counters.json`).
//!
//! Counters record *what work was done* — cycles simulated, checks
//! emitted, trials classified — never how fast the host did it, so
//! for a seeded workload they are as reproducible as the `results/`
//! CSVs. Timings (span histograms) and host-dependent gauges are
//! excluded from the snapshot by construction; this test also pins
//! that exclusion.
//!
//! To regenerate after an intentional metrics change:
//!
//! ```text
//! CASTED_UPDATE_SNAPSHOT=1 cargo test --offline --test obs_snapshot
//! ```

use casted::experiments::{coverage_sweep, perf_sweep, GridSpec};
use casted::faults::{CampaignConfig, Runner};
use casted_util::store::ArtifactStore;
use casted::{obs, Scheme};

/// Tests in this binary share the process-global metrics registry;
/// serialize them (cargo runs #[test] fns on parallel threads).
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn suite() -> Vec<casted_workloads::Workload> {
    casted_workloads::all()
        .into_iter()
        .filter(|w| matches!(w.name, "cjpeg" | "181.mcf"))
        .collect()
}

/// One full measured quick grid: the perf sweep over the quick spec
/// plus a small seeded coverage campaign — together they touch every
/// instrumented layer (frontend, passes, sim, faults, core).
fn run_quick_grid() -> String {
    obs::reset();
    obs::set_enabled(true);
    let spec = GridSpec::quick();
    let _perf = perf_sweep(&suite(), &spec);
    let cov_spec = GridSpec {
        issues: vec![2],
        delays: vec![2],
        schemes: vec![Scheme::Noed, Scheme::Casted],
        clusters: vec![2],
    };
    let campaign = CampaignConfig {
        trials: 25,
        seed: 0xCA57ED,
        timeout_factor: 8,
        ..CampaignConfig::default()
    };
    let _cov = coverage_sweep(&suite(), &cov_spec, &campaign, Runner::default);
    // Incremental section-cache path, cold then warm from a fresh
    // store: the `faults.sections.{total,hit,miss,recombined}`
    // counters depend only on the seeded stream and the section
    // partition, so pre-removing the store makes both runs — and the
    // hit/miss split between them — byte-reproducible.
    let dir = std::env::temp_dir().join(format!("casted-obs-sections-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One store handle per sweep: the warm sweep reads the disk, not
    // the cold handle's front cache.
    for _pass in ["cold", "warm"] {
        let store = ArtifactStore::open(&dir).expect("open section store");
        let _ = coverage_sweep(&suite(), &cov_spec, &campaign, || Runner::Sections(&store));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let snap = obs::snapshot_json();
    obs::set_enabled(false);
    snap
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/snapshots/quick_grid_counters.json"
);

#[test]
fn counter_snapshot_is_byte_reproducible_and_matches_golden() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let a = run_quick_grid();
    let b = run_quick_grid();
    assert_eq!(a, b, "two identical seeded runs diverged — a counter is timing- or scheduling-dependent");

    if std::env::var_os("CASTED_UPDATE_SNAPSHOT").is_some() {
        std::fs::write(GOLDEN, &a).expect("write golden snapshot");
        eprintln!("updated {GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("missing golden snapshot — run with CASTED_UPDATE_SNAPSHOT=1 once");
    assert_eq!(
        a, golden,
        "counter snapshot drifted from tests/snapshots/quick_grid_counters.json; \
         if the metrics change is intentional, regenerate with CASTED_UPDATE_SNAPSHOT=1"
    );
}

#[test]
fn snapshot_strips_every_timing_and_host_dependent_metric() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let snap = run_quick_grid();
    // Convention: every timer histogram name ends in `_ns`; gauges are
    // the pool/throughput readings. None may appear in the snapshot.
    assert!(!snap.contains("_ns"), "timing metric leaked into the counter snapshot:\n{snap}");
    assert!(!snap.contains("pool"), "host-dependent gauge leaked into the counter snapshot:\n{snap}");
    assert!(!snap.contains("trials_per_sec"), "throughput gauge leaked:\n{snap}");
    // And the layers that must be represented are.
    for key in [
        "\"sim.cycles\"",
        "\"sim.dyn_insns\"",
        "\"passes.ed.checks\"",
        "\"passes.sched.bundles\"",
        "\"faults.trials\"",
        "\"faults.sections.total\"",
        "\"faults.sections.hit\"",
        "\"faults.sections.miss\"",
        "\"faults.sections.recombined\"",
        "\"frontend.modules_compiled\"",
        "\"core.perf_sweep.cells\"",
        "\"core.coverage_sweep.cells\"",
        "\"workloads.compiled\"",
    ] {
        assert!(snap.contains(key), "expected {key} in snapshot:\n{snap}");
    }
}

/// Every metric name a backticked span of `docs/OBSERVABILITY.md`
/// spells out, with `{a,b}` brace lists expanded (several lists in one
/// name expand to every combination).
fn documented_names(doc: &str) -> std::collections::BTreeSet<String> {
    fn expand(name: &str, out: &mut std::collections::BTreeSet<String>) {
        match (name.find('{'), name.find('}')) {
            (Some(open), Some(close)) if open < close => {
                for alt in name[open + 1..close].split(',') {
                    expand(&format!("{}{}{}", &name[..open], alt, &name[close + 1..]), out);
                }
            }
            _ => {
                out.insert(name.to_string());
            }
        }
    }
    let mut names = std::collections::BTreeSet::new();
    for (i, span) in doc.split('`').enumerate() {
        // Odd pieces sit between a pair of backticks.
        if i % 2 == 1 {
            expand(span.trim(), &mut names);
        }
    }
    names
}

#[test]
fn observability_doc_names_every_snapshot_counter() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/OBSERVABILITY.md"
    ))
    .expect("read docs/OBSERVABILITY.md");
    let documented = documented_names(&doc);
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden counter snapshot");
    let missing: Vec<&str> = golden
        .lines()
        .filter_map(|line| line.trim().strip_prefix('"')?.split('"').next())
        .filter(|key| *key != "counters" && !documented.contains(*key))
        .collect();
    assert!(
        missing.is_empty(),
        "counters missing from docs/OBSERVABILITY.md: {missing:?}"
    );
}

/// Calls `f` with the text of every `.rs` file under `dir`.
fn for_each_source(dir: &std::path::Path, f: &mut dyn FnMut(&str)) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            for_each_source(&path, f);
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&std::fs::read_to_string(&path).expect("read source"));
        }
    }
}

/// Every `"serve.…"` string literal in the serving crate's sources:
/// the metric names `casted-serve` records, the ones chosen by helper
/// functions and `match` arms included. The
/// quick grid never runs the service, so the golden snapshot cannot
/// vouch for these.
fn serve_metric_literals() -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../serve/src");
    for_each_source(std::path::Path::new(dir), &mut |src| {
        for piece in src.split("\"serve.").skip(1) {
            let rest = piece.split('"').next().unwrap_or_default();
            names.insert(format!("serve.{rest}"));
        }
    });
    names
}

/// The string literal passed as the first argument of every
/// `casted_obs::{inc,add,gauge_set,observe_ns,span}` call in any
/// crate, also when the literal sits on the line after the call.
fn recorded_metric_literals() -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    for_each_source(std::path::Path::new(dir), &mut |src| {
        for piece in src.split("casted_obs::").skip(1) {
            let Some((func, args)) = piece.split_once('(') else {
                continue;
            };
            if !["inc", "add", "gauge_set", "observe_ns", "span"].contains(&func) {
                continue;
            }
            if let Some(lit) = args.trim_start().strip_prefix('"') {
                names.insert(lit.split('"').next().unwrap_or_default().to_string());
            }
        }
    });
    names
}

#[test]
fn observability_doc_names_every_recorded_metric() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/OBSERVABILITY.md"
    ))
    .expect("read docs/OBSERVABILITY.md");
    let documented = documented_names(&doc);
    let serve = serve_metric_literals();
    assert!(
        serve.contains("serve.requests") && serve.contains("serve.request_ns"),
        "the source scan found no serve metrics: {serve:?}"
    );
    let recorded = recorded_metric_literals();
    assert!(
        recorded.contains("sim.cycles") && recorded.contains("passes.sched.cross_cluster_edges"),
        "the source scan found no recording calls: {recorded:?}"
    );
    let missing: Vec<&String> = serve
        .union(&recorded)
        .filter(|n| !documented.contains(*n))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics missing from docs/OBSERVABILITY.md: {missing:?}"
    );
}

#[test]
fn every_documented_serve_metric_is_recorded() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/OBSERVABILITY.md"
    ))
    .expect("read docs/OBSERVABILITY.md");
    let serve = serve_metric_literals();
    let stale: Vec<String> = documented_names(&doc)
        .into_iter()
        .filter(|n| n.starts_with("serve.") && n != "serve.*" && !serve.contains(n))
        .collect();
    assert!(
        stale.is_empty(),
        "docs/OBSERVABILITY.md documents serve metrics no source records: {stale:?}"
    );
}
