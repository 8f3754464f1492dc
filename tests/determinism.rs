//! End-to-end reproducibility: the hermetic toolchain (in-repo RNG +
//! in-repo thread pool) must make every seeded experiment
//! bit-reproducible — two identical runs produce byte-identical
//! rendered results, which is exactly what lands in `results/`.

use casted::experiments::{coverage_sweep, perf_sweep, GridSpec};
use casted::faults::{CampaignConfig, Runner};
use casted::{report, Scheme};

fn suite() -> Vec<casted_workloads::Workload> {
    casted_workloads::all()
        .into_iter()
        .filter(|w| matches!(w.name, "cjpeg" | "181.mcf"))
        .collect()
}

/// Same grid, run twice on the (parallel) sweep harness: the rendered
/// CSV — the `results/` file format — must be byte-identical. This
/// guards both RNG determinism and the pool's input-order result
/// collection (a racy collection order would reorder rows).
#[test]
fn perf_sweep_is_byte_reproducible() {
    let spec = GridSpec::quick();
    let a = perf_sweep(&suite(), &spec);
    let b = perf_sweep(&suite(), &spec);
    assert_eq!(report::perf_csv(&a), report::perf_csv(&b));
    assert_eq!(
        report::perf_panel(&a, "cjpeg", &spec.issues, &spec.delays),
        report::perf_panel(&b, "cjpeg", &spec.issues, &spec.delays),
    );
}

/// Two identical seeded fault-injection campaigns over a grid must
/// produce identical `results/`-format output, byte for byte — the
/// acceptance criterion for hermetic reproducibility.
#[test]
fn seeded_coverage_sweep_is_byte_reproducible() {
    let spec = GridSpec {
        issues: vec![2],
        delays: vec![2],
        schemes: vec![Scheme::Noed, Scheme::Casted],
        clusters: vec![2],
    };
    let campaign = CampaignConfig {
        trials: 30,
        seed: 0xCA57ED,
        timeout_factor: 8,
        ..CampaignConfig::default()
    };
    let a = coverage_sweep(&suite(), &spec, &campaign, Runner::default);
    let b = coverage_sweep(&suite(), &spec, &campaign, Runner::default);
    assert_eq!(report::coverage_csv(&a), report::coverage_csv(&b));
    assert_eq!(report::coverage_panel(&a), report::coverage_panel(&b));
}

/// Different seeds must actually change the campaign (the
/// reproducibility above is not vacuous).
#[test]
fn coverage_sweep_depends_on_seed() {
    let spec = GridSpec {
        issues: vec![2],
        delays: vec![2],
        schemes: vec![Scheme::Noed],
        clusters: vec![2],
    };
    let mk = |seed| {
        coverage_sweep(
            &suite(),
            &spec,
            &CampaignConfig {
                trials: 60,
                seed,
                timeout_factor: 8,
                ..CampaignConfig::default()
            },
            Runner::default,
        )
    };
    let a = mk(1);
    let b = mk(2);
    assert_ne!(report::coverage_csv(&a), report::coverage_csv(&b));
}
