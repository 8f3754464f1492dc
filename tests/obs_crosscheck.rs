//! Metrics must agree with ground truth the pipeline already reports
//! through its result types: the observability layer is a *view* of
//! the computation, never a second bookkeeping that can drift.
//!
//! * `sim.*` counters == the `SimResult` the same runs returned,
//! * `faults.*` outcome counters == the campaign `Tally`,
//! * per-scheme check-emission counters nonzero iff scheme ≠ NOED and
//!   equal to the `EdStats` the pass reported.

use casted::faults::{Campaign, CampaignConfig, Outcome};
use casted::ir::MachineConfig;
use casted::{build, compile, measure, obs, Scheme};

/// Tests in this binary share the process-global metrics registry;
/// serialize them (cargo runs #[test] fns on parallel threads).
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counter(snapshot_target: &'static str) -> u64 {
    obs::global().counter(snapshot_target).get()
}

fn test_module() -> casted::ir::Module {
    compile(
        "obs-crosscheck",
        "fn main() { var s: int = 0; for i in 0..60 { s = s + i * 3; } out(s); }",
    )
    .unwrap()
}

#[test]
fn sim_counters_match_sim_results() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let module = test_module();
    let config = MachineConfig::itanium2_like(2, 2);
    // Prepare outside the measured region: the adaptive scheduler
    // runs candidate simulations of its own, which would (correctly)
    // land in the counters but not in the `SimResult`s we sum here.
    let preps: Vec<_> = Scheme::ALL
        .iter()
        .map(|&s| build(&module, s, &config).unwrap())
        .collect();

    obs::reset();
    obs::set_enabled(true);
    let mut dyn_insns = 0u64;
    let mut cycles = 0u64;
    let mut stalls = 0u64;
    for prep in &preps {
        let r = measure(prep);
        dyn_insns += r.stats.dyn_insns;
        cycles += r.stats.cycles;
        stalls += r.stats.stall_cycles;
    }
    obs::set_enabled(false);

    assert_eq!(counter("sim.runs"), preps.len() as u64);
    assert_eq!(counter("sim.dyn_insns"), dyn_insns, "retired-instruction counter drifted from SimResult");
    assert_eq!(counter("sim.cycles"), cycles);
    assert_eq!(counter("sim.stall_cycles"), stalls);
}

#[test]
fn fault_outcome_counters_match_tally() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let module = test_module();
    let config = MachineConfig::itanium2_like(2, 2);
    let prep = build(&module, Scheme::Casted, &config).unwrap();

    obs::reset();
    obs::set_enabled(true);
    let cfg = CampaignConfig {
        trials: 40,
        seed: 0xCA57ED,
        timeout_factor: 8,
        ..CampaignConfig::default()
    };
    let r = casted::faults::run(&mut Campaign::new(&prep.sp, cfg)).expect("target halts");
    obs::set_enabled(false);

    assert_eq!(counter("faults.trials"), 40);
    assert_eq!(counter("faults.trials"), r.tally.total() as u64);
    for (o, name) in [
        (Outcome::Benign, "faults.outcome.benign"),
        (Outcome::Detected, "faults.outcome.detected"),
        (Outcome::Exception, "faults.outcome.exception"),
        (Outcome::DataCorrupt, "faults.outcome.data_corrupt"),
        (Outcome::Timeout, "faults.outcome.timeout"),
        (Outcome::Corrected, "faults.outcome.corrected"),
    ] {
        assert_eq!(
            counter(name),
            r.tally.count(o) as u64,
            "outcome counter {name} drifted from the campaign Tally"
        );
    }
}

#[test]
fn check_emission_counters_are_nonzero_iff_scheme_has_error_detection() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let module = test_module();
    let config = MachineConfig::itanium2_like(2, 2);

    obs::reset();
    obs::set_enabled(true);
    let preps: Vec<_> = Scheme::FULL
        .iter()
        .map(|&s| build(&module, s, &config).unwrap())
        .collect();
    obs::set_enabled(false);

    for prep in &preps {
        // Counter names come from the scheme registry — the same
        // descriptor row the pipeline read when it recorded them.
        let name = prep.scheme.descriptor().checks_counter;
        let got = counter(name);
        match prep.ed_stats {
            None => {
                assert!(
                    matches!(prep.scheme, Scheme::Noed | Scheme::Rbed),
                    "only transform-free schemes may skip ED stats"
                );
                assert_eq!(got, 0, "{} must emit no checks", prep.scheme);
            }
            Some(st) => {
                assert!(got > 0, "{} ran error detection but {name} is 0", prep.scheme);
                assert_eq!(got, st.checks as u64, "{name} drifted from EdStats");
                assert!(st.renamed_regs > 0, "rename table size must be recorded");
            }
        }
    }
    // The aggregate equals the per-scheme sum.
    let per_scheme: u64 = [
        "passes.ed.checks.sced",
        "passes.ed.checks.dced",
        "passes.ed.checks.casted",
        "passes.ed.checks.tmred",
    ]
    .iter()
    .map(|n| obs::global().counter(n).get())
    .sum();
    assert_eq!(counter("passes.ed.checks"), per_scheme);
}

/// A campaign target that does not halt within the request's bound is
/// refused by the campaign's own bounded golden run, which leaves the
/// `sim.*` counters untouched; a halting target flushes its one golden
/// run. NOED compiles without simulating, so every `sim.*` count here
/// comes from the campaigns.
#[test]
fn refused_inject_target_leaves_sim_counters_untouched() {
    use casted::faults::{Progress, Runner};
    use casted::service_api::{self, JobSpec};
    use casted_util::store::ArtifactStore;
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let spec = |source: &str| JobSpec {
        source: source.into(),
        scheme: Scheme::Noed,
        issue: 2,
        delay: 2,
    };
    let looping = spec("fn main() { var x: int = 1; for i in 0..1000000 { x = x + i; } out(x); }");
    let dir = std::env::temp_dir().join(format!("casted-obs-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sim_counters = ["sim.runs", "sim.cycles", "sim.dyn_insns", "sim.bundles"];

    obs::reset();
    obs::set_enabled(true);
    let store = ArtifactStore::open(&dir).expect("open section store");
    let streamed = Progress { chunk: 4, report: Box::new(|_, _| true) };
    let runners = [
        Runner::Checkpointed(None),
        Runner::Reference,
        Runner::Checkpointed(Some(streamed)),
        Runner::Sections(&store),
    ];
    for runner in runners {
        assert!(service_api::inject(&looping, 10, 1, 1000, runner, None).is_err());
    }
    obs::set_enabled(false);
    for name in sim_counters {
        assert_eq!(counter(name), 0, "a refused target moved {name}");
    }
    assert_eq!(counter("faults.trials"), 0);

    obs::reset();
    obs::set_enabled(true);
    let halting = spec("fn main() { var s: int = 0; for i in 0..60 { s = s + i; } out(s); }");
    let r = service_api::inject(&halting, 10, 1, 1_000_000, Runner::default(), None).unwrap();
    obs::set_enabled(false);
    assert_eq!(counter("sim.runs"), 1, "one golden run per campaign");
    assert_eq!(counter("sim.cycles"), r.golden_cycles);
    let _ = std::fs::remove_dir_all(&dir);
}
