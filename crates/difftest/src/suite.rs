//! The bounded fuzz-suite runner behind `difftest --cases N --seed S`
//! and the CI smoke job.
//!
//! Per-case seeds are drawn from a [`casted_util::Rng`] seeded with
//! the master seed, and the generator shape rotates through four
//! profiles (arithmetic-with-probes, branchy, nested-loops,
//! library-carrying), so a small suite still covers every structural
//! feature and both the probed and unprobed paths.
//!
//! The log is **deterministic**: no timestamps, no timing, no host
//! state — two runs with the same master seed produce byte-identical
//! logs (a CI-enforced invariant, see `scripts/ci.sh`).

use casted_ir::testgen::GenOptions;
use casted_util::Rng;

use crate::oracle::{run_case_with, Divergence, Hooks};
use crate::CaseConfig;

/// Suite parameters (mirrors the `difftest` binary's flags).
#[derive(Clone, Copy, Debug)]
pub struct SuiteOptions {
    /// Number of generated cases.
    pub cases: usize,
    /// Master seed; per-case seeds derive from it.
    pub master_seed: u64,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            cases: 64,
            master_seed: 0xCA57ED,
        }
    }
}

/// Suite outcome: the deterministic log plus structured failures.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Cases executed.
    pub cases: usize,
    /// Failing cases with their divergences (empty on a green run).
    pub failures: Vec<(CaseConfig, Divergence)>,
    /// Total oracle stages passed across all cases.
    pub stages: usize,
    /// Total fault probes executed.
    pub probes: usize,
    /// The full deterministic log, one block per case.
    pub log: String,
}

impl SuiteReport {
    /// Green?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The four rotating generator profiles (`case % 4`).
pub fn profile(case: usize) -> GenOptions {
    match case % 4 {
        // Arithmetic + memory soup, float on, fully probed.
        0 => GenOptions {
            body_ops: 24,
            iterations: 5,
            globals: 2,
            with_float: true,
            diamonds: 1,
            inner_loops: 0,
            lib_calls: 0,
        },
        // Branch-heavy: diamonds dominate (if-conversion & BUG food).
        1 => GenOptions {
            body_ops: 18,
            iterations: 4,
            globals: 1,
            with_float: false,
            diamonds: 3,
            inner_loops: 0,
            lib_calls: 0,
        },
        // Nested counted loops (decode-kernel shape).
        2 => GenOptions {
            body_ops: 16,
            iterations: 3,
            globals: 2,
            with_float: false,
            diamonds: 0,
            inner_loops: 2,
            lib_calls: 0,
        },
        // Library-carrying: unprotected runs present, probes off.
        _ => GenOptions {
            body_ops: 20,
            iterations: 4,
            globals: 2,
            with_float: true,
            diamonds: 1,
            inner_loops: 1,
            lib_calls: 2,
        },
    }
}

/// Run the suite with production hooks.
pub fn run_suite(opts: &SuiteOptions) -> SuiteReport {
    run_suite_with(opts, &Hooks::default())
}

/// Run the suite with explicit hooks (self-tests sabotage the ED pass
/// through this to prove failures surface with replay lines).
pub fn run_suite_with(opts: &SuiteOptions, hooks: &Hooks) -> SuiteReport {
    let mut rng = Rng::seed_from_u64(opts.master_seed);
    let mut log = String::new();
    let mut failures = Vec::new();
    let mut stages = 0usize;
    let mut probes = 0usize;

    log.push_str(&format!(
        "difftest suite master={} cases={}\n",
        casted_util::prop::seed_token(opts.master_seed),
        opts.cases
    ));
    for case in 0..opts.cases {
        let cfg = CaseConfig {
            seed: rng.next_u64(),
            gen: profile(case),
        };
        casted_obs::inc("difftest.cases");
        match run_case_with(&cfg, hooks) {
            Ok(rep) => {
                stages += rep.stages;
                probes += rep.probes;
                log.push_str(&format!(
                    "case {case:04} {} ok stages={} probes={} digest={:#018x}\n",
                    cfg.replay_line(None),
                    rep.stages,
                    rep.probes,
                    rep.digest
                ));
            }
            Err(div) => {
                casted_obs::inc("difftest.failures");
                log.push_str(&format!(
                    "case {case:04} {} FAIL stage={}\n  {}\nREPLAY {}\n",
                    cfg.replay_line(None),
                    div.stage,
                    div.detail,
                    cfg.replay_line(Some(&div.stage))
                ));
                failures.push((cfg, div));
            }
        }
    }
    log.push_str(&format!(
        "suite done cases={} failures={} stages={} probes={}\n",
        opts.cases,
        failures.len(),
        stages,
        probes
    ));
    SuiteReport {
        cases: opts.cases,
        failures,
        stages,
        probes,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sabotage;

    fn small(cases: usize, seed: u64) -> SuiteOptions {
        SuiteOptions {
            cases,
            master_seed: seed,
        }
    }

    #[test]
    fn suite_log_is_deterministic() {
        let h = Hooks { probes: 2, ..Hooks::default() };
        let a = run_suite_with(&small(4, 99), &h);
        let b = run_suite_with(&small(4, 99), &h);
        assert!(a.ok(), "clean suite must be green:\n{}", a.log);
        assert_eq!(a.log, b.log, "same master seed must yield a byte-identical log");
        assert!(a.log.lines().count() >= 6);
    }

    #[test]
    fn different_master_seeds_generate_different_cases() {
        let h = Hooks { probes: 0, ..Hooks::default() };
        let a = run_suite_with(&small(2, 1), &h);
        let b = run_suite_with(&small(2, 2), &h);
        assert_ne!(a.log, b.log);
    }

    #[test]
    fn sabotaged_suite_reports_replayable_failures() {
        let h = Hooks {
            post_ed: Some(sabotage::drop_first_out),
            probes: 0,
            ..Hooks::default()
        };
        let rep = run_suite_with(&small(2, 7), &h);
        assert!(!rep.ok());
        let (cfg, div) = &rep.failures[0];
        // The log carries a parseable REPLAY line that names the
        // failing case exactly.
        let replay = rep
            .log
            .lines()
            .find(|l| l.starts_with("REPLAY "))
            .expect("failure must print a REPLAY line");
        let (parsed, stage) = CaseConfig::parse(replay).unwrap();
        assert_eq!(&parsed, cfg);
        assert_eq!(stage.as_deref(), Some(div.stage.as_str()));
        // And replaying it (same hooks) reproduces the divergence.
        let again = run_case_with(&parsed, &h).unwrap_err();
        assert_eq!(again.stage, div.stage);
    }
}
