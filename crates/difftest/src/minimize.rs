//! Replay-case minimization by generator-configuration bisection.
//!
//! A failing case is named by `(seed, GenOptions)`. The seed cannot be
//! shrunk (a different seed is a different program), but the shape
//! options can: the minimizer bisects each numeric knob down to the
//! smallest value that still reproduces the divergence, and drops
//! floating point if the failure survives without it. The result is a
//! replay line for the *smallest* program exhibiting the bug — usually
//! a handful of instructions instead of a few hundred.

use crate::oracle::{run_case_with, Hooks};
use crate::CaseConfig;

/// Shrink `cfg` to a minimal still-failing configuration. If `cfg`
/// does not fail under `hooks`, it is returned unchanged.
pub fn minimize(cfg: &CaseConfig, hooks: &Hooks) -> CaseConfig {
    let fails = |c: &CaseConfig| run_case_with(c, hooks).is_err();
    if !fails(cfg) {
        return cfg.clone();
    }
    let mut best = cfg.clone();

    // Bisect one numeric field: find the smallest value in [lo, cur]
    // that still fails, assuming the current value fails.
    fn bisect(
        best: &mut CaseConfig,
        lo: usize,
        get: fn(&CaseConfig) -> usize,
        set: fn(&mut CaseConfig, usize),
        fails: &dyn Fn(&CaseConfig) -> bool,
    ) {
        let mut lo = lo; // below lo: untested or known-passing
        let mut hi = get(best); // hi always fails
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut cand = best.clone();
            set(&mut cand, mid);
            if fails(&cand) {
                *best = cand;
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
    }

    bisect(
        &mut best,
        1,
        |c| c.gen.body_ops,
        |c, v| c.gen.body_ops = v,
        &fails,
    );
    bisect(
        &mut best,
        1,
        |c| c.gen.iterations as usize,
        |c, v| c.gen.iterations = v as i64,
        &fails,
    );
    bisect(
        &mut best,
        1,
        |c| c.gen.globals,
        |c, v| c.gen.globals = v,
        &fails,
    );
    bisect(
        &mut best,
        0,
        |c| c.gen.diamonds,
        |c, v| c.gen.diamonds = v,
        &fails,
    );
    bisect(
        &mut best,
        0,
        |c| c.gen.inner_loops,
        |c, v| c.gen.inner_loops = v,
        &fails,
    );
    bisect(
        &mut best,
        0,
        |c| c.gen.lib_calls,
        |c, v| c.gen.lib_calls = v,
        &fails,
    );
    if best.gen.with_float {
        let mut cand = best.clone();
        cand.gen.with_float = false;
        if fails(&cand) {
            best = cand;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sabotage;
    use casted_ir::testgen::GenOptions;

    #[test]
    fn passing_case_is_left_alone() {
        let cfg = CaseConfig {
            seed: 2,
            gen: GenOptions {
                body_ops: 10,
                iterations: 2,
                globals: 1,
                with_float: false,
                diamonds: 0,
                inner_loops: 0,
                lib_calls: 0,
            },
        };
        let hooks = Hooks { probes: 2, ..Hooks::default() };
        assert_eq!(minimize(&cfg, &hooks), cfg);
    }

    #[test]
    fn sabotaged_case_shrinks() {
        // drop_first_out fails for every configuration (all generated
        // modules emit output), so the minimizer drives the shape down
        // hard.
        let cfg = CaseConfig {
            seed: 11,
            gen: GenOptions {
                body_ops: 30,
                iterations: 5,
                globals: 2,
                with_float: true,
                diamonds: 2,
                inner_loops: 1,
                lib_calls: 0,
            },
        };
        let hooks = Hooks {
            post_ed: Some(sabotage::drop_first_out),
            probes: 0,
            ..Hooks::default()
        };
        let min = minimize(&cfg, &hooks);
        assert_eq!(min.seed, cfg.seed, "seed is never changed");
        assert!(
            run_case_with(&min, &hooks).is_err(),
            "minimized case must still fail"
        );
        assert!(
            min.gen.body_ops < cfg.gen.body_ops,
            "expected body to shrink, got {:?}",
            min.gen
        );
        assert!(min.gen.iterations <= cfg.gen.iterations);
    }
}
