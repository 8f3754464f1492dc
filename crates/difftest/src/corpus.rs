//! The fixed (non-random) differential corpus: the seven workload
//! kernels plus a handful of MiniC snippets chosen to stress front-end
//! corners, each compiled, prepared under every scheme, and
//! cross-checked interpreter-vs-simulator at the balanced machine
//! point.
//!
//! The random generator covers breadth; the corpus pins the *real*
//! programs the paper's figures are built from, end to end through the
//! front end (generated modules never exercise the parser, inlining,
//! or `lib fn` handling).

use casted_faults::{Engine, Runner};
use casted_ir::interp::{self, StopReason};
use casted_ir::MachineConfig;
use casted_passes::pipeline::{prepare, Scheme};
use casted_sim::{simulate, SimOptions};

use crate::oracle::{campaign, check_sim_against, Divergence};

/// Interpreter budget for workload kernels.
const CORPUS_STEP_LIMIT: u64 = 200_000_000;
const CORPUS_MAX_CYCLES: u64 = 500_000_000;

/// Monte-Carlo trials per corpus module in the campaign-engine
/// equivalence check. Kept small: corpus modules include the real
/// workload kernels (hundreds of thousands of dynamic instructions),
/// and the reference engine re-simulates every trial from cycle 0.
const ENGINE_TRIALS: usize = 10;

/// Campaign seed for the corpus engine-equivalence check, salted per
/// module by name hash so different modules draw different streams.
const ENGINE_SEED: u64 = 0xC0_0B5E_D0C7_0A7E;

/// Hand-written MiniC snippets covering front-end corners the
/// workloads leave thin: early `return` out of nested control flow,
/// `while` with a compound condition update, and a library function
/// called from library code.
const SNIPPETS: [(&str, &str); 3] = [
    (
        "early_return",
        r#"
fn pick(a: int, b: int) -> int {
    if a > b {
        if a > 100 { return 100; }
        return a;
    }
    return b;
}
fn main() -> int {
    var i: int = 0;
    var acc: int = 0;
    while i < 20 {
        acc = acc + pick(i * 7 % 13, i);
        i = i + 1;
    }
    out(acc);
    return 0;
}
"#,
    ),
    (
        "while_compound",
        r#"
fn main() -> int {
    var x: int = 1;
    var n: int = 0;
    while x < 10000 {
        x = x * 3 - n;
        n = n + 2;
        out(x);
    }
    out(n);
    return 0;
}
"#,
    ),
    (
        "lib_in_lib",
        r#"
lib fn step(x: int) -> int {
    return (x * 5 + 3) & 255;
}
lib fn walk(x: int) -> int {
    return step(step(x));
}
fn main() -> int {
    var i: int = 0;
    var h: int = 17;
    while i < 16 {
        h = walk(h) + i;
        i = i + 1;
    }
    out(h);
    return 0;
}
"#,
    ),
];

/// Cross-check one module under every scheme at issue-width 2, delay 2.
fn check_module(name: &str, m: &casted_ir::Module) -> Result<usize, Divergence> {
    let golden = interp::run(m, CORPUS_STEP_LIMIT)
        .map_err(|e| Divergence::new_corpus(name, "interp", e))?;
    if !matches!(golden.stop, StopReason::Halt(_)) {
        return Err(Divergence::new_corpus(
            name,
            "interp",
            format!("did not halt: {:?}", golden.stop),
        ));
    }
    let mc = MachineConfig::itanium2_like(2, 2);
    let mut checks = 1usize;
    for scheme in Scheme::ALL {
        let stage = format!("{scheme}:iw2d2");
        let prep =
            prepare(m, scheme, &mc).map_err(|e| Divergence::new_corpus(name, &stage, e))?;
        prep.sp
            .validate()
            .map_err(|e| Divergence::new_corpus(name, &stage, format!("{e:?}")))?;
        let r = interp::run(&prep.sp.module, CORPUS_STEP_LIMIT)
            .map_err(|e| Divergence::new_corpus(name, &stage, e))?;
        if r.stop != golden.stop || r.stream != golden.stream {
            return Err(Divergence::new_corpus(
                name,
                &stage,
                "scheduled module diverged from golden interp",
            ));
        }
        let sim = simulate(
            &prep.sp,
            &SimOptions {
                max_cycles: CORPUS_MAX_CYCLES,
                injection: None,
                ..SimOptions::default()
            },
        );
        check_sim_against(&sim, &golden, &format!("corpus:{name}:{stage}"))?;
        checks += 2;

        // Campaign-engine equivalence on the real kernels: the
        // checkpointed engine's tally must be byte-identical to the
        // reference engine's from the same seed. Checked at the
        // corrupt-heavy (NOED) and detect-heavy (CASTED) corners only
        // — the reference engine pays a full re-simulation per trial,
        // and the generated-case oracle already sweeps all ED schemes.
        if matches!(scheme, Scheme::Noed | Scheme::Casted) {
            let ccfg = casted_faults::CampaignConfig {
                trials: ENGINE_TRIALS,
                seed: ENGINE_SEED ^ casted_util::hash::fnv1a(name.as_bytes()),
                ..Default::default()
            };
            let reference = campaign(&prep.sp, &ccfg, Engine::Reference);
            let other = campaign(&prep.sp, &ccfg, Engine::Checkpointed);
            if reference.tally != other.tally {
                return Err(Divergence::new_corpus(
                    name,
                    &format!("engines:{stage}"),
                    format!(
                        "campaign engines diverged: reference {:?} vs checkpointed {:?}",
                        reference.tally.counts, other.tally.counts
                    ),
                ));
            }
            checks += 1;

            // Incremental-sections equivalence on the same seed: the
            // recombined tally — cold, then warm from the on-disk
            // store — must match the reference engine byte-for-byte
            // (docs/INCREMENTAL.md, oracle layer 8 for the corpus).
            // Each pass opens a fresh store handle, so the warm pass
            // reads disk, not the cold handle's front cache.
            let dir = crate::oracle::scratch_dir(&format!("corpus-sections-{name}-{scheme}"));
            let _ = std::fs::remove_dir_all(&dir);
            let mut usable = true;
            for pass in ["cold", "warm"] {
                let Ok(store) = casted_util::store::ArtifactStore::open(&dir) else {
                    usable = false;
                    break;
                };
                let inc = campaign(&prep.sp, &ccfg, Runner::Sections(&store));
                if inc.tally != reference.tally {
                    let detail = format!(
                        "incremental ({pass}) diverged: reference {:?} vs {:?} (sections {:?})",
                        reference.tally.counts, inc.tally.counts, inc.engine.sections
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                    return Err(Divergence::new_corpus(
                        name,
                        &format!("sections:{stage}"),
                        detail,
                    ));
                }
            }
            if usable {
                checks += 1;
            }
            let _ = std::fs::remove_dir_all(&dir);

            // Staged-compile exactness on the real kernels (oracle
            // layer 9 for the corpus): the memoized stage-graph back
            // end, cold then warm from the on-disk artifact store,
            // must be byte-identical to the monolithic `prepare`
            // above (docs/PIPELINE.md).
            let dir = crate::oracle::scratch_dir(&format!("corpus-stages-{name}-{scheme}"));
            let _ = std::fs::remove_dir_all(&dir);
            if let Ok(store) = casted_util::store::ArtifactStore::open(&dir) {
                let reference = crate::oracle::staged_fingerprint(&prep);
                let input = casted_passes::stages::module_content_key(m);
                let opts = casted_passes::pipeline::PrepareOptions::default();
                for pass in ["cold", "warm"] {
                    let mut stats = casted_passes::stages::StageStats::default();
                    let staged = casted_passes::stages::prepare_staged(
                        &store, input, m, scheme, &mc, &opts, &mut stats,
                    )
                    .map_err(|e| {
                        Divergence::new_corpus(name, &format!("stages:{stage}"), e)
                    })?;
                    if crate::oracle::staged_fingerprint(&staged) != reference {
                        let _ = std::fs::remove_dir_all(&dir);
                        return Err(Divergence::new_corpus(
                            name,
                            &format!("stages:{stage}"),
                            format!(
                                "staged ({pass}) compile diverged from monolithic prepare \
                                 ({} hits / {} misses)",
                                stats.hit, stats.miss
                            ),
                        ));
                    }
                }
                checks += 1;
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(checks)
}

impl Divergence {
    fn new_corpus(name: &str, stage: &str, detail: impl std::fmt::Display) -> Self {
        Divergence {
            stage: format!("corpus:{name}:{stage}"),
            detail: detail.to_string(),
        }
    }
}

/// Run the fixed corpus (7 workloads + snippets). Returns the number
/// of oracle checks performed.
pub fn run_corpus() -> Result<usize, Divergence> {
    let mut checks = 0usize;
    for w in casted_workloads::all() {
        let m = w
            .compile()
            .map_err(|d| Divergence::new_corpus(w.name, "frontend", format!("{d:?}")))?;
        checks += check_module(w.name, &m)?;
    }
    for (name, src) in SNIPPETS {
        let m = casted_frontend::compile(name, src)
            .map_err(|d| Divergence::new_corpus(name, "frontend", format!("{d:?}")))?;
        checks += check_module(name, &m)?;
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippets_compile_and_cross_check() {
        for (name, src) in SNIPPETS {
            let m = casted_frontend::compile(name, src).expect("snippet compiles");
            let n = check_module(name, &m).unwrap_or_else(|d| {
                panic!("{name}: {} — {}", d.stage, d.detail);
            });
            assert!(n >= 9);
        }
    }
}
