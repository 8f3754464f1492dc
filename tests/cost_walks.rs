//! Candidate costing against full simulation, and the programs
//! `prepare` builds from it.
//!
//! `casted_sim::cost_schedules` runs an adaptive schedule's first
//! candidate on the full simulator and walks the others through the
//! timing rules alone. For the seven kernels under CASTED and TMRED on
//! the issue {1, 2, 4} × delay {1, 2, 4} grid:
//!
//! * every candidate's costed `SimStats` and stop equal a full
//!   `simulate` of that candidate under the same bound, bit for bit
//!   (difftest's `check_walks`, the oracle of its `walk:*` layer);
//! * `prepare` builds the program pinned in
//!   `tests/snapshots/prepare_golden.txt`: one FNV-1a digest of
//!   `encode_scheduled` per cell (or the refusal), written when every
//!   candidate was costed by its own full simulation.
//!
//! To regenerate after an intentional scheduler change:
//!
//! ```text
//! CASTED_UPDATE_SNAPSHOT=1 cargo test --offline --test cost_walks
//! ```

use casted::difftest::check_walks;
use casted::ir::codec::encode_scheduled;
use casted::ir::MachineConfig;
use casted::passes::errordetect::EdOptions;
use casted::sim::DEFAULT_MAX_CYCLES;
use casted::util::hash::fnv1a;
use casted::util::pool::run_pool;
use casted::Scheme;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/snapshots/prepare_golden.txt"
);

const ISSUE: [usize; 3] = [1, 2, 4];
const DELAY: [u32; 3] = [1, 2, 4];

/// One task per (kernel, scheme, issue, delay) cell, in a fixed order.
fn per_cell<T: Send + 'static>(
    f: impl Fn(&str, &casted::ir::Module, Scheme, MachineConfig) -> T + Send + Sync + Copy + 'static,
) -> Vec<T> {
    let mut tasks = Vec::new();
    for w in casted::workloads::all() {
        let module = w.compile().expect("kernel compiles");
        for scheme in [Scheme::Casted, Scheme::Tmred] {
            for issue in ISSUE {
                for delay in DELAY {
                    let module = module.clone();
                    let label = format!("{} {scheme} iw{issue} d{delay}", w.name);
                    tasks.push(move || {
                        f(
                            &label,
                            &module,
                            scheme,
                            MachineConfig::itanium2_like(issue, delay),
                        )
                    });
                }
            }
        }
    }
    run_pool(tasks)
}

/// The module `prepare` first schedules for `scheme`: the scheme's
/// protection transform applied to `module`.
fn transformed(module: &casted::ir::Module, scheme: Scheme) -> casted::ir::Module {
    let mut m = module.clone();
    scheme
        .descriptor()
        .transform
        .apply(&mut m, &EdOptions::default());
    m
}

#[test]
fn walked_candidates_equal_their_full_simulation() {
    let failures: Vec<String> = per_cell(|label, module, scheme, config| {
        let m = transformed(module, scheme);
        match check_walks(&m, &config, scheme.placement(), None, DEFAULT_MAX_CYCLES) {
            Ok(n) if n >= 2 => None,
            Ok(n) => Some(format!(
                "{label}: {n} candidate, the one-cluster one is missing"
            )),
            Err(e) => Some(format!("{label} {e}")),
        }
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn prepared_programs_match_golden() {
    let lines =
        per_cell(
            |label, module, scheme, config| match casted::build(module, scheme, &config) {
                Ok(p) => format!("{label} {:016x}", fnv1a(&encode_scheduled(&p.sp))),
                Err(e) => format!("{label} prepare failed: {e}"),
            },
        );
    let mut got = lines.join("\n");
    got.push('\n');
    if std::env::var_os("CASTED_UPDATE_SNAPSHOT").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden snapshot");
        eprintln!("updated {GOLDEN}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("missing golden snapshot — run with CASTED_UPDATE_SNAPSHOT=1 once");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "prepared program drifted at line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "cell count drifted"
    );
}
