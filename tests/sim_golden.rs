//! Full-`SimStats` golden test: every statistic the cycle loop
//! produces, pinned per program.
//!
//! `perfbench` pins only cycles, dynamic instructions, bundles and nop
//! slots. This test pins everything else the simulator's inner loop
//! touches — stop reason, an output-stream digest, stall cycles,
//! cross-cluster reads, the per-cluster split, cache hits per level,
//! accesses and memory accesses, and vote corrections — for the seven
//! kernels under every scheme at two machine points, plus a handful of
//! fixed fault injections (single-bit, `burst4`, and register-file
//! `target` strikes; RBED's run under its chunk-digest plan). A change to the simulator's loop that is meant to
//! be a pure speed-up must leave this file byte-identical.
//!
//! To regenerate after an intentional timing-model change:
//!
//! ```text
//! CASTED_UPDATE_SNAPSHOT=1 cargo test --offline --test sim_golden
//! ```

use casted::ir::interp::OutVal;
use casted::ir::{MachineConfig, Reg};
use casted::sim::{rbed_plan, simulate, Injection, SimOptions, SimResult};
use casted::util::hash::Fnv64;
use casted::util::pool::run_pool;
use casted::Scheme;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/snapshots/sim_golden.txt"
);

/// Machine points: (issue width, inter-cluster delay).
const POINTS: [(usize, u32); 2] = [(2, 2), (4, 4)];

/// One line per run: every `SimStats` field plus the stop reason and
/// a digest of the emitted stream.
fn render(label: &str, r: &SimResult) -> String {
    let mut h = Fnv64::new();
    for v in &r.stream {
        match v {
            OutVal::Int(i) => {
                h.write_u64(0);
                h.write_u64(*i as u64);
            }
            OutVal::Float(f) => {
                h.write_u64(1);
                h.write_u64(f.to_bits());
            }
        }
    }
    let s = &r.stats;
    format!(
        "{label} stop={:?} injected={} stream={}:{:016x} cycles={} stall={} bundles={} dyn={} \
         cross={} per_cluster={:?} hits={:?} accesses={} memory={} corrections={}",
        r.stop,
        r.injected,
        r.stream.len(),
        h.finish(),
        s.cycles,
        s.stall_cycles,
        s.bundles,
        s.dyn_insns,
        s.cross_reads,
        s.per_cluster,
        s.cache.hits,
        s.cache.accesses,
        s.cache.memory_accesses,
        s.corrections
    )
}

/// The fixed strikes applied to one program, derived from its golden
/// dynamic length: a single-bit output strike, a 4-bit burst and a
/// register-file strike on a general-purpose register.
fn strikes(golden_dyn: u64) -> Vec<(&'static str, Injection)> {
    vec![
        ("single", Injection::single(golden_dyn / 3 + 1, 17, None)),
        (
            "burst4",
            Injection {
                at_dyn_insn: golden_dyn / 2 + 1,
                bit: 40,
                target: None,
                width: 4,
                phase: 2,
            },
        ),
        ("target", Injection::single(golden_dyn * 2 / 3 + 1, 5, Some(Reg::gp(1)))),
    ]
}

fn run_all() -> String {
    let workloads = casted_workloads::all();
    let mut tasks = Vec::new();
    for w in &workloads {
        let module = w.compile().expect("kernel compiles");
        for (issue, delay) in POINTS {
            for scheme in Scheme::FULL {
                let module = module.clone();
                let name = w.name;
                tasks.push(move || {
                    let config = MachineConfig::itanium2_like(issue, delay);
                    let label = format!("{name} {scheme} iw{issue} d{delay}");
                    // Some corners exhaust the register file; the
                    // refusal itself is pinned.
                    let prep = match casted::build(&module, scheme, &config) {
                        Ok(p) => p,
                        Err(e) => return format!("{label} prepare failed: {e}"),
                    };
                    let golden = simulate(&prep.sp, &SimOptions::default());
                    let mut lines = vec![render(&format!("{label} golden"), &golden)];
                    // Injected runs at the first machine point only:
                    // they exercise the injector, the burst window and
                    // the register-file target, not the grid.
                    if (issue, delay) == POINTS[0] {
                        let max_cycles = golden.stats.cycles.saturating_mul(8);
                        // RBED strikes run under the scheme's chunk-
                        // digest plan, so the digest order is pinned.
                        let rbed = (scheme == Scheme::Rbed)
                            .then(|| rbed_plan(&prep.sp, golden.stats.dyn_insns));
                        for (kind, inj) in strikes(golden.stats.dyn_insns) {
                            let r = simulate(
                                &prep.sp,
                                &SimOptions {
                                    max_cycles,
                                    injection: Some(inj),
                                    rbed: rbed.clone(),
                                    ..SimOptions::default()
                                },
                            );
                            lines.push(render(&format!("{label} {kind}"), &r));
                        }
                    }
                    lines.join("\n")
                });
            }
        }
    }
    let mut out = run_pool(tasks).join("\n");
    out.push('\n');
    out
}

#[test]
fn full_sim_stats_match_golden() {
    let got = run_all();
    if std::env::var_os("CASTED_UPDATE_SNAPSHOT").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden snapshot");
        eprintln!("updated {GOLDEN}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("missing golden snapshot — run with CASTED_UPDATE_SNAPSHOT=1 once");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "simulated statistics drifted at line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "run count drifted from tests/snapshots/sim_golden.txt"
    );
}
