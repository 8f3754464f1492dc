//! `perf_grid`: the Figs. 6/7 slowdown grid — 7 kernels × NOED/SCED/
//! DCED/CASTED × issue 1–4 × delay 1–4 — through
//! `casted::experiments::perf_sweep`.
//!
//! The timed run times each cell's share of the sweep — `prepare`, then
//! `simulate` — on the sweep's pool, in rounds, so every timed cell's
//! output is checked. The traced run re-drives every cell through the
//! public pass entry points, one layer call at a time, and asserts that
//! the result is the program `casted_passes::prepare` builds and the
//! counts `perf_sweep` reports.

use std::panic::catch_unwind;
use std::time::Instant;

use casted::experiments::{perf_sweep, GridSpec};
use casted_ir::codec::encode_scheduled;
use casted_ir::interp::{self, OutVal, StopReason};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{MachineConfig, Module};
use casted_passes::errordetect::{error_detection_with, EdOptions};
use casted_passes::physreg::assign_physical;
use casted_passes::spill::{choose_spills, intervals, spill_register};
use casted_passes::{schedule_function, Placement, PrepareOptions, Scheme, Transform};
use casted_sim::{simulate, SimOptions};
use casted_util::pool::{pool_threads, run_pool};
use casted_workloads::Workload;

use crate::report::{median, report_fastest, report_peak_rss, timed_rounds, Report, Tracer};
use crate::{pinned, Args};

/// Step budget of the interpreter reference runs.
const INTERP_STEPS: u64 = 100_000_000;
/// Set-up repetitions before each round; the median over the run is
/// reported.
const SETUP_REPS: usize = 5;

/// The grid this workload sweeps: the corners of the paper's grid
/// (`GridSpec::paper_full`), issue 1 and 4 × delay 1 and 4, all four
/// schemes — 84 cells. The full grid's 280 cells take about 8 s a
/// sweep on two threads, too long to time each cell in many rounds
/// within one run.
pub fn spec() -> GridSpec {
    GridSpec {
        issues: vec![1, 4],
        delays: vec![1, 4],
        ..GridSpec::paper_full()
    }
}
/// Pinned per-cell counts: cycles, dyn insns, bundles, nop slots.
pub const PINNED: &str = "perf_grid.txt";

/// One cell `perf_sweep` measures. NOED and SCED run on one cluster, so
/// the sweep measures them at the first delay only and copies the
/// result to the other delays.
#[derive(Clone, Debug)]
pub struct Cell {
    pub kernel: usize,
    pub scheme: Scheme,
    pub issue: usize,
    pub delay: u32,
}

impl Cell {
    pub fn key(&self, ws: &[Workload]) -> String {
        format!(
            "{} {} {} {}",
            ws[self.kernel].name, self.scheme, self.issue, self.delay
        )
    }

    fn config(&self) -> MachineConfig {
        MachineConfig::itanium2_like(self.issue, self.delay)
    }
}

/// The cells `perf_sweep` measures for `ws` over `spec`, kernel-major.
pub fn cells(ws: &[Workload], spec: &GridSpec) -> Vec<Cell> {
    let mut out = Vec::new();
    for kernel in 0..ws.len() {
        for &scheme in &spec.schemes {
            let delays = match scheme.placement() {
                Placement::AllOn(_) => &spec.delays[..1],
                _ => &spec.delays[..],
            };
            for &issue in &spec.issues {
                for &delay in delays {
                    out.push(Cell {
                        kernel,
                        scheme,
                        issue,
                        delay,
                    });
                }
            }
        }
    }
    out
}

fn compile_all(ws: &[Workload]) -> Vec<Module> {
    ws.iter()
        .map(|w| {
            w.compile()
                .unwrap_or_else(|e| panic!("{} does not compile: {e:?}", w.name))
        })
        .collect()
}

/// Output of each unprotected module on the IR interpreter: the
/// reference every cell's output stream must equal.
pub fn reference_streams(modules: &[Module]) -> Vec<Vec<OutVal>> {
    modules
        .iter()
        .map(|m| {
            let r = interp::run(m, INTERP_STEPS).expect("interpreter reference run");
            assert_eq!(
                r.stop,
                StopReason::Halt(0),
                "reference run of {} did not halt",
                m.name
            );
            r.stream
        })
        .collect()
}

fn same_stream(a: &[OutVal], b: &[OutVal]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
}

/// One cell through `casted_passes::prepare` and a fault-free run.
pub struct Measured {
    pub counts: [u64; 4],
    pub stream_ok: bool,
    pub spilled: usize,
}

/// The work `perf_sweep` does for one cell — `casted_passes::prepare`,
/// then a fault-free `casted_sim::simulate` — with the run's output
/// stream checked against `reference`.
pub fn measure_cell(
    module: &Module,
    cell: &Cell,
    reference: &[OutVal],
) -> Result<(Measured, ScheduledProgram), String> {
    let prep = casted_passes::prepare(module, cell.scheme, &cell.config())?;
    let r = simulate(&prep.sp, &SimOptions::default());
    let measured = Measured {
        counts: [
            r.stats.cycles,
            r.stats.dyn_insns,
            prep.sp.bundle_count() as u64,
            prep.sp.nop_slots() as u64,
        ],
        stream_ok: r.stop == StopReason::Halt(0) && same_stream(&r.stream, reference),
        spilled: prep.spilled,
    };
    Ok((measured, prep.sp))
}

/// Measure every cell on the pool (outside any timed region).
pub fn measure_all(
    modules: &[Module],
    cells: &[Cell],
    refs: &[Vec<OutVal>],
) -> Vec<Result<(Measured, ScheduledProgram), String>> {
    run_pool(
        cells
            .iter()
            .map(|cell| move || measure_cell(&modules[cell.kernel], cell, &refs[cell.kernel]))
            .collect(),
    )
}

pub fn run(args: &Args, rep: &mut Report) {
    let ws = casted_workloads::all();
    let spec = spec();
    let cells = cells(&ws, &spec);
    if args.trace {
        return traced(rep, &ws, &spec, &cells);
    }

    let modules = compile_all(&ws);
    let refs = reference_streams(&modules);

    // Each timed cell is the per-cell work of `perf_sweep`, run on the
    // same pool; the seed orders the cells of each round.
    let mut setup = Vec::new();
    let rounds = timed_rounds(
        cells.len(),
        args.seconds,
        args.seed,
        true,
        || {
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                compile_all(&ws);
                setup.push(t.elapsed().as_secs_f64());
            }
        },
        |i| {
            let cell = &cells[i];
            catch_unwind(|| measure_cell(&modules[cell.kernel], cell, &refs[cell.kernel]))
                .map_err(|_| "panicked".to_string())
                .and_then(|r| r.map(|(m, _)| m))
        },
    );
    report_peak_rss(rep, &rounds.peak_rss_mb);

    let pinned = pinned::load_keyed(PINNED, 4);
    for (round, outs) in rounds.outputs.iter().enumerate() {
        for (cell, out) in cells.iter().zip(outs) {
            let key = cell.key(&ws);
            rep.check(matches!(out, Ok(m) if m.stream_ok), || {
                format!("perf_grid round {round} cell {key}: output differs from the interpreter")
            });
            if let (0, Ok(m)) = (round, out) {
                let want = pinned.get(&key);
                for (i, what) in ["cycles", "dyn_insns", "bundles", "nop_slots"]
                    .iter()
                    .enumerate()
                {
                    rep.stat(
                        &format!("{key} {what}"),
                        want.map_or(u64::MAX, |w| w[i]),
                        m.counts[i],
                    );
                }
            }
        }
    }

    rep.metric("setup_s", median(&setup));
    report_fastest(rep, &rounds.fastest, pool_threads(), 1);
    println!(
        "perf_grid: {} rounds of {} cells; {} s of fastest cell times (latency = one cell)",
        rounds.outputs.len(),
        cells.len(),
        rounds.fastest.iter().sum::<f64>()
    );
}

/// One cell re-driven layer by layer.
struct Redriven {
    sp: ScheduledProgram,
    spilled: usize,
    rounds: u64,
    cycles: u64,
    dyn_insns: u64,
    stream: Vec<OutVal>,
    halted: bool,
}

/// `sim.runs` and the `sim.run_ns` total, as recorded so far.
fn sim_counters() -> (u64, u64) {
    let reg = casted_obs::global();
    (reg.counter("sim.runs").get(), reg.hist("sim.run_ns").sum())
}

/// What `casted_passes::prepare` does, one public entry point at a time.
fn redrive_cell(
    module: &Module,
    cell: &Cell,
    tracer: &mut Tracer,
    candidates: &mut (u64, u64),
) -> Result<Redriven, String> {
    let config = cell.config();
    let mut m = module.clone();
    tracer.time("passes.ed_s", || match cell.scheme.descriptor().transform {
        Transform::DupCompare => {
            error_detection_with(&mut m, &EdOptions::default());
        }
        Transform::Tmr => {
            casted_passes::schemes::tmr_transform(&mut m);
        }
        Transform::None => {}
    });
    let (mut spilled, mut rounds) = (0, 0);
    let sp = loop {
        let before = sim_counters();
        let sp = tracer.time("passes.schedule_s", || {
            schedule_function(&m, &config, cell.scheme.placement())
        });
        let after = sim_counters();
        candidates.0 += after.0 - before.0;
        candidates.1 += after.1 - before.1;
        let picks = tracer.time("passes.spill_s", || choose_spills(&sp, &intervals(&sp)));
        if picks.is_empty() {
            break sp;
        }
        rounds += 1;
        if rounds > PrepareOptions::default().max_spill_rounds {
            return Err("register pressure not reducible".into());
        }
        spilled += picks.len();
        tracer.time("passes.spill_s", || {
            for reg in picks {
                spill_register(&mut m, reg);
            }
        });
    };
    tracer.time("passes.regalloc_s", || assign_physical(&sp))?;
    let r = tracer.time("sim.measure_s", || simulate(&sp, &SimOptions::default()));
    Ok(Redriven {
        spilled,
        rounds: rounds as u64,
        cycles: r.stats.cycles,
        dyn_insns: r.stats.dyn_insns,
        halted: r.stop == StopReason::Halt(0),
        stream: r.stream,
        sp,
    })
}

fn traced(rep: &mut Report, ws: &[Workload], spec: &GridSpec, cells: &[Cell]) {
    // Every step runs untraced and traced (`Tracer::twice`); the
    // candidate simulations (runs, ns) only move while obs is on.
    casted_obs::reset();
    let mut tracer = Tracer::new(true);
    let mut walls = (0.0, 0.0);
    let modules: Vec<Module> = ws
        .iter()
        .enumerate()
        .map(|(turn, w)| {
            tracer.twice(turn, &mut walls, |t| {
                t.time("frontend.compile_s", || {
                    w.compile().expect("kernel compiles")
                })
            })
        })
        .collect();
    let mut candidates = (0, 0);
    let outs: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(turn, cell)| {
            tracer.twice(turn, &mut walls, |t| {
                redrive_cell(&modules[cell.kernel], cell, t, &mut candidates)
            })
        })
        .collect();
    let (cand_runs, cand_ns) = candidates;

    // The re-drive must build exactly what `prepare` builds, every
    // cell's output must equal the interpreter's, and `perf_sweep` —
    // whose per-cell work the untraced run times — must report the same
    // counts.
    let modules = compile_all(ws);
    let refs = reference_streams(&modules);
    let oracle = measure_all(&modules, cells, &refs);
    let table = catch_unwind(|| perf_sweep(ws, spec)).ok();
    let pinned = pinned::load_keyed(PINNED, 4);
    let (mut cycles, mut dyn_insns, mut bundles, mut nops, mut rounds) = (0, 0, 0, 0, 0);
    for ((cell, out), want) in cells.iter().zip(&outs).zip(&oracle) {
        let key = cell.key(ws);
        let point = table
            .as_ref()
            .and_then(|t| t.get(ws[cell.kernel].name, cell.scheme, cell.issue, cell.delay));
        let ok = match (out, want, point) {
            (Ok(d), Ok((m, sp)), Some(p)) => {
                d.halted
                    && same_stream(&d.stream, &refs[cell.kernel])
                    && d.spilled == m.spilled
                    && encode_scheduled(&d.sp) == encode_scheduled(sp)
                    && [p.cycles, p.dyn_insns] == [d.cycles, d.dyn_insns]
            }
            _ => false,
        };
        rep.check(ok, || {
            format!("perf_grid cell {key}: re-drive differs from prepare, perf_sweep or interpreter")
        });
        if let Ok(d) = out {
            let counts = [
                d.cycles,
                d.dyn_insns,
                d.sp.bundle_count() as u64,
                d.sp.nop_slots() as u64,
            ];
            let want = pinned.get(&key);
            for (i, what) in ["cycles", "dyn_insns", "bundles", "nop_slots"]
                .iter()
                .enumerate()
            {
                rep.stat(
                    &format!("{key} {what}"),
                    want.map_or(u64::MAX, |w| w[i]),
                    counts[i],
                );
            }
            cycles += counts[0];
            dyn_insns += counts[1];
            bundles += counts[2];
            nops += counts[3];
            rounds += d.rounds;
        }
    }

    rep.metric("passes.schedule.candidate_sims", cand_runs as f64);
    rep.metric("passes.schedule.candidate_sim_s", cand_ns as f64 * 1e-9);
    rep.metric("passes.spill.rounds", rounds as f64);
    rep.metric(
        "sim.minsns_per_s",
        dyn_insns as f64 / tracer.get("sim.measure_s") / 1e6,
    );
    rep.metric("sim.cycles", cycles as f64);
    rep.metric("sim.dyn_insns", dyn_insns as f64);
    rep.metric("passes.sched.bundles", bundles as f64);
    rep.metric("passes.sched.nop_slots", nops as f64);
    println!(
        "perf_grid traced: passes.schedule_s {:.3} s, of which candidate simulation {:.3} s ({} runs)",
        tracer.get("passes.schedule_s"),
        cand_ns as f64 * 1e-9,
        cand_runs
    );
    tracer.finish(rep, walls.0, walls.1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell whose output equals the interpreter's passes; against a
    /// corrupted reference value it fails.
    #[test]
    fn a_corrupted_reference_stream_is_a_failure() {
        let src = "fn main() { var s: int = 0; for i in 0..20 { s = s + i; } out(s); }";
        let module = casted::compile("t", src).expect("compiles");
        let mut reference = reference_streams(std::slice::from_ref(&module)).remove(0);
        let cell = Cell {
            kernel: 0,
            scheme: Scheme::Casted,
            issue: 2,
            delay: 2,
        };
        assert!(
            measure_cell(&module, &cell, &reference)
                .expect("prepares")
                .0
                .stream_ok
        );
        reference[0] = OutVal::Int(-1);
        assert!(
            !measure_cell(&module, &cell, &reference)
                .expect("prepares")
                .0
                .stream_ok
        );
    }

    #[test]
    fn the_grids_have_280_and_84_measured_cells() {
        let ws = casted_workloads::all();
        assert_eq!(cells(&ws, &GridSpec::paper_full()).len(), 280);
        assert_eq!(cells(&ws, &spec()).len(), 84);
    }
}
