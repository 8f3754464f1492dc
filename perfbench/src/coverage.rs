//! `coverage_campaign`: the Fig. 9 cells — 7 kernels × the six
//! registry schemes at issue 2, delay 2, 2 clusters — each run as a
//! fault campaign on the default engine. Compiling and preparing are
//! set-up; the campaigns are timed, in rounds of all 42 cells, and each
//! cell's time is its fastest round.
//!
//! Each cell's campaign seed comes from the cell's index, not from the
//! run's seed, which only orders the campaigns of each round. When the
//! run's seed chose the campaign seeds, the trials it dealt to the
//! costliest cells moved the slowest campaign by up to 70% between
//! seeds: a set of trials can step several times the lanes of another.
//! The tallies, produced by the reference engine, are checked in under
//! `perfbench/expected/`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use casted_faults::{run_campaign_engine, CampaignConfig, CampaignResult, Engine, EngineStats};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{MachineConfig, Module};
use casted_passes::Scheme;
use casted_sim::{golden_with_checkpoints_rbed, rbed_plan, simulate_quiet, SimOptions};
use casted_util::pool::pool_threads;
use casted_util::Fnv64;

use crate::report::{median, report_fastest, report_peak_rss, timed_rounds, Report, Tracer};
use crate::{pinned, Args};

/// Trials per campaign: few enough that a round of 42 campaigns takes a
/// few seconds, so a run times every campaign in several rounds.
pub const TRIALS: usize = 8;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 5;
/// Pinned per-cell rows: tally, then engine work counts.
pub const PINNED: &str = "coverage_campaign.txt";
/// Tally columns of [`PINNED`], in `Outcome::ALL` order.
pub const OUTCOMES: &str = "Benign Detected Exception DataCorrupt Timeout Corrected";
/// Engine-count columns of [`PINNED`], as [`engine_counts`] orders them.
pub const ENGINE_COUNTS: &str =
    "lanes lane_steps bundles divergences converged checkpoints skipped_insns";

/// The campaign seed of cell `i` (kernel-major).
pub fn campaign_seed(i: usize) -> u64 {
    casted_util::Rng::seed_from_u64(0xF19_0000 + i as u64).next_u64()
}

/// The engine work counts a speed-only change must not move.
pub fn engine_counts(e: &EngineStats) -> [u64; 7] {
    [
        e.batch.lanes,
        e.batch.lane_insn_steps,
        e.batch.bundles_stepped,
        e.batch.divergences,
        e.batch.retired_converged,
        e.checkpoints,
        e.skipped_insns,
    ]
}

fn campaign_layer(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Noed => "faults.campaign_s.NOED",
        Scheme::Sced => "faults.campaign_s.SCED",
        Scheme::Dced => "faults.campaign_s.DCED",
        Scheme::Casted => "faults.campaign_s.CASTED",
        Scheme::Tmred => "faults.campaign_s.TMRED",
        Scheme::Rbed => "faults.campaign_s.RBED",
    }
}

/// One prepared Fig. 9 cell.
pub struct Cell {
    pub kernel: &'static str,
    pub scheme: Scheme,
    pub sp: ScheduledProgram,
    /// The campaign seed.
    pub seed: u64,
}

impl Cell {
    fn prepare(module: &Module, kernel: &'static str, scheme: Scheme, index: usize) -> Cell {
        let prep = casted_passes::prepare(module, scheme, &MachineConfig::itanium2_like(2, 2))
            .unwrap_or_else(|e| panic!("{kernel} {scheme}: {e}"));
        Cell {
            kernel,
            scheme,
            sp: prep.sp,
            seed: campaign_seed(index),
        }
    }

    pub fn key(&self) -> String {
        format!("{} {}", self.kernel, self.scheme)
    }

    pub fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            trials: TRIALS,
            seed: self.seed,
            replay_detect: self.scheme.replay_detect(),
            ..CampaignConfig::default()
        }
    }

    /// The timed call: one campaign on the default engine. A panic is
    /// a failed operation, not a crash.
    fn run(&self) -> Option<CampaignResult> {
        let cfg = self.campaign();
        catch_unwind(AssertUnwindSafe(|| {
            run_campaign_engine(&self.sp, &cfg, Engine::default())
        }))
        .ok()
    }
}

/// The 42 cells, kernel-major in `Scheme::FULL` order.
pub fn prepare_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for w in casted_workloads::all() {
        let module = w.compile().expect("kernel compiles");
        for scheme in Scheme::FULL {
            cells.push(Cell::prepare(&module, w.name, scheme, cells.len()));
        }
    }
    cells
}

/// Check one campaign against its checked-in row: the tally is the
/// oracle, the engine counts are pinned.
fn check(rep: &mut Report, key: &str, want: Option<&Vec<u64>>, result: Option<&CampaignResult>) {
    let tally = result.map(|r| r.tally.counts.iter().map(|&c| c as u64).collect::<Vec<_>>());
    let ok = matches!((&tally, want), (Some(t), Some(w)) if w.len() == 13 && t[..] == w[..6]);
    rep.check(ok, || {
        format!("coverage_campaign {key}: tally {tally:?}, expected {want:?}")
    });
    if let (Some(r), Some(w)) = (result, want) {
        for ((name, got), &exp) in ENGINE_COUNTS
            .split(' ')
            .zip(engine_counts(&r.engine))
            .zip(w.iter().skip(6))
        {
            rep.stat(&format!("{key} {name}"), exp, got);
        }
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    if args.trace {
        return traced(rep);
    }
    let t = Instant::now();
    let cells = prepare_cells();
    let mut setup = vec![t.elapsed().as_secs_f64()];

    // Every round runs the same campaigns, so a cell's fastest round is
    // a time for one fixed amount of work. The campaigns run on the
    // pool, one per thread: a campaign's trials fit in one batch of
    // lanes, which steps on one thread. The further set-ups run before
    // the first rounds, so their median covers more of the run.
    let rounds = timed_rounds(
        cells.len(),
        args.seconds,
        args.seed,
        true,
        || {
            if setup.len() < SETUP_REPS {
                let t = Instant::now();
                prepare_cells();
                setup.push(t.elapsed().as_secs_f64());
            }
        },
        |i| cells[i].run(),
    );
    report_peak_rss(rep, &rounds.peak_rss_mb);

    let pinned = pinned::load_keyed(PINNED, 2);
    for outs in &rounds.outputs {
        for (cell, r) in cells.iter().zip(outs) {
            let key = cell.key();
            check(rep, &key, pinned.get(&key), r.as_ref());
        }
    }
    rep.metric("setup_s", median(&setup));
    report_fastest(rep, &rounds.fastest, pool_threads(), TRIALS);
    println!(
        "coverage_campaign: {} rounds of {} campaigns of {TRIALS} trials; \
         latency = one campaign at its fastest round",
        rounds.outputs.len(),
        cells.len()
    );
}

/// One cell of the traced round: prepare, golden capture, campaign.
fn cell_pass(
    module: &Module,
    kernel: &'static str,
    scheme: Scheme,
    index: usize,
    tracer: &mut Tracer,
) -> (Cell, Option<CampaignResult>) {
    let cell = tracer.time("passes.prepare_s", || {
        Cell::prepare(module, kernel, scheme, index)
    });
    let golden = tracer.time("faults.golden_s", || {
        let rbed = scheme.replay_detect().then(|| {
            let g = simulate_quiet(&cell.sp, &SimOptions::default());
            rbed_plan(&cell.sp, g.stats.dyn_insns)
        });
        golden_with_checkpoints_rbed(&cell.sp, rbed)
    });
    drop(golden);
    let result = tracer.time(campaign_layer(scheme), || cell.run());
    (cell, result)
}

fn traced(rep: &mut Report) {
    casted_obs::reset();
    let mut tracer = Tracer::new(true);
    let mut walls = (0.0, 0.0);
    let mut runs = Vec::new();
    for w in casted_workloads::all() {
        let turn = runs.len();
        let module = tracer.twice(turn, &mut walls, |t| {
            t.time("frontend.compile_s", || {
                w.compile().expect("kernel compiles")
            })
        });
        for scheme in Scheme::FULL {
            let turn = runs.len();
            runs.push(tracer.twice(turn, &mut walls, |t| {
                cell_pass(&module, w.name, scheme, turn, t)
            }));
        }
    }

    let pinned = pinned::load_keyed(PINNED, 2);
    let mut engine = [0u64; 7];
    let mut digest = Fnv64::new();
    for (cell, r) in &runs {
        let key = cell.key();
        check(rep, &key, pinned.get(&key), r.as_ref());
        if let Some(r) = r {
            for (sum, c) in engine.iter_mut().zip(engine_counts(&r.engine)) {
                *sum += c;
            }
            for &c in &r.tally.counts {
                digest.write_u64(c as u64);
            }
        }
    }
    let [lanes, lane_steps, bundles, divergences, converged, checkpoints, skipped] = engine;
    rep.metric("faults.trials", (runs.len() * TRIALS) as f64);
    rep.metric("faults.batch.lanes", lanes as f64);
    rep.metric("faults.batch.lane_steps", lane_steps as f64);
    rep.metric("faults.batch.bundles", bundles as f64);
    rep.metric("faults.batch.divergences", divergences as f64);
    rep.metric("faults.batch.retired.converged", converged as f64);
    rep.metric("faults.checkpoint.taken", checkpoints as f64);
    rep.metric("faults.checkpoint.skipped_insns", skipped as f64);
    rep.metric(
        "faults.replay_fallback_share",
        divergences as f64 / lanes.max(1) as f64,
    );
    rep.metric(
        "faults.tally_digest",
        (digest.finish() & 0xFFFF_FFFF_FFFF) as f64,
    );
    println!(
        "coverage_campaign traced: tally digest {:016x}",
        digest.finish()
    );
    tracer.finish(rep, walls.0, walls.1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_faults::Tally;

    /// A checked-in tally passes; the same row with one count corrupted,
    /// or a campaign that produced nothing, is a failed operation.
    #[test]
    fn a_corrupted_expected_tally_is_a_failure() {
        let pinned = pinned::load_keyed(PINNED, 2);
        let key = "cjpeg CASTED";
        let row = pinned.get(key).expect("checked-in row").clone();
        let mut tally = Tally::default();
        for (slot, &c) in tally.counts.iter_mut().zip(&row[..6]) {
            *slot = c as usize;
        }
        let result = CampaignResult {
            tally,
            golden_cycles: 0,
            golden_dyn: 0,
            engine: EngineStats::default(),
        };
        let mut rep = Report::new(false);
        check(&mut rep, key, Some(&row), Some(&result));
        let mut corrupted = row.clone();
        corrupted[0] += 1;
        check(&mut rep, key, Some(&corrupted), Some(&result));
        check(&mut rep, key, Some(&row), None);
        assert_eq!(rep.counts(), (3, 2));
    }
}
