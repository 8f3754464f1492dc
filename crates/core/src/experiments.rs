//! Experiment drivers reproducing the paper's evaluation (§IV).
//!
//! * [`perf_sweep`] — the measurement grid behind Figs. 6, 7 and 8:
//!   every (benchmark × scheme × issue-width × inter-cluster delay)
//!   cell, with cycle counts from the cycle-accurate simulator and
//!   slowdowns normalized to NOED at the same issue width.
//! * [`coverage_sweep`] — the Monte-Carlo fault-injection grids behind
//!   Figs. 9 and 10.
//! * [`summarize`] / [`casted_vs_best_fixed`] — the headline numbers of
//!   §IV-B (scheme slowdown ranges/averages, CASTED's win over the
//!   best non-adaptive scheme).
//!
//! Sweeps run cells on a small scoped thread pool
//! ([`casted_util::pool`]) sized to the host's parallelism. Cell
//! results are collected in input order, so a sweep's output is
//! deterministic regardless of worker scheduling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use casted_faults::{CampaignConfig, Engine, Tally};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::MachineConfig;
use casted_passes::Scheme;
use casted_util::pool::{pool_threads, run_pool};
use casted_workloads::Workload;

/// Per-sweep pool accounting: per-cell wall-time lands in the
/// `<sweep>.cell_ns` histogram, and the busy-time sum over all cells,
/// divided by `workers × sweep wall-time`, gives the pool-utilization
/// gauge (in permille — 1000 means every worker was busy for the
/// whole sweep). All of it is timing data: full export only, never in
/// the counter-only snapshot.
struct SweepMeter {
    cell_hist: &'static str,
    busy_ns: AtomicU64,
    started: Instant,
}

impl SweepMeter {
    fn start(cell_hist: &'static str) -> Self {
        SweepMeter {
            cell_hist,
            busy_ns: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Wrap one cell task: time it, record the histogram sample, and
    /// accumulate busy time.
    fn observe_cell<T>(&self, task: impl FnOnce() -> T) -> T {
        if !casted_obs::enabled() {
            return task();
        }
        let t0 = Instant::now();
        let out = task();
        let ns = t0.elapsed().as_nanos() as u64;
        casted_obs::observe_ns(self.cell_hist, ns);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Record the sweep-level gauges once all cells are done.
    fn finish(&self, tasks: usize, wall_hist: &'static str, util_gauge: &'static str) {
        if !casted_obs::enabled() {
            return;
        }
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        casted_obs::observe_ns(wall_hist, wall_ns);
        let workers = pool_threads().min(tasks.max(1)) as u64;
        casted_obs::gauge_set("core.pool.workers", workers);
        if wall_ns > 0 {
            let busy = self.busy_ns.load(Ordering::Relaxed);
            casted_obs::gauge_set(
                util_gauge,
                busy.saturating_mul(1000) / (workers * wall_ns),
            );
        }
    }
}

/// The sweep grid. The paper's full grid is issue widths 1–4 ×
/// delays 1–4 × all four schemes.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Issue widths per cluster.
    pub issues: Vec<usize>,
    /// Inter-cluster delays in cycles.
    pub delays: Vec<u32>,
    /// Schemes to run.
    pub schemes: Vec<Scheme>,
    /// Cluster counts for the *coverage* grid (the perf figures fix
    /// the paper's 2-cluster machine). The quick grid includes a
    /// 4-cluster entry so every scheme is exercised beyond the
    /// 2-cluster machine the paper evaluates.
    pub clusters: Vec<usize>,
}

impl GridSpec {
    /// The paper's full grid (Figs. 6/7): issue 1–4, delay 1–4, all
    /// four schemes.
    pub fn paper_full() -> Self {
        GridSpec {
            issues: vec![1, 2, 3, 4],
            delays: vec![1, 2, 3, 4],
            schemes: Scheme::ALL.to_vec(),
            clusters: vec![2],
        }
    }

    /// A reduced grid for quick runs and tests.
    pub fn quick() -> Self {
        GridSpec {
            issues: vec![1, 2],
            delays: vec![1, 3],
            schemes: Scheme::ALL.to_vec(),
            clusters: vec![2, 4],
        }
    }
}

/// One measured cell of the performance grid.
#[derive(Clone, Debug)]
pub struct PerfPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Scheme.
    pub scheme: Scheme,
    /// Issue width per cluster.
    pub issue: usize,
    /// Inter-cluster delay (meaningful for DCED/CASTED; NOED and SCED
    /// use one cluster and are delay-insensitive).
    pub delay: u32,
    /// Fault-free cycle count.
    pub cycles: u64,
    /// Dynamic instructions.
    pub dyn_insns: u64,
    /// Registers spilled by the pipeline.
    pub spilled: usize,
    /// Static code growth from error detection (1.0 for NOED).
    pub code_growth: f64,
    /// Instructions placed on each cluster.
    pub occupancy: Vec<usize>,
}

/// The full measured grid with lookup helpers.
///
/// `points` stays in input order (sweeps collect cells
/// deterministically), while `get` is O(1) via a hash index keyed by
/// `(benchmark, scheme, issue, delay)` — `summarize` and
/// [`casted_vs_best_fixed`] call it once per cell, so a linear scan
/// made them O(n²) over the paper's full grid.
#[derive(Clone, Debug, Default)]
pub struct PerfTable {
    /// All measured points, in insertion order.
    pub points: Vec<PerfPoint>,
    /// Cell key → index into `points`. Maintained by [`add_point`];
    /// lookups fall back to a linear scan whenever the index is out
    /// of sync with `points` (e.g. a caller pushed directly).
    ///
    /// [`add_point`]: PerfTable::add_point
    index: HashMap<(String, Scheme, usize, u32), usize>,
    /// `(benchmark, issue)` → first NOED point, for the baseline
    /// lookup every `slowdown` call performs.
    noed: HashMap<(String, usize), usize>,
}

impl PerfTable {
    /// Append a point, keeping the lookup indexes in sync. First write
    /// wins for duplicate keys, matching the old `find` semantics.
    pub fn add_point(&mut self, p: PerfPoint) {
        self.index
            .entry((p.benchmark.clone(), p.scheme, p.issue, p.delay))
            .or_insert(self.points.len());
        if p.scheme == Scheme::Noed {
            self.noed
                .entry((p.benchmark.clone(), p.issue))
                .or_insert(self.points.len());
        }
        self.points.push(p);
    }

    /// Find a cell. O(1) when every point was added via
    /// [`PerfTable::add_point`]; degrades to a linear scan otherwise.
    pub fn get(&self, benchmark: &str, scheme: Scheme, issue: usize, delay: u32) -> Option<&PerfPoint> {
        if self.index.len() == self.points.len() {
            return self
                .index
                .get(&(benchmark.to_string(), scheme, issue, delay))
                .map(|&i| &self.points[i]);
        }
        self.points.iter().find(|p| {
            p.benchmark == benchmark && p.scheme == scheme && p.issue == issue && p.delay == delay
        })
    }

    /// NOED baseline cycles for a benchmark at an issue width (NOED is
    /// delay-independent; any measured delay cell is the baseline).
    pub fn noed_cycles(&self, benchmark: &str, issue: usize) -> Option<u64> {
        if self.index.len() == self.points.len() {
            return self
                .noed
                .get(&(benchmark.to_string(), issue))
                .map(|&i| self.points[i].cycles);
        }
        self.points
            .iter()
            .find(|p| p.benchmark == benchmark && p.scheme == Scheme::Noed && p.issue == issue)
            .map(|p| p.cycles)
    }

    /// Slowdown of a cell relative to NOED at the same issue width —
    /// the y-axis of Figs. 6 and 7.
    pub fn slowdown(&self, benchmark: &str, scheme: Scheme, issue: usize, delay: u32) -> Option<f64> {
        let p = self.get(benchmark, scheme, issue, delay)?;
        let base = self.noed_cycles(benchmark, issue)?;
        Some(p.cycles as f64 / base as f64)
    }

    /// Speedup of a scheme as the issue width grows, normalized to the
    /// same scheme at issue 1 (Fig. 8's ILP-scaling curves).
    pub fn scaling(&self, benchmark: &str, scheme: Scheme, delay: u32, issue: usize) -> Option<f64> {
        let base = self.get(benchmark, scheme, 1, delay)?.cycles;
        let p = self.get(benchmark, scheme, issue, delay)?.cycles;
        Some(base as f64 / p as f64)
    }

    /// Benchmarks present, in first-seen order.
    pub fn benchmarks(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.benchmark) {
                out.push(p.benchmark.clone());
            }
        }
        out
    }
}

/// Measure the full performance grid for `benchmarks` over `spec`.
///
/// NOED and SCED are delay-insensitive (one cluster); their cells are
/// measured once per issue width and replicated across delays so the
/// table is dense.
pub fn perf_sweep(benchmarks: &[Workload], spec: &GridSpec) -> PerfTable {
    perf_sweep_with_cache(benchmarks, spec, None)
}

/// [`perf_sweep`] with an optional staged artifact cache: the grid
/// re-prepares each module under every (scheme, issue, delay) cell,
/// which is exactly the access pattern the memoized stage pipeline
/// collapses — the machine-independent ED transform runs once per
/// (module, protection) instead of once per cell, and a re-run of the
/// whole sweep restarts at the schedule stage at most
/// (see `docs/PIPELINE.md`). Results are byte-identical either way.
pub fn perf_sweep_with_cache(
    benchmarks: &[Workload],
    spec: &GridSpec,
    artifact_cache: Option<&std::path::Path>,
) -> PerfTable {
    let store = artifact_cache.map(|dir| {
        casted_util::store::ArtifactStore::open(dir)
            .unwrap_or_else(|e| panic!("cannot open artifact cache {}: {e}", dir.display()))
    });
    // Compile every benchmark once (and, when staged, digest it once).
    let modules: Vec<(String, casted_ir::Module, u64)> = benchmarks
        .iter()
        .map(|w| {
            let m = w
                .compile()
                .unwrap_or_else(|e| panic!("{} failed to compile: {e:?}", w.name));
            let digest = if store.is_some() {
                casted_passes::stages::module_content_key(&m)
            } else {
                0
            };
            (w.name.to_string(), m, digest)
        })
        .collect();

    // Enumerate unique measurement cells.
    struct Cell<'a> {
        name: &'a str,
        module: &'a casted_ir::Module,
        digest: u64,
        scheme: Scheme,
        issue: usize,
        delay: u32,
        replicate_delays: Vec<u32>,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for (name, module, digest) in &modules {
        for &scheme in &spec.schemes {
            // Delay-sensitive iff the scheme's placement policy uses
            // more than one cluster (registry-driven: DCED/CASTED/
            // TMRED spread streams, NOED/SCED/RBED stay on MAIN).
            let delay_sensitive =
                !matches!(scheme.placement(), casted_passes::Placement::AllOn(_));
            for &issue in &spec.issues {
                if delay_sensitive {
                    for &delay in &spec.delays {
                        cells.push(Cell {
                            name,
                            module,
                            digest: *digest,
                            scheme,
                            issue,
                            delay,
                            replicate_delays: vec![delay],
                        });
                    }
                } else {
                    cells.push(Cell {
                        name,
                        module,
                        digest: *digest,
                        scheme,
                        issue,
                        delay: spec.delays[0],
                        replicate_delays: spec.delays.clone(),
                    });
                }
            }
        }
    }

    let meter = SweepMeter::start("core.perf_sweep.cell_ns");
    let tasks: Vec<_> = cells
        .into_iter()
        .map(|cell| {
            let meter = &meter;
            let store = store.as_ref();
            move || meter.observe_cell(|| {
                let config = MachineConfig::itanium2_like(cell.issue, cell.delay);
                let prep = match store {
                    Some(st) => {
                        let mut stats = casted_passes::stages::StageStats::default();
                        casted_passes::stages::prepare_staged(
                            st,
                            cell.digest,
                            cell.module,
                            cell.scheme,
                            &config,
                            &casted_passes::pipeline::PrepareOptions::default(),
                            &mut stats,
                        )
                    }
                    None => casted_passes::prepare(cell.module, cell.scheme, &config),
                }
                    .unwrap_or_else(|e| {
                        panic!("{} {} i{} d{}: {e}", cell.name, cell.scheme, cell.issue, cell.delay)
                    });
                let r = casted_sim::simulate(&prep.sp, &casted_sim::SimOptions::default());
                assert!(
                    matches!(r.stop, casted_ir::interp::StopReason::Halt(_)),
                    "{} {} did not halt: {:?}",
                    cell.name,
                    cell.scheme,
                    r.stop
                );
                let occ = prep.sp.cluster_occupancy();
                cell.replicate_delays
                    .iter()
                    .map(|&d| PerfPoint {
                        benchmark: cell.name.to_string(),
                        scheme: cell.scheme,
                        issue: cell.issue,
                        delay: d,
                        cycles: r.stats.cycles,
                        dyn_insns: r.stats.dyn_insns,
                        spilled: prep.spilled,
                        code_growth: prep.ed_stats.map(|s| s.growth()).unwrap_or(1.0),
                        occupancy: occ.clone(),
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let n_tasks = tasks.len();
    let mut table = PerfTable::default();
    for group in run_pool(tasks) {
        for p in group {
            table.add_point(p);
        }
    }
    casted_obs::add("core.perf_sweep.cells", n_tasks as u64);
    meter.finish(
        n_tasks,
        "core.perf_sweep.wall_ns",
        "core.perf_sweep.pool_utilization_permille",
    );
    table
}

/// One cell of a coverage grid.
#[derive(Clone, Debug)]
pub struct CoveragePoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Scheme.
    pub scheme: Scheme,
    /// Issue width.
    pub issue: usize,
    /// Inter-cluster delay.
    pub delay: u32,
    /// Cluster count of the machine the campaign ran on.
    pub clusters: usize,
    /// Outcome tallies.
    pub tally: Tally,
}

/// Run fault-injection campaigns over a grid (Figs. 9 and 10) with
/// the default (checkpointed) engine.
pub fn coverage_sweep(
    benchmarks: &[Workload],
    spec: &GridSpec,
    campaign: &CampaignConfig,
) -> Vec<CoveragePoint> {
    coverage_sweep_with(benchmarks, spec, campaign, Engine::default())
}

/// [`coverage_sweep`] with an explicit campaign engine. Both engines
/// produce byte-identical tallies (the difftest oracles enforce it);
/// the knob exists for the CI cross-check and for benchmarking the
/// reference path.
pub fn coverage_sweep_with(
    benchmarks: &[Workload],
    spec: &GridSpec,
    campaign: &CampaignConfig,
    engine: Engine,
) -> Vec<CoveragePoint> {
    coverage_grid(benchmarks, spec, campaign, |sp, cfg| {
        casted_faults::run_campaign_engine(sp, cfg, engine).tally
    })
}

/// The grid driver both coverage sweeps share: compile each benchmark
/// once, then per cell prepare the program and run `campaign_of` on it
/// in the pool, metered under the `core.coverage_sweep.*` counters.
fn coverage_grid<F>(
    benchmarks: &[Workload],
    spec: &GridSpec,
    campaign: &CampaignConfig,
    campaign_of: F,
) -> Vec<CoveragePoint>
where
    F: Fn(&ScheduledProgram, &CampaignConfig) -> Tally + Sync,
{
    let modules: Vec<(String, casted_ir::Module)> = benchmarks
        .iter()
        .map(|w| (w.name.to_string(), w.compile().expect("compile failed")))
        .collect();

    let meter = SweepMeter::start("core.coverage_sweep.cell_ns");
    let campaign_of = &campaign_of;
    let mut tasks = Vec::new();
    for (name, module) in &modules {
        for &scheme in &spec.schemes {
            for &issue in &spec.issues {
                for &delay in &spec.delays {
                    for &clusters in &spec.clusters {
                        // Per-cell override: RBED cells must run the
                        // replay-digest detector regardless of what the
                        // grid-wide config says.
                        let campaign = CampaignConfig {
                            replay_detect: scheme.replay_detect(),
                            ..campaign.clone()
                        };
                        let meter = &meter;
                        tasks.push(move || meter.observe_cell(|| {
                            let mut config = MachineConfig::itanium2_like(issue, delay);
                            config.clusters = clusters;
                            let prep = casted_passes::prepare(module, scheme, &config)
                                .expect("prepare failed");
                            CoveragePoint {
                                benchmark: name.clone(),
                                scheme,
                                issue,
                                delay,
                                clusters,
                                tally: campaign_of(&prep.sp, &campaign),
                            }
                        }));
                    }
                }
            }
        }
    }
    let n_tasks = tasks.len();
    let points = run_pool(tasks);
    casted_obs::add("core.coverage_sweep.cells", n_tasks as u64);
    meter.finish(
        n_tasks,
        "core.coverage_sweep.wall_ns",
        "core.coverage_sweep.pool_utilization_permille",
    );
    points
}

/// [`coverage_sweep`] through the compositional section cache
/// ([`casted_faults::run_campaign_incremental`]): every cell keys its
/// sections into the shared on-disk store at `store_dir`, so a rerun
/// of an unchanged grid recombines from cache and an edited benchmark
/// re-injects only the sections it touched. Tallies are byte-identical
/// to [`coverage_sweep_with`] on any engine — the fig9 incremental
/// smoke in `scripts/ci.sh` byte-compares the CSVs.
pub fn coverage_sweep_incremental(
    benchmarks: &[Workload],
    spec: &GridSpec,
    campaign: &CampaignConfig,
    store_dir: &std::path::Path,
) -> Vec<CoveragePoint> {
    let store = casted_util::store::ArtifactStore::open(store_dir)
        .unwrap_or_else(|e| panic!("cannot open section cache {}: {e}", store_dir.display()));
    coverage_grid(benchmarks, spec, campaign, |sp, cfg| {
        casted_faults::run_campaign_incremental(sp, cfg, &store).tally
    })
}

/// Headline slowdown statistics for one scheme (§IV-B quotes SCED
/// 1.34–2.22 avg 1.7; DCED 1.31–3.32 avg 2.1; CASTED 1.19–2.1 avg
/// 1.58 on the authors' setup).
#[derive(Clone, Debug)]
pub struct SchemeSummary {
    /// Scheme.
    pub scheme: Scheme,
    /// Minimum slowdown across all cells.
    pub min: f64,
    /// Average slowdown.
    pub avg: f64,
    /// Maximum slowdown.
    pub max: f64,
}

/// Compute min/avg/max slowdown (vs NOED at equal issue width) per
/// ED scheme over the whole grid.
pub fn summarize(table: &PerfTable) -> Vec<SchemeSummary> {
    let mut out = Vec::new();
    for scheme in [Scheme::Sced, Scheme::Dced, Scheme::Casted] {
        let mut vals = Vec::new();
        for p in table.points.iter().filter(|p| p.scheme == scheme) {
            if let Some(s) = table.slowdown(&p.benchmark, scheme, p.issue, p.delay) {
                vals.push(s);
            }
        }
        if vals.is_empty() {
            continue;
        }
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0, f64::max);
        let avg = vals.iter().sum::<f64>() / vals.len() as f64;
        out.push(SchemeSummary {
            scheme,
            min,
            avg,
            max,
        });
    }
    out
}

/// CASTED's gain over the best fixed scheme per cell:
/// `best(SCED, DCED) / CASTED - 1`, in percent. Returns
/// `(best_gain_pct, worst_gap_pct, per-cell rows)`; positive numbers
/// mean CASTED is faster than the best non-adaptive scheme.
pub fn casted_vs_best_fixed(table: &PerfTable) -> (f64, f64, Vec<(String, usize, u32, f64)>) {
    let mut rows = Vec::new();
    let mut best_gain = f64::NEG_INFINITY;
    let mut worst_gap = f64::INFINITY;
    for p in table.points.iter().filter(|p| p.scheme == Scheme::Casted) {
        let (b, i, d) = (&p.benchmark, p.issue, p.delay);
        let (Some(sced), Some(dced)) = (
            table.get(b, Scheme::Sced, i, d).map(|x| x.cycles),
            table.get(b, Scheme::Dced, i, d).map(|x| x.cycles),
        ) else {
            continue;
        };
        let best_fixed = sced.min(dced) as f64;
        let gain = (best_fixed / p.cycles as f64 - 1.0) * 100.0;
        best_gain = best_gain.max(gain);
        worst_gap = worst_gap.min(gain);
        rows.push((b.clone(), i, d, gain));
    }
    (best_gain, worst_gap, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        Workload {
            name: "tiny",
            suite: casted_workloads::Suite::MediaBench2,
            source: format!(
                "{}\nfn main() {{ var s: int = 0; for i in 0..40 {{ s = s + clip(i * 3, 0, 64); }} out(s); }}",
                casted_workloads::PRELUDE
            ),
        }
    }

    #[test]
    fn perf_sweep_produces_dense_grid() {
        let spec = GridSpec::quick();
        let table = perf_sweep(&[tiny_workload()], &spec);
        // 4 schemes x 2 issues x 2 delays = 16 dense cells.
        assert_eq!(table.points.len(), 16);
        for &scheme in &spec.schemes {
            for &i in &spec.issues {
                for &d in &spec.delays {
                    assert!(table.get("tiny", scheme, i, d).is_some());
                }
            }
        }
    }

    #[test]
    fn slowdowns_are_at_least_one_for_ed_schemes() {
        let table = perf_sweep(&[tiny_workload()], &GridSpec::quick());
        for p in &table.points {
            if p.scheme != Scheme::Noed {
                let s = table
                    .slowdown(&p.benchmark, p.scheme, p.issue, p.delay)
                    .unwrap();
                assert!(s >= 1.0, "{:?} slowdown {} < 1", p.scheme, s);
            }
        }
    }

    #[test]
    fn noed_is_delay_insensitive() {
        let table = perf_sweep(&[tiny_workload()], &GridSpec::quick());
        let a = table.get("tiny", Scheme::Noed, 1, 1).unwrap().cycles;
        let b = table.get("tiny", Scheme::Noed, 1, 3).unwrap().cycles;
        assert_eq!(a, b);
    }

    #[test]
    fn summary_covers_three_schemes() {
        let table = perf_sweep(&[tiny_workload()], &GridSpec::quick());
        let sums = summarize(&table);
        assert_eq!(sums.len(), 3);
        for s in sums {
            assert!(s.min <= s.avg && s.avg <= s.max);
            assert!(s.min >= 1.0);
        }
    }

    #[test]
    fn casted_within_tolerance_of_best_fixed() {
        let table = perf_sweep(&[tiny_workload()], &GridSpec::quick());
        let (_best, worst, rows) = casted_vs_best_fixed(&table);
        assert_eq!(rows.len(), 4); // 2 issues x 2 delays
        // Adaptive placement should never be drastically worse than
        // the best fixed placement (paper: "at least as good ... in
        // the majority of cases").
        assert!(worst > -25.0, "CASTED loses {worst}% somewhere");
    }

    #[test]
    fn indexed_lookup_matches_linear_scan_fallback() {
        let table = perf_sweep(&[tiny_workload()], &GridSpec::quick());
        // Rebuild the same table by pushing directly to `points`,
        // bypassing the index, so `get` takes the scan fallback.
        let mut pushed = PerfTable::default();
        for p in &table.points {
            pushed.points.push(p.clone());
        }
        for p in &table.points {
            let a = table.get(&p.benchmark, p.scheme, p.issue, p.delay).unwrap();
            let b = pushed.get(&p.benchmark, p.scheme, p.issue, p.delay).unwrap();
            assert_eq!(a.cycles, b.cycles);
        }
        assert_eq!(table.noed_cycles("tiny", 1), pushed.noed_cycles("tiny", 1));
        assert!(table.noed_cycles("tiny", 1).is_some());
        assert!(table.get("tiny", Scheme::Noed, 9, 9).is_none());
        assert!(table.get("absent", Scheme::Noed, 1, 1).is_none());
    }

    /// The fallback must agree with the indexed path on a table that
    /// has **no NOED baseline at all** — the case where `noed_cycles`
    /// and `slowdown` must return `None` on both paths rather than
    /// panic or disagree (e.g. a partial sweep that measured only the
    /// protected schemes).
    #[test]
    fn fallback_agrees_on_table_with_missing_noed_baseline() {
        let point = |scheme, issue, delay, cycles| PerfPoint {
            benchmark: "tiny".into(),
            scheme,
            issue,
            delay,
            cycles,
            dyn_insns: cycles,
            spilled: 0,
            code_growth: 2.0,
            occupancy: vec![1, 1],
        };
        let pts = [
            point(Scheme::Sced, 1, 1, 300),
            point(Scheme::Dced, 1, 1, 250),
            point(Scheme::Casted, 1, 1, 220),
            point(Scheme::Casted, 2, 1, 150),
        ];
        // Indexed table (built through add_point)…
        let mut indexed = PerfTable::default();
        for p in &pts {
            indexed.add_point(p.clone());
        }
        assert_eq!(indexed.index.len(), indexed.points.len());
        // …and the same points pushed raw, forcing the scan fallback.
        let mut scanned = PerfTable::default();
        scanned.points.extend(pts.iter().cloned());
        assert_ne!(scanned.index.len(), scanned.points.len());

        for p in &pts {
            let a = indexed.get(&p.benchmark, p.scheme, p.issue, p.delay);
            let b = scanned.get(&p.benchmark, p.scheme, p.issue, p.delay);
            assert_eq!(a.map(|p| p.cycles), b.map(|p| p.cycles));
            assert_eq!(a.map(|p| p.cycles), Some(p.cycles));
        }
        // No NOED points ⇒ no baseline and no slowdown, on either path.
        for table in [&indexed, &scanned] {
            assert_eq!(table.noed_cycles("tiny", 1), None);
            assert_eq!(table.slowdown("tiny", Scheme::Casted, 1, 1), None);
            assert_eq!(table.get("tiny", Scheme::Noed, 1, 1).map(|p| p.cycles), None);
        }
        // Fig. 8-style scaling needs no NOED baseline and must still
        // work on both paths.
        assert_eq!(
            indexed.scaling("tiny", Scheme::Casted, 1, 2),
            scanned.scaling("tiny", Scheme::Casted, 1, 2)
        );
        assert_eq!(indexed.scaling("tiny", Scheme::Casted, 1, 2), Some(220.0 / 150.0));
    }

    #[test]
    fn coverage_sweep_engines_agree() {
        let spec = GridSpec {
            issues: vec![2],
            delays: vec![2],
            schemes: vec![Scheme::Casted],
            clusters: vec![2],
        };
        let campaign = CampaignConfig {
            trials: 30,
            ..Default::default()
        };
        let a = coverage_sweep_with(&[tiny_workload()], &spec, &campaign, Engine::Reference);
        let b = coverage_sweep_with(&[tiny_workload()], &spec, &campaign, Engine::Checkpointed);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tally, y.tally, "{} engines disagree", x.benchmark);
        }
    }

    #[test]
    fn coverage_sweep_runs_small_campaign() {
        let spec = GridSpec {
            issues: vec![2],
            delays: vec![2],
            schemes: vec![Scheme::Noed, Scheme::Casted],
            clusters: vec![2],
        };
        let campaign = CampaignConfig {
            trials: 20,
            ..Default::default()
        };
        let pts = coverage_sweep(&[tiny_workload()], &spec, &campaign);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert_eq!(p.tally.total(), 20);
        }
        // The protected scheme must detect at least occasionally what
        // the unprotected one cannot detect at all.
        let noed = pts.iter().find(|p| p.scheme == Scheme::Noed).unwrap();
        assert_eq!(noed.tally.count(casted_faults::Outcome::Detected), 0);
    }
}
