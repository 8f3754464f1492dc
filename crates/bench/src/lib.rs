//! # casted-bench — the experiment harness
//!
//! One binary per table and figure of the paper (see `DESIGN.md` for
//! the experiment index):
//!
//! | target    | reproduces |
//! |-----------|------------|
//! | `table1`  | Table I — processor configuration |
//! | `table2`  | Table II — benchmark programs |
//! | `table3`  | Table III — compiler-based ED scheme comparison |
//! | `fig2_3`  | Figs. 2/3 — motivating example schedules |
//! | `fig6_7`  | Figs. 6/7 — slowdown grid (issue 1–4 × delay 1–4) |
//! | `fig8`    | Fig. 8 — ILP scaling curves |
//! | `fig9`    | Fig. 9 — fault coverage, all benchmarks, issue 2 delay 2 |
//! | `fig10`   | Fig. 10 — h263dec fault coverage across all configs |
//! | `summary` | §IV-B headline numbers (slowdown ranges, CASTED vs best fixed) |
//! | `difftest`| — quality infrastructure: differential fuzz suite, failure replay/minimization, fixed corpus (see `docs/TESTING.md`) |
//!
//! Every binary accepts `--quick` (reduced grid/trials for smoke
//! runs), `--trials N` (fault campaigns), and `--out DIR` (also write
//! CSV files). The `benches/` directory holds Criterion benchmarks
//! over the compiler passes, the simulator, and scaled-down figure
//! pipelines.

use std::path::PathBuf;

/// Parsed command-line options shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Reduced grid / trial count for smoke runs.
    pub quick: bool,
    /// Monte-Carlo trials per campaign cell (paper: 300).
    pub trials: usize,
    /// Optional output directory for CSV artifacts.
    pub out: Option<PathBuf>,
    /// Write the full metrics JSON (counters + gauges + timers) here.
    pub metrics: Option<PathBuf>,
    /// Write the deterministic counter-only metrics snapshot here
    /// (byte-reproducible for seeded runs; what CI `cmp`s).
    pub metrics_counters: Option<PathBuf>,
    /// Fault-campaign engine (`--engine reference|checkpointed`).
    /// All produce byte-identical tallies; CI cross-checks them.
    pub engine: casted_faults::Engine,
    /// Run fault campaigns through the compositional section cache
    /// (`--incremental`); tallies stay byte-identical to the engines.
    pub incremental: bool,
    /// On-disk section store for `--incremental`
    /// (`--section-cache DIR`, default `.casted-sections`).
    pub section_cache: PathBuf,
    /// On-disk artifact store for the staged compile pipeline
    /// (`--artifact-cache DIR`); compile-heavy sweeps memoize their
    /// per-cell prepare through it (see `docs/PIPELINE.md`).
    pub artifact_cache: Option<PathBuf>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            quick: false,
            trials: 300,
            out: None,
            metrics: None,
            metrics_counters: None,
            engine: casted_faults::Engine::default(),
            incremental: false,
            section_cache: PathBuf::from(".casted-sections"),
            artifact_cache: None,
        }
    }
}

/// Parse `--quick`, `--trials N`, `--out DIR`, `--metrics FILE`,
/// `--metrics-counters FILE`, `--engine NAME`, `--incremental`,
/// `--section-cache DIR`, `--artifact-cache DIR` from
/// `std::env::args`.
/// Passing either metrics flag switches global metric recording on
/// for the run.
pub fn parse_args() -> RunOpts {
    let mut opts = RunOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                opts.quick = true;
                opts.trials = opts.trials.min(40);
            }
            "--trials" => {
                opts.trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--trials needs a number");
            }
            "--out" => {
                opts.out = Some(PathBuf::from(args.next().expect("--out needs a path")));
            }
            "--metrics" => {
                opts.metrics = Some(PathBuf::from(args.next().expect("--metrics needs a path")));
            }
            "--metrics-counters" => {
                opts.metrics_counters = Some(PathBuf::from(
                    args.next().expect("--metrics-counters needs a path"),
                ));
            }
            "--engine" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| panic!("--engine needs {}", casted_faults::Engine::ACCEPTED));
                opts.engine = casted_faults::Engine::parse(&name).unwrap_or_else(|e| panic!("{e}"));
            }
            "--incremental" => opts.incremental = true,
            "--section-cache" => {
                opts.section_cache =
                    PathBuf::from(args.next().expect("--section-cache needs a path"));
            }
            "--artifact-cache" => {
                opts.artifact_cache =
                    Some(PathBuf::from(args.next().expect("--artifact-cache needs a path")));
            }
            other => {
                eprintln!("warning: ignoring unknown argument {other:?}");
            }
        }
    }
    if opts.metrics.is_some() || opts.metrics_counters.is_some() {
        casted_obs::set_enabled(true);
    }
    opts
}

/// Write the metrics artifacts requested on the command line. Every
/// figure binary calls this once, as its last statement; without a
/// metrics flag it is a no-op.
pub fn finish_metrics(opts: &RunOpts) {
    if let Some(path) = &opts.metrics {
        std::fs::write(path, casted_obs::export_json()).expect("write --metrics file");
        println!("[wrote {}]", path.display());
    }
    if let Some(path) = &opts.metrics_counters {
        std::fs::write(path, casted_obs::snapshot_json()).expect("write --metrics-counters file");
        println!("[wrote {}]", path.display());
    }
}

/// Write `content` to `<out>/<name>` when an output directory was
/// requested.
pub fn maybe_write(opts: &RunOpts, name: &str, content: &str) {
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).expect("create out dir");
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write artifact");
        println!("[wrote {}]", path.display());
    }
}

/// The benchmark list used by the figure binaries; `--quick` keeps a
/// representative three.
pub fn benchmarks(opts: &RunOpts) -> Vec<casted_workloads::Workload> {
    let all = casted_workloads::all();
    if opts.quick {
        all.into_iter()
            .filter(|w| matches!(w.name, "cjpeg" | "h263enc" | "181.mcf"))
            .collect()
    } else {
        all
    }
}

/// Paper grid or quick grid.
pub fn grid(opts: &RunOpts) -> casted::experiments::GridSpec {
    if opts.quick {
        casted::experiments::GridSpec {
            issues: vec![1, 2],
            delays: vec![1, 3],
            schemes: casted::Scheme::ALL.to_vec(),
            clusters: vec![2, 4],
        }
    } else {
        casted::experiments::GridSpec::paper_full()
    }
}

/// Build the motivating-example module of the paper's Figs. 2/3: a
/// small dependent expression DAG feeding a store, exactly the shape
/// whose error-detection DFG the paper draws (original nodes, their
/// duplicates, and checks before the non-replicated store).
pub fn motivating_module() -> casted::ir::Module {
    use casted::ir::{FunctionBuilder, Module, Opcode, Operand};
    let mut m = Module::new("motivating");
    let (_, addr) = m.add_global("g", casted::ir::func::GlobalClass::Int, 4, vec![11, 22, 0, 0]);
    let mut b = FunctionBuilder::new("main");
    // A: load, B/C: independent uses of A, D: join, store D.
    let base = b.imm(addr);
    let a = b.load(base, 0);
    let bb = b.binop(Opcode::Mul, Operand::Reg(a), Operand::Imm(3));
    let c = b.binop(Opcode::Add, Operand::Reg(a), Operand::Imm(7));
    let d = b.binop(Opcode::Add, Operand::Reg(bb), Operand::Reg(c));
    b.store(base, 16, Operand::Reg(d));
    let chk = b.load(base, 16);
    b.out(Operand::Reg(chk));
    b.halt_imm(0);
    let id = m.add_function(b.finish());
    m.entry = Some(id);
    m
}
