//! `perfbench` — the repository benchmark: three workloads timed end to
//! end with observability off, plus a traced run that times every layer
//! from the benchmark's own calls into it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload perf_grid|coverage_campaign|serve_mix \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --regenerate
//! ```
//!
//! The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). Every metric, its unit,
//! its layer and what it should move are listed in `perfbench/METRICS.md`.

mod coverage;
mod host;
mod perf_grid;
mod pinned;
mod report;
mod serve_mix;

use report::Report;

const USAGE: &str = "usage: perfbench --workload perf_grid|coverage_campaign|serve_mix \
--seed N --seconds S --trace 0|1\n       perfbench --regenerate";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

enum Command {
    Run(Args),
    Regenerate,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    if argv == ["--regenerate"] {
        return Ok(Command::Regenerate);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() {
    host::limit_cpus(2);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Regenerate) => {
            pinned::regenerate();
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::new(args.trace);
    match args.workload.as_str() {
        "perf_grid" => perf_grid::run(&args, &mut rep),
        "coverage_campaign" => coverage::run(&args, &mut rep),
        "serve_mix" => serve_mix::run(&args, &mut rep),
        other => {
            eprintln!("perfbench: unknown workload '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    }
    println!(
        "host: {} pool threads; workspace Rust lines (excluding perfbench/): {}",
        casted_util::pool::pool_threads(),
        host::rust_lines()
    );
    rep.finish();
}
