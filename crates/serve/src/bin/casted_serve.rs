//! `casted-serve` — run the compile-and-simulate service.
//!
//! ```text
//! casted-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!              [--cache-bytes N] [--max-cycles N] [--max-trials N]
//!              [--quota-burst N] [--quota-refill N] [--queue-deadline-ms N]
//!              [--section-cache DIR] [--artifact-cache DIR]
//!              [--metrics] [--metrics-counters]
//! ```
//!
//! One epoll-driven event loop serves every connection; where the poll
//! backend is unavailable the server refuses to start.
//!
//! `--quota-burst` / `--quota-refill` enable per-client token-bucket
//! admission (burst capacity / refill per second); `--queue-deadline-ms`
//! drops jobs that waited longer than the deadline in the queue
//! (reply: `Expired`). All three are off by default — see
//! docs/SERVING.md.
//!
//! With `--section-cache DIR`, inject requests that miss the reply
//! cache run through the compositional section store in `DIR`
//! (partial hits: only changed program sections re-inject; replies
//! stay byte-identical — see docs/INCREMENTAL.md).
//!
//! With `--artifact-cache DIR`, the compile half of every miss runs
//! through the memoized stage pipeline in `DIR`: a request for a
//! known program under a new (issue, delay) pair reuses the cached
//! token/sema/IR/ED artifacts and re-runs only the schedule and
//! regalloc stages (see docs/PIPELINE.md).
//!
//! Binds loopback (`127.0.0.1:0` → ephemeral port) by default, prints
//! `casted-serve listening on ADDR`, and serves until a client sends
//! `Shutdown` — then drains the job queue, finishes in-flight replies
//! and exits 0. With `--metrics-counters` the deterministic counter
//! snapshot is printed to stdout after the drain; with `--metrics` the
//! full export (gauges + histograms) is printed instead.

use std::process::ExitCode;

use casted_serve::cache::CacheConfig;
use casted_serve::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: casted-serve [--addr HOST:PORT] [--workers N] [--queue N] \
         [--cache-bytes N] [--max-cycles N] [--max-trials N] \
         [--quota-burst N] [--quota-refill N] [--queue-deadline-ms N] \
         [--section-cache DIR] [--artifact-cache DIR] [--metrics] [--metrics-counters]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let Some(v) = v else {
        eprintln!("casted-serve: {flag} needs a value");
        usage();
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("casted-serve: bad value {v:?} for {flag}");
        usage();
    })
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut metrics = false;
    let mut metrics_counters = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = parse("--addr", args.next()),
            "--workers" => cfg.workers = parse("--workers", args.next()),
            "--queue" => cfg.queue_depth = parse("--queue", args.next()),
            "--quota-burst" => cfg.admission.quota_burst = parse("--quota-burst", args.next()),
            "--quota-refill" => {
                cfg.admission.quota_refill_per_sec = parse("--quota-refill", args.next())
            }
            "--queue-deadline-ms" => {
                cfg.admission.queue_deadline_ms = parse("--queue-deadline-ms", args.next())
            }
            "--cache-bytes" => {
                cfg.cache = CacheConfig {
                    byte_budget: parse("--cache-bytes", args.next()),
                }
            }
            "--max-cycles" => cfg.max_cycles = parse("--max-cycles", args.next()),
            "--max-trials" => cfg.max_trials = parse("--max-trials", args.next()),
            "--section-cache" => {
                cfg.section_cache =
                    Some(std::path::PathBuf::from(parse::<String>("--section-cache", args.next())))
            }
            "--artifact-cache" => {
                cfg.artifact_cache =
                    Some(std::path::PathBuf::from(parse::<String>("--artifact-cache", args.next())))
            }
            "--metrics" => metrics = true,
            "--metrics-counters" => metrics_counters = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("casted-serve: unknown flag {other}");
                usage();
            }
        }
    }

    if metrics || metrics_counters {
        casted_obs::set_enabled(true);
    }

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("casted-serve: start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The smoke tests and the bench harness scrape this line for the
    // ephemeral port; keep its shape stable.
    println!("casted-serve listening on {}", server.addr());

    server.wait();

    if metrics_counters {
        print!("{}", casted_obs::snapshot_json());
    } else if metrics {
        print!("{}", casted_obs::export_json());
    }
    ExitCode::SUCCESS
}
