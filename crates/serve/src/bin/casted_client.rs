//! `casted-client` — command-line client for `casted-serve`.
//!
//! ```text
//! casted-client --addr HOST:PORT <command> [options]
//!
//! commands:
//!   ping                                  liveness probe
//!   compile  --file F | --source S        scheduled-program statistics
//!   simulate --file F | --source S        fault-free simulation summary
//!   inject   --file F | --source S        Monte-Carlo fault campaign
//!   counters                              server counter snapshot
//!   shutdown                              graceful drain-then-exit
//!   bench    --file F | --source S        serving benchmark (spawns its own server)
//!
//! shared job options:  --scheme noed|sced|dced|casted|tmred|rbed  --issue N  --delay N
//! simulate option:     --max-cycles N
//! inject options:      --trials N  --seed N  --engine reference|checkpointed
//!                      --stream  --every N  --cancel-after N
//! bench options:       --requests N (per conn per sample)  --conns N
//!                      --samples N  --out PATH
//! ```
//!
//! `inject --stream` uses the streaming protocol extension: the server
//! emits an incremental tally every `--every` trials (server default
//! if omitted) and the final frame is byte-identical to the
//! non-streaming reply. `--cancel-after N` sends `Cancel` once `N`
//! trials are done; the campaign stops at the next chunk boundary and
//! the partial tally is printed.
//!
//! `bench` needs no `--addr`: it spawns its own `casted-serve` next to
//! the current executable, then measures cached (cache-hit) and cold
//! (cache-miss) throughput over `--samples` interleaved rounds
//! (median/MAD), plus the staged compile pipeline cold vs warm.
//! Results land in `BENCH_serve.json` at the workspace root.

use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use casted::service_api::JobSpec;
use casted::Scheme;
use casted_faults::Engine;
use casted_serve::client::Client;
use casted_serve::protocol::{encode_request, Request, Response};
use casted_util::bench::median_mad;

fn usage() -> ! {
    eprintln!(
        "usage: casted-client --addr HOST:PORT \
         <ping|compile|simulate|inject|counters|shutdown|bench> [options]\n\
         job options: --file F | --source S  --scheme noed|sced|dced|casted|tmred|rbed  --issue N  --delay N\n\
         simulate: --max-cycles N\n\
         inject: --trials N --seed N --engine reference|checkpointed\n\
         \x20       --stream --every N --cancel-after N\n\
         bench: --requests N --conns N --samples N --out PATH (no --addr; spawns its own server)"
    );
    std::process::exit(2);
}

fn parse_scheme(s: &str) -> Scheme {
    // Registry-backed parse: case-insensitive, accepts aliases.
    Scheme::parse(s).unwrap_or_else(|e| {
        eprintln!("casted-client: {e}");
        usage();
    })
}

struct Opts {
    addr: String,
    cmd: String,
    spec: JobSpec,
    have_source: bool,
    max_cycles: u64,
    trials: u64,
    seed: u64,
    engine: Engine,
    stream: bool,
    every: u64,
    cancel_after: Option<u64>,
    requests: u64,
    conns: usize,
    samples: usize,
    out: String,
}

fn parse_args() -> Opts {
    let mut o = Opts {
        addr: String::new(),
        cmd: String::new(),
        spec: JobSpec {
            source: String::new(),
            scheme: Scheme::Casted,
            issue: 2,
            delay: 2,
        },
        have_source: false,
        max_cycles: u64::MAX,
        trials: 100,
        seed: 0xCA57ED,
        engine: Engine::default(),
        stream: false,
        every: 0,
        cancel_after: None,
        requests: 400,
        conns: 16,
        samples: 5,
        out: format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")),
    };
    let mut args = std::env::args().skip(1);
    let need = |flag: &str, v: Option<String>| -> String {
        v.unwrap_or_else(|| {
            eprintln!("casted-client: {flag} needs a value");
            usage();
        })
    };
    // Decimal or 0x-prefixed hex, so seeds copied from REPLAY tokens
    // and docs (`--seed 0xCA57ED`) work as-is.
    let parse_num = |flag: &str, v: String| -> u64 {
        let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        };
        parsed.unwrap_or_else(|| {
            eprintln!("casted-client: bad value {v:?} for {flag}");
            usage();
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => o.addr = need("--addr", args.next()),
            "--file" => {
                let path = need("--file", args.next());
                o.spec.source = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("casted-client: cannot read {path}: {e}");
                    std::process::exit(2);
                });
                o.have_source = true;
            }
            "--source" => {
                o.spec.source = need("--source", args.next());
                o.have_source = true;
            }
            "--scheme" => o.spec.scheme = parse_scheme(&need("--scheme", args.next())),
            "--issue" => o.spec.issue = parse_num("--issue", need("--issue", args.next())) as usize,
            "--delay" => o.spec.delay = parse_num("--delay", need("--delay", args.next())) as u32,
            "--max-cycles" => o.max_cycles = parse_num("--max-cycles", need("--max-cycles", args.next())),
            "--trials" => o.trials = parse_num("--trials", need("--trials", args.next())),
            "--seed" => o.seed = parse_num("--seed", need("--seed", args.next())),
            "--engine" => {
                let v = need("--engine", args.next());
                o.engine = Engine::parse(&v).unwrap_or_else(|e| {
                    eprintln!("casted-client: {e}");
                    usage();
                });
            }
            "--stream" => o.stream = true,
            "--every" => o.every = parse_num("--every", need("--every", args.next())),
            "--cancel-after" => {
                o.cancel_after =
                    Some(parse_num("--cancel-after", need("--cancel-after", args.next())))
            }
            "--requests" => o.requests = parse_num("--requests", need("--requests", args.next())),
            "--conns" => o.conns = parse_num("--conns", need("--conns", args.next())) as usize,
            "--samples" => o.samples = parse_num("--samples", need("--samples", args.next())) as usize,
            "--out" => o.out = need("--out", args.next()),
            "--help" | "-h" => usage(),
            cmd if o.cmd.is_empty() && !cmd.starts_with('-') => o.cmd = cmd.to_string(),
            other => {
                eprintln!("casted-client: unknown argument {other}");
                usage();
            }
        }
    }
    if o.cmd.is_empty() || (o.addr.is_empty() && o.cmd != "bench") {
        eprintln!("casted-client: --addr and a command are required (bench needs no --addr)");
        usage();
    }
    o
}

fn print_tally(trials: u64, counts: &[u64; 6]) {
    println!("trials: {trials}");
    let labels = [
        "benign",
        "detected",
        "exception",
        "data_corrupt",
        "timeout",
        "corrected",
    ];
    for (label, count) in labels.iter().zip(counts.iter()) {
        println!("{label}: {count}");
    }
}

fn print_response(resp: &Response) -> ExitCode {
    match resp {
        Response::Pong => println!("pong"),
        Response::Compiled(c) => {
            println!("bundles: {}", c.bundles);
            println!("nop_slots: {}", c.nop_slots);
            println!("cross_cluster_edges: {}", c.cross_cluster_edges);
            println!("spilled: {}", c.spilled);
            println!("code_growth_permille: {}", c.code_growth_permille);
            let occ: Vec<String> = c.occupancy.iter().map(|n| n.to_string()).collect();
            println!("occupancy: [{}]", occ.join(", "));
        }
        Response::Simulated(s) => {
            println!("cycles: {}", s.cycles);
            println!("dyn_insns: {}", s.dyn_insns);
            println!("bundles: {}", s.bundles);
            println!("stall_cycles: {}", s.stall_cycles);
            println!("cross_reads: {}", s.cross_reads);
            println!("exit_code: {}", s.exit_code);
            println!("stream_len: {}", s.stream_len);
            println!("stream_digest: {:#018x}", s.stream_digest);
        }
        Response::Injected(i) => {
            print_tally(i.trials, &i.counts);
            println!("golden_cycles: {}", i.golden_cycles);
            println!("golden_dyn: {}", i.golden_dyn);
        }
        Response::Busy => {
            println!("busy");
            return ExitCode::from(3);
        }
        Response::Throttled { retry_after_ms } => {
            println!("throttled; retry after {retry_after_ms} ms");
            return ExitCode::from(3);
        }
        Response::Expired => {
            println!("expired in queue");
            return ExitCode::from(3);
        }
        Response::Progress { done, counts } => {
            // Not terminal; only reachable through the streaming path,
            // which prints these itself. Kept for completeness.
            println!("progress: {done} {counts:?}");
        }
        Response::Cancelled { done, counts } => {
            println!("cancelled");
            print_tally(*done, counts);
        }
        Response::Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
        Response::Counters(json) => print!("{json}"),
        Response::ShuttingDown => println!("shutting down"),
    }
    ExitCode::SUCCESS
}

/// `inject --stream`: progress lines per chunk, optional cancellation.
fn inject_stream(o: &Opts) -> ExitCode {
    let req = Request::InjectStream {
        spec: o.spec.clone(),
        trials: o.trials,
        seed: o.seed,
        engine: o.engine,
        every: o.every,
    };
    let mut client = match Client::connect(&o.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("casted-client: connect to {} failed: {e}", o.addr);
            return ExitCode::FAILURE;
        }
    };
    let cancel_after = o.cancel_after;
    let terminal = client.request_stream(&req, &mut |done, counts| {
        println!(
            "progress: {done} trials  [benign {} detected {} exception {} data_corrupt {} timeout {}]",
            counts[0], counts[1], counts[2], counts[3], counts[4]
        );
        cancel_after.is_none_or(|n| done < n)
    });
    match terminal {
        Ok(resp) => print_response(&resp),
        Err(e) => {
            eprintln!("casted-client: stream failed: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// bench
// ---------------------------------------------------------------------------

struct StagedBench {
    iterations: u64,
    cold_elapsed: f64,
    warm_elapsed: f64,
    cold_per_sec: f64,
    warm_per_sec: f64,
}

/// Compile the bench workload through the content-addressed stage
/// pipeline, cold (fresh artifact store, every stage misses) and warm
/// (pre-warmed store, every stage hits). Both passes run the full
/// source→scheduled-program chain; the warm pass replays the stored
/// artifacts instead of re-running the front end, ED, schedule and
/// regalloc, which is where the speedup comes from.
fn bench_staged_compile(o: &Opts) -> Result<StagedBench, String> {
    use casted::ir::MachineConfig;
    use casted::stages::ArtifactPipeline;

    const ITERS: u64 = 32;
    let config = MachineConfig::itanium2_like(o.spec.issue, o.spec.delay);
    let base = std::env::temp_dir().join(format!(
        "casted-client-bench-{}-{:x}",
        std::process::id(),
        casted::util::hash::fnv1a(o.spec.source.as_bytes())
    ));
    let _ = std::fs::remove_dir_all(&base);

    // Cold: one fresh store per iteration, created before the clock
    // starts so directory setup is not billed to the compiler.
    let cold_dirs: Vec<std::path::PathBuf> =
        (0..ITERS).map(|i| base.join(format!("cold-{i}"))).collect();
    for d in &cold_dirs {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    let start = Instant::now();
    for d in &cold_dirs {
        let p = ArtifactPipeline::open(d).map_err(|e| e.to_string())?;
        p.prepare("bench", &o.spec.source, o.spec.scheme, &config)
            .map_err(|e| e.to_string())?;
    }
    let cold_elapsed = start.elapsed().as_secs_f64();

    // Warm: one store, populated by an untimed pass, then replayed.
    let warm_dir = base.join("warm");
    std::fs::create_dir_all(&warm_dir).map_err(|e| e.to_string())?;
    let p = ArtifactPipeline::open(&warm_dir).map_err(|e| e.to_string())?;
    p.prepare("bench", &o.spec.source, o.spec.scheme, &config)
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    for _ in 0..ITERS {
        let (_, stats) = p
            .prepare("bench", &o.spec.source, o.spec.scheme, &config)
            .map_err(|e| e.to_string())?;
        if stats.miss != 0 {
            return Err(format!("warm pass missed {} stages", stats.miss));
        }
    }
    let warm_elapsed = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&base);

    Ok(StagedBench {
        iterations: ITERS,
        cold_elapsed,
        warm_elapsed,
        cold_per_sec: ITERS as f64 / cold_elapsed.max(1e-9),
        warm_per_sec: ITERS as f64 / warm_elapsed.max(1e-9),
    })
}

/// The bench's private server, killed on drop so a failed run never
/// leaves an orphan process behind.
struct BenchServer {
    child: std::process::Child,
    addr: String,
}

impl BenchServer {
    /// Spawn `bin` on an ephemeral port and scrape
    /// `casted-serve listening on ADDR` from its first stdout line.
    fn spawn(bin: &Path) -> Result<BenchServer, String> {
        let mut child = std::process::Command::new(bin)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = std::io::BufReader::new(stdout).read_line(&mut line);
        let mut server = BenchServer {
            child,
            addr: String::new(),
        };
        if !matches!(read, Ok(n) if n > 0) {
            return Err("casted-serve exited before announcing its address".into());
        }
        server.addr = line
            .trim()
            .strip_prefix("casted-serve listening on ")
            .ok_or_else(|| format!("casted-serve printed unexpected banner {line:?}"))?
            .to_string();
        Ok(server)
    }

    /// Send `Shutdown`, then wait for the drain to exit 0.
    fn shutdown(mut self) -> Result<(), String> {
        let addr = &self.addr;
        let mut c = Client::connect(addr).map_err(|e| format!("shutdown {addr}: {e}"))?;
        match c.request(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            Ok(other) => return Err(format!("shutdown {addr}: unexpected {other:?}")),
            Err(e) => return Err(format!("shutdown {addr}: {e}")),
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("casted-serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for BenchServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Closed-loop load: `conns` connections each issue `per_conn`
/// copies of `payload`, next request only after the previous reply.
/// Returns requests/sec.
fn run_load(addr: &str, conns: usize, payload: &[u8], per_conn: u64) -> Result<f64, String> {
    let start = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(move || -> Result<(), String> {
                    let mut c =
                        Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    for _ in 0..per_conn {
                        let reply = c.request_raw(payload).map_err(|e| e.to_string())?;
                        // version byte + tag: anything but Simulated(3)
                        // means the server is misbehaving — fail loudly
                        // rather than benchmark an error path.
                        if reply.get(1) != Some(&3) {
                            return Err(format!(
                                "unexpected reply tag {:?} from {addr}",
                                reply.get(1)
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("bench thread panicked".into())))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    for r in results {
        r?;
    }
    Ok((conns as u64 * per_conn) as f64 / elapsed.max(1e-9))
}

/// Cache-miss load: every request carries a source string that has
/// never been seen (unique per sample/connection/iteration), so each
/// one runs the full compile+simulate path.
fn run_load_cold(
    addr: &str,
    conns: usize,
    per_conn: u64,
    sample: usize,
    max_cycles: u64,
) -> Result<f64, String> {
    let start = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|conn_id| {
                s.spawn(move || -> Result<(), String> {
                    let mut c =
                        Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    for k in 0..per_conn {
                        let uniq =
                            (sample as u64) * 1_000_000_000 + (conn_id as u64) * 1_000_000 + k;
                        let spec = JobSpec {
                            source: format!(
                                "fn main() {{ var s: int = {uniq}; \
                                 for i in 0..8 {{ s = s + i * i; }} out(s); }}"
                            ),
                            scheme: Scheme::Casted,
                            issue: 2,
                            delay: 2,
                        };
                        let req = Request::Simulate { spec, max_cycles };
                        let reply =
                            c.request_raw(&encode_request(&req)).map_err(|e| e.to_string())?;
                        if reply.get(1) != Some(&3) {
                            return Err(format!(
                                "unexpected cold reply tag {:?} from {addr}",
                                reply.get(1)
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("bench thread panicked".into())))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    for r in results {
        r?;
    }
    Ok((conns as u64 * per_conn) as f64 / elapsed.max(1e-9))
}

struct Row {
    samples: Vec<f64>,
}

impl Row {
    fn stats(&self) -> (f64, f64) {
        let mut xs = self.samples.clone();
        median_mad(&mut xs)
    }

    fn json(&self) -> String {
        let (med, mad) = self.stats();
        let samples: Vec<String> = self.samples.iter().map(|x| format!("{x:.0}")).collect();
        format!(
            "{{ \"median_rps\": {med:.0}, \"mad_rps\": {mad:.0}, \"samples_rps\": [{}] }}",
            samples.join(", ")
        )
    }
}

fn run_bench(o: &Opts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let serve_bin: PathBuf = exe
        .parent()
        .ok_or_else(|| "current_exe has no parent".to_string())?
        .join("casted-serve");
    if !serve_bin.exists() {
        return Err(format!(
            "{} not found; build the whole workspace first",
            serve_bin.display()
        ));
    }

    eprintln!("bench: spawning casted-serve...");
    let server = BenchServer::spawn(&serve_bin)?;
    let addr = server.addr.clone();

    // Cached row: one simulate request, warmed once.
    eprintln!("bench: warming the cache...");
    let cached_payload = encode_request(&Request::Simulate {
        spec: o.spec.clone(),
        max_cycles: o.max_cycles,
    });
    let mut c = Client::connect(&addr).map_err(|e| format!("warm {addr}: {e}"))?;
    let reply = c.request_raw(&cached_payload).map_err(|e| e.to_string())?;
    if reply.get(1) != Some(&3) {
        return Err(format!("warm-up rejected on {addr} (tag {:?})", reply.get(1)));
    }

    // Interleaved sample rounds: both rows are measured once per
    // round, so drift (thermal, page cache) spreads evenly instead of
    // biasing whichever row ran last.
    let samples = o.samples.max(5);
    let cold_per_conn = (o.requests / 25).max(8);
    let mut event_cached = Row { samples: vec![] };
    let mut event_cold = Row { samples: vec![] };
    for sample in 0..samples {
        eprintln!("bench: sample {}/{samples}", sample + 1);
        event_cached
            .samples
            .push(run_load(&addr, o.conns, &cached_payload, o.requests)?);
        event_cold.samples.push(run_load_cold(
            &addr,
            o.conns,
            cold_per_conn,
            sample,
            o.max_cycles,
        )?);
    }

    eprintln!("bench: shutting down...");
    server.shutdown()?;

    let staged = bench_staged_compile(o)?;

    println!("rows (median req/s over {samples} samples, {} conns):", o.conns);
    println!("  event_cached:   {:.0}", event_cached.stats().0);
    println!("  event_cold:     {:.0}", event_cold.stats().0);
    println!(
        "staged_compile cold: {:.0}/s  warm: {:.0}/s  ({:.1}x)",
        staged.cold_per_sec,
        staged.warm_per_sec,
        staged.warm_per_sec / staged.cold_per_sec
    );

    // Rates depend on the host; record its core count next to them.
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"workload\": \"simulate {} issue {} delay {}\",\n  \"host_cpus\": {host_cpus},\n  \"conns\": {},\n  \"samples\": {},\n  \"requests_per_conn\": {},\n  \"cold_requests_per_conn\": {},\n  \"rows\": {{\n    \"event_cached\": {},\n    \"event_cold\": {}\n  }},\n  \"staged_compile\": {{\n    \"iterations\": {},\n    \"cold_elapsed_s\": {:.4},\n    \"warm_elapsed_s\": {:.4},\n    \"cold_compiles_per_sec\": {:.0},\n    \"warm_compiles_per_sec\": {:.0},\n    \"warm_over_cold\": {:.2}\n  }}\n}}\n",
        o.spec.scheme.name().to_ascii_lowercase(),
        o.spec.issue,
        o.spec.delay,
        o.conns,
        samples,
        o.requests,
        cold_per_conn,
        event_cached.json(),
        event_cold.json(),
        staged.iterations,
        staged.cold_elapsed,
        staged.warm_elapsed,
        staged.cold_per_sec,
        staged.warm_per_sec,
        staged.warm_per_sec / staged.cold_per_sec,
    );
    std::fs::File::create(&o.out)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", o.out))?;
    println!("wrote {}", o.out);
    Ok(())
}

fn main() -> ExitCode {
    let o = parse_args();
    let needs_source = matches!(o.cmd.as_str(), "compile" | "simulate" | "inject" | "bench");
    if needs_source && !o.have_source {
        eprintln!("casted-client: {} needs --file or --source", o.cmd);
        usage();
    }

    if o.cmd == "bench" {
        return match run_bench(&o) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("casted-client: bench failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if o.cmd == "inject" && o.stream {
        return inject_stream(&o);
    }

    let req = match o.cmd.as_str() {
        "ping" => Request::Ping,
        "compile" => Request::Compile {
            spec: o.spec.clone(),
        },
        "simulate" => Request::Simulate {
            spec: o.spec.clone(),
            max_cycles: o.max_cycles,
        },
        "inject" => Request::Inject {
            spec: o.spec.clone(),
            trials: o.trials,
            seed: o.seed,
            engine: o.engine,
        },
        "counters" => Request::Counters,
        "shutdown" => Request::Shutdown,
        other => {
            eprintln!("casted-client: unknown command {other:?}");
            usage();
        }
    };

    let mut client = match Client::connect(&o.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("casted-client: connect to {} failed: {e}", o.addr);
            return ExitCode::FAILURE;
        }
    };
    match client.request(&req) {
        Ok(resp) => print_response(&resp),
        Err(e) => {
            eprintln!("casted-client: request failed: {e}");
            ExitCode::FAILURE
        }
    }
}
