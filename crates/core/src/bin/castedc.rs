//! `castedc` — command-line driver for the CASTED toolchain.
//!
//! ```text
//! castedc ir <file.mc>                      dump the compiled IR
//! castedc build <file.mc> [opts]            compile + pass statistics
//! castedc run <file.mc> [opts]              simulate and print output
//! castedc schedule <file.mc> [opts]         print the VLIW schedules
//! castedc inject <file.mc> [opts]           Monte-Carlo fault campaign
//! castedc trace <file.mc> [opts]            first 200 issued instructions
//!
//! options:
//!   --scheme noed|sced|dced|casted|tmred|rbed
//!                                    (default casted; case-insensitive,
//!                                    aliases none|single|dual|adaptive|
//!                                    tmr|replay accepted)
//!   --issue N                        issue width per cluster (default 2)
//!   --delay N                        inter-cluster delay (default 2)
//!   --clusters N                     cluster count (default 2)
//!   --trials N                       injection trials (default 300)
//!   --seed N                         campaign seed
//!   --fault-model single|burst2|burst4
//!                                    bits flipped per strike (default
//!                                    single; bursts hit adjacent bits)
//!   --incremental                    inject through the section cache
//!                                    (compositional campaign; same
//!                                    tally bytes as a cold run)
//!   --section-cache DIR              on-disk section store for
//!                                    --incremental (default
//!                                    .casted-sections)
//!   --artifact-cache DIR             memoize the compile through the
//!                                    staged artifact store: a repeat
//!                                    build restarts at the first
//!                                    stage whose input changed
//!                                    (docs/PIPELINE.md)
//!   --metrics FILE                   write full metrics JSON on exit
//!   --metrics-counters FILE          write the deterministic
//!                                    counter-only snapshot on exit
//! ```

use std::process::ExitCode;

use casted::ir::MachineConfig;
use casted::Scheme;
use casted_faults::{Campaign, Runner};
use casted_util::store::ArtifactStore;

struct Args {
    cmd: String,
    file: String,
    scheme: Scheme,
    issue: usize,
    delay: u32,
    clusters: usize,
    trials: usize,
    seed: u64,
    flip: casted_faults::FlipModel,
    incremental: bool,
    section_cache: String,
    artifact_cache: Option<String>,
    metrics: Option<String>,
    metrics_counters: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: castedc <ir|build|run|schedule|inject> <file.mc> \
         [--scheme noed|sced|dced|casted|tmred|rbed] [--issue N] [--delay N] [--clusters N] \
         [--trials N] [--seed N] [--fault-model single|burst2|burst4]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().ok_or_else(usage)?;
    let file = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        cmd,
        file,
        scheme: Scheme::Casted,
        issue: 2,
        delay: 2,
        clusters: 2,
        trials: 300,
        seed: 0xCA57ED,
        flip: casted_faults::FlipModel::Single,
        incremental: false,
        section_cache: ".casted-sections".to_string(),
        artifact_cache: None,
        metrics: None,
        metrics_counters: None,
    };
    while let Some(a) = argv.next() {
        let mut val = || argv.next().ok_or_else(usage);
        match a.as_str() {
            "--scheme" => {
                // Registry-backed: case-insensitive, accepts aliases.
                args.scheme = match Scheme::parse(&val()?) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{e}");
                        return Err(ExitCode::from(2));
                    }
                };
            }
            "--issue" => args.issue = val()?.parse().map_err(|_| usage())?,
            "--delay" => args.delay = val()?.parse().map_err(|_| usage())?,
            "--clusters" => args.clusters = val()?.parse().map_err(|_| usage())?,
            "--trials" => args.trials = val()?.parse().map_err(|_| usage())?,
            "--seed" => args.seed = val()?.parse().map_err(|_| usage())?,
            "--fault-model" => {
                let v = val()?;
                args.flip = match casted_faults::FlipModel::parse(&v) {
                    Some(m) => m,
                    None => {
                        eprintln!(
                            "unknown fault model {v:?} (accepted: {})",
                            casted_faults::FlipModel::ACCEPTED
                        );
                        return Err(ExitCode::from(2));
                    }
                };
            }
            "--incremental" => args.incremental = true,
            "--section-cache" => args.section_cache = val()?,
            "--artifact-cache" => args.artifact_cache = Some(val()?),
            "--metrics" => args.metrics = Some(val()?),
            "--metrics-counters" => args.metrics_counters = Some(val()?),
            other => {
                eprintln!("unknown option {other:?}");
                return Err(ExitCode::from(2));
            }
        }
    }
    if args.metrics.is_some() || args.metrics_counters.is_some() {
        casted::obs::set_enabled(true);
    }
    Ok(args)
}

/// Write the requested metrics artifacts (no-op without the flags).
fn write_metrics(args: &Args) {
    if let Some(path) = &args.metrics {
        if let Err(e) = std::fs::write(path, casted::obs::export_json()) {
            eprintln!("castedc: cannot write {path}: {e}");
        }
    }
    if let Some(path) = &args.metrics_counters {
        if let Err(e) = std::fs::write(path, casted::obs::snapshot_json()) {
            eprintln!("castedc: cannot write {path}: {e}");
        }
    }
}

/// Exit 1 naming the bound when a fault-free run did not halt within
/// it (`run` and `trace` simulate under `DEFAULT_MAX_CYCLES`), after
/// writing the metrics the run moved.
fn refuse_timeout(args: &Args, r: &casted::SimResult) -> Option<ExitCode> {
    (r.stop == casted::ir::interp::StopReason::Timeout).then(|| {
        eprintln!(
            "castedc: the program did not halt within {} cycles",
            casted_sim::DEFAULT_MAX_CYCLES
        );
        write_metrics(args);
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(c) => return c,
    };
    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("castedc: cannot read {}: {e}", args.file);
            return ExitCode::from(1);
        }
    };
    // The module is named by the file stem, not the path: the name is
    // part of the encoded module, so the same source under two paths
    // then shares every stage artifact.
    let name = std::path::Path::new(&args.file)
        .file_stem()
        .map_or(args.file.clone(), |s| s.to_string_lossy().into_owned());
    let pipeline = match &args.artifact_cache {
        Some(dir) => match casted::stages::ArtifactPipeline::open(std::path::Path::new(dir)) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("castedc: cannot open artifact cache {dir}: {e}");
                return ExitCode::from(1);
            }
        },
        None => None,
    };
    let report_diags = |diags: Vec<casted::frontend::Diag>| {
        for d in diags {
            eprintln!("{}: {d}", args.file);
        }
        ExitCode::from(1)
    };

    if args.cmd == "ir" {
        let module = match &pipeline {
            Some(p) => {
                let mut stats = casted::passes::stages::StageStats::default();
                match p.compile(&name, &source, &mut stats) {
                    Ok((m, _digest)) => m,
                    Err(casted::stages::StagedError::Frontend(diags)) => return report_diags(diags),
                    Err(casted::stages::StagedError::Backend(e)) => {
                        eprintln!("castedc: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            None => match casted::compile(&name, &source) {
                Ok(m) => m,
                Err(diags) => return report_diags(diags),
            },
        };
        print!("{module}");
        write_metrics(&args);
        return ExitCode::SUCCESS;
    }

    let mut config = MachineConfig::itanium2_like(args.issue, args.delay);
    config.clusters = args.clusters;
    let prep = match &pipeline {
        Some(p) => match p.prepare(&name, &source, args.scheme, &config) {
            Ok((prep, _stats)) => prep,
            Err(casted::stages::StagedError::Frontend(diags)) => return report_diags(diags),
            Err(casted::stages::StagedError::Backend(e)) => {
                eprintln!("castedc: back-end failed: {e}");
                return ExitCode::from(1);
            }
        },
        None => {
            let module = match casted::compile(&name, &source) {
                Ok(m) => m,
                Err(diags) => return report_diags(diags),
            };
            match casted::build(&module, args.scheme, &config) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("castedc: back-end failed: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    };

    match args.cmd.as_str() {
        "build" => {
            println!("scheme:        {}", args.scheme.name());
            println!("machine:       issue {} x delay {}", args.issue, args.delay);
            let f = prep.sp.module.entry_fn();
            println!("blocks:        {}", f.blocks.len());
            println!("instructions:  {}", f.static_size());
            if let Some(st) = prep.ed_stats {
                println!("replicated:    {}", st.replicated);
                println!("checks:        {}", st.checks);
                println!("iso copies:    {}", st.isolation_copies);
                println!("code growth:   {:.2}x", st.growth());
            }
            println!("spilled regs:  {}", prep.spilled);
            println!("occupancy:     {:?}", prep.sp.cluster_occupancy());
            let peak = &prep.phys.peak;
            println!(
                "reg peaks:     c0 gp{}/fp{}/pr{}  c1 gp{}/fp{}/pr{}",
                peak[0][0], peak[0][1], peak[0][2], peak[1][0], peak[1][1], peak[1][2]
            );
        }
        "run" => {
            let r = casted::measure(&prep);
            for v in &r.stream {
                match v {
                    casted::ir::interp::OutVal::Int(x) => println!("{x}"),
                    casted::ir::interp::OutVal::Float(x) => println!("{x}"),
                }
            }
            eprintln!("-- stop:   {:?}", r.stop);
            eprintln!("-- cycles: {}", r.stats.cycles);
            eprintln!("-- insns:  {} (ipc {:.2})", r.stats.dyn_insns, r.stats.ipc());
            eprintln!(
                "-- stalls: {} | cross-cluster reads: {} | L1 miss {:.1}%",
                r.stats.stall_cycles,
                r.stats.cross_reads,
                100.0 * r.stats.cache.l1_miss_ratio()
            );
            if let Some(code) = refuse_timeout(&args, &r) {
                return code;
            }
        }
        "schedule" => {
            let f = prep.sp.module.entry_fn();
            for (bid, _) in f.iter_blocks() {
                print!("{}", prep.sp.render_block(bid));
                println!();
            }
        }
        "trace" => {
            let r = casted_sim::simulate(
                &prep.sp,
                &casted_sim::SimOptions {
                    max_cycles: casted_sim::DEFAULT_MAX_CYCLES,
                    trace_limit: 200,
                    ..casted_sim::SimOptions::default()
                },
            );
            let f = prep.sp.module.entry_fn();
            println!("cycle  blk  cl  stall  instruction");
            for e in &r.trace {
                println!(
                    "{:>5} {:>4} {:>3} {:>6}  {}",
                    e.cycle,
                    e.block.0,
                    e.cluster.index(),
                    e.stalled,
                    casted::ir::print::format_insn(f, f.insn(e.insn)),
                );
            }
            eprintln!("-- ({} of {} dynamic instructions)", r.trace.len(), r.stats.dyn_insns);
            if let Some(code) = refuse_timeout(&args, &r) {
                return code;
            }
        }
        "inject" => {
            let cfg = casted_faults::CampaignConfig {
                trials: args.trials,
                seed: args.seed,
                flip: args.flip,
                replay_detect: args.scheme.replay_detect(),
                ..Default::default()
            };
            let dir = std::path::Path::new(&args.section_cache);
            let store = match args.incremental.then(|| ArtifactStore::open(dir)).transpose() {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("castedc: cannot open section cache {}: {e}", args.section_cache);
                    return ExitCode::from(1);
                }
            };
            let runner = store.as_ref().map_or_else(Runner::default, Runner::Sections);
            let mut campaign = Campaign::new(&prep.sp, cfg).on(runner);
            let r = match casted_faults::run(&mut campaign) {
                Ok(r) => r,
                Err(stop) => {
                    eprintln!("castedc: {}", campaign.refusal(&stop));
                    write_metrics(&args);
                    return ExitCode::from(1);
                }
            };
            if args.incremental {
                let s = r.engine.sections;
                eprintln!(
                    "-- sections: {} total, {} hit, {} miss, {} trials recombined",
                    s.total, s.hit, s.miss, s.recombined
                );
            }
            println!(
                "{} trials into {} ({} @ issue {} delay {}):",
                args.trials,
                args.file,
                args.scheme.name(),
                args.issue,
                args.delay
            );
            for o in casted_faults::Outcome::ALL {
                println!(
                    "  {:<12} {:>5}  ({:5.1}%)",
                    o.name(),
                    r.tally.count(o),
                    100.0 * r.tally.fraction(o)
                );
            }
        }
        other => {
            eprintln!("unknown command {other:?}");
            return usage();
        }
    }
    write_metrics(&args);
    ExitCode::SUCCESS
}
