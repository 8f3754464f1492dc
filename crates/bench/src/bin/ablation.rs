//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. **Check encoding**: the paper's `cmp.ne` + `br.detect` pair vs a
//!    fused single-slot `chk.ne` — how much of the ED overhead is the
//!    two-instruction encoding (and the sequential-check effect)?
//! 2. **Check mobility**: full adaptive BUG vs BUG with checks pinned
//!    to the redundant cluster — what is it worth that CASTED can
//!    migrate checks across cores?
//! 3. **Replication scope**: full SWIFT-style replication vs
//!    Shoestring-style selective replication — the performance /
//!    coverage trade-off the related work explores.

use casted::ir::MachineConfig;
use casted::Scheme;
use casted_faults::{run, Campaign, CampaignConfig, Outcome};
use casted_passes::errordetect::EdOptions;
use casted_passes::pipeline::{prepare_custom, PrepareOptions};
use casted_passes::Placement;

fn build_custom(
    module: &casted::ir::Module,
    ed: Option<EdOptions>,
    placement: Placement,
    cfg: &MachineConfig,
) -> casted::Prepared {
    prepare_custom(module, Scheme::Casted, ed, placement, cfg, &PrepareOptions::default())
        .expect("prepare")
}

fn main() {
    let opts = casted_bench::parse_args();
    let names = if opts.quick {
        vec!["cjpeg", "h263enc"]
    } else {
        vec!["cjpeg", "h263dec", "h263enc", "197.parser"]
    };
    let cfg = MachineConfig::itanium2_like(2, 2);

    println!("== Ablation 1: check encoding (pair vs fused), CASTED @ issue 2 delay 2 ==");
    println!("{:<12} {:>10} {:>10} {:>8}", "benchmark", "pair", "fused", "delta");
    for name in &names {
        let m = casted_workloads::by_name(name).unwrap().compile().unwrap();
        let pair = build_custom(&m, Some(EdOptions::default()), Placement::Adaptive, &cfg);
        let fused = build_custom(
            &m,
            Some(EdOptions { fused_checks: true, ..Default::default() }),
            Placement::Adaptive,
            &cfg,
        );
        let cp = casted::measure(&pair).stats.cycles;
        let cf = casted::measure(&fused).stats.cycles;
        println!(
            "{:<12} {:>10} {:>10} {:>7.1}%",
            name,
            cp,
            cf,
            100.0 * (cp as f64 / cf as f64 - 1.0)
        );
    }

    println!("\n== Ablation 2: check mobility (adaptive vs pinned-to-cluster-1 checks) ==");
    println!("{:<12} {:>6} {:>10} {:>10} {:>8}", "benchmark", "delay", "mobile", "pinned", "benefit");
    for name in &names {
        let m = casted_workloads::by_name(name).unwrap().compile().unwrap();
        for delay in [1u32, 4] {
            let cfg = MachineConfig::itanium2_like(2, delay);
            let mobile = build_custom(&m, Some(EdOptions::default()), Placement::Adaptive, &cfg);
            let pinned = build_custom(
                &m,
                Some(EdOptions::default()),
                Placement::AdaptivePinnedChecks,
                &cfg,
            );
            let cm = casted::measure(&mobile).stats.cycles;
            let cp = casted::measure(&pinned).stats.cycles;
            println!(
                "{:<12} {:>6} {:>10} {:>10} {:>7.1}%",
                name,
                delay,
                cm,
                cp,
                100.0 * (cp as f64 / cm as f64 - 1.0)
            );
        }
    }

    println!("\n== Ablation 3: replication scope (full vs selective), cycles + coverage ==");
    println!(
        "{:<12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "benchmark", "full cyc", "sel cyc", "full det", "sel det", "full bad", "sel bad"
    );
    let trials = opts.trials.min(120);
    for name in &names {
        let m = casted_workloads::by_name(name).unwrap().compile().unwrap();
        let full = build_custom(&m, Some(EdOptions::default()), Placement::Adaptive, &cfg);
        let sel = build_custom(
            &m,
            Some(EdOptions { selective: true, ..Default::default() }),
            Placement::Adaptive,
            &cfg,
        );
        let cfull = casted::measure(&full).stats.cycles;
        let csel = casted::measure(&sel).stats.cycles;
        let camp = CampaignConfig { trials, ..Default::default() };
        let rf = run(&mut Campaign::new(&full.sp, camp.clone())).expect("kernel halts");
        let rs = run(&mut Campaign::new(&sel.sp, camp.clone())).expect("kernel halts");
        println!(
            "{:<12} {:>10} {:>10} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            name,
            cfull,
            csel,
            100.0 * rf.tally.fraction(Outcome::Detected),
            100.0 * rs.tally.fraction(Outcome::Detected),
            100.0 * (rf.tally.fraction(Outcome::DataCorrupt) + rf.tally.fraction(Outcome::Timeout)),
            100.0 * (rs.tally.fraction(Outcome::DataCorrupt) + rs.tally.fraction(Outcome::Timeout)),
        );
    }
    println!("\n== Ablation 4: if-conversion (branch diamonds -> sel), CASTED @ issue 2 delay 2 ==");
    println!("{:<12} {:>10} {:>10} {:>8}", "benchmark", "plain", "if-conv", "benefit");
    for name in &names {
        let m = casted_workloads::by_name(name).unwrap().compile().unwrap();
        let plain = build_custom(&m, Some(EdOptions::default()), Placement::Adaptive, &cfg);
        let conv = prepare_custom(
            &m,
            Scheme::Casted,
            Some(EdOptions::default()),
            Placement::Adaptive,
            &cfg,
            &PrepareOptions {
                if_convert: true,
                ..Default::default()
            },
        )
        .expect("prepare");
        let cp = casted::measure(&plain).stats.cycles;
        let cc = casted::measure(&conv).stats.cycles;
        println!(
            "{:<12} {:>10} {:>10} {:>7.1}%",
            name,
            cp,
            cc,
            100.0 * (cp as f64 / cc as f64 - 1.0)
        );
    }

    println!("\n(expected: fused <= pair cycles; pinned >= mobile cycles; selective");
    println!(" faster than full but with more undetected-corruption; if-conversion");
    println!(" helps the branchy kernels by enlarging scheduling regions.)");
    casted_bench::finish_metrics(&opts);
}
