//! §IV-A methodology validation: the paper turns off the late CSE/DCE
//! stages after the CASTED passes, citing (a) negligible performance
//! impact (0.3% average, 1.5% worst) and (b) the danger of the
//! optimizer removing the replicated code.
//!
//! This binary measures both halves on our stack:
//!
//! * Part A — late **DCE** (which is redundancy-safe: duplicates stay
//!   live through the checks) is applied after error detection; the
//!   cycle delta vs the normal pipeline bounds what disabling late
//!   optimization costs.
//! * Part B — late **CSE** is applied after error detection; local
//!   value numbering sees through the isolation copies, merges each
//!   duplicate with its original, and the fault-detection rate
//!   collapses — exactly why the paper (and SWIFT) must disable it.

use casted::ir::MachineConfig;
use casted::Scheme;
use casted_faults::{run, Campaign, CampaignConfig, Outcome};
use casted_passes::opt;
use casted_passes::pipeline::{prepare_custom, PrepareOptions};
use casted_passes::Placement;

fn main() {
    let opts = casted_bench::parse_args();
    let names = if opts.quick {
        vec!["cjpeg", "181.mcf"]
    } else {
        vec!["cjpeg", "h263dec", "mpeg2dec", "h263enc", "175.vpr", "181.mcf", "197.parser"]
    };
    let cfg = MachineConfig::itanium2_like(2, 2);
    let trials = opts.trials.min(150);

    println!("== Part A: cycle cost of *disabling* late DCE after the CASTED passes ==");
    println!("{:<12} {:>12} {:>12} {:>8}", "benchmark", "no late DCE", "late DCE", "cost");
    let mut costs = Vec::new();
    for name in &names {
        let base = casted_workloads::by_name(name).unwrap().compile().unwrap();

        // Normal pipeline: ED, no late optimization (the paper's setup).
        let mut m_off = base.clone();
        casted_passes::error_detection(&mut m_off);
        let off = prepare_custom(&m_off, Scheme::Casted, None, Placement::Adaptive, &cfg, &PrepareOptions::default()).unwrap();
        let c_off = casted::measure(&off).stats.cycles;

        // Hypothetical pipeline: ED then late DCE (safe w.r.t. redundancy).
        let mut m_on = base.clone();
        casted_passes::error_detection(&mut m_on);
        let removed = opt::dce(m_on.entry_fn_mut());
        let on = prepare_custom(&m_on, Scheme::Casted, None, Placement::Adaptive, &cfg, &PrepareOptions::default()).unwrap();
        let c_on = casted::measure(&on).stats.cycles;

        let cost = 100.0 * (c_off as f64 / c_on as f64 - 1.0);
        costs.push(cost);
        println!("{:<12} {:>12} {:>12} {:>7.2}%   ({} insns DCE'd)", name, c_off, c_on, cost, removed);
    }
    let avg = costs.iter().sum::<f64>() / costs.len() as f64;
    let max = costs.iter().cloned().fold(f64::MIN, f64::max);
    println!("average cost {avg:.2}% (paper: 0.3%), worst {max:.2}% (paper: 1.5%)\n");

    println!("== Part B: what late CSE after error detection does to coverage ==");
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12}",
        "benchmark", "det (off)", "det (CSE)", "corrupt(off)", "corrupt(CSE)"
    );
    for name in names.iter().take(if opts.quick { 2 } else { 4 }) {
        let base = casted_workloads::by_name(name).unwrap().compile().unwrap();

        let mut m_off = base.clone();
        casted_passes::error_detection(&mut m_off);
        let off = prepare_custom(&m_off, Scheme::Casted, None, Placement::Adaptive, &cfg, &PrepareOptions::default()).unwrap();

        let mut m_cse = base.clone();
        casted_passes::error_detection(&mut m_cse);
        opt::local_cse(m_cse.entry_fn_mut());
        opt::dce(m_cse.entry_fn_mut());
        let cse = prepare_custom(&m_cse, Scheme::Casted, None, Placement::Adaptive, &cfg, &PrepareOptions::default()).unwrap();

        let camp = CampaignConfig { trials, ..Default::default() };
        let r_off = run(&mut Campaign::new(&off.sp, camp.clone())).expect("kernel halts");
        let r_cse = run(&mut Campaign::new(&cse.sp, camp.clone())).expect("kernel halts");
        println!(
            "{:<12} {:>9.1}% {:>9.1}% {:>11.1}% {:>11.1}%",
            name,
            100.0 * r_off.tally.fraction(Outcome::Detected),
            100.0 * r_cse.tally.fraction(Outcome::Detected),
            100.0 * r_off.tally.fraction(Outcome::DataCorrupt),
            100.0 * r_cse.tally.fraction(Outcome::DataCorrupt),
        );
    }
    println!("\n(late CSE merges each duplicated computation — including duplicated");
    println!(" loads — with its original; faults striking the now-shared computation");
    println!(" evade the checks, so detection drops and silent corruption returns in");
    println!(" compute-dense code. This is why the paper, like SWIFT, disables the");
    println!(" post-CASTED optimization stages.)");
    casted_bench::finish_metrics(&opts);
}
