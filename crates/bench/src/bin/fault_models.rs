//! Extension experiment: the paper's instruction-output fault model vs
//! a register-file strike model.
//!
//! The paper injects into "the output registers of instructions" —
//! every fault lands on a freshly produced, almost-certainly-live
//! value. A register-file strike lands on a uniformly random
//! architectural register at a random time, so many faults hit dead or
//! dormant values and are masked; conversely, long-lived values
//! (loop-carried state) are exposed for their whole lifetime. Error
//! detection still catches what matters: corrupted values are compared
//! at the next check that reads them.

use casted::ir::MachineConfig;
use casted::Scheme;
use casted_faults::{run, Campaign, CampaignConfig, FaultModel, Outcome};

fn main() {
    let opts = casted_bench::parse_args();
    let names = if opts.quick {
        vec!["cjpeg", "181.mcf"]
    } else {
        vec!["cjpeg", "h263dec", "mpeg2dec", "h263enc", "175.vpr", "181.mcf", "197.parser"]
    };
    let cfg = MachineConfig::itanium2_like(2, 2);
    let trials = opts.trials.min(200);

    println!("CASTED under two fault models ({} trials each):\n", trials);
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9}",
        "", "out:ben", "out:det", "out:exc", "out:bad", "rf:ben", "rf:det", "rf:exc", "rf:bad"
    );
    for name in &names {
        let m = casted_workloads::by_name(name).unwrap().compile().unwrap();
        let prep = casted::build(&m, Scheme::Casted, &cfg).unwrap();
        let campaign = |model| {
            let camp = CampaignConfig { trials, model, ..Default::default() };
            run(&mut Campaign::new(&prep.sp, camp)).expect("kernel halts")
        };
        let out = campaign(FaultModel::InstructionOutput);
        let rf = campaign(FaultModel::RegisterFile);
        let pct = |t: &casted_faults::Tally, o| 100.0 * t.fraction(o);
        println!(
            "{:<12} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% | {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            name,
            pct(&out.tally, Outcome::Benign),
            pct(&out.tally, Outcome::Detected),
            pct(&out.tally, Outcome::Exception),
            pct(&out.tally, Outcome::DataCorrupt) + pct(&out.tally, Outcome::Timeout),
            pct(&rf.tally, Outcome::Benign),
            pct(&rf.tally, Outcome::Detected),
            pct(&rf.tally, Outcome::Exception),
            pct(&rf.tally, Outcome::DataCorrupt) + pct(&rf.tally, Outcome::Timeout),
        );
    }
    println!("\n(out = paper's instruction-output model; rf = register-file strike;");
    println!(" ben/det/exc/bad = Benign / Detected / Exception / Corrupt+Timeout.)");
    casted_bench::finish_metrics(&opts);
}
