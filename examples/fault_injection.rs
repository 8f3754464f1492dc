//! Fault-injection demo: run a Monte-Carlo campaign (paper §IV-C) on
//! one benchmark for all four schemes and print the outcome
//! distribution — a single-benchmark slice of the paper's Fig. 9.
//!
//! Run with `cargo run --release --example fault_injection [benchmark] [trials]`.

use casted::ir::MachineConfig;
use casted::Scheme;
use casted_faults::{run, Campaign, CampaignConfig, Outcome};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "h263dec".to_string());
    let trials: usize = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let w = casted_workloads::by_name(&name).expect("unknown benchmark");
    let module = w.compile().expect("compile");
    let config = MachineConfig::itanium2_like(2, 2);

    println!(
        "{trials} single-bit injections per scheme into {name} (issue 2, delay 2)\n"
    );
    println!(
        "{:8} {:>8} {:>9} {:>10} {:>12} {:>8}",
        "scheme", "Benign", "Detected", "Exception", "DataCorrupt", "Timeout"
    );
    for scheme in Scheme::ALL {
        let prep = casted::build(&module, scheme, &config).expect("build");
        let cfg = CampaignConfig {
            trials,
            ..Default::default()
        };
        let r = run(&mut Campaign::new(&prep.sp, cfg)).expect("benchmark halts");
        println!(
            "{:8} {:>7.1}% {:>8.1}% {:>9.1}% {:>11.1}% {:>7.1}%",
            scheme.name(),
            100.0 * r.tally.fraction(Outcome::Benign),
            100.0 * r.tally.fraction(Outcome::Detected),
            100.0 * r.tally.fraction(Outcome::Exception),
            100.0 * r.tally.fraction(Outcome::DataCorrupt),
            100.0 * r.tally.fraction(Outcome::Timeout),
        );
    }
    println!("\nNote: the residual DataCorrupt of the protected schemes comes from");
    println!("faults striking the inlined (unprotected) library code, as in the paper.");
}
