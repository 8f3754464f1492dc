//! # casted — Core-Adaptive Software Transient Error Detection
//!
//! A from-scratch Rust reproduction of *CASTED: Core-Adaptive Software
//! Transient Error Detection for Tightly Coupled Cores* (Mitropoulou,
//! Porpodas, Cintra — IPDPS 2013).
//!
//! This crate is the façade over the whole workspace:
//!
//! * [`compile`] MiniC source to IR (GCC's role in the paper),
//! * [`build`] a scheduled program for one of the four schemes
//!   (NOED / SCED / DCED / CASTED) on a configurable 2-cluster VLIW,
//! * [`measure`] its cycle count on the cycle-accurate simulator,
//! * [`experiments`] regenerates every table and figure of the paper's
//!   evaluation section (see `EXPERIMENTS.md` at the repo root).
//!
//! ## Quickstart
//!
//! ```
//! use casted::{build, measure, Scheme};
//! use casted::ir::MachineConfig;
//!
//! let src = r#"
//!     fn main() -> int {
//!         var s: int = 0;
//!         for i in 0..100 { s = s + i * i; }
//!         out(s);
//!         return 0;
//!     }
//! "#;
//! let module = casted::compile("demo", src).unwrap();
//! let config = MachineConfig::itanium2_like(2, 2);
//!
//! let noed = measure(&build(&module, Scheme::Noed, &config).unwrap());
//! let casted = measure(&build(&module, Scheme::Casted, &config).unwrap());
//! // Error detection costs cycles but must preserve the output.
//! assert_eq!(noed.stream, casted.stream);
//! assert!(casted.cycles() > noed.cycles());
//! ```

pub use casted_difftest as difftest;
pub use casted_faults as faults;
pub use casted_obs as obs;
pub use casted_frontend as frontend;
pub use casted_util as util;
pub use casted_ir as ir;
pub use casted_passes as passes;
pub use casted_sim as sim;
pub use casted_workloads as workloads;

pub use casted_passes::{Prepared, Scheme};
pub use casted_sim::SimResult;

pub mod experiments;
pub mod report;
pub mod service_api;
pub mod stages;

use casted_frontend::Diag;
use casted_ir::{MachineConfig, Module};

/// Compile MiniC source to a verified IR module.
pub fn compile(name: &str, source: &str) -> Result<Module, Vec<Diag>> {
    casted_frontend::compile(name, source)
}

/// Run the full back end (error detection, placement, scheduling,
/// spilling, register validation) for `scheme` on machine `config`.
pub fn build(module: &Module, scheme: Scheme, config: &MachineConfig) -> Result<Prepared, String> {
    casted_passes::prepare(module, scheme, config)
}

/// Simulate a prepared program fault-free and return timing + output.
/// The run stops at [`casted_sim::DEFAULT_MAX_CYCLES`]: a program that
/// never halts comes back as a `Timeout`.
pub fn measure(prep: &Prepared) -> SimResult {
    let opts = casted_sim::SimOptions {
        max_cycles: casted_sim::DEFAULT_MAX_CYCLES,
        ..casted_sim::SimOptions::default()
    };
    casted_sim::simulate(&prep.sp, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_compiles_builds_and_measures() {
        let m = compile("t", "fn main() { var s: int = 1; for i in 0..10 { s = s * 2; } out(s); }").unwrap();
        let cfg = MachineConfig::itanium2_like(2, 1);
        let prep = build(&m, Scheme::Casted, &cfg).unwrap();
        let r = measure(&prep);
        assert_eq!(r.stream, vec![ir::interp::OutVal::Int(1024)]);
    }
}
