//! # casted-sim — cycle-accurate lockstep clustered-VLIW simulator
//!
//! Plays the role of the paper's modified SKI IA-64 simulator: it
//! executes a [`casted_ir::vliw::ScheduledProgram`] bundle by bundle,
//! modelling
//!
//! * per-cluster issue (the static schedule's bundles, one per cycle),
//! * **lockstep stalls** — if any instruction in the current bundle is
//!   waiting for an operand, the whole machine waits,
//! * a register **scoreboard**: each virtual register becomes usable in
//!   its home cluster at `issue + latency`; a read from the *other*
//!   cluster is usable `inter_cluster_delay` cycles later,
//! * the full 3-level non-blocking cache hierarchy of Table I, with
//!   LRU sets and a bounded miss queue (MSHRs),
//! * perfect branch prediction (Table I): branches redirect fetch with
//!   no misprediction penalty,
//! * runtime exceptions (wild/misaligned addresses, division by zero),
//!   a watchdog timeout, and the fault-detection exit taken by
//!   `br.detect` — the machinery behind the paper's five fault-outcome
//!   classes,
//! * single-bit **fault injection** at instruction output registers
//!   (§IV-C): at a chosen dynamic instruction, one bit of one output
//!   register is flipped after writeback.
//!
//! The simulator computes on raw register words, with every register,
//! constant and opcode resolved once at decode (`machine`, `decode`).
//! The reference interpreter (`casted_ir::interp`, over the typed
//! values of `casted_ir::semantics`) is its independent oracle: for
//! every program and machine configuration the simulator's output
//! stream is bit-identical to the interpreter's — an invariant the
//! integration tests enforce, opcode by opcode in
//! `tests/word_semantics.rs`.

pub mod cache;
pub mod checkpoint;
mod decode;
pub mod machine;
pub mod rbed;
pub mod section;
pub mod stats;
#[cfg(test)]
mod testutil;

pub use cache::{CacheHierarchy, CacheStats};
pub use checkpoint::{
    golden_with_checkpoints, golden_with_checkpoints_rbed, replay_trial, BlockSet, CheckpointPlan,
    GoldenRun, GoldenTrace, TrialRun, MAX_CHECKPOINTS,
};
pub use machine::{
    simulate, simulate_quiet, Injection, MachineState, SimOptions, SimResult, TraceEntry,
};
pub use rbed::{rbed_plan, RbedPlan};
pub use section::{
    block_validation_hashes, Section, SectionCapture, MAX_SECTIONS, MIN_SECTION_SPAN,
};
pub use stats::SimStats;
