//! # casted-util — zero-dependency foundation for the CASTED workspace
//!
//! The build environment has no registry access, so everything the
//! workspace used to pull from crates.io lives here instead:
//!
//! * [`rng`] — a deterministic, seedable SplitMix64/xoshiro256++ RNG
//!   with `rand`-style helpers (`gen_range`, `gen_bool`, `shuffle`).
//!   Replaces `rand`. Unlike `StdRng` (whose algorithm is explicitly
//!   not stability-guaranteed across `rand` versions), the stream
//!   produced for a given seed is a documented, golden-tested part of
//!   this workspace's contract — fault-injection campaigns are
//!   bit-reproducible forever.
//! * [`pool`] — a scoped std-thread worker pool. Replaces
//!   `crossbeam::scope` + `parking_lot` in the experiment sweeps.
//! * [`prop`] — a minimal property-testing harness (seeded case
//!   generator, no shrinking) driven by [`rng::Rng`]. Replaces
//!   `proptest` in the `prop_*.rs` test files.
//! * [`bench`] — median/MAD statistics for the hand-rolled benchmark
//!   loops (`bench_faults`, `casted-client bench`). Replaces
//!   `criterion`.
//! * [`hash`] — streaming 64-bit FNV-1a digests, the shared
//!   fingerprint format of the golden tests and of the
//!   `casted-difftest` differential logs.
//! * [`codec`] — varint + length-prefixed-frame wire primitives used
//!   by the `casted-serve` binary protocol (see `docs/SERVING.md`).
//! * [`poll`] — a readiness-polling (`epoll`) wrapper over raw
//!   syscalls, the engine of `casted-serve`'s event-driven connection
//!   layer; stubs out to `Unsupported` off Linux so callers fall back
//!   to a readiness-thread model at runtime.
//! * [`store`] — the on-disk content-addressed artifact store of the
//!   staged compile pipeline (checksummed envelopes, atomic writes,
//!   shared LRU byte budget — see `docs/PIPELINE.md`).
//!
//! Its sibling `casted-obs` follows the same zero-dependency rule for
//! observability (replacing `metrics`/`tracing`): atomic counters,
//! ns-histograms, span timers and JSON/CSV export, disabled by
//! default — see `docs/OBSERVABILITY.md`. It lives in its own crate,
//! below everything, so any layer (including this one's `pool` users)
//! can record without a dependency cycle.

pub mod bench;
pub mod codec;
pub mod hash;
pub mod poll;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod store;

pub use hash::Fnv64;
pub use pool::{run_pool, Mutex};
pub use rng::Rng;
