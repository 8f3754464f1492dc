//! `casted-serve` — a hermetic compile-and-simulate service.
//!
//! Turns the CASTED pipeline (MiniC frontend → error-detection passes
//! → VLIW scheduler → cycle-accurate simulator → fault-injection
//! campaigns) into a long-lived loopback TCP service:
//!
//! - [`protocol`] — length-prefixed binary frames with canonical
//!   encoding (4-byte LE length, version + tag bytes, varint fields),
//!   including the streaming-campaign extension (Progress/Cancelled
//!   frames) and structured admission rejections (Throttled/Expired).
//! - [`cache`] — lock-striped content-addressed reply cache (FNV-1a of
//!   the canonical request bytes → encoded reply bytes) with LRU
//!   eviction under a byte budget.
//! - [`server`] — the serving core: an event-driven connection layer
//!   (`casted_util::poll`, epoll on Linux) over a nonblocking
//!   framed-connection core, a bounded job queue drained by the
//!   `casted_util` thread pool, explicit backpressure (`Busy` on
//!   queue-full), per-request simulated-cycle deadlines, graceful
//!   drain-then-exit.
//! - [`admission`] — opt-in per-client token-bucket quotas and
//!   deadline-aware queue drop, beyond the binary `Busy` signal.
//! - [`client`] — a minimal blocking client (one-shot and streaming)
//!   used by the `casted-client` CLI and the tests.
//!
//! Everything is `std`-only (no registry dependencies) and offline:
//! the server binds loopback by default and the whole stack — protocol,
//! cache, queue, pool, event loop — lives in this workspace. See
//! `docs/SERVING.md` for the operational story and the wire-format
//! field tables.

pub mod admission;
pub mod cache;
pub mod client;
mod conn;
mod evloop;
pub mod protocol;
pub mod server;
