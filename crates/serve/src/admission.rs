//! Admission control beyond binary `Busy`: per-client token-bucket
//! quotas and deadline-aware queue drop.
//!
//! The bounded job queue (PR 5) protects the server's *memory* — a
//! full queue is an immediate [`crate::protocol::Response::Busy`]. It
//! does nothing about *fairness* (one greedy client can keep the queue
//! full forever) or *staleness* (a job that waited seconds past its
//! usefulness still burns a worker). Two orthogonal mechanisms close
//! those gaps:
//!
//! * **Token buckets, per client address.** Every cache-missing work
//!   request spends one token from its peer's bucket; buckets hold at
//!   most [`AdmissionConfig::quota_burst`] tokens and refill at
//!   [`AdmissionConfig::quota_refill_per_sec`]. An empty bucket gets a
//!   structured [`crate::protocol::Response::Throttled`] with a
//!   computed `retry_after_ms` — the client knows *when* to come back,
//!   unlike `Busy`'s "whenever". Cache hits are never charged: they
//!   cost microseconds and throttling them would only push clients
//!   into re-asking colder questions.
//!
//! * **Queue deadlines.** Jobs are stamped on enqueue; a worker that
//!   pops a job older than [`AdmissionConfig::queue_deadline_ms`]
//!   replies [`crate::protocol::Response::Expired`] *without
//!   executing* — under overload the server sheds the work that
//!   already missed its window instead of burning workers on it.
//!
//! Both read time from [`AdmissionConfig::clock`]: the host's monotonic
//! clock, or a manual one that moves only when a test advances it, so
//! refill and expiry can be tested without depending on host load.
//!
//! Both mechanisms are observable: `serve.admission.admitted`,
//! `serve.admission.throttled`, `serve.admission.expired` counters
//! (see `docs/OBSERVABILITY.md`). Both default **off** — admission is
//! an operator opt-in, and every test that does not opt in sees the
//! PR 5 behavior unchanged.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use casted_util::Mutex;

/// The time source of admission control: the host's monotonic clock
/// (the default), or a manual clock that stands still until
/// [`Clock::advance`] moves it.
#[derive(Clone, Default)]
pub struct Clock {
    manual: Option<Arc<Mutex<Instant>>>,
}

impl Clock {
    /// A clock that reads the same instant until it is advanced.
    pub fn manual() -> Clock {
        Clock {
            manual: Some(Arc::new(Mutex::new(Instant::now()))),
        }
    }

    /// The current instant.
    pub fn now(&self) -> Instant {
        match &self.manual {
            Some(t) => *t.lock(),
            None => Instant::now(),
        }
    }

    /// Move a manual clock forward by `by`; every copy of it moves.
    ///
    /// # Panics
    ///
    /// On the host clock, which only time moves.
    pub fn advance(&self, by: Duration) {
        *self.manual.as_ref().expect("only a manual clock can be advanced").lock() += by;
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.manual.is_some() { "Clock::manual" } else { "Clock::host" })
    }
}

/// Admission-control knobs. All default to 0 = disabled.
#[derive(Clone, Debug, Default)]
pub struct AdmissionConfig {
    /// Token-bucket capacity per client address (0 disables quotas).
    pub quota_burst: u64,
    /// Tokens refilled per second (0 = buckets never refill — useful
    /// for deterministic tests and hard per-connection caps).
    pub quota_refill_per_sec: u64,
    /// Maximum milliseconds a job may wait in the queue before a
    /// worker drops it unexecuted (0 disables deadlines).
    pub queue_deadline_ms: u64,
    /// What refill and queue deadlines measure time with.
    pub clock: Clock,
}

impl AdmissionConfig {
    /// Is any admission mechanism active?
    pub fn enabled(&self) -> bool {
        self.quota_burst > 0 || self.queue_deadline_ms > 0
    }
}

/// `retry_after_ms` ceiling: with a zero refill rate the honest answer
/// is "never", which is not encodable — an hour says "much later"
/// while keeping the varint small.
const MAX_RETRY_MS: u64 = 3_600_000;

/// Entries kept before the bucket map is reset wholesale. Peers are
/// loopback clients in every supported deployment, so this bound is
/// never hit in practice; it exists so a spoof-heavy environment
/// cannot grow the map without limit. A reset refunds everyone's
/// burst — briefly generous, never unbounded.
const MAX_PEERS: usize = 1024;

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-client token buckets keyed by peer IP address.
pub struct TokenBuckets {
    burst: f64,
    refill_per_sec: f64,
    clock: Clock,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

/// Outcome of one admission check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Token spent; run the request.
    Admit,
    /// Bucket empty; retry after this many milliseconds.
    Throttle {
        /// Suggested client back-off.
        retry_after_ms: u64,
    },
}

impl TokenBuckets {
    /// Build from config; `quota_burst == 0` means [`TokenBuckets::check`]
    /// always admits.
    pub fn new(cfg: &AdmissionConfig) -> TokenBuckets {
        TokenBuckets {
            burst: cfg.quota_burst as f64,
            refill_per_sec: cfg.quota_refill_per_sec as f64,
            clock: cfg.clock.clone(),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Spend one token from `peer`'s bucket, refilling first.
    pub fn check(&self, peer: IpAddr) -> Admission {
        self.check_at(peer, self.clock.now())
    }

    /// [`TokenBuckets::check`] against an explicit clock, so tests can
    /// drive refill deterministically.
    pub fn check_at(&self, peer: IpAddr, now: Instant) -> Admission {
        if self.burst <= 0.0 {
            return Admission::Admit;
        }
        let mut buckets = self.buckets.lock();
        if buckets.len() >= MAX_PEERS && !buckets.contains_key(&peer) {
            buckets.clear();
        }
        let b = buckets.entry(peer).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed = now.saturating_duration_since(b.last).as_secs_f64();
        b.tokens = (b.tokens + elapsed * self.refill_per_sec).min(self.burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Admission::Admit
        } else {
            let retry_after_ms = if self.refill_per_sec > 0.0 {
                (((1.0 - b.tokens) / self.refill_per_sec) * 1000.0).ceil() as u64
            } else {
                MAX_RETRY_MS
            };
            Admission::Throttle {
                retry_after_ms: retry_after_ms.clamp(1, MAX_RETRY_MS),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(127, 0, 0, last))
    }

    #[test]
    fn disabled_quota_admits_everything() {
        let b = TokenBuckets::new(&AdmissionConfig::default());
        for _ in 0..1000 {
            assert_eq!(b.check(ip(1)), Admission::Admit);
        }
    }

    #[test]
    fn burst_is_spent_then_throttled_with_retry_after() {
        let cfg = AdmissionConfig {
            quota_burst: 3,
            quota_refill_per_sec: 2,
            queue_deadline_ms: 0,
            ..AdmissionConfig::default()
        };
        let b = TokenBuckets::new(&cfg);
        let t0 = Instant::now();
        for _ in 0..3 {
            assert_eq!(b.check_at(ip(1), t0), Admission::Admit);
        }
        // Fourth request: empty bucket, and at 2 tokens/s the next
        // token is 500 ms away.
        match b.check_at(ip(1), t0) {
            Admission::Throttle { retry_after_ms } => assert_eq!(retry_after_ms, 500),
            a => panic!("expected throttle, got {a:?}"),
        }
        // Honoring the retry-after admits again.
        assert_eq!(
            b.check_at(ip(1), t0 + Duration::from_millis(500)),
            Admission::Admit
        );
    }

    #[test]
    fn buckets_are_per_peer() {
        let cfg = AdmissionConfig {
            quota_burst: 1,
            quota_refill_per_sec: 0,
            queue_deadline_ms: 0,
            ..AdmissionConfig::default()
        };
        let b = TokenBuckets::new(&cfg);
        let t0 = Instant::now();
        assert_eq!(b.check_at(ip(1), t0), Admission::Admit);
        assert!(matches!(b.check_at(ip(1), t0), Admission::Throttle { .. }));
        // A different peer has its own bucket.
        assert_eq!(b.check_at(ip(2), t0), Admission::Admit);
    }

    #[test]
    fn zero_refill_reports_the_capped_retry() {
        let cfg = AdmissionConfig {
            quota_burst: 1,
            quota_refill_per_sec: 0,
            queue_deadline_ms: 0,
            ..AdmissionConfig::default()
        };
        let b = TokenBuckets::new(&cfg);
        let t0 = Instant::now();
        let _ = b.check_at(ip(1), t0);
        match b.check_at(ip(1), t0) {
            Admission::Throttle { retry_after_ms } => assert_eq!(retry_after_ms, MAX_RETRY_MS),
            a => panic!("expected throttle, got {a:?}"),
        }
    }

    #[test]
    fn a_manual_clock_drives_refill() {
        let clock = Clock::manual();
        let b = TokenBuckets::new(&AdmissionConfig {
            quota_burst: 1,
            quota_refill_per_sec: 1,
            clock: clock.clone(),
            ..AdmissionConfig::default()
        });
        assert_eq!(b.check(ip(1)), Admission::Admit);
        assert_eq!(b.check(ip(1)), Admission::Throttle { retry_after_ms: 1000 });
        clock.advance(Duration::from_millis(500));
        assert_eq!(b.check(ip(1)), Admission::Throttle { retry_after_ms: 500 });
        clock.advance(Duration::from_millis(500));
        assert_eq!(b.check(ip(1)), Admission::Admit);
    }

    #[test]
    fn refill_never_exceeds_burst() {
        let cfg = AdmissionConfig {
            quota_burst: 2,
            quota_refill_per_sec: 1000,
            queue_deadline_ms: 0,
            ..AdmissionConfig::default()
        };
        let b = TokenBuckets::new(&cfg);
        let t0 = Instant::now();
        // After a long idle period the bucket holds exactly `burst`.
        let later = t0 + Duration::from_secs(60);
        assert_eq!(b.check_at(ip(1), later), Admission::Admit);
        assert_eq!(b.check_at(ip(1), later), Admission::Admit);
        assert!(matches!(b.check_at(ip(1), later), Admission::Throttle { .. }));
    }
}
