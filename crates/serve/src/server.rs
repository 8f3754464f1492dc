//! The long-lived compile-and-simulate server.
//!
//! One event-loop thread (`evloop.rs`) owns every connection through
//! `casted_util::poll` (epoll), driving the framed-connection core in
//! `conn.rs`; one worker/cache/queue core executes the work:
//!
//! ```text
//!  event loop (casted_util::poll / epoll):
//!    nonblocking accept
//!    readiness-driven reads, incremental frame assembly
//!    buffered nonblocking writes
//!    worker completions via a poller wakeup — no sleeps
//!                       │
//!                       ▼
//!          cache lookup ──hit──► reply (never queues)
//!                │ miss
//!                ▼
//!          admission control (token-bucket quota → Throttled)
//!                │ admitted
//!                ▼
//!          bounded job queue ──full──► Busy reply
//!                │ (jobs stamped; stale jobs dropped as Expired)
//!                ▼
//!          worker pool (casted_util::pool, N worker loops)
//!                │ service_api::* under a cycle-limit deadline,
//!                │ panic-isolated; streaming campaigns emit
//!                │ Progress frames every K trials
//!                ▼
//!          encode reply → insert into cache → deliver to connection
//! ```
//!
//! **Backpressure.** The queue holds at most
//! [`ServerConfig::queue_depth`] jobs. A miss that finds it full gets
//! an immediate [`Response::Busy`]; the server never buffers
//! unboundedly, so overload costs the client a retry, not the server
//! its memory. [`AdmissionConfig`] adds two opt-in refinements:
//! per-client token buckets (`Throttled` with a computed
//! `retry_after_ms`) and queue deadlines (`Expired` — stale jobs are
//! dropped *before* execution).
//!
//! **Streaming.** [`Request::InjectStream`] runs the campaign in
//! chunks, emitting a [`Response::Progress`] frame every `every`
//! trials and a terminal frame byte-identical to the non-streaming
//! [`Response::Injected`]. A [`Request::Cancel`] on the same
//! connection stops the campaign at the next chunk boundary; the
//! terminal [`Response::Cancelled`] carries the partial tally (an
//! exact prefix of the full run). A streaming campaign occupies its
//! connection: other requests pipelined behind it are buffered and
//! served after the terminal frame.
//!
//! **Deadlines.** Work requests run under the simulator/interpreter
//! cycle limit ([`ServerConfig::max_cycles`]): a hostile or buggy
//! program costs a bounded number of simulated cycles, after which the
//! client receives a structured `Err` reply.
//!
//! **Shutdown.** A [`Request::Shutdown`] (or
//! [`ServerHandle::shutdown`]) stops the acceptor and *closes* the
//! queue: workers drain every already-accepted job, every in-flight
//! reply is written, then idle connections are dropped and the server
//! exits. New work during the drain gets [`Response::ShuttingDown`].
//! Nothing sleeps its way through the drain: the event loop exits when
//! its last pending job's reply is flushed.
//!
//! The server needs the poll backend: on targets without it
//! [`Server::start`] fails with [`std::io::ErrorKind::Unsupported`].

use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use casted::service_api;
use casted_util::poll;
use casted_util::pool::{pool_threads, run_pool};
use casted_util::store::ArtifactStore;

use crate::admission::{Admission, AdmissionConfig, TokenBuckets};
use crate::cache::{Cache, CacheConfig};
use crate::protocol::{encode_response, Request, Response};

/// Progress-frame period (in trials) when a streaming request asks
/// for `every == 0` ("server default").
pub const DEFAULT_STREAM_EVERY: u64 = 100;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` (the default) picks an ephemeral
    /// loopback port.
    pub addr: String,
    /// Worker threads draining the job queue (capped at the host's
    /// available parallelism).
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue means `Busy` replies.
    pub queue_depth: usize,
    /// Reply-cache sizing.
    pub cache: CacheConfig,
    /// Per-request deadline as a simulated-cycle budget (the cap for
    /// client-requested `max_cycles`).
    pub max_cycles: u64,
    /// Maximum Monte-Carlo trials a single inject request may ask for.
    pub max_trials: u64,
    /// On-disk section store for inject requests, opened once by
    /// [`Server::start`] (which fails if the directory is unusable).
    /// When set, inject misses run through the compositional campaign
    /// (`casted_faults::run_campaign_incremental`) keyed into this
    /// directory, so requests for similar programs become *partial*
    /// cache hits (only changed sections re-inject) while replies stay
    /// byte-identical to the engines' — the exact-reply cache contract
    /// is unchanged. `None` (the default) keeps cold per-request
    /// campaigns. Streaming campaigns always run on the chunked engine
    /// path (their exactness contract makes the replies identical
    /// regardless).
    pub section_cache: Option<std::path::PathBuf>,
    /// On-disk artifact store for the staged compile pipeline. When
    /// set, every compile/simulate/inject miss runs its compile half
    /// through the memoized stage graph (`docs/PIPELINE.md`): a request
    /// for a program whose IR was already built under a *different*
    /// (issue, delay) pair skips the front end and the ED transform
    /// and restarts at the schedule stage. Replies are byte-identical to the
    /// monolithic path (the stage-exactness guarantee), so the reply
    /// cache contract is unchanged. `None` (the default) compiles
    /// monolithically.
    pub artifact_cache: Option<std::path::PathBuf>,
    /// Admission control (quotas + queue deadlines); defaults off.
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: pool_threads(),
            queue_depth: 64,
            cache: CacheConfig::default(),
            max_cycles: 200_000_000,
            max_trials: 20_000,
            section_cache: None,
            artifact_cache: None,
            admission: AdmissionConfig::default(),
        }
    }
}

/// One queued unit of work.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) key: u64,
    pub(crate) enqueued: Instant,
    /// Cancel flag for streaming jobs (checked at chunk boundaries).
    pub(crate) cancel: Option<Arc<AtomicBool>>,
    /// Event-loop token of the connection the reply frames go to.
    pub(crate) conn: u64,
}

/// One frame produced by a worker for the event loop to deliver.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) payload: Vec<u8>,
    /// Last frame of its job? (Progress frames are not.)
    pub(crate) terminal: bool,
    /// Terminal frame of a *cancelled* stream (drives the late-cancel
    /// bookkeeping in the loop).
    pub(crate) cancelled: bool,
}

/// Why [`JobQueue::try_push`] refused a job.
pub(crate) enum PushError {
    /// At capacity — the backpressure signal.
    Full,
    /// Draining for shutdown.
    Closed,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Bounded MPMC job queue: `try_push` never blocks (that is the whole
/// point — overload is reported, not buffered), `pop` blocks until a
/// job arrives or the queue is closed *and* drained.
pub(crate) struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn try_push(&self, job: Job) -> Result<usize, PushError> {
        let mut g = self.lock();
        if g.closed {
            return Err(PushError::Closed);
        }
        if g.jobs.len() >= self.cap {
            return Err(PushError::Full);
        }
        g.jobs.push_back(job);
        let depth = g.jobs.len();
        drop(g);
        self.ready.notify_one();
        Ok(depth)
    }

    fn pop(&self) -> Option<Job> {
        let mut g = self.lock();
        loop {
            if let Some(job) = g.jobs.pop_front() {
                casted_obs::gauge_set("serve.queue_depth", g.jobs.len() as u64);
                return Some(job);
            }
            if g.closed {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) queue: JobQueue,
    pub(crate) cache: Cache,
    pub(crate) pipeline: Option<casted::stages::ArtifactPipeline>,
    /// The section store of `cfg.section_cache`, open for the server's
    /// lifetime.
    pub(crate) sections: Option<ArtifactStore>,
    pub(crate) buckets: TokenBuckets,
    pub(crate) stop: AtomicBool,
    /// Reply path: worker → loop.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Wakes the event loop out of its kernel wait.
    notifier: poll::Notifier,
}

impl Shared {
    pub(crate) fn initiate_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        self.notifier.notify();
    }

    /// Post one worker-produced frame to the event loop and wake it.
    pub(crate) fn post_completion(&self, c: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(c);
        self.notifier.notify();
    }
}

/// A running server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) drains and stops it.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

/// Alias kept for readability at call sites.
pub type ServerHandle = Server;

impl Server {
    /// Bind and start serving. Returns once the listener is live; the
    /// actual serving happens on background threads.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pipeline = match &cfg.artifact_cache {
            Some(dir) => Some(casted::stages::ArtifactPipeline::open(dir)?),
            None => None,
        };
        let sections = match &cfg.section_cache {
            Some(dir) => Some(ArtifactStore::open(dir)?),
            None => None,
        };
        let poller = poll::Poller::new()?;
        listener.set_nonblocking(true)?;
        poller.add(&listener, crate::evloop::LISTENER, poll::Interest::Read)?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_depth),
            cache: Cache::new(&cfg.cache),
            pipeline,
            sections,
            buckets: TokenBuckets::new(&cfg.admission),
            cfg,
            stop: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
            notifier: poller.notifier()?,
        });
        let sh = shared.clone();
        let supervisor = std::thread::Builder::new()
            .name("serve-supervisor".into())
            .spawn(move || supervise(listener, sh, poller))?;
        Ok(Server {
            addr,
            shared,
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs accepted into the queue and not yet taken by a worker.
    pub fn queued_jobs(&self) -> usize {
        self.shared.queue.lock().jobs.len()
    }

    /// Block until the server exits (a client sent `Shutdown`).
    pub fn wait(mut self) {
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }

    /// Drain and stop from the hosting process.
    pub fn shutdown(mut self) {
        self.shared.initiate_shutdown();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.initiate_shutdown();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

/// Host the worker pool, run the event loop, then sequence the drain.
fn supervise(listener: TcpListener, shared: Arc<Shared>, poller: poll::Poller) {
    let workers = shared.cfg.workers.clamp(1, pool_threads());
    let pool_shared = shared.clone();
    let pool_host = std::thread::Builder::new()
        .name("serve-pool".into())
        .spawn(move || {
            run_pool(
                (0..workers)
                    .map(|_| {
                        let sh = pool_shared.clone();
                        move || worker_loop(&sh)
                    })
                    .collect(),
            );
        })
        .expect("spawn worker pool host");

    crate::evloop::run(listener, &shared, poller);

    // The queue is closed (initiate_shutdown); workers finish every
    // accepted job, then exit.
    let _ = pool_host.join();
}

/// One worker: pop, (maybe drop as expired), execute, cache, deliver —
/// until the queue closes.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let deadline_ms = shared.cfg.admission.queue_deadline_ms;
        if deadline_ms > 0 && job.enqueued.elapsed() > Duration::from_millis(deadline_ms) {
            // Stale before it ever ran: shed it, visibly.
            casted_obs::inc("serve.admission.expired");
            deliver(shared, &job, encode_response(&Response::Expired), true, false);
            continue;
        }
        match &job.req {
            Request::InjectStream {
                spec,
                trials,
                seed,
                every,
                ..
            } => {
                let cancel = job
                    .cancel
                    .clone()
                    .unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
                let (terminal, cancelled) = execute_stream(
                    shared,
                    spec,
                    *trials,
                    *seed,
                    *every,
                    &cancel,
                    &mut |frame| deliver(shared, &job, frame, false, false),
                );
                // Streaming replies are never cached: the terminal
                // frame's would-be key is the InjectStream encoding,
                // and progress frames are connection-specific.
                deliver(shared, &job, terminal, true, cancelled);
            }
            req => {
                let bytes = execute_encoded(shared, req);
                if bytes.cacheable {
                    shared.cache.insert(job.key, bytes.payload.clone());
                }
                deliver(shared, &job, bytes.payload, true, false);
            }
        }
    }
}

/// Post one frame to the event loop for the job's connection.
fn deliver(shared: &Arc<Shared>, job: &Job, payload: Vec<u8>, terminal: bool, cancelled: bool) {
    shared.post_completion(Completion {
        conn: job.conn,
        payload,
        terminal,
        cancelled,
    });
}

pub(crate) struct Encoded {
    pub(crate) payload: Vec<u8>,
    pub(crate) cacheable: bool,
}

/// Run one work request through `service_api`, panic-isolated, and
/// encode the reply.
pub(crate) fn execute_encoded(shared: &Arc<Shared>, req: &Request) -> Encoded {
    let hist: &'static str = match req {
        Request::Compile { .. } => "serve.compile_ns",
        Request::Simulate { .. } => "serve.simulate_ns",
        Request::Inject { .. } => "serve.inject_ns",
        _ => "serve.other_ns",
    };
    let span = casted_obs::span(hist);
    let resp = match catch_unwind(AssertUnwindSafe(|| execute(shared, req))) {
        Ok(resp) => resp,
        Err(_) => {
            casted_obs::inc("serve.panics");
            Response::Err("internal error: request execution panicked".into())
        }
    };
    drop(span);
    if matches!(resp, Response::Err(_)) {
        casted_obs::inc("serve.errors");
    }
    Encoded {
        cacheable: resp.cacheable(),
        payload: encode_response(&resp),
    }
}

/// Run a streaming campaign, emitting encoded Progress frames through
/// `emit`; returns the encoded terminal frame and whether it is a
/// `Cancelled` one. Panic-isolated like [`execute_encoded`].
fn execute_stream(
    shared: &Arc<Shared>,
    spec: &service_api::JobSpec,
    trials: u64,
    seed: u64,
    every: u64,
    cancel: &Arc<AtomicBool>,
    emit: &mut dyn FnMut(Vec<u8>),
) -> (Vec<u8>, bool) {
    let span = casted_obs::span("serve.inject_ns");
    let resp = match catch_unwind(AssertUnwindSafe(|| {
        run_stream(shared, spec, trials, seed, every, cancel, emit)
    })) {
        Ok(resp) => resp,
        Err(_) => {
            casted_obs::inc("serve.panics");
            Response::Err("internal error: request execution panicked".into())
        }
    };
    drop(span);
    if matches!(resp, Response::Err(_)) {
        casted_obs::inc("serve.errors");
    }
    let cancelled = matches!(resp, Response::Cancelled { .. });
    (encode_response(&resp), cancelled)
}

fn run_stream(
    shared: &Arc<Shared>,
    spec: &service_api::JobSpec,
    trials: u64,
    seed: u64,
    every: u64,
    cancel: &Arc<AtomicBool>,
    emit: &mut dyn FnMut(Vec<u8>),
) -> Response {
    if trials > shared.cfg.max_trials {
        return Response::Err(format!(
            "{trials} trials exceeds the server's limit of {}",
            shared.cfg.max_trials
        ));
    }
    let every = if every == 0 { DEFAULT_STREAM_EVERY } else { every };
    casted_obs::inc("serve.stream.started");
    let result = service_api::inject_stream_with(
        spec,
        trials,
        seed,
        shared.cfg.max_cycles,
        every,
        shared.pipeline.as_ref(),
        &mut |done, counts| {
            if cancel.load(Ordering::SeqCst) {
                return false;
            }
            casted_obs::inc("serve.stream.progress");
            emit(encode_response(&Response::Progress {
                done,
                counts: *counts,
            }));
            !cancel.load(Ordering::SeqCst)
        },
    );
    match result {
        Ok((reply, true)) => {
            casted_obs::inc("serve.stream.completed");
            Response::Injected(reply)
        }
        Ok((reply, false)) => {
            casted_obs::inc("serve.stream.cancelled");
            Response::Cancelled {
                done: reply.trials,
                counts: reply.counts,
            }
        }
        Err(e) => Response::Err(e),
    }
}

fn execute(shared: &Arc<Shared>, req: &Request) -> Response {
    let cap = shared.cfg.max_cycles;
    let pipeline = shared.pipeline.as_ref();
    match req {
        Request::Compile { spec } => match service_api::compile_stats_with(spec, pipeline) {
            Ok(r) => Response::Compiled(r),
            Err(e) => Response::Err(e),
        },
        Request::Simulate { spec, max_cycles } => {
            match service_api::simulate_stats_with(spec, (*max_cycles).min(cap), pipeline) {
                Ok(r) => Response::Simulated(r),
                Err(e) => Response::Err(e),
            }
        }
        Request::Inject {
            spec,
            trials,
            seed,
            engine,
        } => {
            if *trials > shared.cfg.max_trials {
                return Response::Err(format!(
                    "{trials} trials exceeds the server's limit of {}",
                    shared.cfg.max_trials
                ));
            }
            // The incremental path is engine-agnostic (its recombined
            // reply is byte-identical to every engine's), so the
            // request's engine choice only matters on the cold path.
            let result = match &shared.sections {
                Some(store) => service_api::inject_tally_incremental_in(
                    spec, *trials, *seed, store, cap, pipeline,
                ),
                None => {
                    service_api::inject_tally_with(spec, *trials, *seed, *engine, cap, pipeline)
                }
            };
            match result {
                Ok(r) => Response::Injected(r),
                Err(e) => Response::Err(e),
            }
        }
        other => Response::Err(format!("{} is not a work request", other.kind())),
    }
}

pub(crate) fn kind_counter(req: &Request) -> &'static str {
    match req {
        Request::Ping => "serve.requests.ping",
        Request::Compile { .. } => "serve.requests.compile",
        Request::Simulate { .. } => "serve.requests.simulate",
        Request::Inject { .. } => "serve.requests.inject",
        Request::Counters => "serve.requests.counters",
        Request::Shutdown => "serve.requests.shutdown",
        Request::InjectStream { .. } => "serve.requests.inject_stream",
        Request::Cancel => "serve.requests.cancel",
    }
}

/// Admission check for one cache-missing work request. `None` =
/// admitted; `Some(resp)` = the structured rejection to send.
pub(crate) fn admit(shared: &Shared, peer: IpAddr) -> Option<Response> {
    if !shared.cfg.admission.enabled() {
        return None;
    }
    match shared.buckets.check(peer) {
        Admission::Admit => {
            casted_obs::inc("serve.admission.admitted");
            None
        }
        Admission::Throttle { retry_after_ms } => {
            casted_obs::inc("serve.admission.throttled");
            Some(Response::Throttled { retry_after_ms })
        }
    }
}
