//! The shard router: one front process, N `casted-serve` shards.
//!
//! A single server scales compile/inject throughput with its worker
//! pool, but stays one process: one reply cache, one allocator, one
//! set of locks. The router multiplies that horizontally without
//! giving up the cache contract:
//!
//! * Every **work** request (Compile/Simulate/Inject/InjectStream) is
//!   routed by its content hash — `Fnv64(canonical request payload)`,
//!   the *same* key the reply cache uses — modulo the shard count.
//!   Identical requests always land on the same shard, so no cache,
//!   section-store or artifact entry is ever duplicated across shards,
//!   and every repeat is a hit on the shard that already computed it.
//! * Reply frames are relayed **verbatim**: the bytes a client reads
//!   through the router are the bytes the shard wrote, so replies are
//!   byte-identical to a single-process server (CI proves this).
//! * Streaming works through the router: Progress frames relay as they
//!   arrive, and a client `Cancel` is forwarded to the shard running
//!   the campaign (including the late-cancel extra-reply rule — see
//!   `docs/SERVING.md`).
//!
//! Control requests are answered locally: `Ping` (router liveness),
//! `Counters` (the *router's* snapshot — `serve.shard.*` routing
//! counters; connect to a shard directly for its execution counters)
//! and `Cancel`-outside-a-stream. `Shutdown` is a fleet operation: the
//! router forwards `Shutdown` to every shard, replies `ShuttingDown`,
//! drains, and exits.
//!
//! Internally the router runs [`RouterConfig::loops`] independent
//! event loops, each driving the framed-connection core (`conn.rs`)
//! that the server's event loop drives too; a blocking acceptor hands
//! each new client to a loop round-robin, and each loop owns its
//! clients plus their per-client backend connections outright — no
//! shared connection state, so loops never contend. Routing decisions
//! sniff the canonical tag byte instead of fully decoding requests,
//! which keeps the relay cost per frame far below a shard's
//! per-request work (BENCH_serve.json). Like the server this is
//! Linux-only; [`Router::start`] fails cleanly where the poll backend
//! is unavailable.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use casted_util::codec::{read_frame, write_frame};
use casted_util::poll::{Event, Notifier, Poller};

use crate::conn::FramedConn;
use crate::protocol::{
    cache_key, decode_request, encode_request, Request, Response, MAX_FRAME, PROTOCOL_VERSION,
};

const INBOX_CAP: usize = 64;
const WAIT_SLICE: Duration = Duration::from_millis(500);
/// Hard ceiling on the post-shutdown drain, per loop.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Static routing-counter names (obs counters require `&'static str`).
const SHARD_COUNTERS: [&str; 8] = [
    "serve.shard.to.0",
    "serve.shard.to.1",
    "serve.shard.to.2",
    "serve.shard.to.3",
    "serve.shard.to.4",
    "serve.shard.to.5",
    "serve.shard.to.6",
    "serve.shard.to.7",
];

fn shard_counter(i: usize) -> &'static str {
    SHARD_COUNTERS
        .get(i)
        .copied()
        .unwrap_or("serve.shard.to.other")
}

/// Tag byte of a canonically-encoded frame payload, without a full
/// decode — the router's hot path classifies on this alone.
fn sniff_tag(payload: &[u8]) -> Option<u8> {
    if payload.first() != Some(&PROTOCOL_VERSION) {
        return None;
    }
    payload.get(1).copied()
}

// Request tags the router handles locally (see protocol.rs).
const TAG_PING: u8 = 1;
const TAG_COUNTERS: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_INJECT_STREAM: u8 = 7;
const TAG_CANCEL: u8 = 8;
// Response tags the relay state machine needs.
const TAG_PROGRESS: u8 = 11;
const TAG_CANCELLED: u8 = 12;

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral loopback port.
    pub addr: String,
    /// Shard server addresses; requests hash onto these in order.
    pub shards: Vec<String>,
    /// Event loops relaying connections (0 = auto: up to 4, bounded by
    /// the host's parallelism). Each accepted client is pinned to one
    /// loop round-robin.
    pub loops: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            loops: 0,
        }
    }
}

/// Hand-off point from the acceptor to one event loop.
struct LoopInbox {
    streams: Mutex<Vec<TcpStream>>,
    notifier: Option<Notifier>,
}

struct RouterShared {
    stop: AtomicBool,
    inboxes: Vec<Arc<LoopInbox>>,
    /// Bound address; shutdown self-connects to unblock the acceptor.
    self_addr: SocketAddr,
}

impl RouterShared {
    fn initiate_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for inbox in &self.inboxes {
            if let Some(n) = &inbox.notifier {
                n.notify();
            }
        }
        let _ = TcpStream::connect_timeout(&self.self_addr, Duration::from_millis(200));
    }
}

/// A running router. Dropping the handle stops it (shards are left
/// running; send a protocol `Shutdown` through the router to stop the
/// whole fleet).
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    threads: Vec<JoinHandle<()>>,
}

impl Router {
    /// Bind and start routing. Fails without at least one shard or on
    /// targets without the poll backend.
    pub fn start(cfg: RouterConfig) -> io::Result<Router> {
        if cfg.shards.is_empty() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "router needs at least one shard address",
            ));
        }
        let loops = if cfg.loops == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        } else {
            cfg.loops
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        // Build every loop's poller + inbox before spawning anything,
        // so a poll-backend failure aborts cleanly.
        let mut pollers = Vec::with_capacity(loops);
        let mut inboxes = Vec::with_capacity(loops);
        for _ in 0..loops {
            let poller = Poller::new()?;
            let notifier = poller.notifier().ok();
            pollers.push(poller);
            inboxes.push(Arc::new(LoopInbox {
                streams: Mutex::new(Vec::new()),
                notifier,
            }));
        }
        let shared = Arc::new(RouterShared {
            stop: AtomicBool::new(false),
            inboxes: inboxes.clone(),
            self_addr: addr,
        });

        let mut threads = Vec::with_capacity(loops + 1);
        for (i, poller) in pollers.into_iter().enumerate() {
            let sh = shared.clone();
            let inbox = inboxes[i].clone();
            let shards = cfg.shards.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("router-loop-{i}"))
                    .spawn(move || run_loop(&sh, &shards, inbox, poller))?,
            );
        }
        let sh = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("router-accept".into())
                .spawn(move || accept_loop(listener, &sh))?,
        );
        Ok(Router {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the router exits (a client sent `Shutdown`).
    pub fn wait(mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Stop the router (shards stay up).
    pub fn shutdown(mut self) {
        self.shared.initiate_shutdown();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shared.initiate_shutdown();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Blocking accept, round-robin hand-off to the event loops. Shutdown
/// unblocks it with the self-connect in
/// [`RouterShared::initiate_shutdown`].
fn accept_loop(listener: TcpListener, shared: &Arc<RouterShared>) {
    let next = AtomicUsize::new(0);
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        casted_obs::inc("serve.shard.conns");
        let i = next.fetch_add(1, Ordering::Relaxed) % shared.inboxes.len();
        let inbox = &shared.inboxes[i];
        inbox
            .streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stream);
        if let Some(n) = &inbox.notifier {
            n.notify();
        }
    }
}

/// Relay bookkeeping for a client with a request in flight on a shard.
struct Relay {
    backend: u64,
    streaming: bool,
    /// A Cancel was forwarded; whether it earns its own reply depends
    /// on the terminal frame (the late-cancel rule).
    cancel_forwarded: bool,
    /// Terminal seen, one follow-up reply (to the raced Cancel) still
    /// expected before the connection goes idle.
    awaiting_extra: bool,
}

struct ClientConn {
    io: FramedConn,
    inbox: VecDeque<Vec<u8>>,
    relay: Option<Relay>,
    /// shard index → backend token, opened lazily per client so reply
    /// streams from different clients never interleave on one socket.
    backends: HashMap<usize, u64>,
}

struct BackendConn {
    io: FramedConn,
    client: u64,
    shard: usize,
}

/// One router event loop: owns a disjoint set of clients and their
/// backends; structurally the same read/dispatch/flush cycle as the
/// server's event loop.
fn run_loop(
    shared: &Arc<RouterShared>,
    shards: &[String],
    inbox: Arc<LoopInbox>,
    poller: Poller,
) {
    let mut clients: HashMap<u64, ClientConn> = HashMap::new();
    let mut backends: HashMap<u64, BackendConn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_DEADLINE);
            let drained = clients
                .values()
                .all(|c| c.relay.is_none() && c.io.flushed());
            if drained || Instant::now() >= deadline {
                break;
            }
        }

        events.clear();
        let _ = poller.wait(&mut events, Some(WAIT_SLICE));

        // Adopt newly accepted clients.
        let adopted = std::mem::take(
            &mut *inbox.streams.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for stream in adopted {
            let token = next_token;
            next_token += 1;
            if let Ok(io) = FramedConn::register(stream, &poller, token) {
                clients.insert(
                    token,
                    ClientConn {
                        io,
                        inbox: VecDeque::new(),
                        relay: None,
                        backends: HashMap::new(),
                    },
                );
            }
        }

        for ev in &events {
            if clients.contains_key(&ev.token) {
                if ev.readable || ev.closed {
                    client_read(&mut clients, &mut backends, ev.token);
                }
            } else if backends.contains_key(&ev.token) {
                if ev.readable || ev.closed {
                    backend_read(&mut clients, &mut backends, ev.token);
                }
            }
        }

        // Dispatch idle clients' queued requests.
        let tokens: Vec<u64> = clients.keys().copied().collect();
        for token in tokens {
            loop {
                let Some(client) = clients.get_mut(&token) else {
                    break;
                };
                if client.relay.is_some() || client.io.dead || client.io.close_after_flush {
                    break;
                }
                let Some(payload) = client.inbox.pop_front() else {
                    break;
                };
                dispatch(
                    shared,
                    shards,
                    &poller,
                    &mut clients,
                    &mut backends,
                    &mut next_token,
                    token,
                    payload,
                );
            }
        }

        // Flush + interest + reap, both maps.
        let mut dead_clients: Vec<u64> = Vec::new();
        for (&token, client) in clients.iter_mut() {
            client.io.flush(&poller, token);
            if client.io.dead {
                dead_clients.push(token);
            }
        }
        let mut dead_backends: Vec<u64> = Vec::new();
        for (&token, backend) in backends.iter_mut() {
            backend.io.flush(&poller, token);
            if backend.io.dead {
                dead_backends.push(token);
            }
        }
        for token in dead_clients {
            drop_client(&poller, &mut clients, &mut backends, token);
        }
        for token in dead_backends {
            drop_backend(&poller, &mut clients, &mut backends, token);
        }
    }

    for (_, c) in clients.drain() {
        c.io.close(&poller);
    }
    for (_, b) in backends.drain() {
        b.io.close(&poller);
    }
}

fn client_read(
    clients: &mut HashMap<u64, ClientConn>,
    backends: &mut HashMap<u64, BackendConn>,
    token: u64,
) {
    let Some(client) = clients.get_mut(&token) else {
        return;
    };
    let inbound = client.io.read();
    let mut forward_cancel: Option<u64> = None;
    for payload in inbound.frames {
        match &mut client.relay {
            Some(relay)
                if relay.streaming && sniff_tag(&payload) == Some(TAG_CANCEL) =>
            {
                casted_obs::inc("serve.shard.cancels");
                relay.cancel_forwarded = true;
                forward_cancel = Some(relay.backend);
            }
            Some(_) if client.inbox.len() >= INBOX_CAP => {
                client.io.push_response(&Response::Busy);
            }
            _ => client.inbox.push_back(payload),
        }
    }
    if let Some(len) = inbound.oversized {
        client.io.reject_oversized(len);
    }
    if let Some(btok) = forward_cancel {
        if let Some(backend) = backends.get_mut(&btok) {
            backend.io.push_frame(&encode_request(&Request::Cancel));
        }
    }
}

fn backend_read(
    clients: &mut HashMap<u64, ClientConn>,
    backends: &mut HashMap<u64, BackendConn>,
    token: u64,
) {
    let Some(backend) = backends.get_mut(&token) else {
        return;
    };
    let inbound = backend.io.read();
    if inbound.oversized.is_some() {
        // A shard never sends one: treat its stream as lost.
        backend.io.dead = true;
    }
    if let Some(client) = clients.get_mut(&backend.client) {
        for payload in inbound.frames {
            // Relay verbatim — byte-identity is the router's contract.
            client.io.push_frame(&payload);
            let Some(relay) = client.relay.as_mut() else {
                continue; // unsolicited frame; relayed and ignored
            };
            if relay.backend != token {
                continue;
            }
            let done = if relay.awaiting_extra {
                // This is the raced Cancel's own (Err) reply.
                true
            } else {
                match sniff_tag(&payload) {
                    Some(TAG_PROGRESS) => false, // keep relaying
                    Some(TAG_CANCELLED) => true,
                    // Any other (or unsniffable) frame is terminal. If
                    // a Cancel raced a non-Cancelled terminal, the
                    // shard owes one more reply (the late-cancel rule).
                    _ => {
                        if relay.cancel_forwarded {
                            relay.awaiting_extra = true;
                            false
                        } else {
                            true
                        }
                    }
                }
            };
            if done {
                client.relay = None;
            }
        }
    }
}

/// Route one idle-client request. Control requests are answered
/// locally; work requests forward to `Fnv64(payload) % shards`.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    shared: &Arc<RouterShared>,
    shards: &[String],
    poller: &Poller,
    clients: &mut HashMap<u64, ClientConn>,
    backends: &mut HashMap<u64, BackendConn>,
    next_token: &mut u64,
    token: u64,
    payload: Vec<u8>,
) {
    match sniff_tag(&payload) {
        Some(TAG_PING) => {
            if let Some(client) = clients.get_mut(&token) {
                client.io.push_response(&Response::Pong);
            }
        }
        Some(TAG_COUNTERS) => {
            // The router's own snapshot (serve.shard.* routing
            // counters); shard execution counters live in the shards.
            if let Some(client) = clients.get_mut(&token) {
                client
                    .io
                    .push_response(&Response::Counters(casted_obs::snapshot_json()));
            }
        }
        Some(TAG_CANCEL) => {
            if let Some(client) = clients.get_mut(&token) {
                client
                    .io
                    .push_response(&Response::Err("no streaming campaign in flight".into()));
            }
        }
        Some(TAG_SHUTDOWN) => {
            // Fleet shutdown: every shard drains, then the router does.
            shutdown_shards(shards);
            if let Some(client) = clients.get_mut(&token) {
                client.io.push_response(&Response::ShuttingDown);
                client.io.close_after_flush = true;
            }
            shared.initiate_shutdown();
        }
        Some(tag @ 2..=4) | Some(tag @ TAG_INJECT_STREAM) => {
            let shard = (cache_key(&payload) % shards.len() as u64) as usize;
            casted_obs::inc("serve.shard.requests");
            casted_obs::inc(shard_counter(shard));
            let streaming = tag == TAG_INJECT_STREAM;
            match ensure_backend(shards, poller, clients, backends, next_token, token, shard) {
                Ok(btok) => {
                    if let Some(backend) = backends.get_mut(&btok) {
                        backend.io.push_frame(&payload);
                    }
                    if let Some(client) = clients.get_mut(&token) {
                        client.relay = Some(Relay {
                            backend: btok,
                            streaming,
                            cancel_forwarded: false,
                            awaiting_extra: false,
                        });
                    }
                }
                Err(e) => {
                    casted_obs::inc("serve.shard.backend_errors");
                    if let Some(client) = clients.get_mut(&token) {
                        client.io.push_response(&Response::Err(format!(
                            "shard {shard} unavailable: {e}"
                        )));
                    }
                }
            }
        }
        _ => {
            // Not a recognizable canonical request: decode for the
            // error text and close, like the server does.
            let msg = match decode_request(&payload) {
                Ok(req) => format!("unroutable request {}", req.kind()),
                Err(e) => format!("bad request: {e}"),
            };
            if let Some(client) = clients.get_mut(&token) {
                client.io.push_response(&Response::Err(msg));
                client.io.close_after_flush = true;
            }
        }
    }
}

/// Find or open this client's backend connection to `shard`.
fn ensure_backend(
    shards: &[String],
    poller: &Poller,
    clients: &mut HashMap<u64, ClientConn>,
    backends: &mut HashMap<u64, BackendConn>,
    next_token: &mut u64,
    client_token: u64,
    shard: usize,
) -> io::Result<u64> {
    if let Some(client) = clients.get(&client_token) {
        if let Some(&btok) = client.backends.get(&shard) {
            if backends.contains_key(&btok) {
                return Ok(btok);
            }
        }
    }
    // Loopback connect: effectively instant, done inline.
    let stream = TcpStream::connect(&shards[shard])?;
    let token = *next_token;
    *next_token += 1;
    backends.insert(
        token,
        BackendConn {
            io: FramedConn::register(stream, poller, token)?,
            client: client_token,
            shard,
        },
    );
    if let Some(client) = clients.get_mut(&client_token) {
        client.backends.insert(shard, token);
    }
    Ok(token)
}

/// Forward `Shutdown` to every shard on fresh short-lived connections.
fn shutdown_shards(shards: &[String]) {
    let frame = encode_request(&Request::Shutdown);
    for addr in shards {
        let Some(resolved) = addr.to_socket_addrs().ok().and_then(|mut it| it.next()) else {
            continue;
        };
        let Ok(mut s) = TcpStream::connect_timeout(&resolved, Duration::from_secs(1)) else {
            continue;
        };
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        if write_frame(&mut s, &frame).is_ok() {
            let _ = read_frame(&mut s, MAX_FRAME);
        }
    }
}

/// A client vanished: close its backend connections too (a shard
/// streaming to a dropped backend cancels at its next chunk).
fn drop_client(
    poller: &Poller,
    clients: &mut HashMap<u64, ClientConn>,
    backends: &mut HashMap<u64, BackendConn>,
    token: u64,
) {
    let Some(client) = clients.remove(&token) else {
        return;
    };
    client.io.close(poller);
    for (_, btok) in client.backends {
        if let Some(backend) = backends.remove(&btok) {
            backend.io.close(poller);
        }
    }
}

/// A backend died: a client mid-relay on it gets a structured error
/// and is closed (its other backends are dropped with it).
fn drop_backend(
    poller: &Poller,
    clients: &mut HashMap<u64, ClientConn>,
    backends: &mut HashMap<u64, BackendConn>,
    token: u64,
) {
    let Some(backend) = backends.remove(&token) else {
        return;
    };
    backend.io.close(poller);
    if let Some(client) = clients.get_mut(&backend.client) {
        client.backends.remove(&backend.shard);
        if client.relay.as_ref().is_some_and(|r| r.backend == token) {
            casted_obs::inc("serve.shard.backend_errors");
            client.relay = None;
            client
                .io
                .push_response(&Response::Err("shard connection lost".into()));
            client.io.close_after_flush = true;
        }
    }
}
