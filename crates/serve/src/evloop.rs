//! The event-driven connection front end.
//!
//! One loop thread owns the listener and every connection through
//! [`casted_util::poll`] (epoll on Linux); the socket side of each
//! connection (frame assembly, buffered writes, write interest) is
//! the [`FramedConn`] core. Cache hits,
//! pings, counters and admission rejections are answered inline on
//! the loop; cache-missing work is queued for the worker pool, which
//! posts encoded reply frames back through [`Shared::post_completion`]
//! plus a poller wakeup — the loop never sleeps and never polls a
//! flag.
//!
//! Per-connection state machine:
//!
//! ```text
//!   Idle ──work frame──► Busy ──terminal completion──► Idle
//!    │                    │
//!    │                    ├─ streaming: Cancel frame → flip the
//!    │                    │  campaign's cancel flag (next chunk stops)
//!    │                    └─ other frames → inbox (served after the
//!    │                       terminal frame, in order)
//!    └─ Ping/Counters/cache hit/Throttled: replied inline
//! ```
//!
//! Shutdown: once [`Shared::initiate_shutdown`] fires, the loop drops
//! the listener, keeps running until every queued job's terminal frame
//! is flushed, then closes the remaining connections and returns.

use std::collections::{HashMap, VecDeque};
use std::net::{IpAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use casted_util::poll::{Event, Poller};

use crate::conn::{accept_pending, FramedConn};
use crate::protocol::{cache_key, decode_request, Request, Response};
use crate::server::{admit, kind_counter, Job, PushError, Shared};

/// Poller token for the listener; connection tokens count up from 1.
/// (`u64::MAX` is the poller's internal wakeup token.)
pub(crate) const LISTENER: u64 = 0;

/// Frames buffered behind a busy connection before further requests
/// get an immediate `Busy` instead — bounds per-connection memory the
/// same way the job queue bounds server-wide memory.
const INBOX_CAP: usize = 64;

/// Upper bound on one kernel wait; completions and shutdowns arrive
/// with an explicit wakeup, this is defense against a lost one.
const WAIT_SLICE: Duration = Duration::from_millis(500);

struct Conn {
    io: FramedConn,
    peer: IpAddr,
    /// Complete request payloads waiting for the connection to go idle.
    inbox: VecDeque<Vec<u8>>,
    /// A job for this connection is queued or executing.
    busy: bool,
    /// Cancel flag of the in-flight streaming campaign, if any.
    stream_cancel: Option<Arc<AtomicBool>>,
    /// A Cancel raced the final chunk; the client is owed a reply if
    /// the terminal frame turns out not to be `Cancelled`.
    pending_cancel: bool,
    /// Latency span from dispatch to terminal frame.
    span: Option<casted_obs::Span>,
}

/// Run the loop until shutdown completes. Never returns while a queued
/// job's reply is undelivered. `listener` is nonblocking and already
/// registered on `poller` under [`LISTENER`].
pub(crate) fn run(listener: TcpListener, shared: &Arc<Shared>, poller: Poller) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events: Vec<Event> = Vec::new();
    // Jobs queued for a connection whose terminal frame has not come
    // back yet; the drain waits for this to reach zero.
    let mut pending_jobs: usize = 0;
    let mut listener_live = true;

    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        if stopping {
            if listener_live {
                let _ = poller.remove(&listener);
                listener_live = false;
            }
            if pending_jobs == 0 && conns.values().all(|c| c.io.flushed()) {
                break;
            }
        }

        events.clear();
        let _ = poller.wait(&mut events, Some(WAIT_SLICE));

        // 1. Worker completions → connection write buffers.
        let completions = std::mem::take(
            &mut *shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for c in completions {
            if c.terminal {
                pending_jobs -= 1;
            }
            // The connection may have died while its job ran; the
            // frame is dropped but the accounting above still runs.
            let Some(conn) = conns.get_mut(&c.conn) else {
                continue;
            };
            conn.io.push_frame(&c.payload);
            if c.terminal {
                conn.busy = false;
                conn.stream_cancel = None;
                conn.span = None;
                if std::mem::take(&mut conn.pending_cancel) && !c.cancelled {
                    // The cancel lost the race with the final chunk:
                    // the terminal was a full `Injected`, so the
                    // Cancel request still gets its own reply.
                    conn.io.push_response(&Response::Err(
                        "cancel arrived after campaign completion".into(),
                    ));
                }
            }
        }

        // 2. Socket readiness.
        for ev in &events {
            if ev.token == LISTENER {
                accept_pending(&listener, |stream, addr| {
                    if stopping {
                        return; // drained on the floor; the drop closes it
                    }
                    casted_obs::inc("serve.connections");
                    let token = next_token;
                    next_token += 1;
                    if let Ok(io) = FramedConn::register(stream, &poller, token) {
                        conns.insert(
                            token,
                            Conn {
                                io,
                                peer: addr.ip(),
                                inbox: VecDeque::new(),
                                busy: false,
                                stream_cancel: None,
                                pending_cancel: false,
                                span: None,
                            },
                        );
                    }
                });
            } else if let Some(conn) = conns.get_mut(&ev.token) {
                if ev.readable || ev.closed {
                    conn_read(conn);
                }
            }
        }

        // 3. Dispatch idle connections' inboxes, flush, retire.
        let mut dead: Vec<u64> = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            while !conn.busy && !conn.io.dead && !conn.io.close_after_flush {
                let Some(payload) = conn.inbox.pop_front() else {
                    break;
                };
                dispatch(shared, conn, token, payload, &mut pending_jobs);
            }
            conn.io.flush(&poller, token);
            if conn.io.dead {
                dead.push(token);
            }
        }
        for token in dead {
            if let Some(conn) = conns.remove(&token) {
                close(&conn, &poller);
            }
        }
    }

    for (_, conn) in conns.drain() {
        close(&conn, &poller);
    }
}

/// Retire a connection. A campaign still streaming to it stops at its
/// next chunk boundary.
fn close(conn: &Conn, poller: &Poller) {
    if let Some(cancel) = &conn.stream_cancel {
        cancel.store(true, Ordering::SeqCst);
    }
    conn.io.close(poller);
}

/// Assemble readable frames into the inbox (or act on them at once: a
/// Cancel during a stream).
fn conn_read(conn: &mut Conn) {
    let inbound = conn.io.read();
    for payload in inbound.frames {
        route_frame(conn, payload);
    }
    if let Some(len) = inbound.oversized {
        casted_obs::inc("serve.errors");
        conn.io.reject_oversized(len);
    }
}

/// One complete frame arrived: act on a mid-stream Cancel now,
/// otherwise park it in the inbox for the dispatch pass.
fn route_frame(conn: &mut Conn, payload: Vec<u8>) {
    if conn.busy {
        if conn.stream_cancel.is_some()
            && matches!(decode_request(&payload), Ok(Request::Cancel))
        {
            casted_obs::inc("serve.requests");
            casted_obs::inc("serve.requests.cancel");
            if let Some(cancel) = &conn.stream_cancel {
                cancel.store(true, Ordering::SeqCst);
            }
            conn.pending_cancel = true;
            return;
        }
        if conn.inbox.len() >= INBOX_CAP {
            casted_obs::inc("serve.busy");
            conn.io.push_response(&Response::Busy);
            return;
        }
    }
    conn.inbox.push_back(payload);
}

/// Handle one request on an idle connection: reply inline, or hand it
/// to the worker pool and mark the connection busy.
fn dispatch(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    token: u64,
    payload: Vec<u8>,
    pending_jobs: &mut usize,
) {
    casted_obs::inc("serve.requests");
    // Cache fast path: the canonical payload *is* the cache key, so a
    // repeated work request (Compile/Simulate/Inject, tags 2..=4) can
    // be answered straight from the reply cache without decoding the
    // request at all — the dominant case under cached load.
    let mut checked_key: Option<u64> = None;
    if payload.first() == Some(&crate::protocol::PROTOCOL_VERSION) {
        if let Some(tag @ 2..=4) = payload.get(1).copied() {
            let key = cache_key(&payload);
            if let Some(bytes) = shared.cache.get(key) {
                let _span = casted_obs::span("serve.request_ns");
                casted_obs::inc(match tag {
                    2 => "serve.requests.compile",
                    3 => "serve.requests.simulate",
                    _ => "serve.requests.inject",
                });
                conn.io.push_frame(&bytes);
                return;
            }
            checked_key = Some(key);
        }
    }
    let req = match decode_request(&payload) {
        Ok(r) => r,
        Err(e) => {
            casted_obs::inc("serve.errors");
            conn.io
                .push_response(&Response::Err(format!("bad request: {e}")));
            conn.io.close_after_flush = true;
            return;
        }
    };
    casted_obs::inc(kind_counter(&req));
    match req {
        Request::Ping => {
            let _span = casted_obs::span("serve.request_ns");
            conn.io.push_response(&Response::Pong);
        }
        Request::Counters => {
            let _span = casted_obs::span("serve.request_ns");
            conn.io
                .push_response(&Response::Counters(casted_obs::snapshot_json()));
        }
        Request::Shutdown => {
            conn.io.push_response(&Response::ShuttingDown);
            conn.io.close_after_flush = true;
            shared.initiate_shutdown();
        }
        Request::Cancel => {
            // Reaching dispatch means no stream is in flight here (a
            // mid-stream Cancel is consumed in `route_frame`).
            conn.io
                .push_response(&Response::Err("no streaming campaign in flight".into()));
        }
        req @ Request::InjectStream { .. } => {
            if let Some(resp) = admit(shared, conn.peer) {
                conn.io.push_response(&resp);
                return;
            }
            let cancel = Arc::new(AtomicBool::new(false));
            let span = casted_obs::span("serve.request_ns");
            match shared.queue.try_push(Job {
                req,
                key: cache_key(&payload),
                enqueued: Instant::now(),
                cancel: Some(cancel.clone()),
                conn: token,
            }) {
                Ok(depth) => {
                    casted_obs::gauge_set("serve.queue_depth", depth as u64);
                    conn.busy = true;
                    conn.stream_cancel = Some(cancel);
                    conn.span = Some(span);
                    *pending_jobs += 1;
                }
                Err(PushError::Full) => {
                    casted_obs::inc("serve.busy");
                    conn.io.push_response(&Response::Busy);
                }
                Err(PushError::Closed) => conn.io.push_response(&Response::ShuttingDown),
            }
        }
        req => {
            // A `checked_key` means the fast path above already probed
            // the cache and missed; don't probe (and count) twice.
            let key = checked_key.unwrap_or_else(|| cache_key(&payload));
            if checked_key.is_none() {
                if let Some(bytes) = shared.cache.get(key) {
                    let _span = casted_obs::span("serve.request_ns");
                    conn.io.push_frame(&bytes);
                    return;
                }
            }
            if let Some(resp) = admit(shared, conn.peer) {
                conn.io.push_response(&resp);
                return;
            }
            let span = casted_obs::span("serve.request_ns");
            match shared.queue.try_push(Job {
                req,
                key,
                enqueued: Instant::now(),
                cancel: None,
                conn: token,
            }) {
                Ok(depth) => {
                    casted_obs::gauge_set("serve.queue_depth", depth as u64);
                    conn.busy = true;
                    conn.span = Some(span);
                    *pending_jobs += 1;
                }
                Err(PushError::Full) => {
                    casted_obs::inc("serve.busy");
                    conn.io.push_response(&Response::Busy);
                }
                Err(PushError::Closed) => conn.io.push_response(&Response::ShuttingDown),
            }
        }
    }
}
