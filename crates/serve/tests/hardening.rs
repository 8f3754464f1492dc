//! Hardening and backpressure tests: garbage bytes cannot panic or
//! wedge a worker, sources nested past the parser's limit get a
//! structured error instead of a stack overflow (and one that inlines
//! past the front end's size limit instead of an OOM), queue-full
//! returns `Busy` without buffering, and shutdown drains accepted work
//! before exiting.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use casted::frontend::{MAX_INLINED_INSNS, MAX_NESTING};
use casted::service_api::JobSpec;
use casted::Scheme;
use casted_faults::Engine;
use casted_serve::cache::CacheConfig;
use casted_serve::client::Client;
use casted_serve::protocol::{encode_request, Request, Response, MAX_FRAME, PROTOCOL_VERSION};
use casted_serve::server::{Server, ServerConfig};

const SRC: &str = "fn main() { var s: int = 0; for i in 0..30 { s = s + i; } out(s); }";

fn spec() -> JobSpec {
    JobSpec {
        source: SRC.into(),
        scheme: Scheme::Casted,
        issue: 2,
        delay: 2,
    }
}

/// A request that keeps one worker busy for a while: a Monte-Carlo
/// campaign on the reference engine re-runs the target from cycle 0
/// once per trial, so the loop count × trial count is a work-duration
/// dial that does not depend on machine speed for correctness (only
/// the *amount* of work is fixed). Sized to hold the worker for well
/// over a second — the backpressure tests below need it still running
/// after several hundred ms of setup sleeps.
fn slow_request(seed: u64) -> Request {
    Request::Inject {
        spec: JobSpec {
            source: "fn main() { var s: int = 0; for i in 0..1200 { s = s + i; } out(s); }"
                .into(),
            scheme: Scheme::Casted,
            issue: 2,
            delay: 2,
        },
        trials: 1500,
        seed,
        engine: Engine::Reference,
    }
}

#[test]
fn garbage_bytes_get_structured_err_and_clean_close() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    // 1. A well-framed payload of garbage: structured Err, then close.
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = c.request_raw(&[0xde, 0xad, 0xbe, 0xef, 0x00]).unwrap();
    match casted_serve::protocol::decode_response(&reply).unwrap() {
        Response::Err(msg) => assert!(msg.contains("bad request"), "{msg}"),
        other => panic!("expected Err reply, got {other:?}"),
    }
    assert_eq!(c.read_reply().unwrap(), None, "server must close after garbage");

    // 2. A frame that decodes to a valid version but a junk tag.
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = c.request_raw(&[PROTOCOL_VERSION, 0x7f]).unwrap();
    assert!(matches!(
        casted_serve::protocol::decode_response(&reply).unwrap(),
        Response::Err(_)
    ));

    // 3. An oversized length prefix: structured Err before any read of
    //    the (absent) payload.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let reply = casted_util::codec::read_frame(&mut raw, MAX_FRAME)
        .unwrap()
        .expect("structured reply to oversized frame");
    assert_eq!(
        casted_serve::protocol::decode_response(&reply).unwrap(),
        Response::Err(format!(
            "bad frame: length {} exceeds limit {MAX_FRAME}",
            u32::MAX
        ))
    );
    assert_eq!(
        casted_util::codec::read_frame(&mut raw, MAX_FRAME).unwrap(),
        None,
        "server must close after an oversized prefix"
    );

    // 4. A connection that dies mid-frame: the server just drops it.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&100u32.to_le_bytes()).unwrap();
    raw.write_all(&[0xab; 10]).unwrap(); // 90 bytes short
    drop(raw);

    // After all of that abuse, real work still succeeds — no worker is
    // wedged and nothing panicked.
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    match c.request(&Request::Compile { spec: spec() }).unwrap() {
        Response::Compiled(r) => assert!(r.bundles > 0),
        other => panic!("expected Compiled, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn deeply_nested_sources_get_structured_err_and_server_stays_up() {
    // The hostile-input corpus. The first five overflowed a worker's
    // stack before the nesting limit, taking the whole process down:
    // in the parser, in codegen (32 shallow functions inlined into one
    // another) or in sema's call-graph search (a 10,000-function call
    // chain). The last, 23 functions each calling the one before twice,
    // asked inlining for gigabytes and aborted the process before the
    // inline-size limit.
    let parens = format!(
        "fn main() {{ var x: int = {}1{}; out(x); }}",
        "(".repeat(3_000),
        ")".repeat(3_000)
    );
    let sum = format!("fn main() {{ out({}); }}", ["1"; 30_000].join("+"));
    let ifs = format!(
        "fn main() {{ {} out(1); {} }}",
        "if 1 < 2 { ".repeat(5_000),
        "}".repeat(5_000)
    );
    let inlined: String = (0..32)
        .map(|k| {
            let body = "- ".repeat(250);
            format!("fn g{k}(x: int) -> int {{ return {body}g{}(x); }} ", k + 1)
        })
        .collect::<String>()
        + "fn g32(x: int) -> int { return x; } fn main() { out(g0(1)); }";
    let chain: String = (0..10_000)
        .map(|k| format!("fn g{k}() {{ g{}(); }} ", k + 1))
        .collect::<String>()
        + "fn g10000() { } fn main() { g0(); }";
    let fan_out: String = (1..23)
        .map(|k| format!("fn f{k}(x: int) -> int {{ return f{}(x) + f{}(x); }}\n", k - 1, k - 1))
        .collect();
    let fan_out =
        format!("fn f0(x: int) -> int {{ return x + 1; }}\n{fan_out}fn main() {{ out(f22(1)); }}");
    let nesting = format!("compile failed: line 1: nesting depth exceeds limit {MAX_NESTING}");
    let inline_size = format!("inlined code exceeds limit {MAX_INLINED_INSNS} IR instructions");
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    for (source, want) in [
        (parens, &nesting),
        (sum, &nesting),
        (ifs, &nesting),
        (inlined, &nesting),
        (chain, &nesting),
        (fan_out, &inline_size),
    ] {
        let req = Request::Compile {
            spec: JobSpec { source, ..spec() },
        };
        match c.request(&req).unwrap() {
            Response::Err(msg) => assert!(msg.contains(want.as_str()), "{msg}"),
            other => panic!("expected Err, got {other:?}"),
        }
    }
    assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
    match c
        .request(&Request::Simulate {
            spec: spec(),
            max_cycles: u64::MAX,
        })
        .unwrap()
    {
        Response::Simulated(r) => assert!(r.cycles > 0),
        other => panic!("expected Simulated, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn queue_full_returns_busy_without_buffering() {
    // One worker, queue of one: streaming campaign A holds the worker,
    // B sits in the queue, C must bounce with Busy immediately. Each
    // step waits for the state it needs, never for a fixed time. A is
    // sized to run for seconds even in an optimized build (its slow
    // program replays 20,000 trials in about 0.9 s there).
    const HOLD_TRIALS: u64 = 200_000;
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        max_trials: HOLD_TRIALS,
        cache: CacheConfig { byte_budget: 0 }, // no cache: every request is a miss
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // A: a campaign far longer than the test, cancelled at its end.
    // Its first Progress frame proves it holds the worker.
    let mut a = Client::connect(addr).unwrap();
    let mut cancel_a = a.canceller().unwrap();
    let (running_tx, running_rx) = std::sync::mpsc::channel();
    let a = std::thread::spawn(move || {
        let Request::Inject { spec, seed, engine, .. } = slow_request(1) else {
            unreachable!()
        };
        let hold = Request::InjectStream {
            spec,
            trials: HOLD_TRIALS,
            seed,
            engine,
            every: 1,
        };
        let mut running = Some(running_tx);
        a.request_stream(&hold, &mut |_, _| {
            if let Some(tx) = running.take() {
                tx.send(()).unwrap();
            }
            true
        })
        .unwrap()
    });
    running_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("campaign A never reported progress");

    // B: queued behind A.
    let b = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request(&Request::Inject {
            spec: spec(),
            trials: 40,
            seed: 2,
            engine: Engine::Reference,
        })
        .unwrap()
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.queued_jobs() == 0 {
        assert!(Instant::now() < deadline, "request B never reached the queue");
        std::thread::sleep(Duration::from_millis(1));
    }

    // C arrives while the worker chews A and the queue holds B.
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = Instant::now();
    let resp_c = c.request(&slow_request(3)).unwrap();
    assert_eq!(resp_c, Response::Busy, "queue-full must bounce immediately");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "Busy must not wait for the queue to drain"
    );

    // Cancelling A frees the worker; B still completes correctly —
    // backpressure dropped C only.
    cancel_a.cancel().unwrap();
    match a.join().unwrap() {
        Response::Cancelled { done, .. } => assert!(done >= 1),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    match b.join().unwrap() {
        Response::Injected(i) => assert_eq!(i.trials, 40),
        other => panic!("expected Injected, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_queued_work_before_exit() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Occupy the single worker, then queue one more job behind it.
    let early = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request(&slow_request(10)).unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request(&slow_request(11)).unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));

    // Ask for shutdown while both jobs are outstanding.
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.request(&Request::Shutdown).unwrap(), Response::ShuttingDown);

    // Both in-flight jobs still get real replies: drain, don't drop.
    for handle in [early, queued] {
        match handle.join().unwrap() {
            Response::Injected(i) => assert_eq!(i.trials, 1500),
            other => panic!("expected Injected, got {other:?}"),
        }
    }

    // New work after the drain is refused or the port is gone.
    match Client::connect(addr) {
        Ok(mut c) => {
            let _ = c.set_timeout(Some(Duration::from_secs(5)));
            match c.request(&Request::Ping) {
                Ok(Response::ShuttingDown) | Err(_) => {}
                Ok(other) => panic!("post-shutdown request answered: {other:?}"),
            }
        }
        Err(_) => {} // listener already closed
    }
    server.wait();
}

#[test]
fn request_raw_roundtrip_matches_typed_path() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let req = Request::Simulate {
        spec: spec(),
        max_cycles: u64::MAX,
    };
    let raw = c.request_raw(&encode_request(&req)).unwrap();
    let typed = c.request(&req).unwrap();
    assert_eq!(
        casted_serve::protocol::decode_response(&raw).unwrap(),
        typed,
        "raw and typed paths must agree"
    );
    server.shutdown();
}
