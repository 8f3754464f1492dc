//! Integration tests for the streaming-campaign protocol extension
//! and structured admission control, over real loopback TCP.
//!
//! The core contracts under test:
//! * the terminal frame of a streaming campaign is **byte-identical**
//!   to the non-streaming `Inject` reply for the same job;
//! * cancelling mid-campaign yields a `Cancelled` whose partial tally
//!   prefix-matches an uncancelled run's progress at the same trial
//!   count, and leaves the server fully healthy;
//! * a cancel that arrives too late to stop the campaign still gets
//!   its own `Err` reply after the full one (the late-cancel rule);
//! * token-bucket quota exhaustion yields `Throttled` with a finite
//!   retry hint; queue-deadline expiry yields `Expired` without the
//!   job ever executing;
//! * graceful shutdown drains promptly — it is driven by wakeups, not
//!   sleep timing;
//! * with a section store, inject replies stay byte-identical to the
//!   reference engine and a reply-cache miss on a seen program reuses
//!   sections; an unusable store directory fails `Server::start`.

use std::time::{Duration, Instant};

use casted::service_api::{self, JobSpec};
use casted::Scheme;
use casted_faults::Engine;
use casted_serve::admission::{AdmissionConfig, Clock};
use casted_serve::client::Client;
use casted_serve::protocol::{decode_response, encode_request, Request, Response};
use casted_serve::server::{Server, ServerConfig};

const SRC: &str = "fn main() { var s: int = 0; for i in 0..40 { s = s + i * i; } out(s); }";

fn spec() -> JobSpec {
    JobSpec {
        source: SRC.into(),
        scheme: Scheme::Casted,
        issue: 2,
        delay: 2,
    }
}

fn start() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

fn stream_req(trials: u64, every: u64) -> Request {
    Request::InjectStream {
        spec: spec(),
        trials,
        seed: 0xCA57ED,
        engine: Engine::default(),
        every,
    }
}

/// Drive a streaming request frame by frame, returning the raw reply
/// payloads up to and including the terminal frame.
fn stream_frames(client: &mut Client, req: &Request) -> Vec<Vec<u8>> {
    client.send_raw(&encode_request(req)).unwrap();
    let mut frames = Vec::new();
    loop {
        let payload = client
            .read_reply()
            .unwrap()
            .expect("server closed mid-stream");
        let terminal = decode_response(&payload).unwrap().terminal();
        frames.push(payload);
        if terminal {
            return frames;
        }
    }
}

#[test]
fn streaming_final_frame_is_byte_identical_to_non_streaming_reply() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();

    let frames = stream_frames(&mut client, &stream_req(200, 50));
    let (progress, terminal) = frames.split_at(frames.len() - 1);
    assert!(
        !progress.is_empty(),
        "a 200-trial campaign at every=50 must emit progress frames"
    );
    let mut last_done = 0;
    for frame in progress {
        match decode_response(frame).unwrap() {
            Response::Progress { done, counts } => {
                assert!(done > last_done, "progress must be monotone");
                assert_eq!(done % 50, 0, "chunks land on every-boundaries");
                assert_eq!(
                    counts.iter().sum::<u64>(),
                    done,
                    "tally must account for every completed trial"
                );
                last_done = done;
            }
            other => panic!("unexpected mid-stream frame {other:?}"),
        }
    }

    // The exact bytes a non-streaming Inject writes for this job.
    let plain = client
        .request_raw(&encode_request(&Request::Inject {
            spec: spec(),
            trials: 200,
            seed: 0xCA57ED,
            engine: Engine::default(),
        }))
        .unwrap();
    assert_eq!(
        terminal[0], plain,
        "streaming terminal frame must be byte-identical to the \
         non-streaming reply"
    );
    server.shutdown();
}

#[test]
fn cancel_mid_campaign_prefix_matches_and_server_stays_healthy() {
    let server = start();
    let addr = server.addr();
    let req = stream_req(5_000, 25);

    // Reference run, uncancelled: record the tally at every chunk.
    let mut reference = Client::connect(addr).unwrap();
    let mut tally_at = std::collections::HashMap::new();
    for frame in stream_frames(&mut reference, &req) {
        if let Response::Progress { done, counts } = decode_response(&frame).unwrap() {
            tally_at.insert(done, counts);
        }
    }

    // Cancelled run: stop at the first progress frame.
    let mut client = Client::connect(addr).unwrap();
    let terminal = client
        .request_stream(&req, &mut |_done, _counts| false)
        .unwrap();
    let Response::Cancelled { done, counts } = terminal else {
        panic!("expected Cancelled, got {terminal:?}");
    };
    assert!(
        done > 0 && done < 5_000,
        "cancel must land mid-campaign (done={done})"
    );
    assert_eq!(
        Some(&counts),
        tally_at.get(&done),
        "partial tally must prefix-match the uncancelled run at {done} trials"
    );

    // The same connection keeps working after a cancel...
    assert!(matches!(
        client.request(&Request::Ping).unwrap(),
        Response::Pong
    ));
    assert!(matches!(
        client.request(&Request::Compile { spec: spec() }).unwrap(),
        Response::Compiled(_)
    ));
    // ...and so does real work on a fresh connection.
    let mut fresh = Client::connect(addr).unwrap();
    match fresh
        .request(&Request::Simulate {
            spec: spec(),
            max_cycles: u64::MAX,
        })
        .unwrap()
    {
        Response::Simulated(_) => {}
        other => panic!("post-cancel simulate failed: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn late_cancel_gets_its_own_err_after_the_full_reply() {
    // Campaign A holds the only worker, so B's stream waits in the
    // queue while B's Cancel arrives. B is one chunk (trials < every):
    // it never reaches a chunk boundary to stop at, and runs whole.
    const HOLD_TRIALS: u64 = 200_000;
    let server = Server::start(ServerConfig {
        workers: 1,
        max_trials: HOLD_TRIALS,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();
    let a = Client::connect(addr).unwrap();
    let mut cancel_a = a.canceller().unwrap();
    let (running_tx, running_rx) = std::sync::mpsc::channel();
    let a = std::thread::spawn(move || {
        let mut a = a;
        let mut running = Some(running_tx);
        a.request_stream(&stream_req(HOLD_TRIALS, 1), &mut |_, _| {
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

    let mut b = Client::connect(addr).unwrap();
    b.send_raw(&encode_request(&stream_req(40, 100))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.queued_jobs() == 0 {
        assert!(
            Instant::now() < deadline,
            "B's stream never reached the queue"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    b.send_raw(&encode_request(&Request::Cancel)).unwrap();
    // A round trip on a third connection lets the loop read B's
    // Cancel before A lets go of the worker.
    let mut c = Client::connect(addr).unwrap();
    assert!(matches!(c.request(&Request::Ping).unwrap(), Response::Pong));
    cancel_a.cancel().unwrap();
    assert!(matches!(a.join().unwrap(), Response::Cancelled { .. }));

    let plain = c
        .request_raw(&encode_request(&Request::Inject {
            spec: spec(),
            trials: 40,
            seed: 0xCA57ED,
            engine: Engine::default(),
        }))
        .unwrap();
    assert_eq!(
        b.read_reply().unwrap(),
        Some(plain),
        "B's campaign ran whole"
    );
    assert_eq!(
        decode_response(&b.read_reply().unwrap().expect("the Cancel's reply")).unwrap(),
        Response::Err("cancel arrived after campaign completion".into())
    );
    assert!(matches!(b.request(&Request::Ping).unwrap(), Response::Pong));
    server.shutdown();
}

#[test]
fn cancel_without_a_stream_is_a_structured_error() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.request(&Request::Cancel).unwrap() {
        Response::Err(msg) => assert!(
            msg.contains("no streaming campaign"),
            "unexpected message {msg:?}"
        ),
        other => panic!("expected Err, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn quota_exhaustion_yields_throttled_with_retry_hint() {
    let server = Server::start(ServerConfig {
        workers: 2,
        admission: AdmissionConfig {
            quota_burst: 2,
            quota_refill_per_sec: 1,
            queue_deadline_ms: 0,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).unwrap();

    // Distinct sources so every request is a cache miss (hits are
    // free and do not consume quota).
    let work = |i: u64| Request::Simulate {
        spec: JobSpec {
            source: format!("fn main() {{ out({i}); }}"),
            scheme: Scheme::Casted,
            issue: 2,
            delay: 2,
        },
        max_cycles: u64::MAX,
    };
    for i in 0..2 {
        match client.request(&work(i)).unwrap() {
            Response::Simulated(_) => {}
            other => panic!("burst request {i} rejected: {other:?}"),
        }
    }
    match client.request(&work(2)).unwrap() {
        Response::Throttled { retry_after_ms } => assert!(
            retry_after_ms > 0 && retry_after_ms <= 3_600_000,
            "retry hint out of range: {retry_after_ms}"
        ),
        other => panic!("expected Throttled, got {other:?}"),
    }

    // Control traffic is never quota-limited.
    assert!(matches!(
        client.request(&Request::Ping).unwrap(),
        Response::Pong
    ));
    // Cache hits are free: re-request admitted work while throttled.
    match client.request(&work(0)).unwrap() {
        Response::Simulated(_) => {}
        other => panic!("cache hit must bypass quota: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn queue_deadline_drops_stale_jobs_before_execution() {
    casted_obs::set_enabled(true);
    // Admission time stands still until the test moves it, so no job
    // expires because the host is slow, and the queued one expires
    // because its deadline passed on the admission clock.
    let clock = Clock::manual();
    let server = Server::start(ServerConfig {
        workers: 1, // single worker: the stream below occupies it
        admission: AdmissionConfig {
            queue_deadline_ms: 1_000,
            clock: clock.clone(),
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();

    // Occupy the only worker with a streaming campaign, long enough to
    // outlast the steps below (it is cancelled after them)...
    let mut a = Client::connect(addr).unwrap();
    a.send_raw(&encode_request(&stream_req(20_000, 50))).unwrap();
    let first = a.read_reply().unwrap().expect("stream start");
    assert!(
        matches!(decode_response(&first).unwrap(), Response::Progress { .. }),
        "the stream must reach the worker"
    );

    // ...then queue a job that can only wait, and let more than its
    // deadline pass once it is queued.
    let mut b = Client::connect(addr).unwrap();
    b.send_raw(&encode_request(&Request::Simulate {
        spec: JobSpec {
            source: "fn main() { out(7); }".into(),
            scheme: Scheme::Casted,
            issue: 2,
            delay: 2,
        },
        max_cycles: u64::MAX,
    }))
    .unwrap();
    let give_up = Instant::now() + Duration::from_secs(60);
    while server.queued_jobs() == 0 {
        assert!(Instant::now() < give_up, "the second job was never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    clock.advance(Duration::from_millis(1_001));

    // Cancel A and drain it to its terminal so the worker reaches B.
    a.send_raw(&encode_request(&Request::Cancel)).unwrap();
    loop {
        let frame = a.read_reply().unwrap().expect("mid-stream EOF");
        if decode_response(&frame).unwrap().terminal() {
            break;
        }
    }
    let reply = decode_response(&b.read_reply().unwrap().unwrap()).unwrap();
    assert!(
        matches!(reply, Response::Expired),
        "stale queued job must expire, got {reply:?}"
    );

    // The drop is observable.
    let expired = match a.request(&Request::Counters).unwrap() {
        Response::Counters(json) => json
            .split("\"serve.admission.expired\": ")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0),
        other => panic!("unexpected counters reply {other:?}"),
    };
    assert!(expired >= 1, "serve.admission.expired must count the drop");
    server.shutdown();
}

#[test]
fn shutdown_drains_on_wakeups_not_sleep_timing() {
    let server = start();
    let addr = server.addr();

    // Idle connections plus one completed request: the drain must
    // not wait on any of them, and must not poll-sleep either.
    let _idle: Vec<Client> = (0..4).map(|_| Client::connect(addr).unwrap()).collect();
    let mut client = Client::connect(addr).unwrap();
    match client
        .request(&Request::Simulate {
            spec: spec(),
            max_cycles: u64::MAX,
        })
        .unwrap()
    {
        Response::Simulated(_) => {}
        other => panic!("warm-up failed: {other:?}"),
    }

    let start = Instant::now();
    assert!(matches!(
        client.request(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    server.wait();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "drain took {elapsed:?}; shutdown must be wakeup-driven, \
         not sleep-polled"
    );
}

#[test]
fn section_store_replies_are_exact_and_reuse_sections() {
    casted_obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("casted-serve-sections-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        workers: 2,
        section_cache: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("start with a section store");
    let mut client = Client::connect(server.addr()).unwrap();
    let reference = service_api::inject_tally(&spec(), 60, 7, Engine::Reference, u64::MAX).unwrap();
    // The whitespace edit misses the reply cache; the section store
    // answers it.
    for source in [SRC.to_string(), SRC.replace("{ ", "{\n    ")] {
        let req = Request::Inject {
            spec: JobSpec { source, ..spec() },
            trials: 60,
            seed: 7,
            engine: Engine::default(),
        };
        match client.request(&req).unwrap() {
            Response::Injected(r) => assert_eq!(r, reference, "section-store reply diverged"),
            other => panic!("unexpected inject reply {other:?}"),
        }
    }
    let hits = match client.request(&Request::Counters).unwrap() {
        Response::Counters(json) => json
            .split("\"faults.sections.hit\": ")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0),
        other => panic!("unexpected counters reply {other:?}"),
    };
    assert!(hits >= 1, "the edited request must recombine cached sections");
    server.shutdown();

    // A store directory under a regular file cannot be created.
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"x").unwrap();
    let started = Server::start(ServerConfig {
        section_cache: Some(file.join("sections")),
        ..ServerConfig::default()
    });
    assert!(started.is_err(), "an unusable section dir must fail start");
    let _ = std::fs::remove_dir_all(&dir);
}
