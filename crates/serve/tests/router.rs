//! Integration tests for the shard router over real loopback TCP:
//! routed replies are byte-identical to a single-process server's,
//! routing is consistent (no duplicated cache entries across shards),
//! streaming + cancellation work through the relay, a hostile length
//! prefix gets the server's structured reply, and a shard dying
//! mid-stream costs its client a structured error, never a hang.
//!
//! The router requires the event backend; on targets without it these
//! tests are skipped at runtime via `poll::available()`.

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use casted::service_api::JobSpec;
use casted::Scheme;
use casted_faults::Engine;
use casted_serve::client::Client;
use casted_serve::protocol::{
    decode_response, encode_request, encode_response, Request, Response, MAX_FRAME,
};
use casted_serve::router::{Router, RouterConfig};
use casted_serve::server::{Server, ServerConfig};
use casted_util::poll;

/// Counter-sensitive tests share the process-global obs registry;
/// serialize them so deltas are attributable.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn start_server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

fn start_fleet(shards: usize) -> (Vec<Server>, Router) {
    let servers: Vec<Server> = (0..shards).map(|_| start_server()).collect();
    let router = Router::start(RouterConfig {
        shards: servers.iter().map(|s| s.addr().to_string()).collect(),
        loops: 2,
        ..RouterConfig::default()
    })
    .expect("router start");
    (servers, router)
}

fn spec(i: u64) -> JobSpec {
    JobSpec {
        source: format!("fn main() {{ var s: int = {i}; for i in 0..30 {{ s = s + i * i; }} out(s); }}"),
        scheme: Scheme::Casted,
        issue: 2,
        delay: 2,
    }
}

fn workload() -> Vec<Request> {
    let mut reqs = Vec::new();
    for i in 0..8u64 {
        reqs.push(Request::Simulate {
            spec: spec(i),
            max_cycles: u64::MAX,
        });
    }
    reqs.push(Request::Compile { spec: spec(100) });
    reqs.push(Request::Inject {
        spec: spec(200),
        trials: 25,
        seed: 9,
        engine: Engine::default(),
    });
    reqs
}

#[test]
fn routed_replies_are_byte_identical_to_single_process() {
    if !poll::available() {
        eprintln!("poll backend unavailable; skipping router test");
        return;
    }
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let direct_server = start_server();
    let (shards, router) = start_fleet(2);
    let mut direct = Client::connect(direct_server.addr()).unwrap();
    let mut routed = Client::connect(router.addr()).unwrap();

    for req in workload() {
        let payload = encode_request(&req);
        let want = direct.request_raw(&payload).unwrap();
        let got = routed.request_raw(&payload).unwrap();
        assert_eq!(want, got, "routed reply differed for {req:?}");
        // And again: the second pass is a shard cache hit, still
        // byte-identical through the relay.
        let again = routed.request_raw(&payload).unwrap();
        assert_eq!(want, again, "routed cache hit differed for {req:?}");
        assert!(decode_response(&want).unwrap().cacheable());
    }

    // Router-local control plane.
    assert!(matches!(
        routed.request(&Request::Ping).unwrap(),
        Response::Pong
    ));
    match routed.request(&Request::Counters).unwrap() {
        Response::Counters(json) => assert!(
            json.contains("\"counters\""),
            "router counters should be a snapshot document, got {json:?}"
        ),
        other => panic!("unexpected counters reply {other:?}"),
    }

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
    direct_server.shutdown();
}

#[test]
fn routing_is_consistent_so_shards_never_duplicate_cache_entries() {
    if !poll::available() {
        eprintln!("poll backend unavailable; skipping router test");
        return;
    }
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    casted_obs::set_enabled(true);
    let (shards, router) = start_fleet(4);
    let mut client = Client::connect(router.addr()).unwrap();

    let payloads: Vec<Vec<u8>> = (0..24u64)
        .map(|i| {
            encode_request(&Request::Simulate {
                spec: spec(1_000 + i),
                max_cycles: u64::MAX,
            })
        })
        .collect();

    let cache_hits = || -> u64 {
        casted_obs::snapshot_json()
            .split("\"serve.cache.hit\": ")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    };

    // First pass computes (all misses), second pass must be all hits:
    // with content-hash routing every repeat lands on the shard that
    // already owns the entry. The shards share this process's counter
    // registry, so the delta is the fleet-wide hit count.
    for p in &payloads {
        let reply = client.request_raw(p).unwrap();
        assert!(decode_response(&reply).unwrap().cacheable());
    }
    let before = cache_hits();
    for p in &payloads {
        client.request_raw(p).unwrap();
    }
    let after = cache_hits();
    assert_eq!(
        after - before,
        payloads.len() as u64,
        "every repeated request must hit exactly one shard's cache"
    );

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn streaming_and_cancel_work_through_the_router() {
    if !poll::available() {
        eprintln!("poll backend unavailable; skipping router test");
        return;
    }
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (shards, router) = start_fleet(2);
    let mut client = Client::connect(router.addr()).unwrap();

    let req = Request::InjectStream {
        spec: spec(7),
        trials: 2_000,
        seed: 0xCA57ED,
        engine: Engine::default(),
        every: 25,
    };

    // Full run through the relay: progress frames arrive, terminal is
    // byte-identical to the non-streaming reply from the same fleet.
    let mut tally_at = HashMap::new();
    client.send_raw(&encode_request(&req)).unwrap();
    let terminal_bytes = loop {
        let frame = client.read_reply().unwrap().expect("mid-stream EOF");
        match decode_response(&frame).unwrap() {
            Response::Progress { done, counts } => {
                tally_at.insert(done, counts);
            }
            _ => break frame,
        }
    };
    assert!(!tally_at.is_empty(), "expected progress frames via router");
    let plain = client
        .request_raw(&encode_request(&Request::Inject {
            spec: spec(7),
            trials: 2_000,
            seed: 0xCA57ED,
            engine: Engine::default(),
        }))
        .unwrap();
    assert_eq!(
        terminal_bytes, plain,
        "streamed terminal frame must match the non-streaming reply through the router"
    );

    // Cancel mid-campaign through the relay; the tally prefix-matches
    // and the connection stays usable.
    let terminal = client.request_stream(&req, &mut |_d, _c| false).unwrap();
    let Response::Cancelled { done, counts } = terminal else {
        panic!("expected Cancelled through router, got {terminal:?}");
    };
    assert!(done > 0 && done < 2_000, "cancel must land mid-campaign");
    assert_eq!(
        Some(&counts),
        tally_at.get(&done),
        "router-relayed partial tally must prefix-match the full run"
    );
    assert!(matches!(
        client.request(&Request::Ping).unwrap(),
        Response::Pong
    ));
    match client
        .request(&Request::Simulate {
            spec: spec(7),
            max_cycles: u64::MAX,
        })
        .unwrap()
    {
        Response::Simulated(_) => {}
        other => panic!("post-cancel routed request failed: {other:?}"),
    }

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn oversized_length_prefix_gets_structured_err_and_clean_close() {
    if !poll::available() {
        eprintln!("poll backend unavailable; skipping router test");
        return;
    }
    let (shards, router) = start_fleet(1);

    // Mirrors the server's hardening case: the prefix alone earns the
    // structured reply, before any read of the (absent) payload.
    let mut raw = TcpStream::connect(router.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let reply = casted_util::codec::read_frame(&mut raw, MAX_FRAME)
        .unwrap()
        .expect("structured reply to oversized frame");
    assert_eq!(
        decode_response(&reply).unwrap(),
        Response::Err(format!(
            "bad frame: length {} exceeds limit {MAX_FRAME}",
            u32::MAX
        ))
    );
    assert_eq!(
        casted_util::codec::read_frame(&mut raw, MAX_FRAME).unwrap(),
        None,
        "router must close after an oversized prefix"
    );

    // The router itself is unharmed.
    let mut client = Client::connect(router.addr()).unwrap();
    assert!(matches!(
        client.request(&Request::Ping).unwrap(),
        Response::Pong
    ));
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn shard_dying_mid_stream_yields_err_then_eof() {
    if !poll::available() {
        eprintln!("poll backend unavailable; skipping router test");
        return;
    }
    // A fake shard: takes the relayed campaign, reports one chunk of
    // progress, then dies.
    let fake = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = fake.local_addr().unwrap();
    let progress = encode_response(&Response::Progress {
        done: 25,
        counts: [25, 0, 0, 0, 0, 0],
    });
    let shard_progress = progress.clone();
    let shard = std::thread::spawn(move || {
        let (mut s, _) = fake.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let relayed = casted_util::codec::read_frame(&mut s, MAX_FRAME)
            .unwrap()
            .expect("relayed request");
        casted_util::codec::write_frame(&mut s, &shard_progress).unwrap();
        s.flush().unwrap();
        relayed
    });
    let router = Router::start(RouterConfig {
        shards: vec![fake_addr.to_string()],
        loops: 1,
        ..RouterConfig::default()
    })
    .expect("router start");

    let req = Request::InjectStream {
        spec: spec(3),
        trials: 2_000,
        seed: 0xCA57ED,
        engine: Engine::default(),
        every: 25,
    };
    let mut client = Client::connect(router.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client.send_raw(&encode_request(&req)).unwrap();
    let relayed = shard.join().expect("fake shard");
    assert_eq!(relayed, encode_request(&req), "the request relays verbatim");

    assert_eq!(
        client.read_reply().unwrap(),
        Some(progress),
        "the progress frame written before the shard died arrives first"
    );
    assert_eq!(
        decode_response(&client.read_reply().unwrap().expect("error frame")).unwrap(),
        Response::Err("shard connection lost".into())
    );
    assert_eq!(
        client.read_reply().unwrap(),
        None,
        "the router closes the client after the shard error"
    );

    // Another client of the same router is unaffected.
    let mut other = Client::connect(router.addr()).unwrap();
    other.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        other.request(&Request::Ping).unwrap(),
        Response::Pong
    ));
    router.shutdown();
}
