//! Serve-level determinism gate: for the same request, the cached
//! reply and the cold-path reply are **byte-identical** — across
//! repeats on one server and across fresh server processes.
//!
//! This is the property the content-addressed cache rests on: the
//! cache stores encoded reply frames keyed by the canonical request
//! encoding, so a hit replays exactly what a recomputation would have
//! written. The test closes the loop end to end over the real TCP
//! path.

use casted::service_api::JobSpec;
use casted::Scheme;
use casted_faults::Engine;
use casted_serve::client::Client;
use casted_serve::protocol::{decode_response, encode_request, Request, Response};
use casted_serve::server::{Server, ServerConfig};

const SRC: &str =
    "fn main() { var s: int = 0; for i in 0..40 { s = s + i * i; } out(s); }";

fn spec(scheme: Scheme) -> JobSpec {
    JobSpec {
        source: SRC.into(),
        scheme,
        issue: 2,
        delay: 2,
    }
}

fn start() -> Server {
    Server::start(ServerConfig::default()).expect("bind loopback")
}

fn requests() -> Vec<Request> {
    vec![
        Request::Compile {
            spec: spec(Scheme::Casted),
        },
        Request::Simulate {
            spec: spec(Scheme::Sced),
            max_cycles: u64::MAX,
        },
        Request::Inject {
            spec: spec(Scheme::Casted),
            trials: 30,
            seed: 11,
            engine: Engine::Checkpointed,
        },
    ]
}

#[test]
fn cached_and_uncached_replies_are_byte_identical() {
    let server = start();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    for req in requests() {
        let payload = encode_request(&req);
        let cold = client.request_raw(&payload).unwrap();
        // Same connection, now a cache hit.
        let hit = client.request_raw(&payload).unwrap();
        assert_eq!(cold, hit, "cache hit differed from cold path for {req:?}");
        // A different connection hits the same cache entry.
        let mut other = Client::connect(addr).unwrap();
        let hit2 = other.request_raw(&payload).unwrap();
        assert_eq!(cold, hit2, "cross-connection hit differed for {req:?}");
        // And it is a real, successful reply — not an error that
        // accidentally compared equal.
        let resp = decode_response(&cold).unwrap();
        assert!(resp.cacheable(), "unexpected reply {resp:?} for {req:?}");
    }
    server.shutdown();
}

#[test]
fn fresh_server_cold_path_reproduces_the_same_bytes() {
    // Two independent server processes (well: instances), no shared
    // state — the cold-path computation itself must be deterministic.
    let replies: Vec<Vec<Vec<u8>>> = (0..2)
        .map(|_| {
            let server = start();
            let mut client = Client::connect(server.addr()).unwrap();
            let out = requests()
                .iter()
                .map(|req| client.request_raw(&encode_request(req)).unwrap())
                .collect();
            server.shutdown();
            out
        })
        .collect();
    assert_eq!(
        replies[0], replies[1],
        "fresh-server replies must be byte-identical"
    );
}

/// With `artifact_cache` set, two requests for the same source under
/// *different* machine configs share the front-end and ED artifacts:
/// the second request re-enters the stage graph at the schedule stage
/// (exactly two more `compile.stages.hit` over real TCP), and both replies are
/// byte-identical to a fresh, cacheless server's cold path.
#[test]
fn artifact_cache_shares_frontend_work_across_machine_configs() {
    let dir = std::env::temp_dir().join(format!(
        "casted-serve-artifacts-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    casted_obs::set_enabled(true);

    let cached = Server::start(ServerConfig {
        artifact_cache: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(cached.addr()).unwrap();

    let simulate = |issue: usize, delay: u32| Request::Simulate {
        spec: JobSpec {
            source: SRC.into(),
            scheme: Scheme::Casted,
            issue,
            delay,
        },
        max_cycles: u64::MAX,
    };
    let stage_hits = |client: &mut Client| -> u64 {
        let json = match client.request(&Request::Counters).unwrap() {
            Response::Counters(json) => json,
            other => panic!("unexpected reply {other:?}"),
        };
        json.split("\"compile.stages.hit\": ")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    };

    let before = stage_hits(&mut client);
    let r1 = client.request_raw(&encode_request(&simulate(2, 2))).unwrap();
    let r2 = client.request_raw(&encode_request(&simulate(4, 1))).unwrap();
    let after = stage_hits(&mut client);
    assert_eq!(
        after,
        before + 2,
        "second machine config must hit exactly frontend and ed \
         (compile.stages.hit went {before} -> {after})"
    );
    cached.shutdown();

    // Exactness over the wire: a server with no artifact store
    // produces the same reply bytes from scratch.
    let fresh = start();
    let mut cold = Client::connect(fresh.addr()).unwrap();
    let f1 = cold.request_raw(&encode_request(&simulate(2, 2))).unwrap();
    let f2 = cold.request_raw(&encode_request(&simulate(4, 1))).unwrap();
    assert_eq!(r1, f1, "staged reply differed from cacheless reply (2,2)");
    assert_eq!(r2, f2, "staged reply differed from cacheless reply (4,1)");
    assert!(decode_response(&f1).unwrap().cacheable());
    fresh.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inject_engines_agree_over_the_wire() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let tally = |engine: Engine, client: &mut Client| {
        let req = Request::Inject {
            spec: spec(Scheme::Casted),
            trials: 30,
            seed: 5,
            engine,
        };
        match client.request(&req).unwrap() {
            Response::Injected(i) => i,
            other => panic!("unexpected reply {other:?}"),
        }
    };
    let reference = tally(Engine::Reference, &mut client);
    let checkpointed = tally(Engine::Checkpointed, &mut client);
    assert_eq!(
        reference, checkpointed,
        "campaign engines must agree field for field over the wire"
    );
    server.shutdown();
}
