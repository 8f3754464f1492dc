//! Property tests for the `casted-serve` wire protocol: generated
//! requests and responses round-trip through encode → decode, and the
//! frame layer rejects truncation and oversized lengths. Failures
//! print the workspace-standard `REPLAY seed=0x…` token.

use casted::service_api::{CompileReply, InjectReply, JobSpec, SimulateReply};
use casted::Scheme;
use casted_faults::Engine;
use casted_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    MAX_FRAME,
};
use casted_util::codec::{read_frame, write_frame};
use casted_util::rng::Rng;
use casted_util::{prop, prop_assert, prop_assert_eq};

fn gen_source(rng: &mut Rng) -> String {
    // Arbitrary UTF-8, not valid MiniC — the codec must not care.
    let len = rng.gen_range(0usize..200);
    (0..len)
        .map(|_| {
            let c = rng.gen_range(0u32..0x250);
            char::from_u32(c).unwrap_or('\u{FFFD}')
        })
        .collect()
}

fn gen_spec(rng: &mut Rng) -> JobSpec {
    JobSpec {
        source: gen_source(rng),
        scheme: *rng.pick(&[Scheme::Noed, Scheme::Sced, Scheme::Dced, Scheme::Casted]),
        issue: rng.gen_range(0usize..20),
        delay: rng.gen_range(0u32..40),
    }
}

fn gen_request(rng: &mut Rng) -> Request {
    match rng.gen_range(0u32..8) {
        0 => Request::Ping,
        1 => Request::Compile {
            spec: gen_spec(rng),
        },
        2 => Request::Simulate {
            spec: gen_spec(rng),
            max_cycles: rng.next_u64(),
        },
        3 => Request::Inject {
            spec: gen_spec(rng),
            trials: rng.next_u64(),
            seed: rng.next_u64(),
            engine: *rng.pick(&[Engine::Reference, Engine::Checkpointed]),
        },
        4 => Request::Counters,
        5 => Request::InjectStream {
            spec: gen_spec(rng),
            trials: rng.next_u64(),
            seed: rng.next_u64(),
            engine: *rng.pick(&[Engine::Reference, Engine::Checkpointed]),
            every: rng.next_u64(),
        },
        6 => Request::Cancel,
        _ => Request::Shutdown,
    }
}

fn gen_counts(rng: &mut Rng) -> [u64; 6] {
    [
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
    ]
}

fn gen_response(rng: &mut Rng) -> Response {
    match rng.gen_range(0u32..12) {
        0 => Response::Pong,
        1 => Response::Compiled(CompileReply {
            bundles: rng.next_u64(),
            nop_slots: rng.next_u64(),
            cross_cluster_edges: rng.next_u64(),
            spilled: rng.next_u64(),
            code_growth_permille: rng.next_u64(),
            occupancy: (0..rng.gen_range(0usize..8)).map(|_| rng.next_u64()).collect(),
        }),
        2 => Response::Simulated(SimulateReply {
            cycles: rng.next_u64(),
            dyn_insns: rng.next_u64(),
            bundles: rng.next_u64(),
            stall_cycles: rng.next_u64(),
            cross_reads: rng.next_u64(),
            exit_code: rng.next_u64() as i64,
            stream_len: rng.next_u64(),
            stream_digest: rng.next_u64(),
        }),
        3 => Response::Injected(InjectReply {
            trials: rng.next_u64(),
            counts: gen_counts(rng),
            golden_cycles: rng.next_u64(),
            golden_dyn: rng.next_u64(),
        }),
        4 => Response::Busy,
        5 => Response::Err(gen_source(rng)),
        6 => Response::Counters(gen_source(rng)),
        7 => Response::ShuttingDown,
        8 => Response::Throttled {
            retry_after_ms: rng.next_u64(),
        },
        9 => Response::Expired,
        10 => Response::Progress {
            done: rng.next_u64(),
            counts: gen_counts(rng),
        },
        _ => Response::Cancelled {
            done: rng.next_u64(),
            counts: gen_counts(rng),
        },
    }
}

#[test]
fn prop_request_roundtrip() {
    prop::run_cases("request_roundtrip", 256, |rng| {
        let req = gen_request(rng);
        let bytes = encode_request(&req);
        let back = decode_request(&bytes).map_err(|e| format!("decode failed: {e}"))?;
        prop_assert_eq!(req, back);
        Ok(())
    });
}

/// Engine tag 2 named the batched engine, which is removed: an inject
/// request carrying it decodes to an error that lists the accepted
/// engines, never to another engine. The tag's byte is found as the
/// one byte where the Reference and Checkpointed encodings differ.
#[test]
fn prop_removed_engine_tag_is_a_structured_err() {
    prop::run_cases("removed_engine_tag", 128, |rng| {
        let (spec, trials, seed, every) =
            (gen_spec(rng), rng.next_u64(), rng.next_u64(), rng.next_u64());
        let encode = |engine| {
            if every % 2 == 0 {
                encode_request(&Request::Inject { spec: spec.clone(), trials, seed, engine })
            } else {
                let spec = spec.clone();
                encode_request(&Request::InjectStream { spec, trials, seed, engine, every })
            }
        };
        let (reference, checkpointed) = (encode(Engine::Reference), encode(Engine::Checkpointed));
        let diff: Vec<usize> =
            (0..reference.len()).filter(|&i| reference[i] != checkpointed[i]).collect();
        prop_assert_eq!(diff.len(), 1);
        let mut removed = reference;
        removed[diff[0]] = 2;
        match decode_request(&removed) {
            Err(e) => prop_assert!(e.contains(Engine::ACCEPTED), "error lists no engines: {e}"),
            Ok(req) => prop_assert!(false, "engine tag 2 decoded: {req:?}"),
        }
        Ok(())
    });
}

#[test]
fn prop_response_roundtrip() {
    prop::run_cases("response_roundtrip", 256, |rng| {
        let resp = gen_response(rng);
        let bytes = encode_response(&resp);
        let back = decode_response(&bytes).map_err(|e| format!("decode failed: {e}"))?;
        prop_assert_eq!(resp, back);
        Ok(())
    });
}

#[test]
fn prop_frame_roundtrip_and_truncation_rejection() {
    prop::run_cases("frame_roundtrip", 128, |rng| {
        let req = gen_request(rng);
        let payload = encode_request(&req);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).map_err(|e| format!("write: {e}"))?;

        // Full frame reads back.
        let mut cursor = &framed[..];
        let got = read_frame(&mut cursor, MAX_FRAME)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("unexpected EOF")?;
        prop_assert_eq!(&got, &payload);

        // Any strict prefix is either a clean pre-frame EOF (cut == 0)
        // or a truncated-frame error — never a successful read and
        // never a panic.
        let cut = rng.gen_range(0usize..framed.len());
        let mut cursor = &framed[..cut];
        match read_frame(&mut cursor, MAX_FRAME) {
            Ok(None) => prop_assert!(cut == 0, "EOF accepted mid-frame at cut {cut}"),
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded at cut {cut}"),
            Err(e) => prop_assert!(
                e.kind() == std::io::ErrorKind::UnexpectedEof,
                "cut {cut}: wrong error kind {:?}",
                e.kind()
            ),
        }
        Ok(())
    });
}

/// Exhaustive variant of the truncation property: a streaming-frame
/// payload (Progress/Cancelled) cut at *every* byte boundary — not a
/// sampled one — is rejected, both at the frame layer and at the
/// payload decoder. Incremental frame assembly in the event loop
/// depends on this: a partial read must never decode.
#[test]
fn truncation_at_every_cut_is_rejected() {
    let payloads = [
        encode_response(&Response::Progress {
            done: 12_345,
            counts: [1, 2, 3, u64::MAX, 5, 9],
        }),
        encode_response(&Response::Cancelled {
            done: 700,
            counts: [100, 200, 300, 50, 50, 25],
        }),
        encode_request(&Request::InjectStream {
            spec: JobSpec {
                source: "fn main() { out(1); }".into(),
                scheme: Scheme::Casted,
                issue: 2,
                delay: 2,
            },
            trials: 5_000,
            seed: 0xCA57ED,
            engine: Engine::Checkpointed,
            every: 100,
        }),
        encode_request(&Request::Cancel),
    ];
    for payload in &payloads {
        let mut framed = Vec::new();
        write_frame(&mut framed, payload).unwrap();
        for cut in 0..framed.len() {
            let mut cursor = &framed[..cut];
            match read_frame(&mut cursor, MAX_FRAME) {
                Ok(None) => assert_eq!(cut, 0, "EOF accepted mid-frame at cut {cut}"),
                Ok(Some(_)) => panic!("truncated frame decoded at cut {cut}"),
                Err(e) => assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::UnexpectedEof,
                    "cut {cut}: wrong error kind"
                ),
            }
        }
        for cut in 0..payload.len() {
            // A truncated payload must decode to an error (empty input
            // included), never to a value and never to a panic.
            assert!(
                decode_request(&payload[..cut]).is_err()
                    || decode_response(&payload[..cut]).is_err(),
                "payload cut at {cut} decoded on both decoders"
            );
            if let Ok(req) = decode_request(&payload[..cut]) {
                assert_eq!(encode_request(&req), &payload[..cut]);
            }
            if let Ok(resp) = decode_response(&payload[..cut]) {
                assert_eq!(encode_response(&resp), &payload[..cut]);
            }
        }
    }
}

#[test]
fn prop_oversized_length_rejected_without_allocation() {
    prop::run_cases("oversized_length", 128, |rng| {
        let over = rng.gen_range(MAX_FRAME as u64 + 1..=u32::MAX as u64) as u32;
        let mut framed = over.to_le_bytes().to_vec();
        // A few garbage payload bytes — far fewer than the length
        // claims, so accepting the length would mean a huge allocation
        // and a blocking read.
        framed.extend_from_slice(&[0xAB; 16]);
        let mut cursor = &framed[..];
        match read_frame(&mut cursor, MAX_FRAME) {
            Err(e) => prop_assert!(
                e.kind() == std::io::ErrorKind::InvalidData,
                "length {over}: wrong error kind {:?}",
                e.kind()
            ),
            Ok(r) => prop_assert!(false, "oversized length {over} accepted: {r:?}"),
        }
        Ok(())
    });
}

#[test]
fn prop_decoder_survives_garbage_payloads() {
    prop::run_cases("garbage_payloads", 512, |rng| {
        let len = rng.gen_range(0usize..64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        // Must return Ok or Err, never panic; and whatever decodes must
        // re-encode to the exact input (canonical encoding).
        if let Ok(req) = decode_request(&bytes) {
            prop_assert_eq!(encode_request(&req), bytes);
        }
        if let Ok(resp) = decode_response(&bytes) {
            prop_assert_eq!(encode_response(&resp), bytes);
        }
        Ok(())
    });
}
