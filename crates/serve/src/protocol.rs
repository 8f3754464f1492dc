//! The `casted-serve` wire protocol: length-prefixed binary frames.
//!
//! Every message is one frame ([`casted_util::codec::write_frame`]):
//! a 4-byte little-endian payload length (capped at [`MAX_FRAME`]),
//! then the payload. Payloads start with a version byte
//! ([`PROTOCOL_VERSION`]) and a tag byte; fields follow as varints,
//! zigzag varints and length-prefixed UTF-8 strings — see
//! `docs/SERVING.md` for the full field tables.
//!
//! Encoding is **canonical**: a value encodes to exactly one byte
//! sequence, and the decoder rejects trailing bytes. That is what
//! makes `Fnv64(request payload)` a sound content-addressed cache key
//! — two requests collide iff they are the same request (modulo the
//! 64-bit digest), and a cached reply is the byte-identical frame the
//! cold path would have produced.

use casted::service_api::{CompileReply, InjectReply, JobSpec, SimulateReply};
use casted::Scheme;
use casted_faults::Engine;
use casted_util::codec::{
    get_ivarint, get_str, get_uvarint, put_ivarint, put_str, put_uvarint,
};

/// Maximum frame payload size. Large enough for any workload source
/// plus headroom; small enough that a corrupt length prefix cannot
/// make the server allocate unboundedly.
pub const MAX_FRAME: usize = 1 << 20;

/// Wire protocol version; bumped on any format change. Version 2
/// added the streaming-inject extension (`InjectStream`/`Cancel`
/// requests; `Progress`/`Cancelled` frames) and structured admission
/// replies (`Throttled`/`Expired`). Version 3 added the recovery
/// schemes (TMRED tag 4, RBED tag 5) and widened outcome counts to
/// six entries for `Corrected`.
pub const PROTOCOL_VERSION: u8 = 3;

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Compile + schedule, reply with program statistics.
    Compile {
        /// What to compile.
        spec: JobSpec,
    },
    /// Compile + schedule + fault-free cycle-accurate simulation.
    Simulate {
        /// What to run.
        spec: JobSpec,
        /// Requested cycle deadline (the server caps it at its own
        /// configured maximum; `u64::MAX` = "server default").
        max_cycles: u64,
    },
    /// Compile + schedule + Monte-Carlo fault campaign.
    Inject {
        /// What to strike.
        spec: JobSpec,
        /// Monte-Carlo trials.
        trials: u64,
        /// Campaign seed.
        seed: u64,
        /// Campaign engine.
        engine: Engine,
    },
    /// Fetch the server's deterministic counter-only metrics snapshot.
    Counters,
    /// Graceful drain-then-exit.
    Shutdown,
    /// [`Request::Inject`] in streaming form: the server emits a
    /// [`Response::Progress`] frame with the running tally every
    /// `every` trials, then the terminal [`Response::Injected`] frame
    /// — byte-identical to the non-streaming reply for the equivalent
    /// `Inject` request.
    InjectStream {
        /// What to strike.
        spec: JobSpec,
        /// Monte-Carlo trials.
        trials: u64,
        /// Campaign seed.
        seed: u64,
        /// Campaign engine (tallies are engine-invariant; accepted for
        /// symmetry with [`Request::Inject`]).
        engine: Engine,
        /// Progress-frame period in trials (0 = server default).
        every: u64,
    },
    /// Cancel the in-flight streaming campaign on this connection.
    /// The server stops after the current chunk and replies with a
    /// terminal [`Response::Cancelled`] frame carrying the partial
    /// tally; outside a stream it is a no-op error.
    Cancel,
}

impl Request {
    /// Short kind label for metrics and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Compile { .. } => "compile",
            Request::Simulate { .. } => "simulate",
            Request::Inject { .. } => "inject",
            Request::Counters => "counters",
            Request::Shutdown => "shutdown",
            Request::InjectStream { .. } => "inject_stream",
            Request::Cancel => "cancel",
        }
    }

    /// Does this request run the pipeline (and therefore go through
    /// the cache + job queue)?
    pub fn is_work(&self) -> bool {
        matches!(
            self,
            Request::Compile { .. }
                | Request::Simulate { .. }
                | Request::Inject { .. }
                | Request::InjectStream { .. }
        )
    }
}

/// A server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Compile`].
    Compiled(CompileReply),
    /// Reply to [`Request::Simulate`].
    Simulated(SimulateReply),
    /// Reply to [`Request::Inject`].
    Injected(InjectReply),
    /// Backpressure: the job queue is full. The request was **not**
    /// queued; retry later.
    Busy,
    /// Structured failure (bad request, compile error, deadline…).
    Err(String),
    /// Reply to [`Request::Counters`]: the snapshot JSON.
    Counters(String),
    /// The server is draining and will not accept new work.
    ShuttingDown,
    /// Admission control: this client is over its token-bucket quota.
    /// The request was **not** queued; `retry_after_ms` says when the
    /// bucket refills enough to admit one request.
    Throttled {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// Admission control: the job waited in the queue past the
    /// server's deadline and was dropped **before execution**.
    Expired,
    /// Streaming: running campaign tally after `done` trials. Zero or
    /// more of these precede the terminal frame of an
    /// [`Request::InjectStream`].
    Progress {
        /// Trials completed so far.
        done: u64,
        /// Outcome counts so far, in `Outcome::ALL` order.
        counts: [u64; 6],
    },
    /// Streaming: terminal frame of a cancelled campaign — the partial
    /// tally after `done` trials (an exact prefix of the full run).
    Cancelled {
        /// Trials completed before the cancel took effect.
        done: u64,
        /// Outcome counts over those trials.
        counts: [u64; 6],
    },
}

impl Response {
    /// Only successful pipeline results enter the cache — errors,
    /// control replies, and streaming frames are never cached. (A
    /// streaming request's terminal `Injected` frame is also not
    /// cached: its cache key would be the `InjectStream` encoding,
    /// which differs from the equivalent `Inject`, and progress frames
    /// are connection-specific.)
    pub fn cacheable(&self) -> bool {
        matches!(
            self,
            Response::Compiled(_) | Response::Simulated(_) | Response::Injected(_)
        )
    }

    /// Is this frame the last one of its request? Streaming requests
    /// emit zero or more non-terminal [`Response::Progress`] frames
    /// before exactly one terminal frame; every other reply is
    /// terminal. The router relays frames until a terminal one.
    pub fn terminal(&self) -> bool {
        !matches!(self, Response::Progress { .. })
    }
}

fn scheme_to_u8(s: Scheme) -> u8 {
    match s {
        Scheme::Noed => 0,
        Scheme::Sced => 1,
        Scheme::Dced => 2,
        Scheme::Casted => 3,
        Scheme::Tmred => 4,
        Scheme::Rbed => 5,
    }
}

fn scheme_from_u8(b: u8) -> Result<Scheme, String> {
    match b {
        0 => Ok(Scheme::Noed),
        1 => Ok(Scheme::Sced),
        2 => Ok(Scheme::Dced),
        3 => Ok(Scheme::Casted),
        4 => Ok(Scheme::Tmred),
        5 => Ok(Scheme::Rbed),
        other => Err(format!("unknown scheme tag {other}")),
    }
}

fn engine_to_u8(e: Engine) -> u8 {
    match e {
        Engine::Reference => 0,
        Engine::Checkpointed => 1,
    }
}

fn engine_from_u8(b: u8) -> Result<Engine, String> {
    match b {
        0 => Ok(Engine::Reference),
        1 => Ok(Engine::Checkpointed),
        2 => Err(format!(
            "engine tag 2 (the removed batched engine) is not served (accepted: {})",
            Engine::ACCEPTED
        )),
        other => Err(format!("unknown engine tag {other} (accepted: {})", Engine::ACCEPTED)),
    }
}

fn put_spec(buf: &mut Vec<u8>, spec: &JobSpec) {
    put_str(buf, &spec.source);
    buf.push(scheme_to_u8(spec.scheme));
    put_uvarint(buf, spec.issue as u64);
    put_uvarint(buf, spec.delay as u64);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        let b = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| format!("truncated {what}"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        get_uvarint(self.bytes, &mut self.pos).ok_or_else(|| format!("bad varint in {what}"))
    }

    fn i64(&mut self, what: &str) -> Result<i64, String> {
        get_ivarint(self.bytes, &mut self.pos).ok_or_else(|| format!("bad varint in {what}"))
    }

    fn str(&mut self, what: &str) -> Result<String, String> {
        get_str(self.bytes, &mut self.pos, MAX_FRAME)
            .map(str::to_string)
            .ok_or_else(|| format!("bad string in {what}"))
    }

    fn spec(&mut self) -> Result<JobSpec, String> {
        let source = self.str("job source")?;
        let scheme = scheme_from_u8(self.u8("scheme")?)?;
        let issue = self.u64("issue width")? as usize;
        let delay = self.u64("delay")? as u32;
        Ok(JobSpec {
            source,
            scheme,
            issue,
            delay,
        })
    }

    fn finish<T>(self, value: T) -> Result<T, String> {
        if self.pos == self.bytes.len() {
            Ok(value)
        } else {
            Err(format!(
                "{} trailing bytes after message",
                self.bytes.len() - self.pos
            ))
        }
    }
}

/// Encode a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = vec![PROTOCOL_VERSION];
    match req {
        Request::Ping => buf.push(1),
        Request::Compile { spec } => {
            buf.push(2);
            put_spec(&mut buf, spec);
        }
        Request::Simulate { spec, max_cycles } => {
            buf.push(3);
            put_spec(&mut buf, spec);
            put_uvarint(&mut buf, *max_cycles);
        }
        Request::Inject {
            spec,
            trials,
            seed,
            engine,
        } => {
            buf.push(4);
            put_spec(&mut buf, spec);
            put_uvarint(&mut buf, *trials);
            put_uvarint(&mut buf, *seed);
            buf.push(engine_to_u8(*engine));
        }
        Request::Counters => buf.push(5),
        Request::Shutdown => buf.push(6),
        Request::InjectStream {
            spec,
            trials,
            seed,
            engine,
            every,
        } => {
            buf.push(7);
            put_spec(&mut buf, spec);
            put_uvarint(&mut buf, *trials);
            put_uvarint(&mut buf, *seed);
            buf.push(engine_to_u8(*engine));
            put_uvarint(&mut buf, *every);
        }
        Request::Cancel => buf.push(8),
    }
    buf
}

/// Decode a request frame payload. Strict: unknown versions, unknown
/// tags, malformed fields and trailing bytes are all errors.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let mut r = Reader::new(payload);
    let version = r.u8("version byte")?;
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version {version} not supported (this server speaks {PROTOCOL_VERSION})"
        ));
    }
    let tag = r.u8("request tag")?;
    let req = match tag {
        1 => Request::Ping,
        2 => Request::Compile { spec: r.spec()? },
        3 => Request::Simulate {
            spec: r.spec()?,
            max_cycles: r.u64("max_cycles")?,
        },
        4 => Request::Inject {
            spec: r.spec()?,
            trials: r.u64("trials")?,
            seed: r.u64("seed")?,
            engine: engine_from_u8(r.u8("engine")?)?,
        },
        5 => Request::Counters,
        6 => Request::Shutdown,
        7 => Request::InjectStream {
            spec: r.spec()?,
            trials: r.u64("trials")?,
            seed: r.u64("seed")?,
            engine: engine_from_u8(r.u8("engine")?)?,
            every: r.u64("every")?,
        },
        8 => Request::Cancel,
        other => return Err(format!("unknown request tag {other}")),
    };
    r.finish(req)
}

/// Encode a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = vec![PROTOCOL_VERSION];
    match resp {
        Response::Pong => buf.push(1),
        Response::Compiled(c) => {
            buf.push(2);
            put_uvarint(&mut buf, c.bundles);
            put_uvarint(&mut buf, c.nop_slots);
            put_uvarint(&mut buf, c.cross_cluster_edges);
            put_uvarint(&mut buf, c.spilled);
            put_uvarint(&mut buf, c.code_growth_permille);
            put_uvarint(&mut buf, c.occupancy.len() as u64);
            for &n in &c.occupancy {
                put_uvarint(&mut buf, n);
            }
        }
        Response::Simulated(s) => {
            buf.push(3);
            put_uvarint(&mut buf, s.cycles);
            put_uvarint(&mut buf, s.dyn_insns);
            put_uvarint(&mut buf, s.bundles);
            put_uvarint(&mut buf, s.stall_cycles);
            put_uvarint(&mut buf, s.cross_reads);
            put_ivarint(&mut buf, s.exit_code);
            put_uvarint(&mut buf, s.stream_len);
            buf.extend_from_slice(&s.stream_digest.to_le_bytes());
        }
        Response::Injected(i) => {
            buf.push(4);
            put_uvarint(&mut buf, i.trials);
            for &c in &i.counts {
                put_uvarint(&mut buf, c);
            }
            put_uvarint(&mut buf, i.golden_cycles);
            put_uvarint(&mut buf, i.golden_dyn);
        }
        Response::Busy => buf.push(5),
        Response::Err(msg) => {
            buf.push(6);
            put_str(&mut buf, msg);
        }
        Response::Counters(json) => {
            buf.push(7);
            put_str(&mut buf, json);
        }
        Response::ShuttingDown => buf.push(8),
        Response::Throttled { retry_after_ms } => {
            buf.push(9);
            put_uvarint(&mut buf, *retry_after_ms);
        }
        Response::Expired => buf.push(10),
        Response::Progress { done, counts } => {
            buf.push(11);
            put_uvarint(&mut buf, *done);
            for &c in counts {
                put_uvarint(&mut buf, c);
            }
        }
        Response::Cancelled { done, counts } => {
            buf.push(12);
            put_uvarint(&mut buf, *done);
            for &c in counts {
                put_uvarint(&mut buf, c);
            }
        }
    }
    buf
}

/// Decode a response frame payload (same strictness as
/// [`decode_request`]).
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut r = Reader::new(payload);
    let version = r.u8("version byte")?;
    if version != PROTOCOL_VERSION {
        return Err(format!("protocol version {version} not supported"));
    }
    let tag = r.u8("response tag")?;
    let resp = match tag {
        1 => Response::Pong,
        2 => {
            let bundles = r.u64("bundles")?;
            let nop_slots = r.u64("nop_slots")?;
            let cross_cluster_edges = r.u64("cross_cluster_edges")?;
            let spilled = r.u64("spilled")?;
            let code_growth_permille = r.u64("code_growth")?;
            let n = r.u64("occupancy len")?;
            if n > 64 {
                return Err(format!("implausible occupancy vector length {n}"));
            }
            let mut occupancy = Vec::with_capacity(n as usize);
            for _ in 0..n {
                occupancy.push(r.u64("occupancy")?);
            }
            Response::Compiled(CompileReply {
                bundles,
                nop_slots,
                cross_cluster_edges,
                spilled,
                code_growth_permille,
                occupancy,
            })
        }
        3 => {
            let cycles = r.u64("cycles")?;
            let dyn_insns = r.u64("dyn_insns")?;
            let bundles = r.u64("bundles")?;
            let stall_cycles = r.u64("stall_cycles")?;
            let cross_reads = r.u64("cross_reads")?;
            let exit_code = r.i64("exit_code")?;
            let stream_len = r.u64("stream_len")?;
            let mut digest = [0u8; 8];
            for b in digest.iter_mut() {
                *b = r.u8("stream_digest")?;
            }
            Response::Simulated(SimulateReply {
                cycles,
                dyn_insns,
                bundles,
                stall_cycles,
                cross_reads,
                exit_code,
                stream_len,
                stream_digest: u64::from_le_bytes(digest),
            })
        }
        4 => {
            let trials = r.u64("trials")?;
            let mut counts = [0u64; 6];
            for c in counts.iter_mut() {
                *c = r.u64("outcome count")?;
            }
            Response::Injected(InjectReply {
                trials,
                counts,
                golden_cycles: r.u64("golden_cycles")?,
                golden_dyn: r.u64("golden_dyn")?,
            })
        }
        5 => Response::Busy,
        6 => Response::Err(r.str("error message")?),
        7 => Response::Counters(r.str("counters json")?),
        8 => Response::ShuttingDown,
        9 => Response::Throttled {
            retry_after_ms: r.u64("retry_after_ms")?,
        },
        10 => Response::Expired,
        11 => {
            let done = r.u64("done")?;
            let mut counts = [0u64; 6];
            for c in counts.iter_mut() {
                *c = r.u64("outcome count")?;
            }
            Response::Progress { done, counts }
        }
        12 => {
            let done = r.u64("done")?;
            let mut counts = [0u64; 6];
            for c in counts.iter_mut() {
                *c = r.u64("outcome count")?;
            }
            Response::Cancelled { done, counts }
        }
        other => return Err(format!("unknown response tag {other}")),
    };
    r.finish(resp)
}

/// The content-addressed cache key of a request: the FNV-1a digest of
/// its canonical encoding. Covers every field that influences the
/// reply — source, scheme, issue, delay, engine, seed, trials,
/// deadline — because they are all *in* the encoding.
pub fn cache_key(payload: &[u8]) -> u64 {
    casted_util::hash::fnv1a(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            source: "fn main() { out(1); }".into(),
            scheme: Scheme::Casted,
            issue: 2,
            delay: 3,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Compile { spec: spec() },
            Request::Simulate {
                spec: spec(),
                max_cycles: u64::MAX,
            },
            Request::Inject {
                spec: spec(),
                trials: 300,
                seed: 0xCA57ED,
                engine: Engine::Checkpointed,
            },
            Request::Inject {
                spec: spec(),
                trials: 300,
                seed: 0xCA57ED,
                engine: Engine::Reference,
            },
            Request::Counters,
            Request::Shutdown,
            Request::InjectStream {
                spec: spec(),
                trials: 5000,
                seed: 0xCA57ED,
                engine: Engine::Checkpointed,
                every: 250,
            },
            Request::Cancel,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Pong,
            Response::Compiled(CompileReply {
                bundles: 10,
                nop_slots: 3,
                cross_cluster_edges: 2,
                spilled: 0,
                code_growth_permille: 2345,
                occupancy: vec![7, 3],
            }),
            Response::Simulated(SimulateReply {
                cycles: 100,
                dyn_insns: 90,
                bundles: 80,
                stall_cycles: 10,
                cross_reads: 5,
                exit_code: -7,
                stream_len: 1,
                stream_digest: 0xdead_beef_dead_beef,
            }),
            Response::Injected(InjectReply {
                trials: 300,
                counts: [100, 150, 20, 25, 5, 30],
                golden_cycles: 4000,
                golden_dyn: 3000,
            }),
            Response::Busy,
            Response::Err("compile failed: line 1: nope".into()),
            Response::Counters("{\n}".into()),
            Response::ShuttingDown,
            Response::Throttled { retry_after_ms: 1500 },
            Response::Expired,
            Response::Progress {
                done: 250,
                counts: [100, 100, 25, 20, 5, 15],
            },
            Response::Cancelled {
                done: 500,
                counts: [200, 200, 50, 40, 10, 30],
            },
        ];
        for resp in resps {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn progress_frames_are_the_only_non_terminal_replies() {
        assert!(!Response::Progress { done: 1, counts: [1, 0, 0, 0, 0, 0] }.terminal());
        for r in [
            Response::Pong,
            Response::Busy,
            Response::Expired,
            Response::Throttled { retry_after_ms: 1 },
            Response::Cancelled { done: 1, counts: [1, 0, 0, 0, 0, 0] },
            Response::ShuttingDown,
            Response::Err("x".into()),
        ] {
            assert!(r.terminal(), "{r:?}");
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_bad_tags() {
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).unwrap_err().contains("trailing"));
        assert!(decode_request(&[PROTOCOL_VERSION, 99]).unwrap_err().contains("unknown request tag"));
        assert!(decode_request(&[9, 1]).unwrap_err().contains("version"));
        assert!(decode_request(&[]).unwrap_err().contains("truncated"));
        assert!(decode_response(&[PROTOCOL_VERSION, 99]).unwrap_err().contains("unknown response tag"));
    }

    #[test]
    fn cache_key_is_total_over_request_fields() {
        let base = Request::Simulate {
            spec: spec(),
            max_cycles: 1000,
        };
        let k0 = cache_key(&encode_request(&base));
        // Any field change changes the key.
        let mut other = spec();
        other.issue = 3;
        let variants = [
            Request::Simulate { spec: other, max_cycles: 1000 },
            Request::Simulate { spec: spec(), max_cycles: 1001 },
            Request::Compile { spec: spec() },
        ];
        for v in &variants {
            assert_ne!(k0, cache_key(&encode_request(v)), "{v:?}");
        }
        // And identical requests share it.
        assert_eq!(k0, cache_key(&encode_request(&base)));
    }
}
