//! `serve_mix`: an in-process `casted-serve` server (event model, fresh
//! artifact and section stores) driven by two closed-loop clients with a
//! seeded request mix over the seven kernel sources.
//!
//! Each client draws its next request from a shuffled deck of 40 cards:
//! 24 exact repeats of its own earlier requests (reply-cache hits), 7
//! seen programs under a new (scheme, issue, delay) (artifact-store
//! partial hits), 3 whitespace-only edits (early cutoff), 3 input-seed
//! edits (every stage misses) and 3 small inject campaigns (section
//! store). Compile and simulate alternate in a deck too. With 60% hits
//! the median latency falls inside the hit mode, clear of the edge
//! between the hit and miss modes. Client 0 uses inter-cluster delays
//! 1–2 and client 1 delays 3–4, so no request of one client equals one
//! of the other's, and a request is a reply-cache hit exactly when its
//! own client sent it before. Issue widths are 1–3: 175.vpr under TMRED does not fit the
//! register files at issue 4.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use casted::service_api::{self, JobSpec};
use casted::stages::ArtifactPipeline;
use casted_faults::Engine;
use casted_passes::Scheme;
use casted_serve::client::Client;
use casted_serve::protocol::{decode_response, encode_request, encode_response, Request, Response};
use casted_serve::server::{Server, ServerConfig};
use casted_util::pool::run_pool;
use casted_util::Rng;

use crate::report::{another_round, median, report_fastest, report_peak_rss, Report, Tracer};
use crate::{host, Args};

const CLIENTS: usize = 2;
/// Trials of each inject request.
const INJECT_TRIALS: u64 = 12;
/// Requests per client in each pass of a timed run: a pass takes
/// about two seconds, so a run has many passes to take each request's
/// fastest latency from.
const PASS_REQUESTS: usize = 60;
/// Seed of the clients' request streams. It is fixed, not the run's
/// seed: over a pass of this length, which kernels and schemes a seed
/// deals to the costly categories moved the work by up to 40% between
/// seeds (67 to 100 replies/s), more than any bound could absorb.
const STREAM_SEED: u64 = 1;
/// Requests per client in each pass of the traced run.
const TRACED_REQUESTS: usize = 200;
/// Set-up repetitions before each pass; the median over the run is
/// reported.
const SETUP_REPS: usize = 3;
/// The line whose literal a seed edit changes, in every kernel.
const SEED_LINE: &str = "var s: int = ";

#[derive(Clone, Copy)]
enum Category {
    Repeat,
    NewConfig,
    Whitespace,
    Edit,
    Inject,
}

/// Items dealt in a seeded order; reshuffled when exhausted, so every
/// run draws each item equally often.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        Deck {
            next: items.len(),
            items,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// One kernel as a client has edited it so far.
struct Program {
    latest: String,
    seed_literal: i64,
    edits: i64,
    last_config: Option<(Scheme, usize, u32)>,
}

/// The seeded request stream of one client.
pub struct Generator {
    rng: Rng,
    client: usize,
    campaign_seed: u64,
    categories: Deck<Category>,
    simulate: Deck<bool>,
    kernels: Deck<usize>,
    combos: Deck<(usize, Scheme)>,
    issues: Deck<usize>,
    delays: Deck<u32>,
    programs: Vec<Program>,
    /// Machine each (kernel, scheme) was last compiled for.
    last_machine: HashMap<(usize, Scheme), (usize, u32)>,
    history: Vec<Arc<Job>>,
    sent: HashMap<Vec<u8>, Arc<Job>>,
}

/// A distinct request and its encoding.
struct Job {
    req: Request,
    payload: Vec<u8>,
}

fn seed_literal_span(source: &str) -> (usize, usize) {
    let body = casted_workloads::PRELUDE.len();
    let start = body
        + source[body..]
            .find(SEED_LINE)
            .expect("kernel seeds its input")
        + SEED_LINE.len();
    let end = start + source[start..].find(';').expect("seed line ends");
    (start, end)
}

impl Generator {
    pub fn new(seed: u64, client: usize) -> Generator {
        let mut categories = Vec::new();
        for (cat, n) in [
            (Category::Repeat, 24),
            (Category::NewConfig, 7),
            (Category::Whitespace, 3),
            (Category::Edit, 3),
            (Category::Inject, 3),
        ] {
            categories.extend(std::iter::repeat_n(cat, n));
        }
        let programs = casted_workloads::all()
            .into_iter()
            .map(|w| {
                let (a, b) = seed_literal_span(&w.source);
                Program {
                    seed_literal: w.source[a..b].parse().expect("integer seed literal"),
                    latest: w.source,
                    edits: 0,
                    last_config: None,
                }
            })
            .collect::<Vec<_>>();
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(client as u64));
        Generator {
            campaign_seed: rng.next_u64(),
            rng,
            client,
            categories: Deck::new(categories),
            simulate: Deck::new(vec![false, true]),
            kernels: Deck::new((0..programs.len()).collect()),
            combos: Deck::new(
                (0..programs.len())
                    .flat_map(|k| Scheme::FULL.map(|scheme| (k, scheme)))
                    .collect(),
            ),
            issues: Deck::new(vec![1, 2, 3]),
            delays: Deck::new(vec![1 + 2 * client as u32, 2 + 2 * client as u32]),
            programs,
            last_machine: HashMap::new(),
            history: Vec::new(),
            sent: HashMap::new(),
        }
    }

    fn machine(&mut self) -> (usize, u32) {
        (
            self.issues.draw(&mut self.rng),
            self.delays.draw(&mut self.rng),
        )
    }

    /// A (kernel, scheme) pair and a fresh machine for it. Kernels and
    /// schemes are dealt as pairs so every run pairs them alike.
    fn combo(&mut self) -> (usize, (Scheme, usize, u32)) {
        let (k, scheme) = self.combos.draw(&mut self.rng);
        let (issue, delay) = self.machine();
        (k, (scheme, issue, delay))
    }

    fn job(&mut self, k: usize, (scheme, issue, delay): (Scheme, usize, u32)) -> Request {
        self.programs[k].last_config = Some((scheme, issue, delay));
        self.last_machine.insert((k, scheme), (issue, delay));
        let spec = JobSpec {
            source: self.programs[k].latest.clone(),
            scheme,
            issue,
            delay,
        };
        if self.simulate.draw(&mut self.rng) {
            Request::Simulate {
                spec,
                max_cycles: u64::MAX,
            }
        } else {
            Request::Compile { spec }
        }
    }

    /// The next request of this client.
    pub fn next(&mut self) -> Request {
        let category = self.categories.draw(&mut self.rng);
        if let (Category::Repeat, false) = (category, self.history.is_empty()) {
            let i = self.rng.below(self.history.len() as u64) as usize;
            return self.history[i].req.clone();
        }
        match category {
            Category::Repeat | Category::NewConfig => {
                let (k, cfg) = self.combo();
                self.job(k, cfg)
            }
            Category::Whitespace => {
                let k = self.kernels.draw(&mut self.rng);
                self.programs[k].latest.push('\n');
                let cfg = match self.programs[k].last_config {
                    Some(cfg) => cfg,
                    None => self.combo().1,
                };
                self.job(k, cfg)
            }
            Category::Edit => {
                let (k, cfg) = self.combo();
                // Literals base+1..=base+200 are known to keep every
                // kernel halting; the clients take alternate ones.
                let p = &mut self.programs[k];
                p.edits = p.edits % 100 + 1;
                let literal = p.seed_literal + 2 * p.edits - 1 + self.client as i64;
                let (a, b) = seed_literal_span(&p.latest);
                p.latest.replace_range(a..b, &literal.to_string());
                self.job(k, cfg)
            }
            Category::Inject => {
                // The machine this (kernel, scheme) was last compiled
                // for, under the client's one campaign seed: after a
                // whitespace edit the section store answers the campaign.
                let (k, (scheme, mut issue, mut delay)) = self.combo();
                if let Some(&(i, d)) = self.last_machine.get(&(k, scheme)) {
                    (issue, delay) = (i, d);
                }
                Request::Inject {
                    spec: JobSpec {
                        source: self.programs[k].latest.clone(),
                        scheme,
                        issue,
                        delay,
                    },
                    trials: INJECT_TRIALS,
                    seed: self.campaign_seed,
                    engine: Engine::default(),
                }
            }
        }
    }

    /// Note `req` as sent; the second value is true when this client
    /// sent it before.
    fn record(&mut self, req: Request, payload: Vec<u8>) -> (Arc<Job>, bool) {
        if let Some(job) = self.sent.get(&payload) {
            return (job.clone(), true);
        }
        let job = Arc::new(Job {
            req,
            payload: payload.clone(),
        });
        self.sent.insert(payload, job.clone());
        self.history.push(job.clone());
        (job, false)
    }
}

/// One request as a client saw it.
struct Sample {
    job: Arc<Job>,
    reply: Option<Vec<u8>>,
    latency: f64,
    repeat: bool,
    done_at: f64,
}

/// A server on fresh, empty stores under `dir`.
fn start_server(dir: &Path) -> Server {
    Server::start(ServerConfig {
        artifact_cache: Some(dir.join("artifacts")),
        section_cache: Some(dir.join("sections")),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// Run both clients against `addr`, each sending the first `requests`
/// requests of its seeded stream; returns the pass wall time, every
/// sample (client 0's in order, then client 1's) and the clients'
/// protocol tracers.
fn drive(addr: SocketAddr, seed: u64, requests: usize, traced: bool) -> (f64, Vec<Sample>, Tracer) {
    let barrier = Barrier::new(CLIENTS + 1);
    let (start, per_client) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut gen = Generator::new(seed, c);
                    let mut tracer = Tracer::new(traced);
                    let mut client = Client::connect(addr).expect("client connects");
                    client
                        .set_timeout(Some(Duration::from_secs(120)))
                        .expect("set timeout");
                    let mut samples = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    while samples.len() < requests {
                        let req = gen.next();
                        let t0 = Instant::now();
                        let payload = tracer.time("serve.protocol_s", || encode_request(&req));
                        let reply = client.request_raw(&payload).ok();
                        if let Some(bytes) = &reply {
                            let _ = tracer.time("serve.protocol_s", || decode_response(bytes));
                        }
                        let latency = t0.elapsed().as_secs_f64();
                        let (job, repeat) = gen.record(req, payload);
                        samples.push(Sample {
                            job,
                            reply,
                            latency,
                            repeat,
                            done_at: start.elapsed().as_secs_f64(),
                        });
                    }
                    (samples, tracer)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let out: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (start, out)
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut tracer = Tracer::new(traced);
    for (s, t) in per_client {
        samples.extend(s);
        tracer.merge(&t);
    }
    (wall, samples, tracer)
}

/// The encoded reply `service_api` gives for `req` outside the server,
/// on the monolithic path (no stores).
fn expected_reply(req: &Request, cap: u64) -> Vec<u8> {
    let resp = match req {
        Request::Compile { spec } => service_api::compile_stats(spec).map(Response::Compiled),
        Request::Simulate { spec, max_cycles } => {
            service_api::simulate_stats(spec, (*max_cycles).min(cap)).map(Response::Simulated)
        }
        Request::Inject {
            spec,
            trials,
            seed,
            engine,
        } => service_api::inject_tally(spec, *trials, *seed, *engine, cap).map(Response::Injected),
        other => Ok(Response::Err(format!("{} is not generated", other.kind()))),
    };
    encode_response(&resp.unwrap_or_else(Response::Err))
}

/// Check every reply against the oracle.
fn check_replies(rep: &mut Report, samples: &[Sample]) {
    let cap = ServerConfig::default().max_cycles;
    let mut distinct: Vec<&Sample> = Vec::new();
    let mut seen = HashSet::new();
    for s in samples {
        if seen.insert(&s.job.payload) {
            distinct.push(s);
        }
    }
    let expected: HashMap<&[u8], Vec<u8>> = distinct
        .iter()
        .map(|s| s.job.payload.as_slice())
        .zip(run_pool(
            distinct
                .iter()
                .map(|s| move || expected_reply(&s.job.req, cap))
                .collect(),
        ))
        .collect();
    for s in samples {
        let want = &expected[s.job.payload.as_slice()];
        let ok = matches!(
            decode_response(want),
            Ok(Response::Compiled(_) | Response::Simulated(_) | Response::Injected(_))
        ) && s.reply.as_ref() == Some(want);
        rep.check(ok, || {
            let got = s.reply.as_deref().map(decode_response);
            format!(
                "serve_mix {} request: reply {got:?} differs from service_api",
                s.job.req.kind()
            )
        });
    }
}

fn latencies_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples.map(|s| s.latency * 1e3).collect()
}

pub fn run(args: &Args, rep: &mut Report) {
    if args.trace {
        return traced(rep);
    }
    // Passes of the same request streams, each on a fresh server: the
    // last of the set-ups before the pass, so set-up is timed across
    // the run too. A request's latency is its fastest pass.
    let mut setup = Vec::new();
    let mut fastest = vec![f64::INFINITY; CLIENTS * PASS_REQUESTS];
    let mut samples = Vec::new();
    let mut passes = 0;
    let mut peak_rss_mb = Vec::new();
    let rss = host::RssSampler::start();
    let start = Instant::now();
    while another_round(passes, start.elapsed().as_secs_f64(), args.seconds) {
        let mut server = None;
        for i in 0..SETUP_REPS {
            let dir = host::scratch_dir(&format!("serve-{passes}-{i}"));
            if let Some((s, old)) = server.take() {
                Server::shutdown(s);
                let _ = std::fs::remove_dir_all(old);
            }
            let t = Instant::now();
            for w in casted_workloads::all() {
                casted::compile(w.name, &w.source).expect("kernel compiles");
            }
            let s = start_server(&dir);
            let pong = Client::connect(s.addr()).and_then(|mut c| c.request(&Request::Ping));
            assert!(matches!(pong, Ok(Response::Pong)), "server answers a ping");
            setup.push(t.elapsed().as_secs_f64());
            server = Some((s, dir));
        }
        let (server, dir) = server.expect("a set-up ran");
        let (_, pass, _) = drive(server.addr(), STREAM_SEED, PASS_REQUESTS, false);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        for (best, s) in fastest.iter_mut().zip(&pass) {
            *best = best.min(s.latency);
        }
        samples.extend(pass);
        passes += 1;
        host::release_free_memory();
        peak_rss_mb.push(rss.take());
    }
    drop(rss);
    report_peak_rss(rep, &peak_rss_mb);

    check_replies(rep, &samples);
    rep.metric("setup_s", median(&setup));
    report_fastest(rep, &fastest, CLIENTS, 1);
    println!(
        "serve_mix: {passes} passes of {} requests ({} exact repeats); latency = one request \
         at its fastest pass, {} samples ({} above p99)",
        fastest.len(),
        samples[..fastest.len()].iter().filter(|s| s.repeat).count(),
        fastest.len(),
        fastest.len() - (0.99 * fastest.len() as f64).ceil() as usize
    );
}

/// Each distinct miss of `samples`, replayed in completion order through
/// `service_api` on fresh stores outside the server; returns the
/// execution time per payload.
fn replay_misses(samples: &[Sample], dir: &Path, tracer: &mut Tracer) -> HashMap<Vec<u8>, f64> {
    let cap = ServerConfig::default().max_cycles;
    let pipeline = ArtifactPipeline::open(&dir.join("artifacts")).expect("open artifact store");
    let sections: PathBuf = dir.join("sections");
    let mut misses: Vec<&Sample> = samples.iter().filter(|s| !s.repeat).collect();
    misses.sort_by(|a, b| a.done_at.total_cmp(&b.done_at));
    let mut exec = HashMap::new();
    for s in misses {
        let t = Instant::now();
        let layer = match &s.job.req {
            Request::Compile { spec } => {
                let _ = service_api::compile_stats_with(spec, Some(&pipeline));
                "core.service_api.exec_s.compile"
            }
            Request::Simulate { spec, max_cycles } => {
                let _ =
                    service_api::simulate_stats_with(spec, (*max_cycles).min(cap), Some(&pipeline));
                "core.service_api.exec_s.simulate"
            }
            Request::Inject {
                spec, trials, seed, ..
            } => {
                let _ = service_api::inject_tally_incremental_with(
                    spec,
                    *trials,
                    *seed,
                    &sections,
                    cap,
                    Some(&pipeline),
                );
                "core.service_api.exec_s.inject"
            }
            _ => continue,
        };
        let secs = t.elapsed().as_secs_f64();
        tracer.add(layer, secs);
        exec.insert(s.job.payload.clone(), secs);
    }
    exec
}

fn ratio(hits: u64, total: u64) -> f64 {
    hits as f64 / total.max(1) as f64
}

fn traced(rep: &mut Report) {
    let untraced_dir = host::scratch_dir("serve-untraced");
    let server = start_server(&untraced_dir);
    let (untraced_wall, untraced_samples, _) = drive(server.addr(), STREAM_SEED, TRACED_REQUESTS, false);
    server.shutdown();

    let dir = host::scratch_dir("serve-traced");
    casted_obs::reset();
    casted_obs::set_enabled(true);
    let server = start_server(&dir);
    let (wall, samples, mut tracer) = drive(server.addr(), STREAM_SEED, TRACED_REQUESTS, true);
    server.shutdown();
    casted_obs::set_enabled(false);
    let reg = casted_obs::global();
    let count = |name: &'static str| reg.counter(name).get();
    let store_bytes = host::dir_bytes(&dir);

    check_replies(rep, &untraced_samples);
    check_replies(rep, &samples);
    let replay_dir = host::scratch_dir("serve-replay");
    let exec = replay_misses(&samples, &replay_dir, &mut tracer);
    for d in [untraced_dir, dir, replay_dir] {
        let _ = std::fs::remove_dir_all(d);
    }

    let repeats = samples.iter().filter(|s| s.repeat).count() as u64;
    rep.stat(
        "serve_mix reply-cache hits",
        repeats,
        count("serve.cache.hit"),
    );
    let overhead: Vec<f64> = samples
        .iter()
        .filter_map(|s| {
            exec.get(&s.job.payload)
                .filter(|_| !s.repeat)
                .map(|e| (s.latency - e) * 1e3)
        })
        .collect();
    rep.metric("serve.requests", samples.len() as f64);
    rep.metric(
        "serve.hit_latency_p50_ms",
        median(&latencies_ms(samples.iter().filter(|s| s.repeat))),
    );
    rep.metric(
        "serve.miss_latency_p50_ms",
        median(&latencies_ms(samples.iter().filter(|s| !s.repeat))),
    );
    rep.metric("serve.overhead_ms_p50", median(&overhead));
    rep.metric(
        "serve.cache.hit_ratio",
        ratio(
            count("serve.cache.hit"),
            count("serve.cache.hit") + count("serve.cache.miss"),
        ),
    );
    rep.metric("serve.cache.hits", count("serve.cache.hit") as f64);
    rep.metric("serve.busy", count("serve.busy") as f64);
    rep.metric(
        "core.stages.hit_ratio",
        ratio(count("compile.stages.hit"), count("compile.stages.total")),
    );
    rep.metric(
        "core.stages.mem_hits",
        count("compile.stages.mem_hit") as f64,
    );
    rep.metric(
        "faults.sections.hit_ratio",
        ratio(count("faults.sections.hit"), count("faults.sections.total")),
    );
    rep.metric("util.store.bytes", store_bytes as f64);
    println!(
        "serve_mix traced: {} requests per client per pass; traced wall = client busy time",
        TRACED_REQUESTS
    );
    let busy: f64 = samples.iter().map(|s| s.latency).sum();
    let untraced_busy: f64 = untraced_samples.iter().map(|s| s.latency).sum();
    println!("pass walls: untraced {untraced_wall:.3} s, traced {wall:.3} s");
    tracer.finish(rep, busy, untraced_busy);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_never_send_each_others_requests() {
        let stream = |client| {
            let mut gen = Generator::new(7, client);
            (0..300)
                .map(|_| encode_request(&gen.next()))
                .collect::<HashSet<_>>()
        };
        assert!(stream(0).is_disjoint(&stream(1)));
        let mut a = Generator::new(7, 0);
        let mut b = Generator::new(7, 0);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next(), "a seed gives one request stream");
        }
    }

    /// The oracle's own reply passes; a reply with one byte changed, or
    /// no reply, is reported as a failed operation.
    #[test]
    fn a_corrupted_reply_is_a_failure() {
        let spec = JobSpec {
            source: "fn main() { var s: int = 0; for i in 0..20 { s = s + i; } out(s); }".into(),
            scheme: Scheme::Casted,
            issue: 2,
            delay: 2,
        };
        let req = Request::Simulate {
            spec,
            max_cycles: u64::MAX,
        };
        let good = expected_reply(&req, ServerConfig::default().max_cycles);
        let mut bad = good.clone();
        *bad.last_mut().expect("non-empty reply") ^= 1;
        let job = Arc::new(Job {
            payload: encode_request(&req),
            req,
        });
        let sample = |reply| Sample {
            job: job.clone(),
            reply,
            latency: 0.0,
            repeat: false,
            done_at: 0.0,
        };
        let mut rep = Report::new(false);
        check_replies(
            &mut rep,
            &[sample(Some(good)), sample(Some(bad)), sample(None)],
        );
        assert_eq!(rep.counts(), (3, 2));
    }
}
