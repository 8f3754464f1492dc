//! Compositional (incremental) fault campaigns with an on-disk
//! content-addressed section cache — FastFlip's observation applied
//! to the Monte-Carlo campaigns of §IV-C: per-section injection
//! results compose, so after an edit only the sections whose code
//! actually changed need re-injection.
//!
//! ## How a campaign decomposes
//!
//! The golden dynamic trace is cut into sections at block entries
//! (`casted_sim::section`); every trial of the frozen injection
//! stream belongs to exactly one section (the one owning its `at`
//! site). Per section the store keeps one [`SectionRecord`]: the
//! per-trial *evidence* — not the final [`Outcome`] — in trial order,
//! plus the validation list of blocks the section's golden span and
//! trial runs visited.
//!
//! Evidence comes in three shapes, and the split is what makes
//! recombination **byte-identical to a cold campaign** (the headline
//! claim, enforced at four levels — see `docs/INCREMENTAL.md`):
//!
//! * [`TrialEntry::Resolved`] — Detected / Exception / Timeout stops,
//!   and convergence-proved Benign or Corrected. These classifications
//!   cannot depend on anything outside the (validated) section.
//! * [`TrialEntry::Halted`] — the trial halted in-span. Halts
//!   classify *against the current golden run* (exit code + output
//!   stream), which an edit downstream of the section can change, so
//!   the record stores the raw halt evidence and classification
//!   happens at recombine time.
//! * [`TrialEntry::Escaped`] — the trial left its span still
//!   diverged. Nothing in-span can classify it; the *first* recombine
//!   replays it over the whole program, on the section capture's own
//!   golden trace with no span end, and caches the replay's verdict as
//!   [`EscapeEvidence`] with its own validation list — the blocks the
//!   replay touched after the fault landed (plus, for a pruned
//!   replay, the golden path up to the convergence point). Later
//!   recombines re-replay only the escapes an edit actually
//!   invalidated.
//!
//! A fully-warm rerun goes further: a [`ProgramRecord`] keyed by the
//! *entire program content* ([`program_key`]) caches the golden run's
//! summary (cycles, dynamic length, exit code, output stream) and the
//! section partition, so when every consulted section — escape
//! evidence included — validates, the campaign recombines without
//! simulating a single cycle, golden run included.
//!
//! ## Cache key and invalidation
//!
//! A record is addressed by [`section_key`]: an Fnv64 hash of the
//! store format version, the machine config, the watchdog bound, the
//! golden run's shape (`cycles`/`dyn`), the section bounds, an
//! *unmasked digest of the section-start machine state* (binding
//! everything upstream), and the section's injection-stream slice. A
//! lookup additionally validates that every block the recorded runs
//! visited still has the same code hash and live-in-mask hash on the
//! current program; any mismatch is a miss and the section is
//! re-injected.
//!
//! ## Storage
//!
//! Records live in the workspace's one on-disk store,
//! [`ArtifactStore`], as two artifact kinds: [`KIND_SECT`] (section
//! records) and [`KIND_PROG`] (program records). The store's envelope
//! checks the version, key, kind and a whole-file checksum, so a
//! corrupted byte anywhere turns the record into a miss, never a wrong
//! tally (the sabotage self-tests below pin this); the codecs here
//! encode only the payload, and decode it strictly canonically.

use casted_ir::interp::{OutVal, StopReason};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::RegClass;
use casted_sim::section::block_validation_hashes;
use casted_sim::{replay_trial, BlockSet, CampaignProgram, GoldenRun, Injection, TrialRun};
use casted_util::codec::{get_ivarint, get_uvarint, put_ivarint, put_uvarint};
use casted_util::hash::Fnv64;
use casted_util::pool::run_pool;
use casted_util::store::ArtifactStore;
use casted_util::Rng;

use crate::{CampaignConfig, CampaignResult, EngineStats, Outcome, Tally};

/// Bumped on any change to the record encoding *or* to the meaning of
/// any hashed key component (hash inputs, digest coverage, section
/// cutting policy). Part of every key, so stale-format records simply
/// miss instead of decoding garbage. (The store's envelope has its own
/// `casted_util::store::STORE_FORMAT_VERSION`.)
pub const SECTION_FORMAT_VERSION: u64 = 5;

/// Artifact kind of a [`SectionRecord`] (`{key:016x}.sect`).
pub const KIND_SECT: &str = "sect";
/// Artifact kind of a [`ProgramRecord`] (`{key:016x}.prog`).
pub const KIND_PROG: &str = "prog";

/// Section-cache accounting for one incremental campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SectionStats {
    /// Sections in the campaign's partition of the golden trace.
    pub total: u64,
    /// Consulted sections whose cached record validated (no
    /// re-injection).
    pub hit: u64,
    /// Consulted sections re-injected (no record, stale record,
    /// failed integrity or block validation).
    pub miss: u64,
    /// Trials whose evidence came from cached records rather than
    /// fresh injection.
    pub recombined: u64,
    /// Escapes replayed over the whole program: trials that left their
    /// section still diverged and had no reusable escape evidence.
    pub escaped: u64,
}

/// Stored per-trial evidence (see the module docs for why halts stay
/// raw while the other stops are pre-resolved).
#[derive(Clone, Debug, PartialEq)]
pub enum TrialEntry {
    /// Section-local classification: Detected, Exception, Timeout, or
    /// convergence-proved Benign or Corrected.
    Resolved(Outcome),
    /// Halted in-span; classified against the current golden run at
    /// recombine time.
    Halted { code: i64, stream: Vec<OutVal> },
    /// Left the span diverged. `None` until the first recombine's
    /// whole-program replay; afterwards the replay's cached verdict,
    /// reused while its own validation list holds.
    Escaped(Option<EscapeEvidence>),
}

/// Cached whole-program replay verdict for one escaped trial, plus
/// the extra validation surface beyond the section's own list: the
/// blocks the replay visited *after the fault landed* — the faulty
/// suffix is instruction-identical while they are unchanged — and,
/// for a converged verdict, the golden blocks between the span exit
/// and the convergence point (the stored Benign also asserts what the
/// *golden* state there is).
#[derive(Clone, Debug, PartialEq)]
pub struct EscapeEvidence {
    /// The replay's verdict, in the entry vocabulary: `Resolved` or
    /// `Halted`, never `Escaped` (a whole-program replay cannot leave
    /// its span).
    pub outcome: Box<TrialEntry>,
    /// `(block index, code hash, live-mask hash)` triples that must
    /// match the current program for the verdict to be reusable.
    pub validation: Vec<(u32, u64, u64)>,
}

/// Whole-program cache entry: the golden run's summary and the
/// section partition, keyed by [`program_key`] (the full program
/// content). With a validated program record and every consulted
/// section record intact, a warm rerun skips the golden simulation
/// and the section capture entirely.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramRecord {
    /// Fault-free cycle count.
    pub golden_cycles: u64,
    /// Fault-free dynamic instruction count.
    pub golden_dyn: u64,
    /// Fault-free exit code.
    pub halt_code: i64,
    /// Fault-free output stream (halt-evidence classification target).
    pub stream: Vec<OutVal>,
    /// Per section `(lo, hi, start_digest)`, in trace order.
    pub partition: Vec<(u64, u64, u64)>,
}

/// Content hash addressing a [`ProgramRecord`]: everything that
/// determines the golden run and the section partition. The per-block
/// hashes cover the scheduled code (instructions, clusters, exact
/// immediates — global *addresses* included) and the live-in masks;
/// the globals' initial images, layout and the register-file sizes
/// are hashed explicitly because no block hash covers them.
pub fn program_key(sp: &ScheduledProgram, hashes: &[(u64, u64)]) -> u64 {
    let func = sp.module.entry_fn();
    let mut h = Fnv64::new();
    h.write_u64(SECTION_FORMAT_VERSION);
    h.write(format!("{:?}", sp.config).as_bytes());
    h.write_u64(func.entry.index() as u64);
    h.write_u64(hashes.len() as u64);
    for &(code, live) in hashes {
        h.write_u64(code);
        h.write_u64(live);
    }
    h.write_u64(sp.module.data_end() as u64);
    h.write_u64(sp.module.globals.len() as u64);
    for g in &sp.module.globals {
        h.write(format!("{:?}", g.class).as_bytes());
        h.write_u64(g.len as u64);
        h.write_u64(g.addr as u64);
        h.write_u64(g.init.len() as u64);
        for &v in &g.init {
            h.write_u64(v as u64);
        }
    }
    for class in [RegClass::Gp, RegClass::Fp, RegClass::Pr] {
        h.write_u64(func.reg_count(class) as u64);
    }
    h.finish()
}

/// One cached section: per-trial evidence in trial order plus the
/// validation list `(block index, code hash, live-mask hash)` for
/// every block the golden span or any trial visited.
#[derive(Clone, Debug, PartialEq)]
pub struct SectionRecord {
    /// Entries, one per trial of the section's injection slice.
    pub entries: Vec<TrialEntry>,
    /// Blocks whose current-program hashes must match for reuse.
    pub validation: Vec<(u32, u64, u64)>,
}

/// Content hash addressing one section's record. Every input that
/// could change the bounded trial runs is mixed in; two programs (or
/// two edits of one program) share a record exactly when the section
/// is provably equivalent for these trials.
#[allow(clippy::too_many_arguments)]
pub fn section_key(
    sp: &ScheduledProgram,
    max_cycles: u64,
    golden_cycles: u64,
    golden_dyn: u64,
    lo: u64,
    hi: u64,
    start_digest: u64,
    injections: &[Injection],
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(SECTION_FORMAT_VERSION);
    // MachineConfig derives Debug over every field; the Debug form is
    // injective on its values and hashed once per section.
    h.write(format!("{:?}", sp.config).as_bytes());
    h.write_u64(max_cycles);
    // golden cycles/dyn pin the watchdog bound and the sampling
    // cadence the capture derived (a per-section view alone would not
    // imply them).
    h.write_u64(golden_cycles);
    h.write_u64(golden_dyn);
    h.write_u64(lo);
    h.write_u64(hi);
    h.write_u64(start_digest);
    h.write_u64(injections.len() as u64);
    for inj in injections {
        h.write_u64(inj.at_dyn_insn);
        h.write_u64(inj.bit as u64);
    }
    h.finish()
}

fn put_stream(buf: &mut Vec<u8>, stream: &[OutVal]) {
    put_uvarint(buf, stream.len() as u64);
    for v in stream {
        match v {
            OutVal::Int(i) => {
                put_uvarint(buf, 0);
                put_uvarint(buf, *i as u64);
            }
            OutVal::Float(f) => {
                put_uvarint(buf, 1);
                put_uvarint(buf, f.to_bits());
            }
        }
    }
}

fn get_stream(payload: &[u8], pos: &mut usize) -> Option<Vec<OutVal>> {
    let len = get_uvarint(payload, pos)?;
    let mut stream = Vec::with_capacity(len.min(1 << 20) as usize);
    for _ in 0..len {
        stream.push(match get_uvarint(payload, pos)? {
            0 => OutVal::Int(get_uvarint(payload, pos)? as i64),
            1 => OutVal::Float(f64::from_bits(get_uvarint(payload, pos)?)),
            _ => return None,
        });
    }
    Some(stream)
}

fn put_validation(buf: &mut Vec<u8>, validation: &[(u32, u64, u64)]) {
    put_uvarint(buf, validation.len() as u64);
    for &(block, code, live) in validation {
        put_uvarint(buf, block as u64);
        put_uvarint(buf, code);
        put_uvarint(buf, live);
    }
}

fn get_validation(payload: &[u8], pos: &mut usize) -> Option<Vec<(u32, u64, u64)>> {
    let n = get_uvarint(payload, pos)?;
    let mut validation = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        let block = get_uvarint(payload, pos)?;
        let code = get_uvarint(payload, pos)?;
        let live = get_uvarint(payload, pos)?;
        validation.push((u32::try_from(block).ok()?, code, live));
    }
    Some(validation)
}

/// Append one entry. Escape evidence nests its verdict as an entry.
fn put_entry(buf: &mut Vec<u8>, e: &TrialEntry) {
    match e {
        TrialEntry::Resolved(o) => {
            put_uvarint(buf, 0);
            put_uvarint(buf, o.index() as u64);
        }
        TrialEntry::Halted { code, stream } => {
            put_uvarint(buf, 1);
            put_ivarint(buf, *code);
            put_stream(buf, stream);
        }
        TrialEntry::Escaped(None) => {
            put_uvarint(buf, 2);
            put_uvarint(buf, 0);
        }
        TrialEntry::Escaped(Some(ev)) => {
            put_uvarint(buf, 2);
            put_uvarint(buf, 1);
            put_entry(buf, &ev.outcome);
            put_validation(buf, &ev.validation);
        }
    }
}

/// Decode one entry; `nested` is set inside escape evidence, where a
/// further `Escaped` is non-canonical.
fn get_entry(payload: &[u8], pos: &mut usize, nested: bool) -> Option<TrialEntry> {
    Some(match get_uvarint(payload, pos)? {
        0 => TrialEntry::Resolved(*Outcome::ALL.get(get_uvarint(payload, pos)? as usize)?),
        1 => {
            let code = get_ivarint(payload, pos)?;
            TrialEntry::Halted { code, stream: get_stream(payload, pos)? }
        }
        2 if !nested => match get_uvarint(payload, pos)? {
            0 => TrialEntry::Escaped(None),
            1 => {
                let outcome = Box::new(get_entry(payload, pos, true)?);
                let validation = get_validation(payload, pos)?;
                TrialEntry::Escaped(Some(EscapeEvidence { outcome, validation }))
            }
            _ => return None,
        },
        _ => return None,
    })
}

fn encode_record(rec: &SectionRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    put_uvarint(&mut buf, rec.entries.len() as u64);
    for e in &rec.entries {
        put_entry(&mut buf, e);
    }
    put_validation(&mut buf, &rec.validation);
    buf
}

fn decode_record(payload: &[u8]) -> Option<SectionRecord> {
    let mut pos = 0;
    let n = get_uvarint(payload, &mut pos)?;
    let mut entries = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        entries.push(get_entry(payload, &mut pos, false)?);
    }
    let validation = get_validation(payload, &mut pos)?;
    // Strictly canonical: trailing bytes mean a foreign or damaged
    // record, not a shorter one.
    if pos != payload.len() {
        return None;
    }
    Some(SectionRecord { entries, validation })
}

fn encode_program(rec: &ProgramRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    put_uvarint(&mut buf, rec.golden_cycles);
    put_uvarint(&mut buf, rec.golden_dyn);
    put_ivarint(&mut buf, rec.halt_code);
    put_stream(&mut buf, &rec.stream);
    put_uvarint(&mut buf, rec.partition.len() as u64);
    for &(lo, hi, digest) in &rec.partition {
        put_uvarint(&mut buf, lo);
        put_uvarint(&mut buf, hi);
        put_uvarint(&mut buf, digest);
    }
    buf
}

fn decode_program(payload: &[u8]) -> Option<ProgramRecord> {
    let mut pos = 0;
    let golden_cycles = get_uvarint(payload, &mut pos)?;
    let golden_dyn = get_uvarint(payload, &mut pos)?;
    let halt_code = get_ivarint(payload, &mut pos)?;
    let stream = get_stream(payload, &mut pos)?;
    let n = get_uvarint(payload, &mut pos)?;
    let mut partition = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        let lo = get_uvarint(payload, &mut pos)?;
        let hi = get_uvarint(payload, &mut pos)?;
        let digest = get_uvarint(payload, &mut pos)?;
        partition.push((lo, hi, digest));
    }
    if pos != payload.len() {
        return None;
    }
    Some(ProgramRecord { golden_cycles, golden_dyn, halt_code, stream, partition })
}

/// Load a section record; a missing, damaged or non-canonical record
/// is a miss.
fn load_record(store: &ArtifactStore, key: u64) -> Option<SectionRecord> {
    decode_record(&store.load(KIND_SECT, key)?)
}

/// Does every `(block, code hash, live hash)` triple still match the
/// current program's `hashes`?
fn validates(validation: &[(u32, u64, u64)], hashes: &[(u64, u64)]) -> bool {
    validation
        .iter()
        .all(|&(block, code, live)| hashes.get(block as usize) == Some(&(code, live)))
}

/// The validation list of a set of visited blocks on the current
/// program.
fn validation_of(blocks: impl IntoIterator<Item = u32>, hashes: &[(u64, u64)]) -> Vec<(u32, u64, u64)> {
    blocks
        .into_iter()
        .map(|b| {
            let (code, live) = hashes[b as usize];
            (b, code, live)
        })
        .collect()
}

/// Classify one stored entry against the golden summary
/// `(golden_code, golden_stream)`. `None` for an escape without
/// reusable evidence: it needs a whole-program replay.
fn resolve(
    entry: &TrialEntry,
    golden_code: i64,
    golden_stream: &[OutVal],
    hashes: &[(u64, u64)],
) -> Option<Outcome> {
    match entry {
        TrialEntry::Resolved(o) => Some(*o),
        // Section evidence carries no correction count: vote programs
        // stay outside the vocabulary (`run_campaign_incremental`).
        TrialEntry::Halted { code, stream } => Some(crate::classify_halt(
            &StopReason::Halt(golden_code),
            golden_stream,
            *code,
            stream,
            0,
        )),
        TrialEntry::Escaped(Some(ev)) if validates(&ev.validation, hashes) => {
            resolve(&ev.outcome, golden_code, golden_stream, hashes)
        }
        TrialEntry::Escaped(_) => None,
    }
}

/// The frozen injection stream: identical draw order to every other
/// engine.
fn frozen_stream(cfg: &CampaignConfig, golden_dyn: u64) -> Vec<Injection> {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    (0..cfg.trials)
        .map(|_| crate::draw_output_injection(&mut rng, golden_dyn, cfg.flip))
        .collect()
}

/// Turn one replay verdict — a bounded section trial's or an escape's
/// whole-program one — into its stored evidence. A finished run's
/// golden-independent stops resolve now; its halt stays raw.
fn entry_of(trial: TrialRun, golden: &casted_sim::SimResult) -> TrialEntry {
    match trial {
        TrialRun::Finished(r) => match r.stop {
            StopReason::Detected => TrialEntry::Resolved(Outcome::Detected),
            StopReason::Exception(_) => TrialEntry::Resolved(Outcome::Exception),
            StopReason::Timeout => TrialEntry::Resolved(Outcome::Timeout),
            StopReason::Halt(code) => TrialEntry::Halted { code, stream: r.stream },
        },
        TrialRun::Converged { corrections, .. } => {
            // Convergence proves the trial equals the golden run from
            // the convergence point on; resolve it now. (The stored
            // verdict stays valid across edits the validation admits:
            // a hit implies the golden in-span states are unchanged,
            // so the convergence re-proves itself — see
            // docs/INCREMENTAL.md.)
            debug_assert!(matches!(golden.stop, StopReason::Halt(_)));
            TrialEntry::Resolved(crate::golden_halt_outcome(corrections))
        }
        TrialRun::Escaped => TrialEntry::Escaped(None),
    }
}

/// Run a Monte-Carlo campaign through the section cache.
///
/// Draws the identical frozen injection stream as every other engine,
/// buckets trials by section, reuses validated cached records,
/// injects only miss sections (bounded per-section runs), replays
/// escapes whole-program, and reduces the tally **in trial order** —
/// the recombined tally is byte-identical to
/// [`crate::run_campaign_engine`] on any engine with the same config
/// (the four-level gate stack enforces this; see `docs/INCREMENTAL.md`
/// for the argument). Only the default `InstructionOutput` fault
/// model is supported — the register-file model's third stream draw
/// is not part of the section key vocabulary. Panics unless the target
/// halts fault-free; [`run_campaign_incremental_within`] bounds that
/// run and returns the refusal instead.
pub fn run_campaign_incremental(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    store: &ArtifactStore,
) -> CampaignResult {
    crate::halted(run_campaign_incremental_within(sp, cfg, store, u64::MAX))
}

/// [`run_campaign_incremental`] with the fault-free run bounded by the
/// watchdog `max_cycles`, refusing a target that does not halt within
/// it as [`crate::run_campaign_within`] does. A warm rerun still
/// simulates nothing: its [`ProgramRecord`] proves the target halts
/// within any bound of at least `golden_cycles`. Under a tighter bound
/// the record is not used and the cold path's bounded golden run
/// decides.
pub fn run_campaign_incremental_within(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    store: &ArtifactStore,
    max_cycles: u64,
) -> Result<CampaignResult, StopReason> {
    // The section evidence vocabulary predates the recovery-capable
    // schemes: halt evidence is `(exit code, stream)` only, so a vote
    // correction, a multi-bit burst or a replay-digest plan cannot be
    // recombined from the store. Campaigns outside the vocabulary run
    // on the standard engine instead — byte-identical tally, no
    // caching — rather than silently misclassifying Corrected trials.
    if cfg.flip != crate::FlipModel::Single || cfg.replay_detect || program_has_votes(sp) {
        return crate::run_campaign_within(sp, cfg, crate::Engine::default(), max_cycles);
    }
    // One decode and one liveness analysis serve the validation hashes
    // and, on the cold path, every golden pass and replay.
    let program = CampaignProgram::new(sp);
    let hashes = block_validation_hashes(sp, &program);
    let pkey = program_key(sp, &hashes);
    let record = store.load(KIND_PROG, pkey).as_deref().and_then(decode_program);
    if let Some(prog) = record.filter(|prog| prog.golden_cycles <= max_cycles) {
        if let Some(result) = recombine_from_cache(sp, cfg, store, &hashes, &prog) {
            return Ok(result);
        }
    }
    run_campaign_cold(sp, program, cfg, store, &hashes, pkey, max_cycles)
}

/// Whether the scheduled program contains any majority-vote
/// instruction (the TMRED transform) — see the vocabulary gate in
/// [`run_campaign_incremental`].
fn program_has_votes(sp: &ScheduledProgram) -> bool {
    sp.module
        .entry_fn()
        .insns
        .iter()
        .any(|i| i.op == casted_ir::Opcode::Vote)
}

/// The fully-warm fast path: with a validated [`ProgramRecord`] and
/// every consulted section record — per-escape evidence included —
/// intact, the whole campaign recombines from the store without
/// simulating a single cycle, golden run included. Any gap (a missing
/// or stale section, an escape without reusable evidence, a damaged
/// partition) returns `None` and the caller falls back to the full
/// path.
fn recombine_from_cache(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    store: &ArtifactStore,
    hashes: &[(u64, u64)],
    prog: &ProgramRecord,
) -> Option<CampaignResult> {
    // A malformed partition (foreign or damaged record) is a miss.
    if prog.golden_dyn == 0
        || prog.partition.is_empty()
        || prog.partition[0].0 != 0
        || prog.partition.last().unwrap().1 != prog.golden_dyn
    {
        return None;
    }
    let golden_cycles = prog.golden_cycles;
    let golden_dyn = prog.golden_dyn;
    let max_cycles = golden_cycles.saturating_mul(cfg.timeout_factor);
    let injections = frozen_stream(cfg, golden_dyn);

    let span = casted_obs::span("faults.campaign_ns");
    let nsec = prog.partition.len();
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); nsec];
    for (i, inj) in injections.iter().enumerate() {
        let j = prog
            .partition
            .partition_point(|&(_, hi, _)| hi < inj.at_dyn_insn)
            .min(nsec - 1);
        buckets[j].push(i);
    }

    let mut stats = SectionStats { total: nsec as u64, ..SectionStats::default() };
    let mut slots: Vec<Option<Outcome>> = vec![None; cfg.trials];
    for (j, ids) in buckets.iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        let (lo, hi, start_digest) = prog.partition[j];
        let slice: Vec<Injection> = ids.iter().map(|&i| injections[i]).collect();
        let key =
            section_key(sp, max_cycles, golden_cycles, golden_dyn, lo, hi, start_digest, &slice);
        let rec = load_record(store, key)?;
        if rec.entries.len() != ids.len() || !validates(&rec.validation, hashes) {
            return None;
        }
        for (&i, entry) in ids.iter().zip(&rec.entries) {
            slots[i] = Some(resolve(entry, prog.halt_code, &prog.stream, hashes)?);
        }
        stats.hit += 1;
        stats.recombined += ids.len() as u64;
    }

    let mut tally = Tally::default();
    for o in slots {
        tally.record(o.expect("every trial classified exactly once"));
    }
    let engine_stats = EngineStats { sections: stats, ..EngineStats::default() };
    crate::record_campaign_metrics(&tally, Some(&engine_stats), span);
    Some(CampaignResult { tally, golden_cycles, golden_dyn, engine: engine_stats })
}

/// The full path: golden run, section capture, per-section cache
/// consultation, bounded injection of the misses, whole-program
/// replay of the escapes an edit invalidated — and write-back of
/// every refreshed record (escape evidence included) plus the
/// program record, so the next run can take the fast path. Two golden
/// passes in all: the metrics-flushing run under the watchdog
/// `max_cycles` and the section capture, whose trace the bounded
/// trials and the escape replays share.
fn run_campaign_cold(
    sp: &ScheduledProgram,
    program: CampaignProgram,
    cfg: &CampaignConfig,
    store: &ArtifactStore,
    hashes: &[(u64, u64)],
    pkey: u64,
    max_cycles: u64,
) -> Result<CampaignResult, StopReason> {
    // The section capture re-runs the whole program: no grid.
    let golden = GoldenRun::run(sp, program, max_cycles, 0, false);
    let StopReason::Halt(golden_code) = golden.result.stop else {
        return Err(golden.result.stop);
    };
    let golden_cycles = golden.result.stats.cycles;
    let golden_dyn = golden.result.stats.dyn_insns;
    let trial_max_cycles = golden_cycles.saturating_mul(cfg.timeout_factor);
    let injections = frozen_stream(cfg, golden_dyn);

    let span = casted_obs::span("faults.campaign_ns");

    let cap = golden.capture_sections(sp);
    let golden = &cap.trace.result;
    let nsec = cap.sections.len();

    // Bucket trial indices per section. The golden run halted, so
    // golden_dyn >= 1 and no draw is degenerate (at = u64::MAX).
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); nsec];
    for (i, inj) in injections.iter().enumerate() {
        debug_assert!(inj.at_dyn_insn >= 1 && inj.at_dyn_insn <= golden_dyn);
        buckets[cap.section_of(inj.at_dyn_insn)].push(i);
    }

    // Consult the store per non-empty section.
    let mut stats = SectionStats { total: nsec as u64, ..SectionStats::default() };
    let mut cached: Vec<Option<SectionRecord>> = vec![None; nsec];
    let mut keys: Vec<u64> = vec![0; nsec];
    let mut misses: Vec<usize> = Vec::new();
    for (j, ids) in buckets.iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        let sec = &cap.sections[j];
        let slice: Vec<Injection> = ids.iter().map(|&i| injections[i]).collect();
        keys[j] = section_key(
            sp,
            trial_max_cycles,
            golden_cycles,
            golden_dyn,
            sec.lo,
            sec.hi,
            sec.start_digest,
            &slice,
        );
        match load_record(store, keys[j]) {
            Some(rec) if rec.entries.len() == ids.len() && validates(&rec.validation, hashes) => {
                stats.hit += 1;
                stats.recombined += ids.len() as u64;
                cached[j] = Some(rec);
            }
            _ => {
                stats.miss += 1;
                misses.push(j);
            }
        }
    }

    // Inject the miss sections (each runs its trials bounded to the
    // section), pooled across sections.
    let fresh = run_pool(
        misses
            .iter()
            .map(|&j| {
                let cap = &cap;
                let hashes: &[(u64, u64)] = hashes;
                let ids: &[usize] = &buckets[j];
                let injections: &[Injection] = &injections;
                move || {
                    let sec = &cap.sections[j];
                    let mut visited = BlockSet::default();
                    visited.extend(sec.golden_blocks.iter().copied());
                    let entries: Vec<TrialEntry> = ids
                        .iter()
                        .map(|&i| {
                            let (run, _) = replay_trial(
                                &cap.trace,
                                injections[i],
                                trial_max_cycles,
                                Some(sec.hi),
                                Some(&mut visited),
                            );
                            entry_of(run, &cap.trace.result)
                        })
                        .collect();
                    let validation = validation_of(visited.iter(), hashes);
                    (j, SectionRecord { entries, validation })
                }
            })
            .collect(),
    );
    let mut dirty: Vec<bool> = vec![false; nsec];
    for (j, rec) in fresh {
        cached[j] = Some(rec);
        dirty[j] = true;
    }

    // Recombine into per-trial outcome slots. Halts classify against
    // the *current* golden run; escapes resolve from cached evidence
    // where it still validates, and only the rest replay
    // whole-program — pooled, in trial order.
    let mut slots: Vec<Option<Outcome>> = vec![None; cfg.trials];
    // (trial, section, entry index) per escape needing a live replay.
    let mut pending: Vec<(usize, usize, usize)> = Vec::new();
    for (j, ids) in buckets.iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        let rec = cached[j].as_ref().expect("every consulted section resolved");
        for (k, (&i, entry)) in ids.iter().zip(&rec.entries).enumerate() {
            slots[i] = resolve(entry, golden_code, &golden.stream, hashes);
            if slots[i].is_none() {
                pending.push((i, j, k));
            }
        }
    }
    pending.sort_unstable();
    // Escapes replay on the section trace with no span end: from their
    // section's start, probing every later section's samples.
    stats.escaped = pending.len() as u64;
    let mut engine_stats = EngineStats {
        checkpoints: cap.trace.checkpoints_taken(),
        capture_insns: cap.trace.capture_insns(),
        sections: stats,
        ..EngineStats::default()
    };
    let replays = run_pool(
        pending
            .iter()
            .map(|&(i, _, _)| {
                let trace = &cap.trace;
                let inj = injections[i];
                move || {
                    let mut blocks = BlockSet::default();
                    let (run, skipped) =
                        replay_trial(trace, inj, trial_max_cycles, None, Some(&mut blocks));
                    (run, skipped, blocks)
                }
            })
            .collect(),
    );
    // Evidence validation surface: the blocks each replay visited after
    // the fault landed, plus — for a converged verdict — the golden
    // blocks between the span exit and the convergence point (the
    // stored Benign also asserts the *golden* state there; the in-span
    // golden blocks are already in the section's own validation list).
    for (&(i, j, k), (run, skipped, mut vset)) in pending.iter().zip(replays) {
        engine_stats.skipped_insns += skipped;
        match run {
            TrialRun::Converged { at, .. } => {
                engine_stats.pruned_trials += 1;
                for sec in cap.sections.iter().take(cap.section_of(at) + 1).skip(j + 1) {
                    vset.extend(sec.golden_blocks.iter().copied());
                }
            }
            TrialRun::Escaped => unreachable!("no span end, no escape"),
            TrialRun::Finished(_) => {}
        }
        let evidence = entry_of(run, golden);
        slots[i] = resolve(&evidence, golden_code, &golden.stream, hashes);
        let rec = cached[j].as_mut().expect("escape came from a resolved section");
        rec.entries[k] = TrialEntry::Escaped(Some(EscapeEvidence {
            outcome: Box::new(evidence),
            validation: validation_of(vset.iter(), hashes),
        }));
        dirty[j] = true;
    }

    // Persist every re-injected or evidence-refreshed record, plus
    // the program record — best-effort: a full disk or read-only
    // cache degrades to a cold section next run, never a wrong tally.
    for (j, rec) in cached.iter().enumerate() {
        if dirty[j] {
            if let Some(rec) = rec {
                let _ = store.save(KIND_SECT, keys[j], &encode_record(rec));
            }
        }
    }
    let prog = ProgramRecord {
        golden_cycles,
        golden_dyn,
        halt_code: golden_code,
        stream: golden.stream.clone(),
        partition: cap.sections.iter().map(|s| (s.lo, s.hi, s.start_digest)).collect(),
    };
    let _ = store.save(KIND_PROG, pkey, &encode_program(&prog));

    let mut tally = Tally::default();
    for o in slots {
        tally.record(o.expect("every trial classified exactly once"));
    }
    crate::record_campaign_metrics(&tally, Some(&engine_stats), span);
    Ok(CampaignResult {
        tally,
        golden_cycles,
        golden_dyn,
        engine: engine_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_campaign_engine, Engine};
    use casted_ir::{FunctionBuilder, MachineConfig, Module, Opcode, Operand};
    use std::path::PathBuf;

    fn summing_module(iters: i64) -> Module {
        let mut m = Module::new("t");
        let (_, addr) = m.add_global("g", casted_ir::func::GlobalClass::Int, 64, (0..64).collect());
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let acc = b.imm(0);
        let i = b.imm(0);
        b.br(body);
        b.switch_to(body);
        let base = b.imm(addr);
        let m63 = b.binop(Opcode::And, Operand::Reg(i), Operand::Imm(63));
        let sh = b.binop(Opcode::Shl, Operand::Reg(m63), Operand::Imm(3));
        let ea = b.binop(Opcode::Add, Operand::Reg(base), Operand::Reg(sh));
        let v = b.load(ea, 0);
        let acc1 = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(v));
        b.push(Opcode::MovI, vec![acc], vec![Operand::Reg(acc1)]);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        let p = b.cmp(casted_ir::CmpKind::Lt, Operand::Reg(i), Operand::Imm(iters));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        m
    }

    fn program() -> ScheduledProgram {
        ScheduledProgram::sequential(&summing_module(200), MachineConfig::itanium2_like(2, 2))
    }

    fn tmp_store(tag: &str) -> (PathBuf, ArtifactStore) {
        let dir = std::env::temp_dir().join(format!(
            "casted-sections-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.clone(), ArtifactStore::open(&dir).expect("open store"))
    }

    #[test]
    fn record_codec_round_trips() {
        let rec = SectionRecord {
            entries: vec![
                TrialEntry::Resolved(Outcome::Detected),
                TrialEntry::Halted {
                    code: -7,
                    stream: vec![OutVal::Int(-1), OutVal::Float(2.5), OutVal::Int(i64::MAX)],
                },
                TrialEntry::Escaped(None),
                TrialEntry::Escaped(Some(EscapeEvidence {
                    outcome: Box::new(TrialEntry::Halted { code: 3, stream: vec![OutVal::Int(8)] }),
                    validation: vec![(4, 5, 6)],
                })),
                TrialEntry::Escaped(Some(EscapeEvidence {
                    outcome: Box::new(TrialEntry::Resolved(Outcome::Benign)),
                    validation: vec![],
                })),
                TrialEntry::Escaped(Some(EscapeEvidence {
                    outcome: Box::new(TrialEntry::Resolved(Outcome::Timeout)),
                    validation: vec![(0, 0, 0), (u32::MAX, 1, 2)],
                })),
                TrialEntry::Resolved(Outcome::Benign),
            ],
            validation: vec![(0, 1, 2), (9, u64::MAX, 0x1234)],
        };
        let bytes = encode_record(&rec);
        assert_eq!(decode_record(&bytes), Some(rec.clone()));
        // Truncation and trailing garbage both reject.
        assert_eq!(decode_record(&bytes[..bytes.len() - 1]), None);
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(decode_record(&longer), None);
        // Escape evidence never nests another escape.
        let nested = SectionRecord {
            entries: vec![TrialEntry::Escaped(Some(EscapeEvidence {
                outcome: Box::new(TrialEntry::Escaped(None)),
                validation: vec![],
            }))],
            validation: vec![],
        };
        assert_eq!(decode_record(&encode_record(&nested)), None);
    }

    /// The headline claim at unit scale: cold incremental == cold full
    /// campaign on every engine, byte for byte, and a warm rerun (no
    /// edit) recombines entirely from cache to the same bytes.
    #[test]
    fn incremental_matches_all_engines_cold_and_warm() {
        let sp = program();
        let cfg = CampaignConfig { trials: 120, ..Default::default() };
        let (dir, store) = tmp_store("coldwarm");
        let cold = run_campaign_incremental(&sp, &cfg, &store);
        for engine in [Engine::Reference, Engine::Checkpointed] {
            let full = run_campaign_engine(&sp, &cfg, engine);
            assert_eq!(cold.tally, full.tally, "{} disagrees", engine.name());
            assert_eq!(cold.golden_cycles, full.golden_cycles);
            assert_eq!(cold.golden_dyn, full.golden_dyn);
        }
        assert!(cold.engine.sections.total > 1, "single-section plan is vacuous");
        assert_eq!(cold.engine.sections.hit, 0);
        assert!(cold.engine.sections.miss > 0);

        let warm = run_campaign_incremental(&sp, &cfg, &store);
        assert_eq!(warm.tally, cold.tally, "warm recombination changed the tally");
        assert_eq!(warm.engine.sections.miss, 0, "warm rerun re-injected");
        assert_eq!(warm.engine.sections.hit, cold.engine.sections.miss);
        assert_eq!(warm.engine.sections.recombined as usize, cfg.trials);
        // The fully-warm rerun takes the fast path: no golden run, no
        // checkpoints, no replays — everything from the store.
        assert_eq!(warm.engine.checkpoints, 0, "warm rerun re-simulated the golden run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cold campaign replays its escapes on the section capture's
    /// trace: the only snapshots it holds are the section starts, so
    /// no golden pass beyond the capture ran for the escapes.
    #[test]
    fn cold_escape_replays_take_no_snapshot_beyond_the_section_starts() {
        let sp = program();
        let cfg = CampaignConfig { trials: 300, ..Default::default() };
        let (dir, store) = tmp_store("escapes");
        let cold = run_campaign_incremental(&sp, &cfg, &store);
        let s = cold.engine.sections;
        assert!(s.escaped > 0, "no escape replayed: the test is vacuous ({s:?})");
        assert_eq!(cold.engine.checkpoints, s.total, "a snapshot beyond the section starts");
        assert_eq!(cold.tally, run_campaign_engine(&sp, &cfg, Engine::Reference).tally);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Codec round-trip for the whole-program record, plus the same
    /// damage rejections as the section codec. (Key, kind and checksum
    /// binding are the store envelope's, pinned in `casted_util::store`.)
    #[test]
    fn program_record_codec_round_trips() {
        let rec = ProgramRecord {
            golden_cycles: 123_456,
            golden_dyn: 7890,
            halt_code: -3,
            stream: vec![OutVal::Int(1), OutVal::Float(-0.5)],
            partition: vec![(0, 100, 11), (100, 7890, u64::MAX)],
        };
        let bytes = encode_program(&rec);
        assert_eq!(decode_program(&bytes), Some(rec.clone()));
        assert_eq!(decode_program(&bytes[..bytes.len() - 1]), None);
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(decode_program(&longer), None);
    }

    /// A corrupted program record degrades to the full path (golden
    /// run and all), never a wrong tally — and the full run heals it,
    /// so the run after that takes the fast path again.
    #[test]
    fn corrupted_program_record_falls_back_and_heals() {
        let sp = program();
        let cfg = CampaignConfig { trials: 80, ..Default::default() };
        let (dir, store) = tmp_store("progsab");
        let cold = run_campaign_incremental(&sp, &cfg, &store);

        let victim = std::fs::read_dir(&dir)
            .expect("read cache dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "prog"))
            .expect("cache has a program record");
        let mut bytes = std::fs::read(&victim).expect("read record");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&victim, &bytes).expect("write sabotage");

        // Fresh handles from here on: the cold handle's write-through
        // front cache would answer from memory and never see the damage.
        let store = ArtifactStore::open(&dir).expect("reopen store");
        let warm = run_campaign_incremental(&sp, &cfg, &store);
        assert_eq!(warm.tally, cold.tally, "sabotaged program record changed the tally");
        assert!(warm.engine.checkpoints > 0, "damage must force the full path");
        assert_eq!(warm.engine.sections.miss, 0, "section records were untouched");

        let store = ArtifactStore::open(&dir).expect("reopen store");
        let healed = run_campaign_incremental(&sp, &cfg, &store);
        assert_eq!(healed.tally, cold.tally);
        assert_eq!(healed.engine.checkpoints, 0, "heal must restore the fast path");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Edit the program's halt code (an epilogue-only change): the
    /// warm rerun hits every section that never visits the final
    /// block, re-injects the rest, and the recombined tally is still
    /// byte-identical to a cold full campaign *of the edited program*.
    #[test]
    fn edit_invalidates_only_touched_sections() {
        let sp = program();
        let cfg = CampaignConfig { trials: 150, ..Default::default() };
        let (dir, store) = tmp_store("edit");
        let _ = run_campaign_incremental(&sp, &cfg, &store);

        let mut m = summing_module(200);
        let func = m.entry_fn_mut();
        let halt = func
            .insns
            .iter()
            .position(|i| i.op == Opcode::Halt)
            .expect("program halts");
        func.insns[halt].imm = 7;
        let edited = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));

        let warm = run_campaign_incremental(&edited, &cfg, &store);
        assert!(warm.engine.sections.hit > 0, "epilogue edit invalidated everything");
        assert!(warm.engine.sections.miss > 0, "final-block sections must re-inject");
        let full = run_campaign_engine(&edited, &cfg, Engine::Reference);
        assert_eq!(warm.tally, full.tally, "recombined tally diverged after edit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sabotage self-test (docs/TESTING.md style): corrupt one cached
    /// record on disk — the store must detect the damage, fall back to
    /// re-injection, and still produce the exact tally. A wrong tally
    /// from a silently-accepted corrupt record is the failure mode
    /// this pins out of existence.
    #[test]
    fn corrupted_record_is_detected_and_reinjected() {
        let sp = program();
        let cfg = CampaignConfig { trials: 100, ..Default::default() };
        let (dir, store) = tmp_store("sabotage");
        let cold = run_campaign_incremental(&sp, &cfg, &store);

        // Flip one byte in the middle of one record's payload.
        let victim = std::fs::read_dir(&dir)
            .expect("read cache dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "sect"))
            .expect("cache has records");
        let mut bytes = std::fs::read(&victim).expect("read record");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).expect("write sabotage");

        // Fresh handles from here on: the cold handle's write-through
        // front cache would answer from memory and never see the damage.
        let store = ArtifactStore::open(&dir).expect("reopen store");
        let warm = run_campaign_incremental(&sp, &cfg, &store);
        assert_eq!(warm.tally, cold.tally, "sabotaged cache changed the tally");
        assert_eq!(
            warm.engine.sections.miss, 1,
            "exactly the sabotaged section must re-inject: {:?}",
            warm.engine.sections
        );
        assert_eq!(warm.engine.sections.hit + 1, cold.engine.sections.miss);

        // And the re-injection healed the store on disk.
        let store = ArtifactStore::open(&dir).expect("reopen store");
        let healed = run_campaign_incremental(&sp, &cfg, &store);
        assert_eq!(healed.engine.sections.miss, 0);
        assert_eq!(healed.tally, cold.tally);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeds and trial counts address different records: changing
    /// either misses (the injection slice is part of the key), and the
    /// recombined result still matches the full campaign.
    #[test]
    fn key_binds_the_injection_slice() {
        let sp = program();
        let (dir, store) = tmp_store("keys");
        let a = CampaignConfig { trials: 60, ..Default::default() };
        let _ = run_campaign_incremental(&sp, &a, &store);
        let b = CampaignConfig { trials: 60, seed: 99, ..Default::default() };
        let r = run_campaign_incremental(&sp, &b, &store);
        assert!(r.engine.sections.hit < r.engine.sections.total, "foreign seed fully hit");
        assert_eq!(r.tally, run_campaign_engine(&sp, &b, Engine::Reference).tally);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
