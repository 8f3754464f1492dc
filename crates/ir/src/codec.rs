//! Canonical byte codec for IR values.
//!
//! The staged compile pipeline (see `docs/PIPELINE.md`) stores each
//! stage's output in an on-disk content-addressed artifact store. That
//! only works if a [`Module`] and a [`vliw::ScheduledProgram`] can be
//! turned into bytes **canonically** — the same value always encodes to
//! the same bytes, regardless of `HashMap` iteration order or any other
//! run-to-run nondeterminism — and decoded back to an *equal* value.
//!
//! Canonical form, built on `casted_util::codec` primitives:
//!
//! * every integer is a minimal-length LEB128 varint (the strict
//!   decoder rejects padded encodings),
//! * enums are encoded as stable tag tables defined here — adding a
//!   variant appends a tag, it never renumbers existing ones,
//! * `f64` is encoded by its IEEE bit pattern,
//! * map-shaped data (`ScheduledProgram::home`) is serialized sorted by
//!   key, and derived tables (`Module::func_by_name`) are rebuilt on
//!   decode rather than stored.
//!
//! A [`ScheduledProgram`] is encoded **without** its `MachineConfig`:
//! the artifact key of a schedule already pins every config field the
//! scheduler reads, while simulator-only fields (cache geometry, memory
//! latency, MSHRs) must not be baked into the artifact at all — the
//! caller re-installs its own current config on decode. See
//! [`decode_scheduled`].
//!
//! Decoding is strict: trailing bytes, out-of-range tags, dangling
//! block/instruction ids, or non-minimal varints all return `None`.
//! The artifact store treats `None` as a cache miss and recomputes.

use std::collections::HashMap;

use casted_util::codec::{get_ivarint, get_str, get_uvarint, put_ivarint, put_str, put_uvarint};

use crate::func::{Block, BlockId, FuncId, Function, Global, GlobalClass, Module};
use crate::insn::{Insn, InsnId, Operand, Provenance};
use crate::machine::{Cluster, MachineConfig};
use crate::op::{CmpKind, Opcode};
use crate::reg::{Reg, RegClass};
use crate::vliw::{Bundle, ScheduledBlock, ScheduledProgram};

/// Bound on decoded string/array lengths — far above any real program,
/// low enough that a corrupted length field cannot OOM the decoder.
const MAX_LEN: usize = 1 << 28;

// ------------------------- enum tag tables -------------------------

fn cmp_tag(k: CmpKind) -> u64 {
    match k {
        CmpKind::Eq => 0,
        CmpKind::Ne => 1,
        CmpKind::Lt => 2,
        CmpKind::Le => 3,
        CmpKind::Gt => 4,
        CmpKind::Ge => 5,
    }
}

fn cmp_of(tag: u64) -> Option<CmpKind> {
    Some(match tag {
        0 => CmpKind::Eq,
        1 => CmpKind::Ne,
        2 => CmpKind::Lt,
        3 => CmpKind::Le,
        4 => CmpKind::Gt,
        5 => CmpKind::Ge,
        _ => return None,
    })
}

/// `(tag, sub)` pair for an opcode; `sub` carries the [`CmpKind`] of
/// the two compare families and is zero everywhere else.
fn op_tag(op: Opcode) -> (u64, u64) {
    match op {
        Opcode::Add => (0, 0),
        Opcode::Sub => (1, 0),
        Opcode::Mul => (2, 0),
        Opcode::Div => (3, 0),
        Opcode::Rem => (4, 0),
        Opcode::And => (5, 0),
        Opcode::Or => (6, 0),
        Opcode::Xor => (7, 0),
        Opcode::Shl => (8, 0),
        Opcode::Shr => (9, 0),
        Opcode::Sra => (10, 0),
        Opcode::MovI => (11, 0),
        Opcode::Sel => (12, 0),
        Opcode::Cmp(k) => (13, cmp_tag(k)),
        Opcode::FCmp(k) => (14, cmp_tag(k)),
        Opcode::FAdd => (15, 0),
        Opcode::FSub => (16, 0),
        Opcode::FMul => (17, 0),
        Opcode::FDiv => (18, 0),
        Opcode::FMovI => (19, 0),
        Opcode::I2F => (20, 0),
        Opcode::F2I => (21, 0),
        Opcode::Load => (22, 0),
        Opcode::FLoad => (23, 0),
        Opcode::Store => (24, 0),
        Opcode::FStore => (25, 0),
        Opcode::Out => (26, 0),
        Opcode::FOut => (27, 0),
        Opcode::Br => (28, 0),
        Opcode::BrCond => (29, 0),
        Opcode::DetectBr => (30, 0),
        Opcode::ChkNe => (31, 0),
        Opcode::Halt => (32, 0),
        Opcode::Nop => (33, 0),
        Opcode::Vote => (34, 0),
    }
}

fn op_of(tag: u64, sub: u64) -> Option<Opcode> {
    // Non-compare opcodes must carry sub == 0 so every value has
    // exactly one encoding.
    if !matches!(tag, 13 | 14) && sub != 0 {
        return None;
    }
    Some(match tag {
        0 => Opcode::Add,
        1 => Opcode::Sub,
        2 => Opcode::Mul,
        3 => Opcode::Div,
        4 => Opcode::Rem,
        5 => Opcode::And,
        6 => Opcode::Or,
        7 => Opcode::Xor,
        8 => Opcode::Shl,
        9 => Opcode::Shr,
        10 => Opcode::Sra,
        11 => Opcode::MovI,
        12 => Opcode::Sel,
        13 => Opcode::Cmp(cmp_of(sub)?),
        14 => Opcode::FCmp(cmp_of(sub)?),
        15 => Opcode::FAdd,
        16 => Opcode::FSub,
        17 => Opcode::FMul,
        18 => Opcode::FDiv,
        19 => Opcode::FMovI,
        20 => Opcode::I2F,
        21 => Opcode::F2I,
        22 => Opcode::Load,
        23 => Opcode::FLoad,
        24 => Opcode::Store,
        25 => Opcode::FStore,
        26 => Opcode::Out,
        27 => Opcode::FOut,
        28 => Opcode::Br,
        29 => Opcode::BrCond,
        30 => Opcode::DetectBr,
        31 => Opcode::ChkNe,
        32 => Opcode::Halt,
        33 => Opcode::Nop,
        34 => Opcode::Vote,
        _ => return None,
    })
}

fn prov_tag(p: Provenance) -> u64 {
    match p {
        Provenance::Original => 0,
        Provenance::Duplicate => 1,
        Provenance::CheckCmp => 2,
        Provenance::CheckBr => 3,
        Provenance::IsolationCopy => 4,
        Provenance::CompilerGen => 5,
        Provenance::LibraryCode => 6,
    }
}

fn prov_of(tag: u64) -> Option<Provenance> {
    Some(match tag {
        0 => Provenance::Original,
        1 => Provenance::Duplicate,
        2 => Provenance::CheckCmp,
        3 => Provenance::CheckBr,
        4 => Provenance::IsolationCopy,
        5 => Provenance::CompilerGen,
        6 => Provenance::LibraryCode,
        _ => return None,
    })
}

fn class_tag(c: RegClass) -> u64 {
    c.index() as u64
}

fn class_of(tag: u64) -> Option<RegClass> {
    RegClass::ALL.get(usize::try_from(tag).ok()?).copied()
}

// ------------------------- small helpers ---------------------------

fn put_reg(buf: &mut Vec<u8>, r: Reg) {
    put_uvarint(buf, class_tag(r.class));
    put_uvarint(buf, r.index as u64);
}

fn get_reg(buf: &[u8], pos: &mut usize) -> Option<Reg> {
    let class = class_of(get_uvarint(buf, pos)?)?;
    let index = u32::try_from(get_uvarint(buf, pos)?).ok()?;
    Some(Reg::new(class, index))
}

fn put_opt_block(buf: &mut Vec<u8>, b: Option<BlockId>) {
    match b {
        None => put_uvarint(buf, 0),
        Some(b) => put_uvarint(buf, 1 + b.0 as u64),
    }
}

fn get_opt_block(buf: &[u8], pos: &mut usize, n_blocks: usize) -> Option<Option<BlockId>> {
    match get_uvarint(buf, pos)? {
        0 => Some(None),
        v => {
            let idx = u32::try_from(v - 1).ok()?;
            ((idx as usize) < n_blocks).then_some(Some(BlockId(idx)))
        }
    }
}

fn get_count(buf: &[u8], pos: &mut usize) -> Option<usize> {
    let n = usize::try_from(get_uvarint(buf, pos)?).ok()?;
    (n <= MAX_LEN).then_some(n)
}

// ------------------------- instructions ----------------------------

/// Append the canonical encoding of one instruction — every field
/// (opcode incl. compare kind, defs, uses with exact immediates, memory
/// offset, branch targets, provenance). The encoding is injective and
/// self-delimiting, so a sequence of encoded instructions determines
/// the instructions; content hashes over instructions use it too.
pub fn encode_insn(buf: &mut Vec<u8>, i: &Insn) {
    let (tag, sub) = op_tag(i.op);
    put_uvarint(buf, tag);
    put_uvarint(buf, sub);
    put_uvarint(buf, i.defs.len() as u64);
    for d in &i.defs {
        put_reg(buf, *d);
    }
    put_uvarint(buf, i.uses.len() as u64);
    for u in &i.uses {
        match u {
            Operand::Reg(r) => {
                put_uvarint(buf, 0);
                put_reg(buf, *r);
            }
            Operand::Imm(v) => {
                put_uvarint(buf, 1);
                put_ivarint(buf, *v);
            }
            Operand::FImm(v) => {
                put_uvarint(buf, 2);
                put_uvarint(buf, v.to_bits());
            }
        }
    }
    put_ivarint(buf, i.imm);
    put_opt_block(buf, i.target);
    put_opt_block(buf, i.target2);
    put_uvarint(buf, prov_tag(i.prov));
}

fn get_insn(buf: &[u8], pos: &mut usize, n_blocks: usize) -> Option<Insn> {
    let tag = get_uvarint(buf, pos)?;
    let sub = get_uvarint(buf, pos)?;
    let op = op_of(tag, sub)?;
    let n_defs = get_count(buf, pos)?;
    let mut defs = Vec::with_capacity(n_defs.min(4));
    for _ in 0..n_defs {
        defs.push(get_reg(buf, pos)?);
    }
    let n_uses = get_count(buf, pos)?;
    let mut uses = Vec::with_capacity(n_uses.min(8));
    for _ in 0..n_uses {
        uses.push(match get_uvarint(buf, pos)? {
            0 => Operand::Reg(get_reg(buf, pos)?),
            1 => Operand::Imm(get_ivarint(buf, pos)?),
            2 => Operand::FImm(f64::from_bits(get_uvarint(buf, pos)?)),
            _ => return None,
        });
    }
    let imm = get_ivarint(buf, pos)?;
    let target = get_opt_block(buf, pos, n_blocks)?;
    let target2 = get_opt_block(buf, pos, n_blocks)?;
    let prov = prov_of(get_uvarint(buf, pos)?)?;
    Some(Insn {
        op,
        defs,
        uses,
        imm,
        target,
        target2,
        prov,
    })
}

// ------------------------- functions -------------------------------

fn put_function(buf: &mut Vec<u8>, f: &Function) {
    put_str(buf, &f.name);
    put_uvarint(buf, f.blocks.len() as u64);
    // Blocks first, so instruction decoding can validate branch targets.
    for b in &f.blocks {
        put_str(buf, &b.name);
        put_uvarint(buf, b.insns.len() as u64);
        for id in &b.insns {
            put_uvarint(buf, id.0 as u64);
        }
    }
    put_uvarint(buf, f.insns.len() as u64);
    for i in &f.insns {
        encode_insn(buf, i);
    }
    put_uvarint(buf, f.entry.0 as u64);
    for class in RegClass::ALL {
        put_uvarint(buf, f.reg_count(class) as u64);
    }
}

fn get_function(buf: &[u8], pos: &mut usize) -> Option<Function> {
    let name = get_str(buf, pos, MAX_LEN)?.to_string();
    let n_blocks = get_count(buf, pos)?;
    let mut raw_blocks = Vec::with_capacity(n_blocks.min(1024));
    for _ in 0..n_blocks {
        let bname = get_str(buf, pos, MAX_LEN)?.to_string();
        let n = get_count(buf, pos)?;
        let mut insns = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            insns.push(InsnId(u32::try_from(get_uvarint(buf, pos)?).ok()?));
        }
        raw_blocks.push(Block { name: bname, insns });
    }
    let n_insns = get_count(buf, pos)?;
    let mut insns = Vec::with_capacity(n_insns.min(65536));
    for _ in 0..n_insns {
        insns.push(get_insn(buf, pos, n_blocks)?);
    }
    // Block orderings must reference real arena entries.
    for b in &raw_blocks {
        if b.insns.iter().any(|id| id.index() >= n_insns) {
            return None;
        }
    }
    let entry = BlockId(u32::try_from(get_uvarint(buf, pos)?).ok()?);
    if entry.index() >= n_blocks {
        return None;
    }
    let mut next_reg = [0u32; 3];
    for slot in &mut next_reg {
        *slot = u32::try_from(get_uvarint(buf, pos)?).ok()?;
    }
    Some(Function {
        name,
        insns,
        blocks: raw_blocks,
        entry,
        next_reg,
    })
}

// ------------------------- modules ---------------------------------

/// Encode a module to canonical bytes.
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    put_str(&mut buf, &m.name);
    put_uvarint(&mut buf, m.functions.len() as u64);
    for f in &m.functions {
        put_function(&mut buf, f);
    }
    put_uvarint(&mut buf, m.globals.len() as u64);
    for g in &m.globals {
        put_str(&mut buf, &g.name);
        put_uvarint(
            &mut buf,
            match g.class {
                GlobalClass::Int => 0,
                GlobalClass::Float => 1,
            },
        );
        put_uvarint(&mut buf, g.len as u64);
        put_ivarint(&mut buf, g.addr);
        put_uvarint(&mut buf, g.init.len() as u64);
        for v in &g.init {
            put_ivarint(&mut buf, *v);
        }
    }
    match m.entry {
        None => put_uvarint(&mut buf, 0),
        Some(f) => put_uvarint(&mut buf, 1 + f.0 as u64),
    }
    put_ivarint(&mut buf, m.data_end());
    buf
}

/// Decode a module from canonical bytes; `None` on any damage,
/// including trailing bytes.
pub fn decode_module(buf: &[u8]) -> Option<Module> {
    let mut pos = 0;
    let m = decode_module_at(buf, &mut pos)?;
    (pos == buf.len()).then_some(m)
}

fn decode_module_at(buf: &[u8], pos: &mut usize) -> Option<Module> {
    let name = get_str(buf, pos, MAX_LEN)?.to_string();
    let n_fns = get_count(buf, pos)?;
    let mut functions = Vec::with_capacity(n_fns.min(256));
    for _ in 0..n_fns {
        functions.push(get_function(buf, pos)?);
    }
    let n_globals = get_count(buf, pos)?;
    let mut globals = Vec::with_capacity(n_globals.min(1024));
    for _ in 0..n_globals {
        let gname = get_str(buf, pos, MAX_LEN)?.to_string();
        let class = match get_uvarint(buf, pos)? {
            0 => GlobalClass::Int,
            1 => GlobalClass::Float,
            _ => return None,
        };
        let len = get_count(buf, pos)?;
        let addr = get_ivarint(buf, pos)?;
        let n_init = get_count(buf, pos)?;
        if n_init > len {
            return None;
        }
        let mut init = Vec::with_capacity(n_init.min(65536));
        for _ in 0..n_init {
            init.push(get_ivarint(buf, pos)?);
        }
        globals.push(Global {
            name: gname,
            class,
            len,
            addr,
            init,
        });
    }
    let entry = match get_uvarint(buf, pos)? {
        0 => None,
        v => {
            let idx = u32::try_from(v - 1).ok()?;
            if idx as usize >= n_fns {
                return None;
            }
            Some(FuncId(idx))
        }
    };
    let next_addr = get_ivarint(buf, pos)?;
    // `func_by_name` is derived data: rebuild it in insertion order,
    // exactly as the sequence of `add_function` calls did.
    let mut func_by_name = HashMap::new();
    for (i, f) in functions.iter().enumerate() {
        func_by_name.insert(f.name.clone(), FuncId(i as u32));
    }
    Some(Module {
        name,
        functions,
        globals,
        entry,
        func_by_name,
        next_addr,
    })
}

// ------------------------- scheduled programs ----------------------

/// Encode a scheduled program to canonical bytes, **excluding** its
/// `MachineConfig` (see module docs for why).
pub fn encode_scheduled(sp: &ScheduledProgram) -> Vec<u8> {
    let mut buf = encode_module(&sp.module);
    put_uvarint(&mut buf, sp.assignment.len() as u64);
    for a in &sp.assignment {
        match a {
            None => put_uvarint(&mut buf, 0),
            Some(c) => put_uvarint(&mut buf, 1 + c.0 as u64),
        }
    }
    // `home` is a HashMap; serialize sorted by register so the bytes
    // are canonical.
    let mut home: Vec<(Reg, Cluster)> = sp.home.iter().map(|(r, c)| (*r, *c)).collect();
    home.sort_unstable();
    put_uvarint(&mut buf, home.len() as u64);
    for (r, c) in home {
        put_reg(&mut buf, r);
        put_uvarint(&mut buf, c.0 as u64);
    }
    put_uvarint(&mut buf, sp.blocks.len() as u64);
    for b in &sp.blocks {
        put_uvarint(&mut buf, b.block.0 as u64);
        put_uvarint(&mut buf, b.bundles.len() as u64);
        for bundle in &b.bundles {
            put_uvarint(&mut buf, bundle.slots.len() as u64);
            for slot in &bundle.slots {
                put_uvarint(&mut buf, slot.len() as u64);
                for id in slot {
                    put_uvarint(&mut buf, id.0 as u64);
                }
            }
        }
    }
    buf
}

/// Decode a scheduled program, installing `config` as its machine
/// configuration. The caller must only pass a config whose
/// scheduler-visible fields match the ones the schedule was produced
/// under — the artifact key pins exactly those fields, so a key hit
/// guarantees it.
pub fn decode_scheduled(buf: &[u8], config: &MachineConfig) -> Option<ScheduledProgram> {
    let mut pos = 0;
    let module = decode_module_at(buf, &mut pos)?;
    let n_assign = get_count(buf, &mut pos)?;
    let mut assignment = Vec::with_capacity(n_assign.min(65536));
    for _ in 0..n_assign {
        assignment.push(match get_uvarint(buf, &mut pos)? {
            0 => None,
            v => {
                let c = u8::try_from(v - 1).ok()?;
                if (c as usize) >= config.clusters {
                    return None;
                }
                Some(Cluster(c))
            }
        });
    }
    let n_home = get_count(buf, &mut pos)?;
    let mut home = HashMap::with_capacity(n_home.min(65536));
    let mut prev: Option<Reg> = None;
    for _ in 0..n_home {
        let r = get_reg(buf, &mut pos)?;
        // Enforce strictly increasing keys: exactly one encoding per map.
        if let Some(p) = prev {
            if r <= p {
                return None;
            }
        }
        prev = Some(r);
        let c = u8::try_from(get_uvarint(buf, &mut pos)?).ok()?;
        if (c as usize) >= config.clusters {
            return None;
        }
        home.insert(r, Cluster(c));
    }
    let n_blocks = get_count(buf, &mut pos)?;
    let mut blocks = Vec::with_capacity(n_blocks.min(4096));
    for _ in 0..n_blocks {
        let block = BlockId(u32::try_from(get_uvarint(buf, &mut pos)?).ok()?);
        let n_bundles = get_count(buf, &mut pos)?;
        let mut bundles = Vec::with_capacity(n_bundles.min(4096));
        for _ in 0..n_bundles {
            let n_slots = get_count(buf, &mut pos)?;
            let mut slots = Vec::with_capacity(n_slots.min(16));
            for _ in 0..n_slots {
                let n = get_count(buf, &mut pos)?;
                let mut slot = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    slot.push(InsnId(u32::try_from(get_uvarint(buf, &mut pos)?).ok()?));
                }
                slots.push(slot);
            }
            bundles.push(Bundle { slots });
        }
        blocks.push(ScheduledBlock { block, bundles });
    }
    if pos != buf.len() {
        return None;
    }
    Some(ScheduledProgram {
        module,
        config: config.clone(),
        assignment,
        home,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen;
    use crate::vliw::ScheduledProgram;

    fn demo_module() -> Module {
        let mut m = Module::new("codec-demo");
        let (_, _addr) = m.add_global("tab", GlobalClass::Int, 4, vec![1, 2, 3]);
        let mut b = crate::FunctionBuilder::new("main");
        let r = b.new_reg(RegClass::Gp);
        b.push(Opcode::MovI, vec![r], vec![Operand::Imm(21)]);
        let f = b.new_reg(RegClass::Fp);
        b.push(Opcode::FMovI, vec![f], vec![Operand::FImm(2.5)]);
        let r2 = b.new_reg(RegClass::Gp);
        b.push(Opcode::Add, vec![r2], vec![Operand::Reg(r), Operand::Reg(r)]);
        b.push(Opcode::Out, vec![], vec![Operand::Reg(r2)]);
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        m
    }

    fn assert_modules_equal(a: &Module, b: &Module) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.func_by_name, b.func_by_name);
        assert_eq!(a.data_end(), b.data_end());
        assert_eq!(a.functions.len(), b.functions.len());
        for (fa, fb) in a.functions.iter().zip(&b.functions) {
            assert_eq!(fa.name, fb.name);
            assert_eq!(fa.insns, fb.insns);
            assert_eq!(fa.blocks, fb.blocks);
            assert_eq!(fa.entry, fb.entry);
            for class in RegClass::ALL {
                assert_eq!(fa.reg_count(class), fb.reg_count(class));
            }
        }
        assert_eq!(a.globals.len(), b.globals.len());
        for (ga, gb) in a.globals.iter().zip(&b.globals) {
            assert_eq!(ga.name, gb.name);
            assert_eq!(ga.class, gb.class);
            assert_eq!(ga.len, gb.len);
            assert_eq!(ga.addr, gb.addr);
            assert_eq!(ga.init, gb.init);
        }
    }

    #[test]
    fn module_round_trips_and_is_canonical() {
        let m = demo_module();
        let bytes = encode_module(&m);
        let back = decode_module(&bytes).expect("decode");
        assert_modules_equal(&m, &back);
        // Re-encoding the decoded value reproduces the same bytes.
        assert_eq!(bytes, encode_module(&back));
    }

    #[test]
    fn generated_modules_round_trip() {
        for seed in 0..24u64 {
            let m = testgen::random_module(seed, &testgen::GenOptions::default());
            let bytes = encode_module(&m);
            let back = decode_module(&bytes).expect("decode generated module");
            assert_modules_equal(&m, &back);
            assert_eq!(bytes, encode_module(&back));
        }
    }

    #[test]
    fn module_decode_rejects_damage() {
        let bytes = encode_module(&demo_module());
        // Truncations at every prefix length must fail or... no: a
        // strict format can have no proper prefix that decodes, because
        // the full length is consumed and checked.
        for cut in 0..bytes.len() {
            assert!(
                decode_module(&bytes[..cut]).is_none(),
                "truncation to {cut} bytes decoded"
            );
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_module(&long).is_none());
    }

    fn demo_scheduled() -> ScheduledProgram {
        // A hand-built schedule exercising every field shape; validity
        // as a *schedule* is irrelevant to the codec.
        let m = demo_module();
        let mut home = HashMap::new();
        home.insert(Reg::gp(0), Cluster(0));
        home.insert(Reg::gp(1), Cluster(1));
        home.insert(Reg::fp(0), Cluster(0));
        home.insert(Reg::pr(0), Cluster(1));
        ScheduledProgram {
            assignment: vec![Some(Cluster(0)), None, Some(Cluster(1))],
            home,
            blocks: vec![ScheduledBlock {
                block: BlockId(0),
                bundles: vec![
                    Bundle {
                        slots: vec![vec![InsnId(0), InsnId(2)], vec![]],
                    },
                    Bundle {
                        slots: vec![vec![], vec![InsnId(1)]],
                    },
                ],
            }],
            config: MachineConfig::itanium2_like(2, 2),
            module: m,
        }
    }

    #[test]
    fn scheduled_round_trips_without_config() {
        let sp = demo_scheduled();
        let bytes = encode_scheduled(&sp);
        // Decode under a config that differs only in simulator-only
        // fields: the schedule body must come back identical and the
        // *caller's* config must be installed.
        let mut other = MachineConfig::itanium2_like(2, 2);
        other.memory_latency += 100;
        other.mshr_entries += 3;
        let back = decode_scheduled(&bytes, &other).expect("decode");
        assert_modules_equal(&sp.module, &back.module);
        assert_eq!(sp.assignment, back.assignment);
        assert_eq!(sp.home, back.home);
        assert_eq!(sp.blocks.len(), back.blocks.len());
        for (a, b) in sp.blocks.iter().zip(&back.blocks) {
            assert_eq!(a.block, b.block);
            assert_eq!(a.bundles.len(), b.bundles.len());
            for (ba, bb) in a.bundles.iter().zip(&b.bundles) {
                assert_eq!(ba.slots, bb.slots);
            }
        }
        assert_eq!(back.config.memory_latency, other.memory_latency);
        assert_eq!(bytes, encode_scheduled(&back));
    }

    #[test]
    fn scheduled_decode_rejects_damage() {
        let sp = demo_scheduled();
        let bytes = encode_scheduled(&sp);
        let cfg = MachineConfig::itanium2_like(2, 2);
        for cut in 0..bytes.len() {
            assert!(
                decode_scheduled(&bytes[..cut], &cfg).is_none(),
                "truncation to {cut} bytes decoded"
            );
        }
        let mut long = bytes.clone();
        long.push(7);
        assert!(decode_scheduled(&long, &cfg).is_none());
    }

    #[test]
    fn home_map_encoding_is_order_independent() {
        // Two maps built in different insertion orders encode
        // identically (sorted serialization).
        let sp = demo_scheduled();
        let mut sp2 = sp.clone();
        let pairs: Vec<(Reg, Cluster)> = sp.home.iter().map(|(r, c)| (*r, *c)).collect();
        sp2.home = HashMap::new();
        for (r, c) in pairs.iter().rev() {
            sp2.home.insert(*r, *c);
        }
        assert_eq!(encode_scheduled(&sp), encode_scheduled(&sp2));
    }

    #[test]
    fn bad_enum_tags_are_rejected() {
        // An opcode tag past the table must fail to decode.
        let m = demo_module();
        let bytes = encode_module(&m);
        // Corrupt one byte at a time; every outcome must be either a
        // clean failure or a decode equal to some module — never a
        // panic. (Checksum-level rejection happens one layer up, in
        // the artifact store.)
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = decode_module(&bad);
        }
    }
}
