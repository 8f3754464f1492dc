//! Word-semantics oracle: every opcode over every legal operand class,
//! run as a single-instruction bundle through the simulator and
//! through the reference interpreter (`casted_ir::interp`), which
//! evaluates on typed values. The two must agree on the stop reason
//! and on the output stream. Each program also emits the register the
//! instruction wrote: `out` for an integer, `fout` for a float, and
//! `out(sel p, 1, 0)` for a predicate.
//!
//! Operands come as registers and, where the class has an immediate
//! form, as immediates. The values cover the edges where value
//! semantics and word semantics could part: NaN payloads, ±0.0, ±inf,
//! `i64::MIN / -1`, division by zero, shift counts ≥ 64, and `F2I` of
//! NaN and of out-of-range floats.
//!
//! The second half checks the simulator's fault flip against the
//! value-level model it must reproduce, for burst widths 1/2/4, every
//! phase and all three register classes.

use casted_ir::func::GlobalClass;
use casted_ir::interp::{self, OutVal, StopReason};
use casted_ir::semantics::Val;
use casted_ir::verify::verify_module;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{
    CmpKind, FunctionBuilder, Insn, MachineConfig, Module, Opcode, Operand, Reg, RegClass,
};
use casted_sim::{simulate, Injection, SimOptions};

/// An operand value of one register class.
#[derive(Clone, Copy, Debug)]
enum V {
    I(i64),
    F(f64),
    P(bool),
}

const INTS: [i64; 14] = [
    0,
    1,
    -1,
    2,
    7,
    -8,
    63,
    64,
    65,
    127,
    1 << 40,
    i64::MIN,
    i64::MIN + 1,
    i64::MAX,
];

fn floats() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -2.5,
        3.9,
        -3.9,
        1e300,
        -1e300,
        9.3e18,
        -9.3e18,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_0000),
        f64::MIN_POSITIVE,
        f64::from_bits(1),
    ]
}

fn ints() -> Vec<V> {
    INTS.iter().map(|&x| V::I(x)).collect()
}

fn fps() -> Vec<V> {
    floats().into_iter().map(V::F).collect()
}

fn preds() -> Vec<V> {
    vec![V::P(false), V::P(true)]
}

const KINDS: [CmpKind; 6] = [
    CmpKind::Eq,
    CmpKind::Ne,
    CmpKind::Lt,
    CmpKind::Le,
    CmpKind::Gt,
    CmpKind::Ge,
];

/// Materialize `v` as an operand: an immediate when `as_imm` and the
/// class has one, otherwise a register set up in its own bundle.
fn operand(b: &mut FunctionBuilder, v: V, as_imm: bool) -> Operand {
    match (v, as_imm) {
        (V::I(x), true) => Operand::Imm(x),
        (V::F(x), true) => Operand::FImm(x),
        (V::I(x), false) => Operand::Reg(b.imm(x)),
        (V::F(x), false) => Operand::Reg(b.fimm(x)),
        (V::P(x), _) => Operand::Reg(b.cmp(CmpKind::Ne, Operand::Imm(x as i64), Operand::Imm(0))),
    }
}

/// Emit the value of `r` to the output stream.
fn observe(b: &mut FunctionBuilder, r: Reg) {
    match r.class {
        RegClass::Gp => {
            b.out(Operand::Reg(r));
        }
        RegClass::Fp => {
            b.fout(Operand::Reg(r));
        }
        RegClass::Pr => {
            let t = b.new_reg(RegClass::Gp);
            b.push(
                Opcode::Sel,
                vec![t],
                vec![Operand::Reg(r), Operand::Imm(1), Operand::Imm(0)],
            );
            b.out(Operand::Reg(t));
        }
    }
}

fn module_of(b: FunctionBuilder, m: Module) -> Module {
    let mut m = m;
    let id = m.add_function(b.finish());
    m.entry = Some(id);
    m
}

fn stream_eq(a: &[OutVal], b: &[OutVal]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
}

/// Run `m` through both executors and compare what they observe.
fn agree(m: &Module, what: &str) {
    verify_module(m).unwrap_or_else(|e| panic!("{what}: illegal test program: {e:?}"));
    let golden = interp::run(m, 1_000).unwrap();
    let sp = ScheduledProgram::sequential(m, MachineConfig::itanium2_like(1, 1));
    let r = simulate(&sp, &SimOptions::default());
    assert_eq!(r.stop, golden.stop, "{what}: stop reason");
    assert!(
        stream_eq(&r.stream, &golden.stream),
        "{what}: stream {:?} vs interpreter {:?}",
        r.stream,
        golden.stream
    );
    assert_eq!(r.stats.dyn_insns, golden.dyn_insns, "{what}: dynamic instructions");
}

/// One instruction `op` with `def` of class `def` (if any) over
/// `uses`, in register form and, when any operand has an immediate
/// form, in immediate form; then its def is emitted and the program
/// halts.
fn check(op: Opcode, def: Option<RegClass>, uses: &[V], imm: i64) {
    let forms: &[bool] = if uses.iter().any(|v| !matches!(v, V::P(_))) {
        &[false, true]
    } else {
        &[false]
    };
    for &as_imm in forms {
        let mut b = FunctionBuilder::new("main");
        let ops: Vec<Operand> = uses.iter().map(|&v| operand(&mut b, v, as_imm)).collect();
        let d = def.map(|c| b.new_reg(c));
        b.push_insn(Insn::new(op, d.into_iter().collect(), ops).with_imm(imm));
        if let Some(d) = d {
            observe(&mut b, d);
        }
        if !matches!(op, Opcode::Halt) {
            b.halt_imm(0);
        }
        let m = module_of(b, Module::new("w"));
        agree(&m, &format!("{op:?} {uses:?} imm={as_imm}"));
    }
}

fn pairs(vals: &[V]) -> Vec<[V; 2]> {
    vals.iter()
        .flat_map(|&a| vals.iter().map(move |&b| [a, b]))
        .collect()
}

fn triples(vals: &[V]) -> Vec<[V; 3]> {
    let mut out = Vec::new();
    for &a in vals {
        for &b in vals {
            for &c in vals {
                out.push([a, b, c]);
            }
        }
    }
    out
}

#[test]
fn integer_alu_agrees() {
    use Opcode::*;
    for op in [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Sra] {
        for [a, b] in pairs(&ints()) {
            check(op, Some(RegClass::Gp), &[a, b], 0);
        }
    }
    for a in ints() {
        check(MovI, Some(RegClass::Gp), &[a], 0);
        check(I2F, Some(RegClass::Fp), &[a], 0);
    }
    for p in preds() {
        for [a, b] in pairs(&ints()[..6]) {
            check(Sel, Some(RegClass::Gp), &[p, a, b], 0);
        }
    }
}

#[test]
fn float_alu_agrees() {
    use Opcode::*;
    for op in [FAdd, FSub, FMul, FDiv] {
        for [a, b] in pairs(&fps()) {
            check(op, Some(RegClass::Fp), &[a, b], 0);
        }
    }
    for a in fps() {
        check(FMovI, Some(RegClass::Fp), &[a], 0);
        check(F2I, Some(RegClass::Gp), &[a], 0);
    }
}

#[test]
fn compares_agree_over_every_class() {
    for k in KINDS {
        for vals in [ints(), fps(), preds()] {
            for [a, b] in pairs(&vals) {
                check(Opcode::Cmp(k), Some(RegClass::Pr), &[a, b], 0);
            }
        }
        for [a, b] in pairs(&fps()) {
            check(Opcode::FCmp(k), Some(RegClass::Pr), &[a, b], 0);
        }
    }
}

#[test]
fn vote_agrees_over_every_class() {
    let few_ints = [0, 1, -1, i64::MIN, 0x5a5a].map(V::I);
    let few_fps = [
        0.0,
        -0.0,
        1.5,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
    ]
    .map(V::F);
    for (vals, class) in [
        (few_ints.to_vec(), RegClass::Gp),
        (few_fps.to_vec(), RegClass::Fp),
        (preds(), RegClass::Pr),
    ] {
        for t in triples(&vals) {
            check(Opcode::Vote, Some(class), &t, 0);
        }
    }
}

#[test]
fn checks_outputs_and_halts_agree() {
    for a in ints() {
        check(Opcode::Out, None, &[a], 0);
        check(Opcode::Halt, None, &[a], 0);
    }
    for a in fps() {
        check(Opcode::FOut, None, &[a], 0);
    }
    for p in preds() {
        check(Opcode::DetectBr, None, &[p], 0);
    }
    for vals in [ints(), fps(), preds()] {
        for [a, b] in pairs(&vals) {
            check(Opcode::ChkNe, None, &[a, b], 0);
        }
    }
    check(Opcode::Nop, None, &[], 0);
}

#[test]
fn branches_agree() {
    for p in preds() {
        let mut b = FunctionBuilder::new("main");
        let taken = b.new_block("taken");
        let fall = b.new_block("fall");
        let Operand::Reg(pr) = operand(&mut b, p, false) else {
            unreachable!()
        };
        b.br_cond(pr, taken, fall);
        b.switch_to(taken);
        b.out(Operand::Imm(1));
        b.halt_imm(0);
        b.switch_to(fall);
        b.out(Operand::Imm(2));
        b.halt_imm(0);
        agree(&module_of(b, Module::new("w")), &format!("BrCond {p:?}"));
    }
    let mut b = FunctionBuilder::new("main");
    let next = b.new_block("next");
    b.br(next);
    b.switch_to(next);
    b.out(Operand::Imm(3));
    b.halt_imm(0);
    agree(&module_of(b, Module::new("w")), "Br");
}

/// Loads and stores of both classes, at aligned, misaligned and
/// out-of-range addresses; a store is observed by loading it back.
#[test]
fn memory_agrees() {
    let mut probe = Module::new("w");
    let nan_payload = 0x7ff0_0000_0000_0001u64 as i64;
    let (_, base) = probe.add_global("g", GlobalClass::Int, 4, vec![-5, nan_payload, 0, 9]);
    for off in [0, 8, 16, 24, 3, -base, -8 - base, 4096 * 1024] {
        for (op, class) in [(Opcode::Load, RegClass::Gp), (Opcode::FLoad, RegClass::Fp)] {
            let mut b = FunctionBuilder::new("main");
            let a = b.imm(base);
            let d = b.new_reg(class);
            b.push_insn(Insn::new(op, vec![d], vec![Operand::Reg(a)]).with_imm(off));
            observe(&mut b, d);
            b.halt_imm(0);
            agree(&module_of(b, probe.clone()), &format!("{op:?} +{off}"));
        }
        for (op, v) in [
            (Opcode::Store, V::I(i64::MIN)),
            (Opcode::FStore, V::F(f64::from_bits(0xfff8_0000_0000_0001))),
            (Opcode::FStore, V::F(-0.0)),
        ] {
            for as_imm in [false, true] {
                let mut b = FunctionBuilder::new("main");
                let a = b.imm(base);
                let val = operand(&mut b, v, as_imm);
                b.push_insn(Insn::new(op, vec![], vec![Operand::Reg(a), val]).with_imm(off));
                let back = b.load(a, 0);
                b.out(Operand::Reg(back));
                let fback = b.fload(a, 0);
                b.fout(Operand::Reg(fback));
                b.halt_imm(0);
                agree(&module_of(b, probe.clone()), &format!("{op:?} {v:?} +{off}"));
            }
        }
    }
}

/// The value-level fault model: `width == 1` flips `bit % class_bits`;
/// a burst flips `(bit - phase + k) mod 64` for `k < width`, each
/// masked by the class width, and degenerates to one flip on a
/// predicate.
fn model_flip(v: Val, class_bits: u32, inj: &Injection) -> Val {
    let w = (inj.width as u32).max(1);
    if w == 1 || class_bits <= 1 {
        return v.flip_bit(inj.bit % class_bits.max(1));
    }
    let mut out = v;
    for k in 0..w {
        let b = (inj.bit + 64 - inj.phase as u32 + k) % 64;
        out = out.flip_bit(b % class_bits);
    }
    out
}

fn out_of(v: Val) -> OutVal {
    match v {
        Val::I(x) => OutVal::Int(x),
        Val::F(x) => OutVal::Float(x),
        Val::B(x) => OutVal::Int(x as i64),
    }
}

#[test]
fn word_flip_matches_the_value_model() {
    let values = [
        V::I(0x0123_4567_89ab_cdef),
        V::I(-1),
        V::F(1.5),
        V::F(f64::NAN),
        V::F(-0.0),
        V::P(false),
        V::P(true),
    ];
    for v in values {
        let (val, class) = match v {
            V::I(x) => (Val::I(x), RegClass::Gp),
            V::F(x) => (Val::F(x), RegClass::Fp),
            V::P(x) => (Val::B(x), RegClass::Pr),
        };
        // Instruction 1 writes the victim, instruction 2 is a `nop`
        // (the register-file strike lands there), then the victim is
        // emitted.
        let mut b = FunctionBuilder::new("main");
        let Operand::Reg(r) = operand(&mut b, v, false) else {
            unreachable!()
        };
        b.push(Opcode::Nop, vec![], vec![]);
        observe(&mut b, r);
        b.halt_imm(0);
        let m = module_of(b, Module::new("w"));
        verify_module(&m).unwrap();
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(1, 1));
        for width in [1u8, 2, 4] {
            for phase in 0..width {
                for bit in [0u32, 1, 2, 31, 62, 63, 64, 100] {
                    for (at, target) in [(1, None), (2, Some(r))] {
                        let inj = Injection {
                            at_dyn_insn: at,
                            bit,
                            target,
                            width,
                            phase,
                        };
                        let r = simulate(
                            &sp,
                            &SimOptions {
                                injection: Some(inj),
                                ..SimOptions::default()
                            },
                        );
                        let what = format!("{v:?} {inj:?}");
                        assert!(r.injected, "{what}: strike did not land");
                        assert_eq!(r.stop, StopReason::Halt(0), "{what}");
                        let want = out_of(model_flip(val, class.bits(), &inj));
                        assert!(
                            stream_eq(&r.stream, &[want]),
                            "{what}: got {:?}, model {want:?}",
                            r.stream
                        );
                    }
                }
            }
        }
    }
}
