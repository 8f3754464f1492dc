//! Functional semantics of the opcode set over typed values.
//!
//! The reference interpreter ([`crate::interp`]) evaluates instructions
//! through this module. The cycle-accurate simulator (`casted-sim`)
//! computes the same functions on raw register words, resolved once at
//! decode; this module is the independent oracle it is checked against
//! (`crates/sim/tests/word_semantics.rs`, and every interpreter
//! cross-check in the integration tests).

use crate::op::{CmpKind, Opcode};

/// A dynamically typed register value. The class system guarantees each
/// register only ever holds one variant; the enum exists so fault
/// injection can flip bits in any register class uniformly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Val {
    /// General-purpose 64-bit integer.
    I(i64),
    /// 64-bit float.
    F(f64),
    /// Predicate bit.
    B(bool),
}

impl Val {
    /// Integer view (panics on wrong class — an IR type error, caught by
    /// the verifier before execution).
    #[inline]
    pub fn as_i(self) -> i64 {
        match self {
            Val::I(v) => v,
            other => panic!("expected integer value, got {other:?}"),
        }
    }

    /// Float view.
    #[inline]
    pub fn as_f(self) -> f64 {
        match self {
            Val::F(v) => v,
            other => panic!("expected float value, got {other:?}"),
        }
    }

    /// Predicate view.
    #[inline]
    pub fn as_b(self) -> bool {
        match self {
            Val::B(v) => v,
            other => panic!("expected predicate value, got {other:?}"),
        }
    }

    /// Flip bit `bit` of the value — the paper's fault model (§IV-C):
    /// "a random bit of the register output is flipped". For predicate
    /// registers the single bit is inverted; for floats the flip is
    /// applied to the IEEE-754 bit pattern.
    #[inline]
    pub fn flip_bit(self, bit: u32) -> Val {
        match self {
            Val::I(v) => Val::I(v ^ (1i64 << (bit & 63))),
            Val::F(v) => Val::F(f64::from_bits(v.to_bits() ^ (1u64 << (bit & 63)))),
            Val::B(v) => Val::B(!v),
        }
    }
}

/// Errors raised by instruction evaluation — these become the
/// `Exceptions` fault-outcome class of the paper when they occur during
/// a fault-injection run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Memory access outside the valid address range (includes the trap
    /// page below `DATA_BASE`).
    MemOutOfBounds(i64),
    /// Memory access not aligned to 8 bytes.
    Misaligned(i64),
}

/// Evaluate a *pure* (non-memory, non-control) opcode over its operand
/// values. Returns the defined value. Integer arithmetic wraps (a bit
/// flip must corrupt data, not abort the evaluator).
///
/// Memory and control-flow opcodes are the caller's responsibility and
/// panic here.
pub fn eval_pure(op: Opcode, uses: &[Val]) -> Result<Val, ExecError> {
    let i = |k: usize| uses[k].as_i();
    let f = |k: usize| uses[k].as_f();
    Ok(match op {
        Opcode::Add => Val::I(i(0).wrapping_add(i(1))),
        Opcode::Sub => Val::I(i(0).wrapping_sub(i(1))),
        Opcode::Mul => Val::I(i(0).wrapping_mul(i(1))),
        Opcode::Div => {
            let d = i(1);
            if d == 0 {
                return Err(ExecError::DivByZero);
            }
            Val::I(i(0).wrapping_div(d))
        }
        Opcode::Rem => {
            let d = i(1);
            if d == 0 {
                return Err(ExecError::DivByZero);
            }
            Val::I(i(0).wrapping_rem(d))
        }
        Opcode::And => Val::I(i(0) & i(1)),
        Opcode::Or => Val::I(i(0) | i(1)),
        Opcode::Xor => Val::I(i(0) ^ i(1)),
        Opcode::Shl => Val::I(i(0).wrapping_shl((i(1) & 63) as u32)),
        Opcode::Shr => Val::I(((i(0) as u64).wrapping_shr((i(1) & 63) as u32)) as i64),
        Opcode::Sra => Val::I(i(0).wrapping_shr((i(1) & 63) as u32)),
        Opcode::MovI => uses[0],
        Opcode::Sel => {
            if uses[0].as_b() {
                uses[1]
            } else {
                uses[2]
            }
        }
        // `Cmp` is polymorphic over GP and PR operands: the check
        // instructions emitted by the error-detection pass compare a
        // register of *any* class against its renamed copy.
        Opcode::Cmp(k) => Val::B(eval_cmp_vals(k, uses[0], uses[1])),
        Opcode::FCmp(k) => Val::B(k.eval_float(f(0), f(1))),
        Opcode::FAdd => Val::F(f(0) + f(1)),
        Opcode::FSub => Val::F(f(0) - f(1)),
        Opcode::FMul => Val::F(f(0) * f(1)),
        Opcode::FDiv => Val::F(f(0) / f(1)),
        Opcode::FMovI => uses[0],
        // Bitwise majority over three same-class copies (TMRED): any
        // single corrupted copy is out-voted. Polymorphic like `Cmp`.
        Opcode::Vote => match (uses[0], uses[1], uses[2]) {
            (Val::I(a), Val::I(b), Val::I(c)) => Val::I((a & b) | (a & c) | (b & c)),
            (Val::F(a), Val::F(b), Val::F(c)) => {
                let (a, b, c) = (a.to_bits(), b.to_bits(), c.to_bits());
                Val::F(f64::from_bits((a & b) | (a & c) | (b & c)))
            }
            (Val::B(a), Val::B(b), Val::B(c)) => Val::B((a & b) | (a & c) | (b & c)),
            (a, b, c) => panic!("vote over mismatched value classes: {a:?}/{b:?}/{c:?}"),
        },
        Opcode::I2F => Val::F(i(0) as f64),
        Opcode::F2I => {
            let v = f(0);
            Val::I(if v.is_nan() { 0 } else { v as i64 })
        }
        other => panic!("eval_pure called on non-pure opcode {other}"),
    })
}

/// Validate and translate a byte address for an 8-byte memory access.
/// `words` is the size of memory in 8-byte words. Returns the word
/// index.
#[inline]
pub fn check_addr(addr: i64, words: usize) -> Result<usize, ExecError> {
    if addr % 8 != 0 {
        return Err(ExecError::Misaligned(addr));
    }
    if addr < crate::func::DATA_BASE || (addr as u64 / 8) >= words as u64 {
        return Err(ExecError::MemOutOfBounds(addr));
    }
    Ok((addr / 8) as usize)
}

/// Comparison used by [`CmpKind::eval_int`] re-exported for check code.
pub use crate::op::CmpKind as Cmp;

/// Evaluate a `CmpKind` over two `Val`s of the same class (used by the
/// check instructions, which compare original vs renamed registers of
/// any class).
#[inline]
pub fn eval_cmp_vals(kind: CmpKind, a: Val, b: Val) -> bool {
    match (a, b) {
        (Val::I(x), Val::I(y)) => kind.eval_int(x, y),
        (Val::F(x), Val::F(y)) => match kind {
            // Bitwise comparison for checks: a flipped NaN bit must
            // still be detected, so equality is on the bit pattern.
            CmpKind::Eq => x.to_bits() == y.to_bits(),
            CmpKind::Ne => x.to_bits() != y.to_bits(),
            _ => kind.eval_float(x, y),
        },
        (Val::B(x), Val::B(y)) => kind.eval_int(x as i64, y as i64),
        _ => panic!("cmp over mismatched value classes: {a:?} vs {b:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_arithmetic() {
        assert_eq!(
            eval_pure(Opcode::Add, &[Val::I(i64::MAX), Val::I(1)]).unwrap(),
            Val::I(i64::MIN)
        );
        assert_eq!(
            eval_pure(Opcode::Mul, &[Val::I(i64::MAX), Val::I(2)]).unwrap(),
            Val::I(-2)
        );
    }

    #[test]
    fn div_by_zero_is_exception() {
        assert_eq!(
            eval_pure(Opcode::Div, &[Val::I(1), Val::I(0)]),
            Err(ExecError::DivByZero)
        );
        assert_eq!(
            eval_pure(Opcode::Rem, &[Val::I(1), Val::I(0)]),
            Err(ExecError::DivByZero)
        );
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(
            eval_pure(Opcode::Shl, &[Val::I(1), Val::I(65)]).unwrap(),
            Val::I(2)
        );
        assert_eq!(
            eval_pure(Opcode::Shr, &[Val::I(-1), Val::I(63)]).unwrap(),
            Val::I(1)
        );
        assert_eq!(
            eval_pure(Opcode::Sra, &[Val::I(-8), Val::I(1)]).unwrap(),
            Val::I(-4)
        );
    }

    #[test]
    fn select() {
        assert_eq!(
            eval_pure(Opcode::Sel, &[Val::B(true), Val::I(1), Val::I(2)]).unwrap(),
            Val::I(1)
        );
        assert_eq!(
            eval_pure(Opcode::Sel, &[Val::B(false), Val::I(1), Val::I(2)]).unwrap(),
            Val::I(2)
        );
    }

    #[test]
    fn f2i_saturates_nan_to_zero() {
        assert_eq!(eval_pure(Opcode::F2I, &[Val::F(f64::NAN)]).unwrap(), Val::I(0));
        assert_eq!(eval_pure(Opcode::F2I, &[Val::F(3.9)]).unwrap(), Val::I(3));
    }

    #[test]
    fn bit_flip_model() {
        assert_eq!(Val::I(0).flip_bit(3), Val::I(8));
        assert_eq!(Val::I(8).flip_bit(3), Val::I(0));
        assert_eq!(Val::B(true).flip_bit(0), Val::B(false));
        let f = Val::F(1.0).flip_bit(63); // sign bit
        assert_eq!(f, Val::F(-1.0));
    }

    #[test]
    fn addr_checks() {
        // 4096/8 = 512 words of trap page; give 600 words total.
        assert!(check_addr(4096, 600).is_ok());
        assert_eq!(check_addr(4097, 600), Err(ExecError::Misaligned(4097)));
        assert_eq!(check_addr(0, 600), Err(ExecError::MemOutOfBounds(0)));
        assert_eq!(check_addr(-8, 600), Err(ExecError::MemOutOfBounds(-8)));
        assert_eq!(check_addr(600 * 8, 600), Err(ExecError::MemOutOfBounds(4800)));
    }

    #[test]
    fn vote_out_votes_a_single_corrupted_copy() {
        // A strike in any one copy is corrected in all three classes.
        let good = Val::I(0x5a5a_5a5a);
        for lane in 0..3usize {
            let mut v = [good; 3];
            v[lane] = good.flip_bit(17);
            assert_eq!(eval_pure(Opcode::Vote, &v).unwrap(), good);
        }
        let f = Val::F(2.75);
        for lane in 0..3usize {
            let mut v = [f; 3];
            v[lane] = f.flip_bit(63);
            assert_eq!(eval_pure(Opcode::Vote, &v).unwrap(), f);
        }
        let p = Val::B(true);
        for lane in 0..3usize {
            let mut v = [p; 3];
            v[lane] = p.flip_bit(0);
            assert_eq!(eval_pure(Opcode::Vote, &v).unwrap(), p);
        }
        // NaN payload bits survive the vote bit-exactly.
        let nan = Val::F(f64::NAN);
        let voted = eval_pure(Opcode::Vote, &[nan, nan.flip_bit(3), nan]).unwrap();
        assert!(!eval_cmp_vals(CmpKind::Ne, voted, nan));
        // Two corrupted copies win the vote — TMR only covers single
        // strikes (documented in docs/SCHEMES.md).
        let bad = good.flip_bit(2);
        assert_eq!(eval_pure(Opcode::Vote, &[good, bad, bad]).unwrap(), bad);
    }

    #[test]
    fn check_cmp_detects_flipped_nan_bits() {
        let a = Val::F(f64::NAN);
        let b = a.flip_bit(0);
        // IEEE equality would call NaN != NaN regardless; bitwise Ne
        // must be true only because the bit differs.
        assert!(eval_cmp_vals(CmpKind::Ne, a, b));
        assert!(!eval_cmp_vals(CmpKind::Ne, a, a));
    }
}
