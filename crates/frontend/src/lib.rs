//! # casted-frontend — the MiniC language
//!
//! The paper compiles MediaBench II and SPEC CINT2000 C programs with
//! GCC. This crate plays GCC's front-end role for the reproduction: it
//! compiles **MiniC**, a small C-like language, down to the
//! `casted-ir` virtual-register IR that the CASTED passes transform.
//!
//! MiniC is deliberately small but expressive enough to write the seven
//! benchmark kernels of `casted-workloads`:
//!
//! ```text
//! const N: int = 4;
//! global acc: int;
//! global table: [int; 16];
//!
//! lib fn clip(x: int, lo: int, hi: int) -> int {
//!     if x < lo { return lo; }
//!     if x > hi { return hi; }
//!     return x;
//! }
//!
//! fn main() -> int {
//!     var s: int = 0;
//!     for i in 0..N {
//!         table[i] = clip(i * 100, 0, 255);
//!         s = s + table[i];
//!     }
//!     acc = s;
//!     out(s);
//!     return 0;
//! }
//! ```
//!
//! * Types: `int` (i64), `float` (f64), `bool` (conditions only),
//!   global/local fixed-size arrays.
//! * All user and `lib` functions are **fully inlined** at their call
//!   sites (recursion is rejected), so the compiled artifact is a
//!   single entry function — calls never cross the error-detection
//!   sphere of replication.
//! * Functions declared `lib fn` model *binary system libraries*: their
//!   inlined instructions carry [`casted_ir::Provenance::LibraryCode`]
//!   and are skipped by the error-detection pass, exactly as the paper
//!   leaves linked library binaries unprotected.
//!
//! The main entry point is [`compile`].

pub mod ast;
pub mod codegen;
pub mod lexer;
pub mod parser;
pub mod sema;

pub use ast::Program;
pub use codegen::{compile_program, MAX_INLINED_INSNS};
pub use lexer::{lex, Token, TokenKind};
pub use parser::{parse, MAX_NESTING};

use casted_ir::Module;

/// A front-end diagnostic with a 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// 1-based line number the diagnostic points at.
    pub line: u32,
    /// Message text.
    pub msg: String,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl Diag {
    /// Build a diagnostic.
    pub fn new(line: u32, msg: impl Into<String>) -> Self {
        Diag {
            line,
            msg: msg.into(),
        }
    }
}

/// Compile MiniC source text into a verified IR module named `name`.
///
/// Runs the full pipeline: lex → parse → semantic analysis → inlining
/// code generation → IR verification. Each stage is span-timed into
/// the `frontend.*_ns` histograms when metrics are enabled (see
/// `docs/OBSERVABILITY.md`).
pub fn compile(name: &str, source: &str) -> Result<Module, Vec<Diag>> {
    let _total = casted_obs::span("frontend.compile_ns");
    let tokens = {
        let _s = casted_obs::span("frontend.lex_ns");
        lex(source)?
    };
    casted_obs::add("frontend.tokens", tokens.len() as u64);
    let program = {
        let _s = casted_obs::span("frontend.parse_ns");
        parse(&tokens)?
    };
    {
        let _s = casted_obs::span("frontend.sema_ns");
        sema::check(&program)?;
    }
    let module = {
        let _s = casted_obs::span("frontend.codegen_ns");
        compile_program(name, &program)?
    };
    let _v = casted_obs::span("frontend.verify_ns");
    if let Err(errs) = casted_ir::verify::verify_module(&module) {
        // A verifier failure after successful sema is a front-end bug;
        // surface it loudly with context.
        return Err(errs
            .into_iter()
            .map(|e| Diag::new(0, format!("internal: generated invalid IR: {e}")))
            .collect());
    }
    casted_obs::inc("frontend.modules_compiled");
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_ir::interp::{self, OutVal};

    fn run_src(src: &str) -> Vec<OutVal> {
        let m = compile("t", src).unwrap_or_else(|e| {
            panic!("compile failed: {:?}", e);
        });
        let r = interp::run(&m, 10_000_000).unwrap();
        assert!(r.exit_code().is_some(), "program did not halt: {:?}", r.stop);
        r.stream
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let src = r#"
const N: int = 4;
global acc: int;
global table: [int; 16];

lib fn clip(x: int, lo: int, hi: int) -> int {
    if x < lo { return lo; }
    if x > hi { return hi; }
    return x;
}

fn main() -> int {
    var s: int = 0;
    for i in 0..N {
        table[i] = clip(i * 100, 0, 255);
        s = s + table[i];
    }
    acc = s;
    out(s);
    return 0;
}
"#;
        // clip(0)=0, clip(100)=100, clip(200)=200, clip(300)=255 -> 555
        assert_eq!(run_src(src), vec![OutVal::Int(555)]);
    }
}
