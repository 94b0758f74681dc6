//! # ipcp-ir — the FT language and IR substrate
//!
//! This crate provides everything "below" the interprocedural constant
//! propagation analysis of the companion `ipcp` crate:
//!
//! * **FT**, a small FORTRAN-77-flavoured imperative language (integer
//!   scalars, one-dimensional arrays, global `COMMON`-style variables,
//!   by-reference procedure parameters, `do`/`while`/`if` control flow) —
//!   see [`lang`] for the lexer, parser, AST and pretty-printer;
//! * a resolved, name-checked module representation ([`program`]);
//! * a per-procedure control-flow graph ([`mod@cfg`]) together with the
//!   AST-to-CFG lowering used by every analysis in the workspace;
//! * two reference interpreters ([`interp`]) — one over the resolved AST
//!   and one over the CFG — which serve as the dynamic-semantics ground
//!   truth for soundness testing of the static analyses.
//!
//! The original 1986/1993 studies ran on FORTRAN under the ParaScope
//! infrastructure; FT is the substitute substrate (see `DESIGN.md` at the
//! workspace root). The language was chosen so that exactly the features
//! the analysis cares about exist: integer constants that flow through
//! literal arguments, locally propagated values, pass-through parameters,
//! polynomial expressions over formals, by-reference side effects (MOD
//! sets) and constants returned through parameters and globals.
//!
//! ## Quick example
//!
//! ```
//! use ipcp_ir::parse_and_resolve;
//!
//! let src = r#"
//!     global n;
//!     proc main() {
//!         n = 100;
//!         call kernel(10, n);
//!     }
//!     proc kernel(steps, limit) {
//!         do i = 1, steps {
//!             print i * limit;
//!         }
//!     }
//! "#;
//! let module = parse_and_resolve(src)?;
//! assert_eq!(module.procs.len(), 2);
//! # Ok::<(), ipcp_ir::error::Diagnostics>(())
//! ```

pub mod cfg;
pub mod error;
pub mod hash;
pub mod interp;
pub mod lang;
pub mod names;
pub mod program;
pub mod span;
pub mod stream;
pub mod table;

pub use cfg::{lower_module, lower_module_owned, ModuleCfg};
pub use error::{Diagnostic, Diagnostics};
pub use lang::{parse_program, pretty};
pub use names::{NameId, Names};
pub use program::{GlobalId, Module, Proc, ProcId, VarId};
pub use span::Span;
pub use stream::{resolve_streaming, ProgramSource, StreamedModule};
pub use table::Table;

/// Parse FT source text and resolve it into a checked [`Module`].
///
/// This is the usual entry point, and the one-chunk case of
/// [`resolve_streaming`]: a signatures pass skims the globals and
/// procedure headers, then one parse writes every body straight into its
/// resolved [`Proc`] — no token vector and no syntax tree are built.
///
/// # Errors
///
/// Returns the accumulated [`Diagnostics`] if the source fails to lex,
/// parse, or resolve (unknown names, arity mismatches, scalar/array
/// confusion, missing `main`, …).
pub fn parse_and_resolve(src: &str) -> Result<Module, Diagnostics> {
    stream::resolve_chunks(&[src][..], |_| {})
}
