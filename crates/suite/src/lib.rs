//! # ipcp-suite — the synthetic FT benchmark suite
//!
//! The 1993 study measured twelve SPEC and PERFECT FORTRAN programs. Those
//! sources are not redistributable, so this crate substitutes twelve
//! hand-written FT programs — one per paper row, each engineered to
//! exhibit the propagation phenomena the paper reports for its namesake
//! (see the header comment of each program and `DESIGN.md` §3):
//!
//! * literal vs computed-constant call sites,
//! * pass-through parameter chains,
//! * constants returned through reference parameters and globals
//!   (`ocean`'s init routine),
//! * MOD-sensitive uses behind helper calls, and
//! * constant-guarded dead call sites for complete propagation.
//!
//! A thirteenth program, `poly_demo`, demonstrates the polynomial >
//! pass-through gap the paper's suite never exercised. [`generate`]
//! produces random valid FT programs for property tests and scaling
//! benchmarks.

pub mod gen;
pub mod mutate;
pub mod prop;
pub mod rng;
pub mod scale;
pub mod stats;

pub use gen::{generate, GenConfig};
pub use prop::{Checker, Counterexample, PropContext, Property, Report};
pub use rng::Rng;
pub use scale::{generate_scale, scale_stats, ScaleShape, ScaleSource, ScaleSpec, ScaleStats};
pub use stats::{program_stats, ProgramStats};

use ipcp_ir::{lower_module, parse_and_resolve, Module, ModuleCfg};

/// One benchmark program.
#[derive(Clone, Copy, Debug)]
pub struct SuiteProgram {
    /// Row name (matches the paper's Table 1).
    pub name: &'static str,
    /// FT source text.
    pub source: &'static str,
    /// A canonical input stream for executing the program in tests.
    pub inputs: &'static [i64],
    /// Whether the program belongs to the paper's measured set (false for
    /// the `poly_demo` extension).
    pub in_paper: bool,
}

impl SuiteProgram {
    /// Parses and resolves the program.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source is invalid — a bug in this crate,
    /// caught by its tests.
    pub fn module(&self) -> Module {
        parse_and_resolve(self.source)
            .unwrap_or_else(|e| panic!("suite program {} is invalid: {e}", self.name))
    }

    /// Parses, resolves and lowers the program.
    pub fn module_cfg(&self) -> ModuleCfg {
        lower_module(&self.module())
    }
}

macro_rules! suite {
    ($($name:ident: $inputs:expr, $in_paper:expr;)*) => {
        &[$(
            SuiteProgram {
                name: stringify!($name),
                source: include_str!(concat!("../programs/", stringify!($name), ".ft")),
                inputs: &$inputs,
                in_paper: $in_paper,
            },
        )*]
    };
}

/// The full program set, in the paper's row order (plus `poly_demo`).
pub const PROGRAMS: &[SuiteProgram] = suite! {
    adm: [3], true;
    doduc: [4], true;
    fpppp: [2], true;
    linpackd: [3], true;
    matrix300: [1], true;
    mdg: [3], true;
    ocean: [2], true;
    qcd: [3], true;
    simple: [2], true;
    snasa7: [5], true;
    spec77: [2], true;
    trfd: [2], true;
    poly_demo: [0], false;
};

/// The paper's twelve rows, excluding extensions.
pub fn paper_programs() -> impl Iterator<Item = &'static SuiteProgram> {
    PROGRAMS.iter().filter(|p| p.in_paper)
}

/// Looks a program up by name.
pub fn program(name: &str) -> Option<&'static SuiteProgram> {
    PROGRAMS.iter().find(|p| p.name == name)
}

/// Splits FT source text into per-procedure chunks for
/// [`ipcp_ir::resolve_streaming`]: a new chunk starts at every line that
/// begins with `proc`, and whatever precedes the first such line
/// (globals, comments) is chunk 0. The split is purely textual, so a
/// body line that happens to start with `proc` splits too; the chunks
/// always concatenate back to `src`.
pub fn proc_chunks(src: &str) -> Vec<&str> {
    let mut chunks = Vec::new();
    let mut start = 0;
    let mut line = 0;
    while line < src.len() {
        if line > start && src[line..].starts_with("proc") {
            chunks.push(&src[start..line]);
            start = line;
        }
        line = src[line..].find('\n').map_or(src.len(), |i| line + i + 1);
    }
    chunks.push(&src[start..]);
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_chunks_split_before_each_proc_line_and_concatenate_back() {
        let src = "global g;\nproc main() {\n}\n# c\nproc f(a) {\nprocx = 1;\n}\n";
        let chunks = proc_chunks(src);
        assert_eq!(
            chunks,
            [
                "global g;\n",
                "proc main() {\n}\n# c\n",
                "proc f(a) {\n",
                "procx = 1;\n}\n"
            ]
        );
        assert_eq!(chunks.concat(), src);
        assert_eq!(proc_chunks("proc main() { }"), ["proc main() { }"]);
        assert_eq!(proc_chunks(""), [""]);
    }
    use ipcp_ir::interp::{run_module, ExecLimits};

    #[test]
    fn all_programs_parse_resolve_and_lower() {
        for p in PROGRAMS {
            let m = p.module();
            assert!(!m.procs.is_empty(), "{}", p.name);
            let mcfg = p.module_cfg();
            assert_eq!(mcfg.cfgs.len(), m.procs.len());
        }
    }

    #[test]
    fn all_programs_execute_cleanly_on_canonical_inputs() {
        for p in PROGRAMS {
            let m = p.module();
            let out = run_module(&m, p.inputs, &ExecLimits::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", p.name));
            assert!(!out.output.is_empty(), "{} printed nothing", p.name);
        }
    }

    #[test]
    fn ast_and_cfg_interpreters_agree_on_the_suite() {
        use ipcp_ir::interp::exec_cfg;
        for p in PROGRAMS {
            let m = p.module();
            let a = run_module(&m, p.inputs, &ExecLimits::default()).unwrap();
            let b = exec_cfg(&p.module_cfg(), p.inputs, &ExecLimits::default()).unwrap();
            assert_eq!(a.output, b.output, "{}", p.name);
            assert_eq!(a.trace, b.trace, "{}", p.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(program("ocean").is_some());
        assert!(program("nonesuch").is_none());
        assert_eq!(paper_programs().count(), 12);
    }

    #[test]
    fn every_program_has_a_main_and_unique_name() {
        let mut names = std::collections::HashSet::new();
        for p in PROGRAMS {
            assert!(names.insert(p.name), "duplicate {}", p.name);
            assert!(p.module().proc_named("main").is_some(), "{}", p.name);
        }
    }
}
