//! Computation of the study's result tables over the synthetic suite.

use ipcp::{complete_propagation, Analysis, Config, JumpFnKind};
use ipcp_suite::{paper_programs, program_stats, ProgramStats, SuiteProgram};

/// One row of Table 2: constants found through use of jump functions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table2Row {
    /// Program name.
    pub name: &'static str,
    /// Polynomial, with return jump functions.
    pub poly: usize,
    /// Pass-through, with return jump functions.
    pub pass: usize,
    /// Intraprocedural constant, with return jump functions.
    pub intra: usize,
    /// Literal, with return jump functions.
    pub literal: usize,
    /// Polynomial, without return jump functions.
    pub poly_noret: usize,
    /// Pass-through, without return jump functions.
    pub pass_noret: usize,
}

/// One row of Table 3: the most precise jump function vs other techniques.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table3Row {
    /// Program name.
    pub name: &'static str,
    /// Polynomial forward + return jump functions, **no** MOD information.
    pub poly_nomod: usize,
    /// Polynomial forward + return jump functions, with MOD information.
    pub poly_mod: usize,
    /// Complete propagation (iterated with dead-code elimination).
    pub complete: usize,
    /// Purely intraprocedural propagation (MOD information used).
    pub intra_only: usize,
}

/// Substituted-constants count for one program under one configuration.
pub fn count(p: &SuiteProgram, config: &Config) -> usize {
    let mcfg = p.module_cfg();
    Analysis::run(&mcfg, config)
        .substitution_counts(&mcfg)
        .total
}

/// Computes Table 1 for the paper's twelve programs.
pub fn table1_rows() -> Vec<ProgramStats> {
    paper_programs()
        .map(|p| program_stats(p.name, p.source))
        .collect()
}

/// Computes Table 2 for the paper's twelve programs.
pub fn table2_rows() -> Vec<Table2Row> {
    paper_programs()
        .map(|p| {
            let with = |k: JumpFnKind| count(p, &Config::default().with_jump_fn(k));
            let without =
                |k: JumpFnKind| count(p, &Config::default().with_jump_fn(k).with_return_jfs(false));
            Table2Row {
                name: p.name,
                poly: with(JumpFnKind::Polynomial),
                pass: with(JumpFnKind::PassThrough),
                intra: with(JumpFnKind::IntraproceduralConstant),
                literal: with(JumpFnKind::Literal),
                poly_noret: without(JumpFnKind::Polynomial),
                pass_noret: without(JumpFnKind::PassThrough),
            }
        })
        .collect()
}

/// Computes Table 3 for the paper's twelve programs.
pub fn table3_rows() -> Vec<Table3Row> {
    paper_programs()
        .map(|p| {
            let mcfg = p.module_cfg();
            let poly_mod_analysis = Analysis::run(&mcfg, &Config::polynomial());
            let poly_mod = poly_mod_analysis.substitution_counts(&mcfg).total;
            let intra_only = ipcp::count_intraprocedural(&mcfg, &poly_mod_analysis).total;
            Table3Row {
                name: p.name,
                poly_nomod: count(p, &Config::polynomial().with_mod(false)),
                poly_mod,
                complete: complete_propagation(&mcfg, &Config::polynomial())
                    .substitution
                    .total,
                intra_only,
            }
        })
        .collect()
}

/// Renders rows as an aligned text table.
pub fn render<R>(header: &[&str], rows: &[R], cells: impl Fn(&R) -> Vec<String>) -> String {
    let mut grid: Vec<Vec<String>> = vec![header.iter().map(|s| s.to_string()).collect()];
    grid.extend(rows.iter().map(&cells));
    let widths: Vec<usize> = (0..header.len())
        .map(|c| grid.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for (ri, row) in grid.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            if c == 0 {
                out.push_str(&format!("{cell:<width$}", width = widths[c]));
            } else {
                out.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
        }
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}
