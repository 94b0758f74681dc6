//! Correctness checks that do not trust the binary under test.

use crate::e2e::run_process;
use crate::report::Report;
use crate::Ctx;
use ipcp::{Analysis, Config, Lattice};
use ipcp_ir::interp::{run_module, ExecLimits};
use ipcp_ir::program::SlotLayout;
use ipcp_ir::ModuleCfg;
use ipcp_suite::{generate_scale, ScaleSpec};
use std::process::Command;

/// Programs the interpreter oracle checks per run.
const ORACLE_PROGRAMS: usize = 4;
/// Candidates it may draw to find them (some do not terminate in budget).
const ORACLE_CANDIDATES: u64 = 32;
/// Procedures per oracle program.
const ORACLE_PROCS: usize = 60;

/// The sequential analysis configuration every reference run uses.
pub fn sequential() -> Config {
    Config::builder()
        .jobs(1)
        .build()
        .expect("the default configuration with one job is valid")
}

fn lower(text: &str) -> Result<ModuleCfg, String> {
    let module = ipcp_ir::parse_and_resolve(text)
        .map_err(|d| format!("generated program does not resolve: {d:?}"))?;
    Ok(ipcp_ir::lower_module(&module))
}

/// What `ipcc analyze --emit counts` prints, computed in this process
/// with one job.
pub fn counts_in_process(text: &str) -> Result<String, String> {
    let mcfg = lower(text)?;
    let analysis = Analysis::run(&mcfg, &sequential());
    let substituted = analysis.substitute(&mcfg);
    let mut out = String::new();
    for (pi, n) in substituted.counts.iter().enumerate() {
        out.push_str(&format!("{:<24} {n}\n", mcfg.module.procs[pi].name));
    }
    out.push_str(&format!("{:<24} {}\n", "total", substituted.total));
    Ok(out)
}

/// The reference interpreter oracle.
///
/// A 10k-procedure program of the workload tier does not terminate
/// under the interpreter (a recursion group's fuel is reset by literal
/// fuel on forward calls into later members, so execution exceeds any
/// call-depth bound), so the oracle runs on small programs of the same
/// generator, shape and recursion share, drawn from the workload seed.
/// For each one that terminates within the step budget, the binary's
/// `--emit constants` output (at the workload's job count) must equal
/// the in-process rendering, and every claimed `CONSTANTS(p)` entry
/// must hold at every dynamic entry of `p` — the check
/// `ipcp::soundness_violation` makes.
pub fn interpreter(ctx: &Ctx, jobs: usize, report: &mut Report) -> Result<(), String> {
    let limits = ExecLimits {
        max_steps: 2_000_000,
        lenient_reads: true,
        ..ExecLimits::default()
    };
    let mut checked = 0;
    for c in 0..ORACLE_CANDIDATES {
        if checked == ORACLE_PROGRAMS {
            break;
        }
        let spec = ScaleSpec::parse(&format!(
            "procs={ORACLE_PROCS},shape=mixed,recursion=8,seed={}",
            ctx.seed.wrapping_mul(1000).wrapping_add(c)
        ))?;
        let text = generate_scale(&spec);
        let mcfg = lower(&text)?;
        let Ok(exec) = run_module(&mcfg.module, &[], &limits) else {
            continue;
        };
        checked += 1;

        let analysis = Analysis::run(&mcfg, &sequential());
        let layout = SlotLayout::new(&mcfg.module);
        let expected = format!(
            "{}total constants substituted: {}\n",
            analysis.vals.display(&mcfg, &layout),
            analysis.substitute(&mcfg).total
        );
        let prog = ctx.work.join(format!("oracle-{}-{c}.ft", ctx.seed));
        std::fs::write(&prog, &text).map_err(|e| format!("{}: {e}", prog.display()))?;
        let run = run_process(Command::new(&ctx.ipcc).arg("analyze").arg(&prog).args([
            "--jobs",
            &jobs.to_string(),
            "--emit",
            "constants",
        ]))?;
        report.check(run.success && run.stdout == expected, || {
            format!(
                "{}: ipcc constants differ from the in-process analysis",
                prog.display()
            )
        });

        let mut violation = None;
        'entries: for (p, snapshot) in &exec.trace.entries {
            for (slot, lattice) in analysis.vals.of(*p).iter().enumerate() {
                if let Lattice::Const(c) = lattice {
                    let seen = snapshot.get(slot).copied().flatten();
                    if seen != Some(*c) {
                        violation = Some(format!(
                            "{}: CONSTANTS({}) claims {} = {c}, an execution entered with {seen:?}",
                            prog.display(),
                            mcfg.module.proc(*p).name,
                            layout.slot_name(&mcfg.module, *p, slot)
                        ));
                        break 'entries;
                    }
                }
            }
        }
        report.check(violation.is_none(), || violation.unwrap_or_default());
    }
    report.row("oracle_programs", checked as f64, "count", checked);
    report.check(checked > 0, || {
        "no oracle program terminated under the interpreter".to_owned()
    });
    Ok(())
}
