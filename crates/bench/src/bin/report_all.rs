//! Prints the §3.1.5 cost census for every suite program under the
//! default configuration — the quantities behind the paper's cost
//! arguments (jump-function shapes, support sizes, solver work).

use ipcp::serve::store::{decode, encode};
use ipcp::serve::{ServeEngine, SummaryCache};
use ipcp::{Analysis, Config, CostReport, PhaseReport};
use ipcp_suite::PROGRAMS;

/// Cold misses, warm-rerun hits, hit/miss split after a one-procedure
/// edit, degraded request count — plus the persistence leg: records
/// recovered from a snapshot, a restarted daemon's persisted startup
/// hits, and the discard label a corrupted snapshot reports.
#[allow(clippy::type_complexity)]
fn serve_cache_row(src: &str) -> Result<(u64, u64, u64, u64, u64, u64, u64, &'static str), String> {
    let mut engine = ServeEngine::new(src, &Config::default()).map_err(|e| e.to_string())?;
    let cold = engine.last_outcome().misses;
    let warm = engine.analyze(None).map_err(|e| e.to_string())?.hits;
    let name = engine
        .proc_names()
        .last()
        .ok_or_else(|| "program has no procedures".to_string())?
        .to_string();
    let text = engine
        .proc_text(&name)
        .ok_or_else(|| format!("no text for `{name}`"))?;
    let brace = text
        .rfind('}')
        .ok_or_else(|| format!("`{name}` has no body"))?;
    let fragment = format!("{}    print 0;\n{}", &text[..brace], &text[brace..]);
    let edited = engine.update(&name, &fragment).map_err(|e| e.to_string())?;
    let (cfp, sfp) = engine.fingerprints();
    let bytes = encode(engine.cache(), cfp, sfp);
    let entries = decode(&bytes, cfp, sfp).map_err(|r| r.to_string())?;
    let recovered = entries.len() as u64;
    let cache = SummaryCache::restore(entries, SummaryCache::DEFAULT_CAPACITY);
    let restarted = ServeEngine::new_with_cache(&engine.source(), &Config::default(), cache)
        .map_err(|e| e.to_string())?;
    let persisted = restarted.last_outcome().persisted_hits;
    let mut bad = bytes;
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    let discarded = match decode(&bad, cfp, sfp) {
        Err(reason) => reason.label(),
        Ok(_) => "accepted?!",
    };
    Ok((
        cold,
        warm,
        edited.hits,
        edited.misses,
        engine.stats().degraded_requests,
        recovered,
        persisted,
        discarded,
    ))
}

fn main() {
    println!(
        "{:<10} {:>5} {:>6} {:>6} {:>6} {:>5} {:>8} {:>7} {:>6} {:>4} {:>4}",
        "program", "sites", "jf", "const", "pass", "⊥", "support", "meets", "ssa", "deg", "quar"
    );
    let mut totals = CostReport::default();
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        let analysis = Analysis::run(&mcfg, &Config::default());
        let r = CostReport::collect(&mcfg, &analysis);
        println!(
            "{:<10} {:>5} {:>6} {:>6} {:>6} {:>5} {:>8.2} {:>7} {:>6} {:>4} {:>4}",
            p.name,
            r.call_sites,
            r.jf_total(),
            r.jf_const,
            r.jf_pass_through,
            r.jf_bottom,
            r.mean_support(),
            r.solver_meets,
            r.ssa_values,
            r.degradations,
            r.quarantined,
        );
        totals.call_sites += r.call_sites;
        totals.jf_const += r.jf_const;
        totals.jf_pass_through += r.jf_pass_through;
        totals.jf_polynomial += r.jf_polynomial;
        totals.jf_bottom += r.jf_bottom;
        totals.total_support += r.total_support;
        totals.solver_meets += r.solver_meets;
        totals.ssa_values += r.ssa_values;
        totals.degradations += r.degradations;
        totals.quarantined += r.quarantined;
    }
    println!(
        "{:<10} {:>5} {:>6} {:>6} {:>6} {:>5} {:>8.2} {:>7} {:>6} {:>4} {:>4}",
        "TOTAL",
        totals.call_sites,
        totals.jf_total(),
        totals.jf_const,
        totals.jf_pass_through,
        totals.jf_bottom,
        totals.mean_support(),
        totals.solver_meets,
        totals.ssa_values,
        totals.degradations,
        totals.quarantined,
    );
    println!();
    println!("§3.1.5's observation holds: mean support ≤ 1 — lowering one value");
    println!("re-evaluates at most one jump function per use, so propagation cost");
    println!("is dominated by the intraprocedural (SSA/symbolic) work.");

    println!();
    println!("Serve cache: summary reuse across a warm daemon (ipcc serve)");
    println!(
        "{:<10} {:>9} {:>8} {:>8} {:>9} {:>7} {:>7} {:>5} {:>8} {:>12}",
        "program",
        "cold_miss",
        "warm_hit",
        "edit_hit",
        "edit_miss",
        "reuse%",
        "deg_req",
        "recov",
        "pers_hit",
        "discard"
    );
    for p in PROGRAMS {
        match serve_cache_row(p.source) {
            Ok((cold, warm, ehit, emiss, deg, recov, pers, discard)) => {
                let reuse = if ehit + emiss > 0 {
                    100.0 * ehit as f64 / (ehit + emiss) as f64
                } else {
                    0.0
                };
                println!(
                    "{:<10} {:>9} {:>8} {:>8} {:>9} {:>6.0}% {:>7} {:>5} {:>8} {:>12}",
                    p.name, cold, warm, ehit, emiss, reuse, deg, recov, pers, discard
                );
            }
            Err(e) => println!("{:<10} serve row unavailable: {e}", p.name),
        }
    }

    let auto_jobs = Config::default().effective_jobs();
    println!();
    println!("Per-stage wall time, sequential vs --jobs {auto_jobs} (machine-dependent)");
    println!("{}", PhaseReport::header());
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        for jobs in [1, auto_jobs] {
            let t = Analysis::run(&mcfg, &Config::default().with_jobs(jobs)).timings;
            println!("{}", PhaseReport::collect(&t).render_row(p.name));
            if auto_jobs == 1 {
                break;
            }
        }
    }
}
