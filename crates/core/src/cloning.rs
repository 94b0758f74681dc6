//! Procedure cloning driven by interprocedural constants — the
//! application the paper's §5 highlights (Metzger–Stroud used constants to
//! *guide* cloning in the CONVEX Application Compiler; Cooper, Hall and
//! Kennedy formalized the transformation).
//!
//! When different call sites reach a procedure with **different** constant
//! vectors, the meet destroys them all. Cloning gives each distinct vector
//! its own copy of the procedure, so each copy's `CONSTANTS` set keeps its
//! callers' values. [`clone_by_constants`] performs one such round under a
//! growth budget and reports the improvement.

use crate::config::{Config, Stage};
use crate::health::{AnalysisHealth, Governor};
use crate::jump::JumpFn;
use crate::par::Pool;
use crate::pipeline::Analysis;
use ipcp_ir::cfg::{CStmt, CallSiteId, ModuleCfg};
use ipcp_ir::program::ProcId;
use ipcp_ssa::Lattice;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Outcome of a cloning round.
#[derive(Debug)]
pub struct CloneResult {
    /// The transformed module (clones appended after the original
    /// procedures).
    pub module: ModuleCfg,
    /// How many clones were created of each original procedure.
    pub clones_of: Vec<usize>,
    /// Total clones created.
    pub n_clones: usize,
    /// Telemetry: the inner analysis's degradations plus any cloning
    /// budget exhaustion.
    pub health: AnalysisHealth,
}

impl CloneResult {
    /// Whether anything was cloned.
    pub fn changed(&self) -> bool {
        self.n_clones > 0
    }
}

/// The constant vector a call edge transmits: the jump-function values
/// under the caller's fixpoint `VAL`, with ⊥/⊤ normalized to `None`.
fn edge_vector(analysis: &Analysis, caller: ProcId, site: CallSiteId) -> Option<Vec<Option<i64>>> {
    let fns = analysis.jump_fns.at(caller, site);
    if fns.is_empty() {
        return None; // unreachable site
    }
    let caller_vals = analysis.vals.of(caller);
    Some(
        fns.iter()
            .map(|jf: &JumpFn| {
                jf.eval(|v| {
                    caller_vals
                        .get(v as usize)
                        .copied()
                        .unwrap_or(Lattice::Bottom)
                })
                .as_const()
            })
            .collect(),
    )
}

/// Call-site groups, keyed by the constant vector their edges transmit.
type ConstGroups = Vec<(Vec<Option<i64>>, Vec<(ProcId, CallSiteId)>)>;

/// Clones procedures whose call sites disagree on incoming constants.
///
/// For each non-entry, non-recursive procedure, call edges are grouped by
/// their constant vector; when at least two groups exist and at least one
/// of them carries a constant the merged analysis lost, each additional
/// group gets a clone (bounded by `max_clones_total`) and its call sites
/// are retargeted. One round specializes one level; iterate with
/// re-analysis for nested specialization.
pub fn clone_by_constants(
    mcfg: &ModuleCfg,
    config: &Config,
    max_clones_total: usize,
) -> CloneResult {
    let analysis = Analysis::run(mcfg, config);
    let mut gov = Governor::new(config);
    let mut module = mcfg.clone();
    let n_orig = mcfg.module.procs.len();
    let mut clones_of = vec![0usize; n_orig];
    let mut n_clones = 0usize;
    let mut budget_recorded = false;
    let mut retarget: HashMap<(ProcId, CallSiteId), ProcId> = HashMap::new();

    // Planning — grouping each callee's call edges by the constant vector
    // they transmit and judging whether a split is worthwhile — is pure
    // given the fixpoint analysis, so it runs on the worker pool. Clone
    // *creation* stays sequential in callee order below: it charges the
    // cloning budget and grows the module, and the budget's trip point
    // must not depend on the schedule.
    let (plans, _pt) = Pool::new(config.effective_jobs()).run(n_orig, |callee_idx| {
        let callee = ProcId::from(callee_idx);
        if callee == mcfg.module.entry
            || !analysis.cg.reachable[callee_idx]
            || analysis.cg.is_recursive(callee)
        {
            return None;
        }
        let mut groups: ConstGroups = Vec::new();
        for edge in analysis.cg.calls_to(callee) {
            let Some(vec) = edge_vector(&analysis, edge.caller, edge.site) else {
                continue;
            };
            match groups.iter_mut().find(|(v, _)| *v == vec) {
                Some((_, sites)) => sites.push((edge.caller, edge.site)),
                None => groups.push((vec, vec![(edge.caller, edge.site)])),
            }
        }
        if groups.len() < 2 {
            return None;
        }
        // Only worth splitting when some group carries a constant the
        // merged VAL set lost.
        let merged = analysis.vals.of(callee);
        let worthwhile = groups.iter().any(|(v, _)| {
            v.iter()
                .enumerate()
                .any(|(slot, c)| c.is_some() && merged.get(slot).is_some_and(|l| !l.is_const()))
        });
        if !worthwhile {
            return None;
        }
        Some(groups)
    });

    for (callee_idx, plan) in plans.into_iter().enumerate() {
        let Some(groups) = plan else { continue };
        let clone_count = &mut clones_of[callee_idx];
        // Group 0 keeps the original procedure; later groups get clones.
        // Each clone charges the cloning budget: the explicit request cap
        // and the configured growth limit both stop the round.
        for (_, sites) in groups.iter().skip(1) {
            if gov.deadline_expired() {
                if !budget_recorded {
                    gov.record_deadline(
                        Stage::Cloning,
                        format!("deadline expired after {n_clones} clone(s)"),
                    );
                    budget_recorded = true;
                }
                break;
            }
            if n_clones >= max_clones_total || !gov.charge(Stage::Cloning) {
                if n_clones < max_clones_total && !budget_recorded {
                    gov.record(
                        Stage::Cloning,
                        format!("growth budget exhausted after {n_clones} clone(s)"),
                    );
                    budget_recorded = true;
                }
                break;
            }
            let clone_id = ProcId::from(module.module.procs.len());
            let mut proc = (*module.module.procs[callee_idx]).clone();
            proc.id = clone_id;
            proc.name = format!("{}${}", proc.name, *clone_count + 1);
            module.module.procs.push(Arc::new(proc));
            module.cfgs.push(module.cfgs[callee_idx].clone());
            *clone_count += 1;
            n_clones += 1;
            for &key in sites {
                retarget.insert(key, clone_id);
            }
        }
    }

    // Retarget the planned call statements (clone bodies keep their
    // original targets — they are copies of procedures whose own call
    // sites were not part of any group plan).
    let callers: BTreeSet<ProcId> = retarget
        .keys()
        .map(|&(caller, _)| caller)
        .filter(|caller| caller.index() < n_orig)
        .collect();
    for caller in callers {
        for blk in &mut Arc::make_mut(&mut module.cfgs[caller.index()]).blocks {
            for s in &mut blk.stmts {
                if let CStmt::Call { callee, site, .. } = s {
                    if let Some(&new) = retarget.get(&(caller, *site)) {
                        *callee = new;
                    }
                }
            }
        }
    }

    let mut health = analysis.health.clone();
    health.absorb(gov.into_health());
    CloneResult {
        module,
        clones_of,
        n_clones,
        health,
    }
}

/// Convenience: clone, re-analyze, and report the substituted-constants
/// improvement as `(before, after, result)`.
pub fn cloning_gain(
    mcfg: &ModuleCfg,
    config: &Config,
    max_clones_total: usize,
) -> (usize, usize, CloneResult) {
    let before = Analysis::run(mcfg, config).substitution_counts(mcfg).total;
    let result = clone_by_constants(mcfg, config, max_clones_total);
    let after = Analysis::run(&result.module, config)
        .substitution_counts(&result.module)
        .total;
    (before, after, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::interp::{exec_cfg, ExecLimits};
    use ipcp_ir::program::SlotLayout;
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn mcfg(src: &str) -> ModuleCfg {
        lower_module(&parse_and_resolve(src).unwrap())
    }

    #[test]
    fn conflicting_constants_trigger_a_clone() {
        let m = mcfg(
            "proc main() { call f(1); call f(2); } \
             proc f(a) { print a; print a * 10; }",
        );
        let (before, after, result) = cloning_gain(&m, &Config::default(), 8);
        assert_eq!(result.n_clones, 1);
        assert_eq!(before, 0, "merged analysis should lose a");
        assert_eq!(after, 4, "each copy should keep its constant");
    }

    #[test]
    fn cloning_preserves_behaviour() {
        let m = mcfg(
            "global g; \
             proc main() { g = 3; read x; call f(1, x); call f(2, x); } \
             proc f(a, n) { print a + n * g; if (a > 1) { print a; } }",
        );
        let result = clone_by_constants(&m, &Config::default(), 8);
        assert!(result.changed());
        for inputs in [&[0i64][..], &[5], &[-2]] {
            let x = exec_cfg(&m, inputs, &ExecLimits::default()).unwrap();
            let y = exec_cfg(&result.module, inputs, &ExecLimits::default()).unwrap();
            assert_eq!(x.output, y.output);
        }
    }

    #[test]
    fn agreeing_sites_do_not_clone() {
        let m = mcfg("proc main() { call f(7); call f(7); } proc f(a) { print a; }");
        assert!(!clone_by_constants(&m, &Config::default(), 8).changed());
    }

    #[test]
    fn all_unknown_vectors_do_not_clone() {
        let m =
            mcfg("proc main() { read x; read y; call f(x); call f(y); } proc f(a) { print a; }");
        assert!(!clone_by_constants(&m, &Config::default(), 8).changed());
    }

    #[test]
    fn budget_caps_growth() {
        let m = mcfg(
            "proc main() { call f(1); call f(2); call f(3); call f(4); } \
             proc f(a) { print a; }",
        );
        assert_eq!(clone_by_constants(&m, &Config::default(), 2).n_clones, 2);
        assert_eq!(clone_by_constants(&m, &Config::default(), 100).n_clones, 3);
        let (before, after, _) = cloning_gain(&m, &Config::default(), 100);
        assert_eq!(before, 0);
        assert_eq!(after, 4);
    }

    #[test]
    fn configured_clone_limit_degrades_with_telemetry() {
        use crate::config::AnalysisLimits;
        let m = mcfg("proc main() { call f(1); call f(2); call f(3); } proc f(a) { print a; }");
        let limits = AnalysisLimits {
            max_clones: 1,
            ..AnalysisLimits::default()
        };
        let r = clone_by_constants(&m, &Config::default().with_limits(limits), 8);
        assert_eq!(r.n_clones, 1, "one clone fits the configured limit");
        assert_eq!(r.health.count(Stage::Cloning), 1, "{}", r.health);
        // The explicit per-call cap is the caller's own choice — hitting
        // it is not a degradation.
        let r = clone_by_constants(&m, &Config::default(), 1);
        assert_eq!(r.n_clones, 1);
        assert!(!r.health.degraded(), "{}", r.health);
    }

    #[test]
    fn fault_injection_stops_cloning_deterministically() {
        let m = mcfg("proc main() { call f(1); call f(2); call f(3); } proc f(a) { print a; }");
        let r = clone_by_constants(&m, &Config::default().with_fault(Stage::Cloning, 1), 8);
        assert_eq!(r.n_clones, 0, "the fault trips before the first clone");
        assert!(r.health.count(Stage::Cloning) >= 1, "{}", r.health);
    }

    #[test]
    fn recursive_procedures_are_skipped() {
        let m = mcfg(
            "proc main() { call f(1); call f(2); } \
             proc f(a) { if (a > 0) { b = a - 1; call f(b); } print a; }",
        );
        assert!(!clone_by_constants(&m, &Config::default(), 8).changed());
    }

    #[test]
    fn clones_get_fresh_names_and_their_own_constants() {
        let m = mcfg("proc main() { call f(10); call f(20); } proc f(a) { print a; }");
        let result = clone_by_constants(&m, &Config::default(), 8);
        let names: Vec<&str> = result
            .module
            .module
            .procs
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert!(names.contains(&"f$1"), "{names:?}");
        let analysis = Analysis::run(&result.module, &Config::default());
        let f = result.module.module.proc_named("f").unwrap().id;
        let f1 = result.module.module.proc_named("f$1").unwrap().id;
        let cf = analysis.vals.constants(f);
        let cf1 = analysis.vals.constants(f1);
        assert_eq!(cf.len(), 1);
        assert_eq!(cf1.len(), 1);
        assert_ne!(cf[0].1, cf1[0].1);
        // Slot naming still works on the grown module.
        let layout = SlotLayout::new(&result.module.module);
        assert_eq!(layout.slot_name(&result.module.module, f1, 0), "a");
    }

    #[test]
    fn cloning_helps_downstream_of_the_clone() {
        // The specialized constant flows onward from each clone.
        let m = mcfg(
            "proc main() { call f(1); call f(2); } \
             proc f(a) { call g(a); } \
             proc g(b) { print b; }",
        );
        let result = clone_by_constants(&m, &Config::default(), 8);
        assert!(result.changed());
        // One more round specializes g as well.
        let (before, after, second) = cloning_gain(&result.module, &Config::default(), 8);
        assert!(second.changed(), "second round should clone g");
        assert!(after > before, "second round should expose more constants");
    }
}
