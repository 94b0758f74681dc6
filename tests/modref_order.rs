//! MOD/REF propagation in bottom-up SCC order reaches the same least
//! fixpoint as iterating every call edge until nothing changes.
//!
//! `propagate_modref` visits the call graph's strongly connected
//! components callees-first and iterates only inside recursive ones. The
//! oracle here is the plain round-robin formulation: sweep every edge of
//! the program, carrying the callee's sets back to the caller through the
//! reference bindings and the globals, until a sweep changes nothing.
//! Both must agree on every procedure's MOD and REF set, on the suite,
//! on a mutated corpus, and on generated programs with recursion —
//! including inputs where some procedures arrive widened to "everything",
//! as quarantine leaves them.

use ipcp_analysis::{build_call_graph, direct_effects, propagate_modref, CallGraph, ModSet};
use ipcp_ir::program::{Arg, ProcId, VarKind};
use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};
use ipcp_suite::mutate::swap_operator;
use ipcp_suite::{generate, generate_scale, GenConfig, Rng, ScaleSpec, PROGRAMS};

/// One summary as plain flags: `(formals, globals)`.
type Flags = (Vec<bool>, Vec<bool>);

fn flags(m: &ModSet) -> Flags {
    (m.formal_flags().collect(), m.global_flags().collect())
}

fn set(bits: &mut [bool], i: usize) -> bool {
    match bits.get_mut(i) {
        Some(b) if !*b => {
            *b = true;
            true
        }
        _ => false,
    }
}

/// The round-robin oracle: every edge, in order, until a sweep changes
/// nothing.
fn round_robin(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    mut mods: Vec<Flags>,
    mut refs: Vec<Flags>,
) -> (Vec<Flags>, Vec<Flags>) {
    let mut changed = true;
    while changed {
        changed = false;
        for e in &cg.edges {
            let caller = mcfg.module.proc(e.caller);
            let callee_mod = mods[e.callee.index()].clone();
            let callee_ref = refs[e.callee.index()].clone();
            let Some((_, _, args)) = mcfg.call_site(e.caller, e.site) else {
                continue;
            };
            let (cm, cr) = (&mut mods[e.caller.index()], &mut refs[e.caller.index()]);
            for (i, arg) in args.iter().enumerate() {
                let (Arg::Scalar(v, _) | Arg::Array(v, _)) = arg else {
                    continue;
                };
                let bits = |f: &Flags, cm: &mut Flags| match caller.var(*v).kind {
                    VarKind::Formal(j) if f.0.get(i) == Some(&true) => set(&mut cm.0, j),
                    VarKind::Global(g) if f.0.get(i) == Some(&true) => set(&mut cm.1, g.index()),
                    _ => false,
                };
                changed |= bits(&callee_mod, cm);
                changed |= bits(&callee_ref, cr);
            }
            for g in 0..callee_mod.1.len() {
                if callee_mod.1[g] {
                    changed |= set(&mut cm.1, g);
                }
                if callee_ref.1[g] {
                    changed |= set(&mut cr.1, g);
                }
            }
        }
    }
    (mods, refs)
}

/// Compares both propagations on `mcfg`, with every procedure whose bit
/// in `widen` is set starting from the quarantine widening. Returns
/// whether the program has a recursive component.
fn check(mcfg: &ModuleCfg, widen: u64, label: &str) -> bool {
    let cg = build_call_graph(mcfg);
    let n_globals = mcfg.module.globals.len();
    let (mut mods, mut refs) = (Vec::new(), Vec::new());
    for p in &mcfg.module.procs {
        let (m, r) = if widen >> (p.id.index() % 64) & 1 == 1 {
            let all = ModSet::everything(p.arity(), n_globals);
            (all.clone(), all)
        } else {
            direct_effects(mcfg, p.id)
        };
        mods.push(m);
        refs.push(r);
    }
    let (want_mods, want_refs) = round_robin(
        mcfg,
        &cg,
        mods.iter().map(flags).collect(),
        refs.iter().map(flags).collect(),
    );
    let got = propagate_modref(mcfg, &cg, mods, refs);
    for p in 0..mcfg.module.procs.len() {
        let pid = ProcId::from(p);
        assert_eq!(
            flags(got.mod_of(pid)),
            want_mods[p],
            "{label}: MOD of proc {p}"
        );
        assert_eq!(
            flags(got.ref_of(pid)),
            want_refs[p],
            "{label}: REF of proc {p}"
        );
    }
    (0..mcfg.module.procs.len()).any(|p| cg.is_recursive(ProcId::from(p)))
}

fn lowered(src: &str) -> Option<ModuleCfg> {
    parse_and_resolve(src).ok().map(|m| lower_module(&m))
}

#[test]
fn scc_order_matches_round_robin_on_the_suite_and_mutants() {
    let mut rng = Rng::new(0x30D);
    for p in PROGRAMS {
        let mcfg = lowered(p.source).expect("suite program resolves");
        check(&mcfg, 0, p.name);
        check(&mcfg, rng.next_u64(), &format!("{} widened", p.name));
        for round in 0..8 {
            let src = swap_operator(p.source, &mut rng);
            if let Some(mcfg) = lowered(&src) {
                check(
                    &mcfg,
                    rng.next_u64() & rng.next_u64(),
                    &format!("{} mutant {round}", p.name),
                );
            }
        }
    }
}

#[test]
fn scc_order_matches_round_robin_on_recursive_generated_programs() {
    let mut rng = Rng::new(0x5CC);
    let mut recursive = 0;
    for seed in 0..60u64 {
        let config = GenConfig {
            n_procs: 3 + (seed % 8) as usize,
            ..GenConfig::default()
        };
        if let Some(mcfg) = lowered(&generate(&config, seed)) {
            let widen = if seed % 3 == 0 { rng.next_u64() } else { 0 };
            recursive += usize::from(check(&mcfg, widen, &format!("gen seed {seed}")));
        }
    }
    for seed in 0..6u64 {
        let spec = format!("procs=300,shape=mixed,recursion=8,seed={seed}");
        let spec = ScaleSpec::parse(&spec).expect("valid spec");
        let mcfg = lowered(&generate_scale(&spec)).expect("scale program resolves");
        let widen = if seed % 2 == 0 { 0 } else { rng.next_u64() };
        recursive += usize::from(check(&mcfg, widen, &format!("scale seed {seed}")));
    }
    assert!(recursive >= 6, "only {recursive} inputs had recursion");
}
