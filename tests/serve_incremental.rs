//! A serve edit costs its cone: the splice path, the pinned cache, and
//! the incremental substitution recount.
//!
//! Three contracts are pinned differentially:
//!
//! 1. **Misses equal changed keys.** After a literal-bump `update` on the
//!    1k tier, the request misses exactly the memo units whose key digest
//!    differs between the old and the new program — computed here from
//!    `summary_keys` of both programs, independently of the engine — on
//!    the default cache and on one bounded to 64 superseded entries. No
//!    entry the live program uses is ever evicted.
//! 2. **Splice ≡ full path.** An `update` that resolves and lowers only the
//!    edited procedure yields the module a fresh parse, resolve and lower
//!    of the recombined text yields: the same `to_source()`, the same
//!    symbol tables and formals, and the same analysis at one and two
//!    workers. Edits the splice cannot prove safe (arity, unknown callee,
//!    array-ness, array-ness justified only through a recursive cycle)
//!    take the full path and answer exactly as a `load` of the recombined
//!    text does.
//! 3. **Incremental counts ≡ full recount.** The substitution counts an
//!    `update` carries over from the previous snapshot equal a recount
//!    from scratch, per procedure, under five configurations, including
//!    an edit that changes reachability.

use ipcp::serve::{
    same_results, ProgramModel, RequestOutcome, ServeEngine, ServeError, SummaryCache,
};
use ipcp::{Analysis, Config};
use ipcp_analysis::{build_call_graph, summary_keys};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::{lower_module_owned, parse_and_resolve};
use ipcp_suite::mutate::swap_operator;
use ipcp_suite::{generate_scale, Rng, ScaleSpec, PROGRAMS};

fn scale_1k() -> String {
    let spec = ScaleSpec::parse("procs=1k,shape=mixed,recursion=8,seed=101").unwrap();
    generate_scale(&spec)
}

/// `name`'s current text with the literal of its `v0 = <lit>;` prologue
/// set to `1000 + round`, a value no generated prologue and no earlier
/// round holds — the literal-bump edit `bench_serve` and perfbench time.
fn bump(engine: &ServeEngine, name: &str, round: i64) -> String {
    let model = ProgramModel::from_source(&engine.source()).unwrap();
    let mut body = model.proc_text(name).unwrap().to_string();
    let at = body.find("v0 = ").expect("generated prologue") + "v0 = ".len();
    let len = body[at..].find(';').unwrap();
    body.replace_range(at..at + len, &(1000 + round).to_string());
    body
}

/// Fresh parse, resolve and lower of `src` — the full path.
fn full_path(src: &str) -> ModuleCfg {
    lower_module_owned(parse_and_resolve(src).expect("accepted source resolves"))
}

/// Per memo unit that consults the cache under a fault-free
/// configuration, its family and content digest: MOD/REF by own text
/// for every procedure; return jump functions and symbolic forms by
/// callee cone for reachable ones.
fn memo_units(src: &str) -> Vec<(usize, usize, u128)> {
    let mcfg = full_path(src);
    let cg = build_call_graph(&mcfg);
    let model = ProgramModel::from_source(src).unwrap();
    let keys = summary_keys(&cg, model.own_hashes());
    let mut units = Vec::new();
    for p in 0..mcfg.module.procs.len() {
        units.push((0, p, keys.own[p]));
        if cg.reachable[p] {
            units.push((1, p, keys.cone[p]));
            units.push((2, p, keys.cone[p]));
        }
    }
    units
}

/// The number of units of `new` whose key is not the key the same unit
/// had in `old`.
fn changed_keys(old: &[(usize, usize, u128)], new: &[(usize, usize, u128)]) -> u64 {
    let old: std::collections::HashMap<(usize, usize), u128> =
        old.iter().map(|&(f, p, d)| ((f, p), d)).collect();
    new.iter()
        .filter(|&&(f, p, d)| old.get(&(f, p)) != Some(&d))
        .count() as u64
}

#[test]
fn misses_equal_changed_keys_and_live_entries_are_never_evicted() {
    let src = scale_1k();
    let config = Config::default();
    for capacity in [SummaryCache::DEFAULT_CAPACITY, 64] {
        let cache = SummaryCache::with_capacity(capacity);
        let mut engine = ServeEngine::new_with_cache(&src, &config, cache).unwrap();
        let mut rng = Rng::new(0xC01E);
        let mut units = memo_units(&engine.source());
        for round in 1..=12i64 {
            let name = format!("p{}", 1 + rng.below(999));
            let body = bump(&engine, &name, round);
            let out = engine.update(&name, &body).unwrap();
            let next = memo_units(&engine.source());
            let changed = changed_keys(&units, &next);
            assert!(changed > 0, "round {round}: the bump re-keys `{name}`");
            assert_eq!(
                out.misses, changed,
                "round {round}, capacity {capacity}: misses vs changed keys"
            );
            assert_eq!(out.hits + out.misses, next.len() as u64);
            units = next;
            // Every live entry survived the commit's eviction: a rerun of
            // the live program hits everything.
            let rerun = engine.analyze(None).unwrap();
            assert_eq!(rerun.misses, 0, "round {round}, capacity {capacity}");
        }
        assert_eq!(engine.stats().spliced_updates, 12);
        let stats = engine.cache_stats();
        if capacity == 64 {
            assert!(stats.evictions > 0, "superseded entries age out");
            assert!(engine.cache_len() <= units.len() + 64);
        } else {
            assert_eq!(stats.evictions, 0);
        }
        assert!(same_results(
            engine.analysis(),
            &Analysis::run(engine.mcfg(), &config)
        ));
    }
}

/// `engine`'s module against a fresh full-path lowering of its source:
/// same printed program, symbol tables and formals, and the same
/// analysis at one and two workers.
fn assert_matches_full_path(engine: &ServeEngine, what: &str) {
    let fresh = full_path(&engine.source());
    let spliced = engine.mcfg();
    assert_eq!(
        spliced.module.to_source(),
        fresh.module.to_source(),
        "{what}"
    );
    assert_eq!(
        spliced.module.procs.len(),
        fresh.module.procs.len(),
        "{what}"
    );
    for (a, b) in spliced.module.procs.iter().zip(&fresh.module.procs) {
        assert_eq!(a.vars, b.vars, "{what}: `{}` vars", a.name);
        assert_eq!(a.formals, b.formals, "{what}: `{}` formals", a.name);
    }
    for jobs in [1, 2] {
        let config = engine.config().with_jobs(jobs);
        assert!(
            same_results(
                &Analysis::run(spliced, &config),
                &Analysis::run(&fresh, &config)
            ),
            "{what}: analysis at jobs={jobs}"
        );
    }
    assert!(
        same_results(engine.analysis(), &Analysis::run(&fresh, engine.config())),
        "{what}: live analysis"
    );
}

/// Applies one `update` to `engine` and the same edit as a `load` of the
/// recombined text to `twin` — the full path every update took before
/// the splice. The replies must agree exactly; on success both modules
/// must match a fresh lowering.
fn update_against_load_twin(
    engine: &mut ServeEngine,
    twin: &mut ServeEngine,
    name: &str,
    fragment: &str,
    what: &str,
) -> Result<RequestOutcome, ServeError> {
    let recombined = ProgramModel::from_source(&engine.source())
        .unwrap()
        .replace_proc(name, fragment)
        .map(|m| m.source());
    let before = engine.source();
    let got = engine.update(name, fragment);
    let want = match &recombined {
        Ok(src) => twin.load(src),
        Err(e) => Err(e.clone()),
    };
    match (&got, &want) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: outcome"),
        (Err(a), Err(b)) => {
            assert_eq!(a.kind(), b.kind(), "{what}: error kind");
            assert_eq!(a.to_string(), b.to_string(), "{what}: error text");
            assert_eq!(engine.source(), before, "{what}: rejected edit rolled back");
        }
        _ => panic!("{what}: update {got:?} vs load {want:?}"),
    }
    if got.is_ok() {
        assert_eq!(engine.source(), twin.source(), "{what}: source");
        assert_matches_full_path(engine, what);
    }
    got
}

#[test]
fn spliced_updates_match_a_full_reparse() {
    let config = Config::polynomial();
    let mut corpus: Vec<(String, String)> = PROGRAMS
        .iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    let mut rng = Rng::new(0x0059_11CE);
    for p in PROGRAMS.iter().take(6) {
        for k in 0..3 {
            corpus.push((
                format!("{}~swap{k}", p.name),
                swap_operator(p.source, &mut rng),
            ));
        }
    }
    let mut spliced = 0;
    for (label, src) in &corpus {
        if parse_and_resolve(src).is_err() {
            continue;
        }
        let mut engine = ServeEngine::new(src, &config).unwrap();
        let mut twin = ServeEngine::new(src, &config).unwrap();
        let names: Vec<String> = ProgramModel::from_source(src)
            .unwrap()
            .proc_names()
            .map(String::from)
            .collect();
        for name in &names {
            let text = ProgramModel::from_source(&engine.source())
                .unwrap()
                .proc_text(name)
                .unwrap()
                .to_string();
            let fragment = swap_operator(&text, &mut rng);
            let what = format!("{label}: edit of `{name}`");
            let _ = update_against_load_twin(&mut engine, &mut twin, name, &fragment, &what);
        }
        spliced += engine.stats().spliced_updates;
    }
    assert!(spliced > 20, "the splice path ran ({spliced} updates)");

    // The 1k tier: literal bumps, every one spliced.
    let src = scale_1k();
    let mut engine = ServeEngine::new(&src, &config).unwrap();
    let mut twin = ServeEngine::new(&src, &config).unwrap();
    for round in 1..=6i64 {
        let name = format!("p{}", 1 + rng.below(999));
        let body = bump(&engine, &name, round);
        update_against_load_twin(&mut engine, &mut twin, &name, &body, "1k tier").unwrap();
    }
    assert_eq!(engine.stats().spliced_updates, 6);
}

#[test]
fn edits_the_splice_cannot_prove_take_the_full_path() {
    let config = Config::polynomial();
    // (program, procedure, replacement, accepted?)
    let cases = [
        // Arity change: every caller's call site re-resolves.
        (
            "proc main() { call f(1); } proc f(a) { call g(a); } proc g(b) { print b; }",
            "g",
            "proc g(b, c) { print b + c; }",
            false,
        ),
        // Arity change nobody calls: accepted, shape re-keyed.
        (
            "proc main() { print 1; } proc f(a) { print a; }",
            "f",
            "proc f(a, b) { print a * b; }",
            true,
        ),
        // Unknown callee.
        (
            "proc main() { call f(1); } proc f(a) { print a; }",
            "f",
            "proc f(a) { call nothere(a); }",
            false,
        ),
        // Array-ness change that a caller contradicts.
        (
            "proc main() { array t[3]; call f(t); } proc f(a) { a[0] = 1; }",
            "f",
            "proc f(a) { print a; }",
            false,
        ),
        // Array-ness change nobody contradicts.
        (
            "proc main() { print 1; } proc f(a) { print a; }",
            "f",
            "proc f(a) { a[0] = 2; }",
            true,
        ),
        // A scalar formal passed to an array formal: promoted by the
        // whole-module fixpoint, so the body alone cannot decide it.
        (
            "proc main() { array t[2]; call g(t); } proc g(b) { call f(b); } \
             proc f(a) { a[0] = 1; }",
            "g",
            "proc g(b) { call f(b); call f(b); }",
            true,
        ),
        // `y` is an array only through the `a ⇄ b` cycle.
        (
            "proc main() { array t[4]; call a(t); } \
             proc a(x) { x[0] = 1; call b(x); } \
             proc b(y) { call a(y); }",
            "b",
            "proc b(y) { if (0 > 1) { call a(y); } }",
            true,
        ),
    ];
    for (i, (src, name, fragment, accepted)) in cases.into_iter().enumerate() {
        let what = format!("case {i}: `{fragment}`");
        let mut engine = ServeEngine::new(src, &config).unwrap();
        let mut twin = ServeEngine::new(src, &config).unwrap();
        let got = update_against_load_twin(&mut engine, &mut twin, name, fragment, &what);
        assert_eq!(got.is_ok(), accepted, "{what}: {got:?}");
        assert_eq!(engine.stats().spliced_updates, 0, "{what}: took the splice");
        if accepted {
            // The full path ran: the module equals a fresh lowering, spans
            // included.
            assert!(*engine.mcfg() == full_path(&engine.source()), "{what}");
        }
    }

    // Control: the same edit with unchanged array-ness is spliced.
    let mut engine = ServeEngine::new(
        "proc main() { array t[4]; call a(t); } \
         proc a(x) { x[0] = 1; call b(x); } \
         proc b(y) { call a(y); }",
        &config,
    )
    .unwrap();
    engine
        .update("a", "proc a(x) { x[1] = 2; call b(x); }")
        .unwrap();
    assert_eq!(engine.stats().spliced_updates, 1);
    assert_matches_full_path(&engine, "control");
}

fn configs() -> Vec<(&'static str, Config)> {
    let b = Config::builder;
    vec![
        ("default", Config::default()),
        ("polynomial", Config::polynomial()),
        (
            "compose",
            b().compose_return_jfs(true).build().expect("valid"),
        ),
        ("pruned", b().pruned_ssa(true).build().expect("valid")),
        ("gated", b().gated(true).build().expect("valid")),
    ]
}

/// Reads the counts once (so the next `update` can carry them), applies
/// `edit`, and checks the carried counts against a recount from scratch.
fn check_carried_counts(engine: &mut ServeEngine, name: &str, fragment: &str, what: &str) -> bool {
    let _ = engine.snapshot().counts();
    if engine.update(name, fragment).is_err() {
        return false;
    }
    let snap = engine.snapshot();
    let carried = snap
        .computed_counts()
        .unwrap_or_else(|| panic!("{what}: counts were not carried over"))
        .clone();
    let full = engine.analysis().substitution_counts(engine.mcfg());
    assert_eq!(carried, full, "{what}");
    assert_eq!(snap.substituted(), full.total, "{what}");
    true
}

#[test]
fn carried_counts_equal_a_full_recount_on_the_suite() {
    for (label, config) in configs() {
        // Seeded operator swaps, 20 per program.
        for p in PROGRAMS {
            let mut engine = ServeEngine::new(p.source, &config).unwrap();
            let names: Vec<String> = ProgramModel::from_source(p.source)
                .unwrap()
                .proc_names()
                .map(String::from)
                .collect();
            let mut rng = Rng::new(0x00C0_0075);
            for step in 0..20 {
                let name = &names[rng.below(names.len() as u64) as usize];
                let text = ProgramModel::from_source(&engine.source())
                    .unwrap()
                    .proc_text(name)
                    .unwrap()
                    .to_string();
                let fragment = swap_operator(&text, &mut rng);
                let what = format!("{label}/{}: step {step}, `{name}`", p.name);
                check_carried_counts(&mut engine, name, &fragment, &what);
            }
        }
    }
}

#[test]
fn carried_counts_equal_a_full_recount_on_the_1k_tier() {
    let big = scale_1k();
    for (label, config) in configs() {
        let mut engine = ServeEngine::new(&big, &config).unwrap();
        let mut rng = Rng::new(0xB16);
        for round in 1..=20i64 {
            let name = format!("p{}", 1 + rng.below(999));
            let body = bump(&engine, &name, round);
            let what = format!("{label}/1k: round {round}, `{name}`");
            assert!(check_carried_counts(&mut engine, &name, &body, &what));
        }
    }
}

#[test]
fn carried_counts_follow_reachability_changes() {
    // `b` falls out of the call graph, then returns.
    let src = "global g; proc main() { g = 3; call a(2); } \
               proc a(x) { call b(x + g); print x; } \
               proc b(y) { print y * g; }";
    for (label, config) in configs() {
        let mut engine = ServeEngine::new(src, &config).unwrap();
        assert!(check_carried_counts(
            &mut engine,
            "a",
            "proc a(x) { print x; }",
            label
        ));
        assert!(!engine.analysis().cg.reachable[2], "{label}: b unreachable");
        assert!(check_carried_counts(
            &mut engine,
            "a",
            "proc a(x) { call b(x + g); print x; }",
            label
        ));
        assert!(engine.analysis().cg.reachable[2], "{label}: b reachable");
    }
}
