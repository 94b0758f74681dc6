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
//! 4. **Live-analysis reuse ≡ the plain memoized path.** An `update` that
//!    reuses the live analysis stage by stage answers what a cold run
//!    answers, and leaves the cache counters and the persisted cache
//!    bytes exactly where a session of plain memoized runs leaves them —
//!    across edit classes that take every reuse and fallback path, five
//!    configurations, one and two workers, injected faults and panics.

use ipcp::serve::store::encode;
use ipcp::serve::{
    same_results, CacheTxn, Memo, ProgramModel, RequestOutcome, ServeEngine, ServeError,
    SummaryCache,
};
use ipcp::{Analysis, Config, Stage};
use ipcp_analysis::{build_call_graph, summary_keys};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::{GlobalId, ProcId};
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

/// A session of plain memoized runs — no live analysis to reuse — kept
/// beside a [`ServeEngine`] and fed the same edits: what the engine's
/// cache must equal.
struct PlainSession {
    config: Config,
    model: ProgramModel,
    cache: SummaryCache,
}

impl PlainSession {
    fn new(src: &str, config: Config) -> PlainSession {
        let model = ProgramModel::from_source(src).unwrap();
        let mut session = PlainSession {
            config,
            model: model.clone(),
            cache: SummaryCache::new(),
        };
        session.run(model);
        session
    }

    /// Runs `model` the plain way and commits it as the live program.
    /// Returns the module, the analysis, and the request's hits, misses,
    /// persisted hits and bypass flag.
    fn run(&mut self, model: ProgramModel) -> (ModuleCfg, Analysis, (u64, u64, u64, bool)) {
        let mcfg = full_path(&model.source());
        let mut txn = CacheTxn::new();
        let memo = Memo {
            cache: &self.cache,
            own: model.own_hashes(),
            txn: &mut txn,
        };
        let analysis = Analysis::run_memoized(&mcfg, &self.config, memo);
        assert_eq!(txn.carried, 0, "the plain path carries nothing");
        let counters = (txn.hits, txn.misses, txn.persisted_hits, txn.bypassed);
        self.cache.commit_live(txn);
        self.model = model;
        (mcfg, analysis, counters)
    }
}

/// Applies one update to `engine` and to `plain`, then checks the engine
/// against a cold run (results and per-procedure substitution counts) and
/// against the plain session (request counters, lifetime cache counters
/// and the persisted cache bytes). Returns the engine's outcome, or
/// `None` when both rejected the edit.
fn step_both(
    engine: &mut ServeEngine,
    plain: &mut PlainSession,
    name: &str,
    body: &str,
    what: &str,
) -> Option<RequestOutcome> {
    // Read the counts first, so the update carries them.
    let _ = engine.snapshot().counts();
    let got = engine.update(name, body);
    let candidate = plain
        .model
        .replace_proc(name, body)
        .ok()
        .filter(|c| parse_and_resolve(&c.source()).is_ok());
    let (Ok(out), Some(candidate)) = (got.as_ref(), candidate) else {
        assert!(
            got.is_err(),
            "{what}: the engine accepted an edit the plain path rejects"
        );
        return None;
    };
    let out = out.clone();
    let (mcfg, warm, txn) = plain.run(candidate);
    assert_eq!(
        (out.hits, out.misses, out.persisted_hits, out.bypassed),
        txn,
        "{what}: request counters"
    );
    assert!(
        out.carried <= out.misses,
        "{what}: carried is a subset of misses"
    );
    let cold = Analysis::run(&mcfg, &plain.config);
    assert!(
        same_results(engine.analysis(), &cold),
        "{what}: reuse vs cold"
    );
    assert!(same_results(&warm, &cold), "{what}: plain vs cold");
    let counts = engine.snapshot().counts().clone();
    assert_eq!(counts, cold.substitution_counts(&mcfg), "{what}: counts");
    let mut stats = engine.cache_stats();
    assert!(stats.carried <= stats.misses, "{what}");
    stats.carried = 0;
    assert_eq!(stats, plain.cache.stats(), "{what}: cache counters");
    let (cfp, sfp) = engine.fingerprints();
    assert!(
        encode(engine.cache(), cfp, sfp) == encode(&plain.cache, cfp, sfp),
        "{what}: cache bytes"
    );
    Some(out)
}

/// `name`'s current text in `engine`.
fn text_of(engine: &ServeEngine, name: &str) -> String {
    let model = ProgramModel::from_source(&engine.source()).unwrap();
    model.proc_text(name).unwrap().to_string()
}

/// A procedure from `from` on that assigns a global at the top level of
/// its body, and that procedure's text with the global assigned again
/// before the final `print`: its return jump function for the global
/// moves, its MOD set does not. Of the first few such procedures, the
/// first whose edit also moves a caller's return jump functions in a cold
/// run, so that the dirty set has to climb; the first one when none does
/// (as without return jump functions).
fn return_jump_change(engine: &ServeEngine, from: u64) -> (String, String) {
    let model = ProgramModel::from_source(&engine.source()).unwrap();
    let (live, module) = (engine.analysis(), &engine.mcfg().module);
    let edits = (from..1000).filter_map(|i| {
        let proc = module.procs.get(i as usize)?;
        let text = model.proc_text(&proc.name)?;
        let g = text.lines().find_map(|l| {
            let (g, _) = l.strip_prefix("    g")?.split_once(" = ")?;
            g.parse::<u32>().ok()
        })?;
        let body = before_last_print(text, &format!("g{g} = 2023;"));
        Some((proc.id, body))
    });
    let mut first = None;
    for (p, body) in edits.take(8) {
        let name = module.proc(p).name.clone();
        let src = model.replace_proc(&name, &body).unwrap().source();
        let cold = Analysis::run(&full_path(&src), engine.config());
        let moved = |q: usize| cold.ret_jfs.fns[q] != live.ret_jfs.fns[q];
        if live.cg.calls_to(p).any(|e| moved(e.caller.index())) {
            return (name, body);
        }
        first.get_or_insert((name, body));
    }
    first.expect("some procedure writes a global")
}

/// A caller and the procedure it holds the only call to, on a line of its
/// own at the top level of the caller's body.
fn sole_call(engine: &ServeEngine) -> (String, String) {
    let (mcfg, cg) = (engine.mcfg(), &engine.analysis().cg);
    let name = |p: ipcp_ir::program::ProcId| mcfg.module.proc(p).name.clone();
    mcfg.module
        .procs
        .iter()
        .filter(|p| cg.calls_to(p.id).count() == 1)
        .find_map(|p| {
            let edge = cg.calls_to(p.id).next()?;
            let (caller, callee) = (name(edge.caller), name(edge.callee));
            let line = format!("\n    call {callee}(");
            text_of(engine, &caller)
                .contains(&line)
                .then_some((caller, callee))
        })
        .expect("some procedure has a single caller")
}

/// A call at which some caller binds one of its locals by reference to a
/// callee formal other than a fuel slot, in a caller whose MOD set leaves
/// some scalar global out: the caller, the call's argument list as
/// written, the callee, the actual's position, and the global.
fn byref_local_call(engine: &ServeEngine) -> (ProcId, String, String, usize, GlobalId) {
    let (module, modref) = (&engine.mcfg().module, &engine.analysis().modref);
    let model = ProgramModel::from_source(&engine.source()).unwrap();
    let is_local = |a: &str| {
        a.strip_prefix('v')
            .is_some_and(|n| n.parse::<u32>().is_ok())
    };
    module.procs[1..]
        .iter()
        .find_map(|caller| {
            let g = (0..module.globals.len()).map(GlobalId::from).find(|&g| {
                module.globals[g.index()].array_len.is_none() && !modref.mod_of(caller.id).global(g)
            })?;
            let text = model.proc_text(&caller.name)?;
            let (args, callee, k) = text.lines().find_map(|l| {
                let call = l.trim().strip_prefix("call ")?.strip_suffix(");")?;
                let (callee, args) = call.split_once('(')?;
                let k = args.split(", ").skip(1).position(is_local)? + 1;
                Some((args.to_string(), callee.to_string(), k))
            })?;
            Some((caller.id, args, callee, k, g))
        })
        .expect("some call passes a local by reference")
}

/// `text` with `line` inserted before its final `print`.
fn before_last_print(text: &str, line: &str) -> String {
    let at = text.rfind("    print ").expect("generated epilogue");
    let mut out = text.to_string();
    out.insert_str(at, &format!("    {line}\n"));
    out
}

/// The edit script: a literal bump (early cutoff), a return-jump change
/// (the dirty set climbs), a new global write and a global bound by
/// reference in place of a local (the MOD/REF precondition fails), a
/// dropped call (the call-edge precondition fails), and an
/// arity change of the procedure that lost its only caller, there and
/// back (the full path; the way back finds the superseded entries).
fn edit_session(engine: &mut ServeEngine, plain: &mut PlainSession, label: &str) {
    let mut rng = Rng::new(0x5EED_0023);
    let mut carried = 0;
    let mut step = |engine: &mut ServeEngine, name: &str, body: String, class: &str| {
        let what = format!("{label}: {class} of `{name}`");
        let out = step_both(engine, plain, name, &body, &what);
        carried += out.unwrap_or_else(|| panic!("{what}: rejected")).carried;
    };
    for round in 1..=2 {
        let name = format!("p{}", 1 + rng.below(999));
        let body = bump(engine, &name, round);
        step(engine, &name, body, "literal bump");
    }
    let (name, body) = return_jump_change(engine, 1 + rng.below(500));
    step(engine, &name, body, "return-jump change");
    let name = format!("p{}", 1 + rng.below(999));
    let text = text_of(engine, &name);
    let fresh = (0..4)
        .map(|k| format!("g{k}"))
        .find(|g| !text.contains(&format!("{g} = ")));
    if let Some(g) = fresh {
        step(
            engine,
            &name,
            before_last_print(&text, &format!("{g} = 7;")),
            "MOD change",
        );
    }
    // Have a callee write a formal its caller binds a local to, then bind
    // a global there instead, and back: the caller keeps its call edges
    // and direct effects, but its propagated MOD set gains the global.
    let (caller_id, args, callee, k, g) = byref_local_call(engine);
    let write = before_last_print(&text_of(engine, &callee), &format!("f{k} = 11;"));
    step(engine, &callee, write, "formal write");
    let module = &engine.mcfg().module;
    let (caller, global) = (
        module.proc(caller_id).name.clone(),
        module.globals[g.index()].name.clone(),
    );
    let mut swapped: Vec<&str> = args.split(", ").collect();
    swapped[k] = &global;
    let text = text_of(engine, &caller);
    let (from, to) = (
        format!("{callee}({args});"),
        format!("{callee}({});", swapped.join(", ")),
    );
    let bound = text.replacen(&from, &to, 1);
    step(engine, &caller, bound, "by-reference swap");
    let modref = &engine.analysis().modref;
    assert!(
        modref.mod_of(caller_id).global(g),
        "{label}: the swap moves MOD"
    );
    step(engine, &caller, text, "by-reference swap back");
    // Drop the only call to some procedure, which can then change arity.
    let (caller, callee) = sole_call(engine);
    let text = text_of(engine, &caller);
    let at = text.find(&format!("    call {callee}(")).unwrap();
    let end = at + text[at..].find('\n').unwrap() + 1;
    let dropped = format!("{}{}", &text[..at], &text[end..]);
    step(engine, &caller, dropped, "dropped call");
    let text = text_of(engine, &callee);
    let open = text.find('(').unwrap() + 1;
    let wider = match text[open..].starts_with(')') {
        true => text.replacen("()", "(zz)", 1),
        false => format!("{}zz, {}", &text[..open], &text[open..]),
    };
    step(engine, &callee, wider, "arity change");
    step(engine, &callee, text, "arity change back");
    let name = format!("p{}", 1 + rng.below(999));
    let body = bump(engine, &name, 3);
    step(engine, &name, body, "literal bump after the full path");
    assert!(carried > 0, "{label}: early cutoff never carried a unit");
}

/// The first member of a recursive SCC is built while its siblings'
/// entries are still empty, so its return jump functions do not read
/// them, but its symbolic form (evaluated against the final table) does.
/// An edit that moves a later member's functions therefore reuses the
/// first member's functions and must still rebuild its form: the forward
/// jump function of its call to `c` moves with the sibling's global.
#[test]
fn live_reuse_rebuilds_the_form_of_an_earlier_scc_member() {
    let src = "global g; global h; \
               proc main() { call a(); call b(); print g + h; } \
               proc a() { call b(); g = 5; call c(h); } \
               proc b() { call a(); h = 7; call c(g); } \
               proc c(x) { print x; }";
    for jobs in [1, 2] {
        let config = Config::default().with_jobs(jobs);
        let mut engine = ServeEngine::new(src, &config).unwrap();
        let mut plain = PlainSession::new(src, config);
        let (module, cg) = (&engine.mcfg().module, &engine.analysis().cg);
        let scc = cg.sccs.iter().find(|s| s.len() == 2).unwrap();
        let later = module.proc(scc[1]).name.clone();
        let body = text_of(&engine, &later)
            .replace("= 5;", "= 6;")
            .replace("= 7;", "= 8;");
        let what = format!("jobs {jobs}: edit of `{later}`");
        let out = step_both(&mut engine, &mut plain, &later, &body, &what).unwrap();
        assert!(out.carried > 0, "{what}: the first member was reused");
    }
}

#[test]
fn live_reuse_matches_the_plain_memoized_path() {
    let src = scale_1k();
    let b = Config::builder;
    let configs = [
        ("default", Config::default()),
        ("polynomial", Config::polynomial()),
        ("no-mod", Config::default().with_mod(false)),
        ("no-return-jfs", Config::default().with_return_jfs(false)),
        (
            "compose",
            b().compose_return_jfs(true).build().expect("valid"),
        ),
    ];
    for (label, config) in configs {
        for jobs in [1, 2] {
            let config = config.with_jobs(jobs);
            let mut engine = ServeEngine::new(&src, &config).unwrap();
            let mut plain = PlainSession::new(&src, config);
            edit_session(&mut engine, &mut plain, &format!("{label}/jobs {jobs}"));
        }
    }
}

/// The `Stage::RetJump` charges a fault-free run makes before procedure
/// `p`'s unit, plus one: a fault there trips on `p`'s first slot.
fn ret_offset(analysis: &Analysis, mcfg: &ModuleCfg, p: usize) -> u64 {
    let cg = &analysis.cg;
    let mut charges = 0;
    for q in cg.bottom_up() {
        if q.index() == p {
            break;
        }
        charges += analysis
            .layout
            .n_slots(mcfg.module.procs[q.index()].arity()) as u64;
    }
    charges + 1
}

/// The `Stage::Jump` charges a fault-free run makes before caller `p`'s
/// forward-jump unit, plus one.
fn jump_offset(analysis: &Analysis, p: usize) -> u64 {
    let per_caller = |q: usize| -> u64 {
        analysis.jump_fns.sites[q]
            .iter()
            .map(|fns| fns.len() as u64)
            .sum()
    };
    (0..p).map(per_caller).sum::<u64>() + 1
}

#[test]
fn live_reuse_matches_the_plain_memoized_path_under_faults_and_panics() {
    let src = scale_1k();
    let base = Config::default();
    let probe = ServeEngine::new(&src, &base).unwrap();
    // The literal bump the session makes first edits this procedure.
    let edited = 1 + Rng::new(0x5EED_0023).below(999) as usize;
    let clean = if edited == 500 { 501 } else { 500 };
    let (a, m) = (probe.analysis(), probe.mcfg());
    let variants = [
        (
            "retjump fault at the edit",
            base.with_fault(Stage::RetJump, ret_offset(a, m, edited)),
        ),
        (
            "jump fault at the edit",
            base.with_fault(Stage::Jump, jump_offset(a, edited)),
        ),
        (
            "retjump panic in the edit",
            base.with_panic(Stage::RetJump, edited),
        ),
        (
            "jump panic in the edit",
            base.with_panic(Stage::Jump, edited),
        ),
        (
            "modref panic elsewhere",
            base.with_panic(Stage::ModRef, clean),
        ),
        (
            "retjump panic elsewhere",
            base.with_panic(Stage::RetJump, clean),
        ),
    ];
    for (i, (label, config)) in variants.into_iter().enumerate() {
        let config = config.with_jobs(1 + i % 2);
        let mut engine = ServeEngine::new(&src, &config).unwrap();
        assert!(
            engine.analysis().health.degraded(),
            "{label}: the injection fires"
        );
        let mut plain = PlainSession::new(&src, config);
        edit_session(&mut engine, &mut plain, label);
    }
}
