//! The `ipcc serve` engine: differential identity, cache invalidation,
//! and fault isolation.
//!
//! Three contracts from `docs/SERVE.md` are enforced here:
//!
//! 1. **Identity.** A warm engine's results — values, health events,
//!    quarantine flags — are bit-identical to a cold `Analysis::run` on
//!    the same program and configuration, after any sequence of edits.
//! 2. **Exact invalidation.** An `update` to procedure `p` recomputes
//!    exactly `p` plus its transitive dependents (SCC siblings included);
//!    everything else is served from cache. Shape changes (arity edits)
//!    re-key everything.
//! 3. **Isolation.** A panic-injected request returns a structured error
//!    with the model and cache provably untouched; invalid overrides are
//!    structured errors; failed updates roll back completely.
//!
//! Serve's analysis is the pipeline's one driver with the cache as a memo
//! hook, so it runs on the request's `--jobs` pool: the identity and
//! exact-counter tests run at one and two workers and the counters must
//! not depend on the worker count.

use ipcp::serve::{config_from_overrides, same_results, Json, Object, ServeEngine, ServeError};
use ipcp::{Analysis, Config, IpcpError, Stage};
use ipcp_suite::PROGRAMS;

/// `main → f → g`, all reachable: 3 procedures × 3 summary stages.
const CHAIN: &str = "proc main() { call f(1); } \
    proc f(a) { call g(a + 1); } \
    proc g(b) { print b; }";

/// `f ⇄ g` mutual recursion under `main`: one non-trivial SCC.
const MUTUAL: &str = "proc main() { call f(3); } \
    proc f(n) { if (n > 0) { call g(n - 1); } } \
    proc g(m) { call f(m); }";

/// The worker counts the identity and counter tests run at.
const JOBS: [usize; 2] = [1, 2];

fn engine(src: &str) -> ServeEngine {
    ServeEngine::new(src, &Config::polynomial()).expect("engine builds")
}

fn engine_at(src: &str, jobs: usize) -> ServeEngine {
    ServeEngine::new(src, &Config::polynomial().with_jobs(jobs)).expect("engine builds")
}

fn cold_twin(engine: &ServeEngine) -> Analysis {
    Analysis::run(engine.mcfg(), engine.config())
}

/// Identity + full warm service on every benchmark program: the second
/// `analyze` recomputes nothing, and both runs equal a cold analysis.
#[test]
fn warm_rerun_on_the_suite_is_all_hits_and_bit_identical() {
    for (p, jobs) in PROGRAMS.iter().flat_map(|p| JOBS.map(|j| (p, j))) {
        let mut e = engine_at(p.source, jobs);
        let cold = cold_twin(&e);
        assert!(
            same_results(e.analysis(), &cold),
            "{}: cold vs engine",
            p.name
        );
        let first = e.last_outcome().clone();
        assert_eq!(first.hits, 0, "{}: nothing to hit on a cold cache", p.name);
        let warm = e.analyze(None).unwrap();
        assert_eq!(warm.misses, 0, "{}: warm rerun recomputed units", p.name);
        assert_eq!(warm.hits, first.misses, "{}: warm hit set", p.name);
        assert!(
            same_results(e.analysis(), &cold),
            "{}: warm vs cold",
            p.name
        );
    }
}

/// Exact invalidation on a call chain. With 3 reachable procedures the
/// cold run misses 9 units (MOD/REF, return-jump, symbolic each). An
/// edit to `p` re-keys `p`'s own-hash (1 MOD/REF unit) plus the Merkle
/// cones of `p` and its transitive callers (return-jump + symbolic).
#[test]
fn update_recomputes_exactly_the_dependent_cone() {
    for jobs in JOBS {
        let mut e = engine_at(CHAIN, jobs);
        assert_eq!(e.last_outcome().misses, 9);

        // Leaf edit: g's cone change propagates to f and main. 1 + 3 + 3.
        let out = e.update("g", "proc g(b) { print b + 1; }").unwrap();
        assert_eq!((out.misses, out.hits), (7, 2), "leaf edit, jobs={jobs}");
        assert!(same_results(e.analysis(), &cold_twin(&e)));

        // Root edit: nothing depends on main. 1 + 1 + 1.
        let out = e.update("main", "proc main() { call f(2); }").unwrap();
        assert_eq!((out.misses, out.hits), (3, 6), "root edit, jobs={jobs}");
        assert!(same_results(e.analysis(), &cold_twin(&e)));

        // Middle edit: f and main re-key, g's summaries survive. 1 + 2 + 2.
        let out = e.update("f", "proc f(a) { call g(a + 2); }").unwrap();
        assert_eq!((out.misses, out.hits), (5, 4), "middle edit, jobs={jobs}");
        assert!(same_results(e.analysis(), &cold_twin(&e)));
    }
}

/// A body edit inside a strongly connected component re-keys every
/// member of the SCC (they share a cone) plus the callers above it.
#[test]
fn scc_members_share_invalidation_fate() {
    let edits = [
        ("f", "proc f(n) { if (n > 1) { call g(n - 1); } }"),
        ("g", "proc g(m) { call f(m - 1); }"),
    ];
    for ((victim, fragment), jobs) in edits.iter().flat_map(|e| JOBS.map(|j| (e, j))) {
        let mut e = engine_at(MUTUAL, jobs);
        assert_eq!(e.last_outcome().misses, 9);
        let out = e.update(victim, fragment).unwrap();
        // 1 MOD/REF + the whole program's cones (f, g, main): 1 + 3 + 3.
        assert_eq!(
            (out.misses, out.hits),
            (7, 2),
            "SCC edit via {victim}, jobs={jobs}"
        );
        assert!(same_results(e.analysis(), &cold_twin(&e)));
    }
}

/// Reformatting without structural change is free: own hashes are taken
/// of the procedure as the resolved module prints it, so layout, comments
/// and redundant parentheses leave the hashes — and the cache — intact.
#[test]
fn formatting_only_updates_are_all_hits() {
    for jobs in JOBS {
        let mut e = engine_at(CHAIN, jobs);
        for (name, fragment) in [
            ("g", "proc g( b )   {\n\n      print b;   }"),
            ("f", "proc f(a) { call g(((a) + (1))); }"),
            ("g", "# a comment\nproc g(b) { // and another\n print b; }"),
        ] {
            let out = e.update(name, fragment).unwrap();
            assert_eq!((out.misses, out.hits), (0, 9), "jobs={jobs}: {fragment:?}");
        }
    }
}

/// Arity changes change the program shape, which is mixed into every
/// cache key: a consistent signature change re-keys the whole program.
#[test]
fn arity_changes_rekey_everything() {
    for jobs in JOBS {
        arity_changes_rekey_everything_at(jobs);
    }
}

fn arity_changes_rekey_everything_at(jobs: usize) {
    // Via update, on a procedure nobody calls (callers would otherwise
    // fail arity resolution):
    let mut e = engine_at(
        "proc main() { call f(1); } \
         proc f(a) { print a; } \
         proc dead(x) { print x; }",
        jobs,
    );
    let out = e
        .update("dead", "proc dead(x, y) { print x + y; }")
        .unwrap();
    assert_eq!(out.hits, 0, "shape change must invalidate every summary");
    assert!(same_results(e.analysis(), &cold_twin(&e)));

    // Via load, changing a called signature and its call sites together:
    let mut e = engine_at(CHAIN, jobs);
    let out = e
        .load(
            "proc main() { call f(1, 2); } \
             proc f(a, c) { call g(a + c); } \
             proc g(b) { print b; }",
        )
        .unwrap();
    assert_eq!(out.hits, 0, "shape change must invalidate every summary");
    assert!(same_results(e.analysis(), &cold_twin(&e)));
}

/// An arity change whose callers were *not* updated is caught by the
/// resolver and rolls back completely.
#[test]
fn inconsistent_arity_updates_roll_back() {
    let mut e = engine(CHAIN);
    let before = e.source();
    let err = e.update("g", "proc g(b, c) { print b + c; }").unwrap_err();
    assert!(matches!(err, ServeError::Invalid(IpcpError::Frontend(_))));
    assert_eq!(e.source(), before, "model must be untouched");
    assert!(same_results(e.analysis(), &cold_twin(&e)));
}

/// Every malformed update is a structured error and a complete rollback:
/// model, analysis, and cache all stay exactly as they were.
#[test]
fn failed_updates_leave_model_and_cache_untouched() {
    let mut e = engine(CHAIN);
    let before_src = e.source();
    let before_cache = e.cache_stats();
    let before_len = e.cache_len();

    let cases: [(&str, &str, &str); 6] = [
        ("f", "proc f(a) { call nosuch(a); }", "frontend"),
        ("f", "proc f(a) {", "frontend"),
        ("f", "proc q(a) { print a; }", "bad_request"),
        ("f", "global z; proc f(a) { print a; }", "bad_request"),
        (
            "f",
            "proc f(a) { print a; } proc extra() { print 1; }",
            "bad_request",
        ),
        ("nosuch", "proc nosuch() { print 0; }", "bad_request"),
    ];
    for (name, fragment, kind) in cases {
        let err = e.update(name, fragment).unwrap_err();
        assert_eq!(err.kind(), kind, "update {name} <- {fragment:?}");
    }
    assert_eq!(e.source(), before_src);
    assert_eq!(e.cache_stats(), before_cache);
    assert_eq!(e.cache_len(), before_len);
    assert_eq!(e.stats().errors, cases.len() as u64);

    // And the engine still serves.
    let report = e.snapshot().constants(Some("g")).unwrap();
    assert_eq!(report.procs.len(), 1);
}

/// The fault-isolation criterion: a request whose analysis panics (panic
/// injection with quarantine disabled) returns a structured `panic`
/// error; the cache and warm state are provably untouched; the daemon
/// keeps serving; and the identical request with containment back on
/// yields correct results.
#[test]
fn panicking_requests_are_contained_with_cache_untouched() {
    let mut e = engine(CHAIN);
    let cold = cold_twin(&e);
    let before_cache = e.cache_stats();
    let before_len = e.cache_len();

    let mut inject = Object::new();
    inject.set("stage", Json::from("jump"));
    inject.set("proc", Json::from(1i64));
    let mut o = Object::new();
    o.set("quarantine", Json::from(false));
    o.set("inject_panic", Json::from(inject));
    let hostile = config_from_overrides(*e.config(), &o).unwrap();

    let err = e.analyze(Some(hostile)).unwrap_err();
    assert_eq!(err.kind(), "panic");
    assert!(matches!(err, ServeError::Panic(_)));
    assert_eq!(e.cache_stats(), before_cache, "cache stats must not move");
    assert_eq!(e.cache_len(), before_len, "no staged entry may land");
    assert_eq!(e.stats().panics_contained, 1);
    assert!(same_results(e.analysis(), &cold), "warm state untouched");

    // Still serving: plain requests and edits keep working.
    let snap = e.snapshot();
    let report = snap.constants(None).unwrap();
    assert_eq!(report.procs.len(), 3);
    assert!(!snap.outcome.degraded);
    e.update("g", "proc g(b) { print b * 2; }").unwrap();
    assert!(same_results(e.analysis(), &cold_twin(&e)));

    // The same injection with quarantine on degrades instead of erroring,
    // exactly as a cold run with that configuration would.
    let mut o = Object::new();
    let mut inject = Object::new();
    inject.set("stage", Json::from("jump"));
    inject.set("proc", Json::from(1i64));
    o.set("inject_panic", Json::from(inject));
    let contained = config_from_overrides(*e.config(), &o).unwrap();
    let out = e.analyze(Some(contained)).unwrap();
    assert!(out.degraded);
    assert_eq!(out.quarantined, vec!["f".to_string()]);
}

/// Panic injection as the *base* configuration: the forced-miss rule
/// keeps warm runs bit-identical to cold ones (the injected unit is
/// never served from cache, so it fires every time), and the poisoned
/// unit is never cached.
#[test]
fn injected_units_are_forced_misses_and_never_cached() {
    for jobs in JOBS {
        let injected = Config::polynomial()
            .with_panic(Stage::Jump, 1)
            .with_jobs(jobs);
        let mut e = ServeEngine::new(CHAIN, &injected).unwrap();
        let cold = Analysis::run(e.mcfg(), &injected);
        assert!(same_results(e.analysis(), &cold));
        assert!(e.analysis().quarantined[1]);

        let warm = e.analyze(None).unwrap();
        assert!(
            same_results(e.analysis(), &cold),
            "warm vs cold under injection, jobs={jobs}"
        );
        assert_eq!(warm.misses, 1, "exactly the injected unit re-runs");
        assert_eq!(warm.quarantined, vec!["f".to_string()]);
    }
}

/// Invalid per-request override combinations surface the builder's
/// `InvalidConfig` as a structured error; unknown keys and ill-typed
/// values are `bad_request`. Nothing exits.
#[test]
fn config_overrides_validate_through_the_builder() {
    let base = Config::polynomial();

    // jobs > 1 without quarantine is the builder's canonical rejection.
    let mut o = Object::new();
    o.set("jobs", Json::from(4i64));
    o.set("quarantine", Json::from(false));
    let err = config_from_overrides(base, &o).unwrap_err();
    assert_eq!(err.kind(), "invalid_config");
    assert!(matches!(
        err,
        ServeError::Invalid(IpcpError::InvalidConfig(_))
    ));

    let mut o = Object::new();
    o.set("bogus_knob", Json::from(true));
    assert_eq!(
        config_from_overrides(base, &o).unwrap_err().kind(),
        "bad_request"
    );

    let mut o = Object::new();
    o.set("jump_fn", Json::from("quadratic"));
    assert_eq!(
        config_from_overrides(base, &o).unwrap_err().kind(),
        "bad_request"
    );

    let mut o = Object::new();
    o.set("deadline_ms", Json::from("soon"));
    assert_eq!(
        config_from_overrides(base, &o).unwrap_err().kind(),
        "bad_request"
    );

    // A valid override set round-trips into a working configuration.
    let mut o = Object::new();
    o.set("jump_fn", Json::from("pass-through"));
    o.set("return_jfs", Json::from(true));
    o.set("max_solver_iterations", Json::from(500i64));
    let cfg = config_from_overrides(base, &o).unwrap();
    assert_eq!(cfg.jump_fn.label(), "pass-through");
    assert_eq!(cfg.limits.max_solver_iterations, 500);
}

/// `constants` and `explain` answer from the warm analysis without
/// recomputation, and reject unknown names as structured errors.
#[test]
fn constants_and_explain_serve_from_the_warm_analysis() {
    let e = engine(CHAIN);
    let misses_before = e.cache_stats().misses;
    let snap = e.snapshot();

    let report = snap.constants(None).unwrap();
    assert_eq!(report.procs.len(), 3);
    let g = report.procs.iter().find(|(n, _)| n == "g").unwrap();
    assert!(
        g.1.contains(&("b".to_string(), 2)),
        "g(b) is entered with b = 2"
    );

    let one = snap.constants(Some("g")).unwrap();
    assert_eq!(one.procs.len(), 1);
    assert_eq!(one.procs[0].1, g.1);

    let rendered = snap.explain("g", Some("b"), 3).unwrap();
    assert!(!rendered.is_empty());
    assert!(rendered.contains('b'));

    assert_eq!(e.cache_stats().misses, misses_before, "no recomputation");
    assert_eq!(
        snap.constants(Some("nope")).unwrap_err().kind(),
        "bad_request"
    );
    assert_eq!(
        snap.explain("nope", None, 1).unwrap_err().kind(),
        "bad_request"
    );
    assert_eq!(
        snap.explain("g", Some("zz"), 1).unwrap_err().kind(),
        "bad_request"
    );
}

/// A longer editing session on a benchmark program: after every accepted
/// edit the warm results equal a cold run, and a formatting-only reload
/// of the same text is fully warm.
#[test]
fn edit_sessions_stay_identical_to_cold_runs() {
    for jobs in JOBS {
        edit_session_at(jobs);
    }
}

fn edit_session_at(jobs: usize) {
    let p = PROGRAMS[0];
    let mut e = engine_at(p.source, jobs);
    let names: Vec<String> = e
        .analysis()
        .cg
        .reachable
        .iter()
        .enumerate()
        .filter(|&(_, &r)| r)
        .map(|(i, _)| e.mcfg().module.procs[i].name.clone())
        .collect();
    assert!(!names.is_empty());

    // Reload the printed source: the same hashes, zero misses.
    let src = e.source();
    let out = e.load(&src).unwrap();
    assert_eq!(out.misses, 0, "{}: reload of identical source", p.name);
    assert!(same_results(e.analysis(), &cold_twin(&e)));

    // An accepted structural edit keeps the identity contract.
    let mut edited = 0;
    for name in &names {
        let proc = e.mcfg().module.proc_named(name).unwrap();
        let params: Vec<String> = (0..proc.arity()).map(|i| format!("p{i}")).collect();
        let fragment = format!(
            "proc {name}({}) {{ print {}; }}",
            params.join(", "),
            if params.is_empty() {
                "7".to_string()
            } else {
                params[0].clone()
            },
        );
        if e.update(name, &fragment).is_ok() {
            assert!(
                same_results(e.analysis(), &cold_twin(&e)),
                "{}: after editing {name}",
                p.name
            );
            edited += 1;
            if edited == 3 {
                break;
            }
        }
    }
    assert!(edited > 0, "{}: no edit was accepted", p.name);
}

/// A 30-link call chain threading two globals, under a two-member
/// recursive component: enough units that a budget or an injected fault
/// trips mid-stage, with procedures on both sides of the trip.
fn fault_program() -> String {
    let mut src = String::from(
        "global g1; global g2; \
         proc main() { g1 = 1; call p0(1, 2); call r0(3); } \
         proc r0(n) { if (n > 0) { call r1(n - 1); } } \
         proc r1(m) { g2 = m; call r0(m); } ",
    );
    for i in 0..29 {
        src.push_str(&format!(
            "proc p{i}(a, b) {{ g2 = a + {i}; call p{}(a + 1, b); }} ",
            i + 1
        ));
    }
    src.push_str("proc p29(a, b) { print a + b + g1 + g2; }");
    src
}

/// Partially warm caches under every way a unit can degrade: an injected
/// governor fault in each charged stage, a return-jump budget that trips
/// mid-stage, and a panic injected into each per-procedure stage. The
/// engine boots cold (caching the clean units), an edit re-keys the
/// upper half of the chain, and a rerun serves everything it can: at
/// every step the results equal a cold run — hits whose recorded charges
/// would cross the trip run live — and the counters and the store bytes
/// are the same at one and two workers.
#[test]
fn partially_warm_caches_match_cold_runs_under_faults_at_every_job_count() {
    let src = fault_program();
    let base = Config::polynomial();
    let mcfg = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(&src).unwrap());
    let p = |name: &str| mcfg.module.proc_named(name).unwrap().id.index();
    // Each procedure classifies 4 return-jump slots (2 formals, 2
    // globals), so this budget trips about halfway up the chain.
    let retjump_budget = base.with_limits(ipcp::AnalysisLimits {
        max_symbolic_steps: 70,
        ..ipcp::AnalysisLimits::default()
    });
    let hostile = [
        ("fault-modref", base.with_fault(Stage::ModRef, 12)),
        ("fault-retjump", base.with_fault(Stage::RetJump, 61)),
        ("fault-jump", base.with_fault(Stage::Jump, 40)),
        ("retjump-budget", retjump_budget),
        ("panic-modref", base.with_panic(Stage::ModRef, p("p20"))),
        ("panic-retjump", base.with_panic(Stage::RetJump, p("p20"))),
        ("panic-jump", base.with_panic(Stage::Jump, p("p3"))),
    ];
    for (label, config) in hostile {
        let mut per_jobs = Vec::new();
        for jobs in JOBS {
            let config = config.with_jobs(jobs);
            let mut e = ServeEngine::new(&src, &config).unwrap();
            assert!(e.last_outcome().degraded, "{label}: nothing degraded");
            let mut outcomes = vec![e.last_outcome().clone()];
            assert!(same_results(e.analysis(), &cold_twin(&e)), "{label}: boot");
            let edited = e
                .update("p15", "proc p15(a, b) { g2 = a + 99; call p16(a + 1, b); }")
                .unwrap();
            assert!(edited.hits > 0 && edited.misses > 0, "{label}: not partial");
            outcomes.push(edited);
            assert!(same_results(e.analysis(), &cold_twin(&e)), "{label}: edit");
            outcomes.push(e.analyze(None).unwrap());
            assert!(same_results(e.analysis(), &cold_twin(&e)), "{label}: rerun");
            let (cfp, sfp) = e.fingerprints();
            let store = ipcp::serve::store::encode(e.cache(), cfp, sfp);
            per_jobs.push((outcomes, e.cache_stats(), store));
        }
        assert!(
            per_jobs.windows(2).all(|w| w[0] == w[1]),
            "{label}: counters or store bytes depend on the worker count"
        );
    }
}

// ---------------------------------------------------------------------
// Persistence: the durable summary store (`ipcc serve --store`).
//
// Contract under test (docs/ROBUSTNESS.md, "Durability contract"):
// a verified restore makes the restart warm and bit-identical to a
// cold analysis; any corruption or drift is a logged cold start with
// a specific reason; an interrupted save never damages the previous
// store file.
// ---------------------------------------------------------------------

use ipcp::serve::store::{decode, encode};
use ipcp::serve::wire::persisted;
use ipcp::serve::{
    CacheKey, CachedSummary, DiscardReason, IoFault, IoInjector, LoadStatus, SummaryCache,
    SummaryStage, SummaryStore,
};
use std::path::PathBuf;

/// `cache`'s entries whose family satisfies `keep`, in FIFO order.
fn entries_where(
    cache: &SummaryCache,
    keep: impl Fn(SummaryStage) -> bool,
) -> Vec<(CacheKey, CachedSummary)> {
    cache
        .iter_fifo()
        .filter(|(key, _)| keep(key.stage))
        .map(|(key, summary)| (key, summary.clone()))
        .collect()
}

/// The form (`Jump`) units a boot of `engine`'s program looks up: the
/// hits of a boot whose cache holds only `engine`'s forms.
fn form_lookups(engine: &ServeEngine) -> u64 {
    let forms = entries_where(engine.cache(), |s| s == SummaryStage::Jump);
    let cache = SummaryCache::restore(forms, SummaryCache::DEFAULT_CAPACITY);
    let boot = ServeEngine::new_with_cache(&engine.source(), engine.config(), cache).unwrap();
    assert_eq!(boot.last_outcome().hits, boot.last_outcome().persisted_hits);
    boot.last_outcome().hits
}

/// A restarted boot served every MOD/REF and return-jump unit from the
/// store and recomputed only the forms: its misses are the `Jump`
/// lookups (`forms`), every hit is persisted, and it made the cold
/// boot's `units` lookups.
fn assert_warm_restart(out: &ipcp::serve::RequestOutcome, units: u64, forms: u64, label: &str) {
    assert_eq!(out.misses, forms, "{label}: only the forms are recomputed");
    assert_eq!(out.hits, out.persisted_hits, "{label}: all hits persisted");
    assert_eq!(out.hits + out.misses, units, "{label}: lookups");
}

fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipcp-serve-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    dir
}

/// Every suite program: snapshot a warm daemon, restart from the file,
/// and the restarted daemon is (a) warm for the persisted families —
/// every MOD/REF and return-jump unit is a persisted hit, and the only
/// misses are the forms it rebuilds — and (b) bit-identical to a cold
/// analysis.
#[test]
fn restart_from_a_store_is_warm_and_bit_identical_across_the_suite() {
    let dir = store_dir("suite");
    for (p, jobs) in PROGRAMS.iter().flat_map(|p| JOBS.map(|j| (p, j))) {
        let path = dir.join(format!("{}-{jobs}.store", p.name));
        let config = Config::polynomial().with_jobs(jobs);
        let before = ServeEngine::new(p.source, &config).unwrap();
        let units = before.last_outcome().misses;
        let (cfp, sfp) = before.fingerprints();
        let mut store = SummaryStore::new(&path);
        let written = store.save(before.cache(), cfp, sfp).expect("save");
        let persisted_entries = entries_where(before.cache(), persisted).len();
        assert_eq!(written, persisted_entries, "{}: record count", p.name);

        let (after, status) = ServeEngine::new_with_store(p.source, &config, &mut store).unwrap();
        assert_eq!(status, LoadStatus::Restored(written), "{}", p.name);
        assert_warm_restart(after.last_outcome(), units, form_lookups(&before), p.name);
        assert_eq!(after.cache_stats().recovered, written as u64, "{}", p.name);
        assert!(
            same_results(after.analysis(), &Analysis::run(after.mcfg(), &config)),
            "{}: restart vs cold",
            p.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An edit session, a snapshot, a restart, and more edits: the store
/// round-trips mid-session state, and the restarted daemon keeps the
/// identity contract through further edits.
#[test]
fn restart_after_an_edit_session_replays_identically() {
    for jobs in JOBS {
        restart_after_an_edit_session_at(jobs);
    }
}

fn restart_after_an_edit_session_at(jobs: usize) {
    let dir = store_dir(&format!("session-{jobs}"));
    let path = dir.join("chain.store");
    let config = Config::polynomial().with_jobs(jobs);
    let mut before = ServeEngine::new(CHAIN, &config).unwrap();
    before.update("g", "proc g(b) { print b + 2; }").unwrap();
    before.update("main", "proc main() { call f(5); }").unwrap();
    let edited_src = before.source();
    let (cfp, sfp) = before.fingerprints();
    let mut store = SummaryStore::new(&path);
    let written = store.save(before.cache(), cfp, sfp).expect("save");
    assert_eq!(written, entries_where(before.cache(), persisted).len());
    let units = ServeEngine::new(&edited_src, &config)
        .unwrap()
        .last_outcome()
        .misses;

    // Restart against the *edited* source — what a daemon supervisor
    // would feed it after writing the program back to disk.
    let (mut after, status) =
        ServeEngine::new_with_store(&edited_src, &config, &mut store).unwrap();
    assert_eq!(status, LoadStatus::Restored(written));
    assert_warm_restart(
        after.last_outcome(),
        units,
        form_lookups(&before),
        "restart",
    );
    assert!(same_results(after.analysis(), before.analysis()));
    assert!(same_results(after.analysis(), &cold_twin(&after)));

    // The session continues: edits on the restarted daemon still match
    // cold runs, and unchanged summaries still come from the store.
    let out = after.update("f", "proc f(a) { call g(a + 9); }").unwrap();
    assert!(out.persisted_hits > 0, "untouched units stay persisted");
    assert!(same_results(after.analysis(), &cold_twin(&after)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store with more entries than the cache bound restores whole: the
/// boot run pins what it looks up before the bound applies, so every
/// MOD/REF and return-jump unit is a persisted hit.
#[test]
fn restore_beyond_the_bound_serves_every_persisted_unit() {
    let config = Config::polynomial();
    for p in PROGRAMS {
        let before = ServeEngine::new(p.source, &config).unwrap();
        let units = before.last_outcome().misses;
        let (cfp, sfp) = before.fingerprints();
        let entries = decode(&encode(before.cache(), cfp, sfp), cfp, sfp).unwrap();
        let restored = entries.len() as u64;
        assert!(restored > 1, "{}: nothing to bound", p.name);
        let cache = SummaryCache::restore(entries, 1);
        let after = ServeEngine::new_with_cache(p.source, &config, cache).unwrap();
        assert_warm_restart(after.last_outcome(), units, form_lookups(&before), p.name);
        assert_eq!(after.cache_stats().recovered, restored, "{}", p.name);
        assert!(
            same_results(after.analysis(), &cold_twin(&after)),
            "{}",
            p.name
        );
    }
}

/// Every corruption and drift shape cold-starts with its specific
/// reason — and the engine it hands back still works.
#[test]
fn corrupted_and_drifted_stores_cold_start_with_a_reason() {
    let dir = store_dir("corrupt");
    let path = dir.join("x.store");
    let config = Config::polynomial();
    let before = ServeEngine::new(CHAIN, &config).unwrap();
    let (cfp, sfp) = before.fingerprints();
    let mut store = SummaryStore::new(&path);
    store.save(before.cache(), cfp, sfp).expect("save");
    let pristine = std::fs::read(&path).expect("read store");

    let reload = |bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("write store");
        let mut s = SummaryStore::new(&path);
        let (engine, status) = ServeEngine::new_with_store(CHAIN, &config, &mut s).unwrap();
        // Whatever happened to the store, the daemon must be sound.
        assert!(same_results(engine.analysis(), &cold_twin(&engine)));
        assert_eq!(
            engine.cache_stats().recovered,
            match &status {
                LoadStatus::Restored(n) => *n as u64,
                _ => 0,
            }
        );
        status
    };

    // Bit flip in the middle: whole-file checksum.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert_eq!(
        reload(&flipped),
        LoadStatus::Discarded(DiscardReason::BadChecksum)
    );

    // Truncation at any point is Truncated or BadChecksum, never a
    // panic or an acceptance; a short prefix is plain Truncated.
    assert_eq!(
        reload(&pristine[..pristine.len() / 3]),
        LoadStatus::Discarded(DiscardReason::BadChecksum)
    );
    assert_eq!(
        reload(&pristine[..5]),
        LoadStatus::Discarded(DiscardReason::Truncated)
    );

    // Not a store at all.
    assert_eq!(
        reload(b"definitely not a summary store"),
        LoadStatus::Discarded(DiscardReason::BadMagic)
    );

    // Version skew: a future format is discarded, not misread.
    let mut skewed = pristine.clone();
    skewed[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        reload(&skewed),
        LoadStatus::Discarded(DiscardReason::VersionSkew { .. })
    ));

    // Config drift: same file, different analysis configuration.
    std::fs::write(&path, &pristine).unwrap();
    let mut s = SummaryStore::new(&path);
    let (_, status) = ServeEngine::new_with_store(CHAIN, &Config::default(), &mut s).unwrap();
    assert_eq!(status, LoadStatus::Discarded(DiscardReason::ConfigDrift));

    // Shape drift: same file, a program whose procedure roster differs.
    // (MUTUAL shares CHAIN's names and arities, so its shape fingerprint
    // coincides — drift needs an actual roster change.)
    let reshaped = "proc main() { call h(1, 2); } proc h(x, y) { print x + y; }";
    let mut s = SummaryStore::new(&path);
    let (_, status) = ServeEngine::new_with_store(reshaped, &config, &mut s).unwrap();
    assert_eq!(status, LoadStatus::Discarded(DiscardReason::ShapeDrift));

    // And a clean reload still restores.
    assert!(matches!(reload(&pristine), LoadStatus::Restored(n) if n > 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kill-during-save drill, deterministic edition: a save interrupted
/// at every reachable fault point — short write, ENOSPC, EIO, rename
/// failure — leaves the previous store byte-identical and restorable,
/// over at least 20 interruption points. The program is a chain long
/// enough that its store spans several write chunks.
#[test]
fn interrupted_saves_never_tear_the_previous_store() {
    let dir = store_dir("torn");
    let path = dir.join("x.store");
    let config = Config::polynomial();
    let mut src = String::from("proc main() { call p0(1); }\n");
    for i in 0..12 {
        let call = if i < 11 {
            format!("call p{}(a + 1);", i + 1)
        } else {
            "print a;".to_owned()
        };
        src.push_str(&format!("proc p{i}(a) {{ {call} }}\n"));
    }
    let engine = ServeEngine::new(&src, &config).unwrap();
    let (cfp, sfp) = engine.fingerprints();
    SummaryStore::new(&path)
        .save(engine.cache(), cfp, sfp)
        .expect("baseline save");
    let baseline = std::fs::read(&path).expect("baseline bytes");

    let mut iterations = 0u32;
    for fault in [
        IoFault::ShortWrite,
        IoFault::Enospc,
        IoFault::Eio,
        IoFault::RenameFail,
    ] {
        for point in 1..=16u64 {
            let injector = IoInjector::new(fault, point);
            let mut store = SummaryStore::with_injector(&path, Some(injector));
            match store.save(engine.cache(), cfp, sfp) {
                Err(_) => {
                    iterations += 1;
                    assert_eq!(
                        std::fs::read(&path).expect("store still readable"),
                        baseline,
                        "{fault:?} at {point} damaged the previous store"
                    );
                    // And a restart still restores the old snapshot.
                    let (_, status) =
                        ServeEngine::new_with_store(&src, &config, &mut SummaryStore::new(&path))
                            .unwrap();
                    assert!(
                        matches!(status, LoadStatus::Restored(n) if n > 0),
                        "{fault:?} at {point}: baseline no longer restores"
                    );
                }
                // Points past the operation count never fire: the save
                // succeeds and rewrites the identical image.
                Ok(_) => assert_eq!(std::fs::read(&path).unwrap(), baseline),
            }
        }
    }
    assert!(
        iterations >= 20,
        "only {iterations} interruptions exercised"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ===== The multi-worker read engine (`--serve-workers`) ==============

use ipcp::serve::{ReadPool, Snapshot};
use ipcp_suite::Rng;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// The two bodies the differential script toggles `f` between. Both
/// keep the chain shape, so every update invalidates `f`'s cone and
/// re-answers must reflect the committed variant.
const F_VARIANTS: [&str; 2] = [
    "proc f(a) { call g(a + 1); }",
    "proc f(a) { call g(a + 2); }",
];

/// One step of the randomized serve session.
#[derive(Clone, Debug)]
enum Step {
    /// A single pooled read (the kind selects the op).
    Read(u64),
    /// Several reads submitted as one pool job against one snapshot —
    /// the library-level shape of a `batch` frame.
    Batch(Vec<u64>),
    /// A writer op: toggle `f` to the given variant under an exclusive
    /// epoch (quiesce → update → publish).
    Update(usize),
}

/// The seeded script both the serial reference and every pooled runner
/// replay. Mixes single reads, batched reads, and updates.
fn script(seed: u64, steps: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    let mut variant = 0;
    (0..steps)
        .map(|_| match rng.below(4) {
            0 => {
                variant ^= 1;
                Step::Update(variant)
            }
            1 => Step::Batch((0..3 + rng.below(4)).map(|_| rng.below(5)).collect()),
            _ => Step::Read(rng.below(5)),
        })
        .collect()
}

/// Renders read op `kind` from a snapshot — the exact strings a pooled
/// reply is built from (reports and errors both serialize).
fn render_read(snap: &Snapshot, kind: u64) -> String {
    let result = match kind {
        0 => snap.constants(None).map(|r| r.to_json().to_string()),
        1 => snap.constants(Some("f")).map(|r| r.to_json().to_string()),
        2 => snap.constants(Some("g")).map(|r| r.to_json().to_string()),
        3 => snap
            .constants(Some("nosuch"))
            .map(|r| r.to_json().to_string()),
        _ => snap.explain("f", None, 3),
    };
    match result {
        Ok(text) => format!("ok:{text}"),
        Err(e) => format!("err:{}:{e}", e.kind()),
    }
}

/// Replays the script through a [`ReadPool`] with `workers` threads.
/// Returns every read's rendered answer (keyed by script position) and
/// the engine's final cache stats.
fn pooled_session(
    workers: usize,
    steps: &[Step],
) -> (BTreeMap<usize, String>, ipcp::serve::CacheStats) {
    let mut engine = engine(CHAIN);
    let mut pool = ReadPool::new(workers, engine.snapshot());
    let answers: Arc<Mutex<BTreeMap<usize, String>>> = Arc::new(Mutex::new(BTreeMap::new()));
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Read(kind) => {
                let kind = *kind;
                let answers = Arc::clone(&answers);
                pool.submit(Box::new(move |snap| {
                    let text = render_read(snap, kind);
                    answers.lock().unwrap().insert(i, text);
                }));
            }
            Step::Batch(kinds) => {
                let kinds = kinds.clone();
                let answers = Arc::clone(&answers);
                pool.submit(Box::new(move |snap| {
                    // All items of a batch answer from one snapshot.
                    let joined: Vec<String> = kinds.iter().map(|&k| render_read(snap, k)).collect();
                    answers.lock().unwrap().insert(i, joined.join("|"));
                }));
            }
            Step::Update(variant) => {
                // The exclusive epoch: no read may be mid-flight while
                // the engine mutates, and the new state publishes to
                // every later read.
                pool.quiesce();
                engine
                    .update("f", F_VARIANTS[*variant])
                    .expect("scripted update applies");
                pool.publish(engine.snapshot());
            }
        }
    }
    pool.quiesce();
    pool.shutdown();
    (
        Arc::try_unwrap(answers)
            .expect("pool drained")
            .into_inner()
            .unwrap(),
        engine.snapshot().cache,
    )
}

/// Replays the script serially through the engine itself — the
/// reference transcript the pooled runs must match byte for byte.
fn serial_session(steps: &[Step]) -> (BTreeMap<usize, String>, ipcp::serve::CacheStats) {
    let mut engine = engine(CHAIN);
    let mut answers = BTreeMap::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Read(kind) => {
                answers.insert(i, render_read(&engine.snapshot(), *kind));
            }
            Step::Batch(kinds) => {
                let snap = engine.snapshot();
                let joined: Vec<String> = kinds.iter().map(|&k| render_read(&snap, k)).collect();
                answers.insert(i, joined.join("|"));
            }
            Step::Update(variant) => {
                engine
                    .update("f", F_VARIANTS[*variant])
                    .expect("scripted update applies");
            }
        }
    }
    (answers, engine.snapshot().cache)
}

/// The concurrency identity contract: a randomized interleaving of
/// batched and unbatched reads with updates produces byte-identical
/// answers at workers = {1, 4}, equal to the serial engine, with cache
/// telemetry that reconciles exactly.
#[test]
fn pooled_reads_are_byte_identical_across_worker_counts() {
    for seed in [7, 1986] {
        let steps = script(seed, 60);
        let n_reads = steps
            .iter()
            .filter(|s| !matches!(s, Step::Update(_)))
            .count();
        let (reference, ref_cache) = serial_session(&steps);
        assert_eq!(reference.len(), n_reads, "reference answered every read");
        for workers in [1, 4] {
            let (answers, cache) = pooled_session(workers, &steps);
            assert_eq!(
                answers, reference,
                "workers={workers} seed={seed}: transcript diverged"
            );
            assert_eq!(
                cache, ref_cache,
                "workers={workers} seed={seed}: cache stats diverged"
            );
            // And the ledger reconciles: every unit the session touched
            // is accounted a hit, a miss, or a bypass — same totals no
            // matter how the reads interleaved.
            assert_eq!(
                cache.hits + cache.misses + cache.bypasses,
                ref_cache.hits + ref_cache.misses + ref_cache.bypasses,
                "workers={workers} seed={seed}: cache ledger does not reconcile"
            );
        }
    }
}

/// A reader that entered before an `update` keeps its whole snapshot —
/// the publish waits for it to leave, the epoch does not advance under
/// it, and it can never observe a half-committed cache or analysis.
#[test]
fn updates_publish_only_after_in_flight_readers_leave() {
    let mut engine = engine(CHAIN);
    let mut pool = ReadPool::new(2, engine.snapshot());
    let cell = pool.cell();
    let epoch0 = cell.epoch();
    let before = render_read(&engine.snapshot(), 2);

    let (entered_tx, entered_rx) = mpsc::channel::<String>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let reader_cell = Arc::clone(&cell);
    let reader = std::thread::spawn(move || {
        reader_cell.read(|snap| {
            entered_tx
                .send(render_read(snap, 2))
                .expect("reader reports in");
            release_rx.recv().expect("reader released");
            // Re-render from the same snapshot after the writer has
            // committed: still the old, fully consistent state.
            render_read(snap, 2)
        })
    });
    let seen_on_entry = entered_rx.recv().expect("reader entered");

    // The writer commits while the reader is parked inside the cell.
    engine
        .update("f", F_VARIANTS[1])
        .expect("update applies mid-read");
    let after = render_read(&engine.snapshot(), 2);
    assert_ne!(before, after, "the update must change f's answer");
    let publish_cell = Arc::clone(&cell);
    let snapshot = engine.snapshot();
    let publisher = std::thread::spawn(move || publish_cell.publish(snapshot));

    // The publish must wait for the reader: the epoch may not advance
    // while it is inside.
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert_eq!(cell.epoch(), epoch0, "epoch advanced under a live reader");
    assert!(!publisher.is_finished(), "publish completed under a reader");

    release_tx.send(()).expect("release the reader");
    let seen_on_exit = reader.join().expect("reader survives");
    publisher.join().expect("publisher survives");
    assert_eq!(cell.epoch(), epoch0 + 1, "publish bumps the epoch once");
    assert_eq!(
        seen_on_entry, before,
        "reader saw something other than the committed pre-update state"
    );
    assert_eq!(
        seen_on_exit, before,
        "reader's snapshot mutated under it mid-update"
    );
    // New readers see the committed update.
    assert_eq!(pool.read(|snap| render_read(snap, 2)), after);
    pool.shutdown();
}
