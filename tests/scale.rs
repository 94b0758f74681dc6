//! The whole-program scale tier, end to end: the generator's contract
//! (deterministic, shaped, terminating — unit-tested in
//! `crates/suite/src/scale.rs`) meets the streaming front end and the
//! full analysis here.
//!
//! Three claims are pinned:
//!
//! 1. **Determinism** — a spec is a complete description: same spec,
//!    same bytes, across both the resident and the chunked emission;
//! 2. **Shape** — each named shape actually produces the call-graph
//!    statistics it advertises (depth for chains, fan-out for trees,
//!    skew for power-law), within tolerances loose enough to survive
//!    reseeding;
//! 3. **Streaming ≡ resident** — building a 1000-procedure module
//!    through `resolve_streaming` and through `parse_and_resolve` on
//!    the concatenated text yields the same program (`to_source`) and
//!    the bit-identical analysis (vals, health, quarantine flags).

use ipcp::{Analysis, Config};
use ipcp_ir::{lower_module, parse_and_resolve, resolve_streaming};
use ipcp_suite::{generate_scale, scale_stats, ScaleSource, ScaleSpec, ScaleStats};

fn stats(spec_str: &str) -> ScaleStats {
    let spec = ScaleSpec::parse(spec_str).unwrap();
    let m = parse_and_resolve(&generate_scale(&spec))
        .unwrap_or_else(|e| panic!("{spec_str} failed to resolve: {e}"));
    scale_stats(&lower_module(&m))
}

#[test]
fn generation_is_deterministic_across_processes() {
    // The unit tests pin same-call determinism; this pins the stronger
    // claim the bench tiers rely on: the bytes are a pure function of
    // the spec, stable across independently parsed spec strings.
    let a = generate_scale(&ScaleSpec::parse("procs=500,shape=mixed,seed=42").unwrap());
    let b = generate_scale(&ScaleSpec::parse("seed=42,shape=mixed,procs=500").unwrap());
    assert_eq!(a, b, "spec key order must not matter");
    let c = generate_scale(&ScaleSpec::parse("procs=500,shape=mixed,seed=43").unwrap());
    assert_ne!(a, c, "the seed must matter");
}

#[test]
fn deep_chains_are_deep() {
    let s = stats("procs=600,shape=deep-chains,seed=5");
    assert_eq!(s.reachable, 600, "all procedures reachable");
    assert!(
        s.depth >= 100,
        "deep-chains should condense to a long spine, got depth {}",
        s.depth
    );
    assert!(
        s.max_out_degree <= 6,
        "deep-chains caps fan-out, got {}",
        s.max_out_degree
    );
}

#[test]
fn wide_fanout_is_shallow_and_wide() {
    let s = stats("procs=600,shape=wide-fanout,seed=5");
    assert_eq!(s.reachable, 600);
    assert!(
        s.depth <= 40,
        "a 16-ary call tree over 600 procs is shallow, got depth {}",
        s.depth
    );
    assert!(
        s.max_out_degree >= 16,
        "wide-fanout should produce wide callers, got {}",
        s.max_out_degree
    );
}

#[test]
fn power_law_is_skewed() {
    let s = stats("procs=600,shape=power-law,seed=5");
    assert_eq!(s.reachable, 600);
    assert!(
        s.max_out_degree >= 32,
        "power-law needs heavy hubs, got max degree {}",
        s.max_out_degree
    );
    assert!(
        s.median_out_degree <= 2,
        "power-law keeps the typical caller small, got median {}",
        s.median_out_degree
    );
}

#[test]
fn recursion_shows_up_in_the_condensation() {
    let s = stats("procs=600,shape=mixed,recursion=10,seed=5");
    assert!(
        s.n_multi_sccs >= 10,
        "10% recursion over 600 procs must form cycles, got {} multi-SCCs",
        s.n_multi_sccs
    );
    assert!(s.n_sccs < s.n_procs, "cycles merge nodes");
    let flat = stats("procs=600,shape=mixed,recursion=0,seed=5");
    assert_eq!(flat.n_multi_sccs, 0, "recursion=0 means acyclic");
    assert_eq!(flat.procs_in_cycles, 0);
}

#[test]
fn streaming_and_resident_builds_are_equivalent_at_1k() {
    let spec = ScaleSpec::parse("procs=1k,shape=mixed,recursion=8,seed=101").unwrap();

    // Resident: one string through the ordinary front end.
    let text = generate_scale(&spec);
    let resident = parse_and_resolve(&text).unwrap_or_else(|e| panic!("resident: {e}"));

    // Streaming: the same program, parsed a chunk at a time.
    let source = ScaleSource::new(spec);
    let streamed = resolve_streaming(&source).unwrap_or_else(|e| panic!("streaming: {e}"));
    assert_eq!(streamed.total_bytes as usize, text.len());
    assert!(
        (streamed.peak_chunk_bytes as usize) < text.len() / 100,
        "streaming must never hold more than a sliver of the text: peak chunk {} of {}",
        streamed.peak_chunk_bytes,
        text.len()
    );

    // Same program...
    assert_eq!(
        resident.to_source(),
        streamed.module.to_source(),
        "streaming and resident builds disagree on the program"
    );

    // ...and the bit-identical analysis, at both job counts.
    let r_mcfg = lower_module(&resident);
    let s_mcfg = lower_module(&streamed.module);
    for jobs in [1, 4] {
        let config = Config::default().with_jobs(jobs);
        let r = Analysis::run(&r_mcfg, &config);
        let s = Analysis::run(&s_mcfg, &config);
        assert!(r.vals.same_rows(&s.vals), "vals diverge at jobs={jobs}");
        assert_eq!(
            format!("{:?}", r.health),
            format!("{:?}", s.health),
            "health diverges at jobs={jobs}"
        );
        assert_eq!(
            r.quarantined, s.quarantined,
            "quarantine diverges at jobs={jobs}"
        );
    }
}
