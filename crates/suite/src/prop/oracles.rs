//! The standard oracle set, registered as named properties.
//!
//! Every oracle treats a source that fails to parse as vacuously passing
//! (frontend errors are values, and [`PanicFree`] separately guarantees
//! the frontend cannot crash) — which also means the shrinker can throw
//! arbitrary fragments at a property and invalid candidates are simply
//! rejected.

use ipcp::quarantine::quiet_catch;
use ipcp::serve::{same_results, ProgramModel, ServeEngine};
use ipcp::{
    analyze, analyze_source, solve_worklist_reference, soundness_violation, Analysis, Governor,
    IpcpError, Lattice,
};
use ipcp_ir::hash::hash_str;
use ipcp_ir::lang::parse_program;
use ipcp_ir::program::ProcId;
use ipcp_ir::{lower_module, parse_and_resolve, resolve_streaming, ModuleCfg};

use crate::mutate;
use crate::rng::Rng;

use super::{PropContext, Property};

fn lowered(src: &str) -> Option<ModuleCfg> {
    parse_and_resolve(src).ok().map(|m| lower_module(&m))
}

/// `panic-free`: the whole pipeline returns values — or `IpcpError`s —
/// for every input, never a panic. Probed with quarantine forced off so
/// a contained fault is still observable.
pub struct PanicFree;

impl Property for PanicFree {
    fn name(&self) -> &'static str {
        "panic-free"
    }

    fn check(&self, src: &str, ctx: &PropContext) -> Result<(), String> {
        let probe = ctx.config.with_quarantine(false);
        quiet_catch(|| {
            let _ = analyze_source(src, &probe);
        })
        .map_err(|msg| format!("pipeline panicked: {msg}"))
    }
}

/// `soundness`: no claimed `CONSTANTS(p)` pair is contradicted by the
/// reference interpreter's entry trace — the 1986 paper's safety
/// invariant, checked on the context's canonical inputs.
pub struct Soundness;

impl Property for Soundness {
    fn name(&self) -> &'static str {
        "soundness"
    }

    fn check(&self, src: &str, ctx: &PropContext) -> Result<(), String> {
        let Some(mcfg) = lowered(src) else {
            return Ok(());
        };
        match soundness_violation(&mcfg, &ctx.config, &ctx.inputs) {
            Some(msg) => Err(msg),
            None => Ok(()),
        }
    }
}

/// `jobs-identity`: the worker count is unobservable — `jobs = 1` and
/// `jobs = N` produce bit-identical vals (including the meet/iteration
/// cost counters), telemetry, and quarantine flags.
pub struct JobsIdentity;

impl Property for JobsIdentity {
    fn name(&self) -> &'static str {
        "jobs-identity"
    }

    fn check(&self, src: &str, ctx: &PropContext) -> Result<(), String> {
        let Some(mcfg) = lowered(src) else {
            return Ok(());
        };
        let seq = Analysis::run(&mcfg, &ctx.config.with_jobs(1));
        for jobs in [2usize, 4] {
            let par = Analysis::run(&mcfg, &ctx.config.with_jobs(jobs));
            if par.vals != seq.vals {
                return Err(format!(
                    "CONSTANTS or solver counters differ at jobs={jobs}"
                ));
            }
            if par.health != seq.health {
                return Err(format!("degradation telemetry differs at jobs={jobs}"));
            }
            if par.quarantined != seq.quarantined {
                return Err(format!("quarantine flags differ at jobs={jobs}"));
            }
        }
        Ok(())
    }
}

/// `wavefront-worklist`: on a clean (undegraded, unquarantined) run the
/// SCC-wavefront solver computes the same fixpoint `vals` as the classic
/// §4.1 FIFO worklist. Degraded runs are vacuous — the two schedules
/// legitimately lose different precision when a budget or deadline trips
/// mid-solve.
pub struct WavefrontWorklist;

impl Property for WavefrontWorklist {
    fn name(&self) -> &'static str {
        "wavefront-worklist"
    }

    fn check(&self, src: &str, ctx: &PropContext) -> Result<(), String> {
        let Some(mcfg) = lowered(src) else {
            return Ok(());
        };
        let analysis = Analysis::run(&mcfg, &ctx.config.with_jobs(1));
        if analysis.health.degraded() || analysis.quarantined.iter().any(|&q| q) {
            return Ok(());
        }
        // The reference runs under a pristine copy of the config: no
        // injected faults or deadline, which would trip at a different
        // point of its (longer) schedule.
        let mut pristine = ctx.config;
        pristine.fault_injection = None;
        pristine.panic_injection = None;
        pristine.deadline = None;
        let entry_globals = if pristine.assume_zero_globals {
            Lattice::Const(0)
        } else {
            Lattice::Bottom
        };
        let reference = quiet_catch(|| {
            let mut gov = Governor::new(&pristine);
            solve_worklist_reference(
                &mcfg,
                &analysis.cg,
                &analysis.layout,
                &analysis.jump_fns,
                entry_globals,
                &mut gov,
            )
        })
        .map_err(|msg| format!("worklist reference panicked: {msg}"))?;
        for pi in 0..mcfg.module.procs.len() {
            let pid = ProcId::from(pi);
            if reference.of(pid) != analysis.vals.of(pid) {
                return Err(format!(
                    "wavefront and worklist disagree on CONSTANTS({})",
                    mcfg.module.proc(pid).name
                ));
            }
        }
        Ok(())
    }
}

/// `exit-consistency`: strict mode errors with `ResourceExhausted`
/// exactly when the lenient run reports degradation, and both modes
/// compute identical vals when strict succeeds — the contract behind
/// `ipcc`'s exit codes 0 and 3.
pub struct ExitConsistency;

impl Property for ExitConsistency {
    fn name(&self) -> &'static str {
        "exit-consistency"
    }

    fn check(&self, src: &str, ctx: &PropContext) -> Result<(), String> {
        let Some(mcfg) = lowered(src) else {
            return Ok(());
        };
        let mut lenient_cfg = ctx.config;
        lenient_cfg.strict = false;
        let mut strict_cfg = ctx.config;
        strict_cfg.strict = true;
        let lenient = Analysis::run(&mcfg, &lenient_cfg);
        match analyze(&mcfg, &strict_cfg) {
            Ok(strict) => {
                if lenient.health.degraded() {
                    Err("strict mode accepted a run the lenient mode reports degraded".into())
                } else if strict.vals != lenient.vals {
                    Err("strict and lenient modes disagree on CONSTANTS".into())
                } else {
                    Ok(())
                }
            }
            Err(IpcpError::ResourceExhausted { .. }) => {
                if lenient.health.degraded() {
                    Ok(())
                } else {
                    Err("strict mode rejected a run the lenient mode reports clean".into())
                }
            }
            Err(e) => Err(format!("strict analyze returned an unexpected error: {e}")),
        }
    }
}

/// `serve-identity`: a warm `ipcc serve` daemon is unobservable. A
/// random edit session — procedure-body replacements derived
/// deterministically from the source, pushed through
/// [`ServeEngine::update`] — must leave the daemon bit-identical (vals,
/// telemetry, quarantine flags, jump-function summaries) to a cold
/// analysis of whatever source the daemon currently holds, after every
/// single edit. Rejected edits (the mutator happily produces arity
/// mismatches) must leave the source unchanged — the rollback contract.
///
/// Wall-clock deadlines are stripped: a deadline legitimately trips at
/// different points warm vs cold, and the identity contract explicitly
/// excludes it (see `docs/SERVE.md`).
pub struct ServeIdentity;

impl ServeIdentity {
    /// Derives one candidate replacement for `proc_src` (a normalized
    /// single-procedure program of the daemon's program `src`). The
    /// mutators keep the procedure name intact; arity perturbation is
    /// deliberately in the mix so rejected updates exercise rollback. A
    /// literal bump mostly leaves return jump functions alone (the edit
    /// early cutoff stops at); a new global write moves the direct MOD
    /// set, and a global passed by reference moves the bindings MOD/REF
    /// propagation reads (the edits the MOD/REF reuse check rejects).
    fn mutate_proc(src: &str, proc_src: &str, rng: &mut Rng) -> String {
        match rng.below(6) {
            0 => mutate::swap_operator(proc_src, rng),
            1 => mutate::splice_statement(proc_src, rng),
            2 => mutate::perturb_call_arity(proc_src, rng),
            3 => mutate::bump_literal(proc_src, rng),
            k => {
                let globals: Vec<&str> = src
                    .lines()
                    .filter_map(|l| l.strip_prefix("global ")?.strip_suffix(';'))
                    .filter(|g| !g.contains('['))
                    .collect();
                match globals.len() {
                    0 => mutate::bump_literal(proc_src, rng),
                    n => {
                        let g = globals[rng.below(n as u64) as usize];
                        match k {
                            4 => mutate::add_global_write(proc_src, g, rng),
                            _ => mutate::bind_global_by_reference(proc_src, g, rng),
                        }
                    }
                }
            }
        }
    }
}

impl Property for ServeIdentity {
    fn name(&self) -> &'static str {
        "serve-identity"
    }

    fn check(&self, src: &str, ctx: &PropContext) -> Result<(), String> {
        if lowered(src).is_none() {
            return Ok(());
        }
        let mut config = ctx.config;
        config.deadline = None;
        let mut engine = match ServeEngine::new(src, &config) {
            Ok(engine) => engine,
            // The daemon's first analysis panicking is a real finding —
            // the same crash `panic-free` hunts, seen from the service.
            Err(e @ ipcp::ServeError::Panic(_)) => {
                return Err(format!("daemon construction failed: {e}"));
            }
            // Builder validation or resolution failures under this
            // config are vacuous, like any unparseable source.
            Err(_) => return Ok(()),
        };
        // The edit session is a pure function of the source text.
        let mut rng = Rng::new(hash_str(src) as u64 ^ 0x5EDE_1D17);
        for step in 0..4u32 {
            let model = ProgramModel::from_source(&engine.source())
                .map_err(|e| format!("daemon source stopped parsing: {e}"))?;
            let names: Vec<String> = model.proc_names().map(String::from).collect();
            if names.is_empty() {
                return Ok(());
            }
            let name = &names[rng.below(names.len() as u64) as usize];
            let Some(proc_src) = model.proc_text(name) else {
                return Err(format!("model lost procedure `{name}`"));
            };
            let before = engine.source();
            let fragment = Self::mutate_proc(&before, proc_src, &mut rng);
            if engine.update(name, &fragment).is_err() && engine.source() != before {
                return Err(format!(
                    "step {step}: rejected update to `{name}` mutated the daemon's source"
                ));
            }
            let Some(cold_mcfg) = lowered(&engine.source()) else {
                return Err(format!(
                    "step {step}: accepted update left unresolvable source"
                ));
            };
            let cold = Analysis::run(&cold_mcfg, engine.config());
            if !same_results(engine.analysis(), &cold) {
                return Err(format!(
                    "step {step}: warm daemon diverged from a cold run after editing `{name}`"
                ));
            }
        }
        Ok(())
    }
}

/// `serve-persist`: the durable summary store is transparent across
/// process death. A random edit session runs against a daemon engine;
/// after every step the cache is snapshotted through the on-disk wire
/// format (`encode`), decoded back as a restart would (`decode` +
/// [`SummaryCache::restore`]), and a fresh engine is booted from it.
/// The restarted engine must be bit-identical (via [`same_results`]) to
/// both the pre-crash warm engine and a cold analysis of the same
/// source — and on a clean configuration its startup run must actually
/// hit the persisted summaries. A random single-byte corruption of the
/// snapshot must decode to a structured discard, never a panic and
/// never an acceptance.
pub struct ServePersist;

impl Property for ServePersist {
    fn name(&self) -> &'static str {
        "serve-persist"
    }

    fn check(&self, src: &str, ctx: &PropContext) -> Result<(), String> {
        use ipcp::serve::store::{decode, encode};
        use ipcp::serve::SummaryCache;

        if lowered(src).is_none() {
            return Ok(());
        }
        let mut config = ctx.config;
        config.deadline = None;
        let mut engine = match ServeEngine::new(src, &config) {
            Ok(engine) => engine,
            Err(e @ ipcp::ServeError::Panic(_)) => {
                return Err(format!("daemon construction failed: {e}"));
            }
            Err(_) => return Ok(()),
        };
        let clean = config.panic_injection.is_none() && config.fault_injection.is_none();
        let mut rng = Rng::new(hash_str(src) as u64 ^ 0x0005_708E);
        for step in 0..3u32 {
            // One random edit; a rejected mutation is fine — the crash
            // below then replays the unedited session.
            let model = ProgramModel::from_source(&engine.source())
                .map_err(|e| format!("daemon source stopped parsing: {e}"))?;
            let names: Vec<String> = model.proc_names().map(String::from).collect();
            if names.is_empty() {
                return Ok(());
            }
            let name = &names[rng.below(names.len() as u64) as usize];
            if let Some(proc_src) = model.proc_text(name) {
                let fragment = ServeIdentity::mutate_proc(&engine.source(), proc_src, &mut rng);
                let _ = engine.update(name, &fragment);
            }

            // Snapshot exactly as `--store` would persist it.
            let (cfp, sfp) = engine.fingerprints();
            let bytes = encode(engine.cache(), cfp, sfp);

            // Corruption half: one flipped byte anywhere must yield a
            // structured discard — no panic, no acceptance.
            if !bytes.is_empty() {
                let pos = rng.below(bytes.len() as u64) as usize;
                let mut bad = bytes.clone();
                bad[pos] ^= 0x20;
                let verdict = quiet_catch(|| decode(&bad, cfp, sfp).is_ok())
                    .map_err(|msg| format!("step {step}: corrupt store decode panicked: {msg}"))?;
                if verdict {
                    return Err(format!(
                        "step {step}: a store with byte {pos} flipped was accepted"
                    ));
                }
            }

            // Crash + restart: decode, restore, boot a fresh engine.
            let entries = decode(&bytes, cfp, sfp)
                .map_err(|reason| format!("step {step}: own snapshot rejected: {reason}"))?;
            let restored_count = entries.len();
            let cache = SummaryCache::restore(entries, SummaryCache::DEFAULT_CAPACITY);
            let restarted = ServeEngine::new_with_cache(&engine.source(), &config, cache)
                .map_err(|e| format!("step {step}: restart failed: {e}"))?;
            if !same_results(restarted.analysis(), engine.analysis()) {
                return Err(format!(
                    "step {step}: restarted daemon diverged from the pre-crash warm engine"
                ));
            }
            let Some(cold_mcfg) = lowered(&engine.source()) else {
                return Err(format!("step {step}: daemon source stopped resolving"));
            };
            let cold = Analysis::run(&cold_mcfg, &config);
            if !same_results(restarted.analysis(), &cold) {
                return Err(format!(
                    "step {step}: restarted daemon diverged from a cold analysis"
                ));
            }
            let out = restarted.last_outcome();
            if out.persisted_hits > out.hits {
                return Err(format!(
                    "step {step}: persisted_hits {} exceeds hits {}",
                    out.persisted_hits, out.hits
                ));
            }
            if clean && !out.bypassed && restored_count > 0 && out.persisted_hits == 0 {
                return Err(format!(
                    "step {step}: {restored_count} restored summaries produced no warm hit"
                ));
            }
        }
        Ok(())
    }
}

/// `stream-identity`: resolving a program one procedure at a time
/// ([`resolve_streaming`] over [`crate::proc_chunks`]) gives what
/// [`parse_and_resolve`] gives for the whole text — the same `to_source()`,
/// the same `vars` and `formals` for every procedure and the same
/// analysis results, or the same diagnostic messages (spans differ:
/// streamed ones are chunk-relative). A chunk that does not parse on its
/// own (the textual split can cut a body whose braces a mutation
/// unbalanced) reports its own parse errors, so there only the rejection
/// itself must agree.
pub struct StreamIdentity;

impl Property for StreamIdentity {
    fn name(&self) -> &'static str {
        "stream-identity"
    }

    fn check(&self, src: &str, ctx: &PropContext) -> Result<(), String> {
        let chunks = crate::proc_chunks(src);
        match (parse_and_resolve(src), resolve_streaming(&chunks[..])) {
            (Ok(resident), Ok(streamed)) => {
                let streamed = streamed.module;
                if resident.to_source() != streamed.to_source() {
                    return Err("streamed module prints differently".to_owned());
                }
                for (r, s) in resident.procs.iter().zip(&streamed.procs) {
                    if r.vars != s.vars || r.formals != s.formals {
                        return Err(format!("symbol table of `{}` differs", r.name));
                    }
                }
                let mut config = ctx.config;
                config.deadline = None;
                let run = |m| Analysis::run(&lower_module(&m), &config);
                if !same_results(&run(resident), &run(streamed)) {
                    return Err("streamed module analyzes differently".to_owned());
                }
                Ok(())
            }
            (Err(resident), Err(streamed)) => {
                if chunks.iter().any(|c| parse_program(c).is_err()) {
                    return Ok(());
                }
                let messages = |d: &ipcp_ir::Diagnostics| {
                    d.iter().map(|d| d.message.clone()).collect::<Vec<_>>()
                };
                if messages(&resident) != messages(&streamed) {
                    return Err(format!(
                        "diagnostics differ: resident [{resident}] vs streamed [{streamed}]"
                    ));
                }
                Ok(())
            }
            (Ok(_), Err(d)) => Err(format!("only the streamed path rejects: {d}")),
            (Err(d), Ok(_)) => Err(format!("only the resident path rejects: {d}")),
        }
    }
}

/// Every registered property, in stable order.
pub fn all_properties() -> Vec<Box<dyn Property>> {
    vec![
        Box::new(PanicFree),
        Box::new(Soundness),
        Box::new(JobsIdentity),
        Box::new(WavefrontWorklist),
        Box::new(ExitConsistency),
        Box::new(ServeIdentity),
        Box::new(ServePersist),
        Box::new(StreamIdentity),
    ]
}

/// Looks a property up by its registry name.
pub fn property(name: &str) -> Option<Box<dyn Property>> {
    all_properties().into_iter().find(|p| p.name() == name)
}

/// The registry names, in stable order (CLI help and flag validation).
pub fn property_names() -> Vec<&'static str> {
    all_properties().iter().map(|p| p.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::PropContext;
    use crate::PROGRAMS;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names = property_names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for name in names {
            assert!(property(name).is_some(), "{name}");
        }
        assert!(property("nonesuch").is_none());
    }

    #[test]
    fn every_property_holds_on_the_benchmark_suite() {
        let ctx = PropContext::default();
        let props = all_properties();
        for p in PROGRAMS {
            let mut ctx = ctx.clone();
            ctx.inputs = p.inputs.to_vec();
            for prop in &props {
                prop.check(p.source, &ctx)
                    .unwrap_or_else(|msg| panic!("{} on {}: {msg}", prop.name(), p.name));
            }
        }
    }

    #[test]
    fn unparseable_sources_are_vacuous_for_every_oracle() {
        let ctx = PropContext::default();
        for prop in all_properties() {
            assert_eq!(prop.check("proc main( {", &ctx), Ok(()), "{}", prop.name());
        }
    }
}
