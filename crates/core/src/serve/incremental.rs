//! The cache-aware sequential pipeline driver.
//!
//! [`analyze_incremental`] mirrors the sequential path of
//! [`Analysis::run_once`](crate::Analysis) stage by stage, consulting the
//! [`SummaryCache`] before each per-procedure unit of work and staging
//! freshly computed clean units into a [`CacheTxn`]. The contract — the
//! one the `serve-identity` oracle and the tier-1 differential tests
//! enforce — is **bit-identity**: for any cache state, the returned
//! [`Analysis`] (values, health events in order, quarantine flags) equals
//! what a cold `Analysis::run` on the same module and configuration
//! produces, except for wall-clock-deadline degradations (those depend on
//! real time and are documented as ⊥-honest, marked `degraded`).
//!
//! Three mechanisms carry the identity proof through budgets and fault
//! injection:
//!
//! 1. **Keys capture every input.** A unit's key mixes the configuration
//!    fingerprint, the program shape, and its own-text or callee-cone
//!    Merkle hash (see [`ipcp_analysis::keys`]); two units with equal
//!    keys compute equal results.
//! 2. **Charge replay.** Cached return-jump units recorded the governor
//!    charges their clean run made. A hit replays them into a shard and
//!    absorbs only when [`Governor::can_absorb`] proves no budget or
//!    injected fault would have tripped inside the range — otherwise the
//!    unit runs live, reproducing the cold trip at the exact same offset.
//! 3. **Forced misses.** The unit named by a `--inject-panic`
//!    configuration always runs live, so the injection fires exactly as
//!    cold; and degraded units are never cached, so a quarantined
//!    procedure is recomputed (and re-contained, or healed by an edit)
//!    on every request.
//!
//! Gated configurations (`gated_jump_fns`) bypass the cache: their units
//! read the previous round's fixpoint, which is not part of the key.

use crate::config::{Config, Stage};
use crate::health::Governor;
use crate::jump::{build_forward_jump_fns, ProcSymbolic};
use crate::par::{PhaseTime, Timings};
use crate::pipeline::{
    build_proc_symbolic, commit_modref_unit, commit_symbolic_unit, reuse_unit, reuses_forms,
    widen_modref, KeptForm,
};
use crate::retjump::run_scc_member;
use crate::serve::cache::{CacheKey, CacheTxn, CachedSummary, SummaryCache, SummaryStage};
use crate::solver::ValSets;
use crate::Analysis;
use crate::ReturnJumpFns;
use ipcp_analysis::{build_call_graph, direct_effects, propagate_modref, summary_keys};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::hash::Fnv128;
use ipcp_ir::program::{ProcId, SlotLayout};
use ipcp_ssa::ssa::{CallKills, ModKills, WorstCaseKills};
use ipcp_ssa::symbolic::EvalBudget;
use std::time::Instant;

/// Whether this configuration's per-procedure units are cacheable at
/// all. Gated jump functions iterate: each round's units read the
/// previous round's `VAL` sets, which the content keys do not capture.
pub fn cacheable(config: &Config) -> bool {
    !config.gated_jump_fns
}

/// Digest of the configuration axes that change what a summary unit
/// computes. Budgets are included because step and shape limits are
/// enforced *inside* units (they are not governor charges, so charge
/// replay cannot reproduce them); the injection hooks are *not* —
/// fault trips are reproduced by charge replay and panic injections by
/// forced misses.
///
/// Public because the persisted summary store stamps this fingerprint
/// into its header: a store written under one configuration is discarded
/// (config drift) rather than consulted under another.
pub fn config_fingerprint(config: &Config) -> u128 {
    let mut h = Fnv128::new();
    h.write_str(config.jump_fn.label());
    h.write(&[
        config.use_mod as u8,
        config.use_return_jfs as u8,
        config.compose_return_jfs as u8,
        config.assume_zero_globals as u8,
        config.gated_jump_fns as u8,
        config.pruned_ssa as u8,
    ]);
    let l = &config.limits;
    h.write_u64(l.max_solver_iterations);
    h.write_u64(l.max_symbolic_steps);
    h.write_u64(l.max_poly_terms as u64);
    h.write_u64(u64::from(l.max_poly_degree));
    h.write_u64(l.max_support as u64);
    h.write_u64(l.max_clones as u64);
    h.write_u64(l.max_inline_statements as u64);
    h.finish()
}

/// Digest of the program *shape*: ordered procedure names and arities,
/// ordered global declarations, and the configuration fingerprint.
/// Mixed into every cache key so entries from a differently shaped
/// program (renumbered `ProcId`s, different entry-slot layouts) can
/// never alias.
///
/// Public because the persisted summary store stamps this fingerprint
/// into its header (shape drift ⇒ discard at load).
pub fn shape_fingerprint(mcfg: &ModuleCfg, config: &Config) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(config_fingerprint(config));
    for g in &mcfg.module.globals {
        h.write_str(&g.name);
        h.write_u64(g.array_len.map_or(u64::MAX, |l| l as u64));
    }
    h.write(&[0xA5]);
    for p in &mcfg.module.procs {
        h.write_str(&p.name);
        h.write_u64(p.arity() as u64);
    }
    h.finish()
}

fn mix(shape: u128, content: u128) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(shape);
    h.write_u128(content);
    h.finish()
}

/// Whether the configuration's panic injection names this unit — if so
/// the cache must not serve it, so the injection fires exactly as cold.
fn forced_miss(config: &Config, stage: Stage, pi: usize) -> bool {
    config
        .panic_injection
        .is_some_and(|p| p.stage == stage && p.proc == pi)
}

/// Runs the pipeline over `mcfg` with per-procedure summary caching.
///
/// `own[i]` is the content hash of procedure `i`'s normalized text (the
/// engine derives these from its program model). Lookups read `cache`;
/// fresh clean units stage into `txn` for the engine to commit after the
/// request completes. See the module docs for the identity contract.
pub fn analyze_incremental(
    mcfg: &ModuleCfg,
    config: &Config,
    own: &[u128],
    cache: &SummaryCache,
    txn: &mut CacheTxn,
) -> Analysis {
    if !cacheable(config) {
        txn.bypassed = true;
        return Analysis::run(mcfg, config);
    }
    let t_run = Instant::now();
    let cg = build_call_graph(mcfg);
    let layout = SlotLayout::new(&mcfg.module);
    let keys = summary_keys(&cg, own);
    let shape = shape_fingerprint(mcfg, config);
    let mut gov = Governor::new(config);
    let n_procs = mcfg.module.procs.len();
    let n_globals = mcfg.module.globals.len();
    let mut quarantined = vec![false; n_procs];
    let mut timings = Timings {
        jobs: 1,
        ..Timings::default()
    };

    // Stage 0: MOD/REF direct effects. The per-procedure charge is made
    // by this loop (hit and miss alike), exactly as the cold sequential
    // loop charges before running the unit; direct effects themselves
    // charge nothing, so entries carry no recorded charges.
    let t0 = Instant::now();
    let mut mods = Vec::with_capacity(n_procs);
    let mut refs = Vec::with_capacity(n_procs);
    for (pi, p) in mcfg.module.procs.iter().enumerate() {
        let (m, r) = if !gov.charge(Stage::ModRef) {
            quarantined[pi] = true;
            gov.record_quarantine(
                Stage::ModRef,
                format!(
                    "{}: direct-effects budget exhausted; \
                     summary widened to everything visible",
                    p.name
                ),
            );
            widen_modref(p.arity(), n_globals)
        } else {
            let key = CacheKey {
                stage: SummaryStage::ModRef,
                digest: mix(shape, keys.own[pi]),
            };
            let forced = forced_miss(config, Stage::ModRef, pi);
            match (forced, cache.get_with_origin(key)) {
                (false, Some((CachedSummary::ModRef { mods, refs }, recovered))) => {
                    txn.hits += 1;
                    txn.persisted_hits += u64::from(recovered);
                    (mods.clone(), refs.clone())
                }
                _ => {
                    txn.misses += 1;
                    let pid = ProcId::from(pi);
                    let unit = crate::quarantine::run_unit(config, Stage::ModRef, pi, || {
                        direct_effects(mcfg, pid)
                    });
                    let clean = unit.is_ok();
                    let out = commit_modref_unit(
                        &p.name,
                        unit,
                        p.arity(),
                        n_globals,
                        pi,
                        &mut quarantined,
                        &mut gov,
                    );
                    if clean && !forced {
                        txn.stage(
                            key,
                            CachedSummary::ModRef {
                                mods: out.0.clone(),
                                refs: out.1.clone(),
                            },
                        );
                    }
                    out
                }
            }
        };
        mods.push(m);
        refs.push(r);
    }
    let modref = propagate_modref(mcfg, &cg, mods, refs);
    timings.modref = PhaseTime::sequential(t0.elapsed(), n_procs);

    let mod_kills = ModKills(&modref);
    let kills: &(dyn CallKills + Sync) = if config.use_mod {
        &mod_kills
    } else {
        &WorstCaseKills
    };

    // Stage 1: return jump functions, bottom-up. These units charge the
    // governor (one RetJump charge per slot classification), so each
    // runs against a recording shard: a clean shard whose charges fold
    // cleanly is absorbed — and cached with its charges for replay on
    // later hits — while anything else replays against the master,
    // reproducing the cold trip offsets bit for bit. A live unit keeps
    // its symbolic form for the procedure's Stage-2 miss, as the cold
    // driver does.
    let t1 = Instant::now();
    let keep = reuses_forms(config);
    let mut forms: Vec<Option<KeptForm>> = vec![None; n_procs];
    let ret_jfs = if !config.use_return_jfs {
        ReturnJumpFns {
            fns: vec![None; n_procs],
            compose: false,
        }
    } else {
        let mut table = ReturnJumpFns {
            fns: vec![None; n_procs],
            compose: config.compose_return_jfs,
        };
        for p in cg.bottom_up() {
            let pi = p.index();
            if quarantined[pi] {
                // The short-circuit touches neither cache nor governor.
                let out = run_scc_member(
                    mcfg, &table, &layout, kills, config, p, true, false, &mut gov,
                );
                table.fns[pi] = Some(out.fns);
                continue;
            }
            let key = CacheKey {
                stage: SummaryStage::RetJump,
                digest: mix(shape, keys.cone[pi]),
            };
            let forced = forced_miss(config, Stage::RetJump, pi);
            if !forced {
                if let Some((CachedSummary::RetJump { fns, charges }, recovered)) =
                    cache.get_with_origin(key)
                {
                    let mut shard = gov.shard();
                    shard.add_charges(charges);
                    if gov.can_absorb(&shard) {
                        gov.absorb_shard(shard);
                        txn.hits += 1;
                        txn.persisted_hits += u64::from(recovered);
                        table.fns[pi] = Some(fns.clone());
                        continue;
                    }
                    // Replaying the recorded charges would cross a budget
                    // or fault trip: the cold run would have degraded
                    // inside this unit, so run it live to reproduce that.
                }
            }
            txn.misses += 1;
            let keep = keep && !cg.is_recursive(p);
            let mut shard = gov.shard();
            let mut out = run_scc_member(
                mcfg, &table, &layout, kills, config, p, false, keep, &mut shard,
            );
            if gov.can_absorb(&shard) {
                // A shard that tripped can never satisfy can_absorb (its
                // counter already exceeds the cap or fault point), so
                // this branch is charge-for-charge identical to having
                // run against the master.
                let clean = !out.newly_quarantined && !shard.health.degraded();
                let charges = shard.counters();
                gov.absorb_shard(shard);
                if clean && !forced {
                    txn.stage(
                        key,
                        CachedSummary::RetJump {
                            fns: out.fns.clone(),
                            charges,
                        },
                    );
                }
            } else {
                out = run_scc_member(
                    mcfg, &table, &layout, kills, config, p, false, keep, &mut gov,
                );
            }
            quarantined[pi] = out.newly_quarantined;
            table.fns[pi] = Some(out.fns);
            forms[pi] = out.form;
        }
        table
    };
    timings.retjump = PhaseTime::sequential(t1.elapsed(), cg.bottom_up().count());

    // Stage 2: SSA + symbolic evaluation, then forward jump functions.
    // Symbolic units make no governor charges (step budgets live inside
    // the evaluator), so hits need no replay; only clean units — no
    // panic, no exhausted step slice — are cached. A miss commits the
    // form its live Stage-1 unit kept, when there is one, instead of
    // evaluating again. Forward-jump-function construction always runs
    // live: it is cheap and makes the Jump charges that fault injection
    // addresses.
    let t2 = Instant::now();
    let latch = std::sync::Arc::clone(gov.latch());
    let max_steps = gov.limits().max_symbolic_steps;
    let deadline = config.deadline.map(|d| d.instant());
    let mut symbolics: Vec<Option<ProcSymbolic>> = Vec::new();
    let mut reused = 0;
    for pi in 0..n_procs {
        if !cg.reachable[pi] || quarantined[pi] {
            symbolics.push(None);
            continue;
        }
        let key = CacheKey {
            stage: SummaryStage::Jump,
            digest: mix(shape, keys.cone[pi]),
        };
        let forced = forced_miss(config, Stage::Jump, pi);
        // Taken before the lookup, so a hit frees the kept form at once.
        let form = forms[pi].take();
        if !forced {
            if let Some((CachedSummary::Jump { sym }, recovered)) = cache.get_with_origin(key) {
                txn.hits += 1;
                txn.persisted_hits += u64::from(recovered);
                symbolics.push(Some((**sym).clone()));
                continue;
            }
        }
        txn.misses += 1;
        let unit = match form {
            Some(form) => reuse_unit(config, pi, form, &mut reused),
            None => {
                let budget = EvalBudget {
                    max_steps,
                    deadline,
                    latch: Some(&latch),
                };
                crate::quarantine::run_unit(config, Stage::Jump, pi, || {
                    build_proc_symbolic(mcfg, config, &layout, kills, &ret_jfs, None, pi, &budget)
                })
            }
        };
        if let Ok((ps, steps_exhausted)) = &unit {
            if !steps_exhausted && !forced {
                txn.stage(
                    key,
                    CachedSummary::Jump {
                        sym: Box::new(ps.clone()),
                    },
                );
            }
        }
        commit_symbolic_unit(mcfg, pi, unit, &mut symbolics, &mut quarantined, &mut gov);
    }
    let jump_fns = build_forward_jump_fns(
        mcfg,
        &cg,
        &layout,
        config,
        &symbolics,
        &mut quarantined,
        &mut gov,
    );
    timings.jump = PhaseTime::sequential(t2.elapsed(), n_procs);
    timings.jump.reused = reused;
    Analysis::finish(
        mcfg,
        config,
        cg,
        modref,
        layout,
        ret_jfs,
        symbolics,
        jump_fns,
        gov,
        quarantined,
        timings,
        t_run,
    )
}

/// The identity predicate the differential tests assert: everything an
/// analysis computes except wall-clock observations (timings) and the
/// solver's internal work counters.
pub fn same_results(a: &Analysis, b: &Analysis) -> bool {
    let vals = |v: &ValSets| v.vals.clone();
    vals(&a.vals) == vals(&b.vals)
        && a.health == b.health
        && a.quarantined == b.quarantined
        && a.ret_jfs.fns == b.ret_jfs.fns
        && a.jump_fns.sites == b.jump_fns.sites
        && a.modref == b.modref
}
