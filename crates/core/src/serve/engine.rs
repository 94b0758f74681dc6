//! The request engine behind `ipcc serve`: a warm program model, the
//! summary cache, and the per-request robustness envelope.
//!
//! The engine is transport-agnostic — the CLI wraps it in a JSON-lines
//! protocol over stdin/stdout and a Unix socket, while the
//! `serve-identity` fuzz oracle and the tier-1 tests drive it directly.
//! Every mutating entry point follows *snapshot–validate–commit*:
//!
//! 1. build the candidate state (new program model, fresh [`CacheTxn`])
//!    without touching the live state;
//! 2. validate (parse + resolve the whole program; run the analysis
//!    under [`quiet_catch`], so even a panicking request is a value);
//! 3. commit model, analysis, and staged cache entries together — or,
//!    on any failure, drop the candidate whole. A failed or panicked
//!    request provably leaves the model and cache exactly as they were.
//!
//! Per-request configuration overrides are routed through
//! [`Config::rebuild`]'s validating builder; an invalid combination
//! surfaces as [`ServeError::Invalid`] (wrapping
//! [`IpcpError::InvalidConfig`]) — a structured error response, never a
//! process exit.

use crate::config::{Config, Stage};
use crate::health::DegradationEvent;
use crate::quarantine::quiet_catch;
use crate::serve::cache::{
    config_fingerprint, shape_fingerprint, CacheStats, CacheTxn, Live, Memo, SummaryCache,
};
use crate::serve::json::{Json, Object};
use crate::substitute::{self, SubstitutionCounts};
use crate::{Analysis, IpcpError};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::hash::hash_str;
use ipcp_ir::lang::{ast, parse_program, pretty};
use ipcp_ir::program::{resolve_replacement, SlotLayout};
use ipcp_ir::{lower_module_owned, parse_and_resolve};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A structured request failure. Everything a hostile or unlucky request
/// can provoke is one of these — the daemon never exits on a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The toolchain rejected the input: malformed source
    /// ([`IpcpError::Frontend`]) or an invalid configuration override
    /// ([`IpcpError::InvalidConfig`]).
    Invalid(IpcpError),
    /// The request itself is malformed (unknown operation or procedure,
    /// wrong replacement fragment shape, bad parameter types).
    BadRequest(String),
    /// The request's analysis panicked and was contained at the request
    /// boundary; the model and cache were left untouched.
    Panic(String),
}

impl ServeError {
    /// Stable protocol error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Invalid(IpcpError::InvalidConfig(_)) => "invalid_config",
            ServeError::Invalid(IpcpError::Frontend(_)) => "frontend",
            ServeError::Invalid(_) => "error",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Panic(_) => "panic",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Invalid(e) => write!(f, "{e}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Panic(msg) => write!(f, "panic contained: {msg}"),
        }
    }
}

impl From<IpcpError> for ServeError {
    fn from(e: IpcpError) -> ServeError {
        ServeError::Invalid(e)
    }
}

/// The program as the daemon holds it: a normalized global header plus
/// one normalized text per procedure, in declaration order, with each
/// text's content hash. Normalized means parsed and re-rendered through
/// the pretty-printer, so two textually different but structurally
/// identical bodies hash alike and [`ProgramModel::source`] is
/// byte-stable. Procedures are shared between a model and the candidate
/// an edit derives from it, so an edit copies and hashes one text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramModel {
    header: String,
    procs: Vec<Arc<ModelProc>>,
    own: Vec<u128>,
}

/// One procedure of a [`ProgramModel`]: its name and normalized text.
#[derive(Debug, PartialEq, Eq)]
struct ModelProc {
    name: String,
    text: String,
}

impl ProgramModel {
    /// Parses and normalizes FT source into a model.
    ///
    /// # Errors
    ///
    /// [`IpcpError::Frontend`] on a parse error. Resolution (unknown
    /// names, missing `main`, …) is validated by the engine against the
    /// recombined source, so a model by itself may still be unresolvable.
    pub fn from_source(src: &str) -> Result<ProgramModel, IpcpError> {
        let prog = parse_program(src)?;
        let header = pretty::program(&ast::Program {
            globals: prog.globals.clone(),
            procs: Vec::new(),
        });
        let procs: Vec<Arc<ModelProc>> = prog
            .procs
            .iter()
            .map(|p| {
                Arc::new(ModelProc {
                    name: p.name.clone(),
                    text: pretty::proc_decl(p),
                })
            })
            .collect();
        let own = procs.iter().map(|p| hash_str(&p.text)).collect();
        Ok(ProgramModel { header, procs, own })
    }

    /// The whole program, byte-identical to what [`pretty::program`]
    /// renders for the parsed source.
    pub fn source(&self) -> String {
        let mut out = self.header.clone();
        for (i, p) in self.procs.iter().enumerate() {
            if i > 0 || !self.header.is_empty() {
                out.push('\n');
            }
            out.push_str(&p.text);
        }
        out
    }

    /// Content hashes of each procedure's normalized text, in order —
    /// the `own` input to [`ipcp_analysis::summary_keys`].
    pub fn own_hashes(&self) -> &[u128] {
        &self.own
    }

    /// Procedure names in declaration order.
    pub fn proc_names(&self) -> impl Iterator<Item = &str> {
        self.procs.iter().map(|p| p.name.as_str())
    }

    /// The normalized text of procedure `name`, if it exists. A
    /// single-procedure text is itself a parseable FT program, so it can
    /// be mutated and fed back through [`ServeEngine::update`] — the
    /// serve-identity fuzz oracle is built on this.
    pub fn proc_text(&self, name: &str) -> Option<&str> {
        self.procs
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.text.as_str())
    }

    /// A candidate model with procedure `name`'s definition replaced by
    /// `fragment` (a complete `proc name(...) { ... }` definition; the
    /// name must match, the signature may change arity).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `name` is unknown or the fragment
    /// is not exactly one matching procedure definition;
    /// [`ServeError::Invalid`] when the fragment fails to parse.
    pub fn replace_proc(&self, name: &str, fragment: &str) -> Result<ProgramModel, ServeError> {
        let index = self
            .procs
            .iter()
            .position(|p| p.name == name)
            .ok_or_else(|| ServeError::BadRequest(format!("no procedure named `{name}`")))?;
        let prog = parse_program(fragment).map_err(|d| ServeError::Invalid(d.into()))?;
        if !prog.globals.is_empty() {
            return Err(ServeError::BadRequest(
                "replacement fragment must not declare globals (use `load` \
                 to replace the whole program)"
                    .to_string(),
            ));
        }
        let [decl] = prog.procs.as_slice() else {
            return Err(ServeError::BadRequest(format!(
                "replacement fragment must contain exactly one procedure, got {}",
                prog.procs.len()
            )));
        };
        if decl.name != name {
            return Err(ServeError::BadRequest(format!(
                "fragment defines `{}`, expected `{name}` (renames change the \
                 program shape; use `load`)",
                decl.name
            )));
        }
        let text = pretty::proc_decl(decl);
        let mut next = self.clone();
        next.own[index] = hash_str(&text);
        next.procs[index] = Arc::new(ModelProc {
            name: decl.name.clone(),
            text,
        });
        Ok(next)
    }
}

/// What one request did: cache traffic, degradation telemetry, and the
/// quarantine roster. Returned by every analyzing entry point and kept
/// for `stats`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Units served from cache.
    pub hits: u64,
    /// The subset of `hits` served by entries a previous process
    /// persisted (restored via `--store`).
    pub persisted_hits: u64,
    /// Units recomputed.
    pub misses: u64,
    /// The subset of `misses` filled from the live analysis by early
    /// cutoff (see [`CacheStats::carried`]).
    pub carried: u64,
    /// Whether the configuration bypassed the cache.
    pub bypassed: bool,
    /// Whether any stage degraded (the response-level `degraded` marker:
    /// every reported constant is still sound, but some answers were
    /// forced to ⊥ instead of invented).
    pub degraded: bool,
    /// The degradation events, in order.
    pub events: Vec<DegradationEvent>,
    /// Names of quarantined procedures.
    pub quarantined: Vec<String>,
}

impl RequestOutcome {
    fn from_run(txn: &CacheTxn, mcfg: &ModuleCfg, analysis: &Analysis) -> RequestOutcome {
        RequestOutcome {
            hits: txn.hits,
            persisted_hits: txn.persisted_hits,
            misses: txn.misses,
            carried: txn.carried,
            bypassed: txn.bypassed,
            degraded: analysis.health.degraded(),
            events: analysis.health.events.clone(),
            quarantined: analysis
                .quarantined
                .iter()
                .enumerate()
                .filter(|&(_, &q)| q)
                .map(|(i, _)| mcfg.module.procs[i].name.clone())
                .collect(),
        }
    }
}

/// Engine-lifetime request counters, surfaced by `stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Analyzing requests served (analyze / constants / update / load).
    pub requests: u64,
    /// Requests whose analysis degraded (budget, quarantine, deadline).
    pub degraded_requests: u64,
    /// Request-level panics contained (state rolled back).
    pub panics_contained: u64,
    /// Structured errors returned (bad requests, invalid overrides,
    /// frontend rejections).
    pub errors: u64,
    /// Committed `update` operations.
    pub updates: u64,
    /// The subset of `updates` that resolved and lowered only the edited
    /// procedure and spliced it into the live module.
    pub spliced_updates: u64,
    /// Committed `load` operations.
    pub loads: u64,
}

/// Runs one analysis over `(mcfg, own)` under the request envelope:
/// quiet-caught, transaction-staged, reusing `live` where it can. On a
/// panic the transaction is dropped with the cache untouched.
fn run_request(
    cache: &SummaryCache,
    config: &Config,
    mcfg: &ModuleCfg,
    own: &[u128],
    live: Option<Live<'_>>,
) -> Result<(Analysis, CacheTxn), String> {
    let mut txn = CacheTxn::new();
    let analysis = quiet_catch(|| {
        let memo = Memo {
            cache,
            own,
            txn: &mut txn,
        };
        Analysis::run_memoized_on(mcfg, config, memo, live)
    })?;
    Ok((analysis, txn))
}

/// The warm analysis engine. See the module docs for the commit
/// discipline.
#[derive(Debug)]
pub struct ServeEngine {
    base_config: Config,
    model: ProgramModel,
    mcfg: Arc<ModuleCfg>,
    current: Arc<Analysis>,
    /// The substitution counts of `current`, filled by the first read
    /// that needs them or carried over from the previous analysis.
    counts: Arc<OnceLock<SubstitutionCounts>>,
    cache: SummaryCache,
    stats: EngineStats,
    last_outcome: RequestOutcome,
}

impl ServeEngine {
    /// Builds an engine over `src`, validating `config` through the
    /// builder and running the initial (cold) analysis.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] for a bad configuration or source;
    /// [`ServeError::Panic`] if the initial analysis panicked outside
    /// quarantine.
    pub fn new(src: &str, config: &Config) -> Result<ServeEngine, ServeError> {
        ServeEngine::new_with_cache(src, config, SummaryCache::new())
    }

    /// Builds an engine over `src` seeded with a pre-populated cache —
    /// typically one restored from a persisted store
    /// ([`SummaryCache::restore`]). Seeding happens *before* the initial
    /// analysis, so even the startup run is served warm: its outcome's
    /// `persisted_hits` is the restart payoff.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::new`].
    pub fn new_with_cache(
        src: &str,
        config: &Config,
        cache: SummaryCache,
    ) -> Result<ServeEngine, ServeError> {
        let (config, model, mcfg) = ServeEngine::boot(src, config)?;
        ServeEngine::finish(config, model, mcfg, cache)
    }

    /// Builds an engine whose cache is restored from a persisted
    /// [`SummaryStore`]. The store is verified against the fingerprints
    /// of *this* `(src, config)` pair; any mismatch or corruption means
    /// a cold cache, reported in the returned [`LoadStatus`] — never an
    /// error. The initial analysis then runs against whatever was
    /// restored, so a clean restart is warm from its very first request.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::new`] — store problems alone never fail.
    pub fn new_with_store(
        src: &str,
        config: &Config,
        store: &mut crate::serve::store::SummaryStore,
    ) -> Result<(ServeEngine, crate::serve::store::LoadStatus), ServeError> {
        let (config, model, mcfg) = ServeEngine::boot(src, config)?;
        let cfp = config_fingerprint(&config);
        let sfp = shape_fingerprint(&mcfg, &config);
        let (entries, status) = store.load(cfp, sfp);
        let cache = SummaryCache::restore(entries, SummaryCache::DEFAULT_CAPACITY);
        let engine = ServeEngine::finish(config, model, mcfg, cache)?;
        Ok((engine, status))
    }

    /// Validates the configuration and lowers the program — everything
    /// construction needs before a cache exists.
    fn boot(src: &str, config: &Config) -> Result<(Config, ProgramModel, ModuleCfg), ServeError> {
        let config = config.rebuild().build()?;
        let model = ProgramModel::from_source(src)?;
        let module = parse_and_resolve(&model.source()).map_err(IpcpError::from)?;
        let mcfg = lower_module_owned(module);
        Ok((config, model, mcfg))
    }

    /// Runs the initial analysis over a booted program with `cache`
    /// already seeded.
    fn finish(
        config: Config,
        model: ProgramModel,
        mcfg: ModuleCfg,
        cache: SummaryCache,
    ) -> Result<ServeEngine, ServeError> {
        let mut cache = cache;
        let (analysis, txn) = run_request(&cache, &config, &mcfg, model.own_hashes(), None)
            .map_err(ServeError::Panic)?;
        let outcome = RequestOutcome::from_run(&txn, &mcfg, &analysis);
        cache.commit_live(txn);
        Ok(ServeEngine {
            base_config: config,
            model,
            mcfg: Arc::new(mcfg),
            current: Arc::new(analysis),
            counts: Arc::default(),
            cache,
            stats: EngineStats {
                requests: 1,
                degraded_requests: outcome.degraded as u64,
                ..EngineStats::default()
            },
            last_outcome: outcome,
        })
    }

    /// The engine's base configuration.
    pub fn config(&self) -> &Config {
        &self.base_config
    }

    /// The current normalized program source.
    pub fn source(&self) -> String {
        self.model.source()
    }

    /// The current module (for callers that inspect results directly).
    ///
    /// After an `update` that took the splice path, the edited
    /// procedure's spans are relative to its own normalized text, as in a
    /// streamed module; span-keyed output (`--emit substituted`) should
    /// re-parse [`ServeEngine::source`] instead.
    pub fn mcfg(&self) -> &ModuleCfg {
        &self.mcfg
    }

    /// The current analysis under the base configuration.
    pub fn analysis(&self) -> &Analysis {
        &self.current
    }

    /// Lifetime request counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Lifetime cache telemetry.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The live summary cache (read-only) — what a snapshot persists.
    pub fn cache(&self) -> &SummaryCache {
        &self.cache
    }

    /// The `(configuration, shape)` fingerprints of the *current*
    /// program under the base configuration — the pair the summary
    /// store stamps into its header. The shape fingerprint tracks the
    /// current model, so a snapshot taken after `load`ing a different
    /// program only restores against that program.
    pub fn fingerprints(&self) -> (u128, u128) {
        (
            config_fingerprint(&self.base_config),
            shape_fingerprint(&self.mcfg, &self.base_config),
        )
    }

    /// Live cache entry count.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The most recent analyzing request's outcome.
    pub fn last_outcome(&self) -> &RequestOutcome {
        &self.last_outcome
    }

    fn record(&mut self, outcome: &RequestOutcome) {
        self.stats.requests += 1;
        if outcome.degraded {
            self.stats.degraded_requests += 1;
        }
        self.last_outcome = outcome.clone();
    }

    /// Runs `mcfg` (the program `own` hashes) under `config`,
    /// committing the cache transaction (and the request accounting) only
    /// on success. A base-configuration run may reuse the live analysis,
    /// and pins what it looked up.
    fn run_guarded(
        &mut self,
        config: Config,
        mcfg: &ModuleCfg,
        own: &[u128],
    ) -> Result<(Analysis, RequestOutcome), ServeError> {
        let live = (config == self.base_config).then(|| Live {
            mcfg: &self.mcfg,
            analysis: &self.current,
            own: &self.model.own,
        });
        match run_request(&self.cache, &config, mcfg, own, live) {
            Err(msg) => {
                self.stats.panics_contained += 1;
                self.stats.errors += 1;
                Err(ServeError::Panic(msg))
            }
            Ok((analysis, txn)) => {
                let outcome = RequestOutcome::from_run(&txn, mcfg, &analysis);
                if config == self.base_config {
                    self.cache.commit_live(txn);
                } else {
                    self.cache.commit(txn);
                }
                self.record(&outcome);
                Ok((analysis, outcome))
            }
        }
    }

    /// Makes `analysis` of `mcfg` the live one. With `carry`, and when
    /// the previous live analysis's substitution counts were computed, the
    /// new counts are derived from them, recounting only the procedures
    /// whose inputs moved ([`substitute::recount`]); otherwise they stay
    /// lazy and whole-program.
    fn install(&mut self, mcfg: Arc<ModuleCfg>, analysis: Analysis, carry: bool) {
        let counts = OnceLock::new();
        if let Some(prev) = self.counts.get().filter(|_| carry) {
            if let Some(next) =
                substitute::recount(&self.mcfg, &self.current, prev, &mcfg, &analysis)
            {
                let _ = counts.set(next);
            }
        }
        self.mcfg = mcfg;
        self.current = Arc::new(analysis);
        self.counts = Arc::new(counts);
    }

    /// Re-analyzes the current program. With `overrides: None` the base
    /// configuration is used and the engine's warm analysis is replaced;
    /// with an override configuration the run is a one-off (the warm
    /// base-config analysis stays current). Either way the summary cache
    /// is shared.
    pub fn analyze(&mut self, overrides: Option<Config>) -> Result<RequestOutcome, ServeError> {
        let replace = overrides.is_none();
        let config = overrides.unwrap_or(self.base_config);
        let mcfg = Arc::clone(&self.mcfg);
        let own = self.model.own.clone();
        let (analysis, outcome) = self.run_guarded(config, &mcfg, &own)?;
        if replace {
            self.install(mcfg, analysis, true);
        }
        Ok(outcome)
    }

    /// `CONSTANTS(p)` for one procedure (or all) under a one-off
    /// analysis with `config`, plus the substitution total. The run shares
    /// the cache; the warm base-config analysis stays current. Reads of
    /// the warm analysis go through [`ServeEngine::snapshot`].
    pub fn constants(
        &mut self,
        proc: Option<&str>,
        config: Config,
    ) -> Result<(ConstantsReport, RequestOutcome), ServeError> {
        let mcfg = Arc::clone(&self.mcfg);
        let own = self.model.own.clone();
        let (analysis, outcome) = self.run_guarded(config, &mcfg, &own)?;
        let substituted = analysis.substitution_counts(&self.mcfg).total;
        match constants_report(&self.mcfg, &analysis, proc, substituted) {
            Ok(report) => Ok((report, outcome)),
            Err(e) => {
                self.stats.errors += 1;
                Err(e)
            }
        }
    }

    /// Replaces one procedure's definition and incrementally re-analyzes
    /// under the base configuration. Snapshot–validate–commit: any
    /// failure (parse, resolve, panic) leaves model, analysis, and cache
    /// exactly as they were.
    ///
    /// When the new definition provably leaves every other procedure's
    /// resolution unchanged ([`resolve_replacement`]), only it is resolved
    /// and lowered, and spliced into the live module; otherwise the
    /// recombined program is parsed and resolved in full, exactly as
    /// `load` would.
    pub fn update(&mut self, name: &str, fragment: &str) -> Result<RequestOutcome, ServeError> {
        let candidate = match self.model.replace_proc(name, fragment) {
            Ok(c) => c,
            Err(e) => {
                self.stats.errors += 1;
                return Err(e);
            }
        };
        let spliced = candidate.proc_text(name).and_then(|text| self.splice(text));
        let outcome = match spliced {
            Some(mcfg) => {
                let outcome = self.commit(candidate, mcfg, true)?;
                self.stats.spliced_updates += 1;
                outcome
            }
            None => self.commit_model(candidate, true)?,
        };
        self.stats.updates += 1;
        Ok(outcome)
    }

    /// The live module with the procedure `text` defines resolved against
    /// its signature table, lowered and swapped in — or `None` when that
    /// might differ from resolving the whole program.
    fn splice(&self, text: &str) -> Option<ModuleCfg> {
        let proc = resolve_replacement(&self.mcfg.module, text)?;
        Some(self.mcfg.with_proc(proc))
    }

    /// Replaces the whole program (shape changes included) and
    /// re-analyzes. A shape change re-keys every summary, but the cache
    /// itself persists, so a `load` back to a previously seen program is
    /// warm again.
    pub fn load(&mut self, src: &str) -> Result<RequestOutcome, ServeError> {
        let candidate = match ProgramModel::from_source(src) {
            Ok(c) => c,
            Err(e) => {
                self.stats.errors += 1;
                return Err(ServeError::Invalid(e));
            }
        };
        let outcome = self.commit_model(candidate, false)?;
        self.stats.loads += 1;
        Ok(outcome)
    }

    /// Parses, resolves and lowers the whole candidate program, then
    /// commits it (`carry` as for [`ServeEngine::commit`]).
    fn commit_model(
        &mut self,
        candidate: ProgramModel,
        carry: bool,
    ) -> Result<RequestOutcome, ServeError> {
        let module = match parse_and_resolve(&candidate.source()) {
            Ok(m) => m,
            Err(d) => {
                self.stats.errors += 1;
                return Err(ServeError::Invalid(d.into()));
            }
        };
        self.commit(candidate, lower_module_owned(module), carry)
    }

    /// Analyzes `mcfg`, the lowered `candidate`, under the base
    /// configuration and makes both live — or, on a panic, leaves
    /// everything as it was. `carry` derives the new substitution counts
    /// from the previous ones (see [`ServeEngine::install`]).
    fn commit(
        &mut self,
        candidate: ProgramModel,
        mcfg: ModuleCfg,
        carry: bool,
    ) -> Result<RequestOutcome, ServeError> {
        let (analysis, outcome) = self.run_guarded(self.base_config, &mcfg, &candidate.own)?;
        self.model = candidate;
        self.install(Arc::new(mcfg), analysis, carry);
        Ok(outcome)
    }

    /// An immutable [`Snapshot`] of the committed state for the read
    /// workers — O(1) in the program size (`Arc` clones plus the small
    /// telemetry structs). The transport publishes one after every
    /// committed writer operation. Every snapshot of one analysis shares
    /// its substitution counts, so they are computed at most once.
    pub fn snapshot(&self) -> crate::serve::workers::Snapshot {
        crate::serve::workers::Snapshot::new(
            Arc::clone(&self.mcfg),
            Arc::clone(&self.current),
            self.last_outcome.clone(),
            self.stats,
            self.cache.stats(),
            self.cache.len(),
        )
        .sharing_counts(Arc::clone(&self.counts))
    }
}

/// `CONSTANTS(p)` for one procedure (or all) of `mcfg` under `analysis`.
/// The single rendering path behind both [`ServeEngine::constants`] and
/// [`crate::serve::workers::Snapshot::constants`].
pub(crate) fn constants_report(
    mcfg: &ModuleCfg,
    analysis: &Analysis,
    proc: Option<&str>,
    substituted: usize,
) -> Result<ConstantsReport, ServeError> {
    let mut procs = Vec::new();
    for p in &mcfg.module.procs {
        if let Some(want) = proc {
            if p.name != want {
                continue;
            }
        }
        procs.push((p.name.clone(), analysis.constants_of(mcfg, p.id)));
    }
    if proc.is_some() && procs.is_empty() {
        return Err(ServeError::BadRequest(format!(
            "no procedure named `{}`",
            proc.unwrap_or_default()
        )));
    }
    Ok(ConstantsReport { procs, substituted })
}

/// The `ipcc explain` text for `(proc, slot)` of `mcfg` under
/// `analysis`, as [`crate::serve::workers::Snapshot::explain`] renders
/// it. `slot: None` explains every entry slot of the procedure.
pub(crate) fn explain_render(
    mcfg: &ModuleCfg,
    analysis: &Analysis,
    proc: &str,
    slot: Option<&str>,
    depth: usize,
) -> Result<String, ServeError> {
    let Some(p) = mcfg.module.proc_named(proc) else {
        return Err(ServeError::BadRequest(format!(
            "no procedure named `{proc}`"
        )));
    };
    let layout = SlotLayout::new(&mcfg.module);
    let n_slots = layout.n_slots(p.arity());
    let pid = p.id;
    let mut out = String::new();
    let mut matched = false;
    for s in 0..n_slots {
        let name = layout.slot_name(&mcfg.module, pid, s);
        if slot.is_some_and(|want| want != name) {
            continue;
        }
        matched = true;
        out.push_str(&crate::explain::render(mcfg, analysis, pid, s, depth));
    }
    if !matched {
        return Err(ServeError::BadRequest(format!(
            "no entry slot named `{}` in `{proc}`",
            slot.unwrap_or_default()
        )));
    }
    Ok(out)
}

/// `CONSTANTS(p)` pairs per procedure plus the substitution metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstantsReport {
    /// `(procedure name, [(slot name, value)])`, in declaration order.
    pub procs: Vec<(String, Vec<(String, i64)>)>,
    /// Total constant occurrences the substitution metric would replace.
    pub substituted: usize,
}

impl ConstantsReport {
    /// The report as protocol JSON.
    pub fn to_json(&self) -> Json {
        let procs = self
            .procs
            .iter()
            .map(|(name, consts)| {
                let pairs = consts
                    .iter()
                    .map(|(slot, value)| {
                        let mut o = Object::new();
                        o.set("slot", Json::from(slot.as_str()));
                        o.set("value", Json::from(*value));
                        Json::from(o)
                    })
                    .collect::<Vec<_>>();
                let mut o = Object::new();
                o.set("proc", Json::from(name.as_str()));
                o.set("constants", Json::from(pairs));
                Json::from(o)
            })
            .collect::<Vec<_>>();
        let mut o = Object::new();
        o.set("procs", Json::from(procs));
        o.set("substituted", Json::from(self.substituted));
        Json::from(o)
    }
}

/// Builds a request configuration from a JSON override object, routed
/// through [`Config::rebuild`]'s validating builder. Unknown keys and
/// ill-typed values are [`ServeError::BadRequest`]; invalid combinations
/// surface the builder's [`IpcpError::InvalidConfig`] as a structured
/// error.
pub fn config_from_overrides(base: Config, overrides: &Object) -> Result<Config, ServeError> {
    use crate::config::JumpFnKind;
    let mut b = base.rebuild();
    let bad = |key: &str, want: &str| {
        ServeError::BadRequest(format!("config override `{key}` must be {want}"))
    };
    let as_bool = |key: &str, v: &Json| v.as_bool().ok_or_else(|| bad(key, "a boolean"));
    let as_u64 = |key: &str, v: &Json| {
        v.as_i64()
            .filter(|&i| i >= 0)
            .map(|i| i as u64)
            .ok_or_else(|| bad(key, "a non-negative integer"))
    };
    for (key, value) in overrides.iter() {
        b = match key {
            "jump_fn" => {
                let label = value.as_str().ok_or_else(|| bad(key, "a string"))?;
                let kind = JumpFnKind::ALL
                    .into_iter()
                    .find(|k| k.label() == label)
                    .ok_or_else(|| {
                        ServeError::BadRequest(format!(
                            "unknown jump_fn `{label}` (expected one of: literal, \
                             intraprocedural, pass-through, polynomial)"
                        ))
                    })?;
                b.jump_fn_impl(kind)
            }
            "mod" => b.mod_info(as_bool(key, value)?),
            "return_jfs" => b.return_jfs(as_bool(key, value)?),
            "compose_return_jfs" => b.compose_return_jfs(as_bool(key, value)?),
            "zero_globals" => b.zero_globals(as_bool(key, value)?),
            "gated" => b.gated(as_bool(key, value)?),
            "pruned_ssa" => b.pruned_ssa(as_bool(key, value)?),
            "strict" => b.strict(as_bool(key, value)?),
            "quarantine" => b.quarantine(as_bool(key, value)?),
            "jobs" => b.jobs(as_u64(key, value)? as usize),
            "deadline_ms" => b.deadline_ms(as_u64(key, value)?),
            "max_solver_iterations" => b.max_solver_iterations(as_u64(key, value)?),
            "max_poly_terms" => b.max_poly_terms(as_u64(key, value)? as usize),
            "fault" | "inject_panic" => {
                let o = value
                    .as_object()
                    .ok_or_else(|| bad(key, "an object {\"stage\", ...}"))?;
                let stage_label = o
                    .get("stage")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad(key, "an object with a string `stage`"))?;
                let stage = Stage::ALL
                    .into_iter()
                    .find(|s| s.label() == stage_label)
                    .ok_or_else(|| {
                        ServeError::BadRequest(format!("unknown stage `{stage_label}`"))
                    })?;
                if key == "fault" {
                    let at = o
                        .get("at")
                        .map(|v| as_u64("fault.at", v))
                        .transpose()?
                        .unwrap_or(1);
                    b.fault(stage, at)
                } else {
                    let proc = o
                        .get("proc")
                        .map(|v| as_u64("inject_panic.proc", v))
                        .transpose()?
                        .unwrap_or(0);
                    b.inject_panic(stage, proc as usize)
                }
            }
            _ => {
                return Err(ServeError::BadRequest(format!(
                    "unknown config override `{key}`"
                )))
            }
        };
    }
    Ok(b.build()?)
}
