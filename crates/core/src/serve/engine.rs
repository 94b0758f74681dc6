//! The request engine behind `ipcc serve`: the warm resolved program, the
//! summary cache, and the per-request robustness envelope.
//!
//! The engine is transport-agnostic — the CLI wraps it in a JSON-lines
//! protocol over stdin/stdout and a Unix socket, while the
//! `serve-identity` fuzz oracle and the tier-1 tests drive it directly.
//! Every mutating entry point follows *snapshot–validate–commit*:
//!
//! 1. build the candidate state (new module and own hashes, fresh
//!    [`CacheTxn`]) without touching the live state;
//! 2. validate (resolve the edited procedure against the live module, or
//!    the whole program; run the analysis under [`quiet_catch`], so even
//!    a panicking request is a value);
//! 3. commit module, analysis, and staged cache entries together — or,
//!    on any failure, drop the candidate whole. A failed or panicked
//!    request provably leaves the module and cache exactly as they were.
//!
//! Per-request configuration overrides are routed through
//! [`Config::rebuild`]'s validating builder; an invalid combination
//! surfaces as [`ServeError::Invalid`] (wrapping
//! [`IpcpError::InvalidConfig`]) — a structured error response, never a
//! process exit.

use crate::config::{Config, Deadline, Stage};
use crate::health::{DegradationEvent, DegradationKind};
use crate::quarantine::quiet_catch;
use crate::serve::cache::{
    config_fingerprint, same_config, shape_fingerprint, CacheStats, CacheTxn, Live, Memo, RunPath,
    SummaryCache,
};
use crate::serve::json::{Json, Object};
use crate::substitute::{self, SubstitutionCounts};
use crate::{Analysis, IpcpError};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::lang::{scan_items, Item};
use ipcp_ir::program::{resolve_replacement, Module, Proc, ProcId, SlotLayout};
use ipcp_ir::{lower_module_owned, parse_and_resolve, Table};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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
    /// boundary; the program and cache were left untouched.
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

/// The own hash of every procedure of `module`, in order: the digest of
/// its printed text ([`Module::proc_hash`]), the `own` input to
/// [`ipcp_analysis::summary_keys`].
pub fn own_hashes(module: &Module) -> Table<u128> {
    module.procs.iter().map(|p| module.proc_hash(p)).collect()
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
    /// Which path the run took: the live path (the cone walk), or the
    /// plain memoized path named by the precondition that failed.
    pub path: RunPath,
    /// The SCC units the `VAL` solve ran — the edited cone's size, for a
    /// run that re-solved only the SCCs whose inputs moved.
    pub solved_units: u64,
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
        // Every quarantine records an event, so a run without one has an
        // empty roster and its flags need no scan.
        let quarantines = analysis.health.count_kind(DegradationKind::Quarantined);
        let quarantined = match quarantines {
            0 => Vec::new(),
            _ => analysis
                .quarantined
                .iter()
                .enumerate()
                .filter(|&(_, &q)| q)
                .map(|(i, _)| mcfg.module.procs[i].name.clone())
                .collect(),
        };
        RequestOutcome {
            hits: txn.hits,
            persisted_hits: txn.persisted_hits,
            misses: txn.misses,
            carried: txn.carried,
            bypassed: txn.bypassed,
            path: txn.path,
            solved_units: analysis.timings.solve.units as u64,
            degraded: analysis.health.degraded(),
            events: analysis.health.events.clone(),
            quarantined,
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
    /// SCC units the `VAL` solves of every analyzing request ran.
    pub solved_units: u64,
    /// Analyzing requests per path they took, in [`RunPath::ALL`] order:
    /// the live path, then the plain path by the precondition that
    /// failed.
    pub runs: [u64; RunPath::ALL.len()],
}

impl EngineStats {
    /// Analyzing requests that took `path`.
    pub fn runs_on(&self, path: RunPath) -> u64 {
        self.runs[path as usize]
    }
}

/// Runs one analysis over `(mcfg, own)` under the request envelope:
/// quiet-caught, transaction-staged, reusing `live` where it can. On a
/// panic the transaction is dropped with the cache untouched.
fn run_request(
    cache: &SummaryCache,
    config: &Config,
    mcfg: &ModuleCfg,
    own: &Table<u128>,
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
    mcfg: Arc<ModuleCfg>,
    /// [`own_hashes`] of `mcfg`'s module.
    own: Table<u128>,
    current: Arc<Analysis>,
    /// The substitution counts of `current`, filled by the first read
    /// that needs them or carried over from the previous analysis.
    counts: Arc<OnceLock<SubstitutionCounts>>,
    cache: SummaryCache,
    stats: EngineStats,
    last_outcome: RequestOutcome,
    /// The deadline of each analyzing request that sets none.
    request_deadline: Option<Duration>,
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
        let (config, mcfg, own) = ServeEngine::boot(src, config)?;
        ServeEngine::finish(config, mcfg, own, cache)
    }

    /// Builds an engine whose cache is restored from a persisted
    /// [`SummaryStore`]. The store is verified against the fingerprints
    /// of *this* `(src, config)` pair; any mismatch or corruption means
    /// a cold cache, reported in the returned [`LoadStatus`] — never an
    /// error. The initial analysis then runs against whatever was
    /// restored: a clean restart serves every MOD/REF and return-jump
    /// unit from the store and rebuilds only the symbolic forms.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::new`] — store problems alone never fail.
    pub fn new_with_store(
        src: &str,
        config: &Config,
        store: &mut crate::serve::store::SummaryStore,
    ) -> Result<(ServeEngine, crate::serve::store::LoadStatus), ServeError> {
        let (config, mcfg, own) = ServeEngine::boot(src, config)?;
        let cfp = config_fingerprint(&config);
        let sfp = shape_fingerprint(&mcfg, &config);
        let (entries, status) = store.load(cfp, sfp);
        let cache = SummaryCache::restore(entries, SummaryCache::DEFAULT_CAPACITY);
        let engine = ServeEngine::finish(config, mcfg, own, cache)?;
        Ok((engine, status))
    }

    /// Validates the configuration, then resolves, lowers and hashes the
    /// program — everything construction needs before a cache exists.
    fn boot(src: &str, config: &Config) -> Result<(Config, ModuleCfg, Table<u128>), ServeError> {
        let config = config.rebuild().build()?;
        let mcfg = lower_module_owned(parse_and_resolve(src).map_err(IpcpError::from)?);
        let own = own_hashes(&mcfg.module);
        Ok((config, mcfg, own))
    }

    /// Runs the initial analysis over a booted program with `cache`
    /// already seeded.
    fn finish(
        config: Config,
        mcfg: ModuleCfg,
        own: Table<u128>,
        cache: SummaryCache,
    ) -> Result<ServeEngine, ServeError> {
        let mut cache = cache;
        let (analysis, txn) =
            run_request(&cache, &config, &mcfg, &own, None).map_err(ServeError::Panic)?;
        let outcome = RequestOutcome::from_run(&txn, &mcfg, &analysis);
        cache.commit_live(txn);
        Ok(ServeEngine {
            base_config: config,
            mcfg: Arc::new(mcfg),
            own,
            current: Arc::new(analysis),
            counts: Arc::default(),
            cache,
            stats: EngineStats {
                requests: 1,
                degraded_requests: outcome.degraded as u64,
                solved_units: outcome.solved_units,
                runs: RunPath::ALL.map(|path| u64::from(path == outcome.path)),
                ..EngineStats::default()
            },
            last_outcome: outcome,
            request_deadline: None,
        })
    }

    /// Bounds each later analyzing request whose configuration sets no
    /// deadline by `bound`, counted from its start (`None`: no bound).
    pub fn set_request_deadline(&mut self, bound: Option<Duration>) {
        self.request_deadline = bound;
    }

    /// The engine's base configuration.
    pub fn config(&self) -> &Config {
        &self.base_config
    }

    /// The current program as FT source: the live module printed
    /// ([`Module::to_source`]).
    pub fn source(&self) -> String {
        self.mcfg.module.to_source()
    }

    /// Procedure names in declaration order.
    pub fn proc_names(&self) -> impl Iterator<Item = &str> {
        self.mcfg.module.procs.iter().map(|p| p.name.as_str())
    }

    /// The current text of procedure `name`, printed from the live module
    /// ([`Module::proc_source`]). It parses on its own, so it can be
    /// edited and fed back through [`ServeEngine::update`] — the
    /// serve-identity fuzz oracle is built on this.
    pub fn proc_text(&self, name: &str) -> Option<String> {
        let module = &self.mcfg.module;
        module.proc_named(name).map(|p| module.proc_source(p))
    }

    /// Each procedure's own hash, in order ([`own_hashes`] of the live
    /// module).
    pub fn own_hashes(&self) -> &Table<u128> {
        &self.own
    }

    /// The current module (for callers that inspect results directly).
    ///
    /// Spans are relative to the text each procedure was resolved from:
    /// the source as booted or loaded, or the fragment of a spliced
    /// `update`, as in a streamed module. Span-keyed output (`--emit
    /// substituted`) should re-parse [`ServeEngine::source`] instead.
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
        self.stats.runs[outcome.path as usize] += 1;
        self.stats.solved_units += outcome.solved_units;
        if outcome.degraded {
            self.stats.degraded_requests += 1;
        }
        self.last_outcome = outcome.clone();
    }

    /// Runs `mcfg` (the program `own` hashes; `None` for the live one's,
    /// borrowed) under `config`, committing the cache transaction (and the
    /// request accounting) only on success, under the request deadline
    /// unless `config` sets one. A base-configuration run, whatever its
    /// deadline, may reuse the live analysis, and pins what it looked up.
    fn run_guarded(
        &mut self,
        mut config: Config,
        mcfg: &ModuleCfg,
        own: Option<&Table<u128>>,
    ) -> Result<(Analysis, RequestOutcome), ServeError> {
        if config.deadline.is_none() {
            config.deadline = self.request_deadline.map(Deadline::after);
        }
        let own = own.unwrap_or(&self.own);
        // Any configuration but the live analysis's fails the reuse
        // check, which names it.
        let live = Some(Live {
            mcfg: &self.mcfg,
            analysis: &self.current,
            own: &self.own,
        });
        match run_request(&self.cache, &config, mcfg, own, live) {
            Err(msg) => {
                self.stats.panics_contained += 1;
                self.stats.errors += 1;
                Err(ServeError::Panic(msg))
            }
            Ok((analysis, txn)) => {
                let outcome = RequestOutcome::from_run(&txn, mcfg, &analysis);
                if same_config(&config, &self.base_config) {
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
        let (analysis, outcome) = self.run_guarded(config, &mcfg, None)?;
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
        let (analysis, outcome) = self.run_guarded(config, &mcfg, None)?;
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
    /// failure (parse, resolve, panic) leaves module, analysis, and cache
    /// exactly as they were.
    ///
    /// When the new definition provably leaves every other procedure's
    /// resolution unchanged ([`resolve_replacement`]), only it is resolved,
    /// lowered and hashed, and spliced into the live module; otherwise the
    /// live program is printed with `fragment` in its place and resolved
    /// in full, as `load` would, and every other procedure keeps its own
    /// hash (a procedure's printed text depends on its own body only).
    pub fn update(&mut self, name: &str, fragment: &str) -> Result<RequestOutcome, ServeError> {
        let (id, spliced) = match self.replacement(name, fragment) {
            Ok(found) => found,
            Err(e) => {
                self.stats.errors += 1;
                return Err(e);
            }
        };
        let mut own = self.own.clone();
        let outcome = match spliced {
            Some(proc) => {
                own.set(id.index(), self.mcfg.module.proc_hash(&proc));
                let outcome = self.commit(self.mcfg.with_proc(proc), own, true)?;
                self.stats.spliced_updates += 1;
                outcome
            }
            None => {
                let src = self.mcfg.module.to_source_replacing(id, fragment);
                let module = match parse_and_resolve(&src) {
                    Ok(m) => m,
                    Err(d) => {
                        self.stats.errors += 1;
                        return Err(ServeError::Invalid(d.into()));
                    }
                };
                own.set(id.index(), module.proc_hash(module.proc(id)));
                self.commit(lower_module_owned(module), own, true)?
            }
        };
        self.stats.updates += 1;
        Ok(outcome)
    }

    /// Checks that `fragment` is one definition of procedure `name` and
    /// resolves it against the live module: the procedure's id, and the
    /// resolved procedure when it can be spliced in.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `name` is unknown or the fragment
    /// is not exactly one definition of it; [`ServeError::Invalid`] when
    /// the fragment does not parse, which is checked first.
    fn replacement(
        &self,
        name: &str,
        fragment: &str,
    ) -> Result<(ProcId, Option<Proc>), ServeError> {
        let module = &self.mcfg.module;
        let Some(old) = module.proc_named(name) else {
            return Err(ServeError::BadRequest(format!(
                "no procedure named `{name}`"
            )));
        };
        let spliced =
            resolve_replacement(module, fragment).map_err(|d| ServeError::Invalid(d.into()))?;
        // A fragment that parses also scans.
        let items = scan_items(fragment).unwrap_or_default();
        let msg = match items[..] {
            _ if items.iter().any(|item| matches!(item, Item::Global { .. })) => {
                "replacement fragment must not declare globals (use `load` to replace the \
                 whole program)"
                    .to_string()
            }
            [Item::Proc { name: defined, .. }] if defined != name => format!(
                "fragment defines `{defined}`, expected `{name}` (renames change the program \
                 shape; use `load`)"
            ),
            [Item::Proc { .. }] => return Ok((old.id, spliced)),
            _ => format!(
                "replacement fragment must contain exactly one procedure, got {}",
                items.len()
            ),
        };
        Err(ServeError::BadRequest(msg))
    }

    /// Replaces the whole program (shape changes included) and
    /// re-analyzes. A shape change re-keys every summary, but the cache
    /// itself persists, so a `load` back to a previously seen program is
    /// warm again.
    pub fn load(&mut self, src: &str) -> Result<RequestOutcome, ServeError> {
        let module = match parse_and_resolve(src) {
            Ok(m) => m,
            Err(d) => {
                self.stats.errors += 1;
                return Err(ServeError::Invalid(d.into()));
            }
        };
        let own = own_hashes(&module);
        let outcome = self.commit(lower_module_owned(module), own, false)?;
        self.stats.loads += 1;
        Ok(outcome)
    }

    /// Analyzes `mcfg`, whose procedures `own` hashes, under the base
    /// configuration and makes both live — or, on a panic, leaves
    /// everything as it was. `carry` derives the new substitution counts
    /// from the previous ones (see [`ServeEngine::install`]).
    fn commit(
        &mut self,
        mcfg: ModuleCfg,
        own: Table<u128>,
        carry: bool,
    ) -> Result<RequestOutcome, ServeError> {
        let (analysis, outcome) = self.run_guarded(self.base_config, &mcfg, Some(&own))?;
        self.own = own;
        self.install(Arc::new(mcfg), analysis, carry);
        Ok(outcome)
    }

    /// Where every per-procedure table of the live state keeps its chunks
    /// — the module, the own hashes, the analysis, its memo log and its
    /// keys — and the procedures the last run visited, when it visited
    /// only its cone. A structural probe for tests of the copy-on-write
    /// sharing: a probe keeps the state it describes alive, so two probes
    /// held together share a chunk iff their addresses agree.
    #[cfg(test)]
    fn chunk_probe(&self) -> ChunkProbe {
        let (mcfg, analysis) = (&self.mcfg, &self.current);
        let mut tables = vec![
            ("module.procs", false, mcfg.module.procs.chunk_addrs()),
            ("module.cfgs", false, mcfg.cfgs.chunk_addrs()),
            ("own", false, self.own.chunk_addrs()),
            (
                "analysis.symbolics",
                false,
                analysis.symbolics.chunk_addrs(),
            ),
            (
                "analysis.quarantined",
                false,
                analysis.quarantined.chunk_addrs(),
            ),
            (
                "analysis.ret_jfs",
                false,
                analysis.ret_jfs.fns.chunk_addrs(),
            ),
            (
                "analysis.jump_fns",
                false,
                analysis.jump_fns.sites.chunk_addrs(),
            ),
        ];
        tables.extend(
            analysis
                .vals
                .chunk_tables()
                .map(|(name, chunks)| (name, false, chunks)),
        );
        tables.extend(analysis.memo_log.iter().flat_map(|log| log.chunk_tables()));
        ChunkProbe {
            tables,
            visited: analysis.touched.clone(),
            _keep: (Arc::clone(mcfg), Arc::clone(analysis), self.own.clone()),
        }
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

/// The chunk layout [`ServeEngine::chunk_probe`] reports.
#[cfg(test)]
struct ChunkProbe {
    /// Per table: its name, whether it is indexed by SCC rather than by
    /// procedure, and its chunk addresses.
    tables: Vec<(&'static str, bool, Vec<usize>)>,
    /// The procedures the last run visited, when it visited only its cone.
    visited: Option<Vec<usize>>,
    _keep: (Arc<ModuleCfg>, Arc<Analysis>, Table<u128>),
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
    let selected: Vec<&ipcp_ir::Proc> = match proc {
        // One procedure: a lookup in the module's name table.
        Some(want) => mcfg.module.proc_named(want).into_iter().collect(),
        None => mcfg.module.procs.iter().map(|p| &**p).collect(),
    };
    let procs = selected
        .iter()
        .map(|p| (p.name.clone(), analysis.constants_of(mcfg, p.id)))
        .collect();
    if proc.is_some() && selected.is_empty() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::table::CHUNK;
    use ipcp_suite::{generate_scale, ScaleSpec};
    use std::collections::HashSet;

    /// `name`'s current text with the literal of its `v0 = <lit>;`
    /// prologue set to `1000 + round`, a value no generated prologue and
    /// no earlier round holds.
    fn bump(engine: &ServeEngine, name: &str, round: usize) -> String {
        let mut body = engine.proc_text(name).unwrap();
        let at = body.find("v0 = ").expect("generated prologue") + "v0 = ".len();
        let len = body[at..].find(';').unwrap();
        body.replace_range(at..at + len, &(1000 + round).to_string());
        body
    }

    /// A literal bump takes the live path and visits only its cone: every
    /// table of the new module, own hashes, analysis, memo log and keys
    /// shares every chunk with the live one except the chunks that hold a
    /// procedure the run visited (an edited, re-keyed or dirty one) — or,
    /// for a table indexed by SCC, such a procedure's SCC.
    #[test]
    fn a_literal_bump_shares_every_chunk_outside_its_cone() {
        let spec = ScaleSpec::parse("procs=1k,shape=mixed,recursion=8,seed=101").unwrap();
        let src = generate_scale(&spec);
        for jobs in [1, 2] {
            let mut engine = ServeEngine::new(&src, &Config::default().with_jobs(jobs)).unwrap();
            let n = engine.mcfg().module.procs.len();
            for round in 1..=8 {
                let name = format!("p{}", 1 + (round * 97) % (n - 1));
                let what = format!("jobs {jobs}, round {round}: bump of `{name}`");
                let body = bump(&engine, &name, round);
                let before = engine.chunk_probe();
                let out = engine.update(&name, &body).unwrap();
                let after = engine.chunk_probe();
                assert_eq!(out.path, RunPath::Live, "{what}");
                let visited = after
                    .visited
                    .clone()
                    .expect("the bump visited only its cone");
                assert!(visited.len() < n / 4, "{what}: {} visited", visited.len());
                let scc_of = &engine.analysis().cg.scc_of;
                let chunks = |units: &mut dyn Iterator<Item = usize>| -> HashSet<usize> {
                    units.map(|u| u / CHUNK).collect()
                };
                let proc_chunks = chunks(&mut visited.iter().copied());
                let scc_chunks = chunks(&mut visited.iter().map(|&p| scc_of[p]));
                assert_eq!(before.tables.len(), after.tables.len(), "{what}");
                let mut shared = 0;
                for ((table, per_scc, was), (_, _, now)) in before.tables.iter().zip(&after.tables)
                {
                    assert_eq!(was.len(), now.len(), "{what}: {table}");
                    let allowed = if *per_scc { &scc_chunks } else { &proc_chunks };
                    for (c, (a, b)) in was.iter().zip(now).enumerate() {
                        if a == b {
                            shared += 1;
                        } else {
                            assert!(
                                allowed.contains(&c),
                                "{what}: {table} copied chunk {c}, which holds nothing visited"
                            );
                        }
                    }
                }
                assert!(shared > 0, "{what}: nothing shared");
            }
        }
    }
}
