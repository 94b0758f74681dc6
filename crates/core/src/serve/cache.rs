//! The content-hash-keyed summary cache, its transaction overlay, and the
//! memo hook the pipeline consults.
//!
//! The daemon caches three kinds of per-procedure summaries across
//! requests, keyed by the [`summary keys`](ipcp_analysis::keys) derived
//! from normalized procedure text, the program shape, and the analysis
//! configuration:
//!
//! * MOD/REF direct effects (keyed by the procedure's *own* hash — the
//!   unit reads nothing else);
//! * return jump functions (keyed by the transitive-callee Merkle cone,
//!   with the governor charges the unit made recorded alongside, so a
//!   hit replays them — see [`crate::Governor::add_charges`]);
//! * the SSA + symbolic form feeding forward jump functions (cone-keyed;
//!   the unit makes no governor charges). The entry holds the very
//!   `Arc<ProcSymbolic>` the analysis that computed it committed, and a
//!   hit hands the same `Arc` to the next analysis: a form is stored
//!   once, however many analyses and cache entries refer to it.
//!
//! The cache is not a second pipeline: it is a [`Memo`] handed to
//! [`Analysis::run_memoized`](crate::Analysis::run_memoized). Inside the
//! one pipeline driver each unit looks its key up before computing; a hit
//! is a unit whose result (and, for return jump functions, recorded
//! charges) was computed earlier, and it goes through the same
//! [`Governor::can_absorb`](crate::Governor::can_absorb) gate the parallel
//! fold uses. The fold notes every unit's [`Served`] outcome into the
//! request's [`CacheTxn`] in sequential unit order, so counters and staged
//! entries are the same at every `--jobs`.
//!
//! The contract — the one the `serve-identity` oracle and the tier-1
//! differential tests enforce — is **bit-identity**: for any cache state,
//! the memoised analysis (values, health events in order, quarantine
//! flags; see [`same_results`]) equals a cold
//! [`Analysis::run`](crate::Analysis::run) on the same module and
//! configuration, except for wall-clock-deadline degradations (those
//! depend on real time and are documented as ⊥-honest, marked
//! `degraded`). Three mechanisms carry it through budgets and fault
//! injection:
//!
//! 1. **Keys capture every input.** A unit's key mixes the configuration
//!    fingerprint, the program shape, and its own-text or callee-cone
//!    Merkle hash; two units with equal keys compute equal results.
//! 2. **Charge replay.** A cached return-jump unit recorded the governor
//!    charges its clean run made. A hit replays them into a shard and
//!    absorbs only when `can_absorb` proves no budget or injected fault
//!    would have tripped inside the range — otherwise the unit runs live,
//!    reproducing the cold trip at the exact same offset.
//! 3. **Forced misses.** The unit named by a `--inject-panic`
//!    configuration always runs live, so the injection fires exactly as
//!    cold; and degraded units are never cached, so a quarantined
//!    procedure is recomputed (and re-contained, or healed by an edit) on
//!    every request.
//!
//! Gated configurations (`gated_jump_fns`) bypass the cache: their units
//! read the previous round's fixpoint, which is not part of the key.
//!
//! Only *clean* units are cached: a unit that quarantined, tripped a
//! budget, or exhausted its step slice is recomputed on every request,
//! so a cached entry never freezes a degradation into the warm path (and
//! a crashing request "repairs" itself by simply never polluting the
//! cache — the next identical request recomputes from scratch).
//!
//! Writes never land directly: each request stages its inserts in a
//! [`CacheTxn`] and the engine commits the transaction only after the
//! request completed without a request-level panic — snapshot, validate,
//! commit. A dropped transaction provably leaves the cache untouched.
//!
//! **Pinning.** Every key a *live* request looked up — one whose analysis
//! is, or equals, the engine's current one: boot, `update`, `load`, and
//! any run under the base configuration — is pinned
//! ([`SummaryCache::commit_live`]). The pinned set is replaced by each
//! live commit, so it is exactly the live program's entries, and
//! eviction never touches it: an edit misses only the units whose keys
//! it changed, however large the program.
//!
//! The bound ([`SummaryCache::with_capacity`]) counts only *superseded*
//! entries — those the live program no longer looks up — and evicts the
//! oldest of them first: admission control bounds the request queue,
//! this bounds the memory a long-lived daemon accretes on top of the
//! live program.

use crate::config::{Config, PanicInjection, Stage};
use crate::jump::ProcSymbolic;
use crate::{Analysis, JumpFn};
use ipcp_analysis::{summary_keys, CallGraph, ModSet, SummaryKeys};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::hash::Fnv128;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Recorded per-stage governor charges, in [`Stage::ALL`] order.
pub type Charges = [u64; Stage::ALL.len()];

/// Which summary family a key addresses. Part of the key so the three
/// families can never alias even under hash collision of the content
/// part.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SummaryStage {
    /// MOD/REF direct effects.
    ModRef,
    /// Return jump functions.
    RetJump,
    /// SSA + symbolic evaluation (the forward-jump-function input).
    Jump,
}

impl SummaryStage {
    /// The pipeline stage whose units this family memoises — the stage a
    /// `--inject-panic` must name to force the family's misses.
    fn stage(self) -> Stage {
        match self {
            SummaryStage::ModRef => Stage::ModRef,
            SummaryStage::RetJump => Stage::RetJump,
            SummaryStage::Jump => Stage::Jump,
        }
    }
}

/// A cache key: the summary family plus the content digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Summary family.
    pub stage: SummaryStage,
    /// Content digest (own hash or Merkle cone, mixed with the program
    /// shape and configuration fingerprints).
    pub digest: u128,
}

/// One cached summary.
#[derive(Clone, Debug)]
pub enum CachedSummary {
    /// Direct MOD/REF effects of one procedure. The unit charges nothing
    /// (the per-procedure `Stage::ModRef` charge is made by the loop,
    /// hit or miss alike).
    ModRef {
        /// Directly modified slots.
        mods: ModSet,
        /// Directly referenced slots.
        refs: ModSet,
    },
    /// Return jump functions for every entry slot of one procedure, with
    /// the `Stage::RetJump` charges the clean unit made.
    RetJump {
        /// Per-slot functions.
        fns: Vec<JumpFn>,
        /// Recorded governor charges, replayed on a hit.
        charges: Charges,
    },
    /// The SSA + symbolic form of one procedure (charge-free).
    Jump {
        /// The cached symbolic form, shared with every analysis that
        /// committed or was served it.
        sym: Arc<ProcSymbolic>,
    },
}

/// Aggregate cache telemetry, surfaced by `health`/`stats` and the
/// telemetry tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Units served from cache (charges replayed cleanly).
    pub hits: u64,
    /// Units recomputed (absent, unreplayable, or forced live).
    pub misses: u64,
    /// Entries evicted by the FIFO bound.
    pub evictions: u64,
    /// Requests that bypassed the cache entirely (configurations whose
    /// units read prior-round state, e.g. gated jump functions).
    pub bypasses: u64,
    /// Entries restored from a persisted store at startup.
    pub recovered: u64,
    /// The subset of `hits` served by a restored entry — the payoff of
    /// persistence: work a *previous process* did and this one did not.
    pub persisted_hits: u64,
}

impl CacheStats {
    /// Hits as a fraction of lookups, `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// One live entry: the summary plus whether it was restored from a
/// persisted store (rather than computed by this process) — restored
/// entries are counted separately on a hit so the payoff of persistence
/// is observable.
#[derive(Debug)]
struct CacheEntry {
    summary: CachedSummary,
    recovered: bool,
}

/// The daemon-lifetime summary cache. See the module docs.
#[derive(Debug)]
pub struct SummaryCache {
    entries: HashMap<CacheKey, CacheEntry>,
    order: VecDeque<CacheKey>,
    /// Every key the latest live request looked up: the entries the
    /// current program uses, which eviction never touches.
    pinned: HashSet<CacheKey>,
    capacity: usize,
    stats: CacheStats,
}

impl SummaryCache {
    /// Default bound on *superseded* entries — those the live program no
    /// longer looks up. Pinned entries do not count against it.
    pub const DEFAULT_CAPACITY: usize = 16 * 1024;

    /// An empty cache with the default bound.
    pub fn new() -> SummaryCache {
        SummaryCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` unpinned entries
    /// (minimum 1) on top of the pinned ones.
    pub fn with_capacity(capacity: usize) -> SummaryCache {
        SummaryCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            pinned: HashSet::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Number of entries held, pinned or not.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime telemetry.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a summary. Hit/miss accounting happens in the
    /// transaction (a present entry can still be treated as a miss when
    /// its recorded charges cannot be replayed bit-identically).
    pub fn get(&self, key: CacheKey) -> Option<&CachedSummary> {
        self.entries.get(&key).map(|e| &e.summary)
    }

    /// Like [`SummaryCache::get`], also reporting whether the entry was
    /// restored from a persisted store rather than computed live.
    pub fn get_with_origin(&self, key: CacheKey) -> Option<(&CachedSummary, bool)> {
        self.entries.get(&key).map(|e| (&e.summary, e.recovered))
    }

    /// Rebuilds a cache from entries decoded out of a persisted store,
    /// preserving their FIFO order and marking every entry recovered.
    /// Entries beyond the capacity evict oldest-first exactly as live
    /// inserts would (without counting as evictions — they were evicted
    /// by the *bound*, not by churn).
    pub fn restore(entries: Vec<(CacheKey, CachedSummary)>, capacity: usize) -> SummaryCache {
        let mut cache = SummaryCache::with_capacity(capacity);
        for (key, summary) in entries {
            cache.insert_entry(
                key,
                CacheEntry {
                    summary,
                    recovered: true,
                },
            );
        }
        cache.evict();
        cache.stats = CacheStats {
            recovered: cache.entries.len() as u64,
            ..CacheStats::default()
        };
        cache
    }

    /// The live entries in FIFO (insertion) order — the order a snapshot
    /// persists, so restore + re-encode is byte-identical.
    pub fn iter_fifo(&self) -> impl Iterator<Item = (CacheKey, &CachedSummary)> {
        self.order
            .iter()
            .filter_map(|k| self.entries.get(k).map(|e| (*k, &e.summary)))
    }

    fn insert(&mut self, key: CacheKey, value: CachedSummary) {
        self.insert_entry(
            key,
            CacheEntry {
                summary: value,
                recovered: false,
            },
        );
    }

    fn insert_entry(&mut self, key: CacheKey, entry: CacheEntry) {
        if self.entries.insert(key, entry).is_none() {
            self.order.push_back(key);
        }
    }

    /// Evicts the oldest unpinned entries until at most `capacity` are
    /// left, keeping the FIFO order of the rest.
    fn evict(&mut self) {
        let pinned = self
            .pinned
            .iter()
            .filter(|k| self.entries.contains_key(k))
            .count();
        let mut excess = (self.entries.len() - pinned).saturating_sub(self.capacity);
        if excess == 0 {
            return;
        }
        let (entries, stats) = (&mut self.entries, &mut self.stats);
        self.order.retain(|k| {
            if excess == 0 || self.pinned.contains(k) {
                return true;
            }
            entries.remove(k);
            stats.evictions += 1;
            excess -= 1;
            false
        });
    }

    /// Commits a completed request's transaction: staged inserts land,
    /// per-request counters fold into the lifetime stats, and the oldest
    /// unpinned entries beyond the bound are evicted. Only called after
    /// the request ran to completion — a panicked request's transaction
    /// is dropped instead, leaving the cache untouched.
    pub fn commit(&mut self, txn: CacheTxn) {
        self.commit_with(txn, false);
    }

    /// [`SummaryCache::commit`] for a request whose analysis is (or
    /// equals) the live one: the keys it looked up become the pinned set,
    /// replacing the previous one, before eviction runs. The live
    /// program's entries therefore never age out, and the bound counts
    /// only superseded ones.
    pub(crate) fn commit_live(&mut self, txn: CacheTxn) {
        self.commit_with(txn, true);
    }

    fn commit_with(&mut self, txn: CacheTxn, live: bool) {
        for (key, value) in txn.staged {
            self.insert(key, value);
        }
        if live {
            self.pinned = txn.looked_up.into_iter().collect();
        }
        self.evict();
        self.stats.hits += txn.hits;
        self.stats.misses += txn.misses;
        self.stats.persisted_hits += txn.persisted_hits;
        self.stats.bypasses += txn.bypassed as u64;
    }
}

impl Default for SummaryCache {
    fn default() -> Self {
        SummaryCache::new()
    }
}

/// One request's staged view of the cache: reads go to the base cache,
/// writes stage here until [`SummaryCache::commit`].
#[derive(Debug, Default)]
pub struct CacheTxn {
    staged: Vec<(CacheKey, CachedSummary)>,
    /// Every key a unit looked up, hit or miss — what a live commit pins.
    looked_up: Vec<CacheKey>,
    /// Units served from cache during this request.
    pub hits: u64,
    /// Units recomputed during this request.
    pub misses: u64,
    /// The subset of `hits` served by entries restored from a persisted
    /// store.
    pub persisted_hits: u64,
    /// Whether this request's configuration bypassed the cache.
    pub bypassed: bool,
}

impl CacheTxn {
    /// A fresh, empty transaction.
    pub fn new() -> CacheTxn {
        CacheTxn::default()
    }

    /// Stages an insert for commit.
    pub fn stage(&mut self, key: CacheKey, value: CachedSummary) {
        self.staged.push((key, value));
    }

    /// Notes how one unit was served. The pipeline's fold calls this in
    /// sequential unit order, so counters and staged entries do not depend
    /// on `--jobs`.
    pub(crate) fn note(&mut self, served: Served) {
        match served {
            Served::Skipped => {}
            Served::Hit { key, recovered } => {
                self.hits += 1;
                self.persisted_hits += u64::from(recovered);
                self.looked_up.push(key);
            }
            Served::Miss { key, entry } => {
                self.misses += 1;
                self.looked_up.push(key);
                if let Some(summary) = entry {
                    self.stage(key, summary);
                }
            }
        }
    }
}

/// A request's memo hook, handed to
/// [`Analysis::run_memoized`](crate::Analysis::run_memoized): the cache
/// every unit looks up before computing, the per-procedure content hashes
/// its keys derive from, and the transaction its hits, misses and fresh
/// clean entries land in.
#[derive(Debug)]
pub struct Memo<'a> {
    /// The cache units read.
    pub cache: &'a SummaryCache,
    /// `own[i]`: content hash of procedure `i`'s normalized text.
    pub own: &'a [u128],
    /// Where the request's outcome stages, for the engine to commit.
    pub txn: &'a mut CacheTxn,
}

/// How one unit was served, noted into the request's [`CacheTxn`] by the
/// fold ([`CacheTxn::note`]).
#[derive(Debug)]
pub(crate) enum Served {
    /// The memo was not consulted: no memo, or the unit short-circuited
    /// (a budget charge failed, or an earlier phase quarantined it).
    Skipped,
    /// Served from the cache; `recovered` when the entry was restored from
    /// a persisted store.
    Hit {
        /// The key that hit.
        key: CacheKey,
        /// Whether the entry came from a persisted store.
        recovered: bool,
    },
    /// Computed live, with the entry to cache when the unit came out clean
    /// and was not a forced miss.
    Miss {
        /// The key that missed.
        key: CacheKey,
        /// The unit's summary, to stage under `key`.
        entry: Option<CachedSummary>,
    },
}

/// The read side of a memo: the cache and every unit's key. Units consult
/// it from inside pool rounds, so it only ever reads.
#[derive(Debug)]
pub(crate) struct MemoKeys<'a> {
    cache: &'a SummaryCache,
    keys: SummaryKeys,
    shape: u128,
    injection: Option<PanicInjection>,
}

/// One unit's consultation of the memo.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lookup<'a> {
    key: CacheKey,
    forced: bool,
    /// The entry and whether it was restored from a persisted store —
    /// `None` when absent or when the unit is a forced miss.
    pub hit: Option<(&'a CachedSummary, bool)>,
}

impl<'a> MemoKeys<'a> {
    /// Derives every unit's key for `mcfg` under `config`.
    pub(crate) fn new(
        memo: &Memo<'a>,
        mcfg: &ModuleCfg,
        cg: &CallGraph,
        config: &Config,
    ) -> MemoKeys<'a> {
        MemoKeys {
            cache: memo.cache,
            keys: summary_keys(cg, memo.own),
            shape: shape_fingerprint(mcfg, config),
            injection: config.panic_injection,
        }
    }

    /// Looks up procedure `pi`'s `family` entry. MOD/REF is keyed by the
    /// procedure's own text, the other families by its callee cone.
    pub(crate) fn lookup(&self, family: SummaryStage, pi: usize) -> Lookup<'a> {
        let content = match family {
            SummaryStage::ModRef => self.keys.own[pi],
            SummaryStage::RetJump | SummaryStage::Jump => self.keys.cone[pi],
        };
        let key = CacheKey {
            stage: family,
            digest: mix(self.shape, content),
        };
        // The unit a panic injection names never comes from the cache, so
        // the injection fires exactly as cold.
        let forced = self
            .injection
            .is_some_and(|i| i.stage == family.stage() && i.proc == pi);
        let hit = if forced {
            None
        } else {
            self.cache.get_with_origin(key)
        };
        Lookup { key, forced, hit }
    }
}

impl Lookup<'_> {
    /// The note for a unit served by its hit.
    pub(crate) fn served_hit(&self) -> Served {
        Served::Hit {
            key: self.key,
            recovered: self.hit.is_some_and(|(_, recovered)| recovered),
        }
    }

    /// The note for a unit computed live: a miss that caches `entry` —
    /// the unit's summary when it came out clean — unless the unit was a
    /// forced miss.
    pub(crate) fn served_miss(&self, entry: Option<CachedSummary>) -> Served {
        Served::Miss {
            key: self.key,
            entry: entry.filter(|_| !self.forced),
        }
    }
}

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

/// The identity predicate the differential tests assert: everything an
/// analysis computes except wall-clock observations (timings) and the
/// solver's internal work counters.
pub fn same_results(a: &Analysis, b: &Analysis) -> bool {
    a.vals.vals == b.vals.vals
        && a.health == b.health
        && a.quarantined == b.quarantined
        && a.ret_jfs.fns == b.ret_jfs.fns
        && a.jump_fns.sites == b.jump_fns.sites
        && a.modref == b.modref
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_analysis::ModSet;

    fn key(d: u128) -> CacheKey {
        CacheKey {
            stage: SummaryStage::ModRef,
            digest: d,
        }
    }

    fn entry() -> CachedSummary {
        CachedSummary::ModRef {
            mods: ModSet::default(),
            refs: ModSet::default(),
        }
    }

    #[test]
    fn commit_lands_staged_entries_and_counters() {
        let mut cache = SummaryCache::new();
        let mut txn = CacheTxn::new();
        txn.stage(key(1), entry());
        txn.hits = 2;
        txn.misses = 1;
        assert!(cache.get(key(1)).is_none(), "staged, not visible");
        cache.commit(txn);
        assert!(cache.get(key(1)).is_some());
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hit_rate(), Some(2.0 / 3.0));
    }

    #[test]
    fn dropped_txn_leaves_cache_untouched() {
        let cache = SummaryCache::new();
        {
            let mut txn = CacheTxn::new();
            txn.stage(key(7), entry());
            txn.misses = 5;
            // Dropped without commit — the panic path.
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let mut cache = SummaryCache::with_capacity(2);
        for d in 0..5u128 {
            let mut txn = CacheTxn::new();
            txn.stage(key(d), entry());
            cache.commit(txn);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 3);
        assert!(cache.get(key(0)).is_none(), "oldest evicted");
        assert!(cache.get(key(4)).is_some(), "newest kept");
    }

    #[test]
    fn families_do_not_alias() {
        let mut cache = SummaryCache::new();
        let mut txn = CacheTxn::new();
        txn.stage(key(9), entry());
        cache.commit(txn);
        let other = CacheKey {
            stage: SummaryStage::Jump,
            digest: 9,
        };
        assert!(cache.get(other).is_none());
    }

    #[test]
    fn restore_preserves_fifo_order_and_marks_recovery() {
        let entries: Vec<(CacheKey, CachedSummary)> =
            (0..4u128).map(|d| (key(d), entry())).collect();
        let cache = SummaryCache::restore(entries, SummaryCache::DEFAULT_CAPACITY);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().recovered, 4);
        assert_eq!(cache.stats().evictions, 0);
        let order: Vec<u128> = cache.iter_fifo().map(|(k, _)| k.digest).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        for d in 0..4u128 {
            let (_, recovered) = cache.get_with_origin(key(d)).expect("restored");
            assert!(recovered);
        }
        // A live insert on top is not marked recovered.
        let mut cache = cache;
        let mut txn = CacheTxn::new();
        txn.stage(key(9), entry());
        cache.commit(txn);
        let (_, recovered) = cache.get_with_origin(key(9)).expect("inserted");
        assert!(!recovered);
    }

    #[test]
    fn restore_beyond_capacity_keeps_the_newest() {
        let entries: Vec<(CacheKey, CachedSummary)> =
            (0..5u128).map(|d| (key(d), entry())).collect();
        let cache = SummaryCache::restore(entries, 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().recovered, 2);
        assert_eq!(cache.stats().evictions, 0, "bound, not churn");
        assert!(cache.get(key(3)).is_some());
        assert!(cache.get(key(4)).is_some());
    }

    #[test]
    fn persisted_hits_fold_into_lifetime_stats() {
        let mut cache = SummaryCache::new();
        let mut txn = CacheTxn::new();
        txn.hits = 3;
        txn.persisted_hits = 2;
        cache.commit(txn);
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(cache.stats().persisted_hits, 2);
    }

    #[test]
    fn pinned_entries_survive_eviction_and_do_not_count_against_the_bound() {
        let mut cache = SummaryCache::with_capacity(2);
        let mut live = CacheTxn::new();
        for d in 0..4u128 {
            live.note(Served::Miss {
                key: key(d),
                entry: Some(entry()),
            });
        }
        cache.commit_live(live);
        assert_eq!(cache.len(), 4, "the bound counts only unpinned entries");
        assert!((0..4u128).all(|d| cache.pinned.contains(&key(d))));
        // A one-off request's entries are unpinned and age out among
        // themselves.
        for d in 10..14u128 {
            let mut txn = CacheTxn::new();
            txn.stage(key(d), entry());
            cache.commit(txn);
        }
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.get(key(10)).is_none() && cache.get(key(13)).is_some());
        // The next live request re-pins: 0 and 1 stay live, 2 and 3 are
        // superseded and evict before the younger unpinned entries.
        let mut next = CacheTxn::new();
        for d in 0..2u128 {
            next.note(Served::Hit {
                key: key(d),
                recovered: false,
            });
        }
        cache.commit_live(next);
        assert!(!cache.pinned.contains(&key(2)));
        assert!(cache.get(key(2)).is_none() && cache.get(key(3)).is_none());
        assert!(cache.get(key(0)).is_some() && cache.get(key(1)).is_some());
        assert!(cache.get(key(12)).is_some() && cache.get(key(13)).is_some());
        assert_eq!(cache.stats().evictions, 4);
    }

    #[test]
    fn reinserting_a_key_does_not_grow_the_order_queue() {
        let mut cache = SummaryCache::with_capacity(2);
        for _ in 0..10 {
            let mut txn = CacheTxn::new();
            txn.stage(key(1), entry());
            cache.commit(txn);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
    }
}
