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
//! 4. **Taint.** A return-jump or symbolic unit that reads a degraded
//!    result — a callee's degraded, quarantined or tainted return jump
//!    functions, or a MOD set a degraded MOD/REF unit widened — is a
//!    forced miss too. Its key hashes text only, so it cannot tell the
//!    degraded inputs from clean ones when the degradation moves (an
//!    edit that shifts a fault's offset, say).
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
//! **Live-analysis reuse.** A base-configuration run also gets the live
//! `(ModuleCfg, Analysis, own hashes)` (`Live`), and the pipeline
//! shares each stage's product by `Arc` while that stage's inputs are
//! unchanged (`Reuse`). The preconditions: the live analysis was
//! memoized under this configuration, the program shape is the same, and
//! every edited procedure (own hash moved) has exactly its live call
//! edges. Then the call graph is shared, and the slot layout unless an
//! edit renamed a formal; keys are rehashed for the edited cone only;
//! the propagated MOD/REF is shared when every recomputed direct effect
//! equals the live one and every edited procedure binds the same
//! variables by reference at its call sites; return jump functions and
//! kept forms are shared for every procedure outside the *dirty set*;
//! and forward jump functions for every caller whose form `Arc` did not
//! move. The dirty set starts at the edited procedures, the units a
//! panic injection forces, the units the live run degraded or
//! quarantined, and tainted units; it climbs to a caller only while some
//! callee's return jump functions actually changed (early cutoff). The
//! return-jump stage decides this per unit inside its levelled walk, so
//! the dirty cone still runs ahead on workers. A reused unit is a memo hit to every
//! contract: the charges the live run recorded for it (`MemoLog`)
//! replay in sequential unit order through `can_absorb`, and a trip runs
//! the unit live; an unchanged key is noted as a hit on the entry the
//! live run left; a moved key hits the cache or, when absent, stages the
//! live result under the new key ([`CacheStats::carried`]). If a
//! precondition fails the run is the plain memoized path, and if the
//! propagated MOD/REF moves, so are the stages after it: counters,
//! cache contents and [`same_results`] are the plain path's either way.
//!
//! **Pinning.** Every key a *live* request looked up — one whose analysis
//! is, or equals, the engine's current one: boot, `update`, `load`, and
//! any run under the base configuration — is pinned
//! ([`SummaryCache::commit_live`]). The pinned set is replaced by each
//! live commit, so it is exactly the live program's entries, and
//! eviction never touches it: an edit misses only the units whose keys
//! it changed, however large the program. A run that reused the live
//! analysis moves only the pins of the units whose keys changed; pins
//! are counted per key, since two procedures with one text share a key.
//!
//! The bound ([`SummaryCache::with_capacity`]) counts only *superseded*
//! entries — those the live program no longer looks up — and evicts the
//! oldest of them first: admission control bounds the request queue,
//! this bounds the memory a long-lived daemon accretes on top of the
//! live program.

use crate::config::{Config, PanicInjection, Stage};
use crate::jump::ProcSymbolic;
use crate::{Analysis, JumpFn};
use ipcp_analysis::{
    calls_from, ref_bindings, summary_keys, update_summary_keys, CallGraph, ModSet, SummaryKeys,
};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::hash::Fnv128;
use ipcp_ir::program::{ProcId, SlotLayout};
use std::collections::{HashMap, VecDeque};
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
    const ALL: [SummaryStage; 3] = [
        SummaryStage::ModRef,
        SummaryStage::RetJump,
        SummaryStage::Jump,
    ];

    /// The pipeline stage whose units this family memoises — the stage a
    /// `--inject-panic` must name to force the family's misses.
    fn stage(self) -> Stage {
        match self {
            SummaryStage::ModRef => Stage::ModRef,
            SummaryStage::RetJump => Stage::RetJump,
            SummaryStage::Jump => Stage::Jump,
        }
    }

    fn index(self) -> usize {
        self as usize
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
    /// The subset of `misses` filled from the live analysis by early
    /// cutoff: a unit whose key moved but whose inputs did not, so its
    /// live result was staged under the new key instead of recomputed.
    pub carried: u64,
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
    pinned: PinSet,
    /// Entries whose key is not pinned — what the bound counts, kept
    /// current by every insert, pin move and eviction.
    unpinned: usize,
    capacity: usize,
    stats: CacheStats,
}

/// The pinned keys, each with the number of live units that look it up
/// (two procedures with the same text share a key), so a live commit can
/// move the pins of only the units whose keys changed.
#[derive(Debug, Default)]
struct PinSet(HashMap<CacheKey, u32>);

impl PinSet {
    fn contains(&self, key: &CacheKey) -> bool {
        self.0.contains_key(key)
    }

    /// Pins `key` once more; `true` when it was not pinned before.
    fn pin(&mut self, key: CacheKey) -> bool {
        let n = self.0.entry(key).or_insert(0);
        *n += 1;
        *n == 1
    }

    /// Drops one pin of `key`; `true` when that was its last.
    fn unpin(&mut self, key: CacheKey) -> bool {
        let Some(n) = self.0.get_mut(&key) else {
            return false;
        };
        *n -= 1;
        let last = *n == 0;
        if last {
            self.0.remove(&key);
        }
        last
    }
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
            pinned: PinSet::default(),
            unpinned: 0,
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
            self.unpinned += usize::from(!self.pinned.contains(&key));
        }
    }

    fn pin(&mut self, key: CacheKey) {
        if self.pinned.pin(key) && self.entries.contains_key(&key) {
            self.unpinned -= 1;
        }
    }

    fn unpin(&mut self, key: CacheKey) {
        if self.pinned.unpin(key) && self.entries.contains_key(&key) {
            self.unpinned += 1;
        }
    }

    /// Evicts the oldest unpinned entries until at most `capacity` are
    /// left, keeping the FIFO order of the rest.
    fn evict(&mut self) {
        let mut excess = self.unpinned.saturating_sub(self.capacity);
        if excess == 0 {
            return;
        }
        self.unpinned -= excess;
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
    /// only superseded ones. A request that reused the live analysis
    /// moves only the pins of the units whose keys changed.
    pub fn commit_live(&mut self, txn: CacheTxn) {
        self.commit_with(txn, true);
    }

    fn commit_with(&mut self, txn: CacheTxn, live: bool) {
        for (key, value) in txn.staged {
            self.insert(key, value);
        }
        if live {
            match txn.repin {
                Some(repin) => {
                    repin.unpin.into_iter().for_each(|k| self.unpin(k));
                    repin.pin.into_iter().for_each(|k| self.pin(k));
                }
                None => {
                    self.pinned = PinSet::default();
                    self.unpinned = self.entries.len();
                    txn.looked_up.into_iter().for_each(|k| self.pin(k));
                }
            }
        }
        self.evict();
        self.stats.hits += txn.hits;
        self.stats.misses += txn.misses;
        self.stats.persisted_hits += txn.persisted_hits;
        self.stats.carried += txn.carried;
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
    /// Left empty by a run that reused the live analysis: `repin` moves
    /// the pins instead.
    looked_up: Vec<CacheKey>,
    /// The pins a run that reused the live analysis moves: the keys of
    /// the units whose key changed.
    repin: Option<Repin>,
    /// The memo log the run records, for the next run to reuse.
    log: Option<MemoLog>,
    /// Units served from cache during this request.
    pub hits: u64,
    /// Units recomputed during this request.
    pub misses: u64,
    /// The subset of `misses` filled from the live analysis by early
    /// cutoff (see [`CacheStats::carried`]).
    pub carried: u64,
    /// The subset of `hits` served by entries restored from a persisted
    /// store.
    pub persisted_hits: u64,
    /// Whether this request's configuration bypassed the cache.
    pub bypassed: bool,
}

/// The pin moves of a run that reused the live analysis.
#[derive(Debug, Default)]
struct Repin {
    unpin: Vec<CacheKey>,
    pin: Vec<CacheKey>,
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
        let key = match served {
            Served::Skipped => return,
            Served::Hit { key, recovered } => {
                self.hits += 1;
                self.persisted_hits += u64::from(recovered);
                key
            }
            Served::Miss { key, entry } => {
                self.misses += 1;
                if let Some(summary) = entry {
                    self.stage(key, summary);
                }
                key
            }
            Served::Carried { key, entry } => {
                self.misses += 1;
                self.carried += 1;
                self.stage(key, entry);
                key
            }
        };
        if self.repin.is_none() {
            self.looked_up.push(key);
        }
    }

    /// [`CacheTxn::note`] for procedure `pi`'s unit, also recorded in the
    /// run's memo log.
    pub(crate) fn note_unit(&mut self, pi: usize, served: Served) {
        if let (Some(log), Some((family, note))) = (self.log.as_mut(), Note::of(&served)) {
            log.notes[family.index()][pi] = note;
        }
        self.note(served);
    }

    /// Starts the memo log of a run over `n_procs` procedures. With
    /// `reusing`, the run reuses the live analysis, and its commit moves
    /// only the pins of units whose keys changed.
    pub(crate) fn start_log(&mut self, n_procs: usize, reusing: bool) {
        self.log = Some(MemoLog::new(n_procs));
        self.repin = reusing.then(Repin::default);
    }

    /// Ends the run's memo log with the run's `keys`, deriving the pin
    /// moves from `prev`, the live analysis's log, when the run reused it.
    pub(crate) fn finish_log(&mut self, keys: KeySet, prev: Option<&MemoLog>) -> Option<MemoLog> {
        let mut log = self.log.take()?;
        log.keys = keys;
        if let (Some(repin), Some(prev)) = (self.repin.as_mut(), prev) {
            *repin = log.repin(prev);
        }
        Some(log)
    }

    /// Records the governor charges of procedure `pi`'s clean
    /// return-jump unit in the run's memo log.
    pub(crate) fn log_ret_charges(&mut self, pi: usize, charges: Charges) {
        if let Some(log) = self.log.as_mut() {
            log.ret_charges[pi] = charges;
        }
    }

    /// Records the governor charges of caller `pi`'s forward-jump unit in
    /// the run's memo log — `None` when the unit did not run clean.
    pub(crate) fn log_fwd_charges(&mut self, pi: usize, charges: Option<Charges>) {
        if let Some(log) = self.log.as_mut() {
            log.fwd_charges[pi] = charges;
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
    /// A miss filled from the live analysis by early cutoff: the key moved
    /// but the unit's inputs did not, so its live result is staged under
    /// the new key.
    Carried {
        /// The key that missed.
        key: CacheKey,
        /// The live result, to stage under `key`.
        entry: CachedSummary,
    },
}

/// How one unit of a memoized run was served, as its [`MemoLog`] keeps
/// it for the next run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Note {
    /// Not looked up: its charge failed, or an earlier stage quarantined
    /// the procedure.
    #[default]
    Skipped,
    /// Computed live and not cached: a forced miss, or a degraded unit.
    Dirty,
    /// Served from the cache or staged into it: a clean unit, whose entry
    /// the cache holds from the commit on. `recovered` when that entry was
    /// restored from a persisted store.
    Clean {
        /// Whether the entry came from a persisted store.
        recovered: bool,
    },
}

impl Note {
    fn of(served: &Served) -> Option<(SummaryStage, Note)> {
        match served {
            Served::Skipped => None,
            Served::Hit { key, recovered } => Some((
                key.stage,
                Note::Clean {
                    recovered: *recovered,
                },
            )),
            Served::Miss { key, entry } => Some((
                key.stage,
                match entry {
                    Some(_) => Note::Clean { recovered: false },
                    None => Note::Dirty,
                },
            )),
            Served::Carried { key, .. } => Some((key.stage, Note::Clean { recovered: false })),
        }
    }
}

/// What a memoized run leaves in its [`Analysis`] for the next run over
/// the same program shape to reuse ([`Reuse`]): its keys, how each unit of
/// each family was served, and the governor charges of its clean
/// return-jump and forward-jump units, replayed when those units are
/// reused.
#[derive(Debug)]
pub(crate) struct MemoLog {
    keys: KeySet,
    /// `notes[family][p]`, families in [`SummaryStage`] order.
    notes: [Vec<Note>; 3],
    /// Per procedure: the charges of its clean return-jump unit.
    ret_charges: Vec<Charges>,
    /// Per caller: the charges of its forward-jump unit, when it ran clean
    /// on a caller no earlier stage quarantined.
    fwd_charges: Vec<Option<Charges>>,
}

impl MemoLog {
    fn new(n_procs: usize) -> MemoLog {
        MemoLog {
            keys: KeySet::default(),
            notes: std::array::from_fn(|_| vec![Note::Skipped; n_procs]),
            ret_charges: vec![Charges::default(); n_procs],
            fwd_charges: vec![None; n_procs],
        }
    }

    /// Unit `(family, pi)`'s cache key, if the run looked it up.
    fn looked_up(&self, family: SummaryStage, pi: usize) -> Option<CacheKey> {
        (self.notes[family.index()][pi] != Note::Skipped).then(|| self.keys.key(family, pi))
    }

    /// The pins that move from `prev`'s run to this one: the looked-up
    /// keys of every unit whose key or lookup changed.
    fn repin(&self, prev: &MemoLog) -> Repin {
        let mut repin = Repin::default();
        for family in SummaryStage::ALL {
            let f = family.index();
            for pi in 0..self.notes[f].len() {
                let looked = |log: &MemoLog| log.notes[f][pi] != Note::Skipped;
                if looked(self) == looked(prev)
                    && self.keys.digest(family, pi) == prev.keys.digest(family, pi)
                {
                    continue;
                }
                repin.unpin.extend(prev.looked_up(family, pi));
                repin.pin.extend(self.looked_up(family, pi));
            }
        }
        repin
    }
}

/// Every unit's key material for one program: the summary keys, the
/// shape fingerprint, and each unit's digest (content mixed with the
/// shape) — MOD/REF by the procedure's own text, the other families by
/// its callee cone.
#[derive(Debug, Default)]
pub(crate) struct KeySet {
    pub(crate) shape: u128,
    raw: Option<SummaryKeys>,
    /// `[own-text digests, cone digests]`, per procedure.
    digests: [Vec<u128>; 2],
}

impl KeySet {
    fn new(cg: &CallGraph, own: &[u128], shape: u128) -> KeySet {
        let raw = summary_keys(cg, own);
        let digests = [&raw.own, &raw.cone].map(|c| c.iter().map(|&c| mix(shape, c)).collect());
        KeySet {
            shape,
            raw: Some(raw),
            digests,
        }
    }

    /// `prev`'s key set for the same shape and call graph with the own
    /// hashes `own`: only the digests whose content moved are rehashed.
    fn update(prev: &KeySet, cg: &CallGraph, own: &[u128]) -> KeySet {
        let Some(prev_raw) = &prev.raw else {
            return KeySet::new(cg, own, prev.shape);
        };
        let raw = update_summary_keys(prev_raw, cg, own);
        let mut digests = prev.digests.clone();
        for (f, (new, old)) in [(&raw.own, &prev_raw.own), (&raw.cone, &prev_raw.cone)]
            .into_iter()
            .enumerate()
        {
            for (i, (&c, &o)) in new.iter().zip(old).enumerate() {
                if c != o {
                    digests[f][i] = mix(prev.shape, c);
                }
            }
        }
        KeySet {
            shape: prev.shape,
            raw: Some(raw),
            digests,
        }
    }

    fn digest(&self, family: SummaryStage, pi: usize) -> u128 {
        self.digests[usize::from(family != SummaryStage::ModRef)][pi]
    }

    fn key(&self, family: SummaryStage, pi: usize) -> CacheKey {
        CacheKey {
            stage: family,
            digest: self.digest(family, pi),
        }
    }
}

/// The read side of a memo: the cache and every unit's key. Units consult
/// it from inside pool rounds, so it only ever reads.
#[derive(Debug)]
pub(crate) struct MemoKeys<'a> {
    cache: &'a SummaryCache,
    pub(crate) keys: KeySet,
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
    /// Derives every unit's key for `mcfg` under `config` — from the live
    /// analysis's keys when the run reuses it, rehashing only the cones
    /// the edit reaches.
    pub(crate) fn new(
        memo: &Memo<'a>,
        mcfg: &ModuleCfg,
        cg: &CallGraph,
        config: &Config,
        reuse: Option<&Reuse<'_>>,
    ) -> MemoKeys<'a> {
        let keys = match reuse {
            Some(r) => KeySet::update(&r.log.keys, cg, memo.own),
            None => KeySet::new(cg, memo.own, shape_fingerprint(mcfg, config)),
        };
        MemoKeys {
            cache: memo.cache,
            keys,
            injection: config.panic_injection,
        }
    }

    fn key(&self, family: SummaryStage, pi: usize) -> CacheKey {
        self.keys.key(family, pi)
    }

    /// Whether a panic injection names procedure `pi`'s `family` unit:
    /// such a unit never comes from the cache, so the injection fires
    /// exactly as cold.
    fn forced(&self, family: SummaryStage, pi: usize) -> bool {
        self.injection
            .is_some_and(|i| i.stage == family.stage() && i.proc == pi)
    }

    /// Looks up procedure `pi`'s `family` entry. MOD/REF is keyed by the
    /// procedure's own text, the other families by its callee cone.
    pub(crate) fn lookup(&self, family: SummaryStage, pi: usize) -> Lookup<'a> {
        let key = self.key(family, pi);
        let forced = self.forced(family, pi);
        let hit = if forced {
            None
        } else {
            self.cache.get_with_origin(key)
        };
        Lookup { key, forced, hit }
    }
}

/// The live analysis a base-configuration run may reuse: the module and
/// analysis the engine serves and the own hashes of its program model.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Live<'a> {
    /// The live module.
    pub(crate) mcfg: &'a ModuleCfg,
    /// The live analysis of `mcfg`.
    pub(crate) analysis: &'a Analysis,
    /// `own[i]`: content hash of live procedure `i`'s normalized text.
    pub(crate) own: &'a [u128],
}

/// A run's license to reuse the live analysis stage by stage.
///
/// It exists only when the live analysis was memoized under this very
/// configuration, the program shape is unchanged, and every edited
/// procedure (one whose own hash moved) has exactly its live call edges;
/// the call graph is then the live one, and so is the slot layout unless
/// an edit renamed a formal (slot names are part of the layout). A unit is
/// *clean* when its procedure was not edited, no panic injection forces
/// it, and the live run served it cleanly; each stage adds its own input
/// checks before reusing a clean unit's live result.
#[derive(Debug)]
pub(crate) struct Reuse<'a> {
    /// The live analysis.
    pub(crate) live: &'a Analysis,
    /// The run's slot layout: the live one, or rebuilt when an edit
    /// renamed a formal.
    pub(crate) layout: Arc<SlotLayout>,
    live_mcfg: &'a ModuleCfg,
    log: &'a MemoLog,
    edited: Vec<bool>,
}

impl<'a> Reuse<'a> {
    /// The license for a run of `config` over `mcfg` (own hashes `own`),
    /// or `None` when a precondition fails.
    pub(crate) fn check(
        mcfg: &ModuleCfg,
        config: &Config,
        own: &[u128],
        live: Live<'a>,
    ) -> Option<Reuse<'a>> {
        let log = live.analysis.memo_log.as_ref()?;
        let n = mcfg.module.procs.len();
        // The live run's configuration and this shape give `log.shape`.
        let (old, new) = (&live.mcfg.module, &mcfg.module);
        let same_shape =
            old.globals == new.globals
                && old.procs.len() == n
                && old.procs.iter().zip(&new.procs).all(|(a, b)| {
                    Arc::ptr_eq(a, b) || (a.name == b.name && a.arity() == b.arity())
                });
        if live.analysis.config != *config || !same_shape || live.own.len() != n || own.len() != n {
            return None;
        }
        let edited: Vec<bool> = own.iter().zip(live.own).map(|(a, b)| a != b).collect();
        let cg = &live.analysis.cg;
        let same_edges = (0..n).filter(|&p| edited[p]).all(|p| {
            let p = ProcId::from(p);
            calls_from(mcfg, p).as_slice() == cg.calls_from(p)
        });
        if !same_edges {
            return None;
        }
        let formal_names = |m: &'_ ModuleCfg, p: usize| {
            let proc = &m.module.procs[p];
            proc.formals
                .iter()
                .map(|&v| proc.var(v).name.clone())
                .collect::<Vec<_>>()
        };
        let renamed =
            (0..n).any(|p| edited[p] && formal_names(mcfg, p) != formal_names(live.mcfg, p));
        let layout = if renamed {
            Arc::new(SlotLayout::new(&mcfg.module))
        } else {
            Arc::clone(&live.analysis.layout)
        };
        Some(Reuse {
            live: live.analysis,
            layout,
            live_mcfg: live.mcfg,
            log,
            edited,
        })
    }

    /// The live analysis's memo log.
    pub(crate) fn log(&self) -> &'a MemoLog {
        self.log
    }

    /// Whether procedure `pi`'s `family` unit is clean (see the type docs).
    pub(crate) fn clean(&self, memo: &MemoKeys<'_>, family: SummaryStage, pi: usize) -> bool {
        !self.edited[pi]
            && matches!(self.log.notes[family.index()][pi], Note::Clean { .. })
            && !memo.forced(family, pi)
    }

    /// The note for a clean unit whose live result is reused. An unchanged
    /// key hits the entry the live run left; a changed one hits when the
    /// cache holds the new key, and otherwise is a miss that stages
    /// `entry()`, the live result, under it.
    pub(crate) fn served(
        &self,
        memo: &MemoKeys<'_>,
        family: SummaryStage,
        pi: usize,
        entry: impl FnOnce() -> CachedSummary,
    ) -> Served {
        let key = memo.key(family, pi);
        if key.digest == self.log.keys.digest(family, pi) {
            let recovered = self.log.notes[family.index()][pi] == Note::Clean { recovered: true };
            return Served::Hit { key, recovered };
        }
        match memo.cache.get_with_origin(key) {
            Some((_, recovered)) => Served::Hit { key, recovered },
            None => Served::Carried {
                key,
                entry: entry(),
            },
        }
    }

    /// Procedure `pi`'s direct MOD/REF effects as the live run used them:
    /// widened to everything visible unless its unit ran clean.
    pub(crate) fn live_direct_effects(&self, pi: usize) -> (ModSet, ModSet) {
        let f = SummaryStage::ModRef.index();
        if matches!(self.log.notes[f][pi], Note::Clean { .. }) {
            return ipcp_analysis::direct_effects(self.live_mcfg, ProcId::from(pi));
        }
        let arity = self.live_mcfg.module.procs[pi].arity();
        let n_globals = self.live_mcfg.module.globals.len();
        (
            ModSet::everything(arity, n_globals),
            ModSet::everything(arity, n_globals),
        )
    }

    /// Whether procedure `pi` binds by reference, call site by call site,
    /// what it bound in the live run. MOD/REF propagation carries a
    /// callee's formal effects back through these bindings, so an edit
    /// that keeps the call edges and the direct effects but swaps a
    /// by-reference actual still moves the propagated sets. Only an edited
    /// procedure can differ.
    pub(crate) fn same_bindings(&self, mcfg: &ModuleCfg, pi: usize) -> bool {
        let p = ProcId::from(pi);
        !self.edited[pi] || ref_bindings(mcfg, p) == ref_bindings(self.live_mcfg, p)
    }

    /// The charges of procedure `pi`'s clean live return-jump unit.
    pub(crate) fn ret_charges(&self, pi: usize) -> &Charges {
        &self.log.ret_charges[pi]
    }

    /// The charges of caller `pi`'s live forward-jump unit, when it ran
    /// clean.
    pub(crate) fn fwd_charges(&self, pi: usize) -> Option<&Charges> {
        self.log.fwd_charges[pi].as_ref()
    }
}

impl Lookup<'_> {
    /// This lookup as a forced miss when `force`: the unit reads a
    /// degraded result, which no cache key captures, so the cache must
    /// neither serve nor keep it.
    pub(crate) fn forced_if(self, force: bool) -> Self {
        if !force {
            return self;
        }
        Lookup {
            forced: true,
            hit: None,
            ..self
        }
    }

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
/// solver's internal work counters — including the call graph (edges,
/// reachability, SCCs) and the slot layout, which a run that reuses the
/// live analysis shares instead of rebuilding.
pub fn same_results(a: &Analysis, b: &Analysis) -> bool {
    a.vals.vals == b.vals.vals
        && a.health == b.health
        && a.quarantined == b.quarantined
        && a.ret_jfs.fns == b.ret_jfs.fns
        && a.jump_fns.sites == b.jump_fns.sites
        && a.modref == b.modref
        && a.cg.edges == b.cg.edges
        && a.cg.reachable == b.cg.reachable
        && a.cg.sccs == b.cg.sccs
        && a.layout == b.layout
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
