//! The content-hash-keyed summary cache, its transaction overlay, and the
//! memo hook the pipeline consults.
//!
//! The daemon caches three kinds of per-procedure summaries across
//! requests, keyed by the [`summary keys`](ipcp_analysis::keys) derived
//! from each procedure's text as the resolved module prints it
//! ([`ipcp_ir::program::Module::proc_hash`]), the program shape, and the
//! analysis configuration:
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
//!   once, however many analyses and cache entries refer to it. Forms
//!   live in memory only: the persisted store (`serve::store`) keeps the
//!   other two families, and a restart rebuilds the forms.
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
//! `(ModuleCfg, Analysis, own hashes)` (`Live`), and reuses it when
//! `Reuse::check` passes — else the run is the plain memoized path, and
//! its [`RunPath`] names the precondition that failed: the live analysis
//! was memoized under this configuration (deadlines aside: no unit reads
//! one), the program shape is the same,
//! and every edited procedure (own hash moved) has exactly its live call
//! edges — checked over the table chunks the new module and hashes do
//! not share with the live ones. The call graph is then shared, and the
//! slot layout unless an edit renamed a formal; keys are rehashed for the
//! SCCs above the edits only ([`ipcp_analysis::rekey`]).
//!
//! Every table of the analysis and of its memo log is a chunked
//! copy-on-write [`Table`], and a reusing run *visits only its cone*
//! ([`Analysis::run_memoized_on`](crate::Analysis)'s live walk): it
//! starts from the live tables, and each stage visits and `set`s only
//! what it must. The cone starts at the edited procedures, the units
//! whose keys moved and, when the live run degraded, the units it did not
//! serve cleanly (forced, degraded, tainted or quarantined ones); it
//! climbs to a caller only while some callee's return jump functions (or
//! their degradation) actually changed, and to a callee only while a
//! caller's form, forward jump functions or `VAL` row did (early cutoff).
//! A visited unit reuses its live result when its inputs are the live
//! run's, and otherwise runs as the plain path runs it — memo lookup,
//! quarantine and taint included. A reused unit is a memo hit to every
//! contract: an unchanged key is noted as a hit on the entry the live run
//! left; a moved key hits the cache or, when absent, stages the live
//! result under the new key ([`CacheStats::carried`]). If an edit moves
//! the MOD/REF stage's product — the propagated sets, or a unit's
//! quarantine — every later stage reads new inputs, and the run is the
//! plain memoized path (`mod_ref`).
//!
//! **The tally rule** accounts for the units the cone does not visit:
//! each is the live run's clean unit under an unchanged key, which the
//! plain path notes as a hit and whose recorded charges it replays. So the
//! counters are the live log's per-family `Tally` less the visited units'
//! share plus what they noted (`CacheTxn::finish_cone`), the pins move
//! for the visited units only, and each stage charges what its unvisited
//! units charge as one batch, placed so that a fault or a budget trips in
//! the cone where it trips in sequential order ([`Unvisited`]); a batch
//! that does not replay sends the run to the plain path (`trip`). A
//! deadline does not change the walk: a unit it cuts short degrades, is
//! never cached, and starts the next run's cone. Counters, cache contents
//! and [`same_results`] are the plain path's on every path, deadline
//! degradations aside.
//!
//! **Pinning.** Every key a *live* request looked up — one whose analysis
//! is, or equals, the engine's current one: boot, `update`, `load`, and
//! any run under the base configuration, whatever its deadline — is
//! pinned ([`SummaryCache::commit_live`]). The pinned set is replaced by each
//! live commit, so it is exactly the live program's entries, and
//! eviction never touches it: an edit misses only the units whose keys
//! it changed, however large the program. A run that reused the live
//! analysis moves only the pins of the units whose keys changed; pins
//! are counted per key, since two procedures with one text share a key.
//!
//! The bound ([`SummaryCache::with_capacity`]) counts only *superseded*
//! entries — those the live program no longer looks up — and evicts the
//! oldest of them first (they are kept ordered by insertion, so an
//! eviction visits only what it evicts): admission control bounds the
//! request queue, this bounds the memory a long-lived daemon accretes on
//! top of the live program.

use crate::config::{Config, PanicInjection, Stage};
use crate::health::Governor;
use crate::jump::ProcSymbolic;
use crate::solver::SccWork;
use crate::{Analysis, JumpFn};
use ipcp_analysis::{calls_from, ref_bindings, rekey, summary_keys, CallGraph, ConeKeys, ModSet};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::hash::Fnv128;
use ipcp_ir::program::{ProcId, SlotLayout};
use ipcp_ir::Table;
use std::collections::{BTreeMap, HashMap, VecDeque};
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

/// One live entry: the summary, whether it was restored from a persisted
/// store (rather than computed by this process) — restored entries are
/// counted separately on a hit so the payoff of persistence is
/// observable — and its insertion sequence number, its FIFO position.
#[derive(Debug)]
struct CacheEntry {
    summary: CachedSummary,
    recovered: bool,
    seq: u64,
}

/// The daemon-lifetime summary cache. See the module docs.
#[derive(Debug)]
pub struct SummaryCache {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Insertions in FIFO order, by sequence number. A position whose
    /// entry was evicted (or evicted and inserted again, later) is stale
    /// and skipped; stale positions are dropped once they outnumber the
    /// live ones.
    order: VecDeque<(u64, CacheKey)>,
    next_seq: u64,
    /// Every key the latest live request looked up: the entries the
    /// current program uses, which eviction never touches.
    pinned: PinSet,
    /// The entries whose key is not pinned, by sequence number — what the
    /// bound counts and evicts oldest first, kept current by every
    /// insert, pin move and eviction, so an eviction visits only what it
    /// evicts.
    unpinned: BTreeMap<u64, CacheKey>,
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
            next_seq: 0,
            pinned: PinSet::default(),
            unpinned: BTreeMap::new(),
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
    /// Every entry is kept, however many: nothing is pinned yet, so the
    /// bound cannot tell the program's entries from superseded ones. The
    /// boot run's live commit pins what it looked up, and only then does
    /// the bound apply, to the superseded entries.
    pub fn restore(entries: Vec<(CacheKey, CachedSummary)>, capacity: usize) -> SummaryCache {
        let mut cache = SummaryCache::with_capacity(capacity);
        for (key, summary) in entries {
            cache.insert_entry(key, summary, true);
        }
        cache.stats = CacheStats {
            recovered: cache.entries.len() as u64,
            ..CacheStats::default()
        };
        cache
    }

    /// The live entries in FIFO (insertion) order — the order a snapshot
    /// persists, so restore + re-encode is byte-identical.
    pub fn iter_fifo(&self) -> impl Iterator<Item = (CacheKey, &CachedSummary)> {
        self.order.iter().filter_map(|&(seq, k)| {
            let e = self.entries.get(&k).filter(|e| e.seq == seq)?;
            Some((k, &e.summary))
        })
    }

    /// Inserts an entry; a key already present keeps its FIFO position.
    fn insert_entry(&mut self, key: CacheKey, summary: CachedSummary, recovered: bool) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.summary = summary;
            e.recovered = recovered;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = CacheEntry {
            summary,
            recovered,
            seq,
        };
        self.entries.insert(key, entry);
        self.order.push_back((seq, key));
        if !self.pinned.contains(&key) {
            self.unpinned.insert(seq, key);
        }
    }

    fn pin(&mut self, key: CacheKey) {
        if self.pinned.pin(key) {
            if let Some(e) = self.entries.get(&key) {
                self.unpinned.remove(&e.seq);
            }
        }
    }

    fn unpin(&mut self, key: CacheKey) {
        if self.pinned.unpin(key) {
            if let Some(e) = self.entries.get(&key) {
                self.unpinned.insert(e.seq, key);
            }
        }
    }

    /// Evicts the oldest unpinned entries until at most `capacity` are
    /// left, keeping the FIFO order of the rest.
    fn evict(&mut self) {
        while self.unpinned.len() > self.capacity {
            let Some((_, key)) = self.unpinned.pop_first() else {
                break;
            };
            self.entries.remove(&key);
            self.stats.evictions += 1;
        }
        if self.order.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.order
                .retain(|(seq, k)| entries.get(k).is_some_and(|e| e.seq == *seq));
        }
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
            self.insert_entry(key, value, false);
        }
        if live {
            match txn.repin {
                Some(repin) => {
                    repin.unpin.into_iter().for_each(|k| self.unpin(k));
                    repin.pin.into_iter().for_each(|k| self.pin(k));
                }
                None => {
                    self.pinned = PinSet::default();
                    self.unpinned = self.entries.iter().map(|(&k, e)| (e.seq, k)).collect();
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
    /// Which path the run took.
    pub path: RunPath,
    /// For a run that visits only its cone, the units it noted.
    cone: Option<Visits>,
}

/// The units a run that visits only its cone noted: per family, and the
/// callers whose forward-jump unit it ran.
#[derive(Debug, Default)]
struct Visits {
    noted: [Vec<usize>; 3],
    fwd: Vec<usize>,
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

    /// [`CacheTxn::note`] for procedure `pi`'s `family` unit, also
    /// recorded in the run's memo log (a skipped unit as not looked up).
    pub(crate) fn note_unit(&mut self, family: SummaryStage, pi: usize, served: Served) {
        if let Some(log) = self.log.as_mut() {
            let (f, note) = (family.index(), Note::of(&served));
            if log.notes[f][pi] != note {
                log.notes[f].set(pi, note);
            }
            if let Some(cone) = self.cone.as_mut() {
                cone.noted[f].push(pi);
            }
        }
        self.note(served);
    }

    /// Starts the memo log of a run over `n_procs` procedures.
    pub(crate) fn start_log(&mut self, n_procs: usize) {
        self.log = Some(MemoLog::new(n_procs));
    }

    /// Ends the run's memo log with the run's `keys` over call graph `cg`.
    pub(crate) fn finish_log(&mut self, keys: KeySet, cg: &CallGraph) -> Option<MemoLog> {
        let mut log = self.log.take()?;
        log.keys = keys;
        log.tally = Tally::of(&log, cg);
        Some(log)
    }

    /// Starts a run that visits only its cone: its memo log starts as
    /// `prev`'s, the live analysis's, and only the units it notes move.
    pub(crate) fn start_cone(&mut self, prev: &MemoLog) {
        self.log = Some(prev.clone());
        self.repin = Some(Repin::default());
        self.cone = Some(Visits::default());
    }

    /// Ends a run that visits only its cone. Every unit it did not note is
    /// the live run's clean unit with an unchanged key, which the plain
    /// path notes as a hit: the counters add those from `prev`'s tally,
    /// less the units the run noted. The log's tally moves by the noted
    /// units, and so do the pins. The walks charged what the units they
    /// did not visit charge ([`Unvisited`]).
    pub(crate) fn finish_cone(
        &mut self,
        keys: KeySet,
        prev: &MemoLog,
        cg: &CallGraph,
    ) -> Option<MemoLog> {
        let (mut log, cone) = (self.log.take()?, self.cone.take()?);
        log.keys = keys;
        for family in SummaryStage::ALL {
            let f = family.index();
            let (mut clean, mut recovered) = (prev.tally.clean[f], prev.tally.recovered[f]);
            for &pi in &cone.noted[f] {
                let was = prev.notes[f][pi];
                if let Note::Clean { recovered: r } = was {
                    clean -= 1;
                    recovered -= u64::from(r);
                }
                log.tally.note(family, was, -1);
                log.tally.note(family, log.notes[f][pi], 1);
            }
            self.hits += clean;
            self.persisted_hits += recovered;
        }
        let tally = &mut log.tally;
        for &pi in &cone.noted[SummaryStage::RetJump.index()] {
            tally.ret.add(cg.scc_of[pi], &prev.ret_charges[pi], -1);
            tally.ret.add(cg.scc_of[pi], &log.ret_charges[pi], 1);
        }
        for &pi in &cone.fwd {
            let (was, now) = (&prev.fwd_charges[pi], &log.fwd_charges[pi]);
            was.iter().for_each(|c| tally.fwd.add(pi, c, -1));
            now.iter().for_each(|c| tally.fwd.add(pi, c, 1));
        }
        let mut units: Vec<usize> = cone.noted.concat();
        units.sort_unstable();
        units.dedup();
        self.repin = Some(log.repin(prev, &units));
        Some(log)
    }

    /// Records the governor charges of procedure `pi`'s clean
    /// return-jump unit in the run's memo log.
    pub(crate) fn log_ret_charges(&mut self, pi: usize, charges: Charges) {
        if let Some(log) = self.log.as_mut() {
            log.ret_charges.set(pi, charges);
        }
    }

    /// Records the run's per-SCC solver work in its memo log.
    pub(crate) fn log_solve(&mut self, work: SccWork) {
        if let Some(log) = self.log.as_mut() {
            log.solve = work;
        }
    }

    /// Records the governor charges of caller `pi`'s forward-jump unit in
    /// the run's memo log — `None` when the unit did not run clean.
    pub(crate) fn log_fwd_charges(&mut self, pi: usize, charges: Option<Charges>) {
        if let Some(log) = self.log.as_mut() {
            log.fwd_charges.set(pi, charges);
            if let Some(cone) = self.cone.as_mut() {
                cone.fwd.push(pi);
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
    /// `own[i]`: content hash of procedure `i`'s printed text.
    pub own: &'a Table<u128>,
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
    fn of(served: &Served) -> Note {
        match served {
            Served::Skipped => Note::Skipped,
            Served::Hit { recovered, .. } => Note::Clean {
                recovered: *recovered,
            },
            Served::Miss { entry: None, .. } => Note::Dirty,
            Served::Miss { .. } | Served::Carried { .. } => Note::Clean { recovered: false },
        }
    }

    fn clean(self) -> bool {
        matches!(self, Note::Clean { .. })
    }
}

/// What a memoized run leaves in its [`Analysis`] for the next run over
/// the same program shape to reuse ([`Reuse`]): its keys, how each unit of
/// each family was served, and the governor charges of its clean
/// return-jump and forward-jump units, replayed when those units are
/// reused. Every table is a chunked copy-on-write [`Table`], so a run that
/// reuses the live log copies only the chunks of the units it visits; the
/// [`Tally`] sums what a visit adjusts.
#[derive(Clone, Debug)]
pub(crate) struct MemoLog {
    keys: KeySet,
    /// `notes[family][p]`, families in [`SummaryStage`] order.
    notes: [Table<Note>; 3],
    /// Per procedure: the charges of its clean return-jump unit.
    ret_charges: Table<Charges>,
    /// Per caller: the charges of its forward-jump unit, when it ran clean
    /// on a caller no earlier stage quarantined.
    fwd_charges: Table<Option<Charges>>,
    /// Per SCC: the `meets` and `iterations` its solver unit added.
    solve: SccWork,
    tally: Tally,
}

/// Sums over a [`MemoLog`]'s tables: what the units a run does not visit
/// contribute to its counters and its governor, by subtraction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Per family: units noted `Clean`, and of those, restored ones.
    clean: [u64; 3],
    recovered: [u64; 3],
    /// Recorded return-jump charges, by SCC, and forward-jump charges, by
    /// caller.
    ret: Charged,
    fwd: Charged,
}

impl Tally {
    fn of(log: &MemoLog, cg: &CallGraph) -> Tally {
        let mut t = Tally::default();
        for family in SummaryStage::ALL {
            for note in &log.notes[family.index()] {
                t.note(family, *note, 1);
            }
        }
        for (pi, c) in log.ret_charges.iter().enumerate() {
            t.ret.add(cg.scc_of[pi], c, 1);
        }
        for (pi, c) in log.fwd_charges.iter().enumerate() {
            c.iter().for_each(|c| t.fwd.add(pi, c, 1));
        }
        t
    }

    /// Counts `note` in `family` `sign` times (`-1` takes it out).
    fn note(&mut self, family: SummaryStage, note: Note, sign: i64) {
        if let Note::Clean { recovered } = note {
            let f = family.index();
            self.clean[f] = self.clean[f].wrapping_add_signed(sign);
            self.recovered[f] = self.recovered[f].wrapping_add_signed(sign * i64::from(recovered));
        }
    }
}

/// One stage's summed recorded charges, and a position, in sequential
/// unit order, at or past the last one that recorded any.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Charged {
    sum: Charges,
    last: Option<usize>,
}

impl Charged {
    /// Adds (`sign` 1) or takes out (`-1`) charges `c` recorded at `pos`.
    fn add(&mut self, pos: usize, c: &Charges, sign: i64) {
        add(&mut self.sum, c, sign);
        if sign > 0 && c.iter().any(|&n| n > 0) {
            self.last = self.last.max(Some(pos));
        }
    }
}

/// What the units one stage's cone walk skips charge, as one batch. Each
/// is the live run's clean unit, whose recorded charges the plain path
/// replays, and none lies past the last charged position. So the batch
/// goes in before the first visited unit at or past it, and every visited
/// unit from there on charges at its sequential offset: a trip lands where
/// a cold run puts it. A unit visited earlier charges below its offset,
/// which is the same run when the batch replays: no charge before it
/// trips. A batch that does not replay sends the run to the plain path.
#[derive(Debug)]
pub(crate) struct Unvisited(Charged, bool);

impl Unvisited {
    /// Takes the live charges of the units at `pos`, which the walk visits
    /// next, out of the batch, and charges the batch at the last charged
    /// position. `false` when it does not replay.
    pub(crate) fn visit<'c>(
        &mut self,
        gov: &mut Governor,
        pos: usize,
        live: impl IntoIterator<Item = &'c Charges>,
    ) -> bool {
        live.into_iter().for_each(|c| add(&mut self.0.sum, c, -1));
        if self.1 || self.0.last.is_some_and(|last| pos < last) {
            return true;
        }
        self.1 = true;
        gov.replay(&self.0.sum)
    }

    /// Charges the batch at the end of a walk that did not reach the last
    /// charged position. `false` when it does not replay.
    pub(crate) fn finish(self, gov: &mut Governor) -> bool {
        self.1 || gov.replay(&self.0.sum)
    }
}

/// `acc += sign * c`, stage by stage.
fn add(acc: &mut Charges, c: &Charges, sign: i64) {
    for (a, &c) in acc.iter_mut().zip(c) {
        *a = a.wrapping_add_signed(sign * c as i64);
    }
}

impl MemoLog {
    fn new(n_procs: usize) -> MemoLog {
        MemoLog {
            keys: KeySet::default(),
            notes: std::array::from_fn(|_| Table::filled(n_procs, Note::Skipped)),
            ret_charges: Table::filled(n_procs, Charges::default()),
            fwd_charges: Table::filled(n_procs, None),
            solve: SccWork::new(),
            tally: Tally::default(),
        }
    }

    /// Every table of the log and its keys: name, whether it is indexed by
    /// SCC (rather than by procedure), and its chunk addresses.
    #[cfg(test)]
    pub(crate) fn chunk_tables(&self) -> Vec<(&'static str, bool, Vec<usize>)> {
        let k = &self.keys;
        vec![
            ("memo.notes.modref", false, self.notes[0].chunk_addrs()),
            ("memo.notes.retjump", false, self.notes[1].chunk_addrs()),
            ("memo.notes.jump", false, self.notes[2].chunk_addrs()),
            ("memo.ret_charges", false, self.ret_charges.chunk_addrs()),
            ("memo.fwd_charges", false, self.fwd_charges.chunk_addrs()),
            ("memo.solve", true, self.solve.chunk_addrs()),
            ("keys.own", false, k.own.chunk_addrs()),
            ("keys.cone", false, k.cone.chunk_addrs()),
            ("keys.scc_cone", true, k.scc_cone.chunk_addrs()),
            ("keys.own_digests", false, k.digests[0].chunk_addrs()),
            ("keys.cone_digests", false, k.digests[1].chunk_addrs()),
        ]
    }

    /// The procedures whose `family` unit the run did not serve cleanly,
    /// ascending.
    fn unclean(&self, family: SummaryStage) -> impl Iterator<Item = usize> + '_ {
        let notes = &self.notes[family.index()];
        (0..notes.len()).filter(move |&pi| !notes[pi].clean())
    }

    /// Unit `(family, pi)`'s cache key, if the run looked it up.
    fn looked_up(&self, family: SummaryStage, pi: usize) -> Option<CacheKey> {
        (self.notes[family.index()][pi] != Note::Skipped).then(|| self.keys.key(family, pi))
    }

    /// The pins that move from `prev`'s run to this one: the looked-up
    /// keys of every unit among `units` whose key or lookup changed.
    fn repin(&self, prev: &MemoLog, units: &[usize]) -> Repin {
        let mut repin = Repin::default();
        for family in SummaryStage::ALL {
            let f = family.index();
            for &pi in units {
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

/// Every unit's key material for one program: the own hashes, the cone
/// hashes per procedure and per SCC, the shape fingerprint, and each
/// unit's digest (content mixed with the shape) — MOD/REF by the
/// procedure's own text, the other families by its callee cone.
#[derive(Clone, Debug, Default)]
pub(crate) struct KeySet {
    pub(crate) shape: u128,
    own: Table<u128>,
    cone: Table<u128>,
    scc_cone: Table<u128>,
    /// `[own-text digests, cone digests]`, per procedure.
    digests: [Table<u128>; 2],
}

impl KeySet {
    fn new(cg: &CallGraph, own: &Table<u128>, shape: u128) -> KeySet {
        let raw = summary_keys(cg, &own.to_vec());
        let digests = [&raw.own, &raw.cone].map(|c| c.iter().map(|&c| mix(shape, c)).collect());
        KeySet {
            shape,
            own: own.clone(),
            cone: raw.cone.into(),
            scc_cone: raw.scc_cone.into(),
            digests,
        }
    }

    /// `prev`'s key set for the same shape and call graph with the own
    /// hashes `own`, which differ from `prev`'s at `edited` only: only the
    /// SCCs above the edits are rehashed ([`rekey`]). Also returns every
    /// procedure whose own or cone digest moved, ascending.
    fn update(
        prev: &KeySet,
        cg: &CallGraph,
        own: &Table<u128>,
        edited: &[usize],
    ) -> (KeySet, Vec<usize>) {
        let mut keys = KeySet {
            own: own.clone(),
            ..prev.clone()
        };
        for &p in edited {
            keys.digests[0].set(p, mix(keys.shape, own[p]));
        }
        let mut rekeyed = Rekeyed {
            keys: &mut keys,
            moved: edited.to_vec(),
        };
        rekey(cg, &mut rekeyed, edited);
        let mut moved = rekeyed.moved;
        moved.sort_unstable();
        moved.dedup();
        (keys, moved)
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

/// A [`KeySet`] being rekeyed, collecting the procedures whose cone
/// digest moved.
struct Rekeyed<'k> {
    keys: &'k mut KeySet,
    moved: Vec<usize>,
}

impl ConeKeys for Rekeyed<'_> {
    fn own(&self, p: usize) -> u128 {
        self.keys.own[p]
    }

    fn scc_cone(&self, si: usize) -> u128 {
        self.keys.scc_cone[si]
    }

    fn set_scc_cone(&mut self, si: usize, hash: u128) {
        self.keys.scc_cone.set(si, hash);
    }

    fn set_cone(&mut self, p: usize, hash: u128) {
        if self.keys.cone[p] != hash {
            self.keys.cone.set(p, hash);
            self.keys.digests[1].set(p, mix(self.keys.shape, hash));
            self.moved.push(p);
        }
    }
}

/// The read side of a memo: the cache and every unit's key. Units consult
/// it from inside pool rounds, so it only ever reads.
#[derive(Debug)]
pub(crate) struct MemoKeys<'a> {
    cache: &'a SummaryCache,
    pub(crate) keys: KeySet,
    /// For a run that reuses the live analysis, every procedure whose own
    /// or cone digest moved, ascending.
    pub(crate) moved: Vec<usize>,
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
        let (keys, moved) = match reuse {
            Some(r) => KeySet::update(&r.log.keys, cg, memo.own, &r.edited),
            None => (
                KeySet::new(cg, memo.own, shape_fingerprint(mcfg, config)),
                Vec::new(),
            ),
        };
        MemoKeys {
            cache: memo.cache,
            keys,
            moved,
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
/// analysis the engine serves and the own hashes of its procedures.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Live<'a> {
    /// The live module.
    pub(crate) mcfg: &'a ModuleCfg,
    /// The live analysis of `mcfg`.
    pub(crate) analysis: &'a Analysis,
    /// `own[i]`: content hash of live procedure `i`'s printed text.
    pub(crate) own: &'a Table<u128>,
}

/// Which path a memoized run took: the live path, which reuses the live
/// analysis, or the plain memoized path, named by the precondition that
/// failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RunPath {
    /// The run reused the live analysis and visited only its cone.
    Live,
    /// The run's configuration is not the live analysis's (an override,
    /// or a configuration that bypasses the cache).
    Config,
    /// There was no memoized live analysis: the boot run, or a live
    /// analysis computed without the cache.
    #[default]
    NoLog,
    /// The program shape moved: globals, or procedure names or arities.
    Shape,
    /// An edited procedure's call edges moved.
    CallEdges,
    /// An edit moved the MOD/REF stage's product (the propagated sets or
    /// a unit's quarantine), which every later stage reads.
    ModRef,
    /// A stage's batch of the charges its unvisited units make would cross
    /// a budget or an injected fault before the cone's first unit at its
    /// sequential offset: the plain path charges unit by unit and trips
    /// where a cold run trips.
    Trip,
}

impl RunPath {
    /// Every path, in declaration order.
    pub const ALL: [RunPath; 7] = [
        RunPath::Live,
        RunPath::Config,
        RunPath::NoLog,
        RunPath::Shape,
        RunPath::CallEdges,
        RunPath::ModRef,
        RunPath::Trip,
    ];

    /// Stable protocol label.
    pub fn label(self) -> &'static str {
        match self {
            RunPath::Live => "live",
            RunPath::Config => "config",
            RunPath::NoLog => "no_log",
            RunPath::Shape => "shape",
            RunPath::CallEdges => "call_edges",
            RunPath::ModRef => "mod_ref",
            RunPath::Trip => "trip",
        }
    }
}

/// A run's license to reuse the live analysis stage by stage.
///
/// It exists only when the live analysis was memoized under this very
/// configuration (its deadline aside), the program shape is unchanged, and every edited
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
    /// The procedures whose own text moved, ascending.
    edited: Vec<usize>,
}

impl<'a> Reuse<'a> {
    /// The license for a run of `config` over `mcfg` (own hashes `own`),
    /// or the precondition that fails. Visits the procedures of the table
    /// chunks `mcfg` and `own` do not share with the live ones.
    pub(crate) fn check(
        mcfg: &ModuleCfg,
        config: &Config,
        own: &Table<u128>,
        live: Live<'a>,
    ) -> Result<Reuse<'a>, RunPath> {
        if !same_config(&live.analysis.config, config) {
            return Err(RunPath::Config);
        }
        let log = live.analysis.memo_log.as_ref().ok_or(RunPath::NoLog)?;
        let n = mcfg.module.procs.len();
        // The live run's configuration and this shape give `log.shape`.
        let (old, new) = (&live.mcfg.module, &mcfg.module);
        let same_shape = old.globals == new.globals
            && old.procs.len() == n
            && live.own.len() == n
            && own.len() == n
            && new.procs.unshared(&old.procs).all(|p| {
                let (a, b) = (&old.procs[p], &new.procs[p]);
                Arc::ptr_eq(a, b) || (a.name == b.name && a.arity() == b.arity())
            });
        if !same_shape {
            return Err(RunPath::Shape);
        }
        let edited: Vec<usize> = own
            .unshared(live.own)
            .filter(|&p| own[p] != live.own[p])
            .collect();
        let cg = &live.analysis.cg;
        let same_edges = edited.iter().all(|&p| {
            let p = ProcId::from(p);
            calls_from(mcfg, p).as_slice() == cg.calls_from(p)
        });
        if !same_edges {
            return Err(RunPath::CallEdges);
        }
        let formal_names = |m: &'_ ModuleCfg, p: usize| {
            let proc = &m.module.procs[p];
            proc.formals
                .iter()
                .map(|&v| proc.var(v).name.clone())
                .collect::<Vec<_>>()
        };
        let renamed = edited
            .iter()
            .any(|&p| formal_names(mcfg, p) != formal_names(live.mcfg, p));
        let layout = if renamed {
            Arc::new(SlotLayout::new(&mcfg.module))
        } else {
            Arc::clone(&live.analysis.layout)
        };
        Ok(Reuse {
            live: live.analysis,
            layout,
            live_mcfg: live.mcfg,
            log,
            edited,
        })
    }

    /// Whether procedure `pi`'s own text moved.
    fn is_edited(&self, pi: usize) -> bool {
        self.edited.binary_search(&pi).is_ok()
    }

    /// The procedures whose own text moved, ascending.
    pub(crate) fn edited(&self) -> &[usize] {
        &self.edited
    }

    /// The live analysis's memo log.
    pub(crate) fn log(&self) -> &'a MemoLog {
        self.log
    }

    /// Whether procedure `pi`'s `family` unit is clean (see the type docs).
    pub(crate) fn clean(&self, memo: &MemoKeys<'_>, family: SummaryStage, pi: usize) -> bool {
        !self.is_edited(pi)
            && self.log.notes[family.index()][pi].clean()
            && !memo.forced(family, pi)
    }

    /// Whether the live run had no degradation event: every unit it
    /// looked up then ran clean, and none was quarantined.
    pub(crate) fn regular(&self) -> bool {
        self.live.health.events.is_empty()
    }

    /// The procedures whose `family` unit the live run did not serve
    /// cleanly, ascending — none for a regular live run.
    pub(crate) fn unclean(&self, family: SummaryStage) -> Vec<usize> {
        match self.regular() {
            true => Vec::new(),
            false => self.log.unclean(family).collect(),
        }
    }

    /// The callers whose live forward-jump unit did not run clean,
    /// ascending — none for a regular live run.
    pub(crate) fn fwd_unclean(&self) -> Vec<usize> {
        match self.regular() {
            true => Vec::new(),
            false => {
                let charges = &self.log.fwd_charges;
                (0..charges.len())
                    .filter(|&p| charges[p].is_none())
                    .collect()
            }
        }
    }

    /// Whether procedure `pi`'s live return jump functions are degraded or
    /// read a degraded result: its unit was not served cleanly.
    pub(crate) fn live_bad(&self, pi: usize) -> bool {
        !self.log.notes[SummaryStage::RetJump.index()][pi].clean()
    }

    /// Whether the live run's MOD/REF stage quarantined procedure `pi`:
    /// its unit was not served cleanly.
    pub(crate) fn live_modref_quarantined(&self, pi: usize) -> bool {
        !self.log.notes[SummaryStage::ModRef.index()][pi].clean()
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
        if !self.live_modref_quarantined(pi) {
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
        !self.is_edited(pi) || ref_bindings(mcfg, p) == ref_bindings(self.live_mcfg, p)
    }

    /// The charges of procedure `pi`'s clean live return-jump unit.
    pub(crate) fn ret_charges(&self, pi: usize) -> &Charges {
        &self.log.ret_charges[pi]
    }

    /// The return-jump and forward-jump charges of the units the cone
    /// walks skip.
    pub(crate) fn unvisited(&self) -> [Unvisited; 2] {
        [self.log.tally.ret, self.log.tally.fwd].map(|c| Unvisited(c, false))
    }

    /// The live run's per-SCC solver work, when it recorded one.
    pub(crate) fn solve_work(&self) -> Option<&'a SccWork> {
        Some(&self.log.solve).filter(|w| !w.is_empty())
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

/// Whether two configurations ask for the same analysis: equal but for
/// their wall-clock deadlines. A deadline bounds a run, and no unit's
/// result reads it, so it decides neither reuse nor pinning.
pub(crate) fn same_config(a: &Config, b: &Config) -> bool {
    Config {
        deadline: None,
        ..*a
    } == Config {
        deadline: None,
        ..*b
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
/// analysis computes except wall-clock observations (timings) — the whole
/// `VAL` sets with the solver's `meets` and `iterations`, which a run that
/// reuses the live solve must reproduce, and the call graph (edges,
/// reachability, SCCs) and the slot layout, which it shares instead of
/// rebuilding.
pub fn same_results(a: &Analysis, b: &Analysis) -> bool {
    a.vals == b.vals
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

    /// `n` charges on the return-jump stage.
    fn ret(n: u64) -> Charges {
        let mut c = Charges::default();
        c[Stage::ALL
            .iter()
            .position(|&s| s == Stage::RetJump)
            .unwrap()] = n;
        c
    }

    #[test]
    fn unvisited_charges_go_in_at_the_last_charged_position() {
        // Four units of two charges each, in sequential order; the fault
        // trips the sixth charge, in unit 2, and every later one. The live
        // run recorded the charges of the units before it.
        let mut gov = Governor::new(&Config::default().with_fault(Stage::RetJump, 6));
        let mut batch = Unvisited(
            Charged {
                sum: ret(4),
                last: Some(1),
            },
            false,
        );
        // The cone visits units 1, 2 and 3: unit 0's charges go in first,
        // so unit 1 charges at its offset, and unit 2 trips at its sixth.
        assert!(batch.visit(&mut gov, 1, [&ret(2)]));
        assert_eq!(gov.counters(), ret(2));
        gov.add_charges(&ret(2));
        assert!(batch.visit(&mut gov, 2, [&ret(0)]));
        assert!(gov.charge(Stage::RetJump));
        assert!(!gov.charge(Stage::RetJump), "the sixth charge trips");
        assert!(batch.finish(&mut gov), "charged once");

        // A visited unit that now charges more moves the trip before the
        // units it skips, which the batch cannot place.
        let mut gov = Governor::new(&Config::default().with_fault(Stage::RetJump, 10));
        let mut batch = Unvisited(
            Charged {
                sum: ret(8),
                last: Some(3),
            },
            false,
        );
        assert!(batch.visit(&mut gov, 0, [&ret(2)]));
        assert_eq!(gov.counters(), ret(0), "below the last charged position");
        gov.add_charges(&ret(5));
        assert!(!batch.finish(&mut gov), "5 + 6 charges reach the fault");
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

    /// A restore keeps every entry; the first live commit pins what the
    /// boot run looked up, and the bound then keeps the newest of the
    /// rest.
    #[test]
    fn restore_beyond_capacity_keeps_the_newest() {
        let entries: Vec<(CacheKey, CachedSummary)> =
            (0..6u128).map(|d| (key(d), entry())).collect();
        let mut cache = SummaryCache::restore(entries, 2);
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.stats().recovered, 6);
        assert_eq!(cache.stats().evictions, 0);
        let mut boot = CacheTxn::new();
        for d in [0u128, 1] {
            boot.note(Served::Hit {
                key: key(d),
                recovered: true,
            });
        }
        cache.commit_live(boot);
        assert_eq!(cache.len(), 4, "the pinned two plus the bound's two");
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.get(key(0)).is_some() && cache.get(key(1)).is_some());
        assert!(cache.get(key(2)).is_none() && cache.get(key(3)).is_none());
        assert!(cache.get(key(4)).is_some() && cache.get(key(5)).is_some());
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
