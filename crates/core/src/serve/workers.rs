//! The multi-worker read engine behind `ipcc serve --serve-workers N`.
//!
//! The serve engine splits requests into two classes. *Read* requests
//! (`constants` and `explain` without overrides, `health`, `stats`)
//! answer from the warm analysis and touch nothing; *writer* requests
//! (`update`, `load`, `analyze`, anything with a config override) go
//! through the engine's snapshot–validate–commit path. This module lets
//! the reads run concurrently without a single lock:
//!
//! * [`Snapshot`] is an immutable view of the engine's committed state —
//!   the module, the warm analysis, the last outcome, and the telemetry
//!   counters — built by [`ServeEngine::snapshot`] after every committed
//!   writer operation. Everything heavy is behind an [`Arc`], so taking
//!   a snapshot is O(1) in the program size.
//! * [`EpochCell`] publishes the current snapshot to the readers with a
//!   seqlock-style epoch gate built from one atomic word: readers enter
//!   and leave by bumping a reader count, a writer claims an exclusive
//!   epoch by setting the writer bit and waiting for the count to drain.
//!   A reader therefore always observes one fully committed snapshot —
//!   never a half-replaced one — and the whole cell is Mutex-free, per
//!   the lock-free lint that covers this file.
//! * [`ReadPool`] owns the worker threads. Jobs are fanned out
//!   round-robin over per-worker channels; each job runs under the
//!   epoch gate and under a panic catch, so a crashing read request
//!   costs one structured answer, never a worker. [`ReadPool::quiesce`]
//!   is the writer's barrier: it returns once every submitted job has
//!   finished, which is what makes `update`/`load` an *exclusive* epoch
//!   and keeps replies serializable with the admission order.
//!
//! The identity contract survives by construction: the read path and
//! the engine path render answers through the same helpers
//! (`engine::constants_report` / `engine::explain_render`; by-name
//! `constants` takes an indexed fast path whose one hit is exactly the
//! declaration-order scan's result, since procedure names are unique).
//! A pooled answer is therefore byte-identical to the single-threaded
//! one — asserted differentially by `tests/serve.rs` at workers =
//! {1, 4} and by the `serve-bench` CI gate.

use crate::serve::cache::CacheStats;
use crate::serve::engine::{
    constants_report, explain_render, ConstantsReport, EngineStats, RequestOutcome, ServeError,
};
use crate::substitute::SubstitutionCounts;
use crate::Analysis;
use ipcp_ir::cfg::ModuleCfg;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{self, JoinHandle};

/// An immutable view of the engine's committed state, shared with the
/// read workers. Heavy members are `Arc`s of the values the engine
/// already holds, so building one never clones the program.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The lowered module the analysis ran over.
    pub mcfg: Arc<ModuleCfg>,
    /// The warm analysis under the base configuration.
    pub analysis: Arc<Analysis>,
    /// The most recent analyzing request's outcome (what a warm
    /// `constants` reply reports as its cache counters).
    pub outcome: RequestOutcome,
    /// Engine-lifetime request counters at publication time.
    pub stats: EngineStats,
    /// Cache telemetry at publication time.
    pub cache: CacheStats,
    /// Live cache entry count at publication time.
    pub cache_len: usize,
    /// The per-procedure substitution counts, computed on the first warm
    /// `constants` read and reused by every later one (they are a pure
    /// function of `(mcfg, analysis)`). Snapshots the engine takes of one
    /// analysis share the cell, and an `update` can fill it from the
    /// previous analysis's counts.
    counts: Arc<OnceLock<SubstitutionCounts>>,
}

impl Snapshot {
    /// Builds a snapshot from the engine's committed parts.
    pub fn new(
        mcfg: Arc<ModuleCfg>,
        analysis: Arc<Analysis>,
        outcome: RequestOutcome,
        stats: EngineStats,
        cache: CacheStats,
        cache_len: usize,
    ) -> Snapshot {
        Snapshot {
            mcfg,
            analysis,
            outcome,
            stats,
            cache,
            cache_len,
            counts: Arc::new(OnceLock::new()),
        }
    }

    /// This snapshot reading its substitution counts from `counts`.
    pub(crate) fn sharing_counts(mut self, counts: Arc<OnceLock<SubstitutionCounts>>) -> Snapshot {
        self.counts = counts;
        self
    }

    /// The per-procedure substitution counts of this snapshot's analysis,
    /// computed from scratch unless they already are.
    pub fn counts(&self) -> &SubstitutionCounts {
        self.counts
            .get_or_init(|| self.analysis.substitution_counts(&self.mcfg))
    }

    /// The per-procedure substitution counts if they are already known —
    /// computed by an earlier read, or carried over from the previous
    /// analysis by the `update` that produced this one.
    pub fn computed_counts(&self) -> Option<&SubstitutionCounts> {
        self.counts.get()
    }

    /// The substitution total for this snapshot.
    pub fn substituted(&self) -> usize {
        self.counts().total
    }

    /// `CONSTANTS(p)` from the warm analysis, plus the substitution
    /// total — the daemon's one answer to an override-free `constants`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `proc` names no procedure.
    pub fn constants(&self, proc: Option<&str>) -> Result<ConstantsReport, ServeError> {
        // By-name queries look the procedure up in the module's signature
        // table, shared with every snapshot and update of the program.
        // Procedure names are unique (a duplicate is a resolve error), so
        // the hit is exactly what the declaration-order scan in
        // `constants_report` would have produced.
        if let Some(want) = proc {
            let Some(p) = self.mcfg.module.proc_named(want) else {
                return Err(ServeError::BadRequest(format!(
                    "no procedure named `{want}`"
                )));
            };
            return Ok(ConstantsReport {
                procs: vec![(p.name.clone(), self.analysis.constants_of(&self.mcfg, p.id))],
                substituted: self.substituted(),
            });
        }
        constants_report(&self.mcfg, &self.analysis, proc, self.substituted())
    }

    /// The `ipcc explain` derivation text from the warm analysis — the
    /// daemon's one answer to `explain`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `proc` or `slot` is unknown.
    pub fn explain(
        &self,
        proc: &str,
        slot: Option<&str>,
        depth: usize,
    ) -> Result<String, ServeError> {
        explain_render(&self.mcfg, &self.analysis, proc, slot, depth)
    }
}

/// The writer bit of [`EpochCell::state`]; reader entries add
/// [`READER`] so the count and the bit never collide.
const WRITER: u64 = 1;
/// One reader's contribution to the state word.
const READER: u64 = 2;

/// A lock-free publication cell: one value, many concurrent readers,
/// one writer at a time, no `Mutex`.
///
/// The protocol is a seqlock turned inside out. `state` packs a writer
/// bit (bit 0) and a reader count (bits 1..): a reader increments the
/// count and backs off if the writer bit was already set; the writer
/// sets the bit (blocking new readers), waits for the count to drain to
/// zero, replaces the value while provably alone, bumps `epoch`, and
/// clears the bit. Readers therefore hold a stable `&T` for the whole
/// closure — an in-flight `update` can never expose a half-committed
/// snapshot — and a publication is an *exclusive epoch*: it happens
/// after every reader that entered before it and before every reader
/// that enters after it.
#[derive(Debug)]
pub struct EpochCell<T> {
    state: AtomicU64,
    epoch: AtomicU64,
    slot: UnsafeCell<T>,
}

// Safety: `slot` is only written inside `publish` while the writer bit
// excludes every reader (count drained, new entries spin), and only read
// inside `read` while the held reader count excludes the writer. The
// atomics provide the acquire/release edges between the two sides.
unsafe impl<T: Send + Sync> Sync for EpochCell<T> {}

impl<T> EpochCell<T> {
    /// A cell holding `value` at epoch 0.
    pub fn new(value: T) -> EpochCell<T> {
        EpochCell {
            state: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            slot: UnsafeCell::new(value),
        }
    }

    /// Runs `f` over the current value. The reference is stable for the
    /// whole call: publication waits for this reader to leave.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        loop {
            let before = self.state.fetch_add(READER, Ordering::AcqRel);
            if before & WRITER == 0 {
                break;
            }
            // A writer holds the epoch: back out and wait it out.
            self.state.fetch_sub(READER, Ordering::AcqRel);
            while self.state.load(Ordering::Acquire) & WRITER != 0 {
                thread::yield_now();
            }
        }
        // Leave the epoch even if `f` panics — a stuck reader count
        // would wedge every future publication.
        struct Exit<'a>(&'a AtomicU64);
        impl Drop for Exit<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(READER, Ordering::AcqRel);
            }
        }
        let _exit = Exit(&self.state);
        // Safety: the held reader count keeps `publish` out of `slot`.
        f(unsafe { &*self.slot.get() })
    }

    /// Replaces the value under an exclusive epoch: claims the writer
    /// bit, waits for every active reader to leave, swaps, and bumps
    /// the epoch counter.
    pub fn publish(&self, value: T) {
        while self.state.fetch_or(WRITER, Ordering::AcqRel) & WRITER != 0 {
            thread::yield_now();
        }
        while self.state.load(Ordering::Acquire) != WRITER {
            thread::yield_now();
        }
        // Safety: writer bit set and reader count zero — this thread is
        // provably alone in the cell.
        unsafe {
            *self.slot.get() = value;
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.state.fetch_and(!WRITER, Ordering::Release);
    }

    /// How many publications have committed. Readers can compare epochs
    /// across reads; a single read never spans two.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// A read job: runs against the published snapshot, replies through
/// whatever sink it captured.
pub type ReadJob = Box<dyn FnOnce(&Snapshot) + Send + 'static>;

/// Shared pool telemetry. `submitted`/`completed` drive
/// [`ReadPool::quiesce`]; the rest surfaces in `stats`.
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Jobs handed to the pool.
    pub submitted: AtomicU64,
    /// Jobs fully executed (reply sent or panic contained).
    pub completed: AtomicU64,
    /// Structured errors the read path answered (unknown procedure,
    /// missing field, …) — the read-side share of `stats.errors`.
    pub read_errors: AtomicU64,
    /// Read jobs whose execution panicked and was contained.
    pub panics: AtomicU64,
}

/// The pool of read workers. One instance per daemon; the transport
/// loop is the only submitter and the only publisher, so `submit` takes
/// `&mut self` while reads and publication stay shareable.
#[derive(Debug)]
pub struct ReadPool {
    cell: Arc<EpochCell<Snapshot>>,
    counters: Arc<PoolCounters>,
    senders: Vec<Sender<ReadJob>>,
    handles: Vec<JoinHandle<()>>,
    next: usize,
}

impl ReadPool {
    /// Spawns `workers` read threads (at least one) over `initial` as
    /// the first published snapshot.
    pub fn new(workers: usize, initial: Snapshot) -> ReadPool {
        let workers = workers.max(1);
        let cell = Arc::new(EpochCell::new(initial));
        let counters = Arc::new(PoolCounters::default());
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx): (Sender<ReadJob>, Receiver<ReadJob>) = mpsc::channel();
            let cell = Arc::clone(&cell);
            let counters = Arc::clone(&counters);
            handles.push(thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cell.read(|snap| job(snap));
                    }));
                    if caught.is_err() {
                        counters.panics.fetch_add(1, Ordering::AcqRel);
                    }
                    counters.completed.fetch_add(1, Ordering::AcqRel);
                }
            }));
            senders.push(tx);
        }
        ReadPool {
            cell,
            counters,
            senders,
            handles,
            next: 0,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The shared counters (cloneable handle; survives shutdown).
    pub fn counters(&self) -> Arc<PoolCounters> {
        Arc::clone(&self.counters)
    }

    /// The publication cell (for tests that exercise the epoch gate
    /// directly).
    pub fn cell(&self) -> Arc<EpochCell<Snapshot>> {
        Arc::clone(&self.cell)
    }

    /// Enqueues one read job, round-robin over the workers. If the
    /// target worker is gone the job runs on the caller instead — a
    /// request is never silently dropped.
    pub fn submit(&mut self, job: ReadJob) {
        self.counters.submitted.fetch_add(1, Ordering::AcqRel);
        let n = self.senders.len();
        let target = self.next % n;
        self.next = self.next.wrapping_add(1);
        if let Err(mpsc::SendError(job)) = self.senders[target].send(job) {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.cell.read(|snap| job(snap));
            }));
            if caught.is_err() {
                self.counters.panics.fetch_add(1, Ordering::AcqRel);
            }
            self.counters.completed.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Runs `f` against the published snapshot on the caller's thread,
    /// under the same epoch gate as the workers.
    pub fn read<R>(&self, f: impl FnOnce(&Snapshot) -> R) -> R {
        self.cell.read(f)
    }

    /// The writer barrier: returns once every submitted job has
    /// executed. Called before a writer request so `update`/`load` see
    /// an exclusive epoch and replies stay in admission order across
    /// the read/write boundary.
    pub fn quiesce(&self) {
        while self.counters.completed.load(Ordering::Acquire)
            < self.counters.submitted.load(Ordering::Acquire)
        {
            thread::yield_now();
        }
    }

    /// Publishes a fresh snapshot (after a committed writer operation).
    pub fn publish(&self, snapshot: Snapshot) {
        self.cell.publish(snapshot);
    }

    /// Stops the workers: closes every queue and joins. Pending jobs
    /// finish first.
    pub fn shutdown(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ReadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn epoch_cell_readers_never_observe_a_torn_value() {
        // Publish arrays whose elements must all agree; hammer readers
        // while a writer republishes. Any torn read breaks the
        // all-equal invariant.
        let cell = Arc::new(EpochCell::new(vec![0u64; 64]));
        let stop = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                let mut seen = 0u64;
                while stop.load(Ordering::Acquire) == 0 {
                    cell.read(|v| {
                        assert!(v.iter().all(|&x| x == v[0]), "torn read: {v:?}");
                        seen = seen.max(v[0]);
                    });
                }
                seen
            }));
        }
        for k in 1..=200u64 {
            cell.publish(vec![k; 64]);
        }
        assert_eq!(cell.epoch(), 200);
        stop.store(1, Ordering::Release);
        for r in readers {
            let seen = r.join().unwrap();
            assert!(seen <= 200);
        }
    }

    #[test]
    fn epoch_cell_publish_waits_for_an_active_reader() {
        let cell = Arc::new(EpochCell::new(7u64));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let reader = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.read(|&v| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    v
                })
            })
        };
        entered_rx.recv().unwrap();
        let publisher = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.publish(8))
        };
        // The publisher must be excluded while the reader is inside.
        thread::sleep(Duration::from_millis(100));
        assert_eq!(cell.epoch(), 0, "publish slipped past an active reader");
        release_tx.send(()).unwrap();
        assert_eq!(reader.join().unwrap(), 7, "reader saw the old value");
        publisher.join().unwrap();
        assert_eq!(cell.epoch(), 1);
        cell.read(|&v| assert_eq!(v, 8));
    }

    #[test]
    fn epoch_cell_read_survives_a_panicking_closure() {
        let cell = EpochCell::new(1u64);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.read(|_| panic!("boom"));
        }));
        assert!(caught.is_err());
        // The reader count was released by the guard: publishing and
        // reading still work.
        cell.publish(2);
        cell.read(|&v| assert_eq!(v, 2));
    }

    fn test_snapshot() -> Snapshot {
        let src = "proc main() { print 1; }";
        let module = ipcp_ir::parse_and_resolve(src).unwrap();
        let mcfg = Arc::new(ipcp_ir::lower_module(&module));
        let config = crate::Config::default();
        let analysis = Arc::new(Analysis::run(&mcfg, &config));
        Snapshot::new(
            mcfg,
            analysis,
            RequestOutcome::default(),
            EngineStats::default(),
            CacheStats::default(),
            0,
        )
    }

    #[test]
    fn pool_executes_jobs_contains_panics_and_quiesces() {
        let mut pool = ReadPool::new(4, test_snapshot());
        assert_eq!(pool.workers(), 4);
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 0..32 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move |snap| {
                assert_eq!(snap.mcfg.module.procs.len(), 1);
                if i % 8 == 3 {
                    panic!("injected read panic");
                }
                hits.fetch_add(1, Ordering::AcqRel);
            }));
        }
        pool.quiesce();
        let counters = pool.counters();
        assert_eq!(counters.submitted.load(Ordering::Acquire), 32);
        assert_eq!(counters.completed.load(Ordering::Acquire), 32);
        assert_eq!(counters.panics.load(Ordering::Acquire), 4);
        assert_eq!(hits.load(Ordering::Acquire), 28);
        // The pool still serves after contained panics.
        let hits2 = Arc::clone(&hits);
        pool.submit(Box::new(move |_| {
            hits2.fetch_add(1, Ordering::AcqRel);
        }));
        pool.quiesce();
        assert_eq!(hits.load(Ordering::Acquire), 29);
        pool.shutdown();
    }

    #[test]
    fn pool_zero_workers_clamps_to_one() {
        let mut pool = ReadPool::new(0, test_snapshot());
        assert_eq!(pool.workers(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(Box::new(move |_| {
            d.fetch_add(1, Ordering::AcqRel);
        }));
        pool.quiesce();
        assert_eq!(done.load(Ordering::Acquire), 1);
    }

    #[test]
    fn snapshot_reads_match_the_lazy_substitution_total() {
        let snap = test_snapshot();
        let direct = snap.analysis.substitute(&snap.mcfg).total;
        assert_eq!(snap.substituted(), direct);
        let report = snap.constants(None).unwrap();
        assert_eq!(report.substituted, direct);
        assert!(snap.constants(Some("nope")).is_err());
        assert!(snap.explain("nope", None, 3).is_err());

        // The daemon's `constants` reply, from the snapshot or from a
        // one-off configuration, reports the materialized substitution
        // total.
        let src = "global g; proc main() { g = 2; call f(3); call f(3); } \
                   proc f(a) { print a + g; if (a > 1) { print a * g; } }";
        let mut engine = crate::ServeEngine::new(src, &crate::Config::default()).unwrap();
        let snap = engine.snapshot();
        let direct = snap.analysis.substitute(&snap.mcfg).total;
        assert!(direct > 0);
        assert_eq!(snap.substituted(), direct);
        assert_eq!(snap.constants(None).unwrap().substituted, direct);
        let report = engine.snapshot().constants(None).unwrap();
        assert_eq!(report.substituted, direct);
        let poly = crate::Config::polynomial();
        let (report, _) = engine.constants(Some("f"), poly).unwrap();
        let one_off = Analysis::run(&snap.mcfg, &poly)
            .substitute(&snap.mcfg)
            .total;
        assert_eq!(report.substituted, one_off);
    }
}
