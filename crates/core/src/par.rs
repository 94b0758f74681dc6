//! A dependency-free worker pool for the per-procedure phases.
//!
//! The repo is offline-vendored, so this is `std::thread::scope` plus an
//! atomic self-scheduling counter — no external crates, no channels, and
//! no locks. A [`Pool`] is only a participant count: each [`Pool::run`]
//! round opens one scope, spawns `min(jobs, n) - 1` workers, lets them
//! and the caller claim unit indices from a shared [`AtomicUsize`]
//! (`fetch_add` work stealing: a participant stuck on a heavy procedure
//! simply claims fewer units), and joins them before it returns. Nothing
//! outlives a round. A scoped spawn and join costs tens of microseconds,
//! and an analysis runs a few dozen rounds (one per return-jump SCC level,
//! plus one each for MOD/REF, symbolic evaluation and forward jump
//! functions): on a 10k-procedure program that is a few milliseconds of
//! a second. A small program with many narrow levels pays a larger share.
//!
//! Order of *execution* is nondeterministic; order of *results* is
//! not — which is all the deterministic fold in
//! [`pipeline`](crate::pipeline) needs. [`Pool::ahead`] is the fold's one
//! scheduling decision: units run ahead of the fold only on a pool with
//! workers; on a pool without, the fold runs each unit on the master
//! governor and commits it at once, which is the sequential loop.
//!
//! [`PhaseTime`] / [`Timings`] carry the wall-clock, per-worker busy
//! time, governor-shard absorb/replay counts of each phase, and the jump
//! phase's count of symbolic forms reused from the return-jump phase,
//! feeding the utilization columns of `ipcc tables`, `report_all`, and
//! `bench_par`.

use std::any::Any;
use std::panic;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Wall-clock and utilization accounting for one parallel (or sequential)
/// phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTime {
    /// Elapsed wall-clock time of the phase.
    pub wall: Duration,
    /// Summed busy time across workers (== `wall` when sequential).
    pub busy: Duration,
    /// Workers that participated (1 for the sequential path).
    pub workers: usize,
    /// Units of work (procedures, callers, or SCCs) processed.
    pub units: usize,
    /// Parallel-fold units whose optimistic governor shard merged
    /// cleanly (result kept as computed). 0 on the sequential path.
    pub absorbed: usize,
    /// Parallel-fold units discarded and replayed sequentially against
    /// the authoritative governor. 0 on the sequential path.
    pub replayed: usize,
    /// Procedures whose symbolic form the phase reused from the
    /// return-jump stage instead of evaluating it again (jump phase only).
    pub reused: usize,
}

impl PhaseTime {
    /// Accounting for a phase that ran on the sequential path.
    pub fn sequential(wall: Duration, units: usize) -> PhaseTime {
        PhaseTime {
            wall,
            busy: wall,
            workers: 1,
            units,
            absorbed: 0,
            replayed: 0,
            reused: 0,
        }
    }

    /// Extends a phase measured over its parallel rounds to the whole
    /// stage, which took `elapsed`: the sequential work between and after
    /// the rounds (commits, folds) counts as one busy worker.
    pub fn with_tail(mut self, elapsed: Duration) -> PhaseTime {
        let tail = elapsed.saturating_sub(self.wall);
        self.wall += tail;
        self.busy += tail;
        self
    }

    /// Fraction of worker capacity spent busy: `busy / (wall × workers)`.
    /// `1.0` for a perfectly balanced phase, lower when workers idle at
    /// the tail. `0.0` when the phase did not run.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / capacity).min(1.0)
    }

    /// Accumulates another measurement of the same phase (used when the
    /// gating loop re-runs the pipeline: times add, worker count takes
    /// the maximum).
    pub fn absorb(&mut self, other: PhaseTime) {
        self.wall += other.wall;
        self.busy += other.busy;
        self.workers = self.workers.max(other.workers);
        self.units += other.units;
        self.absorbed += other.absorbed;
        self.replayed += other.replayed;
        self.reused += other.reused;
    }
}

/// Per-stage timing for one analysis run, carried on
/// [`Analysis`](crate::Analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timings {
    /// Worker threads the run actually used (`Config::effective_jobs`).
    pub jobs: usize,
    /// MOD/REF direct-effects collection (per-procedure).
    pub modref: PhaseTime,
    /// Return jump-function construction (per-SCC, level-scheduled).
    pub retjump: PhaseTime,
    /// SSA + symbolic evaluation and forward jump functions
    /// (per-procedure / per-caller).
    pub jump: PhaseTime,
    /// The interprocedural VAL solve (wavefront over the SCC levels of
    /// the call-graph condensation; sequential at every `jobs`).
    pub solve: PhaseTime,
    /// Whole `run_once`, wall clock.
    pub total: Duration,
}

impl Timings {
    /// Accumulates a later round's timings (the gating loop re-runs the
    /// pipeline up to four times; reported times cover all rounds).
    pub fn absorb(&mut self, other: Timings) {
        self.jobs = self.jobs.max(other.jobs);
        self.modref.absorb(other.modref);
        self.retjump.absorb(other.retjump);
        self.jump.absorb(other.jump);
        self.solve.absorb(other.solve);
        self.total += other.total;
    }

    /// Combined wall time of the three per-procedure phases — the part
    /// `--jobs` parallelizes.
    pub fn per_proc_wall(&self) -> Duration {
        self.modref.wall + self.retjump.wall + self.jump.wall
    }

    /// Busy-time-weighted utilization over the per-procedure phases.
    pub fn utilization(&self) -> f64 {
        let mut agg = self.modref;
        agg.absorb(self.retjump);
        agg.absorb(self.jump);
        agg.utilization()
    }

    /// The four phases as named rows in pipeline order — the shape the
    /// bench binaries serialize.
    pub fn stages(&self) -> [(&'static str, PhaseTime); 4] {
        [
            ("modref", self.modref),
            ("retjump", self.retjump),
            ("jump", self.jump),
            ("solve", self.solve),
        ]
    }
}

/// What one participant hands back from a round: its busy time, and the
/// payload of the panic that stopped it, if one did.
type Participation = (Duration, Option<Box<dyn Any + Send>>);

/// A worker pool of `jobs` participants: the calling thread plus up to
/// `jobs - 1` scoped workers, spawned for each [`Pool::run`] round and
/// joined before it returns. `jobs <= 1` yields a pool whose rounds are
/// the plain sequential loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool of `jobs` participants.
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs }
    }

    /// Runs `ahead` — a phase's optimistic rounds — only on a pool with
    /// workers, and returns `None` on a pool without. There every unit
    /// would run on the calling thread anyway, so running it ahead against
    /// a governor shard and then folding it would only add a shard and a
    /// copy per unit: the fold runs it on the master and commits it at
    /// once instead (see [`PhaseFold`](crate::PhaseFold)).
    pub fn ahead<R>(&self, ahead: impl FnOnce() -> R) -> Option<R> {
        (self.jobs > 1).then(ahead)
    }

    /// Runs `f(0) .. f(n - 1)` across the pool, returning results **in
    /// index order** plus the phase accounting.
    ///
    /// The round is one `std::thread::scope`: `min(jobs, n) - 1` workers
    /// are spawned (none when `n <= 1`), and they and the caller claim
    /// unit indices from one atomic ticket until none are left. Each
    /// participant catches its own panic; after every worker has been
    /// joined, the first payload — the caller's, then the workers' in
    /// spawn order — is re-raised on the calling thread as it was thrown
    /// (the quarantine layer inside `f` is what catches per-procedure
    /// panics; one escaping it means quarantine was off, and then the
    /// contract is to propagate).
    pub fn run<T, F>(&self, n: usize, f: F) -> (Vec<T>, PhaseTime)
    where
        T: Send + Sync,
        F: Fn(usize) -> T + Sync,
    {
        let start = Instant::now();
        let participants = self.jobs.min(n);
        if participants <= 1 {
            let results: Vec<T> = (0..n).map(&f).collect();
            return (results, PhaseTime::sequential(start.elapsed(), n));
        }

        // One write-once slot per unit: each index is claimed by exactly
        // one participant (the atomic ticket), which fills it.
        let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let participate = || -> Participation {
            let t0 = Instant::now();
            let claimed = catch_unwind(AssertUnwindSafe(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                // A claimed slot is empty, so the set cannot fail.
                let _ = slots[i].set(f(i));
            }));
            (t0.elapsed(), claimed.err())
        };
        let outcomes: Vec<Participation> = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..participants)
                .map(|_| scope.spawn(participate))
                .collect();
            // The caller is a full participant.
            let mut outcomes = vec![participate()];
            // A worker catches its own panics, so a failed join can only
            // carry a panic from outside the unit loop; it is re-raised
            // all the same.
            outcomes.extend(workers.into_iter().map(|w| {
                w.join()
                    .unwrap_or_else(|payload| (Duration::ZERO, Some(payload)))
            }));
            outcomes
        });

        let busy = outcomes.iter().map(|(t, _)| *t).sum();
        if let Some(payload) = outcomes.into_iter().find_map(|(_, p)| p) {
            panic::resume_unwind(payload);
        }

        let results: Vec<T> = slots
            .into_iter()
            .map(|slot| match slot.into_inner() {
                Some(v) => v,
                // Unreachable: every index < n is claimed by exactly one
                // participant, and a panicked claim re-raised above.
                None => unreachable!("pool round left an unfilled result slot"),
            })
            .collect();
        (
            results,
            PhaseTime {
                wall: start.elapsed(),
                busy,
                workers: participants,
                units: n,
                absorbed: 0,
                replayed: 0,
                reused: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round on a pool of `jobs`.
    fn run<T: Send + Sync>(
        jobs: usize,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> (Vec<T>, PhaseTime) {
        Pool::new(jobs).run(n, f)
    }

    /// Unit `i` of a round whose unit 7 panics. The caller's other units
    /// wait (at most 2 s) for that panic, so unit 7 runs on a spawned
    /// worker unless the workers claimed units 0..=6 before the caller
    /// claimed any: the panic has to cross a worker's join.
    fn unit_7_explodes(i: usize, caller: std::thread::ThreadId, exploded: &AtomicUsize) -> usize {
        if i == 7 {
            exploded.store(1, Ordering::SeqCst);
            panic!("unit 7 exploded");
        }
        let t0 = Instant::now();
        while std::thread::current().id() == caller
            && exploded.load(Ordering::SeqCst) == 0
            && t0.elapsed() < Duration::from_secs(2)
        {
            std::thread::yield_now();
        }
        i
    }

    /// The message a caught panic carries.
    fn panic_message(payload: &(dyn Any + Send)) -> &str {
        match payload.downcast_ref::<&str>() {
            Some(s) => s,
            None => payload.downcast_ref::<String>().map_or("", String::as_str),
        }
    }

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 4, 8] {
            let (out, pt) = run(jobs, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(pt.units, 100);
            assert!(pt.workers >= 1 && pt.workers <= jobs.max(1));
        }
    }

    #[test]
    fn sequential_path_spawns_no_workers() {
        let (out, pt) = run(1, 5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(pt.workers, 1);
        assert_eq!(pt.busy, pt.wall);
    }

    #[test]
    fn single_unit_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let (out, _) = run(8, 1, |_| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, pt) = run(4, 0, |i| i);
        assert!(out.is_empty());
        assert_eq!(pt.units, 0);
        assert!((0.0..=1.0).contains(&pt.utilization()));
        assert_eq!(PhaseTime::default().utilization(), 0.0);
    }

    #[test]
    fn worker_count_never_exceeds_unit_count() {
        let (out, pt) = run(16, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
        assert!(pt.workers <= 3);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let caller = std::thread::current().id();
        let exploded = AtomicUsize::new(0);
        let res =
            std::panic::catch_unwind(|| run(4, 10, |i| unit_7_explodes(i, caller, &exploded)));
        let payload = res.err().unwrap_or_else(|| Box::new("no panic"));
        assert_eq!(panic_message(&*payload), "unit 7 exploded");
    }

    #[test]
    fn utilization_is_bounded() {
        let (_, pt) = run(4, 64, |i| {
            // A little uneven work so busy time is non-trivial.
            (0..(i % 7) * 1000).fold(0u64, |a, b| a.wrapping_add(b as u64))
        });
        let u = pt.utilization();
        assert!((0.0..=1.0).contains(&u), "{u}");
    }

    #[test]
    fn pool_results_come_back_in_index_order() {
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            assert_eq!(pool.ahead(|| 7), (jobs > 1).then_some(7));
            // Several rounds through the same pool, like the return-jump
            // stage's one-round-per-level dispatch.
            for round in 0..5usize {
                let (out, pt) = pool.run(100, |i| i * i + round);
                assert_eq!(out, (0..100).map(|i| i * i + round).collect::<Vec<_>>());
                assert_eq!(pt.units, 100);
                assert!(pt.workers >= 1 && pt.workers <= jobs.max(1));
            }
        }
    }

    #[test]
    fn pool_empty_and_tiny_rounds_stay_on_the_caller() {
        let pool = Pool::new(4);
        let caller = std::thread::current().id();
        let (out, pt) = pool.run(0, |i| i);
        assert!(out.is_empty());
        assert_eq!(pt.units, 0);
        let (out, _) = pool.run(1, |_| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn pool_panics_propagate_after_the_round_drains() {
        let pool = Pool::new(4);
        let caller = std::thread::current().id();
        let (ran, exploded) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let res = std::panic::catch_unwind(|| {
            pool.run(10, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                unit_7_explodes(i, caller, &exploded)
            })
        });
        let payload = res.err().unwrap_or_else(|| Box::new("no panic"));
        assert_eq!(panic_message(&*payload), "unit 7 exploded");
        // The participant that panicked stopped claiming, the others
        // drained the rest, and all of them were joined before the panic
        // was re-raised.
        assert_eq!(ran.load(Ordering::SeqCst), 10);
        // The pool still runs rounds after one panicked.
        let (out, _) = pool.run(10, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pool_matches_spawn_per_call_results() {
        let pool = Pool::new(3);
        let (a, _) = pool.run(41, |i| i as u64 * 3 + 1);
        let (b, _) = run(3, 41, |i| i as u64 * 3 + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn timings_absorb_accumulates() {
        let mut t = Timings {
            jobs: 2,
            ..Timings::default()
        };
        t.modref = PhaseTime::sequential(Duration::from_millis(2), 4);
        let mut other = Timings {
            jobs: 4,
            ..Timings::default()
        };
        other.modref = PhaseTime::sequential(Duration::from_millis(3), 4);
        other.total = Duration::from_millis(10);
        t.absorb(other);
        assert_eq!(t.jobs, 4);
        assert_eq!(t.modref.wall, Duration::from_millis(5));
        assert_eq!(t.modref.units, 8);
        assert_eq!(t.total, Duration::from_millis(10));
        assert!(t.per_proc_wall() >= Duration::from_millis(5));
    }
}
