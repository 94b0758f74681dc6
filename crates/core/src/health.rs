//! Degradation telemetry and the budget governor.
//!
//! Every analysis stage charges its work against the per-stage budgets in
//! [`AnalysisLimits`](crate::config::AnalysisLimits) through a [`Governor`].
//! When a budget is exhausted (for real, or via the deterministic
//! [`FaultInjection`](crate::config::FaultInjection) hook) the stage
//! degrades to a sound approximation — ⊥ is always a correct answer in
//! the Figure-1 lattice — and records a [`DegradationEvent`] here, so
//! callers can tell a full-precision result from a clipped one.

use crate::config::{Config, Stage};
use ipcp_ssa::DeadlineLatch;
use std::fmt;
use std::sync::Arc;

/// Why a degradation happened — the response ladder is the same (force
/// toward ⊥, stay sound), but callers triage the three causes
/// differently.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DegradationKind {
    /// A per-stage budget in `AnalysisLimits` ran out (or the
    /// deterministic `FaultInjection` hook mimicked that).
    Budget,
    /// A per-procedure unit of work panicked or exhausted its slice, and
    /// only that procedure was degraded. See `docs/ROBUSTNESS.md`.
    Quarantined,
    /// The wall-clock `Deadline` expired mid-stage.
    Deadline,
}

impl DegradationKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            DegradationKind::Budget => "budget",
            DegradationKind::Quarantined => "quarantined",
            DegradationKind::Deadline => "deadline",
        }
    }
}

impl fmt::Display for DegradationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One budget exhaustion and the response taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationEvent {
    /// The stage whose budget ran out.
    pub stage: Stage,
    /// Why the stage degraded.
    pub kind: DegradationKind,
    /// What was weakened, in human terms (procedure/slot names where
    /// available).
    pub detail: String,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DegradationKind::Budget => write!(f, "[{}] {}", self.stage, self.detail),
            kind => write!(f, "[{}:{}] {}", self.stage, kind, self.detail),
        }
    }
}

/// Telemetry for one analysis (or transformation) run.
///
/// An empty event list means the run completed at full precision — the
/// default budgets guarantee this on the builtin suite. A non-empty list
/// means some values were soundly forced toward ⊥; the results are still
/// correct, just weaker.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisHealth {
    /// Every degradation, in the order it occurred.
    pub events: Vec<DegradationEvent>,
}

impl AnalysisHealth {
    /// Whether any stage degraded.
    pub fn degraded(&self) -> bool {
        !self.events.is_empty()
    }

    /// Number of degradations recorded for one stage.
    pub fn count(&self, stage: Stage) -> usize {
        self.events.iter().filter(|e| e.stage == stage).count()
    }

    /// Number of degradations of one kind (any stage).
    pub fn count_kind(&self, kind: DegradationKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Records one budget degradation.
    pub fn record(&mut self, stage: Stage, detail: impl Into<String>) {
        self.record_kind(stage, DegradationKind::Budget, detail);
    }

    /// Records one degradation of an explicit kind.
    pub fn record_kind(&mut self, stage: Stage, kind: DegradationKind, detail: impl Into<String>) {
        self.events.push(DegradationEvent {
            stage,
            kind,
            detail: detail.into(),
        });
    }

    /// Merges another run's events into this one (used when a pipeline
    /// stage re-runs the analysis internally, and when parallel workers'
    /// shard telemetry is folded back in).
    ///
    /// `absorb` is order-preserving concatenation, **not** commutative:
    /// `a.absorb(b)` keeps `a`'s events before `b`'s, because event order
    /// is meaningful chronology (strict mode promotes the *first* event,
    /// and `ipcc` prints them in occurrence order). It *is* associative —
    /// `(a ++ b) ++ c == a ++ (b ++ c)` — which is the property sharded
    /// merges rely on: as long as every caller folds shards in the fixed
    /// sequential unit order, the merged telemetry is identical to the
    /// sequential run no matter how the folds are grouped. Tested by
    /// `absorb_is_associative_not_commutative`.
    pub fn absorb(&mut self, other: AnalysisHealth) {
        self.events.extend(other.events);
    }
}

impl fmt::Display for AnalysisHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return writeln!(f, "analysis health: ok (no degradations)");
        }
        writeln!(f, "analysis health: {} degradation(s)", self.events.len())?;
        for e in &self.events {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

/// Budget accountant threaded through the analysis stages.
///
/// Each stage calls [`Governor::charge`] per unit of work; a `false`
/// return means the stage's budget (or an injected fault) tripped and the
/// stage must degrade. Counters are per-run — a fresh `Governor` is built
/// for every [`Analysis::run`](crate::Analysis::run).
///
/// Under `jobs > 1` each worker charges against its own *shard* (a
/// [`Governor::shard`] clone with zeroed counters), and the pipeline
/// folds the shards back into the master in the fixed sequential unit
/// order via [`Governor::can_absorb`] / [`Governor::absorb_shard`] —
/// see `docs/ROBUSTNESS.md` § "Concurrency contract". The wall-clock
/// deadline is the one piece of genuinely shared state: every shard
/// holds the same [`DeadlineLatch`] behind an `Arc`, so the first
/// cooperative check on any worker to observe expiry makes every later
/// check, on every worker, a single relaxed load.
#[derive(Clone, Debug)]
pub struct Governor {
    config: Config,
    counters: [u64; Stage::ALL.len()],
    latch: Arc<DeadlineLatch>,
    /// Accumulated telemetry; taken by the pipeline when the run ends.
    pub health: AnalysisHealth,
}

fn stage_index(stage: Stage) -> usize {
    match stage {
        Stage::ModRef => 0,
        Stage::Jump => 1,
        Stage::RetJump => 2,
        Stage::Solver => 3,
        Stage::Cloning => 4,
        Stage::Inline => 5,
    }
}

impl Governor {
    /// A governor enforcing `config`'s limits and fault injection.
    pub fn new(config: &Config) -> Governor {
        Governor {
            config: *config,
            counters: [0; Stage::ALL.len()],
            latch: Arc::new(DeadlineLatch::new()),
            health: AnalysisHealth::default(),
        }
    }

    /// A worker's shard: same config and the *shared* deadline latch, but
    /// zeroed counters and empty telemetry. The worker runs its units
    /// against the shard optimistically; the pipeline then either absorbs
    /// the shard (when [`Governor::can_absorb`] proves the outcome is
    /// bit-identical to sequential charging) or replays the unit against
    /// the master.
    pub fn shard(&self) -> Governor {
        Governor {
            config: self.config,
            counters: [0; Stage::ALL.len()],
            latch: Arc::clone(&self.latch),
            health: AnalysisHealth::default(),
        }
    }

    /// Would folding `shard`'s charges into this governor reproduce the
    /// sequential outcome exactly?
    ///
    /// For each stage with `n > 0` shard charges on top of `c0` master
    /// charges, sequential execution would have charged `c0+1 ..= c0+n`.
    /// The shard saw `1 ..= n` — every charge clean (a shard that tripped
    /// is replayed, never absorbed). The outcomes agree iff no charge in
    /// `c0+1 ..= c0+n` trips either the cap (`c0 + n <= cap`) or an armed
    /// fault on that stage (`c0 + n < fault.at`). Since trip conditions
    /// are monotone in the counter, clean at offset `c0` implies every
    /// intermediate charge is clean too.
    ///
    /// This is the canonical fold's documented **fast path**: the check
    /// is `O(|stages|)` integer compares with no allocation, so in a
    /// healthy run (budgets not near a cap, no armed fault) every unit
    /// absorbs and the fold's cost is a handful of adds per unit —
    /// replay, which re-runs the unit against the master, is reserved
    /// for units whose charges genuinely cross a boundary. The split is
    /// observable: [`PhaseFold`](crate::PhaseFold) stamps
    /// absorbed/replayed counts into each phase's
    /// [`PhaseTime`](crate::PhaseTime).
    pub fn can_absorb(&self, shard: &Governor) -> bool {
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            let n = shard.counters[i];
            if n == 0 {
                continue;
            }
            let total = self.counters[i] + n;
            if total > self.cap(stage) {
                return false;
            }
            if let Some(fault) = self.config.fault_injection {
                if fault.stage == stage && total >= fault.at {
                    return false;
                }
            }
        }
        true
    }

    /// Folds a shard's charges and telemetry into this governor. Call in
    /// the fixed sequential unit order, only after [`Governor::can_absorb`]
    /// returned `true` (the caller replays the unit sequentially
    /// otherwise).
    pub fn absorb_shard(&mut self, shard: Governor) {
        for i in 0..Stage::ALL.len() {
            self.counters[i] += shard.counters[i];
        }
        self.health.absorb(shard.health);
    }

    /// The raw per-stage charge counters, in [`Stage::ALL`] order. The
    /// serve cache records a clean unit's shard counters alongside its
    /// summary, so a later cache hit can replay the charges bulk-wise
    /// (see [`Governor::add_charges`]) and stay bit-identical to a cold
    /// run even under budgets and fault injection.
    pub fn counters(&self) -> [u64; Stage::ALL.len()] {
        self.counters
    }

    /// Bulk-charges previously recorded counters onto this governor
    /// *without* trip checks — pair with [`Governor::can_absorb`] on a
    /// shard: record the counters into a fresh shard, prove the fold is
    /// clean, then absorb. Used by the serve cache's hit path.
    pub fn add_charges(&mut self, counts: &[u64; Stage::ALL.len()]) {
        for (counter, &charge) in self.counters.iter_mut().zip(counts) {
            *counter += charge;
        }
    }

    /// Charges a unit's recorded `counts` when [`Governor::can_absorb`]
    /// proves they land exactly where running the unit would put them —
    /// the replay of a memo hit or of a unit reused from the live
    /// analysis. Otherwise charges nothing and returns `false`: the unit
    /// must run, reproducing the trip.
    pub fn replay(&mut self, counts: &[u64; Stage::ALL.len()]) -> bool {
        let mut shard = self.shard();
        shard.add_charges(counts);
        let clean = self.can_absorb(&shard);
        if clean {
            self.absorb_shard(shard);
        }
        clean
    }

    /// The shared deadline latch, for threading into symbolic-evaluation
    /// budgets ([`ipcp_ssa::symbolic::EvalBudget`]).
    pub fn latch(&self) -> &Arc<DeadlineLatch> {
        &self.latch
    }

    /// A governor that never trips — for callers that manage budgets
    /// themselves (unit tests of individual stages).
    pub fn unlimited() -> Governor {
        Governor::new(&Config::default())
    }

    /// The budget that applies to `stage`'s counter, if the stage is
    /// metered by a simple count (polynomial shape caps are checked
    /// separately, against the limits directly).
    fn cap(&self, stage: Stage) -> u64 {
        let l = &self.config.limits;
        match stage {
            // One charge per procedure's direct-effects pass; a runaway
            // here would mean a runaway procedure count, so the solver
            // iteration cap is the natural bound.
            Stage::ModRef => l.max_solver_iterations,
            Stage::Jump => l.max_symbolic_steps,
            Stage::RetJump => l.max_symbolic_steps,
            Stage::Solver => l.max_solver_iterations,
            Stage::Cloning => l.max_clones as u64,
            Stage::Inline => l.max_inline_statements as u64,
        }
    }

    /// Charges one unit of work to `stage`. Returns `false` when the
    /// stage's budget is exhausted (or a fault trips) — the caller must
    /// then degrade and usually [`Governor::record`] what it weakened.
    #[must_use]
    pub fn charge(&mut self, stage: Stage) -> bool {
        let i = stage_index(stage);
        self.counters[i] += 1;
        if let Some(fault) = self.config.fault_injection {
            if fault.stage == stage && self.counters[i] >= fault.at {
                return false;
            }
        }
        self.counters[i] <= self.cap(stage)
    }

    /// Whether `stage` would trip right now, without charging.
    pub fn exhausted(&self, stage: Stage) -> bool {
        let i = stage_index(stage);
        if let Some(fault) = self.config.fault_injection {
            if fault.stage == stage && self.counters[i] + 1 >= fault.at {
                return true;
            }
        }
        self.counters[i] >= self.cap(stage)
    }

    /// The limits being enforced.
    pub fn limits(&self) -> &crate::config::AnalysisLimits {
        &self.config.limits
    }

    /// Records a budget degradation event.
    pub fn record(&mut self, stage: Stage, detail: impl Into<String>) {
        self.health.record(stage, detail);
    }

    /// Records a quarantine event (a per-procedure unit of work was
    /// contained).
    pub fn record_quarantine(&mut self, stage: Stage, detail: impl Into<String>) {
        self.health
            .record_kind(stage, DegradationKind::Quarantined, detail);
    }

    /// Records a deadline-expiry event.
    pub fn record_deadline(&mut self, stage: Stage, detail: impl Into<String>) {
        self.health
            .record_kind(stage, DegradationKind::Deadline, detail);
    }

    /// Whether the configured wall-clock deadline (if any) has expired.
    /// Cooperative loops check this once per iteration (or per
    /// `Deadline::CHECK_INTERVAL` steps) and degrade soundly when it
    /// fires. Routed through the shared latch: after the first expiry
    /// observed anywhere in the run, this is one relaxed load.
    pub fn deadline_expired(&self) -> bool {
        self.config
            .deadline
            .is_some_and(|d| self.latch.expired(d.instant()))
    }

    /// Consumes the governor, yielding the collected telemetry.
    pub fn into_health(self) -> AnalysisHealth {
        self.health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisLimits;

    #[test]
    fn charge_trips_at_the_cap() {
        let limits = AnalysisLimits {
            max_solver_iterations: 3,
            ..AnalysisLimits::default()
        };
        let mut gov = Governor::new(&Config::default().with_limits(limits));
        assert!(gov.charge(Stage::Solver));
        assert!(gov.charge(Stage::Solver));
        assert!(gov.charge(Stage::Solver));
        assert!(!gov.charge(Stage::Solver), "4th charge exceeds cap of 3");
        // Other stages are unaffected.
        assert!(gov.charge(Stage::Jump));
    }

    #[test]
    fn fault_injection_trips_exactly_at_n() {
        let mut gov = Governor::new(&Config::default().with_fault(Stage::RetJump, 2));
        assert!(gov.charge(Stage::RetJump));
        assert!(!gov.charge(Stage::RetJump), "2nd charge hits the fault");
        // A fault at one stage leaves the others alone.
        assert!(gov.charge(Stage::Solver));
    }

    #[test]
    fn exhausted_previews_without_charging() {
        let mut gov = Governor::new(&Config::default().with_fault(Stage::Cloning, 1));
        assert!(gov.exhausted(Stage::Cloning));
        assert!(!gov.exhausted(Stage::Inline));
        assert!(!gov.charge(Stage::Cloning));
    }

    #[test]
    fn health_counts_per_stage() {
        let mut h = AnalysisHealth::default();
        assert!(!h.degraded());
        h.record(Stage::Jump, "f cs0 slot a: poly too large");
        h.record(Stage::Jump, "g cs1 slot b: poly too large");
        h.record(Stage::Solver, "iteration cap");
        assert!(h.degraded());
        assert_eq!(h.count(Stage::Jump), 2);
        assert_eq!(h.count(Stage::Solver), 1);
        let text = h.to_string();
        assert!(text.contains("3 degradation(s)"), "{text}");
        assert!(text.contains("[jump]"), "{text}");
    }

    #[test]
    fn absorb_concatenates_events() {
        let mut a = AnalysisHealth::default();
        a.record(Stage::Cloning, "budget");
        let mut b = AnalysisHealth::default();
        b.record(Stage::Inline, "budget");
        a.absorb(b);
        assert_eq!(a.events.len(), 2);
    }

    #[test]
    fn kinds_are_counted_and_labelled() {
        let mut h = AnalysisHealth::default();
        h.record(Stage::Solver, "iteration cap");
        h.record_kind(Stage::Jump, DegradationKind::Quarantined, "f panicked");
        h.record_kind(Stage::Solver, DegradationKind::Deadline, "out of time");
        assert_eq!(h.count_kind(DegradationKind::Budget), 1);
        assert_eq!(h.count_kind(DegradationKind::Quarantined), 1);
        assert_eq!(h.count_kind(DegradationKind::Deadline), 1);
        let text = h.to_string();
        assert!(text.contains("[jump:quarantined] f panicked"), "{text}");
        assert!(text.contains("[solver:deadline] out of time"), "{text}");
        assert!(text.contains("[solver] iteration cap"), "{text}");
    }

    #[test]
    fn governor_tracks_the_deadline() {
        let gov = Governor::unlimited();
        assert!(!gov.deadline_expired(), "no deadline configured");
        let expired = Config::default()
            .with_deadline(crate::config::Deadline::after(std::time::Duration::ZERO));
        let mut gov = Governor::new(&expired);
        assert!(gov.deadline_expired());
        gov.record_deadline(Stage::Solver, "out of time");
        gov.record_quarantine(Stage::Jump, "f panicked");
        let h = gov.into_health();
        assert_eq!(h.count_kind(DegradationKind::Deadline), 1);
        assert_eq!(h.count_kind(DegradationKind::Quarantined), 1);
    }

    #[test]
    fn modref_stage_is_metered() {
        let limits = AnalysisLimits {
            max_solver_iterations: 2,
            ..AnalysisLimits::default()
        };
        let mut gov = Governor::new(&Config::default().with_limits(limits));
        assert!(gov.charge(Stage::ModRef));
        assert!(gov.charge(Stage::ModRef));
        assert!(!gov.charge(Stage::ModRef));
    }

    #[test]
    fn absorb_is_associative_not_commutative() {
        let ev = |stage: Stage, d: &str| {
            let mut h = AnalysisHealth::default();
            h.record(stage, d);
            h
        };
        let (a, b, c) = (
            ev(Stage::ModRef, "a"),
            ev(Stage::Jump, "b"),
            ev(Stage::Solver, "c"),
        );
        // (a ++ b) ++ c
        let mut left = a.clone();
        left.absorb(b.clone());
        left.absorb(c.clone());
        // a ++ (b ++ c)
        let mut bc = b.clone();
        bc.absorb(c.clone());
        let mut right = a.clone();
        right.absorb(bc);
        assert_eq!(left, right, "absorb is associative");
        // ...but NOT commutative: order is meaningful chronology.
        let mut ba = b;
        ba.absorb(a);
        let mut ab = ev(Stage::ModRef, "a");
        ab.absorb(ev(Stage::Jump, "b"));
        assert_ne!(ab, ba, "absorb preserves order");
    }

    #[test]
    fn shard_starts_clean_and_absorbs_back() {
        let limits = AnalysisLimits {
            max_solver_iterations: 10,
            ..AnalysisLimits::default()
        };
        let mut master = Governor::new(&Config::default().with_limits(limits));
        assert!(master.charge(Stage::Solver));
        let mut shard = master.shard();
        assert!(!shard.health.degraded());
        for _ in 0..4 {
            assert!(shard.charge(Stage::Solver));
        }
        shard.record(Stage::Solver, "from the shard");
        assert!(master.can_absorb(&shard));
        master.absorb_shard(shard);
        // 1 (master) + 4 (shard) charges so far; 5 more fit under cap 10.
        for _ in 0..5 {
            assert!(master.charge(Stage::Solver));
        }
        assert!(!master.charge(Stage::Solver), "11th charge exceeds cap");
        assert_eq!(master.health.events.len(), 1);
    }

    #[test]
    fn can_absorb_rejects_cap_overflow_and_fault_crossings() {
        let limits = AnalysisLimits {
            max_solver_iterations: 5,
            ..AnalysisLimits::default()
        };
        let mut master = Governor::new(&Config::default().with_limits(limits));
        for _ in 0..3 {
            assert!(master.charge(Stage::Solver));
        }
        let mut ok = master.shard();
        assert!(ok.charge(Stage::Solver));
        assert!(ok.charge(Stage::Solver));
        assert!(master.can_absorb(&ok), "3 + 2 = 5 = cap is clean");
        let mut over = master.shard();
        for _ in 0..3 {
            let _ = over.charge(Stage::Solver);
        }
        assert!(!master.can_absorb(&over), "3 + 3 = 6 > cap");

        // Fault crossing: master at 1 charge, fault at 3.
        let mut faulted = Governor::new(&Config::default().with_fault(Stage::RetJump, 3));
        assert!(faulted.charge(Stage::RetJump));
        let mut s1 = faulted.shard();
        assert!(s1.charge(Stage::RetJump));
        assert!(faulted.can_absorb(&s1), "1 + 1 = 2 < fault at 3");
        let mut s2 = faulted.shard();
        assert!(s2.charge(Stage::RetJump));
        assert!(s2.charge(Stage::RetJump));
        assert!(!faulted.can_absorb(&s2), "1 + 2 = 3 >= fault at 3");
        // An empty shard is always absorbable, even past a trip point.
        assert!(faulted.can_absorb(&faulted.shard()));
    }

    #[test]
    fn shards_share_the_deadline_latch() {
        let expired = Config::default()
            .with_deadline(crate::config::Deadline::after(std::time::Duration::ZERO));
        let master = Governor::new(&expired);
        let shard = master.shard();
        // The shard's check fires the shared latch...
        assert!(shard.deadline_expired());
        // ...which the master (and every other shard) then sees latched.
        assert!(master.latch().has_fired());
        assert!(master.deadline_expired());
    }

    #[test]
    fn default_governor_is_effectively_unlimited() {
        let mut gov = Governor::unlimited();
        for _ in 0..10_000 {
            assert!(gov.charge(Stage::Solver));
        }
        assert!(gov.into_health().events.is_empty());
    }
}
