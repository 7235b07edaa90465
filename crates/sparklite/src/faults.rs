//! Deterministic chaos injection: the runtime half of
//! [`FaultPlan`].
//!
//! Every injection decision is a pure function of
//! `(seed, fault kind, stage/file, partition, attempt)`, hashed through a
//! SplitMix64 finalizer — no RNG state, no ordering sensitivity. Two runs of
//! the same query under the same plan see byte-identical fault schedules,
//! which is what makes chaos property tests (results under 20% injected
//! failures must equal fault-free results) possible at all.
//!
//! Convergence: each fault kind fires at most
//! [`max_injected_per_task`](crate::conf::FaultPlan::max_injected_per_task)
//! times per task key. Because a task attempt can lose to at most two
//! failing kinds (an injected kill and an injected storage fault), the
//! default cap of 1 guarantees at most two injected failures per task —
//! comfortably inside the default attempt budget of 4, so chaos never turns
//! a healthy job into a spurious failure.

use crate::conf::FaultPlan;
use crate::events::{Event, EventBus};
use crate::executor::TaskContext;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Panic payload for an injected fault; the executor classifies it as
/// [`FailureKind::Injected`](crate::error::FailureKind::Injected) (retried).
pub struct InjectedFault(pub String);

/// Panic payload for a deterministic application error raised via
/// [`task_bail`](crate::rdd::task_bail); classified as
/// [`FailureKind::App`](crate::error::FailureKind::App) (fails fast).
pub struct AppAbort(pub String);

/// Fault kinds, used as hash salts so the kinds draw independent decisions.
#[derive(Debug, Clone, Copy)]
enum Kind {
    TaskKill,
    ExecDeath,
    StorageFault,
    Straggler,
    CacheFault,
}

impl Kind {
    fn salt(self) -> u64 {
        match self {
            Kind::TaskKill => 0x7461736B_6B696C6C,     // "taskkill"
            Kind::ExecDeath => 0x65786563_64656164,    // "execdead"
            Kind::StorageFault => 0x73746F72_6661696C, // "storfail"
            Kind::Straggler => 0x73747261_67676C65,    // "straggle"
            Kind::CacheFault => 0x63616368_6C6F7374,   // "cachlost"
        }
    }

    /// The event-log tag for [`Event::ChaosInject`].
    fn name(self) -> &'static str {
        match self {
            Kind::TaskKill => "task_kill",
            Kind::ExecDeath => "exec_death",
            Kind::StorageFault => "storage_fault",
            Kind::Straggler => "straggler",
            Kind::CacheFault => "cache_fault",
        }
    }
}

/// SplitMix64 finalizer: a strong 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The seeded injector shared by the driver, the executor pool, and the
/// shuffle layer. Holds no per-fault state: every decision is recomputed
/// from the plan's seed, so injection is insensitive to scheduling order.
pub struct FaultInjector {
    plan: FaultPlan,
    events: Arc<EventBus>,
    /// Shuffle ids are handed out in driver-side `prepare` order, which is
    /// deterministic for a fixed query plan.
    shuffle_ids: AtomicU64,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, events: Arc<EventBus>) -> Self {
        FaultInjector { plan, events, shuffle_ids: AtomicU64::new(0) }
    }

    /// Records one injected fault on the event stream (which derives the
    /// `injected_faults` counter).
    fn inject(&self, kind: Kind, a: u64, b: u64, attempt: u32) {
        self.events.emit(Event::ChaosInject { kind: kind.name(), a, b, attempt });
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether retries/speculation can re-execute tasks, meaning stage
    /// inputs must stay re-executable (see `SortedRdd`'s bucket handling).
    pub fn armed(&self) -> bool {
        self.plan.armed()
    }

    pub(crate) fn next_shuffle_id(&self) -> u64 {
        self.shuffle_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// One hash-based coin flip for `(kind, a, b, attempt)`.
    fn decision(&self, prob: f64, kind: Kind, a: u64, b: u64, attempt: u32) -> bool {
        let z = self
            .plan
            .seed
            .wrapping_add(kind.salt())
            .wrapping_add(a.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add(b.wrapping_mul(0xD1B54A32D192ED03))
            .wrapping_add(u64::from(attempt).wrapping_mul(0x2545F4914F6CDD1D));
        ((mix64(z) >> 11) as f64 / (1u64 << 53) as f64) < prob
    }

    /// The coin flip plus the per-task cap: a kind stops firing for a task
    /// once it already fired `max_injected_per_task` times at earlier
    /// attempts. Stateless — the history is recomputed from the hash.
    fn fires(&self, prob: f64, kind: Kind, a: u64, b: u64, attempt: u32) -> bool {
        if prob <= 0.0 || !self.decision(prob, kind, a, b, attempt) {
            return false;
        }
        let prior = (0..attempt).filter(|&j| self.decision(prob, kind, a, b, j)).count();
        prior < self.plan.max_injected_per_task as usize
    }

    /// Called at the start of every task attempt, inside the panic guard.
    /// May slow the attempt down (straggler) or kill it (executor death
    /// mid-task), in that order, so a straggling attempt can still be killed.
    pub(crate) fn on_task_start(&self, tc: &TaskContext) {
        let (stage, part, attempt) = (tc.stage, tc.partition as u64, tc.attempt);
        if self.fires(self.plan.straggler_prob, Kind::Straggler, stage, part, attempt) {
            self.inject(Kind::Straggler, stage, part, attempt);
            std::thread::sleep(std::time::Duration::from_micros(self.plan.straggler_delay_us));
        }
        if self.fires(self.plan.task_failure_prob, Kind::TaskKill, stage, part, attempt) {
            self.inject(Kind::TaskKill, stage, part, attempt);
            std::panic::panic_any(InjectedFault(format!(
                "injected task failure (stage {stage}, partition {part}, attempt {attempt})"
            )));
        }
    }

    /// Called before a storage block read inside a task. Decisions are keyed
    /// by `(file, block, attempt)` so a retried attempt re-draws its coin.
    pub(crate) fn on_storage_read(&self, path: &str, block: usize, tc: &TaskContext) {
        let key =
            mix64(path.bytes().fold(0xcbf29ce484222325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
            }));
        if self.fires(
            self.plan.storage_fault_prob,
            Kind::StorageFault,
            key,
            block as u64,
            tc.attempt,
        ) {
            self.inject(Kind::StorageFault, key, block as u64, tc.attempt);
            std::panic::panic_any(InjectedFault(format!(
                "injected storage fault reading block {block} of {path} (attempt {})",
                tc.attempt
            )));
        }
    }

    /// Called before a persisted-partition cache read, keyed like storage
    /// reads (same probability knob) on `(rdd id, partition, attempt)`.
    /// Returns `true` when the cached block must be treated as lost.
    ///
    /// Unlike [`FaultInjector::on_storage_read`] this does not panic: the
    /// cache layer's recovery *is* lineage recomputation, which needs no
    /// task retry — the caller drops the slot and recomputes in place, so
    /// injected cache faults cost recompute time but no attempt budget.
    pub(crate) fn on_cached_read(&self, rdd_id: u64, split: usize, tc: &TaskContext) -> bool {
        if self.fires(
            self.plan.storage_fault_prob,
            Kind::CacheFault,
            rdd_id,
            split as u64,
            tc.attempt,
        ) {
            self.inject(Kind::CacheFault, rdd_id, split as u64, tc.attempt);
            return true;
        }
        false
    }

    /// Which of a shuffle's `n` freshly registered map outputs are lost to
    /// simulated executor death. Only the *initial* registration (attempt 0)
    /// can lose outputs; recomputed outputs survive, so lineage recovery
    /// converges in one round.
    pub(crate) fn lost_map_outputs(&self, shuffle_id: u64, n: usize) -> Vec<usize> {
        if self.plan.exec_death_prob <= 0.0 {
            return Vec::new();
        }
        let lost: Vec<usize> = (0..n)
            .filter(|&p| {
                self.fires(self.plan.exec_death_prob, Kind::ExecDeath, shuffle_id, p as u64, 0)
            })
            .collect();
        for &p in &lost {
            self.inject(Kind::ExecDeath, shuffle_id, p as u64, 0);
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(plan: FaultPlan) -> FaultInjector {
        let metrics = Arc::new(crate::executor::Metrics::default());
        FaultInjector::new(plan, Arc::new(EventBus::new(metrics)))
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = injector(FaultPlan::chaos(7, 0.5));
        let b = injector(FaultPlan::chaos(7, 0.5));
        let c = injector(FaultPlan::chaos(8, 0.5));
        let mut diff = 0;
        for p in 0..64u64 {
            let (x, y, z) = (
                a.decision(0.5, Kind::TaskKill, 0, p, 0),
                b.decision(0.5, Kind::TaskKill, 0, p, 0),
                c.decision(0.5, Kind::TaskKill, 0, p, 0),
            );
            assert_eq!(x, y, "same seed must agree");
            if x != z {
                diff += 1;
            }
        }
        assert!(diff > 10, "different seeds should disagree often, got {diff}");
    }

    #[test]
    fn rate_is_roughly_the_probability() {
        let inj = injector(FaultPlan::chaos(3, 0.2));
        let hits =
            (0..10_000u64).filter(|&p| inj.decision(0.2, Kind::StorageFault, 1, p, 0)).count();
        assert!((1_500..2_500).contains(&hits), "got {hits} hits at p=0.2");
    }

    #[test]
    fn per_task_cap_limits_injections_across_attempts() {
        // With probability 1.0 every attempt *wants* to fire, but the cap
        // allows only the first `max_injected_per_task` of them.
        let inj =
            injector(FaultPlan::default().with_task_failures(1.0).with_max_injected_per_task(2));
        let fired: Vec<bool> =
            (0..6).map(|att| inj.fires(1.0, Kind::TaskKill, 0, 0, att)).collect();
        assert_eq!(fired, vec![true, true, false, false, false, false]);
    }

    #[test]
    fn lost_outputs_only_on_first_registration() {
        let inj = injector(FaultPlan::default().with_exec_death(1.0));
        let lost = inj.lost_map_outputs(0, 4);
        assert_eq!(lost, vec![0, 1, 2, 3]);
        // Recomputed outputs are registered at attempt 1 conceptually; the
        // cap (1) means the same shuffle cannot lose them again.
        assert!(!inj.fires(1.0, Kind::ExecDeath, 0, 0, 1));
    }
}
