//! The continuous-engine case registry: standing queries under
//! exploration.
//!
//! The continuous engine promises that its delta-maintained standing
//! answer is *indistinguishable* from re-running a windowed aggregation
//! from scratch at every epoch fence — across message loss, duplication,
//! schedule perturbation, and a mid-run kill/revive of a leaf whose
//! buffered deltas the tree must absorb late. This registry holds that
//! promise to the [`WindowConsistencyOracle`]:
//!
//! * `continuous-clean`: nine peers, a three-bucket window over six epoch
//!   fences, **two** standing queries multiplexed over the shared delta
//!   stream, the reliability envelope on every hop, probabilistic loss
//!   and duplication plus scheduled drops, and the usual leaf churn.
//!   Every certified epoch must match the from-scratch window for both
//!   queries on every schedule, and all six epochs must certify.
//! * `bug-continuous-dropped-retirements`: the `#[doc(hidden)]` toggle
//!   that makes the root ignore retirement (negative) diffs — the
//!   standing state stops aging out and overcounts the moment the window
//!   fills, so the oracle must fire on the unperturbed schedule already.
//!
//! Like [`crate::approx`], this registry is deliberately separate from
//! [`crate::cases::all_cases`] (whose shape the exact-suite accounting
//! pins); the bench continuous smoke and the `experiments
//! continuous-smoke` subcommand drive it.
//!
//! [`WindowConsistencyOracle`]: crate::oracle::WindowConsistencyOracle

use ifi_hierarchy::Hierarchy;
use ifi_sim::{sansio_world, Des, Duration, FaultPlan, PeerId, RelConfig, SimConfig, SimTime};
use netfilter::continuous::{
    schedule_from_data, ContinuousConfig, ContinuousProtocol, QueryRegistry, StandingQuery,
};

use crate::cases::{make_case, workload, Case};
use crate::explore::ExploreConfig;
use crate::oracle::{Oracle, WindowConsistencyOracle};

/// The leaf the clean case kills mid-run and revives later: under
/// `Hierarchy::balanced(9, 3)` peer 8 reports to peer 2. Its remaining
/// fences run after revival, so certification of the affected epochs is
/// late but must still be exact.
const CHURNED_LEAF: usize = 8;

/// Window size in buckets: after a fence the live window holds the last
/// two full epoch batches.
const WINDOW: usize = 3;

/// Epoch fences per run — enough for the window to fill and age twice.
const EPOCHS: usize = 6;

fn kill_at() -> SimTime {
    SimTime::from_micros(250_000)
}

fn revive_at() -> SimTime {
    SimTime::from_micros(1_500_000)
}

fn clean_budget(seed: u64) -> ExploreConfig {
    ExploreConfig {
        seed,
        trials: 60,
        check_every: Duration::from_secs(1),
        horizon: None,
        drops_per_trial: 2,
        drop_seq_horizon: 200,
        shrink_budget: 300,
        ..ExploreConfig::default()
    }
}

fn negative_budget(seed: u64) -> ExploreConfig {
    ExploreConfig {
        seed,
        trials: 60,
        check_every: Duration::from_secs(1),
        horizon: None,
        drops_per_trial: 0,
        drop_seq_horizon: 200,
        shrink_budget: 200,
        ..ExploreConfig::default()
    }
}

fn faulty_sim(seed: u64, drops: &[u64]) -> SimConfig {
    SimConfig::default().with_seed(seed).with_faults(
        FaultPlan::none()
            .with_drop(0.05)
            .with_duplication(0.05)
            .with_scheduled_drops(drops.iter().copied()),
    )
}

/// Two standing queries sharing the delta stream, both streamed to the
/// churned leaf (the deepest subscriber).
fn registry() -> QueryRegistry {
    let mut r = QueryRegistry::new();
    r.register(StandingQuery {
        id: 0,
        threshold: 30,
        subscriber: PeerId::new(CHURNED_LEAF),
    });
    r.register(StandingQuery {
        id: 1,
        threshold: 60,
        subscriber: PeerId::new(CHURNED_LEAF),
    });
    r
}

fn oracle(
    root: PeerId,
    schedules: &[Vec<Vec<(ifi_workload::ItemId, u64)>>],
    reg: &QueryRegistry,
) -> WindowConsistencyOracle {
    WindowConsistencyOracle {
        root,
        schedules: schedules.to_vec(),
        window: WINDOW,
        epochs: EPOCHS,
        thresholds: reg.queries().iter().map(|q| q.threshold).collect(),
    }
}

/// The honest continuous engine under loss, duplication, scheduled drops,
/// and leaf churn: window consistency must hold on every schedule.
fn continuous_clean(seed: u64) -> Case {
    let data = workload(seed);
    let schedules = schedule_from_data(&data, EPOCHS);
    let h = Hierarchy::balanced(9, 3);
    let cfg = ContinuousConfig::new(WINDOW, EPOCHS);
    let reg = registry();
    let root = h.root();
    let ora = oracle(root, &schedules, &reg);
    let build = move |drops: &[u64]| {
        let mut w = sansio_world(
            faulty_sim(seed, drops),
            ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, Some(RelConfig::default())),
        );
        w.schedule_kill(kill_at(), PeerId::new(CHURNED_LEAF));
        w.schedule_revive(revive_at(), PeerId::new(CHURNED_LEAF));
        w.enable_trace(64);
        w
    };
    let oracles =
        move || -> Vec<Box<dyn Oracle<Des<ContinuousProtocol>>>> { vec![Box::new(ora.clone())] };
    make_case(
        "continuous-clean",
        "continuous",
        None,
        clean_budget(seed),
        build,
        oracles,
    )
}

/// The planted retirement-dropping bug: the root ignores negative diffs,
/// so from the first fence where a batch retires (epoch `W − 1 = 2`) the
/// standing state overcounts and the oracle must fire — on the
/// unperturbed schedule, at trial 0.
fn continuous_dropped_retirements(seed: u64) -> Case {
    let data = workload(seed);
    let schedules = schedule_from_data(&data, EPOCHS);
    let h = Hierarchy::balanced(9, 3);
    let cfg = ContinuousConfig::new(WINDOW, EPOCHS);
    let reg = registry();
    let root = h.root();
    let ora = oracle(root, &schedules, &reg);
    let build = move |drops: &[u64]| {
        let sim = SimConfig::default()
            .with_seed(seed)
            .with_faults(FaultPlan::none().with_scheduled_drops(drops.iter().copied()));
        let cores: Vec<ContinuousProtocol> =
            ContinuousProtocol::peers(&cfg, &h, &reg, &schedules, Some(RelConfig::default()))
                .into_iter()
                .map(ContinuousProtocol::with_dropped_retirements)
                .collect();
        let mut w = sansio_world(sim, cores);
        w.enable_trace(64);
        w
    };
    let oracles =
        move || -> Vec<Box<dyn Oracle<Des<ContinuousProtocol>>>> { vec![Box::new(ora.clone())] };
    make_case(
        "bug-continuous-dropped-retirements",
        "continuous",
        Some("window-consistency"),
        negative_budget(seed),
        build,
        oracles,
    )
}

/// The continuous-engine registry for one seed: one clean case, one
/// planted negative.
pub fn continuous_cases(seed: u64) -> Vec<Case> {
    vec![continuous_clean(seed), continuous_dropped_retirements(seed)]
}

/// Looks a continuous case up by name (used by the replay subcommand).
pub fn find_continuous_case(name: &str, seed: u64) -> Option<Case> {
    continuous_cases(seed).into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64, trials: usize) -> ExploreConfig {
        ExploreConfig {
            trials,
            ..clean_budget(seed)
        }
    }

    #[test]
    fn registry_names_are_unique_and_expectations_partition() {
        let cases = continuous_cases(1);
        assert_eq!(cases.len(), 2);
        let names: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 2);
        assert_eq!(
            cases
                .iter()
                .filter(|c| c.expect_violation.is_none())
                .count(),
            1,
            "one clean case"
        );
        assert!(cases.iter().all(|c| c.protocol == "continuous"));
        assert!(find_continuous_case("continuous-clean", 1).is_some());
        assert!(find_continuous_case("no-such-case", 1).is_none());
    }

    #[test]
    fn clean_case_holds_on_a_handful_of_schedules() {
        let case = find_continuous_case("continuous-clean", 11).unwrap();
        let report = case.explore_with(&quick(11, 6));
        assert!(
            report.violation.is_none(),
            "continuous-clean violated: {:?}",
            report.violation
        );
        assert!(report.distinct_schedules >= 2, "never diverged");
    }

    /// The planted negative fires on its very first (unperturbed)
    /// schedule, names the window-consistency oracle, shrinks, and
    /// replays.
    #[test]
    fn dropped_retirements_fire_shrink_and_replay() {
        let case = find_continuous_case("bug-continuous-dropped-retirements", 7).unwrap();
        let report = case.explore_with(&quick(7, 3));
        let found = report.violation.expect("planted bug did not fire");
        assert_eq!(found.violation.oracle, "window-consistency");
        assert_eq!(found.trial, 0, "needed perturbation to fire");
        let again = case.replay(&found.shrunk).expect("shrunk repro went quiet");
        assert_eq!(again.oracle, "window-consistency");
    }
}
