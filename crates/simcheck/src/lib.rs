//! Deterministic schedule exploration over the `ifi-sim` DES.
//!
//! A seeded DES run replays exactly one interleaving per seed; the suite
//! is therefore blind to every *other* legal ordering of the same
//! messages. This crate turns the kernel's [`ScheduleStrategy`] hook into
//! a small model checker:
//!
//! * [`strategy`] — a seeded [`RandomStrategy`] that perturbs tie-breaks
//!   and delivery timing while logging every non-default decision, and a
//!   [`ReplayStrategy`] that re-applies a recorded decision script bit
//!   for bit.
//! * [`oracle`] — invariant oracles checked at configurable intervals and
//!   at the end of a run: IFI exactness against the ground-truth fold,
//!   cost reconciliation, hierarchy well-formedness, epoch-fence
//!   monotonicity, answer non-inflation, and certificate soundness.
//! * [`explore`](mod@explore) — the trial loop: run many perturbed schedules, count
//!   distinct schedule fingerprints, and stop at the first oracle
//!   violation (handler panics are captured and reported as violations).
//! * [`shrink`] — greedy minimization of a violating perturbation to a
//!   minimal replayable repro.
//! * [`artifact`] — replayable repro files (seed + perturbation script +
//!   trace window) under `results/simcheck/`, consumed by the
//!   `experiments simcheck-replay` subcommand.
//! * [`approx`] — the approximate-engine registry: ε-bound / recall /
//!   soundness claims explored under loss, duplication, and leaf churn,
//!   plus three mis-tuned negatives the harness must catch.
//! * [`continuous`] — the continuous-engine registry: the standing-query
//!   window-consistency claim explored under the same faults, plus the
//!   planted retirement-dropping negative.
//! * [`cases`] — the registry of configurations the harness explores:
//!   clean netFilter / resilient / maintenance worlds whose oracles must
//!   hold under every schedule, plus three pinned historical bugs the
//!   harness must rediscover (heartbeat churn-race panic,
//!   count-to-infinity freeze, double-merge under duplication).
//! * [`scale`] — the complementary axis: one run per protocol family at
//!   `N = 10^4` on the dense-arena layout, all six oracles consulted
//!   (CI's `scale` job runs it in release mode).
//!
//! [`RandomStrategy`]: strategy::RandomStrategy
//! [`ReplayStrategy`]: strategy::ReplayStrategy
//! [`ScheduleStrategy`]: ifi_sim::ScheduleStrategy

#![warn(missing_docs)]

pub mod approx;
pub mod artifact;
pub mod cases;
pub mod continuous;
pub mod explore;
pub mod oracle;
pub mod scale;
pub mod shrink;
pub mod strategy;

pub use approx::{approx_cases, find_approx_case};
pub use artifact::{parse_artifact, write_artifact, Artifact};
pub use cases::{all_cases, find_case, Case};
pub use continuous::{continuous_cases, find_continuous_case};
pub use explore::{explore, replay, ExploreConfig, ExploreReport, FoundViolation, Perturbation};
pub use oracle::{Checkpoint, Oracle, Violation};
pub use scale::{run_scale_check, ScaleVerdict};
pub use strategy::{DecisionLog, RandomStrategy, ReplayStrategy, StrategyKnobs};
