//! `standing_lossy_n10k`: K = 8 standing queries on the continuous engine
//! at 10^4 peers under 10 % drop and 2 % duplication, fences firing on
//! schedule (open loop) every 200 ms of sim time.

use std::time::Instant;

use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    mix64, sansio_world, Des, FaultPlan, PeerId, RelConfig, SansIo, SimConfig, SimTime, World,
};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::continuous::{
    schedule_from_data, window_totals_from_scratch, ContinuousConfig, ContinuousProtocol,
    EpochAnswer, QueryRegistry, StandingQuery,
};

use crate::adapters::{Mode, Traced};
use crate::des::{self, Observed, WorldCounts};
use crate::query::StageTimes;
use crate::report::{Layers, Measured, Report, SetupSpans};
use crate::{Args, MAX_MEASURE_S, SETUPS};

const PEERS: usize = 10_000;
const FENCES: usize = 40;
const WINDOW: usize = 4;
/// Threshold ratios of the eight standing queries, against the mass of a
/// full window.
const RATIOS: [f64; 8] = [0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.015, 0.02];
/// A fence answer later than this after its due time counts as failed.
const DEADLINE_SIM_MS: f64 = 60_000.0;

type Schedules = Vec<Vec<Vec<(ItemId, u64)>>>;

struct Inputs {
    schedules: Schedules,
    hierarchy: Hierarchy,
    cfg: ContinuousConfig,
    registry: QueryRegistry,
}

impl Inputs {
    fn cores(&self) -> Vec<ContinuousProtocol> {
        ContinuousProtocol::peers(
            &self.cfg,
            &self.hierarchy,
            &self.registry,
            &self.schedules,
            Some(RelConfig::default()),
        )
    }

    /// Fence `e` is due one epoch after fence `e − 1`, the first one
    /// epoch after start.
    fn due(&self) -> Vec<SimTime> {
        (1..=FENCES as u64)
            .map(|e| SimTime::ZERO + self.cfg.epoch.saturating_mul(e))
            .collect()
    }

    /// Every query's exact answer at every fence, from scratch.
    fn expected(&self) -> Vec<Vec<Vec<(ItemId, u64)>>> {
        (0..FENCES as u64)
            .map(|e| {
                let mut totals: Vec<(ItemId, u64)> =
                    window_totals_from_scratch(&self.schedules, e, WINDOW)
                        .into_iter()
                        .collect();
                totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                self.registry
                    .queries()
                    .iter()
                    .map(|q| {
                        totals
                            .iter()
                            .take_while(|&&(_, v)| v >= q.threshold)
                            .copied()
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }
}

fn params(peers: usize) -> WorkloadParams {
    WorkloadParams {
        peers,
        items: 100_000,
        instances_per_item: 10,
        theta: 1.0,
    }
}

fn sim(seed: u64, world: u64) -> SimConfig {
    let faults = FaultPlan::none().with_drop(0.10).with_duplication(0.02);
    SimConfig::default()
        .with_seed(mix64(mix64(seed) ^ world))
        .with_faults(faults)
}

fn registry(data: &SystemData) -> QueryRegistry {
    let peers = data.peer_count();
    let window_mass = data.total_value() as f64 * (WINDOW - 1) as f64 / FENCES as f64;
    let mut r = QueryRegistry::new();
    for (k, ratio) in RATIOS.into_iter().enumerate() {
        r.register(StandingQuery {
            id: k as u32,
            threshold: ((window_mass * ratio).ceil() as u64).max(1),
            subscriber: PeerId::new((k + 1) * peers / (RATIOS.len() + 1)),
        });
    }
    r
}

/// Generates the inputs for `peers` peers, timing data generation
/// (schedules and registry included) and hierarchy construction.
fn generate(peers: usize, seed: u64) -> (Inputs, StageTimes) {
    let t0 = Instant::now();
    let data = SystemData::generate_paper(&params(peers), seed);
    let schedules = schedule_from_data(&data, FENCES);
    let registry = registry(&data);
    let t1 = Instant::now();
    let hierarchy = Hierarchy::balanced(peers, 3);
    let t2 = Instant::now();
    let inputs = Inputs {
        schedules,
        hierarchy,
        cfg: ContinuousConfig::new(WINDOW, FENCES),
        registry,
    };
    let times = StageTimes {
        generate: t1 - t0,
        hierarchy: t2 - t1,
    };
    (inputs, times)
}

fn setup(seed: u64, spans: &mut SetupSpans) -> Inputs {
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (inputs, times) = generate(PEERS, seed);
        let t0 = Instant::now();
        let world = sansio_world(sim(seed, 0), inputs.cores());
        let core_time = t0.elapsed();
        drop(world);
        spans.push(times.generate, times.hierarchy, core_time);
        kept = Some(inputs);
    }
    kept.expect("at least one set-up")
}

/// Whether a fence answer is the certified window answer of every query.
fn answer_ok(
    a: &EpochAnswer,
    epoch: usize,
    peers: usize,
    expected: &[Vec<Vec<(ItemId, u64)>>],
) -> bool {
    a.epoch == epoch as u64
        && a.contributors == peers
        && a.answers.len() == expected[epoch].len()
        && a.answers
            .iter()
            .zip(&expected[epoch])
            .all(|(got, want)| &got.items == want)
}

fn digest(answers: &[EpochAnswer]) -> u64 {
    answers.iter().fold(0, |acc, a| {
        a.answers.iter().fold(mix64(acc ^ a.epoch), |acc, q| {
            q.items
                .iter()
                .fold(mix64(acc ^ u64::from(q.query)), |acc, &(id, v)| {
                    mix64(mix64(acc ^ id.0) ^ v)
                })
        })
    })
}

/// One run of every fence on a fresh world; returns the world, what was
/// observed, its counts and the number of failed fence answers.
fn fences<P: SansIo<Output = EpochAnswer>>(
    inputs: &Inputs,
    cores: Vec<P>,
    seed: u64,
    world: u64,
    expected: &[Vec<Vec<(ItemId, u64)>>],
) -> (World<Des<P>>, Observed, WorldCounts, u64) {
    let root = inputs.hierarchy.root();
    let mut w = sansio_world(sim(seed, world), cores);
    let obs = des::drive(&mut w, root, &inputs.due());
    let delivered = w.peer(root).delivered();
    let latencies = obs.latencies();
    let good = delivered
        .iter()
        .enumerate()
        .filter(|&(e, a)| {
            e < FENCES
                && answer_ok(a, e, inputs.hierarchy.universe(), expected)
                && latencies.get(e).is_some_and(|&(_, s)| s <= DEADLINE_SIM_MS)
        })
        .count();
    let counts = WorldCounts::of(&w, digest(delivered));
    (w, obs, counts, (FENCES - good) as u64)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut spans = SetupSpans::default();
    let inputs = setup(args.seed, &mut spans);
    let expected = inputs.expected();
    if args.trace {
        return Ok(traced(args, &inputs, &expected, &spans));
    }
    let mut m = Measured::new(PEERS);
    let t0 = Instant::now();
    let mut world = 0;
    while (t0.elapsed().as_secs_f64() < args.seconds || world == 0)
        && t0.elapsed().as_secs_f64() < MAX_MEASURE_S
    {
        let began = Instant::now();
        let (w, obs, counts, failed) = fences(&inputs, inputs.cores(), args.seed, world, &expected);
        drop(w);
        m.cycle(
            began,
            &obs.latencies(),
            FENCES as u64,
            failed,
            counts.total_bytes(),
        );
        world += 1;
    }
    m.elapsed = t0.elapsed();
    m.report(&spans)
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    expected: &[Vec<Vec<(ItemId, u64)>>],
    spans: &SetupSpans,
) -> Report {
    let (_, plain_obs, plain, mut failed) = fences(inputs, inputs.cores(), args.seed, 0, expected);
    let cores = Traced::wrap_all(inputs.cores(), Mode::Full);
    let (w, obs, counts, traced_failed) = fences(inputs, cores, args.seed, 0, expected);
    failed += traced_failed;
    let mut layers = Layers {
        depth: inputs.hierarchy.height(),
        ..Layers::default()
    };
    des::absorb(&mut layers, &w, &counts, &obs);
    layers.overhead_ratio = obs.wall.as_secs_f64() / plain_obs.wall.as_secs_f64();
    let mismatch = (counts != plain)
        .then(|| format!("traced counts {counts:?} differ from untraced {plain:?}"));
    layers.report(spans, 2 * FENCES as u64, failed, mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_matches_the_plain_run_on_every_count() {
        let (inputs, _) = generate(120, 5);
        let expected = inputs.expected();
        let (_, _, plain, failed) = fences(&inputs, inputs.cores(), 5, 0, &expected);
        assert_eq!(failed, 0, "every fence certifies the exact window answer");
        let cores = Traced::wrap_all(inputs.cores(), Mode::Full);
        let (w, obs, traced, failed) = fences(&inputs, cores, 5, 0, &expected);
        assert_eq!(failed, 0);
        assert_eq!(traced, plain);
        assert_eq!(obs.answered.len(), FENCES);

        let mut layers = Layers::default();
        des::absorb(&mut layers, &w, &traced, &obs);
        let c = layers.core;
        assert_eq!(c.activations(), traced.events, "no timer is cancelled");
        assert_eq!(c.sends, traced.messages);
        assert!(
            c.retransmits > 0 && c.acks > 0,
            "loss exercises the envelope"
        );
        assert_eq!(c.delivers, FENCES as u64);
    }
}
