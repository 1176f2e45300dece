//! `exact_des_n100k`: the paper's certified netFilter query at 10^5 peers
//! on the DES, one query at a time (closed loop, one client).

use std::time::Instant;

use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    mix64, sansio_world, Des, Duration, LatencyModel, PeerId, SansIo, SimConfig, SimTime, World,
};
use ifi_workload::{ItemId, WorkloadParams};
use netfilter::protocol::NfDelivery;

use crate::adapters::{Mode, Traced};
use crate::des::{self, Observed, WorldCounts};
use crate::query::{self, QueryInputs};
use crate::report::{Layers, Measured, Report, SetupSpans};
use crate::{Args, MAX_MEASURE_S, MIN_ANSWERS, SETUPS};

const PEERS: usize = 100_000;
/// Queries in each half (untraced, traced) of a trace run.
const TRACED_QUERIES: usize = 2;
/// An answer later than this in sim time counts as failed.
const DEADLINE_SIM_MS: f64 = 60_000.0;

fn params() -> WorkloadParams {
    WorkloadParams {
        peers: PEERS,
        items: 200_000,
        instances_per_item: 10,
        theta: 1.0,
    }
}

/// A clean network with one fixed one-way delay per query, drawn from
/// 47.5–52.5 ms by the query's seed, so sim latency varies between
/// queries. The delay stays constant within a query: the DES delivers
/// equal-time events in batches, and per-message jitter (even ±1 ms)
/// doubles its wall time per event, which is a different workload.
fn sim(seed: u64) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_latency(LatencyModel::Constant(Duration::from_micros(
            47_500 + seed % 5_001,
        )))
}

/// The network seed of query `i`: every query draws fresh delays.
fn world_seed(seed: u64, i: u64) -> u64 {
    mix64(mix64(seed) ^ i)
}

/// Sets up `SETUPS` times, timing each stage; keeps the last inputs.
fn setup(seed: u64, spans: &mut SetupSpans) -> QueryInputs {
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (inputs, times) = QueryInputs::build(&params(), seed, || Hierarchy::balanced(PEERS, 3));
        let t0 = Instant::now();
        let world = sansio_world(sim(seed), inputs.cores());
        let core = t0.elapsed();
        drop(world);
        spans.push(times.generate, times.hierarchy, core);
        kept = Some(inputs);
    }
    kept.expect("at least one set-up")
}

/// One query on a fresh world over `cores`.
fn query<P: SansIo<Output = NfDelivery>>(
    cores: Vec<P>,
    seed: u64,
    expected: &[(ItemId, u64)],
) -> (World<Des<P>>, Observed, WorldCounts, bool) {
    let root = PeerId::new(0);
    let mut w = sansio_world(sim(seed), cores);
    let obs = des::drive(&mut w, root, &[SimTime::ZERO]);
    let delivered = w.peer(root).delivered();
    let in_time = obs
        .latencies()
        .iter()
        .all(|&(_, sim_ms)| sim_ms <= DEADLINE_SIM_MS);
    let ok = delivered.len() == 1 && query::is_correct(&delivered[0], expected) && in_time;
    let counts = WorldCounts::of(&w, query::digest(delivered));
    (w, obs, counts, ok)
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
    let mut i = 0;
    while (t0.elapsed().as_secs_f64() < args.seconds || m.attempted < MIN_ANSWERS)
        && t0.elapsed().as_secs_f64() < MAX_MEASURE_S
    {
        let began = Instant::now();
        let (w, obs, counts, ok) = query(inputs.cores(), world_seed(args.seed, i), &expected);
        drop(w);
        m.cycle(
            began,
            &obs.latencies(),
            1,
            u64::from(!ok),
            counts.total_bytes(),
        );
        i += 1;
    }
    m.elapsed = t0.elapsed();
    m.report(&spans)
}

fn traced(
    args: &Args,
    inputs: &QueryInputs,
    expected: &[(ItemId, u64)],
    spans: &SetupSpans,
) -> Report {
    let mut failed = 0;
    let mut plain = Vec::new();
    let mut plain_wall = 0.0;
    for i in 0..TRACED_QUERIES as u64 {
        let (_, obs, counts, ok) = query(inputs.cores(), world_seed(args.seed, i), expected);
        failed += u64::from(!ok);
        plain_wall += obs.wall.as_secs_f64();
        plain.push(counts);
    }
    let mut layers = Layers {
        depth: inputs.hierarchy.height(),
        ..Layers::default()
    };
    let mut mismatch = None;
    for (i, want) in (0..).zip(&plain) {
        let cores = Traced::wrap_all(inputs.cores(), Mode::Full);
        let (w, obs, counts, ok) = query(cores, world_seed(args.seed, i), expected);
        failed += u64::from(!ok);
        if &counts != want {
            mismatch.get_or_insert(format!(
                "traced counts {counts:?} differ from untraced {want:?}"
            ));
        }
        des::absorb(&mut layers, &w, &counts, &obs);
    }
    layers.overhead_ratio = layers.run_wall.as_secs_f64() / plain_wall;
    layers.report(spans, 2 * TRACED_QUERIES as u64, failed, mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_matches_the_plain_run_on_every_count() {
        let params = WorkloadParams {
            peers: 300,
            items: 3_000,
            ..params()
        };
        let (inputs, _) = QueryInputs::build(&params, 9, || Hierarchy::balanced(300, 3));
        let expected = inputs.expected();
        let (_, _, plain, ok) = query(inputs.cores(), 9, &expected);
        assert!(ok, "the certified answer is the exact IFI set");
        let cores = Traced::wrap_all(inputs.cores(), Mode::Full);
        let (w, obs, traced, ok) = query(cores, 9, &expected);
        assert!(ok);
        assert_eq!(traced, plain);

        let mut layers = Layers::default();
        des::absorb(&mut layers, &w, &traced, &obs);
        let c = layers.core;
        assert_eq!(c.activations(), traced.events);
        assert_eq!(c.sends, traced.messages);
        assert_eq!(c.retransmits, 0, "a clean network needs no retransmit");
        assert_eq!(c.acks * 2, c.sends, "every data frame is acked once");
        assert_eq!(c.timers_set, c.timers, "every retransmit check fires");
        assert_eq!((c.starts, c.delivers), (300, 1));
        assert!(c.agg_entries_in > 0);
    }
}
