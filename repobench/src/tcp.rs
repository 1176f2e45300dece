//! `exact_tcp_n32`: the certified netFilter query over the TCP loopback
//! transport with the paper-width wire codec, a fresh run per query
//! (closed loop, one client, one query in flight).

use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{DetRng, MsgClass, PeerId, ReliableMsg};
use ifi_transport::{run_tcp, RunOutcome, WireCodec};
use ifi_workload::{ItemId, WorkloadParams};
use netfilter::protocol::{NetFilterProtocol, NfMsg};
use netfilter::wire::NfWire;

#[cfg(test)]
use crate::adapters::CoreCounts;
use crate::adapters::{CodecCounts, Mode, TimedCodec, Traced};
use crate::query::{self, QueryInputs};
use crate::report::{Layers, Measured, Report, SetupSpans, CLASSES};
use crate::stats;
use crate::{Args, MAX_MEASURE_S, MIN_ANSWERS, SETUPS};

const PEERS: usize = 32;
/// The overlay is one fixed instance, so that every seed measures the
/// same 32-peer tree; the seed varies the data.
const OVERLAY_SEED: u64 = 20080617;
/// The deadline: a query without a certified answer by then has no
/// output and counts as failed.
const MAX_WAIT: StdDuration = StdDuration::from_secs(5);
/// The envelope's first retransmit timeout; an answer this late waited
/// for a lost frame.
const RTO_MS: f64 = 400.0;
/// Queries in each half (untraced, traced) of a trace run.
const TRACED_QUERIES: usize = 400;

type Core = Traced<NetFilterProtocol>;

fn params(peers: usize) -> WorkloadParams {
    WorkloadParams {
        peers,
        items: 2_000,
        instances_per_item: 10,
        theta: 1.0,
    }
}

fn inputs(peers: usize, seed: u64) -> (QueryInputs, query::StageTimes) {
    QueryInputs::build(&params(peers), seed, || {
        let topo = Topology::random_regular(peers, 3, &mut DetRng::new(OVERLAY_SEED));
        Hierarchy::bfs(&topo, PeerId::new(0))
    })
}

/// One finished query.
struct Query {
    outcome: RunOutcome<Core>,
    /// Core construction, before the call.
    build: StdDuration,
    /// When `run_tcp` was called.
    called: Instant,
    /// Whether the root delivered the certified exact answer in time.
    ok: bool,
}

impl Query {
    fn root(&self) -> &Core {
        &self.outcome.nodes[0]
    }

    /// Core construction plus the wall time from the call to the root's
    /// `Start`: the hub, dials and thread spawn.
    fn core_setup(&self) -> StdDuration {
        self.build
            + self
                .root()
                .started
                .map_or(StdDuration::ZERO, |(t, _)| t.duration_since(self.called))
    }

    /// Issue-to-answer latency `(wall ms, runtime-clock ms)`.
    fn latency(&self) -> Option<(f64, f64)> {
        let root = self.root();
        let (ws, ss) = root.started?;
        let &(wa, sa) = root.delivered.first()?;
        Some((
            wa.duration_since(ws).as_secs_f64() * 1e3,
            sa.duration_since(ss).as_secs_f64() * 1e3,
        ))
    }

    /// Bytes of the classes every correct run meters identically.
    fn paper_bytes(&self) -> Vec<u64> {
        CLASSES
            .iter()
            .filter(|&&c| c != MsgClass::RETRANSMIT)
            .map(|&c| self.outcome.report.class_bytes(c))
            .collect()
    }
}

fn query<C: WireCodec<ReliableMsg<NfMsg>>>(
    inputs: &QueryInputs,
    cores: Vec<Core>,
    codec: C,
    expected: &[(ItemId, u64)],
) -> Result<Query, String> {
    let called = Instant::now();
    let outcome = run_tcp(cores, codec, 1, MAX_WAIT).map_err(|e| format!("run_tcp: {e}"))?;
    let root = inputs.hierarchy.root();
    let ok = outcome.outputs.len() == 1
        && outcome.outputs[0].0 == root
        && query::is_correct(&outcome.outputs[0].1, expected);
    Ok(Query {
        outcome,
        build: StdDuration::ZERO,
        called,
        ok,
    })
}

fn plain_query(inputs: &QueryInputs, expected: &[(ItemId, u64)]) -> Result<Query, String> {
    let t0 = Instant::now();
    let cores = Traced::wrap_all(inputs.cores(), Mode::Probe);
    let build = t0.elapsed();
    let q = query(inputs, cores, NfWire::new(inputs.cfg.sizes), expected)?;
    Ok(Query { build, ..q })
}

/// Sets up `SETUPS` times; each set-up runs one query to reach the root's
/// first event and time the hub, dials and thread spawn.
fn setup(seed: u64, spans: &mut SetupSpans) -> Result<QueryInputs, String> {
    let mut kept = None;
    for _ in 0..SETUPS {
        let (inputs, times) = inputs(PEERS, seed);
        let q = plain_query(&inputs, &[])?;
        spans.push(times.generate, times.hierarchy, q.core_setup());
        kept = Some(inputs);
    }
    Ok(kept.expect("at least one set-up"))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut spans = SetupSpans::default();
    let inputs = setup(args.seed, &mut spans)?;
    let expected = inputs.expected();
    if args.trace {
        return traced(&inputs, &expected, &spans);
    }
    // Every query sets up a fabric, and that set-up switches between a fast
    // and a slow level for seconds at a time, so `setup_s` times it on every
    // measured query; the data set-up is timed in the set-ups above.
    let data = |v: &[f64]| StdDuration::from_secs_f64(stats::median(v));
    let (generate, hierarchy) = (data(&spans.generate), data(&spans.hierarchy));
    let mut per_query = SetupSpans::default();
    let mut m = Measured::new(PEERS);
    let t0 = Instant::now();
    while (t0.elapsed().as_secs_f64() < args.seconds || m.attempted < MIN_ANSWERS)
        && t0.elapsed().as_secs_f64() < MAX_MEASURE_S
    {
        let began = Instant::now();
        let q = plain_query(&inputs, &expected)?;
        per_query.push(generate, hierarchy, q.core_setup());
        let latency = q.latency();
        let failed = u64::from(!q.ok);
        let bytes = q.outcome.report.total_bytes();
        drop(q);
        m.cycle(began, latency.as_slice(), 1, failed, bytes);
    }
    m.elapsed = t0.elapsed();
    let slow = m.wall_ms.iter().filter(|&&ms| ms >= RTO_MS).count();
    let mut report = m.report(&per_query)?;
    report.notes.push(format!(
        "{slow} of {} answers took at least one retransmit timeout ({RTO_MS} ms)",
        m.wall_ms.len()
    ));
    Ok(report)
}

/// Wall time inside `[from, to]` not covered by any of `spans`.
fn uncovered(from: Instant, to: Instant, spans: &mut [(Instant, StdDuration)]) -> StdDuration {
    spans.sort_by_key(|&(s, _)| s);
    let mut covered = StdDuration::ZERO;
    let mut reach = from;
    for &(start, len) in spans.iter() {
        let end = (start + len).min(to);
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    to.saturating_duration_since(from).saturating_sub(covered)
}

fn traced(
    inputs: &QueryInputs,
    expected: &[(ItemId, u64)],
    spans: &SetupSpans,
) -> Result<Report, String> {
    let mut failed = 0;
    let mut plain_wall = Vec::new();
    let mut plain_bytes = Vec::new();
    for _ in 0..TRACED_QUERIES {
        let q = plain_query(inputs, expected)?;
        failed += u64::from(!q.ok);
        plain_wall.push(q.outcome.elapsed.as_secs_f64());
        plain_bytes.push(q.paper_bytes());
    }

    let mut layers = Layers {
        depth: inputs.hierarchy.height(),
        ..Layers::default()
    };
    let mut traced_wall = Vec::new();
    let mut same = true;
    let codec_counts = Arc::new(CodecCounts::default());
    for want in &plain_bytes {
        let before = codec_counts.snapshot();
        let cores = Traced::wrap_all(inputs.cores(), Mode::Spans);
        let codec = TimedCodec::new(NfWire::new(inputs.cfg.sizes), Arc::clone(&codec_counts));
        let q = query(inputs, cores, codec, expected)?;
        let after = codec_counts.snapshot();
        failed += u64::from(!q.ok);
        same &= &q.paper_bytes() == want;
        traced_wall.push(q.outcome.elapsed.as_secs_f64());

        let mut node_spans = Vec::new();
        for node in &q.outcome.nodes {
            layers.core.add(&node.counts);
            layers.core_self += node.self_time;
            node_spans.extend_from_slice(&node.spans);
        }
        for (i, slot) in layers.class_bytes.iter_mut().enumerate() {
            *slot += q.outcome.report.class_bytes(MsgClass(i as u8));
        }
        layers.frames_sent += q.outcome.frames_sent;
        layers.shed_frames += q.outcome.shed_frames;
        if let (Some((issued, _)), Some(&(answered, _))) =
            (q.root().started, q.root().delivered.first())
        {
            layers.answers += 1;
            let codec_ns = (after.1 - before.1) + (after.3 - before.3);
            layers.transport_self += uncovered(issued, answered, &mut node_spans)
                .saturating_sub(StdDuration::from_nanos(codec_ns));
        }
    }
    let c = layers.core;
    // Data frames only: acks still in flight when the run stops after
    // the answer are not losses.
    layers.frames_lost = (c.sends - c.acks).saturating_sub(c.messages - c.acks_in);
    layers.codec = codec_counts.snapshot();
    // Medians: one retransmit timeout in either half would outweigh the
    // adapters' cost in a ratio of sums.
    layers.overhead_ratio = stats::median(&traced_wall) / stats::median(&plain_wall);
    let mismatch = (!same).then(|| "traced per-class bytes differ from the untraced run".into());
    Ok(layers.report(spans, 2 * TRACED_QUERIES as u64, failed, mismatch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_agg::VecSum;

    #[test]
    fn timed_codec_writes_and_reads_the_same_bytes() {
        let wire = NfWire::new(netfilter::WireSizes::default());
        let counts = Arc::new(CodecCounts::default());
        let timed = TimedCodec::new(wire, Arc::clone(&counts));
        let msgs = [
            ReliableMsg::Plain(NfMsg::GroupAgg(VecSum(vec![3, 0, 7]))),
            ReliableMsg::Data {
                inc: 1,
                seq: 9,
                payload: NfMsg::Heavy(vec![vec![1, 2], vec![]]),
            },
            ReliableMsg::Ack { inc: 0, seq: 4 },
        ];
        for m in &msgs {
            let bytes = timed.encode(m).expect("encodes");
            assert_eq!(bytes, wire.encode(m).expect("encodes"));
            let back = timed.decode(&bytes).expect("decodes");
            assert_eq!(wire.encode(&back).expect("re-encodes"), bytes);
        }
        let (encodes, _, decodes, _) = counts.snapshot();
        assert_eq!((encodes, decodes), (3, 3));
    }

    #[test]
    fn traced_tcp_run_matches_the_plain_run() {
        let (inputs, _) = inputs(8, 3);
        let expected = inputs.expected();
        let plain = plain_query(&inputs, &expected).expect("loopback run");
        assert!(plain.ok, "plain run certifies the exact answer");

        let counts = Arc::new(CodecCounts::default());
        let cores = Traced::wrap_all(inputs.cores(), Mode::Spans);
        let codec = TimedCodec::new(NfWire::new(inputs.cfg.sizes), Arc::clone(&counts));
        let traced = query(&inputs, cores, codec, &expected).expect("loopback run");
        assert!(traced.ok, "traced run certifies the exact answer");
        assert_eq!(traced.outcome.outputs, plain.outcome.outputs);
        assert_eq!(traced.paper_bytes(), plain.paper_bytes());

        let mut core = CoreCounts::default();
        for node in &traced.outcome.nodes {
            core.add(&node.counts);
        }
        let (encodes, _, _, _) = counts.snapshot();
        assert_eq!(encodes, traced.outcome.frames_sent, "one encode per frame");
        assert_eq!(core.sends, traced.outcome.frames_sent, "one frame per send");
        assert!(traced.latency().is_some() && plain.latency().is_some());
    }

    #[test]
    fn uncovered_subtracts_the_union_of_spans_inside_the_window() {
        let t0 = Instant::now();
        let ms = StdDuration::from_millis;
        let mut spans = vec![
            (t0 + ms(2), ms(3)), // 2..5
            (t0 + ms(4), ms(2)), // 4..6, overlaps
            (t0 + ms(9), ms(5)), // 9..14, clipped at 10
            (t0, ms(1)),         // 0..1
        ];
        assert_eq!(uncovered(t0, t0 + ms(10), &mut spans), ms(10 - 1 - 4 - 1));
        assert_eq!(uncovered(t0, t0 + ms(10), &mut []), ms(10));
    }
}
