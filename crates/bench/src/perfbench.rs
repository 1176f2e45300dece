//! Named perf benchmarks for `experiments bench`.
//!
//! Each benchmark runs a *fixed, seeded* workload through the
//! [`ifi_perf`] harness (warmup + median-of-k), so its counters — events
//! processed, messages sent, wire bytes, answer digests — are
//! bit-reproducible on any machine, while its wall-clock median is
//! machine-dependent and only alarm-gated. The six default benches cover
//! the simulator's hot paths end to end; two scale benches push `N` past
//! the paper and run in CI's dedicated `scale` job (via `--only`):
//!
//! | bench | exercises |
//! |-------|-----------|
//! | `event_queue`   | DES kernel: timer + message scheduling on a ring |
//! | `codec`         | wire codec: `encode_into` buffer reuse + decode |
//! | `epoch_n1000`   | a full netFilter epoch at `N = 1000` over the DES |
//! | `maintain_tick` | heartbeat/maintenance tick loop, 200 peers, 30 s |
//! | `fig7_quick`    | the fig. 7 sweep at `--quick` scale (both panels) |
//! | `epoch_delta_n1000` | continuous delta epochs at `N = 1000` vs the full re-aggregation they replace |
//! | `epoch_n100000` | scale lane: one netFilter epoch at `N = 10^5` |
//! | `fig7_n10000`   | scale lane: fig. 7(a) skew sweep at `N = 10^4` |
//!
//! Alongside the behavioral counters, the simulator benches snapshot
//! *occupancy* high-water marks — peak event-queue length and peak
//! per-peer arena sizes (heartbeat tracker, children, dedup windows) — so
//! a state-layout regression that balloons memory shows up as exact
//! counter drift even when wall-clock stays inside tolerance.
//!
//! Reports land as `BENCH_<name>.json` in the output directory; baselines
//! live under `baselines/perf/` and are checked with counters exact.

use std::path::{Path, PathBuf};

use ifi_agg::{MapSum, VecSum};
use ifi_hierarchy::{Hierarchy, MaintainProtocol};
use ifi_overlay::{HeartbeatConfig, Topology};
use ifi_perf::{run_bench, BenchConfig, BenchReport, Sample};
use ifi_sim::{
    mix64, sansio_world, Ctx, DetRng, Duration, LatencyModel, MsgClass, PeerId, Protocol,
    SimConfig, SimTime, World,
};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::codec::Codec;
use netfilter::protocol::{NetFilterProtocol, NfMsg};
use netfilter::{NetFilterConfig, Threshold, WireSizes};

use crate::fig7;
use crate::runner::Scale;

/// Seed shared by every perf workload (the harness default).
pub const PERF_SEED: u64 = 20080617;

/// Subdirectory of the baselines dir holding perf snapshots.
pub const BASELINE_SUBDIR: &str = "perf";

fn fold(acc: u64, v: u64) -> u64 {
    mix64(acc ^ v)
}

// --- event_queue: DES kernel timer/message scheduling on a ring. ---

/// Each peer re-arms a 1 ms timer `remaining` times, sending one message
/// around the ring per tick — a pure event-queue workload (every event is
/// a heap push/pop with trivial handler work).
struct RingTicker {
    next: PeerId,
    remaining: u32,
    received: u64,
}

impl Protocol for RingTicker {
    type Msg = u64;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(Duration::from_millis(1), ());
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: PeerId, msg: u64) {
        self.received = fold(self.received, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _t: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(self.next, self.remaining as u64, 16, MsgClass::DATA);
            ctx.set_timer(Duration::from_millis(1), ());
        }
    }
}

fn bench_event_queue() -> BenchReport {
    const PEERS: usize = 500;
    const TICKS: u32 = 100;
    run_bench("event_queue", &BenchConfig { warmup: 1, reps: 5 }, || {
        let peers: Vec<RingTicker> = (0..PEERS)
            .map(|i| RingTicker {
                next: PeerId::new((i + 1) % PEERS),
                remaining: TICKS,
                received: 0,
            })
            .collect();
        let mut w = World::new(SimConfig::default().with_seed(PERF_SEED), peers);
        w.start();
        w.run_to_quiescence();
        let digest = (0..PEERS).fold(0u64, |acc, i| fold(acc, w.peer(PeerId::new(i)).received));
        Sample {
            ops: w.events_processed(),
            bytes: w.metrics().total_bytes(),
            counters: vec![
                ("messages".into(), w.metrics().total_messages()),
                ("digest".into(), digest),
                ("queue_high_water".into(), w.queue_high_water() as u64),
            ],
        }
    })
}

// --- codec: encode_into buffer reuse + decode over a message mix. ---

fn codec_messages() -> Vec<NfMsg> {
    let mut rng = DetRng::new(PERF_SEED ^ 0xC0DE);
    (0..2_000u64)
        .map(|i| match i % 3 {
            0 => NfMsg::GroupAgg(VecSum((0..100).map(|_| rng.below(1_000)).collect())),
            1 => NfMsg::Heavy(
                (0..3)
                    .map(|_| (0..20).map(|_| rng.below(100) as u32).collect())
                    .collect(),
            ),
            _ => NfMsg::CandidateAgg(MapSum::from_pairs(
                (0..50).map(|_| (ItemId(rng.below(10_000)), rng.below(500))),
            )),
        })
        .collect()
}

fn bench_codec() -> BenchReport {
    let codec = Codec::new(WireSizes::default());
    let msgs = codec_messages();
    run_bench("codec", &BenchConfig { warmup: 1, reps: 5 }, || {
        let mut buf = bytes::BytesMut::new();
        let mut encoded_bytes = 0u64;
        let mut digest = 0u64;
        for msg in &msgs {
            codec.encode_into(msg, &mut buf).expect("encodes");
            encoded_bytes += buf.len() as u64;
            digest = buf.iter().fold(digest, |acc, &b| {
                acc.wrapping_mul(31).wrapping_add(b as u64)
            });
            let decoded = codec.decode(&buf).expect("decodes");
            digest = fold(digest, codec.payload_len(&decoded));
        }
        Sample {
            ops: 2 * msgs.len() as u64, // one encode + one decode per message
            bytes: encoded_bytes,
            counters: vec![
                ("frames".into(), msgs.len() as u64),
                ("digest".into(), digest),
            ],
        }
    })
}

// --- epoch_n1000: a full netFilter epoch at N = 1000 over the DES. ---

fn bench_epoch_n1000() -> BenchReport {
    const PEERS: usize = 1_000;
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 20_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        PERF_SEED,
    );
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = NetFilterConfig::builder()
        .filter_size(100)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .hash_seed(PERF_SEED)
        .build();
    run_bench("epoch_n1000", &BenchConfig { warmup: 1, reps: 3 }, || {
        let mut w = NetFilterProtocol::build_world(
            &cfg,
            &h,
            &data,
            SimConfig::default().with_seed(PERF_SEED),
        );
        w.start();
        w.run_to_quiescence();
        let result = w.peer(PeerId::new(0)).result().expect("epoch finishes");
        let digest = result
            .iter()
            .fold(0u64, |acc, &(id, v)| fold(fold(acc, id.0), v));
        Sample {
            ops: w.events_processed(),
            bytes: w.metrics().total_bytes(),
            counters: vec![
                ("messages".into(), w.metrics().total_messages()),
                ("result_items".into(), result.len() as u64),
                ("digest".into(), digest),
                ("queue_high_water".into(), w.queue_high_water() as u64),
            ],
        }
    })
}

// --- epoch_n100000: the scale lane's full epoch at N = 10^5. ---

fn bench_epoch_n100000() -> BenchReport {
    const PEERS: usize = 100_000;
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 200_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        PERF_SEED,
    );
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = NetFilterConfig::builder()
        .filter_size(100)
        .filters(3)
        .threshold(Threshold::Ratio(0.01))
        .hash_seed(PERF_SEED)
        .build();
    run_bench("epoch_n100000", &BenchConfig { warmup: 1, reps: 2 }, || {
        let mut w = NetFilterProtocol::build_world(
            &cfg,
            &h,
            &data,
            SimConfig::default().with_seed(PERF_SEED),
        );
        w.start();
        w.run_to_quiescence();
        let result = w.peer(PeerId::new(0)).result().expect("epoch finishes");
        let digest = result
            .iter()
            .fold(0u64, |acc, &(id, v)| fold(fold(acc, id.0), v));
        Sample {
            ops: w.events_processed(),
            bytes: w.metrics().total_bytes(),
            counters: vec![
                ("messages".into(), w.metrics().total_messages()),
                ("result_items".into(), result.len() as u64),
                ("digest".into(), digest),
                ("queue_high_water".into(), w.queue_high_water() as u64),
            ],
        }
    })
}

// --- maintain_tick: heartbeat/maintenance loop, 200 peers, 30 s. ---

fn bench_maintain_tick() -> BenchReport {
    const PEERS: usize = 200;
    let topo = Topology::random_regular(PEERS, 4, &mut DetRng::new(PERF_SEED));
    let h = Hierarchy::bfs(&topo, PeerId::new(0));
    let cfg = HeartbeatConfig {
        interval: Duration::from_millis(500),
        timeout: Duration::from_millis(1_600),
        bytes: 8,
    };
    run_bench("maintain_tick", &BenchConfig { warmup: 1, reps: 3 }, || {
        let peers = MaintainProtocol::peers(&topo, &h, cfg, None);
        let mut w = sansio_world(
            SimConfig::default()
                .with_seed(PERF_SEED)
                .with_latency(LatencyModel::Constant(Duration::from_millis(20))),
            peers,
        );
        w.start();
        w.run_until(SimTime::from_micros(30_000_000));
        let (mut tracked_hw, mut children_hw) = (0u64, 0u64);
        for i in 0..PEERS {
            let p = w.peer(PeerId::new(i));
            tracked_hw = tracked_hw.max(p.tracked_high_water() as u64);
            children_hw = children_hw.max(p.children_high_water() as u64);
        }
        Sample {
            ops: w.events_processed(),
            bytes: w.metrics().total_bytes(),
            counters: vec![
                ("messages".into(), w.metrics().total_messages()),
                ("queue_high_water".into(), w.queue_high_water() as u64),
                ("tracked_high_water".into(), tracked_hw),
                ("children_high_water".into(), children_hw),
            ],
        }
    })
}

// --- fig7_quick: the fig. 7 skew sweep at --quick scale. ---

fn bench_fig7_quick() -> BenchReport {
    run_bench("fig7_quick", &BenchConfig { warmup: 1, reps: 3 }, || {
        let (a, b) = fig7::run(Scale::Quick, PERF_SEED);
        let mut ops = 0u64;
        let mut bytes = 0u64;
        let mut digest = 0u64;
        for panel in [&a, &b] {
            for row in &panel.rows {
                ops += 1;
                bytes += (row.netfilter + row.naive) as u64;
                digest = fold(digest, row.netfilter.to_bits());
                digest = fold(digest, row.naive.to_bits());
            }
        }
        Sample {
            ops,
            bytes,
            counters: vec![("digest".into(), digest)],
        }
    })
}

// --- fig7_n10000: the scale lane's fig. 7(a) sweep at N = 10^4. ---

fn bench_fig7_n10000() -> BenchReport {
    let scale = Scale::Custom {
        peers: 10_000,
        items_small: 100_000,
        items_large: 1_000_000,
    };
    run_bench("fig7_n10000", &BenchConfig { warmup: 0, reps: 2 }, || {
        let panel = fig7::run_panel(scale, "a", scale.items_small(), 100, 3, PERF_SEED);
        let mut ops = 0u64;
        let mut bytes = 0u64;
        let mut digest = 0u64;
        for row in &panel.rows {
            ops += 1;
            bytes += (row.netfilter + row.naive) as u64;
            digest = fold(digest, row.netfilter.to_bits());
            digest = fold(digest, row.naive.to_bits());
        }
        Sample {
            ops,
            bytes,
            counters: vec![("digest".into(), digest)],
        }
    })
}

// --- epoch_delta_n1000: continuous delta epochs vs full re-aggregation. ---

/// What a from-scratch window re-aggregation convergecast would cost at
/// one fence: every child→parent edge carries its subtree's merged live-
/// window item set (`s_i` header + one pair per item), computed exactly
/// over the hierarchy.
fn full_reaggregation_bytes(
    h: &Hierarchy,
    schedules: &[Vec<Vec<(ItemId, u64)>>],
    epoch: usize,
    window: usize,
    sizes: &WireSizes,
) -> u64 {
    use std::collections::BTreeMap;
    let lo = (epoch + 2).saturating_sub(window); // epoch − (W − 2)
    let per_peer: Vec<BTreeMap<ItemId, u64>> = schedules
        .iter()
        .map(|sched| {
            let mut win = BTreeMap::new();
            for batch in sched.iter().take(epoch + 1).skip(lo) {
                for &(item, v) in batch {
                    *win.entry(item).or_insert(0) += v;
                }
            }
            win
        })
        .collect();
    fn fold_up(
        h: &Hierarchy,
        p: PeerId,
        per_peer: &[std::collections::BTreeMap<ItemId, u64>],
        sizes: &WireSizes,
        total: &mut u64,
    ) -> std::collections::BTreeMap<ItemId, u64> {
        let mut acc = per_peer[p.index()].clone();
        for &c in h.children(p) {
            let sub = fold_up(h, c, per_peer, sizes, total);
            *total += sizes.si + sizes.pair() * sub.len() as u64;
            for (k, v) in sub {
                *acc.entry(k).or_insert(0) += v;
            }
        }
        acc
    }
    let mut total = 0;
    fold_up(h, h.root(), &per_peer, sizes, &mut total);
    total
}

fn bench_epoch_delta_n1000() -> BenchReport {
    use netfilter::continuous::{
        schedule_from_data, ContinuousConfig, ContinuousProtocol, QueryRegistry,
    };
    const PEERS: usize = 1_000;
    const EPOCHS: usize = 6;
    const WINDOW: usize = 4;
    let data = SystemData::generate_paper(
        &WorkloadParams {
            peers: PEERS,
            items: 20_000,
            instances_per_item: 10,
            theta: 1.0,
        },
        PERF_SEED,
    );
    let schedules = schedule_from_data(&data, EPOCHS);
    let h = Hierarchy::balanced(PEERS, 3);
    let cfg = ContinuousConfig::new(WINDOW, EPOCHS);
    let registry = QueryRegistry::single(1_000, PeerId::new(PEERS - 1));
    let sizes = WireSizes::default();
    run_bench(
        "epoch_delta_n1000",
        &BenchConfig { warmup: 1, reps: 3 },
        || {
            let mut w = ContinuousProtocol::build_world(
                &cfg,
                &h,
                &registry,
                &schedules,
                SimConfig::default().with_seed(PERF_SEED),
            );
            w.start();
            w.run_to_quiescence();
            let root = w.peer(PeerId::new(0));
            let digest = root
                .standing()
                .iter()
                .fold(0u64, |acc, (&id, &v)| fold(fold(acc, id.0), v));
            let full_bytes: u64 = (0..EPOCHS)
                .map(|e| full_reaggregation_bytes(&h, &schedules, e, WINDOW, &sizes))
                .sum();
            Sample {
                ops: w.events_processed(),
                bytes: w.metrics().total_bytes(),
                counters: vec![
                    ("messages".into(), w.metrics().total_messages()),
                    ("epochs_certified".into(), root.history().len() as u64),
                    (
                        "delta_bytes".into(),
                        w.metrics().class_bytes(MsgClass::DELTA),
                    ),
                    ("full_reagg_bytes".into(), full_bytes),
                    ("digest".into(), digest),
                    ("queue_high_water".into(), w.queue_high_water() as u64),
                ],
            }
        },
    )
}

type BenchFn = fn() -> BenchReport;

/// Every benchmark by name: the six default hot-path benches first, then
/// the scale-lane benches (selected by CI's `scale` job via `--only`).
const REGISTRY: [(&str, BenchFn); 8] = [
    ("event_queue", bench_event_queue),
    ("codec", bench_codec),
    ("epoch_n1000", bench_epoch_n1000),
    ("maintain_tick", bench_maintain_tick),
    ("fig7_quick", bench_fig7_quick),
    ("epoch_delta_n1000", bench_epoch_delta_n1000),
    ("epoch_n100000", bench_epoch_n100000),
    ("fig7_n10000", bench_fig7_n10000),
];

/// How many of [`REGISTRY`]'s leading entries a plain `bench` runs (the
/// scale benches only run when named via `--only`).
const DEFAULT_BENCHES: usize = 6;

/// Names of every registered benchmark, default set first.
pub fn bench_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|&(n, _)| n).collect()
}

/// Runs the six default benchmarks at their fixed seeds, in a stable
/// order.
pub fn run_all() -> Vec<BenchReport> {
    REGISTRY[..DEFAULT_BENCHES]
        .iter()
        .map(|(_, f)| f())
        .collect()
}

/// Runs only the named benchmarks (any registered name, scale benches
/// included), preserving the caller's order.
///
/// # Errors
///
/// Returns the offending name if it is not registered.
pub fn run_named(names: &[&str]) -> Result<Vec<BenchReport>, String> {
    names
        .iter()
        .map(|want| {
            REGISTRY
                .iter()
                .find(|&&(n, _)| n == *want)
                .map(|(_, f)| f())
                .ok_or_else(|| {
                    format!(
                        "unknown bench {want:?} (known: {})",
                        bench_names().join(", ")
                    )
                })
        })
        .collect()
}

/// Writes each report as `<dir>/BENCH_<name>.json` (the CI artifact).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_reports(dir: &Path, reports: &[BenchReport]) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for r in reports {
        let path = dir.join(format!("BENCH_{}.json", r.name));
        std::fs::write(&path, r.to_json())?;
        written.push(path);
    }
    Ok(written)
}

/// Prints the human-readable summary table.
pub fn print_table(reports: &[BenchReport]) {
    println!("\n== perf benchmarks (median of k, counters exact) ==");
    println!("{}", ifi_perf::report::table_header());
    for r in reports {
        println!("{}", r.table_row());
    }
}

/// Writes (or refreshes) every perf baseline under `<baselines>/perf/`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_baselines(
    baselines_dir: &Path,
    reports: &[BenchReport],
) -> std::io::Result<Vec<PathBuf>> {
    let dir = baselines_dir.join(BASELINE_SUBDIR);
    reports
        .iter()
        .map(|r| ifi_perf::write_baseline(&dir, r))
        .collect()
}

/// Checks every report against its committed baseline, keeping the
/// verdicts per bench: `(name, problems)` in report order, `problems`
/// empty on pass. `bench --check` renders this as its summary table.
pub fn check_baselines_per_bench(
    baselines_dir: &Path,
    reports: &[BenchReport],
    tolerance: f64,
) -> Vec<(String, Vec<String>)> {
    let dir = baselines_dir.join(BASELINE_SUBDIR);
    reports
        .iter()
        .map(|r| (r.name.clone(), ifi_perf::check_baseline(&dir, r, tolerance)))
        .collect()
}

/// Checks every report against its committed baseline. Returns
/// human-readable problem lines (empty = pass).
pub fn check_baselines(
    baselines_dir: &Path,
    reports: &[BenchReport],
    tolerance: f64,
) -> Vec<String> {
    check_baselines_per_bench(baselines_dir, reports, tolerance)
        .into_iter()
        .flat_map(|(_, problems)| problems)
        .collect()
}

/// Wall-clock tolerance for `bench --check`: an explicit `--tolerance`
/// wins, then the `PERF_WALL_TOLERANCE` environment variable (CI sets it
/// once at workflow level so every perf lane shares one knob), then a
/// generous ±50 %.
pub fn wall_tolerance(explicit: Option<f64>) -> f64 {
    explicit
        .or_else(|| {
            std::env::var("PERF_WALL_TOLERANCE")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_queue_counters_are_deterministic_across_runs() {
        let a = bench_event_queue();
        let b = bench_event_queue();
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.counters, b.counters);
        assert!(a.ops > 0 && a.bytes > 0);
    }

    #[test]
    fn codec_counters_are_deterministic_across_runs() {
        let a = bench_codec();
        let b = bench_codec();
        assert_eq!((a.ops, a.bytes, a.counters), (b.ops, b.bytes, b.counters));
    }

    #[test]
    fn reports_round_trip_and_name_their_files() {
        let r = bench_codec();
        let parsed = BenchReport::parse(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
        let dir = std::env::temp_dir().join(format!("ifi_perfbench_{}", std::process::id()));
        let paths = write_reports(&dir, std::slice::from_ref(&r)).expect("writable");
        assert!(paths[0].ends_with("BENCH_codec.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_named_selects_and_rejects() {
        let reports = run_named(&["codec"]).expect("codec is registered");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].name, "codec");
        let err = run_named(&["codec", "nope"]).unwrap_err();
        assert!(err.contains("unknown bench"), "{err}");
        assert!(err.contains("epoch_n100000"), "{err}");
    }

    #[test]
    fn default_set_excludes_the_scale_benches() {
        let names = bench_names();
        assert_eq!(names.len(), REGISTRY.len());
        assert!(names[..DEFAULT_BENCHES].contains(&"epoch_delta_n1000"));
        assert!(!names[..DEFAULT_BENCHES].contains(&"epoch_n100000"));
        assert!(names[DEFAULT_BENCHES..].contains(&"epoch_n100000"));
        assert!(names[DEFAULT_BENCHES..].contains(&"fig7_n10000"));
    }

    #[test]
    fn epoch_delta_certifies_and_undercuts_full_reaggregation() {
        let r = bench_epoch_delta_n1000();
        let counter = |name: &str| {
            r.counters
                .iter()
                .find(|(n, _)| n.as_str() == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(counter("epochs_certified"), 6);
        let (delta, full) = (counter("delta_bytes"), counter("full_reagg_bytes"));
        assert!(delta > 0);
        assert!(
            delta < full,
            "delta epochs ({delta} B) must undercut full re-aggregation ({full} B)"
        );
    }

    #[test]
    fn per_bench_check_separates_verdicts() {
        let dir = std::env::temp_dir().join(format!("ifi_perfbench_pb_{}", std::process::id()));
        let r = bench_codec();
        write_baselines(&dir, std::slice::from_ref(&r)).expect("writable");
        // A second report with no committed baseline must fail on its own
        // row without polluting the passing bench's verdict.
        let ghost = BenchReport {
            name: "ghost".into(),
            ops: 1,
            bytes: 1,
            counters: Vec::new(),
            wall: r.wall.clone(),
        };
        let verdicts = check_baselines_per_bench(&dir, &[r.clone(), ghost], 10.0);
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0].0, "codec");
        assert!(verdicts[0].1.is_empty(), "{:?}", verdicts[0].1);
        assert_eq!(verdicts[1].0, "ghost");
        assert!(!verdicts[1].1.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wall_tolerance_prefers_explicit_then_env_then_default() {
        assert_eq!(wall_tolerance(Some(0.25)), 0.25);
        std::env::set_var("PERF_WALL_TOLERANCE", "0.75");
        assert_eq!(wall_tolerance(None), 0.75);
        std::env::remove_var("PERF_WALL_TOLERANCE");
        assert_eq!(wall_tolerance(None), 0.5);
    }

    #[test]
    fn baseline_check_catches_op_drift() {
        let dir = std::env::temp_dir().join(format!("ifi_perfbench_bl_{}", std::process::id()));
        let r = bench_codec();
        write_baselines(&dir, std::slice::from_ref(&r)).expect("writable");
        assert!(check_baselines(&dir, std::slice::from_ref(&r), 0.0).is_empty());
        let mut drifted = r.clone();
        drifted.ops += 1;
        let problems = check_baselines(&dir, std::slice::from_ref(&drifted), 10.0);
        assert!(
            problems.iter().any(|p| p.contains("exact field ops")),
            "{problems:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
