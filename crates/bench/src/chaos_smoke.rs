//! Chaos smoke: the transport survives injected faults and still
//! reconciles with the DES — as a CI gate.
//!
//! The `transport-smoke` lane proves DES ≡ transport on clean runs; this
//! lane proves the equivalence *under fire*. A seeded [`ChaosPlan`] —
//! 10% frame drop, one mid-epoch peer-thread crash with a delayed
//! restart, one transient partition — is injected into both the channel
//! fabric and the TCP hub, and the very same scenario is translated onto
//! the DES via [`ChaosPlan::fault_plan`] / [`ChaosPlan::crash_schedule`].
//! The gates, per fabric:
//!
//! * the root delivers exactly the faulted-DES answer with a `Complete`
//!   census certificate — losses were *recovered*, not papered over;
//! * paper-phase and census (`FAILOVER`) bytes reconcile to the byte
//!   (charge-at-send makes them loss-independent);
//! * the chaos layer actually bit: frames were dropped and the scheduled
//!   crash restarted exactly once.
//!
//! `experiments chaos-smoke [--metrics-out dir]` prints the checks and
//! writes each fabric's full [`MetricsReport`] as
//! `<dir>/<name>.metrics.json`, the same artifact shape the other smoke
//! lanes upload.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration as StdDuration;

use ifi_hierarchy::Hierarchy;
use ifi_overlay::Topology;
use ifi_sim::{sansio_world, DetRng, MetricsReport, MsgClass, PeerId, RelConfig, SimConfig};
use ifi_transport::{run_channel_chaos, run_tcp_chaos, ChaosPlan, RunOutcome};
use ifi_workload::{ItemId, SystemData, WorkloadParams};
use netfilter::protocol::NetFilterProtocol;
use netfilter::resilient::Certificate;
use netfilter::wire::NfWire;
use netfilter::{NetFilterConfig, Threshold};

use crate::transport_smoke::render_warnings;
use crate::ShapeCheck;

/// Peers in the chaos scenario — small enough for a CI smoke lane, deep
/// enough that the crashed peer has a subtree to strand.
const PEERS: usize = 24;

/// The paper's three metered phases.
const PAPER_PHASES: [&str; 3] = ["filtering", "dissemination", "aggregation"];

/// Generous wall-clock bound; the reconnect backoff and the 400 ms
/// restart delay dominate, loopback I/O is milliseconds.
const MAX_WAIT: StdDuration = StdDuration::from_secs(120);

/// One chaos scenario: its metrics report plus the checks it must pass.
#[derive(Debug)]
pub struct ChaosRun {
    /// Scenario name; the metrics artifact is `<name>.metrics.json`.
    pub name: &'static str,
    /// Full per-phase / per-peer metrics of the run.
    pub report: MetricsReport,
    /// Exactness, certification, and reconciliation checks.
    pub checks: Vec<ShapeCheck>,
}

struct Scenario {
    cfg: NetFilterConfig,
    hierarchy: Hierarchy,
    data: SystemData,
}

fn scenario(seed: u64) -> Scenario {
    let data = SystemData::generate(
        &WorkloadParams {
            peers: PEERS,
            items: 200,
            instances_per_item: 10,
            theta: 1.0,
        },
        seed,
    );
    let topo = Topology::random_regular(PEERS, 3, &mut DetRng::new(seed));
    let hierarchy = Hierarchy::bfs(&topo, PeerId::new(0));
    let cfg = NetFilterConfig::builder()
        .filter_size(24)
        .filters(2)
        .threshold(Threshold::Ratio(0.01))
        .build();
    Scenario {
        cfg,
        hierarchy,
        data,
    }
}

/// The reference chaos scenario from the robustness acceptance gate:
/// ≥10% frame drop, one mid-epoch crash + delayed restart, one transient
/// partition. Crash and partition avoid the root so the result delivery
/// is exercised *under* recovery rather than torn down with it.
fn chaos_plan(s: &Scenario) -> ChaosPlan {
    let root = s.hierarchy.root();
    let crash = (0..s.data.peer_count())
        .map(PeerId::new)
        .find(|&p| p != root)
        .expect("scenario has a non-root peer");
    let islander = (0..s.data.peer_count())
        .map(PeerId::new)
        .find(|&p| p != root && p != crash)
        .expect("scenario has a third peer");
    ChaosPlan::new(0xC4A05)
        .with_drop(0.10)
        .with_crash(
            crash,
            StdDuration::from_millis(150),
            StdDuration::from_millis(400),
        )
        .with_partition(
            StdDuration::from_millis(50),
            StdDuration::from_millis(650),
            [islander],
        )
}

/// The DES run of the same scenario under the translated fault plan.
fn des_run_under_faults(
    s: &Scenario,
    plan: &ChaosPlan,
    seed: u64,
) -> (Vec<(ItemId, u64)>, MetricsReport) {
    let sim = SimConfig::default()
        .with_seed(seed)
        .with_faults(plan.fault_plan());
    let mut w = sansio_world(sim, certified_peers(s));
    for (kill, revive, peer) in plan.crash_schedule() {
        w.schedule_kill(kill, peer);
        w.schedule_revive(revive, peer);
    }
    w.enable_metrics_sink();
    w.start();
    w.run_to_quiescence();
    let root = s.hierarchy.root();
    assert_eq!(
        w.peer(root).certificate(),
        Some(Certificate::Complete),
        "DES run under faults must certify complete coverage"
    );
    let answer = w
        .peer(root)
        .result()
        .expect("DES root must finish under faults")
        .to_vec();
    (answer, w.metrics_report())
}

/// The certified peer population, as bare cores for a transport driver.
fn certified_peers(s: &Scenario) -> Vec<NetFilterProtocol> {
    NetFilterProtocol::peers(
        &s.cfg,
        &s.hierarchy,
        &s.data,
        Some(RelConfig::default()),
        true,
    )
}

/// Checks one fabric's chaos outcome against the faulted-DES reference.
fn reconcile(
    name: &'static str,
    s: &Scenario,
    des_answer: &[(ItemId, u64)],
    des_report: &MetricsReport,
    outcome: RunOutcome<NetFilterProtocol>,
) -> ChaosRun {
    let mut checks = Vec::new();

    let root = s.hierarchy.root();
    let answer_ok = outcome.outputs.len() == 1
        && outcome.outputs[0].0 == root
        && outcome.outputs[0].1.answer == des_answer;
    checks.push(ShapeCheck::new(
        "root delivers exactly the faulted-DES answer under chaos",
        answer_ok,
        format!(
            "deliveries {}, {} frequent items expected",
            outcome.outputs.len(),
            des_answer.len()
        ),
    ));

    let cert = outcome.outputs.first().and_then(|(_, d)| d.certificate);
    checks.push(ShapeCheck::new(
        "census certificate is Complete — every loss was recovered",
        cert == Some(Certificate::Complete),
        format!("certificate: {cert:?}"),
    ));

    let mut detail = Vec::new();
    let mut bytes_ok = true;
    for phase in PAPER_PHASES {
        let got = outcome.report.phase_bytes(phase);
        let want = des_report.phase_bytes(phase);
        bytes_ok &= got == want;
        detail.push(format!("{phase}: transport {got} B vs DES {want} B"));
    }
    let got = outcome.report.class_bytes(MsgClass::FAILOVER);
    let want = des_report.class_bytes(MsgClass::FAILOVER);
    bytes_ok &= got == want;
    detail.push(format!("census: transport {got} B vs DES {want} B"));
    checks.push(ShapeCheck::new(
        "paper-phase and census bytes reconcile with the faulted DES",
        bytes_ok,
        detail.join(", "),
    ));

    checks.push(ShapeCheck::new(
        "the chaos layer actually bit: drops > 0 and exactly one restart",
        outcome.chaos_drops > 0 && outcome.restarts == 1,
        format!(
            "chaos drops {}, restarts {}, shed frames {}",
            outcome.chaos_drops, outcome.restarts, outcome.shed_frames
        ),
    ));

    for (label, count) in &outcome.report.warnings {
        println!("  {name}: warning `{label}` ({count}x)");
    }
    println!(
        "  {name}: {} frames on the fabric, {} dropped by chaos, {} restart(s), \
         retransmit class {} B, {:.1} ms wall clock (warnings: {})",
        outcome.frames_sent,
        outcome.chaos_drops,
        outcome.restarts,
        outcome.report.class_bytes(MsgClass::RETRANSMIT),
        outcome.elapsed.as_secs_f64() * 1e3,
        render_warnings(&outcome.report.warnings),
    );

    ChaosRun {
        name,
        report: outcome.report,
        checks,
    }
}

/// Runs the chaos smoke: the faulted-DES reference, then the channel and
/// TCP fabrics under the equivalent chaos plan.
pub fn run_smoke(seed: u64) -> Vec<ChaosRun> {
    let s = scenario(seed);
    let plan = chaos_plan(&s);
    let (des_answer, des_report) = des_run_under_faults(&s, &plan, seed);
    println!(
        "  faulted-DES reference: {} frequent items, {} B total, {} B retransmit class",
        des_answer.len(),
        des_report.total_bytes(),
        des_report.class_bytes(MsgClass::RETRANSMIT),
    );

    let channel = run_channel_chaos(certified_peers(&s), 1, MAX_WAIT, plan.clone());
    let channel_run = reconcile("chaos-channel", &s, &des_answer, &des_report, channel);

    let tcp_run = match run_tcp_chaos(
        certified_peers(&s),
        NfWire::new(s.cfg.sizes),
        1,
        MAX_WAIT,
        plan,
    ) {
        Ok(outcome) => reconcile("chaos-tcp", &s, &des_answer, &des_report, outcome),
        Err(e) => ChaosRun {
            name: "chaos-tcp",
            report: ifi_sim::EventSink::new(PEERS).report(),
            checks: vec![ShapeCheck::new(
                "TCP loopback fabric sets up under chaos",
                false,
                format!("setup failed: {e}"),
            )],
        },
    };

    vec![channel_run, tcp_run]
}

/// Writes each run's full report as `<dir>/<name>.metrics.json`.
///
/// # Errors
///
/// Fails if the directory cannot be created or a file cannot be written.
pub fn write_metrics(dir: &Path, runs: &[ChaosRun]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(runs.len());
    for run in runs {
        let path = dir.join(format!("{}.metrics.json", run.name));
        std::fs::write(&path, run.report.to_json())?;
        paths.push(path);
    }
    Ok(paths)
}
