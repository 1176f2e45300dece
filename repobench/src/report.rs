//! The metric tables and the one-line JSON result.
//!
//! Per-layer counts are per certified answer of the traced run unless the
//! unit says otherwise; a layer a workload leaves idle reports 0.

use std::fmt::Write as _;
use std::time::{Duration as StdDuration, Instant};

use ifi_sim::MsgClass;

use crate::adapters::CoreCounts;
use crate::stats;

/// End-to-end metrics, printed with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("answer_wall_ms_p50", "ms"),
    ("answer_wall_ms_tail", "ms"),
    ("answer_sim_ms_p50", "ms"),
    ("answers_per_s", "1/s"),
    ("bytes_per_peer", "B"),
    ("peak_rss_mb", "MB"),
];

/// The metered classes the three workloads use, in report order.
pub const CLASSES: [MsgClass; 7] = [
    MsgClass::FILTERING,
    MsgClass::DISSEMINATION,
    MsgClass::AGGREGATION,
    MsgClass::RETRANSMIT,
    MsgClass::FAILOVER,
    MsgClass::DELTA,
    MsgClass::STANDING,
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("hierarchy.build_s", "s"),
    ("core.build_s", "s"),
    ("hierarchy.depth", "levels"),
    ("sim.events_per_answer", "count/answer"),
    ("sim.message_events", "count/answer"),
    ("sim.timer_events", "count/answer"),
    ("sim.ns_per_event", "ns"),
    ("sim.self_s", "s/answer"),
    ("sim.queue_high_water", "events"),
    ("core.activations", "count/answer"),
    ("core.self_s", "s/answer"),
    ("core.ns_per_activation", "ns"),
    ("core.sends", "count/answer"),
    ("core.timers_set", "count/answer"),
    ("core.timers_cancelled", "count/answer"),
    ("agg.elements_in", "count/answer"),
    ("envelope.acks", "count/answer"),
    ("envelope.retransmits", "count/answer"),
    ("envelope.overhead_ratio", "ratio"),
    ("sim.bytes.filtering", "B/answer"),
    ("sim.bytes.dissemination", "B/answer"),
    ("sim.bytes.aggregation", "B/answer"),
    ("sim.bytes.retransmit", "B/answer"),
    ("sim.bytes.failover", "B/answer"),
    ("sim.bytes.delta", "B/answer"),
    ("sim.bytes.standing", "B/answer"),
    ("codec.frames", "count/answer"),
    ("codec.encode_ns_per_frame", "ns"),
    ("codec.decode_ns_per_frame", "ns"),
    ("transport.frames_sent", "count/answer"),
    ("transport.frames_lost", "count/answer"),
    ("transport.shed_frames", "count/answer"),
    ("transport.self_s", "s/answer"),
    ("trace.overhead_ratio", "ratio"),
];

/// One run's verdict and metrics, before rendering.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every answer matched its ground truth.
    pub correct: bool,
    /// Answers attempted.
    pub attempted: u64,
    /// Answers missing, uncertified, wrong, or past the deadline.
    pub failed: u64,
    /// `(name, value)` pairs; must match the table for the mode exactly.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall times of the set-up stages, over several set-ups.
#[derive(Debug, Default)]
pub struct SetupSpans {
    /// Input generation, seconds per set-up.
    pub generate: Vec<f64>,
    /// Hierarchy construction.
    pub hierarchy: Vec<f64>,
    /// Core construction plus world or fabric up to the first event.
    pub core: Vec<f64>,
}

impl SetupSpans {
    /// Records one set-up.
    pub fn push(&mut self, generate: StdDuration, hierarchy: StdDuration, core: StdDuration) {
        self.generate.push(generate.as_secs_f64());
        self.hierarchy.push(hierarchy.as_secs_f64());
        self.core.push(core.as_secs_f64());
    }

    /// Median of the whole set-up.
    pub fn total_median(&self) -> f64 {
        let totals: Vec<f64> = (0..self.generate.len())
            .map(|i| self.generate[i] + self.hierarchy[i] + self.core[i])
            .collect();
        stats::median(&totals)
    }
}

/// What the measured (untraced) phase observed.
#[derive(Debug, Default)]
pub struct Measured {
    /// Issue-to-answer wall latency of each answer, ms.
    pub wall_ms: Vec<f64>,
    /// The same interval on the runtime's clock (sim time on the DES), ms.
    pub sim_ms: Vec<f64>,
    /// Certified answers per wall second of each cycle (one fresh world
    /// or fabric, from core construction to teardown).
    pub cycle_rates: Vec<f64>,
    /// Wall time of the measured phase.
    pub elapsed: StdDuration,
    /// Answers attempted.
    pub attempted: u64,
    /// Answers that failed a check.
    pub failed: u64,
    /// All metered bytes, every class.
    pub bytes: u64,
    /// Peers in the system.
    pub peers: usize,
}

impl Measured {
    /// A measured phase over `peers` peers.
    pub fn new(peers: usize) -> Self {
        Measured {
            peers,
            ..Measured::default()
        }
    }

    /// Records one cycle that began at `began`: its answers' latencies
    /// `(wall ms, sim ms)`, answers attempted and failed, metered bytes.
    pub fn cycle(
        &mut self,
        began: Instant,
        latencies: &[(f64, f64)],
        attempted: u64,
        failed: u64,
        bytes: u64,
    ) {
        let secs = began.elapsed().as_secs_f64();
        self.cycle_rates.push((attempted - failed) as f64 / secs);
        for &(wall_ms, sim_ms) in latencies {
            self.wall_ms.push(wall_ms);
            self.sim_ms.push(sim_ms);
        }
        self.attempted += attempted;
        self.failed += failed;
        self.bytes += bytes;
    }

    /// Builds the report for the end-to-end table.
    ///
    /// The wall latencies and `answers_per_s` come from the quieter half of
    /// the run ([`stats::Quiet`]): the latencies from the half of the
    /// answer blocks with the lowest medians, the rate from the faster half
    /// of the cycles. The whole-run median, tail and rate are notes. The
    /// runtime-clock median is over every answer: on the DES it is a
    /// property of the seed, not of the host.
    pub fn report(&self, setup: &SetupSpans) -> Result<Report, String> {
        let wall = stats::quiet(&self.wall_ms).ok_or_else(|| {
            format!(
                "{} answers, a tail needs at least {}",
                self.wall_ms.len(),
                stats::TAIL_BEYOND + 1
            )
        })?;
        let ok = self.attempted - self.failed;
        let answers = self.attempted.max(1) as f64;
        let notes = vec![
            format!(
                "answer_wall_ms_p50 = {} ms and answer_wall_ms_tail = {} ms: over the {} of {} \
                 blocks of about {} answers with the lowest medians ({} answers), the median \
                 and the median of the blocks' p{:.2} ({} beyond, per block)",
                wall.p50,
                wall.tail,
                wall.kept,
                wall.blocks,
                self.wall_ms.len() / wall.blocks,
                wall.samples,
                wall.percentile,
                stats::TAIL_BEYOND,
            ),
            run_note("answer_wall_ms", &self.wall_ms),
            // Reported, not gated: on standing_lossy_n10k it is set by the
            // few worlds whose frames were lost four or five times running,
            // and it moved by about a quarter between seeds in 30 s runs.
            run_note("answer_sim_ms", &self.sim_ms) + " (tail not gated)",
            format!(
                "answers_per_s = median of the faster half of {} cycles; \
                 whole run {} answers in {:.3} s = {} /s",
                self.cycle_rates.len(),
                ok,
                self.elapsed.as_secs_f64(),
                ok as f64 / self.elapsed.as_secs_f64()
            ),
            format!(
                "failed_ratio = {} ({} of {} answers)",
                self.failed as f64 / answers,
                self.failed,
                self.attempted
            ),
        ];
        Ok(Report {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                ("setup_s", setup.total_median()),
                ("answer_wall_ms_p50", wall.p50),
                ("answer_wall_ms_tail", wall.tail),
                ("answer_sim_ms_p50", stats::median(&self.sim_ms)),
                (
                    "answers_per_s",
                    stats::median_of_higher_half(&self.cycle_rates),
                ),
                (
                    "bytes_per_peer",
                    self.bytes as f64 / self.peers as f64 / answers,
                ),
                ("peak_rss_mb", peak_rss_mb()),
            ],
            notes,
        })
    }
}

/// States the whole run's median and single tail of `samples`, which
/// [`stats::quiet`] has checked hold at least eleven.
fn run_note(name: &str, samples: &[f64]) -> String {
    let run = stats::tail(samples).expect("eleven samples have a tail");
    format!(
        "{name} over the whole run: median {} ms, p{:.2} of {} samples ({} beyond) = {} ms",
        stats::median(samples),
        run.percentile,
        run.samples,
        run.beyond,
        run.value
    )
}

/// Everything the traced run measured, summed over its answers.
#[derive(Debug, Default)]
pub struct Layers {
    /// Certified answers in the traced run.
    pub answers: u64,
    /// Whether the DES drove the run (its kernel metrics are 0 otherwise).
    pub on_des: bool,
    /// Height of the hierarchy.
    pub depth: u32,
    /// Kernel events processed.
    pub events: u64,
    /// Largest event-queue population of any run.
    pub queue_high_water: u64,
    /// Wall time of the traced runs, first event to quiescence.
    pub run_wall: StdDuration,
    /// Summed per-core counters.
    pub core: CoreCounts,
    /// Summed handler self time.
    pub core_self: StdDuration,
    /// Metered bytes per class index.
    pub class_bytes: [u64; MsgClass::COUNT],
    /// Codec `(encodes, encode_ns, decodes, decode_ns)`.
    pub codec: (u64, u64, u64, u64),
    /// Frames the fabric carried.
    pub frames_sent: u64,
    /// Data frames sent but never received.
    pub frames_lost: u64,
    /// Frames load-shed on full mailboxes.
    pub shed_frames: u64,
    /// Issue-to-answer wall time not covered by core or codec spans.
    pub transport_self: StdDuration,
    /// Traced wall over untraced wall for the same answers.
    pub overhead_ratio: f64,
}

impl Layers {
    /// Builds the report for the per-layer table. `mismatch` names a count
    /// on which the traced run disagreed with the untraced one, which
    /// makes the run incorrect.
    pub fn report(
        &self,
        setup: &SetupSpans,
        attempted: u64,
        failed: u64,
        mismatch: Option<String>,
    ) -> Report {
        let per = |x: f64| x / self.answers.max(1) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let des = |x: f64| if self.on_des { x } else { 0.0 };
        let c = &self.core;
        let activations = c.activations() as f64;
        let self_s = self.core_self.as_secs_f64();
        let retransmit_bytes = self.class_bytes[MsgClass::RETRANSMIT.index()] as f64;
        let total_bytes: u64 = self.class_bytes.iter().sum();
        let (encodes, encode_ns, decodes, decode_ns) = self.codec;
        let mut metrics = vec![
            ("workload.generate_s", stats::median(&setup.generate)),
            ("hierarchy.build_s", stats::median(&setup.hierarchy)),
            ("core.build_s", stats::median(&setup.core)),
            ("hierarchy.depth", f64::from(self.depth)),
            ("sim.events_per_answer", des(per(self.events as f64))),
            ("sim.message_events", des(per(c.messages as f64))),
            ("sim.timer_events", des(per(c.timers as f64))),
            (
                "sim.ns_per_event",
                des(ratio(self.run_wall.as_nanos() as f64, self.events as f64)),
            ),
            ("sim.self_s", des(per(self.run_wall.as_secs_f64() - self_s))),
            ("sim.queue_high_water", des(self.queue_high_water as f64)),
            ("core.activations", per(activations)),
            ("core.self_s", per(self_s)),
            ("core.ns_per_activation", ratio(self_s * 1e9, activations)),
            ("core.sends", per(c.sends as f64)),
            ("core.timers_set", per(c.timers_set as f64)),
            ("core.timers_cancelled", per(c.timers_cancelled as f64)),
            ("agg.elements_in", per(c.agg_entries_in as f64)),
            ("envelope.acks", per(c.acks as f64)),
            ("envelope.retransmits", per(c.retransmits as f64)),
            (
                "envelope.overhead_ratio",
                ratio(retransmit_bytes, total_bytes as f64 - retransmit_bytes),
            ),
        ];
        let class_names = [
            "sim.bytes.filtering",
            "sim.bytes.dissemination",
            "sim.bytes.aggregation",
            "sim.bytes.retransmit",
            "sim.bytes.failover",
            "sim.bytes.delta",
            "sim.bytes.standing",
        ];
        for (name, class) in class_names.into_iter().zip(CLASSES) {
            metrics.push((name, per(self.class_bytes[class.index()] as f64)));
        }
        metrics.extend([
            ("codec.frames", per(encodes as f64)),
            (
                "codec.encode_ns_per_frame",
                ratio(encode_ns as f64, encodes as f64),
            ),
            (
                "codec.decode_ns_per_frame",
                ratio(decode_ns as f64, decodes as f64),
            ),
            ("transport.frames_sent", per(self.frames_sent as f64)),
            ("transport.frames_lost", per(self.frames_lost as f64)),
            ("transport.shed_frames", per(self.shed_frames as f64)),
            ("transport.self_s", per(self.transport_self.as_secs_f64())),
            ("trace.overhead_ratio", self.overhead_ratio),
        ]);
        Report {
            correct: failed == 0 && mismatch.is_none(),
            attempted,
            failed,
            metrics,
            notes: mismatch.into_iter().collect(),
        }
    }
}

/// Renders the result line, checking the metrics against the table.
pub fn render(report: &Report, table: &[(&str, &str)]) -> Result<String, String> {
    let names: Vec<&str> = report.metrics.iter().map(|&(n, _)| n).collect();
    let want: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
    if names != want {
        return Err(format!("metrics {names:?} do not match the table {want:?}"));
    }
    if report.attempted == 0 {
        return Err("no answer was attempted".into());
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, (&(name, value), &(_, unit))) in report.metrics.iter().zip(table).enumerate() {
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{check_table, MAX_END_TO_END, MAX_PER_LAYER};

    fn names(table: &[(&'static str, &str)]) -> Vec<&'static str> {
        table.iter().map(|&(n, _)| n).collect()
    }

    #[test]
    fn tables_are_legal() {
        check_table(&names(END_TO_END), MAX_END_TO_END).expect("end-to-end table");
        check_table(&names(PER_LAYER), MAX_PER_LAYER).expect("per-layer table");
    }

    #[test]
    fn layer_report_fills_the_per_layer_table() {
        let setup = SetupSpans {
            generate: vec![1.0],
            hierarchy: vec![1.0],
            core: vec![1.0],
        };
        let layers = Layers::default();
        let report = layers.report(&setup, 1, 0, None);
        assert!(render(&report, PER_LAYER).is_ok());
    }

    #[test]
    fn benchmark_manifest_lists_the_same_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = manifest
                .find(&format!("\"{key}\""))
                .expect("section present");
            let body = &manifest[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap_or("")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
    }

    #[test]
    fn render_rejects_a_missing_metric_or_a_nan() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect(),
            notes: Vec::new(),
        };
        let line = render(&r, END_TO_END).expect("complete report renders");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        r.metrics[0].1 = f64::NAN;
        assert!(render(&r, END_TO_END).is_err());
        r.metrics.pop();
        assert!(render(&r, END_TO_END).is_err());
    }
}
