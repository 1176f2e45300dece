//! The certified netFilter query shared by the DES and TCP workloads.

use std::time::{Duration as StdDuration, Instant};

use ifi_hierarchy::Hierarchy;
use ifi_sim::{mix64, PeerId, RelConfig};
use ifi_workload::{GroundTruth, ItemId, SystemData, WorkloadParams};
use netfilter::protocol::{NetFilterProtocol, NfDelivery};
use netfilter::resilient::Certificate;
use netfilter::{NetFilterConfig, Threshold};

/// The paper's threshold ratio `φ`.
const PHI: f64 = 0.01;

/// The inputs of one query workload, generated from the seed.
#[derive(Debug)]
pub struct QueryInputs {
    /// Per-peer local item sets.
    pub data: SystemData,
    /// The aggregation hierarchy.
    pub hierarchy: Hierarchy,
    /// netFilter tuning.
    pub cfg: NetFilterConfig,
}

/// Wall time of the input-generation stages of a set-up.
#[derive(Debug, Clone, Copy)]
pub struct StageTimes {
    /// Data generation.
    pub generate: StdDuration,
    /// Hierarchy construction.
    pub hierarchy: StdDuration,
}

impl QueryInputs {
    /// Generates data with `params` and the hierarchy with `hierarchy`,
    /// timing each stage.
    pub fn build(
        params: &WorkloadParams,
        seed: u64,
        hierarchy: impl FnOnce() -> Hierarchy,
    ) -> (Self, StageTimes) {
        let t0 = Instant::now();
        let data = SystemData::generate_paper(params, seed);
        let t1 = Instant::now();
        let hierarchy = hierarchy();
        let t2 = Instant::now();
        let cfg = NetFilterConfig::builder()
            .filter_size(100)
            .filters(3)
            .threshold(Threshold::Ratio(PHI))
            .hash_seed(seed)
            .build();
        let times = StageTimes {
            generate: t1 - t0,
            hierarchy: t2 - t1,
        };
        (
            QueryInputs {
                data,
                hierarchy,
                cfg,
            },
            times,
        )
    }

    /// One certified core per peer: reliability envelope plus census.
    pub fn cores(&self) -> Vec<NetFilterProtocol> {
        let roster = NetFilterProtocol::roster(&self.hierarchy);
        let threshold = self.cfg.threshold.resolve(self.data.total_value());
        (0..self.data.peer_count())
            .map(|i| {
                let p = PeerId::new(i);
                NetFilterProtocol::new(
                    &self.cfg,
                    &self.hierarchy,
                    p,
                    self.data.local_items(p).to_vec(),
                    threshold,
                )
                .with_reliability(RelConfig::default())
                .with_census(roster)
            })
            .collect()
    }

    /// The exact IFI answer, from the ground truth of the data.
    pub fn expected(&self) -> Vec<(ItemId, u64)> {
        let threshold = self.cfg.threshold.resolve(self.data.total_value());
        GroundTruth::compute(&self.data).frequent_items(threshold)
    }
}

/// Whether `delivery` is the certified, exact answer.
pub fn is_correct(delivery: &NfDelivery, expected: &[(ItemId, u64)]) -> bool {
    delivery.answer == expected && delivery.certificate == Some(Certificate::Complete)
}

/// A digest of a delivered answer.
pub fn digest(deliveries: &[NfDelivery]) -> u64 {
    deliveries.iter().fold(0, |acc, d| {
        d.answer
            .iter()
            .fold(mix64(acc ^ d.answer.len() as u64), |a, &(id, v)| {
                mix64(mix64(a ^ id.0) ^ v)
            })
    })
}
