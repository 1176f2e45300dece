//! # netfilter — exact frequent-item identification in P2P systems
//!
//! Implementation of **netFilter**, the two-phase in-network processing
//! technique of *"Identifying Frequent Items in P2P Systems"* (ICDCS 2008).
//!
//! ## The problem
//!
//! A P2P system of `N` peers holds `n` distinct items; item `x` has local
//! value `v_i^x` at peer `i` and global value `v_x = Σ_i v_i^x`. Given a
//! threshold `t`,
//!
//! ```text
//! IFI(A, t) = { x ∈ A | v_x ≥ t }
//! ```
//!
//! must be identified **exactly** — no false positives, no false negatives,
//! and exact global values — at minimum communication cost (average bytes
//! propagated per peer).
//!
//! ## The technique
//!
//! 1. **Candidate filtering** (§III-B): each of `f` seeded hash functions
//!    partitions the items into `g` disjoint *item groups*; the `f·g` group
//!    aggregates are computed along a BFS hierarchy of stable peers. An
//!    item survives only if *all* `f` groups containing it are *heavy*
//!    (aggregate ≥ `t`).
//! 2. **Candidate verification** (§III-C): the heavy-group identifiers are
//!    disseminated down the hierarchy; every peer *materializes* its local
//!    share of the candidate set, and the candidates' exact global values
//!    are computed in one integrated convergecast (Algorithm 2). The root
//!    reports the items with values ≥ `t`.
//!
//! ## Crate layout
//!
//! | module | paper section |
//! |--------|---------------|
//! | [`NetFilterConfig`], [`Threshold`] | §III, Table II |
//! | [`HashFamily`] | §III-B.1 (item partitioning by hashing) |
//! | [`LocalFilter`], [`HeavyGroups`] | §III-B (filtering), §III-C (materialization) |
//! | [`NetFilter`] / [`NetFilterRun`] | the full two-phase instant engine |
//! | [`protocol`] | the same two phases as a message-level DES protocol |
//! | [`naive`] | the baseline that forwards whole local item sets |
//! | [`codec`] | real wire encodings at the paper's `s_a`/`s_g`/`s_i` widths |
//! | [`gossip_filter`] | gossip-based candidate filtering (§VI future work) |
//! | [`approx`] | an ε-approximate comparator in the style of the related work |
//! | [`resilient`] | epoch-based re-query over a self-repairing hierarchy |
//! | [`windowed`] | sliding-window IFI (the paper's "past week" use case) |
//! | [`continuous`] | standing queries: per-epoch delta convergecast + K-query sharing |
//! | [`topk`] | top-k engine: threshold-algorithm pruning + exact verification |
//! | [`sketch`] | gossip sketch-merge engine (Space-Saving summaries) |
//! | [`local_threshold`] | zero-traffic "is `v_x ≥ t`" comparator |
//! | [`engines`] | the common trait over the approximate engine family |
//! | [`recruitment`] | stable-peer recruitment pipeline (§III-A) |
//! | [`analysis`] | cost models and optima: Eq. 1, 2, 3, 4, 6 |
//! | [`tuning`] | practical optimal settings via sampling (§IV-E) |
//! | [`requests`] | multi-request sharing at the root (§III-A.1) |
//!
//! ## Quickstart
//!
//! ```
//! use ifi_hierarchy::Hierarchy;
//! use ifi_workload::{SystemData, WorkloadParams, GroundTruth};
//! use netfilter::{NetFilter, NetFilterConfig, Threshold};
//!
//! // A small system: 100 peers, 2000 items, Zipf(1.0).
//! let params = WorkloadParams { peers: 100, items: 2_000, ..WorkloadParams::default() };
//! let data = SystemData::generate(&params, 7);
//! let hierarchy = Hierarchy::balanced(100, 3);
//!
//! let config = NetFilterConfig::builder()
//!     .filter_size(50)
//!     .filters(3)
//!     .threshold(Threshold::Ratio(0.01))
//!     .build();
//! let run = NetFilter::new(config).run(&hierarchy, &data);
//!
//! // The answer is exact:
//! let truth = GroundTruth::compute(&data);
//! let t = truth.threshold_for_ratio(0.01);
//! assert_eq!(run.frequent_items(), &truth.frequent_items(t)[..]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod approx;
pub mod codec;
mod config;
pub mod continuous;
mod engine;
pub mod engines;
mod filter;
pub mod gossip_filter;
mod hashing;
pub mod local_threshold;
pub mod naive;
pub mod phases;
pub mod protocol;
pub mod recruitment;
pub mod requests;
pub mod resilient;
pub mod sketch;
pub mod topk;
pub mod tuning;
pub mod windowed;
pub mod wire;

pub use config::{NetFilterConfig, NetFilterConfigBuilder, Threshold};
pub use engine::{CostBreakdown, NetFilter, NetFilterRun, RunCounts};
pub use filter::{HeavyGroups, LocalFilter};
pub use hashing::HashFamily;

// Re-export the vocabulary types users need alongside this crate.
pub use ifi_agg::WireSizes;
pub use ifi_sim::{EventSink, MetricsReport};
pub use ifi_workload::ItemId;
