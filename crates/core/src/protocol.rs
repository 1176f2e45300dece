//! netFilter as a message-level protocol on the DES.
//!
//! The instant engine in [`crate::NetFilter`] evaluates the two phases by
//! tree walks; this module runs the *same* phases as real messages over
//! [`ifi_sim`], exercising asynchrony, per-hop latency, and completion
//! detection:
//!
//! 1. **Filtering convergecast** — every peer computes its local `f·g`
//!    group vector; leaves send at start, internal peers count down their
//!    children and forward the merged vector (`MsgClass::FILTERING`).
//! 2. **Heavy dissemination** — the root thresholds the aggregate and
//!    pushes the per-filter heavy-group lists down the tree
//!    (`MsgClass::DISSEMINATION`).
//! 3. **Candidate convergecast** — on receiving the lists, each peer
//!    materializes its partial candidate set (§III-C) and the sets merge
//!    upward (`MsgClass::AGGREGATION`); the root thresholds the exact
//!    values and stores the result.
//!
//! Equivalence with the instant engine — identical answers *and* identical
//! per-phase byte totals — is asserted by this module's tests and the
//! workspace integration suite.
//!
//! By default the protocol assumes a reliable network and a stable
//! hierarchy for the duration of one run (the paper recruits stable peers
//! for exactly this reason, §III-A). Under churn, the maintenance protocol
//! of `ifi-hierarchy` repairs the tree and the query is re-issued — see
//! the `failure_recovery` integration test. On lossy networks, enable the
//! ack/retransmit [`Envelope`] (`rel` of [`NetFilterProtocol::peers`]):
//! every phase message is sequenced, acknowledged, retransmitted with
//! exponential backoff, and deduplicated at the receiver, so the answer
//! stays exact under drops, duplication, and reordering. Originals keep
//! their phase class; acks and retransmissions are metered separately
//! under [`MsgClass::RETRANSMIT`].

use ifi_agg::{Aggregate, MapSum, VecSum};
use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    sansio_world, Des, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId, RelConfig,
    ReliableMsg, RetransmitTimer, SansIo, SimConfig, SimTime, World,
};
use ifi_workload::{ItemId, SystemData};

use crate::config::NetFilterConfig;
use crate::filter::{HeavyGroups, LocalFilter};
use crate::hashing::HashFamily;
use crate::resilient::{Census, Certificate, CENSUS_BYTES};

/// Messages of the netFilter protocol.
#[derive(Debug, Clone)]
pub enum NfMsg {
    /// Phase 1: a merged item-group aggregate vector moving rootward.
    GroupAgg(VecSum),
    /// Phase 2a: the per-filter heavy-group lists moving leafward.
    Heavy(Vec<Vec<u32>>),
    /// Phase 2b: a merged partial candidate set moving rootward.
    CandidateAgg(MapSum),
    /// Census mode only: the merged contributor census of one phase
    /// (`1` or `2`), moving rootward beside the phase report it certifies.
    /// Metered at [`CENSUS_BYTES`] under [`MsgClass::FAILOVER`], exactly
    /// like the resilient engine's census piggyback, so enabling
    /// certification never touches the paper's phase classes.
    PhaseCensus {
        /// Which convergecast the census certifies: `1` or `2`.
        phase: u8,
        /// Merged census of every contributor in this subtree.
        census: Census,
    },
}

/// What the root hands the driver when a run completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfDelivery {
    /// The exact frequent-item answer, sorted by value descending, then id.
    pub answer: Vec<(ItemId, u64)>,
    /// What the root can certify about coverage (census mode only):
    /// [`Certificate::Complete`] when every roster member contributed to
    /// both phases, [`Certificate::Partial`] with the missing census
    /// otherwise. `None` when census mode is off.
    pub certificate: Option<Certificate>,
}

/// Per-peer state of the netFilter protocol.
#[derive(Debug, Clone)]
pub struct NetFilterProtocol {
    local_filter: LocalFilter,
    sizes: crate::WireSizes,
    threshold: u64,
    parent: Option<PeerId>,
    children: Vec<PeerId>,
    is_root: bool,
    /// Whether this peer is a member of the hierarchy at all. Dead or
    /// detached peers stay in the universe but take no part in the run.
    is_member: bool,
    local_items: Vec<(ItemId, u64)>,

    p1_pending: usize,
    p1_acc: Option<VecSum>,
    heavy: Option<HeavyGroups>,
    p2_pending: usize,
    p2_acc: Option<MapSum>,
    result: Option<Vec<(ItemId, u64)>>,

    /// Whether `Start` has been handled once; a second `Start` marks a
    /// crash/revival and triggers the re-send path instead of re-init.
    started: bool,
    /// Children whose phase-1 report has been merged — the idempotency
    /// guard that makes duplicate or replayed reports harmless.
    p1_seen: Vec<PeerId>,
    p2_seen: Vec<PeerId>,
    p1_census_seen: Vec<PeerId>,
    p2_census_seen: Vec<PeerId>,
    /// Merged contributor censuses of this subtree (self plus children),
    /// maintained unconditionally (merging is 12 bytes of state), metered
    /// and reported only in census mode.
    p1_census: Census,
    p2_census: Census,
    /// Census-mode countdowns of children's phase censuses; zero when
    /// census mode is off.
    p1_census_pending: usize,
    p2_census_pending: usize,
    /// The issue-time roster to certify against; `Some` switches census
    /// mode on for this peer (reports are accompanied by metered
    /// [`NfMsg::PhaseCensus`] messages, and the root emits a certificate).
    roster: Option<Census>,
    certificate: Option<Certificate>,
    /// Phase messages ride this envelope; plain by default (the classic
    /// fire-and-forget protocol, zero overhead, zero extra traffic).
    env: Envelope<NfMsg>,
}

impl NetFilterProtocol {
    /// Creates the state for `peer`. The threshold must already be
    /// resolved (the root learns `v` from the preliminary scalar
    /// aggregation, as in the paper).
    pub fn new(
        config: &NetFilterConfig,
        hierarchy: &Hierarchy,
        peer: PeerId,
        local_items: Vec<(ItemId, u64)>,
        threshold: u64,
    ) -> Self {
        let family = HashFamily::new(config.filters, config.filter_size, config.hash_seed);
        NetFilterProtocol {
            local_filter: LocalFilter::new(family),
            sizes: config.sizes,
            threshold,
            parent: hierarchy.parent(peer),
            children: hierarchy.children(peer).to_vec(),
            is_root: hierarchy.root() == peer,
            is_member: hierarchy.is_member(peer),
            local_items,
            p1_pending: hierarchy.children(peer).len(),
            p1_acc: None,
            heavy: None,
            p2_pending: hierarchy.children(peer).len(),
            p2_acc: None,
            result: None,
            started: false,
            p1_seen: Vec::new(),
            p2_seen: Vec::new(),
            p1_census_seen: Vec::new(),
            p2_census_seen: Vec::new(),
            p1_census: Census::solo(peer),
            p2_census: Census::solo(peer),
            p1_census_pending: 0,
            p2_census_pending: 0,
            roster: None,
            certificate: None,
            env: Envelope::plain(),
        }
    }

    /// Enables the ack/retransmit envelope with the given tuning.
    pub fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.env = Envelope::reliable(cfg);
        self
    }

    /// Enables census mode against the given issue-time roster: every
    /// rootward report travels with a metered [`NfMsg::PhaseCensus`], and
    /// the root's delivery carries a [`Certificate`] — `Complete` exactly
    /// when both phase censuses equal `roster`.
    pub fn with_census(mut self, roster: Census) -> Self {
        self.roster = Some(roster);
        self.p1_census_pending = self.children.len();
        self.p2_census_pending = self.children.len();
        self
    }

    /// The census of every hierarchy member — the roster a driver passes
    /// to [`with_census`](Self::with_census) when all members are expected
    /// to contribute.
    pub fn roster(hierarchy: &Hierarchy) -> Census {
        let mut census = Census::empty();
        for i in 0..hierarchy.universe() {
            let p = PeerId::new(i);
            if hierarchy.is_member(p) {
                census.add(p);
            }
        }
        census
    }

    /// The root's coverage certificate, once the run completes in census
    /// mode.
    pub fn certificate(&self) -> Option<Certificate> {
        self.certificate
    }

    /// Builds a ready-to-run world over `hierarchy` and `data`, with the
    /// envelope off and census mode off.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy and data universes differ.
    pub fn build_world(
        config: &NetFilterConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        sim: SimConfig,
    ) -> World<Des<NetFilterProtocol>> {
        sansio_world(sim, Self::peers(config, hierarchy, data, None, false))
    }

    /// The peer population as bare cores for any driver. `rel` switches
    /// the ack/retransmit envelope on — required for exact answers when
    /// the network injects faults — and `certified` switches census mode
    /// on against the full member [`roster`](Self::roster).
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy and data universes differ.
    pub fn peers(
        config: &NetFilterConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        rel: Option<RelConfig>,
        certified: bool,
    ) -> Vec<NetFilterProtocol> {
        assert_eq!(
            hierarchy.universe(),
            data.peer_count(),
            "hierarchy and data peer universes differ"
        );
        let threshold = config.threshold.resolve(data.total_value());
        let roster = certified.then(|| Self::roster(hierarchy));
        (0..data.peer_count())
            .map(|i| {
                let p = PeerId::new(i);
                let mut core = NetFilterProtocol::new(
                    config,
                    hierarchy,
                    p,
                    data.local_items(p).to_vec(),
                    threshold,
                );
                if let Some(cfg) = &rel {
                    core = core.with_reliability(cfg.clone());
                }
                match roster {
                    Some(roster) => core.with_census(roster),
                    None => core,
                }
            })
            .collect()
    }

    /// The final result (root only, once the run quiesces).
    pub fn result(&self) -> Option<&[(ItemId, u64)]> {
        self.result.as_deref()
    }

    /// The resolved threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Whether census mode is on (a roster was supplied).
    fn census_mode(&self) -> bool {
        self.roster.is_some()
    }

    /// Fires phase-1 completion once everything it needs has merged: the
    /// local vector (Start ran), every child's report, and — in census
    /// mode — every child's phase-1 census.
    fn maybe_complete_p1(&mut self, fx: &mut Effects<Self>) {
        if self.p1_acc.is_some() && self.p1_pending == 0 && self.p1_census_pending == 0 {
            self.phase1_complete(fx);
        }
    }

    /// Phase-2 counterpart of [`maybe_complete_p1`](Self::maybe_complete_p1);
    /// `p2_acc` is set when the heavy lists arrive and taken at completion,
    /// so it doubles as the fired-once guard.
    fn maybe_complete_p2(&mut self, fx: &mut Effects<Self>) {
        if self.p2_acc.is_some() && self.p2_pending == 0 && self.p2_census_pending == 0 {
            self.phase2_complete(fx);
        }
    }

    fn phase1_complete(&mut self, fx: &mut Effects<Self>) {
        let acc = self
            .p1_acc
            .take()
            .expect("phase-1 accumulator present until completion");
        if self.is_root {
            let heavy =
                HeavyGroups::from_aggregate(self.local_filter.family(), &acc, self.threshold);
            self.start_phase2(fx, heavy);
        } else {
            let parent = self.parent.expect("non-root has a parent");
            let bytes = acc.encoded_bytes(&self.sizes);
            self.env
                .send(fx, parent, NfMsg::GroupAgg(acc), bytes, MsgClass::FILTERING);
            if self.census_mode() {
                let census = self.p1_census;
                self.env.send(
                    fx,
                    parent,
                    NfMsg::PhaseCensus { phase: 1, census },
                    CENSUS_BYTES,
                    MsgClass::FAILOVER,
                );
            }
        }
    }

    fn start_phase2(&mut self, fx: &mut Effects<Self>, heavy: HeavyGroups) {
        // Forward the heavy lists to every downstream neighbor; each
        // message owns its own copy of the lists.
        let list_bytes = self.sizes.sg * heavy.total_heavy() as u64;
        for &c in &self.children {
            self.env.send(
                fx,
                c,
                NfMsg::Heavy(heavy.lists().to_vec()),
                list_bytes,
                MsgClass::DISSEMINATION,
            );
        }
        // Materialize the local partial candidate set (Algorithm 2 line 2).
        self.p2_acc = Some(
            self.local_filter
                .partial_candidates(&self.local_items, &heavy),
        );
        self.heavy = Some(heavy);
        self.maybe_complete_p2(fx);
    }

    fn phase2_complete(&mut self, fx: &mut Effects<Self>) {
        let acc = self
            .p2_acc
            .take()
            .expect("phase-2 accumulator present until completion");
        if self.is_root {
            let mut frequent: Vec<(ItemId, u64)> = acc
                .0
                .iter()
                .filter(|&(_, &v)| v >= self.threshold)
                .map(|(&k, &v)| (k, v))
                .collect();
            frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            self.certificate = self.roster.map(|roster| {
                if self.p1_census == roster && self.p2_census == roster {
                    Certificate::Complete
                } else if self.p1_census != roster {
                    Certificate::Partial {
                        missing: roster.minus(self.p1_census),
                    }
                } else {
                    Certificate::Partial {
                        missing: roster.minus(self.p2_census),
                    }
                }
            });
            fx.deliver(NfDelivery {
                answer: frequent.clone(),
                certificate: self.certificate,
            });
            self.result = Some(frequent);
        } else {
            let parent = self.parent.expect("non-root has a parent");
            let bytes = acc.encoded_bytes(&self.sizes);
            self.env.send(
                fx,
                parent,
                NfMsg::CandidateAgg(acc),
                bytes,
                MsgClass::AGGREGATION,
            );
            if self.census_mode() {
                let census = self.p2_census;
                self.env.send(
                    fx,
                    parent,
                    NfMsg::PhaseCensus { phase: 2, census },
                    CENSUS_BYTES,
                    MsgClass::FAILOVER,
                );
            }
        }
    }

    /// Admission guard for a child's rootward message: the sender must be
    /// a child, must not have been merged into `seen` already, and the
    /// phase it reports on must be `open` here. Returns the warning label
    /// to emit when the message must be dropped; only an admitted sender
    /// is recorded, so an out-of-phase report does not make the later
    /// legitimate one look like a duplicate.
    fn admit(
        children: &[PeerId],
        seen: &mut Vec<PeerId>,
        from: PeerId,
        open: bool,
    ) -> Option<&'static str> {
        if !children.contains(&from) {
            return Some("unexpected-sender");
        }
        if seen.contains(&from) {
            return Some("duplicate-report");
        }
        if !open {
            return Some("out-of-phase");
        }
        seen.push(from);
        None
    }

    /// Handles a deduplicated protocol payload. Every arm is idempotent:
    /// a duplicate, replayed, or misdirected message is counted as a
    /// metered warning and dropped, never merged twice and never a panic —
    /// the property that lets a crashed-and-restarted sender blindly
    /// re-send its backlog.
    fn on_payload(&mut self, fx: &mut Effects<Self>, from: PeerId, msg: NfMsg) {
        match msg {
            NfMsg::GroupAgg(v) => {
                let open = self.p1_acc.is_some();
                if let Some(warn) = Self::admit(&self.children, &mut self.p1_seen, from, open) {
                    fx.warn(warn);
                    return;
                }
                if let Some(acc) = self.p1_acc.as_mut() {
                    acc.merge_owned(v);
                }
                self.p1_pending -= 1;
                self.maybe_complete_p1(fx);
            }
            NfMsg::Heavy(lists) => {
                if Some(from) != self.parent {
                    fx.warn("unexpected-sender");
                    return;
                }
                if self.heavy.is_some() {
                    fx.warn("duplicate-report");
                    return;
                }
                let heavy = HeavyGroups::from_lists(lists, self.local_filter.family().groups());
                self.start_phase2(fx, heavy);
            }
            NfMsg::CandidateAgg(m) => {
                let open = self.p2_acc.is_some();
                if let Some(warn) = Self::admit(&self.children, &mut self.p2_seen, from, open) {
                    fx.warn(warn);
                    return;
                }
                if let Some(acc) = self.p2_acc.as_mut() {
                    acc.merge_owned(m);
                }
                self.p2_pending -= 1;
                self.maybe_complete_p2(fx);
            }
            NfMsg::PhaseCensus { phase, census } => {
                if !self.census_mode() || !(1..=2).contains(&phase) {
                    fx.warn("unexpected-census");
                    return;
                }
                let seen = if phase == 1 {
                    &mut self.p1_census_seen
                } else {
                    &mut self.p2_census_seen
                };
                if let Some(warn) = Self::admit(&self.children, seen, from, true) {
                    fx.warn(warn);
                    return;
                }
                if phase == 1 {
                    self.p1_census.merge(census);
                    self.p1_census_pending -= 1;
                    self.maybe_complete_p1(fx);
                } else {
                    self.p2_census.merge(census);
                    self.p2_census_pending -= 1;
                    self.maybe_complete_p2(fx);
                }
            }
        }
    }
}

impl SansIo for NetFilterProtocol {
    type Msg = ReliableMsg<NfMsg>;
    type Timer = RetransmitTimer;
    type Output = NfDelivery;

    fn on_event(
        &mut self,
        ev: NodeEvent<ReliableMsg<NfMsg>, RetransmitTimer>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        match ev {
            NodeEvent::Start => {
                if !self.is_member {
                    return; // not part of the hierarchy: contributes nothing
                }
                if self.started {
                    // A second `Start` is a crash/revival (the DES `Revive`
                    // event, or the transport supervisor respawning a
                    // crashed peer thread). State survived; only in-flight
                    // frames and armed timers died, and the envelope
                    // re-sends every original this node produced.
                    // Receivers that already merged a copy warn and drop
                    // it (the `admit` guards).
                    self.env.on_revival(fx);
                    return;
                }
                self.started = true;
                self.p1_acc = Some(self.local_filter.group_vector(&self.local_items));
                self.maybe_complete_p1(fx);
            }
            NodeEvent::Message { from, msg } => {
                if let Some(payload) = self.env.on_frame(fx, from, msg) {
                    self.on_payload(fx, from, payload);
                }
            }
            NodeEvent::Timer { tag } => self.env.on_retransmit(fx, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetFilter, Threshold};
    use ifi_overlay::Topology;
    use ifi_sim::{DetRng, Duration, LatencyModel};
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn workload(peers: usize, items: u64, seed: u64) -> SystemData {
        SystemData::generate(
            &WorkloadParams {
                peers,
                items,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        )
    }

    fn config(g: u32, f: u32) -> NetFilterConfig {
        NetFilterConfig::builder()
            .filter_size(g)
            .filters(f)
            .threshold(Threshold::Ratio(0.01))
            .build()
    }

    #[test]
    fn protocol_matches_instant_engine_exactly() {
        let data = workload(60, 2_000, 81);
        let topo = Topology::random_regular(60, 4, &mut DetRng::new(2));
        let h = Hierarchy::bfs(&topo, PeerId::new(0));
        let cfg = config(50, 3);

        let instant = NetFilter::new(cfg.clone()).run(&h, &data);

        let mut w =
            NetFilterProtocol::build_world(&cfg, &h, &data, SimConfig::default().with_seed(4));
        w.start();
        w.run_to_quiescence();

        let result = w
            .peer(PeerId::new(0))
            .result()
            .expect("root must finish")
            .to_vec();
        assert_eq!(result, instant.frequent_items());

        // Byte-for-byte identical per phase.
        let m = w.metrics();
        let c = instant.cost();
        assert_eq!(
            m.class_bytes(MsgClass::FILTERING),
            c.filtering.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::DISSEMINATION),
            c.dissemination.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::AGGREGATION),
            c.aggregation.iter().sum::<u64>()
        );
    }

    #[test]
    fn asynchrony_does_not_change_the_answer() {
        let data = workload(40, 1_000, 83);
        let h = Hierarchy::balanced(40, 3);
        let cfg = config(30, 2);
        let instant = NetFilter::new(cfg.clone()).run(&h, &data);

        for seed in [1u64, 2, 3] {
            let sim = SimConfig::default()
                .with_seed(seed)
                .with_latency(LatencyModel::Uniform {
                    lo: Duration::from_millis(5),
                    hi: Duration::from_millis(500),
                });
            let mut w = NetFilterProtocol::build_world(&cfg, &h, &data, sim);
            w.start();
            w.run_to_quiescence();
            assert_eq!(
                w.peer(PeerId::new(0)).result().expect("root finishes"),
                instant.frequent_items(),
                "divergence at sim seed {seed}"
            );
            assert_eq!(
                w.metrics().class_bytes(MsgClass::FILTERING),
                instant.cost().filtering.iter().sum::<u64>()
            );
        }
    }

    #[test]
    fn non_root_peers_hold_no_result() {
        let data = workload(20, 300, 85);
        let h = Hierarchy::balanced(20, 3);
        let mut w = NetFilterProtocol::build_world(&config(10, 2), &h, &data, SimConfig::default());
        w.start();
        w.run_to_quiescence();
        for i in 1..20 {
            assert!(w.peer(PeerId::new(i)).result().is_none());
        }
        assert!(w.peer(PeerId::new(0)).result().is_some());
    }

    #[test]
    fn answer_is_exact_against_ground_truth() {
        let data = workload(50, 1_500, 87);
        let truth = GroundTruth::compute(&data);
        let h = Hierarchy::balanced(50, 3);
        let mut w = NetFilterProtocol::build_world(&config(40, 3), &h, &data, SimConfig::default());
        w.start();
        w.run_to_quiescence();
        let t = truth.threshold_for_ratio(0.01);
        assert_eq!(
            w.peer(PeerId::new(0)).result().unwrap(),
            &truth.frequent_items(t)[..]
        );
    }

    #[test]
    fn reliability_at_zero_loss_adds_only_acks() {
        let data = workload(30, 800, 91);
        let h = Hierarchy::balanced(30, 3);
        let cfg = config(20, 2);
        let instant = NetFilter::new(cfg.clone()).run(&h, &data);

        let peers = NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default()), false);
        let mut w = sansio_world(SimConfig::default().with_seed(5), peers);
        w.start();
        w.run_to_quiescence();

        assert_eq!(
            w.peer(PeerId::new(0)).result().expect("root finishes"),
            instant.frequent_items()
        );
        // Phase classes are untouched by the envelope...
        let m = w.metrics();
        let c = instant.cost();
        assert_eq!(
            m.class_bytes(MsgClass::FILTERING),
            c.filtering.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::DISSEMINATION),
            c.dissemination.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::AGGREGATION),
            c.aggregation.iter().sum::<u64>()
        );
        // ... and with no losses the only overhead is one ack per frame.
        let class_msgs = |cl: MsgClass| {
            (0..30)
                .map(|i| m.peer_class(PeerId::new(i), cl).messages)
                .sum::<u64>()
        };
        let frames = class_msgs(MsgClass::FILTERING)
            + class_msgs(MsgClass::DISSEMINATION)
            + class_msgs(MsgClass::AGGREGATION);
        assert_eq!(class_msgs(MsgClass::RETRANSMIT), frames);
        assert_eq!(
            m.class_bytes(MsgClass::RETRANSMIT),
            frames * RelConfig::default().ack_bytes
        );
        assert_eq!(m.dropped_messages(), 0);
    }

    #[test]
    fn certified_run_is_complete_and_meters_census_under_failover() {
        let data = workload(30, 800, 93);
        let h = Hierarchy::balanced(30, 3);
        let cfg = config(20, 2);
        let instant = NetFilter::new(cfg.clone()).run(&h, &data);

        let peers = NetFilterProtocol::peers(&cfg, &h, &data, Some(RelConfig::default()), true);
        let mut w = sansio_world(SimConfig::default().with_seed(6), peers);
        w.start();
        w.run_to_quiescence();

        let root = w.peer(PeerId::new(0));
        assert_eq!(root.certificate(), Some(Certificate::Complete));
        assert_eq!(
            root.delivered(),
            &[NfDelivery {
                answer: instant.frequent_items().to_vec(),
                certificate: Some(Certificate::Complete),
            }]
        );

        // The census travels entirely in the failover class: one
        // PhaseCensus per phase per non-root member, nothing else.
        let m = w.metrics();
        assert_eq!(m.class_bytes(MsgClass::FAILOVER), CENSUS_BYTES * 29 * 2);
        // The paper's phase classes are untouched by certification.
        let c = instant.cost();
        assert_eq!(
            m.class_bytes(MsgClass::FILTERING),
            c.filtering.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::DISSEMINATION),
            c.dissemination.iter().sum::<u64>()
        );
        assert_eq!(
            m.class_bytes(MsgClass::AGGREGATION),
            c.aggregation.iter().sum::<u64>()
        );
    }

    #[test]
    fn inflated_roster_yields_partial_certificate_naming_the_ghost() {
        // Certify against a roster containing a peer that never runs: the
        // answer still arrives, but the certificate must demote itself to
        // `Partial` and name exactly the ghost.
        let data = workload(12, 200, 97);
        let h = Hierarchy::balanced(12, 3);
        let cfg = config(10, 2);
        let threshold = cfg.threshold.resolve(data.total_value());
        let ghost = PeerId::new(12);
        let mut roster = NetFilterProtocol::roster(&h);
        roster.add(ghost);

        let peers = (0..12)
            .map(|i| {
                let p = PeerId::new(i);
                NetFilterProtocol::new(&cfg, &h, p, data.local_items(p).to_vec(), threshold)
                    .with_reliability(RelConfig::default())
                    .with_census(roster)
            })
            .collect();
        let mut w = sansio_world(SimConfig::default().with_seed(9), peers);
        w.start();
        w.run_to_quiescence();

        let root = w.peer(PeerId::new(0));
        assert_eq!(
            root.certificate(),
            Some(Certificate::Partial {
                missing: Census::solo(ghost)
            })
        );
        assert!(root.result().is_some(), "partial coverage still answers");
    }

    #[test]
    fn duplicate_and_alien_reports_are_warned_and_dropped() {
        use ifi_sim::{AllUp, Effect};

        let data = workload(3, 100, 95);
        let h = Hierarchy::balanced(3, 2);
        let cfg = config(8, 2);
        let threshold = cfg.threshold.resolve(data.total_value());
        let core = |i: usize| {
            let p = PeerId::new(i);
            NetFilterProtocol::new(&cfg, &h, p, data.local_items(p).to_vec(), threshold)
        };
        let env = AllUp(3);
        let now = SimTime::ZERO;

        // A leaf's Start yields its phase-1 report to replay at the root.
        let mut leaf = core(1);
        let mut fx = Effects::new();
        leaf.on_event(NodeEvent::Start, now, &env, &mut fx);
        let report = fx
            .drain()
            .find_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .expect("leaf must report on start");

        let deliver = |root: &mut NetFilterProtocol, from: usize, msg: &ReliableMsg<NfMsg>| {
            let mut fx = Effects::new();
            root.on_event(
                NodeEvent::Message {
                    from: PeerId::new(from),
                    msg: msg.clone(),
                },
                now,
                &env,
                &mut fx,
            );
            fx.drain()
                .filter_map(|e| match e {
                    Effect::Warn { label } => Some(label),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };

        // A report before the root's own Start is out of phase: warned and
        // dropped, without recording the sender.
        let mut root = core(0);
        assert_eq!(deliver(&mut root, 1, &report), ["out-of-phase"]);
        let mut fx = Effects::new();
        root.on_event(NodeEvent::Start, now, &env, &mut fx);
        fx.drain().count();
        // So is a phase-2 report before the heavy lists arrived.
        let early = ReliableMsg::Plain(NfMsg::CandidateAgg(MapSum::default()));
        assert_eq!(deliver(&mut root, 1, &early), ["out-of-phase"]);

        // First report from a real child: accepted.
        assert!(deliver(&mut root, 1, &report).is_empty());
        // Replay of the same child's report: warned, not double-merged.
        assert_eq!(deliver(&mut root, 1, &report), ["duplicate-report"]);
        // A report from a peer that is not a child: warned, dropped.
        assert_eq!(deliver(&mut root, 0, &report), ["unexpected-sender"]);
        // Phase 1 is still waiting on child 2 — the guarded deliveries
        // must not have decremented the countdown twice.
        let mut child2 = core(2);
        let mut fx = Effects::new();
        child2.on_event(NodeEvent::Start, now, &env, &mut fx);
        let report2 = fx
            .drain()
            .find_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .expect("child 2 must report on start");
        let mut fx = Effects::new();
        root.on_event(
            NodeEvent::Message {
                from: PeerId::new(2),
                msg: report2,
            },
            now,
            &env,
            &mut fx,
        );
        // Root now finishes phase 1 and moves to dissemination.
        assert!(fx
            .drain()
            .any(|e| matches!(e, Effect::Send { .. } | Effect::Deliver(_))));
    }

    #[test]
    fn singleton_system_answers_immediately() {
        let data = SystemData::from_local_sets(vec![vec![(ItemId(1), 10), (ItemId(2), 1)]], 5);
        let h = Hierarchy::balanced(1, 3);
        let cfg = NetFilterConfig::builder()
            .filter_size(4)
            .filters(2)
            .threshold(Threshold::Absolute(5))
            .build();
        let mut w = NetFilterProtocol::build_world(&cfg, &h, &data, SimConfig::default());
        w.start();
        w.run_to_quiescence();
        assert_eq!(w.peer(PeerId::new(0)).result().unwrap(), &[(ItemId(1), 10)]);
        assert_eq!(w.metrics().total_bytes(), 0, "no peers, no traffic");
    }
}
