//! Top-k IFI by threshold-algorithm pruning — the second member of the
//! approximate engine family (ROADMAP item 4).
//!
//! *Reducing Network Traffic in Unstructured P2P Systems Using Top-k
//! Queries* (Akbarinia et al., PAPERS.md) bounds top-k traffic by shipping
//! **pruned candidate lists with partial-sum bounds** instead of whole item
//! sets — the TPUT/threshold-algorithm family. This module is that idea on
//! the paper's stable-peer hierarchy, replacing the seed's exponential
//! threshold-probe search (O(log v) full netFilter runs per query) with a
//! single two-phase protocol:
//!
//! 1. **Candidate convergecast**: every node ships its [`CandidateList`] —
//!    at most `prune_cap` entries carrying `(lower, upper)` partial-sum
//!    bounds plus `tau`, an upper bound on every *absent* item. Lists merge
//!    bound-soundly (lower bounds add; upper bounds add, substituting `tau`
//!    for missing entries) and re-prune to `prune_cap` by descending lower
//!    bound, folding dropped uppers into `tau`. Merges happen in canonical
//!    ascending-`PeerId` order so the candidate choice is
//!    schedule-independent.
//! 2. **Exact verification**: the root picks the `k` best lower bounds as
//!    candidates, disseminates their ids down the tree, and an exact
//!    restricted convergecast returns their true global values.
//!
//! The answer is **certified** — provably equal to the true top-k — when
//! either nothing was ever pruned (`tau = 0` everywhere) or every
//! candidate's exact value strictly exceeds the best possible
//! non-candidate (`max(tau, pruned uppers)` at the root). The simcheck
//! `topk-recall` oracle cross-checks the returned set against ground truth
//! on every explored schedule; the property suite in `tests/extensions.rs`
//! checks that certified answers equal the oracle prefix exactly — pruning
//! never silently drops a true top-k item.

use std::collections::BTreeMap;

use ifi_hierarchy::Hierarchy;
use ifi_sim::{
    sansio_world, Des, Effects, Envelope, Membership, MsgClass, NodeEvent, PeerId, PeerMap,
    PeerSet, RelConfig, ReliableMsg, RetransmitTimer, SansIo, SimConfig, SimTime, World,
};
use ifi_workload::{ItemId, SystemData};

use crate::WireSizes;

/// One candidate entry: partial-sum bounds for an item over the subtree a
/// list covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Sum of the lower bounds seen — never exceeds the true subtree value.
    pub lower: u64,
    /// Upper bound on the true subtree value.
    pub upper: u64,
}

/// A pruned candidate list: bounded entries plus `tau`, an upper bound on
/// the subtree value of every item *not* listed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateList {
    cap: usize,
    entries: BTreeMap<ItemId, Bounds>,
    tau: u64,
    /// Whether this list is lossless: no entry was ever pruned anywhere in
    /// the covered subtree, so `entries` is the complete exact value map.
    exact: bool,
}

impl CandidateList {
    /// Summarizes a local item set: the `cap` largest values exactly, the
    /// rest folded into `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn from_items(cap: usize, items: &[(ItemId, u64)]) -> Self {
        assert!(cap > 0, "a zero-capacity candidate list holds nothing");
        let mut exact_map: BTreeMap<ItemId, u64> = BTreeMap::new();
        for &(item, v) in items {
            *exact_map.entry(item).or_insert(0) += v;
        }
        let mut list = CandidateList {
            cap,
            entries: exact_map
                .into_iter()
                .map(|(item, v)| (item, Bounds { lower: v, upper: v }))
                .collect(),
            tau: 0,
            exact: true,
        };
        list.prune();
        list
    }

    /// Merges `other` into `self`, bound-soundly: lowers add (absent = 0),
    /// uppers add with `tau` substituted for absent entries, and the
    /// result re-prunes to capacity. Canonical merge order is the caller's
    /// responsibility (ascending `PeerId` in the engine).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn merge(&mut self, other: &CandidateList) {
        assert_eq!(
            self.cap, other.cap,
            "merging candidate lists of different capacities"
        );
        let mut merged: BTreeMap<ItemId, Bounds> = BTreeMap::new();
        for (&item, &a) in &self.entries {
            let b = other.entries.get(&item);
            merged.insert(
                item,
                Bounds {
                    lower: a.lower + b.map_or(0, |b| b.lower),
                    upper: a.upper + b.map_or(other.tau, |b| b.upper),
                },
            );
        }
        for (&item, &b) in &other.entries {
            merged.entry(item).or_insert(Bounds {
                lower: b.lower,
                upper: self.tau + b.upper,
            });
        }
        self.entries = merged;
        self.tau += other.tau;
        self.exact = self.exact && other.exact;
        self.prune();
    }

    /// Restores the capacity invariant: keeps the `cap` best entries by
    /// descending lower bound (ties to the smaller id) and folds the
    /// dropped entries' uppers into `tau`.
    fn prune(&mut self) {
        if self.entries.len() <= self.cap {
            return;
        }
        let mut order: Vec<(ItemId, Bounds)> = self.entries.iter().map(|(&i, &b)| (i, b)).collect();
        order.sort_by(|a, b| b.1.lower.cmp(&a.1.lower).then(a.0.cmp(&b.0)));
        for &(item, bounds) in &order[self.cap..] {
            self.entries.remove(&item);
            self.tau = self.tau.max(bounds.upper);
        }
        self.exact = false;
    }

    /// The bounds for `item`, if listed.
    pub fn bounds(&self, item: ItemId) -> Option<Bounds> {
        self.entries.get(&item).copied()
    }

    /// Upper bound on every unlisted item.
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// Whether the list is provably complete and exact.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Number of listed candidates (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no candidate is listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Listed candidates, ascending by item id.
    pub fn entries(&self) -> impl Iterator<Item = (ItemId, Bounds)> + '_ {
        self.entries.iter().map(|(&i, &b)| (i, b))
    }

    /// The `n` best listed candidates by descending lower bound (ties to
    /// the smaller id) — the same comparator ground truth uses on exact
    /// values, so lossless lists reproduce the oracle prefix.
    pub fn best(&self, n: usize) -> Vec<ItemId> {
        let mut order: Vec<(ItemId, Bounds)> = self.entries.iter().map(|(&i, &b)| (i, b)).collect();
        order.sort_by(|a, b| b.1.lower.cmp(&a.1.lower).then(a.0.cmp(&b.0)));
        order.truncate(n);
        order.into_iter().map(|(i, _)| i).collect()
    }

    /// Paper-priced wire bytes: `(s_i + 2·s_a)` per entry (id, lower,
    /// upper) plus `s_a` for `tau`.
    pub fn wire_bytes(&self, sizes: &WireSizes) -> u64 {
        self.entries.len() as u64 * (sizes.si + 2 * sizes.sa) + sizes.sa
    }
}

/// Tuning of the top-k engine.
#[derive(Debug, Clone)]
pub struct TopKConfig {
    /// How many items to return.
    pub k: usize,
    /// Candidate-list capacity per hop. Larger prunes less (more bytes,
    /// more certain); must be ≥ `k` for a full candidate slate.
    pub prune_cap: usize,
    /// Wire widths for byte pricing.
    pub sizes: WireSizes,
}

impl TopKConfig {
    /// A pragmatic default: prune to `4·k` candidates per hop.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-0 is the empty query");
        TopKConfig {
            k,
            prune_cap: 4 * k,
            sizes: WireSizes::default(),
        }
    }

    /// A lossless configuration: nothing is ever pruned, so the answer is
    /// always certified-exact (at whole-item-set cost — the upper end of
    /// the accuracy-vs-bytes sweep).
    pub fn lossless(k: usize) -> Self {
        TopKConfig {
            prune_cap: usize::MAX,
            ..TopKConfig::new(k)
        }
    }

    /// Overrides the prune capacity (for negative-path tests: a capacity
    /// below `k` cannot even field a full candidate slate).
    pub fn with_prune_cap(mut self, prune_cap: usize) -> Self {
        self.prune_cap = prune_cap;
        self
    }
}

/// The root's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKAnswer {
    /// The returned items with **exact** global values, descending by
    /// value then ascending by id; at most `k`.
    pub items: Vec<(ItemId, u64)>,
    /// Whether the returned set provably equals the true top-k.
    pub certified: bool,
    /// The `k` requested.
    pub k: usize,
    /// Candidates verified in phase 2.
    pub candidates: usize,
}

/// Wire messages of the top-k engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopKMsg {
    /// Phase 1, rootward: a subtree's pruned candidate list.
    Candidates(CandidateList),
    /// Phase 2, leafward: the root's chosen candidate ids.
    Query(Vec<ItemId>),
    /// Phase 2, rootward: exact subtree sums restricted to the query.
    Values(Vec<(ItemId, u64)>),
}

/// The sans-io top-k engine core for one peer.
#[derive(Debug, Clone)]
pub struct TopKProtocol {
    k: usize,
    sizes: WireSizes,
    parent: Option<PeerId>,
    children: Vec<PeerId>,
    is_root: bool,
    is_member: bool,
    local_items: Vec<(ItemId, u64)>,
    local_list: CandidateList,
    p1_pending: usize,
    /// Buffered child lists, merged in ascending-id order once complete.
    child_lists: PeerMap<CandidateList>,
    p1_seen: PeerSet,
    p1_done: bool,
    query: Option<Vec<ItemId>>,
    p2_pending: usize,
    p2_seen: PeerSet,
    p2_acc: BTreeMap<ItemId, u64>,
    p2_done: bool,
    /// Root only: the strongest possible non-candidate value, from the
    /// phase-1 bounds — the certification bar.
    noncandidate_bound: u64,
    /// Root only: phase 1 proved the candidate list lossless.
    root_exact: bool,
    answer: Option<TopKAnswer>,
    started: bool,
    env: Envelope<TopKMsg>,
}

impl TopKProtocol {
    /// Creates the state for `peer`.
    pub fn new(
        config: &TopKConfig,
        hierarchy: &Hierarchy,
        peer: PeerId,
        local_items: Vec<(ItemId, u64)>,
    ) -> Self {
        let local_list = CandidateList::from_items(config.prune_cap, &local_items);
        TopKProtocol {
            k: config.k,
            sizes: config.sizes,
            parent: hierarchy.parent(peer),
            children: hierarchy.children(peer).to_vec(),
            is_root: hierarchy.root() == peer,
            is_member: hierarchy.is_member(peer),
            local_items,
            local_list,
            p1_pending: hierarchy.children(peer).len(),
            child_lists: PeerMap::new(),
            p1_seen: PeerSet::new(),
            p1_done: false,
            query: None,
            p2_pending: hierarchy.children(peer).len(),
            p2_seen: PeerSet::new(),
            p2_acc: BTreeMap::new(),
            p2_done: false,
            noncandidate_bound: 0,
            root_exact: false,
            answer: None,
            started: false,
            env: Envelope::plain(),
        }
    }

    /// Enables the ack/retransmit envelope with the given tuning.
    pub fn with_reliability(mut self, cfg: RelConfig) -> Self {
        self.env = Envelope::reliable(cfg);
        self
    }

    /// The root's answer, once both phases complete.
    pub fn result(&self) -> Option<&TopKAnswer> {
        self.answer.as_ref()
    }

    /// Builds a ready-to-run world over `hierarchy` and `data`.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy and data universes differ.
    pub fn build_world(
        config: &TopKConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        sim: SimConfig,
    ) -> World<Des<TopKProtocol>> {
        sansio_world(sim, Self::peers(config, hierarchy, data, None))
    }

    /// The peer population as bare cores for any driver.
    pub fn peers(
        config: &TopKConfig,
        hierarchy: &Hierarchy,
        data: &SystemData,
        rel: Option<RelConfig>,
    ) -> Vec<TopKProtocol> {
        assert_eq!(
            hierarchy.universe(),
            data.peer_count(),
            "hierarchy and data peer universes differ"
        );
        (0..data.peer_count())
            .map(|i| {
                let p = PeerId::new(i);
                let core = TopKProtocol::new(config, hierarchy, p, data.local_items(p).to_vec());
                match &rel {
                    None => core,
                    Some(cfg) => core.with_reliability(cfg.clone()),
                }
            })
            .collect()
    }

    fn send(&mut self, fx: &mut Effects<Self>, to: PeerId, msg: TopKMsg, bytes: u64) {
        self.env.send(fx, to, msg, bytes, MsgClass::TOPK);
    }

    fn query_bytes(&self, ids: &[ItemId]) -> u64 {
        ids.len() as u64 * self.sizes.si
    }

    fn values_bytes(&self, vals: &[(ItemId, u64)]) -> u64 {
        vals.len() as u64 * self.sizes.pair()
    }

    /// Completes phase 1 once every child list arrived: canonical merge,
    /// then forward rootward or (at the root) open phase 2.
    fn maybe_complete_p1(&mut self, fx: &mut Effects<Self>) {
        if self.p1_pending > 0 || self.p1_done || !self.started {
            return;
        }
        self.p1_done = true;
        let mut acc = self.local_list.clone();
        for (_, list) in self.child_lists.iter() {
            acc.merge(list);
        }
        if !self.is_root {
            if let Some(parent) = self.parent {
                let bytes = acc.wire_bytes(&self.sizes);
                self.send(fx, parent, TopKMsg::Candidates(acc), bytes);
            }
            return;
        }

        // Root: choose the k best lower bounds; everything else (listed or
        // pruned) is bounded by `noncandidate_bound`.
        let chosen = acc.best(self.k);
        self.root_exact = acc.is_exact();
        self.noncandidate_bound = acc
            .entries()
            .filter(|(item, _)| !chosen.contains(item))
            .map(|(_, b)| b.upper)
            .fold(acc.tau(), u64::max);
        self.begin_p2(fx, chosen);
    }

    /// Installs the query at this node and pushes it down the tree.
    fn begin_p2(&mut self, fx: &mut Effects<Self>, ids: Vec<ItemId>) {
        if ids.is_empty() && self.is_root {
            // Nothing to verify anywhere: answer straight away.
            self.query = Some(Vec::new());
            self.p2_done = true;
            self.deliver_answer(fx);
            return;
        }
        self.p2_acc = self
            .local_items
            .iter()
            .filter(|(item, _)| ids.contains(item))
            .fold(BTreeMap::new(), |mut acc, &(item, v)| {
                *acc.entry(item).or_insert(0) += v;
                acc
            });
        let bytes = self.query_bytes(&ids);
        for child in self.children.clone() {
            self.send(fx, child, TopKMsg::Query(ids.clone()), bytes);
        }
        self.query = Some(ids);
        self.maybe_complete_p2(fx);
    }

    /// Completes phase 2 once every child's exact sums arrived.
    fn maybe_complete_p2(&mut self, fx: &mut Effects<Self>) {
        if self.p2_pending > 0 || self.p2_done || self.query.is_none() {
            return;
        }
        self.p2_done = true;
        if self.is_root {
            self.deliver_answer(fx);
        } else if let Some(parent) = self.parent {
            let vals: Vec<(ItemId, u64)> = self.p2_acc.iter().map(|(&i, &v)| (i, v)).collect();
            let bytes = self.values_bytes(&vals);
            self.send(fx, parent, TopKMsg::Values(vals), bytes);
        }
    }

    fn deliver_answer(&mut self, fx: &mut Effects<Self>) {
        let candidates = self.query.as_ref().map_or(0, Vec::len);
        let mut items: Vec<(ItemId, u64)> = self
            .p2_acc
            .iter()
            .filter(|&(_, &v)| v > 0)
            .map(|(&i, &v)| (i, v))
            .collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        items.truncate(self.k);
        // Certified when phase 1 was lossless (the candidate choice *is*
        // the oracle prefix), or when a full slate of k candidates all
        // strictly beat the best possible non-candidate.
        let certified = self.root_exact
            || (candidates >= self.k
                && items.len() == self.k
                && items
                    .last()
                    .is_some_and(|&(_, v)| v > self.noncandidate_bound));
        let answer = TopKAnswer {
            items,
            certified,
            k: self.k,
            candidates,
        };
        self.answer = Some(answer.clone());
        fx.deliver(answer);
    }

    /// Admits a rootward report against `seen`: `Some(warning)` rejects.
    fn admit(children: &[PeerId], seen: &mut PeerSet, from: PeerId) -> Option<&'static str> {
        if !children.contains(&from) {
            return Some("unexpected-sender");
        }
        if !seen.insert(from) {
            return Some("duplicate-report");
        }
        None
    }

    /// Handles a deduplicated payload. Every arm is idempotent: duplicate,
    /// replayed, or misdirected messages warn and drop, never merge twice.
    fn on_payload(&mut self, fx: &mut Effects<Self>, from: PeerId, msg: TopKMsg) {
        match msg {
            TopKMsg::Candidates(list) => {
                if let Some(warn) = Self::admit(&self.children, &mut self.p1_seen, from) {
                    fx.warn(warn);
                    return;
                }
                self.child_lists.insert(from, list);
                self.p1_pending -= 1;
                self.maybe_complete_p1(fx);
            }
            TopKMsg::Query(ids) => {
                if self.parent != Some(from) {
                    fx.warn("unexpected-sender");
                    return;
                }
                if self.query.is_some() {
                    fx.warn("duplicate-query");
                    return;
                }
                self.begin_p2(fx, ids);
            }
            TopKMsg::Values(vals) => {
                if let Some(warn) = Self::admit(&self.children, &mut self.p2_seen, from) {
                    fx.warn(warn);
                    return;
                }
                if self.query.is_none() {
                    // A child can only hold the query this node forwarded.
                    fx.warn("values-before-query");
                    return;
                }
                for (item, v) in vals {
                    *self.p2_acc.entry(item).or_insert(0) += v;
                }
                self.p2_pending -= 1;
                self.maybe_complete_p2(fx);
            }
        }
    }
}

impl SansIo for TopKProtocol {
    type Msg = ReliableMsg<TopKMsg>;
    type Timer = RetransmitTimer;
    type Output = TopKAnswer;

    fn on_event(
        &mut self,
        ev: NodeEvent<Self::Msg, Self::Timer>,
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
                    self.env.on_revival(fx);
                    return;
                }
                self.started = true;
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

/// Result of an instant (DES-backed) top-k query — the convenience shape
/// `examples/` and the property suites consume.
#[derive(Debug, Clone)]
pub struct TopKRun {
    /// The returned items with exact global values (descending; ties by
    /// ascending id), at most `k`.
    pub items: Vec<(ItemId, u64)>,
    /// Whether the set is provably the true top-k.
    pub certified: bool,
    /// Candidates verified in phase 2.
    pub candidates: usize,
    /// Total bytes across both phases.
    pub total_bytes: u64,
}

impl TopKRun {
    /// The paper's metric.
    pub fn avg_bytes_per_peer(&self, peers: usize) -> f64 {
        self.total_bytes as f64 / peers.max(1) as f64
    }
}

/// Finds the top-`k` items by global value in one DES run of
/// [`TopKProtocol`].
///
/// # Panics
///
/// Panics if the hierarchy and data universes differ.
pub fn top_k(hierarchy: &Hierarchy, data: &SystemData, k: usize, config: &TopKConfig) -> TopKRun {
    let config = TopKConfig {
        k,
        ..config.clone()
    };
    let mut w = TopKProtocol::build_world(&config, hierarchy, data, SimConfig::default());
    w.start();
    w.run_to_quiescence();
    let answer = w
        .peer(hierarchy.root())
        .result()
        .expect("quiescent top-k run must answer")
        .clone();
    TopKRun {
        items: answer.items,
        certified: answer.certified,
        candidates: answer.candidates,
        total_bytes: w.metrics().total_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_sim::FaultPlan;
    use ifi_workload::{GroundTruth, WorkloadParams};

    fn setup(seed: u64) -> (Hierarchy, SystemData, GroundTruth) {
        let data = SystemData::generate_paper(
            &WorkloadParams {
                peers: 50,
                items: 2_000,
                instances_per_item: 10,
                theta: 1.0,
            },
            seed,
        );
        let truth = GroundTruth::compute(&data);
        (Hierarchy::balanced(50, 3), data, truth)
    }

    #[test]
    fn lossless_matches_the_oracle_top_k() {
        let (h, data, truth) = setup(301);
        for k in [1usize, 5, 20, 100] {
            let run = top_k(&h, &data, k, &TopKConfig::lossless(k));
            let expect: Vec<(ItemId, u64)> = truth.globals().iter().copied().take(k).collect();
            assert_eq!(run.items, expect, "k = {k}");
            assert!(run.certified, "lossless run must certify (k = {k})");
        }
    }

    #[test]
    fn pruned_certified_answers_equal_the_oracle() {
        let (h, data, truth) = setup(303);
        let k = 10;
        // A cap comfortably above the per-peer distinct count (~400 here)
        // keeps local lists exact; only upper-tree merges prune, so `tau`
        // stays far below the Zipf head and the answer certifies.
        let run = top_k(&h, &data, k, &TopKConfig::new(k).with_prune_cap(512));
        let expect: Vec<(ItemId, u64)> = truth.globals().iter().copied().take(k).collect();
        assert!(
            run.certified,
            "a 512-entry slate should certify the Zipf head"
        );
        assert_eq!(run.items, expect);
        // And pruning actually saved bytes over the lossless run.
        let lossless = top_k(&h, &data, k, &TopKConfig::lossless(k));
        assert!(run.total_bytes < lossless.total_bytes);
    }

    #[test]
    fn starved_prune_cap_degrades_honestly() {
        let (h, data, truth) = setup(305);
        let k = 8;
        let run = top_k(&h, &data, k, &TopKConfig::new(k).with_prune_cap(1));
        assert!(!run.certified, "a one-entry slate cannot certify an 8-set");
        // Values returned are still exact for whatever was returned.
        for &(item, v) in &run.items {
            assert_eq!(v, truth.value_of(item));
        }
    }

    #[test]
    fn k_beyond_distinct_items_returns_everything() {
        let data = SystemData::from_local_sets(
            vec![vec![(ItemId(1), 5), (ItemId(2), 3)], vec![(ItemId(3), 1)]],
            10,
        );
        let h = Hierarchy::balanced(2, 2);
        let run = top_k(&h, &data, 50, &TopKConfig::lossless(50));
        assert_eq!(
            run.items,
            vec![(ItemId(1), 5), (ItemId(2), 3), (ItemId(3), 1)]
        );
        assert!(run.certified);
    }

    #[test]
    fn empty_system_returns_empty() {
        let data = SystemData::from_local_sets(vec![vec![], vec![]], 5);
        let h = Hierarchy::balanced(2, 2);
        let run = top_k(&h, &data, 3, &TopKConfig::new(3));
        assert!(run.items.is_empty());
        assert!(run.certified, "an empty system is trivially exact");
    }

    #[test]
    fn lossy_reliable_run_matches_the_clean_answer() {
        let (h, data, _) = setup(307);
        let cfg = TopKConfig::new(12);
        let mut clean = TopKProtocol::build_world(&cfg, &h, &data, SimConfig::default());
        clean.start();
        clean.run_to_quiescence();
        let want = clean.peer(h.root()).result().expect("clean answer").clone();

        let sim = SimConfig::default()
            .with_seed(5)
            .with_faults(FaultPlan::none().with_drop(0.15).with_duplication(0.1));
        let mut lossy = sansio_world(
            sim,
            TopKProtocol::peers(&cfg, &h, &data, Some(RelConfig::default())),
        );
        lossy.start();
        lossy.run_to_quiescence();
        let got = lossy.peer(h.root()).result().expect("lossy answer").clone();
        assert_eq!(got, want, "loss must not change the canonical answer");
    }

    #[test]
    fn merge_bounds_stay_sound() {
        let a = CandidateList::from_items(3, &[(ItemId(1), 10), (ItemId(2), 8), (ItemId(3), 5)]);
        let b = CandidateList::from_items(
            3,
            &[
                (ItemId(2), 7),
                (ItemId(4), 6),
                (ItemId(5), 4),
                (ItemId(6), 2),
            ],
        );
        let mut m = a.clone();
        m.merge(&b);
        assert!(m.len() <= 3);
        // True combined values.
        let truth = [
            (ItemId(1), 10),
            (ItemId(2), 15),
            (ItemId(3), 5),
            (ItemId(4), 6),
            (ItemId(5), 4),
            (ItemId(6), 2),
        ];
        for (item, v) in truth {
            match m.bounds(item) {
                Some(bounds) => {
                    assert!(bounds.lower <= v, "{item:?}: lower {} > {v}", bounds.lower);
                    assert!(bounds.upper >= v, "{item:?}: upper {} < {v}", bounds.upper);
                }
                None => assert!(m.tau() >= v, "{item:?}: tau {} < {v}", m.tau()),
            }
        }
        assert!(!m.is_exact(), "b dropped an item, so the merge is lossy");
    }

    #[test]
    #[should_panic(expected = "top-0")]
    fn k_zero_panics() {
        let _ = TopKConfig::new(0);
    }
}
