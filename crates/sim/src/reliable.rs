//! The ack/retransmit reliability envelope, shared by every protocol core.
//!
//! [`Envelope`] is the public face (its docs state the contract and the
//! two variants); [`ReliableLink`] is the pure state machine behind it —
//! sequence numbers, the in-flight table, dedup windows, backoff — kept
//! effect-free so every transition is unit-testable on its own.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::arena::PeerMap;
use crate::id::PeerId;
use crate::metrics::MsgClass;
use crate::rng::mix64;
use crate::sansio::{Effects, SansIo};
use crate::time::Duration;

/// Wire format of a reliability-aware protocol: either an unadorned payload
/// (fire-and-forget traffic, or reliability disabled) or a sequenced frame
/// with its acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReliableMsg<M> {
    /// An unsequenced payload outside the reliability envelope.
    Plain(M),
    /// A sequenced payload; the receiver acks `(inc, seq)` and
    /// deduplicates on it.
    Data {
        /// The sender's restart incarnation, bumped by every revival.
        inc: u32,
        /// Sender-local sequence number within incarnation `inc`.
        seq: u64,
        /// The protocol payload.
        payload: M,
    },
    /// Acknowledges receipt of the frame numbered `seq`. Echoes the
    /// acknowledged frame's incarnation so a restarted sender (whose fresh
    /// sequence space reuses old numbers) never mistakes a stale ack from
    /// its previous life for one of its current frames.
    Ack {
        /// The acknowledged frame's sender incarnation.
        inc: u32,
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// Tuning knobs for the reliability envelope.
#[derive(Debug, Clone)]
pub struct RelConfig {
    /// Bytes charged per acknowledgement (sequence number + framing).
    pub ack_bytes: u64,
    /// Timeout before the first retransmission; doubles per attempt.
    pub base_rto: Duration,
    /// Upper bound on the backed-off timeout.
    pub max_rto: Duration,
    /// Retransmissions attempted before the envelope gives up on a frame.
    pub max_retries: u32,
}

impl Default for RelConfig {
    fn default() -> Self {
        RelConfig {
            ack_bytes: 8,
            base_rto: Duration::from_millis(400),
            max_rto: Duration::from_secs(5),
            max_retries: 16,
        }
    }
}

/// Backed-off delay before attempt `attempt + 1` of a retried operation:
/// exponential growth from [`RelConfig::base_rto`] capped at
/// [`RelConfig::max_rto`], plus up to half a `base_rto` of jitter hashed
/// deterministically from `(salt, attempt)` — no PRNG draws, so enabling
/// retries never perturbs a seeded random stream, and synchronized
/// failures do not retry in lockstep.
///
/// This is the single backoff schedule of the workspace: the envelope's
/// retransmit path and the transport crate's connection supervisor both
/// call it, so reconnect pacing over real sockets is the very policy the
/// simulator models.
pub fn backoff_delay(cfg: &RelConfig, attempt: u32, salt: u64) -> Duration {
    let backed_off = cfg
        .base_rto
        .saturating_mul(1u64 << attempt.min(16))
        .min(cfg.max_rto);
    let jitter_unit = cfg.base_rto.as_micros() / 2;
    let jitter = if jitter_unit == 0 {
        0
    } else {
        mix64(salt.wrapping_mul(0x9E37).wrapping_add(attempt as u64)) % jitter_unit
    };
    backed_off + Duration::from_micros(jitter)
}

/// The envelope's timer tag: a retransmit check for the frame numbered
/// `.0`. Engines with timers of their own wrap it in their timer enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitTimer(pub u64);

/// Phase a repairing envelope marks before each ack and resend; equals the
/// [`MsgClass::RETRANSMIT`] label.
const RETRANSMIT_PHASE: &str = "retransmit";

/// Optional ack/retransmit envelope around an engine's payload type `M` —
/// the workspace's one reliability envelope: netFilter, the resilient
/// engine, hierarchy maintenance, and the sketch, top-k,
/// local-thresholding and continuous engines all route their sends,
/// incoming frames, retransmit timers and revivals through it.
///
/// The contract, per phase-critical message:
///
/// * the **original** transmission is charged once, in its own phase
///   class, so phase costs stay comparable to a loss-free run;
/// * every **retransmission** and every **ack** is charged to
///   [`MsgClass::RETRANSMIT`] — the visible price of reliability;
/// * the receiver suppresses duplicates by `(sender, incarnation, seq)`,
///   so retransmits and network-duplicated frames never double-count;
/// * retransmissions back off exponentially with deterministic jitter
///   ([`backoff_delay`]: no PRNG draws, so enabling reliability does not
///   perturb the kernel's random stream);
/// * after [`RelConfig::max_retries`] attempts the envelope gives up and
///   warns `retransmit-gave-up`, leaving recovery to the layer above.
///
/// [`plain`](Self::plain) runs fire-and-forget (zero overhead, zero extra
/// traffic). Two reliable variants differ in what a revival (second
/// `Start`) does and in phase attribution; each engine fixes its variant
/// in code:
///
/// * [`reliable`](Self::reliable), for one-shot engines: keeps every
///   original and re-sends the whole backlog as RETRANSMIT on revival
///   (the crash lost every armed timer, so the backlog is what keeps
///   delivery guaranteed); marks no phase.
/// * [`repairing`](Self::repairing), for engines with a coarser repair
///   loop (epochs, heartbeats): revival only bumps the incarnation and
///   nothing is kept — re-sending old-life frames such as `Detach` under
///   a fresh dedup window would be wrong, and a backlog would grow
///   without bound on long runs. Marks the `retransmit` phase just before
///   each ack and each resend, so handlers that interleave repair and
///   query traffic attribute them correctly.
///
/// An engine opts in by using [`ReliableMsg`] of its payload as its
/// [`SansIo::Msg`] and a [`SansIo::Timer`] convertible
/// `From<RetransmitTimer>`, then routing every send through
/// [`send`](Self::send), every incoming frame through
/// [`on_frame`](Self::on_frame), every retransmit timer through
/// [`on_retransmit`](Self::on_retransmit), and a revival through
/// [`on_revival`](Self::on_revival).
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// `None` = fire-and-forget.
    link: Option<ReliableLink<M>>,
    /// The repairing variant: no backlog, `retransmit` phase marks.
    repairing: bool,
    /// Originals produced so far `(to, msg, bytes)`, kept only by the
    /// reliable variant: a revival re-sends them all. Each shares its one
    /// retained copy with the frame's in-flight entry.
    backlog: Vec<(PeerId, Arc<M>, u64)>,
}

impl<M: Clone> Envelope<M> {
    /// A fire-and-forget envelope: sends go out as [`ReliableMsg::Plain`].
    pub fn plain() -> Self {
        Envelope {
            link: None,
            repairing: false,
            backlog: Vec::new(),
        }
    }

    /// The one-shot variant: a revival re-sends every original.
    pub fn reliable(cfg: RelConfig) -> Self {
        Envelope {
            link: Some(ReliableLink::new(cfg)),
            ..Self::plain()
        }
    }

    /// The repairing variant: a revival only bumps the incarnation, and
    /// every ack and resend is preceded by a `retransmit` phase mark.
    pub fn repairing(cfg: RelConfig) -> Self {
        Envelope {
            repairing: true,
            ..Self::reliable(cfg)
        }
    }

    /// Sends `msg` to `to`, through the envelope when reliability is on.
    /// The original is charged `bytes` in `class` either way. A reliable
    /// send keeps `msg` as its one retained copy, shared by the in-flight
    /// entry and the revival backlog, and deep-copies it once for the wire.
    pub fn send<P>(&mut self, fx: &mut Effects<P>, to: PeerId, msg: M, bytes: u64, class: MsgClass)
    where
        P: SansIo<Msg = ReliableMsg<M>>,
        P::Timer: From<RetransmitTimer>,
    {
        let Some(link) = self.link.as_mut() else {
            fx.send(to, ReliableMsg::Plain(msg), bytes, class);
            return;
        };
        let kept = Arc::new(msg);
        if !self.repairing {
            self.backlog.push((to, Arc::clone(&kept), bytes));
        }
        let (seq, frame) = link.send_data(to, kept, bytes);
        fx.send(to, frame, bytes, class);
        fx.set_timer(link.rto(seq, 0), RetransmitTimer(seq).into());
    }

    /// Unwraps an incoming frame. Returns the payload when it must reach
    /// the engine logic, `None` for acks, duplicates, and malformed frames
    /// (warned, never a panic). Sequenced frames are always acked — a
    /// duplicate usually means the first ack was lost — echoing the
    /// frame's incarnation so the sender can match it to the right life.
    pub fn on_frame<P>(
        &mut self,
        fx: &mut Effects<P>,
        from: PeerId,
        frame: ReliableMsg<M>,
    ) -> Option<M>
    where
        P: SansIo<Msg = ReliableMsg<M>>,
    {
        match frame {
            ReliableMsg::Plain(m) => Some(m),
            ReliableMsg::Data { inc, seq, payload } => {
                let Some(link) = self.link.as_mut() else {
                    // A sequenced frame at a peer with no envelope is a
                    // configuration mismatch between the two ends; drop it
                    // rather than take the node down.
                    fx.warn("sequenced-frame-without-reliability");
                    return None;
                };
                let fresh = link.accept(from, inc, seq);
                if self.repairing {
                    fx.mark_phase(RETRANSMIT_PHASE);
                }
                let ack = ReliableMsg::Ack { inc, seq };
                fx.send(from, ack, link.cfg.ack_bytes, MsgClass::RETRANSMIT);
                fresh.then_some(payload)
            }
            ReliableMsg::Ack { inc, seq } => {
                if let Some(link) = self.link.as_mut() {
                    link.on_ack(from, inc, seq);
                }
                None
            }
        }
    }

    /// Handles a retransmit-timer firing: resends (as RETRANSMIT) and
    /// re-arms while the frame is unacknowledged, goes quiet once it is
    /// acked or abandoned, and warns when retries exhaust.
    pub fn on_retransmit<P>(&mut self, fx: &mut Effects<P>, timer: RetransmitTimer)
    where
        P: SansIo<Msg = ReliableMsg<M>>,
        P::Timer: From<RetransmitTimer>,
    {
        let Some(link) = self.link.as_mut() else {
            fx.warn("retransmit-timer-without-reliability");
            return;
        };
        match link.retransmit(timer.0) {
            Retransmit::Resend {
                to,
                frame,
                bytes,
                next_delay,
            } => {
                if self.repairing {
                    fx.mark_phase(RETRANSMIT_PHASE);
                }
                fx.send(to, frame, bytes, MsgClass::RETRANSMIT);
                fx.set_timer(next_delay, timer.into());
            }
            Retransmit::Acked => {}
            Retransmit::GaveUp => fx.warn("retransmit-gave-up"),
        }
    }

    /// Handles a crash/revival (second `Start`): bumps the incarnation so
    /// late frames of the old life can never alias the new one, and — in
    /// the reliable variant — re-sends the whole original backlog as
    /// RETRANSMIT. Receivers that already merged a copy suppress it by
    /// idempotency guard; anyone else finally gets it. A no-op without
    /// reliability: there is no delivery guarantee to restore.
    pub fn on_revival<P>(&mut self, fx: &mut Effects<P>)
    where
        P: SansIo<Msg = ReliableMsg<M>>,
        P::Timer: From<RetransmitTimer>,
    {
        let Some(link) = self.link.as_mut() else {
            return;
        };
        link.on_restart();
        for (to, kept, bytes) in &self.backlog {
            let (seq, frame) = link.send_data(*to, Arc::clone(kept), *bytes);
            fx.send(*to, frame, *bytes, MsgClass::RETRANSMIT);
            fx.set_timer(link.rto(seq, 0), RetransmitTimer(seq).into());
        }
    }

    /// Drops every in-flight frame addressed to `peer`. Called when a
    /// failure detector declares `peer` dead — capped retries to a corpse
    /// would otherwise keep burning metered retransmit bytes until
    /// `max_retries` runs out. A still-armed retransmit timer for a dropped
    /// frame later finds it gone and stays silent.
    pub fn abandon(&mut self, peer: PeerId) {
        if let Some(link) = self.link.as_mut() {
            link.abandon(peer);
        }
    }
}

/// A frame awaiting acknowledgement. The original's message class is not
/// retained: the caller charged it at first send, and every later copy is
/// [`MsgClass::RETRANSMIT`] by contract.
#[derive(Debug, Clone)]
struct Pending<M> {
    to: PeerId,
    /// The retained copy, shared with the reliable variant's backlog;
    /// each resend clones the payload out of it.
    payload: Arc<M>,
    bytes: u64,
    attempts: u32,
}

/// Receiver-side duplicate suppression for one sender.
///
/// All sequence numbers below `next` have been accepted; `sparse` holds
/// accepted numbers at or above it (out-of-order arrivals). Compaction
/// advances the watermark as gaps fill, so memory stays bounded by the
/// reorder window rather than the run length.
#[derive(Debug, Clone, Default)]
struct DedupWindow {
    next: u64,
    sparse: BTreeSet<u64>,
}

/// Receiver-side state for one sender: its dedup window, tagged with the
/// sender incarnation the window belongs to. A restarted sender's fresh
/// sequence space gets a fresh window; frames stamped with an older
/// incarnation than the stored one are late stragglers from a dead life
/// and are never dispatched.
#[derive(Debug, Clone, Default)]
struct SenderWindow {
    inc: u32,
    window: DedupWindow,
}

impl DedupWindow {
    /// Records `seq`; returns `true` the first time it is seen.
    fn insert(&mut self, seq: u64) -> bool {
        if seq < self.next || !self.sparse.insert(seq) {
            return false;
        }
        while self.sparse.remove(&self.next) {
            self.next += 1;
        }
        true
    }
}

/// Outcome of a retransmit-timer firing (see [`ReliableLink::retransmit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Retransmit<M> {
    /// The frame is still unacknowledged: resend it (charging `bytes` to
    /// [`MsgClass::RETRANSMIT`]) and re-arm the timer after `next_delay`.
    Resend {
        to: PeerId,
        frame: ReliableMsg<M>,
        bytes: u64,
        next_delay: Duration,
    },
    /// The frame was acknowledged or abandoned in the meantime.
    Acked,
    /// Retries are exhausted; the frame is dropped.
    GaveUp,
}

/// Per-peer reliability state behind an [`Envelope`]: the sender-side
/// in-flight table plus receiver-side dedup windows. A pure state machine
/// (no effects), so every transition is unit-testable on its own.
#[derive(Debug, Clone)]
struct ReliableLink<M> {
    cfg: RelConfig,
    /// This node's restart incarnation, stamped into every frame and ack.
    inc: u32,
    next_seq: u64,
    in_flight: BTreeMap<u64, Pending<M>>,
    /// Per-sender dedup windows, arena-backed: the sender population is
    /// bounded by the overlay degree, so a sorted vector beats a tree map
    /// at every size the simulator reaches.
    seen: PeerMap<SenderWindow>,
}

impl<M: Clone> ReliableLink<M> {
    fn new(cfg: RelConfig) -> Self {
        ReliableLink {
            cfg,
            inc: 0,
            next_seq: 0,
            in_flight: BTreeMap::new(),
            seen: PeerMap::new(),
        }
    }

    /// Marks a restart of this node after a crash: bumps the incarnation,
    /// resets the sequence space, and drops every in-flight frame (the
    /// crash already lost their retransmit timers).
    ///
    /// The incarnation stamp is what makes the reset sound: receivers key
    /// their dedup windows by `(sender, inc)`, so the reused sequence
    /// numbers of the new life can never alias the old life's — neither
    /// suppressing fresh frames against a stale window nor dispatching a
    /// late old-life duplicate against the fresh one. Receiver windows are
    /// deliberately retained: they describe the *remote* peers' lives, not
    /// this node's.
    fn on_restart(&mut self) {
        self.inc = self.inc.wrapping_add(1);
        self.next_seq = 0;
        self.in_flight.clear();
    }

    /// Numbers a frame bound for `to` and keeps `kept`, its retained copy,
    /// in flight for retransmission. Returns the sequence number and the
    /// frame, whose payload is the one deep copy made here.
    fn send_data(&mut self, to: PeerId, kept: Arc<M>, bytes: u64) -> (u64, ReliableMsg<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = self.frame(seq, M::clone(&kept));
        let pending = Pending {
            to,
            payload: kept,
            bytes,
            attempts: 0,
        };
        self.in_flight.insert(seq, pending);
        (seq, frame)
    }

    /// The sequenced frame numbered `seq` of the current incarnation.
    fn frame(&self, seq: u64, payload: M) -> ReliableMsg<M> {
        ReliableMsg::Data {
            inc: self.inc,
            seq,
            payload,
        }
    }

    /// Timeout before attempt `attempt + 1` of frame `seq` (see
    /// [`backoff_delay`]).
    fn rto(&self, seq: u64, attempt: u32) -> Duration {
        backoff_delay(&self.cfg, attempt, seq)
    }

    /// Receiver side: records a `Data` frame from `from`, stamped with the
    /// sender's incarnation `inc` and number `seq`. Returns `true` when
    /// the payload is fresh and must be handed to the protocol, `false`
    /// for a duplicate to suppress.
    ///
    /// A frame from a *newer* incarnation than the stored window retires
    /// the window: the restarted sender's sequence space began again at
    /// zero, so the old watermark would wrongly suppress its fresh frames.
    /// A frame from an *older* incarnation is a late duplicate from a dead
    /// life; its payload was either delivered then or died with the
    /// sender, and is never dispatched now.
    fn accept(&mut self, from: PeerId, inc: u32, seq: u64) -> bool {
        let entry = self.seen.entry_or_default(from);
        if inc < entry.inc {
            return false;
        }
        if inc > entry.inc {
            entry.inc = inc;
            entry.window = DedupWindow::default();
        }
        entry.window.insert(seq)
    }

    /// Sender side: handles an `Ack` for `seq` from `from`, stamped with
    /// the acknowledged frame's incarnation `inc`. Ignores acks for a
    /// previous life of this node (a restart reuses sequence numbers, so
    /// an old-life ack must not clear a current-life frame), for unknown
    /// frames (already acked, or abandoned), and from a peer the frame was
    /// never sent to.
    fn on_ack(&mut self, from: PeerId, inc: u32, seq: u64) {
        if inc == self.inc && self.in_flight.get(&seq).is_some_and(|p| p.to == from) {
            self.in_flight.remove(&seq);
        }
    }

    /// Sender side: drops every in-flight frame addressed to `peer`.
    fn abandon(&mut self, peer: PeerId) {
        self.in_flight.retain(|_, p| p.to != peer);
    }

    /// Sender side: handles a retransmit-timer firing for `seq`.
    fn retransmit(&mut self, seq: u64) -> Retransmit<M> {
        let Some(pending) = self.in_flight.get_mut(&seq) else {
            return Retransmit::Acked;
        };
        if pending.attempts >= self.cfg.max_retries {
            self.in_flight.remove(&seq);
            return Retransmit::GaveUp;
        }
        pending.attempts += 1;
        let (to, payload, bytes, attempts) = (
            pending.to,
            M::clone(&pending.payload),
            pending.bytes,
            pending.attempts,
        );
        Retransmit::Resend {
            to,
            // In-flight frames always belong to the current incarnation:
            // `on_restart` clears the table.
            frame: self.frame(seq, payload),
            bytes,
            next_delay: self.rto(seq, attempts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> ReliableLink<&'static str> {
        ReliableLink::new(RelConfig::default())
    }

    #[test]
    fn sequences_are_fresh_per_send() {
        let mut l = link();
        let (s0, f0) = l.send_data(PeerId::new(1), Arc::new("a"), 4);
        let (s1, _) = l.send_data(PeerId::new(2), Arc::new("b"), 4);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(
            f0,
            ReliableMsg::Data {
                inc: 0,
                seq: 0,
                payload: "a"
            }
        );
        assert_eq!(l.in_flight.len(), 2);
    }

    #[test]
    fn ack_clears_in_flight_and_timer_becomes_noop() {
        let mut l = link();
        let (seq, _) = l.send_data(PeerId::new(1), Arc::new("a"), 4);
        l.on_ack(PeerId::new(1), 0, seq);
        assert!(l.in_flight.is_empty());
        assert_eq!(l.retransmit(seq), Retransmit::Acked);
        // A duplicate ack is harmless.
        l.on_ack(PeerId::new(1), 0, seq);
    }

    #[test]
    fn ack_from_the_wrong_peer_is_ignored() {
        let mut l = link();
        let (seq, _) = l.send_data(PeerId::new(1), Arc::new("a"), 4);
        l.on_ack(PeerId::new(9), 0, seq);
        assert_eq!(l.in_flight.len(), 1);
    }

    #[test]
    fn retransmit_resends_until_retries_exhaust() {
        let mut l = ReliableLink::new(RelConfig {
            max_retries: 2,
            ..RelConfig::default()
        });
        let (seq, _) = l.send_data(PeerId::new(3), Arc::new("x"), 10);
        for _ in 0..2 {
            match l.retransmit(seq) {
                Retransmit::Resend {
                    to, frame, bytes, ..
                } => {
                    assert_eq!(to, PeerId::new(3));
                    assert_eq!(bytes, 10);
                    assert!(matches!(frame, ReliableMsg::Data { seq: s, .. } if s == seq));
                }
                other => panic!("expected resend, got {other:?}"),
            }
        }
        assert_eq!(l.retransmit(seq), Retransmit::GaveUp);
        assert!(l.in_flight.is_empty());
        // Once abandoned, stray timers are no-ops.
        assert_eq!(l.retransmit(seq), Retransmit::Acked);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let l = link();
        let base = l.cfg.base_rto;
        assert!(l.rto(0, 0) >= base);
        assert!(l.rto(0, 0) < base + base); // jitter < base/2 < base
        assert!(l.rto(0, 3) >= base.saturating_mul(8));
        let capped = l.rto(0, 30);
        assert!(capped <= l.cfg.max_rto + base);
        // Jitter is deterministic.
        assert_eq!(l.rto(7, 2), l.rto(7, 2));
    }

    #[test]
    fn dedup_accepts_once_per_sender_sequence() {
        let mut l = link();
        let a = PeerId::new(1);
        let b = PeerId::new(2);
        assert!(l.accept(a, 0, 0));
        assert!(!l.accept(a, 0, 0), "retransmit double-counted");
        assert!(l.accept(b, 0, 0), "windows are per-sender");
        assert!(l.accept(a, 0, 1));
    }

    #[test]
    fn dedup_survives_reordering_and_compacts() {
        let mut l = link();
        let p = PeerId::new(4);
        // Arrivals: 2, 0, 1 (reordered), then dups of each.
        assert!(l.accept(p, 0, 2));
        assert!(l.accept(p, 0, 0));
        assert!(l.accept(p, 0, 1));
        for seq in 0..3 {
            assert!(!l.accept(p, 0, seq));
        }
        let w = l.seen.get(p).unwrap();
        assert_eq!(w.window.next, 3, "watermark compacted past the filled gap");
        assert!(w.window.sparse.is_empty());
        assert_eq!(l.seen.high_water(), 1);
    }

    #[test]
    fn restart_resets_the_seq_space_without_aliasing_the_old_window() {
        // Receiver's view of a sender that crashes and restarts: the new
        // life reuses sequence numbers starting from zero, and without the
        // incarnation stamp the old watermark would swallow all of them.
        let mut l = link();
        let p = PeerId::new(2);
        assert!(l.accept(p, 0, 0));
        assert!(l.accept(p, 0, 1));
        assert!(l.accept(p, 0, 2));
        // Sender restarts: incarnation 1, fresh seq space.
        assert!(l.accept(p, 1, 0), "fresh life suppressed by stale window");
        assert!(!l.accept(p, 1, 0), "retransmit within the new life");
        assert!(l.accept(p, 1, 1));
        // One window per sender throughout — the arena slot is reused.
        assert_eq!(l.seen.high_water(), 1);
    }

    #[test]
    fn late_duplicate_from_a_previous_life_never_dispatches() {
        let mut l = link();
        let p = PeerId::new(2);
        assert!(l.accept(p, 0, 0), "delivered in the old life");
        assert!(l.accept(p, 1, 0), "new life after restart");
        // A network-delayed duplicate of the already-delivered old-life
        // frame arrives after the window reset: it must not dispatch a
        // second time even though the fresh window has no record of it.
        assert!(!l.accept(p, 0, 0), "old-life duplicate dispatched twice");
        // Same for an old-life frame the receiver never saw: its send died
        // with the old life and must not leak into the new one.
        assert!(!l.accept(p, 0, 7));
    }

    #[test]
    fn stale_ack_from_a_previous_life_does_not_clear_a_current_frame() {
        let mut l = link();
        let p = PeerId::new(1);
        let (s0, _) = l.send_data(p, Arc::new("old"), 4);
        assert_eq!(s0, 0);
        // Crash + restart: the new life's first frame reuses seq 0.
        l.on_restart();
        let (s1, f1) = l.send_data(p, Arc::new("new"), 4);
        assert_eq!(s1, 0, "restart resets the sequence space");
        assert!(matches!(f1, ReliableMsg::Data { inc: 1, seq: 0, .. }));
        // The old life's ack for seq 0 finally arrives: it must not clear
        // the in-flight frame of the new life.
        l.on_ack(p, 0, 0);
        assert_eq!(l.in_flight.len(), 1, "stale ack cleared a current frame");
        l.on_ack(p, 1, 0);
        assert!(l.in_flight.is_empty());
    }

    #[test]
    fn restart_abandons_in_flight_frames() {
        let mut l = link();
        l.send_data(PeerId::new(1), Arc::new("a"), 4);
        l.send_data(PeerId::new(2), Arc::new("b"), 4);
        assert_eq!(l.inc, 0);
        l.on_restart();
        assert_eq!(l.inc, 1);
        assert!(l.in_flight.is_empty());
        // Stray timers from the old life find nothing to resend.
        assert_eq!(l.retransmit(0), Retransmit::Acked);
        assert_eq!(l.retransmit(1), Retransmit::Acked);
    }

    /// The link against a reference model that owns each payload outright
    /// (the link shares its retained copy with the envelope's backlog).
    mod model {
        use std::collections::BTreeMap;

        use proptest::prelude::*;

        use super::*;

        const MAX_RETRIES: u32 = 2;

        #[derive(Debug, Default)]
        struct Model {
            inc: u32,
            next_seq: u64,
            /// seq -> (to, payload, bytes, attempts).
            in_flight: BTreeMap<u64, (PeerId, u32, u64, u32)>,
            /// sender -> (inc, next, sparse).
            seen: BTreeMap<PeerId, (u32, u64, BTreeSet<u64>)>,
        }

        impl Model {
            fn send_data(
                &mut self,
                to: PeerId,
                payload: u32,
                bytes: u64,
            ) -> (u64, ReliableMsg<u32>) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.in_flight.insert(seq, (to, payload, bytes, 0));
                let inc = self.inc;
                (seq, ReliableMsg::Data { inc, seq, payload })
            }

            fn on_ack(&mut self, from: PeerId, inc: u32, seq: u64) {
                if inc == self.inc && self.in_flight.get(&seq).is_some_and(|p| p.0 == from) {
                    self.in_flight.remove(&seq);
                }
            }

            fn retransmit(&mut self, cfg: &RelConfig, seq: u64) -> Retransmit<u32> {
                let Some(p) = self.in_flight.get_mut(&seq) else {
                    return Retransmit::Acked;
                };
                if p.3 >= MAX_RETRIES {
                    self.in_flight.remove(&seq);
                    return Retransmit::GaveUp;
                }
                p.3 += 1;
                Retransmit::Resend {
                    to: p.0,
                    frame: ReliableMsg::Data {
                        inc: self.inc,
                        seq,
                        payload: p.1,
                    },
                    bytes: p.2,
                    next_delay: backoff_delay(cfg, p.3, seq),
                }
            }

            fn accept(&mut self, from: PeerId, inc: u32, seq: u64) -> bool {
                let (w_inc, next, sparse) = self.seen.entry(from).or_default();
                if inc < *w_inc {
                    return false;
                }
                if inc > *w_inc {
                    (*w_inc, *next) = (inc, 0);
                    sparse.clear();
                }
                if seq < *next || !sparse.insert(seq) {
                    return false;
                }
                while sparse.remove(next) {
                    *next += 1;
                }
                true
            }
        }

        /// Asserts that `l` holds exactly the model's state.
        fn same_state(
            l: &ReliableLink<u32>,
            m: &Model,
        ) -> Result<(), proptest::test_runner::TestCaseError> {
            prop_assert_eq!((l.inc, l.next_seq), (m.inc, m.next_seq));
            let link: Vec<_> = l
                .in_flight
                .iter()
                .map(|(s, p)| (*s, (p.to, *p.payload, p.bytes, p.attempts)))
                .collect();
            let model: Vec<_> = m.in_flight.iter().map(|(s, p)| (*s, *p)).collect();
            prop_assert_eq!(link, model);
            let link: Vec<_> = m
                .seen
                .keys()
                .map(|&p| {
                    l.seen
                        .get(p)
                        .map(|w| (w.inc, w.window.next, w.window.sparse.clone()))
                })
                .collect();
            let model: Vec<_> = m.seen.values().cloned().map(Some).collect();
            prop_assert_eq!(link, model);
            prop_assert_eq!(l.seen.len(), m.seen.len());
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Every step of an arbitrary interleaving of sends, acks (in
            /// any order, from the wrong peer, with a stale incarnation),
            /// retransmits up to give-up, abandons, restarts, and receipts
            /// (duplicated, reordered, stale) returns what the model
            /// returns and leaves the same state behind.
            #[test]
            fn link_matches_the_tree_model(
                ops in prop::collection::vec(
                    (0u8..10, 0u8..4, 0u8..3, 0u8..16, 1u64..64), 1..160,
                ),
            ) {
                let cfg = RelConfig {
                    max_retries: MAX_RETRIES,
                    ..RelConfig::default()
                };
                let mut l = ReliableLink::new(cfg.clone());
                let mut m = Model::default();
                for (i, &(kind, peer, inc, seq, bytes)) in ops.iter().enumerate() {
                    let peer = PeerId::new(peer as usize);
                    // Mostly the current life, sometimes the previous or next.
                    let ack_inc = match inc {
                        0 => m.inc.wrapping_sub(1),
                        1 => m.inc,
                        _ => m.inc + 1,
                    };
                    // Mostly a frame still in flight, else any number issued
                    // so far or the next one.
                    let live = match m.in_flight.keys().nth(seq as usize % 4) {
                        Some(&s) if seq < 12 => s,
                        _ => seq as u64 % (m.next_seq + 1),
                    };
                    match kind {
                        0 | 1 => {
                            let payload = i as u32;
                            prop_assert_eq!(
                                l.send_data(peer, Arc::new(payload), bytes),
                                m.send_data(peer, payload, bytes)
                            );
                        }
                        2 => {
                            // Acks from the frame's own peer half the time.
                            let from = match m.in_flight.get(&live) {
                                Some(p) if bytes % 2 == 0 => p.0,
                                _ => peer,
                            };
                            l.on_ack(from, ack_inc, live);
                            m.on_ack(from, ack_inc, live);
                        }
                        3..=5 => prop_assert_eq!(l.retransmit(live), m.retransmit(&cfg, live)),
                        6 => {
                            l.abandon(peer);
                            m.in_flight.retain(|_, p| p.0 != peer);
                        }
                        7 => {
                            l.on_restart();
                            (m.inc, m.next_seq) = (m.inc + 1, 0);
                            m.in_flight.clear();
                        }
                        _ => {
                            let (inc, seq) = (inc as u32, seq as u64 % 8);
                            prop_assert_eq!(l.accept(peer, inc, seq), m.accept(peer, inc, seq));
                        }
                    }
                    same_state(&l, &m)?;
                }
            }
        }
    }

    mod envelope {
        use super::*;
        use crate::sansio::{sansio_world, Effect, Membership, NodeEvent};
        use crate::time::SimTime;
        use crate::world::SimConfig;

        /// Minimal envelope-driven echo core, just enough to type `Effects`.
        #[derive(Debug)]
        struct Echo<M = u32> {
            env: Envelope<M>,
        }

        impl<M: Clone + std::fmt::Debug> SansIo for Echo<M> {
            type Msg = ReliableMsg<M>;
            type Timer = RetransmitTimer;
            type Output = ();

            fn on_event(
                &mut self,
                ev: NodeEvent<Self::Msg, Self::Timer>,
                _now: SimTime,
                _env: &dyn Membership,
                fx: &mut Effects<Self>,
            ) {
                match ev {
                    NodeEvent::Start => self.env.on_revival(fx),
                    NodeEvent::Message { from, msg } => {
                        self.env.on_frame(fx, from, msg);
                    }
                    NodeEvent::Timer { tag } => self.env.on_retransmit(fx, tag),
                }
            }
        }

        type Eff = Effect<ReliableMsg<u32>, RetransmitTimer, ()>;

        fn echo<M: Clone + std::fmt::Debug>(env: Envelope<M>) -> (Echo<M>, Effects<Echo<M>>) {
            (Echo { env }, Effects::new())
        }

        fn drain<M: Clone + std::fmt::Debug>(
            fx: &mut Effects<Echo<M>>,
        ) -> Vec<Effect<ReliableMsg<M>, RetransmitTimer, ()>> {
            fx.drain().collect()
        }

        fn sends<M: Clone + std::fmt::Debug>(
            fx: &mut Effects<Echo<M>>,
        ) -> Vec<(PeerId, ReliableMsg<M>, u64, MsgClass)> {
            drain(fx)
                .into_iter()
                .filter_map(|e| match e {
                    Effect::Send {
                        to,
                        msg,
                        bytes,
                        class,
                    } => Some((to, msg, bytes, class)),
                    _ => None,
                })
                .collect()
        }

        #[test]
        fn plain_mode_is_fire_and_forget() {
            let (mut node, mut fx) = echo(Envelope::plain());
            node.env
                .send(&mut fx, PeerId::new(1), 7, 16, MsgClass::SKETCH);
            let out = sends(&mut fx);
            assert_eq!(
                out,
                vec![(PeerId::new(1), ReliableMsg::Plain(7), 16, MsgClass::SKETCH)]
            );
        }

        #[test]
        fn reliable_send_frames_arms_a_timer_and_dedups_on_receipt() {
            let (mut sender, mut fx) = echo(Envelope::reliable(RelConfig::default()));
            let (mut receiver, mut rfx) = echo(Envelope::reliable(RelConfig::default()));
            sender
                .env
                .send(&mut fx, PeerId::new(1), 42, 16, MsgClass::TOPK);
            let mut saw_timer = false;
            let mut frame: Option<ReliableMsg<u32>> = None;
            for e in drain(&mut fx) {
                match e {
                    Effect::Send { msg, class, .. } => {
                        assert_eq!(class, MsgClass::TOPK, "original keeps its phase class");
                        frame = Some(msg);
                    }
                    Effect::SetTimer { .. } => saw_timer = true,
                    other => panic!("unexpected effect {other:?}"),
                }
            }
            assert!(saw_timer, "reliable send must arm a retransmit timer");
            let frame = frame.expect("reliable send must emit a frame");

            // First delivery dispatches and acks; the duplicate only acks.
            let p0 = PeerId::new(0);
            assert_eq!(receiver.env.on_frame(&mut rfx, p0, frame.clone()), Some(42));
            assert_eq!(receiver.env.on_frame(&mut rfx, p0, frame), None);
            let acks = sends(&mut rfx);
            assert_eq!(acks.len(), 2, "every sequenced frame is acked");
            for (_, msg, _, class) in acks {
                assert!(matches!(msg, ReliableMsg::Ack { .. }));
                assert_eq!(class, MsgClass::RETRANSMIT);
            }
        }

        #[test]
        fn retransmit_stops_after_ack() {
            let (mut sender, mut fx) = echo(Envelope::reliable(RelConfig::default()));
            sender
                .env
                .send(&mut fx, PeerId::new(1), 9, 8, MsgClass::THRESHOLD);
            drain(&mut fx);

            // Unacked: the timer resends (as RETRANSMIT) and re-arms.
            sender.env.on_retransmit(&mut fx, RetransmitTimer(0));
            let resent = sends(&mut fx);
            assert_eq!(resent.len(), 1);
            assert_eq!(resent[0].3, MsgClass::RETRANSMIT);

            // Acked: the timer goes quiet.
            let ack = ReliableMsg::Ack { inc: 0, seq: 0 };
            assert_eq!(sender.env.on_frame(&mut fx, PeerId::new(1), ack), None);
            sender.env.on_retransmit(&mut fx, RetransmitTimer(0));
            assert!(sends(&mut fx).is_empty(), "acked frame retransmitted");
        }

        #[test]
        fn gave_up_is_warned() {
            let cfg = RelConfig {
                max_retries: 0,
                ..RelConfig::default()
            };
            let (mut sender, mut fx) = echo(Envelope::repairing(cfg));
            sender
                .env
                .send(&mut fx, PeerId::new(1), 9, 8, MsgClass::DATA);
            drain(&mut fx);
            sender.env.on_retransmit(&mut fx, RetransmitTimer(0));
            assert!(matches!(
                drain(&mut fx)[..],
                [Effect::Warn {
                    label: "retransmit-gave-up"
                }]
            ));
        }

        thread_local! {
            static CLONES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }

        /// A payload that counts its deep copies, per test thread.
        #[derive(Debug, PartialEq, Eq)]
        struct Counted(u32);

        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.with(|c| c.set(c.get() + 1));
                Counted(self.0)
            }
        }

        /// Deep copies of a [`Counted`] made while `f` runs.
        fn copies(f: impl FnOnce()) -> u32 {
            let before = CLONES.with(|c| c.get());
            f();
            CLONES.with(|c| c.get()) - before
        }

        #[test]
        fn one_deep_copy_per_wire_frame_and_none_to_retain() {
            let (mut node, mut fx) = echo(Envelope::plain());
            let to = PeerId::new(1);
            let sent = copies(|| node.env.send(&mut fx, to, Counted(0), 8, MsgClass::DATA));
            assert_eq!(sent, 0, "plain send copied its payload");

            for env in [
                Envelope::reliable(RelConfig::default()),
                Envelope::repairing(RelConfig::default()),
            ] {
                let (mut node, mut fx) = echo(env);
                for i in 0..2 {
                    let sent = copies(|| node.env.send(&mut fx, to, Counted(i), 8, MsgClass::DATA));
                    assert_eq!(sent, 1, "a reliable send keeps one copy, shared");
                }
                for _ in 0..2 {
                    let resent = copies(|| node.env.on_retransmit(&mut fx, RetransmitTimer(0)));
                    assert_eq!(resent, 1, "each resend copies once");
                }
                node.env
                    .on_frame(&mut fx, to, ReliableMsg::Ack { inc: 0, seq: 0 });
                let idle = copies(|| node.env.on_retransmit(&mut fx, RetransmitTimer(0)));
                assert_eq!(idle, 0, "an acked frame's timer copied");
                drain(&mut fx);
            }
        }

        #[test]
        fn revival_resends_the_backlog_under_a_new_incarnation() {
            let (mut node, mut fx) = echo(Envelope::reliable(RelConfig::default()));
            let originals = [
                (PeerId::new(1), 10),
                (PeerId::new(2), 20),
                (PeerId::new(1), 30),
            ];
            for (i, &(to, bytes)) in originals.iter().enumerate() {
                node.env
                    .send(&mut fx, to, Counted(i as u32), bytes, MsgClass::DATA);
            }
            let first = sends(&mut fx);
            // An acked original is re-sent too: the receiver's dedup guard
            // is what suppresses it.
            node.env
                .on_frame(&mut fx, PeerId::new(1), ReliableMsg::Ack { inc: 0, seq: 0 });
            drain(&mut fx);

            let revived = copies(|| node.env.on_revival(&mut fx));
            assert_eq!(revived, 3, "one copy per re-sent original");
            let again = sends(&mut fx);
            assert_eq!(again.len(), first.len());
            for (seq, (before, after)) in first.into_iter().zip(again).enumerate() {
                let (to, msg, bytes, _) = before;
                let ReliableMsg::Data { payload, .. } = msg else {
                    panic!("original was not sequenced: {msg:?}");
                };
                let frame = ReliableMsg::Data {
                    inc: 1,
                    seq: seq as u64,
                    payload,
                };
                assert_eq!(after, (to, frame, bytes, MsgClass::RETRANSMIT));
            }

            // Plain mode has nothing to restore.
            let (mut plain, _) = echo(Envelope::plain());
            plain.env.on_revival(&mut fx);
            assert!(sends(&mut fx).is_empty());
        }

        #[test]
        fn repairing_revival_sends_nothing_and_bumps_the_incarnation() {
            let (mut sender, mut fx) = echo(Envelope::repairing(RelConfig::default()));
            sender
                .env
                .send(&mut fx, PeerId::new(1), 1, 8, MsgClass::CONTROL);
            drain(&mut fx);

            sender.env.on_revival(&mut fx);
            assert!(drain(&mut fx).is_empty(), "repairing revival re-sent");
            // The old life's timer finds nothing in flight.
            sender.env.on_retransmit(&mut fx, RetransmitTimer(0));
            assert!(drain(&mut fx).is_empty(), "old-life frame retransmitted");
            // The new life restarts the sequence space under a fresh stamp.
            sender
                .env
                .send(&mut fx, PeerId::new(1), 2, 8, MsgClass::CONTROL);
            let out = sends(&mut fx);
            assert!(matches!(out[0].1, ReliableMsg::Data { inc: 1, seq: 0, .. }));
        }

        #[test]
        fn repairing_marks_the_retransmit_phase_before_ack_and_resend() {
            for (env, marks) in [
                (Envelope::repairing(RelConfig::default()), true),
                (Envelope::reliable(RelConfig::default()), false),
            ] {
                let (mut node, mut fx) = echo(env);
                node.env
                    .send(&mut fx, PeerId::new(1), 5, 8, MsgClass::CONTROL);
                let sent = drain(&mut fx);
                assert!(matches!(
                    sent[..],
                    [Effect::Send { .. }, Effect::SetTimer { .. }]
                ));

                let frame = ReliableMsg::Data {
                    inc: 0,
                    seq: 0,
                    payload: 6,
                };
                node.env.on_frame(&mut fx, PeerId::new(2), frame);
                node.env.on_retransmit(&mut fx, RetransmitTimer(0));
                let out = drain(&mut fx);
                let mark = |e: &Eff| {
                    matches!(
                        e,
                        Effect::MarkPhase {
                            label: "retransmit"
                        }
                    )
                };
                if marks {
                    assert!(mark(&out[0]) && mark(&out[2]), "{out:?}");
                    assert!(matches!(
                        out[1],
                        Effect::Send {
                            msg: ReliableMsg::Ack { .. },
                            ..
                        }
                    ));
                    assert!(matches!(out[3], Effect::Send { .. }));
                    assert_eq!(out.len(), 5);
                } else {
                    assert!(!out.iter().any(mark), "{out:?}");
                    assert_eq!(out.len(), 3);
                }
            }
        }

        #[test]
        fn abandon_silences_a_pending_retransmit() {
            let (mut sender, mut fx) = echo(Envelope::repairing(RelConfig::default()));
            let (dead, live) = (PeerId::new(3), PeerId::new(5));
            sender.env.send(&mut fx, dead, 1, 8, MsgClass::CONTROL);
            sender.env.send(&mut fx, live, 2, 8, MsgClass::CONTROL);
            sender.env.send(&mut fx, dead, 3, 8, MsgClass::CONTROL);
            drain(&mut fx);

            sender.env.abandon(dead);
            // Stray timers for the abandoned frames are silent no-ops, not
            // give-up warnings; the live peer's frame still retransmits.
            sender.env.on_retransmit(&mut fx, RetransmitTimer(0));
            sender.env.on_retransmit(&mut fx, RetransmitTimer(2));
            assert!(drain(&mut fx).is_empty(), "abandoned frame retransmitted");
            sender.env.on_retransmit(&mut fx, RetransmitTimer(1));
            assert_eq!(sends(&mut fx)[0].0, live);
        }

        const FRAME_BYTES: u64 = 16;

        #[derive(Debug, Clone, Copy)]
        enum Tm {
            Retransmit(RetransmitTimer),
            Abandon,
        }

        impl From<RetransmitTimer> for Tm {
            fn from(t: RetransmitTimer) -> Self {
                Tm::Retransmit(t)
            }
        }

        /// Sends one reliable frame to peer 1 (dead for the whole run) and
        /// abandons that peer at t = 1 s.
        #[derive(Debug)]
        struct Sender {
            env: Envelope<&'static str>,
            active: bool,
        }

        impl SansIo for Sender {
            type Msg = ReliableMsg<&'static str>;
            type Timer = Tm;
            type Output = ();

            fn on_event(
                &mut self,
                ev: NodeEvent<Self::Msg, Tm>,
                _now: SimTime,
                _env: &dyn Membership,
                fx: &mut Effects<Self>,
            ) {
                match ev {
                    NodeEvent::Start if self.active => {
                        let dead = PeerId::new(1);
                        self.env
                            .send(fx, dead, "payload", FRAME_BYTES, MsgClass::DATA);
                        fx.set_timer(Duration::from_secs(1), Tm::Abandon);
                    }
                    NodeEvent::Timer { tag: Tm::Abandon } => self.env.abandon(PeerId::new(1)),
                    NodeEvent::Timer {
                        tag: Tm::Retransmit(t),
                    } => self.env.on_retransmit(fx, t),
                    _ => {}
                }
            }
        }

        #[test]
        fn abandoned_peer_stops_retransmitting_without_double_metering() {
            let sender = |active| Sender {
                env: Envelope::repairing(RelConfig::default()),
                active,
            };
            let mut w = sansio_world(
                SimConfig::default().with_seed(31),
                vec![sender(true), sender(false)],
            );
            w.kill_now(PeerId::new(1));
            w.start();
            w.run_to_quiescence();

            // Retransmit deadlines before the 1 s abandon; the default base
            // RTO (400 ms + jitter) guarantees at least one, so the byte
            // assertion below is not vacuous.
            let cfg = RelConfig::default();
            let (mut at, mut resends) = (Duration::ZERO, 0u64);
            loop {
                at = at + backoff_delay(&cfg, resends as u32, 0);
                if at >= Duration::from_secs(1) {
                    break;
                }
                resends += 1;
            }
            assert!(resends >= 1, "no resend happened before abandon");
            // In-flight bytes are metered exactly once per wire frame — the
            // original plus each pre-abandon resend; abandoning the peer
            // charges nothing extra, and no retransmission fires after it.
            assert_eq!(w.metrics().total_bytes(), FRAME_BYTES * (1 + resends));
            assert_eq!(
                w.metrics().class_bytes(MsgClass::RETRANSMIT),
                FRAME_BYTES * resends
            );
            // Quiescence proves no timer re-armed after the abandon: the
            // clock stopped at the first no-op timer past it, long before
            // the retry budget would have run out.
            assert!(w.now() >= SimTime::from_micros(1_000_000));
            assert!(w.now() < SimTime::from_micros(3_000_000));
        }
    }
}
