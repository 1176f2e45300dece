//! Delegating adapters that observe one layer from outside the program.
//!
//! [`Traced`] wraps any sans-io core and is itself a [`SansIo`] core, so
//! either runtime (the DES or the threaded transport) runs it unchanged.
//! It hands the runtime's effect buffer to the inner core, then re-pushes
//! every effect onto a fresh outer buffer rebuilt at the activation's
//! first token: the outer token counter therefore mirrors the inner one
//! and every timer token reaches the runtime unchanged. Counters live in
//! the wrapper itself and are read back after the run through
//! `World::peers()` or `RunOutcome::nodes`, so peer threads share nothing.
//!
//! [`TimedCodec`] wraps a [`WireCodec`] and times encode and decode with
//! relaxed atomics (the codec runs on the transport's threads).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use ifi_sim::{
    Effect, EffectBuf, Effects, Membership, MsgClass, NodeEvent, ReliableMsg, SansIo, SimTime,
};
use ifi_transport::{WireCodec, WireError};
use netfilter::continuous::EpochDelta;
use netfilter::protocol::NfMsg;

/// What the adapter can read off a protocol frame.
pub trait Frame {
    /// Whether the frame is a reliability-envelope acknowledgement.
    fn is_ack(&self) -> bool;
    /// Aggregate entries the frame carries (vector cells, candidate-map
    /// entries or delta rows).
    fn agg_entries(&self) -> u64;
}

impl<M: Payload> Frame for ReliableMsg<M> {
    fn is_ack(&self) -> bool {
        matches!(self, ReliableMsg::Ack { .. })
    }

    fn agg_entries(&self) -> u64 {
        match self {
            ReliableMsg::Plain(m) | ReliableMsg::Data { payload: m, .. } => m.agg_entries(),
            ReliableMsg::Ack { .. } => 0,
        }
    }
}

/// The aggregate entries of a protocol payload.
pub trait Payload {
    /// Aggregate entries the payload carries.
    fn agg_entries(&self) -> u64;
}

impl Payload for NfMsg {
    fn agg_entries(&self) -> u64 {
        match self {
            NfMsg::GroupAgg(v) => v.0.len() as u64,
            NfMsg::CandidateAgg(m) => m.len() as u64,
            NfMsg::Heavy(_) | NfMsg::PhaseCensus { .. } => 0,
        }
    }
}

impl Payload for EpochDelta {
    fn agg_entries(&self) -> u64 {
        self.diffs.len() as u64
    }
}

/// How much a [`Traced`] core records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Only the instants of the first `Start` and of each `Deliver` —
    /// what an untraced transport run needs to time an answer.
    Probe,
    /// Per-activation timing and effect counts.
    Full,
    /// [`Mode::Full`] plus every activation's span, for coverage
    /// arithmetic on the transport (small populations only).
    Spans,
}

/// Per-node counts of one core's activations and effects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounts {
    /// `Start` activations.
    pub starts: u64,
    /// `Message` activations.
    pub messages: u64,
    /// `Timer` activations.
    pub timers: u64,
    /// `Message` activations carrying an acknowledgement.
    pub acks_in: u64,
    /// Aggregate entries carried by received frames.
    pub agg_entries_in: u64,
    /// `Send` effects.
    pub sends: u64,
    /// `Send` effects carrying an acknowledgement.
    pub acks: u64,
    /// Non-ack `Send` effects metered in the retransmit class.
    pub retransmits: u64,
    /// `SetTimer` effects.
    pub timers_set: u64,
    /// `CancelTimer` effects.
    pub timers_cancelled: u64,
    /// `Deliver` effects.
    pub delivers: u64,
}

impl CoreCounts {
    /// Handler activations of every kind.
    pub fn activations(&self) -> u64 {
        self.starts + self.messages + self.timers
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &CoreCounts) {
        self.starts += other.starts;
        self.messages += other.messages;
        self.timers += other.timers;
        self.acks_in += other.acks_in;
        self.agg_entries_in += other.agg_entries_in;
        self.sends += other.sends;
        self.acks += other.acks;
        self.retransmits += other.retransmits;
        self.timers_set += other.timers_set;
        self.timers_cancelled += other.timers_cancelled;
        self.delivers += other.delivers;
    }
}

/// A sans-io core wrapped for observation; see the module docs.
#[derive(Debug)]
pub struct Traced<P: SansIo> {
    inner: P,
    mode: Mode,
    /// Scratch vector the inner core's effects are drained from.
    scratch: EffectBuf<P>,
    /// Counts (left at zero in [`Mode::Probe`]).
    pub counts: CoreCounts,
    /// Wall time spent inside the inner core's handler.
    pub self_time: StdDuration,
    /// Wall and runtime-clock instants of the first `Start`.
    pub started: Option<(Instant, SimTime)>,
    /// Wall and runtime-clock instants of each `Deliver`, in order.
    pub delivered: Vec<(Instant, SimTime)>,
    /// Each activation's start and length ([`Mode::Spans`] only).
    pub spans: Vec<(Instant, StdDuration)>,
}

impl<P: SansIo> Traced<P> {
    /// Wraps one core.
    pub fn new(inner: P, mode: Mode) -> Self {
        Traced {
            inner,
            mode,
            scratch: Vec::new(),
            counts: CoreCounts::default(),
            self_time: StdDuration::ZERO,
            started: None,
            delivered: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Wraps every core of a population.
    pub fn wrap_all(cores: Vec<P>, mode: Mode) -> Vec<Traced<P>> {
        cores.into_iter().map(|c| Traced::new(c, mode)).collect()
    }
}

impl<P> SansIo for Traced<P>
where
    P: SansIo,
    P::Msg: Frame,
{
    type Msg = P::Msg;
    type Timer = P::Timer;
    type Output = P::Output;

    fn on_event(
        &mut self,
        ev: NodeEvent<P::Msg, P::Timer>,
        now: SimTime,
        env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        let full = self.mode != Mode::Probe;
        match &ev {
            NodeEvent::Start => {
                if self.started.is_none() {
                    self.started = Some((Instant::now(), now));
                }
                if full {
                    self.counts.starts += 1;
                }
            }
            NodeEvent::Message { msg, .. } => {
                if full {
                    self.counts.messages += 1;
                    self.counts.acks_in += u64::from(msg.is_ack());
                    self.counts.agg_entries_in += msg.agg_entries();
                }
            }
            NodeEvent::Timer { .. } => {
                if full {
                    self.counts.timers += 1;
                }
            }
        }

        // The runtime's buffer arrives empty; the inner core fills it from
        // the same first token, so re-pushing in order reproduces every
        // token the inner core handed out.
        let (outer_buf, first_token) = std::mem::take(fx).into_parts();
        let mut inner_fx: Effects<P> = Effects::from_parts(outer_buf, first_token);
        let t0 = full.then(Instant::now);
        self.inner.on_event(ev, now, env, &mut inner_fx);
        if let Some(t0) = t0 {
            let spent = t0.elapsed();
            self.self_time += spent;
            if self.mode == Mode::Spans {
                self.spans.push((t0, spent));
            }
        }
        let (mut effects, _) = inner_fx.into_parts();
        *fx = Effects::from_parts(std::mem::take(&mut self.scratch), first_token);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    bytes,
                    class,
                } => {
                    if full {
                        self.counts.sends += 1;
                        if msg.is_ack() {
                            self.counts.acks += 1;
                        } else if class == MsgClass::RETRANSMIT {
                            self.counts.retransmits += 1;
                        }
                    }
                    fx.send(to, msg, bytes, class);
                }
                Effect::SetTimer { token, delay, tag } => {
                    self.counts.timers_set += u64::from(full);
                    let mirrored = fx.set_timer(delay, tag);
                    assert_eq!(mirrored, token, "timer token counters diverged");
                }
                Effect::CancelTimer { token } => {
                    self.counts.timers_cancelled += u64::from(full);
                    fx.cancel_timer(token);
                }
                Effect::Charge { class, bytes } => fx.charge(class, bytes),
                Effect::MarkPhase { label } => fx.mark_phase(label),
                Effect::Warn { label } => fx.warn(label),
                Effect::Deliver(out) => {
                    self.counts.delivers += u64::from(full);
                    self.delivered.push((Instant::now(), now));
                    fx.deliver(out);
                }
            }
        }
        self.scratch = effects;
    }

    fn on_stop(&mut self) {
        self.inner.on_stop();
    }
}

/// Encode and decode totals of a [`TimedCodec`].
#[derive(Debug, Default)]
pub struct CodecCounts {
    /// Frames encoded.
    pub encodes: AtomicU64,
    /// Nanoseconds spent encoding.
    pub encode_ns: AtomicU64,
    /// Frames decoded.
    pub decodes: AtomicU64,
    /// Nanoseconds spent decoding.
    pub decode_ns: AtomicU64,
}

impl CodecCounts {
    fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// `(encodes, encode_ns, decodes, decode_ns)` as read now.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            Self::read(&self.encodes),
            Self::read(&self.encode_ns),
            Self::read(&self.decodes),
            Self::read(&self.decode_ns),
        )
    }
}

/// A [`WireCodec`] wrapped to time every encode and decode.
#[derive(Debug)]
pub struct TimedCodec<C> {
    inner: C,
    counts: Arc<CodecCounts>,
}

impl<C> TimedCodec<C> {
    /// Wraps `inner`, accumulating into `counts`.
    pub fn new(inner: C, counts: Arc<CodecCounts>) -> Self {
        TimedCodec { inner, counts }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<M, C: WireCodec<M>> WireCodec<M> for TimedCodec<C> {
    fn encode(&self, msg: &M) -> Result<Vec<u8>, WireError> {
        let t0 = Instant::now();
        let out = self.inner.encode(msg);
        let ns = elapsed_ns(t0);
        self.counts.encodes.fetch_add(1, Ordering::Relaxed);
        self.counts.encode_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<M, WireError> {
        let t0 = Instant::now();
        let out = self.inner.decode(bytes);
        let ns = elapsed_ns(t0);
        self.counts.decodes.fetch_add(1, Ordering::Relaxed);
        self.counts.decode_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}
