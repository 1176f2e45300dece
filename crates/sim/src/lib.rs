//! # ifi-sim — deterministic discrete-event simulation kernel
//!
//! A small, fully deterministic discrete-event simulator (DES) used as the
//! substrate for evaluating P2P protocols. The netFilter paper (ICDCS 2008)
//! evaluates its in-network filtering technique by simulation of an
//! unstructured P2P system; this crate provides the message-level machinery
//! for that simulation:
//!
//! * a virtual clock ([`SimTime`]) with microsecond resolution,
//! * an event queue with deterministic tie-breaking,
//! * point-to-point messages with pluggable latency models ([`LatencyModel`])
//!   and optional loss,
//! * per-peer timers,
//! * configurable fault injection ([`FaultPlan`]: per-class drops,
//!   duplication, delay spikes, deterministic drop schedules) plus the
//!   ack/retransmit reliability envelope ([`Envelope`]) every protocol
//!   core adopts to stay exact under loss,
//! * peer failure/recovery (churn) injected by the driver,
//! * per-peer, per-message-class **byte accounting** ([`Metrics`]) — the
//!   paper's sole performance metric is *bytes propagated per peer*, so the
//!   kernel meters every send.
//!
//! Protocols implement the [`Protocol`] trait; one protocol state machine is
//! instantiated per peer and driven by the [`World`].
//!
//! All randomness is drawn from a seeded PRNG owned by the world, so a given
//! `(protocol, topology, seed)` triple always replays the same execution.
//!
//! ```
//! use ifi_sim::{Protocol, Ctx, PeerId, World, SimConfig, MsgClass};
//!
//! /// Each peer forwards a token to the next peer, once.
//! struct Ring { n: u32, received: bool }
//! impl Protocol for Ring {
//!     type Msg = u64;
//!     type Timer = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
//!         if ctx.self_id().index() == 0 {
//!             ctx.send(PeerId::new(1), 1, 8, MsgClass::DATA);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, _from: PeerId, msg: u64) {
//!         self.received = true;
//!         let next = (ctx.self_id().index() as u32 + 1) % self.n;
//!         if next != 0 {
//!             ctx.send(PeerId::new(next as usize), msg + 1, 8, MsgClass::DATA);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _t: ()) {}
//! }
//!
//! let peers = (0..4).map(|_| Ring { n: 4, received: false }).collect();
//! let mut world = World::new(SimConfig::default().with_seed(7), peers);
//! world.start();
//! world.run_to_quiescence();
//! assert_eq!(world.metrics().total_messages(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod event;
mod fault;
mod id;
mod metrics;
mod network;
mod obs;
mod reliable;
mod rng;
mod sansio;
mod sched;
mod time;
mod trace;
mod world;

pub use arena::{PeerMap, PeerSet};
pub use fault::FaultPlan;
pub use id::PeerId;
pub use metrics::{ClassTotals, Metrics, MsgClass};
pub use network::LatencyModel;
pub use obs::{EventSink, MetricsReport, PhaseMetrics};
pub use reliable::{backoff_delay, Envelope, RelConfig, ReliableMsg, RetransmitTimer};
pub use rng::{mix64, DetRng};
pub use sansio::{
    sansio_world, AllUp, Des, Effect, EffectBuf, Effects, Membership, NodeEvent, SansIo, TimerToken,
};
pub use sched::{EventInfo, EventTag, ScheduleDecision, ScheduleStrategy, MAX_CONSECUTIVE_DELAYS};
pub use time::{Duration, SimTime};
pub use trace::{Trace, TraceEntry, TraceKind};
pub use world::{Ctx, Protocol, SimConfig, TimerId, World};
