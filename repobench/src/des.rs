//! Driving a DES world from outside and reading its counts back.

use std::time::{Duration as StdDuration, Instant};

use ifi_sim::{Des, MsgClass, PeerId, SansIo, SimTime, World};

use crate::adapters::{Frame, Traced};
use crate::report::Layers;

/// When each answer was issued and delivered, in wall and sim time.
#[derive(Debug)]
pub struct Observed {
    /// Per due time: wall instant and sim due time at which the kernel
    /// first reached it.
    pub issued: Vec<(Instant, SimTime)>,
    /// Per root delivery: wall instant and sim time.
    pub answered: Vec<(Instant, SimTime)>,
    /// Wall time from the first event to quiescence.
    pub wall: StdDuration,
}

impl Observed {
    /// Issue-to-answer latencies `(wall ms, sim ms)` of the answers that
    /// arrived, in issue order.
    pub fn latencies(&self) -> Vec<(f64, f64)> {
        self.issued
            .iter()
            .zip(&self.answered)
            .map(|(&(wi, si), &(wa, sa))| {
                (
                    wa.duration_since(wi).as_secs_f64() * 1e3,
                    sa.duration_since(si).as_secs_f64() * 1e3,
                )
            })
            .collect()
    }
}

/// Starts `w` and steps it to quiescence, stamping the wall instant at
/// which the kernel reaches each `due` time and each new delivery at
/// `root`. Equivalent to `start` plus `run_to_quiescence`: the stepping
/// loop only reads the world between events.
pub fn drive<P: SansIo>(w: &mut World<Des<P>>, root: PeerId, due: &[SimTime]) -> Observed {
    let mut obs = Observed {
        issued: Vec::with_capacity(due.len()),
        answered: Vec::with_capacity(due.len()),
        wall: StdDuration::ZERO,
    };
    let t0 = Instant::now();
    w.start();
    loop {
        while let Some(&d) = due.get(obs.issued.len()) {
            if w.next_event_time().is_some_and(|t| t < d) {
                break;
            }
            obs.issued.push((Instant::now(), d));
        }
        if !w.step() {
            break;
        }
        // One event may deliver several answers (the continuous engine
        // flushes buffered epochs in order); each gets this stamp.
        while w.peer(root).delivered().len() > obs.answered.len() {
            obs.answered.push((Instant::now(), w.now()));
        }
    }
    obs.wall = t0.elapsed();
    obs
}

/// The deterministic counts of one finished world, compared exactly
/// between a traced and an untraced run of the same inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldCounts {
    /// Kernel events processed.
    pub events: u64,
    /// Messages sent.
    pub messages: u64,
    /// Metered bytes per class index.
    pub class_bytes: [u64; MsgClass::COUNT],
    /// Largest event-queue population.
    pub queue_high_water: u64,
    /// Digest of everything the root delivered.
    pub answer_digest: u64,
}

impl WorldCounts {
    /// Reads the counts of a finished world; `digest` folds the root's
    /// deliveries.
    pub fn of<P: SansIo>(w: &World<Des<P>>, digest: u64) -> Self {
        let mut class_bytes = [0; MsgClass::COUNT];
        for (i, slot) in class_bytes.iter_mut().enumerate() {
            *slot = w.metrics().class_bytes(MsgClass(i as u8));
        }
        WorldCounts {
            events: w.events_processed(),
            messages: w.metrics().total_messages(),
            class_bytes,
            queue_high_water: w.queue_high_water() as u64,
            answer_digest: digest,
        }
    }

    /// All metered bytes.
    pub fn total_bytes(&self) -> u64 {
        self.class_bytes.iter().sum()
    }
}

/// Adds one traced world's counters into `layers`.
pub fn absorb<P>(
    layers: &mut Layers,
    w: &World<Des<Traced<P>>>,
    counts: &WorldCounts,
    obs: &Observed,
) where
    P: SansIo,
    P::Msg: Frame,
{
    layers.on_des = true;
    layers.answers += obs.answered.len() as u64;
    layers.events += counts.events;
    layers.queue_high_water = layers.queue_high_water.max(counts.queue_high_water);
    layers.run_wall += obs.wall;
    for (slot, &b) in layers.class_bytes.iter_mut().zip(&counts.class_bytes) {
        *slot += b;
    }
    for node in w.peers() {
        layers.core.add(&node.counts);
        layers.core_self += node.self_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_sim::{sansio_world, Duration, Effects, Membership, NodeEvent, SimConfig};

    /// Delivers two answers from one timer event, as an in-order flush of
    /// buffered epochs does.
    #[derive(Debug)]
    struct Flush;

    impl SansIo for Flush {
        type Msg = ();
        type Timer = ();
        type Output = u32;

        fn on_event(
            &mut self,
            ev: NodeEvent<(), ()>,
            _now: SimTime,
            _env: &dyn Membership,
            fx: &mut Effects<Self>,
        ) {
            match ev {
                NodeEvent::Start => {
                    fx.set_timer(Duration::from_millis(1000), ());
                }
                _ => {
                    fx.deliver(1);
                    fx.deliver(2);
                }
            }
        }
    }

    #[test]
    fn drive_stamps_every_answer_of_one_event() {
        let mut w = sansio_world(SimConfig::default(), vec![Flush]);
        let ms = |m| SimTime::ZERO + Duration::from_millis(m);
        let obs = drive(&mut w, PeerId::new(0), &[ms(100), ms(200)]);
        assert_eq!(obs.answered.len(), 2);
        let sim: Vec<f64> = obs.latencies().iter().map(|&(_, s)| s).collect();
        assert_eq!(sim, [900.0, 800.0]);
    }
}
