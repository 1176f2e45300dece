//! TCP-loopback fabric: the same supervised node loop, real sockets in
//! between.
//!
//! Topology-wise this is a star: every peer holds one loopback connection
//! to a hub, and the hub forwards frames by destination. Framing is
//! `[from u32][to u32][len u32][payload]`, all big-endian; the payload is
//! whatever the protocol's [`WireCodec`] produced. The 12-byte routing
//! header is transport overhead, deliberately *not* metered into the
//! paper's byte counts (see [`RunOutcome::frames_sent`]).
//!
//! Chaos is injected at the hub — the one place every frame crosses — so
//! drops, duplication, delays, and partition windows hit real serialized
//! traffic. Connection resets and crash teardowns sever a peer's socket;
//! the supervisor's reconnect loop redials through the hub's persistent
//! accept loop, which rebinds the peer's hub-side route on every fresh
//! hello. Frames for a peer whose first hello the hub has not yet
//! processed are held and flushed when its route is installed, so a send
//! racing the destination's dial is never lost; a route severed later
//! drops frames like any broken link. A zero-length payload addressed to its own sender is the
//! health-check ping: the hub routes it back like any frame, and the
//! peer's reader answers the supervisor with a pong — a real round-trip
//! over both socket directions.
//!
//! Malformed inbound bytes never panic the runtime: a frame that
//! overruns the length cap, truncates mid-header, or fails the protocol
//! codec disconnects that peer with a metered warning (`malformed-frame`
//! at the hub, `undecodable-frame` at a peer reader), and the supervisor
//! treats it like any other link failure.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

use ifi_sim::{PeerId, SansIo};

use crate::chaos::{ChaosPlan, ChaosState, Verdict};
use crate::runtime::{
    Courier, Ctl, CtlHook, Delivery, Fabric, Input, Mailboxes, PeerFlags, RunOutcome, SendStatus,
    Shared, Supervised,
};
use crate::wire::WireCodec;

/// Frames larger than this are treated as stream corruption.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one `[from][to][len][payload]` frame.
pub(crate) fn write_frame(
    w: &mut impl Write,
    from: PeerId,
    to: PeerId,
    payload: &[u8],
) -> io::Result<()> {
    let mut header = [0u8; 12];
    header[..4].copy_from_slice(&(from.index() as u32).to_be_bytes());
    header[4..8].copy_from_slice(&(to.index() as u32).to_be_bytes());
    header[8..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary. EOF
/// *inside* a header or payload is not clean — it is reported as an
/// error, so callers meter it as a malformed frame instead of a normal
/// disconnect.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<(PeerId, PeerId, Vec<u8>)>> {
    let mut header = [0u8; 12];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {got} bytes into a frame header"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let from = u32::from_be_bytes(header[..4].try_into().unwrap());
    let to = u32::from_be_bytes(header[4..8].try_into().unwrap());
    let len = u32::from_be_bytes(header[8..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((
        PeerId::new(from as usize),
        PeerId::new(to as usize),
        payload,
    )))
}

/// The hub's route to one destination peer.
enum Route {
    /// No hello yet: frames `(from, payload)` wait here, in arrival order,
    /// and flush when the route is installed.
    Held(Vec<(PeerId, Vec<u8>)>),
    /// Installed by the peer's latest hello.
    Up(TcpStream),
    /// Severed after it was up: frames drop until the peer redials.
    Down,
}

/// Every destination's route, by peer.
type Routes = Arc<Vec<Mutex<Route>>>;

/// The hub: a persistent accept loop plus one forwarder thread per
/// inbound connection. Chaos verdicts are applied here, to serialized
/// frames in flight.
struct Hub {
    addr: SocketAddr,
    accepting: Arc<AtomicBool>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
    forwarders: Arc<Mutex<Vec<JoinHandle<()>>>>,
    dests: Routes,
    courier: Arc<Courier>,
}

impl Hub {
    fn start(n: usize, chaos: Arc<ChaosState>, shared: Arc<Shared>) -> io::Result<Hub> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let accepting = Arc::new(AtomicBool::new(true));
        let dests: Routes = Arc::new(
            (0..n)
                .map(|_| Mutex::new(Route::Held(Vec::new())))
                .collect(),
        );
        let forwarders: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let courier = Arc::new(Courier::new());

        let accept = {
            let accepting = Arc::clone(&accepting);
            let dests = Arc::clone(&dests);
            let forwarders = Arc::clone(&forwarders);
            let courier = Arc::clone(&courier);
            thread::Builder::new()
                .name("hub-accept".into())
                .spawn(move || {
                    while accepting.load(Ordering::Relaxed) {
                        let (mut s, _) = match listener.accept() {
                            Ok(conn) => conn,
                            Err(_) => break,
                        };
                        if !accepting.load(Ordering::Relaxed) {
                            break;
                        }
                        // Bounded hello so a silent dialer (e.g. the
                        // teardown nudge) cannot wedge the accept loop.
                        let _ = s.set_read_timeout(Some(StdDuration::from_secs(1)));
                        let mut hello = [0u8; 4];
                        if s.read_exact(&mut hello).is_err() {
                            continue;
                        }
                        let id = u32::from_be_bytes(hello) as usize;
                        if id >= n {
                            shared
                                .sink
                                .lock()
                                .expect("metrics sink poisoned")
                                .warn("malformed-frame");
                            continue;
                        }
                        let _ = s.set_read_timeout(None);
                        let _ = s.set_nodelay(true);
                        let writer = match s.try_clone() {
                            Ok(w) => w,
                            Err(_) => continue,
                        };
                        Hub::install(&dests[id], id, writer);
                        let handle = Hub::spawn_forwarder(
                            s,
                            n,
                            Arc::clone(&dests),
                            Arc::clone(&chaos),
                            Arc::clone(&shared),
                            Arc::clone(&courier),
                        );
                        forwarders
                            .lock()
                            .expect("forwarder list poisoned")
                            .push(handle);
                    }
                })
                .expect("spawning hub accept thread failed")
        };
        Ok(Hub {
            addr,
            accepting,
            accept_handle: Mutex::new(Some(accept)),
            forwarders,
            dests,
            courier,
        })
    }

    /// Installs peer `id`'s route on its hello, first flushing any frames
    /// held for it, under the same lock so none can overtake them.
    fn install(slot: &Mutex<Route>, id: usize, mut writer: TcpStream) {
        let mut slot = slot.lock().expect("hub dest poisoned");
        if let Route::Held(held) = std::mem::replace(&mut *slot, Route::Down) {
            for (from, payload) in held {
                if write_frame(&mut writer, from, PeerId::new(id), &payload).is_err() {
                    return;
                }
            }
        }
        *slot = Route::Up(writer);
    }

    /// Writes `payload` to `to`'s hub-side route, or holds it while `to`
    /// has never dialed. A write failure drops the frame and marks the
    /// route down (the destination may redial later).
    fn forward(dests: &[Mutex<Route>], from: PeerId, to: PeerId, payload: &[u8]) {
        let mut slot = dests[to.index()].lock().expect("hub dest poisoned");
        match &mut *slot {
            Route::Held(held) => held.push((from, payload.to_vec())),
            Route::Up(s) => {
                if write_frame(s, from, to, payload).is_err() {
                    *slot = Route::Down;
                }
            }
            Route::Down => {}
        }
    }

    fn spawn_forwarder(
        mut reader: TcpStream,
        n: usize,
        dests: Routes,
        chaos: Arc<ChaosState>,
        shared: Arc<Shared>,
        courier: Arc<Courier>,
    ) -> JoinHandle<()> {
        thread::Builder::new()
            .name("hub-forward".into())
            .spawn(move || loop {
                match read_frame(&mut reader) {
                    Ok(Some((from, to, payload))) => {
                        if to.index() >= n || from.index() >= n {
                            // Garbage routing header: stream corruption —
                            // disconnect this peer.
                            shared
                                .sink
                                .lock()
                                .expect("metrics sink poisoned")
                                .warn("malformed-frame");
                            let _ = reader.shutdown(Shutdown::Both);
                            break;
                        }
                        match chaos.judge(shared.epoch.elapsed(), from, to) {
                            Verdict::Drop => {}
                            Verdict::Deliver => Hub::forward(&dests, from, to, &payload),
                            Verdict::Duplicate => {
                                Hub::forward(&dests, from, to, &payload);
                                Hub::forward(&dests, from, to, &payload);
                            }
                            Verdict::Delay(d) => {
                                let dests = Arc::clone(&dests);
                                courier.schedule(
                                    Instant::now() + d,
                                    Box::new(move || Hub::forward(&dests, from, to, &payload)),
                                );
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Truncated header/payload or oversized length:
                        // metered warning, then disconnect this peer.
                        shared
                            .sink
                            .lock()
                            .expect("metrics sink poisoned")
                            .warn("malformed-frame");
                        let _ = reader.shutdown(Shutdown::Both);
                        break;
                    }
                }
            })
            .expect("spawning hub forwarder failed")
    }

    fn shutdown(&self) {
        self.accepting.store(false, Ordering::Relaxed);
        // Unblock the accept loop with a helloless dial.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.lock().expect("hub poisoned").take() {
            let _ = h.join();
        }
        for d in self.dests.iter() {
            let mut slot = d.lock().expect("hub dest poisoned");
            if let Route::Up(s) = std::mem::replace(&mut *slot, Route::Down) {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let handles: Vec<_> = self
            .forwarders
            .lock()
            .expect("forwarder list poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        self.courier.shutdown();
    }
}

/// Shared innards of the TCP fabric, reachable from reader threads.
struct TcpInner<M, C> {
    addr: SocketAddr,
    codec: Arc<C>,
    /// Peer-side write halves, by peer; `None` = link severed.
    streams: Vec<Mutex<Option<TcpStream>>>,
    mailboxes: Arc<Mailboxes<M>>,
    shared: Arc<Shared>,
    pong: CtlHook,
    linkdown: CtlHook,
    tearing: AtomicBool,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl<M, C> TcpInner<M, C>
where
    M: Send + 'static,
    C: WireCodec<M>,
{
    /// Dials the hub as `peer`: connect, hello, install the write half,
    /// spawn the reader feeding the peer's mailbox.
    fn dial(self: &Arc<Self>, peer: PeerId) -> io::Result<()> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.write_all(&(peer.index() as u32).to_be_bytes())?;
        let reader = s.try_clone()?;
        *self.streams[peer.index()]
            .lock()
            .expect("peer stream poisoned") = Some(s);
        let inner = Arc::clone(self);
        let handle = thread::Builder::new()
            .name(format!("peer-read-{}", peer.index()))
            .spawn(move || inner.read_loop(peer, reader))
            .expect("spawning peer reader failed");
        self.readers
            .lock()
            .expect("reader list poisoned")
            .push(handle);
        Ok(())
    }

    /// The peer-side reader: decodes inbound frames into the mailbox,
    /// answers health pings, and reports link loss to the supervisor.
    fn read_loop(self: Arc<Self>, me: PeerId, mut reader: TcpStream) {
        // EOF (`Ok(None)`) and read errors both end the loop; the hub
        // side meters malformed frames, the peer side only disconnects.
        while let Ok(Some((from, _, payload))) = read_frame(&mut reader) {
            // Zero-length self-addressed frame: the health ping made it
            // back from the hub — the round-trip holds.
            if from == me && payload.is_empty() {
                (self.pong)(me);
                continue;
            }
            match self.codec.decode(&payload) {
                Ok(msg) => {
                    if self.mailboxes.deliver(me, Input::Msg { from, msg }) == Delivery::Shed {
                        self.shared
                            .sink
                            .lock()
                            .expect("metrics sink poisoned")
                            .warn("mailbox-shed");
                    }
                }
                Err(_) => {
                    // A payload the protocol codec rejects is stream
                    // garbage: metered warning, then disconnect (never
                    // panic).
                    self.shared
                        .sink
                        .lock()
                        .expect("metrics sink poisoned")
                        .warn("undecodable-frame");
                    let _ = reader.shutdown(Shutdown::Both);
                    break;
                }
            }
        }
        // Sever the write half too, so sends observe the loss.
        if let Some(s) = self.streams[me.index()]
            .lock()
            .expect("peer stream poisoned")
            .take()
        {
            let _ = s.shutdown(Shutdown::Both);
        }
        if !self.tearing.load(Ordering::Relaxed) {
            (self.linkdown)(me);
        }
    }
}

/// The TCP fabric: peer-side sockets plus the hub.
struct TcpFabric<M, C> {
    inner: Arc<TcpInner<M, C>>,
    hub: Hub,
}

impl<M, C> Fabric<M> for TcpFabric<M, C>
where
    M: Send + 'static,
    C: WireCodec<M>,
{
    fn send(&self, from: PeerId, to: PeerId, msg: &M) -> SendStatus {
        let payload = self
            .inner
            .codec
            .encode(msg)
            .expect("wire codec rejected message");
        let mut slot = self.inner.streams[from.index()]
            .lock()
            .expect("peer stream poisoned");
        match slot.as_mut() {
            None => SendStatus::LinkDown,
            Some(s) => {
                if write_frame(s, from, to, &payload).is_err() {
                    *slot = None;
                    SendStatus::LinkDown
                } else {
                    SendStatus::Sent
                }
            }
        }
    }

    fn sever(&self, peer: PeerId) {
        if let Some(s) = self.inner.streams[peer.index()]
            .lock()
            .expect("peer stream poisoned")
            .take()
        {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    fn redial(&self, peer: PeerId) -> bool {
        if self.inner.tearing.load(Ordering::Relaxed) {
            return false;
        }
        if self.inner.streams[peer.index()]
            .lock()
            .expect("peer stream poisoned")
            .is_some()
        {
            return true;
        }
        self.inner.dial(peer).is_ok()
    }

    fn ping(&self, peer: PeerId) {
        let mut slot = self.inner.streams[peer.index()]
            .lock()
            .expect("peer stream poisoned");
        if let Some(s) = slot.as_mut() {
            if write_frame(s, peer, peer, &[]).is_err() {
                *slot = None;
            }
        }
    }

    fn teardown(&self) {
        self.inner.tearing.store(true, Ordering::Relaxed);
        for i in 0..self.inner.streams.len() {
            self.sever(PeerId::new(i));
        }
        self.hub.shutdown();
        let handles: Vec<_> = self
            .inner
            .readers
            .lock()
            .expect("reader list poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Runs `nodes` over a TCP loopback hub until `want_outputs` results
/// arrive (or `max_wait` elapses), then shuts down and returns the
/// outcome. `codec` carries `P::Msg` across the sockets. Equivalent to
/// [`run_tcp_chaos`] with an inert plan.
///
/// # Errors
///
/// Fails if the loopback listener or any peer connection cannot be set
/// up.
///
/// # Panics
///
/// Panics if a peer thread panics.
pub fn run_tcp<P, C>(
    nodes: Vec<P>,
    codec: C,
    want_outputs: usize,
    max_wait: StdDuration,
) -> io::Result<RunOutcome<P>>
where
    P: SansIo + Send + 'static,
    P::Msg: Send + 'static,
    P::Timer: Send,
    P::Output: Send,
    C: WireCodec<P::Msg>,
{
    run_tcp_chaos(nodes, codec, want_outputs, max_wait, ChaosPlan::none())
}

/// Runs `nodes` over the TCP loopback hub under `plan`: serialized frames
/// meet seeded drops/duplication/delays and partition windows at the hub,
/// scheduled peers crash and restart under supervision, and severed
/// sockets redial through the hub's persistent accept loop with capped
/// exponential backoff and ping/pong health checks.
///
/// # Errors
///
/// Fails if the loopback listener or any peer connection cannot be set
/// up.
///
/// # Panics
///
/// Panics if a peer thread panics.
pub fn run_tcp_chaos<P, C>(
    nodes: Vec<P>,
    codec: C,
    want_outputs: usize,
    max_wait: StdDuration,
    plan: ChaosPlan,
) -> io::Result<RunOutcome<P>>
where
    P: SansIo + Send + 'static,
    P::Msg: Send + 'static,
    P::Timer: Send,
    P::Output: Send,
    C: WireCodec<P::Msg>,
{
    let n = nodes.len();
    let shared = Arc::new(Shared::new(n));
    let chaos = Arc::new(ChaosState::new(plan));
    let mailboxes = Arc::new(Mailboxes::new(n));
    let (ctl_tx, ctl_rx) = mpsc::channel::<Ctl<P>>();
    let pong_tx = ctl_tx.clone();
    let pong: CtlHook = Arc::new(move |p| {
        let _ = pong_tx.send(Ctl::Pong(p));
    });
    let down_tx = ctl_tx.clone();
    let linkdown: CtlHook = Arc::new(move |p| {
        let _ = down_tx.send(Ctl::LinkDown(p));
    });

    let hub = Hub::start(n, Arc::clone(&chaos), Arc::clone(&shared))?;
    let inner = Arc::new(TcpInner {
        addr: hub.addr,
        codec: Arc::new(codec),
        streams: (0..n).map(|_| Mutex::new(None)).collect(),
        mailboxes: Arc::clone(&mailboxes),
        shared: Arc::clone(&shared),
        pong,
        linkdown,
        tearing: AtomicBool::new(false),
        readers: Mutex::new(Vec::new()),
    });
    for i in 0..n {
        inner.dial(PeerId::new(i))?;
    }
    let fabric = Arc::new(TcpFabric { inner, hub });
    let flags: Vec<Arc<PeerFlags>> = (0..n).map(|_| Arc::new(PeerFlags::default())).collect();
    Ok(Supervised {
        fabric,
        mailboxes,
        shared,
        chaos,
        flags,
        ctl_tx,
        ctl_rx,
    }
    .supervise(nodes, want_outputs, max_wait))
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;
    use std::thread;

    use super::*;

    #[test]
    fn frames_roundtrip_including_empty_payloads() {
        let mut buf = Vec::new();
        write_frame(&mut buf, PeerId::new(3), PeerId::new(7), b"hello").unwrap();
        write_frame(&mut buf, PeerId::new(1), PeerId::new(1), b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((PeerId::new(3), PeerId::new(7), b"hello".to_vec()))
        );
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((PeerId::new(1), PeerId::new(1), Vec::new()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");
    }

    #[test]
    fn truncated_header_is_an_error_not_a_clean_eof() {
        // 5 of the 12 header bytes, then EOF.
        let mut r = Cursor::new(vec![0u8; 5]);
        let err = read_frame(&mut r).expect_err("mid-header EOF must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, PeerId::new(0), PeerId::new(1), b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = Cursor::new(buf);
        assert!(read_frame(&mut r).is_err(), "mid-payload EOF must error");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r).expect_err("oversized frame must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Polls the shared sink until `label` has been warned, or panics
    /// after ~2s — malformed input is handled asynchronously by hub
    /// threads.
    fn await_warning(shared: &Shared, label: &str) {
        for _ in 0..200 {
            let warned = shared
                .sink
                .lock()
                .expect("sink poisoned")
                .warnings()
                .iter()
                .any(|(l, _)| l == label);
            if warned {
                return;
            }
            thread::sleep(StdDuration::from_millis(10));
        }
        panic!(
            "no `{label}` warning within deadline: {:?}",
            shared.sink.lock().unwrap().warnings()
        );
    }

    fn test_hub(n: usize) -> (Hub, Arc<Shared>) {
        let shared = Arc::new(Shared::new(n));
        let chaos = Arc::new(ChaosState::new(ChaosPlan::none()));
        let hub = Hub::start(n, chaos, Arc::clone(&shared)).expect("hub start");
        (hub, shared)
    }

    #[test]
    fn hub_warns_and_drops_a_connection_with_an_out_of_range_hello() {
        let (hub, shared) = test_hub(2);
        let mut s = TcpStream::connect(hub.addr).unwrap();
        s.write_all(&99u32.to_be_bytes()).unwrap();
        await_warning(&shared, "malformed-frame");
        hub.shutdown();
    }

    #[test]
    fn hub_warns_and_disconnects_on_an_oversized_frame() {
        let (hub, shared) = test_hub(2);
        let mut s = TcpStream::connect(hub.addr).unwrap();
        s.write_all(&0u32.to_be_bytes()).unwrap();
        // Valid routing header with a length beyond the cap.
        s.write_all(&0u32.to_be_bytes()).unwrap();
        s.write_all(&1u32.to_be_bytes()).unwrap();
        s.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        await_warning(&shared, "malformed-frame");
        // The forwarder disconnected us: reads see EOF.
        let mut probe = [0u8; 1];
        assert_eq!(s.read(&mut probe).unwrap_or(0), 0);
        hub.shutdown();
    }

    #[test]
    fn hub_warns_on_a_truncated_frame() {
        let (hub, shared) = test_hub(2);
        let mut s = TcpStream::connect(hub.addr).unwrap();
        s.write_all(&0u32.to_be_bytes()).unwrap();
        // Half a routing header, then a hard close.
        s.write_all(&[0u8; 5]).unwrap();
        drop(s);
        await_warning(&shared, "malformed-frame");
        hub.shutdown();
    }

    #[test]
    fn hub_warns_on_a_garbage_destination() {
        let (hub, shared) = test_hub(2);
        let mut s = TcpStream::connect(hub.addr).unwrap();
        s.write_all(&0u32.to_be_bytes()).unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, PeerId::new(0), PeerId::new(513), b"x").unwrap();
        s.write_all(&frame).unwrap();
        await_warning(&shared, "malformed-frame");
        hub.shutdown();
    }

    #[test]
    fn hub_holds_frames_for_a_peer_that_has_not_dialed_yet() {
        let (hub, _shared) = test_hub(2);
        let mut a = TcpStream::connect(hub.addr).unwrap();
        a.write_all(&0u32.to_be_bytes()).unwrap();
        write_frame(&mut a, PeerId::new(0), PeerId::new(1), b"early").unwrap();
        // A's health ping comes back only after the hub forwarded the
        // frame before it, so B dials strictly after the send.
        write_frame(&mut a, PeerId::new(0), PeerId::new(0), b"").unwrap();
        let ping = read_frame(&mut a).unwrap();
        assert_eq!(ping, Some((PeerId::new(0), PeerId::new(0), Vec::new())));

        let mut b = TcpStream::connect(hub.addr).unwrap();
        b.write_all(&1u32.to_be_bytes()).unwrap();
        b.set_read_timeout(Some(StdDuration::from_secs(2))).unwrap();
        let got = read_frame(&mut b).expect("held frame must be flushed to B");
        assert_eq!(
            got,
            Some((PeerId::new(0), PeerId::new(1), b"early".to_vec()))
        );
        hub.shutdown();
    }

    #[test]
    fn hub_shutdown_joins_every_thread_without_traffic() {
        let (hub, _shared) = test_hub(3);
        hub.shutdown();
    }
}
