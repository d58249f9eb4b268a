//! The [`Transport`] abstraction: one trait, two worlds.
//!
//! The coordinator and terminal state machines in this crate are generic
//! over `Transport`, so the *identical* code drives
//!
//! * [`UdpTransport`] — real sockets: broadcast is a unicast fan-out to
//!   the peer roster (loopback and most WANs have no usable broadcast),
//!   and the only losses are the network's own plus the configured
//!   receiver-side erasure injection ([`crate::session`]);
//! * [`SimTransport`] — an adapter over [`thinair_netsim::Medium`]: one
//!   `broadcast` is one `Medium::transmit` (one airtime charge, one
//!   erasure pattern), so the async protocol runs against the same
//!   physically plausible packet loss the synchronous reproduction uses,
//!   with exact transmitted-bit accounting.
//!
//! Frames that fail to decode are dropped at this layer (counted, not
//! propagated): a malformed datagram must never wedge a session.
//!
//! # Batched sends
//!
//! [`Transport::broadcast_batch`] hands a transport several frames for
//! every peer at once: a node's x-packets, and the coordinator's first
//! fountain burst. Its default is one `broadcast` per frame, which the
//! simulator, the chaos layer and the explorer keep. [`UdpTransport`]
//! sends every datagram through one routine over
//! [`crate::sys::send_batch`] (`sendmmsg(2)`): a `send_to` is one
//! datagram, a `broadcast` n − 1 and a batch of k frames k·(n − 1),
//! grouped by peer with the frames in order. The wire does not change
//! (the same datagrams, the same bytes, the same order at each peer),
//! but each peer's socket receives its burst back to back and its
//! receive loop drains it in one wakeup. `net.tx.calls` counts the
//! system calls, `net.tx.frames` the datagrams they carried.
//!
//! # Wakeups
//!
//! Both transports integrate with the waker-based executor in
//! [`crate::rt`]: a simulated delivery wakes exactly the receiving
//! node's receive loop, and a datagram wakes it through the runtime's
//! epoll reactor — or, off Linux and under the virtual clock, through a
//! re-poll timer that backs off while the socket is quiet
//! (`net.udp.repoll_arms`). Idle nodes therefore cost (nearly) zero CPU.
//!
//! # Send errors
//!
//! A UDP send can fail (full socket buffer, transient network error).
//! The session hot path must neither crash on those — the
//! retransmission layer absorbs them like any other loss — nor let them
//! vanish: [`UdpTransport`] counts every datagram the kernel refuses,
//! batched or not, once into a [`TxStats`] send-error ledger, surfaced
//! through [`Transport::send_errors`] and, per session, in
//! [`crate::session::SessionTrace`].

use std::cell::RefCell;
use std::future::Future;
use std::io;
use std::net::SocketAddr;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use thinair_netsim::{FaultPlan, Medium, StepQueue, TxStats};

use crate::chaos::{ChaosState, FaultStats};
use crate::frame::{Frame, MAX_PAYLOAD};
use crate::rt;
use crate::udp::AsyncUdpSocket;

/// Most frames a single [`SharedTransport::recv_batch`] returns — bounds
/// the latency one pump pass can add for other tasks.
pub const DEFAULT_RECV_BATCH: usize = 256;

/// A frame-level packet interface for one node.
pub trait Transport {
    /// This node's dense id.
    fn local_node(&self) -> u8;

    /// Number of nodes in the roster.
    fn node_count(&self) -> usize;

    /// Sends a frame to one peer.
    fn send_to(&mut self, to: u8, frame: &Frame) -> io::Result<()>;

    /// Sends a frame to every peer (default: unicast fan-out).
    fn broadcast(&mut self, frame: &Frame) -> io::Result<()> {
        // Iterate in usize: `node_count() as u8` would wrap to 0 on a
        // full 256-node roster and silently broadcast to nobody.
        let me = self.local_node() as usize;
        for peer in 0..self.node_count() {
            if peer != me {
                self.send_to(peer as u8, frame)?;
            }
        }
        Ok(())
    }

    /// Sends `frames` to every peer, each peer receiving them in order:
    /// the same datagrams as one [`Transport::broadcast`] per frame (the
    /// default), which a socket transport hands the kernel at once.
    fn broadcast_batch(&mut self, frames: &[Frame]) -> io::Result<()> {
        frames.iter().try_for_each(|frame| self.broadcast(frame))
    }

    /// Polls for the next valid frame addressed to this node. On
    /// `Pending` the implementation must arrange a wakeup (waker
    /// registration or a re-poll timer).
    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<Frame>>;

    /// Drains every frame currently deliverable into `out` (up to
    /// `max`), so a busy pump pays one poll per *batch* instead of one
    /// per frame. Returns the number appended; `Pending` only when
    /// nothing was ready.
    fn poll_recv_batch(
        &mut self,
        cx: &mut Context<'_>,
        out: &mut Vec<Frame>,
        max: usize,
    ) -> Poll<io::Result<usize>> {
        let mut n = 0;
        while n < max {
            match self.poll_recv(cx) {
                Poll::Ready(Ok(frame)) => {
                    out.push(frame);
                    n += 1;
                }
                Poll::Ready(Err(e)) => {
                    return if n > 0 { Poll::Ready(Ok(n)) } else { Poll::Ready(Err(e)) };
                }
                Poll::Pending => break,
            }
        }
        if n > 0 {
            Poll::Ready(Ok(n))
        } else {
            Poll::Pending
        }
    }

    /// Datagrams dropped because they failed frame validation.
    fn invalid_frames(&self) -> u64;

    /// Sends that failed or were dropped at the socket (0 where sends
    /// cannot fail, e.g. the simulator).
    fn send_errors(&self) -> u64 {
        0
    }
}

/// Shared handle so the receive loop and every session's state machine
/// can use one transport (single-threaded runtime ⇒ `Rc<RefCell>`).
pub struct SharedTransport<T> {
    inner: Rc<RefCell<T>>,
}

impl<T> Clone for SharedTransport<T> {
    fn clone(&self) -> Self {
        SharedTransport { inner: self.inner.clone() }
    }
}

impl<T: Transport> SharedTransport<T> {
    /// Wraps a transport.
    pub fn new(t: T) -> Self {
        SharedTransport { inner: Rc::new(RefCell::new(t)) }
    }

    /// This node's dense id.
    pub fn local_node(&self) -> u8 {
        self.inner.borrow().local_node()
    }

    /// Number of nodes in the roster.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().node_count()
    }

    /// Sends a frame to one peer.
    pub fn send_to(&self, to: u8, frame: &Frame) -> io::Result<()> {
        self.inner.borrow_mut().send_to(to, frame)
    }

    /// Sends `frames` to every peer, in order.
    pub fn broadcast_batch(&self, frames: &[Frame]) -> io::Result<()> {
        self.inner.borrow_mut().broadcast_batch(frames)
    }

    /// Datagrams dropped by frame validation.
    pub fn invalid_frames(&self) -> u64 {
        self.inner.borrow().invalid_frames()
    }

    /// Sends that failed or were dropped at the socket so far.
    pub fn send_errors(&self) -> u64 {
        self.inner.borrow().send_errors()
    }

    /// Borrows the inner transport (e.g. to read sim-side statistics).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.inner.borrow())
    }

    /// Every frame deliverable right now (at most `max`); completes with
    /// at least one frame. The batched shape the serve pump uses: one
    /// wakeup drains the whole socket backlog.
    pub fn recv_batch(&self, max: usize) -> RecvBatch<T> {
        RecvBatch { t: self.inner.clone(), max }
    }
}

/// Future returned by [`SharedTransport::recv_batch`]; `Unpin`.
pub struct RecvBatch<T> {
    t: Rc<RefCell<T>>,
    max: usize,
}

impl<T: Transport> Future for RecvBatch<T> {
    type Output = io::Result<Vec<Frame>>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let max = self.max;
        let mut out = Vec::new();
        match self.t.borrow_mut().poll_recv_batch(cx, &mut out, max) {
            Poll::Ready(Ok(_)) => {
                // The one choke point every batched drain passes
                // through: the drain-size distribution says whether the
                // pump amortizes (deep batches) or thrashes (size-1).
                crate::telemetry::observe("net.rx.batch", out.len() as u64);
                Poll::Ready(Ok(out))
            }
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending => Poll::Pending,
        }
    }
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

/// Ceiling of the UDP re-poll back-off: a quiet socket is still checked
/// this often, so first-frame latency after an idle spell is bounded.
const UDP_POLL_MAX: Duration = Duration::from_millis(1);

/// Real-socket transport: one UDP socket, a static peer roster indexed
/// by node id.
///
/// Keeps a [`TxStats`] ledger mirroring the simulator's accounting:
/// transmitted bits by class (data / control / ack, keyed off the frame
/// payload) plus the send-error counters — every datagram the socket
/// refused is charged to the *destination* node, so a flaky peer link
/// shows up in the ledger instead of vanishing.
pub struct UdpTransport {
    socket: AsyncUdpSocket,
    peers: Vec<SocketAddr>,
    node: u8,
    invalid: u64,
    recv_buf: Box<[u8]>,
    stats: TxStats,
    /// Adaptive re-poll interval (socket readiness bridge): reset to
    /// [`rt::TICK`] whenever a datagram arrives, doubled up to
    /// [`UDP_POLL_MAX`] while the socket stays quiet.
    poll_interval: Duration,
    /// Deadline of the currently armed re-poll timer, if any. At most
    /// one timer chain stays armed per transport: arming a fresh one on
    /// *every* `Pending` would let each spurious wake (e.g. a superseded
    /// re-poll timer) spawn another self-sustaining chain, compounding
    /// the poll rate over a daemon's lifetime.
    next_poll_due: Option<Instant>,
}

impl UdpTransport {
    /// Creates a transport for node `node`; `peers[i]` is node `i`'s
    /// address (the entry for `node` itself is unused but keeps the
    /// roster dense).
    ///
    /// # Panics
    /// Panics when `node` is outside the roster or the roster exceeds
    /// 256 nodes (node ids ride the wire as `u8`; a larger roster must
    /// fail at construction, not wrap at runtime).
    pub fn new(socket: AsyncUdpSocket, peers: Vec<SocketAddr>, node: u8) -> Self {
        assert!(
            peers.len() <= u8::MAX as usize + 1,
            "roster of {} nodes exceeds the u8 node-id space",
            peers.len()
        );
        assert!((node as usize) < peers.len(), "node id outside roster");
        let stats = TxStats::new(peers.len());
        UdpTransport {
            socket,
            peers,
            node,
            invalid: 0,
            recv_buf: vec![0u8; MAX_PAYLOAD + 1024].into_boxed_slice(),
            stats,
            poll_interval: rt::TICK,
            next_poll_due: None,
        }
    }

    /// Binds a socket and builds the transport in one step.
    pub fn bind(bind: SocketAddr, peers: Vec<SocketAddr>, node: u8) -> io::Result<Self> {
        Ok(Self::new(AsyncUdpSocket::bind(bind)?, peers, node))
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The transmitted-bit / send-error ledger (destination-indexed for
    /// errors, sender-charged for bits — this node is the only sender).
    pub fn stats(&self) -> &TxStats {
        &self.stats
    }

    /// The one send routine: every frame of `frames` to every node of
    /// `to`, grouped by node with the frames in order, in one
    /// [`AsyncUdpSocket::send_batch`]. A datagram the socket refuses is
    /// charged to its destination in the ledger, not propagated: the
    /// reliable layer treats it as loss. Only a roster violation is a
    /// hard error.
    fn send(&mut self, frames: &[Frame], to: &[usize]) -> io::Result<()> {
        let encoded: Vec<_> = frames.iter().map(Frame::encode).collect();
        let mut datagrams: Vec<(&[u8], SocketAddr)> = Vec::with_capacity(to.len() * frames.len());
        for &peer in to {
            let addr = *self.peers.get(peer).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "peer outside roster")
            })?;
            datagrams.extend(encoded.iter().map(|bytes| (&bytes[..], addr)));
        }
        if datagrams.is_empty() {
            return Ok(());
        }
        let sent = self.socket.send_batch(&datagrams);
        let mut refused = sent.refused.iter().copied().peekable();
        let dests = to.iter().flat_map(|&peer| frames.iter().map(move |frame| (peer, frame)));
        for (i, ((peer, frame), (bytes, _))) in dests.zip(&datagrams).enumerate() {
            if refused.next_if_eq(&i).is_some() {
                self.stats.record_send_error(peer);
            } else {
                self.stats.record(self.node as usize, frame.tx_class(), (bytes.len() * 8) as u64);
            }
        }
        let errors = sent.refused.len() as u64;
        crate::telemetry::counter_add("net.tx.calls", sent.calls);
        if errors < datagrams.len() as u64 {
            crate::telemetry::counter_add("net.tx.frames", datagrams.len() as u64 - errors);
        }
        if errors > 0 {
            crate::telemetry::counter_add("net.tx.send_errors", errors);
        }
        Ok(())
    }
}

impl Transport for UdpTransport {
    fn local_node(&self) -> u8 {
        self.node
    }

    fn node_count(&self) -> usize {
        self.peers.len()
    }

    fn send_to(&mut self, to: u8, frame: &Frame) -> io::Result<()> {
        self.send(std::slice::from_ref(frame), &[to as usize])
    }

    fn broadcast(&mut self, frame: &Frame) -> io::Result<()> {
        self.broadcast_batch(std::slice::from_ref(frame))
    }

    fn broadcast_batch(&mut self, frames: &[Frame]) -> io::Result<()> {
        // Iterate in usize: `len() as u8` wraps to 0 on a full 256-node
        // roster.
        let me = self.node as usize;
        let peers: Vec<usize> = (0..self.peers.len()).filter(|&p| p != me).collect();
        self.send(frames, &peers)
    }

    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<Frame>> {
        loop {
            match self.socket.try_recv_from(&mut self.recv_buf) {
                Ok(Some((n, from))) => {
                    // Data: back to the hot poll interval, and let the
                    // next Pending arm a fresh (faster) timer even if a
                    // slower one is still in flight — the stale one
                    // fires once and is absorbed by the due-check below.
                    self.poll_interval = rt::TICK;
                    self.next_poll_due = None;
                    match Frame::decode(&self.recv_buf[..n]) {
                        // The claimed sender id must match the datagram's
                        // source address in the roster — otherwise any host
                        // that can reach the port could impersonate any
                        // node. (No cryptographic authentication yet; see
                        // `thinair_core::auth` for the bootstrap-secret
                        // layer a future PR can wire in.)
                        Ok(frame)
                            if (frame.sender as usize) < self.peers.len()
                                && self.peers[frame.sender as usize] == from =>
                        {
                            crate::telemetry::counter_add("net.rx.frames", 1);
                            return Poll::Ready(Ok(frame));
                        }
                        _ => {
                            // Malformed, impossible sender, or spoofed
                            // source: drop and keep draining the socket.
                            self.invalid += 1;
                            crate::telemetry::counter_add("net.rx.invalid", 1);
                        }
                    }
                }
                Ok(None) => {
                    // Preferred path: hand the socket fd to the epoll
                    // reactor — the next datagram's arrival wakes us
                    // directly, no timer, no poll latency.
                    if rt::register_fd_readable(self.socket.raw_fd(), cx.waker()) {
                        return Poll::Pending;
                    }
                    // No reactor (non-Linux, virtual clock):
                    // bridge socket readiness with a re-poll timer,
                    // backing off while the socket stays quiet. Arm only
                    // when no armed timer is still pending, so spurious
                    // wakes cannot multiply timer chains.
                    let now = Instant::now();
                    if self.next_poll_due.is_none_or(|t| t <= now) {
                        let at = now + self.poll_interval;
                        self.next_poll_due = Some(at);
                        rt::register_timer(at, cx.waker());
                        self.poll_interval = (self.poll_interval * 2).min(UDP_POLL_MAX);
                        crate::telemetry::counter_add("net.udp.repoll_arms", 1);
                    }
                    return Poll::Pending;
                }
                Err(e) => return Poll::Ready(Err(e)),
            }
        }
    }

    fn invalid_frames(&self) -> u64 {
        self.invalid
    }

    fn send_errors(&self) -> u64 {
        self.stats.send_errors_total()
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        // Drop reactor interest in the fd before the socket closes (a
        // no-op outside a runtime or when never registered).
        rt::deregister_fd(self.socket.raw_fd());
    }
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

struct SimHub<M: Medium> {
    medium: M,
    queues: Vec<std::collections::VecDeque<Frame>>,
    /// Waker of each node's blocked receive, woken on delivery.
    wakers: Vec<Option<Waker>>,
    stats: TxStats,
    frames: u64,
    /// Chaos layer (adversarial fault injection); `None` = clean net.
    chaos: Option<ChaosState>,
    /// Stepped-delivery mode ([`SimNet::stepper`]): when `Some`, every
    /// delivery the medium grants is parked here instead of landing in
    /// a receiver queue, and the [`StepHandle`] decides which pending
    /// frame fires next (or is dropped). `None` = normal FIFO delivery.
    step: Option<StepQueue<PendingDelivery>>,
}

/// One in-flight frame delivery in a stepped net: the medium granted
/// it, the scheduler has not fired it yet.
#[derive(Clone, Debug)]
pub struct PendingDelivery {
    /// Emitting node.
    pub src: u8,
    /// Receiving node.
    pub dst: u8,
    /// The frame on the air.
    pub frame: Frame,
}

/// Wakes the receive pump parked on `wakers[rx]`, if any. A free
/// function over the waker column only, so callers can hold disjoint
/// borrows of the hub's other fields (the chaos state in particular).
fn wake_node(wakers: &mut [Option<Waker>], rx: usize) {
    if let Some(w) = wakers[rx].take() {
        w.wake();
    }
}

/// A shared simulated network that hands out per-node [`SimTransport`]s.
///
/// Medium nodes beyond the transport roster (e.g. an Eve antenna as the
/// last node) take part in every delivery decision but have no queue —
/// exactly like the synchronous reproduction treats them.
pub struct SimNet<M: Medium> {
    hub: Rc<RefCell<SimHub<M>>>,
    n_nodes: usize,
}

impl<M: Medium> SimNet<M> {
    /// Wraps a medium; `n_nodes` is the number of protocol nodes
    /// (`medium.node_count() >= n_nodes`).
    pub fn new(medium: M, n_nodes: usize) -> Self {
        Self::build(medium, n_nodes, None)
    }

    /// Wraps a medium with an adversarial chaos layer: every frame
    /// passes through `plan`'s deterministic fault schedule (see
    /// [`crate::chaos`]). `coordinator` is exempt from the lifecycle
    /// faults (crash / late join model *terminal* misbehavior).
    pub fn with_faults(
        medium: M,
        n_nodes: usize,
        plan: FaultPlan,
        fault_seed: u64,
        coordinator: u8,
    ) -> Self {
        let chaos = (!plan.is_none()).then(|| ChaosState::new(plan, fault_seed, coordinator));
        Self::build(medium, n_nodes, chaos)
    }

    fn build(medium: M, n_nodes: usize, chaos: Option<ChaosState>) -> Self {
        assert!(medium.node_count() >= n_nodes, "medium smaller than roster");
        // Node ids ride the wire as u8: a larger roster is a
        // construction-time error, never a silent wrap.
        assert!(
            n_nodes <= u8::MAX as usize + 1,
            "roster of {n_nodes} nodes exceeds the u8 node-id space"
        );
        let stats = TxStats::new(medium.node_count());
        SimNet {
            hub: Rc::new(RefCell::new(SimHub {
                medium,
                queues: (0..n_nodes).map(|_| Default::default()).collect(),
                wakers: (0..n_nodes).map(|_| None).collect(),
                stats,
                frames: 0,
                chaos,
                step: None,
            })),
            n_nodes,
        }
    }

    /// Switches the net into **stepped-delivery** mode and returns the
    /// scheduler handle. From this point on, frames the medium delivers
    /// are parked in a pending set instead of reaching their receiver;
    /// the handle enumerates them and picks — per frame — whether it is
    /// delivered next or dropped. This is the scheduler hook the
    /// exhaustive interleaving explorer drives; combined with
    /// [`crate::rt::block_on_virtual`] it makes every delivery order a
    /// reachable, replayable execution of the real state machines.
    ///
    /// Call before any traffic flows; mixing modes mid-run would let
    /// early frames bypass the scheduler.
    pub fn stepper(&self) -> StepHandle<M> {
        self.hub.borrow_mut().step = Some(StepQueue::new());
        StepHandle { hub: self.hub.clone() }
    }

    /// A transport endpoint for node `node`.
    pub fn transport(&self, node: u8) -> SimTransport<M> {
        assert!((node as usize) < self.n_nodes, "node id outside roster");
        SimTransport { hub: self.hub.clone(), node, n_nodes: self.n_nodes, invalid: 0 }
    }

    /// Total bits transmitted so far, by any node.
    pub fn bits_transmitted(&self) -> u64 {
        self.hub.borrow().stats.total()
    }

    /// Total frames put on the air so far (one `Medium::transmit` each;
    /// a unicast fan-out counts once per peer).
    pub fn frames_transmitted(&self) -> u64 {
        self.hub.borrow().frames
    }

    /// A snapshot of the per-node transmitted-bit ledger.
    pub fn stats(&self) -> TxStats {
        self.hub.borrow().stats.clone()
    }

    /// Counters of every fault the chaos layer injected (all zero on a
    /// clean net).
    pub fn fault_stats(&self) -> FaultStats {
        self.hub.borrow().chaos.as_ref().map(|c| c.stats.clone()).unwrap_or_default()
    }
}

/// Simulated transport endpoint for one node.
pub struct SimTransport<M: Medium> {
    hub: Rc<RefCell<SimHub<M>>>,
    node: u8,
    n_nodes: usize,
    invalid: u64,
}

impl<M: Medium> SimTransport<M> {
    fn transmit(&mut self, frame: &Frame, only: Option<u8>) {
        let mut guard = self.hub.borrow_mut();
        let hub = &mut *guard;
        // Lifecycle gate: a node that crashed (in this frame's session)
        // or has not late-joined yet puts nothing on the air.
        if let Some(chaos) = hub.chaos.as_mut() {
            chaos.tick();
            if !chaos.allow_send(frame) {
                Self::flush_due(hub);
                return;
            }
        }
        let bits = frame.bits();
        let delivery = hub.medium.transmit(self.node as usize, bits);
        hub.stats.record(self.node as usize, thinair_netsim::stats::TxClass::Data, bits);
        hub.frames += 1;
        crate::telemetry::counter_add("net.tx.frames", 1);
        for rx in 0..self.n_nodes {
            if rx == self.node as usize || !delivery.got(rx) {
                continue;
            }
            if let Some(target) = only {
                if rx != target as usize {
                    continue;
                }
            }
            let mut immediate: Vec<Frame> = Vec::new();
            match hub.chaos.as_mut() {
                None => immediate.push(frame.clone()),
                Some(chaos) => {
                    for (delay, copy) in chaos.deliver(frame, self.node, rx as u8) {
                        if delay == 0 {
                            immediate.push(copy);
                        } else {
                            chaos.hold(delay, rx as u8, copy);
                        }
                    }
                }
            }
            for copy in immediate {
                Self::deliver_or_park(hub, self.node, rx, copy);
            }
        }
        Self::flush_due(hub);
    }

    /// The delivery choke point: in stepped mode the frame is parked
    /// for the external scheduler; otherwise it lands in the receiver's
    /// queue and wakes its pump.
    fn deliver_or_park(hub: &mut SimHub<M>, src: u8, rx: usize, frame: Frame) {
        match hub.step.as_mut() {
            Some(step) => {
                step.push(PendingDelivery { src, dst: rx as u8, frame });
            }
            None => {
                hub.queues[rx].push_back(frame);
                wake_node(&mut hub.wakers, rx);
            }
        }
    }

    /// Releases every held-back (delayed/reordered) frame whose release
    /// point has passed.
    fn flush_due(hub: &mut SimHub<M>) {
        let due: Vec<(u8, Frame)> = match hub.chaos.as_mut() {
            Some(chaos) => chaos.due(),
            None => return,
        };
        for (rx, f) in due {
            let src = f.sender;
            Self::deliver_or_park(hub, src, rx as usize, f);
        }
    }
}

/// Scheduler handle for a stepped [`SimNet`] (see [`SimNet::stepper`]).
///
/// The explorer's view of the network: the set of frames the medium
/// has granted but nobody has received yet. Each pending delivery has a
/// stable **emission id**; at every quiescent point the explorer either
/// [`deliver`](StepHandle::deliver)s one (any order — this is where
/// interleavings branch), [`drop_frame`](StepHandle::drop_frame)s one
/// (a fault placement), or falls back to
/// [`deliver_oldest`](StepHandle::deliver_oldest), the deterministic
/// FIFO default that reproduces normal sim behaviour.
pub struct StepHandle<M: Medium> {
    hub: Rc<RefCell<SimHub<M>>>,
}

impl<M: Medium> Clone for StepHandle<M> {
    fn clone(&self) -> Self {
        StepHandle { hub: self.hub.clone() }
    }
}

impl<M: Medium> StepHandle<M> {
    fn with_step<R>(&self, f: impl FnOnce(&mut SimHub<M>) -> R) -> R {
        f(&mut self.hub.borrow_mut())
    }

    /// The pending deliveries, oldest first, with their emission ids.
    pub fn pending(&self) -> Vec<(u64, PendingDelivery)> {
        self.with_step(|hub| {
            hub.step
                .as_ref()
                .map(|s| s.iter().map(|(id, p)| (id, p.clone())).collect())
                .unwrap_or_default()
        })
    }

    /// Number of pending deliveries.
    pub fn len(&self) -> usize {
        self.with_step(|hub| hub.step.as_ref().map(|s| s.len()).unwrap_or(0))
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total deliveries ever parked (the next emission id to be minted)
    /// — a cheap component for execution fingerprints.
    pub fn emitted(&self) -> u64 {
        self.with_step(|hub| hub.step.as_ref().map(|s| s.pushed()).unwrap_or(0))
    }

    /// Fires pending delivery `id`: the frame lands in its receiver's
    /// queue and the receiver's pump is woken. `false` if the id is
    /// unknown (already fired or dropped).
    pub fn deliver(&self, id: u64) -> bool {
        self.with_step(|hub| {
            let Some(p) = hub.step.as_mut().and_then(|s| s.remove(id)) else {
                return false;
            };
            hub.queues[p.dst as usize].push_back(p.frame);
            wake_node(&mut hub.wakers, p.dst as usize);
            true
        })
    }

    /// Drops pending delivery `id` — the explorer-placed erasure.
    /// Returns what was dropped, or `None` if the id is unknown.
    pub fn drop_frame(&self, id: u64) -> Option<PendingDelivery> {
        self.with_step(|hub| hub.step.as_mut().and_then(|s| s.remove(id)))
    }

    /// Fires the oldest pending delivery (the FIFO default policy) and
    /// returns its id, or `None` when nothing is pending.
    pub fn deliver_oldest(&self) -> Option<u64> {
        self.with_step(|hub| {
            let (id, p) = hub.step.as_mut()?.pop_front()?;
            hub.queues[p.dst as usize].push_back(p.frame);
            wake_node(&mut hub.wakers, p.dst as usize);
            Some(id)
        })
    }
}

impl<M: Medium> Transport for SimTransport<M> {
    fn local_node(&self) -> u8 {
        self.node
    }

    fn node_count(&self) -> usize {
        self.n_nodes
    }

    fn send_to(&mut self, to: u8, frame: &Frame) -> io::Result<()> {
        self.transmit(frame, Some(to));
        Ok(())
    }

    fn broadcast(&mut self, frame: &Frame) -> io::Result<()> {
        // One transmission reaches everyone the erasure pattern allows —
        // the broadcast advantage the protocol is built on.
        self.transmit(frame, None);
        Ok(())
    }

    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<Frame>> {
        let mut hub = self.hub.borrow_mut();
        match hub.queues[self.node as usize].pop_front() {
            Some(f) => {
                crate::telemetry::counter_add("net.rx.frames", 1);
                Poll::Ready(Ok(f))
            }
            None => {
                // Chaos hold-back frames are released (and their
                // receiver woken, via `flush_due` → `wake_node`) inside
                // later `transmit` calls — the delay clock counts
                // transmissions, not time, and the reliable layer's
                // retransmission timers guarantee those transmissions
                // keep coming while any session is live. The waker slot
                // alone therefore suffices; no re-poll timer needed.
                let me = self.node as usize;
                let slot = &mut hub.wakers[me];
                match slot.as_ref() {
                    Some(w) if w.will_wake(cx.waker()) => {}
                    _ => *slot = Some(cx.waker().clone()),
                }
                Poll::Pending
            }
        }
    }

    fn invalid_frames(&self) -> u64 {
        self.invalid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NetPayload;
    use crate::rt;
    use thinair_netsim::IidMedium;

    fn frame(sender: u8, seq: u32) -> Frame {
        Frame { flags: 0, sender, session: 1, seq, payload: NetPayload::Ack { seq } }
    }

    #[test]
    fn sim_broadcast_respects_erasures_and_counts_bits() {
        // p = 1.0 towards node 1 only? use symmetric p=0: everyone gets it.
        let net = SimNet::new(IidMedium::symmetric(4, 0.0, 1), 3);
        let mut t0 = net.transport(0);
        let t1 = net.transport(1);
        let t2 = net.transport(2);
        t0.broadcast(&frame(0, 1)).unwrap();
        rt::block_on(async {
            let a = SharedTransport::new(t1).recv_batch(1).await.unwrap();
            let b = SharedTransport::new(t2).recv_batch(1).await.unwrap();
            assert_eq!(a[0].seq, 1);
            assert_eq!(b[0].seq, 1);
        });
        assert_eq!(net.bits_transmitted(), frame(0, 1).bits());
    }

    #[test]
    fn sim_dead_channel_delivers_nothing() {
        let net = SimNet::new(IidMedium::symmetric(3, 1.0, 2), 2);
        let mut t0 = net.transport(0);
        t0.broadcast(&frame(0, 7)).unwrap();
        let t1 = SharedTransport::new(net.transport(1));
        rt::block_on(async {
            let r = rt::timeout(std::time::Duration::from_millis(5), t1.recv_batch(1)).await;
            assert!(r.is_err(), "nothing should arrive over a dead channel");
        });
        // The transmission still cost air time.
        assert!(net.bits_transmitted() > 0);
    }

    #[test]
    fn sim_delivery_wakes_blocked_receiver() {
        // The receiver parks first; only the delivery wake resumes it.
        let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 2);
        let t0 = net.transport(0);
        let t1 = SharedTransport::new(net.transport(1));
        let got = rt::block_on(async {
            let rx_task = rt::spawn(async move { t1.recv_batch(1).await.unwrap()[0].seq });
            rt::spawn(async move {
                rt::sleep(std::time::Duration::from_millis(2)).await;
                let mut t0 = t0;
                t0.broadcast(&frame(0, 42)).unwrap();
            });
            rx_task.await
        });
        assert_eq!(got, 42);
    }

    #[test]
    fn recv_batch_drains_backlog_in_one_poll() {
        let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 2);
        let mut t0 = net.transport(0);
        for seq in 1..=5 {
            t0.broadcast(&frame(0, seq)).unwrap();
        }
        let t1 = SharedTransport::new(net.transport(1));
        let batch = rt::block_on(async { t1.recv_batch(DEFAULT_RECV_BATCH).await.unwrap() });
        assert_eq!(batch.iter().map(|f| f.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }

    /// Stepped mode parks every delivery; the scheduler can reorder
    /// across frames and place drops, and the receivers observe exactly
    /// the chosen schedule.
    #[test]
    fn stepped_mode_lets_the_scheduler_reorder_and_drop() {
        let net = SimNet::new(IidMedium::symmetric(4, 0.0, 1), 3);
        let step = net.stepper();
        let mut t0 = net.transport(0);
        let t1 = SharedTransport::new(net.transport(1));
        let t2 = SharedTransport::new(net.transport(2));
        t0.broadcast(&frame(0, 1)).unwrap();
        t0.broadcast(&frame(0, 2)).unwrap();
        // 2 frames × 2 receivers parked, nothing delivered yet.
        assert_eq!(step.len(), 4);
        assert_eq!(step.emitted(), 4);
        let pending = step.pending();
        let find = |seq: u32, dst: u8| {
            pending.iter().find(|(_, p)| p.frame.seq == seq && p.dst == dst).unwrap().0
        };
        // Node 1 sees seq 2 before seq 1 (reordered); node 2 loses seq 1
        // entirely (an explorer-placed erasure) and gets seq 2 by the
        // FIFO default.
        assert!(step.deliver(find(2, 1)));
        assert!(step.deliver(find(1, 1)));
        let dropped = step.drop_frame(find(1, 2)).expect("pending drop");
        assert_eq!((dropped.dst, dropped.frame.seq), (2, 1));
        assert!(step.deliver_oldest().is_some());
        assert!(step.is_empty());
        rt::block_on(async {
            assert_eq!(t1.recv_batch(1).await.unwrap()[0].seq, 2);
            assert_eq!(t1.recv_batch(1).await.unwrap()[0].seq, 1);
            assert_eq!(t2.recv_batch(1).await.unwrap()[0].seq, 2);
        });
        // Spent ids are gone for good.
        assert!(!step.deliver(0));
    }

    #[test]
    fn udp_transport_filters_garbage() {
        rt::block_on(async {
            let a = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
            let b = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
            let a_addr = a.local_addr().unwrap();
            let b_addr = b.local_addr().unwrap();
            let tb = UdpTransport::new(b, vec![a_addr, b_addr], 1);
            // Garbage first, then a valid frame.
            let valid = frame(0, 3).encode();
            a.send_batch(&[(b"not a frame at all", b_addr), (&valid, b_addr)]);
            let shared = SharedTransport::new(tb);
            let got = rt::timeout(std::time::Duration::from_secs(2), shared.recv_batch(1))
                .await
                .expect("frame should arrive")
                .unwrap();
            assert_eq!(got[0].seq, 3);
            assert_eq!(shared.invalid_frames(), 1);
        });
    }

    /// Binds `n` loopback sockets.
    fn sockets(n: usize) -> (Vec<AsyncUdpSocket>, Vec<SocketAddr>) {
        let socks: Vec<_> = (0..n).map(|_| AsyncUdpSocket::bind("127.0.0.1:0").unwrap()).collect();
        let addrs = socks.iter().map(|s| s.local_addr().unwrap()).collect();
        (socks, addrs)
    }

    /// The seqs of the next `n` frames `sock` receives, in arrival order.
    fn recv_seqs(sock: &AsyncUdpSocket, n: usize) -> Vec<u32> {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut buf = [0u8; 256];
        let mut seqs = Vec::new();
        while seqs.len() < n {
            match sock.try_recv_from(&mut buf).unwrap() {
                Some((len, _)) => seqs.push(Frame::decode(&buf[..len]).unwrap().seq),
                None => assert!(Instant::now() < deadline, "only {seqs:?} arrived"),
            }
        }
        seqs
    }

    fn tx_counter(name: &str) -> u64 {
        crate::telemetry::snapshot().counters.get(name).copied().unwrap_or(0)
    }

    #[test]
    fn udp_send_errors_are_counted_not_fatal() {
        let a = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
        let a_addr = a.local_addr().unwrap();
        // Destination port 0 is invalid for sendto on every mainstream
        // OS: the send fails, the counter ticks, the call stays Ok.
        let bogus: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let mut t = UdpTransport::new(a, vec![a_addr, bogus], 0);
        assert_eq!(t.send_errors(), 0);
        t.send_to(1, &frame(0, 1)).expect("send error must not kill the session");
        assert_eq!(t.send_errors(), 1);
        assert_eq!(t.stats().send_errors(1), 1);
        // A roster violation is still a hard error.
        assert!(t.send_to(9, &frame(0, 1)).is_err());

        // A batch whose middle peer refuses every datagram: each refusal
        // counts once, against that peer, and the real peers still
        // receive every frame, in order.
        let (socks, addrs) = sockets(3);
        let roster = vec![addrs[0], addrs[1], bogus, addrs[2]];
        let mut t = UdpTransport::new(socks[0].try_clone().unwrap(), roster, 0);
        let frames: Vec<Frame> = (1..=3).map(|seq| frame(0, seq)).collect();
        t.broadcast_batch(&frames).expect("send errors must not kill the session");
        assert_eq!(t.send_errors(), 3);
        assert_eq!(t.stats().send_errors(2), 3);
        assert_eq!(recv_seqs(&socks[1], 3), vec![1, 2, 3]);
        assert_eq!(recv_seqs(&socks[2], 3), vec![1, 2, 3]);
    }

    /// The ledger cannot tell a batch from the same frames broadcast one
    /// by one: the same bits by class, the same `net.tx.frames`.
    #[test]
    fn udp_broadcast_batch_ledger_matches_per_frame_broadcasts() {
        let (socks, addrs) = sockets(4);
        let frames: Vec<Frame> = (1..=5).map(|seq| frame(0, seq)).collect();
        let ledger = |batch: bool| {
            let mut t = UdpTransport::new(socks[0].try_clone().unwrap(), addrs.clone(), 0);
            let before = tx_counter("net.tx.frames");
            if batch {
                t.broadcast_batch(&frames).unwrap();
            } else {
                frames.iter().for_each(|f| t.broadcast(f).unwrap());
            }
            let bits: Vec<u64> =
                thinair_netsim::stats::ALL_CLASSES.iter().map(|&c| t.stats().of(0, c)).collect();
            (bits, tx_counter("net.tx.frames") - before, t.send_errors())
        };
        let one_by_one = ledger(false);
        assert_eq!(one_by_one.1, 15);
        assert_eq!(ledger(true), one_by_one);
    }

    /// `net.tx.calls` counts system calls: a 12-frame batch to two peers
    /// is one call carrying 24 datagrams.
    #[test]
    fn udp_broadcast_batch_is_one_call() {
        let (socks, addrs) = sockets(3);
        let mut t = UdpTransport::new(socks[0].try_clone().unwrap(), addrs, 0);
        let frames: Vec<Frame> = (1..=12).map(|seq| frame(0, seq)).collect();
        let (calls, sent) = (tx_counter("net.tx.calls"), tx_counter("net.tx.frames"));
        t.broadcast_batch(&frames).unwrap();
        assert_eq!(tx_counter("net.tx.calls") - calls, 1);
        assert_eq!(tx_counter("net.tx.frames") - sent, 24);
        assert_eq!(recv_seqs(&socks[1], 12), (1..=12).collect::<Vec<_>>());
        assert_eq!(recv_seqs(&socks[2], 12), (1..=12).collect::<Vec<_>>());
    }
}
