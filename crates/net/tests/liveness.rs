//! Liveness of the fin barrier, and what a session costs the executor.
//!
//! A terminal returns as soon as it has acked `Fin`. When that ack is
//! lost, the coordinator retransmits `Fin` to a terminal that is already
//! gone, and the daemon's TIME_WAIT window must answer for it — on a
//! `Server` and on a sharded daemon. The tests below swallow every
//! Fin-ack at the coordinator for [`SWALLOW`] (longer than the
//! 12 × `retransmit` a terminal once lingered for) and require the
//! coordinator to complete well inside its deadline.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use thinair_core::round::XSchedule;
use thinair_net::driver::task_seed;
use thinair_net::frame::{Frame, NetPayload};
use thinair_net::rt;
use thinair_net::udp::AsyncUdpSocket;
use thinair_net::{
    bind_shard_sockets, run_sharded_serve, Node, ServeLimits, Server, SessionConfig,
    SessionOutcome, ShardedServeOptions, SharedTransport, SimNet, Transport, UdpTransport,
};
use thinair_netsim::IidMedium;

/// How long the coordinator's Fin-acks are swallowed.
const SWALLOW: Duration = Duration::from_millis(600);

fn cfg(n_nodes: u8) -> SessionConfig {
    SessionConfig {
        n_nodes,
        payload_len: 4,
        drop_prob: 0.2,
        schedule: XSchedule::CoordinatorOnly(8),
        x_settle: Duration::from_millis(40),
        retransmit: Duration::from_millis(20),
        deadline: Duration::from_secs(10),
        ..SessionConfig::default()
    }
}

/// The coordinator's transport, minus every `Ack` of its `Fin` that
/// arrives within [`SWALLOW`] of that `Fin`'s first copy.
struct SwallowFinAcks<T> {
    inner: T,
    /// `(session, Fin seq)` → when the first copy went out.
    fins: BTreeMap<(u64, u32), Instant>,
    swallowed: Rc<RefCell<u64>>,
}

impl<T: Transport> SwallowFinAcks<T> {
    fn new(inner: T) -> (Self, Rc<RefCell<u64>>) {
        let swallowed = Rc::new(RefCell::new(0));
        (SwallowFinAcks { inner, fins: BTreeMap::new(), swallowed: swallowed.clone() }, swallowed)
    }

    fn note(&mut self, frame: &Frame) {
        if matches!(frame.payload, NetPayload::Fin) {
            self.fins.entry((frame.session, frame.seq)).or_insert_with(rt::now);
        }
    }

    fn swallows(&self, frame: &Frame) -> bool {
        let NetPayload::Ack { seq } = frame.payload else { return false };
        self.fins.get(&(frame.session, seq)).is_some_and(|&sent| rt::now() < sent + SWALLOW)
    }
}

impl<T: Transport> Transport for SwallowFinAcks<T> {
    fn local_node(&self) -> u8 {
        self.inner.local_node()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send_to(&mut self, to: u8, frame: &Frame) -> io::Result<()> {
        self.note(frame);
        self.inner.send_to(to, frame)
    }

    fn broadcast(&mut self, frame: &Frame) -> io::Result<()> {
        self.note(frame);
        self.inner.broadcast(frame)
    }

    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<Frame>> {
        loop {
            match self.inner.poll_recv(cx) {
                Poll::Ready(Ok(frame)) if self.swallows(&frame) => {
                    *self.swallowed.borrow_mut() += 1;
                }
                other => return other,
            }
        }
    }

    fn invalid_frames(&self) -> u64 {
        self.inner.invalid_frames()
    }
}

fn bind_roster(n: usize) -> (Vec<AsyncUdpSocket>, Vec<SocketAddr>) {
    let socks: Vec<AsyncUdpSocket> =
        (0..n).map(|_| AsyncUdpSocket::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs = socks.iter().map(|s| s.local_addr().expect("addr")).collect();
    (socks, addrs)
}

/// Runs `sessions` over a coordinator whose Fin-acks are swallowed, on
/// the current runtime; returns its outcomes and the acks it lost.
async fn coordinate_swallowed(
    sock: AsyncUdpSocket,
    addrs: Vec<SocketAddr>,
    cfg: &SessionConfig,
    sessions: u64,
) -> (Vec<SessionOutcome>, u64) {
    let (t, swallowed) = SwallowFinAcks::new(UdpTransport::new(sock, addrs, 0));
    let coord = Node::new(t);
    coord.start_pump();
    let tasks: Vec<_> = (1..=sessions)
        .map(|s| {
            let (node, cfg) = (coord.clone(), cfg.clone());
            rt::spawn(async move { node.coordinate(s, cfg, task_seed(5, s, 0)).await })
        })
        .collect();
    let mut outs = Vec::new();
    for t in tasks {
        let out = t.await.expect("coordinator io ok");
        assert!(out.completed(), "coordinator aborted: {:?}", out.abort);
        outs.push(out);
    }
    let lost = *swallowed.borrow();
    (outs, lost)
}

/// This thread's count of a TIME_WAIT re-ack counter (every node of a
/// single-runtime test shares the thread's telemetry registry).
fn reacks(counter: &str) -> u64 {
    thinair_net::telemetry::snapshot().counters.get(counter).copied().unwrap_or(0)
}

/// The fin barrier closed long before the deadline, and it was the
/// TIME_WAIT re-ack that closed it: Fin-acks really were lost.
fn assert_prompt(elapsed: Duration, lost: u64, cfg: &SessionConfig) {
    assert!(lost > 0, "the wrapper must have swallowed Fin-acks");
    assert!(
        elapsed < cfg.deadline / 4,
        "a lost Fin-ack stranded the coordinator: {elapsed:?} of a {:?} deadline",
        cfg.deadline
    );
}

/// `Server`: the daemon's receive loop re-acks the late Fin without a
/// task.
#[test]
fn late_fin_is_reacked_by_a_serve_daemon() {
    const SESSIONS: u64 = 4;
    let cfg = cfg(3);
    let (socks, addrs) = bind_roster(3);
    let mut socks = socks.into_iter();
    let coord_sock = socks.next().expect("socket");
    let servers: Vec<Server<UdpTransport>> = socks
        .enumerate()
        .map(|(i, s)| {
            let t = SharedTransport::new(UdpTransport::new(s, addrs.clone(), i as u8 + 1));
            Server::new(t, cfg.clone(), 5, ServeLimits::default())
        })
        .collect();
    let handles: Vec<_> = servers.iter().map(|s| s.handle()).collect();
    let started = Instant::now();
    let (_, lost) = rt::block_on(async {
        for s in servers {
            rt::spawn(s.run());
        }
        let coordinated = coordinate_swallowed(coord_sock, addrs.clone(), &cfg, SESSIONS).await;
        for h in &handles {
            h.stop();
        }
        coordinated
    });
    assert_prompt(started.elapsed(), lost, &cfg);
    assert!(reacks("demux.time_wait.reacks") > 0, "the daemons' receive loops answered");
    for h in &handles {
        assert_eq!(h.stats().completed, SESSIONS);
        assert_eq!(h.open_sessions(), 0, "a re-ack holds no slot");
    }
}

/// A 2-worker sharded daemon: the kernel delivers late frames to the
/// owner shard's receive loop, and its TIME_WAIT window answers them.
#[test]
fn late_fin_is_reacked_by_a_sharded_daemon() {
    const SESSIONS: u64 = 8;
    let cfg = cfg(2);
    let coord_sock = AsyncUdpSocket::bind("127.0.0.1:0").expect("bind coord");
    let daemon_socks =
        bind_shard_sockets("127.0.0.1:0".parse().expect("addr"), 2).expect("bind shards");
    let addrs =
        vec![coord_sock.local_addr().expect("addr"), daemon_socks[0].local_addr().expect("addr")];
    let stop = Arc::new(AtomicBool::new(false));
    let opts = ShardedServeOptions {
        cfg: cfg.clone(),
        seed: 5,
        limits: ServeLimits::default(),
        collect_outcomes: true,
        on_outcome: None,
        timing: false,
    };
    let (daemon_addrs, daemon_stop) = (addrs.clone(), stop.clone());
    let daemon = std::thread::spawn(move || {
        run_sharded_serve(daemon_socks, daemon_addrs, 1, opts, daemon_stop).expect("serve")
    });
    let started = Instant::now();
    let (_, lost) = rt::block_on(coordinate_swallowed(coord_sock, addrs, &cfg, SESSIONS));
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let reports = daemon.join().expect("daemon thread");
    assert_prompt(elapsed, lost, &cfg);
    let completed: u64 = reports.iter().map(|r| r.stats.completed).sum();
    assert_eq!(completed, SESSIONS);
    let reacks: u64 = reports
        .iter()
        .map(|r| r.snapshot.counters.get("demux.time_wait.reacks").copied().unwrap_or(0))
        .sum();
    assert!(reacks > 0, "the owner shards' TIME_WAIT windows answered the late Fins");
}

/// The executor cost of one clean session is pinned exactly: under the
/// virtual clock every poll and timer fire is deterministic. A role
/// that woke on a fixed tick (or lingered after `Fin`) would blow
/// through these bounds — one such terminal alone fired ~60 ticks of
/// 10 ms across x-settle and linger. The terminals are serve daemons, as
/// every harness and deployment runs them.
///
/// After the session, 5 s of virtual time must pass in well under 1 s
/// of wall time: a receive loop that read the wall clock would spin on
/// a deadline already in the virtual past.
#[test]
fn one_session_costs_a_bounded_number_of_polls_and_timer_fires() {
    let cfg = SessionConfig {
        n_nodes: 3,
        schedule: XSchedule::CoordinatorOnly(12),
        payload_len: 8,
        drop_prob: 0.25,
        x_settle: Duration::from_millis(120),
        retransmit: Duration::from_millis(40),
        deadline: Duration::from_secs(10),
        ..SessionConfig::default()
    };
    let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 3);
    let transports: Vec<_> = (0..3).map(|i| net.transport(i)).collect();
    let (outs, cost, idle_wall) = rt::block_on_virtual(
        async move {
            let mut transports = transports.into_iter();
            let coord = Node::new(transports.next().expect("coordinator transport"));
            coord.start_pump();
            let mut served = Vec::new();
            for t in transports {
                let (cfg, limits) = (cfg.clone(), ServeLimits::default());
                let mut server = Server::new(SharedTransport::new(t), cfg, 3, limits);
                served.push(server.outcomes());
                rt::spawn(server.run());
            }
            let before = rt::metrics();
            let c = cfg.clone();
            let coordinated =
                rt::spawn(async move { coord.coordinate(1, c, task_seed(3, 1, 0)).await });
            let mut outs = vec![coordinated.await.expect("virtual session runs")];
            for rx in &mut served {
                outs.push(rx.recv().await.expect("the daemon reports its session"));
            }
            let cost = rt::metrics().delta(&before);
            let wall = Instant::now();
            rt::sleep(Duration::from_secs(5)).await;
            (outs, cost, wall.elapsed())
        },
        Instant::now(),
        &mut || false,
    );
    assert_eq!(outs.len(), 3);
    for out in &outs {
        assert!(out.completed(), "node {} aborted: {:?}", out.node, out.abort);
        assert_eq!(out.secret, outs[0].secret);
    }
    let per_node = |n: u64| n as f64 / 3.0;
    assert!(
        per_node(cost.task_polls) <= 20.0,
        "{} task polls for one session ({:.1} per node)",
        cost.task_polls,
        per_node(cost.task_polls)
    );
    assert!(
        per_node(cost.timer_fires) <= 2.0,
        "{} timer fires for one session ({:.1} per node)",
        cost.timer_fires,
        per_node(cost.timer_fires)
    );
    // What the session put on the wire: the frame count is the
    // protocol's, the bytes are mostly frame envelope. The fixed 25-byte
    // v1 envelope spent 1 342 bytes on these 40 frames.
    assert_eq!(net.frames_transmitted(), 40);
    let wire_bytes = net.bits_transmitted() / 8;
    assert!(wire_bytes <= 900, "{wire_bytes} bytes on the wire for one session");
    assert!(
        idle_wall < Duration::from_secs(1),
        "5 s of virtual time took {idle_wall:?} of wall time"
    );
}
