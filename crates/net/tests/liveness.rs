//! Liveness of the fin barrier, the fountain's top-up schedule, and what
//! a session costs the executor.
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

use thinair_core::estimate::Estimator;
use thinair_core::round::XSchedule;
use thinair_core::wire::Message;
use thinair_net::driver::{run_sessions, task_seed};
use thinair_net::frame::{Frame, NetPayload};
use thinair_net::reliable::FLOW_INITIAL_CWND;
use thinair_net::rt;
use thinair_net::udp::AsyncUdpSocket;
use thinair_net::{
    bind_shard_sockets, run_sharded_serve, AbortReason, Node, ServeLimits, Server, SessionConfig,
    SessionOutcome, ShardedServeOptions, SharedTransport, SimNet, Snapshot, Transport,
    UdpTransport,
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

/// This thread's count of a telemetry counter (every node of a
/// single-runtime test shares the thread's telemetry registry).
fn counter(counter: &str) -> u64 {
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
    assert!(counter("demux.time_wait.reacks") > 0, "the daemons' receive loops answered");
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

/// Whether `snap` holds any flow-budget telemetry (`net.cwnd*`,
/// `net.inflight`).
fn has_flow_budget(snap: &Snapshot) -> bool {
    let mut names = snap.counters.keys().chain(snap.gauges.keys()).chain(snap.hists.keys());
    names.any(|n| n.starts_with("net.cwnd") || n == "net.inflight")
}

/// Only a coordinator carries a flow budget: a thread that hosts only
/// `Server`s (terminals never send `Start`) records no window telemetry
/// after a run, while the coordinator's thread does.
#[test]
fn a_daemon_carries_no_flow_budget() {
    const SESSIONS: u64 = 4;
    let cfg = cfg(3);
    let (socks, addrs) = bind_roster(3);
    let mut socks = socks.into_iter();
    let coord_sock = socks.next().expect("socket");
    let (daemon_socks, daemon_addrs, daemon_cfg): (Vec<_>, _, _) =
        (socks.collect(), addrs.clone(), cfg.clone());
    let daemons = std::thread::spawn(move || {
        rt::block_on(async move {
            let mut served = Vec::new();
            for (i, s) in daemon_socks.into_iter().enumerate() {
                let t = UdpTransport::new(s, daemon_addrs.clone(), i as u8 + 1);
                let limits = ServeLimits::default();
                let mut server =
                    Server::new(SharedTransport::new(t), daemon_cfg.clone(), 5, limits);
                served.push((server.handle(), server.outcomes()));
                rt::spawn(server.run());
            }
            for (handle, outcomes) in &mut served {
                for _ in 0..SESSIONS {
                    outcomes.recv().await.expect("the daemon reports each session");
                }
                handle.stop();
            }
        });
        thinair_net::telemetry::snapshot()
    });
    rt::block_on(async {
        let coord = Node::new(UdpTransport::new(coord_sock, addrs, 0));
        coord.start_pump();
        for s in 1..=SESSIONS {
            let out = coord.coordinate(s, cfg.clone(), task_seed(5, s, 0)).await;
            assert!(out.expect("coordinator io ok").completed());
        }
    });
    assert!(has_flow_budget(&thinair_net::telemetry::snapshot()), "the coordinator charged");
    let daemon_snap = daemons.join().expect("daemon thread");
    assert_eq!(daemon_snap.counters.get("serve.admitted"), Some(&(2 * SESSIONS)));
    assert!(!has_flow_budget(&daemon_snap), "a daemon's thread recorded window telemetry");
}

/// A transport with scripted faults: with `lose_first_starts`, the
/// first copy of every `Start` it sends to each peer is lost; with
/// `frames_left`, its socket fails once it has received that many
/// frames. It logs when each session's first `Start` copy went out.
struct Scripted<T> {
    inner: T,
    lose_first_starts: bool,
    /// `(session, peer)` pairs whose first `Start` copy was lost.
    lost: BTreeMap<(u64, u8), ()>,
    frames_left: Option<usize>,
    starts: Starts,
}

/// `(session, virtual time)` of each session's first `Start` copy, in
/// sending order.
type Starts = Rc<RefCell<Vec<(u64, Instant)>>>;

impl<T> Scripted<T> {
    fn new(inner: T) -> Self {
        let (lost, starts) = (BTreeMap::new(), Starts::default());
        Scripted { inner, lose_first_starts: false, lost, frames_left: None, starts }
    }
}

impl<T: Transport> Transport for Scripted<T> {
    fn local_node(&self) -> u8 {
        self.inner.local_node()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send_to(&mut self, to: u8, frame: &Frame) -> io::Result<()> {
        let start = matches!(frame.payload, NetPayload::Start { .. });
        if start && !self.starts.borrow().iter().any(|&(s, _)| s == frame.session) {
            self.starts.borrow_mut().push((frame.session, rt::now()));
        }
        if start && self.lose_first_starts && self.lost.insert((frame.session, to), ()).is_none() {
            return Ok(());
        }
        self.inner.send_to(to, frame)
    }

    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<Frame>> {
        if self.frames_left == Some(0) {
            return Poll::Ready(Err(io::Error::other("the socket died")));
        }
        let polled = self.inner.poll_recv(cx);
        if let (Poll::Ready(Ok(_)), Some(left)) = (&polled, self.frames_left.as_mut()) {
            *left -= 1;
        }
        polled
    }

    fn invalid_frames(&self) -> u64 {
        self.inner.invalid_frames()
    }
}

/// A socket that dies mid-session ends every session on it at once, on
/// both sides (the contract of `Node::start_pump` and `Server::run`):
/// each open `coordinate` call returns `Closed` far inside its deadline,
/// and the daemon's `run` returns the error. A loop that left its
/// sessions to their own timers would idle them to the deadline.
#[test]
fn a_dead_socket_ends_every_open_session_at_once() {
    const SESSIONS: u64 = 4;
    let cfg = virtual_cfg();
    let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 3);
    let mut coord_t = Scripted::new(net.transport(0));
    coord_t.frames_left = Some(4);
    let mut dying_t = Scripted::new(net.transport(1));
    dying_t.frames_left = Some(2);
    let (ends, served, elapsed) = rt::block_on_virtual(
        async move {
            let coord = Node::new(coord_t);
            coord.start_pump();
            let dying =
                Server::new(SharedTransport::new(dying_t), cfg.clone(), 3, ServeLimits::default());
            let healthy = Server::new(
                SharedTransport::new(net.transport(2)),
                cfg.clone(),
                3,
                ServeLimits::default(),
            );
            let healthy_handle = healthy.handle();
            let dying = rt::spawn(dying.run());
            rt::spawn(healthy.run());
            let t0 = rt::now();
            let tasks: Vec<_> = (1..=SESSIONS)
                .map(|s| {
                    let (node, cfg) = (coord.clone(), cfg.clone());
                    rt::spawn(async move {
                        let session = node.coordinate(s, cfg, task_seed(3, s, 0));
                        rt::timeout(Duration::from_secs(2), Box::pin(session)).await
                    })
                })
                .collect();
            let mut ends = Vec::new();
            for t in tasks {
                ends.push(t.await);
            }
            let elapsed = rt::now() - t0;
            healthy_handle.stop();
            (ends, dying.await, elapsed)
        },
        Instant::now(),
        &mut || false,
    );
    for end in &ends {
        assert!(matches!(end, Ok(Err(thinair_net::NetError::Closed))), "{end:?}");
    }
    assert!(elapsed < virtual_cfg().deadline / 10, "the sessions idled for {elapsed:?}");
    assert!(served.is_err(), "the daemon's run returns its socket error");
}

/// A session opened while its node's loop sits parked with no timer
/// (no session was open) must re-arm that loop: its first `Start` is
/// lost, no frame will come back to wake the loop, and only the loop's
/// timer can fire the retransmission at the `Start`'s RTO.
#[test]
fn an_open_re_arms_a_parked_loop() {
    let cfg = virtual_cfg();
    let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 3);
    let mut coord_t = Scripted::new(net.transport(0));
    coord_t.lose_first_starts = true;
    let transports: Vec<_> = (1..3).map(|i| net.transport(i)).collect();
    let (out, completion) = rt::block_on_virtual(
        async move {
            let coord = Node::new(coord_t);
            coord.start_pump();
            for t in transports {
                let server =
                    Server::new(SharedTransport::new(t), cfg.clone(), 3, ServeLimits::default());
                rt::spawn(server.run());
            }
            // Let every loop park: nothing is open, so the node's arms
            // no timer.
            rt::sleep(Duration::from_millis(5)).await;
            let t0 = rt::now();
            let session = coord.coordinate(1, cfg.clone(), task_seed(3, 1, 0));
            let out = rt::timeout(Duration::from_secs(2), Box::pin(session)).await;
            (out, rt::now() - t0)
        },
        Instant::now(),
        &mut || false,
    );
    let out = out.expect("the retransmitted Start completed the session").expect("io");
    assert!(out.completed(), "aborted: {:?}", out.abort);
    // The 120 ms x-settle window plus the Start's RTO (40 ms, jittered
    // by at most a quarter): a round whose Start got through on its
    // first copy completes at exactly 120 ms.
    assert!(
        (Duration::from_millis(150)..Duration::from_millis(250)).contains(&completion),
        "completed after {completion:?}"
    );
}

/// The three-node session the virtual-clock cost pins run.
fn virtual_cfg() -> SessionConfig {
    SessionConfig {
        n_nodes: 3,
        schedule: XSchedule::CoordinatorOnly(12),
        payload_len: 8,
        drop_prob: 0.25,
        x_settle: Duration::from_millis(120),
        retransmit: Duration::from_millis(40),
        deadline: Duration::from_secs(10),
        ..SessionConfig::default()
    }
}

/// The executor cost of one clean session is pinned exactly: under the
/// virtual clock every poll and timer fire is deterministic. Each node's
/// receive loop steps its session inline and fires one timer, at the
/// end of the x-settle window. A session task woken per frame batch, a
/// per-wake timeout, a role that woke on a fixed tick (or lingered after
/// `Fin`) would blow through these bounds — one such terminal alone
/// fired ~60 ticks of 10 ms across x-settle and linger. The terminals
/// are serve daemons, as every harness and deployment runs them.
///
/// After the session, 5 s of virtual time must pass in well under 1 s
/// of wall time: a receive loop that read the wall clock would spin on
/// a deadline already in the virtual past. And they must cost one poll
/// and one timer fire, the sleep's own: with no session open, no loop
/// arms a timer (two daemons sweeping for idle sessions once a second
/// would cost 11 of each).
#[test]
fn one_session_costs_a_bounded_number_of_polls_and_timer_fires() {
    let cfg = virtual_cfg();
    let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 3);
    let transports: Vec<_> = (0..3).map(|i| net.transport(i)).collect();
    let (outs, cost, (idle, idle_wall)) = rt::block_on_virtual(
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
            let (before, wall) = (rt::metrics(), Instant::now());
            rt::sleep(Duration::from_secs(5)).await;
            (outs, cost, (rt::metrics().delta(&before), wall.elapsed()))
        },
        Instant::now(),
        &mut || false,
    );
    assert_eq!(outs.len(), 3);
    for out in &outs {
        assert!(out.completed(), "node {} aborted: {:?}", out.node, out.abort);
        assert_eq!(out.secret, outs[0].secret);
    }
    assert!(cost.task_polls <= 20, "{} task polls for one session on 3 nodes", cost.task_polls);
    assert!(cost.timer_fires <= 3, "{} timer fires for one session on 3 nodes", cost.timer_fires);
    // Phase spans run on the virtual clock too: each node's x-settle
    // window lasts exactly `x_settle`.
    let settle = virtual_cfg().x_settle.as_micros() as u64;
    let hists = thinair_net::telemetry::snapshot().hists;
    for (span, nodes) in [("phase.coord.x_settle", 1), ("phase.term.x_settle", 2)] {
        let h = &hists[span];
        assert_eq!((h.count(), h.min(), h.max()), (nodes, settle, settle), "{span}");
    }
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
    assert_eq!((idle.task_polls, idle.timer_fires), (1, 1), "5 idle seconds");
}

/// A saturated start: 1 000 sessions launched at once fill the
/// coordinator's flow budget at t = 0, so most `Start`s wait for a
/// slot. A queued open arms no timer and costs no poll until it ends:
/// the node's receive loop starts it inline, and each node's loop arms
/// one timer for all its sessions, so the whole run fires 5 timers (a
/// timer per session fired ~3, a 10 ms recheck of every queued `Start`
/// 4.5) and polls each `coordinate` call twice (a woken wait in the FIFO
/// took a third) plus a few loop passes per session. (Arrival order,
/// one start per freed slot and dead heads are pinned by
/// `a_queued_open_past_its_deadline_leaves_the_queue` and the budget's
/// property test.)
#[test]
fn a_saturated_start_queues_opens_without_timers() {
    const SESSIONS: u64 = 1_000;
    let cfg = virtual_cfg();
    let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 3);
    let transports: Vec<_> = (0..3).map(|i| net.transport(i)).collect();
    let sessions: Vec<u64> = (1..=SESSIONS).collect();
    let (outcomes, cost) = rt::block_on_virtual(
        async move {
            let before = rt::metrics();
            let outcomes = run_sessions(&cfg, transports, &sessions, 3).await;
            (outcomes.expect("virtual sessions run"), rt::metrics().delta(&before))
        },
        Instant::now(),
        &mut || false,
    );
    for outs in &outcomes {
        assert_eq!(outs.len(), 3, "session {} ran on every node", outs[0].session);
        for out in outs {
            assert!(out.completed(), "node {} aborted: {:?}", out.node, out.abort);
            assert_eq!(out.secret, outs[0].secret);
        }
    }
    let queued = counter("net.backoff.admit_deferred");
    assert!(queued >= 700, "only {queued} opens queued: the budget never filled");
    assert!(cost.timer_fires <= 5, "{} timer fires with {queued} queued opens", cost.timer_fires);
    assert!(cost.task_polls <= 2_047, "{} task polls with {queued} queued opens", cost.task_polls);
}

/// A queued open whose deadline passes before its turn ends as a clean
/// `start barrier` deadline abort, with its partial trace and no `Start`
/// sent, and its dead id leaves the FIFO on the next freed slot: the
/// opens behind it start in arrival order, one per freed slot. Nobody
/// answers here, so the window stays full of `Start`s until their
/// senders' staggered deadlines (their RTO is longer) free one slot per
/// millisecond from 100 ms on.
#[test]
fn a_queued_open_past_its_deadline_leaves_the_queue() {
    let window = FLOW_INITIAL_CWND as u64;
    let ms = Duration::from_millis;
    let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 3);
    let coord_t = Scripted::new(net.transport(0));
    let starts = coord_t.starts.clone();
    // Sessions 1..=window fill the window; then A, B and C queue.
    let (a, b, c) = (window + 1, window + 2, window + 3);
    let fillers = (1..=window).map(|s| ms(99 + s));
    let deadlines: Vec<Duration> = fillers.chain([ms(50), ms(10_000), ms(10_000)]).collect();
    let (ends, t0) = rt::block_on_virtual(
        async move {
            let coord = Node::new(coord_t);
            coord.start_pump();
            let t0 = rt::now();
            let tasks: Vec<_> = (1..)
                .zip(deadlines)
                .map(|(s, deadline)| {
                    let node = coord.clone();
                    let cfg = SessionConfig { retransmit: ms(1_000), deadline, ..virtual_cfg() };
                    rt::spawn(async move {
                        let out = node.coordinate(s, cfg, task_seed(3, s, 0)).await;
                        (out.expect("virtual session runs"), rt::now())
                    })
                })
                .collect();
            let mut ends = Vec::new();
            for t in tasks {
                ends.push(t.await);
            }
            (ends, t0)
        },
        Instant::now(),
        &mut || false,
    );
    let start_barrier = Some(AbortReason::Deadline { phase: "start barrier" });
    let (out, ended) = &ends[a as usize - 1];
    assert_eq!(out.abort, start_barrier);
    assert_eq!(*ended - t0, ms(50), "A aborted at its own deadline");
    let trace = out.trace.as_ref().expect("an aborted open carries its partial trace");
    assert_eq!(trace.abort, start_barrier);
    assert_eq!((trace.reports.len(), trace.z_sent), (3, 0));
    assert!(trace.reports.iter().all(Vec::is_empty), "nothing was collected");
    let starts = starts.borrow();
    let after: Vec<(u64, Duration)> =
        starts.iter().filter(|&&(s, _)| s > window).map(|&(s, at)| (s, at - t0)).collect();
    assert_eq!(after, [(b, ms(100)), (c, ms(101))], "A never started; B and C took one slot each");
    assert_eq!(starts.len() as u64, window + 2);
    assert_eq!(counter("net.backoff.admit_deferred"), 3);
    for (out, _) in &ends {
        assert_eq!(out.abort, start_barrier, "session {}: nobody answered", out.session);
    }
}

/// What a [`FountainTap`] takes from the terminal it cuts off, on top of
/// its odd x-packets.
#[derive(Clone, Copy)]
enum Cut {
    /// Every combo sent within this span of the first: the first burst
    /// (all sent at one instant) and the top-ups that follow inside it.
    Combos(Duration),
    /// Every frame either way from the first combo on: the terminal
    /// went silent after the plan.
    Silent,
}

/// The coordinator's transport with terminal `victim` cut off as `cut`;
/// it logs when each z-combo went out. The victim's lost x-packets make
/// it need a combo, while every other loss is off (`drop_prob` 0).
struct FountainTap<T> {
    inner: T,
    victim: u8,
    cut: Cut,
    combos: Rc<RefCell<Vec<Instant>>>,
}

impl<T: Transport> FountainTap<T> {
    /// Whether `frame`, exchanged with the victim now, is lost.
    fn lost(&self, frame: &Frame) -> bool {
        let combos = self.combos.borrow();
        match (&frame.payload, self.cut) {
            (NetPayload::Proto(Message::XPacket { id, .. }), _) => id % 2 == 1,
            (NetPayload::Proto(Message::ZPacket { .. }), Cut::Combos(span)) => {
                rt::now() <= combos[0] + span
            }
            (_, Cut::Silent) => !combos.is_empty(),
            _ => false,
        }
    }
}

impl<T: Transport> Transport for FountainTap<T> {
    fn local_node(&self) -> u8 {
        self.inner.local_node()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send_to(&mut self, to: u8, frame: &Frame) -> io::Result<()> {
        if to == self.victim && self.lost(frame) {
            return Ok(());
        }
        self.inner.send_to(to, frame)
    }

    fn broadcast(&mut self, frame: &Frame) -> io::Result<()> {
        if matches!(frame.payload, NetPayload::Proto(Message::ZPacket { .. })) {
            self.combos.borrow_mut().push(rt::now());
        }
        let me = self.local_node();
        for peer in (0..self.node_count() as u8).filter(|&p| p != me) {
            self.send_to(peer, frame)?;
        }
        Ok(())
    }

    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<Frame>> {
        loop {
            match self.inner.poll_recv(cx) {
                Poll::Ready(Ok(frame)) if frame.sender == self.victim && self.lost(&frame) => {}
                other => return other,
            }
        }
    }

    fn invalid_frames(&self) -> u64 {
        self.inner.invalid_frames()
    }
}

/// [`virtual_cfg`] with no injected loss: the explorer's fixed-fraction
/// Eve estimate keeps a secret in the plan all the same.
fn fountain_cfg() -> SessionConfig {
    let estimator = Estimator::FixedFraction { fraction: 0.5 };
    SessionConfig { estimator, drop_prob: 0.0, ..virtual_cfg() }
}

/// Runs one virtual-clock session of `cfg` whose coordinator cuts
/// terminal 1 off as `cut`. Returns every node's outcome, the
/// coordinator's first, and when each z-combo went out, from the open.
fn run_cut(cfg: &SessionConfig, cut: Cut) -> (Vec<SessionOutcome>, Vec<Duration>) {
    let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 3);
    let combos = Rc::new(RefCell::new(Vec::new()));
    let tap = FountainTap { inner: net.transport(0), victim: 1, cut, combos: combos.clone() };
    let terminals: Vec<_> = (1..3).map(|i| net.transport(i)).collect();
    let cfg = cfg.clone();
    let (outs, t0) = rt::block_on_virtual(
        async move {
            let coord = Node::new(tap);
            coord.start_pump();
            let mut served = Vec::new();
            for t in terminals {
                let (cfg, limits) = (cfg.clone(), ServeLimits::default());
                let mut server = Server::new(SharedTransport::new(t), cfg, 3, limits);
                served.push(server.outcomes());
                rt::spawn(server.run());
            }
            let t0 = rt::now();
            let out = coord.coordinate(1, cfg, task_seed(3, 1, 0)).await;
            let mut outs = vec![out.expect("virtual session runs")];
            for rx in &mut served {
                outs.push(rx.recv().await.expect("the daemon reports its session"));
            }
            (outs, t0)
        },
        Instant::now(),
        &mut || false,
    );
    let sent = combos.borrow().iter().map(|&at| at - t0).collect();
    (outs, sent)
}

/// The gaps between the fountain's sends after its first burst (the
/// combos sent at the first combo's instant), the burst's own instant
/// first.
fn top_up_gaps(sent: &[Duration]) -> Vec<Duration> {
    let burst = sent.iter().filter(|&&at| at == sent[0]).count();
    sent[burst - 1..].windows(2).map(|w| w[1] - w[0]).collect()
}

/// The top-up schedule with no RTT sample: the RTO sits at its floor,
/// `retransmit / 4` = 10 ms, and doubles per top-up up to `retransmit`.
fn rto_schedule(top_ups: usize) -> Vec<Duration> {
    (0..top_ups).map(|k| Duration::from_millis(10 << k.min(2))).collect()
}

/// A terminal one row short loses the first burst and every top-up of
/// the fountain's first 100 ms. The top-ups go out an RTO after the
/// burst, then at twice that, then at `retransmit`: under the virtual
/// clock the gaps are exactly 10, 20, 40 and 40 ms, and the fourth
/// top-up completes it (a fixed timer put every gap at 40 ms). Every
/// node agrees on the secret.
#[test]
fn top_ups_wait_the_rto_doubling_up_to_retransmit() {
    let (outs, sent) = run_cut(&fountain_cfg(), Cut::Combos(Duration::from_millis(100)));
    assert_eq!(outs.len(), 3);
    for out in &outs {
        assert!(out.completed(), "node {} aborted: {:?}", out.node, out.abort);
        assert_eq!(out.secret, outs[0].secret);
    }
    assert!(outs[0].l > 0, "the plan has a secret");
    assert_eq!(top_up_gaps(&sent), rto_schedule(4));
}

/// A terminal that goes silent after the plan is topped up on the same
/// schedule until the session deadline, which ends the coordinator in
/// the fountain: the doubling keeps the fountain within `z_budget` for
/// the whole deadline (combos every 10 ms would spend its 400 in 4 s and
/// end the session `Unreachable`).
#[test]
fn a_silent_terminal_is_topped_up_at_the_old_pace_until_the_deadline() {
    let cfg = fountain_cfg();
    let (outs, sent) = run_cut(&cfg, Cut::Silent);
    assert_eq!(outs[0].abort, Some(AbortReason::Deadline { phase: "z fountain" }));
    let gaps = top_up_gaps(&sent);
    assert_eq!(gaps, rto_schedule(gaps.len()));
    let last = *sent.last().expect("the fountain opened");
    assert!(last + cfg.retransmit >= cfg.deadline, "top-ups stopped at {last:?}");
    assert!((sent.len() as u32) < cfg.z_budget);
}

/// The first burst stays within `z_budget`: with a budget of 2, below
/// the burst's `z.rows() + 3`, the coordinator sends 2 combos, and the
/// terminal that lost them ends the session `Unreachable` after exactly
/// the budget.
#[test]
fn the_first_burst_stays_within_the_fountain_budget() {
    let cfg = SessionConfig { z_budget: 2, ..fountain_cfg() };
    let (outs, sent) = run_cut(&cfg, Cut::Combos(Duration::ZERO));
    assert_eq!(sent.len(), 2, "combos sent against a budget of 2");
    let unreachable = AbortReason::Unreachable { missing: vec![1], attempts: 2 };
    assert_eq!(outs[0].abort, Some(unreachable));
}
