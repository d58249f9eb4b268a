//! Serve mode over real loopback UDP sockets: auto-admission, capacity
//! rejection, idle eviction, and end-to-end agreement with a live
//! coordinator — the daemon side of `thinaird serve`.

use std::net::SocketAddr;
use std::time::Duration;

use thinair_core::round::XSchedule;
use thinair_net::driver::task_seed;
use thinair_net::frame::{Frame, NetPayload};
use thinair_net::rt;
use thinair_net::udp::AsyncUdpSocket;
use thinair_net::{
    Node, ServeLimits, Server, SessionConfig, SharedTransport, Transport, UdpTransport,
};

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

fn bind_roster(n: usize) -> (Vec<AsyncUdpSocket>, Vec<SocketAddr>) {
    let socks: Vec<AsyncUdpSocket> =
        (0..n).map(|_| AsyncUdpSocket::bind("127.0.0.1:0").unwrap()).collect();
    let addrs = socks.iter().map(|s| s.local_addr().unwrap()).collect();
    (socks, addrs)
}

/// A coordinator node drives concurrent sessions against two serve
/// daemons over real sockets; everyone agrees, registries drain to
/// empty (terminal-state GC).
#[test]
fn loopback_serve_sessions_agree() {
    const SESSIONS: u64 = 12;
    let cfg = cfg(3);
    let (socks, addrs) = bind_roster(3);
    let mut socks = socks.into_iter();
    let coord = Node::new(UdpTransport::new(socks.next().unwrap(), addrs.clone(), 0));
    let mut servers: Vec<Server<UdpTransport>> = socks
        .enumerate()
        .map(|(i, s)| {
            Server::new(
                SharedTransport::new(UdpTransport::new(s, addrs.clone(), (i + 1) as u8)),
                cfg.clone(),
                7,
                ServeLimits::default(),
            )
        })
        .collect();
    let handles: Vec<_> = servers.iter().map(|s| s.handle()).collect();
    let mut outcome_rxs: Vec<_> = servers.iter_mut().map(|s| s.outcomes()).collect();

    rt::block_on(async move {
        coord.start_pump();
        for s in servers {
            rt::spawn(s.run());
        }
        let mut tasks = Vec::new();
        for s in 1..=SESSIONS {
            let node = coord.clone();
            let cfg = cfg.clone();
            tasks.push(rt::spawn(async move { node.coordinate(s, cfg, task_seed(7, s, 0)).await }));
        }
        let mut coord_outs = Vec::new();
        for t in tasks {
            let out = t.await.expect("io ok");
            assert!(out.completed(), "coordinator aborted: {:?}", out.abort);
            coord_outs.push(out);
        }
        // Each daemon serves every session and agrees with the
        // coordinator byte-for-byte.
        for rx in outcome_rxs.iter_mut() {
            for _ in 0..SESSIONS {
                let out = rt::timeout(Duration::from_secs(5), rx.recv())
                    .await
                    .expect("daemon outcome arrives")
                    .expect("stream open");
                assert!(out.completed(), "daemon aborted: {:?}", out.abort);
                let co = coord_outs.iter().find(|o| o.session == out.session).unwrap();
                assert_eq!(out.secret, co.secret, "session {:#x} diverged", out.session);
            }
        }
        for h in &handles {
            assert_eq!(h.open_sessions(), 0, "terminal-state GC leaves no live sessions");
            let stats = h.stats();
            assert_eq!(stats.admitted, SESSIONS);
            assert_eq!(stats.completed, SESSIONS);
            assert_eq!(stats.failed, 0);
            h.stop();
        }
    });
}

/// Regression pin for FIFO re-admission: `Start`s refused at capacity
/// are parked and re-admitted strictly in arrival order as slots free.
/// The coordinators here are dead (a single hand-fed `Start` each, no
/// paced retries), so the queue drain is the *only* re-admission path
/// — a live retry racing a freed slot may legitimately jump ahead,
/// which is exactly the noise this pin excludes. Admission order is
/// observed from the coordinator's socket: a daemon terminal acks the
/// reliable `Start` when its session task first processes it, i.e. at
/// admission, so the order of first-acks per session IS the admission
/// order. A LIFO (or otherwise reordered) queue permutes it.
#[test]
fn loopback_busy_readmission_is_fifo() {
    const SESSIONS: [u64; 4] = [11, 12, 13, 14];
    let cfg = cfg(2);
    let (socks, addrs) = bind_roster(2);
    let mut socks = socks.into_iter();
    let coord = SharedTransport::new(UdpTransport::new(socks.next().unwrap(), addrs.clone(), 0));
    let limits = ServeLimits { max_sessions: 1, idle_timeout: Duration::from_millis(200) };
    let server = Server::new(
        SharedTransport::new(UdpTransport::new(socks.next().unwrap(), addrs.clone(), 1)),
        cfg.clone(),
        7,
        limits,
    );
    let handle = server.handle();

    rt::block_on(async move {
        rt::spawn(server.run());
        // Session 11 takes the only slot; 12..14 are Busy'd and parked
        // in arrival order (pinned by the inter-send sleeps).
        let digest = cfg.digest();
        for session in SESSIONS {
            let frame = Frame {
                flags: thinair_net::frame::FLAG_RELIABLE,
                sender: 0,
                session,
                seq: 1,
                payload: NetPayload::Start { digest },
            };
            coord.send_to(1, &frame).unwrap();
            rt::sleep(Duration::from_millis(20)).await;
        }
        // Each admitted session's coordinator stays silent, so the
        // session dies (retransmits exhausted / idle eviction), the
        // slot frees, and the next parked Start must pop — in FIFO
        // order. Collect the admission acks as they arrive.
        let mut admitted = Vec::new();
        while admitted.len() < SESSIONS.len() {
            let f = rt::timeout(Duration::from_secs(20), coord.recv_batch(1))
                .await
                .expect("admission ack arrives")
                .expect("socket open")
                .remove(0);
            if matches!(f.payload, NetPayload::Ack { .. }) && !admitted.contains(&f.session) {
                admitted.push(f.session);
            }
        }
        assert_eq!(
            admitted,
            SESSIONS.to_vec(),
            "re-admission must drain the parked Starts in arrival order"
        );
        let stats = handle.stats();
        assert_eq!(stats.admitted, SESSIONS.len() as u64);
        assert_eq!(stats.rejected, (SESSIONS.len() - 1) as u64, "all but the first were parked");
        handle.stop();
    });
}

/// A daemon at capacity rejects `Start`s (counted), and a session whose
/// coordinator goes silent is evicted by the idle timer — the two
/// registry pressure valves, exercised over a real socket.
#[test]
fn loopback_serve_rejects_at_capacity_and_evicts_idle() {
    let cfg = cfg(2);
    let (socks, addrs) = bind_roster(2);
    let mut socks = socks.into_iter();
    let coord_sock = socks.next().unwrap();
    let limits = ServeLimits { max_sessions: 1, idle_timeout: Duration::from_millis(300) };
    let server = Server::new(
        SharedTransport::new(UdpTransport::new(socks.next().unwrap(), addrs.clone(), 1)),
        cfg.clone(),
        7,
        limits,
    );
    let handle = server.handle();

    rt::block_on(async move {
        rt::spawn(server.run());
        // Hand-feed Start frames from the coordinator's socket: two
        // different sessions, no follow-up traffic (a coordinator that
        // died right after the barrier).
        let mut t0 = UdpTransport::new(coord_sock, addrs.clone(), 0);
        let digest = cfg.digest();
        for session in [1u64, 2] {
            let frame = Frame {
                flags: thinair_net::frame::FLAG_RELIABLE,
                sender: 0,
                session,
                seq: 1,
                payload: NetPayload::Start { digest },
            };
            t0.send_to(1, &frame).unwrap();
        }
        // Give the daemon a moment to admit/reject.
        rt::sleep(Duration::from_millis(150)).await;
        let stats = handle.stats();
        assert_eq!(stats.admitted, 1, "capacity 1 admits exactly one");
        assert_eq!(stats.rejected, 1, "the second Start is rejected");
        assert_eq!(handle.open_sessions(), 1);
        // The admitted session never hears from its coordinator again:
        // the idle sweep evicts it well before the protocol deadline.
        // That frees the slot, so the refused Start — parked in the
        // FIFO re-admission queue — is admitted in turn, and then
        // evicted by the same sweep (its coordinator is just as dead).
        rt::sleep(Duration::from_millis(900)).await;
        assert_eq!(handle.open_sessions(), 0, "idle sessions evicted");
        let stats = handle.stats();
        assert_eq!(stats.admitted, 2, "the parked Start re-admitted on the freed slot");
        assert_eq!(stats.evicted, 2);
        assert_eq!(stats.failed, 0, "eviction is not a failure");
        handle.stop();
    });
}
