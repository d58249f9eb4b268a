//! Regression tests for the structured-abort path: a crashed terminal
//! must leave every surviving node with a clean [`AbortReason`] within
//! the session deadline — no hang, no `Err`, no divergent secret — on
//! both the simulated transport and real loopback UDP.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use thinair_core::round::XSchedule;
use thinair_net::driver::drive_sim_chaos;
use thinair_net::node::Node;
use thinair_net::rt;
use thinair_net::session::{AbortReason, SessionConfig};
use thinair_net::transport::{SharedTransport, UdpTransport};
use thinair_net::udp::AsyncUdpSocket;
use thinair_net::{ServeLimits, Server};
use thinair_netsim::{CrashSpec, FaultPlan, IidMedium};

fn cfg(n_nodes: u8, deadline: Duration) -> SessionConfig {
    SessionConfig {
        n_nodes,
        coordinator: 0,
        schedule: XSchedule::CoordinatorOnly(30),
        payload_len: 8,
        drop_prob: 0.3,
        deadline,
        retransmit: Duration::from_millis(10),
        x_settle: Duration::from_millis(60),
        ..SessionConfig::default()
    }
}

/// SimTransport: terminal 2 crashes the moment it sends its reception
/// report. Every node terminates with a structured abort before the
/// deadline elapses twice over, and the crashed session never wedges
/// the batch.
#[test]
fn crashed_terminal_aborts_cleanly_on_sim() {
    let deadline = Duration::from_millis(1500);
    let plan = FaultPlan {
        crash: Some(CrashSpec { prob: 1.0, node: Some(2), after_seq: 1 }),
        ..FaultPlan::none()
    };
    let started = Instant::now();
    let run =
        drive_sim_chaos(IidMedium::symmetric(3, 0.0, 5), &cfg(3, deadline), &[1], 11, plan, 99)
            .expect("the batch itself must not error");
    let elapsed = started.elapsed();
    assert!(
        elapsed < deadline * 3,
        "aborts must land near the deadline, not hang: took {elapsed:?}"
    );
    let outcomes = &run.outcomes[0];
    assert_eq!(outcomes.len(), 3);
    for out in outcomes {
        let reason = out
            .abort
            .as_ref()
            .unwrap_or_else(|| panic!("node {} should have aborted, got l={}", out.node, out.l));
        assert!(
            matches!(reason, AbortReason::Deadline { .. } | AbortReason::Unreachable { .. }),
            "node {}: unexpected reason {reason}",
            out.node
        );
        assert!(out.secret.is_empty(), "aborted outcomes never carry secrets");
        assert!(out.key().is_none());
    }
    // The coordinator's trace records the reason and the partial
    // report set for offline audit.
    let trace = outcomes[0].trace.as_ref().expect("coordinator trace present on abort");
    assert!(trace.abort.is_some());
    assert_eq!(trace.reports.len(), 3);
    assert!(trace.reports[2].is_empty(), "the crashed terminal never reported");
    assert!(run.faults.crash_dropped > 0, "the injector must log the crash");
}

/// Loopback UDP: the roster names three nodes but node 2's process is
/// never started (the real-world crash). Both live nodes — the
/// coordinator and node 1's serve daemon — yield structured aborts
/// within the deadline: the equivalent of "no hang" on real sockets.
#[test]
fn dead_peer_aborts_cleanly_on_udp() {
    let deadline = Duration::from_millis(800);
    let c = SessionConfig { max_attempts: 12, ..cfg(3, deadline) };
    // Bind all three sockets so the roster is real, but only run 0 and 1.
    let socks: Vec<AsyncUdpSocket> =
        (0..3).map(|_| AsyncUdpSocket::bind("127.0.0.1:0").unwrap()).collect();
    let addrs: Vec<SocketAddr> = socks.iter().map(|s| s.local_addr().unwrap()).collect();
    let mut it = socks.into_iter();
    let node0 = Node::new(UdpTransport::new(it.next().unwrap(), addrs.clone(), 0));
    let t1 = SharedTransport::new(UdpTransport::new(it.next().unwrap(), addrs.clone(), 1));
    let mut daemon1 = Server::new(t1, c.clone(), 2, ServeLimits::default());
    let mut served = daemon1.outcomes();

    let started = Instant::now();
    let (coord, term) = rt::block_on(async {
        node0.start_pump();
        rt::spawn(daemon1.run());
        let coord = node0.coordinate(7, c.clone(), 1).await;
        (coord, served.recv().await)
    });
    let elapsed = started.elapsed();
    assert!(elapsed < deadline * 3, "no hang on UDP either: took {elapsed:?}");

    let coord = coord.expect("coordinator returns Ok");
    let term = term.expect("the daemon reports the session it admitted");
    for out in [&coord, &term] {
        let reason = out.abort.as_ref().expect("both live nodes abort");
        match reason {
            AbortReason::Unreachable { missing, .. } => {
                assert_eq!(missing, &vec![2], "node {}: wrong peer blamed", out.node)
            }
            AbortReason::Deadline { .. } => {}
            other => panic!("node {}: unexpected reason {other}", out.node),
        }
    }
}

/// Survivable chaos (reordering, duplication, jitter) must not abort:
/// all nodes complete and agree byte-for-byte, and the outcome is
/// identical to the clean run of the same seed.
#[test]
fn survivable_chaos_preserves_agreement_and_determinism() {
    let c = cfg(4, Duration::from_secs(20));
    let plan = FaultPlan {
        reorder: 0.3,
        duplicate: 0.3,
        delay: Some(thinair_netsim::DelaySpec { prob: 0.3, max_frames: 5 }),
        ..FaultPlan::none()
    };
    let run = |plan: FaultPlan| {
        drive_sim_chaos(IidMedium::symmetric(4, 0.0, 5), &c, &[1, 2], 21, plan, 77)
            .expect("batch completes")
    };
    let chaotic = run(plan);
    let clean = run(FaultPlan::none());
    assert!(chaotic.faults.total() > 0, "the plan must actually inject");
    for (outcomes, clean_outcomes) in chaotic.outcomes.iter().zip(clean.outcomes.iter()) {
        let first = &outcomes[0];
        assert!(first.completed() && first.l > 0, "chaos run should still mine a secret");
        for out in outcomes {
            assert!(out.completed(), "node {} aborted under survivable chaos", out.node);
            assert_eq!(out.secret, first.secret, "node {} diverged", out.node);
        }
        // Reordering/duplication must not change the protocol outcome.
        assert_eq!(first.secret, clean_outcomes[0].secret, "chaos changed the secret");
        assert_eq!((first.l, first.m), (clean_outcomes[0].l, clean_outcomes[0].m));
    }
}
