//! End-to-end integration: full group rounds over real loopback UDP
//! sockets and over the simulated medium, with the identical state
//! machines.

use std::time::{Duration, Instant};

use thinair_core::estimate::{Estimator, Tuning};
use thinair_core::round::XSchedule;
use thinair_net::driver::{drive_loopback, drive_sim};
use thinair_net::session::SessionConfig;
use thinair_netsim::IidMedium;

fn cfg(n_nodes: u8) -> SessionConfig {
    SessionConfig {
        n_nodes,
        coordinator: 0,
        schedule: XSchedule::CoordinatorOnly(60),
        payload_len: 24,
        estimator: Estimator::LeaveOneOut(Tuning::default()),
        drop_prob: 0.4,
        drop_seed: 7,
        deadline: Duration::from_secs(60),
        ..SessionConfig::default()
    }
}

/// The acceptance bar: 3 terminal tasks + 1 coordinator complete a full
/// group round over loopback UDP sockets and derive byte-identical
/// group secrets.
#[test]
fn udp_round_four_nodes_agree() {
    let outcomes = drive_loopback(&cfg(4), &[0xA11CE], 42).expect("round completes").remove(0);
    assert_eq!(outcomes.len(), 4);
    let first = &outcomes[0];
    assert!(first.l > 0, "expected a nonempty secret at drop 0.4");
    assert_eq!(first.secret.len(), first.l);
    for out in &outcomes {
        assert_eq!(out.l, first.l);
        assert_eq!(out.m, first.m);
        assert_eq!(out.secret, first.secret, "node {} derived a different secret", out.node);
        assert_eq!(out.key(), first.key());
    }
    // The key actually carries the secret's entropy.
    assert!(first.key().is_some());
}

/// Session-id routing: several rounds run concurrently, multiplexed
/// over each node's single socket, and stay isolated.
#[test]
fn udp_concurrent_sessions_multiplex_on_one_socket() {
    let sessions = [1u64, 2, 3];
    let all = drive_loopback(&cfg(4), &sessions, 7).expect("all sessions complete");
    assert_eq!(all.len(), 3);
    let mut secrets = Vec::new();
    for (s, outcomes) in sessions.iter().zip(&all) {
        assert_eq!(outcomes.len(), 4, "session {s}: every node reports");
        let first = &outcomes[0];
        assert!(first.l > 0, "session {s}: empty secret");
        for out in outcomes {
            assert_eq!(out.session, *s);
            assert_eq!(out.secret, first.secret, "session {s} node {} disagrees", out.node);
        }
        secrets.push(first.secret.clone());
    }
    // Different sessions must not share secrets (independent payloads).
    assert_ne!(secrets[0], secrets[1]);
    assert_ne!(secrets[1], secrets[2]);
}

/// The same state machines pass the equivalent round when the transport
/// is the simulated broadcast medium (losses from the medium, injection
/// off) — the sim ↔ network equivalence the Transport trait exists for.
///
/// The medium erases control frames too, Fin-acks included, so the round
/// also pins liveness: terminals return at their acked `Fin`, and their
/// daemons' TIME_WAIT windows must re-ack the coordinator's retransmits,
/// or the coordinator runs to its deadline.
#[test]
fn sim_round_same_state_machines_agree() {
    let c = SessionConfig {
        drop_prob: 0.0, // the medium supplies the erasures
        ..cfg(4)
    };
    // 4 protocol nodes + one extra medium node standing where Eve would.
    let medium = IidMedium::symmetric(5, 0.3, 9);
    let started = Instant::now();
    let mut run = drive_sim(medium, &c, &[0x51B], 31).expect("sim round completes");
    let outcomes = run.outcomes.remove(0);
    let elapsed = started.elapsed();
    assert!(elapsed < c.deadline / 4, "the round ran toward its deadline: {elapsed:?}");
    assert_eq!(outcomes.len(), 4, "every node reports");
    let first = &outcomes[0];
    assert!(first.l > 0, "expected a nonempty secret at p = 0.3");
    for out in &outcomes {
        assert_eq!(out.secret, first.secret, "node {} derived a different secret", out.node);
    }
}

/// More terminals still converge (5 nodes = 1 coordinator + 4 terminals).
#[test]
fn udp_five_nodes_agree() {
    let outcomes = drive_loopback(&cfg(5), &[5], 11).expect("round completes").remove(0);
    assert_eq!(outcomes.len(), 5, "every node reports");
    let first = &outcomes[0];
    for out in &outcomes {
        assert_eq!(out.secret, first.secret);
    }
    assert!(first.l > 0);
}

/// A lossless network yields L = 0 — every leave-one-out candidate Eve
/// heard everything, so the estimator grants no budget. The round must
/// still terminate cleanly on every node with an empty secret.
#[test]
fn lossless_round_degrades_to_empty_secret() {
    let c = SessionConfig { drop_prob: 0.0, ..cfg(3) };
    let outcomes = drive_loopback(&c, &[77], 3).expect("round completes").remove(0);
    assert_eq!(outcomes.len(), 3, "every node reports");
    for out in &outcomes {
        assert_eq!(out.l, 0);
        assert!(out.secret.is_empty());
        assert!(out.key().is_none());
    }
}
