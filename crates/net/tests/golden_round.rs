//! End-to-end golden pin for the networked round: the byte-plane port
//! must derive *byte-identical* secrets to the pre-kernel scalar stack.
//!
//! The digest below was recorded from the scalar (pre-`PayloadPlane`)
//! implementation on the same configuration. The medium is lossless and
//! every erasure comes from the deterministic receiver-side injection
//! hash, so the derived secret is a pure function of the configuration
//! and seeds — independent of task scheduling and retransmission timing.

use std::time::Duration;
use thinair_core::estimate::{Estimator, Tuning};
use thinair_core::round::XSchedule;
use thinair_net::driver::drive_sim;
use thinair_net::session::SessionConfig;
use thinair_netsim::IidMedium;

fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn net_round_secret_is_byte_identical_to_scalar_stack() {
    let cfg = SessionConfig {
        n_nodes: 4,
        coordinator: 0,
        schedule: XSchedule::CoordinatorOnly(40),
        payload_len: 24,
        estimator: Estimator::LeaveOneOut(Tuning::default()),
        drop_prob: 0.45,
        drop_seed: 99,
        deadline: Duration::from_secs(60),
        ..SessionConfig::default()
    };
    let medium = IidMedium::symmetric(4, 0.0, 5);
    let outcomes =
        drive_sim(medium, &cfg, &[0xC0FFEE], 1234).expect("round completes").outcomes.remove(0);
    let first = &outcomes[0];
    for out in &outcomes {
        assert_eq!(out.secret, first.secret, "node {} disagrees", out.node);
    }
    let digest = fnv64(first.secret.iter().flat_map(|p| p.iter().map(|s| s.value())));
    // Recorded from the pre-kernel scalar implementation.
    assert_eq!((first.l, first.m, digest), (9, 15, 0x8F87_233B_6F89_9B9C));
}
