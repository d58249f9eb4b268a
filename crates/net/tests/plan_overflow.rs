//! Wire-width boundary behavior: parameters that cannot ride the
//! protocol's `u16` fields must produce a structured
//! [`AbortReason::PlanOverflow`], never a silently truncated
//! `PlanAnnounce` (the pre-fix behavior was an unchecked `as u16`).

use thinair_core::round::XSchedule;
use thinair_net::driver::drive_sim;
use thinair_net::frame::{Frame, NetPayload, FLAG_RELIABLE};
use thinair_net::session::SessionConfig;
use thinair_net::{
    rt, AbortReason, ServeLimits, Server, SessionOutcome, SharedTransport, SimNet, Transport,
};
use thinair_netsim::IidMedium;

fn cfg_with_pool(n_packets: usize) -> SessionConfig {
    SessionConfig {
        n_nodes: 3,
        schedule: XSchedule::CoordinatorOnly(n_packets),
        payload_len: 4,
        drop_prob: 0.0,
        ..SessionConfig::default()
    }
}

/// `u16::MAX` x-packets is exactly representable: the boundary config
/// passes both the wire-bounds check and full validation.
#[test]
fn pool_at_u16_max_is_in_bounds() {
    let cfg = cfg_with_pool(u16::MAX as usize);
    assert_eq!(cfg.plan_bounds(), Ok(()));
    assert!(cfg.validate().is_ok());
    assert_eq!(cfg.n_packets(), u16::MAX as usize);
}

/// One packet past the boundary: the coordinator terminates with a
/// clean `PlanOverflow` abort naming the offending value, and the
/// session never broadcasts a single frame — so no daemon ever sees its
/// `Start`, and only the coordinator reports.
#[test]
fn pool_past_u16_max_aborts_cleanly_on_every_node() {
    let n = u16::MAX as usize + 1;
    let cfg = cfg_with_pool(n);
    assert!(cfg.plan_bounds().is_err());
    let mut run =
        drive_sim(IidMedium::symmetric(3, 0.0, 1), &cfg, &[0x0F10], 7).expect("round terminates");
    assert_eq!(run.frames, 0, "an overflowing session sends nothing");
    let outcomes = run.outcomes.remove(0);
    assert_eq!(outcomes.len(), 1, "only the coordinator ran the session");
    assert_eq!(outcomes[0].node, cfg.coordinator);
    assert_overflow(&outcomes[0], n);

    // A terminal daemon handed a `Start` for such a session aborts the
    // same way, and streams the abort.
    let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 3);
    let mut coordinator = net.transport(0);
    let start = Frame {
        flags: FLAG_RELIABLE,
        sender: 0,
        session: 0x0F10,
        seq: 0,
        payload: NetPayload::Start { digest: cfg.digest() },
    };
    coordinator.send_to(1, &start).expect("sim send");
    let mut daemon =
        Server::new(SharedTransport::new(net.transport(1)), cfg, 7, ServeLimits::default());
    let mut served = daemon.outcomes();
    let out = rt::block_on(async {
        rt::spawn(daemon.run());
        served.recv().await.expect("the daemon reports the session it admitted")
    });
    assert_eq!(out.node, 1);
    assert_overflow(&out, n);
}

fn assert_overflow(out: &SessionOutcome, n: usize) {
    match &out.abort {
        Some(AbortReason::PlanOverflow { what, value, limit }) => {
            assert_eq!(*what, "n_packets");
            assert_eq!(*value, n as u64);
            assert_eq!(*limit, u16::MAX as u64);
        }
        other => panic!("node {}: expected PlanOverflow, got {other:?}", out.node),
    }
    assert!(out.secret.is_empty(), "an overflow abort must not carry a secret");
    assert_eq!(out.key(), None);
}

/// The abort reason is machine-readable: stable kind label and an
/// informative display.
#[test]
fn plan_overflow_reason_is_structured() {
    let reason = AbortReason::PlanOverflow { what: "plan m", value: 70_000, limit: 65_535 };
    assert_eq!(reason.kind(), "plan-overflow:plan m");
    let text = reason.to_string();
    assert!(text.contains("70000") && text.contains("65535"), "got {text}");
}
