//! The multi-session driver: many concurrent group rounds over any
//! transport, with measurement.
//!
//! Harnesses need every node's outcome — and, over a simulated medium,
//! the transmitted-bit ledger and the frame count — without hand-wiring
//! nodes, pumps and tasks themselves. This module is that API:
//! [`drive_nodes`] runs a batch of sessions across an arbitrary set of
//! prepared nodes, [`drive_loopback`] binds one loopback UDP socket per
//! node first (the `thinaird demo` subcommand, the crate doctest), and
//! [`drive_sim`] wraps a [`Medium`] in a [`SimNet`], drives the batch,
//! and returns the outcomes *plus* the simulation-side measurements
//! ([`SimRun`]). The `thinair-scenario` engine is its main consumer.
//! Real multi-process deployment runs the same state machines, one
//! process per node (`thinaird coordinator` / `terminal`).
//!
//! Every (session, node) role task is spawned up front, so sessions are
//! genuinely concurrent — multiplexed by session id over each node's one
//! transport, exercising the same routing a long-lived daemon uses.

use std::net::SocketAddr;

use thinair_netsim::{FaultPlan, Medium, TxStats};

use crate::chaos::FaultStats;
use crate::node::Node;
use crate::rt;
use crate::session::{NetError, SessionConfig, SessionOutcome};
use crate::transport::{SimNet, Transport, UdpTransport};
use crate::udp::AsyncUdpSocket;

/// Mixes a per-task seed out of the run seed, the session id and the
/// node id, so no two tasks draw identical payload streams.
pub fn task_seed(seed: u64, session: u64, node: u8) -> u64 {
    crate::session::splitmix64(
        seed ^ session.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (node as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

/// Outcomes plus simulation-side measurements of one [`drive_sim`] batch.
pub struct SimRun {
    /// `outcomes[s][node]`: every node's view of session `sessions[s]`.
    pub outcomes: Vec<Vec<SessionOutcome>>,
    /// Per-node transmitted-bit ledger (the efficiency denominator).
    pub stats: TxStats,
    /// Frames put on the air (one medium transmission each).
    pub frames: u64,
    /// Faults the chaos layer injected (all zero without a
    /// [`FaultPlan`]; timing-class, like the frame counters).
    pub faults: FaultStats,
}

impl SimRun {
    /// Total bits transmitted across every node and session.
    pub fn bits_transmitted(&self) -> u64 {
        self.stats.total()
    }
}

/// Runs `sessions` concurrent group rounds across the prepared `nodes`
/// (node `i` plays `cfg.coordinator`'s role iff `i == cfg.coordinator`).
/// Returns `outcomes[s][node]` in input order.
pub fn drive_nodes<T: Transport + 'static>(
    cfg: &SessionConfig,
    nodes: &[Node<T>],
    sessions: &[u64],
    seed: u64,
) -> Result<Vec<Vec<SessionOutcome>>, NetError> {
    let n = cfg.n_nodes as usize;
    assert_eq!(nodes.len(), n, "one node per roster slot");
    // Node ids ride the wire as u8. `cfg.n_nodes` is itself a u8, so the
    // `i as u8` casts below cannot wrap; rosters beyond 256 nodes are
    // rejected at transport construction (`UdpTransport::new`,
    // `SimNet::build`) — a construction-time error, never a wrap.
    debug_assert!(n <= u8::MAX as usize + 1);
    rt::block_on(async {
        for node in nodes {
            node.start_pump();
        }
        // Spawn every (session, node) role task up front: sessions truly
        // run concurrently, multiplexed over each node's one socket.
        let mut handles: Vec<Vec<rt::JoinHandle<Result<SessionOutcome, NetError>>>> =
            Vec::with_capacity(sessions.len());
        for &session in sessions {
            let mut per_session = Vec::with_capacity(n);
            for (i, node) in nodes.iter().enumerate() {
                let node = node.clone();
                let cfg = cfg.clone();
                let task_seed = task_seed(seed, session, i as u8);
                let role = i as u8 == cfg.coordinator;
                per_session.push(rt::spawn(async move {
                    if role {
                        node.coordinate(session, cfg, task_seed).await
                    } else {
                        node.participate(session, cfg, task_seed).await
                    }
                }));
            }
            handles.push(per_session);
        }
        let mut all = Vec::with_capacity(sessions.len());
        for per_session in handles {
            let mut outcomes = Vec::with_capacity(n);
            for h in per_session {
                outcomes.push(h.await?);
            }
            all.push(outcomes);
        }
        Ok(all)
    })
}

/// Runs `sessions` concurrent group rounds with `cfg.n_nodes` nodes over
/// loopback UDP sockets, one socket per node, every node's sessions
/// multiplexed through its one receive loop. Returns
/// `outcomes[s][node]` in input order.
pub fn drive_loopback(
    cfg: &SessionConfig,
    sessions: &[u64],
    seed: u64,
) -> Result<Vec<Vec<SessionOutcome>>, NetError> {
    let n = cfg.n_nodes as usize;
    // Bind first so the full roster is known to every node. `n <= 256`
    // by type, so the `i as u8` node ids below cannot wrap.
    let socks: Vec<AsyncUdpSocket> =
        (0..n).map(|_| AsyncUdpSocket::bind("127.0.0.1:0")).collect::<std::io::Result<_>>()?;
    let addrs: Vec<SocketAddr> =
        socks.iter().map(|s| s.local_addr()).collect::<std::io::Result<_>>()?;
    let nodes: Vec<Node<UdpTransport>> = socks
        .into_iter()
        .enumerate()
        .map(|(i, s)| Node::new(UdpTransport::new(s, addrs.clone(), i as u8)))
        .collect();
    drive_nodes(cfg, &nodes, sessions, seed)
}

/// Drives a batch of sessions over a simulated [`Medium`] and returns
/// outcomes plus measurements. Medium nodes beyond `cfg.n_nodes` (e.g. a
/// trailing Eve antenna) receive nothing but shape every delivery.
pub fn drive_sim<M: Medium + 'static>(
    medium: M,
    cfg: &SessionConfig,
    sessions: &[u64],
    seed: u64,
) -> Result<SimRun, NetError> {
    drive_sim_chaos(medium, cfg, sessions, seed, FaultPlan::none(), 0)
}

/// [`drive_sim`] with an adversarial chaos layer: every frame passes
/// through `plan`'s deterministic fault schedule under `fault_seed`
/// (see [`crate::chaos`]). Sessions hit by unsurvivable faults
/// terminate with clean structured aborts
/// ([`SessionOutcome::abort`]) instead of failing the batch, so a soak
/// harness gets every node's view of every session.
pub fn drive_sim_chaos<M: Medium + 'static>(
    medium: M,
    cfg: &SessionConfig,
    sessions: &[u64],
    seed: u64,
    plan: FaultPlan,
    fault_seed: u64,
) -> Result<SimRun, NetError> {
    let n = cfg.n_nodes as usize;
    let net = SimNet::with_faults(medium, n, plan, fault_seed, cfg.coordinator);
    let nodes: Vec<_> = (0..n).map(|i| Node::new(net.transport(i as u8))).collect();
    let outcomes = drive_nodes(cfg, &nodes, sessions, seed)?;
    Ok(SimRun {
        outcomes,
        stats: net.stats(),
        frames: net.frames_transmitted(),
        faults: net.fault_stats(),
    })
}
