//! The multi-session driver: many concurrent group rounds over any
//! transport, with measurement.
//!
//! Harnesses need every node's outcome — and, over a simulated medium,
//! the transmitted-bit ledger and the frame count — without hand-wiring
//! nodes, daemons and tasks themselves. This module is that API:
//! [`run_sessions`] runs a batch of sessions over one transport per
//! roster slot on the current runtime (the explorer awaits it under the
//! virtual clock), [`drive_loopback`] binds one loopback UDP socket per
//! node first (the `thinaird demo` subcommand, the crate doctest), and
//! [`drive_sim`] wraps a [`Medium`] in a [`SimNet`], drives the batch,
//! and returns the outcomes *plus* the simulation-side measurements
//! ([`SimRun`]). The `thinair-scenario` engine is its main consumer.
//! Real multi-process deployment runs the same roles, one process per
//! node (`thinaird coordinator` / `terminal`).
//!
//! Terminals run the way a deployment runs them: every terminal slot is
//! a [`Server`] that admits each session on its coordinator's `Start`.
//! The coordinator's slot is a [`Node`] that opens every session up
//! front, so sessions are genuinely concurrent — multiplexed by session
//! id over each node's one transport.

use std::io;
use std::net::SocketAddr;

use thinair_core::ProtocolError;
use thinair_netsim::{FaultPlan, Medium, TxStats};

use crate::chaos::FaultStats;
use crate::node::Node;
use crate::rt;
use crate::serve::{ServeLimits, Server};
use crate::session::{NetError, SessionConfig, SessionOutcome};
use crate::transport::{SharedTransport, SimNet, Transport, UdpTransport};
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
    /// `outcomes[s]`: the views of the nodes that ran session
    /// `sessions[s]`, in node order (see [`run_sessions`]).
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

/// Runs `sessions` concurrent group rounds over `transports`, one per
/// roster slot in node order, on the current runtime: a [`Node`] in the
/// coordinator's slot opens every session, and a [`Server`] with
/// [`ServeLimits::default`] in every other slot admits them.
///
/// Returns, per session in input order, the views of the nodes that ran
/// it, in node order: the coordinator's, plus each daemon's that
/// admitted it (a daemon that never saw the `Start` reports nothing).
/// Daemons are awaited until none has a session open, for at most one
/// deadline after the coordinator's sessions return: every admitted
/// terminal ends within one deadline. An infrastructure error on any
/// node fails the batch.
pub async fn run_sessions<T: Transport + 'static>(
    cfg: &SessionConfig,
    transports: Vec<T>,
    sessions: &[u64],
    seed: u64,
) -> Result<Vec<Vec<SessionOutcome>>, NetError> {
    assert_eq!(transports.len(), cfg.n_nodes as usize, "one transport per roster slot");
    if cfg.coordinator >= cfg.n_nodes {
        return Err(ProtocolError::BadConfig("coordinator outside roster").into());
    }
    let mut transports: Vec<_> = transports.into_iter().map(SharedTransport::new).collect();
    let coordinator = Node::new_shared(transports.remove(cfg.coordinator as usize));
    coordinator.start_pump();
    let daemons: Vec<_> = transports
        .into_iter()
        .map(|t| {
            let node = t.local_node();
            let mut server = Server::new(t, cfg.clone(), seed, ServeLimits::default());
            (node, server.handle(), server.outcomes(), rt::spawn(server.run()))
        })
        .collect();
    let tasks: Vec<_> = sessions
        .iter()
        .map(|&session| {
            let (node, cfg) = (coordinator.clone(), cfg.clone());
            let seed = task_seed(seed, session, cfg.coordinator);
            rt::spawn(async move { node.coordinate(session, cfg, seed).await })
        })
        .collect();
    let mut outcomes = Vec::with_capacity(sessions.len());
    for task in tasks {
        outcomes.push(vec![task.await?]);
    }
    let until = rt::now() + cfg.deadline;
    for (node, handle, mut served, run) in daemons {
        // A session's outcome is sent as its route closes, so once none
        // is open every outcome is queued.
        let mut collected = Vec::new();
        while handle.open_sessions() > 0 {
            match rt::timeout_at(until, served.recv()).await {
                Ok(Some(out)) => collected.push(out),
                _ => break,
            }
        }
        collected.extend(std::iter::from_fn(|| served.try_recv()));
        handle.stop();
        let failed = run.await?.failed;
        if failed > 0 {
            let e = io::Error::other(format!("node {node}: {failed} served session(s) failed"));
            return Err(NetError::Io(e));
        }
        for out in collected {
            if let Some(s) = sessions.iter().position(|&s| s == out.session) {
                outcomes[s].push(out);
            }
        }
    }
    outcomes.iter_mut().for_each(|per_session| per_session.sort_by_key(|o| o.node));
    Ok(outcomes)
}

/// Runs `sessions` concurrent group rounds with `cfg.n_nodes` nodes over
/// loopback UDP sockets, one socket per node, every node's sessions
/// multiplexed through its one receive loop. Returns the outcomes of
/// [`run_sessions`].
pub fn drive_loopback(
    cfg: &SessionConfig,
    sessions: &[u64],
    seed: u64,
) -> Result<Vec<Vec<SessionOutcome>>, NetError> {
    let n = cfg.n_nodes as usize;
    // Bind first so the full roster is known to every node. `n <= 256`
    // by type, so the `i as u8` node ids below cannot wrap.
    let socks: Vec<AsyncUdpSocket> =
        (0..n).map(|_| AsyncUdpSocket::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = socks.iter().map(|s| s.local_addr()).collect::<io::Result<_>>()?;
    let transports = socks
        .into_iter()
        .enumerate()
        .map(|(i, s)| UdpTransport::new(s, addrs.clone(), i as u8))
        .collect();
    rt::block_on(run_sessions(cfg, transports, sessions, seed))
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
/// harness gets the view of every node that ran each session.
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
    let transports = (0..n).map(|i| net.transport(i as u8)).collect();
    let outcomes = rt::block_on(run_sessions(cfg, transports, sessions, seed))?;
    Ok(SimRun {
        outcomes,
        stats: net.stats(),
        frames: net.frames_transmitted(),
        faults: net.fault_stats(),
    })
}
