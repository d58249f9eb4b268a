//! The node: one transport, one receive loop, many concurrent
//! coordinator sessions.
//!
//! A coordinator owns a single socket; its receive loop (`crate::demux`)
//! routes frames by session id to the sessions it has open and steps
//! each one's state machine inline — that's how one `thinaird
//! coordinator` process multiplexes many concurrent group rounds. A node
//! admits nothing, so frames for unknown sessions are orphans.
//! Terminals are [`crate::serve::Server`]s, which admit each session on
//! its coordinator's `Start`.

use crate::coordinator::Coordinator;
use crate::demux::{Demux, Machine};
use crate::reliable::FlowBudget;
use crate::rt;
use crate::rt::chan::channel;
use crate::session::{unrunnable, NetError, SessionConfig, SessionOutcome};
use crate::transport::{SharedTransport, Transport};

/// One protocol node over one transport.
pub struct Node<T> {
    t: SharedTransport<T>,
    demux: Demux,
}

impl<T> Clone for Node<T> {
    fn clone(&self) -> Self {
        Node { t: self.t.clone(), demux: self.demux.clone() }
    }
}

impl<T: Transport + 'static> Node<T> {
    /// Wraps a transport.
    pub fn new(transport: T) -> Self {
        Self::new_shared(SharedTransport::new(transport))
    }

    /// Wraps an already-shared transport (e.g. when a harness keeps its
    /// own handle to read counters after the node is done).
    pub fn new_shared(t: SharedTransport<T>) -> Self {
        Node { t, demux: Demux::default() }
    }

    /// Frames received for sessions nobody had open.
    pub fn orphan_frames(&self) -> u64 {
        self.demux.table().orphans
    }

    /// Spawns the receive loop, which runs every session this node opens
    /// (under one timer) until the runtime is dropped or the socket
    /// fails; then each session, open or opened later, fails at once
    /// with [`NetError::Closed`].
    pub fn start_pump(&self) -> rt::JoinHandle<std::io::Result<()>> {
        let (t, demux) = (self.t.clone(), self.demux.clone());
        rt::spawn(async move {
            let result = demux.run(&t, &mut ()).await;
            if let Err(e) = &result {
                eprintln!("thinair-net: receive pump failed: {e}");
            }
            result
        })
    }

    /// Runs one session as the coordinator: waits its turn in the flow
    /// budget's admission FIFO, sends `Start`, and hands the session to
    /// the receive loop ([`Node::start_pump`]) until it ends.
    ///
    /// # Panics
    /// Panics when `session` is already open on this node.
    pub async fn coordinate(
        &self,
        session: u64,
        cfg: SessionConfig,
        seed: u64,
    ) -> Result<SessionOutcome, NetError> {
        if let Some(ended) = unrunnable(&cfg, session, cfg.coordinator) {
            return ended;
        }
        let mut coordinator = Coordinator::new(self.t.clone(), session, cfg, seed);
        // The start barrier begins with a turn in the flow budget's FIFO,
        // which arms no timer: only the deadline (the wake before `Start`).
        let admitted = rt::timeout_at(coordinator.wake(), FlowBudget::admit(&self.t.flow()));
        if admitted.await.is_err() {
            return Ok(coordinator.unadmitted());
        }
        coordinator.start()?;
        let (done, mut ended) = channel();
        self.demux.table().open(session, Box::new(coordinator), rt::now(), Some(done));
        ended.recv().await.unwrap_or(Err(NetError::Closed))
    }
}
