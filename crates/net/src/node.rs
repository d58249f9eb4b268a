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
//!
//! The node owns the one [`crate::reliable::FlowBudget`] its sessions
//! charge. An open that finds the window full or other opens queued
//! waits in the budget's FIFO with its route already open (its deadline
//! in the wake index), and the receive loop starts the FIFO's head after
//! each pass that leaves room.

use std::time::Instant;

use crate::coordinator::Coordinator;
use crate::demux::{Demux, Policy, Table};
use crate::reliable::SharedFlow;
use crate::rt;
use crate::rt::chan::channel;
use crate::session::{unrunnable, NetError, SessionConfig, SessionOutcome};
use crate::transport::{SharedTransport, Transport};

/// One protocol node over one transport.
pub struct Node<T> {
    t: SharedTransport<T>,
    demux: Demux,
    flow: SharedFlow,
}

impl<T> Clone for Node<T> {
    fn clone(&self) -> Self {
        Node { t: self.t.clone(), demux: self.demux.clone(), flow: self.flow.clone() }
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
        Node { t, demux: Demux::default(), flow: SharedFlow::default() }
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
        let mut node = self.clone();
        rt::spawn(async move {
            let (t, demux) = (node.t.clone(), node.demux.clone());
            let result = demux.run(&t, &mut node).await;
            if let Err(e) = &result {
                eprintln!("thinair-net: receive pump failed: {e}");
            }
            result
        })
    }

    /// Runs one session as the coordinator: opens its route at once,
    /// sending `Start` if no open waits ahead of it and the flow
    /// budget's window has room, else queued in the budget's FIFO for
    /// the receive loop ([`Node::start_pump`]) to start; the loop runs
    /// it until it ends.
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
        let coordinator = Coordinator::new(self.t.clone(), self.flow.clone(), session, cfg, seed)?;
        let (done, mut ended) = channel();
        self.demux.table().open(session, Box::new(coordinator), rt::now(), Some(done));
        ended.recv().await.unwrap_or(Err(NetError::Closed))
    }
}

impl<T: Transport + 'static> Policy for Node<T> {
    /// Starts queued opens in arrival order while the window has room:
    /// the FIFO's head takes its turn in a step of its machine, and a
    /// head whose route has already ended just leaves the queue. Every
    /// window change (ACK, release, loss cut, machine drop) happens in a
    /// pass, so nothing else needs to look.
    fn after_pass(&mut self, table: &mut Table, now: Instant) {
        loop {
            let Some(head) = self.flow.borrow().turn() else { return };
            if let Some(ended) = table.step(head, None, now) {
                self.finished(table, head, ended, now);
            }
            self.flow.borrow_mut().take_turn(head);
        }
    }
}
