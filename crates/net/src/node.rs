//! The node: one transport, one receive pump, many concurrent sessions.
//!
//! A daemon owns a single socket; the pump task reads frames and routes
//! them by session id to whichever session state machines are open —
//! that's how one `thinaird` process multiplexes many concurrent group
//! rounds ("session-id routing"). A terminal session that completed
//! enters the pump's TIME_WAIT window ([`TimeWait`]): until its
//! deadline, a late reliable frame from its coordinator is re-acked.
//! Other frames for unknown sessions are dropped and counted.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::coordinator::run_coordinator;
use crate::frame::Frame;
use crate::reliable::TimeWait;
use crate::rt;
use crate::rt::chan::{channel, Receiver, Sender};
use crate::session::{NetError, SessionConfig, SessionOutcome};
use crate::terminal::run_terminal;
use crate::transport::{SharedTransport, Transport};

struct Routes {
    by_session: BTreeMap<u64, Sender<Frame>>,
    orphans: u64,
    /// Terminal sessions that completed here, re-acking late frames.
    time_wait: TimeWait,
}

/// One protocol node over one transport.
pub struct Node<T> {
    t: SharedTransport<T>,
    routes: Rc<RefCell<Routes>>,
}

impl<T> Clone for Node<T> {
    fn clone(&self) -> Self {
        Node { t: self.t.clone(), routes: self.routes.clone() }
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
        let routes = Routes { by_session: BTreeMap::new(), orphans: 0, time_wait: TimeWait::new() };
        Node { t, routes: Rc::new(RefCell::new(routes)) }
    }

    /// The underlying shared transport.
    pub fn transport(&self) -> SharedTransport<T> {
        self.t.clone()
    }

    /// Frames received for sessions nobody had open (TIME_WAIT re-acks
    /// excluded: they count in `node.time_wait.reacks`).
    pub fn orphan_frames(&self) -> u64 {
        self.routes.borrow().orphans
    }

    /// Spawns the receive pump; it runs until the runtime is dropped or
    /// the socket fails. On a socket error every open session's channel
    /// is closed, so sessions fail promptly with [`NetError::Closed`]
    /// instead of idling to their deadline.
    ///
    /// Receives are batched: one wakeup drains everything the transport
    /// has ready (up to [`crate::transport::DEFAULT_RECV_BATCH`] frames)
    /// and routes the whole batch under a single borrow, so a busy
    /// multiplexed socket pays per-batch, not per-frame, scheduling
    /// overhead.
    pub fn start_pump(&self) -> rt::JoinHandle<std::io::Result<()>> {
        let t = self.t.clone();
        let routes = self.routes.clone();
        let me = t.local_node();
        rt::spawn(async move {
            loop {
                let batch = match t.recv_batch(crate::transport::DEFAULT_RECV_BATCH).await {
                    Ok(batch) => batch,
                    Err(e) => {
                        eprintln!("thinair-net: receive pump failed: {e}");
                        routes.borrow_mut().by_session.clear();
                        return Err(e);
                    }
                };
                let now = rt::now();
                let mut r = routes.borrow_mut();
                for frame in batch {
                    if let Some(tx) = r.by_session.get(&frame.session) {
                        tx.send(frame);
                    } else if let Some(ack) = r.time_wait.reack(me, &frame, now) {
                        // Best-effort: a lost re-ack costs one more
                        // retransmission.
                        let _ = t.send_to(frame.sender, &ack);
                        crate::telemetry::counter_add("node.time_wait.reacks", 1);
                    } else {
                        r.orphans += 1;
                    }
                }
            }
        })
    }

    /// Opens a routing entry for `session`.
    ///
    /// # Panics
    /// Panics when the session is already open on this node.
    pub fn open_session(&self, session: u64) -> Receiver<Frame> {
        let (tx, rx) = channel();
        let prev = self.routes.borrow_mut().by_session.insert(session, tx);
        assert!(prev.is_none(), "session {session} already open");
        rx
    }

    /// Drops the routing entry for `session`.
    pub fn close_session(&self, session: u64) {
        self.routes.borrow_mut().by_session.remove(&session);
    }

    /// Runs one session as the coordinator.
    pub async fn coordinate(
        &self,
        session: u64,
        cfg: SessionConfig,
        seed: u64,
    ) -> Result<SessionOutcome, NetError> {
        let rx = self.open_session(session);
        let result = run_coordinator(self.t.clone(), rx, session, cfg, seed).await;
        self.close_session(session);
        result
    }

    /// Runs one session as a terminal. Once it completes, the session
    /// stays in TIME_WAIT until its deadline (see the module docs).
    pub async fn participate(
        &self,
        session: u64,
        cfg: SessionConfig,
        seed: u64,
    ) -> Result<SessionOutcome, NetError> {
        let rx = self.open_session(session);
        let (coordinator, until) = (cfg.coordinator, rt::now() + cfg.deadline);
        let result = run_terminal(self.t.clone(), rx, session, cfg, seed).await;
        let mut routes = self.routes.borrow_mut();
        routes.by_session.remove(&session);
        if matches!(&result, Ok(out) if out.completed()) {
            routes.time_wait.complete(session, coordinator, until);
        }
        result
    }
}
