//! The node: one transport, one receive pump, many concurrent
//! coordinator sessions.
//!
//! A coordinator owns a single socket; the pump (the transport's one
//! receive loop, `crate::demux`) routes frames by session id to whichever
//! sessions it has open — that's how one `thinaird coordinator` process
//! multiplexes many concurrent group rounds ("session-id routing"). A
//! node admits nothing, so frames for unknown sessions are dropped and
//! counted as orphans. Terminals are [`crate::serve::Server`]s, which
//! admit each session on its coordinator's `Start`.

use crate::coordinator::run_coordinator;
use crate::demux::Demux;
use crate::rt;
use crate::session::{NetError, SessionConfig, SessionOutcome};
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

    /// Spawns the receive pump; it runs until the runtime is dropped or
    /// the socket fails. On a socket error every open session's channel
    /// is closed, so sessions fail promptly with [`NetError::Closed`]
    /// instead of idling to their deadline.
    ///
    /// The pump arms no timer: it wakes only when its transport has
    /// frames, and routes each batch in one pass.
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

    /// Runs one session as the coordinator.
    ///
    /// # Panics
    /// Panics when `session` is already open on this node.
    pub async fn coordinate(
        &self,
        session: u64,
        cfg: SessionConfig,
        seed: u64,
    ) -> Result<SessionOutcome, NetError> {
        let rx = self.demux.table().open(session, rt::now(), None);
        let result = run_coordinator(self.t.clone(), rx, session, cfg, seed).await;
        self.demux.table().retire(session, None);
        result
    }
}
