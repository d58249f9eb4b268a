//! One receive loop per transport, routing every frame by session id.
//!
//! [`Demux`] owns a transport's session routes, its TIME_WAIT window
//! ([`TimeWait`]) and its orphan count; [`Demux::run`] is the batched
//! receive loop that [`crate::node::Node`] and [`crate::serve::Server`]
//! both run, and [`Demux::dispatch`] gives each frame exactly one fate:
//! routed to its session's channel; re-acked from TIME_WAIT, with no task
//! and no slot (`demux.time_wait.reacks`); claimed by the owner's
//! [`Policy`] (a daemon's admission); or orphaned (`demux.orphans`). The
//! loop reads time only through [`rt::now`], so it runs unchanged under
//! the virtual clock, and one wakeup routes everything the transport has
//! ready (up to [`DEFAULT_RECV_BATCH`] frames) in one pass, so a busy
//! socket pays scheduling overhead per batch, not per frame.

use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::future::{poll_fn, Future};
use std::io;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::frame::Frame;
use crate::reliable::TimeWait;
use crate::rt;
use crate::rt::chan::{channel, Receiver, Sender};
use crate::transport::{SharedTransport, Transport, DEFAULT_RECV_BATCH};

/// One open session's route.
pub(crate) struct Route {
    tx: Sender<Frame>,
    /// When a frame was last routed here (idle eviction).
    last_frame: Instant,
    /// Anchors the TIME_WAIT deadline and the serve slot-hold histogram.
    pub(crate) opened: Instant,
}

/// The routing state of one transport.
#[derive(Default)]
pub(crate) struct Table {
    routes: BTreeMap<u64, Route>,
    /// Recently finished ids: spent, and re-acking if they completed.
    pub(crate) time_wait: TimeWait,
    /// Frames no route, TIME_WAIT entry or policy claimed.
    pub(crate) orphans: u64,
}

impl Table {
    /// Open routes.
    pub(crate) fn len(&self) -> usize {
        self.routes.len()
    }

    /// Opens `session`'s route, with `first` (the frame that admitted
    /// it, if any) already on the returned channel.
    ///
    /// # Panics
    /// Panics when `session` already has a route.
    pub(crate) fn open(
        &mut self,
        session: u64,
        now: Instant,
        first: Option<Frame>,
    ) -> Receiver<Frame> {
        let (tx, rx) = channel();
        if let Some(frame) = first {
            tx.send(frame);
        }
        let prev = self.routes.insert(session, Route { tx, last_frame: now, opened: now });
        // lint: allow(panic): API contract — a node opens an id once, and
        // the serve policy opens only ids no route claims.
        assert!(prev.is_none(), "session {session} already open");
        rx
    }

    /// Delivers `frame` on its session's route; hands it back when no
    /// route claims it.
    pub(crate) fn route(&mut self, frame: Frame, now: Instant) -> Result<(), Frame> {
        match self.routes.get_mut(&frame.session) {
            Some(r) => {
                r.last_frame = now;
                r.tx.send(frame);
                Ok(())
            }
            None => Err(frame),
        }
    }

    /// Closes `session`'s route (its channel closes) and retires the id
    /// into TIME_WAIT: with `reack = Some((coordinator, deadline))`, for
    /// a terminal that completed, it re-acks that coordinator's late
    /// reliable frames until `deadline` after the route opened; otherwise
    /// it is only spent. Returns the route; `None` if it was already gone
    /// (evicted, or closed on socket death).
    pub(crate) fn retire(&mut self, session: u64, reack: Option<(u8, Duration)>) -> Option<Route> {
        let route = self.routes.remove(&session);
        match (&route, reack) {
            (Some(r), Some((coordinator, deadline))) => {
                self.time_wait.complete(session, coordinator, r.opened + deadline);
            }
            _ => self.time_wait.mark_spent(session),
        }
        route
    }

    /// Closes every route idle for `idle` or longer and marks its id
    /// spent, in ascending id order; returns how many closed.
    pub(crate) fn evict_idle(&mut self, now: Instant, idle: Duration) -> usize {
        let mut evicted = Vec::new();
        self.routes.retain(|&session, r| {
            let keep = now.duration_since(r.last_frame) < idle;
            if !keep {
                evicted.push(session);
            }
            keep
        });
        for &session in &evicted {
            self.time_wait.mark_spent(session);
        }
        evicted.len()
    }
}

/// What the owner of a receive loop decides. `()` is a node's policy: it
/// claims nothing (every unclaimed frame is an orphan) and arms no timer,
/// so its loop wakes only on its transport.
pub(crate) trait Policy {
    /// Takes a frame no route claims and TIME_WAIT does not answer;
    /// `false` leaves it an orphan.
    fn unrouted(&mut self, _table: &mut Table, _frame: Frame, _now: Instant) -> bool {
        false
    }

    /// Runs after every pass: each batch, and each timed wake.
    fn after_pass(&mut self, _table: &mut Table, _now: Instant) {}

    /// When the loop must wake with no traffic; `None` arms no timer.
    fn next_wake(&self) -> Option<Instant> {
        None
    }

    /// Ready once the loop should return.
    fn poll_stop(&mut self, _cx: &mut Context<'_>) -> Poll<()> {
        Poll::Pending
    }
}

impl Policy for () {}

/// One transport's demultiplexer; clones share one [`Table`].
#[derive(Clone, Default)]
pub(crate) struct Demux {
    table: Rc<RefCell<Table>>,
}

impl Demux {
    /// The routing table. Never held across an `.await`.
    pub(crate) fn table(&self) -> RefMut<'_, Table> {
        self.table.borrow_mut()
    }

    /// The receive loop over `t`: waits for a batch, the policy's next
    /// wake or its stop, and dispatches the batch. Returns `Ok` once the
    /// policy stops it. A socket error closes every route, so open
    /// sessions fail at once with [`crate::session::NetError::Closed`]
    /// instead of idling to their deadline, and is returned.
    pub(crate) async fn run<T: Transport>(
        &self,
        t: &SharedTransport<T>,
        policy: &mut impl Policy,
    ) -> io::Result<()> {
        loop {
            let mut recv = t.recv_batch(DEFAULT_RECV_BATCH);
            let mut wake = policy.next_wake().map(rt::sleep_until);
            let woke = poll_fn(|cx| {
                if policy.poll_stop(cx).is_ready() {
                    return Poll::Ready(None);
                }
                if let Poll::Ready(batch) = Pin::new(&mut recv).poll(cx) {
                    return Poll::Ready(Some(batch));
                }
                match wake.as_mut().map(|s| Pin::new(s).poll(cx)) {
                    Some(Poll::Ready(())) => Poll::Ready(Some(Ok(Vec::new()))),
                    _ => Poll::Pending,
                }
            })
            .await;
            match woke {
                None => return Ok(()),
                Some(Ok(batch)) => self.dispatch(t, policy, batch, rt::now()),
                Some(Err(e)) => {
                    self.table().routes.clear();
                    return Err(e);
                }
            }
        }
    }

    /// One routing pass, under one borrow: each frame's fate (see the
    /// module docs), then the policy's [`Policy::after_pass`].
    pub(crate) fn dispatch<T: Transport>(
        &self,
        t: &SharedTransport<T>,
        policy: &mut impl Policy,
        batch: Vec<Frame>,
        now: Instant,
    ) {
        let me = t.local_node();
        let mut table = self.table();
        for frame in batch {
            let Err(frame) = table.route(frame, now) else { continue };
            if let Some(ack) = table.time_wait.reack(me, &frame, now) {
                // Best-effort: a lost re-ack costs one more retransmission.
                let _ = t.send_to(frame.sender, &ack);
                crate::telemetry::counter_add("demux.time_wait.reacks", 1);
            } else if !policy.unrouted(&mut table, frame, now) {
                table.orphans += 1;
                crate::telemetry::counter_add("demux.orphans", 1);
            }
        }
        policy.after_pass(&mut table, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{NetPayload, FLAG_RELIABLE};
    use crate::transport::SimNet;
    use thinair_netsim::IidMedium;

    fn fin(session: u64) -> Frame {
        Frame { flags: FLAG_RELIABLE, sender: 0, session, seq: 3, payload: NetPayload::Fin }
    }

    /// A node's loop (policy `()`): routed frames reach their session,
    /// a completed terminal's late `Fin` is re-acked until its deadline,
    /// and everything else is an orphan.
    #[test]
    fn node_policy_routes_reacks_and_orphans() {
        let net = SimNet::new(IidMedium::symmetric(2, 0.0, 1), 2);
        let t = SharedTransport::new(net.transport(1));
        let demux = Demux::default();
        let t0 = Instant::now();
        let deadline = Duration::from_secs(5);
        let mut rx = demux.table().open(7, t0, None);
        demux.dispatch(&t, &mut (), vec![fin(7), fin(8)], t0);
        assert_eq!(rx.try_recv().map(|f| f.session), Some(7), "routed");
        assert_eq!(demux.table().orphans, 1, "no route, no TIME_WAIT entry");
        // Completed: late Fins from its coordinator are re-acked, not
        // orphaned, until the deadline after the route opened.
        assert!(demux.table().retire(7, Some((0, deadline))).is_some());
        let sent = net.frames_transmitted();
        demux.dispatch(&t, &mut (), vec![fin(7)], t0 + deadline / 2);
        assert_eq!((net.frames_transmitted(), demux.table().orphans), (sent + 1, 1));
        demux.dispatch(&t, &mut (), vec![fin(7)], t0 + deadline);
        assert_eq!(demux.table().orphans, 2, "the window closed at the deadline");
        // Not completed: spent, never answered; a route gone already
        // retires as spent too.
        let _rx = demux.table().open(9, t0, None);
        demux.table().retire(9, None);
        assert!(demux.table().retire(9, Some((0, deadline))).is_none());
        demux.dispatch(&t, &mut (), vec![fin(9)], t0);
        assert_eq!((net.frames_transmitted(), demux.table().orphans), (sent + 1, 3));
        assert_eq!(demux.table().len(), 0);
    }
}
