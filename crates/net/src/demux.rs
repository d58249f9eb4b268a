//! One receive loop per transport, driving every session inline.
//!
//! [`Demux`] owns a transport's routes, each holding its session's role
//! state machine ([`Machine`]), their wake index, a TIME_WAIT window and
//! an orphan count. [`Demux::run`] is the loop [`crate::node::Node`] and
//! [`crate::serve::Server`] both run; [`Demux::dispatch`] gives each
//! frame one fate — a step of its session's machine, a TIME_WAIT re-ack
//! (`demux.time_wait.reacks`), the owner's [`Policy`] (a daemon's
//! admission), or an orphan (`demux.orphans`) — then steps every session
//! whose wake is due, under one timer for all, and hands the pass to the
//! policy (a node starts its queued opens there). Time comes only from
//! [`rt::now`], so the loop runs unchanged under the virtual clock.

use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, BTreeSet};
use std::future::{poll_fn, Future};
use std::io;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use crate::frame::Frame;
use crate::reliable::TimeWait;
use crate::rt;
use crate::rt::chan::Sender;
use crate::session::Ended;
use crate::transport::{SharedTransport, Transport, DEFAULT_RECV_BATCH};

/// A session's role state machine, as the receive loop drives it.
pub(crate) trait Machine {
    /// Feeds a frame of the session, or with `None` a wake, at `now`;
    /// `Some` once the session has ended.
    fn step(&mut self, frame: Option<Frame>, now: Instant) -> Option<Ended>;

    /// When to step it without a frame: after a step's `now`, unless it
    /// entered a phase with work due at once (the same pass steps it).
    fn wake(&self) -> Instant;
}

/// One open session's route.
pub(crate) struct Route {
    machine: Box<dyn Machine>,
    /// The machine's wake, as indexed.
    wake: Instant,
    /// When a frame was last routed here (idle eviction).
    last_frame: Instant,
    /// Anchors the TIME_WAIT deadline and the serve slot-hold histogram.
    pub(crate) opened: Instant,
    /// Where a `Node::coordinate` call awaits the session's end.
    done: Option<Sender<Ended>>,
}

/// The routing state of one transport.
#[derive(Default)]
pub(crate) struct Table {
    routes: BTreeMap<u64, Route>,
    /// Every open session's wake, earliest first.
    wakes: BTreeSet<(Instant, u64)>,
    /// While the loop is parked: its waker and its timer's instant. An
    /// open that wakes sooner wakes it to re-arm.
    parked: Option<(Waker, Option<Instant>)>,
    /// The socket failed and the loop returned: nothing opens.
    closed: bool,
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

    /// Opens `session`'s route around its `machine`, its end to go to
    /// `done` if given ([`Policy::finished`]). After a socket failure
    /// nothing opens, and the dropped `done` reads as `Closed`.
    ///
    /// # Panics
    /// Panics when `session` already has a route.
    pub(crate) fn open(
        &mut self,
        session: u64,
        machine: Box<dyn Machine>,
        now: Instant,
        done: Option<Sender<Ended>>,
    ) {
        if self.closed {
            return;
        }
        let wake = machine.wake();
        let route = Route { machine, wake, last_frame: now, opened: now, done };
        let prev = self.routes.insert(session, route);
        // lint: allow(panic): API contract — a node opens an id once, and
        // the serve policy opens only ids no route claims.
        assert!(prev.is_none(), "session {session} already open");
        self.wakes.insert((wake, session));
        if let Some((waker, _)) = self.parked.take_if(|(_, at)| at.is_none_or(|at| wake < at)) {
            waker.wake();
        }
    }

    /// Steps the machine of `frame`'s session with it; hands the frame
    /// back when no route claims it.
    pub(crate) fn route(&mut self, frame: Frame, now: Instant) -> Result<Option<Ended>, Frame> {
        let Some(r) = self.routes.get_mut(&frame.session) else { return Err(frame) };
        r.last_frame = now;
        Ok(self.step(frame.session, Some(frame), now))
    }

    /// Steps `session`'s machine at a fresh clock reading (deadlines set
    /// late in a long pass must not bunch at its start) and re-indexes
    /// its wake; an ended session's route stays, unindexed, for the
    /// policy to retire. `None` when no route has it.
    pub(crate) fn step(
        &mut self,
        session: u64,
        frame: Option<Frame>,
        now: Instant,
    ) -> Option<Ended> {
        let r = self.routes.get_mut(&session)?;
        let ended = r.machine.step(frame, now.max(rt::now()));
        if ended.is_some() {
            self.wakes.remove(&(r.wake, session));
        } else if r.machine.wake() != r.wake {
            self.wakes.remove(&(r.wake, session));
            r.wake = r.machine.wake();
            self.wakes.insert((r.wake, session));
        }
        ended
    }

    /// Closes `session`'s route; its machine drops.
    fn close(&mut self, session: u64) -> Option<Route> {
        let route = self.routes.remove(&session)?;
        self.wakes.remove(&(route.wake, session));
        Some(route)
    }

    /// Closes `session`'s route and retires the id into TIME_WAIT: with
    /// `reack = Some((coordinator, deadline))`, for a terminal that
    /// completed, it re-acks that coordinator's late reliable frames
    /// until `deadline` after the route opened; otherwise it is only
    /// spent. Returns the route; `None` if it had none.
    pub(crate) fn retire(&mut self, session: u64, reack: Option<(u8, Duration)>) -> Option<Route> {
        let route = self.close(session);
        match (&route, reack) {
            (Some(r), Some((coordinator, deadline))) => {
                self.time_wait.complete(session, coordinator, r.opened + deadline);
            }
            _ => self.time_wait.mark_spent(session),
        }
        route
    }

    /// Closes every route idle for `idle` or longer (its machine drops
    /// and never reports) and marks its id spent, in ascending id order;
    /// returns how many closed.
    pub(crate) fn evict_idle(&mut self, now: Instant, idle: Duration) -> usize {
        let idle = |r: &Route| now.duration_since(r.last_frame) >= idle;
        let evicted: Vec<u64> =
            self.routes.iter().filter(|(_, r)| idle(r)).map(|(&s, _)| s).collect();
        for &session in &evicted {
            self.close(session);
            self.time_wait.mark_spent(session);
        }
        evicted.len()
    }
}

/// What the owner of a receive loop decides. The defaults are a node's:
/// it claims no frame, arms no timer of its own, and hands each
/// session's end to the `coordinate` call awaiting it.
pub(crate) trait Policy {
    /// Takes a frame no route claims and TIME_WAIT does not answer;
    /// `false` leaves it an orphan.
    fn unrouted(&mut self, _table: &mut Table, _frame: Frame, _now: Instant) -> bool {
        false
    }

    /// Takes the end of `session`, whose route it must retire. A node
    /// spends the id and sends the end to the route's awaiting call.
    fn finished(&mut self, table: &mut Table, session: u64, ended: Ended, _now: Instant) {
        if let Some(Route { done: Some(done), .. }) = table.retire(session, None) {
            done.send(ended);
        }
    }

    /// Runs after every pass: each batch, and each timed wake.
    fn after_pass(&mut self, _table: &mut Table, _now: Instant) {}

    /// When the loop must wake even with no traffic and no session due,
    /// given its routes.
    fn next_wake(&self, _table: &Table) -> Option<Instant> {
        None
    }

    /// Ready once the loop should return.
    fn poll_stop(&mut self, _cx: &mut Context<'_>) -> Poll<()> {
        Poll::Pending
    }
}

/// How long the receive loop works through back-to-back batches before
/// it yields, so due timers (a load generator's next arrival, say) and
/// the tasks they wake get their turn.
const YIELD_AFTER: Duration = Duration::from_millis(1);

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

    /// The receive loop over `t`: waits for a batch, the earliest wake
    /// or the policy's stop, and dispatches; `Ok` once stopped. A socket
    /// error ends every session at once, and is returned.
    pub(crate) async fn run<T: Transport>(
        &self,
        t: &SharedTransport<T>,
        policy: &mut impl Policy,
    ) -> io::Result<()> {
        // The one timer and its instant, re-armed when the head moves.
        let mut timer: Option<(Instant, rt::Sleep)> = None;
        // Since when the loop has worked without waiting or yielding.
        let mut working_since = None;
        loop {
            let mut recv = t.recv_batch(DEFAULT_RECV_BATCH);
            let woke = poll_fn(|cx| {
                if policy.poll_stop(cx).is_ready() {
                    return Poll::Ready(None);
                }
                if let Poll::Ready(batch) = Pin::new(&mut recv).poll(cx) {
                    return Poll::Ready(Some(batch));
                }
                let mut table = self.table();
                let head = table.wakes.first().map(|&(wake, _)| wake).into_iter();
                let head = head.chain(policy.next_wake(&table)).min();
                if timer.as_ref().map(|(at, _)| *at) != head {
                    timer = head.map(|at| (at, rt::sleep_until(at)));
                }
                if let Some((_, sleep)) = timer.as_mut() {
                    if Pin::new(sleep).poll(cx).is_ready() {
                        timer = None;
                        return Poll::Ready(Some(Ok(Vec::new())));
                    }
                }
                table.parked = Some((cx.waker().clone(), head));
                working_since = None;
                Poll::Pending
            })
            .await;
            match woke {
                None => return Ok(()),
                Some(Ok(batch)) => {
                    // A loop that keeps finding frames never waits, so it
                    // yields: the executor fires due timers before its
                    // next pass. (The virtual clock stands still within a
                    // pass, so it never yields there.)
                    let now = rt::now();
                    let since = *working_since.get_or_insert(now);
                    if !batch.is_empty() && now.duration_since(since) >= YIELD_AFTER {
                        rt::yield_now().await;
                        working_since = None;
                    }
                    self.dispatch(t, policy, batch, rt::now());
                }
                Some(Err(e)) => {
                    let mut table = self.table();
                    table.routes.clear();
                    table.wakes.clear();
                    table.closed = true;
                    return Err(e);
                }
            }
        }
    }

    /// One pass, under one borrow: each frame's fate, a step of every
    /// session due by `now`, then [`Policy::after_pass`]. Every session
    /// that ends goes to [`Policy::finished`].
    pub(crate) fn dispatch<T: Transport>(
        &self,
        t: &SharedTransport<T>,
        policy: &mut impl Policy,
        batch: Vec<Frame>,
        now: Instant,
    ) {
        let me = t.local_node();
        let mut table = self.table();
        table.parked = None;
        for frame in batch {
            let session = frame.session;
            match table.route(frame, now) {
                Ok(None) => {}
                Ok(Some(ended)) => policy.finished(&mut table, session, ended, now),
                Err(frame) => {
                    if let Some(ack) = table.time_wait.reack(me, &frame, now) {
                        // Best-effort: a lost re-ack costs one more
                        // retransmission.
                        let _ = t.send_to(frame.sender, &ack);
                        crate::telemetry::counter_add("demux.time_wait.reacks", 1);
                    } else if !policy.unrouted(&mut table, frame, now) {
                        table.orphans += 1;
                        crate::telemetry::counter_add("demux.orphans", 1);
                    }
                }
            }
        }
        while let Some(&(_, session)) = table.wakes.first().filter(|&&(wake, _)| wake <= now) {
            if let Some(ended) = table.step(session, None, now) {
                policy.finished(&mut table, session, ended, now);
            }
        }
        policy.after_pass(&mut table, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{NetPayload, FLAG_RELIABLE};
    use crate::rt::chan::channel;
    use crate::session::NetError;
    use crate::transport::SimNet;
    use thinair_netsim::IidMedium;

    /// The defaults alone: a node's loop without its admission FIFO.
    impl Policy for () {}

    fn fin(session: u64) -> Frame {
        Frame { flags: FLAG_RELIABLE, sender: 0, session, seq: 3, payload: NetPayload::Fin }
    }

    /// Records every step (`Some(session)` for a frame, `None` for a
    /// wake) and ends at its first wake step.
    struct Probe {
        steps: Steps,
        wake: Instant,
    }

    impl Machine for Probe {
        fn step(&mut self, frame: Option<Frame>, now: Instant) -> Option<Ended> {
            self.steps.borrow_mut().push(frame.as_ref().map(|f| f.session));
            (frame.is_none() && now >= self.wake).then_some(Err(NetError::Closed))
        }

        fn wake(&self) -> Instant {
            self.wake
        }
    }

    type Steps = Rc<RefCell<Vec<Option<u64>>>>;

    fn probe(wake: Instant) -> (Box<dyn Machine>, Steps) {
        let steps = Steps::default();
        (Box::new(Probe { steps: steps.clone(), wake }), steps)
    }

    /// A node's loop (the default policy): routed frames step their session's
    /// machine, a completed terminal's late `Fin` is re-acked until its
    /// deadline, and everything else is an orphan.
    #[test]
    fn node_policy_routes_reacks_and_orphans() {
        let net = SimNet::new(IidMedium::symmetric(2, 0.0, 1), 2);
        let t = SharedTransport::new(net.transport(1));
        let demux = Demux::default();
        let t0 = Instant::now();
        let deadline = Duration::from_secs(5);
        let (machine, steps) = probe(t0 + deadline);
        demux.table().open(7, machine, t0, None);
        demux.dispatch(&t, &mut (), vec![fin(7), fin(8)], t0);
        assert_eq!(*steps.borrow(), [Some(7)], "routed");
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
        demux.table().open(9, probe(t0 + deadline).0, t0, None);
        demux.table().retire(9, None);
        assert!(demux.table().retire(9, Some((0, deadline))).is_none());
        demux.dispatch(&t, &mut (), vec![fin(9)], t0);
        assert_eq!((net.frames_transmitted(), demux.table().orphans), (sent + 1, 3));
        assert_eq!(demux.table().len(), 0);
    }

    /// A transport that always has a frame ready, until `left` runs out;
    /// then it never wakes its reader again.
    struct Flood {
        left: Rc<std::cell::Cell<u64>>,
    }

    impl Transport for Flood {
        fn local_node(&self) -> u8 {
            1
        }

        fn node_count(&self) -> usize {
            2
        }

        fn send_to(&mut self, _to: u8, _frame: &Frame) -> io::Result<()> {
            Ok(())
        }

        fn poll_recv(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<Frame>> {
            match self.left.get() {
                0 => Poll::Pending,
                n => {
                    self.left.set(n - 1);
                    Poll::Ready(Ok(fin(8)))
                }
            }
        }

        fn invalid_frames(&self) -> u64 {
            0
        }
    }

    /// A loop that keeps finding frames still lets a timer fire once it
    /// is due: it yields after `YIELD_AFTER` of work, and the executor
    /// fires due timers before its next pass, long before the flood runs
    /// dry.
    #[test]
    fn a_busy_loop_lets_due_timers_run() {
        const FRAMES: u64 = 2_000_000;
        let left = Rc::new(std::cell::Cell::new(FRAMES));
        let t = SharedTransport::new(Flood { left: left.clone() });
        let left_at_wake = rt::block_on(async move {
            rt::spawn(async move { Demux::default().run(&t, &mut ()).await });
            rt::sleep(Duration::from_millis(1)).await;
            left.get()
        });
        assert!(left_at_wake > FRAMES / 2, "the timer waited for {} frames", FRAMES - left_at_wake);
    }

    /// A pass steps every session whose wake is due, earliest first, and
    /// no other; a session that ends is retired and its end reaches the
    /// call awaiting it. After a socket failure an open ends at once.
    #[test]
    fn due_wakes_step_their_machines_and_ends_reach_the_caller() {
        let net = SimNet::new(IidMedium::symmetric(2, 0.0, 1), 2);
        let t = SharedTransport::new(net.transport(0));
        let demux = Demux::default();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let (late, late_steps) = probe(t0 + ms(20));
        let (early, early_steps) = probe(t0 + ms(10));
        let (done, mut ended) = channel();
        demux.table().open(2, late, t0, None);
        demux.table().open(1, early, t0, Some(done));
        demux.dispatch(&t, &mut (), Vec::new(), t0 + ms(5));
        assert!(early_steps.borrow().is_empty() && late_steps.borrow().is_empty(), "none due");
        demux.dispatch(&t, &mut (), Vec::new(), t0 + ms(10));
        assert_eq!((early_steps.borrow().len(), late_steps.borrow().len()), (1, 0));
        assert!(matches!(ended.try_recv(), Some(Err(NetError::Closed))), "the end was handed back");
        assert_eq!(demux.table().len(), 1, "the ended session retired");
        assert!(demux.table().time_wait.contains(1), "its id is spent");
        assert_eq!(demux.table().wakes.len(), 1);
        demux.dispatch(&t, &mut (), Vec::new(), t0 + ms(30));
        assert_eq!(*late_steps.borrow(), [None]);
        let table = demux.table();
        assert_eq!((table.len(), table.wakes.len()), (0, 0));
        drop(table);
        // Socket death: the loop closed the table, so an open drops its
        // awaiting sender, which the caller reads as `Closed`.
        demux.table().closed = true;
        let (done, mut ended) = channel();
        demux.table().open(3, probe(t0).0, t0, Some(done));
        assert_eq!(demux.table().len(), 0);
        assert!(rt::block_on(ended.recv()).is_none());
    }
}
