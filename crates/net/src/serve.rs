//! Serve mode: one long-lived daemon, one socket, thousands of
//! concurrent auto-admitted sessions.
//!
//! [`crate::node::Node`] multiplexes the sessions a coordinator *opens
//! explicitly*. A deployment at the paper's pitch — cheap secret
//! agreement for many device pairs on a shared medium — needs the dual:
//! a terminal daemon that sits on its socket and serves whatever group
//! rounds coordinators initiate, without a human opening each one. That
//! is [`Server`], the one way to be a terminal (`thinaird serve` and
//! `terminal`, [`crate::driver::run_sessions`] and the shards all run
//! it). It runs the same receive loop as a node (`crate::demux`:
//! routes, TIME_WAIT, orphans) and adds the policy for frames no route
//! claims:
//!
//! * **Admission** — a frame for an unknown session spawns a terminal
//!   state machine iff it is a `Start` from the configured coordinator
//!   and the daemon has room below its high-water mark (7/8 of
//!   [`ServeLimits::max_sessions`] — shedding starts *before* the hard
//!   cap so in-flight sessions keep headroom to finish). A refused
//!   `Start` is answered with an explicit [`NetPayload::Busy`] whose
//!   `retry_after_ms` scales with the overload, so the coordinator
//!   paces re-admission instead of retransmitting blind; nothing is
//!   dropped silently.
//! * **FIFO re-admission** — a refused `Start` is also parked in a
//!   bounded arrival-order queue and admitted from there as slots
//!   free, without waiting for the coordinator's paced retry. The
//!   ordering matters beyond latency: a group session needs a slot on
//!   *every* terminal daemon at once, and refusal-only shedding lets
//!   two saturated daemons fill with disjoint half-admitted sessions
//!   — each holding a slot on one daemon while `Busy`'d on the other
//!   — a cross-daemon admission deadlock. All daemons see the wave's
//!   `Start`s in near-identical order, so FIFO re-admission keeps
//!   their admitted sets aligned and half-admissions transient.
//! * **Budgets** — every admitted session inherits the
//!   [`SessionConfig`] deadline / attempt budgets, so no session can
//!   outlive its configured worst case.
//! * **Idle eviction** — a session whose peer went silent (crashed
//!   coordinator, dead link) is evicted after
//!   [`ServeLimits::idle_timeout`] without traffic: its channel closes,
//!   the state machine terminates with [`NetError::Closed`], and the
//!   slot frees *before* the protocol deadline would have reclaimed it.
//! * **Terminal-state GC** — completed or aborted sessions leave the
//!   routing table immediately (their outcome goes to the
//!   [`Server::outcomes`] channel), so the open count tracks *live*
//!   sessions only.
//! * **TIME_WAIT** — a terminal returns as soon as it has acked `Fin`;
//!   its id then sits in the receive loop's TIME_WAIT window until the
//!   session deadline, and a `Fin` the coordinator retransmits because
//!   that ack was lost is re-acked by the loop — no task, no slot.
//!
//! The loop wakes on a batch, the next eviction sweep, or a stop.
//! Combined with the waker-based executor ([`crate::rt`]), an idle
//! daemon with thousands of open sessions polls O(1) tasks per wake.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::io;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::demux::{Demux, Policy, Table};
use crate::driver::task_seed;
use crate::frame::{Frame, NetPayload};
use crate::rt;
use crate::rt::chan::{channel, Receiver, Sender};
use crate::session::{NetError, SessionConfig, SessionOutcome};
use crate::terminal::run_terminal;
use crate::transport::{SharedTransport, Transport};

/// Resource limits of one serve daemon.
#[derive(Clone, Copy, Debug)]
pub struct ServeLimits {
    /// Most sessions live at once; `Start`s beyond 7/8 of it are
    /// answered with `Busy { retry_after_ms }` and parked for FIFO
    /// re-admission as slots free (counted, never silently dropped).
    pub max_sessions: usize,
    /// Evict a session after this long without a single frame.
    pub idle_timeout: Duration,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits { max_sessions: 8192, idle_timeout: Duration::from_secs(10) }
    }
}

/// Aggregate counters of one daemon's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions admitted (a terminal task was spawned).
    pub admitted: u64,
    /// `Start`s refused because the daemon was at capacity.
    pub rejected: u64,
    /// `Busy { retry_after_ms }` replies sent for refused `Start`s.
    /// Equals `rejected` when every refusal was answered (the daemon
    /// never sheds silently; a gap can only come from a socket error on
    /// the reply itself).
    pub busy: u64,
    /// Admitted sessions that completed with a usable outcome.
    pub completed: u64,
    /// Admitted sessions that terminated with a clean structured abort.
    pub aborted: u64,
    /// Sessions evicted for idleness.
    pub evicted: u64,
    /// Admitted sessions that died on an infrastructure error.
    pub failed: u64,
    /// Frames dropped because they belonged to no session and could not
    /// admit one (wrong kind, wrong sender, or already terminated).
    /// TIME_WAIT re-acks are not orphans (`demux.time_wait.reacks`).
    pub orphans: u64,
    /// High-water mark of concurrently open sessions.
    pub peak_open: u64,
}

impl ServeStats {
    /// Accumulates another daemon's (or shard's) counters into this
    /// one. Counts add; `peak_open`, a per-registry high-water mark,
    /// also adds — disjoint shards hold their peaks concurrently, so
    /// the sum bounds the daemon-wide peak.
    pub fn absorb(&mut self, other: &ServeStats) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.busy += other.busy;
        self.completed += other.completed;
        self.aborted += other.aborted;
        self.evicted += other.evicted;
        self.failed += other.failed;
        self.orphans += other.orphans;
        self.peak_open += other.peak_open;
    }
}

/// A `Start` refused at the high-water mark, parked for FIFO
/// re-admission when a slot frees.
struct PendingStart {
    frame: Frame,
    /// Last time a `Start` copy for this session arrived. A live
    /// coordinator refreshes it with every paced retry; an entry that
    /// goes stale ([`QUEUE_STALE`]) belonged to a coordinator that gave
    /// up and is dropped at drain time instead of wasting a slot.
    refreshed: Instant,
}

/// Outcome of one admission attempt (see [`SessionRegistry::admit`]).
enum Admission {
    /// A route was opened and the admitting `Start` delivered on it; the
    /// session's frames flow through this.
    Admitted(Receiver<Frame>),
    /// Load-shed: the `Start` was parked in the re-admission queue;
    /// answer the coordinator with `Busy { retry_after_ms }`.
    Busy {
        /// Suggested re-admission delay.
        retry_after_ms: u32,
    },
    /// Replay of a terminated session id — an orphan (a late duplicate,
    /// not a live coordinator to pace).
    Spent,
}

/// The daemon's admission and eviction policy over its receive loop's
/// routes: the cap and high-water mark, the FIFO park queue, `Busy`
/// pacing, and the lifetime counters.
struct SessionRegistry {
    /// The node every admitted session's frames must come from.
    coordinator: u8,
    /// The session deadline: how long a completed id keeps re-acking.
    deadline: Duration,
    limits: ServeLimits,
    /// Lifetime counters; `orphans` lives in the routing table.
    stats: ServeStats,
    /// Arrival order of parked `Start`s (session ids; a popped id no
    /// longer in `queued` is a tombstone of a session admitted
    /// directly in the meantime).
    queue: VecDeque<u64>,
    /// Parked `Start`s by session id — the re-admission backlog. Its
    /// depth scales `retry_after_ms` so paced-out coordinators spread
    /// their retries instead of re-knocking in lockstep.
    queued: BTreeMap<u64, PendingStart>,
}

/// Most `Start`s parked for re-admission at once; beyond it a refusal
/// is answered with `Busy` alone and the coordinator's paced retry is
/// the only re-admission path (pre-queue behaviour).
const QUEUE_WINDOW: usize = 8192;

/// A parked `Start` not refreshed by a retry within this window is
/// dropped at drain time: its coordinator stopped re-knocking (aborted
/// or died), so admitting it would only burn a slot until idle
/// eviction. Live coordinators retry every few seconds at most
/// (`retry_after_ms` caps at 2 s, the deferred retransmit at 10 s).
const QUEUE_STALE: Duration = Duration::from_secs(20);

impl SessionRegistry {
    fn new(limits: ServeLimits, cfg: &SessionConfig) -> Self {
        SessionRegistry {
            coordinator: cfg.coordinator,
            deadline: cfg.deadline,
            limits,
            stats: ServeStats::default(),
            queue: VecDeque::new(),
            queued: BTreeMap::new(),
        }
    }

    /// High-water mark: admission stops 1/8 short of the hard cap, so
    /// sessions already in flight keep headroom to finish (shed
    /// earliest, not at the wall). Small caps are unaffected
    /// (`max/8 == 0`).
    fn admit_high(&self) -> usize {
        self.limits.max_sessions - self.limits.max_sessions / 8
    }

    /// The `retry_after_ms` a refused `Start` is answered with: a base
    /// pace scaled by the depth of the re-admission backlog (the
    /// deeper the queue, the longer the suggested pause), plus a
    /// per-session spread so paced coordinators do not re-knock in
    /// lockstep.
    fn retry_after_ms(&self, session: u64) -> u32 {
        const BASE_MS: u64 = 25;
        let high = self.admit_high().max(1) as u64;
        let backlog = self.queued.len() as u64;
        let scaled = BASE_MS + BASE_MS * backlog.saturating_mul(8) / high;
        let spread = session % (BASE_MS + 1);
        (scaled + spread).clamp(BASE_MS, 2_000) as u32
    }

    /// Opens the route of an admitted `start` (the caller has checked
    /// load and replay) and returns the frame receiver for its terminal
    /// task, the `Start` already delivered on it.
    fn open_slot(&mut self, table: &mut Table, start: Frame, now: Instant) -> Receiver<Frame> {
        let rx = table.open(start.session, now, Some(start));
        self.stats.admitted += 1;
        self.stats.peak_open = self.stats.peak_open.max(table.len() as u64);
        crate::telemetry::counter_add("serve.admitted", 1);
        crate::telemetry::gauge_set("serve.open", table.len() as u64);
        rx
    }

    /// Parks a refused `Start` for FIFO re-admission (or refreshes the
    /// liveness stamp of an already-parked copy).
    fn enqueue(&mut self, frame: Frame, now: Instant) {
        if let Some(p) = self.queued.get_mut(&frame.session) {
            p.refreshed = now;
        } else if self.queue.len() < QUEUE_WINDOW {
            self.queue.push_back(frame.session);
            self.queued.insert(frame.session, PendingStart { frame, refreshed: now });
        }
        crate::telemetry::gauge_set("serve.queue.depth", self.queued.len() as u64);
    }

    /// Admits the longest-parked queued `Start` if a slot is free:
    /// opens its route with the stored frame, and returns the session id
    /// plus frame receiver for the caller to spawn. Stale and spent
    /// entries are skipped. `None` when the daemon is at its high-water
    /// mark or the queue is drained.
    fn pop_admission(&mut self, table: &mut Table, now: Instant) -> Option<(u64, Receiver<Frame>)> {
        while table.len() < self.admit_high() {
            let session = self.queue.pop_front()?;
            let Some(pending) = self.queued.remove(&session) else { continue };
            crate::telemetry::gauge_set("serve.queue.depth", self.queued.len() as u64);
            if table.time_wait.contains(session)
                || now.duration_since(pending.refreshed) > QUEUE_STALE
            {
                continue;
            }
            let rx = self.open_slot(table, pending.frame, now);
            crate::telemetry::counter_add("serve.queue.admitted", 1);
            return Some((session, rx));
        }
        None
    }

    /// Opens a route for the session of this `Start` if load allows and
    /// the id is not a replay of a terminated session (a ghost session
    /// would hold a slot until eviction and could emit a spurious abort
    /// for a session that already agreed); over the high-water mark the
    /// frame is parked for FIFO re-admission and the refusal answered
    /// with a pacing hint.
    fn admit(&mut self, table: &mut Table, frame: Frame, now: Instant) -> Admission {
        let session = frame.session;
        if table.time_wait.contains(session) {
            return Admission::Spent;
        }
        if table.len() >= self.admit_high() {
            self.enqueue(frame, now);
            let retry_after_ms = self.retry_after_ms(session);
            self.stats.rejected += 1;
            self.stats.busy += 1;
            crate::telemetry::counter_add("serve.rejected", 1);
            crate::telemetry::counter_add("serve.busy.sent", 1);
            crate::telemetry::observe("serve.busy.retry_ms", retry_after_ms as u64);
            return Admission::Busy { retry_after_ms };
        }
        // Tombstone any parked copy: the live admission supersedes it.
        self.queued.remove(&session);
        Admission::Admitted(self.open_slot(table, frame, now))
    }

    /// Closes a terminated session's route (terminal-state GC); its id
    /// retires into TIME_WAIT, re-acking until the session deadline if
    /// it completed, so Start replays cannot resurrect it.
    fn finish(
        &mut self,
        table: &mut Table,
        session: u64,
        outcome: &Result<SessionOutcome, NetError>,
        now: Instant,
    ) {
        let completed = matches!(outcome, Ok(out) if out.completed());
        // A session whose route is already gone was evicted (counted as
        // `evicted`) or swept on socket death — its late outcome,
        // whatever its shape (an eviction usually terminates with
        // `Closed`, but a protocol deadline can race the idle sweep and
        // deliver an `Ok` abort), must not be counted a second time:
        // the stat buckets partition `admitted`.
        let reack = completed.then_some((self.coordinator, self.deadline));
        let Some(route) = table.retire(session, reack) else { return };
        let held = now.saturating_duration_since(route.opened);
        crate::telemetry::observe("serve.session_us", held.as_micros() as u64);
        crate::telemetry::gauge_set("serve.open", table.len() as u64);
        match outcome {
            Ok(_) if completed => self.stats.completed += 1,
            Ok(_) => self.stats.aborted += 1,
            Err(_) => self.stats.failed += 1,
        }
    }

    /// Closes every session idle longer than the limit; the state
    /// machines terminate with [`NetError::Closed`]. An evicted id is
    /// spent too: its peer is presumed dead (a live coordinator would
    /// have kept the route fresh with retransmits).
    fn evict_idle(&mut self, table: &mut Table, now: Instant) {
        let evicted = table.evict_idle(now, self.limits.idle_timeout) as u64;
        self.stats.evicted += evicted;
        if evicted > 0 {
            crate::telemetry::counter_add("serve.evicted", evicted);
            crate::telemetry::gauge_set("serve.open", table.len() as u64);
        }
    }
}

/// Shared control handle of a running [`Server`]: stop it, watch it.
#[derive(Clone)]
pub struct ServeHandle {
    stop: Sender<()>,
    registry: Rc<RefCell<SessionRegistry>>,
    demux: Demux,
}

impl ServeHandle {
    /// Asks the serve loop to exit; it wakes and returns at once.
    pub fn stop(&self) {
        self.stop.send(());
    }

    /// Currently open (admitted, live) sessions.
    pub fn open_sessions(&self) -> usize {
        self.demux.table().len()
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> ServeStats {
        let orphans = self.demux.table().orphans;
        ServeStats { orphans, ..self.registry.borrow().stats.clone() }
    }
}

/// A serve daemon: auto-admits terminal sessions over one transport.
pub struct Server<T> {
    t: SharedTransport<T>,
    demux: Demux,
    cfg: SessionConfig,
    seed: u64,
    registry: Rc<RefCell<SessionRegistry>>,
    /// Stop requests from the handles; the server keeps a sender so the
    /// channel stays open while no handle exists.
    stop: Sender<()>,
    stopped: Receiver<()>,
    /// The outcome stream's only sender, shared with the session tasks
    /// and dropped when the server stops, which closes the stream.
    outcomes: Outcomes,
    /// Eviction sweeps ride the loop's wait so an idle daemon wakes a
    /// few times a second — and a *busy* loop (woken per batch) still
    /// sweeps only once per interval: the sweep is an O(open-sessions)
    /// scan, which must not run per received batch.
    sweep: Duration,
    last_sweep: Instant,
}

type Outcomes = Rc<RefCell<Option<Sender<SessionOutcome>>>>;

impl<T: Transport + 'static> Server<T> {
    /// Builds a daemon for this node. `cfg` is the session
    /// configuration every admitted round must match (the start-barrier
    /// digest check rejects coordinators that disagree); `seed` feeds
    /// per-session local randomness via [`task_seed`].
    ///
    /// # Panics
    /// Panics when the transport's node *is* the configured coordinator
    /// — a serve daemon answers rounds, it does not initiate them.
    pub fn new(t: SharedTransport<T>, cfg: SessionConfig, seed: u64, limits: ServeLimits) -> Self {
        assert_ne!(
            t.local_node(),
            cfg.coordinator,
            "serve daemons are terminals; run the coordinator role to initiate rounds"
        );
        let registry = SessionRegistry::new(limits, &cfg);
        let (stop, stopped) = channel();
        Server {
            t,
            demux: Demux::default(),
            cfg,
            seed,
            registry: Rc::new(RefCell::new(registry)),
            stop,
            stopped,
            outcomes: Rc::default(),
            sweep: (limits.idle_timeout / 4)
                .clamp(Duration::from_millis(50), Duration::from_secs(1)),
            last_sweep: rt::now(),
        }
    }

    /// A control handle (clone freely).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            stop: self.stop.clone(),
            registry: self.registry.clone(),
            demux: self.demux.clone(),
        }
    }

    /// Creates the outcome stream: every terminated session's
    /// [`SessionOutcome`] is delivered here (terminations from eviction
    /// and socket errors are not — they carry no outcome). The stream
    /// closes when the server stops.
    pub fn outcomes(&mut self) -> Receiver<SessionOutcome> {
        let (tx, rx) = channel();
        *self.outcomes.borrow_mut() = Some(tx);
        rx
    }

    /// Runs the daemon until [`ServeHandle::stop`] or a socket error.
    /// Returns the lifetime stats. Either way the outcome stream closes:
    /// sessions still in flight run on, but report nowhere.
    pub async fn run(mut self) -> io::Result<ServeStats> {
        self.last_sweep = rt::now();
        let (t, demux) = (self.t.clone(), self.demux.clone());
        let result = demux.run(&t, &mut self).await;
        self.outcomes.borrow_mut().take();
        result.map(|()| self.handle().stats())
    }

    /// Spawns the terminal task of a freshly admitted session (used by
    /// both direct admission and queue drain).
    fn spawn_session(&self, session: u64, rx: Receiver<Frame>) {
        let (t, cfg, demux) = (self.t.clone(), self.cfg.clone(), self.demux.clone());
        let (registry, outcomes) = (self.registry.clone(), self.outcomes.clone());
        let seed = task_seed(self.seed, session, t.local_node());
        rt::spawn(async move {
            let result = run_terminal(t, rx, session, cfg, seed).await;
            registry.borrow_mut().finish(&mut demux.table(), session, &result, rt::now());
            if let (Some(tx), Ok(out)) = (outcomes.borrow().as_ref(), result) {
                tx.send(out);
            }
        });
    }
}

impl<T: Transport + 'static> Policy for Server<T> {
    /// A `Start` from the coordinator goes to admission; anything else
    /// is an orphan.
    fn unrouted(&mut self, table: &mut Table, frame: Frame, now: Instant) -> bool {
        if frame.sender != self.cfg.coordinator
            || !matches!(frame.payload, NetPayload::Start { .. })
        {
            return false;
        }
        let session = frame.session;
        let admission = self.registry.borrow_mut().admit(table, frame, now);
        match admission {
            Admission::Admitted(rx) => self.spawn_session(session, rx),
            Admission::Busy { retry_after_ms } => {
                // Explicit backpressure instead of a silent drop: tell the
                // coordinator when to re-knock. Best-effort — a lost reply
                // just means one more (paced by its own backoff) Start
                // copy; the parked frame re-admits meanwhile.
                let busy = Frame {
                    flags: 0,
                    sender: self.t.local_node(),
                    session,
                    seq: 0,
                    payload: NetPayload::Busy { retry_after_ms },
                };
                let _ = self.t.send_to(self.cfg.coordinator, &busy);
            }
            Admission::Spent => return false,
        }
        true
    }

    /// Slots freed by terminal-state GC since the last pass are refilled
    /// from the parked-Start queue in arrival order — re-admission does
    /// not wait for the coordinator's paced retry, and FIFO order keeps
    /// sibling daemons' admitted sets aligned (see the module docs on
    /// the cross-daemon half-admission deadlock). Then, once per sweep
    /// interval, idle sessions are evicted.
    fn after_pass(&mut self, table: &mut Table, now: Instant) {
        loop {
            let popped = self.registry.borrow_mut().pop_admission(table, now);
            let Some((session, rx)) = popped else { break };
            self.spawn_session(session, rx);
        }
        if now.duration_since(self.last_sweep) >= self.sweep {
            self.last_sweep = now;
            self.registry.borrow_mut().evict_idle(table, now);
        }
    }

    fn next_wake(&self) -> Option<Instant> {
        Some(self.last_sweep + self.sweep)
    }

    fn poll_stop(&mut self, cx: &mut Context<'_>) -> Poll<()> {
        Pin::new(&mut self.stopped.recv()).poll(cx).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliable::SPENT_WINDOW;
    use crate::transport::SimNet;
    use thinair_netsim::IidMedium;

    fn small_cfg(n_nodes: u8) -> SessionConfig {
        SessionConfig {
            n_nodes,
            payload_len: 4,
            drop_prob: 0.0,
            schedule: thinair_core::round::XSchedule::CoordinatorOnly(6),
            x_settle: Duration::from_millis(20),
            deadline: Duration::from_secs(5),
            ..SessionConfig::default()
        }
    }

    fn start(session: u64) -> Frame {
        Frame { flags: 0, sender: 0, session, seq: 0, payload: NetPayload::Start { digest: 7 } }
    }

    fn registry(limits: ServeLimits) -> (SessionRegistry, Table) {
        (SessionRegistry::new(limits, &small_cfg(2)), Table::default())
    }

    fn completed(session: u64) -> SessionOutcome {
        SessionOutcome {
            session,
            node: 1,
            l: 1,
            m: 2,
            n_packets: 4,
            secret: Vec::new(),
            abort: None,
            trace: None,
        }
    }

    fn must_admit(
        reg: &mut SessionRegistry,
        table: &mut Table,
        session: u64,
        now: Instant,
    ) -> Receiver<Frame> {
        match reg.admit(table, start(session), now) {
            Admission::Admitted(rx) => rx,
            Admission::Busy { .. } => panic!("session {session} refused: busy"),
            Admission::Spent => panic!("session {session} refused: spent"),
        }
    }

    #[test]
    fn registry_admits_routes_and_caps() {
        let limits = ServeLimits { max_sessions: 2, ..ServeLimits::default() };
        let (mut reg, mut table) = registry(limits);
        let now = Instant::now();
        let _rx1 = must_admit(&mut reg, &mut table, 1, now);
        let _rx2 = must_admit(&mut reg, &mut table, 2, now);
        let Admission::Busy { retry_after_ms } = reg.admit(&mut table, start(3), now) else {
            panic!("over capacity must be Busy");
        };
        assert!(retry_after_ms > 0, "busy carries a positive pace");
        assert_eq!(reg.stats.rejected, 1);
        assert_eq!(reg.stats.busy, 1, "every rejection is answered");
        assert_eq!(reg.stats.peak_open, 2);
        let frame = Frame { flags: 0, sender: 0, session: 1, seq: 9, payload: NetPayload::Fin };
        assert!(table.route(frame.clone(), now).is_ok());
        let stray = Frame { session: 99, ..frame };
        assert!(table.route(stray, now).is_err());
    }

    #[test]
    fn eviction_sweep_order_is_session_id_order() {
        // Regression: the session table used to be a HashMap, so a sweep
        // that evicted several idle sessions at once marked them spent in
        // RandomState iteration order — different per process, and
        // visible downstream (spent-window rotation, `serve.evicted`
        // interleaving in traces). The table is a BTreeMap now; a batch
        // eviction must walk ascending session ids no matter what order
        // admission happened in.
        let limits = ServeLimits { max_sessions: 16, idle_timeout: Duration::from_millis(10) };
        let (mut reg, mut table) = registry(limits);
        let t0 = Instant::now();
        let scrambled = [11u64, 3, 42, 7, 29, 5];
        let _rxs: Vec<_> =
            scrambled.iter().map(|&s| must_admit(&mut reg, &mut table, s, t0)).collect();
        reg.evict_idle(&mut table, t0 + Duration::from_millis(50));
        assert_eq!(reg.stats.evicted, scrambled.len() as u64);
        let spent: Vec<u64> = table.time_wait.spent().collect();
        let mut sorted = scrambled.to_vec();
        sorted.sort_unstable();
        assert_eq!(spent, sorted, "batch eviction must mark spent in ascending id order");
    }

    #[test]
    fn registry_evicts_idle_sessions_and_closes_their_channels() {
        let limits = ServeLimits { max_sessions: 8, idle_timeout: Duration::from_millis(10) };
        let (mut reg, mut table) = registry(limits);
        let t0 = Instant::now();
        let mut rx = must_admit(&mut reg, &mut table, 7, t0);
        reg.evict_idle(&mut table, t0 + Duration::from_millis(5));
        assert_eq!(table.len(), 1, "young session survives");
        reg.evict_idle(&mut table, t0 + Duration::from_millis(50));
        assert_eq!(table.len(), 0, "idle session evicted");
        assert_eq!(reg.stats.evicted, 1);
        // The channel closed with the route: after the admitting Start
        // (delivered at admission), the session task sees None and
        // terminates with NetError::Closed.
        rt::block_on(async {
            assert!(matches!(
                rx.recv().await,
                Some(Frame { payload: NetPayload::Start { .. }, .. })
            ));
            assert_eq!(rx.recv().await, None);
        });
        // Its termination is not double-counted as a failure.
        reg.finish(&mut table, 7, &Err(NetError::Closed), t0);
        assert_eq!(reg.stats.failed, 0);
        // And a replayed Start for the evicted id cannot resurrect it.
        assert!(
            matches!(reg.admit(&mut table, start(7), t0), Admission::Spent),
            "spent ids are not re-admissible"
        );
        // A protocol-deadline abort racing the idle sweep is not
        // double-counted: once evicted, the late outcome is dropped.
        let _rx2 = must_admit(&mut reg, &mut table, 8, t0);
        reg.evict_idle(&mut table, t0 + Duration::from_millis(50));
        let late = crate::session::SessionOutcome::aborted(
            8,
            1,
            4,
            crate::session::AbortReason::Deadline { phase: "x settle" },
            None,
        );
        reg.finish(&mut table, 8, &Ok(late), t0);
        assert_eq!(reg.stats.aborted, 0, "evicted sessions count once, as evicted");
        assert_eq!(reg.stats.evicted, 2);
    }

    /// A duplicated/delayed `Start` arriving after its session finished
    /// must not re-admit a ghost session under the same id.
    #[test]
    fn registry_refuses_start_replays_of_finished_sessions() {
        let (mut reg, mut table) = registry(ServeLimits::default());
        let now = Instant::now();
        let _rx = must_admit(&mut reg, &mut table, 42, now);
        reg.finish(&mut table, 42, &Ok(completed(42)), now);
        assert_eq!(table.len(), 0);
        assert!(
            matches!(reg.admit(&mut table, start(42), now), Admission::Spent),
            "finished ids are spent"
        );
        assert_eq!(reg.stats.admitted, 1, "the replay admitted nothing");
        // Fresh ids are unaffected, and the window is bounded.
        let _rx43 = must_admit(&mut reg, &mut table, 43, now);
        for s in 100..100 + (SPENT_WINDOW as u64) + 10 {
            table.time_wait.mark_spent(s);
        }
        assert!(table.time_wait.spent().count() <= SPENT_WINDOW);
    }

    /// TIME_WAIT, through a daemon's receive loop: a late reliable frame
    /// from the coordinator of a completed session is re-acked (not an
    /// orphan); the same frame for an aborted or evicted session is an
    /// orphan; a `Start` replay of a completed id is spent, hence an
    /// orphan; and the re-ack window closes at the session deadline.
    #[test]
    fn registry_reacks_late_fins_of_completed_sessions_only() {
        let limits = ServeLimits { idle_timeout: Duration::from_millis(10), ..Default::default() };
        let net = SimNet::new(IidMedium::symmetric(2, 0.0, 1), 2);
        let mut server =
            Server::new(SharedTransport::new(net.transport(1)), small_cfg(2), 11, limits);
        let (t, demux, handle) = (server.t.clone(), server.demux.clone(), server.handle());
        let fin = |session: u64| Frame {
            flags: crate::frame::FLAG_RELIABLE,
            sender: 0,
            session,
            seq: 9,
            payload: NetPayload::Fin,
        };
        let reacks =
            || crate::telemetry::snapshot().counters.get("demux.time_wait.reacks").copied();
        // Admission spawns terminal tasks; this task never yields, so
        // they never run and the test finishes their sessions by hand.
        rt::block_on(async {
            let t0 = rt::now();
            demux.dispatch(&t, &mut server, vec![start(1), start(2), start(3)], t0);
            assert_eq!(handle.stats().admitted, 3);
            let abort = crate::session::AbortReason::Deadline { phase: "x settle" };
            {
                let (mut reg, mut table) = (server.registry.borrow_mut(), demux.table());
                reg.finish(&mut table, 1, &Ok(completed(1)), t0);
                reg.finish(&mut table, 2, &Ok(SessionOutcome::aborted(2, 1, 4, abort, None)), t0);
                reg.evict_idle(&mut table, t0 + Duration::from_millis(50));
            }
            let sent = net.frames_transmitted();
            demux.dispatch(&t, &mut server, vec![fin(1)], t0);
            assert_eq!(reacks(), Some(1), "a late Fin of a completed session is re-acked");
            assert_eq!(net.frames_transmitted(), sent + 1, "the ack went out");
            assert_eq!(handle.stats().orphans, 0, "the re-ack is not an orphan");
            // Only the session's coordinator is answered.
            demux.dispatch(&t, &mut server, vec![Frame { sender: 2, ..fin(1) }], t0);
            assert_eq!(handle.stats().orphans, 1);
            // A Start replay of the completed id stays spent.
            demux.dispatch(&t, &mut server, vec![start(1)], t0);
            assert_eq!(handle.stats().orphans, 2);
            assert_eq!(handle.stats().admitted, 3, "the replay admitted nothing");
            // Aborted and evicted ids are spent but never re-acked.
            demux.dispatch(&t, &mut server, vec![fin(2), fin(3)], t0);
            assert_eq!(handle.stats().orphans, 4);
            // The window closes at the session deadline.
            let late = t0 + small_cfg(2).deadline + Duration::from_millis(1);
            demux.dispatch(&t, &mut server, vec![fin(1)], late);
            assert_eq!(handle.stats().orphans, 5);
            assert_eq!(reacks(), Some(1));
        });
    }

    /// Shedding starts at the high-water mark (7/8 of the cap), not at
    /// the wall, and the suggested pace grows with the overload.
    #[test]
    fn registry_sheds_early_with_load_scaled_pace() {
        let limits = ServeLimits { max_sessions: 64, ..ServeLimits::default() };
        let (mut reg, mut table) = registry(limits);
        let now = Instant::now();
        let high = 64 - 64 / 8;
        let mut rxs = Vec::new();
        for s in 0..high as u64 {
            rxs.push(must_admit(&mut reg, &mut table, s, now));
        }
        assert_eq!(table.len(), high, "full up to the high-water mark");
        let Admission::Busy { retry_after_ms: at_high } = reg.admit(&mut table, start(1_000), now)
        else {
            panic!("the high-water mark sheds");
        };
        // As more coordinators pile up paced-out, the suggested pace
        // grows (same session id, so the spread term is fixed).
        for s in 1_001..1_400 {
            assert!(matches!(reg.admit(&mut table, start(s), now), Admission::Busy { .. }));
        }
        let Admission::Busy { retry_after_ms: deep } = reg.admit(&mut table, start(1_000), now)
        else {
            panic!("still shedding");
        };
        assert!(deep > at_high, "pace scales with backlog: {deep} vs {at_high}");
        assert_eq!(reg.stats.busy, reg.stats.rejected);
    }

    /// A `Start` refused at the high-water mark is parked and admitted
    /// from the queue — in arrival order — as slots free; stale
    /// entries (coordinator stopped re-knocking) are dropped.
    #[test]
    fn registry_readmits_parked_starts_in_arrival_order() {
        let limits = ServeLimits { max_sessions: 8, ..ServeLimits::default() };
        let (mut reg, mut table) = registry(limits);
        let now = Instant::now();
        let high = 8 - 8 / 8;
        for s in 0..high as u64 {
            let _rx = must_admit(&mut reg, &mut table, s, now);
        }
        assert!(matches!(reg.admit(&mut table, start(20), now), Admission::Busy { .. }));
        assert!(matches!(reg.admit(&mut table, start(21), now), Admission::Busy { .. }));
        // Nothing drains while the daemon sits at the high-water mark.
        assert!(reg.pop_admission(&mut table, now).is_none());
        // One slot frees -> the longest-parked session (20) re-admits,
        // and only that one (the mark is reached again).
        reg.finish(&mut table, 0, &Err(NetError::Closed), now);
        let (session, _rx20) = reg.pop_admission(&mut table, now).expect("queued start re-admits");
        assert_eq!(session, 20, "FIFO: arrival order");
        assert!(reg.pop_admission(&mut table, now).is_none());
        // A parked entry whose coordinator stopped refreshing it is
        // dropped at drain time instead of burning a slot.
        reg.finish(&mut table, 1, &Err(NetError::Closed), now);
        let stale = now + QUEUE_STALE + Duration::from_secs(1);
        assert!(reg.pop_admission(&mut table, stale).is_none());
        assert_eq!(table.len(), high - 1, "stale entry admitted nothing");
        // Refusals answered while parked still count 1:1.
        assert_eq!(reg.stats.busy, reg.stats.rejected);
    }

    /// End-to-end over the simulator: a coordinator drives concurrent
    /// sessions against a serve daemon that knew nothing in advance.
    #[test]
    fn serve_daemon_completes_auto_admitted_sessions() {
        let cfg = small_cfg(2);
        let net = SimNet::new(IidMedium::symmetric(2, 0.0, 1), 2);
        let coord = crate::node::Node::new(net.transport(0));
        let mut server = Server::new(
            SharedTransport::new(net.transport(1)),
            cfg.clone(),
            11,
            ServeLimits::default(),
        );
        let handle = server.handle();
        let mut outcomes = server.outcomes();
        const SESSIONS: u64 = 8;
        let got = rt::block_on(async move {
            coord.start_pump();
            rt::spawn(server.run());
            let mut coords = Vec::new();
            for s in 1..=SESSIONS {
                let coord = coord.clone();
                let cfg = cfg.clone();
                coords.push(rt::spawn(async move {
                    coord.coordinate(s, cfg, task_seed(11, s, 0)).await
                }));
            }
            let mut got = Vec::new();
            for c in coords {
                let out = c.await.expect("coordinator side runs cleanly");
                assert!(out.completed(), "coordinator aborted: {:?}", out.abort);
                got.push(out);
            }
            // Collect the daemon's outcomes for the same sessions.
            let mut served = Vec::new();
            while served.len() < SESSIONS as usize {
                let out = rt::timeout(Duration::from_secs(5), outcomes.recv())
                    .await
                    .expect("daemon outcomes arrive")
                    .expect("stream open");
                assert!(out.completed(), "daemon side aborted: {:?}", out.abort);
                served.push(out);
            }
            handle.stop();
            let stats = handle.stats();
            assert_eq!(stats.admitted, SESSIONS);
            assert_eq!(stats.completed, SESSIONS);
            assert_eq!(stats.rejected, 0);
            (got, served)
        });
        let (coord_outs, served) = got;
        // Every pair agrees on the secret.
        for co in &coord_outs {
            let so = served.iter().find(|o| o.session == co.session).expect("served");
            assert_eq!(so.secret, co.secret, "session {:#x} diverged", co.session);
        }
    }
}
