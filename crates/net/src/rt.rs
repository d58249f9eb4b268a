//! A minimal single-threaded async runtime with **waker-based task
//! readiness**.
//!
//! The ISSUE for this subsystem calls for a tokio-based runtime; the
//! build environment is fully offline (no crates.io), so this module
//! provides the required subset in-tree: [`block_on`], [`spawn`] (local
//! tasks), [`sleep`] timers, and cooperative scheduling.
//!
//! # Scheduling model
//!
//! The executor keeps a slab of tasks, a ready queue of task ids, and an
//! ordered map of timers. A task is polled only when something woke it —
//! its timer came due, a channel it awaits received a value, a frame
//! arrived on its transport, or the task it joins completed. **Idle
//! tasks cost zero CPU**: a pass over 10 000 blocked sessions polls
//! only the handful that were actually woken, so per-tick work is
//! O(ready), not O(tasks). (The first revision of this runtime
//! re-polled *every* task whenever anything happened — a busy-spin that
//! burned a full core re-polling idle sessions; the regression test
//! `idle_tasks_poll_o1` pins the fix.)
//!
//! When nothing is ready the executor sleeps until the earliest timer
//! deadline — in `epoll_wait` when any I/O source has registered via
//! [`register_fd_readable`] (a real reactor: a datagram's arrival ends
//! the sleep immediately), in `thread::sleep` otherwise. On targets
//! without epoll, and under the virtual clock, pollable-but-not-wakeable
//! input falls back to the transport's adaptive re-poll timer
//! ([`register_timer`]), bounding socket latency by the poll interval.
//!
//! Swapping in tokio later only requires replacing this module and the
//! socket wrapper in [`crate::udp`]; the protocol state machines are
//! executor-agnostic.
//!
//! Still one runtime per thread, tasks are `!Send`-friendly (`Rc`
//! everywhere), and nested [`block_on`] is not allowed. Wakers are
//! `Send` per the `std::task` contract — they only touch a
//! mutex-guarded ready queue — and a wake from another thread (such as
//! the stop signal of a sharded daemon's worker, [`crate::shard`])
//! *does* interrupt this executor's sleep: the ready queue rings an
//! `eventfd` doorbell registered in the epoll set whenever it enqueues
//! work while the executor is parked.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Default granularity of the UDP poll bridge and the deadlock-fallback
/// sleep; timer wakeups are exact, not quantized to this.
pub const TICK: Duration = Duration::from_micros(100);

/// Task id of the [`block_on`] root future in the ready queue.
const ROOT_ID: usize = usize::MAX;

type Task = Pin<Box<dyn Future<Output = ()>>>;

/// The shared ready queue: the only executor state wakers touch. The
/// mutex is uncontended on the single-threaded runtime; it exists so
/// wakers can be built from safe `Arc<dyn Wake>` (this crate forbids
/// `unsafe`, so no hand-rolled `RawWaker`).
#[derive(Default)]
struct ReadyQueue {
    inner: Mutex<ReadyInner>,
}

#[derive(Default)]
struct ReadyInner {
    queue: VecDeque<usize>,
    queued: BTreeSet<usize>,
    wakes: u64,
    /// True while the executor is parked in `epoll_wait`. Set and
    /// cleared under this lock so a cross-thread `push` either lands
    /// before the park decision or sees the flag and rings the doorbell.
    sleeping: bool,
    /// The reactor's eventfd, once one exists: readable ends the park.
    doorbell: Option<Arc<crate::sys::EventFd>>,
}

impl ReadyQueue {
    /// Locks the inner state, recovering from poisoning: the queue's
    /// data (ids + counters) is valid regardless of where a panicking
    /// thread left off, and the executor must keep draining tasks.
    fn lock(&self) -> std::sync::MutexGuard<'_, ReadyInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, id: usize) {
        let mut inner = self.lock();
        inner.wakes += 1;
        if inner.queued.insert(id) {
            inner.queue.push_back(id);
        }
        if inner.sleeping {
            // Another thread woke us mid-park (same-thread pushes can
            // never observe `sleeping`): interrupt the epoll_wait.
            if let Some(d) = &inner.doorbell {
                d.signal();
            }
        }
    }

    fn set_doorbell(&self, d: Arc<crate::sys::EventFd>) {
        self.lock().doorbell = Some(d);
    }

    /// Atomically checks emptiness and marks the executor parked.
    /// Returns false (and stays awake) if work arrived since the last
    /// pop.
    fn park_if_empty(&self) -> bool {
        let mut inner = self.lock();
        if inner.queue.is_empty() {
            inner.sleeping = true;
            true
        } else {
            false
        }
    }

    fn unpark(&self) {
        self.lock().sleeping = false;
    }

    fn pop(&self) -> Option<usize> {
        let mut inner = self.lock();
        let id = inner.queue.pop_front()?;
        inner.queued.remove(&id);
        Some(id)
    }

    fn is_empty(&self) -> bool {
        self.lock().queue.is_empty()
    }

    fn len(&self) -> usize {
        self.lock().queue.len()
    }

    fn wakes(&self) -> u64 {
        self.lock().wakes
    }
}

struct TaskWaker {
    id: usize,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// Identifies one pending timer (see [`register_timer`]): its deadline
/// plus a sequence number that breaks ties, so the timer map's order is
/// total without comparing wakers. Pass it to [`cancel_timer`] to
/// withdraw the wake before it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerId {
    deadline: Instant,
    seq: u64,
}

/// Timer sequence numbers are process-wide, so a [`TimerId`] names one
/// timer across every executor: a stale id dropped into another
/// runtime (a later `block_on`, another thread) can never cancel a
/// timer it does not own.
static TIMER_SEQ: AtomicU64 = AtomicU64::new(0);

struct TaskSlot {
    task: Task,
    waker: Waker,
}

/// The executor's epoll reactor: fd-readability interest plus the
/// cross-thread doorbell. Created lazily on the first
/// [`register_fd_readable`] call, so sim-only and timer-only runs never
/// open an epoll fd.
struct Reactor {
    epoll: crate::sys::Epoll,
    doorbell: Arc<crate::sys::EventFd>,
    /// Registered fds → the waker to fire on readability. `None` after
    /// the event fired, until the owner re-registers on its next poll.
    interest: RefCell<BTreeMap<i32, Option<Waker>>>,
    /// Scratch for `epoll_wait` result tokens.
    tokens: RefCell<Vec<u64>>,
}

/// Token the reactor's own doorbell registers under (fds are their own
/// tokens; an fd can never be `u64::MAX`).
const DOORBELL_TOKEN: u64 = u64::MAX;

impl Reactor {
    fn new() -> std::io::Result<Reactor> {
        let epoll = crate::sys::Epoll::new()?;
        let doorbell = Arc::new(crate::sys::EventFd::new()?);
        epoll.add(doorbell.raw_fd(), DOORBELL_TOKEN)?;
        Ok(Reactor {
            epoll,
            doorbell,
            interest: RefCell::new(BTreeMap::new()),
            tokens: RefCell::new(Vec::with_capacity(64)),
        })
    }
}

#[derive(Default)]
struct Executor {
    /// Live tasks by id (`None` slots are free-listed).
    tasks: RefCell<Vec<Option<TaskSlot>>>,
    free: RefCell<Vec<usize>>,
    live: Cell<usize>,
    ready: Arc<ReadyQueue>,
    /// Pending timers in deadline order. Cancelled timers leave the map
    /// at once, so it holds exactly the live ones: the earliest key is
    /// the next real deadline, and a dropped `Sleep` or `Timeout`
    /// leaves no stale wake behind.
    timers: RefCell<BTreeMap<TimerId, Waker>>,
    metrics: Cell<Metrics>,
    /// `Some` while running under [`block_on_virtual`]: the virtual
    /// clock all timers and [`now`] read instead of the wall clock.
    virtual_now: Cell<Option<Instant>>,
    /// Lazily created epoll reactor (`None` until the first fd
    /// registration; stays `None` forever once creation failed).
    reactor: RefCell<Option<Rc<Reactor>>>,
    reactor_failed: Cell<bool>,
}

impl Executor {
    /// The reactor, creating it on first use. `None` when unavailable
    /// (non-Linux, resource exhaustion, or disabled for this thread).
    fn reactor(&self) -> Option<Rc<Reactor>> {
        if let Some(r) = self.reactor.borrow().as_ref() {
            return Some(r.clone());
        }
        if self.reactor_failed.get() {
            return None;
        }
        match Reactor::new() {
            Ok(r) => {
                let r = Rc::new(r);
                self.ready.set_doorbell(r.doorbell.clone());
                *self.reactor.borrow_mut() = Some(r.clone());
                Some(r)
            }
            Err(_) => {
                self.reactor_failed.set(true);
                None
            }
        }
    }
}

/// Executor work counters, cumulative since [`block_on`] entered.
///
/// `task_polls` is the load-bearing one: with waker-based readiness it
/// scales with *activity* (wakes), not with how many tasks exist — the
/// `bench-serve` harness reports it per session, and the regression
/// test `idle_tasks_poll_o1` pins that an idle 1k-task executor adds
/// O(1) polls per pass.
///
/// Counters are **per-`block_on`** (each entry builds a fresh
/// executor). For intervals *within* one `block_on` — a bench wave, a
/// stats window — take a baseline snapshot and subtract with
/// [`Metrics::delta`] rather than reading the cumulative values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Scheduler passes (each drains the ready queue once).
    pub passes: u64,
    /// Individual task polls (root future included).
    pub task_polls: u64,
    /// Timer entries fired.
    pub timer_fires: u64,
    /// Waker invocations (deduplicated wakes still count).
    pub wakes: u64,
    /// High-water mark of concurrently live spawned tasks.
    pub max_tasks: u64,
    /// Fd-readability wakeups delivered by the epoll reactor (doorbell
    /// rings excluded). Zero means the run never left the timer bridge.
    pub epoll_wakeups: u64,
}

impl Metrics {
    /// The work done since `earlier` (a previous [`metrics`] snapshot
    /// from the same `block_on`): event counters subtract;
    /// `max_tasks`, a high-water mark rather than a count, keeps the
    /// later (higher) value.
    pub fn delta(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            passes: self.passes.saturating_sub(earlier.passes),
            task_polls: self.task_polls.saturating_sub(earlier.task_polls),
            timer_fires: self.timer_fires.saturating_sub(earlier.timer_fires),
            wakes: self.wakes.saturating_sub(earlier.wakes),
            max_tasks: self.max_tasks,
            epoll_wakeups: self.epoll_wakeups.saturating_sub(earlier.epoll_wakeups),
        }
    }

    /// Accumulates another runtime's counters into this one (the
    /// multi-worker benches sum per-shard executors). Event counters
    /// add; `max_tasks` adds too — the runtimes run on concurrent
    /// threads, so the summed high-water marks bound the combined peak.
    pub fn absorb(&mut self, other: &Metrics) {
        self.passes += other.passes;
        self.task_polls += other.task_polls;
        self.timer_fires += other.timer_fires;
        self.wakes += other.wakes;
        self.max_tasks += other.max_tasks;
        self.epoll_wakeups += other.epoll_wakeups;
    }
}

thread_local! {
    static EXECUTOR: RefCell<Option<Rc<Executor>>> = const { RefCell::new(None) };
}

fn current() -> Rc<Executor> {
    EXECUTOR.with(|e| {
        // lint: allow(panic): documented API contract — every rt entry
        // point requires an ambient executor; this is a programmer
        // error at development time, never a runtime input.
        e.borrow().clone().expect("no runtime: call from within thinair_net::rt::block_on")
    })
}

/// A snapshot of the running executor's work counters.
///
/// # Panics
/// Panics outside [`block_on`].
pub fn metrics() -> Metrics {
    let ex = current();
    let mut m = ex.metrics.get();
    m.wakes = ex.ready.wakes();
    m
}

/// Number of spawned tasks currently live (pending or unjoined).
///
/// # Panics
/// Panics outside [`block_on`].
pub fn live_tasks() -> usize {
    current().live.get()
}

/// The runtime's notion of "now": the virtual clock under
/// [`block_on_virtual`], the wall clock everywhere else (including
/// outside any runtime).
///
/// Protocol code must read time through this — never `Instant::now()`
/// directly — so the same state machines run unmodified under both real
/// sockets and the exhaustive-exploration virtual clock.
pub fn now() -> Instant {
    EXECUTOR
        .with(|e| e.borrow().as_ref().and_then(|ex| ex.virtual_now.get()))
        .unwrap_or_else(Instant::now)
}

/// Registers a one-shot timer: `waker` is woken once `deadline` passes.
/// The building block of [`sleep`] / [`timeout`], also used by
/// transports to bridge pollable-but-not-wakeable I/O (UDP sockets)
/// into the waker world. The returned id cancels it ([`cancel_timer`]).
pub fn register_timer(deadline: Instant, waker: &Waker) -> TimerId {
    let id = TimerId { deadline, seq: TIMER_SEQ.fetch_add(1, Ordering::Relaxed) };
    current().timers.borrow_mut().insert(id, waker.clone());
    id
}

/// Withdraws a timer before it fires. A no-op for a timer that already
/// fired, or outside any runtime (a future dropped after its
/// `block_on` returned).
pub fn cancel_timer(id: TimerId) {
    let _ = EXECUTOR.try_with(|e| {
        let Some(ex) = e.borrow().clone() else { return };
        ex.timers.borrow_mut().remove(&id);
    });
}

/// Registers one-shot read interest: `waker` fires when `fd` becomes
/// readable. Returns `false` when no reactor is available (non-Linux,
/// or under a virtual clock) — the caller must then bridge with
/// [`register_timer`] instead.
///
/// The interest is level-triggered but the waker is consumed on
/// delivery, so the owner re-registers on every `Poll::Pending` (the
/// same discipline as waker registration anywhere else). Re-registering
/// an already-armed fd just refreshes the waker.
pub fn register_fd_readable(fd: i32, waker: &Waker) -> bool {
    let ex = current();
    // Virtual time admits no real I/O: readiness would race the
    // deterministic schedule the explorer replays.
    if ex.virtual_now.get().is_some() {
        return false;
    }
    let Some(reactor) = ex.reactor() else { return false };
    let mut interest = reactor.interest.borrow_mut();
    match interest.get_mut(&fd) {
        Some(slot) => {
            match slot {
                Some(w) if w.will_wake(waker) => {}
                _ => *slot = Some(waker.clone()),
            }
            true
        }
        None => {
            if reactor.epoll.add(fd, fd as u64).is_err() {
                return false;
            }
            interest.insert(fd, Some(waker.clone()));
            true
        }
    }
}

/// Drops read interest in `fd` (e.g. from a transport's `Drop`). Safe
/// to call outside any runtime or for an fd that was never registered —
/// both are no-ops.
pub fn deregister_fd(fd: i32) {
    EXECUTOR.with(|e| {
        let Some(ex) = e.borrow().clone() else { return };
        let Some(reactor) = ex.reactor.borrow().clone() else { return };
        if reactor.interest.borrow_mut().remove(&fd).is_some() {
            reactor.epoll.del(fd);
        }
    });
}

/// Handle to a spawned task's result.
pub struct JoinHandle<T> {
    slot: Rc<RefCell<JoinSlot<T>>>,
}

struct JoinSlot<T> {
    value: Option<T>,
    waker: Option<Waker>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.slot.borrow_mut();
        match slot.value.take() {
            Some(v) => Poll::Ready(v),
            None => {
                slot.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Spawns a task onto the current runtime.
///
/// The task runs until completion or until [`block_on`] returns (tasks
/// still pending at that point are dropped).
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let slot = Rc::new(RefCell::new(JoinSlot { value: None, waker: None }));
    let slot2 = slot.clone();
    let task: Task = Box::pin(async move {
        let out = fut.await;
        let mut s = slot2.borrow_mut();
        s.value = Some(out);
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    });
    let ex = current();
    let id = match ex.free.borrow_mut().pop() {
        Some(id) => id,
        None => {
            let mut tasks = ex.tasks.borrow_mut();
            tasks.push(None);
            tasks.len() - 1
        }
    };
    let waker = Waker::from(Arc::new(TaskWaker { id, ready: ex.ready.clone() }));
    ex.tasks.borrow_mut()[id] = Some(TaskSlot { task, waker });
    ex.live.set(ex.live.get() + 1);
    let mut m = ex.metrics.get();
    m.max_tasks = m.max_tasks.max(ex.live.get() as u64);
    ex.metrics.set(m);
    ex.ready.push(id);
    JoinHandle { slot }
}

/// Runs `main_fut` to completion, driving all spawned tasks.
///
/// # Panics
/// Panics when called from within an active runtime on the same thread.
pub fn block_on<F: Future>(main_fut: F) -> F::Output {
    block_on_with(main_fut, None)
}

/// Runs `main_fut` under a **virtual clock** starting at `start`.
///
/// Time never passes on its own: whenever every task is blocked, the
/// executor first calls `on_stall`. If the hook produces new work (a
/// stepped transport delivering a frame, say) it returns `true` and the
/// loop resumes without touching the clock; if it returns `false` the
/// clock jumps straight to the earliest pending timer deadline. The run
/// therefore never sleeps — wall-clock cost is pure CPU — and its
/// schedule is a deterministic function of the tasks plus the hook's
/// choices, which is what makes exhaustive interleaving exploration
/// (`thinair-scenario`'s `explore` module) possible over the unmodified
/// state machines.
///
/// # Panics
/// Panics on a *virtual deadlock*: no ready tasks, no pending timers,
/// and a stall hook that produced no work — under virtual time nothing
/// external can ever unblock the run. Also panics when nested inside an
/// active runtime, like [`block_on`].
pub fn block_on_virtual<F: Future>(
    main_fut: F,
    start: Instant,
    on_stall: &mut dyn FnMut() -> bool,
) -> F::Output {
    block_on_with(main_fut, Some((start, on_stall)))
}

fn block_on_with<F: Future>(
    main_fut: F,
    mut virt: Option<(Instant, &mut dyn FnMut() -> bool)>,
) -> F::Output {
    EXECUTOR.with(|e| {
        let mut slot = e.borrow_mut();
        assert!(slot.is_none(), "nested rt::block_on is not supported");
        let ex = Executor::default();
        if let Some((start, _)) = virt {
            ex.virtual_now.set(Some(start));
        }
        *slot = Some(Rc::new(ex));
    });
    // Ensure the executor slot is cleared even on panic.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            // Take the executor out, then drop it *after* the slot
            // borrow is released: dropping it drops its tasks, and a
            // task's transport may call [`deregister_fd`], which
            // re-borrows the slot.
            let ex = EXECUTOR.with(|e| e.borrow_mut().take());
            drop(ex);
        }
    }
    let _reset = Reset;

    let ex = current();
    let root_waker = Waker::from(Arc::new(TaskWaker { id: ROOT_ID, ready: ex.ready.clone() }));
    let mut main_fut = std::pin::pin!(main_fut);
    ex.ready.push(ROOT_ID);

    loop {
        // Timing histograms (poll latency, ready depth, timer lag) take
        // an `Instant::now` per event, so they are opt-in per thread
        // (`telemetry::set_timing`); counters stay always-on.
        let timing = crate::telemetry::timing_enabled();

        // Fire every due timer; their wakes land in the ready queue.
        let now = ex.virtual_now.get().unwrap_or_else(Instant::now);
        loop {
            let due = {
                let mut timers = ex.timers.borrow_mut();
                match timers.first_key_value() {
                    Some((id, _)) if id.deadline <= now => timers.pop_first(),
                    _ => None,
                }
            };
            match due {
                Some((id, waker)) => {
                    if timing {
                        let lag = now.saturating_duration_since(id.deadline);
                        crate::telemetry::observe("rt.timer_lag_us", lag.as_micros() as u64);
                    }
                    waker.wake();
                    let mut m = ex.metrics.get();
                    m.timer_fires += 1;
                    ex.metrics.set(m);
                }
                None => break,
            }
        }

        // One pass: poll exactly the woken tasks.
        {
            let mut m = ex.metrics.get();
            m.passes += 1;
            ex.metrics.set(m);
        }
        if timing {
            crate::telemetry::observe("rt.ready_depth", ex.ready.len() as u64);
        }
        while let Some(id) = ex.ready.pop() {
            let mut m = ex.metrics.get();
            m.task_polls += 1;
            ex.metrics.set(m);
            let poll_start = if timing { Some(Instant::now()) } else { None };
            if id == ROOT_ID {
                let mut cx = Context::from_waker(&root_waker);
                let res = main_fut.as_mut().poll(&mut cx);
                if let Some(t0) = poll_start {
                    crate::telemetry::observe("rt.poll_us", t0.elapsed().as_micros() as u64);
                }
                if let Poll::Ready(out) = res {
                    return out;
                }
                continue;
            }
            // Take the task out of its slot while polling, so the poll
            // can reentrantly spawn (which touches the slab) without a
            // double borrow.
            let slot = ex.tasks.borrow_mut()[id].take();
            let Some(mut slot) = slot else { continue }; // completed, stale wake
            let mut cx = Context::from_waker(&slot.waker);
            match slot.task.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    ex.free.borrow_mut().push(id);
                    ex.live.set(ex.live.get() - 1);
                }
                Poll::Pending => ex.tasks.borrow_mut()[id] = Some(slot),
            }
            if let Some(t0) = poll_start {
                crate::telemetry::observe("rt.poll_us", t0.elapsed().as_micros() as u64);
            }
        }

        // Nothing ready (a task's own wake during its poll re-enters the
        // queue and is caught here): sleep until the earliest timer — or,
        // under a virtual clock, consult the stall hook and then *jump*
        // to the earliest timer.
        if ex.ready.is_empty() {
            if let Some((_, on_stall)) = virt.as_mut() {
                if on_stall() {
                    continue; // the hook woke something; no time passes
                }
                let next = ex.timers.borrow().first_key_value().map(|(id, _)| id.deadline);
                match next {
                    Some(deadline) => {
                        // Monotone: a due-now timer leaves the clock put.
                        // lint: allow(panic): `virt.is_some()` on this
                        // branch implies `virtual_now` was seeded by
                        // `block_on_virtual`; never reachable in serve.
                        let now = ex.virtual_now.get().expect("virtual mode set");
                        ex.virtual_now.set(Some(deadline.max(now)));
                    }
                    // lint: allow(panic): virtual-time (test/explore)
                    // mode only — a stuck schedule must fail loudly,
                    // and the wall-clock serve path never enters here.
                    None => panic!(
                        "virtual deadlock: no ready tasks, no timers, and the \
                         stall hook produced no work"
                    ),
                }
                continue;
            }
            let next = ex.timers.borrow().first_key_value().map(|(id, _)| id.deadline);
            let now = Instant::now();
            let until_timer = match next {
                Some(deadline) if deadline > now => Some(deadline - now),
                Some(_) => continue, // a timer is already due: loop around
                None => None,
            };
            // With a reactor live, park in epoll_wait: a datagram or a
            // cross-thread wake (doorbell) ends the sleep immediately,
            // and with no timer pending we can wait indefinitely — any
            // wake reaches us through a registered fd. Without one,
            // plain thread::sleep; a timerless idle is then a genuine
            // deadlock and we tick rather than spin (the pre-waker
            // executor's behavior).
            let reactor = ex.reactor.borrow().clone();
            match reactor {
                Some(r) => {
                    if !ex.ready.park_if_empty() {
                        continue; // a wake slipped in; don't sleep
                    }
                    let mut tokens = r.tokens.borrow_mut();
                    tokens.clear();
                    let res = r.epoll.wait(until_timer, &mut tokens);
                    ex.ready.unpark();
                    if res.is_ok() {
                        let mut fd_wakes = 0u64;
                        for &token in tokens.iter() {
                            if token == DOORBELL_TOKEN {
                                r.doorbell.drain();
                                continue;
                            }
                            let fd = token as i32;
                            let mut interest = r.interest.borrow_mut();
                            if let Some(slot) = interest.get_mut(&fd) {
                                match slot.take() {
                                    Some(w) => {
                                        w.wake();
                                        fd_wakes += 1;
                                    }
                                    None => {
                                        // Readable but nobody listening:
                                        // stop watching or the level-
                                        // triggered event would fire on
                                        // every park.
                                        interest.remove(&fd);
                                        r.epoll.del(fd);
                                    }
                                }
                            }
                        }
                        if fd_wakes > 0 {
                            let mut m = ex.metrics.get();
                            m.epoll_wakeups += fd_wakes;
                            ex.metrics.set(m);
                        }
                    }
                }
                None => match until_timer {
                    Some(d) => std::thread::sleep(d),
                    None => std::thread::sleep(TICK),
                },
            }
        }
    }
}

/// A timer future: ready once the deadline passes.
#[derive(Debug)]
pub struct Sleep {
    deadline: Instant,
    timer: Option<TimerId>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if now() >= self.deadline {
            Poll::Ready(())
        } else {
            // Register once: the deadline is fixed, so the single timer
            // guarantees the wake. Re-registering on every poll would
            // let wakes from other sources mint fresh timers — a
            // feedback loop that grows the map and the spurious-poll
            // rate over a task's lifetime.
            if self.timer.is_none() {
                self.timer = Some(register_timer(self.deadline, cx.waker()));
            }
            Poll::Pending
        }
    }
}

impl Drop for Sleep {
    /// A sleep abandoned early (or woken by another source after its
    /// deadline, before its timer fired) takes its timer with it.
    fn drop(&mut self) {
        if let Some(id) = self.timer.take() {
            cancel_timer(id);
        }
    }
}

/// Completes after `d`.
pub fn sleep(d: Duration) -> Sleep {
    Sleep { deadline: now() + d, timer: None }
}

/// Completes at `deadline`.
pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep { deadline, timer: None }
}

/// Yields once, letting other tasks run before this one resumes.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug, Default)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            // Immediately re-ready: the wake queues this task behind
            // everything already woken, which is the yield.
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// The timeout elapsed before the inner future completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timeout elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Future returned by [`timeout`] and [`timeout_at`].
#[derive(Debug)]
pub struct Timeout<F> {
    fut: F,
    deadline: Instant,
    timer: Option<TimerId>,
}

impl<F: Future + Unpin> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if let Poll::Ready(v) = Pin::new(&mut this.fut).poll(cx) {
            return Poll::Ready(Ok(v));
        }
        if now() >= this.deadline {
            return Poll::Ready(Err(Elapsed));
        }
        // Register once per instance (see `Sleep::poll`); an early
        // completion cancels the timer on drop.
        if this.timer.is_none() {
            this.timer = Some(register_timer(this.deadline, cx.waker()));
        }
        Poll::Pending
    }
}

impl<F> Drop for Timeout<F> {
    fn drop(&mut self) {
        if let Some(id) = self.timer.take() {
            cancel_timer(id);
        }
    }
}

/// Limits `fut` to duration `d`. The future must be `Unpin` (wrap in
/// `Box::pin` otherwise).
pub fn timeout<F: Future + Unpin>(d: Duration, fut: F) -> Timeout<F> {
    timeout_at(now() + d, fut)
}

/// Limits `fut` to complete by `deadline` — the shape of a state
/// machine that sleeps until its earliest real deadline or an event.
pub fn timeout_at<F: Future + Unpin>(deadline: Instant, fut: F) -> Timeout<F> {
    Timeout { fut, deadline, timer: None }
}

/// An unbounded single-threaded channel, in the mpsc shape the session
/// router needs. A send wakes (only) the task awaiting the receive.
pub mod chan {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::task::{Context, Poll, Waker};

    struct Shared<T> {
        queue: RefCell<VecDeque<T>>,
        senders: std::cell::Cell<usize>,
        /// Waker of the task blocked in [`Receiver::recv`], if any.
        recv_waker: RefCell<Option<Waker>>,
    }

    impl<T> Shared<T> {
        fn wake_receiver(&self) {
            if let Some(w) = self.recv_waker.borrow_mut().take() {
                w.wake();
            }
        }
    }

    /// Sending half; clonable.
    pub struct Sender<T> {
        shared: Rc<Shared<T>>,
    }

    /// Receiving half.
    pub struct Receiver<T> {
        shared: Rc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.set(self.shared.senders.get() + 1);
            Sender { shared: self.shared.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let left = self.shared.senders.get() - 1;
            self.shared.senders.set(left);
            if left == 0 {
                // Closing the channel is an event the receiver awaits.
                self.shared.wake_receiver();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a value (never blocks) and wakes the receiver.
        pub fn send(&self, v: T) {
            self.shared.queue.borrow_mut().push_back(v);
            self.shared.wake_receiver();
        }
    }

    impl<T> Receiver<T> {
        /// Receives the next value; `None` once all senders are gone and
        /// the queue is drained.
        pub fn recv(&mut self) -> Recv<'_, T> {
            Recv { rx: self }
        }

        /// Non-blocking pop.
        pub fn try_recv(&mut self) -> Option<T> {
            self.shared.queue.borrow_mut().pop_front()
        }
    }

    /// Future returned by [`Receiver::recv`]; `Unpin` so it can be used
    /// with [`super::timeout`].
    pub struct Recv<'a, T> {
        rx: &'a mut Receiver<T>,
    }

    impl<T> Future for Recv<'_, T> {
        type Output = Option<T>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
            let shared = &self.rx.shared;
            if let Some(v) = shared.queue.borrow_mut().pop_front() {
                return Poll::Ready(Some(v));
            }
            if shared.senders.get() == 0 {
                return Poll::Ready(None);
            }
            let mut slot = shared.recv_waker.borrow_mut();
            match slot.as_ref() {
                Some(w) if w.will_wake(cx.waker()) => {}
                _ => *slot = Some(cx.waker().clone()),
            }
            Poll::Pending
        }
    }

    /// Creates an unbounded channel.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Rc::new(Shared {
            queue: RefCell::new(VecDeque::new()),
            senders: std::cell::Cell::new(1),
            recv_waker: RefCell::new(None),
        });
        (Sender { shared: shared.clone() }, Receiver { shared })
    }
}

// Re-exported so `use rt::channel` works like `tokio::sync::mpsc`.
pub use chan::channel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_returns_value() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn spawned_tasks_run_and_join() {
        let out = block_on(async {
            let h1 = spawn(async { 10u32 });
            let h2 = spawn(async {
                yield_now().await;
                32u32
            });
            h1.await + h2.await
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn sleep_waits_roughly_right() {
        let start = Instant::now();
        block_on(async {
            sleep(Duration::from_millis(20)).await;
        });
        let dt = start.elapsed();
        assert!(dt >= Duration::from_millis(20), "slept {dt:?}");
        assert!(dt < Duration::from_millis(500), "slept {dt:?}");
    }

    #[test]
    fn timeout_fires_on_slow_future() {
        block_on(async {
            let (tx, mut rx) = channel::<u8>();
            let r = timeout(Duration::from_millis(10), rx.recv()).await;
            assert_eq!(r, Err(Elapsed));
            tx.send(7);
            let r = timeout(Duration::from_millis(10), rx.recv()).await;
            assert_eq!(r, Ok(Some(7)));
        });
    }

    #[test]
    fn channel_round_trips_in_order() {
        block_on(async {
            let (tx, mut rx) = channel();
            let sender = spawn(async move {
                for i in 0..100u32 {
                    tx.send(i);
                    if i % 10 == 0 {
                        yield_now().await;
                    }
                }
            });
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            sender.await;
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn channel_closes_when_senders_drop() {
        block_on(async {
            let (tx, mut rx) = channel::<u8>();
            drop(tx);
            assert_eq!(rx.recv().await, None);
        });
    }

    #[test]
    fn cross_task_channel_wakes_receiver() {
        // The receiver blocks first; only the sender's wake may resume
        // it (no polling safety net in the waker executor).
        let got = block_on(async {
            let (tx, mut rx) = channel::<u32>();
            let recv_task = spawn(async move { rx.recv().await });
            spawn(async move {
                sleep(Duration::from_millis(5)).await;
                tx.send(99);
            });
            recv_task.await
        });
        assert_eq!(got, Some(99));
    }

    /// The busy-spin regression test: an executor with 1 000 idle
    /// (channel-blocked) tasks must not re-poll them when unrelated
    /// work happens — polls per pass are O(woken), not O(tasks).
    #[test]
    fn idle_tasks_poll_o1() {
        const IDLE: usize = 1_000;
        block_on(async {
            // Park 1k tasks on channels that never receive; keep the
            // senders alive so the channels never close.
            let mut keep: Vec<chan::Sender<u8>> = Vec::with_capacity(IDLE);
            for _ in 0..IDLE {
                let (tx, mut rx) = channel::<u8>();
                keep.push(tx);
                spawn(async move {
                    rx.recv().await;
                });
            }
            // Let every parked task reach its first (and only) poll.
            yield_now().await;
            let before = metrics();
            // Unrelated busy work: a ping-pong task plus timers, over
            // many scheduler passes.
            for _ in 0..50 {
                let h = spawn(async {
                    yield_now().await;
                    7u8
                });
                assert_eq!(h.await, 7);
                sleep(Duration::from_micros(200)).await;
            }
            let after = metrics();
            let polls = after.task_polls - before.task_polls;
            let passes = after.passes - before.passes;
            assert!(passes >= 50, "expected many passes, got {passes}");
            // 50 iterations × a handful of polls each (root + ping-pong
            // task + wake bookkeeping). With the old polling executor
            // this would be ≥ passes × 1000 ≈ 100 000.
            assert!(
                polls < 1_000,
                "idle tasks were re-polled: {polls} polls over {passes} passes \
                 with {IDLE} idle tasks"
            );
            drop(keep);
        });
    }

    /// A timeout whose future wins leaves no timer behind: it neither
    /// fires later as a stale wake nor stays in the timer map.
    #[test]
    fn completed_timeouts_cancel_their_timers() {
        block_on(async {
            let before = metrics();
            for i in 0..100u32 {
                let (tx, mut rx) = channel::<u32>();
                spawn(async move { tx.send(i) });
                let got = timeout(Duration::from_secs(60), rx.recv()).await;
                assert_eq!(got, Ok(Some(i)));
            }
            assert_eq!(current().timers.borrow().len(), 0, "cancelled timers stay in the map");
            sleep(Duration::from_millis(2)).await;
            let fired = metrics().timer_fires - before.timer_fires;
            assert_eq!(fired, 1, "only the live sleep fires");
        });
    }

    #[test]
    fn metrics_track_max_tasks() {
        block_on(async {
            let h1 = spawn(async { yield_now().await });
            let h2 = spawn(async { yield_now().await });
            h1.await;
            h2.await;
            assert!(metrics().max_tasks >= 2);
            assert_eq!(live_tasks(), 0);
        });
    }

    /// A virtual run never sleeps: an hour of virtual timers completes
    /// in (wall-clock) microseconds, in deadline order, and `rt::now()`
    /// tracks the virtual clock.
    #[test]
    fn virtual_clock_jumps_over_long_sleeps() {
        let wall_start = Instant::now();
        let base = Instant::now();
        let order = block_on_virtual(
            async move {
                let start = now();
                let order: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
                let (o1, o2) = (order.clone(), order.clone());
                let h1 = spawn(async move {
                    sleep(Duration::from_secs(3600)).await;
                    o1.borrow_mut().push(2);
                });
                let h2 = spawn(async move {
                    sleep(Duration::from_secs(60)).await;
                    o2.borrow_mut().push(1);
                });
                h1.await;
                h2.await;
                assert!(now() >= start + Duration::from_secs(3600), "clock advanced");
                Rc::try_unwrap(order).expect("sole owner").into_inner()
            },
            base,
            &mut || false,
        );
        assert_eq!(order, vec![1, 2]);
        assert!(wall_start.elapsed() < Duration::from_secs(10), "virtual run must not sleep");
    }

    /// The stall hook runs exactly at the quiescent points and can
    /// inject work without letting time pass.
    #[test]
    fn stall_hook_injects_work_before_time_advances() {
        let base = Instant::now();
        let (tx, mut rx) = channel::<u8>();
        let mut fed = false;
        let got = block_on_virtual(
            async move {
                // Without the hook this would time out: nothing sends.
                timeout(Duration::from_secs(5), rx.recv()).await
            },
            base,
            &mut move || {
                if fed {
                    return false;
                }
                fed = true;
                tx.send(42);
                true
            },
        );
        assert_eq!(got, Ok(Some(42)));
    }

    #[test]
    #[should_panic(expected = "virtual deadlock")]
    fn virtual_deadlock_panics_instead_of_hanging() {
        // The sender stays alive so the channel never closes: the root
        // blocks forever with no timer, and the hook has nothing to add.
        let (_tx, mut rx) = channel::<u8>();
        block_on_virtual(async move { rx.recv().await }, Instant::now(), &mut || false);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let order = block_on(async {
            let order: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
            let (o1, o2, o3) = (order.clone(), order.clone(), order.clone());
            let h1 = spawn(async move {
                sleep(Duration::from_millis(30)).await;
                o1.borrow_mut().push(3);
            });
            let h2 = spawn(async move {
                sleep(Duration::from_millis(10)).await;
                o2.borrow_mut().push(1);
            });
            let h3 = spawn(async move {
                sleep(Duration::from_millis(20)).await;
                o3.borrow_mut().push(2);
            });
            h1.await;
            h2.await;
            h3.await;
            Rc::try_unwrap(order).expect("sole owner").into_inner()
        });
        assert_eq!(order, vec![1, 2, 3]);
    }
}
