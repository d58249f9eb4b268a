//! Multi-core sharded serve: session-id-hash dispatch across worker
//! runtimes.
//!
//! One [`crate::serve::Server`] on one thread tops out on a single
//! core. This module scales the daemon *horizontally on one address*:
//! N worker threads, each with its own [`crate::rt`] executor (and
//! epoll reactor), its own `SO_REUSEPORT` socket, its own
//! [`crate::serve::Server`] (receive loop, routes, admission) and
//! [`crate::transport::SharedTransport`] + flow budget — **no shared
//! mutable protocol state between shards**.
//!
//! # Dispatch rule
//!
//! A session lives on shard [`shard_of`]`(session_id, workers)` —
//! a splitmix64 hash, so consecutive ids spread uniformly. The rule is
//! per-process: every shard of one daemon agrees, and nothing
//! cross-node depends on it (each node shards its own traffic).
//!
//! The kernel's `SO_REUSEPORT` steering hashes the *4-tuple*, so every
//! datagram from one peer socket lands on **one** of our sockets — the
//! kernel cannot dispatch by session id. The receiving shard therefore
//! decodes each frame and forwards the ones it does not own to the
//! owning sibling's inbox, ringing the sibling's waker (which
//! interrupts its `epoll_wait` via the runtime's eventfd doorbell).
//! Every forwarded frame is accounted for: `net.shard.forwarded` equals
//! `net.shard.injected` plus `net.shard.dropped`, the frames that met an
//! inbox already closed by its shard's shutdown. Sends need no such hop:
//! all shard sockets share the bound source address, so a frame sent
//! from any shard passes the remote roster's source-address check
//! identically.
//!
//! # Per-shard state & admission alignment
//!
//! Admission caps, the spent-session window, and the FIFO re-admission
//! queue are all per-shard (each shard gets
//! `max_sessions / workers`, rounded up). The cross-daemon FIFO
//! alignment argument from [`crate::serve`] survives sharding because
//! the shard function is identical on sibling daemons: the same
//! session ids map to the same shard index everywhere, so shard *k* of
//! every daemon sees the same Start sub-stream in near-identical order
//! and re-admits in the same order.

use std::collections::VecDeque;
use std::future::Future;
use std::io;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::frame::Frame;
use crate::rt;
use crate::serve::{ServeLimits, ServeStats, Server};
use crate::session::{SessionConfig, SessionOutcome};
use crate::transport::{SharedTransport, Transport, UdpTransport};
use crate::udp::AsyncUdpSocket;

/// Maps a session id to its owning worker shard. Deterministic per
/// process — every shard of one daemon agrees, which is all the
/// dispatch rule needs (no cross-node agreement is required: each node
/// shards its own traffic independently).
pub fn shard_of(session: u64, workers: usize) -> usize {
    debug_assert!(workers > 0);
    // splitmix64 finalizer: full-avalanche, so consecutive session ids
    // spread uniformly across shards.
    let mut z = session.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z = z ^ (z >> 31);
    (z % workers as u64) as usize
}

/// A shard's cross-shard inbox: frames its siblings forwarded to it,
/// and the waker that interrupts its executor (the wake crosses threads
/// — the target's ready queue is mutex-guarded and rings its eventfd
/// doorbell if the target executor is parked in `epoll_wait`).
///
/// Every forwarded frame ends in exactly one of `net.shard.injected`
/// (the owner took it) or `net.shard.dropped` (it reached the inbox after
/// the owner closed it, or was still queued when the owner closed it), so
/// `forwarded == injected + dropped` holds exactly once every shard has
/// stopped.
#[derive(Default)]
struct Inbox {
    frames: VecDeque<Frame>,
    waker: Option<Waker>,
    closed: bool,
}

type SharedInbox = Arc<Mutex<Inbox>>;

/// Every update leaves an inbox consistent, so a lock poisoned by a
/// panicking holder is still safe to use.
fn lock(inbox: &SharedInbox) -> MutexGuard<'_, Inbox> {
    inbox.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Hands `frame` to a sibling's inbox and wakes it. A closed inbox means
/// the sibling already shut down; the frame is indistinguishable from
/// one lost on the wire, which the protocol absorbs, and is counted.
fn push(inbox: &SharedInbox, frame: Frame) {
    let mut q = lock(inbox);
    if q.closed {
        drop(q);
        crate::telemetry::counter_add("net.shard.dropped", 1);
        return;
    }
    q.frames.push_back(frame);
    let waker = q.waker.clone();
    drop(q);
    if let Some(w) = waker {
        w.wake();
    }
}

/// One shard's transport: a `SO_REUSEPORT` UDP socket plus the
/// cross-shard frame-forwarding fabric. Frames for sessions this shard
/// does not own are handed to the owning sibling; frames injected by
/// siblings surface here ahead of the socket.
pub struct ShardTransport {
    udp: UdpTransport,
    shard: usize,
    workers: usize,
    /// Our own inbox; its waker is registered on every empty poll so
    /// siblings can interrupt our executor.
    inbox: SharedInbox,
    /// Siblings' inboxes indexed by shard (`None` at our own index).
    siblings: Vec<Option<SharedInbox>>,
    /// Frames received on our socket but owned (and handed to) another
    /// shard.
    forwarded: u64,
    /// Frames a sibling handed to us.
    injected: u64,
}

impl ShardTransport {
    /// This transport's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of shards in the group.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The bound local address (all shards in a group share it).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.udp.local_addr()
    }

    /// Frames received here but owned by (and forwarded to) a sibling.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Frames a sibling forwarded to us.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Closes this shard's inbox: frames still queued in it, and any a
    /// sibling forwards later, are counted as `net.shard.dropped`. A
    /// worker closes it before snapshotting its telemetry; dropping the
    /// transport closes it too.
    pub fn close(&self) {
        let mut inbox = lock(&self.inbox);
        inbox.closed = true;
        inbox.waker = None;
        let left = std::mem::take(&mut inbox.frames).len() as u64;
        drop(inbox);
        if left > 0 {
            crate::telemetry::counter_add("net.shard.dropped", left);
        }
    }

    /// The next sibling-injected frame; with none queued, registers our
    /// waker under the same lock, so a racing injection finds it.
    fn take_injected(&self, cx: &Context<'_>) -> Option<Frame> {
        let mut inbox = lock(&self.inbox);
        let frame = inbox.frames.pop_front();
        if frame.is_none() {
            match &inbox.waker {
                Some(w) if w.will_wake(cx.waker()) => {}
                _ => inbox.waker = Some(cx.waker().clone()),
            }
        }
        frame
    }
}

impl Drop for ShardTransport {
    fn drop(&mut self) {
        self.close();
    }
}

impl Transport for ShardTransport {
    fn local_node(&self) -> u8 {
        self.udp.local_node()
    }

    fn node_count(&self) -> usize {
        self.udp.node_count()
    }

    fn send_to(&mut self, to: u8, frame: &Frame) -> io::Result<()> {
        self.udp.send_to(to, frame)
    }

    fn broadcast(&mut self, frame: &Frame) -> io::Result<()> {
        self.udp.broadcast(frame)
    }

    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<Frame>> {
        loop {
            // Sibling-injected frames first: they were already decoded,
            // validated, and waited once on another shard's queue.
            if let Some(frame) = self.take_injected(cx) {
                self.injected += 1;
                crate::telemetry::counter_add("net.shard.injected", 1);
                return Poll::Ready(Ok(frame));
            }
            match self.udp.poll_recv(cx) {
                Poll::Ready(Ok(frame)) => {
                    let owner = shard_of(frame.session, self.workers);
                    if owner == self.shard {
                        return Poll::Ready(Ok(frame));
                    }
                    self.forwarded += 1;
                    crate::telemetry::counter_add("net.shard.forwarded", 1);
                    if let Some(sib) = &self.siblings[owner] {
                        push(sib, frame);
                    }
                }
                other => return other,
            }
        }
    }

    fn invalid_frames(&self) -> u64 {
        self.udp.invalid_frames()
    }

    fn send_errors(&self) -> u64 {
        self.udp.send_errors()
    }
}

/// Binds `workers` sockets sharing one address via `SO_REUSEPORT`.
/// With `bind` on port 0 the OS picks the port once (from the first
/// socket) and the rest join it. A single worker binds one plain
/// socket — no kernel port sharing, no forwarding fabric needed.
pub fn bind_shard_sockets(bind: SocketAddr, workers: usize) -> io::Result<Vec<AsyncUdpSocket>> {
    assert!(workers > 0, "at least one shard");
    if workers == 1 {
        return Ok(vec![AsyncUdpSocket::bind(bind)?]);
    }
    let first = AsyncUdpSocket::bind_reuseport(bind)?;
    let addr = first.local_addr()?;
    let mut sockets = vec![first];
    for _ in 1..workers {
        sockets.push(AsyncUdpSocket::bind_reuseport(addr)?);
    }
    Ok(sockets)
}

/// Wires `sockets` (one per shard, typically from
/// [`bind_shard_sockets`]) into a group of [`ShardTransport`]s with
/// the cross-shard forwarding fabric between them. Each transport is
/// `Send` — move it to its worker thread and run a
/// [`crate::serve::Server`] (or any other role) over it.
pub fn shard_group(
    sockets: Vec<AsyncUdpSocket>,
    peers: Vec<SocketAddr>,
    node: u8,
) -> Vec<ShardTransport> {
    let workers = sockets.len();
    let inboxes: Vec<SharedInbox> = (0..workers).map(|_| SharedInbox::default()).collect();
    sockets
        .into_iter()
        .enumerate()
        .map(|(i, sock)| ShardTransport {
            udp: UdpTransport::new(sock, peers.clone(), node),
            shard: i,
            workers,
            inbox: inboxes[i].clone(),
            siblings: (0..workers).map(|j| (j != i).then(|| inboxes[j].clone())).collect(),
            forwarded: 0,
            injected: 0,
        })
        .collect()
}

/// What one shard worker did over its lifetime (returned by
/// [`run_sharded_serve`], one per shard).
#[derive(Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The shard's registry counters. Each admitted session is counted
    /// on exactly one shard (the owner), so summing buckets across
    /// reports partitions the daemon totals.
    pub stats: ServeStats,
    /// Outcomes of sessions served on this shard (empty unless
    /// `collect_outcomes`).
    pub outcomes: Vec<SessionOutcome>,
    /// The worker thread's telemetry registry at exit (includes
    /// `net.shard.forwarded` / `net.shard.injected` /
    /// `net.shard.dropped`).
    pub snapshot: crate::telemetry::Snapshot,
    /// The worker runtime's executor counters at exit.
    pub rt_metrics: rt::Metrics,
    /// Socket sends on this shard that failed or were dropped.
    pub send_errors: u64,
}

/// Per-outcome callback invoked on the worker thread as each session
/// terminates, as `(shard, outcome)`.
pub type OutcomeHook = Arc<dyn Fn(usize, &SessionOutcome) + Send + Sync>;

/// Options for [`run_sharded_serve`].
#[derive(Clone)]
pub struct ShardedServeOptions {
    /// Session configuration every admitted round must match.
    pub cfg: SessionConfig,
    /// Per-session local-randomness seed (same meaning as
    /// [`Server::new`]; identical across shards — sessions are
    /// disjoint, so seeds don't collide).
    pub seed: u64,
    /// Daemon-total limits; `max_sessions` splits across shards
    /// (rounded up).
    pub limits: ServeLimits,
    /// Keep every session outcome in the [`ShardReport`] (benches and
    /// tests audit them; a long-lived daemon should leave this off).
    pub collect_outcomes: bool,
    /// Invoked on the worker thread as each session terminates
    /// (`(shard, outcome)`): the CLI's outcome printer.
    pub on_outcome: Option<OutcomeHook>,
    /// Enable per-thread telemetry timing histograms in each worker.
    pub timing: bool,
}

/// How often the calling thread of [`run_sharded_serve`] checks the
/// stop flag. The workers never poll it: they sleep until an event, and
/// the watcher's wake reaches them through their doorbells.
const STOP_WATCH: Duration = Duration::from_millis(5);

/// A worker's view of the daemon's stop flag: ready once the flag is
/// set. The flag is a bare atomic that wakes nobody, so the calling
/// thread watches it and rings the waker parked in `wake`.
struct StopSignal {
    flag: Arc<AtomicBool>,
    wake: Arc<Mutex<Option<Waker>>>,
}

impl Future for StopSignal {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // Park the waker before the check, so a stop set in between
        // finds it.
        *self.wake.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some(cx.waker().clone());
        if self.flag.load(Ordering::Acquire) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// Runs one serve daemon sharded across `sockets.len()` worker
/// threads, blocking until `stop` is set (the calling thread watches
/// the flag and wakes every worker, which drains and reports). Returns
/// one [`ShardReport`] per shard, index-aligned.
///
/// # Panics
/// Panics if a worker thread panics (the panic propagates).
pub fn run_sharded_serve(
    sockets: Vec<AsyncUdpSocket>,
    peers: Vec<SocketAddr>,
    node: u8,
    opts: ShardedServeOptions,
    stop: Arc<AtomicBool>,
) -> io::Result<Vec<ShardReport>> {
    let workers = sockets.len();
    let per_shard = ServeLimits {
        max_sessions: opts.limits.max_sessions.div_ceil(workers).max(1),
        ..opts.limits
    };
    let transports = shard_group(sockets, peers, node);
    let wakes: Vec<Arc<Mutex<Option<Waker>>>> = (0..workers).map(|_| Arc::default()).collect();
    let mut reports: Vec<io::Result<ShardReport>> = std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .into_iter()
            .zip(&wakes)
            .map(|(t, wake)| {
                let signal = StopSignal { flag: stop.clone(), wake: wake.clone() };
                let opts = opts.clone();
                s.spawn(move || shard_worker(t, opts, per_shard, signal))
            })
            .collect();
        while !stop.load(Ordering::Acquire) && !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(STOP_WATCH);
        }
        for wake in &wakes {
            let waker = wake.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
            if let Some(w) = waker {
                w.wake();
            }
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(report) => report,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut out = Vec::with_capacity(workers);
    for r in reports.drain(..) {
        out.push(r?);
    }
    Ok(out)
}

/// One worker: its own executor, reactor, registry, flow budget.
fn shard_worker(
    t: ShardTransport,
    opts: ShardedServeOptions,
    limits: ServeLimits,
    stop: StopSignal,
) -> io::Result<ShardReport> {
    let shard = t.shard();
    crate::telemetry::set_timing(opts.timing);
    rt::block_on(async move {
        let shared = SharedTransport::new(t);
        // The server consumes the transport handle; keep a tap for the
        // post-run send-error count.
        let tap = shared.clone();
        let mut server = Server::new(shared, opts.cfg.clone(), opts.seed, limits);
        let handle = server.handle();
        let mut outcomes_rx = server.outcomes();
        rt::spawn(async move {
            stop.await;
            handle.stop();
        });
        let run = rt::spawn(server.run());
        // Live outcome drain: keeps the channel bounded in practice and
        // feeds the CLI printer while the daemon runs. The stream
        // closes when the server stops.
        let mut outcomes = Vec::new();
        while let Some(o) = outcomes_rx.recv().await {
            if let Some(cb) = &opts.on_outcome {
                cb(shard, &o);
            }
            if opts.collect_outcomes {
                outcomes.push(o);
            }
        }
        let stats = run.await?;
        // Frames a sibling forwarded here after the server stopped are
        // counted before the snapshot, here or on the sibling.
        tap.with(ShardTransport::close);
        Ok(ShardReport {
            shard,
            stats,
            outcomes,
            snapshot: crate::telemetry::snapshot(),
            rt_metrics: rt::metrics(),
            send_errors: tap.send_errors(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for workers in 1..=8 {
            for session in 0..1000u64 {
                let a = shard_of(session, workers);
                assert_eq!(a, shard_of(session, workers));
                assert!(a < workers);
            }
        }
    }

    #[test]
    fn shard_of_spreads_consecutive_ids() {
        let workers = 4;
        let mut buckets = vec![0u32; workers];
        for session in 0..4000u64 {
            buckets[shard_of(session, workers)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            // Uniform would be 1000 per bucket; allow wide slack.
            assert!((700..=1300).contains(&b), "bucket {i} holds {b} of 4000");
        }
    }

    #[test]
    fn group_sockets_share_one_port() {
        let sockets =
            bind_shard_sockets("127.0.0.1:0".parse().expect("addr"), 3).expect("bind group");
        let port = sockets[0].local_addr().expect("addr").port();
        for s in &sockets[1..] {
            assert_eq!(s.local_addr().expect("addr").port(), port);
        }
    }

    /// A forwarded frame that a stopped shard never takes is counted,
    /// whether it was still queued when the shard closed its inbox or
    /// was forwarded after.
    #[test]
    fn frames_meeting_a_closed_inbox_count_as_dropped() {
        let sockets =
            bind_shard_sockets("127.0.0.1:0".parse().expect("addr"), 2).expect("bind group");
        let roster = vec![sockets[0].local_addr().expect("addr"); 2];
        let group = shard_group(sockets, roster, 1);
        let to_second = group[0].siblings[1].as_ref().expect("sibling inbox");
        let fin = Frame {
            flags: 0,
            sender: 0,
            session: 7,
            seq: 1,
            payload: crate::frame::NetPayload::Fin,
        };
        let dropped =
            || crate::telemetry::snapshot().counters.get("net.shard.dropped").copied().unwrap_or(0);
        let before = dropped();
        push(to_second, fin.clone());
        assert_eq!(dropped(), before, "an open inbox queues the frame");
        group[1].close();
        assert_eq!(dropped(), before + 1, "the queued frame counts at close");
        push(to_second, fin);
        assert_eq!(dropped(), before + 2, "a frame forwarded after close counts");
        assert!(lock(to_second).frames.is_empty());
    }
}
