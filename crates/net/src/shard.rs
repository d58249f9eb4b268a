//! Multi-core sharded serve: kernel-steered dispatch across worker
//! runtimes.
//!
//! One [`crate::serve::Server`] on one thread tops out on a single
//! core. This module scales the daemon *horizontally on one address*:
//! N worker threads, each with its own [`crate::rt`] executor (and
//! epoll reactor), its own `SO_REUSEPORT` socket, its own
//! [`crate::serve::Server`] (receive loop, routes, admission) and
//! [`crate::transport::SharedTransport`] — **no shared mutable protocol
//! state between shards**. (A daemon carries no flow budget: only a
//! coordinator sends `Start`.)
//!
//! # Dispatch rule
//!
//! A session lives on shard [`shard_of`]`(session_id, workers)`: the
//! id's low seven bits modulo `workers`. The kernel applies the same
//! rule: [`bind_shard_sockets`] attaches the classic BPF program
//! `ld b[SESSION_OFFSET]; and #0x7f; mod #workers; ret a` to the socket
//! group (`SO_ATTACH_REUSEPORT_CBPF`, socket(7)). Its load reads the
//! first byte of the frame's `session` varint
//! ([`crate::frame::SESSION_OFFSET`]), and its result indexes the
//! sockets in bind order, which is shard order. So every datagram
//! arrives on the socket of the shard that owns its session, each shard
//! runs a plain [`UdpTransport`], and a frame's one dispatch point is
//! its shard's receive loop. Sends need no coordination either: all
//! shard sockets share the bound source address, so a frame sent from
//! any shard passes the remote roster's source-address check
//! identically.
//!
//! The kernel's numbering matches the shards' only while the whole
//! group is bound, so [`run_sharded_serve`] keeps every socket open
//! until all workers have stopped. A frame that arrives before the last
//! socket binds falls back to the kernel's hash and can land on a
//! sibling, which counts it in `demux.orphans`. That holds for a `Start`
//! too: a shard admits only the sessions it owns, so the coordinator's
//! retransmitted `Start` reaches the owner once the group is bound.
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

use std::future::Future;
use std::io;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::frame::SESSION_OFFSET;
use crate::rt;
use crate::serve::{ServeLimits, ServeStats, Server};
use crate::session::{SessionConfig, SessionOutcome};
use crate::sys;
use crate::transport::{SharedTransport, UdpTransport};
use crate::udp::AsyncUdpSocket;

/// The session-id bits that pick a shard: the low seven, all that the
/// `session` varint's first byte, at [`SESSION_OFFSET`], holds. So at
/// most 128 shards.
const STEER_MASK: u64 = 0x7f;

/// Maps a session id to its owning worker shard: the id's low seven bits
/// modulo `workers`, the rule the kernel applies to the sockets of
/// [`bind_shard_sockets`]. Sibling daemons run the same rule.
pub fn shard_of(session: u64, workers: usize) -> usize {
    debug_assert!(workers > 0);
    (session & STEER_MASK) as usize % workers
}

/// Binds `workers` sockets sharing one address via `SO_REUSEPORT`, and
/// has the kernel deliver each datagram to socket [`shard_of`]`(session,
/// workers)`. With `bind` on port 0 the OS picks the port once (from the
/// first socket) and the rest join it. A single worker binds one plain
/// socket. Fails beyond 128 workers, or where the kernel refuses the
/// steering program.
pub fn bind_shard_sockets(bind: SocketAddr, workers: usize) -> io::Result<Vec<AsyncUdpSocket>> {
    assert!(workers > 0, "at least one shard");
    if workers == 1 {
        return Ok(vec![AsyncUdpSocket::bind(bind)?]);
    }
    if workers > STEER_MASK as usize + 1 {
        let msg = "at most 128 workers: 7 session-id bits pick the shard";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    let first = AsyncUdpSocket::bind_reuseport(bind)?;
    // Sockets are numbered in bind order: steer before any other joins.
    let (offset, mask) = (SESSION_OFFSET as u32, STEER_MASK as u32);
    sys::steer_reuseport(first.raw_fd(), offset, mask, workers as u32)?;
    let addr = first.local_addr()?;
    let mut sockets = vec![first];
    for _ in 1..workers {
        sockets.push(AsyncUdpSocket::bind_reuseport(addr)?);
    }
    Ok(sockets)
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
    /// The worker thread's telemetry registry at exit.
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
    // Closing a socket renumbers the group, which would steer the other
    // shards' frames to the wrong sockets: keep each one open until every
    // worker has stopped.
    let _group = sockets.iter().map(AsyncUdpSocket::try_clone).collect::<io::Result<Vec<_>>>()?;
    let wakes: Vec<Arc<Mutex<Option<Waker>>>> = (0..workers).map(|_| Arc::default()).collect();
    let mut reports: Vec<io::Result<ShardReport>> = std::thread::scope(|s| {
        let handles: Vec<_> = sockets
            .into_iter()
            .zip(&wakes)
            .enumerate()
            .map(|(shard, (sock, wake))| {
                let t = UdpTransport::new(sock, peers.clone(), node);
                let signal = StopSignal { flag: stop.clone(), wake: wake.clone() };
                let opts = opts.clone();
                s.spawn(move || shard_worker((shard, workers), t, opts, per_shard, signal))
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

/// One worker: its own executor, reactor, registry.
fn shard_worker(
    (shard, workers): (usize, usize),
    t: UdpTransport,
    opts: ShardedServeOptions,
    limits: ServeLimits,
    stop: StopSignal,
) -> io::Result<ShardReport> {
    crate::telemetry::set_timing(opts.timing);
    rt::block_on(async move {
        let shared = SharedTransport::new(t);
        // The server consumes the transport handle; keep a tap for the
        // post-run send-error count.
        let tap = shared.clone();
        let mut server = Server::new(shared, opts.cfg.clone(), opts.seed, limits);
        server.set_shard(shard, workers);
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

    /// The kernel, not the 4-tuple hash, picks the socket: frames for
    /// seven sessions, all from one source socket, each land on the
    /// socket of the shard [`shard_of`] names, which spans all three.
    #[test]
    fn the_kernel_steers_each_frame_to_its_sessions_shard() {
        use crate::frame::{Frame, NetPayload};
        const WORKERS: usize = 3;
        let sockets =
            bind_shard_sockets("127.0.0.1:0".parse().expect("addr"), WORKERS).expect("bind group");
        let to = sockets[0].local_addr().expect("addr");
        let sender = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let sessions = [1, 2, 3, 127, 128, 300, 1 << 40];
        for &session in &sessions {
            let frame = Frame { flags: 0, sender: 0, session, seq: 1, payload: NetPayload::Fin };
            sender.send_to(&frame.encode(), to).expect("send");
        }
        let mut landed = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut buf = [0u8; 64];
        while landed.len() < sessions.len() {
            assert!(std::time::Instant::now() < deadline, "only {landed:?} arrived");
            for (shard, sock) in sockets.iter().enumerate() {
                while let Some((n, _)) = sock.try_recv_from(&mut buf).expect("recv") {
                    let frame = Frame::decode(&buf[..n]).expect("valid frame");
                    landed.push((frame.session, shard));
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        landed.sort_unstable();
        let want: Vec<_> = sessions.iter().map(|&s| (s, shard_of(s, WORKERS))).collect();
        assert_eq!(landed, want);
        // A group larger than the seven-bit key can address is refused.
        let any = "127.0.0.1:0".parse().expect("addr");
        let err = bind_shard_sockets(any, 129).expect_err("129 workers");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
