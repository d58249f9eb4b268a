//! The serve-mode load generator: ramp thousands of concurrent
//! sessions against auto-admitting [`thinair_net::Server`] daemons and
//! measure throughput, latency and scheduler efficiency.
//!
//! A *wave* spins up one coordinator node plus `terminals − 1` serve
//! daemons — over real loopback UDP sockets or a (optionally chaotic)
//! simulated medium — then launches `concurrency` coordinator sessions
//! at once. The daemons know nothing in advance: every session is
//! admitted by its `Start` frame, multiplexed with all the others over
//! the daemon's single socket, and GC'd on termination. Every session
//! is audited with the soak harness's safety invariant
//! ([`crate::soak::audit_session`]): completers must agree
//! byte-for-byte, non-completers must abort with structured reasons —
//! `violations` must be 0 in every wave.
//!
//! The artifact (`BENCH_serve.json`) records, per wave: sessions/sec,
//! p50/p90/p99/p999 session latency (from the shared
//! [`thinair_net::telemetry`] histogram — bucket precision, not sorted
//! vecs), an abort-reason breakdown, admission/eviction counters,
//! socket send-error counts, the executor's *per-wave* work-counter
//! deltas ([`thinair_net::rt::Metrics::delta`]), and a full telemetry
//! snapshot whose `phase.*` histograms decompose each wave's latency
//! per protocol phase — `dominant_phase` names the biggest
//! contributor.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use thinair_core::round::XSchedule;
use thinair_net::driver::task_seed;
use thinair_net::rt;
use thinair_net::telemetry;
use thinair_net::transport::{SimNet, UdpTransport};
use thinair_net::udp::AsyncUdpSocket;
use thinair_net::{
    bind_shard_sockets, run_sharded_serve, shard_of, Histogram, NetError, Node, ServeLimits,
    ServeStats, Server, SessionConfig, SessionOutcome, ShardedServeOptions, SharedTransport,
    Snapshot, Transport,
};
use thinair_netsim::{DelaySpec, FaultPlan, IidMedium};

use crate::report::{f6, json_escape};
use crate::run::ScenarioError;
use crate::soak::{audit_session, SessionVerdict};

/// Serve artifact schema tag.
pub const SERVE_SCHEMA: &str = "thinair-serve/1";

/// Which transport a wave runs over.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeBackend {
    /// Real loopback UDP sockets, one per node.
    UdpLoopback,
    /// Simulated lossless medium, optionally with a chaos-layer fault
    /// schedule (the soak axis of serve mode).
    Sim {
        /// Adversarial fault plan applied to every frame.
        faults: FaultPlan,
    },
}

impl ServeBackend {
    /// Short tag for wave names and the artifact.
    pub fn tag(&self) -> String {
        match self {
            ServeBackend::UdpLoopback => "udp".into(),
            ServeBackend::Sim { faults } if faults.is_none() => "sim".into(),
            ServeBackend::Sim { faults } => format!("sim+{}", faults.tag()),
        }
    }
}

/// One load wave against a set of serve daemons.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeWaveSpec {
    /// Wave name (unique within a ramp).
    pub name: String,
    /// Transport backend.
    pub backend: ServeBackend,
    /// Protocol nodes, coordinator included (`>= 2`).
    pub terminals: u8,
    /// Concurrent sessions launched in the wave.
    pub concurrency: u32,
    /// x-packets the coordinator broadcasts per session.
    pub x_packets: usize,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Receiver-side iid data-plane erasure probability.
    pub drop_prob: f64,
    /// Per-session deadline in milliseconds.
    pub deadline_ms: u64,
    /// Daemon-side admission cap ([`ServeLimits::max_sessions`]).
    /// `None` sizes it to the wave with headroom above the registry's
    /// 7/8 high-water shed (`⌈concurrency·8/7⌉`, min 64), so a
    /// sized-to-fit wave measures protocol throughput, not admission
    /// pacing; `Some(cap)` below `concurrency` makes this an
    /// *overload* wave, where the surplus is paced through explicit
    /// `Busy { retry_after_ms }` replies instead of being dropped.
    pub max_sessions: Option<u32>,
    /// Worker runtimes per node. `1` runs the classic single-runtime
    /// wave (coordinator and daemons co-scheduled on one executor);
    /// `> 1` (at most 128) shards **every** node across that many
    /// worker threads — each with its own executor, epoll reactor and
    /// `SO_REUSEPORT` socket — and the kernel delivers each datagram to
    /// the shard that owns its session ([`thinair_net::shard`]).
    /// UDP-loopback only: the simulator has no kernel to steer packets.
    pub workers: usize,
    /// Root seed (payloads, plans, erasures, faults).
    pub seed: u64,
}

impl ServeWaveSpec {
    /// The session configuration every node of the wave runs.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig {
            n_nodes: self.terminals,
            coordinator: 0,
            schedule: XSchedule::CoordinatorOnly(self.x_packets),
            payload_len: self.payload_len,
            drop_prob: self.drop_prob,
            drop_seed: self.seed,
            x_settle: Duration::from_millis(120),
            retransmit: Duration::from_millis(40),
            deadline: Duration::from_millis(self.deadline_ms),
            ..SessionConfig::default()
        }
    }

    /// Sanity limits (the session config re-validates the rest).
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.terminals < 2 {
            return Err("need a coordinator and at least one daemon");
        }
        if self.concurrency == 0 {
            return Err("need at least one session");
        }
        if self.max_sessions == Some(0) {
            return Err("admission cap must admit at least one session");
        }
        if self.workers == 0 {
            return Err("need at least one worker runtime");
        }
        if self.workers > 1 && self.backend != ServeBackend::UdpLoopback {
            return Err("multi-worker sharding requires the UDP-loopback backend");
        }
        self.session_config().validate().map_err(|_| "session config rejected")
    }
}

/// Measured outcome of one wave.
#[derive(Clone, Debug)]
pub struct ServeWaveResult {
    /// The wave that produced it.
    pub spec: ServeWaveSpec,
    /// Sessions where every collected outcome completed and agreed.
    pub agreed: u32,
    /// Sessions with at least one clean structured abort.
    pub aborted: u32,
    /// Safety-invariant violations (divergent completers); must be 0.
    pub violations: u32,
    /// `Start`s the daemons rejected at capacity (re-admissions make
    /// this larger than the final deficit).
    pub rejected: u64,
    /// `Busy { retry_after_ms }` replies sent for those rejections.
    /// Must equal `rejected` on a healthy wave: the daemons never shed
    /// a `Start` silently.
    pub busy: u64,
    /// Sessions the daemons evicted for idleness.
    pub evicted: u64,
    /// Peak concurrently open sessions across all daemons.
    pub peak_open: u64,
    /// Socket sends that failed or were dropped, all nodes (0 on sim).
    pub send_errors: u64,
    /// Wall-clock duration of the wave in ms (timing).
    pub wall_ms: f64,
    /// Completed-session throughput (timing).
    pub sessions_per_sec: f64,
    /// Median session latency, launch → coordinator outcome, ms.
    /// Estimated from the shared telemetry histogram: relative error is
    /// bounded by 1/16 (6.25 %) of the true value (exact below 16 µs).
    pub latency_ms_p50: f64,
    /// 90th-percentile session latency, ms (same 6.25 % bucket bound).
    pub latency_ms_p90: f64,
    /// 99th-percentile session latency, ms (same 6.25 % bucket bound).
    pub latency_ms_p99: f64,
    /// 99.9th-percentile session latency, ms (same 6.25 % bucket
    /// bound).
    pub latency_ms_p999: f64,
    /// Slowest session's latency, ms: the histogram's exact max.
    pub latency_ms_max: f64,
    /// Abort-reason kind → sessions affected (a session counts once
    /// per distinct kind among its aborting nodes, so the sum can
    /// exceed `aborted` when a session aborts for mixed reasons).
    pub abort_reasons: BTreeMap<String, u32>,
    /// The driving thread's telemetry for this wave interval (registry
    /// reset at wave start): `net.*` / `rt.*` / `serve.*` counters and
    /// the `phase.*` per-phase latency histograms (µs samples, 6.25 %
    /// bucket bound on percentiles).
    pub telemetry: Snapshot,
    /// Executor task polls spent on the wave — a per-wave delta
    /// ([`thinair_net::rt::Metrics::delta`]), not the thread's
    /// cumulative count (timing).
    pub task_polls: u64,
    /// Executor scheduler passes, per-wave delta (timing).
    pub executor_passes: u64,
    /// Peak live tasks on the runtime.
    pub peak_tasks: u64,
    /// Fd-readability wakeups delivered by the epoll reactors, all
    /// runtimes (timing). Zero on the sim backend / non-Linux hosts.
    pub epoll_wakeups: u64,
    /// Times a UDP transport fell back to arming the adaptive re-poll
    /// timer. 0 on every epoll-path wave: the reactor makes the
    /// busy-poll bridge unnecessary.
    pub repoll_arms: u64,
    /// Datagrams the kernel dropped at a full socket receive buffer
    /// during the wave: the delta of `/proc/net/snmp`'s `Udp
    /// RcvbufErrors`, which counts the whole host, not just this wave's
    /// sockets. The only place a shard loses frames besides the wire.
    /// `None` off Linux.
    pub udp_rcvbuf_errors: Option<u64>,
}

impl ServeWaveResult {
    /// The `phase.*` histogram with the largest total recorded time —
    /// the wave's dominant per-phase latency contributor.
    pub fn dominant_phase(&self) -> Option<(&str, &Histogram)> {
        self.telemetry
            .hists
            .iter()
            .filter(|(name, _)| name.starts_with("phase."))
            .max_by_key(|(_, h)| h.sum())
            .map(|(name, h)| (name.as_str(), h))
    }
}

/// Runs one wave: builds the nodes, launches the load, audits every
/// session, measures the runtime. Waves with `workers > 1` run the
/// sharded path ([`run_sharded_wave`] internally): every node split
/// across worker threads with per-shard runtimes and `SO_REUSEPORT`
/// sockets.
pub fn run_serve_wave(spec: &ServeWaveSpec) -> Result<ServeWaveResult, ScenarioError> {
    spec.validate().map_err(ScenarioError::Invalid)?;
    let rcvbuf_before = udp_rcvbuf_errors();
    let n = spec.terminals as usize;
    let mut r = match &spec.backend {
        _ if spec.workers > 1 => run_sharded_wave(spec)?,
        ServeBackend::UdpLoopback => {
            let net = |e| ScenarioError::Net(NetError::Io(e));
            let socks: Vec<AsyncUdpSocket> = (0..n)
                .map(|_| AsyncUdpSocket::bind("127.0.0.1:0"))
                .collect::<io::Result<_>>()
                .map_err(net)?;
            let addrs: Vec<std::net::SocketAddr> =
                socks.iter().map(|s| s.local_addr()).collect::<io::Result<_>>().map_err(net)?;
            let transports = socks
                .into_iter()
                .enumerate()
                .map(|(i, s)| UdpTransport::new(s, addrs.clone(), i as u8))
                .collect();
            run_single_wave(spec, transports)?
        }
        ServeBackend::Sim { faults } => {
            let net = SimNet::with_faults(
                IidMedium::symmetric(n, 0.0, spec.seed),
                n,
                *faults,
                thinair_netsim::splitmix64(spec.seed ^ 0xFA),
                0,
            );
            // The transports hold the hub alive; the `SimNet` handle
            // itself can drop.
            run_single_wave(spec, (0..n).map(|i| net.transport(i as u8)).collect())?
        }
    };
    r.udp_rcvbuf_errors = udp_rcvbuf_errors().zip(rcvbuf_before).map(|(a, b)| a.saturating_sub(b));
    Ok(r)
}

/// The host's `Udp RcvbufErrors` count from `/proc/net/snmp`: datagrams
/// the kernel dropped because a socket's receive buffer was full.
/// `None` where the file does not exist (off Linux).
fn udp_rcvbuf_errors() -> Option<u64> {
    let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
    let mut udp = snmp.lines().filter(|l| l.starts_with("Udp:"));
    let (names, values) = (udp.next()?, udp.next()?);
    let at = names.split_whitespace().position(|n| n == "RcvbufErrors")?;
    values.split_whitespace().nth(at)?.parse().ok()
}

/// The single-runtime wave over `transports`, one per roster slot:
/// coordinator and daemons co-scheduled on this thread's executor.
fn run_single_wave<T: Transport + 'static>(
    spec: &ServeWaveSpec,
    transports: Vec<T>,
) -> Result<ServeWaveResult, ScenarioError> {
    // The wave owns the driving thread's telemetry: reset at the start
    // so the snapshot taken after the wave is a pure per-wave interval
    // (waves on other threads are independent — the registry is
    // thread-local).
    telemetry::reset();
    telemetry::set_timing(true);
    let cfg = spec.session_config();

    let (coordinator, daemons, taps) = build_nodes(transports, &cfg, spec);

    let handles: Vec<_> = daemons.iter().map(|d| d.handle()).collect();
    let post_handles = handles.clone();
    let mut outcome_rxs = Vec::new();
    let mut daemons = daemons;
    for d in daemons.iter_mut() {
        outcome_rxs.push(d.outcomes());
    }

    let concurrency = spec.concurrency;
    let seed = spec.seed;
    let started = Instant::now();

    let (coord_outs, served, lat_us, metrics, send_errors) = rt::block_on(async move {
        // Baseline for the per-wave executor delta (satellite fix:
        // `rt::metrics()` alone is cumulative over the executor's
        // lifetime, which conflates waves sharing a thread).
        let rt_base = rt::metrics();
        coordinator.start_pump();
        for d in daemons {
            rt::spawn(d.run());
        }
        // Launch the wave, paced in small chunks so the start barrier
        // does not slam every socket buffer in one burst.
        let mut tasks = Vec::with_capacity(concurrency as usize);
        for s in 1..=concurrency as u64 {
            let node = coordinator.clone();
            let cfg = cfg.clone();
            tasks.push(rt::spawn(async move {
                let t0 = Instant::now();
                let out = node.coordinate(s, cfg, task_seed(seed, s, 0)).await;
                (out, t0.elapsed())
            }));
            if s % 64 == 0 {
                rt::sleep(Duration::from_millis(1)).await;
            }
        }
        let mut coord_outs = Vec::with_capacity(tasks.len());
        let mut lat_us = Histogram::new();
        for t in tasks {
            let (out, dt) = t.await;
            let out = out.map_err(ScenarioError::Net)?;
            lat_us.record(dt.as_micros() as u64);
            coord_outs.push(out);
        }
        // The coordinators are done. A daemon sends each outcome as its
        // session closes, so once none is open every outcome is queued;
        // every admitted terminal ends within one deadline. (A daemon
        // whose link was chaos-partitioned may have none for some
        // sessions.)
        let until = rt::now() + cfg.deadline;
        let mut served: Vec<SessionOutcome> = Vec::new();
        for (h, rx) in handles.iter().zip(outcome_rxs.iter_mut()) {
            while h.open_sessions() > 0 {
                match rt::timeout_at(until, rx.recv()).await {
                    Ok(Some(out)) => served.push(out),
                    _ => break,
                }
            }
            served.extend(std::iter::from_fn(|| rx.try_recv()));
        }
        for h in &handles {
            h.stop();
        }
        let send_errors: u64 = taps.iter().map(|t| t.send_errors()).sum();
        let metrics = rt::metrics().delta(&rt_base);
        Ok::<_, ScenarioError>((coord_outs, served, lat_us, metrics, send_errors))
    })?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    telemetry::set_timing(false);
    let wave_telemetry = telemetry::snapshot();

    let (agreed, aborted, violations, abort_reasons) = audit_wave(&coord_outs, &served);

    let (mut rejected, mut busy, mut evicted, mut peak_open) = (0u64, 0u64, 0u64, 0u64);
    for h in &post_handles {
        let s = h.stats();
        rejected += s.rejected;
        busy += s.busy;
        evicted += s.evicted;
        peak_open = peak_open.max(s.peak_open);
    }
    Ok(ServeWaveResult {
        spec: spec.clone(),
        agreed,
        aborted,
        violations,
        rejected,
        busy,
        evicted,
        peak_open,
        send_errors,
        wall_ms,
        sessions_per_sec: if wall_ms > 0.0 { agreed as f64 / (wall_ms / 1e3) } else { 0.0 },
        latency_ms_p50: lat_us.percentile(0.50) as f64 / 1e3,
        latency_ms_p90: lat_us.percentile(0.90) as f64 / 1e3,
        latency_ms_p99: lat_us.percentile(0.99) as f64 / 1e3,
        latency_ms_p999: lat_us.percentile(0.999) as f64 / 1e3,
        latency_ms_max: lat_us.max() as f64 / 1e3,
        abort_reasons,
        repoll_arms: wave_telemetry.counters.get("net.udp.repoll_arms").copied().unwrap_or(0),
        udp_rcvbuf_errors: None,
        telemetry: wave_telemetry,
        task_polls: metrics.task_polls,
        executor_passes: metrics.passes,
        peak_tasks: metrics.max_tasks,
        epoll_wakeups: metrics.epoll_wakeups,
    })
}

/// Audits each session over every outcome collected for it (the
/// coordinator's plus any daemon-side ones), returning
/// `(agreed, aborted, violations, abort-reason breakdown)`.
fn audit_wave(
    coord_outs: &[SessionOutcome],
    served: &[SessionOutcome],
) -> (u32, u32, u32, BTreeMap<String, u32>) {
    let (mut agreed, mut aborted, mut violations) = (0u32, 0u32, 0u32);
    let mut abort_reasons: BTreeMap<String, u32> = BTreeMap::new();
    for co in coord_outs {
        let mut outs: Vec<SessionOutcome> =
            served.iter().filter(|o| o.session == co.session).cloned().collect();
        outs.push(co.clone());
        match audit_session(&outs) {
            SessionVerdict::Agreed { .. } => agreed += 1,
            SessionVerdict::AbortedClean { reasons } => {
                aborted += 1;
                for kind in reasons.keys() {
                    *abort_reasons.entry(kind.clone()).or_insert(0) += 1;
                }
            }
            SessionVerdict::Violation { .. } => violations += 1,
        }
    }
    (agreed, aborted, violations, abort_reasons)
}

/// Splits per-node transports into the coordinator node, one server per
/// remaining roster slot, and shared "taps" for reading every node's
/// send-error counters after the wave.
#[allow(clippy::type_complexity)]
fn build_nodes<T: Transport + 'static>(
    transports: Vec<T>,
    cfg: &SessionConfig,
    spec: &ServeWaveSpec,
) -> (Node<T>, Vec<Server<T>>, Vec<SharedTransport<T>>) {
    let limits = wave_limits(spec);
    let shared: Vec<SharedTransport<T>> =
        transports.into_iter().map(SharedTransport::new).collect();
    let mut nodes = shared.iter().cloned();
    let coordinator = Node::new_shared(nodes.next().expect("nonempty roster"));
    let daemons = nodes.map(|t| Server::new(t, cfg.clone(), spec.seed, limits)).collect();
    (coordinator, daemons, shared)
}

/// Daemon-total admission limits for a wave (the sharded path splits
/// `max_sessions` across shards, rounded up).
fn wave_limits(spec: &ServeWaveSpec) -> ServeLimits {
    ServeLimits {
        max_sessions: spec
            .max_sessions
            .map(|m| m as usize)
            .unwrap_or_else(|| (spec.concurrency as usize * 8).div_ceil(7).max(64)),
        idle_timeout: Duration::from_millis(spec.deadline_ms).max(Duration::from_secs(2)),
    }
}

/// What one coordinator shard measured: its sessions' outcomes and
/// latencies, plus the worker thread's runtime / telemetry counters.
struct CoordShard {
    outs: Vec<SessionOutcome>,
    lat_us: Histogram,
    metrics: rt::Metrics,
    snapshot: Snapshot,
    send_errors: u64,
}

/// One coordinator worker: drives the wave's sessions that map to its
/// shard, on its own runtime over its own `SO_REUSEPORT` socket.
/// Sessions *must* be partitioned by [`shard_of`] — the kernel delivers
/// each reply to the socket the rule names, which has to be the shard
/// running the session.
fn coordinator_shard(
    shard: usize,
    workers: usize,
    t: UdpTransport,
    cfg: SessionConfig,
    concurrency: u32,
    seed: u64,
) -> Result<CoordShard, ScenarioError> {
    telemetry::set_timing(true);
    rt::block_on(async move {
        let shared = SharedTransport::new(t);
        let tap = shared.clone();
        let node = Node::new_shared(shared);
        node.start_pump();
        let mut tasks = Vec::new();
        let mut launched = 0u64;
        for s in 1..=concurrency as u64 {
            if shard_of(s, workers) != shard {
                continue;
            }
            let node = node.clone();
            let cfg = cfg.clone();
            tasks.push(rt::spawn(async move {
                let t0 = Instant::now();
                let out = node.coordinate(s, cfg, task_seed(seed, s, 0)).await;
                (out, t0.elapsed())
            }));
            launched += 1;
            if launched.is_multiple_of(64) {
                rt::sleep(Duration::from_millis(1)).await;
            }
        }
        let mut outs = Vec::with_capacity(tasks.len());
        let mut lat_us = Histogram::new();
        for t in tasks {
            let (out, dt) = t.await;
            let out = out.map_err(ScenarioError::Net)?;
            lat_us.record(dt.as_micros() as u64);
            outs.push(out);
        }
        Ok(CoordShard {
            outs,
            lat_us,
            metrics: rt::metrics(),
            snapshot: telemetry::snapshot(),
            send_errors: tap.send_errors(),
        })
    })
}

/// The multi-worker wave: every node — coordinator included — sharded
/// across `spec.workers` threads, each with its own executor + epoll
/// reactor + `SO_REUSEPORT` socket, the kernel steering each datagram
/// to its session's shard. Daemon nodes run [`run_sharded_serve`]; the
/// coordinator's sessions are partitioned over its shards by the same
/// rule ([`shard_of`]). Per-runtime counters (latency
/// histograms, telemetry snapshots, executor metrics, serve stats) are
/// merged after every thread joins.
fn run_sharded_wave(spec: &ServeWaveSpec) -> Result<ServeWaveResult, ScenarioError> {
    let io_err = |e: io::Error| ScenarioError::Net(NetError::Io(e));
    telemetry::reset();
    let cfg = spec.session_config();
    let n = spec.terminals as usize;
    let w = spec.workers;

    // One SO_REUSEPORT socket group per node, all on OS-picked ports.
    let mut groups: Vec<Vec<AsyncUdpSocket>> = Vec::with_capacity(n);
    for _ in 0..n {
        groups.push(bind_shard_sockets("127.0.0.1:0".parse().expect("addr"), w).map_err(io_err)?);
    }
    let addrs: Vec<std::net::SocketAddr> =
        groups.iter().map(|g| g[0].local_addr()).collect::<io::Result<_>>().map_err(io_err)?;

    // Daemon outcomes so far, counted as the workers report them, so
    // the wave can wait for exactly the ones it expects.
    let served = Arc::new((Mutex::new(0u64), Condvar::new()));
    let tally = served.clone();
    let opts = ShardedServeOptions {
        cfg: cfg.clone(),
        seed: spec.seed,
        limits: wave_limits(spec),
        collect_outcomes: true,
        on_outcome: Some(Arc::new(move |_, _| {
            let (count, changed) = &*tally;
            *count.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
            changed.notify_all();
        })),
        timing: true,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();

    // A coordinator shard that finishes first must not close its socket:
    // that renumbers the group, and the kernel would steer the other
    // shards' replies to the wrong sockets. Hold them all to the end.
    let coord_group: io::Result<Vec<_>> = groups[0].iter().map(AsyncUdpSocket::try_clone).collect();
    let _coord_group = coord_group.map_err(io_err)?;
    let (daemon_reports, coord_shards) = std::thread::scope(|s| {
        let mut groups = groups.into_iter();
        let coord_socks = groups.next().expect("coordinator group");
        let daemon_handles: Vec<_> = groups
            .enumerate()
            .map(|(d, socks)| {
                let (addrs, opts, stop) = (addrs.clone(), opts.clone(), stop.clone());
                s.spawn(move || run_sharded_serve(socks, addrs, (d + 1) as u8, opts, stop))
            })
            .collect();
        let coord_handles: Vec<_> = coord_socks
            .into_iter()
            .enumerate()
            .map(|(shard, sock)| {
                let t = UdpTransport::new(sock, addrs.clone(), 0);
                let cfg = cfg.clone();
                s.spawn(move || coordinator_shard(shard, w, t, cfg, spec.concurrency, spec.seed))
            })
            .collect();
        let coord_shards: Vec<_> = coord_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        // Every coordinator session has resolved. Each one that agreed
        // leaves an outcome on every daemon once its terminal acked
        // `Fin`; wait for those (bounded by the session deadline), then
        // stop the daemons.
        let agreed: u64 = coord_shards
            .iter()
            .flatten()
            .map(|cs| cs.outs.iter().filter(|o| o.completed()).count() as u64)
            .sum();
        let expect = agreed * (n as u64 - 1);
        let (count, changed) = &*served;
        let count = count.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let wait = Duration::from_millis(spec.deadline_ms);
        drop(changed.wait_timeout_while(count, wait, |c| *c < expect));
        stop.store(true, Ordering::Relaxed);
        let daemon_reports: Vec<_> = daemon_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (daemon_reports, coord_shards)
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Merge the per-runtime measurements.
    let mut wave_telemetry = telemetry::snapshot();
    let mut lat_us = Histogram::new();
    let mut coord_outs: Vec<SessionOutcome> = Vec::new();
    let mut metrics = rt::Metrics::default();
    let mut send_errors = 0u64;
    for cs in coord_shards {
        let cs = cs?;
        wave_telemetry.merge(&cs.snapshot);
        lat_us.merge(&cs.lat_us);
        coord_outs.extend(cs.outs);
        metrics.absorb(&cs.metrics);
        send_errors += cs.send_errors;
    }
    let mut served: Vec<SessionOutcome> = Vec::new();
    let (mut rejected, mut busy, mut evicted, mut peak_open) = (0u64, 0u64, 0u64, 0u64);
    for reports in daemon_reports {
        // Within one daemon the shards hold their sessions
        // concurrently (stats absorb, peaks add); across daemon nodes
        // the wave keeps the max, like the single-runtime path.
        let mut node_stats = ServeStats::default();
        for r in reports.map_err(io_err)? {
            served.extend(r.outcomes);
            wave_telemetry.merge(&r.snapshot);
            metrics.absorb(&r.rt_metrics);
            node_stats.absorb(&r.stats);
            send_errors += r.send_errors;
        }
        rejected += node_stats.rejected;
        busy += node_stats.busy;
        evicted += node_stats.evicted;
        peak_open = peak_open.max(node_stats.peak_open);
    }

    let (agreed, aborted, violations, abort_reasons) = audit_wave(&coord_outs, &served);
    Ok(ServeWaveResult {
        spec: spec.clone(),
        agreed,
        aborted,
        violations,
        rejected,
        busy,
        evicted,
        peak_open,
        send_errors,
        wall_ms,
        sessions_per_sec: if wall_ms > 0.0 { agreed as f64 / (wall_ms / 1e3) } else { 0.0 },
        latency_ms_p50: lat_us.percentile(0.50) as f64 / 1e3,
        latency_ms_p90: lat_us.percentile(0.90) as f64 / 1e3,
        latency_ms_p99: lat_us.percentile(0.99) as f64 / 1e3,
        latency_ms_p999: lat_us.percentile(0.999) as f64 / 1e3,
        latency_ms_max: lat_us.max() as f64 / 1e3,
        abort_reasons,
        epoll_wakeups: metrics.epoll_wakeups,
        repoll_arms: wave_telemetry.counters.get("net.udp.repoll_arms").copied().unwrap_or(0),
        udp_rcvbuf_errors: None,
        telemetry: wave_telemetry,
        task_polls: metrics.task_polls,
        executor_passes: metrics.passes,
        peak_tasks: metrics.max_tasks,
    })
}

// ---------------------------------------------------------------------------
// The ramp
// ---------------------------------------------------------------------------

fn wave_base(seed: u64) -> ServeWaveSpec {
    ServeWaveSpec {
        name: String::new(),
        backend: ServeBackend::UdpLoopback,
        terminals: 3,
        concurrency: 0,
        x_packets: 12,
        payload_len: 8,
        drop_prob: 0.25,
        deadline_ms: 60_000,
        max_sessions: None,
        workers: 1,
        seed,
    }
}

/// The chaos plan of the serve soak axis: survivable faults (reorder,
/// duplication, corruption, delay jitter) — sessions must still agree
/// or abort cleanly while multiplexed through the daemons.
pub fn serve_chaos_plan() -> FaultPlan {
    FaultPlan {
        reorder: 0.15,
        duplicate: 0.15,
        corrupt: 0.01,
        delay: Some(DelaySpec { prob: 0.2, max_frames: 4 }),
        ..FaultPlan::none()
    }
}

/// The full serve ramp: loopback-UDP waves of 100 → 1 000 → 5 000
/// concurrent sessions, a 200-session chaos wave over the simulator
/// (the serve soak axis), and an *overload* wave — 7 500 sessions
/// against daemons capped at 2 048, so ~3× the capacity must be paced
/// through `Busy` retries rather than dropped (the graceful-degradation
/// axis: throughput should slope, not cliff).
pub fn serve_ramp_specs(seed: u64) -> Vec<ServeWaveSpec> {
    let base = wave_base(seed);
    let mut specs: Vec<ServeWaveSpec> = [100u32, 1_000, 5_000]
        .iter()
        .map(|&c| ServeWaveSpec {
            name: format!("serve_udp_{c}"),
            concurrency: c,
            deadline_ms: 120_000,
            ..base.clone()
        })
        .collect();
    specs.push(ServeWaveSpec {
        name: "serve_sim_chaos_200".into(),
        backend: ServeBackend::Sim { faults: serve_chaos_plan() },
        concurrency: 200,
        deadline_ms: 20_000,
        ..base.clone()
    });
    specs.push(ServeWaveSpec {
        name: "serve_udp_overload_7500".into(),
        concurrency: 7_500,
        // Well below the wave's natural launch-gated equilibrium
        // (~450 open), so the registry's Busy/park/re-admit path is
        // genuinely exercised — a 15× oversubscription.
        max_sessions: Some(512),
        deadline_ms: 120_000,
        ..base.clone()
    });
    // The sharded axis: the 5k wave again at 4 workers per node (the
    // direct w1-vs-w4 comparison), then the 10k+ wave only the sharded
    // daemons attempt. Every runtime must ride the epoll reactor —
    // `repoll_arms` is asserted 0 downstream.
    specs.push(ServeWaveSpec {
        name: "serve_udp_5000_w4".into(),
        concurrency: 5_000,
        workers: 4,
        deadline_ms: 120_000,
        ..base.clone()
    });
    specs.push(ServeWaveSpec {
        name: "serve_udp_10000_w4".into(),
        concurrency: 10_000,
        workers: 4,
        deadline_ms: 180_000,
        ..base.clone()
    });
    specs
}

/// The CI smoke ramp: small waves of every backend (≈ a minute on a
/// shared runner), same shapes as the full ramp.
pub fn serve_smoke_specs(seed: u64) -> Vec<ServeWaveSpec> {
    let base = wave_base(seed);
    vec![
        ServeWaveSpec {
            name: "serve_udp_50".into(),
            concurrency: 50,
            deadline_ms: 30_000,
            ..base.clone()
        },
        ServeWaveSpec {
            name: "serve_sim_chaos_50".into(),
            backend: ServeBackend::Sim { faults: serve_chaos_plan() },
            concurrency: 50,
            deadline_ms: 15_000,
            ..base.clone()
        },
        // Miniature overload wave: 3× the admission cap, so the CI
        // smoke run exercises the Busy/retry path end-to-end.
        ServeWaveSpec {
            name: "serve_udp_overload_150".into(),
            concurrency: 150,
            max_sessions: Some(48),
            deadline_ms: 60_000,
            ..base.clone()
        },
        // The sharded smoke: 4 worker runtimes per node over
        // kernel-steered SO_REUSEPORT sockets + the epoll reactor.
        ServeWaveSpec {
            name: "serve_udp_50_w4".into(),
            concurrency: 50,
            workers: 4,
            deadline_ms: 30_000,
            ..base.clone()
        },
    ]
}

// ---------------------------------------------------------------------------
// The artifact
// ---------------------------------------------------------------------------

fn wave_json(r: &ServeWaveResult) -> String {
    let spec = &r.spec;
    let reasons = r
        .abort_reasons
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
        .collect::<Vec<_>>()
        .join(", ");
    let fields = vec![
        format!("\"name\": \"{}\"", json_escape(&spec.name)),
        format!("\"backend\": \"{}\"", json_escape(&spec.backend.tag())),
        format!("\"terminals\": {}", spec.terminals),
        format!("\"concurrency\": {}", spec.concurrency),
        format!("\"x_packets\": {}", spec.x_packets),
        format!("\"payload_len\": {}", spec.payload_len),
        format!("\"drop_prob\": {}", f6(spec.drop_prob)),
        format!(
            "\"max_sessions\": {}",
            spec.max_sessions.map(|m| m.to_string()).unwrap_or_else(|| "null".into())
        ),
        format!("\"workers\": {}", spec.workers),
        format!("\"seed\": {}", spec.seed),
        format!("\"agreed\": {}", r.agreed),
        format!("\"aborted\": {}", r.aborted),
        format!("\"violations\": {}", r.violations),
        format!("\"abort_reasons\": {{{reasons}}}"),
        format!("\"rejected\": {}", r.rejected),
        format!("\"busy\": {}", r.busy),
        format!("\"evicted\": {}", r.evicted),
        format!("\"peak_open\": {}", r.peak_open),
        format!("\"send_errors\": {}", r.send_errors),
        format!("\"wall_ms\": {:.1}", r.wall_ms),
        format!("\"sessions_per_sec\": {:.1}", r.sessions_per_sec),
        format!("\"latency_ms_p50\": {:.1}", r.latency_ms_p50),
        format!("\"latency_ms_p90\": {:.1}", r.latency_ms_p90),
        format!("\"latency_ms_p99\": {:.1}", r.latency_ms_p99),
        format!("\"latency_ms_p999\": {:.1}", r.latency_ms_p999),
        format!("\"latency_ms_max\": {:.1}", r.latency_ms_max),
        format!("\"task_polls\": {}", r.task_polls),
        format!("\"executor_passes\": {}", r.executor_passes),
        format!("\"peak_tasks\": {}", r.peak_tasks),
        format!("\"epoll_wakeups\": {}", r.epoll_wakeups),
        format!("\"repoll_arms\": {}", r.repoll_arms),
        format!(
            "\"udp_rcvbuf_errors\": {}",
            r.udp_rcvbuf_errors.map(|n| n.to_string()).unwrap_or_else(|| "null".into())
        ),
        format!(
            "\"dominant_phase\": \"{}\"",
            json_escape(r.dominant_phase().map(|(name, _)| name).unwrap_or(""))
        ),
        format!("\"telemetry\": {}", r.telemetry.to_json()),
    ];
    format!("    {{{}}}", fields.join(", "))
}

/// Renders the serve artifact (every field is timing-class except the
/// audit counters; serve waves race real sockets, so no determinism
/// contract is claimed).
pub fn render_serve_json(results: &[ServeWaveResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SERVE_SCHEMA}\",\n"));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!("  \"nproc\": {nproc},\n"));
    out.push_str("  \"waves\": [\n");
    let rows: Vec<String> = results.iter().map(wave_json).collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the serve artifact to `path`.
pub fn write_serve_json(path: &Path, results: &[ServeWaveResult]) -> io::Result<()> {
    std::fs::write(path, render_serve_json(results))
}

/// A fixed-width console summary, one line per wave.
pub fn serve_summary_table(results: &[ServeWaveResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>6} {:>4} {:>7} {:>8} {:>5} {:>8} {:>9} {:>9} {:>9}  {}\n",
        "wave",
        "conc",
        "wrk",
        "agreed",
        "aborted",
        "viol",
        "busy",
        "sess/s",
        "p50 ms",
        "p99 ms",
        "dominant phase"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<24} {:>6} {:>4} {:>7} {:>8} {:>5} {:>8} {:>9.1} {:>9.1} {:>9.1}  {}\n",
            r.spec.name,
            r.spec.concurrency,
            r.spec.workers,
            r.agreed,
            r.aborted,
            r.violations,
            r.busy,
            r.sessions_per_sec,
            r.latency_ms_p50,
            r.latency_ms_p99,
            r.dominant_phase().map(|(name, _)| name).unwrap_or("-"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_specs_are_valid_and_cover_both_backends() {
        for specs in [serve_ramp_specs(1), serve_smoke_specs(1)] {
            assert!(specs.iter().any(|s| s.backend == ServeBackend::UdpLoopback));
            assert!(specs.iter().any(|s| matches!(s.backend, ServeBackend::Sim { .. })));
            for s in &specs {
                assert_eq!(s.validate(), Ok(()), "{}", s.name);
            }
            let names: std::collections::BTreeSet<_> = specs.iter().map(|s| &s.name).collect();
            assert_eq!(names.len(), specs.len(), "wave names must be unique");
        }
        // The acceptance ramp reaches 100 → 1k → 5k, the overload wave
        // pushes past 5k against a daemon cap well below it, and the
        // sharded axis re-runs 5k at 4 workers then rides to 10k.
        let full = serve_ramp_specs(1);
        let concs: Vec<u32> = full
            .iter()
            .filter(|s| s.backend == ServeBackend::UdpLoopback)
            .map(|s| s.concurrency)
            .collect();
        assert_eq!(concs, vec![100, 1_000, 5_000, 7_500, 5_000, 10_000]);
        let overload = full.iter().find(|s| s.max_sessions.is_some()).expect("overload wave");
        assert!(overload.concurrency >= 5_000);
        assert!(overload.max_sessions.unwrap() < overload.concurrency);
        // The w1-vs-w4 pair shares its shape, and the 10k wave is
        // sharded.
        let w4_5k = full.iter().find(|s| s.name == "serve_udp_5000_w4").expect("w4 wave");
        let w1_5k = full.iter().find(|s| s.name == "serve_udp_5000").expect("w1 wave");
        assert_eq!(w4_5k.workers, 4);
        assert_eq!((w4_5k.concurrency, w4_5k.terminals), (w1_5k.concurrency, w1_5k.terminals));
        assert!(full.iter().any(|s| s.concurrency >= 10_000 && s.workers > 1));
        // The smoke ramp carries a miniature overload wave and a
        // sharded wave too.
        let smoke = serve_smoke_specs(1);
        assert!(smoke.iter().any(|s| s.max_sessions.is_some_and(|m| m < s.concurrency)));
        assert!(smoke.iter().any(|s| s.workers > 1));
        // Sharding the sim backend is rejected up front.
        let bad = ServeWaveSpec {
            backend: ServeBackend::Sim { faults: FaultPlan::none() },
            workers: 2,
            concurrency: 10,
            ..wave_base(1)
        };
        assert!(bad.validate().is_err());
    }

    /// The sharded path in miniature: 4 worker runtimes per node over
    /// `SO_REUSEPORT`, the kernel steering each frame to its session's
    /// shard — zero violations, and on Linux zero re-poll timer arms
    /// (the epoll reactor carries every worker).
    #[test]
    fn sharded_udp_wave_agrees_with_zero_violations() {
        let spec = ServeWaveSpec {
            name: "test_udp_24_w4".into(),
            concurrency: 24,
            workers: 4,
            deadline_ms: 20_000,
            ..wave_base(11)
        };
        let r = run_serve_wave(&spec).expect("wave runs");
        assert_eq!(r.violations, 0, "safety invariant violated: {r:?}");
        assert_eq!(r.agreed + r.aborted, 24);
        assert!(r.agreed >= 20, "loopback sessions should mostly agree: {r:?}");
        if cfg!(target_os = "linux") {
            assert!(r.epoll_wakeups > 0, "workers must wake via the epoll reactor");
            assert_eq!(r.repoll_arms, 0, "a worker fell back to the re-poll timer");
        }
    }

    #[test]
    fn small_udp_wave_agrees_with_zero_violations() {
        let spec = ServeWaveSpec {
            name: "test_udp_10".into(),
            concurrency: 10,
            deadline_ms: 20_000,
            ..wave_base(3)
        };
        let r = run_serve_wave(&spec).expect("wave runs");
        assert_eq!(r.violations, 0);
        assert_eq!(r.agreed + r.aborted, 10);
        assert!(r.agreed >= 8, "loopback sessions should mostly agree: {r:?}");
        assert!(r.latency_ms_p90 >= r.latency_ms_p50);
        assert!(r.latency_ms_p99 >= r.latency_ms_p90);
        assert!(r.latency_ms_p999 >= r.latency_ms_p99);
        // The wave snapshot carries the per-layer breakdown: frames on
        // the wire, and phase histograms naming a dominant contributor.
        assert!(r.telemetry.counters.get("net.tx.frames").copied().unwrap_or(0) > 0);
        let (phase, hist) = r.dominant_phase().expect("phase histograms recorded");
        assert!(phase.starts_with("phase."));
        assert!(hist.count() > 0);
    }

    /// The serve soak smoke the ISSUE asks for: 200 concurrent sessions
    /// through auto-admitting daemons under a chaos plan — zero
    /// violations.
    #[test]
    fn serve_soak_smoke_200_chaos_sessions_zero_violations() {
        let spec = ServeWaveSpec {
            name: "test_sim_chaos_200".into(),
            backend: ServeBackend::Sim { faults: serve_chaos_plan() },
            concurrency: 200,
            // Aborting sessions burn the whole deadline (concurrently);
            // completers finish in well under a second.
            deadline_ms: 10_000,
            ..wave_base(5)
        };
        let r = run_serve_wave(&spec).expect("wave runs");
        assert_eq!(r.violations, 0, "safety invariant violated: {r:?}");
        assert_eq!(r.agreed + r.aborted, 200);
        // A chaos verdict is a *deterministic partition* (stable across
        // retransmissions), so a fraction of sessions abort by design;
        // the bulk must still agree.
        assert!(r.agreed > 140, "survivable chaos should mostly agree: {r:?}");
        assert!(r.peak_open <= 200);
        // Every aborted session must surface at least one structured
        // reason kind in the per-wave breakdown.
        assert!(
            r.abort_reasons.values().sum::<u32>() >= r.aborted,
            "abort breakdown incomplete: {:?} vs {} aborted",
            r.abort_reasons,
            r.aborted
        );
    }

    /// The graceful-degradation contract in miniature: 3× the admission
    /// cap, every over-capacity `Start` answered with `Busy`, every
    /// session eventually completing through paced retries — no silent
    /// sheds, no violations, no cliff.
    #[test]
    fn overload_wave_paces_surplus_through_busy() {
        let spec = ServeWaveSpec {
            name: "test_udp_overload_60".into(),
            concurrency: 60,
            max_sessions: Some(20),
            deadline_ms: 30_000,
            ..wave_base(7)
        };
        let r = run_serve_wave(&spec).expect("wave runs");
        assert_eq!(r.violations, 0, "safety invariant violated: {r:?}");
        assert_eq!(r.agreed + r.aborted, 60);
        assert!(r.agreed >= 48, "overload should degrade, not collapse: {r:?}");
        // The cap actually bit: sessions beyond the high-water mark were
        // refused — and every refusal was answered, never shed silently.
        assert!(r.rejected > 0, "cap of 20 under 60 sessions must reject: {r:?}");
        assert_eq!(r.busy, r.rejected, "every rejection must send Busy: {r:?}");
        assert!(r.peak_open <= 20);
        // The daemons' Busy counters flow into the wave telemetry.
        assert!(r.telemetry.counters.get("serve.busy.sent").copied().unwrap_or(0) > 0);
    }

    /// Latency percentiles now come from the shared bucketed histogram:
    /// pin the documented 6.25 % relative-error bound on a known
    /// distribution instead of the old exact sorted-vec behavior.
    #[test]
    fn latency_percentiles_respect_the_bucket_bound() {
        let mut h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v * 100); // 100 µs .. 100 ms, uniform
        }
        for (p, exact) in [(0.50, 50_000.0), (0.90, 90_000.0), (0.99, 99_000.0)] {
            let est = h.percentile(p) as f64;
            assert!(
                (est - exact).abs() <= exact / 16.0 + 1.0,
                "p{p}: estimate {est} strays beyond the 1/16 bound from {exact}"
            );
        }
        assert!(h.percentile(0.999) <= h.max());
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }
}
