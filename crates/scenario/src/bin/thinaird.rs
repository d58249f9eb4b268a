//! `thinaird` — the thinair node daemon.
//!
//! Runs the HotNets'12 secret-agreement protocol over real UDP sockets.
//! One process per node; the roster is a static list of peer addresses
//! indexed by node id.
//!
//! ```text
//! # in-process smoke test: 1 coordinator + 3 terminals over loopback
//! thinaird demo --nodes 4 --sessions 2
//!
//! # the same round as four real processes (4 shells):
//! thinaird coordinator --node 0 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403
//! thinaird terminal    --node 1 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403
//! thinaird terminal    --node 2 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403
//! thinaird terminal    --node 3 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403
//! ```
//!
//! Every node prints its derived group secret key; all prints must be
//! identical. Argument parsing is hand-rolled: the build environment is
//! offline, so `clap` is unavailable.
//!
//! `thinaird bench-scenario` additionally drives the `thinair-scenario`
//! experiment engine: a deterministic sweep over many concurrent
//! sessions per config, scored against the closed-form model, written to
//! `BENCH_scenarios.json`.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use thinair_core::estimate::{Estimator, Tuning};
use thinair_core::round::XSchedule;
use thinair_net::driver::{drive_loopback, task_seed};
use thinair_net::node::Node;
use thinair_net::rt;
use thinair_net::rt::chan::Receiver;
use thinair_net::session::SessionConfig;
use thinair_net::telemetry;
use thinair_net::transport::UdpTransport;
use thinair_net::{
    bind_shard_sockets, run_sharded_serve, ServeHandle, ServeLimits, ServeStats, Server,
    SessionOutcome, ShardedServeOptions,
};
use thinair_scenario::ServeBackend;
use thinair_scenario::{
    check_trace, explore_default_spec, explore_range_specs, explore_smoke_spec,
    explore_summary_table, full_grid, run_explore_specs, run_serve_wave, run_soak_specs, run_specs,
    serve_ramp_specs, serve_smoke_specs, serve_summary_table, smoke_specs, soak_smoke_specs,
    soak_specs, soak_summary_table, summary_table, write_explore_json, write_json,
    write_serve_json, write_soak_json,
};

const USAGE: &str = "\
thinaird — thinair node daemon (secret agreement over UDP)

USAGE:
    thinaird <coordinator|terminal|serve> --node <ID> --peers <A0,A1,...> [OPTIONS]
    thinaird demo [OPTIONS]
    thinaird bench-scenario [--smoke] [--out <PATH>] [--seed <S>] [--sessions <K>]
    thinaird bench-soak [--smoke] [--out <PATH>] [--seed <S>] [--sessions <K>]
    thinaird bench-serve [--smoke] [--out <PATH>] [--seed <S>] [--wave <NAME>]
                         [--max-p99-ms <MS>] [--workers <N>]
    thinaird explore [--smoke] [--terminals <N>] [--depth <D>] [--drop-budget <K>]
                     [--seed <S> | --seed-range <A..B>] [--out <PATH>]
    thinaird trace-validate <FILE.jsonl>...
    thinaird lint [ROOT]

ROLES:
    coordinator        run node <ID> as the round coordinator (Alice): start
                       --sessions sessions from --session-id, then exit
    terminal           run node <ID> as a bounded serve daemon: answer the
                       first --sessions sessions a coordinator starts, then
                       exit; exits 1 if any aborted, or if fewer started
                       within --deadline-ms of launch
    serve              run node <ID> as a long-lived terminal daemon:
                       every session a coordinator starts is auto-admitted
                       (capacity permitting), multiplexed over one socket,
                       idle-evicted, and GC'd on termination
    demo               run all nodes in-process over loopback sockets
    bench-scenario     sweep scenario configs (many concurrent simulated
                       sessions each), compare measured efficiency against
                       the closed-form model, write BENCH_scenarios.json
    bench-soak         drive hundreds of sessions across an adversarial
                       fault grid (reorder, duplication, corruption, delay
                       jitter, partitions, crash, late join), audit the
                       safety invariant per session, write BENCH_soak.json
    bench-serve        ramp concurrent sessions (100 -> 1k -> 5k -> 7.5k
                       overload full, smaller with --smoke) against
                       in-process serve daemons over loopback UDP and a
                       chaos-faulted simulator; the overload wave caps
                       daemon admission below the offered load so the
                       surplus is paced through Busy retries; audit every
                       session, measure sessions/sec + p50..p999 latency +
                       per-phase telemetry histograms + executor polls
                       saved, write BENCH_serve.json
    explore            exhaustively enumerate the delivery interleavings and
                       drop placements of one small session over the real
                       state machines (stepped transport + virtual clock),
                       with partial-order reduction and fingerprint pruning;
                       audit every schedule against the safety invariant,
                       shrink any violation to a minimal frame-level
                       counterexample, write BENCH_explore.json; exits
                       nonzero on violation
    trace-validate     check an exported telemetry trace (--trace-out):
                       every line parses as flat JSON, the required fields
                       and per-kind tails are present, and every session
                       span opens with a session_start line
    lint               run the workspace invariant rules (determinism,
                       unsafe confinement, panic-free hot paths, telemetry
                       names, wire tags) over ROOT (default `.`); exits
                       nonzero on unallowed findings

OPTIONS:
    --node <ID>        this node's id (index into --peers)       [required for roles]
    --peers <LIST>     comma-separated addr:port per node id     [required for roles]
    --bind <ADDR>      bind address (default: the --peers entry for --node);
                       must be the address peers see, or your frames are dropped
    --nodes <N>        demo only: number of nodes                 [default: 4]
    --sessions <K>     concurrent sessions to run (terminal: to answer) [default: 1]
    --session-id <S>   coordinator (and demo) only: id of the first session;
                       terminals answer whatever ids it starts  [default: 1]
    --n-packets <N>    x-packets broadcast by the coordinator     [default: 60]
    --payload-len <B>  payload bytes per packet                   [default: 32]
    --drop <P>         injected data-plane erasure probability    [default: 0.4]
    --drop-seed <S>    erasure-injection seed (must match across nodes) [default: 7]
    --seed <S>         local randomness seed                      [default: from entropy]
    --coordinator-id <ID>  which node coordinates                 [default: 0]
    --deadline-ms <MS> session deadline                           [default: 30000]
    --estimator <E>    leave-one-out | fraction:<F>               [default: leave-one-out]
    --max-sessions <N> serve: admission cap on concurrent sessions [default: 8192]
    --workers <N>      serve: shard the daemon across N (at most 128) worker
                       threads, each its own runtime + epoll reactor +
                       SO_REUSEPORT socket + session registry; the kernel
                       steers each datagram to its session's shard
                       (--max-sessions splits across shards)    [default: 1]
                       bench-serve: force the workers axis of every
                       UDP-loopback wave
    --idle-ms <MS>     serve: evict sessions idle this long        [default: 10000]
    --stats-every-ms <MS>  serve: every MS, dump the interval's telemetry
                       delta (counters/gauges/histogram summaries, JSON)
                       to stderr
    --trace-out <PATH> serve: export per-session span/event traces as
                       JSONL to PATH (flushed periodically and on exit)
    --run-for-ms <MS>  serve: stop the daemon after MS (smoke/CI runs;
                       default: run until killed)
    --smoke            bench-*: the small CI sweep instead of the full grid
    --out <PATH>       bench-*: artifact path [default:
                       BENCH_scenarios.json / BENCH_soak.json / BENCH_serve.json]
    --wave <NAME>      bench-serve: run only waves whose name contains NAME
                       (error if nothing matches)
    --terminals <N>    explore: protocol nodes incl. the coordinator [default: 3]
    --depth <D>        explore: decision horizon (first D scheduling
                       decisions branch)                     [default: 15 / 12 smoke]
    --drop-budget <K>  explore: most explorer-placed drops per schedule
                                                             [default: 2 / 1 smoke]
    --seed-range <A..B> explore: one exploration per seed in [A, B)
    --max-p99-ms <MS>  bench-serve: exit nonzero if any executed wave's p99
                       session latency exceeds MS (CI latency gate)
    -h, --help         print this help
";

#[derive(Debug)]
struct Options {
    node: Option<u8>,
    peers: Vec<SocketAddr>,
    bind: Option<SocketAddr>,
    nodes: u8,
    sessions: u64,
    sessions_given: bool,
    session_id: u64,
    n_packets: usize,
    payload_len: usize,
    drop: f64,
    drop_seed: u64,
    seed: u64,
    seed_given: bool,
    coordinator_id: u8,
    deadline_ms: u64,
    estimator: Estimator,
    max_sessions: usize,
    workers: usize,
    workers_given: bool,
    idle_ms: u64,
    stats_every_ms: Option<u64>,
    trace_out: Option<String>,
    run_for_ms: Option<u64>,
    smoke: bool,
    out: Option<String>,
    wave: Option<String>,
    max_p99_ms: Option<f64>,
    terminals: Option<u8>,
    depth: Option<usize>,
    drop_budget: Option<usize>,
    seed_range: Option<(u64, u64)>,
}

impl Default for Options {
    fn default() -> Self {
        // Default seed from OS entropy (`RandomState` keys come from the
        // OS CSPRNG), not from the clock: x payloads are the secret's
        // entropy source, so a guessable seed would let an eavesdropper
        // regenerate them offline. NOTE: the offline `rand` stand-in is
        // a plain xoshiro PRNG — production deployments should swap in
        // a CSPRNG for payload generation.
        use std::hash::{BuildHasher, Hasher};
        let rs = std::collections::hash_map::RandomState::new();
        let mut seed = 0u64;
        for i in 0..2u64 {
            let mut h = rs.build_hasher();
            h.write_u64(i);
            seed = seed.rotate_left(32) ^ h.finish();
        }
        Options {
            node: None,
            peers: Vec::new(),
            bind: None,
            nodes: 4,
            sessions: 1,
            sessions_given: false,
            session_id: 1,
            n_packets: 60,
            payload_len: 32,
            drop: 0.4,
            drop_seed: 7,
            seed,
            seed_given: false,
            coordinator_id: 0,
            deadline_ms: 30_000,
            estimator: Estimator::LeaveOneOut(Tuning::default()),
            max_sessions: 8192,
            workers: 1,
            workers_given: false,
            idle_ms: 10_000,
            stats_every_ms: None,
            trace_out: None,
            run_for_ms: None,
            smoke: false,
            out: None,
            wave: None,
            max_p99_ms: None,
            terminals: None,
            depth: None,
            drop_budget: None,
            seed_range: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("missing value for {arg}"))
        };
        match arg.as_str() {
            "--node" => o.node = Some(num(take()?)?),
            "--peers" => {
                o.peers = take()?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad peer {s}: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--bind" => o.bind = Some(take()?.parse().map_err(|e| format!("bad bind: {e}"))?),
            "--nodes" => o.nodes = num(take()?)?,
            "--sessions" => {
                o.sessions = num(take()?)?;
                o.sessions_given = true;
            }
            "--session-id" => o.session_id = num(take()?)?,
            "--n-packets" => o.n_packets = num(take()?)?,
            "--payload-len" => o.payload_len = num(take()?)?,
            "--drop" => o.drop = fnum(take()?)?,
            "--drop-seed" => o.drop_seed = num(take()?)?,
            "--seed" => {
                o.seed = num(take()?)?;
                o.seed_given = true;
            }
            "--max-sessions" => o.max_sessions = num(take()?)?,
            "--workers" => {
                o.workers = num(take()?)?;
                o.workers_given = true;
                if o.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--idle-ms" => o.idle_ms = num(take()?)?,
            "--stats-every-ms" => o.stats_every_ms = Some(num(take()?)?),
            "--trace-out" => o.trace_out = Some(take()?.clone()),
            "--run-for-ms" => o.run_for_ms = Some(num(take()?)?),
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(take()?.clone()),
            "--wave" => o.wave = Some(take()?.clone()),
            "--terminals" => o.terminals = Some(num(take()?)?),
            "--depth" => o.depth = Some(num(take()?)?),
            "--drop-budget" => o.drop_budget = Some(num(take()?)?),
            "--seed-range" => {
                let v = take()?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("bad seed range {v}: expected A..B"))?;
                let range = (num(a)?, num(b)?);
                if range.0 >= range.1 {
                    return Err(format!("bad seed range {v}: empty (A must be < B)"));
                }
                o.seed_range = Some(range);
            }
            "--max-p99-ms" => o.max_p99_ms = Some(fnum(take()?)?),
            "--coordinator-id" => o.coordinator_id = num(take()?)?,
            "--deadline-ms" => o.deadline_ms = num(take()?)?,
            "--estimator" => {
                let v = take()?;
                o.estimator = if v == "leave-one-out" {
                    Estimator::LeaveOneOut(Tuning::default())
                } else if let Some(f) = v.strip_prefix("fraction:") {
                    Estimator::FixedFraction { fraction: fnum(f)? }
                } else {
                    return Err(format!("unknown estimator {v}"));
                };
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number {s}: {e}"))
}

fn fnum(s: &str) -> Result<f64, String> {
    s.parse().map_err(|e| format!("bad float {s}: {e}"))
}

fn session_config(o: &Options, n_nodes: u8) -> SessionConfig {
    SessionConfig {
        n_nodes,
        coordinator: o.coordinator_id,
        schedule: XSchedule::CoordinatorOnly(o.n_packets),
        payload_len: o.payload_len,
        estimator: o.estimator.clone(),
        drop_prob: o.drop,
        drop_seed: o.drop_seed,
        deadline: Duration::from_millis(o.deadline_ms),
        ..SessionConfig::default()
    }
}

fn key_hex(outcome: &SessionOutcome) -> String {
    match outcome.key() {
        Some(k) => k.iter().map(|b| format!("{b:02x}")).collect(),
        None => "(no secret this round: L = 0)".into(),
    }
}

/// One outcome line, as every role prints it.
fn print_outcome(out: &SessionOutcome) {
    match &out.abort {
        Some(reason) => println!("session {:#x} node {} ABORTED: {reason}", out.session, out.node),
        None => println!(
            "session {:#x} node {} L={} M={} N={} key {}",
            out.session,
            out.node,
            out.l,
            out.m,
            out.n_packets,
            key_hex(out)
        ),
    }
}

/// The `--node` of a role subcommand, checked against `--peers`.
fn roster_node(o: &Options) -> Result<u8, String> {
    let node = o.node.ok_or("--node is required")?;
    if o.peers.len() < 2 {
        return Err("--peers must list at least two addresses".into());
    }
    // `SessionConfig::n_nodes` is a u8 (node ids ride the wire as u8):
    // reject oversized rosters at startup instead of wrapping to a
    // 0-node session config that fails every round.
    if o.peers.len() > u8::MAX as usize {
        return Err(format!("--peers lists {} addresses; at most 255 supported", o.peers.len()));
    }
    if node as usize >= o.peers.len() {
        return Err("--node must index into --peers".into());
    }
    Ok(node)
}

fn run_coordinator(o: Options) -> Result<(), String> {
    let node = roster_node(&o)?;
    if node != o.coordinator_id {
        return Err(format!(
            "node {node} is not the coordinator id {}; run `terminal` or `serve`",
            o.coordinator_id
        ));
    }
    let cfg = session_config(&o, o.peers.len() as u8);
    let bind = o.bind.unwrap_or(o.peers[node as usize]);
    let transport =
        UdpTransport::bind(bind, o.peers.clone(), node).map_err(|e| format!("bind {bind}: {e}"))?;
    let coordinator = Node::new(transport);
    eprintln!(
        "thinaird: node {node} (coordinator) on {bind}, {} peers, {} session(s), digest {:#018x}",
        o.peers.len(),
        o.sessions,
        cfg.digest()
    );
    let outcomes = rt::block_on(async {
        coordinator.start_pump();
        // Sessions run concurrently, multiplexed by session id over the
        // one socket — the same shape a serve daemon handles them in.
        let sessions = o.session_id..o.session_id + o.sessions;
        let tasks: Vec<_> = sessions
            .clone()
            .map(|session| {
                let (coordinator, cfg) = (coordinator.clone(), cfg.clone());
                let seed = task_seed(o.seed, session, node);
                rt::spawn(async move { coordinator.coordinate(session, cfg, seed).await })
            })
            .collect();
        let mut out = Vec::new();
        for (session, t) in sessions.zip(tasks) {
            out.push(t.await.map_err(|e| format!("session {session}: {e}"))?);
        }
        Ok::<_, String>(out)
    })?;
    outcomes.iter().for_each(print_outcome);
    let aborted = outcomes.iter().filter(|o| o.abort.is_some()).count();
    if aborted > 0 {
        return Err(format!("{aborted} session(s) aborted"));
    }
    Ok(())
}

/// `serve`, or with `bounded` the `terminal` role: the same daemon,
/// which exits after `--sessions` outcomes (see [`report_outcomes`]).
fn run_serve(o: Options, bounded: bool) -> Result<(), String> {
    let node = roster_node(&o)?;
    if node == o.coordinator_id {
        return Err("serve runs terminals; the coordinator initiates rounds".into());
    }
    let cfg = session_config(&o, o.peers.len() as u8);
    let bind = o.bind.unwrap_or(o.peers[node as usize]);
    let limits = ServeLimits {
        max_sessions: o.max_sessions,
        idle_timeout: Duration::from_millis(o.idle_ms),
    };
    if o.workers > 1 {
        if bounded {
            return Err("terminal runs one worker; use `serve --workers`".into());
        }
        return run_serve_sharded(&o, node, cfg, bind, limits);
    }
    let transport =
        UdpTransport::bind(bind, o.peers.clone(), node).map_err(|e| format!("bind {bind}: {e}"))?;
    let role = if bounded { "terminal" } else { "serve" };
    eprintln!(
        "thinaird {role}: node {node} on {bind}, {} peers, cap {} sessions, idle evict {} ms, \
         digest {:#018x}",
        o.peers.len(),
        o.max_sessions,
        o.idle_ms,
        cfg.digest()
    );
    // Observability: the daemon's state machines all run on this
    // thread's executor, so the thread-local registry sees every
    // session. Tracing and the periodic dumps are both opt-in.
    if let Some(path) = &o.trace_out {
        std::fs::write(path, "").map_err(|e| format!("create {path}: {e}"))?;
        telemetry::enable_trace(telemetry::DEFAULT_TRACE_CAPACITY);
    }
    if o.stats_every_ms.is_some() {
        telemetry::set_timing(true);
    }
    let bound = bounded.then_some((o.sessions, cfg.deadline));
    let mut server = Server::new(thinair_net::SharedTransport::new(transport), cfg, o.seed, limits);
    let handle = server.handle();
    let stop_handle = handle.clone();
    let outcomes = server.outcomes();
    let stats_every_ms = o.stats_every_ms;
    let trace_out = o.trace_out.clone();
    let run_for_ms = o.run_for_ms;
    let (result, (served, aborted)) = rt::block_on(async move {
        let report = rt::spawn(report_outcomes(outcomes, stop_handle.clone(), bound));
        if let Some(ms) = run_for_ms {
            rt::spawn(async move {
                rt::sleep(Duration::from_millis(ms)).await;
                stop_handle.stop();
            });
        }
        if stats_every_ms.is_some() || trace_out.is_some() {
            rt::spawn(async move {
                // Trace flushes ride the stats cadence (default 500 ms)
                // so a killed daemon loses at most one interval.
                let tick = Duration::from_millis(stats_every_ms.unwrap_or(500));
                let mut last = telemetry::snapshot();
                loop {
                    rt::sleep(tick).await;
                    if let Some(path) = &trace_out {
                        flush_trace(path);
                    }
                    if stats_every_ms.is_some() {
                        let now = telemetry::snapshot();
                        eprintln!("thinaird stats: {}", now.delta(&last).to_json());
                        last = now;
                    }
                }
            });
        }
        let result = server.run().await;
        (result, report.await)
    });
    if let Some(path) = &o.trace_out {
        flush_trace(path);
        let dropped = telemetry::trace_dropped();
        if dropped > 0 {
            eprintln!("thinaird {role}: trace {path}: {dropped} event(s) lost to ring overflow");
        }
        eprintln!("thinaird {role}: trace written to {path}");
    }
    let stats = handle.stats();
    eprintln!(
        "thinaird {role}: exiting; admitted {} completed {} aborted {} evicted {} rejected {}",
        stats.admitted, stats.completed, stats.aborted, stats.evicted, stats.rejected
    );
    result.map_err(|e| format!("serve loop failed: {e}"))?;
    if bounded && served < o.sessions {
        return Err(format!("only {served} of {} session(s) started", o.sessions));
    }
    if bounded && aborted > 0 {
        return Err(format!("{aborted} session(s) aborted"));
    }
    Ok(())
}

/// Prints the daemon's outcomes until its stream closes (the daemon
/// stopped). With a `bound` of `(sessions, deadline)`, the `terminal`
/// role, it stops the daemon itself after `sessions` outcomes: it admits
/// for one deadline after launch, then waits only for the sessions
/// still open, each of which ends within one deadline. Returns how many
/// outcomes it saw and how many of them aborted.
async fn report_outcomes(
    mut outcomes: Receiver<SessionOutcome>,
    handle: ServeHandle,
    bound: Option<(u64, Duration)>,
) -> (u64, u64) {
    let launched = rt::now();
    let (mut seen, mut aborted) = (0, 0);
    loop {
        let next = match bound {
            None => outcomes.recv().await,
            Some((sessions, _)) if seen >= sessions => break,
            Some((_, deadline)) => {
                let admitting = rt::now() < launched + deadline;
                if !admitting && handle.open_sessions() == 0 {
                    break;
                }
                let until = launched + if admitting { deadline } else { deadline * 2 };
                match rt::timeout_at(until, outcomes.recv()).await {
                    Err(rt::Elapsed) if admitting => continue,
                    next => next.ok().flatten(),
                }
            }
        };
        let Some(out) = next else { break };
        seen += 1;
        aborted += u64::from(out.abort.is_some());
        print_outcome(&out);
    }
    handle.stop();
    (seen, aborted)
}

/// `serve --workers N`: the daemon sharded across N worker threads —
/// one `SO_REUSEPORT` socket, executor (epoll reactor), registry and
/// flow budget per worker, the kernel steering each datagram to its
/// session's shard. Blocks until `--run-for-ms` elapses (or forever,
/// until killed).
fn run_serve_sharded(
    o: &Options,
    node: u8,
    cfg: SessionConfig,
    bind: SocketAddr,
    limits: ServeLimits,
) -> Result<(), String> {
    if o.trace_out.is_some() {
        // The trace ring is per worker thread and the export cadence is
        // wired into the single-runtime loop; refuse rather than write
        // a silently incomplete trace.
        return Err("--trace-out requires --workers 1".into());
    }
    let sockets = bind_shard_sockets(bind, o.workers).map_err(|e| format!("bind {bind}: {e}"))?;
    eprintln!(
        "thinaird serve: node {node} on {bind}, {} peers, {} workers, cap {} sessions \
         ({} per shard), idle evict {} ms, digest {:#018x}",
        o.peers.len(),
        o.workers,
        o.max_sessions,
        o.max_sessions.div_ceil(o.workers).max(1),
        o.idle_ms,
        cfg.digest()
    );
    let stop = Arc::new(AtomicBool::new(false));
    if let Some(ms) = o.run_for_ms {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(ms));
            stop.store(true, Ordering::Relaxed);
        });
    }
    if let Some(every) = o.stats_every_ms {
        // The workers' registries are per-thread; the merged
        // process-wide gather is what the periodic dump wants.
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut last = telemetry::snapshot_all();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(every));
                let now = telemetry::snapshot_all();
                eprintln!("thinaird stats: {}", now.delta(&last).to_json());
                last = now;
            }
        });
    }
    let opts = ShardedServeOptions {
        cfg,
        seed: o.seed,
        limits,
        collect_outcomes: false,
        on_outcome: Some(Arc::new(|_, out| print_outcome(out))),
        timing: o.stats_every_ms.is_some(),
    };
    let reports = run_sharded_serve(sockets, o.peers.clone(), node, opts, stop)
        .map_err(|e| format!("serve loop failed: {e}"))?;
    let mut stats = ServeStats::default();
    for r in &reports {
        stats.absorb(&r.stats);
    }
    eprintln!(
        "thinaird serve: exiting; admitted {} completed {} aborted {} evicted {} rejected {} \
         across {} shards",
        stats.admitted,
        stats.completed,
        stats.aborted,
        stats.evicted,
        stats.rejected,
        reports.len()
    );
    Ok(())
}

/// Drains the thread's trace ring and appends the events to `path` as
/// JSONL. Errors are reported, not fatal: a failed flush must not take
/// the daemon down.
fn flush_trace(path: &str) {
    use std::io::Write;
    let events = telemetry::take_events();
    if events.is_empty() {
        return;
    }
    let mut buf = String::with_capacity(events.len() * 96);
    for ev in &events {
        buf.push_str(&ev.to_jsonl());
        buf.push('\n');
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(buf.as_bytes()));
    if let Err(e) = written {
        eprintln!("thinaird serve: trace write {path}: {e}");
    }
}

fn run_trace_validate(files: &[String]) -> Result<(), String> {
    if files.is_empty() || files.iter().any(|f| f.starts_with('-')) {
        return Err("trace-validate takes one or more <FILE.jsonl> paths".into());
    }
    let mut failed = 0usize;
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let report = check_trace(&text);
        println!("{path}: {}", report.summary());
        for v in &report.violations {
            eprintln!("  {v}");
        }
        if report.violation_count > report.violations.len() {
            eprintln!("  ... and {} more", report.violation_count - report.violations.len());
        }
        if !report.ok() {
            failed += 1;
        }
    }
    if failed > 0 {
        return Err(format!("{failed} trace file(s) violate the schema"));
    }
    Ok(())
}

fn run_bench_serve(o: Options) -> Result<(), String> {
    // Reproducible by default, like the other benches.
    let seed = if o.seed_given { o.seed } else { 1 };
    let mut specs = if o.smoke { serve_smoke_specs(seed) } else { serve_ramp_specs(seed) };
    if let Some(filter) = &o.wave {
        specs.retain(|s| s.name.contains(filter.as_str()));
        if specs.is_empty() {
            return Err(format!("--wave {filter} matches no wave in this ramp"));
        }
    }
    if o.workers_given {
        // Force the workers axis of every UDP-loopback wave (the sim
        // backend has no kernel to steer SO_REUSEPORT packets, so sim
        // waves keep their single runtime).
        for spec in &mut specs {
            if spec.backend == ServeBackend::UdpLoopback {
                spec.workers = o.workers;
            }
        }
    }
    eprintln!(
        "thinaird bench-serve: {} wave(s), up to {} concurrent sessions, seed {seed}",
        specs.len(),
        specs.iter().map(|s| s.concurrency).max().unwrap_or(0),
    );
    // Waves run serially: each saturates the machine by design, and the
    // latency numbers would be meaningless under co-scheduled waves.
    let mut results = Vec::with_capacity(specs.len());
    for spec in &specs {
        eprintln!("  wave {} ({} sessions)...", spec.name, spec.concurrency);
        results.push(run_serve_wave(spec).map_err(|e| format!("wave {}: {e}", spec.name))?);
    }
    print!("{}", serve_summary_table(&results));
    let violations: u32 = results.iter().map(|r| r.violations).sum();
    let out = o.out.unwrap_or_else(|| "BENCH_serve.json".into());
    write_serve_json(std::path::Path::new(&out), &results)
        .map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out}");
    if violations > 0 {
        return Err(format!("SAFETY INVARIANT VIOLATED in {violations} session(s)"));
    }
    // The daemons must never shed a Start silently: every capacity
    // rejection is answered with an explicit Busy reply.
    for r in &results {
        if r.busy < r.rejected {
            return Err(format!(
                "wave {}: {} rejection(s) but only {} Busy replies — silent shed",
                r.spec.name, r.rejected, r.busy
            ));
        }
    }
    if let Some(bound) = o.max_p99_ms {
        for r in &results {
            if r.latency_ms_p99 > bound {
                return Err(format!(
                    "wave {}: p99 {:.1} ms exceeds the --max-p99-ms bound {bound:.1}",
                    r.spec.name, r.latency_ms_p99
                ));
            }
        }
    }
    Ok(())
}

fn run_demo(o: Options) -> Result<(), String> {
    if o.nodes < 2 {
        return Err("--nodes must be at least 2".into());
    }
    let cfg = session_config(&o, o.nodes);
    let sessions: Vec<u64> = (0..o.sessions).map(|s| o.session_id + s).collect();
    eprintln!(
        "thinaird demo: {} nodes, {} session(s), {} x-packets, drop {:.2}",
        o.nodes, o.sessions, o.n_packets, o.drop
    );
    let all = drive_loopback(&cfg, &sessions, o.seed).map_err(|e| e.to_string())?;
    let mut ok = true;
    for outcomes in &all {
        outcomes.iter().for_each(print_outcome);
        let first = &outcomes[0];
        if outcomes.iter().any(|t| t.abort.is_some()) {
            eprintln!("session {:#x}: ABORTED", first.session);
            ok = false;
        } else if !outcomes.iter().all(|t| t.secret == first.secret) {
            eprintln!("session {:#x}: SECRET MISMATCH", first.session);
            ok = false;
        } else if first.l > 0 {
            eprintln!(
                "session {:#x}: all {} nodes agree on a {}-packet secret",
                first.session,
                outcomes.len(),
                first.l
            );
        } else {
            eprintln!("session {:#x}: no secret extractable this round (L = 0)", first.session);
        }
    }
    if ok {
        Ok(())
    } else {
        Err("secret mismatch across nodes".into())
    }
}

fn run_bench_scenario(o: Options) -> Result<(), String> {
    // Benchmarks must be reproducible: default to a fixed sweep seed
    // (the demo/daemon default draws from OS entropy instead).
    let seed = if o.seed_given { o.seed } else { 1 };
    let sessions = o.sessions.clamp(1, u32::MAX as u64) as u32;
    let mut specs = if o.smoke { smoke_specs(seed) } else { full_grid(seed, sessions).expand() };
    if o.smoke && o.sessions_given {
        // The smoke set fixes its configs but the session count is the
        // user's to scale.
        for spec in &mut specs {
            spec.sessions = sessions;
        }
    }
    eprintln!(
        "thinaird bench-scenario: {} config(s), {} session(s) each, seed {seed}",
        specs.len(),
        specs.first().map(|s| s.sessions).unwrap_or(0),
    );
    let results = run_specs(&specs);
    let mut ok = Vec::with_capacity(results.len());
    for (spec, result) in specs.iter().zip(results) {
        match result {
            Ok(r) => ok.push(r),
            Err(e) => return Err(format!("scenario {}: {e}", spec.name)),
        }
    }
    print!("{}", summary_table(&ok));
    let out = o.out.unwrap_or_else(|| "BENCH_scenarios.json".into());
    write_json(std::path::Path::new(&out), &ok).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn run_bench_soak(o: Options) -> Result<(), String> {
    // Reproducible by default, like bench-scenario.
    let seed = if o.seed_given { o.seed } else { 1 };
    let sessions = o.sessions.clamp(1, u32::MAX as u64) as u32;
    let mut specs = if o.smoke { soak_smoke_specs(seed) } else { soak_specs(seed, 60) };
    if o.sessions_given {
        for spec in &mut specs {
            spec.sessions = sessions;
        }
    }
    let total: u32 = specs.iter().map(|s| s.sessions).sum();
    eprintln!(
        "thinaird bench-soak: {} fault cell(s), {total} session(s) total, seed {seed}",
        specs.len(),
    );
    let results = run_soak_specs(&specs);
    let mut ok = Vec::with_capacity(results.len());
    for (spec, result) in specs.iter().zip(results) {
        match result {
            Ok(r) => ok.push(r),
            Err(e) => return Err(format!("soak cell {}: {e}", spec.name)),
        }
    }
    print!("{}", soak_summary_table(&ok));
    let violations: u32 = ok.iter().map(|r| r.violations).sum();
    let out = o.out.unwrap_or_else(|| "BENCH_soak.json".into());
    write_soak_json(std::path::Path::new(&out), &ok).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out}");
    if violations > 0 {
        return Err(format!("SAFETY INVARIANT VIOLATED in {violations} session(s)"));
    }
    Ok(())
}

fn run_explore(o: Options) -> Result<(), String> {
    // Reproducible by default, like the benches.
    let seed = if o.seed_given { o.seed } else { 1 };
    let mut base = if o.smoke { explore_smoke_spec(seed) } else { explore_default_spec(seed) };
    if let Some(t) = o.terminals {
        base.terminals = t;
    }
    if let Some(d) = o.depth {
        base.depth = d;
    }
    if let Some(k) = o.drop_budget {
        base.drop_budget = k;
    }
    let specs = match o.seed_range {
        Some((a, b)) => explore_range_specs(&base, a..b),
        None => vec![base],
    };
    eprintln!(
        "thinaird explore: {} exploration(s), terminals {}, depth {}, drop budget {}",
        specs.len(),
        specs[0].terminals,
        specs[0].depth,
        specs[0].drop_budget,
    );
    let results = run_explore_specs(&specs);
    let mut ok = Vec::with_capacity(results.len());
    for (spec, result) in specs.iter().zip(results) {
        match result {
            Ok(r) => ok.push(r),
            Err(e) => return Err(format!("exploration {}: {e}", spec.name)),
        }
    }
    print!("{}", explore_summary_table(&ok));
    let out = o.out.unwrap_or_else(|| "BENCH_explore.json".into());
    write_explore_json(std::path::Path::new(&out), &ok).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out}");
    // Surface every shrunk counterexample: the causal explanation on
    // stderr, the frame-level telemetry trace as a sibling artifact
    // (CI uploads both alongside the bench JSON).
    let mut violations = 0u64;
    for r in &ok {
        for (i, cx) in r.violations.iter().enumerate() {
            violations += 1;
            eprintln!("\n=== counterexample {} #{i} ===\n{}", r.spec.name, cx.explanation);
            let trace_path = format!("{out}.{}.cx{i}.jsonl", r.spec.name);
            std::fs::write(&trace_path, &cx.trace_jsonl)
                .map_err(|e| format!("write {trace_path}: {e}"))?;
            eprintln!("wrote {trace_path}");
        }
        if !r.exhausted {
            eprintln!(
                "warning: {} hit its execution budget before exhausting the tree",
                r.spec.name
            );
        }
    }
    if violations > 0 {
        return Err(format!("SAFETY INVARIANT VIOLATED in {violations} schedule(s)"));
    }
    Ok(())
}

/// `thinaird lint [ROOT]` — run the workspace invariant rules
/// ([`thinair_lint`]) over `ROOT` (default `.`). Same findings and exit
/// convention as the standalone `thinair-lint` binary: `0` clean, `1`
/// unallowed findings, `2` bad invocation or unreadable root.
fn run_lint(rest: &[String]) -> ExitCode {
    let root = match rest {
        [] => std::path::PathBuf::from("."),
        [dir] => std::path::PathBuf::from(dir),
        _ => {
            eprintln!("thinaird: lint takes at most one root directory");
            return ExitCode::from(2);
        }
    };
    let files = match thinair_lint::load_workspace(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("thinaird: cannot read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let findings = thinair_lint::check_files(&files);
    if findings.is_empty() {
        println!(
            "thinaird lint: clean ({} files, {} rules)",
            files.len(),
            thinair_lint::rules::RULE_IDS.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("{}", thinair_lint::render(&findings));
        println!("thinaird lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") || args.is_empty() {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (cmd, rest) = args.split_first().expect("nonempty checked");
    // trace-validate takes positional file paths, not options.
    if cmd == "trace-validate" {
        return match run_trace_validate(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("thinaird: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // lint takes an optional positional root dir, not the shared options.
    if cmd == "lint" {
        return run_lint(rest);
    }
    let parsed = match parse_args(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("thinaird: {e}\n\n{USAGE}");
            // Usage errors exit 2 (the conventional "bad invocation"
            // code); runtime failures below keep exiting 1 so scripts
            // can tell a typo'd flag from a failed round.
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "coordinator" => run_coordinator(parsed),
        "terminal" => run_serve(parsed, true),
        "serve" => run_serve(parsed, false),
        "demo" => run_demo(parsed),
        "bench-scenario" => run_bench_scenario(parsed),
        "bench-soak" => run_bench_soak(parsed),
        "bench-serve" => run_bench_serve(parsed),
        "explore" => run_explore(parsed),
        other => Err(format!("unknown subcommand {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("thinaird: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Every numeric flag of `serve`, `bench-serve` and `explore` (the
    /// integer ones, the float ones, and `--seed-range`'s pair), so a
    /// new flag wired through [`num`]/[`fnum`] inherits the contract:
    /// malformed values produce a parse `Err` (exit 2 in `main`), never
    /// a panic and never a silently defaulted value.
    const INT_FLAGS: &[&str] = &[
        // serve (and the shared role/demo options it accepts)
        "--node",
        "--nodes",
        "--sessions",
        "--session-id",
        "--n-packets",
        "--payload-len",
        "--drop-seed",
        "--seed",
        "--coordinator-id",
        "--deadline-ms",
        "--max-sessions",
        "--workers",
        "--idle-ms",
        "--stats-every-ms",
        "--run-for-ms",
        // explore
        "--terminals",
        "--depth",
        "--drop-budget",
    ];
    const FLOAT_FLAGS: &[&str] = &["--drop", "--max-p99-ms"];

    #[test]
    fn every_numeric_flag_rejects_malformed_values() {
        for flag in INT_FLAGS {
            for bad in ["abc", "12abc", "-1", ""] {
                let err = parse_args(&args(&[flag, bad]))
                    .expect_err(&format!("{flag} {bad:?} must not parse"));
                assert!(err.contains("bad number"), "{flag} {bad:?}: {err}");
            }
        }
        for flag in FLOAT_FLAGS {
            let err = parse_args(&args(&[flag, "abc"])).expect_err("float flag must not parse");
            assert!(err.contains("bad float"), "{flag}: {err}");
        }
    }

    #[test]
    fn every_numeric_flag_rejects_a_missing_value() {
        for flag in INT_FLAGS.iter().chain(FLOAT_FLAGS).chain(&["--seed-range"]) {
            let err = parse_args(&args(&[flag])).expect_err("dangling flag must not parse");
            assert!(err.contains("missing value"), "{flag}: {err}");
        }
    }

    #[test]
    fn seed_range_rejects_malformed_and_empty_ranges() {
        for bad in ["5", "5..x", "x..5", "7..7", "9..3"] {
            assert!(
                parse_args(&args(&["--seed-range", bad])).is_err(),
                "--seed-range {bad:?} must not parse"
            );
        }
        let o = parse_args(&args(&["--seed-range", "3..9"])).expect("valid range parses");
        assert_eq!(o.seed_range, Some((3, 9)));
    }

    #[test]
    fn workers_must_be_positive() {
        let err = parse_args(&args(&["--workers", "0"])).expect_err("0 workers rejected");
        assert!(err.contains("at least 1"), "{err}");
        let o = parse_args(&args(&["--workers", "4"])).expect("valid workers parse");
        assert_eq!(o.workers, 4);
        assert!(o.workers_given);
        assert!(!parse_args(&args(&[])).expect("empty ok").workers_given);
    }

    #[test]
    fn well_formed_serve_invocation_parses() {
        let o = parse_args(&args(&[
            "--node",
            "1",
            "--peers",
            "127.0.0.1:7400,127.0.0.1:7401",
            "--max-sessions",
            "128",
            "--workers",
            "4",
            "--idle-ms",
            "5000",
            "--run-for-ms",
            "1000",
        ]))
        .expect("well-formed serve args parse");
        assert_eq!(o.node, Some(1));
        assert_eq!(o.peers.len(), 2);
        assert_eq!((o.max_sessions, o.workers, o.idle_ms), (128, 4, 5000));
        assert_eq!(o.run_for_ms, Some(1000));
    }
}
