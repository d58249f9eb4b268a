//! Cross-shard serve over real loopback UDP: a coordinator drives
//! sessions against a daemon sharded across 4 worker runtimes on one
//! `SO_REUSEPORT` address. Sessions hash to different workers, all
//! agree with the coordinator, and the per-shard `ServeStats` buckets
//! partition `admitted` exactly once.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use thinair_core::round::XSchedule;
use thinair_net::driver::task_seed;
use thinair_net::rt;
use thinair_net::udp::AsyncUdpSocket;
use thinair_net::{
    bind_shard_sockets, run_sharded_serve, shard_of, Node, ServeLimits, SessionConfig,
    ShardedServeOptions, UdpTransport,
};

#[test]
fn cross_shard_sessions_agree_and_stats_partition() {
    const WORKERS: usize = 4;
    const SESSIONS: u64 = 16;
    let cfg = SessionConfig {
        n_nodes: 2,
        payload_len: 4,
        drop_prob: 0.2,
        schedule: XSchedule::CoordinatorOnly(8),
        x_settle: Duration::from_millis(40),
        retransmit: Duration::from_millis(20),
        deadline: Duration::from_secs(10),
        ..SessionConfig::default()
    };
    // The session ids must actually exercise the fabric: several
    // distinct shards (ids 1..=16 under splitmix64 spread well).
    let distinct: std::collections::BTreeSet<usize> =
        (1..=SESSIONS).map(|s| shard_of(s, WORKERS)).collect();
    assert!(distinct.len() >= 3, "test ids hit only shards {distinct:?}");

    let coord_sock = AsyncUdpSocket::bind("127.0.0.1:0").expect("bind coord");
    let daemon_socks =
        bind_shard_sockets("127.0.0.1:0".parse().expect("addr"), WORKERS).expect("bind shards");
    let addrs =
        vec![coord_sock.local_addr().expect("addr"), daemon_socks[0].local_addr().expect("addr")];

    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let daemon_addrs = addrs.clone();
    let daemon_cfg = cfg.clone();
    let daemon = std::thread::spawn(move || {
        run_sharded_serve(
            daemon_socks,
            daemon_addrs,
            1,
            ShardedServeOptions {
                cfg: daemon_cfg,
                seed: 7,
                limits: ServeLimits::default(),
                collect_outcomes: true,
                on_outcome: None,
                timing: false,
            },
            stop2,
        )
        .expect("sharded serve runs")
    });

    let coord_outs = rt::block_on(async move {
        let coord = Node::new(UdpTransport::new(coord_sock, addrs, 0));
        coord.start_pump();
        let mut tasks = Vec::new();
        for s in 1..=SESSIONS {
            let node = coord.clone();
            let cfg = cfg.clone();
            tasks.push(rt::spawn(async move { node.coordinate(s, cfg, task_seed(7, s, 0)).await }));
        }
        let mut outs = Vec::new();
        for t in tasks {
            let out = t.await.expect("io ok");
            assert!(out.completed(), "coordinator aborted: {:?}", out.abort);
            outs.push(out);
        }
        outs
    });

    // Give the slowest shard a beat to finish its last session's fin
    // barrier, then stop the daemon and collect the reports.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let reports = daemon.join().expect("daemon thread");
    assert_eq!(reports.len(), WORKERS);

    // Every session landed on exactly the shard the hash names, agreed
    // with the coordinator, and was admitted exactly once daemon-wide.
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for r in &reports {
        for out in &r.outcomes {
            assert!(
                out.completed(),
                "shard {} session {:#x}: {:?}",
                r.shard,
                out.session,
                out.abort
            );
            assert_eq!(
                shard_of(out.session, WORKERS),
                r.shard,
                "session {:#x} served off its home shard",
                out.session
            );
            let co = coord_outs.iter().find(|o| o.session == out.session).expect("known session");
            assert_eq!(out.secret, co.secret, "session {:#x} diverged", out.session);
            assert!(seen.insert(out.session, r.shard).is_none(), "session served twice");
        }
    }
    assert_eq!(seen.len() as u64, SESSIONS, "every session served exactly once");

    // Per-shard stats partition the totals: each shard's buckets cover
    // its own admissions, and the shard sums reproduce the wave.
    let mut total_admitted = 0;
    let mut total_completed = 0;
    for r in &reports {
        let s = &r.stats;
        assert_eq!(
            s.completed + s.aborted + s.evicted + s.failed,
            s.admitted,
            "shard {} buckets must partition its admissions: {s:?}",
            r.shard
        );
        assert_eq!(
            s.admitted,
            r.outcomes.len() as u64 + s.evicted,
            "shard {} outcomes mismatch",
            r.shard
        );
        total_admitted += s.admitted;
        total_completed += s.completed;
    }
    assert_eq!(total_admitted, SESSIONS, "admitted exactly once across shards");
    assert_eq!(total_completed, SESSIONS);

    // The kernel steers all coordinator traffic by 4-tuple onto one
    // shard socket, so serving >1 shard requires userspace forwarding
    // — and every forwarded frame is either injected or counted dropped
    // (it met an inbox its shard had closed at shutdown).
    let count = |name: &str| -> u64 {
        reports.iter().map(|r| r.snapshot.counters.get(name).copied().unwrap_or(0)).sum()
    };
    let forwarded = count("net.shard.forwarded");
    let (injected, dropped) = (count("net.shard.injected"), count("net.shard.dropped"));
    assert!(forwarded > 0, "multi-shard traffic must cross the fabric");
    assert_eq!(
        forwarded,
        injected + dropped,
        "fabric lost frames: forwarded={forwarded} injected={injected} dropped={dropped}"
    );

    // On Linux the workers must have slept in epoll_wait, not on the
    // adaptive re-poll timer: real readiness wakeups, zero re-poll arms.
    if cfg!(target_os = "linux") {
        let wakeups: u64 = reports.iter().map(|r| r.rt_metrics.epoll_wakeups).sum();
        assert!(wakeups > 0, "workers must wake via the epoll reactor");
        for r in &reports {
            assert_eq!(
                r.snapshot.counters.get("net.udp.repoll_arms").copied().unwrap_or(0),
                0,
                "shard {} fell back to the re-poll timer",
                r.shard
            );
        }
    }
}
