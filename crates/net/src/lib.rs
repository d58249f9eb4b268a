//! `thinair-net` — the protocol over real packet I/O.
//!
//! Everything else in this workspace runs the HotNets'12
//! secret-agreement protocol inside an omniscient, synchronous
//! simulation. This crate is the path from simulation to system: an
//! async runtime executing phase-1/phase-2 group rounds over **real UDP
//! sockets**, with the same state machines also runnable against the
//! simulator for apples-to-apples validation.
//!
//! * [`rt`] — a minimal single-threaded async runtime (executor,
//!   timers, channels, and on Linux an epoll reactor so idle runtimes
//!   sleep in `epoll_wait`). The build environment is offline, so this
//!   stands in for tokio; the state machines only assume "futures +
//!   timers" and port directly.
//! * [`udp`] — nonblocking UDP for the runtime.
//! * [`frame`] — the versioned, checksummed datagram codec layered on
//!   the existing `thinair_core::wire::Message` encoding.
//! * [`transport`] — the [`transport::Transport`] trait and its two
//!   implementations: [`transport::UdpTransport`] (real sockets,
//!   unicast fan-out "broadcast") and [`transport::SimTransport`] (an
//!   adapter over [`thinair_netsim::Medium`] with exact bit
//!   accounting).
//! * [`chaos`] — the fault-injection layer for simulated transports:
//!   applies a deterministic `thinair_netsim::FaultPlan` (drop,
//!   corrupt, duplicate, reorder, delay jitter, partitions, terminal
//!   crash / late join, ACK-loss bursts) to every frame, with
//!   injection counters.
//! * [`reliable`] — per-peer ACK/retransmit for control frames,
//!   mirroring `thinair_core::transport` semantics on real I/O, with
//!   wraparound-safe anti-replay windows on the receive side. Closed
//!   loop since PR 7: RFC 6298-style per-peer RTO estimation, jittered
//!   exponential backoff, and a node-wide AIMD in-flight budget
//!   ([`reliable::FlowBudget`]) shared across sessions.
//! * [`session`] — shared session configuration, deterministic plan
//!   re-derivation, erasure injection (iid hash or pluggable per-receiver
//!   [`thinair_netsim::ErasureModel`] chains), secret reconstruction.
//! * [`coordinator`] / [`terminal`] — the two role state machines.
//! * `demux` (crate-private) — the one receive loop per transport: routes
//!   frames by session id, re-acks late frames of finished sessions from
//!   its TIME_WAIT window, and counts orphans; [`node`] and [`serve`]
//!   both run it.
//! * [`node`] — the coordinator's side: one socket, many concurrent
//!   sessions it opens itself (session-id routing).
//! * [`serve`] — the terminal's side, the long-lived daemon layer: a
//!   [`serve::Server`] auto-admits terminal sessions initiated by a
//!   coordinator, with admission caps, FIFO re-admission, idle eviction
//!   and terminal-state GC — thousands of concurrent sessions
//!   multiplexed over one socket.
//! * [`shard`] — multi-core serve: N worker threads, each its own
//!   runtime + registry + `SO_REUSEPORT` socket on one shared address;
//!   a reuseport BPF program has the kernel deliver each datagram to
//!   the shard that owns its session.
//! * [`sys`] — the thin Linux FFI this rests on (epoll, eventfd,
//!   `SO_REUSEPORT` and its steering program); the only module allowed
//!   `unsafe`, with graceful non-Linux fallbacks.
//! * [`driver`] — the multi-session driver: a batch of concurrent
//!   sessions, one coordinator node plus serve daemons, over any
//!   transports, loopback UDP sockets or a simulated medium, with
//!   bit/frame measurements (`thinair-scenario`'s substrate, and the
//!   `thinaird demo` subcommand).
//! * [`telemetry`] — the unified observability registry: named
//!   counters/gauges, log2-bucketed histograms with bounded-error
//!   percentiles, and a per-session span/event trace with JSONL
//!   export — the sink every other module's instrumentation feeds.
//!
//! The `thinaird` binary wraps this into a deployable daemon with
//! `coordinator`, `terminal`, and `demo` subcommands; see the README's
//! loopback quickstart.
//!
//! # Example (in-process loopback round)
//!
//! ```
//! use thinair_net::driver::drive_loopback;
//! use thinair_net::session::SessionConfig;
//!
//! let cfg = SessionConfig { n_nodes: 4, ..SessionConfig::default() };
//! let outcomes = drive_loopback(&cfg, &[0x1234], 42).expect("round completes").remove(0);
//! assert_eq!(outcomes.len(), 4);
//! // Every node derived the identical secret.
//! for pair in outcomes.windows(2) {
//!     assert_eq!(pair[0].secret, pair[1].secret);
//! }
//! ```

// `deny`, not `forbid`: the one exception is [`sys`], the thin Linux
// FFI module (epoll / eventfd / SO_REUSEPORT), which opts back in with
// a module-level `allow`. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod coordinator;
mod demux;
pub mod driver;
pub mod frame;
pub mod node;
pub mod reliable;
pub mod rt;
pub mod serve;
pub mod session;
pub mod shard;
pub mod sys;
pub mod telemetry;
pub mod terminal;
pub mod transport;
pub mod udp;

pub use chaos::FaultStats;
pub use driver::{drive_loopback, drive_sim, drive_sim_chaos, run_sessions, SimRun};
pub use frame::{Frame, NetPayload};
pub use node::Node;
pub use reliable::{backoff_delay, FlowBudget, RetransmitPolicy};
pub use serve::{ServeHandle, ServeLimits, ServeStats, Server};
pub use session::{AbortReason, NetError, SessionConfig, SessionOutcome, SessionTrace};
pub use shard::{
    bind_shard_sockets, run_sharded_serve, shard_of, ShardReport, ShardedServeOptions,
};
pub use telemetry::{Histogram, Snapshot, TraceEvent, TraceKind};
pub use transport::{
    PendingDelivery, SharedTransport, SimNet, SimTransport, StepHandle, Transport, UdpTransport,
};
