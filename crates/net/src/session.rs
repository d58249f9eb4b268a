//! Shared session machinery: configuration, deterministic erasure
//! injection, plan derivation and what both roles hold alike.
//!
//! # How a distributed round stays consistent
//!
//! The omniscient simulator hands every terminal the coordinator's
//! [`Plan`] object. Over real sockets nothing is shared, so the plan
//! must be *re-derivable*: `build_plan` is a pure function of the known
//! sets (reconstructed from everyone's reception reports + the
//! deterministic [`owner_order`] map), the estimator (part of the static
//! session configuration), and an RNG seed (announced in
//! `Message::PlanAnnounce`). Every node therefore computes bit-identical
//! plans — the announced `(m, l)` double-checks it.
//!
//! # Why erasures are injected
//!
//! The protocol mines secrecy out of packet loss; loopback UDP loses
//! essentially nothing, and a lossless broadcast gives the leave-one-out
//! estimator zero budget (every candidate Eve heard everything), so
//! `L = 0` — correct, but a useless demo. [`SessionConfig::drop_prob`]
//! injects receiver-side i.i.d. erasures on the *data plane only*
//! (x-packets and z-combos, never control frames), as a stand-in for a
//! lossy radio link. The erasure decision is a pure hash of
//! `(drop_seed, session, receiver, packet)` so a retransmitted datagram
//! is dropped consistently. Over an actually lossy network, set it to 0.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use thinair_core::construct::{build_plan, Plan, PlanParams};
use thinair_core::estimate::{Estimator, Tuning};
use thinair_core::kdf::derive_key;
use thinair_core::packet::{random_payload_bytes, Payload};
use thinair_core::phase1::owner_order;
use thinair_core::round::XSchedule;
use thinair_core::wire::{bitmap_from_received, received_from_bitmap, Message};
use thinair_core::ProtocolError;
use thinair_netsim::ErasureModel;

use crate::frame::{Frame, FrameError, NetPayload};
use crate::reliable::{Dedup, Reliable, RetransmitPolicy};
use crate::transport::{SharedTransport, Transport};

/// Infrastructure failures of a networked session. Conditions a
/// session can hit in normal (if hostile) operation — deadline,
/// attempt-budget exhaustion, config or plan mismatch — are *not*
/// errors: they terminate with a clean [`AbortReason`] inside an `Ok`
/// outcome instead.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Protocol-level failure (construction, decoding, config).
    Protocol(ProtocolError),
    /// A frame failed to parse (only surfaced from strict contexts;
    /// transports normally just drop bad datagrams).
    Frame(FrameError),
    /// The receive loop running the session stopped: its socket failed.
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Protocol(e) => write!(f, "protocol: {e}"),
            NetError::Frame(e) => write!(f, "frame: {e}"),
            NetError::Closed => write!(f, "session closed: its receive loop stopped"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        NetError::Protocol(e)
    }
}

/// Static per-session configuration; must be identical on every node
/// (checked via [`SessionConfig::digest`] at the start barrier).
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Number of protocol nodes (coordinator included).
    pub n_nodes: u8,
    /// Which node coordinates ("Alice").
    pub coordinator: u8,
    /// Phase-1 x-packet schedule.
    pub schedule: XSchedule,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Eve-erasure estimator (must not be `Oracle`: there is no ground
    /// truth on a real network).
    pub estimator: Estimator,
    /// Construction tunables.
    pub plan_params: PlanParams,
    /// Receiver-side data-plane erasure probability (see module docs).
    /// Ignored when [`SessionConfig::drop_models`] is set.
    pub drop_prob: f64,
    /// Seed of the erasure injection (both the iid hash and the
    /// per-receiver model patterns).
    pub drop_seed: u64,
    /// Per-receiver data-plane erasure models (indexed by node id).
    /// When set, receiver `r` drops data-plane packet `id` according to
    /// `drop_models[r]`'s deterministic pattern over the id sequence —
    /// so iid *and* bursty (Gilbert-Elliott) loss stay a pure function
    /// of `(model, drop_seed, session, receiver)`, independent of task
    /// scheduling, exactly like the legacy hash. `None` keeps the
    /// single-probability iid hash driven by `drop_prob`.
    pub drop_models: Option<Vec<ErasureModel>>,
    /// Initial retransmit timeout for reliable control frames: the RTO
    /// before any RTT sample exists, and the anchor of the adaptive
    /// RTO's floor (see [`crate::reliable`]). Also the ceiling of the
    /// coordinator's fountain top-up interval, which starts at that RTO
    /// and doubles per top-up (see [`crate::coordinator`]).
    pub retransmit: Duration,
    /// Ceiling of the adaptive, exponentially backed-off retransmit
    /// delay.
    pub rto_cap: Duration,
    /// How long after the start barrier the x phase is considered
    /// settled (reports are sent at this point).
    pub x_settle: Duration,
    /// Overall session deadline.
    pub deadline: Duration,
    /// Attempt budget per reliable frame.
    pub max_attempts: u32,
    /// Fountain budget: most z-combos the coordinator streams in phase
    /// 2, and the length of every node's deterministic z-erasure
    /// pattern. Protocol-relevant (it bounds the shared fountain-index
    /// space each node precomputes drops over), so it folds into the
    /// config digest — unlike `max_attempts`, which is pure control-
    /// plane timing and must stay free to tune.
    pub z_budget: u32,
    /// **Test-only seeded bug** for validating the exhaustive
    /// interleaving explorer (`thinair-scenario`'s `explore` module): a
    /// terminal running with this flag rebuilds its plan as soon as its
    /// own report plus the coordinator's announcement exist —
    /// substituting empty bitmaps for peer reports it has not seen yet
    /// and skipping the `(m, l)` cross-check — which is exactly the
    /// kind of ordering bug the explorer must find and shrink. Never
    /// set outside explorer self-tests; deliberately excluded from
    /// [`SessionConfig::digest`] so a buggy terminal still pairs with a
    /// correct coordinator (the bug is local, not a config mismatch).
    pub bug_premature_plan: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            n_nodes: 4,
            coordinator: 0,
            schedule: XSchedule::CoordinatorOnly(60),
            payload_len: 32,
            estimator: Estimator::LeaveOneOut(Tuning::default()),
            plan_params: PlanParams::default(),
            drop_prob: 0.4,
            drop_seed: 7,
            drop_models: None,
            retransmit: Duration::from_millis(25),
            rto_cap: Duration::from_secs(1),
            x_settle: Duration::from_millis(150),
            deadline: Duration::from_secs(30),
            max_attempts: 400,
            z_budget: 400,
            bug_premature_plan: false,
        }
    }
}

impl SessionConfig {
    /// The resolved per-terminal x counts.
    pub fn x_counts(&self) -> Vec<usize> {
        self.schedule.resolve(self.n_nodes as usize, self.coordinator as usize)
    }

    /// The deterministic id → owner map of the x-pool.
    pub fn owners(&self) -> Vec<usize> {
        owner_order(&self.x_counts())
    }

    /// Total x-packets in a round.
    pub fn n_packets(&self) -> usize {
        self.x_counts().iter().sum()
    }

    /// Checks the parameters that must ride `u16` wire fields. A
    /// violation is not an infrastructure error but a *clean abort*:
    /// both role state machines call this on entry and terminate with
    /// the structured [`AbortReason::PlanOverflow`] instead of
    /// announcing a silently truncated plan (the pre-fix behavior was
    /// an unchecked `as u16` cast).
    pub fn plan_bounds(&self) -> Result<(), AbortReason> {
        let n_packets = self.n_packets();
        if n_packets > u16::MAX as usize {
            return Err(AbortReason::PlanOverflow {
                what: "n_packets",
                value: n_packets as u64,
                limit: u16::MAX as u64,
            });
        }
        Ok(())
    }

    /// Checks the configuration against the codec's and protocol's hard
    /// limits, so a bad `--payload-len` fails fast with a named error
    /// instead of silently emitting frames every receiver rejects
    /// (`Frame::encode` only debug-asserts [`crate::frame::MAX_PAYLOAD`]).
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.n_nodes < 2 {
            return Err(ProtocolError::BadConfig("need at least two nodes"));
        }
        if self.coordinator >= self.n_nodes {
            return Err(ProtocolError::BadConfig("coordinator outside roster"));
        }
        let n_packets = self.n_packets();
        if n_packets == 0 {
            return Err(ProtocolError::BadConfig("no x-packets scheduled"));
        }
        if n_packets > u16::MAX as usize {
            return Err(ProtocolError::BadConfig("x-pool exceeds u16 packet ids"));
        }
        // An x/z frame carries one payload plus bounded headers and
        // coefficient vectors; 16 KiB keeps every frame far inside
        // MAX_PAYLOAD (and inside a realistic unfragmented datagram).
        if self.payload_len == 0 || self.payload_len > 16 * 1024 {
            return Err(ProtocolError::BadConfig("payload_len must be in 1..=16384"));
        }
        if !(0.0..1.0).contains(&self.drop_prob) {
            return Err(ProtocolError::BadConfig("drop_prob must be in [0, 1)"));
        }
        if let Some(models) = &self.drop_models {
            if models.len() != self.n_nodes as usize {
                return Err(ProtocolError::BadConfig("drop_models must cover every node"));
            }
            if models.iter().any(|m| m.validate().is_err()) {
                return Err(ProtocolError::BadConfig("invalid drop model"));
            }
            if models.iter().any(|m| m.mean_erasure() >= 1.0) {
                return Err(ProtocolError::BadConfig("drop model erases everything"));
            }
        }
        if matches!(self.estimator, Estimator::Oracle { .. }) {
            // There is no ground-truth Eve on a real network.
            return Err(ProtocolError::BadConfig("oracle estimator is sim-only"));
        }
        if self.z_budget == 0 {
            return Err(ProtocolError::BadConfig("z_budget must be positive"));
        }
        Ok(())
    }

    /// FNV-1a digest over every field that affects protocol agreement.
    /// Two nodes with different digests would derive different plans, so
    /// the start barrier refuses to pair them.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        fold(self.n_nodes as u64);
        fold(self.coordinator as u64);
        for c in self.x_counts() {
            fold(c as u64);
        }
        fold(self.payload_len as u64);
        for b in self.estimator.name().bytes() {
            fold(b as u64);
        }
        let t = self.estimator.tuning();
        fold(t.scale.to_bits());
        fold(t.slack as u64);
        match &self.estimator {
            Estimator::FixedFraction { fraction } => fold(fraction.to_bits()),
            Estimator::Custom { candidates, .. } => {
                // The candidate sets define the plan; two nodes with the
                // same label but different sets must not pair up.
                for cand in candidates {
                    fold(cand.len() as u64);
                    for &j in cand {
                        fold(j as u64);
                    }
                }
            }
            _ => {}
        }
        fold(self.plan_params.max_rows as u64);
        fold(self.plan_params.support_floor as u64);
        fold(self.plan_params.support_slack as u64);
        fold(self.drop_prob.to_bits());
        fold(self.drop_seed);
        fold(self.z_budget as u64);
        if let Some(models) = &self.drop_models {
            fold(models.len() as u64);
            for m in models {
                for b in m.kind().bytes() {
                    fold(b as u64);
                }
                for p in m.params() {
                    fold(p.to_bits());
                }
            }
        }
        h
    }
}

// The canonical SplitMix64 finalizer; its output must be bit-identical
// on every node — it decides which packets are "erased".
pub(crate) use thinair_netsim::erasure::splitmix64;

/// Data-plane frame kinds for erasure injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataKind {
    /// Phase-1 x-packet.
    X,
    /// Phase-2 z-combo.
    Z,
}

/// Pure-hash erasure decision: should `receiver` drop this data-plane
/// packet?
pub fn inject_erasure(
    cfg: &SessionConfig,
    session: u64,
    receiver: u8,
    kind: DataKind,
    id: u64,
) -> bool {
    if cfg.drop_prob <= 0.0 {
        return false;
    }
    let salt = match kind {
        DataKind::X => 0x58u64,
        DataKind::Z => 0x5Au64,
    };
    let h = splitmix64(
        cfg.drop_seed
            ^ session.rotate_left(17)
            ^ (receiver as u64).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ salt.wrapping_mul(0x9FB2_1C65_1E98_DF25)
            ^ id.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < cfg.drop_prob
}

/// Seed of one receiver's data-plane erasure chain (same mixing as the
/// iid hash, minus the per-packet id: the chain consumes ids in order).
fn chain_seed(cfg: &SessionConfig, session: u64, receiver: u8, kind: DataKind) -> u64 {
    let salt = match kind {
        DataKind::X => 0x58u64,
        DataKind::Z => 0x5Au64,
    };
    splitmix64(
        cfg.drop_seed
            ^ session.rotate_left(17)
            ^ (receiver as u64).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ salt.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    )
}

/// The first `len` drop decisions of `receiver`'s configured erasure
/// model for `kind` packets, or `None` when the session runs the legacy
/// iid hash ([`SessionConfig::drop_models`] unset). Packet `id` is the
/// chain position: phase-1 x ids and phase-2 fountain indices are both
/// sequential, so a burst model erases *consecutive transmissions* —
/// exactly what a fade does — while staying a pure function of the
/// configuration, independent of timing and task scheduling.
pub fn drop_pattern(
    cfg: &SessionConfig,
    session: u64,
    receiver: u8,
    kind: DataKind,
    len: usize,
) -> Option<Vec<bool>> {
    let models = cfg.drop_models.as_ref()?;
    let model = models.get(receiver as usize)?;
    Some(model.pattern(chain_seed(cfg, session, receiver, kind), len))
}

/// Rebuilds every node's known set from the collected reception-report
/// bitmaps (`reports[t]`) plus the deterministic ownership map.
pub fn known_sets(cfg: &SessionConfig, reports: &[Vec<u8>]) -> Vec<BTreeSet<usize>> {
    let owners = cfg.owners();
    let n_packets = owners.len();
    let mut known: Vec<BTreeSet<usize>> = reports
        .iter()
        .map(|bm| received_from_bitmap(n_packets, bm).into_iter().collect())
        .collect();
    for (id, &o) in owners.iter().enumerate() {
        known[o].insert(id);
    }
    known
}

/// Derives the plan every node must agree on from the shared reports
/// and the announced seed.
pub fn derive_plan(
    cfg: &SessionConfig,
    reports: &[Vec<u8>],
    plan_seed: u64,
) -> Result<Plan, ProtocolError> {
    let known = known_sets(cfg, reports);
    let mut rng = StdRng::seed_from_u64(plan_seed);
    build_plan(
        &known,
        cfg.coordinator as usize,
        cfg.n_packets(),
        &cfg.estimator,
        &mut rng,
        cfg.plan_params,
    )
}

/// `n` as a `u16` wire field. [`SessionConfig::plan_bounds`] keeps every
/// x id and count in range, so a miss is a configuration error.
fn wire_u16(n: usize) -> Result<u16, NetError> {
    u16::try_from(n)
        .map_err(|_| NetError::Protocol(ProtocolError::BadConfig("x-pool exceeds u16 packet ids")))
}

/// How a session ended on one node: its outcome (completed or cleanly
/// aborted), or the infrastructure error that ended it.
pub(crate) type Ended = Result<SessionOutcome, NetError>;

/// What a role's step returns: `Some` outcome once the session has ended.
pub(crate) type Stepped = Result<Option<SessionOutcome>, NetError>;

/// How a session `cfg` cannot run ends on node `me` before it starts: a
/// clean abort when its x-pool outgrows the `u16` wire fields, an error
/// for an invalid configuration. `None` when it can run.
pub(crate) fn unrunnable(cfg: &SessionConfig, session: u64, me: u8) -> Option<Ended> {
    if let Err(reason) = cfg.plan_bounds() {
        return Some(Ok(SessionOutcome::aborted(session, me, cfg.n_packets(), reason, None)));
    }
    cfg.validate().err().map(|e| Err(e.into()))
}

/// What both role state machines hold and do alike: the reliable layer
/// and replay windows, the x-pool with its erasures, the reception
/// reports, the phase spans and the deadline.
pub(crate) struct Core<T> {
    pub t: SharedTransport<T>,
    pub cfg: SessionConfig,
    pub session: u64,
    pub me: u8,
    /// Every other node: the targets of this node's reliable frames.
    pub peers: Vec<u8>,
    /// All local randomness (x payloads; the plan seed and combos).
    pub rng: StdRng,
    pub rel: Reliable,
    dedup: Dedup,
    owners: Vec<usize>,
    /// Drop decisions of the per-receiver erasure models, if configured
    /// ([`SessionConfig::drop_models`]).
    x_drops: Option<Vec<bool>>,
    z_drops: Option<Vec<bool>>,
    /// Payloads this node holds (own + received) by x id, as byte rows.
    pub store: BTreeMap<usize, Vec<u8>>,
    received: BTreeSet<usize>,
    /// Every node's reception report, this node's own once sent.
    pub reports: Vec<Option<Vec<u8>>>,
    /// The phase the spans and the trace are in, and since when.
    phase: &'static str,
    entered: Instant,
    pub deadline: Instant,
}

impl<T: Transport> Core<T> {
    /// Sets up node `me`'s side of `session` as `role` (its trace name)
    /// in `phase`, its deadline from now; `cfg` must be runnable.
    pub fn new(
        t: SharedTransport<T>,
        session: u64,
        cfg: SessionConfig,
        seed: u64,
        me: u8,
        role: &'static str,
        phase: &'static str,
    ) -> Self {
        let n = cfg.n_nodes;
        let owners = cfg.owners();
        // Fountain indices are capped by the fountain budget; the frame
        // carries them as u16.
        let z_len = (cfg.z_budget as usize).min(u16::MAX as usize + 1);
        crate::telemetry::trace_session_start(session, me, role);
        crate::telemetry::trace_phase(session, me, phase);
        Core {
            peers: (0..n).filter(|&p| p != me).collect(),
            rng: StdRng::seed_from_u64(seed),
            rel: Reliable::with_policy(RetransmitPolicy {
                initial_rto: cfg.retransmit,
                cap: cfg.rto_cap,
                max_attempts: cfg.max_attempts,
                seed,
            }),
            dedup: Dedup::new(n as usize),
            x_drops: drop_pattern(&cfg, session, me, DataKind::X, owners.len()),
            z_drops: drop_pattern(&cfg, session, me, DataKind::Z, z_len),
            owners,
            store: BTreeMap::new(),
            received: BTreeSet::new(),
            reports: vec![None; n as usize],
            phase,
            entered: crate::rt::now(),
            deadline: crate::rt::now() + cfg.deadline,
            t,
            cfg,
            session,
            me,
        }
    }

    pub fn n_packets(&self) -> usize {
        self.owners.len()
    }

    /// This node's data-plane erasure decision: the configured model's
    /// chain when present (ids beyond its horizon can only come from a
    /// spoofed or corrupt frame, and drop), the iid hash otherwise.
    pub fn drops(&self, kind: DataKind, id: u64) -> bool {
        let pattern = match kind {
            DataKind::X => &self.x_drops,
            DataKind::Z => &self.z_drops,
        };
        match pattern {
            Some(p) => p.get(id as usize).copied().unwrap_or(true),
            None => inject_erasure(&self.cfg, self.session, self.me, kind, id),
        }
    }

    /// Acks and de-duplicates `frame` and handles what both roles handle
    /// alike; anything else goes back to the role, with its freshness.
    pub fn receive(&mut self, frame: Frame) -> Result<Option<(Frame, bool)>, NetError> {
        let fresh = self.dedup.admit(&self.t, &frame)?;
        match frame.payload {
            NetPayload::Ack { seq } => self.rel.on_ack(frame.sender, seq),
            // Stored unless malformed (wrong owner, impersonated sender,
            // wrong payload length — the UDP port is an open attack
            // surface) or erased by the configured injection.
            NetPayload::Proto(Message::XPacket { id, owner, payload }) => {
                let id = id as usize;
                if self.owners.get(id) == Some(&(owner as usize))
                    && owner == frame.sender
                    && owner != self.me
                    && payload.len() == self.cfg.payload_len
                    && !self.drops(DataKind::X, id as u64)
                {
                    self.store.insert(id, payload);
                    self.received.insert(id);
                }
            }
            // Counted when fresh, well-formed and its sender's own.
            NetPayload::Proto(Message::ReceptionReport { terminal, n_packets, bitmap }) => {
                if fresh
                    && terminal == frame.sender
                    && (terminal as usize) < self.reports.len()
                    && n_packets as usize == self.n_packets()
                {
                    self.reports[terminal as usize] = Some(bitmap);
                }
            }
            _ => return Ok(Some((frame, fresh))),
        }
        Ok(None)
    }

    /// Broadcasts this node's share of the x-pool (plain,
    /// unacknowledged: erasures are the point), in one batch.
    pub fn broadcast_own(&mut self) -> Result<(), NetError> {
        let mut frames = Vec::new();
        for (id, &o) in self.owners.iter().enumerate() {
            if o != self.me as usize {
                continue;
            }
            let payload = random_payload_bytes(self.cfg.payload_len, &mut self.rng);
            let msg =
                Message::XPacket { id: wire_u16(id)?, owner: self.me, payload: payload.clone() };
            self.store.insert(id, payload);
            let seq = self.rel.next_seq();
            let (sender, session, payload) = (self.me, self.session, NetPayload::Proto(msg));
            frames.push(Frame { flags: 0, sender, session, seq, payload });
        }
        self.t.broadcast_batch(&frames)?;
        Ok(())
    }

    /// Reliably sends every peer this node's reception report (own
    /// packets are implicit in the ownership map), and keeps it.
    pub fn send_report(&mut self) -> Result<(), NetError> {
        let bitmap = bitmap_from_received(self.n_packets(), self.received.iter().copied());
        self.reports[self.me as usize] = Some(bitmap.clone());
        let n_packets = wire_u16(self.n_packets())?;
        let msg = Message::ReceptionReport { terminal: self.me, n_packets, bitmap };
        self.rel.send(&self.t, self.session, NetPayload::Proto(msg), &self.peers)?;
        Ok(())
    }

    /// Enters `phase`, if new: the last phase's span lands in its
    /// `phase.<role>.*` histogram, and the trace records the new one.
    pub fn enter(&mut self, role: &str, phase: &'static str) {
        if phase != self.phase {
            self.close_span(role);
            self.entered = crate::rt::now();
            self.phase = phase;
            crate::telemetry::trace_phase(self.session, self.me, phase);
        }
    }

    /// Settles the current phase's span in its histogram, on the
    /// runtime's clock (virtual or wall).
    pub fn close_span(&self, role: &str) {
        let span = crate::rt::now().saturating_duration_since(self.entered).as_micros() as u64;
        crate::telemetry::observe(crate::telemetry::phase_metric(role, self.phase), span);
    }

    /// The outcome of a cleanly aborted session, settled in the trace.
    pub fn aborted(&self, reason: AbortReason, trace: Option<SessionTrace>) -> SessionOutcome {
        crate::telemetry::trace_abort(self.session, self.me, reason.kind());
        crate::telemetry::trace_end(self.session, self.me, false, 0);
        SessionOutcome::aborted(self.session, self.me, self.n_packets(), reason, trace)
    }

    /// The outcome a derived plan gives this node.
    pub fn outcome(&self, (m, l): (usize, usize), secret: Vec<Payload>) -> SessionOutcome {
        let (session, node, n_packets) = (self.session, self.me, self.n_packets());
        SessionOutcome { session, node, l, m, n_packets, secret, abort: None, trace: None }
    }

    /// The earliest of the deadline, a retransmission and `timer`.
    pub fn wake(&self, timer: Option<Instant>) -> Instant {
        [self.rel.next_due(), timer].into_iter().flatten().fold(self.deadline, Instant::min)
    }

    /// Every step's epilogue: retransmits what is due, then names why
    /// the session must end, if a peer's attempts or the deadline ran out.
    pub fn settle(&mut self, now: Instant) -> Result<Option<AbortReason>, NetError> {
        if let Err(u) = self.rel.tick(&self.t, now)? {
            return Ok(Some(AbortReason::Unreachable { missing: u.missing, attempts: u.attempts }));
        }
        Ok((now >= self.deadline).then_some(AbortReason::Deadline { phase: self.phase }))
    }
}

/// Why a session terminated without a usable secret.
///
/// A session that cannot complete must *abort* — terminate within its
/// deadline carrying a machine-readable reason — never hang and never
/// silently diverge. The reason rides in [`SessionOutcome::abort`] on
/// every node and in [`SessionTrace::abort`] on the coordinator, so an
/// offline auditor (the soak harness) can explain each failed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The session deadline passed while in the named phase.
    Deadline {
        /// Protocol phase at the moment the deadline fired.
        phase: &'static str,
    },
    /// A peer never acknowledged a control frame within the attempt
    /// budget.
    Unreachable {
        /// Peers that never acknowledged.
        missing: Vec<u8>,
        /// Attempts spent.
        attempts: u32,
    },
    /// The coordinator announced a configuration digest that differs
    /// from the local one.
    ConfigMismatch {
        /// Digest announced by the coordinator.
        got: u64,
        /// Digest of the local configuration.
        want: u64,
    },
    /// The locally rebuilt plan disagrees with the announced `(m, l)`.
    PlanMismatch,
    /// A session parameter outgrew the `u16` field that carries it on
    /// the wire (x-pool size, plan dimensions, fountain index). The
    /// session aborts with the offending value named instead of
    /// announcing a silently truncated plan.
    PlanOverflow {
        /// Which quantity overflowed (`"n_packets"`, `"plan m"`,
        /// `"plan l"`, `"fountain index"`).
        what: &'static str,
        /// The value that did not fit.
        value: u64,
        /// The wire field's maximum.
        limit: u64,
    },
}

impl AbortReason {
    /// A short stable label for histograms (`"deadline:z fountain"`,
    /// `"unreachable"`, …). Carries the phase but not the peer list, so
    /// identical failure modes aggregate.
    pub fn kind(&self) -> String {
        match self {
            AbortReason::Deadline { phase } => format!("deadline:{phase}"),
            AbortReason::Unreachable { .. } => "unreachable".into(),
            AbortReason::ConfigMismatch { .. } => "config-mismatch".into(),
            AbortReason::PlanMismatch => "plan-mismatch".into(),
            AbortReason::PlanOverflow { what, .. } => format!("plan-overflow:{what}"),
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Deadline { phase } => {
                write!(f, "session deadline passed during {phase}")
            }
            AbortReason::Unreachable { missing, attempts } => {
                write!(f, "peers {missing:?} unreachable after {attempts} attempts")
            }
            AbortReason::ConfigMismatch { got, want } => {
                write!(f, "config digest mismatch: coordinator {got:#018x}, local {want:#018x}")
            }
            AbortReason::PlanMismatch => write!(f, "rebuilt plan disagrees with announcement"),
            AbortReason::PlanOverflow { what, value, limit } => {
                write!(f, "{what} = {value} exceeds the wire limit {limit}")
            }
        }
    }
}

/// What a terminated session yields on one node: either a completed
/// round (`abort == None`) or a clean structured abort.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// Session id.
    pub session: u64,
    /// This node's id.
    pub node: u8,
    /// Group-secret length in packets (0: no secret this round).
    pub l: usize,
    /// Number of y-packets.
    pub m: usize,
    /// x-pool size.
    pub n_packets: usize,
    /// The group secret (empty when `l == 0` or the session aborted).
    pub secret: Vec<Payload>,
    /// `Some` when the session terminated without completing. An
    /// aborted outcome never carries a secret: a node that derived one
    /// but missed the final barrier discards it (it cannot know whether
    /// the group converged).
    pub abort: Option<AbortReason>,
    /// Coordinator-side audit trail (None on terminals): everything an
    /// offline analyzer needs to rebuild the plan via [`derive_plan`] —
    /// e.g. to score the round against a ground-truth Eve model.
    pub trace: Option<SessionTrace>,
}

/// The coordinator's record of how a session's plan came to be (or why
/// it never did).
#[derive(Clone, Debug, Default)]
pub struct SessionTrace {
    /// The announced plan seed (0 when the session aborted before the
    /// plan was drawn — see `abort`).
    pub plan_seed: u64,
    /// Every node's reception-report bitmap, indexed by node id (empty
    /// bitmaps for reports never received).
    pub reports: Vec<Vec<u8>>,
    /// z-combos the fountain streamed before every terminal was done.
    pub z_sent: u32,
    /// Sends the transport's socket refused or dropped while this
    /// session ran (delta of [`crate::transport::Transport::send_errors`]
    /// between session start and end; 0 on the simulator). The counter
    /// is node-wide, so under concurrent sessions it attributes shared
    /// socket pressure to every session that lived through it.
    pub send_errors: u64,
    /// Why the coordinator aborted, when it did.
    pub abort: Option<AbortReason>,
}

impl SessionOutcome {
    /// A 32-byte key derived from the secret, or `None` when the round
    /// produced no secret (including every aborted round).
    pub fn key(&self) -> Option<[u8; 32]> {
        if self.secret.is_empty() || self.abort.is_some() {
            return None;
        }
        let bytes: Vec<u8> = self.secret.iter().flat_map(|p| p.iter().map(|s| s.value())).collect();
        Some(derive_key(&bytes, "thinair-net session key"))
    }

    /// Whether the session ran to completion on this node.
    pub fn completed(&self) -> bool {
        self.abort.is_none()
    }

    /// Builds the outcome of a cleanly aborted session.
    pub fn aborted(
        session: u64,
        node: u8,
        n_packets: usize,
        reason: AbortReason,
        trace: Option<SessionTrace>,
    ) -> Self {
        SessionOutcome {
            session,
            node,
            l: 0,
            m: 0,
            n_packets,
            secret: Vec::new(),
            abort: Some(reason),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SessionConfig {
        SessionConfig { n_nodes: 3, ..SessionConfig::default() }
    }

    #[test]
    fn digest_tracks_protocol_relevant_fields() {
        let a = cfg();
        let mut b = cfg();
        assert_eq!(a.digest(), b.digest());
        b.payload_len += 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = cfg();
        c.drop_prob = 0.11;
        assert_ne!(a.digest(), c.digest());
        let mut d = cfg();
        d.retransmit = Duration::from_millis(1); // timing is not protocol-relevant
        d.rto_cap = Duration::from_secs(9);
        d.max_attempts = 7;
        assert_eq!(a.digest(), d.digest());
        // The fountain budget bounds the shared z-erasure pattern, so it
        // IS protocol-relevant.
        let mut e = cfg();
        e.z_budget = 128;
        assert_ne!(a.digest(), e.digest());
    }

    #[test]
    fn erasure_injection_is_deterministic_and_rate_plausible() {
        let c = SessionConfig { drop_prob: 0.4, ..cfg() };
        let drops = (0..10_000).filter(|&id| inject_erasure(&c, 5, 1, DataKind::X, id)).count();
        assert!((3_400..4_600).contains(&drops), "drops {drops}");
        for id in 0..50 {
            assert_eq!(
                inject_erasure(&c, 5, 1, DataKind::X, id),
                inject_erasure(&c, 5, 1, DataKind::X, id),
            );
        }
        // Different receivers and kinds decorrelate.
        let same = (0..1000)
            .filter(|&id| {
                inject_erasure(&c, 5, 1, DataKind::X, id)
                    == inject_erasure(&c, 5, 2, DataKind::X, id)
            })
            .count();
        assert!(same < 900, "receivers too correlated: {same}");
    }

    #[test]
    fn zero_drop_prob_never_erases() {
        let c = SessionConfig { drop_prob: 0.0, ..cfg() };
        assert!((0..1000).all(|id| !inject_erasure(&c, 1, 0, DataKind::Z, id)));
    }

    #[test]
    fn known_sets_combine_reports_and_ownership() {
        let c = SessionConfig { n_nodes: 2, schedule: XSchedule::Explicit(vec![2, 1]), ..cfg() };
        // owners = [0, 1, 0]; node 1 received packet 0 only.
        let reports = vec![
            thinair_core::wire::bitmap_from_received(3, [1usize].into_iter()),
            thinair_core::wire::bitmap_from_received(3, [0usize].into_iter()),
        ];
        let known = known_sets(&c, &reports);
        assert_eq!(known[0], [0usize, 1, 2].into_iter().collect());
        assert_eq!(known[1], [0usize, 1].into_iter().collect());
    }
}
