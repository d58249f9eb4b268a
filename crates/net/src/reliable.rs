//! Per-peer ACK/retransmit bookkeeping for control frames.
//!
//! Mirrors the semantics of `thinair_core::transport::reliable_message`
//! — a control message is re-sent until every target has acknowledged
//! it, with a bounded attempt budget — transposed to asynchronous real
//! packet I/O: instead of the omniscient "who received this
//! transmission" answer the simulator gives, the sender learns about
//! delivery from [`NetPayload::Ack`] frames and re-sends on a timer.
//!
//! The receive side ([`Dedup`]) acknowledges *every* reliable frame,
//! including duplicates (the previous ACK may have been the lost
//! datagram), and tells the caller whether the frame is fresh.
//!
//! # Wraparound and replay floods
//!
//! Sequence numbers are 32-bit and allocated with `wrapping_add`, so a
//! long-lived session eventually wraps. Freshness therefore cannot be a
//! grow-forever set: [`ReplayWindow`] keeps, per sender, a fixed
//! [`DEDUP_WINDOW`]-wide bitmap anchored at the newest sequence seen
//! (RFC 6479-style). Anything newer advances the window; anything
//! inside it is deduplicated exactly; anything older than the window is
//! *treated as a duplicate* — under a replay flood the attacker can
//! therefore neither grow memory nor resurrect ancient frames. On the
//! send side, [`Reliable`] matches ACKs by exact sequence against its
//! (short-lived) in-flight list, which is wraparound-safe as long as
//! fewer than 2³² frames are in flight at once.
//!
//! # Admission
//!
//! A coordinator's [`crate::node::Node`] owns one [`FlowBudget`] and
//! hands it to the [`Reliable`] of every session it opens, so each of
//! their entries is on the wire and charged against it; terminals carry
//! none. A session sends its `Start` at once only when no open waits
//! ahead of it and the window has room; otherwise its id waits in the
//! budget's FIFO, arming no timer, and the node's receive loop starts
//! the head whenever a pass leaves room.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::frame::{Frame, NetPayload, FLAG_RELIABLE};
use crate::transport::{SharedTransport, Transport};

/// Width of the per-sender replay window, in sequence numbers.
pub const DEDUP_WINDOW: u32 = 1024;

/// Largest exponent the backoff schedule applies to the base RTO; the
/// cap clamps the result long before this, it only guards the shift.
const BACKOFF_MAX_SHIFT: u32 = 20;

/// Jitter band of the backoff schedule: each delay is drawn uniformly
/// from `base ± base/JITTER_DIV` (±25%), deterministically keyed by
/// `(seed, peer, seq, attempt)`.
pub const JITTER_DIV: u64 = 4;

/// Starting congestion window of a node's [`FlowBudget`], in unACKed
/// reliable frames. Sized for a node multiplexing hundreds of
/// concurrent sessions — the window is per *node*, not per session.
pub const FLOW_INITIAL_CWND: f64 = 256.0;
/// Multiplicative decrease never shrinks the window below this.
pub const FLOW_MIN_CWND: f64 = 32.0;
/// Additive increase never grows the window beyond this.
pub const FLOW_MAX_CWND: f64 = 8192.0;

/// The jittered exponential-backoff schedule, as a pure function so
/// property tests can pin it: the delay between transmission `attempt`
/// and `attempt + 1` of frame `seq` to `peer`.
///
/// The base is `rto · 2^(attempt-1)` clamped to `cap`; on top rides a
/// uniform ±`base`/[`JITTER_DIV`] jitter drawn from
/// `splitmix64(seed, peer, seq, attempt)` — deterministic, so chaos and
/// soak runs with a pinned seed reproduce the same schedule. With a 2×
/// growth and a ±25% band, successive delays are strictly monotone
/// until the base reaches the cap.
pub fn backoff_delay(
    rto: Duration,
    attempt: u32,
    cap: Duration,
    seed: u64,
    peer: u8,
    seq: u32,
) -> Duration {
    let attempt = attempt.max(1);
    let rto_us = (rto.as_micros() as u64).max(1);
    let cap_us = (cap.as_micros() as u64).max(rto_us);
    let shift = (attempt - 1).min(BACKOFF_MAX_SHIFT);
    let base = rto_us.checked_shl(shift).unwrap_or(u64::MAX).min(cap_us);
    let span = base / JITTER_DIV;
    let key = seed
        ^ (peer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (seq as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (attempt as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    let h = thinair_netsim::erasure::splitmix64(key);
    let jitter = if span == 0 { 0 } else { (h % (2 * span + 1)) as i64 - span as i64 };
    Duration::from_micros((base as i64).saturating_add(jitter).max(1) as u64)
}

/// Per-node AIMD budget over unACKed reliable frames, shared by every
/// session a coordinator's [`crate::node::Node`] opens (terminals carry
/// none: they never send `Start`). Under overload a saturated link would
/// otherwise compound: more sessions ⇒ more retransmits ⇒ more queueing
/// ⇒ more timeouts. The budget closes the loop — frames ACKed cleanly
/// grow the window additively, retransmit timeouts halve it (at most
/// once per RTO), and session opens wait their turn in a FIFO of
/// session ids ([`FlowBudget::open`]) while the window is full.
/// Mid-session frames and retransmits are never blocked: a round past
/// admission holds registry slots on every peer, so stalling its frames
/// behind new launches would be a congestion collapse where demand only
/// grows — they charge unconditionally (the window may over-commit) and
/// the pressure throttles launches instead, so running sessions always
/// drain the window back down.
#[derive(Debug)]
pub struct FlowBudget {
    cwnd: f64,
    in_flight: u64,
    last_cut: Option<Instant>,
    /// Session opens waiting for window room, in arrival order.
    queue: VecDeque<u64>,
}

/// The shared handle: one per coordinator node, handed to the
/// [`Reliable`] of every session it opens.
pub type SharedFlow = Rc<RefCell<FlowBudget>>;

impl Default for FlowBudget {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowBudget {
    /// A fresh budget at [`FLOW_INITIAL_CWND`].
    pub fn new() -> Self {
        FlowBudget { cwnd: FLOW_INITIAL_CWND, in_flight: 0, last_cut: None, queue: VecDeque::new() }
    }

    /// Current congestion window, in frames.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Reliable frames currently charged against the window.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// The integer window session opens are admitted against (`cwnd`
    /// truncated).
    pub fn window(&self) -> u64 {
        self.cwnd as u64
    }

    /// A fresh session open: `true` when it may send its `Start` now,
    /// which only an open with nothing queued ahead of it and room in
    /// the window may. Otherwise it queues at the back
    /// (`net.backoff.admit_deferred`) and arms no timer: the node's
    /// receive loop, where every window change happens, starts it once
    /// its [`FlowBudget::turn`] comes.
    pub fn open(&mut self, session: u64) -> bool {
        if self.queue.is_empty() && self.in_flight < self.window() {
            return true;
        }
        crate::telemetry::counter_add("net.backoff.admit_deferred", 1);
        self.queue.push_back(session);
        false
    }

    /// The queued open whose turn it is: the queue's head, while the
    /// window has room.
    pub fn turn(&self) -> Option<u64> {
        self.queue.front().copied().filter(|_| self.in_flight < self.window())
    }

    /// Takes `session`'s turn if it is its [`FlowBudget::turn`]: it leaves
    /// the queue, and its `Start`, charged next, may go.
    pub fn take_turn(&mut self, session: u64) -> bool {
        self.turn() == Some(session) && self.queue.pop_front().is_some()
    }

    /// Charges a frame against the window unconditionally — the
    /// in-flight count may exceed the window. Reliable frames of
    /// sessions already past admission use this: deferring them would
    /// starve in-progress rounds behind new launches (open sessions
    /// could never finish while `Start`s kept grabbing freed slots —
    /// a congestion collapse where demand only ever grows). The
    /// over-commit instead holds back the queued opens, throttling
    /// session *openings* until running work drains. A `Start` whose
    /// turn came is charged here too.
    pub fn force_charge(&mut self) {
        self.in_flight += 1;
        crate::telemetry::gauge_set("net.inflight", self.in_flight);
    }

    /// Returns one charged frame to the window (its ACK arrived or its
    /// entry was abandoned).
    pub fn release(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
        crate::telemetry::gauge_set("net.inflight", self.in_flight);
    }

    /// Additive increase: +1 frame per window's worth of clean ACKs.
    pub fn on_clean_ack(&mut self) {
        if self.cwnd < FLOW_MAX_CWND {
            self.cwnd = (self.cwnd + 1.0 / self.cwnd).min(FLOW_MAX_CWND);
            crate::telemetry::counter_add("net.cwnd.increase", 1);
            crate::telemetry::gauge_set("net.cwnd", self.cwnd as u64);
        }
    }

    /// Multiplicative decrease on a retransmit timeout, rate-limited to
    /// one cut per `holdoff` so a burst of simultaneous timeouts (one
    /// loss event) does not collapse the window to the floor.
    ///
    /// A timeout only counts as congestion while the window is at least
    /// half loaded: with the pipe mostly idle, a timeout can only mean
    /// random link loss, and halving a window nobody is filling would
    /// let a lossy-but-uncongested path grind a many-session node down
    /// to the floor.
    pub fn on_loss(&mut self, now: Instant, holdoff: Duration) {
        if self.in_flight * 2 < self.window() {
            return;
        }
        let due = match self.last_cut {
            None => true,
            Some(t) => now.duration_since(t) >= holdoff,
        };
        if due {
            self.last_cut = Some(now);
            self.cwnd = (self.cwnd * 0.5).max(FLOW_MIN_CWND);
            crate::telemetry::counter_add("net.cwnd.cut", 1);
            crate::telemetry::gauge_set("net.cwnd", self.cwnd as u64);
        }
    }
}

/// RFC 6298-style smoothed RTT state for one peer.
#[derive(Clone, Copy, Debug, Default)]
struct PeerRtt {
    srtt_us: u64,
    rttvar_us: u64,
    init: bool,
}

impl PeerRtt {
    fn sample(&mut self, rtt_us: u64) {
        if !self.init {
            self.init = true;
            self.srtt_us = rtt_us;
            self.rttvar_us = rtt_us / 2;
        } else {
            let err = self.srtt_us.abs_diff(rtt_us);
            self.rttvar_us = (3 * self.rttvar_us + err) / 4;
            self.srtt_us = (7 * self.srtt_us + rtt_us) / 8;
        }
    }

    fn rto_us(&self) -> u64 {
        self.srtt_us + 4 * self.rttvar_us.max(1)
    }
}

/// Retransmission policy of one [`Reliable`] instance.
#[derive(Clone, Copy, Debug)]
pub struct RetransmitPolicy {
    /// RTO before any RTT sample exists; also anchors the RTO floor
    /// (`initial_rto / 4`).
    pub initial_rto: Duration,
    /// Ceiling of the adaptive, exponentially backed-off delay.
    pub cap: Duration,
    /// Attempt budget per reliable frame.
    pub max_attempts: u32,
    /// Keys the deterministic jitter (see [`backoff_delay`]).
    pub seed: u64,
}

/// One in-flight reliable frame.
#[derive(Debug)]
struct Entry {
    seq: u32,
    frame: Frame,
    pending: BTreeSet<u8>,
    due: Instant,
    /// Total transmissions — the [`RetransmitPolicy::max_attempts`]
    /// budget and the Karn first-attempt test count these.
    attempts: u32,
    /// Consecutive timeouts since the last forward progress — the
    /// backoff exponent. Unlike `attempts` it *resets* whenever a new
    /// peer acknowledges (RFC 6298 §5.3 re-arms the timer on an ACK of
    /// new data): partial progress proves the path works, so the delay
    /// must not keep compounding toward the stragglers.
    level: u32,
    /// When the first copy went out — the anchor for the ACK-RTT
    /// histogram (`net.ack.rtt_us`).
    first_sent: Instant,
}

/// Sender-side reliability state for one session.
pub struct Reliable {
    next_seq: u32,
    entries: Vec<Entry>,
    initial_rto: Duration,
    cap: Duration,
    max_attempts: u32,
    seed: u64,
    /// Per-peer smoothed RTT state (peers are dense u8 node ids).
    peers: BTreeMap<u8, PeerRtt>,
    /// The node-wide budget every entry is charged to, if any.
    flow: Option<SharedFlow>,
}

/// The retransmission budget for some peer ran out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unreachable {
    /// Peers that never acknowledged.
    pub missing: Vec<u8>,
    /// Attempts spent on the frame.
    pub attempts: u32,
}

impl Reliable {
    /// Creates the bookkeeping with the given initial retransmit
    /// timeout and per-frame attempt budget (backoff cap 32× the
    /// initial RTO, jitter seed 0).
    pub fn new(initial_rto: Duration, max_attempts: u32) -> Self {
        Self::with_first_seq(initial_rto, max_attempts, 1)
    }

    /// Like [`Reliable::new`] but starting the sequence counter at
    /// `first_seq` — lets tests pin wraparound behavior without sending
    /// 2³² frames.
    pub fn with_first_seq(initial_rto: Duration, max_attempts: u32, first_seq: u32) -> Self {
        let policy = RetransmitPolicy {
            initial_rto,
            cap: initial_rto.saturating_mul(32),
            max_attempts,
            seed: 0,
        };
        Self::with_policy_first_seq(policy, first_seq)
    }

    /// Full-policy constructor (the role state machines use this, with
    /// the session seed keying the jitter).
    pub fn with_policy(policy: RetransmitPolicy) -> Self {
        Self::with_policy_first_seq(policy, 1)
    }

    fn with_policy_first_seq(policy: RetransmitPolicy, first_seq: u32) -> Self {
        Reliable {
            next_seq: first_seq,
            entries: Vec::new(),
            initial_rto: policy.initial_rto,
            cap: policy.cap.max(policy.initial_rto),
            max_attempts: policy.max_attempts,
            seed: policy.seed,
            peers: BTreeMap::new(),
            flow: None,
        }
    }

    /// Allocates the next sequence number (shared by unreliable frames
    /// so that per-sender seqs stay unique within a session). Skips 0
    /// on wraparound: seq 0 is reserved for ACK frames.
    pub fn next_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        if self.next_seq == 0 {
            self.next_seq = 1;
        }
        s
    }

    /// The adaptive RTO toward `peer`: smoothed RTT + 4·RTTVAR, clamped
    /// between `initial_rto / 4` and the backoff cap.
    fn peer_rto_us(&self, peer: u8) -> u64 {
        let init = (self.initial_rto.as_micros() as u64).max(1);
        let clamp = |rto: u64| rto.clamp((init / 4).max(1), (self.cap.as_micros() as u64).max(1));
        match self.peers.get(&peer) {
            Some(p) => clamp(p.rto_us()),
            // No sample for this peer yet: seed from the slowest peer
            // that *has* been sampled — peers share the medium, so a
            // measured path beats the configured cold-start guess (the
            // same reasoning as TCP's per-destination RTT cache).
            None => self.peers.values().map(|p| clamp(p.rto_us())).max().unwrap_or(init),
        }
    }

    /// The RTO toward the slowest of `peers` (don't spam the
    /// straggler), or the initial RTO when there are none: what an entry
    /// still pending at `peers` waits, and what the coordinator's
    /// fountain top-ups are paced by.
    pub(crate) fn rto(&self, peers: impl IntoIterator<Item = u8>) -> Duration {
        let slowest = peers.into_iter().map(|p| self.peer_rto_us(p)).max();
        let rto_us = slowest.unwrap_or_else(|| (self.initial_rto.as_micros() as u64).max(1));
        Duration::from_micros(rto_us)
    }

    /// The delay until the next transmission of an entry at backoff
    /// `level` (1 = freshly sent or just re-armed by partial progress),
    /// from its pending peers' [`Reliable::rto`]; the jitter is keyed by
    /// the lowest pending peer id.
    fn schedule(&self, pending: &BTreeSet<u8>, level: u32, seq: u32) -> Duration {
        let peer = pending.iter().next().copied().unwrap_or(0);
        let rto = self.rto(pending.iter().copied());
        let d = backoff_delay(rto, level, self.cap, self.seed, peer, seq);
        if level > 1 {
            crate::telemetry::counter_add("net.backoff.scheduled", 1);
            crate::telemetry::observe("net.backoff.delay_us", d.as_micros() as u64);
        }
        d
    }

    /// Charges every entry from now on to `flow`, a coordinator node's
    /// window; without one, nothing is charged.
    pub(crate) fn charge_to(&mut self, flow: SharedFlow) {
        self.flow = Some(flow);
    }

    /// Sends `payload` reliably to `targets`, returning the assigned
    /// sequence number. The frame charges the [`FlowBudget`], if any,
    /// unconditionally: a session's `Start` waits for its turn
    /// ([`FlowBudget::open`]) before it gets here, and a round past
    /// admission must never stall behind new launches.
    pub fn send<T: Transport>(
        &mut self,
        t: &SharedTransport<T>,
        session: u64,
        payload: NetPayload,
        targets: &[u8],
    ) -> io::Result<u32> {
        let seq = self.next_seq();
        let frame = Frame { flags: FLAG_RELIABLE, sender: t.local_node(), session, seq, payload };
        let first_sent = crate::rt::now();
        for &to in targets {
            t.send_to(to, &frame)?;
        }
        if let Some(f) = &self.flow {
            f.borrow_mut().force_charge();
        }
        let pending: BTreeSet<u8> = targets.iter().copied().collect();
        let due = first_sent + self.schedule(&pending, 1, seq);
        self.entries.push(Entry { seq, frame, pending, due, attempts: 1, level: 1, first_sent });
        Ok(seq)
    }

    /// Records an ACK from `from` for `seq`.
    pub fn on_ack(&mut self, from: u8, seq: u32) {
        let now = crate::rt::now();
        let Some(i) = self.entries.iter().position(|e| e.seq == seq) else {
            return;
        };
        if !self.entries[i].pending.remove(&from) {
            // Duplicate ACK: no new information, no re-arm.
            return;
        }
        if self.entries[i].attempts == 1 {
            // Karn's algorithm: only a frame ACKed on its first
            // attempt yields an RTT sample — a retransmitted frame's
            // ACK is ambiguous (it may answer any copy) and would
            // poison the estimate with the retransmit delay itself.
            let rtt_us =
                now.saturating_duration_since(self.entries[i].first_sent).as_micros() as u64;
            let p = self.peers.entry(from).or_default();
            p.sample(rtt_us);
            crate::telemetry::observe("net.ack.rtt_us", rtt_us);
            crate::telemetry::observe("net.backoff.rto_us", p.rto_us());
        }
        if !self.entries[i].pending.is_empty() {
            // Partial progress: re-arm the timer at the base RTO
            // (RFC 6298 §5.3) — the backoff exponent must not keep a
            // delay earned by a lost ACK compounding against the peers
            // still pending.
            let delay = self.schedule(&self.entries[i].pending, 1, seq);
            let e = &mut self.entries[i];
            e.level = 1;
            e.due = now + delay;
            return;
        }
        // Fully acknowledged: settle telemetry and the flow budget.
        let e = self.entries.swap_remove(i);
        crate::telemetry::observe("net.reliable.attempts", e.attempts as u64);
        if let Some(f) = &self.flow {
            let mut f = f.borrow_mut();
            f.release();
            if e.attempts == 1 {
                f.on_clean_ack();
            }
        }
    }

    /// Pushes `seq`'s next (re)transmission to at least `until` without
    /// spending an attempt — paced re-admission when a serve daemon
    /// answers `Start` with [`NetPayload::Busy`].
    pub fn defer(&mut self, seq: u32, until: Instant) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            if e.due < until {
                e.due = until;
            }
        }
    }

    /// Whether `seq` has been acknowledged by every target.
    pub fn acked(&self, seq: u32) -> bool {
        !self.entries.iter().any(|e| e.seq == seq)
    }

    /// Whether every reliable frame has been fully acknowledged.
    pub fn idle(&self) -> bool {
        self.entries.is_empty()
    }

    /// The earliest retransmission due — the reliable layer's share of
    /// a state machine's next wakeup.
    pub fn next_due(&self) -> Option<Instant> {
        self.entries.iter().map(|e| e.due).min()
    }

    /// Re-sends every due entry to its still-pending peers. A timeout
    /// halves the node's window, if any (which gates session opens).
    /// Returns an [`Unreachable`] error once an entry exhausts the
    /// attempt budget.
    pub fn tick<T: Transport>(
        &mut self,
        t: &SharedTransport<T>,
        now: Instant,
    ) -> io::Result<Result<(), Unreachable>> {
        for i in 0..self.entries.len() {
            if now < self.entries[i].due {
                continue;
            }
            if self.entries[i].attempts >= self.max_attempts {
                let e = &self.entries[i];
                return Ok(Err(Unreachable {
                    missing: e.pending.iter().copied().collect(),
                    attempts: e.attempts,
                }));
            }
            // A retransmit timeout is the loss signal: multiplicative
            // decrease, rate-limited to one cut per entry RTO. The cut
            // gates *admission* of session opens only — the retransmit
            // itself always proceeds (its exponential backoff is the
            // pacing): blocking retransmits on the window would
            // livelock, since ACKing the frames already charged is the
            // only way in-flight load drains.
            if let Some(f) = &self.flow {
                let rto = self.rto(self.entries[i].pending.iter().copied());
                f.borrow_mut().on_loss(now, rto);
            }
            let e = &mut self.entries[i];
            e.attempts += 1;
            e.level += 1;
            crate::telemetry::counter_add("net.retransmit.frames", 1);
            crate::telemetry::trace_retransmit(
                e.frame.session,
                t.local_node(),
                e.seq as u64,
                e.attempts,
            );
            for &to in e.pending.iter() {
                t.send_to(to, &e.frame)?;
            }
            let (level, seq) = (self.entries[i].level, self.entries[i].seq);
            let delay = self.schedule(&self.entries[i].pending, level, seq);
            self.entries[i].due = now + delay;
        }
        Ok(Ok(()))
    }
}

impl Drop for Reliable {
    /// Releases any flow-budget slots still held by unACKed entries, so
    /// an aborted session cannot leak window capacity node-wide.
    fn drop(&mut self) {
        if let Some(flow) = &self.flow {
            let mut f = flow.borrow_mut();
            for _ in &self.entries {
                f.release();
            }
        }
    }
}

/// Wraparound-safe anti-replay window for one sender's sequence stream.
///
/// A fixed [`DEDUP_WINDOW`]-bit bitmap anchored at the newest sequence
/// admitted. [`ReplayWindow::admit`] returns `true` exactly once per
/// fresh in-window sequence; sequences that have fallen behind the
/// window are reported as duplicates (the conservative choice: a replay
/// flood must never re-admit ancient frames). Memory is O(window),
/// independent of how many frames — or forged frames — arrive.
#[derive(Clone, Debug)]
pub struct ReplayWindow {
    /// Newest sequence admitted (the window anchor).
    horizon: u32,
    /// Whether any sequence has been admitted yet.
    started: bool,
    /// One bit per sequence in `(horizon - DEDUP_WINDOW, horizon]`,
    /// indexed by `seq % DEDUP_WINDOW`.
    bits: Vec<u64>,
}

impl Default for ReplayWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplayWindow {
    /// An empty window.
    pub fn new() -> Self {
        ReplayWindow { horizon: 0, started: false, bits: vec![0; (DEDUP_WINDOW as usize) / 64] }
    }

    fn bit(&self, seq: u32) -> bool {
        let slot = (seq % DEDUP_WINDOW) as usize;
        self.bits[slot / 64] >> (slot % 64) & 1 != 0
    }

    fn set(&mut self, seq: u32) {
        let slot = (seq % DEDUP_WINDOW) as usize;
        self.bits[slot / 64] |= 1 << (slot % 64);
    }

    fn clear(&mut self, seq: u32) {
        let slot = (seq % DEDUP_WINDOW) as usize;
        self.bits[slot / 64] &= !(1 << (slot % 64));
    }

    /// Records `seq`; returns `true` when it is fresh (first sighting,
    /// not older than the window).
    pub fn admit(&mut self, seq: u32) -> bool {
        if !self.started {
            self.started = true;
            self.horizon = seq;
            self.set(seq);
            return true;
        }
        let ahead = seq.wrapping_sub(self.horizon);
        if ahead != 0 && ahead < (1 << 31) {
            // Newer than anything seen: slide the window forward,
            // clearing the slots the anchor moves past.
            if ahead >= DEDUP_WINDOW {
                self.bits.fill(0);
            } else {
                for step in 1..=ahead {
                    self.clear(self.horizon.wrapping_add(step));
                }
            }
            self.horizon = seq;
            self.set(seq);
            return true;
        }
        let behind = self.horizon.wrapping_sub(seq);
        if behind >= DEDUP_WINDOW {
            // Fell off the window: conservatively a duplicate.
            return false;
        }
        if self.bit(seq) {
            false
        } else {
            self.set(seq);
            true
        }
    }
}

/// Receive-side duplicate suppression + acknowledgement.
pub struct Dedup {
    seen: Vec<ReplayWindow>,
}

impl Dedup {
    /// State for `n` possible senders.
    pub fn new(n: usize) -> Self {
        Dedup { seen: (0..n).map(|_| ReplayWindow::new()).collect() }
    }

    /// Handles the reliability duties for a received frame: sends the
    /// ACK when the frame is reliable, and returns `true` when the frame
    /// has not been seen before (i.e. the caller should process it).
    pub fn admit<T: Transport>(
        &mut self,
        t: &SharedTransport<T>,
        frame: &Frame,
    ) -> io::Result<bool> {
        if !frame.reliable() {
            return Ok(true);
        }
        // A session may span fewer nodes than the transport roster; a
        // reliable frame from a node outside this session is ignored
        // (never a panic — the sender field rides the wire).
        if (frame.sender as usize) >= self.seen.len() {
            return Ok(false);
        }
        t.send_to(frame.sender, &ack_of(t.local_node(), frame))?;
        Ok(self.seen[frame.sender as usize].admit(frame.seq))
    }
}

/// The `Ack` node `me` answers reliable `frame` with.
fn ack_of(me: u8, frame: &Frame) -> Frame {
    Frame {
        flags: 0,
        sender: me,
        session: frame.session,
        seq: 0,
        payload: NetPayload::Ack { seq: frame.seq },
    }
}

/// How many terminated session ids a [`TimeWait`] window remembers.
/// `Start` duplicates arrive within a retransmit window of the
/// original, so a shallow-but-wide FIFO is plenty; ids falling off the
/// window behave like unknown sessions again, keeping memory O(window).
pub const SPENT_WINDOW: usize = 8192;

/// Recently terminated session ids in a bounded FIFO window: a receive
/// loop's TIME_WAIT state, after TCP's (RFC 9293 §3.3.2).
///
/// Every id in the window is *spent*: a duplicated or chaos-delayed
/// `Start` arriving after its session finished must not re-admit a
/// ghost session. An id whose terminal **completed** also keeps a
/// re-ack entry until that session's deadline: a reliable frame its
/// coordinator retransmits after the terminal returned — a `Fin` whose
/// ack was lost — is answered with the `Ack` by the receive loop itself,
/// with no task and no admission slot, so the coordinator's fin barrier
/// always closes. Aborted and evicted ids stay spent but unanswered: an
/// aborted terminal holds no key, so acking on its behalf would let the
/// coordinator believe the group converged.
///
/// Each transport's demux (`net::demux`) owns one window, whether a
/// [`crate::node::Node`] or a [`crate::serve::Server`] runs its loop.
#[derive(Debug, Default)]
pub struct TimeWait {
    /// Spent ids; `Some` while the id re-acks.
    ids: BTreeMap<u64, Option<ReAck>>,
    /// Insertion order, for FIFO eviction at [`SPENT_WINDOW`].
    order: VecDeque<u64>,
}

/// Who a completed session re-acks for, and until when.
#[derive(Clone, Copy, Debug)]
struct ReAck {
    coordinator: u8,
    until: Instant,
}

impl TimeWait {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `session` as spent (aborted, evicted or failed): no
    /// re-admission while it stays inside the window, and no re-acks.
    pub fn mark_spent(&mut self, session: u64) {
        self.insert(session, None);
    }

    /// Records `session` as completed: spent, and re-acking reliable
    /// frames from `coordinator` until `until` (the session deadline).
    pub fn complete(&mut self, session: u64, coordinator: u8, until: Instant) {
        self.insert(session, Some(ReAck { coordinator, until }));
    }

    fn insert(&mut self, session: u64, reack: Option<ReAck>) {
        if self.ids.insert(session, reack).is_none() {
            self.order.push_back(session);
            if self.order.len() > SPENT_WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.ids.remove(&old);
                }
            }
        }
    }

    /// Whether `session` is spent (inside the window).
    pub fn contains(&self, session: u64) -> bool {
        self.ids.contains_key(&session)
    }

    /// Spent ids, oldest first.
    #[cfg(test)]
    pub(crate) fn spent(&self) -> impl Iterator<Item = u64> + '_ {
        self.order.iter().copied()
    }

    /// The `Ack` node `me` answers `frame` with, when it is a late
    /// reliable frame from the coordinator of a completed session whose
    /// deadline has not passed. `None` otherwise — the frame is an
    /// orphan. A `Start` is never answered here: a replay of a spent id
    /// stays spent.
    pub fn reack(&self, me: u8, frame: &Frame, now: Instant) -> Option<Frame> {
        let reack = (*self.ids.get(&frame.session)?)?;
        let answers = frame.reliable()
            && frame.sender == reack.coordinator
            && now < reack.until
            && !matches!(frame.payload, NetPayload::Start { .. });
        answers.then(|| ack_of(me, frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt;
    use crate::transport::{SharedTransport, SimNet};
    use thinair_netsim::IidMedium;

    #[test]
    fn retransmits_until_acked() {
        // Lossless 2-node sim; ack manually.
        let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 2);
        let t0 = SharedTransport::new(net.transport(0));
        let t1 = SharedTransport::new(net.transport(1));
        let mut rel = Reliable::new(Duration::from_millis(1), 10);
        let seq = rel.send(&t0, 9, NetPayload::Done, &[1]).unwrap();
        assert!(!rel.acked(seq));
        rt::block_on(async {
            // Let a couple of retransmit ticks fire.
            rt::sleep(Duration::from_millis(3)).await;
            rel.tick(&t0, Instant::now()).unwrap().unwrap();
            let mut dedup = Dedup::new(2);
            // First copy is fresh, the retransmit is a duplicate.
            let f1 = t1.recv_batch(1).await.unwrap().remove(0);
            assert!(dedup.admit(&t1, &f1).unwrap());
            let f2 = t1.recv_batch(1).await.unwrap().remove(0);
            assert_eq!(f1.seq, f2.seq);
            assert!(!dedup.admit(&t1, &f2).unwrap());
            // Route the (two) acks back.
            let a = t0.recv_batch(1).await.unwrap().remove(0);
            if let NetPayload::Ack { seq: s } = a.payload {
                rel.on_ack(a.sender, s);
            }
            assert!(rel.acked(seq));
            assert!(rel.idle());
        });
    }

    #[test]
    fn attempt_budget_reports_unreachable() {
        let net = SimNet::new(IidMedium::symmetric(3, 1.0, 2), 2);
        let t0 = SharedTransport::new(net.transport(0));
        let mut rel = Reliable::new(Duration::from_micros(10), 3);
        rel.send(&t0, 1, NetPayload::Fin, &[1]).unwrap();
        let mut last = Ok(());
        for _ in 0..10 {
            std::thread::sleep(Duration::from_micros(50));
            last = rel.tick(&t0, Instant::now()).unwrap();
            if last.is_err() {
                break;
            }
        }
        let err = last.unwrap_err();
        assert_eq!(err.missing, vec![1]);
        assert!(err.attempts >= 3);
    }
}
