//! The coordinator ("Alice") state machine.
//!
//! Drives one group session over any [`Transport`]:
//!
//! 1. **Start barrier** — reliably delivers `Start{digest}` to every
//!    terminal, so sockets are live and configurations agree before any
//!    data-plane packet is spent. The `Start` goes out once no open
//!    waits ahead of it in the node's flow budget and the window has
//!    room ([`crate::reliable::FlowBudget::open`]); until then the
//!    machine waits in the budget's FIFO, and the node's receive loop
//!    steps it when its turn comes.
//! 2. **Phase 1** — broadcasts its share of x-packets (plain,
//!    unacknowledged: erasures are the point), waits [`SessionConfig::
//!    x_settle`], then reliably broadcasts its reception report and
//!    collects everyone else's.
//! 3. **Plan** — draws a seed, builds the construction with
//!    `thinair_core::construct::build_plan`, and announces
//!    `PlanAnnounce{seed, m, l}` — the terminals rebuild the identical
//!    plan from the shared reports (see [`crate::session`]).
//! 4. **Phase 2** — fountain-codes the `M − L` z-packets: random
//!    combinations stream until every terminal has signalled `Done`
//!    (rank complete), which absorbs any data-plane loss without
//!    per-packet ACKs. A first burst covers the expected loss; each
//!    top-up after it waits the reliable layer's RTO toward the slowest
//!    terminal still short, doubling per top-up up to
//!    [`SessionConfig::retransmit`]. The whole fountain stays within
//!    [`SessionConfig::z_budget`] combos.
//! 5. **Fin** — reliably tells every terminal the session is complete.
//!
//! The machine never waits: the node's receive loop (`crate::demux`)
//! steps it with each frame of its session and at each of its wakes.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rand::Rng;
use thinair_core::wire::Message;
use thinair_core::ProtocolError;
use thinair_gf::{kernel, PayloadPlane};

use crate::demux::Machine;
use crate::frame::{Frame, NetPayload};
use crate::reliable::SharedFlow;
use crate::session::{derive_plan, AbortReason, Core, Ended, NetError, SessionConfig, Stepped};
use crate::session::{SessionOutcome, SessionTrace};
use crate::transport::{SharedTransport, Transport};

/// The first phase, which a session waiting for admission is already in.
const START_BARRIER: &str = "start barrier";

/// A session's phase; `Queued` waits in the flow budget's FIFO. In the
/// fountain, `round` is what goes out at `next_combo`: 0 the first
/// burst, `k` the k-th top-up.
enum Phase {
    Queued,
    StartBarrier { start_seq: u32 },
    XSettle { until: Instant },
    AwaitReports,
    Fountain { next_combo: Instant, round: u32 },
    FinBarrier { fin_seq: u32 },
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Queued | Phase::StartBarrier { .. } => START_BARRIER,
            Phase::XSettle { .. } => "x settle",
            Phase::AwaitReports => "report collection",
            Phase::Fountain { .. } => "z fountain",
            Phase::FinBarrier { .. } => "fin barrier",
        }
    }
}

/// One session on the coordinator.
///
/// A session that cannot complete — deadline passed, a peer's attempt
/// budget exhausted — terminates with a *clean abort*: an `Ok` outcome
/// whose [`SessionOutcome::abort`] names the structured reason, with
/// the partial [`SessionTrace`] attached for offline audit. `Err` is
/// reserved for infrastructure failures (socket errors, construction
/// bugs).
pub(crate) struct Coordinator<T> {
    core: Core<T>,
    phase: Phase,
    /// The node's window, which every reliable frame of the session
    /// charges and whose FIFO orders the `Start`s.
    flow: SharedFlow,
    /// Terminals that signalled `Done`.
    done: BTreeSet<u8>,
    /// The z-packets the fountain combines, once the plan exists.
    z: PayloadPlane,
    z_sent: u32,
    /// Set with the plan; handed back once the fin barrier closes.
    outcome: Option<SessionOutcome>,
    /// Socket send failures are counted node-wide by the transport; the
    /// session's trace carries the delta over its own lifetime.
    send_errors_at_start: u64,
}

impl<T: Transport> Coordinator<T> {
    /// Sets up one session of a runnable `cfg`
    /// ([`crate::session::unrunnable`]), its deadline running from now,
    /// charging the node's `flow`: it sends `Start` at once if it may
    /// ([`crate::reliable::FlowBudget::open`]), else it queues. `seed`
    /// feeds all local randomness (x payloads, the plan seed, fountain
    /// coefficients).
    pub(crate) fn new(
        t: SharedTransport<T>,
        flow: SharedFlow,
        session: u64,
        cfg: SessionConfig,
        seed: u64,
    ) -> Result<Self, NetError> {
        let (me, send_errors_at_start) = (cfg.coordinator, t.send_errors());
        let mut core = Core::new(t, session, cfg, seed, me, "coordinator", START_BARRIER);
        core.rel.charge_to(flow.clone());
        let mut coordinator = Coordinator {
            core,
            phase: Phase::Queued,
            flow,
            done: BTreeSet::new(),
            z: PayloadPlane::default(),
            z_sent: 0,
            outcome: None,
            send_errors_at_start,
        };
        if coordinator.flow.borrow_mut().open(session) {
            coordinator.start()?;
        }
        Ok(coordinator)
    }

    /// Sends `Start` to every terminal, once the session is admitted.
    fn start(&mut self) -> Result<(), NetError> {
        let c = &mut self.core;
        let start = NetPayload::Start { digest: c.cfg.digest() };
        let start_seq = c.rel.send(&c.t, c.session, start, &c.peers)?;
        self.phase = Phase::StartBarrier { start_seq };
        Ok(())
    }

    /// Settles the trace's fountain length and send errors.
    fn settle_trace(&self, trace: &mut SessionTrace) {
        trace.z_sent = self.z_sent;
        trace.send_errors = self.core.t.send_errors().saturating_sub(self.send_errors_at_start);
    }

    /// The clean-abort outcome: the trace carries whatever was collected
    /// (the plan's, or the reports so far with empty bitmaps for the
    /// missing ones) so the auditor can see how far the session got.
    fn abort(&mut self, reason: AbortReason) -> SessionOutcome {
        let mut trace = self.outcome.take().and_then(|o| o.trace).unwrap_or_else(|| {
            let reports = self.core.reports.iter().map(|r| r.clone().unwrap_or_default());
            SessionTrace { reports: reports.collect(), ..SessionTrace::default() }
        });
        self.settle_trace(&mut trace);
        trace.abort = Some(reason.clone());
        self.core.aborted(reason, Some(trace))
    }

    fn finish(&self, mut out: SessionOutcome) -> SessionOutcome {
        if let Some(trace) = out.trace.as_mut() {
            self.settle_trace(trace);
        }
        crate::telemetry::trace_end(self.core.session, self.core.me, true, out.l as u32);
        out
    }

    /// Ends the session for `reason` — except past the fin barrier's
    /// entry, where every terminal has signalled `Done`: the group
    /// provably converged, so a fin-ACK that never arrives (deadline or
    /// attempt budget) completes the session instead of discarding it,
    /// mirroring the terminal's post-Fin guard. (A terminal that never
    /// *received* Fin still aborts on its side: it cannot know the group
    /// converged. That asymmetry is the Two Generals residue documented
    /// in docs/ARCHITECTURE.md.)
    fn end(&mut self, reason: AbortReason) -> SessionOutcome {
        match self.outcome.take_if(|_| matches!(self.phase, Phase::FinBarrier { .. })) {
            Some(out) => self.finish(out),
            None => self.abort(reason),
        }
    }

    fn enter(&mut self, phase: Phase) {
        self.phase = phase;
        self.core.enter("coord", self.phase.name());
    }

    fn on_frame(&mut self, frame: Frame, now: Instant) -> Result<(), NetError> {
        let Some((frame, _)) = self.core.receive(frame)? else { return Ok(()) };
        match frame.payload {
            NetPayload::Done if frame.sender != self.core.me => {
                self.done.insert(frame.sender);
            }
            // Explicit backpressure from an over-capacity serve daemon:
            // pause the start barrier for the suggested delay (bounded —
            // the field rides the wire) instead of retransmitting blind.
            // Paced re-admission, not an abort: the deadline still bounds
            // the session.
            NetPayload::Busy { retry_after_ms } => {
                if let Phase::StartBarrier { start_seq } = self.phase {
                    let wait = Duration::from_millis(retry_after_ms.min(10_000) as u64);
                    self.core.rel.defer(start_seq, now + wait);
                    crate::telemetry::counter_add("net.busy.deferred", 1);
                }
            }
            // Terminals never send plans, z-packets, Start or Fin.
            _ => {}
        }
        Ok(())
    }

    /// Advances the phase as far as `now` and the frames so far allow;
    /// `Some` once the session has ended.
    fn progress(&mut self, now: Instant) -> Stepped {
        match self.phase {
            Phase::Queued if self.flow.borrow_mut().take_turn(self.core.session) => self.start()?,
            Phase::StartBarrier { start_seq } if self.core.rel.acked(start_seq) => {
                self.core.broadcast_own()?;
                self.enter(Phase::XSettle { until: now + self.core.cfg.x_settle });
            }
            Phase::XSettle { until } if now >= until => {
                self.core.send_report()?;
                self.enter(Phase::AwaitReports);
            }
            Phase::AwaitReports => {
                if let Some(reports) = self.core.reports.iter().cloned().collect() {
                    return self.announce(reports, now);
                }
            }
            Phase::Fountain { .. } if self.core.peers.iter().all(|p| self.done.contains(p)) => {
                let c = &mut self.core;
                let fin_seq = c.rel.send(&c.t, c.session, NetPayload::Fin, &c.peers)?;
                self.enter(Phase::FinBarrier { fin_seq });
            }
            Phase::Fountain { next_combo, round } if now >= next_combo && !self.z.is_empty() => {
                let budget = self.core.cfg.z_budget;
                if self.z_sent >= budget {
                    let peers = self.core.peers.iter().copied();
                    let missing = peers.filter(|p| !self.done.contains(p)).collect();
                    let reason = AbortReason::Unreachable { missing, attempts: self.z_sent };
                    return Ok(Some(self.abort(reason)));
                }
                // The first burst covers the worst-case missing-row count
                // (as far as the budget allows) and leaves in one batch;
                // each top-up after it is one combo.
                let burst = if round == 0 { (self.z.rows() + 3) as u32 } else { 1 };
                let end = self.z_sent + burst.min(budget - self.z_sent);
                // Combo indices ride the wire as u16; a fountain that
                // outlives the index space (only reachable with z_budget
                // > 65536) sends the combos below it, then aborts cleanly
                // instead of wrapping — a wrapped index would collide
                // erasure-injection decisions.
                let indices = (self.z_sent..end).map_while(|i| u16::try_from(i).ok());
                let combos: Vec<Frame> = indices.map(|index| self.combo(index)).collect();
                self.core.t.broadcast_batch(&combos)?;
                self.z_sent += combos.len() as u32;
                if self.z_sent < end {
                    let (value, limit) = (self.z_sent as u64, u16::MAX as u64);
                    let what = "fountain index";
                    return Ok(Some(self.abort(AbortReason::PlanOverflow { what, value, limit })));
                }
                let next_combo = now + self.top_up_delay(round);
                self.phase = Phase::Fountain { next_combo, round: round + 1 };
            }
            Phase::FinBarrier { fin_seq } if self.core.rel.acked(fin_seq) => {
                if let Some(out) = self.outcome.take() {
                    // The terminal span of a completed session.
                    self.core.close_span("coord");
                    return Ok(Some(self.finish(out)));
                }
            }
            _ => {}
        }
        Ok(None)
    }

    /// Every report is in: draws the plan seed, builds the plan,
    /// announces it, derives the secret and opens the fountain.
    fn announce(&mut self, reports: Vec<Vec<u8>>, now: Instant) -> Stepped {
        let c = &mut self.core;
        let plan_seed: u64 = c.rng.gen();
        let plan = derive_plan(&c.cfg, &reports, plan_seed)?;
        let (m, l) = (plan.m(), plan.l);
        // The announcement carries (m, l) as u16; a plan too large for
        // the wire is a structured abort, never a truncated announcement
        // every terminal would mis-rebuild against. Label and value must
        // describe the same dimension (m takes precedence when both
        // overflow).
        let (Ok(m16), Ok(l16)) = (u16::try_from(m), u16::try_from(l)) else {
            let (what, value) = if m > u16::MAX as usize { ("plan m", m) } else { ("plan l", l) };
            let (value, limit) = (value as u64, u16::MAX as u64);
            return Ok(Some(self.abort(AbortReason::PlanOverflow { what, value, limit })));
        };
        let msg = Message::PlanAnnounce { seed: plan_seed, m: m16, l: l16 };
        c.rel.send(&c.t, c.session, NetPayload::Proto(msg), &c.peers)?;
        // The coordinator decodes every row directly.
        let secret = if l > 0 {
            let x = |j| c.store.get(&j).map(Vec::as_slice);
            let y =
                plan.y_plane(c.cfg.payload_len, x).map_err(|_| ProtocolError::DecodeFailed {
                    terminal: c.me as usize,
                    what: "a plan row from a payload the coordinator lacks",
                })?;
            self.z = plan.c_mat.mul_plane(&y);
            plan.d_mat.mul_plane(&y).to_payloads()
        } else {
            Vec::new()
        };
        let trace = SessionTrace { plan_seed, reports, ..SessionTrace::default() };
        self.outcome = Some(SessionOutcome { trace: Some(trace), ..c.outcome((m, l), secret) });
        self.enter(Phase::Fountain { next_combo: now, round: 0 });
        Ok(None)
    }

    /// How long after fountain `round` the next top-up goes out: the
    /// RTO toward the slowest terminal still short of `Done`, doubled
    /// per top-up already sent, up to `retransmit` (or that RTO, when
    /// it is longer). A terminal one combo short finishes an RTO after
    /// the burst, and one that never finishes is topped up at the
    /// `retransmit` pace until the budget or the deadline ends it. No
    /// jitter: top-ups that fall due together share one wake of the
    /// node's receive loop.
    fn top_up_delay(&self, round: u32) -> Duration {
        let short = self.core.peers.iter().copied().filter(|p| !self.done.contains(p));
        let rto = self.core.rel.rto(short);
        rto.saturating_mul(2u32.saturating_pow(round)).min(rto.max(self.core.cfg.retransmit))
    }

    /// Fountain combo `index`: a random non-zero combination of the
    /// z-packets, innovative for every needy receiver with overwhelming
    /// probability (the receiver's rank tracker is the ground truth).
    fn combo(&mut self, index: u16) -> Frame {
        let c = &mut self.core;
        let mut coeffs: Vec<u8> = (0..self.z.rows()).map(|_| c.rng.gen()).collect();
        if coeffs.iter().all(|&q| q == 0) {
            coeffs[0] = 1;
        }
        let mut payload = vec![0; c.cfg.payload_len];
        for (k, &q) in coeffs.iter().enumerate() {
            kernel::axpy(&mut payload, self.z.row(k), q);
        }
        // z-combos are unreliable, so they carry their combo index as
        // the frame seq instead of consuming reliable-layer sequence
        // numbers: the fountain's length is timing-dependent (top-ups),
        // and burning shared seqs on it would make every later control
        // frame's identity — and its chaos-layer fault verdict —
        // timing-dependent too.
        let (sender, session, seq) = (c.me, c.session, index as u32);
        let payload = NetPayload::Proto(Message::ZPacket { index, coeffs, payload });
        Frame { flags: 0, sender, session, seq, payload }
    }

    fn advance(&mut self, frame: Option<Frame>, now: Instant) -> Stepped {
        if let Some(frame) = frame {
            self.on_frame(frame, now)?;
        }
        if let Some(out) = self.progress(now)? {
            return Ok(Some(out));
        }
        Ok(self.core.settle(now)?.map(|reason| self.end(reason)))
    }
}

impl<T: Transport> Machine for Coordinator<T> {
    fn step(&mut self, frame: Option<Frame>, now: Instant) -> Option<Ended> {
        self.advance(frame, now).transpose()
    }

    /// The earliest real deadline: a retransmission due, the end of the
    /// x-settle window, the next fountain top-up, the session deadline.
    fn wake(&self) -> Instant {
        let timer = match self.phase {
            Phase::XSettle { until } => Some(until),
            Phase::Fountain { next_combo, .. } if !self.z.is_empty() => Some(next_combo),
            _ => None,
        };
        self.core.wake(timer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NetPayload;
    use crate::transport::SimNet;
    use thinair_netsim::IidMedium;

    /// A first burst that runs past the u16 fountain-index space sends
    /// the combos below it before it aborts, and `z_sent` counts only
    /// the combos that went out.
    #[test]
    fn a_burst_cut_short_by_index_overflow_sends_what_it_built() {
        let net = SimNet::new(IidMedium::symmetric(2, 0.0, 1), 2);
        let cfg = SessionConfig { n_nodes: 2, z_budget: 70_000, ..SessionConfig::default() };
        let t = SharedTransport::new(net.transport(0));
        let mut c = Coordinator::new(t, SharedFlow::default(), 1, cfg, 7).unwrap();
        let sent_before = net.frames_transmitted();
        // Five z rows: a first burst of 8 combos, of which the indices
        // 65 530..=65 535 fit.
        c.z = PayloadPlane::zero(5, 32);
        c.z_sent = u16::MAX as u32 - 5;
        let now = crate::rt::now();
        c.phase = Phase::Fountain { next_combo: now, round: 0 };
        let out = c.progress(now).unwrap().expect("the overflow ends the session");
        let overflow = AbortReason::PlanOverflow {
            what: "fountain index",
            value: u16::MAX as u64 + 1,
            limit: u16::MAX as u64,
        };
        assert_eq!(out.abort, Some(overflow));
        assert_eq!(out.trace.unwrap().z_sent, u16::MAX as u32 + 1);
        assert_eq!(net.frames_transmitted() - sent_before, 6);
        let rx = SharedTransport::new(net.transport(1));
        let got = crate::rt::block_on(rx.recv_batch(crate::transport::DEFAULT_RECV_BATCH));
        let combos: Vec<u16> = got
            .unwrap()
            .iter()
            .filter_map(|f| match f.payload {
                NetPayload::Proto(Message::ZPacket { index, .. }) => Some(index),
                _ => None,
            })
            .collect();
        assert_eq!(combos, (u16::MAX - 5..=u16::MAX).collect::<Vec<_>>());
    }
}
