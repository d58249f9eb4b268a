//! The asynchronous coordinator ("Alice") state machine.
//!
//! Drives one group session over any [`Transport`]:
//!
//! 1. **Start barrier** — waits its turn in the node's admission FIFO
//!    ([`crate::reliable::FlowBudget::admit`]), then reliably delivers
//!    `Start{digest}` to every terminal, so sockets are live and
//!    configurations agree before any data-plane packet is spent.
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
//!    per-packet ACKs.
//! 5. **Fin** — reliably tells every terminal the session is complete.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thinair_core::wire::Message;
use thinair_gf::{kernel, PayloadPlane};

use crate::frame::{Frame, NetPayload};
use crate::reliable::{Dedup, FlowBudget, Reliable, RetransmitPolicy};
use crate::rt;
use crate::rt::chan::Receiver;
use crate::session::{
    accept_report, derive_plan, AbortReason, NetError, SessionConfig, SessionOutcome, SessionTrace,
    XState,
};
use crate::transport::{SharedTransport, Transport};

/// The first phase, which a session waiting for admission is already in.
const START_BARRIER: &str = "start barrier";

enum Phase {
    StartBarrier { start_seq: u32 },
    XSettle { until: Instant },
    AwaitReports,
    Fountain { next_combo: Instant },
    FinBarrier { fin_seq: u32 },
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::StartBarrier { .. } => START_BARRIER,
            Phase::XSettle { .. } => "x settle",
            Phase::AwaitReports => "report collection",
            Phase::Fountain { .. } => "z fountain",
            Phase::FinBarrier { .. } => "fin barrier",
        }
    }
}

/// Settles the telemetry for a phase transition: the `old` phase's
/// duration lands in its `phase.coord.*` histogram, the span clock
/// restarts, and the trace records entering `new`.
fn note_phase(session: u64, me: u8, old: &'static str, new: &'static str, entered: &mut Instant) {
    crate::telemetry::observe(
        crate::telemetry::phase_metric("coord", old),
        entered.elapsed().as_micros() as u64,
    );
    *entered = rt::now();
    crate::telemetry::trace_phase(session, me, new);
}

/// Runs one session as the coordinator. `seed` feeds all local
/// randomness (x payloads, the plan seed, fountain coefficients).
///
/// A session that cannot complete — deadline passed, a peer's attempt
/// budget exhausted — terminates with a *clean abort*: an `Ok` outcome
/// whose [`SessionOutcome::abort`] names the structured reason, with
/// the partial [`SessionTrace`] attached for offline audit. `Err` is
/// reserved for infrastructure failures (socket errors, a closed frame
/// channel, construction bugs).
pub async fn run_coordinator<T: Transport>(
    t: SharedTransport<T>,
    mut rx: Receiver<Frame>,
    session: u64,
    cfg: SessionConfig,
    seed: u64,
) -> Result<SessionOutcome, NetError> {
    // Wire-width bounds are a *clean abort*, not an error: an x-pool
    // that cannot ride the u16 fields must terminate with a structured
    // reason instead of announcing a truncated plan.
    if let Err(reason) = cfg.plan_bounds() {
        let me = cfg.coordinator;
        return Ok(SessionOutcome::aborted(session, me, cfg.n_packets(), reason, None));
    }
    cfg.validate()?;
    let me = cfg.coordinator;
    let n = cfg.n_nodes;
    let targets: Vec<u8> = (0..n).filter(|&p| p != me).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Reliable::with_policy(RetransmitPolicy {
        initial_rto: cfg.retransmit,
        cap: cfg.rto_cap,
        max_attempts: cfg.max_attempts,
        seed,
    });
    let mut dedup = Dedup::new(n as usize);

    // Ground truth this node holds: its own x payloads plus received ones.
    let mut xs = XState::new(&cfg, session, me);
    let n_packets = xs.n_packets();
    let mut reports: Vec<Option<Vec<u8>>> = vec![None; n as usize];
    let mut done: BTreeSet<u8> = BTreeSet::new();

    // Fountain state, filled once the plan exists. The combo scratch
    // buffers are allocated once per session and reused for every frame.
    let mut fountain = FountainState::default();
    let mut z_sent: u32 = 0;
    let mut outcome: Option<SessionOutcome> = None;

    let deadline = rt::now() + cfg.deadline;
    // Socket send failures are counted node-wide by the transport; the
    // session's trace carries the delta over its own lifetime.
    let send_errors_at_start = t.send_errors();

    // Builds the clean-abort outcome: the trace carries whatever was
    // collected (reports so far, empty bitmaps for the missing ones) so
    // the auditor can see how far the session got.
    let abort = |reason: AbortReason,
                 reports: &[Option<Vec<u8>>],
                 outcome: Option<SessionOutcome>,
                 z_sent: u32,
                 send_errors: u64| {
        let trace = match outcome.and_then(|o| o.trace) {
            Some(mut t) => {
                t.z_sent = z_sent;
                t.send_errors = send_errors;
                t.abort = Some(reason.clone());
                t
            }
            None => SessionTrace {
                plan_seed: 0,
                reports: reports.iter().map(|r| r.clone().unwrap_or_default()).collect(),
                z_sent,
                send_errors,
                abort: Some(reason.clone()),
            },
        };
        crate::telemetry::trace_abort(session, me, reason.kind());
        crate::telemetry::trace_end(session, me, false, 0);
        SessionOutcome::aborted(session, me, n_packets, reason, Some(trace))
    };

    // Once the fin barrier has been entered, every terminal has
    // signalled `Done`: the group provably converged, so a fin-ACK that
    // never arrives (deadline or attempt budget) completes the session
    // instead of discarding it — mirroring the terminal's post-Fin
    // guard. (A terminal that never *received* Fin still aborts on its
    // side: it cannot know the group converged. That asymmetry is the
    // Two Generals residue documented in docs/ARCHITECTURE.md.)
    let finish = |mut out: SessionOutcome, z_sent: u32, send_errors: u64| {
        if let Some(trace) = out.trace.as_mut() {
            trace.z_sent = z_sent;
            trace.send_errors = send_errors;
        }
        crate::telemetry::trace_end(session, me, true, out.l as u32);
        out
    };
    // The send-error delta this session will report, read lazily so
    // every exit path shares one expression.
    let send_errs = |t: &SharedTransport<T>| t.send_errors().saturating_sub(send_errors_at_start);

    let mut phase_entered = rt::now();
    crate::telemetry::trace_session_start(session, me, "coordinator");
    crate::telemetry::trace_phase(session, me, START_BARRIER);
    // Admission is part of the start barrier: the session waits its
    // turn in the flow budget's FIFO, arming no timer of its own, for
    // at most the session deadline.
    if rt::timeout_at(deadline, FlowBudget::admit(&t.flow())).await.is_err() {
        let reason = AbortReason::Deadline { phase: START_BARRIER };
        return Ok(abort(reason, &reports, None, 0, send_errs(&t)));
    }
    let start_seq = rel.send(&t, session, NetPayload::Start { digest: cfg.digest() }, &targets)?;
    let mut phase = Phase::StartBarrier { start_seq };

    loop {
        if rt::now() >= deadline {
            if matches!(phase, Phase::FinBarrier { .. }) {
                if let Some(out) = outcome.take() {
                    return Ok(finish(out, z_sent, send_errs(&t)));
                }
            }
            let reason = AbortReason::Deadline { phase: phase.name() };
            return Ok(abort(reason, &reports, outcome, z_sent, send_errs(&t)));
        }

        // Sleep until the earliest real deadline — a retransmission
        // due, the end of the x-settle window, the next fountain top-up,
        // the session deadline — or until a frame arrives. Every
        // deadline below is acted on at `now >= it` and then moves into
        // the future, so no wait repeats at the same instant.
        let mut wake = deadline;
        if let Some(due) = rel.next_due() {
            wake = wake.min(due);
        }
        match &phase {
            Phase::XSettle { until } => wake = wake.min(*until),
            Phase::Fountain { next_combo } if !fountain.is_empty() => wake = wake.min(*next_combo),
            _ => {}
        }
        match rt::timeout_at(wake, rx.recv()).await {
            Err(rt::Elapsed) => {}
            Ok(None) => return Err(NetError::Closed),
            Ok(Some(frame)) => {
                let fresh = dedup.admit(&t, &frame)?;
                match frame.payload {
                    NetPayload::Ack { seq } => rel.on_ack(frame.sender, seq),
                    NetPayload::Proto(Message::XPacket { .. }) => xs.on_frame(&frame),
                    NetPayload::Proto(Message::ReceptionReport {
                        terminal,
                        n_packets: np,
                        bitmap,
                    }) => {
                        accept_report(
                            &mut reports,
                            n_packets,
                            fresh,
                            frame.sender,
                            terminal,
                            np,
                            bitmap,
                        );
                    }
                    NetPayload::Done if frame.sender != me => {
                        done.insert(frame.sender);
                    }
                    NetPayload::Busy { retry_after_ms } => {
                        // Explicit backpressure from an over-capacity
                        // serve daemon: pause the start barrier for the
                        // suggested delay (bounded — the field rides the
                        // wire) instead of retransmitting blind. Paced
                        // re-admission, not an abort: the deadline still
                        // bounds the session.
                        if let Phase::StartBarrier { start_seq } = phase {
                            let wait = Duration::from_millis(retry_after_ms.min(10_000) as u64);
                            rel.defer(start_seq, rt::now() + wait);
                            crate::telemetry::counter_add("net.busy.deferred", 1);
                        }
                    }
                    // Terminals never send plans, z-packets, Start or Fin.
                    _ => {}
                }
            }
        }

        let now = rt::now();
        match &phase {
            Phase::StartBarrier { start_seq } => {
                if rel.acked(*start_seq) {
                    // Broadcast this node's share of the x-pool.
                    xs.broadcast_own(&t, &mut rel, &mut rng)?;
                    let prev = phase.name();
                    phase = Phase::XSettle { until: now + cfg.x_settle };
                    note_phase(session, me, prev, phase.name(), &mut phase_entered);
                }
            }
            Phase::XSettle { until } => {
                if now >= *until {
                    let bitmap = xs.report_bitmap();
                    reports[me as usize] = Some(bitmap.clone());
                    let msg = Message::ReceptionReport {
                        terminal: me,
                        // In range: plan_bounds() aborted before this
                        // point when the pool exceeds u16.
                        n_packets: u16::try_from(n_packets).expect("bounded by plan_bounds"),
                        bitmap,
                    };
                    rel.send(&t, session, NetPayload::Proto(msg), &targets)?;
                    let prev = phase.name();
                    phase = Phase::AwaitReports;
                    note_phase(session, me, prev, phase.name(), &mut phase_entered);
                }
            }
            Phase::AwaitReports => {
                if reports.iter().all(|r| r.is_some()) {
                    let flat: Vec<Vec<u8>> =
                        reports.iter().map(|r| r.clone().expect("all present")).collect();
                    let plan_seed: u64 = rng.gen();
                    let plan = derive_plan(&cfg, &flat, plan_seed)?;
                    let (m, l) = (plan.m(), plan.l);
                    // The announcement carries (m, l) as u16; a plan too
                    // large for the wire is a structured abort, never a
                    // truncated announcement every terminal would
                    // mis-rebuild against.
                    let (m16, l16) = match (u16::try_from(m), u16::try_from(l)) {
                        (Ok(m16), Ok(l16)) => (m16, l16),
                        _ => {
                            // Label and value must describe the same
                            // dimension (m takes precedence when both
                            // overflow).
                            let (what, value) =
                                if m > u16::MAX as usize { ("plan m", m) } else { ("plan l", l) };
                            let reason = AbortReason::PlanOverflow {
                                what,
                                value: value as u64,
                                limit: u16::MAX as u64,
                            };
                            return Ok(abort(reason, &reports, outcome, z_sent, send_errs(&t)));
                        }
                    };
                    let msg = Message::PlanAnnounce { seed: plan_seed, m: m16, l: l16 };
                    rel.send(&t, session, NetPayload::Proto(msg), &targets)?;
                    // The coordinator decodes every row directly.
                    let secret = if l > 0 {
                        let mut y = PayloadPlane::zero(plan.rows.len(), cfg.payload_len);
                        for (r, row) in plan.rows.iter().enumerate() {
                            let acc = y.row_mut(r);
                            for (&j, &c) in row.support.iter().zip(row.coeffs.iter()) {
                                let p = xs.store.get(&j).expect("coordinator holds every support");
                                kernel::axpy(acc, p, c.value());
                            }
                        }
                        fountain.set_z(plan.c_mat.mul_plane(&y), cfg.payload_len);
                        plan.d_mat.mul_plane(&y).to_payloads()
                    } else {
                        Vec::new()
                    };
                    let trace = Some(SessionTrace {
                        plan_seed,
                        reports: flat,
                        z_sent: 0,
                        send_errors: 0,
                        abort: None,
                    });
                    outcome = Some(SessionOutcome {
                        session,
                        node: me,
                        l,
                        m,
                        n_packets,
                        secret,
                        abort: None,
                        trace,
                    });
                    let prev = phase.name();
                    phase = Phase::Fountain { next_combo: now };
                    note_phase(session, me, prev, phase.name(), &mut phase_entered);
                }
            }
            Phase::Fountain { next_combo } => {
                if targets.iter().all(|p| done.contains(p)) {
                    let fin_seq = rel.send(&t, session, NetPayload::Fin, &targets)?;
                    let prev = phase.name();
                    phase = Phase::FinBarrier { fin_seq };
                    note_phase(session, me, prev, phase.name(), &mut phase_entered);
                } else if now >= *next_combo && !fountain.is_empty() {
                    if z_sent >= cfg.z_budget {
                        let missing: Vec<u8> =
                            targets.iter().copied().filter(|p| !done.contains(p)).collect();
                        let reason = AbortReason::Unreachable { missing, attempts: z_sent };
                        return Ok(abort(reason, &reports, outcome, z_sent, send_errs(&t)));
                    }
                    // An initial burst covers the worst-case missing-row
                    // count; afterwards one combo per retransmit interval
                    // tops up losses.
                    let burst = if z_sent == 0 { (fountain.z_count() + 3) as u32 } else { 1 };
                    for _ in 0..burst {
                        // Combo indices ride the wire as u16; a fountain
                        // that outlives the index space (only reachable
                        // with z_budget > 65536) aborts cleanly
                        // instead of wrapping — a wrapped index would
                        // collide erasure-injection decisions.
                        let Ok(index) = u16::try_from(z_sent) else {
                            let reason = AbortReason::PlanOverflow {
                                what: "fountain index",
                                value: z_sent as u64,
                                limit: u16::MAX as u64,
                            };
                            return Ok(abort(reason, &reports, outcome, z_sent, send_errs(&t)));
                        };
                        fountain.send_combo(&t, session, index, &mut rng)?;
                        z_sent += 1;
                    }
                    phase = Phase::Fountain { next_combo: now + cfg.retransmit };
                }
            }
            Phase::FinBarrier { fin_seq } => {
                if rel.acked(*fin_seq) {
                    // The terminal span of a completed session: settle
                    // the fin-barrier histogram before returning.
                    crate::telemetry::observe(
                        crate::telemetry::phase_metric("coord", phase.name()),
                        phase_entered.elapsed().as_micros() as u64,
                    );
                    let out = outcome.take().expect("outcome set before fin");
                    return Ok(finish(out, z_sent, send_errs(&t)));
                }
            }
        }

        if let Err(u) = rel.tick(&t, rt::now())? {
            if matches!(phase, Phase::FinBarrier { .. }) {
                if let Some(out) = outcome.take() {
                    return Ok(finish(out, z_sent, send_errs(&t)));
                }
            }
            let reason = AbortReason::Unreachable { missing: u.missing, attempts: u.attempts };
            return Ok(abort(reason, &reports, outcome, z_sent, send_errs(&t)));
        }
    }
}

/// Per-session fountain state: the z plane plus reusable combo scratch
/// buffers, so streaming combos does not allocate per frame beyond the
/// owned vectors the outgoing message itself needs.
#[derive(Default)]
struct FountainState {
    z: PayloadPlane,
    q: Vec<u8>,
    acc: Vec<u8>,
}

impl FountainState {
    fn set_z(&mut self, z: PayloadPlane, payload_len: usize) {
        self.q = vec![0; z.rows()];
        self.acc = vec![0; payload_len];
        self.z = z;
    }

    fn is_empty(&self) -> bool {
        self.z.is_empty()
    }

    fn z_count(&self) -> usize {
        self.z.rows()
    }

    fn send_combo<T: Transport>(
        &mut self,
        t: &SharedTransport<T>,
        session: u64,
        z_seq: u16,
        rng: &mut StdRng,
    ) -> Result<(), NetError> {
        let me = t.local_node();
        // Random non-zero combination: innovative for every needy receiver
        // with overwhelming probability (the receiver's rank tracker is the
        // ground truth).
        for qk in self.q.iter_mut() {
            *qk = rng.gen();
        }
        if self.q.iter().all(|&c| c == 0) {
            self.q[0] = 1;
        }
        self.acc.fill(0);
        for (k, &qk) in self.q.iter().enumerate() {
            kernel::axpy(&mut self.acc, self.z.row(k), qk);
        }
        let msg =
            Message::ZPacket { index: z_seq, coeffs: self.q.clone(), payload: self.acc.clone() };
        // z-combos are unreliable, so they carry their combo index as
        // the frame seq instead of consuming reliable-layer sequence
        // numbers: the fountain's length is timing-dependent (top-ups),
        // and burning shared seqs on it would make every later control
        // frame's identity — and its chaos-layer fault verdict —
        // timing-dependent too.
        let frame = Frame {
            flags: 0,
            sender: me,
            session,
            seq: z_seq as u32,
            payload: NetPayload::Proto(msg),
        };
        t.broadcast(&frame)?;
        Ok(())
    }
}
