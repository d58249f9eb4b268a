//! The asynchronous terminal state machine.
//!
//! The mirror image of [`crate::coordinator`]: acknowledges the start
//! barrier (checking the configuration digest), contributes its share
//! of x-packets (when the schedule rotates transmission), reliably
//! reports its receptions, rebuilds the coordinator's plan from the
//! shared reports plus the announced seed, drinks from the z fountain
//! until its missing y-rows reach full rank, derives the group secret
//! locally, and signals `Done`.
//!
//! Frames arrive in any order — a z-combo can outrun the plan
//! announcement, a peer's report can outrun `Start` — so every handler
//! is phase-independent and out-of-order data is buffered.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use thinair_core::wire::Message;

use crate::frame::{Frame, NetPayload};
use crate::reliable::{Dedup, Reliable, RetransmitPolicy};
use crate::rt;
use crate::rt::chan::Receiver;
use crate::session::{
    accept_report, derive_plan, AbortReason, DataKind, NetError, Reconstructor, SessionConfig,
    SessionOutcome, XState,
};
use crate::transport::{SharedTransport, Transport};

/// Runs one session as terminal `me`. `seed` feeds the terminal's own
/// x payloads (only used when the schedule gives it packets).
///
/// Sessions that cannot complete — deadline passed, a peer's attempt
/// budget exhausted, a configuration or plan mismatch — terminate with
/// a *clean abort*: an `Ok` outcome whose [`SessionOutcome::abort`]
/// names the structured reason. A terminal that derived a secret but
/// never saw `Fin` aborts and **discards** the secret: without the
/// final barrier it cannot know the group converged. `Err` is reserved
/// for infrastructure failures.
pub async fn run_terminal<T: Transport>(
    t: SharedTransport<T>,
    mut rx: Receiver<Frame>,
    session: u64,
    cfg: SessionConfig,
    seed: u64,
) -> Result<SessionOutcome, NetError> {
    let me = t.local_node();
    // Wire-width bounds abort cleanly (mirroring the coordinator): the
    // u16 fields cannot carry this session's parameters.
    if let Err(reason) = cfg.plan_bounds() {
        return Ok(SessionOutcome::aborted(session, me, cfg.n_packets(), reason, None));
    }
    cfg.validate()?;
    assert_ne!(me, cfg.coordinator, "coordinator must run run_coordinator");
    let n = cfg.n_nodes;
    let peers: Vec<u8> = (0..n).filter(|&p| p != me).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Reliable::with_policy(RetransmitPolicy {
        initial_rto: cfg.retransmit,
        cap: cfg.rto_cap,
        max_attempts: cfg.max_attempts,
        seed,
    });
    let mut dedup = Dedup::new(n as usize);

    let mut xs = XState::new(&cfg, session, me);
    let n_packets = xs.n_packets();
    let mut reports: Vec<Option<Vec<u8>>> = vec![None; n as usize];
    let mut announce: Option<(u64, usize, usize)> = None; // (seed, m, l)
    let mut z_buffer: Vec<(Vec<u8>, Vec<u8>)> = Vec::new(); // pre-plan combos
    let mut recon: Option<Reconstructor> = None;
    let mut outcome: Option<SessionOutcome> = None;
    let mut started = false;
    let mut report_at: Option<Instant> = None;
    let mut report_sent = false;
    let mut fin_seen = false;

    let deadline = rt::now() + cfg.deadline;

    let aborted = |reason: AbortReason| {
        crate::telemetry::trace_abort(session, me, reason.kind());
        crate::telemetry::trace_end(session, me, false, 0);
        SessionOutcome::aborted(session, me, n_packets, reason, None)
    };

    let mut cur_phase = phase_name(false, false, false, false);
    let mut phase_entered = rt::now();
    crate::telemetry::trace_session_start(session, me, "terminal");
    crate::telemetry::trace_phase(session, me, cur_phase);

    loop {
        if rt::now() >= deadline {
            let phase = phase_name(started, report_sent, announce.is_some(), outcome.is_some());
            return Ok(aborted(AbortReason::Deadline { phase }));
        }

        // Sleep until the earliest real deadline — a retransmission
        // due, the report instant, the session deadline — or until a
        // frame arrives. (A terminal never sends `Start`, so none of its
        // frames wait on the flow budget.)
        let mut wake = deadline;
        if let Some(due) = rel.next_due() {
            wake = wake.min(due);
        }
        if let (Some(at), false) = (report_at, report_sent) {
            wake = wake.min(at);
        }
        match rt::timeout_at(wake, rx.recv()).await {
            Err(rt::Elapsed) => {}
            Ok(None) => return Err(NetError::Closed),
            Ok(Some(frame)) => {
                let fresh = dedup.admit(&t, &frame)?;
                match frame.payload {
                    NetPayload::Ack { seq } => rel.on_ack(frame.sender, seq),
                    NetPayload::Start { digest } if frame.sender == cfg.coordinator => {
                        let want = cfg.digest();
                        if digest != want {
                            return Ok(aborted(AbortReason::ConfigMismatch { got: digest, want }));
                        }
                        if !started {
                            started = true;
                            // Contribute this terminal's x share, if any.
                            xs.broadcast_own(&t, &mut rel, &mut rng)?;
                            report_at = Some(rt::now() + cfg.x_settle);
                        }
                    }
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
                    NetPayload::Proto(Message::PlanAnnounce { seed, m, l })
                        if fresh && frame.sender == cfg.coordinator =>
                    {
                        announce = Some((seed, m as usize, l as usize));
                    }
                    NetPayload::Proto(Message::ZPacket { index, coeffs, payload })
                        if frame.sender == cfg.coordinator
                            && !xs.drops(DataKind::Z, index as u64) =>
                    {
                        match recon.as_mut() {
                            Some(r) => {
                                r.offer(&coeffs, &payload);
                            }
                            // The solver can use at most M innovative
                            // combos; cap the pre-plan buffer so a
                            // spoofed z-stream cannot grow it without
                            // bound.
                            None if z_buffer.len() < 2 * cfg.plan_params.max_rows => {
                                z_buffer.push((coeffs, payload))
                            }
                            None => {}
                        }
                    }
                    NetPayload::Fin if frame.sender == cfg.coordinator => {
                        fin_seen = true;
                    }
                    _ => {}
                }
            }
        }

        let now = rt::now();

        // Reception report, once the x phase has settled.
        if let Some(at) = report_at {
            if !report_sent && now >= at {
                let bitmap = xs.report_bitmap();
                reports[me as usize] = Some(bitmap.clone());
                let msg = Message::ReceptionReport {
                    terminal: me,
                    // In range: plan_bounds() aborted on entry otherwise.
                    n_packets: u16::try_from(n_packets).expect("bounded by plan_bounds"),
                    bitmap,
                };
                rel.send(&t, session, NetPayload::Proto(msg), &peers)?;
                report_sent = true;
            }
        }

        // Plan reconstruction, once every report and the announcement
        // are in. The seeded explorer-validation bug
        // (`cfg.bug_premature_plan`) relaxes the gate: it builds the
        // plan as soon as the announcement lands, substituting all-zero
        // bitmaps for reports it has not seen — an ordering bug only a
        // reordered/dropped report schedule can expose.
        let reports_ready =
            reports.iter().all(|r| r.is_some()) || (cfg.bug_premature_plan && announce.is_some());
        if recon.is_none() && outcome.is_none() && report_sent && reports_ready {
            if let Some((plan_seed, m, l)) = announce {
                let flat: Vec<Vec<u8>> = reports
                    .iter()
                    .map(|r| r.clone().unwrap_or_else(|| vec![0u8; n_packets.div_ceil(8)]))
                    .collect();
                let plan = derive_plan(&cfg, &flat, plan_seed)?;
                // The seeded bug also skips the dimension cross-check —
                // the safety net that would otherwise turn its premature
                // plan into a clean PlanMismatch abort.
                if !cfg.bug_premature_plan && (plan.m() != m || plan.l != l) {
                    return Ok(aborted(AbortReason::PlanMismatch));
                }
                if l == 0 {
                    // No secret this round; report completion directly.
                    outcome = Some(SessionOutcome {
                        session,
                        node: me,
                        l: 0,
                        m,
                        n_packets,
                        secret: Vec::new(),
                        abort: None,
                        trace: None,
                    });
                    rel.send(&t, session, NetPayload::Done, &[cfg.coordinator])?;
                } else {
                    let mut r = Reconstructor::new(plan, cfg.payload_len, me, &xs.store);
                    for (coeffs, payload) in z_buffer.drain(..) {
                        r.offer(&coeffs, &payload);
                    }
                    recon = Some(r);
                }
            }
        }

        // Secret derivation, once the fountain has filled the gap.
        if let Some(r) = recon.as_ref() {
            if r.complete() {
                let r = recon.take().expect("checked");
                let (m, l) = (r.plan().m(), r.plan().l);
                let secret = r.secret(me)?;
                outcome = Some(SessionOutcome {
                    session,
                    node: me,
                    l,
                    m,
                    n_packets,
                    secret,
                    abort: None,
                    trace: None,
                });
                rel.send(&t, session, NetPayload::Done, &[cfg.coordinator])?;
            }
        }

        // The terminal's phases are implicit in its flags; diff the
        // derived name once per iteration so spans and the trace follow
        // the same milestones the deadline abort reports.
        let phase_now = phase_name(started, report_sent, announce.is_some(), outcome.is_some());
        if phase_now != cur_phase {
            crate::telemetry::observe(
                crate::telemetry::phase_metric("term", cur_phase),
                phase_entered.elapsed().as_micros() as u64,
            );
            phase_entered = rt::now();
            cur_phase = phase_now;
            crate::telemetry::trace_phase(session, me, cur_phase);
        }

        // Fin seen (and acked by `dedup.admit` above) with the secret
        // derived: the round converged, and the session ends here. A
        // Fin retransmitted because that ack was lost is answered by the
        // router's TIME_WAIT window ([`crate::reliable::TimeWait`]), not
        // by keeping this task alive.
        if fin_seen {
            if let Some(out) = outcome.take() {
                note_complete(session, me, cur_phase, phase_entered, out.l as u32);
                return Ok(out);
            }
        }

        if let Err(u) = rel.tick(&t, rt::now())? {
            let reason = AbortReason::Unreachable { missing: u.missing, attempts: u.attempts };
            return Ok(aborted(reason));
        }
    }
}

/// Settles telemetry for a completed terminal session: the final
/// phase's span lands in its `phase.term.*` histogram and the trace
/// records the successful end.
fn note_complete(session: u64, me: u8, phase: &'static str, entered: Instant, l: u32) {
    crate::telemetry::observe(
        crate::telemetry::phase_metric("term", phase),
        entered.elapsed().as_micros() as u64,
    );
    crate::telemetry::trace_end(session, me, true, l);
}

fn phase_name(started: bool, report_sent: bool, announced: bool, derived: bool) -> &'static str {
    if !started {
        "await start"
    } else if !report_sent {
        "x settle"
    } else if !announced {
        "await plan"
    } else if !derived {
        "z fountain"
    } else {
        "await fin"
    }
}
