//! The terminal state machine.
//!
//! The mirror image of [`crate::coordinator`]: acknowledges the start
//! barrier (checking the configuration digest), contributes its share
//! of x-packets (when the schedule rotates transmission), reliably
//! reports its receptions, rebuilds the coordinator's plan from the
//! shared reports plus the announced seed, drinks from the z fountain
//! until its missing y-rows reach full rank, derives the group secret
//! locally, and signals `Done`. The decode is core's
//! [`Reconstructor`], the one the simulated round runs.
//!
//! Frames arrive in any order — a z-combo can outrun the plan
//! announcement, a peer's report can outrun `Start` — so every handler
//! is phase-independent and out-of-order data is buffered. The machine
//! never waits: a [`crate::serve::Server`] opens it on admission, and its
//! receive loop steps it with each frame of its session and at each of
//! its wakes.

use std::time::Instant;

use thinair_core::phase2::Reconstructor;
use thinair_core::wire::Message;

use crate::demux::Machine;
use crate::frame::{Frame, NetPayload};
use crate::session::{derive_plan, AbortReason, Core, DataKind, Ended, NetError, SessionConfig};
use crate::session::{SessionOutcome, Stepped};
use crate::transport::{SharedTransport, Transport};

/// One session on a terminal.
///
/// Sessions that cannot complete — deadline passed, a peer's attempt
/// budget exhausted, a configuration or plan mismatch — terminate with
/// a *clean abort*: an `Ok` outcome whose [`SessionOutcome::abort`]
/// names the structured reason. A terminal that derived a secret but
/// never saw `Fin` aborts and **discards** the secret: without the
/// final barrier it cannot know the group converged. `Err` is reserved
/// for infrastructure failures.
pub(crate) struct Terminal<T> {
    core: Core<T>,
    /// When the x phase settles and the report goes out, once started.
    report_at: Option<Instant>,
    report_sent: bool,
    /// The announced `(seed, m, l)`.
    announce: Option<(u64, usize, usize)>,
    /// Fountain combos that outran the plan.
    z_buffer: Vec<(Vec<u8>, Vec<u8>)>,
    recon: Option<Reconstructor>,
    outcome: Option<SessionOutcome>,
    fin_seen: bool,
}

impl<T: Transport> Terminal<T> {
    /// Sets up one session of a runnable `cfg`
    /// ([`crate::session::unrunnable`]) on this transport's node, its
    /// deadline running from now. `seed` feeds the terminal's own x
    /// payloads (only used when the schedule gives it packets).
    pub(crate) fn new(t: SharedTransport<T>, session: u64, cfg: SessionConfig, seed: u64) -> Self {
        let me = t.local_node();
        Terminal {
            core: Core::new(t, session, cfg, seed, me, "terminal", "await start"),
            report_at: None,
            report_sent: false,
            announce: None,
            z_buffer: Vec::new(),
            recon: None,
            outcome: None,
            fin_seen: false,
        }
    }

    /// Handles one frame; `Some` when it ends the session.
    fn on_frame(&mut self, frame: Frame, now: Instant) -> Stepped {
        let Some((frame, fresh)) = self.core.receive(frame)? else { return Ok(None) };
        let coordinator = self.core.cfg.coordinator;
        match frame.payload {
            NetPayload::Start { digest } if frame.sender == coordinator => {
                let want = self.core.cfg.digest();
                if digest != want {
                    let reason = AbortReason::ConfigMismatch { got: digest, want };
                    return Ok(Some(self.core.aborted(reason, None)));
                }
                if self.report_at.is_none() {
                    // Contribute this terminal's x share, if any.
                    self.core.broadcast_own()?;
                    self.report_at = Some(now + self.core.cfg.x_settle);
                }
            }
            NetPayload::Proto(Message::PlanAnnounce { seed, m, l })
                if fresh && frame.sender == coordinator =>
            {
                self.announce = Some((seed, m as usize, l as usize));
            }
            NetPayload::Proto(Message::ZPacket { index, coeffs, payload })
                if frame.sender == coordinator && !self.core.drops(DataKind::Z, index as u64) =>
            {
                match self.recon.as_mut() {
                    Some(r) => {
                        r.offer(&coeffs, &payload);
                    }
                    // The solver can use at most M innovative combos; cap
                    // the pre-plan buffer so a spoofed z-stream cannot
                    // grow it without bound.
                    None if self.z_buffer.len() < 2 * self.core.cfg.plan_params.max_rows => {
                        self.z_buffer.push((coeffs, payload))
                    }
                    None => {}
                }
            }
            NetPayload::Fin if frame.sender == coordinator => self.fin_seen = true,
            _ => {}
        }
        Ok(None)
    }

    /// Plan reconstruction, once every report and the announcement are
    /// in; `Some` when the rebuilt plan disagrees with the announcement.
    /// The seeded explorer-validation bug (`cfg.bug_premature_plan`)
    /// relaxes the gate: it builds the plan as soon as the announcement
    /// lands, substituting all-zero bitmaps for reports it has not seen
    /// — an ordering bug only a reordered/dropped report schedule can
    /// expose.
    fn rebuild_plan(&mut self) -> Stepped {
        let c = &mut self.core;
        let bug = c.cfg.bug_premature_plan;
        let ready = c.reports.iter().all(|r| r.is_some()) || bug;
        let Some((plan_seed, m, l)) = self.announce else { return Ok(None) };
        if self.recon.is_some() || self.outcome.is_some() || !self.report_sent || !ready {
            return Ok(None);
        }
        let zeros = vec![0u8; c.n_packets().div_ceil(8)];
        let reports: Vec<Vec<u8>> =
            c.reports.iter().map(|r| r.clone().unwrap_or_else(|| zeros.clone())).collect();
        let plan = derive_plan(&c.cfg, &reports, plan_seed)?;
        // The seeded bug also skips the dimension cross-check — the
        // safety net that would otherwise turn its premature plan into a
        // clean PlanMismatch abort.
        if !bug && (plan.m() != m || plan.l != l) {
            return Ok(Some(c.aborted(AbortReason::PlanMismatch, None)));
        }
        if l == 0 {
            // No secret this round; report completion directly.
            let out = c.outcome((m, 0), Vec::new());
            self.derived(out)?;
        } else {
            let x = |j| c.store.get(&j).map(Vec::as_slice);
            let mut r = Reconstructor::new(plan, c.cfg.payload_len, c.me as usize, x)?;
            for (coeffs, payload) in self.z_buffer.drain(..) {
                r.offer(&coeffs, &payload);
            }
            self.recon = Some(r);
        }
        Ok(None)
    }

    /// Keeps the derived outcome and signals `Done` to the coordinator.
    fn derived(&mut self, out: SessionOutcome) -> Result<(), NetError> {
        self.outcome = Some(out);
        let c = &mut self.core;
        c.rel.send(&c.t, c.session, NetPayload::Done, &[c.cfg.coordinator])?;
        Ok(())
    }

    fn advance(&mut self, frame: Option<Frame>, now: Instant) -> Stepped {
        if let Some(frame) = frame {
            if let Some(out) = self.on_frame(frame, now)? {
                return Ok(Some(out));
            }
        }
        // Reception report, once the x phase has settled.
        if !self.report_sent && self.report_at.is_some_and(|at| now >= at) {
            self.core.send_report()?;
            self.report_sent = true;
        }
        if let Some(out) = self.rebuild_plan()? {
            return Ok(Some(out));
        }
        // Secret derivation, once the fountain has filled the gap.
        if let Some(r) = self.recon.take_if(|r| r.complete()) {
            let (m, l) = (r.plan().m(), r.plan().l);
            let out = self.core.outcome((m, l), r.secret()?);
            self.derived(out)?;
        }
        // The terminal's phases are implicit in its state; the spans and
        // the trace follow the same milestones the deadline abort names.
        let phase = match (self.report_at, self.report_sent, self.announce, &self.outcome) {
            (None, ..) => "await start",
            (_, false, ..) => "x settle",
            (_, _, None, _) => "await plan",
            (.., None) => "z fountain",
            _ => "await fin",
        };
        self.core.enter("term", phase);
        // Fin seen (and acked on receipt) with the secret derived: the
        // round converged, and the session ends here. A Fin
        // retransmitted because that ack was lost is answered by the
        // receive loop's TIME_WAIT window ([`crate::reliable::TimeWait`]),
        // not by keeping this machine open.
        if let Some(out) = self.outcome.take_if(|_| self.fin_seen) {
            self.core.close_span("term");
            crate::telemetry::trace_end(self.core.session, self.core.me, true, out.l as u32);
            return Ok(Some(out));
        }
        Ok(self.core.settle(now)?.map(|reason| self.core.aborted(reason, None)))
    }
}

impl<T: Transport> Machine for Terminal<T> {
    fn step(&mut self, frame: Option<Frame>, now: Instant) -> Option<Ended> {
        self.advance(frame, now).transpose()
    }

    /// The earliest real deadline: a retransmission due, the report
    /// instant, the session deadline. (A terminal never sends `Start`,
    /// so it carries no flow budget.)
    fn wake(&self) -> Instant {
        self.core.wake(self.report_at.filter(|_| !self.report_sent))
    }
}
