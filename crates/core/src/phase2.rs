//! Phase 1 step 3–4 and phase 2: y/z/s announcement, reconciliation and
//! the group secret.
//!
//! The coordinator has a [`Plan`] (from [`crate::construct`]) and the
//! ground-truth x-pool. She:
//!
//! 1. reliably broadcasts the y-rows' *identities* (supports +
//!    coefficients, no contents) — paper phase 1 step 3;
//! 2. reliably broadcasts the `M−L` z-packets *with contents* — phase 2
//!    step 1 (Eve is conservatively assumed to receive these; her ledger
//!    records the corresponding x-space rows);
//! 3. reliably broadcasts the s-rows' identities — phase 2 step 3.
//!
//! Every terminal then reconstructs with a [`Reconstructor`]: the
//! y-packets it can compute directly (support ⊆ its known set), the
//! missing ones by solving the z system, and finally the s-packets — the
//! group secret. The networked terminal (`thinair-net`) decodes with the
//! same [`Reconstructor`], fed from its sockets instead of a medium.

use thinair_gf::{kernel, Gf256, PayloadPlane, RowEchelon};
use thinair_netsim::stats::TxClass;
use thinair_netsim::{Medium, TxStats};

use crate::transport::reliable_message;

use crate::construct::Plan;
use crate::error::ProtocolError;
use crate::eve::EveLedger;
use crate::packet::Payload;
use crate::phase1::XPool;
use crate::wire::Message;

/// What phase 2 produced.
#[derive(Clone, Debug)]
pub struct Phase2Output {
    /// Ground-truth y payloads (coordinator side).
    pub y_payloads: Vec<Payload>,
    /// The group secret as each terminal computed it (index = terminal).
    pub secrets: Vec<Vec<Payload>>,
}

impl Phase2Output {
    /// True iff every terminal derived the identical group secret.
    pub fn all_agree(&self) -> bool {
        self.secrets.windows(2).all(|w| w[0] == w[1])
    }
}

/// Runs announcement, reconciliation and extraction for a built plan.
///
/// `medium` nodes `0..n_terminals` are terminals; `eve` records the
/// published z rows (contents reach her by the paper's conservative
/// assumption, so her channel is irrelevant here).
pub fn run_phase2(
    mut medium: impl Medium,
    stats: &mut TxStats,
    eve: &mut EveLedger,
    plan: &Plan,
    pool: &XPool,
    max_attempts: u32,
) -> Result<Phase2Output, ProtocolError> {
    let n_terminals = pool.known.len();
    let coordinator = plan.coordinator;
    let targets: Vec<usize> = (0..n_terminals).filter(|&t| t != coordinator).collect();

    // Ground-truth y payloads (the coordinator can compute them all: every
    // support is inside her known set), one contiguous plane row per y.
    let y_plane = plan.y_plane(pool.payload_len, |j| Some(pool.payloads.row(j))).map_err(|_| {
        ProtocolError::DecodeFailed { terminal: coordinator, what: "a y-row outside the x-pool" }
    })?;

    // 1. Plan announcement. The construction is a deterministic function
    // of the reception reports (now shared by all) and a seed, so the
    // "identities of the x-packets she used" (paper, phase 1 step 3 and
    // phase 2 step 3) compress to the seed plus (M, L).
    let plan_msg = Message::PlanAnnounce {
        seed: 0, // simulated terminals share the Plan object; bits are what matter
        m: plan.m() as u16,
        l: plan.l as u16,
    };
    reliable_message(
        &mut medium,
        stats,
        coordinator,
        plan_msg.bits(),
        &targets,
        TxClass::Control,
        max_attempts,
    )?;

    // 2. z distribution, fountain-style. Any vector in the z row space is
    // as good as any other for reconciliation, so instead of pushing each
    // of the `M − L` z-packets to each terminal (coupon-collector
    // endgame), the coordinator broadcasts *random linear combinations*
    // of the z-packets. Every reception is innovative for every
    // still-needy terminal with overwhelming probability, so the number
    // of transmissions tracks the worst single terminal's demand. The
    // combination coefficients ride in the packet. Secrecy is untouched:
    // every combo lies in the span of the `C·W` rows that Eve is already
    // conservatively assumed to know in full (paper §2).
    let z_plane = plan.c_mat.mul_plane(&y_plane);
    let z_rows_x = plan.z_rows_x();
    let z_count = z_plane.rows();
    for k in 0..z_count {
        eve.note_public_row(z_rows_x.row(k));
    }
    // Each terminal decodes its direct rows from the x-packets it knows
    // and is done once the combos it collected reach full rank on the
    // rest.
    let mut terminals = Vec::with_capacity(targets.len());
    for &t in &targets {
        let x = |j| pool.known[t].contains(&j).then(|| pool.payloads.row(j));
        terminals.push((t, Reconstructor::new(plan.clone(), pool.payload_len, t, x)?));
    }
    let mut seq = 0u64;
    let mut attempts = 0u32;
    // Deterministic combo coefficients from a per-round counter (the
    // receiver reads them from the packet; we derive them reproducibly).
    let combo_coeff = |seq: u64, k: usize| -> u8 {
        // Small multiplicative hash onto GF(256); quality is irrelevant,
        // only genericity, which the rank tracker verifies per receiver.
        let h = (seq.wrapping_mul(0x9E3779B97F4A7C15)
            ^ (k as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
        .wrapping_mul(0xD6E8FEB86659FD93);
        (h >> 56) as u8
    };
    while z_count > 0 && terminals.iter().any(|(_, r)| !r.complete()) {
        if attempts >= max_attempts {
            let missing = terminals.iter().filter(|(_, r)| !r.complete()).map(|&(t, _)| t);
            return Err(ProtocolError::Reliable(thinair_netsim::ReliableError::Unreachable {
                missing: missing.collect(),
                attempts,
            }));
        }
        attempts += 1;
        let q: Vec<u8> = (0..z_count).map(|k| combo_coeff(seq, k)).collect();
        let mut payload = vec![0u8; pool.payload_len];
        for (k, &qk) in q.iter().enumerate() {
            kernel::axpy(&mut payload, z_plane.row(k), qk);
        }
        let msg =
            Message::ZPacket { index: seq as u16, coeffs: q.clone(), payload: payload.clone() };
        let bits = msg.bits();
        let delivery = medium.transmit(coordinator, bits);
        stats.record(coordinator, TxClass::Control, bits);
        let mut progress = false;
        for (t, r) in &mut terminals {
            if delivery.got(*t) {
                progress |= r.offer(&q, &payload);
            }
        }
        if !progress {
            // Nobody needy reached anything new: likely a jammed slot.
            medium.tick();
        }
        seq += 1;
    }
    // One completion block-ACK per terminal for the z phase.
    for &t in &targets {
        stats.record(t, TxClass::Ack, thinair_netsim::ACK_BITS);
    }

    // 3. s identities: already pinned by the plan announcement — with the
    // canonical Cauchy split, rows M−L..M of the [C;D] matrix are the
    // s-rows. Nothing further goes on the air.

    // 4. Every terminal solves for its missing rows and derives `D·y`.
    let mut secrets: Vec<Vec<Payload>> = vec![Vec::new(); n_terminals];
    secrets[coordinator] = plan.d_mat.mul_plane(&y_plane).to_payloads();
    for (t, r) in terminals {
        secrets[t] = r.secret()?;
    }

    Ok(Phase2Output { y_payloads: y_plane.to_payloads(), secrets })
}

/// One terminal's incremental y reconstruction and group secret.
///
/// Directly computable rows come from the x-packets the terminal holds;
/// the rest accumulate fountain combos until the projected system reaches
/// full rank, then one linear solve recovers the missing y-packets and
/// the secret is `D·y` (identities-only: nothing about `s` ever went on
/// the air).
pub struct Reconstructor {
    plan: Plan,
    terminal: usize,
    /// One contiguous row per y-packet; `have[r]` marks filled rows.
    y: PayloadPlane,
    have: Vec<bool>,
    missing: Vec<usize>,
    tracker: RowEchelon,
    /// The innovative combos so far: coefficients over the z-packets,
    /// and the combined payload.
    combos: Vec<(Vec<u8>, Vec<u8>)>,
}

impl Reconstructor {
    /// Starts `terminal`'s reconstruction under `plan`, its direct rows
    /// computed from `x` (x-packet `j`'s payload, if the terminal holds
    /// it). A direct row over an x-packet `x` lacks fails with
    /// [`ProtocolError::DecodeFailed`]: a plan derived from the
    /// terminal's own report never has one.
    pub fn new<'a>(
        plan: Plan,
        payload_len: usize,
        terminal: usize,
        x: impl Fn(usize) -> Option<&'a [u8]>,
    ) -> Result<Self, ProtocolError> {
        let m = plan.m();
        let mut y = PayloadPlane::zero(m, payload_len);
        let mut have = vec![false; m];
        for &r in &plan.decodable[terminal] {
            plan.rows[r].accumulate(y.row_mut(r), &x).map_err(|_| ProtocolError::DecodeFailed {
                terminal,
                what: "a direct y-row from an x-packet it lacks",
            })?;
            have[r] = true;
        }
        let missing: Vec<usize> = (0..m).filter(|r| !have[*r]).collect();
        let tracker = RowEchelon::new(missing.len());
        Ok(Reconstructor { plan, terminal, y, have, missing, tracker, combos: Vec::new() })
    }

    /// Whether enough combos have been collected to solve.
    pub fn complete(&self) -> bool {
        self.tracker.rank() == self.missing.len()
    }

    /// Projection of fountain coefficients `q` onto y-column `col`:
    /// `(q·C)[col]`.
    fn project(&self, q: &[u8], col: usize) -> u8 {
        q.iter()
            .enumerate()
            .fold(0u8, |acc, (k, &qk)| acc ^ kernel::gf_mul(qk, self.plan.c_mat[(k, col)].value()))
    }

    /// Offers one fountain combo (coefficients over the z-packets, and
    /// the combined payload). Returns `true` when the combo was
    /// innovative: a combo of the wrong shape, or one offered once
    /// complete, is not.
    pub fn offer(&mut self, coeffs: &[u8], payload: &[u8]) -> bool {
        if self.complete()
            || coeffs.len() != self.plan.c_mat.rows()
            || payload.len() != self.y.width()
        {
            return false;
        }
        let qc: Vec<u8> = self.missing.iter().map(|&col| self.project(coeffs, col)).collect();
        let innovative = self.tracker.insert_bytes(&qc);
        if innovative {
            self.combos.push((coeffs.to_vec(), payload.to_vec()));
        }
        innovative
    }

    /// Solves for the missing y-packets and returns the group secret.
    pub fn secret(mut self) -> Result<Vec<Payload>, ProtocolError> {
        let terminal = self.terminal;
        if !self.missing.is_empty() {
            if !self.complete() {
                let what = "not enough z combos received";
                return Err(ProtocolError::DecodeFailed { terminal, what });
            }
            let mut a = thinair_gf::Matrix::zero(0, self.missing.len());
            let mut rhs = PayloadPlane::with_capacity(self.combos.len(), self.y.width());
            for (q, payload) in &self.combos {
                let row: Vec<Gf256> =
                    self.missing.iter().map(|&col| Gf256(self.project(q, col))).collect();
                a.push_row(&row);
                // rhs = payload − Σ over known y's of (q·C)[j]·y_j.
                let mut acc = payload.clone();
                for (j, &have_j) in self.have.iter().enumerate() {
                    if have_j {
                        kernel::axpy(&mut acc, self.y.row(j), self.project(q, j));
                    }
                }
                rhs.push_row(&acc);
            }
            let what = "y-packets from the z system";
            let solved =
                a.solve_plane(&rhs).ok_or(ProtocolError::DecodeFailed { terminal, what })?;
            for (pos, &r) in self.missing.iter().enumerate() {
                self.y.row_mut(r).copy_from_slice(solved.row(pos));
            }
        }
        Ok(self.plan.d_mat.mul_plane(&self.y).to_payloads())
    }

    /// The plan it decodes under.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_plan, PlanParams};
    use crate::estimate::Estimator;
    use crate::eve::EveLedger;
    use crate::phase1::{run_phase1, Phase1Config};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use thinair_netsim::IidMedium;

    /// End-to-end phase1 + construction + phase2 over an iid medium.
    fn run_once(
        n_terminals: usize,
        p: f64,
        n_packets: usize,
        seed: u64,
    ) -> (Plan, XPool, Phase2Output, EveLedger) {
        let mut medium = IidMedium::symmetric(n_terminals + 1, p, seed);
        let mut stats = TxStats::new(n_terminals + 1);
        let mut eve = EveLedger::new(n_packets);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let cfg = Phase1Config {
            x_per_terminal: {
                let mut v = vec![0; n_terminals];
                v[0] = n_packets;
                v
            },
            payload_len: 16,
            max_attempts: 100_000,
        };
        let pool =
            run_phase1(&mut medium, &mut stats, &mut eve, &cfg, n_terminals, 0, &mut rng).unwrap();
        let est = Estimator::Oracle { eve_known: eve.received().clone() };
        let plan = build_plan(
            &pool.known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 64, ..PlanParams::exact() },
        )
        .unwrap();
        let out = run_phase2(&mut medium, &mut stats, &mut eve, &plan, &pool, 100_000).unwrap();
        (plan, pool, out, eve)
    }

    #[test]
    fn all_terminals_agree_on_the_secret() {
        for seed in 0..5 {
            let (plan, _, out, _) = run_once(4, 0.4, 30, seed);
            if plan.l == 0 {
                continue;
            }
            assert!(out.all_agree(), "seed {seed}");
            assert_eq!(out.secrets[0].len(), plan.l);
        }
    }

    #[test]
    fn oracle_estimator_yields_perfect_reliability() {
        let mut nonzero = 0;
        for seed in 10..20 {
            let (plan, _, _, eve) = run_once(3, 0.5, 40, seed);
            if plan.l == 0 {
                continue;
            }
            nonzero += 1;
            let r = eve.reliability(&plan.secret_rows_x());
            assert!((r - 1.0).abs() < 1e-12, "seed {seed}: reliability {r} with oracle estimator");
        }
        assert!(nonzero >= 5, "too few successful rounds to be meaningful");
    }

    /// Every terminal's secret is `D·W·x`, computed straight from the
    /// ground-truth x payloads.
    #[test]
    fn secret_matches_coordinator_ground_truth() {
        let mut nonzero = 0;
        for seed in 40..52 {
            let (plan, pool, out, _) = run_once(3, 0.3, 24, seed);
            if plan.l == 0 {
                continue;
            }
            nonzero += 1;
            let truth = plan.secret_rows_x().mul_plane(&pool.payloads).to_payloads();
            assert_eq!(truth.len(), plan.l);
            assert_eq!(out.secrets.len(), 3);
            for (t, secret) in out.secrets.iter().enumerate() {
                assert_eq!(secret, &truth, "seed {seed}: terminal {t}");
            }
        }
        assert!(nonzero >= 10, "only {nonzero} rounds had a secret");
    }

    #[test]
    fn eve_ledger_accumulates_z_rows() {
        let (plan, _, _, eve) = run_once(4, 0.45, 32, 77);
        if plan.m() == plan.l {
            return; // no z-packets this time
        }
        // Eve's rank must be at least the number of independent z rows
        // beyond her received x's — at minimum her knowledge is non-trivial.
        assert!(eve.knowledge_rank() >= plan.m() - plan.l);
    }

    /// A round with a secret and a terminal short of at least two
    /// y-rows, that terminal, and the round's z-packets.
    fn short_terminal() -> (Plan, XPool, usize, PayloadPlane) {
        for seed in 0..64 {
            let (plan, pool, _, _) = run_once(3, 0.4, 24, seed);
            let short = (1..3).find(|&t| plan.m() - plan.decodable[t].len() >= 2);
            if let (true, Some(t)) = (plan.l > 0, short) {
                let y = plan.y_plane(pool.payload_len, |j| Some(pool.payloads.row(j))).unwrap();
                let z = plan.c_mat.mul_plane(&y);
                return (plan, pool, t, z);
            }
        }
        panic!("no seed gave a terminal two rows short");
    }

    /// Terminal `t`'s reconstructor, with every x-packet it knows.
    fn reconstructor(plan: &Plan, pool: &XPool, t: usize) -> Reconstructor {
        let x = |j| pool.known[t].contains(&j).then(|| pool.payloads.row(j));
        Reconstructor::new(plan.clone(), pool.payload_len, t, x).unwrap()
    }

    /// A random fountain combo of the z-packets: coefficients, payload.
    fn combo(z: &PayloadPlane, rng: &mut StdRng) -> (Vec<u8>, Vec<u8>) {
        let q: Vec<u8> = (0..z.rows()).map(|_| rng.gen()).collect();
        let mut payload = vec![0u8; z.width()];
        for (k, &qk) in q.iter().enumerate() {
            kernel::axpy(&mut payload, z.row(k), qk);
        }
        (q, payload)
    }

    #[test]
    fn reconstructor_refuses_a_combo_of_the_wrong_shape() {
        let (plan, pool, t, z) = short_terminal();
        let mut r = reconstructor(&plan, &pool, t);
        let (q, payload) = combo(&z, &mut StdRng::seed_from_u64(1));
        assert!(!r.offer(&q[1..], &payload), "one coefficient short");
        assert!(!r.offer(&[q.clone(), vec![1]].concat(), &payload), "one coefficient long");
        assert!(!r.offer(&q, &payload[1..]), "payload one byte short");
        assert!(!r.offer(&q, &[payload.clone(), vec![0]].concat()), "payload one byte long");
        assert!(r.offer(&q, &payload), "the well-formed combo is innovative");
    }

    #[test]
    fn reconstructor_does_not_count_a_repeated_combo() {
        let (plan, pool, t, z) = short_terminal();
        let mut r = reconstructor(&plan, &pool, t);
        let (q, payload) = combo(&z, &mut StdRng::seed_from_u64(2));
        assert!(r.offer(&q, &payload));
        assert!(!r.offer(&q, &payload), "a repeat adds nothing");
        let doubled: Vec<u8> = q.iter().map(|&c| kernel::gf_mul(c, 2)).collect();
        let mut twice = payload.clone();
        kernel::scale_in_place(&mut twice, 2);
        assert!(!r.offer(&doubled, &twice), "a multiple adds nothing");
        assert!(!r.complete());
    }

    /// `complete` turns true with the `missing`-th innovative combo, not
    /// before; then the secret is `D·W·x`, and further combos are not
    /// innovative.
    #[test]
    fn reconstructor_completes_after_exactly_its_missing_rows() {
        let (plan, pool, t, z) = short_terminal();
        let missing = plan.m() - plan.decodable[t].len();
        let mut r = reconstructor(&plan, &pool, t);
        let mut rng = StdRng::seed_from_u64(3);
        let mut innovative = 0;
        while innovative < missing {
            assert!(!r.complete(), "complete after {innovative} of {missing} rows");
            let (q, payload) = combo(&z, &mut rng);
            innovative += usize::from(r.offer(&q, &payload));
        }
        assert!(r.complete());
        let (q, payload) = combo(&z, &mut rng);
        assert!(!r.offer(&q, &payload), "complete takes nothing more");
        let truth = plan.secret_rows_x().mul_plane(&pool.payloads).to_payloads();
        assert_eq!(r.secret().unwrap(), truth);
    }

    #[test]
    fn reconstructor_without_a_direct_row_payload_fails_to_decode() {
        let (plan, pool, t, _) = short_terminal();
        let row = plan.decodable[t].first().copied().expect("a direct row");
        let lost = plan.rows[row].support[0];
        let x = |j| (j != lost && pool.known[t].contains(&j)).then(|| pool.payloads.row(j));
        let err = Reconstructor::new(plan.clone(), pool.payload_len, t, x).err();
        assert!(
            matches!(err, Some(ProtocolError::DecodeFailed { terminal, .. }) if terminal == t),
            "{err:?}"
        );
    }

    #[test]
    fn reconstructor_short_of_combos_fails_to_decode() {
        let (plan, pool, t, _) = short_terminal();
        let err = reconstructor(&plan, &pool, t).secret().err();
        assert!(
            matches!(err, Some(ProtocolError::DecodeFailed { terminal, .. }) if terminal == t),
            "{err:?}"
        );
    }
}
