//! The unicast baseline (paper §3.2, Figure 1's dashed curves).
//!
//! "Once Alice has created a perfect pair-wise secret with each terminal
//! Ti, she could use this secret to unicast a group secret to Ti. This
//! 'unicast' algorithm, however, has poor scalability."
//!
//! Concretely: phase 1 runs unchanged; Alice then derives, for each
//! terminal, a pairwise secret (a Cauchy privacy-amplification of their
//! shared packets sized by the estimator); she picks the *weakest*
//! terminal's pairwise secret as the group secret and, for every other
//! terminal, reliably broadcasts the group secret XOR-padded with that
//! terminal's pairwise secret. Every padded delivery costs `L` packet
//! payloads on the air — `(n−2)·L` payload transmissions in total, which
//! is what drives the efficiency to 0 as `n` grows.

use std::collections::BTreeSet;

use rand::Rng;
use thinair_gf::{Gf256, Matrix};
use thinair_netsim::stats::TxClass;
use thinair_netsim::{Medium, TxStats};

use crate::transport::reliable_message;

use crate::construct::{verify_coefficients, HallLedger, YRow};
use crate::error::ProtocolError;
use crate::estimate::Estimator;
use crate::eve::EveLedger;
use crate::packet::Payload;
use crate::phase1::{run_phase1, Phase1Config, XPool};
use crate::round::{RoundConfig, XSchedule};
use crate::wire::{payload_to_bytes, Message, SparseRow};

/// Outcome of a unicast-baseline round.
#[derive(Clone, Debug)]
pub struct UnicastOutcome {
    /// Group-secret length in packets.
    pub l: usize,
    /// Per-terminal derived secrets.
    pub secrets: Vec<Vec<Payload>>,
    /// The x-pool.
    pub pool: XPool,
    /// Bit ledger.
    pub stats: TxStats,
    /// Eve ground truth.
    pub eve: EveLedger,
    /// Group-secret rows in x-space (for reliability).
    pub secret_rows: Matrix,
}

impl UnicastOutcome {
    /// True iff every terminal derived the identical secret.
    pub fn all_terminals_agree(&self) -> bool {
        self.secrets.windows(2).all(|w| w[0] == w[1])
    }

    /// Secret size in bits.
    pub fn secret_bits(&self) -> u64 {
        (self.l * self.pool.payload_len * 8) as u64
    }

    /// Efficiency: secret bits over all transmitted bits.
    pub fn efficiency(&self) -> f64 {
        let total = self.stats.total();
        if total == 0 {
            0.0
        } else {
            self.secret_bits() as f64 / total as f64
        }
    }

    /// Reliability against the ground-truth Eve.
    pub fn reliability(&self) -> f64 {
        self.eve.reliability(&self.secret_rows)
    }
}

/// Runs one unicast-baseline round (same interface as
/// [`crate::round::run_group_round`]).
pub fn run_unicast_round(
    mut medium: impl Medium,
    n_terminals: usize,
    coordinator: usize,
    cfg: &RoundConfig,
    rng: &mut impl Rng,
) -> Result<UnicastOutcome, ProtocolError> {
    let x_per_terminal = match &cfg.schedule {
        XSchedule::CoordinatorOnly(n) => {
            let mut v = vec![0; n_terminals];
            v[coordinator] = *n;
            v
        }
        XSchedule::Uniform(per) => vec![*per; n_terminals],
        XSchedule::Explicit(v) => v.clone(),
    };
    let n_packets: usize = x_per_terminal.iter().sum();
    let mut stats = TxStats::new(medium.node_count());
    let mut eve = EveLedger::new(n_packets);
    let p1 = Phase1Config {
        x_per_terminal,
        payload_len: cfg.payload_len,
        max_attempts: cfg.max_attempts,
    };
    let pool = run_phase1(&mut medium, &mut stats, &mut eve, &p1, n_terminals, coordinator, rng)?;

    let estimator = match &cfg.estimator {
        Estimator::Oracle { .. } => Estimator::Oracle { eve_known: eve.received().clone() },
        other => other.clone(),
    };

    // Pairwise budgets and shared sets.
    let others: Vec<usize> = (0..n_terminals).filter(|&i| i != coordinator).collect();
    let mut shared: Vec<Vec<usize>> = vec![Vec::new(); n_terminals];
    let mut budget = vec![0usize; n_terminals];
    for &i in &others {
        let s: BTreeSet<usize> =
            pool.known[coordinator].intersection(&pool.known[i]).copied().collect();
        budget[i] = estimator.pair_budget(&s, &pool.known, coordinator, i).min(s.len());
        shared[i] = s.into_iter().collect();
    }

    // Joint sizing: the pads are one-time pads whose *differences* Eve
    // overhears, so the (n−1) pad blocks must be jointly uniform given
    // Eve's knowledge — the same Hall condition the group construction
    // enforces, here over per-terminal block supports. Find the largest L
    // for which (n−1)·L rows fit.
    let views = estimator.views(&pool.known, pool.n_packets);
    let mut l = others.iter().map(|&i| budget[i]).min().unwrap_or(0);
    'size: while l > 0 {
        let mut hall = HallLedger::new(&views);
        let rows_per_terminal = l;
        for &i in &others {
            for _ in 0..rows_per_terminal {
                if !hall.try_add(&shared[i]) {
                    l -= 1;
                    continue 'size;
                }
            }
        }
        break;
    }
    if l == 0 {
        return Ok(UnicastOutcome {
            l: 0,
            secrets: vec![Vec::new(); n_terminals],
            secret_rows: Matrix::zero(0, pool.n_packets),
            pool,
            stats,
            eve,
        });
    }

    // Pairwise pads: L random rows over each shared set, redrawn until
    // the generic ranks promised by the Hall check are realized.
    let mut all_rows: Vec<YRow> = Vec::new();
    let mut ok = false;
    for _ in 0..32 {
        all_rows.clear();
        let mut w = Matrix::zero(0, pool.n_packets);
        for &i in &others {
            for _ in 0..l {
                let coeffs: Vec<Gf256> = loop {
                    let c: Vec<Gf256> = (0..shared[i].len()).map(|_| Gf256(rng.gen())).collect();
                    if c.iter().any(|x| !x.is_zero()) {
                        break c;
                    }
                };
                let row = YRow { support: shared[i].clone(), coeffs };
                w.push_row(&row.dense(pool.n_packets));
                all_rows.push(row);
            }
        }
        if verify_coefficients(&w, &all_rows, &views) {
            ok = true;
            break;
        }
    }
    if !ok {
        return Err(ProtocolError::ConstructionFailed("could not draw full-rank unicast pads"));
    }

    // Split the stacked rows back into per-terminal blocks.
    let mut pad_rows: Vec<Matrix> = vec![Matrix::zero(0, 0); n_terminals];
    let mut pads: Vec<Vec<Payload>> = vec![Vec::new(); n_terminals];
    let mut announce_rows: Vec<SparseRow> = Vec::new();
    for (blk, &i) in others.iter().enumerate() {
        let rows_i = &all_rows[blk * l..(blk + 1) * l];
        let mut dense = Matrix::zero(0, pool.n_packets);
        for row in rows_i {
            dense.push_row(&row.dense(pool.n_packets));
            announce_rows.push(SparseRow {
                support: row.support.iter().map(|&j| j as u16).collect(),
                coeffs: row.coeffs.iter().map(|c| c.value()).collect(),
            });
        }
        // Pad payloads (both Alice and terminal i can compute these).
        for row in rows_i {
            let mut acc = vec![0u8; pool.payload_len];
            row.accumulate(&mut acc, |j| Some(pool.payloads.row(j)))
                .map_err(|_| ProtocolError::ConstructionFailed("a pad row outside the x-pool"))?;
            pads[i].push(acc.into_iter().map(Gf256).collect());
        }
        pad_rows[i] = dense;
    }

    // Announce all pairwise coefficient vectors (identities only).
    let targets: Vec<usize> = others.clone();
    let announce = Message::YAnnounce { rows: announce_rows };
    reliable_message(
        &mut medium,
        stats_mut(&mut stats),
        coordinator,
        announce.bits(),
        &targets,
        TxClass::Control,
        cfg.max_attempts,
    )?;

    // The group secret = the weakest terminal's pairwise secret.
    let weakest = *others.iter().min_by_key(|&&i| budget[i]).expect("at least one terminal");
    let secret: Vec<Payload> = pads[weakest].clone();
    let secret_rows = pad_rows[weakest].clone();

    // Unicast deliveries: for every other terminal, broadcast secret ⊕ pad.
    for &i in &others {
        if i == weakest {
            continue;
        }
        let padded: Vec<Vec<u8>> = secret
            .iter()
            .zip(pads[i].iter())
            .map(|(s, p)| payload_to_bytes(&crate::packet::xor_payloads(s, p)))
            .collect();
        let msg = Message::PadDelivery { terminal: i as u8, payloads: padded };
        reliable_message(
            &mut medium,
            stats_mut(&mut stats),
            coordinator,
            msg.bits(),
            &targets,
            TxClass::Control,
            cfg.max_attempts,
        )?;
        // Eve hears the padded contents: rows (secret_rows + pad_rows_i).
        for r in 0..l {
            let combined: Vec<Gf256> =
                (0..pool.n_packets).map(|c| secret_rows[(r, c)] + pad_rows[i][(r, c)]).collect();
            eve.note_public_row(&combined);
        }
    }

    // Terminals derive the secret.
    let mut secrets: Vec<Vec<Payload>> = vec![Vec::new(); n_terminals];
    secrets[coordinator] = secret.clone();
    for &i in &others {
        secrets[i] = if i == weakest {
            pads[i].clone()
        } else {
            // secret = padded ⊕ pad_i; both sides have the same values in
            // simulation, so recompute from ground truth the terminal has.
            secret
                .iter()
                .zip(pads[i].iter())
                .map(|(s, p)| {
                    let padded = crate::packet::xor_payloads(s, p);
                    crate::packet::xor_payloads(&padded, p)
                })
                .collect()
        };
    }

    Ok(UnicastOutcome { l, secrets, secret_rows, pool, stats, eve })
}

// Helper so the borrow of `stats` in closures stays simple.
fn stats_mut(stats: &mut TxStats) -> &mut TxStats {
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{run_group_round, RoundConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thinair_netsim::IidMedium;

    fn cfg(n: usize) -> RoundConfig {
        RoundConfig {
            schedule: XSchedule::CoordinatorOnly(n),
            payload_len: 16,
            estimator: Estimator::Oracle { eve_known: Default::default() },
            ..RoundConfig::default()
        }
    }

    #[test]
    fn unicast_round_agrees_and_is_secret() {
        let mut rng = StdRng::seed_from_u64(1);
        let medium = IidMedium::symmetric(5, 0.4, 3);
        let out = run_unicast_round(medium, 4, 0, &cfg(50), &mut rng).unwrap();
        assert!(out.l > 0);
        assert!(out.all_terminals_agree());
        assert!(
            (out.reliability() - 1.0).abs() < 1e-12,
            "oracle unicast reliability {}",
            out.reliability()
        );
    }

    #[test]
    fn unicast_is_less_efficient_than_group_for_many_terminals() {
        // Same channel conditions, n = 6: the group algorithm must beat
        // the unicast baseline (Figure 1's message).
        let mut rng = StdRng::seed_from_u64(7);
        let n = 6usize;
        let g = run_group_round(IidMedium::symmetric(n + 1, 0.5, 21), n, 0, &cfg(60), &mut rng)
            .unwrap();
        let u = run_unicast_round(IidMedium::symmetric(n + 1, 0.5, 21), n, 0, &cfg(60), &mut rng)
            .unwrap();
        assert!(g.l > 0 && u.l > 0);
        assert!(
            g.efficiency() > u.efficiency(),
            "group {} vs unicast {}",
            g.efficiency(),
            u.efficiency()
        );
    }

    #[test]
    fn empty_when_eve_hears_all() {
        let mut rng = StdRng::seed_from_u64(2);
        let medium = IidMedium::symmetric(4, 0.0, 5);
        let out = run_unicast_round(medium, 3, 0, &cfg(20), &mut rng).unwrap();
        assert_eq!(out.l, 0);
        assert_eq!(out.efficiency(), 0.0);
    }

    #[test]
    fn pads_protect_the_secret_but_leak_combinations() {
        // The padded broadcasts are known to Eve; with the oracle
        // estimator they must not reduce secrecy below L.
        let mut rng = StdRng::seed_from_u64(9);
        let medium = IidMedium::symmetric(5, 0.5, 31);
        let out = run_unicast_round(medium, 4, 0, &cfg(40), &mut rng).unwrap();
        if out.l == 0 {
            return;
        }
        assert_eq!(out.eve.secret_dims(&out.secret_rows), out.l);
    }
}
