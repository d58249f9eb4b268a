//! Golden-output pins for the coding hot path.
//!
//! These hashes were recorded from the scalar (pre-kernel) implementation
//! and must never change: the byte-plane kernels are pure refactors of the
//! same field arithmetic, so every derived secret, y-payload and coded
//! share stays byte-identical. If a kernel change breaks one of these, it
//! changed the protocol's outputs, not just its speed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thinair_core::construct::{build_plan, PlanParams};
use thinair_core::estimate::Estimator;
use thinair_core::eve::EveLedger;
use thinair_core::phase1::{run_phase1, Phase1Config};
use thinair_core::phase2::run_phase2;
use thinair_gf::{Gf256, Matrix, PayloadPlane};
use thinair_netsim::{IidMedium, TxStats};

/// FNV-1a over a byte stream (stable, dependency-free fingerprint).
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn payloads_digest(payloads: &[Vec<Gf256>]) -> u64 {
    fnv64(payloads.iter().flat_map(|p| p.iter().map(|s| s.value())))
}

/// One deterministic group round: phase 1 + construction + phase 2 over
/// an iid medium, returning (y digest, secrets digest, l).
fn group_round(seed: u64) -> (u64, u64, usize) {
    let n_terminals = 4;
    let n_packets = 30;
    let mut medium = IidMedium::symmetric(n_terminals + 1, 0.4, seed);
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
    assert!(out.all_agree());
    let y = payloads_digest(&out.y_payloads);
    let s = fnv64(
        out.secrets.iter().flat_map(|per_t| per_t.iter().flat_map(|p| p.iter().map(|x| x.value()))),
    );
    (y, s, plan.l)
}

#[test]
fn group_round_outputs_are_pinned() {
    // Recorded from the pre-kernel scalar implementation.
    assert_eq!(group_round(42), (0xF4A4_0180_D76B_CA41, 0xCD8B_74B5_3FE2_2B65, 5));
}

#[test]
fn reed_solomon_outputs_are_pinned() {
    let mut rng = StdRng::seed_from_u64(3);
    let rs = thinair_mds::ReedSolomon::new(5, 9).unwrap();
    let data: Vec<Vec<Gf256>> =
        (0..5).map(|_| (0..33).map(|_| Gf256(rng.gen())).collect()).collect();
    let coded = rs.encode(&data);
    assert_eq!(payloads_digest(&coded), 0x9C5F_3FDD_432B_6A9C);
    let shares: Vec<(usize, Vec<Gf256>)> = (4..9).map(|i| (i, coded[i].clone())).collect();
    assert_eq!(rs.decode(&shares).unwrap(), data);
}

#[test]
fn matrix_payload_ops_are_pinned() {
    let mut rng = StdRng::seed_from_u64(11);
    let a = Matrix::random(6, 6, &mut rng);
    let payloads: Vec<Vec<Gf256>> =
        (0..6).map(|_| (0..21).map(|_| Gf256(rng.gen())).collect()).collect();
    let out = a.mul_plane(&PayloadPlane::from_payloads(&payloads));
    assert_eq!(payloads_digest(&out.to_payloads()), 0x4998_5DE0_2B1F_7620);
    if a.rank() == 6 {
        assert_eq!(a.solve_plane(&out).unwrap().to_payloads(), payloads);
    }
}
