//! **M** — Criterion micro-benchmarks for the protocol's primitives.
//!
//! The paper claims the protocol is "of polynomial complexity ...
//! implementable in simple wireless devices"; these benchmarks put
//! numbers on the building blocks: GF(2^8) kernels, dense linear algebra,
//! Reed–Solomon coding, the y/z/s construction, and a full protocol
//! round.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;

use thinair_core::construct::{build_plan, PlanParams};
use thinair_core::round::{run_group_round, RoundConfig, XSchedule};
use thinair_core::{Estimator, Tuning};
use thinair_gf::{kernel, Gf256, Matrix, PayloadPlane};
use thinair_mds::ReedSolomon;
use thinair_netsim::IidMedium;

fn bench_gf_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a: Vec<Gf256> = (0..1024).map(|_| Gf256(rng.gen())).collect();
    let b: Vec<Gf256> = (0..1024).map(|_| Gf256(rng.gen())).collect();
    c.bench_function("gf/dot_1k", |bench| {
        bench.iter(|| thinair_gf::dot(black_box(&a), black_box(&b)))
    });
    // The byte-plane axpy: 1 KiB of symbols, the protocol's hot-path op.
    let ab: Vec<u8> = a.iter().map(|x| x.value()).collect();
    let bb: Vec<u8> = b.iter().map(|x| x.value()).collect();
    c.bench_function("gf/axpy_1k", |bench| {
        bench.iter_batched(
            || ab.clone(),
            |mut dst| kernel::axpy(&mut dst, &bb, 0x53),
            BatchSize::SmallInput,
        )
    });
    // Same op through the legacy `&[Gf256]` wrapper.
    c.bench_function("gf/axpy_gf256_1k", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut dst| thinair_gf::add_assign_scaled(&mut dst, &b, Gf256(0x53)),
            BatchSize::SmallInput,
        )
    });
    // GF(2^8) addition (the c = 1 lane).
    c.bench_function("gf/xor_1k", |bench| {
        bench.iter_batched(
            || ab.clone(),
            |mut dst| kernel::xor_into(&mut dst, &bb),
            BatchSize::SmallInput,
        )
    });
}

fn bench_matrix(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let m64 = Matrix::random(64, 64, &mut rng);
    c.bench_function("matrix/rank_64x64", |bench| bench.iter(|| black_box(&m64).rank()));
    c.bench_function("matrix/inverse_64x64", |bench| bench.iter(|| black_box(&m64).inverse()));
    let m128 = Matrix::random(120, 160, &mut rng);
    c.bench_function("matrix/rank_120x160", |bench| bench.iter(|| black_box(&m128).rank()));

    // Payload-bundle application: the y/z/s hot path (64 coefficient rows
    // acting on 64 payloads of 1 KiB each).
    let payloads: Vec<Vec<Gf256>> =
        (0..64).map(|_| (0..1024).map(|_| Gf256(rng.gen())).collect()).collect();
    let plane = PayloadPlane::from_payloads(&payloads);
    c.bench_function("plane/mul_plane_64x64_1k", |bench| {
        bench.iter(|| black_box(&m64).mul_plane(black_box(&plane)))
    });
    let rhs_plane = m64.mul_plane(&plane);
    c.bench_function("plane/solve_plane_64x64_1k", |bench| {
        bench.iter(|| black_box(&m64).solve_plane(black_box(&rhs_plane)).unwrap())
    });
}

fn bench_rs(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let rs = ReedSolomon::new(16, 24).unwrap();
    let data: Vec<Vec<Gf256>> =
        (0..16).map(|_| (0..100).map(|_| Gf256(rng.gen())).collect()).collect();
    let coded = rs.encode(&data);
    c.bench_function("rs/encode_16_24_100B", |bench| bench.iter(|| rs.encode(black_box(&data))));
    let shares: Vec<(usize, Vec<Gf256>)> = (8..24).map(|i| (i, coded[i].clone())).collect();
    c.bench_function("rs/decode_all_parity", |bench| {
        bench.iter(|| rs.decode(black_box(&shares)).unwrap())
    });
    // Direct plane forms (no Vec<Vec<_>> conversion at the boundary).
    let data_plane = PayloadPlane::from_payloads(&data);
    c.bench_function("rs/encode_plane_16_24_100B", |bench| {
        bench.iter(|| rs.encode_plane(black_box(&data_plane)))
    });
    let share_idx: Vec<usize> = (8..24).collect();
    let share_plane = rs.encode_plane(&data_plane).select_rows(&share_idx);
    c.bench_function("rs/decode_plane_all_parity", |bench| {
        bench.iter(|| rs.decode_plane(black_box(&share_idx), black_box(&share_plane)).unwrap())
    });
}

fn bench_construction(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let n_packets = 120;
    let known: Vec<BTreeSet<usize>> = (0..6)
        .map(|i| {
            if i == 0 {
                (0..n_packets).collect()
            } else {
                (0..n_packets).filter(|_| rng.gen_bool(0.55)).collect()
            }
        })
        .collect();
    let est = Estimator::LeaveOneOut(Tuning::default());
    c.bench_function("construct/build_plan_n6_120pkts", |bench| {
        bench.iter(|| {
            let mut r = StdRng::seed_from_u64(7);
            build_plan(black_box(&known), 0, n_packets, &est, &mut r, PlanParams::default())
                .unwrap()
        })
    });
}

fn bench_full_round(c: &mut Criterion) {
    let cfg = RoundConfig {
        schedule: XSchedule::CoordinatorOnly(60),
        payload_len: 100,
        estimator: Estimator::LeaveOneOut(Tuning::default()),
        ..RoundConfig::default()
    };
    c.bench_function("round/group_n5_60pkts_iid", |bench| {
        bench.iter(|| {
            let medium = IidMedium::symmetric(6, 0.5, 11);
            let mut rng = StdRng::seed_from_u64(13);
            run_group_round(medium, 5, 0, black_box(&cfg), &mut rng).unwrap()
        })
    });
}

fn criterion_config() -> Criterion {
    // Keep `cargo bench` wall-time reasonable: these are smoke-level
    // latency measurements, not publication-grade statistics.
    Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench_gf_kernels, bench_matrix, bench_rs, bench_construction, bench_full_round
}
criterion_main!(benches);
