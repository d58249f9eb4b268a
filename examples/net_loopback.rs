//! From simulation to sockets: the same protocol round three ways.
//!
//! 1. The synchronous omniscient simulation (`run_group_round`) — the
//!    reproduction used for the paper's figures.
//! 2. The distributed async state machines over the *simulated* medium
//!    (`SimTransport`): real message passing, simulated losses.
//! 3. The identical state machines over real loopback UDP sockets with
//!    receiver-side erasure injection.
//!
//! Run: `cargo run --example net_loopback`

use thinair::net::driver::{drive_loopback, drive_sim};
use thinair::net::session::SessionConfig;
use thinair::netsim::IidMedium;
use thinair::protocol::round::{run_group_round, RoundConfig, XSchedule};
use thinair::protocol::{Estimator, Tuning};

fn main() {
    let n_terminals = 4;

    // --- 1. The omniscient simulation --------------------------------
    let cfg = RoundConfig {
        schedule: XSchedule::CoordinatorOnly(60),
        payload_len: 24,
        estimator: Estimator::LeaveOneOut(Tuning::default()),
        ..RoundConfig::default()
    };
    let medium = IidMedium::symmetric(n_terminals + 1, 0.4, 7);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let out = run_group_round(medium, n_terminals, 0, &cfg, &mut rng).unwrap();
    println!(
        "simulation:    L = {:>2}, agree = {}, efficiency = {:.3}",
        out.l,
        out.all_terminals_agree(),
        out.efficiency()
    );

    // --- 2. Distributed state machines over the simulated medium -----
    let net_cfg = SessionConfig {
        n_nodes: n_terminals as u8,
        payload_len: 24,
        drop_prob: 0.0, // the medium supplies the losses
        ..SessionConfig::default()
    };
    let medium = IidMedium::symmetric(n_terminals + 1, 0.4, 2);
    let outcomes = drive_sim(medium, &net_cfg, &[1], 2).unwrap().outcomes.remove(0);
    let agree = outcomes.windows(2).all(|w| w[0].secret == w[1].secret);
    println!("sim transport: L = {:>2}, agree = {}", outcomes[0].l, agree);

    // --- 3. The same machines over real loopback UDP sockets ---------
    let udp_cfg = SessionConfig {
        n_nodes: n_terminals as u8,
        payload_len: 24,
        drop_prob: 0.4, // loopback loses nothing; inject the erasures
        ..SessionConfig::default()
    };
    let outcomes = drive_loopback(&udp_cfg, &[2], 3).unwrap().remove(0);
    let agree = outcomes.windows(2).all(|w| w[0].secret == w[1].secret);
    println!("loopback UDP:  L = {:>2}, agree = {}", outcomes[0].l, agree);
    if let Some(key) = outcomes[0].key() {
        let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
        println!("shared key:    {hex}");
    }
}
