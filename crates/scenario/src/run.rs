//! The engine: drive one spec's sessions, measure, and score against the
//! model and against Eve.
//!
//! A run executes the spec's sessions *concurrently* over
//! [`thinair_net::driver::drive_sim`] — real coordinator/terminal state
//! machines multiplexed by session id over simulated transports — then
//! audits each session offline:
//!
//! * **Agreement** — every node must hold the identical secret
//!   ([`ScenarioError::Disagreement`] otherwise; it never fires unless
//!   the protocol regresses).
//! * **Model** — the coordinator's [`SessionTrace`] re-derives the plan,
//!   and the achieved `(l, m)` become a measured efficiency comparable
//!   to [`thinair_model::predict()`]'s fluid-limit optimum.
//! * **Eve** — each antenna's deterministic reception pattern feeds a
//!   ground-truth [`EveLedger`]; together with the published z-rows it
//!   scores the paper's *reliability* metric exactly.
//!
//! Grids shard across worker threads with
//! [`thinair_testbed::parallel_map`]; each thread hosts its own
//! single-threaded runtime, and specs never share mutable state, so the
//! sharded sweep equals the serial one result-for-result.

use std::time::Instant;

use thinair_core::eve::EveLedger;
use thinair_core::ProtocolError;
use thinair_model::{predict, Prediction};
use thinair_net::driver::drive_sim_chaos;
use thinair_net::session::{derive_plan, AbortReason, NetError, SessionTrace};
use thinair_netsim::IidMedium;
use thinair_testbed::parallel_map;

use crate::spec::ScenarioSpec;

/// Everything that can go wrong running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The spec itself is malformed.
    Invalid(&'static str),
    /// The networked run failed.
    Net(NetError),
    /// Offline plan re-derivation failed.
    Protocol(ProtocolError),
    /// Nodes finished a session with different secrets.
    Disagreement {
        /// The session whose secrets split.
        session: u64,
    },
    /// A session aborted instead of completing. `run_scenario` measures
    /// completed rounds only; fault schedules that can abort belong in
    /// the soak harness ([`crate::soak`]), which audits aborts instead
    /// of failing on them.
    Aborted {
        /// The aborted session.
        session: u64,
        /// The first aborting node.
        node: u8,
        /// Its structured reason.
        reason: AbortReason,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(what) => write!(f, "invalid spec: {what}"),
            ScenarioError::Net(e) => write!(f, "run failed: {e}"),
            ScenarioError::Protocol(e) => write!(f, "audit failed: {e}"),
            ScenarioError::Disagreement { session } => {
                write!(f, "nodes disagree on the secret of session {session:#x}")
            }
            ScenarioError::Aborted { session, node, reason } => {
                write!(f, "session {session:#x} aborted on node {node}: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<NetError> for ScenarioError {
    fn from(e: NetError) -> Self {
        ScenarioError::Net(e)
    }
}

impl From<ProtocolError> for ScenarioError {
    fn from(e: ProtocolError) -> Self {
        ScenarioError::Protocol(e)
    }
}

/// Per-session measurements of one scenario run.
#[derive(Clone, Debug)]
pub struct SessionMeasurement {
    /// Session id.
    pub session: u64,
    /// Secret length achieved, in packets.
    pub l: usize,
    /// y-rows the plan spent.
    pub m: usize,
    /// z-combos the fountain streamed (timing-sensitive: scheduler
    /// jitter can add top-up combos).
    pub z_sent: u32,
    /// Ground-truth reliability of this session's secret against the
    /// spec's Eve (1.0 = she knows nothing; the paper's `r`).
    pub eve_reliability: f64,
    /// Fraction of the x-pool Eve observed (union over antennas).
    pub eve_seen_fraction: f64,
}

impl SessionMeasurement {
    /// This session's measured efficiency `l / (N + m − l)`.
    pub fn efficiency(&self, n_packets: usize) -> f64 {
        Prediction::measured_efficiency(n_packets, self.m, self.l)
    }
}

/// One scenario's complete measurement record.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The spec that produced it.
    pub spec: ScenarioSpec,
    /// Resolved x-pool size (packets per session).
    pub n_packets: usize,
    /// Per-session audit, in session-id order.
    pub per_session: Vec<SessionMeasurement>,
    /// The closed-form model's prediction at `(terminals, effective_p)`.
    pub prediction: Prediction,
    /// Total secret bits extracted across sessions.
    pub secret_bits: u64,
    /// Frames put on the air across the whole run (timing-sensitive).
    pub frames_sent: u64,
    /// Bits put on the air across the whole run (timing-sensitive).
    pub bits_transmitted: u64,
    /// Wall-clock duration of the run in milliseconds (timing).
    pub wall_ms: f64,
}

impl ScenarioResult {
    /// Mean secret length over sessions, in packets.
    pub fn mean_l(&self) -> f64 {
        mean(self.per_session.iter().map(|s| s.l as f64))
    }

    /// Mean y-row count over sessions.
    pub fn mean_m(&self) -> f64 {
        mean(self.per_session.iter().map(|s| s.m as f64))
    }

    /// Mean measured efficiency `l / (N + m − l)` over sessions — the
    /// apples-to-apples number against
    /// [`Prediction::group_efficiency`].
    pub fn measured_efficiency(&self) -> f64 {
        mean(self.per_session.iter().map(|s| s.efficiency(self.n_packets)))
    }

    /// Measured over predicted efficiency — the model-vs-measurement
    /// headline (1.0 = the run achieved the fluid-limit optimum).
    pub fn efficiency_ratio(&self) -> f64 {
        let predicted = self.prediction.group_efficiency;
        if predicted <= 0.0 {
            return 0.0;
        }
        self.measured_efficiency() / predicted
    }

    /// Mean ground-truth reliability against the spec's Eve.
    pub fn mean_eve_reliability(&self) -> f64 {
        mean(self.per_session.iter().map(|s| s.eve_reliability))
    }

    /// Mean fraction of the x-pool Eve observed.
    pub fn mean_eve_seen(&self) -> f64 {
        mean(self.per_session.iter().map(|s| s.eve_seen_fraction))
    }

    /// Total z-combos streamed across sessions (timing-sensitive).
    pub fn z_sent(&self) -> u64 {
        self.per_session.iter().map(|s| s.z_sent as u64).sum()
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Runs one scenario end-to-end and audits every session.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioResult, ScenarioError> {
    spec.validate().map_err(ScenarioError::Invalid)?;
    let cfg = spec.session_config();
    let n_packets = cfg.n_packets();
    let sessions = spec.session_ids();

    // The medium is lossless: every data-plane loss comes from the
    // per-receiver erasure chains in the session config, which keeps the
    // protocol outcome a pure function of the spec (the transport-level
    // frame/bit counters remain scheduler-sensitive and are reported as
    // timing-class measurements).
    let started = Instant::now();
    let run = drive_sim_chaos(
        IidMedium::symmetric(spec.terminals as usize, 0.0, spec.seed),
        &cfg,
        &sessions,
        spec.seed,
        spec.faults,
        spec.fault_seed(),
    )?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut per_session = Vec::with_capacity(sessions.len());
    let mut secret_bits = 0u64;
    for (outcomes, &session) in run.outcomes.iter().zip(sessions.iter()) {
        if let Some(aborted) = outcomes.iter().find(|o| o.abort.is_some()) {
            return Err(ScenarioError::Aborted {
                session,
                node: aborted.node,
                reason: aborted.abort.clone().expect("found by abort"),
            });
        }
        let coordinator = outcomes
            .iter()
            .find(|o| o.node == cfg.coordinator)
            .expect("the coordinator reports every session");
        if outcomes.iter().any(|o| o.secret != coordinator.secret) {
            return Err(ScenarioError::Disagreement { session });
        }
        let trace: &SessionTrace =
            coordinator.trace.as_ref().expect("coordinator outcomes carry a trace");
        let plan = derive_plan(&cfg, &trace.reports, trace.plan_seed)?;
        debug_assert_eq!((plan.m(), plan.l), (coordinator.m, coordinator.l));

        // Ground-truth Eve: the union of her antennas' receptions plus
        // the published z-rows (the paper conservatively assumes she
        // hears every reliable broadcast).
        let mut ledger = EveLedger::new(n_packets);
        for antenna in 0..spec.eve.antennas {
            for (id, erased) in spec.eve_pattern(session, antenna).iter().enumerate() {
                if !erased {
                    ledger.note_x(id);
                }
            }
        }
        ledger.note_public_matrix(&plan.z_rows_x());
        let secret_rows = plan.secret_rows_x();

        secret_bits += (coordinator.l * spec.payload_len * 8) as u64;
        per_session.push(SessionMeasurement {
            session,
            l: coordinator.l,
            m: coordinator.m,
            z_sent: trace.z_sent,
            eve_reliability: ledger.reliability(&secret_rows),
            eve_seen_fraction: ledger.received().len() as f64 / n_packets as f64,
        });
    }

    Ok(ScenarioResult {
        spec: spec.clone(),
        n_packets,
        per_session,
        prediction: predict(spec.terminals as usize, spec.effective_p()),
        secret_bits,
        frames_sent: run.frames,
        bits_transmitted: run.bits_transmitted(),
        wall_ms,
    })
}

/// Runs a batch of specs sharded across worker threads (each thread
/// hosts its own runtime; results come back in input order).
pub fn run_specs(specs: &[ScenarioSpec]) -> Vec<Result<ScenarioResult, ScenarioError>> {
    parallel_map(specs, run_scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EveSpec;
    use thinair_netsim::ErasureModel;

    fn tiny() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            terminals: 3,
            x_packets: 40,
            payload_len: 8,
            sessions: 1,
            seed: 5,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn tiny_scenario_extracts_a_secret_and_scores_it() {
        let r = run_scenario(&tiny()).expect("run completes");
        assert_eq!(r.per_session.len(), 1);
        let s = &r.per_session[0];
        assert!(s.l > 0, "a p=0.5 round should mine a secret");
        assert!(s.m >= s.l);
        assert_eq!(r.secret_bits, (s.l * 8 * 8) as u64);
        assert!(r.measured_efficiency() > 0.0);
        assert!(r.prediction.group_efficiency > 0.0);
        assert!((0.0..=1.0).contains(&s.eve_reliability));
        assert!((0.0..=1.0).contains(&s.eve_seen_fraction));
        assert!(r.frames_sent > 0 && r.bits_transmitted > 0);
    }

    #[test]
    fn deaf_eve_means_perfect_reliability() {
        let spec = ScenarioSpec {
            eve: EveSpec { antennas: 1, erasure: Some(ErasureModel::Iid { p: 1.0 }) },
            ..tiny()
        };
        let r = run_scenario(&spec).expect("run completes");
        assert_eq!(r.mean_eve_seen(), 0.0);
        assert_eq!(r.mean_eve_reliability(), 1.0);
    }

    #[test]
    fn protocol_outcomes_are_seed_deterministic() {
        let spec = ScenarioSpec { sessions: 2, ..tiny() };
        let a = run_scenario(&spec).expect("first run");
        let b = run_scenario(&spec).expect("second run");
        for (x, y) in a.per_session.iter().zip(b.per_session.iter()) {
            assert_eq!((x.l, x.m), (y.l, y.m));
            assert_eq!(x.eve_reliability, y.eve_reliability);
            assert_eq!(x.eve_seen_fraction, y.eve_seen_fraction);
        }
        assert_eq!(a.secret_bits, b.secret_bits);
    }

    #[test]
    fn sharded_batch_matches_serial() {
        let specs: Vec<ScenarioSpec> = (0..4)
            .map(|i| ScenarioSpec { seed: 10 + i, name: format!("s{i}"), ..tiny() })
            .collect();
        let sharded = run_specs(&specs);
        for (spec, result) in specs.iter().zip(sharded.iter()) {
            let serial = run_scenario(spec).expect("serial run");
            let sharded = result.as_ref().expect("sharded run");
            assert_eq!(serial.secret_bits, sharded.secret_bits, "{}", spec.name);
            assert_eq!(
                serial.per_session.iter().map(|s| (s.l, s.m)).collect::<Vec<_>>(),
                sharded.per_session.iter().map(|s| (s.l, s.m)).collect::<Vec<_>>(),
            );
        }
    }
}
