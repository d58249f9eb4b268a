//! The soak harness: hundreds of sessions under adversarial faults,
//! audited against the safety invariant.
//!
//! # The safety invariant
//!
//! A session run under a [`thinair_netsim::FaultPlan`] must *safely
//! terminate*, within the session deadline, on every node that ran it:
//! the coordinator, and each terminal daemon that admitted its `Start`.
//!
//! 1. **No hangs** — every such node returns, either completed or with
//!    a structured [`thinair_net::AbortReason`].
//! 2. **No divergence** — every node that completes holds the
//!    byte-identical secret (and identical `(l, m)`).
//! 3. **Explained aborts** — a session where any node aborts is a clean
//!    abort: the aborting nodes carry machine-readable reasons, and any
//!    nodes that did complete still agree among themselves.
//!
//! Atomic all-or-nothing termination is *not* promised — it is
//! unachievable over a lossy channel with bounded retries (the Two
//! Generals problem): the coordinator can learn every terminal is done
//! and still fail to deliver the final `Fin` to one of them. What the
//! protocol does guarantee — and what this harness checks on every
//! session — is that no node ever *uses* a secret the group did not
//! converge on: completion requires the final barrier, and a node that
//! aborts discards anything it derived.
//!
//! # Determinism
//!
//! Fault verdicts are keyed by frame identity, erasures by packet id,
//! crash/late-join by protocol milestones — so *which* sessions agree,
//! *which* abort, and every secret byte are pure functions of the spec.
//! The aggregates in `BENCH_soak.json` split accordingly: outcome
//! counts, abort-reason histograms and mean `(l, m)` are
//! deterministic; wall-clock, frame counters and fault-injection totals
//! (retransmissions re-draw verdicts) are timing-class and excluded
//! from the determinism contract. One caveat (the soak analogue of the
//! scenario engine's x-settle caveat): sessions race real wall-clock
//! deadlines, so the outcome counts are pure functions of the spec only
//! while every completable session finishes well inside its deadline —
//! the grids keep ~4x headroom on an idle machine, but a severely
//! overloaded runner could push a borderline session over its deadline
//! and flip a count.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use thinair_net::driver::drive_sim_chaos;
use thinair_net::SessionOutcome;
use thinair_netsim::{
    AckBurstSpec, CrashSpec, DelaySpec, ErasureModel, FaultPlan, IidMedium, JoinSpec,
};
use thinair_testbed::parallel_map;

use crate::report::{f6, json_escape};
use crate::run::ScenarioError;
use crate::spec::ScenarioSpec;

/// Soak artifact schema tag.
pub const SOAK_SCHEMA: &str = "thinair-soak/1";

/// The audited fate of one soaked session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionVerdict {
    /// Every node completed with the identical secret.
    Agreed {
        /// Secret length in packets.
        l: usize,
        /// y-row count.
        m: usize,
    },
    /// At least one node aborted; every completer (if any) still
    /// agreed. The histogram maps abort-reason kinds to node counts.
    AbortedClean {
        /// Abort-reason kind → number of nodes reporting it.
        reasons: BTreeMap<String, u32>,
    },
    /// The invariant was violated (divergent secrets among completers).
    /// Must never occur; counted and reported loudly.
    Violation {
        /// Human-readable description.
        what: String,
    },
}

/// Classifies one session's outcomes against the safety invariant.
pub fn audit_session(outcomes: &[SessionOutcome]) -> SessionVerdict {
    let completers: Vec<&SessionOutcome> = outcomes.iter().filter(|o| o.completed()).collect();
    if let Some(first) = completers.first() {
        for other in &completers[1..] {
            if other.secret != first.secret || other.l != first.l || other.m != first.m {
                return SessionVerdict::Violation {
                    what: format!(
                        "nodes {} and {} completed with divergent outcomes",
                        first.node, other.node
                    ),
                };
            }
        }
    }
    if completers.len() == outcomes.len() {
        let first = completers.first().expect("nonempty session roster");
        return SessionVerdict::Agreed { l: first.l, m: first.m };
    }
    let mut reasons: BTreeMap<String, u32> = BTreeMap::new();
    for o in outcomes {
        if let Some(reason) = &o.abort {
            *reasons.entry(reason.kind()).or_insert(0) += 1;
        }
    }
    SessionVerdict::AbortedClean { reasons }
}

/// Aggregated soak measurements for one spec.
#[derive(Clone, Debug)]
pub struct SoakResult {
    /// The spec that produced it.
    pub spec: ScenarioSpec,
    /// Resolved x-pool size.
    pub n_packets: usize,
    /// Per-session verdicts, in session-id order.
    pub verdicts: Vec<SessionVerdict>,
    /// Sessions where every node agreed.
    pub agreed: u32,
    /// Sessions with at least one clean abort.
    pub aborted: u32,
    /// Safety-invariant violations (must be 0).
    pub violations: u32,
    /// Abort-reason kind → total node count, across sessions.
    pub abort_reasons: BTreeMap<String, u32>,
    /// Abort-reason kind → sessions affected: the session-level
    /// companion of the node-level `abort_reasons`. A session counts
    /// once per distinct kind among its aborting nodes, so the sum can
    /// exceed `aborted` when one session aborts for mixed reasons.
    pub abort_sessions: BTreeMap<String, u32>,
    /// Mean secret length over agreed sessions.
    pub mean_l: f64,
    /// Mean y-row count over agreed sessions.
    pub mean_m: f64,
    /// Total secret bits extracted across agreed sessions.
    pub secret_bits: u64,
    /// Wall-clock duration of the batch in ms (timing).
    pub wall_ms: f64,
    /// Frames put on the air (timing).
    pub frames_sent: u64,
    /// Bits put on the air (timing).
    pub bits_transmitted: u64,
    /// Total chaos-layer fault events injected (timing: includes
    /// re-drawn verdicts on retransmissions).
    pub faults_injected: u64,
}

/// Runs one spec's sessions under its fault plan and audits each.
pub fn run_soak(spec: &ScenarioSpec) -> Result<SoakResult, ScenarioError> {
    spec.validate().map_err(ScenarioError::Invalid)?;
    let cfg = spec.session_config();
    let sessions = spec.session_ids();

    let clock = crate::timing::Stopwatch::start();
    let run = drive_sim_chaos(
        IidMedium::symmetric(spec.terminals as usize, 0.0, spec.seed),
        &cfg,
        &sessions,
        spec.seed,
        spec.faults,
        spec.fault_seed(),
    )?;
    let wall_ms = clock.elapsed_ms();

    let mut verdicts = Vec::with_capacity(sessions.len());
    let (mut agreed, mut aborted, mut violations) = (0u32, 0u32, 0u32);
    let mut abort_reasons: BTreeMap<String, u32> = BTreeMap::new();
    let mut abort_sessions: BTreeMap<String, u32> = BTreeMap::new();
    let (mut sum_l, mut sum_m) = (0usize, 0usize);
    let mut secret_bits = 0u64;
    for outcomes in &run.outcomes {
        let verdict = audit_session(outcomes);
        match &verdict {
            SessionVerdict::Agreed { l, m } => {
                agreed += 1;
                sum_l += l;
                sum_m += m;
                secret_bits += (l * spec.payload_len * 8) as u64;
            }
            SessionVerdict::AbortedClean { reasons } => {
                aborted += 1;
                for (kind, count) in reasons {
                    *abort_reasons.entry(kind.clone()).or_insert(0) += count;
                    *abort_sessions.entry(kind.clone()).or_insert(0) += 1;
                }
            }
            SessionVerdict::Violation { .. } => violations += 1,
        }
        verdicts.push(verdict);
    }

    Ok(SoakResult {
        spec: spec.clone(),
        n_packets: cfg.n_packets(),
        verdicts,
        agreed,
        aborted,
        violations,
        abort_reasons,
        abort_sessions,
        mean_l: if agreed > 0 { sum_l as f64 / agreed as f64 } else { 0.0 },
        mean_m: if agreed > 0 { sum_m as f64 / agreed as f64 } else { 0.0 },
        secret_bits,
        wall_ms,
        frames_sent: run.frames,
        bits_transmitted: run.bits_transmitted(),
        faults_injected: run.faults.total(),
    })
}

/// Runs a batch of soak specs sharded across worker threads.
pub fn run_soak_specs(specs: &[ScenarioSpec]) -> Vec<Result<SoakResult, ScenarioError>> {
    parallel_map(specs, run_soak)
}

// ---------------------------------------------------------------------------
// The fault grid
// ---------------------------------------------------------------------------

fn soak_base(sessions: u32) -> ScenarioSpec {
    ScenarioSpec {
        terminals: 4,
        x_packets: 48,
        payload_len: 16,
        erasure: ErasureModel::Iid { p: 0.4 },
        sessions,
        // Short deadline: crashed sessions burn exactly this long, and
        // all of a batch's crashed sessions burn it concurrently.
        deadline_ms: 4_000,
        ..ScenarioSpec::default()
    }
}

/// The grid's cells, labelled; the labels drive the smoke subset. The
/// third element scales the cell's session count (the overload cell
/// runs a multiple of the grid's base concurrency).
fn soak_cells() -> Vec<(&'static str, FaultPlan, u32)> {
    let one = |label, faults| (label, faults, 1);
    vec![
        one("clean baseline", FaultPlan::none()),
        one(
            "reorder + duplicate",
            FaultPlan { reorder: 0.25, duplicate: 0.25, ..FaultPlan::none() },
        ),
        one(
            "delay jitter + duplicate",
            FaultPlan {
                delay: Some(DelaySpec { prob: 0.3, max_frames: 6 }),
                duplicate: 0.15,
                ..FaultPlan::none()
            },
        ),
        one("bit corruption", FaultPlan { corrupt: 0.02, ..FaultPlan::none() }),
        one("frame drops", FaultPlan { drop: 0.03, ..FaultPlan::none() }),
        one("burst partitions", FaultPlan { partition: 0.04, ..FaultPlan::none() }),
        one(
            "crash at report",
            FaultPlan {
                crash: Some(CrashSpec { prob: 0.35, node: None, after_seq: 1 }),
                ..FaultPlan::none()
            },
        ),
        one(
            "crash after done",
            FaultPlan {
                crash: Some(CrashSpec { prob: 0.35, node: None, after_seq: 2 }),
                ..FaultPlan::none()
            },
        ),
        one(
            "late join",
            FaultPlan {
                late_join: Some(JoinSpec { prob: 0.5, node: None, after_frames: 10 }),
                ..FaultPlan::none()
            },
        ),
        one(
            "kitchen sink",
            FaultPlan {
                reorder: 0.15,
                duplicate: 0.15,
                corrupt: 0.01,
                delay: Some(DelaySpec { prob: 0.2, max_frames: 4 }),
                late_join: Some(JoinSpec { prob: 0.3, node: None, after_frames: 12 }),
                ..FaultPlan::none()
            },
        ),
        // ACK-loss burst: data lands, receipts die — the targeted attack
        // on the adaptive RTO / backoff re-arm path (Karn's rule bars
        // RTT samples from the retransmissions the burst forces).
        one(
            "ack-loss burst",
            FaultPlan { ack_burst: Some(AckBurstSpec { prob: 0.5, len: 8 }), ..FaultPlan::none() },
        ),
        // Overload surge: no injected faults, 3× the grid's concurrency
        // — the soak-side companion of the serve bench's overload wave,
        // exercising the coordinator's flow budget and admission pacing
        // under contention. Audited by the same safety invariant.
        ("overload surge", FaultPlan::none(), 3),
    ]
}

/// The soak fault grid: reorder × duplicate × corrupt × drop × jitter
/// × partition × crash × late-join × ACK-loss burst, `sessions`
/// concurrent sessions per cell (plus a clean-baseline cell and a 3×
/// fault-free overload-surge cell) — 12 cells.
pub fn soak_specs(seed: u64, sessions: u32) -> Vec<ScenarioSpec> {
    soak_specs_for(seed, sessions, |_| true)
}

/// The CI smoke subset: one cell per fault family, selected by label
/// (per-cell seeds stay identical to the full grid's).
pub fn soak_smoke_specs(seed: u64) -> Vec<ScenarioSpec> {
    const SMOKE: [&str; 6] = [
        "clean baseline",
        "reorder + duplicate",
        "bit corruption",
        "crash at report",
        "kitchen sink",
        "ack-loss burst",
    ];
    soak_specs_for(seed, 8, |label| SMOKE.contains(&label))
}

fn soak_specs_for(
    seed: u64,
    sessions: u32,
    select: impl Fn(&'static str) -> bool,
) -> Vec<ScenarioSpec> {
    let base = soak_base(sessions);
    soak_cells()
        .into_iter()
        .enumerate()
        .filter(|(_, (label, _, _))| select(label))
        .map(|(i, (_, faults, mult))| {
            let tag: String = if faults.is_none() { "clean".into() } else { faults.tag() };
            // Multiplied cells get a distinct name (the fault tag alone
            // would collide with the single-concurrency cell's).
            let name = if mult > 1 { format!("soak_{tag}_x{mult}") } else { format!("soak_{tag}") };
            ScenarioSpec {
                name,
                faults,
                sessions: base.sessions * mult,
                seed: thinair_netsim::splitmix64(
                    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                ..base.clone()
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The artifact
// ---------------------------------------------------------------------------

fn result_json(r: &SoakResult, include_timing: bool) -> String {
    let spec = &r.spec;
    let fault_params = spec.faults.params().iter().map(|p| f6(*p)).collect::<Vec<_>>().join(", ");
    let reason_map = |m: &BTreeMap<String, u32>| {
        m.iter().map(|(k, v)| format!("\"{}\": {v}", json_escape(k))).collect::<Vec<_>>().join(", ")
    };
    let reasons = reason_map(&r.abort_reasons);
    let reason_sessions = reason_map(&r.abort_sessions);
    let mut fields = vec![
        format!("\"name\": \"{}\"", json_escape(&spec.name)),
        format!("\"terminals\": {}", spec.terminals),
        format!("\"x_packets\": {}", spec.x_packets),
        format!("\"payload_len\": {}", spec.payload_len),
        format!(
            "\"erasure\": {{\"kind\": \"{}\", \"mean\": {}}}",
            spec.erasure.kind(),
            f6(spec.effective_p())
        ),
        format!(
            "\"faults\": {{\"tag\": \"{}\", \"params\": [{}]}}",
            json_escape(&spec.faults.tag()),
            fault_params
        ),
        format!("\"sessions\": {}", spec.sessions),
        format!("\"seed\": {}", spec.seed),
        format!("\"deadline_ms\": {}", spec.deadline_ms),
        format!("\"n_packets\": {}", r.n_packets),
        format!("\"agreed\": {}", r.agreed),
        format!("\"aborted\": {}", r.aborted),
        format!("\"violations\": {}", r.violations),
        format!("\"abort_reasons\": {{{reasons}}}"),
        format!("\"abort_sessions\": {{{reason_sessions}}}"),
        format!("\"mean_l\": {}", f6(r.mean_l)),
        format!("\"mean_m\": {}", f6(r.mean_m)),
        format!("\"secret_bits\": {}", r.secret_bits),
    ];
    if include_timing {
        fields.push(format!("\"frames_sent\": {}", r.frames_sent));
        fields.push(format!("\"bits_transmitted\": {}", r.bits_transmitted));
        fields.push(format!("\"faults_injected\": {}", r.faults_injected));
        fields.push(format!("\"wall_ms\": {:.1}", r.wall_ms));
    }
    format!("    {{{}}}", fields.join(", "))
}

/// Renders the soak artifact. With `include_timing = false` the output
/// is a pure function of the specs (the determinism contract pinned by
/// `tests/soak_determinism.rs`).
pub fn render_soak_json(results: &[SoakResult], include_timing: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SOAK_SCHEMA}\",\n"));
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = results.iter().map(|r| result_json(r, include_timing)).collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the soak artifact to `path` (timing fields included).
pub fn write_soak_json(path: &Path, results: &[SoakResult]) -> io::Result<()> {
    std::fs::write(path, render_soak_json(results, true))
}

/// A fixed-width console summary, one line per soak cell.
pub fn soak_summary_table(results: &[SoakResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>8} {:>7} {:>8} {:>10} {:>7} {:>7}\n",
        "soak cell", "sessions", "agreed", "aborted", "violations", "mean_l", "faults"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<34} {:>8} {:>7} {:>8} {:>10} {:>7.1} {:>7}\n",
            r.spec.name,
            r.spec.sessions,
            r.agreed,
            r.aborted,
            r.violations,
            r.mean_l,
            r.faults_injected,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinair_net::AbortReason;

    fn outcome(node: u8, l: usize, abort: Option<AbortReason>) -> SessionOutcome {
        let secret = (0..l).map(|i| vec![thinair_gf::Gf256(i as u8); 4]).collect();
        SessionOutcome { session: 1, node, l, m: l + 1, n_packets: 10, secret, abort, trace: None }
    }

    #[test]
    fn audit_classifies_agreement() {
        let outs = vec![outcome(0, 2, None), outcome(1, 2, None), outcome(2, 2, None)];
        assert_eq!(audit_session(&outs), SessionVerdict::Agreed { l: 2, m: 3 });
    }

    #[test]
    fn audit_classifies_clean_aborts() {
        let reason = AbortReason::Deadline { phase: "z fountain" };
        let outs = vec![
            outcome(0, 2, None),
            outcome(1, 0, Some(reason.clone())),
            outcome(2, 0, Some(reason)),
        ];
        match audit_session(&outs) {
            SessionVerdict::AbortedClean { reasons } => {
                assert_eq!(reasons.get("deadline:z fountain"), Some(&2));
            }
            other => panic!("expected clean abort, got {other:?}"),
        }
    }

    #[test]
    fn audit_flags_divergent_completers() {
        let mut diverging = outcome(1, 2, None);
        diverging.secret[0] = vec![thinair_gf::Gf256(9); 4];
        let outs = vec![outcome(0, 2, None), diverging];
        assert!(matches!(audit_session(&outs), SessionVerdict::Violation { .. }));
    }

    #[test]
    fn clean_soak_cell_agrees_everywhere() {
        let spec = ScenarioSpec { sessions: 2, ..soak_base(2) };
        let r = run_soak(&spec).expect("soak completes");
        assert_eq!(r.agreed, 2);
        assert_eq!(r.aborted, 0);
        assert_eq!(r.violations, 0);
        assert!(r.mean_l > 0.0);
        assert_eq!(r.faults_injected, 0);
    }

    #[test]
    fn soak_grid_covers_every_fault_family() {
        let specs = soak_specs(1, 60);
        let total: u32 = specs.iter().map(|s| s.sessions).sum();
        assert!(total >= 500, "the acceptance floor is 500 sessions, got {total}");
        assert!(specs.iter().any(|s| s.faults.is_none()));
        assert!(specs.iter().any(|s| s.faults.reorder > 0.0));
        assert!(specs.iter().any(|s| s.faults.duplicate > 0.0));
        assert!(specs.iter().any(|s| s.faults.corrupt > 0.0));
        assert!(specs.iter().any(|s| s.faults.delay.is_some()));
        assert!(specs.iter().any(|s| s.faults.partition > 0.0));
        assert!(specs.iter().any(|s| s.faults.crash.is_some()));
        assert!(specs.iter().any(|s| s.faults.late_join.is_some()));
        assert!(specs.iter().any(|s| s.faults.ack_burst.is_some()));
        // The overload-surge cell runs at a multiple of the base
        // concurrency, under a name distinct from the clean baseline's.
        assert!(specs.iter().any(|s| s.faults.is_none() && s.sessions == 180));
        for s in &specs {
            assert_eq!(s.validate(), Ok(()), "{}", s.name);
        }
        let names: std::collections::BTreeSet<_> = specs.iter().map(|s| &s.name).collect();
        assert_eq!(names.len(), specs.len(), "soak cell names must be unique");
    }

    #[test]
    fn smoke_subset_is_small_but_representative() {
        let specs = soak_smoke_specs(1);
        assert!(specs.len() >= 4 && specs.len() <= 6, "got {}", specs.len());
        assert!(specs.iter().any(|s| s.faults.is_none()));
        assert!(specs.iter().any(|s| s.faults.crash.is_some()));
        assert!(specs.iter().any(|s| s.faults.late_join.is_some()));
        assert!(specs.iter().any(|s| s.faults.ack_burst.is_some()));
    }
}
