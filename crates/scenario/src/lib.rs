//! `thinair-scenario` — the deterministic many-session experiment
//! engine.
//!
//! The paper's claim is quantitative: secret bits per transmitted packet
//! as a function of erasure probabilities and what Eve overhears. This
//! crate turns that claim into a repeatable pipeline:
//!
//! 1. **Describe** a scenario declaratively ([`spec::ScenarioSpec`]):
//!    terminal count, payload and x-pool sizes, a per-link erasure model
//!    ([`thinair_netsim::ErasureModel`] — iid or Gilbert-Elliott burst
//!    loss), an Eve observation model (antenna count + channel), session
//!    count, and one root seed.
//! 2. **Sweep** a grid of scenarios ([`grid::ScenarioGrid`]), sharded
//!    across worker threads ([`thinair_testbed::parallel_map`]).
//! 3. **Run** each config's sessions concurrently over the real
//!    coordinator/terminal state machines and simulated transports
//!    ([`run::run_scenario`] → [`thinair_net::driver::drive_sim`]).
//! 4. **Audit** every session offline: rebuild the coordinator's plan
//!    from its [`thinair_net::SessionTrace`], score the achieved `(l, m)`
//!    against [`thinair_model::predict()`]'s fluid-limit optimum, and feed
//!    a ground-truth [`thinair_core::eve::EveLedger`] from Eve's
//!    deterministic reception patterns to compute the paper's
//!    reliability metric exactly.
//! 5. **Record** a `BENCH_scenarios.json` artifact ([`report`]) in the
//!    `BENCH_micro.json` convention, with timing-class fields clearly
//!    separated from the deterministic measurement.
//!
//! Determinism is the load-bearing property: all data-plane loss comes
//! from per-receiver erasure chains that are pure functions of the spec
//! (`thinair_net::session::drop_pattern`), the medium itself is
//! lossless, and Eve's patterns are derived the same way — so protocol
//! outcomes, efficiencies and Eve scores do not depend on scheduling,
//! thread count, or wall-clock speed (caveat: a scheduler stall longer
//! than the generous x-settle window could still truncate a reception
//! report — see [`spec::ScenarioSpec::session_config`]). Only the
//! wire-level counters (frames, bits, fountain top-ups) and `wall_ms`
//! are timing-class.
//!
//! ```
//! use thinair_scenario::{run_scenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec {
//!     terminals: 3,
//!     x_packets: 40,
//!     payload_len: 8,
//!     sessions: 1,
//!     seed: 5,
//!     ..ScenarioSpec::default()
//! };
//! let result = run_scenario(&spec).expect("scenario completes");
//! assert!(result.measured_efficiency() > 0.0);
//! assert!(result.prediction.group_efficiency > 0.0);
//! // Same spec, same numbers — always.
//! let again = run_scenario(&spec).expect("rerun completes");
//! assert_eq!(result.secret_bits, again.secret_bits);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod grid;
pub mod report;
pub mod run;
pub mod serve_bench;
pub mod soak;
pub mod spec;
pub mod timing;
pub mod trace_check;

pub use explore::{
    explore, explore_bug_spec, explore_default_spec, explore_range_specs, explore_smoke_spec,
    explore_summary_table, render_explore_json, run_explore_specs, write_explore_json, Choice,
    Counterexample, ExploreEvent, ExploreResult, ExploreSpec, EXPLORE_SCHEMA,
};
pub use grid::{full_grid, golden_spec, smoke_specs, ScenarioGrid};
pub use report::{render_json, summary_table, write_json, SCHEMA};
pub use run::{run_scenario, run_specs, ScenarioError, ScenarioResult, SessionMeasurement};
pub use serve_bench::{
    render_serve_json, run_serve_wave, serve_chaos_plan, serve_ramp_specs, serve_smoke_specs,
    serve_summary_table, write_serve_json, ServeBackend, ServeWaveResult, ServeWaveSpec,
    SERVE_SCHEMA,
};
pub use soak::{
    audit_session, render_soak_json, run_soak, run_soak_specs, soak_smoke_specs, soak_specs,
    soak_summary_table, write_soak_json, SessionVerdict, SoakResult, SOAK_SCHEMA,
};
pub use spec::{EstimatorSpec, EveSpec, ScenarioSpec};
pub use trace_check::{check_trace, TraceReport};
