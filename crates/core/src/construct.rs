//! The y/z/s-packet construction — our realization of the paper's
//! "well-defined construction \[9\]".
//!
//! # What must hold
//!
//! Let `x ∈ GF(256)^N` be the x-packet pool, `K_i` the set of packets
//! terminal `i` knows, and `W` the `M×N` coefficient matrix of the
//! y-packets (`y = W·x`; row supports are public, contents are not).
//! Phase 2 publishes `z = C·y` (contents!) and announces `s = D·y`
//! (coefficients only), with `[C; D]` invertible `M×M`.
//!
//! *Decodability*: terminal `i` directly computes the rows with support
//! `⊆ K_i` (call them `J_i`, `M_i = |J_i|`); it recovers the rest from the
//! `M−L` z-packets provided `C[:, J̄_i]` has full column rank — guaranteed
//! here because `[C;D]` is a Cauchy matrix (every square submatrix
//! invertible), with an explicit check-and-redraw fallback when `M > 128`
//! forces random matrices.
//!
//! *Secrecy*: everything Eve has is linear in `x`: her received packets
//! (unit rows on her set `E`) plus the published `z` rows `C·W`. Writing
//! `U` for the packets Eve misses, the group secret `s` is perfectly
//! secret **iff `rank(W|_U) = M`** (restriction to the `U` columns):
//! since `[C;D]` is invertible, `rank([units(E); C·W; D·W]) −
//! rank([units(E); C·W]) = rank(W|_U) − rank((C·W)|_U)`, and
//! `rank((C·W)|_U) ≥ rank(W|_U) − L` with equality forced by genericity of
//! `C`; the difference equals `L` exactly when `rank(W|_U) = M`.
//!
//! *When does `rank(W|_U) = M` hold?* For generic (random) coefficients,
//! by the Lovász/Rado generic-rank theorem it holds iff **Hall's
//! condition** does: every subset `J` of rows satisfies
//! `|⋃_{r∈J} supp(r) ∩ U| ≥ |J|`. Alice cannot see `U`, so she enforces
//! Hall against every *candidate* Eve the estimator proposes
//! ([`crate::estimate::EveView`]), via incremental bipartite matchings
//! (one per view): a row is only admitted if, in every view, it can be
//! assigned `row_demand` units of capacity from the packets of its
//! support, displacing earlier assignments if necessary (augmenting
//! paths). Whenever the realized Eve misses at least what the estimator
//! assumed, Hall transfers to the true `U` and the measured reliability is
//! 1; when the estimator was too optimistic (few terminals, unlucky
//! placement) reliability degrades — exactly the mechanism behind the
//! paper's Figure 2.
//!
//! # Why supports are shared (the paper's y₁)
//!
//! Rows with support inside an *intersection* `K_i ∩ K_j` are decodable by
//! both terminals and count toward both `M_i` and `M_j` while consuming
//! Eve-unknown budget once — the reason the paper's 3-terminal example
//! gives Bob and Calvin a common y₁. The greedy below therefore builds
//! supports from the deepest intersections outward.

use std::collections::BTreeSet;

use rand::Rng;
use thinair_gf::{kernel, Gf256, Matrix, PayloadPlane};
use thinair_mds::cauchy_matrix;

use crate::error::ProtocolError;
use crate::estimate::{Estimator, EveView};

/// One y-packet: a sparse coefficient row over the x-pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct YRow {
    /// Sorted x-packet indices.
    pub support: Vec<usize>,
    /// Coefficients parallel to `support`.
    pub coeffs: Vec<Gf256>,
}

impl YRow {
    /// Densifies the row into an `n_packets`-wide coefficient vector.
    pub fn dense(&self, n_packets: usize) -> Vec<Gf256> {
        let mut v = vec![Gf256::ZERO; n_packets];
        for (&j, &c) in self.support.iter().zip(self.coeffs.iter()) {
            v[j] = c;
        }
        v
    }

    /// Adds this row's y-packet `Σ c_j·x_j` into `acc`, reading x-packet
    /// `j`'s payload as `x(j)`. `Err(j)` names the first x-packet `x`
    /// lacks; `acc` is then partial.
    pub fn accumulate<'a>(
        &self,
        acc: &mut [u8],
        x: impl Fn(usize) -> Option<&'a [u8]>,
    ) -> Result<(), usize> {
        for (&j, &c) in self.support.iter().zip(self.coeffs.iter()) {
            kernel::axpy(acc, x(j).ok_or(j)?, c.value());
        }
        Ok(())
    }
}

/// The full coefficient plan for one protocol round.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Number of packets in the x-pool.
    pub n_packets: usize,
    /// Index of the coordinating terminal ("Alice").
    pub coordinator: usize,
    /// The y-rows, in construction order.
    pub rows: Vec<YRow>,
    /// Dense `M×N` coefficient matrix (`y = w·x`).
    pub w: Matrix,
    /// `decodable[i]`: indices of rows terminal `i` can compute directly.
    pub decodable: Vec<Vec<usize>>,
    /// The pairwise budgets `m_i` the estimator granted (coordinator slot
    /// is 0 by convention).
    pub budgets: Vec<usize>,
    /// Group-secret length `L = min_i M_i` over non-coordinator terminals.
    pub l: usize,
    /// z-packet map: `(M−L)×M`, contents published.
    pub c_mat: Matrix,
    /// s-packet map: `L×M`, identities-only published.
    pub d_mat: Matrix,
}

impl Plan {
    /// Number of y-packets.
    pub fn m(&self) -> usize {
        self.rows.len()
    }

    /// The group-secret coefficient rows in x-coordinates (`D·W`, `L×N`).
    pub fn secret_rows_x(&self) -> Matrix {
        &self.d_mat * &self.w
    }

    /// The published z rows in x-coordinates (`C·W`, `(M−L)×N`).
    pub fn z_rows_x(&self) -> Matrix {
        &self.c_mat * &self.w
    }

    /// Every y-packet, `y = W·x`, one plane row each, with x-packet `j`'s
    /// payload read as `x(j)`; `Err(j)` as in [`YRow::accumulate`].
    pub fn y_plane<'a>(
        &self,
        payload_len: usize,
        x: impl Fn(usize) -> Option<&'a [u8]>,
    ) -> Result<PayloadPlane, usize> {
        let mut y = PayloadPlane::zero(self.m(), payload_len);
        for (r, row) in self.rows.iter().enumerate() {
            row.accumulate(y.row_mut(r), &x)?;
        }
        Ok(y)
    }

    /// An empty plan (no secret possible this round).
    pub fn empty(n_packets: usize, coordinator: usize, n_terminals: usize) -> Self {
        Plan {
            n_packets,
            coordinator,
            rows: Vec::new(),
            w: Matrix::zero(0, n_packets),
            decodable: vec![Vec::new(); n_terminals],
            budgets: vec![0; n_terminals],
            l: 0,
            c_mat: Matrix::zero(0, 0),
            d_mat: Matrix::zero(0, 0),
        }
    }
}

// ---------------------------------------------------------------------------
// Hall ledger: incremental per-view matchings.
// ---------------------------------------------------------------------------

/// Incremental feasibility checker for the Hall condition against a set of
/// [`EveView`]s.
#[derive(Clone, Debug)]
pub struct HallLedger {
    views: Vec<ViewState>,
}

#[derive(Clone, Debug)]
struct ViewState {
    cap: Vec<u32>,
    used: Vec<u32>,
    row_demand: u32,
    concede: Option<BTreeSet<usize>>,
    /// Per admitted (non-conceded) row: its support and its flow
    /// assignment `(packet, units)`.
    rows: Vec<FlowRow>,
}

#[derive(Clone, Debug)]
struct FlowRow {
    support: Vec<usize>,
    flow: Vec<(usize, u32)>,
}

impl ViewState {
    fn new(view: &EveView) -> Self {
        ViewState {
            cap: view.miss_capacity.clone(),
            used: vec![0; view.miss_capacity.len()],
            row_demand: view.row_demand,
            concede: view.concede.clone(),
            rows: Vec::new(),
        }
    }

    fn conceded(&self, support: &[usize]) -> bool {
        match &self.concede {
            Some(k) => support.iter().all(|j| k.contains(j)),
            None => false,
        }
    }

    fn flow_at(row: &mut FlowRow, packet: usize) -> &mut u32 {
        if let Some(pos) = row.flow.iter().position(|&(p, _)| p == packet) {
            &mut row.flow[pos].1
        } else {
            row.flow.push((packet, 0));
            let last = row.flow.len() - 1;
            &mut row.flow[last].1
        }
    }

    /// Routes one unit of flow for row `r`, displacing other rows via
    /// augmenting paths. `visited` guards against cycles.
    fn place_unit(&mut self, r: usize, visited: &mut Vec<bool>) -> bool {
        // Direct free capacity first.
        for si in 0..self.rows[r].support.len() {
            let p = self.rows[r].support[si];
            if self.used[p] < self.cap[p] {
                self.used[p] += 1;
                *Self::flow_at(&mut self.rows[r], p) += 1;
                return true;
            }
        }
        // Displacement: steal a unit at p from some other row that can
        // re-place it elsewhere.
        for si in 0..self.rows[r].support.len() {
            let p = self.rows[r].support[si];
            for r2 in 0..self.rows.len() {
                if r2 == r || visited[r2] {
                    continue;
                }
                let has_flow = self.rows[r2].flow.iter().any(|&(pp, u)| pp == p && u > 0);
                if !has_flow {
                    continue;
                }
                visited[r2] = true;
                if self.place_unit(r2, visited) {
                    *Self::flow_at(&mut self.rows[r2], p) -= 1;
                    *Self::flow_at(&mut self.rows[r], p) += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Attempts to admit a row; restores state and returns false on
    /// failure. `Conceded` means the view does not constrain the row
    /// (the candidate is a legitimate decoder of it).
    fn try_add(&mut self, support: &[usize]) -> AddResult {
        if self.conceded(support) {
            return AddResult::Conceded;
        }
        let snapshot_used = self.used.clone();
        let snapshot_rows = self.rows.clone();
        self.rows.push(FlowRow { support: support.to_vec(), flow: Vec::new() });
        let r = self.rows.len() - 1;
        for _ in 0..self.row_demand {
            let mut visited = vec![false; self.rows.len()];
            visited[r] = true;
            if !self.place_unit(r, &mut visited) {
                self.used = snapshot_used;
                self.rows = snapshot_rows;
                return AddResult::Rejected;
            }
        }
        AddResult::Matched
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AddResult {
    /// The view admitted the row by assigning it Eve-unknown capacity.
    Matched,
    /// The view does not constrain the row (candidate is a decoder).
    Conceded,
    /// The view has no capacity left for the row.
    Rejected,
}

impl HallLedger {
    /// Builds a ledger from the estimator's views.
    pub fn new(views: &[EveView]) -> Self {
        HallLedger { views: views.iter().map(ViewState::new).collect() }
    }

    /// Atomically admits a row into every view, or none.
    ///
    /// A row is admitted only when (a) every view either concedes it or
    /// matches it, **and** (b) at least one view actually matched it. A
    /// row conceded by *every* view has no evidence of secrecy at all —
    /// under the estimator's own hypotheses Eve knows its entire support —
    /// so it is rejected. (Concretely: with the leave-one-out estimator, a
    /// packet received by every terminal is presumed received by Eve too.)
    pub fn try_add(&mut self, support: &[usize]) -> bool {
        let mut done = Vec::new();
        let mut matched_any = false;
        for (i, v) in self.views.iter_mut().enumerate() {
            let snap = v.clone();
            match v.try_add(support) {
                AddResult::Matched => {
                    matched_any = true;
                    done.push((i, snap));
                }
                AddResult::Conceded => {}
                AddResult::Rejected => {
                    for (j, snap) in done {
                        self.views[j] = snap;
                    }
                    return false;
                }
            }
        }
        if !matched_any {
            for (j, snap) in done {
                self.views[j] = snap;
            }
            return false;
        }
        true
    }
}

// ---------------------------------------------------------------------------
// The greedy builder.
// ---------------------------------------------------------------------------

/// Upper bound on the number of y-rows (keeps the `[C;D]` matrix within
/// Cauchy range and the round cheap).
pub const DEFAULT_MAX_ROWS: usize = 120;

/// Tunables of the greedy construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanParams {
    /// Cap on the number of y-rows (must stay ≤ 128 so `[C;D]` is a
    /// Cauchy matrix).
    pub max_rows: usize,
    /// Minimum support size for a y-row. Small supports carry no
    /// statistical safety margin: a row over a 1-packet support is secret
    /// only if that one packet escaped Eve — a coin flip, not a
    /// concentration bound. The paper's construction always combines a
    /// whole shared set; this floor keeps the greedy honest when deep
    /// intersections shrink.
    pub support_floor: usize,
    /// Safety margin subtracted from each support's estimated Eve-unknown
    /// capacity before rows are allocated on it (absorbs the statistical
    /// fluctuation between the candidate proxies and the real Eve; the
    /// "more or less conservative" knob of §3.3).
    pub support_slack: usize,
}

impl Default for PlanParams {
    fn default() -> Self {
        PlanParams { max_rows: DEFAULT_MAX_ROWS, support_floor: 4, support_slack: 1 }
    }
}

impl PlanParams {
    /// Parameters with no conservatism — appropriate for the oracle
    /// estimator, whose capacities are exact.
    pub fn exact() -> Self {
        PlanParams { max_rows: DEFAULT_MAX_ROWS, support_floor: 1, support_slack: 0 }
    }
}

/// A support's estimated Eve-unknown capacity: the minimum, over the
/// views that constrain it, of the capacity the view assigns to it,
/// scaled by the estimator's conservatism factor. `None` when no view
/// constrains it (the row would be conceded everywhere — compromised
/// under the estimator's own hypotheses).
fn support_capacity(support: &[usize], views: &[EveView], scale: f64) -> Option<usize> {
    let mut best: Option<usize> = None;
    for view in views {
        if let Some(k) = &view.concede {
            if support.iter().all(|j| k.contains(j)) {
                continue; // conceded: this view does not constrain it
            }
        }
        let units: u32 =
            support.iter().map(|&j| view.miss_capacity.get(j).copied().unwrap_or(0)).sum();
        let cap = ((units / view.row_demand) as f64 * scale).floor() as usize;
        best = Some(best.map_or(cap, |b: usize| b.min(cap)));
    }
    best
}

/// How many times coefficients are redrawn before giving up.
const MAX_REDRAWS: usize = 32;

/// Builds the full plan for one round.
///
/// * `known_sets[i]` — packets terminal `i` knows (own + received).
/// * `coordinator` — the terminal playing Alice.
/// * `estimator` — how Eve's erasures are bounded.
pub fn build_plan(
    known_sets: &[BTreeSet<usize>],
    coordinator: usize,
    n_packets: usize,
    estimator: &Estimator,
    rng: &mut impl Rng,
    params: PlanParams,
) -> Result<Plan, ProtocolError> {
    let n = known_sets.len();
    if n < 2 {
        return Err(ProtocolError::BadConfig("need at least two terminals"));
    }
    if coordinator >= n {
        return Err(ProtocolError::BadConfig("coordinator out of range"));
    }
    let others: Vec<usize> = (0..n).filter(|&i| i != coordinator).collect();

    // 1. Pairwise budgets (the paper's M_i sizing).
    let mut budgets = vec![0usize; n];
    for &i in &others {
        let shared: BTreeSet<usize> =
            known_sets[coordinator].intersection(&known_sets[i]).copied().collect();
        budgets[i] = estimator.pair_budget(&shared, known_sets, coordinator, i);
    }
    if others.iter().any(|&i| budgets[i] == 0) {
        // Worst-case scenario of §3.2: some pairwise secret is empty, so
        // the group secret is too. (Role rotation at the session layer is
        // the paper's mitigation.)
        return Ok(Plan::empty(n_packets, coordinator, n));
    }
    // The group secret is L = min_i M_i: rows beyond the weakest budget
    // would add z-packet cost without adding a single secret bit, so cap
    // every budget at the common minimum ("phase 2 does not increase the
    // amount of secret information ... it redistributes it").
    let l_target = others.iter().map(|&i| budgets[i]).min().unwrap_or(0);
    for &i in &others {
        budgets[i] = budgets[i].min(l_target);
    }

    // 2. Hall ledger over the estimator's candidate-Eve views.
    let views = estimator.views(known_sets, n_packets);
    let mut hall = HallLedger::new(&views);

    // 3. Greedy support selection: deepest intersections first.
    let mut supports: Vec<Vec<usize>> = Vec::new(); // chosen rows' supports
    let mut counts = vec![0usize; n]; // rows decodable per terminal
    let mut seen_supports: BTreeSet<Vec<usize>> = BTreeSet::new();
    'levels: for g in (1..=others.len()).rev() {
        // All supports arising as K_c ∩ ⋂_{i ∈ S} K_i for |S| = g.
        let mut level: Vec<(Vec<usize>, Vec<usize>)> = Vec::new(); // (support, decoders)
        for mask in 1u32..(1 << others.len()) {
            if mask.count_ones() as usize != g {
                continue;
            }
            let mut t: BTreeSet<usize> = known_sets[coordinator].clone();
            for (bit, &i) in others.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    t = t.intersection(&known_sets[i]).copied().collect();
                }
            }
            if t.len() < params.support_floor.max(1) {
                continue;
            }
            let tv: Vec<usize> = t.iter().copied().collect();
            // Decoders may exceed S; process each support exactly once, at
            // the level equal to its true decoder count.
            let decoders: Vec<usize> = others
                .iter()
                .copied()
                .filter(|&i| tv.iter().all(|j| known_sets[i].contains(j)))
                .collect();
            if decoders.len() != g || seen_supports.contains(&tv) {
                continue;
            }
            seen_supports.insert(tv.clone());
            level.push((tv, decoders));
        }
        // Widest supports first: more Eve-unknown budget per row.
        level.sort_by_key(|(support, _)| std::cmp::Reverse(support.len()));
        for (support, decoders) in level {
            // Statistical safety: never allocate more rows on a support
            // than its estimated capacity minus the slack margin.
            let cap = match support_capacity(&support, &views, estimator.tuning().scale) {
                Some(c) => c.saturating_sub(params.support_slack),
                None => 0,
            };
            let mut used_here = 0usize;
            while used_here < cap {
                let any_deficient = decoders.iter().any(|&i| counts[i] < budgets[i]);
                if !any_deficient {
                    break;
                }
                if supports.len() >= params.max_rows {
                    break 'levels;
                }
                if !hall.try_add(&support) {
                    break;
                }
                supports.push(support.clone());
                used_here += 1;
                for &i in &decoders {
                    counts[i] += 1;
                }
            }
        }
    }

    // 4. Decodable sets from the final supports (incidental decodability
    //    included).
    let decodable: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            supports
                .iter()
                .enumerate()
                .filter(|(_, s)| i == coordinator || s.iter().all(|j| known_sets[i].contains(j)))
                .map(|(r, _)| r)
                .collect()
        })
        .collect();
    let l = others.iter().map(|&i| decodable[i].len()).min().unwrap_or(0);
    if l == 0 {
        return Ok(Plan::empty(n_packets, coordinator, n));
    }
    let m = supports.len();

    // 5. Coefficients: random, verified, redrawn on bad luck.
    let mut w = Matrix::zero(0, n_packets);
    let mut rows: Vec<YRow> = Vec::new();
    let mut ok = false;
    for _ in 0..MAX_REDRAWS {
        rows.clear();
        w = Matrix::zero(0, n_packets);
        for support in &supports {
            let coeffs: Vec<Gf256> = loop {
                let c: Vec<Gf256> = (0..support.len()).map(|_| Gf256(rng.gen())).collect();
                if c.iter().any(|x| !x.is_zero()) {
                    break c;
                }
            };
            let row = YRow { support: support.clone(), coeffs };
            w.push_row(&row.dense(n_packets));
            rows.push(row);
        }
        if verify_coefficients(&w, &rows, &views) {
            ok = true;
            break;
        }
    }
    if !ok {
        return Err(ProtocolError::ConstructionFailed("could not draw full-rank y coefficients"));
    }

    // 6. The phase-2 matrices: an invertible M×M split into C (top M−L)
    //    and D (bottom L).
    let cd = build_cd(m, l, &decodable, &others, rng)?;
    let c_mat = cd.select_rows(&(0..m - l).collect::<Vec<_>>());
    let d_mat = cd.select_rows(&(m - l..m).collect::<Vec<_>>());

    Ok(Plan { n_packets, coordinator, rows, w, decodable, budgets, l, c_mat, d_mat })
}

/// Checks that the drawn coefficients realize the generic ranks the Hall
/// argument promises, for every candidate view we can express as a column
/// restriction. (Also used by the unicast baseline for its pad blocks.)
pub(crate) fn verify_coefficients(w: &Matrix, rows: &[YRow], views: &[EveView]) -> bool {
    if w.rows() > 0 && w.rank() < w.rows() {
        return false;
    }
    for view in views {
        if view.row_demand != 1 {
            continue; // fractional views have no single column set to test
        }
        let unknown_cols: Vec<usize> = (0..w.cols())
            .filter(|&j| view.miss_capacity.get(j).copied().unwrap_or(0) > 0)
            .collect();
        let active_rows: Vec<usize> = (0..rows.len())
            .filter(|&r| match &view.concede {
                Some(k) => !rows[r].support.iter().all(|j| k.contains(j)),
                None => true,
            })
            .collect();
        if active_rows.is_empty() {
            continue;
        }
        let sub = w.select_rows(&active_rows).select_columns(&unknown_cols);
        if sub.rank() < active_rows.len() {
            return false;
        }
    }
    true
}

/// Builds the invertible `[C; D]` matrix with the per-terminal decode
/// properties.
fn build_cd(
    m: usize,
    l: usize,
    decodable: &[Vec<usize>],
    others: &[usize],
    rng: &mut impl Rng,
) -> Result<Matrix, ProtocolError> {
    debug_assert!(l <= m);
    // Cauchy when it fits: superregularity gives every property without
    // sampling.
    if 2 * m <= 256 {
        let cd = cauchy_matrix(m, m).expect("2m <= 256 checked");
        debug_assert!(cd.inverse().is_some());
        return Ok(cd);
    }
    // Fallback: random with verification.
    for _ in 0..MAX_REDRAWS {
        let cd = Matrix::random(m, m, rng);
        if cd.inverse().is_none() {
            continue;
        }
        let c = cd.select_rows(&(0..m - l).collect::<Vec<_>>());
        let all_decode = others.iter().all(|&i| {
            let missing: Vec<usize> = (0..m).filter(|r| !decodable[i].contains(r)).collect();
            missing.is_empty() || c.select_columns(&missing).rank() == missing.len()
        });
        if all_decode {
            return Ok(cd);
        }
    }
    Err(ProtocolError::ConstructionFailed("could not build C/D matrices"))
}

/// The *naive* per-terminal construction the paper warns about in §3.1
/// ("not any linear combinations of x-packets will do"): one independent
/// Cauchy block per terminal over its shared set, no support sharing, no
/// Hall condition across blocks. Kept as an ablation — it can leak once
/// phase 2 publishes z-packets.
pub fn build_block_plan(
    known_sets: &[BTreeSet<usize>],
    coordinator: usize,
    n_packets: usize,
    estimator: &Estimator,
    rng: &mut impl Rng,
    max_rows: usize,
) -> Result<Plan, ProtocolError> {
    let n = known_sets.len();
    if n < 2 || coordinator >= n {
        return Err(ProtocolError::BadConfig("bad terminal layout"));
    }
    let others: Vec<usize> = (0..n).filter(|&i| i != coordinator).collect();
    let mut budgets = vec![0usize; n];
    let mut rows: Vec<YRow> = Vec::new();
    for &i in &others {
        let shared: Vec<usize> =
            known_sets[coordinator].intersection(&known_sets[i]).copied().collect();
        let shared_set: BTreeSet<usize> = shared.iter().copied().collect();
        let mi = estimator.pair_budget(&shared_set, known_sets, coordinator, i).min(shared.len());
        budgets[i] = mi;
        if mi == 0 {
            return Ok(Plan::empty(n_packets, coordinator, n));
        }
        for _ in 0..mi {
            if rows.len() >= max_rows {
                break;
            }
            let coeffs: Vec<Gf256> = (0..shared.len()).map(|_| Gf256(rng.gen())).collect();
            rows.push(YRow { support: shared.clone(), coeffs });
        }
    }
    let m = rows.len();
    let mut w = Matrix::zero(0, n_packets);
    for r in &rows {
        w.push_row(&r.dense(n_packets));
    }
    let decodable: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            rows.iter()
                .enumerate()
                .filter(|(_, r)| {
                    i == coordinator || r.support.iter().all(|j| known_sets[i].contains(j))
                })
                .map(|(idx, _)| idx)
                .collect()
        })
        .collect();
    let l = others.iter().map(|&i| decodable[i].len()).min().unwrap_or(0);
    if l == 0 || m == 0 {
        return Ok(Plan::empty(n_packets, coordinator, n));
    }
    let cd = build_cd(m, l, &decodable, &others, rng)?;
    Ok(Plan {
        n_packets,
        coordinator,
        rows,
        w: w.clone(),
        decodable,
        budgets,
        l,
        c_mat: cd.select_rows(&(0..m - l).collect::<Vec<_>>()),
        d_mat: cd.select_rows(&(m - l..m).collect::<Vec<_>>()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Tuning;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thinair_gf::rank_increase;

    fn set(v: &[usize]) -> BTreeSet<usize> {
        v.iter().copied().collect()
    }

    /// Eve's knowledge matrix for a plan: unit rows on her received set
    /// plus the published z rows.
    fn eve_knowledge(plan: &Plan, eve_known: &BTreeSet<usize>) -> Matrix {
        let mut k = Matrix::zero(0, plan.n_packets);
        for &j in eve_known {
            let mut row = vec![Gf256::ZERO; plan.n_packets];
            row[j] = Gf256::ONE;
            k.push_row(&row);
        }
        k.vstack(&plan.z_rows_x())
    }

    fn measured_secret_dims(plan: &Plan, eve_known: &BTreeSet<usize>) -> usize {
        rank_increase(&eve_knowledge(plan, eve_known), &plan.secret_rows_x())
    }

    #[test]
    fn paper_three_terminal_example_shape() {
        // Alice = 0 knows 0..6; Bob knows {0,1,2,3}, Calvin {0,1,4,5}.
        // Intersection {0,1} should host shared rows (the paper's y1).
        let known = vec![set(&[0, 1, 2, 3, 4, 5]), set(&[0, 1, 2, 3]), set(&[0, 1, 4, 5])];
        let eve = set(&[]); // Eve heard nothing
        let est = Estimator::Oracle { eve_known: eve.clone() };
        let mut rng = StdRng::seed_from_u64(1);
        let plan = build_plan(
            &known,
            0,
            6,
            &est,
            &mut rng,
            PlanParams { max_rows: 32, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(plan.l > 0);
        // Some row must be decodable by both Bob and Calvin.
        let both: Vec<usize> =
            plan.decodable[1].iter().filter(|r| plan.decodable[2].contains(r)).copied().collect();
        assert!(!both.is_empty(), "expected a shared y-row: {:?}", plan.rows);
        // Perfect secrecy (Eve heard nothing).
        assert_eq!(measured_secret_dims(&plan, &eve), plan.l);
    }

    #[test]
    fn oracle_plan_is_always_perfectly_secret() {
        // Randomized reception patterns; with the oracle estimator the
        // measured secrecy must equal L every time.
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let n_packets = 24;
            let n_terminals = 4;
            let mut known: Vec<BTreeSet<usize>> = Vec::new();
            // Terminal 0 (Alice) knows everything (she sent it).
            known.push((0..n_packets).collect());
            for _ in 1..n_terminals {
                known.push((0..n_packets).filter(|_| rng.gen_bool(0.6)).collect());
            }
            let eve: BTreeSet<usize> = (0..n_packets).filter(|_| rng.gen_bool(0.5)).collect();
            let est = Estimator::Oracle { eve_known: eve.clone() };
            let plan = build_plan(
                &known,
                0,
                n_packets,
                &est,
                &mut rng,
                PlanParams { max_rows: 64, ..PlanParams::exact() },
            )
            .unwrap();
            if plan.l == 0 {
                continue;
            }
            assert_eq!(
                measured_secret_dims(&plan, &eve),
                plan.l,
                "trial {trial}: leak with oracle estimator"
            );
        }
    }

    #[test]
    fn leave_one_out_protects_against_weak_eve_but_not_collocated_eve() {
        let mut rng = StdRng::seed_from_u64(11);
        let n_packets = 20;
        let known = vec![
            (0..n_packets).collect::<BTreeSet<_>>(),
            set(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
            set(&[5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
            set(&[0, 2, 4, 6, 8, 10, 12, 14, 16, 18]),
        ];
        let est = Estimator::LeaveOneOut(Tuning::default());
        let plan = build_plan(
            &known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 64, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(plan.l > 0);

        // A weak Eve (heard almost nothing): the construction keeps the
        // full secret uniform.
        let weak_eve = set(&[3, 11]);
        assert_eq!(measured_secret_dims(&plan, &weak_eve), plan.l);

        // An Eve collocated with terminal 3 (she heard exactly what T3
        // heard) decodes whatever T3 decodes, then reconstructs the rest
        // from the z-packets — no group-secret protocol can prevent this.
        // The measured reliability must expose the leak, not hide it.
        let collocated_eve = known[3].clone();
        assert!(
            measured_secret_dims(&plan, &collocated_eve) < plan.l,
            "a member-equivalent Eve must defeat the group secret"
        );
    }

    #[test]
    fn budget_zero_yields_empty_plan() {
        // Eve (oracle) heard everything: no secret is possible.
        let known = vec![set(&[0, 1, 2, 3]), set(&[0, 1, 2])];
        let est = Estimator::Oracle { eve_known: set(&[0, 1, 2, 3]) };
        let mut rng = StdRng::seed_from_u64(3);
        let plan = build_plan(
            &known,
            0,
            4,
            &est,
            &mut rng,
            PlanParams { max_rows: 16, ..PlanParams::exact() },
        )
        .unwrap();
        assert_eq!(plan.l, 0);
        assert!(plan.rows.is_empty());
    }

    #[test]
    fn decode_matrices_have_full_column_rank() {
        let mut rng = StdRng::seed_from_u64(13);
        let n_packets = 30;
        let known: Vec<BTreeSet<usize>> = vec![
            (0..n_packets).collect(),
            (0..n_packets).filter(|j| j % 2 == 0).collect(),
            (0..n_packets).filter(|j| j % 3 != 0).collect(),
            (0..n_packets).filter(|&j| j < 20).collect(),
        ];
        let est = Estimator::Oracle { eve_known: set(&[0, 3, 6, 9, 12]) };
        let plan = build_plan(
            &known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 64, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(plan.l > 0);
        let m = plan.m();
        for i in 1..4 {
            let missing: Vec<usize> = (0..m).filter(|r| !plan.decodable[i].contains(r)).collect();
            assert!(missing.len() <= m - plan.l, "terminal {i}");
            if !missing.is_empty() {
                assert_eq!(
                    plan.c_mat.select_columns(&missing).rank(),
                    missing.len(),
                    "terminal {i} cannot invert its z system"
                );
            }
        }
        // [C; D] invertible.
        let cd = plan.c_mat.vstack(&plan.d_mat);
        assert!(cd.inverse().is_some());
    }

    #[test]
    fn hall_ledger_respects_unit_capacities() {
        // Two packets of capacity, three rows on the same 2-packet
        // support: third must be rejected.
        let view = EveView { miss_capacity: vec![1, 1, 0, 0], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[view]);
        assert!(hall.try_add(&[0, 1, 2]));
        assert!(hall.try_add(&[0, 1, 3]));
        assert!(!hall.try_add(&[0, 1]));
    }

    #[test]
    fn hall_ledger_uses_augmenting_paths() {
        // Row A fits on packet 0 or 1; row B only on 0. Add A (takes 0),
        // then B must displace A to packet 1.
        let view = EveView { miss_capacity: vec![1, 1], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[view]);
        assert!(hall.try_add(&[0, 1]));
        assert!(hall.try_add(&[0]));
        // Both packets now saturated.
        assert!(!hall.try_add(&[0, 1]));
    }

    #[test]
    fn hall_ledger_concedes_contained_supports() {
        // Candidate view concedes rows inside {0,1}; a second
        // (oracle-like) view provides the actual secrecy evidence.
        let candidate =
            EveView { miss_capacity: vec![0, 0, 1], row_demand: 1, concede: Some(set(&[0, 1])) };
        let oracle = EveView { miss_capacity: vec![1, 1, 1], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[candidate, oracle]);
        // Inside the candidate's knowledge: conceded there, matched in the
        // oracle view; consumes oracle capacity only.
        assert!(hall.try_add(&[0, 1]));
        assert!(hall.try_add(&[0, 1]));
        // Outside: needs capacity in both views.
        assert!(hall.try_add(&[1, 2]));
        assert!(!hall.try_add(&[1, 2]));
    }

    #[test]
    fn rows_conceded_by_every_view_are_rejected() {
        // Under the estimator's own hypotheses a row inside every
        // candidate's knowledge is compromised: it must not be admitted,
        // however "free" it looks.
        let v1 =
            EveView { miss_capacity: vec![0, 0, 1], row_demand: 1, concede: Some(set(&[0, 1])) };
        let v2 =
            EveView { miss_capacity: vec![0, 1, 0], row_demand: 1, concede: Some(set(&[0, 1, 2])) };
        let mut hall = HallLedger::new(&[v1, v2]);
        assert!(!hall.try_add(&[0, 1]));
        // And an empty view list rejects everything.
        let mut empty = HallLedger::new(&[]);
        assert!(!empty.try_add(&[0]));
    }

    #[test]
    fn hall_ledger_fractional_demand() {
        // fraction 1/2 with scale 16: each packet supplies 8 units, a row
        // needs 16 → a row needs at least 2 packets of support.
        let view = EveView { miss_capacity: vec![8, 8, 8, 8], row_demand: 16, concede: None };
        let mut hall = HallLedger::new(&[view]);
        assert!(!hall.try_add(&[0]));
        assert!(hall.try_add(&[0, 1]));
        assert!(hall.try_add(&[2, 3]));
        assert!(!hall.try_add(&[0, 1, 2, 3]));
    }

    #[test]
    fn rollback_on_multi_view_failure_is_clean() {
        // View 1 admits the row, view 2 rejects it: view 1 must roll back
        // so a subsequent feasible row still fits.
        let v1 = EveView { miss_capacity: vec![1, 0], row_demand: 1, concede: None };
        let v2 = EveView { miss_capacity: vec![0, 0], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[v1.clone(), v2]);
        assert!(!hall.try_add(&[0]));
        // Replace second view by a permissive one and verify capacity in
        // view 1 was not consumed by the failed attempt.
        let v2b = EveView { miss_capacity: vec![1, 1], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[v1, v2b]);
        assert!(hall.try_add(&[0]));
        assert!(!hall.try_add(&[0]));
    }

    #[test]
    fn block_construction_can_leak_where_aligned_does_not() {
        // Overlapping receptions with a *tight* Eve: the naive per-terminal
        // blocks spend more rows than Eve's unknown budget, so publishing
        // z-packets reveals part of the secret; the aligned construction
        // shares supports and stays within budget.
        let mut rng = StdRng::seed_from_u64(17);
        let n_packets = 12;
        let known = vec![
            (0..n_packets).collect::<BTreeSet<_>>(),
            set(&[0, 1, 2, 3, 4, 5, 6, 7]),
            set(&[0, 1, 2, 3, 4, 5, 6, 7]),
            set(&[0, 1, 2, 3, 4, 5, 6, 7]),
        ];
        // Eve misses exactly {0, 1, 2} of the shared packets.
        let eve: BTreeSet<usize> = (3..n_packets).collect();
        let est = Estimator::Oracle { eve_known: eve.clone() };

        let aligned = build_plan(
            &known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 64, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(aligned.l > 0);
        assert_eq!(measured_secret_dims(&aligned, &eve), aligned.l);

        let block = build_block_plan(&known, 0, n_packets, &est, &mut rng, 64).unwrap();
        assert!(block.l > 0);
        // 3 terminals × 3 rows = 9 rows but Eve misses only 3 packets:
        // rank(W|U) <= 3 < M, so z-packets leak.
        let dims = measured_secret_dims(&block, &eve);
        assert!(dims < block.l, "naive construction unexpectedly secret: {dims} of {}", block.l);
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let est = Estimator::Oracle { eve_known: set(&[]) };
        assert!(matches!(
            build_plan(&[set(&[0])], 0, 2, &est, &mut rng, PlanParams::exact()),
            Err(ProtocolError::BadConfig(_))
        ));
        assert!(matches!(
            build_plan(&[set(&[0]), set(&[0])], 5, 2, &est, &mut rng, PlanParams::exact()),
            Err(ProtocolError::BadConfig(_))
        ));
    }

    #[test]
    fn max_rows_is_respected() {
        let mut rng = StdRng::seed_from_u64(5);
        let n_packets = 40;
        let known: Vec<BTreeSet<usize>> =
            vec![(0..n_packets).collect(), (0..30).collect(), (10..40).collect()];
        let est = Estimator::Oracle { eve_known: set(&[]) };
        let plan = build_plan(
            &known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 7, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(plan.m() <= 7, "m = {}", plan.m());
    }

    #[test]
    fn dense_row_roundtrip() {
        let r = YRow { support: vec![1, 3], coeffs: vec![Gf256(7), Gf256(9)] };
        let d = r.dense(5);
        assert_eq!(d, vec![Gf256(0), Gf256(7), Gf256(0), Gf256(9), Gf256(0)]);
    }
}
