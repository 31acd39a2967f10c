//! Bottleneck max-min fair-share solver.
//!
//! This is the resource-sharing core of the simulation engine. Given a set of
//! *resources* with finite capacities and a set of *activities*, each of which
//! consumes one or more resources with a fixed per-unit-of-progress weight,
//! the solver computes a progress rate for every activity such that the
//! allocation is **max-min fair**: no activity's rate can be increased without
//! decreasing the rate of an activity that already has an equal or smaller
//! rate.
//!
//! The algorithm is the classic *bottleneck iteration*: repeatedly find the
//! resource that yields the smallest uniform rate for the activities still
//! unfrozen, freeze those activities at that rate, subtract their consumption
//! from the remaining capacities, and repeat. Rate *bounds* (per-activity rate
//! caps) are honoured by freezing bounded activities whenever their bound is
//! tighter than the current bottleneck rate.
//!
//! This mirrors the sharing semantics of SimGrid's `Ptask_L07` model, which
//! the paper's simulators are built on.
//!
//! [`SolverWorkspace`] is an allocation-free workspace that solves the
//! problem with CSR-packed demands, a maintained per-resource load, a
//! reverse resource→activity incidence index, and a sorted finite-bound
//! cursor. [`max_min_fair_rates`] is a thin convenience wrapper over it.
//! The original from-scratch algorithm is kept frozen outside the product
//! crates (`mps_oracle::max_min_fair_rates_ref`) for differential testing.

use crate::bitset::IndexBitset;

/// Index of a resource inside a [`SharingProblem`].
pub type ResourceIndex = usize;

/// One activity's demand: which resources it uses and with what weight.
///
/// A weight `w` on resource `r` means the activity consumes `w` capacity
/// units of `r` per unit of its own progress rate. A parallel task computing
/// on several hosts and communicating over several links has one entry per
/// host CPU and per traversed link direction.
#[derive(Debug, Clone, Default)]
pub struct Demand {
    /// `(resource, weight)` pairs. Weights must be non-negative; zero-weight
    /// entries are ignored.
    pub weights: Vec<(ResourceIndex, f64)>,
    /// Hard upper bound on the activity's rate (`f64::INFINITY` when
    /// unbounded).
    pub bound: f64,
}

impl Demand {
    /// Demand on a single resource with the given weight, unbounded rate.
    pub fn single(resource: ResourceIndex, weight: f64) -> Self {
        Demand {
            weights: vec![(resource, weight)],
            bound: f64::INFINITY,
        }
    }

    /// Builder-style rate bound.
    #[must_use]
    pub fn with_bound(mut self, bound: f64) -> Self {
        self.bound = bound;
        self
    }

    /// True when the demand touches no resource with a positive weight.
    pub fn is_empty(&self) -> bool {
        self.weights.iter().all(|&(_, w)| w <= 0.0)
    }
}

/// Errors produced by [`SharingProblem::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// A demand referenced a resource index outside the capacity vector.
    UnknownResource {
        /// Offending activity (position in the demand slice).
        activity: usize,
        /// Offending resource index.
        resource: ResourceIndex,
    },
    /// A weight, capacity, or bound was negative or NaN.
    InvalidNumber {
        /// Human-readable description of where the bad number appeared.
        context: &'static str,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::UnknownResource { activity, resource } => write!(
                f,
                "activity {activity} references unknown resource {resource}"
            ),
            SolverError::InvalidNumber { context } => {
                write!(f, "invalid (negative or NaN) number in {context}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// A max-min fair sharing problem: capacities plus per-activity demands.
#[derive(Debug, Clone, Default)]
pub struct SharingProblem {
    capacities: Vec<f64>,
    demands: Vec<Demand>,
}

impl SharingProblem {
    /// Empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a resource, returning its index.
    pub fn add_resource(&mut self, capacity: f64) -> ResourceIndex {
        self.capacities.push(capacity);
        self.capacities.len() - 1
    }

    /// Adds an activity demand, returning its index in the rate vector.
    pub fn add_demand(&mut self, demand: Demand) -> usize {
        self.demands.push(demand);
        self.demands.len() - 1
    }

    /// Number of resources.
    pub fn resource_count(&self) -> usize {
        self.capacities.len()
    }

    /// Number of activities.
    pub fn activity_count(&self) -> usize {
        self.demands.len()
    }

    /// Solves the problem, returning one max-min fair rate per activity.
    pub fn solve(&self) -> Result<Vec<f64>, SolverError> {
        max_min_fair_rates(&self.capacities, &self.demands)
    }
}

/// Computes max-min fair rates for `demands` over resources with the given
/// `capacities`.
///
/// Returns one rate per demand, in order. Activities with an empty demand
/// (no positive weight on any resource) receive their bound if finite, and
/// `f64::INFINITY` otherwise — they are not resource-constrained.
///
/// This is a convenience wrapper that builds a fresh [`SolverWorkspace`] per
/// call; hot paths should own a workspace and call [`SolverWorkspace::solve`]
/// to avoid the allocations.
///
/// # Errors
///
/// Fails when a demand references a resource out of range or any number is
/// negative/NaN.
pub fn max_min_fair_rates(capacities: &[f64], demands: &[Demand]) -> Result<Vec<f64>, SolverError> {
    let mut ws = SolverWorkspace::new();
    Ok(ws.solve(capacities, demands)?.to_vec())
}

/// Reusable, allocation-free state for the bottleneck iteration.
///
/// A workspace owns every buffer the solve needs, so repeated calls on a
/// warmed instance perform **zero heap allocations**: the [`Engine`] keeps one
/// across its whole lifetime and re-stages each step's problem into it.
///
/// Internally the staged problem is CSR-packed (`act_off`/`act_res`/`act_w`),
/// per-resource remaining capacity, total unfrozen weight, and unfrozen
/// activity counts are maintained incrementally as activities freeze (with an
/// exact recompute fallback if cancellation drives a maintained weight
/// non-positive), a counting-sorted reverse incidence index maps each
/// resource to the activities on it, and finite rate bounds are visited
/// through a sorted cursor instead of a per-iteration scan. A solve whose
/// first bottleneck carries every unfrozen activity (and is not undercut by
/// a bound) freezes them all at once and returns before the reverse index
/// and the bound order are built. Resource tie-breaking (lowest index
/// first) matches the frozen from-scratch reference.
///
/// [`Engine`]: crate::Engine
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    // Staged problem, CSR layout: activity `i` owns entries
    // `act_off[i]..act_off[i+1]` of `act_res`/`act_w`. Zero-weight entries
    // are never staged, so "no entries" means "empty demand".
    act_off: Vec<u32>,
    act_res: Vec<u32>,
    act_w: Vec<f64>,
    bounds: Vec<f64>,
    // Solution state.
    rates: Vec<f64>,
    active: Vec<bool>,
    // Unfrozen activities with a finite bound, sorted by (bound, index);
    // a cursor sweeps it monotonically across the whole solve.
    bound_order: Vec<u32>,
    // Per-resource state, valid only for resources touched by the current
    // solve (so no O(all resources) clearing between solves).
    rem_cap: Vec<f64>,
    total_weight: Vec<f64>,
    active_count: Vec<u32>,
    res_start: Vec<u32>,
    res_cursor: Vec<u32>,
    // First touches of the current solve; drained into `touched` in
    // ascending resource order.
    touched_bits: IndexBitset,
    touched: Vec<u32>,
    // Reverse incidence: activities per resource, ascending activity order,
    // resource `r` owning `res_entries[res_start[r]..res_cursor[r]]`.
    res_entries: Vec<u32>,
}

impl SolverWorkspace {
    /// Empty workspace. Buffers grow to the largest problem seen and are
    /// then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rates from the most recent solve, one per staged activity.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Solves `demands` over `capacities`, reusing this workspace's buffers.
    ///
    /// Semantically identical to [`max_min_fair_rates`]; the returned slice
    /// borrows the workspace and holds one rate per demand, in order.
    ///
    /// # Errors
    ///
    /// Fails when a demand references a resource out of range or any number
    /// is negative/NaN.
    pub fn solve(&mut self, capacities: &[f64], demands: &[Demand]) -> Result<&[f64], SolverError> {
        // Validation is fused into the staging pass — the checks and error
        // precedence of the frozen reference's separate validation pass,
        // in one traversal of the demands instead of two. A failed call leaves a partial stage behind,
        // which the next call's `clear_stage` discards.
        for &c in capacities {
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail too
            if !(c >= 0.0) {
                return Err(SolverError::InvalidNumber {
                    context: "resource capacity",
                });
            }
        }
        self.clear_stage();
        for (i, d) in demands.iter().enumerate() {
            if d.bound.is_nan() || d.bound < 0.0 {
                return Err(SolverError::InvalidNumber {
                    context: "activity bound",
                });
            }
            for &(r, w) in &d.weights {
                if r >= capacities.len() {
                    return Err(SolverError::UnknownResource {
                        activity: i,
                        resource: r,
                    });
                }
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(w >= 0.0) {
                    return Err(SolverError::InvalidNumber {
                        context: "demand weight",
                    });
                }
                if w > 0.0 {
                    self.push_weight(r, w);
                }
            }
            self.push_activity(d.bound);
        }
        self.solve_staged(capacities);
        Ok(&self.rates)
    }

    /// Drops any staged problem. Callers then stage activities one at a time
    /// with [`Self::push_weight`]/[`Self::push_activity`].
    pub(crate) fn clear_stage(&mut self) {
        self.act_off.clear();
        self.act_off.push(0);
        self.act_res.clear();
        self.act_w.clear();
        self.bounds.clear();
    }

    /// Adds one `(resource, weight)` entry to the activity currently being
    /// staged. Callers must only push strictly positive, finite weights for
    /// in-range resources.
    pub(crate) fn push_weight(&mut self, resource: usize, weight: f64) {
        self.act_res.push(resource as u32);
        self.act_w.push(weight);
    }

    /// Closes the activity currently being staged, recording its rate bound.
    /// Returns its index in the staged problem.
    pub(crate) fn push_activity(&mut self, bound: f64) -> usize {
        self.bounds.push(bound);
        self.act_off.push(self.act_res.len() as u32);
        self.bounds.len() - 1
    }

    /// Solves the staged problem against `capacities` without validation —
    /// staging callers guarantee in-range resources, positive weights, and
    /// non-NaN, non-negative capacities and bounds. The rates land in
    /// [`Self::rates`]; returns `false` when the solve needed a second
    /// round, and so built the reverse incidence index.
    pub(crate) fn solve_staged(&mut self, capacities: &[f64]) -> bool {
        let n = self.bounds.len();
        self.rates.clear();
        self.rates.resize(n, f64::INFINITY);
        self.active.clear();
        self.active.resize(n, false);

        let n_res = capacities.len();
        if self.rem_cap.len() < n_res {
            self.rem_cap.resize(n_res, 0.0);
            self.total_weight.resize(n_res, 0.0);
            self.active_count.resize(n_res, 0);
            self.res_start.resize(n_res, 0);
            self.res_cursor.resize(n_res, 0);
            self.touched_bits.grow(n_res);
        }
        self.touched.clear();

        // Pass 1: classify activities, initialise touched resources, and
        // accumulate per-resource load of the (initially all-unfrozen)
        // activity set. Also note the tightest finite bound, which is what
        // the sorted bound cursor below would report in the first round.
        let mut n_active = 0usize;
        let mut tightest_bound = f64::INFINITY;
        for i in 0..n {
            let (s, e) = (self.act_off[i] as usize, self.act_off[i + 1] as usize);
            if s == e {
                // Empty demand: only limited by its bound.
                self.rates[i] = self.bounds[i];
                continue;
            }
            self.active[i] = true;
            n_active += 1;
            if self.bounds[i] < tightest_bound {
                tightest_bound = self.bounds[i];
            }
            for k in s..e {
                let r = self.act_res[k] as usize;
                if self.touched_bits.insert(r) {
                    self.rem_cap[r] = capacities[r];
                    self.total_weight[r] = 0.0;
                    self.active_count[r] = 0;
                }
                self.total_weight[r] += self.act_w[k];
                self.active_count[r] += 1;
            }
        }
        // Ascending resource order keeps bottleneck tie-breaking identical
        // to the reference (first minimum wins).
        self.drain_touched();
        if n_active == 0 {
            return true;
        }

        // First round. When the bottleneck is not undercut by a bound and
        // carries every unfrozen activity, the round freezes them all at
        // its rate and the solve is over — exactly what the loop below
        // would do, minus building the reverse index. `active_count`
        // counts entries, and a demand may list a resource twice, so a
        // large enough count is only the cheap filter before an exact
        // per-activity check.
        let first = self.scan_bottleneck();
        let (bottleneck_res, bottleneck_rate) = first;
        if bottleneck_rate.is_finite()
            && tightest_bound >= bottleneck_rate
            && self.active_count[bottleneck_res] as usize >= n_active
            && (0..n).all(|i| {
                !self.active[i]
                    || self.act_res[self.act_off[i] as usize..self.act_off[i + 1] as usize]
                        .contains(&(bottleneck_res as u32))
            })
        {
            for i in 0..n {
                if self.active[i] {
                    self.rates[i] = bottleneck_rate;
                }
            }
            return true;
        }

        // Pass 2: counting-sorted reverse incidence. `active_count[r]` is
        // exactly resource r's entry count right now, which gives the slice
        // offsets for free. The counting sort writes every slot in
        // `0..act_res.len()`, so only length matters — no zero-fill.
        if self.res_entries.len() < self.act_res.len() {
            self.res_entries.resize(self.act_res.len(), 0);
        }
        let mut off = 0u32;
        for &r in &self.touched {
            let r = r as usize;
            self.res_start[r] = off;
            self.res_cursor[r] = off;
            off += self.active_count[r];
        }
        for i in 0..n {
            if !self.active[i] {
                continue;
            }
            for k in self.act_off[i] as usize..self.act_off[i + 1] as usize {
                let r = self.act_res[k] as usize;
                self.res_entries[self.res_cursor[r] as usize] = i as u32;
                self.res_cursor[r] += 1;
            }
        }

        // Unfrozen finite-bound activities, tightest (then lowest index)
        // first. Frozen entries are skipped as the cursor passes them, so the
        // sweep is O(n) amortised over the whole solve.
        self.bound_order.clear();
        for i in 0..n {
            if self.active[i] && self.bounds[i].is_finite() {
                self.bound_order.push(i as u32);
            }
        }
        let bounds = &self.bounds;
        self.bound_order.sort_unstable_by(|&a, &b| {
            bounds[a as usize]
                .total_cmp(&bounds[b as usize])
                .then(a.cmp(&b))
        });
        let mut bound_cursor = 0usize;

        // The first round's scan already ran above.
        let mut scanned = Some(first);
        while n_active > 0 {
            let (bottleneck_res, bottleneck_rate) = match scanned.take() {
                Some(first) => first,
                None => self.scan_bottleneck(),
            };

            // Tightest bound among unfrozen activities.
            while bound_cursor < self.bound_order.len()
                && !self.active[self.bound_order[bound_cursor] as usize]
            {
                bound_cursor += 1;
            }
            let tightest_bound = if bound_cursor < self.bound_order.len() {
                self.bounds[self.bound_order[bound_cursor] as usize]
            } else {
                f64::INFINITY
            };

            if tightest_bound < bottleneck_rate {
                // Freeze every unfrozen activity at the tightest bound. The
                // sorted order visits them by ascending index (ties sort by
                // index), matching the reference's subtraction order.
                let mut k = bound_cursor;
                while k < self.bound_order.len()
                    && self.bounds[self.bound_order[k] as usize] <= tightest_bound
                {
                    let i = self.bound_order[k] as usize;
                    if self.active[i] {
                        self.freeze(i, tightest_bound);
                        n_active -= 1;
                    }
                    k += 1;
                }
                bound_cursor = k;
                continue;
            }

            if !bottleneck_rate.is_finite() {
                // No constraining resource left; treat the rest as
                // bound-limited (unreachable after staging, kept for parity
                // with the reference).
                for i in 0..n {
                    if self.active[i] {
                        self.rates[i] = self.bounds[i];
                        self.active[i] = false;
                    }
                }
                break;
            }

            // Freeze every unfrozen activity on the bottleneck resource, in
            // ascending activity order (the incidence index is built that
            // way), exactly like the reference's demand scan.
            let r = bottleneck_res;
            let mut frozen_any = false;
            for idx in self.res_start[r]..self.res_cursor[r] {
                let i = self.res_entries[idx as usize] as usize;
                if self.active[i] {
                    self.freeze(i, bottleneck_rate);
                    n_active -= 1;
                    frozen_any = true;
                }
            }
            debug_assert!(frozen_any, "bottleneck iteration must make progress");
            if !frozen_any {
                // Defensive: avoid an infinite loop in release builds.
                for i in 0..n {
                    if self.active[i] {
                        self.rates[i] = self.bounds[i].min(bottleneck_rate);
                        self.active[i] = false;
                    }
                }
                break;
            }
        }

        false
    }

    /// One round's bottleneck: the smallest remaining-capacity/weight
    /// ratio, lowest resource index on ties, as `(resource, rate)` —
    /// `(usize::MAX, ∞)` when no resource constrains anything.
    ///
    /// The scan compares candidate `rem/tw` ratios by cross-multiplication
    /// (`rem_a*tw_b < rem_b*tw_a`), which costs two pipelined multiplies
    /// instead of a division per resource; the single division happens
    /// once, for the winner. Exactly tied ratios multiply to the same real
    /// value on both sides, so the strict `<` keeps the first
    /// (lowest-index) resource just like the reference's divided
    /// comparison does.
    fn scan_bottleneck(&mut self) -> (usize, f64) {
        let mut bn_rem = 0.0_f64;
        let mut bn_tw = 0.0_f64;
        let mut bottleneck_res = usize::MAX;
        // Stable in-place compaction: resources whose activities all froze
        // leave the list for good, so later rounds scan less.
        let mut keep = 0usize;
        for t in 0..self.touched.len() {
            let r = self.touched[t] as usize;
            if self.active_count[r] == 0 {
                continue;
            }
            self.touched[keep] = r as u32;
            keep += 1;
            if self.total_weight[r] <= 0.0 {
                // Incremental subtraction cancelled to <= 0 with unfrozen
                // activities still on the resource: recompute exactly. Never
                // in the first round, whose loads are sums of positive
                // weights — so the reverse index it reads always exists.
                self.recompute_weight(r);
                if self.total_weight[r] <= 0.0 {
                    continue;
                }
            }
            let rem = self.rem_cap[r].max(0.0);
            let tw = self.total_weight[r];
            let smaller = if bottleneck_res == usize::MAX {
                true
            } else {
                let lhs = rem * bn_tw;
                let rhs = bn_rem * tw;
                if lhs.is_finite() && rhs.is_finite() {
                    lhs < rhs
                } else {
                    // Product overflow (astronomical capacities): fall back
                    // to the divided comparison.
                    rem / tw < bn_rem / bn_tw
                }
            };
            if smaller {
                bn_rem = rem;
                bn_tw = tw;
                bottleneck_res = r;
            }
        }
        self.touched.truncate(keep);
        let rate = if bottleneck_res == usize::MAX {
            f64::INFINITY
        } else {
            bn_rem / bn_tw
        };
        (bottleneck_res, rate)
    }

    /// Moves this solve's touched resources from the bitset into `touched`,
    /// ascending — the order a sort of the first-touch list would give.
    fn drain_touched(&mut self) {
        let touched = &mut self.touched;
        self.touched_bits
            .drain_ascending(|r| touched.push(r as u32));
    }

    /// Freezes activity `i` at `rate`, subtracting its consumption from every
    /// resource it touches and shrinking their unfrozen load.
    #[inline]
    fn freeze(&mut self, i: usize, rate: f64) {
        self.rates[i] = rate;
        self.active[i] = false;
        for k in self.act_off[i] as usize..self.act_off[i + 1] as usize {
            let r = self.act_res[k] as usize;
            let w = self.act_w[k];
            self.rem_cap[r] -= w * rate;
            self.total_weight[r] -= w;
            self.active_count[r] -= 1;
            if self.active_count[r] == 0 {
                // Pin to exactly zero so subtraction residue can never fake a
                // constraining resource.
                self.total_weight[r] = 0.0;
            }
        }
    }

    /// Exact per-resource unfrozen weight, from the incidence index. Cold
    /// path: only runs when incremental maintenance cancels to `<= 0`.
    #[cold]
    fn recompute_weight(&mut self, r: usize) {
        let mut tw = 0.0;
        for idx in self.res_start[r]..self.res_cursor[r] {
            let i = self.res_entries[idx as usize] as usize;
            if !self.active[i] {
                continue;
            }
            for k in self.act_off[i] as usize..self.act_off[i + 1] as usize {
                if self.act_res[k] as usize == r {
                    tw += self.act_w[k];
                }
            }
        }
        self.total_weight[r] = tw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(caps: &[f64], demands: &[Demand]) -> Vec<f64> {
        max_min_fair_rates(caps, demands).expect("solver failed")
    }

    #[test]
    fn single_activity_single_resource() {
        let r = rates(&[100.0], &[Demand::single(0, 1.0)]);
        assert_eq!(r, vec![100.0]);
    }

    #[test]
    fn two_equal_activities_share_evenly() {
        let r = rates(&[100.0], &[Demand::single(0, 1.0), Demand::single(0, 1.0)]);
        assert_eq!(r, vec![50.0, 50.0]);
    }

    #[test]
    fn weights_scale_the_share() {
        // Activity 1 consumes twice as much per unit of progress, so it
        // progresses at half the rate under equal fairness pressure.
        let r = rates(&[90.0], &[Demand::single(0, 1.0), Demand::single(0, 2.0)]);
        assert!((r[0] - 30.0).abs() < 1e-9);
        assert!((r[1] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn independent_resources_do_not_interact() {
        let r = rates(
            &[10.0, 40.0],
            &[Demand::single(0, 1.0), Demand::single(1, 1.0)],
        );
        assert_eq!(r, vec![10.0, 40.0]);
    }

    #[test]
    fn bottleneck_frees_capacity_elsewhere() {
        // Activity A uses r0 (tight) and r1 (loose); activity B uses r1 only.
        // A is capped at 10 by r0; B then gets the rest of r1.
        let a = Demand {
            weights: vec![(0, 1.0), (1, 1.0)],
            bound: f64::INFINITY,
        };
        let b = Demand::single(1, 1.0);
        let r = rates(&[10.0, 100.0], &[a, b]);
        assert!((r[0] - 10.0).abs() < 1e-9);
        assert!((r[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn classic_three_flow_max_min() {
        // Two links of capacity 1. Flow 0 crosses both; flows 1 and 2 cross
        // one link each. Max-min: flow 0 gets 1/2, flows 1 and 2 get 1/2.
        let f0 = Demand {
            weights: vec![(0, 1.0), (1, 1.0)],
            bound: f64::INFINITY,
        };
        let f1 = Demand::single(0, 1.0);
        let f2 = Demand::single(1, 1.0);
        let r = rates(&[1.0, 1.0], &[f0, f1, f2]);
        for got in &r {
            assert!((got - 0.5).abs() < 1e-9, "rates: {r:?}");
        }
    }

    #[test]
    fn bound_caps_the_rate() {
        let d = Demand::single(0, 1.0).with_bound(5.0);
        let r = rates(&[100.0], &[d]);
        assert_eq!(r, vec![5.0]);
    }

    #[test]
    fn bound_releases_capacity_to_others() {
        let a = Demand::single(0, 1.0).with_bound(10.0);
        let b = Demand::single(0, 1.0);
        let r = rates(&[100.0], &[a, b]);
        assert!((r[0] - 10.0).abs() < 1e-9);
        assert!((r[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn empty_demand_gets_bound() {
        let d = Demand {
            weights: vec![],
            bound: 3.0,
        };
        let r = rates(&[1.0], &[d]);
        assert_eq!(r, vec![3.0]);
    }

    #[test]
    fn empty_demand_unbounded_is_infinite() {
        let d = Demand {
            weights: vec![],
            bound: f64::INFINITY,
        };
        let r = rates(&[1.0], &[d]);
        assert!(r[0].is_infinite());
    }

    #[test]
    fn zero_capacity_resource_gives_zero_rate() {
        let r = rates(&[0.0], &[Demand::single(0, 1.0)]);
        assert_eq!(r, vec![0.0]);
    }

    #[test]
    fn unknown_resource_is_an_error() {
        let err = max_min_fair_rates(&[1.0], &[Demand::single(3, 1.0)]).unwrap_err();
        assert_eq!(
            err,
            SolverError::UnknownResource {
                activity: 0,
                resource: 3
            }
        );
    }

    #[test]
    fn negative_capacity_is_an_error() {
        let err = max_min_fair_rates(&[-1.0], &[Demand::single(0, 1.0)]).unwrap_err();
        assert!(matches!(err, SolverError::InvalidNumber { .. }));
    }

    #[test]
    fn negative_weight_is_an_error() {
        let err = max_min_fair_rates(&[1.0], &[Demand::single(0, -1.0)]).unwrap_err();
        assert!(matches!(err, SolverError::InvalidNumber { .. }));
    }

    #[test]
    fn nan_bound_is_an_error() {
        let d = Demand::single(0, 1.0).with_bound(f64::NAN);
        let err = max_min_fair_rates(&[1.0], &[d]).unwrap_err();
        assert!(matches!(err, SolverError::InvalidNumber { .. }));
    }

    #[test]
    fn zero_weight_entries_are_ignored() {
        let d = Demand {
            weights: vec![(0, 0.0), (1, 1.0)],
            bound: f64::INFINITY,
        };
        let r = rates(&[0.0, 7.0], &[d]);
        assert_eq!(r, vec![7.0]);
    }

    #[test]
    fn sharing_problem_builder_roundtrip() {
        let mut p = SharingProblem::new();
        let r0 = p.add_resource(8.0);
        let a = p.add_demand(Demand::single(r0, 1.0));
        let b = p.add_demand(Demand::single(r0, 1.0));
        assert_eq!(p.resource_count(), 1);
        assert_eq!(p.activity_count(), 2);
        let rates = p.solve().unwrap();
        assert!((rates[a] - 4.0).abs() < 1e-9);
        assert!((rates[b] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_task_spanning_cpus_and_links() {
        // A parallel task on 2 CPUs (cap 250 each, weight 1 per cpu) that also
        // sends over a link (cap 125, weight 0.5). The CPU constraint allows
        // 250; the link allows 250; rate = 250.
        let d = Demand {
            weights: vec![(0, 1.0), (1, 1.0), (2, 0.5)],
            bound: f64::INFINITY,
        };
        let r = rates(&[250.0, 250.0, 125.0], &[d]);
        assert!((r[0] - 250.0).abs() < 1e-9);
    }

    #[test]
    fn many_activities_stress() {
        let n = 500;
        let demands: Vec<Demand> = (0..n).map(|_| Demand::single(0, 1.0)).collect();
        let r = rates(&[1000.0], &demands);
        for got in &r {
            assert!((got - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn workspace_reuse_is_clean_across_differently_shaped_problems() {
        let mut ws = SolverWorkspace::new();
        // Big problem first so every buffer grows.
        let demands: Vec<Demand> = (0..100).map(|i| Demand::single(i % 8, 1.0)).collect();
        let caps = vec![80.0; 8];
        let r = ws.solve(&caps, &demands).unwrap();
        assert_eq!(r.len(), 100);
        // Small problem after: stale state must not leak.
        let r = ws.solve(&[10.0], &[Demand::single(0, 1.0)]).unwrap();
        assert_eq!(r, &[10.0]);
        // Error then recovery.
        assert!(ws.solve(&[1.0], &[Demand::single(5, 1.0)]).is_err());
        let r = ws.solve(&[4.0], &[Demand::single(0, 2.0)]).unwrap();
        assert_eq!(r, &[2.0]);
    }

    // ---- degenerate-input properties -----------------------------------
    //
    // The solver sits on every simulated instant's critical path, so the
    // contract on junk input is: return `Ok` or a typed `SolverError`,
    // never panic and never loop forever. The generators below deliberately
    // include zero capacities, empty demand sets, empty weight lists, zero
    // weights and out-of-range resource indices.

    use proptest::prelude::*;

    /// Raw demand tuple: weight list (indices may be out of range), a
    /// selector for an infinite bound, and a finite bound value.
    type RawDemand = (Vec<(usize, f64)>, u32, f64);

    fn build_demand((weights, inf_sel, bound_val): RawDemand) -> Demand {
        Demand {
            weights,
            bound: if inf_sel == 0 {
                f64::INFINITY
            } else {
                bound_val
            },
        }
    }

    proptest! {
        /// Arbitrary (possibly degenerate) problems terminate with `Ok` or
        /// a typed error; `Ok` rates are non-negative and non-NaN.
        #[test]
        fn solver_is_total_on_degenerate_problems(
            caps in proptest::collection::vec(0.0f64..100.0, 0..6),
            raw in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..8, 0.0f64..10.0), 0..5),
                    0u32..2,
                    0.0f64..100.0,
                ),
                0..8,
            ),
        ) {
            let demands: Vec<Demand> = raw.into_iter().map(build_demand).collect();
            match max_min_fair_rates(&caps, &demands) {
                Ok(rates) => {
                    prop_assert_eq!(rates.len(), demands.len());
                    for r in rates {
                        prop_assert!(r >= 0.0 && !r.is_nan());
                    }
                }
                Err(SolverError::UnknownResource { resource, .. }) => {
                    prop_assert!(resource >= caps.len());
                }
                Err(SolverError::InvalidNumber { .. }) => {}
            }
        }

        /// All-zero capacities never panic: every constrained activity ends
        /// at rate zero, bound-only activities keep their bound.
        #[test]
        fn zero_capacity_resources_freeze_activities_at_zero(
            n_res in 1usize..5,
            raw in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..8, 0.0f64..10.0), 0..5),
                    0u32..2,
                    0.0f64..100.0,
                ),
                1..6,
            ),
        ) {
            let caps = vec![0.0; n_res];
            // Clamp resource indices in range so the zero capacity is the
            // only degeneracy under test.
            let demands: Vec<Demand> = raw
                .into_iter()
                .map(build_demand)
                .map(|mut d| {
                    for w in &mut d.weights {
                        w.0 %= n_res;
                    }
                    d
                })
                .collect();
            let rates = max_min_fair_rates(&caps, &demands).unwrap();
            for (r, d) in rates.iter().zip(&demands) {
                if d.is_empty() {
                    prop_assert_eq!(*r, d.bound);
                } else {
                    prop_assert_eq!(*r, 0.0);
                }
            }
        }

        /// The empty demand set solves to an empty rate vector for any
        /// capacity vector.
        #[test]
        fn empty_demand_sets_are_trivially_solved(
            caps in proptest::collection::vec(0.0f64..1000.0, 0..10),
        ) {
            prop_assert_eq!(max_min_fair_rates(&caps, &[]).unwrap(), Vec::<f64>::new());
        }

        /// A single activity saturates its bottleneck exactly: its rate is
        /// the tightest capacity/weight ratio (or its bound if tighter).
        #[test]
        fn single_activity_saturates_the_bottleneck(
            caps in proptest::collection::vec(0.001f64..1000.0, 1..6),
            weights in proptest::collection::vec(0.001f64..10.0, 1..6),
            inf_sel in 0u32..2,
            bound_val in 0.001f64..1e6,
        ) {
            let bound = if inf_sel == 0 { f64::INFINITY } else { bound_val };
            let k = weights.len().min(caps.len());
            let d = Demand {
                weights: weights[..k]
                    .iter()
                    .enumerate()
                    .map(|(r, &w)| (r, w))
                    .collect(),
                bound,
            };
            let expected = d
                .weights
                .iter()
                .map(|&(r, w)| caps[r] / w)
                .fold(bound, f64::min);
            let rates = max_min_fair_rates(&caps, &[d]).unwrap();
            prop_assert!((rates[0] - expected).abs() <= 1e-9 * expected.max(1.0));
        }
    }
}
