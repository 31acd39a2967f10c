//! The frozen from-scratch max-min fair-share solver.

use mps_des::{Demand, SolverError};

/// The original from-scratch bottleneck iteration, frozen as a reference
/// implementation for differential testing against
/// [`SolverWorkspace`](mps_des::SolverWorkspace).
///
/// Semantics are identical to [`mps_des::max_min_fair_rates`] (same errors, same
/// tie-breaking by lowest resource index, same handling of bounds and empty
/// demands); only the constant factors differ. Do not optimise this function:
/// its value is being simple enough to audit.
///
/// # Errors
///
/// Fails when a demand references a resource out of range or any number is
/// negative/NaN.
pub fn max_min_fair_rates_ref(
    capacities: &[f64],
    demands: &[Demand],
) -> Result<Vec<f64>, SolverError> {
    validate(capacities, demands)?;

    let n = demands.len();
    let mut rates = vec![f64::INFINITY; n];
    if n == 0 {
        return Ok(rates);
    }

    let mut remaining_cap = capacities.to_vec();
    // Activities still unfrozen.
    let mut active: Vec<bool> = demands.iter().map(|d| !d.is_empty()).collect();

    // Empty demands are only limited by their bound.
    for (i, d) in demands.iter().enumerate() {
        if d.is_empty() {
            rates[i] = d.bound;
        }
    }

    // Resources touched by at least one active activity, with a positive
    // total weight, constrain the allocation.
    loop {
        // Total weight of unfrozen activities per resource.
        let mut total_weight = vec![0.0_f64; capacities.len()];
        let mut any_active = false;
        for (i, d) in demands.iter().enumerate() {
            if !active[i] {
                continue;
            }
            any_active = true;
            for &(r, w) in &d.weights {
                if w > 0.0 {
                    total_weight[r] += w;
                }
            }
        }
        if !any_active {
            break;
        }

        // Bottleneck rate: the smallest capacity/weight ratio.
        let mut bottleneck_rate = f64::INFINITY;
        for (r, &tw) in total_weight.iter().enumerate() {
            if tw > 0.0 {
                let rate = (remaining_cap[r].max(0.0)) / tw;
                if rate < bottleneck_rate {
                    bottleneck_rate = rate;
                }
            }
        }

        // The tightest bound among unfrozen activities may be tighter than
        // the bottleneck; freeze those activities first.
        let mut tightest_bound = f64::INFINITY;
        for (i, d) in demands.iter().enumerate() {
            if active[i] && d.bound < tightest_bound {
                tightest_bound = d.bound;
            }
        }

        if tightest_bound < bottleneck_rate {
            // Freeze every activity whose bound equals the tightest bound.
            for (i, d) in demands.iter().enumerate() {
                if active[i] && d.bound <= tightest_bound {
                    rates[i] = d.bound;
                    active[i] = false;
                    for &(r, w) in &d.weights {
                        if w > 0.0 {
                            remaining_cap[r] -= w * d.bound;
                        }
                    }
                }
            }
            continue;
        }

        if !bottleneck_rate.is_finite() {
            // No constraining resource left: remaining activities only touch
            // resources nobody is constrained on (can only happen if all
            // weights were zero, which `is_empty` already filtered) — treat
            // as bound-limited.
            for (i, d) in demands.iter().enumerate() {
                if active[i] {
                    rates[i] = d.bound;
                    active[i] = false;
                }
            }
            break;
        }

        // Freeze every unfrozen activity on the single bottleneck resource at
        // `bottleneck_rate`, then re-solve. Tied resources are handled on
        // subsequent iterations; the updated capacity/weight ratio of a tied
        // resource is exactly `bottleneck_rate` again, so the result is
        // identical to freezing them in one pass — without the staleness
        // hazard of near-ties.
        let bottleneck_resource = total_weight
            .iter()
            .enumerate()
            .filter(|&(_, &tw)| tw > 0.0)
            .min_by(|&(ra, &twa), &(rb, &twb)| {
                let rate_a = remaining_cap[ra].max(0.0) / twa;
                let rate_b = remaining_cap[rb].max(0.0) / twb;
                rate_a.total_cmp(&rate_b)
            })
            .map(|(r, _)| r);
        let mut frozen_any = false;
        if let Some(r) = bottleneck_resource {
            for (i, d) in demands.iter().enumerate() {
                if active[i] && d.weights.iter().any(|&(dr, w)| dr == r && w > 0.0) {
                    rates[i] = bottleneck_rate;
                    active[i] = false;
                    frozen_any = true;
                    for &(rr, w) in &d.weights {
                        if w > 0.0 {
                            remaining_cap[rr] -= w * bottleneck_rate;
                        }
                    }
                }
            }
        }
        debug_assert!(frozen_any, "bottleneck iteration must make progress");
        if !frozen_any {
            // Defensive: avoid an infinite loop in release builds.
            for (i, d) in demands.iter().enumerate() {
                if active[i] {
                    rates[i] = d.bound.min(bottleneck_rate);
                    active[i] = false;
                }
            }
            break;
        }
    }

    Ok(rates)
}

// `!(x >= 0.0)` deliberately catches NaN as well as negative values.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn validate(capacities: &[f64], demands: &[Demand]) -> Result<(), SolverError> {
    for &c in capacities {
        if !(c >= 0.0) {
            return Err(SolverError::InvalidNumber {
                context: "resource capacity",
            });
        }
    }
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
            if !(w >= 0.0) {
                return Err(SolverError::InvalidNumber {
                    context: "demand weight",
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_des::{max_min_fair_rates, SolverWorkspace};
    use proptest::prelude::*;

    fn rates(caps: &[f64], demands: &[Demand]) -> Vec<f64> {
        max_min_fair_rates(caps, demands).expect("solver failed")
    }

    #[test]
    fn reference_agrees_on_the_classic_cases() {
        // Spot-check that the frozen reference still solves; the proptests
        // below compare it exhaustively against the workspace.
        let r = max_min_fair_rates_ref(&[100.0], &[Demand::single(0, 1.0)]).unwrap();
        assert_eq!(r, vec![100.0]);
        let f0 = Demand {
            weights: vec![(0, 1.0), (1, 1.0)],
            bound: f64::INFINITY,
        };
        let r = max_min_fair_rates_ref(
            &[1.0, 1.0],
            &[f0, Demand::single(0, 1.0), Demand::single(1, 1.0)],
        )
        .unwrap();
        for got in &r {
            assert!((got - 0.5).abs() < 1e-9, "rates: {r:?}");
        }
    }

    #[test]
    fn duplicate_resource_entries_accumulate() {
        // Two entries on the same resource act like their sum, in both
        // implementations.
        let d = Demand {
            weights: vec![(0, 1.0), (0, 2.0)],
            bound: f64::INFINITY,
        };
        let ws_rates = rates(&[9.0], std::slice::from_ref(&d));
        let ref_rates = max_min_fair_rates_ref(&[9.0], &[d]).unwrap();
        assert!((ws_rates[0] - 3.0).abs() < 1e-9, "rates: {ws_rates:?}");
        assert_eq!(ws_rates, ref_rates);
    }

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

    /// `1e-9`-relative agreement, treating equal infinities as agreeing.
    fn rates_agree(a: f64, b: f64) -> bool {
        if a.is_infinite() || b.is_infinite() {
            return a == b;
        }
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    proptest! {
        /// The workspace solver and the frozen reference agree to 1e-9 on
        /// randomized problems (including degenerate ones), and fail with
        /// the same error on invalid input.
        #[test]
        fn workspace_matches_reference(
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
            let mut ws = SolverWorkspace::new();
            match (ws.solve(&caps, &demands), max_min_fair_rates_ref(&caps, &demands)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert!(rates_agree(*g, *w), "{} != {} (rates {:?} vs {:?})", g, w, got, want);
                    }
                }
                (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
                (got, want) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", got, want),
            }
        }

        /// A single reused workspace stays exact across a randomized sequence
        /// of differently-shaped problems (buffer reuse must not leak state
        /// between solves).
        #[test]
        fn reused_workspace_matches_reference_across_a_sequence(
            problems in proptest::collection::vec(
                (
                    proptest::collection::vec(0.0f64..100.0, 1..6),
                    proptest::collection::vec(
                        (
                            proptest::collection::vec((0usize..6, 0.0f64..10.0), 0..5),
                            0u32..2,
                            0.0f64..100.0,
                        ),
                        0..8,
                    ),
                ),
                1..6,
            ),
        ) {
            let mut ws = SolverWorkspace::new();
            for (caps, raw) in problems {
                let mut demands: Vec<Demand> = raw.into_iter().map(build_demand).collect();
                // Clamp indices in range: this property targets buffer reuse,
                // not error paths.
                for d in &mut demands {
                    for w in &mut d.weights {
                        w.0 %= caps.len();
                    }
                }
                let want = max_min_fair_rates_ref(&caps, &demands).unwrap();
                let got = ws.solve(&caps, &demands).unwrap();
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(rates_agree(*g, *w), "{} != {}", g, w);
                }
            }
        }
    }
}
