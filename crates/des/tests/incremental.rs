//! Differential tests for the incremental engine pipeline.
//!
//! The engine's dirty-set / component-closure re-solver must agree with
//! the frozen from-scratch solver `max_min_fair_rates_ref` at every point
//! of an arbitrary start/step sequence, and the timer-only fast path must
//! demonstrably skip solves.

use mps_des::{
    max_min_fair_rates_ref, ActivityId, ActivitySpec, Completion, Demand, Engine, ResourceId,
};
use proptest::prelude::*;

/// Rates agree when both are infinite or within 1e-9 relative.
fn rates_agree(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// One live activity as the test sees it: id, staged weights, rate bound.
type LiveActivity = (ActivityId, Vec<(usize, f64)>, f64);

/// Mirror of the engine's live working set, maintained from the outside:
/// the test knows what it started and sees what completed.
struct Mirror {
    caps: Vec<f64>,
    /// Live activities, ascending id.
    live: Vec<LiveActivity>,
}

impl Mirror {
    fn reference_rates(&self) -> Vec<(ActivityId, f64)> {
        let demands: Vec<Demand> = self
            .live
            .iter()
            .map(|(_, weights, bound)| Demand {
                weights: weights.clone(),
                bound: *bound,
            })
            .collect();
        let rates = max_min_fair_rates_ref(&self.caps, &demands).expect("valid problem");
        self.live.iter().map(|(id, _, _)| *id).zip(rates).collect()
    }
}

fn check_against_reference(engine: &mut Engine, mirror: &Mirror) {
    let got = engine.solved_rates().expect("solved_rates");
    let want = mirror.reference_rates();
    assert_eq!(
        got.len(),
        want.len(),
        "live set diverged: engine {got:?} vs reference {want:?}"
    );
    for (&(id, rate), &(want_id, want_rate)) in got.iter().zip(&want) {
        assert_eq!(id, want_id, "live set order diverged");
        assert!(
            rates_agree(rate, want_rate),
            "activity {id:?}: incremental {rate} vs reference {want_rate}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings of starts and steps: after every mutation
    /// the engine's cached incremental rates match a from-scratch solve of
    /// the same live set by the frozen reference solver.
    #[test]
    fn incremental_rates_match_reference_over_sequences(
        caps in proptest::collection::vec(0.5f64..100.0, 1..6),
        ops in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..6, 0.0f64..3.0), 0..4), // weights
                0.1f64..50.0,                                              // amount
                any::<bool>(),                                             // bounded rate?
                0.5f64..20.0,                                              // bound value
                any::<bool>(),                                             // step after?
            ),
            1..12,
        ),
    ) {
        let mut engine = Engine::new();
        let res: Vec<ResourceId> = caps.iter().map(|&c| engine.add_resource(c)).collect();
        let mut mirror = Mirror { caps, live: Vec::new() };

        for (weights, amount, bounded, bound_val, step_after) in ops {
            let bound = if bounded { bound_val } else { f64::INFINITY };
            let mut spec = ActivitySpec::new(amount).with_rate_bound(bound);
            let mut mirror_weights = Vec::new();
            for (ri, w) in weights {
                let r = ri % res.len();
                spec = spec.on(res[r], w);
                if w > 0.0 {
                    mirror_weights.push((r, w));
                }
            }
            let id = engine.start(&spec).expect("start");
            mirror.live.push((id, mirror_weights, bound));
            check_against_reference(&mut engine, &mirror);

            if step_after && !engine.is_idle() {
                if let Some(step) = engine.step().expect("step") {
                    for c in &step.completed {
                        if let Completion::Activity(done) = c {
                            mirror.live.retain(|(id, _, _)| id != done);
                        }
                    }
                    check_against_reference(&mut engine, &mirror);
                }
            }
        }
    }
}

/// Timer-only steps must not re-enter the solver: `Engine::solves` stays
/// flat while a timer storm fires under live activities, and completions
/// do perturb it.
#[test]
fn timer_only_steps_skip_the_solver() {
    let mut e = Engine::new();
    let r = e.add_resource(10.0);
    for _ in 0..4 {
        e.start(&ActivitySpec::new(1.0e9).on(r, 1.0))
            .expect("start");
    }
    for i in 0..20 {
        e.schedule_timer(0.01 * (i + 1) as f64).expect("timer");
    }
    // First step solves the initial sharing problem once.
    e.step().expect("step").expect("not idle");
    let after_first = e.solves();
    assert!(after_first >= 1);
    for _ in 0..19 {
        let step = e.step().expect("step").expect("not idle");
        assert!(step
            .completed
            .iter()
            .all(|c| matches!(c, Completion::Timer(_))));
    }
    assert_eq!(
        e.solves(),
        after_first,
        "timer-only steps re-entered the solver"
    );

    // A genuine completion does require a re-solve.
    let quick = e.start(&ActivitySpec::new(0.5).on(r, 1.0)).expect("start");
    let step = e.step().expect("step").expect("not idle");
    assert!(step.completed.contains(&Completion::Activity(quick)));
    assert!(e.solves() > after_first);
}

/// Four two-host activities that share only a backbone, beside one that
/// shares nothing: the closure search walks the backbone alone (each host
/// CPU carries one live entry and leads nowhere) and stops once it holds
/// every attached activity, one-round solves skip the solver's reverse
/// index, timer-only steps skip the refresh, and `reset` clears every
/// counter.
#[test]
fn closure_search_visits_only_shared_resources() {
    let mut e = Engine::new();
    let cpus: Vec<ResourceId> = (0..9).map(|_| e.add_resource(100.0)).collect();
    let backbone = e.add_resource(10.0);
    let acts: Vec<ActivityId> = (0..4)
        .map(|i| {
            let spec = ActivitySpec::new((i + 1) as f64)
                .on(cpus[2 * i], 1.0)
                .on(cpus[2 * i + 1], 1.0)
                .on(backbone, 1.0);
            e.start(&spec).expect("start")
        })
        .collect();
    e.start(&ActivitySpec::new(1.0e3).on(cpus[8], 1.0))
        .expect("start");
    for i in 0..3 {
        e.schedule_timer(0.1 * (i + 1) as f64).expect("timer");
    }
    let counters = |e: &Engine| {
        (
            e.refreshes(),
            e.resources_visited(),
            e.solves(),
            e.single_round_solves(),
        )
    };

    // One refresh seeded with all five new activities: the closure holds
    // every attached activity before any resource is walked. The backbone
    // freezes its four at 10 / 4, and the lone activity needs a second
    // round.
    let rates = e.solved_rates().expect("rates");
    assert_eq!(rates.len(), 5);
    assert!(rates[..4].iter().all(|&(_, r)| r == 2.5), "rates {rates:?}");
    assert_eq!(counters(&e), (1, 0, 1, 0));

    for _ in 0..3 {
        let step = e.step().expect("step").expect("not idle");
        assert!(step
            .completed
            .iter()
            .all(|c| matches!(c, Completion::Timer(_))));
    }
    assert_eq!(counters(&e), (1, 0, 1, 0), "timer-only steps refreshed");

    // The first activity finishes: its CPUs are left empty, so only the
    // backbone turns dirty. Walking it finds the three survivors, whose
    // CPUs lead nowhere; they re-solve alone, in one round.
    let step = e.step().expect("step").expect("not idle");
    assert_eq!(step.completed, vec![Completion::Activity(acts[0])]);
    let rates = e.solved_rates().expect("rates");
    assert!(
        rates[..3].iter().all(|&(_, r)| r == 10.0 / 3.0),
        "rates {rates:?}"
    );
    assert_eq!(counters(&e), (2, 1, 2, 1));

    // A rate-bounded newcomer on the backbone pulls in the three others
    // through the backbone alone, and undercuts the bottleneck: the solve
    // needs a second round.
    e.start(
        &ActivitySpec::new(1.0)
            .on(backbone, 1.0)
            .with_rate_bound(0.1),
    )
    .expect("start");
    e.solved_rates().expect("rates");
    assert_eq!(counters(&e), (3, 2, 3, 1));

    e.reset();
    assert_eq!(counters(&e), (0, 0, 0, 0));
}
