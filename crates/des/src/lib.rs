//! # mps-des — discrete-event simulation kernel
//!
//! The lowest layer of the `mps` reproduction of *"From Simulation to
//! Experiment: A Case Study on Multiprocessor Task Scheduling"* (Hunold,
//! Casanova, Suter, APDCM 2011).
//!
//! This crate provides the machinery every simulator in the workspace is
//! built on:
//!
//! * a **bottleneck max-min fair-share solver** ([`solver`]) — the sharing
//!   semantics of SimGrid's analytic models;
//! * an **activity-oriented engine** ([`engine`]) with a fluid progress
//!   model: activities consume resources at fair-shared rates, and the clock
//!   jumps from completion to completion;
//! * a **dense index bitset** ([`bitset`]) that hands touched resources
//!   back in ascending order without sorting.
//!
//! ## Example
//!
//! Two equal compute activities sharing one 100-unit/s resource finish at
//! t = 2 s (each progresses at 50 units/s):
//!
//! ```
//! use mps_des::{ActivitySpec, Engine};
//!
//! let mut engine = Engine::new();
//! let cpu = engine.add_resource(100.0);
//! engine.start(&ActivitySpec::new(100.0).on(cpu, 1.0)).unwrap();
//! engine.start(&ActivitySpec::new(100.0).on(cpu, 1.0)).unwrap();
//! let steps = engine.run_to_idle().unwrap();
//! assert_eq!(steps.len(), 1);
//! assert!((steps[0].time - 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod engine;
pub mod solver;

pub use bitset::IndexBitset;
pub use engine::{
    ActivityId, ActivitySpec, Completion, Engine, EngineError, MemoryFootprint, ResourceId,
    StepResult, TimerId, Watchdog,
};
pub use solver::{
    max_min_fair_rates, Demand, ResourceIndex, SharingProblem, SolverError, SolverWorkspace,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_activity_finishes_at_amount_over_capacity() {
        let mut e = Engine::new();
        let cpu = e.add_resource(250.0e6);
        e.start(&ActivitySpec::new(2.0 * 250.0e6).on(cpu, 1.0))
            .unwrap();
        let steps = e.run_to_idle().unwrap();
        assert_eq!(steps.len(), 1);
        assert!((steps[0].time - 2.0).abs() < 1e-9);
        assert!(e.is_idle());
    }

    #[test]
    fn latency_delays_the_work_phase() {
        let mut e = Engine::new();
        let link = e.add_resource(125.0e6);
        // 125 MB over a 125 MB/s link with 100 µs latency: 1.0001 s.
        e.start(
            &ActivitySpec::new(125.0e6)
                .on(link, 1.0)
                .with_latency(100.0e-6),
        )
        .unwrap();
        let steps = e.run_to_idle().unwrap();
        assert!((steps[0].time - 1.0001).abs() < 1e-9);
    }

    #[test]
    fn zero_amount_activity_completes_after_latency_only() {
        let mut e = Engine::new();
        let link = e.add_resource(1.0);
        e.start(&ActivitySpec::new(0.0).on(link, 1.0).with_latency(0.5))
            .unwrap();
        let steps = e.run_to_idle().unwrap();
        assert_eq!(steps.len(), 1);
        assert!((steps[0].time - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_amount_zero_latency_completes_immediately() {
        let mut e = Engine::new();
        let r = e.add_resource(1.0);
        e.start(&ActivitySpec::new(0.0).on(r, 1.0)).unwrap();
        let steps = e.run_to_idle().unwrap();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].time, 0.0);
    }

    #[test]
    fn contention_is_released_when_an_activity_finishes() {
        // A short and a long activity share a resource; once the short one
        // finishes the long one speeds up.
        // cap = 10/s. Short: 10 units, long: 30 units.
        // Phase 1: both at 5/s; short done at t=2 (long has 20 left).
        // Phase 2: long alone at 10/s; done at t=4.
        let mut e = Engine::new();
        let r = e.add_resource(10.0);
        let short = e.start(&ActivitySpec::new(10.0).on(r, 1.0)).unwrap();
        let long = e.start(&ActivitySpec::new(30.0).on(r, 1.0)).unwrap();
        let steps = e.run_to_idle().unwrap();
        assert_eq!(steps.len(), 2);
        assert!((steps[0].time - 2.0).abs() < 1e-9);
        assert_eq!(steps[0].completed, vec![Completion::Activity(short)]);
        assert!((steps[1].time - 4.0).abs() < 1e-9);
        assert_eq!(steps[1].completed, vec![Completion::Activity(long)]);
    }

    #[test]
    fn activities_started_mid_simulation_share_from_then_on() {
        let mut e = Engine::new();
        let r = e.add_resource(10.0);
        e.start(&ActivitySpec::new(40.0).on(r, 1.0)).unwrap();
        e.schedule_timer(1.0).unwrap();
        // At t=1 the first activity has 30 left; start a second of 30.
        let s1 = e.step().unwrap().unwrap();
        assert!((s1.time - 1.0).abs() < 1e-9);
        e.start(&ActivitySpec::new(30.0).on(r, 1.0)).unwrap();
        // Both share 5/s until both finish at t = 1 + 6 = 7.
        let steps = e.run_to_idle().unwrap();
        let last = steps.last().unwrap();
        assert!((last.time - 7.0).abs() < 1e-9, "last time {}", last.time);
    }

    #[test]
    fn simultaneous_completions_are_batched() {
        let mut e = Engine::new();
        let r0 = e.add_resource(10.0);
        let r1 = e.add_resource(10.0);
        e.start(&ActivitySpec::new(10.0).on(r0, 1.0)).unwrap();
        e.start(&ActivitySpec::new(10.0).on(r1, 1.0)).unwrap();
        let steps = e.run_to_idle().unwrap();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].completed.len(), 2);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut e = Engine::new();
        let t2 = e.schedule_timer(2.0).unwrap();
        let t1 = e.schedule_timer(1.0).unwrap();
        let s1 = e.step().unwrap().unwrap();
        assert_eq!(s1.completed, vec![Completion::Timer(t1)]);
        let s2 = e.step().unwrap().unwrap();
        assert_eq!(s2.completed, vec![Completion::Timer(t2)]);
        assert!((e.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stalled_simulation_is_detected() {
        let mut e = Engine::new();
        let dead = e.add_resource(0.0);
        e.start(&ActivitySpec::new(1.0).on(dead, 1.0)).unwrap();
        let err = e.step().unwrap_err();
        assert!(matches!(err, EngineError::Stalled { .. }));
    }

    #[test]
    fn rate_bound_limits_progress() {
        let mut e = Engine::new();
        let r = e.add_resource(100.0);
        e.start(&ActivitySpec::new(10.0).on(r, 1.0).with_rate_bound(2.0))
            .unwrap();
        let steps = e.run_to_idle().unwrap();
        assert!((steps[0].time - 5.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut e = Engine::new();
        let r = e.add_resource(1.0);
        assert!(e.start(&ActivitySpec::new(-1.0).on(r, 1.0)).is_err());
        assert!(e
            .start(&ActivitySpec::new(1.0).on(r, 1.0).with_latency(-0.5))
            .is_err());
        assert!(e.start(&ActivitySpec::new(1.0).on(r, f64::NAN)).is_err());
        assert!(e.schedule_timer(f64::NAN).is_err());
        // Unknown resource: construct an id from another engine.
        let mut other = Engine::new();
        other.add_resource(1.0);
        let foreign = {
            let mut big = Engine::new();
            for _ in 0..100 {
                big.add_resource(1.0);
            }
            // Use an id with an index the first engine does not have.
            let mut last = None;
            for _ in 0..100 {
                last = Some(big.add_resource(1.0));
            }
            last.unwrap()
        };
        assert!(e.start(&ActivitySpec::new(1.0).on(foreign, 1.0)).is_err());
    }

    #[test]
    fn multi_resource_activity_is_limited_by_its_bottleneck() {
        let mut e = Engine::new();
        let cpu = e.add_resource(100.0);
        let link = e.add_resource(10.0);
        // Needs 1 cpu-unit and 1 link-unit per progress unit: link-bound.
        e.start(&ActivitySpec::new(20.0).on(cpu, 1.0).on(link, 1.0))
            .unwrap();
        let steps = e.run_to_idle().unwrap();
        assert!((steps[0].time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn current_rates_reports_working_activities() {
        let mut e = Engine::new();
        let r = e.add_resource(10.0);
        let a = e.start(&ActivitySpec::new(10.0).on(r, 1.0)).unwrap();
        let b = e.start(&ActivitySpec::new(10.0).on(r, 1.0)).unwrap();
        let rates = e.current_rates().unwrap();
        assert_eq!(rates.len(), 2);
        for (id, rate) in rates {
            assert!(id == a || id == b);
            assert!((rate - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sequential_timer_accumulation() {
        let mut e = Engine::new();
        let mut total = 0.0;
        for i in 1..=10 {
            e.schedule_timer(i as f64).unwrap();
            let s = e.step().unwrap().unwrap();
            total += i as f64;
            assert!((s.time - total).abs() < 1e-9);
        }
    }

    #[test]
    fn live_counts_track_state() {
        let mut e = Engine::new();
        let r = e.add_resource(1.0);
        assert!(e.is_idle());
        e.start(&ActivitySpec::new(1.0).on(r, 1.0)).unwrap();
        e.schedule_timer(10.0).unwrap();
        assert_eq!(e.live_activities(), 1);
        assert_eq!(e.pending_timers(), 1);
        e.step().unwrap();
        assert_eq!(e.live_activities(), 0);
        assert_eq!(e.pending_timers(), 1);
    }

    #[test]
    fn watchdog_trips_on_the_time_horizon() {
        let mut e = Engine::new();
        let r = e.add_resource(1.0);
        e.set_watchdog(Some(Watchdog::horizon(5.0)));
        // Finishes at t = 10 — past the horizon.
        e.start(&ActivitySpec::new(10.0).on(r, 1.0)).unwrap();
        match e.step() {
            Err(EngineError::Timeout { time, steps }) => {
                assert!((time - 10.0).abs() < 1e-9);
                assert_eq!(steps, 1);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_trips_on_the_step_budget() {
        let mut e = Engine::new();
        let r = e.add_resource(1.0);
        e.set_watchdog(Some(Watchdog::steps(3)));
        // Distinct amounts → one completion per step, ten steps total.
        for i in 1..=10 {
            e.start(&ActivitySpec::new(i as f64).on(r, 1.0)).unwrap();
        }
        let err = e.run_to_idle().unwrap_err();
        assert!(
            matches!(err, EngineError::Timeout { steps: 4, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn watchdog_trips_on_the_wall_clock_deadline() {
        let mut e = Engine::new();
        // A deadline already in the past: the first poll (step 4096) must
        // trip. Timers pop one per step, so give it more than one poll
        // window's worth of work.
        e.set_watchdog(Some(Watchdog::wall(std::time::Instant::now())));
        for i in 1..=2 * (Watchdog::WALL_CHECK_MASK + 1) {
            e.schedule_timer(i as f64).unwrap();
        }
        let err = e.run_to_idle().unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Timeout { steps, .. } if steps == Watchdog::WALL_CHECK_MASK + 1
            ),
            "{err:?}"
        );
    }

    #[test]
    fn wall_deadline_far_in_the_future_does_not_fire() {
        let mut e = Engine::new();
        let r = e.add_resource(1.0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        e.set_watchdog(Some(
            Watchdog::steps(1_000_000).with_wall_deadline(deadline),
        ));
        e.start(&ActivitySpec::new(1.0).on(r, 1.0)).unwrap();
        assert!(e.run_to_idle().is_ok());
    }

    #[test]
    fn disabled_watchdog_never_fires() {
        let mut e = Engine::new();
        let r = e.add_resource(1.0);
        e.set_watchdog(Some(Watchdog::default()));
        e.start(&ActivitySpec::new(1.0e9).on(r, 1.0)).unwrap();
        assert!(e.run_to_idle().is_ok());
        assert_eq!(e.steps_taken(), 1);
        // Uninstalling restores the unguarded behaviour.
        e.set_watchdog(None);
        e.start(&ActivitySpec::new(1.0).on(r, 1.0)).unwrap();
        assert!(e.run_to_idle().is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Max-min fair rates never violate any capacity constraint.
        #[test]
        fn solver_respects_capacities(
            caps in proptest::collection::vec(0.1f64..1e6, 1..8),
            raw in proptest::collection::vec(
                (0usize..8, 0.01f64..100.0, 0usize..8, 0.01f64..100.0),
                1..20
            ),
        ) {
            let demands: Vec<Demand> = raw
                .iter()
                .map(|&(r1, w1, r2, w2)| Demand {
                    weights: vec![(r1 % caps.len(), w1), (r2 % caps.len(), w2)],
                    bound: f64::INFINITY,
                })
                .collect();
            let rates = max_min_fair_rates(&caps, &demands).unwrap();
            let mut usage = vec![0.0; caps.len()];
            for (d, &rate) in demands.iter().zip(&rates) {
                prop_assert!(rate.is_finite());
                prop_assert!(rate >= 0.0);
                for &(r, w) in &d.weights {
                    usage[r] += w * rate;
                }
            }
            for (u, &c) in usage.iter().zip(&caps) {
                prop_assert!(*u <= c * (1.0 + 1e-6), "usage {} > cap {}", u, c);
            }
        }

        /// Max-min fairness: at least one used resource is saturated
        /// (work conservation) whenever there is at least one demand.
        #[test]
        fn solver_is_work_conserving(
            caps in proptest::collection::vec(0.1f64..1e6, 1..6),
            raw in proptest::collection::vec((0usize..6, 0.01f64..100.0), 1..12),
        ) {
            let demands: Vec<Demand> = raw
                .iter()
                .map(|&(r, w)| Demand::single(r % caps.len(), w))
                .collect();
            let rates = max_min_fair_rates(&caps, &demands).unwrap();
            let mut usage = vec![0.0; caps.len()];
            let mut used = vec![false; caps.len()];
            for (d, &rate) in demands.iter().zip(&rates) {
                for &(r, w) in &d.weights {
                    usage[r] += w * rate;
                    used[r] = true;
                }
            }
            let saturated = usage
                .iter()
                .zip(&caps)
                .zip(&used)
                .any(|((u, c), &was_used)| was_used && *u >= c * (1.0 - 1e-6));
            prop_assert!(saturated);
        }

        /// Engine completion time for one activity equals latency + amount/rate.
        #[test]
        fn engine_single_activity_time(
            cap in 0.1f64..1e6,
            amount in 0.0f64..1e6,
            latency in 0.0f64..10.0,
        ) {
            let mut e = Engine::new();
            let r = e.add_resource(cap);
            e.start(&ActivitySpec::new(amount).on(r, 1.0).with_latency(latency)).unwrap();
            let steps = e.run_to_idle().unwrap();
            let expected = latency + amount / cap;
            prop_assert!((steps[0].time - expected).abs() <= expected * 1e-9 + 1e-12);
        }

        /// N identical activities on one resource all finish simultaneously at
        /// n * amount / cap.
        #[test]
        fn engine_fair_share_n_way(
            cap in 1.0f64..1e4,
            amount in 1.0f64..1e4,
            n in 1usize..12,
        ) {
            let mut e = Engine::new();
            let r = e.add_resource(cap);
            for _ in 0..n {
                e.start(&ActivitySpec::new(amount).on(r, 1.0)).unwrap();
            }
            let steps = e.run_to_idle().unwrap();
            prop_assert_eq!(steps.len(), 1);
            let expected = n as f64 * amount / cap;
            prop_assert!((steps[0].time - expected).abs() <= expected * 1e-6);
        }
    }
}
