//! Mid-run platform mutation: `set_capacity`, `retire_resource`,
//! `cancel`, and the typed-failure guarantees the disturbance subsystem
//! leans on (a starved activity stalls or times out, it never spins).

use mps_des::{ActivitySpec, Completion, Engine, EngineError, Watchdog};

#[test]
fn set_capacity_rescales_an_in_flight_activity() {
    let mut engine = Engine::new();
    let cpu = engine.add_resource(10.0);
    // 100 units at 10/s → would finish at t=10.
    engine
        .start(&ActivitySpec::new(100.0).on(cpu, 1.0))
        .unwrap();
    // Let it run to t=4 via a timer, then halve the capacity.
    engine.schedule_timer(4.0).unwrap();
    let step = engine.step().unwrap().expect("timer fires");
    assert_eq!(step.time, 4.0);
    engine.set_capacity(cpu, 5.0).unwrap();
    // 60 units remain at 5/s → finishes 12 s later, at t=16.
    let step = engine.step().unwrap().expect("activity finishes");
    assert!(
        (step.time - 16.0).abs() < 1e-9,
        "expected finish at 16, got {}",
        step.time
    );
}

#[test]
fn set_capacity_invalidates_the_solo_rate_cache() {
    // A singleton activity exercises the solo-rate fast path; a capacity
    // bump mid-flight must not replay the cached rate.
    let mut engine = Engine::new();
    let cpu = engine.add_resource(1.0);
    engine.start(&ActivitySpec::new(10.0).on(cpu, 1.0)).unwrap();
    engine.schedule_timer(2.0).unwrap();
    engine.step().unwrap();
    engine.set_capacity(cpu, 4.0).unwrap();
    // 8 units remain at 4/s → finishes at t=4.
    let step = engine.step().unwrap().expect("finish");
    assert!((step.time - 4.0).abs() < 1e-9, "got {}", step.time);
    let rates = engine.solved_rates().unwrap();
    assert!(rates.is_empty());
}

#[test]
fn capacity_returns_none_for_retired_resources() {
    let mut engine = Engine::new();
    let cpu = engine.add_resource(3.0);
    assert_eq!(engine.capacity(cpu), Some(3.0));
    engine.retire_resource(cpu);
    assert_eq!(engine.capacity(cpu), None, "stale capacity leaked");
    assert!(engine.is_retired(cpu));
    assert_eq!(engine.base_capacity(cpu), 3.0);
    // Retirement is sticky: set_capacity is a no-op.
    engine.set_capacity(cpu, 7.0).unwrap();
    assert_eq!(engine.capacity(cpu), None);
}

#[test]
fn set_capacity_rejects_invalid_values() {
    let mut engine = Engine::new();
    let cpu = engine.add_resource(1.0);
    assert!(matches!(
        engine.set_capacity(cpu, -1.0),
        Err(EngineError::InvalidSpec { .. })
    ));
    assert!(matches!(
        engine.set_capacity(cpu, f64::NAN),
        Err(EngineError::InvalidSpec { .. })
    ));
    assert_eq!(engine.capacity(cpu), Some(1.0));
}

#[test]
fn an_activity_on_a_retired_resource_stalls_typed() {
    let mut engine = Engine::new();
    let cpu = engine.add_resource(2.0);
    engine.start(&ActivitySpec::new(50.0).on(cpu, 1.0)).unwrap();
    engine.schedule_timer(1.0).unwrap();
    engine.step().unwrap();
    engine.retire_resource(cpu);
    match engine.step() {
        Err(EngineError::Stalled { time }) => assert_eq!(time, 1.0),
        other => panic!("expected typed stall, got {other:?}"),
    }
}

#[test]
fn the_watchdog_trips_typed_when_every_host_is_gone() {
    // Satellite audit: a running task whose hosts are all crashed must
    // surface a typed error — Stalled without other pending work, or a
    // Timeout when timers keep the clock advancing — and never spin.
    let mut engine = Engine::new();
    engine.set_watchdog(Some(Watchdog::horizon(10.0)));
    let cpu = engine.add_resource(2.0);
    engine.start(&ActivitySpec::new(50.0).on(cpu, 1.0)).unwrap();
    engine.retire_resource(cpu);
    // A stream of timers keeps events flowing past the horizon.
    for k in 1..64 {
        engine.schedule_timer(k as f64).unwrap();
    }
    let mut steps = 0u32;
    let err = loop {
        match engine.step() {
            Ok(Some(_)) => {
                steps += 1;
                assert!(steps < 1000, "engine spun instead of tripping");
            }
            Ok(None) => panic!("went idle with a starved activity live"),
            Err(e) => break e,
        }
    };
    assert!(
        matches!(err, EngineError::Timeout { .. }),
        "expected watchdog timeout, got {err:?}"
    );
}

#[test]
fn cancel_drops_an_activity_and_reflows_its_sharers() {
    let mut engine = Engine::new();
    let cpu = engine.add_resource(10.0);
    let a = engine
        .start(&ActivitySpec::new(100.0).on(cpu, 1.0))
        .unwrap();
    let _b = engine
        .start(&ActivitySpec::new(100.0).on(cpu, 1.0))
        .unwrap();
    // Shared fairly: 5/s each. At t=2 cancel `a`; `b` has 90 left at
    // 10/s → finishes at t=11.
    engine.schedule_timer(2.0).unwrap();
    engine.step().unwrap();
    assert!(engine.cancel(a));
    assert!(!engine.cancel(a), "cancel must be idempotent");
    assert_eq!(engine.live_activities(), 1);
    let step = engine.step().unwrap().expect("b finishes");
    assert!((step.time - 11.0).abs() < 1e-9, "got {}", step.time);
    assert_eq!(step.completed.len(), 1);
    assert!(matches!(step.completed[0], Completion::Activity(id) if id != a));
}

#[test]
fn cancel_of_a_latency_phase_activity_works() {
    let mut engine = Engine::new();
    let cpu = engine.add_resource(1.0);
    let a = engine
        .start(&ActivitySpec::new(5.0).on(cpu, 1.0).with_latency(3.0))
        .unwrap();
    assert!(engine.cancel(a));
    assert!(engine.is_idle());
    assert!(engine.step().unwrap().is_none());
}

#[test]
fn reset_restores_base_capacities_and_revives_retired_resources() {
    let mut engine = Engine::new();
    let a = engine.add_resource(4.0);
    let b = engine.add_resource(8.0);
    engine.set_capacity(a, 1.0).unwrap();
    engine.retire_resource(b);
    engine.reset();
    assert_eq!(engine.capacity(a), Some(4.0));
    assert_eq!(engine.capacity(b), Some(8.0));
    assert!(!engine.is_retired(b));
    // And the revived platform actually runs work again.
    engine.start(&ActivitySpec::new(8.0).on(b, 1.0)).unwrap();
    let step = engine.step().unwrap().expect("finish");
    assert!((step.time - 1.0).abs() < 1e-12);
}

#[test]
fn disturbed_then_reset_engine_matches_a_cold_engine() {
    // Determinism bedrock: a slab-reused engine that saw disturbances in
    // a previous cell must behave bit-identically to a cold build.
    let run =
        |engine: &mut Engine, cpu0: mps_des::ResourceId, cpu1: mps_des::ResourceId| -> Vec<f64> {
            engine
                .start(&ActivitySpec::new(12.0).on(cpu0, 1.0))
                .unwrap();
            engine
                .start(&ActivitySpec::new(12.0).on(cpu0, 1.0).on(cpu1, 0.5))
                .unwrap();
            let mut times = Vec::new();
            while let Some(step) = engine.step().unwrap() {
                times.push(step.time);
            }
            times
        };

    let mut cold = Engine::new();
    let c0 = cold.add_resource(3.0);
    let c1 = cold.add_resource(5.0);
    let want = run(&mut cold, c0, c1);

    let mut warm = Engine::new();
    let a = warm.add_resource(3.0);
    let b = warm.add_resource(5.0);
    warm.start(&ActivitySpec::new(9.0).on(a, 1.0)).unwrap();
    warm.set_capacity(a, 0.5).unwrap();
    warm.retire_resource(b);
    warm.schedule_timer(1.0).unwrap();
    warm.step().unwrap();
    warm.reset();
    let got = run(&mut warm, a, b);

    assert_eq!(
        format!("{want:?}"),
        format!("{got:?}"),
        "reset after disturbance is not bit-identical to cold"
    );
}
