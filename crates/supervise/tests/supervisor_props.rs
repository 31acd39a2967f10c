//! Property tests for the supervision policy.
//!
//! The policy is pure (no processes, no clocks), so arbitrary sequences
//! of worker deaths and cell successes can be driven synthetically by a
//! model of the runner threads that share it. The invariants under test:
//!
//! * respawns never exceed the restart budget, whatever order workers die
//!   in, and the run is exhausted only when no live slot is left to finish
//!   the cells;
//! * a cell is quarantined after *exactly* `max_cell_attempts` failures —
//!   never fewer, never more — and never runs again afterwards;
//! * after a stop, nothing is spawned or dispatched.

use std::time::Duration;

use mps_supervise::{Policy, Spawn, SupervisorConfig};
use proptest::prelude::*;

fn cfg(attempts: u32, budget: u32) -> SupervisorConfig {
    SupervisorConfig {
        max_cell_attempts: attempts,
        restart_budget: budget,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(80),
    }
}

/// What the scripted world does with the next spawn or dispatch. Codes
/// are consumed cyclically from the proptest-generated script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    Succeed,
    Fail,
    SpawnDies,
}

fn reply(code: u8) -> Reply {
    match code % 3 {
        0 => Reply::Succeed,
        1 => Reply::Fail,
        _ => Reply::SpawnDies,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Succeeded,
    Quarantined,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// Every slot left the run.
    Finished,
    /// A slot retired and none was left to finish its cells.
    Exhausted,
}

/// One modelled runner thread and its worker slot.
#[derive(Debug, Default, Clone)]
struct Runner {
    /// The cell it holds and that cell's strikes so far.
    cell: Option<(usize, u32)>,
    up: bool,
    deaths: u32,
    left: bool,
}

/// Outcome of driving one policy to the end of a run with a script.
#[derive(Debug)]
struct Trace {
    policy: Policy,
    end: End,
    fates: Vec<Option<Fate>>,
    /// Failures charged per cell by the model's own bookkeeping.
    failures: Vec<u32>,
    respawns: u32,
    spawns_after_stop: usize,
    dispatches_after_stop: usize,
}

/// Drives a policy over `slots` slots and `cells` cells, answering every spawn
/// and dispatch from the script, round-robin over the slots, as the
/// runner threads do: a slot takes handed-back cells first, leaves once
/// nothing is left and no other slot holds a cell, retires when the
/// policy says so, and leaves on a stop. `stop_after` stops the run after
/// that many dispatches.
fn drive(
    cfg: SupervisorConfig,
    slots: usize,
    cells: usize,
    script: &[u8],
    stop_after: Option<usize>,
) -> Result<Trace, TestCaseError> {
    let (budget, attempts, cap) = (cfg.restart_budget, cfg.max_cell_attempts, cfg.backoff_cap);
    let mut p = Policy::new(cfg, slots);
    let mut model = vec![Runner::default(); slots];
    let mut fresh = 0..cells;
    let mut handed_back: Vec<(usize, u32)> = Vec::new();
    let mut t = Trace {
        policy: p.clone(),
        end: End::Finished,
        fates: vec![None; cells],
        failures: vec![0; cells],
        respawns: 0,
        spawns_after_stop: 0,
        dispatches_after_stop: 0,
    };
    let mut next_code = 0usize;
    let mut take = || {
        let r = reply(script[next_code % script.len()]);
        next_code += 1;
        r
    };
    let mut dispatched = 0usize;

    for _ in 0..10_000 {
        prop_assert!(p.restarts_used() <= budget, "restart budget exceeded");
        prop_assert_eq!(p.restarts_used(), t.respawns);
        if model.iter().all(|s| s.left) {
            t.policy = p;
            return Ok(t);
        }
        for w in 0..slots {
            if model[w].left {
                continue;
            }
            if p.stopped() {
                prop_assert_eq!(p.spawn(model[w].deaths), Spawn::Stop);
                model[w].left = true;
                p.leave();
                continue;
            }
            let Some((cell, strikes)) = model[w].cell else {
                match handed_back.pop().or_else(|| fresh.next().map(|c| (c, 0))) {
                    Some(work) => model[w].cell = Some(work),
                    None if model.iter().all(|s| s.cell.is_none()) => {
                        model[w].left = true;
                        p.leave();
                    }
                    // Another slot may still hand its cell back: wait.
                    None => {}
                }
                continue;
            };
            if !model[w].up {
                match p.spawn(model[w].deaths) {
                    Spawn::After(delay) => {
                        prop_assert!(delay <= cap, "backoff {delay:?} above cap");
                        if model[w].deaths > 0 {
                            prop_assert!(delay > Duration::ZERO, "a respawn backs off");
                            t.respawns += 1;
                        }
                        if take() == Reply::SpawnDies {
                            // Died during its handshake: charges no cell.
                            model[w].deaths += 1;
                        } else {
                            model[w].up = true;
                        }
                    }
                    Spawn::Retire => {
                        prop_assert_eq!(p.restarts_used(), budget, "retired with budget left");
                        handed_back.push((cell, strikes));
                        model[w].cell = None;
                        model[w].left = true;
                        if !p.retire() {
                            prop_assert!(
                                model.iter().all(|s| s.left),
                                "exhausted while a live slot could finish the cells"
                            );
                            t.end = End::Exhausted;
                            t.policy = p;
                            return Ok(t);
                        }
                    }
                    Spawn::Stop => prop_assert!(false, "Stop from a running policy"),
                }
                continue;
            }
            prop_assert!(!p.stopped(), "dispatch after a stop");
            prop_assert!(t.fates[cell].is_none(), "cell {cell} ran after resolving");
            dispatched += 1;
            match take() {
                Reply::Succeed => {
                    t.fates[cell] = Some(Fate::Succeeded);
                    model[w].cell = None;
                    model[w].deaths = 0;
                }
                Reply::Fail | Reply::SpawnDies => {
                    t.failures[cell] += 1;
                    let strikes = strikes + 1;
                    prop_assert_eq!(strikes, t.failures[cell]);
                    model[w].up = false;
                    model[w].deaths += 1;
                    if p.quarantines(strikes as usize) {
                        prop_assert_eq!(strikes, attempts, "quarantined off the cap");
                        t.fates[cell] = Some(Fate::Quarantined);
                        model[w].cell = None;
                    } else {
                        prop_assert!(strikes < attempts, "retried at the cap");
                        model[w].cell = Some((cell, strikes));
                    }
                }
            }
            if stop_after == Some(dispatched) {
                p.stop();
                // Whatever is asked of a stopped policy is refused.
                for s in &model {
                    if p.spawn(s.deaths) != Spawn::Stop {
                        t.spawns_after_stop += 1;
                    }
                    if !p.stopped() {
                        t.dispatches_after_stop += 1;
                    }
                }
            }
        }
    }
    Err(TestCaseError::fail("the run did not end in 10k rounds"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary sequences of successes, failures and handshake deaths:
    /// the restart budget holds, quarantine fires at exactly the attempt
    /// cap, resolved cells never run again, and the run ends coherently —
    /// every cell resolved, or the budget spent with cells left and no
    /// slot to run them.
    #[test]
    fn supervision_invariants_hold_over_arbitrary_interleavings(
        slots in 1usize..4,
        cells in 0usize..8,
        attempts in 1u32..4,
        budget in 0u32..6,
        script in prop::collection::vec(0u8..3, 1..48),
    ) {
        let t = drive(cfg(attempts, budget), slots, cells, &script, None)?;
        let p = &t.policy;
        prop_assert!(p.restarts_used() <= budget);
        match t.end {
            End::Finished => {
                for c in 0..cells {
                    prop_assert!(t.fates[c].is_some(), "cell {c} unresolved at the end");
                    if t.fates[c] == Some(Fate::Quarantined) {
                        prop_assert_eq!(t.failures[c], attempts);
                    }
                }
            }
            End::Exhausted => {
                prop_assert_eq!(p.restarts_used(), budget, "exhaustion spends the budget");
                prop_assert!(t.fates.iter().any(Option::is_none), "exhaustion leaves work undone");
                prop_assert_eq!(p.live(), 0);
            }
        }
    }

    /// A world where every cell fails quarantines every cell it manages
    /// to run — each after exactly the attempt cap — unless the restart
    /// budget runs out first.
    #[test]
    fn always_failing_cells_all_quarantine_at_the_cap(
        slots in 1usize..4,
        cells in 1usize..6,
        attempts in 1u32..4,
        budget in 0u32..12,
    ) {
        // Script code 1 = Fail for every dispatch; every spawn comes up.
        let t = drive(cfg(attempts, budget), slots, cells, &[1], None)?;
        for c in 0..cells {
            match t.fates[c] {
                Some(Fate::Quarantined) => prop_assert_eq!(t.failures[c], attempts),
                Some(Fate::Succeeded) => prop_assert!(false, "nothing can succeed here"),
                None => prop_assert_eq!(t.end, End::Exhausted, "cell {} unresolved", c),
            }
        }
    }

    /// A stop at an arbitrary point: not a single spawn or dispatch is
    /// allowed afterwards, and every slot leaves the run.
    #[test]
    fn draining_never_dispatches_or_spawns_again(
        slots in 1usize..4,
        cells in 1usize..8,
        attempts in 1u32..4,
        budget in 0u32..6,
        script in prop::collection::vec(0u8..3, 1..48),
        stop_after in 0usize..10,
    ) {
        let t = drive(cfg(attempts, budget), slots, cells, &script, Some(stop_after))?;
        let p = &t.policy;
        prop_assert_eq!(t.spawns_after_stop, 0);
        prop_assert_eq!(t.dispatches_after_stop, 0);
        if p.stopped() {
            prop_assert_eq!(t.end, End::Finished, "a stopped run is never exhausted");
            prop_assert_eq!(p.live(), 0);
        }
    }
}
