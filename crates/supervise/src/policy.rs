//! The supervision policy of a process-isolated run: one small pure type
//! (no processes, clocks or I/O) its worker slots share behind a lock, so
//! its invariants are property-testable without spawning a process.

use std::time::Duration;

/// Supervision settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Failures (crashes + timeouts) after which a cell is quarantined.
    /// The default, 2, retries a flaky cell once and quarantines a
    /// deterministic crasher on its second strike.
    pub max_cell_attempts: u32,
    /// Restart-intensity cap: total worker *respawns* allowed per run
    /// (initial spawns are free). When workers die faster than this
    /// budget allows — e.g. a broken worker binary crashing on every
    /// spawn — the run aborts with a typed error instead of crash-looping
    /// forever.
    pub restart_budget: u32,
    /// Base delay before respawning a worker after its first crash.
    pub backoff_base: Duration,
    /// Ceiling on the exponential respawn backoff.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_cell_attempts: 2,
            restart_budget: 16,
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// What a worker slot without a live worker does ([`Policy::spawn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spawn {
    /// Spawn after this delay: zero for an initial spawn, the backoff for
    /// a respawn, which is charged to the budget.
    After(Duration),
    /// The budget cannot cover the respawn: the slot stops taking work
    /// and hands its cells back ([`Policy::retire`]).
    Retire,
    /// The run is stopping: spawn nothing.
    Stop,
}

/// The supervision decisions of one run:
///
/// * Initial spawns are free; each respawn is charged to one restart
///   budget per run, after a backoff of `base·2^(n−1)`, capped, where `n`
///   counts that slot's consecutive deaths (a quarantine restarts it at
///   1, so a poison cell's deaths do not lengthen the next cell's wait).
/// * A cell is quarantined at exactly `max_cell_attempts` strikes.
/// * A slot whose respawn the budget cannot cover retires, and the live
///   slots finish its cells: the budget is exhausted only when none is
///   left.
/// * After a stop nothing is spawned or dispatched.
#[derive(Debug, Clone)]
pub struct Policy {
    cfg: SupervisorConfig,
    restarts: u32,
    /// Worker slots still taking work.
    live: usize,
    stopped: bool,
}

impl Policy {
    /// The policy of a run over `slots` worker slots.
    pub fn new(cfg: SupervisorConfig, slots: usize) -> Self {
        Policy {
            cfg,
            restarts: 0,
            live: slots,
            stopped: false,
        }
    }

    /// A slot needs a worker; `deaths` counts its consecutive deaths (0
    /// before its first spawn).
    pub fn spawn(&mut self, deaths: u32) -> Spawn {
        if self.stopped {
            Spawn::Stop
        } else if deaths == 0 {
            Spawn::After(Duration::ZERO)
        } else if self.restarts < self.cfg.restart_budget {
            self.restarts += 1;
            Spawn::After(self.backoff(deaths))
        } else {
            Spawn::Retire
        }
    }

    /// The respawn delay after `deaths` consecutive deaths.
    pub fn backoff(&self, deaths: u32) -> Duration {
        let exp = deaths.saturating_sub(1).min(16);
        let delay = self.cfg.backoff_base.saturating_mul(1u32 << exp);
        delay.min(self.cfg.backoff_cap)
    }

    /// Whether a cell with `strikes` failed attempts is quarantined.
    pub fn quarantines(&self, strikes: usize) -> bool {
        strikes >= self.cfg.max_cell_attempts as usize
    }

    /// A slot told to [`Spawn::Retire`] leaves with its cells. Returns
    /// whether a live slot is left to finish them; `false` means the
    /// restart budget is exhausted.
    pub fn retire(&mut self) -> bool {
        self.leave();
        self.live > 0
    }

    /// A slot leaves the run: no work is left for it, or it stopped.
    pub fn leave(&mut self) {
        self.live = self.live.saturating_sub(1);
    }

    /// Worker slots still taking work.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Stops the run: from now on nothing is spawned or dispatched.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// True once [`Policy::stop`] was called: no cell may be dispatched.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Respawns charged to the budget so far.
    pub fn restarts_used(&self) -> u32 {
        self.restarts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(attempts: u32, budget: u32) -> SupervisorConfig {
        SupervisorConfig {
            max_cell_attempts: attempts,
            restart_budget: budget,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(400),
        }
    }

    #[test]
    fn initial_spawns_are_free() {
        let mut p = Policy::new(cfg(2, 0), 3);
        for _ in 0..3 {
            assert_eq!(p.spawn(0), Spawn::After(Duration::ZERO));
        }
        assert_eq!(p.restarts_used(), 0);
        assert!(!p.stopped());
    }

    #[test]
    fn a_respawn_is_charged_and_backs_off() {
        let mut p = Policy::new(cfg(2, 4), 1);
        match p.spawn(1) {
            Spawn::After(delay) => assert!(delay > Duration::ZERO, "a respawn backs off"),
            other => panic!("expected a respawn, got {other:?}"),
        }
        assert_eq!(p.restarts_used(), 1);
        assert!(!p.stopped(), "the respawned worker takes the cell");
    }

    #[test]
    fn a_cell_quarantines_at_exactly_max_cell_attempts_strikes() {
        let p = Policy::new(cfg(3, 10), 1);
        assert!(!p.quarantines(1));
        assert!(!p.quarantines(2));
        assert!(p.quarantines(3));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = Policy::new(cfg(2, 100), 1);
        assert_eq!(p.backoff(1), Duration::from_millis(100));
        assert_eq!(p.backoff(2), Duration::from_millis(200));
        assert_eq!(p.backoff(3), Duration::from_millis(400));
        assert_eq!(p.backoff(4), Duration::from_millis(400), "capped");
        assert_eq!(p.backoff(40), Duration::from_millis(400), "no overflow");
    }

    #[test]
    fn a_spent_budget_retires_the_slot_and_exhausts_only_the_last() {
        // Budget 2: two charged respawns, then the dying slot retires.
        let mut p = Policy::new(cfg(10, 2), 2);
        assert_eq!(p.spawn(1), Spawn::After(Duration::from_millis(100)));
        assert_eq!(p.spawn(2), Spawn::After(Duration::from_millis(200)));
        assert_eq!(p.spawn(3), Spawn::Retire);
        assert_eq!(p.restarts_used(), 2);
        assert!(p.retire(), "the other slot finishes the cells");
        // The last slot dies too: nothing can run the cells now.
        assert_eq!(p.spawn(1), Spawn::Retire);
        assert!(!p.retire(), "exhausted");
        assert_eq!(p.restarts_used(), 2);
    }

    #[test]
    fn a_stop_spawns_and_dispatches_nothing() {
        let mut p = Policy::new(cfg(2, 4), 2);
        p.stop();
        assert!(p.stopped());
        assert_eq!(p.spawn(0), Spawn::Stop);
        assert_eq!(p.spawn(1), Spawn::Stop);
        assert_eq!(p.restarts_used(), 0, "a stop charges nothing");
    }
}
