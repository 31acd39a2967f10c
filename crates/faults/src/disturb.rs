//! Timed platform disturbances: the script of what happens to the
//! *platform* (not to individual task attempts), when.
//!
//! A [`FaultPlan`](crate::FaultPlan) perturbs task attempts — a launch
//! fails, a task straggles — while the platform itself holds still. A
//! [`DisturbancePlan`] mutates the platform at simulated time `t`: a host
//! crashes permanently, a host's compute rate drops for a window, a
//! private link degrades for a window. Executors apply these through the
//! DES engine's mid-run capacity mutation (`set_capacity` /
//! `retire_resource`) and react with a recovery ladder (fail fast, retry
//! elsewhere, or rescue-reschedule the unfinished tasks onto the
//! surviving hosts).
//!
//! Plans are deterministic values: built in code
//! ([`DisturbancePlan::builder`]), generated from `(seed, intensity)`
//! ([`DisturbancePlan::random`]), or parsed from a compact CLI grammar
//! ([`DisturbancePlan::parse`]) whose [`Display`](std::fmt::Display)
//! rendering round-trips exactly (f64 `Display` is shortest-round-trip,
//! so `parse(plan.to_string()) == plan`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use mps_platform::HostId;

use crate::plan::PlanParseError;

/// Default event horizon (seconds) used by [`DisturbancePlan::with_intensity`];
/// matches the grid horizon `repro` uses for fault presets.
pub const DISTURB_HORIZON: f64 = 120.0;

/// One timed platform disturbance.
///
/// Times are simulated seconds from the start of the execution the plan
/// is applied to; hosts are raw indices so plans stay independent of any
/// particular platform object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Disturbance {
    /// Host `host` fails permanently at time `at`: its compute resource
    /// and private link are retired, in-flight work on it is lost, and
    /// only a recovery policy can finish tasks placed there. Unlike
    /// [`FaultEvent::NodeCrash`](crate::FaultEvent::NodeCrash) this is
    /// not a transient outage — the host never comes back.
    Crash {
        /// Failing host index.
        host: usize,
        /// Failure instant (seconds).
        at: f64,
    },
    /// Host `host` computes `factor`× slower during `[from, to)`
    /// (thermal throttling, a co-scheduled job): its compute capacity is
    /// divided by `factor` for the window.
    Slow {
        /// Affected host index.
        host: usize,
        /// Window start (seconds).
        from: f64,
        /// Window end (seconds).
        to: f64,
        /// Slowdown factor, >= 1.
        factor: f64,
    },
    /// The private link of host `link` carries data `factor`× slower
    /// during `[from, to)`: both its up and down directions lose
    /// bandwidth for the window.
    Degrade {
        /// Host whose up/down link degrades.
        link: usize,
        /// Window start (seconds).
        from: f64,
        /// Window end (seconds).
        to: f64,
        /// Degradation factor, >= 1.
        factor: f64,
    },
}

impl Disturbance {
    /// The instant the disturbance first takes effect.
    pub fn start(&self) -> f64 {
        match *self {
            Disturbance::Crash { at, .. } => at,
            Disturbance::Slow { from, .. } | Disturbance::Degrade { from, .. } => from,
        }
    }
}

/// A deterministic platform-disturbance script: a seed plus timed events.
///
/// The seed names the plan (and drives [`DisturbancePlan::random`]);
/// interpreting a plan involves no further randomness — every capacity
/// change happens at a scripted simulated time, so two executions with
/// the same plan see bit-identical platform behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DisturbancePlan {
    /// Seed the plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// The scripted disturbances.
    pub events: Vec<Disturbance>,
}

impl DisturbancePlan {
    /// A plan with no disturbances (executions proceed undisturbed).
    pub fn none() -> Self {
        DisturbancePlan::default()
    }

    /// Starts a builder.
    pub fn builder(seed: u64) -> DisturbancePlanBuilder {
        DisturbancePlanBuilder {
            plan: DisturbancePlan {
                seed,
                ..DisturbancePlan::default()
            },
        }
    }

    /// True when the plan disturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a random plan of the given `intensity` over a platform
    /// of `hosts` nodes and an execution horizon of `horizon` seconds.
    ///
    /// `intensity` scales every disturbance class at once: `0.0` yields
    /// an empty plan, `1.0` a hostile platform (a couple of permanent
    /// host failures, several slow and degraded windows). Deterministic
    /// in `(seed, intensity, hosts, horizon)`.
    pub fn random(seed: u64, intensity: f64, hosts: usize, horizon: f64) -> Self {
        let intensity = intensity.clamp(0.0, 4.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD157_0B01);
        let mut events = Vec::new();
        if intensity > 0.0 && hosts > 0 {
            let span = horizon.max(1.0);
            // Never crash every host: cap failures below the node count so
            // a rescue always has somewhere to go on multi-node platforms.
            let n_crashes = ((intensity * 2.0).round() as usize).min(hosts.saturating_sub(1));
            for _ in 0..n_crashes {
                events.push(Disturbance::Crash {
                    host: rng.gen_range(0..hosts),
                    at: rng.gen_range(0.0..span),
                });
            }
            let n_slow = (intensity * 3.0).round() as usize;
            for _ in 0..n_slow {
                let from = rng.gen_range(0.0..span);
                let len = rng.gen_range(0.05..0.5) * span;
                events.push(Disturbance::Slow {
                    host: rng.gen_range(0..hosts),
                    from,
                    to: from + len,
                    factor: 1.0 + rng.gen_range(0.25..1.5) * intensity,
                });
            }
            let n_degrade = (intensity * 2.0).round() as usize;
            for _ in 0..n_degrade {
                let from = rng.gen_range(0.0..span);
                let len = rng.gen_range(0.05..0.4) * span;
                events.push(Disturbance::Degrade {
                    link: rng.gen_range(0..hosts),
                    from,
                    to: from + len,
                    factor: 1.0 + rng.gen_range(0.5..2.0) * intensity,
                });
            }
        }
        DisturbancePlan { seed, events }
    }

    /// A plan scaled by one knob over the default grid platform (32
    /// hosts, a [`DISTURB_HORIZON`]-second horizon) — the sweep axis of
    /// `repro disturb`. Deterministic and monotone in `intensity`.
    pub fn with_intensity(seed: u64, intensity: f64) -> Self {
        DisturbancePlan::random(seed, intensity, 32, DISTURB_HORIZON)
    }

    /// Parses the compact CLI grammar used by `repro --disturb`.
    ///
    /// Clauses are `;`-separated:
    ///
    /// * `seed=N` — plan seed (defaults to 0);
    /// * `crash@T:H` — host `H` fails permanently at time `T`;
    /// * `slow@T1-T2:H:F` — host `H` computes `F`× slower in `[T1, T2)`;
    /// * `degrade@T1-T2:L:F` — host `L`'s link is `F`× slower in `[T1, T2)`;
    /// * `light` / `moderate` / `heavy` — a [`DisturbancePlan::random`]
    ///   preset (intensity 0.25 / 0.5 / 1.0) over `hosts` nodes and
    ///   `horizon` seconds.
    ///
    /// Example: `seed=7;crash@4:3;slow@2-10:5:1.5;degrade@0-8:1:2`.
    pub fn parse(input: &str, hosts: usize, horizon: f64) -> Result<Self, PlanParseError> {
        let mut plan = DisturbancePlan::none();
        for clause in input.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            plan.parse_clause(clause, hosts, horizon)?;
        }
        Ok(plan)
    }

    fn parse_clause(
        &mut self,
        clause: &str,
        hosts: usize,
        horizon: f64,
    ) -> Result<(), PlanParseError> {
        let err = |what: &str| PlanParseError {
            clause: clause.to_string(),
            reason: what.to_string(),
        };
        let num = |s: &str, what: &str| -> Result<f64, PlanParseError> {
            s.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| err(&format!("{what} `{s}` is not a non-negative number")))
        };
        let idx = |s: &str, what: &str| -> Result<usize, PlanParseError> {
            s.parse::<usize>()
                .map_err(|_| err(&format!("{what} `{s}` is not an index")))
        };
        let factor = |s: &str| -> Result<f64, PlanParseError> {
            let f = num(s, "factor")?;
            if f < 1.0 {
                return Err(err("factor is below 1"));
            }
            Ok(f)
        };
        // `T1-T2`: both ends non-negative, so `-` only ever separates.
        let window = |s: &str| -> Result<(f64, f64), PlanParseError> {
            let (a, b) = s.split_once('-').ok_or_else(|| err("expected `T1-T2`"))?;
            let from = num(a, "window start")?;
            let to = num(b, "window end")?;
            if to < from {
                return Err(err("window ends before it starts"));
            }
            Ok((from, to))
        };

        if let Some(intensity) = match clause {
            "light" => Some(0.25),
            "moderate" => Some(0.5),
            "heavy" => Some(1.0),
            _ => None,
        } {
            let preset = DisturbancePlan::random(self.seed, intensity, hosts, horizon);
            self.events.extend(preset.events);
            return Ok(());
        }
        if let Some(v) = clause.strip_prefix("seed=") {
            self.seed = v.parse().map_err(|_| err("seed is not an integer"))?;
            return Ok(());
        }
        if let Some(rest) = clause.strip_prefix("crash@") {
            let (t, h) = rest.split_once(':').ok_or_else(|| err("expected `T:H`"))?;
            self.events.push(Disturbance::Crash {
                host: idx(h, "host")?,
                at: num(t, "time")?,
            });
            return Ok(());
        }
        if let Some(rest) = clause.strip_prefix("slow@") {
            let (w, spec) = rest
                .split_once(':')
                .ok_or_else(|| err("expected `T1-T2:H:F`"))?;
            let (h, f) = spec.split_once(':').ok_or_else(|| err("expected `H:F`"))?;
            let (from, to) = window(w)?;
            self.events.push(Disturbance::Slow {
                host: idx(h, "host")?,
                from,
                to,
                factor: factor(f)?,
            });
            return Ok(());
        }
        if let Some(rest) = clause.strip_prefix("degrade@") {
            let (w, spec) = rest
                .split_once(':')
                .ok_or_else(|| err("expected `T1-T2:L:F`"))?;
            let (l, f) = spec.split_once(':').ok_or_else(|| err("expected `L:F`"))?;
            let (from, to) = window(w)?;
            self.events.push(Disturbance::Degrade {
                link: idx(l, "link")?,
                from,
                to,
                factor: factor(f)?,
            });
            return Ok(());
        }
        Err(err("unknown clause"))
    }
}

impl std::fmt::Display for DisturbancePlan {
    /// Renders the plan in the exact grammar [`DisturbancePlan::parse`]
    /// accepts. f64 `Display` prints the shortest decimal that parses
    /// back to the same bits, so `parse(plan.to_string()) == plan` holds
    /// for every plan whose events came through `parse`, `random`, or
    /// the builder.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for e in &self.events {
            match *e {
                Disturbance::Crash { host, at } => write!(f, ";crash@{at}:{host}")?,
                Disturbance::Slow {
                    host,
                    from,
                    to,
                    factor,
                } => write!(f, ";slow@{from}-{to}:{host}:{factor}")?,
                Disturbance::Degrade {
                    link,
                    from,
                    to,
                    factor,
                } => write!(f, ";degrade@{from}-{to}:{link}:{factor}")?,
            }
        }
        Ok(())
    }
}

impl DisturbancePlan {
    /// The compound compute slowdown of `host` at time `t`: the max
    /// factor over all active `Slow` windows (1.0 when none). Fixed-
    /// duration tasks sample this at launch; analytic tasks stretch
    /// through the engine's capacity scaling instead.
    pub fn slow_factor(&self, host: usize, t: f64) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                Disturbance::Slow {
                    host: h,
                    from,
                    to,
                    factor,
                } if h == host && from <= t && t < to => Some(factor),
                _ => None,
            })
            .fold(1.0, f64::max)
    }

    /// The compound link degradation of `host` at time `t`: the max
    /// factor over all active `Degrade` windows (1.0 when none).
    pub fn link_factor(&self, host: usize, t: f64) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                Disturbance::Degrade {
                    link,
                    from,
                    to,
                    factor,
                } if link == host && from <= t && t < to => Some(factor),
                _ => None,
            })
            .fold(1.0, f64::max)
    }
}

/// How an executor reacts when a crash strands unfinished tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Surface the crash as a typed error immediately.
    #[default]
    FailFast,
    /// Patch each stranded task's placement in place: dead hosts are
    /// replaced by the lowest-index surviving hosts, everything else —
    /// allocation sizes, execution order — stays as scheduled, behind the
    /// tasks already running on those hosts.
    RetryElsewhere,
    /// Re-invoke the scheduler over the surviving platform for every
    /// unfinished task (moldable re-allocation under contention) and
    /// charge the re-plan as virtual time.
    Rescue,
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryPolicy::FailFast => "failfast",
            RecoveryPolicy::RetryElsewhere => "retry",
            RecoveryPolicy::Rescue => "rescue",
        })
    }
}

impl std::str::FromStr for RecoveryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "failfast" => Ok(RecoveryPolicy::FailFast),
            "retry" => Ok(RecoveryPolicy::RetryElsewhere),
            "rescue" => Ok(RecoveryPolicy::Rescue),
            other => Err(format!(
                "unknown recovery policy `{other}` (expected failfast|retry|rescue)"
            )),
        }
    }
}

/// Per-class counters of disturbances that actually fired during an
/// execution (events scripted past the makespan never fire), plus the
/// recovery actions they triggered. Mirrors [`InjectedIo`](crate::InjectedIo).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisturbReport {
    /// Host crashes applied.
    pub crashes: u64,
    /// Slow windows opened.
    pub slows: u64,
    /// Degrade windows opened.
    pub degrades: u64,
    /// Successful rescue re-plans.
    pub rescues: u64,
    /// Tasks adopted onto a rescue schedule.
    pub rescued_tasks: u64,
    /// Tasks whose placement was patched onto surviving hosts
    /// (`RetryElsewhere`) or whose running attempt a crash cancelled.
    pub retried_tasks: u64,
}

impl DisturbReport {
    /// Total disturbances that fired.
    pub fn fired(&self) -> u64 {
        self.crashes + self.slows + self.degrades
    }

    /// Folds another report into this one.
    pub fn absorb(&mut self, other: &DisturbReport) {
        self.crashes += other.crashes;
        self.slows += other.slows;
        self.degrades += other.degrades;
        self.rescues += other.rescues;
        self.rescued_tasks += other.rescued_tasks;
        self.retried_tasks += other.retried_tasks;
    }
}

/// Builder for hand-written disturbance plans.
#[derive(Debug, Clone)]
pub struct DisturbancePlanBuilder {
    plan: DisturbancePlan,
}

impl DisturbancePlanBuilder {
    /// `host` fails permanently at `at`.
    #[must_use]
    pub fn crash(mut self, host: HostId, at: f64) -> Self {
        self.plan.events.push(Disturbance::Crash {
            host: host.index(),
            at,
        });
        self
    }

    /// `host` computes `factor`× slower during `[from, to)`.
    #[must_use]
    pub fn slow(mut self, host: HostId, from: f64, to: f64, factor: f64) -> Self {
        self.plan.events.push(Disturbance::Slow {
            host: host.index(),
            from,
            to,
            factor,
        });
        self
    }

    /// `host`'s private link is `factor`× slower during `[from, to)`.
    #[must_use]
    pub fn degrade(mut self, host: HostId, from: f64, to: f64, factor: f64) -> Self {
        self.plan.events.push(Disturbance::Degrade {
            link: host.index(),
            from,
            to,
            factor,
        });
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> DisturbancePlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_events_in_order() {
        let plan = DisturbancePlan::builder(7)
            .crash(HostId(3), 10.0)
            .slow(HostId(1), 0.0, 5.0, 1.5)
            .degrade(HostId(0), 2.0, 4.0, 2.0)
            .build();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.events[0], Disturbance::Crash { host: 3, at: 10.0 });
    }

    #[test]
    fn parse_accepts_every_clause_kind() {
        let plan = DisturbancePlan::parse(
            "seed=7;crash@4:3;slow@2-10:5:1.5;degrade@0-8:1:2",
            32,
            100.0,
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.events,
            vec![
                Disturbance::Crash { host: 3, at: 4.0 },
                Disturbance::Slow {
                    host: 5,
                    from: 2.0,
                    to: 10.0,
                    factor: 1.5
                },
                Disturbance::Degrade {
                    link: 1,
                    from: 0.0,
                    to: 8.0,
                    factor: 2.0
                },
            ]
        );
    }

    #[test]
    fn presets_expand_to_random_plans() {
        let heavy = DisturbancePlan::parse("heavy", 32, 100.0).unwrap();
        assert!(!heavy.is_empty());
        assert_eq!(
            heavy.events,
            DisturbancePlan::random(0, 1.0, 32, 100.0).events
        );
        let light = DisturbancePlan::parse("light", 32, 100.0).unwrap();
        assert!(light.events.len() < heavy.events.len());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "crash@3",
            "crash@x:1",
            "slow@1:0",
            "slow@5-2:0:1.5", // window ends before it starts
            "slow@0-5:0:0.5", // factor below 1
            "degrade@0-5:0:NaN",
            "wibble",
            "seed=abc",
        ] {
            assert!(
                DisturbancePlan::parse(bad, 8, 10.0).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        for plan in [
            DisturbancePlan::none(),
            DisturbancePlan::builder(9)
                .crash(HostId(3), 4.25)
                .slow(HostId(5), 2.0, 10.5, 1.5)
                .degrade(HostId(1), 0.0, 8.125, 2.0)
                .build(),
            DisturbancePlan::random(42, 1.0, 32, 100.0),
            DisturbancePlan::with_intensity(7, 0.5),
        ] {
            let shown = plan.to_string();
            let back = DisturbancePlan::parse(&shown, 32, 100.0).unwrap();
            assert_eq!(back, plan, "`{shown}` did not round-trip");
        }
    }

    #[test]
    fn random_plans_are_deterministic_and_scale_with_intensity() {
        let a = DisturbancePlan::random(5, 1.0, 32, 100.0);
        assert_eq!(a, DisturbancePlan::random(5, 1.0, 32, 100.0));
        assert!(DisturbancePlan::random(5, 0.0, 32, 100.0).is_empty());
        let light = DisturbancePlan::random(5, 0.25, 32, 100.0);
        assert!(light.events.len() < a.events.len());
        for e in &a.events {
            match *e {
                Disturbance::Crash { host, at } => assert!(host < 32 && at >= 0.0),
                Disturbance::Slow {
                    host,
                    from,
                    to,
                    factor,
                } => assert!(host < 32 && to > from && factor > 1.0),
                Disturbance::Degrade {
                    link,
                    from,
                    to,
                    factor,
                } => assert!(link < 32 && to > from && factor > 1.0),
            }
        }
    }

    #[test]
    fn random_never_crashes_every_host() {
        // A 2-node platform at hostile intensity keeps at least one node.
        let plan = DisturbancePlan::random(11, 4.0, 2, 50.0);
        let crashes = plan
            .events
            .iter()
            .filter(|e| matches!(e, Disturbance::Crash { .. }))
            .count();
        assert!(crashes <= 1);
    }

    #[test]
    fn plans_serialize_to_json_and_back() {
        let plan = DisturbancePlan::builder(42).crash(HostId(3), 10.0).build();
        let json = serde_json::to_string(&plan).unwrap();
        let back: DisturbancePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
