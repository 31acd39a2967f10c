//! Fault plans: the script of what goes wrong, when.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use mps_dag::TaskId;
use mps_platform::HostId;

use crate::clause::{self, Clause, ClausePlan, PlanParseError};

/// One scripted hazard.
///
/// Times are simulated seconds from the start of the execution the plan is
/// applied to; hosts and tasks are raw indices so plans stay independent of
/// any particular platform or DAG object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// From `from` on, every task using `host` runs `factor`× slower
    /// (permanent degradation — a thermally throttled or oversubscribed
    /// node).
    NodeSlowdown {
        /// Affected host index.
        host: usize,
        /// Start of the degradation (seconds).
        from: f64,
        /// Duration multiplier, > 1 slows the node down.
        factor: f64,
    },
    /// `host` is unreachable during `[from, from + duration)`: task
    /// launches there fail and must be retried after recovery.
    NodeCrash {
        /// Affected host index.
        host: usize,
        /// Crash instant (seconds).
        from: f64,
        /// Outage length (seconds); the node recovers afterwards.
        duration: f64,
    },
    /// The private link of `host` carries `factor`× the effective bytes
    /// during `[from, from + duration)` (congestion, renegotiated rate).
    LinkDegrade {
        /// Host whose up/down link degrades.
        host: usize,
        /// Start of the window (seconds).
        from: f64,
        /// Window length (seconds).
        duration: f64,
        /// Byte multiplier, > 1 slows transfers through the link.
        factor: f64,
    },
    /// Task `task` is a straggler: its execution takes `factor`× longer
    /// wherever and whenever it runs.
    Straggler {
        /// Affected task index.
        task: usize,
        /// Duration multiplier, > 1.
        factor: f64,
    },
    /// Every task-launch attempt independently fails with probability
    /// `prob` (lost launch message, JVM spawn failure). Decisions are
    /// derived from the plan seed per `(task, attempt)`.
    TaskFailure {
        /// Per-attempt failure probability in `[0, 1]`.
        prob: f64,
    },
}

/// A deterministic fault script: a seed plus a list of events.
///
/// The seed drives every probabilistic decision made while the plan is
/// interpreted (see [`ScriptedFaults`](crate::ScriptedFaults)); two
/// executions with the same plan see bit-identical fault behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Seed for per-decision randomness.
    pub seed: u64,
    /// The scripted events.
    pub events: Vec<FaultEvent>,
    /// Environment (filesystem) faults injected under the durability
    /// paths — see [`crate::io::ChaosIo`]. Parsed from the `io:` clause.
    #[serde(default)]
    pub io: crate::io::IoFaultPlan,
}

impl FaultPlan {
    /// A plan with no events (executions proceed unfaulted).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Starts a builder.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan {
                seed,
                ..FaultPlan::default()
            },
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.io.is_empty()
    }

    /// Generates a random plan of the given `intensity` over a platform of
    /// `hosts` nodes and an execution horizon of `horizon` seconds.
    ///
    /// `intensity` scales every hazard class at once: `0.0` yields an
    /// empty plan, `1.0` a harsh environment (several crashes and
    /// slowdowns, 5 % task-failure probability). Deterministic in
    /// `(seed, intensity, hosts, horizon)`.
    pub fn random(seed: u64, intensity: f64, hosts: usize, horizon: f64) -> Self {
        let intensity = intensity.clamp(0.0, 4.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA01_7001);
        let mut events = Vec::new();
        if intensity > 0.0 && hosts > 0 {
            let n_crashes = (intensity * 3.0).round() as usize;
            for _ in 0..n_crashes {
                events.push(FaultEvent::NodeCrash {
                    host: rng.gen_range(0..hosts),
                    from: rng.gen_range(0.0..horizon.max(1.0)),
                    duration: rng.gen_range(0.02..0.25) * horizon.max(1.0),
                });
            }
            let n_slow = (intensity * 2.0).round() as usize;
            for _ in 0..n_slow {
                events.push(FaultEvent::NodeSlowdown {
                    host: rng.gen_range(0..hosts),
                    from: rng.gen_range(0.0..horizon.max(1.0)),
                    factor: 1.0 + rng.gen_range(0.2..1.0) * intensity,
                });
            }
            let n_link = (intensity * 2.0).round() as usize;
            for _ in 0..n_link {
                events.push(FaultEvent::LinkDegrade {
                    host: rng.gen_range(0..hosts),
                    from: rng.gen_range(0.0..horizon.max(1.0)),
                    duration: rng.gen_range(0.05..0.4) * horizon.max(1.0),
                    factor: 1.0 + rng.gen_range(0.5..2.0) * intensity,
                });
            }
            events.push(FaultEvent::TaskFailure {
                prob: (0.05 * intensity).min(0.5),
            });
        }
        FaultPlan {
            seed,
            events,
            io: crate::io::IoFaultPlan::default(),
        }
    }

    /// Parses the compact CLI grammar used by `repro --faults`.
    ///
    /// Clauses are `;`-separated:
    ///
    /// * `seed=N` — per-decision seed (defaults to 0);
    /// * `crash@H:T+D` — host `H` down during `[T, T+D)`;
    /// * `slow@H:T*F` — host `H` runs `F`× slower from `T` on;
    /// * `link@H:T+D*F` — host `H`'s link carries `F`× bytes in `[T, T+D)`;
    /// * `straggle@T*F` — task `T` takes `F`× longer;
    /// * `fail=P` — every launch attempt fails with probability `P`;
    /// * `io:KNOB@V,…` — environment (filesystem) faults under the
    ///   durability paths: `enospc@P`, `eio@P`, `shortwrite@P`,
    ///   `fsync@P`, `rename@P`, `latency@MS`, or a preset
    ///   `light`/`moderate`/`heavy` (see
    ///   [`IoFaultPlan::parse`](crate::io::IoFaultPlan::parse));
    /// * `light` / `moderate` / `heavy` — a [`FaultPlan::random`] preset
    ///   (intensity 0.25 / 0.5 / 1.0) over `hosts` nodes and `horizon`
    ///   seconds.
    ///
    /// Example: `seed=7;crash@3:10+5;fail=0.05;io:enospc@0.01,shortwrite@0.05`.
    pub fn parse(input: &str, hosts: usize, horizon: f64) -> Result<Self, PlanParseError> {
        clause::parse(FaultPlan::none(), input, hosts, horizon)
    }
}

impl ClausePlan for FaultPlan {
    fn seed(&mut self) -> &mut u64 {
        &mut self.seed
    }

    fn add_preset(&mut self, intensity: f64, hosts: usize, horizon: f64) {
        let preset = FaultPlan::random(self.seed, intensity, hosts, horizon);
        self.events.extend(preset.events);
    }

    fn add_clause(&mut self, c: Clause<'_>) -> Result<(), PlanParseError> {
        if let Some(v) = c.0.strip_prefix("fail=") {
            self.events
                .push(FaultEvent::TaskFailure { prob: c.prob(v)? });
        } else if let Some(rest) = c.0.strip_prefix("crash@") {
            let (h, times) = c.split(rest, ':', "H:T+D")?;
            let (t, d) = c.split(times, '+', "T+D")?;
            self.events.push(FaultEvent::NodeCrash {
                host: c.idx(h, "host")?,
                from: c.num(t, "start")?,
                duration: c.num(d, "duration")?,
            });
        } else if let Some(rest) = c.0.strip_prefix("slow@") {
            let (h, spec) = c.split(rest, ':', "H:T*F")?;
            let (t, f) = c.split(spec, '*', "T*F")?;
            self.events.push(FaultEvent::NodeSlowdown {
                host: c.idx(h, "host")?,
                from: c.num(t, "start")?,
                factor: c.num(f, "factor")?,
            });
        } else if let Some(rest) = c.0.strip_prefix("link@") {
            let (h, spec) = c.split(rest, ':', "H:T+D*F")?;
            let (t, rest2) = c.split(spec, '+', "T+D*F")?;
            let (d, f) = c.split(rest2, '*', "D*F")?;
            self.events.push(FaultEvent::LinkDegrade {
                host: c.idx(h, "host")?,
                from: c.num(t, "start")?,
                duration: c.num(d, "duration")?,
                factor: c.num(f, "factor")?,
            });
        } else if let Some(rest) = c.0.strip_prefix("io:") {
            self.io = crate::io::IoFaultPlan::parse(rest)?;
        } else if let Some(rest) = c.0.strip_prefix("straggle@") {
            let (t, f) = c.split(rest, '*', "T*F")?;
            self.events.push(FaultEvent::Straggler {
                task: c.idx(t, "task")?,
                factor: c.num(f, "factor")?,
            });
        } else {
            return Err(c.err("unknown clause"));
        }
        Ok(())
    }
}

/// Builder for hand-written fault plans.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Permanent `factor`× slowdown of `host` from `from` on.
    #[must_use]
    pub fn node_slowdown(mut self, host: HostId, from: f64, factor: f64) -> Self {
        self.plan.events.push(FaultEvent::NodeSlowdown {
            host: host.index(),
            from,
            factor,
        });
        self
    }

    /// `host` down during `[from, from + duration)`.
    #[must_use]
    pub fn node_crash(mut self, host: HostId, from: f64, duration: f64) -> Self {
        self.plan.events.push(FaultEvent::NodeCrash {
            host: host.index(),
            from,
            duration,
        });
        self
    }

    /// `host`'s link carries `factor`× bytes during `[from, from + duration)`.
    #[must_use]
    pub fn link_degrade(mut self, host: HostId, from: f64, duration: f64, factor: f64) -> Self {
        self.plan.events.push(FaultEvent::LinkDegrade {
            host: host.index(),
            from,
            duration,
            factor,
        });
        self
    }

    /// Task `task` takes `factor`× longer.
    #[must_use]
    pub fn straggler(mut self, task: TaskId, factor: f64) -> Self {
        self.plan.events.push(FaultEvent::Straggler {
            task: task.index(),
            factor,
        });
        self
    }

    /// Every launch attempt fails with probability `prob`.
    #[must_use]
    pub fn task_failure(mut self, prob: f64) -> Self {
        self.plan.events.push(FaultEvent::TaskFailure { prob });
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_events_in_order() {
        let plan = FaultPlan::builder(7)
            .node_crash(HostId(3), 10.0, 5.0)
            .node_slowdown(HostId(1), 0.0, 1.5)
            .straggler(TaskId(2), 3.0)
            .task_failure(0.1)
            .link_degrade(HostId(0), 2.0, 4.0, 2.0)
            .build();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 5);
        assert_eq!(
            plan.events[0],
            FaultEvent::NodeCrash {
                host: 3,
                from: 10.0,
                duration: 5.0
            }
        );
    }

    #[test]
    fn parse_roundtrips_the_readme_example() {
        let plan = FaultPlan::parse("seed=7;crash@3:10+5;fail=0.05", 32, 100.0).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.events,
            vec![
                FaultEvent::NodeCrash {
                    host: 3,
                    from: 10.0,
                    duration: 5.0
                },
                FaultEvent::TaskFailure { prob: 0.05 },
            ]
        );
    }

    #[test]
    fn parse_accepts_every_clause_kind() {
        let plan = FaultPlan::parse(
            "slow@1:0*1.5; link@2:3+4*2.5; straggle@6*3; moderate",
            16,
            50.0,
        )
        .unwrap();
        assert!(plan.events.len() > 3, "preset adds events");
        assert!(matches!(plan.events[0], FaultEvent::NodeSlowdown { .. }));
        assert!(matches!(plan.events[1], FaultEvent::LinkDegrade { .. }));
        assert!(matches!(plan.events[2], FaultEvent::Straggler { .. }));
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "crash@3",
            "crash@x:1+2",
            "fail=1.5",
            "fail=-1",
            "slow@1:0",
            "wibble",
            "seed=abc",
            "straggle@1*NaN",
        ] {
            assert!(
                FaultPlan::parse(bad, 8, 10.0).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn random_plans_are_deterministic_and_scale_with_intensity() {
        let a = FaultPlan::random(5, 1.0, 32, 100.0);
        let b = FaultPlan::random(5, 1.0, 32, 100.0);
        assert_eq!(a, b);
        let light = FaultPlan::random(5, 0.25, 32, 100.0);
        assert!(light.events.len() < a.events.len());
        assert!(FaultPlan::random(5, 0.0, 32, 100.0).is_empty());
        for e in &a.events {
            match *e {
                FaultEvent::NodeCrash {
                    host,
                    from,
                    duration,
                } => {
                    assert!(host < 32 && from >= 0.0 && duration > 0.0);
                }
                FaultEvent::NodeSlowdown { factor, .. } => assert!(factor > 1.0),
                FaultEvent::LinkDegrade { factor, .. } => assert!(factor > 1.0),
                FaultEvent::TaskFailure { prob } => assert!((0.0..=0.5).contains(&prob)),
                FaultEvent::Straggler { .. } => {}
            }
        }
    }

    #[test]
    fn io_clause_parses_into_the_plan() {
        let plan =
            FaultPlan::parse("seed=3;io:enospc@0.01,shortwrite@0.05;fail=0.1", 8, 60.0).unwrap();
        assert_eq!(plan.io.enospc, 0.01);
        assert_eq!(plan.io.short_write, 0.05);
        assert!(!plan.is_empty());
        // An io-only plan is not empty even with no scripted events.
        let io_only = FaultPlan::parse("io:eio@0.02", 8, 60.0).unwrap();
        assert!(io_only.events.is_empty());
        assert!(!io_only.is_empty());
        assert!(FaultPlan::parse("io:wibble@0.1", 8, 60.0).is_err());
    }

    #[test]
    fn plans_serialize_to_json_and_back() {
        let plan = FaultPlan::builder(42)
            .node_crash(HostId(3), 10.0, 5.0)
            .task_failure(0.05)
            .build();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
