//! Seeded stochastic arrival processes.
//!
//! Two variants, both deterministic per seed and both described by a
//! compact grammar string that round-trips through `parse`/`Display`
//! (the same lexer and errors as `FaultPlan`/`DisturbancePlan`, so
//! arrival specs travel through CLIs and wire protocols as plain text):
//!
//! * `poisson@RATE` — homogeneous Poisson arrivals at `RATE` jobs per
//!   simulated second (exponential inter-arrival times).
//! * `mmpp@R0:R1:S0:S1` — a two-state Markov-modulated Poisson process:
//!   the process alternates between state 0 (rate `R0`, exponentially
//!   distributed sojourn with mean `S0` seconds) and state 1 (rate `R1`,
//!   mean sojourn `S1`). With `R0 ≫ R1` this produces the bursty
//!   traffic that stresses admission control far harder than a Poisson
//!   stream of the same mean rate.
//! * `RATE` — a bare number is short for `poisson@RATE`.

use std::fmt;

use mps_faults::clause::{self, Clause, PlanParseError};

/// A parsed arrival-process description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Jobs per simulated second (> 0, finite).
        rate: f64,
    },
    /// Two-state Markov-modulated Poisson process.
    Mmpp {
        /// Arrival rate in state 0 (≥ 0).
        rate0: f64,
        /// Arrival rate in state 1 (≥ 0; not both zero).
        rate1: f64,
        /// Mean sojourn in state 0, seconds (> 0).
        sojourn0: f64,
        /// Mean sojourn in state 1, seconds (> 0).
        sojourn1: f64,
    },
}

impl ArrivalSpec {
    /// Parses one spec in the grammar of the module docs; a bare number
    /// `R` means `poisson@R`.
    pub fn parse(s: &str) -> Result<Self, PlanParseError> {
        Self::from_clause(Clause(s.trim()))
    }

    /// Parses a `,`-separated list of specs (`repro --arrival-rate`).
    pub fn parse_list(s: &str) -> Result<Vec<Self>, PlanParseError> {
        clause::clauses(s, ',').map(Self::from_clause).collect()
    }

    fn from_clause(c: Clause<'_>) -> Result<Self, PlanParseError> {
        let num = |x: &str, what: &str| c.num(x.trim(), what);
        let (kind, args) = match c.0.split_once('@') {
            Some((kind, args)) => (kind.trim(), args),
            None if c.0.parse::<f64>().is_ok() => ("poisson", c.0),
            None => return Err(c.err("expected `poisson@R`, `mmpp@R0:R1:S0:S1` or a rate")),
        };
        match kind {
            "poisson" => {
                let rate = num(args, "rate")?;
                if rate == 0.0 {
                    return Err(c.err("poisson rate must be > 0"));
                }
                Ok(ArrivalSpec::Poisson { rate })
            }
            "mmpp" => {
                let parts: Vec<&str> = args.split(':').collect();
                let [r0, r1, s0, s1] = parts[..] else {
                    return Err(c.err("expected `mmpp@R0:R1:S0:S1`"));
                };
                let (rate0, rate1) = (num(r0, "rate0")?, num(r1, "rate1")?);
                let (sojourn0, sojourn1) = (num(s0, "sojourn0")?, num(s1, "sojourn1")?);
                if rate0 == 0.0 && rate1 == 0.0 {
                    return Err(c.err("mmpp rates must not both be zero"));
                }
                if sojourn0 == 0.0 || sojourn1 == 0.0 {
                    return Err(c.err("mmpp sojourns must be > 0"));
                }
                Ok(ArrivalSpec::Mmpp {
                    rate0,
                    rate1,
                    sojourn0,
                    sojourn1,
                })
            }
            other => Err(c.err(&format!("unknown arrival kind `{other}`"))),
        }
    }

    /// Long-run mean arrival rate (jobs per simulated second).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalSpec::Poisson { rate } => rate,
            ArrivalSpec::Mmpp {
                rate0,
                rate1,
                sojourn0,
                sojourn1,
            } => (rate0 * sojourn0 + rate1 * sojourn1) / (sojourn0 + sojourn1),
        }
    }
}

impl fmt::Display for ArrivalSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArrivalSpec::Poisson { rate } => write!(f, "poisson@{rate}"),
            ArrivalSpec::Mmpp {
                rate0,
                rate1,
                sojourn0,
                sojourn1,
            } => write!(f, "mmpp@{rate0}:{rate1}:{sojourn0}:{sojourn1}"),
        }
    }
}

/// Deterministic splitmix64 stream — the crate's only randomness source,
/// so an arrival trace is a pure function of `(spec, seed)`.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (mean `1/rate`).
    fn exp(&mut self, rate: f64) -> f64 {
        // 1 - unit() is in (0, 1], so ln never sees zero.
        -(1.0 - self.unit()).ln() / rate
    }
}

/// A running arrival process: an infinite, seeded stream of
/// inter-arrival delays.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    spec: ArrivalSpec,
    rng: SplitMix,
    /// Current MMPP state (always 0 for Poisson).
    state: u8,
    /// Simulated time left in the current MMPP state.
    sojourn_left: f64,
}

impl ArrivalProcess {
    /// A process drawing from `spec`, deterministically seeded.
    pub fn new(spec: ArrivalSpec, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0xA221_11A1_05EE_D001);
        let sojourn_left = match spec {
            ArrivalSpec::Poisson { .. } => f64::INFINITY,
            ArrivalSpec::Mmpp { sojourn0, .. } => rng.exp(1.0 / sojourn0),
        };
        ArrivalProcess {
            spec,
            rng,
            state: 0,
            sojourn_left,
        }
    }

    /// The spec this process draws from.
    pub fn spec(&self) -> ArrivalSpec {
        self.spec
    }

    /// Delay until the next arrival, in simulated seconds. Advances the
    /// process state (MMPP sojourns are consumed as simulated time
    /// passes, including across state switches with no arrival).
    pub fn next_delay(&mut self) -> f64 {
        match self.spec {
            ArrivalSpec::Poisson { rate } => self.rng.exp(rate),
            ArrivalSpec::Mmpp {
                rate0,
                rate1,
                sojourn0,
                sojourn1,
            } => {
                let mut waited = 0.0;
                loop {
                    let rate = if self.state == 0 { rate0 } else { rate1 };
                    // Candidate arrival within this state, if the state
                    // produces arrivals at all.
                    let candidate = if rate > 0.0 {
                        self.rng.exp(rate)
                    } else {
                        f64::INFINITY
                    };
                    if candidate < self.sojourn_left {
                        self.sojourn_left -= candidate;
                        return waited + candidate;
                    }
                    // Sojourn expires first: switch state and keep waiting.
                    waited += self.sojourn_left;
                    self.state ^= 1;
                    let mean = if self.state == 0 { sojourn0 } else { sojourn1 };
                    self.sojourn_left = self.rng.exp(1.0 / mean);
                }
            }
        }
    }

    /// Draws the corpus index of the next arriving job.
    pub fn next_dag(&mut self, corpus_len: usize) -> usize {
        (self.rng.next_u64() % corpus_len.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        for s in ["poisson@2.5", "mmpp@8:0.5:10:40", "mmpp@0:3:1.5:2"] {
            let spec = ArrivalSpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(ArrivalSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for s in [
            "poisson",
            "poisson@",
            "poisson@0",
            "poisson@-1",
            "poisson@nan",
            "mmpp@1:2:3",
            "mmpp@0:0:1:1",
            "mmpp@1:1:0:1",
            "uniform@3",
            "0",
            "-1",
            "nan",
        ] {
            assert!(ArrivalSpec::parse(s).is_err(), "{s:?} should not parse");
        }
        let e = ArrivalSpec::parse("uniform@3").unwrap_err();
        assert_eq!(
            e.to_string(),
            "clause `uniform@3`: unknown arrival kind `uniform`"
        );
    }

    #[test]
    fn a_bare_rate_is_poisson_and_lists_skip_empty_entries() {
        let poisson = |rate| ArrivalSpec::Poisson { rate };
        assert_eq!(ArrivalSpec::parse(" 0.05 ").unwrap(), poisson(0.05));
        let list = ArrivalSpec::parse_list("0.02, poisson@0.5,,mmpp@8:0.5:10:40").unwrap();
        assert_eq!(&list[..2], &[poisson(0.02), poisson(0.5)]);
        assert_eq!(list[2].to_string(), "mmpp@8:0.5:10:40");
        assert!(ArrivalSpec::parse_list("0.02,bogus").is_err());
    }

    #[test]
    fn poisson_mean_rate_is_observed() {
        let mut p = ArrivalProcess::new(ArrivalSpec::Poisson { rate: 4.0 }, 7);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| p.next_delay()).sum();
        let observed = n as f64 / total;
        assert!(
            (observed - 4.0).abs() < 0.1,
            "observed rate {observed} vs 4.0"
        );
    }

    #[test]
    fn mmpp_mean_rate_is_observed() {
        let spec = ArrivalSpec::parse("mmpp@8:0.5:10:40").unwrap();
        let mut p = ArrivalProcess::new(spec, 11);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| p.next_delay()).sum();
        let observed = n as f64 / total;
        let mean = spec.mean_rate();
        assert!(
            (observed - mean).abs() / mean < 0.1,
            "observed rate {observed} vs mean {mean}"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let spec = ArrivalSpec::parse("mmpp@8:0.5:10:40").unwrap();
        let mut a = ArrivalProcess::new(spec, 42);
        let mut b = ArrivalProcess::new(spec, 42);
        for _ in 0..10_000 {
            assert_eq!(a.next_delay().to_bits(), b.next_delay().to_bits());
            assert_eq!(a.next_dag(54), b.next_dag(54));
        }
    }
}
