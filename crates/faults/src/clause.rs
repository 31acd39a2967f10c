//! The one lexer under every text plan: fault and disturbance plans,
//! the `io:` chaos plan, arrival specs and poison specs.
//!
//! A plan is a list of clauses cut at one separator (`;` or `,`);
//! [`clauses`] trims each clause and skips empty ones. Each grammar then
//! takes its clauses apart with [`Clause::split`] and reads numbers with
//! [`Clause::num`], [`Clause::idx`] and [`Clause::prob`], so every
//! grammar reports a bad value the same way: one [`PlanParseError`] that
//! quotes the clause.

/// Intensity of a preset word: `light` 0.25, `moderate` 0.5, `heavy` 1.0.
pub(crate) fn preset(word: &str) -> Option<f64> {
    match word {
        "light" => Some(0.25),
        "moderate" => Some(0.5),
        "heavy" => Some(1.0),
        _ => None,
    }
}

/// The trimmed, non-empty clauses of `input`, cut at `sep`.
pub fn clauses(input: &str, sep: char) -> impl Iterator<Item = Clause<'_>> {
    input
        .split(sep)
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(Clause)
}

/// One trimmed clause, quoted by its parse errors.
#[derive(Debug, Clone, Copy)]
pub struct Clause<'a>(pub &'a str);

impl Clause<'_> {
    /// An error quoting this clause.
    pub fn err(self, reason: &str) -> PlanParseError {
        let clause = self.0.to_string();
        let reason = reason.to_string();
        PlanParseError { clause, reason }
    }

    /// `s` split at the first `sep`, else "expected `shape`".
    pub fn split<'s>(
        self,
        s: &'s str,
        sep: char,
        shape: &str,
    ) -> Result<(&'s str, &'s str), PlanParseError> {
        s.split_once(sep)
            .ok_or_else(|| self.err(&format!("expected `{shape}`")))
    }

    /// `s` as a finite number ≥ 0; `what` names it in the error.
    pub fn num(self, s: &str, what: &str) -> Result<f64, PlanParseError> {
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| self.err(&format!("{what} `{s}` is not a non-negative number")))
    }

    /// `s` as a probability in `[0, 1]`.
    pub fn prob(self, s: &str) -> Result<f64, PlanParseError> {
        let p = self.num(s, "probability")?;
        if p > 1.0 {
            return Err(self.err("probability exceeds 1"));
        }
        Ok(p)
    }

    /// `s` as an index; `what` names it in the error.
    pub fn idx(self, s: &str, what: &str) -> Result<usize, PlanParseError> {
        s.parse::<usize>()
            .map_err(|_| self.err(&format!("{what} `{s}` is not an index")))
    }
}

/// Error from any plan grammar: the offending clause and what was wrong
/// with it. Callers name the flag or field the plan came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// The offending clause.
    pub clause: String,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "clause `{}`: {}", self.clause, self.reason)
    }
}

impl std::error::Error for PlanParseError {}

/// A `;`-separated plan that takes `seed=N` and the presets.
pub(crate) trait ClausePlan {
    /// The seed `seed=N` sets and presets draw from.
    fn seed(&mut self) -> &mut u64;
    /// Adds a seeded preset's events at `intensity`.
    fn add_preset(&mut self, intensity: f64, hosts: usize, horizon: f64);
    /// Adds any other clause.
    fn add_clause(&mut self, clause: Clause<'_>) -> Result<(), PlanParseError>;
}

/// Parses the clauses of `input` into `plan`.
pub(crate) fn parse<P: ClausePlan>(
    mut plan: P,
    input: &str,
    hosts: usize,
    horizon: f64,
) -> Result<P, PlanParseError> {
    for c in clauses(input, ';') {
        if let Some(intensity) = preset(c.0) {
            plan.add_preset(intensity, hosts, horizon);
        } else if let Some(v) = c.0.strip_prefix("seed=") {
            *plan.seed() = v.parse().map_err(|_| c.err("seed is not an integer"))?;
        } else {
            plan.add_clause(c)?;
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clauses_are_trimmed_and_empty_ones_skipped() {
        let got: Vec<&str> = clauses(" a ;; b;", ';').map(|c| c.0).collect();
        assert_eq!(got, ["a", "b"]);
        assert_eq!(clauses(" , ", ',').count(), 0);
    }

    #[test]
    fn prob_accepts_the_unit_interval_only() {
        let c = Clause("p");
        assert_eq!(c.prob("0").unwrap(), 0.0);
        assert_eq!(c.prob("1").unwrap(), 1.0);
        for bad in ["1.5", "-0.1", "NaN", "inf", "x"] {
            assert!(c.prob(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn errors_quote_the_clause_without_naming_a_grammar() {
        let e = crate::DisturbancePlan::parse("crash@x:1", 8, 10.0).unwrap_err();
        assert_eq!(
            e.to_string(),
            "clause `crash@x:1`: time `x` is not a non-negative number"
        );
    }
}
