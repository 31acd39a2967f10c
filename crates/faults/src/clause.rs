//! What the `;`-separated plan grammars share: the clause loop, `seed=N`,
//! the presets, and the errors for numbers and indices in a clause.

use crate::plan::PlanParseError;

/// Intensity of a preset word: `light` 0.25, `moderate` 0.5, `heavy` 1.0.
pub(crate) fn preset(word: &str) -> Option<f64> {
    match word {
        "light" => Some(0.25),
        "moderate" => Some(0.5),
        "heavy" => Some(1.0),
        _ => None,
    }
}

/// One trimmed clause, quoted by its parse errors.
#[derive(Clone, Copy)]
pub(crate) struct Clause<'a>(pub(crate) &'a str);

impl Clause<'_> {
    pub(crate) fn err(self, reason: &str) -> PlanParseError {
        let clause = self.0.to_string();
        let reason = reason.to_string();
        PlanParseError { clause, reason }
    }

    /// `s` split at the first `sep`, else "expected `shape`".
    pub(crate) fn split<'s>(
        self,
        s: &'s str,
        sep: char,
        shape: &str,
    ) -> Result<(&'s str, &'s str), PlanParseError> {
        s.split_once(sep)
            .ok_or_else(|| self.err(&format!("expected `{shape}`")))
    }

    pub(crate) fn num(self, s: &str, what: &str) -> Result<f64, PlanParseError> {
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| self.err(&format!("{what} `{s}` is not a non-negative number")))
    }

    pub(crate) fn idx(self, s: &str, what: &str) -> Result<usize, PlanParseError> {
        s.parse::<usize>()
            .map_err(|_| self.err(&format!("{what} `{s}` is not an index")))
    }
}

/// A plan the clause grammar builds.
pub(crate) trait ClausePlan {
    /// The seed `seed=N` sets and presets draw from.
    fn seed(&mut self) -> &mut u64;
    /// Adds a seeded preset's events at `intensity`.
    fn add_preset(&mut self, intensity: f64, hosts: usize, horizon: f64);
    /// Adds any other clause.
    fn add_clause(&mut self, clause: Clause<'_>) -> Result<(), PlanParseError>;
}

/// Parses the trimmed, non-empty clauses of `input` into `plan`.
pub(crate) fn parse<P: ClausePlan>(
    mut plan: P,
    input: &str,
    hosts: usize,
    horizon: f64,
) -> Result<P, PlanParseError> {
    for text in input.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        if let Some(intensity) = preset(text) {
            plan.add_preset(intensity, hosts, horizon);
        } else if let Some(v) = text.strip_prefix("seed=") {
            *plan.seed() = v
                .parse()
                .map_err(|_| Clause(text).err("seed is not an integer"))?;
        } else {
            plan.add_clause(Clause(text))?;
        }
    }
    Ok(plan)
}
