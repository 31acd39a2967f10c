//! Simulation-error metrics and sign-agreement accounting.
//!
//! The paper's headline numbers are of two kinds:
//!
//! * **makespan simulation error** — how far a simulated makespan is from
//!   the experimental one (Figure 8 reports its distribution per simulator
//!   and algorithm, in percent);
//! * **verdict (sign) agreement** — whether simulation and experiment agree
//!   on *which algorithm wins* for a given DAG (Figures 1, 5, 7: "for 16 of
//!   the 27 DAGs, relying on simulations leads to a result that is the
//!   opposite of the experimental result").

/// Signed relative error `(predicted − actual) / actual`.
pub fn relative_error(predicted: f64, actual: f64) -> f64 {
    (predicted - actual) / actual
}

/// Absolute relative error in percent, the paper's Fig. 8 metric.
pub fn abs_relative_error_pct(predicted: f64, actual: f64) -> f64 {
    relative_error(predicted, actual).abs() * 100.0
}

/// Relative makespan of algorithm A versus algorithm B:
/// `(m_A − m_B) / m_B`. Negative ⇒ A is faster — the y-axis of
/// Figures 1, 5 and 7 (A = HCPA, B = MCPA).
pub fn relative_makespan(a: f64, b: f64) -> f64 {
    (a - b) / b
}

/// Which algorithm a relative makespan `(m_A − m_B) / m_B` favours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Winner {
    /// A is faster (negative relative makespan).
    A,
    /// B is faster (positive relative makespan).
    B,
    /// Neither: within `tie_eps` of zero, or NaN.
    Tie,
}

/// The sign test behind every HCPA-vs-MCPA verdict: classifies one
/// relative makespan, counting `|rel| <= tie_eps` (and NaN) as a tie.
pub fn winner(rel: f64, tie_eps: f64) -> Winner {
    if rel.abs() <= tie_eps || rel.is_nan() {
        Winner::Tie
    } else if rel < 0.0 {
        Winner::A
    } else {
        Winner::B
    }
}

/// Outcome of comparing a simulated verdict with the experimental one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Simulation and experiment pick the same winner.
    Agree,
    /// They pick opposite winners.
    Disagree,
    /// At least one side is a tie (within `tie_eps`).
    Tie,
}

/// Compares the [`winner`]s of two relative-makespan values.
pub fn verdict(simulated: f64, experimental: f64, tie_eps: f64) -> Verdict {
    match (winner(simulated, tie_eps), winner(experimental, tie_eps)) {
        (Winner::Tie, _) | (_, Winner::Tie) => Verdict::Tie,
        (s, e) if s == e => Verdict::Agree,
        _ => Verdict::Disagree,
    }
}

/// Agreement counts over paired series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AgreementCounts {
    /// Same winner.
    pub agree: usize,
    /// Opposite winner.
    pub disagree: usize,
    /// A tie on either side.
    pub ties: usize,
}

impl AgreementCounts {
    /// Total pairs.
    pub fn total(&self) -> usize {
        self.agree + self.disagree + self.ties
    }

    /// Fraction of disagreements (ties excluded from the numerator, kept in
    /// the denominator — the paper reports "16 out of the 27 DAGs").
    pub fn disagree_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.disagree as f64 / self.total() as f64
        }
    }
}

/// Counts verdicts over paired relative-makespan series.
pub fn count_agreement(simulated: &[f64], experimental: &[f64], tie_eps: f64) -> AgreementCounts {
    assert_eq!(simulated.len(), experimental.len());
    let mut out = AgreementCounts::default();
    for (&s, &e) in simulated.iter().zip(experimental) {
        match verdict(s, e, tie_eps) {
            Verdict::Agree => out.agree += 1,
            Verdict::Disagree => out.disagree += 1,
            Verdict::Tie => out.ties += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_signs() {
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(90.0, 100.0) + 0.1).abs() < 1e-12);
        assert_eq!(abs_relative_error_pct(90.0, 100.0), 10.0);
    }

    #[test]
    fn relative_makespan_matches_figure_convention() {
        // HCPA faster (80 vs 100) → negative.
        assert!(relative_makespan(80.0, 100.0) < 0.0);
        assert!((relative_makespan(80.0, 100.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdict_classification() {
        assert_eq!(verdict(-0.1, -0.3, 0.0), Verdict::Agree);
        assert_eq!(verdict(0.1, -0.3, 0.0), Verdict::Disagree);
        assert_eq!(verdict(0.0, -0.3, 0.0), Verdict::Tie);
        assert_eq!(verdict(0.005, -0.3, 0.01), Verdict::Tie);
        assert_eq!(verdict(f64::NAN, -0.3, 0.0), Verdict::Tie);
        assert_eq!(winner(-0.0, 0.0), Winner::Tie);
        assert_eq!(winner(f64::NEG_INFINITY, 0.0), Winner::A);
        assert_eq!(winner(1e-300, 0.0), Winner::B);
    }

    #[test]
    fn agreement_counting() {
        let sim = [-0.2, 0.1, -0.1, 0.0];
        let exp = [-0.3, -0.1, -0.2, 0.5];
        let c = count_agreement(&sim, &exp, 0.0);
        assert_eq!(c.agree, 2);
        assert_eq!(c.disagree, 1);
        assert_eq!(c.ties, 1);
        assert_eq!(c.total(), 4);
        assert!((c.disagree_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paper_headline_fraction() {
        // 16 disagreements out of 27 ≈ 60 %.
        let c = AgreementCounts {
            agree: 11,
            disagree: 16,
            ties: 0,
        };
        assert!((c.disagree_fraction() - 16.0 / 27.0).abs() < 1e-12);
        assert!(c.disagree_fraction() > 0.59);
    }

    #[test]
    fn empty_series() {
        let c = count_agreement(&[], &[], 0.0);
        assert_eq!(c.total(), 0);
        assert_eq!(c.disagree_fraction(), 0.0);
    }
}
