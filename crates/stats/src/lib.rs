//! # mps-stats — statistics and figure-data helpers
//!
//! Descriptive statistics (quantiles, Tukey box plots for Figure 8),
//! simulation-error metrics (relative makespans, sign-agreement counts for
//! Figures 1/5/7), streaming quantile sketches for unbounded event
//! streams, the shed policy behind both admission front doors, and
//! plain-text renderers for all the paper's figure styles.

#![warn(missing_docs)]

pub mod admission;
pub mod ascii;
pub mod descriptive;
pub mod error;
pub mod rank;
pub mod streaming;

pub use admission::ShedPolicy;
pub use ascii::{boxplots, paired_bars, profile, surface};
pub use descriptive::{boxplot, median, quantile, summary, BoxPlot, Summary};
pub use error::{
    abs_relative_error_pct, count_agreement, relative_error, relative_makespan, verdict, winner,
    AgreementCounts, Verdict, Winner,
};
pub use rank::{kendall_tau, pearson, spearman};
pub use streaming::{P2Quantile, QuantileSketch};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Quantiles are monotone in q and bounded by min/max.
        #[test]
        fn quantile_monotone(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..50),
            qa in 0.0f64..1.0,
            qb in 0.0f64..1.0,
        ) {
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            let a = quantile(&xs, lo).unwrap();
            let b = quantile(&xs, hi).unwrap();
            prop_assert!(a <= b + 1e-9);
            let s = summary(&xs).unwrap();
            prop_assert!(a >= s.min - 1e-9 && b <= s.max + 1e-9);
        }

        /// Box-plot invariants: q1 ≤ median ≤ q3, whiskers bracket the box,
        /// and outliers lie strictly outside the whiskers.
        #[test]
        fn boxplot_invariants(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..60),
        ) {
            let b = boxplot(&xs).unwrap();
            prop_assert!(b.q1 <= b.median + 1e-9);
            prop_assert!(b.median <= b.q3 + 1e-9);
            // Note: `whisker_lo ≤ q1` does NOT always hold with
            // interpolated quantiles (a quartile can fall between an
            // outlier and the first in-range point); the median, however,
            // is always inside the whisker span.
            prop_assert!(b.whisker_lo <= b.median + 1e-9);
            prop_assert!(b.whisker_hi >= b.median - 1e-9);
            for &o in &b.outliers {
                prop_assert!(o < b.whisker_lo || o > b.whisker_hi);
            }
            // Conservation: outliers + in-range points = all points.
            let inside = xs
                .iter()
                .filter(|&&x| x >= b.whisker_lo && x <= b.whisker_hi)
                .count();
            prop_assert_eq!(inside + b.outliers.len(), xs.len());
        }

        /// Agreement counts partition the series.
        #[test]
        fn agreement_partitions(
            pairs in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..40),
        ) {
            let sim: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let exp: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let c = count_agreement(&sim, &exp, 1e-3);
            prop_assert_eq!(c.total(), pairs.len());
        }
    }
}
