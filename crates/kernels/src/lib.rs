//! # mps-kernels — 1-D distributed matrix kernels
//!
//! The computational substrate of the paper's case study: parallel matrix
//! multiplication and (repeated) matrix addition on 1-D column-block
//! distributed `n × n` matrices, plus the data-redistribution planning that
//! connects tasks with different allocations.
//!
//! Two layers:
//!
//! * [`dist`] — the column-block distribution math, including the *vanilla*
//!   split whose remainder pile-up causes the paper's `p = 16` outlier;
//! * [`cost`] + [`redist`] — the **analytic cost models** (flop counts,
//!   ring-communication matrices, redistribution overlap plans) that
//!   instantiate the `Ptask_L07` simulation model in §IV.
//!
//! Real, executing implementations of the same kernels, which check that
//! the cost models charge exactly the work and traffic the algorithms
//! perform, live in the dev-only `mps-oracle` crate.
//!
//! ```
//! use mps_kernels::{Kernel, vanilla_plan};
//!
//! let mm = Kernel::MatMul { n: 2000 };
//! assert_eq!(mm.total_flops(), 1.6e10);
//!
//! // Redistribute a 2000×2000 matrix from 4 to 8 processors:
//! let plan = vanilla_plan(2000, 4, 8);
//! assert_eq!(plan.total_bytes(), 2000.0 * 2000.0 * 8.0);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod dist;
pub mod redist;

pub use cost::{Kernel, ELEMENT_BYTES};
pub use dist::{BlockDist1D, SplitRule};
pub use redist::{vanilla_plan, RedistPlan, Transfer};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Vanilla blocks always partition the matrix: contiguous, ordered,
        /// covering every column exactly once.
        #[test]
        fn vanilla_blocks_partition(n in 1usize..4000, p in 1usize..64) {
            let d = BlockDist1D::vanilla(n, p);
            let mut next = 0;
            for r in 0..p {
                let c = d.columns(r);
                prop_assert_eq!(c.start, next);
                next = c.end;
            }
            prop_assert_eq!(next, n);
        }

        /// Balanced blocks differ by at most one column.
        #[test]
        fn balanced_blocks_are_within_one(n in 1usize..4000, p in 1usize..64) {
            let d = BlockDist1D::balanced(n, p);
            let lens: Vec<usize> = (0..p).map(|r| d.block_len(r)).collect();
            let min = *lens.iter().min().unwrap();
            let max = *lens.iter().max().unwrap();
            prop_assert!(max - min <= 1);
        }

        /// A redistribution plan always moves every column exactly once,
        /// regardless of the (src, dst) allocation sizes.
        #[test]
        fn redist_plan_is_conservative(
            n in 1usize..3000,
            p_src in 1usize..40,
            p_dst in 1usize..40,
        ) {
            let plan = vanilla_plan(n, p_src, p_dst);
            let cols: usize = plan.transfers().iter().map(|t| t.columns).sum();
            prop_assert_eq!(cols, n);
            let bytes = plan.total_bytes();
            prop_assert!((bytes - (n * n * 8) as f64).abs() < 1e-6);
        }

        /// Kernel totals are invariant under allocation size: splitting the
        /// analytic per-proc flops over p processors reproduces the total.
        #[test]
        fn analytic_flops_conserve_total(n in 16usize..4000, p in 1usize..64) {
            for k in [Kernel::MatMul { n }, Kernel::MatAdd { n }] {
                let per = k.flops_per_proc(p);
                prop_assert!((per * p as f64 - k.total_flops()).abs()
                    < k.total_flops() * 1e-12);
            }
        }

        /// Ring communication totals scale as (p-1)·n²·8 bytes.
        #[test]
        fn ring_traffic_formula(n in 16usize..3000, p in 2usize..33) {
            let k = Kernel::MatMul { n };
            let expect = (p - 1) as f64 * (n * n) as f64 * 8.0;
            prop_assert!((k.total_comm_bytes(p) - expect).abs() < expect * 1e-12);
        }
    }
}
