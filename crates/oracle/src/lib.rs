//! # mps-oracle — frozen reference implementations for tests
//!
//! Slow, simple implementations that the product crates' fast paths are
//! checked against. Nothing in the product depends on this crate: tests
//! reach it through `[dev-dependencies]`, and it is never published.
//!
//! | module | oracle for |
//! |---|---|
//! | [`solver`] | `mps_des`'s incremental max-min fair-share solver |
//! | [`allocation`] | `mps_sched`'s incremental CPA/HCPA/MCPA allocation engine |
//! | [`runner`] | `mps_exp`'s warm-slab grid cells |
//! | [`matrix`] + [`reference`](mod@reference) | `mps_kernels`'s analytic cost models: real, executing kernels and a redistribution executor |
//! | [`functional`] | schedule semantics: a DAG executed with real matrices, distributed vs sequential |
//!
//! Unit tests here compare the fast paths with their oracles. A product
//! crate's own unit tests cannot: its `cfg(test)` build is a different
//! crate from the one this crate links, so the types do not match.

#![warn(missing_docs)]

pub mod allocation;
pub mod functional;
pub mod matrix;
pub mod reference;
pub mod runner;
pub mod solver;

pub use allocation::allocate_ref;
pub use functional::{evaluate_distributed, evaluate_sequential, validate_schedule_semantics};
pub use matrix::{matadd_seq, matmul_seq, Matrix};
pub use reference::{
    execute_redistribution, parallel_matadd, parallel_matmul, Distributed, KernelRunStats,
};
pub use runner::reference_cell;
pub use solver::max_min_fair_rates_ref;

#[cfg(test)]
mod proptests {
    use super::*;
    use mps_kernels::BlockDist1D;
    use proptest::prelude::*;

    proptest! {
        /// Redistribution execution preserves matrix content for arbitrary
        /// sizes and allocations (scaled down for test speed).
        #[test]
        fn redistribution_roundtrip(
            n in 2usize..48,
            p_src in 1usize..9,
            p_dst in 1usize..9,
            seed in 0u64..1000,
        ) {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let m = Matrix::from_fn(n, |_, _| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as f64
            });
            let src = Distributed::scatter(&m, BlockDist1D::vanilla(n, p_src));
            let (dst, _) = execute_redistribution(&src, BlockDist1D::vanilla(n, p_dst));
            prop_assert_eq!(dst.gather().max_abs_diff(&m), 0.0);
        }
    }
}
