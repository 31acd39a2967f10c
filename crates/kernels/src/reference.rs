//! Reference (actually executing) parallel kernel implementations.
//!
//! These are the Rust equivalents of the paper's MPIJava kernels: 1-D
//! column-block matrix multiplication with ring rotation, repeated matrix
//! addition, and a real redistribution executor driven by a
//! [`crate::redist::RedistPlan`].
//!
//! They exist to *validate the cost models*: the ring algorithm here moves
//! exactly the `n²/p` elements per step that the analytic model charges, and
//! the redistribution executor moves exactly the bytes the overlap plan
//! predicts. Unit and property tests pin the numerical results against the
//! sequential references.

use crate::dist::BlockDist1D;
use crate::matrix::Matrix;
use crate::redist::RedistPlan;

/// A matrix distributed by column blocks: one owned block per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Distributed {
    dist: BlockDist1D,
    /// `blocks[r]` holds rank `r`'s columns, column-major, `n` rows.
    blocks: Vec<Vec<f64>>,
}

impl Distributed {
    /// Scatters a full matrix according to `dist`.
    pub fn scatter(m: &Matrix, dist: BlockDist1D) -> Self {
        assert_eq!(m.n(), dist.n());
        let blocks = (0..dist.p())
            .map(|r| {
                let c = dist.columns(r);
                m.columns(c.start, c.end).to_vec()
            })
            .collect();
        Distributed { dist, blocks }
    }

    /// The distribution.
    pub fn dist(&self) -> BlockDist1D {
        self.dist
    }

    /// Rank `r`'s block (column-major, `n` rows).
    pub fn block(&self, r: usize) -> &[f64] {
        &self.blocks[r]
    }

    /// Gathers the distributed blocks back into a full matrix.
    pub fn gather(&self) -> Matrix {
        let n = self.dist.n();
        let mut m = Matrix::zeros(n);
        for r in 0..self.dist.p() {
            let cols = self.dist.columns(r);
            m.columns_mut(cols.start, cols.end)
                .copy_from_slice(&self.blocks[r]);
        }
        m
    }

    /// Bytes held by rank `r`.
    pub fn block_bytes(&self, r: usize) -> usize {
        self.blocks[r].len() * std::mem::size_of::<f64>()
    }
}

/// Statistics reported by the parallel reference kernels, used to check the
/// analytic cost model's communication volume.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelRunStats {
    /// Elements sent over the (logical) network during the kernel.
    pub elements_sent: usize,
    /// Number of ring steps performed.
    pub steps: usize,
}

/// 1-D parallel matrix multiplication `C = A · B` with both operands and the
/// result column-block distributed.
///
/// The algorithm is the paper's: rank `r` owns column blocks `B_r` and
/// `C_r`; the column blocks of `A` rotate around a ring. After `p` steps
/// every rank has seen every `A` block and `C_r = Σ_s A_s · B[rows_s, r]` is
/// complete. The per-step traffic is rank `r`'s current `A` block —
/// `n · n/p` elements, matching the analytic model's `n²/p` per step.
///
/// Ranks execute each step concurrently on scoped threads, so
/// the kernel really is parallel, data-race-free by construction.
pub fn parallel_matmul(a: &Distributed, b: &Distributed) -> (Distributed, KernelRunStats) {
    let dist = a.dist();
    assert_eq!(dist, b.dist(), "operands must share a distribution");
    let n = dist.n();
    let p = dist.p();

    // Rank r's working copy of the rotating A block, starting with its own.
    let mut rotating: Vec<Vec<f64>> = (0..p).map(|r| a.block(r).to_vec()).collect();
    // Which original rank's block each rank currently holds.
    let mut held_owner: Vec<usize> = (0..p).collect();
    let mut c_blocks: Vec<Vec<f64>> = (0..p).map(|r| vec![0.0; b.block(r).len()]).collect();
    let mut stats = KernelRunStats::default();

    for step in 0..p {
        // Compute concurrently: each rank multiplies its held A block into
        // its C block.
        std::thread::scope(|scope| {
            for (r, c_block) in c_blocks.iter_mut().enumerate() {
                let a_block = &rotating[r];
                let owner = held_owner[r];
                let b_block = b.block(r);
                let my_cols = dist.columns(r);
                let owner_cols = dist.columns(owner);
                scope.spawn(move || {
                    // C(:, j) += A(:, owner_cols) · B(owner_cols, j)
                    for (jj, _col) in my_cols.clone().enumerate() {
                        for (kk, k) in owner_cols.clone().enumerate() {
                            let bkj = b_block[jj * n + k];
                            if bkj == 0.0 {
                                continue;
                            }
                            for i in 0..n {
                                c_block[jj * n + i] += a_block[kk * n + i] * bkj;
                            }
                        }
                    }
                });
            }
        });

        // Rotate A blocks: rank r sends to (r+1) mod p.
        if step + 1 < p && p > 1 {
            stats.steps += 1;
            stats.elements_sent += rotating.iter().map(Vec::len).sum::<usize>();
            rotating.rotate_right(1);
            held_owner.rotate_right(1);
        }
    }

    (
        Distributed {
            dist,
            blocks: c_blocks,
        },
        stats,
    )
}

/// 1-D parallel matrix addition `C = A + B`, repeated `reps` times (the
/// paper repeats each addition `n/4` times to make its cost measurable).
/// No communication.
pub fn parallel_matadd(a: &Distributed, b: &Distributed, reps: usize) -> Distributed {
    let dist = a.dist();
    assert_eq!(dist, b.dist(), "operands must share a distribution");
    let p = dist.p();
    let mut c_blocks: Vec<Vec<f64>> = (0..p).map(|r| vec![0.0; a.block(r).len()]).collect();
    std::thread::scope(|scope| {
        for (r, c_block) in c_blocks.iter_mut().enumerate() {
            let a_block = a.block(r);
            let b_block = b.block(r);
            scope.spawn(move || {
                for _ in 0..reps.max(1) {
                    for (c, (&x, &y)) in c_block.iter_mut().zip(a_block.iter().zip(b_block)) {
                        *c = x + y;
                    }
                }
            });
        }
    });
    Distributed {
        dist,
        blocks: c_blocks,
    }
}

/// Executes a redistribution plan: re-partitions `src`'s blocks into the
/// `dst` distribution, returning the redistributed matrix plus the number of
/// elements actually copied between ranks (to validate the plan's byte
/// accounting).
pub fn execute_redistribution(src: &Distributed, dst_dist: BlockDist1D) -> (Distributed, usize) {
    let plan = RedistPlan::compute(&src.dist(), &dst_dist);
    let n = src.dist().n();
    let mut dst_blocks: Vec<Vec<f64>> = (0..dst_dist.p())
        .map(|r| vec![0.0; dst_dist.block_len(r) * n])
        .collect();
    let mut moved = 0usize;
    for t in plan.transfers() {
        let src_cols = src.dist().columns(t.src_rank);
        let dst_cols = dst_dist.columns(t.dst_rank);
        // The overlapping global column interval.
        let lo = src_cols.start.max(dst_cols.start);
        let hi = src_cols.end.min(dst_cols.end);
        debug_assert_eq!(hi - lo, t.columns);
        for col in lo..hi {
            let s_off = (col - src_cols.start) * n;
            let d_off = (col - dst_cols.start) * n;
            let src_block = &src.blocks[t.src_rank];
            dst_blocks[t.dst_rank][d_off..d_off + n].copy_from_slice(&src_block[s_off..s_off + n]);
            moved += n;
        }
    }
    (
        Distributed {
            dist: dst_dist,
            blocks: dst_blocks,
        },
        moved,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Kernel;
    use crate::matrix::{matadd_seq, matmul_seq};

    fn test_matrix(n: usize, seed: u64) -> Matrix {
        // Deterministic pseudo-random entries without pulling in rand.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let m = test_matrix(16, 7);
        for p in [1, 2, 3, 5, 16] {
            let d = Distributed::scatter(&m, BlockDist1D::vanilla(16, p));
            assert_eq!(d.gather().max_abs_diff(&m), 0.0, "p={p}");
        }
    }

    #[test]
    fn parallel_matmul_matches_sequential() {
        let n = 24;
        let a = test_matrix(n, 1);
        let b = test_matrix(n, 2);
        let expect = matmul_seq(&a, &b);
        for p in [1usize, 2, 3, 4, 6, 8] {
            let dist = BlockDist1D::vanilla(n, p);
            let (c, _) = parallel_matmul(
                &Distributed::scatter(&a, dist),
                &Distributed::scatter(&b, dist),
            );
            let diff = c.gather().max_abs_diff(&expect);
            assert!(diff < 1e-10, "p={p} diff={diff}");
        }
    }

    #[test]
    fn parallel_matmul_with_vanilla_imbalance() {
        // n not divisible by p: the last rank's block is larger.
        let n = 26;
        let a = test_matrix(n, 3);
        let b = test_matrix(n, 4);
        let expect = matmul_seq(&a, &b);
        for p in [3usize, 4, 5, 7] {
            let dist = BlockDist1D::vanilla(n, p);
            let (c, _) = parallel_matmul(
                &Distributed::scatter(&a, dist),
                &Distributed::scatter(&b, dist),
            );
            assert!(c.gather().max_abs_diff(&expect) < 1e-10, "p={p}");
        }
    }

    #[test]
    fn matmul_traffic_matches_analytic_model() {
        // Ring traffic: (p-1) steps × n² elements total per step (summed over
        // ranks) when n divides p evenly.
        let n = 32;
        let p = 4;
        let a = test_matrix(n, 5);
        let b = test_matrix(n, 6);
        let dist = BlockDist1D::vanilla(n, p);
        let (_, stats) = parallel_matmul(
            &Distributed::scatter(&a, dist),
            &Distributed::scatter(&b, dist),
        );
        assert_eq!(stats.steps, p - 1);
        assert_eq!(stats.elements_sent, (p - 1) * n * n);
        // The analytic model charges the same volume in bytes:
        let k = Kernel::MatMul { n };
        let model_bytes: f64 = k.total_comm_bytes(p);
        assert!((model_bytes - (stats.elements_sent * 8) as f64).abs() < 1e-9);
    }

    #[test]
    fn single_rank_matmul_sends_nothing() {
        let n = 8;
        let a = test_matrix(n, 8);
        let b = test_matrix(n, 9);
        let dist = BlockDist1D::vanilla(n, 1);
        let (_, stats) = parallel_matmul(
            &Distributed::scatter(&a, dist),
            &Distributed::scatter(&b, dist),
        );
        assert_eq!(stats.elements_sent, 0);
        assert_eq!(stats.steps, 0);
    }

    #[test]
    fn parallel_matadd_matches_sequential() {
        let n = 20;
        let a = test_matrix(n, 10);
        let b = test_matrix(n, 11);
        let expect = matadd_seq(&a, &b);
        for p in [1usize, 2, 4, 7] {
            let dist = BlockDist1D::vanilla(n, p);
            let c = parallel_matadd(
                &Distributed::scatter(&a, dist),
                &Distributed::scatter(&b, dist),
                n / 4,
            );
            assert!(c.gather().max_abs_diff(&expect) < 1e-12, "p={p}");
        }
    }

    #[test]
    fn redistribution_preserves_the_matrix() {
        let n = 30;
        let m = test_matrix(n, 12);
        for (ps, pd) in [(1usize, 4usize), (4, 1), (3, 7), (7, 3), (5, 5)] {
            let src = Distributed::scatter(&m, BlockDist1D::vanilla(n, ps));
            let (dst, _) = execute_redistribution(&src, BlockDist1D::vanilla(n, pd));
            assert_eq!(dst.gather().max_abs_diff(&m), 0.0, "{ps}->{pd}");
        }
    }

    #[test]
    fn redistribution_moves_exactly_the_planned_bytes() {
        let n = 28;
        let m = test_matrix(n, 13);
        let src = Distributed::scatter(&m, BlockDist1D::vanilla(n, 4));
        let dst_dist = BlockDist1D::vanilla(n, 6);
        let plan = RedistPlan::compute(&src.dist(), &dst_dist);
        let (_, moved_elements) = execute_redistribution(&src, dst_dist);
        assert!(((moved_elements * 8) as f64 - plan.total_bytes()).abs() < 1e-9);
    }

    #[test]
    fn block_bytes_accounting() {
        let m = test_matrix(10, 14);
        let d = Distributed::scatter(&m, BlockDist1D::vanilla(10, 3));
        assert_eq!(d.block_bytes(0), 3 * 10 * 8);
        assert_eq!(d.block_bytes(2), 4 * 10 * 8);
    }
}
