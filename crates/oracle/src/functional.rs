//! Functional (data-carrying) execution of scheduled DAGs.
//!
//! The timed executor (`mps-sim`) moves *time*; this module moves *data*:
//! it executes a scheduled mixed-parallel application with real matrices,
//! using the reference kernels and the real redistribution engine of
//! [`crate::reference`] — the Rust analogue of actually running the application
//! under TGrid. Its purpose is end-to-end validation: if the schedule, the
//! per-allocation block distributions and the redistribution plans are
//! consistent, the distributed computation must produce exactly the same
//! numbers as a sequential evaluation of the DAG.
//!
//! Operand semantics (matching the paper's generator, §II-B): each task
//! consumes two matrices — its predecessors' outputs, padded with
//! deterministic external input matrices when it has fewer than two
//! predecessors — and produces one output. Additions are *not* repeated
//! here (repetition only scales time, not values).

use mps_dag::{Dag, TaskId};
use mps_kernels::{BlockDist1D, Kernel};

use crate::matrix::{matadd_seq, matmul_seq, Matrix};
use crate::reference::{execute_redistribution, parallel_matadd, parallel_matmul, Distributed};
use mps_sched::Schedule;

/// Squashes exact-integer-valued entries back into `[-15, 15]` after each
/// task. Both evaluation paths apply it identically, so results stay equal
/// — and, crucially, every intermediate value remains an exact small
/// integer in `f64`, making the comparison independent of accumulation
/// order (a chain of unnormalized multiplications would overflow the 2⁵³
/// exact-integer range and diverge between orders).
fn squash(m: &Matrix) -> Matrix {
    Matrix::from_fn(m.n(), |i, j| m.get(i, j).rem_euclid(31.0) - 15.0)
}

/// Deterministic external input matrix for `(task, slot)`.
fn input_matrix(n: usize, task: TaskId, slot: usize, seed: u64) -> Matrix {
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(task.index() as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(slot as u64)
        | 1;
    Matrix::from_fn(n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Small integers keep float rounding identical between the
        // sequential and distributed evaluation orders.
        ((state >> 58) as f64) - 16.0
    })
}

/// The two operand matrices of a task: predecessor outputs first (in task
/// id order), padded with external inputs.
fn operands(
    dag: &Dag,
    t: TaskId,
    outputs: &[Option<Matrix>],
    n: usize,
    seed: u64,
) -> (Matrix, Matrix) {
    let mut preds: Vec<TaskId> = dag.predecessors(t).to_vec();
    preds.sort();
    let mut ops: Vec<Matrix> = preds
        .iter()
        .map(|p| outputs[p.index()].clone().expect("topological order"))
        .collect();
    let mut slot = 0;
    while ops.len() < 2 {
        ops.push(input_matrix(n, t, slot, seed));
        slot += 1;
    }
    // More than two predecessors can occur for generated DAGs where a task
    // drew both operands from distinct producers and extra edges were
    // deduplicated; fold the extras in by addition so every predecessor's
    // data is observed.
    let mut b = ops.pop().expect("two operands");
    let a = ops.pop().expect("two operands");
    for extra in ops {
        b = matadd_seq(&b, &extra);
    }
    (a, b)
}

/// Sequential reference evaluation of the whole DAG.
///
/// Returns each task's output matrix. `n` must match the DAG's kernels.
pub fn evaluate_sequential(dag: &Dag, n: usize, seed: u64) -> Vec<Matrix> {
    let order = dag.topological_order().expect("valid DAG");
    let mut outputs: Vec<Option<Matrix>> = vec![None; dag.len()];
    for t in order {
        let (a, b) = operands(dag, t, &outputs, n, seed);
        let out = match dag.task(t).kernel {
            Kernel::MatMul { .. } => matmul_seq(&a, &b),
            Kernel::MatAdd { .. } => matadd_seq(&a, &b),
        };
        outputs[t.index()] = Some(squash(&out));
    }
    outputs.into_iter().map(|o| o.expect("computed")).collect()
}

/// Distributed evaluation following a schedule: every task runs with the
/// 1-D block distribution of its scheduled allocation, consuming its
/// predecessors' outputs through the real redistribution engine.
///
/// Returns each task's output matrix (gathered). The schedule must be
/// valid for the DAG; allocations larger than `n` columns are clamped so
/// every rank owns at least one column.
pub fn evaluate_distributed(dag: &Dag, schedule: &Schedule, n: usize, seed: u64) -> Vec<Matrix> {
    let order = dag.topological_order().expect("valid DAG");
    let mut outputs: Vec<Option<Matrix>> = vec![None; dag.len()];
    // Keep each producer's *distributed* output so consumers redistribute
    // from the producer's layout, exactly as TGrid would.
    let mut distributed: Vec<Option<Distributed>> = vec![None; dag.len()];

    for t in order {
        let p_sched = schedule.placement(t).expect("schedule covers the DAG").p();
        let p = p_sched.min(n).max(1);
        let dist = BlockDist1D::vanilla(n, p);

        let (a, b) = operands(dag, t, &outputs, n, seed);

        // Scatter operand A directly (external inputs are born in the
        // task's layout); operand B arrives from its producer's layout via
        // a real redistribution when it is a predecessor's output.
        let a_dist = Distributed::scatter(&a, dist);
        let mut preds: Vec<TaskId> = dag.predecessors(t).to_vec();
        preds.sort();
        let b_dist = match preds.last() {
            Some(&last_pred) if preds.len() >= 2 || dag.predecessors(t).len() >= 2 => {
                // B is the last predecessor's output (possibly folded with
                // extras — those were folded in gathered form already).
                let src = distributed[last_pred.index()]
                    .as_ref()
                    .expect("producer ran");
                if dag.predecessors(t).len() > 2 {
                    // Folding happened in gathered space; re-scatter.
                    Distributed::scatter(&b, dist)
                } else {
                    let (redistributed, _) = execute_redistribution(src, dist);
                    redistributed
                }
            }
            Some(&only_pred) => {
                // Single predecessor: its output is operand A by ordering;
                // B is external. Redistribute A from the producer layout to
                // prove the path, then use it.
                let src = distributed[only_pred.index()].as_ref().expect("ran");
                let (redistributed, _) = execute_redistribution(src, dist);
                // a_dist was scattered from the gathered copy; the
                // redistributed version must agree.
                debug_assert_eq!(
                    redistributed.gather().max_abs_diff(&a),
                    0.0,
                    "redistribution must preserve the producer's output"
                );
                Distributed::scatter(&b, dist)
            }
            None => Distributed::scatter(&b, dist),
        };

        let out_dist = match dag.task(t).kernel {
            Kernel::MatMul { .. } => parallel_matmul(&a_dist, &b_dist).0,
            Kernel::MatAdd { .. } => parallel_matadd(&a_dist, &b_dist, 1),
        };
        let gathered = squash(&out_dist.gather());
        distributed[t.index()] = Some(Distributed::scatter(&gathered, dist));
        outputs[t.index()] = Some(gathered);
    }
    outputs.into_iter().map(|o| o.expect("computed")).collect()
}

/// Runs both evaluations and returns the largest absolute element
/// difference over all task outputs — zero when the scheduling and
/// redistribution machinery is numerically faithful.
pub fn validate_schedule_semantics(dag: &Dag, schedule: &Schedule, n: usize, seed: u64) -> f64 {
    let seq = evaluate_sequential(dag, n, seed);
    let dist = evaluate_distributed(dag, schedule, n, seed);
    seq.iter()
        .zip(&dist)
        .map(|(a, b)| a.max_abs_diff(b))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_dag::gen::{generate, DagGenParams};
    use mps_model::AnalyticModel;
    use mps_platform::Cluster;
    use mps_sched::{Hcpa, Mcpa, Scheduler};

    fn small_dag(seed: u64) -> Dag {
        // The generator works at any matrix size; use a tiny n for real
        // computation. Kernel n only affects cost models, not the
        // functional path, so we evaluate with n = 24 regardless.
        let params = DagGenParams {
            tasks: 8,
            input_matrices: 4,
            add_ratio: 0.5,
            matrix_size: 2000,
        };
        generate(&params, seed)
    }

    #[test]
    fn sequential_evaluation_is_deterministic() {
        let dag = small_dag(1);
        let a = evaluate_sequential(&dag, 16, 7);
        let b = evaluate_sequential(&dag, 16, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.max_abs_diff(y), 0.0);
        }
        let c = evaluate_sequential(&dag, 16, 8);
        assert!(a[0].max_abs_diff(&c[0]) > 0.0, "seed changes inputs");
    }

    #[test]
    fn distributed_execution_matches_sequential_under_hcpa() {
        let cluster = Cluster::bayreuth();
        let model = AnalyticModel::paper_jvm();
        for seed in 0..6 {
            let dag = small_dag(seed);
            let schedule = Hcpa.schedule(&dag, &cluster, &model);
            let diff = validate_schedule_semantics(&dag, &schedule, 24, seed);
            assert_eq!(diff, 0.0, "seed {seed}: max diff {diff}");
        }
    }

    #[test]
    fn distributed_execution_matches_sequential_under_mcpa() {
        let cluster = Cluster::bayreuth();
        let model = AnalyticModel::paper_jvm();
        for seed in 0..4 {
            let dag = small_dag(seed + 100);
            let schedule = Mcpa.schedule(&dag, &cluster, &model);
            let diff = validate_schedule_semantics(&dag, &schedule, 24, seed);
            assert_eq!(diff, 0.0, "seed {seed}");
        }
    }

    #[test]
    fn allocations_larger_than_matrix_are_clamped() {
        // n = 8 columns but 32-host allocations: every rank must still own
        // ≥ 1 column.
        let cluster = Cluster::bayreuth();
        let model = AnalyticModel::paper_jvm();
        let dag = small_dag(3);
        let schedule = Hcpa.schedule(&dag, &cluster, &model);
        let diff = validate_schedule_semantics(&dag, &schedule, 8, 3);
        assert_eq!(diff, 0.0);
    }

    #[test]
    fn chain_dag_functional_roundtrip() {
        use mps_dag::shapes::chain;
        let dag = chain(Kernel::MatMul { n: 2000 }, 4);
        let cluster = Cluster::bayreuth();
        let schedule = Hcpa.schedule(&dag, &cluster, &AnalyticModel::paper_jvm());
        let diff = validate_schedule_semantics(&dag, &schedule, 20, 11);
        assert_eq!(diff, 0.0);
    }
}
