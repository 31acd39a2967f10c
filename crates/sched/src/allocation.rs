//! Allocation phase of the two-step scheduling algorithms.
//!
//! All three algorithms (CPA, HCPA, MCPA) share the same skeleton, due to
//! Radulescu & van Gemund's CPA: start with one processor per task, and
//! while the critical-path length `T_CP` exceeds the average-area bound
//! `T_A = (1/N)·Σ_t np(t)·τ(t, np(t))`, give one more processor to a
//! well-chosen critical-path task. They differ in the *selection rule* and
//! in MCPA's per-precedence-level budget:
//!
//! * **CPA** picks the critical task with the largest absolute reduction of
//!   its execution time, which is known to over-allocate (§II-A: "the
//!   original CPA algorithm produces task allocations that can become too
//!   large").
//! * **HCPA** (N'takpé, Suter, Casanova) damps over-allocation by selecting
//!   on *gain per additional processor*, i.e. `Δτ / (np+1)` — an
//!   efficiency-aware criterion. (Reimplemented from the published
//!   description; see DESIGN.md §5.3.)
//! * **MCPA** (Bansal, Kumar, Singh) keeps CPA's selection but constrains
//!   every precedence level to at most `N` processors in total, so
//!   same-level tasks can actually run concurrently.
//!
//! The task-time function `τ(t, p)` comes from the active performance model
//! and includes the model's startup overhead, so refined simulators also
//! produce refined allocations.

use mps_dag::{Dag, IncrementalBottomLevels, TaskId};

/// Selection rule for the processor-increment step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionRule {
    /// Largest absolute time gain (CPA, MCPA).
    AbsoluteGain,
    /// Largest gain per additional processor (HCPA).
    GainPerProcessor,
}

/// Per-level allocation budget (MCPA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelBudget {
    /// No constraint (CPA, HCPA).
    Unbounded,
    /// Σ allocations within a precedence level ≤ N (MCPA).
    BoundedByCluster,
}

/// When the allocation loop stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// `T_CP ≤ T_A` with the global average area
    /// `T_A = (1/N)·Σ_t np(t)·τ(t)` (CPA, HCPA).
    GlobalArea,
    /// `T_CP ≤ max_level T_A(level)` with the per-precedence-level area
    /// `T_A(level) = (1/N)·Σ_{t ∈ level} np(t)·τ(t)` — MCPA's refinement:
    /// only tasks in the same level actually compete for processors, so
    /// the global average overestimates the area bound and makes CPA stop
    /// too early on deep graphs (and over-allocate on wide ones, which the
    /// level budget then prevents).
    PerLevelArea,
}

/// Allocation-phase configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationConfig {
    /// Increment selection rule.
    pub rule: SelectionRule,
    /// Level budget.
    pub budget: LevelBudget,
    /// Stop rule.
    pub stop: StopRule,
    /// Hard cap on per-task allocation (the cluster size).
    pub max_procs: usize,
}

/// Computes per-task allocations. `tau(t, p)` must return the estimated
/// execution time of task `t` on `p` processors (`p ≥ 1`); it must be a
/// pure function of `(t, p)` — the engine memoizes it.
///
/// Returns one allocation per task (indexed by task id). This is a thin
/// wrapper over [`AllocationEngine::allocate`]; callers scheduling many
/// DAGs should hold an engine and reuse its buffers.
pub fn allocate(
    dag: &Dag,
    cluster_size: usize,
    config: &AllocationConfig,
    tau: impl Fn(TaskId, usize) -> f64,
) -> Vec<usize> {
    AllocationEngine::new().allocate(dag, cluster_size, config, tau)
}

/// Cache identity for [`AllocationEngine::allocate_keyed`]: an opaque
/// caller-assigned fingerprint of the `(dag, τ)` pair.
///
/// Two calls may share a key **only if** they pass the same DAG and a τ
/// function that returns identical values at every `(task, p)` point —
/// the engine then carries its memoized τ-table and the DAG's precedence
/// levels across the calls instead of recomputing them. Callers scheduling
/// the same DAG under the same model with different *selection rules*
/// (e.g. HCPA then MCPA) are the intended users: τ does not depend on the
/// rule, so the whole table transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocKey {
    /// DAG identity (e.g. a hash of its name). Must change when the DAG
    /// changes.
    pub dag: u64,
    /// τ identity (model + any context that alters task times). Must
    /// change when the τ function changes.
    pub model: u64,
}

/// Memo cap on the τ-table's processor dimension. Allocations beyond it
/// (pathological `max_procs` values) fall through to direct `tau` calls —
/// semantics are unchanged, only the memoization stops.
const TAU_MEMO_MAX_PROCS: usize = 4096;

/// Cap on parked τ-tables kept by one [`AllocationEngine`] (the full paper
/// grid needs 162 per harness; a table is ~10 KB). Reaching the cap drops
/// every parked table — a deterministic refill, never a wrong answer.
const TAU_CACHE_MAX: usize = 512;

/// Lazily-filled memoized τ-table indexed by `(task, p)`.
///
/// Each `(task, p)` point is evaluated through the model **at most once**
/// per cell; the allocation loop, the stop-rule area sums, and the mapping
/// phase's execution costs all read the same table. `NaN` marks unset
/// slots (a model returning `NaN` is simply re-evaluated — deterministic
/// models make that a no-op).
#[derive(Debug, Default)]
pub struct TauTable {
    /// `values[t * max_procs + (p - 1)]`.
    values: Vec<f64>,
    n_tasks: usize,
    max_procs: usize,
}

impl TauTable {
    /// Clears and resizes for `n_tasks` tasks × `max_procs` allocations.
    fn reset(&mut self, n_tasks: usize, max_procs: usize) {
        self.n_tasks = n_tasks;
        self.max_procs = max_procs.min(TAU_MEMO_MAX_PROCS);
        self.values.clear();
        self.values.resize(n_tasks * self.max_procs, f64::NAN);
    }

    /// The memoized value, evaluating `tau` on first access.
    #[inline]
    fn get(&mut self, tau: &impl Fn(TaskId, usize) -> f64, t: TaskId, p: usize) -> f64 {
        debug_assert!(p >= 1);
        if p > self.max_procs {
            return tau(t, p);
        }
        let i = t.index() * self.max_procs + (p - 1);
        let v = self.values[i];
        if v.is_nan() {
            let v = tau(t, p);
            self.values[i] = v;
            v
        } else {
            v
        }
    }

    /// The cached value at `(t, p)`, if that point has been evaluated.
    pub fn cached(&self, t: TaskId, p: usize) -> Option<f64> {
        if p == 0 || p > self.max_procs || t.index() >= self.n_tasks {
            return None;
        }
        let v = self.values[t.index() * self.max_procs + (p - 1)];
        (!v.is_nan()).then_some(v)
    }
}

/// Incremental CPA/HCPA/MCPA allocation engine.
///
/// Bit-identical to the frozen pre-rework allocator
/// (`mps_oracle::allocate_ref`), but with the per-step re-derivations
/// replaced by maintained state, following the `SolverWorkspace` pattern
/// from the DES core (DESIGN.md §5.8; the engine itself is §5.11):
///
/// * a memoized [`TauTable`] — each model evaluation happens at most once,
/// * incrementally maintained bottom levels
///   ([`IncrementalBottomLevels`]) — one processor increment re-relaxes
///   only the changed task's ancestor cone, and `T_CP` plus the critical
///   path fall out of the maintained array,
/// * O(1)-updated global and per-level area accumulators (subtract the
///   old `np·τ` term, add the new one),
/// * a per-task cache of the next strictly-improving allocation, only
///   recomputed for the task whose allocation changed.
///
/// The engine is reusable across DAGs and models; every `allocate` call
/// resets and re-uses its buffers.
#[derive(Debug, Default)]
pub struct AllocationEngine {
    tau: TauTable,
    /// Parked τ-tables from earlier keyed calls, swapped back in when
    /// their key returns (e.g. the three model variants of one DAG
    /// interleaving across a grid row). Bounded by [`TAU_CACHE_MAX`].
    tau_cache: std::collections::HashMap<(AllocKey, usize, usize), TauTable>,
    bl: IncrementalBottomLevels,
    /// `time[t] = τ(t, np[t])` — the memoized value at the current
    /// allocation.
    time: Vec<f64>,
    np: Vec<usize>,
    levels: Vec<usize>,
    level_usage: Vec<usize>,
    /// Per-level `Σ np·τ` accumulators (only maintained under
    /// [`StopRule::PerLevelArea`]).
    level_area: Vec<f64>,
    /// Maintained critical path (scratch, rebuilt each step from `bl`).
    cp: Vec<TaskId>,
    /// `(np when computed, next strictly-improving target)` per task.
    next_improving: Vec<(usize, Option<usize>)>,
    /// Identity of the `(dag, τ, max_procs)` triple whose τ-table and
    /// precedence levels are currently loaded (keyed calls only).
    last_key: Option<(AllocKey, usize, usize)>,
}

impl AllocationEngine {
    /// A fresh engine (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the τ-table filled by the last
    /// [`AllocationEngine::allocate`] call. The mapping phase reads its
    /// execution costs from here instead of re-entering the model.
    pub fn tau_table(&self) -> &TauTable {
        &self.tau
    }

    /// Computes per-task allocations; see [`allocate`] for the contract.
    pub fn allocate(
        &mut self,
        dag: &Dag,
        cluster_size: usize,
        config: &AllocationConfig,
        tau: impl Fn(TaskId, usize) -> f64,
    ) -> Vec<usize> {
        self.park_current_tau();
        self.allocate_inner(dag, cluster_size, config, tau, true, true)
    }

    /// Moves the currently-loaded keyed τ-table into the parked cache so a
    /// different table can take its place without losing the evaluations.
    fn park_current_tau(&mut self) {
        if let Some(ident) = self.last_key.take() {
            if self.tau_cache.len() >= TAU_CACHE_MAX {
                self.tau_cache.clear();
            }
            self.tau_cache.insert(ident, std::mem::take(&mut self.tau));
        }
    }

    /// [`AllocationEngine::allocate`] with a caller-supplied cache key:
    /// when `key` (together with the task count and `max_procs`) matches
    /// the previous keyed call, the memoized τ-table and the DAG's
    /// precedence levels are carried over instead of recomputed. τ is
    /// pure, so the result is bit-identical either way — what the warm
    /// call skips is every model evaluation already made by the previous
    /// one (e.g. the HCPA pass pre-pays the τ-table for the MCPA pass on
    /// the same DAG and model).
    ///
    /// Correctness rests on the [`AllocKey`] contract: a reused key MUST
    /// denote the same `(dag, τ)` pair.
    pub fn allocate_keyed(
        &mut self,
        key: AllocKey,
        dag: &Dag,
        cluster_size: usize,
        config: &AllocationConfig,
        tau: impl Fn(TaskId, usize) -> f64,
    ) -> Vec<usize> {
        let ident = (key, dag.len(), config.max_procs);
        if self.last_key == Some(ident) {
            // Table and precedence levels both still loaded.
            return self.allocate_inner(dag, cluster_size, config, tau, false, false);
        }
        self.park_current_tau();
        self.last_key = Some(ident);
        match self.tau_cache.remove(&ident) {
            Some(parked) => {
                // The τ-table returns warm from the parked cache, but the
                // levels buffer still describes the previous call's DAG.
                self.tau = parked;
                self.allocate_inner(dag, cluster_size, config, tau, false, true)
            }
            None => self.allocate_inner(dag, cluster_size, config, tau, true, true),
        }
    }

    fn allocate_inner(
        &mut self,
        dag: &Dag,
        cluster_size: usize,
        config: &AllocationConfig,
        tau: impl Fn(TaskId, usize) -> f64,
        fresh_tau: bool,
        fresh_levels: bool,
    ) -> Vec<usize> {
        assert!(cluster_size >= 1);
        assert!(config.max_procs >= 1);
        let n_tasks = dag.len();
        if fresh_tau {
            self.tau.reset(n_tasks, config.max_procs);
        }
        if n_tasks == 0 {
            return Vec::new();
        }
        self.np.clear();
        self.np.resize(n_tasks, 1);
        if fresh_levels {
            self.levels.clear();
            self.levels.extend(dag.precedence_levels());
        }
        debug_assert_eq!(self.levels.len(), n_tasks);
        let max_level = self.levels.iter().copied().max().unwrap_or(0);
        self.level_usage.clear();
        self.level_usage.resize(max_level + 1, 0);
        for t in 0..n_tasks {
            self.level_usage[self.levels[t]] += 1;
        }
        self.next_improving.clear();
        // Stamp 0 is unreachable (allocations start at 1), so every
        // task's first candidate scan computes its target.
        self.next_improving.resize(n_tasks, (0, None));

        // τ at the initial one-processor allocation, and the area
        // accumulators over those terms. The initial sums run in task-id
        // order, exactly like the reference's per-step re-sums.
        self.time.clear();
        for t in 0..n_tasks {
            let v = self.tau.get(&tau, TaskId(t), 1);
            self.time.push(v);
        }
        let mut global_area = 0.0_f64;
        self.level_area.clear();
        self.level_area.resize(max_level + 1, 0.0);
        for t in 0..n_tasks {
            // `np = 1` everywhere, so each initial term is just τ(t, 1).
            let term = self.time[t];
            global_area += term;
            self.level_area[self.levels[t]] += term;
        }
        self.bl.rebuild(dag, &self.time);

        // Iteration bound: each step adds one processor to one task.
        let max_steps = n_tasks * config.max_procs;
        for _ in 0..max_steps {
            let t_cp = self.bl.critical_path_length();
            let t_a = match config.stop {
                StopRule::GlobalArea => global_area / cluster_size as f64,
                StopRule::PerLevelArea => {
                    self.level_area.iter().copied().fold(0.0, f64::max) / cluster_size as f64
                }
            };
            if t_cp <= t_a {
                break;
            }

            // Candidate selection over the maintained critical path —
            // identical rules and tie-breaks as the reference (first
            // maximal score wins; growth targets are the next *strictly
            // better* allocation, cached per task).
            let mut cp = std::mem::take(&mut self.cp);
            self.bl.critical_path_into(dag, &mut cp);
            let mut best: Option<(TaskId, usize, f64)> = None;
            for &t in &cp {
                let cur = self.np[t.index()];
                let target = self.next_improving(&tau, t, cur, config.max_procs);
                let Some(q) = target else { continue };
                if let LevelBudget::BoundedByCluster = config.budget {
                    if self.level_usage[self.levels[t.index()]] + (q - cur) > cluster_size {
                        continue;
                    }
                }
                let gain = self.tau.get(&tau, t, cur) - self.tau.get(&tau, t, q);
                let added = (q - cur) as f64;
                let score = match config.rule {
                    SelectionRule::AbsoluteGain => gain,
                    // Gain per additional processor, damped by the target
                    // size — reduces to gain/(np+1) for single steps.
                    SelectionRule::GainPerProcessor => gain / (added * q as f64),
                };
                match best {
                    Some((_, _, s)) if s >= score => {}
                    _ => best = Some((t, q, score)),
                }
            }
            self.cp = cp;

            match best {
                Some((t, q, _)) => {
                    let i = t.index();
                    let added = q - self.np[i];
                    let new_time = self.tau.get(&tau, t, q);
                    // O(1) area update: subtract the old term, add the new.
                    let old_term = self.np[i] as f64 * self.time[i];
                    let new_term = q as f64 * new_time;
                    global_area = global_area - old_term + new_term;
                    let lvl = self.levels[i];
                    self.level_area[lvl] = self.level_area[lvl] - old_term + new_term;
                    self.np[i] = q;
                    self.level_usage[lvl] += added;
                    // Re-relax only t's ancestor cone.
                    self.time[i] = new_time;
                    self.bl.update(dag, t, &self.time);
                }
                // No critical task can be improved: stop.
                None => break,
            }
        }
        self.np.clone()
    }

    /// The next strictly-improving allocation for `t` at allocation
    /// `cur`, cached until `np[t]` changes (τ is pure, so the target is a
    /// function of `(t, cur)` only).
    #[inline]
    fn next_improving(
        &mut self,
        tau: &impl Fn(TaskId, usize) -> f64,
        t: TaskId,
        cur: usize,
        max_procs: usize,
    ) -> Option<usize> {
        let (stamp, cached) = self.next_improving[t.index()];
        if stamp == cur {
            return cached;
        }
        let at_cur = self.tau.get(tau, t, cur);
        let target = (cur + 1..=max_procs).find(|&q| self.tau.get(tau, t, q) < at_cur);
        self.next_improving[t.index()] = (cur, target);
        target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_kernels::Kernel;

    fn chain(n: usize) -> Dag {
        let kernels = vec![Kernel::MatMul { n: 100 }; n];
        let edges: Vec<(TaskId, TaskId)> = (1..n).map(|i| (TaskId(i - 1), TaskId(i))).collect();
        Dag::new(kernels, &edges).unwrap()
    }

    fn fork(n_branches: usize) -> Dag {
        // t0 -> t1..tn -> t_{n+1}
        let total = n_branches + 2;
        let kernels = vec![Kernel::MatMul { n: 100 }; total];
        let mut edges = Vec::new();
        for b in 1..=n_branches {
            edges.push((TaskId(0), TaskId(b)));
            edges.push((TaskId(b), TaskId(n_branches + 1)));
        }
        Dag::new(kernels, &edges).unwrap()
    }

    const CPA_CFG: AllocationConfig = AllocationConfig {
        rule: SelectionRule::AbsoluteGain,
        budget: LevelBudget::Unbounded,
        stop: StopRule::GlobalArea,
        max_procs: 8,
    };

    #[test]
    fn chain_gets_everything_until_area_balances() {
        // A pure chain is all critical path; with ideal scaling, T_A is
        // constant (np·w/np = w) and T_CP shrinks: allocation grows until
        // T_CP ≤ T_A.
        let dag = chain(4);
        let np = allocate(&dag, 8, &CPA_CFG, |_t, p| 8.0 / p as f64);
        // T_A = 4·8/8 = 4; T_CP = Σ 8/np_i. Allocation stops once Σ8/np ≤ 4,
        // i.e. all np = 8.
        assert_eq!(np, vec![8, 8, 8, 8]);
    }

    #[test]
    fn single_task_on_big_cluster() {
        let dag = chain(1);
        let np = allocate(&dag, 32, &CPA_CFG, |_t, p| 32.0 / p as f64);
        // T_A = 32/32 = 1; stops when 32/np ≤ 1 → np = 8 = max_procs cap
        // first (config caps at 8), so np = 8 and the loop ends by
        // saturation.
        assert_eq!(np, vec![8]);
    }

    #[test]
    fn wide_fork_stays_modest() {
        // Many parallel branches: the area bound is hit quickly, so branch
        // allocations stay small.
        let dag = fork(8);
        let tau = |_t: TaskId, p: usize| 8.0 / p as f64;
        let np = allocate(&dag, 8, &CPA_CFG, tau);
        // The loop terminates with the CPA stop condition satisfied
        // (T_CP ≤ T_A) well before everything saturates.
        let time = |t: TaskId| tau(t, np[t.index()]);
        let t_cp = dag.critical_path_length(time);
        let t_a: f64 = np
            .iter()
            .enumerate()
            .map(|(t, &p)| p as f64 * tau(TaskId(t), p))
            .sum::<f64>()
            / 8.0;
        assert!(t_cp <= t_a + 1e-9, "T_CP {t_cp} > T_A {t_a}, np = {np:?}");
        let total: usize = np.iter().sum();
        assert!(total < 8 * 10, "should not saturate: {np:?}");
    }

    #[test]
    fn mcpa_level_budget_caps_parallel_levels() {
        // 8 parallel branches on a 4-node cluster: MCPA must keep the
        // middle level's total allocation at ≤ 4... it already starts at 8
        // (> 4) with one proc each, so no branch may grow at all.
        let dag = fork(8);
        let cfg = AllocationConfig {
            rule: SelectionRule::AbsoluteGain,
            budget: LevelBudget::BoundedByCluster,
            stop: StopRule::PerLevelArea,
            max_procs: 4,
        };
        let tau = |_t: TaskId, p: usize| 8.0 / p as f64;
        let np = allocate(&dag, 4, &cfg, tau);
        for b in 1..=8 {
            assert_eq!(np[b], 1, "branch {b} must not grow: {np:?}");
        }
    }

    #[test]
    fn mcpa_allows_growth_within_budget() {
        let dag = chain(2);
        let cfg = AllocationConfig {
            rule: SelectionRule::AbsoluteGain,
            budget: LevelBudget::BoundedByCluster,
            stop: StopRule::PerLevelArea,
            max_procs: 4,
        };
        let tau = |_t: TaskId, p: usize| 16.0 / p as f64;
        let np = allocate(&dag, 4, &cfg, tau);
        // Each level holds one task: budget allows np up to 4.
        assert!(np.iter().all(|&p| p >= 2), "{np:?}");
    }

    #[test]
    fn hcpa_is_more_conservative_than_cpa() {
        // With a startup-like overhead in tau, gain-per-processor stops
        // growing sooner on the heavy task and spreads growth.
        let dag = fork(3);
        let tau = |t: TaskId, p: usize| {
            let w = if t.index() == 1 { 64.0 } else { 16.0 };
            w / p as f64 + 0.4 * p as f64 // overhead regime
        };
        let cpa = allocate(&dag, 8, &CPA_CFG, tau);
        let hcpa_cfg = AllocationConfig {
            rule: SelectionRule::GainPerProcessor,
            budget: LevelBudget::Unbounded,
            stop: StopRule::GlobalArea,
            max_procs: 8,
        };
        let hcpa = allocate(&dag, 8, &hcpa_cfg, tau);
        let cpa_total: usize = cpa.iter().sum();
        let hcpa_total: usize = hcpa.iter().sum();
        assert!(
            hcpa_total <= cpa_total,
            "HCPA ({hcpa:?}) should not over-allocate vs CPA ({cpa:?})"
        );
    }

    #[test]
    fn no_growth_when_overhead_dominates_immediately() {
        let dag = chain(2);
        // Adding any processor makes things worse.
        let tau = |_t: TaskId, p: usize| 1.0 + p as f64;
        let np = allocate(&dag, 8, &CPA_CFG, tau);
        assert_eq!(np, vec![1, 1]);
    }

    #[test]
    fn empty_dag() {
        let dag = Dag::new(vec![], &[]).unwrap();
        let np = allocate(&dag, 8, &CPA_CFG, |_, _| 1.0);
        assert!(np.is_empty());
    }

    #[test]
    fn tau_table_caches_final_allocation_times() {
        use std::cell::Cell;
        let dag = chain(4);
        let calls = Cell::new(0usize);
        let tau = |_t: TaskId, p: usize| {
            calls.set(calls.get() + 1);
            8.0 / p as f64
        };
        let mut engine = AllocationEngine::new();
        let np = engine.allocate(&dag, 8, &CPA_CFG, tau);
        // Every (task, p) point is evaluated at most once...
        assert!(calls.get() <= dag.len() * CPA_CFG.max_procs);
        // ...and the final-allocation values are retrievable without
        // re-entering the model.
        for t in dag.task_ids() {
            let cached = engine.tau_table().cached(t, np[t.index()]).unwrap();
            assert_eq!(cached, 8.0 / np[t.index()] as f64);
        }
        assert_eq!(engine.tau_table().cached(TaskId(0), 0), None);
        assert_eq!(engine.tau_table().cached(TaskId(99), 1), None);
    }

    #[test]
    fn allocations_never_exceed_caps() {
        let dag = fork(4);
        for max in [1usize, 2, 5] {
            let cfg = AllocationConfig {
                rule: SelectionRule::AbsoluteGain,
                budget: LevelBudget::Unbounded,
                stop: StopRule::GlobalArea,
                max_procs: max,
            };
            let np = allocate(&dag, 32, &cfg, |_t, p| 100.0 / p as f64);
            assert!(np.iter().all(|&p| p >= 1 && p <= max), "{np:?}");
        }
    }
}
