//! The experiment grid runner.
//!
//! Reproduces the paper's §V-A methodology over the 54-DAG corpus:
//! for every DAG, every simulator version (analytic / profile / empirical)
//! and both algorithms (HCPA, MCPA), compute the schedule *under that
//! simulator's model*, record the simulated makespan, then execute the
//! schedule on the emulated testbed and record the measured makespan.
//!
//! The profile and empirical models are instantiated from testbed
//! measurements first — brute-force profiling for §VI, sparse sampling +
//! regression for §VII — exactly the order of operations the authors
//! followed.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use mps_core::dag::gen::{paper_corpus, GeneratedDag, PAPER_CORPUS_SEED};
use mps_core::faults::io::IoEnv;
use mps_core::faults::{DisturbReport, DisturbancePlan, FaultPlan, RecoveryPolicy};
use mps_core::journal::RunControl;
use mps_core::model::{EmpiricalModel, PerfModel, ProfileModel};
use mps_core::platform::{Cluster, ClusterSpec, HostId};
use mps_core::sched::{AllocKey, AllocationEngine, Schedule, Scheduler};
use mps_core::sim::{DisturbSetup, ExecError, ExecPolicy, ExecSlab, Simulator};
use mps_core::testbed::{
    build_profile_model, fit_empirical_model, paper_kernels, ProfilingConfig, Testbed,
};

use crate::report::{AttemptOutcome, CrashReport, FailureKind};

/// The three simulator versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimVariant {
    /// §IV: purely analytical models.
    Analytic,
    /// §VI: brute-force measured profiles.
    Profile,
    /// §VII: sparse-sample regression models.
    Empirical,
}

impl SimVariant {
    /// All three, in paper order.
    pub const ALL: [SimVariant; 3] = [
        SimVariant::Analytic,
        SimVariant::Profile,
        SimVariant::Empirical,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SimVariant::Analytic => "analytic",
            SimVariant::Profile => "profile",
            SimVariant::Empirical => "empirical",
        }
    }
}

/// Timed platform disturbances applied to every testbed execution of a
/// grid, plus the reaction to crashes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbConfig {
    /// The scripted disturbance plan (crashes, slow and degrade windows).
    pub plan: DisturbancePlan,
    /// What happens when a crash strands unfinished tasks.
    pub recovery: RecoveryPolicy,
    /// Virtual-time cost of one re-plan, charged to every re-planned
    /// task before it may relaunch.
    pub rescue_overhead: f64,
}

/// Default virtual-time cost of a rescue re-plan (seconds) — on the
/// order of one warm scheduling pass.
pub const DEFAULT_RESCUE_OVERHEAD: f64 = 0.25;

impl DisturbConfig {
    /// A config with the default re-plan cost.
    pub fn new(plan: DisturbancePlan, recovery: RecoveryPolicy) -> Self {
        DisturbConfig {
            plan,
            recovery,
            rescue_overhead: DEFAULT_RESCUE_OVERHEAD,
        }
    }
}

/// How a grid cell fared: healthy, slowed by faults, or lost entirely.
///
/// A failed cell is *recorded*, not fatal — the rest of the grid still
/// completes, and reports can show how many verdict data points survive a
/// given fault intensity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum CellOutcome {
    /// All testbed runs completed without retries or losses.
    #[default]
    Full,
    /// Some runs were lost and/or tasks had to be retried; the recorded
    /// makespan averages the surviving runs.
    Degraded {
        /// Testbed runs that ended in a typed execution error.
        failed_runs: usize,
        /// Total task retries summed over the surviving runs.
        retries: u32,
    },
    /// Timed platform disturbances fired during the cell's testbed runs;
    /// the recorded makespan averages the surviving runs and the report
    /// tallies what fired and what the recovery ladder did about it.
    Disturbed {
        /// Testbed runs that ended in a typed execution error.
        failed_runs: usize,
        /// Total task retries summed over the surviving runs.
        retries: u32,
        /// Fired-disturbance and recovery counters, summed over repeats.
        report: DisturbReport,
    },
    /// Every testbed run failed; `real_makespan` is 0 and the cell
    /// carries the first error instead of a measurement.
    Failed {
        /// Display form of the first error encountered.
        error: String,
    },
    /// The cell panicked and `run_cell_caught` recorded the panic.
    Crashed {
        /// What happened, attempt by attempt.
        report: CrashReport,
    },
    /// The cell ran past its wall-clock limit ([`CELL_WALL_LIMIT`], or
    /// the grid's own earlier deadline) and its testbed run was stopped.
    TimedOut {
        /// What happened, attempt by attempt.
        report: CrashReport,
    },
    /// The cell failed more than once (crashes and/or timeouts) in child
    /// worker processes. Only journals written while cells could run in
    /// child processes hold it; `--resume` skips it like any other record.
    Quarantined {
        /// Every failed attempt, in order.
        report: CrashReport,
    },
}

impl CellOutcome {
    /// Short machine-readable label (CSV / summaries).
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Full => "full",
            CellOutcome::Degraded { .. } => "degraded",
            CellOutcome::Disturbed { .. } => "disturbed",
            CellOutcome::Failed { .. } => "failed",
            CellOutcome::Crashed { .. } => "crashed",
            CellOutcome::TimedOut { .. } => "timed-out",
            CellOutcome::Quarantined { .. } => "quarantined",
        }
    }

    /// The crash report of a crashed, timed-out or quarantined cell.
    pub fn crash_report(&self) -> Option<&CrashReport> {
        match self {
            CellOutcome::Crashed { report }
            | CellOutcome::TimedOut { report }
            | CellOutcome::Quarantined { report } => Some(report),
            _ => None,
        }
    }

    /// Typed outcome from a crash report: [`CellOutcome::Quarantined`]
    /// once more than one attempt was burned, otherwise the single
    /// attempt's own kind.
    pub fn from_report(report: CrashReport) -> CellOutcome {
        if report.attempt_count() > 1 {
            CellOutcome::Quarantined { report }
        } else {
            match report.final_kind() {
                Some(FailureKind::TimedOut) => CellOutcome::TimedOut { report },
                _ => CellOutcome::Crashed { report },
            }
        }
    }
}

/// One grid cell: a (DAG, simulator version, algorithm) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// DAG name (`w4-r0.75-n2000-s1`).
    pub dag: String,
    /// Matrix size of the DAG.
    pub n: usize,
    /// Simulator version.
    pub variant: SimVariant,
    /// Algorithm name.
    pub algo: String,
    /// Simulated makespan (seconds).
    pub sim_makespan: f64,
    /// Measured makespan on the testbed (mean over surviving repeats,
    /// seconds; 0 when the cell failed outright).
    pub real_makespan: f64,
    /// Individual surviving testbed runs.
    pub real_runs: Vec<f64>,
    /// Whether the cell is healthy, degraded, or failed.
    #[serde(default)]
    pub outcome: CellOutcome,
}

/// Sentinel returned by [`CellResult::error_pct`] for cells without a
/// usable real measurement (failed cells, zero/degenerate makespans).
/// Real errors are always ≥ 0, so the sentinel is unambiguous and —
/// unlike the `inf`/NaN a naive division produces — cannot silently leak
/// into rank statistics, medians, or CSV exports.
pub const ERROR_PCT_SENTINEL: f64 = -1.0;

impl CellResult {
    /// Absolute relative simulation error in percent (the Fig. 8 metric),
    /// or [`ERROR_PCT_SENTINEL`] when the cell has no usable measurement.
    pub fn error_pct(&self) -> f64 {
        self.error_pct_checked().unwrap_or(ERROR_PCT_SENTINEL)
    }

    /// [`CellResult::error_pct`] as an `Option`: `None` for failed cells
    /// and for degenerate (zero, negative, or non-finite) makespans.
    /// Statistics over a grid should `filter_map` through this so
    /// degraded cells drop out instead of poisoning the distribution.
    pub fn error_pct_checked(&self) -> Option<f64> {
        if !self.succeeded()
            || !self.real_makespan.is_finite()
            || self.real_makespan <= 0.0
            || !self.sim_makespan.is_finite()
        {
            return None;
        }
        let e = mps_core::stats::abs_relative_error_pct(self.sim_makespan, self.real_makespan);
        e.is_finite().then_some(e)
    }

    /// Whether the cell produced at least one real measurement.
    pub fn succeeded(&self) -> bool {
        !matches!(
            self.outcome,
            CellOutcome::Failed { .. }
                | CellOutcome::Crashed { .. }
                | CellOutcome::TimedOut { .. }
                | CellOutcome::Quarantined { .. }
        )
    }

    /// This cell's deterministic journal key (see [`cell_key`]).
    pub fn key(&self, repeats: u64) -> String {
        cell_key(&self.dag, self.n, self.variant, &self.algo, repeats)
    }
}

/// Deterministic journal key of a grid cell:
/// `<dag>/n<N>/<variant>/<algo>/r<repeats>`. The repeat count forms the
/// key's *repeat block* — all testbed repeats of a cell fold into one
/// journal record, and journals written with different repeat counts
/// never alias.
pub fn cell_key(dag: &str, n: usize, variant: SimVariant, algo: &str, repeats: u64) -> String {
    format!("{dag}/n{n}/{}/{algo}/r{repeats}", variant.name())
}

/// What a poison rule does to a matching cell: test instrumentation that
/// makes a cell misbehave on demand, deterministically.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonAction {
    /// Panic inside cell computation (a deterministic crasher).
    Panic,
}

/// Makes every cell whose [`cell_key`] contains `needle` misbehave.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonRule {
    /// Substring matched against the cell key.
    pub needle: String,
    /// What a matching cell does.
    pub action: PoisonAction,
}

/// The wall-clock limit of one cell, counted from the cell's start. A
/// healthy cell takes milliseconds (the whole 324-cell grid runs in well
/// under a second), so the limit only ends cells that cannot end on their
/// own, such as a fault plan whose retries never succeed. Every testbed
/// run of the cell gets the limit as its DES watchdog's wall deadline
/// (the grid's own wall deadline wins when it is earlier), and a run the
/// deadline stops ends the cell as [`CellOutcome::TimedOut`].
pub const CELL_WALL_LIMIT: Duration = Duration::from_secs(120);

/// Everything that can go wrong in a grid's cells. Built once per grid —
/// from the harness, a sweep point or a daemon request — and lent to
/// every cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hazards {
    /// Fault plan injected into every testbed execution.
    pub fault_plan: Option<FaultPlan>,
    /// Timed platform disturbances and the reaction to crashes.
    pub disturb: Option<DisturbConfig>,
    /// Retry/backoff/watchdog policy.
    pub policy: ExecPolicy,
    /// Cells whose key matches misbehave on purpose.
    #[doc(hidden)]
    pub poison: Vec<PoisonRule>,
}

impl Hazards {
    /// Digest of the hazards, recorded as a journal header's
    /// `config_digest`. `Debug` formatting is deterministic, so equal
    /// hazards digest equally and a resume under a different fault plan
    /// is rejected instead of silently mixing result sets.
    pub fn digest(&self) -> String {
        let mut desc = format!("{:?}|{:?}", self.fault_plan, self.policy);
        // Appended only when present, so journals from before poison rules
        // existed keep their digests.
        if !self.poison.is_empty() {
            desc.push_str(&format!("|{:?}", self.poison));
        }
        // Same append-when-present rule for the disturbance config.
        if let Some(d) = &self.disturb {
            desc.push_str(&format!("|{d:?}"));
        }
        format!("{:016x}", mps_core::journal::fnv64(desc.as_bytes()))
    }
}

/// The harness: testbed + the three instantiated models.
pub struct Harness {
    /// The emulated execution environment.
    pub testbed: Testbed,
    /// §VI model, built from brute-force profiling.
    pub profile_model: ProfileModel,
    /// §VII model, fitted from sparse samples.
    pub empirical_model: EmpiricalModel,
    /// Profiling configuration used for both instantiations.
    pub profiling: ProfilingConfig,
    /// Optional fault plan injected into every testbed execution.
    pub fault_plan: Option<FaultPlan>,
    /// Optional timed platform disturbances (crashes, slow/degrade
    /// windows) applied to every testbed execution, with the recovery
    /// reaction. Composes with `fault_plan`.
    pub disturb: Option<DisturbConfig>,
    /// Retry/backoff/watchdog policy for testbed executions.
    pub policy: ExecPolicy,
    /// Poison rules: cells whose key matches misbehave on purpose (test
    /// instrumentation).
    #[doc(hidden)]
    pub poison: Vec<PoisonRule>,
    /// The I/O environment every durability path (journals, manifests)
    /// goes through — [`RealIo`](mps_core::faults::io::RealIo) in
    /// production, a seeded [`ChaosIo`](mps_core::faults::io::ChaosIo)
    /// under chaos testing or a fault plan's `io:` clause. Not part of
    /// the config digest: the env changes the disk's physics, never the
    /// computed results.
    io_env: Arc<dyn IoEnv>,
    /// The nominal (paper-spec) cluster every simulator schedules
    /// against — built once instead of per cell.
    nominal: Cluster,
    /// Process-unique harness id, namespacing this harness's
    /// [`AllocKey`]s so thread-shared worker slabs never mix τ-tables
    /// across harnesses (whose models differ with the testbed seed).
    instance: u64,
}

/// Per-worker reusable scratch for batched grid execution: the warm
/// [`AllocationEngine`] plus one executor slab per cluster — the
/// simulator side runs on the nominal cluster while the testbed runs on
/// its derated ground-truth cluster, and separate slabs keep both L07
/// networks warm instead of rebuilding one on every alternation.
///
/// Reuse is bit-identical by construction: the engine resets its
/// per-allocation state on every call, and the executor slab resets the
/// DES engine before every run (activity ids restart at zero), so a warm
/// slab behaves exactly like a fresh one.
#[derive(Default)]
pub struct WorkerSlab {
    engine: AllocationEngine,
    sim_slab: ExecSlab,
    testbed_slab: ExecSlab,
}

impl WorkerSlab {
    /// A fresh (cold) slab; buffers grow over the first cells.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Harness {
    /// Builds the harness: spins up the testbed and instantiates the
    /// refined models from measurements.
    pub fn new(seed: u64) -> Self {
        Self::with_testbed(Testbed::bayreuth(seed))
    }

    /// A harness over an explicit testbed (custom ground truth — used by
    /// the ablation studies).
    pub fn with_testbed(testbed: Testbed) -> Self {
        let profiling = ProfilingConfig::default();
        let kernels = paper_kernels();
        let profile_model = build_profile_model(&testbed, &kernels, &profiling)
            .expect("profiling the paper kernels cannot fail");
        let empirical_model = fit_empirical_model(&testbed, &kernels, &profiling)
            .expect("fitting the paper kernels cannot fail");
        static INSTANCES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let nominal = testbed.nominal_cluster();
        Harness {
            testbed,
            profile_model,
            empirical_model,
            profiling,
            fault_plan: None,
            disturb: None,
            policy: ExecPolicy::default(),
            poison: Vec::new(),
            io_env: Arc::new(mps_core::faults::io::RealIo),
            nominal,
            instance: INSTANCES.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The nominal (paper-spec) cluster simulators schedule against.
    pub fn nominal_cluster(&self) -> &Cluster {
        &self.nominal
    }

    /// Injects a fault plan into every subsequent testbed execution. An
    /// empty plan is dropped entirely. A plan with an `io:` clause also
    /// routes every durability path through a [`ChaosIo`] seeded with the
    /// plan's seed.
    ///
    /// [`ChaosIo`]: mps_core::faults::io::ChaosIo
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if !plan.io.is_empty() {
            self.io_env = Arc::new(mps_core::faults::io::ChaosIo::new(
                plan.seed,
                plan.io.clone(),
            ));
        }
        self.fault_plan = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Injects timed platform disturbances into every subsequent testbed
    /// execution. An empty plan is dropped entirely, so a zero-intensity
    /// config leaves the config digest and every cell unchanged.
    pub fn with_disturbance(mut self, cfg: DisturbConfig) -> Self {
        self.disturb = (!cfg.plan.is_empty()).then_some(cfg);
        self
    }

    /// Sets the retry/backoff/watchdog policy for testbed executions.
    pub fn with_exec_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs poison rules (see [`PoisonRule`]): test instrumentation.
    #[doc(hidden)]
    pub fn with_poison(mut self, rules: Vec<PoisonRule>) -> Self {
        self.poison = rules;
        self
    }

    /// The harness's own hazards, which the public grid entry points use.
    pub fn hazards(&self) -> Hazards {
        Hazards {
            fault_plan: self.fault_plan.clone(),
            disturb: self.disturb.clone(),
            policy: self.policy,
            poison: self.poison.clone(),
        }
    }

    /// Routes every durability path (journal appends, manifest writes,
    /// recovery reads) through `env` — the chaos-testing seam.
    pub fn with_io_env(mut self, env: Arc<dyn IoEnv>) -> Self {
        self.io_env = env;
        self
    }

    /// The I/O environment this harness journals through.
    pub fn io_env(&self) -> &Arc<dyn IoEnv> {
        &self.io_env
    }

    /// The paper's DAG corpus — generated once per process and shared
    /// (the corpus is a pure function of [`PAPER_CORPUS_SEED`], so every
    /// harness, grid entry point, and daemon request reads the same
    /// `Arc` instead of regenerating all 54 DAGs).
    pub fn corpus(&self) -> Arc<Vec<GeneratedDag>> {
        static CORPUS: OnceLock<Arc<Vec<GeneratedDag>>> = OnceLock::new();
        Arc::clone(CORPUS.get_or_init(|| Arc::new(paper_corpus(PAPER_CORPUS_SEED))))
    }

    /// Runs `f` with this thread's warm [`WorkerSlab`]. One slab per OS
    /// thread: grid workers and daemon executors reuse their thread's
    /// slab across cells and grids.
    fn with_worker_slab<R>(f: impl FnOnce(&mut WorkerSlab) -> R) -> R {
        thread_local! {
            static SLAB: std::cell::RefCell<WorkerSlab> =
                std::cell::RefCell::new(WorkerSlab::new());
        }
        SLAB.with(|s| f(&mut s.borrow_mut()))
    }

    /// The [`AllocKey`] under which `(dag, variant)` cells of this
    /// harness share the engine's τ-table (HCPA and MCPA of one cell use
    /// the same model, so τ transfers across the algorithm pair).
    fn alloc_key(&self, g: &GeneratedDag, variant: SimVariant) -> AllocKey {
        let vidx = match variant {
            SimVariant::Analytic => 0u64,
            SimVariant::Profile => 1,
            SimVariant::Empirical => 2,
        };
        AllocKey {
            dag: mps_core::journal::fnv64(g.name().as_bytes()),
            model: self.instance.wrapping_mul(4).wrapping_add(vidx),
        }
    }

    /// Runs the testbed repeats of one cell and folds them into its
    /// outcome. Every run goes through the disturbed entry point; without
    /// a disturbance config the plan is empty. The rescue re-planner
    /// schedules the whole DAG onto an m-node sub-cluster with the cell's
    /// own model and algorithm (using the caller's warm allocation engine),
    /// then maps host `j` back to survivor `j` — the rescue schedule is in
    /// original host-id space, placed only on survivors.
    /// Every run's watchdog carries the cell's wall deadline, counted
    /// from `start` (see [`CELL_WALL_LIMIT`]).
    #[allow(clippy::too_many_arguments)]
    fn run_repeats(
        &self,
        testbed_slab: &mut ExecSlab,
        engine: &mut AllocationEngine,
        cell: &mut CellResult,
        g: &GeneratedDag,
        algo: &dyn Scheduler,
        schedule: &Schedule,
        repeats: u64,
        hazards: &Hazards,
        start: Instant,
    ) {
        let undisturbed = DisturbConfig::new(DisturbancePlan::none(), RecoveryPolicy::FailFast);
        let cfg = hazards.disturb.as_ref().unwrap_or(&undisturbed);
        let mut watchdog = hazards.policy.watchdog.unwrap_or_default();
        let limit = start + CELL_WALL_LIMIT;
        let deadline = watchdog.wall_deadline.map_or(limit, |d| d.min(limit));
        watchdog.wall_deadline = Some(deadline);
        let policy = ExecPolicy {
            watchdog: Some(watchdog),
            ..hazards.policy
        };
        let mut failed_runs = 0usize;
        let mut retries = 0u32;
        let mut report = DisturbReport::default();
        let mut first_error: Option<String> = None;
        let variant = cell.variant;
        for r in 0..repeats.max(1) {
            let run_seed = g.seed.wrapping_add(r);
            let mut replan = |survivors: &[HostId]| -> Option<Schedule> {
                let mut spec = ClusterSpec::bayreuth();
                spec.nodes = survivors.len();
                let sub = spec.build().ok()?;
                let model = self.model_of(variant);
                let mut s = algo.schedule_with_engine(&g.dag, &sub, model.as_ref(), engine);
                for st in &mut s.tasks {
                    for h in &mut st.hosts {
                        *h = survivors[h.index()];
                    }
                }
                Some(s)
            };
            let run = self.testbed.execute_disturbed_prevalidated_with_slab(
                testbed_slab,
                &g.dag,
                schedule,
                run_seed,
                hazards.fault_plan.as_ref(),
                &policy,
                DisturbSetup {
                    plan: &cfg.plan,
                    recovery: cfg.recovery,
                    rescue_overhead: cfg.rescue_overhead,
                    replan: Some(&mut replan),
                },
                &mut report,
            );
            match run {
                Ok(res) => {
                    retries += res.total_retries();
                    cell.real_runs.push(res.makespan);
                }
                Err(ExecError::Timeout { .. }) if Instant::now() >= deadline => {
                    let timeout = deadline.saturating_duration_since(start);
                    let report = CrashReport::single(
                        AttemptOutcome::TimedOut {
                            timeout_ms: timeout.as_millis() as u64,
                        },
                        start.elapsed().as_millis() as u64,
                    );
                    *cell = CellResult {
                        outcome: CellOutcome::from_report(report),
                        ..blank_cell(g, variant, algo)
                    };
                    return;
                }
                Err(e) => {
                    failed_runs += 1;
                    first_error.get_or_insert_with(|| e.to_string());
                }
            }
        }
        Self::fold_outcome(cell, failed_runs, retries, report, first_error);
    }

    /// Folds the testbed-side tallies of one cell into its outcome:
    /// [`CellOutcome::Disturbed`] once any disturbance fired, else the
    /// pre-disturbance `Full`/`Degraded`/`Failed` ladder — so grids
    /// without a disturbance config produce byte-identical outcomes to
    /// builds that predate the subsystem.
    fn fold_outcome(
        cell: &mut CellResult,
        failed_runs: usize,
        retries: u32,
        report: DisturbReport,
        first_error: Option<String>,
    ) {
        if cell.real_runs.is_empty() {
            cell.outcome = CellOutcome::Failed {
                error: first_error.unwrap_or_else(|| "no runs".into()),
            };
            return;
        }
        cell.real_makespan = cell.real_runs.iter().sum::<f64>() / cell.real_runs.len() as f64;
        if report.fired() > 0 || report.rescues > 0 {
            cell.outcome = CellOutcome::Disturbed {
                failed_runs,
                retries,
                report,
            };
        } else if failed_runs > 0 || retries > 0 {
            cell.outcome = CellOutcome::Degraded {
                failed_runs,
                retries,
            };
        }
    }

    /// Computes one grid cell on this thread's warm [`WorkerSlab`] — the
    /// batched hot path, bit-identical to the cold per-cell reference path
    /// (`mps_oracle::reference_cell`) for any slab history (every reused
    /// component resets per run).
    /// `hazards` are the grid's, borrowed for every cell; `start` is the
    /// cell's start, which its wall deadline counts from. A panicking cell
    /// unwinds out of here.
    fn run_cell(
        &self,
        g: &GeneratedDag,
        variant: SimVariant,
        algo: &dyn Scheduler,
        repeats: u64,
        hazards: &Hazards,
        start: Instant,
    ) -> CellResult {
        let key = cell_key(
            &g.name(),
            g.params.matrix_size,
            variant,
            algo.name(),
            repeats,
        );
        for rule in &hazards.poison {
            if key.contains(&rule.needle) {
                match rule.action {
                    PoisonAction::Panic => panic!("poison cell {key}: forced panic"),
                }
            }
        }
        let mut cell = blank_cell(g, variant, algo);
        Self::with_worker_slab(|slab| {
            // Schedule + simulate under the cell's model, reusing the warm
            // engine (keyed: HCPA pre-pays MCPA's τ-table on the same DAG
            // and model) and the simulator-side executor slab. A simulator
            // construction per cell clones the nominal cluster spec, not
            // the profile tables / fitted curves (the `&M` blanket
            // `PerfModel` impl makes borrowed models free to "clone").
            let alloc_key = self.alloc_key(g, variant);
            let engine = &mut slab.engine;
            let sim_slab = &mut slab.sim_slab;
            let sim_out = match variant {
                SimVariant::Analytic => Simulator::new(
                    self.nominal.clone(),
                    mps_core::model::AnalyticModel::paper_jvm(),
                )
                .schedule_and_simulate_keyed(&g.dag, algo, alloc_key, engine, sim_slab),
                SimVariant::Profile => Simulator::new(self.nominal.clone(), &self.profile_model)
                    .schedule_and_simulate_keyed(&g.dag, algo, alloc_key, engine, sim_slab),
                SimVariant::Empirical => {
                    Simulator::new(self.nominal.clone(), &self.empirical_model)
                        .schedule_and_simulate_keyed(&g.dag, algo, alloc_key, engine, sim_slab)
                }
            };
            let schedule = match sim_out {
                Ok(out) => {
                    cell.sim_makespan = out.result.makespan;
                    out.schedule
                }
                Err(e) => {
                    cell.outcome = CellOutcome::Failed {
                        error: format!("simulation: {e}"),
                    };
                    return;
                }
            };
            // The simulate step above already validated the schedule
            // against the nominal cluster, and `Schedule::validate` only
            // consults the node count — which the derated testbed cluster
            // shares — so the testbed runs skip re-validation.
            self.run_repeats(
                &mut slab.testbed_slab,
                &mut slab.engine,
                &mut cell,
                g,
                algo,
                &schedule,
                repeats,
                hazards,
                start,
            );
        });
        cell
    }

    /// [`Harness::run_cell`] under a `catch_unwind` safety net: a
    /// panicking cell becomes a [`CellOutcome::Crashed`] record instead of
    /// tearing down the whole worker pool. With the cell's wall deadline
    /// (see [`CELL_WALL_LIMIT`]) it bounds every cell: the cell ends, as a
    /// measurement or as a typed record, whatever it runs into.
    pub(crate) fn run_cell_caught(
        &self,
        g: &GeneratedDag,
        variant: SimVariant,
        algo: &dyn Scheduler,
        repeats: u64,
        hazards: &Hazards,
    ) -> CellResult {
        let start = Instant::now();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_cell(g, variant, algo, repeats, hazards, start)
        })) {
            Ok(cell) => cell,
            Err(payload) => CellResult {
                outcome: CellOutcome::from_report(CrashReport::single(
                    AttemptOutcome::Panicked {
                        message: panic_message(payload.as_ref()),
                    },
                    start.elapsed().as_millis() as u64,
                )),
                ..blank_cell(g, variant, algo)
            },
        }
    }

    /// Worker-pool size used when the caller does not pin one.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }

    /// The [`Hazards::digest`] of the harness's own hazards, which the
    /// public grid entry points record in their journal headers.
    pub fn config_digest(&self) -> String {
        self.hazards().digest()
    }

    /// Runs the full grid (54 DAGs × 3 variants × {HCPA, MCPA}),
    /// parallelized over DAGs.
    pub fn run_grid(&self, repeats: u64) -> Vec<CellResult> {
        self.run_grid_with_workers(repeats, Self::default_workers())
    }

    /// [`Harness::run_grid`] with an explicit worker count (determinism
    /// tests, CI throttling). One worker runs on the calling thread.
    pub fn run_grid_with_workers(&self, repeats: u64, workers: usize) -> Vec<CellResult> {
        self.run_in_memory(None, repeats, workers)
    }

    /// Runs the grid for a subset of the corpus (for tests and quick
    /// looks), parallelized like [`Harness::run_grid`].
    pub fn run_subset(&self, take: usize, repeats: u64) -> Vec<CellResult> {
        self.run_subset_with_workers(take, repeats, Self::default_workers())
    }

    /// [`Harness::run_subset`] with an explicit worker count.
    pub fn run_subset_with_workers(
        &self,
        take: usize,
        repeats: u64,
        workers: usize,
    ) -> Vec<CellResult> {
        self.run_in_memory(Some(take), repeats, workers)
    }

    /// The grid with no journal and no client: the driver's cells, in
    /// canonical (dag, variant, algo) order for any worker count.
    fn run_in_memory(&self, take: Option<usize>, repeats: u64, workers: usize) -> Vec<CellResult> {
        let ctrl = RunControl::unlimited();
        self.run_in_process(self.hazards(), take, repeats, workers, None, &ctrl)
            .expect("a grid with no journal cannot fail")
            .cells
    }

    /// Computes one schedule (no simulation, no testbed execution) with
    /// the warm per-thread engine — the daemon's `Schedule` request.
    pub(crate) fn schedule_only(
        &self,
        g: &GeneratedDag,
        variant: SimVariant,
        algo: &dyn Scheduler,
    ) -> Result<mps_core::sched::Schedule, String> {
        let model = self.model_of(variant);
        let schedule = Self::with_worker_slab(|slab| {
            algo.schedule_with_engine(&g.dag, &self.nominal, model.as_ref(), &mut slab.engine)
        });
        schedule
            .validate(&g.dag, &self.nominal)
            .map_err(|e| format!("schedule validation: {e:?}"))?;
        Ok(schedule)
    }

    /// Returns the model for a variant as a trait object (for reporting).
    pub fn model_of(&self, variant: SimVariant) -> Box<dyn PerfModel + '_> {
        match variant {
            SimVariant::Analytic => Box::new(mps_core::model::AnalyticModel::paper_jvm()),
            SimVariant::Profile => Box::new(&self.profile_model),
            SimVariant::Empirical => Box::new(&self.empirical_model),
        }
    }
}

/// A cell of `g` under `variant` and `algo` with no measurement yet.
pub(crate) fn blank_cell(
    g: &GeneratedDag,
    variant: SimVariant,
    algo: &dyn Scheduler,
) -> CellResult {
    CellResult {
        dag: g.name(),
        n: g.params.matrix_size,
        variant,
        algo: algo.name().to_string(),
        sim_makespan: 0.0,
        real_makespan: 0.0,
        real_runs: Vec::new(),
        outcome: CellOutcome::Full,
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cells per DAG in the grid: 3 variants × {HCPA, MCPA}.
pub(crate) const CELLS_PER_DAG: usize = SimVariant::ALL.len() * 2;

/// Canonical grid order: by dag name, then variant, then algo — the
/// order every grid API returns regardless of worker count or resume
/// history.
pub(crate) fn sort_cells_canonical(cells: &mut [CellResult]) {
    cells.sort_by(|a, b| {
        a.dag
            .cmp(&b.dag)
            .then_with(|| a.variant.name().cmp(b.variant.name()))
            .then_with(|| a.algo.cmp(&b.algo))
    });
}

/// Pairs HCPA/MCPA cells per DAG for one variant, yielding
/// `(dag, n, rel_sim, rel_real)` — the Figures 1/5/7 data.
pub fn paired_relative_makespans(
    cells: &[CellResult],
    variant: SimVariant,
    n: usize,
) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    let hcpa: Vec<&CellResult> = cells
        .iter()
        .filter(|c| c.variant == variant && c.n == n && c.algo == "HCPA" && c.succeeded())
        .collect();
    for h in hcpa {
        if let Some(m) = cells
            .iter()
            .find(|c| c.variant == variant && c.dag == h.dag && c.algo == "MCPA" && c.succeeded())
        {
            let rel_sim = mps_core::stats::relative_makespan(h.sim_makespan, m.sim_makespan);
            let rel_real = mps_core::stats::relative_makespan(h.real_makespan, m.real_makespan);
            out.push((h.dag.clone(), rel_sim, rel_real));
        }
    }
    // The paper sorts DAGs by increasing simulated relative makespan.
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
    out
}

/// Per-grid fault/degradation tally for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GridHealth {
    /// Cells whose every run completed cleanly.
    pub full: usize,
    /// Cells that lost runs or needed retries but still measured.
    pub degraded: usize,
    /// Cells where timed platform disturbances fired but a measurement
    /// survived.
    pub disturbed: usize,
    /// Rescue re-plans triggered across the grid.
    pub rescues: u64,
    /// Tasks adopted by a rescue re-plan across the grid.
    pub rescued_tasks: u64,
    /// Host crashes fired across the grid.
    pub crashes: u64,
    /// Cells with no surviving measurement.
    pub failed: usize,
    /// Cells that crashed, timed out, or were quarantined.
    pub quarantined: usize,
    /// Total task retries across the grid.
    pub retries: u32,
    /// Total testbed runs lost across degraded cells.
    pub lost_runs: usize,
}

/// The grid as CSV, one row per cell with its outcome label, for
/// spreadsheet and R users.
pub fn grid_csv(cells: &[CellResult]) -> String {
    let mut csv = String::from("dag,n,variant,algo,sim_makespan,real_makespan,error_pct,outcome\n");
    for c in cells {
        csv.push_str(&format!(
            "{},{},{},{},{:.6},{:.6},{:.3},{}\n",
            c.dag,
            c.n,
            c.variant.name(),
            c.algo,
            c.sim_makespan,
            c.real_makespan,
            c.error_pct(),
            c.outcome.label()
        ));
    }
    csv
}

/// The `# `-prefixed stderr notes on a finished grid: a disturbance tally
/// when `disturb_injected` or any cell was disturbed, and a health tally
/// plus one line per failed or crashed cell when `faults_injected` or any
/// cell degraded, failed or was quarantined. Empty for a clean grid.
pub fn health_notes(cells: &[CellResult], faults_injected: bool, disturb_injected: bool) -> String {
    use std::fmt::Write as _;
    let h = grid_health(cells);
    let mut out = String::new();
    if disturb_injected || h.disturbed > 0 {
        let _ = writeln!(
            out,
            "# disturbances: {} disturbed cell(s), {} crash(es), {} rescue(s), {} task(s) rescued",
            h.disturbed, h.crashes, h.rescues, h.rescued_tasks
        );
    }
    if h.degraded + h.failed + h.quarantined == 0 && !faults_injected {
        return out;
    }
    let _ = writeln!(
        out,
        "# grid health: {} full, {} degraded ({} retries, {} lost runs), {} failed, {} quarantined cells",
        h.full, h.degraded, h.retries, h.lost_runs, h.failed, h.quarantined
    );
    for c in cells.iter().filter(|c| !c.succeeded()) {
        let cell = format!("{}/{}/{}", c.dag, c.variant.name(), c.algo);
        if let CellOutcome::Failed { error } = &c.outcome {
            let _ = writeln!(out, "#   failed: {cell}: {error}");
        } else if let Some(report) = c.outcome.crash_report() {
            let _ = writeln!(
                out,
                "#   {}: {cell}: {}",
                c.outcome.label(),
                report.summary()
            );
        }
    }
    out
}

/// Tallies cell outcomes over a finished grid.
pub fn grid_health(cells: &[CellResult]) -> GridHealth {
    let mut h = GridHealth::default();
    for c in cells {
        match &c.outcome {
            CellOutcome::Full => h.full += 1,
            CellOutcome::Degraded {
                failed_runs,
                retries,
            } => {
                h.degraded += 1;
                h.retries += retries;
                h.lost_runs += failed_runs;
            }
            CellOutcome::Disturbed {
                failed_runs,
                retries,
                report,
            } => {
                h.disturbed += 1;
                h.retries += retries;
                h.lost_runs += failed_runs;
                h.rescues += report.rescues;
                h.rescued_tasks += report.rescued_tasks;
                h.crashes += report.crashes;
            }
            CellOutcome::Failed { .. } => h.failed += 1,
            CellOutcome::Crashed { .. }
            | CellOutcome::TimedOut { .. }
            | CellOutcome::Quarantined { .. } => h.quarantined += 1,
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_builds_and_runs_a_subset() {
        let h = Harness::new(2011);
        let cells = h.run_subset(2, 1);
        assert_eq!(cells.len(), 2 * 3 * 2);
        for c in &cells {
            assert!(c.sim_makespan > 0.0);
            assert!(c.real_makespan > 0.0);
            assert!(c.error_pct().is_finite());
        }
    }

    #[test]
    fn refined_variants_have_lower_error_than_analytic() {
        let h = Harness::new(2011);
        let cells = h.run_subset(4, 1);
        let mean_err = |v: SimVariant| -> f64 {
            let errs: Vec<f64> = cells
                .iter()
                .filter(|c| c.variant == v)
                .map(CellResult::error_pct)
                .collect();
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let analytic = mean_err(SimVariant::Analytic);
        let profile = mean_err(SimVariant::Profile);
        let empirical = mean_err(SimVariant::Empirical);
        assert!(
            profile < analytic,
            "profile {profile}% should beat analytic {analytic}%"
        );
        assert!(
            empirical < analytic,
            "empirical {empirical}% should beat analytic {analytic}%"
        );
        assert!(profile < 15.0, "profile error {profile}% (paper: <10%)");
    }

    #[test]
    fn paired_relative_makespans_cover_the_n2000_half() {
        let h = Harness::new(2011);
        let cells = h.run_subset(6, 1);
        let n2000: usize = cells
            .iter()
            .filter(|c| c.n == 2000 && c.variant == SimVariant::Analytic && c.algo == "HCPA")
            .count();
        let pairs = paired_relative_makespans(&cells, SimVariant::Analytic, 2000);
        assert_eq!(pairs.len(), n2000);
        // Sorted by simulated relative makespan.
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn grid_runner_is_deterministic() {
        let h = Harness::new(7);
        let a = h.run_subset(2, 2);
        let b = h.run_subset(2, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn grid_results_are_identical_across_worker_counts() {
        let h = Harness::new(7);
        let serial = h.run_subset_with_workers(3, 1, 1);
        for workers in [2, 3, 8] {
            assert_eq!(
                serial,
                h.run_subset_with_workers(3, 1, workers),
                "worker count {workers} changed the grid"
            );
        }
    }

    #[test]
    fn faulty_grid_degrades_gracefully_instead_of_aborting() {
        use mps_core::platform::HostId;
        let plan = FaultPlan::builder(3)
            .node_crash(HostId(0), 0.0, 50.0)
            .task_failure(0.02)
            .build();
        // A tight retry budget so some cells genuinely fail.
        let h = Harness::new(7)
            .with_fault_plan(plan)
            .with_exec_policy(ExecPolicy {
                max_retries: 1,
                ..ExecPolicy::default()
            });
        let cells = h.run_subset(3, 1);
        assert_eq!(cells.len(), 3 * 3 * 2, "every cell is recorded");
        let health = grid_health(&cells);
        assert!(
            health.degraded + health.failed > 0,
            "the crash plan must visibly perturb the grid: {health:?}"
        );
        for c in &cells {
            match &c.outcome {
                CellOutcome::Failed { error } => {
                    assert!(!error.is_empty());
                    assert_eq!(c.real_makespan, 0.0);
                    assert!(c.real_runs.is_empty());
                }
                _ => assert!(c.real_makespan > 0.0),
            }
        }
        // Determinism: the same plan + seed reproduces the same grid.
        let h2 = Harness::new(7)
            .with_fault_plan(
                FaultPlan::builder(3)
                    .node_crash(HostId(0), 0.0, 50.0)
                    .task_failure(0.02)
                    .build(),
            )
            .with_exec_policy(ExecPolicy {
                max_retries: 1,
                ..ExecPolicy::default()
            });
        assert_eq!(cells, h2.run_subset(3, 1));
    }

    #[test]
    fn degenerate_cells_report_the_sentinel_not_inf() {
        let mut cell = CellResult {
            dag: "w2-r0.5-n2000-s0".to_string(),
            n: 2000,
            variant: SimVariant::Analytic,
            algo: "HCPA".to_string(),
            sim_makespan: 40.0,
            real_makespan: 0.0, // failed cell: no surviving measurement
            real_runs: Vec::new(),
            outcome: CellOutcome::Failed {
                error: "all runs lost".to_string(),
            },
        };
        assert_eq!(cell.error_pct(), ERROR_PCT_SENTINEL);
        assert_eq!(cell.error_pct_checked(), None);

        // A zero real makespan must never divide through to inf, even if
        // the outcome claims success.
        cell.outcome = CellOutcome::Full;
        assert_eq!(cell.error_pct(), ERROR_PCT_SENTINEL);
        for bad in [f64::NAN, f64::INFINITY, -3.0] {
            cell.real_makespan = bad;
            assert_eq!(cell.error_pct(), ERROR_PCT_SENTINEL, "real = {bad}");
        }
        cell.real_makespan = 100.0;
        cell.sim_makespan = f64::NAN;
        assert_eq!(cell.error_pct(), ERROR_PCT_SENTINEL);

        // A healthy cell still reports the Fig. 8 metric.
        cell.sim_makespan = 90.0;
        assert!((cell.error_pct() - 10.0).abs() < 1e-12);
        assert_eq!(cell.error_pct_checked(), Some(cell.error_pct()));
        // The sentinel can never collide with a real error.
        assert!(cell.error_pct() >= 0.0 && ERROR_PCT_SENTINEL < 0.0);
    }

    #[test]
    fn cell_keys_are_deterministic_and_journal_safe() {
        let k = cell_key("w4-r0.75-n2000-s1", 2000, SimVariant::Profile, "MCPA", 3);
        assert_eq!(k, "w4-r0.75-n2000-s1/n2000/profile/MCPA/r3");
        assert!(mps_core::journal::format::key_is_valid(&k));
        // Different repeat blocks never alias.
        assert_ne!(
            cell_key("d", 10, SimVariant::Analytic, "HCPA", 1),
            cell_key("d", 10, SimVariant::Analytic, "HCPA", 2)
        );
    }

    #[test]
    fn cell_outcome_survives_a_serde_round_trip() {
        let h = Harness::new(7);
        let mut cells = h.run_subset(1, 1);
        cells[0].outcome = CellOutcome::Degraded {
            failed_runs: 1,
            retries: 4,
        };
        let json = serde_json::to_string(&cells).unwrap();
        let back: Vec<CellResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(cells, back);
    }

    /// Regression: the in-process `catch_unwind` net. A cell that panics
    /// must come back as a typed [`CellOutcome::Crashed`] carrying the
    /// panic message — not tear down the worker pool — and the other
    /// five cells of the DAG must be unaffected.
    #[test]
    fn poisoned_panic_cell_is_caught_as_crashed() {
        let h = Harness::new(7).with_poison(vec![PoisonRule {
            needle: "analytic/HCPA".to_string(),
            action: PoisonAction::Panic,
        }]);
        let cells = h.run_subset(1, 1);
        assert_eq!(cells.len(), 6, "every cell recorded, panic included");
        let crashed: Vec<_> = cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Crashed { .. }))
            .collect();
        assert_eq!(crashed.len(), 1);
        let c = crashed[0];
        assert_eq!((c.variant, c.algo.as_str()), (SimVariant::Analytic, "HCPA"));
        assert!(!c.succeeded());
        assert_eq!(c.error_pct_checked(), None);
        let report = c.outcome.crash_report().unwrap();
        assert_eq!(report.attempt_count(), 1);
        assert!(
            report.summary().contains("forced panic"),
            "panic message must survive into the report: {}",
            report.summary()
        );
        for other in cells
            .iter()
            .filter(|c| c.algo != "HCPA" || c.variant != SimVariant::Analytic)
        {
            assert!(other.succeeded(), "healthy cells unaffected: {other:?}");
        }
        assert_eq!(grid_health(&cells).quarantined, 1);
    }

    #[test]
    fn outcome_from_report_types_by_attempt_count_and_kind() {
        use crate::report::Attempt;
        let crash = AttemptOutcome::Crashed {
            exit_code: Some(101),
            signal: None,
            stderr_tail: String::new(),
        };
        let single = CellOutcome::from_report(CrashReport::single(crash.clone(), 5));
        assert!(matches!(single, CellOutcome::Crashed { .. }));
        let single_timeout = CellOutcome::from_report(CrashReport::single(
            AttemptOutcome::TimedOut { timeout_ms: 10 },
            12,
        ));
        assert!(matches!(single_timeout, CellOutcome::TimedOut { .. }));
        let mut two = CrashReport::default();
        two.attempts.push(Attempt {
            outcome: crash.clone(),
            wall_ms: 5,
        });
        two.attempts.push(Attempt {
            outcome: crash,
            wall_ms: 6,
        });
        let quarantined = CellOutcome::from_report(two);
        assert!(matches!(quarantined, CellOutcome::Quarantined { .. }));
    }
}
