//! Event-driven schedule execution on the L07 platform.
//!
//! Shared by the three simulator versions *and* the emulated testbed: the
//! only difference between them is the [`ExecutionModel`] that supplies
//! task durations and overheads. Execution semantics follow the paper's
//! TGrid module (§III): tasks run in the schedule's order on their assigned
//! processor sets; when a task finishes, its output matrix is redistributed
//! to each successor's processor set (point-to-point transfers computed
//! from the 1-D block overlap); a task starts once
//!
//! 1. it is at the head of the queue of **every** host it uses (hosts
//!    execute their assigned tasks in schedule order), and
//! 2. the redistribution of every predecessor's output has completed.
//!
//! Task startup overhead (JVM spawning) and redistribution protocol
//! overhead (subnet-manager registration) are charged as fixed latencies;
//! data transfers flow through the L07 network model and contend on links.

use mps_dag::{Dag, TaskId};
use mps_des::{EngineError, Watchdog};
use mps_faults::{
    DisturbReport, Disturbance, DisturbancePlan, FaultModel, RecoveryPolicy, TaskDisposition,
};
use mps_kernels::Kernel;
use mps_l07::{L07Error, L07Sim, PTaskCompletion, PTaskId, PTaskSpec};
use mps_platform::{Cluster, HostId};
use mps_sched::Schedule;

use crate::flows::RedistFlows;

/// How one task's execution is simulated.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskExecution {
    /// Analytic: per-rank flop counts and the kernel's internal
    /// communication matrix go through the L07 engine (the §IV simulator).
    Analytic,
    /// A fixed wall-clock duration (profile/empirical models and the
    /// testbed's measured ground truth).
    Fixed(f64),
}

/// Supplies the concrete quantities for one execution run.
///
/// `&mut self` so stochastic environments (the testbed) can draw fresh
/// noise per task.
pub trait ExecutionModel {
    /// Execution mode/duration for a task on its host set.
    fn task_execution(
        &mut self,
        task: TaskId,
        kernel: mps_kernels::Kernel,
        hosts: &[HostId],
    ) -> TaskExecution;

    /// Startup overhead (seconds) charged before the task's execution.
    fn startup_overhead(&mut self, task: TaskId, p: usize) -> f64;

    /// Redistribution protocol overhead (seconds) for an edge from a
    /// `p_src`-processor producer to a `p_dst`-processor consumer.
    fn redist_overhead(&mut self, p_src: usize, p_dst: usize) -> f64;

    /// The fault environment this model executes under, if any.
    ///
    /// `None` (the default) means a healthy machine: the executor consults
    /// the model once per task and per edge. Implementations that emulate
    /// an unreliable environment (see `mps-testbed`) return a
    /// [`FaultModel`], and the executor consults it at every launch
    /// attempt and redistribution.
    fn fault_model(&mut self) -> Option<&mut dyn FaultModel> {
        None
    }
}

/// Resilience policy of an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPolicy {
    /// Retries allowed per task after its first attempt; exceeding the
    /// budget fails the execution with [`ExecError::TaskFailed`].
    pub max_retries: u32,
    /// Initial retry backoff (seconds of simulated time); attempt `k`
    /// waits `backoff_base · 2^k`, capped at [`ExecPolicy::backoff_cap`].
    pub backoff_base: f64,
    /// Upper bound on a single backoff wait (seconds).
    pub backoff_cap: f64,
    /// Optional divergence watchdog installed on the DES engine; trips
    /// as [`ExecError::Timeout`].
    pub watchdog: Option<Watchdog>,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            max_retries: 3,
            backoff_base: 0.5,
            backoff_cap: 30.0,
            watchdog: None,
        }
    }
}

/// Execution outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Application makespan (seconds).
    pub makespan: f64,
    /// Per-task `(start, finish)` times, indexed by task id. Start includes
    /// the startup overhead phase (of the first attempt, under faults).
    pub task_spans: Vec<(f64, f64)>,
    /// Per-task count of failed launch attempts that were retried
    /// (all-zero on a healthy machine).
    pub task_retries: Vec<u32>,
}

impl ExecutionResult {
    /// Total retries across all tasks.
    pub fn total_retries(&self) -> u32 {
        self.task_retries.iter().sum()
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The schedule failed validation against the DAG/platform.
    InvalidSchedule(String),
    /// The underlying simulator failed.
    Sim(L07Error),
    /// The execution deadlocked or stopped progressing (should be
    /// impossible for valid schedules; reported defensively instead of
    /// hanging).
    Stalled {
        /// Tasks that never finished.
        unstarted: usize,
    },
    /// The [`Watchdog`] tripped: execution overran its simulated-time
    /// horizon or step budget.
    Timeout {
        /// Simulated time when the watchdog fired.
        time: f64,
    },
    /// A task exhausted its retry budget under injected faults.
    TaskFailed {
        /// The failing task.
        task: TaskId,
        /// Attempts made (first launch + retries).
        attempts: u32,
    },
    /// A host crash stranded unfinished work and the active
    /// [`RecoveryPolicy`] could not (or would not) repair the schedule.
    HostFailed {
        /// The crashed host.
        host: HostId,
        /// Unfinished tasks placed on it when it failed.
        stranded: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidSchedule(e) => write!(f, "invalid schedule: {e}"),
            ExecError::Sim(e) => write!(f, "simulation error: {e}"),
            ExecError::Stalled { unstarted } => {
                write!(f, "execution stalled with {unstarted} unfinished tasks")
            }
            ExecError::Timeout { time } => {
                write!(f, "execution watchdog timed out at t={time}")
            }
            ExecError::TaskFailed { task, attempts } => {
                write!(f, "task {task} failed after {attempts} attempts")
            }
            ExecError::HostFailed { host, stranded } => {
                write!(f, "host {host} failed with {stranded} unfinished tasks")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<L07Error> for ExecError {
    fn from(e: L07Error) -> Self {
        match e {
            L07Error::Engine(EngineError::Timeout { time, .. }) => ExecError::Timeout { time },
            other => ExecError::Sim(other),
        }
    }
}

/// Wraps any [`ExecutionModel`] with a scripted fault environment.
///
/// Delegates every quantity to `inner` and exposes `faults` through
/// [`ExecutionModel::fault_model`], so the executor applies the plan's
/// crashes, slowdowns, launch failures, and link degradations on top of
/// the inner model's timings.
#[derive(Debug, Clone)]
pub struct FaultyExecution<M> {
    inner: M,
    faults: mps_faults::ScriptedFaults,
}

impl<M: ExecutionModel> FaultyExecution<M> {
    /// Wraps `inner` with the fault environment described by `faults`.
    pub fn new(inner: M, faults: mps_faults::ScriptedFaults) -> Self {
        FaultyExecution { inner, faults }
    }

    /// The wrapped model.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: ExecutionModel> ExecutionModel for FaultyExecution<M> {
    fn task_execution(
        &mut self,
        task: TaskId,
        kernel: mps_kernels::Kernel,
        hosts: &[HostId],
    ) -> TaskExecution {
        self.inner.task_execution(task, kernel, hosts)
    }

    fn startup_overhead(&mut self, task: TaskId, p: usize) -> f64 {
        self.inner.startup_overhead(task, p)
    }

    fn redist_overhead(&mut self, p_src: usize, p_dst: usize) -> f64 {
        self.inner.redist_overhead(p_src, p_dst)
    }

    fn fault_model(&mut self) -> Option<&mut dyn FaultModel> {
        Some(&mut self.faults)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Waiting,
    /// A launch attempt failed; the task sits out its backoff delay.
    Backoff,
    Running,
    Done,
}

/// What an in-flight simulator activity means to the executor.
#[derive(Debug, Clone, Copy)]
enum Meaning {
    TaskRun(TaskId),
    /// A failed attempt waiting out its startup + backoff charge.
    Backoff(TaskId),
    Redist {
        src: TaskId,
        succ: TaskId,
    },
}

/// Reusable executor state: the L07 simulator, one job's run state and the
/// memoized redistribution plans, kept warm across executions.
///
/// Building a fresh [`L07Sim`] (cluster clone + ~100 DES resources) and
/// re-allocating the run's bookkeeping per execution dominates short runs.
/// A slab amortizes all of it: the simulator is [`L07Sim::reset`] between
/// runs (bit-identical to a fresh build), the job's buffers are cleared in
/// place and keep their capacity, one task spec is refilled for every
/// submission, and redistribution plans — a pure function of
/// `(n, p_src, p_dst)` for the vanilla block distributions the executor
/// uses — are memoized. Only crash repair allocates.
///
/// Results are byte-identical to a fresh slab for any sequence of
/// executions; a slab is plain reusable scratch, not a semantic cache.
#[derive(Debug, Default)]
pub struct ExecSlab {
    /// Rebuilt only when the cluster changes between runs.
    sim: Option<L07Sim>,
    job: JobExec,
    flows: RedistFlows,
}

impl ExecSlab {
    /// An empty slab; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The disturbance counters of the last execution on this slab,
    /// complete even when it failed typed.
    pub fn report(&self) -> DisturbReport {
        self.job.report
    }
}

/// Configuration of one disturbed execution.
pub struct DisturbSetup<'a> {
    /// The scripted platform disturbances.
    pub plan: &'a DisturbancePlan,
    /// Reaction to crashes that strand unfinished tasks.
    pub recovery: RecoveryPolicy,
    /// Simulated seconds charged to every re-planned task before it may
    /// relaunch — the re-plan's cost, accounted as virtual time.
    pub rescue_overhead: f64,
    /// Under [`RecoveryPolicy::Rescue`], produces a replacement schedule
    /// over the surviving hosts (in *original* host-id space, placed only
    /// on the given survivors). `None` / a `None` return fails the
    /// execution typed.
    #[allow(clippy::type_complexity)]
    pub replan: Option<&'a mut dyn FnMut(&[HostId]) -> Option<Schedule>>,
}

impl DisturbSetup<'_> {
    /// A healthy platform: an empty plan, so recovery never runs.
    pub fn undisturbed() -> Self {
        static UNDISTURBED: DisturbancePlan = DisturbancePlan {
            seed: 0,
            events: Vec::new(),
        };
        DisturbSetup {
            plan: &UNDISTURBED,
            recovery: RecoveryPolicy::FailFast,
            rescue_overhead: 0.0,
            replan: None,
        }
    }
}

/// Executes `schedule` for `dag` on `cluster` under `model` and `policy`,
/// on a fresh slab and a healthy platform, after validating the schedule.
///
/// When `model` exposes a [`FaultModel`], every task-launch attempt is
/// first submitted to it: a failed attempt charges the startup overhead
/// plus an exponential-backoff wait (both as *simulated* time, while the
/// task's hosts stay claimed) and is retried up to
/// [`ExecPolicy::max_retries`] times before the execution fails with
/// [`ExecError::TaskFailed`]. Redistribution flows are scaled by the fault
/// model's link-degradation factors.
pub fn execute(
    dag: &Dag,
    cluster: &Cluster,
    schedule: &Schedule,
    model: &mut dyn ExecutionModel,
    policy: &ExecPolicy,
) -> Result<ExecutionResult, ExecError> {
    validate(dag, cluster, schedule)?;
    let setup = DisturbSetup::undisturbed();
    execute_prevalidated(
        &mut ExecSlab::new(),
        dag,
        cluster,
        schedule,
        model,
        policy,
        setup,
    )
}

/// `schedule.validate(dag, cluster)` as an [`ExecError`].
pub(crate) fn validate(dag: &Dag, cluster: &Cluster, schedule: &Schedule) -> Result<(), ExecError> {
    schedule
        .validate(dag, cluster)
        .map_err(|e| ExecError::InvalidSchedule(e.to_string()))
}

/// [`execute`] on a warm `slab`, without the validation pass, while the
/// platform is disturbed per `setup.plan`. Every execution runs through
/// here; an undisturbed one is [`DisturbSetup::undisturbed`].
///
/// The caller promises `schedule.validate(dag, cluster)` holds — e.g. the
/// schedule came straight from a scheduler, or one validation covers many
/// executions of the same schedule (the harness runs each schedule once in
/// the simulator and three times on the testbed).
///
/// Mechanics:
///
/// * every plan boundary (crash instant, window start/end) becomes an
///   engine timer, so the simulator observably stops exactly there;
/// * `Slow` / `Degrade` windows rescale the affected CPU/link capacities
///   through [`Engine::set_capacity`](mps_des::Engine::set_capacity) —
///   in-flight analytic work and transfers stretch mid-run; fixed-duration
///   tasks sample the compound factor of their hosts at launch;
/// * a `Crash` retires the host's resources, cancels every in-flight
///   activity touching it, and triggers the recovery ladder:
///   [`FailFast`](RecoveryPolicy::FailFast) surfaces
///   [`ExecError::HostFailed`]; [`RetryElsewhere`](RecoveryPolicy::RetryElsewhere)
///   patches the stranded tasks' placements onto the lowest-index
///   surviving hosts; [`Rescue`](RecoveryPolicy::Rescue) asks
///   `setup.replan` for a fresh schedule of the surviving platform and
///   adopts its placements and order for every unfinished, not-currently-
///   running task. Repaired tasks pay `setup.rescue_overhead` as extra
///   (virtual) launch latency, redistributions from finished
///   predecessors are re-issued toward the new placements, and tasks
///   still running (or backing off) keep the heads of their hosts' queues.
///
/// [`ExecSlab::report`] then holds the fired-event and recovery counters,
/// even when the execution failed, so callers can assert "failed typed
/// *because* a disturbance fired".
pub fn execute_prevalidated(
    slab: &mut ExecSlab,
    dag: &Dag,
    cluster: &Cluster,
    schedule: &Schedule,
    model: &mut dyn ExecutionModel,
    policy: &ExecPolicy,
    mut setup: DisturbSetup<'_>,
) -> Result<ExecutionResult, ExecError> {
    let ExecSlab { sim, job, flows } = slab;
    job.report = DisturbReport::default();
    let n_tasks = dag.len();
    if n_tasks == 0 {
        return Ok(ExecutionResult {
            makespan: 0.0,
            task_spans: Vec::new(),
            task_retries: Vec::new(),
        });
    }
    let sim = match sim {
        Some(s) if s.cluster() == cluster => {
            s.reset();
            s
        }
        slot => slot.insert(L07Sim::new(cluster.clone())),
    };
    sim.set_watchdog(policy.watchdog);
    job.start(sim, dag, schedule, setup.plan)?;
    while job.done < n_tasks {
        job.apply_boundaries(sim, model, flows, dag, &mut setup)?;
        job.try_start(sim, model, policy, dag, setup.plan)?;
        if !sim.next_completions_into(&mut job.completions)? {
            return Err(ExecError::Stalled {
                unstarted: n_tasks - job.done,
            });
        }
        for i in 0..job.completions.len() {
            let c = job.completions[i];
            job.on_completion(sim, model, flows, dag, c)?;
        }
    }
    Ok(job.finish())
}

/// One expanded plan boundary: the instant an event starts or stops
/// affecting the platform.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    time: f64,
    event: usize,
    opening: bool,
}

/// One job's execution state: where its tasks are placed and in which
/// order they dispatch, how far each host's queue has advanced, what every
/// in-flight activity means, and the spans, retries and disturbance
/// counters it reports. Its methods drive the job on a borrowed
/// [`L07Sim`]; [`JobExec::start`] clears every buffer in place.
#[derive(Debug, Default)]
struct JobExec {
    /// Each task's current host set; crash repair rewrites entries.
    placements: Vec<Vec<HostId>>,
    /// Dispatch order; a rescue re-plan replaces it.
    order: Vec<TaskId>,
    /// Per-host task queues, consumed from `queue_head`.
    queue: Vec<Vec<TaskId>>,
    queue_head: Vec<usize>,
    /// Incoming redistributions still pending per task.
    pending: Vec<usize>,
    state: Vec<TaskState>,
    launched: Vec<bool>,
    /// Earliest launch of a re-planned task (the rescue overhead).
    gate: Vec<f64>,
    /// Dense activity-id → meaning map: ids restart at zero every run.
    in_flight: Vec<Option<Meaning>>,
    /// Engine handle of each activity, for cancellation.
    live_ids: Vec<PTaskId>,
    crashed: Vec<bool>,
    /// The disturbance plan's instants, in application order, and the
    /// first one not yet applied.
    boundaries: Vec<Boundary>,
    next_boundary: usize,
    /// Per-task `(start, finish)` and failed attempts; they move into the
    /// result.
    spans: Vec<(f64, f64)>,
    attempts: Vec<u32>,
    /// Tasks finished so far.
    done: usize,
    report: DisturbReport,
    /// The latest step's completions.
    completions: Vec<PTaskCompletion>,
    /// Refilled before every [`L07Sim::submit`].
    spec: PTaskSpec,
}

/// Clears every inner vector (keeping capacity) and sets the outer length.
fn reset_nested<T>(v: &mut Vec<Vec<T>>, len: usize) {
    for inner in v.iter_mut() {
        inner.clear();
    }
    v.resize_with(len, Vec::new);
}

/// Refills `spec` as a task that only waits `latency` seconds.
fn fill_delay(spec: &mut PTaskSpec, latency: f64) {
    spec.clear();
    spec.extra_latency = latency;
}

/// Refills `spec` as an analytic launch of `kernel` on `hosts`: `flops` on
/// every host plus the kernel's ring flows. This is the spec
/// `PTaskSpec::compute(hosts, &vec![flops; p])` with
/// `.with_comm_matrix(hosts, &kernel.comm_matrix(p))` builds — the same
/// entries in the same order — without the temporary vector and matrix.
fn fill_analytic(spec: &mut PTaskSpec, kernel: Kernel, hosts: &[HostId], flops: f64, startup: f64) {
    spec.clear();
    spec.comp.extend(hosts.iter().map(|&h| (h, flops)));
    let p = hosts.len();
    let edge = kernel.ring_edge_bytes(p);
    if edge > 0.0 {
        spec.flows
            .extend((0..p).map(|i| (hosts[i], hosts[(i + 1) % p], edge)));
    }
    spec.extra_latency = startup;
}

fn touches_crashed(hosts: &[HostId], crashed: &[bool]) -> bool {
    hosts.iter().any(|h| crashed[h.index()])
}

impl JobExec {
    /// Resets the job in place for `schedule` on `sim`'s cluster and pins
    /// an engine timer at every boundary of `plan`, so steps land exactly
    /// on disturbance instants.
    fn start(
        &mut self,
        sim: &mut L07Sim,
        dag: &Dag,
        schedule: &Schedule,
        plan: &DisturbancePlan,
    ) -> Result<(), ExecError> {
        let n_tasks = dag.len();
        let n_hosts = sim.cluster().node_count();
        reset_nested(&mut self.placements, n_tasks);
        self.order.clear();
        for st in &schedule.tasks {
            self.placements[st.task.index()].extend_from_slice(&st.hosts);
            self.order.push(st.task);
        }
        reset_nested(&mut self.queue, n_hosts);
        for &t in &self.order {
            for h in &self.placements[t.index()] {
                self.queue[h.index()].push(t);
            }
        }
        self.queue_head.clear();
        self.queue_head.resize(n_hosts, 0);
        self.pending.clear();
        self.pending
            .extend(dag.task_ids().map(|t| dag.predecessors(t).len()));
        self.state.clear();
        self.state.resize(n_tasks, TaskState::Waiting);
        self.launched.clear();
        self.launched.resize(n_tasks, false);
        self.gate.clear();
        self.gate.resize(n_tasks, 0.0);
        self.in_flight.clear();
        self.live_ids.clear();
        self.crashed.clear();
        self.crashed.resize(n_hosts, false);
        self.spans = vec![(0.0, 0.0); n_tasks];
        self.attempts = vec![0; n_tasks];
        self.done = 0;

        self.boundaries.clear();
        for (i, e) in plan.events.iter().enumerate() {
            match *e {
                Disturbance::Crash { at, .. } => self.boundaries.push(Boundary {
                    time: at,
                    event: i,
                    opening: true,
                }),
                Disturbance::Slow { from, to, .. } | Disturbance::Degrade { from, to, .. } => {
                    for (time, opening) in [(from, true), (to, false)] {
                        self.boundaries.push(Boundary {
                            time,
                            event: i,
                            opening,
                        });
                    }
                }
            }
        }
        // Keys are unique per boundary, so the in-place unstable sort yields
        // the one total order.
        self.boundaries.sort_unstable_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.opening.cmp(&b.opening))
                .then(a.event.cmp(&b.event))
        });
        for b in &self.boundaries {
            if b.time > 0.0 {
                sim.schedule_timer(b.time)?;
            }
        }
        self.next_boundary = 0;
        Ok(())
    }

    /// Submits the refilled spec and records what the activity means.
    fn submit(&mut self, sim: &mut L07Sim, m: Meaning) -> Result<(), ExecError> {
        let id = sim.submit(&self.spec)?;
        let idx = id.index();
        debug_assert_eq!(idx, self.in_flight.len(), "activity ids must be dense");
        if idx >= self.in_flight.len() {
            self.in_flight.resize(idx + 1, None);
            self.live_ids.resize(idx + 1, id);
        }
        self.in_flight[idx] = Some(m);
        self.live_ids[idx] = id;
        Ok(())
    }

    /// Applies every plan boundary due at (or before) the current instant:
    /// window edges rescale host and link capacities, and a crash goes
    /// through [`JobExec::repair_crash`].
    fn apply_boundaries(
        &mut self,
        sim: &mut L07Sim,
        model: &mut dyn ExecutionModel,
        flows: &mut RedistFlows,
        dag: &Dag,
        setup: &mut DisturbSetup<'_>,
    ) -> Result<(), ExecError> {
        let plan = setup.plan;
        let now = sim.now();
        let n_hosts = self.crashed.len();
        while let Some(&b) = self
            .boundaries
            .get(self.next_boundary)
            .filter(|b| b.time <= now + 1e-9)
        {
            self.next_boundary += 1;
            match plan.events[b.event] {
                Disturbance::Slow { host, .. } => {
                    if b.opening {
                        self.report.slows += 1;
                    }
                    if host < n_hosts {
                        sim.set_host_factor(HostId(host), plan.slow_factor(host, now).max(1.0))?;
                    }
                }
                Disturbance::Degrade { link, .. } => {
                    if b.opening {
                        self.report.degrades += 1;
                    }
                    if link < n_hosts {
                        sim.set_link_factor(HostId(link), plan.link_factor(link, now).max(1.0))?;
                    }
                }
                Disturbance::Crash { host, .. } => {
                    if host < n_hosts && !self.crashed[host] {
                        self.repair_crash(sim, model, flows, dag, setup, host)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Retires the crashed `host`, cancels the activities it strands, and
    /// repairs the schedule under `setup.recovery` (see
    /// [`execute_prevalidated`]).
    fn repair_crash(
        &mut self,
        sim: &mut L07Sim,
        model: &mut dyn ExecutionModel,
        flows: &mut RedistFlows,
        dag: &Dag,
        setup: &mut DisturbSetup<'_>,
        host: usize,
    ) -> Result<(), ExecError> {
        self.crashed[host] = true;
        self.report.crashes += 1;
        sim.crash_host(HostId(host))?;

        // Who is stranded: unfinished tasks placed on a dead host, plus
        // in-flight redistributions whose endpoints touch one.
        let affected: Vec<TaskId> = self
            .order
            .iter()
            .copied()
            .filter(|t| {
                self.state[t.index()] != TaskState::Done
                    && touches_crashed(&self.placements[t.index()], &self.crashed)
            })
            .collect();
        let mut cancelled_redists: Vec<(TaskId, TaskId)> = Vec::new();
        for idx in 0..self.in_flight.len() {
            let touches = |t: TaskId| touches_crashed(&self.placements[t.index()], &self.crashed);
            let stranded = match self.in_flight[idx] {
                Some(Meaning::TaskRun(t) | Meaning::Backoff(t)) => {
                    let hit = touches(t);
                    if hit {
                        self.state[t.index()] = TaskState::Waiting;
                        self.attempts[t.index()] += 1;
                    }
                    hit
                }
                Some(Meaning::Redist { src, succ }) => {
                    let hit = touches(src) || touches(succ);
                    if hit {
                        cancelled_redists.push((src, succ));
                    }
                    hit
                }
                None => false,
            };
            if stranded {
                sim.cancel(self.live_ids[idx]);
                self.in_flight[idx] = None;
            }
        }
        if affected.is_empty() && cancelled_redists.is_empty() {
            return Ok(());
        }

        let survivors: Vec<HostId> = (0..self.crashed.len())
            .filter(|&h| !self.crashed[h])
            .map(HostId)
            .collect();
        let changed = if survivors.is_empty() {
            None
        } else {
            self.replace_stranded(setup, &affected, &survivors)
        };
        let Some(changed) = changed else {
            return Err(ExecError::HostFailed {
                host: HostId(host),
                stranded: affected.len(),
            });
        };

        // Re-planned tasks wait out the re-plan cost.
        let now = sim.now();
        let rescue = setup.recovery == RecoveryPolicy::Rescue;
        for (t, &moved) in changed.iter().enumerate() {
            if moved || (rescue && self.state[t] == TaskState::Waiting) {
                self.gate[t] = self.gate[t].max(now + setup.rescue_overhead);
            }
        }

        // Rebuild the host queues over the unfinished tasks. Running and
        // backoff tasks hold their hosts, so they go first and keep their
        // hosts' heads; waiting tasks follow in the (possibly new) order.
        for q in &mut self.queue {
            q.clear();
        }
        self.queue_head.fill(0);
        for holding in [true, false] {
            for &t in &self.order {
                let s = self.state[t.index()];
                if s != TaskState::Done
                    && matches!(s, TaskState::Running | TaskState::Backoff) == holding
                {
                    for h in &self.placements[t.index()] {
                        self.queue[h.index()].push(t);
                    }
                }
            }
        }

        // Data plane repair: a task whose placement changed needs every
        // predecessor's output again at its new hosts; cancelled transfers
        // to unchanged placements are simply re-issued.
        for t in dag.task_ids() {
            if self.state[t.index()] == TaskState::Done || !changed[t.index()] {
                continue;
            }
            // A transfer still in flight into `t` targets its old placement
            // and would double-count against the reset `pending` once the
            // repair re-issues it below.
            for idx in 0..self.in_flight.len() {
                if let Some(Meaning::Redist { succ, .. }) = self.in_flight[idx] {
                    if succ == t {
                        sim.cancel(self.live_ids[idx]);
                        self.in_flight[idx] = None;
                    }
                }
            }
            self.pending[t.index()] = dag.predecessors(t).len();
            for &pred in dag.predecessors(t) {
                if self.state[pred.index()] == TaskState::Done {
                    self.issue_redist(sim, model, flows, dag, pred, t)?;
                }
            }
        }
        for &(src, succ) in &cancelled_redists {
            if !changed[succ.index()] && self.state[succ.index()] != TaskState::Done {
                self.issue_redist(sim, model, flows, dag, src, succ)?;
            }
        }
        Ok(())
    }

    /// Moves the stranded tasks off the dead hosts under `setup.recovery`
    /// (and, under Rescue, replaces the dispatch order). Returns which
    /// tasks changed placement, or `None` when the policy cannot repair
    /// the schedule.
    fn replace_stranded(
        &mut self,
        setup: &mut DisturbSetup<'_>,
        affected: &[TaskId],
        survivors: &[HostId],
    ) -> Option<Vec<bool>> {
        let mut changed = vec![false; self.state.len()];
        match setup.recovery {
            RecoveryPolicy::FailFast => return None,
            RecoveryPolicy::RetryElsewhere => {
                for &t in affected {
                    let old = &self.placements[t.index()];
                    let mut keep: Vec<HostId> = old
                        .iter()
                        .copied()
                        .filter(|h| !self.crashed[h.index()])
                        .collect();
                    for &s in survivors {
                        if keep.len() == old.len() {
                            break;
                        }
                        if !keep.contains(&s) {
                            keep.push(s);
                        }
                    }
                    if keep.len() < old.len() {
                        return None;
                    }
                    self.placements[t.index()] = keep;
                    changed[t.index()] = true;
                    self.report.retried_tasks += 1;
                }
            }
            RecoveryPolicy::Rescue => {
                let replan = setup.replan.as_mut()?;
                let rescue = replan(survivors)?;
                // Running/backoff tasks on surviving hosts keep their
                // placement and precede everything else; every waiting task
                // adopts the rescue schedule's placement and order.
                let mut new_order: Vec<TaskId> = self
                    .order
                    .iter()
                    .copied()
                    .filter(|t| {
                        matches!(
                            self.state[t.index()],
                            TaskState::Running | TaskState::Backoff
                        )
                    })
                    .collect();
                let mut adopted = 0u64;
                for st in &rescue.tasks {
                    let t = st.task;
                    if self.state[t.index()] != TaskState::Waiting {
                        continue;
                    }
                    if st.hosts.is_empty() || touches_crashed(&st.hosts, &self.crashed) {
                        return None;
                    }
                    if self.placements[t.index()] != st.hosts {
                        changed[t.index()] = true;
                    }
                    self.placements[t.index()].clone_from(&st.hosts);
                    new_order.push(t);
                    adopted += 1;
                }
                // Defensive: a waiting task the rescue schedule somehow
                // omitted keeps its old placement (it must still be off the
                // dead hosts).
                for &t in &self.order {
                    if self.state[t.index()] == TaskState::Waiting && !new_order.contains(&t) {
                        if touches_crashed(&self.placements[t.index()], &self.crashed) {
                            return None;
                        }
                        new_order.push(t);
                    }
                }
                self.order = new_order;
                self.report.rescues += 1;
                self.report.rescued_tasks += adopted;
            }
        }
        Some(changed)
    }

    /// The launch pass: starts every waiting task that heads the queue of
    /// each of its hosts and has all its inputs. Fixed-duration tasks
    /// sample the plan's compound slowdown of their hosts at launch (the
    /// same launch-sampled semantics `FaultPlan` node slowdowns use), and a
    /// re-planned task waits out its `gate` (the rescue overhead, as
    /// virtual time) before its attempt starts. Every attempt — successful
    /// or not — pays the startup overhead.
    fn try_start(
        &mut self,
        sim: &mut L07Sim,
        model: &mut dyn ExecutionModel,
        policy: &ExecPolicy,
        dag: &Dag,
        plan: &DisturbancePlan,
    ) -> Result<(), ExecError> {
        let now = sim.now();
        for i in 0..self.order.len() {
            let t = self.order[i];
            let ti = t.index();
            if self.state[ti] != TaskState::Waiting || self.pending[ti] > 0 {
                continue;
            }
            let hosts = &self.placements[ti];
            let at_head = hosts
                .iter()
                .all(|h| self.queue[h.index()].get(self.queue_head[h.index()]) == Some(&t));
            if !at_head {
                continue;
            }
            let kernel = dag.task(t).kernel;
            let p = hosts.len();
            let startup = model.startup_overhead(t, p) + (self.gate[ti] - now).max(0.0);
            if !self.launched[ti] {
                self.launched[ti] = true;
                self.spans[ti].0 = now;
            }
            let disposition = match model.fault_model() {
                Some(fm) => fm.task_disposition(t, hosts, self.attempts[ti], now),
                None => TaskDisposition::Run { slowdown: 1.0 },
            };
            let slowdown = match disposition {
                TaskDisposition::Fail { retry_after } => {
                    let attempt = self.attempts[ti];
                    if attempt >= policy.max_retries {
                        return Err(ExecError::TaskFailed {
                            task: t,
                            attempts: attempt + 1,
                        });
                    }
                    self.attempts[ti] = attempt + 1;
                    // The failed attempt is charged as simulated time: its
                    // startup overhead plus the backoff wait (or the time
                    // until a crashed host recovers, whichever is longer).
                    // The task's hosts stay claimed throughout.
                    let backoff = (policy.backoff_base * 2.0_f64.powi(attempt as i32))
                        .min(policy.backoff_cap);
                    fill_delay(&mut self.spec, startup + backoff.max(retry_after));
                    self.submit(sim, Meaning::Backoff(t))?;
                    self.state[ti] = TaskState::Backoff;
                    continue;
                }
                TaskDisposition::Run { slowdown } => slowdown.max(1.0),
            };
            match model.task_execution(t, kernel, hosts) {
                TaskExecution::Analytic => {
                    // Host slowdowns reach analytic tasks through the
                    // engine's scaled capacities — no launch-time factor.
                    let flops = kernel.flops_per_proc(p) * slowdown;
                    fill_analytic(&mut self.spec, kernel, hosts, flops, startup);
                }
                TaskExecution::Fixed(duration) => {
                    let disturb_factor = hosts
                        .iter()
                        .map(|h| plan.slow_factor(h.index(), now))
                        .fold(1.0, f64::max);
                    fill_delay(
                        &mut self.spec,
                        startup + duration.max(0.0) * slowdown * disturb_factor,
                    );
                }
            }
            self.submit(sim, Meaning::TaskRun(t))?;
            self.state[ti] = TaskState::Running;
        }
        Ok(())
    }

    /// Submits the redistribution for DAG edge `src → succ` using the
    /// tasks' *current* placements. Crashed source hosts are substituted by
    /// the source's first surviving host (the durable-replication
    /// assumption: a finished task's output can be re-served from any
    /// surviving rank); when no source host survives at all, the data
    /// re-materializes at the destination instantly and only the protocol
    /// overhead is charged. Degraded links carry more effective bytes, and
    /// the overhead stretches with the worst link factor at the current
    /// instant.
    fn issue_redist(
        &mut self,
        sim: &mut L07Sim,
        model: &mut dyn ExecutionModel,
        flows: &mut RedistFlows,
        dag: &Dag,
        src: TaskId,
        succ: TaskId,
    ) -> Result<(), ExecError> {
        let src_hosts = &self.placements[src.index()];
        let dst_hosts = &self.placements[succ.index()];
        let crashed = &self.crashed;
        let mut overhead = model.redist_overhead(src_hosts.len(), dst_hosts.len());
        let now = sim.now();
        self.spec.clear();
        if let Some(replacement) = src_hosts.iter().find(|h| !crashed[h.index()]).copied() {
            let map_src = |h: HostId| if crashed[h.index()] { replacement } else { h };
            let n = dag.task(src).kernel.n();
            flows.build(
                n,
                src_hosts,
                map_src,
                dst_hosts,
                crashed.len(),
                &mut self.spec.flows,
            );
            if let Some(fm) = model.fault_model() {
                let mut worst = 1.0_f64;
                for (s, d, b) in &mut self.spec.flows {
                    let factor = fm.link_factor(*s, *d, now).max(1.0);
                    *b *= factor;
                    worst = worst.max(factor);
                }
                overhead *= worst;
            }
        }
        self.spec.extra_latency = overhead;
        self.submit(sim, Meaning::Redist { src, succ })
    }

    /// Books one completion: a finished task releases its hosts' queues
    /// and starts the redistributions to its successors, an elapsed
    /// backoff makes its task eligible again (its hosts were never
    /// released), and a finished redistribution ticks its successor's
    /// pending count.
    fn on_completion(
        &mut self,
        sim: &mut L07Sim,
        model: &mut dyn ExecutionModel,
        flows: &mut RedistFlows,
        dag: &Dag,
        c: PTaskCompletion,
    ) -> Result<(), ExecError> {
        match self
            .in_flight
            .get_mut(c.task.index())
            .and_then(Option::take)
        {
            Some(Meaning::TaskRun(t)) => {
                self.state[t.index()] = TaskState::Done;
                self.spans[t.index()].1 = c.time;
                self.done += 1;
                for h in &self.placements[t.index()] {
                    debug_assert_eq!(
                        self.queue[h.index()][self.queue_head[h.index()]],
                        t,
                        "queue discipline violated"
                    );
                    self.queue_head[h.index()] += 1;
                }
                for &succ in dag.successors(t) {
                    self.issue_redist(sim, model, flows, dag, t, succ)?;
                }
            }
            Some(Meaning::Backoff(t)) => self.state[t.index()] = TaskState::Waiting,
            Some(Meaning::Redist { succ, .. }) => self.pending[succ.index()] -= 1,
            None => unreachable!("unknown completion"),
        }
        Ok(())
    }

    /// The finished job's result; spans and retries move out of the job.
    fn finish(&mut self) -> ExecutionResult {
        let makespan = self.spans.iter().map(|&(_, f)| f).fold(0.0_f64, f64::max);
        ExecutionResult {
            makespan,
            task_spans: std::mem::take(&mut self.spans),
            task_retries: std::mem::take(&mut self.attempts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_kernels::Kernel;
    use mps_model::AnalyticModel;
    use mps_sched::{Hcpa, Schedule, ScheduledTask, Scheduler};

    /// Instrumented model: counts calls, returns fixed quantities.
    struct Counting {
        task_calls: usize,
        startup_calls: usize,
        redist_calls: usize,
        duration: f64,
        startup: f64,
        redist: f64,
    }

    impl Counting {
        fn new(duration: f64, startup: f64, redist: f64) -> Self {
            Counting {
                task_calls: 0,
                startup_calls: 0,
                redist_calls: 0,
                duration,
                startup,
                redist,
            }
        }
    }

    impl ExecutionModel for Counting {
        fn task_execution(
            &mut self,
            _task: TaskId,
            _kernel: Kernel,
            _hosts: &[HostId],
        ) -> TaskExecution {
            self.task_calls += 1;
            TaskExecution::Fixed(self.duration)
        }
        fn startup_overhead(&mut self, _task: TaskId, _p: usize) -> f64 {
            self.startup_calls += 1;
            self.startup
        }
        fn redist_overhead(&mut self, _p_src: usize, _p_dst: usize) -> f64 {
            self.redist_calls += 1;
            self.redist
        }
    }

    fn diamond() -> Dag {
        Dag::new(
            vec![Kernel::MatAdd { n: 2000 }; 4],
            &[
                (TaskId(0), TaskId(1)),
                (TaskId(0), TaskId(2)),
                (TaskId(1), TaskId(3)),
                (TaskId(2), TaskId(3)),
            ],
        )
        .unwrap()
    }

    fn schedule_for(dag: &Dag, cluster: &Cluster) -> Schedule {
        Hcpa.schedule(dag, cluster, &AnalyticModel::paper_jvm())
    }

    /// [`execute`] under the default policy.
    fn exec(
        dag: &Dag,
        cluster: &Cluster,
        schedule: &Schedule,
        model: &mut dyn ExecutionModel,
    ) -> Result<ExecutionResult, ExecError> {
        execute(dag, cluster, schedule, model, &ExecPolicy::default())
    }

    #[test]
    fn model_is_consulted_once_per_task_and_edge() {
        let dag = diamond();
        let cluster = Cluster::bayreuth();
        let schedule = schedule_for(&dag, &cluster);
        let mut model = Counting::new(1.0, 0.5, 0.1);
        let r = exec(&dag, &cluster, &schedule, &mut model).unwrap();
        assert_eq!(model.task_calls, 4);
        assert_eq!(model.startup_calls, 4);
        assert_eq!(model.redist_calls, 4, "one per DAG edge");
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn makespan_decomposes_for_a_serial_chain() {
        // Chain of 3 on one host: makespan = Σ (startup + duration) +
        // redistribution overheads between stages (transfers are local).
        let dag = Dag::new(
            vec![Kernel::MatAdd { n: 2000 }; 3],
            &[(TaskId(0), TaskId(1)), (TaskId(1), TaskId(2))],
        )
        .unwrap();
        let cluster = Cluster::bayreuth();
        let mk = |t: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(0)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0), mk(1), mk(2)],
            est_makespan: 30.0,
        };
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let r = exec(&dag, &cluster, &schedule, &mut model).unwrap();
        let expected = 3.0 * (2.0 + 0.5) + 2.0 * 0.25;
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn zero_duration_tasks_still_flow_through_dependencies() {
        // All tasks co-located on the same host set: every redistribution
        // is local, so with zero model quantities the whole run collapses
        // to (near) zero time.
        let dag = diamond();
        let cluster = Cluster::bayreuth();
        let hosts: Vec<HostId> = (0..4).map(HostId).collect();
        let mk = |t: usize| ScheduledTask {
            task: TaskId(t),
            hosts: hosts.clone(),
            est_start: t as f64,
            est_finish: t as f64 + 1.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0), mk(1), mk(2), mk(3)],
            est_makespan: 4.0,
        };
        let mut model = Counting::new(0.0, 0.0, 0.0);
        let r = exec(&dag, &cluster, &schedule, &mut model).unwrap();
        assert!(r.makespan < 1e-9, "makespan {}", r.makespan);
        for &(s, f) in &r.task_spans {
            assert!(f >= s);
        }
    }

    #[test]
    fn spans_respect_dependencies_under_any_positive_quantities() {
        let dag = diamond();
        let cluster = Cluster::bayreuth();
        let schedule = schedule_for(&dag, &cluster);
        for (d, su, re) in [(1.0, 0.0, 0.0), (0.5, 2.0, 0.0), (3.0, 0.1, 1.5)] {
            let mut model = Counting::new(d, su, re);
            let r = exec(&dag, &cluster, &schedule, &mut model).unwrap();
            for t in dag.task_ids() {
                for &pred in dag.predecessors(t) {
                    assert!(
                        r.task_spans[t.index()].0 >= r.task_spans[pred.index()].1 - 1e-9,
                        "task {t} started before {pred} finished (d={d} su={su} re={re})"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_duration_is_clamped_not_propagated() {
        let dag = Dag::new(vec![Kernel::MatAdd { n: 2000 }], &[]).unwrap();
        let cluster = Cluster::bayreuth();
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![ScheduledTask {
                task: TaskId(0),
                hosts: vec![HostId(0)],
                est_start: 0.0,
                est_finish: 1.0,
            }],
            est_makespan: 1.0,
        };
        struct NanModel;
        impl ExecutionModel for NanModel {
            fn task_execution(&mut self, _t: TaskId, _k: Kernel, _h: &[HostId]) -> TaskExecution {
                TaskExecution::Fixed(f64::NAN)
            }
            fn startup_overhead(&mut self, _t: TaskId, _p: usize) -> f64 {
                0.0
            }
            fn redist_overhead(&mut self, _s: usize, _d: usize) -> f64 {
                0.0
            }
        }
        let r = exec(&dag, &cluster, &schedule, &mut NanModel).unwrap();
        assert!(r.makespan.is_finite());
    }

    // ---- fault injection & resilience ----------------------------------

    use mps_faults::{FaultPlan, ScriptedFaults};

    fn chain_dag() -> Dag {
        Dag::new(
            vec![Kernel::MatAdd { n: 2000 }; 3],
            &[(TaskId(0), TaskId(1)), (TaskId(1), TaskId(2))],
        )
        .unwrap()
    }

    fn chain_schedule(hosts: &[usize]) -> Schedule {
        let hs: Vec<HostId> = hosts.iter().map(|&i| HostId(i)).collect();
        let mk = |t: usize| ScheduledTask {
            task: TaskId(t),
            hosts: hs.clone(),
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0), mk(1), mk(2)],
            est_makespan: 30.0,
        }
    }

    fn faulty(plan: FaultPlan) -> FaultyExecution<Counting> {
        FaultyExecution::new(Counting::new(2.0, 0.5, 0.25), ScriptedFaults::new(plan))
    }

    #[test]
    fn empty_plan_reproduces_the_healthy_execution_exactly() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = exec(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let mut model = faulty(FaultPlan::none());
        let r = exec(&dag, &cluster, &schedule, &mut model).unwrap();
        assert_eq!(baseline, r);
        assert_eq!(r.total_retries(), 0);
    }

    #[test]
    fn crash_window_delays_execution_via_retries() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = exec(&dag, &cluster, &schedule, &mut healthy).unwrap();
        // Host 0 is down from the start for 4 s: task 0's first attempt
        // fails and retries after the node recovers.
        let plan = FaultPlan::builder(1)
            .node_crash(HostId(0), 0.0, 4.0)
            .build();
        let mut model = faulty(plan);
        let policy = ExecPolicy {
            max_retries: 5,
            ..ExecPolicy::default()
        };
        let r = execute(&dag, &cluster, &schedule, &mut model, &policy).unwrap();
        assert!(r.task_retries[0] >= 1, "retries: {:?}", r.task_retries);
        assert!(
            r.makespan >= baseline.makespan + 4.0 - 1e-9,
            "makespan {} vs baseline {} + outage",
            r.makespan,
            baseline.makespan
        );
        // Later tasks are pushed back but unaffected otherwise.
        assert_eq!(r.task_retries[1], 0);
        assert_eq!(r.task_retries[2], 0);
    }

    #[test]
    fn certain_launch_failure_exhausts_the_retry_budget() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut model = faulty(FaultPlan::builder(1).task_failure(1.0).build());
        let policy = ExecPolicy {
            max_retries: 2,
            ..ExecPolicy::default()
        };
        let err = execute(&dag, &cluster, &schedule, &mut model, &policy).unwrap_err();
        assert_eq!(
            err,
            ExecError::TaskFailed {
                task: TaskId(0),
                attempts: 3
            }
        );
    }

    #[test]
    fn backoff_grows_exponentially_and_is_charged_as_virtual_time() {
        // Two forced failures then success: makespan = healthy makespan
        // + 2 extra startup charges + backoff (0.5 + 1.0).
        struct FailTwice;
        impl FaultModel for FailTwice {
            fn task_disposition(
                &mut self,
                task: TaskId,
                _hosts: &[HostId],
                attempt: u32,
                _now: f64,
            ) -> TaskDisposition {
                if task == TaskId(0) && attempt < 2 {
                    TaskDisposition::Fail { retry_after: 0.0 }
                } else {
                    TaskDisposition::Run { slowdown: 1.0 }
                }
            }
            fn link_factor(&mut self, _s: HostId, _d: HostId, _n: f64) -> f64 {
                1.0
            }
        }
        struct Wrapper {
            inner: Counting,
            faults: FailTwice,
        }
        impl ExecutionModel for Wrapper {
            fn task_execution(&mut self, t: TaskId, k: Kernel, h: &[HostId]) -> TaskExecution {
                self.inner.task_execution(t, k, h)
            }
            fn startup_overhead(&mut self, t: TaskId, p: usize) -> f64 {
                self.inner.startup_overhead(t, p)
            }
            fn redist_overhead(&mut self, s: usize, d: usize) -> f64 {
                self.inner.redist_overhead(s, d)
            }
            fn fault_model(&mut self) -> Option<&mut dyn FaultModel> {
                Some(&mut self.faults)
            }
        }
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = exec(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let mut model = Wrapper {
            inner: Counting::new(2.0, 0.5, 0.25),
            faults: FailTwice,
        };
        let r = exec(&dag, &cluster, &schedule, &mut model).unwrap();
        assert_eq!(r.task_retries, vec![2, 0, 0]);
        let expected = baseline.makespan + 2.0 * 0.5 + (0.5 + 1.0);
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} expected {expected}",
            r.makespan
        );
    }

    #[test]
    fn stragglers_and_slowdowns_stretch_the_makespan() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = exec(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let mut model = faulty(FaultPlan::builder(1).straggler(TaskId(1), 3.0).build());
        let r = exec(&dag, &cluster, &schedule, &mut model).unwrap();
        // Task 1's 2 s execution becomes 6 s.
        assert!((r.makespan - (baseline.makespan + 4.0)).abs() < 1e-9);
        let mut model = faulty(
            FaultPlan::builder(1)
                .node_slowdown(HostId(0), 0.0, 2.0)
                .build(),
        );
        let r = exec(&dag, &cluster, &schedule, &mut model).unwrap();
        // Every task doubles: 3 × 2 s extra.
        assert!((r.makespan - (baseline.makespan + 6.0)).abs() < 1e-9);
    }

    #[test]
    fn link_degradation_slows_cross_host_redistribution() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        // Alternate hosts so every redistribution crosses the network.
        let mk = |t: usize, h: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(h)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0, 0), mk(1, 1), mk(2, 0)],
            est_makespan: 30.0,
        };
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = exec(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let plan = FaultPlan::builder(1)
            .link_degrade(HostId(1), 0.0, 1.0e9, 4.0)
            .build();
        let mut model = faulty(plan);
        let r = exec(&dag, &cluster, &schedule, &mut model).unwrap();
        assert!(
            r.makespan > baseline.makespan + 1e-6,
            "degraded {} vs healthy {}",
            r.makespan,
            baseline.makespan
        );
    }

    #[test]
    fn watchdog_horizon_converts_runaway_executions_into_timeouts() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let policy = ExecPolicy {
            watchdog: Some(mps_des::Watchdog::horizon(1.0)),
            ..ExecPolicy::default()
        };
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let err = execute(&dag, &cluster, &schedule, &mut model, &policy).unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }), "{err:?}");
        // A generous horizon lets the same execution finish.
        let policy = ExecPolicy {
            watchdog: Some(mps_des::Watchdog::horizon(1.0e6)),
            ..ExecPolicy::default()
        };
        let mut model = Counting::new(2.0, 0.5, 0.25);
        assert!(execute(&dag, &cluster, &schedule, &mut model, &policy).is_ok());
    }

    // ---- timed disturbances & reactive repair ---------------------------

    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn run_disturbed<'a>(
        dag: &Dag,
        cluster: &Cluster,
        schedule: &Schedule,
        model: &mut dyn ExecutionModel,
        plan: &'a DisturbancePlan,
        recovery: RecoveryPolicy,
        rescue_overhead: f64,
        replan: Option<&'a mut dyn FnMut(&[HostId]) -> Option<Schedule>>,
    ) -> (Result<ExecutionResult, ExecError>, DisturbReport) {
        let mut slab = ExecSlab::new();
        let setup = DisturbSetup {
            plan,
            recovery,
            rescue_overhead,
            replan,
        };
        schedule.validate(dag, cluster).unwrap();
        let policy = ExecPolicy::default();
        let r = execute_prevalidated(&mut slab, dag, cluster, schedule, model, &policy, setup);
        (r, slab.report())
    }

    #[test]
    fn zero_event_plan_matches_the_undisturbed_execution_exactly() {
        let dag = diamond();
        let cluster = Cluster::bayreuth();
        let schedule = schedule_for(&dag, &cluster);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = exec(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let plan = DisturbancePlan::none();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        assert_eq!(r.unwrap(), baseline);
        assert_eq!(report.fired(), 0);
    }

    #[test]
    fn a_slow_window_stretches_fixed_tasks_launched_inside_it() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        // Host 0 runs at half speed for the whole execution: each 2 s
        // task takes 4 s; startup and redistribution overheads are
        // protocol time and stay put.
        let plan = DisturbancePlan::builder(1)
            .slow(HostId(0), 0.0, 100.0, 2.0)
            .build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        let r = r.unwrap();
        let expected = 3.0 * (0.5 + 4.0) + 2.0 * 0.25;
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} expected {expected}",
            r.makespan
        );
        assert_eq!(report.slows, 1);
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn a_crash_fails_fast_with_a_typed_host_failure() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        // Timeline on host 0: task 0 spans [0, 2.5]; the crash at t=3
        // strands task 1 (running) and task 2 (waiting).
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        match r {
            Err(ExecError::HostFailed { host, stranded }) => {
                assert_eq!(host, HostId(0));
                assert_eq!(stranded, 2);
            }
            other => panic!("expected HostFailed, got {other:?}"),
        }
        // The report still records the fired crash on the error path.
        assert_eq!(report.crashes, 1);
        assert!(report.fired() >= 1);
    }

    #[test]
    fn retry_elsewhere_moves_stranded_tasks_to_surviving_hosts() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = exec(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::RetryElsewhere,
            0.0,
            None,
        );
        let r = r.unwrap();
        assert!(
            r.makespan > baseline.makespan,
            "a mid-run crash cannot be free: {} vs {}",
            r.makespan,
            baseline.makespan
        );
        // Task 1 was running when the host died: one burned attempt.
        assert!(r.task_retries[1] >= 1, "retries {:?}", r.task_retries);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.retried_tasks, 2, "tasks 1 and 2 were stranded");
        assert_eq!(report.rescues, 0);
        for t in dag.task_ids() {
            for &pred in dag.predecessors(t) {
                assert!(r.task_spans[t.index()].0 >= r.task_spans[pred.index()].1 - 1e-9);
            }
        }
    }

    #[test]
    fn rescue_replans_onto_survivors_and_charges_the_overhead() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let mut replans = 0usize;
        let mut replan = |survivors: &[HostId]| -> Option<Schedule> {
            replans += 1;
            assert!(!survivors.contains(&HostId(0)));
            let h = survivors[0];
            let mk = |t: usize| ScheduledTask {
                task: TaskId(t),
                hosts: vec![h],
                est_start: t as f64,
                est_finish: t as f64 + 1.0,
            };
            Some(Schedule {
                algorithm: "rescue".into(),
                tasks: vec![mk(0), mk(1), mk(2)],
                est_makespan: 3.0,
            })
        };
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::Rescue,
            5.0,
            Some(&mut replan),
        );
        let r = r.unwrap();
        assert_eq!(replans, 1);
        assert_eq!(report.rescues, 1);
        assert_eq!(report.rescued_tasks, 2, "tasks 1 and 2 were re-planned");
        // The re-plan is charged as virtual time: the rescued tasks start
        // no earlier than crash + overhead, so the makespan covers the
        // gate plus both remaining tasks.
        let floor = 3.0 + 5.0 + 2.0 * (0.5 + 2.0);
        assert!(
            r.makespan >= floor - 1e-9,
            "makespan {} below rescue floor {floor}",
            r.makespan
        );
        for t in dag.task_ids() {
            for &pred in dag.predecessors(t) {
                assert!(r.task_spans[t.index()].0 >= r.task_spans[pred.index()].1 - 1e-9);
            }
        }
    }

    #[test]
    fn rescue_without_a_replan_hook_fails_typed() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::Rescue,
            5.0,
            None,
        );
        assert!(matches!(r, Err(ExecError::HostFailed { .. })), "{r:?}");
        assert_eq!(report.crashes, 1);
    }

    #[test]
    fn a_crash_on_an_idle_host_is_counted_but_harmless() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = exec(&dag, &cluster, &schedule, &mut healthy).unwrap();
        // Host 7 never appears in the schedule.
        let plan = DisturbancePlan::builder(1).crash(HostId(7), 1.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        let r = r.unwrap();
        assert!((r.makespan - baseline.makespan).abs() < 1e-9);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.retried_tasks, 0);
    }

    #[test]
    fn degrade_windows_stretch_cross_host_redistribution() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let mk = |t: usize, h: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(h)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0, 0), mk(1, 1), mk(2, 0)],
            est_makespan: 30.0,
        };
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = exec(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let plan = DisturbancePlan::builder(1)
            .degrade(HostId(1), 0.0, 100.0, 50.0)
            .build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        let r = r.unwrap();
        assert!(
            r.makespan > baseline.makespan + 1e-6,
            "degraded {} vs healthy {}",
            r.makespan,
            baseline.makespan
        );
        assert_eq!(report.degrades, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mps_dag::{generate, DagGenParams};
    use mps_model::{AnalyticModel, EmpiricalModel, PerfModel};
    use mps_sched::{Hcpa, Mcpa, Scheduler};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For arbitrary generated DAGs and both algorithms, execution under
        /// a deterministic model yields finite makespans, dependency-ordered
        /// spans, and a makespan at least the longest single task.
        #[test]
        fn execution_invariants(
            tasks in 1usize..14,
            width_exp in 1u32..4,
            ratio in 0.0f64..1.0,
            seed in 0u64..3000,
            use_empirical in any::<bool>(),
        ) {
            let params = DagGenParams {
                tasks,
                input_matrices: 2usize.pow(width_exp),
                add_ratio: ratio,
                matrix_size: 2000,
            };
            let dag = generate(&params, seed);
            let cluster = Cluster::bayreuth();
            let policy = ExecPolicy::default();
            for algo in [&Hcpa as &dyn Scheduler, &Mcpa] {
                let (schedule, result) = if use_empirical {
                    let model = EmpiricalModel::table_ii();
                    let schedule = algo.schedule(&dag, &cluster, &model);
                    let mut exec = crate::simulator::ModelExecution::new(model);
                    let result = execute(&dag, &cluster, &schedule, &mut exec, &policy).unwrap();
                    (schedule, result)
                } else {
                    let model = AnalyticModel::paper_jvm();
                    let schedule = algo.schedule(&dag, &cluster, &model);
                    let mut exec = crate::simulator::ModelExecution::new(model);
                    let result = execute(&dag, &cluster, &schedule, &mut exec, &policy).unwrap();
                    (schedule, result)
                };
                prop_assert!(result.makespan.is_finite() && result.makespan >= 0.0);
                // Dependencies respected.
                for t in dag.task_ids() {
                    let (s, f) = result.task_spans[t.index()];
                    prop_assert!(f >= s - 1e-9);
                    for &pred in dag.predecessors(t) {
                        prop_assert!(s >= result.task_spans[pred.index()].1 - 1e-9);
                    }
                }
                // The makespan covers every span.
                for &(_, f) in &result.task_spans {
                    prop_assert!(result.makespan >= f - 1e-9);
                }
                // Host-exclusivity: tasks sharing a host never overlap.
                for a in &schedule.tasks {
                    for b in &schedule.tasks {
                        if a.task >= b.task {
                            continue;
                        }
                        let share = a.hosts.iter().any(|h| b.hosts.contains(h));
                        if share {
                            let (sa, fa) = result.task_spans[a.task.index()];
                            let (sb, fb) = result.task_spans[b.task.index()];
                            prop_assert!(
                                fa <= sb + 1e-9 || fb <= sa + 1e-9,
                                "overlap: {:?} vs {:?}",
                                (sa, fa),
                                (sb, fb)
                            );
                        }
                    }
                }
                // The model is consulted at least once per task; makespan is
                // bounded below by the longest single task duration.
                let longest = dag
                    .task_ids()
                    .map(|t| {
                        let p = schedule
                            .placement(t)
                            .expect("placed")
                            .p();
                        if use_empirical {
                            EmpiricalModel::table_ii().task_time(dag.task(t).kernel, p)
                        } else {
                            AnalyticModel::paper_jvm().task_time(dag.task(t).kernel, p)
                        }
                    })
                    .fold(0.0_f64, f64::max);
                prop_assert!(result.makespan >= longest * 0.999);
            }
        }
    }
}

#[cfg(test)]
mod repro_review {
    use super::*;
    use mps_faults::{DisturbancePlan, RecoveryPolicy};
    use mps_kernels::Kernel;
    use mps_sched::{Schedule, ScheduledTask};

    struct PerTask;
    impl ExecutionModel for PerTask {
        fn task_execution(&mut self, task: TaskId, _k: Kernel, _h: &[HostId]) -> TaskExecution {
            TaskExecution::Fixed(if task.index() == 2 { 10.0 } else { 2.0 })
        }
        fn startup_overhead(&mut self, _t: TaskId, _p: usize) -> f64 {
            0.5
        }
        fn redist_overhead(&mut self, _s: usize, _d: usize) -> f64 {
            1.0
        }
    }

    #[test]
    fn stale_redist_after_rescue_replan() {
        // A(0) -> B(1); C(2) independent, long-running on host 0.
        let dag = Dag::new(
            vec![Kernel::MatAdd { n: 2000 }; 3],
            &[(TaskId(0), TaskId(1))],
        )
        .unwrap();
        let cluster = Cluster::bayreuth();
        let mk = |t: usize, h: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(h)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0, 1), mk(1, 2), mk(2, 0)],
            est_makespan: 1.0,
        };
        // A spans [0, 2.5]; redist A->B in flight from 2.5; crash host 0
        // at 3.0 strands C; rescue moves B to host 3 and C to host 1.
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut replan = |survivors: &[HostId]| -> Option<Schedule> {
            assert!(!survivors.contains(&HostId(0)));
            Some(Schedule {
                algorithm: "rescue".into(),
                tasks: vec![mk(1, 3), mk(2, 1)],
                est_makespan: 1.0,
            })
        };
        let mut slab = ExecSlab::new();
        let mut model = PerTask;
        schedule.validate(&dag, &cluster).unwrap();
        let r = execute_prevalidated(
            &mut slab,
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &ExecPolicy::default(),
            DisturbSetup {
                plan: &plan,
                recovery: RecoveryPolicy::Rescue,
                rescue_overhead: 0.0,
                replan: Some(&mut replan),
            },
        );
        eprintln!("result: {r:?} report: {:?}", slab.report());
        r.unwrap();
    }

    #[test]
    fn retry_elsewhere_queues_a_moved_task_behind_the_running_one() {
        // A(0) -> S(1); T(2) independent and long (10 s) on host 1.
        let dag = Dag::new(
            vec![Kernel::MatAdd { n: 2000 }; 3],
            &[(TaskId(0), TaskId(1))],
        )
        .unwrap();
        let cluster = Cluster::bayreuth();
        let mk = |t: usize, h: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(h)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0, 2), mk(1, 0), mk(2, 1)],
            est_makespan: 1.0,
        };
        schedule.validate(&dag, &cluster).unwrap();
        // The crash at t=1 strands S, which moves to host 1 — where T,
        // later in dispatch order, is already running.
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 1.0).build();
        let mut slab = ExecSlab::new();
        let r = execute_prevalidated(
            &mut slab,
            &dag,
            &cluster,
            &schedule,
            &mut PerTask,
            &ExecPolicy::default(),
            DisturbSetup {
                plan: &plan,
                recovery: RecoveryPolicy::RetryElsewhere,
                rescue_overhead: 0.0,
                replan: None,
            },
        )
        .unwrap();
        assert_eq!(slab.report().retried_tasks, 1);
        let (s, t) = (r.task_spans[1], r.task_spans[2]);
        assert!(s.0 >= t.1 - 1e-9, "S {s:?} overlaps T {t:?} on host 1");
    }
}
