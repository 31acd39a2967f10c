//! Activity-oriented discrete-event engine.
//!
//! The engine owns a set of *resources* (CPU cores, link directions, …) and a
//! set of *activities*. Each activity goes through an optional **latency
//! phase** (a fixed delay during which it consumes no resources — modelling
//! network latency or protocol startup) followed by a **work phase** during
//! which it progresses at a rate computed by the max-min fair-share
//! [solver](crate::solver). Whenever any activity starts or finishes, the
//! rates of affected activities are re-solved — the classic fluid simulation
//! scheme used by SimGrid's analytic models.
//!
//! Plain *timers* are also supported for callers that need scheduled
//! wake-ups (the testbed uses them for task-startup delays).
//!
//! ## Incremental hot path
//!
//! The engine is built to take steps without heap allocation in steady
//! state (see DESIGN.md §"incremental solver"):
//!
//! * activities live in a dense **slab** of reusable slots (the public
//!   [`ActivityId`]s stay unique forever; slots are recycled);
//! * every live activity's positive weights sit in one engine-owned
//!   **weight arena** (an offset and a length per slot), compacted when
//!   garbage outgrows the live entries and emptied whenever the engine
//!   goes idle, so [`Engine::start`] copies a borrowed [`ActivitySpec`]
//!   instead of taking ownership of a vector per activity;
//! * a **resource→activity incidence index** with a per-resource count of
//!   live entries restricts each re-solve to the connected component(s) an
//!   event touched. The closure search starts from the activities that
//!   just entered their work phase and from the resources a finish,
//!   cancel or capacity change left **dirty**, walks only resources that
//!   carry at least two live entries (a resource used by one activity
//!   leads nowhere else), and stops once the closure holds every activity
//!   that uses a resource. Timer-only and latency-phase steps skip the
//!   solver entirely;
//! * the sharing problem is solved in a reusable [`SolverWorkspace`],
//!   which returns after the first bottleneck round when that round
//!   freezes every staged activity;
//! * upcoming completions sit in **min-heaps of predicted event times**,
//!   invalidated lazily: every rate change bumps a per-slot stamp, and
//!   entries whose stamp no longer matches are discarded when they surface.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::solver::{max_min_fair_rates, Demand, SolverError, SolverWorkspace};

/// Identifier of a resource within one [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// Raw index (stable for the engine's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an activity within one [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) u64);

impl ActivityId {
    /// Raw id. Dense and monotone from zero within one engine lifetime
    /// (ids restart after [`Engine::reset`]), which makes it usable as a
    /// direct index into caller-side per-activity tables.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Identifier of a timer within one [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Raw id. Monotone from zero within one engine lifetime (ids restart
    /// after [`Engine::reset`]), usable as a key into caller-side timer
    /// tables.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Specification of a new activity.
#[derive(Debug, Clone)]
pub struct ActivitySpec {
    /// Resource consumptions per unit of progress.
    pub weights: Vec<(ResourceId, f64)>,
    /// Total amount of work (progress units) to perform.
    pub amount: f64,
    /// Fixed delay before the work phase starts (seconds).
    pub latency: f64,
    /// Optional rate cap (progress units per second).
    pub rate_bound: f64,
}

impl ActivitySpec {
    /// A compute-style activity: `amount` units on the given resources.
    pub fn new(amount: f64) -> Self {
        ActivitySpec {
            weights: Vec::new(),
            amount,
            latency: 0.0,
            rate_bound: f64::INFINITY,
        }
    }

    /// Adds a resource consumption.
    #[must_use]
    pub fn on(mut self, resource: ResourceId, weight: f64) -> Self {
        self.weights.push((resource, weight));
        self
    }

    /// Sets the latency phase duration.
    #[must_use]
    pub fn with_latency(mut self, latency: f64) -> Self {
        self.latency = latency;
        self
    }

    /// Sets a rate cap.
    #[must_use]
    pub fn with_rate_bound(mut self, bound: f64) -> Self {
        self.rate_bound = bound;
        self
    }
}

/// Phase of a live activity.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ActState {
    /// Waiting out the latency until `expiry`; `amount` of work follows.
    Latency { expiry: f64, amount: f64 },
    /// Doing work: `rem` units left as of `since`, progressing at `rate`
    /// (`NaN` until the first solve assigns one).
    Working { rem: f64, rate: f64, since: f64 },
}

/// One live activity, stored in a slab slot.
#[derive(Debug, Clone)]
struct Slot {
    /// External id (monotone, never reused).
    id: u64,
    /// The activity's positive weights: `arena[w_off..w_off + w_len]`.
    w_off: u32,
    w_len: u32,
    rate_bound: f64,
    /// Rate this activity gets when it shares no resource with any other
    /// live activity, i.e. a re-solve over a closure containing only this
    /// activity. Stays valid for the slot's whole working phase unless a
    /// capacity it depends on is mutated ([`Engine::set_capacity`] resets
    /// it to NaN); computed by [`Engine::attach_working`] with exactly the
    /// solver's arithmetic, NaN when the weights are not strictly
    /// ascending by resource (then the staged solver runs instead).
    solo_rate: f64,
    state: ActState,
}

/// Predicted work-phase completion. Valid only while the slot's rate stamp
/// matches (every rate change and slot recycle bumps the stamp).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FinishEntry {
    time: f64,
    slot: u32,
    stamp: u32,
}

impl Eq for FinishEntry {}
impl Ord for FinishEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.slot.cmp(&other.slot))
            .then(self.stamp.cmp(&other.stamp))
    }
}
impl PartialOrd for FinishEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Latency-phase expiry. Valid only while the slot's incarnation matches.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LatencyEntry {
    time: f64,
    slot: u32,
    inc: u32,
}

impl Eq for LatencyEntry {}
impl Ord for LatencyEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.slot.cmp(&other.slot))
            .then(self.inc.cmp(&other.inc))
    }
}
impl PartialOrd for LatencyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Timer expiry (never invalidated).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimerEntry {
    time: f64,
    id: u64,
}

impl Eq for TimerEntry {}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.id.cmp(&other.id))
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One completed item reported by [`Engine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// An activity finished its work phase.
    Activity(ActivityId),
    /// A timer expired.
    Timer(TimerId),
}

/// Sizes of the [`Engine`]'s growable structures (see
/// [`Engine::memory_footprint`]). All counts are element counts, not
/// bytes: the audit cares about growth curves, not allocator detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Activity slab length (live + free-listed slots).
    pub slab_slots: usize,
    /// Slots currently on the free-list.
    pub free_slots: usize,
    /// Entries in the finish-prediction heap (live + stale).
    pub finish_heap: usize,
    /// Entries in the latency-phase heap (live + stale).
    pub latency_heap: usize,
    /// Entries in the timer heap.
    pub timer_heap: usize,
    /// Total resource→activity incidence entries (live + stale).
    pub incidence_entries: usize,
    /// Weight-arena entries (live activities' weights + garbage not yet
    /// compacted away).
    pub weight_arena: usize,
}

impl MemoryFootprint {
    /// The audit scalar: the largest single structure. A leak anywhere
    /// drives this up monotonically; bounded churn leaves it flat.
    pub fn high_water(&self) -> usize {
        self.slab_slots
            .max(self.finish_heap)
            .max(self.latency_heap)
            .max(self.timer_heap)
            .max(self.incidence_entries)
            .max(self.weight_arena)
    }
}

/// Outcome of one [`Engine::step`] call.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Simulated time at which the completions occurred.
    pub time: f64,
    /// Everything that completed at `time` (at least one element).
    pub completed: Vec<Completion>,
}

/// Errors produced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The underlying sharing solver rejected the problem.
    Solver(SolverError),
    /// An activity can never finish: it has remaining work but a rate of
    /// zero (e.g. it only uses zero-capacity resources) and nothing else is
    /// scheduled to change the situation.
    Stalled {
        /// The simulated time at which the stall was detected.
        time: f64,
    },
    /// The [`Watchdog`] tripped: the simulation ran past its time horizon
    /// or step budget without converging.
    Timeout {
        /// Simulated time when the watchdog fired.
        time: f64,
        /// Number of steps taken so far.
        steps: u64,
    },
    /// An activity spec contained a negative or NaN amount/latency.
    InvalidSpec {
        /// Human-readable description.
        context: &'static str,
    },
}

/// Divergence guard for [`Engine::step`].
///
/// A valid workload always terminates, but a buggy model (or an injected
/// fault that keeps resubmitting work) could advance simulated time forever
/// or spin through events without progressing. The watchdog converts both
/// into a typed [`EngineError::Timeout`] instead of a hang: `step` fails
/// once simulated time exceeds `max_time` or more than `max_steps` steps
/// have been taken. The default is disabled (both limits infinite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Watchdog {
    /// Simulated-time horizon (seconds); `f64::INFINITY` disables.
    pub max_time: f64,
    /// Step budget; `u64::MAX` disables.
    pub max_steps: u64,
    /// *Wall-clock* deadline; `None` disables. Unlike the two simulated
    /// bounds this guards the host, not the model: a service running
    /// simulations on behalf of clients can bound a single request's real
    /// time even when simulated time advances normally. Checked every
    /// [`Watchdog::WALL_CHECK_MASK`]+1 steps, so the common case costs one
    /// integer test per step.
    pub wall_deadline: Option<std::time::Instant>,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            max_time: f64::INFINITY,
            max_steps: u64::MAX,
            wall_deadline: None,
        }
    }
}

impl Watchdog {
    /// The wall-clock deadline is polled when
    /// `steps_taken & WALL_CHECK_MASK == 0` (every 4096 steps).
    pub const WALL_CHECK_MASK: u64 = 0xFFF;

    /// A watchdog bounding only simulated time.
    pub fn horizon(max_time: f64) -> Self {
        Watchdog {
            max_time,
            ..Watchdog::default()
        }
    }

    /// A watchdog bounding only the step count.
    pub fn steps(max_steps: u64) -> Self {
        Watchdog {
            max_steps,
            ..Watchdog::default()
        }
    }

    /// A watchdog bounding only host wall-clock time.
    pub fn wall(deadline: std::time::Instant) -> Self {
        Watchdog {
            wall_deadline: Some(deadline),
            ..Watchdog::default()
        }
    }

    /// Adds a wall-clock deadline to this watchdog.
    #[must_use]
    pub fn with_wall_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.wall_deadline = Some(deadline);
        self
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Solver(e) => write!(f, "sharing solver error: {e}"),
            EngineError::Stalled { time } => {
                write!(
                    f,
                    "simulation stalled at t={time}: activities cannot progress"
                )
            }
            EngineError::Timeout { time, steps } => {
                write!(f, "watchdog timeout at t={time} after {steps} steps")
            }
            EngineError::InvalidSpec { context } => write!(f, "invalid activity spec: {context}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SolverError> for EngineError {
    fn from(e: SolverError) -> Self {
        EngineError::Solver(e)
    }
}

/// The discrete-event fluid-sharing engine.
#[derive(Debug, Default)]
pub struct Engine {
    now: f64,
    capacities: Vec<f64>,
    /// Capacities as originally added, before any [`Engine::set_capacity`]
    /// mutation; [`Engine::reset`] restores these so a reset engine stays
    /// observationally identical to a freshly built one.
    base_capacities: Vec<f64>,
    /// Resources permanently removed by [`Engine::retire_resource`].
    retired: Vec<bool>,
    /// Set when a NaN/negative capacity was added; surfaced as a solver
    /// error on the next non-idle step (like the per-step validation of the
    /// from-scratch implementation used to).
    caps_invalid: bool,
    // Activity slab. `slot_inc` is the slot's occupancy incarnation
    // (validates incidence and latency-heap entries); `slot_stamp` changes
    // on every rate change (validates finish-heap entries).
    slots: Vec<Option<Slot>>,
    free_slots: Vec<u32>,
    n_live: usize,
    slot_inc: Vec<u32>,
    slot_stamp: Vec<u32>,
    next_activity: u64,
    next_timer: u64,
    // Positive `(resource, weight)` entries of every live activity; slot
    // ranges are appended by `start`, and `arena_garbage` counts the
    // entries of released slots. `arena_spare` is the compaction target.
    arena: Vec<(u32, f64)>,
    arena_spare: Vec<(u32, f64)>,
    arena_garbage: usize,
    // Resource → working activities as `(slot, incarnation)`, with stale
    // entries left behind until an attach compacts the list;
    // `res_live[r]` counts the live entries of `res_acts[r]`.
    res_acts: Vec<Vec<(u32, u32)>>,
    res_live: Vec<u32>,
    // Working activities with at least one weight: everything a closure
    // can hold.
    n_attached: usize,
    res_dirty: Vec<bool>,
    dirty_res: Vec<u32>,
    // Working activities attached since the last refresh, as
    // `(slot, incarnation)`: the other seeds of the closure search.
    fresh: Vec<(u32, u32)>,
    // Predicted events.
    finish_heap: BinaryHeap<Reverse<FinishEntry>>,
    latency_heap: BinaryHeap<Reverse<LatencyEntry>>,
    timer_heap: BinaryHeap<Reverse<TimerEntry>>,
    // Solver state.
    ws: SolverWorkspace,
    solves: u64,
    refreshes: u64,
    resources_visited: u64,
    single_round_solves: u64,
    // Reused scratch.
    closure_slots: Vec<u32>,
    act_mark: Vec<u64>,
    res_mark: Vec<u64>,
    mark_epoch: u64,
    finished_scratch: Vec<(u64, u32)>,
    latency_scratch: Vec<(u64, u32)>,
    timer_scratch: Vec<u64>,
    watchdog: Option<Watchdog>,
    steps_taken: u64,
}

impl Engine {
    /// Creates an empty engine at simulated time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a divergence [`Watchdog`]; `None` disables it.
    pub fn set_watchdog(&mut self, watchdog: Option<Watchdog>) {
        self.watchdog = watchdog;
    }

    /// Number of [`Engine::step`] calls that advanced the simulation.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Number of sharing-problem solves performed so far.
    ///
    /// Diagnostic for the incremental fast path: steps that only fire
    /// timers (or move activities through their latency phase) leave this
    /// counter unchanged.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Number of incremental refreshes that had something to re-solve (a
    /// newly working activity or a dirty resource). Timer-only steps leave
    /// it unchanged.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Number of resources whose incidence list the closure search walked.
    /// Only dirty resources and resources shared by at least two live
    /// incidence entries are walked.
    pub fn resources_visited(&self) -> u64 {
        self.resources_visited
    }

    /// Number of staged solves that ended after their first bottleneck
    /// round, without building the solver's reverse index.
    pub fn single_round_solves(&self) -> u64 {
        self.single_round_solves
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Adds a resource with the given capacity (units per second).
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must trip it too
        if !(capacity >= 0.0) {
            self.caps_invalid = true;
        }
        self.capacities.push(capacity);
        self.base_capacities.push(capacity);
        self.retired.push(false);
        self.res_acts.push(Vec::new());
        self.res_live.push(0);
        self.res_dirty.push(false);
        self.res_mark.push(0);
        ResourceId(self.capacities.len() - 1)
    }

    /// Current capacity of a resource, or `None` once it has been
    /// [retired](Engine::retire_resource) — a stale value must never be
    /// mistaken for a live one.
    pub fn capacity(&self, r: ResourceId) -> Option<f64> {
        if self.retired[r.0] {
            None
        } else {
            Some(self.capacities[r.0])
        }
    }

    /// The capacity a resource was originally added with, unaffected by
    /// [`Engine::set_capacity`] / [`Engine::retire_resource`].
    pub fn base_capacity(&self, r: ResourceId) -> f64 {
        self.base_capacities[r.0]
    }

    /// True once [`Engine::retire_resource`] removed the resource.
    pub fn is_retired(&self, r: ResourceId) -> bool {
        self.retired[r.0]
    }

    /// Mutates a resource's capacity mid-run (a timed platform
    /// disturbance: a host slowing down or a link degrading).
    ///
    /// The change rides the incremental dirty-set machinery: only the
    /// resource-connectivity component containing `r` re-solves on the
    /// next step. Cached solo rates of activities incident on `r` are
    /// invalidated, since they were computed under the old capacity.
    ///
    /// Retired resources stay at zero capacity; setting them is a no-op.
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) -> Result<(), EngineError> {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must trip it too
        if !(capacity >= 0.0) {
            return Err(EngineError::InvalidSpec {
                context: "capacity",
            });
        }
        if self.retired[r.0] {
            return Ok(());
        }
        if self.capacities[r.0] == capacity {
            return Ok(());
        }
        self.capacities[r.0] = capacity;
        self.mark_dirty(r.0);
        // Invalidate cached solo rates: `Slot::solo_rate` was derived from
        // the capacities at attach time, and the singleton fast path in
        // `refresh` would otherwise replay the stale value.
        for k in 0..self.res_acts[r.0].len() {
            let (s, ic) = self.res_acts[r.0][k];
            if self.slot_inc[s as usize] == ic {
                if let Some(slot) = self.slots[s as usize].as_mut() {
                    slot.solo_rate = f64::NAN;
                }
            }
        }
        Ok(())
    }

    /// Permanently removes a resource from the platform (a crashed host's
    /// core or link direction). Its capacity drops to zero, so activities
    /// that depend on it stall — callers are expected to
    /// [`cancel`](Engine::cancel) or re-plan them; an uncancelled
    /// dependent activity surfaces as a typed [`EngineError::Stalled`]
    /// (or a [`Watchdog`] timeout), never a spin.
    ///
    /// [`Engine::capacity`] returns `None` from here on;
    /// [`Engine::reset`] revives the resource at its base capacity.
    pub fn retire_resource(&mut self, r: ResourceId) {
        if self.retired[r.0] {
            return;
        }
        self.set_capacity(r, 0.0).expect("zero is a valid capacity");
        self.retired[r.0] = true;
    }

    /// Cancels a live activity (latency or work phase), dropping it
    /// without reporting a completion. Returns `false` when the id is not
    /// live (already finished or cancelled) — cancellation is idempotent.
    ///
    /// A working activity's shared resources are marked dirty so the
    /// surviving sharers re-solve to their new (higher) rates on the next
    /// step; a latency-phase activity holds no resource yet.
    pub fn cancel(&mut self, id: ActivityId) -> bool {
        let Some(slot) = self
            .slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|a| a.id == id.0))
        else {
            return false;
        };
        self.release(slot as u32);
        true
    }

    /// Rewinds the engine to simulated time zero, dropping every live
    /// activity, timer, and predicted event while keeping its resources
    /// (ids and capacities) and every internal buffer's allocation.
    ///
    /// A reset engine is observationally identical to a freshly built one
    /// with the same `add_resource` sequence: activity and timer ids restart
    /// at zero, the slab is empty, and the first post-reset solve sees
    /// exactly the same state a cold engine would. Hot loops that execute
    /// many short simulations on one platform reset instead of rebuilding,
    /// which keeps the slab, heaps, incidence index, and solver workspace
    /// warm.
    ///
    /// The watchdog is removed (re-install it per run).
    pub fn reset(&mut self) {
        self.now = 0.0;
        // Undo any mid-run disturbance: capacities return to their
        // as-added values and retired resources come back to life.
        self.capacities.copy_from_slice(&self.base_capacities);
        for r in &mut self.retired {
            *r = false;
        }
        self.slots.clear();
        self.free_slots.clear();
        self.n_live = 0;
        self.slot_inc.clear();
        self.slot_stamp.clear();
        self.next_activity = 0;
        self.next_timer = 0;
        self.arena.clear();
        self.arena_spare.clear();
        self.arena_garbage = 0;
        for acts in &mut self.res_acts {
            acts.clear();
        }
        self.res_live.fill(0);
        self.n_attached = 0;
        self.res_dirty.fill(false);
        self.dirty_res.clear();
        self.fresh.clear();
        self.finish_heap.clear();
        self.latency_heap.clear();
        self.timer_heap.clear();
        self.closure_slots.clear();
        self.act_mark.clear();
        // res_mark entries stay valid: marks are epoch-compared, and the
        // monotone mark_epoch keeps stale entries inert.
        self.finished_scratch.clear();
        self.latency_scratch.clear();
        self.timer_scratch.clear();
        self.watchdog = None;
        self.steps_taken = 0;
        self.solves = 0;
        self.refreshes = 0;
        self.resources_visited = 0;
        self.single_round_solves = 0;
    }

    /// Number of live (unfinished) activities.
    pub fn live_activities(&self) -> usize {
        self.n_live
    }

    /// Sizes of the engine's growable structures, for long-horizon memory
    /// audits: a workload with bounded concurrency must see every one of
    /// these plateau, no matter how many activities and timers churn
    /// through. (The heaps may carry stale stamped entries between pops,
    /// so their plateau is higher than `live_activities`, but it is still
    /// a plateau.)
    pub fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            slab_slots: self.slots.len(),
            free_slots: self.free_slots.len(),
            finish_heap: self.finish_heap.len(),
            latency_heap: self.latency_heap.len(),
            timer_heap: self.timer_heap.len(),
            incidence_entries: self.res_acts.iter().map(Vec::len).sum(),
            weight_arena: self.arena.len(),
        }
    }

    /// Number of pending timers.
    pub fn pending_timers(&self) -> usize {
        self.timer_heap.len()
    }

    /// True when nothing is pending — [`Engine::step`] would return `None`.
    pub fn is_idle(&self) -> bool {
        self.n_live == 0 && self.timer_heap.is_empty()
    }

    /// Starts an activity; it becomes visible to the sharing solver at the
    /// current simulated time.
    ///
    /// The spec is only read: its positive weights are copied into the
    /// engine's weight arena, so callers can refill one spec per activity.
    pub fn start(&mut self, spec: &ActivitySpec) -> Result<ActivityId, EngineError> {
        if spec.amount.is_nan() || spec.amount < 0.0 {
            return Err(EngineError::InvalidSpec { context: "amount" });
        }
        if spec.latency.is_nan() || spec.latency < 0.0 {
            return Err(EngineError::InvalidSpec { context: "latency" });
        }
        if spec.rate_bound.is_nan() || spec.rate_bound < 0.0 {
            return Err(EngineError::InvalidSpec {
                context: "rate bound",
            });
        }
        for &(r, w) in &spec.weights {
            if r.0 >= self.capacities.len() {
                return Err(EngineError::Solver(SolverError::UnknownResource {
                    activity: 0,
                    resource: r.0,
                }));
            }
            if w.is_nan() || w < 0.0 {
                return Err(EngineError::InvalidSpec { context: "weight" });
            }
        }
        let id = ActivityId(self.next_activity);
        self.next_activity += 1;
        let latency = spec.latency > 0.0;
        let state = if latency {
            ActState::Latency {
                expiry: self.now + spec.latency,
                amount: spec.amount,
            }
        } else {
            ActState::Working {
                rem: spec.amount,
                rate: f64::NAN,
                since: self.now,
            }
        };
        let expiry = self.now + spec.latency;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.slot_inc.push(0);
                self.slot_stamp.push(0);
                self.act_mark.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        // Compact before appending once released entries outnumber live
        // ones, so the arena stays within twice the live weights.
        if 2 * self.arena_garbage > self.arena.len() {
            self.compact_arena();
        }
        let w_off = self.arena.len();
        for &(r, w) in &spec.weights {
            if w > 0.0 {
                self.arena.push((r.0 as u32, w));
            }
        }
        self.slots[slot as usize] = Some(Slot {
            id: id.0,
            w_off: w_off as u32,
            w_len: (self.arena.len() - w_off) as u32,
            rate_bound: spec.rate_bound,
            solo_rate: f64::NAN,
            state,
        });
        self.n_live += 1;
        if latency {
            self.latency_heap.push(Reverse(LatencyEntry {
                time: expiry,
                slot,
                inc: self.slot_inc[slot as usize],
            }));
        } else {
            self.attach_working(slot, self.now);
        }
        Ok(id)
    }

    /// Schedules a timer `delay` seconds from now.
    pub fn schedule_timer(&mut self, delay: f64) -> Result<TimerId, EngineError> {
        if delay.is_nan() || delay < 0.0 {
            return Err(EngineError::InvalidSpec {
                context: "timer delay",
            });
        }
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.timer_heap.push(Reverse(TimerEntry {
            time: self.now + delay,
            id: id.0,
        }));
        Ok(id)
    }

    /// Solves current rates; exposed for white-box tests and diagnostics.
    /// Returns `(activity, rate)` pairs for working-phase activities.
    ///
    /// This re-solves the full problem from scratch (it cannot use the
    /// incremental state through `&self`); see [`Engine::solved_rates`] for
    /// the incremental path's view.
    pub fn current_rates(&self) -> Result<Vec<(ActivityId, f64)>, EngineError> {
        let mut working: Vec<&Slot> = self
            .slots
            .iter()
            .flatten()
            .filter(|a| matches!(a.state, ActState::Working { .. }))
            .collect();
        working.sort_unstable_by_key(|a| a.id);
        let demands: Vec<Demand> = working
            .iter()
            .map(|a| Demand {
                weights: self.arena[a.w_off as usize..(a.w_off + a.w_len) as usize]
                    .iter()
                    .map(|&(r, w)| (r as usize, w))
                    .collect(),
                bound: a.rate_bound,
            })
            .collect();
        let rates = max_min_fair_rates(&self.capacities, &demands)?;
        Ok(working
            .into_iter()
            .map(|a| ActivityId(a.id))
            .zip(rates)
            .collect())
    }

    /// Flushes any pending incremental re-solve and returns the engine's
    /// *cached* `(activity, rate)` pairs for working activities, sorted by
    /// activity id.
    ///
    /// Unlike [`Engine::current_rates`] this reports exactly what the
    /// incremental pipeline believes, which makes it the right probe for
    /// differential tests against a reference solver.
    ///
    /// # Errors
    ///
    /// Fails like a step would when a resource capacity is invalid.
    pub fn solved_rates(&mut self) -> Result<Vec<(ActivityId, f64)>, EngineError> {
        if self.caps_invalid {
            return Err(EngineError::Solver(SolverError::InvalidNumber {
                context: "resource capacity",
            }));
        }
        self.refresh();
        let mut out: Vec<(ActivityId, f64)> = self
            .slots
            .iter()
            .flatten()
            .filter_map(|a| match a.state {
                ActState::Working { rate, .. } => Some((ActivityId(a.id), rate)),
                ActState::Latency { .. } => None,
            })
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        Ok(out)
    }

    /// Advances simulated time to the next completion(s) and reports them.
    ///
    /// Returns `None` when nothing is pending. All completions occurring at
    /// the same instant are batched into one [`StepResult`].
    ///
    /// This allocates the result vector; hot loops should prefer
    /// [`Engine::step_into`], which reuses a caller-provided buffer.
    pub fn step(&mut self) -> Result<Option<StepResult>, EngineError> {
        let mut completed = Vec::new();
        match self.step_into(&mut completed)? {
            Some(time) => Ok(Some(StepResult { time, completed })),
            None => Ok(None),
        }
    }

    /// Allocation-free variant of [`Engine::step`]: advances to the next
    /// completion(s), filling `completed` (which is cleared first) and
    /// returning the simulated time they occurred at, or `None` when
    /// nothing is pending.
    ///
    /// In steady state (warmed buffers) this performs no heap allocation
    /// at all.
    pub fn step_into(
        &mut self,
        completed: &mut Vec<Completion>,
    ) -> Result<Option<f64>, EngineError> {
        completed.clear();
        const REL_EPS: f64 = 1e-12;
        loop {
            if self.is_idle() {
                return Ok(None);
            }
            if self.caps_invalid {
                return Err(EngineError::Solver(SolverError::InvalidNumber {
                    context: "resource capacity",
                }));
            }
            // Re-solve only what the last events made dirty (no-op for
            // timer-only wake-ups).
            self.refresh();

            let next_t = self.peek_next_time();
            if !next_t.is_finite() {
                return Err(EngineError::Stalled { time: self.now });
            }
            let next_dt = (next_t - self.now).max(0.0);
            let new_now = self.now + next_dt;

            self.steps_taken += 1;
            if let Some(wd) = self.watchdog {
                if new_now > wd.max_time || self.steps_taken > wd.max_steps {
                    return Err(EngineError::Timeout {
                        time: new_now,
                        steps: self.steps_taken,
                    });
                }
                // The wall-clock deadline needs a syscall, so it is only
                // polled every few thousand steps.
                if self.steps_taken & Watchdog::WALL_CHECK_MASK == 0 {
                    if let Some(deadline) = wd.wall_deadline {
                        if std::time::Instant::now() >= deadline {
                            return Err(EngineError::Timeout {
                                time: new_now,
                                steps: self.steps_taken,
                            });
                        }
                    }
                }
            }
            let tol = next_dt * REL_EPS + 1e-15;

            self.pop_finished(new_now, tol, completed);
            self.pop_latency(new_now, tol);
            self.pop_timers(new_now, tol, completed);
            self.now = new_now;

            if !completed.is_empty() {
                return Ok(Some(new_now));
            }
            // Pure latency-phase transition: loop to the next real
            // completion. Each turn counts against the watchdog, like the
            // old recursive implementation.
        }
    }

    /// Runs to quiescence, returning every step result in order.
    pub fn run_to_idle(&mut self) -> Result<Vec<StepResult>, EngineError> {
        let mut out = Vec::new();
        while let Some(step) = self.step()? {
            out.push(step);
        }
        Ok(out)
    }

    /// Moves every live slot's weights to the front of the arena (in slot
    /// order) and forgets the garbage. The live entries go through
    /// `arena_spare` and back, so each buffer keeps its role and a repeated
    /// run grows neither.
    fn compact_arena(&mut self) {
        let spare = &mut self.arena_spare;
        spare.clear();
        for a in self.slots.iter_mut().flatten() {
            let off = a.w_off as usize;
            a.w_off = spare.len() as u32;
            spare.extend_from_slice(&self.arena[off..off + a.w_len as usize]);
        }
        self.arena.clear();
        self.arena.extend_from_slice(spare);
        self.arena_garbage = 0;
    }

    /// Frees a live slot (finished or cancelled). A working activity
    /// leaves the incidence counts, and each resource it still shares
    /// with another entry turns dirty; its arena entries become garbage,
    /// and the arena empties once nothing is live.
    fn release(&mut self, slot: u32) {
        let su = slot as usize;
        let a = self.slots[su].take().expect("live slot");
        self.slot_inc[su] += 1;
        self.slot_stamp[su] += 1;
        self.free_slots.push(slot);
        self.n_live -= 1;
        if matches!(a.state, ActState::Working { .. }) && a.w_len > 0 {
            self.n_attached -= 1;
            let off = a.w_off as usize;
            let range = off..off + a.w_len as usize;
            // Count every entry out first: a resource listed twice by this
            // activity must not look shared with itself.
            for k in range.clone() {
                self.res_live[self.arena[k].0 as usize] -= 1;
            }
            for k in range {
                let r = self.arena[k].0 as usize;
                if self.res_live[r] > 0 {
                    self.mark_dirty(r);
                }
            }
        }
        if self.n_live == 0 {
            self.arena.clear();
            self.arena_garbage = 0;
        } else {
            self.arena_garbage += a.w_len as usize;
        }
    }

    /// Registers a freshly-working activity with the incidence index and
    /// the closure search's seeds, and seeds its finish prediction where
    /// the solver will never see it (empty demand, or nothing left to do).
    fn attach_working(&mut self, slot: u32, now: f64) {
        let s = slot as usize;
        let inc = self.slot_inc[s];
        let a = self.slots[s].as_ref().expect("live slot");
        let (off, len) = (a.w_off as usize, a.w_len as usize);
        // The arena holds positive weights only.
        let constrained = len > 0;
        // While wiring up the incidence index, also precompute the rate
        // this activity would get from a re-solve it does not share with
        // anyone (`Slot::solo_rate`): the ascending-resource bottleneck
        // scan below replays the solver's cross-multiplied comparison and
        // final division exactly, so `refresh` can skip staging whole
        // singleton closures. Only valid when the entries are strictly
        // ascending by resource — then the entry order equals the solver's
        // sorted scan order and no aggregation happens.
        let mut sorted_strict = true;
        let mut prev_r: i64 = -1;
        let mut bn_rem = 0.0_f64;
        let mut bn_tw = 0.0_f64;
        for k in off..off + len {
            let (r, w) = self.arena[k];
            let ru = r as usize;
            let acts = &mut self.res_acts[ru];
            acts.push((slot, inc));
            self.res_live[ru] += 1;
            // Compact here rather than on every visit: the closure search
            // skips single-user lists, and this keeps every list within
            // about twice its live entries.
            if acts.len() >= 2 * self.res_live[ru] as usize + 2 {
                let slot_inc = &self.slot_inc;
                acts.retain(|&(s, ic)| slot_inc[s as usize] == ic);
            }
            if i64::from(r) <= prev_r {
                sorted_strict = false;
            }
            prev_r = i64::from(r);
            let crem = self.capacities[ru].max(0.0);
            let smaller = if bn_tw == 0.0 {
                true
            } else {
                let lhs = crem * bn_tw;
                let rhs = bn_rem * w;
                if lhs.is_finite() && rhs.is_finite() {
                    lhs < rhs
                } else {
                    crem / w < bn_rem / bn_tw
                }
            };
            if smaller {
                bn_rem = crem;
                bn_tw = w;
            }
        }
        let a = self.slots[s].as_mut().expect("live slot");
        let (rem, bound) = match a.state {
            ActState::Working { rem, .. } => (rem, a.rate_bound),
            ActState::Latency { .. } => unreachable!("attach_working on latency activity"),
        };
        if !constrained {
            // Never enters the solver: the rate is just the bound (matching
            // the solver's empty-demand rule).
            if let ActState::Working { ref mut rate, .. } = a.state {
                *rate = bound;
            }
        } else {
            self.n_attached += 1;
            self.fresh.push((slot, inc));
            if sorted_strict {
                let bottleneck_rate = bn_rem / bn_tw;
                let tightest = if bound.is_finite() {
                    bound
                } else {
                    f64::INFINITY
                };
                a.solo_rate = if tightest < bottleneck_rate {
                    tightest
                } else if !bottleneck_rate.is_finite() {
                    bound
                } else {
                    bottleneck_rate
                };
            }
        }
        let stamp = self.slot_stamp[s];
        if rem <= 0.0 {
            self.finish_heap.push(Reverse(FinishEntry {
                time: now,
                slot,
                stamp,
            }));
        } else if !constrained && bound > 0.0 {
            // rem / f64::INFINITY == 0.0: unbounded empty demands finish
            // immediately, like the from-scratch engine's dt computation.
            self.finish_heap.push(Reverse(FinishEntry {
                time: now + rem / bound,
                slot,
                stamp,
            }));
        }
        // Constrained activities get their entry when `refresh` assigns a
        // rate; zero-rate unconstrained ones legitimately have none (stall).
    }

    fn mark_dirty(&mut self, r: usize) {
        if !self.res_dirty[r] {
            self.res_dirty[r] = true;
            self.dirty_res.push(r as u32);
        }
    }

    /// Adds every not-yet-seen live activity on resource `r` to `closure`.
    fn walk(&mut self, r: usize, epoch: u64, closure: &mut Vec<u32>) {
        self.res_mark[r] = epoch;
        self.resources_visited += 1;
        for &(s, ic) in &self.res_acts[r] {
            let su = s as usize;
            if self.slot_inc[su] == ic && self.act_mark[su] != epoch {
                self.act_mark[su] = epoch;
                closure.push(s);
            }
        }
    }

    /// Incremental re-solve: collect the resource-connectivity closure of
    /// the newly working activities and the dirty resources, re-solve just
    /// those activities in the shared workspace, and re-predict finish
    /// times for the ones whose rate actually changed.
    ///
    /// Exact because max-min fair allocations decompose over resource
    /// connectivity components: rates outside the closure cannot change.
    /// The search walks a dirty resource while any live entry remains on
    /// it, and otherwise only resources with at least two live entries: an
    /// activity's other resources connect it to nobody. It stops as soon
    /// as the closure holds every attached activity; on a cluster whose
    /// routes all cross one backbone, that is the usual case.
    fn refresh(&mut self) {
        if self.dirty_res.is_empty() && self.fresh.is_empty() {
            return;
        }
        self.refreshes += 1;
        self.mark_epoch += 1;
        let epoch = self.mark_epoch;
        let mut closure = std::mem::take(&mut self.closure_slots);
        closure.clear();
        for &(s, ic) in &self.fresh {
            let su = s as usize;
            if self.slot_inc[su] == ic && self.act_mark[su] != epoch {
                self.act_mark[su] = epoch;
                closure.push(s);
            }
        }
        self.fresh.clear();
        for k in 0..self.dirty_res.len() {
            let r = self.dirty_res[k] as usize;
            self.res_dirty[r] = false;
            if closure.len() < self.n_attached && self.res_live[r] > 0 && self.res_mark[r] != epoch
            {
                self.walk(r, epoch, &mut closure);
            }
        }
        self.dirty_res.clear();
        // `closure` doubles as the work list: each member's shared
        // resources pull in their activities, which are expanded in turn,
        // until it holds every attached activity and nothing is left to
        // find.
        let mut next = 0;
        while next < closure.len() && closure.len() < self.n_attached {
            let a = self.slots[closure[next] as usize].as_ref().expect("slot");
            next += 1;
            let (off, len) = (a.w_off as usize, a.w_len as usize);
            for k in off..off + len {
                let r = self.arena[k].0 as usize;
                if self.res_live[r] >= 2 && self.res_mark[r] != epoch {
                    self.walk(r, epoch, &mut closure);
                    if closure.len() == self.n_attached {
                        break;
                    }
                }
            }
        }

        if !closure.is_empty() {
            // Singleton closure whose activity has a precomputed solo rate:
            // the re-solve's outcome is already known (capacity mutations
            // reset the cache and the activity shares no resource), so
            // skip staging and solving entirely.
            let solo = if closure.len() == 1 {
                self.slots[closure[0] as usize]
                    .as_ref()
                    .expect("slot")
                    .solo_rate
            } else {
                f64::NAN
            };
            let use_solo = !solo.is_nan();
            if !use_solo {
                // Stage in ascending activity-id order so FP-sensitive solver
                // internals (accumulation and tie-breaking order) match a
                // from-scratch solve over the same component.
                closure
                    .sort_unstable_by_key(|&s| self.slots[s as usize].as_ref().expect("slot").id);
                self.ws.clear_stage();
                for &s in &closure {
                    let a = self.slots[s as usize].as_ref().expect("slot");
                    let off = a.w_off as usize;
                    for &(r, w) in &self.arena[off..off + a.w_len as usize] {
                        self.ws.push_weight(r as usize, w);
                    }
                    self.ws.push_activity(a.rate_bound);
                }
                if self.ws.solve_staged(&self.capacities) {
                    self.single_round_solves += 1;
                }
            }
            self.solves += 1;

            let now = self.now;
            for (j, &s) in closure.iter().enumerate() {
                let su = s as usize;
                let new_rate = if use_solo { solo } else { self.ws.rates()[j] };
                let a = self.slots[su].as_mut().expect("slot");
                if let ActState::Working {
                    ref mut rem,
                    ref mut rate,
                    ref mut since,
                } = a.state
                {
                    if new_rate == *rate {
                        // Unchanged: the existing prediction stays valid.
                        continue;
                    }
                    let old = *rate;
                    // Fold progress made under the old rate (guarded: a NaN
                    // sentinel or infinite rate must not poison `rem`).
                    if old.is_finite() && old > 0.0 && now > *since {
                        *rem -= old * (now - *since);
                        if *rem < 0.0 {
                            *rem = 0.0;
                        }
                    }
                    *rate = new_rate;
                    *since = now;
                    let rem_v = *rem;
                    self.slot_stamp[su] += 1;
                    let stamp = self.slot_stamp[su];
                    if rem_v <= 0.0 {
                        self.finish_heap.push(Reverse(FinishEntry {
                            time: now,
                            slot: s,
                            stamp,
                        }));
                    } else if new_rate > 0.0 {
                        self.finish_heap.push(Reverse(FinishEntry {
                            time: now + rem_v / new_rate,
                            slot: s,
                            stamp,
                        }));
                    }
                    // Zero rate: no prediction; the step turns this into a
                    // stall unless something else is pending.
                }
            }
        }

        self.closure_slots = closure;
    }

    /// Earliest pending event time across all three heaps, discarding stale
    /// entries as they surface.
    fn peek_next_time(&mut self) -> f64 {
        let mut next = f64::INFINITY;
        while let Some(&Reverse(e)) = self.finish_heap.peek() {
            if self.slot_stamp[e.slot as usize] != e.stamp {
                self.finish_heap.pop();
                continue;
            }
            next = next.min(e.time);
            break;
        }
        while let Some(&Reverse(e)) = self.latency_heap.peek() {
            if self.slot_inc[e.slot as usize] != e.inc {
                self.latency_heap.pop();
                continue;
            }
            next = next.min(e.time);
            break;
        }
        if let Some(&Reverse(e)) = self.timer_heap.peek() {
            next = next.min(e.time);
        }
        next
    }

    /// Pops every work-phase completion predicted at or before
    /// `new_now + tol`, frees the slots, and reports them in ascending
    /// activity-id order.
    fn pop_finished(&mut self, new_now: f64, tol: f64, completed: &mut Vec<Completion>) {
        let limit = new_now + tol;
        let mut scratch = std::mem::take(&mut self.finished_scratch);
        scratch.clear();
        while let Some(&Reverse(e)) = self.finish_heap.peek() {
            if self.slot_stamp[e.slot as usize] != e.stamp {
                self.finish_heap.pop();
                continue;
            }
            if e.time > limit {
                break;
            }
            self.finish_heap.pop();
            let id = self.slots[e.slot as usize]
                .as_ref()
                .expect("finishing slot")
                .id;
            scratch.push((id, e.slot));
        }
        scratch.sort_unstable();
        for &(id, slot) in &scratch {
            self.release(slot);
            completed.push(Completion::Activity(ActivityId(id)));
        }
        self.finished_scratch = scratch;
    }

    /// Moves every activity whose latency expires at or before
    /// `new_now + tol` into its work phase (no completion is reported).
    fn pop_latency(&mut self, new_now: f64, tol: f64) {
        let limit = new_now + tol;
        let mut scratch = std::mem::take(&mut self.latency_scratch);
        scratch.clear();
        while let Some(&Reverse(e)) = self.latency_heap.peek() {
            if self.slot_inc[e.slot as usize] != e.inc {
                self.latency_heap.pop();
                continue;
            }
            if e.time > limit {
                break;
            }
            self.latency_heap.pop();
            let id = self.slots[e.slot as usize]
                .as_ref()
                .expect("latency slot")
                .id;
            scratch.push((id, e.slot));
        }
        scratch.sort_unstable();
        for &(_, slot) in &scratch {
            let su = slot as usize;
            {
                let a = self.slots[su].as_mut().expect("latency slot");
                let amount = match a.state {
                    ActState::Latency { amount, .. } => amount,
                    ActState::Working { .. } => unreachable!("latency entry for working slot"),
                };
                a.state = ActState::Working {
                    rem: amount,
                    rate: f64::NAN,
                    since: new_now,
                };
            }
            self.attach_working(slot, new_now);
        }
        self.latency_scratch = scratch;
    }

    /// Pops every timer expiring at or before `new_now + tol`, reporting
    /// them in ascending timer-id order after any activity completions.
    fn pop_timers(&mut self, new_now: f64, tol: f64, completed: &mut Vec<Completion>) {
        let limit = new_now + tol;
        let mut scratch = std::mem::take(&mut self.timer_scratch);
        scratch.clear();
        while let Some(&Reverse(e)) = self.timer_heap.peek() {
            if e.time > limit {
                break;
            }
            self.timer_heap.pop();
            scratch.push(e.id);
        }
        scratch.sort_unstable();
        for &id in &scratch {
            completed.push(Completion::Timer(TimerId(id)));
        }
        self.timer_scratch = scratch;
    }
}
