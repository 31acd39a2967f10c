//! Differential tests for the incremental engine pipeline.
//!
//! The engine's dirty-set / component-closure re-solver must agree with
//! the frozen from-scratch solver `max_min_fair_rates_ref` at every point
//! of an arbitrary start/step sequence, its shortcuts must give exactly
//! the bits of a staged solve on the star platforms they were built for,
//! and the timer-only fast path must demonstrably skip solves.

use std::collections::HashMap;

use mps_des::{
    ActivityId, ActivitySpec, Completion, Demand, Engine, EngineError, ResourceId, SolverWorkspace,
};
use mps_oracle::max_min_fair_rates_ref;
use proptest::prelude::*;
use proptest::TestRng;

/// Rates agree when both are infinite or within 1e-9 relative.
fn rates_agree(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// One live activity as the test sees it: id, staged weights, rate bound.
type LiveActivity = (ActivityId, Vec<(usize, f64)>, f64);

/// Mirror of the engine's live working set, maintained from the outside:
/// the test knows what it started and sees what completed.
struct Mirror {
    caps: Vec<f64>,
    /// Live activities, ascending id.
    live: Vec<LiveActivity>,
}

impl Mirror {
    fn reference_rates(&self) -> Vec<(ActivityId, f64)> {
        let demands: Vec<Demand> = self
            .live
            .iter()
            .map(|(_, weights, bound)| Demand {
                weights: weights.clone(),
                bound: *bound,
            })
            .collect();
        let rates = max_min_fair_rates_ref(&self.caps, &demands).expect("valid problem");
        self.live.iter().map(|(id, _, _)| *id).zip(rates).collect()
    }
}

fn check_against_reference(engine: &mut Engine, mirror: &Mirror) {
    let got = engine.solved_rates().expect("solved_rates");
    let want = mirror.reference_rates();
    assert_eq!(
        got.len(),
        want.len(),
        "live set diverged: engine {got:?} vs reference {want:?}"
    );
    for (&(id, rate), &(want_id, want_rate)) in got.iter().zip(&want) {
        assert_eq!(id, want_id, "live set order diverged");
        assert!(
            rates_agree(rate, want_rate),
            "activity {id:?}: incremental {rate} vs reference {want_rate}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings of starts and steps: after every mutation
    /// the engine's cached incremental rates match a from-scratch solve of
    /// the same live set by the frozen reference solver.
    #[test]
    fn incremental_rates_match_reference_over_sequences(
        caps in proptest::collection::vec(0.5f64..100.0, 1..6),
        ops in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..6, 0.0f64..3.0), 0..4), // weights
                0.1f64..50.0,                                              // amount
                any::<bool>(),                                             // bounded rate?
                0.5f64..20.0,                                              // bound value
                any::<bool>(),                                             // step after?
            ),
            1..12,
        ),
    ) {
        let mut engine = Engine::new();
        let res: Vec<ResourceId> = caps.iter().map(|&c| engine.add_resource(c)).collect();
        let mut mirror = Mirror { caps, live: Vec::new() };

        for (weights, amount, bounded, bound_val, step_after) in ops {
            let bound = if bounded { bound_val } else { f64::INFINITY };
            let mut spec = ActivitySpec::new(amount).with_rate_bound(bound);
            let mut mirror_weights = Vec::new();
            for (ri, w) in weights {
                let r = ri % res.len();
                spec = spec.on(res[r], w);
                if w > 0.0 {
                    mirror_weights.push((r, w));
                }
            }
            let id = engine.start(&spec).expect("start");
            mirror.live.push((id, mirror_weights, bound));
            check_against_reference(&mut engine, &mirror);

            if step_after && !engine.is_idle() {
                if let Some(step) = engine.step().expect("step") {
                    for c in &step.completed {
                        if let Completion::Activity(done) = c {
                            mirror.live.retain(|(id, _, _)| id != done);
                        }
                    }
                    check_against_reference(&mut engine, &mirror);
                }
            }
        }
    }
}

/// Timer-only steps must not re-enter the solver: `Engine::solves` stays
/// flat while a timer storm fires under live activities, and completions
/// do perturb it.
#[test]
fn timer_only_steps_skip_the_solver() {
    let mut e = Engine::new();
    let r = e.add_resource(10.0);
    for _ in 0..4 {
        e.start(&ActivitySpec::new(1.0e9).on(r, 1.0))
            .expect("start");
    }
    for i in 0..20 {
        e.schedule_timer(0.01 * (i + 1) as f64).expect("timer");
    }
    // First step solves the initial sharing problem once.
    e.step().expect("step").expect("not idle");
    let after_first = e.solves();
    assert!(after_first >= 1);
    for _ in 0..19 {
        let step = e.step().expect("step").expect("not idle");
        assert!(step
            .completed
            .iter()
            .all(|c| matches!(c, Completion::Timer(_))));
    }
    assert_eq!(
        e.solves(),
        after_first,
        "timer-only steps re-entered the solver"
    );

    // A genuine completion does require a re-solve.
    let quick = e.start(&ActivitySpec::new(0.5).on(r, 1.0)).expect("start");
    let step = e.step().expect("step").expect("not idle");
    assert!(step.completed.contains(&Completion::Activity(quick)));
    assert!(e.solves() > after_first);
}

/// Four two-host activities that share only a backbone, beside one that
/// shares nothing: the closure search walks the backbone alone (each host
/// CPU carries one live entry and leads nowhere) and stops once it holds
/// every attached activity, a closure whose members share one bottleneck
/// skips the staged solve, timer-only steps skip the refresh, and `reset`
/// clears every counter.
#[test]
fn closure_search_visits_only_shared_resources() {
    let mut e = Engine::new();
    let cpus: Vec<ResourceId> = (0..9).map(|_| e.add_resource(100.0)).collect();
    let backbone = e.add_resource(10.0);
    let acts: Vec<ActivityId> = (0..4)
        .map(|i| {
            let spec = ActivitySpec::new((i + 1) as f64)
                .on(cpus[2 * i], 1.0)
                .on(cpus[2 * i + 1], 1.0)
                .on(backbone, 1.0);
            e.start(&spec).expect("start")
        })
        .collect();
    e.start(&ActivitySpec::new(1.0e3).on(cpus[8], 1.0))
        .expect("start");
    for i in 0..3 {
        e.schedule_timer(0.1 * (i + 1) as f64).expect("timer");
    }
    let counters = |e: &Engine| {
        (
            e.refreshes(),
            e.resources_visited(),
            e.solves(),
            e.single_round_solves(),
            e.shared_bottleneck_solves(),
        )
    };

    // One refresh seeded with all five new activities: the closure holds
    // every attached activity before any resource is walked. The lone
    // activity's bottleneck is its CPU, not the backbone, so the closure
    // is solved staged: the backbone freezes its four at 10 / 4, and the
    // lone activity needs a second round.
    let rates = e.solved_rates().expect("rates");
    assert_eq!(rates.len(), 5);
    assert!(rates[..4].iter().all(|&(_, r)| r == 2.5), "rates {rates:?}");
    assert_eq!(counters(&e), (1, 0, 1, 0, 0));

    for _ in 0..3 {
        let step = e.step().expect("step").expect("not idle");
        assert!(step
            .completed
            .iter()
            .all(|c| matches!(c, Completion::Timer(_))));
    }
    assert_eq!(counters(&e), (1, 0, 1, 0, 0), "timer-only steps refreshed");

    // The first activity finishes: its CPUs are left empty, so only the
    // backbone turns dirty. Walking it finds the three survivors, whose
    // CPUs lead nowhere; they re-solve alone, and since the backbone is
    // every survivor's bottleneck, by the summed rate 10 / 3 instead of a
    // staged solve.
    let step = e.step().expect("step").expect("not idle");
    assert_eq!(step.completed, vec![Completion::Activity(acts[0])]);
    let rates = e.solved_rates().expect("rates");
    assert!(
        rates[..3].iter().all(|&(_, r)| r == 10.0 / 3.0),
        "rates {rates:?}"
    );
    assert_eq!(counters(&e), (2, 1, 2, 0, 1));

    // A rate-bounded newcomer on the backbone pulls in the three others
    // through the backbone alone, and undercuts the bottleneck: the
    // shortcut declines, and the staged solve needs a second round.
    e.start(
        &ActivitySpec::new(1.0)
            .on(backbone, 1.0)
            .with_rate_bound(0.1),
    )
    .expect("start");
    e.solved_rates().expect("rates");
    assert_eq!(counters(&e), (3, 2, 3, 0, 1));

    e.reset();
    assert_eq!(counters(&e), (0, 0, 0, 0, 0));
}

/// A star platform: host `h` sends on `up[h]` and receives on `down[h]`,
/// and every cross-host byte also crosses the one backbone. The backbone
/// is added first or last: the lowest index wins a bottleneck tie, so its
/// position decides which resource a one-flow transfer's tie picks.
struct Star {
    /// Every resource, in the order added (`ResourceId::index` order).
    resources: Vec<ResourceId>,
    up: Vec<ResourceId>,
    down: Vec<ResourceId>,
    backbone: ResourceId,
}

impl Star {
    /// Adds a star of `hosts` hosts to `engine`, the `k`-th resource added
    /// with capacity `caps[k]`.
    fn build(engine: &mut Engine, hosts: usize, backbone_first: bool, caps: &[f64]) -> Star {
        let mut resources = Vec::new();
        let mut add = |engine: &mut Engine| {
            let r = engine.add_resource(caps[resources.len()]);
            resources.push(r);
            r
        };
        let first = backbone_first.then(|| add(engine));
        let (mut up, mut down) = (Vec::new(), Vec::new());
        for _ in 0..hosts {
            up.push(add(engine));
            down.push(add(engine));
        }
        let backbone = first.unwrap_or_else(|| add(engine));
        Star {
            resources,
            up,
            down,
            backbone,
        }
    }

    /// The weights of a transfer made of `(src, dst, bytes)` flows, as the
    /// L07 model builds a redistribution: per resource, the bytes that
    /// cross it. Same-host flows cross nothing. `merged` gives one entry
    /// per resource in ascending order; otherwise each flow's three
    /// entries follow in flow order.
    fn transfer(&self, flows: &[(usize, usize, f64)], merged: bool) -> Vec<(ResourceId, f64)> {
        let hosts = self.up.len();
        let mut entries = Vec::new();
        for &(src, dst, bytes) in flows {
            let (src, dst) = (src % hosts, dst % hosts);
            if src != dst {
                entries.extend([
                    (self.up[src], bytes),
                    (self.backbone, bytes),
                    (self.down[dst], bytes),
                ]);
            }
        }
        if merged {
            let mut used: Vec<ResourceId> = entries.iter().map(|&(r, _)| r).collect();
            used.sort_unstable();
            used.dedup();
            entries = used
                .into_iter()
                .map(|r| {
                    let w = entries.iter().filter(|e| e.0 == r).map(|e| e.1).sum();
                    (r, w)
                })
                .collect();
        }
        entries
    }
}

/// One operation of a star sequence: `(kind, flows, (amount, latency
/// phase?, latency), (bound?, bound), (resource, capacity), shape)`.
/// Kinds 0–4 start a transfer, 5–7 step, 8 sets a capacity (zero when
/// the drawn value is below 5) and 9 retires a resource. A transfer is
/// bounded when `bound?` is 0 and lists its entries in flow order when
/// `shape` is 0; otherwise it is merged, as the L07 model builds it.
type StarOp = (
    u32,
    Vec<(usize, usize, f64)>,
    (f64, bool, f64),
    (u32, f64),
    (usize, f64),
    u32,
);

/// Runs one star sequence. After every operation the engine's rates must
/// equal, bit for bit, a `SolverWorkspace::solve` of its working set in
/// id order. Returns how many closures took the shared-bottleneck
/// shortcut.
fn run_star_case(
    case: usize,
    hosts: usize,
    backbone_first: bool,
    caps: &[f64],
    ops: &[StarOp],
) -> u64 {
    let mut engine = Engine::new();
    let star = Star::build(&mut engine, hosts, backbone_first, caps);
    let mut caps = caps[..star.resources.len()].to_vec();
    let mut retired = vec![false; caps.len()];
    let mut live: HashMap<ActivityId, (Vec<(ResourceId, f64)>, f64)> = HashMap::new();
    let mut ws = SolverWorkspace::new();
    for (k, (kind, flows, (amount, has_latency, latency), (bounded, bound), (res, cap), shape)) in
        ops.iter().enumerate()
    {
        let r = res % caps.len();
        match kind {
            0..=4 => {
                let weights = star.transfer(flows, *shape != 0);
                let bound = if *bounded == 0 { *bound } else { f64::INFINITY };
                let mut spec = ActivitySpec::new(*amount).with_rate_bound(bound);
                if *has_latency {
                    spec = spec.with_latency(*latency);
                }
                for &(r, w) in &weights {
                    spec = spec.on(r, w);
                }
                let id = engine.start(&spec).expect("start");
                live.insert(id, (weights, bound));
            }
            5..=7 => match engine.step() {
                Ok(Some(step)) => {
                    for c in &step.completed {
                        if let Completion::Activity(done) = c {
                            live.remove(done);
                        }
                    }
                }
                // Everything left runs on a retired or zero-capacity link.
                Ok(None) | Err(EngineError::Stalled { .. }) => {}
                Err(e) => panic!("case {case} op {k}: step failed: {e}"),
            },
            8 => {
                let cap = if *cap < 5.0 { 0.0 } else { *cap };
                engine
                    .set_capacity(star.resources[r], cap)
                    .expect("set_capacity");
                if !retired[r] {
                    caps[r] = cap;
                }
            }
            _ => {
                engine.retire_resource(star.resources[r]);
                retired[r] = true;
                caps[r] = 0.0;
            }
        }
        let got = engine.solved_rates().expect("solved_rates");
        let demands: Vec<Demand> = got
            .iter()
            .map(|(id, _)| {
                let (weights, bound) = &live[id];
                Demand {
                    weights: weights.iter().map(|&(r, w)| (r.index(), w)).collect(),
                    bound: *bound,
                }
            })
            .collect();
        let want = ws.solve(&caps, &demands).expect("valid problem");
        for (&(id, rate), &want) in got.iter().zip(want) {
            assert_eq!(
                rate.to_bits(),
                want.to_bits(),
                "case {case} op {k}: activity {id:?}: engine {rate} vs staged solve {want}"
            );
        }
    }
    engine.shared_bottleneck_solves()
}

/// Seeded property test on star platforms, with equal or unequal link
/// capacities, multi-flow transfers with and without latency phases and
/// finite bounds, and capacity changes and retirements mid-sequence:
/// whichever path each closure takes (solo rate, shared bottleneck or
/// staged solve), the engine's rates equal a staged solve of the whole
/// working set to the bit. The shortcut must have fired, so the test
/// cannot pass vacuously.
#[test]
fn star_rates_are_bit_identical_to_a_staged_solve() {
    use proptest::collection::vec;
    const CASES: usize = 256;
    let mut rng = TestRng::deterministic(concat!(
        module_path!(),
        "::star_rates_are_bit_identical_to_a_staged_solve"
    ));
    let platform = (
        2usize..7,
        any::<bool>(),
        any::<bool>(),
        vec(0.5f64..100.0, 13),
    );
    let op = (
        0u32..10,
        vec((0usize..8, 0usize..8, 1.0f64..4.0), 1..6),
        (0.1f64..50.0, any::<bool>(), 0.01f64..1.0),
        (0u32..4, 0.05f64..20.0),
        (0usize..64, 0.0f64..100.0),
        0u32..8,
    );
    let ops = vec(op, 1..32);
    let mut fired = 0;
    for case in 0..CASES {
        let (hosts, backbone_first, equal, mut caps) = platform.sample(&mut rng);
        if equal {
            let first = caps[0];
            caps.fill(first);
        }
        fired += run_star_case(case, hosts, backbone_first, &caps, &ops.sample(&mut rng));
    }
    assert!(fired > 0, "the shared-bottleneck shortcut never fired");
}

/// Two concurrent multi-flow transfers on a star of equal links: each
/// crosses the backbone with all its bytes and every private link with a
/// part of them, so the backbone is both transfers' bottleneck and their
/// closure takes the summed rate `cap / (w₀ + w₁)` without a staged solve.
#[test]
fn concurrent_multi_flow_transfers_share_the_backbone_without_a_staged_solve() {
    let mut e = Engine::new();
    let star = Star::build(&mut e, 4, false, &[10.0; 9]);
    // Backbone weights 3 and 2; no private link carries more than 2.
    let transfers = [
        star.transfer(&[(0, 1, 1.0), (2, 3, 2.0)], true),
        star.transfer(&[(1, 0, 1.5), (3, 2, 0.5)], true),
    ];
    for weights in &transfers {
        let spec = weights
            .iter()
            .fold(ActivitySpec::new(100.0), |spec, &(r, w)| spec.on(r, w));
        e.start(&spec).expect("start");
    }
    let rates = e.solved_rates().expect("rates");
    assert!(
        rates.iter().all(|&(_, r)| r == 10.0 / 5.0),
        "rates {rates:?}"
    );
    assert_eq!(
        (
            e.solves(),
            e.shared_bottleneck_solves(),
            e.single_round_solves()
        ),
        (1, 1, 0)
    );
}
