//! Long-horizon memory audit: a bounded-concurrency workload churned
//! through one million events must leave every growable engine structure
//! — the activity slab, its free-list, the three lazy heaps, the
//! resource→activity incidence index, and the weight arena — at a plateau. Monotone growth in
//! any of them is a leak (e.g. stale heap stamps never reclaimed), which
//! a streaming workload would only notice as an OOM hours in.

use mps_des::{ActivitySpec, Engine, MemoryFootprint};

/// Deterministic splitmix64 stream (no external RNG in this crate).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const RESOURCES: usize = 32;
const CONCURRENCY: usize = 64;
const HORIZON_EVENTS: u64 = 1_000_000;
/// Events before the high-water mark is frozen. Generous: steady state
/// is reached within a few hundred events.
const WARMUP_EVENTS: u64 = 100_000;

/// Spawns one unit of churn on the first `usable` resources: 1–3
/// ascending resources (exercising both the solo-rate fast path and the
/// shared solver), a latency phase one time in four, a pure timer one
/// time in four.
fn spawn_one(engine: &mut Engine, rng: &mut Rng, resources: &[mps_des::ResourceId]) {
    let usable = resources.len();
    match rng.next() % 4 {
        0 => {
            engine.schedule_timer(0.01 + rng.unit()).unwrap();
        }
        _ => {
            let first = (rng.next() as usize) % usable;
            let width = 1 + (rng.next() as usize) % 3;
            let mut spec = ActivitySpec::new(0.1 + rng.unit());
            for k in 0..width {
                let r = first + k;
                if r < usable {
                    spec = spec.on(resources[r], 1.0 + k as f64);
                }
            }
            if rng.next().is_multiple_of(4) {
                spec = spec.with_latency(0.001 + rng.unit() * 0.01);
            }
            engine.start(&spec).unwrap();
        }
    }
}

fn max_footprint(a: MemoryFootprint, b: MemoryFootprint) -> MemoryFootprint {
    MemoryFootprint {
        slab_slots: a.slab_slots.max(b.slab_slots),
        free_slots: a.free_slots.max(b.free_slots),
        finish_heap: a.finish_heap.max(b.finish_heap),
        latency_heap: a.latency_heap.max(b.latency_heap),
        timer_heap: a.timer_heap.max(b.timer_heap),
        incidence_entries: a.incidence_entries.max(b.incidence_entries),
        weight_arena: a.weight_arena.max(b.weight_arena),
    }
}

#[test]
fn million_event_churn_plateaus() {
    let mut engine = Engine::new();
    let resources: Vec<_> = (0..RESOURCES).map(|_| engine.add_resource(4.0)).collect();
    let mut rng = Rng(0x5EED_2011);
    for _ in 0..CONCURRENCY {
        spawn_one(&mut engine, &mut rng, &resources);
    }

    let mut events = 0u64;
    let mut completions = Vec::new();
    let mut warm_hw = MemoryFootprint::default();
    let mut late_hw = MemoryFootprint::default();
    while events < HORIZON_EVENTS {
        let stepped = engine.step_into(&mut completions).unwrap();
        assert!(stepped.is_some(), "churn workload must never go idle");
        events += completions.len() as u64;
        // Replace whatever finished so concurrency stays bounded and
        // every slot/heap entry cycles through alloc → free → reuse.
        for _ in 0..completions.len() {
            spawn_one(&mut engine, &mut rng, &resources);
        }
        let fp = engine.memory_footprint();
        if events <= WARMUP_EVENTS {
            warm_hw = max_footprint(warm_hw, fp);
        } else {
            late_hw = max_footprint(late_hw, fp);
        }
    }

    assert!(events >= HORIZON_EVENTS);
    // The plateau contract: after the first 10% of the horizon, no
    // structure's high-water mark may exceed what the warmup already
    // reached. Equality is not required (a rare heap-stale pile-up can
    // peak slightly later), but growth proportional to the horizon is a
    // leak — 2x headroom over a 10x longer run separates the two crisply.
    for (name, warm, late) in [
        ("slab_slots", warm_hw.slab_slots, late_hw.slab_slots),
        ("free_slots", warm_hw.free_slots, late_hw.free_slots),
        ("finish_heap", warm_hw.finish_heap, late_hw.finish_heap),
        ("latency_heap", warm_hw.latency_heap, late_hw.latency_heap),
        ("timer_heap", warm_hw.timer_heap, late_hw.timer_heap),
        (
            "incidence_entries",
            warm_hw.incidence_entries,
            late_hw.incidence_entries,
        ),
        ("weight_arena", warm_hw.weight_arena, late_hw.weight_arena),
    ] {
        assert!(
            late <= warm.max(8) * 2,
            "{name} grew past its warmup plateau: warmup high-water {warm}, \
             post-warmup high-water {late} over {HORIZON_EVENTS} events"
        );
    }
    // And the slab itself must be far below the event count: slots are
    // reused, not appended.
    assert!(
        late_hw.slab_slots < 4 * CONCURRENCY,
        "slab ballooned to {} slots for {} concurrent activities",
        late_hw.slab_slots,
        CONCURRENCY
    );
}

#[test]
fn retire_and_capacity_churn_do_not_leak() {
    // Mid-run mutations (PR 9's disturbance hooks) must not strand
    // incidence entries: capacities flip and a resource is retired every
    // few thousand events while activities keep churning.
    let mut engine = Engine::new();
    let resources: Vec<_> = (0..RESOURCES).map(|_| engine.add_resource(4.0)).collect();
    let mut rng = Rng(0xFACE_FEED);
    for _ in 0..CONCURRENCY {
        spawn_one(&mut engine, &mut rng, &resources);
    }
    let mut events = 0u64;
    let mut completions = Vec::new();
    let mut hw = 0usize;
    let mut hw_at_warmup = 0usize;
    while events < 200_000 {
        if engine.step_into(&mut completions).unwrap().is_none() {
            spawn_one(&mut engine, &mut rng, &resources);
            continue;
        }
        events += completions.len() as u64;
        for _ in 0..completions.len() {
            spawn_one(&mut engine, &mut rng, &resources);
        }
        if events % 4096 < completions.len() as u64 {
            // Capacity wiggle on a random live resource (never to zero:
            // the churn must keep completing).
            let r = resources[(rng.next() as usize) % (RESOURCES - 1)];
            if !engine.is_retired(r) {
                engine.set_capacity(r, 2.0 + 4.0 * rng.unit()).unwrap();
            }
        }
        hw = hw.max(engine.memory_footprint().high_water());
        if events <= 20_000 {
            hw_at_warmup = hw;
        }
    }
    // Retire the last resource once, then keep churning on the others
    // (activities stranded on the retired resource stall by contract;
    // new churn avoids it, like a re-planning caller would).
    engine.retire_resource(resources[RESOURCES - 1]);
    let survivors = &resources[..RESOURCES - 1];
    let mut post_retire_hw = 0usize;
    let target = events + 100_000;
    while events < target {
        if engine.step_into(&mut completions).unwrap().is_none() {
            spawn_one(&mut engine, &mut rng, survivors);
            continue;
        }
        events += completions.len() as u64;
        for _ in 0..completions.len() {
            spawn_one(&mut engine, &mut rng, survivors);
        }
        post_retire_hw = post_retire_hw.max(engine.memory_footprint().high_water());
    }
    assert!(
        post_retire_hw <= hw.max(hw_at_warmup) * 2,
        "footprint grew after retire: pre {hw}, post {post_retire_hw}"
    );
}
