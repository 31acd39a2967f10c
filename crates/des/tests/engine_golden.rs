//! Golden regression for the engine: seeded random operation sequences on a
//! small platform, pinned to the bit.
//!
//! Each sequence interleaves starts (with and without a latency phase,
//! with duplicate resource entries, zero weights and finite rate bounds),
//! cancels in the latency and in the work phase, capacity changes,
//! resource retirements, timers and steps. After every operation the
//! transcript records the completion batch of a step (time bits, activity
//! and timer ids) and the `to_bits` of every rate [`Engine::solved_rates`]
//! reports. `engine_golden.txt` pins one FNV-1a digest per sequence, so
//! any change to event order, completion time or a single rate bit fails
//! here, where `incremental.rs` only checks rates to within 1e-9.

use std::fmt::Write as _;

use mps_des::{ActivityId, ActivitySpec, Completion, Engine, ResourceId};

const GOLDEN: &str = include_str!("engine_golden.txt");
const SEQUENCES: u64 = 64;
const OPS: usize = 96;
const RESOURCES: usize = 6;
/// Steps allowed to drain a sequence once its operations are done.
const DRAIN_STEPS: usize = 4096;

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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How often each kind of operation ran over all sequences; every count
/// must be non-zero, or the golden pins less than it claims.
#[derive(Debug, Default)]
struct Coverage {
    plain_starts: u32,
    latency_starts: u32,
    duplicate_entries: u32,
    zero_weights: u32,
    finite_bounds: u32,
    latency_cancels: u32,
    work_cancels: u32,
    capacity_changes: u32,
    retirements: u32,
    timers: u32,
    multi_activity_steps: u32,
}

/// A live activity as the test sees it: its id and the resources it uses
/// with a positive weight.
struct Live {
    id: ActivityId,
    resources: Vec<usize>,
}

struct Sequence {
    engine: Engine,
    res: Vec<ResourceId>,
    retired: Vec<bool>,
    live: Vec<Live>,
    /// Activities in their work phase, as of the last `solved_rates`.
    working: Vec<ActivityId>,
    out: String,
}

impl Sequence {
    fn alive_resource(&self, rng: &mut Rng) -> usize {
        loop {
            let r = rng.below(RESOURCES);
            if !self.retired[r] {
                return r;
            }
        }
    }

    fn start(&mut self, rng: &mut Rng, cov: &mut Coverage) {
        let mut spec = ActivitySpec::new(if rng.below(16) == 0 {
            0.0
        } else {
            0.1 + 20.0 * rng.unit()
        });
        let mut positive: Vec<usize> = Vec::new();
        let mut listed: Vec<usize> = Vec::new();
        for _ in 0..rng.below(5) {
            let r = match listed.last() {
                Some(&prev) if rng.below(4) == 0 => prev,
                _ => self.alive_resource(rng),
            };
            if listed.contains(&r) {
                cov.duplicate_entries += 1;
            }
            listed.push(r);
            let w = if rng.below(5) == 0 {
                cov.zero_weights += 1;
                0.0
            } else {
                0.1 + 3.0 * rng.unit()
            };
            if w > 0.0 && !positive.contains(&r) {
                positive.push(r);
            }
            spec = spec.on(self.res[r], w);
        }
        if rng.below(3) == 0 {
            cov.latency_starts += 1;
            spec = spec.with_latency(0.01 + 2.0 * rng.unit());
        } else {
            cov.plain_starts += 1;
        }
        if rng.below(3) == 0 {
            cov.finite_bounds += 1;
            spec = spec.with_rate_bound(0.5 + 10.0 * rng.unit());
        }
        let id = self.engine.start(&spec).expect("valid spec");
        let _ = writeln!(self.out, "start {}", id.raw());
        self.live.push(Live {
            id,
            resources: positive,
        });
    }

    fn cancel(&mut self, k: usize, cov: &mut Coverage) {
        let a = self.live.swap_remove(k);
        if self.working.contains(&a.id) {
            cov.work_cancels += 1;
        } else {
            cov.latency_cancels += 1;
        }
        assert!(self.engine.cancel(a.id), "live activity must cancel");
        let _ = writeln!(self.out, "cancel {}", a.id.raw());
    }

    fn retire(&mut self, rng: &mut Rng, cov: &mut Coverage) {
        if self.retired.iter().filter(|&&d| !d).count() <= 2 {
            return;
        }
        let r = self.alive_resource(rng);
        cov.retirements += 1;
        self.engine.retire_resource(self.res[r]);
        self.retired[r] = true;
        let _ = writeln!(self.out, "retire {r}");
        // Like a re-planning caller: drop what can no longer progress.
        while let Some(k) = self.live.iter().position(|a| a.resources.contains(&r)) {
            self.cancel(k, cov);
        }
    }

    /// One step; `false` once the engine is idle or fails.
    fn step(&mut self, cov: &mut Coverage) -> bool {
        match self.engine.step() {
            Ok(None) => false,
            Ok(Some(step)) => {
                let _ = write!(self.out, "step {:016x}", step.time.to_bits());
                let mut finished = 0;
                for c in &step.completed {
                    match c {
                        Completion::Activity(id) => {
                            finished += 1;
                            self.live.retain(|a| a.id != *id);
                            let _ = write!(self.out, " a{}", id.raw());
                        }
                        Completion::Timer(id) => {
                            let _ = write!(self.out, " t{}", id.raw());
                        }
                    }
                }
                if finished > 1 {
                    cov.multi_activity_steps += 1;
                }
                self.out.push('\n');
                true
            }
            Err(e) => {
                let _ = writeln!(self.out, "error {e}");
                false
            }
        }
    }

    fn record_rates(&mut self) {
        let rates = self.engine.solved_rates().expect("valid capacities");
        self.working.clear();
        self.out.push_str("rates");
        for (id, rate) in rates {
            self.working.push(id);
            let _ = write!(self.out, " {}:{:016x}", id.raw(), rate.to_bits());
        }
        self.out.push('\n');
    }
}

/// The transcript of one seeded sequence.
fn transcript(seed: u64, cov: &mut Coverage) -> String {
    let mut rng = Rng(0x60_1DE7 ^ seed.wrapping_mul(0x9e37_79b9));
    let mut engine = Engine::new();
    let res: Vec<ResourceId> = (0..RESOURCES)
        .map(|_| engine.add_resource(0.5 + 100.0 * rng.unit()))
        .collect();
    let mut s = Sequence {
        engine,
        res,
        retired: vec![false; RESOURCES],
        live: Vec::new(),
        working: Vec::new(),
        out: String::new(),
    };
    for _ in 0..OPS {
        match rng.below(20) {
            0..=7 => s.start(&mut rng, cov),
            8..=13 => {
                if !s.step(cov) && !s.engine.is_idle() {
                    return s.out;
                }
            }
            14 | 15 => {
                if !s.live.is_empty() {
                    let k = rng.below(s.live.len());
                    s.cancel(k, cov);
                }
            }
            16 => {
                let r = s.alive_resource(&mut rng);
                let cap = 0.5 + 100.0 * rng.unit();
                cov.capacity_changes += 1;
                s.engine
                    .set_capacity(s.res[r], cap)
                    .expect("valid capacity");
                let _ = writeln!(s.out, "capacity {r} {:016x}", cap.to_bits());
            }
            17 | 18 => {
                cov.timers += 1;
                let id = s.engine.schedule_timer(3.0 * rng.unit()).expect("timer");
                let _ = writeln!(s.out, "timer {}", id.raw());
            }
            _ => s.retire(&mut rng, cov),
        }
        s.record_rates();
    }
    for _ in 0..DRAIN_STEPS {
        if !s.step(cov) {
            break;
        }
        s.record_rates();
    }
    assert!(s.engine.is_idle(), "seed {seed}: sequence did not drain");
    s.out
}

#[test]
fn seeded_operation_sequences_match_the_golden_digests() {
    let mut cov = Coverage::default();
    let mut got = String::new();
    for seed in 0..SEQUENCES {
        let t = transcript(seed, &mut cov);
        assert!(!t.contains("error"), "seed {seed} failed:\n{t}");
        let _ = writeln!(
            got,
            "{seed} {} {:016x}",
            t.lines().count(),
            fnv64(t.as_bytes())
        );
    }
    for (name, n) in [
        ("plain starts", cov.plain_starts),
        ("latency starts", cov.latency_starts),
        ("duplicate entries", cov.duplicate_entries),
        ("zero weights", cov.zero_weights),
        ("finite bounds", cov.finite_bounds),
        ("latency-phase cancels", cov.latency_cancels),
        ("work-phase cancels", cov.work_cancels),
        ("capacity changes", cov.capacity_changes),
        ("retirements", cov.retirements),
        ("timers", cov.timers),
        (
            "steps finishing several activities",
            cov.multi_activity_steps,
        ),
    ] {
        assert!(n > 0, "the sequences never exercised {name}: {cov:?}");
    }
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let got_lines: Vec<&str> = got.lines().collect();
    assert_eq!(
        got_lines.len(),
        want.len(),
        "sequence count changed; current digests:\n{got}"
    );
    for (g, w) in got_lines.iter().zip(&want) {
        assert_eq!(
            g, w,
            "engine transcript diverged (seed, records, digest); current digests:\n{got}"
        );
    }
}
