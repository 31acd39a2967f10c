//! Bounded admission queue: the daemon's backpressure seam.
//!
//! Every request passes [`AdmissionQueue::try_admit`] before any work
//! happens. A full queue sheds the request with the retry hint of the
//! shared [`ShedPolicy`] over the queue's service times — the client gets a typed `Overloaded`
//! response on an open connection instead of a hung or dropped one.
//! Executors pull admitted jobs with [`AdmissionQueue::next`]; a drain
//! stops admissions immediately, lets admitted work finish, and
//! [`AdmissionQueue::abort`] dumps the backlog when a second signal
//! demands an immediate stop.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use mps_stats::{QuantileSketch, ShedPolicy};

/// Counters a [`ClientFrame::Health`](crate::proto::ClientFrame) reply is
/// built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Jobs waiting.
    pub depth: u64,
    /// Admission bound.
    pub capacity: u64,
    /// Jobs currently executing.
    pub inflight: u64,
    /// Jobs completed.
    pub served: u64,
    /// Jobs shed at admission.
    pub shed: u64,
    /// Exponential moving average of job service time (milliseconds).
    pub ema_service_ms: f64,
    /// Streaming median of job service time (milliseconds; 0.0 until a
    /// job finishes).
    pub p50_service_ms: f64,
    /// Streaming 99th percentile of job service time (milliseconds).
    pub p99_service_ms: f64,
    /// True once draining.
    pub draining: bool,
}

/// Admission verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued; executors will pick it up.
    Admitted,
    /// Shed: the queue is at capacity.
    Shed {
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// Refused: the server is draining.
    Draining,
}

struct Inner<T> {
    queue: VecDeque<T>,
    inflight: u64,
    served: u64,
    policy: ShedPolicy,
    latency: QuantileSketch,
    draining: bool,
}

/// A bounded MPMC job queue with admission control and drain support.
pub struct AdmissionQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` waiting jobs (≥ 1).
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                inflight: 0,
                served: 0,
                policy: ShedPolicy::default(),
                latency: QuantileSketch::new(),
                draining: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits `job` or sheds it. Never blocks.
    pub fn try_admit(&self, job: T) -> Admission {
        let mut g = self.inner.lock().unwrap();
        if g.draining {
            return Admission::Draining;
        }
        if g.queue.len() >= self.capacity {
            // Every queued and running job is ahead of this one.
            let ahead = g.queue.len() + g.inflight as usize;
            let retry_after_ms = g.policy.shed(ahead);
            return Admission::Shed { retry_after_ms };
        }
        g.policy.admit();
        g.queue.push_back(job);
        drop(g);
        self.ready.notify_one();
        Admission::Admitted
    }

    /// Blocks for the next job; `None` once the queue is draining and
    /// empty (the executor's signal to exit). Increments `inflight`.
    pub fn next(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(job) = g.queue.pop_front() {
                g.inflight += 1;
                return Some(job);
            }
            if g.draining {
                return None;
            }
            g = self.ready.wait(g).unwrap();
        }
    }

    /// Records a finished job and its service time. The time is kept in
    /// fractional milliseconds: a whole-millisecond count would record a
    /// sub-millisecond job as 0 and leave the retry hint at its cold-start
    /// guess.
    pub fn finish(&self, service: Duration) {
        let mut g = self.inner.lock().unwrap();
        g.inflight = g.inflight.saturating_sub(1);
        g.served += 1;
        let x = service.as_secs_f64() * 1e3;
        g.policy.observe(x);
        g.latency.observe(x);
        drop(g);
        // Wake drain waiters polling `drained`.
        self.ready.notify_all();
    }

    /// Stops admissions. Queued jobs still run; executors exit once the
    /// backlog is empty.
    pub fn start_drain(&self) {
        self.inner.lock().unwrap().draining = true;
        self.ready.notify_all();
    }

    /// Dumps the backlog (for an aborted drain) and returns it so the
    /// caller can notify the owning clients.
    pub fn abort(&self) -> Vec<T> {
        let mut g = self.inner.lock().unwrap();
        g.draining = true;
        let dumped: Vec<T> = g.queue.drain(..).collect();
        drop(g);
        self.ready.notify_all();
        dumped
    }

    /// True once draining with no queued or in-flight work left.
    pub fn drained(&self) -> bool {
        let g = self.inner.lock().unwrap();
        g.draining && g.queue.is_empty() && g.inflight == 0
    }

    /// Current counters.
    pub fn stats(&self) -> QueueStats {
        let g = self.inner.lock().unwrap();
        QueueStats {
            depth: g.queue.len() as u64,
            capacity: self.capacity as u64,
            inflight: g.inflight,
            served: g.served,
            shed: g.policy.shed_count(),
            ema_service_ms: g.policy.ema_ms(),
            p50_service_ms: g.latency.p50(),
            p99_service_ms: g.latency.p99(),
            draining: g.draining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_stats::admission::{RETRY_MAX_MS, RETRY_MIN_MS};

    #[test]
    fn admits_up_to_capacity_then_sheds_with_a_hint() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_admit(1), Admission::Admitted);
        assert_eq!(q.try_admit(2), Admission::Admitted);
        match q.try_admit(3) {
            Admission::Shed { retry_after_ms } => {
                assert!(retry_after_ms as f64 >= RETRY_MIN_MS);
                assert!(retry_after_ms as f64 <= RETRY_MAX_MS);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(q.stats().shed, 1);
        assert_eq!(q.stats().depth, 2);
    }

    #[test]
    fn retry_hint_tracks_the_service_time_ema() {
        let q = AdmissionQueue::new(1);
        assert_eq!(q.try_admit(1), Admission::Admitted);
        // One served job at 1 s establishes the EMA.
        assert_eq!(q.next(), Some(1));
        q.finish(Duration::from_secs(1));
        assert_eq!(q.try_admit(2), Admission::Admitted);
        match q.try_admit(3) {
            Admission::Shed { retry_after_ms } => {
                // One queued + none inflight + self = 2 jobs ≈ 2 s.
                assert!(
                    (1500..=3000).contains(&retry_after_ms),
                    "hint {retry_after_ms}"
                );
            }
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn sub_millisecond_service_times_give_the_minimum_retry_hint() {
        // The default daemon: 16 queue slots, 2 executors.
        let q = AdmissionQueue::new(16);
        for job in 0..20 {
            assert_eq!(q.try_admit(job), Admission::Admitted);
            assert_eq!(q.next(), Some(job));
            q.finish(Duration::from_micros(50));
        }
        let s = q.stats();
        assert!((s.ema_service_ms - 0.05).abs() < 1e-9, "{s:?}");
        assert!(s.p50_service_ms > 0.0, "{s:?}");
        // Two jobs executing, 16 waiting.
        for job in 0..18 {
            assert_eq!(q.try_admit(job), Admission::Admitted);
            if job < 2 {
                assert_eq!(q.next(), Some(job));
            }
        }
        // 19 jobs ahead at 0.05 ms each: the floor, not 19 × 50 ms.
        assert_eq!(
            q.try_admit(99),
            Admission::Shed {
                retry_after_ms: RETRY_MIN_MS as u64
            }
        );
    }

    #[test]
    fn a_cold_queue_hints_50_ms_per_job() {
        let q = AdmissionQueue::new(2);
        q.try_admit(1);
        q.try_admit(2);
        assert_eq!(q.next(), Some(1));
        q.try_admit(3);
        // Three jobs ahead (one running, two queued); none has finished.
        assert_eq!(
            q.try_admit(4),
            Admission::Shed {
                retry_after_ms: 200
            }
        );
    }

    #[test]
    fn drain_refuses_new_work_and_empties() {
        let q = AdmissionQueue::new(4);
        q.try_admit(1);
        q.start_drain();
        assert_eq!(q.try_admit(2), Admission::Draining);
        assert!(!q.drained(), "job 1 still queued");
        assert_eq!(q.next(), Some(1));
        assert!(!q.drained(), "job 1 in flight");
        q.finish(Duration::from_millis(10));
        assert!(q.drained());
        assert_eq!(q.next(), None, "executors see the drain");
    }

    #[test]
    fn abort_dumps_the_backlog() {
        let q = AdmissionQueue::new(4);
        q.try_admit(1);
        q.try_admit(2);
        assert_eq!(q.abort(), vec![1, 2]);
        assert!(q.drained());
    }

    #[test]
    fn executors_block_until_work_arrives() {
        use std::sync::Arc;
        let q = Arc::new(AdmissionQueue::new(2));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.next());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_admit(99);
        assert_eq!(h.join().unwrap(), Some(99));
    }
}
