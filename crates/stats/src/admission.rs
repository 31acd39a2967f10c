//! The shed policy both admission front doors share: the online engine's
//! bounded backlog and the daemon's request queue.
//!
//! Each caller keeps its own capacity test and reports the decision here.
//! A shed job gets a retry hint sized so a client that honours it finds
//! the queue drained with high probability: the EMA of observed job times
//! (the band floor before any job finished) × (jobs ahead + 1), clamped
//! to [[`RETRY_MIN_MS`], [`RETRY_MAX_MS`]]. The online engine feeds it
//! simulated milliseconds, so the same trace gives the same hints.

/// Smoothing factor of the job-time EMA (~the last 8 jobs dominate).
const EMA_ALPHA: f64 = 0.25;
/// Smallest retry hint, in milliseconds.
pub const RETRY_MIN_MS: f64 = 50.0;
/// Largest retry hint, in milliseconds.
pub const RETRY_MAX_MS: f64 = 60_000.0;

/// Admitted/shed counters, the job-time EMA, and the retry hint.
#[derive(Debug, Clone, Default)]
pub struct ShedPolicy {
    /// EMA of observed job times, milliseconds (0 before any sample).
    ema_ms: f64,
    admitted: u64,
    shed: u64,
}

impl ShedPolicy {
    /// Counts one admitted job.
    pub fn admit(&mut self) {
        self.admitted += 1;
    }

    /// Counts one shed job with `ahead` jobs queued or running before it,
    /// and returns its retry hint in milliseconds.
    pub fn shed(&mut self, ahead: usize) -> u64 {
        self.shed += 1;
        let per_job = if self.ema_ms > 0.0 {
            self.ema_ms
        } else {
            RETRY_MIN_MS
        };
        let hint = per_job * (ahead + 1) as f64;
        hint.clamp(RETRY_MIN_MS, RETRY_MAX_MS).round() as u64
    }

    /// Records a finished job's time in milliseconds. The first sample
    /// seeds the EMA; a negative or non-finite time is ignored.
    pub fn observe(&mut self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        self.ema_ms = if self.ema_ms == 0.0 {
            ms
        } else {
            EMA_ALPHA * ms + (1.0 - EMA_ALPHA) * self.ema_ms
        };
    }

    /// Jobs admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Jobs shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Current job-time EMA, milliseconds (0 before any sample).
    pub fn ema_ms(&self) -> f64 {
        self.ema_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The online engine's capacity test: `backlog + inflight < cap`.
    fn offer(p: &mut ShedPolicy, cap: usize, backlog: usize, inflight: usize) -> Option<u64> {
        if backlog + inflight < cap {
            p.admit();
            None
        } else {
            Some(p.shed(backlog + inflight))
        }
    }

    #[test]
    fn admits_under_cap_sheds_at_cap() {
        let mut p = ShedPolicy::default();
        assert_eq!(offer(&mut p, 4, 0, 0), None);
        assert_eq!(offer(&mut p, 4, 1, 2), None);
        assert!(offer(&mut p, 4, 2, 2).is_some());
        assert!(offer(&mut p, 4, 10, 0).is_some());
        assert_eq!(p.admitted(), 2);
        assert_eq!(p.shed_count(), 2);
    }

    #[test]
    fn zero_cap_sheds_everything() {
        let mut p = ShedPolicy::default();
        assert!(offer(&mut p, 0, 0, 0).is_some());
        assert_eq!((p.admitted(), p.shed_count()), (0, 1));
    }

    #[test]
    fn retry_hint_scales_with_load_and_clamps() {
        let mut p = ShedPolicy::default();
        p.observe(100.0);
        let a = p.shed(1);
        let b = p.shed(7);
        assert!(
            b > a,
            "deeper backlog must yield a longer hint ({a} vs {b})"
        );
        // Enormous EMA clamps to the band ceiling.
        for _ in 0..4 {
            p.observe(1e9);
        }
        assert_eq!(p.shed(50), RETRY_MAX_MS as u64);
    }

    #[test]
    fn hint_without_history_uses_floor() {
        let mut p = ShedPolicy::default();
        assert_eq!(p.shed(1), 100); // 50 ms floor × (1 ahead + 1)
    }

    #[test]
    fn ema_converges_toward_recent_sojourns() {
        let mut p = ShedPolicy::default();
        p.observe(1000.0);
        for _ in 0..40 {
            p.observe(100.0);
        }
        assert!((p.ema_ms() - 100.0).abs() < 1.0);
    }
}
