//! Unit helpers and constants used across the workspace.
//!
//! All simulators in this workspace use SI base units internally: seconds,
//! floating-point operations ("flops" as a count), bytes, flops/s, bytes/s.
//! These helpers make platform descriptions read like the paper's prose
//! ("250 MFlop/s", "1 Gb/s", "100 µs").

/// One megaflop per second, in flops/s.
pub const MFLOPS: f64 = 1.0e6;

/// One megabyte, in bytes.
pub const MB: f64 = 1.0e6;

/// One gigabit per second, in **bytes**/s.
pub const GBPS: f64 = 1.0e9 / 8.0;

/// One microsecond, in seconds.
pub const MICROSECOND: f64 = 1.0e-6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_is_125_megabytes_per_second() {
        assert!((GBPS - 125.0e6).abs() < 1e-6);
    }

    #[test]
    fn compute_seconds_matches_paper_example() {
        // 2 * 2000^3 flops at 250 MFlop/s = 64 s.
        let t = 2.0 * 2000.0_f64.powi(3) / (250.0 * MFLOPS);
        assert!((t - 64.0).abs() < 1e-9);
    }

    #[test]
    fn matrix_sizes_match_paper() {
        // n=2000 doubles: 2000^2 * 8 bytes = 32 MB (paper: "30MB").
        const DOUBLE_BYTES: f64 = 8.0;
        let n2000 = 2000.0_f64 * 2000.0 * DOUBLE_BYTES;
        assert!((n2000 / MB - 32.0).abs() < 1e-9);
        // n=3000: 72 MB (paper: "68MB" — they quote MiB; both are the same
        // byte count).
        let n3000 = 3000.0_f64 * 3000.0 * DOUBLE_BYTES;
        assert!((n3000 / MB - 72.0).abs() < 1e-9);
        // In MiB: 30.5 and 68.7 — matching the paper's "30MB and 68MB".
        assert!((n2000 / (1024.0 * 1024.0) - 30.5).abs() < 0.1);
        assert!((n3000 / (1024.0 * 1024.0) - 68.7).abs() < 0.1);
    }
}
