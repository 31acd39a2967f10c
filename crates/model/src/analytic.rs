//! The purely analytical performance model (§IV).
//!
//! Task execution time is the kernel's per-processor flop count divided by
//! the benchmarked machine rate (250 MFlop/s for the paper's JVM kernels,
//! 4165.3 MFLOPS for PDGEMM on the Cray XT4). No startup overhead, no
//! redistribution overhead — those omissions are exactly what §V-C
//! identifies as the root causes of the analytic simulator's uselessness.

use mps_kernels::Kernel;

use crate::traits::PerfModel;

/// The analytic model: `T(kernel, p) = flops_per_proc(kernel, p) / rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticModel {
    /// Machine flop rate used for predictions (flops/s).
    pub flops_per_sec: f64,
}

impl AnalyticModel {
    /// The paper's JVM-benchmarked rate: 250 MFlop/s.
    pub fn paper_jvm() -> Self {
        AnalyticModel {
            flops_per_sec: 250.0e6,
        }
    }
}

impl PerfModel for AnalyticModel {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn task_time(&self, kernel: Kernel, p: usize) -> f64 {
        kernel.flops_per_proc(p) / self.flops_per_sec
    }

    fn simulate_task_analytically(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_serial_time_is_64s() {
        let m = AnalyticModel::paper_jvm();
        assert!((m.task_time(Kernel::MatMul { n: 2000 }, 1) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_scaling() {
        let m = AnalyticModel::paper_jvm();
        let k = Kernel::MatMul { n: 2000 };
        for p in [2usize, 4, 8, 16, 32] {
            let expected = 64.0 / p as f64;
            assert!((m.task_time(k, p) - expected).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn addition_is_8x_cheaper() {
        let m = AnalyticModel::paper_jvm();
        let mm = m.task_time(Kernel::MatMul { n: 3000 }, 4);
        let ma = m.task_time(Kernel::MatAdd { n: 3000 }, 4);
        assert!((mm / ma - 8.0).abs() < 1e-9);
    }

    #[test]
    fn no_overheads_and_analytic_simulation() {
        let m = AnalyticModel::paper_jvm();
        assert_eq!(m.startup_overhead(32), 0.0);
        assert_eq!(m.redist_overhead(16, 32), 0.0);
        assert!(m.simulate_task_analytically());
        assert_eq!(m.name(), "analytic");
    }

    #[test]
    fn cray_model_rate() {
        // The paper's Cray XT4 (Franklin) PDGEMM rate: 4165.3 MFLOPS.
        let m = AnalyticModel {
            flops_per_sec: 4165.3e6,
        };
        // 2·4096³ / 4165.3e6 ≈ 33 s serial.
        let t = m.task_time(Kernel::MatMul { n: 4096 }, 1);
        assert!((t - 2.0 * 4096.0_f64.powi(3) / 4165.3e6).abs() < 1e-9);
    }

    #[test]
    fn for_cluster_matches_platform_speed() {
        // The paper's JVM rate is the Bayreuth cluster's nominal speed.
        let c = mps_platform::Cluster::bayreuth();
        let speed = c.host_speed(mps_platform::HostId(0));
        assert!((AnalyticModel::paper_jvm().flops_per_sec - speed).abs() < 1.0);
    }
}
