//! Schedule representation and validation.
//!
//! A schedule is what the paper's simulator hands to the execution
//! framework: "the order in which the tasks must be executed as well as the
//! processors used for each task" (§V-A). Estimated start/finish times are
//! carried along for reporting, but executors only rely on the order and
//! the processor sets.

use serde::{Deserialize, Serialize};

use mps_dag::{Dag, TaskId};
use mps_platform::{Cluster, HostId};

/// One task's placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledTask {
    /// The task.
    pub task: TaskId,
    /// The concrete processor set (distinct hosts; rank `i` of the task
    /// runs on `hosts[i]`).
    pub hosts: Vec<HostId>,
    /// Scheduler-estimated start time (seconds).
    pub est_start: f64,
    /// Scheduler-estimated finish time (seconds).
    pub est_finish: f64,
}

impl ScheduledTask {
    /// Allocation size.
    pub fn p(&self) -> usize {
        self.hosts.len()
    }
}

/// A complete schedule: tasks in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Which algorithm produced it.
    pub algorithm: String,
    /// Tasks in start order.
    pub tasks: Vec<ScheduledTask>,
    /// Scheduler-estimated makespan (seconds).
    pub est_makespan: f64,
}

/// Schedule validity errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A DAG task is missing from the schedule (or scheduled twice).
    WrongTaskSet,
    /// A task has an empty or duplicated host set.
    BadHostSet(TaskId),
    /// A host id is outside the platform.
    UnknownHost(TaskId, HostId),
    /// A task is ordered before one of its predecessors.
    OrderViolatesDependency {
        /// The offending task.
        task: TaskId,
        /// Its predecessor scheduled later.
        pred: TaskId,
    },
    /// Estimated times are inconsistent (finish before start, or start
    /// before a predecessor's finish).
    InconsistentTimes(TaskId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::WrongTaskSet => write!(f, "schedule does not cover the DAG exactly"),
            ScheduleError::BadHostSet(t) => {
                write!(f, "task {t} has an empty or duplicate host set")
            }
            ScheduleError::UnknownHost(t, h) => write!(f, "task {t} uses unknown host {h}"),
            ScheduleError::OrderViolatesDependency { task, pred } => {
                write!(f, "task {task} is ordered before its predecessor {pred}")
            }
            ScheduleError::InconsistentTimes(t) => write!(f, "task {t} has inconsistent times"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Validates the schedule against its DAG and platform.
    pub fn validate(&self, dag: &Dag, cluster: &Cluster) -> Result<(), ScheduleError> {
        // Exactly the DAG's task set, each once.
        let mut seen = vec![false; dag.len()];
        if self.tasks.len() != dag.len() {
            return Err(ScheduleError::WrongTaskSet);
        }
        for st in &self.tasks {
            if st.task.index() >= dag.len() || seen[st.task.index()] {
                return Err(ScheduleError::WrongTaskSet);
            }
            seen[st.task.index()] = true;
        }

        // Host sets: non-empty, distinct, in range. One scratch buffer
        // serves every task's duplicate check — no per-task allocation.
        let mut scratch: Vec<HostId> = Vec::new();
        for st in &self.tasks {
            if st.hosts.is_empty() {
                return Err(ScheduleError::BadHostSet(st.task));
            }
            scratch.clear();
            scratch.extend_from_slice(&st.hosts);
            scratch.sort();
            if scratch.windows(2).any(|w| w[0] == w[1]) {
                return Err(ScheduleError::BadHostSet(st.task));
            }
            for &h in &st.hosts {
                if h.index() >= cluster.node_count() {
                    return Err(ScheduleError::UnknownHost(st.task, h));
                }
            }
        }

        // Order respects dependencies.
        let mut position = vec![0usize; dag.len()];
        for (i, st) in self.tasks.iter().enumerate() {
            position[st.task.index()] = i;
        }
        for st in &self.tasks {
            for &pred in dag.predecessors(st.task) {
                if position[pred.index()] > position[st.task.index()] {
                    return Err(ScheduleError::OrderViolatesDependency {
                        task: st.task,
                        pred,
                    });
                }
            }
        }

        // Time consistency (estimates only, but they should make sense).
        let mut finish = vec![0.0_f64; dag.len()];
        for st in &self.tasks {
            finish[st.task.index()] = st.est_finish;
        }
        for st in &self.tasks {
            if st.est_finish < st.est_start - 1e-9 {
                return Err(ScheduleError::InconsistentTimes(st.task));
            }
            for &pred in dag.predecessors(st.task) {
                if st.est_start < finish[pred.index()] - 1e-9 {
                    return Err(ScheduleError::InconsistentTimes(st.task));
                }
            }
        }
        Ok(())
    }

    /// Placement of one task.
    pub fn placement(&self, task: TaskId) -> Option<&ScheduledTask> {
        self.tasks.iter().find(|st| st.task == task)
    }

    /// Allocation sizes indexed by task id.
    pub fn allocations(&self, dag: &Dag) -> Vec<usize> {
        let mut out = vec![0; dag.len()];
        for st in &self.tasks {
            out[st.task.index()] = st.p();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_kernels::Kernel;

    fn chain_dag() -> Dag {
        Dag::new(
            vec![Kernel::MatMul { n: 100 }, Kernel::MatAdd { n: 100 }],
            &[(TaskId(0), TaskId(1))],
        )
        .unwrap()
    }

    fn ok_schedule() -> Schedule {
        Schedule {
            algorithm: "test".into(),
            tasks: vec![
                ScheduledTask {
                    task: TaskId(0),
                    hosts: vec![HostId(0), HostId(1)],
                    est_start: 0.0,
                    est_finish: 5.0,
                },
                ScheduledTask {
                    task: TaskId(1),
                    hosts: vec![HostId(1)],
                    est_start: 5.0,
                    est_finish: 7.0,
                },
            ],
            est_makespan: 7.0,
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let dag = chain_dag();
        let c = Cluster::bayreuth();
        assert!(ok_schedule().validate(&dag, &c).is_ok());
    }

    #[test]
    fn missing_task_fails() {
        let dag = chain_dag();
        let c = Cluster::bayreuth();
        let mut s = ok_schedule();
        s.tasks.pop();
        assert_eq!(
            s.validate(&dag, &c).unwrap_err(),
            ScheduleError::WrongTaskSet
        );
    }

    #[test]
    fn duplicate_task_fails() {
        let dag = chain_dag();
        let c = Cluster::bayreuth();
        let mut s = ok_schedule();
        s.tasks[1].task = TaskId(0);
        assert_eq!(
            s.validate(&dag, &c).unwrap_err(),
            ScheduleError::WrongTaskSet
        );
    }

    #[test]
    fn duplicate_host_fails() {
        let dag = chain_dag();
        let c = Cluster::bayreuth();
        let mut s = ok_schedule();
        s.tasks[0].hosts = vec![HostId(0), HostId(0)];
        assert_eq!(
            s.validate(&dag, &c).unwrap_err(),
            ScheduleError::BadHostSet(TaskId(0))
        );
    }

    #[test]
    fn unknown_host_fails() {
        let dag = chain_dag();
        let c = Cluster::bayreuth();
        let mut s = ok_schedule();
        s.tasks[0].hosts = vec![HostId(99)];
        assert_eq!(
            s.validate(&dag, &c).unwrap_err(),
            ScheduleError::UnknownHost(TaskId(0), HostId(99))
        );
    }

    #[test]
    fn dependency_order_violation_fails() {
        let dag = chain_dag();
        let c = Cluster::bayreuth();
        let mut s = ok_schedule();
        s.tasks.swap(0, 1);
        assert!(matches!(
            s.validate(&dag, &c).unwrap_err(),
            ScheduleError::OrderViolatesDependency { .. }
        ));
    }

    #[test]
    fn inconsistent_times_fail() {
        let dag = chain_dag();
        let c = Cluster::bayreuth();
        let mut s = ok_schedule();
        s.tasks[1].est_start = 3.0; // before predecessor's finish at 5.0
        assert_eq!(
            s.validate(&dag, &c).unwrap_err(),
            ScheduleError::InconsistentTimes(TaskId(1))
        );
    }

    #[test]
    fn accessors() {
        let dag = chain_dag();
        let s = ok_schedule();
        assert_eq!(s.placement(TaskId(1)).unwrap().p(), 1);
        assert_eq!(s.allocations(&dag), vec![2, 1]);
    }
}
