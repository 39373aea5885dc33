//! Task (thread) control blocks.

use std::fmt;

use popcorn_hw::CoreId;
use popcorn_msg::KernelId;
use popcorn_sim::SimTime;

use crate::program::{Op, Program, Resume};
use crate::types::{CpuContext, GroupId, Tid, VAddr};

/// Why a task is off the run queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Sleeping on a futex word.
    Futex(VAddr),
    /// In `nanosleep`.
    Sleep,
    /// Mid-migration (context in flight to another kernel).
    Migrating,
    /// Waiting for a page/VMA/remote operation to complete.
    Remote(&'static str),
}

/// Lifecycle state of a task on one kernel instance.
#[derive(Debug)]
pub enum TaskState {
    /// On a run queue, not currently executing.
    Ready,
    /// Executing on its assigned core.
    Running,
    /// In the middle of a syscall that will complete at a known time.
    InSyscall,
    /// Off the run queues.
    Blocked(BlockReason),
    /// Migrated away; this entry is the dormant *shadow* the paper keeps
    /// for cheap back-migration.
    MigratedAway {
        /// Kernel now hosting the thread.
        to: KernelId,
    },
    /// Finished.
    Exited(i32),
}

/// Per-task accounting used by the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Virtual CPU time consumed by user ops.
    pub cpu_time: SimTime,
    /// Syscalls issued.
    pub syscalls: u64,
    /// Page faults taken.
    pub faults: u64,
    /// Inter-kernel migrations performed.
    pub migrations: u64,
    /// Context switches experienced.
    pub ctx_switches: u64,
}

/// A thread's kernel-side control block.
///
/// The `program` is present while this kernel hosts the thread; it is
/// `None` for shadows of migrated-away threads (the program travelled with
/// the migration message).
pub struct Task {
    /// Globally unique id.
    pub tid: Tid,
    /// Distributed thread group membership.
    pub group: GroupId,
    /// The user program, when hosted here.
    pub program: Option<Box<dyn Program>>,
    /// Architectural state (marshalled on migration).
    pub ctx: CpuContext,
    /// Lifecycle state.
    pub state: TaskState,
    /// Assigned core.
    pub core: CoreId,
    /// What to feed the program on its next step.
    pub resume: Resume,
    /// Accounting.
    pub stats: TaskStats,
    /// The memory op that faulted (or the rest of a preempted compute),
    /// re-attempted before the program steps again.
    pub(crate) pending_op: Option<Op>,
    /// When the task last became runnable; taken at dispatch for the
    /// scheduling-latency histogram.
    pub(crate) woke_at: Option<SimTime>,
}

impl Task {
    /// Creates a ready task assigned to `core`.
    pub fn new(tid: Tid, group: GroupId, program: Box<dyn Program>, core: CoreId) -> Self {
        Task {
            tid,
            group,
            program: Some(program),
            ctx: CpuContext::default(),
            state: TaskState::Ready,
            core,
            resume: Resume::Start,
            stats: TaskStats::default(),
            pending_op: None,
            woke_at: None,
        }
    }

    /// Whether the task has exited.
    pub fn is_exited(&self) -> bool {
        matches!(self.state, TaskState::Exited(_))
    }

    /// Whether this entry is a dormant shadow of a migrated-away thread.
    pub fn is_shadow(&self) -> bool {
        matches!(self.state, TaskState::MigratedAway { .. })
    }
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("tid", &format_args!("{}", self.tid))
            .field("group", &format_args!("{}", self.group))
            .field("state", &self.state)
            .field("core", &self.core)
            .field("has_program", &self.program.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgEnv;

    #[derive(Debug)]
    struct Nop;
    impl Program for Nop {
        fn step(&mut self, _resume: Resume, _env: &ProgEnv) -> Op {
            Op::Exit(0)
        }
    }

    fn task() -> Task {
        Task::new(
            Tid::new(KernelId(0), 1),
            GroupId(Tid::new(KernelId(0), 1)),
            Box::new(Nop),
            CoreId(0),
        )
    }

    #[test]
    fn new_task_is_ready_with_program() {
        let t = task();
        assert!(matches!(t.state, TaskState::Ready));
        assert!(!t.is_exited());
        assert!(!t.is_shadow());
        assert!(t.program.is_some());
        assert_eq!(t.resume, Resume::Start);
    }

    #[test]
    fn shadow_detection() {
        let mut t = task();
        t.state = TaskState::MigratedAway { to: KernelId(1) };
        t.program = None;
        assert!(t.is_shadow());
        assert!(!matches!(t.state, TaskState::Ready));
    }

    #[test]
    fn debug_shows_key_fields_without_program_dump() {
        let t = task();
        let s = format!("{t:?}");
        assert!(s.contains("t0.1"));
        assert!(s.contains("has_program: true"));
    }
}
