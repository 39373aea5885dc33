//! The OS-model scaffolding shared by Popcorn and the baselines.
//!
//! An *OS model* is a whole-machine simulation handler: it owns one or more
//! [`Kernel`] instances and supplies the policy the kernel mechanism defers
//! — syscall implementations, fault resolution, synchronization-word
//! semantics, and (for the replicated kernel) cross-kernel messaging.
//!
//! The shared pieces here are:
//!
//! - [`OsEvent`] — the event alphabet (core execution, timer wakes, plus a
//!   model-specific `Custom` payload for messages/protocol steps);
//! - [`OsMachine`] — the policy hooks a model implements;
//! - [`dispatch`] — the common event-routing skeleton a model's
//!   [`Handler`](popcorn_sim::Handler) impl delegates to;
//! - [`local_syscall`] and [`kernel_of_core`] — the kernel-local syscalls
//!   and the core-to-kernel lookup, written once for every model (with
//!   [`Kernel::move_to_core`] and [`Kernel::wake_live`] on the kernel);
//! - [`OsModel`] + [`RunReport`] — the harness-facing interface every model
//!   (Popcorn, SMP, multikernel) exposes so experiments can treat them
//!   uniformly;
//! - [`partition_machine`] — the kernels and fabric of a partitioned
//!   (replicated-kernel or multikernel) machine.

use std::collections::BTreeMap;

use popcorn_hw::{CoreId, HwParams, Machine, Topology};
use popcorn_msg::{Fabric, KernelId, MsgParams};
use popcorn_sim::{Scheduler, SimTime, StopCondition};

use crate::kernel::{Kernel, RunOutcome};
use crate::params::OsParams;
use crate::program::{Program, Resume, RmwOp, SysResult, SyscallReq};
use crate::task::BlockReason;
use crate::types::{GroupId, PageNo, Tid, VAddr};

/// Default event budget for [`OsModel::run`]: generous enough for every
/// experiment in the suite, small enough to catch protocol livelock.
pub const DEFAULT_EVENT_BUDGET: u64 = 50_000_000;

/// Simulation events common to all OS models.
#[derive(Debug)]
pub enum OsEvent<X> {
    /// Execute a core of a kernel.
    CoreRun {
        /// Kernel index within the model.
        kernel: u16,
        /// The core.
        core: CoreId,
    },
    /// A sleep timer fired for a task.
    TimerWake {
        /// Kernel index within the model.
        kernel: u16,
        /// The sleeping task.
        tid: Tid,
    },
    /// Model-specific payload (inter-kernel messages, protocol steps).
    Custom(X),
}

/// Schedules a `CoreRun` for `(kernel, core)` at `at` (clamped to now).
pub fn ensure_core_run<X>(
    sched: &mut Scheduler<OsEvent<X>>,
    kernel: u16,
    core: CoreId,
    at: SimTime,
) {
    sched.at(at.max(sched.now()), OsEvent::CoreRun { kernel, core });
}

/// Policy hooks an OS model implements; [`dispatch`] routes events to them.
#[allow(clippy::too_many_arguments)]
pub trait OsMachine {
    /// Model-specific event payload.
    type Msg;

    /// The kernel instances (index = the `kernel` field of [`OsEvent`]).
    fn kernels_mut(&mut self) -> &mut [Kernel];

    /// Implements a syscall trapped at `at` by `tid` (currently `InSyscall`
    /// and occupying `core` of kernel `ki`). The implementation must either
    /// finish the syscall ([`Kernel::finish_syscall`]) or block the task.
    fn handle_syscall(
        &mut self,
        sched: &mut Scheduler<OsEvent<Self::Msg>>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        req: SyscallReq,
        at: SimTime,
    );

    /// Implements an atomic RMW on a synchronization word.
    fn handle_sync_op(
        &mut self,
        sched: &mut Scheduler<OsEvent<Self::Msg>>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        addr: VAddr,
        op: RmwOp,
        at: SimTime,
    );

    /// Resolves a page fault (absent page, write upgrade, or missing VMA).
    #[allow(clippy::too_many_arguments)]
    fn handle_fault(
        &mut self,
        sched: &mut Scheduler<OsEvent<Self::Msg>>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        page: PageNo,
        write: bool,
        no_vma: bool,
        at: SimTime,
    );

    /// Reacts to a thread exit (group accounting, waking joiners).
    fn handle_exit(
        &mut self,
        sched: &mut Scheduler<OsEvent<Self::Msg>>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        code: i32,
        at: SimTime,
    );

    /// Handles a model-specific event.
    fn handle_custom(
        &mut self,
        sched: &mut Scheduler<OsEvent<Self::Msg>>,
        msg: Self::Msg,
        now: SimTime,
    );
}

/// Serves the syscalls that touch no state beyond the calling kernel, the
/// same way on every model: `getpid`, `gettid`, `getkernel`,
/// `sched_yield` and `nanosleep` by `tid` on `core` of kernel `ki`. Any
/// other request is handed back for the model to serve. Models call this
/// first from [`OsMachine::handle_syscall`].
pub fn local_syscall<X>(
    sched: &mut Scheduler<OsEvent<X>>,
    kernel: &mut Kernel,
    ki: usize,
    core: CoreId,
    tid: Tid,
    req: SyscallReq,
    at: SimTime,
) -> Option<SyscallReq> {
    let value = match req {
        SyscallReq::GetPid => kernel.task(tid).expect("caller exists").group.pid() as u64,
        SyscallReq::GetTid => tid.0 as u64,
        SyscallReq::GetKernel => ki as u64,
        SyscallReq::Yield => {
            let c = kernel.yield_current(tid, at);
            ensure_core_run(sched, ki as u16, c, at);
            return None;
        }
        SyscallReq::Nanosleep { ns } => {
            let c = kernel.block_current(tid, BlockReason::Sleep, at);
            ensure_core_run(sched, ki as u16, c, at);
            sched.at(
                at + SimTime::from_nanos(ns),
                OsEvent::TimerWake {
                    kernel: ki as u16,
                    tid,
                },
            );
            return None;
        }
        other => return Some(other),
    };
    kernel.finish_syscall(tid, SysResult::Val(value), at);
    ensure_core_run(sched, ki as u16, core, at);
    None
}

/// The index of the kernel in `kernels` that owns `core`.
///
/// # Panics
///
/// Panics if no kernel owns `core`.
pub fn kernel_of_core(kernels: &[Kernel], core: CoreId) -> usize {
    kernels
        .iter()
        .position(|k| k.cores().contains(&core))
        .unwrap_or_else(|| panic!("{core} not owned by any kernel"))
}

/// Runs one core and routes the outcome to the model's hooks. OS models
/// call this (and nothing else) from their `Handler::handle`.
pub fn dispatch<M: OsMachine>(
    m: &mut M,
    now: SimTime,
    ev: OsEvent<M::Msg>,
    sched: &mut Scheduler<OsEvent<M::Msg>>,
) {
    match ev {
        OsEvent::CoreRun { kernel, core } => {
            let ki = kernel as usize;
            let outcome = m.kernels_mut()[ki].run_core(now, core);
            match outcome {
                RunOutcome::Idle => {}
                RunOutcome::Busy { until } => ensure_core_run(sched, kernel, core, until),
                RunOutcome::Preempted { at } => ensure_core_run(sched, kernel, core, at),
                RunOutcome::Syscall { tid, req, at } => {
                    m.handle_syscall(sched, ki, core, tid, req, at)
                }
                RunOutcome::SyncOp { tid, addr, op, at } => {
                    m.handle_sync_op(sched, ki, core, tid, addr, op, at)
                }
                RunOutcome::Fault {
                    tid,
                    page,
                    write,
                    no_vma,
                    at,
                } => m.handle_fault(sched, ki, core, tid, page, write, no_vma, at),
                RunOutcome::Exited { tid, code, at } => {
                    m.handle_exit(sched, ki, core, tid, code, at);
                    ensure_core_run(sched, kernel, core, at);
                }
            }
        }
        OsEvent::TimerWake { kernel, tid } => {
            let woken = m.kernels_mut()[kernel as usize].wake_live(
                tid,
                Some(Resume::Sys(SysResult::Val(0))),
                now,
            );
            if let Some(core) = woken {
                ensure_core_run(sched, kernel, core, now);
            }
        }
        OsEvent::Custom(x) => m.handle_custom(sched, x, now),
    }
}

/// Outcome of running an OS model.
///
/// Marked `#[must_use]`: silently discarding a report usually hides an
/// unclean run (stuck tasks, budget exhaustion) — check [`RunReport::is_clean`]
/// or bind it explicitly.
#[derive(Debug, Clone)]
#[must_use]
pub struct RunReport {
    /// Model name (`"popcorn"`, `"smp"`, `"multikernel"`).
    pub os: &'static str,
    /// Virtual time when the run ended.
    pub finished_at: SimTime,
    /// Threads that exited.
    pub exited_tasks: u64,
    /// Threads still blocked when the event queue drained (deadlock
    /// indicator; empty on a healthy run).
    pub stuck_tasks: Vec<Tid>,
    /// Simulation events processed.
    pub events: u64,
    /// Why the simulation stopped.
    pub stop: StopCondition,
    /// Named scalar metrics (counters, mean latencies) for the harness.
    pub metrics: BTreeMap<String, f64>,
}

impl RunReport {
    /// Assembles a model's report: `metrics` (the model's own) layered
    /// over [`base_metrics`], with the exited and stuck threads read from
    /// `kernels`.
    pub fn new(
        os: &'static str,
        kernels: &[Kernel],
        stop: StopCondition,
        finished_at: SimTime,
        events: u64,
        metrics: BTreeMap<String, f64>,
    ) -> Self {
        let mut all = base_metrics(kernels);
        all.extend(metrics);
        RunReport {
            os,
            finished_at,
            exited_tasks: kernels.iter().map(|k| k.stats.exited.get()).sum(),
            stuck_tasks: stuck_tasks(kernels),
            events,
            stop,
            metrics: all,
        }
    }

    /// True when every loaded thread ran to completion.
    pub fn is_clean(&self) -> bool {
        self.stop == StopCondition::QueueEmpty && self.stuck_tasks.is_empty()
    }

    /// A metric by name.
    ///
    /// # Panics
    ///
    /// Panics if this model does not report `name`, so a misspelled
    /// metric fails loudly instead of reading as zero. Check
    /// [`RunReport::metrics`] directly for metrics that exist only on
    /// some models or configurations.
    pub fn metric(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some(&v) => v,
            None => panic!("{} reports no metric {name:?}", self.os),
        }
    }
}

/// How a replicated-kernel model clusters cores into kernel instances —
/// the cluster-of-kernels axis of the lock-granularity design space. Each
/// variant maps a [`Topology`] sharing domain to one kernel, so the kernel
/// count (and hence the cross-kernel traffic pattern) is derived from the
/// machine instead of hand-picked per experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClustering {
    /// One kernel per core: maximal replication, every sharing is a
    /// message (the classic multikernel limit).
    PerCore,
    /// One kernel per CCX: cores of an L3 complex share a kernel, CCX
    /// boundaries are messages.
    PerCcx,
    /// One kernel per NUMA socket: the paper-era Popcorn layout.
    PerSocket,
}

impl KernelClustering {
    /// All clusterings, coarse to fine.
    pub const ALL: [KernelClustering; 3] = [
        KernelClustering::PerSocket,
        KernelClustering::PerCcx,
        KernelClustering::PerCore,
    ];

    /// Number of kernel instances this clustering yields on `topo`.
    /// Because cores are numbered socket-major and CCX-major within a
    /// socket, `topo.partition(kernel_count)` lands every kernel exactly on
    /// its cluster's cores.
    pub fn kernel_count(self, topo: Topology) -> u16 {
        match self {
            KernelClustering::PerCore => topo.num_cores(),
            KernelClustering::PerCcx => topo.num_ccx(),
            KernelClustering::PerSocket => topo.num_sockets(),
        }
    }

    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            KernelClustering::PerCore => "per-core",
            KernelClustering::PerCcx => "per-ccx",
            KernelClustering::PerSocket => "per-socket",
        }
    }
}

/// Builds a partitioned machine: `kernels` kernel instances on contiguous
/// core partitions of `topology`, and a fabric whose message handler for
/// each kernel runs on the first core of its partition.
///
/// # Panics
///
/// Panics if a parameter set fails validation (`os` in `Kernel::new`) or
/// there are more kernels than cores.
pub fn partition_machine(
    topology: Topology,
    kernels: u16,
    hw: HwParams,
    os: OsParams,
    msg: MsgParams,
) -> (Machine, Vec<Kernel>, Fabric) {
    hw.validate().expect("invalid hardware parameters");
    let machine = Machine::new(topology, hw);
    let parts = topology.partition(kernels);
    let fabric = Fabric::new(&machine, parts.iter().map(|p| p[0]).collect(), msg);
    let kernels = parts
        .into_iter()
        .enumerate()
        .map(|(i, cores)| Kernel::new(KernelId(i as u16), cores, os.clone(), machine.clone()))
        .collect();
    (machine, kernels, fabric)
}

/// Harness-facing interface implemented by every OS model.
pub trait OsModel {
    /// Short model name for tables.
    fn name(&self) -> &'static str;

    /// The machine topology the model runs on.
    fn topology(&self) -> Topology;

    /// Creates a new process (thread group) whose leader runs `program`.
    /// Threads are then created by the program itself via `Clone` syscalls.
    fn load(&mut self, program: Box<dyn Program>) -> GroupId;

    /// Runs until the event queue drains, a horizon passes, or the event
    /// budget is exhausted.
    fn run_with(&mut self, horizon: SimTime, event_budget: u64) -> RunReport;

    /// Runs to completion with the default budget.
    fn run(&mut self) -> RunReport {
        self.run_with(SimTime::MAX, DEFAULT_EVENT_BUDGET)
    }
}

/// Folds the kernel-mechanism counters shared by all models into a metric
/// map (model-specific metrics are layered on top by each model).
pub fn base_metrics(kernels: &[Kernel]) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for k in kernels {
        k.stats.export("", &mut m);
    }
    m
}

/// Collects blocked (potentially deadlocked) tasks across kernels.
pub fn stuck_tasks(kernels: &[Kernel]) -> Vec<Tid> {
    let mut v: Vec<Tid> = kernels.iter().flat_map(|k| k.blocked_tasks()).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_report_cleanliness() {
        let clean = RunReport {
            os: "x",
            finished_at: SimTime::ZERO,
            exited_tasks: 1,
            stuck_tasks: vec![],
            events: 10,
            stop: StopCondition::QueueEmpty,
            metrics: BTreeMap::new(),
        };
        assert!(clean.is_clean());
        let mut stuck = clean.clone();
        stuck.stuck_tasks.push(Tid(3));
        assert!(!stuck.is_clean());
        let mut truncated = clean.clone();
        truncated.stop = StopCondition::HorizonReached;
        assert!(!truncated.is_clean());
    }

    #[test]
    fn clustering_kernel_counts_follow_topology() {
        let t = Topology::with_ccx(4, 8, 8); // 256 cores
        assert_eq!(KernelClustering::PerCore.kernel_count(t), 256);
        assert_eq!(KernelClustering::PerCcx.kernel_count(t), 32);
        assert_eq!(KernelClustering::PerSocket.kernel_count(t), 4);
        // Without an explicit CCX layer, per-CCX degenerates to per-socket.
        let flat = Topology::new(2, 4);
        assert_eq!(KernelClustering::PerCcx.kernel_count(flat), 2);
        assert_eq!(KernelClustering::PerSocket.kernel_count(flat), 2);
    }

    #[test]
    #[should_panic(expected = "x reports no metric \"fualts\"")]
    fn metric_lookup_panics_on_a_misspelled_name() {
        let mut r = RunReport {
            os: "x",
            finished_at: SimTime::ZERO,
            exited_tasks: 0,
            stuck_tasks: vec![],
            events: 0,
            stop: StopCondition::QueueEmpty,
            metrics: BTreeMap::new(),
        };
        r.metrics.insert("faults".into(), 4.0);
        assert_eq!(r.metric("faults"), 4.0);
        let _ = r.metric("fualts");
    }
}
