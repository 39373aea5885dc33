//! A kernel instance: per-core scheduling, task lifecycle, memory access
//! execution, and the interaction points where an OS model takes over
//! (syscalls, faults, synchronization ops).
//!
//! `Kernel` is the *mechanism* shared by all three OS models. It never
//! touches the message fabric or another kernel — cross-kernel policy lives
//! in `popcorn-core` and `popcorn-baselines`. The OS model drives each core
//! by calling [`Kernel::run_core`], which executes the current thread's
//! operations in virtual time until something needs OS attention and
//! reports a [`RunOutcome`].

use std::collections::{HashMap, VecDeque};

use popcorn_hw::{CoreId, Machine};
use popcorn_msg::KernelId;
use popcorn_sim::{metric_table, Counter, Histogram, SimTime};

use crate::mm::{AccessCheck, Mm};
use crate::params::OsParams;
use crate::program::{Op, ProgEnv, Resume, RmwOp, SysResult, SyscallReq};
use crate::task::{BlockReason, Task, TaskState, TaskStats};
use crate::types::{GroupId, PageNo, Tid, VAddr};

/// Scheduling state of one core.
#[derive(Debug)]
struct CoreState {
    id: CoreId,
    current: Option<Tid>,
    runqueue: VecDeque<Tid>,
    busy_until: SimTime,
    /// The `busy_until` for which a `Busy` re-poll was last handed out: a
    /// `CoreRun` at that time is already queued, so further polls of the
    /// still-busy core need not start another one.
    repoll_at: SimTime,
    slice_end: SimTime,
}

impl CoreState {
    fn new(id: CoreId) -> Self {
        CoreState {
            id,
            current: None,
            runqueue: VecDeque::new(),
            busy_until: SimTime::ZERO,
            repoll_at: SimTime::ZERO,
            slice_end: SimTime::ZERO,
        }
    }

    fn load(&self) -> usize {
        self.runqueue.len() + usize::from(self.current.is_some())
    }

    /// Occupies the core until `until` and hands out its one re-poll.
    fn repoll(&mut self, until: SimTime) -> RunOutcome {
        self.busy_until = until;
        self.repoll_at = until;
        RunOutcome::Busy { until }
    }
}

/// What [`Kernel::run_core`] found to do.
#[derive(Debug)]
pub enum RunOutcome {
    /// Nothing to do now: either no runnable task (the core sleeps until a
    /// wake kicks it), or the core is busy and its re-poll is already
    /// queued (see [`RunOutcome::Busy`]).
    Idle,
    /// The core is occupied until `until`; re-poll then.
    ///
    /// Handed out at most once per `until`: a later poll of the still-busy
    /// core returns `Idle` until `busy_until` moves forward again. Two facts
    /// make that sound: every dispatcher schedules a `CoreRun` at `until`
    /// when it gets `Busy`, and a core's `busy_until` never decreases — so
    /// the one queued re-poll runs the core as soon as it is free.
    Busy {
        /// When the occupation ends.
        until: SimTime,
    },
    /// The time slice expired and another thread was switched in.
    Preempted {
        /// When the switched-in thread starts running.
        at: SimTime,
    },
    /// The current thread trapped into a syscall; the OS model must handle
    /// it (the task is `InSyscall`, still current on the core).
    Syscall {
        /// Calling thread.
        tid: Tid,
        /// The request.
        req: SyscallReq,
        /// Trap completion time (request is live from here).
        at: SimTime,
    },
    /// The current thread issued an atomic RMW on a synchronization word;
    /// the OS model's sync engine must produce the old value and cost.
    SyncOp {
        /// Calling thread.
        tid: Tid,
        /// Word address.
        addr: VAddr,
        /// The operation.
        op: RmwOp,
        /// When the op was issued.
        at: SimTime,
    },
    /// The current thread took a page fault the OS model must resolve
    /// (absent page, write to a read-shared page, or an access with no
    /// local VMA). The task stays current with the faulting op pending.
    Fault {
        /// Faulting thread.
        tid: Tid,
        /// Faulting page.
        page: PageNo,
        /// Whether write access is required.
        write: bool,
        /// No local VMA covers the address. On SMP this is a segfault; on
        /// the replicated kernel the VMA may simply not be replicated yet
        /// (the paper's on-demand VMA retrieval).
        no_vma: bool,
        /// Fault time.
        at: SimTime,
    },
    /// The current thread exited (voluntarily or by segfault).
    Exited {
        /// The thread.
        tid: Tid,
        /// Exit status (139 for a segfault, mirroring SIGSEGV).
        code: i32,
        /// Completion time of exit teardown.
        at: SimTime,
    },
}

metric_table! {
    /// Aggregated kernel-side statistics.
    pub struct KernelStats {
        /// Syscalls trapped.
        syscalls: Counter,
        /// Page faults raised to the OS model.
        faults: Counter,
        /// Context switches performed.
        ctx_switches: Counter,
        /// Tasks spawned on this kernel.
        spawned: Counter,
        /// Tasks exited on this kernel.
        exited: Counter,
        /// Segmentation faults (accesses outside any VMA).
        segv: Counter,
    }
    extra {
        /// Scheduling latency: wake-to-run (recorded at dispatch).
        sched_latency: Histogram,
    }
}

/// One kernel instance owning a set of cores.
#[derive(Debug)]
pub struct Kernel {
    id: KernelId,
    cores: Vec<CoreState>,
    core_index: HashMap<CoreId, usize>,
    tasks: HashMap<Tid, Task>,
    mms: HashMap<GroupId, Mm>,
    next_local_tid: u32,
    params: OsParams,
    machine: Machine,
    mem_access: SimTime,
    /// Pending memory op of a faulted task, re-attempted after resolution.
    pending_ops: HashMap<Tid, Op>,
    /// Wake timestamps for scheduling-latency accounting.
    wake_stamp: HashMap<Tid, SimTime>,
    /// Rotating tie-breaker for spawn placement (so threads that block
    /// immediately still spread across cores).
    spawn_cursor: usize,
    /// Statistics.
    pub stats: KernelStats,
}

impl Kernel {
    /// Creates a kernel owning `cores`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty, contains duplicates or out-of-topology
    /// ids, or `params` fail validation.
    pub fn new(id: KernelId, cores: Vec<CoreId>, params: OsParams, machine: Machine) -> Self {
        assert!(!cores.is_empty(), "kernel needs at least one core");
        params.validate().expect("invalid OS parameters");
        let mut core_index = HashMap::new();
        for (i, &c) in cores.iter().enumerate() {
            assert!(machine.topology().contains(c), "{c} not in topology");
            assert!(core_index.insert(c, i).is_none(), "duplicate core {c}");
        }
        let mem_access = SimTime::from_nanos(machine.params().llc_hit_ns);
        Kernel {
            id,
            cores: cores.into_iter().map(CoreState::new).collect(),
            core_index,
            tasks: HashMap::new(),
            mms: HashMap::new(),
            next_local_tid: 1,
            params,
            machine,
            mem_access,
            pending_ops: HashMap::new(),
            wake_stamp: HashMap::new(),
            spawn_cursor: 0,
            stats: KernelStats::default(),
        }
    }

    /// This kernel's id.
    pub fn id(&self) -> KernelId {
        self.id
    }

    /// The cores this kernel owns, in configuration order.
    pub fn cores(&self) -> Vec<CoreId> {
        self.cores.iter().map(|c| c.id).collect()
    }

    /// The configured software-cost parameters.
    pub fn params(&self) -> &OsParams {
        &self.params
    }

    /// The machine model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Allocates a fresh, globally unique tid originating at this kernel.
    pub fn alloc_tid(&mut self) -> Tid {
        let t = Tid::new(self.id, self.next_local_tid);
        self.next_local_tid += 1;
        t
    }

    /// Registers an address-space replica for a group hosted here.
    ///
    /// # Panics
    ///
    /// Panics if the group already has a replica on this kernel.
    pub fn adopt_mm(&mut self, mm: Mm) {
        let group = mm.group();
        let prev = self.mms.insert(group, mm);
        assert!(prev.is_none(), "{group} already has an mm replica here");
    }

    /// Whether a replica for `group` exists here.
    pub fn has_mm(&self, group: GroupId) -> bool {
        self.mms.contains_key(&group)
    }

    /// The replica for `group`.
    ///
    /// # Panics
    ///
    /// Panics if no replica exists.
    pub fn mm(&self, group: GroupId) -> &Mm {
        self.mms
            .get(&group)
            .unwrap_or_else(|| panic!("no mm replica for {group} on {}", self.id))
    }

    /// Mutable access to the replica for `group`.
    ///
    /// # Panics
    ///
    /// Panics if no replica exists.
    pub fn mm_mut(&mut self, group: GroupId) -> &mut Mm {
        let id = self.id;
        self.mms
            .get_mut(&group)
            .unwrap_or_else(|| panic!("no mm replica for {group} on {id}"))
    }

    /// Drops the replica for `group` (group exit), returning it.
    pub fn drop_mm(&mut self, group: GroupId) -> Option<Mm> {
        self.mms.remove(&group)
    }

    /// A task by id.
    pub fn task(&self, tid: Tid) -> Option<&Task> {
        self.tasks.get(&tid)
    }

    /// A task by id, mutably.
    pub fn task_mut(&mut self, tid: Tid) -> Option<&mut Task> {
        self.tasks.get_mut(&tid)
    }

    /// Iterates hosted task ids in deterministic order.
    pub fn task_ids(&self) -> Vec<Tid> {
        let mut v: Vec<_> = self.tasks.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The least-loaded core; ties break round-robin so that threads that
    /// block immediately (and stop counting as load) still spread out.
    pub fn least_loaded_core(&mut self) -> CoreId {
        let n = self.cores.len();
        let cursor = self.spawn_cursor;
        let (i, id) = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.load(), (i + n - cursor % n) % n))
            .map(|(i, c)| (i, c.id))
            .expect("kernel has cores");
        self.spawn_cursor = i + 1;
        id
    }

    /// Creates a ready task and enqueues it. Returns the core to kick.
    ///
    /// # Panics
    ///
    /// Panics if the tid already exists, the core (when given) is not owned
    /// by this kernel, or the group has no mm replica here.
    pub fn spawn(
        &mut self,
        tid: Tid,
        group: GroupId,
        program: Box<dyn crate::program::Program>,
        core: Option<CoreId>,
        now: SimTime,
    ) -> CoreId {
        assert!(self.has_mm(group), "spawn before mm replica for {group}");
        assert!(!self.tasks.contains_key(&tid), "{tid} already exists");
        let core = core.unwrap_or_else(|| self.least_loaded_core());
        let ci = *self
            .core_index
            .get(&core)
            .unwrap_or_else(|| panic!("{core} not owned by {}", self.id));
        let task = Task::new(tid, group, program, core);
        self.tasks.insert(tid, task);
        self.cores[ci].runqueue.push_back(tid);
        self.wake_stamp.insert(tid, now);
        self.stats.spawned.incr();
        core
    }

    fn core_state_mut(&mut self, core: CoreId) -> &mut CoreState {
        let id = self.id;
        let ci = *self
            .core_index
            .get(&core)
            .unwrap_or_else(|| panic!("{core} not owned by {id}"));
        &mut self.cores[ci]
    }

    fn core_state(&self, core: CoreId) -> &CoreState {
        let ci = *self
            .core_index
            .get(&core)
            .unwrap_or_else(|| panic!("{core} not owned by {}", self.id));
        &self.cores[ci]
    }

    /// Current runnable load (running + queued) of a core.
    pub fn core_load(&self, core: CoreId) -> usize {
        self.core_state(core).load()
    }

    /// Total runnable load across all cores (for machine-wide placement).
    pub fn total_load(&self) -> usize {
        self.cores.iter().map(CoreState::load).sum()
    }

    /// Executes the given core from `now` until something needs the OS
    /// model's attention (see [`RunOutcome`]).
    pub fn run_core(&mut self, now: SimTime, core: CoreId) -> RunOutcome {
        let ci = *self
            .core_index
            .get(&core)
            .unwrap_or_else(|| panic!("{core} not owned by {}", self.id));

        let cs = &mut self.cores[ci];
        if cs.busy_until > now {
            // A re-poll at `busy_until` is already queued: don't start a
            // second chain.
            if cs.repoll_at == cs.busy_until {
                return RunOutcome::Idle;
            }
            return cs.repoll(cs.busy_until);
        }
        let mut t = now;

        // Dispatch a thread if the core is empty.
        if self.cores[ci].current.is_none() {
            let Some(next) = self.cores[ci].runqueue.pop_front() else {
                return RunOutcome::Idle;
            };
            t += self.params.context_switch();
            self.stats.ctx_switches.incr();
            if let Some(woke) = self.wake_stamp.remove(&next) {
                self.stats.sched_latency.record_time(t.saturating_sub(woke));
            }
            let task = self.tasks.get_mut(&next).expect("queued task exists");
            task.state = TaskState::Running;
            task.stats.ctx_switches += 1;
            self.cores[ci].current = Some(next);
            self.cores[ci].slice_end = t + self.params.quantum();
        }
        let tid = self.cores[ci].current.expect("dispatched above");
        debug_assert!(
            matches!(self.tasks[&tid].state, TaskState::Running),
            "current task {tid} not Running: {:?}",
            self.tasks[&tid].state
        );

        let mut ops = 0u32;
        loop {
            // Slice renewal for a sole runner: nobody to switch to.
            if t >= self.cores[ci].slice_end && self.cores[ci].runqueue.is_empty() {
                self.cores[ci].slice_end = t + self.params.quantum();
            }
            // Preemption check between ops.
            if t >= self.cores[ci].slice_end && !self.cores[ci].runqueue.is_empty() {
                let task = self.tasks.get_mut(&tid).expect("current exists");
                task.state = TaskState::Ready;
                self.cores[ci].current = None;
                self.cores[ci].runqueue.push_back(tid);
                self.cores[ci].busy_until = t;
                self.wake_stamp.insert(tid, t);
                return RunOutcome::Preempted { at: t };
            }
            // Batching bound: yield to the event loop without modelling cost.
            if ops >= self.params.max_batched_ops {
                return self.cores[ci].repoll(t);
            }
            ops += 1;

            // Take the pending (faulted) op if any, else step the program.
            let op = match self.pending_ops.remove(&tid) {
                Some(op) => op,
                None => {
                    let task = self.tasks.get_mut(&tid).expect("current exists");
                    let env = ProgEnv {
                        tid,
                        core,
                        kernel: self.id,
                        now: t,
                    };
                    let resume = std::mem::replace(&mut task.resume, Resume::Done);
                    task.program
                        .as_mut()
                        .unwrap_or_else(|| panic!("{tid} has no program (shadow ran?)"))
                        .step(resume, &env)
                }
            };

            match op {
                Op::Compute(cycles) => {
                    let dt = self.machine.cycles(cycles);
                    let slice_end = self.cores[ci].slice_end;
                    if t + dt > slice_end && dt > SimTime::ZERO {
                        // Compute is preemptible: run to the slice end and
                        // park the remainder as a pending op. The core
                        // re-evaluates every quantum, so a 50 ms chunk can
                        // neither monopolize the core nor hide a newly
                        // woken thread behind pre-charged busy time.
                        let available = slice_end.saturating_sub(t);
                        let consumed_cycles = ((cycles as u128 * available.as_nanos() as u128)
                            / dt.as_nanos().max(1) as u128)
                            as u64;
                        let remaining = cycles - consumed_cycles.min(cycles);
                        if remaining > 0 {
                            self.pending_ops.insert(tid, Op::Compute(remaining));
                            let task = self.tasks.get_mut(&tid).expect("current exists");
                            task.stats.cpu_time += available;
                            t = slice_end;
                            if self.cores[ci].runqueue.is_empty() {
                                // Sole runner: yield to the event loop so
                                // arrivals within this quantum get seen.
                                return self.cores[ci].repoll(t);
                            }
                            continue; // the loop head performs the preemption
                        }
                    }
                    t += dt;
                    let task = self.tasks.get_mut(&tid).expect("current exists");
                    task.stats.cpu_time += dt;
                    task.resume = Resume::Done;
                }
                Op::Load(addr) | Op::Store(addr, _) => {
                    let write = matches!(op, Op::Store(..));
                    let group = self.tasks[&tid].group;
                    let mm = self.mms.get(&group).expect("task group has mm");
                    match mm.check_access(addr, write) {
                        AccessCheck::Ok => {
                            t += self.mem_access;
                            let task_resume;
                            if let Op::Store(addr, val) = op {
                                self.mms
                                    .get_mut(&group)
                                    .expect("checked above")
                                    .write_word(addr, val);
                                task_resume = Resume::Done;
                            } else {
                                task_resume = Resume::Value(mm.read_word(addr));
                            }
                            let task = self.tasks.get_mut(&tid).expect("current exists");
                            task.stats.cpu_time += self.mem_access;
                            task.resume = task_resume;
                        }
                        AccessCheck::NeedPage { page, write } => {
                            self.pending_ops.insert(tid, op);
                            let task = self.tasks.get_mut(&tid).expect("current exists");
                            task.stats.faults += 1;
                            self.stats.faults.incr();
                            self.cores[ci].busy_until = t;
                            return RunOutcome::Fault {
                                tid,
                                page,
                                write,
                                no_vma: false,
                                at: t,
                            };
                        }
                        AccessCheck::NoVma => {
                            // No local VMA. The OS model decides whether
                            // this is a segfault (SMP) or a VMA to fetch
                            // from the home kernel (replicated kernel).
                            self.pending_ops.insert(tid, op);
                            let task = self.tasks.get_mut(&tid).expect("current exists");
                            task.stats.faults += 1;
                            self.stats.faults.incr();
                            self.cores[ci].busy_until = t;
                            return RunOutcome::Fault {
                                tid,
                                page: addr.page(),
                                write,
                                no_vma: true,
                                at: t,
                            };
                        }
                    }
                }
                Op::AtomicRmw(addr, rmw) => {
                    let task = self.tasks.get_mut(&tid).expect("current exists");
                    task.state = TaskState::InSyscall;
                    self.cores[ci].busy_until = t;
                    return RunOutcome::SyncOp {
                        tid,
                        addr,
                        op: rmw,
                        at: t,
                    };
                }
                Op::Syscall(req) => {
                    t += self.params.syscall_entry();
                    let task = self.tasks.get_mut(&tid).expect("current exists");
                    task.state = TaskState::InSyscall;
                    task.stats.syscalls += 1;
                    self.stats.syscalls.incr();
                    self.cores[ci].busy_until = t;
                    return RunOutcome::Syscall { tid, req, at: t };
                }
                Op::Exit(code) => {
                    t += SimTime::from_nanos(self.params.exit_ns);
                    return self.finish_exit(ci, tid, code, t);
                }
            }
        }
    }

    fn finish_exit(&mut self, ci: usize, tid: Tid, code: i32, at: SimTime) -> RunOutcome {
        let task = self.tasks.get_mut(&tid).expect("exiting task exists");
        task.state = TaskState::Exited(code);
        task.program = None;
        self.pending_ops.remove(&tid);
        self.cores[ci].current = None;
        self.cores[ci].busy_until = at;
        self.stats.exited.incr();
        RunOutcome::Exited { tid, code, at }
    }

    /// Completes a syscall handled by the OS model: the task resumes on its
    /// core at `done` with `result`. Returns the core to kick.
    ///
    /// # Panics
    ///
    /// Panics if the task is not `InSyscall` and current on its core.
    pub fn finish_syscall(&mut self, tid: Tid, result: SysResult, done: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::InSyscall),
            "{tid} not in syscall"
        );
        task.state = TaskState::Running;
        task.resume = Resume::Sys(result);
        let core = task.core;
        let cs = self.core_state_mut(core);
        debug_assert_eq!(cs.current, Some(tid), "syscalling task not current");
        cs.busy_until = cs.busy_until.max(done);
        core
    }

    /// Completes an atomic sync op: the task resumes with the old value.
    /// Returns the core to kick.
    ///
    /// # Panics
    ///
    /// Panics if the task is not `InSyscall` (the state sync ops park in).
    pub fn finish_sync_op(&mut self, tid: Tid, old: u64, done: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::InSyscall),
            "{tid} not mid sync op"
        );
        task.state = TaskState::Running;
        task.resume = Resume::Value(old);
        let core = task.core;
        let cs = self.core_state_mut(core);
        cs.busy_until = cs.busy_until.max(done);
        core
    }

    /// Completes a fault resolved *synchronously on the core* (e.g. a local
    /// zero-fill): the task stays current and retries its pending op at
    /// `done`. Returns the core to kick.
    pub fn finish_fault_inline(&mut self, tid: Tid, done: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        debug_assert!(matches!(task.state, TaskState::Running));
        let core = task.core;
        let cs = self.core_state_mut(core);
        debug_assert_eq!(cs.current, Some(tid), "faulted task not current");
        cs.busy_until = cs.busy_until.max(done);
        core
    }

    /// Blocks the task that is current on `core` (after a `Syscall`,
    /// `SyncOp` or `Fault` outcome), freeing the core for other threads.
    /// Returns the core to kick so it can pick up queued work.
    ///
    /// # Panics
    ///
    /// Panics if the task is not current on its core.
    pub fn block_current(&mut self, tid: Tid, reason: BlockReason, now: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        task.state = TaskState::Blocked(reason);
        let core = task.core;
        let cs = self.core_state_mut(core);
        assert_eq!(cs.current, Some(tid), "blocking task that is not current");
        cs.current = None;
        cs.busy_until = cs.busy_until.max(now);
        core
    }

    /// Makes a blocked task runnable again; it re-enters its core's run
    /// queue at `now` (plus wakeup software cost to the waker, charged by
    /// the OS model). Returns the core to kick.
    ///
    /// # Panics
    ///
    /// Panics if the task is not blocked.
    pub fn wake(&mut self, tid: Tid, now: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::Blocked(_)),
            "waking non-blocked {tid} ({:?})",
            task.state
        );
        task.state = TaskState::Ready;
        // A woken task resumes the retry of its pending op (if any) or its
        // stored resume value set by the waker.
        let core = task.core;
        let cs = self.core_state_mut(core);
        cs.runqueue.push_back(tid);
        self.wake_stamp.insert(tid, now);
        core
    }

    /// Moves the current task of `core` to the back of its run queue
    /// (`sched_yield`). Returns the core to kick.
    pub fn yield_current(&mut self, tid: Tid, now: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::InSyscall),
            "yield outside syscall"
        );
        task.state = TaskState::Ready;
        task.resume = Resume::Sys(SysResult::Val(0));
        let core = task.core;
        let cs = self.core_state_mut(core);
        assert_eq!(cs.current, Some(tid));
        cs.current = None;
        cs.runqueue.push_back(tid);
        cs.busy_until = cs.busy_until.max(now);
        self.wake_stamp.insert(tid, now);
        core
    }

    /// Reassigns a (non-running) task to another core of this kernel
    /// (intra-kernel migration, as SMP `sched_setaffinity` would do).
    ///
    /// # Panics
    ///
    /// Panics if the task is currently on a core or the target is not owned.
    pub fn reassign_core(&mut self, tid: Tid, core: CoreId) {
        assert!(self.core_index.contains_key(&core), "{core} not owned");
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            !matches!(task.state, TaskState::Running),
            "cannot reassign a running task"
        );
        let old = task.core;
        task.core = core;
        // If it was queued on the old core, move the queue entry.
        let old_ci = self.core_index[&old];
        if let Some(pos) = self.cores[old_ci].runqueue.iter().position(|&t| t == tid) {
            self.cores[old_ci].runqueue.remove(pos);
            let new_ci = self.core_index[&core];
            self.cores[new_ci].runqueue.push_back(tid);
        }
    }

    /// Extracts a thread for migration: takes its program, context and
    /// pending op, and leaves a dormant shadow behind (the paper's
    /// mechanism for cheap back-migration). The task must be `InSyscall`
    /// (it called `migrate`) and current on its core.
    ///
    /// Returns `(program, context, stats, pending_op)`. The pending op (if
    /// any) travels with the thread so an aborted migration can reinstate
    /// it verbatim at the origin — same carry mechanism as
    /// [`Kernel::extract_unscheduled_for_migration`].
    #[allow(clippy::type_complexity)]
    pub fn extract_for_migration(
        &mut self,
        tid: Tid,
        to: KernelId,
        now: SimTime,
    ) -> (
        Box<dyn crate::program::Program>,
        crate::types::CpuContext,
        TaskStats,
        Option<Op>,
    ) {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::InSyscall),
            "migration outside syscall"
        );
        let program = task.program.take().expect("migrating shadow");
        let ctx = task.ctx.clone();
        task.stats.migrations += 1;
        let stats = task.stats;
        task.state = TaskState::MigratedAway { to };
        let core = task.core;
        let cs = self.core_state_mut(core);
        assert_eq!(cs.current, Some(tid));
        cs.current = None;
        cs.busy_until = cs.busy_until.max(now);
        let pending = self.pending_ops.remove(&tid);
        (program, ctx, stats, pending)
    }

    /// A queued (ready, not running) thread suitable for policy-initiated
    /// migration, taken from the tail of the deepest run queue — the thread
    /// that would wait longest locally loses the least by moving.
    pub fn pick_queued_task(&self) -> Option<Tid> {
        self.cores
            .iter()
            .max_by_key(|cs| cs.runqueue.len())
            .filter(|cs| !cs.runqueue.is_empty())
            .and_then(|cs| cs.runqueue.back().copied())
    }

    /// Extracts a thread that is *not* on a core for policy-initiated
    /// migration: a queued ready thread, or one blocked on a remote
    /// operation whose completion the caller is intercepting. Unlike
    /// [`Kernel::extract_for_migration`] the thread did not ask to move, so
    /// its in-flight resume value and parked pending op travel with it and
    /// are reinstated verbatim at the destination.
    ///
    /// Returns `None` when the task is in any other state (running, in a
    /// syscall, parked on a futex word — whose wait-queue entry pins it
    /// here — or sleeping with a timer due), which callers treat as "don't
    /// migrate after all".
    #[allow(clippy::type_complexity)]
    pub fn extract_unscheduled_for_migration(
        &mut self,
        tid: Tid,
        to: KernelId,
    ) -> Option<(
        Box<dyn crate::program::Program>,
        crate::types::CpuContext,
        TaskStats,
        Resume,
        Option<Op>,
    )> {
        let task = self.tasks.get_mut(&tid)?;
        match task.state {
            TaskState::Ready => {
                let core = task.core;
                let ci = self.core_index[&core];
                let pos = self.cores[ci].runqueue.iter().position(|&t| t == tid)?;
                self.cores[ci].runqueue.remove(pos);
            }
            TaskState::Blocked(BlockReason::Remote(_)) => {}
            _ => return None,
        }
        let task = self.tasks.get_mut(&tid).expect("task exists");
        let program = task.program.take().expect("migrating shadow");
        let ctx = task.ctx.clone();
        task.stats.migrations += 1;
        let stats = task.stats;
        task.state = TaskState::MigratedAway { to };
        let resume = std::mem::replace(&mut task.resume, Resume::Start);
        let pending = self.pending_ops.remove(&tid);
        self.wake_stamp.remove(&tid);
        Some((program, ctx, stats, resume, pending))
    }

    /// Installs an arriving migrated thread. If a dormant shadow for `tid`
    /// exists (back-migration), it is revived in place — the cheap path the
    /// paper measures; otherwise a fresh task is created. The thread
    /// resumes with the migrate syscall's success result. Returns
    /// `(core_to_kick, was_back_migration)`.
    ///
    /// # Panics
    ///
    /// Panics if the group has no mm replica here yet.
    pub fn attach_migrated(
        &mut self,
        tid: Tid,
        group: GroupId,
        program: Box<dyn crate::program::Program>,
        ctx: crate::types::CpuContext,
        stats: TaskStats,
        now: SimTime,
    ) -> (CoreId, bool) {
        self.attach_migrated_with(
            tid,
            group,
            program,
            ctx,
            stats,
            Resume::Sys(SysResult::Val(0)),
            None,
            now,
        )
    }

    /// [`Kernel::attach_migrated`] with an explicit resume value and pending
    /// op: policy-initiated migrations move threads that never called
    /// `migrate`, so they resume exactly where they left off instead of
    /// with the migrate syscall's result.
    #[allow(clippy::too_many_arguments)]
    pub fn attach_migrated_with(
        &mut self,
        tid: Tid,
        group: GroupId,
        program: Box<dyn crate::program::Program>,
        ctx: crate::types::CpuContext,
        stats: TaskStats,
        resume: Resume,
        pending: Option<Op>,
        now: SimTime,
    ) -> (CoreId, bool) {
        assert!(
            self.has_mm(group),
            "migration before mm replica for {group}"
        );
        if let Some(op) = pending {
            self.pending_ops.insert(tid, op);
        }
        if let Some(task) = self.tasks.get_mut(&tid) {
            assert!(task.is_shadow(), "{tid} exists here but is not a shadow");
            task.program = Some(program);
            task.ctx = ctx;
            task.stats = stats;
            task.state = TaskState::Ready;
            task.resume = resume;
            let core = task.core;
            let cs = self.core_state_mut(core);
            cs.runqueue.push_back(tid);
            self.wake_stamp.insert(tid, now);
            (core, true)
        } else {
            let core = self.least_loaded_core();
            let mut task = Task::new(tid, group, program, core);
            task.ctx = ctx;
            task.stats = stats;
            task.resume = resume;
            self.tasks.insert(tid, task);
            let cs = self.core_state_mut(core);
            cs.runqueue.push_back(tid);
            self.wake_stamp.insert(tid, now);
            (core, false)
        }
    }

    /// Kills the thread that is current on its core (segfault policy):
    /// marks it exited with `code`, frees the core. Returns the core to
    /// kick. Counts as a segfault when `code == 139`.
    ///
    /// # Panics
    ///
    /// Panics if the task is not current on its core.
    pub fn force_exit_current(&mut self, tid: Tid, code: i32, at: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        let core = task.core;
        task.state = TaskState::Exited(code);
        task.program = None;
        self.pending_ops.remove(&tid);
        let cs = self.core_state_mut(core);
        assert_eq!(cs.current, Some(tid), "force-exiting non-current task");
        cs.current = None;
        cs.busy_until = cs.busy_until.max(at);
        self.stats.exited.incr();
        if code == 139 {
            self.stats.segv.incr();
        }
        core
    }

    /// Kills a task in *any* live state (group-exit teardown): dequeues it,
    /// frees its core if running, marks it exited. Shadows and already
    /// exited tasks are left alone. Returns the core to kick when one was
    /// freed or had the task queued.
    pub fn kill_task(&mut self, tid: Tid, code: i32, at: SimTime) -> Option<CoreId> {
        let task = self.tasks.get_mut(&tid)?;
        if task.is_exited() || task.is_shadow() {
            return None;
        }
        let core = task.core;
        let was_on_core = matches!(task.state, TaskState::Running | TaskState::InSyscall);
        let was_queued = matches!(task.state, TaskState::Ready);
        task.state = TaskState::Exited(code);
        task.program = None;
        self.pending_ops.remove(&tid);
        self.wake_stamp.remove(&tid);
        self.stats.exited.incr();
        let cs = self.core_state_mut(core);
        if was_on_core {
            debug_assert_eq!(cs.current, Some(tid));
            cs.current = None;
            cs.busy_until = cs.busy_until.max(at);
            return Some(core);
        }
        if was_queued {
            if let Some(pos) = cs.runqueue.iter().position(|&t| t == tid) {
                cs.runqueue.remove(pos);
            }
            return Some(core);
        }
        // Blocked: nothing on a core to free.
        None
    }

    /// Drops every task record of a group (after group exit), returning how
    /// many records were removed. The mm replica is dropped separately via
    /// [`Kernel::drop_mm`].
    pub fn reap_group(&mut self, group: GroupId) -> usize {
        let doomed: Vec<Tid> = self
            .tasks
            .values()
            .filter(|t| t.group == group)
            .map(|t| t.tid)
            .collect();
        for tid in &doomed {
            debug_assert!(
                self.tasks[tid].is_exited() || self.tasks[tid].is_shadow(),
                "reaping live task {tid}"
            );
            self.tasks.remove(tid);
            self.pending_ops.remove(tid);
            self.wake_stamp.remove(tid);
        }
        doomed.len()
    }

    /// Live (non-exited, non-shadow) members of a group hosted here.
    pub fn group_members(&self, group: GroupId) -> Vec<Tid> {
        let mut v: Vec<Tid> = self
            .tasks
            .values()
            .filter(|t| t.group == group && !t.is_exited() && !t.is_shadow())
            .map(|t| t.tid)
            .collect();
        v.sort_unstable();
        v
    }

    /// Distinct groups with live members hosted here, ascending.
    pub fn live_groups(&self) -> Vec<GroupId> {
        let mut v: Vec<GroupId> = self
            .tasks
            .values()
            .filter(|t| !t.is_exited() && !t.is_shadow())
            .map(|t| t.group)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A queued ready thread belonging to `group`, if any (replica-aware
    /// co-placement migrates members of a specific group; contrast
    /// [`Kernel::pick_queued_task`], which picks regardless of group).
    pub fn pick_queued_task_in(&self, group: GroupId) -> Option<Tid> {
        self.cores
            .iter()
            .flat_map(|cs| cs.runqueue.iter().rev())
            .copied()
            .find(|&tid| self.tasks.get(&tid).is_some_and(|t| t.group == group))
    }

    /// Number of tasks in any non-exited, non-shadow state.
    pub fn live_tasks(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| !t.is_exited() && !t.is_shadow())
            .count()
    }

    /// Tasks that are blocked (for stuck-detection in reports).
    pub fn blocked_tasks(&self) -> Vec<Tid> {
        let mut v: Vec<_> = self
            .tasks
            .values()
            .filter(|t| matches!(t.state, TaskState::Blocked(_)))
            .map(|t| t.tid)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use popcorn_hw::{HwParams, Topology};

    #[derive(Debug)]
    struct Spin {
        chunks: u32,
    }
    impl Program for Spin {
        fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
            if self.chunks == 0 {
                return Op::Exit(0);
            }
            self.chunks -= 1;
            Op::Compute(2400) // 1us at 2.4GHz
        }
    }

    #[derive(Debug)]
    struct Toucher {
        addr: VAddr,
        state: u8,
    }
    impl Program for Toucher {
        fn step(&mut self, r: Resume, _e: &ProgEnv) -> Op {
            match self.state {
                0 => {
                    self.state = 1;
                    Op::Store(self.addr, 42)
                }
                1 => {
                    self.state = 2;
                    Op::Load(self.addr)
                }
                _ => {
                    if let Resume::Value(v) = r {
                        assert_eq!(v, 42);
                    } else {
                        panic!("expected load value");
                    }
                    Op::Exit(0)
                }
            }
        }
    }

    fn kernel() -> Kernel {
        let machine = Machine::new(Topology::new(1, 2), HwParams::default());
        Kernel::new(
            KernelId(0),
            vec![CoreId(0), CoreId(1)],
            OsParams::default(),
            machine,
        )
    }

    fn group(k: &mut Kernel) -> GroupId {
        let leader = k.alloc_tid();
        let g = GroupId(leader);
        k.adopt_mm(Mm::new(g));
        g
    }

    #[test]
    fn idle_core_reports_idle() {
        let mut k = kernel();
        assert!(matches!(
            k.run_core(SimTime::ZERO, CoreId(0)),
            RunOutcome::Idle
        ));
    }

    #[test]
    fn spin_program_runs_to_exit() {
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(tid, g, Box::new(Spin { chunks: 3 }), None, SimTime::ZERO);
        match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Exited { tid: t, code, at } => {
                assert_eq!(t, tid);
                assert_eq!(code, 0);
                // ctx switch + 3us compute + exit teardown.
                let expect = 1_600 + 3_000 + 6_000;
                assert_eq!(at.as_nanos(), expect);
            }
            other => panic!("expected exit, got {other:?}"),
        }
        assert!(k.task(tid).unwrap().is_exited());
        assert_eq!(k.live_tasks(), 0);
    }

    #[test]
    fn memory_ops_fault_then_complete() {
        let mut k = kernel();
        let g = group(&mut k);
        let addr = k.mm_mut(g).map_anon(4096).unwrap();
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Toucher { addr, state: 0 }),
            None,
            SimTime::ZERO,
        );
        // First store faults (absent page).
        let (page, at) = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Fault {
                page, write, at, ..
            } => {
                assert!(write);
                (page, at)
            }
            other => panic!("expected fault, got {other:?}"),
        };
        // OS resolves with a zero-fill, task retries inline.
        k.mm_mut(g)
            .install_zero_page(page, crate::mm::PageState::Exclusive);
        let done = at + SimTime::from_nanos(1_100);
        let kick = k.finish_fault_inline(tid, done);
        assert_eq!(kick, core);
        match k.run_core(done, core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 0),
            other => panic!("expected exit, got {other:?}"),
        }
        // The store value survived in the mm.
        assert_eq!(k.mm(g).read_word(addr), 42);
        assert_eq!(k.stats.faults.get(), 1);
    }

    #[test]
    fn no_vma_access_raises_fault_for_os_policy() {
        #[derive(Debug)]
        struct Wild;
        impl Program for Wild {
            fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
                Op::Store(VAddr(0xdead_beef), 1)
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(tid, g, Box::new(Wild), None, SimTime::ZERO);
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Fault {
                no_vma, write, at, ..
            } => {
                assert!(no_vma);
                assert!(write);
                at
            }
            other => panic!("expected no-vma fault, got {other:?}"),
        };
        // SMP policy: kill it as a segfault.
        let kick = k.force_exit_current(tid, 139, at);
        assert_eq!(kick, core);
        assert_eq!(k.stats.segv.get(), 1);
        assert!(k.task(tid).unwrap().is_exited());
        assert!(matches!(k.run_core(at, core), RunOutcome::Idle));
    }

    #[test]
    fn kill_task_in_every_state() {
        let mut k = kernel();
        let g = group(&mut k);
        // Queued task.
        let queued = k.alloc_tid();
        k.spawn(
            queued,
            g,
            Box::new(Spin { chunks: 5 }),
            Some(CoreId(0)),
            SimTime::ZERO,
        );
        // Blocked task (spawn on other core, run it into a syscall, block).
        #[derive(Debug)]
        struct Sleepy {
            asked: bool,
        }
        impl Program for Sleepy {
            fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::Nanosleep { ns: 1 });
                }
                Op::Exit(0)
            }
        }
        let blocked = k.alloc_tid();
        k.spawn(
            blocked,
            g,
            Box::new(Sleepy { asked: false }),
            Some(CoreId(1)),
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, CoreId(1)) {
            RunOutcome::Syscall { at, .. } => at,
            other => panic!("unexpected {other:?}"),
        };
        k.block_current(blocked, BlockReason::Sleep, at);

        assert_eq!(k.kill_task(queued, 1, at), Some(CoreId(0)));
        assert_eq!(k.kill_task(blocked, 1, at), None);
        assert!(k.task(queued).unwrap().is_exited());
        assert!(k.task(blocked).unwrap().is_exited());
        // Idempotent on exited tasks.
        assert_eq!(k.kill_task(queued, 1, at), None);
        // Unknown tid is a no-op.
        assert_eq!(k.kill_task(Tid::new(KernelId(5), 1), 1, at), None);
        assert_eq!(k.live_tasks(), 0);
    }

    #[test]
    fn reap_group_removes_exited_records() {
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(tid, g, Box::new(Spin { chunks: 0 }), None, SimTime::ZERO);
        assert_eq!(k.group_members(g), vec![tid]);
        match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Exited { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(k.group_members(g), Vec::<Tid>::new());
        assert_eq!(k.reap_group(g), 1);
        assert!(k.task(tid).is_none());
    }

    #[test]
    fn syscall_outcome_then_finish_resumes() {
        #[derive(Debug)]
        struct Getter {
            asked: bool,
        }
        impl Program for Getter {
            fn step(&mut self, r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::GetTid);
                }
                match r {
                    Resume::Sys(SysResult::Val(v)) => Op::Exit(v as i32),
                    other => panic!("unexpected resume {other:?}"),
                }
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Getter { asked: false }),
            None,
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Syscall { req, at, .. } => {
                assert!(matches!(req, SyscallReq::GetTid));
                at
            }
            other => panic!("expected syscall, got {other:?}"),
        };
        let done = at + SimTime::from_nanos(100);
        let kick = k.finish_syscall(tid, SysResult::Val(7), done);
        assert_eq!(kick, core);
        match k.run_core(done, core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 7),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn sync_op_outcome_then_finish_resumes_with_old_value() {
        #[derive(Debug)]
        struct Adder {
            asked: bool,
        }
        impl Program for Adder {
            fn step(&mut self, r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::AtomicRmw(VAddr(0x1000), RmwOp::Add(1));
                }
                match r {
                    Resume::Value(old) => Op::Exit(old as i32),
                    other => panic!("unexpected resume {other:?}"),
                }
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Adder { asked: false }),
            None,
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::SyncOp { addr, op, at, .. } => {
                assert_eq!(addr, VAddr(0x1000));
                assert!(matches!(op, RmwOp::Add(1)));
                at
            }
            other => panic!("expected sync op, got {other:?}"),
        };
        k.finish_sync_op(tid, 41, at + SimTime::from_nanos(20));
        match k.run_core(at + SimTime::from_nanos(20), core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 41),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn two_tasks_share_a_core_via_preemption() {
        let mut k = kernel();
        let g = group(&mut k);
        let t1 = k.alloc_tid();
        let t2 = k.alloc_tid();
        // Each spins 3 quanta worth of compute.
        let chunks = 3 * 1_000;
        k.spawn(
            t1,
            g,
            Box::new(Spin { chunks }),
            Some(CoreId(0)),
            SimTime::ZERO,
        );
        k.spawn(
            t2,
            g,
            Box::new(Spin { chunks }),
            Some(CoreId(0)),
            SimTime::ZERO,
        );
        let mut now = SimTime::ZERO;
        let mut exited = 0;
        let mut preemptions = 0;
        for _ in 0..100_000 {
            match k.run_core(now, CoreId(0)) {
                RunOutcome::Preempted { at } | RunOutcome::Busy { until: at } => {
                    preemptions += 1;
                    now = at;
                }
                RunOutcome::Exited { at, .. } => {
                    exited += 1;
                    now = at;
                    if exited == 2 {
                        break;
                    }
                }
                RunOutcome::Idle => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(exited, 2);
        assert!(preemptions >= 4, "expected interleaving, got {preemptions}");
        assert!(k.stats.ctx_switches.get() >= 4);
    }

    #[test]
    fn least_loaded_core_balances_spawns() {
        let mut k = kernel();
        let g = group(&mut k);
        let a = k.alloc_tid();
        let b = k.alloc_tid();
        let ca = k.spawn(a, g, Box::new(Spin { chunks: 1 }), None, SimTime::ZERO);
        let cb = k.spawn(b, g, Box::new(Spin { chunks: 1 }), None, SimTime::ZERO);
        assert_ne!(ca, cb, "second spawn should pick the other core");
    }

    #[test]
    fn block_and_wake_roundtrip() {
        #[derive(Debug)]
        struct Sleeper {
            asked: bool,
        }
        impl Program for Sleeper {
            fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::Nanosleep { ns: 1000 });
                }
                Op::Exit(0)
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Sleeper { asked: false }),
            None,
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Syscall { at, .. } => at,
            other => panic!("expected syscall, got {other:?}"),
        };
        k.block_current(tid, BlockReason::Sleep, at);
        // Core is free now: idle.
        assert!(matches!(k.run_core(at, core), RunOutcome::Idle));
        // Wake needs the blocked->ready transition plus a syscall result.
        let task = k.task_mut(tid).unwrap();
        task.resume = Resume::Sys(SysResult::Val(0));
        let kick = k.wake(tid, at + SimTime::from_micros(1));
        assert_eq!(kick, core);
        match k.run_core(at + SimTime::from_micros(1), core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 0),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn migration_extract_leaves_shadow_and_attach_revives() {
        #[derive(Debug)]
        struct Migrator {
            asked: bool,
        }
        impl Program for Migrator {
            fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::Migrate(
                        crate::program::MigrateTarget::Kernel(KernelId(1)),
                    ));
                }
                Op::Exit(0)
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Migrator { asked: false }),
            None,
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Syscall { at, .. } => at,
            other => panic!("expected syscall, got {other:?}"),
        };
        let (program, ctx, stats, pending) = k.extract_for_migration(tid, KernelId(1), at);
        assert!(pending.is_none(), "a plain migrate carries no parked op");
        assert!(k.task(tid).unwrap().is_shadow());
        assert_eq!(k.live_tasks(), 0);
        // Back-migration revives the shadow in place.
        let (kick, was_back) = k.attach_migrated(tid, g, program, ctx, stats, at);
        assert!(was_back);
        assert_eq!(kick, core);
        match k.run_core(at, core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 0),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn attach_without_shadow_creates_fresh_task() {
        let mut k = kernel();
        let g = group(&mut k);
        let foreign = Tid::new(KernelId(3), 9);
        let (core, was_back) = k.attach_migrated(
            foreign,
            g,
            Box::new(Spin { chunks: 0 }),
            Default::default(),
            TaskStats::default(),
            SimTime::ZERO,
        );
        assert!(!was_back);
        match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Exited { tid, .. } => assert_eq!(tid, foreign),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn reassign_core_moves_queued_task() {
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        k.spawn(
            tid,
            g,
            Box::new(Spin { chunks: 1 }),
            Some(CoreId(0)),
            SimTime::ZERO,
        );
        k.reassign_core(tid, CoreId(1));
        assert_eq!(k.core_load(CoreId(0)), 0);
        assert_eq!(k.core_load(CoreId(1)), 1);
        assert!(matches!(
            k.run_core(SimTime::ZERO, CoreId(0)),
            RunOutcome::Idle
        ));
        assert!(matches!(
            k.run_core(SimTime::ZERO, CoreId(1)),
            RunOutcome::Exited { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_spawn_panics() {
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        k.spawn(tid, g, Box::new(Spin { chunks: 0 }), None, SimTime::ZERO);
        k.spawn(tid, g, Box::new(Spin { chunks: 0 }), None, SimTime::ZERO);
    }

    #[test]
    fn busy_core_reports_busy() {
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(tid, g, Box::new(Spin { chunks: 1 }), None, SimTime::ZERO);
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Exited { at, .. } => at,
            other => panic!("unexpected {other:?}"),
        };
        // A stale event before `at` sees a busy core.
        match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Busy { until } => assert_eq!(until, at),
            other => panic!("expected busy, got {other:?}"),
        }
    }

    /// A `Toucher` that faulted at `at` and whose fault resolves inline
    /// 1 µs later, at `done`: the core is busy until `done`.
    fn faulted() -> (Kernel, Tid, CoreId, SimTime, SimTime) {
        let mut k = kernel();
        let g = group(&mut k);
        let addr = k.mm_mut(g).map_anon(4096).unwrap();
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Toucher { addr, state: 0 }),
            None,
            SimTime::ZERO,
        );
        let (page, at) = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Fault { page, at, .. } => (page, at),
            other => panic!("expected fault, got {other:?}"),
        };
        k.mm_mut(g)
            .install_zero_page(page, crate::mm::PageState::Exclusive);
        let done = at + SimTime::from_micros(1);
        k.finish_fault_inline(tid, done);
        (k, tid, core, at, done)
    }

    #[test]
    fn busy_core_hands_out_one_repoll() {
        let (mut k, _, core, at, done) = faulted();
        match k.run_core(at, core) {
            RunOutcome::Busy { until } => assert_eq!(until, done),
            other => panic!("expected busy, got {other:?}"),
        }
        // The re-poll at `done` is queued: later kicks start no chain.
        for now in [at, at + SimTime::from_nanos(500)] {
            assert!(matches!(k.run_core(now, core), RunOutcome::Idle));
        }
    }

    #[test]
    fn raised_busy_until_hands_out_a_new_repoll() {
        let (mut k, tid, core, at, done) = faulted();
        assert!(matches!(k.run_core(at, core), RunOutcome::Busy { .. }));
        let later = done + SimTime::from_nanos(1_000);
        k.finish_fault_inline(tid, later);
        match k.run_core(at, core) {
            RunOutcome::Busy { until } => assert_eq!(until, later),
            other => panic!("expected busy, got {other:?}"),
        }
        assert!(matches!(k.run_core(at, core), RunOutcome::Idle));
        // The old re-poll at `done` ends its chain; the one at `later` runs.
        assert!(matches!(k.run_core(done, core), RunOutcome::Idle));
        assert!(matches!(
            k.run_core(later, core),
            RunOutcome::Exited { code: 0, .. }
        ));
    }

    #[test]
    fn core_runs_normally_at_busy_until() {
        let (mut k, tid, core, at, done) = faulted();
        assert!(matches!(k.run_core(at, core), RunOutcome::Busy { .. }));
        assert!(matches!(k.run_core(at, core), RunOutcome::Idle));
        match k.run_core(done, core) {
            RunOutcome::Exited { tid: t, code, .. } => {
                assert_eq!(t, tid);
                assert_eq!(code, 0);
            }
            other => panic!("expected exit, got {other:?}"),
        }
    }
}
