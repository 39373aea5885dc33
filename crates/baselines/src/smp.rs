//! The SMP baseline: one kernel, all cores, shared data structures.
//!
//! This models the paper's "SMP Linux" comparison point. The kernel
//! mechanism is identical to the other OS models; what differs is that
//! every core shares one instance of each kernel data structure, so every
//! operation pays a contended lock site:
//!
//! - `clone`/`exit` — the task-list lock;
//! - `mmap`/`munmap`/`brk` — the process's `mmap_sem` (write side), plus a
//!   machine-wide TLB shootdown on unmap;
//! - page faults — `mmap_sem` (read side) and the page-table lock;
//! - `futex` — the hash-bucket lock, plus the target run-queue lock per
//!   wakeup;
//! - user-level atomics — the sync word's cache line.
//!
//! As core counts grow these sites saturate — the contention collapse the
//! replicated-kernel design removes.

use std::collections::{BTreeMap, HashMap};

use popcorn_hw::{CoreId, HwParams, LockSite, Machine, RwLockSite, Topology};
use popcorn_kernel::futex::{FutexTable, Waiter};
use popcorn_kernel::kernel::Kernel;
use popcorn_kernel::mm::{Mm, PageState};
use popcorn_kernel::osmodel::{self, ensure_core_run, OsEvent, OsMachine, OsModel, RunReport};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{
    FutexOp, MigrateTarget, Placement, Program, Resume, RmwOp, SysResult, SyscallReq,
};
use popcorn_kernel::task::BlockReason;
use popcorn_kernel::types::{Errno, GroupId, PageNo, Tid, VAddr};
use popcorn_msg::KernelId;
use popcorn_sim::{Handler, Scheduler, SimTime, Simulator};

use crate::params::SmpParams;

/// SMP has no inter-kernel messages; the custom event type is empty.
#[derive(Debug)]
pub enum SmpMsg {}

type SmpEvent = OsEvent<SmpMsg>;

/// Per-group state of the single kernel.
#[derive(Debug)]
struct SmpGroup {
    live: usize,
    mmap_sem: RwLockSite,
    pt_lock: LockSite,
}

/// The SMP machine: one kernel plus the shared lock sites.
#[derive(Debug)]
pub struct SmpMachine {
    kernels: Vec<Kernel>, // always exactly one
    machine: Machine,
    params: SmpParams,
    futex: FutexTable,
    groups: HashMap<GroupId, SmpGroup>,
    task_lock: LockSite,
    zone_lock: LockSite,
    futex_buckets: Vec<LockSite>,
    rq_locks: Vec<LockSite>,
    sync_sites: HashMap<(GroupId, u64), LockSite>,
    /// Lock statistics of groups that already exited: (acquires, summed
    /// mean-weighted wait ns) for their `mmap_sem`s.
    retired_mmap: (u64, f64),
}

impl SmpMachine {
    fn new(kernel: Kernel, machine: Machine, params: SmpParams) -> Self {
        let cores = machine.topology().num_cores() as usize;
        let hw = machine.params();
        SmpMachine {
            task_lock: LockSite::new("tasklist_lock", hw),
            zone_lock: LockSite::new("zone_lock", hw),
            futex_buckets: (0..params.futex_buckets)
                .map(|_| LockSite::new("futex_bucket", hw))
                .collect(),
            rq_locks: (0..cores).map(|_| LockSite::new("rq_lock", hw)).collect(),
            kernels: vec![kernel],
            machine,
            params,
            futex: FutexTable::new(),
            groups: HashMap::new(),
            sync_sites: HashMap::new(),
            retired_mmap: (0, 0.0),
        }
    }

    fn kernel(&mut self) -> &mut Kernel {
        &mut self.kernels[0]
    }

    fn kick(&self, sched: &mut Scheduler<SmpEvent>, core: CoreId, at: SimTime) {
        ensure_core_run(sched, 0, core, at);
    }

    fn bucket_of(&self, group: GroupId, addr: VAddr) -> usize {
        // Same spirit as Linux's futex hash: mix the mm and the address.
        let x = (group.pid() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(addr.0 >> 3);
        (x as usize) % self.futex_buckets.len()
    }

    fn group_of(&self, tid: Tid) -> GroupId {
        self.kernels[0]
            .task(tid)
            .unwrap_or_else(|| panic!("{tid} unknown"))
            .group
    }

    /// Wakes a waiter, paying the target run-queue lock.
    fn wake_waiter(
        &mut self,
        sched: &mut Scheduler<SmpEvent>,
        waker_core: CoreId,
        tid: Tid,
        at: SimTime,
    ) -> SimTime {
        let Some(task) = self.kernels[0].task(tid) else {
            return at;
        };
        if task.is_exited() {
            return at;
        }
        let target_core = task.core;
        let ic = self.machine.interconnect().clone();
        let hold = SimTime::from_nanos(self.params.rq_lock_hold_ns);
        let acq = self.rq_locks[target_core.0 as usize].acquire(at, waker_core, hold, &ic);
        if let Some(t) = self.kernels[0].task_mut(tid) {
            t.resume = Resume::Sys(SysResult::Val(0));
        }
        let core = self.kernels[0].wake(tid, acq.released_at);
        self.kick(sched, core, acq.released_at);
        acq.released_at
    }

    fn note_exit(&mut self, group: GroupId, tid: Tid) {
        let _ = tid;
        let done = match self.groups.get_mut(&group) {
            Some(g) => {
                g.live -= 1;
                g.live == 0
            }
            None => false,
        };
        if done {
            if let Some(g) = self.groups.get(&group) {
                let acq = g.mmap_sem.write_acquires() + g.mmap_sem.read_acquires();
                let wait = g.mmap_sem.write_wait_histogram().mean()
                    * g.mmap_sem.write_acquires() as f64
                    + g.mmap_sem.read_wait_histogram().mean() * g.mmap_sem.read_acquires() as f64;
                self.retired_mmap.0 += acq;
                self.retired_mmap.1 += wait;
            }
            self.groups.remove(&group);
            self.kernels[0].reap_group(group);
            self.kernels[0].drop_mm(group);
            self.futex.drop_group(group);
            self.sync_sites.retain(|&(g, _), _| g != group);
        }
    }
}

impl OsMachine for SmpMachine {
    type Msg = SmpMsg;

    fn kernels_mut(&mut self) -> &mut [Kernel] {
        &mut self.kernels
    }

    fn handle_syscall(
        &mut self,
        sched: &mut Scheduler<SmpEvent>,
        _ki: usize,
        core: CoreId,
        tid: Tid,
        req: SyscallReq,
        at: SimTime,
    ) {
        let group = self.group_of(tid);
        let ic = self.machine.interconnect().clone();
        match req {
            SyscallReq::GetPid => {
                self.kernel()
                    .finish_syscall(tid, SysResult::Val(group.pid() as u64), at);
                self.kick(sched, core, at);
            }
            SyscallReq::GetTid => {
                self.kernel()
                    .finish_syscall(tid, SysResult::Val(tid.0 as u64), at);
                self.kick(sched, core, at);
            }
            SyscallReq::GetKernel => {
                self.kernel().finish_syscall(tid, SysResult::Val(0), at);
                self.kick(sched, core, at);
            }
            SyscallReq::Yield => {
                let c = self.kernel().yield_current(tid, at);
                self.kick(sched, c, at);
            }
            SyscallReq::Nanosleep { ns } => {
                let c = self.kernel().block_current(tid, BlockReason::Sleep, at);
                self.kick(sched, c, at);
                sched.at(
                    at + SimTime::from_nanos(ns),
                    OsEvent::TimerWake { kernel: 0, tid },
                );
            }
            SyscallReq::Mmap { len } => {
                let hold = SimTime::from_nanos(self.params.mmap_write_hold_ns);
                let g = self.groups.get_mut(&group).expect("group exists");
                let acq = g.mmap_sem.write_acquire(at, core, hold, &ic);
                let res = self.kernels[0].mm_mut(group).map_anon(len);
                let base = SimTime::from_nanos(self.kernels[0].params().mmap_base_ns);
                let done = acq.released_at + base;
                let sys = match res {
                    Ok(a) => SysResult::Val(a.0),
                    Err(e) => SysResult::Err(e),
                };
                self.kernel().finish_syscall(tid, sys, done);
                self.kick(sched, core, done);
            }
            SyscallReq::Munmap { addr, len } => {
                let hold = SimTime::from_nanos(self.params.munmap_write_hold_ns);
                let g = self.groups.get_mut(&group).expect("group exists");
                let acq = g.mmap_sem.write_acquire(at, core, hold, &ic);
                let res = self.kernels[0].mm_mut(group).unmap(addr, len);
                let base = SimTime::from_nanos(self.kernels[0].params().munmap_base_ns);
                let mut done = acq.released_at + base;
                let sys = match res {
                    Ok(dropped) => {
                        if !dropped.is_empty() {
                            // SMP pays a machine-wide shootdown: any core
                            // may have cached these translations.
                            let all = self.machine.topology().num_cores();
                            let targets: Vec<CoreId> =
                                (0..all).map(CoreId).filter(|&c| c != core).collect();
                            let sd = self.machine.shootdown().tlb_shootdown(&targets);
                            done += sd.initiator_busy;
                            // Freeing the pages takes the global zone lock.
                            let free_hold = SimTime::from_nanos(
                                self.params.zone_free_per_page_ns * dropped.len() as u64,
                            );
                            let zone = self.zone_lock.acquire(done, core, free_hold, &ic);
                            done = zone.released_at;
                        }
                        SysResult::Val(0)
                    }
                    Err(e) => SysResult::Err(e),
                };
                self.kernel().finish_syscall(tid, sys, done);
                self.kick(sched, core, done);
            }
            SyscallReq::Brk { grow } => {
                let hold = SimTime::from_nanos(self.params.mmap_write_hold_ns);
                let g = self.groups.get_mut(&group).expect("group exists");
                let acq = g.mmap_sem.write_acquire(at, core, hold, &ic);
                let old = self.kernels[0].mm_mut(group).brk_grow(grow);
                let base = SimTime::from_nanos(self.kernels[0].params().mmap_base_ns);
                let done = acq.released_at + base;
                self.kernel()
                    .finish_syscall(tid, SysResult::Val(old.0), done);
                self.kick(sched, core, done);
            }
            SyscallReq::Futex(op) => {
                let bucket = self.bucket_of(
                    group,
                    match op {
                        FutexOp::Wait { uaddr, .. } | FutexOp::Wake { uaddr, .. } => uaddr,
                    },
                );
                let hold = SimTime::from_nanos(self.params.futex_bucket_hold_ns);
                let acq = self.futex_buckets[bucket].acquire(at, core, hold, &ic);
                let base = SimTime::from_nanos(self.kernels[0].params().futex_base_ns);
                let done = acq.released_at + base;
                match op {
                    FutexOp::Wait { uaddr, expected } => {
                        let w = Waiter {
                            kernel: KernelId(0),
                            tid,
                        };
                        if self.futex.wait_if(group, uaddr, expected, w) {
                            let c =
                                self.kernel()
                                    .block_current(tid, BlockReason::Futex(uaddr), done);
                            self.kick(sched, c, done);
                        } else {
                            self.kernel()
                                .finish_syscall(tid, SysResult::Err(Errno::Again), done);
                            self.kick(sched, core, done);
                        }
                    }
                    FutexOp::Wake { uaddr, count } => {
                        let woken = self.futex.wake(group, uaddr, count);
                        let n = woken.len() as u64;
                        let wakeup = SimTime::from_nanos(self.kernels[0].params().wakeup_ns);
                        let mut t = done;
                        for w in woken {
                            t += wakeup;
                            t = self.wake_waiter(sched, core, w.tid, t);
                        }
                        self.kernel().finish_syscall(tid, SysResult::Val(n), t);
                        self.kick(sched, core, t);
                    }
                }
            }
            SyscallReq::Clone { child, placement } => {
                let hold = SimTime::from_nanos(self.params.task_lock_hold_ns);
                let acq = self.task_lock.acquire(at, core, hold, &ic);
                let base = SimTime::from_nanos(self.kernels[0].params().clone_base_ns);
                let done = acq.released_at + base;
                let child_tid = self.kernel().alloc_tid();
                let core_hint = match placement {
                    Placement::Core(c) => Some(c),
                    Placement::Local | Placement::Auto => None,
                };
                let child_core = self
                    .kernel()
                    .spawn(child_tid, group, child, core_hint, done);
                if let Some(g) = self.groups.get_mut(&group) {
                    g.live += 1;
                }
                self.kernel()
                    .finish_syscall(tid, SysResult::Val(child_tid.0 as u64), done);
                self.kick(sched, core, done);
                self.kick(sched, child_core, done);
            }
            SyscallReq::Migrate(target) => match target {
                MigrateTarget::Core(c) => {
                    if c == core {
                        self.kernel().finish_syscall(tid, SysResult::Val(0), at);
                        self.kick(sched, core, at);
                    } else {
                        let freed = self.kernel().block_current(tid, BlockReason::Migrating, at);
                        self.kick(sched, freed, at);
                        self.kernel().reassign_core(tid, c);
                        let done = at + self.kernels[0].params().context_switch();
                        if let Some(t) = self.kernels[0].task_mut(tid) {
                            t.resume = Resume::Sys(SysResult::Val(0));
                        }
                        let nc = self.kernel().wake(tid, done);
                        self.kick(sched, nc, done);
                    }
                }
                MigrateTarget::Kernel(_) => {
                    // There is exactly one kernel: inter-kernel migration
                    // does not exist on SMP.
                    self.kernel()
                        .finish_syscall(tid, SysResult::Err(Errno::NoSys), at);
                    self.kick(sched, core, at);
                }
            },
            SyscallReq::ExitGroup { code } => {
                let hold = SimTime::from_nanos(self.params.task_lock_hold_ns);
                let acq = self.task_lock.acquire(at, core, hold, &ic);
                let done = acq.released_at;
                let members = self.kernels[0].group_members(group);
                for m in members {
                    if let Some(c) = self.kernel().kill_task(m, code, done) {
                        self.kick(sched, c, done);
                    }
                    self.note_exit(group, m);
                }
            }
        }
    }

    fn handle_sync_op(
        &mut self,
        sched: &mut Scheduler<SmpEvent>,
        _ki: usize,
        core: CoreId,
        tid: Tid,
        addr: VAddr,
        op: RmwOp,
        at: SimTime,
    ) {
        let group = self.group_of(tid);
        let ic = self.machine.interconnect().clone();
        let hw = self.machine.params().clone();
        let site = self
            .sync_sites
            .entry((group, addr.0))
            .or_insert_with(|| LockSite::new("syncword", &hw));
        let acq = site.acquire(at, core, SimTime::ZERO, &ic);
        let old = self.futex.rmw(group, addr, op);
        self.kernel().finish_sync_op(tid, old, acq.released_at);
        self.kick(sched, core, acq.released_at);
    }

    fn handle_fault(
        &mut self,
        sched: &mut Scheduler<SmpEvent>,
        _ki: usize,
        core: CoreId,
        tid: Tid,
        page: PageNo,
        _write: bool,
        no_vma: bool,
        at: SimTime,
    ) {
        let group = self.group_of(tid);
        if no_vma {
            let c = self.kernel().force_exit_current(tid, 139, at);
            self.kick(sched, c, at);
            self.note_exit(group, tid);
            return;
        }
        let ic = self.machine.interconnect().clone();
        let read_hold = SimTime::from_nanos(self.params.fault_read_hold_ns);
        let pt_hold = SimTime::from_nanos(self.params.pt_lock_hold_ns);
        let g = self.groups.get_mut(&group).expect("group exists");
        let sem = g.mmap_sem.read_acquire(at, core, read_hold, &ic);
        let pt = g.pt_lock.acquire(sem.released_at, core, pt_hold, &ic);
        // Allocating the backing page takes the global zone lock.
        let zone_hold = SimTime::from_nanos(self.params.zone_lock_hold_ns);
        let zone = self.zone_lock.acquire(pt.released_at, core, zone_hold, &ic);
        let service = SimTime::from_nanos(self.kernels[0].params().fault_service_ns);
        let done = zone.released_at + service;
        // Anonymous zero-fill; SMP has a single copy so pages are always
        // exclusive to the (one) kernel.
        self.kernels[0]
            .mm_mut(group)
            .install_zero_page(page, PageState::Exclusive);
        self.kernel().finish_fault_inline(tid, done);
        self.kick(sched, core, done);
    }

    fn handle_exit(
        &mut self,
        _sched: &mut Scheduler<SmpEvent>,
        _ki: usize,
        _core: CoreId,
        tid: Tid,
        _code: i32,
        _at: SimTime,
    ) {
        let group = self.group_of(tid);
        self.note_exit(group, tid);
    }

    fn handle_custom(&mut self, _sched: &mut Scheduler<SmpEvent>, msg: SmpMsg, _now: SimTime) {
        match msg {} // no custom events on SMP
    }
}

impl Handler<SmpEvent> for SmpMachine {
    fn handle(&mut self, now: SimTime, event: SmpEvent, sched: &mut Scheduler<SmpEvent>) {
        osmodel::dispatch(self, now, event, sched);
    }
}

/// Builder for [`SmpOs`].
#[derive(Debug, Clone)]
pub struct SmpOsBuilder {
    topology: Topology,
    hw: HwParams,
    os: OsParams,
    smp: SmpParams,
}

impl Default for SmpOsBuilder {
    fn default() -> Self {
        SmpOsBuilder {
            topology: Topology::paper_default(),
            hw: HwParams::default(),
            os: OsParams::default(),
            smp: SmpParams::default(),
        }
    }
}

impl SmpOsBuilder {
    /// Sets the machine topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Overrides hardware parameters.
    pub fn hw_params(mut self, p: HwParams) -> Self {
        self.hw = p;
        self
    }

    /// Overrides kernel software parameters.
    pub fn os_params(mut self, p: OsParams) -> Self {
        self.os = p;
        self
    }

    /// Overrides SMP lock-hold parameters.
    pub fn smp_params(mut self, p: SmpParams) -> Self {
        self.smp = p;
        self
    }

    /// Builds the OS model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter set fails validation.
    pub fn build(self) -> SmpOs {
        self.hw.validate().expect("invalid hardware parameters");
        self.os.validate().expect("invalid OS parameters");
        self.smp.validate().expect("invalid SMP parameters");
        let machine = Machine::new(self.topology, self.hw);
        let cores: Vec<CoreId> = self.topology.cores().collect();
        let kernel = Kernel::new(KernelId(0), cores, self.os, machine.clone());
        SmpOs {
            sim: Simulator::new(),
            machine: SmpMachine::new(kernel, machine, self.smp),
            topology: self.topology,
        }
    }
}

/// The SMP Linux-like OS model.
///
/// # Example
///
/// ```
/// use popcorn_baselines::SmpOs;
/// use popcorn_hw::Topology;
/// use popcorn_kernel::osmodel::OsModel;
/// use popcorn_workloads::micro::null_syscall_storm;
///
/// let mut os = SmpOs::builder().topology(Topology::new(1, 4)).build();
/// os.load(null_syscall_storm(4, 100));
/// let report = os.run();
/// assert!(report.is_clean());
/// assert_eq!(report.exited_tasks, 5);
/// ```
#[derive(Debug)]
pub struct SmpOs {
    sim: Simulator<SmpEvent>,
    machine: SmpMachine,
    topology: Topology,
}

impl SmpOs {
    /// Starts configuring an SMP OS.
    pub fn builder() -> SmpOsBuilder {
        SmpOsBuilder::default()
    }

    /// Acquisition, mean-wait and contention metrics of the lock sites:
    /// the task lock (`task_lock_*`), the page-allocator zone lock
    /// (`zone_lock_*`), the futex hash buckets (`futex_bucket_*`) and every
    /// group's `mmap_sem` (`mmap_sem_*`) — for the contention tables.
    pub fn lock_contention_metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert(
            "task_lock_acquires".into(),
            self.machine.task_lock.acquires() as f64,
        );
        m.insert(
            "task_lock_wait_us_mean".into(),
            self.machine.task_lock.wait_histogram().mean() / 1_000.0,
        );
        m.insert(
            "zone_lock_acquires".into(),
            self.machine.zone_lock.acquires() as f64,
        );
        m.insert(
            "zone_lock_wait_us_mean".into(),
            self.machine.zone_lock.wait_histogram().mean() / 1_000.0,
        );
        m.insert(
            "zone_lock_contention".into(),
            self.machine.zone_lock.contention_ratio(),
        );
        let (acq, wait_sum, contended): (u64, f64, u64) =
            self.machine
                .futex_buckets
                .iter()
                .fold((0, 0.0, 0), |(a, w, c), s| {
                    (
                        a + s.acquires(),
                        w + s.wait_histogram().mean() * s.acquires() as f64,
                        c + s.contended(),
                    )
                });
        m.insert("futex_bucket_acquires".into(), acq as f64);
        m.insert(
            "futex_bucket_wait_us_mean".into(),
            if acq == 0 {
                0.0
            } else {
                wait_sum / acq as f64 / 1_000.0
            },
        );
        m.insert("futex_bucket_contended".into(), contended as f64);
        let mut mmap_waits = self.machine.retired_mmap.1;
        let mut mmap_ops = self.machine.retired_mmap.0;
        for g in self.machine.groups.values() {
            mmap_ops += g.mmap_sem.write_acquires() + g.mmap_sem.read_acquires();
            mmap_waits += g.mmap_sem.write_wait_histogram().mean()
                * g.mmap_sem.write_acquires() as f64
                + g.mmap_sem.read_wait_histogram().mean() * g.mmap_sem.read_acquires() as f64;
        }
        m.insert("mmap_sem_acquires".into(), mmap_ops as f64);
        m.insert(
            "mmap_sem_wait_us_mean".into(),
            if mmap_ops == 0 {
                0.0
            } else {
                mmap_waits / mmap_ops as f64 / 1_000.0
            },
        );
        m
    }
}

impl OsModel for SmpOs {
    fn name(&self) -> &'static str {
        "smp"
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn load(&mut self, program: Box<dyn Program>) -> GroupId {
        let hw = self.machine.machine.params().clone();
        let leader = self.machine.kernels[0].alloc_tid();
        let group = GroupId(leader);
        self.machine.kernels[0].adopt_mm(Mm::new(group));
        self.machine.groups.insert(
            group,
            SmpGroup {
                live: 1,
                mmap_sem: RwLockSite::new("mmap_sem", &hw),
                pt_lock: LockSite::new("pt_lock", &hw),
            },
        );
        let core = self.machine.kernels[0].spawn(leader, group, program, None, self.sim.now());
        self.sim
            .schedule(self.sim.now(), OsEvent::CoreRun { kernel: 0, core });
        group
    }

    fn run_with(&mut self, horizon: SimTime, event_budget: u64) -> RunReport {
        let stop = self.sim.run_until(&mut self.machine, horizon, event_budget);
        RunReport::new(
            self.name(),
            &self.machine.kernels,
            stop,
            self.sim.now(),
            self.sim.events_processed(),
            self.lock_contention_metrics(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_kernel::program::{Op, ProgEnv};

    #[derive(Debug)]
    struct Trivial;
    impl Program for Trivial {
        fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
            Op::Exit(0)
        }
    }

    fn small() -> SmpOs {
        SmpOs::builder().topology(Topology::new(1, 4)).build()
    }

    #[test]
    fn trivial_program_completes() {
        let mut os = small();
        os.load(Box::new(Trivial));
        let r = os.run();
        assert!(r.is_clean());
        assert_eq!(r.exited_tasks, 1);
    }

    #[test]
    fn getpid_is_group_pid_everywhere() {
        #[derive(Debug)]
        struct PidCheck {
            asked: bool,
        }
        impl Program for PidCheck {
            fn step(&mut self, r: Resume, env: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::GetPid);
                }
                let Resume::Sys(SysResult::Val(pid)) = r else {
                    panic!("expected pid");
                };
                assert_eq!(pid, env.tid.0 as u64, "leader pid == own tid");
                Op::Exit(0)
            }
        }
        let mut os = small();
        os.load(Box::new(PidCheck { asked: false }));
        assert!(os.run().is_clean());
    }

    #[test]
    fn inter_kernel_migration_is_nosys() {
        #[derive(Debug)]
        struct TryMigrate {
            asked: bool,
        }
        impl Program for TryMigrate {
            fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(1))));
                }
                assert!(matches!(r, Resume::Sys(SysResult::Err(Errno::NoSys))));
                Op::Exit(0)
            }
        }
        let mut os = small();
        os.load(Box::new(TryMigrate { asked: false }));
        assert!(os.run().is_clean());
    }

    #[test]
    fn affinity_move_lands_on_target_core() {
        #[derive(Debug)]
        struct Mover {
            state: u8,
        }
        impl Program for Mover {
            fn step(&mut self, _r: Resume, env: &ProgEnv) -> Op {
                match self.state {
                    0 => {
                        self.state = 1;
                        Op::Syscall(SyscallReq::Migrate(MigrateTarget::Core(CoreId(3))))
                    }
                    _ => {
                        assert_eq!(env.core, CoreId(3));
                        Op::Exit(0)
                    }
                }
            }
        }
        let mut os = small();
        os.load(Box::new(Mover { state: 0 }));
        assert!(os.run().is_clean());
    }

    #[test]
    fn contention_metrics_populate_under_load() {
        use popcorn_workloads::micro::mmap_storm;
        let mut os = small();
        os.load(mmap_storm(4, 5, 8192));
        let r = os.run();
        assert!(r.is_clean());
        assert!(r.metric("mmap_sem_acquires") > 0.0);
        assert!(r.metric("syscalls") > 0.0);
    }
}
