//! The multikernel baseline: Barrelfish-like per-partition kernels with
//! message passing and **no single-system image**.
//!
//! Differences from the replicated-kernel (Popcorn) model, mirroring what
//! distinguishes Barrelfish from Popcorn in the paper:
//!
//! - **No transparent shared memory.** Each kernel's address-space replica
//!   is *private*: faults are always local zero-fills, there is no page
//!   ownership protocol and no coherence traffic. Data written on one
//!   kernel is simply not visible on another (applications are expected to
//!   use message-based services instead).
//! - **No thread migration.** `migrate` to another kernel returns
//!   `ENOSYS`; only intra-kernel core moves work.
//! - **Local memory management.** `mmap`/`munmap`/`brk` are entirely
//!   per-kernel: no home serialization, no replica broadcast — this is why
//!   the multikernel scales perfectly on address-space benchmarks.
//! - **Message-based shared services.** Synchronization words and futexes
//!   are a service at the group's home kernel (as Barrelfish would
//!   implement shared state), reached by RPC with a local fast path.
//!
//! Thread *creation* across kernels is supported (spawning a dispatcher on
//! another core's kernel), shipping the current VMA layout so the new
//! thread has the same address-space shape with private contents.

use std::collections::{BTreeMap, HashMap};

use popcorn_hw::{CoreId, HwParams, Machine, Topology};
use popcorn_kernel::futex::{FutexTable, Waiter};
use popcorn_kernel::kernel::Kernel;
use popcorn_kernel::mm::{Mm, PageState, Vma};
use popcorn_kernel::osmodel::{self, ensure_core_run, OsEvent, OsMachine, OsModel, RunReport};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{
    FutexOp, MigrateTarget, Placement, Program, Resume, RmwOp, SysResult, SyscallReq,
};
use popcorn_kernel::task::BlockReason;
use popcorn_kernel::types::{Errno, GroupId, PageNo, Tid, VAddr};
use popcorn_msg::{
    Delivery, Fabric, KernelId, MsgParams, ReliableFabric, RpcId, RpcTable, SendPlan, SeqEnvelope,
    Wire,
};
use popcorn_sim::{metric_table, Counter, Handler, Scheduler, SimTime, Simulator};

use crate::params::MultikernelParams;

/// Multikernel inter-kernel messages (the Barrelfish-style RPC set).
#[derive(Debug)]
pub enum MkMsg {
    /// Spawn a thread (dispatcher) on the target kernel.
    SpawnReq {
        /// Correlation id at the origin.
        rpc: RpcId,
        /// Requesting kernel.
        origin: KernelId,
        /// Group the thread joins (identity only; memory stays private).
        group: GroupId,
        /// The program.
        child: Box<dyn Program>,
        /// VMA layout to replicate (shape only, private contents).
        layout: Vec<Vma>,
    },
    /// Spawn response.
    SpawnResp {
        /// Correlation id.
        rpc: RpcId,
        /// New thread id.
        tid: Tid,
    },
    /// Sync-word RMW at the home service.
    RmwReq {
        /// Correlation id.
        rpc: RpcId,
        /// Requesting kernel.
        origin: KernelId,
        /// The group.
        group: GroupId,
        /// Word address.
        addr: VAddr,
        /// Operation.
        op: RmwOp,
    },
    /// RMW response (old value).
    RmwResp {
        /// Correlation id.
        rpc: RpcId,
        /// Old value.
        old: u64,
    },
    /// Futex request to the home service.
    FutexReq {
        /// Correlation id.
        rpc: RpcId,
        /// Requesting kernel.
        origin: KernelId,
        /// The group.
        group: GroupId,
        /// Calling thread.
        tid: Tid,
        /// Operation.
        op: FutexOp,
    },
    /// Futex response: `None` = parked; `Some(Ok(n))` = woken count;
    /// `Some(Err(Again))` = stale wait.
    FutexResp {
        /// Correlation id.
        rpc: RpcId,
        /// Outcome.
        result: Option<Result<u64, Errno>>,
    },
    /// Home wakes a parked remote waiter.
    FutexWakeTask {
        /// The group.
        group: GroupId,
        /// The thread.
        tid: Tid,
    },
    /// Membership accounting to the home.
    MemberJoined {
        /// The group.
        group: GroupId,
        /// The member.
        tid: Tid,
    },
    /// A member exited.
    TaskExited {
        /// The group.
        group: GroupId,
        /// The member.
        tid: Tid,
    },
    /// Home orders a kernel to kill local members (exit_group).
    GroupKill {
        /// The group.
        group: GroupId,
        /// Exit status.
        code: i32,
    },
    /// `exit_group` initiated away from home.
    GroupExitReq {
        /// The group.
        group: GroupId,
        /// Exit status.
        code: i32,
        /// Members the sender already killed.
        killed: u64,
    },
    /// Reliable-delivery envelope required by the shared endpoint
    /// substrate ([`SeqEnvelope`]). The baseline runs on a fault-free
    /// fabric with no retransmit policy, so the endpoint takes its plain
    /// path and never actually wraps a message in this.
    Seq {
        /// Per-channel sequence number.
        seq: u64,
        /// The wrapped payload.
        inner: Box<MkMsg>,
    },
}

impl Wire for MkMsg {
    fn wire_size(&self) -> usize {
        match self {
            MkMsg::SpawnReq { layout, .. } => 48 + 208 + layout.len() * 24,
            MkMsg::Seq { inner, .. } => 8 + inner.wire_size(),
            _ => 48 + 16,
        }
    }
}

impl SeqEnvelope for MkMsg {
    fn wrap_seq(seq: u64, inner: Self) -> Self {
        MkMsg::Seq {
            seq,
            inner: Box::new(inner),
        }
    }

    fn unwrap_seq(self) -> Result<(u64, Self), Self> {
        match self {
            MkMsg::Seq { seq, inner } => Ok((seq, *inner)),
            other => Err(other),
        }
    }
}

type MkEvent = OsEvent<Delivery<MkMsg>>;

/// Home-kernel group accounting (membership only; no shared memory).
#[derive(Debug, Default)]
struct MkGroup {
    live: usize,
    hosts: Vec<KernelId>,
}

metric_table! {
    /// Aggregate multikernel statistics.
    pub struct MkStats {
        /// Threads spawned on a remote kernel.
        remote_spawns: Counter,
        /// Sync/futex requests served over messages.
        remote_service: Counter,
        /// Sync/futex requests served locally at the home.
        local_service: Counter,
    }
}

/// The multikernel machine.
#[derive(Debug)]
pub struct MultikernelMachine {
    kernels: Vec<Kernel>,
    /// The shared reliable-endpoint substrate on its plain (fault-free)
    /// path — the same transport the popcorn model rides.
    net: ReliableFabric<MkMsg>,
    machine: Machine,
    params: MultikernelParams,
    futex: FutexTable,
    groups: HashMap<GroupId, MkGroup>,
    /// Per-kernel RPC tables. Every pending continuation is just the
    /// blocked thread, so the continuation type is [`Tid`] directly.
    rpcs: Vec<RpcTable<Tid>>,
    /// Per-kernel page-allocator locks.
    zone_locks: Vec<popcorn_hw::LockSite>,
    /// Rotating tie-breaker for Auto placement.
    auto_cursor: usize,
    /// Statistics.
    pub stats: MkStats,
}

impl MultikernelMachine {
    fn kid(&self, ki: usize) -> KernelId {
        KernelId(ki as u16)
    }

    fn send(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        at: SimTime,
        from: usize,
        to: KernelId,
        msg: MkMsg,
    ) {
        // The multikernel baseline never injects faults, so the endpoint
        // stays on its plain path and every send delivers.
        match self.net.send(at.max(sched.now()), self.kid(from), to, msg) {
            SendPlan::Deliver { delivery, .. } => {
                sched.at(delivery.deliver_at, OsEvent::Custom(delivery));
            }
            _ => unreachable!("the multikernel baseline runs on a fault-free fabric"),
        }
    }

    fn kick(&self, sched: &mut Scheduler<MkEvent>, ki: usize, core: CoreId, at: SimTime) {
        ensure_core_run(sched, ki as u16, core, at);
    }

    fn group_of(&self, ki: usize, tid: Tid) -> GroupId {
        self.kernels[ki]
            .task(tid)
            .unwrap_or_else(|| panic!("{tid} unknown on kernel {ki}"))
            .group
    }

    fn wake_with(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        ki: usize,
        tid: Tid,
        result: SysResult,
        at: SimTime,
    ) {
        let Some(task) = self.kernels[ki].task_mut(tid) else {
            return;
        };
        if task.is_exited() {
            return;
        }
        task.resume = Resume::Sys(result);
        let core = self.kernels[ki].wake(tid, at);
        self.kick(sched, ki, core, at);
    }

    /// Serves a futex op at the home; returns `None` if the caller parked.
    fn futex_at_home(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        group: GroupId,
        op: FutexOp,
        caller: Waiter,
        at: SimTime,
    ) -> (Option<Result<u64, Errno>>, SimTime) {
        let home_ki = group.home().0 as usize;
        let base = self.kernels[home_ki].params().futex_base_ns + self.params.service_ns;
        let done = at + SimTime::from_nanos(base);
        match op {
            FutexOp::Wait { uaddr, expected } => {
                if self.futex.wait_if(group, uaddr, expected, caller) {
                    (None, done)
                } else {
                    (Some(Err(Errno::Again)), done)
                }
            }
            FutexOp::Wake { uaddr, count } => {
                let woken = self.futex.wake(group, uaddr, count);
                let n = woken.len() as u64;
                let wakeup = SimTime::from_nanos(self.kernels[home_ki].params().wakeup_ns);
                let mut t = done;
                for w in woken {
                    t += wakeup;
                    if w.kernel == group.home() {
                        self.wake_with(sched, home_ki, w.tid, SysResult::Val(0), t);
                    } else {
                        self.send(
                            sched,
                            t,
                            home_ki,
                            w.kernel,
                            MkMsg::FutexWakeTask { group, tid: w.tid },
                        );
                    }
                }
                (Some(Ok(n)), t)
            }
        }
    }

    fn note_exit(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        ki: usize,
        group: GroupId,
        tid: Tid,
        at: SimTime,
    ) {
        let home = group.home();
        if self.kid(ki) == home {
            let done = match self.groups.get_mut(&group) {
                Some(g) => {
                    g.live = g.live.saturating_sub(1);
                    g.live == 0
                }
                None => false,
            };
            if done {
                self.reap(group);
            }
        } else {
            self.send(sched, at, ki, home, MkMsg::TaskExited { group, tid });
        }
    }

    fn reap(&mut self, group: GroupId) {
        self.groups.remove(&group);
        self.futex.drop_group(group);
        for k in &mut self.kernels {
            if k.has_mm(group) {
                k.reap_group(group);
                k.drop_mm(group);
            }
        }
    }

    /// Auto placement: round-robin across kernels (see the popcorn model's
    /// rationale — blocked threads stop counting as load).
    fn least_loaded_kernel(&mut self) -> usize {
        let i = self.auto_cursor % self.kernels.len();
        self.auto_cursor += 1;
        i
    }

    fn kernel_of_core(&self, c: CoreId) -> usize {
        for (i, k) in self.kernels.iter().enumerate() {
            if k.cores().contains(&c) {
                return i;
            }
        }
        panic!("{c} not owned by any kernel");
    }
}

impl OsMachine for MultikernelMachine {
    type Msg = Delivery<MkMsg>;

    fn kernels_mut(&mut self) -> &mut [Kernel] {
        &mut self.kernels
    }

    fn handle_syscall(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        req: SyscallReq,
        at: SimTime,
    ) {
        let me = self.kid(ki);
        let group = self.group_of(ki, tid);
        let home = group.home();
        match req {
            SyscallReq::GetPid => {
                self.kernels[ki].finish_syscall(tid, SysResult::Val(group.pid() as u64), at);
                self.kick(sched, ki, core, at);
            }
            SyscallReq::GetTid => {
                self.kernels[ki].finish_syscall(tid, SysResult::Val(tid.0 as u64), at);
                self.kick(sched, ki, core, at);
            }
            SyscallReq::GetKernel => {
                self.kernels[ki].finish_syscall(tid, SysResult::Val(ki as u64), at);
                self.kick(sched, ki, core, at);
            }
            SyscallReq::Yield => {
                let c = self.kernels[ki].yield_current(tid, at);
                self.kick(sched, ki, c, at);
            }
            SyscallReq::Nanosleep { ns } => {
                let c = self.kernels[ki].block_current(tid, BlockReason::Sleep, at);
                self.kick(sched, ki, c, at);
                sched.at(
                    at + SimTime::from_nanos(ns),
                    OsEvent::TimerWake {
                        kernel: ki as u16,
                        tid,
                    },
                );
            }
            // Memory management is entirely local: this is the
            // multikernel's structural advantage.
            SyscallReq::Mmap { len } => {
                let res = self.kernels[ki].mm_mut(group).map_anon(len);
                let done = at + SimTime::from_nanos(self.kernels[ki].params().mmap_base_ns);
                let sys = match res {
                    Ok(a) => SysResult::Val(a.0),
                    Err(e) => SysResult::Err(e),
                };
                self.kernels[ki].finish_syscall(tid, sys, done);
                self.kick(sched, ki, core, done);
            }
            SyscallReq::Munmap { addr, len } => {
                let res = self.kernels[ki].mm_mut(group).unmap(addr, len);
                let mut done = at + SimTime::from_nanos(self.kernels[ki].params().munmap_base_ns);
                let sys = match res {
                    Ok(dropped) => {
                        if !dropped.is_empty() {
                            // Shootdown confined to this kernel's cores.
                            let cores = self.kernels[ki].cores();
                            let targets: Vec<CoreId> =
                                cores.into_iter().filter(|&c| c != core).collect();
                            let sd = self.machine.shootdown().tlb_shootdown(&targets);
                            done += sd.initiator_busy;
                        }
                        SysResult::Val(0)
                    }
                    Err(e) => SysResult::Err(e),
                };
                self.kernels[ki].finish_syscall(tid, sys, done);
                self.kick(sched, ki, core, done);
            }
            SyscallReq::Brk { grow } => {
                let old = self.kernels[ki].mm_mut(group).brk_grow(grow);
                let done = at + SimTime::from_nanos(self.kernels[ki].params().mmap_base_ns);
                self.kernels[ki].finish_syscall(tid, SysResult::Val(old.0), done);
                self.kick(sched, ki, core, done);
            }
            SyscallReq::Futex(op) => {
                let caller = Waiter { kernel: me, tid };
                if me == home {
                    self.stats.local_service.incr();
                    let (outcome, done) = self.futex_at_home(sched, group, op, caller, at);
                    match outcome {
                        None => {
                            let uaddr = match op {
                                FutexOp::Wait { uaddr, .. } => uaddr,
                                FutexOp::Wake { .. } => unreachable!("wake cannot park"),
                            };
                            let c = self.kernels[ki].block_current(
                                tid,
                                BlockReason::Futex(uaddr),
                                done,
                            );
                            self.kick(sched, ki, c, done);
                        }
                        Some(Ok(n)) => {
                            self.kernels[ki].finish_syscall(tid, SysResult::Val(n), done);
                            self.kick(sched, ki, core, done);
                        }
                        Some(Err(e)) => {
                            self.kernels[ki].finish_syscall(tid, SysResult::Err(e), done);
                            self.kick(sched, ki, core, done);
                        }
                    }
                } else {
                    self.stats.remote_service.incr();
                    let rpc = self.rpcs[ki].register(tid);
                    let reason = match op {
                        FutexOp::Wait { uaddr, .. } => BlockReason::Futex(uaddr),
                        FutexOp::Wake { .. } => BlockReason::Remote("futex"),
                    };
                    let c = self.kernels[ki].block_current(tid, reason, at);
                    self.kick(sched, ki, c, at);
                    self.send(
                        sched,
                        at,
                        ki,
                        home,
                        MkMsg::FutexReq {
                            rpc,
                            origin: me,
                            group,
                            tid,
                            op,
                        },
                    );
                }
            }
            SyscallReq::Clone { child, placement } => {
                let target_ki = match placement {
                    Placement::Local => ki,
                    Placement::Core(c) => self.kernel_of_core(c),
                    Placement::Auto => self.least_loaded_kernel(),
                };
                if target_ki == ki {
                    let child_tid = self.kernels[ki].alloc_tid();
                    let done = at + SimTime::from_nanos(self.kernels[ki].params().clone_base_ns);
                    let child_core = self.kernels[ki].spawn(child_tid, group, child, None, done);
                    self.kernels[ki].finish_syscall(tid, SysResult::Val(child_tid.0 as u64), done);
                    self.kick(sched, ki, core, done);
                    self.kick(sched, ki, child_core, done);
                    if me == home {
                        if let Some(g) = self.groups.get_mut(&group) {
                            g.live += 1;
                        }
                    } else {
                        self.send(
                            sched,
                            done,
                            ki,
                            home,
                            MkMsg::MemberJoined {
                                group,
                                tid: child_tid,
                            },
                        );
                    }
                } else {
                    self.stats.remote_spawns.incr();
                    let rpc = self.rpcs[ki].register(tid);
                    let c = self.kernels[ki].block_current(tid, BlockReason::Remote("spawn"), at);
                    self.kick(sched, ki, c, at);
                    let layout = self.kernels[ki].mm(group).vmas();
                    let target = self.kid(target_ki);
                    self.send(
                        sched,
                        at,
                        ki,
                        target,
                        MkMsg::SpawnReq {
                            rpc,
                            origin: me,
                            group,
                            child,
                            layout,
                        },
                    );
                }
            }
            SyscallReq::Migrate(target) => match target {
                MigrateTarget::Core(c) if self.kernel_of_core(c) == ki => {
                    if c == core {
                        self.kernels[ki].finish_syscall(tid, SysResult::Val(0), at);
                        self.kick(sched, ki, core, at);
                    } else {
                        let freed = self.kernels[ki].block_current(tid, BlockReason::Migrating, at);
                        self.kick(sched, ki, freed, at);
                        self.kernels[ki].reassign_core(tid, c);
                        let done = at + self.kernels[ki].params().context_switch();
                        self.wake_with(sched, ki, tid, SysResult::Val(0), done);
                    }
                }
                // No single-system image: threads cannot cross kernels.
                _ => {
                    self.kernels[ki].finish_syscall(tid, SysResult::Err(Errno::NoSys), at);
                    self.kick(sched, ki, core, at);
                }
            },
            SyscallReq::ExitGroup { code } => {
                let members = self.kernels[ki].group_members(group);
                let n = members.len() as u64;
                for m in members {
                    if let Some(c) = self.kernels[ki].kill_task(m, code, at) {
                        self.kick(sched, ki, c, at);
                    }
                }
                if me == home {
                    let hosts = self
                        .groups
                        .get(&group)
                        .map(|g| g.hosts.clone())
                        .unwrap_or_default();
                    if let Some(g) = self.groups.get_mut(&group) {
                        g.live = g.live.saturating_sub(n as usize);
                    }
                    for h in hosts {
                        if h != me {
                            self.send(sched, at, ki, h, MkMsg::GroupKill { group, code });
                        }
                    }
                    let empty = self.groups.get(&group).is_none_or(|g| g.live == 0);
                    if empty {
                        self.reap(group);
                    }
                } else {
                    self.send(
                        sched,
                        at,
                        ki,
                        home,
                        MkMsg::GroupExitReq {
                            group,
                            code,
                            killed: n,
                        },
                    );
                }
            }
        }
    }

    fn handle_sync_op(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        addr: VAddr,
        op: RmwOp,
        at: SimTime,
    ) {
        let me = self.kid(ki);
        let group = self.group_of(ki, tid);
        let home = group.home();
        if me == home {
            self.stats.local_service.incr();
            let old = self.futex.rmw(group, addr, op);
            let done = at + self.machine.params().atomic_op();
            self.kernels[ki].finish_sync_op(tid, old, done);
            self.kick(sched, ki, core, done);
        } else {
            self.stats.remote_service.incr();
            let rpc = self.rpcs[ki].register(tid);
            let c = self.kernels[ki].block_current(tid, BlockReason::Remote("rmw"), at);
            self.kick(sched, ki, c, at);
            self.send(
                sched,
                at,
                ki,
                home,
                MkMsg::RmwReq {
                    rpc,
                    origin: me,
                    group,
                    addr,
                    op,
                },
            );
        }
    }

    fn handle_fault(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        page: PageNo,
        _write: bool,
        no_vma: bool,
        at: SimTime,
    ) {
        let group = self.group_of(ki, tid);
        if no_vma {
            let c = self.kernels[ki].force_exit_current(tid, 139, at);
            self.kick(sched, ki, c, at);
            self.note_exit(sched, ki, group, tid, at);
            return;
        }
        // Always a private local zero-fill: no coherence in a multikernel.
        // The page frame comes from this kernel's own allocator.
        let zone_hold = SimTime::from_nanos(self.kernels[ki].params().zone_lock_hold_ns);
        let ic = self.machine.interconnect().clone();
        let zone = self.zone_locks[ki].acquire(at, core, zone_hold, &ic);
        let done =
            zone.released_at + SimTime::from_nanos(self.kernels[ki].params().fault_service_ns);
        self.kernels[ki]
            .mm_mut(group)
            .install_zero_page(page, PageState::Exclusive);
        self.kernels[ki].finish_fault_inline(tid, done);
        self.kick(sched, ki, core, done);
    }

    fn handle_exit(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        ki: usize,
        _core: CoreId,
        tid: Tid,
        _code: i32,
        at: SimTime,
    ) {
        let group = self.group_of(ki, tid);
        self.note_exit(sched, ki, group, tid, at);
    }

    fn handle_custom(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        msg: Delivery<MkMsg>,
        now: SimTime,
    ) {
        let from = msg.from;
        let to = msg.to;
        let ki = to.0 as usize;
        match msg.payload {
            MkMsg::SpawnReq {
                rpc,
                origin,
                group,
                child,
                layout,
            } => {
                if !self.kernels[ki].has_mm(group) {
                    self.kernels[ki].adopt_mm(Mm::new(group));
                }
                for vma in layout {
                    self.kernels[ki].mm_mut(group).install_vma(vma);
                }
                let child_tid = self.kernels[ki].alloc_tid();
                let done = now
                    + SimTime::from_nanos(
                        self.kernels[ki].params().clone_base_ns + self.params.remote_spawn_ns,
                    );
                let child_core = self.kernels[ki].spawn(child_tid, group, child, None, done);
                self.kick(sched, ki, child_core, done);
                self.send(
                    sched,
                    done,
                    ki,
                    origin,
                    MkMsg::SpawnResp {
                        rpc,
                        tid: child_tid,
                    },
                );
                let home = group.home();
                if to == home {
                    if let Some(g) = self.groups.get_mut(&group) {
                        g.live += 1;
                        if !g.hosts.contains(&to) {
                            g.hosts.push(to);
                        }
                    }
                } else {
                    self.send(
                        sched,
                        done,
                        ki,
                        home,
                        MkMsg::MemberJoined {
                            group,
                            tid: child_tid,
                        },
                    );
                }
            }
            MkMsg::SpawnResp { rpc, tid } => {
                if let Some(parent) = self.rpcs[ki].complete(rpc) {
                    self.wake_with(sched, ki, parent, SysResult::Val(tid.0 as u64), now);
                }
            }
            MkMsg::RmwReq {
                rpc,
                origin,
                group,
                addr,
                op,
            } => {
                let old = self.futex.rmw(group, addr, op);
                let done = now + SimTime::from_nanos(self.params.service_ns);
                self.send(sched, done, ki, origin, MkMsg::RmwResp { rpc, old });
            }
            MkMsg::RmwResp { rpc, old } => {
                if let Some(tid) = self.rpcs[ki].complete(rpc) {
                    if let Some(task) = self.kernels[ki].task_mut(tid) {
                        if !task.is_exited() {
                            task.resume = Resume::Value(old);
                            let core = self.kernels[ki].wake(tid, now);
                            self.kick(sched, ki, core, now);
                        }
                    }
                }
            }
            MkMsg::FutexReq {
                rpc,
                origin,
                group,
                tid,
                op,
            } => {
                let caller = Waiter {
                    kernel: origin,
                    tid,
                };
                let (result, done) = self.futex_at_home(sched, group, op, caller, now);
                self.send(sched, done, ki, origin, MkMsg::FutexResp { rpc, result });
            }
            MkMsg::FutexResp { rpc, result } => {
                if let Some(tid) = self.rpcs[ki].complete(rpc) {
                    match result {
                        None => {} // parked; FutexWakeTask will arrive
                        Some(Ok(n)) => self.wake_with(sched, ki, tid, SysResult::Val(n), now),
                        Some(Err(e)) => self.wake_with(sched, ki, tid, SysResult::Err(e), now),
                    }
                }
            }
            MkMsg::FutexWakeTask { group: _, tid } => {
                if let Some(task) = self.kernels[ki].task(tid) {
                    if matches!(task.state, popcorn_kernel::task::TaskState::Blocked(_)) {
                        self.wake_with(sched, ki, tid, SysResult::Val(0), now);
                    }
                }
            }
            MkMsg::MemberJoined { group, .. } => {
                if let Some(g) = self.groups.get_mut(&group) {
                    g.live += 1;
                    if !g.hosts.contains(&from) {
                        g.hosts.push(from);
                    }
                }
            }
            MkMsg::TaskExited { group, tid } => {
                self.note_exit(sched, ki, group, tid, now);
            }
            MkMsg::GroupKill { group, code } => {
                let members = self.kernels[ki].group_members(group);
                let n = members.len() as u64;
                for m in members {
                    if let Some(c) = self.kernels[ki].kill_task(m, code, now) {
                        self.kick(sched, ki, c, now);
                    }
                }
                let home = group.home();
                self.send(
                    sched,
                    now,
                    ki,
                    home,
                    MkMsg::GroupExitReq {
                        group,
                        code,
                        killed: n,
                    },
                );
            }
            MkMsg::GroupExitReq {
                group,
                code,
                killed,
            } => {
                // Home side: account the killed members; kill everywhere.
                let hosts = self
                    .groups
                    .get(&group)
                    .map(|g| g.hosts.clone())
                    .unwrap_or_default();
                if let Some(g) = self.groups.get_mut(&group) {
                    g.live = g.live.saturating_sub(killed as usize);
                }
                // Kill local members too (first GroupExitReq only, but
                // kill_task is idempotent so repeats are harmless).
                let members = self.kernels[ki].group_members(group);
                let n = members.len();
                for m in members {
                    if let Some(c) = self.kernels[ki].kill_task(m, code, now) {
                        self.kick(sched, ki, c, now);
                    }
                }
                if let Some(g) = self.groups.get_mut(&group) {
                    g.live = g.live.saturating_sub(n);
                }
                for h in hosts {
                    if h != to && h != from {
                        self.send(sched, now, ki, h, MkMsg::GroupKill { group, code });
                    }
                }
                let empty = self.groups.get(&group).is_none_or(|g| g.live == 0);
                if empty {
                    self.reap(group);
                }
            }
            MkMsg::Seq { .. } => {
                unreachable!("the fault-free baseline never wraps messages in Seq")
            }
        }
    }
}

impl Handler<MkEvent> for MultikernelMachine {
    fn handle(&mut self, now: SimTime, event: MkEvent, sched: &mut Scheduler<MkEvent>) {
        osmodel::dispatch(self, now, event, sched);
    }
}

/// Builder for [`MultikernelOs`].
#[derive(Debug, Clone)]
pub struct MultikernelOsBuilder {
    topology: Topology,
    kernels: u16,
    hw: HwParams,
    os: OsParams,
    msg: MsgParams,
    mk: MultikernelParams,
}

impl Default for MultikernelOsBuilder {
    fn default() -> Self {
        MultikernelOsBuilder {
            topology: Topology::paper_default(),
            kernels: 4,
            hw: HwParams::default(),
            os: OsParams::default(),
            msg: MsgParams::default(),
            mk: MultikernelParams::default(),
        }
    }
}

impl MultikernelOsBuilder {
    /// Sets the machine topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Sets the kernel count (Barrelfish runs one CPU driver per core;
    /// coarser partitions are allowed for comparability).
    pub fn kernels(mut self, n: u16) -> Self {
        self.kernels = n;
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

    /// Overrides message-layer parameters.
    pub fn msg_params(mut self, p: MsgParams) -> Self {
        self.msg = p;
        self
    }

    /// Overrides multikernel service parameters.
    pub fn mk_params(mut self, p: MultikernelParams) -> Self {
        self.mk = p;
        self
    }

    /// Builds the OS model.
    ///
    /// # Panics
    ///
    /// Panics if parameters fail validation or kernels exceed cores.
    pub fn build(self) -> MultikernelOs {
        self.hw.validate().expect("invalid hardware parameters");
        self.os.validate().expect("invalid OS parameters");
        self.msg.validate().expect("invalid message parameters");
        let machine = Machine::new(self.topology, self.hw);
        let parts = self.topology.partition(self.kernels);
        let locations: Vec<_> = parts.iter().map(|p| p[0]).collect();
        let fabric = Fabric::new(&machine, locations, self.msg);
        let kernels: Vec<Kernel> = parts
            .into_iter()
            .enumerate()
            .map(|(i, cores)| {
                Kernel::new(KernelId(i as u16), cores, self.os.clone(), machine.clone())
            })
            .collect();
        let n = kernels.len();
        MultikernelOs {
            sim: Simulator::new(),
            machine: MultikernelMachine {
                kernels,
                net: ReliableFabric::new(fabric, None),
                zone_locks: (0..n)
                    .map(|_| popcorn_hw::LockSite::new("zone_lock", machine.params()))
                    .collect(),
                machine,
                params: self.mk,
                futex: FutexTable::new(),
                groups: HashMap::new(),
                rpcs: (0..n).map(|_| RpcTable::new()).collect(),
                auto_cursor: 0,
                stats: MkStats::default(),
            },
            topology: self.topology,
            next_home: 0,
        }
    }
}

/// The Barrelfish-like multikernel OS model.
///
/// # Example
///
/// ```
/// use popcorn_baselines::MultikernelOs;
/// use popcorn_hw::Topology;
/// use popcorn_kernel::osmodel::OsModel;
/// use popcorn_workloads::micro::null_syscall_storm;
///
/// let mut os = MultikernelOs::builder()
///     .topology(Topology::new(2, 2))
///     .kernels(4)
///     .build();
/// os.load(null_syscall_storm(4, 50));
/// let report = os.run();
/// assert!(report.is_clean());
/// ```
#[derive(Debug)]
pub struct MultikernelOs {
    sim: Simulator<MkEvent>,
    machine: MultikernelMachine,
    topology: Topology,
    next_home: usize,
}

impl MultikernelOs {
    /// Starts configuring a multikernel OS.
    pub fn builder() -> MultikernelOsBuilder {
        MultikernelOsBuilder::default()
    }

    /// Number of kernel instances.
    pub fn num_kernels(&self) -> usize {
        self.machine.kernels.len()
    }
}

impl OsModel for MultikernelOs {
    fn name(&self) -> &'static str {
        "multikernel"
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn load(&mut self, program: Box<dyn Program>) -> GroupId {
        // Successive processes home on successive kernels, as a Barrelfish
        // operator would spread domains.
        let home = self.next_home % self.machine.kernels.len();
        self.next_home += 1;
        let leader = self.machine.kernels[home].alloc_tid();
        let group = GroupId(leader);
        self.machine.kernels[home].adopt_mm(Mm::new(group));
        self.machine.groups.insert(
            group,
            MkGroup {
                live: 1,
                hosts: vec![KernelId(home as u16)],
            },
        );
        let core = self.machine.kernels[home].spawn(leader, group, program, None, self.sim.now());
        self.sim.schedule(
            self.sim.now(),
            OsEvent::CoreRun {
                kernel: home as u16,
                core,
            },
        );
        group
    }

    fn run_with(&mut self, horizon: SimTime, event_budget: u64) -> RunReport {
        let stop = self.sim.run_until(&mut self.machine, horizon, event_budget);
        let mut metrics = BTreeMap::new();
        self.machine.stats.export("", &mut metrics);
        metrics.insert(
            "messages".into(),
            self.machine.net.fabric().total_sends() as f64,
        );
        RunReport::new(
            self.name(),
            &self.machine.kernels,
            stop,
            self.sim.now(),
            self.sim.events_processed(),
            metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_kernel::program::{Op, ProgEnv};

    fn small() -> MultikernelOs {
        MultikernelOs::builder()
            .topology(Topology::new(2, 2))
            .kernels(2)
            .build()
    }

    #[test]
    fn cross_kernel_migration_is_nosys() {
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
    fn remote_spawn_creates_thread_on_other_kernel() {
        #[derive(Debug)]
        struct KernelProbe;
        impl Program for KernelProbe {
            fn step(&mut self, _r: Resume, env: &ProgEnv) -> Op {
                // Spawned via Placement::Core on kernel 1's core.
                assert_eq!(env.kernel, KernelId(1));
                Op::Exit(0)
            }
        }
        #[derive(Debug)]
        struct Spawner {
            asked: bool,
        }
        impl Program for Spawner {
            fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::Clone {
                        child: Box::new(KernelProbe),
                        placement: Placement::Core(CoreId(2)),
                    });
                }
                let Resume::Sys(SysResult::Val(tid)) = r else {
                    panic!("clone failed: {r:?}");
                };
                assert_ne!(tid, 0);
                Op::Exit(0)
            }
        }
        let mut os = small();
        os.load(Box::new(Spawner { asked: false }));
        let r = os.run();
        assert!(r.is_clean());
        assert_eq!(r.exited_tasks, 2);
        assert_eq!(r.metric("remote_spawns"), 1.0);
    }

    #[test]
    fn memory_is_private_per_kernel() {
        // Leader maps memory, writes 42; a worker on another kernel reads
        // the same address and sees 0 (private zero-fill, no coherence).
        use popcorn_workloads::team::{Team, TeamConfig};
        #[derive(Debug)]
        struct Reader {
            addr: VAddr,
            state: u8,
        }
        impl Program for Reader {
            fn step(&mut self, r: Resume, env: &ProgEnv) -> Op {
                match self.state {
                    0 => {
                        self.state = 1;
                        Op::Load(self.addr)
                    }
                    _ => {
                        let Resume::Value(v) = r else {
                            panic!("expected load value");
                        };
                        if env.kernel == KernelId(0) {
                            // Same kernel as the leader: could see data.
                        } else {
                            assert_eq!(v, 0, "no cross-kernel shared memory");
                        }
                        Op::Exit(0)
                    }
                }
            }
        }
        let mut cfg = TeamConfig::new(2, 4096);
        cfg.placement = Placement::Auto;
        let mut os = small();
        os.load(Team::boxed(
            cfg,
            Box::new(|_, shared| {
                Box::new(Reader {
                    addr: shared.data,
                    state: 0,
                })
            }),
        ));
        let r = os.run();
        assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    }

    #[test]
    fn team_with_barrier_completes_across_kernels() {
        use popcorn_workloads::npb::NpbConfig;
        let mut os = small();
        os.load(popcorn_workloads::npb::cg_benchmark(NpbConfig::class_s(4)));
        let r = os.run();
        assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
        assert_eq!(r.exited_tasks, 5);
    }
}
