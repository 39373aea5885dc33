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
//!
//! Kernel-local syscalls, the affinity core move and wakeups are the
//! shared [`osmodel::local_syscall`], [`Kernel::move_to_core`] and
//! [`Kernel::wake_live`]. Group membership and exit are steps at the
//! group's home, and each has one handler: `MultikernelMachine::post`
//! runs a message's handler inline when it is addressed to the running
//! kernel and sends it otherwise. An `exit_group` kills the caller's
//! local members and reports to the home; the first report kills the
//! home's members and sends one `GroupKill` to every other host, whose
//! reply is another report. The local futex, RMW and clone fast paths
//! are not posted: they charge different costs from the RPC path.

use std::collections::BTreeMap;

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
use popcorn_msg::{Delivery, Fabric, KernelId, MsgParams, RpcId, RpcTable, Wire};
use popcorn_sim::hash::FxHashMap;
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
    /// Home orders a kernel to kill its local members (`exit_group`); the
    /// kernel answers with a `GroupExitReq`.
    GroupKill {
        /// The group.
        group: GroupId,
        /// Exit status.
        code: i32,
    },
    /// A kernel killed its members of an exiting group (the `exit_group`
    /// caller's kernel, or one answering a `GroupKill`). The first report
    /// to reach the home starts the exit there; later ones only account
    /// for the dead.
    GroupExitReq {
        /// The group.
        group: GroupId,
        /// Exit status.
        code: i32,
        /// Members the sender already killed.
        killed: u64,
    },
}

impl Wire for MkMsg {
    fn wire_size(&self) -> usize {
        match self {
            MkMsg::SpawnReq { layout, .. } => 48 + 208 + layout.len() * 24,
            _ => 48 + 16,
        }
    }
}

type MkEvent = OsEvent<Delivery<MkMsg>>;

/// Home-kernel group accounting (membership only; no shared memory).
#[derive(Debug, Default)]
struct MkGroup {
    live: usize,
    hosts: Vec<KernelId>,
    /// The exit status, once an `exit_group` has reached the home.
    exit: Option<i32>,
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
    /// The message fabric. The baseline models no faults: every send is
    /// expected to be delivered.
    fabric: Fabric,
    machine: Machine,
    params: MultikernelParams,
    futex: FutexTable,
    groups: FxHashMap<GroupId, MkGroup>,
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
        let delivery = self
            .fabric
            .send(at.max(sched.now()), self.kid(from), to, msg)
            .expect_delivered();
        sched.at(delivery.deliver_at, OsEvent::Custom(delivery));
    }

    /// Runs one protocol step from kernel `from`: addressed to `from`
    /// itself, the message's handler runs inline at `at` (no fabric);
    /// otherwise it is a send. A posted step has one handler either way.
    fn post(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        at: SimTime,
        from: usize,
        to: KernelId,
        msg: MkMsg,
    ) {
        if to == self.kid(from) {
            self.handle(sched, to, to, msg, at);
        } else {
            self.send(sched, at, from, to, msg);
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
        if let Some(core) = self.kernels[ki].wake_live(tid, Some(Resume::Sys(result)), at) {
            self.kick(sched, ki, core, at);
        }
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

    /// Reports the exit of `tid` on kernel `ki` to its group's home.
    fn note_exit(&mut self, sched: &mut Scheduler<MkEvent>, ki: usize, tid: Tid, at: SimTime) {
        let group = self.group_of(ki, tid);
        let exited = MkMsg::TaskExited { group, tid };
        self.post(sched, at, ki, group.home(), exited);
    }

    /// Kills `group`'s live members on kernel `ki` with status `code`;
    /// returns how many it killed.
    fn kill_local(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        ki: usize,
        group: GroupId,
        code: i32,
        at: SimTime,
    ) -> u64 {
        let members = self.kernels[ki].group_members(group);
        for &m in &members {
            if let Some(c) = self.kernels[ki].kill_task(m, code, at) {
                self.kick(sched, ki, c, at);
            }
        }
        members.len() as u64
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

    /// The per-message handler behind delivered messages and
    /// [`MultikernelMachine::post`]: the step `msg` from `from`, run at
    /// kernel `to`.
    fn handle(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        from: KernelId,
        to: KernelId,
        msg: MkMsg,
        now: SimTime,
    ) {
        let ki = to.0 as usize;
        match msg {
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
                let joined = MkMsg::MemberJoined {
                    group,
                    tid: child_tid,
                };
                self.post(sched, done, ki, group.home(), joined);
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
                let Some(tid) = self.rpcs[ki].complete(rpc) else {
                    return;
                };
                if let Some(core) = self.kernels[ki].wake_live(tid, Some(Resume::Value(old)), now) {
                    self.kick(sched, ki, core, now);
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
                let Some(g) = self.groups.get_mut(&group) else {
                    return;
                };
                g.live += 1;
                if !g.hosts.contains(&from) {
                    g.hosts.push(from);
                }
                // A member that joins an exiting group dies with it.
                if let Some(code) = g.exit {
                    self.post(sched, now, ki, from, MkMsg::GroupKill { group, code });
                }
            }
            MkMsg::TaskExited { group, .. } => {
                let Some(g) = self.groups.get_mut(&group) else {
                    return;
                };
                g.live = g.live.saturating_sub(1);
                if g.live == 0 {
                    self.reap(group);
                }
            }
            MkMsg::GroupKill { group, code } => {
                let killed = self.kill_local(sched, ki, group, code, now);
                let req = MkMsg::GroupExitReq {
                    group,
                    code,
                    killed,
                };
                self.post(sched, now, ki, group.home(), req);
            }
            MkMsg::GroupExitReq {
                group,
                code,
                killed,
            } => {
                let Some(g) = self.groups.get_mut(&group) else {
                    return;
                };
                g.live = g.live.saturating_sub(killed as usize);
                // The first report starts the exit: the home kills its own
                // members and orders every other host once. Later reports
                // only account for what their host killed.
                if g.exit.is_none() {
                    g.exit = Some(code);
                    let hosts = g.hosts.clone();
                    let n = self.kill_local(sched, ki, group, code, now);
                    if let Some(g) = self.groups.get_mut(&group) {
                        g.live = g.live.saturating_sub(n as usize);
                    }
                    for h in hosts {
                        if h != to && h != from {
                            self.post(sched, now, ki, h, MkMsg::GroupKill { group, code });
                        }
                    }
                }
                if self.groups.get(&group).is_some_and(|g| g.live == 0) {
                    self.reap(group);
                }
            }
        }
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
        let Some(req) =
            osmodel::local_syscall(sched, &mut self.kernels[ki], ki, core, tid, req, at)
        else {
            return;
        };
        let me = self.kid(ki);
        let group = self.group_of(ki, tid);
        let home = group.home();
        match req {
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
                    Placement::Core(c) => osmodel::kernel_of_core(&self.kernels, c),
                    Placement::Auto => self.least_loaded_kernel(),
                };
                if target_ki == ki {
                    let child_tid = self.kernels[ki].alloc_tid();
                    let done = at + SimTime::from_nanos(self.kernels[ki].params().clone_base_ns);
                    let child_core = self.kernels[ki].spawn(child_tid, group, child, None, done);
                    self.kernels[ki].finish_syscall(tid, SysResult::Val(child_tid.0 as u64), done);
                    self.kick(sched, ki, core, done);
                    self.kick(sched, ki, child_core, done);
                    let joined = MkMsg::MemberJoined {
                        group,
                        tid: child_tid,
                    };
                    self.post(sched, done, ki, home, joined);
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
                MigrateTarget::Core(c) if osmodel::kernel_of_core(&self.kernels, c) == ki => {
                    if c == core {
                        self.kernels[ki].finish_syscall(tid, SysResult::Val(0), at);
                        self.kick(sched, ki, core, at);
                    } else {
                        let (freed, target, resume_at) = self.kernels[ki].move_to_core(tid, c, at);
                        self.kick(sched, ki, freed, at);
                        self.kick(sched, ki, target, resume_at);
                    }
                }
                // No single-system image: threads cannot cross kernels.
                _ => {
                    self.kernels[ki].finish_syscall(tid, SysResult::Err(Errno::NoSys), at);
                    self.kick(sched, ki, core, at);
                }
            },
            SyscallReq::ExitGroup { code } => {
                let killed = self.kill_local(sched, ki, group, code, at);
                let req = MkMsg::GroupExitReq {
                    group,
                    code,
                    killed,
                };
                self.post(sched, at, ki, home, req);
            }
            _ => unreachable!("kernel-local syscalls are served above"),
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
            self.note_exit(sched, ki, tid, at);
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
        self.note_exit(sched, ki, tid, at);
    }

    fn handle_custom(
        &mut self,
        sched: &mut Scheduler<MkEvent>,
        msg: Delivery<MkMsg>,
        now: SimTime,
    ) {
        self.handle(sched, msg.from, msg.to, msg.payload, now);
    }
}

impl Handler<MkEvent> for MultikernelMachine {
    fn handle(&mut self, now: SimTime, event: MkEvent, sched: &mut Scheduler<MkEvent>) {
        osmodel::dispatch(self, now, event, sched);
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
/// let mut os = MultikernelOs::new(Topology::new(2, 2), 4);
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
    /// A multikernel OS of `kernels` kernel instances on contiguous core
    /// partitions of `topology` (Barrelfish runs one CPU driver per core;
    /// coarser partitions are allowed for comparability), with the default
    /// hardware, kernel, message and multikernel service parameters.
    ///
    /// # Panics
    ///
    /// Panics if kernels exceed cores.
    pub fn new(topology: Topology, kernels: u16) -> Self {
        let (machine, kernels, fabric) = osmodel::partition_machine(
            topology,
            kernels,
            HwParams::default(),
            OsParams::default(),
            MsgParams::default(),
        );
        let n = kernels.len();
        MultikernelOs {
            sim: Simulator::new(),
            machine: MultikernelMachine {
                kernels,
                fabric,
                zone_locks: (0..n)
                    .map(|_| popcorn_hw::LockSite::new("zone_lock", machine.params()))
                    .collect(),
                machine,
                params: MultikernelParams::default(),
                futex: FutexTable::new(),
                groups: FxHashMap::default(),
                rpcs: (0..n).map(|_| RpcTable::new()).collect(),
                auto_cursor: 0,
                stats: MkStats::default(),
            },
            topology,
            next_home: 0,
        }
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
                exit: None,
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
        metrics.insert("messages".into(), self.machine.fabric.total_sends() as f64);
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
        MultikernelOs::new(Topology::new(2, 2), 2)
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
