//! The assembled replicated-kernel OS: policy for every syscall, fault and
//! protocol message, decomposed into one module per protocol family.
//!
//! `PopcornMachine` owns the kernel instances, the reliable message fabric,
//! and the per-group home state (membership, page directory, futex server).
//! It implements [`OsMachine`] so the shared dispatch loop can drive it.
//!
//! # Module map
//!
//! Each protocol family lives in its own module, owning its [`Pending`]
//! continuation payload and its slice of the dispatch:
//!
//! - [`transport`] — glue to the shared [`ReliableFabric`] / [`RpcTable`]
//!   substrate in `popcorn-msg`: send plans, retransmit timers, RPC
//!   deadlines, and unwinding undeliverable traffic;
//! - [`migrate`] — thread migration (out, in, aborted);
//! - [`group`] — membership bookkeeping, remote thread creation, and the
//!   distributed group-exit barrier;
//! - [`vma`] — address-space layout: home-serialized VMA operations,
//!   replica updates, unmap barriers and on-demand retrieval;
//! - [`page`] — page coherence against the home kernel's directory;
//! - [`replica`] — page-table replica maintenance (pushed updates and
//!   bulk grants) when `page_table_replication` is on;
//! - [`futex`] — distributed futexes and remote sync-word RMWs.
//!
//! No module touches `PopcornMachine` directly: every handler runs on a
//! [`KernelCtx`], a borrow-view over the machine's fields, so the borrow
//! checker enforces that modules compose through the context instead of
//! through the god-struct this file used to be.
//!
//! # Dispatch
//!
//! ```text
//!            OsMachine hooks (driven by the loop in crate::os)
//!
//!  syscall ──► KernelCtx::syscall ──► vma / futex / group / migrate
//!  fault ────► page::fault            sync_op ──► futex::sync_op
//!  exit ─────► group::note_task_exited
//!
//!  custom (fabric delivery) ──► transport::receive
//!       │ Seq{n}:      dedup (ReliableFabric::accept_seq) + ChanAck
//!       │ RetxTimer:   ReliableFabric::retransmit → apply_plan
//!       │ RpcDeadline: fail the still-pending RPC
//!       ▼
//!  KernelCtx::dispatch ──► per-protocol on_* handlers
//!                          (each counted in stats.proto by family)
//! ```
//!
//! A structural invariant keeps the distributed semantics honest even
//! though the simulation is one process: state that logically lives on a
//! kernel (its `Kernel`, its RPC table, its share of `groups`/`futex`)
//! is only touched while handling an event addressed to that kernel; all
//! other interaction goes through fabric messages. Because every
//! group-wide decision is serialized at the group's home kernel and all
//! home-to-replica channels are FIFO, layout changes are always visible
//! before any data that could reveal them (see DESIGN.md §Ordering).

#![allow(clippy::too_many_arguments)] // protocol handlers carry wide event context

pub mod futex;
pub mod group;
pub mod migrate;
pub mod page;
pub mod policy;
pub mod recovery;
pub mod replica;
pub mod sharding;
pub mod transport;
pub mod vma;

use std::collections::BTreeMap;

use popcorn_hw::{CoreId, LockSite, Machine};
use popcorn_kernel::futex::FutexTable;
use popcorn_kernel::kernel::Kernel;
use popcorn_kernel::mm::Mm;
use popcorn_kernel::osmodel::{ensure_core_run, OsEvent, OsMachine};
use popcorn_kernel::policy::MigrationPolicy;
use popcorn_kernel::program::{Program, Resume, SysResult, SyscallReq};
use popcorn_kernel::task::BlockReason;
use popcorn_kernel::types::{Errno, GroupId, PageNo, Tid, VAddr};
use popcorn_msg::{Delivery, Fabric, KernelId, ReliableFabric, RpcTable};
use popcorn_sim::{Histogram, Scheduler, SimTime, TimeSeries};

use crate::directory::PageRequest;
use crate::group::GroupHome;
use crate::params::PopcornParams;
use crate::proto::{ProtoMsg, Protocol, VmaOp};
use crate::stats::PopStats;

/// The event payload of the Popcorn OS model.
pub type PopMsg = Delivery<ProtoMsg>;
/// The full event alphabet.
pub type PopEvent = OsEvent<PopMsg>;

/// Continuations parked at a kernel while a remote operation completes.
///
/// Each protocol module owns its payload type; this enum only exists so
/// one [`RpcTable`] per kernel can park them all — a single RPC id space
/// per kernel keeps id allocation order (and therefore results) identical
/// to the pre-decomposition machine.
#[derive(Debug)]
pub enum Pending {
    /// Threads waiting for a page grant ([`page::PageWait`]).
    Page(page::PageWait),
    /// A thread waiting on the VMA protocol ([`vma::VmaPending`]).
    Vma(vma::VmaPending),
    /// A parent waiting for a remote thread creation
    /// ([`group::CloneWait`]).
    Clone(group::CloneWait),
    /// A thread waiting on the futex server ([`futex::FutexPending`]).
    Futex(futex::FutexPending),
}

impl Pending {
    /// The protocol family this continuation is charged to.
    fn protocol(&self) -> Protocol {
        match self {
            Pending::Page(_) => Protocol::Page,
            Pending::Vma(_) => Protocol::Vma,
            Pending::Clone(_) => Protocol::Group,
            Pending::Futex(_) => Protocol::Futex,
        }
    }
}

/// A serial service point at a kernel (protocol handler occupancy).
///
/// Beyond the serialization itself, the server keeps pure accounting of
/// its own congestion — queue depth per arrival, depth over virtual time,
/// and busy occupancy — which the report layer aggregates into the
/// `home_*` metrics. The accounting schedules nothing and never feeds back
/// into `serialize`'s arithmetic, so completion times are bit-identical to
/// an uninstrumented server.
#[derive(Debug, Clone)]
pub struct Server {
    free_at: SimTime,
    /// Completion times of requests still queued or in service as of the
    /// last arrival (pruned against `now` on each arrival).
    backlog: Vec<SimTime>,
    /// Queue depth observed by each arriving request (itself included).
    depth_hist: Histogram,
    /// Depth sampled at each request's service start. Starts are
    /// monotonic (`start >= previous done`), satisfying the series'
    /// time-order contract.
    depth_series: TimeSeries,
    peak_depth: u64,
    busy_ns: u64,
}

impl Default for Server {
    fn default() -> Self {
        Server {
            free_at: SimTime::ZERO,
            backlog: Vec::new(),
            // Queue depths are small integers; 16 bucket groups cover
            // depths to ~2^19 without the full histogram's footprint.
            depth_hist: Histogram::with_groups(16),
            depth_series: TimeSeries::new(),
            peak_depth: 0,
            busy_ns: 0,
        }
    }
}

impl Server {
    /// Serializes a request of length `cost` behind the server's backlog;
    /// returns its completion time.
    pub fn serialize(&mut self, now: SimTime, cost: SimTime) -> SimTime {
        let start = now.max(self.free_at);
        let done = start + cost;
        self.backlog.retain(|&t| t > now);
        self.backlog.push(done);
        let depth = self.backlog.len() as u64;
        self.peak_depth = self.peak_depth.max(depth);
        self.depth_hist.record(depth);
        self.depth_series.push(start, depth as f64);
        self.busy_ns += cost.as_nanos();
        self.free_at = done;
        done
    }

    /// Largest queue depth any arrival observed (itself included).
    pub fn peak_depth(&self) -> u64 {
        self.peak_depth
    }

    /// Distribution of per-arrival queue depths (service occupancy).
    pub fn depth_hist(&self) -> &Histogram {
        &self.depth_hist
    }

    /// Queue depth over virtual time, sampled at service starts.
    pub fn depth_series(&self) -> &TimeSeries {
        &self.depth_series
    }

    /// Total virtual nanoseconds spent serving requests.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Folds this server's lifetime accounting into the home-service
    /// aggregate (called when its group is reaped, and at report time
    /// for servers still live at queue drain).
    pub fn fold_into(&self, agg: &mut crate::stats::HomeServiceAgg) {
        agg.note_server(
            self.peak_depth,
            &self.depth_hist,
            self.depth_series.time_weighted_mean(),
            self.busy_ns,
        );
    }
}

/// The per-group protocol service points at one kernel.
#[derive(Debug, Default, Clone)]
pub struct KernelServers {
    /// Page directory / transfer service.
    pub page: Server,
    /// VMA replication service.
    pub vma: Server,
    /// Futex / sync-word service.
    pub futex: Server,
}

/// The replicated-kernel OS model (see module docs).
#[derive(Debug)]
pub struct PopcornMachine {
    kernels: Vec<Kernel>,
    net: ReliableFabric<ProtoMsg>,
    machine: Machine,
    params: PopcornParams,
    groups: BTreeMap<GroupId, GroupHome>,
    futex: FutexTable,
    sync_sites: BTreeMap<(GroupId, u64), LockSite>,
    rpcs: Vec<RpcTable<Pending>>,
    inflight: Vec<BTreeMap<(GroupId, PageNo), page::InFlight>>,
    /// Per-group protocol service points (the per-mm protocol lock at the
    /// group's home, plus the replica-side update path).
    servers: BTreeMap<GroupId, KernelServers>,
    /// Delegate-side page service points under hierarchical home sharding,
    /// keyed by (group, delegate kernel). Empty whenever sharding is off.
    delegate_servers: BTreeMap<(GroupId, KernelId), Server>,
    /// Hierarchical home-sharding control: socket layout, the root-owned
    /// shard map, and pending escalations (see [`sharding`]).
    sharding: sharding::ShardCtl,
    /// Per-kernel page-allocator locks (the partitioned counterpart of
    /// SMP's global zone lock).
    zone_locks: Vec<LockSite>,
    /// First-touch homes of synchronization words (extension; only
    /// populated when `sync_first_touch_homing` is on).
    sync_home: BTreeMap<(GroupId, u64), KernelId>,
    /// Rotating tie-breaker for Auto placement across kernels.
    auto_cursor: usize,
    /// The migration policy (built from [`PopcornParams::policy`]). The
    /// default [`ScriptedOnly`](popcorn_kernel::policy::ScriptedOnly) runs
    /// no hooks at all; see [`policy`] for the active-policy machinery.
    policy: Box<dyn MigrationPolicy>,
    /// Load-telemetry board and tick state (inert under `ScriptedOnly`).
    telemetry: policy::Telemetry,
    /// Virtual time of the last event that did real protocol or execution
    /// work. RPC-deadline timers that find their request already completed
    /// (the overwhelmingly common case) do not count, so faulty runs can
    /// report when the workload actually finished rather than when the
    /// last moot deadline drained from the queue.
    last_activity: SimTime,
    /// Crash-recovery state (dormant unless crashes are planned — see
    /// [`recovery`]).
    recovery: recovery::RecoveryCtl,
    /// Protocol statistics.
    pub stats: PopStats,
}

impl PopcornMachine {
    /// Assembles the machine from its parts (used by the builder in
    /// [`crate::os`], and directly by protocol-level tests).
    pub fn new(
        kernels: Vec<Kernel>,
        fabric: Fabric,
        machine: Machine,
        params: PopcornParams,
    ) -> Self {
        let n = kernels.len();
        let zone_locks = (0..n)
            .map(|_| LockSite::new("zone_lock", machine.params()))
            .collect();
        let net = ReliableFabric::new(
            fabric,
            params.reliable_delivery.then(|| params.retx_policy()),
        );
        let policy = params.policy.build();
        let telemetry = policy::Telemetry::new(n);
        let sharding = sharding::ShardCtl::new(&kernels, &machine, params.home_sharding);
        PopcornMachine {
            kernels,
            net,
            machine,
            params,
            groups: BTreeMap::new(),
            futex: FutexTable::new(),
            sync_sites: BTreeMap::new(),
            rpcs: (0..n).map(|_| RpcTable::new()).collect(),
            inflight: (0..n).map(|_| BTreeMap::new()).collect(),
            servers: BTreeMap::new(),
            delegate_servers: BTreeMap::new(),
            sharding,
            zone_locks,
            sync_home: BTreeMap::new(),
            auto_cursor: 0,
            policy,
            telemetry,
            last_activity: SimTime::ZERO,
            recovery: recovery::RecoveryCtl::new(n),
            stats: PopStats::default(),
        }
    }

    /// Whether a migration policy (anything but `ScriptedOnly`) is active.
    pub fn policy_active(&self) -> bool {
        !self.policy.is_scripted_only()
    }

    /// The load-telemetry board (read access for reports).
    pub fn telemetry(&self) -> &policy::Telemetry {
        &self.telemetry
    }

    /// Virtual time of the last event that did real work (see the field).
    pub(crate) fn last_activity(&self) -> SimTime {
        self.last_activity
    }

    /// The kernel instances (read access for reports).
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// The message fabric (read access for reports).
    pub fn fabric(&self) -> &Fabric {
        self.net.fabric()
    }

    /// Creates a new group homed at kernel `home_ki` with `leader` running
    /// `program`. Returns the group id and the core to kick.
    pub fn create_group(
        &mut self,
        home_ki: usize,
        program: Box<dyn Program>,
        now: SimTime,
    ) -> (GroupId, CoreId) {
        let leader = self.kernels[home_ki].alloc_tid();
        let group = GroupId(leader);
        self.kernels[home_ki].adopt_mm(Mm::new(group));
        self.groups.insert(
            group,
            GroupHome::new(group, leader, KernelId(home_ki as u16)),
        );
        let core = self.kernels[home_ki].spawn(leader, group, program, None, now);
        (group, core)
    }

    /// Borrows every field apart into a [`KernelCtx`] for the protocol
    /// modules. Public so protocol-level tests can drive handlers without
    /// the full OS builder.
    pub fn ctx<'m, 'e>(&'m mut self, sched: &'m mut Scheduler<'e, PopEvent>) -> KernelCtx<'m, 'e> {
        KernelCtx {
            kernels: &mut self.kernels,
            net: &mut self.net,
            machine: &self.machine,
            params: &self.params,
            groups: &mut self.groups,
            futex: &mut self.futex,
            sync_sites: &mut self.sync_sites,
            rpcs: &mut self.rpcs,
            inflight: &mut self.inflight,
            servers: &mut self.servers,
            delegate_servers: &mut self.delegate_servers,
            sharding: &mut self.sharding,
            zone_locks: &mut self.zone_locks,
            sync_home: &mut self.sync_home,
            auto_cursor: &mut self.auto_cursor,
            policy: &mut self.policy,
            telemetry: &mut self.telemetry,
            last_activity: &mut self.last_activity,
            recovery: &mut self.recovery,
            stats: &mut self.stats,
            sched,
        }
    }

    /// The per-group home state (read access for the invariant checker).
    pub fn groups(&self) -> &BTreeMap<GroupId, GroupHome> {
        &self.groups
    }

    /// The futex wait queues (read access for the invariant checker).
    pub fn futex_table(&self) -> &FutexTable {
        &self.futex
    }

    /// The per-kernel RPC tables (read access for the invariant
    /// checker).
    pub fn rpcs(&self) -> &[RpcTable<Pending>] {
        &self.rpcs
    }

    /// The crash-recovery state (read access for the invariant checker).
    pub fn recovery(&self) -> &recovery::RecoveryCtl {
        &self.recovery
    }

    /// The home-sharding state (read access for the invariant checker).
    pub fn sharding(&self) -> &sharding::ShardCtl {
        &self.sharding
    }

    /// The per-group home service points (read access for reports).
    pub fn servers(&self) -> &BTreeMap<GroupId, KernelServers> {
        &self.servers
    }

    /// The delegate-side page service points (read access for reports).
    pub fn delegate_servers(&self) -> &BTreeMap<(GroupId, KernelId), Server> {
        &self.delegate_servers
    }

    /// The protocol parameters (read access for reports and checks).
    pub fn params(&self) -> &PopcornParams {
        &self.params
    }
}

/// A borrow-view over [`PopcornMachine`]'s fields plus the scheduler: the
/// execution context every protocol handler runs on.
///
/// Splitting the machine into disjoint `&mut` borrows (rather than handing
/// modules `&mut PopcornMachine`) keeps each protocol module honest about
/// what it touches, and lets handlers in different modules call each other
/// without re-borrowing the whole machine.
#[derive(Debug)]
pub struct KernelCtx<'m, 'e> {
    /// The kernel instances, indexed by kernel id.
    pub kernels: &'m mut Vec<Kernel>,
    /// The reliable message fabric (shared substrate in `popcorn-msg`).
    pub net: &'m mut ReliableFabric<ProtoMsg>,
    /// The hardware model.
    pub machine: &'m Machine,
    /// Protocol cost constants and ablation toggles.
    pub params: &'m PopcornParams,
    /// Per-group home state (membership, directory, exit barrier).
    pub groups: &'m mut BTreeMap<GroupId, GroupHome>,
    /// The futex wait queues and sync words (all groups).
    pub futex: &'m mut FutexTable,
    /// Contention sites of sync words served on the local fast path.
    pub sync_sites: &'m mut BTreeMap<(GroupId, u64), LockSite>,
    /// Per-kernel RPC tables (request/response correlation).
    pub rpcs: &'m mut Vec<RpcTable<Pending>>,
    /// Per-kernel in-flight page requests (fault coalescing).
    pub inflight: &'m mut Vec<BTreeMap<(GroupId, PageNo), page::InFlight>>,
    /// Per-group protocol service points.
    pub servers: &'m mut BTreeMap<GroupId, KernelServers>,
    /// Delegate-side page service points (home sharding only).
    pub delegate_servers: &'m mut BTreeMap<(GroupId, KernelId), Server>,
    /// Hierarchical home-sharding control (see [`sharding`]).
    pub sharding: &'m mut sharding::ShardCtl,
    /// Per-kernel page-allocator locks.
    pub zone_locks: &'m mut Vec<LockSite>,
    /// First-touch homes of synchronization words.
    pub sync_home: &'m mut BTreeMap<(GroupId, u64), KernelId>,
    /// Rotating tie-breaker for Auto placement.
    pub auto_cursor: &'m mut usize,
    /// The migration policy.
    pub policy: &'m mut Box<dyn MigrationPolicy>,
    /// The load-telemetry board.
    pub telemetry: &'m mut policy::Telemetry,
    /// Virtual time of the last event that did real work.
    pub last_activity: &'m mut SimTime,
    /// Crash-recovery state (see [`recovery`]).
    pub recovery: &'m mut recovery::RecoveryCtl,
    /// Protocol statistics.
    pub stats: &'m mut PopStats,
    /// The event scheduler of the running simulation.
    pub sched: &'m mut Scheduler<'e, PopEvent>,
}

impl KernelCtx<'_, '_> {
    pub(super) fn note_activity(&mut self, at: SimTime) {
        *self.last_activity = (*self.last_activity).max(at);
    }

    pub(super) fn kid(&self, ki: usize) -> KernelId {
        KernelId(ki as u16)
    }

    pub(super) fn ki(&self, k: KernelId) -> usize {
        k.0 as usize
    }

    pub(super) fn kick(&mut self, ki: usize, core: CoreId, at: SimTime) {
        ensure_core_run(self.sched, ki as u16, core, at);
    }

    pub(super) fn group_of(&self, ki: usize, tid: Tid) -> GroupId {
        self.kernels[ki]
            .task(tid)
            .unwrap_or_else(|| panic!("{tid} unknown on kernel {ki}"))
            .group
    }

    pub(super) fn task_alive(&self, ki: usize, tid: Tid) -> bool {
        self.kernels[ki]
            .task(tid)
            .is_some_and(|t| !t.is_exited() && !t.is_shadow())
    }

    /// Wakes a blocked task with a syscall result.
    pub(super) fn wake_with(&mut self, ki: usize, tid: Tid, result: SysResult, at: SimTime) {
        if !self.task_alive(ki, tid) {
            return;
        }
        let k = &mut self.kernels[ki];
        if let Some(task) = k.task_mut(tid) {
            task.resume = Resume::Sys(result);
        }
        let core = k.wake(tid, at);
        self.kick(ki, core, at);
    }

    /// The syscall dispatcher: local syscalls are served inline; protocol
    /// syscalls route into their family's module.
    pub fn syscall(&mut self, ki: usize, core: CoreId, tid: Tid, req: SyscallReq, at: SimTime) {
        self.note_activity(at);
        let group = self.group_of(ki, tid);
        match req {
            SyscallReq::GetPid => {
                self.kernels[ki].finish_syscall(tid, SysResult::Val(group.pid() as u64), at);
                self.kick(ki, core, at);
            }
            SyscallReq::GetTid => {
                self.kernels[ki].finish_syscall(tid, SysResult::Val(tid.0 as u64), at);
                self.kick(ki, core, at);
            }
            SyscallReq::GetKernel => {
                self.kernels[ki].finish_syscall(tid, SysResult::Val(ki as u64), at);
                self.kick(ki, core, at);
            }
            SyscallReq::Yield => {
                let c = self.kernels[ki].yield_current(tid, at);
                self.kick(ki, c, at);
            }
            SyscallReq::Nanosleep { ns } => {
                let c = self.kernels[ki].block_current(tid, BlockReason::Sleep, at);
                self.kick(ki, c, at);
                self.sched.at(
                    at + SimTime::from_nanos(ns),
                    OsEvent::TimerWake {
                        kernel: ki as u16,
                        tid,
                    },
                );
            }
            SyscallReq::Mmap { len } => {
                self.start_vma_op(ki, tid, group, VmaOp::Map { len }, at);
            }
            SyscallReq::Munmap { addr, len } => {
                self.start_vma_op(ki, tid, group, VmaOp::Unmap { addr, len }, at);
            }
            SyscallReq::Brk { grow } => {
                self.start_vma_op(ki, tid, group, VmaOp::Brk { grow }, at);
            }
            SyscallReq::Futex(op) => {
                self.futex_syscall(ki, core, tid, group, op, at);
            }
            SyscallReq::Clone { child, placement } => {
                self.clone_syscall(ki, core, tid, group, child, placement, at);
            }
            SyscallReq::Migrate(target) => {
                self.migrate_syscall(ki, core, tid, target, at);
            }
            SyscallReq::ExitGroup { code } => {
                self.exit_group_syscall(ki, group, code, at);
            }
        }
    }

    /// Dispatches one protocol message at its receiving kernel (after the
    /// transport layer has unwrapped envelopes and filtered duplicates),
    /// charging it to its protocol family.
    pub fn dispatch(
        &mut self,
        from: KernelId,
        to: KernelId,
        ki: usize,
        payload: ProtoMsg,
        now: SimTime,
    ) {
        self.stats.proto.of(payload.protocol()).msgs_in.incr();
        match payload {
            ProtoMsg::Seq { .. }
            | ProtoMsg::ChanAck { .. }
            | ProtoMsg::RetxTimer { .. }
            | ProtoMsg::RpcDeadline { .. }
            | ProtoMsg::PolicyTick
            | ProtoMsg::CrashDetect { .. } => {
                unreachable!("reliability-layer/timer messages are consumed before dispatch")
            }
            ProtoMsg::TaskMigrate(m) => self.migrate_in(ki, *m, now),
            ProtoMsg::MemberAt { group, tid, joined } => {
                self.on_member_at(from, ki, group, tid, joined, now);
            }
            ProtoMsg::CloneReq {
                rpc,
                origin,
                group,
                child,
                vmas,
            } => self.on_clone_req(to, ki, rpc, origin, group, child, vmas, now),
            ProtoMsg::CloneResp { rpc, tid } => self.on_clone_resp(ki, rpc, tid, now),
            ProtoMsg::VmaOpReq {
                rpc,
                origin,
                group,
                op,
            } => self.vma_op_at_home(group, op, rpc, origin, now),
            ProtoMsg::VmaOpDone { rpc, result } => {
                self.complete_vma_pending(ki, rpc, result, now);
            }
            ProtoMsg::VmaUpdate { group, change, ack } => {
                self.on_vma_update(from, ki, group, change, ack, now);
            }
            ProtoMsg::VmaUpdateAck { group, token } => {
                self.on_vma_update_ack(from, group, token, now);
            }
            ProtoMsg::VmaFetchReq {
                rpc,
                origin,
                group,
                addr,
            } => self.on_vma_fetch_req(ki, rpc, origin, group, addr, now),
            ProtoMsg::VmaFetchResp { rpc, vma } => self.on_vma_fetch_resp(ki, rpc, vma, now),
            ProtoMsg::PageReq {
                rpc,
                origin,
                group,
                page,
                write,
            } => {
                self.home_page_request(to, group, page, PageRequest { rpc, origin, write }, now);
            }
            ProtoMsg::PageFetch { group, page } => self.on_page_fetch(from, ki, group, page, now),
            ProtoMsg::PageFetched {
                group,
                page,
                contents,
            } => self.on_page_fetched(to, group, page, contents, now),
            ProtoMsg::PageInval { group, page } => self.on_page_inval(from, ki, group, page, now),
            ProtoMsg::PageInvalAck {
                group,
                page,
                contents,
            } => self.on_page_inval_ack(from, to, group, page, contents, now),
            ProtoMsg::PageGrant {
                rpc,
                group,
                page,
                state,
                version,
                contents,
            } => self.apply_grant(ki, group, page, state, version, contents, rpc, now),
            ProtoMsg::PageDone { group, page } => self.page_done_at_home(group, page, to, now),
            ProtoMsg::PageNack { rpc, group, page } => {
                self.on_page_nack(ki, rpc, group, page, now);
            }
            ProtoMsg::PtReplicaUpdate {
                group,
                page,
                version,
            } => self.on_pt_replica_update(to, group, page, version, now),
            ProtoMsg::PtReplicaReq { origin, group } => {
                self.on_pt_replica_req(origin, group, now);
            }
            ProtoMsg::PtReplicaGrant { group, pages } => {
                self.on_pt_replica_grant(to, ki, group, pages, now);
            }
            ProtoMsg::FutexReq {
                rpc,
                origin,
                group,
                tid,
                op,
            } => self.on_futex_req(ki, rpc, origin, group, tid, op, now),
            ProtoMsg::FutexResp { rpc, outcome, hint } => {
                self.on_futex_resp(ki, rpc, outcome, hint, now);
            }
            ProtoMsg::FutexWakeTask { group: _, tid } => {
                self.wake_with(ki, tid, SysResult::Val(0), now);
            }
            ProtoMsg::FutexWakeErr { group: _, tid } => {
                self.wake_with(ki, tid, SysResult::Err(Errno::OwnerDead), now);
            }
            ProtoMsg::RmwReq {
                rpc,
                origin,
                group,
                addr,
                op,
            } => self.on_rmw_req(to, ki, rpc, origin, group, addr, op, now),
            ProtoMsg::RmwResp { rpc, old } => self.on_rmw_resp(ki, rpc, old, now),
            ProtoMsg::TaskExited { group, tid } => self.on_task_exited(group, tid, now),
            ProtoMsg::GroupExitReq {
                group,
                code,
                killed,
            } => self.on_group_exit_req(from, to, ki, group, code, killed, now),
            ProtoMsg::GroupKill { group, code } => self.on_group_kill(from, ki, group, code, now),
            ProtoMsg::GroupKillAck { group, killed } => {
                self.on_group_kill_ack(from, group, killed, now);
            }
            ProtoMsg::GroupReap { group } => self.on_group_reap(ki, group),
            ProtoMsg::LoadReport { load } => self.on_load_report(ki, load),
            ProtoMsg::StealReq { thief } => self.on_steal_req(ki, thief, now),
        }
    }
}

impl OsMachine for PopcornMachine {
    type Msg = PopMsg;

    fn kernels_mut(&mut self) -> &mut [Kernel] {
        &mut self.kernels
    }

    fn handle_syscall(
        &mut self,
        sched: &mut Scheduler<PopEvent>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        req: SyscallReq,
        at: SimTime,
    ) {
        self.ctx(sched).syscall(ki, core, tid, req, at);
    }

    fn handle_sync_op(
        &mut self,
        sched: &mut Scheduler<PopEvent>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        addr: VAddr,
        op: popcorn_kernel::program::RmwOp,
        at: SimTime,
    ) {
        self.ctx(sched).sync_op(ki, core, tid, addr, op, at);
    }

    fn handle_fault(
        &mut self,
        sched: &mut Scheduler<PopEvent>,
        ki: usize,
        core: CoreId,
        tid: Tid,
        page: PageNo,
        write: bool,
        no_vma: bool,
        at: SimTime,
    ) {
        self.ctx(sched)
            .fault(ki, core, tid, page, write, no_vma, at);
    }

    fn handle_exit(
        &mut self,
        sched: &mut Scheduler<PopEvent>,
        ki: usize,
        _core: CoreId,
        tid: Tid,
        _code: i32,
        at: SimTime,
    ) {
        let mut ctx = self.ctx(sched);
        ctx.note_activity(at);
        let group = ctx.group_of(ki, tid);
        ctx.note_task_exited(ki, group, tid, at);
    }

    fn handle_custom(&mut self, sched: &mut Scheduler<PopEvent>, msg: PopMsg, now: SimTime) {
        self.ctx(sched).receive(msg, now);
    }
}
