//! Address-space layout: home-serialized VMA operations, replica updates,
//! unmap barriers, and on-demand VMA retrieval.
//!
//! Every layout change (`mmap`/`munmap`/`brk`) is serialized at the
//! group's home kernel, which pushes `VmaUpdate`s to the replicas. Unmaps
//! carry an ack token so the home can run a group-wide barrier before
//! completing the syscall. Kernels that fault on an address they have no
//! VMA for retrieve it on demand (`VmaFetchReq`) — the paper's alternative
//! to eagerly replicating the whole layout.

use popcorn_kernel::mm::{Vma, BRK_BASE};
use popcorn_kernel::program::SysResult;
use popcorn_kernel::task::BlockReason;
use popcorn_kernel::types::{Errno, GroupId, PageNo, Tid, VAddr};
use popcorn_msg::{KernelId, RpcId};
use popcorn_sim::SimTime;

use crate::proto::{ProtoMsg, Protocol, VmaChange, VmaOp};

use super::{KernelCtx, Pending};

/// A thread waiting on the VMA protocol.
#[derive(Debug)]
pub enum VmaPending {
    /// Waiting for an on-demand VMA retrieval.
    Fetch {
        /// The faulting thread.
        tid: Tid,
        /// Its group (for the segfault path).
        group: GroupId,
    },
    /// Waiting for a home-serialized VMA operation.
    Op {
        /// The calling thread.
        tid: Tid,
    },
}

impl KernelCtx<'_, '_> {
    /// Serializes a request behind the group's VMA server, recording the
    /// service time against the VMA protocol.
    fn serve_vma(&mut self, group: GroupId, now: SimTime, cost: SimTime) -> SimTime {
        self.stats.proto.of(Protocol::Vma).service.record_time(cost);
        self.serve(group, now, cost, |h| &mut h.servers().vma)
    }

    /// Starts a VMA operation from kernel `ki` (routing to the home).
    pub fn start_vma_op(&mut self, ki: usize, tid: Tid, group: GroupId, op: VmaOp, at: SimTime) {
        let me = self.kid(ki);
        let home = self.home_of(group);
        let rpc = self.register_rpc(ki, Pending::Vma(VmaPending::Op { tid }), at, home);
        let c = self.kernels[ki].block_current(tid, BlockReason::Remote("vma"), at);
        self.kick(ki, c, at);
        if me == home {
            self.stats.vma_local.incr();
        } else {
            self.stats.vma_remote.incr();
        }
        self.post(
            at,
            ki,
            home,
            ProtoMsg::VmaOpReq {
                rpc,
                origin: me,
                group,
                op,
            },
        );
    }

    /// Applies a VMA operation at the home kernel (the group-wide
    /// serialization point). `origin`/`rpc` identify where the completion
    /// goes — possibly this very kernel.
    pub fn vma_op_at_home(
        &mut self,
        group: GroupId,
        op: VmaOp,
        rpc: RpcId,
        origin: KernelId,
        at: SimTime,
    ) {
        let home = self.home_of(group);
        let home_ki = self.ki(home);
        if !self.groups.contains_key(&group) {
            self.finish_vma_op(group, rpc, origin, Err(Errno::Srch), at);
            return;
        }
        let base = match op {
            VmaOp::Map { .. } | VmaOp::Brk { .. } => self.kernels[home_ki].params().mmap_base_ns,
            VmaOp::Unmap { .. } => self.kernels[home_ki].params().munmap_base_ns,
        };
        // The replication machinery only costs anything once the group
        // actually spans kernels.
        let solo = self
            .groups
            .get(&group)
            .is_none_or(|h| h.remote_replicas().is_empty());
        let cost = if solo {
            SimTime::from_nanos(base)
        } else {
            SimTime::from_nanos(base + self.params.vma_service_ns)
        };
        let done = self.serve_vma(group, at, cost);
        match op {
            VmaOp::Map { len } => {
                let res = self.kernels[home_ki].mm_mut(group).map_anon(len);
                if let Ok(addr) = res {
                    let vma = *self.kernels[home_ki]
                        .mm(group)
                        .vma_covering(addr)
                        .expect("just mapped");
                    self.push_vma_change(group, home_ki, VmaChange::Map(vma), None, done);
                }
                self.finish_vma_op(group, rpc, origin, res.map(|a| a.0), done);
            }
            VmaOp::Brk { grow } => {
                let old = self.kernels[home_ki].mm_mut(group).brk_grow(grow);
                let heap = self.kernels[home_ki]
                    .mm(group)
                    .vma_covering(VAddr(BRK_BASE))
                    .copied();
                if let Some(heap) = heap {
                    self.push_vma_change(group, home_ki, VmaChange::Map(heap), None, done);
                }
                self.finish_vma_op(group, rpc, origin, Ok(old.0), done);
            }
            VmaOp::Unmap { addr, len } => {
                let res = self.kernels[home_ki].mm_mut(group).unmap(addr, len);
                match res {
                    Err(e) => self.finish_vma_op(group, rpc, origin, Err(e), done),
                    Ok(_dropped_local) => {
                        // Directory forgets the whole range — every shard
                        // of it — and replicas drop their copies when
                        // applying the update.
                        let first = addr.0 >> 12;
                        let last = (addr.0 + len - 1) >> 12;
                        let h = self.groups.get_mut(&group).expect("checked above");
                        h.forget_range(PageNo(first), last - first + 1);
                        // Local TLB shootdown across the home's cores —
                        // outside the serialized section (as on SMP, where
                        // the flush happens after mmap_sem is dropped).
                        let cores = self.kernels[home_ki].cores();
                        let sd = self.machine.shootdown().tlb_shootdown(&cores[1..]);
                        let done = done + sd.initiator_busy;
                        let (token, complete) = h.begin_unmap(rpc, origin, h.remote_replicas());
                        if complete {
                            let (rpc, origin) = self
                                .groups
                                .get_mut(&group)
                                .expect("present")
                                .finish_unmap(token);
                            self.finish_vma_op(group, rpc, origin, Ok(0), done);
                        } else {
                            let change = VmaChange::Unmap { addr, len };
                            self.push_vma_change(group, home_ki, change, Some(token), done);
                        }
                    }
                }
            }
        }
    }

    /// Pushes a layout change from the home to every remote replica.
    fn push_vma_change(
        &mut self,
        group: GroupId,
        home_ki: usize,
        change: VmaChange,
        ack: Option<u64>,
        at: SimTime,
    ) {
        let remotes = self.groups[&group].remote_replicas();
        for r in remotes {
            self.send(at, home_ki, r, ProtoMsg::VmaUpdate { group, change, ack });
        }
    }

    /// Completes a VMA operation toward its origin kernel.
    pub(super) fn finish_vma_op(
        &mut self,
        group: GroupId,
        rpc: RpcId,
        origin: KernelId,
        result: Result<u64, Errno>,
        at: SimTime,
    ) {
        let home_ki = self.ki(self.home_of(group));
        self.post(at, home_ki, origin, ProtoMsg::VmaOpDone { rpc, result });
    }

    /// Wakes the thread whose VMA operation completed.
    pub(super) fn complete_vma_pending(
        &mut self,
        ki: usize,
        rpc: RpcId,
        result: Result<u64, Errno>,
        at: SimTime,
    ) {
        if let Some(Pending::Vma(VmaPending::Op { tid })) = self.complete_rpc(ki, rpc) {
            let sys = match result {
                Ok(v) => SysResult::Val(v),
                Err(e) => SysResult::Err(e),
            };
            self.wake_with(ki, tid, sys, at);
        }
    }

    /// A fault on an address with no local VMA: genuine segfault at the
    /// home (which holds the authoritative layout), on-demand retrieval
    /// everywhere else.
    pub(super) fn no_vma_fault(
        &mut self,
        ki: usize,
        tid: Tid,
        group: GroupId,
        page: PageNo,
        at: SimTime,
    ) {
        let me = self.kid(ki);
        let home = self.home_of(group);
        if me == home {
            let c = self.kernels[ki].force_exit_current(tid, 139, at);
            self.kick(ki, c, at);
            self.note_task_exited(ki, group, tid, at);
        } else {
            self.stats.vma_fetches.incr();
            let rpc =
                self.register_rpc(ki, Pending::Vma(VmaPending::Fetch { tid, group }), at, home);
            let c = self.kernels[ki].block_current(tid, BlockReason::Remote("vma"), at);
            self.kick(ki, c, at);
            self.send(
                at,
                ki,
                home,
                ProtoMsg::VmaFetchReq {
                    rpc,
                    origin: me,
                    group,
                    addr: page.base(),
                },
            );
        }
    }

    /// `VmaUpdate` at a replica: apply the layout change (with a local TLB
    /// shootdown for unmaps) and ack when the home runs a barrier.
    pub(super) fn on_vma_update(
        &mut self,
        from: KernelId,
        ki: usize,
        group: GroupId,
        change: VmaChange,
        ack: Option<u64>,
        now: SimTime,
    ) {
        if self.kernels[ki].has_mm(group) {
            match change {
                VmaChange::Map(vma) => {
                    self.kernels[ki].mm_mut(group).install_vma(vma);
                }
                VmaChange::Unmap { addr, len } => {
                    let dropped = self.kernels[ki].mm_mut(group).remove_vma(addr, len);
                    if !dropped.is_empty() {
                        let cores = self.kernels[ki].cores();
                        let sd = self.machine.shootdown().tlb_shootdown(&cores[1..]);
                        self.serve_vma(group, now, sd.initiator_busy);
                    }
                }
            }
        }
        if let Some(token) = ack {
            let cost = SimTime::from_nanos(self.params.vma_service_ns);
            let done = self.serve_vma(group, now, cost);
            self.send(done, ki, from, ProtoMsg::VmaUpdateAck { group, token });
        }
    }

    /// `VmaUpdateAck` back at the home: the last ack releases the unmap
    /// barrier and completes the originating syscall.
    pub(super) fn on_vma_update_ack(
        &mut self,
        from: KernelId,
        group: GroupId,
        token: u64,
        now: SimTime,
    ) {
        if let Some(h) = self.groups.get_mut(&group) {
            if let Some((rpc, origin)) = h.unmap_acked(token, from) {
                self.finish_vma_op(group, rpc, origin, Ok(0), now);
            }
        }
    }

    /// `VmaFetchReq` at the home: look up the covering VMA and answer.
    pub(super) fn on_vma_fetch_req(
        &mut self,
        ki: usize,
        rpc: RpcId,
        origin: KernelId,
        group: GroupId,
        addr: VAddr,
        now: SimTime,
    ) {
        let vma = if self.kernels[ki].has_mm(group) {
            self.kernels[ki].mm(group).vma_covering(addr).copied()
        } else {
            None
        };
        let cost = SimTime::from_nanos(self.params.vma_service_ns);
        let done = self.serve_vma(group, now, cost);
        self.send(done, ki, origin, ProtoMsg::VmaFetchResp { rpc, vma });
    }

    /// `VmaFetchResp` at the faulting kernel: install and retry, or kill
    /// the thread if the home had no VMA either (remote segfault).
    pub(super) fn on_vma_fetch_resp(
        &mut self,
        ki: usize,
        rpc: RpcId,
        vma: Option<Vma>,
        now: SimTime,
    ) {
        if let Some(Pending::Vma(VmaPending::Fetch { tid, group })) = self.complete_rpc(ki, rpc) {
            match vma {
                Some(vma) => {
                    if self.kernels[ki].has_mm(group) {
                        self.kernels[ki].mm_mut(group).install_vma(vma);
                    }
                    self.wake_live(ki, tid, None, now);
                }
                None => {
                    // Genuine segfault on a remote kernel.
                    if self.task_alive(ki, tid) {
                        self.kernels[ki].kill_task(tid, 139, now);
                        self.note_task_exited(ki, group, tid, now);
                    }
                }
            }
        }
    }
}
