//! Thread-group membership, remote thread creation, and distributed
//! group exit.
//!
//! The group's home kernel (where the leader was spawned) tracks every
//! member's location ([`crate::group::GroupHome`]). Remote clones run a
//! `CloneReq`/`CloneResp` RPC against the target kernel. Every group step
//! addressed to the home is posted, so the home runs the same handler for
//! its own steps as for a replica's. An `exit_group`, like a received
//! `GroupKill`, kills the kernel's local members and posts one kill
//! report (`GroupExitReq`) to the home; the first report orders every
//! other replica to kill, and the last one reaps the group everywhere.

use popcorn_kernel::mm::Mm;
use popcorn_kernel::program::{Placement, Program, SysResult};
use popcorn_kernel::task::BlockReason;
use popcorn_kernel::types::{GroupId, Tid};
use popcorn_msg::{KernelId, RpcId};
use popcorn_sim::SimTime;

use crate::proto::ProtoMsg;

use super::{CoreId, KernelCtx, Pending};

/// A parent waiting for a remote thread creation.
#[derive(Debug)]
pub struct CloneWait {
    /// The parent thread.
    pub tid: Tid,
    /// When the clone syscall started (latency accounting).
    pub started: SimTime,
}

impl KernelCtx<'_, '_> {
    /// The clone syscall: spawn locally, or run a `CloneReq` RPC against
    /// the placement target.
    pub(super) fn clone_syscall(
        &mut self,
        ki: usize,
        core: CoreId,
        tid: Tid,
        group: GroupId,
        child: Box<dyn Program>,
        placement: Placement,
        at: SimTime,
    ) {
        let me = self.kid(ki);
        let (target_ki, core_hint) = match placement {
            Placement::Local => (ki, None),
            Placement::Core(c) => {
                let (k, hint) =
                    self.resolve_target(popcorn_kernel::program::MigrateTarget::Core(c));
                (self.ki(k), hint)
            }
            Placement::Auto => (self.least_loaded_kernel(), None),
        };
        if target_ki == ki {
            self.stats.clone_local.incr();
            let child_tid = self.kernels[ki].alloc_tid();
            let done = at + SimTime::from_nanos(self.kernels[ki].params().clone_base_ns);
            let child_core = self.kernels[ki].spawn(child_tid, group, child, core_hint, done);
            self.kernels[ki].finish_syscall(tid, SysResult::Val(child_tid.0 as u64), done);
            self.kick(ki, core, done);
            self.kick(ki, child_core, done);
            self.note_member_at(ki, group, child_tid, true, done);
        } else {
            self.stats.clone_remote.incr();
            let target = self.kid(target_ki);
            let rpc = self.register_rpc(
                ki,
                Pending::Clone(CloneWait { tid, started: at }),
                at,
                target,
            );
            let c = self.kernels[ki].block_current(tid, BlockReason::Remote("clone"), at);
            self.kick(ki, c, at);
            let vmas = if self.params.eager_vma_replication {
                self.kernels[ki].mm(group).vmas()
            } else {
                Vec::new()
            };
            self.send(
                at,
                ki,
                target,
                ProtoMsg::CloneReq {
                    rpc,
                    origin: me,
                    group,
                    child,
                    vmas,
                },
            );
        }
    }

    /// An `exit_group` at kernel `ki`, or a `GroupKill` received there:
    /// kill the group's local members and post the kill report
    /// (`GroupExitReq`) to the home.
    pub(super) fn kill_and_report(&mut self, ki: usize, group: GroupId, code: i32, at: SimTime) {
        let killed = self.kill_local_members(ki, group, code, at);
        let home = self.home_of(group);
        let report = ProtoMsg::GroupExitReq {
            group,
            code,
            killed,
        };
        self.post(at, ki, home, report);
    }

    /// Reports a member's exit at kernel `ki` to the home: a `TaskExited`
    /// step, posted (handled inline when `ki` is the home).
    pub(super) fn note_task_exited(&mut self, ki: usize, group: GroupId, tid: Tid, at: SimTime) {
        let home = self.home_of(group);
        self.post(at, ki, home, ProtoMsg::TaskExited { group, tid });
    }

    /// Tears the group down everywhere (run at the group's effective home
    /// kernel).
    pub(super) fn reap_group(&mut self, group: GroupId, at: SimTime) {
        let Some(h) = self.groups.remove(&group) else {
            return;
        };
        let home_ki = self.ki(h.home());
        for r in h.remote_replicas() {
            self.send(at, home_ki, r, ProtoMsg::GroupReap { group });
        }
        self.kernels[home_ki].reap_group(group);
        self.kernels[home_ki].drop_mm(group);
        self.futex.drop_group(group);
        // Retire the group's page service points into the run-wide
        // occupancy aggregate; the rest of the board drops with it.
        h.fold_servers(&mut self.stats.home_service);
    }

    /// Kills every local member of a group; returns the killed tids.
    pub(super) fn kill_local_members(
        &mut self,
        ki: usize,
        group: GroupId,
        code: i32,
        at: SimTime,
    ) -> Vec<Tid> {
        let members = self.kernels[ki].group_members(group);
        for &tid in &members {
            if let Some(core) = self.kernels[ki].kill_task(tid, code, at) {
                self.kick(ki, core, at);
            }
        }
        members
    }

    /// Tells the home that member `tid` now lives at kernel `ki` (`joined`
    /// for a new thread): a posted `MemberAt` step.
    pub(super) fn note_member_at(
        &mut self,
        ki: usize,
        group: GroupId,
        tid: Tid,
        joined: bool,
        at: SimTime,
    ) {
        let home = self.home_of(group);
        self.post(at, ki, home, ProtoMsg::MemberAt { group, tid, joined });
    }

    /// `MemberAt` at the home: record the member's location; a straggler
    /// that reaches a dying group, the home included, is killed where it
    /// landed.
    pub(super) fn on_member_at(
        &mut self,
        from: KernelId,
        ki: usize,
        group: GroupId,
        tid: Tid,
        joined: bool,
        now: SimTime,
    ) {
        if let Some(h) = self.groups.get_mut(&group) {
            if joined {
                h.member_joined(tid, from);
            } else {
                h.member_at(tid, from);
            }
            if let Some(code) = h.exit() {
                self.post(now, ki, from, ProtoMsg::GroupKill { group, code });
            }
        }
    }

    /// `CloneReq` at the target kernel: spawn the child and answer; the
    /// home learns of the new member either directly or via `MemberAt`.
    pub(super) fn on_clone_req(
        &mut self,
        ki: usize,
        rpc: RpcId,
        origin: KernelId,
        group: GroupId,
        child: Box<dyn Program>,
        vmas: Vec<popcorn_kernel::mm::Vma>,
        now: SimTime,
    ) {
        if !self.kernels[ki].has_mm(group) {
            self.kernels[ki].adopt_mm(Mm::new(group));
        }
        for vma in vmas {
            self.kernels[ki].mm_mut(group).install_vma(vma);
        }
        let child_tid = self.kernels[ki].alloc_tid();
        let done = now + SimTime::from_nanos(self.kernels[ki].params().clone_base_ns);
        let child_core = self.kernels[ki].spawn(child_tid, group, child, None, done);
        self.kick(ki, child_core, done);
        self.send(
            done,
            ki,
            origin,
            ProtoMsg::CloneResp {
                rpc,
                tid: child_tid,
            },
        );
        self.note_member_at(ki, group, child_tid, true, done);
    }

    /// `CloneResp` at the parent: wake it with the child's tid.
    pub(super) fn on_clone_resp(&mut self, ki: usize, rpc: RpcId, tid: Tid, now: SimTime) {
        if let Some(Pending::Clone(CloneWait {
            tid: parent,
            started,
        })) = self.complete_rpc(ki, rpc)
        {
            self.stats
                .clone_remote_lat
                .record_time(now.saturating_sub(started));
            self.wake_with(ki, parent, SysResult::Val(tid.0 as u64), now);
        }
    }

    /// `TaskExited` at the home: record the exit; the last one reaps the
    /// group.
    pub(super) fn on_task_exited(&mut self, group: GroupId, tid: Tid, now: SimTime) {
        let finished = match self.groups.get_mut(&group) {
            Some(h) => h.member_exited(tid) == 0 && h.exit().is_none(),
            None => false,
        };
        if finished {
            self.reap_group(group, now);
        }
    }

    /// `GroupExitReq` at the home: a kernel killed its members of the
    /// group. The first report starts the exit and orders every other
    /// replica to kill (the home's own order runs inline); every report
    /// retires the members it killed, and the last awaited one reaps the
    /// group.
    pub(super) fn on_group_exit_req(
        &mut self,
        from: KernelId,
        ki: usize,
        group: GroupId,
        code: i32,
        killed: Vec<Tid>,
        now: SimTime,
    ) {
        let Some(h) = self.groups.get_mut(&group) else {
            return;
        };
        let targets = h.begin_exit(code, from);
        let complete = h.kill_acked(from, &killed);
        for t in targets {
            self.post(now, ki, t, ProtoMsg::GroupKill { group, code });
        }
        if complete {
            self.reap_group(group, now);
        }
    }

    /// `GroupReap` at a replica: drop every trace of the group.
    pub(super) fn on_group_reap(&mut self, ki: usize, group: GroupId) {
        self.kernels[ki].reap_group(group);
        self.kernels[ki].drop_mm(group);
        self.inflight[ki].retain(|&(g, _), _| g != group);
    }
}
