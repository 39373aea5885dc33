//! Thread-group membership, remote thread creation, and the distributed
//! group-exit barrier.
//!
//! The group's home kernel (where the leader was spawned) tracks every
//! member's location ([`crate::group::GroupHome`]). Remote clones run a
//! `CloneReq`/`CloneResp` RPC against the target kernel; `exit_group`
//! kills local members immediately and runs a kill/ack barrier across the
//! replicas before the home reaps the group everywhere.

use popcorn_kernel::mm::Mm;
use popcorn_kernel::program::{Placement, Program, SysResult};
use popcorn_kernel::task::BlockReason;
use popcorn_kernel::types::{GroupId, Tid};
use popcorn_msg::{KernelId, RpcId};
use popcorn_sim::SimTime;

use crate::group::ExitPhase;
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

    /// The exit_group syscall: kill local members, then run (or request)
    /// the group-wide kill barrier at the home.
    pub(super) fn exit_group_syscall(&mut self, ki: usize, group: GroupId, code: i32, at: SimTime) {
        let me = self.kid(ki);
        let home = self.home_of(group);
        let killed = self.kill_local_members(ki, group, code, at);
        if me == home {
            let targets = match self.groups.get_mut(&group) {
                Some(h) => h.begin_exit(code, me),
                None => Vec::new(),
            };
            if targets.is_empty() {
                self.reap_group(group, at);
            } else {
                for t in targets {
                    self.send(at, ki, t, ProtoMsg::GroupKill { group, code });
                }
            }
        } else {
            self.send(
                at,
                ki,
                home,
                ProtoMsg::GroupExitReq {
                    group,
                    code,
                    killed,
                },
            );
        }
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
        let Some(mut h) = self.groups.remove(&group) else {
            return;
        };
        h.mark_reaped();
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
    /// for a new thread). At the home itself the board is updated inline,
    /// and unlike [`KernelCtx::on_member_at`] no straggler joining a dying
    /// group is killed.
    pub(super) fn note_member_at(
        &mut self,
        ki: usize,
        group: GroupId,
        tid: Tid,
        joined: bool,
        at: SimTime,
    ) {
        let me = self.kid(ki);
        let home = self.home_of(group);
        if me != home {
            self.send(at, ki, home, ProtoMsg::MemberAt { group, tid, joined });
        } else if let Some(h) = self.groups.get_mut(&group) {
            if joined {
                h.member_joined(tid, me);
            } else {
                h.member_at(tid, me);
            }
        }
    }

    /// `MemberAt` at the home: record the member's location; stragglers
    /// joining a dying group are killed where they landed.
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
            if h.phase() == ExitPhase::Killing {
                // Straggler joined a dying group: kill it there.
                let code = h.exit_code();
                self.send(now, ki, from, ProtoMsg::GroupKill { group, code });
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
            Some(h) => h.member_exited(tid) == 0 && h.phase() == ExitPhase::Running,
            None => false,
        };
        if finished {
            self.reap_group(group, now);
        }
    }

    /// `GroupExitReq` at the home: a replica called exit_group; start the
    /// kill barrier (the home kills its own members inline).
    pub(super) fn on_group_exit_req(
        &mut self,
        from: KernelId,
        to: KernelId,
        ki: usize,
        group: GroupId,
        code: i32,
        killed: Vec<Tid>,
        now: SimTime,
    ) {
        let targets = match self.groups.get_mut(&group) {
            Some(h) => {
                let t = h.begin_exit(code, from);
                for k in &killed {
                    h.member_exited(*k);
                }
                t
            }
            None => Vec::new(),
        };
        // The home itself is among the replicas: kill locally rather than
        // messaging itself.
        let mut remote_targets = Vec::new();
        let mut home_included = false;
        for t in targets {
            if t == to {
                home_included = true;
            } else {
                remote_targets.push(t);
            }
        }
        if home_included {
            let local_killed = self.kill_local_members(ki, group, code, now);
            if let Some(h) = self.groups.get_mut(&group) {
                h.kill_acked(to, &local_killed);
            }
        }
        if remote_targets.is_empty() {
            self.reap_group(group, now);
        } else {
            for t in remote_targets {
                self.send(now, ki, t, ProtoMsg::GroupKill { group, code });
            }
        }
    }

    /// `GroupKill` at a replica: kill local members and ack with the tids.
    pub(super) fn on_group_kill(
        &mut self,
        from: KernelId,
        ki: usize,
        group: GroupId,
        code: i32,
        now: SimTime,
    ) {
        let killed = self.kill_local_members(ki, group, code, now);
        self.send(now, ki, from, ProtoMsg::GroupKillAck { group, killed });
    }

    /// `GroupKillAck` at the home: the last ack completes the barrier and
    /// reaps the group.
    pub(super) fn on_group_kill_ack(
        &mut self,
        from: KernelId,
        group: GroupId,
        killed: Vec<Tid>,
        now: SimTime,
    ) {
        let complete = match self.groups.get_mut(&group) {
            Some(h) => h.kill_acked(from, &killed),
            None => false,
        };
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
