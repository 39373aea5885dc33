//! Thread migration: context marshalling, shadow tasks, back-migration.
//!
//! Every move between kernels — the `migrate` syscall, a policy's balance,
//! steal or co-placement move, a wake chase — goes out through the one
//! `migrate_out`: the thread is marshalled into a `TaskMigrate` message,
//! leaving a dormant shadow on the origin kernel. The target either
//! revives its own shadow (back-migration, the paper's cheap path) or
//! creates a fresh task. If the message can never be delivered, the
//! origin revives the shadow in place: a scripted migrate syscall fails
//! with `EIO`, a policy move resumes as it was.

use popcorn_kernel::kernel::Departure;
use popcorn_kernel::mm::Mm;
use popcorn_kernel::osmodel;
use popcorn_kernel::policy::PolicyView;
use popcorn_kernel::program::{MigrateTarget, Resume, SysResult};
use popcorn_kernel::types::{Errno, Tid};
use popcorn_msg::KernelId;
use popcorn_sim::SimTime;

use crate::proto::{ProtoMsg, TaskMigrateMsg};

use super::{CoreId, KernelCtx};

impl KernelCtx<'_, '_> {
    /// The migrate syscall: no-op or core reassignment when the target is
    /// this kernel, otherwise marshal the thread out.
    pub(super) fn migrate_syscall(
        &mut self,
        ki: usize,
        core: CoreId,
        tid: Tid,
        target: MigrateTarget,
        at: SimTime,
    ) {
        let me = self.kid(ki);
        let (requested, core_hint) = self.resolve_target(target);
        // An active policy may veto the scripted destination (FaultAware
        // steers away from crashed or unreachable kernels). Core-pinned
        // targets are explicit affinity and are never overridden.
        let (tk, at) = if core_hint.is_none() && self.policy_active() {
            let at = at + SimTime::from_nanos(self.params.policy_eval_ns);
            let loads = self.policy_view(ki, at);
            let view = PolicyView {
                me,
                now: at,
                loads: &loads,
            };
            let chosen = self.policy.redirect(&view, requested);
            if chosen != requested {
                self.stats.policy_redirects.incr();
            }
            (chosen, at)
        } else {
            (requested, at)
        };
        if tk == me {
            match core_hint {
                Some(c) if c != core => {
                    // Intra-kernel core move (sched_setaffinity).
                    let (freed, target, resume_at) = self.kernels[ki].move_to_core(tid, c, at);
                    self.kick(ki, freed, at);
                    self.kick(ki, target, resume_at);
                }
                _ => {
                    self.kernels[ki].finish_syscall(tid, SysResult::Val(0), at);
                    self.kick(ki, core, at);
                }
            }
        } else {
            self.migrate_out(ki, tid, tk, false, at);
        }
    }

    /// Moves thread `tid` from kernel `ki` to `target`: extracts it,
    /// leaving a dormant shadow behind, and sends its context in a
    /// `TaskMigrate` message stamped `started = at`. The message leaves
    /// once the context is marshalled — after the policy's own evaluation
    /// too for a policy move — and a core the thread was current on is
    /// kicked then.
    ///
    /// A scripted move (`by_policy == false`: the thread called `migrate`)
    /// resumes with the syscall's result at the destination. A policy move
    /// (balance, steal, co-placement or wake chase) shifts a thread that
    /// never asked to move, so its own resume value and parked op travel
    /// with it. A no-op returning `false` when the thread cannot leave
    /// from its state (see `Kernel::extract_for_migration`) — a policy's
    /// decision is advisory. Callers rule out `target` being this kernel.
    pub(super) fn migrate_out(
        &mut self,
        ki: usize,
        tid: Tid,
        target: KernelId,
        by_policy: bool,
        at: SimTime,
    ) -> bool {
        let Some(Departure { thread, freed }) =
            self.kernels[ki].extract_for_migration(tid, target, at)
        else {
            return false;
        };
        let group = self.group_of(ki, tid);
        let mut cost = self.params.migration_marshal_ns;
        if by_policy {
            cost += self.params.policy_eval_ns;
        }
        let send_at = at + SimTime::from_nanos(cost);
        if let Some(core) = freed {
            self.kick(ki, core, send_at);
        }
        self.note_activity(at);
        let vmas = if self.params.eager_vma_replication {
            self.kernels[ki].mm(group).vmas()
        } else {
            Vec::new()
        };
        let msg = ProtoMsg::TaskMigrate(Box::new(TaskMigrateMsg {
            tid,
            group,
            thread,
            started: at,
            vmas,
            scripted: !by_policy,
        }));
        self.send(send_at, ki, target, msg);
        true
    }

    /// `TaskMigrate` at the target kernel: attach the thread (shadow
    /// revival or fresh creation) and notify the home of its new location.
    pub(super) fn migrate_in(&mut self, ki: usize, m: TaskMigrateMsg, now: SimTime) {
        let TaskMigrateMsg {
            tid,
            group,
            mut thread,
            started,
            vmas,
            scripted,
        } = m;
        // An exiting group kills arrivals on contact.
        let home = self.home_of(group);
        let group_dead = self.kid(ki) == home && !self.groups.contains_key(&group);
        if group_dead {
            return;
        }
        if !self.kernels[ki].has_mm(group) {
            self.kernels[ki].adopt_mm(Mm::new(group));
        }
        for vma in vmas {
            self.kernels[ki].mm_mut(group).install_vma(vma);
        }
        if scripted {
            thread.resume = Resume::Sys(SysResult::Val(0));
        }
        let (core, was_back) = self.kernels[ki].attach_migrated(tid, group, thread, now);
        let attach = if was_back && self.params.shadow_task_reuse {
            SimTime::from_nanos(self.params.migration_revive_ns)
        } else {
            SimTime::from_nanos(
                self.kernels[ki].params().clone_base_ns + self.params.migration_create_extra_ns,
            )
        };
        let ready = now + attach;
        self.kick(ki, core, ready);
        let lat = ready.saturating_sub(started);
        if was_back {
            self.stats.migrations_back.incr();
            self.stats.migration_back_lat.record_time(lat);
        } else {
            self.stats.migrations_first.incr();
            self.stats.migration_first_lat.record_time(lat);
        }
        // Tell the home where the thread lives now.
        self.note_member_at(ki, group, tid, false, now);
    }

    /// An abandoned `TaskMigrate` (every transmission lost): revive the
    /// shadow in place; the thread resumes on its origin kernel with its
    /// migrate syscall returning `EIO`.
    pub(super) fn abort_migration(&mut self, from: usize, m: TaskMigrateMsg, at: SimTime) {
        let TaskMigrateMsg {
            tid,
            group,
            mut thread,
            scripted,
            ..
        } = m;
        self.stats.migrations_aborted.incr();
        let shadow_ok = self.kernels[from].has_mm(group)
            && self.kernels[from].task(tid).is_some_and(|t| t.is_shadow());
        if !shadow_ok {
            return; // the group died while the migration was in flight
        }
        // Scripted migrations fail their syscall with `EIO`; a policy move
        // reinstates the thread exactly as extracted — it never asked to
        // migrate, so it must not see an error it has no code to handle.
        if scripted {
            thread.resume = Resume::Sys(SysResult::Err(Errno::Io));
        }
        let (core, _back) = self.kernels[from].attach_migrated(tid, group, thread, at);
        let ready = at + SimTime::from_nanos(self.params.migration_revive_ns);
        self.kick(from, core, ready);
    }

    /// Resolves a migrate target to a kernel (and optional core).
    pub(super) fn resolve_target(&self, target: MigrateTarget) -> (KernelId, Option<CoreId>) {
        match target {
            MigrateTarget::Kernel(k) => (k, None),
            MigrateTarget::Core(c) => {
                let ki = osmodel::kernel_of_core(self.kernels, c);
                (self.kid(ki), Some(c))
            }
        }
    }

    /// Auto placement spreads threads round-robin across kernels — the
    /// even pinning the paper's experiments use. (Load-based placement is
    /// misleading here: a thread that blocks on its first remote fault
    /// stops counting as load, which herds every later spawn onto the
    /// same kernel.)
    pub(super) fn least_loaded_kernel(&mut self) -> usize {
        let i = *self.auto_cursor % self.kernels.len();
        *self.auto_cursor += 1;
        i
    }
}
