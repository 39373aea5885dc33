//! Thread migration: context marshalling, shadow tasks, back-migration.
//!
//! A migrating thread is marshalled into a `TaskMigrate` message, leaving
//! a dormant shadow on the origin kernel. The target either revives its
//! own shadow (back-migration, the paper's cheap path) or creates a fresh
//! task. If the message can never be delivered, the origin revives the
//! shadow in place and the migrate syscall fails with `EIO`.

use popcorn_kernel::mm::Mm;
use popcorn_kernel::osmodel;
use popcorn_kernel::policy::PolicyView;
use popcorn_kernel::program::{MigrateTarget, Op, Program, Resume, SysResult};
use popcorn_kernel::task::TaskStats;
use popcorn_kernel::types::{CpuContext, Errno, GroupId, Tid};
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
            self.migrate_out(ki, tid, tk, None, at);
        }
    }

    /// Marshals a thread's context into a `TaskMigrate` message, leaving a
    /// shadow task behind. `resume` is `None` for the scripted syscall
    /// path (the thread resumes with the migrate syscall's result); a
    /// policy-initiated move of a thread that is mid-operation carries its
    /// in-flight resume value here instead.
    pub(super) fn migrate_out(
        &mut self,
        ki: usize,
        tid: Tid,
        target: KernelId,
        resume: Option<Resume>,
        at: SimTime,
    ) {
        let group = self.group_of(ki, tid);
        let (program, ctx, stats, pending) =
            self.kernels[ki].extract_for_migration(tid, target, at);
        // The old core is free once the context is marshalled.
        let marshal = SimTime::from_nanos(self.params.migration_marshal_ns);
        let freed_at = at + marshal;
        let core = self.kernels[ki].task(tid).expect("shadow remains").core;
        self.kick(ki, core, freed_at);
        let msg = self.task_migrate_msg(ki, tid, group, program, ctx, stats, at, resume, pending);
        self.send(freed_at, ki, target, msg);
    }

    /// Builds the `TaskMigrate` message for a thread extracted at kernel
    /// `ki`, carrying the group's whole layout under eager VMA
    /// replication.
    fn task_migrate_msg(
        &self,
        ki: usize,
        tid: Tid,
        group: GroupId,
        program: Box<dyn Program>,
        ctx: CpuContext,
        stats: TaskStats,
        started: SimTime,
        resume: Option<Resume>,
        pending: Option<Op>,
    ) -> ProtoMsg {
        let vmas = if self.params.eager_vma_replication {
            self.kernels[ki].mm(group).vmas()
        } else {
            Vec::new()
        };
        ProtoMsg::TaskMigrate(Box::new(TaskMigrateMsg {
            tid,
            group,
            program,
            ctx,
            stats,
            started,
            vmas,
            resume,
            pending,
        }))
    }

    /// Policy-initiated migration of a thread that is *not* on a core (a
    /// queued ready thread, or one parked on a remote operation whose
    /// completion the caller intercepts). Unlike [`Self::migrate_out`] the
    /// thread never asked to move, so its in-flight resume value and any
    /// parked pending op travel with it. A no-op when the thread cannot be
    /// extracted (already running, exited, or racing another move) — the
    /// policy's decision was advisory. Returns whether the thread moved.
    pub(super) fn policy_migrate_out(
        &mut self,
        ki: usize,
        tid: Tid,
        target: KernelId,
        at: SimTime,
    ) -> bool {
        if target == self.kid(ki) || !self.task_alive(ki, tid) {
            return false;
        }
        let group = self.group_of(ki, tid);
        let Some((program, ctx, stats, resume, pending)) =
            self.kernels[ki].extract_unscheduled_for_migration(tid, target)
        else {
            return false;
        };
        self.stats.policy_migrations.incr();
        self.note_activity(at);
        // Marshalling plus the policy's own evaluation cost; no core to
        // free — the thread was not running.
        let cost =
            SimTime::from_nanos(self.params.migration_marshal_ns + self.params.policy_eval_ns);
        let msg = self.task_migrate_msg(
            ki,
            tid,
            group,
            program,
            ctx,
            stats,
            at,
            Some(resume),
            pending,
        );
        self.send(at + cost, ki, target, msg);
        true
    }

    /// `TaskMigrate` at the target kernel: attach the thread (shadow
    /// revival or fresh creation) and notify the home of its new location.
    pub(super) fn migrate_in(&mut self, ki: usize, m: TaskMigrateMsg, now: SimTime) {
        let TaskMigrateMsg {
            tid,
            group,
            program,
            ctx,
            stats,
            started,
            vmas,
            resume,
            pending,
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
        let resume = resume.unwrap_or(Resume::Sys(SysResult::Val(0)));
        let (core, was_back) = self.kernels[ki]
            .attach_migrated_with(tid, group, program, ctx, stats, resume, pending, now);
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
            program,
            ctx,
            stats,
            resume,
            pending,
            ..
        } = m;
        self.stats.migrations_aborted.incr();
        let shadow_ok = self.kernels[from].has_mm(group)
            && self.kernels[from].task(tid).is_some_and(|t| t.is_shadow());
        if !shadow_ok {
            return; // the group died while the migration was in flight
        }
        // Scripted migrations fail their syscall with `EIO`; a policy move
        // (resume travels in the message) reinstates the thread exactly as
        // extracted — it never asked to migrate, so it must not see an
        // error it has no code to handle.
        let revived = resume.unwrap_or(Resume::Sys(SysResult::Err(Errno::Io)));
        let (core, _back) = self.kernels[from]
            .attach_migrated_with(tid, group, program, ctx, stats, revived, pending, at);
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
