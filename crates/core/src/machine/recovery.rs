//! Kernel-crash failover: detection, orphan re-homing, directory
//! recovery, and epoch fencing.
//!
//! The fabric's fault plan decides *when* a kernel dies
//! ([`popcorn_msg::Crash`]); this module makes the survivors notice and
//! recover. Detection is deterministic: every survivor schedules a
//! `CrashDetect` timer at `crash.at + crash_detect_ns` (the modeled
//! ack-silence window — it must exceed the worst-case retransmit chain, so
//! silence is proof of death rather than congestion). On detection each
//! survivor independently:
//!
//! 1. declares the victim dead, advancing its membership **epoch** —
//!    traffic from a declared-dead kernel is fenced at receive;
//! 2. if it is the **successor** (lowest surviving kernel id), adopts the
//!    groups homed at the victim by rewriting the home on each group's
//!    board (`GroupHome::rehome`) and rebuilds their page
//!    directories from the survivors' page tables;
//! 3. runs per-group recovery for every group it now homes: orphaned
//!    members die with `137` (128+SIGKILL), the exit/unmap barriers stop
//!    waiting for the victim, the directory is reclaimed
//!    ([`crate::directory::Directory::reclaim_dead`]), futex waiters are
//!    swept (survivors wake with `EOWNERDEAD` and revalidate), and
//!    sync-word homes move off the victim;
//! 4. abandons its retransmissions toward the victim and fails over its
//!    pending RPCs aimed at it — resumable ones (idempotent page
//!    requests) restart against the new home, unresumable ones
//!    (VMA ops, clones, futex calls) fail through `fail_pending` with
//!    `EOWNERDEAD`.
//!
//! Because all detection timers for one crash fire at the same instant in
//! kernel order, every survivor sees the same membership and the same
//! successor: recovery is a deterministic function of the fault plan.
//!
//! The victim itself is **frozen**, not deleted: events addressed to a
//! crashed kernel are dropped at the dispatch front door
//! (`PopcornMachine::intercept_crashed`), and messages caught mid-flight
//! are handed back to their (live) sender's undeliverable unwind
//! (`fail_undeliverable`, in the transport module) so one-shot payloads —
//! a migrating thread's context, a page grant — are never silently
//! destroyed. The abandoned retransmissions of step 4 take the same
//! unwind, and both leave request halves (see `is_request`) to RPC
//! failover.
//!
//! Everything here is gated on `scheduled`, which only flips when the run
//! has planned crashes (which make the fault plan, and so the reliability
//! layer, active) — fault-free runs take a single boolean branch and stay
//! byte-identical.

use std::collections::{BTreeMap, BTreeSet};

use popcorn_kernel::osmodel::OsEvent;
use popcorn_kernel::types::{Errno, GroupId, PageNo};
use popcorn_msg::{KernelId, RpcId};
use popcorn_sim::{Scheduler, SimTime};

use crate::directory::{DirReclaim, Directory, PageRequest};
use crate::group::ExitPhase;
use crate::proto::ProtoMsg;

use super::{page::InFlight, KernelCtx, Pending, PopEvent, PopMsg, PopcornMachine};

/// Per-machine crash-recovery state. One instance per [`PopcornMachine`].
#[derive(Debug)]
pub struct RecoveryCtl {
    /// Whether detection timers were scheduled for this run. False means
    /// every recovery code path is dormant (the fault-free fast path).
    pub scheduled: bool,
    /// Per-kernel set of peers this kernel has declared dead.
    pub declared: Vec<BTreeSet<KernelId>>,
    /// Per-kernel membership epoch, advanced on every declaration. Late
    /// messages from a declared-dead kernel belong to a previous epoch and
    /// are fenced at receive.
    pub epochs: Vec<u64>,
    /// Per-kernel destination of each outstanding RPC, so detection can
    /// fail over exactly the conversations aimed at the victim.
    pub rpc_dest: Vec<BTreeMap<RpcId, KernelId>>,
}

/// Counter snapshot delimiting one detection's recovery work (see
/// [`KernelCtx::recovery_work_snapshot`]).
struct RecoveryWork {
    orphans: u64,
    pages: u64,
    futex: u64,
    rpcs: u64,
}

impl RecoveryWork {
    /// Modeled cost, in ns, of the work performed between `before` and
    /// this snapshot, priced by the `recovery_*_ns` knobs.
    fn cost_since(&self, before: &RecoveryWork, p: &crate::params::PopcornParams) -> u64 {
        (self.orphans - before.orphans) * p.recovery_task_kill_ns
            + (self.pages - before.pages) * p.recovery_page_scan_ns
            + (self.futex - before.futex) * p.recovery_futex_sweep_ns
            + (self.rpcs - before.rpcs) * p.recovery_rpc_failover_ns
    }
}

impl RecoveryCtl {
    /// Dormant recovery state for `n` kernels.
    pub fn new(n: usize) -> Self {
        RecoveryCtl {
            scheduled: false,
            declared: vec![BTreeSet::new(); n],
            epochs: vec![0; n],
            rpc_dest: vec![BTreeMap::new(); n],
        }
    }
}

impl PopcornMachine {
    /// The detection timers for every planned crash, as ready-made
    /// self-addressed deliveries for the harness to schedule (the
    /// crash-recovery twin of `policy_tick_starts`). Flips `scheduled`;
    /// returns nothing on later calls or without planned crashes — the
    /// fault-free configuration never allocates a single event here.
    pub fn crash_detect_starts(&mut self) -> Vec<(SimTime, PopMsg)> {
        if self.recovery.scheduled {
            return Vec::new();
        }
        let crashes = self.net.fabric().planned_crashes().to_vec();
        if crashes.is_empty() {
            return Vec::new();
        }
        self.recovery.scheduled = true;
        let window = SimTime::from_nanos(self.params.crash_detect_ns);
        let mut out = Vec::new();
        for c in &crashes {
            let at = c.at + window;
            // Observers in kernel order, so the successor (lowest surviving
            // id) always runs its detection first at equal timestamps.
            for ki in 0..self.kernels.len() {
                let kid = KernelId(ki as u16);
                if self.net.fabric().is_crashed(kid, at) {
                    continue; // the dead don't sit on juries
                }
                let detect = ProtoMsg::CrashDetect { victim: c.kernel };
                out.push((at, PopMsg::local(kid, at, detect)));
            }
        }
        out
    }

    /// The dispatch front door under planned crashes: freezes every event
    /// addressed to a crashed kernel. Returns the event back when it
    /// should dispatch normally, `None` when it was consumed.
    ///
    /// The fabric judges faults at *send* time, so a message sent just
    /// before the crash can still be delivered just after it — to a kernel
    /// that no longer runs. Such deliveries are counted as fenced and, when
    /// their sender is alive, handed back to its undeliverable unwind
    /// (`fail_undeliverable`): one-shot payloads (a migrating thread, a
    /// page grant, an unmap ack barrier) must be unwound exactly once, not
    /// silently destroyed. Request halves of conversations are the
    /// exception: detection-time RPC failover, which knows the new home,
    /// owns them. A duplicate's ghost has no payload, so it is only
    /// counted.
    pub(crate) fn intercept_crashed(
        &mut self,
        now: SimTime,
        event: PopEvent,
        sched: &mut Scheduler<'_, PopEvent>,
    ) -> Option<PopEvent> {
        if !self.recovery.scheduled {
            return Some(event);
        }
        let dest = match &event {
            OsEvent::CoreRun { kernel, .. } | OsEvent::TimerWake { kernel, .. } => *kernel,
            OsEvent::Custom(d) => d.to.0,
        };
        if !self.net.fabric().is_crashed(KernelId(dest), now) {
            return Some(event);
        }
        if let OsEvent::Custom(d) = event {
            if d.from != d.to {
                self.stats.fenced_msgs.incr();
                if !self.net.fabric().is_crashed(d.from, now) && !is_request(&d.payload) {
                    let mut ctx = self.ctx(sched);
                    let from = ctx.ki(d.from);
                    ctx.fail_undeliverable(from, d.to, d.payload, now);
                }
            }
        }
        None
    }
}

impl KernelCtx<'_, '_> {
    /// Re-sends a home-addressed notification (see
    /// `home_notification_group`) from kernel `from_ki` to its group's
    /// current home; anything else is dropped. A reaped group has no home
    /// left to notify: `home_of` would fall back to the id-derived kernel,
    /// which can be the dead destination itself, and the chain of
    /// abandoning and re-sending would never end.
    pub(super) fn resend_to_home(&mut self, from_ki: usize, msg: ProtoMsg, at: SimTime) {
        let Some(g) = home_notification_group(&msg) else {
            return;
        };
        if self.groups.contains_key(&g) {
            let home = self.home_of(g);
            self.send(at, from_ki, home, msg);
        }
    }

    /// A `CrashDetect` timer at kernel `ki`: declare `victim` dead and run
    /// recovery (see the module docs for the full sequence).
    pub(super) fn on_crash_detect(&mut self, ki: usize, victim: KernelId, now: SimTime) {
        let me = self.kid(ki);
        if me == victim || self.recovery.declared[ki].contains(&victim) {
            return;
        }
        self.note_activity(now);
        self.recovery.declared[ki].insert(victim);
        self.recovery.epochs[ki] += 1;
        self.stats.kernels_declared_dead.incr();
        // The deterministic successor: the lowest kernel id still alive at
        // this instant (the detector's membership view; every survivor
        // evaluates the same fault plan, so they all agree).
        let successor = (0..self.kernels.len())
            .map(|i| KernelId(i as u16))
            .find(|&k| !self.net.fabric().is_crashed(k, now))
            .expect("a surviving kernel runs this handler");
        let adopted: Vec<GroupId> = if me == successor {
            self.groups
                .keys()
                .copied()
                .filter(|&g| self.home_of(g) == victim)
                .collect()
        } else {
            Vec::new()
        };
        // The successor reports crash-to-recovery-complete latency: the
        // detection window plus the modeled cost of the work below. The
        // counters it increments are snapshotted here and diffed after
        // failover so the charge follows what actually happened (a home
        // death that forces a directory rebuild costs more than sweeping
        // two futex waiters). Accounting only — no events are scheduled,
        // so virtual time is untouched.
        let crash_at = if me == successor {
            self.net
                .fabric()
                .planned_crashes()
                .iter()
                .find(|c| c.kernel == victim)
                .map(|c| c.at)
        } else {
            None
        };
        let work_before = crash_at.map(|_| self.recovery_work_snapshot());
        for g in &adopted {
            self.groups.get_mut(g).expect("listed above").rehome(me);
        }
        // A dead socket lead stops receiving delegations machine-wide:
        // first touches from its socket fall back to the root home.
        if self.sharding.enabled {
            self.sharding.remove_lead(victim);
        }
        // Recover every group this kernel is (now) responsible for.
        let mine: Vec<GroupId> = self
            .groups
            .keys()
            .copied()
            .filter(|&g| self.home_of(g) == me)
            .collect();
        for g in mine {
            self.recover_group(ki, g, victim, adopted.contains(&g), now);
        }
        // Retransmissions toward the victim will never be acknowledged.
        let orphaned_sends = self.net.abandon_to(me, victim);
        for payload in orphaned_sends {
            self.stats.msgs_abandoned.incr();
            // Request halves of conversations: the RPC failover below
            // re-drives (pages) or errors (the rest) them with full
            // knowledge of the new home — don't EIO them here.
            if is_request(&payload) {
                continue;
            }
            // A home-addressed notification whose group this kernel adopted
            // is re-delivered here, arriving (and counted) like any other
            // message; everything else takes the undeliverable unwind,
            // which re-sends notifications to the group's current home.
            match home_notification_group(&payload) {
                Some(g) if self.home_of(g) == me => self.dispatch(me, me, ki, payload, now),
                _ => self.fail_undeliverable(ki, victim, payload, now),
            }
        }
        self.failover_rpcs(ki, victim, now);
        if let (Some(at), Some(before)) = (crash_at, work_before) {
            let work = SimTime::from_nanos(
                self.recovery_work_snapshot()
                    .cost_since(&before, self.params),
            );
            self.stats
                .recovery_latency
                .record_time(now.saturating_sub(at) + work);
        }
    }

    /// Snapshot of the counters recovery work increments, taken before and
    /// after a detection so the successor can charge the modeled cost of
    /// exactly the work it performed.
    fn recovery_work_snapshot(&self) -> RecoveryWork {
        RecoveryWork {
            orphans: self.stats.orphans_killed.get(),
            pages: self.stats.recovery_pages_scanned.get(),
            futex: self.stats.futex_recovered.get(),
            rpcs: self.stats.rpcs_failed_over.get(),
        }
    }

    /// Per-group recovery at the group's (possibly just-adopted) home.
    /// `rebuild` is set when the victim *was* the home, so its directory
    /// died with it and must be reconstructed from survivor page tables.
    fn recover_group(
        &mut self,
        ki: usize,
        group: GroupId,
        victim: KernelId,
        rebuild: bool,
        now: SimTime,
    ) {
        let me = self.kid(ki);
        let vki = self.ki(victim);
        if !self.groups.contains_key(&group) {
            return;
        }
        // Orphaned members die with their kernel (137 = 128+SIGKILL); no
        // core kick — the victim is frozen. The victim's own task table is
        // the authoritative resident list (the home's member map can be
        // stale if a `MemberAt` was itself lost to the crash); map entries
        // pointing at the victim with no backing task are bookkeeping
        // ghosts and exit without a kill.
        let resident = self.kernels[vki].group_members(group);
        for &tid in &resident {
            let _ = self.kernels[vki].kill_task(tid, 137, now);
            self.stats.orphans_killed.incr();
            if let Some(h) = self.groups.get_mut(&group) {
                h.member_exited(tid);
            }
        }
        let ghosts: Vec<_> = self
            .groups
            .get(&group)
            .map(|h| h.members_at(victim))
            .unwrap_or_default()
            .into_iter()
            .filter(|t| !resident.contains(t))
            .collect();
        for tid in ghosts {
            self.stats.orphans_killed.incr();
            if let Some(h) = self.groups.get_mut(&group) {
                h.member_exited(tid);
            }
        }
        // A kill barrier waiting on the victim's ack completes without it.
        let barrier_done = self
            .groups
            .get_mut(&group)
            .is_some_and(|h| h.phase() == ExitPhase::Killing && h.kill_acked(victim, &[]));
        if barrier_done {
            self.reap_group(group, now);
            return;
        }
        // Unmap barriers likewise: a dead replica's mappings died with it.
        let released = self
            .groups
            .get_mut(&group)
            .map(|h| h.fail_unmap_acker(victim))
            .unwrap_or_default();
        for (rpc, origin) in released {
            self.finish_vma_op(group, rpc, origin, Ok(0), now);
        }
        if let Some(h) = self.groups.get_mut(&group) {
            h.remove_replica(victim);
            // Any page-table replica died with the kernel holding it.
            if self.params.page_table_replication {
                h.remove_pt_holder(victim);
            }
        }
        // Shard recovery first (hierarchical home sharding): a dead
        // delegate's pages are un-delegated and rebuilt into the root
        // directory; surviving shards reclaim the victim's holdings.
        if self.sharding.enabled {
            self.recover_shards(ki, group, victim, now);
        }
        // Directory recovery.
        if rebuild {
            // The home died with its directory: reconstruct ownership from
            // the survivors' page tables. Pages tracked before but held by
            // no survivor are lost. Pages delegated to a surviving shard
            // are that shard's to serve — they are excluded from the
            // rebuild so the root never double-tracks them.
            let (old_pages, delegated) = self
                .groups
                .get(&group)
                .map(|h| (h.dir.pages(), h.shard_map.clone()))
                .unwrap_or_default();
            let dir = self.rebuild_from_survivors(group, now, |p| !delegated.contains_key(&p));
            for p in old_pages {
                if dir.view(p).is_none() {
                    self.lose_page(group, p);
                }
            }
            if let Some(h) = self.groups.get_mut(&group) {
                h.dir = dir;
            }
            // Page-table replicas survive the home's death, but their
            // shadows can run ahead of the rebuilt directory (a pre-crash
            // push may carry a version higher than any survivor's table).
            // Re-seed every surviving holder from the rebuilt directory by
            // overwrite — deliberately not monotonic — and install the
            // successor, the new authority, as a holder.
            if self.params.page_table_replication {
                let mut reseeded = 0u64;
                if let Some(h) = self.groups.get_mut(&group) {
                    h.add_pt_holder(me);
                    let pages: Vec<(PageNo, u64)> = h
                        .dir
                        .pages()
                        .into_iter()
                        .map(|p| (p, h.dir.view(p).expect("listed above").version))
                        .collect();
                    for k in h.pt_holders() {
                        if k == me {
                            continue;
                        }
                        h.reseed_pt(k, &pages);
                        reseeded += pages.len() as u64;
                    }
                }
                self.stats.recovery_pages_scanned.add(reseeded);
            }
        } else {
            let scanned = self
                .groups
                .get(&group)
                .map(|h| h.dir.pages().len())
                .unwrap_or(0);
            self.stats.recovery_pages_scanned.add(scanned as u64);
            let reclaim = self
                .groups
                .get_mut(&group)
                .map(|h| h.dir.reclaim_dead(victim))
                .unwrap_or_default();
            self.apply_reclaim(group, me, reclaim, now);
        }
        // Futex sweep: waiters that died with the victim are already
        // counted as orphans; survivors wake with EOWNERDEAD and revalidate
        // their word (robust-futex semantics).
        for w in self.futex.sweep_group(group) {
            if w.kernel == victim {
                continue;
            }
            self.stats.futex_recovered.incr();
            self.post(
                now,
                ki,
                w.kernel,
                ProtoMsg::FutexWakeErr { group, tid: w.tid },
            );
        }
        // Sync words first-touch-homed at the victim move to this kernel.
        if let Some(h) = self.groups.get_mut(&group) {
            for k in h.sync_home.values_mut().filter(|k| **k == victim) {
                *k = me;
            }
        }
        // The crash may have taken the group's last member with it.
        let finished = self
            .groups
            .get(&group)
            .is_some_and(|h| h.live_members() == 0 && h.phase() == ExitPhase::Running);
        if finished {
            self.reap_group(group, now);
        }
    }

    /// Hierarchical-home shard recovery for one group. Three concerns:
    /// the victim's own shard died with it (un-delegate its pages and
    /// rebuild their entries into the root directory from survivor page
    /// tables); surviving shards reclaim pages the victim owned or was
    /// mid-conversation on; and a delegation the recovering kernel itself
    /// inherited (by adopting the victim's home role) is folded back into
    /// the root directory as its entries quiesce.
    fn recover_shards(&mut self, ki: usize, group: GroupId, victim: KernelId, now: SimTime) {
        let me = self.kid(ki);
        // (a) The dead delegate's shard: un-delegate and reconstruct.
        let dead_pages = self
            .groups
            .get_mut(&group)
            .and_then(|h| h.remove_shard(victim));
        if let Some(pages) = dead_pages {
            let mut rebuilt = self.rebuild_from_survivors(group, now, |p| pages.contains(&p));
            for p in pages {
                match rebuilt.extract(p) {
                    Some(e) => self
                        .groups
                        .get_mut(&group)
                        .expect("present")
                        .dir
                        .adopt(p, e),
                    None => self.lose_page(group, p),
                }
            }
        }
        // (b) Surviving shards reclaim the victim's holdings, exactly like
        // the root directory's reclaim pass below.
        let delegates: Vec<KernelId> = self
            .groups
            .get(&group)
            .map(|h| h.shard_delegates())
            .unwrap_or_default();
        for d in delegates {
            let reclaim = self
                .groups
                .get_mut(&group)
                .map(|h| h.shard_dir(d).reclaim_dead(victim))
                .unwrap_or_default();
            self.apply_reclaim(group, d, reclaim, now);
        }
        // (c) Delegations now pointing at the root itself (inherited with
        // the victim's home role): fold back as their entries quiesce.
        let inherited = self.groups.get_mut(&group).map_or_else(Vec::new, |h| {
            let pages: Vec<PageNo> = h
                .shard_map
                .iter()
                .filter(|&(_, &d)| d == me)
                .map(|(&p, _)| p)
                .collect();
            h.escalate.extend(&pages);
            pages
        });
        for p in inherited {
            self.try_escalate(group, p);
        }
    }

    /// Reconstructs a directory for `group`'s pages that satisfy `keep`
    /// from the surviving kernels' page tables, counting every page
    /// scanned.
    fn rebuild_from_survivors(
        &mut self,
        group: GroupId,
        now: SimTime,
        keep: impl Fn(PageNo) -> bool,
    ) -> Directory {
        let mut scans = Vec::new();
        for (i, k) in self.kernels.iter().enumerate() {
            let kid = KernelId(i as u16);
            if self.net.fabric().is_crashed(kid, now) || !k.has_mm(group) {
                continue;
            }
            let scan: Vec<_> = k
                .mm(group)
                .pages_sorted()
                .into_iter()
                .filter(|&(p, _)| keep(p))
                .collect();
            self.stats.recovery_pages_scanned.add(scan.len() as u64);
            scans.push((kid, scan));
        }
        Directory::rebuild(&scans)
    }

    /// Acts on a dead kernel's reclaim from the directory served at
    /// `serving` (the home's root directory, or a delegate's shard):
    /// counts the promotions, marks the lost pages, and delivers the
    /// grants, redone requests and nacks it produced.
    fn apply_reclaim(
        &mut self,
        group: GroupId,
        serving: KernelId,
        reclaim: DirReclaim,
        now: SimTime,
    ) {
        self.stats.pages_promoted.add(reclaim.promoted);
        for p in reclaim.lost {
            self.lose_page(group, p);
        }
        for g in reclaim.grants {
            self.deliver_grant(group, serving, g, now);
        }
        for (page, req) in reclaim.redo {
            self.home_page_request(serving, group, page, req, now);
        }
        for (page, req) in reclaim.nacks {
            self.nack_page(group, page, req, now);
        }
    }

    /// Records that `page`'s only copy died with a crashed kernel.
    fn lose_page(&mut self, group: GroupId, page: PageNo) {
        if let Some(h) = self.groups.get_mut(&group) {
            h.mark_lost(page);
        }
        self.stats.pages_lost.incr();
    }

    /// Fails over kernel `ki`'s outstanding RPCs whose destination was the
    /// victim. Page requests are idempotent and restart against the new
    /// home; everything else (VMA ops, clones, futex calls) completes with
    /// `EOWNERDEAD` — the server-side state died with the victim, so a
    /// blind retry could apply a non-idempotent operation twice.
    fn failover_rpcs(&mut self, ki: usize, victim: KernelId, now: SimTime) {
        let me = self.kid(ki);
        let doomed: Vec<RpcId> = self.recovery.rpc_dest[ki]
            .iter()
            .filter(|&(_, &d)| d == victim)
            .map(|(&r, _)| r)
            .collect();
        for rpc in doomed {
            let Some(pending) = self.complete_rpc(ki, rpc) else {
                self.recovery.rpc_dest[ki].remove(&rpc);
                continue;
            };
            self.stats.rpcs_failed_over.incr();
            let Pending::Page(w) = pending else {
                self.fail_pending(ki, rpc, pending, Errno::OwnerDead, now);
                continue;
            };
            self.clear_inflight(ki, w.group, w.page, rpc);
            let (group, page, write) = (w.group, w.page, w.write);
            let home = self.page_home(group, page);
            let new_rpc = self.register_rpc(ki, Pending::Page(w), now, home);
            self.inflight[ki].insert(
                (group, page),
                InFlight {
                    rpc: new_rpc,
                    write,
                },
            );
            self.post(
                now,
                ki,
                home,
                ProtoMsg::PageReq {
                    rpc: new_rpc,
                    origin: me,
                    group,
                    page,
                    write,
                },
            );
        }
    }

    /// Fails a page request for a page whose only copy died with a crashed
    /// kernel: an explicit negative reply instead of a silent zero-fill
    /// resurrection of lost data.
    pub(super) fn nack_page(
        &mut self,
        group: GroupId,
        page: PageNo,
        req: PageRequest,
        at: SimTime,
    ) {
        let home_ki = self.ki(self.home_of(group));
        self.post(
            at,
            home_ki,
            req.origin,
            ProtoMsg::PageNack {
                rpc: req.rpc,
                group,
                page,
            },
        );
    }

    /// `PageNack` at the requester: the faulting threads die with the exit
    /// a real kernel delivers when backing memory is gone for good (135 =
    /// 128+SIGBUS).
    pub(super) fn on_page_nack(&mut self, ki: usize, rpc: RpcId, now: SimTime) {
        if let Some(pending @ Pending::Page(_)) = self.complete_rpc(ki, rpc) {
            self.fail_pending(ki, rpc, pending, Errno::Io, now);
        }
    }
}

/// The group of a one-way, home-addressed notification — the messages a
/// successor must accept on the dead home's behalf, and that the sender
/// must re-drive if the transport gives up on them: each one carries a
/// state transition (an exit, an arrival, a barrier ack) that the home
/// must eventually observe or its bookkeeping lies forever. Requests and
/// responses (rpc-correlated) are deliberately excluded: failover and the
/// requester's deadline own those.
fn home_notification_group(msg: &ProtoMsg) -> Option<GroupId> {
    match msg {
        ProtoMsg::TaskExited { group, .. }
        | ProtoMsg::MemberAt { group, .. }
        | ProtoMsg::GroupExitReq { group, .. }
        | ProtoMsg::GroupKillAck { group, .. }
        | ProtoMsg::PageDone { group, .. }
        | ProtoMsg::VmaUpdateAck { group, .. } => Some(*group),
        _ => None,
    }
}

/// Whether `msg` is the request half of an RPC. Its sender's pending
/// state is what fails, and a crash leaves that to RPC failover rather
/// than to the unwind of the payload.
pub(super) fn is_request(msg: &ProtoMsg) -> bool {
    matches!(
        msg,
        ProtoMsg::CloneReq { .. }
            | ProtoMsg::VmaOpReq { .. }
            | ProtoMsg::VmaFetchReq { .. }
            | ProtoMsg::PageReq { .. }
            | ProtoMsg::FutexReq { .. }
            | ProtoMsg::RmwReq { .. }
    )
}
