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
//!    groups homed at the victim (`home_override`) and rebuilds their page
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
//!    (VMA ops, clones, futex calls) complete with `EOWNERDEAD`.
//!
//! Because all detection timers for one crash fire at the same instant in
//! kernel order, every survivor sees the same membership and the same
//! successor: recovery is a deterministic function of the fault plan.
//!
//! The victim itself is **frozen**, not deleted: events addressed to a
//! crashed kernel are dropped at the dispatch front door
//! (`PopcornMachine::intercept_crashed`), and messages caught mid-flight
//! are bounced back to their (live) sender's unwind path so one-shot
//! payloads — a migrating thread's context, a page grant — are never
//! silently destroyed.
//!
//! Everything here is gated on `scheduled`, which only flips when the run
//! has planned crashes and the reliability layer is active — fault-free
//! runs take a single boolean branch and stay byte-identical.

use std::collections::{BTreeMap, BTreeSet};

use popcorn_kernel::osmodel::OsEvent;
use popcorn_kernel::program::SysResult;
use popcorn_kernel::types::{Errno, GroupId, PageNo};
use popcorn_msg::{Delivery, KernelId, RpcId};
use popcorn_sim::{Scheduler, SimTime};

use crate::directory::{Directory, PageRequest};
use crate::group::ExitPhase;
use crate::proto::ProtoMsg;

use super::{
    futex::FutexPending, group::CloneWait, page::InFlight, vma::VmaPending, KernelCtx, Pending,
    PopEvent, PopMsg, PopcornMachine,
};

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
    /// Groups re-homed away from their (dead) origin kernel, and the
    /// successor now serving them.
    pub home_override: BTreeMap<GroupId, KernelId>,
    /// Pages whose only copy died with a crashed kernel: faults on these
    /// fail with an explicit error instead of resurrecting a zero page.
    pub lost_pages: BTreeSet<(GroupId, PageNo)>,
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
            home_override: BTreeMap::new(),
            lost_pages: BTreeSet::new(),
            rpc_dest: vec![BTreeMap::new(); n],
        }
    }
}

impl PopcornMachine {
    /// The detection timers for every planned crash, as ready-made
    /// self-addressed deliveries for the harness to schedule (the
    /// crash-recovery twin of `policy_tick_starts`). Flips `scheduled`;
    /// returns nothing on later calls, without planned crashes, or when
    /// reliable delivery is off — the fault-free configuration never
    /// allocates a single event here.
    pub fn crash_detect_starts(&mut self) -> Vec<(SimTime, PopMsg)> {
        if self.recovery.scheduled || !self.net.is_reliable() {
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
                out.push((
                    at,
                    Delivery {
                        from: kid,
                        to: kid,
                        deliver_at: at,
                        send_busy: SimTime::ZERO,
                        payload: ProtoMsg::CrashDetect { victim: c.kernel },
                    },
                ));
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
    /// their sender is alive, bounced into its undeliverable-unwind path:
    /// one-shot payloads (a migrating thread, a page grant, an unmap ack
    /// barrier) must be unwound exactly once, not silently destroyed.
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
                if !self.net.fabric().is_crashed(d.from, now) {
                    let payload = match d.payload {
                        ProtoMsg::Seq { inner, .. } => *inner,
                        p => p,
                    };
                    let (from, to) = (d.from, d.to);
                    self.ctx(sched).bounce_frozen(from, to, payload, now);
                }
            }
        }
        None
    }
}

impl KernelCtx<'_, '_> {
    /// Sender-side unwind for a message frozen at a crashed kernel's door
    /// (see [`PopcornMachine::intercept_crashed`]). Only one-shot payloads
    /// are unwound here; request/response conversations are deliberately
    /// left to detection-time RPC failover, which knows the new home.
    pub(super) fn bounce_frozen(
        &mut self,
        from: KernelId,
        to: KernelId,
        payload: ProtoMsg,
        now: SimTime,
    ) {
        let from_ki = self.ki(from);
        match payload {
            // The only copy of a thread's context: revive the shadow.
            ProtoMsg::TaskMigrate(m) => self.abort_migration(from_ki, *m, now),
            // A grant the requester will never confirm: release the entry
            // at the kernel that issued it.
            ProtoMsg::PageGrant { group, page, .. } => {
                self.page_done_at_home(group, page, from, now);
            }
            // An unmap barrier update: the dead replica's mappings died
            // with it — morally an ack.
            ProtoMsg::VmaUpdate {
                group,
                ack: Some(token),
                ..
            } => {
                if let Some(h) = self.groups.get_mut(&group) {
                    if let Some((rpc, origin)) = h.unmap_acked(token, to) {
                        self.finish_vma_op(group, rpc, origin, Ok(0), now);
                    }
                }
            }
            // A home-addressed notification caught in flight when its home
            // died: the state transition it carries must still reach
            // whoever serves the group now (or re-chain until detection
            // moves the home).
            payload => {
                if let Some(g) = home_notification_group(&payload) {
                    let home = self.home_of(g);
                    self.send(now, from_ki, home, payload);
                }
            }
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
        for &g in &adopted {
            self.recovery.home_override.insert(g, me);
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
            match payload {
                // Request halves of conversations: the RPC failover below
                // re-drives (pages) or errors (the rest) them with full
                // knowledge of the new home — don't EIO them here.
                ProtoMsg::CloneReq { .. }
                | ProtoMsg::VmaOpReq { .. }
                | ProtoMsg::VmaFetchReq { .. }
                | ProtoMsg::PageReq { .. }
                | ProtoMsg::FutexReq { .. }
                | ProtoMsg::RmwReq { .. } => {}
                payload => {
                    // Home-addressed notifications outlive their dead home:
                    // deliver to the successor that adopted the group.
                    if let Some(g) = home_notification_group(&payload) {
                        let new_home = self.home_of(g);
                        if new_home != victim {
                            if new_home == me {
                                self.dispatch(me, me, ki, payload, now);
                            } else {
                                self.send(now, ki, new_home, payload);
                            }
                            continue;
                        }
                    }
                    self.fail_undeliverable(ki, victim, payload, now);
                }
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
            let old_pages = self
                .groups
                .get(&group)
                .map(|h| h.dir.pages())
                .unwrap_or_default();
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
                    .filter(|&(p, _)| !self.sharding.map.contains_key(&(group, p)))
                    .collect();
                scans.push((kid, scan));
            }
            for (_, scan) in &scans {
                self.stats.recovery_pages_scanned.add(scan.len() as u64);
            }
            let dir = Directory::rebuild(&scans);
            for p in old_pages {
                if dir.view(p).is_none() {
                    self.recovery.lost_pages.insert((group, p));
                    self.stats.pages_lost.incr();
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
            self.stats.pages_promoted.add(reclaim.promoted);
            for &p in &reclaim.lost {
                self.recovery.lost_pages.insert((group, p));
                self.stats.pages_lost.incr();
            }
            for g in reclaim.grants {
                self.deliver_grant(group, me, g, now);
            }
            for (page, req) in reclaim.redo {
                self.home_page_request(me, group, page, req, now);
            }
            for (page, req) in reclaim.nacks {
                self.nack_page(group, page, req, now);
            }
        }
        // Futex sweep: waiters that died with the victim are already
        // counted as orphans; survivors wake with EOWNERDEAD and revalidate
        // their word (robust-futex semantics).
        for w in self.futex.sweep_group(group) {
            if w.kernel == victim {
                continue;
            }
            self.stats.futex_recovered.incr();
            if w.kernel == me {
                self.wake_with(ki, w.tid, SysResult::Err(Errno::OwnerDead), now);
            } else {
                self.send(
                    now,
                    ki,
                    w.kernel,
                    ProtoMsg::FutexWakeErr { group, tid: w.tid },
                );
            }
        }
        // Sync words first-touch-homed at the victim move to this kernel.
        let moved: Vec<(GroupId, u64)> = self
            .sync_home
            .iter()
            .filter(|&(&(g, _), &k)| g == group && k == victim)
            .map(|(&key, _)| key)
            .collect();
        for key in moved {
            self.sync_home.insert(key, me);
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
        let dead_shard = self
            .groups
            .get_mut(&group)
            .and_then(|h| h.remove_shard(victim));
        if let Some(shard) = dead_shard {
            let pages = shard.pages();
            for &p in &pages {
                self.sharding.map.remove(&(group, p));
                self.sharding.escalate.remove(&(group, p));
            }
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
                    .filter(|(p, _)| pages.contains(p))
                    .collect();
                self.stats.recovery_pages_scanned.add(scan.len() as u64);
                scans.push((kid, scan));
            }
            let mut rebuilt = Directory::rebuild(&scans);
            if let Some(h) = self.groups.get_mut(&group) {
                for p in pages {
                    match rebuilt.extract(p) {
                        Some(e) => h.dir.adopt(p, e),
                        None => {
                            self.recovery.lost_pages.insert((group, p));
                            self.stats.pages_lost.incr();
                        }
                    }
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
            self.stats.pages_promoted.add(reclaim.promoted);
            for &p in &reclaim.lost {
                self.sharding.map.remove(&(group, p));
                self.sharding.escalate.remove(&(group, p));
                self.recovery.lost_pages.insert((group, p));
                self.stats.pages_lost.incr();
            }
            for g in reclaim.grants {
                self.deliver_grant(group, d, g, now);
            }
            for (page, req) in reclaim.redo {
                self.home_page_request(d, group, page, req, now);
            }
            for (page, req) in reclaim.nacks {
                self.nack_page(group, page, req, now);
            }
        }
        // (c) Delegations now pointing at the root itself (inherited with
        // the victim's home role): fold back as their entries quiesce.
        let inherited: Vec<PageNo> = self
            .sharding
            .map
            .iter()
            .filter(|&(&(g, _), &d)| g == group && d == me)
            .map(|(&(_, p), _)| p)
            .collect();
        for p in inherited {
            self.sharding.escalate.insert((group, p));
            self.try_escalate(group, p);
        }
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
            match pending {
                Pending::Page(w) => {
                    if let Some(inf) = self.inflight[ki].get(&(w.group, w.page)) {
                        if inf.rpc == rpc {
                            self.inflight[ki].remove(&(w.group, w.page));
                        }
                    }
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
                    let req = PageRequest {
                        rpc: new_rpc,
                        origin: me,
                        write,
                    };
                    if me == home {
                        self.home_page_request(me, group, page, req, now);
                    } else {
                        self.send(
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
                Pending::Vma(VmaPending::Fetch { tid, .. })
                | Pending::Futex(FutexPending::Rmw { tid }) => {
                    // No error return on these paths (page/sync faults).
                    self.fail_task(ki, tid, now);
                }
                Pending::Vma(VmaPending::Op { tid })
                | Pending::Futex(FutexPending::Futex { tid })
                | Pending::Clone(CloneWait { tid, .. }) => {
                    self.stats.ops_failed.incr();
                    self.wake_with(ki, tid, SysResult::Err(Errno::OwnerDead), now);
                }
            }
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
        let home = self.home_of(group);
        let home_ki = self.ki(home);
        if req.origin == home {
            self.on_page_nack(home_ki, req.rpc, group, page, at);
        } else {
            self.send(
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
    }

    /// `PageNack` at the requester: the faulting threads die with the exit
    /// a real kernel delivers when backing memory is gone for good (135 =
    /// 128+SIGBUS).
    pub(super) fn on_page_nack(
        &mut self,
        ki: usize,
        rpc: RpcId,
        group: GroupId,
        page: PageNo,
        now: SimTime,
    ) {
        if let Some(Pending::Page(w)) = self.complete_rpc(ki, rpc) {
            if let Some(inf) = self.inflight[ki].get(&(group, page)) {
                if inf.rpc == rpc {
                    self.inflight[ki].remove(&(group, page));
                }
            }
            for (tid, _) in w.waiters {
                self.fail_task(ki, tid, now);
            }
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
pub(super) fn home_notification_group(msg: &ProtoMsg) -> Option<GroupId> {
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
