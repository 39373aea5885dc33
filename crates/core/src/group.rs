//! Distributed thread group state kept at the group's home kernel.
//!
//! The home kernel is the serialization point for everything group-wide:
//! membership (who is where), the set of kernels holding address-space
//! replicas, the page [`Directory`] and its per-socket shards, VMA-operation
//! ordering (including the acked unmap protocol), the group's protocol
//! service points, the futex server's words/queues (held in the machine's
//! [`FutexTable`](popcorn_kernel::futex::FutexTable)), and group exit.
//! [`GroupHome`] is the only record of all of it: crash adoption rewrites
//! its home, and reaping the group drops the whole board at once.

use std::collections::{BTreeMap, BTreeSet};

use popcorn_hw::LockSite;
use popcorn_kernel::types::{GroupId, PageNo, Tid};
use popcorn_msg::{KernelId, RpcId};

use crate::directory::Directory;
use crate::machine::{KernelServers, Server};
use crate::stats::HomeServiceAgg;

/// An unmap waiting for replica acknowledgements before completing.
#[derive(Debug)]
struct UnmapPending {
    rpc: RpcId,
    origin: KernelId,
    awaiting: BTreeSet<KernelId>,
}

/// Home-kernel state of one distributed thread group.
#[derive(Debug)]
pub struct GroupHome {
    group: GroupId,
    /// The kernel serving this board: the kernel the group was created on
    /// until crash recovery adopts the group onto a successor
    /// (`GroupHome::rehome`). Every home lookup reads this field, never
    /// `GroupId::home()`.
    home: KernelId,
    members: BTreeMap<Tid, KernelId>,
    /// Members that already exited. Tids are never reused, so this is a
    /// tombstone set: the reliable transport retransmits lost messages with
    /// fresh sequence numbers, so a join or location notification whose
    /// first transmission was lost can arrive *after* the member's
    /// `TaskExited` — and must not resurrect the retired member.
    retired: BTreeSet<Tid>,
    replicas: BTreeSet<KernelId>,
    /// Kernels holding a *page-table* replica of this group (the home's
    /// authoritative tables count as one), only populated when
    /// `page_table_replication` is on. Distinct from `replicas`, which
    /// tracks address-space (task/VMA) replicas: a kernel can host threads
    /// without replicating the translation structures.
    pt_holders: BTreeSet<KernelId>,
    /// Each holder's shadow of the directory's per-page versions, kept
    /// consistent by pushed `PtReplicaUpdate`s over the reliable fabric.
    /// The invariant audit demands shadow == directory at queue drain.
    pt_shadow: BTreeMap<(KernelId, PageNo), u64>,
    /// The page-consistency directory (the *root* shard; authoritative for
    /// every page not delegated to a per-socket shard).
    pub dir: Directory,
    /// Per-socket delegate shards of the page directory, keyed by the
    /// delegate kernel serving them. Only populated under hierarchical home
    /// sharding; a page lives in exactly one shard (root `dir` or one entry
    /// here), which the invariant audit enforces.
    shard_dirs: BTreeMap<KernelId, Directory>,
    /// Pages delegated away from the root directory, and the delegate
    /// serving each. A page is listed only while a non-root delegate
    /// serves it; root-served pages never are.
    pub(crate) shard_map: BTreeMap<PageNo, KernelId>,
    /// Delegated pages marked for escalation after cross-socket traffic;
    /// drained (entry moved root-ward) when the page quiesces.
    pub(crate) escalate: BTreeSet<PageNo>,
    /// Pages whose only copy died with a crashed kernel: faults on these
    /// fail with an explicit error instead of resurrecting a zero page.
    pub(crate) lost: BTreeSet<PageNo>,
    /// The group's protocol service points (the per-mm protocol lock at
    /// the home, plus the replica-side update path), created on first use.
    servers: Option<KernelServers>,
    /// Delegate-side page service points under hierarchical home sharding,
    /// keyed by delegate kernel.
    pub(crate) delegate_servers: BTreeMap<KernelId, Server>,
    /// First-touch homes of synchronization words (only populated when
    /// `sync_first_touch_homing` is on).
    pub(crate) sync_home: BTreeMap<u64, KernelId>,
    /// Contention sites of sync words served on the local fast path.
    pub(crate) sync_sites: BTreeMap<u64, LockSite>,
    next_token: u64,
    pending_unmaps: BTreeMap<u64, UnmapPending>,
    /// The exit status, once an `exit_group` report has reached the home.
    exit: Option<i32>,
    /// Replicas ordered to kill whose report has not arrived yet.
    kill_reports_awaiting: BTreeSet<KernelId>,
}

impl GroupHome {
    /// Creates home state for a group whose leader starts on the home
    /// kernel.
    pub fn new(group: GroupId, leader: Tid, home: KernelId) -> Self {
        let mut members = BTreeMap::new();
        members.insert(leader, home);
        let mut replicas = BTreeSet::new();
        replicas.insert(home);
        let mut pt_holders = BTreeSet::new();
        pt_holders.insert(home);
        GroupHome {
            group,
            home,
            members,
            retired: BTreeSet::new(),
            replicas,
            pt_holders,
            pt_shadow: BTreeMap::new(),
            dir: Directory::new(),
            shard_dirs: BTreeMap::new(),
            shard_map: BTreeMap::new(),
            escalate: BTreeSet::new(),
            lost: BTreeSet::new(),
            servers: None,
            delegate_servers: BTreeMap::new(),
            sync_home: BTreeMap::new(),
            sync_sites: BTreeMap::new(),
            next_token: 1,
            pending_unmaps: BTreeMap::new(),
            exit: None,
            kill_reports_awaiting: BTreeSet::new(),
        }
    }

    /// The group id.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The kernel serving this board (the adopting successor once the
    /// original home crashed).
    pub fn home(&self) -> KernelId {
        self.home
    }

    /// Moves the board to `successor` (crash adoption of a dead home).
    pub(crate) fn rehome(&mut self, successor: KernelId) {
        self.home = successor;
    }

    /// The kernel serving `page`'s directory entry: its delegate, or the
    /// home for a root-served page.
    pub(crate) fn page_home(&self, page: PageNo) -> KernelId {
        self.shard_map.get(&page).copied().unwrap_or(self.home)
    }

    /// The directory holding `page`'s entry: its delegate's shard, or the
    /// root directory.
    pub(crate) fn page_dir(&mut self, page: PageNo) -> &mut Directory {
        match self.shard_map.get(&page).copied() {
            Some(d) => self.shard_dir(d),
            None => &mut self.dir,
        }
    }

    /// Forgets every page in `[start, start + len)` (VMA unmap): its
    /// entries in the root directory and every shard, its delegation and
    /// its escalation mark.
    pub(crate) fn forget_range(&mut self, start: PageNo, len: u64) {
        let gone = start.0..start.0 + len;
        self.shard_map.retain(|p, _| !gone.contains(&p.0));
        self.escalate.retain(|p| !gone.contains(&p.0));
        self.dir.drop_pages(gone.clone().map(PageNo));
        for dir in self.shard_dirs.values_mut() {
            dir.drop_pages(gone.clone().map(PageNo));
        }
    }

    /// Records that `page`'s only copy died with a crashed kernel: it is
    /// no longer delegated, and faults on it fail from now on.
    pub(crate) fn mark_lost(&mut self, page: PageNo) {
        self.shard_map.remove(&page);
        self.escalate.remove(&page);
        self.lost.insert(page);
    }

    /// The group's protocol service points, created on first use.
    pub(crate) fn servers(&mut self) -> &mut KernelServers {
        self.servers.get_or_insert_with(KernelServers::default)
    }

    /// Folds the group's page service points — the home's and every
    /// delegate's — into the run-wide occupancy aggregate.
    pub(crate) fn fold_servers(&self, agg: &mut HomeServiceAgg) {
        if let Some(s) = &self.servers {
            s.page.fold_into(agg);
        }
        for s in self.delegate_servers.values() {
            s.fold_into(agg);
        }
    }

    /// The directory shard served by `delegate`, created on first use.
    pub fn shard_dir(&mut self, delegate: KernelId) -> &mut Directory {
        self.shard_dirs.entry(delegate).or_default()
    }

    /// Read access to `delegate`'s shard, if it exists.
    pub fn shard_dir_ref(&self, delegate: KernelId) -> Option<&Directory> {
        self.shard_dirs.get(&delegate)
    }

    /// Kernels currently holding a (possibly empty) delegate shard,
    /// ascending.
    pub fn shard_delegates(&self) -> Vec<KernelId> {
        self.shard_dirs.keys().copied().collect()
    }

    /// Drops `delegate`'s shard wholesale and un-delegates its pages
    /// (crash recovery: the shard died with the kernel), returning those
    /// pages for survivor-driven salvage.
    pub fn remove_shard(&mut self, delegate: KernelId) -> Option<Vec<PageNo>> {
        let pages = self.shard_dirs.remove(&delegate)?.pages();
        for p in &pages {
            self.shard_map.remove(p);
            self.escalate.remove(p);
        }
        Some(pages)
    }

    /// The agreed exit status once the group is exiting.
    pub fn exit(&self) -> Option<i32> {
        self.exit
    }

    /// Number of live members.
    pub fn live_members(&self) -> usize {
        self.members.len()
    }

    /// Kernels holding an address-space replica (home included).
    pub fn replicas(&self) -> impl Iterator<Item = KernelId> + '_ {
        self.replicas.iter().copied()
    }

    /// Replica kernels other than the home.
    pub fn remote_replicas(&self) -> Vec<KernelId> {
        self.replicas_except(self.home)
    }

    /// Replica kernels other than `kernel`.
    pub fn replicas_except(&self, kernel: KernelId) -> Vec<KernelId> {
        self.replicas
            .iter()
            .copied()
            .filter(|&k| k != kernel)
            .collect()
    }

    /// Forgets `kernel`'s replica (crash recovery: the replica died with
    /// the kernel). Returns true if it was present.
    pub fn remove_replica(&mut self, kernel: KernelId) -> bool {
        self.replicas.remove(&kernel)
    }

    /// Members currently located on `kernel`, in tid order.
    pub fn members_at(&self, kernel: KernelId) -> Vec<Tid> {
        self.members
            .iter()
            .filter(|&(_, &k)| k == kernel)
            .map(|(&t, _)| t)
            .collect()
    }

    /// Registers that `kernel` now holds a replica. Returns true if new.
    pub fn add_replica(&mut self, kernel: KernelId) -> bool {
        self.replicas.insert(kernel)
    }

    /// Kernels holding a page-table replica, ascending (home included).
    pub fn pt_holders(&self) -> Vec<KernelId> {
        self.pt_holders.iter().copied().collect()
    }

    /// Whether `kernel` holds a page-table replica.
    pub fn has_pt_replica(&self, kernel: KernelId) -> bool {
        self.pt_holders.contains(&kernel)
    }

    /// Registers a page-table replica at `kernel`. Returns true if new.
    pub fn add_pt_holder(&mut self, kernel: KernelId) -> bool {
        self.pt_holders.insert(kernel)
    }

    /// Drops `kernel`'s page-table replica and its shadow entries (crash
    /// recovery: the replica died with the kernel). Returns true if held.
    pub fn remove_pt_holder(&mut self, kernel: KernelId) -> bool {
        self.pt_shadow.retain(|&(k, _), _| k != kernel);
        self.pt_holders.remove(&kernel)
    }

    /// Applies a pushed page-table update at `kernel`'s shadow. Monotonic:
    /// a stale push (reordered behind a newer one by retransmission) is
    /// ignored, so shadows never move backwards.
    pub fn observe_pt(&mut self, kernel: KernelId, page: PageNo, version: u64) {
        let slot = self.pt_shadow.entry((kernel, page)).or_insert(0);
        if version > *slot {
            *slot = version;
        }
    }

    /// The version `kernel`'s shadow holds for `page`, if any.
    pub fn pt_version(&self, kernel: KernelId, page: PageNo) -> Option<u64> {
        self.pt_shadow.get(&(kernel, page)).copied()
    }

    /// Overwrites `kernel`'s whole shadow from an authoritative page list
    /// (replica grant, or post-crash directory rebuild — where the rebuilt
    /// versions may be *lower* than a pre-crash push, so this is not
    /// monotonic on purpose).
    pub fn reseed_pt(&mut self, kernel: KernelId, pages: &[(PageNo, u64)]) {
        self.pt_shadow.retain(|&(k, _), _| k != kernel);
        for &(page, version) in pages {
            self.pt_shadow.insert((kernel, page), version);
        }
    }

    /// `kernel`'s shadow as a sorted page→version list (invariant audit).
    pub fn pt_shadow_of(&self, kernel: KernelId) -> Vec<(PageNo, u64)> {
        self.pt_shadow
            .range((kernel, PageNo(0))..)
            .take_while(|(&(k, _), _)| k == kernel)
            .map(|(&(_, p), &v)| (p, v))
            .collect()
    }

    /// Records a new member created on `kernel`. A join for a tid already
    /// retired is the late half of a join/exit race (the join notification
    /// lost its first transmission and its retransmit arrived after the
    /// member's `TaskExited`) and is ignored. A join for a tid already
    /// *present* is the re-driven duplicate of a delivered-but-unacked
    /// notification (the ack died with the old home kernel, so crash
    /// failover re-sends the join to a successor that shares this board)
    /// — also ignored, keeping the current location: the member may have
    /// migrated since the original join was applied, and the duplicate
    /// carries the stale birth kernel.
    pub fn member_joined(&mut self, tid: Tid, kernel: KernelId) {
        self.replicas.insert(kernel);
        if self.retired.contains(&tid) || self.members.contains_key(&tid) {
            return;
        }
        self.members.insert(tid, kernel);
    }

    /// Records that an existing member moved to `kernel` (migration).
    pub fn member_at(&mut self, tid: Tid, kernel: KernelId) {
        self.replicas.insert(kernel);
        if !self.retired.contains(&tid) {
            self.members.insert(tid, kernel);
        }
    }

    /// Records a member exit; returns the number of members remaining.
    pub fn member_exited(&mut self, tid: Tid) -> usize {
        self.members.remove(&tid);
        self.retired.insert(tid);
        self.members.len()
    }

    /// Where a member currently runs, if known.
    pub fn member_location(&self, tid: Tid) -> Option<KernelId> {
        self.members.get(&tid).copied()
    }

    /// Live members in tid order.
    pub fn member_tids(&self) -> Vec<Tid> {
        self.members.keys().copied().collect()
    }

    /// Starts tracking an acked unmap; returns the token replicas echo.
    pub fn begin_unmap(
        &mut self,
        rpc: RpcId,
        origin: KernelId,
        awaiting: impl IntoIterator<Item = KernelId>,
    ) -> (u64, bool) {
        let token = self.next_token;
        self.next_token += 1;
        let awaiting: BTreeSet<KernelId> = awaiting.into_iter().collect();
        let complete = awaiting.is_empty();
        self.pending_unmaps.insert(
            token,
            UnmapPending {
                rpc,
                origin,
                awaiting,
            },
        );
        (token, complete)
    }

    /// Records an unmap ack; returns `(rpc, origin)` when all replicas have
    /// acknowledged so the home can complete the caller's syscall.
    ///
    /// # Panics
    ///
    /// Panics on an unknown token or an unexpected acker.
    pub fn unmap_acked(&mut self, token: u64, from: KernelId) -> Option<(RpcId, KernelId)> {
        let p = self
            .pending_unmaps
            .get_mut(&token)
            .unwrap_or_else(|| panic!("unknown unmap token {token}"));
        assert!(p.awaiting.remove(&from), "unexpected unmap ack from {from}");
        if p.awaiting.is_empty() {
            let p = self.pending_unmaps.remove(&token).expect("just present");
            Some((p.rpc, p.origin))
        } else {
            None
        }
    }

    /// Treats `kernel` as having acked every unmap it was awaited on
    /// (crash recovery: a dead replica will never answer, and its mappings
    /// died with it — morally an ack). Returns the `(rpc, origin)` pairs of
    /// barriers this released, in token order.
    pub fn fail_unmap_acker(&mut self, kernel: KernelId) -> Vec<(RpcId, KernelId)> {
        let mut released = Vec::new();
        let tokens: Vec<u64> = self.pending_unmaps.keys().copied().collect();
        for token in tokens {
            let p = self.pending_unmaps.get_mut(&token).expect("listed above");
            if p.awaiting.remove(&kernel) && p.awaiting.is_empty() {
                let p = self.pending_unmaps.remove(&token).expect("just present");
                released.push((p.rpc, p.origin));
            }
        }
        released
    }

    /// Completes an unmap that needed no acks (single-replica fast path).
    ///
    /// # Panics
    ///
    /// Panics if the token has pending acks.
    pub fn finish_unmap(&mut self, token: u64) -> (RpcId, KernelId) {
        let p = self
            .pending_unmaps
            .remove(&token)
            .unwrap_or_else(|| panic!("unknown unmap token {token}"));
        assert!(p.awaiting.is_empty(), "finish_unmap with pending acks");
        (p.rpc, p.origin)
    }

    /// Begins group exit on the first report, from `reporter`: records
    /// `code` and returns the other replicas, which must be ordered to
    /// kill and report back. Later reports return nothing: the first
    /// exit code wins.
    pub fn begin_exit(&mut self, code: i32, reporter: KernelId) -> Vec<KernelId> {
        if self.exit.is_some() {
            return Vec::new();
        }
        self.exit = Some(code);
        let targets = self.replicas_except(reporter);
        self.kill_reports_awaiting = targets.iter().copied().collect();
        targets
    }

    /// Records `from`'s kill report: the `killed` members retire, and
    /// members still mapped to `from` (blocked or in flight there) are
    /// gone too. Returns true once every ordered replica has reported.
    pub fn kill_acked(&mut self, from: KernelId, killed: &[Tid]) -> bool {
        self.kill_reports_awaiting.remove(&from);
        for &t in killed {
            self.member_exited(t);
        }
        self.members.retain(|_, &mut k| k != from);
        self.kill_reports_awaiting.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home() -> GroupHome {
        let leader = Tid::new(KernelId(0), 1);
        GroupHome::new(GroupId(leader), leader, KernelId(0))
    }

    #[test]
    fn new_group_has_leader_at_home() {
        let h = home();
        assert_eq!(h.live_members(), 1);
        assert_eq!(h.replicas().collect::<Vec<_>>(), vec![KernelId(0)]);
        assert_eq!(h.exit(), None);
        assert!(h.remote_replicas().is_empty());
    }

    #[test]
    fn membership_tracks_joins_moves_exits() {
        let mut h = home();
        let t2 = Tid::new(KernelId(1), 1);
        h.member_joined(t2, KernelId(1));
        assert_eq!(h.live_members(), 2);
        assert_eq!(h.member_location(t2), Some(KernelId(1)));
        assert_eq!(h.remote_replicas(), vec![KernelId(1)]);
        h.member_at(t2, KernelId(2));
        assert_eq!(h.member_location(t2), Some(KernelId(2)));
        assert_eq!(h.member_exited(t2), 1);
        assert_eq!(h.member_exited(Tid::new(KernelId(0), 1)), 0);
    }

    #[test]
    fn redriven_duplicate_join_keeps_current_location() {
        // The delivered-but-unacked crash race: a join is applied at the
        // old home, the ack dies with it, and failover re-drives the
        // join to a successor sharing this board. The duplicate must not
        // double-count the member or roll its location back to the birth
        // kernel it names.
        let mut h = home();
        let t2 = Tid::new(KernelId(1), 1);
        h.member_joined(t2, KernelId(1));
        h.member_at(t2, KernelId(2)); // migrated since
        h.member_joined(t2, KernelId(1)); // the re-driven duplicate
        assert_eq!(h.live_members(), 2);
        assert_eq!(h.member_location(t2), Some(KernelId(2)));
    }

    #[test]
    fn unmap_ack_protocol_completes_on_last_ack() {
        let mut h = home();
        let (token, complete) = h.begin_unmap(RpcId(9), KernelId(1), [KernelId(1), KernelId(2)]);
        assert!(!complete);
        assert!(h.unmap_acked(token, KernelId(2)).is_none());
        let done = h.unmap_acked(token, KernelId(1)).expect("complete");
        assert_eq!(done, (RpcId(9), KernelId(1)));
    }

    #[test]
    fn unmap_without_replicas_completes_inline() {
        let mut h = home();
        let (token, complete) = h.begin_unmap(RpcId(3), KernelId(0), []);
        assert!(complete);
        assert_eq!(h.finish_unmap(token), (RpcId(3), KernelId(0)));
    }

    #[test]
    #[should_panic(expected = "unknown unmap token")]
    fn double_ack_panics() {
        let mut h = home();
        let (token, _) = h.begin_unmap(RpcId(1), KernelId(0), [KernelId(1)]);
        h.unmap_acked(token, KernelId(1));
        h.unmap_acked(token, KernelId(1));
    }

    #[test]
    fn exit_kills_remote_replicas_and_collects_acks() {
        let mut h = home();
        let t2 = Tid::new(KernelId(1), 1);
        let t3 = Tid::new(KernelId(2), 1);
        h.member_joined(t2, KernelId(1));
        h.member_joined(t3, KernelId(2));
        // exit_group called on kernel 1: its report starts the exit.
        let targets = h.begin_exit(5, KernelId(1));
        assert_eq!(targets, vec![KernelId(0), KernelId(2)]);
        assert_eq!(h.exit(), Some(5));
        // Kernel-1 members died with the initiator.
        assert!(!h.kill_acked(KernelId(1), &[t2]));
        assert_eq!(h.live_members(), 2);
        // A concurrent exit_group's report only acks.
        assert!(h.begin_exit(9, KernelId(2)).is_empty());
        assert!(!h.kill_acked(KernelId(2), &[t3]));
        assert!(h.kill_acked(KernelId(0), &[Tid::new(KernelId(0), 1)]));
        assert_eq!(h.live_members(), 0);
        // Killed members are retired: a late location report is ignored.
        h.member_at(t3, KernelId(0));
        assert_eq!(h.live_members(), 0);
        assert_eq!(h.exit(), Some(5), "first exit code wins");
    }

    #[test]
    fn recovery_accessors_cover_dead_kernel_state() {
        let mut h = home();
        let (t2, t3) = (Tid::new(KernelId(1), 1), Tid::new(KernelId(1), 2));
        h.member_joined(t2, KernelId(1));
        h.member_joined(t3, KernelId(1));
        assert_eq!(h.members_at(KernelId(1)), vec![t2, t3]);
        assert_eq!(h.replicas_except(KernelId(1)), vec![KernelId(0)]);
        assert!(h.replicas().any(|k| k == KernelId(1)));
        assert!(h.remove_replica(KernelId(1)));
        assert!(!h.remove_replica(KernelId(1)));
        // An unmap barrier waiting only on the dead kernel releases.
        let (_, complete) = h.begin_unmap(RpcId(4), KernelId(0), [KernelId(1)]);
        assert!(!complete);
        let released = h.fail_unmap_acker(KernelId(1));
        assert_eq!(released, vec![(RpcId(4), KernelId(0))]);
        // One still awaiting a live kernel stays pending.
        let (token, _) = h.begin_unmap(RpcId(5), KernelId(0), [KernelId(1), KernelId(2)]);
        assert!(h.fail_unmap_acker(KernelId(1)).is_empty());
        assert!(h.unmap_acked(token, KernelId(2)).is_some());
    }

    #[test]
    fn pt_holders_start_with_home_and_track_adds_removes() {
        let mut h = home();
        assert_eq!(h.pt_holders(), vec![KernelId(0)]);
        assert!(h.has_pt_replica(KernelId(0)));
        assert!(h.add_pt_holder(KernelId(2)));
        assert!(!h.add_pt_holder(KernelId(2)));
        assert_eq!(h.pt_holders(), vec![KernelId(0), KernelId(2)]);
        h.observe_pt(KernelId(2), PageNo(7), 3);
        assert!(h.remove_pt_holder(KernelId(2)));
        assert!(!h.remove_pt_holder(KernelId(2)));
        assert!(h.pt_shadow_of(KernelId(2)).is_empty());
    }

    #[test]
    fn observe_pt_is_monotonic_but_reseed_overwrites() {
        let mut h = home();
        h.add_pt_holder(KernelId(1));
        h.observe_pt(KernelId(1), PageNo(4), 2);
        h.observe_pt(KernelId(1), PageNo(4), 1); // stale push: ignored
        assert_eq!(h.pt_version(KernelId(1), PageNo(4)), Some(2));
        h.observe_pt(KernelId(1), PageNo(4), 6);
        assert_eq!(h.pt_version(KernelId(1), PageNo(4)), Some(6));
        // Post-crash rebuild may legitimately go backwards.
        h.reseed_pt(KernelId(1), &[(PageNo(4), 5), (PageNo(9), 1)]);
        assert_eq!(h.pt_version(KernelId(1), PageNo(4)), Some(5));
        assert_eq!(
            h.pt_shadow_of(KernelId(1)),
            vec![(PageNo(4), 5), (PageNo(9), 1)]
        );
        assert_eq!(h.pt_version(KernelId(1), PageNo(5)), None);
    }

    #[test]
    fn pt_shadow_of_isolates_kernels() {
        let mut h = home();
        h.add_pt_holder(KernelId(1));
        h.add_pt_holder(KernelId(2));
        h.observe_pt(KernelId(1), PageNo(1), 1);
        h.observe_pt(KernelId(2), PageNo(2), 4);
        h.observe_pt(KernelId(1), PageNo(3), 2);
        assert_eq!(
            h.pt_shadow_of(KernelId(1)),
            vec![(PageNo(1), 1), (PageNo(3), 2)]
        );
        assert_eq!(h.pt_shadow_of(KernelId(2)), vec![(PageNo(2), 4)]);
    }

    #[test]
    fn shard_dirs_created_on_demand_and_removable() {
        let mut h = home();
        assert!(h.shard_delegates().is_empty());
        assert!(h.shard_dir_ref(KernelId(1)).is_none());
        h.shard_dir(KernelId(1)); // created empty on first access
        assert_eq!(h.shard_delegates(), vec![KernelId(1)]);
        assert_eq!(h.shard_dir_ref(KernelId(1)).unwrap().tracked_pages(), 0);
        assert!(h.remove_shard(KernelId(1)).is_some());
        assert!(h.remove_shard(KernelId(1)).is_none());
        assert!(h.shard_delegates().is_empty());
    }

    #[test]
    fn duplicate_exit_is_ignored() {
        let mut h = home();
        let first = h.begin_exit(1, KernelId(0));
        assert!(first.is_empty()); // only home replica, already killed there
        assert!(h.kill_acked(KernelId(0), &[]));
        let second = h.begin_exit(2, KernelId(0));
        assert!(second.is_empty());
        assert_eq!(h.exit(), Some(1), "first exit code wins");
    }
}
