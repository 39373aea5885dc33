//! Page-table replica maintenance (extension; `page_table_replication`).
//!
//! In the base system a distributed group's page tables are authoritative
//! at its home kernel only: every hardware walk from another kernel
//! traverses table levels living in the home's memory. With replication
//! on, kernels may hold a *page-table replica* — a local copy of the
//! translation structures — turning those walks into local ones at the
//! cost of keeping the replica consistent: the home pushes one
//! [`ProtoMsg::PtReplicaUpdate`] per re-mapped page to every holder over
//! the reliable fabric (Mitosis-style per-PTE shootdown-free updates), and
//! a kernel acquires a replica either eagerly on its first fault
//! (`replicate_on_first_fault`) or on request from the replica-aware
//! placement policy ([`ProtoMsg::PtReplicaReq`] →
//! [`ProtoMsg::PtReplicaGrant`]).
//!
//! The replica state itself (holder set and per-holder page→version
//! shadows) lives in [`crate::group::GroupHome`]; the invariant checker
//! demands that at queue drain every shadow entry the directory still
//! tracks agrees with the directory's version (crash-free runs).
//!
//! Everything in this module is behind the `page_table_replication` gate:
//! with the toggle off (the default) no walk is charged, no message is
//! sent, and no shadow is touched, so replication-off runs are
//! byte-identical to builds predating this module.

use popcorn_kernel::types::{GroupId, PageNo};
use popcorn_msg::KernelId;
use popcorn_sim::SimTime;

use crate::proto::{ProtoMsg, Protocol};

use super::KernelCtx;

impl KernelCtx<'_, '_> {
    /// Whether `kernel` can walk `group`'s tables locally: it holds a
    /// page-table replica, or the group is already reaped (no tables left
    /// to walk remotely).
    pub(super) fn walk_is_local(&self, group: GroupId, kernel: KernelId) -> bool {
        self.groups
            .get(&group)
            .is_none_or(|h| h.has_pt_replica(kernel))
    }

    /// Charges one hardware page-table walk at `kernel` by replica
    /// locality, returning the time the walk completes. A no-op returning
    /// `at` unchanged when replication is off (the base model folds walk
    /// cost into its fault-service constants).
    pub(super) fn charge_page_walk(
        &mut self,
        group: GroupId,
        kernel: KernelId,
        at: SimTime,
    ) -> SimTime {
        if !self.params.page_table_replication {
            return at;
        }
        let local = self.walk_is_local(group, kernel);
        if local {
            self.stats.replica_local_walks.incr();
        } else {
            self.stats.replica_remote_walks.incr();
        }
        at + self.machine.interconnect().page_walk(local)
    }

    /// Pushes `page`'s new version to every page-table replica holder
    /// except the serving home (its tables are the authority) and the
    /// grant's requester (the grant itself carries the version).
    pub(super) fn push_pt_updates(
        &mut self,
        group: GroupId,
        page: PageNo,
        version: u64,
        requester: KernelId,
        at: SimTime,
    ) {
        if !self.params.page_table_replication {
            return;
        }
        let home = self.home_of(group);
        let Some(h) = self.groups.get(&group) else {
            return;
        };
        let holders: Vec<KernelId> = h
            .pt_holders()
            .into_iter()
            .filter(|&k| k != home && k != requester)
            .collect();
        let home_ki = self.ki(home);
        for k in holders {
            self.send(
                at,
                home_ki,
                k,
                ProtoMsg::PtReplicaUpdate {
                    group,
                    page,
                    version,
                },
            );
        }
    }

    /// Records at a grant's requester that its own tables (and hence its
    /// replica shadow, if it holds one) now carry `version` for `page`.
    pub(super) fn note_pt_grant(&mut self, ki: usize, group: GroupId, page: PageNo, version: u64) {
        if !self.params.page_table_replication {
            return;
        }
        let me = self.kid(ki);
        if me == self.home_of(group) {
            return; // the home's tables are the directory itself
        }
        if let Some(h) = self.groups.get_mut(&group) {
            if h.has_pt_replica(me) {
                h.observe_pt(me, page, version);
            }
        }
    }

    /// `PtReplicaUpdate` at a holder: apply the pushed entry to the local
    /// replica (monotonically — a retransmission-reordered stale push is
    /// ignored) and pay the PTE-write + service cost.
    pub(super) fn on_pt_replica_update(
        &mut self,
        to: KernelId,
        group: GroupId,
        page: PageNo,
        version: u64,
        now: SimTime,
    ) {
        let Some(h) = self.groups.get_mut(&group) else {
            return;
        };
        // A push racing a crash-recovery holder purge: the replica is
        // gone, there is nothing to update.
        if !h.has_pt_replica(to) {
            return;
        }
        h.observe_pt(to, page, version);
        self.stats.replica_updates.incr();
        let cost = self.machine.interconnect().pt_replica_update()
            + SimTime::from_nanos(self.params.replica_update_service_ns);
        self.stats
            .proto
            .of(Protocol::Page)
            .service
            .record_time(cost);
        self.note_activity(now + cost);
    }

    /// `PtReplicaReq` at the home: register the new holder and ship it the
    /// full page→version map as its initial shadow. A duplicate request
    /// (the kernel already holds a replica) is ignored.
    pub(super) fn on_pt_replica_req(&mut self, origin: KernelId, group: GroupId, now: SimTime) {
        if !self.params.page_table_replication {
            return;
        }
        let home = self.home_of(group);
        let Some(h) = self.groups.get_mut(&group) else {
            return;
        };
        if !h.add_pt_holder(origin) {
            return;
        }
        let pages: Vec<(PageNo, u64)> = h
            .dir
            .pages()
            .into_iter()
            .map(|p| (p, h.dir.view(p).expect("listed above").version))
            .collect();
        let cost = SimTime::from_nanos(self.params.page_dir_service_ns);
        let done = self.serve_page(group, home, now, cost);
        let home_ki = self.ki(home);
        self.send(
            done,
            home_ki,
            origin,
            ProtoMsg::PtReplicaGrant { group, pages },
        );
    }

    /// `PtReplicaGrant` at the requester: install the shadow wholesale
    /// and pay a per-page install cost.
    pub(super) fn on_pt_replica_grant(
        &mut self,
        to: KernelId,
        _ki: usize,
        group: GroupId,
        pages: Vec<(PageNo, u64)>,
        now: SimTime,
    ) {
        let Some(h) = self.groups.get_mut(&group) else {
            return;
        };
        // The holder registration could have been purged by crash recovery
        // while the grant was in flight.
        if !h.has_pt_replica(to) {
            return;
        }
        h.reseed_pt(to, &pages);
        self.stats.replica_installs.incr();
        let cost = SimTime::from_nanos(pages.len() as u64 * self.params.replica_install_page_ns);
        self.stats
            .proto
            .of(Protocol::Page)
            .service
            .record_time(cost);
        self.note_activity(now + cost);
    }
}
