//! Hierarchical home sharding: per-socket directory delegates under a
//! cluster-level root home.
//!
//! With `home_sharding` on, the flat home layer becomes a two-level
//! hierarchy. A group's **root home** (the `KernelCtx::home_of` kernel —
//! still the membership/VMA/futex serialization point and the crash
//! failover anchor) additionally owns the **shard map**
//! (`GroupHome::shard_map`) deciding which kernel serves each page. Every
//! NUMA socket has a **home delegate** (its lowest-numbered kernel); a
//! page first touched from a non-root socket is delegated to that
//! socket's delegate, which from then on owns the page's directory entry
//! in its shard ([`crate::group::GroupHome::shard_dir`]) and serializes
//! its coherence traffic behind its own delegate server.
//! Cross-socket traffic on a delegated page marks it for **escalation**:
//! as soon as the entry quiesces it moves back verbatim into the root
//! directory (root-owned forever after), so delegates only ever arbitrate
//! socket-local traffic.
//!
//! The shard map lives on the group's board next to the shards it routes
//! to, and other kernels read it directly when routing a fault — the same
//! deterministic shortcut by which every kernel reads the board's home.
//! A request that reaches a kernel no longer serving the page is forwarded
//! as a real fabric message and counted (`shard_forwards`); entries cannot
//! move while busy, so a forwarded request finds the page at its
//! destination.
//!
//! With sharding off — or with every kernel on one socket — the map stays
//! empty, every resolver degenerates to `home_of`, and no delegate server
//! is ever created: the flat home is byte-identical to a build without
//! this module (the same inertness discipline as `page_table_replication`).

use popcorn_hw::{Machine, SocketId};
use popcorn_kernel::kernel::Kernel;
use popcorn_kernel::types::{GroupId, PageNo};
use popcorn_msg::KernelId;

use crate::directory::Directory;

use super::KernelCtx;

/// Machine-wide sharding state: the gate and the socket layout (fixed at
/// construction, apart from crash demotions). Each group's shard map and
/// escalation marks live on its [`crate::group::GroupHome`].
#[derive(Debug)]
pub struct ShardCtl {
    /// Mirror of `PopcornParams::home_sharding`; false keeps every page on
    /// the flat home path.
    pub enabled: bool,
    /// The socket each kernel is anchored on (by its first core).
    kernel_socket: Vec<SocketId>,
    /// Per-socket home delegate: the lowest kernel anchored on the socket.
    socket_leads: Vec<Option<KernelId>>,
}

impl ShardCtl {
    /// Computes the socket layout for a kernel set.
    pub fn new(kernels: &[Kernel], machine: &Machine, enabled: bool) -> Self {
        let topo = machine.topology();
        let kernel_socket: Vec<SocketId> = kernels
            .iter()
            .map(|k| topo.socket_of(k.cores()[0]))
            .collect();
        let mut socket_leads: Vec<Option<KernelId>> = vec![None; topo.num_sockets() as usize];
        for (i, &s) in kernel_socket.iter().enumerate() {
            let lead = &mut socket_leads[s.0 as usize];
            if lead.is_none() {
                *lead = Some(KernelId(i as u16));
            }
        }
        ShardCtl {
            enabled,
            kernel_socket,
            socket_leads,
        }
    }

    /// The socket kernel `k` is anchored on.
    pub fn socket_of(&self, k: KernelId) -> SocketId {
        self.kernel_socket[k.0 as usize]
    }

    /// The home delegate of `socket`: the lowest kernel anchored there, or
    /// `None` for a socket no kernel covers (per-socket clustering of a
    /// machine with idle sockets).
    pub fn lead_of(&self, socket: SocketId) -> Option<KernelId> {
        self.socket_leads[socket.0 as usize]
    }

    /// Demotes a crashed kernel from any socket-lead role: first touches
    /// from its socket fall back to the root home from now on (crash
    /// recovery; a conservative demotion rather than promoting a
    /// surviving socket-mate, which would have to reason about other
    /// in-flight crashes).
    pub fn remove_lead(&mut self, k: KernelId) {
        for lead in &mut self.socket_leads {
            if *lead == Some(k) {
                *lead = None;
            }
        }
    }
}

impl KernelCtx<'_, '_> {
    /// The single authority for "which kernel is `group`'s home": the
    /// home recorded on the group's board, which crash adoption rewrites.
    /// Every module resolves homes through here — never via
    /// `GroupId::home()` directly — so failover re-routing is one code
    /// path, not a convention.
    pub(super) fn home_of(&self, group: GroupId) -> KernelId {
        match self.groups.get(&group) {
            Some(h) => h.home(),
            // Already-reaped groups (late messages) fall back to the
            // static derivation the home was seeded from.
            None => group.home(),
        }
    }

    /// The kernel currently serving `page`'s directory entry: the mapped
    /// delegate if the root delegated it, otherwise the root home. With
    /// sharding off this is exactly [`Self::home_of`].
    pub(super) fn page_home(&self, group: GroupId, page: PageNo) -> KernelId {
        match self.groups.get(&group) {
            Some(h) => h.page_home(page),
            None => group.home(),
        }
    }

    /// The delegate a first touch from `origin` assigns a page to: the
    /// origin socket's lead kernel, or the root itself for root-socket
    /// origins (and for sockets without a lead).
    pub(super) fn delegate_for(&self, group: GroupId, origin: KernelId) -> KernelId {
        let root = self.home_of(group);
        let socket = self.sharding.socket_of(origin);
        if socket == self.sharding.socket_of(root) {
            return root;
        }
        self.sharding.lead_of(socket).unwrap_or(root)
    }

    /// The directory shard holding `page`'s entry: the mapped delegate's
    /// shard for a delegated page, the root directory otherwise. The map
    /// — not the caller's identity — is the single routing authority, so
    /// a delegate that inherited the root role after a crash still finds
    /// its pre-adoption entries in its own shard. `None` if the group is
    /// gone.
    pub(super) fn dir_mut(&mut self, group: GroupId, page: PageNo) -> Option<&mut Directory> {
        Some(self.groups.get_mut(&group)?.page_dir(page))
    }

    /// Completes a pending escalation: once the delegate's entry for a
    /// marked page is idle, it moves verbatim into the root directory and
    /// the map forgets the delegation (the page is root-served forever
    /// after). Called whenever a delegated page may have quiesced; a
    /// still-busy entry stays marked and is retried on its next release.
    pub(super) fn try_escalate(&mut self, group: GroupId, page: PageNo) {
        if !self.sharding.enabled {
            return; // no marks exist: the flat path skips the board lookup
        }
        let Some(h) = self.groups.get_mut(&group) else {
            return;
        };
        if !h.escalate.contains(&page) {
            return;
        }
        let Some(&delegate) = h.shard_map.get(&page) else {
            h.escalate.remove(&page);
            return;
        };
        let Some(entry) = h.shard_dir(delegate).extract(page) else {
            return; // still busy at the delegate; retried on next release
        };
        h.dir.adopt(page, entry);
        h.shard_map.remove(&page);
        h.escalate.remove(&page);
        self.stats.shard_escalations.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_hw::{CoreId, HwParams, Topology};
    use popcorn_kernel::OsParams;

    fn kernels_for(machine: &Machine, per_kernel: &[Vec<u16>]) -> Vec<Kernel> {
        per_kernel
            .iter()
            .enumerate()
            .map(|(i, cores)| {
                Kernel::new(
                    KernelId(i as u16),
                    cores.iter().map(|&c| CoreId(c)).collect(),
                    OsParams::default(),
                    machine.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn socket_layout_anchors_each_kernel_by_first_core() {
        // 2 sockets x 4 cores, one kernel per socket.
        let machine = Machine::new(Topology::new(2, 4), HwParams::default());
        let kernels = kernels_for(&machine, &[vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
        let ctl = ShardCtl::new(&kernels, &machine, true);
        assert_eq!(ctl.socket_of(KernelId(0)), SocketId(0));
        assert_eq!(ctl.socket_of(KernelId(1)), SocketId(1));
        assert_eq!(ctl.lead_of(SocketId(0)), Some(KernelId(0)));
        assert_eq!(ctl.lead_of(SocketId(1)), Some(KernelId(1)));
    }

    #[test]
    fn lead_is_lowest_kernel_on_the_socket() {
        // 2 sockets x 4 cores, one kernel per 2 cores (4 kernels).
        let machine = Machine::new(Topology::new(2, 4), HwParams::default());
        let kernels = kernels_for(&machine, &[vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
        let ctl = ShardCtl::new(&kernels, &machine, true);
        assert_eq!(ctl.lead_of(SocketId(0)), Some(KernelId(0)));
        assert_eq!(ctl.lead_of(SocketId(1)), Some(KernelId(2)));
        assert_eq!(ctl.socket_of(KernelId(1)), SocketId(0));
        assert_eq!(ctl.socket_of(KernelId(3)), SocketId(1));
    }

    #[test]
    fn uncovered_socket_has_no_lead() {
        // 2 sockets but both kernels sit on socket 0.
        let machine = Machine::new(Topology::new(2, 4), HwParams::default());
        let kernels = kernels_for(&machine, &[vec![0, 1], vec![2, 3]]);
        let ctl = ShardCtl::new(&kernels, &machine, true);
        assert_eq!(ctl.lead_of(SocketId(1)), None);
    }

    #[test]
    fn forget_range_drops_only_the_unmapped_pages() {
        let leader = popcorn_kernel::types::Tid::new(KernelId(0), 1);
        let mut h = crate::group::GroupHome::new(GroupId(leader), leader, KernelId(0));
        h.shard_map.insert(PageNo(10), KernelId(1));
        h.shard_map.insert(PageNo(20), KernelId(1));
        h.escalate.insert(PageNo(20));
        h.forget_range(PageNo(15), 10);
        assert!(h.shard_map.contains_key(&PageNo(10)));
        assert!(!h.shard_map.contains_key(&PageNo(20)));
        assert!(h.escalate.is_empty());
    }
}
