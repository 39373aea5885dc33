//! Popcorn-specific protocol statistics.

use std::collections::BTreeMap;

use popcorn_sim::{Counter, Histogram};

use crate::proto::Protocol;

/// Traffic and service accounting for one protocol family.
#[derive(Debug, Default)]
pub struct ProtoCounters {
    /// Messages this protocol put on the fabric. For the protocol families
    /// this counts first transmissions (sequenced or not, delivered or
    /// lost); retransmissions and channel acks are charged to
    /// [`Protocol::Transport`], so the sum across all families equals the
    /// fabric's total send count.
    pub msgs_out: Counter,
    /// Messages dispatched to this protocol's handler. For
    /// [`Protocol::Transport`] this counts channel acks received and
    /// suppressed duplicates; self-addressed timers never cross the fabric
    /// and are not counted.
    pub msgs_in: Counter,
    /// RPCs registered by this protocol.
    pub rpcs_issued: Counter,
    /// RPCs completed (first completion only; deadline failures included).
    pub rpcs_completed: Counter,
    /// Messages this protocol lost because an endpoint had crashed — the
    /// per-family breakdown of the fabric's `FaultCounters::crash_drops`,
    /// attributed at the sender (first transmissions and abandoned
    /// retransmit chains to/from a dead kernel).
    pub crash_drops: Counter,
    /// Serialized service time at this protocol's home-kernel server, per
    /// served request.
    pub service: Histogram,
}

/// Per-protocol counters, indexed by [`Protocol`].
#[derive(Debug, Default)]
pub struct ProtoStats {
    /// Context migration.
    pub migrate: ProtoCounters,
    /// Thread-group membership and exit.
    pub group: ProtoCounters,
    /// VMA replication.
    pub vma: ProtoCounters,
    /// Page coherence.
    pub page: ProtoCounters,
    /// Distributed futex / RMW.
    pub futex: ProtoCounters,
    /// Reliability-layer overhead.
    pub transport: ProtoCounters,
}

impl ProtoStats {
    /// The counters for `p`.
    pub fn of(&mut self, p: Protocol) -> &mut ProtoCounters {
        match p {
            Protocol::Migrate => &mut self.migrate,
            Protocol::Group => &mut self.group,
            Protocol::Vma => &mut self.vma,
            Protocol::Page => &mut self.page,
            Protocol::Futex => &mut self.futex,
            Protocol::Transport => &mut self.transport,
        }
    }

    /// Read access to the counters for `p`.
    pub fn get(&self, p: Protocol) -> &ProtoCounters {
        match p {
            Protocol::Migrate => &self.migrate,
            Protocol::Group => &self.group,
            Protocol::Vma => &self.vma,
            Protocol::Page => &self.page,
            Protocol::Futex => &self.futex,
            Protocol::Transport => &self.transport,
        }
    }
}

/// Counters and latency histograms for the replicated-kernel protocols.
#[derive(Debug, Default)]
pub struct PopStats {
    /// First-visit migrations (fresh task creation at the target).
    pub migrations_first: Counter,
    /// Back-migrations (shadow revival).
    pub migrations_back: Counter,
    /// End-to-end latency of first-visit migrations (syscall to resume).
    pub migration_first_lat: Histogram,
    /// End-to-end latency of back-migrations.
    pub migration_back_lat: Histogram,
    /// Faults resolved entirely at the faulting (home) kernel.
    pub faults_local: Counter,
    /// Remote read faults (page fetched from another kernel).
    pub faults_remote_read: Counter,
    /// Remote write faults (invalidation round).
    pub faults_remote_write: Counter,
    /// Latency of local fault service.
    pub fault_local_lat: Histogram,
    /// Latency of remote read faults (fault to resume).
    pub fault_remote_read_lat: Histogram,
    /// Latency of remote write faults.
    pub fault_remote_write_lat: Histogram,
    /// Pages shipped between kernels.
    pub page_transfers: Counter,
    /// Invalidation messages sent.
    pub invalidations: Counter,
    /// Sync-word ops served on the local fast path.
    pub rmw_local: Counter,
    /// Sync-word ops forwarded to the home kernel.
    pub rmw_remote: Counter,
    /// Futex syscalls served locally.
    pub futex_local: Counter,
    /// Futex syscalls forwarded to the home kernel.
    pub futex_remote: Counter,
    /// Threads created on the caller's kernel.
    pub clone_local: Counter,
    /// Remote thread creations (distributed group growth).
    pub clone_remote: Counter,
    /// Latency of remote thread creation (syscall to parent resume).
    pub clone_remote_lat: Histogram,
    /// VMA operations served at the caller's (home) kernel.
    pub vma_local: Counter,
    /// VMA operations forwarded to the home kernel.
    pub vma_remote: Counter,
    /// On-demand VMA retrievals.
    pub vma_fetches: Counter,

    // --- Reliability layer (only non-zero when fault injection is on) ---
    /// Messages retransmitted after an injected loss.
    pub retransmits: Counter,
    /// Total virtual time spent waiting in retransmit backoff.
    pub retx_backoff_ns: Counter,
    /// Messages abandoned after exhausting every transmission attempt.
    pub msgs_abandoned: Counter,
    /// Messages lost with the reliability layer disabled (raw loss).
    pub msgs_lost_raw: Counter,
    /// Injected duplicates suppressed by sequence-number checks.
    pub dup_suppressed: Counter,
    /// Channel-level acknowledgements sent for sequenced messages.
    pub acks_sent: Counter,
    /// RPCs failed by their response deadline.
    pub rpc_timeouts: Counter,
    /// Migrations aborted back to the origin kernel (thread resumes there
    /// with `EIO`).
    pub migrations_aborted: Counter,
    /// Remote operations completed with `EIO` instead of wedging.
    pub ops_failed: Counter,
    /// Tasks killed because an unrecoverable fault hit a path with no
    /// error return (page faults, sync words).
    pub fault_kills: Counter,

    // --- Migration policy (only non-zero when a policy is active) ---
    /// Policy-initiated migrations (balance moves and granted steals).
    pub policy_migrations: Counter,
    /// Steal requests sent by an idle kernel's policy.
    pub steal_reqs: Counter,
    /// Steal requests granted by the victim (subset of
    /// `policy_migrations`).
    pub policy_steals: Counter,
    /// Wakers migrated toward the waiters they woke (futex locality).
    pub wake_chases: Counter,
    /// Scripted migration targets overridden by the policy's redirect
    /// hook (e.g. `FaultAware` steering around a crashed kernel).
    pub policy_redirects: Counter,
    /// Load snapshots disseminated on the fabric (one per policy tick).
    pub telemetry_reports: Counter,

    // --- Crash recovery (only non-zero when a crash is planned) ---
    /// Crash declarations: one per (survivor, victim) detection timer that
    /// found the victim not yet declared.
    pub kernels_declared_dead: Counter,
    /// Deliveries dropped because the sender was already declared dead at
    /// the receiver (epoch fencing).
    pub fenced_msgs: Counter,
    /// Threads that died with their hosting kernel and were reaped from
    /// group membership by recovery (killed with 128+SIGKILL).
    pub orphans_killed: Counter,
    /// Directory entries whose dead owner was replaced by promoting a
    /// surviving copy.
    pub pages_promoted: Counter,
    /// Directory entries whose only copy died with the kernel — faults on
    /// them now fail explicitly instead of resurrecting zeroes.
    pub pages_lost: Counter,
    /// Futex waiters swept by recovery: woken locally or remotely with
    /// `EOWNERDEAD` so they can revalidate instead of sleeping forever.
    pub futex_recovered: Counter,
    /// Outstanding RPCs aimed at the dead kernel that recovery failed over
    /// (page waits re-driven at the new home; others completed with
    /// `EOWNERDEAD`).
    pub rpcs_failed_over: Counter,
    /// Directory/page-table entries walked by crash recovery: survivor
    /// page-table scans feeding a directory rebuild, reclaimed entries when
    /// the home survived, and replica reseeding after a rebuild.
    pub recovery_pages_scanned: Counter,
    /// Crash-to-recovery-complete latency, in ns, recorded at the successor
    /// kernel per declaration: the ack-silence detection window plus the
    /// modeled cost of the recovery work it then performed (orphan reaping,
    /// directory rebuild or reclaim, futex sweep, RPC failover) — not just
    /// the constant detection window.
    pub recovery_latency: Histogram,

    // --- Page-table replication (only non-zero when enabled) ---
    /// Faults whose page walk hit a local page-table replica.
    pub replica_local_walks: Counter,
    /// Faults that had to walk the home's page tables across the fabric
    /// (no local replica).
    pub replica_remote_walks: Counter,
    /// Page-table replicas seeded at a kernel (eager first-fault or
    /// policy-requested).
    pub replica_installs: Counter,
    /// Replica page-table-entry updates applied at holder kernels.
    pub replica_updates: Counter,
    /// Page-table replicas evicted because a holder cap was exceeded (the
    /// NUMA-farthest idle holder is dropped first).
    pub replica_evictions: Counter,

    // --- Hierarchical home sharding (only non-zero when enabled) ---
    /// Pages the root home delegated to a per-socket home delegate on
    /// first touch.
    pub shard_delegated_pages: Counter,
    /// Delegated pages escalated back to the root home after cross-socket
    /// activity was observed.
    pub shard_escalations: Counter,
    /// Page requests that arrived at a kernel no longer serving the page
    /// and were forwarded to the current server (delegation/escalation
    /// races).
    pub shard_forwards: Counter,

    /// Home-service occupancy across every page service point (each
    /// group's home directory server plus any per-socket delegate
    /// servers). Servers fold themselves in when their group is reaped;
    /// still-live ones are added at report time.
    pub home_service: HomeServiceAgg,

    /// Per-protocol traffic/service accounting (one entry per `machine/`
    /// protocol module).
    pub proto: ProtoStats,
}

/// Aggregated queue/occupancy accounting over retired page service
/// points — the measurement behind E16's home-saturation claim. A
/// server that never served a request is not counted.
#[derive(Debug, Default, Clone)]
pub struct HomeServiceAgg {
    /// Service points that served at least one request.
    pub servers: u64,
    /// Largest queue depth any arrival anywhere observed.
    pub peak_depth: u64,
    /// Per-arrival queue depths, merged across all service points.
    pub depth_hist: Histogram,
    /// Largest per-server time-weighted mean queue depth.
    pub depth_tw_mean_max: f64,
    /// Busiest single server's total service nanoseconds.
    pub busy_ns_max: u64,
    /// Total service nanoseconds across all servers.
    pub busy_ns_sum: u64,
}

impl HomeServiceAgg {
    /// Folds one service point's lifetime accounting in (no-op for a
    /// server that never served anything).
    pub fn note_server(
        &mut self,
        peak_depth: u64,
        depth_hist: &Histogram,
        depth_tw_mean: f64,
        busy_ns: u64,
    ) {
        if busy_ns == 0 {
            return;
        }
        self.servers += 1;
        self.peak_depth = self.peak_depth.max(peak_depth);
        self.depth_hist.merge(depth_hist);
        self.depth_tw_mean_max = self.depth_tw_mean_max.max(depth_tw_mean);
        self.busy_ns_max = self.busy_ns_max.max(busy_ns);
        self.busy_ns_sum += busy_ns;
    }
}

impl PopStats {
    /// Total histogram-bucket saturations across every latency/service
    /// histogram — non-zero means some recorded value exceeded a
    /// histogram's range; such samples are kept out of quantile
    /// interpolation and the reported tail clamps to the exact max (see
    /// [`Histogram::saturations`](popcorn_sim::Histogram::saturations)).
    pub fn hist_saturations(&self) -> u64 {
        let own = [
            &self.migration_first_lat,
            &self.migration_back_lat,
            &self.fault_local_lat,
            &self.fault_remote_read_lat,
            &self.fault_remote_write_lat,
            &self.clone_remote_lat,
        ];
        let service: u64 = Protocol::ALL
            .iter()
            .map(|&p| self.proto.get(p).service.saturations())
            .sum();
        own.iter().map(|h| h.saturations()).sum::<u64>() + service
    }

    /// Flattens into named metrics for [`RunReport`](popcorn_kernel::RunReport).
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert(
            "migrations_first".into(),
            self.migrations_first.get() as f64,
        );
        m.insert("migrations_back".into(), self.migrations_back.get() as f64);
        m.insert(
            "migration_first_us_mean".into(),
            self.migration_first_lat.mean() / 1_000.0,
        );
        m.insert(
            "migration_back_us_mean".into(),
            self.migration_back_lat.mean() / 1_000.0,
        );
        m.insert("faults_local".into(), self.faults_local.get() as f64);
        m.insert(
            "faults_remote_read".into(),
            self.faults_remote_read.get() as f64,
        );
        m.insert(
            "faults_remote_write".into(),
            self.faults_remote_write.get() as f64,
        );
        m.insert(
            "fault_local_us_mean".into(),
            self.fault_local_lat.mean() / 1_000.0,
        );
        m.insert(
            "fault_remote_read_us_mean".into(),
            self.fault_remote_read_lat.mean() / 1_000.0,
        );
        m.insert(
            "fault_remote_write_us_mean".into(),
            self.fault_remote_write_lat.mean() / 1_000.0,
        );
        m.insert("page_transfers".into(), self.page_transfers.get() as f64);
        m.insert("invalidations".into(), self.invalidations.get() as f64);
        m.insert("rmw_local".into(), self.rmw_local.get() as f64);
        m.insert("rmw_remote".into(), self.rmw_remote.get() as f64);
        m.insert("futex_local".into(), self.futex_local.get() as f64);
        m.insert("futex_remote".into(), self.futex_remote.get() as f64);
        m.insert("clone_local".into(), self.clone_local.get() as f64);
        m.insert("clone_remote".into(), self.clone_remote.get() as f64);
        m.insert(
            "clone_remote_us_mean".into(),
            self.clone_remote_lat.mean() / 1_000.0,
        );
        m.insert("vma_local".into(), self.vma_local.get() as f64);
        m.insert("vma_remote".into(), self.vma_remote.get() as f64);
        m.insert("vma_fetches".into(), self.vma_fetches.get() as f64);
        m.insert("retransmits".into(), self.retransmits.get() as f64);
        m.insert(
            "retx_backoff_ms".into(),
            self.retx_backoff_ns.get() as f64 / 1e6,
        );
        m.insert("msgs_abandoned".into(), self.msgs_abandoned.get() as f64);
        m.insert("msgs_lost_raw".into(), self.msgs_lost_raw.get() as f64);
        m.insert("dup_suppressed".into(), self.dup_suppressed.get() as f64);
        m.insert("acks_sent".into(), self.acks_sent.get() as f64);
        m.insert("rpc_timeouts".into(), self.rpc_timeouts.get() as f64);
        m.insert(
            "migrations_aborted".into(),
            self.migrations_aborted.get() as f64,
        );
        m.insert("ops_failed".into(), self.ops_failed.get() as f64);
        m.insert("fault_kills".into(), self.fault_kills.get() as f64);
        m.insert(
            "policy_migrations".into(),
            self.policy_migrations.get() as f64,
        );
        m.insert("steal_reqs".into(), self.steal_reqs.get() as f64);
        m.insert("policy_steals".into(), self.policy_steals.get() as f64);
        m.insert("wake_chases".into(), self.wake_chases.get() as f64);
        m.insert(
            "policy_redirects".into(),
            self.policy_redirects.get() as f64,
        );
        m.insert(
            "telemetry_reports".into(),
            self.telemetry_reports.get() as f64,
        );
        m.insert("hist_saturations".into(), self.hist_saturations() as f64);
        m.insert(
            "kernels_declared_dead".into(),
            self.kernels_declared_dead.get() as f64,
        );
        m.insert("fenced_msgs".into(), self.fenced_msgs.get() as f64);
        m.insert("orphans_killed".into(), self.orphans_killed.get() as f64);
        m.insert("pages_promoted".into(), self.pages_promoted.get() as f64);
        m.insert("pages_lost".into(), self.pages_lost.get() as f64);
        m.insert("futex_recovered".into(), self.futex_recovered.get() as f64);
        m.insert(
            "rpcs_failed_over".into(),
            self.rpcs_failed_over.get() as f64,
        );
        m.insert(
            "recovery_pages_scanned".into(),
            self.recovery_pages_scanned.get() as f64,
        );
        m.insert(
            "recovery_ms_mean".into(),
            self.recovery_latency.mean() / 1e6,
        );
        m.insert(
            "replica_local_walks".into(),
            self.replica_local_walks.get() as f64,
        );
        m.insert(
            "replica_remote_walks".into(),
            self.replica_remote_walks.get() as f64,
        );
        m.insert(
            "replica_installs".into(),
            self.replica_installs.get() as f64,
        );
        m.insert("replica_updates".into(), self.replica_updates.get() as f64);
        m.insert(
            "replica_evictions".into(),
            self.replica_evictions.get() as f64,
        );
        m.insert(
            "shard_delegated_pages".into(),
            self.shard_delegated_pages.get() as f64,
        );
        m.insert(
            "shard_escalations".into(),
            self.shard_escalations.get() as f64,
        );
        m.insert("shard_forwards".into(), self.shard_forwards.get() as f64);
        for p in Protocol::ALL {
            let c = self.proto.get(p);
            let key = |suffix: &str| format!("proto_{}_{suffix}", p.name());
            m.insert(key("msgs_out"), c.msgs_out.get() as f64);
            m.insert(key("msgs_in"), c.msgs_in.get() as f64);
            m.insert(key("rpcs_issued"), c.rpcs_issued.get() as f64);
            m.insert(key("rpcs_completed"), c.rpcs_completed.get() as f64);
            m.insert(key("crash_drops"), c.crash_drops.get() as f64);
            m.insert(key("service_us_mean"), c.service.mean() / 1_000.0);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_flatten_all_counters() {
        let mut s = PopStats::default();
        s.migrations_first.incr();
        s.page_transfers.add(3);
        s.migration_first_lat.record(50_000);
        let m = s.metrics();
        assert_eq!(m["migrations_first"], 1.0);
        assert_eq!(m["page_transfers"], 3.0);
        assert_eq!(m["migration_first_us_mean"], 50.0);
        assert!(m.contains_key("vma_fetches"));
    }
}
