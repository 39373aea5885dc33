//! Popcorn-specific protocol statistics.

use std::collections::BTreeMap;

use popcorn_sim::{metric_table, Counter, Histogram};

use crate::proto::Protocol;

metric_table! {
    /// Traffic and service accounting for one protocol family, exported
    /// per family as `proto_<family>_<name>`.
    pub struct ProtoCounters {
        /// Messages this protocol put on the fabric. For the protocol families
        /// this counts first transmissions (sequenced or not, delivered or
        /// lost); retransmissions and channel acks are charged to
        /// [`Protocol::Transport`], so the sum across all families equals the
        /// fabric's total send count.
        msgs_out: Counter,
        /// Messages dispatched to this protocol's handler. For
        /// [`Protocol::Transport`] this counts channel acks received and
        /// suppressed duplicates; self-addressed timers never cross the fabric
        /// and are not counted.
        msgs_in: Counter,
        /// RPCs registered by this protocol.
        rpcs_issued: Counter,
        /// RPCs completed (first completion only; deadline failures included).
        rpcs_completed: Counter,
        /// Messages this protocol lost because an endpoint had crashed — the
        /// per-family breakdown of the fabric's `FaultCounters::crash_drops`,
        /// attributed at the sender (first transmissions and abandoned
        /// retransmit chains to/from a dead kernel).
        crash_drops: Counter,
        /// Serialized service time at this protocol's home-kernel server, per
        /// served request.
        service: Histogram => "service_us_mean" / 1e3,
    }
}

/// Per-protocol counters, indexed by [`Protocol`].
#[derive(Debug, Default)]
pub struct ProtoStats([ProtoCounters; Protocol::ALL.len()]);

impl ProtoStats {
    /// The counters for `p`.
    pub fn of(&mut self, p: Protocol) -> &mut ProtoCounters {
        &mut self.0[p as usize]
    }

    /// Read access to the counters for `p`.
    pub fn get(&self, p: Protocol) -> &ProtoCounters {
        &self.0[p as usize]
    }
}

metric_table! {
    /// Counters and latency histograms for the replicated-kernel protocols.
    pub struct PopStats {
        /// First-visit migrations (fresh task creation at the target).
        migrations_first: Counter,
        /// Back-migrations (shadow revival).
        migrations_back: Counter,
        /// End-to-end latency of first-visit migrations (syscall to resume).
        migration_first_lat: Histogram => "migration_first_us_mean" / 1e3,
        /// End-to-end latency of back-migrations.
        migration_back_lat: Histogram => "migration_back_us_mean" / 1e3,
        /// Faults resolved entirely at the faulting (home) kernel.
        faults_local: Counter,
        /// Remote read faults (page fetched from another kernel).
        faults_remote_read: Counter,
        /// Remote write faults (invalidation round).
        faults_remote_write: Counter,
        /// Latency of local fault service.
        fault_local_lat: Histogram => "fault_local_us_mean" / 1e3,
        /// Latency of remote read faults (fault to resume).
        fault_remote_read_lat: Histogram => "fault_remote_read_us_mean" / 1e3,
        /// Latency of remote write faults.
        fault_remote_write_lat: Histogram => "fault_remote_write_us_mean" / 1e3,
        /// Pages shipped between kernels.
        page_transfers: Counter,
        /// Invalidation messages sent.
        invalidations: Counter,
        /// Sync-word ops served on the local fast path.
        rmw_local: Counter,
        /// Sync-word ops forwarded to the home kernel.
        rmw_remote: Counter,
        /// Futex syscalls served locally.
        futex_local: Counter,
        /// Futex syscalls forwarded to the home kernel.
        futex_remote: Counter,
        /// Threads created on the caller's kernel.
        clone_local: Counter,
        /// Remote thread creations (distributed group growth).
        clone_remote: Counter,
        /// Latency of remote thread creation (syscall to parent resume).
        clone_remote_lat: Histogram => "clone_remote_us_mean" / 1e3,
        /// VMA operations served at the caller's (home) kernel.
        vma_local: Counter,
        /// VMA operations forwarded to the home kernel.
        vma_remote: Counter,
        /// On-demand VMA retrievals.
        vma_fetches: Counter,

        // --- Reliability layer (only non-zero when fault injection is on) ---
        /// Messages retransmitted after an injected loss.
        retransmits: Counter,
        /// Total virtual time spent waiting in retransmit backoff.
        retx_backoff_ns: Counter => "retx_backoff_ms" / 1e6,
        /// Messages abandoned after exhausting every transmission attempt.
        msgs_abandoned: Counter,
        /// Messages lost with the reliability layer disabled (raw loss).
        msgs_lost_raw: Counter,
        /// Injected duplicates suppressed by sequence-number checks.
        dup_suppressed: Counter,
        /// Channel-level acknowledgements sent for sequenced messages.
        acks_sent: Counter,
        /// RPCs failed by their response deadline.
        rpc_timeouts: Counter,
        /// Migrations aborted back to the origin kernel (thread resumes there
        /// with `EIO`).
        migrations_aborted: Counter,
        /// Remote operations completed with `EIO` instead of wedging.
        ops_failed: Counter,
        /// Tasks killed because an unrecoverable fault hit a path with no
        /// error return (page faults, sync words).
        fault_kills: Counter,

        // --- Migration policy (only non-zero when a policy is active) ---
        /// Policy-initiated migrations (balance moves and granted steals).
        policy_migrations: Counter,
        /// Steal requests sent by an idle kernel's policy.
        steal_reqs: Counter,
        /// Steal requests granted by the victim (subset of
        /// `policy_migrations`).
        policy_steals: Counter,
        /// Wakers migrated toward the waiters they woke (futex locality).
        wake_chases: Counter,
        /// Scripted migration targets overridden by the policy's redirect
        /// hook (e.g. `FaultAware` steering around a crashed kernel).
        policy_redirects: Counter,
        /// Load snapshots disseminated on the fabric (one per policy tick).
        telemetry_reports: Counter,

        // --- Crash recovery (only non-zero when a crash is planned) ---
        /// Crash declarations: one per (survivor, victim) detection timer that
        /// found the victim not yet declared.
        kernels_declared_dead: Counter,
        /// Deliveries dropped because the sender was already declared dead at
        /// the receiver (epoch fencing).
        fenced_msgs: Counter,
        /// Threads that died with their hosting kernel and were reaped from
        /// group membership by recovery (killed with 128+SIGKILL).
        orphans_killed: Counter,
        /// Directory entries whose dead owner was replaced by promoting a
        /// surviving copy.
        pages_promoted: Counter,
        /// Directory entries whose only copy died with the kernel — faults on
        /// them now fail explicitly instead of resurrecting zeroes.
        pages_lost: Counter,
        /// Futex waiters swept by recovery: woken locally or remotely with
        /// `EOWNERDEAD` so they can revalidate instead of sleeping forever.
        futex_recovered: Counter,
        /// Outstanding RPCs aimed at the dead kernel that recovery failed over
        /// (page waits re-driven at the new home; others completed with
        /// `EOWNERDEAD`).
        rpcs_failed_over: Counter,
        /// Directory/page-table entries walked by crash recovery: survivor
        /// page-table scans feeding a directory rebuild, reclaimed entries when
        /// the home survived, and replica reseeding after a rebuild.
        recovery_pages_scanned: Counter,
        /// Crash-to-recovery-complete latency, in ns, recorded at the successor
        /// kernel per declaration: the ack-silence detection window plus the
        /// modeled cost of the recovery work it then performed (orphan reaping,
        /// directory rebuild or reclaim, futex sweep, RPC failover) — not just
        /// the constant detection window.
        recovery_latency: Histogram => "recovery_ms_mean" / 1e6,

        // --- Page-table replication (only non-zero when enabled) ---
        /// Faults whose page walk hit a local page-table replica.
        replica_local_walks: Counter,
        /// Faults that had to walk the home's page tables across the fabric
        /// (no local replica).
        replica_remote_walks: Counter,
        /// Page-table replicas seeded at a kernel (eager first-fault or
        /// policy-requested).
        replica_installs: Counter,
        /// Replica page-table-entry updates applied at holder kernels.
        replica_updates: Counter,
        /// Page-table replicas evicted because a holder cap was exceeded (the
        /// NUMA-farthest idle holder is dropped first).
        replica_evictions: Counter,

        // --- Hierarchical home sharding (only non-zero when enabled) ---
        /// Pages the root home delegated to a per-socket home delegate on
        /// first touch.
        shard_delegated_pages: Counter,
        /// Delegated pages escalated back to the root home after cross-socket
        /// activity was observed.
        shard_escalations: Counter,
        /// Page requests that arrived at a kernel no longer serving the page
        /// and were forwarded to the current server (delegation/escalation
        /// races).
        shard_forwards: Counter,
    }
    extra {
        /// Home-service occupancy across every page service point (each
        /// group's home directory server plus any per-socket delegate
        /// servers). Servers fold themselves in when their group is reaped;
        /// still-live ones are added at report time.
        home_service: HomeServiceAgg,

        /// Per-protocol traffic/service accounting (one entry per `machine/`
        /// protocol module).
        proto: ProtoStats,
    }
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
        self.saturations()
            + Protocol::ALL
                .iter()
                .map(|&p| self.proto.get(p).saturations())
                .sum::<u64>()
    }

    /// Flattens into named metrics for [`RunReport`](popcorn_kernel::RunReport).
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        self.export("", &mut m);
        m.insert("hist_saturations".into(), self.hist_saturations() as f64);
        for p in Protocol::ALL {
            let prefix = format!("proto_{}_", p.name());
            self.proto.get(p).export(&prefix, &mut m);
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

    #[test]
    fn hist_saturations_cover_every_histogram() {
        // The full-range default histogram never saturates, so install a
        // narrow one to make an out-of-range sample countable.
        let mut s = PopStats {
            recovery_latency: Histogram::with_groups(8),
            ..PopStats::default()
        };
        s.recovery_latency.record(u64::MAX);
        assert_eq!(s.metrics()["hist_saturations"], 1.0);
    }
}
