//! Popcorn-specific protocol cost constants and feature toggles.

use popcorn_kernel::policy::PolicyKind;
use popcorn_msg::RetxPolicy;

/// Costs of Popcorn's migration/consistency protocols (software paths, on
/// top of the message layer) plus the ablation toggles DESIGN.md calls out.
#[derive(Debug, Clone, PartialEq)]
pub struct PopcornParams {
    /// Marshalling a thread's context + live stack into a migration message.
    pub migration_marshal_ns: u64,
    /// Reviving a dormant shadow task on back-migration (the cheap path).
    pub migration_revive_ns: u64,
    /// Creating a fresh task for a first-visit migration (on top of the
    /// kernel's `clone_base_ns`).
    pub migration_create_extra_ns: u64,
    /// Directory lookup / update at the home kernel per page request.
    pub page_dir_service_ns: u64,
    /// Installing a received page (map + copy into place).
    pub page_install_ns: u64,
    /// Servicing an invalidation at a holder (unmap + local TLB flush).
    pub page_inval_service_ns: u64,
    /// Snapshotting + downgrading a page at the owner on a read fetch.
    pub page_fetch_service_ns: u64,
    /// Futex/sync-word service at the home kernel per remote request.
    pub futex_remote_service_ns: u64,
    /// VMA operation service at the home kernel (on top of `mmap_base_ns`).
    pub vma_service_ns: u64,
    /// Ablation: reuse dormant shadow tasks on back-migration (paper
    /// optimization; `false` forces the fresh-creation path every time).
    pub shadow_task_reuse: bool,
    /// Ablation: resolve sync-word ops locally when the group's home is
    /// this kernel (`false` forces an RPC-shaped cost even at home).
    pub futex_local_fastpath: bool,
    /// Extension beyond the paper: home each synchronization word at the
    /// kernel that touches it first instead of the group's origin kernel
    /// (the paper's global futex server). Makes group-local barriers
    /// kernel-local; see the `ablate-hier` experiment.
    pub sync_first_touch_homing: bool,
    /// Ablation: replicate the whole VMA layout with each migration
    /// (`false` = the paper's on-demand VMA retrieval).
    pub eager_vma_replication: bool,
    /// Reliable delivery over a faulty fabric: sequence numbers, duplicate
    /// suppression, retransmission with backoff, and RPC deadlines. Only
    /// engaged when the fabric's [`popcorn_msg::FaultPlan`] is active —
    /// with no faults the send path is byte-identical with this on or off.
    /// `false` exposes raw loss (used to demonstrate stuck tasks).
    pub reliable_delivery: bool,
    /// First retransmit backoff after a loss.
    pub retx_base_ns: u64,
    /// Backoff ceiling (exponential growth is clamped here).
    pub retx_cap_ns: u64,
    /// Total transmission attempts (first send + retransmits) before the
    /// sender gives up and fails the operation.
    pub retx_max_attempts: u32,
    /// Response deadline for RPCs issued while faults are active; an
    /// expired request completes with `EIO` instead of wedging its caller.
    /// Must comfortably exceed the worst-case retransmit chain
    /// (`Σ min(retx_base·2ⁱ, retx_cap)` plus service and response time).
    pub rpc_deadline_ns: u64,
    /// Migration policy. The default, [`PolicyKind::ScriptedOnly`], runs no
    /// telemetry and no policy hooks at all — scripted experiments stay
    /// byte-identical. Any other kind turns on per-kernel load-telemetry
    /// publication and periodic policy ticks.
    pub policy: PolicyKind,
    /// Period of the per-kernel telemetry/policy tick. Each tick publishes
    /// the kernel's load snapshot, forwards it to one peer on the fabric
    /// (the modeled dissemination cost), and runs the policy's balance and
    /// steal hooks. Ignored under `ScriptedOnly`.
    pub telemetry_period_ns: u64,
    /// Software cost charged for evaluating the policy on a migration it
    /// initiates (added to the marshalling path). Ignored under
    /// `ScriptedOnly`.
    pub policy_eval_ns: u64,
    /// Crash recovery engages whenever the fault plan scripts a crash and
    /// reliable delivery is on: survivors detect the crash, fence the dead
    /// kernel behind a membership epoch, and a deterministic successor
    /// re-homes its groups, directory entries and futex waiters.
    ///
    /// Ack-silence window before survivors declare a crashed peer dead,
    /// measured from the crash instant. Models the paper fleet's heartbeat
    /// timeout; must exceed the worst-case retransmit chain so a message
    /// still being retried cannot arrive after its sender was declared
    /// dead (validated at build time when a crash is planned).
    pub crash_detect_ns: u64,
    /// Modeled cost per orphaned task the successor reaps during crash
    /// recovery (teardown + membership bookkeeping). Feeds the
    /// `recovery_latency` accounting only — it schedules no events, so it
    /// cannot perturb virtual time.
    pub recovery_task_kill_ns: u64,
    /// Modeled cost per directory/page-table entry walked during recovery
    /// (survivor scans for a rebuild, reclaimed entries otherwise).
    pub recovery_page_scan_ns: u64,
    /// Modeled cost per futex waiter swept with `EOWNERDEAD`.
    pub recovery_futex_sweep_ns: u64,
    /// Modeled cost per outstanding RPC failed over (re-driven or errored).
    pub recovery_rpc_failover_ns: u64,
    /// Per-kernel page-table replicas: the master gate for the
    /// walk-locality model. When on, every page fault is charged a walk by
    /// replica locality (`HwParams::local_replica_walk_ns` at a kernel
    /// holding a replica of the group's tables,
    /// `HwParams::remote_page_walk_ns` otherwise), and the home pushes
    /// replica updates to holders over the reliable fabric as the
    /// directory changes. `false` (the default) takes a single boolean
    /// branch everywhere and leaves every result byte-identical.
    pub page_table_replication: bool,
    /// Replica acquisition: seed a page-table replica at a kernel on its
    /// first page request reaching the home (Mitosis-style eager
    /// self-replication). `false` leaves acquisition to the policy's
    /// co-placement hook (or nobody — only the home walks locally).
    /// Requires `page_table_replication`.
    pub replicate_on_first_fault: bool,
    /// Software cost of applying one pushed replica update at a holder (on
    /// top of the hardware `HwParams::pt_replica_update_ns`).
    pub replica_update_service_ns: u64,
    /// Per-entry cost of seeding a freshly granted replica from the home's
    /// directory (charged at the new holder, scaled by directory size).
    pub replica_install_page_ns: u64,
    /// Hierarchical home sharding: give every NUMA socket a *home
    /// delegate* kernel that serves the page-directory traffic for pages
    /// whose group activity is socket-local, while the group's root home
    /// keeps the shard map and arbitrates cross-socket pages (see
    /// DESIGN.md "Hierarchical homes"). `false` (the default) leaves every
    /// page at the flat root home and is provably inert: one boolean
    /// branch per routing site, results byte-identical to pre-sharding
    /// builds.
    pub home_sharding: bool,
    /// Upper bound on a group's page-table replica holder set (the home's
    /// authoritative tables count as one). When a new holder registers
    /// past the cap, the holder whose socket is NUMA-farthest from the
    /// home is evicted (ties broken toward the highest kernel id). `0`
    /// (the default) means uncapped — the pre-existing behaviour where
    /// `pt_holders` never shrinks outside crashes.
    pub pt_replica_cap: u32,
}

impl Default for PopcornParams {
    fn default() -> Self {
        PopcornParams {
            migration_marshal_ns: 2_400,
            migration_revive_ns: 1_900,
            migration_create_extra_ns: 5_500,
            page_dir_service_ns: 650,
            page_install_ns: 700,
            page_inval_service_ns: 600,
            page_fetch_service_ns: 750,
            futex_remote_service_ns: 450,
            vma_service_ns: 900,
            shadow_task_reuse: true,
            futex_local_fastpath: true,
            sync_first_touch_homing: false,
            eager_vma_replication: false,
            reliable_delivery: true,
            retx_base_ns: 50_000,
            retx_cap_ns: 2_000_000,
            retx_max_attempts: 10,
            rpc_deadline_ns: 100_000_000,
            policy: PolicyKind::ScriptedOnly,
            telemetry_period_ns: 50_000,
            policy_eval_ns: 400,
            // Worst-case retransmit chain at the default policy is
            // Σ min(50µs·2ⁱ, 2ms) ≈ 11.55ms; 12ms clears it.
            crash_detect_ns: 12_000_000,
            recovery_task_kill_ns: 40_000,
            recovery_page_scan_ns: 800,
            recovery_futex_sweep_ns: 3_000,
            recovery_rpc_failover_ns: 5_000,
            page_table_replication: false,
            replicate_on_first_fault: false,
            replica_update_service_ns: 500,
            replica_install_page_ns: 150,
            home_sharding: false,
            pt_replica_cap: 0,
        }
    }
}

impl PopcornParams {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        // The retransmit bounds live in `RetxPolicy` (popcorn-msg), which
        // owns their validation; surface its verdict here so a bad knob is
        // caught at build time instead of misbehaving silently.
        self.retx_policy().validate()?;
        if self.rpc_deadline_ns == 0 {
            return Err("rpc_deadline_ns must be non-zero".into());
        }
        // The deadline exists to catch *unrecoverable* loss; if a healthy
        // retransmit chain can outlive it, transient faults get misreported
        // as failures.
        let worst_chain = self.worst_retx_chain_ns();
        if self.rpc_deadline_ns < 2 * worst_chain {
            return Err(format!(
                "rpc_deadline_ns ({}) must be at least twice the worst-case \
                 retransmit chain ({worst_chain} ns) so transient loss is not \
                 reported as failure",
                self.rpc_deadline_ns
            ));
        }
        if self.policy != PolicyKind::ScriptedOnly && self.telemetry_period_ns == 0 {
            return Err("telemetry_period_ns must be non-zero when a policy is active".into());
        }
        if self.replicate_on_first_fault && !self.page_table_replication {
            return Err("replicate_on_first_fault requires page_table_replication \
                 (there are no replicas to seed without the walk-locality model)"
                .into());
        }
        if self.policy == PolicyKind::ReplicaAware && !self.page_table_replication {
            return Err("the replica-aware policy requires page_table_replication \
                 (its co-placement hook has nothing to act on without replicas)"
                .into());
        }
        if self.pt_replica_cap > 0 && !self.page_table_replication {
            return Err("pt_replica_cap requires page_table_replication \
                 (there is no holder set to bound without the replica model)"
                .into());
        }
        if self.pt_replica_cap == 1 {
            return Err("pt_replica_cap must be 0 (uncapped) or at least 2: the \
                 home's authoritative tables always count as one holder"
                .into());
        }
        if self.home_sharding && self.page_table_replication {
            return Err("home_sharding and page_table_replication are mutually \
                 exclusive in this version (replica grants ship the root \
                 directory wholesale, which a sharded directory cannot serve)"
                .into());
        }
        Ok(())
    }

    /// The retransmission knobs as a [`RetxPolicy`] for the shared
    /// reliable-delivery endpoint in `popcorn-msg`.
    pub fn retx_policy(&self) -> RetxPolicy {
        RetxPolicy {
            base_ns: self.retx_base_ns,
            cap_ns: self.retx_cap_ns,
            max_attempts: self.retx_max_attempts,
        }
    }

    /// Backoff before retransmit number `attempt` (1-based: the delay
    /// scheduled after the `attempt`-th failed transmission). Delegates to
    /// [`RetxPolicy::backoff_ns`] so there is exactly one implementation.
    pub fn retx_backoff_ns(&self, attempt: u32) -> u64 {
        self.retx_policy().backoff_ns(attempt)
    }

    /// Total backoff of a maximally unlucky retransmit chain, in ns — the
    /// longest a message can still legitimately be in flight (being
    /// retried) after its first transmission. The crash-detection window
    /// must exceed this so no straggler outlives its sender's obituary.
    pub fn worst_retx_chain_ns(&self) -> u64 {
        (1..=self.retx_max_attempts)
            .map(|a| self.retx_backoff_ns(a))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(PopcornParams::default().validate(), Ok(()));
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = PopcornParams::default();
        assert_eq!(p.retx_backoff_ns(1), 50_000);
        assert_eq!(p.retx_backoff_ns(2), 100_000);
        assert_eq!(p.retx_backoff_ns(5), 800_000);
        assert_eq!(p.retx_backoff_ns(7), 2_000_000); // clamped
        assert_eq!(p.retx_backoff_ns(63), 2_000_000);
    }

    #[test]
    fn bad_reliability_knobs_rejected() {
        let p = PopcornParams {
            retx_max_attempts: 0,
            ..PopcornParams::default()
        };
        assert!(p.validate().is_err());
        let p = PopcornParams {
            retx_cap_ns: 10,
            ..PopcornParams::default()
        };
        assert!(p.validate().is_err());
        let p = PopcornParams {
            rpc_deadline_ns: 1_000, // shorter than the retransmit chain
            ..PopcornParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn retx_bounds_delegate_to_retx_policy_validation() {
        // Inverted base/cap and zero base are now caught by
        // RetxPolicy::validate, surfaced through PopcornParams::validate.
        let inverted = PopcornParams {
            retx_base_ns: 3_000_000,
            retx_cap_ns: 2_000_000,
            ..PopcornParams::default()
        };
        assert!(inverted.validate().unwrap_err().contains("cap_ns"));
        let zero_base = PopcornParams {
            retx_base_ns: 0,
            ..PopcornParams::default()
        };
        assert!(zero_base.validate().is_err());
    }

    #[test]
    fn worst_retx_chain_matches_backoff_sum() {
        let p = PopcornParams::default();
        let by_hand: u64 = (1..=p.retx_max_attempts)
            .map(|a| p.retx_backoff_ns(a))
            .sum();
        assert_eq!(p.worst_retx_chain_ns(), by_hand);
        // Defaults: 50µs doubling to the 2ms cap over 10 attempts ≈ 11.55ms,
        // which the default crash_detect_ns (12ms) must clear.
        assert!(p.crash_detect_ns > p.worst_retx_chain_ns());
    }

    #[test]
    fn replication_knobs_validate() {
        let eager_without_model = PopcornParams {
            replicate_on_first_fault: true,
            ..PopcornParams::default()
        };
        assert!(eager_without_model.validate().is_err());
        let policy_without_model = PopcornParams {
            policy: PolicyKind::ReplicaAware,
            ..PopcornParams::default()
        };
        assert!(policy_without_model.validate().is_err());
        let ok = PopcornParams {
            page_table_replication: true,
            replicate_on_first_fault: true,
            policy: PolicyKind::ReplicaAware,
            ..PopcornParams::default()
        };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn sharding_and_eviction_knobs_validate() {
        let cap_without_model = PopcornParams {
            pt_replica_cap: 3,
            ..PopcornParams::default()
        };
        assert!(cap_without_model.validate().is_err());
        let cap_of_one = PopcornParams {
            page_table_replication: true,
            pt_replica_cap: 1,
            ..PopcornParams::default()
        };
        assert!(cap_of_one.validate().is_err());
        let capped = PopcornParams {
            page_table_replication: true,
            pt_replica_cap: 2,
            ..PopcornParams::default()
        };
        assert_eq!(capped.validate(), Ok(()));
        let sharded = PopcornParams {
            home_sharding: true,
            ..PopcornParams::default()
        };
        assert_eq!(sharded.validate(), Ok(()));
        let sharded_replicated = PopcornParams {
            home_sharding: true,
            page_table_replication: true,
            ..PopcornParams::default()
        };
        assert!(sharded_replicated.validate().is_err());
    }

    #[test]
    fn active_policy_requires_telemetry_period() {
        let p = PopcornParams {
            policy: PolicyKind::LoadThreshold,
            telemetry_period_ns: 0,
            ..PopcornParams::default()
        };
        assert!(p.validate().is_err());
        let scripted = PopcornParams {
            telemetry_period_ns: 0,
            ..PopcornParams::default()
        };
        assert_eq!(scripted.validate(), Ok(()), "ignored under ScriptedOnly");
    }
}
