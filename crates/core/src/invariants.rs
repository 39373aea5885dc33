//! Global liveness and consistency invariants, checked after every
//! completed run.
//!
//! A completed run means the event queue fully drained: everything still
//! inconsistent at that point is permanent damage, not work in flight. The
//! checker runs at the end of every `run_with` on [`crate::PopcornOs`], so
//! every experiment — fault-free, faulty, and crash-recovery — ends with a
//! machine-wide audit rather than trusting per-path cleanup:
//!
//! 1. **No thread lost or duplicated** — a tid has at most one live
//!    (non-shadow, non-exited) instance across all kernels.
//! 2. **Membership is truthful** — every recorded group member is a live
//!    task at its recorded location, and (under crashes) that location is
//!    a live kernel.
//! 3. **The directory names no dead kernel** — no live entry's owner or
//!    copyset member is a crashed kernel, and no transfer is wedged busy.
//! 4. **No futex waiter resides on a dead kernel** — recovery swept them.
//! 5. **No RPC wedged past its deadline** — with the reliability layer
//!    active, a drained queue means every deadline fired, so live kernels
//!    hold no outstanding requests and no blocked tasks.
//! 6. **Page-table replicas agree with the directory** — with replication
//!    on, every holder's shadow entry matches the directory's version for
//!    every page both still track (lossless, crash-free runs), and no
//!    holder is a crashed kernel.
//! 7. **Shard map and delegates agree** — with home sharding off, no
//!    shard state exists at all (map, escalation marks, shard
//!    directories, delegate servers — the inertness guarantee); with it
//!    on, every mapped page is tracked by exactly the named delegate's
//!    shard and by no other directory, every escalation mark names a
//!    mapped page, and no live delegation points at a dead kernel.
//!
//! Checks 2's kernel-liveness clause, 3's dead-kernel clauses and 4 only
//! apply when crash recovery actually engaged; 5 only when the
//! reliability layer ran (raw-loss ablations wedge by design — that loss
//! is the measurement). Structural checks 1–3 and 7 (self-consistency)
//! hold unconditionally.

use popcorn_msg::KernelId;
use popcorn_sim::SimTime;

use crate::machine::PopcornMachine;

/// Audits the machine's terminal state; `Err` carries one line per
/// violation (deterministic order).
pub fn check(m: &PopcornMachine, now: SimTime) -> Result<(), Vec<String>> {
    let mut bad = Vec::new();
    let fabric = m.fabric();
    let recovery = m.recovery().scheduled;
    let reliable = m.params().reliable_delivery && fabric.faults_active();
    // Raw-loss ablations (faults without the reliability layer) lose
    // threads and wedge conversations *by design* — demonstrating that is
    // their purpose — so truthful membership is only demanded when the
    // substrate actually promises it.
    let lossless = !fabric.faults_active() || m.params().reliable_delivery;
    let crashed = |k: KernelId| recovery && fabric.is_crashed(k, now);

    // 1. No thread lost or duplicated.
    let mut seen: std::collections::BTreeMap<popcorn_kernel::types::Tid, usize> =
        std::collections::BTreeMap::new();
    for (ki, k) in m.kernels().iter().enumerate() {
        for tid in k.task_ids() {
            let live = k
                .task(tid)
                .is_some_and(|t| !t.is_exited() && !t.is_shadow());
            if live {
                if let Some(&other) = seen.get(&tid) {
                    bad.push(format!(
                        "{tid} is live on kernel {other} and kernel {ki} at once"
                    ));
                }
                seen.insert(tid, ki);
            }
        }
    }

    // 2. Membership is truthful.
    for (&group, h) in m.groups() {
        for tid in h.member_tids() {
            let Some(loc) = h.member_location(tid) else {
                continue;
            };
            if crashed(loc) {
                bad.push(format!(
                    "{group:?} records member {tid} on dead kernel {loc:?}"
                ));
                continue;
            }
            let ki = loc.0 as usize;
            let live = m.kernels()[ki]
                .task(tid)
                .is_some_and(|t| !t.is_exited() && !t.is_shadow());
            if lossless && !live {
                bad.push(format!(
                    "{group:?} records member {tid} on kernel {ki} but no live task exists there"
                ));
            }
        }

        // 3. The directory — every shard of it — names no dead kernel and
        // holds no wedged transfer.
        let mut shards: Vec<(Option<KernelId>, &crate::directory::Directory)> =
            vec![(None, &h.dir)];
        for d in h.shard_delegates() {
            if let Some(dir) = h.shard_dir_ref(d) {
                shards.push((Some(d), dir));
            }
        }
        for (delegate, dir) in &shards {
            let at = delegate.map_or_else(|| "home".to_string(), |d| format!("shard {d:?}"));
            for page in dir.pages() {
                let Some(v) = dir.view(page) else { continue };
                if crashed(v.owner) {
                    bad.push(format!(
                        "{group:?} {page} ({at}) owned by dead kernel {:?}",
                        v.owner
                    ));
                }
                for &c in &v.copyset {
                    if crashed(c) {
                        bad.push(format!(
                            "{group:?} {page} ({at}) copyset names dead kernel {c:?}"
                        ));
                    }
                }
                if reliable && v.busy {
                    bad.push(format!(
                        "{group:?} {page} ({at}) transfer still busy after the queue drained"
                    ));
                }
            }
        }

        // 6. Page-table replicas agree with the directory. At drain every
        // pushed update has been applied, so a holder's shadow must match
        // the directory version for every page both still track (shadow-
        // only entries are stale mappings awaiting the next push — legal;
        // dir-only entries are pages the holder never observed). Lossy
        // runs drop pushes by design, and a post-crash rebuild can
        // legitimately disagree with pre-crash pushes still in flight at
        // the instant of death, so both are excluded. Holders must also
        // never name a dead kernel once recovery engaged.
        if m.params().page_table_replication {
            for k in h.pt_holders() {
                if crashed(k) {
                    bad.push(format!("{group:?} page-table holder {k:?} is dead"));
                }
            }
            if lossless && !recovery {
                let home = h.home();
                for k in h.pt_holders() {
                    if k == home {
                        continue; // the home's tables are the directory
                    }
                    for (page, shadow_v) in h.pt_shadow_of(k) {
                        if let Some(v) = h.dir.view(page) {
                            if v.version != shadow_v {
                                bad.push(format!(
                                    "{group:?} {page} replica at {k:?} holds v{shadow_v}, directory holds v{}",
                                    v.version
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    // 7. Shard map and delegates agree (mirrors check 6's discipline for
    // the page-table shadows).
    let sharding = m.sharding();
    if !m.params().home_sharding {
        // Inertness: with sharding off no shard state may exist anywhere.
        if !sharding.map.is_empty() {
            bad.push(format!(
                "home sharding is off but the shard map holds {} entr(ies)",
                sharding.map.len()
            ));
        }
        if !sharding.escalate.is_empty() {
            bad.push(format!(
                "home sharding is off but {} escalation mark(s) exist",
                sharding.escalate.len()
            ));
        }
        for (&group, h) in m.groups() {
            let ds = h.shard_delegates();
            if !ds.is_empty() {
                bad.push(format!(
                    "home sharding is off but {group:?} holds {} shard director(ies)",
                    ds.len()
                ));
            }
        }
        if !m.delegate_servers().is_empty() {
            bad.push(format!(
                "home sharding is off but {} delegate server(s) exist",
                m.delegate_servers().len()
            ));
        }
    } else {
        for (&(group, page), &d) in &sharding.map {
            let Some(h) = m.groups().get(&group) else {
                bad.push(format!(
                    "shard map names reaped group {group:?} (page {page})"
                ));
                continue;
            };
            if crashed(d) {
                bad.push(format!("{group:?} {page} delegated to dead kernel {d:?}"));
            }
            if h.shard_dir_ref(d)
                .is_none_or(|dir| dir.view(page).is_none())
            {
                bad.push(format!(
                    "{group:?} {page} mapped to {d:?} but its shard does not track it"
                ));
            }
            if h.dir.view(page).is_some() {
                bad.push(format!(
                    "{group:?} {page} delegated to {d:?} but still tracked by the root directory"
                ));
            }
            for other in h.shard_delegates() {
                if other != d
                    && h.shard_dir_ref(other)
                        .is_some_and(|x| x.view(page).is_some())
                {
                    bad.push(format!(
                        "{group:?} {page} mapped to {d:?} but also tracked by shard {other:?}"
                    ));
                }
            }
        }
        for &(group, page) in &sharding.escalate {
            if !sharding.map.contains_key(&(group, page)) {
                bad.push(format!(
                    "{group:?} {page} marked for escalation without a shard-map entry"
                ));
            }
        }
        for (&group, h) in m.groups() {
            for d in h.shard_delegates() {
                let Some(dir) = h.shard_dir_ref(d) else {
                    continue;
                };
                for page in dir.pages() {
                    if sharding.map.get(&(group, page)) != Some(&d) {
                        bad.push(format!(
                            "{group:?} {page} tracked by shard {d:?} without a matching map entry"
                        ));
                    }
                }
            }
        }
    }

    // 4. No futex waiter resides on a dead kernel.
    if recovery {
        for ki in 0..m.kernels().len() {
            let k = KernelId(ki as u16);
            if !fabric.is_crashed(k, now) {
                continue;
            }
            let n = m.futex_table().resident_waiters(k);
            if n != 0 {
                bad.push(format!("{n} futex waiter(s) still parked on dead {k:?}"));
            }
        }
    }

    // 5. No RPC wedged past its deadline, no task blocked forever.
    if reliable {
        for (ki, ep) in m.rpcs().iter().enumerate() {
            if crashed(KernelId(ki as u16)) {
                continue; // frozen state died with the kernel
            }
            let n = ep.outstanding();
            if n != 0 {
                bad.push(format!(
                    "kernel {ki} holds {n} outstanding RPC(s) after every deadline passed"
                ));
            }
        }
        for (ki, k) in m.kernels().iter().enumerate() {
            if crashed(KernelId(ki as u16)) {
                continue;
            }
            for tid in k.blocked_tasks() {
                bad.push(format!("{tid} still blocked on kernel {ki} at queue drain"));
            }
        }
    }

    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad)
    }
}
