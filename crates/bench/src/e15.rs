//! E15 — page-table replication ablation: the same adversarial memory
//! workloads run with replication off, on-but-empty, eagerly seeded, and
//! under the replica-aware co-placement policy.
//!
//! With `page_table_replication` off (the default everywhere else in the
//! suite) the fault path charges no walk latency at all — that run is the
//! byte-identity baseline. Turning the gate on makes every fault pay for
//! its page walk by replica locality: a kernel holding a replica of the
//! group's tables walks locally (`local_replica_walk_ns`), everyone else
//! walks the home's tables across the fabric (`remote_page_walk_ns`).
//! The ablation then sweeps how replicas come to exist:
//!
//! * **no replicas** — the gate is on but nothing ever replicates, so
//!   only the home walks locally; the worst case for walk latency but
//!   zero maintenance traffic.
//! * **eager** — `replicate_on_first_fault` seeds a replica at a
//!   kernel's first fault against the group (Mitosis-style), trading
//!   install + per-update push costs for local walks afterwards.
//! * **replica-aware policy** — `PolicyKind::ReplicaAware` decides at
//!   telemetry ticks whether to replicate toward threads or migrate
//!   threads toward an existing replica (Phoenix-style co-placement).
//!
//! Two scenarios stress opposite ends: the migration ping-pong
//! (`migrating_writers`) drags private working sets around the kernel
//! ring so every hop faults at a kernel that has never walked the
//! group's tables (walk latency dominates; replication should pay),
//! while the hot-page skew rewrites the same few pages from every kernel
//! (version churn dominates; replication's per-update maintenance bill
//! shows up). The E15 claim in [`crate::check`] gates the shape on
//! `results/e15.json`.

use popcorn_core::PopcornParams;
use popcorn_kernel::policy::PolicyKind;
use popcorn_workloads::adversarial;

use crate::rig::{Cell, OsKind, Plan, Rig};
use crate::table::Table;

/// The two adversarial memory scenarios E15 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Ring hoppers dragging private working sets: every hop rewrites
    /// the worker's own pages at a kernel that has never walked the
    /// group's tables.
    PingPong,
    /// Every worker rewrites the same four pages: version churn turns
    /// into a replica-update storm once holders exist.
    HotPages,
}

impl Scenario {
    /// Both, in table order.
    const ALL: [Scenario; 2] = [Scenario::PingPong, Scenario::HotPages];

    /// Row label.
    fn name(self) -> &'static str {
        match self {
            Scenario::PingPong => "ping-pong storm",
            Scenario::HotPages => "hot-page skew",
        }
    }
}

/// The four replication configurations, off → increasingly managed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Config {
    /// `page_table_replication` off: the byte-identity baseline.
    Off,
    /// Gate on, but no acquisition path: remote walks everywhere but home.
    NoReplicas,
    /// Gate on plus `replicate_on_first_fault`.
    Eager,
    /// Gate on plus the replica-aware co-placement policy.
    ReplicaAware,
}

impl Config {
    /// All four, in table order.
    const ALL: [Config; 4] = [
        Config::Off,
        Config::NoReplicas,
        Config::Eager,
        Config::ReplicaAware,
    ];

    /// Row label.
    fn name(self) -> &'static str {
        match self {
            Config::Off => "off",
            Config::NoReplicas => "on, no replicas",
            Config::Eager => "on, eager",
            Config::ReplicaAware => "on, replica-aware",
        }
    }

    fn params(self) -> PopcornParams {
        match self {
            Config::Off => PopcornParams::default(),
            Config::NoReplicas => PopcornParams {
                page_table_replication: true,
                ..PopcornParams::default()
            },
            Config::Eager => PopcornParams {
                page_table_replication: true,
                replicate_on_first_fault: true,
                ..PopcornParams::default()
            },
            Config::ReplicaAware => PopcornParams {
                page_table_replication: true,
                policy: PolicyKind::ReplicaAware,
                ..PopcornParams::default()
            },
        }
    }
}

/// E15 — the replication ablation table. Cells are keyed
/// `e15/<scenario>/<config>`; each run must drain cleanly and pass the
/// invariant audit, which cross-checks every holder's shadow against the
/// directory.
pub fn e15_replication() -> Plan {
    let mut cells = Vec::new();
    for sc in Scenario::ALL {
        for cfg in Config::ALL {
            let key = format!("e15/{sc:?}/{cfg:?}").to_lowercase();
            cells.push(Cell::new(key, move || {
                let rig = Rig {
                    popcorn: cfg.params(),
                    ..Rig::paper()
                };
                let program = match sc {
                    Scenario::PingPong => adversarial::migrating_writers(6, 16, 4, 2, 20_000),
                    Scenario::HotPages => adversarial::hot_page_skew(8, 4, 120),
                };
                rig.run(OsKind::Popcorn, [program]).into()
            }));
        }
    }
    Plan::new(cells, |outs| {
        let mut t = Table::new(
            "E15",
            "page-table replication ablation: walk locality, maintenance traffic, completion",
            [
                "scenario",
                "replication",
                "clean",
                "completion_ms",
                "local_walks",
                "remote_walks",
                "installs",
                "updates",
                "migrations",
            ],
        );
        let grid = Scenario::ALL
            .iter()
            .flat_map(|sc| Config::ALL.map(|cfg| (sc, cfg)));
        for ((sc, cfg), o) in grid.zip(outs) {
            let count = |metric: &str| format!("{:.0}", o.metric(metric));
            t.row([
                sc.name().to_string(),
                cfg.name().to_string(),
                o.clean.to_string(),
                format!("{:.3}", o.ms()),
                // Faults whose walk hit a local replica (home or holder), and
                // faults that walked the home's tables remotely.
                count("replica_local_walks"),
                count("replica_remote_walks"),
                // Replica seedings (eager first-fault or policy-requested), and
                // per-PTE update pushes applied at holders.
                count("replica_installs"),
                count("replica_updates"),
                // Migrations: every arrival, scripted hop or policy move.
                format!(
                    "{:.0}",
                    o.metric("migrations_first") + o.metric("migrations_back")
                ),
            ]);
        }
        t.note("expected: the off rows charge no walks at all (byte-identity baseline); with the gate on but no replicas, most faults walk remotely and completion pays for it; eager seeding converts the walk stream to local and wins back most of that time, though its per-update pushes (the updates column) erode the margin where version churn is heavy (hot pages); the replica-aware policy lands between the two, replicating toward persistent faulters instead of unconditionally");
        t
    })
}
