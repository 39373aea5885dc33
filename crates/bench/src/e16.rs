//! E16 — hierarchical home sharding at cluster scale: a 4-socket,
//! 256-core machine sweeping {flat home, per-socket delegates} ×
//! {kernels per socket / CCX / core}.
//!
//! The workload is the home-service saturator: one thread group whose
//! workers run in pinned pairs, each pair bouncing a private slice of
//! pages between two kernels on the *same socket* (see
//! [`popcorn_workloads::adversarial::kernel_pair_bouncers`]). Every
//! bounce is a remote write fault — invalidate the partner, transfer the
//! page — and every fault serializes behind the group's page-directory
//! service. With the flat home, that service is a single server at the
//! group's root kernel: 16 pairs across four sockets all funnel into one
//! queue and the peak depth grows with the pair count. With
//! `home_sharding` on, each socket's first touches delegate the slice to
//! the socket's lead kernel, the bounce traffic stays socket-local, and
//! the same load spreads over four servers — peak depth drops toward a
//! quarter and never re-concentrates (no cross-socket traffic, so
//! nothing escalates).
//!
//! The clustering axis reuses the same 256 cores under three first-class
//! kernel layouts ([`KernelClustering`]): per-socket (4 fat kernels),
//! per-CCX (32), per-core (256). Per-CCX and per-core have many kernels
//! per socket, so same-socket pairs exist, delegation pays, and nothing
//! ever escalates. Per-socket clustering exercises the escalation path
//! instead: one kernel per socket means a pair *cannot* stay
//! socket-local, so after a brief first-touch spread every delegated
//! page sees cross-socket traffic and escalates back to the root
//! (`escalated == delegated`) — steady state is root-served, exactly the
//! flat protocol.
//!
//! The E16 claim in [`crate::check`] gates the shape on
//! `results/e16.json`. Queue depths come from the serialization points
//! themselves (`home_servers`/`home_peak_depth`/`home_depth_tw_mean_max`
//! in the run report), not from message counts.

use popcorn_core::PopcornParams;
use popcorn_hw::Topology;
use popcorn_kernel::osmodel::KernelClustering;
use popcorn_msg::KernelId;
use popcorn_workloads::adversarial;

use crate::rig::{Cell, OsKind, Plan, Rig};
use crate::table::Table;

/// The E16 machine: 4 sockets × 8 CCXs × 8 cores = 256 cores.
pub fn e16_topology() -> Topology {
    Topology::with_ccx(4, 8, 8)
}

/// Bouncer pairs per socket (× 2 workers each, × 4 sockets = 32 workers).
const PAIRS_PER_SOCKET: u16 = 4;
/// Pages in each pair's private bounce slice.
const PAGES_EACH: u64 = 4;
/// Rewrite rounds per worker.
const ROUNDS: u32 = 20;
/// Think time between rounds, ns — short enough that the 16 pairs keep
/// concurrent faults in flight at the directory service.
const COMPUTE_NS: u64 = 10_000;

/// The bounce pairs for one clustering of the E16 box. With several
/// kernels per socket the pairs are same-socket kernel neighbours
/// (delegation keeps them socket-local); with one kernel per socket no
/// same-socket pair exists, so each socket's pairs bounce against the
/// next socket's kernel — the escalation-degeneracy rows.
fn bounce_pairs(clustering: KernelClustering) -> Vec<(KernelId, KernelId)> {
    let topo = e16_topology();
    let sockets = topo.num_sockets();
    let per_socket = clustering.kernel_count(topo) / sockets;
    let mut pairs = Vec::new();
    for s in 0..sockets {
        for j in 0..PAIRS_PER_SOCKET {
            if per_socket >= 2 * PAIRS_PER_SOCKET {
                let first = s * per_socket + 2 * j;
                pairs.push((KernelId(first), KernelId(first + 1)));
            } else {
                // One kernel per socket: bounce against the next socket.
                pairs.push((KernelId(s), KernelId((s + 1) % sockets)));
            }
        }
    }
    pairs
}

/// E16 — the cluster-scale home-sharding sweep: the flat home, then
/// per-socket delegates, each over every clustering. Cells are keyed
/// `e16/<home>/<clustering>`; each run must drain cleanly and pass the
/// invariant audit, including the shard-map/delegate agreement check.
pub fn e16_hierarchical_homes() -> Plan {
    let mut points = Vec::new();
    for (home, sharded) in [("flat", false), ("delegates", true)] {
        for clustering in KernelClustering::ALL {
            points.push((home, sharded, clustering));
        }
    }
    let cells = points
        .iter()
        .map(|&(home, sharded, clustering)| {
            Cell::new(format!("e16/{home}/{}", clustering.name()), move || {
                let rig = Rig {
                    topology: e16_topology(),
                    kernels: clustering.kernel_count(e16_topology()),
                    popcorn: PopcornParams {
                        home_sharding: sharded,
                        ..PopcornParams::default()
                    },
                    ..Rig::paper()
                };
                let bouncers = adversarial::kernel_pair_bouncers(
                    bounce_pairs(clustering),
                    PAGES_EACH,
                    ROUNDS,
                    COMPUTE_NS,
                );
                rig.run(OsKind::Popcorn, [bouncers]).into()
            })
        })
        .collect();
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E16",
            "hierarchical home sharding on 4x64 cores: directory queue depth vs kernel clustering",
            [
                "home",
                "clustering",
                "kernels",
                "clean",
                "completion_ms",
                "servers",
                "peak_depth",
                "depth_tw_mean",
                "remote_write_us",
                "delegated",
                "escalated",
                "forwards",
            ],
        );
        for ((home, _, clustering), o) in points.iter().zip(outs) {
            let count = |metric: &str| format!("{:.0}", o.metric(metric));
            t.row([
                home.to_string(),
                clustering.name().to_string(),
                clustering.kernel_count(e16_topology()).to_string(),
                o.clean.to_string(),
                format!("{:.3}", o.ms()),
                // Directory servers that did any work (root + active
                // delegates), the deepest backlog any one reached, and the
                // worst per-server time-weighted mean depth.
                count("home_servers"),
                count("home_peak_depth"),
                format!("{:.2}", o.metric("home_depth_tw_mean_max")),
                format!("{:.2}", o.metric("fault_remote_write_us_mean")),
                // Pages delegated to a socket lead on first touch, delegated
                // pages escalated back to the root after cross-socket
                // traffic, and requests forwarded because their entry moved
                // in flight.
                count("shard_delegated_pages"),
                count("shard_escalations"),
                count("shard_forwards"),
            ]);
        }
        t.note("expected: with the flat home every bounce in the group serializes at one root server, so peak queue depth grows with the machine-wide pair count; per-socket delegates split the same traffic over one server per socket (servers 1 -> 4, peak depth and worst time-weighted depth collapse, completion and remote-write latency follow) wherever same-socket pairs exist (per-ccx, per-core). Per-socket clustering has no same-socket pairs, so it exercises the escalation path instead: every delegated page sees cross-socket traffic and moves back to the root (escalated == delegated), leaving steady state root-served like the flat rows");
        t
    })
}
