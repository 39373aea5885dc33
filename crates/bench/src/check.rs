//! Shape assertions: the paper's claims as predicates over the published
//! tables.
//!
//! Each [`Claim`] names the experiment whose [`Table`] it reads — the table
//! `repro all` writes to `results/<id>.json` — and checks *orderings and
//! factors* on cells it looks up by row key and column name, exactly the
//! properties EXPERIMENTS.md claims. `repro check` regenerates every
//! claimed experiment once and evaluates each claim on its table, so a
//! claim can only pass on the numbers that are published. A violated shape
//! is a science regression even when every unit test passes.

use crate::experiments::all_experiments;
use crate::rig::run;
use crate::table::Table;

/// One evaluated claim: pass/fail with the cells it read.
#[derive(Debug, Clone)]
pub struct ShapeResult {
    /// The claim checked.
    pub claim: &'static Claim,
    /// Whether the shape held.
    pub passed: bool,
    /// Measured evidence, human-readable.
    pub detail: String,
}

/// One claim of the evaluation, checked against one experiment's table.
#[derive(Debug)]
pub struct Claim {
    /// What the claim says.
    pub name: &'static str,
    /// `repro` id of the experiment whose table the claim reads (its
    /// `results/<id>.json`).
    pub experiment: &'static str,
    /// The rows the predicate reads, named by their leading cells.
    pub rows: &'static str,
    /// Whether the claim holds on the table, and the cells it read.
    holds: fn(&Table) -> (bool, String),
}

/// Every claim `repro check` asserts, in report order.
static CLAIMS: [Claim; 11] = [
    Claim {
        name: "back-migration cheaper than first visit (E2/A1)",
        experiment: "e2",
        rows: "idle",
        holds: back_migration_cheaper,
    },
    Claim {
        name: "SMP flattens on shared structures well above popcorn's floor (E5)",
        experiment: "e5",
        rows: "32, 60",
        holds: smp_contention_collapse,
    },
    Claim {
        name: "popcorn beats SMP on IS-class at 64 threads (E8, paper: up to 40%)",
        experiment: "e8",
        rows: "64",
        holds: is_class_win,
    },
    Claim {
        name: "popcorn scales like the multikernel (E5/E8)",
        experiment: "e8",
        rows: "64",
        holds: tracks_multikernel,
    },
    Claim {
        name: "kernel-local futexes competitive with SMP (E6)",
        experiment: "e6",
        rows: "8",
        holds: local_futex_competitive,
    },
    Claim {
        name: "remote faults ≫ local faults (E4)",
        experiment: "e4",
        rows: "read-share-then-write/2",
        holds: page_protocol_costs,
    },
    Claim {
        name: "hier barriers + first-touch homing beat flat/origin (A4)",
        experiment: "ablate-hier",
        rows: "flat/origin, hier/first-touch",
        holds: hier_extension_wins,
    },
    Claim {
        name: "policy gate: fault-aware dodges straggler, wake-locality chases, threshold stays tame (E13)",
        experiment: "e13",
        rows: "straggler kernel, thundering herd, ping-pong storm",
        holds: policy_shootout,
    },
    Claim {
        name: "crash gate: detection on time, orphans killed, work partial, baselines inert (E14)",
        experiment: "e14",
        rows: "every row",
        holds: recovery,
    },
    Claim {
        name: "replication gate: off is inert, bare pays remote walks, replicas flip them local and win completion back (E15)",
        experiment: "e15",
        rows: "every row",
        holds: replication,
    },
    Claim {
        name: "sharding gate: flat inert, delegates collapse the root queue, cross-socket pages escalate (E16)",
        experiment: "e16",
        rows: "flat/per-ccx, delegates/per-ccx, delegates/per-socket",
        holds: sharding,
    },
];

/// Whether the row keyed `key` reports a clean run.
fn clean(t: &Table, key: &[&str]) -> bool {
    t.cell(key, "clean") == "true"
}

/// `"<col> <cell>, ..."`: columns `cols` of row `key`, as published.
fn cells(t: &Table, key: &[&str], cols: &[&str]) -> String {
    let cells: Vec<String> = cols
        .iter()
        .map(|c| format!("{c} {}", t.cell(key, c)))
        .collect();
    cells.join(", ")
}

/// Back-migration (shadow revival) is cheaper than first-visit migration.
fn back_migration_cheaper(t: &Table) -> (bool, String) {
    let (first, back) = ("first_visit_us", "back_migration_us");
    (
        t.num(&["idle"], back) < t.num(&["idle"], first) * 0.7,
        cells(t, &["idle"], &[first, back]),
    )
}

/// SMP stops scaling on multi-process address-space storms while popcorn
/// keeps improving (abstract claim 1). The claim is about *floors*: with
/// more threads both systems bottom out on their serialized structures,
/// but SMP's floor (global zone lock + machine-wide shootdowns) sits well
/// above popcorn's (per-kernel structures).
fn smp_contention_collapse(t: &Table) -> (bool, String) {
    // No real gain from 32 to 60 threads.
    let flattened = t.num(&["60"], "smp_ms") > t.num(&["32"], "smp_ms") * 0.85;
    (
        flattened && t.num(&["60"], "smp_over_popcorn") > 1.5,
        format!(
            "smp 32→60 threads: {}ms; smp floor / popcorn floor = {}",
            arrow(t, &["32"], &["60"], "smp_ms"),
            t.cell(&["60"], "smp_over_popcorn")
        ),
    )
}

/// Popcorn is faster than SMP on the allocation-heavy IS class at high
/// core counts (abstract claim 3) — by a meaningful margin.
fn is_class_win(t: &Table) -> (bool, String) {
    let (pop, smp) = (t.cell(&["64"], "popcorn_ms"), t.cell(&["64"], "smp_ms"));
    let factor = t.num(&["64"], "smp_ms") / t.num(&["64"], "popcorn_ms");
    (
        factor > 1.2,
        format!("smp/popcorn = {factor:.2}x (popcorn {pop}ms, smp {smp}ms)"),
    )
}

/// Whether columns `a` and `b` of row `key` lie within 10% of `b`.
fn within_10pct(t: &Table, key: &[&str], a: &str, b: &str) -> (bool, String) {
    let gap = (t.num(key, a) - t.num(key, b)).abs() / t.num(key, b);
    let detail = format!("{} ({:.1}% apart)", cells(t, key, &[a, b]), gap * 100.0);
    (gap < 0.10, detail)
}

/// Popcorn tracks the multikernel on the same IS-class run (abstract
/// claim 1).
fn tracks_multikernel(t: &Table) -> (bool, String) {
    within_10pct(t, &["64"], "popcorn_ms", "multikernel_ms")
}

/// Kernel-local popcorn synchronization is competitive with SMP
/// (abstract claim 2).
fn local_futex_competitive(t: &Table) -> (bool, String) {
    within_10pct(t, &["8"], "popcorn_local_ms", "smp_ms")
}

/// Remote page faults, read or write, cost several times a local one.
fn page_protocol_costs(t: &Table) -> (bool, String) {
    let key = ["read-share-then-write", "2"];
    let cols = ["local_us", "remote_read_us", "remote_write_us"];
    let [local, read, write] = cols.map(|c| t.num(&key, c));
    (
        local > 0.0 && read.min(write) > 3.0 * local,
        cells(t, &key, &cols),
    )
}

/// Extension: first-touch homing + hierarchical barriers beat the
/// flat/origin configuration on barrier-bound runs.
fn hier_extension_wins(t: &Table) -> (bool, String) {
    let (flat, hier) = (["flat", "origin"], ["hier", "first-touch"]);
    (
        t.num(&hier, "total_ms") < t.num(&flat, "total_ms"),
        format!(
            "flat/origin -> hier/first-touch {}ms",
            arrow(t, &flat, &hier, "total_ms")
        ),
    )
}

/// `"<a> -> <b>"`: column `col` of rows `a` and `b`, as published.
fn arrow(t: &Table, a: &[&str], b: &[&str], col: &str) -> String {
    format!("{} -> {}", t.cell(a, col), t.cell(b, col))
}

/// The migration-policy framework earns its keep on the adversarial
/// suite: the best-known policy per scenario must keep winning.
fn policy_shootout(t: &Table) -> (bool, String) {
    let strag = ["straggler kernel", "scripted"];
    let strag_fa = ["straggler kernel", "fault-aware"];
    let herd = ["thundering herd", "scripted"];
    let herd_fwl = ["thundering herd", "futex-locality"];
    let storm = ["ping-pong storm", "scripted"];
    let storm_lt = ["ping-pong storm", "load-threshold"];
    let all_clean = [strag, strag_fa, herd, herd_fwl, storm, storm_lt]
        .iter()
        .all(|k| clean(t, k));
    let ms = |k: &[&str]| t.num(k, "completion_ms");
    let acts = |k: &[&str]| t.num(k, "policy_acts");
    let aborted = |k: &[&str]| t.num(k, "aborted");
    // Fault-aware must dodge the blacked-out kernel: faster than scripted,
    // no more aborted hops, and actually redirecting.
    let fa_wins = ms(&strag_fa) < ms(&strag)
        && aborted(&strag_fa) <= aborted(&strag)
        && acts(&strag_fa) > 0.0;
    // Wake-locality must chase the herd without tanking completion.
    let fwl_acts = acts(&herd_fwl) > 0.0 && ms(&herd_fwl) < ms(&herd) * 1.25;
    // Load-threshold's hysteresis must not amplify the ping-pong storm.
    let lt_tame = ms(&storm_lt) < ms(&storm) * 1.10;
    (
        all_clean && fa_wins && fwl_acts && lt_tame,
        format!(
            "straggler {}ms ({} acts, aborted {}); herd {} acts at {:.2}x; storm {:.2}x",
            arrow(t, &strag, &strag_fa, "completion_ms"),
            t.cell(&strag_fa, "policy_acts"),
            arrow(t, &strag, &strag_fa, "aborted"),
            t.cell(&herd_fwl, "policy_acts"),
            ms(&herd_fwl) / ms(&herd),
            ms(&storm_lt) / ms(&storm),
        ),
    )
}

/// E14's crash rows, keyed `[scenario, fault]`, in table order. The
/// fault-free baseline of each is `[scenario, "none"]`.
const E14_CRASHES: [[&str; 2]; 4] = [
    ["migration handoff", "kernel 3 crash @1ms"],
    ["page transfer (home dies)", "kernel 0 crash @1ms"],
    ["futex sleep", "kernel 3 crash @2ms"],
    ["group barrier", "kernel 3 crash @2ms"],
];

/// Kernel-crash failover recovers every protocol window: recovery
/// completes at the ack-silence deadline plus the modeled recovery work,
/// orphans are killed, and goodput degrades without ever wedging. The
/// mechanism counters that have no column (declarations, aborts, page
/// promotions, futex sweeps) are asserted by E14's render itself.
fn recovery(t: &Table) -> (bool, String) {
    let mut holds = true;
    let (mut units, mut recovery_ms) = (Vec::new(), Vec::new());
    for crash in E14_CRASHES {
        let base = [crash[0], "none"];
        // Fault-free baselines must not engage recovery at all.
        holds &= clean(t, &base)
            && clean(t, &crash)
            && t.num(&base, "killed") == 0.0
            && t.cell(&base, "recovery_ms") == "-";
        // recovery_ms spans the detection window (12 ms of ack silence)
        // through recovery completion.
        let ms = t.num(&crash, "recovery_ms");
        holds &= ms > 12.0 && ms < 13.0;
        // Goodput must degrade without collapsing to zero.
        let done = t.num(&crash, "units");
        holds &= done > 0.0 && done < t.num(&base, "units");
        units.push(arrow(t, &base, &crash, "units"));
        recovery_ms.push(t.cell(&crash, "recovery_ms"));
    }
    // The four windows do different recovery work (aborts, directory
    // rebuild, futex sweeps), so they must not all report one constant —
    // that was the old bug of measuring only the detection window.
    holds &= recovery_ms.iter().any(|ms| *ms != recovery_ms[0]);
    // Orphans on the dead kernel die; the home-death window also kills
    // survivors that fault on a page whose only copy died.
    let killed = |i: usize| t.num(&E14_CRASHES[i], "killed");
    holds &= killed(0) >= 1.0 && killed(1) >= 2.0;
    (
        holds,
        format!(
            "units {} (handoff, pages, futex, barrier); killed {}, {}; recovery {}ms",
            units.join(", "),
            t.cell(&E14_CRASHES[0], "killed"),
            t.cell(&E14_CRASHES[1], "killed"),
            recovery_ms.join("/"),
        ),
    )
}

/// Page-table replication changes what a fault pays. With the gate on but
/// no replicas, most walks go remote and completion suffers; seeding
/// replicas converts the walk stream to local and wins the time back
/// despite the per-update push traffic; the replica-aware policy gets
/// there selectively. With the gate off, no replica counter may tick.
fn replication(t: &Table) -> (bool, String) {
    let mut holds = true;
    let mut detail = Vec::new();
    for sc in ["ping-pong storm", "hot-page skew"] {
        let (off, bare) = ([sc, "off"], [sc, "on, no replicas"]);
        let (eager, aware) = ([sc, "on, eager"], [sc, "on, replica-aware"]);
        holds &= [off, bare, eager, aware].iter().all(|k| clean(t, k));
        let [ms, local, remote, installs, updates] = [
            "completion_ms",
            "local_walks",
            "remote_walks",
            "installs",
            "updates",
        ]
        .map(|col| move |k: [&str; 2]| t.num(&k, col));
        // Gate off: the replication machinery must be perfectly inert.
        holds &= local(off) + remote(off) + installs(off) + updates(off) == 0.0;
        // No replicas: remote walks dominate, and nothing ever installs.
        holds &= remote(bare) > local(bare)
            && remote(bare) >= 100.0
            && installs(bare) == 0.0
            && updates(bare) == 0.0;
        // Eager: replicas exist, the walk stream flips local, and the
        // remote residue collapses (only pre-install faults remain).
        holds &= installs(eager) >= 1.0
            && updates(eager) >= 1.0
            && local(eager) > remote(eager)
            && remote(eager) * 4.0 < remote(bare);
        // The measurable on/off gap: paying remote walks everywhere must
        // cost completion time, and replicas must win it back — off
        // (which charges nothing) stays fastest.
        holds &= ms(eager) < ms(bare) && ms(aware) < ms(bare) && ms(off) <= ms(eager);
        // The policy actually replicates and flips the walk stream too.
        holds &= installs(aware) >= 1.0 && local(aware) > remote(aware);
        detail.push(format!(
            "{sc} {}ms (remote {}, {} updates)",
            arrow(t, &bare, &eager, "completion_ms"),
            arrow(t, &bare, &eager, "remote_walks"),
            t.cell(&eager, "updates"),
        ));
    }
    (holds, detail.join("; "))
}

/// Hierarchical home sharding splits a group's page directory over
/// per-socket delegates. Flat must be provably inert (one server, no shard
/// counters); delegates must spread the same traffic over one server per
/// socket and collapse the queue; cross-socket traffic must escalate its
/// pages back to the root. Per-CCX carries the headline claim (per-core
/// tells the same story on a bigger machine); per-socket delegates are the
/// escalation degeneracy.
fn sharding(t: &Table) -> (bool, String) {
    let flat = ["flat", "per-ccx"];
    let shard = ["delegates", "per-ccx"];
    let degen = ["delegates", "per-socket"];
    let all_clean = [flat, shard, degen].iter().all(|k| clean(t, k));
    let num = |k: [&str; 2], col: &str| t.num(&k, col);
    // Flat: the sharding machinery must be perfectly inert — one root
    // server, not a single delegation, escalation, or forward.
    let inert = num(flat, "servers") == 1.0
        && num(flat, "delegated") + num(flat, "escalated") + num(flat, "forwards") == 0.0;
    // Delegates: one server per socket, pages actually delegated, nothing
    // escalated (same-socket pairs never cross sockets), and the queue
    // collapse the hierarchy exists for — at least halving the peak and
    // the worst time-weighted depth, with completion and remote-write
    // latency following.
    let spread = num(shard, "servers") == 4.0
        && num(shard, "delegated") >= 1.0
        && num(shard, "escalated") == 0.0
        && num(shard, "peak_depth") * 2.0 <= num(flat, "peak_depth")
        && num(shard, "depth_tw_mean") * 2.0 <= num(flat, "depth_tw_mean")
        && num(shard, "completion_ms") < num(flat, "completion_ms")
        && num(shard, "remote_write_us") < num(flat, "remote_write_us");
    // Per-socket clustering: no pair can stay socket-local, so every
    // delegated page must escalate back to the root.
    let escalates =
        num(degen, "delegated") >= 1.0 && num(degen, "escalated") == num(degen, "delegated");
    let per_ccx = |col: &str| arrow(t, &flat, &shard, col);
    (
        all_clean && inert && spread && escalates,
        format!(
            "per-ccx peak depth {}, servers {}, {}ms; per-socket {}/{} escalated",
            per_ccx("peak_depth"),
            per_ccx("servers"),
            per_ccx("completion_ms"),
            t.cell(&degen, "escalated"),
            t.cell(&degen, "delegated"),
        ),
    )
}

/// Regenerates the experiments `ids` (each once, however often it is
/// named) through the runner `repro all` uses, on `jobs` host threads.
fn regenerate(jobs: usize, ids: &[&str]) -> Vec<(&'static str, Table)> {
    let mut selected = all_experiments();
    selected.retain(|(id, _)| ids.contains(id));
    let runs = run(jobs, &selected);
    runs.into_iter()
        .map(|(table, perf)| (perf.id, table))
        .collect()
}

/// Evaluates every claim on its experiment's table in `tables`.
///
/// # Panics
///
/// Panics if `tables` lacks a claimed experiment, or a claim reads a row
/// or column its table does not have.
fn evaluate(tables: &[(&str, Table)]) -> Vec<ShapeResult> {
    let table = |id: &str| match tables.iter().find(|(t, _)| *t == id) {
        Some((_, table)) => table,
        None => panic!("no table for experiment {id}"),
    };
    let eval = |claim: &'static Claim| {
        let (passed, detail) = (claim.holds)(table(claim.experiment));
        ShapeResult {
            claim,
            passed,
            detail,
        }
    };
    CLAIMS.iter().map(eval).collect()
}

/// Regenerates each claimed experiment once, on `jobs` host threads, and
/// evaluates every claim on it; returns the results in claim order (all
/// must pass).
pub fn run_all_checks(jobs: usize) -> Vec<ShapeResult> {
    let ids: Vec<&str> = CLAIMS.iter().map(|c| c.experiment).collect();
    evaluate(&regenerate(jobs, &ids))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Experiments that take seconds each in debug; CI's full `repro all`
    /// diff covers them.
    const SLOW_IN_DEBUG: [&str; 3] = ["e5b", "e10", "e11"];

    /// The published tables are what the code produces, and the paper's
    /// claims hold on them: every claimed experiment (and every other one
    /// cheap in debug) is regenerated once, compared byte for byte with
    /// `results/`, and the claims are evaluated on those same tables.
    #[test]
    fn all_shapes_hold() {
        let ids: Vec<&str> = all_experiments()
            .into_iter()
            .map(|(id, _)| id)
            .filter(|id| !SLOW_IN_DEBUG.contains(id))
            .collect();
        let tables = regenerate(crate::rig::host_parallelism(), &ids);
        for (id, table) in &tables {
            let path = format!("{}/../../results/{id}.json", env!("CARGO_MANIFEST_DIR"));
            let published =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            let regenerated = table.to_json_pretty();
            let first_diff = regenerated
                .lines()
                .zip(published.lines())
                .find(|(new, old)| new != old);
            assert!(
                regenerated == published,
                "results/{id}.json differs from the regenerated table: {first_diff:?}"
            );
        }
        let failures: Vec<String> = evaluate(&tables)
            .iter()
            .filter(|r| !r.passed)
            .map(|r| format!("{} ({}): {}", r.claim.name, r.claim.experiment, r.detail))
            .collect();
        assert!(failures.is_empty(), "shape regressions: {failures:#?}");
    }

    /// The cells of the 64-thread row of `results/e8.json` that the
    /// IS-class claim reads.
    fn e8_top_row(smp_ms: &str) -> Table {
        let mut t = Table::new("E8", "IS-class", ["total_threads", "popcorn_ms", "smp_ms"]);
        t.row(["64", "6.98", smp_ms]);
        t
    }

    #[test]
    fn a_published_cell_moved_past_its_claim_fails_the_claim() {
        let (passed, detail) = is_class_win(&e8_top_row("10.03"));
        assert!(passed, "{detail}");
        assert_eq!(detail, "smp/popcorn = 1.44x (popcorn 6.98ms, smp 10.03ms)");
        // SMP at 8.00 ms is only 1.15x slower: below the 1.2x bar.
        let (passed, detail) = is_class_win(&e8_top_row("8.00"));
        assert!(!passed, "{detail}");
        assert!(detail.starts_with("smp/popcorn = 1.15x"), "{detail}");
    }
}
