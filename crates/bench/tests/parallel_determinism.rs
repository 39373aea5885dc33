//! The guarantee of the parallel harness: running experiments' cells on
//! parallel host threads (`--jobs`) produces byte-identical table JSON to
//! a fully serial run.

use popcorn_bench::experiments::all_experiments;
use popcorn_bench::rig::run;

/// Each table of `ids`, as JSON, regenerated through the runner at `jobs`.
fn tables(jobs: usize, ids: &[&str]) -> Vec<String> {
    let mut selected = all_experiments();
    selected.retain(|(id, _)| ids.contains(id));
    assert_eq!(selected.len(), ids.len(), "unknown id in {ids:?}");
    let runs = run(jobs, &selected);
    runs.iter()
        .map(|(table, _)| table.to_json_pretty())
        .collect()
}

#[test]
fn parallel_runs_are_byte_identical_to_serial() {
    // Four experiments with different shapes: E1 sweeps the message
    // fabric (pure latency math), E4 sweeps full-OS page-protocol sims,
    // E13 sweeps the policy × adversarial-scenario matrix (the policy
    // machinery — telemetry ticks, steals, wake chases — must be exactly
    // as deterministic as the scripted paths), and E15 sweeps the
    // page-table replication ablation (walk charges, update pushes and
    // the replica-aware policy included). Run together, their cells
    // interleave on the workers.
    let ids = ["e1", "e4", "e13", "e15"];
    let serial = tables(1, &ids);
    let parallel = tables(2, &ids);
    for ((id, s), p) in ids.iter().zip(&serial).zip(&parallel) {
        assert_eq!(s, p, "{id}: --jobs 2 output diverged from --jobs 1");
    }
    // Parallel runs are also stable run-to-run.
    assert_eq!(parallel, tables(2, &ids), "parallel run not reproducible");
}
