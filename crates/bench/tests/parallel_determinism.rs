//! The guarantee of the parallel harness: running experiments with
//! host-thread parallelism across simulations (`--jobs`) produces
//! byte-identical table JSON to a fully serial run. One test function
//! (not several) because the knob is process-global and tests in one
//! binary run concurrently.

use popcorn_bench::experiments;
use popcorn_bench::{set_jobs, Table};

/// A named experiment entry point.
type Case = (&'static str, fn() -> Table);

#[test]
fn parallel_runs_are_byte_identical_to_serial() {
    // Four experiments with different shapes: E1 sweeps the message
    // fabric (pure latency math), E4 sweeps full-OS page-protocol sims,
    // E13 sweeps the policy × adversarial-scenario matrix (the policy
    // machinery — telemetry ticks, steals, wake chases — must be exactly
    // as deterministic as the scripted paths), and E15 sweeps the
    // page-table replication ablation (walk charges, update pushes and
    // the replica-aware policy included).
    let cases: [Case; 4] = [
        ("e1", experiments::e1_messaging),
        ("e4", experiments::e4_page_protocol),
        ("e13", experiments::e13_policies),
        ("e15", popcorn_bench::e15::e15_replication),
    ];
    for (id, f) in cases {
        set_jobs(1);
        let serial = f().to_json_pretty();
        set_jobs(4);
        let parallel = f().to_json_pretty();
        set_jobs(0);
        assert_eq!(
            serial, parallel,
            "{id}: --jobs 4 output diverged from --jobs 1"
        );
        // Parallel runs are also stable run-to-run.
        set_jobs(4);
        let again = f().to_json_pretty();
        set_jobs(0);
        assert_eq!(parallel, again, "{id}: parallel run not reproducible");
    }
}
