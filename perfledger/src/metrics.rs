//! The metric table — the single source for `--list`, the printed report,
//! the JSON result line and `BENCHMARK.json` — plus the percentile rule.

use crate::workloads;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Seen by a user of the model; reported by untraced runs. `bound` is
    /// the share of the parent's median by which it may get worse.
    EndToEnd {
        /// Allowed relative regression.
        bound: f64,
    },
    /// One layer's work, waiting or waste; reported by traced runs.
    PerLayer,
}

/// One row of the table.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Where it is reported.
    pub kind: Kind,
    /// What it measures.
    pub what: &'static str,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Lower,
        kind: Kind::EndToEnd { bound },
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        what,
    }
}

/// The metric table, end-to-end metrics first.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    e2e("wall_s", "s", 0.25, "host wall time of one run, median over the run's reps"),
    e2e("setup_s", "s", 0.25, "host time of build() plus load(), median over the run's reps"),
    e2e("peak_rss_mb", "MB", 0.10, "peak resident memory of the benchmark process (VmHWM)"),
    e2e("sim_makespan_ms", "ms", 0.05, "virtual time until the last thread exited"),
    e2e("round_p50_us", "us", 0.05, "virtual time a thread takes for one round of its script, median"),
    e2e("round_p99_us", "us", 0.10, "virtual time a thread takes for one round of its script, 99th percentile"),
    // sim: the event engine (popcorn-sim).
    layer("sim.events", "count", Lower, "events dispatched"),
    layer("sim.self_s", "s", Lower, "engine time: event pops and follow-up scheduling"),
    layer("sim.ns_per_event", "ns", Lower, "untraced median wall time per event"),
    // kernel: the per-kernel scheduler and mm (popcorn-kernel).
    layer("kernel.core_runs", "count", Lower, "Kernel::run_core calls"),
    layer("kernel.core_runs_wasted", "count", Lower, "run_core calls that found the core still busy and ran nothing"),
    layer("kernel.useful_ratio", "ratio", Higher, "run_core calls that ran something, over all calls"),
    layer("kernel.self_s", "s", Lower, "run_core time minus program-step time"),
    layer("kernel.ctx_switches", "count", Lower, "context switches"),
    layer("kernel.sched_wait_us_mean", "us", Lower, "virtual wake-to-run wait"),
    // workload: the benchmark's own interpreter.
    layer("workload.steps", "count", Lower, "Program::step calls"),
    layer("workload.self_s", "s", Lower, "time inside Program::step"),
    // core.<family>: the popcorn-core protocol modules.
    layer("core.migrate.calls", "count", Lower, "migrate handler calls"),
    layer("core.migrate.self_s", "s", Lower, "time in migrate handlers"),
    layer("core.migrate.msgs_out", "count", Lower, "migrate messages sent"),
    layer("core.migrate.rpcs_issued", "count", Lower, "migrate RPCs issued"),
    layer("core.migrate.service_us_mean", "us", Lower, "virtual service time at the migrate server"),
    layer("core.migrate.first", "count", Lower, "first-visit migrations"),
    layer("core.migrate.back", "count", Higher, "back-migrations to a shadow"),
    layer("core.migrate.back_ratio", "ratio", Higher, "back-migrations over all migrations"),
    layer("core.group.calls", "count", Lower, "group handler calls"),
    layer("core.group.self_s", "s", Lower, "time in group handlers"),
    layer("core.group.msgs_out", "count", Lower, "group messages sent"),
    layer("core.group.rpcs_issued", "count", Lower, "group RPCs issued"),
    layer("core.group.service_us_mean", "us", Lower, "virtual service time at the group server"),
    layer("core.vma.calls", "count", Lower, "VMA handler calls"),
    layer("core.vma.self_s", "s", Lower, "time in VMA handlers"),
    layer("core.vma.msgs_out", "count", Lower, "VMA messages sent"),
    layer("core.vma.rpcs_issued", "count", Lower, "VMA RPCs issued"),
    layer("core.vma.service_us_mean", "us", Lower, "virtual service time at the VMA server"),
    layer("core.page.calls", "count", Lower, "page handler calls (faults and page messages)"),
    layer("core.page.self_s", "s", Lower, "time in page handlers"),
    layer("core.page.msgs_out", "count", Lower, "page messages sent"),
    layer("core.page.rpcs_issued", "count", Lower, "page RPCs issued"),
    layer("core.page.service_us_mean", "us", Lower, "virtual service time at the page home"),
    layer("core.page.remote_faults", "count", Lower, "faults resolved through another kernel"),
    layer("core.page.invalidations", "count", Lower, "invalidations sent"),
    layer("core.page.transfers", "count", Lower, "pages shipped between kernels"),
    layer("core.page.home_peak_depth", "count", Lower, "deepest queue any page home saw"),
    layer("core.page.home_depth_tw_mean_max", "count", Lower, "largest time-weighted home queue depth"),
    layer("core.page.home_busy_pct_max", "%", Lower, "busiest page home's busy share of the run"),
    layer("core.futex.calls", "count", Lower, "futex and sync-word handler calls"),
    layer("core.futex.self_s", "s", Lower, "time in futex handlers"),
    layer("core.futex.msgs_out", "count", Lower, "futex messages sent"),
    layer("core.futex.rpcs_issued", "count", Lower, "futex RPCs issued"),
    layer("core.futex.service_us_mean", "us", Lower, "virtual service time at the futex server"),
    layer("core.futex.remote_ratio", "ratio", Lower, "futex calls and RMWs forwarded to the home"),
    layer("core.transport.calls", "count", Lower, "transport handler calls (acks, timers)"),
    layer("core.transport.self_s", "s", Lower, "time in transport handlers"),
    layer("core.transport.msgs_out", "count", Lower, "acks and retransmissions sent"),
    layer("core.transport.rpcs_issued", "count", Lower, "transport RPCs issued"),
    layer("core.transport.service_us_mean", "us", Lower, "virtual transport service time"),
    layer("core.transport.retransmits", "count", Lower, "messages retransmitted"),
    layer("core.transport.ops_failed", "count", Lower, "remote operations failed with EIO"),
    layer("core.sys.calls", "count", Lower, "syscalls served inline (getpid and the like)"),
    layer("core.sys.self_s", "s", Lower, "time serving inline syscalls"),
    // msg: the fabric (popcorn-msg).
    layer("msg.sends", "count", Lower, "fabric sends"),
    layer("msg.latency_us_mean", "us", Lower, "virtual send-to-delivery latency"),
    layer("msg.queue_delay_us_mean", "us", Lower, "virtual wait behind earlier messages on a channel"),
    // trace: the cost and coverage of the traced run itself.
    layer("trace.overhead_pct", "%", Lower, "traced wall time over the untraced median, minus 1"),
    layer("trace.unattributed_pct", "%", Lower, "traced wall time charged to no layer"),
];

/// The table row called `name`.
///
/// # Panics
///
/// Panics on a name the table does not have, so a misspelt metric fails
/// loudly instead of reading as zero.
pub fn lookup(name: &str) -> &'static Metric {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown metric {name:?}"))
}

/// Measured values, keyed by table row.
#[derive(Debug, Default)]
pub struct Values {
    vals: Vec<(&'static Metric, f64, Option<usize>)>,
}

impl Values {
    /// Records `name`'s value.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name, a repeated one, or a non-finite value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, None);
    }

    /// Records a percentile with the number of samples it was taken from.
    pub fn set_n(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let m = lookup(name);
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.vals.iter().all(|(o, ..)| o.name != m.name),
            "metric {name} recorded twice"
        );
        self.vals.push((m, value, samples));
    }

    /// The value of `name`, if recorded.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        let m = lookup(name);
        self.vals
            .iter()
            .find(|(o, ..)| o.name == m.name)
            .map(|v| v.1)
    }

    /// The recorded rows whose kind matches `per_layer`, in table order.
    ///
    /// # Panics
    ///
    /// Panics if any row of that kind was not recorded.
    pub fn rows(&self, per_layer: bool) -> Vec<(&'static Metric, f64, Option<usize>)> {
        METRICS
            .iter()
            .filter(|m| matches!(m.kind, Kind::PerLayer) == per_layer)
            .map(|m| {
                *self
                    .vals
                    .iter()
                    .find(|(o, ..)| o.name == m.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
            })
            .collect()
    }
}

/// A quantile must have at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending) with the sample
/// count. Refuses a quantile with fewer than [`MIN_BEYOND`] samples above
/// its rank, so a p99 needs at least 1,000 samples.
pub fn quantile(sorted: &[u64], q: f64) -> Result<(u64, usize), String> {
    assert!((0.0..1.0).contains(&q), "quantile {q} out of range");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples not sorted"
    );
    let n = sorted.len();
    // The epsilon keeps 0.99 × 1000 (= 990.0000000000001) at rank 990.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; have {n} samples",
            q * 100.0
        ));
    }
    Ok((sorted[rank - 1], n))
}

/// The highest of p99.99, p99.9, p99 and p90 that [`quantile`] accepts:
/// `(q, value, samples)`.
pub fn highest_tail(sorted: &[u64]) -> Option<(f64, u64, usize)> {
    [0.9999, 0.999, 0.99, 0.9]
        .into_iter()
        .find_map(|q| quantile(sorted, q).ok().map(|(v, n)| (q, v, n)))
}

/// The command `BENCHMARK.json` records.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfledger/Cargo.toml",
    "--bin",
    "benchmark",
    "--",
];
/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn better(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// The `BENCHMARK.json` this table describes.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let loads = workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let mut e2e = Vec::new();
    let mut per_layer = Vec::new();
    for m in METRICS {
        let head = format!(
            "\"name\": {}, \"unit\": {}",
            json_str(m.name),
            json_str(m.unit)
        );
        match m.kind {
            Kind::EndToEnd { bound } => e2e.push(format!(
                "{{{head}, \"better\": \"{}\", \"bound\": {bound}}}",
                better(m.better)
            )),
            Kind::PerLayer => {
                per_layer.push(format!("{{{head}, \"better\": \"{}\"}}", better(m.better)))
            }
        }
    }
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfledger\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(loads),
        list(e2e),
        list(per_layer)
    )
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// one kind with their units.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&'static Metric, f64, Option<usize>)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(m, v, _)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(
            file == benchmark_json(),
            "BENCHMARK.json disagrees with the metric table; regenerate it with \
             `benchmark --list > BENCHMARK.json`"
        );
    }

    #[test]
    fn table_names_are_unique_and_bounds_legal() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            if let Kind::EndToEnd { bound } = m.kind {
                assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
            }
        }
        assert_eq!(lookup("setup_s").kind, Kind::EndToEnd { bound: 0.25 });
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_panics() {
        Values::default().set("wall_secs", 1.0);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_metric_panics() {
        let mut v = Values::default();
        v.set("wall_s", 1.0);
        v.rows(false);
    }

    #[test]
    fn quantile_follows_the_ten_beyond_rule() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&s, 0.5), Ok((500, 1000)));
        assert_eq!(quantile(&s, 0.99), Ok((990, 1000)));
        assert!(
            quantile(&s[..999], 0.99).is_err(),
            "999 samples leave 9 beyond p99"
        );
        assert_eq!(quantile(&s[..999], 0.9), Ok((900, 999)));
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&s[..20], 0.5).is_ok() && quantile(&s[..19], 0.5).is_err());
    }

    #[test]
    fn highest_tail_picks_the_largest_supported_percentile() {
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(highest_tail(&s), Some((0.999, 9990, 10_000)));
        assert_eq!(highest_tail(&s[..1000]), Some((0.99, 990, 1000)));
        assert_eq!(highest_tail(&s[..50]), None);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut v = Values::default();
        for m in METRICS
            .iter()
            .filter(|m| matches!(m.kind, Kind::EndToEnd { .. }))
        {
            v.set(m.name, 1.5);
        }
        let line = result_json(true, 3, 0, &v.rows(false));
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }
}
