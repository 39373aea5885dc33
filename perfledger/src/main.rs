//! `benchmark` — runs one seeded workload against the Popcorn OS model and
//! prints its metrics: end-to-end metrics from untraced runs, or with
//! `--trace 1` the per-layer ledger from traced runs. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! See README.md in this directory for the workloads, the metrics and what
//! each layer metric is predicted to move.

mod harness;
mod metrics;
mod program;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{Ledger, Run, FAMILIES};
use metrics::Values;
use program::Lat;
use workloads::{Size, Workload};

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-out DIR] [--quick] [--json FILE]\n       benchmark --list";

/// Fewest measured reps a run takes, however long they last.
const MIN_REPS: usize = 5;
/// Share of `--seconds` a traced run spends on untraced reps (the
/// baseline of `trace.overhead_pct`); the rest goes to traced reps.
const TRACE_BASELINE_SHARE: f64 = 0.4;

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    size: Size,
    json: Option<PathBuf>,
}

/// Parses the command line; `Ok(None)` means `--list` was handled.
fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut size) = (1, 10.0, false, Size::Full);
    let (mut trace_out, mut json) = (None, None);
    while let Some(flag) = argv.next() {
        if flag == "--list" {
            print!("{}", metrics::benchmark_json());
            return Ok(None);
        }
        if flag == "--quick" {
            size = Size::Quick;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("expected seconds between 0 and 3600"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--json" => json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace: trace || trace_out.is_some(),
        trace_out,
        size,
        json,
    }))
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Ops attempted and checks failed across every run of one invocation.
struct Tally {
    /// The warm-up run's virtual digest, which every later run must repeat.
    digest: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts a run's ops and failures and checks its digest.
    fn add(&mut self, run: &Run, what: &str) {
        self.attempted += run.out.attempted;
        self.failed += run.out.failed;
        self.failures
            .extend(run.out.failures.iter().map(|f| format!("{what}: {f}")));
        if run.digest != self.digest {
            self.fail(format!(
                "{what}: virtual digest {:#x} differs from the warm-up run's {:#x}",
                run.digest, self.digest
            ));
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }
}

/// Everything measured in one invocation.
struct Measured {
    /// The warm-up run: the source of every virtual metric and count.
    reference: Run,
    /// `(setup, wall)` host times of the measured untraced reps. Only the
    /// times are kept, so memory use does not grow with the rep count.
    untraced: Vec<(Duration, Duration)>,
    /// Ledgers of the traced reps.
    traced: Vec<Ledger>,
    tally: Tally,
}

fn measure(args: &Args) -> Result<Measured, String> {
    let plan = args.workload.plan(args.seed, args.size);
    // The warm-up run's host times are discarded.
    let reference = harness::run(&plan)?;
    let mut tally = Tally {
        digest: reference.digest,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    tally.add(&reference, "warm-up");
    let mut m = Measured {
        reference,
        untraced: Vec::new(),
        traced: Vec::new(),
        tally,
    };
    let budget = if args.trace {
        args.seconds * TRACE_BASELINE_SHARE
    } else {
        args.seconds
    };
    let start = Instant::now();
    while m.untraced.len() < MIN_REPS || secs(start.elapsed()) < budget {
        let run = harness::run(&plan)?;
        m.tally.add(&run, &format!("rep {}", m.untraced.len() + 1));
        m.untraced.push((run.setup, run.wall));
    }
    if args.trace {
        let start = Instant::now();
        loop {
            let spans = args.trace_out.is_some() && m.traced.is_empty();
            let (run, ledger) = harness::run_traced(&plan, spans)?;
            m.tally
                .add(&run, &format!("traced rep {}", m.traced.len() + 1));
            m.traced.push(ledger);
            if secs(start.elapsed()) >= args.seconds - budget {
                break;
            }
        }
    }
    Ok(m)
}

/// Fills the end-to-end metrics.
fn end_to_end(m: &mut Measured, v: &mut Values) {
    v.set(
        "wall_s",
        median(m.untraced.iter().map(|r| secs(r.1)).collect()),
    );
    v.set(
        "setup_s",
        median(m.untraced.iter().map(|r| secs(r.0)).collect()),
    );
    v.set("peak_rss_mb", peak_rss_mb());
    v.set(
        "sim_makespan_ms",
        m.reference.makespan.as_nanos() as f64 / 1e6,
    );
    let samples = &m.reference.out.lat[Lat::Round as usize];
    for (name, q) in [("round_p50_us", 0.5), ("round_p99_us", 0.99)] {
        match metrics::quantile(samples, q) {
            Ok((ns, n)) => v.set_n(name, ns as f64 / 1e3, Some(n)),
            Err(e) => {
                m.tally.fail(format!("{name}: {e}"));
                v.set_n(
                    name,
                    samples.last().copied().unwrap_or(0) as f64 / 1e3,
                    Some(samples.len()),
                );
            }
        }
    }
}

/// Fills the per-layer metrics from the traced reps and the model's counts.
fn per_layer(m: &Measured, v: &mut Values) {
    let r = &m.reference;
    let untraced_wall = median(m.untraced.iter().map(|r| secs(r.1)).collect());
    let ledgers = &m.traced;
    let med =
        |f: &dyn Fn(&Ledger) -> u64| median(ledgers.iter().map(|l| f(l) as f64 / 1e9).collect());
    let l = &ledgers[0];
    v.set("sim.events", r.events as f64);
    v.set("sim.self_s", med(&|l| l.sim_ns));
    v.set("sim.ns_per_event", untraced_wall * 1e9 / r.events as f64);
    v.set("kernel.core_runs", l.core_runs as f64);
    v.set("kernel.core_runs_wasted", l.wasted as f64);
    v.set(
        "kernel.useful_ratio",
        (l.core_runs - l.wasted) as f64 / l.core_runs.max(1) as f64,
    );
    v.set("kernel.self_s", med(&|l| l.run_core_ns - l.step_ns));
    v.set("workload.steps", l.steps as f64);
    v.set("workload.self_s", med(&|l| l.step_ns));
    for (i, f) in FAMILIES.iter().enumerate() {
        v.set(&format!("core.{f}.calls"), l.family_calls[i] as f64);
        v.set(&format!("core.{f}.self_s"), med(&|l| l.family_ns[i]));
    }
    for &(name, value) in &r.counts {
        v.set(name, value);
    }
    let traced_wall = median(ledgers.iter().map(|l| secs(l.wall)).collect());
    v.set(
        "trace.overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    );
    v.set(
        "trace.unattributed_pct",
        median(
            ledgers
                .iter()
                .map(|l| {
                    let wall = l.wall.as_nanos() as f64;
                    let layers = l.sim_ns + l.run_core_ns + l.family_ns.iter().sum::<u64>();
                    (wall - layers as f64) / wall * 100.0
                })
                .collect(),
        ),
    );
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut m = match measure(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: {}: run failed: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    let mut v = Values::default();
    end_to_end(&mut m, &mut v);
    if args.trace {
        per_layer(&m, &mut v);
    }
    println!(
        "# {} seed {}: {} untraced reps, {} traced, {} events, {} ops checked",
        args.workload.name,
        args.seed,
        m.untraced.len(),
        m.traced.len(),
        m.reference.events,
        m.tally.attempted
    );
    for per_layer in [false, true] {
        if per_layer && !args.trace {
            continue;
        }
        for (metric, value, n) in v.rows(per_layer) {
            let samples = n.map_or(String::new(), |n| format!(", n={n}"));
            println!(
                "{:<34} {value:>16.6} {:<6} # {}{samples}",
                metric.name, metric.unit, metric.what
            );
        }
    }
    // Per-operation latencies: context for the round metrics, printed
    // only (an operation's median is often a model constant).
    for lat in Lat::ALL {
        let l = &m.reference.out.lat[lat as usize];
        let q = |q| metrics::quantile(l, q).map(|(ns, _)| format!("{:.3}", ns as f64 / 1e3));
        if let (Ok(p50), Some((tq, tail, n))) = (q(0.5), metrics::highest_tail(l)) {
            println!(
                "# {} latency: p50 {p50} us, p{} {:.3} us (n={n})",
                lat.name(),
                tq * 100.0,
                tail as f64 / 1e3
            );
        }
    }
    if let (Some(dir), Some(ledger)) = (&args.trace_out, m.traced.first()) {
        let path = dir.join(format!("{}.trace.json", args.workload.name));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, harness::chrome_trace(&ledger.spans)))
        {
            m.tally.fail(format!("writing {}: {e}", path.display()));
        }
    }
    for f in m.tally.failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    let correct = m.tally.failed == 0;
    let line = metrics::result_json(
        correct,
        m.tally.attempted,
        m.tally.failed,
        &v.rows(args.trace),
    );
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("benchmark: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str, seed: u64) -> Args {
        Args {
            workload: workloads::by_name(name).expect("workload exists"),
            seed,
            seconds: 0.0,
            trace: true,
            trace_out: None,
            size: Size::Quick,
            json: None,
        }
    }

    #[test]
    fn every_workload_runs_clean_traced_and_deterministic() {
        for w in &workloads::ALL {
            for seed in [1, 2] {
                let mut m = measure(&quick(w.name, seed)).expect("run completes");
                assert_eq!(
                    m.tally.failed, 0,
                    "{} seed {seed}: {:?}",
                    w.name, m.tally.failures
                );
                assert!(!m.traced.is_empty());
                let mut v = Values::default();
                end_to_end(&mut m, &mut v);
                per_layer(&m, &mut v);
                assert_eq!(
                    m.tally.failed, 0,
                    "{} seed {seed}: {:?}",
                    w.name, m.tally.failures
                );
                assert!(v.get("sim_makespan_ms").expect("recorded") > 0.0);
            }
        }
    }

    #[test]
    fn seeds_change_the_scripts() {
        for w in &workloads::ALL {
            let scripts = |seed| {
                w.plan(seed, Size::Quick)
                    .procs
                    .iter()
                    .flat_map(|p| {
                        p.threads
                            .iter()
                            .map(|t| t.script.clone())
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                scripts(1),
                scripts(1),
                "{}: same seed, same scripts",
                w.name
            );
            assert_ne!(
                scripts(1),
                scripts(2),
                "{}: different seeds, different scripts",
                w.name
            );
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        let args = |s: &str| parse(s.split_whitespace().map(String::from));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload futex_mix --trace 2").is_err());
        assert!(args("--workload futex_mix --seed -1").is_err());
        assert!(args("--seed 3").is_err());
        let a = args("--workload futex_mix --seed 7 --seconds 2 --trace 1")
            .expect("valid")
            .expect("not --list");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.0, true));
    }
}
