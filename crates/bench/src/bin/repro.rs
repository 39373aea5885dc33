//! Regenerates the paper's evaluation tables/figures.
//!
//! ```text
//! repro all                 # every experiment
//! repro e5 e8               # selected experiments
//! repro list                # available ids
//! repro all --json out/     # also dump each table as JSON
//! repro all --jobs 8        # host threads for independent simulations
//! repro all --jobs 1        # fully serial execution
//! ```
//!
//! All runs are deterministic and seeded, and each simulation runs on one
//! host thread, so `--jobs N` (host threads across independent
//! simulations) never changes a single virtual-time result — the tables
//! (and `--json` files) are byte-identical to a `--jobs 1` run. The
//! numbers printed here are the ones recorded in EXPERIMENTS.md.
//!
//! Each invocation that runs experiments also records simulator
//! self-metrics (host time summed over each experiment's cells, events
//! processed, events/sec per experiment) to `BENCH_repro.json` in the
//! current directory.

use std::io::Write;
use std::time::Instant;

use popcorn_bench::check::run_all_checks;
use popcorn_bench::cli::{self, Mode};
use popcorn_bench::experiments::all_experiments;
use popcorn_bench::rig::{perf_json, run, ExperimentPerf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = all_experiments();
    let ids: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();

    let cli = match cli::parse(&args, &ids) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    match cli.mode {
        Mode::List => {
            for id in &ids {
                println!("{id}");
            }
            println!("check");
            return;
        }
        Mode::Check => {
            let results = run_all_checks(cli.jobs);
            let mut failed = false;
            for r in &results {
                let mark = if r.passed { "PASS" } else { "FAIL" };
                let c = r.claim;
                println!(
                    "[{mark}] {} — results/{}.json [{}]: {}",
                    c.name, c.experiment, c.rows, r.detail
                );
                failed |= !r.passed;
            }
            if failed {
                eprintln!("shape regressions detected");
                std::process::exit(1);
            }
            return;
        }
        Mode::Run => {}
    }

    if let Some(dir) = &cli.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }

    // Every cell of every selected experiment goes through one parallel
    // map; tables render in request order, identical to a serial run.
    let selected: Vec<_> = cli
        .selected
        .iter()
        .map(|id| {
            *experiments
                .iter()
                .find(|(i, _)| i == id)
                .expect("ids validated by cli::parse")
        })
        .collect();
    let run_started = Instant::now();
    let runs = run(cli.jobs, &selected);
    let total_wall = run_started.elapsed();

    for (table, p) in &runs {
        println!("{}", table.render());
        println!(
            "(regenerated in {:.1}s host time; {} events, {:.0} events/s)\n",
            p.wall.as_secs_f64(),
            p.events,
            p.events_per_sec()
        );
        if let Some(dir) = &cli.json_dir {
            let path = format!("{dir}/{}.json", p.id);
            let mut file = std::fs::File::create(&path).expect("create json file");
            file.write_all(table.to_json_pretty().as_bytes())
                .expect("write json");
            println!("wrote {path}\n");
        }
    }

    let perfs: Vec<ExperimentPerf> = runs.into_iter().map(|(_, p)| p).collect();
    let perf_path = "BENCH_repro.json";
    std::fs::write(perf_path, perf_json(cli.jobs, total_wall, &perfs)).expect("write perf json");
    println!(
        "({} experiments in {:.1}s host time at --jobs {}; self-metrics in {perf_path})",
        perfs.len(),
        total_wall.as_secs_f64(),
        cli.jobs
    );
}
