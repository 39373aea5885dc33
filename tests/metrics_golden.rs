//! Golden metrics: pins every `RunReport` metric of small runs, bit for
//! bit, across the three OS models and the Popcorn feature gates.
//!
//! Each run renders as a header line, the report's `events`,
//! `exited_tasks` and `finished_at`, then one line per metric with the
//! f64's bits in hex (and its value, for the reader). The rendering is
//! compared with the checked-in `metrics_golden.txt`; a mismatch names
//! the first differing line. Any change to a metric's name, value or
//! presence — including a refactor of how metrics are collected — shows
//! up here, so the file must only change together with the model.

use std::fmt::Write as _;

use popcorn::baselines::{MultikernelOs, SmpOs};
use popcorn::core::{PopcornOs, PopcornParams};
use popcorn::hw::Topology;
use popcorn::kernel::osmodel::{OsModel, RunReport};
use popcorn::kernel::policy::PolicyKind;
use popcorn::kernel::program::Program;
use popcorn::msg::{ChannelFaults, FaultPlan, KernelId, MsgParams};
use popcorn::sim::SimTime;
use popcorn::workloads::{adversarial, micro};

const GOLDEN: &str = include_str!("metrics_golden.txt");

fn popcorn(kernels: u16, plan: FaultPlan, params: PopcornParams) -> Box<dyn OsModel> {
    Box::new(
        PopcornOs::builder()
            .topology(Topology::new(2, 4))
            .kernels(kernels)
            .msg_params(MsgParams {
                faults: plan,
                ..MsgParams::default()
            })
            .popcorn_params(params)
            .build(),
    )
}

fn page_bounce() -> Box<dyn Program> {
    micro::page_bounce(6, 6, 30)
}

fn migrating_writers() -> Box<dyn Program> {
    adversarial::migrating_writers(4, 4, 2, 4, 10_000)
}

fn ping_pong() -> Box<dyn Program> {
    Box::new(micro::MigrationPingPong::new(30))
}

/// A labelled OS model and the program it runs.
type Run = (&'static str, Box<dyn OsModel>, Box<dyn Program>);

/// Every configuration and workload pinned by the golden file.
fn runs() -> Vec<Run> {
    let clean = FaultPlan::none;
    let noisy = || FaultPlan {
        seed: 0x601D,
        uniform: Some(ChannelFaults {
            drop_p: 0.02,
            dup_p: 0.02,
            delay_p: 0.05,
            delay_max_ns: 20_000,
        }),
        ..FaultPlan::none()
    };
    let crash = || FaultPlan::none().with_crash(KernelId(1), SimTime::from_micros(300));
    // Kills the home of every group: kernel 1 adopts it.
    let home_crash = || FaultPlan::none().with_crash(KernelId(0), SimTime::from_micros(300));
    let stealing = || PopcornParams {
        policy: PolicyKind::WorkStealing,
        ..PopcornParams::default()
    };
    let replicas = || PopcornParams {
        page_table_replication: true,
        replicate_on_first_fault: true,
        ..PopcornParams::default()
    };
    let sharding = || PopcornParams {
        home_sharding: true,
        ..PopcornParams::default()
    };
    let sharded_first_touch = || PopcornParams {
        home_sharding: true,
        sync_first_touch_homing: true,
        ..PopcornParams::default()
    };
    let dflt = PopcornParams::default;
    let smp = || -> Box<dyn OsModel> { Box::new(SmpOs::new(Topology::new(2, 4))) };
    let mk = || -> Box<dyn OsModel> { Box::new(MultikernelOs::new(Topology::new(2, 4), 4)) };
    vec![
        (
            "popcorn page_bounce",
            popcorn(4, clean(), dflt()),
            page_bounce(),
        ),
        (
            "popcorn migrating_writers",
            popcorn(4, clean(), dflt()),
            migrating_writers(),
        ),
        (
            "faults page_bounce",
            popcorn(4, noisy(), dflt()),
            page_bounce(),
        ),
        (
            "faults migrating_writers",
            popcorn(4, noisy(), dflt()),
            migrating_writers(),
        ),
        ("crash ping_pong", popcorn(4, crash(), dflt()), ping_pong()),
        (
            "home crash page_bounce",
            popcorn(4, home_crash(), sharded_first_touch()),
            page_bounce(),
        ),
        (
            "home crash migrating_writers",
            popcorn(4, home_crash(), sharded_first_touch()),
            migrating_writers(),
        ),
        (
            "stealing page_bounce",
            popcorn(4, clean(), stealing()),
            page_bounce(),
        ),
        (
            "stealing migrating_writers",
            popcorn(4, clean(), stealing()),
            migrating_writers(),
        ),
        (
            "replicas page_bounce",
            popcorn(4, clean(), replicas()),
            page_bounce(),
        ),
        (
            "replicas migrating_writers",
            popcorn(4, clean(), replicas()),
            migrating_writers(),
        ),
        (
            "sharding page_bounce",
            popcorn(2, clean(), sharding()),
            page_bounce(),
        ),
        (
            "sharding migrating_writers",
            popcorn(2, clean(), sharding()),
            migrating_writers(),
        ),
        ("smp page_bounce", smp(), page_bounce()),
        ("multikernel page_bounce", mk(), page_bounce()),
    ]
}

fn render_report(out: &mut String, name: &str, r: &RunReport) {
    writeln!(out, "== {name} ({})", r.os).unwrap();
    writeln!(out, "events {}", r.events).unwrap();
    writeln!(out, "exited_tasks {}", r.exited_tasks).unwrap();
    writeln!(out, "finished_at {}", r.finished_at.as_nanos()).unwrap();
    for (k, v) in &r.metrics {
        writeln!(out, "{k} {:#018x} {v:?}", v.to_bits()).unwrap();
    }
}

fn render() -> String {
    let mut out = String::new();
    for (name, mut os, program) in runs() {
        os.load(program);
        let r = os.run();
        assert!(r.is_clean(), "{name}: stuck {:?}", r.stuck_tasks);
        render_report(&mut out, name, &r);
    }
    out
}

#[test]
fn metrics_match_the_golden_file() {
    let actual = render();
    let mut want = GOLDEN.lines();
    let mut got = actual.lines();
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) if w == g => {}
            (w, g) => panic!(
                "metrics_golden.txt line {line}: expected {:?}, got {:?}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>")
            ),
        }
    }
}
