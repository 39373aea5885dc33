//! Criterion benches: one group per evaluation experiment class (E1–E11).
//!
//! These measure the *host-side* cost of regenerating each figure at a
//! reduced scale — i.e. simulator throughput per experiment class. The
//! figures themselves (virtual-time results) come from the `repro` binary;
//! see EXPERIMENTS.md. Keeping both lets CI catch simulator performance
//! regressions without rerunning the full sweeps.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use popcorn_bench::rig::{host_parallelism, parallel_map};
use popcorn_bench::{OsKind, Rig};
use popcorn_hw::{HwParams, Machine, Topology};
use popcorn_kernel::program::Program;
use popcorn_msg::{Fabric, KernelId, MsgParams, Wire};
use popcorn_sim::SimTime;
use popcorn_workloads::micro;
use popcorn_workloads::npb::{self, NpbConfig};

struct Blob(usize);
impl Wire for Blob {
    fn wire_size(&self) -> usize {
        self.0
    }
}

fn small_rig() -> Rig {
    Rig::small()
}

/// E1 class: message fabric throughput.
fn bench_e1_messaging(c: &mut Criterion) {
    let machine = Machine::new(Topology::new(2, 4), HwParams::default());
    c.bench_function("e1/fabric_send_1k_msgs", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(
                &machine,
                vec![popcorn_hw::CoreId(0), popcorn_hw::CoreId(4)],
                MsgParams::default(),
            );
            let mut last = SimTime::ZERO;
            for _ in 0..1_000 {
                last = fabric
                    .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
                    .expect_delivered()
                    .deliver_at;
            }
            black_box(last)
        })
    });
}

/// E2 class: migration ping-pong simulation.
fn bench_e2_migration(c: &mut Criterion) {
    c.bench_function("e2/migration_pingpong_20", |b| {
        let rig = small_rig();
        b.iter(|| {
            let pingpong: Box<dyn Program> = Box::new(micro::MigrationPingPong::new(20));
            black_box(rig.run(OsKind::Popcorn, [pingpong]).finished_at)
        })
    });
}

/// E3 class: spawn/join storms on each OS.
fn bench_e3_thread_group(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3");
    for kind in OsKind::ALL {
        g.bench_function(format!("spawn_join_16/{}", kind.name()), |b| {
            let rig = small_rig();
            b.iter(|| {
                black_box(
                    rig.run(
                        kind,
                        [micro::spawn_join_storm(
                            16,
                            popcorn_kernel::program::Placement::Auto,
                        )],
                    )
                    .finished_at,
                )
            })
        });
    }
    g.finish();
}

/// E4 class: page-protocol traffic.
fn bench_e4_page_protocol(c: &mut Criterion) {
    c.bench_function("e4/page_bounce_8x4x20", |b| {
        let rig = small_rig();
        b.iter(|| {
            black_box(
                rig.run(OsKind::Popcorn, [micro::page_bounce(8, 4, 20)])
                    .finished_at,
            )
        })
    });
}

/// E5 class: mmap storms on each OS.
fn bench_e5_mmap(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5");
    for kind in OsKind::ALL {
        g.bench_function(format!("mmap_storm_8x20/{}", kind.name()), |b| {
            let rig = small_rig();
            b.iter(|| black_box(rig.run(kind, [micro::mmap_storm(8, 20, 16384)]).finished_at))
        });
    }
    g.finish();
}

/// E6 class: futex contention on each OS.
fn bench_e6_futex(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6");
    for kind in OsKind::ALL {
        g.bench_function(format!("futex_contention_8x20/{}", kind.name()), |b| {
            let rig = small_rig();
            b.iter(|| {
                black_box(
                    rig.run(kind, [micro::futex_contention(8, 20, 2_000)])
                        .finished_at,
                )
            })
        });
    }
    g.finish();
}

/// E7 class: null syscall storms on each OS.
fn bench_e7_syscalls(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7");
    for kind in OsKind::ALL {
        g.bench_function(format!("null_syscalls_8x500/{}", kind.name()), |b| {
            let rig = small_rig();
            b.iter(|| {
                black_box(
                    rig.run(kind, [micro::null_syscall_storm(8, 500)])
                        .finished_at,
                )
            })
        });
    }
    g.finish();
}

/// E8–E10 class: the NPB kernels on each OS.
fn bench_npb(c: &mut Criterion) {
    let mut g = c.benchmark_group("npb");
    g.sample_size(20);
    let cfg = NpbConfig::class_s(8);
    for (name, make) in [
        ("e8_is", npb::is_benchmark as fn(NpbConfig) -> _),
        ("e9_cg", npb::cg_benchmark),
        ("e10_ft", npb::ft_benchmark),
        ("e11_mg", npb::mg_benchmark),
    ] {
        for kind in OsKind::ALL {
            g.bench_function(format!("{name}/{}", kind.name()), |b| {
                let rig = small_rig();
                b.iter(|| black_box(rig.run(kind, [make(cfg)]).finished_at))
            });
        }
    }
    g.finish();
}

/// Sweep harness: the same 6-cell sweep through [`parallel_map`] serially
/// and at full host parallelism. The wall-clock gap is the speedup the
/// `repro --jobs` machinery buys; the results are asserted identical.
#[allow(clippy::disallowed_methods)]
fn bench_parallel_sweep(c: &mut Criterion) {
    let run_sweep = |jobs: usize| {
        let rig = small_rig();
        parallel_map(jobs, vec![2usize, 4, 6, 8, 12, 16], |n| {
            rig.run(OsKind::Popcorn, [micro::null_syscall_storm(n, 300)])
                .finished_at
        })
    };
    let host = host_parallelism();
    assert_eq!(
        run_sweep(1),
        run_sweep(host),
        "parallel sweep must match serial"
    );

    let mut g = c.benchmark_group("sweep");
    g.bench_function("6pt_syscall_storm/serial", |b| {
        b.iter(|| black_box(run_sweep(1)))
    });
    g.bench_function("6pt_syscall_storm/parallel", |b| {
        b.iter(|| black_box(run_sweep(host)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_e1_messaging,
    bench_e2_migration,
    bench_e3_thread_group,
    bench_e4_page_protocol,
    bench_e5_mmap,
    bench_e6_futex,
    bench_e7_syscalls,
    bench_npb,
    bench_parallel_sweep,
);
criterion_main!(benches);
