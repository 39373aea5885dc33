//! Cross-OS integration tests through the facade crate: the same
//! application binaries run on all three OS designs, and the designs
//! differ exactly where the paper says they differ.

use popcorn::baselines::{MultikernelOs, SmpOs};
use popcorn::core::PopcornOs;
use popcorn::hw::Topology;
use popcorn::kernel::osmodel::OsModel;
use popcorn::workloads::micro;
use popcorn::workloads::npb::{self, NpbConfig};

fn all_three() -> Vec<Box<dyn OsModel>> {
    let topo = Topology::new(2, 4);
    vec![
        Box::new(PopcornOs::builder().topology(topo).kernels(2).build()),
        Box::new(SmpOs::builder().topology(topo).build()),
        Box::new(MultikernelOs::builder().topology(topo).kernels(2).build()),
    ]
}

#[test]
fn same_binary_runs_on_all_three_oses() {
    for mut os in all_three() {
        os.load(npb::cg_benchmark(NpbConfig::class_s(6)));
        let r = os.run();
        assert!(r.is_clean(), "{} stuck: {:?}", r.os, r.stuck_tasks);
        assert_eq!(r.exited_tasks, 7, "{}", r.os);
    }
}

#[test]
fn only_popcorn_moves_threads_between_kernels() {
    // Popcorn: ping-pong completes with real migrations.
    let mut pop = PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(2)
        .build();
    pop.load(Box::new(micro::MigrationPingPong::new(6)));
    let r = pop.run();
    assert!(r.is_clean());
    assert_eq!(
        r.metric("migrations_first") + r.metric("migrations_back"),
        6.0
    );
}

#[test]
fn contention_metrics_exist_only_where_the_structures_do() {
    // SMP exposes zone/mmap_sem contention; popcorn exposes protocol
    // counters; the multikernel exposes remote service counters. A model
    // without the structure does not report its metric at all.
    let topo = Topology::new(2, 4);

    let mut smp = SmpOs::builder().topology(topo).build();
    smp.load(micro::mmap_storm(6, 10, 16384));
    let rs = smp.run();
    assert!(rs.is_clean());
    assert!(rs.metric("zone_lock_acquires") > 0.0);
    assert!(!rs.metrics.contains_key("page_transfers"));

    let mut pop = PopcornOs::builder().topology(topo).kernels(2).build();
    pop.load(micro::page_bounce(6, 4, 12));
    let rp = pop.run();
    assert!(rp.is_clean());
    assert!(rp.metric("page_transfers") > 0.0);
    assert!(!rp.metrics.contains_key("zone_lock_acquires"));

    let mut mk = MultikernelOs::builder().topology(topo).kernels(2).build();
    mk.load(micro::futex_contention(6, 8, 1_000));
    let rm = mk.run();
    assert!(rm.is_clean());
    assert!(rm.metric("remote_service") > 0.0);
    assert!(!rm.metrics.contains_key("page_transfers"));
}

#[test]
fn virtual_time_orders_the_designs_plausibly_under_mmap_load() {
    // One process, threads spread: SMP should beat popcorn (distribution
    // tax); multikernel (local-only memory) should beat both.
    let topo = Topology::new(2, 4);
    let run = |mut os: Box<dyn OsModel>| {
        os.load(micro::mmap_storm(6, 20, 16384));
        let r = os.run();
        assert!(r.is_clean(), "{}", r.os);
        r.finished_at
    };
    let pop = run(Box::new(
        PopcornOs::builder().topology(topo).kernels(2).build(),
    ));
    let smp = run(Box::new(SmpOs::builder().topology(topo).build()));
    let mk = run(Box::new(
        MultikernelOs::builder().topology(topo).kernels(2).build(),
    ));
    assert!(
        pop > smp,
        "cross-kernel address space should cost more than SMP here (pop {pop}, smp {smp})"
    );
    assert!(mk < pop, "local-only multikernel must be fastest (mk {mk})");
}

#[test]
fn facade_reexports_compose() {
    // The README quickstart path: everything reachable through `popcorn::`.
    use popcorn::sim::SimTime;
    let mut os = popcorn::core::PopcornOs::builder()
        .topology(popcorn::hw::Topology::new(2, 2))
        .kernels(2)
        .build();
    os.load(popcorn::workloads::micro::spawn_join_storm(
        3,
        popcorn::kernel::program::Placement::Auto,
    ));
    let r = os.run_with(SimTime::from_secs(10), 10_000_000);
    assert!(r.is_clean());
    assert_eq!(r.exited_tasks, 4);
}
