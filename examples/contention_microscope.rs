//! The contention microscope: watch SMP's shared kernel data structures
//! saturate as load grows, while the replicated kernel's partitioned
//! structures stay calm — the core argument of the paper in one binary.
//!
//! ```text
//! cargo run --release --example contention_microscope
//! ```

use popcorn::baselines::SmpOs;
use popcorn::core::PopcornOs;
use popcorn::hw::Topology;
use popcorn::kernel::osmodel::OsModel;
use popcorn::kernel::program::Placement;
use popcorn::workloads::micro::MmapWorker;
use popcorn::workloads::team::{Team, TeamConfig};

fn storm(threads: usize, iters: u32) -> Box<dyn popcorn::kernel::program::Program> {
    let mut cfg = TeamConfig::new(threads, 0);
    cfg.placement = Placement::Local;
    Team::boxed(
        cfg,
        Box::new(move |_, _| Box::new(MmapWorker::new(iters, 4 * 4096))),
    )
}

fn main() {
    let topo = Topology::paper_default(); // 64 cores, 4 sockets
    let procs = 4;
    let total_iters = 2880u32;

    println!("4 processes x map/touch/unmap storms on a 64-core machine\n");
    println!(
        "{:>7} {:>12} {:>12} {:>16} {:>18}",
        "threads", "popcorn_ms", "smp_ms", "zone_lock_wait", "zone_contention"
    );

    for total in [4usize, 16, 60] {
        let per_proc = total / procs;
        let iters = total_iters / total as u32;

        let mut pop = PopcornOs::builder().topology(topo).kernels(4).build();
        for _ in 0..procs {
            pop.load(storm(per_proc, iters));
        }
        let rp = pop.run();
        assert!(rp.is_clean());

        let mut smp = SmpOs::new(topo);
        for _ in 0..procs {
            smp.load(storm(per_proc, iters));
        }
        let rs = smp.run();
        assert!(rs.is_clean());

        println!(
            "{:>7} {:>12.3} {:>12.3} {:>13.2} us {:>17.0}%",
            total,
            rp.finished_at.as_millis_f64(),
            rs.finished_at.as_millis_f64(),
            rs.metric("zone_lock_wait_us_mean"),
            rs.metric("zone_lock_contention") * 100.0,
        );
    }

    println!();
    println!(
        "the zone_lock columns are SMP-only: its single page allocator is \
         shared by all 64 cores and all processes. Each replicated kernel \
         owns a private allocator, so the same workload never queues there."
    );
}
