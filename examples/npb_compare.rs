//! Run the same NPB-class benchmark on all three OS designs and compare —
//! a miniature of the paper's headline evaluation.
//!
//! ```text
//! cargo run --release --example npb_compare
//! ```

use popcorn::baselines::{MultikernelOs, SmpOs};
use popcorn::core::PopcornOs;
use popcorn::hw::Topology;
use popcorn::kernel::osmodel::{OsModel, RunReport};
use popcorn::workloads::npb::{self, NpbConfig};

fn run(mut os: Box<dyn OsModel>, cfg: NpbConfig) -> RunReport {
    os.load(npb::is_benchmark(cfg));
    let r = os.run();
    assert!(r.is_clean(), "{} run not clean", r.os);
    r
}

fn main() {
    let topo = Topology::new(2, 8); // 16 cores, 2 sockets
    let threads = 12;
    let cfg = NpbConfig {
        threads,
        iterations: 8,
        pages_per_thread: 8,
        compute_cycles: 2_000_000,
        barrier_groups: 0,
    };

    println!("IS-class benchmark, {threads} threads, 16-core machine\n");

    let popcorn = run(
        Box::new(PopcornOs::builder().topology(topo).kernels(2).build()),
        cfg,
    );
    let smp = run(Box::new(SmpOs::new(topo)), cfg);
    let mk = run(Box::new(MultikernelOs::new(topo, 2)), cfg);

    println!(
        "{:<14} {:>12} {:>10} {:>10}",
        "os", "total_ms", "faults", "ctx_sw"
    );
    for r in [&popcorn, &smp, &mk] {
        println!(
            "{:<14} {:>12.3} {:>10} {:>10}",
            r.os,
            r.finished_at.as_millis_f64(),
            r.metric("faults"),
            r.metric("ctx_switches"),
        );
    }

    println!();
    println!("popcorn-only protocol work for the same application binary:");
    println!(
        "  remote faults   : {}",
        popcorn.metric("faults_remote_read") + popcorn.metric("faults_remote_write")
    );
    println!("  page transfers  : {}", popcorn.metric("page_transfers"));
    println!("  remote futex ops: {}", popcorn.metric("futex_remote"));
    println!("  messages        : {}", popcorn.metric("messages"));
    println!();
    println!(
        "the multikernel ran the same program but its \"shared\" data is \
         private per kernel — no single-system image. The replicated \
         kernel gives SMP semantics at the cost of the traffic above."
    );
}
