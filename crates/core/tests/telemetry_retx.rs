//! Counter-level audit of the load-telemetry path under fabric faults
//! (the PR-6 piggyback telemetry): retransmissions and injected
//! duplicates must never double-count a load report.
//!
//! A telemetry report is counted once, at the sender, per policy tick —
//! never at delivery. A retransmitted report re-enters the fabric through
//! the transport layer (`net.retransmit`), not through the kernel's send
//! path, so it cannot re-increment `telemetry_reports`; a duplicated
//! delivery is suppressed by the channel sequence check before dispatch,
//! so it cannot double-apply the load sample either. These tests pin both
//! properties with counters instead of trusting the code path, and pin
//! that each policy-initiated move is counted once.

use popcorn_core::{PopcornOs, PopcornParams};
use popcorn_hw::Topology;
use popcorn_kernel::osmodel::{OsModel, RunReport};
use popcorn_kernel::policy::PolicyKind;
use popcorn_msg::{ChannelFaults, FaultPlan, MsgParams};
use popcorn_workloads::adversarial;

/// Runs the E13 ping-pong storm (real load skew, so the threshold policy
/// keeps reporting and acting) under `faults`, with the load-threshold
/// policy active.
fn run_storm(faults: FaultPlan) -> RunReport {
    let mut os = PopcornOs::builder()
        .topology(Topology::paper_default())
        .kernels(4)
        .msg_params(MsgParams {
            faults,
            ..MsgParams::default()
        })
        .popcorn_params(PopcornParams {
            policy: PolicyKind::LoadThreshold,
            ..PopcornParams::default()
        })
        .build();
    os.load(adversarial::pingpong_storm(3, 30, 5_000, 6, 2_000_000));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    r
}

/// A uniform plan: the same fault rates on every channel.
fn uniform(faults: ChannelFaults) -> FaultPlan {
    FaultPlan {
        seed: 0x7E1E,
        uniform: Some(faults),
        ..FaultPlan::none()
    }
}

/// Duplicating **every** message must change nothing the telemetry
/// consumer can observe: the duplicate deliveries are suppressed by the
/// sequence check before dispatch, so report counts, policy activity,
/// and the virtual timeline are identical to the same run without
/// duplication. (Both plans are fault-active, so both runs wear the
/// reliability envelope and share one timeline.)
#[test]
fn duplicated_reports_are_suppressed_not_double_counted() {
    let dup_storm = uniform(ChannelFaults {
        drop_p: 0.0,
        dup_p: 1.0,
        delay_p: 0.0,
        delay_max_ns: 0,
    });
    let no_dups = uniform(ChannelFaults {
        drop_p: 0.0,
        dup_p: 0.0,
        delay_p: 0.0,
        delay_max_ns: 0,
    });
    let dup = run_storm(dup_storm);
    let base = run_storm(no_dups);

    // The storm actually injected and suppressed duplicates.
    assert!(
        dup.metric("dup_suppressed") >= 1.0,
        "dup storm must exercise the suppression path"
    );
    assert_eq!(base.metric("dup_suppressed"), 0.0);

    // Telemetry is counted at the sender, once per tick: a duplicated
    // delivery adds nothing.
    assert_eq!(
        dup.metric("telemetry_reports"),
        base.metric("telemetry_reports"),
        "duplicate deliveries must not inflate telemetry_reports"
    );
    // The policy saw the same load picture and acted identically.
    assert_eq!(
        dup.metric("policy_migrations"),
        base.metric("policy_migrations")
    );
    assert_eq!(
        dup.metric("runq_depth_tw_mean"),
        base.metric("runq_depth_tw_mean")
    );
    // And the virtual timeline itself is untouched.
    assert_eq!(dup.finished_at, base.finished_at);
}

/// Under heavy loss every retransmitted report still counts once: the
/// sender-side counter is bounded by ticks × kernels no matter how many
/// times the transport re-sends each report.
#[test]
fn retransmitted_reports_count_once_per_tick() {
    let lossy = uniform(ChannelFaults {
        drop_p: 0.3,
        dup_p: 0.0,
        delay_p: 0.0,
        delay_max_ns: 0,
    });
    let r = run_storm(lossy);
    assert!(
        r.metric("retransmits") >= 1.0,
        "the loss storm must force retransmissions"
    );
    let period = PopcornParams::default().telemetry_period_ns;
    let ticks = r.finished_at.as_nanos() / period + 2; // +2: boundary slack
    let kernels = 4.0;
    let reports = r.metric("telemetry_reports");
    assert!(
        reports <= ticks as f64 * kernels,
        "telemetry_reports ({reports}) exceeds one per tick per kernel \
         ({ticks} ticks x {kernels} kernels): a retransmit path is \
         double-counting reports"
    );
    assert!(reports >= 1.0, "the policy must have reported at all");
}

/// Every policy move is counted once, under exactly one counter: a wake
/// chase counts in `wake_chases` only, whether the waker was still on its
/// core or parked on the remote futex server's reply, and balance, steal
/// and co-placement moves in `policy_migrations`. So on the E13 herd the
/// arrivals equal the two counters' sum.
#[test]
fn each_policy_move_is_counted_once() {
    let mut os = PopcornOs::builder()
        .topology(Topology::paper_default())
        .kernels(4)
        .popcorn_params(PopcornParams {
            policy: PolicyKind::FutexWakeLocality,
            ..PopcornParams::default()
        })
        .build();
    os.load(adversarial::thundering_herd(10, 8, 800_000));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert!(r.metric("wake_chases") >= 1.0, "the herd must be chased");
    assert_eq!(
        r.metric("migrations_first") + r.metric("migrations_back"),
        r.metric("policy_migrations") + r.metric("wake_chases"),
    );
}
