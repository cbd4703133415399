//! Systematic failure injection: for small systems, crash **every**
//! process at **every** early time and check the paper's algorithms
//! survive — a denser sweep than random patterns can give.

use sih::agreement::{check_k_set_agreement, distinct_proposals};
use sih::detectors::{check_anti_omega, check_sigma};
use sih::model::{FailurePattern, LinkFaultPlan, ProcessId, ProcessSet, Time};
use sih::pipeline;
use sih::runtime::{LivenessVerdict, SimPool, TraceLevel};
use sih_lab::repro::{Algo, Pools};
use sih_lab::run_fault_cell;

#[test]
fn fig2_survives_every_single_crash_time() {
    let n = 4;
    let mut pool = SimPool::new();
    for victim in 0..n as u32 {
        for crash_t in 1..=12u64 {
            let pattern =
                FailurePattern::builder(n).crash_at(ProcessId(victim), Time(crash_t)).build();
            let (p, q) = (ProcessId(0), ProcessId(1));
            let tr = pipeline::run_fig2_pooled(&mut pool, &pattern, p, q, crash_t, 150_000);
            check_k_set_agreement(tr, &pattern, &distinct_proposals(n), n - 1)
                .unwrap_or_else(|e| panic!("victim p{victim} at t{crash_t}: {e}"));
        }
    }
}

#[test]
fn fig2_survives_every_double_crash() {
    let n = 4;
    let mut pool = SimPool::new();
    for v1 in 0..n as u32 {
        for v2 in (v1 + 1)..n as u32 {
            for crash_t in [1u64, 5, 15] {
                let pattern = FailurePattern::builder(n)
                    .crash_at(ProcessId(v1), Time(crash_t))
                    .crash_at(ProcessId(v2), Time(crash_t + 3))
                    .build();
                let (p, q) = (ProcessId(0), ProcessId(1));
                let tr = pipeline::run_fig2_pooled(&mut pool, &pattern, p, q, crash_t, 150_000);
                check_k_set_agreement(tr, &pattern, &distinct_proposals(n), n - 1)
                    .unwrap_or_else(|e| panic!("p{v1},p{v2} at t{crash_t}: {e}"));
            }
        }
    }
}

#[test]
fn fig4_survives_every_single_crash_time() {
    let n = 5;
    let k = 2;
    let active: ProcessSet = (0..4u32).map(ProcessId).collect();
    let mut pool = SimPool::new();
    for victim in 0..n as u32 {
        for crash_t in [1u64, 4, 9, 20] {
            let pattern =
                FailurePattern::builder(n).crash_at(ProcessId(victim), Time(crash_t)).build();
            let tr = pipeline::run_fig4_pooled(&mut pool, &pattern, active, crash_t, 250_000);
            check_k_set_agreement(tr, &pattern, &distinct_proposals(n), n - k)
                .unwrap_or_else(|e| panic!("victim p{victim} at t{crash_t}: {e}"));
        }
    }
}

#[test]
fn fig2_survives_every_crash_x_partition_product() {
    // The crash × link-fault product: every victim crashed early, crossed
    // with a healing drop window on every directed link. The stubborn
    // layer must re-deliver what the window ate, so every run is not just
    // safe but Live. Each run goes through the fault matrix's cell runner.
    let n = 4;
    let mut pools = Pools::new(TraceLevel::Full);
    for victim in 0..n as u32 {
        let pattern = FailurePattern::builder(n).crash_at(ProcessId(victim), Time(5)).build();
        for src in 0..n as u32 {
            for dst in 0..n as u32 {
                if src == dst {
                    continue;
                }
                let plan = LinkFaultPlan::builder(n)
                    .drop_link(ProcessId(src), ProcessId(dst), Time::ZERO, Some(Time(300)))
                    .build();
                let seed = u64::from(victim * 16 + src * 4 + dst);
                let (verdict, _) =
                    run_fault_cell(&mut pools, Algo::Fig2, &pattern, &plan, seed, 400_000);
                let verdict =
                    verdict.unwrap_or_else(|e| panic!("victim p{victim}, drop p{src}→p{dst}: {e}"));
                assert_eq!(
                    verdict,
                    LivenessVerdict::Live,
                    "victim p{victim}, drop p{src}→p{dst}: healed faults must not cost liveness"
                );
            }
        }
    }
}

#[test]
fn fig4_survives_every_crash_x_partition_product() {
    // The fault matrix's fig4 cell: k = 1, actives {p0, p1}.
    let n = 4;
    let mut pools = Pools::new(TraceLevel::Full);
    for victim in 0..n as u32 {
        let pattern = FailurePattern::builder(n).crash_at(ProcessId(victim), Time(5)).build();
        for src in 0..n as u32 {
            for dst in 0..n as u32 {
                if src == dst {
                    continue;
                }
                let plan = LinkFaultPlan::builder(n)
                    .drop_link(ProcessId(src), ProcessId(dst), Time::ZERO, Some(Time(300)))
                    .build();
                let seed = u64::from(victim * 16 + src * 4 + dst);
                let (verdict, _) =
                    run_fault_cell(&mut pools, Algo::Fig4, &pattern, &plan, seed, 400_000);
                let verdict =
                    verdict.unwrap_or_else(|e| panic!("victim p{victim}, drop p{src}→p{dst}: {e}"));
                assert_eq!(
                    verdict,
                    LivenessVerdict::Live,
                    "victim p{victim}, drop p{src}→p{dst}: healed faults must not cost liveness"
                );
            }
        }
    }
}

#[test]
fn fig3_emulation_survives_every_single_crash_time() {
    let n = 4;
    let pair = ProcessSet::from_iter([0, 1].map(ProcessId));
    let mut pool = SimPool::new();
    for victim in 0..n as u32 {
        for crash_t in [1u64, 6, 14] {
            let pattern =
                FailurePattern::builder(n).crash_at(ProcessId(victim), Time(crash_t)).build();
            let (p, q) = (ProcessId(0), ProcessId(1));
            let tr = pipeline::run_fig3_pooled(&mut pool, &pattern, p, q, crash_t, 6_000);
            check_sigma(tr.emulated_history(), &pattern, pair)
                .unwrap_or_else(|e| panic!("victim p{victim} at t{crash_t}: {e}"));
        }
    }
}

#[test]
fn fig6_emulation_survives_every_single_crash_time() {
    let n = 4;
    let mut pool = SimPool::new();
    for victim in 0..n as u32 {
        for crash_t in [1u64, 6, 14] {
            let pattern =
                FailurePattern::builder(n).crash_at(ProcessId(victim), Time(crash_t)).build();
            let (p, q) = (ProcessId(0), ProcessId(1));
            let tr = pipeline::run_fig6_pooled(&mut pool, &pattern, p, q, crash_t, 25_000);
            check_anti_omega(tr.emulated_history(), &pattern)
                .unwrap_or_else(|e| panic!("victim p{victim} at t{crash_t}: {e}"));
        }
    }
}
