//! The timing decorator must be invisible to the simulation: for every
//! policy, with and without failure injection, a decorated run gives the
//! same objectives (to the bit) and the same event count as a plain one.

use ccs_economy::EconomicModel;
use ccs_experiments::ExperimentConfig;
use ccs_perfbench::traced::{simulate_decorated, POLICIES};
use ccs_policies::PolicyKind;
use ccs_simsvc::{simulate_counted, simulate_faulty_counted, FaultConfig, RunConfig};
use ccs_workload::{apply_scenario, Job};

fn jobs() -> Vec<Job> {
    let cfg = ExperimentConfig::quick().with_jobs(150);
    let base = cfg.trace.generate(11);
    apply_scenario(
        &base,
        &ccs_experiments::baseline(ccs_experiments::EstimateSet::B),
        11,
    )
}

fn econ_of(kind: PolicyKind) -> EconomicModel {
    match kind {
        PolicyKind::FirstReward | PolicyKind::LibraRiskD => EconomicModel::BidBased,
        _ => EconomicModel::CommodityMarket,
    }
}

#[test]
fn decorated_runs_match_plain_runs_for_every_policy() {
    let jobs = jobs();
    // Frequent failures on a small cluster, so every failure and repair
    // hook, batch forms included, is exercised.
    let storm = FaultConfig::exponential(5, 6.0 * 3600.0, 2.0 * 3600.0);
    let mut interrupted = 0;
    for kind in POLICIES {
        let cfg = RunConfig {
            nodes: 32,
            econ: econ_of(kind),
        };
        for fault in [None, Some(storm)] {
            let (plain, plain_events) = match &fault {
                Some(f) => simulate_faulty_counted(&jobs, kind, &cfg, f),
                None => simulate_counted(&jobs, kind, &cfg),
            };
            let run = simulate_decorated(&jobs, kind, &cfg, fault.as_ref());
            let bits = |o: [f64; 4]| o.map(f64::to_bits);
            assert_eq!(
                bits(run.objectives),
                bits(plain.metrics.objectives()),
                "{kind} fault={}",
                fault.is_some()
            );
            assert_eq!(run.events, plain_events, "{kind} fault={}", fault.is_some());
            assert!(run.hooks.submits >= jobs.len() as u64, "{kind}");
            assert!(run.hooks.accepted > 0, "{kind}");
            assert!(run.run_ns >= run.hooks.hook_ns(), "{kind}");
            if fault.is_some() {
                assert!(run.hooks.fault_ns > 0, "{kind}: failure hooks never ran");
                interrupted += run.hooks.interruptions;
            } else {
                assert_eq!(run.hooks.interruptions, 0, "{kind}");
                assert_eq!(run.hooks.fault_ns, 0, "{kind}");
            }
        }
    }
    assert!(interrupted > 0, "the failure storm interrupted no job");
}
