//! # ccs-simsvc — the commercial computing service simulator
//!
//! Glues the substrates together: a workload (ccs-workload) is fed job by
//! job into a policy (ccs-policies) operating a cluster (ccs-cluster) under
//! an economic model (ccs-economy). The output is a [`RunResult`]: the
//! aggregate [`RunMetrics`] from which the paper's four objectives (wait,
//! SLA, reliability, profitability) are computed, plus per-job
//! [`JobRecord`]s for drill-down.
//!
//! Every run goes through one driver, [`run`]. Its [`RunOptions`] add
//! fault injection ([`FaultConfig`]), a watchdog ([`RunBudget`]) and a
//! streaming [`RunObserver`]; tracing ([`run_traced`]) and invariant
//! checking ([`check_run`]) are passes over its [`RunOutput`]. [`simulate`]
//! is the one-line convenience for a built-in policy:
//!
//! ```
//! use ccs_simsvc::{simulate, RunConfig};
//! use ccs_policies::PolicyKind;
//! use ccs_economy::EconomicModel;
//! use ccs_workload::{apply_scenario, ScenarioTransform, SdscSp2Model};
//!
//! let base = SdscSp2Model::small().generate(42);
//! let jobs = apply_scenario(&base, &ScenarioTransform::default(), 42);
//! let cfg = RunConfig { nodes: 128, econ: EconomicModel::CommodityMarket };
//! let result = simulate(&jobs, PolicyKind::Libra, &cfg);
//! let [wait, sla, reliability, profitability] = result.metrics.objectives();
//! assert!(sla <= 100.0 && reliability <= 100.0 && profitability <= 100.0);
//! assert!(wait >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod fault;
pub mod invariant;
pub mod metrics;
pub mod observe;
pub mod record;
pub mod runner;
pub mod samples;
pub mod timeline;
pub mod trace;

pub use budget::{BudgetExceeded, BudgetKind, RunBudget};
pub use fault::{Degradation, FaultConfig};
pub use invariant::{check_run, simulate_checked, CheckedRun, Violation};
pub use metrics::RunMetrics;
pub use observe::{LiveRunStats, RunObserver};
pub use record::JobRecord;
pub use runner::{
    run, simulate, simulate_counted, simulate_faulty_counted, simulate_guarded_with, RunConfig,
    RunOptions, RunOutput, RunResult,
};
pub use timeline::{TimePoint, Timeline};
pub use trace::{run_traced, RunTrace};
