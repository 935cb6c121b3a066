//! The three batch workloads: their cells, set-up, and one timed pass.

use crate::digest::{grid_digest, Fnv};
use ccs_economy::EconomicModel;
use ccs_experiments::figures::{print_figure, write_figure};
use ccs_experiments::report_md::evaluation_report;
use ccs_experiments::{
    policies_for, run_cell_ensemble, run_evaluation, tables, write_atomic, EstimateSet, Evaluation,
    EvaluationExport, ExperimentConfig, ResultStore, Scenario,
};
use ccs_policies::PolicyKind;
use ccs_simsvc::{simulate_counted, simulate_faulty_counted, FaultConfig, RunConfig};
use ccs_workload::{apply_scenario, Job};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker threads of every pool the benchmark drives (grid, sweep and
/// replica pools alike).
pub const THREADS: usize = 2;

/// Fault-seed replicas per `failure_storm` cell.
pub(crate) const STORM_REPLICAS: usize = 4;

/// Jobs in the trace of a full run, and of a smoke run.
pub(crate) const FULL_JOBS: usize = 5000;
/// Jobs per trace in smoke mode.
pub(crate) const SMOKE_JOBS: usize = 30;

/// The space-shared policies `backfill_sweep` keeps.
pub(crate) const SPACE_SHARED: [PolicyKind; 4] = [
    PolicyKind::FcfsBf,
    PolicyKind::SjfBf,
    PolicyKind::EdfBf,
    PolicyKind::FirstReward,
];

/// Every (economic model, estimate set) grid, in study order.
pub(crate) const GRIDS: [(EconomicModel, EstimateSet); 4] = [
    (EconomicModel::CommodityMarket, EstimateSet::A),
    (EconomicModel::CommodityMarket, EstimateSet::B),
    (EconomicModel::BidBased, EstimateSet::A),
    (EconomicModel::BidBased, EstimateSet::B),
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The full evaluation plus the artifact pass of `utility_risk all`.
    PaperStudy,
    /// The study's grid restricted to the space-shared policies.
    BackfillSweep,
    /// The failure-rate scenario's nonzero rates as fault-seed ensembles.
    FailureStorm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperStudy,
        Workload::BackfillSweep,
        Workload::FailureStorm,
    ];

    /// The name results and reports cite.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStudy => "paper_study",
            Workload::BackfillSweep => "backfill_sweep",
            Workload::FailureStorm => "failure_storm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Replicas per cell.
    pub fn replicas(self, opts: &Options) -> usize {
        match self {
            Workload::FailureStorm if opts.smoke => 2,
            Workload::FailureStorm => STORM_REPLICAS,
            _ => 1,
        }
    }

    /// Whether the workload simulates cell `(scenario, value, policy)`.
    fn includes(self, scenario_idx: usize, value_idx: usize, kind: PolicyKind) -> bool {
        match self {
            Workload::PaperStudy => true,
            Workload::BackfillSweep => SPACE_SHARED.contains(&kind),
            Workload::FailureStorm => {
                Scenario::ALL[scenario_idx] == Scenario::FailureRate && value_idx > 0
            }
        }
    }
}

/// Run options shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload seed: the trace, its QoS annotation and the failure weather.
    pub seed: u64,
    /// Seconds of timed passes per run: another pass starts only while it
    /// is expected to end within them (at least one pass runs).
    pub seconds: f64,
    /// Tiny trace, for tests.
    pub smoke: bool,
}

impl Options {
    /// The experiment configuration every workload derives its inputs from.
    pub fn config(&self) -> ExperimentConfig {
        let jobs = if self.smoke { SMOKE_JOBS } else { FULL_JOBS };
        ExperimentConfig {
            threads: THREADS,
            seed: self.seed,
            ..ExperimentConfig::default().with_jobs(jobs)
        }
    }
}

/// One simulation cell with its generated inputs.
#[derive(Clone, Debug)]
pub(crate) struct Cell {
    /// Economic model.
    pub econ: EconomicModel,
    /// Estimate set.
    pub set: EstimateSet,
    /// Index into `Scenario::ALL`.
    pub scenario_idx: usize,
    /// Index into the scenario's six values.
    pub value_idx: usize,
    /// Policy.
    pub kind: PolicyKind,
    /// Cluster and economic model of the run.
    pub run_cfg: RunConfig,
    /// The cell's job stream, shared between cells with the same transform.
    pub jobs: Arc<Vec<Job>>,
    /// Failure injection, for nonzero failure rates.
    pub fault: Option<FaultConfig>,
}

impl Cell {
    /// `econ/set/scenario/value/policy`, as used in trace span names.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.econ,
            self.set.label(),
            self.scenario_idx,
            self.value_idx,
            self.kind.name()
        )
    }

    /// Index of the cell's (economic model, estimate set) in [`GRIDS`].
    pub fn grid(&self) -> usize {
        GRIDS
            .iter()
            .position(|&(e, s)| e == self.econ && s == self.set)
            .expect("every cell belongs to a grid")
    }
}

/// What set-up produced, and what it cost, per layer.
#[derive(Debug)]
pub(crate) struct Inputs {
    /// The cells, grouped by grid in [`GRIDS`] order, then in (scenario,
    /// value, policy) order.
    pub cells: Vec<Cell>,
    /// Seconds in `SdscSp2Model::generate`.
    pub generate_s: f64,
    /// Seconds in `apply_scenario`.
    pub apply_scenario_s: f64,
}

/// Synthesises the base trace and every job stream the workload's cells
/// need, one `apply_scenario` per distinct scenario transform.
pub(crate) fn build_cells(workload: Workload, cfg: &ExperimentConfig) -> Inputs {
    let t0 = Instant::now();
    let base = cfg.trace.generate(cfg.seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let mut apply_scenario_s = 0.0;
    let mut streams: HashMap<String, Arc<Vec<Job>>> = HashMap::new();
    let mut cells = Vec::new();
    for (econ, set) in GRIDS {
        let run_cfg = RunConfig {
            nodes: cfg.nodes,
            econ,
        };
        for (scenario_idx, scenario) in Scenario::ALL.into_iter().enumerate() {
            for (value_idx, value) in scenario.values().into_iter().enumerate() {
                let kinds: Vec<PolicyKind> = policies_for(econ)
                    .into_iter()
                    .filter(|&k| workload.includes(scenario_idx, value_idx, k))
                    .collect();
                if kinds.is_empty() {
                    continue;
                }
                let transform = scenario.transform(set, value);
                let jobs =
                    Arc::clone(streams.entry(format!("{transform:?}")).or_insert_with(|| {
                        let t = Instant::now();
                        let jobs = apply_scenario(&base, &transform, cfg.seed);
                        apply_scenario_s += t.elapsed().as_secs_f64();
                        Arc::new(jobs)
                    }));
                let fault = scenario.fault(value, cfg.seed);
                for kind in kinds {
                    cells.push(Cell {
                        econ,
                        set,
                        scenario_idx,
                        value_idx,
                        kind,
                        run_cfg,
                        jobs: Arc::clone(&jobs),
                        fault,
                    });
                }
            }
        }
    }
    Inputs {
        cells,
        generate_s,
        apply_scenario_s,
    }
}

/// Everything set-up hands to the timed passes.
#[derive(Debug)]
pub(crate) struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Its experiment configuration.
    pub cfg: ExperimentConfig,
    /// Replicas per cell.
    pub replicas: usize,
    /// Cells with their streams; empty for `paper_study`, whose timed pass
    /// synthesises its own inputs inside `run_evaluation`.
    pub cells: Vec<Cell>,
}

/// Set-up of one workload (the pinned-digest check is separate).
pub(crate) fn prepare(workload: Workload, opts: &Options) -> Prepared {
    let cfg = opts.config();
    let cells = match workload {
        // The study synthesises its trace inside the timed pass, as users
        // pay for it; set-up only confirms the trace is non-empty.
        Workload::PaperStudy => {
            assert!(!cfg.trace.generate(cfg.seed).is_empty(), "empty trace");
            Vec::new()
        }
        _ => build_cells(workload, &cfg).cells,
    };
    Prepared {
        workload,
        cfg,
        replicas: workload.replicas(opts),
        cells,
    }
}

/// One timed pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the process.
    pub cpu_s: f64,
    /// Wall-clock seconds of each cell (an ensemble counts as one cell).
    pub cell_secs: Vec<f64>,
    /// One digest per grid over the cells' objective bits.
    pub digest: Vec<u64>,
    /// Cells that errored or produced a non-finite objective.
    pub failed: usize,
    /// Simulated jobs: cells × trace jobs × replicas.
    pub sim_jobs: f64,
    /// Busy seconds of each sweep-pool thread (`backfill_sweep` only: the
    /// other pools live inside `ccs-experiments`).
    pub pool_busy_s: Vec<f64>,
    /// Wall-clock seconds the pool was running.
    pub pool_wall_s: f64,
}

/// Runs `f(worker, item)` over `items` on a pool of `threads` scoped
/// threads (workers numbered from 1) that claim the next index from a
/// shared counter. Returns the results in item order and each thread's
/// busy seconds.
pub(crate) fn pool_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> (Vec<R>, Vec<f64>) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let busy: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|worker| {
                let (next, slots, f) = (&next, &slots, &f);
                scope.spawn(move || {
                    let mut busy = 0.0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let t0 = Instant::now();
                        let r = f(worker + 1, item);
                        busy += t0.elapsed().as_secs_f64();
                        *slots[i].lock().expect("a pool worker panicked") = Some(r);
                    }
                    busy
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("pool worker panicked"))
            .collect()
    });
    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("a pool worker panicked")
                .expect("every slot is filled")
        })
        .collect();
    (results, busy)
}

/// Digest per grid of per-cell values, cells in [`GRIDS`] order.
pub(crate) fn grouped_digest<'a>(
    cells: &[Cell],
    values: impl Iterator<Item = &'a [f64]>,
) -> Vec<u64> {
    let mut digests = vec![Fnv::default(); GRIDS.len()];
    for (cell, v) in cells.iter().zip(values) {
        digests[cell.grid()].mix_f64s(v);
    }
    digests.into_iter().map(Fnv::finish).collect()
}

/// Whether every objective is finite.
pub(crate) fn finite(objectives: &[f64]) -> bool {
    objectives.iter().all(|x| x.is_finite())
}

/// Runs one timed pass of the prepared workload. `artifact_dir` receives the
/// artifacts of `paper_study` and is emptied afterwards.
pub(crate) fn run_pass(p: &Prepared, artifact_dir: &Path) -> std::io::Result<Pass> {
    let cpu0 = crate::host::cpu_ticks();
    let t0 = Instant::now();
    let mut pass = match p.workload {
        Workload::PaperStudy => paper_study_pass(&p.cfg, artifact_dir)?,
        Workload::BackfillSweep => backfill_pass(&p.cells),
        Workload::FailureStorm => storm_pass(&p.cells, p.replicas),
    };
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = crate::host::cpu_seconds_since(cpu0);
    let _ = std::fs::remove_dir_all(artifact_dir);
    Ok(pass)
}

fn paper_study_pass(cfg: &ExperimentConfig, artifact_dir: &Path) -> std::io::Result<Pass> {
    let ev = run_evaluation(cfg);
    write_artifacts(&ev, cfg, artifact_dir)?;
    let grids = &ev.raw_grids;
    let cell_secs: Vec<f64> = grids
        .iter()
        .flat_map(|g| g.cell_secs.iter().flatten().flatten().copied())
        .collect();
    let non_finite = grids
        .iter()
        .flat_map(|g| g.raw.iter().flatten().flatten())
        .filter(|o| !finite(&o[..]))
        .count();
    Ok(Pass {
        sim_jobs: (cell_secs.len() * cfg.trace.jobs * cfg.replicas.max(1)) as f64,
        cell_secs,
        digest: grids.iter().map(grid_digest).collect(),
        failed: ev.cell_errors().len() + non_finite,
        ..Pass::default()
    })
}

/// The artifact pass of `utility_risk all`: tables and figures rendered
/// as text, figure files, `report.md`, `evaluation.json` and the results
/// store, written under `dir`.
pub(crate) fn write_artifacts(
    ev: &Evaluation,
    cfg: &ExperimentConfig,
    dir: &Path,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut text = tables::all_tables();
    for fig in ev.paper_figures() {
        text.push_str(&print_figure(&fig));
        write_figure(dir, &fig)?;
    }
    std::hint::black_box(text);
    write_atomic(&dir.join("report.md"), evaluation_report(ev).as_bytes())?;
    EvaluationExport::from_evaluation(ev).write(&dir.join("evaluation.json"))?;
    ResultStore::from_evaluation(ev, cfg).save(dir)?;
    Ok(())
}

/// One `backfill_sweep` pass: every cell through `simulate_counted` (or
/// its faulty twin) on the pool.
pub(crate) fn backfill_pass(cells: &[Cell]) -> Pass {
    let t0 = Instant::now();
    let (results, busy) = pool_map(cells, THREADS, |_, cell| {
        let t = Instant::now();
        // A panicking cell reads as NaN objectives: a failed cell, not a
        // lost run.
        let objectives = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let (result, _events) = match &cell.fault {
                Some(f) => simulate_faulty_counted(&cell.jobs, cell.kind, &cell.run_cfg, f),
                None => simulate_counted(&cell.jobs, cell.kind, &cell.run_cfg),
            };
            result.metrics.objectives()
        }))
        .unwrap_or([f64::NAN; 4]);
        (objectives, t.elapsed().as_secs_f64())
    });
    let pool_wall_s = t0.elapsed().as_secs_f64();
    Pass {
        cell_secs: results.iter().map(|r| r.1).collect(),
        digest: grouped_digest(cells, results.iter().map(|r| &r.0[..])),
        failed: results.iter().filter(|r| !finite(&r.0)).count(),
        sim_jobs: cells.iter().map(|c| c.jobs.len()).sum::<usize>() as f64,
        pool_busy_s: busy,
        pool_wall_s,
        ..Pass::default()
    }
}

/// One `failure_storm` pass: every cell, one after another, as an
/// ensemble through `run_cell_ensemble` with its replicas on the pool.
pub(crate) fn storm_pass(cells: &[Cell], replicas: usize) -> Pass {
    let mut cell_secs = Vec::with_capacity(cells.len());
    let mut values: Vec<[f64; 8]> = Vec::with_capacity(cells.len());
    let mut failed = 0;
    for cell in cells {
        let t = Instant::now();
        let r = run_cell_ensemble(
            Arc::clone(&cell.jobs),
            cell.kind,
            &cell.run_cfg,
            cell.fault.as_ref(),
            replicas,
            THREADS,
        );
        cell_secs.push(t.elapsed().as_secs_f64());
        match r {
            Ok((mu, sigma, _events)) => {
                if !finite(&mu) || !finite(&sigma) {
                    failed += 1;
                }
                values.push(storm_value(mu, sigma));
            }
            Err(e) => {
                eprintln!("failure_storm cell {}: {e}", cell.id());
                failed += 1;
                values.push([f64::NAN; 8]);
            }
        }
    }
    Pass {
        cell_secs,
        digest: grouped_digest(cells, values.iter().map(|v| &v[..])),
        failed,
        sim_jobs: cells.iter().map(|c| c.jobs.len() * replicas).sum::<usize>() as f64,
        ..Pass::default()
    }
}

/// The values a storm cell's digest covers: replica mean, then spread.
pub(crate) fn storm_value(mu: [f64; 4], sigma: [f64; 4]) -> [f64; 8] {
    let mut v = [0.0; 8];
    v[..4].copy_from_slice(&mu);
    v[4..].copy_from_slice(&sigma);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_counts_match_the_study() {
        let cfg = Options {
            seed: 7,
            seconds: 0.0,
            smoke: true,
        }
        .config();
        for (w, n) in Workload::ALL.into_iter().zip([1560, 936, 100]) {
            assert_eq!(build_cells(w, &cfg).cells.len(), n, "{w:?}");
        }
    }

    #[test]
    fn pool_map_keeps_item_order() {
        let items: Vec<u64> = (0..50).collect();
        let (out, busy) = pool_map(&items, 3, |_, &x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(busy.len(), 3);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
