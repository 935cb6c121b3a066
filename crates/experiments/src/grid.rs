//! The experiment grid: 13 scenarios (the paper's 12 + failure rate) × 6
//! values × policies, per economic model and estimate set — and the
//! parallel, crash-safe runner that fills it.
//!
//! The runner always records per-cell wall-clock timings (cheap: one
//! `Instant` pair per simulation run, far off the kernel hot path), so
//! slow cells can be reported even in uninstrumented builds. With the
//! `telemetry` feature the same timings also feed the global registry.

use crate::journal::{cell_key, CellError, CellErrorKind, CellRecord, Journal};
use crate::live::LiveRiskBoard;
use crate::progress;
use crate::scenario::{EstimateSet, Scenario};
use ccs_chaos::StuckPolicy;
use ccs_economy::EconomicModel;
use ccs_policies::{build_policy, Policy, PolicyKind};
use ccs_risk::WaitNormalization;
use ccs_simsvc::{
    check_run, run, BudgetExceeded, FaultConfig, RunBudget, RunConfig, RunOptions, Violation,
};
use ccs_telemetry::profile::ProfileSnapshot;
use ccs_workload::{apply_scenario, BaseJob, Job, ScenarioTransform, SdscSp2Model};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Global experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Cluster size (the paper: 128 nodes).
    pub nodes: u32,
    /// Synthetic trace model.
    pub trace: SdscSp2Model,
    /// Master seed for trace synthesis and QoS annotation.
    pub seed: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Seed replicas per grid cell (the in-cell ensemble width). Every
    /// replica re-runs the cell over the *same* memoised workload with an
    /// independently forked fault-RNG stream; replica 0 keeps the cell's
    /// own stream, so `replicas == 1` reproduces a plain run exactly. The
    /// cell's recorded objectives become the replica mean μ and the spread
    /// σ is tracked alongside. Clamped to at least 1.
    pub replicas: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            nodes: 128,
            trace: SdscSp2Model::default(),
            seed: 42,
            threads: 0,
            replicas: 1,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration (200 jobs) for tests, examples, and quick
    /// sanity runs. Preserves the full scenario grid.
    pub fn quick() -> Self {
        ExperimentConfig {
            trace: SdscSp2Model::small(),
            ..Default::default()
        }
    }

    /// Override the number of jobs in the synthetic trace.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.trace.jobs = jobs;
        self
    }

    /// Override the in-cell ensemble width (seed replicas per cell).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }
}

/// Runtime controls of one grid run: crash-safe checkpointing and the
/// testing hook that truncates a run after a fixed number of cells.
#[derive(Clone, Debug, Default)]
pub struct GridControl {
    /// JSONL journal path for crash-safe resume: completed cells are
    /// appended as they finish, and cells already present are reused
    /// instead of re-simulated. `None` disables journaling.
    pub journal: Option<std::path::PathBuf>,
    /// Simulate at most this many cells (journal hits don't count; cells
    /// served from the cell memo do), then skip the rest — the hook
    /// integration tests use to "kill" a run at a deterministic point.
    /// `None` = unlimited.
    pub cell_budget: Option<usize>,
    /// Deliberately panic the cell `"scenarioIdx:valueIdx:PolicyName"` —
    /// the fault-injection backdoor proving a broken policy cannot take
    /// down a grid run. Falls back to the [`FAIL_CELL_ENV`] environment
    /// variable (read once per grid) when `None`.
    pub fail_cell: Option<String>,
    /// Per-cell wall-clock budget in seconds: a cell whose simulation runs
    /// longer is cancelled cooperatively (inside the DES loop) into a
    /// [`CellErrorKind::Budget`] error instead of wedging the grid. `None`
    /// = unlimited.
    pub cell_wall_budget: Option<f64>,
    /// Per-cell event-count budget: cancels cells that spin past this many
    /// watchdog steps. `None` = unlimited.
    pub cell_event_budget: Option<u64>,
    /// Deliberately wedge the cell `"scenarioIdx:valueIdx:PolicyName"` by
    /// running it with a never-quiescing policy — the watchdog drill
    /// proving a stuck cell is cancelled (with a Budget-kind error) while
    /// the rest of the grid completes. Falls back to [`STALL_CELL_ENV`]
    /// when `None`. The drill applies a small default budget when no
    /// per-cell budget is configured, so it terminates either way.
    pub stall_cell: Option<String>,
}

/// The phase leaves extracted from a cell's profile snapshot into its
/// fixed-width cost vector, in column order. These are the phase names the
/// runner/cluster/grid instrumentation uses; the same leaf can occur under
/// several parents (e.g. `ps_recompute` under both admission and dispatch)
/// and the cost vector aggregates by leaf.
pub const PHASE_LEAVES: [&str; 6] = [
    "workload_gen",
    "admission",
    "dispatch",
    "ps_recompute",
    "fault",
    "collect",
];

/// The per-cell cost vector: phase-attributed self-time plus the cell's
/// peak policy queue depth. All zeros unless the `profile` feature was on
/// (and for journal hits, memo-served and skipped cells, whose work never
/// re-ran).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellCost {
    /// Self-time nanoseconds per phase, indexed like [`PHASE_LEAVES`].
    pub phase_ns: [u64; 6],
    /// Largest policy queue depth observed during the cell.
    pub peak_queue_depth: u64,
}

impl CellCost {
    /// Extracts the fixed-width cost vector from a cell's profile snapshot.
    pub fn from_snapshot(snap: &ProfileSnapshot) -> CellCost {
        let mut phase_ns = [0u64; 6];
        for (slot, leaf) in phase_ns.iter_mut().zip(PHASE_LEAVES) {
            *slot = snap.leaf_ns(leaf);
        }
        CellCost {
            phase_ns,
            peak_queue_depth: snap.peak_queue_depth,
        }
    }

    /// Total attributed nanoseconds across all phases.
    pub fn total_phase_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// The most expensive phase `(name, self_ns)`, or `None` when the cell
    /// holds no phase data (profile off, journal hit, or skipped).
    pub fn top_phase(&self) -> Option<(&'static str, u64)> {
        let (i, &ns) = self
            .phase_ns
            .iter()
            .enumerate()
            .max_by_key(|&(_, &ns)| ns)?;
        if ns == 0 {
            None
        } else {
            Some((PHASE_LEAVES[i], ns))
        }
    }
}

/// Wall-clock timing of one grid cell (one policy at one scenario value).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellTiming {
    /// Scenario label (e.g. `"deadline mean (Set A)"`).
    pub scenario: String,
    /// Scenario value index, 0..6.
    pub value_idx: usize,
    /// Policy display name.
    pub policy: String,
    /// Wall-clock seconds spent simulating this cell (0 for cells served
    /// from the cell memo and for skipped cells).
    pub secs: f64,
    /// Simulation outcomes the cell produced (0 for skipped cells; journal
    /// hits and memo-served cells carry their source's count).
    pub events: u64,
    /// Phase-attributed cost vector (zeros unless profiled).
    pub cost: CellCost,
    /// 1-based id of the pool thread that simulated the cell; 0 when
    /// unattributed (skipped cells, pre-v3 journal hits).
    pub worker: u64,
}

impl CellTiming {
    /// Outcome events per wall-clock second, the grid's throughput measure
    /// for one cell. Zero when the cell did not simulate.
    pub fn events_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.events as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// Memoisation of synthesised job streams and of the finished cells that
/// ran on them, for one memo scope: one grid, or the four grids of
/// [`crate::run_evaluation`], which share a base trace.
///
/// `apply_scenario` is deterministic in `(base, transform, seed)`, and a
/// memo scope fixes `base` and `seed` — so points whose scenario transform
/// is identical (every failure-rate value, plus any swept value that lands
/// on the baseline) share one immutable trace instead of re-synthesising
/// it. Keyed by the transform's debug rendering, which spells out every
/// field at full float precision.
///
/// With nodes and replicas fixed too, a cell is a pure function of
/// `(econ, policy, transform, fault)`, so each entry also holds the
/// finished cells that ran on its trace, keyed by `(econ, policy, fault)`:
/// a later slot with the same inputs copies the result instead of
/// simulating it again (see [`WorkloadEntry`]).
struct WorkloadCache {
    map: Mutex<HashMap<String, Arc<WorkloadEntry>>>,
}

impl WorkloadCache {
    fn new() -> Self {
        WorkloadCache {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the entry for `key`, creating it on first use.
    fn entry(&self, key: String) -> Arc<WorkloadEntry> {
        Arc::clone(self.map.lock().unwrap().entry(key).or_default())
    }
}

/// One transform's cache entry: its job stream, synthesised by the first
/// slot that simulates on it and released when the grid ends (so a memo
/// scope of four grids holds no more traces at once than one grid does),
/// and the cell memo, which lives as long as the scope.
///
/// Each memo key has one source slot, its first slot in (grid, scenario,
/// value, policy column) order, claimed before the grid's pool starts.
/// Later slots wait for the source to finish and copy its result, so
/// which slot carries the measured time never depends on thread timing.
/// Every wait points at an earlier-claimed point, so waits cannot form a
/// cycle.
#[derive(Default)]
struct WorkloadEntry {
    jobs: Mutex<Option<Arc<Vec<Job>>>>,
    cells: Mutex<HashMap<String, MemoState>>,
    finished: Condvar,
}

/// What a later slot finds under a memo key.
enum MemoState {
    /// The source slot has not finished yet.
    Pending,
    /// The source slot completed; later slots copy it.
    Done(MemoCell),
    /// The source slot did not complete (panic, budget, invariant
    /// violation or cell-budget skip): later slots simulate themselves.
    Unusable,
}

/// The part of a finished cell a memo-served slot copies.
#[derive(Clone, Copy)]
struct MemoCell {
    objectives: [f64; 4],
    sigma: [f64; 4],
    events: u64,
}

impl WorkloadEntry {
    /// The entry's job stream, synthesised with `generate` on first use.
    fn jobs(&self, generate: impl FnOnce() -> Vec<Job>) -> Arc<Vec<Job>> {
        let mut jobs = self.jobs.lock().unwrap();
        Arc::clone(jobs.get_or_insert_with(|| Arc::new(generate())))
    }

    /// Makes the calling slot the source of `key` unless an earlier slot
    /// holds it; a key whose source did not complete in an earlier grid is
    /// claimed afresh.
    fn claim(&self, key: &str) -> bool {
        let mut cells = self.cells.lock().unwrap();
        match cells.get(key) {
            Some(MemoState::Pending | MemoState::Done(_)) => false,
            None | Some(MemoState::Unusable) => {
                cells.insert(key.to_string(), MemoState::Pending);
                true
            }
        }
    }

    /// Resolves a source slot's claim and wakes the slots waiting on it.
    /// Runs in [`MemoClaim`]'s `Drop`, so it must not panic: every update
    /// of `cells` is one insert, which leaves a poisoned map valid.
    fn publish(&self, key: &str, cell: Option<MemoCell>) {
        let state = cell.map_or(MemoState::Unusable, MemoState::Done);
        self.cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key.to_string(), state);
        self.finished.notify_all();
    }

    /// Waits for the source of `key` to finish; its result when it
    /// completed.
    fn wait(&self, key: &str) -> Option<MemoCell> {
        let mut cells = self.cells.lock().unwrap();
        loop {
            match cells.get(key) {
                Some(MemoState::Pending) => cells = self.finished.wait(cells).unwrap(),
                Some(MemoState::Done(cell)) => return Some(*cell),
                Some(MemoState::Unusable) | None => return None,
            }
        }
    }
}

/// A source slot's claim on its memo key. It publishes on drop, so the
/// claim is resolved on every path out of the slot, including a panic:
/// `Done` when `cell` was set, `Unusable` otherwise.
struct MemoClaim<'a> {
    entry: &'a WorkloadEntry,
    key: &'a str,
    cell: Option<MemoCell>,
}

impl Drop for MemoClaim<'_> {
    fn drop(&mut self) {
        self.entry.publish(self.key, self.cell.take());
    }
}

/// How one grid slot relates to the cell memo.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MemoRole {
    /// A drilled cell: never reads from the memo, never writes to it.
    Bypass,
    /// The first slot with its inputs: simulates and publishes.
    Source,
    /// A later slot with the same inputs as its source.
    Repeat,
}

/// One policy column of a [`PointPlan`].
struct SlotPlan {
    /// `"scenarioIdx:valueIdx:PolicyName"`, the drill address.
    label: String,
    drill: CellDrill,
    memo_key: String,
    role: MemoRole,
}

/// One experiment point's inputs, planned before the pool starts so that
/// memo sources follow grid order.
struct PointPlan {
    transform: ScenarioTransform,
    fault: Option<FaultConfig>,
    entry: Arc<WorkloadEntry>,
    slots: Vec<SlotPlan>,
}

/// Raw objective measurements for one (economic model, estimate set) pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RawGrid {
    /// Economic model these measurements were taken under.
    pub econ: EconomicModel,
    /// Estimate set (A or B).
    pub set: EstimateSet,
    /// The policies, in column order.
    pub policies: Vec<PolicyKind>,
    /// `raw[scenario][value][policy] = [wait, SLA, reliability,
    /// profitability]` — raw objective values (wait in seconds, the rest in
    /// percent). With `replicas > 1` each cell holds the replica mean μ.
    pub raw: Vec<Vec<Vec<[f64; 4]>>>,
    /// `cell_sigma[scenario][value][policy]` — per-objective population
    /// standard deviation across the cell's seed replicas. All zeros when
    /// `replicas == 1` and for skipped cells.
    pub cell_sigma: Vec<Vec<Vec<[f64; 4]>>>,
    /// `cell_secs[scenario][value][policy]` — wall-clock seconds per cell.
    /// Always populated, independent of the `telemetry` feature; 0 for
    /// cells served from the cell memo (their source slot carries the
    /// time) and for skipped cells.
    pub cell_secs: Vec<Vec<Vec<f64>>>,
    /// `cell_events[scenario][value][policy]` — simulation outcomes per
    /// cell (0 for skipped cells).
    pub cell_events: Vec<Vec<Vec<u64>>>,
    /// `cell_costs[scenario][value][policy]` — per-cell phase cost vectors
    /// (all zeros unless built with the `profile` feature).
    pub cell_costs: Vec<Vec<Vec<CellCost>>>,
    /// `cell_workers[scenario][value][policy]` — 1-based id of the pool
    /// thread that simulated each cell; 0 for skipped cells and
    /// unattributed journal hits.
    pub cell_workers: Vec<Vec<Vec<u64>>>,
    /// Grid-wide merge of every simulated cell's profile snapshot — the
    /// folded-stack flamegraph source. Empty unless profiled.
    pub profile: ProfileSnapshot,
    /// Experiment points whose scenario transform an earlier point of this
    /// grid already used, so they share its trace instead of
    /// re-synthesising it.
    pub workload_cache_hits: u64,
    /// Experiment points that were the first of this grid to use their
    /// transform.
    pub workload_cache_misses: u64,
    /// Busy seconds per worker thread (simulation time, excluding idle
    /// waits on the work queue) — the basis for utilisation reporting.
    pub worker_busy_secs: Vec<f64>,
    /// Always empty: every grid runs on the in-process thread pool, whose
    /// workers are threads, not transport links. Kept only so existing
    /// `RawGrid` struct literals still compile.
    pub worker_transports: Vec<String>,
    /// End-to-end wall-clock seconds for the whole grid.
    pub wall_secs: f64,
    /// Cells that panicked instead of completing, sorted by (scenario,
    /// value, policy). Their `raw` entries hold `[0.0; 4]` placeholders —
    /// never NaN — so downstream normalisation and plots stay defined.
    pub errors: Vec<CellError>,
}

impl RawGrid {
    /// The policy display names, in column order.
    pub fn policy_names(&self) -> Vec<&'static str> {
        self.policies.iter().map(|p| p.name()).collect()
    }

    /// Every cell's timing joined with its cost vector — the single code
    /// path behind both the slowest-cells summary and the persisted store
    /// columns.
    pub fn cell_timings(&self) -> Vec<CellTiming> {
        let mut cells: Vec<CellTiming> = Vec::new();
        for (s, per_value) in self.cell_secs.iter().enumerate() {
            for (v, per_policy) in per_value.iter().enumerate() {
                for (p, &secs) in per_policy.iter().enumerate() {
                    cells.push(CellTiming {
                        scenario: Scenario::ALL[s].label(),
                        value_idx: v,
                        policy: self.policies[p].name().to_string(),
                        secs,
                        events: self.cell_events[s][v][p],
                        cost: self.cell_costs[s][v][p],
                        worker: self.cell_workers[s][v][p],
                    });
                }
            }
        }
        cells
    }

    /// The `k` slowest cells, most expensive first.
    pub fn slowest_cells(&self, k: usize) -> Vec<CellTiming> {
        let mut cells = self.cell_timings();
        cells.sort_by(|a, b| b.secs.total_cmp(&a.secs));
        cells.truncate(k);
        cells
    }

    /// Per-worker utilisation: busy seconds divided by grid wall time.
    pub fn worker_utilisation(&self) -> Vec<f64> {
        self.worker_busy_secs
            .iter()
            .map(|&busy| {
                if self.wall_secs > 0.0 {
                    busy / self.wall_secs
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// The policies the paper evaluates for `econ` (Table V).
pub fn policies_for(econ: EconomicModel) -> Vec<PolicyKind> {
    match econ {
        EconomicModel::CommodityMarket => PolicyKind::COMMODITY.to_vec(),
        EconomicModel::BidBased => PolicyKind::BID_BASED.to_vec(),
    }
}

/// Runs the full 13 × 6 grid for one (economic model, estimate set) pair.
///
/// Experiment points are independent, so they are fanned out over worker
/// threads; results are deterministic regardless of the thread count.
pub fn run_grid(econ: EconomicModel, set: EstimateSet, cfg: &ExperimentConfig) -> RawGrid {
    let base = cfg.trace.generate(cfg.seed);
    run_grid_with_base(econ, set, cfg, &base)
}

/// Like [`run_grid`], but with [`GridControl`] (resume journal and/or cell
/// budget).
pub fn run_grid_ctl(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    ctl: &GridControl,
) -> RawGrid {
    let base = cfg.trace.generate(cfg.seed);
    run_grid_with_base_ctl(econ, set, cfg, &base, ctl)
}

/// Like [`run_grid`], but over caller-provided base jobs — the hook for
/// alternative trace models (Lublin, diurnal, real SWF imports).
pub fn run_grid_with_base(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    base: &[BaseJob],
) -> RawGrid {
    run_grid_with_base_ctl(econ, set, cfg, base, &GridControl::default())
}

/// The full grid runner: caller-provided base jobs plus [`GridControl`].
///
/// A policy that panics inside a cell does not abort the grid: the panic is
/// caught, reported as a [`CellError`] on the returned grid, and the cell's
/// objectives stay at a `[0.0; 4]` placeholder. With a journal, completed
/// cells are checkpointed as they finish and journaled cells are reused —
/// panicked or budget-skipped cells are *not* journaled, so a resume
/// re-runs exactly the failed and missing work.
pub fn run_grid_with_base_ctl(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    base: &[BaseJob],
    ctl: &GridControl,
) -> RawGrid {
    run_grid_with_base_ctl_observed(econ, set, cfg, base, ctl, &live_board(econ))
}

/// A fresh live board over `econ`'s policies, default normalisation.
fn live_board(econ: EconomicModel) -> LiveRiskBoard {
    LiveRiskBoard::new(
        policies_for(econ)
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        WaitNormalization::default(),
    )
}

/// Like [`run_grid_with_base_ctl`], but folding every completed experiment
/// point into a caller-owned [`LiveRiskBoard`] — the streaming-analytics
/// hook: snapshot the board from another thread mid-run, or read its
/// streaming separate analysis after the run (it equals the batch
/// [`crate::analysis::analyze`] under the same normalization scheme).
/// The board is observation-only; the returned grid is identical to
/// [`run_grid_with_base_ctl`]'s.
pub fn run_grid_with_base_ctl_observed(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    base: &[BaseJob],
    ctl: &GridControl,
    board: &LiveRiskBoard,
) -> RawGrid {
    run_grid_memo(econ, set, cfg, base, ctl, board, &WorkloadCache::new())
}

/// Runs `grids` in order over one base trace and one cell memo, so a cell
/// repeated across the grids (Set B's inaccuracy points repeat Set A's)
/// is simulated once. Each grid gets its own [`LiveRiskBoard`].
pub(crate) fn run_grids_ctl(
    cfg: &ExperimentConfig,
    grids: &[(EconomicModel, EstimateSet)],
    ctl: &GridControl,
) -> Vec<RawGrid> {
    let base = cfg.trace.generate(cfg.seed);
    let cache = WorkloadCache::new();
    grids
        .iter()
        .map(|&(econ, set)| run_grid_memo(econ, set, cfg, &base, ctl, &live_board(econ), &cache))
        .collect()
}

/// The one grid runner behind every public entry point: one grid over
/// `cache`, whose memo scope fixes `base`, seed, nodes and replicas.
fn run_grid_memo(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    base: &[BaseJob],
    ctl: &GridControl,
    board: &LiveRiskBoard,
    cache: &WorkloadCache,
) -> RawGrid {
    let journal = ctl.journal.as_deref().map(|p| {
        Journal::open(p).unwrap_or_else(|e| panic!("cannot open journal {}: {e}", p.display()))
    });
    let budget = ctl
        .cell_budget
        .map(|n| AtomicI64::new(i64::try_from(n).unwrap_or(i64::MAX)));
    let fail_cell = ctl
        .fail_cell
        .clone()
        .or_else(|| std::env::var(FAIL_CELL_ENV).ok());
    let stall_cell = ctl
        .stall_cell
        .clone()
        .or_else(|| std::env::var(STALL_CELL_ENV).ok());
    let run_budget = RunBudget {
        max_wall_secs: ctl.cell_wall_budget,
        max_events: ctl.cell_event_budget,
    };
    let policies = policies_for(econ);
    let points: Vec<(usize, usize)> = (0..Scenario::ALL.len())
        .flat_map(|s| (0..6).map(move |v| (s, v)))
        .collect();
    // One cache lookup per point, in grid order and before any worker
    // starts: this claims every memo key's source slot deterministically.
    // A lookup hits when an earlier point of this grid shares the trace.
    let mut plans: Vec<PointPlan> = Vec::with_capacity(points.len());
    let mut cache_hits = 0u64;
    for &(s, v) in &points {
        let scenario = Scenario::ALL[s];
        let value = scenario.values()[v];
        let transform = scenario.transform(set, value);
        let fault = scenario.fault(value, cfg.seed);
        let entry = cache.entry(format!("{transform:?}"));
        if plans.iter().any(|p| Arc::ptr_eq(&p.entry, &entry)) {
            cache_hits += 1;
        }
        let slots = policies
            .iter()
            .map(|kind| {
                let label = format!("{s}:{v}:{}", kind.name());
                let drill = CellDrill {
                    fail: fail_cell.as_deref() == Some(label.as_str()),
                    stall: stall_cell.as_deref() == Some(label.as_str()),
                };
                let memo_key = format!("{econ:?}/{kind:?}/{fault:?}");
                let role = if drill.fail || drill.stall {
                    MemoRole::Bypass
                } else if entry.claim(&memo_key) {
                    MemoRole::Source
                } else {
                    MemoRole::Repeat
                };
                SlotPlan {
                    label,
                    drill,
                    memo_key,
                    role,
                }
            })
            .collect();
        plans.push(PointPlan {
            transform,
            fault,
            entry,
            slots,
        });
    }

    let raw = Mutex::new(vec![
        vec![vec![[0.0; 4]; policies.len()]; 6];
        Scenario::ALL.len()
    ]);
    let cell_sigma = Mutex::new(vec![
        vec![vec![[0.0; 4]; policies.len()]; 6];
        Scenario::ALL.len()
    ]);
    let cell_secs = Mutex::new(vec![
        vec![vec![0.0; policies.len()]; 6];
        Scenario::ALL.len()
    ]);
    let cell_events = Mutex::new(vec![
        vec![vec![0u64; policies.len()]; 6];
        Scenario::ALL.len()
    ]);
    let cell_costs = Mutex::new(vec![
        vec![vec![CellCost::default(); policies.len()]; 6];
        Scenario::ALL.len()
    ]);
    let cell_workers = Mutex::new(vec![
        vec![vec![0u64; policies.len()]; 6];
        Scenario::ALL.len()
    ]);
    let profile_acc = Mutex::new(ProfileSnapshot::default());
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        cfg.threads
    }
    .min(points.len())
    .max(1);
    let busy = Mutex::new(vec![0.0f64; threads]);
    let errors: Mutex<Vec<CellError>> = Mutex::new(Vec::new());
    let progress = progress::bar_enabled();
    let started = Instant::now();

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let raw = &raw;
            let cell_sigma = &cell_sigma;
            let cell_secs = &cell_secs;
            let cell_events = &cell_events;
            let cell_costs = &cell_costs;
            let cell_workers = &cell_workers;
            let profile_acc = &profile_acc;
            let next = &next;
            let done = &done;
            let busy = &busy;
            let policies = &policies;
            let points = &points;
            let plans = &plans;
            let journal = journal.as_ref();
            let budget = budget.as_ref();
            let errors = &errors;
            scope.spawn(move || {
                let mut my_busy = 0.0f64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= points.len() {
                        break;
                    }
                    let (s, v) = points[i];
                    let t0 = Instant::now();
                    let point = run_point(
                        econ,
                        set,
                        cfg,
                        base,
                        s,
                        v,
                        &plans[i],
                        policies,
                        journal,
                        budget,
                        run_budget,
                        errors,
                        worker as u64 + 1,
                        threads,
                    );
                    my_busy += t0.elapsed().as_secs_f64();
                    board.record_point(s, &point.row);
                    raw.lock().unwrap()[s][v] = point.row;
                    cell_sigma.lock().unwrap()[s][v] = point.sigmas;
                    cell_secs.lock().unwrap()[s][v] = point.secs;
                    cell_events.lock().unwrap()[s][v] = point.events;
                    cell_costs.lock().unwrap()[s][v] = point.costs;
                    cell_workers.lock().unwrap()[s][v] = point.workers;
                    if !point.profile.is_empty() {
                        profile_acc.lock().unwrap().merge(&point.profile);
                    }
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if progress {
                        let suffix = board.snapshot().progress_suffix();
                        progress::draw_bar_with(finished, points.len(), started, &suffix);
                    }
                }
                busy.lock().unwrap()[worker] = my_busy;
            });
        }
    });

    let wall_secs = started.elapsed().as_secs_f64();
    for plan in &plans {
        *plan.entry.jobs.lock().unwrap() = None;
    }
    let mut errors = errors.into_inner().unwrap();
    errors.sort_by(|a, b| {
        (a.scenario_idx, a.value_idx, &a.policy).cmp(&(b.scenario_idx, b.value_idx, &b.policy))
    });
    let grid = RawGrid {
        econ,
        set,
        policies,
        raw: raw.into_inner().unwrap(),
        cell_sigma: cell_sigma.into_inner().unwrap(),
        cell_secs: cell_secs.into_inner().unwrap(),
        cell_events: cell_events.into_inner().unwrap(),
        cell_costs: cell_costs.into_inner().unwrap(),
        cell_workers: cell_workers.into_inner().unwrap(),
        profile: profile_acc.into_inner().unwrap(),
        workload_cache_hits: cache_hits,
        workload_cache_misses: points.len() as u64 - cache_hits,
        worker_busy_secs: busy.into_inner().unwrap(),
        worker_transports: Vec::new(),
        wall_secs,
        errors,
    };
    record_grid_telemetry(&grid);
    grid
}

/// Feeds grid timings into the global telemetry registry (no-op without
/// the `telemetry` feature).
fn record_grid_telemetry(grid: &RawGrid) {
    if !ccs_telemetry::ENABLED {
        return;
    }
    let t = ccs_telemetry::global();
    let cell_ns = t.histogram("grid.cell.duration_ns");
    for per_value in &grid.cell_secs {
        for per_policy in per_value {
            for &secs in per_policy {
                cell_ns.record_f64(secs * 1e9);
                t.counter("grid.cells.completed").inc();
            }
        }
    }
    t.histogram("grid.wall.duration_ns")
        .record_f64(grid.wall_secs * 1e9);
    for &busy in &grid.worker_busy_secs {
        t.histogram("grid.worker.busy_ns").record_f64(busy * 1e9);
    }
    t.counter("grid.workload.cache_hits")
        .add(grid.workload_cache_hits);
    t.counter("grid.workload.cache_misses")
        .add(grid.workload_cache_misses);
}

/// Deliberately panics a chosen cell — the fault-injection backdoor the
/// robustness tests (and CI) use to prove a broken policy cannot take down
/// a whole grid run. Format: `"scenarioIdx:valueIdx:PolicyName"`.
pub const FAIL_CELL_ENV: &str = "CCS_FAIL_CELL";

/// Deliberately wedges a chosen cell with a never-quiescing policy — the
/// watchdog drill proving a stuck cell is cancelled into a Budget-kind
/// [`CellError`] while the rest of the grid completes. Same
/// `"scenarioIdx:valueIdx:PolicyName"` format as [`FAIL_CELL_ENV`].
pub const STALL_CELL_ENV: &str = "CCS_STALL_CELL";

/// How one simulated cell ended, before it is folded into the grid.
enum CellSim {
    /// The run completed (objectives, outcome events).
    Done([f64; 4], u64),
    /// The watchdog cancelled the run.
    Budget(BudgetExceeded),
    /// The run completed but the invariant engine found violations.
    Invariant(Vec<Violation>),
}

/// Renders a violation list as a one-line cell-error message (first three
/// violations verbatim, the rest counted).
fn violation_summary(violations: &[Violation]) -> String {
    let shown: Vec<String> = violations.iter().take(3).map(|v| v.to_string()).collect();
    let mut s = format!("{} violation(s): {}", violations.len(), shown.join("; "));
    if violations.len() > 3 {
        s.push_str(&format!(" (+{} more)", violations.len() - 3));
    }
    s
}

/// Which fault-injection drills apply to one cell.
#[derive(Clone, Copy, Debug, Default)]
struct CellDrill {
    /// Panic the cell deliberately ([`FAIL_CELL_ENV`]).
    pub fail: bool,
    /// Wedge the cell with a never-quiescing policy ([`STALL_CELL_ENV`]).
    pub stall: bool,
}

/// One simulated cell, before it is folded into a grid: the outcome (or a
/// typed failure), wall-clock seconds, and the profile-derived cost.
struct SimulatedCell {
    /// `Ok((objectives, events))` on completion, `Err((kind, message))`
    /// when the cell panicked, blew its budget, or violated invariants.
    pub outcome: Result<([f64; 4], u64), (CellErrorKind, String)>,
    /// Wall-clock seconds spent in the cell.
    pub secs: f64,
    /// Phase cost vector (zeros unless the `profile` feature is on).
    pub cost: CellCost,
    /// The cell's profile snapshot (empty unless profiled).
    pub profile: ProfileSnapshot,
}

/// Simulates one grid cell for the thread pool ([`run_point`]). Jobs are
/// fetched through `get_jobs` inside the cell's profile span so workload
/// synthesis is attributed to the cell; panics are caught and returned as
/// typed failures, never propagated.
fn simulate_cell(
    kind: PolicyKind,
    run_cfg: &RunConfig,
    fault: Option<&FaultConfig>,
    run_budget: RunBudget,
    drill: CellDrill,
    cell_label: &str,
    get_jobs: impl FnOnce() -> Arc<Vec<Job>>,
) -> SimulatedCell {
    let t0 = Instant::now();
    // The cell phase spans workload synthesis + the simulation run; a
    // panicking cell unwinds its inner guards, so the accumulator stays
    // consistent and `take()` below always isolates this cell.
    let cell_phase = ccs_telemetry::profile::enter("cell");
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        assert!(
            !drill.fail,
            "{FAIL_CELL_ENV} injected panic in cell {cell_label}"
        );
        let jobs = get_jobs();
        let (policy, budget): (Box<dyn Policy>, RunBudget) = if drill.stall {
            // Watchdog drill: swap in a policy whose event horizon never
            // empties. An unguarded drain against it would spin forever,
            // so the drill always runs with *some* budget.
            let budget = if run_budget.is_unlimited() {
                RunBudget {
                    max_wall_secs: Some(5.0),
                    max_events: Some(1_000_000),
                }
            } else {
                run_budget
            };
            (Box::new(StuckPolicy::new()), budget)
        } else {
            (build_policy(kind, run_cfg.econ, run_cfg.nodes), run_budget)
        };
        let opts = RunOptions {
            fault,
            budget,
            observer: None,
        };
        match run(&jobs, policy, run_cfg, opts) {
            Err(e) => CellSim::Budget(e),
            Ok(out) => {
                let violations = if cfg!(feature = "invariants") {
                    check_run(&jobs, run_cfg, &out.outcomes, &out.result)
                } else {
                    Vec::new()
                };
                if violations.is_empty() {
                    CellSim::Done(out.result.metrics.objectives(), out.outcomes.len() as u64)
                } else {
                    CellSim::Invariant(violations)
                }
            }
        }
    }));
    drop(cell_phase);
    let secs = t0.elapsed().as_secs_f64();
    let profile = ccs_telemetry::profile::take();
    let cost = CellCost::from_snapshot(&profile);
    let outcome = match outcome {
        Ok(CellSim::Done(objectives, n_events)) => Ok((objectives, n_events)),
        Ok(CellSim::Budget(e)) => Err((CellErrorKind::Budget, e.to_string())),
        Ok(CellSim::Invariant(violations)) => {
            Err((CellErrorKind::Invariant, violation_summary(&violations)))
        }
        Err(payload) => Err((CellErrorKind::Panic, panic_message(payload))),
    };
    SimulatedCell {
        outcome,
        secs,
        cost,
        profile,
    }
}

/// Deterministic fork of the fault seed for ensemble replica `replica`
/// (SplitMix64 finaliser): decorrelates the replicas' failure weather from
/// the base stream and from each other, while staying a pure function of
/// `(seed, replica)` so the ensemble is reproducible.
fn fork_replica_seed(seed: u64, replica: u64) -> u64 {
    let mut z = seed ^ replica.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One ensemble-simulated cell: the merged [`SimulatedCell`] (objectives =
/// replica mean μ, events summed) plus the per-objective replica spread σ.
struct EnsembleCell {
    /// Merged cell result; `outcome` holds μ objectives on success.
    pub cell: SimulatedCell,
    /// Population standard deviation of each objective across replicas.
    /// Zeros when only one replica ran or any replica failed.
    pub sigma: [f64; 4],
}

/// Runs one grid cell as an ensemble of `replicas` seed replicas over one
/// shared workload, fanned across a scoped pool of at most `pool` threads.
///
/// Replica 0 keeps the cell's own fault stream, so `replicas <= 1`
/// delegates straight to [`simulate_cell`] — byte-identical to a plain
/// run. Replicas `1..` fork independent fault seeds via
/// [`fork_replica_seed`]; workload, policy, and budgets are shared.
/// Results are merged in fixed replica-index order, so μ/σ, event totals,
/// and cost vectors are byte-identical regardless of `pool` — the same
/// determinism contract the grid's outer thread pool honours.
#[allow(clippy::too_many_arguments)]
fn simulate_cell_ensemble(
    kind: PolicyKind,
    run_cfg: &RunConfig,
    fault: Option<&FaultConfig>,
    run_budget: RunBudget,
    drill: CellDrill,
    cell_label: &str,
    replicas: usize,
    pool: usize,
    get_jobs: impl FnOnce() -> Arc<Vec<Job>>,
) -> EnsembleCell {
    if replicas <= 1 {
        return EnsembleCell {
            cell: simulate_cell(
                kind, run_cfg, fault, run_budget, drill, cell_label, get_jobs,
            ),
            sigma: [0.0; 4],
        };
    }
    let t0 = Instant::now();
    // Synthesise (or fetch) the shared workload once, up front, so every
    // replica reuses one memoised trace; attribute it to this cell.
    let cell_phase = ccs_telemetry::profile::enter("cell");
    let jobs = std::panic::catch_unwind(AssertUnwindSafe(get_jobs));
    drop(cell_phase);
    let mut profile = ccs_telemetry::profile::take();
    let mut cost = CellCost::from_snapshot(&profile);
    let jobs = match jobs {
        Ok(jobs) => jobs,
        Err(payload) => {
            return EnsembleCell {
                cell: SimulatedCell {
                    outcome: Err((CellErrorKind::Panic, panic_message(payload))),
                    secs: t0.elapsed().as_secs_f64(),
                    cost,
                    profile,
                },
                sigma: [0.0; 4],
            }
        }
    };
    let faults: Vec<Option<FaultConfig>> = (0..replicas)
        .map(|r| {
            fault.map(|f| {
                let mut f = *f;
                if r > 0 {
                    f.seed = fork_replica_seed(f.seed, r as u64);
                }
                f
            })
        })
        .collect();
    let slots: Vec<Mutex<Option<SimulatedCell>>> =
        (0..replicas).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let pool = pool.clamp(1, replicas);
    std::thread::scope(|scope| {
        for _ in 0..pool {
            let slots = &slots;
            let next = &next;
            let faults = &faults;
            let jobs = &jobs;
            scope.spawn(move || loop {
                let r = next.fetch_add(1, Ordering::Relaxed);
                if r >= replicas {
                    break;
                }
                let sim = simulate_cell(
                    kind,
                    run_cfg,
                    faults[r].as_ref(),
                    run_budget,
                    drill,
                    cell_label,
                    || Arc::clone(jobs),
                );
                *slots[r].lock().unwrap() = Some(sim);
            });
        }
    });
    let sims: Vec<SimulatedCell> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap()
                .expect("every replica slot is filled")
        })
        .collect();
    // Merge in fixed replica-index order: sums, profiles, and the
    // first-error tiebreak never depend on pool interleaving.
    let mut sum = [0.0f64; 4];
    let mut events = 0u64;
    let mut first_err: Option<(CellErrorKind, String)> = None;
    for sim in &sims {
        if !sim.profile.is_empty() {
            profile.merge(&sim.profile);
        }
        for (acc, ns) in cost.phase_ns.iter_mut().zip(sim.cost.phase_ns) {
            *acc += ns;
        }
        cost.peak_queue_depth = cost.peak_queue_depth.max(sim.cost.peak_queue_depth);
        match &sim.outcome {
            Ok((objectives, n_events)) => {
                for (acc, x) in sum.iter_mut().zip(objectives) {
                    *acc += x;
                }
                events += n_events;
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e.clone());
                }
            }
        }
    }
    let n = replicas as f64;
    let (outcome, sigma) = match first_err {
        Some(e) => (Err(e), [0.0; 4]),
        None => {
            let mu = [sum[0] / n, sum[1] / n, sum[2] / n, sum[3] / n];
            let mut sigma = [0.0f64; 4];
            for (k, s) in sigma.iter_mut().enumerate() {
                let ss: f64 = sims
                    .iter()
                    .map(|sim| {
                        let x = sim.outcome.as_ref().expect("no replica failed").0[k];
                        (x - mu[k]) * (x - mu[k])
                    })
                    .sum();
                *s = (ss / n).sqrt();
            }
            (Ok((mu, events)), sigma)
        }
    };
    EnsembleCell {
        cell: SimulatedCell {
            outcome,
            secs: t0.elapsed().as_secs_f64(),
            cost,
            profile,
        },
        sigma,
    }
}

/// Runs one policy cell as an in-process seed ensemble over a
/// caller-provided workload — the public face of
/// [`simulate_cell_ensemble`] for benchmarks and diagnostics, bypassing
/// the grid machinery (journals, budgets, drills).
///
/// Returns `Ok((mu, sigma, events))` — the replica-mean objectives, their
/// population spread, and the summed event count — or the first replica
/// failure, formatted. Deterministic in `(jobs, kind, run_cfg, fault,
/// replicas)` regardless of `pool`.
pub fn run_cell_ensemble(
    jobs: Arc<Vec<Job>>,
    kind: PolicyKind,
    run_cfg: &RunConfig,
    fault: Option<&FaultConfig>,
    replicas: usize,
    pool: usize,
) -> Result<([f64; 4], [f64; 4], u64), String> {
    let ensemble = simulate_cell_ensemble(
        kind,
        run_cfg,
        fault,
        RunBudget::unlimited(),
        CellDrill::default(),
        "ensemble-cell",
        replicas.max(1),
        pool.max(1),
        move || jobs,
    );
    match ensemble.cell.outcome {
        Ok((mu, events)) => Ok((mu, ensemble.sigma, events)),
        Err((kind, msg)) => Err(format!("{kind:?}: {msg}")),
    }
}

/// Everything one experiment point yields, per policy column.
struct PointResult {
    row: Vec<[f64; 4]>,
    sigmas: Vec<[f64; 4]>,
    secs: Vec<f64>,
    events: Vec<u64>,
    costs: Vec<CellCost>,
    workers: Vec<u64>,
    /// Merge of the point's per-cell profile snapshots (empty when the
    /// `profile` feature is off).
    profile: ProfileSnapshot,
}

/// Runs one experiment point (one scenario value) for every policy,
/// returning the objective row and per-policy wall-clock seconds. Panics
/// are confined to the failing cell; journal hits skip simulation entirely,
/// and memo repeats copy their source slot's result.
#[allow(clippy::too_many_arguments)]
fn run_point(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    base: &[BaseJob],
    scenario_idx: usize,
    value_idx: usize,
    plan: &PointPlan,
    policies: &[PolicyKind],
    journal: Option<&Journal>,
    budget: Option<&AtomicI64>,
    run_budget: RunBudget,
    errors: &Mutex<Vec<CellError>>,
    worker_id: u64,
    ensemble_pool: usize,
) -> PointResult {
    let scenario = Scenario::ALL[scenario_idx];
    let run_cfg = RunConfig {
        nodes: cfg.nodes,
        econ,
    };
    let mut row = Vec::with_capacity(policies.len());
    let mut sigmas = Vec::with_capacity(policies.len());
    let mut secs = Vec::with_capacity(policies.len());
    let mut events = Vec::with_capacity(policies.len());
    let mut costs = Vec::with_capacity(policies.len());
    let mut workers = Vec::with_capacity(policies.len());
    let mut profile = ProfileSnapshot::default();
    // Each claim drops at the end of its slot's iteration, on every path; a
    // source that leaves `cell` unset tells its repeats to simulate
    // themselves. Claims of slots not yet reached drop with the iterator,
    // so even a panic that escapes the point cannot leave a repeat waiting.
    let claims: Vec<Option<MemoClaim>> = plan
        .slots
        .iter()
        .map(|slot| {
            (slot.role == MemoRole::Source).then(|| MemoClaim {
                entry: &plan.entry,
                key: &slot.memo_key,
                cell: None,
            })
        })
        .collect();
    for ((&kind, slot), mut claim) in policies.iter().zip(&plan.slots).zip(claims) {
        let key = cell_key(econ, set, cfg, scenario_idx, value_idx, kind);
        if let Some(rec) = journal.and_then(|j| j.get(&key)) {
            if let Some(claim) = claim.as_mut() {
                claim.cell = Some(MemoCell {
                    objectives: rec.objectives,
                    sigma: rec.sigma,
                    events: rec.events,
                });
            }
            row.push(rec.objectives);
            sigmas.push(rec.sigma);
            secs.push(rec.secs);
            events.push(rec.events);
            costs.push(CellCost::default());
            workers.push(rec.worker);
            continue;
        }
        if let Some(b) = budget {
            if b.fetch_sub(1, Ordering::SeqCst) <= 0 {
                // Budget spent: leave the cell missing (placeholder, not
                // journaled) so a resumed run picks it up.
                row.push([0.0; 4]);
                sigmas.push([0.0; 4]);
                secs.push(0.0);
                events.push(0);
                costs.push(CellCost::default());
                workers.push(0);
                continue;
            }
        }
        let memo = match slot.role {
            MemoRole::Repeat => plan.entry.wait(&slot.memo_key),
            MemoRole::Source | MemoRole::Bypass => None,
        };
        if slot.role != MemoRole::Bypass {
            let counter = if memo.is_some() {
                "grid.cell_memo.hits"
            } else {
                "grid.cell_memo.misses"
            };
            ccs_telemetry::global().counter(counter).inc();
        }
        let (cell, cell_secs, cost) = if let Some(cell) = memo {
            (cell, 0.0, CellCost::default())
        } else {
            let ensemble = simulate_cell_ensemble(
                kind,
                &run_cfg,
                plan.fault.as_ref(),
                run_budget,
                slot.drill,
                &slot.label,
                cfg.replicas.max(1),
                ensemble_pool,
                || {
                    plan.entry.jobs(|| {
                        let _phase = ccs_telemetry::profile::enter("workload_gen");
                        apply_scenario(base, &plan.transform, cfg.seed)
                    })
                },
            );
            let sim = ensemble.cell;
            if !sim.profile.is_empty() {
                profile.merge(&sim.profile);
            }
            match sim.outcome {
                Ok((objectives, n_events)) => (
                    MemoCell {
                        objectives,
                        sigma: ensemble.sigma,
                        events: n_events,
                    },
                    sim.secs,
                    sim.cost,
                ),
                Err((err_kind, message)) => {
                    errors.lock().unwrap().push(CellError {
                        scenario: scenario.label(),
                        scenario_idx,
                        value_idx,
                        policy: kind.name().to_string(),
                        kind: err_kind,
                        message,
                    });
                    row.push([0.0; 4]);
                    sigmas.push([0.0; 4]);
                    events.push(0);
                    secs.push(sim.secs);
                    costs.push(sim.cost);
                    workers.push(worker_id);
                    continue;
                }
            }
        };
        // A stall drill that somehow completed must not poison the journal
        // with the stuck fixture's numbers.
        if let Some(j) = journal.filter(|_| !slot.drill.stall) {
            j.append(&CellRecord {
                key,
                scenario_idx,
                value_idx,
                policy: kind.name().to_string(),
                objectives: cell.objectives,
                sigma: cell.sigma,
                secs: cell_secs,
                events: cell.events,
                worker: worker_id,
            });
        }
        if let Some(claim) = claim.as_mut() {
            claim.cell = Some(cell);
        }
        row.push(cell.objectives);
        sigmas.push(cell.sigma);
        events.push(cell.events);
        secs.push(cell_secs);
        costs.push(cost);
        workers.push(worker_id);
    }
    PointResult {
        row,
        sigmas,
        secs,
        events,
        costs,
        workers,
        profile,
    }
}

/// Renders a caught panic payload as text (panics carry `&str` or `String`
/// in practice).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_rate_zero_point_matches_baseline_workload_point() {
        // The failure-rate scenario's zero-rate cell must reproduce the
        // default-workload cell of every other scenario's baseline exactly:
        // same jobs, no faults.
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(60)
        };
        let g = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let fr = Scenario::ALL
            .iter()
            .position(|s| *s == Scenario::FailureRate)
            .unwrap();
        // Workload scenario's value index 2 is the default delay factor
        // 0.25 — i.e. the exact baseline workload.
        assert_eq!(Scenario::Workload.values()[2], 0.25);
        let wl = Scenario::ALL
            .iter()
            .position(|s| *s == Scenario::Workload)
            .unwrap();
        assert_eq!(g.raw[fr][0], g.raw[wl][2]);
        // Nonzero failure rates must change at least one objective.
        assert_ne!(g.raw[fr][0], g.raw[fr][5], "failures had no effect");
        // Both points are copies of one memoised cell, so compare them
        // against a direct run of the baseline workload too.
        let jobs = apply_scenario(
            &cfg.trace.generate(cfg.seed),
            &crate::scenario::baseline(EstimateSet::A),
            cfg.seed,
        );
        for (p, &kind) in g.policies.iter().enumerate() {
            assert_eq!(
                g.raw[fr][0][p],
                direct_objectives(&cfg, &g, &jobs, kind, None)
            );
        }
    }

    /// Objectives of one cell simulated directly with [`run`], outside the
    /// grid and its memo.
    fn direct_objectives(
        cfg: &ExperimentConfig,
        g: &RawGrid,
        jobs: &[Job],
        kind: PolicyKind,
        fault: Option<&FaultConfig>,
    ) -> [f64; 4] {
        let run_cfg = RunConfig {
            nodes: cfg.nodes,
            econ: g.econ,
        };
        let opts = RunOptions {
            fault,
            ..RunOptions::default()
        };
        let policy = build_policy(kind, g.econ, cfg.nodes);
        run(jobs, policy, &run_cfg, opts)
            .expect("unbudgeted run completes")
            .result
            .metrics
            .objectives()
    }

    /// `(grid, scenario, value, policy)` of every memo-served slot: the
    /// only slots that complete with zero measured seconds.
    fn memo_served(grids: &[RawGrid]) -> Vec<(usize, usize, usize, usize)> {
        let mut served = Vec::new();
        for (g, grid) in grids.iter().enumerate() {
            for (s, per_value) in grid.cell_secs.iter().enumerate() {
                for (v, per_policy) in per_value.iter().enumerate() {
                    for (p, &secs) in per_policy.iter().enumerate() {
                        if secs == 0.0 {
                            served.push((g, s, v, p));
                        }
                    }
                }
            }
        }
        served
    }

    #[test]
    fn memo_served_slots_match_independent_runs() {
        let cfg = ExperimentConfig::quick().with_jobs(40);
        let ev = crate::run_evaluation(&cfg);
        let base = cfg.trace.generate(cfg.seed);
        let served = memo_served(&ev.raw_grids);
        assert!(!served.is_empty());
        for (g, s, v, p) in served {
            let grid = &ev.raw_grids[g];
            let scenario = Scenario::ALL[s];
            let value = scenario.values()[v];
            let jobs = apply_scenario(&base, &scenario.transform(grid.set, value), cfg.seed);
            let fault = scenario.fault(value, cfg.seed);
            let direct = direct_objectives(&cfg, grid, &jobs, grid.policies[p], fault.as_ref());
            assert_eq!(
                grid.raw[s][v][p].map(f64::to_bits),
                direct.map(f64::to_bits),
                "grid {g} slot {s}:{v}:{}",
                grid.policies[p].name()
            );
        }
    }

    #[test]
    fn memo_serves_exactly_the_repeated_cells() {
        let at = |threads| {
            let cfg = ExperimentConfig {
                threads,
                ..ExperimentConfig::quick().with_jobs(40)
            };
            crate::run_evaluation(&cfg).raw_grids
        };
        let one = memo_served(&at(1));
        let many = memo_served(&at(4));
        // Set A: 12 of the 13 baseline points repeat the first. Set B: all
        // 13 baseline points repeat Set A's inaccuracy-100 point, and
        // inaccuracy 0-80 repeat Set A's points.
        let per_grid: Vec<usize> = (0..4)
            .map(|g| one.iter().filter(|slot| slot.0 == g).count())
            .collect();
        assert_eq!(per_grid, [60, 90, 60, 90]);
        assert_eq!(one.len(), 300);
        assert_eq!(one, many, "memo sources must not depend on thread timing");
        let cfg = ExperimentConfig::quick().with_jobs(40);
        let g = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert_eq!(
            memo_served(&[g]).len(),
            60,
            "a standalone grid has its own memo"
        );
    }

    #[test]
    fn drills_fire_on_memo_served_slots_and_are_not_journaled() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let full = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let libra = full
            .policies
            .iter()
            .position(|k| k.name() == "Libra")
            .unwrap();
        // Workload value 2 (0.25) is the baseline point, a repeat of
        // scenario 0's value 1 in the undrilled grid.
        assert_eq!(full.cell_secs[1][2][libra], 0.0);
        for (ctl, kind) in [
            (
                GridControl {
                    fail_cell: Some("1:2:Libra".into()),
                    ..Default::default()
                },
                CellErrorKind::Panic,
            ),
            (
                GridControl {
                    stall_cell: Some("1:2:Libra".into()),
                    ..Default::default()
                },
                CellErrorKind::Budget,
            ),
        ] {
            let dir = std::env::temp_dir().join(format!("ccs_grid_memo_drill_{kind:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            let journal = dir.join("journal.jsonl");
            let ctl = GridControl {
                journal: Some(journal.clone()),
                ..ctl
            };
            let g = run_grid_ctl(EconomicModel::CommodityMarket, EstimateSet::A, &cfg, &ctl);
            assert_eq!(g.errors.len(), 1, "exactly the drilled cell fails");
            let e = &g.errors[0];
            assert_eq!(
                (e.scenario_idx, e.value_idx, e.policy.as_str()),
                (1, 2, "Libra")
            );
            assert_eq!(e.kind, kind);
            let total = Scenario::ALL.len() * 6 * g.policies.len();
            assert_eq!(Journal::open(&journal).unwrap().loaded(), total - 1);
            // Every other cell, memo-served or not, holds the undrilled value.
            let mut raw = g.raw.clone();
            raw[1][2][libra] = full.raw[1][2][libra];
            assert_eq!(raw, full.raw);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn fail_drill_on_a_memo_source_leaves_its_repeats_correct() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let full = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let sjf = full
            .policies
            .iter()
            .position(|k| k.name() == "SJF-BF")
            .unwrap();
        // Scenario 0's value 1 is the grid's first baseline point: the
        // source of the 12 baseline repeats in every policy column.
        assert!(full.cell_secs[0][1][sjf] > 0.0);
        let g = run_grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                fail_cell: Some("0:1:SJF-BF".into()),
                ..Default::default()
            },
        );
        assert_eq!(g.errors.len(), 1);
        assert_eq!(g.raw[0][1][sjf], [0.0; 4]);
        // The drilled slot bypasses the memo, so the next baseline slot
        // becomes the source and its 11 repeats copy it.
        assert!(g.cell_secs[1][2][sjf] > 0.0);
        assert_eq!(memo_served(std::slice::from_ref(&g)).len(), 59);
        let mut raw = g.raw.clone();
        raw[0][1][sjf] = full.raw[0][1][sjf];
        assert_eq!(raw, full.raw);
    }

    #[test]
    fn journal_resume_reproduces_uninterrupted_grid() {
        let dir = std::env::temp_dir().join("ccs_grid_resume_test");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let full = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);

        // "Kill" a journaled run after 30 cells ...
        let truncated = run_grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: Some(30),
                ..Default::default()
            },
        );
        assert!(truncated.errors.is_empty());
        let journaled = Journal::open(&journal).unwrap().loaded();
        assert_eq!(journaled, 30, "exactly the budgeted cells are journaled");

        // ... then resume: only the missing cells run, and the merged grid
        // is identical to the uninterrupted one.
        let resumed = run_grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: None,
                ..Default::default()
            },
        );
        assert_eq!(resumed.raw, full.raw);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_cell_is_confined_and_not_journaled() {
        let dir = std::env::temp_dir().join("ccs_grid_failcell_test");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = run_grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: None,
                fail_cell: Some("0:1:SJF-BF".to_string()),
                ..Default::default()
            },
        );

        assert_eq!(g.errors.len(), 1, "exactly the injected cell fails");
        let e = &g.errors[0];
        assert_eq!((e.scenario_idx, e.value_idx), (0, 1));
        assert_eq!(e.policy, "SJF-BF");
        assert!(e.message.contains("injected panic"), "{}", e.message);
        // The failed cell holds a defined placeholder, not NaN.
        let p = g
            .policies
            .iter()
            .position(|k| k.name() == "SJF-BF")
            .unwrap();
        assert_eq!(g.raw[0][1][p], [0.0; 4]);
        // Every *other* cell completed and was journaled.
        let total = Scenario::ALL.len() * 6 * g.policies.len();
        assert_eq!(Journal::open(&journal).unwrap().loaded(), total - 1);

        // Resuming without the env var re-runs only the failed cell and
        // heals the grid.
        let healed = run_grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: Some(1),
                ..Default::default()
            },
        );
        assert!(healed.errors.is_empty());
        let full = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert_eq!(healed.raw, full.raw);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_dimensions() {
        let cfg = ExperimentConfig::quick().with_jobs(60);
        let g = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert_eq!(g.raw.len(), 13);
        assert_eq!(g.raw[0].len(), 6);
        assert_eq!(g.raw[0][0].len(), 5);
        assert_eq!(g.policy_names()[0], "FCFS-BF");
        assert!(g.errors.is_empty());
    }

    #[test]
    fn objective_values_in_legal_ranges() {
        let cfg = ExperimentConfig::quick().with_jobs(60);
        let g = run_grid(EconomicModel::BidBased, EstimateSet::B, &cfg);
        for s in &g.raw {
            for v in s {
                for p in v {
                    let [wait, sla, rel, prof] = *p;
                    assert!(wait >= 0.0);
                    assert!((0.0..=100.0).contains(&sla), "sla {sla}");
                    assert!((0.0..=100.0).contains(&rel), "rel {rel}");
                    assert!((0.0..=100.0 + 1e-9).contains(&prof), "prof {prof}");
                }
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let one = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let many = ExperimentConfig {
            threads: 4,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let a = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &one);
        let b = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &many);
        assert_eq!(a.raw, b.raw);
    }

    #[test]
    fn fork_replica_seed_is_deterministic_and_decorrelated() {
        assert_eq!(fork_replica_seed(42, 1), fork_replica_seed(42, 1));
        let forks: std::collections::HashSet<u64> =
            (1..64).map(|r| fork_replica_seed(42, r)).collect();
        assert_eq!(forks.len(), 63, "replica forks collide");
        assert!(!forks.contains(&42), "a fork reproduced the base seed");
        assert_ne!(fork_replica_seed(42, 1), fork_replica_seed(43, 1));
    }

    #[test]
    fn single_replica_grid_has_zero_sigma_and_replicas_clamp() {
        assert_eq!(ExperimentConfig::default().replicas, 1);
        assert_eq!(ExperimentConfig::quick().with_replicas(0).replicas, 1);
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert!(g
            .cell_sigma
            .iter()
            .flatten()
            .flatten()
            .all(|s| *s == [0.0; 4]));
    }

    #[test]
    fn ensemble_grid_is_deterministic_across_thread_counts() {
        let one = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::quick().with_jobs(40).with_replicas(3)
        };
        let many = ExperimentConfig {
            threads: 4,
            ..ExperimentConfig::quick().with_jobs(40).with_replicas(3)
        };
        let a = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &one);
        let b = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &many);
        // The fixed replica-index merge order makes μ, σ, and the event
        // totals byte-identical no matter how the pools interleave.
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.cell_sigma, b.cell_sigma);
        assert_eq!(a.cell_events, b.cell_events);
    }

    #[test]
    fn ensemble_spreads_fault_cells_and_averages_over_replicas() {
        let single = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let ensemble = single.with_replicas(3);
        let a = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &single);
        let b = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &ensemble);
        let fr = Scenario::ALL
            .iter()
            .position(|s| *s == Scenario::FailureRate)
            .unwrap();
        // Fault-free scenarios: every replica re-runs the identical
        // deterministic simulation, so the spread collapses and the mean
        // reproduces the single run (up to the mean's last-ulp rounding).
        for (s, per_value) in b.cell_sigma.iter().enumerate() {
            if s == fr {
                continue;
            }
            for (v, per_policy) in per_value.iter().enumerate() {
                for (p, sigma) in per_policy.iter().enumerate() {
                    assert!(sigma.iter().all(|x| x.abs() < 1e-9), "σ {sigma:?}");
                    for k in 0..4 {
                        let (x, mu) = (a.raw[s][v][p][k], b.raw[s][v][p][k]);
                        assert!(
                            (x - mu).abs() <= 1e-9 * x.abs().max(1.0),
                            "[{s}][{v}][{p}][{k}]: {x} vs {mu}"
                        );
                    }
                }
            }
        }
        // Nonzero failure rates: the forked fault streams give the
        // replicas genuinely different weather, so some spread survives.
        let spread: f64 = b.cell_sigma[fr][1..]
            .iter()
            .flatten()
            .flat_map(|s| s.iter())
            .sum();
        assert!(spread > 0.0, "ensemble produced no spread on fault cells");
        // Events accumulate across replicas.
        assert!(b.cell_events[fr][5][0] > a.cell_events[fr][5][0]);
    }

    #[test]
    fn ensemble_journal_resume_restores_mean_and_sigma() {
        let dir = std::env::temp_dir().join("ccs_grid_ensemble_resume_test");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(30).with_replicas(2)
        };
        let full = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let truncated = run_grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: Some(30),
                ..Default::default()
            },
        );
        assert!(truncated.errors.is_empty());
        let resumed = run_grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: None,
                ..Default::default()
            },
        );
        assert_eq!(resumed.raw, full.raw);
        assert_eq!(resumed.cell_sigma, full.cell_sigma);
        // An ensemble journal must not satisfy a single-replica run: the
        // cell keys carry the replica count.
        let single = run_grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &ExperimentConfig { replicas: 1, ..cfg },
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: Some(0),
                ..Default::default()
            },
        );
        assert!(
            single
                .raw
                .iter()
                .flatten()
                .flatten()
                .all(|r| *r == [0.0; 4]),
            "single-replica run reused ensemble journal cells"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_cache_shares_identical_transforms() {
        let cfg = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        // One cache lookup per experiment point; single-threaded, so no
        // racing double-misses.
        assert_eq!(
            g.workload_cache_hits + g.workload_cache_misses,
            (Scenario::ALL.len() * 6) as u64
        );
        // The failure-rate scenario sweeps only the fault process: all six
        // of its values share one transform, so at least five lookups hit.
        assert!(g.workload_cache_hits >= 5, "hits {}", g.workload_cache_hits);
        // Every simulated cell decides every job, so each records events.
        for per_value in &g.cell_events {
            for per_policy in per_value {
                for &e in per_policy {
                    assert!(e >= 40, "simulated cell recorded {e} events");
                }
            }
        }
    }

    #[test]
    fn cell_costs_follow_profile_feature() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert_eq!(g.cell_costs.len(), 13);
        assert_eq!(g.cell_costs[0].len(), 6);
        assert_eq!(g.cell_costs[0][0].len(), g.policies.len());
        let total_ns: u64 = g
            .cell_timings()
            .iter()
            .map(|c| c.cost.total_phase_ns())
            .sum();
        if ccs_telemetry::profile::PROFILE_ENABLED {
            // Profiled build: every simulated cell carries phase data and
            // the grid-wide flamegraph snapshot is populated.
            assert!(total_ns > 0, "profiled grid recorded no phase time");
            assert!(!g.profile.is_empty());
            assert!(g.profile.folded().contains("cell;run"));
            let depth_seen = g.cell_timings().iter().any(|c| c.cost.peak_queue_depth > 0);
            assert!(depth_seen, "no cell observed a queue depth");
        } else {
            // Default build: the cost model exists but stays all-zero —
            // no clock reads were taken.
            assert_eq!(total_ns, 0);
            assert!(g.profile.is_empty());
            assert!(g
                .cell_timings()
                .iter()
                .all(|c| c.cost.top_phase().is_none()));
        }
    }

    #[test]
    fn in_process_cells_attribute_their_worker_thread() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let ids: std::collections::HashSet<u64> =
            g.cell_workers.iter().flatten().flatten().copied().collect();
        assert!(!ids.contains(&0), "simulated cells must be attributed");
        assert!(
            ids.iter().all(|&w| w <= 2),
            "worker ids 1..=threads: {ids:?}"
        );
    }

    #[test]
    fn cell_timings_populated_without_feature() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert_eq!(g.cell_secs.len(), 13);
        assert_eq!(g.cell_secs[0].len(), 6);
        assert_eq!(g.cell_secs[0][0].len(), g.policies.len());
        let total: f64 = g.cell_secs.iter().flatten().flatten().copied().sum();
        assert!(total > 0.0, "cells should take measurable time");
        assert!(g.wall_secs > 0.0);
        assert_eq!(g.worker_busy_secs.len(), 2);
        let slow = g.slowest_cells(5);
        assert_eq!(slow.len(), 5);
        assert!(slow[0].secs >= slow[4].secs);
        for u in g.worker_utilisation() {
            assert!((0.0..=1.5).contains(&u), "utilisation {u}");
        }
    }
}
