//! The traced run: every cell through a timing `Policy` decorator, spans
//! around each call into a crate, per-layer metrics, the self-time table
//! and a Chrome-trace file.
//!
//! Policy hooks run tens of millions of times per pass, so the decorator
//! sums their time and counts per cell instead of recording one span per
//! call; the trace shows each cell's hook total as one span starting with
//! the cell's simulate call.

use crate::digest::grid_digest;
use crate::run::Metric;
use crate::spans::{self_time_table, subtree, Recorder, Span};
use crate::workloads::{
    backfill_pass, build_cells, finite, grouped_digest, pool_map, storm_pass, storm_value,
    write_artifacts, Cell, Options, Workload, GRIDS, THREADS,
};
use ccs_experiments::grid::CellCost;
use ccs_experiments::{
    analyze, policies_for, run_grid_with_base, Evaluation, ExperimentConfig, RawGrid, Scenario,
};
use ccs_policies::{build_policy, Interruption, Outcome, Policy, PolicyKind};
use ccs_simsvc::{simulate_checked, simulate_guarded_with, FaultConfig, RunBudget};
use ccs_telemetry::profile::ProfileSnapshot;
use ccs_workload::Job;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Time and counts of one policy's hooks, summed over a cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HookStats {
    /// Nanoseconds in `on_submit`.
    pub submit_ns: u64,
    /// Nanoseconds in `advance_to` and `next_event_time`.
    pub advance_ns: u64,
    /// Nanoseconds in the node failure and repair hooks.
    pub fault_ns: u64,
    /// Nanoseconds in `drain`.
    pub drain_ns: u64,
    /// `on_submit` calls.
    pub submits: u64,
    /// `Accepted` outcomes emitted by any hook (backfilling policies
    /// accept a queued job when it starts).
    pub accepted: u64,
    /// Interruptions returned by the failure hooks.
    pub interruptions: u64,
}

impl HookStats {
    /// Total nanoseconds inside the policy.
    pub fn hook_ns(&self) -> u64 {
        self.submit_ns + self.advance_ns + self.fault_ns + self.drain_ns
    }

    fn add(&mut self, o: &HookStats) {
        self.submit_ns += o.submit_ns;
        self.advance_ns += o.advance_ns;
        self.fault_ns += o.fault_ns;
        self.drain_ns += o.drain_ns;
        self.submits += o.submits;
        self.accepted += o.accepted;
        self.interruptions += o.interruptions;
    }
}

/// A transparent `Policy` decorator that times every hook. It forwards
/// every trait method, the batch failure hooks and `queued_jobs`
/// included, so the decorated run takes exactly the inner policy's path.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    stats: Rc<RefCell<HookStats>>,
}

impl TimedPolicy {
    /// Wraps `inner`; the returned handle reads the sums after the run.
    pub fn wrap(inner: Box<dyn Policy>) -> (Box<dyn Policy>, Rc<RefCell<HookStats>>) {
        let stats = Rc::new(RefCell::new(HookStats::default()));
        let policy = TimedPolicy {
            inner,
            stats: Rc::clone(&stats),
        };
        (Box::new(policy), stats)
    }
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl TimedPolicy {
    /// Runs one hook of the inner policy, adding its time to `field` and
    /// counting the `Accepted` outcomes it emits.
    fn hook<R>(
        &mut self,
        field: fn(&mut HookStats) -> &mut u64,
        out: &mut Vec<Outcome>,
        f: impl FnOnce(&mut dyn Policy, &mut Vec<Outcome>) -> R,
    ) -> R {
        let before = out.len();
        let t0 = Instant::now();
        let r = f(self.inner.as_mut(), out);
        let ns = ns_since(t0);
        let accepted = out[before..]
            .iter()
            .filter(|o| matches!(o, Outcome::Accepted { .. }))
            .count() as u64;
        let mut s = self.stats.borrow_mut();
        *field(&mut s) += ns;
        s.accepted += accepted;
        r
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>) {
        self.stats.borrow_mut().submits += 1;
        self.hook(
            |s| &mut s.submit_ns,
            out,
            |p, out| p.on_submit(job, now, out),
        );
    }

    fn next_event_time(&mut self) -> Option<f64> {
        let t0 = Instant::now();
        let t = self.inner.next_event_time();
        self.stats.borrow_mut().advance_ns += ns_since(t0);
        t
    }

    fn advance_to(&mut self, t: f64, out: &mut Vec<Outcome>) {
        self.hook(|s| &mut s.advance_ns, out, |p, out| p.advance_to(t, out));
    }

    fn drain(&mut self, out: &mut Vec<Outcome>) {
        self.hook(|s| &mut s.drain_ns, out, |p, out| p.drain(out));
    }

    fn on_node_fail(&mut self, node: u32, now: f64, out: &mut Vec<Outcome>) -> Vec<Interruption> {
        let r = self.hook(
            |s| &mut s.fault_ns,
            out,
            |p, out| p.on_node_fail(node, now, out),
        );
        self.stats.borrow_mut().interruptions += r.len() as u64;
        r
    }

    fn on_node_repair(&mut self, node: u32, now: f64, out: &mut Vec<Outcome>) {
        self.hook(
            |s| &mut s.fault_ns,
            out,
            |p, out| p.on_node_repair(node, now, out),
        );
    }

    fn on_nodes_fail(
        &mut self,
        nodes: &[u32],
        now: f64,
        out: &mut Vec<Outcome>,
    ) -> Vec<Interruption> {
        let r = self.hook(
            |s| &mut s.fault_ns,
            out,
            |p, out| p.on_nodes_fail(nodes, now, out),
        );
        self.stats.borrow_mut().interruptions += r.len() as u64;
        r
    }

    fn on_nodes_repair(&mut self, nodes: &[u32], now: f64, out: &mut Vec<Outcome>) {
        self.hook(
            |s| &mut s.fault_ns,
            out,
            |p, out| p.on_nodes_repair(nodes, now, out),
        );
    }

    fn queued_jobs(&self) -> usize {
        self.inner.queued_jobs()
    }
}

/// A decorated simulation of one cell (or one replica of it).
#[derive(Clone, Copy, Debug, Default)]
pub struct DecoratedRun {
    /// The run's objectives.
    pub objectives: [f64; 4],
    /// Outcome events.
    pub events: u64,
    /// Nanoseconds in `simulate_guarded_with`.
    pub run_ns: u64,
    /// Hook sums of the run.
    pub hooks: HookStats,
}

/// Runs `kind` over `jobs` through the decorator and
/// `simulate_guarded_with` with an unlimited budget.
pub fn simulate_decorated(
    jobs: &[Job],
    kind: PolicyKind,
    run_cfg: &ccs_simsvc::RunConfig,
    fault: Option<&FaultConfig>,
) -> DecoratedRun {
    let (policy, stats) = TimedPolicy::wrap(build_policy(kind, run_cfg.econ, run_cfg.nodes));
    let t0 = Instant::now();
    let (result, events) = simulate_guarded_with(
        jobs,
        policy,
        run_cfg,
        kind.name(),
        fault,
        RunBudget::unlimited(),
    )
    .expect("an unlimited budget cannot trip");
    let run_ns = ns_since(t0);
    let hooks = *stats.borrow();
    DecoratedRun {
        objectives: result.metrics.objectives(),
        events,
        run_ns,
        hooks,
    }
}

/// The fault seed of ensemble replica `replica`: the SplitMix64 fork
/// `ccs_experiments::run_cell_ensemble` applies. Replica 0 keeps the
/// cell's own seed. If the two ever drift, the traced `failure_storm`
/// digest no longer matches the untraced one and the run fails.
pub(crate) fn replica_fault(fault: Option<&FaultConfig>, replica: usize) -> Option<FaultConfig> {
    fault.map(|f| {
        let mut f = *f;
        if replica > 0 {
            let mut z = f.seed ^ (replica as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f.seed = z ^ (z >> 31);
        }
        f
    })
}

/// Replica mean and population spread, in the ensemble runner's order.
fn ensemble_moments(objs: &[[f64; 4]]) -> ([f64; 4], [f64; 4]) {
    let n = objs.len() as f64;
    let mut sum = [0.0f64; 4];
    for o in objs {
        for (acc, x) in sum.iter_mut().zip(o) {
            *acc += x;
        }
    }
    let mu = [sum[0] / n, sum[1] / n, sum[2] / n, sum[3] / n];
    let mut sigma = [0.0f64; 4];
    for (k, s) in sigma.iter_mut().enumerate() {
        let ss: f64 = objs.iter().map(|x| (x[k] - mu[k]) * (x[k] - mu[k])).sum();
        *s = (ss / n).sqrt();
    }
    (mu, sigma)
}

/// Metric-name key of each policy.
fn policy_key(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::FcfsBf => "fcfs_bf",
        PolicyKind::SjfBf => "sjf_bf",
        PolicyKind::EdfBf => "edf_bf",
        PolicyKind::FirstReward => "first_reward",
        PolicyKind::Libra => "libra",
        PolicyKind::LibraDollar => "libra_dollar",
        PolicyKind::LibraRiskD => "libra_riskd",
    }
}

/// Every policy, in per-layer reporting order.
pub const POLICIES: [PolicyKind; 7] = [
    PolicyKind::FcfsBf,
    PolicyKind::SjfBf,
    PolicyKind::EdfBf,
    PolicyKind::FirstReward,
    PolicyKind::Libra,
    PolicyKind::LibraDollar,
    PolicyKind::LibraRiskD,
];

/// What a traced run produced.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Cells attempted (decorated pass) and failed (errors, digest
    /// mismatch, invariant violations).
    pub attempted: usize,
    /// Failed cells.
    pub failed: usize,
    /// Self-time table rows, over set-up and the traced pass.
    pub table: Vec<(String, usize, f64, f64)>,
    /// The spans, for the Chrome trace.
    pub spans: Vec<Span>,
    /// Decorated-pass digest equals the untraced pass's.
    pub digest_ok: bool,
}

/// Decorated pass over `items` (cell index, replica) on the pool, one
/// cell span and one simulate span per item, hook totals as a span.
fn decorated_items(
    rec: &Recorder,
    parent: usize,
    cells: &[Cell],
    items: &[(usize, usize)],
    replica_ids: bool,
) -> Vec<DecoratedRun> {
    let (runs, _busy) = pool_map(items, THREADS, |tid, &(ci, r)| {
        let cell = &cells[ci];
        let mut id = cell.id();
        if replica_ids {
            let _ = write!(id, "/{r}");
        }
        let span = rec.open(id, "bench", tid, Some(parent));
        let sim = rec.open("simulate_guarded_with", "simsvc", tid, Some(span));
        let start_us = rec.start_us(sim);
        let fault = replica_fault(cell.fault.as_ref(), r);
        // A panicking cell reads as NaN objectives: a failed cell.
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            simulate_decorated(&cell.jobs, cell.kind, &cell.run_cfg, fault.as_ref())
        }))
        .unwrap_or(DecoratedRun {
            objectives: [f64::NAN; 4],
            ..DecoratedRun::default()
        });
        let h = &run.hooks;
        rec.add(Span {
            name: cell.kind.name().to_string(),
            layer: "policies",
            tid,
            start_us,
            dur_us: h.hook_ns() as f64 / 1e3,
            parent: Some(sim),
            args: format!(
                "\"aggregated\":true,\"submit_us\":{:.3},\"advance_us\":{:.3},\"fault_us\":{:.3},\"drain_us\":{:.3},\"submits\":{},\"accepted\":{},\"interruptions\":{}",
                h.submit_ns as f64 / 1e3,
                h.advance_ns as f64 / 1e3,
                h.fault_ns as f64 / 1e3,
                h.drain_ns as f64 / 1e3,
                h.submits,
                h.accepted,
                h.interruptions
            ),
        });
        rec.close(sim, format!("\"events\":{}", run.events));
        rec.close(span, String::new());
        run
    });
    runs
}

/// Builds the raw grids of `paper_study` from decorated cell results.
fn grids_from_runs(cells: &[Cell], runs: &[DecoratedRun]) -> Vec<RawGrid> {
    GRIDS
        .iter()
        .enumerate()
        .map(|(g, &(econ, set))| {
            let policies = policies_for(econ);
            let np = policies.len();
            let n_s = Scenario::ALL.len();
            let mut raw = vec![vec![vec![[0.0; 4]; np]; 6]; n_s];
            let mut secs = vec![vec![vec![0.0; np]; 6]; n_s];
            let mut events = vec![vec![vec![0u64; np]; 6]; n_s];
            for (c, r) in cells.iter().zip(runs).filter(|(c, _)| c.grid() == g) {
                let p = policies
                    .iter()
                    .position(|&k| k == c.kind)
                    .expect("grid policy");
                raw[c.scenario_idx][c.value_idx][p] = r.objectives;
                secs[c.scenario_idx][c.value_idx][p] = r.run_ns as f64 / 1e9;
                events[c.scenario_idx][c.value_idx][p] = r.events;
            }
            RawGrid {
                econ,
                set,
                policies,
                raw,
                cell_sigma: vec![vec![vec![[0.0; 4]; np]; 6]; n_s],
                cell_secs: secs,
                cell_events: events,
                cell_costs: vec![vec![vec![CellCost::default(); np]; 6]; n_s],
                cell_workers: vec![vec![vec![0; np]; 6]; n_s],
                profile: ProfileSnapshot::default(),
                workload_cache_hits: 0,
                workload_cache_misses: 0,
                worker_busy_secs: Vec::new(),
                worker_transports: Vec::new(),
                wall_secs: 0.0,
                errors: Vec::new(),
            }
        })
        .collect()
}

/// Cells the invariant engine checks: every `failure_storm` cell (every
/// replica), and every 13th cell of the other workloads.
fn checked_sample(workload: Workload, cells: &[Cell], replicas: usize) -> Vec<(usize, usize)> {
    match workload {
        Workload::FailureStorm => (0..cells.len())
            .flat_map(|c| (0..replicas).map(move |r| (c, r)))
            .collect(),
        _ => (0..cells.len()).step_by(13).map(|c| (c, 0)).collect(),
    }
}

/// What the untraced reference pass measured.
#[derive(Default)]
struct Reference {
    digest: Vec<u64>,
    wall_s: f64,
    cpu_s: f64,
    run_grid_s: f64,
    /// Σ pool-thread busy seconds and pool wall seconds.
    pool_busy_s: f64,
    pool_wall_s: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// The untraced reference pass. For `paper_study` it is the study made of
/// its public calls (`generate`, four `run_grid_with_base`, four
/// `analyze`, the artifact pass), each a span; otherwise the workload's
/// timed pass.
fn reference_pass(
    workload: Workload,
    cfg: &ExperimentConfig,
    cells: &[Cell],
    replicas: usize,
    rec: &Recorder,
    artifact_dir: &Path,
) -> Result<Reference, String> {
    let span = rec.open("untraced pass", "bench", 0, None);
    let cpu0 = crate::host::cpu_ticks();
    let t0 = Instant::now();
    let mut r = Reference::default();
    match workload {
        Workload::PaperStudy => {
            let (base, _) = rec.time("SdscSp2Model::generate", "workload", Some(span), || {
                cfg.trace.generate(cfg.seed)
            });
            let mut grids = Vec::new();
            for (econ, set) in GRIDS {
                let name = format!("run_grid {econ}/{}", set.label());
                let (g, secs) = rec.time(&name, "experiments", Some(span), || {
                    run_grid_with_base(econ, set, cfg, &base)
                });
                r.run_grid_s += secs;
                r.pool_busy_s += g.worker_busy_secs.iter().sum::<f64>();
                r.pool_wall_s += g.wall_secs;
                r.cache_hits += g.workload_cache_hits;
                r.cache_misses += g.workload_cache_misses;
                grids.push(g);
            }
            let (ev, _) = evaluation(grids, rec, span);
            write_artifacts(&ev, cfg, artifact_dir).map_err(|e| format!("artifact pass: {e}"))?;
            r.digest = ev.raw_grids.iter().map(grid_digest).collect();
        }
        Workload::BackfillSweep => {
            let pass = backfill_pass(cells);
            r.pool_busy_s = pass.pool_busy_s.iter().sum();
            r.pool_wall_s = pass.pool_wall_s;
            r.digest = pass.digest;
        }
        Workload::FailureStorm => r.digest = storm_pass(cells, replicas).digest,
    }
    r.wall_s = t0.elapsed().as_secs_f64();
    r.cpu_s = crate::host::cpu_seconds_since(cpu0);
    rec.close(span, String::new());
    let _ = std::fs::remove_dir_all(artifact_dir);
    Ok(r)
}

/// What the decorated pass measured.
struct Decorated {
    digest: Vec<u64>,
    wall_s: f64,
    /// Every decorated run with its (cell, replica).
    runs: Vec<((usize, usize), DecoratedRun)>,
    analyze_s: f64,
    report_s: f64,
    /// The pass's root span.
    span: usize,
}

/// The decorated pass: every cell (every replica, for `failure_storm`)
/// through [`simulate_decorated`] on the pool; for `paper_study` the
/// results are folded into grids, analysed and written out.
fn decorated_pass(
    workload: Workload,
    cfg: &ExperimentConfig,
    cells: &[Cell],
    replicas: usize,
    rec: &Recorder,
    artifact_dir: &Path,
) -> Result<Decorated, String> {
    let span = rec.open("traced pass", "bench", 0, None);
    let t0 = Instant::now();
    let mut d = Decorated {
        digest: Vec::new(),
        wall_s: 0.0,
        runs: Vec::with_capacity(cells.len() * replicas),
        analyze_s: 0.0,
        report_s: 0.0,
        span,
    };
    match workload {
        Workload::PaperStudy => {
            for (g, (econ, set)) in GRIDS.into_iter().enumerate() {
                let grid = rec.open(
                    format!("grid {econ}/{}", set.label()),
                    "bench",
                    0,
                    Some(span),
                );
                let items: Vec<(usize, usize)> = (0..cells.len())
                    .filter(|&c| cells[c].grid() == g)
                    .map(|c| (c, 0))
                    .collect();
                let runs = decorated_items(rec, grid, cells, &items, false);
                rec.close(grid, String::new());
                d.runs.extend(items.into_iter().zip(runs));
            }
            let runs: Vec<DecoratedRun> = d.runs.iter().map(|(_, r)| *r).collect();
            let (ev, analyze_s) = evaluation(grids_from_runs(cells, &runs), rec, span);
            let (written, report_s) =
                rec.time("write_artifacts", "experiments", Some(span), || {
                    write_artifacts(&ev, cfg, artifact_dir)
                });
            written.map_err(|e| format!("artifact pass: {e}"))?;
            d.analyze_s = analyze_s;
            d.report_s = report_s;
            d.digest = ev.raw_grids.iter().map(grid_digest).collect();
        }
        Workload::BackfillSweep => {
            let items: Vec<(usize, usize)> = (0..cells.len()).map(|c| (c, 0)).collect();
            let runs = decorated_items(rec, span, cells, &items, false);
            d.digest = grouped_digest(cells, runs.iter().map(|x| &x.objectives[..]));
            d.runs.extend(items.into_iter().zip(runs));
        }
        Workload::FailureStorm => {
            let mut values = Vec::with_capacity(cells.len());
            for (c, cell) in cells.iter().enumerate() {
                let ens = rec.open(format!("{} ensemble", cell.id()), "bench", 0, Some(span));
                let items: Vec<(usize, usize)> = (0..replicas).map(|r| (c, r)).collect();
                let runs = decorated_items(rec, ens, cells, &items, true);
                rec.close(ens, String::new());
                let objs: Vec<[f64; 4]> = runs.iter().map(|x| x.objectives).collect();
                let (mu, sigma) = ensemble_moments(&objs);
                values.push(storm_value(mu, sigma));
                d.runs.extend(items.into_iter().zip(runs));
            }
            d.digest = grouped_digest(cells, values.iter().map(|v| &v[..]));
        }
    }
    d.wall_s = t0.elapsed().as_secs_f64();
    rec.close(span, String::new());
    let _ = std::fs::remove_dir_all(artifact_dir);
    Ok(d)
}

/// Runs the invariant engine over a fixed sample of cells (see
/// [`checked_sample`]); returns the sample size and the cells that
/// violated an invariant.
fn check_sample(workload: Workload, cells: &[Cell], replicas: usize) -> (usize, usize) {
    let sample = checked_sample(workload, cells, replicas);
    let (violated, _) = pool_map(&sample, THREADS, |_, &(c, r)| {
        let cell = &cells[c];
        let fault = replica_fault(cell.fault.as_ref(), r);
        let checked = simulate_checked(&cell.jobs, cell.kind, &cell.run_cfg, fault.as_ref());
        if let Some(v) = checked.violations.first() {
            eprintln!("perfbench: invariant violation in {}/{r}: {v}", cell.id());
        }
        usize::from(!checked.is_clean())
    });
    (sample.len(), violated.iter().sum())
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn layer_metrics(
    workload: Workload,
    inputs: (f64, f64),
    r: &Reference,
    d: &Decorated,
    cells: &[Cell],
    checked: usize,
) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let threads = THREADS as f64;
    let mut hooks: BTreeMap<&'static str, HookStats> = BTreeMap::new();
    let (mut run_ns, mut hook_ns, mut events) = (0u64, 0u64, 0u64);
    for ((c, _), run) in &d.runs {
        hooks
            .entry(policy_key(cells[*c].kind))
            .or_default()
            .add(&run.hooks);
        run_ns += run.run_ns;
        hook_ns += run.hooks.hook_ns();
        events += run.events;
    }
    let run_s = run_ns as f64 / 1e9;
    let hits = r.cache_hits as f64;
    let ensemble_busy = match workload {
        Workload::FailureStorm => ratio(r.cpu_s, threads * r.wall_s),
        _ => 0.0,
    };
    let mut metrics = vec![
        Metric::new("workload.generate_s", "s", inputs.0),
        Metric::new("workload.apply_scenario_s", "s", inputs.1),
        Metric::new("experiments.run_grid_s", "s", r.run_grid_s),
        Metric::new(
            "experiments.pool_busy_ratio",
            "ratio",
            ratio(r.pool_busy_s, threads * r.pool_wall_s),
        ),
        Metric::new(
            "experiments.pool_idle_s",
            "s",
            (threads * r.pool_wall_s - r.pool_busy_s).max(0.0),
        ),
        Metric::new(
            "experiments.workload_cache_hit_ratio",
            "ratio",
            ratio(hits, hits + r.cache_misses as f64),
        ),
        Metric::new("experiments.ensemble_busy_ratio", "ratio", ensemble_busy),
        Metric::new("experiments.report_s", "s", d.report_s),
        Metric::new("risk.analyze_s", "s", d.analyze_s),
        Metric::new("simsvc.run_s", "s", run_s),
        Metric::new(
            "simsvc.self_s",
            "s",
            run_ns.saturating_sub(hook_ns) as f64 / 1e9,
        ),
        Metric::new("simsvc.events", "count", events as f64),
        Metric::new("simsvc.events_per_s", "1/s", ratio(events as f64, run_s)),
    ];
    for kind in POLICIES {
        let key = policy_key(kind);
        let h = hooks.get(key).copied().unwrap_or_default();
        let name = |suffix: &str| format!("policies.{key}.{suffix}");
        metrics.extend([
            Metric::new(name("submit_s"), "s", h.submit_ns as f64 / 1e9),
            Metric::new(name("advance_s"), "s", h.advance_ns as f64 / 1e9),
            Metric::new(name("fault_s"), "s", h.fault_ns as f64 / 1e9),
            Metric::new(name("drain_s"), "s", h.drain_ns as f64 / 1e9),
            Metric::new(name("submits"), "count", h.submits as f64),
            Metric::new(
                name("accept_ratio"),
                "ratio",
                ratio(h.accepted as f64, h.submits as f64),
            ),
            Metric::new(name("interruptions"), "count", h.interruptions as f64),
        ]);
    }
    metrics.extend([
        Metric::new("trace.wall_s", "s", d.wall_s),
        Metric::new("trace.untraced_wall_s", "s", r.wall_s),
        Metric::new("trace.overhead_s", "s", d.wall_s - r.wall_s),
        Metric::new("gate.checked_cells", "count", checked as f64),
    ]);
    metrics
}

/// The traced run of one workload: the pinned-digest check, input
/// synthesis, an untraced reference pass, the decorated pass, the
/// invariant check of a cell sample (outside every timer), and the
/// per-layer metrics.
pub fn run_traced(
    workload: Workload,
    opts: &Options,
    artifact_dir: &Path,
) -> Result<Traced, String> {
    crate::digest::check_pinned()?;
    let cfg = opts.config();
    let replicas = workload.replicas(opts);
    let rec = Recorder::default();

    let setup = rec.open("setup", "bench", 0, None);
    let origin = rec.start_us(setup);
    let inputs = build_cells(workload, &cfg);
    for (name, start_us, secs) in [
        ("SdscSp2Model::generate", origin, inputs.generate_s),
        (
            "apply_scenario",
            origin + inputs.generate_s * 1e6,
            inputs.apply_scenario_s,
        ),
    ] {
        rec.add(Span {
            name: name.into(),
            layer: "workload",
            tid: 0,
            start_us,
            dur_us: secs * 1e6,
            parent: Some(setup),
            args: String::new(),
        });
    }
    rec.close(setup, String::new());
    let cells = inputs.cells;

    let reference = reference_pass(workload, &cfg, &cells, replicas, &rec, artifact_dir)?;
    let decorated = decorated_pass(workload, &cfg, &cells, replicas, &rec, artifact_dir)?;
    let digest_ok = decorated.digest == reference.digest;
    let (checked, violated) = check_sample(workload, &cells, replicas);
    let non_finite = decorated
        .runs
        .iter()
        .filter(|(_, r)| !finite(&r.objectives))
        .count();

    let metrics = layer_metrics(
        workload,
        (inputs.generate_s, inputs.apply_scenario_s),
        &reference,
        &decorated,
        &cells,
        checked,
    );
    let attempted = decorated.runs.len();
    let spans = rec.spans();
    Ok(Traced {
        metrics,
        attempted,
        failed: if digest_ok {
            violated + non_finite
        } else {
            attempted
        },
        table: self_time_table(&spans, &subtree(&spans, &[setup, decorated.span])),
        spans,
        digest_ok,
    })
}

/// Analyses four grids into an evaluation, timing each `analyze` as a
/// `risk` span under `parent`; returns the summed analysis seconds.
fn evaluation(grids: Vec<RawGrid>, rec: &Recorder, parent: usize) -> (Evaluation, f64) {
    let mut secs = 0.0;
    let mut analyses = Vec::with_capacity(grids.len());
    for g in &grids {
        let name = format!("analyze {}/{}", g.econ, g.set.label());
        let (a, s) = rec.time(&name, "risk", Some(parent), || analyze(g));
        secs += s;
        analyses.push(a);
    }
    let mut it = analyses.into_iter();
    let mut next = || it.next().expect("four analyses");
    let ev = Evaluation {
        commodity_a: next(),
        commodity_b: next(),
        bid_a: next(),
        bid_b: next(),
        raw_grids: grids,
    };
    (ev, secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records which hooks the decorator forwarded.
    #[derive(Default)]
    struct Probe {
        calls: Rc<RefCell<Vec<&'static str>>>,
    }

    impl Policy for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn on_submit(&mut self, _: &Job, now: f64, out: &mut Vec<Outcome>) {
            self.calls.borrow_mut().push("submit");
            out.push(Outcome::Accepted { job: 0, at: now });
        }
        fn next_event_time(&mut self) -> Option<f64> {
            None
        }
        fn advance_to(&mut self, _: f64, _: &mut Vec<Outcome>) {}
        fn drain(&mut self, _: &mut Vec<Outcome>) {}
        fn on_node_fail(&mut self, _: u32, _: f64, _: &mut Vec<Outcome>) -> Vec<Interruption> {
            self.calls.borrow_mut().push("fail");
            Vec::new()
        }
        fn on_node_repair(&mut self, _: u32, _: f64, _: &mut Vec<Outcome>) {
            self.calls.borrow_mut().push("repair");
        }
        fn on_nodes_fail(
            &mut self,
            nodes: &[u32],
            at: f64,
            _: &mut Vec<Outcome>,
        ) -> Vec<Interruption> {
            self.calls.borrow_mut().push("fail batch");
            let hit = Interruption {
                job: 0,
                started_at: at,
                remaining_work: 1.0,
            };
            vec![hit; nodes.len()]
        }
        fn on_nodes_repair(&mut self, _: &[u32], _: f64, _: &mut Vec<Outcome>) {
            self.calls.borrow_mut().push("repair batch");
        }
        fn queued_jobs(&self) -> usize {
            7
        }
    }

    #[test]
    fn decorator_forwards_batch_hooks_and_queue_length() {
        // Equal-time failure batches cannot be drawn from continuous
        // weather, so the simulation-level test cannot tell a forwarded
        // batch hook from the trait's scalar loop; this probe can.
        let probe = Probe::default();
        let calls = Rc::clone(&probe.calls);
        let (mut p, stats) = TimedPolicy::wrap(Box::new(probe));
        let mut out = Vec::new();
        let cfg = ccs_experiments::ExperimentConfig::quick().with_jobs(1);
        let base = cfg.trace.generate(1);
        let jobs = ccs_workload::apply_scenario(
            &base,
            &ccs_experiments::baseline(ccs_experiments::EstimateSet::A),
            1,
        );
        p.on_submit(&jobs[0], 0.0, &mut out);
        assert_eq!(p.on_nodes_fail(&[1, 2, 3], 5.0, &mut out).len(), 3);
        p.on_nodes_repair(&[1, 2, 3], 9.0, &mut out);
        assert_eq!(p.queued_jobs(), 7);
        assert_eq!(p.name(), "probe");
        assert_eq!(*calls.borrow(), ["submit", "fail batch", "repair batch"]);
        let s = *stats.borrow();
        assert_eq!((s.submits, s.accepted, s.interruptions), (1, 1, 3));
    }

    #[test]
    fn replica_zero_keeps_the_cell_fault_seed() {
        let f = FaultConfig::exponential(9, 1000.0, 10.0);
        assert_eq!(replica_fault(Some(&f), 0).map(|f| f.seed), Some(9));
        assert_ne!(replica_fault(Some(&f), 1).map(|f| f.seed), Some(9));
        assert!(replica_fault(None, 3).is_none());
    }
}
