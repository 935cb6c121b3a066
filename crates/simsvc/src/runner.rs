//! The service simulator: drives one workload through one policy.

use crate::budget::{BudgetExceeded, RunBudget, Watchdog};
use crate::fault::{Degradation, FaultConfig};
use crate::metrics::RunMetrics;
use crate::observe::RunObserver;
use crate::record::JobRecord;
use ccs_des::{FailureEventKind, FailureProcess, FastHashMap, FastHashSet, NodeFailureEvent};
use ccs_economy::{bid_utility, EconomicModel, Ledger};
use ccs_policies::{build_policy, Interruption, Outcome, Policy, PolicyKind};
use ccs_workload::{Job, JobId};
use serde::{Deserialize, Serialize};

/// Configuration of one simulation run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RunConfig {
    /// Cluster size in processors (the paper simulates 128).
    pub nodes: u32,
    /// Economic model in force.
    pub econ: EconomicModel,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            nodes: 128,
            econ: EconomicModel::CommodityMarket,
        }
    }
}

/// Result of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Aggregate metrics (inputs to the four objectives).
    pub metrics: RunMetrics,
    /// Per-job outcome records, one per job, sorted by job id (not by
    /// submit time: ids need not follow submission order). The trace layer
    /// binary-searches this order.
    pub records: Vec<JobRecord>,
    /// Billing ledger: one invoice per decided job, in decision order.
    pub ledger: Ledger,
}

/// Simulates `jobs` (must be sorted by submit time) under `kind` and returns
/// the run result. Deterministic: identical inputs give identical outputs.
pub fn simulate(jobs: &[Job], kind: PolicyKind, cfg: &RunConfig) -> RunResult {
    run(
        jobs,
        build_policy(kind, cfg.econ, cfg.nodes),
        cfg,
        RunOptions::default(),
    )
    .expect(UNBUDGETED)
    .result
}

/// [`run`] under `kind` with no options, plus the outcome-event count.
/// Kept only for `perfbench/`; delete it in the next change that may edit
/// the benchmark.
pub fn simulate_counted(jobs: &[Job], kind: PolicyKind, cfg: &RunConfig) -> (RunResult, u64) {
    run(
        jobs,
        build_policy(kind, cfg.econ, cfg.nodes),
        cfg,
        RunOptions::default(),
    )
    .map(|o| (o.result, o.outcomes.len() as u64))
    .expect(UNBUDGETED)
}

/// [`run`] under `kind` with failures injected, plus the outcome-event
/// count. Kept only for `perfbench/`; delete it in the next change that may
/// edit the benchmark.
pub fn simulate_faulty_counted(
    jobs: &[Job],
    kind: PolicyKind,
    cfg: &RunConfig,
    fault: &FaultConfig,
) -> (RunResult, u64) {
    run(
        jobs,
        build_policy(kind, cfg.econ, cfg.nodes),
        cfg,
        RunOptions {
            fault: Some(fault),
            ..RunOptions::default()
        },
    )
    .map(|o| (o.result, o.outcomes.len() as u64))
    .expect(UNBUDGETED)
}

/// [`run`] with a fault and a budget, plus the outcome-event count; `_name`
/// is ignored (the telemetry label is [`Policy::name`]). Kept only for
/// `perfbench/`; delete it in the next change that may edit the benchmark.
pub fn simulate_guarded_with(
    jobs: &[Job],
    policy: Box<dyn Policy>,
    cfg: &RunConfig,
    _name: &str,
    fault: Option<&FaultConfig>,
    budget: RunBudget,
) -> Result<(RunResult, u64), BudgetExceeded> {
    run(
        jobs,
        policy,
        cfg,
        RunOptions {
            fault,
            budget,
            observer: None,
        },
    )
    .map(|o| (o.result, o.outcomes.len() as u64))
}

/// Panic message for runs whose [`RunBudget`] is unlimited.
pub(crate) const UNBUDGETED: &str = "unbudgeted runs cannot exceed a budget";

/// The optional layers of one [`run`]. `Default` turns all of them off.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Node failures to inject (see [`FaultConfig`]); `None` runs on a
    /// cluster that never fails. Panics in [`run`] if the config fails
    /// [`FaultConfig::validate`]; CLIs should validate first.
    pub fault: Option<&'a FaultConfig>,
    /// Cooperative watchdog bounds (see [`crate::budget`]);
    /// [`RunBudget::unlimited`] runs without a watchdog.
    pub budget: RunBudget,
    /// Receives every [`Outcome`] as the run produces it (see
    /// [`RunObserver`]).
    pub observer: Option<&'a mut dyn RunObserver>,
}

/// Everything one [`run`] produces.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Metrics, per-job records and the ledger.
    pub result: RunResult,
    /// The reconciled outcome stream the result was folded from; its length
    /// is the run's event count. The trace layer ([`crate::trace`]) and the
    /// invariant checker ([`crate::check_run`]) are passes over it.
    pub outcomes: Vec<Outcome>,
}

/// Drain-phase safety valve: after this many *consecutive* failure events
/// delivered while the queue never shrinks and the policy never gains an
/// internal event, conclude the weather can no longer unblock the queued
/// work and stop delivering. This is how a degenerate renewal process (for
/// example every node down at t = 0 with astronomically long repairs, so
/// the cluster never again has enough simultaneously-up nodes for a wide
/// job) terminates with defined metrics: the still-queued jobs simply stay
/// accepted-but-unfulfilled, which `collect` scores like any other unmet
/// SLA. Legitimate runs reset the counter on every sign of progress, and
/// even a pathological-but-convergent case (say a 16-wide job on a cluster
/// at 76 % per-node availability) is expected to move its queue within a
/// few hundred events — five orders of magnitude under this cap.
const DRAIN_STAGNATION_CAP: u64 = 100_000;

/// Hard backstop on *total* failure events delivered during the drain, for
/// adversarial policies that feign progress (e.g. leak a fresh internal
/// event per delivery) without ever emptying their queue. Breaking out —
/// not panicking — keeps the run's metrics defined either way.
const DRAIN_FAILURE_EVENT_CAP: u64 = 10_000_000;

/// Simulates `jobs` (must be sorted by submit time) under `policy`: the one
/// run driver every entry point, trace and check goes through. The
/// per-policy telemetry series is labelled with [`Policy::name`].
///
/// **Byte identity.** `fault` is the only option that changes the
/// simulation, and `fault: None` takes the failure-free path, outcome for
/// outcome identical to the simulator before fault injection existed. The
/// other two options only add work beside the simulation, never inside it,
/// so [`RunOutput`] is identical with them on or off:
/// - `budget` ticks a watchdog once per driver step (each submission,
///   failure delivery and drain advance) and cancels the run into
///   [`BudgetExceeded`] the moment a bound trips. The budgeted drain steps
///   event by event, instead of one blanket [`Policy::drain`], so a policy
///   whose event horizon never empties is caught between events rather
///   than hanging inside the policy; for well-behaved policies the stepped
///   drain processes the same events in the same order. An unlimited budget
///   creates no watchdog and keeps the blanket drain.
/// - `observer` is fed the outcomes appended since the last driver step;
///   it only reads them. With `None` the watermark bookkeeping is a single
///   `usize` store per step and no outcome is cloned, so the hot path is
///   untouched (pinned by the `stream_stats` bench and the perf-snapshot
///   hashes). The observer sees the raw live stream, *before* the fault
///   reconciliation post-pass rewrites it: restarts still look like
///   re-acceptances (see [`RunObserver`]).
///
/// Instrumentation never feeds back into simulation state either, so
/// results are also identical whether or not the `telemetry` or `profile`
/// features are compiled in. The policy (and with it any DES event queues
/// it owns) is dropped *before* this returns, so a kernel-span capture
/// window opened around the call observes the queue-stat flushes.
pub fn run(
    jobs: &[Job],
    mut policy: Box<dyn Policy>,
    cfg: &RunConfig,
    opts: RunOptions<'_>,
) -> Result<RunOutput, BudgetExceeded> {
    let RunOptions {
        fault,
        budget,
        mut observer,
    } = opts;
    let name = policy.name();
    // Feeds `out[*fed..]` — the outcomes appended since the last call — to
    // the observer, in stream order.
    fn feed(observer: &mut Option<&mut dyn RunObserver>, out: &[Outcome], fed: &mut usize) {
        if let Some(obs) = observer.as_deref_mut() {
            for o in &out[*fed..] {
                obs.on_outcome(o);
            }
        }
        *fed = out.len();
    }
    let mut fed: usize = 0;
    let _run_span = ccs_telemetry::TimerGuard::start_labeled("runner.run.duration_ns", name);
    // Phase attribution (no-op unless the `profile` feature is on): the
    // whole driver is the `run` phase; admission / dispatch / fault /
    // collect below are its children. Self-time on `run` itself is driver
    // overhead (loop bookkeeping, watchdog ticks, observer feeding).
    let _phase_run = ccs_telemetry::profile::enter("run");
    let mut faults = fault.map(|f| {
        f.validate()
            .unwrap_or_else(|e| panic!("invalid FaultConfig: {e}"));
        FaultDriver::new(jobs, f, cfg.nodes)
    });
    let mut watchdog = (!budget.is_unlimited()).then(|| Watchdog::new(budget));
    let mut out: Vec<Outcome> = Vec::with_capacity(jobs.len() * 4);
    let mut prev_submit = f64::NEG_INFINITY;
    for job in jobs {
        assert!(
            job.submit >= prev_submit,
            "jobs must be sorted by submit time"
        );
        prev_submit = job.submit;
        if let Some(wd) = watchdog.as_mut() {
            wd.tick()?;
        }
        if let Some(fd) = faults.as_mut() {
            let _phase = ccs_telemetry::profile::enter("fault");
            fd.deliver_until(job.submit, policy.as_mut(), &mut out);
        }
        {
            let _phase = ccs_telemetry::profile::enter("dispatch");
            policy.advance_to(job.submit, &mut out);
        }
        let _decision_span =
            ccs_telemetry::TimerGuard::start_labeled("runner.decision.duration_ns", name);
        {
            let _phase = ccs_telemetry::profile::enter("admission");
            policy.on_submit(job, job.submit, &mut out);
        }
        if ccs_telemetry::profile::PROFILE_ENABLED {
            ccs_telemetry::profile::depth(policy.queued_jobs() as u64);
        }
        feed(&mut observer, &out, &mut fed);
    }
    if let Some(fd) = faults.as_mut() {
        // Drain under failures: merge the policy's internal events with the
        // failure timeline in time order. Once the policy has no internal
        // events left but still holds queued jobs, only future repairs can
        // free them — keep delivering failure events until the queue moves
        // or empties.
        let mut delivered: u64 = 0;
        let mut stagnant: u64 = 0;
        let mut last_queued = usize::MAX;
        loop {
            feed(&mut observer, &out, &mut fed);
            if let Some(wd) = watchdog.as_mut() {
                wd.tick()?;
            }
            match (policy.next_event_time(), fd.peek_time()) {
                (Some(t), Some(f)) if f <= t => {
                    stagnant = 0;
                    last_queued = usize::MAX;
                    let _phase = ccs_telemetry::profile::enter("fault");
                    fd.deliver_next(policy.as_mut(), &mut out);
                }
                (Some(t), _) => {
                    stagnant = 0;
                    last_queued = usize::MAX;
                    let _phase = ccs_telemetry::profile::enter("dispatch");
                    policy.advance_to(t, &mut out);
                }
                (None, Some(_)) if policy.queued_jobs() > 0 => {
                    let queued = policy.queued_jobs();
                    if queued < last_queued {
                        stagnant = 0;
                    }
                    last_queued = queued;
                    stagnant += 1;
                    delivered += 1;
                    if stagnant >= DRAIN_STAGNATION_CAP || delivered >= DRAIN_FAILURE_EVENT_CAP {
                        // Futile weather — give up on the queued jobs; they
                        // are scored as accepted-but-unfulfilled below.
                        break;
                    }
                    let _phase = ccs_telemetry::profile::enter("fault");
                    fd.deliver_next(policy.as_mut(), &mut out);
                }
                _ => break,
            }
        }
    }
    if watchdog.is_some() {
        // Budgeted drain: advance one event horizon at a time so the
        // watchdog interposes between events. A policy whose
        // `next_event_time` never runs dry is cancelled here instead of
        // spinning inside a blanket `drain`.
        while let Some(t) = policy.next_event_time() {
            if let Some(wd) = watchdog.as_mut() {
                wd.tick()?;
            }
            {
                let _phase = ccs_telemetry::profile::enter("dispatch");
                policy.advance_to(t, &mut out);
            }
            feed(&mut observer, &out, &mut fed);
        }
    }
    {
        let _phase = ccs_telemetry::profile::enter("dispatch");
        policy.drain(&mut out);
        drop(policy);
    }
    feed(&mut observer, &out, &mut fed);
    let _phase_collect = ccs_telemetry::profile::enter("collect");
    if faults.is_some() {
        reconcile_fault_outcomes(&mut out);
    }
    let result = collect(jobs, cfg, &out);
    if ccs_telemetry::ENABLED {
        let t = ccs_telemetry::global();
        t.counter("runner.jobs.submitted")
            .add(result.metrics.submitted as u64);
        t.counter("runner.jobs.accepted")
            .add(result.metrics.accepted as u64);
        // Saturating: a broken policy that accepts a job twice (the chaos
        // fixtures) can push `accepted` past `submitted`.
        let m = &result.metrics;
        let rejected = m.submitted.saturating_sub(m.accepted);
        t.counter("runner.jobs.rejected").add(rejected as u64);
        t.counter("runner.jobs.fulfilled")
            .add(result.metrics.fulfilled as u64);
        t.counter("runner.runs.completed").inc();
    }
    Ok(RunOutput {
        result,
        outcomes: out,
    })
}

/// Owns the failure timeline of one run and delivers its events to the
/// policy, translating each preemption into a restart or an abort.
struct FaultDriver<'a> {
    cfg: &'a FaultConfig,
    process: FailureProcess,
    /// Restart attempts consumed per job. Lookup-only maps throughout the
    /// driver take the deterministic integer hasher; none is ever iterated,
    /// so outputs are unaffected.
    attempts: FastHashMap<JobId, u32>,
    /// Original (as-submitted) jobs, for rebuilding resubmissions.
    by_id: FastHashMap<JobId, &'a Job>,
    /// One-event lookahead: an already-popped event whose kind broke the
    /// current same-time run; it heads the next delivery.
    pending: Option<NodeFailureEvent>,
    /// Pooled node-id scratch for batched same-time dispatch.
    nodes_scratch: Vec<u32>,
}

impl<'a> FaultDriver<'a> {
    fn new(jobs: &'a [Job], cfg: &'a FaultConfig, nodes: u32) -> Self {
        FaultDriver {
            cfg,
            process: FailureProcess::new(cfg.seed, cfg.mtbf, cfg.mttr, nodes),
            attempts: FastHashMap::default(),
            by_id: jobs.iter().map(|j| (j.id, j)).collect(),
            pending: None,
            nodes_scratch: Vec::new(),
        }
    }

    fn peek_time(&mut self) -> Option<f64> {
        match self.pending {
            Some(ev) => Some(ev.t),
            None => self.process.peek_time(),
        }
    }

    /// Delivers every failure event at or before `t`, in time order,
    /// batching each maximal run of equal-time same-kind events into one
    /// policy hook call.
    fn deliver_until(&mut self, t: f64, policy: &mut dyn Policy, out: &mut Vec<Outcome>) {
        while self.peek_time().is_some_and(|ft| ft <= t) {
            self.deliver_next(policy, out);
        }
    }

    /// Delivers the next failure run (the process is an unending renewal,
    /// so one always exists): the next event plus every immediately
    /// following event sharing its timestamp and kind, dispatched through
    /// the policy's batch hooks. With the continuous inter-event
    /// distributions sampled here a run is almost surely a single event, so
    /// this is byte-for-byte the scalar delivery — the batching pays off
    /// under injected simultaneous storms (chaos reproducers, tests).
    fn deliver_next(&mut self, policy: &mut dyn Policy, out: &mut Vec<Outcome>) {
        let first = self
            .pending
            .take()
            .unwrap_or_else(|| self.process.pop().expect("renewal process never ends"));
        let mut nodes = std::mem::take(&mut self.nodes_scratch);
        nodes.clear();
        nodes.push(first.node);
        while self.process.peek_time() == Some(first.t) {
            let ev = self.process.pop().expect("peeked event must pop");
            if ev.kind == first.kind {
                nodes.push(ev.node);
            } else {
                self.pending = Some(ev);
                break;
            }
        }
        self.deliver_run(first.t, first.kind, &nodes, policy, out);
        self.nodes_scratch = nodes;
    }

    fn deliver_run(
        &mut self,
        t: f64,
        kind: FailureEventKind,
        nodes: &[u32],
        policy: &mut dyn Policy,
        out: &mut Vec<Outcome>,
    ) {
        // Let completions strictly before the failure happen first.
        policy.advance_to(t, out);
        match kind {
            FailureEventKind::Fail => {
                for &node in nodes {
                    out.push(Outcome::NodeFailed { node, at: t });
                }
                let interruptions = policy.on_nodes_fail(nodes, t, out);
                for i in interruptions {
                    out.push(Outcome::Interrupted { job: i.job, at: t });
                    let attempts = self.attempts.entry(i.job).or_insert(0);
                    if *attempts < self.cfg.max_restarts {
                        *attempts += 1;
                        let job = resubmission(self.by_id[&i.job], &i, t, self.cfg.degradation);
                        // The policy re-runs admission (deadline feasibility
                        // on today's — possibly shrunken — cluster); its
                        // accept/reject is rewritten to Restarted/Aborted by
                        // `reconcile_fault_outcomes`.
                        policy.on_submit(&job, t, out);
                    } else {
                        out.push(Outcome::Aborted { job: i.job, at: t });
                    }
                }
            }
            FailureEventKind::Repair => {
                for &node in nodes {
                    out.push(Outcome::NodeRepaired { node, at: t });
                }
                policy.on_nodes_repair(nodes, t, out);
            }
        }
    }
}

/// Builds the job handed back to admission after an interruption at `now`.
/// The deadline stays the *original* absolute deadline (`submit + deadline`
/// of the first submission) — an SLA does not stretch because the provider's
/// node died — so the relative deadline can come out negative, in which case
/// admission rejects and the job is aborted.
fn resubmission(original: &Job, i: &Interruption, now: f64, degradation: Degradation) -> Job {
    let mut job = *original;
    job.submit = now;
    job.deadline = original.submit + original.deadline - now;
    match degradation {
        Degradation::Restart => {} // full runtime and estimate all over again
        Degradation::ResumePenalty { penalty } => {
            let remaining = i.remaining_work.max(0.0);
            let fraction = if original.runtime > 0.0 {
                (remaining / original.runtime).clamp(0.0, 1.0)
            } else {
                1.0
            };
            job.runtime = (remaining * (1.0 + penalty)).max(1e-6);
            job.estimate =
                (original.estimate * fraction * (1.0 + penalty)).max(job.runtime.min(1.0));
        }
    }
    job
}

/// Post-pass over the outcome stream of a faulty run: any accept/reject
/// decision *after* a job's first interruption is really a restart/abort.
/// (Done after the fact because backfill policies may defer decisions, so
/// the resubmission's outcome is not necessarily pushed inside
/// [`FaultDriver::deliver`].)
fn reconcile_fault_outcomes(out: &mut [Outcome]) {
    let mut interrupted: FastHashSet<JobId> = FastHashSet::default();
    for o in out.iter_mut() {
        match *o {
            Outcome::Interrupted { job, .. } => {
                interrupted.insert(job);
            }
            Outcome::Accepted { job, at } if interrupted.contains(&job) => {
                *o = Outcome::Restarted { job, at };
            }
            Outcome::Rejected { job, at, .. } if interrupted.contains(&job) => {
                *o = Outcome::Aborted { job, at };
            }
            _ => {}
        }
    }
}

/// Folds the outcome stream into metrics and per-job records.
fn collect(jobs: &[Job], cfg: &RunConfig, out: &[Outcome]) -> RunResult {
    // Both maps are looked up by id and finally drained in job order —
    // never iterated — so the fast hasher cannot reorder anything.
    let by_id: FastHashMap<JobId, &Job> = jobs.iter().map(|j| (j.id, j)).collect();
    let mut records: FastHashMap<JobId, JobRecord> =
        FastHashMap::with_capacity_and_hasher(jobs.len(), Default::default());
    let mut ledger = Ledger::new();

    let mut metrics = RunMetrics {
        submitted: jobs.len() as u32,
        budget_total: jobs.iter().map(|j| j.budget).sum(),
        ..Default::default()
    };

    for o in out {
        match *o {
            Outcome::Accepted { job, at } => {
                metrics.accepted += 1;
                let r = records.entry(job).or_insert_with(|| JobRecord {
                    id: job,
                    accepted: true,
                    decided_at: at,
                    started_at: None,
                    finished_at: None,
                    fulfilled: false,
                    utility: 0.0,
                });
                r.accepted = true;
                r.decided_at = at;
            }
            Outcome::Rejected { job, at, .. } => {
                let prev = records.insert(job, JobRecord::rejected(job, at));
                assert!(prev.is_none(), "job {job} decided twice");
                ledger.reject(job, by_id[&job].budget);
            }
            Outcome::Started { job, at } => {
                // `get_or_insert`: a restarted job keeps its *first* start,
                // the one Eq. 1 measures the wait to.
                records
                    .get_mut(&job)
                    .expect("started before accepted")
                    .started_at
                    .get_or_insert(at);
            }
            Outcome::Completed {
                job,
                start,
                finish,
                charged,
            } => {
                let j = by_id[&job];
                let fulfilled = j.fulfilled_by(finish);
                let utility = match cfg.econ {
                    EconomicModel::CommodityMarket => {
                        charged.expect("commodity completion must carry its charge")
                    }
                    EconomicModel::BidBased => bid_utility(j, finish),
                };
                metrics.utility_total += utility;
                metrics.delay_sum += j.delay_at(finish);
                ledger.complete(
                    cfg.econ,
                    job,
                    j.budget,
                    charged,
                    j.delay_at(finish),
                    j.penalty_rate,
                );
                let r = records.get_mut(&job).expect("completed before accepted");
                let first_start = *r.started_at.get_or_insert(start);
                if fulfilled {
                    metrics.fulfilled += 1;
                    metrics.wait_sum_fulfilled += (first_start - j.submit).max(0.0);
                }
                r.finished_at = Some(finish);
                r.fulfilled = fulfilled;
                r.utility = utility;
            }
            Outcome::Interrupted { .. } => metrics.interrupted += 1,
            Outcome::Restarted { job, .. } => {
                metrics.restarts += 1;
                debug_assert!(
                    records.contains_key(&job),
                    "restarted job {job} was never accepted"
                );
            }
            Outcome::Aborted { job, .. } => {
                // Accepted but never completing: the SLA is lost (hits
                // reliability, Eq. 3) and — a documented billing choice —
                // no invoice is issued: the provider earns nothing and the
                // client owes nothing for a job the provider's failure
                // killed.
                metrics.aborted += 1;
                let r = records.get_mut(&job).expect("aborted before accepted");
                r.finished_at = None;
                r.fulfilled = false;
            }
            Outcome::NodeFailed { .. } => metrics.node_failures += 1,
            Outcome::NodeRepaired { .. } => metrics.node_repairs += 1,
        }
    }

    debug_assert_eq!(
        records.len(),
        jobs.len(),
        "every job must be decided exactly once"
    );
    let mut ordered: Vec<JobRecord> = jobs
        .iter()
        .map(|j| {
            records
                .remove(&j.id)
                .unwrap_or_else(|| panic!("job {} has no outcome", j.id))
        })
        .collect();
    ordered.sort_by_key(|r| r.id);
    RunResult {
        metrics,
        records: ordered,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::LiveRunStats;
    use ccs_workload::Urgency;

    fn job(id: JobId, submit: f64, runtime: f64, deadline: f64, procs: u32, budget: f64) -> Job {
        Job {
            id,
            submit,
            runtime,
            estimate: runtime,
            procs,
            urgency: Urgency::Low,
            deadline,
            budget,
            penalty_rate: 1.0,
        }
    }

    #[test]
    fn single_job_commodity_run() {
        let jobs = vec![job(0, 0.0, 100.0, 1000.0, 4, 1000.0)];
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::CommodityMarket,
        };
        let res = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        assert_eq!(res.metrics.submitted, 1);
        assert_eq!(res.metrics.accepted, 1);
        assert_eq!(res.metrics.fulfilled, 1);
        assert_eq!(res.metrics.wait(), 0.0);
        assert_eq!(res.metrics.utility_total, 400.0); // 100 s × 4 procs × $1
        assert_eq!(res.metrics.sla_pct(), 100.0);
        assert!(res.records[0].fulfilled);
    }

    #[test]
    fn bid_based_pays_penalty_for_late_jobs() {
        // Two whole-machine jobs: the second starts late and misses its
        // deadline, dragging utility below its budget.
        let jobs = vec![
            job(0, 0.0, 100.0, 1000.0, 8, 500.0),
            job(1, 1.0, 100.0, 120.0, 8, 500.0),
        ];
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        // Job 1: est completion from queue = 100+100 = 200 > 1+120 -> the
        // generous admission control rejects it instead.
        assert_eq!(res.metrics.accepted, 1);
        assert_eq!(res.metrics.fulfilled, 1);
        assert_eq!(res.metrics.utility_total, 500.0);
    }

    #[test]
    fn bid_based_penalty_applies_when_underestimated() {
        // Job claims est 50 (fits deadline) but actually runs 200 -> late.
        let mut j = job(0, 0.0, 200.0, 100.0, 8, 500.0);
        j.estimate = 50.0;
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&[j], PolicyKind::FcfsBf, &cfg);
        assert_eq!(res.metrics.accepted, 1);
        assert_eq!(res.metrics.fulfilled, 0);
        // delay = 200 - 100 = 100 s at $1/s -> utility 400.
        assert_eq!(res.metrics.utility_total, 400.0);
        assert_eq!(res.metrics.delay_sum, 100.0);
        assert_eq!(res.metrics.reliability_pct(), 0.0);
    }

    #[test]
    fn every_policy_decides_every_job() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| job(i, i as f64 * 50.0, 200.0, 2000.0, 1 + (i % 8), 1e6))
            .collect();
        for econ in EconomicModel::ALL {
            let kinds = match econ {
                EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
                EconomicModel::BidBased => PolicyKind::BID_BASED,
            };
            for kind in kinds {
                let cfg = RunConfig { nodes: 16, econ };
                let res = simulate(&jobs, kind, &cfg);
                assert_eq!(res.records.len(), 50, "{kind} {econ}");
                let decided = res.records.iter().filter(|r| r.accepted).count() as u32;
                assert_eq!(decided, res.metrics.accepted, "{kind} {econ}");
                assert!(res.metrics.fulfilled <= res.metrics.accepted);
                assert!(res.metrics.accepted <= res.metrics.submitted);
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        let jobs: Vec<Job> = (0..30)
            .map(|i| job(i, i as f64 * 100.0, 500.0, 4000.0, 1 + (i % 4), 1e5))
            .collect();
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let a = simulate(&jobs, PolicyKind::Libra, &cfg);
        let b = simulate(&jobs, PolicyKind::Libra, &cfg);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn ledger_agrees_with_metrics() {
        let jobs: Vec<Job> = (0..25)
            .map(|i| job(i, i as f64 * 100.0, 300.0, 2000.0, 2, 5000.0))
            .collect();
        for econ in EconomicModel::ALL {
            let cfg = RunConfig { nodes: 8, econ };
            let kind = match econ {
                EconomicModel::CommodityMarket => PolicyKind::SjfBf,
                EconomicModel::BidBased => PolicyKind::EdfBf,
            };
            let res = simulate(&jobs, kind, &cfg);
            let st = res.ledger.statement();
            assert_eq!(st.invoices, 25);
            assert_eq!(st.rejected as u32, 25 - res.metrics.accepted);
            assert!(
                (st.net_revenue - res.metrics.utility_total).abs() < 1e-6,
                "{econ}: ledger {} vs metrics {}",
                st.net_revenue,
                res.metrics.utility_total
            );
            assert!((st.total_budget - res.metrics.budget_total).abs() < 1e-6);
        }
    }

    fn fault(seed: u64, mtbf: f64, mttr: f64) -> FaultConfig {
        FaultConfig::exponential(seed, mtbf, mttr)
    }

    /// [`run`] under `kind` with `fault` injected.
    fn faulty_run(
        jobs: &[Job],
        kind: PolicyKind,
        cfg: &RunConfig,
        fault: &FaultConfig,
    ) -> RunResult {
        let opts = RunOptions {
            fault: Some(fault),
            ..RunOptions::default()
        };
        let policy = build_policy(kind, cfg.econ, cfg.nodes);
        run(jobs, policy, cfg, opts).unwrap().result
    }

    #[test]
    fn options_never_change_the_run() {
        // Every option combination against the plain run: the fault sets
        // the weather, and neither the budget nor the observer may change
        // a byte of the result or the outcome log.
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 70.0, 500.0, 5000.0, 1 + (i % 6), 1e5))
            .collect();
        let storm = fault(13, 2500.0, 600.0);
        let generous = RunBudget {
            max_wall_secs: Some(600.0),
            max_events: Some(10_000_000),
        };
        for econ in EconomicModel::ALL {
            let kinds = match econ {
                EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
                EconomicModel::BidBased => PolicyKind::BID_BASED,
            };
            for kind in kinds {
                let cfg = RunConfig { nodes: 16, econ };
                for fault in [None, Some(&storm)] {
                    let base = RunOptions {
                        fault,
                        ..RunOptions::default()
                    };
                    let plain = run(&jobs, build_policy(kind, econ, cfg.nodes), &cfg, base)
                        .expect("unbudgeted");
                    let plain_json = serde_json::to_string(&plain.result).unwrap();
                    if fault.is_some() {
                        assert!(plain.result.metrics.node_failures > 0, "{kind}: no storm");
                    }
                    for budget in [RunBudget::unlimited(), generous] {
                        for observe in [false, true] {
                            let mut live = LiveRunStats::new(&jobs, &cfg);
                            let opts = RunOptions {
                                fault,
                                budget,
                                observer: observe.then_some(&mut live as &mut dyn RunObserver),
                            };
                            let row = format!("{kind} {econ} {fault:?} {budget:?} {observe}");
                            let out = run(&jobs, build_policy(kind, econ, cfg.nodes), &cfg, opts)
                                .expect(&row);
                            assert_eq!(
                                serde_json::to_string(&out.result).unwrap(),
                                plain_json,
                                "{row}"
                            );
                            assert_eq!(out.outcomes, plain.outcomes, "{row}");
                            if observe {
                                assert_eq!(live.metrics(), &plain.result.metrics, "{row}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distant_failures_leave_results_untouched() {
        // MTBF far beyond the simulated horizon: the fault-aware driver must
        // reproduce the plain run outcome for outcome.
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 80.0, 400.0, 4000.0, 1 + (i % 8), 1e5))
            .collect();
        for econ in EconomicModel::ALL {
            let kinds = match econ {
                EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
                EconomicModel::BidBased => PolicyKind::BID_BASED,
            };
            for kind in kinds {
                let cfg = RunConfig { nodes: 16, econ };
                let plain = simulate(&jobs, kind, &cfg);
                let faulty = faulty_run(&jobs, kind, &cfg, &fault(9, 1e15, 3600.0));
                assert_eq!(plain.records, faulty.records, "{kind} {econ}");
                assert_eq!(plain.metrics.objectives(), faulty.metrics.objectives());
                assert_eq!(faulty.metrics.node_failures, 0);
            }
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let jobs: Vec<Job> = (0..60)
            .map(|i| job(i, i as f64 * 50.0, 600.0, 6000.0, 1 + (i % 4), 1e5))
            .collect();
        for kind in [
            PolicyKind::FcfsBf,
            PolicyKind::Libra,
            PolicyKind::FirstReward,
        ] {
            let econ = if kind == PolicyKind::FcfsBf {
                EconomicModel::CommodityMarket
            } else {
                EconomicModel::BidBased
            };
            let cfg = RunConfig { nodes: 8, econ };
            let f = fault(3, 2000.0, 500.0);
            let a = faulty_run(&jobs, kind, &cfg, &f);
            let b = faulty_run(&jobs, kind, &cfg, &f);
            assert_eq!(a.records, b.records, "{kind}");
            assert_eq!(a.metrics.objectives(), b.metrics.objectives());
            assert!(a.metrics.node_failures > 0, "{kind}: fault rate too low");
        }
    }

    #[test]
    fn failures_interrupt_restart_and_abort() {
        // Aggressive failures on a small cluster: jobs get interrupted, some
        // restart, some abort, and the run-level invariants still hold.
        let jobs: Vec<Job> = (0..50)
            .map(|i| job(i, i as f64 * 100.0, 800.0, 8000.0, 1 + (i % 4), 1e5))
            .collect();
        for kind in [PolicyKind::EdfBf, PolicyKind::Libra] {
            let cfg = RunConfig {
                nodes: 8,
                econ: EconomicModel::BidBased,
            };
            let res = faulty_run(&jobs, kind, &cfg, &fault(11, 1500.0, 2000.0));
            let m = &res.metrics;
            assert_eq!(res.records.len(), jobs.len(), "{kind}");
            assert!(m.node_failures > 0 && m.node_repairs > 0, "{kind}");
            assert!(m.interrupted > 0, "{kind}: nothing interrupted");
            assert!(m.restarts + m.aborted > 0, "{kind}");
            assert!(m.restarts + m.aborted >= m.interrupted.min(1), "{kind}");
            assert!(m.fulfilled <= m.accepted && m.accepted <= m.submitted);
            // Aborted jobs are accepted-but-unfinished records.
            let unfinished = res
                .records
                .iter()
                .filter(|r| r.accepted && r.finished_at.is_none())
                .count() as u32;
            assert_eq!(unfinished, m.aborted, "{kind}");
            for v in m.objectives() {
                assert!(v.is_finite(), "{kind}: objective {v}");
            }
        }
    }

    #[test]
    fn resume_penalty_beats_restart_under_failures() {
        // Resuming with a small penalty can only shorten reruns compared to
        // restarting from scratch, so total fulfilled work should not drop.
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 150.0, 1000.0, 15000.0, 2, 1e5))
            .collect();
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::CommodityMarket,
        };
        let mut restart = fault(5, 3000.0, 500.0);
        restart.degradation = Degradation::Restart;
        let mut resume = restart;
        resume.degradation = Degradation::ResumePenalty { penalty: 0.1 };
        let a = faulty_run(&jobs, PolicyKind::FcfsBf, &cfg, &restart);
        let b = faulty_run(&jobs, PolicyKind::FcfsBf, &cfg, &resume);
        assert!(a.metrics.interrupted > 0);
        assert!(
            b.metrics.fulfilled >= a.metrics.fulfilled,
            "resume {} vs restart {}",
            b.metrics.fulfilled,
            a.metrics.fulfilled
        );
    }

    #[test]
    #[should_panic(expected = "invalid FaultConfig")]
    fn invalid_fault_config_panics_with_named_field() {
        let jobs = vec![job(0, 0.0, 10.0, 100.0, 1, 1.0)];
        let mut f = fault(1, 100.0, 10.0);
        f.mtbf = ccs_des::FailureDist::Exponential { mean: f64::NAN };
        faulty_run(&jobs, PolicyKind::FcfsBf, &RunConfig::default(), &f);
    }

    #[test]
    #[should_panic]
    fn unsorted_jobs_panic() {
        let jobs = vec![
            job(0, 100.0, 10.0, 100.0, 1, 1.0),
            job(1, 0.0, 10.0, 100.0, 1, 1.0),
        ];
        let cfg = RunConfig::default();
        simulate(&jobs, PolicyKind::FcfsBf, &cfg);
    }
}
