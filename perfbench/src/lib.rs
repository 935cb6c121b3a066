//! # ccs-perfbench — the study's end-to-end and per-layer benchmark
//!
//! One command, run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_study|backfill_sweep|failure_storm|all \
//!     --seed 42 --seconds 45 --trace 0|1 [--trace-out FILE] [--smoke]
//! ```
//!
//! Every workload is a closed batch: a fixed set of cells drained by a
//! pool of [`workloads::THREADS`] (2) threads, with no arrival schedule.
//! The seed (default 42) drives the synthetic SP2 trace, its QoS
//! annotation and the failure weather; the simulator receives only the
//! generated jobs. The output is a host fingerprint line, one line per
//! metric (name, value, unit) and, last, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! The exit code is 0 when the correctness gate passed, 1 when it did not
//! (the result is still printed), 2 on a usage error.
//!
//! ## Workloads
//!
//! - `paper_study`: the job users run. `ccs_experiments::run_evaluation`
//!   at the default configuration (5000 jobs, 128 nodes, 1560 cells,
//!   2 threads), then the artifact pass of `utility_risk all` (tables and
//!   figures rendered, figure files, `report.md`, `evaluation.json`, the
//!   results store) into a temporary directory. Libra admission and the
//!   proportional-share (PS) recompute do most of its work; its median
//!   cell is a backfill cell and its tail a Libra cell.
//! - `backfill_sweep`: the same 13 scenarios × 6 values × both economic
//!   models × both estimate sets, with only the space-shared policies
//!   (FCFS-BF, SJF-BF, EDF-BF, FirstReward): 936 cells through
//!   `ccs_simsvc::simulate_counted` / `simulate_faulty_counted` on the
//!   pool, job streams synthesised during set-up. It never touches
//!   `PsCluster` or Libra admission: the event kernel, runner, economy and
//!   EASY backfill do its work, which is only about 9 % of
//!   `paper_study`'s cell time. A Libra-only change must read "no change"
//!   here.
//! - `failure_storm`: the failure-rate scenario's five nonzero rates
//!   (0.25–4 failures per node-week) × both models × both sets × each
//!   model's five policies: 100 cells, each a 4-replica fault-seed
//!   ensemble through `ccs_experiments::run_cell_ensemble` with its
//!   replicas on the pool, cells one after another. Node failures and
//!   repairs drive the policies' failure hooks, capacity reclamation,
//!   interrupt/restart, and the replica pool instead of the grid pool. An
//!   admission cache that failures invalidate pays that cost here.
//!
//! `BENCHMARK.json` lists `paper_study` and `failure_storm` only.
//! `backfill_sweep` is too unsteady on the reference host for the
//! benchmark's 25 % bounds: over ten seeds its run-to-run spread (IQR ÷
//! median) was 21–31 % for `wall_s` and 30–53 % for `cell_ms.tail`, where
//! the other two workloads stayed within 4–14 %. Its 5 ms cells each
//! allocate and release about 1.3 MB (≈330 fresh-page faults, 11 % of its
//! CPU in the kernel against 0.7 % for `failure_storm`), which makes it
//! sensitive to memory contention from other tenants. Run it by name to
//! check that a Libra-only change leaves it unchanged.
//!
//! ## End-to-end metrics (untraced run, `--trace 0`)
//!
//! Set-up runs three times before the timed passes and three times after
//! each pass, and `setup_s` is the median of them all: three set-ups back
//! to back sample the host's speed at one moment, and it drifts by about
//! 20 % over seconds. Timed passes repeat while the next one is expected
//! to end within `--seconds` (at least one runs; a `paper_study` pass is
//! longer than half the 45 s budget, so it runs once); each metric is the
//! median over the passes, and a cell's time is its median over the
//! passes before the percentiles are taken.
//!
//! - `wall_s` (s): wall-clock time of one pass.
//! - `sim_jobs_per_s` (1/s): simulated jobs (cells × trace jobs ×
//!   replicas) per wall second, at 5000 jobs per trace.
//! - `cpu_s` (s): user + system CPU of the process during a pass. A
//!   scheduling change moves `wall_s` only; less work moves both.
//! - `cell_ms.tail` (ms): the highest percentile of cell time with at
//!   least 10 cells beyond it: p99 of 1560 cells, p98 of 936, p90 of 100.
//!   The percentile and count used are printed on the line before.
//! - `peak_rss_mb` (MiB): peak resident memory (`VmHWM`) at the end of
//!   the run. Work moved into caches shows here.
//! - `ok_cell_ratio` (ratio): 1 − failed cells ÷ cells attempted, where a
//!   cell fails when it errors, yields a non-finite objective, or belongs
//!   to a pass whose digest differs from the first pass. It is the
//!   complement of a failed-cell ratio, which would read 0 on every good
//!   run; the raw counts are the result's `attempted` and `failed`.
//! - `setup_s` (s): one set-up: the pinned-digest check (which is also
//!   the warm-up) and the workload's trace and stream synthesis. The time
//!   from process start to the first timed call is printed too.
//!
//! `cell_ms.p50`, the median cell time, is printed on the summary line
//! above the metrics but is not in the result line, because it is too
//! unsteady for a 25 % bound. On `failure_storm` 60 of the 100 cells are
//! short backfill ensembles (4–35 ms) and the median is one of them; like
//! `backfill_sweep`'s cells they are allocation-heavy, so memory contention
//! from other tenants slows them more than the Libra cells that set
//! `wall_s`. Two sets of ten seeds on a busy host spread by 30 % and 43 %
//! (IQR ÷ median) on it while `wall_s` stayed within its bound; on the
//! quiet reference host a streaming-copy load beside one run raised it by
//! 43 % and `wall_s` by 23 %.
//!
//! ## Correctness gate
//!
//! Set-up reruns the two pinned seed-42, 60-job, 2-thread quick grids and
//! compares their FNV-1a digests over raw objective bits with the
//! release snapshot constants ([`digest::PINNED`]); a drift aborts the
//! run (exit 1). Every timed pass must reproduce the first pass's
//! per-grid digests, and the traced pass the untraced one's, with zero
//! cell errors. The traced run also runs `ccs_simsvc::simulate_checked`,
//! outside every timer, on every `failure_storm` replica and on every
//! 13th cell of the other workloads; a violation fails the cell.
//!
//! ## Per-layer metrics (traced run, `--trace 1`)
//!
//! The traced run is separate from the timed runs. It makes an untraced
//! reference pass, then a decorated pass in which every cell (every
//! replica, for `failure_storm`) runs `build_policy(..)` wrapped in
//! [`traced::TimedPolicy`] through `ccs_simsvc::simulate_guarded_with(..,
//! kind.name(), fault, RunBudget::unlimited())`. For `paper_study` the
//! decorated cells are folded back into grids, analysed and written out
//! by the artifact pass. Layers are timed from outside, by timing calls
//! into each crate's public functions; the decorator sums hook time per
//! cell rather than storing a span per call. Metrics a workload does not
//! exercise read 0.
//!
//! - `workload`: `workload.generate_s` (`SdscSp2Model::generate`),
//!   `workload.apply_scenario_s` (one call per distinct transform).
//! - `experiments`: `experiments.run_grid_s` (the reference pass's four
//!   `run_grid_with_base` calls, `paper_study`), `pool_busy_ratio`
//!   (Σ worker busy ÷ (threads × pool wall): the grid pool for
//!   `paper_study`, the sweep pool for `backfill_sweep`), `pool_idle_s`,
//!   `workload_cache_hit_ratio` (grid workload memo, `paper_study`),
//!   `ensemble_busy_ratio` (process CPU ÷ (threads × wall) over the
//!   reference `run_cell_ensemble` calls, `failure_storm`), `report_s`
//!   (the artifact pass, `paper_study`).
//! - `risk`: `risk.analyze_s` (the four `analyze` calls, `paper_study`).
//! - `simsvc`: `simsvc.run_s` (Σ `simulate_guarded_with`), `simsvc.self_s`
//!   (`run_s` minus policy-hook time; it also covers the `des` kernel and
//!   `economy` accounting, which cannot be split from outside),
//!   `simsvc.events` (outcome events), `simsvc.events_per_s`.
//! - `policies` (including the cluster model each policy owns), for `p` in
//!   `fcfs_bf sjf_bf edf_bf first_reward libra libra_dollar libra_riskd`:
//!   `policies.<p>.submit_s`, `.advance_s` (`advance_to` +
//!   `next_event_time`), `.fault_s` (scalar and batch failure/repair
//!   hooks), `.drain_s`, `.submits`, `.accept_ratio` (`Accepted` outcomes
//!   from any hook ÷ submits; backfilling policies accept when a job
//!   starts) and `.interruptions`.
//! - `trace.wall_s`, `trace.untraced_wall_s` and `trace.overhead_s`
//!   (traced minus untraced pass wall); `gate.checked_cells`.
//!
//! ## Which end-to-end metric each layer metric should move, and where
//!
//! - `policies.libra*.submit_s` (Libra admission, 70 % of grid CPU by the
//!   phase profile): `cpu_s`, `wall_s` and `cell_ms.tail` on
//!   `paper_study` and `failure_storm`; no change on `backfill_sweep`.
//! - `policies.libra*.advance_s` (PS share recompute, 19 %): `cpu_s` and
//!   `wall_s` on `paper_study` and `failure_storm`; no change on
//!   `backfill_sweep`.
//! - `simsvc.self_s`, `simsvc.events_per_s` and the
//!   `policies.{fcfs_bf,sjf_bf,edf_bf,first_reward}.*` metrics:
//!   `sim_jobs_per_s` and the printed `cell_ms.p50` on `backfill_sweep`,
//!   and the printed `cell_ms.p50` on `paper_study`; within noise for
//!   `paper_study` `wall_s`.
//! - `policies.*.fault_s` and `.interruptions`: `wall_s` and
//!   `cell_ms.tail` on `failure_storm`; close to zero elsewhere.
//! - `experiments.pool_busy_ratio` and `pool_idle_s`: a straggling Libra
//!   cell at the end of a pass moves `wall_s` but not `cpu_s` on
//!   `paper_study`. `experiments.ensemble_busy_ratio` plays the same role
//!   for `failure_storm`.
//! - `workload.*` and `experiments.workload_cache_hit_ratio`: `setup_s`,
//!   and `wall_s` on `paper_study`, where synthesis is 0.3 %.
//! - `risk.analyze_s` and `experiments.report_s`: `paper_study` `wall_s`
//!   only. Together they cost about 17 ms (the artifact pass 16.5 ms, the
//!   four analyses under 0.1 ms) and are recorded so a regression shows.
//!
//! ## Baseline on the reference host
//!
//! Host: a 2-vCPU "Intel(R) Xeon(R) Processor" VM (nproc 2), rustc
//! 1.95.0, release profile (fat LTO), telemetry and phase profiler
//! compiled out, parent revision `50b3bb3`. Medians over ten seeds
//! (301–310, `--seconds 45`), with the ten-seed spread (IQR ÷ median) of
//! that set and, after the slash, of a second set (seeds 401–410) run
//! twenty minutes later:
//!
//! | metric | `paper_study` | `failure_storm` |
//! |---|---|---|
//! | `wall_s` | 33.7 s (8 / 21 %) | 12.9 s (10 / 11 %) |
//! | `cpu_s` | 65.6 s (9 / 20 %) | 24.0 s (10 / 14 %) |
//! | `sim_jobs_per_s` | 231 k/s (9 / 23 %) | 155 k/s (9 / 11 %) |
//! | `cell_ms.p50` (printed only) | 8.76 ms (7 / 21 %) | 21.6 ms (9 / 10 %) |
//! | `cell_ms.tail` | 223 ms, p99 of 1560 (11 / 17 %) | 354 ms, p90 of 100 (11 / 14 %) |
//! | `peak_rss_mb` | 30.2 MiB (2 / 3 %) | 16.8 MiB (2 / 5 %) |
//! | `setup_s` | 0.10 s | 0.11 s |
//!
//! `backfill_sweep` (seeds 201–210, `--seconds 30`): `wall_s` 2.74 s,
//! `cpu_s` 5.45 s, 1.71 M jobs/s, `cell_ms.p50` 5.2 ms, `cell_ms.tail`
//! 12.5 ms (p98 of 936), 76.5 MiB, `setup_s` 0.24 s.
//!
//! Traced, seed 42: in `paper_study`'s decorated pass the Libra family
//! holds 89 % of self time (Libra 45 %, LibraRiskD 25 %, Libra+$ 19 %),
//! the backfilling policies 7 % and the runner (`simsvc` self) 3.5 %;
//! Libra's admission (`submit_s` 18.1 s) outweighs its share recompute
//! (`advance_s` 4.9 s) about 4 to 1. The tracing overhead was −0.33 s on
//! `paper_study` and −0.04 s on `failure_storm` (within noise) and
//! +0.36 s (17 %) on `backfill_sweep`, whose hooks are densest in time.
//!
//! The host's speed drifts, and that drift, not the seed, sets the
//! spreads above: the same seed run twice swapped places between a fast
//! and a slow run, passes over identical inputs within one run ranged
//! from 2.2 to 3.4 s for `backfill_sweep`, and in the second set the
//! first five `paper_study` runs took 27–32 s and the last five 35–37 s.
//! A set of runs that straddles such a change spreads by about 20 %;
//! the medians of the two sets agree within 1 % (33.7 and 33.4 s). A
//! third set (seeds 501–510), run entirely in a slow phase, read 36.4 s
//! and 14.1 s, 8–9 % above the first, with spreads of 3–12 %.
//!
//! ## Reading the self-time table and the trace
//!
//! The traced run prints a table over set-up and the decorated pass: per
//! layer, the span count, the summed span time, and the self time (a
//! span's duration minus the part of its interval its children cover, on
//! any thread) with its share of all self time. `bench` is the
//! benchmark's own harness (pass, grid and cell spans; its self time is
//! harness overhead plus moments when no pool thread runs a cell),
//! `simsvc` is the runner's self time, and `policies.<name>` the summed
//! hook time. Pool threads run in parallel, so self times add up to
//! thread-seconds, not wall seconds.
//!
//! The trace (`--trace-out`, default
//! `.perfbench_out/trace-<workload>-seed<seed>.json`) is Chrome-trace
//! JSON for `chrome://tracing` or Perfetto: thread 0 is the main thread,
//! threads 1–2 the pool. Cell spans are named
//! `econ/set/scenario/value/policy[/replica]`; each holds one
//! `simulate_guarded_with` span, which holds one `policies` span whose
//! length is the cell's summed hook time (it starts with the simulate
//! call, but the hooks are interleaved with runner work, so only its
//! length is meaningful; its args split it by hook). The reference pass
//! is in the trace too, as an `untraced pass` span (for `paper_study`
//! with its `run_grid` and `analyze` children), but not in the table.
//! Every span carries its `id` and `parent`.
//!
//! ## Not measured
//!
//! - `des`, `cluster` and `economy` are not split out: from outside they
//!   are inside `simsvc.self_s` and the policy hooks. They need spans
//!   inside the program, which is later work.
//! - The `--workers` / `--remote` supervisor path is not a workload: the
//!   roadmap plans to delete it, and it made nothing faster on this host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod host;
pub mod run;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
