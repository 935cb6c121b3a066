//! One untraced benchmark run: set-up, timed passes, the correctness gate,
//! and the end-to-end metrics.

use crate::digest::check_pinned;
use crate::stats::{median, tail, Tail};
use crate::workloads::{prepare, run_pass, Options, Pass, Prepared, Workload};
use std::path::Path;
use std::time::Instant;

/// Set-up repetitions before the timed passes, and again after each pass;
/// `setup_s` is the median of them all.
const SETUP_REPEATS: usize = 3;

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit (`s`, `ms`, `1/s`, …).
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What an untraced run measured.
#[derive(Debug)]
pub struct Measured {
    /// Duration of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Seconds from process start to the first timed call.
    pub first_call_s: f64,
    /// The timed passes.
    pub passes: Vec<Pass>,
    /// Passes whose digest differed from the first pass.
    pub mismatched: Vec<usize>,
    /// Peak resident memory at the end of the run, MiB.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Cells attempted across all timed passes.
    pub fn attempted(&self) -> usize {
        self.passes.iter().map(|p| p.cell_secs.len()).sum()
    }

    /// Failed cells: cells that errored, plus every cell of a pass whose
    /// digest did not match the first pass.
    pub fn failed(&self) -> usize {
        self.passes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if self.mismatched.contains(&i) {
                    p.cell_secs.len()
                } else {
                    p.failed
                }
            })
            .sum()
    }

    /// Whether the run passed the correctness gate.
    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// Each cell's median time across the passes, in seconds. A stall
    /// that hits one pass moves one sample of a cell, not the cell.
    pub fn cell_secs(&self) -> Vec<f64> {
        let n = self.passes.first().map_or(0, |p| p.cell_secs.len());
        (0..n)
            .map(|i| {
                let xs: Vec<f64> = self
                    .passes
                    .iter()
                    .filter_map(|p| p.cell_secs.get(i).copied())
                    .collect();
                median(&xs)
            })
            .collect()
    }

    /// The tail percentile of [`Measured::cell_secs`].
    pub fn tail(&self) -> Tail {
        tail(&self.cell_secs())
    }

    /// The median of [`Measured::cell_secs`], in milliseconds. It is printed
    /// but not a result metric: see the crate docs.
    pub fn p50_ms(&self) -> f64 {
        median(&self.cell_secs()) * 1e3
    }

    /// The end-to-end metrics: per-pass values, median across passes.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_pass =
            |f: &dyn Fn(&Pass) -> f64| median(&self.passes.iter().map(f).collect::<Vec<_>>());
        let attempted = self.attempted().max(1) as f64;
        vec![
            Metric::new("wall_s", "s", per_pass(&|p| p.wall_s)),
            Metric::new(
                "sim_jobs_per_s",
                "1/s",
                per_pass(&|p| p.sim_jobs / p.wall_s),
            ),
            Metric::new("cpu_s", "s", per_pass(&|p| p.cpu_s)),
            Metric::new("cell_ms.tail", "ms", self.tail().value * 1e3),
            Metric::new("peak_rss_mb", "MiB", self.peak_rss_mb),
            Metric::new(
                "ok_cell_ratio",
                "ratio",
                1.0 - self.failed() as f64 / attempted,
            ),
            Metric::new("setup_s", "s", median(&self.setup_secs)),
        ]
    }
}

/// Set-up once: pinned-digest check (which doubles as warm-up) and the
/// workload's input synthesis.
fn setup_once(workload: Workload, opts: &Options) -> Result<Prepared, String> {
    check_pinned()?;
    Ok(prepare(workload, opts))
}

/// Runs set-up `SETUP_REPEATS` times, appending each duration to `secs`,
/// and returns the last set-up's inputs.
fn timed_setups(
    workload: Workload,
    opts: &Options,
    secs: &mut Vec<f64>,
) -> Result<Prepared, String> {
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        prepared = Some(setup_once(workload, opts)?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok(prepared.expect("SETUP_REPEATS is positive"))
}

/// Runs set-up, then timed passes for about `opts.seconds` (see the loop),
/// repeating set-up after each pass. The host's speed drifts over seconds,
/// so set-ups spread over the run give a steadier `setup_s` than set-ups
/// taken back to back at its start.
pub fn measure(
    workload: Workload,
    opts: &Options,
    started: Instant,
    artifact_dir: &Path,
) -> Result<Measured, String> {
    let mut setup_secs = Vec::new();
    let prepared = timed_setups(workload, opts, &mut setup_secs)?;
    let first_call_s = started.elapsed().as_secs_f64();
    let mut passes: Vec<Pass> = Vec::new();
    let mut mismatched = Vec::new();
    let mut spent = 0.0;
    // Start another pass only while it is expected (at the median pass
    // time so far) to end within the budget, so a run lasts about
    // `seconds` whatever the pass length, and at least one pass.
    while passes.is_empty()
        || spent + median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()) <= opts.seconds
    {
        let pass = run_pass(&prepared, artifact_dir).map_err(|e| format!("artifact pass: {e}"))?;
        spent += pass.wall_s;
        if passes
            .first()
            .is_some_and(|first| first.digest != pass.digest)
        {
            mismatched.push(passes.len());
        }
        passes.push(pass);
        timed_setups(workload, opts, &mut setup_secs)?;
    }
    Ok(Measured {
        setup_secs,
        first_call_s,
        passes,
        mismatched,
        peak_rss_mb: crate::host::peak_rss_mb(),
    })
}
