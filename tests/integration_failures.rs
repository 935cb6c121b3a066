//! End-to-end coverage of the crash-safe, resumable experiment grid: a run
//! killed partway (cell budget) resumes from its journal to results
//! byte-identical to an uninterrupted run, and a panicking cell is confined
//! to a reported `CellError` (nonzero exit) instead of aborting the study.
//! The CLI rejects the flags of the removed multi-process grid up front.

use ccs_experiments::{run_evaluation, run_evaluation_ctl, ExperimentConfig, GridControl};
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccs_failures_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_cfg() -> ExperimentConfig {
    ExperimentConfig::quick().with_jobs(25)
}

/// Satellite 4, library level: truncate a full evaluation after a cell
/// budget, then resume from the journal — the merged results must be
/// byte-identical to an uninterrupted evaluation (same floats, bit for
/// bit), and the resumed run must only have paid for the missing cells.
#[test]
fn budget_truncated_evaluation_resumes_to_identical_results() {
    let dir = temp_dir("resume");
    let journal = dir.join("journal.jsonl");
    let cfg = small_cfg();

    let full = run_evaluation(&cfg);

    // Interrupted run: only 40 cells per grid actually execute; the rest
    // hold placeholders and are *not* journaled.
    let interrupted = run_evaluation_ctl(
        &cfg,
        &GridControl {
            journal: Some(journal.clone()),
            cell_budget: Some(40),
            ..Default::default()
        },
    );
    assert!(interrupted.cell_errors().is_empty());

    // Resumed run: journal hits for the 4 × 40 completed cells, live
    // simulation for the remainder.
    let resumed = run_evaluation_ctl(
        &cfg,
        &GridControl {
            journal: Some(journal.clone()),
            ..Default::default()
        },
    );
    assert!(resumed.cell_errors().is_empty());

    for (f, r) in full.raw_grids.iter().zip(&resumed.raw_grids) {
        assert_eq!(f.econ, r.econ);
        assert_eq!(f.set, r.set);
        assert_eq!(
            f.raw, r.raw,
            "{} / {}: resumed grid must be byte-identical to the uninterrupted one",
            f.econ, f.set
        );
    }

    // A second resume is a pure replay: every cell comes from the journal
    // and the numbers still match.
    let replay = run_evaluation_ctl(
        &cfg,
        &GridControl {
            journal: Some(journal),
            ..Default::default()
        },
    );
    for (f, r) in full.raw_grids.iter().zip(&replay.raw_grids) {
        assert_eq!(f.raw, r.raw);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 4 + tentpole acceptance, binary level: a deliberately
/// panicking policy cell (injected via `CCS_FAIL_CELL`) must not abort the
/// grid — the run completes, writes `cell_errors.json`, and exits nonzero;
/// a `--resume` rerun without the injection re-runs only the failed cells
/// and produces the same stdout as an untouched run.
#[test]
fn panicking_cell_reports_errors_and_resume_heals() {
    let dir = temp_dir("panic");
    let journal = dir.join("journal.jsonl");
    let out = dir.join("out");
    let args = |with_resume: bool| {
        let mut a = vec![
            "summary".to_string(),
            "--quick".into(),
            "--jobs".into(),
            "25".into(),
            "--quiet".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ];
        if with_resume {
            a.push("--resume".into());
            a.push(journal.to_str().unwrap().to_string());
        }
        a
    };

    // Run 1: one cell per grid panics. The process must finish the whole
    // sweep, report the errors, and exit nonzero.
    let poisoned = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(true))
        .env("CCS_FAIL_CELL", "0:1:SJF-BF")
        .output()
        .expect("spawn utility_risk");
    assert_eq!(
        poisoned.status.code(),
        Some(1),
        "a panicking cell must exit(1), not abort: {}",
        String::from_utf8_lossy(&poisoned.stderr)
    );
    let stderr = String::from_utf8_lossy(&poisoned.stderr);
    assert!(
        stderr.contains("panicked"),
        "stderr must name the panicking cell: {stderr}"
    );
    let errors_json =
        std::fs::read_to_string(out.join("cell_errors.json")).expect("cell_errors.json written");
    assert!(
        errors_json.contains("SJF-BF"),
        "error artifact names the policy: {errors_json}"
    );

    // Run 2: resume without the injection. Only the failed/missing cells
    // re-run; exit clean.
    let healed = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(true))
        .env_remove("CCS_FAIL_CELL")
        .output()
        .expect("spawn utility_risk");
    assert_eq!(
        healed.status.code(),
        Some(0),
        "healed resume must exit 0: {}",
        String::from_utf8_lossy(&healed.stderr)
    );
    // Run 3: fresh, uninterrupted run. Its stdout (the four per-policy
    // summary tables) must be byte-identical to the healed resume's.
    let fresh = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(false))
        .env_remove("CCS_FAIL_CELL")
        .output()
        .expect("spawn utility_risk");
    assert_eq!(fresh.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&healed.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "resumed report must be byte-identical to an uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every grid runs on the in-process thread pool; the flags and
/// subcommands of the old multi-process and multi-machine grid are gone.
/// Each one is rejected up front: exit 2, an error naming the flag (or the
/// usage text for a subcommand), and no simulation — nothing on stdout and
/// no `--out` artifacts.
fn assert_removed_surface_exits_2_before_simulating(
    name: &str,
    flag_cases: &[(&[&str], &str)],
    subcommand_cases: &[&[&str]],
) {
    let dir = temp_dir(name);
    let out = dir.join("out");
    let mut cases: Vec<(Vec<&str>, &str)> = flag_cases
        .iter()
        .map(|(flags, flag)| {
            let mut args = vec!["summary", "--quick", "--quiet"];
            args.extend_from_slice(flags);
            (args, *flag)
        })
        .collect();
    cases.extend(
        subcommand_cases
            .iter()
            .map(|args| (args.to_vec(), "usage:")),
    );
    for (args, expect) in &cases {
        let output = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
            .args(args)
            .args(["--out", out.to_str().unwrap()])
            .output()
            .expect("spawn utility_risk");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?} must exit 2: {stderr}"
        );
        assert!(
            stderr.contains(expect),
            "{args:?} must print {expect}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} must not simulate");
        assert!(!out.exists(), "{args:?} must not write artifacts");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The multi-process grid's flags and its hidden `worker` subcommand.
#[test]
fn removed_supervisor_flags_exit_2_naming_the_flag() {
    assert_removed_surface_exits_2_before_simulating(
        "removed_supervisor_surface",
        &[
            (&["--workers", "2"], "--workers"),
            (&["--retries", "3"], "--retries"),
            (&["--backoff-ms", "10"], "--backoff-ms"),
            (&["--heartbeat-ms", "50"], "--heartbeat-ms"),
        ],
        &[&["worker"]],
    );
}

/// The multi-machine grid's flags and its `serve-worker` subcommand.
#[test]
fn removed_transport_flags_exit_2_naming_the_flag() {
    assert_removed_surface_exits_2_before_simulating(
        "removed_transport_surface",
        &[
            (&["--remote", "127.0.0.1:9"], "--remote"),
            (&["--connect-timeout-ms", "100"], "--connect-timeout-ms"),
        ],
        &[&["serve-worker", "--listen", "127.0.0.1:0"]],
    );
}
