//! End-to-end coverage of the `--telemetry out.json` artifact and of the
//! guarantee that instrumentation never changes simulation results.

use ccs_experiments::TelemetryReport;
use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccs_{}_{name}", std::process::id()))
}

/// Runs `utility_risk summary --quick --telemetry FILE` and parses the
/// emitted JSON. This is the acceptance test of the ISSUE: the file must
/// contain the kernel counters, the queue-depth high-water mark, the
/// per-policy decision-latency histograms (feature builds), and the
/// per-(scenario × policy) wall-time tables (all builds).
#[test]
fn utility_risk_emits_parseable_telemetry() {
    let out = temp_path("telemetry.json");
    let status = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args([
            "summary",
            "--quick",
            "--jobs",
            "40",
            "--telemetry",
            out.to_str().unwrap(),
        ])
        .status()
        .expect("spawn utility_risk");
    assert!(status.success(), "utility_risk failed: {status}");

    let json = std::fs::read_to_string(&out).expect("telemetry file written");
    std::fs::remove_file(&out).ok();
    let report = TelemetryReport::from_json(&json).expect("telemetry JSON parses");

    // Wall-time tables are present regardless of the feature flag: the
    // summary subcommand runs all four grids.
    assert_eq!(report.grids.len(), 4);
    for table in &report.grids {
        assert_eq!(table.scenarios.len(), 13);
        assert_eq!(table.secs.len(), 13);
        assert!(!table.policies.is_empty());
        assert!(
            table.secs.iter().flatten().sum::<f64>() > 0.0,
            "{} / {}: cells must take measurable time",
            table.econ,
            table.set
        );
        assert!(table.wall_secs > 0.0);
        assert!(!table.worker_busy_secs.is_empty());
    }
    assert!(!report.slowest_cells.is_empty());
    assert_eq!(report.feature_enabled, cfg!(feature = "telemetry"));

    if cfg!(feature = "telemetry") {
        let s = &report.snapshot;
        assert!(
            s.counters.get("des.events.processed").copied().unwrap_or(0) > 0,
            "kernel events-processed counter missing: {:?}",
            s.counters
        );
        assert!(
            s.gauges.get("des.queue.depth_hwm").copied().unwrap_or(0) > 0,
            "queue-depth high-water mark missing: {:?}",
            s.gauges
        );
        // One evaluation: 300 of its 1560 slots repeat an earlier cell.
        let memo = |name: &str| s.counters.get(name).copied().unwrap_or(0);
        assert_eq!(memo("grid.cell_memo.hits"), 300);
        assert_eq!(memo("grid.cell_memo.misses"), 1260);
        let decision_histograms: Vec<_> = s
            .histograms
            .iter()
            .filter(|(name, h)| name.starts_with("runner.decision.duration_ns.") && h.count > 0)
            .collect();
        assert!(
            !decision_histograms.is_empty(),
            "per-policy decision-latency histograms missing: {:?}",
            s.histograms.keys().collect::<Vec<_>>()
        );
        assert!(
            s.histograms
                .iter()
                .any(|(name, h)| name.starts_with("runner.run.duration_ns.") && h.count > 0),
            "per-run wall-time histograms missing"
        );
        assert!(
            s.counters
                .get("runner.runs.completed")
                .copied()
                .unwrap_or(0)
                > 0
        );
    } else {
        assert!(
            report.snapshot.is_empty(),
            "snapshot must be empty without the telemetry feature"
        );
    }
}

/// FNV-1a over the canonical JSON encoding of a run result.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Simulation outputs must be byte-identical with and without the
/// `telemetry` feature: this hash is compiled and checked under both
/// feature configurations in CI, so a drift in either build breaks it.
#[test]
fn run_result_identical_across_feature_configs() {
    use ccs_economy::EconomicModel;
    use ccs_experiments::{baseline, EstimateSet};
    use ccs_simsvc::{simulate, RunConfig};
    use ccs_workload::{apply_scenario, SdscSp2Model};

    let mut model = SdscSp2Model::small();
    model.jobs = 60;
    let base = model.generate(12345);
    let jobs = apply_scenario(&base, &baseline(EstimateSet::B), 12345);
    let cfg = RunConfig {
        nodes: 32,
        econ: EconomicModel::CommodityMarket,
    };
    let result = simulate(&jobs, ccs_policies::PolicyKind::FcfsBf, &cfg);
    let json = serde_json::to_string(&result).expect("run result serialises");
    // FNV-1a of the canonical encoding, recorded from a default-feature
    // build; the telemetry-feature CI leg checks the same constant.
    // (Re-recorded when RunMetrics gained the fault-injection counters.)
    const GOLDEN: u64 = 1379623899478093181;
    assert_eq!(
        fnv1a(json.as_bytes()),
        GOLDEN,
        "RunResult encoding drifted (feature telemetry={})",
        cfg!(feature = "telemetry")
    );
}
