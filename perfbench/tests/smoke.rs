//! Smoke mode: every workload, untraced and traced, on a tiny trace.

use ccs_perfbench::run::measure;
use ccs_perfbench::stats::valid_metric_name;
use ccs_perfbench::traced::run_traced;
use ccs_perfbench::workloads::{Options, Workload};
use std::collections::HashSet;
use std::time::Instant;

const SMOKE: Options = Options {
    seed: 3,
    seconds: 0.0,
    smoke: true,
};

fn assert_names(names: &[String], expected: usize) {
    assert_eq!(names.len(), expected);
    assert!(names.iter().all(|n| valid_metric_name(n)), "{names:?}");
    let unique: HashSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "duplicate metric name");
}

#[test]
fn every_workload_runs_correctly_in_smoke_mode() {
    let artifact_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    for w in Workload::ALL {
        let m = measure(w, &SMOKE, Instant::now(), &artifact_dir).expect("measure");
        assert!(
            m.correct(),
            "{w:?}: {} of {} cells failed",
            m.failed(),
            m.attempted()
        );
        let metrics = m.metrics();
        assert_names(
            &metrics.iter().map(|x| x.name.clone()).collect::<Vec<_>>(),
            7,
        );
        assert!(metrics.iter().all(|x| x.value > 0.0), "{w:?}: {metrics:?}");

        let t = run_traced(w, &SMOKE, &artifact_dir).expect("traced run");
        assert!(t.digest_ok, "{w:?}: traced digest differs from untraced");
        assert_eq!(t.failed, 0, "{w:?}");
        assert_names(
            &t.metrics.iter().map(|x| x.name.clone()).collect::<Vec<_>>(),
            66,
        );
        assert!(!t.table.is_empty());
    }
}
