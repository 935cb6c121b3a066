//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` — see the
//! crate docs for what each workload measures.

use ccs_perfbench::host::Fingerprint;
use ccs_perfbench::run::{measure, Metric};
use ccs_perfbench::spans::chrome_trace;
use ccs_perfbench::stats::valid_metric_name;
use ccs_perfbench::traced::run_traced;
use ccs_perfbench::workloads::{Options, Workload, THREADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench [--workload paper_study|backfill_sweep|failure_storm|all] \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]";

struct Args {
    workloads: Vec<Workload>,
    opts: Options,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        opts: Options {
            seed: 42,
            seconds: 45.0,
            smoke: false,
        },
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.opts.smoke = true;
            continue;
        }
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace" | "--trace-out"
        ) {
            return Err(format!("unknown argument {flag}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => parsed.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.opts.seconds >= 0.0 && parsed.opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => parsed.trace_out = Some(PathBuf::from(value)),
        }
    }
    Ok(parsed)
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_metric_name(&m.name), "bad metric name {}", m.name);
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Names metrics `<workload>.<metric>` when one run covers several
/// workloads.
fn prefixed(prefix: bool, w: Workload, metrics: Vec<Metric>) -> Vec<Metric> {
    metrics
        .into_iter()
        .map(|mut m| {
            if prefix {
                m.name = format!("{}.{}", w.name(), m.name);
            }
            m
        })
        .collect()
}

/// The self-time table: per layer, span count, total and self seconds,
/// and self time as a share of all self time.
fn print_self_times(rows: &[(String, usize, f64, f64)]) {
    let all: f64 = rows.iter().map(|r| r.3).sum();
    println!(
        "# {:<26} {:>7} {:>12} {:>12} {:>7}",
        "layer", "spans", "total_s", "self_s", "self%"
    );
    for (layer, n, total, own) in rows {
        println!(
            "# {:<26} {:>7} {:>12.4} {:>12.4} {:>6.1}%",
            layer,
            n,
            total / 1e6,
            own / 1e6,
            100.0 * own / all.max(f64::MIN_POSITIVE)
        );
    }
}

/// What one workload adds to the result line.
struct Contribution {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// The traced run of `w`: self-time table, Chrome trace, per-layer
/// metrics.
fn traced_workload(
    w: Workload,
    args: &Args,
    fingerprint: &Fingerprint,
    artifact_dir: &Path,
) -> Result<Contribution, String> {
    let t = run_traced(w, &args.opts, artifact_dir)?;
    print_self_times(&t.table);
    let out = args.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(".perfbench_out").join(format!(
            "trace-{}-seed{}.json",
            w.name(),
            args.opts.seed
        ))
    });
    let meta = [
        ("host", fingerprint.to_string()),
        ("workload", w.name().to_string()),
        ("seed", args.opts.seed.to_string()),
    ];
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, chrome_trace(&t.spans, &meta)));
    match written {
        Ok(()) => println!("# trace: {} spans in {}", t.spans.len(), out.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", out.display()),
    }
    if !t.digest_ok {
        eprintln!(
            "perfbench: {}: traced digest differs from the untraced pass",
            w.name()
        );
    }
    print_metrics(&t.metrics);
    Ok(Contribution {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics: t.metrics,
    })
}

/// The untraced run of `w`: timed passes and end-to-end metrics.
fn timed_workload(
    w: Workload,
    args: &Args,
    started: Instant,
    artifact_dir: &Path,
) -> Result<Contribution, String> {
    let m = measure(w, &args.opts, started, artifact_dir)?;
    let t = m.tail();
    println!(
        "# {} timed pass(es); cell_ms.p50 {:.3} ms (not a result metric); cell_ms.tail is {} of {} cells ({} beyond); first timed call at {:.3} s; set-up {:?} s",
        m.passes.len(),
        m.p50_ms(),
        t.label(),
        t.n,
        t.beyond,
        m.first_call_s,
        m.setup_secs
    );
    let walls: Vec<String> = m
        .passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    println!("# pass wall_s: {}", walls.join(" "));
    if !m.mismatched.is_empty() {
        eprintln!(
            "perfbench: {}: pass(es) {:?} differ from the first pass's digest",
            w.name(),
            m.mismatched
        );
    }
    let metrics = m.metrics();
    print_metrics(&metrics);
    Ok(Contribution {
        correct: m.correct(),
        attempted: m.attempted(),
        failed: m.failed(),
        metrics,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let artifact_dir = PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id()));
    let fingerprint = Fingerprint::probe();
    println!("# {fingerprint}");
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        println!(
            "# workload {} seed {} trace {} jobs, {} replica(s) per cell, pool {THREADS} threads",
            w.name(),
            args.opts.seed,
            args.opts.config().trace.jobs,
            w.replicas(&args.opts),
        );
        let run = if args.trace {
            traced_workload(w, &args, &fingerprint, &artifact_dir)
        } else {
            timed_workload(w, &args, started, &artifact_dir)
        };
        let c = match run {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                let _ = std::fs::remove_dir_all(&artifact_dir);
                return ExitCode::from(1);
            }
        };
        correct &= c.correct;
        attempted += c.attempted;
        failed += c.failed;
        metrics.extend(prefixed(args.workloads.len() > 1, w, c.metrics));
    }
    let _ = std::fs::remove_dir(".perfbench_tmp");
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
