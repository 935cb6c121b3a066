//! The host fingerprint printed with every result, and the process
//! counters (CPU time, peak resident memory) read from `/proc/self`.

use std::process::Command;

/// What produced a result: machine, toolchain, revision and build.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// Git revision of the working directory, when it is the top of a git
    /// checkout; `unknown` otherwise.
    pub git_rev: String,
    /// `release` or `debug` (by `debug_assertions`).
    pub build_profile: &'static str,
    /// Whether `ccs-telemetry` counters are compiled in.
    pub telemetry: bool,
    /// Whether the phase profiler (`profile` feature) is compiled in.
    pub phase_profile: bool,
}

impl Fingerprint {
    /// Probes the current host and build.
    pub fn probe() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            telemetry: ccs_telemetry::ENABLED,
            phase_profile: ccs_telemetry::profile::PROFILE_ENABLED,
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host cpu=\"{}\" nproc={} rustc=\"{}\" rev={} build={} telemetry={} phase_profile={}",
            self.cpu,
            self.nproc,
            self.rustc,
            self.git_rev,
            self.build_profile,
            self.telemetry,
            self.phase_profile
        )
    }
}

/// First line of a command's stdout, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

/// HEAD of the git checkout rooted at the working directory. A directory
/// that is not itself the top of a checkout (a source export) reports no
/// revision rather than that of some enclosing repository.
fn git_rev() -> Option<String> {
    let top = command_line("git", &["rev-parse", "--show-toplevel"])?;
    let cwd = std::env::current_dir().ok()?.canonicalize().ok()?;
    if std::path::Path::new(&top).canonicalize().ok()? != cwd {
        return None;
    }
    command_line("git", &["rev-parse", "--short=12", "HEAD"])
}

/// Clock ticks per second of `/proc/self/stat` times (the Linux default).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process spent since `start_ticks`, a
/// reading of [`cpu_ticks`].
pub(crate) fn cpu_seconds_since(start_ticks: u64) -> f64 {
    cpu_ticks().saturating_sub(start_ticks) as f64 / TICKS_PER_SEC
}

/// User + system CPU clock ticks of this process, all threads included,
/// from `/proc/self/stat`.
pub(crate) fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_positive_and_cpu_time_grows() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_ticks();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_secs_f64() < 0.1 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds_since(before) > 0.0);
    }

    #[test]
    fn fingerprint_names_every_field() {
        let line = Fingerprint::probe().to_string();
        for key in [
            "cpu=",
            "nproc=",
            "rustc=",
            "rev=",
            "build=",
            "telemetry=",
            "phase_profile=",
        ] {
            assert!(line.contains(key), "{line}");
        }
    }
}
