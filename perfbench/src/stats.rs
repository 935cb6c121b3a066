//! Order statistics for the reported timings, and the metric-name rule.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice: the
/// value at 1-based rank `ceil(p/100 · n)`, with the number of samples
/// ranked beyond it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    // The epsilon keeps an exact product (99.9% of 20000) from rounding
    // up to the next rank.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// The tail percentile a run reports for its cell times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile used (e.g. 99.0 for p99).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

impl Tail {
    /// `p99`, `p99.5`, …
    pub fn label(&self) -> String {
        format!("p{}", self.percentile)
    }
}

/// Percentiles tried for the tail, highest first.
const TAIL_CANDIDATES: [f64; 3] = [99.9, 99.5, 99.0];

/// The highest percentile that still has at least 10 samples beyond it:
/// p99 for 1560 cells, p98 for 936, p90 for 100. Candidates are 99.9,
/// 99.5 and then whole percentiles down to 50; with too few samples for
/// even the median to qualify, the median is reported with the count it
/// does have beyond it.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: 0.0,
            beyond: 0,
            n,
        };
    }
    let candidates = TAIL_CANDIDATES
        .into_iter()
        .chain((50..99).rev().map(f64::from));
    for p in candidates {
        let (value, beyond) = nearest_rank(&sorted, p);
        if beyond >= 10 {
            return Tail {
                percentile: p,
                value,
                beyond,
                n,
            };
        }
    }
    let (value, beyond) = nearest_rank(&sorted, 50.0);
    Tail {
        percentile: 50.0,
        value,
        beyond,
        n,
    }
}

/// Whether `name` is a valid metric name: non-empty, at most 64
/// characters of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending on purpose: the helper must sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        for (n, p, beyond) in [
            (1560, 99.0, 15),
            (936, 98.0, 18),
            (100, 90.0, 10),
            (780, 98.0, 15),
            (20_000, 99.9, 20),
        ] {
            let t = tail(&ramp(n));
            assert_eq!((t.percentile, t.beyond, t.n), (p, beyond, n), "n = {n}");
            assert!(t.beyond >= 10);
            assert_eq!(t.value, (n - beyond - 1) as f64);
        }
    }

    #[test]
    fn tail_is_the_highest_qualifying_percentile() {
        // One step higher must leave fewer than 10 samples beyond.
        let t = tail(&ramp(936));
        let sorted: Vec<f64> = (0..936).map(|i| i as f64).collect();
        assert!(nearest_rank(&sorted, t.percentile + 1.0).1 < 10);
        assert_eq!(t.label(), "p98");
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_median_with_its_count() {
        let t = tail(&ramp(12));
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.beyond, 6);
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "wall_s",
            "cell_ms.p50",
            "policies.libra_riskd.submit_s",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "cell/ms", "p99%", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
