//! Harness statistics: medians, the tail-percentile rule, failure
//! accounting and the result line the benchmark prints.

/// Percentiles the tail may be reported at, highest first. The steps are
/// a factor of ten apart in the sample count they need, so a run whose
/// sample count wobbles a little keeps reporting the same percentile.
pub const TAIL_GRID: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// The small slack keeps binary rounding (99.9 / 100 * 10000 is a hair
/// above 9990) from pushing an exact rank up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest percentile in [`TAIL_GRID`] with at least [`TAIL_BEYOND`]
/// of `n` samples beyond it, or `None` when there are too few samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_GRID
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= TAIL_BEYOND)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` was read at.
    pub tail_pct: f64,
    pub samples: usize,
}

/// Summarize latencies; `None` when there are too few for a tail.
pub fn latency(values: &[f64]) -> Option<Latency> {
    let tail_pct = tail_percentile(values.len())?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Latency {
        p50: percentile(&sorted, 50.0),
        tail: percentile(&sorted, tail_pct),
        tail_pct,
        samples: sorted.len(),
    })
}

/// Operations attempted and how many of them failed. A failure is an
/// operation whose output check failed, or a request that was shed or
/// refused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Timing inputs of the end-to-end metrics, shared by every workload.
pub struct Timed<'a> {
    pub tally: Tally,
    /// Seconds the timed phase took: process CPU seconds for the
    /// CPU-bound workloads, wall seconds net of steal for the daemon.
    pub seconds: f64,
    /// Per-operation latencies, milliseconds.
    pub latencies_ms: &'a [f64],
    /// Seconds of each repeated set-up.
    pub setups_s: &'a [f64],
}

/// The timing half of the end-to-end metrics. A run in which no
/// operation succeeded has no speed to report: it is an error.
pub fn end_to_end(t: &Timed<'_>, peak_rss_mb: f64) -> Result<(Metrics, Latency), String> {
    if t.tally.succeeded() == 0 {
        return Err(format!(
            "no operation succeeded ({} attempted, {} failed)",
            t.tally.attempted, t.tally.failed
        ));
    }
    if t.seconds.is_nan() || t.seconds <= 0.0 {
        return Err("the timed phase measured no time".to_owned());
    }
    let lat = latency(t.latencies_ms).ok_or_else(|| {
        format!(
            "{} latency samples are too few for a tail with {TAIL_BEYOND} beyond it",
            t.latencies_ms.len()
        )
    })?;
    let mut m = Metrics::default();
    m.put("setup_s", median(t.setups_s), "s");
    m.put(
        "throughput_per_s",
        t.tally.succeeded() as f64 / t.seconds,
        "1/s",
    );
    m.put("latency_ms_p50", lat.p50, "ms");
    m.put("latency_ms_tail", lat.tail, "ms");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    Ok((m, lat))
}

/// `(k + 1) / (n + 2)`: a share that stays defined and above zero when no
/// trial succeeds, so it can be compared as a ratio between runs.
pub fn smoothed_share(k: f64, n: f64) -> f64 {
    (k + 1.0) / (n + 2.0)
}

/// The benchmark's last output line.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that is not finite is a harness
/// bug and is printed as `null` so the run cannot pass silently.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_grid_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The rule itself: at least ten samples beyond, for every n.
        for n in 20..3000 {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn latency_reports_the_tail_percentile_and_sample_count() {
        let values: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let lat = latency(&values).expect("100 samples");
        assert_eq!(lat.samples, 100);
        assert_eq!(lat.tail_pct, 90.0);
        assert_eq!(lat.tail, 90.0);
        assert_eq!(lat.p50, 50.0);
        assert_eq!(values.iter().filter(|&&v| v > lat.tail).count(), 10);
        assert!(latency(&values[..19]).is_none());
    }

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        let mut other = Tally::default();
        other.record(false);
        t.merge(other);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.succeeded(), 2);
    }

    #[test]
    fn throughput_counts_only_successes() {
        let lat: Vec<f64> = (0..40).map(f64::from).collect();
        let t = Timed {
            tally: Tally {
                attempted: 40,
                failed: 10,
            },
            seconds: 2.0,
            latencies_ms: &lat,
            setups_s: &[1.0, 3.0, 2.0],
        };
        let (m, _) = end_to_end(&t, 5.0).expect("some succeeded");
        assert_eq!(m.get("throughput_per_s"), Some(15.0));
        assert_eq!(m.get("setup_s"), Some(2.0));
    }

    #[test]
    fn zero_successes_report_failure_not_a_speed() {
        let lat: Vec<f64> = (0..40).map(f64::from).collect();
        let t = Timed {
            tally: Tally {
                attempted: 40,
                failed: 40,
            },
            seconds: 2.0,
            latencies_ms: &lat,
            setups_s: &[1.0],
        };
        assert!(end_to_end(&t, 5.0).is_err());
        let none = Timed {
            tally: Tally::default(),
            ..t
        };
        assert!(end_to_end(&none, 5.0).is_err());
    }

    #[test]
    fn smoothed_share_is_never_zero() {
        assert_eq!(smoothed_share(0.0, 0.0), 0.5);
        assert_eq!(smoothed_share(0.0, 48.0), 1.0 / 50.0);
        assert_eq!(smoothed_share(48.0, 48.0), 49.0 / 50.0);
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.123456789, "s");
        m.put("bad", f64::NAN, "ms");
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}, \
             \"bad\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
