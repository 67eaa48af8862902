//! Summary statistics, process probes and the result line.

use std::time::{Duration, Instant};

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated
/// between order statistics (the "inclusive" method of Python's
/// `statistics.quantiles`).  `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Microseconds from `from` to `to` (0 if `to` is earlier).
pub fn us_between(from: Instant, to: Instant) -> f64 {
    us(to.saturating_duration_since(from))
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `setup` `times` times (at least once), keep the last result and
/// return it with the time of each set-up in seconds: set-up is short, so
/// one sample of it is mostly noise.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        last = Some(setup());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (last.expect("set-up ran at least once"), seconds)
}

/// FNV-1a over a sequence of strings (input-draw fingerprints).
pub fn fingerprint<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for item in items {
        for byte in item.bytes().chain([0xff]) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or mean (0 for plain totals/ratios).
    pub samples: usize,
}

/// Outcome of one benchmark run: the metrics plus the op accounting the
/// result line carries.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    /// Operations attempted (checks or requests).
    pub attempted: usize,
    /// Operations that failed: errors, or outputs that differ from the
    /// expected ones.
    pub failed: usize,
    /// The first few failure descriptions (printed to stderr).
    pub failures: Vec<String>,
    /// Fingerprint of the inputs the seed drew (their identity and
    /// order), so two seeds can be shown to draw different inputs.
    pub draw: u64,
}

impl RunResult {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Record one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Print the human-readable table, then the JSON result line (always
    /// the last line of standard output).
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        let failed_frac = ratio(self.failed as f64, self.attempted as f64);
        println!(
            "workload {workload}  seed {seed}  trace {}  input draw {:016x}  attempted {}  failed {}  failed_frac {failed_frac}",
            trace as u8, self.draw, self.attempted, self.failed
        );
        println!(
            "{:<34} {:>16} {:<7} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let samples = if m.samples > 0 {
                m.samples.to_string()
            } else {
                "-".to_owned()
            };
            println!(
                "{:<34} {:>16.4} {:<7} {:>8}",
                m.name, m.value, m.unit, samples
            );
        }
        for why in &self.failures {
            eprintln!("FAILED: {why}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
