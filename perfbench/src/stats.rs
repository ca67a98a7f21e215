//! Small numeric helpers: quantiles, compensated sums, process memory.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`; `None` when
/// empty. The input need not be sorted.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(neumaier_sum(values.iter().copied()) / values.len() as f64)
    }
}

/// The highest of the usual reporting percentiles (p99, p95, p90, p75, p50)
/// that still has at least ten samples beyond it, as `(percentile, value)`.
/// With fewer than twenty samples no percentile qualifies and the maximum
/// is reported as p100.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    for p in [99u32, 95, 90, 75, 50] {
        if n * (1.0 - p as f64 / 100.0) >= 10.0 - 1e-9 {
            return quantile(values, p as f64 / 100.0).map(|v| (p, v));
        }
    }
    quantile(values, 1.0).map(|v| (100, v))
}

/// Neumaier-compensated sum: exact to within one rounding of the true sum
/// for the magnitudes the output check sees.
pub fn neumaier_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0f64;
    let mut compensation = 0.0f64;
    for v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            compensation += (sum - t) + v;
        } else {
            compensation += (v - t) + sum;
        }
        sum = t;
    }
    sum + compensation
}

/// A `kB` field of `/proc/self/status` in MB (10^6 bytes).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..48).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(75));
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(95));
        assert_eq!(tail(&[1.0, 2.0]).map(|t| t.0), Some(100));
    }

    #[test]
    fn compensated_sum_recovers_small_terms() {
        let v = [1e16, 1.0, -1e16, 1.0];
        assert_eq!(neumaier_sum(v), 2.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
