//! Order statistics and the result line.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in 0..=1); 0 when empty. With fewer
/// than `1 / (1 - q)` samples this is the maximum.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First and third quartiles, by the same exclusive method as Python's
/// `statistics.quantiles(xs, n=4)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |j: usize| {
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    (at(1), at(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `(name, unit)` of every metric a run may print; the result line must
/// carry exactly the table chosen by `--trace`.
pub type MetricTable = &'static [(&'static str, &'static str)];

/// A run's verdict and metrics, printed as the last line of stdout.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one attempted unit of work; `Err` counts it as failed and
    /// prints the reason, so one failure never aborts the run.
    pub fn outcome(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            println!("FAILED {what}: {reason}");
        }
    }

    /// The JSON result line over `table`. A metric the run did not set
    /// is a benchmark bug and fails the run instead of printing a
    /// partial line.
    pub fn result_line(&self, table: MetricTable) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    /// Prints every metric of `table` that was measured, one per line.
    pub fn print_human(&self, table: MetricTable) {
        for &(name, unit) in table {
            if let Some(v) = self.values.get(name) {
                println!("  {name:<34} {v:>16.6} {unit}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.99), 3.0);
        assert_eq!(
            percentile(&(1..=100).map(f64::from).collect::<Vec<_>>(), 0.5),
            50.0
        );
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut r = Report::default();
        r.set("a", 1.5);
        r.outcome("x", Ok(()));
        assert!(r.result_line(&[("a", "s"), ("b", "s")]).is_err());
        let line = r.result_line(&[("a", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
