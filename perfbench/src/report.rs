//! The result line and the small statistics it needs.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run prints as its last line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every cell's output passed its check.
    pub correct: bool,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells whose output check failed.
    pub failed: u64,
    /// The metrics, in the order they were measured.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric; a non-finite value (a ratio over a failed cell)
    /// is reported as 0 and leaves `correct` false through the failed
    /// cell itself.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile of `xs`, by the method of
/// Python's `statistics.quantiles(xs, n=4)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (q(1), q(2), q(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("cpu_s", 1.25, "s");
        r.push("hmg_speedup", f64::NAN, "x");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"hmg_speedup\": {\"value\": 0, \"unit\": \"x\"}}}"
        );
    }
}
