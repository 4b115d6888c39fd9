//! Operation tallies, metric sets, summary statistics and the one-line
//! JSON result.

use std::fmt::Write as _;

/// Operations attempted and failed. A failed output check counts as a
/// failed operation instead of aborting the run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose call or output check failed.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation; `problem` is `None` when it passed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(p);
            }
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 10 {
                self.failures.push(f);
            }
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The metric names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|(n, _, _)| n.as_str()).collect()
    }
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and the metrics. JSON has no NaN or infinity; a non-finite value
/// (already tallied as a failure) is written as 0.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Each operation's best (lowest) sample over passes: `passes[p][j]` is
/// operation `j`'s time in pass `p`. A host stall only ever slows an
/// operation down, so the minimum drops every pass one hit.
pub fn min_over_passes(passes: &[&[f64]]) -> Vec<f64> {
    let ops = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..ops)
        .map(|j| passes.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Geometric mean of positive values (0 for no samples).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics (0 for no samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}
