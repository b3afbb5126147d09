//! Percentiles, the tail rule, and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than ten samples lie beyond it — the rule every reported tail obeys.
pub fn tail(sorted: &[u64], pct: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    (n > idx + 10).then(|| sorted[idx])
}

pub fn median(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) / 2]
}

pub fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[(v.len() - 1) / 2]
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Metrics in the order they are added: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// The metrics named in `names`, in that order, as a JSON object.
    pub fn json(&self, names: &[&str]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let (_, v, unit) = self
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v, 90.0), Some(90));
        assert_eq!(tail(&v, 95.0), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v, 99.0), Some(990));
    }
}
