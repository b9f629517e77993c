//! The `/metrics` text the tiers export, read back as numbers: one
//! scrape before and one after a timed phase, diffed, so a benchmark
//! number and a production counter mean the same thing.

use std::collections::HashMap;

/// One scrape: series (`name{labels}` exactly as rendered) to value.
#[derive(Default, Clone)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut m = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    m.insert(series.to_string(), v);
                }
            }
        }
        Scrape(m)
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// The cumulative buckets `(upper bound, count)` of histogram
    /// `name` restricted to the series whose labels start with
    /// `selector` (e.g. `phase="queue_wait"`), sorted by bound.
    fn buckets(&self, name: &str, selector: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{{selector},le=\"");
        let mut out: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, *v))
            })
            .collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite or +Inf bounds"));
        out
    }
}

/// `after - before` of one counter.
pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    after.get(series) - before.get(series)
}

/// The `q`-quantile of the observations a histogram gained between two
/// scrapes, interpolating linearly inside the bucket that holds it (as
/// Prometheus' `histogram_quantile` does). 0 when nothing was observed.
pub fn delta_quantile(before: &Scrape, after: &Scrape, name: &str, selector: &str, q: f64) -> f64 {
    let b: HashMap<u64, f64> = before
        .buckets(name, selector)
        .into_iter()
        .map(|(le, c)| (le.to_bits(), c))
        .collect();
    let diff: Vec<(f64, f64)> = after
        .buckets(name, selector)
        .into_iter()
        .map(|(le, c)| (le, c - b.get(&le.to_bits()).copied().unwrap_or(0.0)))
        .collect();
    let total = diff.last().map(|d| d.1).unwrap_or(0.0);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut prev = (0.0, 0.0);
    for &(le, cum) in &diff {
        if cum >= rank {
            if le.is_infinite() {
                return prev.0;
            }
            let inside = cum - prev.1;
            let frac = if inside > 0.0 {
                (rank - prev.1) / inside
            } else {
                1.0
            };
            return prev.0 + (le - prev.0) * frac;
        }
        prev = (le, cum);
    }
    prev.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffed_quantile_interpolates_inside_a_bucket() {
        let before = Scrape::parse("h_bucket{phase=\"a\",le=\"1\"} 5\nh_bucket{phase=\"a\",le=\"2\"} 5\nh_bucket{phase=\"a\",le=\"+Inf\"} 5\n");
        let after = Scrape::parse("h_bucket{phase=\"a\",le=\"1\"} 5\nh_bucket{phase=\"a\",le=\"2\"} 15\nh_bucket{phase=\"a\",le=\"+Inf\"} 15\n");
        // all ten new observations sit in (1, 2]
        assert!((delta_quantile(&before, &after, "h", "phase=\"a\"", 0.5) - 1.5).abs() < 1e-9);
        assert_eq!(delta_quantile(&after, &after, "h", "phase=\"a\"", 0.5), 0.0);
    }
}
