//! `/metrics` scrapes: parsing the Prometheus text exposition and
//! differencing two scrapes around a measured window.

use std::collections::BTreeMap;

/// One scrape: every sample keyed by its series (name plus labels in
/// sorted order, e.g. `stage_queue_wait_seconds_sum{stage="render"}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses exposition text.
    ///
    /// # Errors
    ///
    /// Names the first line that is not `series value`.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) =
                parse_line(line).ok_or_else(|| format!("bad sample line: {line}"))?;
            samples.insert(series, value);
        }
        Ok(Scrape { samples })
    }

    /// The value of one series.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .get(&series_key(name, labels))
            .copied()
            .unwrap_or(0.0)
    }

    /// The sum over every series of family `name`, whatever its labels.
    pub fn family_sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(k, _)| k.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// `after − self` for every cumulative series (`_sum`, `_count`,
    /// `_total`) present in `after`; gauges and buckets are left out.
    pub fn delta_to(&self, after: &Scrape) -> Scrape {
        let samples = after
            .samples
            .iter()
            .filter(|(k, _)| {
                let name = k.split('{').next().unwrap_or_default();
                name.ends_with("_sum") || name.ends_with("_count") || name.ends_with("_total")
            })
            .map(|(k, v)| (k.clone(), v - self.samples.get(k).copied().unwrap_or(0.0)))
            .collect();
        Scrape { samples }
    }

    /// Mean of a histogram over the window, in microseconds:
    /// `_sum / _count` (0 when nothing was recorded).
    pub fn mean_us(&self, histogram: &str, labels: &[(&str, &str)]) -> f64 {
        let count = self.get(&format!("{histogram}_count"), labels);
        if count == 0.0 {
            return 0.0;
        }
        self.get(&format!("{histogram}_sum"), labels) / count * 1e6
    }
}

/// The canonical key of a series: labels sorted by name.
fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted = labels.to_vec();
    sorted.sort();
    let inner: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", inner.join(","))
}

fn parse_line(line: &str) -> Option<(String, f64)> {
    let (series, value) = line.rsplit_once(' ')?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().ok()?,
    };
    let Some(open) = series.find('{') else {
        return Some((series.to_string(), value));
    };
    let name = &series[..open];
    let body = series[open + 1..].strip_suffix('}')?;
    let mut labels: Vec<(String, String)> = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let mut val = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            let (i, c) = chars.next()?;
            match c {
                '\\' => match chars.next()?.1 {
                    'n' => val.push('\n'),
                    other => val.push(other),
                },
                '"' => break i,
                c => val.push(c),
            }
        };
        labels.push((key.trim_start_matches(',').to_string(), val));
        rest = after[end + 1..].trim_start_matches(',');
    }
    let borrowed: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    Some((series_key(name, &borrowed), value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_metrics::Registry;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn deltas_of_the_registry_encoder_output() {
        let registry = Registry::new();
        let wait = registry.histogram("stage_queue_wait_seconds", &[("stage", "render")]);
        let sheds = Arc::new(AtomicU64::new(2));
        let s = Arc::clone(&sheds);
        registry.counter_fn("sheds_total", &[("point", "general")], move || {
            s.load(Ordering::SeqCst)
        });
        registry.counter_fn("sheds_total", &[("point", "render")], || 1);
        registry.gauge_fn("stage_queue_depth", &[("stage", "render")], || 3.0);
        wait.record(Duration::from_micros(100));

        let before = Scrape::parse(&registry.encode_prometheus()).unwrap();
        assert_eq!(
            before.get("stage_queue_wait_seconds_count", &[("stage", "render")]),
            1.0
        );
        assert_eq!(before.family_sum("sheds_total"), 3.0);

        wait.record(Duration::from_micros(300));
        wait.record(Duration::from_micros(500));
        sheds.store(5, Ordering::SeqCst);
        let after = Scrape::parse(&registry.encode_prometheus()).unwrap();

        let d = before.delta_to(&after);
        assert_eq!(
            d.get("stage_queue_wait_seconds_count", &[("stage", "render")]),
            2.0
        );
        let mean = d.mean_us("stage_queue_wait_seconds", &[("stage", "render")]);
        assert!((mean - 400.0).abs() < 1e-6, "mean {mean}");
        assert_eq!(d.get("sheds_total", &[("point", "general")]), 3.0);
        assert_eq!(d.family_sum("sheds_total"), 3.0);
        // Gauges and buckets do not difference.
        assert_eq!(d.get("stage_queue_depth", &[("stage", "render")]), 0.0);
        assert_eq!(
            d.mean_us("stage_queue_wait_seconds", &[("stage", "nowhere")]),
            0.0
        );
    }

    #[test]
    fn label_order_and_escapes_do_not_matter() {
        let s = Scrape::parse("# TYPE x counter\nx_total{b=\"2\",a=\"q\\\"\"} 7\ny 1.5\n").unwrap();
        assert_eq!(s.get("x_total", &[("a", "q\""), ("b", "2")]), 7.0);
        assert_eq!(s.get("y", &[]), 1.5);
        assert!(Scrape::parse("novalue").is_err());
    }
}
