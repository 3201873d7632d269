//! A dependency-free metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! Names follow Prometheus conventions (`[a-zA-Z_:][a-zA-Z0-9_:]*`,
//! snake_case, unit-suffixed) so the registry can be rendered directly by
//! [`crate::write_prometheus`] and embedded in run manifests.

use crate::json::JsonValue;
use std::collections::BTreeMap;

/// A fixed-bucket histogram (Prometheus semantics: cumulative on export,
/// stored per-bucket here).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow (+Inf) bucket at the end.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    /// A histogram over `bounds` (strictly increasing upper bounds; an
    /// implicit `+Inf` bucket is appended).
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// The configured upper bounds (without the implicit `+Inf`).
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the last entry is `+Inf`.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum / self.total as f64)
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "bounds".into(),
                JsonValue::Array(self.bounds.iter().map(|&b| JsonValue::from(b)).collect()),
            ),
            (
                "counts".into(),
                JsonValue::Array(self.counts.iter().map(|&c| JsonValue::from(c)).collect()),
            ),
            ("sum".into(), JsonValue::from(self.sum)),
            ("count".into(), JsonValue::from(self.total)),
        ])
    }
}

/// Counters, gauges and histograms under stable sorted names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    fcounters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by one (creating it at zero).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, by: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += by;
        } else {
            self.counters.insert(name.to_owned(), by);
        }
    }

    /// Adds `by` to floating-point counter `name` (creating it at zero).
    ///
    /// Fractional counters carry physical quantities (microjoules) whose
    /// sub-unit remainders a `u64` counter would truncate away; they live
    /// in their own namespace and render as Prometheus counters.
    pub fn fadd(&mut self, name: &str, by: f64) {
        if let Some(v) = self.fcounters.get_mut(name) {
            *v += by;
        } else {
            self.fcounters.insert(name.to_owned(), by);
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Records `value` into histogram `name`, creating it over `bounds`
    /// on first use (later calls ignore `bounds`).
    ///
    /// # Panics
    ///
    /// Panics when creating a histogram with invalid `bounds` (see
    /// [`Histogram::new`]).
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new(bounds);
            h.observe(value);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Stores `histogram` under `name`, replacing any histogram there.
    pub(crate) fn insert_histogram(&mut self, name: &str, histogram: Histogram) {
        self.histograms.insert(name.to_owned(), histogram);
    }

    /// Counter `name`'s value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Floating-point counter `name`'s value (0.0 when absent).
    #[must_use]
    pub fn fcounter(&self, name: &str) -> f64 {
        self.fcounters.get(name).copied().unwrap_or(0.0)
    }

    /// Gauge `name`'s value.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, when present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All floating-point counters in name order.
    pub fn fcounters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.fcounters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.fcounters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Renders the registry as a JSON object (`{"counters": {...},
    /// "gauges": {...}, "histograms": {...}}`) for run manifests. An
    /// `"fcounters"` member appears only when floating-point counters
    /// exist, so ledger-free manifests keep their original shape.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = vec![(
            "counters".into(),
            JsonValue::Object(
                self.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), JsonValue::from(v)))
                    .collect(),
            ),
        )];
        if !self.fcounters.is_empty() {
            fields.push((
                "fcounters".into(),
                JsonValue::Object(
                    self.fcounters
                        .iter()
                        .map(|(k, &v)| (k.clone(), JsonValue::from(v)))
                        .collect(),
                ),
            ));
        }
        fields.extend([
            (
                "gauges".into(),
                JsonValue::Object(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), JsonValue::from(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                JsonValue::Object(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ]);
        JsonValue::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn fcounters_accumulate_fractions() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.fcounter("e"), 0.0);
        m.fadd("e", 0.25);
        m.fadd("e", 1.5);
        assert_eq!(m.fcounter("e"), 1.75);
        assert!(!m.is_empty());
        let json = m.to_json();
        assert_eq!(
            json.get("fcounters")
                .and_then(|f| f.get("e"))
                .and_then(JsonValue::as_f64),
            Some(1.75)
        );
        // A registry without fcounters keeps the original 3-key shape.
        let mut plain = MetricsRegistry::new();
        plain.inc("c");
        assert!(plain.to_json().get("fcounters").is_none());
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("g", 1.0);
        m.set_gauge("g", -2.5);
        assert_eq!(m.gauge("g"), Some(-2.5));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_values() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 10.0] {
            h.observe(v);
        }
        // <=1: {0.5, 1.0}; <=2: {1.5}; <=4: {3.0}; +Inf: {10.0}.
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 16.0).abs() < 1e-12);
        assert!((h.mean().unwrap() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn registry_histogram_keeps_first_bounds() {
        let mut m = MetricsRegistry::new();
        m.observe("h", &[1.0, 2.0], 0.5);
        m.observe("h", &[99.0], 1.5);
        let h = m.histogram("h").unwrap();
        assert_eq!(h.bounds(), &[1.0, 2.0]);
        assert_eq!(h.count(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn json_snapshot_lists_all_metric_families() {
        let mut m = MetricsRegistry::new();
        m.inc("c");
        m.set_gauge("g", 2.0);
        m.observe("h", &[1.0], 0.5);
        let json = m.to_json();
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("c"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            json.get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
        let h = json.get("histograms").and_then(|h| h.get("h")).unwrap();
        assert_eq!(h.get("count").and_then(JsonValue::as_u64), Some(1));
    }
}
