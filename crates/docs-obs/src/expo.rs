//! Metric exposition: a small builder that renders one coherent snapshot
//! of every counter, gauge, and histogram as Prometheus text format and
//! as a JSON object, plus a strict-enough parser used by the CI smoke to
//! prove the text output is well-formed.
//!
//! The builder is deliberately dumb: callers register *families* (name +
//! help + kind) and append *samples* (label pairs + value). `ServiceMetrics`
//! walks its own counters into a builder; nothing here knows about shards
//! or campaigns, so the format can be tested in isolation.

use crate::journal::escape_json;
use std::fmt::Write as _;

/// Prometheus metric kinds the exposition emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    /// Rendered as pre-computed quantile samples (`{quantile="0.99"}`),
    /// i.e. a Prometheus *summary*, which matches a log-bucketed
    /// histogram snapshot better than cumulative `_bucket` series.
    Summary,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary => "summary",
        }
    }
}

/// One sample: label pairs plus a value. Values render like Rust's `{}`
/// float formatting with integer shortening.
#[derive(Debug, Clone)]
struct Sample {
    labels: Vec<(String, String)>,
    value: f64,
}

#[derive(Debug, Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<Sample>,
}

/// Builder for one exposition snapshot.
#[derive(Debug, Default)]
pub struct Exposition {
    families: Vec<Family>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a metric family and returns a handle to append samples.
    /// Family names must be unique per exposition and match
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*` (asserted in debug builds).
    pub fn family(
        &mut self,
        name: impl Into<String>,
        help: impl Into<String>,
        kind: MetricKind,
    ) -> FamilyHandle<'_> {
        let name = name.into();
        debug_assert!(valid_metric_name(&name), "bad metric name {name:?}");
        debug_assert!(
            !self.families.iter().any(|f| f.name == name),
            "duplicate family {name:?}"
        );
        self.families.push(Family {
            name,
            help: help.into(),
            kind,
            samples: Vec::new(),
        });
        FamilyHandle {
            family: self.families.last_mut().expect("just pushed"),
        }
    }

    /// Shorthand: a single-sample family with no labels.
    pub fn scalar(&mut self, name: &str, help: &str, kind: MetricKind, value: f64) {
        self.family(name, help, kind).sample(&[], value);
    }

    /// Renders the Prometheus text format (`# HELP` / `# TYPE` headers,
    /// one `name{labels} value` line per sample).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(self.families.len() * 96);
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.name());
            for s in &f.samples {
                out.push_str(&f.name);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}=\"{}\"", k, escape_label(v));
                    }
                    out.push('}');
                }
                let _ = writeln!(out, " {}", render_value(s.value));
            }
        }
        out
    }

    /// Renders the same snapshot as one JSON object:
    /// `{"family":[{"labels":{...},"value":n},...],...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (fi, f) in self.families.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":[", f.name);
            for (si, s) in f.samples.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (li, (k, v)) in s.labels.iter().enumerate() {
                    if li > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", k, escape_json(v));
                }
                let _ = write!(out, "}},\"value\":{}}}", render_value(s.value));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Appends samples to one registered family.
pub struct FamilyHandle<'a> {
    family: &'a mut Family,
}

impl FamilyHandle<'_> {
    /// Appends one sample with the given label pairs.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.family.samples.push(Sample {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
        self
    }
}

fn render_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validates Prometheus text exposition: every non-comment line must be
/// `name[{labels}] value`, every samples-bearing name must have been
/// declared by a preceding `# TYPE`, and values must parse as floats.
/// Returns the number of sample lines, or a description of the first
/// offending line. CI's `OBS_SMOKE` step runs the service exposition
/// through this.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut declared: Vec<&str> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !valid_metric_name(name) {
                return err("bad metric name in TYPE");
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return err("unknown metric kind");
            }
            declared.push(name);
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        // Sample line: name[{labels}] value
        let (name_and_labels, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return err("sample line has no value"),
        };
        if value.parse::<f64>().is_err() {
            return err("value does not parse as a float");
        }
        let name = match name_and_labels.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return err("unterminated label set");
                }
                let body = &labels[..labels.len() - 1];
                for pair in split_label_pairs(body) {
                    let (k, v) = match pair.split_once('=') {
                        Some(kv) => kv,
                        None => return err("label pair without '='"),
                    };
                    if !valid_metric_name(k) {
                        return err("bad label name");
                    }
                    if !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return err("label value not quoted");
                    }
                }
                name
            }
            None => name_and_labels,
        };
        if !valid_metric_name(name) {
            return err("bad metric name");
        }
        if !declared.contains(&name) {
            return err("sample for undeclared family (missing # TYPE)");
        }
        samples += 1;
    }
    Ok(samples)
}

/// Splits `k1="v1",k2="v2"` on commas outside quotes.
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_help_type_and_labeled_samples() {
        let mut expo = Exposition::new();
        expo.scalar("docs_up", "Service liveness.", MetricKind::Gauge, 1.0);
        expo.family("docs_ops_total", "Operations by kind.", MetricKind::Counter)
            .sample(&[("kind", "submit"), ("shard", "0")], 42.0)
            .sample(&[("kind", "assign"), ("shard", "0")], 7.0);
        let text = expo.render_prometheus();
        assert!(text.contains("# HELP docs_up Service liveness."));
        assert!(text.contains("# TYPE docs_up gauge"));
        assert!(text.contains("docs_up 1\n"));
        assert!(text.contains("docs_ops_total{kind=\"submit\",shard=\"0\"} 42"));
        assert_eq!(validate_prometheus(&text), Ok(3));
    }

    #[test]
    fn json_snapshot_mirrors_the_samples() {
        let mut expo = Exposition::new();
        expo.family("docs_lag_ns", "Lag.", MetricKind::Summary)
            .sample(&[("quantile", "0.99")], 1500.0);
        let json = expo.to_json();
        assert_eq!(
            json,
            "{\"docs_lag_ns\":[{\"labels\":{\"quantile\":\"0.99\"},\"value\":1500}]}"
        );
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(
            validate_prometheus("docs_up 1").is_err(),
            "undeclared family"
        );
        assert!(
            validate_prometheus("# TYPE docs_up gauge\ndocs_up one").is_err(),
            "non-numeric value"
        );
        assert!(
            validate_prometheus("# TYPE docs_up gauge\ndocs_up{k=\"v\" 1").is_err(),
            "unterminated labels"
        );
        assert!(
            validate_prometheus("# TYPE 9bad gauge").is_err(),
            "bad family name"
        );
        assert_eq!(
            validate_prometheus("# HELP x y\n# TYPE x counter\nx{a=\"b,c\"} 2.5"),
            Ok(1),
            "commas inside quoted label values are fine"
        );
    }

    #[test]
    fn integer_values_render_without_fraction() {
        assert_eq!(render_value(42.0), "42");
        assert_eq!(render_value(0.25), "0.25");
    }
}
