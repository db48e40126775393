//! Metric names, summary statistics and the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
    /// A layer reading with no preferred direction.
    Neither,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower is better",
            Better::Higher => "higher is better",
            Better::Neither => "",
        }
    }
}

/// The end-to-end metrics of an untraced run, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, Better); 7] = [
    ("setup_s", "s", Better::Lower),
    ("cell_s", "s", Better::Lower),
    ("events_per_s", "1/s", Better::Higher),
    ("slice_ms.p50", "ms", Better::Lower),
    ("slice_ms.p90", "ms", Better::Lower),
    ("resume_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// The per-layer metrics of a traced run, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("scenario.layout_ms", "ms"),
    ("scenario.build_ms", "ms"),
    ("world.self_ms", "ms"),
    ("world.self_share", "fraction"),
    ("world.self_ns_per_event", "ns"),
    ("world.events", "count"),
    ("world.events_per_frame", "ratio"),
    ("world.frames_in_flight.peak", "count"),
    ("world.tx_frames", "count"),
    ("world.rx_frames", "count"),
    ("world.collisions", "count"),
    ("world.queue_drops", "count"),
    ("world.retries", "count"),
    ("medium.fan_out.calls", "count"),
    ("medium.fan_out.ns_per_call", "ns"),
    ("medium.fan_out.share", "fraction"),
    ("medium.fan_out.rx_per_call", "ratio"),
    ("medium.fan_out.receivers", "count"),
    ("medium.cache_hit_ratio", "ratio"),
    ("medium.cache_hits", "count"),
    ("medium.cache_refreshes", "count"),
    ("medium.cache_rebuilds", "count"),
    ("medium.positions_changed.calls", "count"),
    ("medium.positions_changed.share", "fraction"),
    ("odmrp.query.calls", "count"),
    ("odmrp.query.share", "fraction"),
    ("odmrp.reply.calls", "count"),
    ("odmrp.reply.share", "fraction"),
    ("odmrp.data.calls", "count"),
    ("odmrp.data.share", "fraction"),
    ("odmrp.probe.calls", "count"),
    ("odmrp.probe.share", "fraction"),
    ("odmrp.timer.calls", "count"),
    ("odmrp.timer.share", "fraction"),
    ("odmrp.tx_complete.calls", "count"),
    ("odmrp.tx_complete.share", "fraction"),
    ("odmrp.lifecycle.calls", "count"),
    ("odmrp.lifecycle.share", "fraction"),
    ("odmrp.calls", "count"),
    ("odmrp.ns_per_call", "ns"),
    ("odmrp.share", "fraction"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("trace.overhead_share", "fraction"),
    ("trace.untraced_cell_s", "s"),
    ("trace.traced_cell_s", "s"),
];

/// Median of `xs` (which must be non-empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics (`xs` must be non-empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Whether the value is an exact count (printed as an integer).
    pub exact: bool,
}

/// Format `v` for JSON: integers exactly, everything else with all its
/// digits (Rust prints the shortest representation that round-trips).
pub fn json_number(v: f64, exact: bool) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    if exact {
        format!("{}", v as u64)
    } else {
        format!("{v:?}")
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &BTreeMap<&'static str, Metric>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_number(m.value, m.exact),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The benchmark's last line of output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, Metric>,
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// Human-readable metric table.
pub fn metric_table(
    metrics: &BTreeMap<&'static str, Metric>,
    better: impl Fn(&str) -> Better,
) -> String {
    let mut out = String::new();
    for (name, m) in metrics {
        let value = if m.exact {
            format!("{}", m.value as u64)
        } else {
            format!("{:.6}", m.value)
        };
        let _ = writeln!(
            out,
            "  {name:<34} {value:>18} {:<9} {}",
            m.unit,
            better(name).label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(
            (quantile(
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
                0.9
            ) - 10.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2, false), "0.30000000000000004");
        assert_eq!(json_number(15_730_657.0, true), "15730657");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }

    /// `BENCHMARK.json` must list exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = spec
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &spec[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layer);
    }
}
