//! Metric names, units, summary statistics and the result line.

use std::collections::BTreeMap;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_us_per_req", "us"),
    ("net_kb_per_req", "KB"),
    ("peak_rss_mb", "MB"),
    ("answered_frac", "fraction"),
    ("unavail_ms", "ms"),
    ("recovery_ms", "ms"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.events_per_req", "count"),
    ("simnet.msgs_per_req", "count"),
    ("simnet.self_ns_per_event", "ns"),
    ("orb.client_us_per_req", "us"),
    ("orb.marshal_kb_per_req", "KB"),
    ("orb.retries_per_req", "count"),
    ("group.sends_per_req", "count"),
    ("group.frame_copies_per_req", "count"),
    ("group.wire_kb_per_req", "KB"),
    ("group.deliveries_per_req", "count"),
    ("group.batch_occupancy_mean", "count"),
    ("group.retransmits_per_req", "count"),
    ("group.suspicions", "count"),
    ("group.fault_detection_ms", "ms"),
    ("group.heartbeats_per_s", "1/s"),
    ("replica.group_us_per_req", "us"),
    ("replica.orb_us_per_req", "us"),
    ("replica.timer_us_per_req", "us"),
    ("core.executions_per_req", "count"),
    ("core.ckpt_kb_per_req", "KB"),
    ("core.ckpt_delta_frac", "fraction"),
    ("core.ckpt_rejected", "count"),
    ("core.switch_ms", "ms"),
    ("core.failovers", "count"),
    ("recovery.detect_ms", "ms"),
    ("recovery.respawn_ms", "ms"),
    ("recovery.attempts", "count"),
    ("recovery.mttr_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// The reply-gap quantile reported as `unavail_ms` on a crash-free
/// workload: the stall one reply in a hundred waits through.
pub const UNAVAIL_QUANTILE: f64 = 0.99;

/// Named metric values of one run.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted in the measured runs.
    pub attempted: u64,
    /// Attempted requests given up or left unanswered.
    pub failed: u64,
    /// Metric values by name (the end-to-end or the per-layer set).
    pub values: Values,
    /// Extra lines for the human-readable report (sample counts, the
    /// figures the JSON line leaves out).
    pub notes: Vec<String>,
    /// Failed output checks; any entry makes the run exit nonzero.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: one JSON object with exactly the keys the benchmark
/// contract names, every metric of `spec` present.
pub fn json_line(outcome: &Outcome, spec: &[(&str, &str)]) -> String {
    let metrics = spec
        .iter()
        .map(|(name, unit)| {
            let value = outcome.values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// A JSON number with every digit the `f64` holds (non-finite → 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_spec() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.values.insert("setup_s", 0.001);
        let line = json_line(&outcome, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        outcome.check(false, || "broken".into());
        assert!(json_line(&outcome, PER_LAYER).starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let declared = include_str!("../../BENCHMARK.json");
        let names = declared.matches("\"name\": ").count();
        let workloads = declared.matches("\"why\": ").count();
        assert_eq!(names, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "{name} [{unit}] not declared");
        }
    }
}
