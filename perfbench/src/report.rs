//! Stamps, the machine-readable result line, result files, and the
//! stamp-checked comparison of two result files.

use crate::run::{Metric, Outcome, Span};
use doqlab_telemetry::qlog::{self, Json};

/// What a result depends on besides the code. Results whose stamps
/// differ — another machine, worker count, seed, build or grid — are not
/// comparable.
pub struct Stamp {
    pub workload: &'static str,
    pub nproc: usize,
    pub workers: usize,
    pub seed: u64,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// How `allocs_per_unit` was counted.
    pub count_allocs: &'static str,
    pub units_per_pass: usize,
    pub trace: bool,
}

impl Stamp {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"nproc\":{},\"workers\":{},\"seed\":{},\"profile\":\"{}\",\
             \"count_allocs\":\"{}\",\"units_per_pass\":{},\"trace\":{}}}",
            self.workload,
            self.nproc,
            self.workers,
            self.seed,
            self.profile,
            self.count_allocs,
            self.units_per_pass,
            self.trace
        )
    }
}

/// `{"<name>":{"value":<v>,"unit":"<u>"},...}`, each value with every
/// digit measured.
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

/// A result file: stamp, sample digest, pass count and metrics.
pub fn result_file(stamp: &Stamp, outcome: &Outcome) -> String {
    format!(
        "{{\"stamp\":{},\"digest\":\"{:016x}\",\"correct\":{},\"passes\":{},\"metrics\":{}}}\n",
        stamp.to_json(),
        outcome.digest,
        outcome.problems.is_empty(),
        outcome.passes,
        metrics_json(&outcome.metrics)
    )
}

/// The span tree as JSON lines, times in µs on the run's clock.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}",
            span.name,
            span.start_ns as f64 * 1e-3,
            span.end_ns as f64 * 1e-3
        ));
        if let Some((worker, u)) = span.unit {
            out.push_str(&format!(
                ",\"worker\":{worker},\"vp\":{},\"resolver\":{},\"page\":{},\"transport\":{},\"rep\":{}",
                u.vp, u.resolver, u.page, u.transport, u.rep
            ));
        }
        out.push_str("}\n");
    }
    out
}

/// Compare two result files metric by metric. Refuses when their stamps
/// differ; reports a changed sample digest as output drift.
pub fn compare(base: &str, new: &str) -> Result<String, String> {
    let base = qlog::parse(base.trim()).map_err(|e| format!("base result: {e}"))?;
    let new = qlog::parse(new.trim()).map_err(|e| format!("new result: {e}"))?;
    match (base.get("stamp"), new.get("stamp")) {
        (Some(a), Some(b)) if a == b => {}
        (a, b) => {
            return Err(format!(
                "stamps differ, so the results are not comparable:\n  base {a:?}\n  new  {b:?}"
            ))
        }
    }
    let (Some(Json::Obj(base_metrics)), Some(new_metrics)) =
        (base.get("metrics"), new.get("metrics"))
    else {
        return Err("a result without metrics".to_string());
    };
    let digest = |r: &Json| {
        r.get("digest")
            .and_then(Json::as_str)
            .unwrap_or("-")
            .to_string()
    };
    let mut out = if digest(&base) == digest(&new) {
        format!("sample digest {} on both sides\n", digest(&base))
    } else {
        format!(
            "sample digest changed: {} -> {} (the outputs drifted)\n",
            digest(&base),
            digest(&new)
        )
    };
    out.push_str(&format!(
        "{:<36} {:>16} {:>16} {:>9}\n",
        "metric", "base", "new", "change"
    ));
    let value = |m: &Json| m.get("value").and_then(Json::as_f64);
    for (name, m) in base_metrics {
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        out.push_str(&match (value(m), new_metrics.get(name).and_then(value)) {
            (Some(a), Some(b)) => format!(
                "{name:<36} {a:>16.6} {b:>16.6} {:>+8.2}% {unit}\n",
                (b / a - 1.0) * 100.0
            ),
            _ => format!("{name:<36} missing on one side\n"),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            units_per_pass: 3,
            passes: 2,
            attempted: 6,
            failed: 0,
            digest: 0xabc,
            problems: Vec::new(),
            metrics: vec![Metric {
                name: "units_per_s",
                value: 12.5,
                unit: "1/s",
            }],
            spans: Vec::new(),
        }
    }

    fn stamp(seed: u64) -> Stamp {
        Stamp {
            workload: "handshake",
            nproc: 2,
            workers: 2,
            seed,
            profile: "release",
            count_allocs: "separate one-worker passes",
            units_per_pass: 3,
            trace: false,
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        assert_eq!(
            result_line(&outcome()),
            r#"{"correct":true,"attempted":6,"failed":0,"metrics":{"units_per_s":{"value":12.5,"unit":"1/s"}}}"#
        );
    }

    #[test]
    fn compare_refuses_results_whose_stamps_differ() {
        let a = result_file(&stamp(1), &outcome());
        let b = result_file(&stamp(2), &outcome());
        assert!(compare(&a, &b).is_err());
        let same = compare(&a, &a).expect("equal stamps compare");
        assert!(same.contains("units_per_s") && same.contains("+0.00%"));
    }
}
