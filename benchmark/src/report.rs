//! Run records, their summaries, and the comparison `--selfcheck` makes.
//!
//! A *record* is one run: host fingerprint, arguments, and the result line.
//! A *summary* folds several records into per-workload, per-metric medians
//! and quartiles; it is what `benchmark/results/` keeps.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::metrics::{find, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::{Args, WORKLOADS};

/// The record of one run.
pub fn record(args: &Args, host: Value, result: Value) -> Value {
    Value::Obj(vec![
        ("host".into(), host),
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("result".into(), result),
    ])
}

/// Read one JSON file.
///
/// # Errors
/// The path with what went wrong.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Fold records into a summary: for each workload (in `BENCHMARK.json`
/// order) and mode, every metric's values with median and quartiles.
///
/// # Errors
/// A malformed record, or one whose run was not correct.
pub fn summarize(records: &[Value]) -> Result<Value, String> {
    // (workload, traced) -> seeds and metric -> (unit, values)
    type Group = (Vec<f64>, Vec<(String, String, Vec<f64>)>);
    let mut groups: BTreeMap<(usize, bool), Group> = BTreeMap::new();
    let mut host = Value::Null;
    let mut seconds = 0.0;
    for (i, rec) in records.iter().enumerate() {
        let path = format!("record {i}");
        let field = |k: &str| rec.get(k).ok_or_else(|| format!("{path}: no {k}"));
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string();
        let order = WORKLOADS
            .iter()
            .position(|w| *w == workload)
            .ok_or_else(|| format!("{path}: unknown workload {workload}"))?;
        let traced = field("trace")?.as_bool().ok_or("trace is not a bool")?;
        let result = field("result")?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{path}: the run was not correct"));
        }
        host = field("host")?.clone();
        seconds = field("seconds")?
            .as_f64()
            .ok_or("seconds is not a number")?;
        let group = groups.entry((order, traced)).or_default();
        group
            .0
            .push(field("seed")?.as_f64().ok_or("seed is not a number")?);
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("no metrics")?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            let unit = entry
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            match group.1.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, values)) => values.push(value),
                None => group.1.push((name.clone(), unit, vec![value])),
            }
        }
    }
    // The seed is per run; the summary lists them per workload instead.
    if let Value::Obj(fields) = &mut host {
        fields.retain(|(k, _)| k != "seed");
    }
    let mut workloads = Vec::new();
    for ((order, traced), (seeds, metrics)) in groups {
        let metrics = metrics
            .into_iter()
            .map(|(name, unit, values)| {
                let s = Summary::of(&values);
                let entry = obj(vec![
                    ("unit", Value::Str(unit)),
                    ("median", Value::Num(s.median)),
                    ("q1", Value::Num(s.q1)),
                    ("q3", Value::Num(s.q3)),
                    ("spread", Value::Num(s.spread())),
                    (
                        "values",
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ),
                ]);
                (name, entry)
            })
            .collect();
        workloads.push(obj(vec![
            ("workload", Value::Str(WORKLOADS[order].into())),
            ("traced", Value::Bool(traced)),
            ("runs", Value::Num(seeds.len() as f64)),
            (
                "seeds",
                Value::Arr(seeds.into_iter().map(Value::Num).collect()),
            ),
            ("metrics", Value::Obj(metrics)),
        ]));
    }
    Ok(obj(vec![
        ("host", host),
        ("run_seconds", Value::Num(seconds)),
        ("workloads", Value::Arr(workloads)),
    ]))
}

fn bounds(manifest: &Value) -> Result<Vec<(String, f64)>, String> {
    manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn medians(summary: &Value) -> Result<BTreeMap<(String, bool, String), f64>, String> {
    let mut out = BTreeMap::new();
    for group in summary
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("no workloads")?
    {
        let workload = group
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("no workload")?;
        let traced = group
            .get("traced")
            .and_then(Value::as_bool)
            .ok_or("no traced")?;
        for (name, entry) in group
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("no metrics")?
        {
            let median = entry
                .get("median")
                .and_then(Value::as_f64)
                .ok_or("no median")?;
            out.insert((workload.to_string(), traced, name.clone()), median);
        }
    }
    Ok(out)
}

/// Compare two summaries of the same code: every end-to-end median within
/// its bound of the other's, every exact count identical. Returns the
/// lines to print and whether the two agree.
///
/// # Errors
/// Malformed input, or summaries that do not cover the same metrics.
pub fn compare(manifest: &Value, a: &Value, b: &Value) -> Result<(Vec<String>, bool), String> {
    let bounds = bounds(manifest)?;
    let (a, b) = (medians(a)?, medians(b)?);
    if a.keys().ne(b.keys()) {
        return Err("the two sets do not cover the same workloads and metrics".into());
    }
    let mut lines = Vec::new();
    let mut agree = true;
    for ((workload, traced, name), &va) in &a {
        let vb = b[&(workload.clone(), *traced, name.clone())];
        let def: Option<&MetricDef> = if *traced {
            find(PER_LAYER, name)
        } else {
            find(END_TO_END, name)
        };
        let def = def.ok_or_else(|| format!("{name} is not in the catalogue"))?;
        let diff = if va == vb {
            0.0
        } else {
            (vb - va).abs() / va.abs().max(vb.abs())
        };
        let verdict = if !*traced {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("{name} has no bound in BENCHMARK.json"))?;
            if diff <= bound {
                format!("ok (bound {:.1}%)", bound * 100.0)
            } else {
                agree = false;
                format!("DIFFERS by more than its bound of {:.1}%", bound * 100.0)
            }
        } else if def.exact {
            if va == vb {
                "ok (exact)".to_string()
            } else {
                agree = false;
                "DIFFERS, and must repeat exactly".to_string()
            }
        } else {
            "(no bound)".to_string()
        };
        lines.push(format!(
            "{workload:<15} {name:<32} {va:>14.6} {vb:>14.6} {:>7.2}%  {verdict}",
            diff * 100.0
        ));
    }
    Ok((lines, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(e2e: &[(&str, f64)], layer: &[(&str, f64)]) -> Value {
        let group = |traced: bool, metrics: &[(&str, f64)]| {
            obj(vec![
                ("workload", Value::Str("hv_ne8".into())),
                ("traced", Value::Bool(traced)),
                (
                    "metrics",
                    Value::Obj(
                        metrics
                            .iter()
                            .map(|(n, v)| (n.to_string(), obj(vec![("median", Value::Num(*v))])))
                            .collect(),
                    ),
                ),
            ])
        };
        obj(vec![(
            "workloads",
            Value::Arr(vec![group(false, e2e), group(true, layer)]),
        )])
    }

    fn manifest() -> Value {
        parse(
            r#"{"end_to_end": [{"name": "step_ms_p50", "bound": 0.05},
                               {"name": "sypd", "bound": 0.05}]}"#,
        )
        .expect("test manifest")
    }

    #[test]
    fn compare_accepts_differences_inside_the_bound() {
        let a = summary_of(
            &[("step_ms_p50", 270.0), ("sypd", 1.0)],
            &[("hypervis.subcycles", 36.0)],
        );
        let b = summary_of(
            &[("step_ms_p50", 280.0), ("sypd", 0.97)],
            &[("hypervis.subcycles", 36.0)],
        );
        let (lines, agree) = compare(&manifest(), &a, &b).expect("comparable");
        assert!(agree, "{lines:#?}");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn compare_rejects_a_timing_beyond_its_bound_in_either_direction() {
        let a = summary_of(&[("step_ms_p50", 270.0), ("sypd", 1.0)], &[]);
        for other in [300.0, 240.0] {
            let b = summary_of(&[("step_ms_p50", other), ("sypd", 1.0)], &[]);
            let (_, agree) = compare(&manifest(), &a, &b).expect("comparable");
            assert!(!agree, "{other} passed");
        }
    }

    #[test]
    fn compare_rejects_any_change_in_an_exact_count_but_not_in_a_timing() {
        let a = summary_of(&[], &[("hypervis.subcycles", 36.0), ("prim.rk_ms", 30.0)]);
        let b = summary_of(&[], &[("hypervis.subcycles", 36.0), ("prim.rk_ms", 45.0)]);
        assert!(compare(&manifest(), &a, &b).expect("comparable").1);
        let c = summary_of(&[], &[("hypervis.subcycles", 35.0), ("prim.rk_ms", 30.0)]);
        assert!(!compare(&manifest(), &a, &c).expect("comparable").1);
    }

    #[test]
    fn compare_refuses_sets_that_cover_different_metrics() {
        let a = summary_of(&[("step_ms_p50", 270.0)], &[]);
        let b = summary_of(&[("sypd", 1.0)], &[]);
        assert!(compare(&manifest(), &a, &b).is_err());
    }

    #[test]
    fn summarize_folds_records_into_medians_and_quartiles() {
        let records: Vec<Value> = [270.0, 280.0, 260.0]
            .into_iter()
            .enumerate()
            .map(|(i, ms)| {
                let args = Args {
                    workload: "hv_ne8".into(),
                    seed: i as u64,
                    seconds: 20.0,
                    trace: false,
                    steps: None,
                    trace_out: None,
                    out: None,
                };
                let result = parse(&format!(
                    r#"{{"correct": true, "attempted": 70, "failed": 0,
                        "metrics": {{"step_ms_p50": {{"value": {ms}, "unit": "ms"}}}}}}"#
                ))
                .expect("test result");
                let host = obj(vec![
                    ("cpu_model", Value::Str("test".into())),
                    ("seed", Value::Num(i as f64)),
                ]);
                // Through text, as a record file would go.
                parse(&record(&args, host, result).to_json()).expect("record parses")
            })
            .collect();
        let summary = summarize(&records).expect("summary");
        let group = &summary
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("groups")[0];
        assert_eq!(group.get("runs").and_then(Value::as_f64), Some(3.0));
        let metric = group
            .get("metrics")
            .and_then(|m| m.get("step_ms_p50"))
            .expect("metric");
        assert_eq!(metric.get("median").and_then(Value::as_f64), Some(270.0));
        assert_eq!(metric.get("q1").and_then(Value::as_f64), Some(260.0));
        assert!(summary.get("host").and_then(|h| h.get("seed")).is_none());
    }
}
