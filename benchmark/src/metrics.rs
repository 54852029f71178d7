//! The metric catalogue: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` at the repository root restates it (and
//! adds the end-to-end bounds); a test keeps the two identical.

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counts made by the program that must repeat exactly between two runs
    /// of the same code and seed (`--selfcheck` compares them bit for bit).
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the model sees. Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    timed("setup_s", "s", Lower),
    timed("step_ms_p50", "ms", Lower),
    timed("sypd", "sim_yr/day", Higher),
    timed("peak_rss_mb", "MiB", Lower),
];

/// Single layers, from the traced run. A metric whose layer a workload does
/// not run reads 0 there (the README says which).
pub const PER_LAYER: &[MetricDef] = &[
    // Set-up, by the layer that is built.
    timed("cubesphere.grid_build_ms", "ms", Lower),
    timed("cubesphere.partition_ms", "ms", Lower),
    timed("prim.build_ms", "ms", Lower),
    timed("dist.build_ms", "ms", Lower),
    timed("swmpi.world_connect_ms", "ms", Lower),
    timed("ensemble.construction_ms", "ms", Lower),
    // homme::prim phases of one step (member-batched on ens_aqua_l4).
    timed("prim.rk_ms", "ms", Lower),
    timed("prim.hypervis_ms", "ms", Lower),
    timed("prim.tracer_ms", "ms", Lower),
    timed("prim.remap_ms", "ms", Lower),
    timed("prim.phase_sum_ms", "ms", Lower),
    // homme::hypervis and homme::dss.
    exact("hypervis.subcycles", "count", Lower),
    timed("hypervis.ms_per_subcycle", "ms", Lower),
    timed("dss.apply4_ms", "ms", Lower),
    timed("dss.share_of_hypervis", "ratio", Lower),
    // homme::sched.
    timed("sched.parallel_efficiency", "ratio", Higher),
    timed("sched.phase_speedup.rk", "ratio", Higher),
    timed("sched.phase_speedup.hypervis", "ratio", Higher),
    timed("sched.phase_speedup.tracer", "ratio", Higher),
    timed("sched.phase_speedup.remap", "ratio", Higher),
    // physics.
    timed("physics.apply_ms", "ms", Lower),
    timed("physics.columns_per_s", "1/s", Higher),
    // Kernel rates: documented operation counts over measured phase time.
    timed("rhs.gflops_computed", "GF/s", Higher),
    timed("hypervis.gflops_computed", "GF/s", Higher),
    timed("euler.gbps_computed", "GB/s", Higher),
    timed("remap.gbps_computed", "GB/s", Higher),
    timed("host.triad_gbps", "GB/s", Higher),
    // All drivers.
    exact("alloc.per_step", "count", Lower),
    // homme::bndry and swmpi, per step and rank.
    exact("bndry.msgs_per_step", "count", Lower),
    exact("bndry.payload_bytes_per_step", "bytes", Lower),
    exact("bndry.staged_bytes_per_step", "bytes", Lower),
    timed("swmpi.retry_attempts", "count", Lower),
    exact("swmpi.recovered", "count", Lower),
    exact("swmpi.stale_dropped", "count", Lower),
    timed("bndry.exchange_ms", "ms", Lower),
    timed("bndry.exchange_ms_mailbox", "ms", Lower),
    timed("dist.exchange_share", "ratio", Lower),
    timed("swmpi.tcp_over_mailbox", "ratio", Lower),
    // homme::dist phases of one step.
    timed("dist.rk_ms", "ms", Lower),
    timed("dist.hypervis_ms", "ms", Lower),
    timed("dist.tracer_ms", "ms", Lower),
    timed("dist.remap_ms", "ms", Lower),
    timed("dist.parallel_efficiency", "ratio", Higher),
    // core::ensemble.
    timed("ensemble.member_steps_per_s", "1/s", Higher),
    exact("ensemble.lane_occupancy", "ratio", Higher),
    timed("ensemble.speedup_vs_standalone", "ratio", Higher),
    exact("ensemble.rollbacks", "count", Lower),
    exact("ensemble.members_failed", "count", Lower),
    // The harness itself: trust in the rows above.
    timed("run.step_ms_p90", "ms", Lower),
    timed("run.step_ms_iqr", "ms", Lower),
    timed("run.samples", "count", Higher),
    exact("run.failed_frac", "ratio", Lower),
    timed("trace.overhead_frac", "ratio", Lower),
    timed("check.mass_drift_rel", "ratio", Lower),
];

pub fn find(defs: &'static [MetricDef], name: &str) -> Option<&'static MetricDef> {
    defs.iter().find(|d| d.name == name)
}

/// The values of one run, one slot per catalogue entry.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    /// All zeros: what a layer that did not run reports.
    pub fn zeros(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// # Panics
    /// On a name outside the catalogue or a non-finite value: both are bugs
    /// in the benchmark, and neither may reach the result line.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[slot] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        let slot = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .expect("catalogued metric");
        self.values[slot]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in catalogue order.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(d, v)| {
                    let entry = Value::Obj(vec![
                        ("value".into(), Value::Num(v)),
                        ("unit".into(), Value::Str(d.unit.into())),
                    ]);
                    (d.name.to_string(), entry)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        crate::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_units_better(section: &Value) -> Vec<(String, String, String)> {
        section
            .as_arr()
            .expect("array of metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_restates_the_catalogue() {
        let doc = manifest();
        assert_eq!(
            names_units_better(doc.get("end_to_end").expect("end_to_end")),
            catalogue(END_TO_END)
        );
        assert_eq!(
            names_units_better(doc.get("per_layer").expect("per_layer")),
            catalogue(PER_LAYER)
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_contract() {
        let doc = manifest();
        for m in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end")
        {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn setting_an_unknown_metric_panics() {
        Metrics::zeros(END_TO_END).set("latency_ms", 1.0);
    }
}
