//! The metric names and units this benchmark prints. `BENCHMARK.json`
//! lists the same names (a test holds the two together); directions and
//! regression bounds live there only.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 5] = [
    "sim_gallery",
    "compile_verify",
    "serve_hot",
    "serve_unique",
    "sharded_net",
];

/// End-to-end metrics: printed by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: printed by every workload's traced run. A
/// workload that does not exercise a layer prints `0` for it.
pub const PER_LAYER: [(&str, &str); 91] = [
    // snitch-sim (sim_gallery)
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim.host_ns_per_cycle.base", "ns"),
    ("sim.host_ns_per_cycle.saris", "ns"),
    ("sim.host_ns_per_cycle.saris_dma", "ns"),
    ("sim.cycles.base", "cycles"),
    ("sim.cycles.saris", "cycles"),
    ("sim.cycles_fast_forwarded", "cycles"),
    ("sim.fpu_util.base", "ratio"),
    ("sim.fpu_util.saris", "ratio"),
    ("sim.ipc.base", "ratio"),
    ("sim.ipc.saris", "ratio"),
    ("sim.tcdm_accesses", "count"),
    ("sim.tcdm_conflicts", "count"),
    ("sim.tcdm_wait_cycles", "cycles"),
    ("sim.icache_misses", "count"),
    ("sim.stall.int_lsu", "cycles"),
    ("sim.stall.int_offload_full", "cycles"),
    ("sim.stall.int_icache", "cycles"),
    ("sim.stall.int_branch", "cycles"),
    ("sim.stall.int_drain", "cycles"),
    ("sim.stall.fpu_dependency", "cycles"),
    ("sim.stall.fpu_stream_empty", "cycles"),
    ("sim.stall.fpu_stream_full", "cycles"),
    ("sim.stall.fpu_lsu_busy", "cycles"),
    ("sim.stall.fpu_idle", "cycles"),
    ("sim.ssr.elems", "count"),
    ("sim.ssr.idx_fetches", "count"),
    ("sim.ssr.idle_full_cycles", "cycles"),
    ("sim.dma.bytes", "bytes"),
    ("sim.dma.busy_cycles", "cycles"),
    // saris-codegen
    ("codegen.compile_us.base", "us"),
    ("codegen.compile_us.saris", "us"),
    ("codegen.instrs_total", "count"),
    ("codegen.infeasible", "count"),
    ("codegen.freeze_us", "us"),
    ("session.submit_us.cycles", "us"),
    ("session.submit_us.golden", "us"),
    ("session.submit_us.analytic", "us"),
    ("session.compiles", "count"),
    ("session.kernel_cache_hits", "count"),
    ("session.clusters_reused", "count"),
    ("wire.encode_spec_us", "us"),
    ("wire.decode_spec_us", "us"),
    ("wire.encode_outcome_us", "us"),
    ("wire.decode_outcome_us", "us"),
    ("wire.spec_bytes", "bytes"),
    ("wire.outcome_bytes", "bytes"),
    // saris-verify
    ("verify.kernel_us.base", "us"),
    ("verify.kernel_us.saris", "us"),
    ("verify.error_findings", "count"),
    ("verify.bound_cycles_total", "cycles"),
    ("verify.bound_tightness", "ratio"),
    // saris-core
    ("core.reference_simd_ns_per_point", "ns"),
    ("core.reference_scalar_ns_per_point", "ns"),
    ("core.sim_vs_reference_max_err", "ratio"),
    // saris-energy / saris-scaleout
    ("fidelity_err", "ratio"),
    ("model.speedup_geomean", "ratio"),
    ("model.fpu_util_saris_geomean", "ratio"),
    ("model.energy_gain_geomean", "ratio"),
    ("model.scaleout_speedup_geomean", "ratio"),
    ("model.scaleout_fpu_util_saris_geomean", "ratio"),
    ("model.scaleout_estimate_us", "us"),
    // saris-serve
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.executed", "count"),
    ("serve.batches_formed", "count"),
    ("serve.compiles_saved", "count"),
    ("serve.errors", "count"),
    ("serve.retries", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.repeat_us", "us"),
    ("serve.first_us.cycles", "us"),
    ("serve.first_us.golden", "us"),
    ("serve.first_us.analytic", "us"),
    ("serve.overhead_us.cycles", "us"),
    ("serve.overhead_us.golden", "us"),
    ("serve.overhead_us.analytic", "us"),
    ("net.connect_us", "us"),
    ("net.ping_rtt_us", "us"),
    ("net.submit_repeat_rtt_us", "us"),
    // saris-shard
    ("shard.route_ns", "ns"),
    ("shard.submit_us", "us"),
    ("shard.routed_imbalance", "ratio"),
    ("shard.retries", "count"),
    ("shard.rehashes", "count"),
    ("shard.unattributed_us", "us"),
    // driver
    ("driver.lat_p99_us", "us"),
    ("driver.pass_spread", "ratio"),
    ("driver.trace_overhead", "ratio"),
];

/// Metric values by name. Setting a name outside the declared list is a
/// bug in the benchmark and panics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "`{name}` is not a declared metric");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The names set to a non-zero value, in name order.
    pub fn nonzero(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0
            .iter()
            .filter(|(_, v)| **v != 0.0)
            .map(|(n, v)| (*n, *v))
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// The result line the contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`, every metric of `list` present
/// (absent ones read `0`), values with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = metrics.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris::codegen::json;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let doc = doc.as_object("benchmark").unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array(key)
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_object("metric").unwrap();
                    (
                        m["name"].as_str("name").unwrap().to_string(),
                        m["unit"].as_str("unit").unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array("workloads")
            .unwrap()
            .iter()
            .map(|w| {
                w.as_object("workload").unwrap()["name"]
                    .as_str("name")
                    .unwrap()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_listed_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        m.set("ops_per_s", 1234.5678901234);
        let line = result_line(true, 10, 0, &END_TO_END, &m);
        let doc = json::parse(&line).unwrap();
        let doc = doc.as_object("result").unwrap();
        assert_eq!(doc.len(), 4);
        assert!(doc["correct"].as_bool("correct").unwrap());
        let metrics = doc["metrics"].as_object("metrics").unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let ops = metrics["ops_per_s"].as_object("m").unwrap();
        assert_eq!(ops["value"].as_f64("v").unwrap(), 1234.5678901234);
        assert_eq!(ops["unit"].as_str("u").unwrap(), "1/s");
        assert_eq!(
            metrics["lat_p50_us"].as_object("m").unwrap()["value"]
                .as_f64("v")
                .unwrap(),
            0.0
        );
    }
}
