//! The benchmark's metric and workload tables — the single source of
//! the names `BENCHMARK.json` declares — and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric the benchmark emits.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// before a change counts as a regression (`None` for per-layer).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics (untraced run). Every workload reports every one
/// of them, each on the workload's own unit operation: one compiled
/// kernel call (`kernel_sweep`), one forward pass (`model_forward`),
/// one request from its due time to its completion (`serve_*`). Only
/// the best-case latency is gated (a closed loop's fastest operation,
/// an open loop's p10): on a shared host, speed can drift by tens of
/// percent over seconds to minutes, which moves medians and tails (and
/// queueing amplifies it) far more. The traced run reports p50/p90/p99
/// as `op.ms_*`. See `hostbench/README.md` for the measurements.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("kernel_gflops", "GFLOP/s", "higher", 0.25),
    e2e("op_ms_best", "ms", "lower", 0.25),
];

/// Per-layer metrics (traced run). A workload that does not exercise a
/// layer reports it as 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("plan.ms", "ms", "lower"),
    layer("compile.ms", "ms", "lower"),
    layer("core.exec_us", "us", "lower"),
    layer("core.gflops", "GFLOP/s", "higher"),
    layer("core.bytes_per_flop", "B/flop", "lower"),
    layer("core.panelize_frac", "frac", "lower"),
    layer("probe.triad_gbs", "GB/s", "higher"),
    layer("probe.fma_gflops", "GFLOP/s", "higher"),
    layer("sim.us_per_call", "us", "lower"),
    layer("sim.calls", "count", "lower"),
    layer("sim.instr_per_s", "instr/s", "higher"),
    layer("sim.host_share", "frac", "lower"),
    layer("sim.cycles_per_op", "cycles", "lower"),
    layer("registry.hit_rate", "frac", "higher"),
    layer("registry.cold_fetch_ms_p50", "ms", "lower"),
    layer("registry.cold_fetch_ms_p99", "ms", "lower"),
    layer("registry.plans", "count", "lower"),
    layer("registry.disk_loads", "count", "lower"),
    layer("registry.evictions", "count", "lower"),
    layer("batch.requests_mean", "count", "higher"),
    layer("batch.n_mean", "count", "higher"),
    layer("batch.assemble_us", "us", "lower"),
    layer("batch.split_us", "us", "lower"),
    layer("server.queue_ms_p50", "ms", "lower"),
    layer("server.queue_ms_p99", "ms", "lower"),
    layer("shard.route_us", "us", "lower"),
    layer("shard.imbalance", "ratio", "lower"),
    layer("shard.forwarded", "count", "lower"),
    layer("obs.overhead_frac", "frac", "lower"),
    layer("gen.late_ms_p99", "ms", "lower"),
    layer("serve.unattributed_frac", "frac", "lower"),
    layer("op.ms_p50", "ms", "lower"),
    layer("op.ms_p90", "ms", "lower"),
    layer("op.ms_p99", "ms", "lower"),
    layer("serve.goodput_per_s", "1/s", "higher"),
    layer("serve.fail_frac", "frac", "lower"),
];

/// A workload name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "kernel_sweep",
        why: "compiled SpMM alone on 4 DLMC shapes x N in {16,64,256}; no simulator, no serving, 4096^2 stream exceeds the per-core L2",
    },
    WorkloadDef {
        name: "model_forward",
        why: "closed-loop Session::forward over a 4-layer stack; the library path with no queue, dominated by gpu-sim",
    },
    WorkloadDef {
        name: "serve_zipf",
        why: "open-loop Poisson zipf traffic over 16 warmed models on 2 shards; queueing, batching and per-batch simulate, registry always hits",
    },
    WorkloadDef {
        name: "serve_churn",
        why: "same router over 64 models with flat zipf and shard budgets of a quarter of the models; every request may disk-load and evict",
    },
];

/// Metric values of one run, keyed by metric name.
#[derive(Default, Debug)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under `name`, which must be declared in
    /// [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Outcome of one workload run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
}

/// Renders the result line: every metric of `defs`, per-layer ones
/// defaulting to 0 where the workload does not exercise the layer.
/// Panics when an end-to-end metric is missing — a benchmark bug.
pub fn render(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut metrics = String::new();
    for (i, d) in defs.iter().enumerate() {
        let value = match (outcome.report.get(d.name), d.bound) {
            (Some(v), _) => v,
            (None, None) => 0.0,
            (None, Some(_)) => panic!("workload did not report end-to-end metric {}", d.name),
        };
        // JSON has no infinities; a non-finite value is clamped so the
        // line still parses (it can only arise from failed operations,
        // which `failed` already reports).
        let value = if value.is_finite() {
            value
        } else {
            f64::MAX.copysign(value)
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_obs::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        jigsaw_obs::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key)
            .unwrap_or_else(|| panic!("{key} missing"))
            .items()
    }

    fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
    }

    #[test]
    fn metric_tables_match_benchmark_json_exactly() {
        let doc = manifest();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = entries(&doc, key);
            assert_eq!(declared.len(), defs.len(), "{key} count");
            for (entry, def) in declared.iter().zip(defs) {
                assert_eq!(str_field(entry, "name"), def.name, "{key} order");
                assert_eq!(str_field(entry, "unit"), def.unit, "{} unit", def.name);
                assert_eq!(
                    str_field(entry, "better"),
                    def.better,
                    "{} better",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{} bound",
                    def.name
                );
            }
        }
        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(str_field(entry, "name"), w.name);
            assert_eq!(str_field(entry, "why"), w.why);
        }
    }

    #[test]
    fn rendered_line_carries_exactly_the_declared_names() {
        let mut report = Report::default();
        for d in END_TO_END {
            report.set(d.name, 1.5);
        }
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            report,
        };
        for (defs, trace) in [(END_TO_END, false), (PER_LAYER, true)] {
            let line = render(&outcome, defs);
            let doc = jigsaw_obs::parse(&line).expect("result line is JSON");
            let names = doc.get("metrics").expect("metrics object").keys();
            let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, want, "trace={trace}");
            assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        }
    }
}
