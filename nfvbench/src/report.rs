//! Metric definitions and the result line.
//!
//! End-to-end metrics come from an untraced pass; per-layer metrics from a
//! traced pass, whose spans are timed around the benchmark's calls into
//! each layer and whose work counts are the program's telemetry counters.

use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::workloads::{Pass, SetupTimes};
use std::fmt::Write as _;
use telemetry::Counter as C;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Decisions per second of the timed phase.
#[must_use]
pub fn decisions_per_s(pass: &Pass) -> f64 {
    ratio(pass.offered as f64, pass.timed_s)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metrics of an untraced pass. Admission quality is
/// deterministic for a seed; only the timings and memory vary.
#[must_use]
pub fn end_to_end(setup: &SetupTimes, pass: &Pass, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        m("decisions_per_s", "1/s", decisions_per_s(pass)),
        m("decision_p50_ms", "ms", median(&pass.latencies_ms)),
        m("decision_p95_ms", "ms", quantile(&pass.latencies_ms, 0.95)),
        m(
            "admit_ratio",
            "ratio",
            ratio(pass.admitted as f64, pass.offered as f64),
        ),
        m(
            "cost_per_admit",
            "cost",
            ratio(pass.cost_sum, pass.admitted as f64),
        ),
        m(
            "kept_ratio",
            "ratio",
            ratio((pass.admitted - pass.not_kept) as f64, pass.admitted as f64),
        ),
        m("setup_s", "s", median(&setup.total_s)),
        m("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// Per-decision work counts and hit ratios read from telemetry. These are
/// deterministic for a seed, except the pipeline's stall and snapshot
/// counts, which depend on thread scheduling.
#[must_use]
pub fn work_counts(pass: &Pass, servers: usize) -> Vec<Metric> {
    let n = pass.offered as f64;
    let c = |x: C| pass.counter(x) as f64;
    let per = |x: C| ratio(c(x), n);
    let pruned = c(C::CombosPrunedLb1) + c(C::CombosPrunedLb2) + c(C::CombosDeduped);
    let p = &pass.pipeline;
    vec![
        m(
            "netgraph.dijkstra_runs_per_decision",
            "count",
            per(C::DijkstraRuns),
        ),
        m(
            "netgraph.heap_decrease_keys_per_decision",
            "count",
            per(C::HeapDecreaseKeys),
        ),
        m(
            "netgraph.oracle_builds_per_decision",
            "count",
            per(C::OracleBuilds),
        ),
        m(
            "netgraph.voronoi_closure_builds_per_decision",
            "count",
            per(C::VoronoiClosureBuilds),
        ),
        m(
            "core.combos_evaluated_per_decision",
            "count",
            per(C::CombosEvaluated),
        ),
        m(
            "core.combos_pruned_ratio",
            "ratio",
            ratio(pruned, pruned + c(C::CombosEvaluated)),
        ),
        m(
            "netgraph.spt_cache_hit_ratio",
            "ratio",
            ratio(
                c(C::SptCacheHits),
                c(C::SptCacheHits) + c(C::SptCacheMisses),
            ),
        ),
        m(
            "core.path_cache_slow_ratio",
            "ratio",
            ratio(
                c(C::PathCacheSlowPath),
                c(C::PathCacheSlowPath) + c(C::PathCacheFastPath),
            ),
        ),
        m(
            "online.admission_graph_rebuilds_per_decision",
            "count",
            per(C::AdmissionCacheRebuilds),
        ),
        m(
            "online.admission_cache_hit_ratio",
            "ratio",
            ratio(
                c(C::AdmissionCacheHits),
                c(C::AdmissionCacheHits) + c(C::AdmissionCacheRebuilds),
            ),
        ),
        m(
            "online.candidates_pruned_ratio",
            "ratio",
            ratio(c(C::OnlineCandidatesPruned), n * servers as f64),
        ),
        m(
            "online.threshold_reject_share",
            "ratio",
            per(C::OnlineRejectedThreshold),
        ),
        m(
            "sdn.release_share",
            "ratio",
            ratio(pass.after_release as f64, n),
        ),
        m(
            "engine.pipeline.speculative_hit_ratio",
            "ratio",
            ratio(
                p.speculative_hits as f64,
                (p.speculative_hits + p.replanned) as f64,
            ),
        ),
        m(
            "engine.repair.broken_per_fault",
            "count",
            ratio(pass.broken as f64, pass.faults as f64),
        ),
    ]
}

/// The per-layer metrics of a traced pass. `untraced_dps` is the
/// decisions/s of an untraced pass of the same inputs in the same
/// process. A span a workload never opens reads 0.
#[must_use]
pub fn per_layer(
    setup: &SetupTimes,
    traced: &Pass,
    tracer: &Tracer,
    servers: usize,
    untraced_dps: f64,
) -> Vec<Metric> {
    let n = traced.offered as f64;
    let p = &traced.pipeline;
    let self_q = |name: &str, q: f64| quantile(&tracer.self_ms(name), q);
    let mut out = vec![
        m("topology.build_ms", "ms", median(&setup.topology_ms)),
        m("workload.generate_ms", "ms", median(&setup.generate_ms)),
        m(
            "core.plan_ms_p50",
            "ms",
            self_q("appro_multi_cap_with_scratch", 0.5),
        ),
        m(
            "core.plan_ms_p95",
            "ms",
            self_q("appro_multi_cap_with_scratch", 0.95),
        ),
        m("online.admit_ms_p50", "ms", self_q("OnlineCp::admit", 0.5)),
        m(
            "sdn.allocate_us_p50",
            "us",
            self_q("Sdn::allocate", 0.5) * 1e3,
        ),
        m(
            "engine.pipeline.stalls_per_decision",
            "count",
            ratio(p.stalls as f64, n),
        ),
        m(
            "engine.pipeline.snapshots_per_decision",
            "count",
            ratio(p.snapshots as f64, n),
        ),
        m(
            "engine.pipeline.push_ms_p95",
            "ms",
            self_q("AdmissionPipeline::push", 0.95),
        ),
        m(
            "engine.repair.inject_ms_p50",
            "ms",
            self_q("AdmissionPipeline::inject", 0.5),
        ),
        m(
            "engine.repair.inject_ms_p95",
            "ms",
            self_q("AdmissionPipeline::inject", 0.95),
        ),
        m("engine.audit_ms", "ms", median(&traced.audit_ms)),
        m(
            "telemetry.trace_overhead_ratio",
            "ratio",
            ratio(decisions_per_s(traced), untraced_dps),
        ),
    ];
    out.extend(work_counts(traced, servers));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result object printed as the last line of standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[m("setup_s", "s", 0.5), m("x", "ms", 2.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }
}
