//! Per-layer metrics of a traced run: self times from the spans, work
//! counts from the composed calls, and achieved GFLOP/s against the cost
//! model. The layer → end-to-end map they serve is recorded in
//! `BENCHMARK.json`.

use crate::exec::LayerCounts;
use crate::flops::gflops;
use crate::round::{Checks, Layers};
use crate::stats;
use crate::trace::LayerTime;
use std::collections::BTreeMap;

/// Span self times must sum to the traced serving CPU within this many
/// percent; the rest is loop glue outside any span.
pub const COVER_TOLERANCE_PCT: f64 = 5.0;

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.dataset_s", "s"),
    ("setup.build_s", "s"),
    ("setup.train_s", "s"),
    ("setup.register_s", "s"),
    ("data.frame_us", "us"),
    ("data.self_pct", "%"),
    ("ingest.frames", "count"),
    ("ingest.us_per_frame", "us"),
    ("ingest.self_pct", "%"),
    ("score.dispatches", "count"),
    ("score.batch_mean", "count"),
    ("score.us_per_window", "us"),
    ("score.self_pct", "%"),
    ("score.gflops", "GFLOP/s"),
    ("adapt.checks", "count"),
    ("adapt.token_updates", "count"),
    ("adapt.node_replacements", "count"),
    ("adapt.track_us", "us"),
    ("adapt.update_ms_p50", "ms"),
    ("adapt.update_ms_p99", "ms"),
    ("adapt.self_pct", "%"),
    ("adapt.gflops", "GFLOP/s"),
    ("tier.hits", "count"),
    ("tier.cold_starts", "count"),
    ("tier.rehydrations", "count"),
    ("tier.evictions", "count"),
    ("tier.rehydration_failures", "count"),
    ("tier.hit_us_p50", "us"),
    ("tier.miss_us_p50", "us"),
    ("tier.miss_us_p99", "us"),
    ("tier.miss_self_pct", "%"),
    ("tier.resume_us_p50", "us"),
    ("tier.resume_us_p99", "us"),
    ("tier.spool_bytes_mean", "bytes"),
    ("load.ticks.normal", "count"),
    ("load.ticks.skip_adapt", "count"),
    ("load.ticks.coalesce", "count"),
    ("load.ticks.shed", "count"),
    ("load.tick_us.normal", "us"),
    ("load.tick_us.skip_adapt", "us"),
    ("load.tick_us.coalesce", "us"),
    ("load.tick_us.shed", "us"),
    ("load.coalesced", "count"),
    ("load.shed", "count"),
    ("load.overflow_dropped", "count"),
    ("load.wait_ticks_p99", "ticks"),
    ("load.self_pct", "%"),
    ("mem.model_bytes", "bytes"),
    ("mem.session_bytes_mean", "bytes"),
    ("mem.workspace_high_water_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.cover_pct", "%"),
    ("trace.empty_span_ns", "ns"),
    ("host.steal_pct", "%"),
    ("host.wall_per_cpu", "ratio"),
    ("run.frames", "count"),
    ("run.cpu_s", "s"),
];

/// Spans each layer's calls are recorded under.
pub type Spans = BTreeMap<&'static str, LayerTime>;

fn layer(spans: &Spans, name: &str) -> LayerTime {
    spans.get(name).copied().unwrap_or_default()
}

fn share(spans: &Spans, names: &[&str], root_ns: u64) -> f64 {
    let self_ns: u64 = names.iter().map(|n| layer(spans, n).self_ns).sum();
    100.0 * self_ns as f64 / root_ns.max(1) as f64
}

fn per_call_us(t: LayerTime) -> f64 {
    t.total_ns as f64 * 1e-3 / t.calls.max(1) as f64
}

/// Metrics that come from the spans alone. A frame source is one
/// `pop_front`, cheaper than the two clock reads around it, so the `data`
/// span is reported net of `empty_span_ns`, the cost of an empty span.
pub fn spans(spans: &Spans, root_ns: u64, empty_span_ns: u64, layers: &mut Layers) {
    let data = layer(spans, "data");
    let data_ns = data.self_ns.saturating_sub(data.calls * empty_span_ns);
    layers.insert("data.frame_us".into(), data_ns as f64 * 1e-3 / data.calls.max(1) as f64);
    layers.insert("data.self_pct".into(), 100.0 * data_ns as f64 / root_ns.max(1) as f64);
    layers.insert("trace.empty_span_ns".into(), empty_span_ns as f64);
    layers.insert("ingest.us_per_frame".into(), per_call_us(layer(spans, "ingest")));
    layers.insert("ingest.self_pct".into(), share(spans, &["ingest"], root_ns));
    layers.insert("score.self_pct".into(), share(spans, &["score"], root_ns));
    layers.insert("adapt.self_pct".into(), share(spans, &["adapt"], root_ns));
    layers.insert("load.self_pct".into(), share(spans, &["load.tick"], root_ns));
}

/// Metrics from the composed tick's work counts.
pub fn counts(c: &LayerCounts, spans: &Spans, layers: &mut Layers) {
    let score = layer(spans, "score");
    layers.insert("ingest.frames".into(), c.ingested as f64);
    layers.insert("score.dispatches".into(), c.dispatches as f64);
    layers.insert("score.batch_mean".into(), c.windows as f64 / c.dispatches.max(1) as f64);
    layers.insert(
        "score.us_per_window".into(),
        score.total_ns as f64 * 1e-3 / c.windows.max(1) as f64,
    );
    layers.insert("score.gflops".into(), gflops(c.score_flops, score.total_ns));
    layers.insert("adapt.checks".into(), c.checks as f64);
    layers.insert("adapt.token_updates".into(), c.token_updates as f64);
    layers.insert("adapt.node_replacements".into(), c.replacements as f64);
    layers.insert("adapt.track_us".into(), c.track_ns as f64 * 1e-3 / c.track_calls.max(1) as f64);
    let update_ms: Vec<f64> = c.update_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
    if !update_ms.is_empty() {
        layers.insert("adapt.update_ms_p50".into(), stats::percentile(&update_ms, 0.5));
        layers.insert("adapt.update_ms_p99".into(), stats::p99_or_lower(&update_ms));
    }
    layers.insert("adapt.gflops".into(), gflops(c.adapt_flops, c.update_ns.iter().sum()));
}

/// Prints every layer's share of traced serving CPU and checks that each
/// workload still stresses the layer it exists for.
pub fn emphasis(workload: &str, spans: &Spans, root_ns: u64, layers: &Layers, checks: &mut Checks) {
    let shares: Vec<String> = spans
        .iter()
        .map(|(name, t)| format!("{name} {:.2}%", 100.0 * t.self_ns as f64 / root_ns.max(1) as f64))
        .collect();
    println!("# self-time shares of traced serving CPU: {}", shares.join(", "));
    let pct = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let largest_of = |name: &str| {
        ["data.self_pct", "ingest.self_pct", "score.self_pct", "adapt.self_pct", "load.self_pct"]
            .iter()
            .all(|other| *other == name || pct(other) < pct(name))
    };
    match workload {
        "trend-shift" => checks.add(
            format!(
                "adaptation dominates trend-shift ({:.1}% of serving CPU)",
                pct("adapt.self_pct")
            ),
            largest_of("adapt.self_pct"),
        ),
        "static-kg" => checks.add(
            format!("scoring dominates static-kg ({:.1}% of serving CPU)", pct("score.self_pct")),
            largest_of("score.self_pct"),
        ),
        "session-churn" => checks.add(
            format!(
                "misses dominate session-churn ({:.1}% of serving CPU)",
                pct("tier.miss_self_pct")
            ),
            pct("tier.miss_self_pct") > 50.0,
        ),
        _ => {}
    }
    checks.add(
        format!("the frame source stays under 1% of serving CPU ({:.3}%)", pct("data.self_pct")),
        pct("data.self_pct") < 1.0,
    );
}
