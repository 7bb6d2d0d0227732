//! JSON encoding of the cycle-level metrics layer (DESIGN.md §10).
//!
//! The per-report encoding is **integer-only** (counters, histograms,
//! windows, audit records — no derived floats), so two
//! [`MetricsReport`]s that are `==` serialize to byte-identical JSON.
//! The replay-equivalence suite leans on this: metrics from a cached
//! replay must produce the same bytes as the live simulation. Derived
//! ratios (utilization, gating efficiency) live in a separate `derived`
//! block of the suite document, clearly outside the equivalence surface.

use dcg_core::{
    fu_class_label, CacheHealth, ComponentMetrics, GateDisagreement, Hazard, HazardClass,
    Histogram, MetricsReport, SafetyReport, WindowSample,
};
use dcg_isa::FuClass;
use dcg_testkit::json::Json;

use crate::suite::Suite;

fn histogram_json(h: &Histogram) -> Json {
    Json::obj([
        ("max_value", Json::u64(u64::from(h.max_value()))),
        ("total", Json::u64(h.total())),
        ("clamped", Json::u64(h.clamped())),
        (
            "counts",
            Json::arr(h.buckets().iter().map(|n| Json::u64(*n)).collect()),
        ),
    ])
}

fn component_json(c: &ComponentMetrics) -> Json {
    Json::obj([
        ("name", Json::str(c.name)),
        ("instances", Json::u64(u64::from(c.instances))),
        ("used_instance_cycles", Json::u64(c.used_instance_cycles)),
        (
            "powered_instance_cycles",
            Json::u64(c.powered_instance_cycles),
        ),
        ("gated_instance_cycles", Json::u64(c.gated_instance_cycles)),
        ("idle_instance_cycles", Json::u64(c.idle_instance_cycles)),
        ("disagreement_cycles", Json::u64(c.disagreement_cycles)),
    ])
}

fn window_json(w: &WindowSample) -> Json {
    Json::obj([
        ("start_cycle", Json::u64(w.start_cycle)),
        ("cycles", Json::u64(u64::from(w.cycles))),
        ("committed", Json::u64(w.committed)),
        ("issued", Json::u64(w.issued)),
        ("unit_used", Json::u64(w.unit_used)),
        ("unit_gated", Json::u64(w.unit_gated)),
        ("port_used", Json::u64(w.port_used)),
        ("port_gated", Json::u64(w.port_gated)),
        ("bus_used", Json::u64(w.bus_used)),
        ("bus_gated", Json::u64(w.bus_gated)),
        ("latch_used", Json::u64(w.latch_used)),
        ("latch_gated", Json::u64(w.latch_gated)),
    ])
}

fn audit_json(d: &GateDisagreement) -> Json {
    Json::obj([
        ("cycle", Json::u64(d.cycle)),
        ("component", Json::str(d.component.clone())),
        ("claimed_powered", Json::u64(u64::from(d.claimed_powered))),
        ("actual_used", Json::u64(u64::from(d.actual_used))),
    ])
}

/// Encode one [`MetricsReport`] as an integer-only JSON object.
///
/// This is the byte-identity surface of the metrics-replay equivalence
/// tests: equal reports yield equal bytes.
pub fn metrics_json(report: &MetricsReport) -> Json {
    Json::obj([
        ("policy", Json::str(report.policy.clone())),
        ("window", Json::u64(u64::from(report.window))),
        ("cycles", Json::u64(report.cycles)),
        ("committed", Json::u64(report.committed)),
        (
            "components",
            Json::arr(report.components.iter().map(component_json).collect()),
        ),
        (
            "fu_occupancy",
            Json::obj(
                FuClass::ALL
                    .iter()
                    .map(|c| {
                        (
                            fu_class_label(*c),
                            histogram_json(&report.fu_occupancy[c.index()]),
                        )
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        ("iq_fill", histogram_json(&report.iq_fill)),
        ("rob_fill", histogram_json(&report.rob_fill)),
        ("lsq_fill", histogram_json(&report.lsq_fill)),
        (
            "windows",
            Json::arr(report.windows.iter().map(window_json).collect()),
        ),
        (
            "audit",
            Json::arr(report.audit.iter().map(audit_json).collect()),
        ),
        ("audit_dropped", Json::u64(report.audit_dropped)),
    ])
}

fn hazard_json(h: &Hazard) -> Json {
    Json::obj([
        ("cycle", Json::u64(h.cycle)),
        ("class", Json::str(h.class.label())),
        ("claimed_powered", Json::u64(u64::from(h.claimed_powered))),
        ("actual_used", Json::u64(u64::from(h.actual_used))),
    ])
}

/// Encode one [`SafetyReport`] as an integer-only JSON object — the
/// `safety` block of the suite document (DESIGN.md §11). Zero-fault runs
/// encode all-zero counters, so the block sits inside the byte-identity
/// surface rather than outside it.
fn safety_json(report: &SafetyReport) -> Json {
    let per_class = |counts: &[u64; HazardClass::COUNT]| {
        Json::obj(
            HazardClass::ALL
                .iter()
                .map(|c| (c.label(), Json::u64(counts[c.index()])))
                .collect::<Vec<_>>(),
        )
    };
    Json::obj([
        ("backoff_cycles", Json::u64(report.backoff_cycles)),
        ("hazards_detected", per_class(&report.detected)),
        ("failed_open_cycles", per_class(&report.failed_open_cycles)),
        (
            "hazards",
            Json::arr(report.hazards.iter().map(hazard_json).collect()),
        ),
        ("hazards_dropped", Json::u64(report.hazards_dropped)),
    ])
}

/// Derived (floating-point) per-component ratios for human consumption;
/// kept outside [`metrics_json`] so the equivalence surface stays
/// integer-only.
fn derived_json(report: &MetricsReport) -> Json {
    Json::obj(
        report
            .components
            .iter()
            .map(|c| {
                (
                    c.name,
                    Json::obj([
                        (
                            "utilization",
                            c.utilization(report.cycles).map_or(Json::Null, Json::f64),
                        ),
                        (
                            "gating_efficiency",
                            c.gating_efficiency().map_or(Json::Null, Json::f64),
                        ),
                    ]),
                )
            })
            .collect::<Vec<_>>(),
    )
}

/// [`suite_metrics_json_with`] for a suite whose trace-cache health is
/// not known (assembled by hand, or run without a cache): the
/// `cache_health` block reads all zero.
pub fn suite_metrics_json(suite: &Suite) -> Json {
    suite_metrics_json_with(suite, CacheHealth::default())
}

/// Encode a whole suite's metrics: one block per benchmark (integer-only
/// report plus derived ratios), suite failures by name, and `health`, the
/// counters of the trace cache the suite ran against (see
/// [`Suite::run_with_health`]).
pub fn suite_metrics_json_with(suite: &Suite, health: CacheHealth) -> Json {
    Json::obj([
        (
            "benchmarks",
            Json::arr(
                suite
                    .runs
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(r.profile.name)),
                            ("metrics", metrics_json(&r.metrics)),
                            ("safety", safety_json(&r.dcg.safety)),
                            ("derived", derived_json(&r.metrics)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::arr(
                suite
                    .failures
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("name", Json::str(f.name.clone())),
                            ("message", Json::str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cache_health",
            Json::obj([
                ("store_failures", Json::u64(health.store_failures)),
                ("evict_failures", Json::u64(health.evict_failures)),
                ("replay_failures", Json::u64(health.replay_failures)),
                ("key_collisions", Json::u64(health.key_collisions)),
                ("readonly_skips", Json::u64(health.readonly_skips)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::ExperimentConfig;

    #[test]
    fn metrics_json_is_deterministic_and_structured() {
        let cfg = ExperimentConfig::quick();
        let suite = Suite::run(&cfg, false);
        let run = &suite.runs[0];
        let a = metrics_json(&run.metrics).to_string();
        let b = metrics_json(&run.metrics).to_string();
        assert_eq!(a, b, "same report must serialize identically");
        for key in [
            "\"policy\":",
            "\"components\":",
            "\"fu_occupancy\":",
            "\"iq_fill\":",
            "\"rob_fill\":",
            "\"lsq_fill\":",
            "\"windows\":",
            "\"audit\":",
        ] {
            assert!(a.contains(key), "missing {key} in {a:.120}");
        }
        assert!(
            !run.metrics.audit.is_empty(),
            "DCG's conservative gating must produce audit records"
        );

        let doc = suite_metrics_json(&suite).to_string();
        assert!(doc.contains("\"benchmarks\":"));
        assert!(doc.contains("\"cache_health\":"));
        assert!(doc.contains("\"replay_failures\":"));
        assert!(doc.contains("\"gating_efficiency\":"));
        assert!(
            doc.contains("\"safety\":{\"backoff_cycles\":256,"),
            "every benchmark must carry a safety block"
        );
        assert!(
            !suite.runs.iter().any(|r| r.dcg.safety.total_detected() > 0),
            "a fault-free suite must detect no hazards"
        );
    }
}
