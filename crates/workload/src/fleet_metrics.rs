//! Fleet-level metrics for the macro study.
//!
//! [`FleetMetrics`] is an [`EventSink`] that folds every generated
//! [`FailureEvent`] into a [`MetricsRegistry`]: counters per failure kind,
//! RAT and fault layer, plus per-kind duration histograms. Because the
//! registry's snapshot [`Merge`] is exact (counters add, sketch buckets
//! add), [`run_macro_study_parallel`] folds per-shard sinks into a fleet
//! registry whose digest is **bit-identical at 1, 2 or 8 threads** — the
//! observability layer inherits the workspace's determinism guarantee
//! instead of weakening it.
//!
//! [`run_macro_study_parallel`]: crate::study::run_macro_study_parallel

use cellrel_sim::{Merge, MetricsRegistry, MetricsSnapshot};
use cellrel_types::{EventSink, FailureEvent, FailureKind, FailureLayer, Rat};

use crate::study::{run_macro_study_parallel, StudyConfig};

/// Counter name for a failure kind.
pub fn kind_counter(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::DataSetupError => "fleet.kind.data_setup_error",
        FailureKind::OutOfService => "fleet.kind.out_of_service",
        FailureKind::DataStall => "fleet.kind.data_stall",
        FailureKind::SmsSendFail => "fleet.kind.sms_send_fail",
        FailureKind::VoiceSetupFail => "fleet.kind.voice_setup_fail",
    }
}

/// Duration-histogram name for a failure kind.
pub fn kind_duration_histogram(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::DataSetupError => "fleet.duration.data_setup_error",
        FailureKind::OutOfService => "fleet.duration.out_of_service",
        FailureKind::DataStall => "fleet.duration.data_stall",
        FailureKind::SmsSendFail => "fleet.duration.sms_send_fail",
        FailureKind::VoiceSetupFail => "fleet.duration.voice_setup_fail",
    }
}

/// Trace-span label for a failure kind (the short form shown on a
/// device's track in the trace viewer).
pub fn kind_span(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::DataSetupError => "data_setup_error",
        FailureKind::OutOfService => "out_of_service",
        FailureKind::DataStall => "data_stall",
        FailureKind::SmsSendFail => "sms_send_fail",
        FailureKind::VoiceSetupFail => "voice_setup_fail",
    }
}

/// Counter name for the RAT a failure occurred on.
pub fn rat_counter(rat: Rat) -> &'static str {
    match rat {
        Rat::G2 => "fleet.rat.2g",
        Rat::G3 => "fleet.rat.3g",
        Rat::G4 => "fleet.rat.4g",
        Rat::G5 => "fleet.rat.5g",
    }
}

/// Counter name for the fault layer of a setup-error cause (§3.2's
/// layered taxonomy).
pub fn layer_counter(layer: FailureLayer) -> &'static str {
    match layer {
        FailureLayer::Physical => "fleet.layer.physical",
        FailureLayer::LinkMac => "fleet.layer.link_mac",
        FailureLayer::Network => "fleet.layer.network",
        FailureLayer::Modem => "fleet.layer.modem",
        FailureLayer::Unknown => "fleet.layer.unknown",
    }
}

/// An [`EventSink`] that aggregates the failure stream into a
/// [`MetricsRegistry`]. Plain owned data: `Send`, and [`Merge`] delegates
/// to the registry's exact merge, so one sink per shard folds into the
/// same bytes as a single sequential sink.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    registry: MetricsRegistry,
}

impl FleetMetrics {
    /// An empty sink.
    pub fn new() -> Self {
        FleetMetrics::default()
    }

    /// An empty sink that additionally records every failure as a Chrome
    /// trace span on its device's track (`tid` = device id, `ts`/`dur` =
    /// the failure's sim-time window). Use with small fleets — the trace
    /// grows by one event per failure.
    pub fn with_trace() -> Self {
        let mut registry = MetricsRegistry::new();
        registry.enable_trace();
        FleetMetrics { registry }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Snapshot the aggregated metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

impl EventSink for FleetMetrics {
    fn record(&mut self, event: &FailureEvent) {
        self.registry.inc("fleet.failures");
        self.registry.inc(kind_counter(event.kind));
        self.registry.inc(rat_counter(event.ctx.rat));
        if let Some(cause) = event.cause {
            self.registry.inc(layer_counter(cause.layer()));
        }
        self.registry
            .observe_duration(kind_duration_histogram(event.kind), event.duration);
        let (name, start, end, tid) = (
            kind_span(event.kind),
            event.start,
            event.start + event.duration,
            event.device.0 as u64,
        );
        if let Some(trace) = self.registry.trace_mut() {
            trace.record_complete(name, start, end, tid);
        }
    }
}

impl Merge for FleetMetrics {
    fn merge(&mut self, other: Self) {
        self.registry.merge(other.registry);
    }
}

/// Run the macro study with a [`FleetMetrics`] sink per shard and return
/// the folded fleet snapshot plus the device-count denominator. The
/// snapshot's [`MetricsSnapshot::digest`] is thread-count invariant.
/// With `trace` set, every failure also becomes a Chrome trace span.
pub fn run_fleet_metrics(
    cfg: &StudyConfig,
    threads: usize,
    trace: bool,
) -> (MetricsSnapshot, usize) {
    let make_sink = || {
        if trace {
            FleetMetrics::with_trace()
        } else {
            FleetMetrics::new()
        }
    };
    let (population, _, _, sink) = run_macro_study_parallel(cfg, threads, make_sink);
    (sink.snapshot(), population.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use crate::study::run_macro_study;

    fn small_cfg() -> StudyConfig {
        StudyConfig {
            seed: 11,
            population: PopulationConfig {
                devices: 800,
                ..Default::default()
            },
            bs_count: 400,
            ..Default::default()
        }
    }

    #[test]
    fn metrics_match_materialised_dataset() {
        let cfg = small_cfg();
        let d = run_macro_study(&cfg);
        let (snap, devices) = run_fleet_metrics(&cfg, 1, false);
        assert_eq!(devices, d.population.len());
        assert_eq!(snap.counter("fleet.failures"), d.events.len() as u64);
        for kind in FailureKind::ALL {
            let expect = d.events.iter().filter(|e| e.kind == kind).count() as u64;
            assert_eq!(snap.counter(kind_counter(kind)), expect, "{kind:?}");
        }
        let with_cause = d.events.iter().filter(|e| e.cause.is_some()).count() as u64;
        let layered: u64 = [
            "fleet.layer.physical",
            "fleet.layer.link_mac",
            "fleet.layer.network",
            "fleet.layer.modem",
            "fleet.layer.unknown",
        ]
        .iter()
        .map(|n| snap.counter(n))
        .sum();
        assert_eq!(layered, with_cause);
    }

    #[test]
    fn fleet_digest_is_thread_count_invariant() {
        let cfg = small_cfg();
        let (base, _) = run_fleet_metrics(&cfg, 1, true);
        for threads in [2usize, 8] {
            let (snap, _) = run_fleet_metrics(&cfg, threads, true);
            assert_eq!(snap, base, "threads={threads}");
            assert_eq!(snap.digest(), base.digest(), "threads={threads}");
        }
        assert!(
            base.counter("fleet.failures") == base.trace().len() as u64,
            "one trace span per failure"
        );
    }
}
