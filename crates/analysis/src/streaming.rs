//! Streaming, mergeable fleet statistics.
//!
//! [`FleetAccumulator`] is an [`EventSink`] fed directly by the macro
//! study's parallel driver — or by a collector, as the sink of
//! `Collector::ingest_with`: it folds every failure event into
//! the §3.1 headline counters (totals by kind / ISP / RAT, duration
//! moments, the under-30 s share, the Out_of_Service device set) without
//! materialising the event list — fleets of 10⁶+ devices run in constant
//! memory. The counters and the per-kind duration sketches are
//! [`IngestAggregate`], the §3.1 fold any caller of a collector can pass as
//! a sink (the collector itself keeps no record content); this type adds
//! what that fold does not keep (per-kind duration totals, Welford moments,
//! the Out_of_Service device set). Because it implements [`Merge`], per-shard
//! accumulators from [`cellrel_workload::run_macro_study_parallel`] fold
//! into exactly the sequential result: every field is an integer counter,
//! a set union, a Welford summary, or a bucket-count sketch merged in
//! shard order. The sketches supply streaming duration percentiles (Fig. 4
//! and the per-kind CDm figures) within 1 % rank error of the exact order
//! statistics, with bitwise thread-count-invariant state.

use cellrel_ingest::IngestAggregate;
use cellrel_sim::{Merge, Summary};
use cellrel_types::{DeviceId, EventSink, FailureEvent, FailureKind};
use std::collections::HashSet;

/// Online fleet statistics over a stream of failure events.
#[derive(Debug, Clone, Default)]
pub struct FleetAccumulator {
    /// Totals by kind / ISP / RAT, the duration total, the under-30 s
    /// count, the longest failure and the per-kind duration sketches
    /// (Figs. 6–7 inputs; `agg.sketch_all()` is the Fig. 4 CDF).
    pub agg: IngestAggregate,
    /// Exact per-kind duration totals, integer milliseconds.
    pub duration_ms_by_kind: [u64; 5],
    /// Welford moments of the duration distribution (seconds).
    pub duration: Summary,
    /// Devices that saw ≥1 Out_of_Service event.
    pub oos_devices: HashSet<DeviceId>,
}

impl FleetAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean failure duration in seconds (0 when empty).
    pub fn mean_duration_secs(&self) -> f64 {
        if self.agg.records == 0 {
            0.0
        } else {
            self.agg.duration_ms_total as f64 / 1000.0 / self.agg.records as f64
        }
    }

    /// Share of failures of `kind` (0 when empty).
    pub fn kind_share(&self, kind: FailureKind) -> f64 {
        if self.agg.records == 0 {
            0.0
        } else {
            self.agg.by_kind[kind.index()] as f64 / self.agg.records as f64
        }
    }

    /// Share of *total duration* contributed by `kind` (0 when empty).
    pub fn kind_duration_share(&self, kind: FailureKind) -> f64 {
        if self.agg.duration_ms_total == 0 {
            0.0
        } else {
            self.duration_ms_by_kind[kind.index()] as f64 / self.agg.duration_ms_total as f64
        }
    }

    /// Fraction of failures shorter than 30 s (0 when empty).
    pub fn under_30s_share(&self) -> f64 {
        if self.agg.records == 0 {
            0.0
        } else {
            self.agg.under_30s as f64 / self.agg.records as f64
        }
    }

    /// Sketched duration quantile in seconds over all kinds (`None` when
    /// empty). Within 1 % rank error of the exact order statistic.
    pub fn duration_quantile_secs(&self, q: f64) -> Option<f64> {
        self.agg
            .sketch_all()
            .quantile(q)
            .map(|ms| ms as f64 / 1000.0)
    }
}

impl EventSink for FleetAccumulator {
    fn record(&mut self, e: &FailureEvent) {
        self.agg.record(e);
        self.duration_ms_by_kind[e.kind.index()] += e.duration.as_millis();
        self.duration.push(e.duration.as_secs_f64());
        if e.kind == FailureKind::OutOfService {
            self.oos_devices.insert(e.device);
        }
    }
}

impl Merge for FleetAccumulator {
    fn merge(&mut self, other: Self) {
        self.agg.merge(other.agg);
        self.duration_ms_by_kind.merge(other.duration_ms_by_kind);
        self.duration.merge(&other.duration);
        self.oos_devices.merge(other.oos_devices);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headline;
    use crate::testutil::dataset;
    use cellrel_workload::{run_macro_study_parallel, StudyConfig};

    #[test]
    fn accumulator_matches_materialised_headline() {
        let d = dataset();
        let mut acc = FleetAccumulator::new();
        for e in &d.events {
            acc.record(e);
        }
        let h = headline::compute(d);
        assert_eq!(acc.agg.records, h.total_failures);
        for kind in FailureKind::ALL {
            assert!((acc.kind_share(kind) - h.kind_share[kind.index()]).abs() < 1e-12);
        }
        assert!((acc.mean_duration_secs() - h.mean_duration_secs).abs() < 1e-6);
        assert!((acc.under_30s_share() - h.under_30s).abs() < 1e-12);
        assert!((acc.agg.max_duration_ms as f64 / 1000.0 - h.max_duration_secs).abs() < 1e-9);
    }

    #[test]
    fn parallel_accumulators_are_thread_count_invariant() {
        let cfg = StudyConfig::small();
        let (_, _, _, base) = run_macro_study_parallel(&cfg, 1, FleetAccumulator::new);
        assert!(base.agg.records > 0);
        for threads in [2usize, 8] {
            let (_, _, _, acc) = run_macro_study_parallel(&cfg, threads, FleetAccumulator::new);
            // Counters add and sketch merges are exactly commutative and
            // associative, so the whole fold — sketch state included — is
            // bitwise thread-count invariant.
            assert_eq!(acc.agg, base.agg, "threads={threads}");
            assert_eq!(
                acc.duration_ms_by_kind, base.duration_ms_by_kind,
                "threads={threads}"
            );
            assert_eq!(acc.oos_devices, base.oos_devices, "threads={threads}");
        }
    }

    #[test]
    fn sketched_percentiles_within_one_percent_rank_of_exact() {
        use cellrel_workload::PopulationConfig;
        // The fixed acceptance fleet: 10 k devices, seed 2021.
        let cfg = StudyConfig {
            population: PopulationConfig {
                devices: 10_000,
                ..Default::default()
            },
            days: 30,
            bs_count: 2_000,
            seed: 2021,
        };
        let (_, _, _, events) = run_macro_study_parallel(&cfg, 1, Vec::new);
        let mut acc = FleetAccumulator::new();
        for e in &events {
            acc.record(e);
        }
        let mut exact: Vec<u64> = events.iter().map(|e| e.duration.as_millis()).collect();
        exact.sort_unstable();
        let n = exact.len();
        assert!(n > 100_000, "fleet produced only {n} events");
        let all = acc.agg.sketch_all();
        assert_eq!(all.count(), n as u64);
        for q in [0.50, 0.90, 0.99] {
            let v = all.quantile(q).expect("non-empty sketch");
            // Rank error: how far the target rank q·n falls outside the
            // rank interval the sketched value actually occupies.
            let lo = exact.partition_point(|&x| x < v) as f64;
            let hi = exact.partition_point(|&x| x <= v) as f64;
            let target = q * n as f64;
            let err = if target < lo {
                (lo - target) / n as f64
            } else if target > hi {
                (target - hi) / n as f64
            } else {
                0.0
            };
            assert!(err <= 0.01, "q={q}: sketched {v} ms, rank error {err:.4}");
        }
        // The per-kind sketches partition the overall stream.
        let per_kind: u64 = FailureKind::ALL
            .iter()
            .map(|k| acc.agg.sketch_by_kind[k.index()].count())
            .sum();
        assert_eq!(per_kind, all.count());
    }
}
