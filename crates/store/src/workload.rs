//! The canonical mixed query workload — one of each shape the store's
//! engine supports — shared by the repo benchmark, the store and cluster
//! differential suites and the seed-2021 goldens, so throughput numbers
//! measure the same work the identity tests prove correct.

use crate::query::{Dim, Filter, Metric, Query};
use cellrel_types::{FailureKind, Isp, Rat};

/// The named workload queries. `week_ms` is the store's rollup granularity
/// (time windows and ranges must align to it).
pub fn canonical(week_ms: u64) -> Vec<(&'static str, Query)> {
    vec![
        ("count_all", Query::count_by(vec![])),
        (
            "count_by_kind_isp",
            Query::count_by(vec![Dim::Kind, Dim::Isp]),
        ),
        (
            "weekly_setup_errors",
            Query {
                filters: vec![Filter::Kind(FailureKind::DataSetupError)],
                group_by: vec![Dim::Time],
                window_ms: week_ms,
                metric: Metric::Count,
                top_k: 0,
            },
        ),
        (
            "mean_duration_by_rat",
            Query {
                filters: vec![],
                group_by: vec![Dim::Rat],
                window_ms: 0,
                metric: Metric::MeanDurationMs,
                top_k: 0,
            },
        ),
        (
            "p95_duration_by_isp",
            Query {
                filters: vec![],
                group_by: vec![Dim::Isp],
                window_ms: 0,
                metric: Metric::QuantileMs(0.95),
                top_k: 0,
            },
        ),
        (
            "top5_setup_causes",
            Query {
                filters: vec![Filter::Kind(FailureKind::DataSetupError), Filter::HasCause],
                group_by: vec![Dim::Cause],
                window_ms: 0,
                metric: Metric::Count,
                top_k: 5,
            },
        ),
        (
            "cause_class_mix_4g",
            Query {
                filters: vec![Filter::Rat(Rat::G4), Filter::HasCause],
                group_by: vec![Dim::CauseClass],
                window_ms: 0,
                metric: Metric::Count,
                top_k: 0,
            },
        ),
        (
            "under_30s_share_by_region",
            Query {
                filters: vec![],
                group_by: vec![Dim::Region],
                window_ms: 0,
                metric: Metric::Under30sShare,
                top_k: 0,
            },
        ),
        (
            "first_week_stalls_by_isp",
            Query {
                filters: vec![
                    Filter::TimeRange {
                        start_ms: 0,
                        end_ms: week_ms,
                    },
                    Filter::Kind(FailureKind::DataStall),
                ],
                group_by: vec![Dim::Isp],
                window_ms: 0,
                metric: Metric::Count,
                top_k: 0,
            },
        ),
        (
            "devices_by_model",
            Query {
                filters: vec![],
                group_by: vec![Dim::Model],
                window_ms: 0,
                metric: Metric::Devices,
                top_k: 0,
            },
        ),
        (
            "failing_devices_isp_a",
            Query {
                filters: vec![Filter::Isp(Isp::A)],
                group_by: vec![Dim::Region],
                window_ms: 0,
                metric: Metric::FailingDevices,
                top_k: 0,
            },
        ),
    ]
}
