//! Property-based tests for the store algebra: partition/store merge is
//! commutative and associative, compaction never changes a legal query's
//! answer, and sharded builds are bit-identical to single-threaded builds
//! at any thread count — the invariants the digest and the analysis
//! adapters lean on — and a cell key orders as its fields do.

use cellrel_sim::Merge;
use cellrel_store::{
    build_sharded, CellKey, DeviceDirectory, Dim, Filter, Metric, Query, Store, StoreConfig,
};
use cellrel_types::{
    Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
    SignalLevel, SimDuration, SimTime,
};
use proptest::prelude::*;
use std::cmp::Ordering;

/// The varying material of one event. Grouped into nested tuples because
/// the vendored proptest implements `Strategy` for tuples of ≤ 5 elements
/// only.
type EventParts = (
    (u32, u64, u64),      // device, start ms, duration ms
    (usize, Option<i32>), // kind index, cause code
    (usize, usize),       // rat, isp
);

fn parts_strategy() -> impl Strategy<Value = EventParts> {
    (
        // ~90 days of starts over 64 devices: several rollup windows deep.
        (0u32..64, 0u64..90 * 86_400_000, 0u64..1 << 22),
        (0usize..5, prop::option::of(-20i32..4000)),
        (0usize..4, 0usize..3),
    )
}

fn build_event(p: &EventParts) -> FailureEvent {
    let ((device, start, duration), (kind, cause), (rat, isp)) = *p;
    FailureEvent {
        device: DeviceId(device),
        kind: FailureKind::from_index(kind).expect("kind < 5"),
        start: SimTime::from_millis(start),
        duration: SimDuration::from_millis(duration),
        cause: cause.map(DataFailCause::from_code),
        ctx: InSituInfo {
            rat: Rat::from_index(rat).expect("rat < 4"),
            signal: SignalLevel::L3,
            apn: Apn::Internet,
            bs: Some(BsId::gsm_cn(0, 1, 2)),
            isp: Isp::from_index(isp).expect("isp < 3"),
        },
    }
}

fn build_store(cfg: &StoreConfig, parts: &[EventParts]) -> Store {
    let dir = DeviceDirectory::default();
    let mut s = Store::new(cfg);
    for p in parts {
        let e = build_event(p);
        s.record(&e, dir.dim_of(e.device));
    }
    s
}

/// A fixed set of legal query shapes covering grouping, filtering, time
/// windows, quantiles and top-k — the shapes compaction transparency and
/// merge invariance must hold for.
fn query_set() -> Vec<Query> {
    vec![
        Query::count_by(vec![]),
        Query::count_by(vec![Dim::Kind, Dim::Isp]),
        Query {
            group_by: vec![Dim::Time, Dim::Kind],
            ..Query::count_by(vec![])
        },
        Query {
            filters: vec![Filter::TimeRange {
                start_ms: 7 * 86_400_000,
                end_ms: 8 * 7 * 86_400_000,
            }],
            group_by: vec![Dim::Rat],
            window_ms: 0,
            metric: Metric::MeanDurationMs,
            top_k: 0,
        },
        Query {
            filters: vec![Filter::HasCause],
            group_by: vec![Dim::Cause],
            window_ms: 0,
            metric: Metric::Count,
            top_k: 5,
        },
        Query {
            filters: vec![],
            group_by: vec![Dim::Isp],
            window_ms: 0,
            metric: Metric::QuantileMs(0.95),
            top_k: 0,
        },
    ]
}

proptest! {
    #[test]
    fn store_merge_is_commutative(
        xs in prop::collection::vec(parts_strategy(), 0..120),
        ys in prop::collection::vec(parts_strategy(), 0..120),
        partitions in 1usize..9,
    ) {
        let cfg = StoreConfig { partitions, ..StoreConfig::default() };
        let a = build_store(&cfg, &xs);
        let b = build_store(&cfg, &ys);

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        prop_assert_eq!(&ab, &ba);

        // Merging equals recording the concatenated stream.
        let both: Vec<EventParts> = xs.iter().chain(ys.iter()).copied().collect();
        prop_assert_eq!(&ab, &build_store(&cfg, &both));
        prop_assert_eq!(ab.digest(), build_store(&cfg, &both).digest());
    }

    #[test]
    fn store_merge_is_associative(
        xs in prop::collection::vec(parts_strategy(), 0..80),
        ys in prop::collection::vec(parts_strategy(), 0..80),
        zs in prop::collection::vec(parts_strategy(), 0..80),
    ) {
        let cfg = StoreConfig::default();
        let (a, b, c) = (
            build_store(&cfg, &xs),
            build_store(&cfg, &ys),
            build_store(&cfg, &zs),
        );

        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());

        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);

        prop_assert_eq!(left, right);
    }

    /// `sealed_union` is the left fold of `merge` followed by
    /// `seal_columnar` — structurally, counters included — over any mix of
    /// row-tier, sealed, compacted and empty parts, in any order of parts.
    #[test]
    fn sealed_union_equals_merge_fold_then_seal(
        parts in prop::collection::vec(
            (prop::collection::vec(parts_strategy(), 0..60), 0usize..4),
            0..6,
        ),
        partitions in 1usize..5,
        rotate in any::<usize>(),
    ) {
        let cfg = StoreConfig { partitions, ..StoreConfig::default() };
        let stores: Vec<Store> = parts
            .iter()
            .map(|(events, layout)| {
                let mut s = build_store(&cfg, events);
                match layout {
                    0 => {}
                    1 => s.seal_columnar(),
                    2 => s.compact(),
                    // Sealed history plus a hot tail, as a live view has.
                    _ => {
                        s.seal_columnar();
                        for p in events.iter().take(5) {
                            let e = build_event(p);
                            s.record(&e, DeviceDirectory::default().dim_of(e.device));
                        }
                    }
                }
                s
            })
            .collect();

        let mut fold = Store::new(&cfg);
        for s in &stores {
            fold.merge(s.clone());
        }
        fold.seal_columnar();

        let mut refs: Vec<&Store> = stores.iter().collect();
        let union = Store::sealed_union(&cfg, &refs);
        prop_assert_eq!(&union, &fold);
        prop_assert_eq!(union.sealed_cells(), union.cells());
        prop_assert_eq!(union.inserted(), stores.iter().map(Store::inserted).sum::<u64>());
        let mut again = union.clone();
        again.seal_columnar();
        prop_assert_eq!(&again, &union, "already sealed: seal_columnar is a no-op");

        let by = rotate % refs.len().max(1);
        refs.rotate_left(by);
        refs.reverse();
        prop_assert_eq!(&Store::sealed_union(&cfg, &refs), &fold);
    }

    /// Compaction is query-transparent: every legal query answers
    /// identically before and after folding sealed buckets, and the digest
    /// does not move.
    #[test]
    fn compaction_never_changes_query_answers(
        parts in prop::collection::vec(parts_strategy(), 1..200),
        partitions in 1usize..9,
    ) {
        let cfg = StoreConfig { partitions, ..StoreConfig::default() };
        let mut s = build_store(&cfg, &parts);
        let digest = s.digest();
        let before: Vec<_> = query_set()
            .iter()
            .map(|q| s.query(q).expect("legal query").rows)
            .collect();
        s.compact();
        let after: Vec<_> = query_set()
            .iter()
            .map(|q| s.query(q).expect("legal query").rows)
            .collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(s.digest(), digest);
    }

    /// Mid-stream auto-compaction is equivalent to no compaction at all.
    #[test]
    fn auto_compaction_matches_manual_and_none(
        parts in prop::collection::vec(parts_strategy(), 1..150),
        every in 1u64..40,
    ) {
        let plain = build_store(&StoreConfig::default(), &parts);
        let auto = build_store(
            &StoreConfig { auto_compact_every: every, ..StoreConfig::default() },
            &parts,
        );
        prop_assert_eq!(auto.digest(), plain.digest());
        for q in query_set() {
            prop_assert_eq!(
                auto.query(&q).expect("legal query").rows,
                plain.query(&q).expect("legal query").rows
            );
        }
    }

    /// Sharded builds are bit-identical to the single-threaded build at
    /// every thread count.
    #[test]
    fn sharded_build_digest_is_thread_invariant(
        parts in prop::collection::vec(parts_strategy(), 0..200),
    ) {
        let events: Vec<FailureEvent> = parts.iter().map(build_event).collect();
        let cfg = StoreConfig::default();
        let dir = DeviceDirectory::default();
        let base = build_sharded(&cfg, &dir, &events, 1);
        for threads in [2usize, 8] {
            let s = build_sharded(&cfg, &dir, &events, threads);
            prop_assert_eq!(&s, &base, "threads={}", threads);
            prop_assert_eq!(s.digest(), base.digest());
        }
    }
}

/// The largest value of each `CellKey` field, in declaration order.
const FIELD_MAX: [u64; 8] = [
    u32::MAX as u64,
    u8::MAX as u64,
    u8::MAX as u64,
    u8::MAX as u64,
    u8::MAX as u64,
    u8::MAX as u64,
    u8::MAX as u64,
    u64::MAX,
];

/// Field values from raw draws: a quarter each 0, the field's largest
/// value, one below it, and any value of its width.
fn fields(raw: &[u64]) -> [u64; 8] {
    let mut out = [0; 8];
    for ((o, &r), max) in out.iter_mut().zip(raw).zip(FIELD_MAX) {
        *o = match r % 4 {
            0 => 0,
            1 => max,
            2 => max - 1,
            _ => (r >> 2) & max,
        };
    }
    out
}

fn cell_key(f: &[u64; 8]) -> CellKey {
    let narrow = |v: u64| u8::try_from(v).expect("a u8 field");
    CellKey {
        bucket: u32::try_from(f[0]).expect("a u32 field"),
        kind: narrow(f[1]),
        isp: narrow(f[2]),
        rat: narrow(f[3]),
        model: narrow(f[4]),
        region: narrow(f[5]),
        cause_class: narrow(f[6]),
        cause: f[7],
    }
}

/// The derived order: field by field, in declaration order.
fn by_field(k: &CellKey) -> (u32, u8, u8, u8, u8, u8, u8, u64) {
    (
        k.bucket,
        k.kind,
        k.isp,
        k.rat,
        k.model,
        k.region,
        k.cause_class,
        k.cause,
    )
}

proptest! {
    /// `CellKey` compares packed fields as two integers: that must be the
    /// field-by-field order, and `Equal` exactly when the keys are `==`.
    /// The second key shares the first one's leading `shared` fields, so
    /// every field decides some cases and all eight tie in some.
    #[test]
    fn cell_key_order_is_the_field_by_field_order(
        a in prop::collection::vec(any::<u64>(), 8),
        b in prop::collection::vec(any::<u64>(), 8),
        shared in 0usize..9,
    ) {
        let a = fields(&a);
        let mut b = fields(&b);
        b[..shared].copy_from_slice(&a[..shared]);
        let (ka, kb) = (cell_key(&a), cell_key(&b));
        let want = by_field(&ka).cmp(&by_field(&kb));
        prop_assert_eq!(ka.cmp(&kb), want);
        prop_assert_eq!(kb.cmp(&ka), want.reverse());
        prop_assert_eq!(ka.partial_cmp(&kb), Some(want));
        prop_assert_eq!(want == Ordering::Equal, ka == kb);
    }
}
