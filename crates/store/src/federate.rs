//! Federation support for sharded serving: per-shard **partial** query
//! results that merge exactly.
//!
//! A finalized [`ResultSet`] cannot be combined across shards — a mean, a
//! quantile, or an under-30 s share computed per shard loses the partial
//! aggregates it was derived from. So shards answer with a
//! [`PartialResultSet`]: one mergeable [`Cell`] of partial
//! aggregates per group (count, exact duration sum, under-30 s tally,
//! quantile sketch — the same algebra the build path folds with), plus the
//! scan accounting. [`merge_partials`] folds any number of shard partials
//! with the cube's exact `Cell` merge and only then finalises through the
//! **same** groups→rows code path local evaluation uses — which is what
//! makes a scatter-gathered answer byte-identical to a single-node one,
//! row for row, label for label (the cluster differential suite pins
//! this at 1/2/4 shards).
//!
//! Accounting contract: rows, labels, values and per-row counts are
//! shard-count-invariant. `cells_scanned` / `cells_matched` are **additive**
//! across shards — with more than one shard a cell key populated by devices
//! on different shards is scanned once per shard, so the merged counters
//! legitimately exceed the single-node layout's (the same caveat the
//! store differential suite documents for compacted layouts). At one shard
//! the layout is identical and the full `ResultSet` matches exactly.
//!
//! The wire form ([`encode_partial`] / [`decode_partial`]) is a bare
//! varint sequence in the persistence idiom — framing, versioning and CRC
//! belong to the carrying protocol (the cluster's `CR` frames). Decoding
//! is total: hostile bytes return a typed [`FrameError`], never panic,
//! and never allocate proportionally to an unchecked length claim.

use crate::cube::{Cell, Store};
use crate::group::{widen, GroupAcc, GroupKey, EMPTY_RANGE, MAX_DIMS};
use crate::persist::{read_run, write_run};
use crate::query::{finalize_groups, validate};
use crate::{Query, QueryError, ResultSet};
use cellrel_ingest::frame::{write_varint, FrameError, Reader, PARTIAL};

/// One shard's contribution to a federated query: mergeable per-group
/// partial aggregates plus scan accounting. Group keys are truncated to
/// the query's `group_by` width and come out key-ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResultSet {
    /// The time-window width the shard planned with (1 for device
    /// metrics); every shard derives the same value from the query and
    /// the shared store configuration.
    pub window_ms: u64,
    /// `(group key, partial aggregate)` pairs, key-ascending. Device
    /// metrics carry the device tally in [`Cell::count`].
    pub groups: Vec<(Vec<u64>, Cell)>,
    /// Cells visited on this shard (after time-range pruning).
    pub cells_scanned: u64,
    /// Cells that passed all filters on this shard.
    pub cells_matched: u64,
}

impl Store {
    /// Evaluate a query up to — but not including — finalisation: the
    /// shard half of scatter-gather. Validation is identical to
    /// [`Store::query`], so a query one shard rejects is rejected by all
    /// shards with the same [`QueryError`].
    pub fn query_partial(&self, q: &Query) -> Result<PartialResultSet, QueryError> {
        let plan = validate(self, q)?;
        let (groups, cells_scanned, cells_matched) = self.collect(q, &plan);
        Ok(PartialResultSet {
            window_ms: plan.window_ms,
            groups: groups
                .into_iter()
                .map(|(gk, c)| (gk[..q.group_by.len()].to_vec(), c))
                .collect(),
            cells_scanned,
            cells_matched,
        })
    }
}

/// Merge shard partials with the exact `Cell` algebra, then finalise
/// (metric derivation, labels, top-k) through the same code path local
/// evaluation uses. Total on anything [`decode_partial`] accepts: a
/// decoded partial could claim any counts, keys and window width, so sums
/// saturate (accounting, per-group aggregates, label arithmetic), a sketch
/// whose count would pass `u64::MAX` is left out of its group, and keys of
/// the wrong width are cut or zero-padded to the widest one seen.
pub fn merge_partials(q: &Query, partials: &[PartialResultSet]) -> ResultSet {
    let window_ms = partials.first().map_or(1, |p| p.window_ms);
    let padded = |key: &[u64]| {
        let mut gk: GroupKey = [0; MAX_DIMS];
        for (slot, k) in gk.iter_mut().zip(key) {
            *slot = *k;
        }
        gk
    };
    // Pass 1, over keys only: the range each key position takes.
    let mut ranges = [EMPTY_RANGE; MAX_DIMS];
    let (mut width, mut runs) = (0, 0);
    for (key, _) in partials.iter().flat_map(|p| &p.groups) {
        runs += 1;
        width = width.max(key.len().min(MAX_DIMS));
        for (r, v) in ranges.iter_mut().zip(padded(key)) {
            widen(r, v, v);
        }
    }
    let mut acc = GroupAcc::new(&ranges[..width], q.metric.reads_sketch().then_some(runs));
    let mut scanned = 0u64;
    let mut matched = 0u64;
    for p in partials {
        scanned = scanned.saturating_add(p.cells_scanned);
        matched = matched.saturating_add(p.cells_matched);
        for (key, cell) in &p.groups {
            acc.merge_cell(&padded(key), cell);
        }
    }
    finalize_groups(q, window_ms, &acc.into_groups(), scanned, matched)
}

/// Serialize a partial result as a bare varint sequence (no framing — the
/// carrying protocol owns magic/version/CRC).
pub fn encode_partial(p: &PartialResultSet) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, p.window_ms);
    write_varint(&mut out, p.cells_scanned);
    write_varint(&mut out, p.cells_matched);
    let key_len = p.groups.first().map_or(0, |(k, _)| k.len());
    debug_assert!(p.groups.iter().all(|(k, _)| k.len() == key_len));
    write_varint(&mut out, key_len as u64);
    write_varint(&mut out, p.groups.len() as u64);
    for (key, c) in &p.groups {
        for k in key {
            write_varint(&mut out, *k);
        }
        write_varint(&mut out, c.count);
        write_varint(&mut out, c.duration_ms_total);
        write_varint(&mut out, c.under_30s);
        write_run(&mut out, &c.sketch);
    }
    out
}

/// Total inverse of [`encode_partial`]: typed errors on truncated,
/// corrupted or adversarial bytes, allocation bounded by the input size.
pub fn decode_partial(bytes: &[u8]) -> Result<PartialResultSet, FrameError> {
    let mut r = Reader::bare(&PARTIAL, bytes);
    let window_ms = r.varint()?;
    let cells_scanned = r.varint()?;
    let cells_matched = r.varint()?;
    let key_len: usize = r.narrow("group key width")?;
    if key_len > MAX_DIMS {
        return Err(r.invalid("group key width"));
    }
    // Each group costs at least key_len + 3 cell + 3 sketch-header bytes.
    let n = r.count("group count", key_len + 6)?;
    let mut groups = Vec::with_capacity(n);
    let mut prev: Option<Vec<u64>> = None;
    for _ in 0..n {
        let mut key = Vec::with_capacity(key_len);
        for _ in 0..key_len {
            key.push(r.varint()?);
        }
        if prev.as_ref().is_some_and(|p| *p >= key) {
            return Err(r.invalid("group keys not ascending"));
        }
        let count = r.varint()?;
        let duration_ms_total = r.varint()?;
        let under_30s = r.varint()?;
        if under_30s > count {
            return Err(r.invalid("under_30s exceeds count"));
        }
        let sketch = read_run(&mut r)?;
        prev = Some(key.clone());
        groups.push((
            key,
            Cell {
                count,
                duration_ms_total,
                under_30s,
                sketch,
            },
        ));
    }
    r.finish()?;
    Ok(PartialResultSet {
        window_ms,
        groups,
        cells_scanned,
        cells_matched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{build_sharded, DeviceDirectory, StoreConfig};
    use crate::{Dim, Filter, Metric};
    use cellrel_ingest::FrameErrorKind;
    use cellrel_types::{
        Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
        SignalLevel, SimDuration, SimTime,
    };

    fn events(n: u32) -> Vec<FailureEvent> {
        (0..n)
            .map(|i| FailureEvent {
                device: DeviceId(i % 40),
                kind: FailureKind::ALL[i as usize % 5],
                start: SimTime::from_secs(u64::from(i) * 3_600),
                duration: SimDuration::from_secs(2 + u64::from(i % 90)),
                cause: (i % 4 == 0).then_some(DataFailCause::SignalLost),
                ctx: InSituInfo {
                    rat: Rat::ALL[i as usize % 4],
                    signal: SignalLevel::L3,
                    apn: Apn::Internet,
                    bs: Some(BsId::gsm_cn(0, 1, 2)),
                    isp: Isp::ALL[i as usize % 3],
                },
            })
            .collect()
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::count_by(vec![]),
            Query::count_by(vec![Dim::Kind, Dim::Isp]),
            Query {
                metric: Metric::MeanDurationMs,
                group_by: vec![Dim::Rat],
                ..Query::count_by(vec![])
            },
            Query {
                metric: Metric::QuantileMs(0.9),
                group_by: vec![Dim::Kind],
                top_k: 3,
                ..Query::count_by(vec![])
            },
            Query {
                metric: Metric::Under30sShare,
                filters: vec![Filter::HasCause],
                ..Query::count_by(vec![])
            },
            Query {
                metric: Metric::FailingDevices,
                group_by: vec![Dim::Isp],
                ..Query::count_by(vec![])
            },
        ]
    }

    /// Split the fixture into per-device-parity sub-stores and prove
    /// merge-then-finalize reproduces the single store's rows exactly —
    /// mean/quantile/share metrics included, which per-shard finalisation
    /// would get wrong.
    #[test]
    fn merged_partials_match_single_store_rows() {
        let evs = events(400);
        let cfg = StoreConfig::default();
        let whole_dir = DeviceDirectory::default();
        let whole = build_sharded(&cfg, &whole_dir, &evs, 1);
        let shards = 3u32;
        let stores: Vec<_> = (0..shards)
            .map(|s| {
                let sub: Vec<_> = evs
                    .iter()
                    .filter(|e| e.device.0 % shards == s)
                    .cloned()
                    .collect();
                build_sharded(&cfg, &whole_dir, &sub, 1)
            })
            .collect();
        for q in queries() {
            let single = whole.query(&q).unwrap();
            let partials: Vec<_> = stores
                .iter()
                .map(|s| s.query_partial(&q).unwrap())
                .collect();
            let merged = merge_partials(&q, &partials);
            assert_eq!(merged.rows, single.rows, "{q:?}");
            assert_eq!(merged.group_by, single.group_by);
            assert_eq!(merged.metric, single.metric);
        }
    }

    #[test]
    fn single_partial_finalises_to_the_exact_result_set() {
        let s = build_sharded(
            &StoreConfig::default(),
            &DeviceDirectory::default(),
            &events(300),
            1,
        );
        for q in queries() {
            let direct = s.query(&q).unwrap();
            let merged = merge_partials(&q, &[s.query_partial(&q).unwrap()]);
            assert_eq!(merged, direct, "{q:?}");
        }
    }

    #[test]
    fn partial_roundtrips_through_the_wire_form() {
        let s = build_sharded(
            &StoreConfig::default(),
            &DeviceDirectory::default(),
            &events(300),
            1,
        );
        for q in queries() {
            let p = s.query_partial(&q).unwrap();
            let bytes = encode_partial(&p);
            assert_eq!(decode_partial(&bytes).unwrap(), p, "{q:?}");
        }
    }

    #[test]
    fn decode_is_total_on_hostile_bytes() {
        let s = build_sharded(
            &StoreConfig::default(),
            &DeviceDirectory::default(),
            &events(300),
            1,
        );
        let q = Query::count_by(vec![Dim::Kind, Dim::Isp]);
        let bytes = encode_partial(&s.query_partial(&q).unwrap());
        // (Every prefix and every bit flip: `frame_totality`'s `partial` row.)
        // A group count lying past the input is rejected before allocating.
        let mut lie = Vec::new();
        for v in [0u64, 0, 0, 8, u64::MAX] {
            write_varint(&mut lie, v);
        }
        assert_eq!(decode_partial(&lie), Err(PARTIAL.invalid("group count")));
        // Trailing garbage after a valid image is rejected.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_partial(&trailing),
            Err(PARTIAL.error(FrameErrorKind::TrailingBytes))
        );
    }

    #[test]
    fn rejects_unordered_group_keys() {
        let q = Query::count_by(vec![Dim::Kind]);
        let cell = Cell {
            count: 1,
            ..Default::default()
        };
        let p = PartialResultSet {
            window_ms: 1,
            groups: vec![(vec![2], cell.clone()), (vec![1], cell)],
            cells_scanned: 2,
            cells_matched: 2,
        };
        let bytes = encode_partial(&p);
        assert_eq!(
            decode_partial(&bytes),
            Err(PARTIAL.invalid("group keys not ascending"))
        );
        // The merge itself is still total on such input.
        let _ = merge_partials(&q, &[p]);
    }
}
