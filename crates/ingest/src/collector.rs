//! The sharded trace collector — the backend half of the paper's platform.
//!
//! Encoded upload batches stream in from millions of devices; the collector
//! decodes, deduplicates, noise-filters (§2.1) and folds them into
//! aggregates whose size depends on what they have seen (the distinct
//! duration buckets and devices), never on how many records went by.
//! [`Collector::ingest_with`] is the one driver: route a batch to its
//! virtual shard, fold it in, echo what was accepted into a sink. Scale-out
//! is the cluster tier's device-hash sharding, one collector per shard
//! leader, not threads inside a collector.
//!
//! **Determinism.** Batches are routed to `device % virtual_shards` and a
//! shard's state depends only on the batch subsequence it was handed, so
//! the same batches in the same order yield a bit-identical
//! [`Collector::digest`].
//!
//! **Dedup / noise / lateness.** Re-delivered batches are dropped by the
//! per-device upload sequence number (`seq` must strictly increase);
//! identical records inside one batch are collapsed; records whose cause
//! codes mark rational rejections (the §2.1 false-positive classes) are
//! filtered out; and each shard tracks a high-water mark over record
//! timestamps so late / out-of-order arrivals (devices upload when WiFi
//! appears, often hours after the failure) are surfaced as counters
//! instead of silently skewing the stream.

use crate::codec::{decode_batch, peek_device};
use crate::frame::{crc32, crc32_combine_gen};
use cellrel_sim::sketch::SparseSketch;
use cellrel_sim::{Digest64, Merge};
use cellrel_types::{DeviceId, EventSink, FailureEvent, SimDuration};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Collector tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Fixed routing domain. Must not change across a campaign: shard
    /// layout is part of the deterministic state.
    pub virtual_shards: usize,
    /// How far behind a shard's timestamp high-water mark a record may be
    /// before it counts as late.
    pub lateness: SimDuration,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            virtual_shards: 64,
            lateness: SimDuration::from_mins(30),
        }
    }
}

/// Stream bookkeeping counters (summed across shards in the report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounters {
    /// Batches accepted (decoded, not duplicates).
    pub batches: u64,
    /// Encoded bytes of accepted batches.
    pub bytes: u64,
    /// Records folded into the aggregate.
    pub records: u64,
    /// Batches that failed to decode (truncated / corrupt / bad version).
    pub decode_errors: u64,
    /// Batches dropped by the per-device sequence dedup.
    pub duplicate_batches: u64,
    /// Identical records collapsed within accepted batches.
    pub duplicate_records: u64,
    /// Records dropped by §2.1 noise filtering (rational-rejection causes).
    pub filtered_noise: u64,
    /// Records older than the shard watermark minus the lateness window.
    pub late_records: u64,
    /// Accepted batches whose newest record predates the shard watermark.
    pub out_of_order_batches: u64,
}

impl Merge for IngestCounters {
    fn merge(&mut self, o: Self) {
        self.batches += o.batches;
        self.bytes += o.bytes;
        self.records += o.records;
        self.decode_errors += o.decode_errors;
        self.duplicate_batches += o.duplicate_batches;
        self.duplicate_records += o.duplicate_records;
        self.filtered_noise += o.filtered_noise;
        self.late_records += o.late_records;
        self.out_of_order_batches += o.out_of_order_batches;
    }
}

/// The aggregate a shard (and, merged, the fleet) keeps: a few dozen
/// counters plus one sparse duration sketch per failure kind, so an idle
/// shard holds no heap at all and a busy one ~16 B per distinct duration
/// bucket it has seen.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestAggregate {
    /// Records aggregated.
    pub records: u64,
    /// Counts by kind (index = `FailureKind::index`).
    pub by_kind: [u64; 5],
    /// Counts by ISP.
    pub by_isp: [u64; 3],
    /// Counts by RAT.
    pub by_rat: [u64; 4],
    /// Exact total duration, integer milliseconds.
    pub duration_ms_total: u64,
    /// Failures shorter than 30 s (§3.1's 70.8 % headline).
    pub under_30s: u64,
    /// Longest single failure, milliseconds.
    pub max_duration_ms: u64,
    /// Per-kind duration sketches, milliseconds (Figs. 6–7 CDm inputs).
    pub sketch_by_kind: [SparseSketch; 5],
}

impl IngestAggregate {
    /// Fold one record in.
    pub fn push(&mut self, e: &FailureEvent) {
        let ms = e.duration.as_millis();
        self.records += 1;
        self.by_kind[e.kind.index()] += 1;
        self.by_isp[e.ctx.isp.index()] += 1;
        self.by_rat[e.ctx.rat.index()] += 1;
        self.duration_ms_total += ms;
        if ms < 30_000 {
            self.under_30s += 1;
        }
        self.max_duration_ms = self.max_duration_ms.max(ms);
        self.sketch_by_kind[e.kind.index()].push(ms);
    }

    /// Duration sketch over all kinds (milliseconds). Every record lands in
    /// exactly one per-kind sketch, so this is their exact bucket sum — it
    /// is derived on demand, not stored and pushed a second time.
    pub fn sketch_all(&self) -> SparseSketch {
        let mut all = SparseSketch::new();
        for s in &self.sketch_by_kind {
            all.merge_ref(s);
        }
        all
    }

    /// Absorb into a content digest.
    pub fn absorb_into(&self, d: &mut Digest64) {
        d.write_u64(self.records);
        for c in self.by_kind.iter().chain(&self.by_isp).chain(&self.by_rat) {
            d.write_u64(*c);
        }
        d.write_u64(self.duration_ms_total);
        d.write_u64(self.under_30s);
        d.write_u64(self.max_duration_ms);
        self.sketch_all().absorb_into(d);
        for s in &self.sketch_by_kind {
            s.absorb_into(d);
        }
    }
}

impl Merge for IngestAggregate {
    fn merge(&mut self, o: Self) {
        self.records += o.records;
        self.by_kind.merge(o.by_kind);
        self.by_isp.merge(o.by_isp);
        self.by_rat.merge(o.by_rat);
        self.duration_ms_total += o.duration_ms_total;
        self.under_30s += o.under_30s;
        self.max_duration_ms = self.max_duration_ms.max(o.max_duration_ms);
        for (mine, theirs) in self.sketch_by_kind.iter_mut().zip(o.sketch_by_kind) {
            mine.merge(theirs);
        }
    }
}

/// One shard's `CK` section. A checkpoint combines the section's CRC-32
/// into the frame's instead of summing the bytes again, with the combine
/// operator for its length — without which 64 combines cost what summing
/// an 18 KB checkpoint does. Both are worked out the first time a
/// checkpoint needs them, so a follower that only compares sections never
/// pays for them.
#[derive(Debug)]
pub(crate) struct Section {
    pub(crate) bytes: Vec<u8>,
    sum: OnceLock<(u32, u32)>,
}

impl Section {
    fn new(bytes: Vec<u8>) -> Self {
        Section {
            bytes,
            sum: OnceLock::new(),
        }
    }

    /// `(crc32(bytes), crc32_combine_gen(bytes.len()))`.
    pub(crate) fn sum(&self) -> (u32, u32) {
        *self
            .sum
            .get_or_init(|| (crc32(&self.bytes), crc32_combine_gen(self.bytes.len())))
    }
}

/// A shard's `CK` section, kept from one checkpoint to the next so a
/// checkpoint re-encodes only the shards that took a batch in between: the
/// bytes it was encoded to, or the bytes a restore parsed it from — for a
/// frame the encoder wrote, the same bytes. It is derived from the rest of
/// [`ShardState`] and never part of it: a clone starts empty and every
/// cache compares equal.
#[derive(Debug, Default)]
pub(crate) struct SectionCache(OnceLock<Section>);

impl SectionCache {
    /// A cache holding the section `bytes`, which the shard was read from.
    pub(crate) fn holding(bytes: &[u8]) -> Self {
        SectionCache(OnceLock::from(Section::new(bytes.to_vec())))
    }

    /// The cached section, if the shard has not changed since it was
    /// encoded or read.
    pub(crate) fn get(&self) -> Option<&Section> {
        self.0.get()
    }

    /// The cached section, encoding it with `encode` if the shard changed
    /// since the last call.
    pub(crate) fn get_or_encode(&self, encode: impl FnOnce() -> Vec<u8>) -> &Section {
        self.0.get_or_init(|| Section::new(encode()))
    }
}

impl Clone for SectionCache {
    fn clone(&self) -> Self {
        SectionCache::default()
    }
}

impl PartialEq for SectionCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// One virtual shard's deterministic state.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ShardState {
    pub(crate) agg: IngestAggregate,
    pub(crate) counters: IngestCounters,
    /// Per-device last accepted upload sequence number (dedup).
    pub(crate) last_seq: BTreeMap<u32, u64>,
    /// High-water mark over accepted record timestamps, ms.
    pub(crate) watermark_ms: u64,
    /// Valid until the next [`ShardState::accept_with`].
    pub(crate) section: SectionCache,
}

impl ShardState {
    /// Decode and fold one routed batch, echoing each accepted record into
    /// `sink` (after dedup and noise filtering, before anything else sees it).
    fn accept_with<S: EventSink>(&mut self, bytes: &[u8], lateness_ms: u64, sink: &mut S) {
        // Every outcome below moves at least a counter, and this is the
        // only place shard state mutates.
        self.section = SectionCache::default();
        let batch = match decode_batch(bytes) {
            Ok(b) => b,
            Err(_) => {
                self.counters.decode_errors += 1;
                return;
            }
        };
        // Per-device sequence dedup: a re-delivered (or replayed) batch
        // carries a seq at or below the last accepted one.
        if let Some(&last) = self.last_seq.get(&batch.device.0) {
            if batch.seq <= last {
                self.counters.duplicate_batches += 1;
                return;
            }
        }
        self.last_seq.insert(batch.device.0, batch.seq);
        self.counters.batches += 1;
        self.counters.bytes += bytes.len() as u64;

        let batch_max = batch
            .records
            .iter()
            .map(|e| e.start.as_millis())
            .max()
            .unwrap_or(0);
        if !batch.records.is_empty() && batch_max < self.watermark_ms {
            self.counters.out_of_order_batches += 1;
        }

        let mut prev: Option<&FailureEvent> = None;
        for e in &batch.records {
            // Canonical order puts identical records adjacent.
            if prev == Some(e) {
                self.counters.duplicate_records += 1;
                continue;
            }
            prev = Some(e);
            if e.cause_is_false_positive() {
                self.counters.filtered_noise += 1;
                continue;
            }
            if e.start.as_millis() + lateness_ms < self.watermark_ms {
                self.counters.late_records += 1;
            }
            self.counters.records += 1;
            self.agg.push(e);
            sink.record(e);
        }
        self.watermark_ms = self.watermark_ms.max(batch_max);
    }

    fn absorb_into(&self, d: &mut Digest64) {
        self.agg.absorb_into(d);
        d.write_u64(self.counters.batches);
        d.write_u64(self.counters.bytes);
        d.write_u64(self.counters.records);
        d.write_u64(self.counters.decode_errors);
        d.write_u64(self.counters.duplicate_batches);
        d.write_u64(self.counters.duplicate_records);
        d.write_u64(self.counters.filtered_noise);
        d.write_u64(self.counters.late_records);
        d.write_u64(self.counters.out_of_order_batches);
        d.write_u64(self.watermark_ms);
        d.write_u64(self.last_seq.len() as u64);
        for (&dev, &seq) in &self.last_seq {
            d.write_u64(u64::from(dev));
            d.write_u64(seq);
        }
    }
}

/// The collector: virtual-sharded ingestion state.
#[derive(Debug, Clone, PartialEq)]
pub struct Collector {
    pub(crate) virtual_shards: usize,
    pub(crate) lateness_ms: u64,
    pub(crate) shards: Vec<ShardState>,
    /// Batches whose header could not even be peeked for routing.
    pub(crate) unroutable: u64,
}

impl Collector {
    /// Fresh collector for a config.
    pub fn new(cfg: &CollectorConfig) -> Self {
        let vs = cfg.virtual_shards.max(1);
        Collector {
            virtual_shards: vs,
            lateness_ms: cfg.lateness.as_millis(),
            shards: vec![ShardState::default(); vs],
            unroutable: 0,
        }
    }

    /// The virtual shard a device's batches route to.
    pub fn shard_of(&self, device: DeviceId) -> usize {
        device.0 as usize % self.virtual_shards
    }

    /// Ingest one encoded batch with no downstream consumer.
    pub fn ingest(&mut self, bytes: &[u8]) {
        self.ingest_with(bytes, &mut ());
    }

    /// Ingest one encoded batch, echoing the records it **accepts** — after
    /// batch decode, per-device sequence dedup, intra-batch duplicate
    /// collapse and §2.1 noise filtering, so exactly the stream the
    /// aggregates are built from — into `sink` in batch arrival order.
    pub fn ingest_with<S: EventSink>(&mut self, bytes: &[u8], sink: &mut S) {
        match peek_device(bytes) {
            Ok(device) => {
                let shard = self.shard_of(device);
                self.shards[shard].accept_with(bytes, self.lateness_ms, sink);
            }
            Err(_) => self.unroutable += 1,
        }
    }

    /// Devices seen so far (shards partition devices, so this is exact).
    pub fn devices(&self) -> u64 {
        self.shards.iter().map(|s| s.last_seq.len() as u64).sum()
    }

    /// The collector-wide event-time watermark: the newest accepted record
    /// timestamp across all shards, in ms. Monotone over ingestion; a
    /// streaming consumer seals a time window once the watermark has moved
    /// past its end by the lateness bound.
    pub fn watermark_ms(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.watermark_ms)
            .max()
            .unwrap_or(0)
    }

    /// Content digest over the full collector state, folding shards in
    /// index order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest64::new();
        d.write_u64(self.virtual_shards as u64);
        d.write_u64(self.lateness_ms);
        d.write_u64(self.unroutable);
        for s in &self.shards {
            s.absorb_into(&mut d);
        }
        d.finish()
    }

    /// Merge shard states into the fleet-level report.
    pub fn report(&self) -> IngestReport {
        let mut aggregate = IngestAggregate::default();
        let mut counters = IngestCounters::default();
        for s in &self.shards {
            aggregate.merge(s.agg.clone());
            counters.merge(s.counters);
        }
        IngestReport {
            aggregate,
            counters,
            devices: self.devices(),
            unroutable: self.unroutable,
            digest: self.digest(),
        }
    }
}

/// The fleet-level ingestion summary.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Merged aggregate across all shards.
    pub aggregate: IngestAggregate,
    /// Summed stream counters.
    pub counters: IngestCounters,
    /// Distinct uploading devices.
    pub devices: u64,
    /// Batches that could not be routed (unreadable header).
    pub unroutable: u64,
    /// The collector state digest (see [`Collector::digest`]).
    pub digest: u64,
}

impl IngestReport {
    /// Mean encoded bytes per accepted record.
    pub fn bytes_per_record(&self) -> f64 {
        if self.counters.records == 0 {
            0.0
        } else {
            self.counters.bytes as f64 / self.counters.records as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_batch;
    use cellrel_types::{
        Apn, BsId, DataFailCause, FailureKind, InSituInfo, Isp, Rat, SignalLevel, SimTime,
    };

    fn ev(device: u32, start_s: u64, dur_s: u64, kind: FailureKind) -> FailureEvent {
        FailureEvent {
            device: DeviceId(device),
            kind,
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(dur_s),
            cause: (kind == FailureKind::DataSetupError).then_some(DataFailCause::SignalLost),
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L3,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(0, 7, 7)),
                isp: Isp::A,
            },
        }
    }

    fn batches(devices: u32, per_device: u64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for d in 0..devices {
            let records: Vec<FailureEvent> = (0..per_device)
                .map(|i| {
                    ev(
                        d,
                        100 * i + u64::from(d),
                        5 + i % 40,
                        if i % 2 == 0 {
                            FailureKind::DataStall
                        } else {
                            FailureKind::DataSetupError
                        },
                    )
                })
                .collect();
            out.push(encode_batch(DeviceId(d), 0, &records));
        }
        out
    }

    /// The section cache must not cost the collector a marker trait: shard
    /// leaders move collectors across threads and the stream pipeline
    /// clones and compares them.
    #[test]
    fn collector_is_still_clone_eq_send_sync() {
        fn assert_traits<T: Clone + PartialEq + Send + Sync>() {}
        assert_traits::<Collector>();
    }

    #[test]
    fn sequential_sink_skips_noise_and_duplicates() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let mut sink: Vec<FailureEvent> = Vec::new();
        let mut noisy = ev(1, 10, 5, FailureKind::DataSetupError);
        noisy.cause = Some(DataFailCause::InsufficientResources);
        let keep = ev(1, 20, 5, FailureKind::DataStall);
        let b = encode_batch(DeviceId(1), 0, &[noisy, keep, keep]);
        c.ingest_with(&b, &mut sink);
        assert_eq!(sink, vec![keep]);
    }

    #[test]
    fn duplicate_batches_are_dropped_by_seq() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let b0 = encode_batch(DeviceId(1), 0, &[ev(1, 10, 5, FailureKind::DataStall)]);
        let b1 = encode_batch(DeviceId(1), 1, &[ev(1, 20, 5, FailureKind::DataStall)]);
        c.ingest(&b0);
        c.ingest(&b0); // redelivery
        c.ingest(&b1);
        c.ingest(&b0); // stale replay
        let r = c.report();
        assert_eq!(r.counters.batches, 2);
        assert_eq!(r.counters.duplicate_batches, 2);
        assert_eq!(r.aggregate.records, 2);
    }

    #[test]
    fn intra_batch_duplicates_collapse() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let e = ev(1, 10, 5, FailureKind::DataStall);
        let b = encode_batch(DeviceId(1), 0, &[e, e, e]);
        c.ingest(&b);
        let r = c.report();
        assert_eq!(r.aggregate.records, 1);
        assert_eq!(r.counters.duplicate_records, 2);
    }

    #[test]
    fn noise_is_filtered_by_cause_class() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let mut noisy = ev(1, 10, 5, FailureKind::DataSetupError);
        noisy.cause = Some(DataFailCause::InsufficientResources); // BS overload
        let b = encode_batch(
            DeviceId(1),
            0,
            &[noisy, ev(1, 20, 5, FailureKind::DataStall)],
        );
        c.ingest(&b);
        let r = c.report();
        assert_eq!(r.counters.filtered_noise, 1);
        assert_eq!(r.aggregate.records, 1);
    }

    #[test]
    fn late_records_are_counted_not_dropped() {
        let cfg = CollectorConfig {
            lateness: SimDuration::from_mins(10),
            virtual_shards: 1,
        };
        let mut c = Collector::new(&cfg);
        // Device 1 advances the watermark to t=2h.
        c.ingest(&encode_batch(
            DeviceId(0),
            0,
            &[ev(0, 7200, 5, FailureKind::DataStall)],
        ));
        // Device 2's record from t=10s is far behind the watermark.
        c.ingest(&encode_batch(
            DeviceId(1),
            0,
            &[ev(1, 10, 5, FailureKind::DataStall)],
        ));
        let r = c.report();
        assert_eq!(r.counters.late_records, 1);
        assert_eq!(r.counters.out_of_order_batches, 1);
        assert_eq!(r.aggregate.records, 2, "late records still aggregate");
    }

    #[test]
    fn corrupt_batches_count_as_decode_errors() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let mut b = encode_batch(DeviceId(1), 0, &[ev(1, 10, 5, FailureKind::DataStall)]);
        let n = b.len();
        b[n - 1] ^= 0xff; // break the CRC
        c.ingest(&b);
        assert_eq!(c.report().counters.decode_errors, 1);
        // A header too short to route at all:
        c.ingest(&[0x00]);
        assert_eq!(c.report().unroutable, 1);
    }

    #[test]
    fn report_counts_devices_and_bytes() {
        let cfg = CollectorConfig::default();
        let data = batches(50, 10);
        let total_bytes: u64 = data.iter().map(|b| b.len() as u64).sum();
        let mut c = Collector::new(&cfg);
        for b in &data {
            c.ingest(b);
        }
        let r = c.report();
        assert_eq!(r.devices, 50);
        assert_eq!(r.counters.bytes, total_bytes);
        assert_eq!(r.counters.records, 500);
        assert!(r.bytes_per_record() < crate::codec::RAW_RECORD_BYTES as f64);
    }
}
