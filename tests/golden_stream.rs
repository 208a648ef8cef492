//! Golden window-seal manifest snapshot: the exact sequence of
//! (segment kind, window index, watermark at seal, record count, segment
//! digest) the streaming pipeline produces on the seed-2021 fleet, plus
//! the final merged digest and stream counters, pinned byte-for-byte.
//!
//! Any change to watermark advancement, window routing, late-lane
//! handling, sealing order, segment encoding, or the collector's
//! dedup/noise filters surfaces here as a readable diff. When a change is
//! *intentional*, regenerate and review:
//!
//! ```sh
//! CELLREL_BLESS=1 cargo test -q --test golden_stream
//! git diff tests/golden/stream_manifest_seed2021.txt
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use cellrel::ingest::frame::crc32;
use cellrel::ingest::CollectorConfig;
use cellrel::store::{save_store, DeviceDirectory, StoreConfig};
use cellrel::stream::{
    batches_from_events, MemSegments, SegmentKind, StreamConfig, StreamPipeline,
};
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};

fn stream_cfg() -> StreamConfig {
    StreamConfig {
        window_ms: 86_400_000,
        lateness_ms: 2 * 3_600_000,
        hot_windows: 3,
        late_flush: 512,
        collector: CollectorConfig::default(),
        store: StoreConfig::default(),
    }
}

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core (the facade owns the root tests/).
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/stream_manifest_seed2021.txt")
}

/// Run the seed-2021 fleet through a pipeline to the end of the stream and
/// hand the flushed pipeline (and the batch count) to `read`.
fn with_flushed_pipeline<T>(read: impl FnOnce(&StreamPipeline<'_>, usize) -> T) -> T {
    let data = run_macro_study(&StudyConfig {
        seed: 2021,
        population: PopulationConfig {
            devices: 2_000,
            ..Default::default()
        },
        days: 14,
        bs_count: 800,
    });
    let dir = DeviceDirectory::from_population(&data.population);
    let batches = batches_from_events(&data.events, 48);

    let cfg = stream_cfg();
    let mut segs = MemSegments::new();
    let mut p = StreamPipeline::new(&cfg, &dir).expect("valid config");
    for b in &batches {
        p.offer(b, &mut segs).expect("offer");
    }
    p.flush(&mut segs).expect("flush");
    read(&p, batches.len())
}

fn render(p: &StreamPipeline<'_>, batches: usize) -> String {
    let cfg = stream_cfg();
    let mut out = String::new();
    let _ = writeln!(out, "# stream window-seal manifest (seed 2021)");
    let _ = writeln!(
        out,
        "config: window_ms={} lateness_ms={} batch_cap=48",
        cfg.window_ms, cfg.lateness_ms
    );
    let _ = writeln!(out, "batches: {batches}");
    let _ = writeln!(
        out,
        "\n## manifest (kind window watermark_ms records digest)\n"
    );
    for e in p.manifest() {
        let kind = match e.kind {
            SegmentKind::Window => "window",
            SegmentKind::Late => "late",
        };
        let _ = writeln!(
            out,
            "{kind} {} {} {} {:016x}",
            e.index, e.watermark_ms, e.records, e.digest
        );
    }
    let c = p.counters();
    let _ = writeln!(out, "\n## counters\n");
    let _ = writeln!(out, "batches: {}", c.batches);
    let _ = writeln!(out, "records: {}", c.records);
    let _ = writeln!(out, "late_records: {}", c.late_records);
    let _ = writeln!(out, "windows_sealed: {}", c.windows_sealed);
    let _ = writeln!(out, "empty_windows: {}", c.empty_windows);
    let _ = writeln!(out, "late_segments: {}", c.late_segments);
    let _ = writeln!(out, "segments_persisted: {}", c.segments_persisted);
    let _ = writeln!(out, "base_folds: {}", c.base_folds);
    let _ = writeln!(out, "\ndigest: {:016x}", p.digest());
    let _ = writeln!(out, "collector digest: {:016x}", p.collector_digest());
    out
}

#[test]
fn stream_manifest_matches_golden_snapshot() {
    let actual = with_flushed_pipeline(render);
    let path = golden_path();

    if std::env::var_os("CELLREL_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             CELLREL_BLESS=1 cargo test -q --test golden_stream",
            path.display()
        )
    });
    if actual != expected {
        let mismatch = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e);
        match mismatch {
            Some((i, (a, e))) => panic!(
                "golden stream-manifest mismatch at line {}:\n  expected: {e}\n  actual:   {a}\n\
                 if the change is intentional: CELLREL_BLESS=1 cargo test -q --test golden_stream",
                i + 1
            ),
            None => panic!(
                "golden stream-manifest length mismatch ({} vs {} lines); \
                 if intentional: CELLREL_BLESS=1 cargo test -q --test golden_stream",
                actual.lines().count(),
                expected.lines().count()
            ),
        }
    }
}

/// The physical layout the manifest snapshot does not pin: how many cells
/// the 87 base folds left where, and the bytes of the served view's image.
/// A fold that merges, slices or counts differently moves these while every
/// digest stays put. The cell counts and `compactions` are as recorded
/// before the column merge; `cells_folded` counts every fold's rows in less
/// its rows out, so rows that equal keys collapse in the merge count too
/// (10 428, was 7 686 when only the bucket fold counted), and the image,
/// which carries the counter, moved with it (0xe012_4f2b, was 0xda14_7b1b).
/// The image embeds `SC` blocks, so it moved again when a one-record row
/// came to be written as its duration alone (`SC` version 2: 0x6ade_39c5,
/// was 0xe012_4f2b); the layout did not.
#[test]
fn served_view_layout_is_pinned() {
    let (layout, image_crc) = with_flushed_pipeline(|p, _| {
        let s = p.store();
        (
            (
                s.cells(),
                s.sealed_cells(),
                s.sealed_segments(),
                s.compactions(),
                s.cells_folded(),
            ),
            // Without the image's own CRC trailer: a CRC over a frame that
            // ends in its CRC is the same residue whatever the frame says.
            {
                let image = save_store(&s);
                crc32(&image[..image.len() - 4])
            },
        )
    });
    assert_eq!(layout, (30_059, 30_059, 16, 1_392, 10_428));
    assert_eq!(image_crc, 0x6ade_39c5);
}
