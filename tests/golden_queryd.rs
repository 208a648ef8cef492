//! Golden wire-format snapshot for the query daemon: a canonical set of
//! request/response frames — pings, stats, the Table 1/Table 2 queries, a
//! top-k query, and the wire-error responses for malformed, wrong-version,
//! unknown-kind and oversized input — served from the seed-2021 fleet and
//! pinned byte-for-byte as hex dumps.
//!
//! The frame encodings (magic, version byte, kind bytes, varint field
//! order, dimension/filter/metric tags, error codes, CRC trailer) are
//! frozen wire contract: any accidental change to `cellrel-queryd`'s proto
//! module, to `Dim::index`, or to the store's result ordering surfaces
//! here as a readable diff. When a change is *intentional*, bump
//! `proto::VERSION`, regenerate and review:
//!
//! ```sh
//! CELLREL_BLESS=1 cargo test -q --test golden_queryd
//! git diff tests/golden/queryd_frames_seed2021.txt
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use cellrel::analysis::store_tables::{table1_queries, table2_query};
use cellrel::ingest::frame::{seal, CQ};
use cellrel::queryd::proto::{self, decode_response, encode_request, Request};
use cellrel::queryd::QuerydCore;
use cellrel::store::{build_sharded, DeviceDirectory, Dim, Filter, Metric, Query, StoreConfig};
use cellrel::types::FailureKind;
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core (the facade owns the root tests/).
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/queryd_frames_seed2021.txt")
}

fn hex_dump(out: &mut String, bytes: &[u8]) {
    let _ = writeln!(out, "len: {}", bytes.len());
    for chunk in bytes.chunks(32) {
        for b in chunk {
            let _ = write!(out, "{b:02x}");
        }
        out.push('\n');
    }
}

/// A frame of the given kind with an arbitrary payload and a valid CRC —
/// framing is fine, so decoding proceeds into the payload grammar (or the
/// kind check) and fails there, deterministically.
fn sealed_frame(version: u8, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut f = vec![CQ.magic[0], CQ.magic[1], version, kind];
    f.extend_from_slice(payload);
    seal(&mut f, 0);
    f
}

/// Render the canonical exchange into one snapshot document. The serving
/// order is fixed, so the `requests_served` counter inside the stats reply
/// is deterministic too.
fn canonical_frames() -> String {
    let data = run_macro_study(&StudyConfig {
        seed: 2021,
        population: PopulationConfig {
            devices: 1_000,
            ..Default::default()
        },
        days: 7,
        bs_count: 500,
    });
    let dir = DeviceDirectory::from_population(&data.population);
    let store = build_sharded(&StoreConfig::default(), &dir, &data.events, 1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# queryd wire frames (seed 2021, protocol v{})",
        proto::VERSION
    );
    let _ = writeln!(out, "store digest: {:016x}", store.digest());
    let core = QuerydCore::new(store);

    let [t1_devices, t1_failing, t1_counts] = table1_queries();
    let requests: Vec<(&str, Request)> = vec![
        ("ping", Request::Ping),
        ("table1 devices by model", Request::Query(t1_devices)),
        (
            "table1 failing devices by model",
            Request::Query(t1_failing),
        ),
        ("table1 failure counts by model", Request::Query(t1_counts)),
        ("table2 setup-error causes", Request::Query(table2_query())),
        (
            "top-3 stall causes (filters + top_k)",
            Request::Query(Query {
                filters: vec![Filter::Kind(FailureKind::DataStall), Filter::HasCause],
                group_by: vec![Dim::Cause],
                window_ms: 0,
                metric: Metric::Count,
                top_k: 3,
            }),
        ),
        ("stats", Request::Stats),
    ];
    for (name, req) in &requests {
        let frame = encode_request(req);
        let _ = writeln!(out, "\n## request: {name}");
        hex_dump(&mut out, &frame);
        let resp = core.handle_frame(&frame);
        decode_response(&resp).expect("served frame always decodes");
        let _ = writeln!(out, "\n## response: {name}");
        hex_dump(&mut out, &resp);
    }

    let hostile: Vec<(&str, Vec<u8>)> = vec![
        ("garbage (bad magic)", vec![0x5a; 16]),
        (
            "version mismatch (v9 ping)",
            sealed_frame(9, proto::KIND_PING, &[]),
        ),
        (
            "unknown kind (0x44)",
            sealed_frame(proto::VERSION, 0x44, &[]),
        ),
        ("bad crc (flipped trailer bit)", {
            let mut f = encode_request(&Request::Ping);
            let n = f.len();
            f[n - 1] ^= 0x01;
            f
        }),
    ];
    for (name, bytes) in &hostile {
        let _ = writeln!(out, "\n## hostile input: {name}");
        hex_dump(&mut out, bytes);
        let resp = core.handle_frame(bytes);
        decode_response(&resp).expect("error frame always decodes");
        let _ = writeln!(out, "\n## error response: {name}");
        hex_dump(&mut out, &resp);
    }

    // The one error the transport answers without materialising a frame.
    let _ = writeln!(
        out,
        "\n## error response: oversized length prefix (u32::MAX)"
    );
    let resp = core.oversize_response(u64::from(u32::MAX));
    decode_response(&resp).expect("error frame always decodes");
    hex_dump(&mut out, &resp);

    out
}

#[test]
fn queryd_frames_match_golden_snapshot() {
    let actual = canonical_frames();
    let path = golden_path();

    if std::env::var_os("CELLREL_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             CELLREL_BLESS=1 cargo test -q --test golden_queryd",
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
                "golden queryd frame mismatch at line {}:\n  expected: {e}\n  actual:   {a}\n\
                 the frame encoding is wire contract — if the change is intentional, bump \
                 proto::VERSION and regenerate: CELLREL_BLESS=1 cargo test -q --test golden_queryd",
                i + 1
            ),
            None => panic!(
                "golden queryd frame length mismatch ({} vs {} lines); \
                 if intentional: CELLREL_BLESS=1 cargo test -q --test golden_queryd",
                actual.lines().count(),
                expected.lines().count()
            ),
        }
    }
}
