//! Golden wire-format snapshot for the cluster's `CR` replication and
//! federation protocol: a canonical replication session — segment ships,
//! a checkpoint, acks, a catch-up exchange, a federated query with its
//! partial-aggregate reply — plus the rejection frames for malformed,
//! wrong-version, unknown-kind, sequence-gap and corrupt-segment input,
//! all driven by the seed-2021 fleet and pinned byte-for-byte as hex
//! dumps.
//!
//! The frame encodings (magic, version byte, kind bytes, varint field
//! order, the embedded queryd query grammar, the store's partial wire
//! form, error codes, CRC trailer) are frozen wire contract: any
//! accidental change to `cellrel-cluster`'s proto module — or to the
//! segment codec and partial-aggregate encodings it embeds — surfaces
//! here as a readable diff. When a change is *intentional*, bump
//! `proto::VERSION`, regenerate and review:
//!
//! ```sh
//! CELLREL_BLESS=1 cargo test -q --test golden_cluster
//! git diff tests/golden/cluster_frames_seed2021.txt
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use cellrel::analysis::store_tables::table2_query;
use cellrel::cluster::proto;
use cellrel::cluster::{
    decode_frame, encode_frame, shard_directories, Follower, Message, ShardLeader,
};
use cellrel::ingest::frame::{seal, CR};
use cellrel::store::DeviceDirectory;
use cellrel::stream::{batches_from_events, StreamConfig};
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core (the facade owns the root tests/).
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cluster_frames_seed2021.txt")
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
    let mut f = vec![CR.magic[0], CR.magic[1], version, kind];
    f.extend_from_slice(payload);
    seal(&mut f, 0);
    f
}

/// Drive a one-shard leader/follower pair through a short seed-2021
/// session and dump every frame that crosses the wire.
fn canonical_frames() -> String {
    let data = run_macro_study(&StudyConfig {
        seed: 2021,
        population: PopulationConfig {
            devices: 120,
            ..Default::default()
        },
        days: 3,
        bs_count: 60,
    });
    let dir = DeviceDirectory::from_population(&data.population);
    let batches = batches_from_events(&data.events, 24);
    let scfg = StreamConfig {
        window_ms: 86_400_000,
        lateness_ms: 2 * 3_600_000,
        hot_windows: 2,
        late_flush: 256,
        ..Default::default()
    };
    let dirs = shard_directories(&dir, 1);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# cluster CR wire frames (seed 2021, protocol v{})",
        proto::VERSION
    );

    let mut leader = ShardLeader::new(&scfg, &dirs[0], 0, 3).expect("leader");
    let mut follower = Follower::new(&scfg, &dirs[0], 0);
    let mut shipped = 0usize;
    for b in &batches {
        for frame in leader.offer(b).expect("offer") {
            shipped += 1;
            // Dump the first few replication frames and their acks; the
            // tail of the session would only repeat the same shapes.
            let dump = shipped <= 3;
            if dump {
                let kind = match decode_frame(&frame).expect("leader frames decode") {
                    Message::ShipSegment { seq, .. } => format!("segment seq {seq}"),
                    Message::ShipCheckpoint { seq, .. } => format!("checkpoint seq {seq}"),
                    other => panic!("unexpected replication frame {other:?}"),
                };
                let _ = writeln!(out, "\n## replication: {kind}");
                hex_dump(&mut out, &frame);
            }
            let reply = follower.apply(&frame);
            if dump {
                let _ = writeln!(out, "\n## ack");
                hex_dump(&mut out, &reply);
            }
        }
    }
    for frame in leader.flush().expect("flush") {
        let reply = follower.apply(&frame);
        decode_frame(&reply).expect("acks decode");
    }
    let _ = writeln!(out, "\nleader digest: {:016x}", leader.digest());
    let _ = writeln!(
        out,
        "follower sealed digest: {:016x}",
        follower.sealed_store().digest()
    );

    // Catch-up exchange: a brand-new replica asks for everything.
    let fresh = Follower::new(&scfg, &dirs[0], 0);
    let request = fresh.catchup_request();
    let _ = writeln!(out, "\n## catch-up request (from empty replica)");
    hex_dump(&mut out, &request);
    let reply = leader.handle(&request);
    match decode_frame(&reply).expect("catch-up reply decodes") {
        Message::Segments { from_seq, frames } => {
            let _ = writeln!(
                out,
                "\n## catch-up reply: {} segments from seq {from_seq} (dump elided, {} bytes)",
                frames.len(),
                reply.len()
            );
        }
        other => panic!("unexpected catch-up reply {other:?}"),
    }

    // Federation exchange: the Table 2 query and its partial aggregate.
    leader.publish();
    let query_frame = encode_frame(&Message::Query(table2_query()));
    let _ = writeln!(out, "\n## federated query: table2 setup-error causes");
    hex_dump(&mut out, &query_frame);
    let partial = leader.handle(&query_frame);
    decode_frame(&partial).expect("partial decodes");
    let _ = writeln!(out, "\n## partial-aggregate reply");
    hex_dump(&mut out, &partial);

    // Rejection frames: every hostile shape a peer can answer.
    let hostile: Vec<(&str, Vec<u8>)> = vec![
        ("garbage (bad magic)", vec![0x5a; 16]),
        (
            "version mismatch (v9 catch-up)",
            sealed_frame(9, proto::KIND_CATCHUP, &[0]),
        ),
        (
            "unknown kind (0x44)",
            sealed_frame(proto::VERSION, 0x44, &[]),
        ),
        ("bad crc (flipped trailer bit)", {
            let mut f = encode_frame(&Message::Catchup { from_seq: 0 });
            let n = f.len();
            f[n - 1] ^= 0x01;
            f
        }),
        (
            "sequence gap (segment seq 99)",
            encode_frame(&Message::ShipSegment {
                seq: 99,
                frame: vec![0x53, 0x47],
            }),
        ),
        (
            "corrupt segment at the right seq",
            encode_frame(&Message::ShipSegment {
                seq: follower.applied() + 1,
                frame: vec![0xde, 0xad, 0xbe, 0xef],
            }),
        ),
    ];
    for (name, bytes) in &hostile {
        let _ = writeln!(out, "\n## hostile input: {name}");
        hex_dump(&mut out, bytes);
        let reply = follower.apply(bytes);
        match decode_frame(&reply).expect("rejection frames decode") {
            Message::Rejection { .. } => {}
            other => panic!("hostile input must be rejected, got {other:?}"),
        }
        let _ = writeln!(out, "\n## rejection: {name}");
        hex_dump(&mut out, &reply);
    }

    out
}

#[test]
fn cluster_frames_match_golden_snapshot() {
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
             CELLREL_BLESS=1 cargo test -q --test golden_cluster",
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
                "golden cluster frame mismatch at line {}:\n  expected: {e}\n  actual:   {a}\n\
                 the frame encoding is wire contract — if the change is intentional, bump \
                 proto::VERSION and regenerate: CELLREL_BLESS=1 cargo test -q --test golden_cluster",
                i + 1
            ),
            None => panic!(
                "golden cluster frame length mismatch ({} vs {} lines); \
                 if intentional: CELLREL_BLESS=1 cargo test -q --test golden_cluster",
                actual.lines().count(),
                expected.lines().count()
            ),
        }
    }
}
