//! A sealed frame goes from the seal to the wire: the `SG` bytes a
//! pipeline keeps from its last `offer`/`flush` are the bytes it persisted,
//! entry for entry, and the segment frames a shard leader ships are those
//! same bytes — what a catch-up would read back from the backend and
//! verify — over the seed-2021 fleet.

use cellrel::cluster::{decode_frame, encode_frame, Follower, Message, ShardLeader};
use cellrel::store::DeviceDirectory;
use cellrel::stream::{
    batches_from_events, decode_segment, MemSegments, SegmentEntry, SegmentStore, StreamConfig,
    StreamPipeline,
};
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};
use std::sync::OnceLock;

/// ~300 devices over 6 days, batches in upload order.
fn fixture() -> &'static (Vec<Vec<u8>>, DeviceDirectory) {
    static FIX: OnceLock<(Vec<Vec<u8>>, DeviceDirectory)> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = run_macro_study(&StudyConfig {
            population: PopulationConfig {
                devices: 300,
                ..Default::default()
            },
            days: 6,
            bs_count: 120,
            seed: 2021,
        });
        let dir = DeviceDirectory::from_population(&data.population);
        (batches_from_events(&data.events, 32), dir)
    })
}

fn stream_cfg() -> StreamConfig {
    StreamConfig {
        window_ms: 86_400_000,
        lateness_ms: 2 * 3_600_000,
        hot_windows: 2,
        late_flush: 128,
        ..Default::default()
    }
}

/// `sealed_frames()` against the entries the call returned and against the
/// backend: same count, same order, the persisted bytes, each decoding to
/// its entry.
fn assert_lines_up(p: &StreamPipeline<'_>, sealed: &[SegmentEntry], segs: &MemSegments) {
    let frames = p.sealed_frames();
    assert_eq!(frames.len(), sealed.len());
    for (entry, frame) in sealed.iter().zip(frames) {
        assert_eq!(frame, &segs.get(&entry.name()).expect("persisted"));
        assert_eq!(&decode_segment(frame).expect("own frame").0, entry);
    }
}

#[test]
fn sealed_frames_are_the_frames_the_last_call_persisted() {
    let (batches, dir) = fixture();
    let cfg = stream_cfg();
    let mut segs = MemSegments::new();
    let mut p = StreamPipeline::new(&cfg, dir).expect("valid config");
    assert!(p.sealed_frames().is_empty(), "nothing sealed yet");
    let (mut sealing, mut plain) = (0, 0);
    for (i, b) in batches.iter().enumerate() {
        let sealed = p.offer(b, &mut segs).expect("offer");
        assert_lines_up(&p, &sealed, &segs);
        if sealed.is_empty() {
            plain += 1;
        } else {
            sealing += 1;
        }
        if i == batches.len() / 2 {
            // A restored pipeline sealed nothing itself, whatever the one
            // it was checkpointed from had just sealed.
            let restored = StreamPipeline::restore(&p.checkpoint(), dir, &segs).expect("restore");
            assert_eq!(restored.manifest(), p.manifest());
            assert!(restored.sealed_frames().is_empty());
        }
    }
    assert!(sealing >= 4 && plain > sealing, "{sealing} sealing offers");
    let sealed = p.flush(&mut segs).expect("flush");
    assert!(!sealed.is_empty(), "the flush seals the open windows");
    assert_lines_up(&p, &sealed, &segs);
    assert!(p.flush(&mut segs).expect("second flush").is_empty());
    assert!(p.sealed_frames().is_empty(), "a call that seals nothing");
}

#[test]
fn a_leader_ships_the_frames_a_catchup_reads_back() {
    let (batches, dir) = fixture();
    let cfg = stream_cfg();
    let mut leader = ShardLeader::new(&cfg, dir, 0, 4).expect("leader");
    let mut follower = Follower::new(&cfg, dir, 0);
    let mut shipped = Vec::new();
    let mut deliver = |frames: Vec<Vec<u8>>, follower: &mut Follower| {
        for frame in frames {
            if let Message::ShipSegment { seq, frame } = decode_frame(&frame).expect("own frame") {
                shipped.push(frame);
                assert_eq!(seq, shipped.len() as u64);
            }
            let reply = decode_frame(&follower.apply(&frame)).expect("reply decodes");
            assert!(matches!(reply, Message::Ack { .. }), "{reply:?}");
        }
    };
    for b in batches {
        deliver(leader.offer(b).expect("offer"), &mut follower);
    }
    deliver(leader.flush().expect("flush"), &mut follower);
    assert!(shipped.len() >= 6, "{} segments", shipped.len());
    assert_eq!(follower.manifest(), leader.pipeline().manifest());

    // The catch-up path reads each frame back from the leader's backend
    // and verifies it against its manifest entry before handing it out.
    let reply = leader.handle(&encode_frame(&Message::Catchup { from_seq: 0 }));
    match decode_frame(&reply).expect("reply decodes") {
        Message::Segments {
            from_seq: 0,
            frames,
        } => assert_eq!(frames, shipped),
        other => panic!("expected the whole log, got {other:?}"),
    }
}
