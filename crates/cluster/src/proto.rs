//! The `CR` replication + federation wire format.
//!
//! One frame family carries both halves of the cluster's traffic: the
//! leader→follower replication stream (sealed segments, pipeline
//! checkpoints, catch-up) and the router↔shard query fan-out (typed
//! queries out, partial aggregates back). The layout mirrors the queryd
//! `CQ` family byte for byte in spirit:
//!
//! ```text
//! magic "CR" | version u8 | kind u8 | payload... | CRC-32 (LE)
//! ```
//!
//! Varints, zigzag, and the CRC are the ingest codec's; the query grammar
//! inside [`Message::Query`] is queryd's own `write_query`/`read_query`,
//! shared verbatim so a query means the same thing on every wire in the
//! system. Partial aggregates ride as the store's [`PartialResultSet`]
//! wire form.
//!
//! The envelope, its check order and the bounded reader are
//! [`cellrel_ingest::frame`]'s. Decoding is **total**: truncation, bit
//! flips, length lies, and garbage map onto a typed [`FrameError`], never a
//! panic, and never an over-read — every length field is bounds-checked
//! against the remaining payload before use. `tests/frame_totality.rs`
//! proves this under proptest; `tests/golden_cluster.rs` pins the exact
//! bytes.
//!
//! The replication kinds carry frames of other families. [`read_frame`]
//! hands those out as sub-frames of the `CR` frame, not copies — marked, if
//! the `CR` frame was ([`cellrel_ingest::frame::Marks`]), so a follower
//! reads each replicated byte once. [`decode_frame`] is the same grammar,
//! with the cargo copied out into a [`Message`].

use std::ops::Range;

use crate::error::ClusterError;
use cellrel_ingest::frame::{
    seal, seal_around, write_varint, Frame, FrameError, FrameErrorKind, CR,
};
use cellrel_queryd::proto::{read_query, write_query};
use cellrel_store::{decode_partial, encode_partial, PartialResultSet, Query};

/// Wire schema version this build speaks.
pub const VERSION: u8 = 1;

/// Leader → follower: one sealed segment (`SG` frame) at a log position.
pub const KIND_SEGMENT: u8 = 0x01;
/// Leader → follower: a pipeline checkpoint (`SP` blob) at a log position.
pub const KIND_CHECKPOINT: u8 = 0x02;
/// Follower → leader: replay the manifest suffix from a log position.
pub const KIND_CATCHUP: u8 = 0x03;
/// Router → shard: evaluate a typed query, return a partial aggregate.
pub const KIND_QUERY: u8 = 0x04;
/// Follower → leader: a frame was applied; carries the verified digest.
pub const KIND_ACK: u8 = 0x81;
/// Leader → follower: catch-up reply, the requested segment frames.
pub const KIND_SEGMENTS: u8 = 0x82;
/// Shard → router: the partial aggregate for one query.
pub const KIND_PARTIAL: u8 = 0x84;
/// Either direction: the peer rejected the frame; code + detail.
pub const KIND_ERROR: u8 = 0xEE;

/// Rejection code: the frame failed to decode.
pub const ERR_MALFORMED: u8 = 1;
/// Rejection code: unknown kind or unsupported version.
pub const ERR_UNSUPPORTED: u8 = 2;
/// Rejection code: the query failed store-side validation; the detail is
/// the store's `QueryError` display string.
pub const ERR_BAD_QUERY: u8 = 4;
/// Rejection code: the frame exceeds the `CR` cap (64 MiB).
pub const ERR_TOO_LARGE: u8 = 5;
/// Rejection code: a replication frame decoded but could not be applied
/// (sequence gap, digest mismatch, corrupt segment or checkpoint).
pub const ERR_APPLY: u8 = 6;
/// Rejection code: a well-formed frame arrived at an endpoint that does
/// not serve it (e.g. a catch-up request sent to a follower).
pub const ERR_UNEXPECTED: u8 = 7;

/// One decoded `CR` frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A sealed segment at replication position `seq` (1-based, dense).
    ShipSegment {
        /// Log position; a follower only applies `applied + 1`.
        seq: u64,
        /// The complete `SG` segment frame, digest included.
        frame: Vec<u8>,
    },
    /// A pipeline checkpoint covering positions `1..=seq`.
    ShipCheckpoint {
        /// Replication position the checkpoint's manifest extends to.
        seq: u64,
        /// The complete `SP` checkpoint blob.
        checkpoint: Vec<u8>,
    },
    /// Request the manifest suffix after `from_seq` (0 = everything).
    Catchup {
        /// Positions `from_seq + 1..` are wanted.
        from_seq: u64,
    },
    /// A typed store query, in queryd's query grammar.
    Query(Query),
    /// A replication frame was applied and verified.
    Ack {
        /// The applied position.
        seq: u64,
        /// Segment digest (or checkpoint CRC) verified on apply.
        digest: u64,
    },
    /// Catch-up reply: segment frames for `from_seq + 1..`.
    Segments {
        /// Echo of the request position.
        from_seq: u64,
        /// `SG` frames, in log order.
        frames: Vec<Vec<u8>>,
    },
    /// A per-shard partial aggregate, pre-finalize.
    Partial {
        /// Snapshot epoch the shard answered from.
        epoch: u64,
        /// The partial (mergeable) aggregate.
        partial: PartialResultSet,
    },
    /// The peer rejected the frame.
    Rejection {
        /// One of the `ERR_*` codes.
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
}

/// Encode one message as a complete `CR` frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    // Sized once for the bytes a message carries — a segment or a
    // checkpoint is kilobytes to megabytes — plus 64 for the envelope, the
    // kind and a few varints.
    let carried = match msg {
        Message::ShipSegment { frame: blob, .. }
        | Message::ShipCheckpoint {
            checkpoint: blob, ..
        } => blob.len(),
        Message::Segments { frames, .. } => frames.iter().map(|f| 10 + f.len()).sum(),
        Message::Rejection { detail, .. } => detail.len(),
        _ => 0,
    };
    let mut out = Vec::with_capacity(64 + carried);
    let start = CR.begin(&mut out, VERSION);
    match msg {
        Message::ShipSegment { seq, frame } => {
            write_ship(&mut out, KIND_SEGMENT, *seq, frame);
        }
        Message::ShipCheckpoint { seq, checkpoint } => {
            write_ship(&mut out, KIND_CHECKPOINT, *seq, checkpoint);
        }
        Message::Catchup { from_seq } => {
            out.push(KIND_CATCHUP);
            write_varint(&mut out, *from_seq);
        }
        Message::Query(q) => {
            out.push(KIND_QUERY);
            write_query(&mut out, q);
        }
        Message::Ack { seq, digest } => {
            out.push(KIND_ACK);
            write_varint(&mut out, *seq);
            write_varint(&mut out, *digest);
        }
        Message::Segments { from_seq, frames } => {
            out.push(KIND_SEGMENTS);
            write_varint(&mut out, *from_seq);
            write_varint(&mut out, frames.len() as u64);
            for f in frames {
                write_varint(&mut out, f.len() as u64);
                out.extend_from_slice(f);
            }
        }
        Message::Partial { epoch, partial } => {
            out.push(KIND_PARTIAL);
            write_varint(&mut out, *epoch);
            let body = encode_partial(partial);
            write_varint(&mut out, body.len() as u64);
            out.extend_from_slice(&body);
        }
        Message::Rejection { code, detail } => {
            out.push(KIND_ERROR);
            write_varint(&mut out, u64::from(*code));
            write_varint(&mut out, detail.len() as u64);
            out.extend_from_slice(detail.as_bytes());
        }
    }
    seal(&mut out, start);
    out
}

/// The kind, position and length-prefixed cargo of a replication message;
/// returns where the cargo landed.
fn write_ship(out: &mut Vec<u8>, kind: u8, seq: u64, cargo: &[u8]) -> Range<usize> {
    out.push(kind);
    write_varint(out, seq);
    write_varint(out, cargo.len() as u64);
    out.extend_from_slice(cargo);
    out.len() - cargo.len()..out.len()
}

/// [`encode_frame`] of a [`Message::ShipSegment`] (`kind` is
/// [`KIND_SEGMENT`]) or a [`Message::ShipCheckpoint`]
/// ([`KIND_CHECKPOINT`]) whose cargo is a complete frame this process
/// sealed or verified: the trailer sums around the cargo
/// ([`seal_around`]) instead of reading it again. The bytes are the ones
/// `encode_frame` writes.
pub(crate) fn encode_sealed_ship(kind: u8, seq: u64, cargo: &[u8]) -> Vec<u8> {
    debug_assert!(kind == KIND_SEGMENT || kind == KIND_CHECKPOINT);
    let mut out = Vec::with_capacity(64 + cargo.len());
    let start = CR.begin(&mut out, VERSION);
    let sealed = write_ship(&mut out, kind, seq, cargo);
    seal_around(&mut out, start, &[sealed]);
    out
}

/// One `CR` frame as [`read_frame`] parses it: the replication kinds
/// borrow the frames they carry, every other kind is decoded in full.
#[derive(Debug)]
pub enum MessageRef<'a> {
    /// [`Message::ShipSegment`], its `SG` frame unread.
    ShipSegment {
        /// Log position.
        seq: u64,
        /// The segment frame, marked if the `CR` frame was.
        frame: Frame<'a>,
    },
    /// [`Message::ShipCheckpoint`], its `SP` frame unread.
    ShipCheckpoint {
        /// Log position.
        seq: u64,
        /// The checkpoint frame, marked if the `CR` frame was.
        checkpoint: Frame<'a>,
    },
    /// [`Message::Segments`], its `SG` frames unread.
    Segments {
        /// Echo of the request position.
        from_seq: u64,
        /// The segment frames, in log order.
        frames: Vec<Frame<'a>>,
    },
    /// Any other kind.
    Other(Message),
}

impl MessageRef<'_> {
    /// The message, with any cargo copied out.
    pub fn into_message(self) -> Message {
        match self {
            MessageRef::ShipSegment { seq, frame } => Message::ShipSegment {
                seq,
                frame: frame.bytes().to_vec(),
            },
            MessageRef::ShipCheckpoint { seq, checkpoint } => Message::ShipCheckpoint {
                seq,
                checkpoint: checkpoint.bytes().to_vec(),
            },
            MessageRef::Segments { from_seq, frames } => Message::Segments {
                from_seq,
                frames: frames.iter().map(|f| f.bytes().to_vec()).collect(),
            },
            MessageRef::Other(msg) => msg,
        }
    }
}

/// Decode one complete `CR` frame. Total: any byte string yields `Ok` or a
/// typed [`FrameError`]; an embedded query or partial that fails reports
/// its own family.
pub fn decode_frame(bytes: &[u8]) -> Result<Message, FrameError> {
    read_frame(bytes).map(MessageRef::into_message)
}

/// [`decode_frame`] without copying the cargo out: the grammar, the result
/// and every error are the same. The frame is plain bytes or marked.
pub fn read_frame<'a>(frame: impl Into<Frame<'a>>) -> Result<MessageRef<'a>, FrameError> {
    let mut r = CR.open(frame)?;
    let msg = match r.u8()? {
        KIND_SEGMENT => MessageRef::ShipSegment {
            seq: r.varint()?,
            frame: r.frame("segment length")?,
        },
        KIND_CHECKPOINT => MessageRef::ShipCheckpoint {
            seq: r.varint()?,
            checkpoint: r.frame("checkpoint length")?,
        },
        KIND_SEGMENTS => {
            let from_seq = r.varint()?;
            // Every frame needs at least a length byte.
            let n = r.count("segment count", 1)?;
            let mut frames = Vec::with_capacity(n);
            for _ in 0..n {
                frames.push(r.frame("segment length")?);
            }
            MessageRef::Segments { from_seq, frames }
        }
        kind => MessageRef::Other(match kind {
            KIND_CATCHUP => Message::Catchup {
                from_seq: r.varint()?,
            },
            KIND_QUERY => Message::Query(read_query(&mut r)?),
            KIND_ACK => Message::Ack {
                seq: r.varint()?,
                digest: r.varint()?,
            },
            KIND_PARTIAL => Message::Partial {
                epoch: r.varint()?,
                partial: decode_partial(r.blob("partial length")?)?,
            },
            KIND_ERROR => Message::Rejection {
                code: r.narrow("error code")?,
                detail: r.str("detail")?.to_string(),
            },
            k => return Err(r.error(FrameErrorKind::UnknownKind(k))),
        }),
    };
    r.finish()?;
    Ok(msg)
}

/// The rejection frame a total server half answers with when a request
/// fails to decode.
pub fn rejection_for(e: &FrameError) -> Message {
    let code = match e.kind {
        FrameErrorKind::TooLarge(_) => ERR_TOO_LARGE,
        FrameErrorKind::UnsupportedVersion(_) | FrameErrorKind::UnknownKind(_) => ERR_UNSUPPORTED,
        _ => ERR_MALFORMED,
    };
    Message::Rejection {
        code,
        detail: e.to_string(),
    }
}

/// Decode a reply that must be an [`Message::Ack`]; anything else is a
/// replication fault on `shard`.
pub fn expect_ack(shard: usize, reply: &[u8]) -> Result<(u64, u64), ClusterError> {
    match decode_frame(reply)? {
        Message::Ack { seq, digest } => Ok((seq, digest)),
        Message::Rejection { code, detail } => Err(ClusterError::Replication {
            shard,
            detail: format!("rejected (code {code}): {detail}"),
        }),
        other => Err(ClusterError::Replication {
            shard,
            detail: format!("expected ack, got {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = encode_frame(&msg);
        assert_eq!(decode_frame(&frame), Ok(msg));
    }

    #[test]
    fn every_message_kind_roundtrips() {
        roundtrip(Message::ShipSegment {
            seq: 3,
            frame: vec![1, 2, 3, 250],
        });
        roundtrip(Message::ShipCheckpoint {
            seq: 9,
            checkpoint: Vec::new(),
        });
        roundtrip(Message::Catchup { from_seq: 0 });
        roundtrip(Message::Ack {
            seq: u64::MAX,
            digest: 0xdead_beef,
        });
        roundtrip(Message::Segments {
            from_seq: 2,
            frames: vec![vec![7; 5], Vec::new(), vec![0]],
        });
        roundtrip(Message::Rejection {
            code: ERR_APPLY,
            detail: "segment seq 4 does not follow applied seq 2".into(),
        });
    }

    #[test]
    fn query_and_partial_kinds_roundtrip() {
        use cellrel_store::{Dim, Metric};
        roundtrip(Message::Query(Query {
            filters: Vec::new(),
            group_by: vec![Dim::Isp, Dim::Rat],
            window_ms: 86_400_000,
            metric: Metric::Count,
            top_k: 5,
        }));
        roundtrip(Message::Partial {
            epoch: 17,
            partial: PartialResultSet {
                window_ms: 1,
                groups: Vec::new(),
                cells_scanned: 40,
                cells_matched: 0,
            },
        });
    }

    #[test]
    fn hostile_bytes_yield_typed_errors() {
        assert_eq!(decode_frame(&[]), Err(CR.error(FrameErrorKind::Truncated)));
        let good = encode_frame(&Message::Catchup { from_seq: 7 });
        // (Every prefix and every bit flip: `frame_totality`'s `cr` row.)
        // A length lie inside a CRC-valid frame is an InvalidField.
        let mut lie = Vec::new();
        CR.begin(&mut lie, VERSION);
        lie.push(KIND_SEGMENT);
        write_varint(&mut lie, 1);
        write_varint(&mut lie, 1_000_000); // claims 1 MB, carries none
        seal(&mut lie, 0);
        assert_eq!(decode_frame(&lie), Err(CR.invalid("segment length")));
        // Trailing garbage after a complete message is rejected.
        let mut trailing = good[..good.len() - 4].to_vec();
        trailing.push(0);
        seal(&mut trailing, 0);
        assert_eq!(
            decode_frame(&trailing),
            Err(CR.error(FrameErrorKind::TrailingBytes))
        );
    }

    #[test]
    fn oversized_frames_are_rejected_before_any_parse() {
        let huge = vec![0u8; CR.max_len + 1];
        assert_eq!(
            decode_frame(&huge),
            Err(CR.error(FrameErrorKind::TooLarge(CR.max_len as u64 + 1)))
        );
    }
}
