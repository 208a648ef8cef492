//! The one frame layer behind every wire and disk format in the workspace.
//!
//! Eight framed families share one envelope:
//!
//! ```text
//! frame := magic:[u8;2] version:u8 body... crc32:u32le
//! ```
//!
//! The CRC-32 (IEEE) covers everything before it. Writers call
//! [`Family::begin`] then [`seal`]; readers call [`Family::open`], which
//! applies one fixed check order — length cap → minimum length → magic →
//! version → CRC — and hands back a bounded [`Reader`] over the body, so
//! field errors are only ever reported for intact frames. The `SC` column
//! block is the one exception: it is self-delimiting and always embedded in
//! a CRC-checked `CS` image, so [`Reader::enter`] checks its header up front
//! and [`Reader::leave`] checks its CRC once the fields have said where the
//! block ends.
//!
//! Every failure is a [`FrameError`]: the family it happened in plus one
//! [`FrameErrorKind`]. Decoding is total — no input panics, reads past the
//! buffer, or sizes an allocation from an unchecked length claim
//! ([`Reader::count`] bounds every count by the bytes that remain).
//!
//! Frames nest: a `CR` frame carries an `SP` checkpoint, which carries a
//! `CK` checkpoint and `CS` images, which carry `SC` blocks. Each has its
//! own trailer, and summing each one over its own bytes reads the innermost
//! bytes once per level. A reader that opens such a frame marks the buffer
//! first ([`Marks`]: one read, the running CRC kept every [`STRIDE`]
//! bytes) and opens it as a marked [`Frame`]; every frame embedded in it
//! comes out of the [`Reader`] still marked ([`Reader::frame`], and the
//! `SC` blocks [`Reader::leave`] closes), and its trailer is checked from
//! two marks. Nothing else changes: the sum a check compares is the one
//! summing the bytes would give, in the same order, so every error is too.

use std::fmt;
use std::ops::Range;

/// One framed format: its name, magic, the versions this build reads, and
/// the largest frame it will look at.
#[derive(PartialEq, Eq)]
pub struct Family {
    /// Two-letter family name, as errors print it.
    pub name: &'static str,
    /// The two leading bytes of every frame.
    pub magic: [u8; 2],
    /// Version bytes this build decodes.
    pub versions: &'static [u8],
    /// Frames longer than this are rejected before a byte is read.
    pub max_len: usize,
}

/// Trace batch: one device's records in one upload.
pub static CB: Family = Family::new("CB", &[1], 1 << 24);
/// Collector checkpoint.
pub static CK: Family = Family::new("CK", &[1], 1 << 28);
/// Store image; version 2 embeds `SC` blocks.
pub static CS: Family = Family::new("CS", &[1, 2], 1 << 28);
/// Column segment block inside a `CS` image.
pub static SC: Family = Family::new("SC", &[1], 1 << 28);
/// Sealed stream segment.
pub static SG: Family = Family::new("SG", &[1], 1 << 28);
/// Stream pipeline checkpoint.
pub static SP: Family = Family::new("SP", &[1], 1 << 28);
/// Query daemon request/response; the cap also bounds the TCP length prefix.
pub static CQ: Family = Family::new("CQ", &[1], 1 << 24);
/// Cluster replication and federation. Segment frames dominate: a sealed
/// window over the full fleet is a few MiB, so 64 MiB leaves an order of
/// magnitude of headroom while bounding hostile allocation.
pub static CR: Family = Family::new("CR", &[1], 1 << 26);
/// The bare (envelope-less) partial-aggregate form `CR` carries as a blob.
pub static PARTIAL: Family = Family {
    name: "partial",
    magic: [0; 2],
    versions: &[],
    max_len: usize::MAX,
};

/// Magic + version.
const HEADER_LEN: usize = 3;
/// CRC-32 trailer.
const TRAILER_LEN: usize = 4;

impl fmt::Debug for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl Family {
    const fn new(name: &'static str, versions: &'static [u8], max_len: usize) -> Family {
        let magic = [name.as_bytes()[0], name.as_bytes()[1]];
        Family {
            name,
            magic,
            versions,
            max_len,
        }
    }

    /// An error of `kind` in this family.
    #[inline]
    pub fn error(&'static self, kind: FrameErrorKind) -> FrameError {
        FrameError { family: self, kind }
    }

    /// A field of this family held an impossible value.
    #[inline]
    pub fn invalid(&'static self, field: &'static str) -> FrameError {
        self.error(FrameErrorKind::InvalidField(field))
    }

    /// Append the header (magic, `version`) to `out`; returns where the
    /// frame starts, for [`seal`].
    pub fn begin(&self, out: &mut Vec<u8>, version: u8) -> usize {
        debug_assert!(self.versions.contains(&version));
        let start = out.len();
        out.extend_from_slice(&self.magic);
        out.push(version);
        start
    }

    /// Cap → minimum length → magic → version; returns the version.
    fn check_header(&'static self, bytes: &[u8]) -> Result<u8, FrameError> {
        if bytes.len() > self.max_len {
            return Err(self.error(FrameErrorKind::TooLarge(bytes.len() as u64)));
        }
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(self.error(FrameErrorKind::Truncated));
        }
        self.check_magic(bytes)?;
        let version = bytes[2];
        if !self.versions.contains(&version) {
            return Err(self.error(FrameErrorKind::UnsupportedVersion(version)));
        }
        Ok(version)
    }

    fn check_magic(&'static self, bytes: &[u8]) -> Result<(), FrameError> {
        if bytes[..2] != self.magic {
            return Err(self.error(FrameErrorKind::BadMagic {
                found: [bytes[0], bytes[1]],
            }));
        }
        Ok(())
    }

    /// `computed` is the CRC-32 of the bytes `trailer` closes.
    fn check_crc(&'static self, computed: u32, trailer: &[u8]) -> Result<(), FrameError> {
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if computed != stored {
            return Err(self.error(FrameErrorKind::BadCrc { computed, stored }));
        }
        Ok(())
    }

    /// Validate the envelope of a complete frame and return a reader over
    /// its body (everything between the version byte and the CRC). The
    /// frame is plain bytes or a marked [`Frame`]; the reader hands out
    /// what it embeds the same way.
    pub fn open<'a>(&'static self, frame: impl Into<Frame<'a>>) -> Result<Reader<'a>, FrameError> {
        let frame = frame.into();
        let version = self.check_header(frame.bytes)?;
        let covered = frame.bytes.len() - TRAILER_LEN;
        self.check_crc(frame.crc(0..covered), &frame.bytes[covered..])?;
        Ok(Reader {
            family: self,
            body: frame.sub(0..covered),
            pos: HEADER_LEN,
            version,
        })
    }

    /// A reader over the fields after the header **without** checking the
    /// version or the CRC — for routing on a header field before paying for
    /// a full decode. Anything read this way is a hint, not a fact.
    pub fn peek<'a>(&'static self, bytes: &'a [u8]) -> Result<Reader<'a>, FrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(self.error(FrameErrorKind::Truncated));
        }
        self.check_magic(bytes)?;
        Ok(Reader {
            family: self,
            body: bytes.into(),
            pos: HEADER_LEN,
            version: bytes[2],
        })
    }
}

/// Append the CRC-32 of `out[start..]`, closing the frame [`Family::begin`]
/// opened at `start`.
pub fn seal(out: &mut Vec<u8>, start: usize) {
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// [`seal`] for a frame that embeds frames sealed a moment ago. Each range
/// of `out` in `sealed` (ascending, disjoint, inside the frame) must hold
/// one complete sealed frame; whatever its bytes, such a frame sums to
/// [`RESIDUE`], so it enters the CRC through [`crc32_combine`] instead of
/// being read a second time. The trailer is the one [`seal`] would write.
pub fn seal_around(out: &mut Vec<u8>, start: usize, sealed: &[std::ops::Range<usize>]) {
    let mut crc = 0;
    let mut at = start;
    for frame in sealed {
        crc = crc32_continue(crc, &out[at..frame.start]);
        crc = crc32_combine(crc, RESIDUE, frame.len());
        at = frame.end;
    }
    let crc = crc32_continue(crc, &out[at..]);
    debug_assert_eq!(crc, crc32(&out[start..]), "a range is not a sealed frame");
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Bytes between two marks of a [`Marks`]: the most a range check
/// re-reads at either end.
pub const STRIDE: usize = 64;

/// A buffer summed once, keeping the running CRC-32 every [`STRIDE`]
/// bytes. The sum of any range of it is then two prefix sums — each a mark
/// continued over fewer than `STRIDE` bytes — and one [`crc32_combine`]
/// to take the shorter prefix out of the longer: the CRC register is
/// linear, so `crc32(a ‖ b)` and `crc32(a)` give `crc32(b)`. A range of
/// up to `2 · STRIDE` bytes is summed directly instead, which costs less.
pub struct Marks<'a> {
    bytes: &'a [u8],
    /// `sums[i]` is `crc32(&bytes[..i * STRIDE])`.
    sums: Vec<u32>,
}

impl<'a> Marks<'a> {
    /// Read `bytes` once, marking every [`STRIDE`] bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        let mut sums = Vec::with_capacity(bytes.len() / STRIDE + 1);
        let mut crc = 0;
        sums.push(crc);
        for stride in bytes.chunks_exact(STRIDE) {
            crc = crc32_continue(crc, stride);
            sums.push(crc);
        }
        Marks { bytes, sums }
    }

    /// `crc32(&bytes[..end])`.
    fn prefix(&self, end: usize) -> u32 {
        let mark = end / STRIDE;
        crc32_continue(self.sums[mark], &self.bytes[mark * STRIDE..end])
    }

    /// `crc32(&bytes[start..end])`, reading at most `2 · STRIDE` bytes.
    pub(crate) fn range(&self, start: usize, end: usize) -> u32 {
        let span = &self.bytes[start..end];
        if span.len() <= 2 * STRIDE {
            return crc32(span);
        }
        crc32_combine(self.prefix(start), self.prefix(end), span.len())
    }

    /// The whole buffer as a marked frame.
    pub fn frame(&self) -> Frame<'_> {
        Frame {
            bytes: self.bytes,
            marks: Some((self, 0)),
        }
    }
}

impl fmt::Debug for Marks<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Marks({} bytes)", self.bytes.len())
    }
}

/// The bytes of one frame for [`Family::open`], marked or plain. Plain
/// bytes convert into one; [`Marks::frame`] makes a marked one, whose sums
/// come from the marks instead of the bytes, and [`Reader::frame`] hands
/// out the frames a marked one embeds marked too.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    bytes: &'a [u8],
    /// The marks of the buffer `bytes` sit in, and where in it they start.
    marks: Option<(&'a Marks<'a>, usize)>,
}

impl<'a> Frame<'a> {
    /// The frame's bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// `crc32(&self.bytes()[range])`, from the marks if there are any.
    fn crc(&self, range: Range<usize>) -> u32 {
        match self.marks {
            Some((marks, at)) => marks.range(at + range.start, at + range.end),
            None => crc32(&self.bytes[range]),
        }
    }

    /// The bytes at `range`, still marked if these are.
    fn sub(&self, range: Range<usize>) -> Frame<'a> {
        Frame {
            marks: self.marks.map(|(marks, at)| (marks, at + range.start)),
            bytes: &self.bytes[range],
        }
    }
}

impl<'a> From<&'a [u8]> for Frame<'a> {
    fn from(bytes: &'a [u8]) -> Self {
        Frame { bytes, marks: None }
    }
}

impl<'a> From<&'a Vec<u8>> for Frame<'a> {
    fn from(bytes: &'a Vec<u8>) -> Self {
        Frame::from(&bytes[..])
    }
}

/// Why bytes failed to decode, and in which family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError {
    /// The family whose grammar rejected the bytes. An embedded frame (a
    /// `CS` image inside an `SG` segment, say) reports its own family.
    pub family: &'static Family,
    /// What was wrong.
    pub kind: FrameErrorKind,
}

/// The failure modes of every family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameErrorKind {
    /// Input ended before the structure was complete.
    Truncated,
    /// The leading bytes are not the family's magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 2],
    },
    /// A version byte this build does not decode.
    UnsupportedVersion(u8),
    /// A kind byte that names no message of the family.
    UnknownKind(u8),
    /// The CRC-32 trailer does not match the received bytes.
    BadCrc {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        stored: u32,
    },
    /// A varint ran past 10 bytes (cannot be a `u64`).
    VarintOverflow,
    /// A varint spelled with more bytes than its value needs — a zero
    /// final byte after a continuation byte. One value has one spelling.
    OverlongVarint,
    /// A field held a value outside its domain, length lies included
    /// (named for diagnostics).
    InvalidField(&'static str),
    /// A complete structure followed by unexpected bytes.
    TrailingBytes,
    /// A frame (or a length prefix claiming one) of this many bytes exceeds
    /// the family's cap.
    TooLarge(u64),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} frame: ", self.family.name)?;
        match self.kind {
            FrameErrorKind::Truncated => write!(f, "truncated"),
            FrameErrorKind::BadMagic { found } => {
                write!(f, "bad magic {:02x}{:02x}", found[0], found[1])
            }
            FrameErrorKind::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            FrameErrorKind::UnknownKind(k) => write!(f, "unknown kind 0x{k:02x}"),
            FrameErrorKind::BadCrc { computed, stored } => {
                write!(
                    f,
                    "crc mismatch (computed {computed:08x}, stored {stored:08x})"
                )
            }
            FrameErrorKind::VarintOverflow => write!(f, "varint overflow"),
            FrameErrorKind::OverlongVarint => write!(f, "overlong varint"),
            FrameErrorKind::InvalidField(name) => write!(f, "invalid field: {name}"),
            FrameErrorKind::TrailingBytes => write!(f, "trailing bytes"),
            FrameErrorKind::TooLarge(n) => {
                write!(f, "length {n} exceeds the {}-byte cap", self.family.max_len)
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A bounds-checked cursor over one frame body. Every read either advances
/// or returns a [`FrameError`] tagged with the reader's family.
#[derive(Debug)]
pub struct Reader<'a> {
    family: &'static Family,
    body: Frame<'a>,
    pos: usize,
    version: u8,
}

/// An entered embedded block; give it back to [`Reader::leave`].
#[derive(Debug)]
pub struct Block {
    outer: &'static Family,
    start: usize,
}

impl<'a> Reader<'a> {
    /// A reader over bytes that carry no envelope of their own (framing,
    /// version and CRC belong to whatever carries them).
    pub fn bare(family: &'static Family, bytes: &'a [u8]) -> Self {
        Reader {
            family,
            body: bytes.into(),
            pos: 0,
            version: 0,
        }
    }

    /// The version byte of the frame [`Family::open`] opened.
    #[inline]
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.body.bytes.len() - self.pos
    }

    /// An error of `kind` in the family being read.
    #[inline]
    pub fn error(&self, kind: FrameErrorKind) -> FrameError {
        self.family.error(kind)
    }

    /// A field of the family being read held an impossible value.
    #[inline]
    pub fn invalid(&self, field: &'static str) -> FrameError {
        self.family.invalid(field)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        let &b = self
            .body
            .bytes
            .get(self.pos)
            .ok_or(self.error(FrameErrorKind::Truncated))?;
        self.pos += 1;
        Ok(b)
    }

    /// One LEB128 varint (1–10 bytes), spelled as [`write_varint`] spells
    /// it.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, FrameError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            // The tenth byte holds bit 63 alone: anything above 1, a
            // continuation bit included, cannot be a `u64`.
            if shift == 63 && b > 1 {
                return Err(self.error(FrameErrorKind::VarintOverflow));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                // The writer stops at the last non-zero group.
                if b == 0 && shift > 0 {
                    return Err(self.error(FrameErrorKind::OverlongVarint));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// One varint narrowed into a smaller integer type.
    #[inline]
    pub fn narrow<T: TryFrom<u64>>(&mut self, field: &'static str) -> Result<T, FrameError> {
        let v = self.varint()?;
        T::try_from(v).map_err(|_| self.invalid(field))
    }

    /// The next `len` bytes.
    #[inline]
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], FrameError> {
        if len > self.remaining() {
            return Err(self.error(FrameErrorKind::Truncated));
        }
        let s = &self.body.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// A count of items that each occupy at least `min_bytes_per_item`
    /// bytes somewhere in the rest of the body. A claim the remaining bytes
    /// cannot hold is a length lie — rejected here, before any allocation
    /// is sized from it.
    #[inline]
    pub fn count(
        &mut self,
        field: &'static str,
        min_bytes_per_item: usize,
    ) -> Result<usize, FrameError> {
        debug_assert!(min_bytes_per_item > 0);
        let n = self.varint()?;
        if n > (self.remaining() / min_bytes_per_item) as u64 {
            return Err(self.invalid(field));
        }
        Ok(n as usize)
    }

    /// If the unread bytes begin with `known`, step past them and say so;
    /// otherwise leave the cursor where it is.
    #[inline]
    pub(crate) fn skip_known(&mut self, known: &[u8]) -> bool {
        let next = self.body.bytes[self.pos..].starts_with(known);
        if next {
            self.pos += known.len();
        }
        next
    }

    /// Run `read` at the cursor and return what it read beside the bytes
    /// it consumed.
    pub(crate) fn spanned<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, FrameError>,
    ) -> Result<(T, &'a [u8]), FrameError> {
        let start = self.pos;
        let value = read(self)?;
        Ok((value, &self.body.bytes[start..self.pos]))
    }

    /// A length-prefixed byte string.
    #[inline]
    pub fn blob(&mut self, field: &'static str) -> Result<&'a [u8], FrameError> {
        let len = self.count(field, 1)?;
        self.take(len)
    }

    /// A length-prefixed frame of some family embedded in this one, for
    /// that family to open: marked if this reader's frame was, so its
    /// trailer is checked without reading its bytes again.
    pub fn frame(&mut self, field: &'static str) -> Result<Frame<'a>, FrameError> {
        let len = self.count(field, 1)?;
        let at = self.pos;
        self.take(len)?;
        Ok(self.body.sub(at..at + len))
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, field: &'static str) -> Result<&'a str, FrameError> {
        std::str::from_utf8(self.blob(field)?).map_err(|_| self.invalid(field))
    }

    /// Enter a self-delimiting block of `family` embedded at the cursor:
    /// header checks now, fields next (errors carry the block's family),
    /// CRC at [`Reader::leave`].
    pub fn enter(&mut self, family: &'static Family) -> Result<Block, FrameError> {
        family.check_header(&self.body.bytes[self.pos..])?;
        let block = Block {
            outer: std::mem::replace(&mut self.family, family),
            start: self.pos,
        };
        self.pos += HEADER_LEN;
        Ok(block)
    }

    /// Close a block: the next four bytes must be the CRC-32 of everything
    /// read since [`Reader::enter`] — summed from the marks, if any.
    pub fn leave(&mut self, block: Block) -> Result<(), FrameError> {
        let end = self.pos;
        let trailer = self.take(TRAILER_LEN)?;
        self.family
            .check_crc(self.body.crc(block.start..end), trailer)?;
        self.family = block.outer;
        Ok(())
    }

    /// The body must be fully consumed.
    #[inline]
    pub fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.body.bytes.len() {
            return Err(self.error(FrameErrorKind::TrailingBytes));
        }
        Ok(())
    }
}

/// Append `v` as an LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append one `pairs` sequence — a sketch run as every family that carries
/// one writes it:
///
/// ```text
/// pairs := nnz:varint (delta:varint count:varint)^nnz
/// ```
///
/// `delta` is the bucket index for the first pair and the (strictly
/// positive) step from the previous index after it. `pairs` must yield
/// exactly `nnz` pairs of valid sketch content. The header beside the
/// sequence (`min`, `max`, a count) is each family's own.
pub fn write_pairs(out: &mut Vec<u8>, nnz: usize, pairs: impl IntoIterator<Item = (u32, u64)>) {
    write_varint(out, nnz as u64);
    let mut prev = 0u32;
    let mut written = 0;
    for (i, c) in pairs {
        write_varint(out, u64::from(i - prev));
        write_varint(out, c);
        prev = i;
        written += 1;
    }
    debug_assert_eq!(written, nnz);
}

/// Read one `pairs` sequence (see [`write_pairs`]) beside the extremes its
/// header carried, appending the pairs to `run` — a sketch's own vector,
/// or a segment's pool. The wire's rules are applied here, once for every
/// family: a zero delta after the first pair, an index sum past `u64` and
/// non-zero extremes beside no pairs (a writer emits zeros there, so such
/// a frame would re-encode to other bytes) are each an
/// [`FrameErrorKind::InvalidField`]. Whether the pairs are sketch content
/// is for `cellrel_sim::sketch::check_run` to say, on `run`'s new tail. An
/// index past `u32` is past every bucket too: it saturates, and the
/// validator refuses it with the rest. What was appended before an error
/// stays in `run`; the caller is abandoning the decode.
pub fn read_pairs(
    r: &mut Reader<'_>,
    (min, max): (u64, u64),
    run: &mut Vec<(u32, u64)>,
) -> Result<(), FrameError> {
    // Each pair costs ≥ 2 bytes on the wire.
    let nnz = r.count("sketch nnz", 2)?;
    if nnz == 0 && (min, max) != (0, 0) {
        return Err(r.invalid("sketch extremes"));
    }
    // Exact: a sketch's own vector keeps no slack, and a pool its caller
    // sized for the whole segment falls short only on a forged frame.
    run.reserve_exact(nnz);
    let mut index = 0u64;
    for i in 0..nnz {
        let delta = r.varint()?;
        if i > 0 && delta == 0 {
            return Err(r.invalid("sketch index delta"));
        }
        index = index.checked_add(delta).ok_or(r.invalid("sketch index"))?;
        run.push((u32::try_from(index).unwrap_or(u32::MAX), r.varint()?));
    }
    Ok(())
}

/// Map a signed value onto an unsigned one with small magnitudes staying
/// small (0,-1,1,-2 → 0,1,2,3).
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// CRC-32 (IEEE, reflected) over `bytes`, eight bytes a step
/// (slicing-by-8): `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so the eight lookups of one step are independent of each
/// other and only the final XOR waits on the previous step — the
/// byte-at-a-time loop chains one dependent lookup per byte. A frame is
/// summed once on open — nested frames from the [`Marks`] of the outermost
/// — and writers that embed a frame they just sealed use [`seal_around`]
/// and sum it once too.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_continue(0, bytes)
}

/// The CRC-32 of any sealed frame: the covered bytes followed by their own
/// CRC, little-endian, always sum to this constant.
pub const RESIDUE: u32 = 0x2144_DF1C;

/// `crc32(a ‖ b)` from `crc32(a)`, `crc32(b)` and `b.len()`, without
/// reading a byte (zlib's `crc32_combine`): the CRC register is linear
/// over GF(2), so `a`'s sum moves past `b` by a multiplication with
/// `x^(8·len_b) mod P` — a handful of 32-step multiplies over a table of
/// the powers `x^(2^k)`, however long `b` is.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    crc32_combine_op(crc_a, crc_b, crc32_combine_gen(len_b))
}

/// The operator [`crc32_combine`] moves a sum past `len` bytes with,
/// `x^(8·len) mod P` (zlib's `crc32_combine_gen`). Building it is most of
/// a combine's cost — a multiply per set bit of `len` — so a writer that
/// combines the same lengths again keeps it.
pub(crate) fn crc32_combine_gen(len: usize) -> u32 {
    /// `X2N[k]` is `x^(2^k) mod P`; since x's order divides `2^32 - 1`,
    /// `k` wraps at 32.
    const X2N: [u32; 32] = {
        let mut table = [0u32; 32];
        table[0] = 1 << 30; // x¹
        let mut k = 1;
        while k < 32 {
            table[k] = multiply(table[k - 1], table[k - 1]);
            k += 1;
        }
        table
    };
    let mut op = 1 << 31; // x⁰
    let (mut n, mut k) = (len, 3); // 8·n = n·2³
    while n != 0 {
        if n & 1 != 0 {
            op = multiply(X2N[k & 31], op);
        }
        n >>= 1;
        k += 1;
    }
    op
}

/// [`crc32_combine`] with the operator for `b`'s length already built:
/// one multiply.
pub(crate) fn crc32_combine_op(crc_a: u32, crc_b: u32, op: u32) -> u32 {
    multiply(op, crc_a) ^ crc_b
}

/// `a · b mod P` in the CRC's reflected bit order (bit 31 is x⁰).
const fn multiply(mut a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    while a != 0 {
        if a & (1 << 31) != 0 {
            product ^= b;
        }
        a <<= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// The IEEE generator, reflected.
const POLY: u32 = 0xEDB8_8320;

/// Resume a CRC-32 that summed some bytes over `bytes`:
/// `crc32_continue(crc32(a), b) == crc32(a ‖ b)`.
fn crc32_continue(crc: u32, bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // One more zero byte behind the same leading byte.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use FrameErrorKind::*;

    const ENVELOPED: [&Family; 8] = [&CB, &CK, &CS, &SC, &SG, &SP, &CQ, &CR];

    /// Open `bytes` as one complete, body-less frame of `family`.
    fn open(family: &'static Family, bytes: &[u8]) -> Result<(), FrameError> {
        if *family == SC {
            let mut r = Reader::bare(&SC, bytes);
            let block = r.enter(&SC)?;
            r.leave(block)?;
            r.finish()
        } else {
            family.open(bytes)?.finish()
        }
    }

    #[test]
    fn every_family_rejects_the_same_corruptions_in_the_same_order() {
        // One lazily-zeroed buffer serves every over-the-cap case; the cap
        // check never reads it.
        let huge = vec![0u8; ENVELOPED.iter().map(|f| f.max_len).max().unwrap() + 1];
        for family in ENVELOPED {
            let mut good = Vec::new();
            family.begin(&mut good, family.versions[0]);
            seal(&mut good, 0);
            assert_eq!(open(family, &good), Ok(()), "{family:?}");

            let edit = |at: usize, to: u8| {
                let mut bad = good.clone();
                bad[at] = to;
                bad
            };
            let (wrong_magic, future_version) = (edit(0, b'X'), edit(2, 9));
            let flipped_trailer = edit(6, good[6] ^ 1);
            let crc = crc32(&good[..3]);
            // The five corruptions, in the order `open` looks for them.
            let table: [(&[u8], FrameErrorKind); 5] = [
                (
                    &huge[..family.max_len + 1],
                    TooLarge(family.max_len as u64 + 1),
                ),
                (&good[..6], Truncated),
                (
                    &wrong_magic,
                    BadMagic {
                        found: [b'X', family.magic[1]],
                    },
                ),
                (&future_version, UnsupportedVersion(9)),
                (
                    &flipped_trailer,
                    BadCrc {
                        computed: crc,
                        stored: crc ^ (1 << 24),
                    },
                ),
            ];
            for (bytes, kind) in table {
                assert_eq!(open(family, bytes), Err(family.error(kind)));
            }
            // Precedence: with magic, version and trailer all wrong the
            // magic is reported; restore it and the version is; cut the
            // frame short and nothing else is looked at.
            let mut all = edit(0, b'X');
            all[2] = 9;
            all[6] ^= 1;
            assert_eq!(open(family, &all), Err(family.error(table[2].1)));
            assert_eq!(open(family, &all[..6]), Err(family.error(Truncated)));
            all[0] = good[0];
            assert_eq!(open(family, &all), Err(family.error(table[3].1)));
        }
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            let mut x = (crc ^ u32::from(b)) & 0xff;
            for _ in 0..8 {
                x = if x & 1 != 0 {
                    (x >> 1) ^ 0xEDB8_8320
                } else {
                    x >> 1
                };
            }
            crc = (crc >> 8) ^ x;
        }
        !crc
    }

    #[test]
    fn crc32_is_the_ieee_checksum_at_every_length_and_alignment() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Every split between the eight-byte steps and the tail, at every
        // offset of the slice within its allocation.
        let mut seed = 0x2021u32;
        let buf: Vec<u8> = (0..72)
            .map(|_| {
                seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (seed >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_equals_the_bytewise_loop(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            start in 0usize..8,
        ) {
            let s = &bytes[start.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }

    /// `len` bytes of noise from `seed`.
    fn noise(mut seed: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (seed >> 56) as u8
            })
            .collect()
    }

    proptest::proptest! {
        /// Summing two buffers apart and combining is summing them
        /// together — either side empty, and `b` at any length up to past
        /// 2¹⁶ (lengths drawn log-uniformly, so every bit of `len_b`, the
        /// table index the combine walks, is exercised).
        #[test]
        fn crc32_combine_is_the_sum_of_the_concatenation(
            (a_len, b_bits, b_low) in (0usize..300, 0u32..18, proptest::prelude::any::<usize>()),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let b_len = b_low % (1 << b_bits);
            let a = noise(seed, a_len);
            let b = noise(!seed, b_len);
            let whole = [&a[..], &b[..]].concat();
            proptest::prop_assert_eq!(crc32_combine(crc32(&a), crc32(&b), b.len()), crc32(&whole));
            proptest::prop_assert_eq!(crc32_continue(crc32(&a), &b), crc32(&whole));
        }
    }

    #[test]
    fn crc32_combine_handles_empty_sides_and_long_tails() {
        let long = noise(7, 70_000);
        assert_eq!(crc32_combine(0, 0, 0), 0);
        assert_eq!(crc32_combine(crc32(&long), 0, 0), crc32(&long));
        assert_eq!(crc32_combine(0, crc32(&long), long.len()), crc32(&long));
        let (a, b) = long.split_at(1 << 16);
        assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(&long));
        let (a, b) = long.split_at(3);
        assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(&long));
    }

    /// A sealed frame of any family sums to `RESIDUE`; `seal_around` over
    /// embedded sealed frames — back to back or apart, right behind the
    /// header, right before the trailer — writes the trailer `seal` does.
    #[test]
    fn a_sealed_frame_sums_to_the_residue_and_seal_around_is_seal() {
        let frame = |family: &Family, body: &[u8]| {
            let mut out = Vec::new();
            family.begin(&mut out, family.versions[0]);
            out.extend_from_slice(body);
            seal(&mut out, 0);
            out
        };
        for (i, family) in ENVELOPED.into_iter().enumerate() {
            for len in [0, 1, 7, 300] {
                assert_eq!(crc32(&frame(family, &noise(i as u64, len))), RESIDUE);
            }
        }
        let inner: Vec<Vec<u8>> = (0..4)
            .map(|i| frame(&CS, &noise(i, 40 * i as usize)))
            .collect();
        for layout in 0..6u64 {
            let mut out = noise(layout, 5); // bytes before the outer frame
            let start = SP.begin(&mut out, 1);
            let mut sealed = Vec::new();
            for (i, img) in inner.iter().enumerate() {
                if layout >> (i % 3) & 1 == 0 {
                    out.extend(noise(layout + i as u64, (layout as usize * 3) % 11));
                }
                sealed.push(out.len()..out.len() + img.len());
                out.extend_from_slice(img);
            }
            let mut plain = out.clone();
            seal_around(&mut out, start, &sealed);
            seal(&mut plain, start);
            assert_eq!(out, plain, "layout {layout}");
        }
    }

    #[test]
    fn varint_overflow_and_end_of_input_are_distinct_in_every_family() {
        for family in ENVELOPED.into_iter().chain([&PARTIAL]) {
            let overflow = Reader::bare(family, &[0xff; 10]).varint();
            assert_eq!(overflow, Err(family.error(VarintOverflow)));
            // Nine continuation bytes then a tenth that sets bit 64.
            let mut wide = [0x80; 10];
            wide[9] = 0x02;
            let wide = Reader::bare(family, &wide).varint();
            assert_eq!(wide, Err(family.error(VarintOverflow)));
            let cut = Reader::bare(family, &[0x80, 0x80]).varint();
            assert_eq!(cut, Err(family.error(Truncated)));
            assert_eq!(
                Reader::bare(family, &[0xff; 9]).varint().unwrap_err().kind,
                Truncated
            );
        }
    }

    /// One value, one spelling: a zero group after a continuation byte
    /// is refused wherever it falls, the tenth byte included, while every
    /// spelling `write_varint` produces reads back.
    #[test]
    fn overlong_varints_are_refused_in_every_family() {
        let mut nine_then_zero = [0x80; 10];
        nine_then_zero[9] = 0;
        for family in ENVELOPED.into_iter().chain([&PARTIAL]) {
            for overlong in [
                &[0x80, 0x00][..],
                &[0xff, 0x00],
                &[0x80, 0x80, 0x00],
                &nine_then_zero,
            ] {
                let read = Reader::bare(family, overlong).varint();
                assert_eq!(read, Err(family.error(OverlongVarint)), "{overlong:?}");
            }
            for v in [0, 1, 127, 128, 1 << 35, u64::MAX >> 1, 1 << 63, u64::MAX] {
                let mut spelled = Vec::new();
                write_varint(&mut spelled, v);
                let mut r = Reader::bare(family, &spelled);
                assert_eq!(r.varint(), Ok(v));
                assert_eq!(r.finish(), Ok(()));
            }
        }
    }

    /// Every range of a buffer a few strides long, from its marks: empty
    /// ranges, ranges inside one stride, across one edge, across many.
    #[test]
    fn marks_sum_every_range_of_a_short_buffer() {
        let buf = noise(2021, 5 * STRIDE + 13);
        let marks = Marks::new(&buf);
        for a in 0..=buf.len() {
            for b in a..=buf.len() {
                assert_eq!(marks.range(a, b), crc32(&buf[a..b]), "{a}..{b}");
            }
        }
        assert_eq!(Marks::new(&[]).range(0, 0), 0);
    }

    proptest::proptest! {
        /// `Marks::range(a, b) == crc32(&buf[a..b])` for any `a ≤ b` of a
        /// buffer up to past 2¹⁶ bytes (lengths drawn log-uniformly), with
        /// the ends drawn anywhere, or on or one beside a stride edge.
        #[test]
        fn marks_range_is_the_crc_of_the_range(
            (len_bits, len_low) in (0u32..18, proptest::prelude::any::<usize>()),
            (a, b) in (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
            edges in 0usize..16,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let buf = noise(seed, len_low % (1 << len_bits) + len_bits as usize);
            let marks = Marks::new(&buf);
            let end = |x: usize, edge: usize| {
                let x = x % (buf.len() + 1);
                let on = x / STRIDE * STRIDE;
                match edge {
                    0 => x,
                    1 => on,
                    2 => on.saturating_sub(1),
                    _ => (on + 1).min(buf.len()),
                }
            };
            let (a, b) = (end(a, edges % 4), end(b, edges / 4));
            let (a, b) = (a.min(b), a.max(b));
            proptest::prop_assert_eq!(marks.range(a, b), crc32(&buf[a..b]));
            proptest::prop_assert_eq!(marks.frame().crc(a..b), Frame::from(&buf[..]).crc(a..b));
        }
    }

    #[test]
    fn count_is_measured_against_the_bytes_that_remain() {
        // Count 2 at 3 bytes per item with 6 bytes left: fits exactly.
        let body = [2, 0, 0, 0, 0, 0, 0];
        assert_eq!(Reader::bare(&CB, &body).count("n", 3), Ok(2));
        assert_eq!(Reader::bare(&CB, &body).count("n", 4), Err(CB.invalid("n")));
        let mut lie = Vec::new();
        write_varint(&mut lie, u64::MAX);
        lie.extend_from_slice(&[0; 64]);
        assert_eq!(Reader::bare(&CB, &lie).count("n", 1), Err(CB.invalid("n")));
        assert_eq!(Reader::bare(&CB, &lie).blob("b"), Err(CB.invalid("b")));
    }

    #[test]
    fn display_names_the_family_and_the_offending_values() {
        let text = |family: &'static Family, kind| family.error(kind).to_string();
        assert_eq!(text(&SG, Truncated), "SG frame: truncated");
        assert_eq!(
            text(&CR, BadMagic { found: [0x5a; 2] }),
            "CR frame: bad magic 5a5a"
        );
        assert_eq!(
            text(&CS, UnsupportedVersion(9)),
            "CS frame: unsupported version 9"
        );
        assert_eq!(text(&CQ, UnknownKind(0x44)), "CQ frame: unknown kind 0x44");
        assert_eq!(
            text(
                &SC,
                BadCrc {
                    computed: 0xab,
                    stored: 0xcd
                }
            ),
            "SC frame: crc mismatch (computed 000000ab, stored 000000cd)"
        );
        assert_eq!(text(&CK, VarintOverflow), "CK frame: varint overflow");
        assert_eq!(
            text(&SP, InvalidField("nseq")),
            "SP frame: invalid field: nseq"
        );
        assert_eq!(text(&CB, TrailingBytes), "CB frame: trailing bytes");
        assert_eq!(
            text(&CQ, TooLarge(1 << 32)),
            "CQ frame: length 4294967296 exceeds the 16777216-byte cap"
        );
    }
}
