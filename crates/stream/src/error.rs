//! The one error type every fallible stream path returns.

use cellrel_ingest::FrameError;

/// Why a stream operation failed. Decoding is **total**: hostile
/// checkpoint, segment, or manifest bytes map onto
/// [`StreamError::Frame`], never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A configuration constraint was violated (e.g. window width not a
    /// multiple of the store bucket width).
    Config(&'static str),
    /// A checkpoint, segment, or embedded collector/store frame failed to
    /// decode; the error names the family that rejected the bytes.
    Frame(FrameError),
    /// The manifest names a segment the backend cannot produce.
    SegmentMissing(String),
    /// A reloaded segment disagrees with its manifest entry.
    SegmentMismatch(String),
    /// A filesystem-backed segment store hit an I/O error.
    Io(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Config(why) => write!(f, "bad stream config: {why}"),
            StreamError::Frame(e) => write!(f, "{e}"),
            StreamError::SegmentMissing(name) => write!(f, "segment missing from backend: {name}"),
            StreamError::SegmentMismatch(name) => {
                write!(f, "segment disagrees with manifest: {name}")
            }
            StreamError::Io(e) => write!(f, "segment backend i/o: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<FrameError> for StreamError {
    fn from(e: FrameError) -> Self {
        StreamError::Frame(e)
    }
}
