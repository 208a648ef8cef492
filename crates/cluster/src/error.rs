//! The one error type every fallible cluster path returns.

use cellrel_ingest::FrameError;
use cellrel_stream::StreamError;

/// Why a cluster operation failed.
///
/// Wire-facing paths (frame decode, segment apply) are **total** — hostile
/// bytes surface as [`ClusterError::Frame`] or a replication rejection,
/// never a panic. [`ClusterError::Query`] carries the shard-side rejection
/// detail, which is exactly the single-node `QueryError` display string so
/// federated and local error behaviour agree.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A structural constraint was violated (shard count, directory views).
    Config(&'static str),
    /// An ingest batch could not be routed (its `CB` header failed to
    /// decode) or a replication/federation `CR` frame failed to decode.
    Frame(FrameError),
    /// A shard pipeline operation failed.
    Stream(StreamError),
    /// A shard rejected the query; the detail is the store's own
    /// `QueryError` display string.
    Query(String),
    /// A replica rejected or mangled a replication frame.
    Replication {
        /// Which shard's replica set raised the fault.
        shard: usize,
        /// Human-readable rejection detail.
        detail: String,
    },
    /// A leader promotion could not complete.
    Failover(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(why) => write!(f, "bad cluster config: {why}"),
            ClusterError::Frame(e) => write!(f, "{e}"),
            ClusterError::Stream(e) => write!(f, "shard pipeline: {e}"),
            ClusterError::Query(detail) => write!(f, "query rejected: {detail}"),
            ClusterError::Replication { shard, detail } => {
                write!(f, "replication fault on shard {shard}: {detail}")
            }
            ClusterError::Failover(detail) => write!(f, "failover: {detail}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<FrameError> for ClusterError {
    fn from(e: FrameError) -> Self {
        ClusterError::Frame(e)
    }
}

impl From<StreamError> for ClusterError {
    fn from(e: StreamError) -> Self {
        ClusterError::Stream(e)
    }
}
