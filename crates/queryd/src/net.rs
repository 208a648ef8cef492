//! Transports: a std-only TCP server (thread per connection), a blocking
//! TCP client, and a deterministic in-process client.
//!
//! On the wire each frame travels as `u32` little-endian length + frame
//! bytes. The length prefix is untrusted: a prefix above the `CQ` frame cap
//! ([`CQ`]`.max_len`) is answered with an `ERR_TOO_LARGE` error and
//! the connection is closed (the stream's framing can no longer be
//! trusted), without ever allocating the claimed size.
//!
//! [`InProcClient`] feeds [`QuerydCore::handle_frame`] directly — the same
//! encode → decode → serve → encode → decode path as TCP minus the socket,
//! which is what the determinism tests pin against the live server.

use crate::proto::{self, Request, Response, WireError};
use crate::server::QuerydCore;
use cellrel_ingest::frame::{FrameError, FrameErrorKind, CQ};
use cellrel_store::{Query, ResultSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection's blocked read waits before it wakes to look at
/// the stop flag. It bounds how long [`QuerydServer::shutdown`] waits on an
/// idle connection and costs an idle connection 20 wakeups a second; a
/// request never waits on it, so nothing in use wants another value.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// What went wrong on the client side of a call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's bytes failed to decode.
    Proto(FrameError),
    /// The server answered with a wire error.
    Rejected(WireError),
    /// The server answered with a well-formed but wrong-kind response.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Rejected(e) => write!(f, "{e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Proto(e)
    }
}

fn expect_rows(resp: Response) -> Result<(u64, ResultSet), ClientError> {
    match resp {
        Response::Rows { epoch, result } => Ok((epoch, result)),
        Response::Error(e) => Err(ClientError::Rejected(e)),
        _ => Err(ClientError::Unexpected("expected rows")),
    }
}

/// A client that short-circuits the socket: every call runs the full frame
/// encode/decode path through the shared core, deterministically.
#[derive(Clone)]
pub struct InProcClient {
    core: Arc<QuerydCore>,
}

impl InProcClient {
    /// A client over `core`.
    pub fn new(core: Arc<QuerydCore>) -> Self {
        InProcClient { core }
    }

    /// One request/response exchange.
    pub(crate) fn call(&self, req: &Request) -> Result<Response, ClientError> {
        let frame = self.core.handle_frame(&proto::encode_request(req));
        Ok(proto::decode_response(&frame)?)
    }

    /// Evaluate a query; returns the snapshot epoch and the answer.
    pub fn query(&self, q: &Query) -> Result<(u64, ResultSet), ClientError> {
        expect_rows(self.call(&Request::Query(q.clone()))?)
    }
}

/// A blocking TCP client speaking length-prefixed frames.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connect to a queryd server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient { stream })
    }

    /// One request/response exchange.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &proto::encode_request(req))?;
        let frame = read_frame(&mut self.stream)?;
        Ok(proto::decode_response(&frame)?)
    }

    /// Evaluate a query; returns the snapshot epoch and the answer.
    pub fn query(&mut self, q: &Query) -> Result<(u64, ResultSet), ClientError> {
        expect_rows(self.call(&Request::Query(q.clone()))?)
    }
}

fn write_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(&(frame.len() as u32).to_le_bytes())?;
    w.write_all(frame)
}

fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ClientError> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len > CQ.max_len {
        return Err(CQ.error(FrameErrorKind::TooLarge(len as u64)).into());
    }
    let mut frame = vec![0u8; len];
    r.read_exact(&mut frame)?;
    Ok(frame)
}

/// A running TCP server. Dropping (or calling [`QuerydServer::shutdown`])
/// stops accepting, wakes blocked connections and joins every thread.
pub struct QuerydServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The accept thread owns the connection registry and hands back what
    /// is left of it when it stops.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

/// Serve `core` on `bind_addr` (e.g. `"127.0.0.1:0"` for an OS-assigned
/// port). One thread accepts; each connection gets its own thread that
/// answers frames until the peer closes or the server shuts down.
pub fn serve(core: Arc<QuerydCore>, bind_addr: &str) -> std::io::Result<QuerydServer> {
    let listener = TcpListener::bind(bind_addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let accept = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let core = core.clone();
                let stop = stop.clone();
                // A server that runs for months holds a handle per open
                // connection, not per connection it has ever accepted.
                conns.retain(|h| !h.is_finished());
                conns.push(std::thread::spawn(move || serve_conn(&core, &stop, stream)));
            }
            conns
        })
    };

    Ok(QuerydServer {
        addr,
        stop,
        accept: Some(accept),
    })
}

impl QuerydServer {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake blocked reads, and join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Returns how many connection threads were still registered.
    fn stop_and_join(&mut self) -> usize {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let conns = self
            .accept
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        let registered = conns.len();
        for h in conns {
            let _ = h.join();
        }
        registered
    }
}

impl Drop for QuerydServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

fn serve_conn(core: &QuerydCore, stop: &AtomicBool, mut stream: TcpStream) {
    // Short read timeouts let blocked connections notice shutdown; a frame
    // mid-flight keeps accumulating across timeouts.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut len4 = [0u8; 4];
    loop {
        // Once per frame: a client that never pauses never times a read
        // out, so the check in `read_exact_polling` alone would not end it.
        if stop.load(Ordering::Acquire) {
            return;
        }
        if !read_exact_polling(&mut stream, &mut len4, stop) {
            return;
        }
        let len = u32::from_le_bytes(len4) as usize;
        if len > CQ.max_len {
            // Answer once, then drop the connection: after a lying prefix
            // the byte stream can no longer be framed.
            let _ = write_frame(&mut stream, &core.oversize_response(len as u64));
            return;
        }
        let mut body = vec![0u8; len];
        if !read_exact_polling(&mut stream, &mut body, stop) {
            return;
        }
        let resp = core.handle_frame(&body);
        if write_frame(&mut stream, &resp).is_err() {
            return;
        }
    }
}

/// `read_exact` that tolerates read timeouts, bailing out when the peer
/// closes, the server shuts down, or the stream errors. Returns `true` iff
/// `buf` was filled.
fn read_exact_polling(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_store::{Dim, Query, Store, StoreConfig};

    fn served_core() -> (Arc<QuerydCore>, QuerydServer) {
        let core = QuerydCore::new(Store::new(&StoreConfig::default()));
        let server = serve(core.clone(), "127.0.0.1:0").expect("bind");
        (core, server)
    }

    #[test]
    fn tcp_and_inproc_answer_identically() {
        let (core, server) = served_core();
        let mut tcp = TcpClient::connect(server.addr()).expect("connect");
        let inproc = InProcClient::new(core);
        let q = Query::count_by(vec![Dim::Kind]);
        let (e1, r1) = tcp.query(&q).expect("tcp query");
        let (e2, r2) = inproc.query(&q).expect("inproc query");
        assert_eq!(e1, e2);
        assert_eq!(r1, r2);
        assert_eq!(tcp.call(&Request::Ping).unwrap(), Response::Pong);
        drop(tcp);
        server.shutdown();
    }

    #[test]
    fn lying_length_prefix_gets_an_error_then_disconnect() {
        let (_core, server) = served_core();
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(&(u32::MAX).to_le_bytes()).expect("write");
        let frame = read_frame(&mut raw).expect("error frame back");
        match proto::decode_response(&frame).expect("decodable") {
            Response::Error(e) => assert_eq!(e.code, proto::ERR_TOO_LARGE),
            other => panic!("unexpected: {other:?}"),
        }
        // The server hangs up after a lying prefix.
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("peer closed");
        assert!(rest.is_empty());
        server.shutdown();
    }

    #[test]
    fn garbage_bytes_get_a_malformed_error_and_the_conn_survives() {
        let (_core, server) = served_core();
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        let garbage = [0x5au8; 32];
        raw.write_all(&(garbage.len() as u32).to_le_bytes())
            .expect("write");
        raw.write_all(&garbage).expect("write");
        let frame = read_frame(&mut raw).expect("error frame back");
        match proto::decode_response(&frame).expect("decodable") {
            Response::Error(e) => assert_eq!(e.code, proto::ERR_MALFORMED),
            other => panic!("unexpected: {other:?}"),
        }
        // Framing is intact, so the connection still answers real requests.
        raw.set_nodelay(true).unwrap();
        let ping = proto::encode_request(&Request::Ping);
        raw.write_all(&(ping.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(&ping).unwrap();
        let frame = read_frame(&mut raw).expect("pong back");
        assert_eq!(proto::decode_response(&frame).unwrap(), Response::Pong);
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_idle_connections() {
        let (_core, server) = served_core();
        let _idle = TcpClient::connect(server.addr()).expect("connect");
        // The idle connection is mid-read on the length prefix; shutdown
        // must still join it promptly.
        server.shutdown();
    }

    #[test]
    fn shutdown_ends_a_connection_whose_client_never_pauses() {
        let (_core, server) = served_core();
        let addr = server.addr();
        let (answered, first_answer) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let mut tcp = TcpClient::connect(addr).expect("connect");
            let q = Query::count_by(vec![Dim::Kind]);
            let mut calls = 0u64;
            // Closed loop until the server hangs up on us.
            while tcp.query(&q).is_ok() {
                calls += 1;
                let _ = answered.send(());
            }
            calls
        });
        first_answer.recv().expect("client got an answer");
        let (done_tx, done) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        done.recv_timeout(Duration::from_secs(3))
            .expect("shutdown returns while the client is still looping");
        stopper.join().unwrap();
        assert!(client.join().unwrap() >= 1);
    }

    #[test]
    fn finished_connections_leave_the_registry() {
        let (_core, mut server) = served_core();
        let rounds = 32;
        for _ in 0..rounds {
            let mut tcp = TcpClient::connect(server.addr()).expect("connect");
            tcp.query(&Query::count_by(vec![Dim::Kind])).expect("query");
        }
        let registered = server.stop_and_join();
        assert!(
            registered < rounds,
            "{registered} handles held after {rounds} closed connections"
        );
    }
}
