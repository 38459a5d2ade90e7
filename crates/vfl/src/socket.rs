//! Socket [`Transport`] backend: length-delimited wire-v2 frames over TCP
//! or Unix-domain sockets, so each party can run as its own OS process.
//!
//! The deployment shape mirrors the paper's: every party hosts a
//! [`PartyNode`] — a small daemon owning that party's inbox — and the
//! orchestrating process drives the protocol through a [`SocketTransport`]
//! whose every message genuinely transits the socket as a framed exchange.
//! Connection lifecycle is first-class:
//!
//! * a hello handshake negotiates protocol + wire version and rejects
//!   mismatches with [`TransportError::HandshakeFailed`];
//! * broken links redial with bounded exponential backoff;
//! * peer crash / EOF surfaces as [`TransportError::PeerDisconnected`],
//!   never a panic or an indefinite block (every read is deadline-bounded).
//!
//! A fan-out phase (`send_all`, then `recv_each`) costs one write burst and
//! one read burst per link, not a blocking round trip per message.
//!
//! Byte accounting is identical to the in-process backend: the shared
//! [`Meter`] counts the encoded message body only — frame headers and acks
//! are a property of the medium, not the protocol — so [`NetStats`] from a
//! socket run are comparable (and testably equal) to an in-process run.

use crate::transport::{Fault, Meter, NetStats, PartyId, Transport, TransportError};
use crate::wire::{Message, WireCodec};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use framing::{Frame, FrameBuf};

/// The frame layer: opcode-tagged bodies behind a `u32`-little-endian
/// length prefix, with a hard bound on body size so a hostile or corrupt
/// length prefix can never drive allocation.
pub mod framing {
    use super::{Bytes, PartyId, TransportError};

    /// Version of the framing/handshake protocol spoken on the socket.
    pub const PROTOCOL_VERSION: u32 = 1;
    /// Version of the message wire format carried in `Deliver`/`Msg`
    /// payloads (wire format v2: dense + adaptive-sparse matrix bodies).
    pub const WIRE_VERSION: u32 = 2;
    /// Upper bound on a frame body. The largest legal wire message is a
    /// dense matrix of `2^28` f32 entries (1 GiB) plus headers; anything
    /// larger is rejected *before* any buffer is grown for it.
    pub const MAX_FRAME_BODY: usize = (1 << 30) + 4096;
    /// Upper bound on a `HelloReject` reason string.
    pub const MAX_REJECT_REASON: usize = 512;

    /// One transport frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Frame {
        /// Connection opener: the dialer announces its versions and which
        /// party it expects this node to host.
        Hello {
            /// Framing/handshake protocol version ([`PROTOCOL_VERSION`]).
            protocol: u32,
            /// Message wire-format version ([`WIRE_VERSION`]).
            wire: u32,
            /// The party the dialer expects at this endpoint.
            party: PartyId,
        },
        /// Handshake accepted; the node echoes the versions it speaks.
        HelloAck {
            /// Node's framing/handshake protocol version.
            protocol: u32,
            /// Node's message wire-format version.
            wire: u32,
        },
        /// Handshake rejected (version mismatch, wrong party, garbage).
        HelloReject {
            /// Human-readable rejection reason.
            reason: String,
        },
        /// Push one encoded protocol message into the node's inbox.
        Deliver {
            /// Originating party.
            from: PartyId,
            /// The `Message` in its wire encoding.
            payload: Bytes,
        },
        /// A `Deliver` landed in the inbox.
        DeliverAck,
        /// Pop the node's next inbox message, waiting up to `timeout_ms`.
        RecvReq {
            /// Bounded wait in milliseconds.
            timeout_ms: u64,
        },
        /// Pop the node's next inbox message without waiting.
        TryRecvReq,
        /// Reply to `RecvReq`/`TryRecvReq`: one popped message.
        Msg {
            /// Originating party.
            from: PartyId,
            /// The `Message` in its wire encoding.
            payload: Bytes,
        },
        /// Reply to `TryRecvReq`: the inbox is empty.
        Empty,
        /// Reply to `RecvReq`: nothing arrived within the bounded wait.
        TimedOut,
    }

    /// Why a hello with the given versions must be rejected, if at all.
    /// Pure so the rejection rule is testable without a socket.
    pub fn handshake_reject_reason(protocol: u32, wire: u32) -> Option<String> {
        if protocol != PROTOCOL_VERSION {
            return Some(format!(
                "unsupported transport protocol version {protocol} (this node speaks {PROTOCOL_VERSION})"
            ));
        }
        if wire != WIRE_VERSION {
            return Some(format!(
                "unsupported message wire version {wire} (this node speaks {WIRE_VERSION})"
            ));
        }
        None
    }

    fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn put_party(out: &mut Vec<u8>, p: PartyId) {
        match p {
            PartyId::Server => {
                out.push(0);
                put_u32(out, 0);
            }
            PartyId::Client(i) => {
                out.push(1);
                // debug_assert!(i <= u32::MAX as usize): rosters are tiny.
                debug_assert!(u32::try_from(i).is_ok(), "client index fits the wire");
                put_u32(out, i as u32);
            }
            PartyId::Public => {
                out.push(2);
                put_u32(out, 0);
            }
        }
    }

    /// Encodes one frame as `u32-le body length ++ body`.
    pub fn encode_frame(frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(frame, &mut out);
        out
    }

    /// Appends one encoded frame to `out`, so a burst of frames bound for
    /// one link can leave in a single write.
    pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        match frame {
            Frame::Hello { protocol, wire, party } => {
                out.push(0);
                put_u32(out, *protocol);
                put_u32(out, *wire);
                put_party(out, *party);
            }
            Frame::HelloAck { protocol, wire } => {
                out.push(1);
                put_u32(out, *protocol);
                put_u32(out, *wire);
            }
            Frame::HelloReject { reason } => {
                out.push(2);
                let bytes = reason.as_bytes();
                let n = bytes.len().min(MAX_REJECT_REASON);
                out.extend_from_slice(&(n as u16).to_le_bytes());
                out.extend_from_slice(&bytes[..n]);
            }
            Frame::Deliver { from, payload } => {
                out.push(3);
                put_party(out, *from);
                out.extend_from_slice(payload);
            }
            Frame::DeliverAck => out.push(4),
            Frame::RecvReq { timeout_ms } => {
                out.push(5);
                put_u64(out, *timeout_ms);
            }
            Frame::TryRecvReq => out.push(6),
            Frame::Msg { from, payload } => {
                out.push(7);
                put_party(out, *from);
                out.extend_from_slice(payload);
            }
            Frame::Empty => out.push(8),
            Frame::TimedOut => out.push(9),
        }
        let body_len = out.len() - start - 4;
        // Wire messages are bounded well below MAX_FRAME_BODY < u32::MAX.
        debug_assert!(body_len <= MAX_FRAME_BODY, "internal frames stay under the bound");
        out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    }

    fn bad(detail: String) -> TransportError {
        TransportError::Frame { detail }
    }

    struct Cur<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cur<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], TransportError> {
            let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
            match end {
                Some(end) => {
                    let s = &self.buf[self.pos..end];
                    self.pos = end;
                    Ok(s)
                }
                None => Err(bad(format!(
                    "truncated frame body: wanted {n} more bytes, {} left",
                    self.buf.len() - self.pos
                ))),
            }
        }

        fn u8(&mut self) -> Result<u8, TransportError> {
            Ok(self.take(1)?[0])
        }

        fn u16(&mut self) -> Result<u16, TransportError> {
            let s = self.take(2)?;
            Ok(u16::from_le_bytes([s[0], s[1]]))
        }

        fn u32(&mut self) -> Result<u32, TransportError> {
            let s = self.take(4)?;
            Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        }

        fn u64(&mut self) -> Result<u64, TransportError> {
            let s = self.take(8)?;
            Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
        }

        fn party(&mut self) -> Result<PartyId, TransportError> {
            let tag = self.u8()?;
            let idx = self.u32()?;
            match tag {
                0 => Ok(PartyId::Server),
                1 => Ok(PartyId::Client(idx as usize)),
                2 => Ok(PartyId::Public),
                other => Err(bad(format!("unknown party tag {other}"))),
            }
        }

        fn rest(&mut self) -> Bytes {
            let s = self.buf[self.pos..].to_vec();
            self.pos = self.buf.len();
            Bytes::from(s)
        }

        fn finish(self) -> Result<(), TransportError> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(bad(format!("{} trailing bytes after frame body", self.buf.len() - self.pos)))
            }
        }
    }

    /// Decodes one frame body (everything after the length prefix). Total:
    /// every input yields a `Frame` or a typed [`TransportError::Frame`].
    pub fn decode_frame_body(body: &[u8]) -> Result<Frame, TransportError> {
        let mut cur = Cur { buf: body, pos: 0 };
        let frame = match cur.u8()? {
            0 => Frame::Hello { protocol: cur.u32()?, wire: cur.u32()?, party: cur.party()? },
            1 => Frame::HelloAck { protocol: cur.u32()?, wire: cur.u32()? },
            2 => {
                let n = cur.u16()? as usize;
                if n > MAX_REJECT_REASON {
                    return Err(bad(format!("reject reason of {n} bytes exceeds bound")));
                }
                let reason = String::from_utf8_lossy(cur.take(n)?).into_owned();
                Frame::HelloReject { reason }
            }
            3 => Frame::Deliver { from: cur.party()?, payload: cur.rest() },
            4 => Frame::DeliverAck,
            5 => Frame::RecvReq { timeout_ms: cur.u64()? },
            6 => Frame::TryRecvReq,
            7 => Frame::Msg { from: cur.party()?, payload: cur.rest() },
            8 => Frame::Empty,
            9 => Frame::TimedOut,
            other => return Err(bad(format!("unknown frame opcode {other}"))),
        };
        cur.finish()?;
        Ok(frame)
    }

    /// Incremental frame decoder over a byte stream that may arrive in
    /// arbitrary splits. Feed chunks with [`FrameBuf::extend`], pull frames
    /// with [`FrameBuf::next_frame`]. A length prefix over
    /// [`MAX_FRAME_BODY`] errors *before* any buffer grows toward it.
    #[derive(Debug, Default)]
    pub struct FrameBuf {
        buf: Vec<u8>,
    }

    impl FrameBuf {
        /// An empty decoder.
        pub fn new() -> Self {
            Self { buf: Vec::new() }
        }

        /// Appends received bytes.
        pub fn extend(&mut self, chunk: &[u8]) {
            self.buf.extend_from_slice(chunk);
        }

        /// Bytes buffered but not yet consumed as a frame.
        pub fn buffered(&self) -> usize {
            self.buf.len()
        }

        /// Pops the next complete frame, `Ok(None)` if more bytes are
        /// needed.
        ///
        /// # Errors
        ///
        /// [`TransportError::Frame`] on an oversized length prefix or a
        /// malformed body; the decoder must be discarded afterwards (the
        /// stream has lost sync).
        pub fn next_frame(&mut self) -> Result<Option<Frame>, TransportError> {
            if self.buf.len() < 4 {
                return Ok(None);
            }
            let len =
                u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if len > MAX_FRAME_BODY {
                return Err(bad(format!(
                    "length prefix {len} exceeds frame bound {MAX_FRAME_BODY}"
                )));
            }
            let Some(total) = len.checked_add(4) else {
                return Err(bad(format!("length prefix {len} overflows")));
            };
            if self.buf.len() < total {
                return Ok(None);
            }
            let frame = decode_frame_body(&self.buf[4..total])?;
            self.buf.drain(..total);
            Ok(Some(frame))
        }
    }

    // encode_frame's body-length cast is covered by the decode-side bound:
    // decode_frame_body never sees a body longer than MAX_FRAME_BODY.
    // gtv-lint: allow(cast-safety) -- module-trailing marker (unused)
}

/// Where a party listens: a TCP address or a Unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `host:port`.
    Tcp(String),
    /// Filesystem socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `"unix:/path/to.sock"` as a Unix-domain endpoint, anything
    /// else as a TCP `host:port`.
    pub fn parse(spec: &str) -> Self {
        match spec.strip_prefix("unix:") {
            Some(path) => Endpoint::Unix(PathBuf::from(path)),
            None => Endpoint::Tcp(spec.to_string()),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Initial-connect attempts (parties may still be starting up).
const CONNECT_ATTEMPTS: u32 = 6;
/// Base of the exponential redial backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(20);
/// How long a dialer waits for the hello reply.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a dialer waits for a `DeliverAck`/`Msg`/`Empty` reply.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);
/// Slack added to a node-side bounded wait before the dialer's own read
/// deadline fires (the node answers `TimedOut` first in the healthy case).
const RECV_MARGIN: Duration = Duration::from_secs(2);
/// Node-side poll tick: bounded waits and the accept loop sleep in these
/// steps instead of reading a wall clock (denied on library paths by the
/// determinism lint). It bounds how long a fresh dial waits for its hello.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Per-connection read poll period (stop-flag latency while a dialer is
/// connected).
const SERVE_POLL: Duration = Duration::from_millis(20);

fn backoff(attempt: u32) -> Duration {
    // attempt < CONNECT_ATTEMPTS <= 31, so the shift cannot overflow.
    BACKOFF_BASE * (1u32 << attempt.min(10))
}

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nb),
            Stream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// Turns Nagle's algorithm off on TCP links: a burst of small frames
    /// would otherwise wait on the peer's delayed ACK.
    fn set_nodelay(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nodelay(true),
            Stream::Unix(_) => Ok(()),
        }
    }

    fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

fn dial(endpoint: &Endpoint) -> std::io::Result<Stream> {
    let stream = match endpoint {
        Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
        Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
    }?;
    stream.set_nodelay()?;
    Ok(stream)
}

fn setup_failed(what: &str, detail: impl fmt::Display) -> TransportError {
    TransportError::HandshakeFailed { reason: format!("{what}: {detail}") }
}

/// Writes encoded frames as one write; a broken pipe reports the peer as
/// disconnected.
fn write_bytes(stream: &mut Stream, bytes: &[u8], party: PartyId) -> Result<(), TransportError> {
    stream
        .write_all(bytes)
        .and_then(|()| stream.flush())
        .map_err(|_| TransportError::PeerDisconnected { party })
}

/// Writes one frame; a broken pipe reports the peer as disconnected.
fn write_frame(stream: &mut Stream, frame: &Frame, party: PartyId) -> Result<(), TransportError> {
    write_bytes(stream, &framing::encode_frame(frame), party)
}

/// Reads one complete frame, honoring the stream's configured read
/// timeout. EOF/reset reports [`TransportError::PeerDisconnected`]; an
/// expired read deadline reports whatever `on_timeout` constructs.
fn read_frame(
    stream: &mut Stream,
    fb: &mut FrameBuf,
    party: PartyId,
    on_timeout: impl Fn() -> TransportError,
) -> Result<Frame, TransportError> {
    loop {
        // A burst's replies mostly arrive together: only zero a read
        // buffer when the buffered bytes hold no complete frame.
        if let Some(frame) = fb.next_frame()? {
            return Ok(frame);
        }
        let mut chunk = [0u8; 65536];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(TransportError::PeerDisconnected { party }),
            Ok(n) => fb.extend(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(on_timeout())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(TransportError::PeerDisconnected { party }),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix { listener: UnixListener, path: PathBuf },
}

/// A party's inbox daemon: binds one endpoint, serves framed
/// deliver/receive exchanges for exactly one [`PartyId`], and validates
/// every dialer's version handshake. The inbox outlives connections, so a
/// dialer that crashes and redials resumes where it left off.
pub struct PartyNode {
    party: PartyId,
    listener: Listener,
    inbox: Mutex<VecDeque<(PartyId, Bytes)>>,
    stop: AtomicBool,
}

impl fmt::Debug for PartyNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PartyNode({} @ {})", self.party, self.endpoint())
    }
}

impl PartyNode {
    /// Binds `endpoint` for `party`. A TCP port of `0` picks a free port
    /// (read it back via [`PartyNode::endpoint`]); a stale Unix socket file
    /// from a crashed node is replaced.
    ///
    /// # Errors
    ///
    /// [`TransportError::HandshakeFailed`] if the endpoint cannot be bound.
    pub fn bind(party: PartyId, endpoint: &Endpoint) -> Result<Self, TransportError> {
        let listener = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())
                    .map_err(|e| setup_failed("bind tcp endpoint", e))?;
                l.set_nonblocking(true).map_err(|e| setup_failed("listener setup", e))?;
                Listener::Tcp(l)
            }
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l =
                    UnixListener::bind(path).map_err(|e| setup_failed("bind unix endpoint", e))?;
                l.set_nonblocking(true).map_err(|e| setup_failed("listener setup", e))?;
                Listener::Unix { listener: l, path: path.clone() }
            }
        };
        Ok(Self {
            party,
            listener,
            inbox: Mutex::new(VecDeque::new()),
            stop: AtomicBool::new(false),
        })
    }

    /// The party this node hosts.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// The bound endpoint, with any OS-assigned TCP port resolved.
    pub fn endpoint(&self) -> Endpoint {
        match &self.listener {
            Listener::Tcp(l) => Endpoint::Tcp(
                l.local_addr().map_or_else(|_| "0.0.0.0:0".to_string(), |a| a.to_string()),
            ),
            Listener::Unix { path, .. } => Endpoint::Unix(path.clone()),
        }
    }

    /// Asks [`PartyNode::serve`] to return after its current poll tick
    /// (callable from another thread through an `Arc<PartyNode>`).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Accept-and-serve loop until [`PartyNode::request_stop`].
    /// Connections are served one at a time; per-connection failures sever
    /// that connection only and the node returns to accepting, so a peer
    /// may redial after a crash.
    ///
    /// # Errors
    ///
    /// Only listener-level failures (the listening socket itself died);
    /// anything a peer does wrong is answered or dropped, never fatal.
    pub fn serve(&self) -> Result<(), TransportError> {
        while !self.stop.load(Ordering::SeqCst) {
            match self.accept()? {
                Some(stream) => {
                    let _ = self.serve_conn(stream);
                }
                None => std::thread::sleep(POLL_INTERVAL),
            }
        }
        Ok(())
    }

    fn accept(&self) -> Result<Option<Stream>, TransportError> {
        let accepted = match &self.listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix { listener, .. } => listener.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(stream) => {
                // The listener is non-blocking (to poll the stop flag); the
                // accepted stream blocks with a short read timeout instead.
                stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.set_read_timeout(Some(SERVE_POLL)))
                    .and_then(|()| stream.set_nodelay())
                    .map_err(|e| setup_failed("accepted stream", e))?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(setup_failed("accept", e)),
        }
    }

    /// Serves one connection until EOF, a malformed frame, or a stop
    /// request. The first frame must be a version-valid `Hello` naming this
    /// node's party; everything else is answered from the inbox.
    fn serve_conn(&self, mut stream: Stream) -> Result<(), TransportError> {
        let mut fb = FrameBuf::new();
        let mut greeted = false;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let frame =
                match read_frame(&mut stream, &mut fb, self.party, || TransportError::Timeout {
                    party: self.party,
                    waited: SERVE_POLL,
                    round: None,
                    expecting: None,
                }) {
                    Ok(frame) => frame,
                    // Nothing arrived this tick: poll the stop flag and wait on.
                    Err(TransportError::Timeout { .. }) => continue,
                    // Peer hung up; return to accepting (it may redial).
                    Err(TransportError::PeerDisconnected { .. }) => return Ok(()),
                    // Malformed frame: the stream lost sync — drop it.
                    Err(e) => return Err(e),
                };
            match frame {
                Frame::Hello { protocol, wire, party } => {
                    let reject = framing::handshake_reject_reason(protocol, wire).or_else(|| {
                        (party != self.party)
                            .then(|| format!("this node hosts {}, not {party}", self.party))
                    });
                    match reject {
                        Some(reason) => {
                            let _ = write_frame(
                                &mut stream,
                                &Frame::HelloReject { reason },
                                self.party,
                            );
                            return Ok(());
                        }
                        None => {
                            greeted = true;
                            write_frame(
                                &mut stream,
                                &Frame::HelloAck {
                                    protocol: framing::PROTOCOL_VERSION,
                                    wire: framing::WIRE_VERSION,
                                },
                                self.party,
                            )?;
                        }
                    }
                }
                _ if !greeted => {
                    let _ = write_frame(
                        &mut stream,
                        &Frame::HelloReject {
                            reason: "handshake required before any other frame".to_string(),
                        },
                        self.party,
                    );
                    return Ok(());
                }
                Frame::Deliver { from, payload } => {
                    self.inbox.lock().push_back((from, payload));
                    write_frame(&mut stream, &Frame::DeliverAck, self.party)?;
                }
                Frame::RecvReq { timeout_ms } => {
                    let reply = self.wait_pop(timeout_ms);
                    write_frame(&mut stream, &reply, self.party)?;
                }
                Frame::TryRecvReq => {
                    let reply = match self.inbox.lock().pop_front() {
                        Some((from, payload)) => Frame::Msg { from, payload },
                        None => Frame::Empty,
                    };
                    write_frame(&mut stream, &reply, self.party)?;
                }
                other => {
                    let _ = write_frame(
                        &mut stream,
                        &Frame::HelloReject {
                            reason: format!("unexpected frame from dialer: {other:?}"),
                        },
                        self.party,
                    );
                    return Ok(());
                }
            }
        }
    }

    /// Pops the next inbox entry, sleep-polling in [`POLL_INTERVAL`] ticks
    /// up to `timeout_ms` (no wall-clock reads on library paths).
    fn wait_pop(&self, timeout_ms: u64) -> Frame {
        let mut remaining = timeout_ms;
        loop {
            if let Some((from, payload)) = self.inbox.lock().pop_front() {
                return Frame::Msg { from, payload };
            }
            if remaining == 0 || self.stop.load(Ordering::SeqCst) {
                return Frame::TimedOut;
            }
            std::thread::sleep(POLL_INTERVAL);
            remaining = remaining.saturating_sub(1);
        }
    }
}

impl Drop for PartyNode {
    fn drop(&mut self) {
        if let Listener::Unix { path, .. } = &self.listener {
            let _ = std::fs::remove_file(path);
        }
    }
}

struct Link {
    stream: Stream,
    fb: FrameBuf,
}

struct RemoteParty {
    endpoint: Endpoint,
    link: Option<Link>,
}

/// One party's share of a [`SocketTransport::exchange`]: the request
/// frames for its link, in order, each tagged with the caller's position
/// it serves, and the replies read back so far.
struct LinkBatch {
    party: PartyId,
    requests: Vec<(usize, Frame)>,
    replies: Vec<Frame>,
    /// Set when the link failed for good; `replies.len()` is where.
    failed: Option<TransportError>,
    /// Whether this exchange already spent its one redial.
    redialed: bool,
}

impl LinkBatch {
    fn new(party: PartyId) -> Self {
        Self { party, requests: Vec::new(), replies: Vec::new(), failed: None, redialed: false }
    }

    /// Appends `request` (serving caller position `at`) to `party`'s batch,
    /// opening the batch on first use so batches keep the order of their
    /// first request. Returns the batch's index.
    fn push(batches: &mut Vec<LinkBatch>, party: PartyId, at: usize, request: Frame) -> usize {
        let idx = match batches.iter().position(|b| b.party == party) {
            Some(idx) => idx,
            None => {
                batches.push(LinkBatch::new(party));
                batches.len() - 1
            }
        };
        batches[idx].requests.push((at, request));
        idx
    }
}

/// Where one position of a receive batch is popped from.
enum Source {
    /// A local inbox in this process.
    Local,
    /// The `usize`-th link batch of the exchange.
    Remote(usize),
    /// Known to fail before any frame is written.
    Fail(TransportError),
}

/// The socket [`Transport`] backend driven by the orchestrating process.
///
/// Parties with an endpoint in the roster are *remote*: every message to or
/// from them transits their [`PartyNode`] as a framed socket exchange.
/// Parties without one (typically [`PartyId::Server`] and
/// [`PartyId::Public`], which the orchestrator itself hosts) get local
/// in-process inboxes, exactly like the in-process backend's.
pub struct SocketTransport {
    meter: Meter,
    local: Mutex<HashMap<PartyId, VecDeque<(PartyId, Message)>>>,
    remotes: Mutex<HashMap<PartyId, RemoteParty>>,
    faults: Mutex<Vec<(PartyId, PartyId, Fault)>>,
    dead: Mutex<HashSet<PartyId>>,
    versions: (u32, u32),
}

impl fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.meter.stats();
        write!(f, "SocketTransport({} msgs, {} bytes)", s.messages, s.bytes)
    }
}

impl SocketTransport {
    /// Connects to the roster of server + `n_clients` clients + public
    /// board. Parties present in `endpoints` are dialed (bounded retry with
    /// exponential backoff, then a version handshake); the rest are hosted
    /// locally. Dialing everything eagerly surfaces configuration errors at
    /// construction, not mid-round.
    ///
    /// # Errors
    ///
    /// [`TransportError::HandshakeFailed`] if a party cannot be reached or
    /// rejects the handshake, [`TransportError::UnknownParty`] if
    /// `endpoints` names a party outside the roster.
    pub fn connect(
        n_clients: usize,
        endpoints: HashMap<PartyId, Endpoint>,
    ) -> Result<Self, TransportError> {
        Self::connect_with_versions(
            n_clients,
            endpoints,
            framing::PROTOCOL_VERSION,
            framing::WIRE_VERSION,
        )
    }

    /// [`SocketTransport::connect`] announcing custom handshake versions —
    /// a test hook for exercising the rejection path against a live node.
    #[doc(hidden)]
    pub fn connect_with_versions(
        n_clients: usize,
        endpoints: HashMap<PartyId, Endpoint>,
        protocol: u32,
        wire: u32,
    ) -> Result<Self, TransportError> {
        let mut roster = vec![PartyId::Server, PartyId::Public];
        roster.extend((0..n_clients).map(PartyId::Client));
        for p in endpoints.keys() {
            if !roster.contains(p) {
                return Err(TransportError::UnknownParty(*p));
            }
        }
        let mut local = HashMap::new();
        let mut remotes = HashMap::new();
        let mut remote_parties = Vec::new();
        for p in roster {
            match endpoints.get(&p) {
                Some(ep) => {
                    remotes.insert(p, RemoteParty { endpoint: ep.clone(), link: None });
                    remote_parties.push(p);
                }
                None => {
                    local.insert(p, VecDeque::new());
                }
            }
        }
        let transport = Self {
            meter: Meter::new(),
            local: Mutex::new(local),
            remotes: Mutex::new(remotes),
            faults: Mutex::new(Vec::new()),
            dead: Mutex::new(HashSet::new()),
            versions: (protocol, wire),
        };
        // Dial in deterministic party order.
        remote_parties.sort_unstable();
        for p in remote_parties {
            transport.ensure_link(p)?;
        }
        Ok(transport)
    }

    /// Arms a one-shot fault for the next send on `(from, to)` — same test
    /// instrumentation as the in-process backend, so fault regressions run
    /// against both.
    pub fn inject_fault(&self, from: PartyId, to: PartyId, fault: Fault) {
        self.faults.lock().push((from, to, fault));
    }

    fn take_fault(&self, from: PartyId, to: PartyId) -> Option<Fault> {
        let mut faults = self.faults.lock();
        let idx = faults.iter().position(|&(f, t, _)| f == from && t == to)?;
        Some(faults.remove(idx).2)
    }

    fn is_dead(&self, party: PartyId) -> bool {
        self.dead.lock().contains(&party)
    }

    /// Closes `party`'s socket, if one is open; the next exchange redials.
    fn drop_link(&self, party: PartyId) {
        if let Some(remote) = self.remotes.lock().get_mut(&party) {
            if let Some(link) = remote.link.take() {
                link.stream.shutdown();
            }
        }
    }

    /// Severs `party`'s link: the socket (if any) is shut down, the local
    /// inbox (if any) is dropped, and the party is marked dead.
    fn sever(&self, party: PartyId) {
        self.drop_link(party);
        self.local.lock().remove(&party);
        self.dead.lock().insert(party);
    }

    /// Dials `party` (if not already connected) and performs the handshake.
    fn ensure_link(&self, party: PartyId) -> Result<(), TransportError> {
        if self.is_dead(party) {
            return Err(TransportError::PeerDisconnected { party });
        }
        let mut remotes = self.remotes.lock();
        let Some(remote) = remotes.get_mut(&party) else {
            return Err(TransportError::UnknownParty(party));
        };
        if remote.link.is_some() {
            return Ok(());
        }
        let (protocol, wire) = self.versions;
        remote.link = Some(open_link(&remote.endpoint, party, protocol, wire)?);
        Ok(())
    }

    /// Runs `f` on `party`'s open link; a missing link reads as a broken one.
    fn with_link<R>(
        &self,
        party: PartyId,
        f: impl FnOnce(&mut Link) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        let mut remotes = self.remotes.lock();
        match remotes.get_mut(&party).and_then(|r| r.link.as_mut()) {
            Some(link) => f(link),
            None => Err(TransportError::PeerDisconnected { party }),
        }
    }

    /// The one request/reply routine of the socket backend. Each batch's
    /// requests leave as one coalesced write on its party's link, and only
    /// once every burst is out are replies read: per link, one reply per
    /// request, in request order (a link is FIFO both ways and its node
    /// serves frames in arrival order, so reply k answers request k).
    /// Single-message operations are the one-element case.
    ///
    /// A link that breaks redials once (bounded backoff inside
    /// [`open_link`]) and resends its unanswered requests; a second break
    /// marks the party dead and fails the batch with
    /// [`TransportError::PeerDisconnected`]. Any other failure also closes
    /// the link, so a stream with replies outstanding is never reused. A
    /// resent `Deliver` whose first copy actually landed surfaces upstream
    /// as a duplicate-message protocol violation — detected, not silent.
    fn exchange(&self, batches: &mut [LinkBatch], read_timeout: Duration) {
        for batch in batches.iter_mut() {
            self.write_burst(batch, read_timeout);
        }
        for batch in batches.iter_mut() {
            while batch.failed.is_none() && batch.replies.len() < batch.requests.len() {
                let meter = &self.meter;
                let party = batch.party;
                let reply = self.with_link(party, |link| {
                    read_frame(&mut link.stream, &mut link.fb, party, || {
                        meter.timeout_error(party, read_timeout)
                    })
                });
                match reply {
                    Ok(frame) => batch.replies.push(frame),
                    Err(e) => self.link_failed(batch, e, read_timeout),
                }
            }
        }
    }

    /// Writes `batch`'s unanswered requests to its link in one write.
    fn write_burst(&self, batch: &mut LinkBatch, read_timeout: Duration) {
        let party = batch.party;
        if let Err(e) = self.ensure_link(party) {
            // A redial that cannot re-establish a link that existed at
            // construction means the peer is gone, not misconfigured.
            self.dead.lock().insert(party);
            batch.failed = Some(match e {
                TransportError::HandshakeFailed { .. } => {
                    TransportError::PeerDisconnected { party }
                }
                other => other,
            });
            return;
        }
        let mut burst = Vec::new();
        for (_, frame) in &batch.requests[batch.replies.len()..] {
            framing::encode_frame_into(frame, &mut burst);
        }
        let written = self.with_link(party, |link| {
            link.stream
                .set_read_timeout(Some(read_timeout))
                .map_err(|_| TransportError::PeerDisconnected { party })?;
            write_bytes(&mut link.stream, &burst, party)
        });
        if let Err(e) = written {
            self.link_failed(batch, e, read_timeout);
        }
    }

    /// A failure on `batch`'s link: the first break redials and resends,
    /// anything else ends the batch for this link.
    fn link_failed(&self, batch: &mut LinkBatch, err: TransportError, read_timeout: Duration) {
        let party = batch.party;
        self.drop_link(party);
        match err {
            TransportError::PeerDisconnected { .. } if !batch.redialed => {
                batch.redialed = true;
                self.write_burst(batch, read_timeout);
            }
            TransportError::PeerDisconnected { .. } => {
                self.dead.lock().insert(party);
                batch.failed = Some(TransportError::PeerDisconnected { party });
            }
            other => batch.failed = Some(other),
        }
    }

    /// `send`'s per-message checks, fault and metering, applied in input
    /// order: returns the encoded body and how many copies of it go out
    /// (0 under [`Fault::Drop`], 2 under [`Fault::Duplicate`]).
    fn admit(
        &self,
        from: PartyId,
        to: PartyId,
        msg: &Message,
    ) -> Result<(Bytes, usize), TransportError> {
        if self.is_dead(to) {
            return Err(TransportError::PeerDisconnected { party: to });
        }
        if self.is_dead(from) {
            return Err(TransportError::PeerDisconnected { party: from });
        }
        let fault = self.take_fault(from, to);
        if fault == Some(Fault::Disconnect) {
            // The link dies as the send begins: nothing reaches the wire,
            // so nothing is metered (parity with the in-process backend).
            self.sever(to);
            return Err(TransportError::PeerDisconnected { party: to });
        }
        if !self.local.lock().contains_key(&to) && !self.remotes.lock().contains_key(&to) {
            return Err(TransportError::UnknownRecipient(to));
        }
        let encoded = msg.encode_with(self.meter.codec());
        self.meter.record(from, to, encoded.len());
        let copies = match fault {
            Some(Fault::Drop) => 0,
            Some(Fault::Duplicate) => 2,
            _ => 1,
        };
        Ok((encoded, copies))
    }

    /// Pushes one encoded message into a local inbox, or queues its
    /// `Deliver` frame on the recipient's link batch.
    fn route(
        &self,
        batches: &mut Vec<LinkBatch>,
        at: usize,
        from: PartyId,
        to: PartyId,
        encoded: Bytes,
    ) -> Result<(), TransportError> {
        {
            let mut local = self.local.lock();
            if let Some(inbox) = local.get_mut(&to) {
                // Decode from the wire bytes — the recipient sees only what
                // was actually serialized (parity with the in-process path).
                inbox.push_back((from, Message::decode(encoded)?));
                return Ok(());
            }
        }
        if !self.remotes.lock().contains_key(&to) {
            return Err(TransportError::UnknownRecipient(to));
        }
        LinkBatch::push(batches, to, at, Frame::Deliver { from, payload: encoded });
        Ok(())
    }

    /// Pops `party`'s local inbox, sleep-polling in 1 ms ticks instead of
    /// reading a wall clock (denied on library paths by the determinism
    /// lint). Local inboxes are filled by this process's own sends, so the
    /// first check succeeds in the healthy case.
    fn pop_local(
        &self,
        party: PartyId,
        timeout: Duration,
    ) -> Result<(PartyId, Message), TransportError> {
        let mut remaining = millis_of(timeout);
        loop {
            if let Some(inbox) = self.local.lock().get_mut(&party) {
                if let Some(entry) = inbox.pop_front() {
                    return Ok(entry);
                }
            } else {
                // Severed while we were polling.
                return Err(TransportError::PeerDisconnected { party });
            }
            if remaining == 0 {
                return Err(self.meter.timeout_error(party, timeout));
            }
            std::thread::sleep(POLL_INTERVAL);
            remaining -= 1;
        }
    }

    /// The receive half of a phase: pops one message at each `(party,
    /// kind)` position, in order, waiting up to `timeout` for each. Every
    /// remote position is requested up front, one `RecvReq` burst per
    /// link; replies are then consumed in position order and the first
    /// failure (a timeout, a broken link, or — when `kind` is set — a
    /// variant mismatch) ends the batch. Positions after it may already
    /// have been popped at their node; the phase is aborted either way.
    fn pop_each(
        &self,
        wants: &[(PartyId, Option<&'static str>)],
        timeout: Duration,
    ) -> Result<Vec<(PartyId, Message)>, TransportError> {
        let timeout_ms = millis_of(timeout);
        let mut batches: Vec<LinkBatch> = Vec::new();
        let mut plan = Vec::with_capacity(wants.len());
        for (at, &(party, _)) in wants.iter().enumerate() {
            let source = if self.is_dead(party) {
                Source::Fail(TransportError::PeerDisconnected { party })
            } else if self.local.lock().contains_key(&party) {
                Source::Local
            } else if self.remotes.lock().contains_key(&party) {
                Source::Remote(LinkBatch::push(
                    &mut batches,
                    party,
                    at,
                    Frame::RecvReq { timeout_ms },
                ))
            } else {
                Source::Fail(TransportError::UnknownParty(party))
            };
            let known_bad = matches!(source, Source::Fail(_));
            plan.push(source);
            if known_bad {
                break;
            }
        }
        // The node waits `timeout_ms` then answers `TimedOut`; our own read
        // deadline only fires if the node itself stopped responding.
        self.exchange(&mut batches, timeout.saturating_add(RECV_MARGIN));
        let mut replies: Vec<(std::vec::IntoIter<Frame>, Option<TransportError>)> =
            batches.into_iter().map(|b| (b.replies.into_iter(), b.failed)).collect();
        let mut out = Vec::with_capacity(wants.len());
        for (&(party, kind), source) in wants.iter().zip(plan) {
            let popped = match source {
                Source::Local => self.pop_local(party, timeout),
                Source::Remote(b) => {
                    let (frames, failed) = &mut replies[b];
                    match frames.next() {
                        Some(Frame::Msg { from, payload }) => {
                            Message::decode(payload).map(|msg| (from, msg)).map_err(Into::into)
                        }
                        Some(Frame::TimedOut) => Err(self.meter.timeout_error(party, timeout)),
                        Some(other) => Err(TransportError::Frame {
                            detail: format!("expected Msg/TimedOut from {party}, got {other:?}"),
                        }),
                        None => Err(failed
                            .clone()
                            .unwrap_or(TransportError::PeerDisconnected { party })),
                    }
                }
                Source::Fail(e) => Err(e),
            };
            let (from, msg) = popped.map_err(|e| match kind {
                Some(expected) => e.with_expecting(expected),
                None => e,
            })?;
            if let Some(expected) = kind.filter(|&k| k != msg.kind()) {
                return Err(TransportError::ProtocolViolation { from, expected, got: msg });
            }
            out.push((from, msg));
        }
        Ok(out)
    }
}

/// `d` in whole milliseconds, saturating at `u64::MAX`.
fn millis_of(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

fn open_link(
    endpoint: &Endpoint,
    party: PartyId,
    protocol: u32,
    wire: u32,
) -> Result<Link, TransportError> {
    let mut last_err = String::from("no dial attempted");
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(backoff(attempt - 1));
        }
        match dial(endpoint) {
            // A reachable node answers the hello immediately; rejection is
            // terminal (version mismatches don't heal by retrying).
            Ok(stream) => return handshake(stream, party, protocol, wire),
            Err(e) => last_err = e.to_string(),
        }
    }
    Err(TransportError::HandshakeFailed {
        reason: format!("dial {endpoint} for {party}: {last_err}"),
    })
}

/// The dialer's half of the hello exchange.
fn handshake(
    mut stream: Stream,
    party: PartyId,
    protocol: u32,
    wire: u32,
) -> Result<Link, TransportError> {
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| setup_failed("socket setup", e))?;
    write_bytes(
        &mut stream,
        &framing::encode_frame(&Frame::Hello { protocol, wire, party }),
        party,
    )?;
    let mut fb = FrameBuf::new();
    let reply = read_frame(&mut stream, &mut fb, party, || TransportError::HandshakeFailed {
        reason: format!("{party} did not answer the hello within {HANDSHAKE_TIMEOUT:?}"),
    });
    match reply {
        Ok(Frame::HelloAck { protocol, wire })
            if protocol == framing::PROTOCOL_VERSION && wire == framing::WIRE_VERSION =>
        {
            Ok(Link { stream, fb })
        }
        Ok(Frame::HelloAck { protocol, wire }) => Err(TransportError::HandshakeFailed {
            reason: format!(
                "{party} acknowledged incompatible versions (protocol {protocol}, wire {wire})"
            ),
        }),
        Ok(Frame::HelloReject { reason }) => Err(TransportError::HandshakeFailed { reason }),
        Ok(other) => Err(TransportError::HandshakeFailed {
            reason: format!("expected HelloAck from {party}, got {other:?}"),
        }),
        Err(TransportError::PeerDisconnected { .. }) => Err(TransportError::HandshakeFailed {
            reason: format!("{party} closed the connection during the handshake"),
        }),
        Err(e) => Err(e),
    }
}

impl Transport for SocketTransport {
    fn send(&self, from: PartyId, to: PartyId, msg: Message) -> Result<(), TransportError> {
        self.send_all(vec![(from, to, msg)])
    }

    /// Meters and encodes in input order exactly like a loop of `send`
    /// (faults apply per message), then writes every remote `Deliver` as
    /// one burst per link and reads the `DeliverAck`s only after all
    /// bursts are out. Every `Deliver` is acknowledged before this returns.
    /// An admission failure stops the batch at that message; a link
    /// failure is reported against the earliest message it hit.
    fn send_all(&self, msgs: Vec<(PartyId, PartyId, Message)>) -> Result<(), TransportError> {
        let mut batches: Vec<LinkBatch> = Vec::new();
        let mut first_err: Option<(usize, TransportError)> = None;
        for (i, (from, to, msg)) in msgs.into_iter().enumerate() {
            let queued = self.admit(from, to, &msg).and_then(|(encoded, copies)| {
                (0..copies).try_for_each(|_| self.route(&mut batches, i, from, to, encoded.clone()))
            });
            if let Err(e) = queued {
                first_err = Some((i, e));
                break;
            }
        }
        self.exchange(&mut batches, ACK_TIMEOUT);
        for batch in &batches {
            let acked = batch.replies.iter().take_while(|f| **f == Frame::DeliverAck).count();
            let err = match (batch.replies.get(acked), &batch.failed) {
                (Some(other), _) => TransportError::Frame {
                    detail: format!("expected DeliverAck from {}, got {other:?}", batch.party),
                },
                (None, Some(e)) => e.clone(),
                (None, None) => continue,
            };
            let at = batch.requests.get(acked).map_or(usize::MAX, |&(at, _)| at);
            if first_err.as_ref().is_none_or(|&(i, _)| at < i) {
                first_err = Some((at, err));
            }
        }
        first_err.map_or(Ok(()), |(_, e)| Err(e))
    }

    fn try_recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
        if self.is_dead(party) {
            return Err(TransportError::PeerDisconnected { party });
        }
        {
            let mut local = self.local.lock();
            if let Some(inbox) = local.get_mut(&party) {
                return inbox.pop_front().ok_or(TransportError::InboxEmpty(party));
            }
        }
        if !self.remotes.lock().contains_key(&party) {
            return Err(TransportError::UnknownParty(party));
        }
        let mut batch = [LinkBatch::new(party)];
        batch[0].requests.push((0, Frame::TryRecvReq));
        self.exchange(&mut batch, ACK_TIMEOUT);
        let [LinkBatch { replies, failed, .. }] = batch;
        match (replies.into_iter().next(), failed) {
            (Some(Frame::Msg { from, payload }), _) => Ok((from, Message::decode(payload)?)),
            (Some(Frame::Empty), _) => Err(TransportError::InboxEmpty(party)),
            (Some(other), _) => Err(TransportError::Frame {
                detail: format!("expected Msg/Empty from {party}, got {other:?}"),
            }),
            (None, failed) => Err(failed.unwrap_or(TransportError::PeerDisconnected { party })),
        }
    }

    fn recv_timeout(
        &self,
        party: PartyId,
        timeout: Duration,
    ) -> Result<(PartyId, Message), TransportError> {
        self.pop_each(&[(party, None)], timeout)?.pop().ok_or(TransportError::InboxEmpty(party))
    }

    /// Requests every remote position up front (one `RecvReq` burst per
    /// link) and checks the replies in order — see
    /// [`SocketTransport::pop_each`].
    fn recv_each(
        &self,
        expects: &[(PartyId, &'static str)],
    ) -> Result<Vec<(PartyId, Message)>, TransportError> {
        let wants: Vec<(PartyId, Option<&'static str>)> =
            expects.iter().map(|&(party, kind)| (party, Some(kind))).collect();
        self.pop_each(&wants, self.recv_timeout_bound())
    }

    fn recv_timeout_bound(&self) -> Duration {
        self.meter.recv_timeout_bound()
    }

    fn set_recv_timeout(&self, timeout: Duration) {
        self.meter.set_recv_timeout(timeout);
    }

    fn codec(&self) -> WireCodec {
        self.meter.codec()
    }

    fn set_codec(&self, codec: WireCodec) {
        self.meter.set_codec(codec);
    }

    fn begin_round(&self, round: u64) {
        self.meter.begin_round(round);
    }

    fn stats(&self) -> NetStats {
        self.meter.stats()
    }

    fn reset_stats(&self) {
        self.meter.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::framing::*;
    use super::*;
    use crate::wire::MatrixPayload;
    use std::sync::Arc;

    #[test]
    fn endpoint_parse_and_display_roundtrip() {
        let tcp = Endpoint::parse("127.0.0.1:9000");
        assert_eq!(tcp, Endpoint::Tcp("127.0.0.1:9000".to_string()));
        assert_eq!(tcp.to_string(), "127.0.0.1:9000");
        let unix = Endpoint::parse("unix:/tmp/gtv.sock");
        assert_eq!(unix, Endpoint::Unix(PathBuf::from("/tmp/gtv.sock")));
        assert_eq!(unix.to_string(), "unix:/tmp/gtv.sock");
        assert_eq!(Endpoint::parse(&unix.to_string()), unix);
    }

    #[test]
    fn frames_roundtrip_through_the_codec() {
        let frames = vec![
            Frame::Hello { protocol: 1, wire: 2, party: PartyId::Client(3) },
            Frame::HelloAck { protocol: 1, wire: 2 },
            Frame::HelloReject { reason: "nope".to_string() },
            Frame::Deliver { from: PartyId::Server, payload: Bytes::from(vec![1, 2, 3]) },
            Frame::DeliverAck,
            Frame::RecvReq { timeout_ms: 1500 },
            Frame::TryRecvReq,
            Frame::Msg { from: PartyId::Public, payload: Bytes::from(vec![9]) },
            Frame::Empty,
            Frame::TimedOut,
        ];
        for frame in frames {
            let encoded = encode_frame(&frame);
            let mut fb = FrameBuf::new();
            fb.extend(&encoded);
            assert_eq!(fb.next_frame().unwrap(), Some(frame.clone()), "{frame:?}");
            assert_eq!(fb.buffered(), 0);
            assert_eq!(fb.next_frame().unwrap(), None);
        }
    }

    #[test]
    fn framebuf_reassembles_split_reads() {
        let a = encode_frame(&Frame::RecvReq { timeout_ms: 77 });
        let b = encode_frame(&Frame::Deliver {
            from: PartyId::Client(1),
            payload: Bytes::from(vec![5; 100]),
        });
        let mut wire: Vec<u8> = Vec::new();
        wire.extend_from_slice(&a);
        wire.extend_from_slice(&b);
        let mut fb = FrameBuf::new();
        let mut out = Vec::new();
        for byte in wire {
            fb.extend(&[byte]);
            while let Some(f) = fb.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Frame::RecvReq { timeout_ms: 77 });
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut fb = FrameBuf::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        let err = fb.next_frame().unwrap_err();
        assert!(matches!(err, TransportError::Frame { .. }), "{err:?}");
    }

    #[test]
    fn handshake_rejection_rule_is_exact() {
        assert_eq!(handshake_reject_reason(PROTOCOL_VERSION, WIRE_VERSION), None);
        assert!(handshake_reject_reason(PROTOCOL_VERSION + 1, WIRE_VERSION).is_some());
        assert!(handshake_reject_reason(PROTOCOL_VERSION, WIRE_VERSION + 1).is_some());
        assert!(handshake_reject_reason(0, 0).is_some());
    }

    fn spawn_node(
        party: PartyId,
        endpoint: &Endpoint,
    ) -> (Arc<PartyNode>, std::thread::JoinHandle<()>) {
        let node = Arc::new(PartyNode::bind(party, endpoint).unwrap());
        let serving = Arc::clone(&node);
        let handle = std::thread::spawn(move || {
            serving.serve().unwrap();
        });
        (node, handle)
    }

    #[test]
    fn tcp_loopback_send_recv_and_metering_match_inproc() {
        let (node, handle) = spawn_node(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
        let socket = SocketTransport::connect(1, endpoints).unwrap();
        let inproc = crate::transport::Network::new(1);
        let msg = Message::GenSlice(MatrixPayload::new(2, 2, vec![1.0, 0.0, 0.0, 4.0]));
        socket.send(PartyId::Server, PartyId::Client(0), msg.clone()).unwrap();
        inproc.send(PartyId::Server, PartyId::Client(0), msg.clone()).unwrap();
        let (from, got) = socket.recv(PartyId::Client(0)).unwrap();
        assert_eq!((from, got), (PartyId::Server, msg));
        // Byte accounting is identical across backends.
        assert_eq!(socket.stats(), inproc.stats());
        // Local (server-hosted) inboxes work alongside the remote one.
        socket
            .send(PartyId::Client(0), PartyId::Server, Message::ShuffleSeedShare { share: 7 })
            .unwrap();
        assert_eq!(
            socket.try_recv(PartyId::Server).unwrap().1,
            Message::ShuffleSeedShare { share: 7 }
        );
        node.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn version_mismatch_yields_handshake_failed() {
        let (node, handle) = spawn_node(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
        let err =
            SocketTransport::connect_with_versions(1, endpoints, PROTOCOL_VERSION, 99).unwrap_err();
        match err {
            TransportError::HandshakeFailed { reason } => {
                assert!(reason.contains("wire version 99"), "{reason}");
            }
            other => panic!("expected HandshakeFailed, got {other:?}"),
        }
        node.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn injected_disconnect_severs_the_socket_link() {
        let (node, handle) = spawn_node(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
        let socket = SocketTransport::connect(1, endpoints).unwrap();
        socket.inject_fault(PartyId::Server, PartyId::Client(0), Fault::Disconnect);
        let err = socket
            .send(PartyId::Server, PartyId::Client(0), Message::ShuffleSeedShare { share: 1 })
            .unwrap_err();
        assert_eq!(err, TransportError::PeerDisconnected { party: PartyId::Client(0) });
        assert_eq!(
            socket.recv(PartyId::Client(0)),
            Err(TransportError::PeerDisconnected { party: PartyId::Client(0) })
        );
        node.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn dead_node_surfaces_as_peer_disconnected_not_a_hang() {
        let (node, handle) = spawn_node(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
        let socket = SocketTransport::connect(1, endpoints).unwrap();
        socket
            .send(PartyId::Server, PartyId::Client(0), Message::ShuffleSeedShare { share: 1 })
            .unwrap();
        // Kill the node (listener included), then talk to the corpse.
        node.request_stop();
        handle.join().unwrap();
        drop(node);
        let err = socket
            .send(PartyId::Server, PartyId::Client(0), Message::ShuffleSeedShare { share: 2 })
            .unwrap_err();
        assert_eq!(err, TransportError::PeerDisconnected { party: PartyId::Client(0) });
    }
}
