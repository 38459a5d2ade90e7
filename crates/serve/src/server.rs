//! The serve-session socket surface: [`SynthServer`] and [`ServeConn`].
//!
//! Mirrors the party transport's socket discipline
//! (`gtv_vfl::socket`): a non-blocking listener polled on a fixed tick
//! so the stop flag is honored, accepted streams switched to blocking
//! reads with a short timeout, and every frame carried length-delimited
//! (wire-v2 style) with typed errors for every failure. Connections are
//! served one at a time; *within* a connection requests may be pipelined,
//! and the server drains every decodable request into the engine before
//! pumping, so pipelined clients get their requests coalesced into
//! batched forward passes.
//!
//! No wall clock is read anywhere: waits are counted in poll ticks
//! (`read_timeout`-bounded reads), keeping the serving path under the
//! same determinism lint as the training transport.

use crate::engine::{RowsRequest, ServeError, SynthService};
use crate::wire::{
    encode_serve_wire, ServeFrame, ServeFrameBuf, WireCond, MAX_REASON, SERVE_PROTOCOL,
};
use gtv::{CondSpec, SynthSpec};
use gtv_data::{to_csv_string, Table};
use gtv_vfl::{Endpoint, PartyId, TransportError};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Accept-loop poll tick: it bounds how long a fresh dial waits to be
/// accepted.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Per-read poll period (stop-flag latency while a client is connected).
const SERVE_POLL: Duration = Duration::from_millis(20);
/// Poll ticks a handshake may take before giving up (≈5 s).
const HANDSHAKE_POLLS: u32 = 250;
/// Poll ticks a client waits for a reply frame (≈60 s).
const REPLY_POLLS: u32 = 3000;
/// Initial-connect attempts (the server may still be starting up).
const CONNECT_ATTEMPTS: u32 = 6;
/// Base of the exponential redial backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(20);

fn frame_err(detail: impl Into<String>) -> TransportError {
    TransportError::Frame { detail: detail.into() }
}

fn setup_failed(what: &str, e: std::io::Error) -> TransportError {
    TransportError::HandshakeFailed { reason: format!("{what}: {e}") }
}

fn backoff(attempt: u32) -> Duration {
    // attempt < CONNECT_ATTEMPTS <= 31, so the shift cannot overflow.
    BACKOFF_BASE * (1u32 << attempt.min(10))
}

/// Lossless on every supported target; counters saturate rather than trap.
fn as_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// One accepted or dialed byte stream.
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

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            Stream::Unix(s) => s.set_nonblocking(on),
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

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    Unix { listener: UnixListener, path: PathBuf },
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What one bounded read produced.
enum ReadOutcome {
    /// Fresh bytes were appended to the frame buffer.
    Data,
    /// The poll tick elapsed with nothing to read.
    Idle,
    /// The peer closed the stream.
    Disconnected,
}

/// One bounded read into `fb`; `WouldBlock`/`TimedOut` are a quiet tick,
/// EOF is a disconnect, everything else drops the peer.
fn read_chunk(
    stream: &mut Stream,
    fb: &mut ServeFrameBuf,
    peer: PartyId,
) -> Result<ReadOutcome, TransportError> {
    let mut buf = [0u8; 65536];
    match stream.read(&mut buf) {
        Ok(0) => Ok(ReadOutcome::Disconnected),
        Ok(n) => {
            fb.extend(&buf[..n]);
            Ok(ReadOutcome::Data)
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            Ok(ReadOutcome::Idle)
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => Ok(ReadOutcome::Idle),
        Err(_) => Err(TransportError::PeerDisconnected { party: peer }),
    }
}

/// Blocks until a complete frame arrives, bounded by `polls` read ticks.
fn wait_frame(
    stream: &mut Stream,
    fb: &mut ServeFrameBuf,
    polls: u32,
    peer: PartyId,
) -> Result<ServeFrame, TransportError> {
    for _ in 0..polls {
        if let Some(frame) = fb.next_frame()? {
            return Ok(frame);
        }
        if let ReadOutcome::Disconnected = read_chunk(stream, fb, peer)? {
            return Err(TransportError::PeerDisconnected { party: peer });
        }
    }
    Err(TransportError::Timeout {
        party: peer,
        waited: SERVE_POLL * polls,
        round: None,
        expecting: None,
    })
}

/// Writes one length-prefixed frame.
fn write_serve(
    stream: &mut Stream,
    frame: &ServeFrame,
    peer: PartyId,
) -> Result<(), TransportError> {
    let bytes = encode_serve_wire(frame)?;
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .map_err(|_| TransportError::PeerDisconnected { party: peer })
}

/// Clips an error reason to the wire bound on a char boundary.
fn clip_reason(mut reason: String) -> String {
    let mut cap = MAX_REASON.min(reason.len());
    while !reason.is_char_boundary(cap) {
        cap -= 1;
    }
    reason.truncate(cap);
    reason
}

/// The response frame for one resolved request. Busy keeps its typed
/// shape on the wire so clients can apply the retry hint; every other
/// failure is carried as its display string.
fn reply_for(id: u64, outcome: Result<Table, ServeError>) -> ServeFrame {
    match outcome {
        Ok(table) => ServeFrame::SynthRows { id, csv: to_csv_string(&table).into_bytes() },
        Err(ServeError::Busy { depth, retry_after_ticks }) => {
            ServeFrame::SynthBusy { id, depth: as_u64(depth), retry_after_ticks }
        }
        Err(e) => ServeFrame::SynthErr { id, reason: clip_reason(e.to_string()) },
    }
}

/// Long-lived synthesis server: owns the listening socket and drives a
/// shared [`SynthService`].
#[derive(Debug)]
pub struct SynthServer {
    service: Arc<SynthService>,
    listener: Listener,
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
}

impl SynthServer {
    /// Binds the listening socket (TCP port 0 picks a free port; a stale
    /// Unix socket path is replaced).
    pub fn bind(service: Arc<SynthService>, endpoint: &Endpoint) -> Result<Self, TransportError> {
        let (listener, resolved) = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| setup_failed("bind", e))?;
                l.set_nonblocking(true).map_err(|e| setup_failed("listener", e))?;
                let local = l.local_addr().map_err(|e| setup_failed("local_addr", e))?;
                (Listener::Tcp(l), Endpoint::Tcp(local.to_string()))
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let l = UnixListener::bind(path).map_err(|e| setup_failed("bind", e))?;
                l.set_nonblocking(true).map_err(|e| setup_failed("listener", e))?;
                (Listener::Unix { listener: l, path: path.clone() }, Endpoint::Unix(path.clone()))
            }
        };
        Ok(Self { service, listener, endpoint: resolved, stop: Arc::new(AtomicBool::new(false)) })
    }

    /// The resolved listening endpoint (with any ephemeral port filled in).
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// The engine this server answers from.
    pub fn service(&self) -> &Arc<SynthService> {
        &self.service
    }

    /// A handle that makes [`serve`](Self::serve) return.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Asks the accept loop to wind down at its next poll tick.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Accepts and serves connections (one at a time) until the stop flag
    /// is raised or `max_replies` responses have been written. Returns
    /// the number of responses written. Only listener-level failures are
    /// fatal; anything a client does wrong drops that client.
    pub fn serve(&self, max_replies: Option<u64>) -> Result<u64, TransportError> {
        let mut total = 0u64;
        while !self.stopped() {
            let remaining = match max_replies {
                Some(m) if total >= m => break,
                Some(m) => Some(m - total),
                None => None,
            };
            match self.accept()? {
                Some(stream) => total += self.serve_conn(stream, remaining).unwrap_or(0),
                None => std::thread::sleep(POLL_INTERVAL),
            }
        }
        Ok(total)
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
                stream.set_nonblocking(false).map_err(|e| setup_failed("accepted stream", e))?;
                stream
                    .set_read_timeout(Some(SERVE_POLL))
                    .map_err(|e| setup_failed("accepted stream", e))?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(setup_failed("accept", e)),
        }
    }

    /// Answers the opening `SynthHello`. The `(reply, accepted)` pair is
    /// built in one match so the session machine sees the accept path
    /// before the reject path.
    fn handshake(&self, stream: &mut Stream, fb: &mut ServeFrameBuf) -> Result<(), TransportError> {
        let frame = wait_frame(stream, fb, HANDSHAKE_POLLS, PartyId::Public)?;
        let (reply, accepted) = match frame {
            ServeFrame::SynthHello { protocol } => {
                if protocol == SERVE_PROTOCOL {
                    (ServeFrame::SynthHelloAck { protocol: SERVE_PROTOCOL }, true)
                } else {
                    let reason = format!(
                        "serve protocol {protocol} not supported (this server speaks {SERVE_PROTOCOL})"
                    );
                    (ServeFrame::SynthErr { id: 0, reason }, false)
                }
            }
            other => {
                let reason = format!("expected SynthHello, got {}", other.kind());
                (ServeFrame::SynthErr { id: 0, reason }, false)
            }
        };
        write_serve(stream, &reply, PartyId::Public)?;
        if accepted {
            Ok(())
        } else {
            Err(TransportError::HandshakeFailed { reason: "serve hello rejected".to_string() })
        }
    }

    /// Decodes one pipelined request and admits it into the engine,
    /// returning `(wire id, admission outcome)`.
    fn admit(&self, frame: ServeFrame) -> Result<(u64, Result<u64, ServeError>), TransportError> {
        match frame {
            ServeFrame::SynthRequest { id, model, n, seed, cond, deadline_ticks } => {
                let spec = SynthSpec {
                    n: usize::try_from(n).unwrap_or(usize::MAX),
                    seed,
                    cond: cond.map(|c| CondSpec {
                        client: usize::try_from(c.client).unwrap_or(usize::MAX),
                        column: usize::try_from(c.column).unwrap_or(usize::MAX),
                        category: usize::try_from(c.category).unwrap_or(usize::MAX),
                    }),
                };
                let req = RowsRequest {
                    model,
                    spec,
                    deadline_ticks: (deadline_ticks != u64::MAX).then_some(deadline_ticks),
                };
                Ok((id, self.service.submit(&req)))
            }
            other => Err(frame_err(format!("expected SynthRequest, got {}", other.kind()))),
        }
    }

    /// Writes a response for every head-of-line request whose result is
    /// ready, preserving request order. Returns how many were written.
    fn flush_ready(
        &self,
        stream: &mut Stream,
        inflight: &mut VecDeque<(u64, Result<u64, ServeError>)>,
    ) -> Result<u64, TransportError> {
        let mut wrote = 0u64;
        while let Some((id, admitted)) = inflight.front() {
            let outcome = match admitted {
                Ok(ticket) => match self.service.try_take(*ticket) {
                    Some(result) => result,
                    None => break,
                },
                Err(e) => Err(e.clone()),
            };
            let id = *id;
            inflight.pop_front();
            let reply = reply_for(id, outcome);
            write_serve(stream, &reply, PartyId::Public)?;
            wrote += 1;
        }
        Ok(wrote)
    }

    /// Serves one connection until EOF, a malformed frame, or the stop
    /// flag. Every decodable request is admitted before the engine is
    /// pumped, so pipelined requests coalesce into one batched forward.
    fn serve_conn(
        &self,
        mut stream: Stream,
        max_replies: Option<u64>,
    ) -> Result<u64, TransportError> {
        let mut fb = ServeFrameBuf::new();
        self.handshake(&mut stream, &mut fb)?;
        let mut inflight: VecDeque<(u64, Result<u64, ServeError>)> = VecDeque::new();
        let mut wrote = 0u64;
        loop {
            if self.stopped() {
                return Ok(wrote);
            }
            let disconnected = matches!(
                read_chunk(&mut stream, &mut fb, PartyId::Public)?,
                ReadOutcome::Disconnected
            );
            while let Some(frame) = fb.next_frame()? {
                let (id, admitted) = self.admit(frame)?;
                inflight.push_back((id, admitted));
            }
            if inflight.iter().any(|(_, admitted)| admitted.is_ok()) {
                self.service.pump();
            }
            wrote += self.flush_ready(&mut stream, &mut inflight)?;
            if let Some(m) = max_replies {
                if wrote >= m {
                    return Ok(wrote);
                }
            }
            if disconnected && inflight.is_empty() {
                return Ok(wrote);
            }
        }
    }
}

/// A connected synthesis client over TCP or a Unix socket.
///
/// For in-process use (benches, tests) prefer calling
/// [`SynthService::request`] directly — it is the same engine without the
/// wire hop.
#[derive(Debug)]
pub struct ServeConn {
    stream: Stream,
    fb: ServeFrameBuf,
    next_id: u64,
}

impl ServeConn {
    /// Dials `endpoint` (with startup backoff) and performs the serve
    /// hello exchange.
    pub fn connect(endpoint: &Endpoint) -> Result<Self, TransportError> {
        let mut stream = dial(endpoint)?;
        let mut fb = ServeFrameBuf::new();
        write_serve(
            &mut stream,
            &ServeFrame::SynthHello { protocol: SERVE_PROTOCOL },
            PartyId::Server,
        )?;
        let reply = wait_frame(&mut stream, &mut fb, HANDSHAKE_POLLS, PartyId::Server)?;
        match reply {
            ServeFrame::SynthHelloAck { .. } => Ok(Self { stream, fb, next_id: 1 }),
            ServeFrame::SynthErr { reason, .. } => Err(TransportError::HandshakeFailed { reason }),
            other => Err(frame_err(format!("expected SynthHelloAck, got {}", other.kind()))),
        }
    }

    /// Requests `n` rows of `model` and blocks for the response.
    /// `deadline_ticks: None` leaves the deadline to the server default.
    pub fn synth(
        &mut self,
        model: &str,
        n: u64,
        seed: u64,
        cond: Option<WireCond>,
        deadline_ticks: Option<u64>,
    ) -> Result<Vec<u8>, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = ServeFrame::SynthRequest {
            id,
            model: model.to_string(),
            n,
            seed,
            cond,
            deadline_ticks: deadline_ticks.unwrap_or(u64::MAX),
        };
        write_serve(&mut self.stream, &request, PartyId::Server)?;
        let reply = wait_frame(&mut self.stream, &mut self.fb, REPLY_POLLS, PartyId::Server)?;
        match reply {
            ServeFrame::SynthRows { id: rid, csv } if rid == id => Ok(csv),
            ServeFrame::SynthBusy { id: rid, depth, retry_after_ticks } if rid == id => {
                Err(ServeError::Busy {
                    depth: usize::try_from(depth).unwrap_or(usize::MAX),
                    retry_after_ticks,
                })
            }
            ServeFrame::SynthErr { id: rid, reason } if rid == id => {
                Err(ServeError::Remote { reason })
            }
            other => Err(ServeError::Transport(frame_err(format!(
                "reply {} does not answer request {id}",
                other.kind()
            )))),
        }
    }
}

/// Dials with startup backoff, mirroring the party transport.
fn dial(endpoint: &Endpoint) -> Result<Stream, TransportError> {
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(backoff(attempt));
        }
        let conn = match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        };
        match conn {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(SERVE_POLL))
                    .map_err(|e| setup_failed("dialed stream", e))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    let detail = last.map_or_else(|| "no attempt made".to_string(), |e| e.to_string());
    Err(TransportError::HandshakeFailed { reason: format!("could not reach {endpoint}: {detail}") })
}
