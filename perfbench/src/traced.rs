//! A [`Transport`] wrapper that times every call into the real backend.
//!
//! Every trait method, provided ones included, delegates to the wrapped
//! backend, so a backend's own `send_all`/`gather` run exactly as they
//! would unwrapped. Each delegated call becomes one span in the
//! [`Recorder`] (layer `vfl`). Each sent message is also encoded and
//! decoded once more, on a copy, outside the backend call, to time the
//! wire codec on its own (`vfl.wire_encode` / `vfl.wire_decode` spans).

use crate::clock;
use crate::trace::Recorder;
use gtv_vfl::{Message, NetStats, PartyId, Transport, TransportError, WireCodec};
use std::time::Duration;

/// Track the wrapper draws its spans on.
pub const TRACK: u32 = 1;

/// Span names of calls that send.
pub const SEND_CALLS: [&str; 2] = ["vfl.send", "vfl.send_all"];
/// Span names of calls that receive.
pub const RECV_CALLS: [&str; 5] =
    ["vfl.recv_timeout", "vfl.gather", "vfl.recv", "vfl.recv_expect", "vfl.try_recv"];
/// Span names of the wire-codec replays.
pub const WIRE_CALLS: [&str; 2] = ["vfl.wire_encode", "vfl.wire_decode"];
/// Name of the zero-length span marking a call that returned an error.
pub const ERROR_MARK: &str = "vfl.error";

/// The wrapper; see the module docs.
#[derive(Debug)]
pub struct TracedTransport<T> {
    inner: T,
    spans: Recorder,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: T, spans: Recorder) -> Self {
        Self { inner, spans }
    }

    fn timed<R>(
        &self,
        name: &'static str,
        call: impl FnOnce() -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        let start = clock::now();
        let out = call();
        let end = clock::now();
        self.spans.record(0, name, "vfl", TRACK, start, end);
        if out.is_err() {
            self.spans.record(0, ERROR_MARK, "vfl", TRACK, end, end);
        }
        out
    }

    /// Times the wire codec on a copy of `msg`.
    fn replay_wire(&self, msg: &Message) {
        let start = clock::now();
        let bytes = std::hint::black_box(msg.encode_with(self.inner.codec()));
        let mid = clock::now();
        let decoded = Message::decode(bytes);
        let end = clock::now();
        std::hint::black_box(decoded.is_ok());
        self.spans.record(0, WIRE_CALLS[0], "vfl", TRACK, start, mid);
        self.spans.record(0, WIRE_CALLS[1], "vfl", TRACK, mid, end);
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn send(&self, from: PartyId, to: PartyId, msg: Message) -> Result<(), TransportError> {
        self.replay_wire(&msg);
        self.timed("vfl.send", || self.inner.send(from, to, msg))
    }

    fn try_recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
        self.timed("vfl.try_recv", || self.inner.try_recv(party))
    }

    fn recv_timeout(
        &self,
        party: PartyId,
        timeout: Duration,
    ) -> Result<(PartyId, Message), TransportError> {
        self.timed("vfl.recv_timeout", || self.inner.recv_timeout(party, timeout))
    }

    fn recv_timeout_bound(&self) -> Duration {
        self.inner.recv_timeout_bound()
    }

    fn set_recv_timeout(&self, timeout: Duration) {
        self.inner.set_recv_timeout(timeout);
    }

    fn codec(&self) -> WireCodec {
        self.inner.codec()
    }

    fn set_codec(&self, codec: WireCodec) {
        self.inner.set_codec(codec);
    }

    fn begin_round(&self, round: u64) {
        self.inner.begin_round(round);
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn send_all(&self, msgs: Vec<(PartyId, PartyId, Message)>) -> Result<(), TransportError> {
        for (_, _, msg) in &msgs {
            self.replay_wire(msg);
        }
        self.timed("vfl.send_all", || self.inner.send_all(msgs))
    }

    fn recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
        self.timed("vfl.recv", || self.inner.recv(party))
    }

    fn recv_expect(
        &self,
        party: PartyId,
        expected: &'static str,
    ) -> Result<(PartyId, Message), TransportError> {
        self.timed("vfl.recv_expect", || self.inner.recv_expect(party, expected))
    }

    fn gather(
        &self,
        at: PartyId,
        senders: &[PartyId],
        expected: &'static str,
    ) -> Result<Vec<Message>, TransportError> {
        self.timed("vfl.gather", || self.inner.gather(at, senders, expected))
    }
}
