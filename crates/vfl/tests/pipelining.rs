//! The socket backend's batched exchange is observationally a loop of
//! single-message operations: `send_all` + `recv_each` over real TCP and
//! Unix-domain [`PartyNode`]s pop the same `(from, msg)` sequence, and
//! meter the same [`NetStats`] (per-round windows included), as sequential
//! `send` + `recv_expect` and as the in-process backend. Faults injected
//! inside a batch, and nodes that die before one, surface as the same typed
//! errors, without hanging.

use gtv_vfl::{
    Endpoint, Fault, MatrixPayload, Message, Network, PartyId, PartyNode, SocketTransport,
    Transport, TransportError,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const N_CLIENTS: usize = 3;
/// Clients hosted by a [`PartyNode`]; the rest (and the server and public
/// board) get local inboxes in the transport's own process.
const REMOTE: [usize; 2] = [0, 1];

struct Fleet {
    nodes: Vec<(Arc<PartyNode>, JoinHandle<()>)>,
    endpoints: HashMap<PartyId, Endpoint>,
}

impl Fleet {
    fn spawn(unix: bool, tag: &str) -> Self {
        let mut nodes = Vec::new();
        let mut endpoints = HashMap::new();
        for i in REMOTE {
            let ep = if unix {
                Endpoint::Unix(
                    std::env::temp_dir()
                        .join(format!("gtv-pipelining-{}-{tag}-{i}.sock", std::process::id())),
                )
            } else {
                Endpoint::parse("127.0.0.1:0")
            };
            let node = Arc::new(PartyNode::bind(PartyId::Client(i), &ep).expect("bind node"));
            endpoints.insert(PartyId::Client(i), node.endpoint());
            let serving = Arc::clone(&node);
            let handle = std::thread::spawn(move || serving.serve().expect("node serves"));
            nodes.push((node, handle));
        }
        Self { nodes, endpoints }
    }

    fn connect(&self) -> SocketTransport {
        SocketTransport::connect(N_CLIENTS, self.endpoints.clone()).expect("connect to fleet")
    }

    /// Stops client `i`'s node and closes its listener: a crashed party.
    fn kill(&mut self, i: usize) {
        let pos = REMOTE.iter().position(|&r| r == i).expect("client is remote");
        let (node, handle) = self.nodes.remove(pos);
        node.request_stop();
        handle.join().expect("node thread exits");
        drop(node);
    }

    fn shutdown(self) {
        for (node, _) in &self.nodes {
            node.request_stop();
        }
        for (_, handle) in self.nodes {
            handle.join().expect("node thread exits");
        }
    }
}

fn matrix(seed: u32, rows: u32, cols: u32) -> MatrixPayload {
    // Some zeros, so the adaptive codec has sparse bodies to choose.
    let data = (0..rows * cols)
        .map(|k| if (k + seed).is_multiple_of(3) { 0.0 } else { (k * 7 + seed) as f32 * 0.25 })
        .collect();
    MatrixPayload::new(rows, cols, data)
}

type Batch = Vec<(PartyId, PartyId, Message)>;

/// The fan-out phases of two rounds, shaped like a training round's: every
/// batch reaches remote and local clients, and the gradient phase sends two
/// messages to each client (`GradLogits` for the synthetic and the real
/// half, interleaved as `i % n`).
fn phases(round: u64) -> Vec<Batch> {
    let clients = || (0..N_CLIENTS).map(PartyId::Client);
    let round_start = clients()
        .map(|c| (PartyId::Server, c, Message::RoundStart { round, selected: 1 }))
        .collect();
    let gen_slices = clients()
        .zip(0..)
        .map(|(c, i)| (PartyId::Server, c, Message::GenSlice(matrix(i, 4, 3 + i))))
        .collect();
    let grads = (0..2 * N_CLIENTS)
        .zip(0..)
        .map(|(i, seed)| {
            (
                PartyId::Server,
                PartyId::Client(i % N_CLIENTS),
                Message::GradLogits(matrix(seed, 4, 5)),
            )
        })
        .collect();
    // Client-to-client seed shares and an upload to the (local) server.
    let mixed = vec![
        (PartyId::Client(2), PartyId::Client(0), Message::ShuffleSeedShare { share: 11 }),
        (PartyId::Client(0), PartyId::Server, Message::SynthLogits(matrix(9, 4, 2))),
        (PartyId::Client(1), PartyId::Client(2), Message::ShuffleSeedShare { share: 12 }),
        (PartyId::Client(2), PartyId::Client(1), Message::ShuffleSeedShare { share: 13 }),
    ];
    vec![round_start, gen_slices, grads, mixed]
}

fn expects(batch: &Batch) -> Vec<(PartyId, &'static str)> {
    batch.iter().map(|(_, to, msg)| (*to, msg.kind())).collect()
}

/// Runs both rounds' phases, batched (`send_all` + `recv_each`) or one
/// message at a time (`send` loop, then a `recv_expect` loop), and returns
/// every popped message in order plus the traffic counters.
fn run(t: &impl Transport, batched: bool) -> (Vec<(PartyId, Message)>, gtv_vfl::NetStats) {
    t.set_codec(gtv_vfl::WireCodec::Adaptive);
    let mut popped = Vec::new();
    for round in 0..2 {
        t.begin_round(round);
        for batch in phases(round) {
            let want = expects(&batch);
            if batched {
                t.send_all(batch).expect("send_all");
                popped.extend(t.recv_each(&want).expect("recv_each"));
            } else {
                for (from, to, msg) in batch {
                    t.send(from, to, msg).expect("send");
                }
                for (party, kind) in want {
                    popped.push(t.recv_expect(party, kind).expect("recv_expect"));
                }
            }
        }
    }
    (popped, t.stats())
}

fn assert_batched_matches_sequential(unix: bool, tag: &str) {
    let reference = run(&Network::new(N_CLIENTS), false);
    assert_eq!(reference.0.len(), 2 * (N_CLIENTS * 4 + 4));
    assert_eq!(run(&Network::new(N_CLIENTS), true), reference, "in-process recv_each");

    let fleet = Fleet::spawn(unix, tag);
    let sequential = run(&fleet.connect(), false);
    assert_eq!(sequential.0, reference.0, "sequential socket pops");
    assert_eq!(sequential.1, reference.1, "sequential socket NetStats");
    let batched = run(&fleet.connect(), true);
    assert_eq!(batched.0, reference.0, "batched socket pops");
    assert_eq!(batched.1, reference.1, "batched socket NetStats, per-round windows included");
    fleet.shutdown();
}

#[test]
fn batched_tcp_exchange_matches_sequential_and_in_process() {
    assert_batched_matches_sequential(false, "eq-tcp");
}

#[test]
fn batched_unix_exchange_matches_sequential_and_in_process() {
    assert_batched_matches_sequential(true, "eq-uds");
}

/// The error `recv_each` gives when position `k` expects the wrong kind.
fn wrong_kind_error(t: &impl Transport, k: usize) -> TransportError {
    let batch = phases(0).swap_remove(2);
    let mut want = expects(&batch);
    want[k].1 = "SyntheticShare";
    t.send_all(batch).expect("send_all");
    t.recv_each(&want).expect_err("a wrong kind must fail the batch")
}

#[test]
fn wrong_kind_mid_batch_is_a_protocol_violation() {
    let fleet = Fleet::spawn(false, "kind");
    // Position 3 is client 0's second GradLogits (remote); position 5 is
    // client 2's second (local).
    for k in [0, 3, 5] {
        let expected = wrong_kind_error(&Network::new(N_CLIENTS), k);
        assert!(
            matches!(
                expected,
                TransportError::ProtocolViolation {
                    from: PartyId::Server,
                    expected: "SyntheticShare",
                    got: Message::GradLogits(_)
                }
            ),
            "{expected:?}"
        );
        assert_eq!(wrong_kind_error(&fleet.connect(), k), expected, "position {k}");
    }
    fleet.shutdown();
}

#[test]
fn node_stopped_before_a_batch_is_peer_disconnected_not_a_hang() {
    let dead = PartyId::Client(1);
    let gone = TransportError::PeerDisconnected { party: dead };

    // Dead before send_all: the batch fails on that party's link.
    let mut fleet = Fleet::spawn(false, "stop-send");
    let t = fleet.connect();
    fleet.kill(1);
    let start = Instant::now();
    assert_eq!(t.send_all(phases(0).swap_remove(0)), Err(gone.clone()));
    assert!(start.elapsed() < Duration::from_secs(10), "send_all took {:?}", start.elapsed());
    // The live links finished their bursts: client 0's delivery is there.
    let popped = t.recv_each(&[(PartyId::Client(0), "RoundStart")]).expect("live link");
    assert_eq!(popped[0].0, PartyId::Server);
    // The dead party stays dead.
    assert_eq!(t.recv_each(&[(dead, "RoundStart")]), Err(gone.clone()));
    fleet.shutdown();

    // Dead between send_all and recv_each.
    let mut fleet = Fleet::spawn(false, "stop-recv");
    let t = fleet.connect();
    let batch = phases(0).swap_remove(2);
    let want = expects(&batch);
    t.send_all(batch).expect("healthy send_all");
    fleet.kill(1);
    let start = Instant::now();
    assert_eq!(t.recv_each(&want), Err(gone));
    assert!(start.elapsed() < Duration::from_secs(10), "recv_each took {:?}", start.elapsed());
    fleet.shutdown();
}

/// The error a `Fault::Drop` on the server→client 1 link gives inside the
/// gradient batch, under a short receive bound in round window 3.
fn dropped_error(t: &impl Transport, inject: impl Fn()) -> TransportError {
    t.set_recv_timeout(Duration::from_millis(50));
    t.begin_round(3);
    inject();
    let batch = phases(3).swap_remove(2);
    let want = expects(&batch);
    t.send_all(batch).expect("a dropped message still sends");
    t.recv_each(&want).expect_err("the dropped message must be missed")
}

#[test]
fn dropped_message_in_a_batch_times_out_with_round_and_kind() {
    let inproc = Network::new(N_CLIENTS);
    let expected = dropped_error(&inproc, || {
        inproc.inject_fault(PartyId::Server, PartyId::Client(1), Fault::Drop);
    });
    assert_eq!(
        expected,
        TransportError::Timeout {
            party: PartyId::Client(1),
            waited: Duration::from_millis(50),
            round: Some(3),
            expecting: Some("GradLogits"),
        }
    );
    let fleet = Fleet::spawn(false, "drop");
    let socket = fleet.connect();
    let got = dropped_error(&socket, || {
        socket.inject_fault(PartyId::Server, PartyId::Client(1), Fault::Drop);
    });
    assert_eq!(got, expected);
    // The dropped message was metered, like the in-process backend does.
    assert_eq!(socket.stats(), inproc.stats());
    fleet.shutdown();
}

/// Duplicates the server→client 0 `RoundStart`, then runs the next phase.
fn duplicate_error(t: &impl Transport, duplicate: impl Fn()) -> TransportError {
    let mut batches = phases(0).into_iter();
    let round_start = batches.next().expect("round start phase");
    let gen_slices = batches.next().expect("gen slice phase");
    duplicate();
    let want = expects(&round_start);
    t.send_all(round_start).expect("send_all");
    t.recv_each(&want).expect("the first copy is what the phase expects");
    let want = expects(&gen_slices);
    t.send_all(gen_slices).expect("send_all");
    t.recv_each(&want).expect_err("the stale copy must be caught")
}

#[test]
fn duplicate_in_a_batch_is_caught_by_the_next_exchange() {
    let inproc = Network::new(N_CLIENTS);
    let expected = duplicate_error(&inproc, || {
        inproc.inject_fault(PartyId::Server, PartyId::Client(0), Fault::Duplicate);
    });
    assert_eq!(
        expected,
        TransportError::ProtocolViolation {
            from: PartyId::Server,
            expected: "GenSlice",
            got: Message::RoundStart { round: 0, selected: 1 },
        }
    );
    let fleet = Fleet::spawn(true, "dup");
    let socket = fleet.connect();
    let got = duplicate_error(&socket, || {
        socket.inject_fault(PartyId::Server, PartyId::Client(0), Fault::Duplicate);
    });
    assert_eq!(got, expected);
    fleet.shutdown();
}
