//! The training workloads: steady-state `train_round`s in process and
//! over TCP loopback.
//!
//! A run is a series of identical *episodes*: build a trainer (timed as
//! set-up), run a fixed number of rounds (the first few are warm-up, the
//! rest are timed), then synthesize a fixed-size sample. Episodes repeat
//! while one more still fits in the time budget. Every episode of a run
//! trains from the same seed, so all of them must end with the same
//! weights, the same per-round byte counts and the same sample.

use crate::clock;
use crate::report::{fnv1a, Outcome};
use crate::stats;
use crate::trace::{Recorder, Span};
use crate::traced::{TracedTransport, ERROR_MARK, RECV_CALLS, SEND_CALLS, TRACK, WIRE_CALLS};
use gtv::{GtvConfig, GtvTrainer};
use gtv_data::{to_csv_string, Dataset, Table};
use gtv_encoders::TableTransformer;
use gtv_vfl::{
    Endpoint, Network, PartitionPlan, PartyId, PartyNode, SocketTransport, Transport,
    TransportError,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Rows synthesized after each episode, for fidelity and bulk timing.
pub const SAMPLE_ROWS: usize = 4096;
/// Times the sample is synthesized after each episode (same seed each time).
const SYNTH_REPS: usize = 3;

/// One training workload.
#[derive(Debug, Clone)]
pub struct TrainWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The stand-in dataset and its row count.
    pub dataset: Dataset,
    /// Rows generated.
    pub rows: usize,
    /// Clients the columns are split over (evenly).
    pub clients: usize,
    /// `GtvConfig::block_width` and `batch`, when not the defaults.
    pub narrow: Option<(usize, usize)>,
    /// Tensor worker threads (0 = one per core).
    pub threads: usize,
    /// Clients are `PartyNode`s on TCP loopback behind `SocketTransport`.
    pub socket: bool,
    /// Rounds per episode, warm-up included.
    pub rounds: usize,
    /// Untimed warm-up rounds at the start of each episode.
    pub warmup: usize,
}

/// The in-process, compute-bound workload.
pub fn wide_inproc() -> TrainWorkload {
    TrainWorkload {
        name: "train_wide_inproc",
        dataset: Dataset::Adult,
        rows: 32_561,
        clients: 2,
        narrow: None,
        threads: 0,
        socket: false,
        rounds: 42,
        warmup: 2,
    }
}

/// The socket, transport-bound workload.
pub fn socket_5p() -> TrainWorkload {
    TrainWorkload {
        name: "train_socket_5p",
        dataset: Dataset::Loan,
        rows: 5_000,
        clients: 5,
        narrow: Some((64, 16)),
        threads: 1,
        socket: true,
        rounds: 200,
        warmup: 2,
    }
}

impl TrainWorkload {
    /// The model configuration for `seed`.
    pub fn config(&self, seed: u64) -> GtvConfig {
        let threads = if self.threads == 0 { host_cores() } else { self.threads };
        let mut config = GtvConfig { seed, threads, ..GtvConfig::default() };
        if let Some((block_width, batch)) = self.narrow {
            config.block_width = block_width;
            config.batch = batch;
        }
        config
    }

    /// The real table and its vertical shards for `seed`.
    pub fn tables(&self, seed: u64) -> (Table, Vec<Table>) {
        let table = self.dataset.generate(self.rows, seed);
        let groups = PartitionPlan::Even { n_clients: self.clients }
            .column_groups(table.n_cols(), None, None)
            .expect("an even split of a stand-in table is valid");
        let shards = table.vertical_split(&groups);
        (table, shards)
    }
}

/// Cores the host offers.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One client `PartyNode` per client, each serving on its own thread.
#[derive(Debug)]
pub struct Fleet {
    nodes: Vec<Arc<PartyNode>>,
    handles: Vec<JoinHandle<Result<(), TransportError>>>,
    /// Where each client listens.
    pub endpoints: HashMap<PartyId, Endpoint>,
}

impl Fleet {
    /// Binds and starts `n` client nodes at the given endpoints.
    pub fn spawn(endpoints: Vec<Endpoint>) -> Result<Self, TransportError> {
        let mut fleet = Self { nodes: Vec::new(), handles: Vec::new(), endpoints: HashMap::new() };
        for (i, ep) in endpoints.iter().enumerate() {
            let node = Arc::new(PartyNode::bind(PartyId::Client(i), ep)?);
            fleet.endpoints.insert(PartyId::Client(i), node.endpoint());
            let serving = Arc::clone(&node);
            // gtv-lint: allow(determinism) -- one thread per party node, as in a deployment; joined in shutdown()
            fleet.handles.push(std::thread::spawn(move || serving.serve()));
            fleet.nodes.push(node);
        }
        Ok(fleet)
    }

    /// `n` client nodes on TCP loopback ports the OS picks.
    pub fn tcp(n: usize) -> Result<Self, TransportError> {
        Self::spawn((0..n).map(|_| Endpoint::parse("127.0.0.1:0")).collect())
    }

    /// Stops every node and waits for its thread.
    pub fn shutdown(self) -> Result<(), TransportError> {
        for node in &self.nodes {
            node.request_stop();
        }
        let mut first_err = Ok(());
        for handle in self.handles {
            let res = handle.join().unwrap_or_else(|_| {
                Err(TransportError::HandshakeFailed { reason: "party node panicked".to_string() })
            });
            if first_err.is_ok() {
                first_err = res;
            }
        }
        first_err
    }
}

/// One timed round.
#[derive(Debug, Clone)]
struct Round {
    ms: f64,
    pool_hits: u64,
    pool_misses: u64,
    dispatches: u64,
    /// Transport spans inside the round (traced episodes only).
    spans: Vec<Span>,
}

/// What one episode produced.
#[derive(Debug)]
struct Episode {
    traced: bool,
    setup_ms: f64,
    connect_ms: f64,
    rounds: Vec<Round>,
    weights: Vec<u8>,
    net: gtv_vfl::NetStats,
    round_bytes: Vec<u64>,
    sample: Table,
    /// Whether every repeat of the synthesis gave the same rows.
    samples_agree: bool,
    synth_ms: Vec<f64>,
}

/// Builds a trainer over `make()`'s transport and runs one episode.
fn episode<T: Transport>(
    w: &TrainWorkload,
    seed: u64,
    shards: &[Table],
    make: impl FnOnce() -> Result<T, TransportError>,
    spans: Option<&Recorder>,
    attempted: &mut u64,
) -> Result<Episode, TransportError> {
    *attempted += 1;
    let t0 = clock::now();
    let transport = make()?;
    let connect_ms = clock::ms_since(t0);
    let mut trainer = GtvTrainer::with_transport(shards.to_vec(), w.config(seed), transport)?;
    let setup_ms = clock::ms_since(t0);

    let mut rounds = Vec::with_capacity(w.rounds);
    for r in 0..w.rounds {
        *attempted += 1;
        let first_span = spans.map_or(0, Recorder::len);
        let pool0 = gtv_tensor::pool_mem::stats();
        let disp0 = gtv_tensor::pool::dispatch_count();
        let start = clock::now();
        trainer.train_round()?;
        let end = clock::now();
        let pool1 = gtv_tensor::pool_mem::stats();
        let disp1 = gtv_tensor::pool::dispatch_count();
        let children = match spans {
            Some(rec) => {
                rec.record_parent(first_span, "core.train_round", "core", TRACK, start, end)
            }
            None => Vec::new(),
        };
        if r >= w.warmup {
            rounds.push(Round {
                ms: clock::ms_between(start, end),
                pool_hits: pool1.hits - pool0.hits,
                pool_misses: pool1.misses - pool0.misses,
                dispatches: disp1 - disp0,
                spans: children,
            });
        }
    }
    let weights = trainer.save_weights().to_bytes();
    let net = trainer.network_stats();
    let round_bytes = net.rounds.iter().map(|r| r.bytes).collect();

    let mut synthesize = || -> Result<(f64, Table), TransportError> {
        *attempted += 1;
        let start = clock::now();
        let table = trainer.synthesize(SAMPLE_ROWS, seed ^ 0x5EED)?;
        let end = clock::now();
        if let Some(rec) = spans {
            rec.record(0, "core.synthesize", "core", TRACK, start, end);
        }
        Ok((clock::ms_between(start, end), table))
    };
    let (ms, sample) = synthesize()?;
    let first_csv = to_csv_string(&sample);
    let mut synth_ms = vec![ms];
    let mut samples_agree = true;
    for _ in 1..SYNTH_REPS {
        let (ms, table) = synthesize()?;
        synth_ms.push(ms);
        samples_agree &= to_csv_string(&table) == first_csv;
    }
    Ok(Episode {
        traced: spans.is_some(),
        setup_ms,
        connect_ms,
        rounds,
        weights,
        net,
        round_bytes,
        sample,
        samples_agree,
        synth_ms,
    })
}

/// Runs one episode on the workload's backend, wrapped when `spans` is set.
fn run_episode(
    w: &TrainWorkload,
    seed: u64,
    shards: &[Table],
    spans: Option<&Recorder>,
    attempted: &mut u64,
) -> Result<Episode, TransportError> {
    match (w.socket, spans) {
        (false, None) => episode(w, seed, shards, || Ok(Network::new(w.clients)), None, attempted),
        (false, Some(rec)) => {
            let make = || Ok(TracedTransport::new(Network::new(w.clients), rec.clone()));
            episode(w, seed, shards, make, spans, attempted)
        }
        (true, _) => {
            let fleet = Fleet::tcp(w.clients)?;
            let endpoints = fleet.endpoints.clone();
            let out = match spans {
                None => {
                    let make = || SocketTransport::connect(w.clients, endpoints);
                    episode(w, seed, shards, make, None, attempted)
                }
                Some(rec) => {
                    let make = || {
                        let start = clock::now();
                        let t = SocketTransport::connect(w.clients, endpoints)?;
                        rec.record(0, "vfl.connect", "vfl", TRACK, start, clock::now());
                        Ok(TracedTransport::new(t, rec.clone()))
                    };
                    episode(w, seed, shards, make, spans, attempted)
                }
            };
            fleet.shutdown()?;
            out
        }
    }
}

fn span_ms(spans: &[Span], names: &[&str]) -> f64 {
    spans.iter().filter(|s| names.contains(&s.name.as_str())).map(Span::ms).sum()
}

/// Runs the workload for about `seconds` and reports it.
pub fn run(w: &TrainWorkload, seed: u64, seconds: f64, trace: Option<&Recorder>) -> Outcome {
    let mut out = Outcome::new(w.name);
    let (real, shards) = w.tables(seed);
    let min_episodes = if trace.is_some() { 4 } else { 3 };
    let start = clock::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut failures = 0u64;
    // Another episode starts only if one as long as the longest so far
    // still ends within the budget, so a run does not overshoot it.
    let mut longest_ms = 0.0f64;
    while episodes.len() < min_episodes || clock::ms_since(start) + longest_ms < seconds * 1e3 {
        // Traced runs alternate plain and traced episodes, so the tracing
        // overhead is measured within one run.
        let spans = trace.filter(|_| episodes.len() % 2 == 1);
        let begun = clock::now();
        let result = run_episode(w, seed, &shards, spans, &mut out.attempted);
        longest_ms = longest_ms.max(clock::ms_since(begun));
        match result {
            Ok(ep) => episodes.push(ep),
            Err(e) => {
                failures += 1;
                out.note("error", e.to_string());
                if failures > 2 {
                    break;
                }
            }
        }
    }
    out.failed = failures;
    let elapsed_s = clock::ms_since(start) / 1e3;
    out.note("episodes", episodes.len().to_string());
    out.note("tensor_threads", gtv_tensor::pool::threads().to_string());
    out.note("rounds_per_episode", format!("{} ({} warm-up)", w.rounds, w.warmup));
    out.note("elapsed_s", format!("{elapsed_s:.1}"));
    let Some(first) = episodes.first() else {
        out.check("episodes_completed", false, "no episode completed".to_string());
        return out;
    };

    // Output checks.
    let same = |f: &dyn Fn(&Episode) -> bool| episodes.iter().all(f);
    out.check(
        "repeat_weights_identical",
        same(&|e| e.weights == first.weights),
        format!("weights digest {:016x} over {} episodes", fnv1a(&first.weights), episodes.len()),
    );
    out.check(
        "repeat_bytes_per_round_identical",
        same(&|e| e.round_bytes == first.round_bytes),
        format!("{} round windows", first.round_bytes.len()),
    );
    let sample_csv = to_csv_string(&first.sample);
    out.check(
        "repeat_sample_identical",
        same(&|e| e.samples_agree && to_csv_string(&e.sample) == sample_csv),
        format!(
            "sample digest {:016x}, {SYNTH_REPS} syntheses per episode",
            fnv1a(sample_csv.as_bytes())
        ),
    );
    if w.socket {
        let mut inproc = GtvTrainer::new(shards.clone(), w.config(seed));
        let mut ok = true;
        for _ in 0..w.rounds {
            ok &= inproc.train_round().is_ok();
        }
        let weights_eq = ok && inproc.save_weights().to_bytes() == first.weights;
        let stats_eq = ok && inproc.network_stats() == first.net;
        out.check(
            "socket_matches_inproc",
            weights_eq && stats_eq,
            format!("weights equal: {weights_eq}, NetStats equal: {stats_eq}"),
        );
    }

    // End-to-end metrics (plain episodes only).
    let plain: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let round_ms: Vec<f64> = plain.iter().flat_map(|e| e.rounds.iter().map(|r| r.ms)).collect();
    let timed_bytes: Vec<f64> = first.round_bytes[w.warmup..].iter().map(|&b| b as f64).collect();
    let setup: Vec<f64> = plain.iter().map(|e| e.setup_ms / 1e3).collect();
    let synth: Vec<f64> = plain.iter().flat_map(|e| e.synth_ms.iter().copied()).collect();
    let per_episode: Vec<Vec<f64>> =
        plain.iter().map(|e| e.rounds.iter().map(|r| r.ms).collect()).collect();
    let tail = stats::grouped_tail(&per_episode);
    out.note(
        "round_ms",
        [50.0, 90.0, 95.0, 99.0, 100.0]
            .iter()
            .map(|&p| format!("p{p} {:.2}", stats::percentile(&round_ms, p)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.metric("setup_s", "s", stats::median(&setup));
    out.metric("latency_p50_ms", "ms", stats::median_of_medians(&per_episode));
    out.metric("latency_tail_ms", "ms", tail.value);
    out.tail("latency_tail_ms", tail);
    out.metric("bulk_p50_ms", "ms", stats::median(&synth));
    out.metric("bytes_per_op", "B", stats::mean(&timed_bytes));
    // Per episode, so that a burst of host stalls moves one episode's rate
    // rather than the run's.
    let episode_rates: Vec<f64> =
        per_episode.iter().map(|ms| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)).collect();
    out.metric("goodput_per_s", "1/s", stats::median(&episode_rates));
    out.metric("avg_jsd", "score", gtv_metrics::average_jsd(&real, &first.sample));
    out.metric("avg_wd", "score", gtv_metrics::average_wd(&real, &first.sample));

    if trace.is_some() {
        layer_metrics(w, seed, &shards, &episodes, &round_ms, &mut out);
    }
    out
}

/// Per-layer numbers from the traced episodes plus encoder replays.
fn layer_metrics(
    w: &TrainWorkload,
    seed: u64,
    shards: &[Table],
    episodes: &[Episode],
    plain_round_ms: &[f64],
    out: &mut Outcome,
) {
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let rounds: Vec<&Round> = traced.iter().flat_map(|e| e.rounds.iter()).collect();
    let per_round =
        |f: &dyn Fn(&Round) -> f64| stats::mean(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let vfl_names: Vec<&str> =
        SEND_CALLS.iter().chain(&RECV_CALLS).chain(&WIRE_CALLS).copied().collect();
    let calls: Vec<&str> = SEND_CALLS.iter().chain(&RECV_CALLS).copied().collect();
    out.layer("vfl.send_ms_per_round", "ms", per_round(&|r| span_ms(&r.spans, &SEND_CALLS)));
    out.layer("vfl.recv_ms_per_round", "ms", per_round(&|r| span_ms(&r.spans, &RECV_CALLS)));
    out.layer(
        "vfl.calls_per_round",
        "count",
        per_round(&|r| r.spans.iter().filter(|s| calls.contains(&s.name.as_str())).count() as f64),
    );
    let msgs: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.net.rounds[w.warmup..].iter().map(|r| r.messages as f64))
        .collect();
    out.layer("vfl.messages_per_round", "count", stats::mean(&msgs));
    let errors: usize =
        rounds.iter().flat_map(|r| &r.spans).filter(|s| s.name == ERROR_MARK).count();
    out.layer("vfl.errors", "count", errors as f64);
    out.layer(
        "vfl.wire_encode_ms_per_round",
        "ms",
        per_round(&|r| span_ms(&r.spans, &WIRE_CALLS[..1])),
    );
    out.layer(
        "vfl.wire_decode_ms_per_round",
        "ms",
        per_round(&|r| span_ms(&r.spans, &WIRE_CALLS[1..])),
    );
    let connect: Vec<f64> = traced.iter().map(|e| e.connect_ms).collect();
    out.layer("vfl.connect_ms", "ms", if w.socket { stats::median(&connect) } else { 0.0 });
    out.layer(
        "core.compute_ms_per_round",
        "ms",
        per_round(&|r| r.ms - span_ms(&r.spans, &vfl_names)),
    );
    let new_ms: Vec<f64> = traced.iter().map(|e| e.setup_ms - e.connect_ms).collect();
    out.layer("core.trainer_new_ms", "ms", stats::median(&new_ms));
    let synth: Vec<f64> = traced.iter().flat_map(|e| e.synth_ms.iter().copied()).collect();
    out.layer("core.synthesize_ms", "ms", stats::median(&synth));
    let hits = per_round(&|r| r.pool_hits as f64);
    let misses = per_round(&|r| r.pool_misses as f64);
    out.layer("tensor.pool_hits_per_round", "count", hits);
    out.layer("tensor.pool_misses_per_round", "count", misses);
    out.layer(
        "tensor.pool_hit_rate",
        "ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
    );
    out.layer("tensor.dispatches_per_round", "count", per_round(&|r| r.dispatches as f64));
    let traced_ms: Vec<f64> = rounds.iter().map(|r| r.ms).collect();
    out.layer(
        "trace.overhead_frac",
        "ratio",
        stats::median(&traced_ms) / stats::median(plain_round_ms) - 1.0,
    );

    // Encoder replays with the trainer's own arguments.
    let config = w.config(seed);
    let (mut fit, mut encode, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        let (mut f, mut e, mut d) = (0.0, 0.0, 0.0);
        for (i, table) in shards.iter().enumerate() {
            let t0 = clock::now();
            let tf =
                TableTransformer::fit(table, config.max_modes, config.seed.wrapping_add(i as u64));
            let t1 = clock::now();
            let enc = tf.encode(table, config.seed.wrapping_add(1000 + i as u64));
            let t2 = clock::now();
            let head: Vec<usize> = (0..SAMPLE_ROWS.min(enc.rows())).collect();
            let block = enc.select_rows(&head);
            let t3 = clock::now();
            std::hint::black_box(tf.decode(&block));
            let t4 = clock::now();
            f += clock::ms_between(t0, t1);
            e += clock::ms_between(t1, t2);
            d += clock::ms_between(t3, t4);
        }
        fit.push(f);
        encode.push(e);
        decode.push(d);
    }
    out.layer("encoders.fit_ms", "ms", stats::median(&fit));
    out.layer("encoders.encode_ms", "ms", stats::median(&encode));
    out.layer("encoders.decode_ms", "ms", stats::median(&decode));
}
