//! The serving workload: an open-loop small/bulk mix over one pipelined
//! Unix-socket connection to a `SynthServer`.
//!
//! Set-up is timed from trained weights to the first answered request:
//! `GtvTrainer::synthesizer`, `ModelRegistry::insert_warm`, `SynthService`,
//! `SynthServer::bind`, the hello exchange and one small request. Load then
//! runs as a fixed ladder of arrival rates ("rungs"). Each request is timed
//! from when it was due, so a stall also counts against every request
//! queued behind it.

use crate::clock;
use crate::loadgen::{self, Arrival};
use crate::report::{fnv1a, Outcome};
use crate::stats;
use crate::trace::Recorder;
use crate::train::host_cores;
use gtv::{GtvConfig, GtvTrainer, SynthSpec, Synthesizer};
use gtv_data::{to_csv_string, Dataset, Table};
use gtv_serve::{
    encode_serve_wire, ModelRegistry, RowsRequest, ServeConfig, ServeFrame, ServeFrameBuf,
    ServeStats, SynthServer, SynthService, SERVE_PROTOCOL,
};
use gtv_vfl::{Endpoint, PartitionPlan, TransportError};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "serve_mixed_open";
/// Registry name of the served model.
const MODEL: &str = "adult";
/// Rows of the Adult stand-in the model is trained on.
const ROWS: usize = 32_561;
/// Untimed training rounds before serving.
const TRAIN_ROUNDS: usize = 6;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// The rate ladder: requests per second and the share of the time budget
/// each rung gets. The middle rung loads the server about halfway on the
/// host this was tuned on; the top rung is far past saturation even when
/// the host runs fast. The wide spacing keeps a rung's verdict from flipping
/// with the host's speed from run to run. The shares leave about a tenth of
/// the budget for the top rung's backlog to drain.
const RUNGS: [(f64, f64); 3] = [(4.0, 0.62), (16.0, 0.24), (128.0, 0.04)];
/// Most requests in one rung (twelve blocks), so that the top rung's
/// backlog stays under the engine's admission cap (`ServeConfig::queue_cap`,
/// 256).
const MAX_RUNG_REQUESTS: usize = 192;
/// The rung whose small-request latencies are the end-to-end numbers: a
/// light load, where the median and tail are not yet set by head-of-line
/// blocking behind bulk requests.
const NOMINAL: usize = 0;
/// A rung meets the limit when its small-request tail is at most this.
const LIMIT_MS: f64 = 1000.0;
/// A rung whose generator ran later than this (tail) missed the limit.
const LATE_LIMIT_MS: f64 = 20.0;
/// How long a rung may take to drain after its last request was due.
const DRAIN: Duration = Duration::from_secs(20);
/// Closed-loop requests (one bulk, the rest small) sent before the ladder.
const WARMUP_REQUESTS: usize = 9;
/// Most small requests per rung whose replies are checked byte for byte.
const CHECKED_PER_RUNG: usize = 12;

/// One request's timeline.
#[derive(Debug, Clone, Copy)]
struct Sample {
    arrival: Arrival,
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
    ok: bool,
}

impl Sample {
    fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| clock::ms_between(self.due, d))
    }

    fn lateness_ms(&self) -> f64 {
        clock::ms_between(self.due, self.sent)
    }
}

/// A raw pipelined client: frames built with `encode_serve_wire`, replies
/// reassembled with `ServeFrameBuf`.
#[derive(Debug)]
struct Client {
    stream: UnixStream,
    fb: ServeFrameBuf,
    /// Correlation id of the next request.
    next_id: u64,
    /// Bytes read from the server so far.
    bytes_read: u64,
}

fn io_err(what: &str, e: std::io::Error) -> TransportError {
    TransportError::HandshakeFailed { reason: format!("{what}: {e}") }
}

impl Client {
    fn connect(endpoint: &Endpoint) -> Result<Self, TransportError> {
        let Endpoint::Unix(path) = endpoint else {
            return Err(TransportError::HandshakeFailed { reason: "not a unix endpoint".into() });
        };
        let mut stream = UnixStream::connect(path).map_err(|e| io_err("connect", e))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| io_err("timeout", e))?;
        let hello = encode_serve_wire(&ServeFrame::SynthHello { protocol: SERVE_PROTOCOL })?;
        stream.write_all(&hello).map_err(|e| io_err("hello", e))?;
        let mut client = Self { stream, fb: ServeFrameBuf::new(), next_id: 1, bytes_read: 0 };
        match client.next_frame(clock::now() + Duration::from_secs(10))? {
            ServeFrame::SynthHelloAck { .. } => Ok(client),
            other => Err(TransportError::HandshakeFailed { reason: other.kind().to_string() }),
        }
    }

    /// The next reply frame, or an error once `deadline` passes.
    fn next_frame(&mut self, deadline: Instant) -> Result<ServeFrame, TransportError> {
        let mut buf = vec![0u8; 1 << 16];
        loop {
            if let Some(frame) = self.fb.next_frame()? {
                return Ok(frame);
            }
            if clock::now() > deadline {
                return Err(TransportError::Frame { detail: "reply deadline passed".into() });
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(TransportError::Frame { detail: "server closed".into() }),
                Ok(n) => {
                    self.fb.extend(&buf[..n]);
                    self.bytes_read += n as u64;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(io_err("read", e)),
            }
        }
    }
}

impl Client {
    /// Sends one request and waits for its rows (closed loop).
    fn roundtrip(&mut self, a: &Arrival) -> Result<(), TransportError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_serve_wire(&request_frame(id, a))?;
        self.stream.write_all(&frame).map_err(|e| io_err("write", e))?;
        match self.next_frame(clock::now() + DRAIN)? {
            ServeFrame::SynthRows { id: got, .. } if got == id => Ok(()),
            other => {
                Err(TransportError::Frame { detail: format!("request {id} got {}", other.kind()) })
            }
        }
    }
}

fn request_frame(id: u64, a: &Arrival) -> ServeFrame {
    ServeFrame::SynthRequest {
        id,
        model: MODEL.to_string(),
        n: a.rows() as u64,
        seed: a.seed,
        cond: None,
        deadline_ticks: u64::MAX,
    }
}

/// A `SynthServer` on its own thread.
#[derive(Debug)]
struct Server {
    service: Arc<SynthService>,
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<u64, TransportError>>,
}

impl Server {
    /// Warms the registry, builds the service and binds on the serving
    /// thread (the buffer pool is per thread), then serves.
    fn start(synth: Synthesizer, path: PathBuf) -> Result<Self, TransportError> {
        let (tx, rx) = mpsc::channel();
        // gtv-lint: allow(determinism) -- the server's own thread, as in a deployment; joined in stop()
        let handle = std::thread::spawn(move || {
            let ready = (|| -> Result<(SynthServer, Arc<SynthService>), TransportError> {
                gtv_tensor::pool_mem::set_enabled(true);
                let mut registry = ModelRegistry::new();
                registry
                    .insert_warm(MODEL, synth)
                    .map_err(|e| TransportError::HandshakeFailed { reason: e.to_string() })?;
                let service = Arc::new(SynthService::new(registry, ServeConfig::default()));
                let server = SynthServer::bind(Arc::clone(&service), &Endpoint::Unix(path))?;
                Ok((server, service))
            })();
            match ready {
                Ok((server, service)) => {
                    let _ =
                        tx.send(Ok((Arc::clone(&service), server.endpoint(), server.stop_flag())));
                    server.serve(None)
                }
                Err(e) => {
                    let _ = tx.send(Err(e.clone()));
                    Err(e)
                }
            }
        });
        let (service, endpoint, stop) = rx.recv().map_err(|_| {
            TransportError::HandshakeFailed { reason: "server thread died".into() }
        })??;
        Ok(Self { service, endpoint, stop, handle })
    }

    fn stop(self) -> Result<u64, TransportError> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap_or_else(|_| {
            Err(TransportError::HandshakeFailed { reason: "server thread panicked".into() })
        })
    }
}

/// Set-up from trained weights to the first answered request.
fn setup(trainer: &GtvTrainer, path: &Path) -> Result<(f64, Server, Client), TransportError> {
    let t0 = clock::now();
    let synth = trainer
        .synthesizer()
        .map_err(|e| TransportError::HandshakeFailed { reason: e.to_string() })?;
    let server = Server::start(synth, path.to_path_buf())?;
    match first_reply(&server.endpoint) {
        Ok(client) => Ok((clock::ms_since(t0), server, client)),
        Err(e) => {
            let _ = server.stop();
            Err(e)
        }
    }
}

/// Connects, says hello and gets one small request answered.
fn first_reply(endpoint: &Endpoint) -> Result<Client, TransportError> {
    let mut client = Client::connect(endpoint)?;
    client.roundtrip(&Arrival { due_s: 0.0, bulk: false, seed: 1 })?;
    Ok(client)
}

/// What one rung produced.
#[derive(Debug)]
struct Rung {
    rate: f64,
    samples: Vec<Sample>,
    depth: Vec<f64>,
    stats: ServeStats,
    wall_s: f64,
    checked: Vec<(Arrival, Vec<u8>)>,
    drained: bool,
    /// Wire bytes of every reply of the rung.
    reply_bytes: u64,
}

impl Rung {
    fn latencies(&self, bulk: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.arrival.bulk == bulk)
            .filter_map(Sample::latency_ms)
            .collect()
    }

    /// Small-request latencies per block of [`loadgen::BLOCK`] arrivals.
    fn small_latency_blocks(&self) -> Vec<Vec<f64>> {
        self.samples
            .chunks(loadgen::BLOCK)
            .map(|block| {
                block.iter().filter(|s| !s.arrival.bulk).filter_map(Sample::latency_ms).collect()
            })
            .collect()
    }

    fn failures(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Whether requests were piling up: mean outstanding requests over the
    /// last quarter of the rung against the second quarter.
    fn backlog_grew(&self) -> bool {
        let done: Vec<Instant> = self.samples.iter().filter_map(|s| s.done).collect();
        let outstanding: Vec<f64> = self
            .samples
            .iter()
            .enumerate()
            .map(|(i, s)| (i - done.partition_point(|&d| d <= s.sent).min(i)) as f64)
            .collect();
        let q = outstanding.len() / 4;
        q > 0
            && stats::mean(&outstanding[3 * q..]) > 2.0 * stats::mean(&outstanding[q..2 * q]) + 2.0
    }

    fn meets_limit(&self) -> bool {
        self.drained
            && self.failures() == 0
            && stats::tail(&self.latencies(false)).value <= LIMIT_MS
            && stats::tail(&self.samples.iter().map(Sample::lateness_ms).collect::<Vec<_>>()).value
                <= LATE_LIMIT_MS
            && !self.backlog_grew()
    }

    /// Requests completed per second, first send to last reply.
    fn goodput(&self) -> f64 {
        let ok = self.samples.iter().filter(|s| s.ok).count();
        let first = self.samples.iter().map(|s| s.sent).min();
        let last = self.samples.iter().filter_map(|s| s.done).max();
        match (first, last) {
            (Some(f), Some(l)) if l > f => ok as f64 / (clock::ms_between(f, l) / 1e3),
            _ => 0.0,
        }
    }
}

fn diff(a: &ServeStats, b: &ServeStats) -> ServeStats {
    ServeStats {
        submitted: b.submitted - a.submitted,
        completed: b.completed - a.completed,
        rejected_busy: b.rejected_busy - a.rejected_busy,
        rejected_invalid: b.rejected_invalid - a.rejected_invalid,
        expired: b.expired - a.expired,
        groups: b.groups - a.groups,
        coalesced_requests: b.coalesced_requests - a.coalesced_requests,
        coalesced_rows: b.coalesced_rows - a.coalesced_rows,
        batch_hist: std::array::from_fn(|i| b.batch_hist[i] - a.batch_hist[i]),
        pool_hits: b.pool_hits - a.pool_hits,
        pool_misses: b.pool_misses - a.pool_misses,
    }
}

/// Which requests of a rung have their replies checked byte for byte: the
/// first bulk one, and a seeded one in eight of the small ones, at most
/// [`CHECKED_PER_RUNG`] of them.
fn checked(seed: u64, rung: usize, arrivals: &[Arrival]) -> Vec<bool> {
    let first_bulk = arrivals.iter().position(|a| a.bulk);
    let mut small = 0;
    let mut pick = |i: usize, a: &Arrival| {
        if a.bulk {
            return Some(i) == first_bulk;
        }
        let key = [seed.to_le_bytes(), (rung as u64).to_le_bytes(), (i as u64).to_le_bytes()];
        let picked = small < CHECKED_PER_RUNG && fnv1a(&key.concat()).is_multiple_of(8);
        small += usize::from(picked);
        picked
    };
    arrivals.iter().enumerate().map(|(i, a)| pick(i, a)).collect()
}

/// Drives one rung over `client`: a sender and a receiver thread.
fn run_rung(
    client: &mut Client,
    service: &SynthService,
    seed: u64,
    index: usize,
    rate: f64,
    seconds: f64,
    sample_depth: bool,
) -> Result<Rung, TransportError> {
    let first_id = client.next_id;
    // Whole blocks, so every rung holds exactly one bulk request in 16.
    let blocks = (rate * seconds / loadgen::BLOCK as f64).round() as usize;
    let count = (blocks * loadgen::BLOCK).clamp(loadgen::BLOCK, MAX_RUNG_REQUESTS);
    let arrivals = loadgen::schedule(seed, rate, count);
    let keep = checked(seed, index, &arrivals);
    let mut writer = client.stream.try_clone().map_err(|e| io_err("clone", e))?;
    let before = service.stats();
    let bytes_before = client.bytes_read;
    let base = clock::now() + Duration::from_millis(20);
    let dues: Vec<Instant> =
        arrivals.iter().map(|a| base + Duration::from_secs_f64(a.due_s)).collect();
    let drain_deadline = dues.last().copied().unwrap_or(base) + DRAIN;

    let (sent, depth, replies) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(count);
            let mut depth = Vec::new();
            for (i, a) in arrivals.iter().enumerate() {
                let wait = dues[i].saturating_duration_since(clock::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let at = clock::now();
                let frame = encode_serve_wire(&request_frame(first_id + i as u64, a));
                let ok = frame.is_ok_and(|f| writer.write_all(&f).is_ok());
                sent.push((at, ok));
                if sample_depth {
                    depth.push(service.queue_depth() as f64);
                }
            }
            (sent, depth)
        });
        let mut replies: Vec<(Instant, bool, Option<Vec<u8>>)> = Vec::with_capacity(count);
        for (i, &keep) in keep.iter().enumerate() {
            let Ok(frame) = client.next_frame(drain_deadline) else { break };
            let at = clock::now();
            match frame {
                ServeFrame::SynthRows { id, csv } if id == first_id + i as u64 => {
                    replies.push((at, true, keep.then_some(csv)));
                }
                _ => replies.push((at, false, None)),
            }
        }
        let (sent, depth) = sender.join().unwrap_or_default();
        (sent, depth, replies)
    });
    let after = service.stats();
    client.next_id += count as u64;
    let drained = replies.len() == count && sent.len() == count;
    let mut samples = Vec::with_capacity(count);
    let mut checked_replies = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        let (sent_at, sent_ok) = sent.get(i).copied().unwrap_or((dues[i], false));
        let reply = replies.get(i);
        if let Some((_, true, Some(csv))) = reply {
            checked_replies.push((*a, csv.clone()));
        }
        samples.push(Sample {
            arrival: *a,
            due: dues[i],
            sent: sent_at,
            done: reply.map(|r| r.0),
            ok: sent_ok && reply.is_some_and(|r| r.1),
        });
    }
    let wall_s =
        clock::ms_between(base, samples.iter().filter_map(|s| s.done).max().unwrap_or(base)) / 1e3;
    Ok(Rung {
        rate,
        samples,
        depth,
        stats: diff(&before, &after),
        wall_s,
        checked: checked_replies,
        drained,
        reply_bytes: client.bytes_read - bytes_before,
    })
}

/// Runs every rung in turn. Traced runs repeat the nominal rung untraced
/// first, so the tracing overhead is measured within one run; its small
/// median comes back beside the rungs.
fn run_ladder(
    client: &mut Client,
    service: &SynthService,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(Vec<Rung>, Option<f64>), TransportError> {
    let mut rungs: Vec<Rung> = Vec::new();
    let mut untraced_nominal = None;
    for (index, &(rate, share)) in RUNGS.iter().enumerate() {
        let rung_seconds = seconds * share;
        if index == NOMINAL && traced {
            let r = run_rung(client, service, seed, index, rate, rung_seconds, false)?;
            out.attempted += r.samples.len() as u64;
            out.failed += r.failures() as u64;
            untraced_nominal = Some(stats::median(&r.latencies(false)));
        }
        let r = run_rung(client, service, seed, index, rate, rung_seconds, traced)?;
        out.attempted += r.samples.len() as u64;
        out.failed += r.failures() as u64;
        let drained = r.drained;
        rungs.push(r);
        if !drained {
            break;
        }
    }
    Ok((rungs, untraced_nominal))
}

/// Runs the workload for about `seconds` and reports it.
pub fn run(seed: u64, seconds: f64, trace: Option<&Recorder>) -> Outcome {
    let mut out = Outcome::new(NAME);
    match run_inner(seed, seconds, trace, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.failed += 1;
            out.check("serve_run_completed", false, e.to_string());
        }
    }
    out
}

fn run_inner(
    seed: u64,
    seconds: f64,
    trace: Option<&Recorder>,
    out: &mut Outcome,
) -> Result<(), TransportError> {
    // Untimed: a briefly trained Adult model.
    let real = Dataset::Adult.generate(ROWS, seed);
    let groups = PartitionPlan::Even { n_clients: 2 }
        .column_groups(real.n_cols(), None, None)
        .map_err(|e| TransportError::HandshakeFailed { reason: e.to_string() })?;
    let config = GtvConfig { seed, threads: host_cores(), ..GtvConfig::default() };
    let mut trainer = GtvTrainer::new(real.vertical_split(&groups), config);
    for _ in 0..TRAIN_ROUNDS {
        trainer.train_round()?;
    }
    out.note("tensor_threads", gtv_tensor::pool::threads().to_string());
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).map_err(|e| io_err("create perfbench/out", e))?;
    let path = dir.join(format!("serve-{}.sock", std::process::id()));

    // Set-up, several times; the last server carries the load.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for k in 0..SETUPS {
        out.attempted += 1;
        let (ms, server, client) = setup(&trainer, &path)?;
        setups.push(ms / 1e3);
        if k + 1 < SETUPS {
            drop(client);
            server.stop()?;
        } else {
            live = Some((server, client));
        }
    }
    let Some((server, mut client)) = live else {
        return Err(TransportError::HandshakeFailed { reason: "no set-up ran".into() });
    };

    // Untimed warm-up, so the first rung does not pay for filling the
    // serving thread's buffer pool; then the ladder. The server is stopped
    // whether or not they complete.
    let ladder = (0..WARMUP_REQUESTS)
        .try_for_each(|i| {
            out.attempted += 1;
            client.roundtrip(&Arrival { due_s: 0.0, bulk: i == 0, seed: i as u64 + 2 })
        })
        .and_then(|()| {
            run_ladder(&mut client, &server.service, seed, seconds, trace.is_some(), out)
        });
    drop(client);
    let service = Arc::clone(&server.service);
    server.stop()?;
    let (rungs, untraced_nominal) = ladder?;
    let synth = service
        .registry()
        .get(MODEL)
        .ok_or_else(|| TransportError::HandshakeFailed { reason: "model vanished".into() })?;

    // Output check: sampled replies are byte-identical to a direct
    // `synth_one` of the same spec.
    let mut mismatches = 0usize;
    let mut compared = 0usize;
    let mut bulk_table: Option<Table> = None;
    for (a, csv) in rungs.iter().flat_map(|r| r.checked.iter()) {
        let spec = SynthSpec { n: a.rows(), seed: a.seed, cond: None };
        let table =
            synth.synth_one(&spec).map_err(|e| TransportError::Frame { detail: e.to_string() })?;
        compared += 1;
        if to_csv_string(&table).as_bytes() != csv.as_slice() {
            mismatches += 1;
        }
        if a.bulk && bulk_table.is_none() {
            bulk_table = Some(table);
        }
    }
    out.check(
        "served_rows_match_synth_one",
        mismatches == 0 && compared > 0 && bulk_table.is_some(),
        format!("{compared} sampled replies compared, {mismatches} differ"),
    );

    // End-to-end metrics.
    let nominal = rungs.get(NOMINAL);
    let small = nominal.map(|r| r.latencies(false)).unwrap_or_default();
    // Bulk requests are few per rung: pool them over every rung the server
    // sustains (the nominal one at least).
    let sustained = rungs.iter().take_while(|r| r.meets_limit()).count();
    let bulk: Vec<f64> =
        rungs.iter().take(sustained.max(NOMINAL + 1)).flat_map(|r| r.latencies(true)).collect();
    let tail = stats::tail(&small);
    out.metric("setup_s", "s", stats::median(&setups));
    let blocks = nominal.map(Rung::small_latency_blocks).unwrap_or_default();
    out.metric("latency_p50_ms", "ms", stats::median_of_medians(&blocks));
    out.metric("latency_tail_ms", "ms", tail.value);
    out.tail("latency_tail_ms", tail);
    out.metric("bulk_p50_ms", "ms", stats::median(&bulk));
    out.tail(
        "bulk_p50_ms",
        stats::Tail { pct: 50.0, value: stats::median(&bulk), samples: bulk.len(), groups: 1 },
    );
    let replies: usize =
        rungs.iter().map(|r| r.samples.iter().filter(|s| s.done.is_some()).count()).sum();
    let reply_bytes: u64 = rungs.iter().map(|r| r.reply_bytes).sum();
    out.metric("bytes_per_op", "B", reply_bytes as f64 / replies.max(1) as f64);
    let goodput = sustained.checked_sub(1).and_then(|i| rungs.get(i)).map_or(0.0, Rung::goodput);
    out.metric("goodput_per_s", "1/s", goodput);
    if let Some(t) = &bulk_table {
        out.metric("avg_jsd", "score", gtv_metrics::average_jsd(&real, t));
        out.metric("avg_wd", "score", gtv_metrics::average_wd(&real, t));
    }
    for r in &rungs {
        let small = r.latencies(false);
        let late: Vec<f64> = r.samples.iter().map(Sample::lateness_ms).collect();
        let t = stats::tail(&small);
        out.note(
            "rung",
            format!(
                "{:>5.1} req/s: {} requests, small p50 {:.1} ms, p{} {:.1} ms (n={}), bulk p50 {:.1} ms, lateness p{} {:.2} ms, failures {}, backlog grew {}, mean batch {:.2}, meets limit {}",
                r.rate,
                r.samples.len(),
                stats::median(&small),
                t.pct,
                t.value,
                t.samples,
                stats::median(&r.latencies(true)),
                stats::tail(&late).pct,
                stats::tail(&late).value,
                r.failures(),
                r.backlog_grew(),
                r.stats.mean_batch(),
                r.meets_limit()
            ),
        );
    }
    out.note("limit", format!("small-request tail <= {LIMIT_MS} ms, generator lateness tail <= {LATE_LIMIT_MS} ms, no failures, no backlog growth"));

    if let (Some(rec), Some(nominal)) = (trace, nominal) {
        layer_metrics(rec, synth, &service, &rungs, nominal, untraced_nominal.unwrap_or(0.0), out)?;
    }
    Ok(())
}

fn layer_metrics(
    rec: &Recorder,
    synth: &Synthesizer,
    service: &SynthService,
    rungs: &[Rung],
    nominal: &Rung,
    untraced_small_p50: f64,
    out: &mut Outcome,
) -> Result<(), TransportError> {
    for (index, r) in rungs.iter().enumerate() {
        for (i, s) in r.samples.iter().enumerate() {
            let from = rec.len();
            let track = 10 + (i % 8) as u32;
            rec.record(0, "loadgen.late", "loadgen", track, s.due, s.sent);
            if let Some(done) = s.done {
                rec.record(0, "serve.roundtrip", "serve", track, s.sent, done);
            }
            let kind = if s.arrival.bulk { "bulk" } else { "small" };
            rec.record_parent(
                from,
                format!("request rung{index} {kind}"),
                "loadgen",
                track,
                s.due,
                s.done.unwrap_or(s.sent),
            );
        }
    }
    let st = &nominal.stats;
    out.layer("serve.mean_batch", "count", st.mean_batch());
    out.layer("serve.batches_per_s", "1/s", st.groups as f64 / nominal.wall_s.max(1e-9));
    out.layer("serve.busy", "count", rungs.iter().map(|r| r.stats.rejected_busy as f64).sum());
    out.layer("serve.expired", "count", rungs.iter().map(|r| r.stats.expired as f64).sum());
    out.layer("serve.pool_hit_rate", "ratio", st.pool_hit_rate());
    out.layer("serve.queue_depth_tail", "count", stats::tail(&nominal.depth).value);
    let late: Vec<f64> = nominal.samples.iter().map(Sample::lateness_ms).collect();
    out.layer("loadgen.lateness_ms_tail", "ms", stats::tail(&late).value);
    let small_p50 = stats::median(&nominal.latencies(false));
    out.layer("trace.overhead_frac", "ratio", small_p50 / untraced_small_p50 - 1.0);

    // Replays of the same seeded specs, after the load.
    let specs = |bulk: bool| -> Vec<SynthSpec> {
        nominal
            .samples
            .iter()
            .filter(|s| s.arrival.bulk == bulk)
            .take(5)
            .map(|s| SynthSpec { n: s.arrival.rows(), seed: s.arrival.seed, cond: None })
            .collect()
    };
    let replay = |specs: &[SynthSpec], f: &dyn Fn(&SynthSpec) -> Result<Table, TransportError>| {
        let mut ms = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let t0 = clock::now();
            let t = f(spec)?;
            if i > 0 || specs.len() == 1 {
                ms.push(clock::ms_since(t0));
            }
            std::hint::black_box(t);
        }
        Ok::<f64, TransportError>(stats::median(&ms))
    };
    let engine = |spec: &SynthSpec| {
        let req = RowsRequest { model: MODEL.to_string(), spec: *spec, deadline_ticks: None };
        service.request(&req).map_err(|e| TransportError::Frame { detail: e.to_string() })
    };
    let direct = |spec: &SynthSpec| {
        synth.synth_one(spec).map_err(|e| TransportError::Frame { detail: e.to_string() })
    };
    let (small, bulk) = (specs(false), specs(true));
    let engine_small = replay(&small, &engine)?;
    out.layer("serve.engine_ms_small", "ms", engine_small);
    out.layer("serve.engine_ms_bulk", "ms", replay(&bulk, &engine)?);
    out.layer("core.synth_ms_small", "ms", replay(&small, &direct)?);
    out.layer("core.synth_ms_bulk", "ms", replay(&bulk, &direct)?);
    out.layer("serve.socket_ms_small", "ms", small_p50 - engine_small);
    if let Some(spec) = bulk.first() {
        let table = direct(spec)?;
        let t0 = clock::now();
        let csv = to_csv_string(&table).into_bytes();
        let t1 = clock::now();
        let frame = encode_serve_wire(&ServeFrame::SynthRows { id: 1, csv })?;
        let t2 = clock::now();
        std::hint::black_box(frame);
        out.layer("serve.csv_ms_bulk", "ms", clock::ms_between(t0, t1));
        out.layer("serve.wire_encode_ms_bulk", "ms", clock::ms_between(t1, t2));
    }
    Ok(())
}
