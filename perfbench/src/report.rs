//! What a run reports: metrics, output checks, notes, and the JSON forms.

use crate::stats::Tail;
use crate::trace::json_str;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports (tracing off), with units:
/// the bounded set in `BENCHMARK.json`. `latency_tail_ms`, `bulk_p50_ms`,
/// `avg_jsd`, `avg_wd` and `failed_frac` are reported beside them but not
/// bounded (see the README).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("latency_p50_ms", "ms"), ("bytes_per_op", "B"), ("goodput_per_s", "1/s")];

/// Per-layer metrics every workload reports (traced run), with units. A
/// layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("vfl.send_ms_per_round", "ms"),
    ("vfl.recv_ms_per_round", "ms"),
    ("vfl.calls_per_round", "count"),
    ("vfl.messages_per_round", "count"),
    ("vfl.errors", "count"),
    ("vfl.wire_encode_ms_per_round", "ms"),
    ("vfl.wire_decode_ms_per_round", "ms"),
    ("vfl.connect_ms", "ms"),
    ("core.compute_ms_per_round", "ms"),
    ("core.trainer_new_ms", "ms"),
    ("core.synthesize_ms", "ms"),
    ("core.synth_ms_small", "ms"),
    ("core.synth_ms_bulk", "ms"),
    ("encoders.fit_ms", "ms"),
    ("encoders.encode_ms", "ms"),
    ("encoders.decode_ms", "ms"),
    ("tensor.pool_hits_per_round", "count"),
    ("tensor.pool_misses_per_round", "count"),
    ("tensor.pool_hit_rate", "ratio"),
    ("tensor.dispatches_per_round", "count"),
    ("serve.mean_batch", "count"),
    ("serve.batches_per_s", "1/s"),
    ("serve.busy", "count"),
    ("serve.expired", "count"),
    ("serve.pool_hit_rate", "ratio"),
    ("serve.queue_depth_tail", "count"),
    ("serve.engine_ms_small", "ms"),
    ("serve.engine_ms_bulk", "ms"),
    ("serve.socket_ms_small", "ms"),
    ("serve.wire_encode_ms_bulk", "ms"),
    ("serve.csv_ms_bulk", "ms"),
    ("loadgen.lateness_ms_tail", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// End-to-end metrics: name, unit, value.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Tails: metric name and what its value rests on.
    pub tails: Vec<(&'static str, Tail)>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Free-form notes: per-rung tables, counts, errors.
    pub notes: Vec<(&'static str, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self { workload, ..Self::default() }
    }

    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layers.push((name, unit, value));
    }

    /// Records what a tail metric rests on.
    pub fn tail(&mut self, name: &'static str, tail: Tail) {
        self.tails.push((name, tail));
    }

    /// Records an output check.
    pub fn check(&mut self, name: &'static str, pass: bool, detail: String) {
        self.checks.push(Check { name, pass, detail });
    }

    /// Records a note.
    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }

    /// Whether every check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty()
            && self.checks.iter().all(|c| c.pass)
            && self.metrics.iter().chain(&self.layers).all(|m| m.2.is_finite())
    }

    fn lookup<'a>(
        list: &'a [(&'static str, &'static str, f64)],
        name: &str,
    ) -> Option<&'a (&'static str, &'static str, f64)> {
        list.iter().find(|m| m.0 == name)
    }

    /// The metrics the result line carries: every end-to-end metric, or
    /// with `traced` every per-layer metric (0 for layers not reached).
    pub fn result_metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let (list, own) =
            if traced { (&PER_LAYER[..], &self.layers) } else { (&END_TO_END[..], &self.metrics) };
        list.iter()
            .map(|&(name, unit)| (name, unit, Self::lookup(own, name).map_or(0.0, |m| m.2)))
            .collect()
    }

    /// The one-line result object.
    pub fn result_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.result_metrics(traced).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(value),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// 64-bit FNV-1a digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
