//! The open-loop arrival schedule for the serving workload.
//!
//! Request `i` of a rung is due at `(i + u_i) / rate` seconds, with `u_i`
//! drawn uniformly from `[0, 1)`: the mean rate is exact and arrivals are
//! jittered. Requests come in blocks of [`BLOCK`]; one seeded slot per
//! block is a bulk request, the rest are small. Everything is a pure
//! function of `(seed, rate, count)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows in a small (interactive) request.
pub const SMALL_ROWS: usize = 64;
/// Rows in a bulk request.
pub const BULK_ROWS: usize = 4096;
/// One request in every `BLOCK` is bulk.
pub const BLOCK: usize = 16;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, in seconds from the start of the rung.
    pub due_s: f64,
    /// Whether it is a bulk request.
    pub bulk: bool,
    /// The request's synthesis seed.
    pub seed: u64,
}

impl Arrival {
    /// Rows the request asks for.
    pub fn rows(&self) -> usize {
        if self.bulk {
            BULK_ROWS
        } else {
            SMALL_ROWS
        }
    }
}

/// The first `count` arrivals of a rung at `rate` requests per second.
pub fn schedule(seed: u64, rate: f64, count: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ rate.to_bits().rotate_left(17));
    let mut bulk_slot = 0;
    (0..count)
        .map(|i| {
            if i % BLOCK == 0 {
                bulk_slot = rng.gen_range(0..BLOCK);
            }
            let jitter: f64 = rng.gen();
            Arrival {
                due_s: (i as f64 + jitter) / rate,
                bulk: i % BLOCK == bulk_slot,
                seed: rng.gen(),
            }
        })
        .collect()
}
