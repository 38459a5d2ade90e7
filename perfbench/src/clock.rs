//! The benchmark's one clock: every timestamp it records comes from here.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// A monotonic instant.
pub fn now() -> Instant {
    // gtv-lint: allow(determinism) -- benchmark timing; never reaches the program's inputs
    Instant::now()
}

/// The process epoch that trace timestamps are relative to (fixed at the
/// first call).
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(now)
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64() * 1e3
}

/// Milliseconds between two instants (0 if `end` precedes `start`).
pub fn ms_between(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e3
}

/// Microseconds from the process epoch to `t`, for trace events.
pub fn us_from_epoch(t: Instant) -> f64 {
    t.saturating_duration_since(epoch()).as_secs_f64() * 1e6
}
