//! The repository benchmark: training rounds and synthesis serving over
//! real sockets, with a traced mode that splits time by layer.
//!
//! Run it with `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <name> --seed <n> --seconds <s> --trace <0|1>`; see the
//! README next to this package for workloads, metrics and outputs.

pub mod clock;
pub mod loadgen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod train;
