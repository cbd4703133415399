//! The repository benchmark: four workloads run from outside through the
//! workspace crates' public API, with transparent per-layer tracing.
//!
//! Run it with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload explore-fig2 --seed 0 --seconds 25 --trace 0`
//! from the repository root; see `perfbench/README.md`.

pub mod metrics;
pub mod probe;
pub mod reference;
pub mod stats;
pub mod workloads;
