//! # perfbench
//!
//! The repository benchmark. It builds PDAgent cells (central server,
//! gateway, two bank MAS sites, devices, and optionally the ops planes)
//! from the platform crates' public constructors, runs a named workload on
//! the sharded simulator, gates every journey's result, and reports
//! end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pi48k_dense --seed 1 --seconds 10 --trace 0
//! ```

pub mod bench;
pub mod gate;
pub mod inputs;
pub mod replay;
pub mod stats;
pub mod world;
