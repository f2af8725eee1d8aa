//! # nfvbench
//!
//! The repository's benchmark: three workloads driven through the public
//! API, each reporting end-to-end metrics from an untraced pass and
//! per-layer metrics from a traced pass. Run one workload with
//!
//! ```text
//! cargo run --release --manifest-path nfvbench/Cargo.toml -- \
//!     --workload offline_waxman250 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
