//! A wall-clock benchmark of the Revelio stack, driven through its
//! public API: end-to-end workloads a browser user or a fleet operator
//! waits on, and a separate traced run that attributes their time to
//! layers.
//!
//! `cargo run --release -- --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` prints a report and, as its last line, one JSON
//! object with the metrics named in the repository's `BENCHMARK.json`.
//! See `README.md` beside this crate for the workloads and metrics.

pub mod bench;
pub mod fixture;
pub mod json;
pub mod kernels;
pub mod stats;
pub mod trace;
pub mod workloads;
