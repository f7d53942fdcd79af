//! Umbrella crate for the Revelio reproduction workspace.
//!
//! This package exists to host the runnable examples (`examples/`) and the
//! cross-crate integration suites (`tests/`). The implementation lives in
//! the `crates/` members; start with the [`revelio`] crate's documentation
//! and the repository `README.md`.

#![forbid(unsafe_code)]

pub use revelio;
pub use revelio_boot;
pub use revelio_build;
pub use revelio_crypto;
pub use revelio_cryptpad;
pub use revelio_http;
pub use revelio_ic;
pub use revelio_net;
pub use revelio_pki;
pub use revelio_storage;
pub use revelio_telemetry;
pub use revelio_tls;
pub use sev_snp;
