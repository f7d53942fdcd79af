//! An Internet Computer (IC) substrate simulation and the boundary-node
//! protocol-translation proxy — the paper's elevated-security use case
//! (§4.2).
//!
//! The IC hosts smart contracts ("canisters") on subnets of replicas whose
//! responses are certified by a threshold of replica signatures, providing
//! Byzantine fault tolerance. Browsers speak HTTP, not the IC protocol, so
//! **boundary nodes** translate: an ordinary HTTP request becomes an IC
//! message, and the response's certificate is checked before the payload
//! is returned. A *malicious* boundary node can silently rewrite what the
//! user sees — which is exactly why the paper runs boundary nodes inside
//! Revelio VMs that end-users can attest.
//!
//! Module map:
//!
//! * [`canister`] — the canister model plus key-value and web-asset
//!   canisters;
//! * [`subnet`] — replicas, Byzantine-fault-tolerant execution, and
//!   threshold-certified responses (k-of-n Ed25519 multi-signature
//!   standing in for BLS threshold signatures — substitution documented
//!   in `DESIGN.md`);
//! * [`ic`] — the network of subnets with canister routing;
//! * [`boundary`] — the HTTP↔IC translation router to mount inside a
//!   Revelio VM, including a tamper switch for the malicious-proxy threat;
//! * [`service_worker`] — the client-side translation path: the browser
//!   verifies subnet certificates itself, so even a lying boundary node
//!   cannot forge payloads (only censor).

#![forbid(unsafe_code)]

pub mod boundary;
pub mod canister;
pub mod error;
pub mod ic;
pub mod service_worker;
pub mod subnet;

pub use error::IcError;
