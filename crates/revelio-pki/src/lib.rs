//! A web-PKI simulation: certificates, CSRs, CAs, and an ACME-style
//! automated certificate authority with Let's Encrypt-like rate limits.
//!
//! Revelio binds a service's TLS identity to its TEE (paper §3.4.5): the
//! certificate's public key is the key whose hash sits in the attestation
//! report's `REPORT_DATA`. The PKI side of that story — domain-validated
//! issuance via CSRs (§2.2), the DNS-01 challenge, and the issuance rate
//! limits that force all Revelio VMs of a service to *share* one
//! certificate (§3.4.6) — is reproduced by this crate.
//!
//! ```
//! use revelio_crypto::ed25519::SigningKey;
//! use revelio_pki::ca::CertificateAuthority;
//! use revelio_pki::cert::CertificateSigningRequest;
//!
//! let ca = CertificateAuthority::new_root("Sim Root CA", [1; 32]);
//! let service_key = SigningKey::from_seed(&[2; 32]);
//! let csr = CertificateSigningRequest::new("pad.example.org", &service_key, "Example Org", "CH");
//! let cert = ca.issue_for_csr(&csr, 0, 90 * 24 * 3600 * 1000)?;
//! cert.verify_signature(&ca.certificate())?;
//! # Ok::<(), revelio_pki::PkiError>(())
//! ```

#![forbid(unsafe_code)]

pub mod acme;
pub mod ca;
pub mod cert;
pub mod error;

pub use error::PkiError;
