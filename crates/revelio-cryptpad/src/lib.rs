//! A CryptPad-like end-to-end encrypted collaboration suite — the paper's
//! stateful standalone-VM use case (§4.1).
//!
//! Pads are encrypted client-side; the server stores only ciphertext and
//! enforces no access control beyond pad identifiers (knowledge of the
//! pad secret *is* the access control, as in CryptPad's URL-fragment
//! keys). The paper's point: this protects against an *honest-but-curious*
//! server, but the user must still trust the JavaScript the server ships —
//! a malicious provider serves a key-exfiltrating client. Running the
//! server in a Revelio VM closes exactly that gap: the end-user attests
//! the whole service, including the shipped client assets.
//!
//! * [`server`] — the pad store and its HTTP routes (mount inside a
//!   Revelio node), plus sealed-volume persistence across reboots.
//! * [`client`] — the browser-side crypto: key derivation from the pad
//!   secret, append encryption, history decryption and tamper detection.

#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod server;

pub use error::PadError;
