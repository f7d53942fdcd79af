//! Error type for the simulated network.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The address already has a bound listener.
    AddressInUse(String),
    /// Nothing is listening at the dialed address (closed port — e.g. the
    /// SSH port of a Revelio VM).
    ConnectionRefused(String),
    /// A domain name did not resolve.
    NameResolution(String),
    /// The peer closed or reset the connection.
    ConnectionClosed,
    /// A protocol-level failure inside a connection handler.
    Protocol(String),
    /// The operation timed out waiting for the peer (injected fault or an
    /// unresponsive service); names the dialed address.
    Timeout(String),
    /// The message was dropped in flight (injected fault); names the
    /// dialed address.
    Dropped(String),
}

impl NetError {
    /// Whether this error is a *transient* transport condition a caller
    /// may reasonably retry: timeouts, drops, and connection resets. A
    /// refused port, a failed resolution, or a protocol violation is a
    /// durable condition retries cannot fix.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            NetError::Timeout(_) | NetError::Dropped(_) | NetError::ConnectionClosed
        )
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::AddressInUse(a) => write!(f, "address {a} already in use"),
            NetError::ConnectionRefused(a) => write!(f, "connection refused at {a}"),
            NetError::NameResolution(d) => write!(f, "cannot resolve {d}"),
            NetError::ConnectionClosed => write!(f, "connection closed by peer"),
            NetError::Protocol(why) => write!(f, "protocol error: {why}"),
            NetError::Timeout(a) => write!(f, "timed out waiting for {a}"),
            NetError::Dropped(a) => write!(f, "message to {a} dropped in flight"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_address() {
        assert!(NetError::ConnectionRefused("10.0.0.1:22".into())
            .to_string()
            .contains(":22"));
        assert!(NetError::Timeout("kds:443".into())
            .to_string()
            .contains("kds:443"));
        assert!(NetError::Dropped("a:1".into()).to_string().contains("a:1"));
    }

    #[test]
    fn transient_classification() {
        assert!(NetError::Timeout("a".into()).is_transient());
        assert!(NetError::Dropped("a".into()).is_transient());
        assert!(NetError::ConnectionClosed.is_transient());
        assert!(!NetError::ConnectionRefused("a".into()).is_transient());
        assert!(!NetError::NameResolution("a".into()).is_transient());
        assert!(!NetError::Protocol("x".into()).is_transient());
        assert!(!NetError::AddressInUse("a".into()).is_transient());
    }
}
