//! TLS 1.3 / 1.2 handshake state machines.
//!
//! What matters for the paper — and therefore what is implemented — is
//! the *round-trip and byte* behaviour of TLS: how many flights each
//! version needs, how large each flight is, how session resumption
//! removes the certificate exchange, and how 0-RTT lets a client attach
//! application data to its first flight. Key schedules and AEAD
//! computations are replaced by their byte-size overhead (see
//! DESIGN.md): records that would be encrypted carry a 16-byte tag plus
//! the TLS 1.3 inner content-type byte.
//!
//! The same handshake-message model is embedded by [`crate::quic`] in
//! CRYPTO frames, exactly like real QUIC embeds TLS 1.3; [`TlsStream`]
//! and [`TlsListener`] run it over TCP.

mod engine;
mod messages;
mod over_tcp;
mod session;

pub use engine::{TlsClient, TlsConfig, TlsError, TlsServer};
pub use messages::{HandshakeMessage, HandshakePayload, TlsRecord, TlsVersion, RECORD_OVERHEAD};
pub use over_tcp::{TlsListener, TlsSession, TlsStream};
pub use session::SessionTicket;
