//! # doqlab-dox — the five DNS transports
//!
//! Client and server endpoints for every protocol the paper measures,
//! glued from the `doqlab-netstack` state machines:
//!
//! | Module  | Protocol | RFC | Transport stack |
//! |---------|----------|-----|-----------------|
//! | [`udp`] | DoUDP    | 1035 | UDP; Chromium-style 5 s application retry |
//! | [`tcp`] | DoTCP    | 7766/9210 | TCP + 2-byte framing |
//! | [`dot`] | DoT      | 7858 | TLS over TCP, ALPN `dot`, port 853 |
//! | [`doh`] | DoH      | 8484 | HTTP/2 over TLS over TCP, port 443 |
//! | [`doq`] | DoQ      | 9250 | QUIC, ALPN `doq`/`doq-i*`, port 853/784/8853 |
//! | [`doh3`] | DoH3    | 8484/9114 | HTTP/3 over QUIC, port 443 (§4 future work) |
//!
//! All clients implement [`client::DnsClientConn`], the sans-I/O
//! interface the measurement harness drives; [`server::DnsServerSet`]
//! bundles the server endpoints for a resolver host. Each carrier is
//! written once: DoT and DoH share the TLS-over-TCP stream of
//! `doqlab-netstack`, DoQ and DoH3 one QUIC client shell, and every
//! listener keeps its connections' DNS state beside them.

pub mod alpn;
mod carrier;
pub mod client;
pub mod doh;
pub mod doh3;
pub mod doq;
pub mod dot;
pub mod host;
pub mod server;
pub mod tcp;
pub mod udp;

pub use alpn::DoqAlpn;
pub use client::{
    Capabilities, ClientConfig, ConnMetadata, DnsClientConn, DnsTransport, FailoverPolicy,
    FailureKind, SessionCache, SessionState,
};
pub use host::{make_client, DnsClientHost};
pub use server::{DnsServerSet, ServerConfig, ServerEvent};

/// Well-known ports.
pub mod ports {
    /// DoUDP and DoTCP.
    pub const DNS: u16 = 53;
    /// DoT, and the standard DoQ port (RFC 9250).
    pub const DOT: u16 = 853;
    pub const DOQ: u16 = 853;
    /// Early DoQ deployments (draft).
    pub const DOQ_EARLY: u16 = 784;
    pub const DOQ_ALT: u16 = 8853;
    /// DoH.
    pub const HTTPS: u16 = 443;
}
