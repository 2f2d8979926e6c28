//! The unified client interface the measurement harness drives.

use crate::server::ServerConfig;
use doqlab_dnswire::Message;
use doqlab_netstack::tls::SessionTicket;
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};

/// The five DNS transports of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DnsTransport {
    DoUdp,
    DoTcp,
    DoT,
    DoH,
    DoQ,
    /// DNS over HTTP/3 (§4 future work; not part of the paper's five
    /// measured transports and therefore not in [`DnsTransport::ALL`]).
    DoH3,
}

impl DnsTransport {
    /// All five, in the column order of the paper's Table 1.
    pub const ALL: [DnsTransport; 5] = [
        DnsTransport::DoUdp,
        DnsTransport::DoTcp,
        DnsTransport::DoQ,
        DnsTransport::DoH,
        DnsTransport::DoT,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            DnsTransport::DoUdp => "DoUDP",
            DnsTransport::DoTcp => "DoTCP",
            DnsTransport::DoT => "DoT",
            DnsTransport::DoH => "DoH",
            DnsTransport::DoQ => "DoQ",
            DnsTransport::DoH3 => "DoH3",
        }
    }

    pub fn is_encrypted(&self) -> bool {
        matches!(
            self,
            DnsTransport::DoT | DnsTransport::DoH | DnsTransport::DoQ | DnsTransport::DoH3
        )
    }

    /// Default server port.
    pub fn port(&self) -> u16 {
        match self {
            DnsTransport::DoUdp | DnsTransport::DoTcp => crate::ports::DNS,
            DnsTransport::DoT => crate::ports::DOT,
            DnsTransport::DoH => crate::ports::HTTPS,
            DnsTransport::DoQ => crate::ports::DOQ,
            // HTTP/3 runs over QUIC on UDP 443.
            DnsTransport::DoH3 => crate::ports::HTTPS,
        }
    }
}

impl std::fmt::Display for DnsTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a query never completed: the failure taxonomy the measurement
/// campaigns report and count through `doqlab-telemetry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FailureKind {
    /// Retries/retransmissions went unanswered after a usable session
    /// existed (or, for DoUDP, ever).
    Timeout,
    /// The peer reset or abruptly closed the connection.
    Reset,
    /// The transport never reached a usable session: TCP SYN retries
    /// exhausted, a TLS alert, or a QUIC version/ALPN/crypto failure.
    HandshakeFail,
    /// The per-query deadline elapsed before a response arrived.
    DeadlineExceeded,
}

impl FailureKind {
    pub const ALL: [FailureKind; 4] = [
        FailureKind::Timeout,
        FailureKind::Reset,
        FailureKind::HandshakeFail,
        FailureKind::DeadlineExceeded,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Timeout => "timeout",
            FailureKind::Reset => "reset",
            FailureKind::HandshakeFail => "handshake-fail",
            FailureKind::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Resumption material carried from one connection to the next — what
/// the paper's cache-warming query captures and the measurement query
/// reuses: TLS session ticket, QUIC address-validation token and the
/// negotiated QUIC version.
#[derive(Debug, Clone, Default)]
pub struct SessionState {
    pub tls_ticket: Option<SessionTicket>,
    pub quic_token: Option<Vec<u8>>,
    pub quic_version: Option<u32>,
    /// TCP Fast Open cookie the server issued (RFC 7413) — lets the
    /// next DoTCP connection put its query on the SYN.
    pub tfo_cookie: Option<Vec<u8>>,
}

impl SessionState {
    pub fn is_empty(&self) -> bool {
        self.tls_ticket.is_none()
            && self.quic_token.is_none()
            && self.quic_version.is_none()
            && self.tfo_cookie.is_none()
    }

    /// Fold another capture into this one, field-wise: later non-empty
    /// fields win, absent ones keep what an earlier connection learned.
    pub fn merge(&mut self, other: SessionState) {
        if other.tls_ticket.is_some() {
            self.tls_ticket = other.tls_ticket;
        }
        if other.quic_token.is_some() {
            self.quic_token = other.quic_token;
        }
        if other.quic_version.is_some() {
            self.quic_version = other.quic_version;
        }
        if other.tfo_cookie.is_some() {
            self.tfo_cookie = other.tfo_cookie;
        }
    }
}

/// Client-side session cache keyed by resolver address: every
/// resumption artifact a stub gathers — TLS session tickets, QUIC
/// address-validation tokens and negotiated versions, TFO cookies — is
/// stored under the resolver that issued it and presented on the next
/// dial to that resolver. Captures merge field-wise (see
/// [`SessionState::merge`]), so a ticket from one connection and a TFO
/// cookie from another combine instead of clobbering each other.
#[derive(Debug, Clone, Default)]
pub struct SessionCache {
    entries: std::collections::HashMap<SocketAddr, SessionState>,
}

impl SessionCache {
    /// Fold a capture into the resolver's entry. Empty captures are
    /// ignored; non-empty fields of later captures win.
    pub fn store(&mut self, resolver: SocketAddr, s: SessionState) {
        if s.is_empty() {
            return;
        }
        self.entries.entry(resolver).or_default().merge(s);
    }

    /// The accumulated resumption material for a resolver, if any.
    pub fn get(&self, resolver: SocketAddr) -> Option<&SessionState> {
        self.entries.get(&resolver)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Per-connection client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Resumption material from a previous connection.
    pub session: SessionState,
    /// Attempt TLS 1.3 / QUIC 0-RTT when the ticket permits it.
    pub enable_0rtt: bool,
    /// DoUDP application-layer retry timeout (Chromium/resolv.conf
    /// default: 5 s).
    pub udp_retry_timeout: std::time::Duration,
    pub udp_max_retries: u32,
    /// Request TCP Fast Open.
    pub enable_tfo: bool,
    /// Ask the resolver to hold DoTCP connections open (RFC 7828).
    pub request_tcp_keepalive: bool,
    /// Overall per-query deadline, enforced by `DnsClientHost`: if no
    /// response arrived when it expires the query is abandoned with
    /// [`FailureKind::DeadlineExceeded`]. `None` disables the deadline
    /// (the historical behavior).
    pub query_deadline: Option<std::time::Duration>,
    /// How many times `DnsClientHost` may tear down a failed connection
    /// and dial a fresh one (re-issuing the pending queries, reusing any
    /// session ticket gathered so far). `0` disables reconnection.
    pub reconnect_max: u32,
    /// Backoff before the first reconnect attempt; doubles per attempt.
    pub reconnect_backoff: std::time::Duration,
    /// Connection pooling (`None` disables it — the historical
    /// single-query behavior). With `Some(idle)`, `DnsClientHost` keeps
    /// the connection open across queries, amortizing the TLS/QUIC
    /// handshake, and closes it once it has sat idle — no query in
    /// flight — for `idle`. The next query after an eviction dials a
    /// fresh connection carrying any captured session ticket. Pool
    /// evictions are bookkept separately from failure reconnects.
    pub pool_idle_timeout: Option<std::time::Duration>,
    /// Pooled mode only: a freshly dialed connection must complete its
    /// handshake within this budget or it is torn down and redialed
    /// (counting against `reconnect_max` like any other failure). Guards
    /// against handshakes that retry forever without a terminal error.
    pub pool_handshake_timeout: std::time::Duration,
    /// Cross-transport failover ladder raced by `DnsClientHost`
    /// (non-pooled mode only; `None` — the default — disables racing
    /// and leaves the historical single-transport behavior untouched).
    pub failover: Option<FailoverPolicy>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            session: SessionState::default(),
            enable_0rtt: true,
            udp_retry_timeout: std::time::Duration::from_secs(5),
            udp_max_retries: 2,
            enable_tfo: false,
            request_tcp_keepalive: false,
            query_deadline: None,
            reconnect_max: 0,
            reconnect_backoff: std::time::Duration::from_millis(250),
            pool_idle_timeout: None,
            pool_handshake_timeout: std::time::Duration::from_secs(4),
            failover: None,
        }
    }
}

/// The dormant capabilities the paper found no resolver deploying (§3,
/// §4), switched on together for a resolver and the clients that query
/// it. This is the one place that knows how each is switched on; the
/// default switches nothing and leaves every configuration as it is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// TLS 1.3 / QUIC 0-RTT: the resolver issues early-data tickets and
    /// accepts early data (clients attempt it by default).
    pub zero_rtt: bool,
    /// TCP Fast Open (RFC 7413): the resolver issues cookies and clients
    /// request them.
    pub tfo: bool,
    /// edns-tcp-keepalive (RFC 7828): clients ask the resolver to hold
    /// DoTCP connections open, and the resolver grants a timeout instead
    /// of closing after the first response.
    pub keepalive: bool,
    /// DoH runs as DNS over HTTP/3 against an HTTP/3-capable resolver.
    pub doh3: bool,
}

impl Capabilities {
    /// The resolver's configuration with these capabilities switched on
    /// (a capability the resolver already has stays on).
    pub fn server(&self, mut cfg: ServerConfig) -> ServerConfig {
        cfg.enable_0rtt |= self.zero_rtt;
        cfg.enable_tfo |= self.tfo;
        if self.keepalive {
            cfg.tcp_keepalive = true;
            cfg.close_tcp_after_response = false;
        }
        cfg.supports_doh3 |= self.doh3;
        cfg
    }

    /// A stub's or a proxy's client configuration with these
    /// capabilities requested.
    pub fn client(&self) -> ClientConfig {
        ClientConfig {
            enable_tfo: self.tfo,
            request_tcp_keepalive: self.keepalive,
            ..ClientConfig::default()
        }
    }

    /// The transport a unit nominally on `nominal` runs on. Apply it
    /// after the unit seed is drawn from `nominal`, so a DoH3 unit
    /// replays its DoH twin's draws.
    pub fn transport(&self, nominal: DnsTransport) -> DnsTransport {
        if self.doh3 && nominal == DnsTransport::DoH {
            DnsTransport::DoH3
        } else {
            nominal
        }
    }
}

/// Cross-transport failover: a happy-eyeballs-style racing ladder.
///
/// When a query has gone unanswered on the primary transport for
/// `stagger`, [`DnsClientHost`](crate::DnsClientHost) dials the first
/// ladder rung on a fresh source port and re-issues the query there;
/// after `2 * stagger` the second rung, and so on. A rung is also
/// dialed immediately once the primary and every earlier rung have
/// failed terminally. The first response wins, the losers are closed,
/// and their bytes are bookkept as waste.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverPolicy {
    /// Fallback transports tried in order (the primary transport is
    /// whatever the host was built with and is not listed here).
    pub ladder: Vec<DnsTransport>,
    /// Head start the primary (and each rung) gets before the next
    /// rung is dialed.
    pub stagger: std::time::Duration,
}

impl FailoverPolicy {
    /// The classic DoQ ladder: fall back to DoT, then DoUDP.
    pub fn doq_ladder(stagger: std::time::Duration) -> Self {
        FailoverPolicy {
            ladder: vec![DnsTransport::DoT, DnsTransport::DoUdp],
            stagger,
        }
    }
}

/// Negotiated-protocol metadata for the §3 overview statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConnMetadata {
    /// Negotiated QUIC version (DoQ).
    pub quic_version: Option<u32>,
    /// Negotiated DoQ ALPN as a string (e.g. "doq-i02").
    pub doq_alpn: Option<String>,
    /// Negotiated TLS version (DoT/DoH/DoQ).
    pub tls13: Option<bool>,
    /// The handshake resumed a previous session.
    pub resumed: bool,
    /// 0-RTT data was accepted.
    pub zero_rtt: bool,
}

/// A sans-I/O DNS client connection.
///
/// Drive it like the simnet hosts drive their sockets: `start` once,
/// feed arriving packets with `on_packet`, call `poll` after every
/// event and whenever `next_timeout` expires, and transmit everything
/// `poll`/`start`/`on_packet` push into `out`.
pub trait DnsClientConn {
    /// Open the connection. Queued queries are transmitted as soon as
    /// the transport allows (0-RTT may put them in the first flight).
    fn start(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>);

    /// Queue a DNS query.
    fn query(&mut self, now: SimTime, msg: &Message);

    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>);

    /// Run timers and flush pending output.
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>);

    fn next_timeout(&self) -> Option<SimTime>;

    /// Responses received so far, with their arrival times (drained).
    fn take_responses(&mut self) -> Vec<(SimTime, Message)>;

    /// When the session became usable for queries. `Some(start)` for
    /// connectionless DoUDP.
    fn handshake_done_at(&self) -> Option<SimTime>;

    /// Classify the permanent failure (`None` while healthy).
    fn failure(&self) -> Option<FailureKind>;

    /// The connection failed permanently.
    fn failed(&self) -> bool {
        self.failure().is_some()
    }

    /// Resumption material gathered on this connection (tickets, QUIC
    /// token + version).
    fn session_state(&mut self) -> SessionState;

    /// Begin a graceful close.
    fn close(&mut self, now: SimTime, out: &mut Vec<Packet>);

    /// The host's local address changed under a live connection
    /// (wifi→cellular rebind). Transports with connection migration
    /// (QUIC: DoQ, DoH3) adopt the address and validate the new path;
    /// for everything else the default no-op leaves the connection
    /// bound to the now-dead address — exactly the stranding a real
    /// TCP/UDP socket suffers.
    fn rebind(&mut self, now: SimTime, new_local: SocketAddr, out: &mut Vec<Packet>) {
        let _ = (now, new_local, out);
    }

    /// Negotiated-protocol metadata (empty for plaintext transports).
    fn metadata(&self) -> ConnMetadata {
        ConnMetadata::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_table1_order() {
        let names: Vec<&str> = DnsTransport::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["DoUDP", "DoTCP", "DoQ", "DoH", "DoT"]);
    }

    #[test]
    fn encryption_classification() {
        assert!(!DnsTransport::DoUdp.is_encrypted());
        assert!(!DnsTransport::DoTcp.is_encrypted());
        assert!(DnsTransport::DoT.is_encrypted());
        assert!(DnsTransport::DoH.is_encrypted());
        assert!(DnsTransport::DoQ.is_encrypted());
    }

    #[test]
    fn ports() {
        assert_eq!(DnsTransport::DoUdp.port(), 53);
        assert_eq!(DnsTransport::DoTcp.port(), 53);
        assert_eq!(DnsTransport::DoT.port(), 853);
        assert_eq!(DnsTransport::DoH.port(), 443);
        assert_eq!(DnsTransport::DoQ.port(), 853);
    }

    #[test]
    fn session_state_emptiness() {
        assert!(SessionState::default().is_empty());
        let s = SessionState {
            quic_version: Some(1),
            ..SessionState::default()
        };
        assert!(!s.is_empty());
    }
}
