//! What the DNS transports share below their application mapping: the
//! failure taxonomy of TCP and of TLS over TCP, the metadata and
//! resumption capture of a [`TlsStream`], and the QUIC client shell
//! DoQ and DoH3 embed.

use crate::client::{ClientConfig, ConnMetadata, FailureKind, SessionState, ATTEMPT_0RTT};
use doqlab_netstack::quic::{QuicConfig, QuicConnection, QuicError, QUIC_V1};
use doqlab_netstack::tcp::{TcpFailure, TcpSocket};
use doqlab_netstack::tls::{TlsConfig, TlsStream, TlsVersion};
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};

/// Classify a failed TCP socket for the failure taxonomy: a peer RST
/// (or local abort) is a reset; exhausted retransmissions count as a
/// handshake failure if the 3-way handshake never completed, and a
/// timeout otherwise.
pub(crate) fn classify_tcp_failure(tcp: &TcpSocket) -> Option<FailureKind> {
    Some(match tcp.failure()? {
        TcpFailure::PeerReset | TcpFailure::Aborted => FailureKind::Reset,
        TcpFailure::RetriesExhausted => {
            if tcp.established_at().is_none() {
                FailureKind::HandshakeFail
            } else {
                FailureKind::Timeout
            }
        }
    })
}

/// The failure taxonomy of a TLS-over-TCP connection (DoT, DoH): a TLS
/// error is a handshake failure, anything else is the TCP socket's.
pub(crate) fn tls_failure(stream: &TlsStream) -> Option<FailureKind> {
    if stream.tls().error().is_some() {
        return Some(FailureKind::HandshakeFail);
    }
    classify_tcp_failure(stream.tcp())
}

/// What a TLS-over-TCP connection negotiated.
pub(crate) fn tls_metadata(stream: &TlsStream) -> ConnMetadata {
    let tls = stream.tls();
    ConnMetadata {
        tls13: tls.negotiated_version().map(|v| v == TlsVersion::Tls13),
        zero_rtt: tls.early_data_accepted() == Some(true),
        ..ConnMetadata::default()
    }
}

/// The newest session ticket a TLS-over-TCP connection received since
/// the last call.
pub(crate) fn tls_session(stream: &mut TlsStream) -> SessionState {
    SessionState {
        tls_ticket: stream.tls_mut().take_tickets().pop(),
        ..SessionState::default()
    }
}

/// Classify a dead QUIC connection for the failure taxonomy. `None`
/// while the connection is healthy or the error struck after the
/// session was already established and usable.
fn classify_quic_failure(conn: &QuicConnection) -> Option<FailureKind> {
    match conn.error()? {
        // Path validation fails *after* establishment (a rebind onto an
        // unreachable path); the connection is dead regardless, and
        // what the query experiences is unanswered retransmissions.
        QuicError::PathValidationFailed => Some(FailureKind::Timeout),
        _ if conn.is_established() => None,
        QuicError::IdleTimeout | QuicError::TooManyRetries => Some(FailureKind::Timeout),
        QuicError::HandshakeFailed(_) | QuicError::NoCommonAlpn | QuicError::NoCommonVersion => {
            Some(FailureKind::HandshakeFail)
        }
        QuicError::PeerClosed(_) => Some(FailureKind::Reset),
    }
}

/// The QUIC client connection of DoQ and DoH3, everything but the
/// stream mapping: configuration, the start with resumption material,
/// datagrams in and out, resumption capture, close, rebind, failure
/// and metadata.
///
/// Drive it like a [`TlsStream`]: feed datagrams with
/// [`on_packet`](Self::on_packet), map requests and responses onto the
/// streams of [`ready`](Self::ready) or [`conn_mut`](Self::conn_mut),
/// then [`flush`](Self::flush).
#[derive(Debug)]
pub(crate) struct QuicShell {
    cfg: QuicConfig,
    local: SocketAddr,
    remote: SocketAddr,
    session_in: SessionState,
    conn: Option<QuicConnection>,
    session_out: SessionState,
    /// The presented ticket permits 0-RTT: requests may ride the first
    /// flight.
    early_permitted: bool,
}

impl QuicShell {
    pub(crate) fn new(
        local: SocketAddr,
        remote: SocketAddr,
        cfg: &ClientConfig,
        alpn: Vec<Vec<u8>>,
    ) -> Self {
        let tls = TlsConfig {
            alpn,
            enable_0rtt: ATTEMPT_0RTT,
            ..TlsConfig::default()
        };
        let early_permitted = ATTEMPT_0RTT
            && cfg
                .session
                .tls_ticket
                .as_ref()
                .is_some_and(|t| t.allows_early_data);
        QuicShell {
            cfg: QuicConfig {
                tls,
                ..QuicConfig::default()
            },
            local,
            remote,
            session_in: cfg.session.clone(),
            conn: None,
            session_out: SessionState::default(),
            early_permitted,
        }
    }

    pub(crate) fn start(&mut self, now: SimTime, rng: &mut SimRng) {
        assert!(self.conn.is_none(), "start twice");
        // RFC 9250: tokens should only be used together with Session
        // Resumption (the paper follows this recommendation).
        let token = if self.session_in.tls_ticket.is_some() {
            self.session_in.quic_token.clone()
        } else {
            None
        };
        self.conn = Some(QuicConnection::client(
            self.cfg.clone(),
            self.local,
            self.remote,
            self.session_in.quic_version.unwrap_or(QUIC_V1),
            self.session_in.tls_ticket.clone(),
            token,
            rng,
            now,
        ));
    }

    pub(crate) fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        if let Some(conn) = &mut self.conn {
            conn.handle_datagram(now, &pkt.payload);
        }
    }

    pub(crate) fn conn(&self) -> Option<&QuicConnection> {
        self.conn.as_ref()
    }

    pub(crate) fn conn_mut(&mut self) -> Option<&mut QuicConnection> {
        self.conn.as_mut()
    }

    /// The connection, once requests may go out on it: established, or
    /// resuming with 0-RTT permitted.
    pub(crate) fn ready(&mut self) -> Option<&mut QuicConnection> {
        let early = self.early_permitted;
        self.conn.as_mut().filter(|c| early || c.is_established())
    }

    /// The ticket's ALPN when resuming with 0-RTT: the mapping early
    /// requests use before the handshake negotiates one.
    pub(crate) fn early_alpn(&self) -> Option<&[u8]> {
        if !self.early_permitted {
            return None;
        }
        self.session_in.tls_ticket.as_ref().map(|t| &t.alpn[..])
    }

    /// Capture resumption material once established, and transmit.
    pub(crate) fn flush(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let Some(conn) = &mut self.conn else { return };
        if conn.is_established() {
            for ticket in conn.take_tickets() {
                self.session_out.tls_ticket = Some(ticket);
            }
            if let Some(token) = conn.take_new_token() {
                self.session_out.quic_token = Some(token);
            }
            self.session_out.quic_version = Some(conn.version());
        }
        for dgram in conn.poll_transmit(now) {
            out.push(Packet::udp(self.local, self.remote, dgram));
        }
    }

    /// Close with an application error code (flushed on the next
    /// [`flush`](Self::flush)).
    pub(crate) fn close(&mut self, code: u64) {
        if let Some(conn) = &mut self.conn {
            conn.close(code);
        }
    }

    /// Adopt a new local address and validate the new path.
    pub(crate) fn rebind(&mut self, now: SimTime, new_local: SocketAddr) {
        self.local = new_local;
        if let Some(conn) = &mut self.conn {
            conn.rebind(now, new_local);
        }
    }

    pub(crate) fn next_timeout(&self) -> Option<SimTime> {
        self.conn.as_ref().and_then(|c| c.next_timeout())
    }

    pub(crate) fn handshake_done_at(&self) -> Option<SimTime> {
        self.conn.as_ref().and_then(|c| c.established_at())
    }

    pub(crate) fn failure(&self) -> Option<FailureKind> {
        classify_quic_failure(self.conn.as_ref()?)
    }

    pub(crate) fn session_state(&mut self) -> SessionState {
        std::mem::take(&mut self.session_out)
    }

    pub(crate) fn metadata(&self) -> ConnMetadata {
        let conn = self.conn.as_ref();
        ConnMetadata {
            quic_version: conn.map(|c| c.version()),
            tls13: Some(true), // QUIC mandates TLS 1.3
            resumed: conn.is_some_and(|c| c.is_resumption()),
            zero_rtt: conn.and_then(|c| c.early_data_accepted()).unwrap_or(false),
            ..ConnMetadata::default()
        }
    }
}
