//! DoQ: DNS over Dedicated QUIC Connections (RFC 9250).
//!
//! Each query is one client-initiated bidirectional stream; the DNS
//! message ID is zero on the wire and correlation happens by stream.
//! ALPN decides the stream mapping: `doq-i03`+ and `doq` prefix each
//! message with a 2-byte length, earlier drafts place the bare message
//! on the stream. Session Resumption, address-validation tokens and
//! remembered QUIC versions ride in via [`SessionState`], following the
//! RFC 9250 recommendation the paper implements (tokens only together
//! with resumption).

use crate::alpn::DoqAlpn;
use crate::client::{ClientConfig, ConnMetadata, DnsClientConn, FailureKind, SessionState};
use doqlab_dnswire::{framing, LengthPrefixedReader, Message};
use doqlab_netstack::quic::{QuicConfig, QuicConnection, QuicError, QUIC_V1};
use doqlab_netstack::tls::TlsConfig;
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use std::collections::BTreeMap;

/// Classify a dead QUIC connection for the failure taxonomy. `None`
/// while the connection is healthy or the error struck after the
/// session was already established and usable. Shared by DoQ and DoH3.
pub(crate) fn classify_quic_failure(conn: &QuicConnection) -> Option<FailureKind> {
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

/// A DoQ client connection.
#[derive(Debug)]
pub struct DoQClient {
    quic_cfg: QuicConfig,
    local: SocketAddr,
    remote: SocketAddr,
    initial_version: u32,
    session_in: SessionState,
    conn: Option<QuicConnection>,
    /// Queries waiting for the stream mapping to be known.
    queued: Vec<Message>,
    /// stream id -> (original query id, response reassembly), in
    /// stream order so responses completing together land in the
    /// order their queries were sent.
    inflight: BTreeMap<u64, (u16, LengthPrefixedReader, Vec<u8>)>,
    alpn: Option<DoqAlpn>,
    responses: Vec<(SimTime, Message)>,
    session_out: SessionState,
    early_permitted: bool,
}

impl DoQClient {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        let tls = TlsConfig {
            alpn: DoqAlpn::all_supported().iter().map(|a| a.wire()).collect(),
            enable_0rtt: cfg.enable_0rtt,
            ..TlsConfig::default()
        };
        let early_permitted = cfg.enable_0rtt
            && cfg
                .session
                .tls_ticket
                .as_ref()
                .is_some_and(|t| t.allows_early_data);
        DoQClient {
            quic_cfg: QuicConfig {
                tls,
                ..QuicConfig::default()
            },
            local,
            remote,
            initial_version: cfg.session.quic_version.unwrap_or(QUIC_V1),
            session_in: cfg.session.clone(),
            conn: None,
            queued: Vec::new(),
            inflight: BTreeMap::new(),
            alpn: None,
            responses: Vec::new(),
            session_out: SessionState::default(),
            early_permitted,
        }
    }

    /// Negotiated (or, pre-handshake, ticket-implied) ALPN.
    pub fn doq_alpn(&self) -> Option<DoqAlpn> {
        self.alpn
    }

    fn try_resolve_alpn(&mut self) {
        if self.alpn.is_some() {
            return;
        }
        if let Some(conn) = &self.conn {
            if let Some(wire) = conn.negotiated_alpn() {
                self.alpn = DoqAlpn::from_wire(wire);
                return;
            }
        }
        if self.early_permitted {
            // Resuming with 0-RTT: the mapping is the ticket's ALPN.
            if let Some(t) = &self.session_in.tls_ticket {
                self.alpn = DoqAlpn::from_wire(&t.alpn);
            }
        }
    }

    fn flush_queries(&mut self) {
        let Some(alpn) = self.alpn else { return };
        let Some(conn) = &mut self.conn else { return };
        for mut msg in std::mem::take(&mut self.queued) {
            let orig_id = msg.header.id;
            msg.header.id = 0; // RFC 9250 §4.2.1
            let wire = msg.encode();
            let payload = if alpn.uses_length_prefix() {
                framing::frame(&wire)
            } else {
                wire
            };
            let stream = conn.open_bi();
            conn.stream_send(stream, &payload, true);
            self.inflight
                .insert(stream, (orig_id, LengthPrefixedReader::new(), Vec::new()));
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.try_resolve_alpn();
        if self.conn.as_ref().is_some_and(|c| c.is_established()) || self.early_permitted {
            self.flush_queries();
        }
        let Some(conn) = &mut self.conn else { return };
        // Read responses.
        let mut done = Vec::new();
        for (&stream, (orig_id, reader, raw)) in self.inflight.iter_mut() {
            let (data, fin) = conn.stream_recv(stream);
            let use_prefix = self.alpn.is_some_and(|a| a.uses_length_prefix());
            if use_prefix {
                reader.push(&data);
                if let Some(wire) = reader.next_message() {
                    if let Ok(mut msg) = Message::decode(&wire) {
                        msg.header.id = *orig_id;
                        self.responses.push((now, msg));
                        done.push(stream);
                    }
                }
            } else {
                raw.extend_from_slice(&data);
                if fin {
                    if let Ok(mut msg) = Message::decode(raw) {
                        msg.header.id = *orig_id;
                        self.responses.push((now, msg));
                    }
                    done.push(stream);
                }
            }
        }
        for s in done {
            self.inflight.remove(&s);
        }
        // Capture resumption material.
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
}

impl DnsClientConn for DoQClient {
    fn start(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        assert!(self.conn.is_none(), "start twice");
        // RFC 9250: tokens should only be used together with Session
        // Resumption (the paper follows this recommendation).
        let token = if self.session_in.tls_ticket.is_some() {
            self.session_in.quic_token.clone()
        } else {
            None
        };
        self.conn = Some(QuicConnection::client(
            self.quic_cfg.clone(),
            self.local,
            self.remote,
            self.initial_version,
            self.session_in.tls_ticket.clone(),
            token,
            rng,
            now,
        ));
        self.pump(now, out);
    }

    fn query(&mut self, now: SimTime, msg: &Message) {
        self.queued.push(msg.clone());
        let _ = now;
    }

    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        if let Some(conn) = &mut self.conn {
            conn.handle_datagram(now, &pkt.payload);
        }
        self.pump(now, out);
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pump(now, out);
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.conn.as_ref().and_then(|c| c.next_timeout())
    }

    fn take_responses(&mut self) -> Vec<(SimTime, Message)> {
        std::mem::take(&mut self.responses)
    }

    fn handshake_done_at(&self) -> Option<SimTime> {
        self.conn.as_ref().and_then(|c| c.established_at())
    }

    fn failed(&self) -> bool {
        self.failure().is_some()
    }

    fn failure(&self) -> Option<FailureKind> {
        classify_quic_failure(self.conn.as_ref()?)
    }

    fn session_state(&mut self) -> SessionState {
        std::mem::take(&mut self.session_out)
    }

    fn close(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if let Some(conn) = &mut self.conn {
            // DOQ_NO_ERROR (0x0).
            conn.close(0);
        }
        self.pump(now, out);
    }

    fn rebind(&mut self, now: SimTime, new_local: SocketAddr, out: &mut Vec<Packet>) {
        self.local = new_local;
        if let Some(conn) = &mut self.conn {
            conn.rebind(now, new_local);
        }
        // Flush immediately: the PATH_CHALLENGE probe and any pending
        // retransmissions leave from the new address right away.
        self.pump(now, out);
    }

    fn metadata(&self) -> ConnMetadata {
        ConnMetadata {
            quic_version: self.conn.as_ref().map(|c| c.version()),
            doq_alpn: self.alpn.map(|a| a.to_string()),
            tls13: Some(true), // QUIC mandates TLS 1.3
            resumed: self.conn.as_ref().is_some_and(|c| c.is_resumption()),
            zero_rtt: self
                .conn
                .as_ref()
                .and_then(|c| c.early_data_accepted())
                .unwrap_or(false),
        }
    }
}

impl DoQClient {
    /// Number of version-negotiation round trips this connection paid.
    pub fn vn_round_trips(&self) -> u32 {
        self.conn.as_ref().map_or(0, |c| c.vn_round_trips)
    }

    /// Negotiated QUIC version.
    pub fn quic_version(&self) -> Option<u32> {
        self.conn.as_ref().map(|c| c.version())
    }
}
