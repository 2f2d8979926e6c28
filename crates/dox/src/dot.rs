//! DoT: DNS over TLS (RFC 7858) — TLS over TCP on port 853, ALPN
//! `dot`, with the RFC 1035 2-byte message framing inside the tunnel.

use crate::client::{ClientConfig, ConnMetadata, DnsClientConn, FailureKind, SessionState};
use crate::tcp::{classify_tcp_failure, segments_to_packets};
use doqlab_dnswire::{framing, LengthPrefixedReader, Message};
use doqlab_netstack::tcp::{TcpConfig, TcpSegment, TcpSocket};
use doqlab_netstack::tls::{TlsClient, TlsConfig};
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use std::collections::HashSet;

/// A DoT client connection.
#[derive(Debug)]
pub struct DoTClient {
    tcp: TcpSocket,
    tls: TlsClient,
    tls_started: bool,
    reader: LengthPrefixedReader,
    pending: HashSet<u16>,
    responses: Vec<(SimTime, Message)>,
    session_out: SessionState,
}

impl DoTClient {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        let tls_cfg = TlsConfig {
            alpn: vec![b"dot".to_vec()],
            enable_0rtt: cfg.enable_0rtt,
            ..TlsConfig::default()
        };
        DoTClient {
            tcp: TcpSocket::client(local, remote, 0, TcpConfig::default()),
            tls: TlsClient::new(tls_cfg, cfg.session.tls_ticket.clone()),
            tls_started: false,
            reader: LengthPrefixedReader::new(),
            pending: HashSet::new(),
            responses: Vec::new(),
            session_out: SessionState::default(),
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        // TCP -> TLS.
        let data = self.tcp.recv();
        if !data.is_empty() {
            self.tls.read_wire(now, &data);
        }
        // TLS app plaintext -> DNS messages.
        self.reader.push(self.tls.read_app().as_slice());
        while let Some(wire) = self.reader.next_message() {
            if let Ok(msg) = Message::decode(wire) {
                if msg.header.response && self.pending.remove(&msg.header.id) {
                    self.responses.push((now, msg));
                }
            }
        }
        for ticket in self.tls.take_tickets() {
            self.session_out.tls_ticket = Some(ticket);
        }
        // TLS -> TCP. A dying socket (closed by the resilience layer,
        // or reset) no longer accepts data; drop the TLS output rather
        // than asserting.
        let wire = self.tls.take_output();
        if !wire.is_empty() && self.tcp.can_send() {
            self.tcp.send(&wire);
        }
        let (local, remote) = (self.tcp.local, self.tcp.remote);
        segments_to_packets(local, remote, self.tcp.poll(now), out);
    }
}

impl DnsClientConn for DoTClient {
    fn start(&mut self, now: SimTime, _rng: &mut SimRng, out: &mut Vec<Packet>) {
        self.tcp.open(now);
        self.pump(now, out);
    }

    fn query(&mut self, _now: SimTime, msg: &Message) {
        self.pending.insert(msg.header.id);
        // Buffered by the TLS engine until connected (or sent 0-RTT).
        self.tls.write_app(&framing::frame(&msg.encode()));
    }

    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        if let Some(seg) = TcpSegment::decode(&pkt.payload) {
            self.tcp.on_segment(now, &seg);
        }
        if self.tcp.is_established() && !self.tls_started {
            self.tls_started = true;
            self.tls.start(now);
        }
        self.pump(now, out);
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if self.tcp.is_established() && !self.tls_started {
            self.tls_started = true;
            self.tls.start(now);
        }
        self.pump(now, out);
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.tcp.next_timeout()
    }

    fn take_responses(&mut self) -> Vec<(SimTime, Message)> {
        std::mem::take(&mut self.responses)
    }

    fn handshake_done_at(&self) -> Option<SimTime> {
        self.tls.connected_at()
    }

    fn failed(&self) -> bool {
        self.tcp.is_reset() || self.tls.error().is_some()
    }

    fn failure(&self) -> Option<FailureKind> {
        if self.tls.error().is_some() {
            return Some(FailureKind::HandshakeFail);
        }
        classify_tcp_failure(&self.tcp)
    }

    fn session_state(&mut self) -> SessionState {
        std::mem::take(&mut self.session_out)
    }

    fn close(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.tcp.close();
        self.pump(now, out);
    }

    fn metadata(&self) -> ConnMetadata {
        ConnMetadata {
            tls13: self
                .tls
                .negotiated_version()
                .map(|v| v == doqlab_netstack::tls::TlsVersion::Tls13),
            zero_rtt: self.tls.early_data_accepted() == Some(true),
            ..ConnMetadata::default()
        }
    }
}

/// True while a query is outstanding on this connection — the state
/// that triggers the dnsproxy DoT reconnect bug the paper found.
impl DoTClient {
    pub fn has_inflight_query(&self) -> bool {
        !self.pending.is_empty()
    }

    pub fn is_connected(&self) -> bool {
        self.tls.is_connected()
    }
}
