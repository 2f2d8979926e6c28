//! DoT: DNS over TLS (RFC 7858) — TLS over TCP on port 853, ALPN
//! `dot`, with the RFC 1035 2-byte message framing inside the tunnel.

use crate::carrier::{tls_failure, tls_metadata, tls_session};
use crate::client::{
    ClientConfig, ConnMetadata, DnsClientConn, FailureKind, SessionState, ATTEMPT_0RTT,
};
use doqlab_dnswire::{framing, LengthPrefixedReader, Message};
use doqlab_netstack::tls::{TlsConfig, TlsStream};
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use std::collections::HashSet;

/// A DoT client connection.
#[derive(Debug)]
pub struct DoTClient {
    stream: TlsStream,
    reader: LengthPrefixedReader,
    pending: HashSet<u16>,
    responses: Vec<(SimTime, Message)>,
}

impl DoTClient {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        let tls_cfg = TlsConfig {
            alpn: vec![b"dot".to_vec()],
            enable_0rtt: ATTEMPT_0RTT,
            ..TlsConfig::default()
        };
        DoTClient {
            stream: TlsStream::new(local, remote, tls_cfg, cfg.session.tls_ticket.clone()),
            reader: LengthPrefixedReader::new(),
            pending: HashSet::new(),
            responses: Vec::new(),
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        // TLS app plaintext -> DNS messages.
        self.reader.push(self.stream.read(now).as_slice());
        while let Some(wire) = self.reader.next_message() {
            if let Ok(msg) = Message::decode(wire) {
                if msg.header.response && self.pending.remove(&msg.header.id) {
                    self.responses.push((now, msg));
                }
            }
        }
        self.stream.flush(now, out);
    }
}

impl DnsClientConn for DoTClient {
    fn start(&mut self, now: SimTime, _rng: &mut SimRng, out: &mut Vec<Packet>) {
        self.stream.open(now);
        self.pump(now, out);
    }

    fn query(&mut self, _now: SimTime, msg: &Message) {
        self.pending.insert(msg.header.id);
        // Buffered by the TLS engine until connected (or sent 0-RTT).
        self.stream.write(&framing::frame(&msg.encode()));
    }

    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        self.stream.on_packet(now, pkt);
        self.pump(now, out);
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pump(now, out);
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.stream.next_timeout()
    }

    fn take_responses(&mut self) -> Vec<(SimTime, Message)> {
        std::mem::take(&mut self.responses)
    }

    fn handshake_done_at(&self) -> Option<SimTime> {
        self.stream.tls().connected_at()
    }

    fn failure(&self) -> Option<FailureKind> {
        tls_failure(&self.stream)
    }

    fn session_state(&mut self) -> SessionState {
        tls_session(&mut self.stream)
    }

    fn close(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.stream.close();
        self.pump(now, out);
    }

    fn metadata(&self) -> ConnMetadata {
        tls_metadata(&self.stream)
    }
}
