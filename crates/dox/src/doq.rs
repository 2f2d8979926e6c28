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
use crate::carrier::QuicShell;
use crate::client::{ClientConfig, ConnMetadata, DnsClientConn, FailureKind, SessionState};
use doqlab_dnswire::{framing, Message};
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use std::collections::BTreeMap;

/// A DoQ client connection.
#[derive(Debug)]
pub struct DoQClient {
    quic: QuicShell,
    /// Queries waiting for the stream mapping to be known.
    queued: Vec<Message>,
    /// stream id -> (original query id, response bytes so far), in
    /// stream order so responses completing together land in the
    /// order their queries were sent.
    inflight: BTreeMap<u64, (u16, Vec<u8>)>,
    alpn: Option<DoqAlpn>,
    responses: Vec<(SimTime, Message)>,
}

impl DoQClient {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        let alpn = DoqAlpn::all_supported().iter().map(|a| a.wire()).collect();
        DoQClient {
            quic: QuicShell::new(local, remote, cfg, alpn),
            queued: Vec::new(),
            inflight: BTreeMap::new(),
            alpn: None,
            responses: Vec::new(),
        }
    }

    /// The negotiated ALPN, or before the handshake the one a 0-RTT
    /// resumption's ticket implies.
    fn try_resolve_alpn(&mut self) {
        if self.alpn.is_some() {
            return;
        }
        if let Some(wire) = self.quic.conn().and_then(|c| c.negotiated_alpn()) {
            self.alpn = DoqAlpn::from_wire(wire);
            return;
        }
        if let Some(wire) = self.quic.early_alpn() {
            self.alpn = DoqAlpn::from_wire(wire);
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.try_resolve_alpn();
        if let (Some(alpn), Some(conn)) = (self.alpn, self.quic.ready()) {
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
                self.inflight.insert(stream, (orig_id, Vec::new()));
            }
        }
        // Read responses.
        if let Some(conn) = self.quic.conn_mut() {
            let use_prefix = self.alpn.is_some_and(|a| a.uses_length_prefix());
            let responses = &mut self.responses;
            self.inflight.retain(|&stream, (orig_id, buf)| {
                let (data, fin) = conn.stream_recv(stream);
                buf.extend_from_slice(&data);
                let wire = if use_prefix {
                    framing::unframe(buf)
                } else {
                    fin.then_some(&buf[..])
                };
                let Some(wire) = wire else { return true };
                if let Ok(mut msg) = Message::decode(wire) {
                    msg.header.id = *orig_id;
                    responses.push((now, msg));
                }
                false
            });
        }
        self.quic.flush(now, out);
    }
}

impl DnsClientConn for DoQClient {
    fn start(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        self.quic.start(now, rng);
        self.pump(now, out);
    }

    fn query(&mut self, _now: SimTime, msg: &Message) {
        self.queued.push(msg.clone());
    }

    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        self.quic.on_packet(now, pkt);
        self.pump(now, out);
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pump(now, out);
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.quic.next_timeout()
    }

    fn take_responses(&mut self) -> Vec<(SimTime, Message)> {
        std::mem::take(&mut self.responses)
    }

    fn handshake_done_at(&self) -> Option<SimTime> {
        self.quic.handshake_done_at()
    }

    fn failure(&self) -> Option<FailureKind> {
        self.quic.failure()
    }

    fn session_state(&mut self) -> SessionState {
        self.quic.session_state()
    }

    fn close(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.quic.close(0); // DOQ_NO_ERROR
        self.pump(now, out);
    }

    fn rebind(&mut self, now: SimTime, new_local: SocketAddr, out: &mut Vec<Packet>) {
        self.quic.rebind(now, new_local);
        // Flush immediately: the PATH_CHALLENGE probe and any pending
        // retransmissions leave from the new address right away.
        self.pump(now, out);
    }

    fn metadata(&self) -> ConnMetadata {
        ConnMetadata {
            doq_alpn: self.alpn.map(|a| a.to_string()),
            ..self.quic.metadata()
        }
    }
}
