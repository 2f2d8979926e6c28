//! DoH3: DNS over HTTP/3 (RFC 8484 over RFC 9114) — the paper's §4
//! future work. HTTP/3 runs over QUIC on UDP 443; like DoQ it gets the
//! combined 1-RTT transport+crypto handshake and Session Resumption,
//! but pays HTTP framing and QPACK header overhead per query. The
//! `doh3` regime of `doqlab measure whatif` measures it against the
//! study-era transports.

use crate::client::{ClientConfig, ConnMetadata, DnsClientConn, FailureKind, SessionState};
use crate::doq::classify_quic_failure;
use doqlab_dnswire::Message;
use doqlab_netstack::http3::{control_stream_preamble, doh3_request, doh3_response, H3Message};
use doqlab_netstack::quic::{QuicConfig, QuicConnection, QUIC_V1};
use doqlab_netstack::tls::TlsConfig;
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};
use std::collections::BTreeMap;

/// A DoH3 client connection.
#[derive(Debug)]
pub struct DoH3Client {
    quic_cfg: QuicConfig,
    local: SocketAddr,
    remote: SocketAddr,
    initial_version: u32,
    session_in: SessionState,
    authority: String,
    conn: Option<QuicConnection>,
    control_sent: bool,
    queued: Vec<Message>,
    /// request stream -> original query id, in stream order so
    /// responses completing together land in the order their queries
    /// were sent.
    inflight: BTreeMap<u64, (u16, Vec<u8>)>,
    responses: Vec<(SimTime, Message)>,
    session_out: SessionState,
    early_permitted: bool,
}

impl DoH3Client {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        let tls = TlsConfig {
            alpn: vec![b"h3".to_vec()],
            enable_0rtt: cfg.enable_0rtt,
            ..TlsConfig::default()
        };
        let early_permitted = cfg.enable_0rtt
            && cfg
                .session
                .tls_ticket
                .as_ref()
                .is_some_and(|t| t.allows_early_data);
        DoH3Client {
            quic_cfg: QuicConfig {
                tls,
                ..QuicConfig::default()
            },
            local,
            remote,
            initial_version: cfg.session.quic_version.unwrap_or(QUIC_V1),
            session_in: cfg.session.clone(),
            authority: format!("dns-{}.resolver", remote.ip),
            conn: None,
            control_sent: false,
            queued: Vec::new(),
            inflight: BTreeMap::new(),
            responses: Vec::new(),
            session_out: SessionState::default(),
            early_permitted,
        }
    }

    fn flush_queries(&mut self, now: SimTime) {
        let Some(conn) = &mut self.conn else { return };
        if !(conn.is_established() || self.early_permitted) {
            return;
        }
        if !self.control_sent {
            self.control_sent = true;
            let control = conn.open_uni();
            conn.stream_send(control, &control_stream_preamble(), false);
        }
        for mut msg in std::mem::take(&mut self.queued) {
            let orig_id = msg.header.id;
            msg.header.id = 0; // cache-friendly, like DoH (RFC 8484 §4.1)
            let request = doh3_request(&self.authority, msg.encode());
            let stream = conn.open_bi();
            conn.stream_send(stream, &request.encode(), true);
            sink::emit(now.as_nanos(), || Event::HttpRequestSent {
                protocol: "h3",
                stream_id: stream,
            });
            metrics::count(Counter::HttpRequestsSent, 1);
            self.inflight.insert(stream, (orig_id, Vec::new()));
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.flush_queries(now);
        let Some(conn) = &mut self.conn else { return };
        let mut done = Vec::new();
        for (&stream, (orig_id, buf)) in self.inflight.iter_mut() {
            let (data, fin) = conn.stream_recv(stream);
            buf.extend_from_slice(&data);
            if fin {
                if let Some(h3) = H3Message::decode(buf) {
                    let status = h3
                        .header(":status")
                        .and_then(|s| s.parse::<u32>().ok())
                        .unwrap_or(0);
                    sink::emit(now.as_nanos(), || Event::HttpResponseReceived {
                        protocol: "h3",
                        stream_id: stream,
                        status,
                    });
                    metrics::count(Counter::HttpResponsesReceived, 1);
                    if status == 200 {
                        if let Ok(mut msg) = Message::decode(&h3.body) {
                            msg.header.id = *orig_id;
                            self.responses.push((now, msg));
                        }
                    }
                }
                done.push(stream);
            }
        }
        for s in done {
            self.inflight.remove(&s);
        }
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

impl DnsClientConn for DoH3Client {
    fn start(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        assert!(self.conn.is_none(), "start twice");
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

    fn query(&mut self, _now: SimTime, msg: &Message) {
        self.queued.push(msg.clone());
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
            conn.close(0x100); // H3_NO_ERROR
        }
        self.pump(now, out);
    }

    fn rebind(&mut self, now: SimTime, new_local: SocketAddr, out: &mut Vec<Packet>) {
        self.local = new_local;
        if let Some(conn) = &mut self.conn {
            conn.rebind(now, new_local);
        }
        self.pump(now, out);
    }

    fn metadata(&self) -> ConnMetadata {
        ConnMetadata {
            quic_version: self.conn.as_ref().map(|c| c.version()),
            tls13: Some(true),
            resumed: self.conn.as_ref().is_some_and(|c| c.is_resumption()),
            zero_rtt: self
                .conn
                .as_ref()
                .and_then(|c| c.early_data_accepted())
                .unwrap_or(false),
            ..ConnMetadata::default()
        }
    }
}

/// Server-side helper: build the H3 response bytes for a DNS answer.
pub fn doh3_response_bytes(msg: &Message) -> Vec<u8> {
    let mut resp = msg.clone();
    resp.header.id = 0;
    doh3_response(resp.encode()).encode()
}
