//! DoH: DNS over HTTPS (RFC 8484) — HTTP/2 POST requests with
//! `application/dns-message` bodies over TLS over TCP, port 443.

use crate::client::{ClientConfig, ConnMetadata, DnsClientConn, FailureKind, SessionState};
use crate::tcp::{classify_tcp_failure, segments_to_packets};
use doqlab_dnswire::Message;
use doqlab_netstack::http2::{doh_request_headers, doh_response_headers, H2Connection};
use doqlab_netstack::tcp::{TcpConfig, TcpSegment, TcpSocket};
use doqlab_netstack::tls::{TlsClient, TlsConfig};
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};

/// A DoH client connection.
#[derive(Debug)]
pub struct DoHClient {
    tcp: TcpSocket,
    tls: TlsClient,
    tls_started: bool,
    h2: H2Connection,
    authority: String,
    responses: Vec<(SimTime, Message)>,
    /// The presented ticket permits 0-RTT: requests issued before the
    /// handshake ride the first flight as early data instead of
    /// queueing (rejects replay after the handshake).
    early_permitted: bool,
    /// Queries issued before the connection was usable.
    queued: Vec<Message>,
    outstanding: usize,
    session_out: SessionState,
}

impl DoHClient {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        let tls_cfg = TlsConfig {
            alpn: vec![b"h2".to_vec()],
            enable_0rtt: cfg.enable_0rtt,
            ..TlsConfig::default()
        };
        let early_permitted = cfg.enable_0rtt
            && cfg
                .session
                .tls_ticket
                .as_ref()
                .is_some_and(|t| t.allows_early_data);
        DoHClient {
            tcp: TcpSocket::client(local, remote, 0, TcpConfig::default()),
            tls: TlsClient::new(tls_cfg, cfg.session.tls_ticket.clone()),
            tls_started: false,
            h2: H2Connection::client(),
            early_permitted,
            authority: format!("dns-{}.resolver", remote.ip),
            responses: Vec::new(),
            queued: Vec::new(),
            outstanding: 0,
            session_out: SessionState::default(),
        }
    }

    fn send_request(&mut self, now: SimTime, msg: &Message) {
        let body = msg.encode();
        let headers = doh_request_headers(&self.authority, body.len());
        let header_refs: Vec<(&str, &str)> = headers
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        let stream_id = self.h2.send_request(&header_refs, &body);
        sink::emit(now.as_nanos(), || Event::HttpRequestSent {
            protocol: "h2",
            stream_id: stream_id as u64,
        });
        metrics::count(Counter::HttpRequestsSent, 1);
        self.outstanding += 1;
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        // Flush queued queries once TLS is up (HTTP/2 bytes themselves
        // ride as TLS application data, including 0-RTT).
        if self.tls.is_connected() && !self.queued.is_empty() {
            for msg in std::mem::take(&mut self.queued) {
                self.send_request(now, &msg);
            }
        }
        // TCP -> TLS -> HTTP/2.
        let data = self.tcp.recv();
        if !data.is_empty() {
            self.tls.read_wire(now, &data);
        }
        self.h2.read_wire(self.tls.read_app().as_slice());
        for m in self.h2.take_messages() {
            let status = m
                .header(":status")
                .and_then(|s| s.parse::<u32>().ok())
                .unwrap_or(0);
            let stream_id = m.stream_id as u64;
            sink::emit(now.as_nanos(), || Event::HttpResponseReceived {
                protocol: "h2",
                stream_id,
                status,
            });
            metrics::count(Counter::HttpResponsesReceived, 1);
            if status == 200 {
                if let Ok(msg) = Message::decode(&m.body) {
                    self.outstanding = self.outstanding.saturating_sub(1);
                    self.responses.push((now, msg));
                }
            }
        }
        for ticket in self.tls.take_tickets() {
            self.session_out.tls_ticket = Some(ticket);
        }
        // HTTP/2 -> TLS -> TCP.
        let h2_out = self.h2.take_output();
        if !h2_out.is_empty() {
            self.tls.write_app(&h2_out);
        }
        // A dying socket (closed by the resilience layer, or reset) no
        // longer accepts data; drop the TLS output rather than
        // asserting.
        let wire = self.tls.take_output();
        if !wire.is_empty() && self.tcp.can_send() {
            self.tcp.send(&wire);
        }
        let (local, remote) = (self.tcp.local, self.tcp.remote);
        segments_to_packets(local, remote, self.tcp.poll(now), out);
    }
}

impl DnsClientConn for DoHClient {
    fn start(&mut self, now: SimTime, _rng: &mut SimRng, out: &mut Vec<Packet>) {
        self.tcp.open(now);
        self.pump(now, out);
    }

    fn query(&mut self, now: SimTime, msg: &Message) {
        if self.tls.is_connected() {
            self.send_request(now, msg);
        } else if self.early_permitted && !self.tls_started {
            // The H2 request bytes join the preface in the TLS engine's
            // pending buffer and ride the ClientHello as 0-RTT early
            // data; a rejection replays them after the handshake.
            self.send_request(now, msg);
        } else {
            self.queued.push(msg.clone());
        }
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
        self.h2.go_away();
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

/// Build the HTTP/2 response for a DoH query (server side helper).
pub fn doh_response_parts(msg: &Message) -> (Vec<(String, String)>, Vec<u8>) {
    let body = msg.encode();
    (doh_response_headers(body.len()), body)
}
