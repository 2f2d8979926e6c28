//! DoH: DNS over HTTPS (RFC 8484) — HTTP/2 POST requests with
//! `application/dns-message` bodies over TLS over TCP, port 443.

use crate::carrier::{tls_failure, tls_metadata, tls_session};
use crate::client::{
    ClientConfig, ConnMetadata, DnsClientConn, FailureKind, SessionState, ATTEMPT_0RTT,
};
use doqlab_dnswire::Message;
use doqlab_netstack::http2::{doh_request_fields, Decimal, H2Connection};
use doqlab_netstack::tls::{TlsConfig, TlsStream};
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};

/// A DoH client connection.
#[derive(Debug)]
pub struct DoHClient {
    stream: TlsStream,
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
}

impl DoHClient {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        let tls_cfg = TlsConfig {
            alpn: vec![b"h2".to_vec()],
            enable_0rtt: ATTEMPT_0RTT,
            ..TlsConfig::default()
        };
        let early_permitted = ATTEMPT_0RTT
            && cfg
                .session
                .tls_ticket
                .as_ref()
                .is_some_and(|t| t.allows_early_data);
        DoHClient {
            stream: TlsStream::new(local, remote, tls_cfg, cfg.session.tls_ticket.clone()),
            h2: H2Connection::client(),
            early_permitted,
            authority: format!("dns-{}.resolver", remote.ip),
            responses: Vec::new(),
            queued: Vec::new(),
            outstanding: 0,
        }
    }

    fn send_request(&mut self, now: SimTime, msg: &Message) {
        let body = msg.encode();
        let length = Decimal::new(body.len());
        let headers = doh_request_fields(&self.authority, length.as_str());
        let stream_id = self.h2.send_request(&headers, &body);
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
        if self.stream.tls().is_connected() && !self.queued.is_empty() {
            for msg in std::mem::take(&mut self.queued) {
                self.send_request(now, &msg);
            }
        }
        self.h2.read_wire(self.stream.read(now).as_slice());
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
        self.stream.write(&self.h2.take_output());
        self.stream.flush(now, out);
    }
}

impl DnsClientConn for DoHClient {
    fn start(&mut self, now: SimTime, _rng: &mut SimRng, out: &mut Vec<Packet>) {
        self.stream.open(now);
        self.pump(now, out);
    }

    fn query(&mut self, now: SimTime, msg: &Message) {
        if self.stream.tls().is_connected() {
            self.send_request(now, msg);
        } else if self.early_permitted && !self.stream.tls_started() {
            // The H2 request bytes join the preface in the TLS engine's
            // pending buffer and ride the ClientHello as 0-RTT early
            // data; a rejection replays them after the handshake.
            self.send_request(now, msg);
        } else {
            self.queued.push(msg.clone());
        }
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
        self.h2.go_away();
        self.stream.close();
        self.pump(now, out);
    }

    fn metadata(&self) -> ConnMetadata {
        tls_metadata(&self.stream)
    }
}
