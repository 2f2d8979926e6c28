//! DoH3: DNS over HTTP/3 (RFC 8484 over RFC 9114) — the paper's §4
//! future work. HTTP/3 runs over QUIC on UDP 443; like DoQ it gets the
//! combined 1-RTT transport+crypto handshake and Session Resumption,
//! but pays HTTP framing and QPACK header overhead per query. The
//! `doh3` regime of `doqlab measure whatif` measures it against the
//! study-era transports.

use crate::carrier::QuicShell;
use crate::client::{ClientConfig, ConnMetadata, DnsClientConn, FailureKind, SessionState};
use doqlab_dnswire::Message;
use doqlab_netstack::http3::{control_stream_preamble, doh3_request, doh3_response, H3Message};
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};
use std::collections::BTreeMap;

/// A DoH3 client connection.
#[derive(Debug)]
pub struct DoH3Client {
    quic: QuicShell,
    authority: String,
    control_sent: bool,
    queued: Vec<Message>,
    /// request stream -> original query id, in stream order so
    /// responses completing together land in the order their queries
    /// were sent.
    inflight: BTreeMap<u64, (u16, Vec<u8>)>,
    responses: Vec<(SimTime, Message)>,
}

impl DoH3Client {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        DoH3Client {
            quic: QuicShell::new(local, remote, cfg, vec![b"h3".to_vec()]),
            authority: format!("dns-{}.resolver", remote.ip),
            control_sent: false,
            queued: Vec::new(),
            inflight: BTreeMap::new(),
            responses: Vec::new(),
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if let Some(conn) = self.quic.ready() {
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
        if let Some(conn) = self.quic.conn_mut() {
            let responses = &mut self.responses;
            self.inflight.retain(|&stream, (orig_id, buf)| {
                let (data, fin) = conn.stream_recv(stream);
                buf.extend_from_slice(&data);
                if !fin {
                    return true;
                }
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
                            responses.push((now, msg));
                        }
                    }
                }
                false
            });
        }
        self.quic.flush(now, out);
    }
}

impl DnsClientConn for DoH3Client {
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
        self.quic.close(0x100); // H3_NO_ERROR
        self.pump(now, out);
    }

    fn rebind(&mut self, now: SimTime, new_local: SocketAddr, out: &mut Vec<Packet>) {
        self.quic.rebind(now, new_local);
        self.pump(now, out);
    }

    fn metadata(&self) -> ConnMetadata {
        self.quic.metadata()
    }
}

/// Server-side helper: build the H3 response bytes for a DNS answer.
pub fn doh3_response_bytes(msg: &Message) -> Vec<u8> {
    let mut resp = msg.clone();
    resp.header.id = 0;
    doh3_response(resp.encode()).encode()
}
