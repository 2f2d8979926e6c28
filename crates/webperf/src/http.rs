//! The browser-side HTTPS (HTTP/2 over TLS over TCP) client
//! connection, one per origin, multiplexing all of that origin's
//! resource fetches — like Chromium does.

use doqlab_netstack::http2::H2Connection;
use doqlab_netstack::tcp::{TcpConfig, TcpSegment, TcpSocket};
use doqlab_netstack::tls::{TlsClient, TlsConfig};
use doqlab_simnet::{Packet, SimTime, SocketAddr};
use std::collections::HashMap;

/// A completed fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchDone {
    pub resource_id: usize,
    pub at: SimTime,
    pub body_len: usize,
}

/// One origin connection.
#[derive(Debug)]
pub struct HttpsClientConn {
    tcp: TcpSocket,
    tls: TlsClient,
    tls_started: bool,
    h2: H2Connection,
    authority: String,
    queued: Vec<(usize, String)>,
    by_stream: HashMap<u32, usize>,
    completed: Vec<FetchDone>,
}

impl HttpsClientConn {
    pub fn new(local: SocketAddr, remote: SocketAddr, authority: &str) -> Self {
        let tls_cfg = TlsConfig {
            alpn: vec![b"h2".to_vec()],
            ..TlsConfig::default()
        };
        HttpsClientConn {
            tcp: TcpSocket::client(local, remote, 0, TcpConfig::default()),
            tls: TlsClient::new(tls_cfg, None),
            tls_started: false,
            h2: H2Connection::client(),
            authority: authority.to_string(),
            queued: Vec::new(),
            by_stream: HashMap::new(),
            completed: Vec::new(),
        }
    }

    pub fn local(&self) -> SocketAddr {
        self.tcp.local
    }

    pub fn start(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.tcp.open(now);
        self.pump(now, out);
    }

    /// Fetch `path` for `resource_id`; sent once the connection is up.
    pub fn request(&mut self, resource_id: usize, path: &str) {
        if self.tls.is_connected() {
            self.send_get(resource_id, path);
        } else {
            self.queued.push((resource_id, path.to_string()));
        }
    }

    fn send_get(&mut self, resource_id: usize, path: &str) {
        let headers = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", self.authority.as_str()),
            (":path", path),
            ("accept", "*/*"),
            ("accept-encoding", "gzip, deflate, br"),
            ("user-agent", "doqlab-chromium/100.0"),
        ];
        let stream = self.h2.send_request(&headers, b"");
        self.by_stream.insert(stream, resource_id);
    }

    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        if let Some(seg) = TcpSegment::decode(&pkt.payload) {
            self.tcp.on_segment(now, &seg);
        }
        self.pump(now, out);
    }

    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pump(now, out);
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if self.tcp.is_established() && !self.tls_started {
            self.tls_started = true;
            self.tls.start(now);
        }
        if self.tls.is_connected() && !self.queued.is_empty() {
            for (id, path) in std::mem::take(&mut self.queued) {
                self.send_get(id, &path);
            }
        }
        let data = self.tcp.recv();
        if !data.is_empty() {
            self.tls.read_wire(now, &data);
        }
        self.h2.read_wire(self.tls.read_app().as_slice());
        for msg in self.h2.take_messages() {
            if let Some(id) = self.by_stream.remove(&msg.stream_id) {
                self.completed.push(FetchDone {
                    resource_id: id,
                    at: now,
                    body_len: msg.body.len(),
                });
            }
        }
        let h2_out = self.h2.take_output();
        if !h2_out.is_empty() {
            self.tls.write_app(&h2_out);
        }
        let wire = self.tls.take_output();
        if !wire.is_empty() {
            self.tcp.send(&wire);
        }
        for seg in self.tcp.poll(now) {
            out.push(Packet::tcp(
                self.tcp.local,
                self.tcp.remote,
                seg.encode_payload(),
            ));
        }
    }

    pub fn take_completed(&mut self) -> Vec<FetchDone> {
        std::mem::take(&mut self.completed)
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.tcp.next_timeout()
    }

    pub fn failed(&self) -> bool {
        self.tcp.is_reset() || self.tls.error().is_some()
    }
}
