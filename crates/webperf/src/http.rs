//! The browser-side HTTPS (HTTP/2 over TLS over TCP) client
//! connection, one per origin, multiplexing all of that origin's
//! resource fetches — like Chromium does.

use doqlab_netstack::http2::H2Connection;
use doqlab_netstack::tls::{TlsConfig, TlsStream};
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
    stream: TlsStream,
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
            stream: TlsStream::new(local, remote, tls_cfg, None),
            h2: H2Connection::client(),
            authority: authority.to_string(),
            queued: Vec::new(),
            by_stream: HashMap::new(),
            completed: Vec::new(),
        }
    }

    pub fn local(&self) -> SocketAddr {
        self.stream.tcp().local
    }

    pub fn start(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.stream.open(now);
        self.pump(now, out);
    }

    /// Fetch `path` for `resource_id`; sent once the connection is up.
    pub fn request(&mut self, resource_id: usize, path: &str) {
        if self.stream.tls().is_connected() {
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
        self.stream.on_packet(now, pkt);
        self.pump(now, out);
    }

    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pump(now, out);
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if self.stream.tls().is_connected() && !self.queued.is_empty() {
            for (id, path) in std::mem::take(&mut self.queued) {
                self.send_get(id, &path);
            }
        }
        self.h2.read_wire(self.stream.read(now).as_slice());
        for msg in self.h2.take_messages() {
            if let Some(id) = self.by_stream.remove(&msg.stream_id) {
                self.completed.push(FetchDone {
                    resource_id: id,
                    at: now,
                    body_len: msg.body.len(),
                });
            }
        }
        self.stream.write(&self.h2.take_output());
        self.stream.flush(now, out);
    }

    pub fn take_completed(&mut self) -> Vec<FetchDone> {
        std::mem::take(&mut self.completed)
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.stream.next_timeout()
    }

    pub fn failed(&self) -> bool {
        self.stream.failed()
    }
}
