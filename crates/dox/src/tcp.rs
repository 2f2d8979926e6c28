//! DoTCP: DNS over TCP (RFC 7766 / RFC 9210).
//!
//! The paper finds that no resolver supports TFO or
//! `edns-tcp-keepalive`, and that in practice a fresh connection is
//! made per query — so every DoTCP query costs two round trips (TCP
//! handshake + query). Both the keepalive request and TFO are
//! implemented and configurable so the recommended behaviour can be
//! measured as an ablation.

use crate::carrier::classify_tcp_failure;
use crate::client::{ClientConfig, DnsClientConn, FailureKind, SessionState};
use doqlab_dnswire::{framing, EdnsOption, LengthPrefixedReader, Message};
use doqlab_netstack::tcp::{TcpConfig, TcpSocket};
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use std::collections::HashSet;

/// A DoTCP client connection.
#[derive(Debug)]
pub struct DoTcpClient {
    tcp: TcpSocket,
    reader: LengthPrefixedReader,
    pending: HashSet<u16>,
    responses: Vec<(SimTime, Message)>,
    started: bool,
    /// RFC 7828: ask the server to hold the connection open.
    request_keepalive: bool,
    /// Timeout the server answered with (units of 100 ms), once seen.
    keepalive: Option<u16>,
}

impl DoTcpClient {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        let tcp_cfg = TcpConfig {
            enable_tfo: cfg.enable_tfo,
            ..TcpConfig::default()
        };
        // ISS is assigned at start() from the shared RNG.
        let mut tcp = TcpSocket::client(local, remote, 0, tcp_cfg);
        if cfg.enable_tfo {
            // A cookie from an earlier connection to this resolver lets
            // the first query ride the SYN (RFC 7413).
            if let Some(cookie) = &cfg.session.tfo_cookie {
                tcp.set_tfo_cookie(cookie);
            }
        }
        DoTcpClient {
            tcp,
            reader: LengthPrefixedReader::new(),
            pending: HashSet::new(),
            responses: Vec::new(),
            started: false,
            request_keepalive: cfg.request_tcp_keepalive,
            keepalive: None,
        }
    }

    /// The edns-tcp-keepalive idle timeout the server granted, if any.
    pub fn keepalive_timeout(&self) -> Option<std::time::Duration> {
        self.keepalive
            .map(|t| std::time::Duration::from_millis(t as u64 * 100))
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        // Every complete message is drained below, so pushing nothing
        // finds nothing new.
        self.reader.push(self.tcp.recv().as_slice());
        while let Some(wire) = self.reader.next_message() {
            if let Ok(msg) = Message::decode(wire) {
                if msg.header.response && self.pending.remove(&msg.header.id) {
                    if self.keepalive.is_none() {
                        let granted = msg.opt().and_then(|o| match o.tcp_keepalive() {
                            Some(EdnsOption::TcpKeepalive(Some(t))) => Some(*t),
                            _ => None,
                        });
                        if let Some(t) = granted {
                            // The resolver honors RFC 7828: keep the
                            // connection instead of redialing per
                            // query. Counted once per connection.
                            self.keepalive = Some(t);
                            metrics::count(Counter::KeepaliveHonored, 1);
                        }
                    }
                    self.responses.push((now, msg));
                }
            }
        }
        self.tcp.transmit(now, out);
    }
}

impl DnsClientConn for DoTcpClient {
    fn start(&mut self, now: SimTime, _rng: &mut SimRng, out: &mut Vec<Packet>) {
        assert!(!self.started, "start twice");
        self.started = true;
        self.tcp.open(now);
        self.pump(now, out);
    }

    fn query(&mut self, _now: SimTime, msg: &Message) {
        self.pending.insert(msg.header.id);
        let mut msg = msg.clone();
        if self.request_keepalive {
            // RFC 7828 §3.2.1: the client sends the option with no
            // timeout.
            msg.merge_edns_option(EdnsOption::TcpKeepalive(None));
        }
        self.tcp.send(&framing::frame(&msg.encode()));
    }

    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        self.tcp.on_packet(now, pkt);
        self.pump(now, out);
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pump(now, out);
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.tcp.next_timeout()
    }

    fn take_responses(&mut self) -> Vec<(SimTime, Message)> {
        std::mem::take(&mut self.responses)
    }

    fn handshake_done_at(&self) -> Option<SimTime> {
        self.tcp.established_at()
    }

    fn failure(&self) -> Option<FailureKind> {
        classify_tcp_failure(&self.tcp)
    }

    fn session_state(&mut self) -> SessionState {
        SessionState {
            tfo_cookie: self.tcp.tfo_cookie().map(|c| c.to_vec()),
            ..SessionState::default()
        }
    }

    fn close(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.tcp.close();
        self.pump(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doqlab_dnswire::{Name, RecordType};
    use doqlab_netstack::tcp::{TcpListener, TcpSegment};
    use doqlab_simnet::Ipv4Addr;

    fn sa(h: u8, p: u16) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), p)
    }

    /// Minimal DoTCP echo server on a listener.
    fn drive(client: &mut DoTcpClient, listener: &mut TcpListener) -> Vec<(SimTime, Message)> {
        let mut rng = SimRng::new(9);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        client.start(now, &mut rng, &mut out);
        let client_addr = client.tcp.local;
        for _ in 0..200 {
            // Deliver client -> server.
            let to_server = std::mem::take(&mut out);
            now += doqlab_simnet::Duration::from_millis(5);
            for pkt in to_server {
                listener.on_packet(now, &pkt, || ());
            }
            // Server DNS logic: respond to any framed query.
            if let Some((conn, _)) = listener.connection(client_addr) {
                let data = conn.recv().collect::<Vec<_>>();
                if !data.is_empty() {
                    let mut reader = LengthPrefixedReader::new();
                    reader.push(&data);
                    while let Some(wire) = reader.next_message() {
                        let q = Message::decode(wire).unwrap();
                        let mut resp = Message::response_to(&q, vec![]);
                        // Grant keepalive when the client asked (RFC
                        // 7828): 120 units of 100 ms.
                        if q.opt().is_some_and(|o| o.tcp_keepalive().is_some()) {
                            resp.merge_edns_option(EdnsOption::TcpKeepalive(Some(120)));
                        }
                        conn.send(&framing::frame(&resp.encode()));
                    }
                }
            }
            // Deliver server -> client.
            now += doqlab_simnet::Duration::from_millis(5);
            let mut to_client = Vec::new();
            listener.transmit(now, &mut to_client);
            let mut done = to_client.is_empty();
            for pkt in to_client {
                client.on_packet(now, &pkt, &mut out);
            }
            client.poll(now, &mut out);
            let responses = client.take_responses();
            if !responses.is_empty() {
                return responses;
            }
            done &= out.is_empty();
            if done {
                break;
            }
        }
        Vec::new()
    }

    #[test]
    fn query_response_over_tcp() {
        let mut client = DoTcpClient::new(sa(1, 40000), sa(2, 53), &ClientConfig::default());
        let q = Message::query(7, Name::parse("google.com").unwrap(), RecordType::A);
        client.query(SimTime::ZERO, &q);
        let mut listener = TcpListener::new(sa(2, 53), TcpConfig::default());
        let responses = drive(&mut client, &mut listener);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].1.header.id, 7);
        assert!(client.handshake_done_at().is_some());
    }

    #[test]
    fn keepalive_request_rides_the_query_and_grant_is_captured() {
        let cfg = ClientConfig {
            request_tcp_keepalive: true,
            ..ClientConfig::default()
        };
        let mut client = DoTcpClient::new(sa(1, 40000), sa(2, 53), &cfg);
        let q = Message::query(7, Name::parse("google.com").unwrap(), RecordType::A);
        client.query(SimTime::ZERO, &q);
        let mut listener = TcpListener::new(sa(2, 53), TcpConfig::default());
        let responses = drive(&mut client, &mut listener);
        assert_eq!(responses.len(), 1);
        // The server granted 120 * 100 ms = 12 s.
        assert_eq!(
            client.keepalive_timeout(),
            Some(std::time::Duration::from_secs(12))
        );
    }

    #[test]
    fn no_keepalive_request_no_grant() {
        let mut client = DoTcpClient::new(sa(1, 40000), sa(2, 53), &ClientConfig::default());
        let q = Message::query(7, Name::parse("google.com").unwrap(), RecordType::A);
        client.query(SimTime::ZERO, &q);
        let mut listener = TcpListener::new(sa(2, 53), TcpConfig::default());
        drive(&mut client, &mut listener);
        assert_eq!(client.keepalive_timeout(), None);
    }

    #[test]
    fn tfo_cookie_carries_to_the_next_connection_via_session_state() {
        let tfo_cfg = ClientConfig {
            enable_tfo: true,
            ..ClientConfig::default()
        };
        let server_cfg = TcpConfig {
            enable_tfo: true,
            ..TcpConfig::default()
        };
        // First connection requests a cookie; the query cannot ride the
        // SYN yet.
        let mut client = DoTcpClient::new(sa(1, 40000), sa(2, 53), &tfo_cfg);
        let q = Message::query(7, Name::parse("google.com").unwrap(), RecordType::A);
        client.query(SimTime::ZERO, &q);
        let mut listener = TcpListener::new(sa(2, 53), server_cfg);
        let responses = drive(&mut client, &mut listener);
        assert_eq!(responses.len(), 1);
        let session = client.session_state();
        assert!(session.tfo_cookie.is_some(), "cookie captured");

        // Second connection presents the cookie: SYN carries the query.
        let cfg2 = ClientConfig { session, ..tfo_cfg };
        let mut client2 = DoTcpClient::new(sa(1, 40001), sa(2, 53), &cfg2);
        client2.query(SimTime::ZERO, &q);
        let mut rng = SimRng::new(9);
        let mut out = Vec::new();
        client2.start(SimTime::ZERO, &mut rng, &mut out);
        let seg = TcpSegment::decode(&out[0].payload).unwrap();
        assert!(seg.flags.syn);
        assert!(!seg.payload.is_empty(), "query rides the SYN");
    }

    #[test]
    fn handshake_takes_one_rtt_before_query_flows() {
        let mut client = DoTcpClient::new(sa(1, 40000), sa(2, 53), &ClientConfig::default());
        let q = Message::query(7, Name::parse("google.com").unwrap(), RecordType::A);
        client.query(SimTime::ZERO, &q);
        let mut rng = SimRng::new(9);
        let mut out = Vec::new();
        client.start(SimTime::ZERO, &mut rng, &mut out);
        // Only the SYN goes out: the query waits for the handshake.
        assert_eq!(out.len(), 1);
        let seg = TcpSegment::decode(&out[0].payload).unwrap();
        assert!(seg.flags.syn);
        assert!(seg.payload.is_empty());
    }
}
