//! DoTCP: DNS over TCP (RFC 7766 / RFC 9210).
//!
//! The paper finds that no resolver supports TFO or
//! `edns-tcp-keepalive`, and that in practice a fresh connection is
//! made per query — so every DoTCP query costs two round trips (TCP
//! handshake + query). Both the keepalive request and TFO are
//! implemented and configurable so the recommended behaviour can be
//! measured as an ablation.

use crate::client::{ClientConfig, DnsClientConn, FailureKind, SessionState};
use doqlab_dnswire::{framing, EdnsOption, LengthPrefixedReader, Message, RecordType};
use doqlab_netstack::tcp::{TcpConfig, TcpFailure, TcpSegment, TcpSocket};
use doqlab_simnet::{Packet, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use std::collections::HashSet;

/// Classify a failed TCP socket for the failure taxonomy: a peer RST
/// (or local abort) is a reset; exhausted retransmissions count as a
/// handshake failure if the 3-way handshake never completed, and a
/// timeout otherwise. Shared by DoTCP, DoT and DoH.
pub(crate) fn classify_tcp_failure(tcp: &TcpSocket) -> Option<FailureKind> {
    Some(match tcp.failure()? {
        TcpFailure::PeerReset | TcpFailure::Aborted => FailureKind::Reset,
        TcpFailure::RetriesExhausted => {
            if tcp.established_at().is_none() {
                FailureKind::HandshakeFail
            } else {
                FailureKind::Timeout
            }
        }
    })
}

/// Convert TCP segments to simulator packets.
pub(crate) fn segments_to_packets(
    local: SocketAddr,
    remote: SocketAddr,
    segs: Vec<TcpSegment>,
    out: &mut Vec<Packet>,
) {
    for seg in segs {
        out.push(Packet::tcp(local, remote, seg.encode_payload()));
    }
}

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
                tcp.set_tfo_cookie(cookie.clone());
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
        let data = self.tcp.recv();
        if !data.is_empty() {
            self.reader.push(&data);
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
        }
        let (local, remote) = (self.tcp.local, self.tcp.remote);
        segments_to_packets(local, remote, self.tcp.poll(now), out);
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
            // timeout, merged into the query's OPT record.
            let mut opt = msg.opt().unwrap_or_default();
            if opt.tcp_keepalive().is_none() {
                opt.options.push(EdnsOption::TcpKeepalive(None));
            }
            msg.additionals.retain(|rr| rr.rtype != RecordType::Opt);
            msg.additionals.push(opt.to_record());
        }
        self.tcp.send(&framing::frame(&msg.encode()));
    }

    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        if let Some(seg) = TcpSegment::decode(&pkt.payload) {
            self.tcp.on_segment(now, &seg);
        }
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

    fn failed(&self) -> bool {
        self.tcp.is_reset()
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
    use doqlab_netstack::tcp::TcpListener;
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
                if let Some(seg) = TcpSegment::decode(&pkt.payload) {
                    listener.on_segment(now, client_addr, &seg);
                }
            }
            // Server DNS logic: respond to any framed query.
            if let Some(conn) = listener.connection(client_addr) {
                let data = conn.recv();
                if !data.is_empty() {
                    let mut reader = LengthPrefixedReader::new();
                    reader.push(&data);
                    while let Some(wire) = reader.next_message() {
                        let q = Message::decode(wire).unwrap();
                        let mut resp = Message::response_to(&q, vec![]);
                        // Grant keepalive when the client asked (RFC
                        // 7828): 120 units of 100 ms.
                        if q.opt().is_some_and(|o| o.tcp_keepalive().is_some()) {
                            let mut opt = resp.opt().unwrap_or_default();
                            opt.options.push(EdnsOption::TcpKeepalive(Some(120)));
                            resp.additionals.retain(|rr| rr.rtype != RecordType::Opt);
                            resp.additionals.push(opt.to_record());
                        }
                        conn.send(&framing::frame(&resp.encode()));
                    }
                }
            }
            // Deliver server -> client.
            now += doqlab_simnet::Duration::from_millis(5);
            let mut segs = Vec::new();
            for (_, seg) in listener.poll(now) {
                segs.push(seg);
            }
            let mut done = segs.is_empty();
            for seg in segs {
                let pkt = Packet::tcp(sa(2, 53), client_addr, seg.encode_payload());
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
