//! The resolver-side server set: all five DNS transports behind one
//! IP, like the 313 verified DoX resolvers of the study.
//!
//! [`DnsServerSet`] owns a UDP responder, TCP and TLS listeners, an
//! HTTP/2 endpoint and one QUIC server per DoQ port, and surfaces
//! decoded queries as [`ServerEvent`]s. The owning host (the resolver
//! in `doqlab-resolver`) answers through [`DnsServerSet::respond`].
//! Feature support — which the paper probes per resolver — is all in
//! [`ServerConfig`].

use crate::alpn::DoqAlpn;
use crate::client::DnsTransport;
use crate::doh::doh_response_parts;
use crate::ports;
use doqlab_dnswire::{framing, EdnsOption, LengthPrefixedReader, Message};
use doqlab_netstack::http2::H2Connection;
use doqlab_netstack::quic::{QuicConfig, QuicServer};
use doqlab_netstack::tcp::{TcpConfig, TcpListener, TcpSegment};
use doqlab_netstack::tls::{TlsConfig, TlsServer, TlsVersion};
use doqlab_simnet::{Duration, Ipv4Addr, Packet, SimTime, SocketAddr, Transport};
use std::collections::HashMap;

/// Per-resolver feature configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub ip: Ipv4Addr,
    /// Identity for TLS tickets and QUIC tokens.
    pub server_id: u64,
    pub supports_udp: bool,
    pub supports_tcp: bool,
    pub supports_dot: bool,
    pub supports_doh: bool,
    pub supports_doq: bool,
    /// TLS versions, preference order (~99% of resolvers: 1.3).
    pub tls_versions: Vec<TlsVersion>,
    /// X.509 chain size; some resolvers exceed the QUIC amplification
    /// budget with theirs.
    pub cert_chain_len: u16,
    /// 0-RTT support (the paper found none).
    pub enable_0rtt: bool,
    /// TCP Fast Open support (the paper found none).
    pub enable_tfo: bool,
    /// edns-tcp-keepalive support (the paper found none).
    pub tcp_keepalive: bool,
    /// Close DoTCP connections right after responding (observed
    /// behaviour without keepalive).
    pub close_tcp_after_response: bool,
    /// QUIC versions, preference order.
    pub quic_versions: Vec<u32>,
    /// DoQ ALPN identifiers this resolver accepts, preference order
    /// (most deployed resolvers in the study: only `doq-i02`).
    pub doq_alpns: Vec<DoqAlpn>,
    /// UDP ports answering DoQ (784 / 853 / 8853).
    pub doq_ports: Vec<u16>,
    /// Demand Retry-based address validation.
    pub retry_required: bool,
    /// Serve DNS over HTTP/3 on UDP 443 (§4 future work; at the time of
    /// the study only Cloudflare deployed it).
    pub supports_doh3: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ip: Ipv4Addr::new(192, 0, 2, 1),
            server_id: 1,
            supports_udp: true,
            supports_tcp: true,
            supports_dot: true,
            supports_doh: true,
            supports_doq: true,
            tls_versions: vec![TlsVersion::Tls13],
            cert_chain_len: 2400,
            enable_0rtt: false,
            enable_tfo: false,
            tcp_keepalive: false,
            close_tcp_after_response: true,
            quic_versions: vec![doqlab_netstack::quic::QUIC_V1],
            doq_alpns: vec![DoqAlpn::Draft(2)],
            doq_ports: vec![ports::DOQ, ports::DOQ_EARLY, ports::DOQ_ALT],
            retry_required: false,
            supports_doh3: false,
        }
    }
}

impl ServerConfig {
    fn tls(&self, alpn: Vec<Vec<u8>>) -> TlsConfig {
        TlsConfig {
            server_id: self.server_id,
            versions: self.tls_versions.clone(),
            alpn,
            cert_chain_len: self.cert_chain_len,
            enable_0rtt: self.enable_0rtt,
            ticket_lifetime: Duration::from_secs(7 * 24 * 3600),
            extra_client_hello_pad: 0,
        }
    }
}

/// Identifies where a query came from, for routing the response back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnKey {
    Udp(SocketAddr),
    Tcp(SocketAddr),
    Dot(SocketAddr),
    Doh(SocketAddr, u32),
    Doq {
        peer: SocketAddr,
        port: u16,
        stream: u64,
    },
    Doh3 {
        peer: SocketAddr,
        stream: u64,
    },
}

/// A decoded query event.
#[derive(Debug, Clone)]
pub struct ServerEvent {
    pub key: ConnKey,
    pub transport: DnsTransport,
    pub query: Message,
    pub received_at: SimTime,
}

#[derive(Debug)]
struct DotConn {
    tls: TlsServer,
    reader: LengthPrefixedReader,
}

#[derive(Debug)]
struct DohConn {
    tls: TlsServer,
    h2: H2Connection,
}

/// All five server endpoints behind one IP.
#[derive(Debug)]
pub struct DnsServerSet {
    cfg: ServerConfig,
    tcp: TcpListener,
    tcp_readers: HashMap<SocketAddr, LengthPrefixedReader>,
    dot: TcpListener,
    dot_conns: HashMap<SocketAddr, DotConn>,
    doh: TcpListener,
    doh_conns: HashMap<SocketAddr, DohConn>,
    doq: Vec<(u16, QuicServer)>,
    doh3: Option<QuicServer>,
    /// Partially received DoH3 request streams.
    doh3_buf: HashMap<(SocketAddr, u64), Vec<u8>>,
    events: Vec<ServerEvent>,
    /// UDP responses waiting for the next poll.
    udp_out: Vec<Packet>,
    /// DoTCP peers to close after their response drains.
    tcp_closing: Vec<SocketAddr>,
}

impl DnsServerSet {
    pub fn new(cfg: ServerConfig) -> Self {
        let tcp_cfg = TcpConfig {
            enable_tfo: cfg.enable_tfo,
            ..TcpConfig::default()
        };
        let doq = cfg
            .doq_ports
            .iter()
            .map(|&port| {
                let quic_cfg = QuicConfig {
                    versions: cfg.quic_versions.clone(),
                    tls: cfg.tls(cfg.doq_alpns.iter().map(|a| a.wire()).collect()),
                    retry_required: cfg.retry_required,
                    ..QuicConfig::default()
                };
                (
                    port,
                    QuicServer::new(SocketAddr::new(cfg.ip, port), quic_cfg),
                )
            })
            .collect();
        let doh3 = cfg.supports_doh3.then(|| {
            let quic_cfg = QuicConfig {
                versions: cfg.quic_versions.clone(),
                tls: cfg.tls(vec![b"h3".to_vec()]),
                retry_required: cfg.retry_required,
                ..QuicConfig::default()
            };
            QuicServer::new(SocketAddr::new(cfg.ip, ports::HTTPS), quic_cfg)
        });
        DnsServerSet {
            tcp: TcpListener::new(SocketAddr::new(cfg.ip, ports::DNS), tcp_cfg.clone()),
            tcp_readers: HashMap::new(),
            dot: TcpListener::new(SocketAddr::new(cfg.ip, ports::DOT), TcpConfig::default()),
            dot_conns: HashMap::new(),
            doh: TcpListener::new(SocketAddr::new(cfg.ip, ports::HTTPS), TcpConfig::default()),
            doh_conns: HashMap::new(),
            doq,
            doh3,
            doh3_buf: HashMap::new(),
            cfg,
            events: Vec::new(),
            udp_out: Vec::new(),
            tcp_closing: Vec::new(),
        }
    }

    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Route an inbound packet to the right endpoint.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        match (pkt.transport, pkt.dst.port) {
            (Transport::Udp, ports::DNS) => {
                if !self.cfg.supports_udp {
                    return;
                }
                if let Ok(query) = Message::decode(&pkt.payload) {
                    if !query.header.response {
                        self.events.push(ServerEvent {
                            key: ConnKey::Udp(pkt.src),
                            transport: DnsTransport::DoUdp,
                            query,
                            received_at: now,
                        });
                    }
                }
            }
            (Transport::Udp, ports::HTTPS) => {
                if let Some(server) = &mut self.doh3 {
                    for (peer, dgram) in server.handle_datagram(now, pkt.src, &pkt.payload) {
                        out.push(Packet::udp(
                            SocketAddr::new(self.cfg.ip, ports::HTTPS),
                            peer,
                            dgram,
                        ));
                    }
                }
            }
            (Transport::Udp, port) if self.cfg.doq_ports.contains(&port) => {
                if !self.cfg.supports_doq {
                    return;
                }
                if let Some((_, server)) = self.doq.iter_mut().find(|(p, _)| *p == port) {
                    for (peer, dgram) in server.handle_datagram(now, pkt.src, &pkt.payload) {
                        out.push(Packet::udp(SocketAddr::new(self.cfg.ip, port), peer, dgram));
                    }
                }
            }
            (Transport::Tcp, ports::DNS) if self.cfg.supports_tcp => {
                if let Some(seg) = TcpSegment::decode(&pkt.payload) {
                    self.tcp.on_segment(now, pkt.src, &seg);
                }
            }
            (Transport::Tcp, ports::DOT) if self.cfg.supports_dot => {
                if let Some(seg) = TcpSegment::decode(&pkt.payload) {
                    self.dot.on_segment(now, pkt.src, &seg);
                }
            }
            (Transport::Tcp, ports::HTTPS) if self.cfg.supports_doh => {
                if let Some(seg) = TcpSegment::decode(&pkt.payload) {
                    self.doh.on_segment(now, pkt.src, &seg);
                }
            }
            _ => {}
        }
        self.pump(now, out);
    }

    /// Run protocol machinery; flush output packets.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pump(now, out);
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        out.append(&mut self.udp_out);

        // --- DoTCP ---
        let mut tcp_events = Vec::new();
        for (&peer, sock) in self.tcp.connections() {
            let data = sock.recv();
            if data.is_empty() {
                continue;
            }
            let reader = self.tcp_readers.entry(peer).or_default();
            reader.push(&data);
            while let Some(wire) = reader.next_message() {
                if let Ok(query) = Message::decode(wire) {
                    if !query.header.response {
                        tcp_events.push(ServerEvent {
                            key: ConnKey::Tcp(peer),
                            transport: DnsTransport::DoTcp,
                            query,
                            received_at: now,
                        });
                    }
                }
            }
        }
        self.events.append(&mut tcp_events);
        // Close DoTCP connections whose response has drained.
        self.tcp_closing
            .retain(|peer| match self.tcp.connection(*peer) {
                Some(sock) if sock.tx_outstanding() == 0 => {
                    sock.close();
                    false
                }
                Some(_) => true,
                None => false,
            });
        for (peer, seg) in self.tcp.poll(now) {
            out.push(Packet::tcp(
                SocketAddr::new(self.cfg.ip, ports::DNS),
                peer,
                seg.encode_payload(),
            ));
        }
        // Pooled clients redial from fresh source ports, so abandoned
        // connections accumulate forever unless reaped (after poll, so
        // owed ACKs are already flushed).
        self.tcp.reap_quiescent();
        if self.tcp_readers.len() > self.tcp.len() {
            let tcp = &self.tcp;
            self.tcp_readers.retain(|peer, _| tcp.contains(*peer));
        }

        // --- DoT ---
        let mut dot_events = Vec::new();
        for (&peer, sock) in self.dot.connections() {
            let conn = self.dot_conns.entry(peer).or_insert_with(|| DotConn {
                tls: TlsServer::new(self.cfg.tls(vec![b"dot".to_vec()])),
                reader: LengthPrefixedReader::new(),
            });
            let data = sock.recv();
            if !data.is_empty() {
                conn.tls.read_wire(now, &data);
            }
            conn.reader.push(&conn.tls.read_early());
            conn.reader.push(conn.tls.read_app().as_slice());
            while let Some(wire) = conn.reader.next_message() {
                if let Ok(query) = Message::decode(wire) {
                    if !query.header.response {
                        dot_events.push(ServerEvent {
                            key: ConnKey::Dot(peer),
                            transport: DnsTransport::DoT,
                            query,
                            received_at: now,
                        });
                    }
                }
            }
            let wire = conn.tls.take_output();
            if !wire.is_empty() {
                sock.send(&wire);
            }
        }
        self.events.append(&mut dot_events);
        for (peer, seg) in self.dot.poll(now) {
            out.push(Packet::tcp(
                SocketAddr::new(self.cfg.ip, ports::DOT),
                peer,
                seg.encode_payload(),
            ));
        }
        self.dot.reap_quiescent();
        if self.dot_conns.len() > self.dot.len() {
            let dot = &self.dot;
            self.dot_conns.retain(|peer, _| dot.contains(*peer));
        }

        // --- DoH ---
        let mut doh_events = Vec::new();
        for (&peer, sock) in self.doh.connections() {
            let conn = self.doh_conns.entry(peer).or_insert_with(|| DohConn {
                tls: TlsServer::new(self.cfg.tls(vec![b"h2".to_vec()])),
                h2: H2Connection::server(),
            });
            let data = sock.recv();
            if !data.is_empty() {
                conn.tls.read_wire(now, &data);
            }
            conn.h2.read_wire(&conn.tls.read_early());
            conn.h2.read_wire(conn.tls.read_app().as_slice());
            for req in conn.h2.take_messages() {
                if let Ok(query) = Message::decode(&req.body) {
                    if !query.header.response {
                        doh_events.push(ServerEvent {
                            key: ConnKey::Doh(peer, req.stream_id),
                            transport: DnsTransport::DoH,
                            query,
                            received_at: now,
                        });
                    }
                }
            }
            let h2_out = conn.h2.take_output();
            if !h2_out.is_empty() {
                conn.tls.write_app(&h2_out);
            }
            let wire = conn.tls.take_output();
            if !wire.is_empty() {
                sock.send(&wire);
            }
        }
        self.events.append(&mut doh_events);
        for (peer, seg) in self.doh.poll(now) {
            out.push(Packet::tcp(
                SocketAddr::new(self.cfg.ip, ports::HTTPS),
                peer,
                seg.encode_payload(),
            ));
        }
        self.doh.reap_quiescent();
        if self.doh_conns.len() > self.doh.len() {
            let doh = &self.doh;
            self.doh_conns.retain(|peer, _| doh.contains(*peer));
        }

        // --- DoQ ---
        let mut doq_events = Vec::new();
        for (port, server) in &mut self.doq {
            for (&peer, conn) in server.connections() {
                let alpn = conn
                    .negotiated_alpn()
                    .and_then(DoqAlpn::from_wire)
                    .unwrap_or(DoqAlpn::Rfc9250);
                for stream in conn.take_new_peer_streams() {
                    let (data, fin) = conn.stream_recv(stream);
                    // Queries are small: they arrive in one frame in this
                    // simulation (one datagram covers any DNS query).
                    let mut r = LengthPrefixedReader::new();
                    let wire = if alpn.uses_length_prefix() {
                        r.push(&data);
                        r.next_message()
                    } else if fin {
                        Some(&data[..])
                    } else {
                        None
                    };
                    if let Some(wire) = wire {
                        if let Ok(query) = Message::decode(wire) {
                            if !query.header.response {
                                doq_events.push(ServerEvent {
                                    key: ConnKey::Doq {
                                        peer,
                                        port: *port,
                                        stream,
                                    },
                                    transport: DnsTransport::DoQ,
                                    query,
                                    received_at: now,
                                });
                            }
                        }
                    }
                }
            }
            for (peer, dgram) in server.poll_transmit(now) {
                out.push(Packet::udp(
                    SocketAddr::new(self.cfg.ip, *port),
                    peer,
                    dgram,
                ));
            }
            // Long-lived hosts see many connections per peer (pooled
            // clients redial after evictions); drained ones must not
            // accumulate.
            server.reap();
        }
        self.events.append(&mut doq_events);

        // --- DoH3 (future work) ---
        if let Some(server) = &mut self.doh3 {
            let mut doh3_events = Vec::new();
            for (&peer, conn) in server.connections() {
                for stream in conn.take_new_peer_streams() {
                    // Unidirectional peer streams (control/QPACK) are
                    // consumed and ignored; requests are client bidi.
                    self.doh3_buf.entry((peer, stream)).or_default();
                }
                let streams: Vec<u64> = self
                    .doh3_buf
                    .keys()
                    .filter(|(p, _)| *p == peer)
                    .map(|(_, s)| *s)
                    .collect();
                for stream in streams {
                    let (data, fin) = conn.stream_recv(stream);
                    let buf = self.doh3_buf.get_mut(&(peer, stream)).expect("listed");
                    buf.extend_from_slice(&data);
                    let is_request = stream % 4 == 0; // client bidi
                    if fin && is_request {
                        if let Some(req) = doqlab_netstack::http3::H3Message::decode(buf) {
                            if let Ok(query) = Message::decode(&req.body) {
                                if !query.header.response {
                                    doh3_events.push(ServerEvent {
                                        key: ConnKey::Doh3 { peer, stream },
                                        transport: DnsTransport::DoH3,
                                        query,
                                        received_at: now,
                                    });
                                }
                            }
                        }
                        self.doh3_buf.remove(&(peer, stream));
                    }
                }
            }
            for (peer, dgram) in server.poll_transmit(now) {
                out.push(Packet::udp(
                    SocketAddr::new(self.cfg.ip, ports::HTTPS),
                    peer,
                    dgram,
                ));
            }
            self.events.append(&mut doh3_events);
        }

        // RFC 6891 §6.1.3: a query asking for an EDNS version we do not
        // implement gets BADVERS straight back instead of being handed
        // to the resolver for a normal answer. Applies uniformly to
        // every transport, so the check sits after all of them.
        let bad: Vec<ServerEvent> = {
            let (bad, ok) = std::mem::take(&mut self.events)
                .into_iter()
                .partition(|ev| ev.query.edns_version().is_some_and(|v| v != 0));
            self.events = ok;
            bad
        };
        if !bad.is_empty() {
            for ev in bad {
                let resp = Message::badvers_response_to(&ev.query);
                self.respond(now, ev.key, &resp);
            }
            // Re-pump once so responses written into transport sockets
            // above are flushed now rather than on the next inbound
            // packet. Terminates: the offending events are consumed.
            self.pump(now, out);
        }
    }

    /// Decoded queries since the last call.
    pub fn take_queries(&mut self) -> Vec<ServerEvent> {
        std::mem::take(&mut self.events)
    }

    /// Send a response back on the connection a query arrived on.
    pub fn respond(&mut self, now: SimTime, key: ConnKey, msg: &Message) {
        match key {
            ConnKey::Udp(peer) => {
                self.udp_out.push(Packet::udp(
                    SocketAddr::new(self.cfg.ip, ports::DNS),
                    peer,
                    msg.encode(),
                ));
            }
            ConnKey::Tcp(peer) => {
                if let Some(sock) = self.tcp.connection(peer) {
                    let mut msg = msg.clone();
                    if self.cfg.tcp_keepalive {
                        // RFC 7828: advertise an idle timeout (in units
                        // of 100 ms) so the client holds the connection.
                        // Merge into any OPT already on the response —
                        // replacing it wholesale would clobber fields
                        // like a BADVERS extended_rcode.
                        let mut opt = msg.opt().unwrap_or_default();
                        if opt.tcp_keepalive().is_none() {
                            opt.options.push(EdnsOption::TcpKeepalive(Some(300)));
                        }
                        msg.additionals
                            .retain(|rr| rr.rtype != doqlab_dnswire::RecordType::Opt);
                        msg.additionals.push(opt.to_record());
                    }
                    sock.send(&framing::frame(&msg.encode()));
                    if self.cfg.close_tcp_after_response && !self.cfg.tcp_keepalive {
                        self.tcp_closing.push(peer);
                    }
                }
            }
            ConnKey::Dot(peer) => {
                if let Some(conn) = self.dot_conns.get_mut(&peer) {
                    conn.tls.write_app(&framing::frame(&msg.encode()));
                }
            }
            ConnKey::Doh(peer, stream) => {
                if let Some(conn) = self.doh_conns.get_mut(&peer) {
                    let (headers, body) = doh_response_parts(msg);
                    let refs: Vec<(&str, &str)> = headers
                        .iter()
                        .map(|(n, v)| (n.as_str(), v.as_str()))
                        .collect();
                    conn.h2.send_response(stream, &refs, &body);
                }
            }
            ConnKey::Doh3 { peer, stream } => {
                if let Some(server) = &mut self.doh3 {
                    if let Some(conn) = server.connection(peer) {
                        let bytes = crate::doh3::doh3_response_bytes(msg);
                        conn.stream_send(stream, &bytes, true);
                    }
                }
            }
            ConnKey::Doq { peer, port, stream } => {
                if let Some((_, server)) = self.doq.iter_mut().find(|(p, _)| *p == port) {
                    if let Some(conn) = server.connection(peer) {
                        let mut resp = msg.clone();
                        resp.header.id = 0; // RFC 9250
                        let alpn = conn
                            .negotiated_alpn()
                            .and_then(DoqAlpn::from_wire)
                            .unwrap_or(DoqAlpn::Rfc9250);
                        let wire = resp.encode();
                        let payload = if alpn.uses_length_prefix() {
                            framing::frame(&wire)
                        } else {
                            wire
                        };
                        conn.stream_send(stream, &payload, true);
                    }
                }
            }
        }
        let _ = now;
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        let mut t = self.tcp.next_timeout();
        for cand in [self.dot.next_timeout(), self.doh.next_timeout()] {
            t = match (t, cand) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        for (_, s) in &self.doq {
            t = match (t, s.next_timeout()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        if let Some(s) = &self.doh3 {
            t = match (t, s.next_timeout()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        t
    }
}
