//! The resolver-side server set: all five DNS transports behind one
//! IP, like the 313 verified DoX resolvers of the study.
//!
//! [`DnsServerSet`] owns a UDP responder, a TCP listener, TLS listeners
//! for DoT and DoH, and QUIC servers for DoQ (one per port) and DoH3,
//! and surfaces decoded queries as [`ServerEvent`]s. Each listener and
//! QUIC server keeps its connections' DNS state (framing reader, HTTP/2
//! endpoint, unfinished request streams) beside the connections, so
//! reaping a connection drops its state too. The owning host (the
//! resolver in `doqlab-resolver`) answers through
//! [`DnsServerSet::respond`]. Feature support — which the paper probes
//! per resolver — is all in [`ServerConfig`].

use crate::alpn::DoqAlpn;
use crate::client::DnsTransport;
use crate::ports;
use doqlab_dnswire::{framing, EdnsOption, LengthPrefixedReader, Message};
use doqlab_netstack::http2::{doh_response_fields, Decimal, H2Connection};
use doqlab_netstack::http3::H3Message;
use doqlab_netstack::quic::{QuicConfig, QuicConnection, QuicServer};
use doqlab_netstack::tcp::{TcpConfig, TcpListener};
use doqlab_netstack::tls::{TlsConfig, TlsListener, TlsVersion};
use doqlab_simnet::{Duration, Ipv4Addr, Packet, SimTime, SocketAddr, Transport};
use std::collections::BTreeMap;

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

/// How DNS rides a QUIC server's request streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuicMapping {
    Doq,
    Doh3,
}

impl QuicMapping {
    /// Decode a request stream holding `buf` (`fin`: the client
    /// finished it). `None` while more bytes may complete it; once it
    /// is complete, or finished incomplete, the query it carries, if
    /// any.
    fn request(self, conn: &QuicConnection, buf: &[u8], fin: bool) -> Option<Option<Message>> {
        let decode = |wire: &[u8]| Message::decode(wire).ok();
        match self {
            QuicMapping::Doq if doq_alpn(conn).uses_length_prefix() => {
                match framing::unframe(buf) {
                    Some(wire) => Some(decode(wire)),
                    None if fin => Some(None),
                    None => None,
                }
            }
            QuicMapping::Doq if fin => Some(decode(buf)),
            QuicMapping::Doh3 if fin => Some(H3Message::decode(buf).and_then(|r| decode(&r.body))),
            _ => None,
        }
    }

    fn key(self, peer: SocketAddr, port: u16, stream: u64) -> (ConnKey, DnsTransport) {
        match self {
            QuicMapping::Doq => (ConnKey::Doq { peer, port, stream }, DnsTransport::DoQ),
            QuicMapping::Doh3 => (ConnKey::Doh3 { peer, stream }, DnsTransport::DoH3),
        }
    }
}

/// The DoQ stream mapping a connection negotiated.
fn doq_alpn(conn: &QuicConnection) -> DoqAlpn {
    conn.negotiated_alpn()
        .and_then(DoqAlpn::from_wire)
        .unwrap_or(DoqAlpn::Rfc9250)
}

/// A QUIC server and the mapping it serves. Beside each connection it
/// keeps the request streams still waiting for their last bytes, in
/// stream order, with the bytes received so far.
#[derive(Debug)]
struct QuicEndpoint {
    mapping: QuicMapping,
    server: QuicServer<BTreeMap<u64, Vec<u8>>>,
}

/// All five server endpoints behind one IP.
#[derive(Debug)]
pub struct DnsServerSet {
    cfg: ServerConfig,
    /// DoTCP, with each connection's framing reader.
    tcp: TcpListener<LengthPrefixedReader>,
    dot: TlsListener<LengthPrefixedReader>,
    doh: TlsListener<H2Connection>,
    /// DoQ on each of its ports, then DoH3.
    quic: Vec<QuicEndpoint>,
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
        let quic = |port: u16, mapping: QuicMapping, alpn: Vec<Vec<u8>>| {
            let quic_cfg = QuicConfig {
                versions: cfg.quic_versions.clone(),
                tls: cfg.tls(alpn),
                retry_required: cfg.retry_required,
                ..QuicConfig::default()
            };
            QuicEndpoint {
                mapping,
                server: QuicServer::with_state(SocketAddr::new(cfg.ip, port), quic_cfg),
            }
        };
        let doq = cfg.doq_ports.iter().map(|&port| {
            let alpn = cfg.doq_alpns.iter().map(|a| a.wire()).collect();
            quic(port, QuicMapping::Doq, alpn)
        });
        let doh3 = cfg
            .supports_doh3
            .then(|| quic(ports::HTTPS, QuicMapping::Doh3, vec![b"h3".to_vec()]));
        let quic = doq.chain(doh3).collect();
        let at = |port| SocketAddr::new(cfg.ip, port);
        DnsServerSet {
            tcp: TcpListener::new(at(ports::DNS), tcp_cfg),
            dot: TlsListener::new(at(ports::DOT)),
            doh: TlsListener::new(at(ports::HTTPS)),
            quic,
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
                self.quic_datagram(now, pkt, QuicMapping::Doh3, out);
            }
            (Transport::Udp, port) if self.cfg.doq_ports.contains(&port) => {
                if !self.cfg.supports_doq {
                    return;
                }
                self.quic_datagram(now, pkt, QuicMapping::Doq, out);
            }
            (Transport::Tcp, ports::DNS) if self.cfg.supports_tcp => {
                self.tcp.on_packet(now, pkt, LengthPrefixedReader::new);
            }
            (Transport::Tcp, ports::DOT) if self.cfg.supports_dot => {
                let cfg = &self.cfg;
                self.dot.on_packet(now, pkt, || {
                    (cfg.tls(vec![b"dot".to_vec()]), LengthPrefixedReader::new())
                });
            }
            (Transport::Tcp, ports::HTTPS) if self.cfg.supports_doh => {
                let cfg = &self.cfg;
                self.doh.on_packet(now, pkt, || {
                    (cfg.tls(vec![b"h2".to_vec()]), H2Connection::server())
                });
            }
            _ => {}
        }
        self.pump(now, out);
    }

    /// The QUIC server serving `mapping` on `port`.
    fn quic_server(
        &mut self,
        mapping: QuicMapping,
        port: u16,
    ) -> Option<&mut QuicServer<BTreeMap<u64, Vec<u8>>>> {
        self.quic
            .iter_mut()
            .find(|ep| ep.mapping == mapping && ep.server.local.port == port)
            .map(|ep| &mut ep.server)
    }

    /// Hand a datagram to its QUIC server, sending any stateless reply
    /// (Version Negotiation, Retry) at once.
    fn quic_datagram(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        mapping: QuicMapping,
        out: &mut Vec<Packet>,
    ) {
        if let Some(server) = self.quic_server(mapping, pkt.dst.port) {
            for (peer, dgram) in server.handle_datagram(now, pkt.src, &pkt.payload) {
                out.push(Packet::udp(server.local, peer, dgram));
            }
        }
    }

    /// Run protocol machinery; flush output packets.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pump(now, out);
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        out.append(&mut self.udp_out);
        let events = &mut self.events;
        let mut push = |(key, transport), query: Message| {
            if !query.header.response {
                events.push(ServerEvent {
                    key,
                    transport,
                    query,
                    received_at: now,
                });
            }
        };

        // --- DoTCP ---
        for (peer, sock, reader) in self.tcp.connections() {
            let data = sock.recv();
            if data.as_slice().is_empty() {
                continue;
            }
            reader.push(data.as_slice());
            while let Some(wire) = reader.next_message() {
                if let Ok(query) = Message::decode(wire) {
                    push((ConnKey::Tcp(peer), DnsTransport::DoTcp), query);
                }
            }
        }
        // Close DoTCP connections whose response has drained.
        let tcp = &mut self.tcp;
        self.tcp_closing.retain(|peer| match tcp.connection(*peer) {
            Some((sock, _)) if sock.tx_outstanding() == 0 => {
                sock.close();
                false
            }
            Some(_) => true,
            None => false,
        });
        self.tcp.transmit(now, out);
        // Pooled clients redial from fresh source ports, so abandoned
        // connections accumulate forever unless reaped (after the
        // transmit, so owed ACKs are already flushed).
        self.tcp.reap_quiescent();

        // --- DoT ---
        self.dot.pump(now, out, |peer, session| {
            session.read(|reader, data| reader.push(data));
            while let Some(wire) = session.app.next_message() {
                if let Ok(query) = Message::decode(wire) {
                    push((ConnKey::Dot(peer), DnsTransport::DoT), query);
                }
            }
        });
        self.dot.reap_quiescent();

        // --- DoH ---
        self.doh.pump(now, out, |peer, session| {
            session.read(|h2, data| h2.read_wire(data));
            for req in session.app.take_messages() {
                if let Ok(query) = Message::decode(&req.body) {
                    push(
                        (ConnKey::Doh(peer, req.stream_id), DnsTransport::DoH),
                        query,
                    );
                }
            }
            let h2_out = session.app.take_output();
            session.write(&h2_out);
        });
        self.doh.reap_quiescent();

        // --- DoQ, DoH3 ---
        for QuicEndpoint { mapping, server } in &mut self.quic {
            let (mapping, port) = (*mapping, server.local.port);
            for (peer, conn, waiting) in server.connections() {
                let mut serve = |stream, query: Option<Message>| {
                    if let Some(query) = query {
                        push(mapping.key(peer, port, stream), query);
                    }
                };
                waiting.retain(|&stream, buf| {
                    let (data, fin) = conn.stream_recv(stream);
                    buf.extend_from_slice(&data);
                    let done = mapping.request(conn, buf, fin);
                    let waits = done.is_none();
                    if let Some(query) = done {
                        serve(stream, query);
                    }
                    waits
                });
                // Requests ride client-initiated bidirectional streams;
                // HTTP/3 control and QPACK streams are left unread.
                for stream in conn.take_new_peer_streams() {
                    if stream % 4 != 0 {
                        continue;
                    }
                    let (data, fin) = conn.stream_recv(stream);
                    match mapping.request(conn, &data, fin) {
                        Some(query) => serve(stream, query),
                        None => {
                            waiting.insert(stream, data);
                        }
                    }
                }
            }
            let local = server.local;
            for (peer, dgram) in server.poll_transmit(now) {
                out.push(Packet::udp(local, peer, dgram));
            }
            // Long-lived hosts see many connections per peer (pooled
            // clients redial after evictions); drained ones must not
            // accumulate.
            server.reap();
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
                if let Some((sock, _)) = self.tcp.connection(peer) {
                    let mut msg = msg.clone();
                    if self.cfg.tcp_keepalive {
                        // RFC 7828: advertise an idle timeout (in units
                        // of 100 ms) so the client holds the connection.
                        msg.merge_edns_option(EdnsOption::TcpKeepalive(Some(300)));
                    }
                    sock.send(&framing::frame(&msg.encode()));
                    if self.cfg.close_tcp_after_response && !self.cfg.tcp_keepalive {
                        self.tcp_closing.push(peer);
                    }
                }
            }
            ConnKey::Dot(peer) => {
                if let Some(session) = self.dot.session(peer) {
                    session.write(&framing::frame(&msg.encode()));
                }
            }
            ConnKey::Doh(peer, stream) => {
                if let Some(session) = self.doh.session(peer) {
                    let body = msg.encode();
                    let length = Decimal::new(body.len());
                    let headers = doh_response_fields(length.as_str());
                    session.app.send_response(stream, &headers, &body);
                }
            }
            ConnKey::Doh3 { peer, stream } => {
                let server = self.quic_server(QuicMapping::Doh3, ports::HTTPS);
                if let Some(conn) = server.and_then(|s| s.connection(peer)) {
                    let bytes = crate::doh3::doh3_response_bytes(msg);
                    conn.stream_send(stream, &bytes, true);
                }
            }
            ConnKey::Doq { peer, port, stream } => {
                let server = self.quic_server(QuicMapping::Doq, port);
                if let Some(conn) = server.and_then(|s| s.connection(peer)) {
                    let mut resp = msg.clone();
                    resp.header.id = 0; // RFC 9250
                    let wire = resp.encode();
                    let payload = if doq_alpn(conn).uses_length_prefix() {
                        framing::frame(&wire)
                    } else {
                        wire
                    };
                    conn.stream_send(stream, &payload, true);
                }
            }
        }
        let _ = now;
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        [
            self.tcp.next_timeout(),
            self.dot.next_timeout(),
            self.doh.next_timeout(),
        ]
        .into_iter()
        .chain(self.quic.iter().map(|ep| ep.server.next_timeout()))
        .flatten()
        .min()
    }
}
