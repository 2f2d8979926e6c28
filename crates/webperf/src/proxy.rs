//! The local DNS proxy (the paper's instrumented AdGuard dnsproxy).
//!
//! Runs inside the browser host (the paper runs it on the same EC2
//! instance as Chromium), forwards every stub query to one upstream
//! resolver over the configured DoX transport, has **no cache** (the
//! methodology disables it), keeps resumption material across session
//! resets, and reproduces the connection-handling behaviour §3.2
//! documents:
//!
//! * DoUDP: one socket;
//! * DoTCP: a fresh connection per query (no resolver honours
//!   keepalive, so each query pays the full 2 RTT);
//! * DoT: one persistent connection — **but** when a query is already
//!   in flight and a new one arrives, the unpatched dnsproxy opens
//!   another full connection instead of reusing ([`DnsProxy::dot_bug`];
//!   the paper measured this hitting ~60% of page loads and upstreamed
//!   a fix, which `dot_bug = false` models);
//! * DoH / DoQ: one persistent multiplexed connection.

use doqlab_dnswire::{Message, Name, RData, Rcode, RecordType};
use doqlab_dox::{make_client, ClientConfig, DnsClientConn, DnsTransport, SessionState};
use doqlab_simnet::{Ipv4Addr, Packet, SimRng, SimTime, SocketAddr};
use std::collections::HashMap;

struct ProxyConn {
    conn: Box<dyn DnsClientConn>,
    port: u16,
    started: bool,
    inflight: usize,
}

/// The proxy component.
pub struct DnsProxy {
    client_ip: Ipv4Addr,
    upstream: SocketAddr,
    transport: DnsTransport,
    base_cfg: ClientConfig,
    /// Resumption material persisted across session resets — exactly
    /// what the paper's instrumentation stores between the cache-warming
    /// and measurement navigations.
    pub session: SessionState,
    /// Reproduce the dnsproxy DoT reconnect bug.
    pub dot_bug: bool,
    conns: Vec<ProxyConn>,
    next_qid: u16,
    next_port: u16,
    pending: HashMap<u16, String>,
    resolved: Vec<(String, Option<Ipv4Addr>)>,
    /// Number of upstream connections opened (bug observability).
    pub connections_opened: u32,
    pub queries_sent: u32,
}

impl DnsProxy {
    pub fn new(
        client_ip: Ipv4Addr,
        upstream: SocketAddr,
        transport: DnsTransport,
        base_cfg: ClientConfig,
        dot_bug: bool,
    ) -> Self {
        DnsProxy {
            client_ip,
            upstream,
            transport,
            session: base_cfg.session.clone(),
            base_cfg,
            dot_bug,
            conns: Vec::new(),
            next_qid: 1,
            next_port: 42_000,
            pending: HashMap::new(),
            resolved: Vec::new(),
            connections_opened: 0,
            queries_sent: 0,
        }
    }

    /// Drop live upstream sessions but keep tickets/tokens — the
    /// methodology's reset between warming and measurement.
    pub fn reset_sessions(&mut self) {
        self.conns.clear();
        self.pending.clear();
    }

    /// True if `port` belongs to one of the proxy's upstream sockets.
    pub fn owns_port(&self, port: u16) -> bool {
        self.conns.iter().any(|c| c.port == port)
    }

    fn pick_conn(&mut self) -> usize {
        let reusable = match self.transport {
            // Default: fresh connection per query (no resolver honours
            // keepalive). With RFC 9210 behaviour requested, reuse.
            DnsTransport::DoTcp if !self.base_cfg.request_tcp_keepalive => None,
            DnsTransport::DoT => {
                let candidate = self.conns.iter().position(|c| !c.conn.failed());
                match candidate {
                    Some(i) if self.dot_bug && self.conns[i].inflight > 0 => None,
                    other => other,
                }
            }
            _ => self.conns.iter().position(|c| !c.conn.failed()),
        };
        match reusable {
            Some(i) => i,
            None => {
                let port = self.next_port;
                self.next_port += 1;
                self.connections_opened += 1;
                let cfg = ClientConfig {
                    session: self.session.clone(),
                    ..self.base_cfg.clone()
                };
                let conn = make_client(
                    self.transport,
                    SocketAddr::new(self.client_ip, port),
                    self.upstream,
                    &cfg,
                );
                self.conns.push(ProxyConn {
                    conn,
                    port,
                    started: false,
                    inflight: 0,
                });
                self.conns.len() - 1
            }
        }
    }

    /// Forward a stub query for `domain` upstream. The result arrives
    /// via [`DnsProxy::take_resolved`].
    pub fn resolve(&mut self, now: SimTime, rng: &mut SimRng, domain: &str, out: &mut Vec<Packet>) {
        let qid = self.next_qid;
        self.next_qid = self.next_qid.wrapping_add(1).max(1);
        let name = Name::parse(domain).expect("valid domain");
        // A DoTCP connection asks the resolver to hold it open (RFC
        // 7828) itself when the client configuration says so.
        let query = Message::query(qid, name, RecordType::A);
        self.pending.insert(qid, domain.to_string());
        self.queries_sent += 1;
        let i = self.pick_conn();
        let c = &mut self.conns[i];
        c.inflight += 1;
        c.conn.query(now, &query);
        if !c.started {
            c.started = true;
            c.conn.start(now, rng, out);
        }
        c.conn.poll(now, out);
        self.harvest(now);
    }

    /// Route an upstream packet to its connection.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        if let Some(c) = self.conns.iter_mut().find(|c| c.port == pkt.dst.port) {
            c.conn.on_packet(now, pkt, out);
            c.conn.poll(now, out);
        }
        self.harvest(now);
    }

    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        for c in &mut self.conns {
            c.conn.poll(now, out);
        }
        self.harvest(now);
    }

    fn harvest(&mut self, _now: SimTime) {
        for c in &mut self.conns {
            for (_, msg) in c.conn.take_responses() {
                c.inflight = c.inflight.saturating_sub(1);
                let Some(domain) = self.pending.remove(&msg.header.id) else {
                    continue;
                };
                let ip = (msg.header.rcode == Rcode::NoError)
                    .then(|| {
                        msg.answers.iter().find_map(|rr| match rr.rdata {
                            RData::A(octets) => {
                                Some(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
                            }
                            _ => None,
                        })
                    })
                    .flatten();
                self.resolved.push((domain, ip));
            }
            // Capture freshly issued resumption material.
            self.session.merge(c.conn.session_state());
        }
    }

    /// Completed lookups (domain, address or failure).
    pub fn take_resolved(&mut self) -> Vec<(String, Option<Ipv4Addr>)> {
        std::mem::take(&mut self.resolved)
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.conns
            .iter()
            .filter_map(|c| c.conn.next_timeout())
            .min()
    }

    /// A lookup failed permanently (all retries exhausted).
    pub fn any_failed(&self) -> bool {
        !self.pending.is_empty() && self.conns.iter().all(|c| c.conn.failed())
    }
}
