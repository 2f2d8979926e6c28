//! The local DNS proxy (the paper's instrumented AdGuard dnsproxy).
//!
//! Runs inside the browser host (the paper runs it on the same EC2
//! instance as Chromium), forwards every stub query to one upstream
//! resolver over the configured DoX transport, has **no cache** (the
//! methodology disables it), and reproduces the connection handling §3.2
//! documents ([`UpstreamPolicy::proxy`]):
//!
//! * DoUDP: one socket;
//! * DoTCP: a fresh connection per query (no resolver honours
//!   keepalive, so each query pays the full 2 RTT);
//! * DoT: one persistent connection — **but** when a query is already
//!   in flight and a new one arrives, the unpatched dnsproxy opens
//!   another full connection instead of reusing (`dot_bug`; the paper
//!   measured this hitting ~60% of page loads and upstreamed a fix,
//!   which `dot_bug = false` models);
//! * DoH / DoQ: one persistent multiplexed connection.
//!
//! Each navigation gets a proxy of its own; the resumption material it
//! captured ([`DnsProxy::take_session`]) seeds the next one.

use doqlab_dnswire::{Message, Name, RData, Rcode, RecordType};
use doqlab_dox::{ClientConfig, DnsTransport, SessionState, Upstream, UpstreamPolicy};
use doqlab_simnet::{Ipv4Addr, Packet, SimRng, SimTime, SocketAddr};
use std::collections::HashMap;

/// The proxy component.
pub struct DnsProxy {
    upstream: Upstream,
    next_qid: u16,
    /// The domain each unanswered query id asks for.
    domains: HashMap<u16, String>,
    resolved: Vec<(String, Option<Ipv4Addr>)>,
    pub queries_sent: u32,
}

impl DnsProxy {
    pub fn new(
        client_ip: Ipv4Addr,
        upstream: SocketAddr,
        transport: DnsTransport,
        cfg: ClientConfig,
        dot_bug: bool,
    ) -> Self {
        let policy = UpstreamPolicy::proxy(transport, cfg.request_tcp_keepalive, dot_bug);
        let local = SocketAddr::new(client_ip, 42_000);
        DnsProxy {
            upstream: Upstream::new(transport, local, upstream, cfg, policy),
            next_qid: 1,
            domains: HashMap::new(),
            resolved: Vec::new(),
            queries_sent: 0,
        }
    }

    /// The upstream connections (DoT-bug observability: `dials()`).
    pub fn upstream(&self) -> &Upstream {
        &self.upstream
    }

    /// Forward a stub query for `domain` upstream. The result arrives
    /// via [`DnsProxy::take_resolved`].
    pub fn resolve(&mut self, now: SimTime, rng: &mut SimRng, domain: &str, out: &mut Vec<Packet>) {
        let qid = self.next_qid;
        self.next_qid = self.next_qid.wrapping_add(1).max(1);
        let name = Name::parse(domain).expect("valid domain");
        self.domains.insert(qid, domain.to_string());
        self.queries_sent += 1;
        self.upstream
            .query(now, rng, Message::query(qid, name, RecordType::A), out);
        self.collect();
    }

    /// Route an upstream packet to its connection.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        pkt: &Packet,
        out: &mut Vec<Packet>,
    ) {
        self.upstream.receive(now, rng, pkt, out);
        self.collect();
    }

    pub fn poll(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        self.upstream.poll(now, rng, out);
        self.collect();
    }

    /// Capture resumption material as it arrives, then turn answers
    /// into lookups (the A record, or `None` for a failure).
    fn collect(&mut self) {
        self.upstream.capture();
        for (_, msg) in self.upstream.responses.drain(..) {
            let Some(domain) = self.domains.remove(&msg.header.id) else {
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
    }

    /// Completed lookups (domain, address or failure).
    pub fn take_resolved(&mut self) -> Vec<(String, Option<Ipv4Addr>)> {
        std::mem::take(&mut self.resolved)
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.upstream.next_timeout()
    }

    /// The resumption material captured so far, for the next
    /// navigation's proxy.
    pub fn take_session(&mut self) -> SessionState {
        self.upstream.take_session()
    }
}
