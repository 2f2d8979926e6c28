//! DNS-proxy behaviour tests: the connection-handling details §3.2 of
//! the paper traces back to (dnsproxy's DoT bug, DoTCP's
//! connection-per-query, session material carried to the next
//! navigation's proxy).

use doqlab_dnswire::{Message, RData};
use doqlab_dox::{ClientConfig, DnsTransport, ServerConfig};
use doqlab_resolver::{ip_for_domain, RecursionModel, ResolverHost};
use doqlab_simnet::path::FixedPathModel;
use doqlab_simnet::{Ctx, Duration, Host, Ipv4Addr, Packet, SimTime, Simulator, SocketAddr};
use doqlab_webperf::DnsProxy;
use std::any::Any;

const RESOLVER_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Host wrapper that drives a bare proxy (no browser).
struct ProxyHost {
    proxy: DnsProxy,
    resolved: Vec<(String, Option<Ipv4Addr>)>,
}

impl Host for ProxyHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let mut out = Vec::new();
        self.proxy.on_packet(ctx.now, ctx.rng, &pkt, &mut out);
        self.resolved.extend(self.proxy.take_resolved());
        for p in out {
            ctx.send(p);
        }
    }
    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        self.proxy.poll(ctx.now, ctx.rng, &mut out);
        self.resolved.extend(self.proxy.take_resolved());
        for p in out {
            ctx.send(p);
        }
    }
    fn next_wakeup(&self) -> Option<SimTime> {
        self.proxy.next_timeout()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn setup(
    transport: DnsTransport,
    cfg: ClientConfig,
    dot_bug: bool,
    server: ServerConfig,
) -> (Simulator, usize) {
    let mut sim = Simulator::new(3, Box::new(FixedPathModel::new(Duration::from_millis(20))));
    sim.add_host(
        Box::new(ResolverHost::new(
            ServerConfig {
                ip: RESOLVER_IP,
                ..server
            },
            RecursionModel::default(),
        )),
        &[RESOLVER_IP],
    );
    let id = add_proxy(&mut sim, CLIENT_IP, transport, cfg, dot_bug);
    (sim, id)
}

/// A proxy on its own browser address.
fn add_proxy(
    sim: &mut Simulator,
    ip: Ipv4Addr,
    transport: DnsTransport,
    cfg: ClientConfig,
    dot_bug: bool,
) -> usize {
    let upstream = SocketAddr::new(RESOLVER_IP, transport.port());
    let proxy = DnsProxy::new(ip, upstream, transport, cfg, dot_bug);
    sim.add_host(
        Box::new(ProxyHost {
            proxy,
            resolved: Vec::new(),
        }),
        &[ip],
    )
}

fn resolve_batch(sim: &mut Simulator, id: usize, domains: &[&str]) {
    sim.with_host::<ProxyHost, _>(id, |h, ctx| {
        let mut out = Vec::new();
        for d in domains {
            h.proxy.resolve(ctx.now, ctx.rng, d, &mut out);
        }
        for p in out {
            ctx.send(p);
        }
    });
    let deadline = sim.now() + Duration::from_secs(10);
    sim.run_until(deadline);
}

#[test]
fn resolves_and_returns_the_deterministic_address() {
    let (mut sim, id) = setup(
        DnsTransport::DoUdp,
        ClientConfig::default(),
        true,
        ServerConfig::default(),
    );
    resolve_batch(&mut sim, id, &["www.example.org"]);
    let host = sim.host::<ProxyHost>(id);
    assert_eq!(host.resolved.len(), 1);
    let (domain, ip) = &host.resolved[0];
    assert_eq!(domain, "www.example.org");
    assert_eq!(*ip, Some(ip_for_domain("www.example.org")));
}

#[test]
fn dot_bug_opens_second_connection_for_concurrent_queries() {
    let (mut sim, id) = setup(
        DnsTransport::DoT,
        ClientConfig::default(),
        true,
        ServerConfig::default(),
    );
    resolve_batch(&mut sim, id, &["a.example", "b.example", "c.example"]);
    let host = sim.host::<ProxyHost>(id);
    assert_eq!(host.resolved.len(), 3);
    assert!(
        host.proxy.upstream().dials() >= 2,
        "in-flight queries must trigger reconnects, got {}",
        host.proxy.upstream().dials()
    );
}

#[test]
fn dot_fix_reuses_one_connection() {
    let (mut sim, id) = setup(
        DnsTransport::DoT,
        ClientConfig::default(),
        false, // upstreamed fix
        ServerConfig::default(),
    );
    resolve_batch(&mut sim, id, &["a.example", "b.example", "c.example"]);
    let host = sim.host::<ProxyHost>(id);
    assert_eq!(host.resolved.len(), 3);
    assert_eq!(host.proxy.upstream().dials(), 1);
}

#[test]
fn dotcp_opens_one_connection_per_query() {
    let (mut sim, id) = setup(
        DnsTransport::DoTcp,
        ClientConfig::default(),
        true,
        ServerConfig::default(),
    );
    resolve_batch(&mut sim, id, &["a.example", "b.example", "c.example"]);
    let host = sim.host::<ProxyHost>(id);
    assert_eq!(host.resolved.len(), 3);
    assert_eq!(host.proxy.upstream().dials(), 3);
}

#[test]
fn rfc9210_dotcp_reuses_the_connection() {
    let cfg = ClientConfig {
        request_tcp_keepalive: true,
        ..ClientConfig::default()
    };
    let server = ServerConfig {
        tcp_keepalive: true,
        close_tcp_after_response: false,
        ..ServerConfig::default()
    };
    let (mut sim, id) = setup(DnsTransport::DoTcp, cfg, true, server);
    resolve_batch(&mut sim, id, &["a.example", "b.example", "c.example"]);
    let host = sim.host::<ProxyHost>(id);
    assert_eq!(host.resolved.len(), 3);
    assert_eq!(host.proxy.upstream().dials(), 1);
}

#[test]
fn doq_multiplexes_on_one_connection() {
    let (mut sim, id) = setup(
        DnsTransport::DoQ,
        ClientConfig::default(),
        true,
        ServerConfig::default(),
    );
    resolve_batch(
        &mut sim,
        id,
        &["a.example", "b.example", "c.example", "d.example"],
    );
    let host = sim.host::<ProxyHost>(id);
    assert_eq!(host.resolved.len(), 4);
    assert_eq!(host.proxy.upstream().dials(), 1);
}

#[test]
fn session_material_carries_to_the_next_navigation() {
    // Each navigation builds a fresh proxy, seeded (as run_page_load_in
    // does) with what the previous one captured.
    let (mut sim, id) = setup(
        DnsTransport::DoQ,
        ClientConfig::default(),
        true,
        ServerConfig::default(),
    );
    resolve_batch(&mut sim, id, &["warm.example"]);
    let session = sim.host_mut::<ProxyHost>(id).proxy.take_session();
    assert!(session.tls_ticket.is_some(), "ticket captured");
    assert!(session.quic_token.is_some(), "token captured");
    let cfg = ClientConfig {
        session,
        ..ClientConfig::default()
    };
    let next = add_proxy(
        &mut sim,
        Ipv4Addr::new(10, 0, 0, 2),
        DnsTransport::DoQ,
        cfg,
        true,
    );
    resolve_batch(&mut sim, next, &["measured.example"]);
    let host = sim.host::<ProxyHost>(next);
    assert_eq!(host.resolved.len(), 1);
    assert_eq!(host.proxy.upstream().dials(), 1);
    assert!(
        host.proxy.upstream().metadata().resumed,
        "the next navigation's connection resumes"
    );
}

#[test]
fn nxdomain_like_failures_surface_as_none() {
    // TXT-only name: the resolver answers NXDOMAIN for A of a name with
    // no synthesized records -- our synthetic authority answers every
    // A query, so emulate failure via an unsupported-transport timeout
    // instead: resolver without UDP support.
    let server = ServerConfig {
        supports_udp: false,
        ..ServerConfig::default()
    };
    let cfg = ClientConfig {
        udp_retry_timeout: std::time::Duration::from_millis(300),
        udp_max_retries: 1,
        ..ClientConfig::default()
    };
    let (mut sim, id) = setup(DnsTransport::DoUdp, cfg, true, server);
    resolve_batch(&mut sim, id, &["dead.example"]);
    let host = sim.host::<ProxyHost>(id);
    // No response at all: the lookup never completes (the browser's
    // failure handling sits above the proxy).
    assert!(host.resolved.is_empty());
    assert!(host.proxy.upstream().failure().is_some());
}

#[test]
fn responses_decode_a_records_only() {
    // The deterministic authority also serves AAAA; the proxy's A-record
    // extraction must pick the IPv4 answer.
    let (mut sim, id) = setup(
        DnsTransport::DoUdp,
        ClientConfig::default(),
        true,
        ServerConfig::default(),
    );
    resolve_batch(&mut sim, id, &["v4.example"]);
    let host = sim.host::<ProxyHost>(id);
    let (_, ip) = &host.resolved[0];
    assert!(ip.is_some());
    // Cross-check against the wire answer.
    let q = doqlab_dnswire::Question::new(
        doqlab_dnswire::Name::parse("v4.example").unwrap(),
        doqlab_dnswire::RecordType::A,
    );
    let auth = doqlab_resolver::authoritative_answer(&q);
    match &auth[0].rdata {
        RData::A(o) => assert_eq!(ip.unwrap().octets(), *o),
        other => panic!("expected A record, got {other:?}"),
    }
    let _ = Message::decode(&[]); // keep the dnswire import exercised
}
