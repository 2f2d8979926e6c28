//! §2 — resolver discovery (the paper's ZMap scan + verification).
//!
//! Three stages, exactly like the paper:
//!
//! 1. **Scan**: probe candidate addresses on UDP 784/853/8853 with a
//!    QUIC Initial carrying the invalid version 0; a Version
//!    Negotiation response identifies QUIC support without creating
//!    server state.
//! 2. **Verify DoQ**: establish a QUIC connection offering the DoQ
//!    ALPN identifiers; success = DoQ resolver.
//! 3. **Protocol support** (the DNSPerf step): optimistically query
//!    each DoQ resolver over DoUDP/DoTCP/DoT/DoH; the intersection of
//!    all five is the verified DoX set.

use crate::engine;
use doqlab_dnswire::{Message, Name, RecordType};
use doqlab_dox::{ClientConfig, DnsClientHost, DnsTransport};
use doqlab_netstack::quic::{PacketType, QuicPacket, VersionNegotiation};
use doqlab_resolver::{RecursionModel, ResolverHost, ScannedHost};
use doqlab_simnet::path::FixedPathModel;
use doqlab_simnet::{Ctx, Duration, Host, Ipv4Addr, Packet, SimTime, Simulator, SocketAddr};
use serde::Serialize;
use std::any::Any;

/// The discovery funnel result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct DiscoveryReport {
    pub probed_hosts: usize,
    /// Hosts answering the version-0 probe on any DoQ port.
    pub quic_hosts: usize,
    /// Hosts completing a DoQ-ALPN handshake.
    pub doq_resolvers: usize,
    pub doudp_support: usize,
    pub dotcp_support: usize,
    pub dot_support: usize,
    pub doh_support: usize,
    /// Resolvers supporting every protocol.
    pub verified_dox: usize,
}

impl DiscoveryReport {
    /// Accumulate another report's counts (merging per-host funnels
    /// back into the campaign total).
    pub fn absorb(&mut self, other: &DiscoveryReport) {
        self.probed_hosts += other.probed_hosts;
        self.quic_hosts += other.quic_hosts;
        self.doq_resolvers += other.doq_resolvers;
        self.doudp_support += other.doudp_support;
        self.dotcp_support += other.dotcp_support;
        self.dot_support += other.dot_support;
        self.doh_support += other.doh_support;
        self.verified_dox += other.verified_dox;
    }
}

/// A host that fires one UDP datagram and records any response.
struct Prober {
    local: SocketAddr,
    target: SocketAddr,
    payload: Vec<u8>,
    response: Option<Vec<u8>>,
}

impl Host for Prober {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.response.is_none() {
            self.response = Some(pkt.payload.into_vec());
        }
    }
    fn on_wakeup(&mut self, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Prober {
    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(Packet::udp(self.local, self.target, self.payload.clone()));
    }
}

/// The version-0 ZMap probe payload (a padded Initial with version 0).
fn probe_payload() -> Vec<u8> {
    let pkt = QuicPacket::new(
        PacketType::Initial,
        0,
        *b"zmapscan",
        *b"scansrc0",
        0,
        &[0; 40],
    );
    let mut buf = Vec::new();
    pkt.encode(&mut buf);
    buf
}

/// Reset the arena to a fresh probe topology: one resolver host under
/// a fixed 15 ms path, seeded per scanned host.
fn reset_probe_sim(sim: &mut Simulator, host: &ScannedHost, server_id: u64) -> Ipv4Addr {
    sim.reset(
        server_id ^ 0x5CA9,
        Box::new(FixedPathModel::new(Duration::from_millis(15))),
    );
    let resolver = ResolverHost::new(host.server_config(server_id), RecursionModel::default());
    sim.add_host(Box::new(resolver), &[host.ip]);
    host.ip
}

/// Stage 1: does any DoQ port answer the version-0 probe with VN?
fn quic_probe(sim: &mut Simulator, host: &ScannedHost, server_id: u64, ports: &[u16]) -> bool {
    for &port in ports {
        let ip = reset_probe_sim(sim, host, server_id);
        let scanner_ip = Ipv4Addr::new(10, 200, 0, 1);
        let local = SocketAddr::new(scanner_ip, 61_000);
        let prober = Prober {
            local,
            target: SocketAddr::new(ip, port),
            payload: probe_payload(),
            response: None,
        };
        let pid = sim.add_host(Box::new(prober), &[scanner_ip]);
        sim.with_host::<Prober, _>(pid, |p, ctx| p.fire(ctx));
        sim.run_until(SimTime::from_secs(1));
        let prober = sim.host::<Prober>(pid);
        if let Some(resp) = &prober.response {
            if VersionNegotiation::decode(resp).is_some() {
                return true;
            }
        }
    }
    false
}

/// Stage 2/3: can we complete a DNS exchange over `transport`?
fn protocol_probe(
    sim: &mut Simulator,
    host: &ScannedHost,
    server_id: u64,
    transport: DnsTransport,
    port: u16,
) -> bool {
    let ip = reset_probe_sim(sim, host, server_id);
    let scanner_ip = Ipv4Addr::new(10, 200, 0, 1);
    let client = DnsClientHost::new(
        transport,
        SocketAddr::new(scanner_ip, 61_001),
        SocketAddr::new(ip, port),
        &ClientConfig::default(),
    );
    let cid = sim.add_host(Box::new(client), &[scanner_ip]);
    let q = Message::query(0x7357, Name::parse("example.com").unwrap(), RecordType::A);
    sim.with_host::<DnsClientHost, _>(cid, |c, ctx| c.start_with_query(ctx, &q));
    // Short verification timeout (under the DoUDP 5 s retry on purpose:
    // a silent resolver counts as unsupported).
    sim.run_until(SimTime::from_secs(4));
    !sim.host::<DnsClientHost>(cid).responses.is_empty()
}

fn scan_one(sim: &mut Simulator, host: &ScannedHost, server_id: u64) -> DiscoveryReport {
    let standard_ports = [853u16, 784, 8853];
    let mut report = DiscoveryReport {
        probed_hosts: 1,
        ..Default::default()
    };
    if !quic_probe(sim, host, server_id, &standard_ports) {
        return report;
    }
    report.quic_hosts = 1;
    // Verify DoQ on the first answering port.
    let port = host.quic_ports.first().copied().unwrap_or(853);
    if !protocol_probe(sim, host, server_id, DnsTransport::DoQ, port) {
        return report;
    }
    report.doq_resolvers = 1;
    let udp = protocol_probe(sim, host, server_id, DnsTransport::DoUdp, 53);
    let tcp = protocol_probe(sim, host, server_id, DnsTransport::DoTcp, 53);
    let dot = protocol_probe(sim, host, server_id, DnsTransport::DoT, 853);
    let doh = protocol_probe(sim, host, server_id, DnsTransport::DoH, 443);
    report.doudp_support = udp as usize;
    report.dotcp_support = tcp as usize;
    report.dot_support = dot as usize;
    report.doh_support = doh as usize;
    report.verified_dox = (udp && tcp && dot && doh) as usize;
    report
}

/// Run the whole funnel over a scan population: one unit per host,
/// scheduled by the work-stealing engine on per-worker simulator
/// arenas. The per-host server id is the host's position in the
/// population, so results don't depend on `threads`.
pub fn run_discovery(population: &[ScannedHost], threads: usize) -> DiscoveryReport {
    let reports = engine::run_units(threads, population, Simulator::arena, |sim, host, i| {
        scan_one(sim, host, 0x5CA_0000 + i as u64)
    });
    let mut report = DiscoveryReport::default();
    for r in &reports {
        report.absorb(r);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use doqlab_resolver::synthesize_scan_population;

    /// A scaled-down scan population with the same funnel structure.
    fn mini_population() -> Vec<ScannedHost> {
        let full = synthesize_scan_population(1, 30);
        // 20 full-DoX + 30 partial + the 30 non-DoQ QUIC hosts.
        let mut mini: Vec<ScannedHost> = Vec::new();
        mini.extend(full.iter().take(20).cloned());
        mini.extend(full.iter().skip(313).take(30).cloned());
        mini.extend(full.iter().skip(1216).take(30).cloned());
        mini
    }

    #[test]
    fn funnel_identifies_exactly_the_right_hosts() {
        let pop = mini_population();
        let report = run_discovery(&pop, 2);
        assert_eq!(report.probed_hosts, 80);
        // All 80 run QUIC on some port.
        assert_eq!(report.quic_hosts, 80);
        // Only the 50 DoQ resolvers pass ALPN verification.
        assert_eq!(report.doq_resolvers, 50);
        // Exactly the 20 full-DoX hosts support everything.
        assert_eq!(report.verified_dox, 20);
        let expected_udp = pop
            .iter()
            .filter(|h| h.speaks_doq && h.supports_udp)
            .count();
        assert_eq!(report.doudp_support, expected_udp);
    }

    #[test]
    fn version_zero_probe_is_stateless() {
        let pop = mini_population();
        let host = &pop[0];
        let mut sim = Simulator::arena();
        assert!(quic_probe(&mut sim, host, 1, &[853]));
        // A host with no QUIC ports does not answer.
        let mut dark = host.clone();
        dark.quic_ports = vec![];
        dark.speaks_doq = false;
        assert!(!quic_probe(&mut sim, &dark, 2, &[853]));
    }
}
