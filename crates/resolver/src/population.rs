//! Synthesis of the study's resolver population.
//!
//! §2/§3 of the paper pin down the population we must reproduce:
//!
//! * 313 verified DoX resolvers — EU 130, AS 128, NA 49, AF 2, OC 2,
//!   SA 2 — across 107 ASes (ORACLE 47, DIGITALOCEAN 20, MNGTNET 18,
//!   OVHCLOUD 16, the rest ≤ 12 each);
//! * every resolver supports TLS 1.3 Session Resumption with 7-day
//!   tickets; none supports 0-RTT, TFO or edns-tcp-keepalive; ~1% of
//!   measurements negotiate TLS 1.2;
//! * QUIC versions observed: v1 89.1%, draft-34 8.5%, draft-32 1.8%,
//!   draft-29 0.6%; DoQ ALPNs: doq-i02 87.4%, doq-i03 10.8%,
//!   doq-i00 1.8%;
//! * the discovery funnel: 1,216 DoQ resolvers, of which 548 also do
//!   DoUDP, 706 DoTCP, 1,149 DoT, 732 DoH — full intersection 313.

use doqlab_dox::alpn::DoqAlpn;
use doqlab_dox::server::ServerConfig;
use doqlab_netstack::quic::{draft_version, QUIC_V1};
use doqlab_netstack::tls::TlsVersion;
use doqlab_simnet::geo::Continent;
use doqlab_simnet::{Coord, Ipv4Addr, SimRng};
use serde::Serialize;

/// Paper §2: verified DoX resolvers per continent, in row order.
pub const DOX_PER_CONTINENT: [(Continent, usize); 6] = [
    (Continent::Europe, 130),
    (Continent::Asia, 128),
    (Continent::NorthAmerica, 49),
    (Continent::Africa, 2),
    (Continent::Oceania, 2),
    (Continent::SouthAmerica, 2),
];

/// Paper §2: total verified DoX resolvers.
pub const DOX_TOTAL: usize = 313;

/// Paper §2: discovery funnel sizes.
pub const DOQ_TOTAL: usize = 1216;
pub const DOQ_WITH_DOUDP: usize = 548;
pub const DOQ_WITH_DOTCP: usize = 706;
pub const DOQ_WITH_DOT: usize = 1149;
pub const DOQ_WITH_DOH: usize = 732;

/// One verified DoX resolver.
#[derive(Debug, Clone, Serialize)]
pub struct ResolverProfile {
    pub index: usize,
    #[serde(skip)]
    pub ip: Ipv4Addr,
    pub continent: Continent,
    pub location: Coord,
    /// Synthetic AS name.
    pub asn: String,
    #[serde(skip)]
    pub tls_versions: Vec<TlsVersion>,
    #[serde(skip)]
    pub quic_versions: Vec<u32>,
    #[serde(skip)]
    pub doq_alpns: Vec<DoqAlpn>,
    /// Certificate chain size — decides whether the full QUIC handshake
    /// exceeds the anti-amplification budget.
    pub cert_chain_len: u16,
}

impl ResolverProfile {
    /// Server configuration for this resolver (optionally overriding
    /// the paper's observed feature gaps for ablations).
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            ip: self.ip,
            server_id: 0x0d0_0000 + self.index as u64,
            tls_versions: self.tls_versions.clone(),
            cert_chain_len: self.cert_chain_len,
            quic_versions: self.quic_versions.clone(),
            doq_alpns: self.doq_alpns.clone(),
            ..ServerConfig::default()
        }
    }
}

/// AS distribution from §2 (the remainder is spread over small ASes so
/// that the total is 107 distinct ASes).
fn assign_asns(rng: &mut SimRng, n: usize) -> Vec<String> {
    let mut pool: Vec<String> = Vec::new();
    for (name, count) in [
        ("ORACLE", 47),
        ("DIGITALOCEAN", 20),
        ("MNGTNET", 18),
        ("OVHCLOUD", 16),
    ] {
        pool.extend(std::iter::repeat_n(name.to_string(), count));
    }
    // 103 more ASes for the remaining 212 resolvers, each <= 12.
    let remaining = n - pool.len();
    let small_as_count = 103;
    let mut sizes = vec![1usize; small_as_count];
    let mut left = remaining - small_as_count;
    while left > 0 {
        let i = rng.below(small_as_count as u64) as usize;
        if sizes[i] < 12 {
            sizes[i] += 1;
            left -= 1;
        }
    }
    for (i, size) in sizes.iter().enumerate() {
        pool.extend(std::iter::repeat_n(format!("AS-{:03}", i + 1), *size));
    }
    debug_assert_eq!(pool.len(), n);
    rng.shuffle(&mut pool);
    pool
}

/// Scatter a resolver around its continent's centre.
fn scatter(rng: &mut SimRng, c: Continent) -> Coord {
    let center = c.center();
    Coord::new(
        (center.lat + rng.normal_with(0.0, 8.0)).clamp(-60.0, 70.0),
        center.lon + rng.normal_with(0.0, 12.0),
    )
}

/// Synthesize the 313 verified DoX resolvers.
pub fn synthesize_dox_population(seed: u64) -> Vec<ResolverProfile> {
    let mut rng = SimRng::new(seed ^ 0xD0A_D0A);
    let mut asns = assign_asns(&mut rng, DOX_TOTAL);
    let mut out = Vec::with_capacity(DOX_TOTAL);
    let mut index = 0usize;
    for (continent, count) in DOX_PER_CONTINENT {
        for _ in 0..count {
            // ~1% of resolvers are TLS 1.2-only (matching the ~1% of
            // measurements on TLS 1.2).
            let tls_versions = if rng.chance(0.01) {
                vec![TlsVersion::Tls12]
            } else {
                vec![TlsVersion::Tls13]
            };
            // QUIC version support per the observed measurement shares.
            let quic_versions = match rng.pick_weighted(&[89.1, 8.5, 1.8, 0.6]) {
                0 => vec![
                    QUIC_V1,
                    draft_version(34),
                    draft_version(32),
                    draft_version(29),
                ],
                1 => vec![draft_version(34), draft_version(32), draft_version(29)],
                2 => vec![draft_version(32), draft_version(29)],
                _ => vec![draft_version(29)],
            };
            // DoQ ALPN per the observed shares.
            let doq_alpns = match rng.pick_weighted(&[87.4, 10.8, 1.8]) {
                0 => vec![DoqAlpn::Draft(2), DoqAlpn::Draft(0)],
                1 => vec![DoqAlpn::Draft(3), DoqAlpn::Draft(2)],
                _ => vec![DoqAlpn::Draft(0)],
            };
            // Chain sizes straddle the 3x1200-byte amplification budget
            // so that, without resumption, a sizeable fraction of full
            // handshakes stall (the preliminary study saw ~40%).
            let cert_chain_len = rng.normal_with(2650.0, 550.0).clamp(1500.0, 4600.0) as u16;
            out.push(ResolverProfile {
                index,
                ip: Ipv4Addr::new(203, ((index + 256) >> 8) as u8, (index & 0xFF) as u8, 53),
                continent,
                location: scatter(&mut rng, continent),
                asn: asns.pop().expect("sized for DOX_TOTAL"),
                tls_versions,
                quic_versions,
                doq_alpns,
                cert_chain_len,
            });
            index += 1;
        }
    }
    out
}

/// A host in the wider IPv4 scan population.
#[derive(Debug, Clone)]
pub struct ScannedHost {
    pub ip: Ipv4Addr,
    /// Responds to QUIC on these UDP ports (784/853/8853 subset).
    pub quic_ports: Vec<u16>,
    /// Accepts the DoQ ALPN (i.e. is a DoQ resolver at all).
    pub speaks_doq: bool,
    pub supports_udp: bool,
    pub supports_tcp: bool,
    pub supports_dot: bool,
    pub supports_doh: bool,
}

impl ScannedHost {
    pub fn is_full_dox(&self) -> bool {
        self.speaks_doq
            && self.supports_udp
            && self.supports_tcp
            && self.supports_dot
            && self.supports_doh
    }

    pub fn server_config(&self, server_id: u64) -> ServerConfig {
        ServerConfig {
            ip: self.ip,
            server_id,
            supports_udp: self.supports_udp,
            supports_tcp: self.supports_tcp,
            supports_dot: self.supports_dot,
            supports_doh: self.supports_doh,
            // Any QUIC endpoint answers Version Negotiation (that is
            // what the scan detects); whether it is *DoQ* is decided by
            // the ALPN list below.
            supports_doq: !self.quic_ports.is_empty(),
            doq_ports: self.quic_ports.clone(),
            doq_alpns: if self.speaks_doq {
                vec![DoqAlpn::Draft(2)]
            } else {
                vec![] // QUIC host that is not DoQ (e.g. HTTP/3)
            },
            ..ServerConfig::default()
        }
    }
}

/// Exact-marginal boolean column: `ones` true values among `n`.
fn exact_column(rng: &mut SimRng, n: usize, ones: usize) -> Vec<bool> {
    let mut v = vec![false; n];
    for slot in v.iter_mut().take(ones) {
        *slot = true;
    }
    rng.shuffle(&mut v);
    v
}

/// Synthesize the scan population behind the discovery funnel:
/// `extra_quic` QUIC-but-not-DoQ hosts plus exactly [`DOQ_TOTAL`] DoQ
/// resolvers whose partial protocol support reproduces the paper's
/// marginals with a full intersection of exactly [`DOX_TOTAL`].
pub fn synthesize_scan_population(seed: u64, extra_quic: usize) -> Vec<ScannedHost> {
    let mut rng = SimRng::new(seed ^ 0x5CA_7715);
    let mut hosts = Vec::new();
    // The 313 full-DoX resolvers.
    for i in 0..DOX_TOTAL {
        hosts.push(ScannedHost {
            ip: Ipv4Addr::new(203, ((i + 256) >> 8) as u8, (i & 0xFF) as u8, 53),
            quic_ports: vec![853, 784, 8853],
            speaks_doq: true,
            supports_udp: true,
            supports_tcp: true,
            supports_dot: true,
            supports_doh: true,
        });
    }
    // The remaining DoQ resolvers with partial support; exact marginals.
    let rest = DOQ_TOTAL - DOX_TOTAL;
    let udp = exact_column(&mut rng, rest, DOQ_WITH_DOUDP - DOX_TOTAL);
    let tcp = exact_column(&mut rng, rest, DOQ_WITH_DOTCP - DOX_TOTAL);
    let dot = exact_column(&mut rng, rest, DOQ_WITH_DOT - DOX_TOTAL);
    let doh = exact_column(&mut rng, rest, DOQ_WITH_DOH - DOX_TOTAL);
    let mut cols: Vec<[bool; 4]> = (0..rest)
        .map(|i| [udp[i], tcp[i], dot[i], doh[i]])
        .collect();
    // No row outside the 313 may support everything: swap a flag from
    // any all-true row into a row missing that flag (marginals kept).
    for i in 0..cols.len() {
        if cols[i].iter().all(|b| *b) {
            // Move this row's DoUDP bit to a row that lacks it and that
            // will not itself become all-true.
            if let Some(j) =
                (0..cols.len()).find(|&j| !(cols[j][0] || cols[j][1] && cols[j][2] && cols[j][3]))
            {
                cols[i][0] = false;
                cols[j][0] = true;
            }
        }
    }
    for (i, c) in cols.iter().enumerate() {
        let n = DOX_TOTAL + i;
        // DoQ ports: most listen on all three, some only on a subset.
        let quic_ports = match rng.pick_weighted(&[70.0, 15.0, 10.0, 5.0]) {
            0 => vec![853, 784, 8853],
            1 => vec![853],
            2 => vec![784],
            _ => vec![8853],
        };
        hosts.push(ScannedHost {
            ip: Ipv4Addr::new(203, ((n + 256) >> 8) as u8, (n & 0xFF) as u8, 53),
            quic_ports,
            speaks_doq: true,
            supports_udp: c[0],
            supports_tcp: c[1],
            supports_dot: c[2],
            supports_doh: c[3],
        });
    }
    // QUIC hosts that are not DoQ (HTTP/3 web servers and the like):
    // they send Version Negotiation but refuse the DoQ ALPN.
    for i in 0..extra_quic {
        let n = DOQ_TOTAL + i;
        hosts.push(ScannedHost {
            ip: Ipv4Addr::new(198, (n >> 8) as u8, (n & 0xFF) as u8, 80),
            quic_ports: vec![853],
            speaks_doq: false,
            supports_udp: false,
            supports_tcp: false,
            supports_dot: false,
            supports_doh: false,
        });
    }
    hosts
}

/// The client side of a population campaign: how many simulated clients
/// sit behind the stubs, split evenly across the vantage × transport
/// cohorts.
///
/// The interesting scales run 10⁵–10⁶ clients; tests and CI smokes use
/// a few hundred. Splitting is exact-or-ceiling so no cohort is ever
/// empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClientPopulation {
    /// Total simulated clients across all cohorts.
    pub clients: u64,
    /// Number of cohorts the clients are divided among (one stub per
    /// vantage × transport combination).
    pub cohorts: u64,
}

impl ClientPopulation {
    pub fn new(clients: u64, cohorts: u64) -> Self {
        ClientPopulation {
            clients: clients.max(1),
            cohorts: cohorts.max(1),
        }
    }

    /// Clients multiplexed behind one cohort's stub (ceiling division,
    /// so every cohort has at least one client).
    pub fn per_cohort(&self) -> u64 {
        self.clients.div_ceil(self.cohorts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn dox_population_matches_continent_counts() {
        let pop = synthesize_dox_population(1);
        assert_eq!(pop.len(), DOX_TOTAL);
        let mut counts: HashMap<Continent, usize> = HashMap::new();
        for r in &pop {
            *counts.entry(r.continent).or_default() += 1;
        }
        for (c, n) in DOX_PER_CONTINENT {
            assert_eq!(counts[&c], n, "{c}");
        }
    }

    #[test]
    fn dox_population_has_107_ases_with_paper_heads() {
        let pop = synthesize_dox_population(1);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for r in &pop {
            *counts.entry(r.asn.as_str()).or_default() += 1;
        }
        assert_eq!(counts.len(), 107);
        assert_eq!(counts["ORACLE"], 47);
        assert_eq!(counts["DIGITALOCEAN"], 20);
        assert_eq!(counts["MNGTNET"], 18);
        assert_eq!(counts["OVHCLOUD"], 16);
        assert!(counts
            .iter()
            .filter(|(k, _)| k.starts_with("AS-"))
            .all(|(_, v)| *v <= 12));
    }

    #[test]
    fn dox_population_is_deterministic_and_ips_unique() {
        let a = synthesize_dox_population(1);
        let b = synthesize_dox_population(1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.cert_chain_len, y.cert_chain_len);
        }
        let ips: HashSet<_> = a.iter().map(|r| r.ip).collect();
        assert_eq!(ips.len(), DOX_TOTAL);
    }

    #[test]
    fn version_shares_are_near_paper_values() {
        let pop = synthesize_dox_population(1);
        let v1 = pop
            .iter()
            .filter(|r| r.quic_versions.contains(&QUIC_V1))
            .count();
        // 89.1% of a 313 draw: allow generous sampling slack.
        let frac = v1 as f64 / pop.len() as f64;
        assert!((0.82..=0.96).contains(&frac), "v1 share {frac}");
        let i02 = pop
            .iter()
            .filter(|r| r.doq_alpns.first() == Some(&DoqAlpn::Draft(2)))
            .count() as f64
            / pop.len() as f64;
        assert!((0.80..=0.94).contains(&i02), "doq-i02 share {i02}");
        let tls12 = pop
            .iter()
            .filter(|r| r.tls_versions == vec![TlsVersion::Tls12])
            .count();
        assert!(tls12 <= 12, "tls1.2-only resolvers: {tls12}");
    }

    #[test]
    fn nobody_supports_0rtt_tfo_or_keepalive() {
        for r in synthesize_dox_population(1) {
            let cfg = r.server_config();
            assert!(!cfg.enable_0rtt);
            assert!(!cfg.enable_tfo);
            assert!(!cfg.tcp_keepalive);
        }
    }

    #[test]
    fn scan_population_reproduces_funnel_marginals() {
        let pop = synthesize_scan_population(1, 500);
        let doq: Vec<_> = pop.iter().filter(|h| h.speaks_doq).collect();
        assert_eq!(doq.len(), DOQ_TOTAL);
        assert_eq!(
            doq.iter().filter(|h| h.supports_udp).count(),
            DOQ_WITH_DOUDP
        );
        assert_eq!(
            doq.iter().filter(|h| h.supports_tcp).count(),
            DOQ_WITH_DOTCP
        );
        assert_eq!(doq.iter().filter(|h| h.supports_dot).count(), DOQ_WITH_DOT);
        assert_eq!(doq.iter().filter(|h| h.supports_doh).count(), DOQ_WITH_DOH);
        assert_eq!(doq.iter().filter(|h| h.is_full_dox()).count(), DOX_TOTAL);
        assert_eq!(pop.len(), DOQ_TOTAL + 500);
    }

    #[test]
    fn scan_population_ips_unique() {
        let pop = synthesize_scan_population(1, 500);
        let ips: HashSet<_> = pop.iter().map(|h| h.ip).collect();
        assert_eq!(ips.len(), pop.len());
    }

    #[test]
    fn cert_chain_spread_straddles_amplification_budget() {
        let pop = synthesize_dox_population(1);
        let over = pop.iter().filter(|r| r.cert_chain_len > 2800).count() as f64 / pop.len() as f64;
        assert!(
            (0.25..=0.55).contains(&over),
            "fraction over budget: {over}"
        );
    }
}
