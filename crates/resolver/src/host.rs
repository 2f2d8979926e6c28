//! The resolver as a simulator host.
//!
//! Terminates all five DNS transports, answers cache hits after a small
//! processing delay, and models cache misses as a recursive lookup with
//! a sampled latency (real recursion contacts authoritative servers
//! across the Internet; the paper's methodology is designed so that
//! *measured* queries always hit the cache, making the exact recursion
//! model irrelevant to the reported numbers — but it must exist for the
//! cache-warming query to have something to do).

use crate::cache::{CachedAnswer, DnsCache};
use doqlab_dnswire::{Message, Name, Question, RData, Rcode, RecordType, ResourceRecord, SvcParam};
use doqlab_dox::server::{ConnKey, DnsServerSet, ServerConfig};
use doqlab_simnet::{Ctx, Duration, Host, Packet, SimRng, SimTime};
use std::any::Any;

/// Latency model for recursive lookups (log-normal, heavy-tailed like
/// real recursion which may hit multiple authoritatives).
#[derive(Debug, Clone)]
pub struct RecursionModel {
    /// Median recursion time.
    pub median: Duration,
    /// Log-normal sigma.
    pub sigma: f64,
    /// Processing delay for cache hits.
    pub hit_delay: Duration,
}

impl Default for RecursionModel {
    fn default() -> Self {
        RecursionModel {
            median: Duration::from_millis(60),
            sigma: 0.8,
            hit_delay: Duration::from_micros(200),
        }
    }
}

impl RecursionModel {
    fn sample(&self, rng: &mut SimRng) -> Duration {
        let median_ms = self.median.as_secs_f64() * 1000.0;
        let ms = rng.log_normal(median_ms.ln(), self.sigma);
        Duration::from_secs_f64((ms / 1000.0).clamp(0.001, 10.0))
    }
}

/// The deterministic IPv4 address the simulated DNS maps `name` to.
/// Shared by the resolvers (answers) and the load simulator (where it
/// registers the origin servers).
pub fn ip_for_name(name: &Name) -> doqlab_simnet::Ipv4Addr {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for label in name.labels() {
        for b in label {
            h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x1000_0000_01b3);
        }
        h = (h ^ 0x2e).wrapping_mul(0x1000_0000_01b3);
    }
    doqlab_simnet::Ipv4Addr::new(
        (h >> 24) as u8 | 1,
        (h >> 16) as u8,
        (h >> 8) as u8,
        h as u8,
    )
}

/// `ip_for_name` from a presentation-format domain string.
pub fn ip_for_domain(domain: &str) -> doqlab_simnet::Ipv4Addr {
    ip_for_name(&Name::parse(domain).expect("valid domain"))
}

/// Synthesize the authoritative answer for a question: a deterministic
/// address derived from the name, so answers are stable across runs and
/// resolvers.
pub fn authoritative_answer(q: &Question) -> Vec<ResourceRecord> {
    // Names whose first label carries the synthetic `nx-` prefix do not
    // exist anywhere: population workloads query them to exercise
    // NXDOMAIN and RFC 2308 negative caching.
    if q.name
        .labels()
        .next()
        .is_some_and(|l| l.starts_with(b"nx-"))
    {
        return Vec::new();
    }
    let ip = ip_for_name(&q.name).octets();
    match q.rtype {
        RecordType::A => {
            vec![ResourceRecord::new(q.name.clone(), 300, RData::A(ip))]
        }
        RecordType::Aaaa => {
            let mut a = [0u8; 16];
            a[0] = 0x20;
            a[1] = 0x01;
            a[12..16].copy_from_slice(&ip);
            vec![ResourceRecord::new(q.name.clone(), 300, RData::Aaaa(a))]
        }
        _ => Vec::new(),
    }
}

/// Negative TTL (RFC 2308): how long an NXDOMAIN/NODATA verdict may be
/// cached, advertised as the SOA MINIMUM of the negative response's
/// authority record.
pub const NEGATIVE_TTL: u32 = 60;

/// The SOA record a negative response carries in its authority section
/// (RFC 2308 §3): its TTL and MINIMUM bound how long the verdict may be
/// cached.
pub fn negative_soa(q: &Question) -> ResourceRecord {
    // The simulated authoritative serves everything from one zone; the
    // query name's parent stands in for the zone apex.
    let zone = q.name.parent().unwrap_or_else(Name::root);
    ResourceRecord::new(
        zone,
        NEGATIVE_TTL,
        RData::Soa {
            mname: Name::parse("ns.doqlab.invalid").expect("const"),
            rname: Name::parse("hostmaster.doqlab.invalid").expect("const"),
            serial: 2022,
            refresh: 3600,
            retry: 600,
            expire: 86400,
            minimum: NEGATIVE_TTL,
        },
    )
}

/// Build the negative response for `query`: the rcode plus the RFC 2308
/// SOA authority record that carries the negative TTL.
fn negative_response(query: &Message, q: &Question, rcode: Rcode) -> Message {
    let mut resp = Message::error_response_to(query, rcode);
    resp.authorities.push(negative_soa(q));
    resp
}

/// What releasing a pending answer writes back into the cache.
#[derive(Debug)]
enum CacheFill {
    Records(Vec<ResourceRecord>),
    Negative(Rcode),
}

/// A pending answer (waiting on hit-delay or recursion).
#[derive(Debug)]
struct PendingAnswer {
    due: SimTime,
    key: ConnKey,
    response: Message,
    /// Cache fill performed when the answer is released.
    fill: Option<(Name, RecordType, CacheFill)>,
}

/// The resolver host.
pub struct ResolverHost {
    set: DnsServerSet,
    cache: DnsCache,
    model: RecursionModel,
    pending: Vec<PendingAnswer>,
    /// Statistics.
    pub queries_served: u64,
    pub cache_hits: u64,
}

impl ResolverHost {
    pub fn new(server_cfg: ServerConfig, model: RecursionModel) -> Self {
        ResolverHost {
            set: DnsServerSet::new(server_cfg),
            cache: DnsCache::new(),
            model,
            pending: Vec::new(),
            queries_served: 0,
            cache_hits: 0,
        }
    }

    pub fn config(&self) -> &ServerConfig {
        self.set.config()
    }

    pub fn cache(&self) -> &DnsCache {
        &self.cache
    }

    /// The DDR designation records for this resolver's feature set.
    fn ddr_records(&self, q: &Question) -> Vec<ResourceRecord> {
        let cfg = self.set.config();
        let mut designations = Vec::new();
        if cfg.supports_doq {
            designations.push((1u16, vec![b"doq".to_vec()], 853u16));
        }
        if cfg.supports_doh3 {
            designations.push((2, vec![b"h3".to_vec()], 443));
        }
        if cfg.supports_doh {
            designations.push((3, vec![b"h2".to_vec()], 443));
        }
        if cfg.supports_dot {
            designations.push((4, vec![b"dot".to_vec()], 853));
        }
        designations
            .into_iter()
            .map(|(priority, alpn, port)| ResourceRecord {
                name: q.name.clone(),
                rtype: RecordType::Svcb,
                class: doqlab_dnswire::RecordClass::In,
                ttl: 300,
                rdata: RData::Svcb {
                    priority,
                    target: Name::root(),
                    params: vec![SvcParam::Alpn(alpn), SvcParam::Port(port)],
                },
            })
            .collect()
    }

    fn process(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<Packet>) {
        for ev in self.set.take_queries() {
            self.queries_served += 1;
            let Some(q) = ev.query.question().cloned() else {
                let resp = Message::error_response_to(&ev.query, Rcode::FormErr);
                self.set.respond(ctx.now, ev.key, &resp);
                continue;
            };
            // DDR (RFC 9462): "_dns.resolver.arpa"/SVCB advertises the
            // resolver's encrypted transports — this is how Cloudflare
            // announced DoH3 support (§4 of the paper).
            if q.rtype == RecordType::Svcb
                && q.name
                    .eq_ignore_case(&Name::parse("_dns.resolver.arpa").expect("const"))
            {
                let resp = Message::response_to(&ev.query, self.ddr_records(&q));
                self.set.respond(ctx.now, ev.key, &resp);
                continue;
            }
            match self.cache.get_answer(ctx.now, &q.name, q.rtype) {
                Some(CachedAnswer::Records(records)) => {
                    self.cache_hits += 1;
                    let response = Message::response_to(&ev.query, records);
                    self.pending.push(PendingAnswer {
                        due: ctx.now + self.model.hit_delay,
                        key: ev.key,
                        response,
                        fill: None,
                    });
                }
                Some(CachedAnswer::Negative(rcode)) => {
                    // RFC 2308: a cached NXDOMAIN/NODATA verdict is
                    // served like any hit — no recursion.
                    self.cache_hits += 1;
                    let response = negative_response(&ev.query, &q, rcode);
                    self.pending.push(PendingAnswer {
                        due: ctx.now + self.model.hit_delay,
                        key: ev.key,
                        response,
                        fill: None,
                    });
                }
                None => {
                    let records = authoritative_answer(&q);
                    let (response, fill) = if records.is_empty() {
                        (
                            negative_response(&ev.query, &q, Rcode::NxDomain),
                            CacheFill::Negative(Rcode::NxDomain),
                        )
                    } else {
                        (
                            Message::response_to(&ev.query, records.clone()),
                            CacheFill::Records(records),
                        )
                    };
                    self.pending.push(PendingAnswer {
                        due: ctx.now + self.model.sample(ctx.rng),
                        key: ev.key,
                        response,
                        fill: Some((q.name, q.rtype, fill)),
                    });
                }
            }
        }
        // Release due answers.
        for PendingAnswer {
            key,
            response,
            fill,
            ..
        } in self.pending.extract_if(.., |p| p.due <= ctx.now)
        {
            match fill {
                Some((name, rtype, CacheFill::Records(records))) => {
                    self.cache.put(ctx.now, &name, rtype, records);
                }
                Some((name, rtype, CacheFill::Negative(rcode))) => {
                    self.cache
                        .put_negative(ctx.now, &name, rtype, rcode, NEGATIVE_TTL);
                }
                None => {}
            }
            self.set.respond(ctx.now, key, &response);
        }
        self.set.poll(ctx.now, out);
    }
}

impl Host for ResolverHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let mut out = Vec::new();
        self.set.on_packet(ctx.now, &pkt, &mut out);
        self.process(ctx, &mut out);
        for p in out {
            ctx.send(p);
        }
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        self.set.poll(ctx.now, &mut out);
        self.process(ctx, &mut out);
        for p in out {
            ctx.send(p);
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let pending = self.pending.iter().map(|p| p.due).min();
        match (pending, self.set.next_timeout()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doqlab_dnswire::Name;
    use doqlab_dox::{ClientConfig, DnsClientHost, DnsTransport};
    use doqlab_simnet::path::FixedPathModel;
    use doqlab_simnet::{Ipv4Addr, Simulator, SocketAddr};

    fn run_one(transport: DnsTransport) -> f64 {
        // Returns the cold resolve time in ms (incl. recursion),
        // measured as response_arrival - query_issue.
        let resolver_ip = Ipv4Addr::new(192, 0, 2, 1);
        let client_ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut sim = Simulator::new(7, Box::new(FixedPathModel::new(Duration::from_millis(10))));
        let resolver = ResolverHost::new(
            ServerConfig {
                ip: resolver_ip,
                ..ServerConfig::default()
            },
            RecursionModel::default(),
        );
        sim.add_host(Box::new(resolver), &[resolver_ip]);
        let local = SocketAddr::new(client_ip, 40_000);
        let remote = SocketAddr::new(resolver_ip, transport.port());
        let client = DnsClientHost::new(transport, local, remote, &ClientConfig::default());
        let cid = sim.add_host(Box::new(client), &[client_ip]);
        let started = sim.now();
        sim.with_host::<DnsClientHost, _>(cid, |c, ctx| {
            let q = Message::query(1, Name::parse("google.com").unwrap(), RecordType::A);
            c.start_with_query(ctx, &q);
        });
        sim.run_until(started + Duration::from_secs(15));
        let client = sim.host_mut::<DnsClientHost>(cid);
        assert_eq!(client.responses.len(), 1);
        (client.responses[0].0 - started).as_secs_f64() * 1000.0
    }

    #[test]
    fn miss_includes_recursion_delay() {
        let first = run_one(DnsTransport::DoUdp);
        // 1 RTT (20 ms) + recursion (tens of ms) >> bare RTT.
        assert!(first > 25.0, "first = {first}");
    }

    #[test]
    fn warm_then_hit_is_fast() {
        // Warm and measure over one simulator with two distinct clients.
        let resolver_ip = Ipv4Addr::new(192, 0, 2, 1);
        let mut sim = Simulator::new(7, Box::new(FixedPathModel::new(Duration::from_millis(10))));
        let resolver = ResolverHost::new(
            ServerConfig {
                ip: resolver_ip,
                ..ServerConfig::default()
            },
            RecursionModel::default(),
        );
        let rid = sim.add_host(Box::new(resolver), &[resolver_ip]);
        let q = Message::query(1, Name::parse("google.com").unwrap(), RecordType::A);

        let c1_ip = Ipv4Addr::new(10, 0, 0, 1);
        let c1 = DnsClientHost::new(
            DnsTransport::DoUdp,
            SocketAddr::new(c1_ip, 40000),
            SocketAddr::new(resolver_ip, 53),
            &ClientConfig::default(),
        );
        let c1id = sim.add_host(Box::new(c1), &[c1_ip]);
        sim.with_host::<DnsClientHost, _>(c1id, |c, ctx| c.start_with_query(ctx, &q));
        sim.run_until(SimTime::from_secs(15));
        let warm_time = sim.host::<DnsClientHost>(c1id).responses[0].0;

        let c2_ip = Ipv4Addr::new(10, 0, 0, 2);
        let c2 = DnsClientHost::new(
            DnsTransport::DoUdp,
            SocketAddr::new(c2_ip, 40000),
            SocketAddr::new(resolver_ip, 53),
            &ClientConfig::default(),
        );
        let c2id = sim.add_host(Box::new(c2), &[c2_ip]);
        let t1 = sim.now();
        sim.with_host::<DnsClientHost, _>(c2id, |c, ctx| c.start_with_query(ctx, &q));
        sim.run_until(t1 + Duration::from_secs(15));
        let hit = sim.host::<DnsClientHost>(c2id).responses[0].0 - t1;
        let miss = warm_time - SimTime::ZERO;
        assert!(hit < Duration::from_millis(22), "hit = {hit:?}");
        assert!(miss > hit, "miss {miss:?} vs hit {hit:?}");
        assert_eq!(sim.host::<ResolverHost>(rid).cache_hits, 1);
        assert_eq!(sim.host::<ResolverHost>(rid).queries_served, 2);
    }

    #[test]
    fn nxdomain_is_negatively_cached_with_soa_authority() {
        // A name with no authoritative records (non-A/AAAA rtypes)
        // yields NXDOMAIN with an RFC 2308 SOA authority record; asking
        // again is served from the negative cache without recursion.
        let resolver_ip = Ipv4Addr::new(192, 0, 2, 1);
        let mut sim = Simulator::new(7, Box::new(FixedPathModel::new(Duration::from_millis(10))));
        let resolver = ResolverHost::new(
            ServerConfig {
                ip: resolver_ip,
                ..ServerConfig::default()
            },
            RecursionModel::default(),
        );
        let rid = sim.add_host(Box::new(resolver), &[resolver_ip]);
        let q = Message::query(9, Name::parse("nowhere.test").unwrap(), RecordType::Txt);
        for (i, client_ip) in [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)]
            .into_iter()
            .enumerate()
        {
            let c = DnsClientHost::new(
                DnsTransport::DoUdp,
                SocketAddr::new(client_ip, 40000),
                SocketAddr::new(resolver_ip, 53),
                &ClientConfig::default(),
            );
            let cid = sim.add_host(Box::new(c), &[client_ip]);
            let t0 = sim.now();
            sim.with_host::<DnsClientHost, _>(cid, |c, ctx| c.start_with_query(ctx, &q));
            sim.run_until(t0 + Duration::from_secs(15));
            let resp = &sim.host::<DnsClientHost>(cid).responses[0].1;
            assert_eq!(resp.header.rcode, Rcode::NxDomain);
            assert!(resp.answers.is_empty());
            let soa = resp
                .authorities
                .iter()
                .find(|rr| matches!(rr.rdata, RData::Soa { .. }))
                .expect("negative response carries an SOA");
            assert_eq!(soa.ttl, NEGATIVE_TTL);
            if let RData::Soa { minimum, .. } = soa.rdata {
                assert_eq!(minimum, NEGATIVE_TTL);
            }
            let host = sim.host::<ResolverHost>(rid);
            assert_eq!(host.cache_hits, i as u64, "query {i}");
        }
        let host = sim.host::<ResolverHost>(rid);
        assert_eq!(host.queries_served, 2);
        assert_eq!(host.cache().negative_hits(), 1);
    }

    #[test]
    fn authoritative_answers_are_deterministic() {
        let q = Question::new(Name::parse("example.org").unwrap(), RecordType::A);
        assert_eq!(authoritative_answer(&q), authoritative_answer(&q));
        // Case-insensitive: same address, owner name keeps query case.
        let q2 = Question::new(Name::parse("EXAMPLE.ORG").unwrap(), RecordType::A);
        assert_eq!(
            authoritative_answer(&q)[0].rdata,
            authoritative_answer(&q2)[0].rdata
        );
        let aaaa = Question::new(Name::parse("example.org").unwrap(), RecordType::Aaaa);
        assert!(matches!(
            authoritative_answer(&aaaa)[0].rdata,
            RData::Aaaa(_)
        ));
        let txt = Question::new(Name::parse("example.org").unwrap(), RecordType::Txt);
        assert!(authoritative_answer(&txt).is_empty());
    }

    #[test]
    fn name_addresses_are_pinned() {
        // Origin servers and answers meet at these addresses, and every
        // page load and sample depends on them: they must not move with
        // how `Name` stores its labels. The long name spills past the
        // inline buffer.
        for (domain, ip) in [
            ("WWW.Google.com", [51, 32, 111, 60]),
            ("www.google.com", [51, 32, 111, 60]),
            (
                "statics-marketingsites-wcus-ms-com.akamaized.net",
                [183, 227, 249, 107],
            ),
            ("d7.pop.doqlab.test", [165, 20, 219, 138]),
        ] {
            assert_eq!(ip_for_domain(domain).octets(), ip, "{domain}");
        }
    }
}
