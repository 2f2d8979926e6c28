//! End-to-end tests: every DNS transport against a full
//! [`DnsServerSet`] over the discrete-event simulator — the same wiring
//! the measurement harness uses.

use doqlab_dnswire::{Message, Name, OptRecord, RData, RecordType, ResourceRecord};
use doqlab_dox::*;
use doqlab_simnet::path::FixedPathModel;
use doqlab_simnet::*;
use std::any::Any;

const ONE_WAY_MS: u64 = 25;

fn client_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1)
}

fn resolver_ip() -> Ipv4Addr {
    Ipv4Addr::new(192, 0, 2, 1)
}

/// A resolver host that answers every query instantly from "cache".
struct EchoResolver {
    set: DnsServerSet,
}

impl Host for EchoResolver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let mut out = Vec::new();
        self.set.on_packet(ctx.now, &pkt, &mut out);
        self.answer(ctx.now, &mut out);
        for p in out {
            ctx.send(p);
        }
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        self.set.poll(ctx.now, &mut out);
        self.answer(ctx.now, &mut out);
        for p in out {
            ctx.send(p);
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.set.next_timeout()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl EchoResolver {
    fn answer(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let queries = self.set.take_queries();
        for ev in queries {
            let answer = ResourceRecord::new(
                ev.query.question().unwrap().name.clone(),
                300,
                RData::A([93, 184, 216, 34]),
            );
            let resp = Message::response_to(&ev.query, vec![answer]);
            self.set.respond(now, ev.key, &resp);
        }
        self.set.poll(now, out);
    }
}

fn build_sim(server_cfg: ServerConfig) -> (Simulator, HostId, HostId) {
    let mut sim = Simulator::new(
        42,
        Box::new(FixedPathModel::new(Duration::from_millis(ONE_WAY_MS))),
    );
    sim.enable_trace();
    let resolver = EchoResolver {
        set: DnsServerSet::new(server_cfg),
    };
    let resolver_id = sim.add_host(Box::new(resolver), &[resolver_ip()]);
    (sim, resolver_id, 0)
}

fn query() -> Message {
    Message::query(0x1234, Name::parse("google.com").unwrap(), RecordType::A)
}

/// Run one query over `transport`; returns (handshake ms, resolve-at ms,
/// captured session) and asserts a valid response arrived.
fn run_query(
    transport: DnsTransport,
    server_cfg: ServerConfig,
    client_cfg: ClientConfig,
) -> (Option<f64>, f64, SessionState) {
    let (mut sim, _resolver_id, _) = build_sim(server_cfg);
    let local = SocketAddr::new(client_ip(), 40_000);
    let remote = SocketAddr::new(resolver_ip(), transport.port());
    let client = Upstream::new(
        transport,
        local,
        remote,
        client_cfg,
        UpstreamPolicy::default(),
    );
    let cid = sim.add_host(Box::new(client), &[client_ip()]);
    sim.with_host::<Upstream, _>(cid, |c, ctx| c.start_with_query(ctx, &query()));
    sim.run_until(SimTime::from_secs(20));
    let client = sim.host_mut::<Upstream>(cid);
    assert!(!client.responses.is_empty(), "{transport}: no response");
    let (at, msg) = client.responses[0].clone();
    assert_eq!(msg.header.id, 0x1234, "{transport}: id mismatch");
    assert_eq!(msg.answers.len(), 1);
    let hs = client.handshake_time().map(|d| d.as_secs_f64() * 1000.0);
    let session = client.take_session();
    (hs, at.as_millis_f64(), session)
}

#[test]
fn doudp_resolves_in_one_rtt() {
    let (hs, at, session) = run_query(
        DnsTransport::DoUdp,
        ServerConfig::default(),
        ClientConfig::default(),
    );
    assert_eq!(hs, Some(0.0), "UDP has no handshake");
    assert!((at - 50.0).abs() < 1.0, "resolve at {at} ms");
    assert!(session.is_empty());
}

#[test]
fn dotcp_takes_two_rtts_total() {
    let (hs, at, _) = run_query(
        DnsTransport::DoTcp,
        ServerConfig::default(),
        ClientConfig::default(),
    );
    // Handshake 1 RTT, then query/response 1 RTT.
    assert!((hs.unwrap() - 50.0).abs() < 1.0, "handshake {hs:?}");
    assert!((at - 100.0).abs() < 1.0, "resolve at {at}");
}

#[test]
fn dot_full_handshake_is_two_rtts_after_tcp() {
    let (hs, at, session) = run_query(
        DnsTransport::DoT,
        ServerConfig::default(),
        ClientConfig::default(),
    );
    // TCP 1 RTT + TLS1.3 1 RTT = 2 RTT handshake; query rides with Fin.
    assert!((hs.unwrap() - 100.0).abs() < 1.0, "handshake {hs:?}");
    assert!((at - 150.0).abs() < 1.0, "resolve at {at}");
    assert!(
        session.tls_ticket.is_some(),
        "ticket captured for resumption"
    );
}

#[test]
fn dot_resumption_still_two_rtts_but_no_cert() {
    let (_, _, session) = run_query(
        DnsTransport::DoT,
        ServerConfig::default(),
        ClientConfig::default(),
    );
    let cfg = ClientConfig {
        session,
        ..ClientConfig::default()
    };
    let (hs, at, _) = run_query(DnsTransport::DoT, ServerConfig::default(), cfg);
    assert!((hs.unwrap() - 100.0).abs() < 1.0);
    assert!((at - 150.0).abs() < 1.0);
}

#[test]
fn doh_matches_dot_round_trips() {
    let (hs, at, session) = run_query(
        DnsTransport::DoH,
        ServerConfig::default(),
        ClientConfig::default(),
    );
    assert!((hs.unwrap() - 100.0).abs() < 1.0, "handshake {hs:?}");
    assert!((at - 150.0).abs() < 1.0, "resolve at {at}");
    assert!(session.tls_ticket.is_some());
}

#[test]
fn doq_handshake_is_one_rtt_with_resumption() {
    // First connection: full handshake, captures ticket+token+version.
    let (hs1, _, session) = run_query(
        DnsTransport::DoQ,
        ServerConfig::default(),
        ClientConfig::default(),
    );
    assert!(
        (hs1.unwrap() - 50.0).abs() < 1.0,
        "fresh DoQ handshake {hs1:?}"
    );
    assert!(session.tls_ticket.is_some());
    assert!(session.quic_token.is_some());
    assert_eq!(session.quic_version, Some(doqlab_netstack::quic::QUIC_V1));

    // Resumed: still 1 RTT handshake, query+response 1 more RTT.
    let cfg = ClientConfig {
        session,
        ..ClientConfig::default()
    };
    let (hs2, at, _) = run_query(DnsTransport::DoQ, ServerConfig::default(), cfg);
    assert!(
        (hs2.unwrap() - 50.0).abs() < 1.0,
        "resumed DoQ handshake {hs2:?}"
    );
    assert!((at - 100.0).abs() < 1.0, "resolve at {at}");
}

#[test]
fn doq_total_beats_dot_and_doh_by_one_rtt() {
    let (_, doq_at, _) = run_query(
        DnsTransport::DoQ,
        ServerConfig::default(),
        ClientConfig::default(),
    );
    let (_, dot_at, _) = run_query(
        DnsTransport::DoT,
        ServerConfig::default(),
        ClientConfig::default(),
    );
    let (_, doh_at, _) = run_query(
        DnsTransport::DoH,
        ServerConfig::default(),
        ClientConfig::default(),
    );
    assert!(
        (dot_at - doq_at - 50.0).abs() < 1.0,
        "DoT {dot_at} vs DoQ {doq_at}"
    );
    assert!(
        (doh_at - doq_at - 50.0).abs() < 1.0,
        "DoH {doh_at} vs DoQ {doq_at}"
    );
}

#[test]
fn doq_zero_rtt_resolves_in_one_rtt_total() {
    // Against a 0-RTT-enabled resolver (the paper's future-work case).
    let server = ServerConfig {
        enable_0rtt: true,
        ..ServerConfig::default()
    };
    let (_, _, session) = run_query(DnsTransport::DoQ, server.clone(), ClientConfig::default());
    assert!(session.tls_ticket.as_ref().unwrap().allows_early_data);
    let cfg = ClientConfig {
        session,
        ..ClientConfig::default()
    };
    let (_, at, _) = run_query(DnsTransport::DoQ, server, cfg);
    // Query goes out with the first flight: resolve in 1 RTT, like DoUDP.
    assert!((at - 50.0).abs() < 1.0, "0-RTT resolve at {at}");
}

#[test]
fn dot_and_doh_zero_rtt_resolve_one_rtt_sooner() {
    // TLS-over-TCP 0-RTT: the framed query (DoT) / the H2 request (DoH)
    // ride the ClientHello as early data, the server answers from
    // `read_early` in the same flight as its handshake — resolve drops
    // from 150 ms (3 RTT) to 100 ms (2 RTT).
    let server = ServerConfig {
        enable_0rtt: true,
        ..ServerConfig::default()
    };
    for transport in [DnsTransport::DoT, DnsTransport::DoH] {
        let (_, _, session) = run_query(transport, server.clone(), ClientConfig::default());
        assert!(
            session.tls_ticket.as_ref().unwrap().allows_early_data,
            "{transport}: 0-RTT server issues early-data tickets"
        );
        let cfg = ClientConfig {
            session,
            ..ClientConfig::default()
        };
        let (_, at, _) = run_query(transport, server.clone(), cfg);
        assert!(
            (at - 100.0).abs() < 1.0,
            "{transport}: 0-RTT resolve at {at}"
        );
    }
}

#[test]
fn zero_rtt_reject_replays_and_never_fails() {
    // An early-data ticket presented to a resolver that no longer
    // accepts 0-RTT: the server rejects, the client replays the early
    // data after the handshake, and the query completes at the plain
    // resumed-1-RTT timing — it must never be lost.
    let zrtt_server = ServerConfig {
        enable_0rtt: true,
        ..ServerConfig::default()
    };
    for (transport, expect_at) in [
        (DnsTransport::DoQ, 100.0),
        (DnsTransport::DoT, 150.0),
        (DnsTransport::DoH, 150.0),
    ] {
        let (_, _, session) = run_query(transport, zrtt_server.clone(), ClientConfig::default());
        assert!(session.tls_ticket.as_ref().unwrap().allows_early_data);
        let cfg = ClientConfig {
            session,
            ..ClientConfig::default()
        };
        // run_query asserts a valid response arrived.
        let (_, at, _) = run_query(transport, ServerConfig::default(), cfg);
        assert!(
            (at - expect_at).abs() < 1.0,
            "{transport}: rejected 0-RTT resolves at {at}, want {expect_at}"
        );
    }
}

#[test]
fn tls12_tickets_never_advertise_early_data() {
    // RFC 8446 §4.2.10: early data is 1.3-only. A 0-RTT-enabled server
    // that negotiated 1.2 must not hand out tickets claiming early
    // data — a client trusting one would send 0-RTT records the 1.2
    // server silently drops.
    use doqlab_netstack::tls::TlsVersion;
    let server = ServerConfig {
        enable_0rtt: true,
        tls_versions: vec![TlsVersion::Tls12],
        ..ServerConfig::default()
    };
    let (_, _, session) = run_query(DnsTransport::DoT, server.clone(), ClientConfig::default());
    let ticket = session.tls_ticket.as_ref().expect("1.2 session ticket");
    assert!(!ticket.allows_early_data, "1.2 ticket advertises 0-RTT");
    // And the resumed connection still answers at 1.2 timing.
    let cfg = ClientConfig {
        session,
        ..ClientConfig::default()
    };
    let (_, at, _) = run_query(DnsTransport::DoT, server, cfg);
    assert!((at - 150.0).abs() < 1.0, "1.2 resumption resolves at {at}");
}

#[test]
fn tfo_dotcp_resolves_in_one_rtt_total() {
    // TCP Fast Open with a cached cookie: the query rides the SYN and
    // the server's answer rides the SYN-ACK flight — DoTCP at DoUDP
    // speed (RFC 7413's motivating case).
    let server = ServerConfig {
        enable_tfo: true,
        ..ServerConfig::default()
    };
    let tfo_client = ClientConfig {
        enable_tfo: true,
        ..ClientConfig::default()
    };
    // First connection requests and caches the cookie (still 2 RTT).
    let (_, at1, session) = run_query(DnsTransport::DoTcp, server.clone(), tfo_client.clone());
    assert!((at1 - 100.0).abs() < 1.0, "cookie-request resolve at {at1}");
    assert!(session.tfo_cookie.is_some(), "cookie cached");
    // Second connection: SYN carries the query, SYN-ACK the answer.
    let cfg = ClientConfig {
        session,
        ..tfo_client
    };
    let (_, at2, _) = run_query(DnsTransport::DoTcp, server, cfg);
    assert!((at2 - 50.0).abs() < 1.0, "TFO resolve at {at2}");
}

#[test]
fn doq_works_with_both_stream_mappings() {
    // doq-i02 (bare message, the most common deployment) and doq-i03 /
    // RFC 9250 (2-byte length prefix) resolvers both answer.
    for alpns in [
        vec![DoqAlpn::Draft(2)],
        vec![DoqAlpn::Draft(3)],
        vec![DoqAlpn::Rfc9250],
        vec![DoqAlpn::Draft(0)],
    ] {
        let server = ServerConfig {
            doq_alpns: alpns.clone(),
            ..ServerConfig::default()
        };
        let (_, at, _) = run_query(DnsTransport::DoQ, server, ClientConfig::default());
        assert!((at - 100.0).abs() < 1.0, "{alpns:?}: resolve at {at}");
    }
}

/// A query asking for EDNS version 1 (we implement version 0).
fn v1_query() -> Message {
    let mut q = query();
    q.additionals.clear();
    q.additionals.push(
        OptRecord {
            version: 1,
            ..OptRecord::default()
        }
        .to_record(),
    );
    q
}

#[test]
fn edns_version_above_zero_gets_badvers_not_an_answer() {
    // RFC 6891 §6.1.3, on every transport: the server answers BADVERS
    // itself; the query never reaches the resolver (which would have
    // answered with a record — EchoResolver answers everything).
    for transport in DnsTransport::ALL {
        let (mut sim, _r, _) = build_sim(ServerConfig::default());
        let local = SocketAddr::new(client_ip(), 40_000);
        let remote = SocketAddr::new(resolver_ip(), transport.port());
        let client = Upstream::new(
            transport,
            local,
            remote,
            ClientConfig::default(),
            UpstreamPolicy::default(),
        );
        let cid = sim.add_host(Box::new(client), &[client_ip()]);
        sim.with_host::<Upstream, _>(cid, |c, ctx| c.start_with_query(ctx, &v1_query()));
        sim.run_until(SimTime::from_secs(20));
        let client = sim.host_mut::<Upstream>(cid);
        assert!(!client.responses.is_empty(), "{transport}: no BADVERS");
        let (_, msg) = client.responses[0].clone();
        assert!(msg.answers.is_empty(), "{transport}: answered a v1 query");
        let opt = msg.opt().expect("BADVERS carries an OPT");
        assert_eq!(opt.extended_rcode, 1, "{transport}: extended rcode 16");
    }
}

#[test]
fn edns_version_zero_is_answered_normally() {
    // The other direction: a plain version-0 query (the default built
    // by Message::query) still gets a real answer, not BADVERS.
    let (_, _, _) = run_query(
        DnsTransport::DoUdp,
        ServerConfig::default(),
        ClientConfig::default(),
    );
}

#[test]
fn badvers_survives_the_keepalive_opt_merge_on_dotcp() {
    // A keepalive-advertising server must merge its edns-tcp-keepalive
    // option into the BADVERS OPT, not clobber the extended rcode.
    let server = ServerConfig {
        tcp_keepalive: true,
        close_tcp_after_response: false,
        ..ServerConfig::default()
    };
    let (mut sim, _r, _) = build_sim(server);
    let local = SocketAddr::new(client_ip(), 40_000);
    let remote = SocketAddr::new(resolver_ip(), DnsTransport::DoTcp.port());
    let client = Upstream::new(
        DnsTransport::DoTcp,
        local,
        remote,
        ClientConfig::default(),
        UpstreamPolicy::default(),
    );
    let cid = sim.add_host(Box::new(client), &[client_ip()]);
    sim.with_host::<Upstream, _>(cid, |c, ctx| c.start_with_query(ctx, &v1_query()));
    sim.run_until(SimTime::from_secs(20));
    let client = sim.host_mut::<Upstream>(cid);
    assert!(!client.responses.is_empty());
    let (_, msg) = client.responses[0].clone();
    let opt = msg.opt().unwrap();
    assert_eq!(opt.extended_rcode, 1, "BADVERS preserved");
    assert!(opt.tcp_keepalive().is_some(), "keepalive merged in");
}

#[test]
fn unsupported_protocol_gets_no_answer() {
    let server = ServerConfig {
        supports_udp: false,
        ..ServerConfig::default()
    };
    let (mut sim, _r, _) = build_sim(server);
    let local = SocketAddr::new(client_ip(), 40_000);
    let remote = SocketAddr::new(resolver_ip(), 53);
    let client = Upstream::new(
        DnsTransport::DoUdp,
        local,
        remote,
        ClientConfig::default(),
        UpstreamPolicy::default(),
    );
    let cid = sim.add_host(Box::new(client), &[client_ip()]);
    sim.with_host::<Upstream, _>(cid, |c, ctx| c.start_with_query(ctx, &query()));
    sim.run_until(SimTime::from_secs(30));
    let client = sim.host_mut::<Upstream>(cid);
    assert!(client.responses.is_empty());
    assert!(client.failure().is_some(), "retries exhausted");
}

#[test]
fn tls12_resolver_adds_a_round_trip_for_dot() {
    use doqlab_netstack::tls::TlsVersion;
    let server = ServerConfig {
        tls_versions: vec![TlsVersion::Tls12],
        ..ServerConfig::default()
    };
    let (hs, at, _) = run_query(DnsTransport::DoT, server, ClientConfig::default());
    // TCP 1 RTT + TLS1.2 2 RTT = 3 RTT handshake.
    assert!((hs.unwrap() - 150.0).abs() < 1.0, "handshake {hs:?}");
    assert!((at - 200.0).abs() < 1.0, "resolve at {at}");
}

#[test]
fn table1_size_shape_holds_per_transport() {
    // Directional IP-payload byte totals per protocol: DoUDP smallest,
    // DoQ handshake heaviest (padded Initials), DoH above DoT.
    let mut totals = std::collections::HashMap::new();
    for transport in DnsTransport::ALL {
        let (mut sim, _r, _) = build_sim(ServerConfig::default());
        let local = SocketAddr::new(client_ip(), 40_000);
        let remote = SocketAddr::new(resolver_ip(), transport.port());
        let client = Upstream::new(
            transport,
            local,
            remote,
            ClientConfig::default(),
            UpstreamPolicy::default(),
        );
        let cid = sim.add_host(Box::new(client), &[client_ip()]);
        sim.with_host::<Upstream, _>(cid, |c, ctx| c.start_with_query(ctx, &query()));
        sim.run_until(SimTime::from_secs(2));
        assert!(
            !sim.host::<Upstream>(cid).responses.is_empty(),
            "{transport}"
        );
        let trace = sim.trace().unwrap();
        let c2r = trace.total_bytes(local, remote);
        let r2c = trace.total_bytes(remote, local);
        totals.insert(transport, c2r + r2c);
    }
    assert!(totals[&DnsTransport::DoUdp] < 200);
    assert!(totals[&DnsTransport::DoTcp] < 600);
    assert!(
        totals[&DnsTransport::DoQ] > totals[&DnsTransport::DoH],
        "DoQ {} vs DoH {}",
        totals[&DnsTransport::DoQ],
        totals[&DnsTransport::DoH]
    );
    assert!(
        totals[&DnsTransport::DoH] > totals[&DnsTransport::DoT],
        "DoH {} vs DoT {}",
        totals[&DnsTransport::DoH],
        totals[&DnsTransport::DoT]
    );
}
