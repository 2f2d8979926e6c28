//! End-to-end QUIC tests: handshakes, resumption, amplification limit,
//! version negotiation, address validation, streams, 0-RTT and loss
//! recovery — every behaviour the paper's DoQ measurements rest on.

use doqlab_netstack::quic::*;
use doqlab_netstack::tls::{SessionTicket, TlsConfig};
use doqlab_simnet::{Duration, Ipv4Addr, SimRng, SimTime, SocketAddr};

fn sa(h: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), port)
}

fn client_addr() -> SocketAddr {
    sa(1, 40000)
}

fn server_addr() -> SocketAddr {
    sa(2, 853)
}

fn tls(alpn: &str) -> TlsConfig {
    TlsConfig {
        server_id: 7,
        alpn: vec![alpn.as_bytes().to_vec()],
        ..TlsConfig::default()
    }
}

fn server_cfg(alpn: &str) -> QuicConfig {
    QuicConfig {
        tls: tls(alpn),
        ..QuicConfig::default()
    }
}

/// Shuttles datagrams between one client connection and a server
/// endpoint with a fixed one-way delay, counting bytes per direction.
struct Shuttle {
    server: QuicServer,
    now: SimTime,
    delay: Duration,
    /// (deliver_at, to_client, datagram)
    wire: Vec<(SimTime, bool, Vec<u8>)>,
    pub c2s_bytes: usize,
    pub s2c_bytes: usize,
    pub c2s_datagrams: Vec<usize>,
    /// Drop the nth client->server datagram (0-based), once.
    drop_c2s: Option<usize>,
    c2s_count: usize,
}

impl Shuttle {
    fn new(server: QuicServer) -> Self {
        Shuttle {
            server,
            now: SimTime::ZERO,
            delay: Duration::from_millis(20),
            wire: Vec::new(),
            c2s_bytes: 0,
            s2c_bytes: 0,
            c2s_datagrams: Vec::new(),
            drop_c2s: None,
            c2s_count: 0,
        }
    }

    fn run(&mut self, client: &mut QuicConnection, until: SimTime) {
        for _ in 0..10_000 {
            if self.now > until {
                break;
            }
            for d in client.poll_transmit(self.now) {
                self.c2s_bytes += d.len();
                self.c2s_datagrams.push(d.len());
                let dropped = self.drop_c2s == Some(self.c2s_count);
                self.c2s_count += 1;
                if !dropped {
                    self.wire.push((self.now + self.delay, false, d.into_vec()));
                }
            }
            for (_, d) in self.server.poll_transmit(self.now) {
                self.s2c_bytes += d.len();
                self.wire.push((self.now + self.delay, true, d.into_vec()));
            }
            self.wire.sort_by_key(|(t, _, _)| *t);
            if let Some((t, to_client, d)) = self.wire.first().cloned() {
                if t > until {
                    self.now = until;
                    continue;
                }
                self.wire.remove(0);
                self.now = t;
                if to_client {
                    client.handle_datagram(self.now, &d);
                } else {
                    let imm = self.server.handle_datagram(self.now, client.local, &d);
                    for (_, d) in imm {
                        self.s2c_bytes += d.len();
                        self.wire.push((self.now + self.delay, true, d));
                    }
                }
            } else {
                let t = [client.next_timeout(), self.server.next_timeout()]
                    .into_iter()
                    .flatten()
                    .min();
                match t {
                    Some(t) if t <= until => self.now = t.max(self.now),
                    _ => break,
                }
            }
        }
    }
}

fn dial(
    cfg: QuicConfig,
    version: u32,
    ticket: Option<SessionTicket>,
    token: Option<Vec<u8>>,
) -> QuicConnection {
    let mut rng = SimRng::new(1);
    QuicConnection::client(
        cfg,
        client_addr(),
        server_addr(),
        version,
        ticket,
        token,
        &mut rng,
        SimTime::ZERO,
    )
}

#[test]
fn full_handshake_completes_in_one_rtt() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(5));
    assert!(c.is_established());
    assert_eq!(c.negotiated_alpn(), Some(&b"doq"[..]));
    assert!(!c.is_resumption());
    // One RTT = 40 ms with our 20 ms one-way delay.
    assert_eq!(c.established_at(), Some(SimTime::from_millis(40)));
}

#[test]
fn client_initial_datagram_is_padded_to_1200() {
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    let dgrams: Vec<_> = c.poll_transmit(SimTime::ZERO).collect();
    assert_eq!(dgrams.len(), 1);
    assert_eq!(dgrams[0].len(), 1200);
}

fn get_ticket_and_token(alpn: &str) -> (SessionTicket, Vec<u8>) {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg(alpn)));
    let mut c = dial(server_cfg(alpn), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(5));
    assert!(c.is_established());
    let tickets = c.take_tickets();
    let token = c.take_new_token().expect("server issues NEW_TOKEN");
    (
        tickets.into_iter().next().expect("server issues a ticket"),
        token,
    )
}

#[test]
fn server_issues_ticket_and_token() {
    let (ticket, token) = get_ticket_and_token("doq");
    assert_eq!(ticket.server_id, 7);
    assert_eq!(ticket.lifetime, Duration::from_secs(7 * 24 * 3600));
    assert_eq!(token.len(), 32);
}

#[test]
fn resumption_skips_certificate_and_shrinks_server_flight() {
    let (ticket, token) = get_ticket_and_token("doq");

    let mut sh_full = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c_full = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh_full.run(&mut c_full, SimTime::from_millis(45));
    let full_bytes = sh_full.s2c_bytes;

    let mut sh_res = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c_res = dial(server_cfg("doq"), QUIC_V1, Some(ticket), Some(token));
    sh_res.run(&mut c_res, SimTime::from_millis(45));
    assert!(c_res.is_established());
    assert!(c_res.is_resumption());
    // The resumed flight is one padded 1200-byte datagram (no
    // certificate); the full flight spans several datagrams.
    assert!(
        full_bytes > sh_res.s2c_bytes + 1500,
        "full {} vs resumed {}",
        full_bytes,
        sh_res.s2c_bytes
    );
}

#[test]
fn amplification_limit_stalls_large_certificate_without_token() {
    // A certificate chain too large for 3x1200 forces the server to
    // stall mid-flight until another client datagram arrives: the
    // handshake takes 2 RTT instead of 1. This is the preliminary-paper
    // effect the authors eliminated with Session Resumption.
    let big_cert = TlsConfig {
        cert_chain_len: 4500,
        ..tls("doq")
    };
    let cfg = QuicConfig {
        tls: big_cert,
        ..QuicConfig::default()
    };
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), cfg.clone()));
    let mut c = dial(cfg.clone(), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(5));
    assert!(c.is_established());
    // 2 RTT = 80 ms (the ACK that unblocks the server is itself padded
    // to 1200, granting 3600 more bytes).
    let t = c.established_at().unwrap();
    assert!(
        t >= SimTime::from_millis(80),
        "expected amplification stall, established at {t}"
    );

    // Same certificate, but a small one fits: 1 RTT.
    let small = QuicConfig {
        tls: tls("doq"),
        ..QuicConfig::default()
    };
    let mut sh2 = Shuttle::new(QuicServer::new(server_addr(), small.clone()));
    let mut c2 = dial(small, QUIC_V1, None, None);
    sh2.run(&mut c2, SimTime::from_secs(5));
    assert_eq!(c2.established_at(), Some(SimTime::from_millis(40)));
}

#[test]
fn token_lifts_amplification_limit() {
    // With a valid address-validation token, even the large certificate
    // flows in one RTT: the server is validated from the first Initial.
    let big_cert = TlsConfig {
        cert_chain_len: 4500,
        ..tls("doq")
    };
    let cfg = QuicConfig {
        tls: big_cert,
        ..QuicConfig::default()
    };
    let (_, token) = get_ticket_and_token("doq");
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), cfg.clone()));
    let mut c = dial(cfg, QUIC_V1, None, Some(token));
    sh.run(&mut c, SimTime::from_secs(5));
    assert!(c.is_established());
    assert_eq!(c.established_at(), Some(SimTime::from_millis(40)));
}

#[test]
fn version_negotiation_adds_one_round_trip() {
    // Server only supports v1; client dials draft-29.
    let cfg = QuicConfig {
        versions: vec![QUIC_V1],
        ..server_cfg("doq")
    };
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), cfg));
    let mut c = dial(server_cfg("doq"), draft_version(29), None, None);
    sh.run(&mut c, SimTime::from_secs(5));
    assert!(c.is_established());
    assert_eq!(c.version(), QUIC_V1);
    assert_eq!(c.vn_round_trips, 1);
    // 2 RTT total: VN exchange + normal handshake.
    assert_eq!(c.established_at(), Some(SimTime::from_millis(80)));
}

#[test]
fn remembered_version_avoids_negotiation() {
    let cfg = QuicConfig {
        versions: vec![QUIC_V1],
        ..server_cfg("doq")
    };
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), cfg));
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(5));
    assert_eq!(c.vn_round_trips, 0);
    assert_eq!(c.established_at(), Some(SimTime::from_millis(40)));
}

#[test]
fn version_zero_probe_gets_version_negotiation_statelessly() {
    // The paper's ZMap scan: an Initial with version 0 must elicit a VN
    // packet without creating connection state.
    let mut server = QuicServer::new(server_addr(), server_cfg("doq"));
    let probe = {
        let mut p = QuicPacket::new(
            PacketType::Initial,
            0,
            *b"scanscan",
            *b"probecid",
            0,
            &[0; 30],
        );
        p.token = &[];
        let mut buf = Vec::new();
        p.encode(&mut buf);
        buf
    };
    let responses = server.handle_datagram(SimTime::ZERO, client_addr(), &probe);
    assert_eq!(responses.len(), 1);
    let vn = VersionNegotiation::decode(&responses[0].1).expect("VN packet");
    assert!(vn.supported.contains(&QUIC_V1));
    assert_eq!(vn.dcid, *b"probecid", "echoes scanner's SCID as DCID");
    assert_eq!(server.len(), 0, "no state created");
}

#[test]
fn retry_costs_one_extra_round_trip() {
    let cfg = QuicConfig {
        retry_required: true,
        ..server_cfg("doq")
    };
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), cfg.clone()));
    let mut c = dial(cfg.clone(), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(5));
    assert!(c.is_established());
    assert_eq!(c.established_at(), Some(SimTime::from_millis(80)));

    // With a token from a previous connection, Retry is skipped.
    let (_, token) = get_ticket_and_token("doq");
    let mut sh2 = Shuttle::new(QuicServer::new(server_addr(), cfg.clone()));
    let mut c2 = dial(cfg, QUIC_V1, None, Some(token));
    sh2.run(&mut c2, SimTime::from_secs(5));
    assert_eq!(c2.established_at(), Some(SimTime::from_millis(40)));
}

#[test]
fn stream_exchange_like_a_dns_query() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(1));
    assert!(c.is_established());
    let id = c.open_bi();
    assert_eq!(id, 0, "first client bidi stream is 0 per RFC 9250");
    c.stream_send(id, b"dns-query", true);
    sh.run(&mut c, SimTime::from_secs(2));
    // Server sees the stream, echoes a response and FINs.
    let server_conn = sh.server.connection(client_addr()).unwrap();
    let new = server_conn.take_new_peer_streams();
    assert_eq!(new, vec![0]);
    let (data, fin) = server_conn.stream_recv(0);
    assert_eq!(data, b"dns-query");
    assert!(fin);
    server_conn.stream_send(0, b"dns-response", true);
    sh.run(&mut c, SimTime::from_secs(3));
    let (resp, fin) = c.stream_recv(id);
    assert_eq!(resp, b"dns-response");
    assert!(fin);
}

#[test]
fn multiple_streams_are_independent() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(1));
    let a = c.open_bi();
    let b = c.open_bi();
    assert_eq!((a, b), (0, 4));
    c.stream_send(a, b"q1", true);
    c.stream_send(b, b"q2", true);
    sh.run(&mut c, SimTime::from_secs(2));
    let server_conn = sh.server.connection(client_addr()).unwrap();
    assert_eq!(server_conn.take_new_peer_streams(), vec![0, 4]);
    assert_eq!(server_conn.stream_recv(0).0, b"q1");
    assert_eq!(server_conn.stream_recv(4).0, b"q2");
}

#[test]
fn large_stream_data_spans_datagrams() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(1));
    let id = c.open_bi();
    let blob: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
    c.stream_send(id, &blob, true);
    sh.run(&mut c, SimTime::from_secs(2));
    let server_conn = sh.server.connection(client_addr()).unwrap();
    let (data, fin) = server_conn.stream_recv(id);
    assert_eq!(data, blob);
    assert!(fin);
}

#[test]
fn zero_rtt_query_arrives_with_the_first_flight() {
    let cfg = QuicConfig {
        tls: TlsConfig {
            enable_0rtt: true,
            ..tls("doq")
        },
        ..QuicConfig::default()
    };
    // First connection to obtain an early-data-capable ticket.
    let mut sh0 = Shuttle::new(QuicServer::new(server_addr(), cfg.clone()));
    let mut c0 = dial(cfg.clone(), QUIC_V1, None, None);
    sh0.run(&mut c0, SimTime::from_secs(1));
    let ticket = c0.take_tickets().remove(0);
    assert!(ticket.allows_early_data);
    let token = c0.take_new_token();

    let mut sh = Shuttle::new(QuicServer::new(server_addr(), cfg.clone()));
    let mut c = dial(cfg, QUIC_V1, Some(ticket), token);
    let id = c.open_bi();
    c.stream_send(id, b"0rtt-query", true);
    // Only the client's first flight.
    let dgrams: Vec<_> = c.poll_transmit(SimTime::ZERO).collect();
    let total: usize = dgrams.iter().map(|d| d.len()).sum();
    assert!(total >= 1200);
    for d in &dgrams {
        sh.server.handle_datagram(SimTime::ZERO, client_addr(), d);
    }
    let server_conn = sh.server.connection(client_addr()).unwrap();
    assert_eq!(server_conn.take_new_peer_streams(), vec![0]);
    let (data, fin) = server_conn.stream_recv(0);
    assert_eq!(
        data, b"0rtt-query",
        "query readable before handshake completes"
    );
    assert!(fin);
    assert_eq!(
        c.early_data_accepted(),
        None,
        "client hasn't heard back yet"
    );
    sh.run(&mut c, SimTime::from_secs(1));
    assert_eq!(c.early_data_accepted(), Some(true));
}

#[test]
fn zero_rtt_rejected_replays_in_one_rtt() {
    // Ticket allows early data but this server has 0-RTT disabled
    // (e.g. key rotation): data must still arrive, post-handshake.
    let enable = QuicConfig {
        tls: TlsConfig {
            enable_0rtt: true,
            ..tls("doq")
        },
        ..QuicConfig::default()
    };
    let mut sh0 = Shuttle::new(QuicServer::new(server_addr(), enable.clone()));
    let mut c0 = dial(enable.clone(), QUIC_V1, None, None);
    sh0.run(&mut c0, SimTime::from_secs(1));
    let ticket = c0.take_tickets().remove(0);

    let strict = server_cfg("doq"); // enable_0rtt = false
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), strict));
    let mut c = dial(enable, QUIC_V1, Some(ticket), None);
    let id = c.open_bi();
    c.stream_send(id, b"replayed-query", true);
    sh.run(&mut c, SimTime::from_secs(2));
    assert_eq!(c.early_data_accepted(), Some(false));
    let server_conn = sh.server.connection(client_addr()).unwrap();
    let (data, fin) = server_conn.stream_recv(0);
    assert_eq!(data, b"replayed-query");
    assert!(fin);
}

#[test]
fn lost_client_initial_recovered_by_pto_at_one_second() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    sh.drop_c2s = Some(0); // lose the very first Initial
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(5));
    assert!(c.is_established());
    let t = c.established_at().unwrap();
    // PTO fires at ~1 s, then a normal 1-RTT handshake.
    assert!(t >= SimTime::from_millis(1000), "established at {t}");
    assert!(t <= SimTime::from_millis(1100), "established at {t}");
}

#[test]
fn lost_server_flight_packet_is_retransmitted() {
    // Drop one of the server's certificate datagrams via a lossy run:
    // simpler: drop the client's second datagram (the ACK), PTO covers.
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    sh.drop_c2s = Some(1);
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(6));
    assert!(c.is_established());
    // The query still completes end-to-end afterwards.
    let id = c.open_bi();
    c.stream_send(id, b"q", true);
    sh.run(&mut c, SimTime::from_secs(8));
    let server_conn = sh.server.connection(client_addr()).unwrap();
    assert_eq!(server_conn.stream_recv(0).0, b"q");
}

#[test]
fn connection_close_reaches_peer() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(1));
    c.close(0);
    sh.run(&mut c, SimTime::from_secs(2));
    assert!(c.is_closed());
    let server_conn = sh.server.connection(client_addr()).unwrap();
    assert!(server_conn.is_closed());
    assert_eq!(server_conn.error(), Some(&QuicError::PeerClosed(0)));
}

#[test]
fn idle_timeout_closes_the_connection() {
    let cfg = QuicConfig {
        max_idle: Duration::from_secs(3),
        ..server_cfg("doq")
    };
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), cfg.clone()));
    let mut c = dial(cfg, QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(1));
    assert!(c.is_established());
    // Let time pass without traffic.
    let _ = c.poll_transmit(SimTime::from_secs(10));
    assert!(c.is_closed());
    assert_eq!(c.error(), Some(&QuicError::IdleTimeout));
}

#[test]
fn no_common_alpn_fails_the_handshake() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("h3"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(2));
    assert!(!c.is_established());
    assert!(c.is_closed());
}

#[test]
fn draft_versions_work_end_to_end() {
    for v in [draft_version(29), draft_version(32), draft_version(34)] {
        let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
        let mut c = dial(server_cfg("doq"), v, None, None);
        sh.run(&mut c, SimTime::from_secs(1));
        assert!(c.is_established(), "version {v:#x}");
        assert_eq!(c.version(), v);
    }
}

#[test]
fn handshake_byte_volume_matches_table1_shape() {
    // Table 1: DoQ handshake C->R 2564, R->C 1304 bytes of IP payload
    // (with Session Resumption). Our UDP payloads should land in the
    // same regime: client dominated by the 1200-byte padded Initial(s),
    // server well under the client volume.
    let (ticket, token) = get_ticket_and_token("doq");
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("doq"), QUIC_V1, Some(ticket), Some(token));
    sh.run(&mut c, SimTime::from_millis(200));
    assert!(c.is_established());
    assert!(
        (1200..3500).contains(&sh.c2s_bytes),
        "client handshake bytes = {}",
        sh.c2s_bytes
    );
    assert!(
        (1200..2100).contains(&sh.s2c_bytes),
        "server handshake bytes = {}",
        sh.s2c_bytes
    );
    assert!(sh.c2s_bytes > sh.s2c_bytes);
}

// ---- connection migration (RFC 9000 §9) ---------------------------------

#[test]
fn connection_survives_client_rebind() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(1));
    assert!(c.is_established());
    let id = c.open_bi();
    c.stream_send(id, b"q1", true);
    sh.run(&mut c, SimTime::from_secs(2));
    sh.server
        .connection(client_addr())
        .unwrap()
        .stream_send(0, b"a1", true);
    sh.run(&mut c, SimTime::from_secs(3));
    assert_eq!(c.stream_recv(id).0, b"a1");

    // Wifi -> cellular: the client's source address changes mid-life.
    let new_addr = sa(3, 40001);
    c.rebind(sh.now, new_addr);
    assert!(c.path_probe().is_some(), "client probes the new path");
    let id2 = c.open_bi();
    c.stream_send(id2, b"q2", true);
    sh.run(&mut c, SimTime::from_secs(6));

    // The server rekeyed the connection under the new 4-tuple…
    assert!(sh.server.connection(client_addr()).is_none());
    let server_conn = sh.server.connection(new_addr).expect("migrated");
    // …validated the new path, and the query completed.
    assert_eq!(server_conn.path_probe(), None, "server validation done");
    server_conn.stream_send(id2, b"a2", true);
    sh.run(&mut c, SimTime::from_secs(8));
    assert_eq!(c.stream_recv(id2).0, b"a2");
    assert!(c.error().is_none(), "error: {:?}", c.error());
    assert_eq!(c.path_probe(), None, "client validation done");
    assert!(!c.is_closed());
}

#[test]
fn rebind_with_query_in_flight_recovers_by_retransmission() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(1));
    assert!(c.is_established());
    let id = c.open_bi();
    c.stream_send(id, b"in-flight", true);
    // Flush the query onto the wire, then rebind before it is answered.
    for d in c.poll_transmit(sh.now) {
        sh.server.handle_datagram(sh.now, client_addr(), &d);
    }
    c.rebind(sh.now, sa(3, 40001));
    sh.run(&mut c, SimTime::from_secs(6));
    let server_conn = sh.server.connection(sa(3, 40001)).expect("migrated");
    assert_eq!(server_conn.stream_recv(0).0, b"in-flight");
    server_conn.stream_send(0, b"answer", true);
    sh.run(&mut c, SimTime::from_secs(8));
    assert_eq!(c.stream_recv(id).0, b"answer");
    assert!(c.error().is_none(), "error: {:?}", c.error());
}

#[test]
fn unmatched_short_header_datagram_is_dropped_statelessly() {
    let mut server = QuicServer::new(server_addr(), server_cfg("doq"));
    // Short header (0x40), 8-byte CID naming no connection, padding.
    let mut dgram = vec![0x40u8];
    dgram.extend_from_slice(&[9u8; 8]);
    dgram.extend_from_slice(&[0u8; 32]);
    let responses = server.handle_datagram(SimTime::ZERO, client_addr(), &dgram);
    assert!(responses.is_empty());
    assert!(server.is_empty(), "no connection state created");
}

#[test]
fn unreachable_new_path_abandons_validation_and_closes() {
    let mut sh = Shuttle::new(QuicServer::new(server_addr(), server_cfg("doq")));
    let mut c = dial(server_cfg("doq"), QUIC_V1, None, None);
    sh.run(&mut c, SimTime::from_secs(1));
    assert!(c.is_established());
    // Rebind onto a black-holed path: poll the client along its own
    // timeline but deliver nothing in either direction.
    let mut now = sh.now;
    c.rebind(now, sa(3, 40001));
    let mut challenges = 0;
    for _ in 0..64 {
        if c.is_closed() {
            break;
        }
        challenges += c.poll_transmit(now).len().min(1);
        let Some(next) = c.next_timeout() else { break };
        now = next.max(now);
    }
    assert!(c.is_closed());
    assert_eq!(c.error(), Some(&QuicError::PathValidationFailed));
    assert!(
        challenges >= 2,
        "probe was retransmitted before giving up ({challenges})"
    );
}
