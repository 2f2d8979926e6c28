//! Property-based transport tests: whatever the network does within
//! the model's envelope (loss, delay, duplication), the stacks must
//! deliver exactly the bytes that were sent, in order — and however
//! the byte stream is cut, TLS records and HTTP/2 frames reassemble.

use doqlab_netstack::http2::H2Connection;
use doqlab_netstack::quic::{QuicConfig, QuicConnection, QuicServer, QUIC_V1};
use doqlab_netstack::tcp::{TcpConfig, TcpSocket};
use doqlab_netstack::tls::{TlsClient, TlsConfig, TlsServer};
use doqlab_simnet::{Duration, Ipv4Addr, SimRng, SimTime, SocketAddr};
use proptest::prelude::*;

fn sa(h: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), port)
}

/// Feed `wire` to `read` in pieces whose sizes cycle through `sizes`.
fn deliver_in_pieces(wire: &[u8], sizes: &[usize], mut read: impl FnMut(&[u8])) {
    let mut rest = wire;
    for &n in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(n.min(rest.len()));
        read(piece);
        rest = tail;
    }
}

/// A TLS client and server for `alpn` with the handshake done.
fn tls_pair(alpn: &[u8]) -> (TlsClient, TlsServer) {
    let cfg = TlsConfig {
        server_id: 3,
        alpn: vec![alpn.to_vec()],
        ..TlsConfig::default()
    };
    let mut c = TlsClient::new(cfg.clone(), None);
    let mut s = TlsServer::new(cfg);
    c.start(SimTime::ZERO);
    while !(c.is_connected() && s.is_connected()) {
        s.read_wire(SimTime::ZERO, &c.take_output());
        c.read_wire(SimTime::ZERO, &s.take_output());
    }
    (c, s)
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn an_http2_response_through_tls_is_pinned() {
    // A GET and its 40,000-byte response. The client's flight carries
    // the preface, SETTINGS and HEADERS; the server's first flight its
    // SETTINGS and the ACK; its second HEADERS and three DATA frames in
    // three application-data records whose 16 KiB boundaries fall
    // inside frames. Their wire bytes must not move with how the layers
    // buffer and copy them.
    let (mut c, mut s) = tls_pair(b"h2");
    let (mut hc, mut hs) = (H2Connection::client(), H2Connection::server());
    let get = [
        (":method", "GET"),
        (":scheme", "https"),
        (":authority", "www.example.test"),
        (":path", "/"),
    ];
    let stream = hc.send_request(&get, b"");
    c.write_app(&hc.take_output());
    let request = c.take_output();
    s.read_wire(SimTime::ZERO, &request);
    hs.read_wire(s.read_app().as_slice());
    assert_eq!(hs.take_messages().len(), 1);
    s.write_app(&hs.take_output());
    let settings = s.take_output();
    c.read_wire(SimTime::ZERO, &settings);

    let body: Vec<u8> = (0..40_000usize).map(|i| (i * 31 % 251) as u8).collect();
    let length = body.len().to_string();
    let headers = [
        (":status", "200"),
        ("content-type", "text/html"),
        ("content-length", length.as_str()),
        ("cache-control", "max-age=600"),
    ];
    hs.send_response(stream, &headers, &body);
    s.write_app(&hs.take_output());
    let response = s.take_output();
    c.read_wire(SimTime::ZERO, &response);
    hc.read_wire(c.read_app().as_slice());
    let responses: Vec<_> = hc.take_messages().collect();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].body, body);

    let pins: Vec<(usize, u64)> = [&request, &settings, &response]
        .into_iter()
        .map(|wire| (wire.len(), fnv1a(wire)))
        .collect();
    assert_eq!(
        pins,
        [
            (121, 0xeb8a_2709_0606_47de),
            (76, 0xb078_0856_34d5_f1b9),
            (40_134, 0x81b5_777d_68bc_a401),
        ]
    );
}

/// One datagram as sent: whether it went to the server, its length and
/// its FNV-1a.
type DatagramPin = (bool, usize, u64);

/// Run `client` against `server` over a 10 ms one-way path until the
/// client holds the whole answer on `stream`. The server answers each
/// peer stream once the stream is finished. Server datagrams to this
/// client whose index in this run is listed in `lost` never arrive.
/// Every datagram sent between the two, lost ones included, is
/// appended to `pins`.
fn doq_exchange(
    client: &mut QuicConnection,
    server: &mut QuicServer,
    stream: u64,
    now: &mut SimTime,
    lost: &[usize],
    pins: &mut Vec<DatagramPin>,
) {
    const ANSWER: &[u8] = b"an answer of 27 bytes......";
    let delay = Duration::from_millis(10);
    // (arrival, to the server, bytes)
    let mut wire: Vec<(SimTime, bool, Vec<u8>)> = Vec::new();
    let (mut server_sent, mut open, mut answer) = (0, Vec::new(), Vec::new());
    for _ in 0..1_000 {
        for d in client.poll_transmit(*now) {
            pins.push((true, d.len(), fnv1a(&d)));
            wire.push((*now + delay, true, d.to_vec()));
        }
        for (peer, d) in server.poll_transmit(*now) {
            if peer != client.local {
                continue; // an earlier connection's retransmissions
            }
            pins.push((false, d.len(), fnv1a(&d)));
            if !lost.contains(&server_sent) {
                wire.push((*now + delay, false, d.to_vec()));
            }
            server_sent += 1;
        }
        match (0..wire.len()).min_by_key(|&i| wire[i].0) {
            Some(i) => {
                let (at, to_server, d) = wire.remove(i);
                *now = at.max(*now);
                if to_server {
                    assert!(server.handle_datagram(*now, client.local, &d).is_empty());
                } else {
                    client.handle_datagram(*now, &d);
                }
            }
            None => match [client.next_timeout(), server.next_timeout()]
                .into_iter()
                .flatten()
                .min()
            {
                Some(t) => *now = t.max(*now),
                None => break,
            },
        }
        if let Some(conn) = server.connection(client.local) {
            open.extend(conn.take_new_peer_streams());
            open.retain(|&s| {
                let (_, fin) = conn.stream_recv(s);
                if fin {
                    conn.stream_send(s, ANSWER, true);
                }
                !fin
            });
        }
        let (chunk, fin) = client.stream_recv(stream);
        answer.extend(chunk);
        if fin {
            assert_eq!(answer, ANSWER);
            return;
        }
    }
    panic!("DoQ exchange stalled");
}

#[test]
fn a_doq_handshake_with_a_lost_flight_and_a_0rtt_resumption_is_pinned() {
    // A full handshake whose second server datagram (certificate
    // CRYPTO in a Handshake packet) is lost, so its bytes go out again
    // as a retransmission, then one query and answer. Then a resumed
    // connection with the ticket and NEW_TOKEN from the first, whose
    // query rides in 0-RTT. The wire bytes of every datagram must not
    // move with how frames and packets are built and read.
    let tls = TlsConfig {
        server_id: 9,
        alpn: vec![b"doq".to_vec()],
        enable_0rtt: true,
        ..TlsConfig::default()
    };
    let cfg = QuicConfig {
        tls,
        ..QuicConfig::default()
    };
    let mut server = QuicServer::new(sa(2, 853), cfg.clone());
    let mut rng = SimRng::new(11);
    let mut now = SimTime::ZERO;
    let mut pins = Vec::new();
    let query = [0x51u8; 40];

    let mut first = QuicConnection::client(
        cfg.clone(),
        sa(1, 50_000),
        sa(2, 853),
        QUIC_V1,
        None,
        None,
        &mut rng,
        now,
    );
    let stream = first.open_bi();
    first.stream_send(stream, &query, true);
    doq_exchange(&mut first, &mut server, stream, &mut now, &[1], &mut pins);
    let full = pins.len();
    let ticket = first.take_tickets().pop().expect("a session ticket");
    let token = first.take_new_token().expect("a NEW_TOKEN");

    now += Duration::from_secs(1);
    let mut resumed = QuicConnection::client(
        cfg,
        sa(1, 50_001),
        sa(2, 853),
        QUIC_V1,
        Some(ticket),
        Some(token),
        &mut rng,
        now,
    );
    let stream = resumed.open_bi();
    resumed.stream_send(stream, &query, true);
    doq_exchange(&mut resumed, &mut server, stream, &mut now, &[], &mut pins);
    assert!(resumed.is_resumption());
    assert_eq!(resumed.early_data_accepted(), Some(true));

    let (full, resumed) = pins.split_at(full);
    assert_eq!(
        full,
        [
            (true, 1200, 7_816_936_220_237_592_704),
            (false, 1200, 17_899_929_100_125_173_185),
            (false, 1191, 8_144_409_022_914_403_129),
            (false, 634, 6_597_097_688_110_020_670),
            (true, 1200, 8_306_676_623_278_338_350),
            (true, 51, 455_547_568_729_486_259),
            (false, 1191, 8_552_408_544_578_384_423),
            (true, 91, 9_844_777_293_522_800_087),
            (true, 73, 4_030_602_789_436_265_627),
            (false, 49, 17_569_067_982_942_810_459),
            (false, 258, 904_669_720_268_799_581),
            (false, 65, 12_633_362_291_086_988_549),
            (true, 34, 4_034_339_259_852_671_343),
        ]
    );
    assert_eq!(
        resumed,
        [
            (true, 1200, 1_649_006_270_152_414_728),
            (true, 89, 724_726_289_841_904_420),
            (false, 1200, 13_744_198_805_936_212_259),
            (false, 65, 12_657_075_041_891_737_278),
            (true, 1200, 8_302_720_530_257_732_362),
        ]
    );
}

/// Drive two TCP sockets over a lossy in-order pipe, `a` writing
/// `data` `piece` bytes per step (so its send buffer wraps as acks
/// drain it) and closing with the last piece; returns what `b`
/// received and whether `a`'s FIN reached it. A `piece` of at least
/// `data.len()` writes and closes before the first poll, so the close
/// comes in SynSent.
fn tcp_transfer(data: &[u8], piece: usize, loss_seed: u64, loss: f64) -> (Vec<u8>, bool) {
    let mut rng = SimRng::new(loss_seed);
    let mut a = TcpSocket::client(sa(1, 1), sa(2, 2), 7, TcpConfig::default());
    let mut b = TcpSocket::server(sa(2, 2), sa(1, 1), 9, TcpConfig::default());
    a.open(SimTime::ZERO);
    let mut unsent = data.chunks(piece).peekable();
    let mut now = SimTime::ZERO;
    let mut received = Vec::new();
    for _ in 0..50_000 {
        if let Some(chunk) = unsent.next() {
            a.send(chunk);
        }
        if unsent.peek().is_none() && a.can_send() {
            a.close();
        }
        let mut idle = true;
        for seg in a.poll(now) {
            if !rng.chance(loss) {
                b.on_segment(now, &seg);
            }
            idle = false;
        }
        for seg in b.poll(now) {
            if !rng.chance(loss) {
                a.on_segment(now, &seg);
            }
            idle = false;
        }
        received.extend(b.recv());
        if b.peer_closed() && received.len() >= data.len() {
            break;
        }
        if idle {
            // Jump to the next retransmission timer.
            match [a.next_timeout(), b.next_timeout()]
                .into_iter()
                .flatten()
                .min()
            {
                Some(t) => now = t.max(now + Duration::from_micros(1)),
                None => break,
            }
        } else {
            now += Duration::from_millis(1);
        }
    }
    (received, b.peer_closed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tcp_delivers_exactly_under_loss(
        len in 0usize..20_000,
        piece in 1usize..5_000,
        seed in any::<u64>(),
        loss in 0.0f64..0.25,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        // In random pieces, and written and closed whole while the
        // handshake is under way (the FIN waits in SynSent): either way
        // all the data arrive, then the FIN.
        for piece in [piece, usize::MAX] {
            let (received, fin) = tcp_transfer(&data, piece, seed, loss);
            prop_assert_eq!(&received, &data);
            prop_assert!(fin, "no FIN after {} bytes in {}-byte pieces", len, piece);
        }
    }

    #[test]
    fn tls_stream_is_transparent_under_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..40_000), 1..5),
        chunk in 1usize..700,
    ) {
        let cfg = TlsConfig {
            server_id: 3,
            alpn: vec![b"dot".to_vec()],
            ..TlsConfig::default()
        };
        let mut c = TlsClient::new(cfg.clone(), None);
        let mut s = TlsServer::new(cfg);
        c.start(SimTime::ZERO);
        for p in &payloads {
            c.write_app(p);
        }
        let mut server_got = Vec::new();
        for _ in 0..12 {
            let out = c.take_output();
            for piece in out.chunks(chunk) {
                s.read_wire(SimTime::ZERO, piece);
            }
            server_got.extend(s.read_app());
            let out = s.take_output();
            for piece in out.chunks(chunk) {
                c.read_wire(SimTime::ZERO, piece);
            }
            if c.is_connected() && s.is_connected() {
                let out = c.take_output();
                for piece in out.chunks(chunk) {
                    s.read_wire(SimTime::ZERO, piece);
                }
                server_got.extend(s.read_app());
                break;
            }
        }
        let want: Vec<u8> = payloads.concat();
        prop_assert_eq!(server_got, want);
    }

    #[test]
    fn http2_bodies_survive_any_chunking(
        request in proptest::collection::vec(any::<u8>(), 0..70_000),
        response in proptest::collection::vec(any::<u8>(), 0..70_000),
        sizes in proptest::collection::vec(1usize..20_000, 1..8),
    ) {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        let post = [(":method", "POST"), (":path", "/dns-query")];
        let stream = c.send_request(&post, &request);
        deliver_in_pieces(&c.take_output(), &sizes, |piece| s.read_wire(piece));
        let got: Vec<_> = s.take_messages().collect();
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0].body, &request);

        s.send_response(stream, &[(":status", "200")], &response);
        deliver_in_pieces(&s.take_output(), &sizes, |piece| c.read_wire(piece));
        let got: Vec<_> = c.take_messages().collect();
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0].body, &response);
    }

    #[test]
    fn quic_stream_delivers_exactly_under_loss(
        len in 1usize..30_000,
        seed in any::<u64>(),
        loss in 0.0f64..0.2,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 17 % 249) as u8).collect();
        let tls = TlsConfig { server_id: 5, alpn: vec![b"doq".to_vec()], ..TlsConfig::default() };
        let cfg = QuicConfig { tls, ..QuicConfig::default() };
        let mut rng = SimRng::new(seed);
        let mut client = QuicConnection::client(
            cfg.clone(), sa(1, 50_000), sa(2, 853), QUIC_V1, None, None, &mut rng, SimTime::ZERO,
        );
        let mut server = QuicServer::new(sa(2, 853), cfg);
        let stream = client.open_bi();
        client.stream_send(stream, &data, true);
        let mut now = SimTime::ZERO;
        let mut got = Vec::new();
        let mut fin = false;
        for _ in 0..50_000 {
            let mut idle = true;
            for d in client.poll_transmit(now) {
                if !rng.chance(loss) {
                    server.handle_datagram(now, sa(1, 50_000), &d);
                }
                idle = false;
            }
            for (_, d) in server.poll_transmit(now) {
                if !rng.chance(loss) {
                    client.handle_datagram(now, &d);
                }
                idle = false;
            }
            if let Some(conn) = server.connection(sa(1, 50_000)) {
                let _ = conn.take_new_peer_streams();
                let (chunk, f) = conn.stream_recv(stream);
                got.extend(chunk);
                fin |= f;
                if fin && got.len() >= data.len() {
                    break;
                }
            }
            if idle {
                match [client.next_timeout(), server.next_timeout()]
                    .into_iter()
                    .flatten()
                    .min()
                {
                    Some(t) => now = t.max(now + Duration::from_micros(1)),
                    None => break,
                }
            } else {
                now += Duration::from_millis(2);
            }
        }
        prop_assert!(fin, "stream must finish (loss {loss})");
        prop_assert_eq!(got, data);
    }

    #[test]
    fn quic_datagrams_never_panic_when_corrupted(
        seed in any::<u64>(),
        corrupt_at in any::<usize>(),
        new_byte in any::<u8>(),
    ) {
        let tls = TlsConfig { server_id: 5, alpn: vec![b"doq".to_vec()], ..TlsConfig::default() };
        let cfg = QuicConfig { tls, ..QuicConfig::default() };
        let mut rng = SimRng::new(seed);
        let mut client = QuicConnection::client(
            cfg.clone(), sa(1, 50_000), sa(2, 853), QUIC_V1, None, None, &mut rng, SimTime::ZERO,
        );
        let mut server = QuicServer::new(sa(2, 853), cfg);
        for mut d in client.poll_transmit(SimTime::ZERO) {
            if !d.is_empty() {
                let at = corrupt_at % d.len();
                d[at] = new_byte;
            }
            // Must not panic, whatever the corruption did.
            server.handle_datagram(SimTime::ZERO, sa(1, 50_000), &d);
        }
        let _ = server.poll_transmit(SimTime::ZERO);
    }
}
