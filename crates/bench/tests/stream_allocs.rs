//! Pins the allocation budget of the byte stream a page load runs: a
//! 40,000-byte response through TCP segments, HTTP/2 frames and TLS
//! records, read back in 1,460-byte pieces (one full TCP segment each).
//!
//! Only built under the `count-allocs` feature (which installs the
//! counting global allocator). Segments, records and frames are encoded
//! straight into the output buffer, sized once per call, and decoded in
//! place from the input buffer; received bytes leave TCP and the TLS
//! engine without giving up their buffers. HPACK keeps its tables in one
//! byte arena, writes the header block in place and decodes it into one
//! list per message. The design before that — a copy per record and per
//! frame, `Vec`-returning encoders and buffers handed away on every
//! read — counted `write_app` 13 and warm `read_wire` 6 for TLS, then
//! with a `Vec` per segment payload and options list and a `String` per
//! header field, a warm TCP response 182 and `send_response` 2 and warm
//! `read_wire` 13 for HTTP/2 (17 and 13 before HTTP/2 frames were
//! borrowed). A regression here — a per-segment, per-record, per-frame
//! or per-header copy sneaking back in — fails before it shows up as a
//! throughput drop in the benchmark.
//!
//! Run with:
//!
//! ```text
//! cargo test --release -p doqlab-bench --features count-allocs --test stream_allocs
//! ```
#![cfg(feature = "count-allocs")]

use doqlab_netstack::http2::H2Connection;
use doqlab_netstack::tcp::{TcpConfig, TcpSocket};
use doqlab_netstack::tls::{TlsClient, TlsConfig, TlsServer, RECORD_OVERHEAD};
use doqlab_simnet::alloc_count::thread_allocations;
use doqlab_simnet::{Ipv4Addr, Packet, SimTime, SocketAddr};
use std::hint::black_box;

const BODY_LEN: usize = 40_000;
/// One full segment's payload at the default MSS.
const PIECE: usize = 1_460;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_allocations();
    let out = black_box(f());
    (out, thread_allocations() - before)
}

fn addr(host: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, host), port)
}

/// Packets both ways until neither socket has anything to send; what
/// the client reads is appended to `got`.
fn shuttle(
    client: &mut TcpSocket,
    server: &mut TcpSocket,
    wire: &mut Vec<Packet>,
    got: &mut Vec<u8>,
) {
    loop {
        server.transmit(SimTime::ZERO, wire);
        let mut moved = !wire.is_empty();
        for pkt in wire.drain(..) {
            client.on_packet(SimTime::ZERO, &pkt);
        }
        got.extend(client.recv());
        client.transmit(SimTime::ZERO, wire);
        moved |= !wire.is_empty();
        for pkt in wire.drain(..) {
            server.on_packet(SimTime::ZERO, &pkt);
        }
        if !moved {
            return;
        }
    }
}

#[test]
fn tcp_segments_have_a_fixed_allocation_budget() {
    let (client_addr, server_addr) = (addr(1, 40_000), addr(2, 443));
    let mut client = TcpSocket::client(client_addr, server_addr, 1, TcpConfig::default());
    let mut server = TcpSocket::server(server_addr, client_addr, 2, TcpConfig::default());
    let (mut wire, mut got) = (Vec::new(), Vec::with_capacity(BODY_LEN));
    client.open(SimTime::ZERO);
    shuttle(&mut client, &mut server, &mut wire, &mut got);
    assert!(client.is_established() && server.is_established());

    let body = vec![7u8; BODY_LEN];
    let mut respond = || {
        got.clear();
        let ((), allocs) = counted(|| {
            server.send(&body);
            shuttle(&mut client, &mut server, &mut wire, &mut got);
        });
        assert_eq!(got, body);
        allocs
    };
    // The first response opens the congestion window and grows the
    // send and receive buffers; the second sends a whole window at
    // once and fills the packet pool for it.
    respond();
    respond();
    assert_eq!(respond(), 0, "send, transmit, on_packet, recv");
}

/// A TLS client and server for `h2` with the handshake done.
fn tls_pair() -> (TlsClient, TlsServer) {
    let cfg = TlsConfig {
        server_id: 1,
        alpn: vec![b"h2".to_vec()],
        ..TlsConfig::default()
    };
    let mut client = TlsClient::new(cfg.clone(), None);
    let mut server = TlsServer::new(cfg);
    client.start(SimTime::ZERO);
    while !(client.is_connected() && server.is_connected()) {
        server.read_wire(SimTime::ZERO, &client.take_output());
        client.read_wire(SimTime::ZERO, &server.take_output());
    }
    (client, server)
}

#[test]
fn tls_records_have_a_fixed_allocation_budget() {
    let (mut client, mut server) = tls_pair();
    let body = vec![7u8; BODY_LEN];
    // A first response warms the client's record and plaintext buffers.
    server.write_app(&body);
    for piece in server.take_output().chunks(PIECE) {
        client.read_wire(SimTime::ZERO, piece);
    }
    assert_eq!(client.read_app().len(), BODY_LEN);

    // Three records into the output buffer, sized once.
    let ((), write) = counted(|| server.write_app(&body));
    let wire = server.take_output();
    assert_eq!(wire.len(), BODY_LEN + 3 * (5 + RECORD_OVERHEAD));
    // Decoded in place into the warm buffers.
    let ((), read) = counted(|| {
        for piece in wire.chunks(PIECE) {
            client.read_wire(SimTime::ZERO, piece);
        }
    });
    assert_eq!(client.read_app().as_slice(), &body[..]);
    assert_eq!((write, read), (1, 0), "write_app, read_wire");
}

#[test]
fn http2_frames_have_a_fixed_allocation_budget() {
    let mut client = H2Connection::client();
    let mut server = H2Connection::server();
    let get = [
        (":method", "GET"),
        (":scheme", "https"),
        (":authority", "www.example.test"),
        (":path", "/"),
    ];
    let body = vec![7u8; BODY_LEN];
    let length = BODY_LEN.to_string();
    let headers = [
        (":status", "200"),
        ("content-type", "text/html"),
        ("content-length", length.as_str()),
        ("cache-control", "max-age=600"),
    ];
    // One request and its response: the allocations of
    // `send_response` and of reading its frames back.
    let mut exchange = || {
        let stream = client.send_request(&get, b"");
        server.read_wire(&client.take_output());
        assert_eq!(server.take_messages().len(), 1);
        client.read_wire(&server.take_output());

        // `out` sized once for all frames, the header block included.
        let ((), send) = counted(|| server.send_response(stream, &headers, &body));
        let wire = server.take_output();
        // HPACK's header list (its string and its field ends) and the
        // body, reserved once from `content-length`; no frame copies.
        let ((), read) = counted(|| {
            for piece in wire.chunks(PIECE) {
                client.read_wire(piece);
            }
        });
        let responses: Vec<_> = client.take_messages().collect();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].body, body);
        (send, read)
    };
    // The first exchange swaps SETTINGS, fills both HPACK tables and
    // warms the client's input buffer.
    exchange();
    assert_eq!(exchange(), (1, 3), "send_response, read_wire");
}
