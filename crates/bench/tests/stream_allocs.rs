//! Pins the allocation budget of the byte stream a page load runs: a
//! 40,000-byte response through HTTP/2 frames and TLS records, read
//! back in 1,460-byte pieces (one full TCP segment each).
//!
//! Only built under the `count-allocs` feature (which installs the
//! counting global allocator). Records and frames are encoded straight
//! into the output buffer, sized once per call, and decoded in place
//! from the input buffer; decrypted bytes leave the TLS engine without
//! giving up its buffer. The design before that — a copy per record and
//! per frame, `Vec`-returning encoders and buffers handed away on every
//! read — counted, in the order of the budgets below: `write_app` 13,
//! warm `read_wire` 6, `send_response` 13, warm `read_wire` 17. A
//! regression here — a per-record or per-frame copy sneaking back in —
//! fails before it shows up as a throughput drop in the benchmark.
//!
//! Run with:
//!
//! ```text
//! cargo test --release -p doqlab-bench --features count-allocs --test stream_allocs
//! ```
#![cfg(feature = "count-allocs")]

use doqlab_netstack::http2::H2Connection;
use doqlab_netstack::tls::{TlsClient, TlsConfig, TlsServer, RECORD_OVERHEAD};
use doqlab_simnet::alloc_count::thread_allocations;
use doqlab_simnet::SimTime;
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

        // HPACK's header block, then `out` sized once for all frames.
        let ((), send) = counted(|| server.send_response(stream, &headers, &body));
        let wire = server.take_output();
        // HPACK's decoded headers, the body growing over three DATA
        // frames and the completed message; no frame copies.
        let ((), read) = counted(|| {
            for piece in wire.chunks(PIECE) {
                client.read_wire(piece);
            }
        });
        let responses = client.take_messages();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].body, body);
        (send, read)
    };
    // The first exchange swaps SETTINGS, fills both HPACK tables and
    // warms the client's input buffer.
    exchange();
    assert_eq!(exchange(), (2, 13), "send_response, read_wire");
}
