//! Pins the allocation budget of the QUIC packet path: a DoQ handshake
//! with one 40-byte query and its 27-byte answer, then a second query
//! and answer on the established connection, all in memory.
//!
//! Only built under the `count-allocs` feature (which installs the
//! counting global allocator). Received datagrams are decoded in place:
//! CRYPTO and STREAM bytes go straight from the datagram into the
//! receive buffers. A sent packet's record keeps offset/length ranges,
//! and a retransmission reads its bytes back from the send buffer. Each
//! datagram is encoded once into a vector of its exact size (one
//! allocation per datagram, kept on purpose: see DESIGN.md §11). The
//! design before that — a `Vec` per decoded frame and frame list, a
//! clone of every sent frame, three growing buffers per datagram and a
//! `Vec` of datagrams per poll — counted, in the order of the budgets
//! below: 347 allocations for the handshake and exchange over 12
//! datagrams, 66 for the warm exchange over 3. A regression here — a
//! per-frame copy sneaking back in — fails before it shows up as a
//! throughput drop in the benchmark.
//!
//! Run with:
//!
//! ```text
//! cargo test --release -p doqlab-bench --features count-allocs --test quic_allocs
//! ```
#![cfg(feature = "count-allocs")]

use doqlab_netstack::quic::{QuicConfig, QuicConnection, QuicServer, QUIC_V1};
use doqlab_netstack::tls::TlsConfig;
use doqlab_simnet::alloc_count::thread_allocations;
use doqlab_simnet::{Ipv4Addr, SimRng, SimTime, SocketAddr};
use std::hint::black_box;

const QUERY: [u8; 40] = [0x51; 40];
const ANSWER: [u8; 27] = [0x41; 27];

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_allocations();
    let out = black_box(f());
    (out, thread_allocations() - before)
}

fn addr(host: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, host), port)
}

/// Run datagrams both ways until the client holds the answer on
/// `stream`; the server answers every finished peer stream. Returns the
/// datagrams sent.
fn exchange(client: &mut QuicConnection, server: &mut QuicServer, stream: u64) -> usize {
    let client_addr = client.local;
    let mut datagrams = 0;
    for _ in 0..16 {
        for d in client.poll_transmit(SimTime::ZERO) {
            datagrams += 1;
            server.handle_datagram(SimTime::ZERO, client_addr, &d);
        }
        for (_, d) in server.poll_transmit(SimTime::ZERO) {
            datagrams += 1;
            client.handle_datagram(SimTime::ZERO, &d);
        }
        let conn = server.connection(client_addr).expect("server connection");
        for s in conn.take_new_peer_streams() {
            let (query, fin) = conn.stream_recv(s);
            assert!(fin && query == QUERY, "the query arrives whole");
            conn.stream_send(s, &ANSWER, true);
        }
        let (answer, fin) = client.stream_recv(stream);
        if fin {
            assert_eq!(answer, ANSWER);
            return datagrams;
        }
    }
    panic!("in-memory DoQ exchange stalled");
}

#[test]
fn the_quic_packet_path_has_a_fixed_allocation_budget() {
    let cfg = QuicConfig {
        tls: TlsConfig {
            server_id: 1,
            alpn: vec![b"doq".to_vec()],
            cert_chain_len: 3_000,
            ..TlsConfig::default()
        },
        ..QuicConfig::default()
    };
    let mut rng = SimRng::new(1);
    // As the benchmark's QUIC layer replay does, both endpoints get
    // their own copy of the configuration.
    let ((mut client, mut server, fresh_datagrams), fresh) = counted(|| {
        let mut client = QuicConnection::client(
            cfg.clone(),
            addr(1, 40_000),
            addr(2, 853),
            QUIC_V1,
            None,
            None,
            &mut rng,
            SimTime::ZERO,
        );
        let mut server = QuicServer::new(addr(2, 853), cfg.clone());
        let stream = client.open_bi();
        client.stream_send(stream, &QUERY, true);
        let datagrams = exchange(&mut client, &mut server, stream);
        (client, server, datagrams)
    });
    assert!(client.is_established());
    let (warm_datagrams, warm) = counted(|| {
        let stream = client.open_bi();
        client.stream_send(stream, &QUERY, true);
        exchange(&mut client, &mut server, stream)
    });
    assert_eq!((fresh_datagrams, warm_datagrams), (12, 3), "datagrams");
    assert_eq!(
        (fresh, warm),
        (104, 8),
        "fresh handshake and exchange, warm exchange"
    );
}
