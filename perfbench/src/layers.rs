//! Per-layer replays: each layer's public functions driven directly on
//! inputs taken from the workload — its DNS messages, its path delays,
//! its resolvers' certificate sizes, its HTTP/2 header blocks, its Zipf
//! id stream — and timed in isolation. Every timing is the median of
//! [`ROUNDS`] rounds after one untimed warm-up round.

use crate::workload::{Campaign, Inputs, Workload};
use crate::{alloc, median};
use doqlab_dnswire::{Message, Name, NameId, Question, Rcode, RecordType, ResourceRecord};
use doqlab_measure::populations::PopulationsCampaign;
use doqlab_netstack::http2::{
    doh_request_headers, doh_response_headers, HpackDecoder, HpackEncoder,
};
use doqlab_netstack::quic::{QuicConfig, QuicConnection, QuicServer, QUIC_V1};
use doqlab_netstack::tcp::{TcpConfig, TcpSocket};
use doqlab_netstack::tls::{SessionTicket, TlsClient, TlsConfig, TlsServer};
use doqlab_resolver::host::{negative_soa, NEGATIVE_TTL};
use doqlab_resolver::{authoritative_answer, DnsCache, WorkloadGen, WorkloadSpec};
use doqlab_simnet::path::FixedPathModel;
use doqlab_simnet::{
    Duration, EventQueue, GeoPathModel, Ipv4Addr, SimRng, SimTime, Simulator, SocketAddr,
};
use std::hint::black_box;
use std::time::Instant;

/// Timed rounds per replay.
const ROUNDS: usize = 7;
/// Operations per round of the per-operation replays.
const OPS: usize = 20_000;
/// Connections per round of the handshake replays.
const HANDSHAKES: usize = 200;
/// Events pending in the event-queue hold model.
const QUEUE_DEPTH: usize = 64;
/// Used arenas whose reset is timed, spread over the grid.
const RESET_SAMPLES: usize = 12;

/// The median over [`ROUNDS`] rounds of the mean ns per call of `op`,
/// called `iters` times a round, after one untimed round.
fn per_op_ns(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..=ROUNDS {
        let start = Instant::now();
        for i in 0..iters {
            op(i);
        }
        if round > 0 {
            rounds.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    median(&rounds)
}

/// `Message::encode` and `Message::decode` on the workload's messages.
pub struct DnsWire {
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Allocations per message encoded and decoded once.
    pub allocs_per_msg: f64,
}

/// The DNS messages of the workload's units: every name it queries, as
/// the query and the resolver's answer (NXDOMAIN with its SOA for the
/// population's nonexistent tail).
fn dns_messages(inputs: &Inputs) -> Vec<Message> {
    let names: Vec<Name> = match &inputs.campaign {
        Campaign::Webperf(_) => inputs
            .pages
            .iter()
            .flat_map(|p| p.unique_domains())
            .map(|d| Name::parse(&d).expect("page domains are valid names"))
            .collect(),
        Campaign::Populations(c) => {
            let gen = WorkloadGen::new(zipf_spec(c));
            (0..c.domains)
                .map(|rank| gen.query_for_rank(rank).0)
                .collect()
        }
        // Single-query units, impaired or not, warm and measure one name.
        Campaign::SingleQuery(_) | Campaign::Impairments(_) => {
            vec![Name::parse("google.com").expect("a valid name")]
        }
    };
    names
        .into_iter()
        .enumerate()
        .flat_map(|(i, name)| {
            let question = Question::new(name.clone(), RecordType::A);
            let query = Message::query(i as u16, name, RecordType::A);
            let answers = authoritative_answer(&question);
            let response = if answers.is_empty() {
                let mut response = Message::error_response_to(&query, Rcode::NxDomain);
                response.authorities.push(negative_soa(&question));
                response
            } else {
                Message::response_to(&query, answers)
            };
            [query, response]
        })
        .collect()
}

pub fn dnswire(inputs: &Inputs) -> DnsWire {
    let messages = dns_messages(inputs);
    let wires: Vec<Vec<u8>> = messages.iter().map(Message::encode).collect();
    let n = messages.len();
    alloc::set_counting(true);
    let before = alloc::thread_allocations();
    for (message, wire) in messages.iter().zip(&wires) {
        black_box(message.encode());
        black_box(Message::decode(wire).expect("an encoded message decodes"));
    }
    let allocs = alloc::thread_allocations() - before;
    alloc::set_counting(false);
    DnsWire {
        encode_ns: per_op_ns(OPS, |i| {
            black_box(messages[i % n].encode());
        }),
        decode_ns: per_op_ns(OPS, |i| {
            black_box(Message::decode(&wires[i % n]).expect("an encoded message decodes"));
        }),
        allocs_per_msg: allocs as f64 / n as f64,
    }
}

/// `EventQueue` push + pop, ns per pair, in a hold model: [`QUEUE_DEPTH`]
/// events pending; each step pops the earliest and schedules its
/// successor one path delay later, cycling through the one-way delays
/// between the workload's vantage points and resolvers.
pub fn event_queue_ns(inputs: &Inputs) -> f64 {
    let model = GeoPathModel::with_defaults();
    let delays: Vec<Duration> = inputs
        .vps
        .iter()
        .flat_map(|vp| inputs.resolvers.iter().map(move |&r| (vp, r)))
        .map(|(vp, r)| model.geodesic_delay(&vp.location, &inputs.population[r].location))
        .collect();
    let n = delays.len();
    let mut queue = EventQueue::new();
    for i in 0..QUEUE_DEPTH {
        queue.push(SimTime::ZERO + delays[i % n], i);
    }
    per_op_ns(OPS, |i| {
        let (at, event) = queue.pop().expect("the hold model keeps events pending");
        queue.push(at + delays[i % n], black_box(event));
    })
}

/// `Simulator::reset` on an arena one of the workload's units just used,
/// µs: the median over [`RESET_SAMPLES`] units spread over the grid.
pub fn reset_us(inputs: &Inputs) -> f64 {
    let stride = (inputs.units.len() / RESET_SAMPLES).max(1);
    let mut sim = Simulator::arena();
    let times: Vec<f64> = inputs
        .units
        .iter()
        .step_by(stride)
        .take(RESET_SAMPLES)
        .map(|unit| {
            black_box(inputs.run_unit(&mut sim, unit));
            let start = Instant::now();
            sim.reset(0, Box::new(FixedPathModel::new(Duration::ZERO)));
            start.elapsed().as_nanos() as f64 * 1e-3
        })
        .collect();
    median(&times)
}

/// In-memory connection pairs driven without a simulator, as in the
/// repository's criterion handshake benches, configured from the
/// workload: its resolvers' median certificate chain, its DNS query, its
/// HTTP/2 header blocks.
pub struct Netstack {
    pub tls_full_us: f64,
    pub tls_resumed_us: f64,
    pub quic_us: f64,
    pub tcp_us: f64,
    /// One header block encoded and decoded with warm tables.
    pub hpack_ns: f64,
}

pub fn netstack(inputs: &Inputs) -> Netstack {
    let mut chains: Vec<u16> = inputs
        .resolvers
        .iter()
        .map(|&r| inputs.population[r].cert_chain_len)
        .collect();
    chains.sort_unstable();
    let tls = TlsConfig {
        server_id: 7,
        alpn: vec![b"dot".to_vec()],
        cert_chain_len: chains[chains.len() / 2],
        ..TlsConfig::default()
    };
    let ticket = tls_handshake(&tls, None)
        .take_tickets()
        .pop()
        .expect("the server issues a session ticket");
    let quic = QuicConfig {
        tls: TlsConfig {
            alpn: vec![b"doq".to_vec()],
            ..tls.clone()
        },
        ..QuicConfig::default()
    };
    let messages = dns_messages(inputs);
    let query = messages[0].encode();
    let owned = header_blocks(inputs, &messages);
    let blocks: Vec<Vec<(&str, &str)>> = owned
        .iter()
        .map(|b| b.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect())
        .collect();
    let (mut encoder, mut decoder) = (HpackEncoder::new(), HpackDecoder::new());
    Netstack {
        tls_full_us: per_op_ns(HANDSHAKES, |_| {
            black_box(tls_handshake(&tls, None));
        }) * 1e-3,
        tls_resumed_us: per_op_ns(HANDSHAKES, |_| {
            black_box(tls_handshake(&tls, Some(ticket.clone())));
        }) * 1e-3,
        quic_us: per_op_ns(HANDSHAKES, |_| quic_exchange(&quic, &query)) * 1e-3,
        tcp_us: per_op_ns(HANDSHAKES, |_| tcp_handshake(&query)) * 1e-3,
        hpack_ns: per_op_ns(OPS, |i| {
            let block = encoder.encode(&blocks[i % blocks.len()]);
            black_box(
                decoder
                    .decode(&block)
                    .expect("an encoded header block decodes"),
            );
        }),
    }
}

/// The workload's HTTP/2 header blocks: the DoH request and response
/// carrying each of its DNS exchanges, plus every page resource's GET on
/// pageload.
fn header_blocks(inputs: &Inputs, messages: &[Message]) -> Vec<Vec<(String, String)>> {
    let mut blocks: Vec<_> = messages
        .chunks(2)
        .flat_map(|pair| {
            [
                doh_request_headers("dns.resolver.example", pair[0].encode().len()),
                doh_response_headers(pair[1].encode().len()),
            ]
        })
        .collect();
    if inputs.workload == Workload::Pageload {
        for resource in inputs.pages.iter().flat_map(|p| &p.resources) {
            blocks.push(vec![
                (":method".into(), "GET".into()),
                (":scheme".into(), "https".into()),
                (":authority".into(), resource.domain.clone()),
                (":path".into(), resource.path.clone()),
                ("accept".into(), "*/*".into()),
            ]);
        }
    }
    blocks
}

fn addr(host: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, host), port)
}

/// A TLS client/server pair driven to completion in memory; returns the
/// client, holding the ticket the server issued.
fn tls_handshake(cfg: &TlsConfig, ticket: Option<SessionTicket>) -> TlsClient {
    let mut client = TlsClient::new(cfg.clone(), ticket);
    let mut server = TlsServer::new(cfg.clone());
    client.start(SimTime::ZERO);
    for _ in 0..6 {
        let out = client.take_output();
        if !out.is_empty() {
            server.read_wire(SimTime::ZERO, &out);
        }
        let out = server.take_output();
        if !out.is_empty() {
            client.read_wire(SimTime::ZERO, &out);
        }
        if client.is_connected() && server.is_connected() {
            break;
        }
    }
    assert!(
        client.is_connected() && server.is_connected(),
        "in-memory TLS handshake stalled"
    );
    client
}

/// A QUIC handshake plus one query/answer exchange on a stream.
fn quic_exchange(cfg: &QuicConfig, query: &[u8]) {
    let (client_addr, server_addr) = (addr(1, 40_000), addr(2, 853));
    let mut rng = SimRng::new(1);
    let mut client = QuicConnection::client(
        cfg.clone(),
        client_addr,
        server_addr,
        QUIC_V1,
        None,
        None,
        &mut rng,
        SimTime::ZERO,
    );
    let mut server = QuicServer::new(server_addr, cfg.clone());
    let stream = client.open_bi();
    client.stream_send(stream, query, true);
    for _ in 0..12 {
        for datagram in client.poll_transmit(SimTime::ZERO) {
            server.handle_datagram(SimTime::ZERO, client_addr, &datagram);
        }
        for (_, datagram) in server.poll_transmit(SimTime::ZERO) {
            client.handle_datagram(SimTime::ZERO, &datagram);
        }
        if let Some(conn) = server.connection(client_addr) {
            for s in conn.take_new_peer_streams() {
                if !conn.stream_recv(s).0.is_empty() {
                    conn.stream_send(s, b"answer", true);
                }
            }
        }
        let (answer, fin) = client.stream_recv(stream);
        if fin && !answer.is_empty() {
            break;
        }
    }
    assert!(client.is_established(), "in-memory QUIC handshake stalled");
}

/// A TCP three-way handshake carrying `request`.
fn tcp_handshake(request: &[u8]) {
    let (client_addr, server_addr) = (addr(1, 1000), addr(2, 53));
    let mut client = TcpSocket::client(client_addr, server_addr, 1, TcpConfig::default());
    let mut server = TcpSocket::server(server_addr, client_addr, 2, TcpConfig::default());
    client.open(SimTime::ZERO);
    client.send(request);
    for _ in 0..12 {
        for segment in client.poll(SimTime::ZERO) {
            server.on_segment(SimTime::ZERO, &segment);
        }
        black_box(server.recv());
        for segment in server.poll(SimTime::ZERO) {
            client.on_segment(SimTime::ZERO, &segment);
        }
        if client.is_established() && server.is_established() {
            break;
        }
    }
    assert!(client.is_established(), "in-memory TCP handshake stalled");
}

/// A population cohort's client workload shape, at its middle α.
fn zipf_spec(c: &PopulationsCampaign) -> WorkloadSpec {
    WorkloadSpec {
        clients: c.population().per_cohort(),
        queries_per_client: c.queries_per_client,
        window: c.window,
        alpha: c.alphas[c.alphas.len() / 2],
        domains: c.domains,
        nxdomain_tail: c.nxdomain_tail,
    }
}

/// `DnsCache` and `WorkloadGen` on a population cohort's Zipf id stream;
/// all zero on the workloads that use neither.
#[derive(Default)]
pub struct Resolver {
    pub cache_get_ns: f64,
    pub cache_put_ns: f64,
    /// One client query drawn: arrival, popularity rank, interned id.
    pub workload_sample_ns: f64,
}

pub fn resolver(c: &PopulationsCampaign, seed: u64) -> Resolver {
    let mut gen = WorkloadGen::new(zipf_spec(c));
    gen.anchor(SimTime::ZERO);
    // What a stub draws per client query; a finished window starts over.
    let draw = |at: SimTime, rng: &mut SimRng| -> (SimTime, NameId) {
        let at = gen.next_arrival(at, rng).unwrap_or(SimTime::ZERO);
        (at, gen.query_id_for_rank(gen.sample_rank(rng)).0)
    };
    let mut rng = SimRng::new(seed);
    let mut at = SimTime::ZERO;
    let workload_sample_ns = per_op_ns(OPS, |_| {
        let (next, id) = draw(at, &mut rng);
        at = next;
        black_box(id);
    });

    // The stream the cache sees: each query with the answer stored for it
    // (none: NXDOMAIN).
    let mut at = SimTime::ZERO;
    let stream: Vec<(SimTime, NameId, Vec<ResourceRecord>)> = (0..OPS)
        .map(|_| {
            let (next, id) = draw(at, &mut rng);
            at = next;
            let question = Question::new(gen.name_of(id).clone(), RecordType::A);
            (next, id, authoritative_answer(&question))
        })
        .collect();
    let mut cache = DnsCache::new();
    let (mut puts, mut gets) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    for round in 0..=ROUNDS {
        cache.clear();
        let answers: Vec<Vec<ResourceRecord>> = stream.iter().map(|q| q.2.clone()).collect();
        let start = Instant::now();
        for ((at, id, _), answers) in stream.iter().zip(answers) {
            if answers.is_empty() {
                cache.put_negative_id(*at, *id, RecordType::A, Rcode::NxDomain, NEGATIVE_TTL);
            } else {
                cache.put_id(*at, *id, RecordType::A, answers);
            }
        }
        let put_ns = start.elapsed().as_nanos() as f64 / OPS as f64;
        let start = Instant::now();
        for (at, id, _) in &stream {
            black_box(cache.get_answer_id(*at, *id, RecordType::A));
        }
        let get_ns = start.elapsed().as_nanos() as f64 / OPS as f64;
        if round > 0 {
            puts.push(put_ns);
            gets.push(get_ns);
        }
    }
    Resolver {
        cache_get_ns: median(&gets),
        cache_put_ns: median(&puts),
        workload_sample_ns,
    }
}
