//! Micro-benchmarks of the protocol codecs: DNS message encode/decode
//! (with compression), the 2-byte stream framing, QUIC varints and
//! frames, and HPACK — the per-packet costs every simulated campaign
//! pays millions of times.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use doqlab_dnswire::{framing, Message, Name, RData, RecordType, ResourceRecord};
use doqlab_netstack::http2::{HpackDecoder, HpackEncoder};
use doqlab_netstack::quic::{read_varint, write_varint, AckRanges, Frame};

fn dns_codec(c: &mut Criterion) {
    let query = Message::query(7, Name::parse("www.google.com").unwrap(), RecordType::A);
    let mut response = Message::response_to(
        &query,
        vec![
            ResourceRecord::new(
                Name::parse("www.google.com").unwrap(),
                300,
                RData::A([142, 250, 1, 1]),
            ),
            ResourceRecord::new(
                Name::parse("www.google.com").unwrap(),
                300,
                RData::Aaaa([0x20; 16]),
            ),
        ],
    );
    response.authorities.push(ResourceRecord::new(
        Name::parse("google.com").unwrap(),
        3600,
        RData::Ns(Name::parse("ns1.google.com").unwrap()),
    ));
    let wire = response.encode();

    let mut group = c.benchmark_group("dns_codec");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("encode_response", |b| {
        b.iter(|| black_box(&response).encode())
    });
    group.bench_function("decode_response", |b| {
        b.iter(|| Message::decode(black_box(&wire)).unwrap())
    });
    group.bench_function("frame_and_deframe", |b| {
        b.iter(|| {
            let framed = framing::frame(black_box(&wire));
            let mut r = framing::LengthPrefixedReader::new();
            r.push(&framed);
            r.next_message().unwrap().len()
        })
    });
    group.finish();
}

fn quic_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("quic");
    group.bench_function("varint_roundtrip", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(32);
            for v in [0u64, 63, 16_000, 1_000_000, 4_000_000_000] {
                write_varint(&mut buf, black_box(v));
            }
            let mut pos = 0;
            let mut sum = 0u64;
            while pos < buf.len() {
                sum += read_varint(&buf, &mut pos).unwrap();
            }
            sum
        })
    });
    let frames = vec![
        Frame::Crypto {
            offset: 0,
            data: &[0; 900],
        },
        Frame::Ack {
            ranges: AckRanges::new(&[(9, 7), (4, 0)]),
            delay: 0,
        },
        Frame::Stream {
            id: 0,
            offset: 0,
            data: &[0; 120],
            fin: true,
        },
        Frame::Padding(100),
    ];
    let mut payload = Vec::new();
    for f in &frames {
        f.encode(&mut payload);
    }
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("frame_parse", |b| {
        b.iter(|| Frame::parse(black_box(&payload)).unwrap().count())
    });
    group.finish();
}

fn hpack(c: &mut Criterion) {
    let headers = [
        (":method", "POST"),
        (":scheme", "https"),
        (":authority", "dns.resolver.example"),
        (":path", "/dns-query"),
        ("accept", "application/dns-message"),
        ("content-type", "application/dns-message"),
        ("content-length", "47"),
    ];
    c.bench_function("hpack_first_request", |b| {
        b.iter(|| {
            let mut enc = HpackEncoder::new();
            let mut dec = HpackDecoder::new();
            let block = enc.encode(black_box(&headers));
            dec.decode(&block).unwrap()
        })
    });
    c.bench_function("hpack_repeat_request", |b| {
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        let warm = enc.encode(&headers);
        dec.decode(&warm).unwrap();
        b.iter(|| {
            let block = enc.encode(black_box(&headers));
            dec.decode(&block).unwrap()
        })
    });
}

criterion_group!(benches, dns_codec, quic_primitives, hpack);
criterion_main!(benches);
