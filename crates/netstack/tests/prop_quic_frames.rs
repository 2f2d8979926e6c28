//! Property test for the QUIC frame codec: any sequence of frames
//! encodes to exactly the sum of its frames' `wire_len`s and decodes,
//! in place, back to itself — ACK ranges read from the wire included.

use doqlab_netstack::quic::{AckRanges, Frame};
use proptest::prelude::*;
use proptest::strategy::Just;

/// An owned stand-in for a frame, which borrows its bytes.
#[derive(Debug, Clone)]
enum Spec {
    Padding(usize),
    Ping,
    /// Descending, gapped `(hi, lo)` ranges.
    Ack(Vec<(u64, u64)>, u64),
    Crypto(u64, Vec<u8>),
    NewToken(Vec<u8>),
    Stream(u64, u64, Vec<u8>, bool),
    PathChallenge([u8; 8]),
    PathResponse([u8; 8]),
    Close(u64, Vec<u8>),
    HandshakeDone,
}

impl Spec {
    fn frame(&self) -> Frame<'_> {
        match self {
            Spec::Padding(n) => Frame::Padding(*n),
            Spec::Ping => Frame::Ping,
            Spec::Ack(ranges, delay) => Frame::Ack {
                ranges: AckRanges::new(ranges),
                delay: *delay,
            },
            Spec::Crypto(offset, data) => Frame::Crypto {
                offset: *offset,
                data,
            },
            Spec::NewToken(token) => Frame::NewToken { token },
            Spec::Stream(id, offset, data, fin) => Frame::Stream {
                id: *id,
                offset: *offset,
                data,
                fin: *fin,
            },
            Spec::PathChallenge(data) => Frame::PathChallenge(*data),
            Spec::PathResponse(data) => Frame::PathResponse(*data),
            Spec::Close(error_code, reason) => Frame::ConnectionClose {
                error_code: *error_code,
                reason,
            },
            Spec::HandshakeDone => Frame::HandshakeDone,
        }
    }
}

/// A varint value of each encoded width (1, 2, 4 and 8 bytes).
fn varint() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        64u64..1 << 14,
        (1u64 << 14)..1 << 30,
        (1u64 << 30)..1 << 40,
    ]
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..300)
}

/// One to eight ranges, each below the last with a gap between: built
/// upwards from `base` so no range falls below packet number zero.
fn ack() -> impl Strategy<Value = Spec> {
    (
        0u64..1 << 20,
        proptest::collection::vec((varint(), varint()), 1..9),
        varint(),
    )
        .prop_map(|(base, spans, delay)| {
            let mut ranges = Vec::new();
            let mut lo = base;
            for (i, &(len, gap)) in spans.iter().enumerate() {
                // Each range `lo..=lo + len`, then a gap of `gap + 1`
                // unacknowledged numbers before the next one up.
                let (len, gap) = (len % 5_000, gap % 5_000);
                if i > 0 {
                    lo += gap + 2;
                }
                ranges.push((lo + len, lo));
                lo += len;
            }
            ranges.reverse();
            Spec::Ack(ranges, delay)
        })
}

fn spec() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (1usize..40).prop_map(Spec::Padding),
        Just(Spec::Ping),
        ack(),
        (varint(), bytes()).prop_map(|(offset, data)| Spec::Crypto(offset, data)),
        bytes().prop_map(Spec::NewToken),
        (varint(), varint(), bytes(), any::<bool>())
            .prop_map(|(id, offset, data, fin)| Spec::Stream(id, offset, data, fin)),
        any::<[u8; 8]>().prop_map(Spec::PathChallenge),
        any::<[u8; 8]>().prop_map(Spec::PathResponse),
        (varint(), bytes()).prop_map(|(code, reason)| Spec::Close(code, reason)),
        Just(Spec::HandshakeDone),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_sequences_encode_to_their_wire_len_and_decode_to_themselves(
        specs in proptest::collection::vec(spec(), 1..16),
    ) {
        // Adjacent PADDING runs decode as one run, so keep runs apart.
        let mut specs = specs;
        specs.dedup_by(|x, y| matches!((x, y), (Spec::Padding(_), Spec::Padding(_))));
        let frames: Vec<Frame> = specs.iter().map(Spec::frame).collect();
        let mut payload = Vec::new();
        for frame in &frames {
            let before = payload.len();
            frame.encode(&mut payload);
            prop_assert_eq!(payload.len() - before, frame.wire_len());
        }
        let decoded: Option<Vec<Frame>> = Frame::parse(&payload).map(Iterator::collect);
        prop_assert_eq!(decoded, Some(frames.clone()));
        // Decoded frames encode back to the same bytes.
        let mut again = Vec::new();
        for frame in Frame::parse(&payload).expect("parsed above") {
            frame.encode(&mut again);
        }
        prop_assert_eq!(again, payload);
    }
}
