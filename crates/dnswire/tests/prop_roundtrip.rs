//! Property-based tests: arbitrary messages roundtrip through the
//! codec, and arbitrary bytes never panic the decoder.

use doqlab_dnswire::*;
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9-]{1,20}").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| Name::parse(&labels.join(".")).unwrap())
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(RData::A),
        any::<[u8; 16]>().prop_map(RData::Aaaa),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..4)
            .prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<u32>(), any::<u32>()).prop_map(
            |(mname, rname, serial, refresh)| RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry: 300,
                expire: 600,
                minimum: 60,
            }
        ),
        (any::<u16>(), arb_name()).prop_map(|(priority, target)| RData::Svcb {
            priority,
            target,
            params: vec![
                SvcParam::Alpn(vec![b"doq".to_vec(), b"h3".to_vec()]),
                SvcParam::Port(853),
            ],
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), any::<u32>(), arb_rdata())
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        proptest::collection::vec(arb_record(), 0..6),
        proptest::collection::vec(arb_record(), 0..3),
        any::<bool>(),
    )
        .prop_map(|(id, qname, answers, authorities, response)| {
            let mut m = Message::query(id, qname, RecordType::A);
            m.header.response = response;
            m.answers = answers;
            m.authorities = authorities;
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_roundtrips(msg in arb_message()) {
        let wire = msg.encode();
        let back = Message::decode(&wire).expect("own encoding must decode");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn reencoding_decoded_message_is_stable(msg in arb_message()) {
        // encode -> decode -> encode must be a fixed point: compression
        // decisions depend only on message content.
        let wire = msg.encode();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back.encode(), wire);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_message(
        msg in arb_message(),
        flip_at in any::<usize>(),
        new_byte in any::<u8>(),
    ) {
        let mut wire = msg.encode();
        if !wire.is_empty() {
            let at = flip_at % wire.len();
            wire[at] = new_byte;
        }
        let _ = Message::decode(&wire);
    }

    #[test]
    fn name_parse_display_roundtrip(labels in proptest::collection::vec(arb_label(), 1..5)) {
        let s = labels.join(".");
        let n = Name::parse(&s).unwrap();
        let displayed = n.to_string();
        let reparsed = Name::parse(&displayed).unwrap();
        prop_assert_eq!(n, reparsed);
    }

    #[test]
    fn framing_roundtrips_under_any_chunking(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..100), 1..5),
        chunk in 1usize..17,
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend(framing::frame(m));
        }
        let mut reader = LengthPrefixedReader::new();
        let mut out = Vec::new();
        for c in wire.chunks(chunk) {
            reader.push(c);
            while let Some(m) = reader.next_message() {
                out.push(m.to_vec());
            }
        }
        prop_assert_eq!(out, msgs);
    }
}
