//! Pins the DNS codec's allocation budget.
//!
//! Only built under the `count-allocs` feature (which installs the
//! counting global allocator). A name that fits `Name`'s inline buffer
//! is parsed, decoded, cloned and cut to its parent without touching the
//! allocator; the google.com A query and answer that every single-query
//! unit exchanges encode and decode in an exact number of allocations;
//! a warm stream de-framer hands out messages without copying them.
//! A regression here — a label vector or a compression key sneaking back
//! in — fails before it shows up as a throughput drop in the benchmark.
//!
//! Run with:
//!
//! ```text
//! cargo test --release -p doqlab-bench --features count-allocs --test dnswire_allocs
//! ```
#![cfg(feature = "count-allocs")]

use doqlab_dnswire::name::INLINE_LEN;
use doqlab_dnswire::{
    framing, LengthPrefixedReader, Message, Name, Question, RecordType, WireReader, WireWriter,
};
use doqlab_resolver::authoritative_answer;
use doqlab_simnet::alloc_count::thread_allocations;
use std::hint::black_box;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_allocations();
    let out = black_box(f());
    (out, thread_allocations() - before)
}

/// `name` encoded twice, the second time as a pointer to the first.
fn wire_of(name: &Name) -> Vec<u8> {
    let mut w = WireWriter::new();
    name.encode(&mut w);
    name.encode(&mut w);
    w.finish()
}

#[test]
fn names_that_fit_inline_never_allocate() {
    // The campaigns' most common name and one that fills the buffer.
    let longest = format!("{}.{}", "a".repeat(INLINE_LEN - 6), "test");
    for text in ["google.com", longest.as_str()] {
        let (name, parse) = counted(|| Name::parse(text).unwrap());
        assert!(name.wire_len() - 1 <= INLINE_LEN, "{text} fits inline");
        let wire = wire_of(&name);
        let (plain, decode) = counted(|| Name::decode(&mut WireReader::new(&wire)).unwrap());
        let mut r = WireReader::new(&wire);
        r.seek(name.wire_len()).unwrap();
        let (pointed, decode_pointer) = counted(|| Name::decode(&mut r).unwrap());
        let (copy, clone) = counted(|| name.clone());
        let (parent, parent_allocs) = counted(|| name.parent());
        let (lower, lowercase) = counted(|| name.to_ascii_lowercase());
        assert_eq!(
            (
                parse,
                decode,
                decode_pointer,
                clone,
                parent_allocs,
                lowercase
            ),
            (0, 0, 0, 0, 0, 0),
            "{text}: parse, decode, decode via pointer, clone, parent, lowercase"
        );
        assert_eq!((&plain, &pointed, &copy), (&name, &name, &name));
        assert!(parent.is_some() && lower.eq_ignore_case(&name));
    }
}

#[test]
fn a_name_past_the_inline_buffer_allocates_once() {
    let text = format!("b.{}", "a".repeat(INLINE_LEN - 1));
    let (name, parse) = counted(|| Name::parse(&text).unwrap());
    let wire = wire_of(&name);
    let (_, decode) = counted(|| Name::decode(&mut WireReader::new(&wire)).unwrap());
    let (_, clone) = counted(|| name.clone());
    // Its parent fits inline again.
    let (_, parent) = counted(|| name.parent());
    assert_eq!((parse, decode, clone, parent), (1, 1, 1, 0));
}

#[test]
fn the_google_com_exchange_has_a_fixed_allocation_budget() {
    let google = Name::parse("google.com").unwrap();
    let query = Message::query(0x5151, google.clone(), RecordType::A);
    let answer = Message::response_to(
        &query,
        authoritative_answer(&Question::new(google, RecordType::A)),
    );
    // Encode: the buffer, sized once, and the list of name offsets.
    // Decode: one vector per non-empty section.
    for (message, encode_budget, decode_budget) in [(&query, 2, 2), (&answer, 2, 3)] {
        let (wire, encode) = counted(|| message.encode());
        assert_eq!(wire.capacity(), message.uncompressed_len());
        let (back, decode) = counted(|| Message::decode(&wire).unwrap());
        assert_eq!(&back, message);
        assert_eq!(
            (encode, decode),
            (encode_budget, decode_budget),
            "{} encode and decode",
            if message.header.response {
                "answer"
            } else {
                "query"
            }
        );
    }
}

#[test]
fn a_warm_stream_reader_takes_messages_in_place() {
    // Two framed queries in one push, as a DoT or DoTCP segment can
    // carry them: once the buffer has grown, taking both copies nothing.
    let query = Message::query(0x5151, Name::parse("google.com").unwrap(), RecordType::A).encode();
    let mut wire = framing::frame(&query);
    wire.extend(framing::frame(&query));
    let mut reader = LengthPrefixedReader::new();
    reader.push(&wire);
    while reader.next_message().is_some() {}
    let ((), allocs) = counted(|| {
        reader.push(&wire);
        assert_eq!(reader.next_message(), Some(&query[..]));
        assert_eq!(reader.next_message(), Some(&query[..]));
        assert_eq!(reader.next_message(), None);
    });
    assert_eq!(allocs, 0, "push two framed messages and take both");
}
