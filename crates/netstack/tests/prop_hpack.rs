//! Differential tests of HPACK against the codec it replaced.
//!
//! The reference below is HPACK as it was when its dynamic tables held
//! a `(String, String)` per entry and every decoded field was a pair of
//! `String`s. The codec keeps its tables in one byte arena and decodes
//! a block into one `HeaderList`; both must encode the same blocks and
//! decode the same fields, through eviction, table-size updates,
//! literals without indexing or never indexed, and truncated blocks
//! (which fail in both). One change was made to the reference along
//! with the codec: a table-size update follows RFC 7541, evicting at
//! once (§4.3) and failing the block above the 4,096 bytes SETTINGS
//! advertises (§6.3); before, both only recorded the new size.

use doqlab_netstack::http2::{HeaderList, HpackDecoder, HpackEncoder};
use proptest::prelude::*;

mod reference {
    use std::collections::VecDeque;

    const STATIC_TABLE: &[(&str, &str)] = &[
        (":authority", ""),
        (":method", "GET"),
        (":method", "POST"),
        (":path", "/"),
        (":path", "/index.html"),
        (":scheme", "http"),
        (":scheme", "https"),
        (":status", "200"),
        (":status", "204"),
        (":status", "206"),
        (":status", "304"),
        (":status", "400"),
        (":status", "404"),
        (":status", "500"),
        ("accept-charset", ""),
        ("accept-encoding", "gzip, deflate"),
        ("accept-language", ""),
        ("accept-ranges", ""),
        ("accept", ""),
        ("access-control-allow-origin", ""),
        ("age", ""),
        ("allow", ""),
        ("authorization", ""),
        ("cache-control", ""),
        ("content-disposition", ""),
        ("content-encoding", ""),
        ("content-language", ""),
        ("content-length", ""),
        ("content-location", ""),
        ("content-range", ""),
        ("content-type", ""),
        ("cookie", ""),
        ("date", ""),
        ("etag", ""),
        ("expect", ""),
        ("expires", ""),
        ("from", ""),
        ("host", ""),
        ("if-match", ""),
        ("if-modified-since", ""),
        ("if-none-match", ""),
        ("if-range", ""),
        ("if-unmodified-since", ""),
        ("last-modified", ""),
        ("link", ""),
        ("location", ""),
        ("max-forwards", ""),
        ("proxy-authenticate", ""),
        ("proxy-authorization", ""),
        ("range", ""),
        ("referer", ""),
        ("refresh", ""),
        ("retry-after", ""),
        ("server", ""),
        ("set-cookie", ""),
        ("strict-transport-security", ""),
        ("transfer-encoding", ""),
        ("user-agent", ""),
        ("vary", ""),
        ("via", ""),
        ("www-authenticate", ""),
    ];

    pub fn encode_int(out: &mut Vec<u8>, first: u8, n: u8, mut value: u64) {
        let max = (1u64 << n) - 1;
        if value < max {
            out.push(first | value as u8);
            return;
        }
        out.push(first | max as u8);
        value -= max;
        while value >= 128 {
            out.push((value % 128) as u8 | 0x80);
            value /= 128;
        }
        out.push(value as u8);
    }

    fn decode_int(buf: &[u8], pos: &mut usize, n: u8) -> Option<u64> {
        let max = (1u64 << n) - 1;
        let first = (*buf.get(*pos)? & (max as u8)) as u64;
        *pos += 1;
        if first < max {
            return Some(first);
        }
        let mut value = max;
        let mut shift = 0u32;
        loop {
            let b = *buf.get(*pos)?;
            *pos += 1;
            value += ((b & 0x7F) as u64) << shift;
            shift += 7;
            if b & 0x80 == 0 {
                return Some(value);
            }
            if shift > 56 {
                return None;
            }
        }
    }

    pub fn encode_string(out: &mut Vec<u8>, s: &str) {
        encode_int(out, 0, 7, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }

    fn decode_string(buf: &[u8], pos: &mut usize) -> Option<String> {
        let huffman = buf.get(*pos)? & 0x80 != 0;
        let len = decode_int(buf, pos, 7)? as usize;
        if huffman {
            return None;
        }
        let bytes = buf.get(*pos..*pos + len)?;
        *pos += len;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn entry_size(name: &str, value: &str) -> usize {
        name.len() + value.len() + 32
    }

    struct DynamicTable {
        entries: VecDeque<(String, String)>,
        size: usize,
        max_size: usize,
    }

    impl DynamicTable {
        fn new() -> Self {
            DynamicTable {
                entries: VecDeque::new(),
                size: 0,
                max_size: 4096,
            }
        }

        fn insert(&mut self, name: String, value: String) {
            self.size += entry_size(&name, &value);
            self.entries.push_front((name, value));
            self.evict();
        }

        fn evict(&mut self) {
            while self.size > self.max_size {
                if let Some((n, v)) = self.entries.pop_back() {
                    self.size -= entry_size(&n, &v);
                } else {
                    break;
                }
            }
        }

        fn find(&self, name: &str, value: &str) -> Option<usize> {
            self.entries
                .iter()
                .position(|(n, v)| n == name && v == value)
                .map(|i| STATIC_TABLE.len() + 1 + i)
        }

        fn find_name(&self, name: &str) -> Option<usize> {
            self.entries
                .iter()
                .position(|(n, _)| n == name)
                .map(|i| STATIC_TABLE.len() + 1 + i)
        }

        fn get(&self, index: usize) -> Option<(String, String)> {
            self.entries.get(index - STATIC_TABLE.len() - 1).cloned()
        }
    }

    fn static_find(name: &str, value: &str) -> Option<usize> {
        STATIC_TABLE
            .iter()
            .position(|(n, v)| *n == name && *v == value)
            .map(|i| i + 1)
    }

    fn static_find_name(name: &str) -> Option<usize> {
        STATIC_TABLE
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| i + 1)
    }

    fn table_get(dynamic: &DynamicTable, index: usize) -> Option<(String, String)> {
        if index == 0 {
            return None;
        }
        if index <= STATIC_TABLE.len() {
            let (n, v) = STATIC_TABLE[index - 1];
            Some((n.to_string(), v.to_string()))
        } else {
            dynamic.get(index)
        }
    }

    pub struct HpackEncoder {
        dynamic: DynamicTable,
    }

    impl HpackEncoder {
        pub fn new() -> Self {
            HpackEncoder {
                dynamic: DynamicTable::new(),
            }
        }

        pub fn encode(&mut self, headers: &[(&str, &str)]) -> Vec<u8> {
            let mut out = Vec::new();
            for (name, value) in headers {
                if let Some(idx) =
                    static_find(name, value).or_else(|| self.dynamic.find(name, value))
                {
                    encode_int(&mut out, 0x80, 7, idx as u64);
                    continue;
                }
                let name_idx = static_find_name(name).or_else(|| self.dynamic.find_name(name));
                match name_idx {
                    Some(idx) => encode_int(&mut out, 0x40, 6, idx as u64),
                    None => {
                        encode_int(&mut out, 0x40, 6, 0);
                        encode_string(&mut out, name);
                    }
                }
                encode_string(&mut out, value);
                self.dynamic.insert(name.to_string(), value.to_string());
            }
            out
        }
    }

    pub struct HpackDecoder {
        dynamic: DynamicTable,
    }

    impl HpackDecoder {
        pub fn new() -> Self {
            HpackDecoder {
                dynamic: DynamicTable::new(),
            }
        }

        pub fn decode(&mut self, block: &[u8]) -> Option<Vec<(String, String)>> {
            let mut headers = Vec::new();
            let mut pos = 0;
            while pos < block.len() {
                let b = block[pos];
                if b & 0x80 != 0 {
                    let idx = decode_int(block, &mut pos, 7)? as usize;
                    headers.push(table_get(&self.dynamic, idx)?);
                } else if b & 0x40 != 0 {
                    let idx = decode_int(block, &mut pos, 6)? as usize;
                    let name = if idx == 0 {
                        decode_string(block, &mut pos)?
                    } else {
                        table_get(&self.dynamic, idx)?.0
                    };
                    let value = decode_string(block, &mut pos)?;
                    self.dynamic.insert(name.clone(), value.clone());
                    headers.push((name, value));
                } else if b & 0x20 != 0 {
                    // RFC 7541 §6.3 and §4.3: no larger than SETTINGS
                    // advertises, and the table shrinks at once.
                    let size = decode_int(block, &mut pos, 5)? as usize;
                    if size > 4096 {
                        return None;
                    }
                    self.dynamic.max_size = size;
                    self.dynamic.evict();
                } else {
                    let idx = decode_int(block, &mut pos, 4)? as usize;
                    let name = if idx == 0 {
                        decode_string(block, &mut pos)?
                    } else {
                        table_get(&self.dynamic, idx)?.0
                    };
                    let value = decode_string(block, &mut pos)?;
                    headers.push((name, value));
                }
            }
            Some(headers)
        }
    }
}

/// Names: static-table names (indexed names) and custom ones (literal
/// names).
const NAMES: [&str; 10] = [
    ":path",
    ":authority",
    "content-type",
    "content-length",
    "cache-control",
    "user-agent",
    "x-request-id",
    "x-trace",
    "x-a",
    "cookie",
];
/// Values: a static-table match, short ones that repeat, and empty.
const VALUES: [&str; 6] = [
    "/",
    "application/dns-message",
    "max-age=300",
    "47",
    "",
    "h2",
];

fn owned(list: &HeaderList) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .collect()
}

/// A header list: picked names with pooled values, or values of 1–900
/// bytes that fill the 4,096-byte tables and force evictions.
fn header_list(picks: &[(usize, usize, u16)]) -> Vec<(&'static str, String)> {
    picks
        .iter()
        .map(|&(name, value, long)| {
            let value = match value {
                v if v < VALUES.len() => VALUES[v].to_string(),
                _ => {
                    let len = 1 + long as usize % 900;
                    (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect()
                }
            };
            (NAMES[name], value)
        })
        .collect()
}

fn borrowed<'a>(list: &'a [(&'static str, String)]) -> Vec<(&'static str, &'a str)> {
    list.iter().map(|(n, v)| (*n, v.as_str())).collect()
}

/// A literal the encoder never emits: without indexing (prefix 0x00) or
/// never indexed (0x10), its name indexed when `name_idx` > 0.
fn unindexed_literal(never: bool, name_idx: u64, name: &str, value: &str) -> Vec<u8> {
    let mut out = Vec::new();
    reference::encode_int(&mut out, if never { 0x10 } else { 0 }, 4, name_idx);
    if name_idx == 0 {
        reference::encode_string(&mut out, name);
    }
    reference::encode_string(&mut out, value);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn blocks_and_fields_match_the_reference(
        lists in proptest::collection::vec(
            proptest::collection::vec((0usize..NAMES.len(), 0usize..VALUES.len() + 2, any::<u16>()), 0..9),
            1..14,
        ),
    ) {
        let (mut enc, mut dec) = (HpackEncoder::new(), HpackDecoder::new());
        let (mut old_enc, mut old_dec) = (reference::HpackEncoder::new(), reference::HpackDecoder::new());
        for picks in &lists {
            let list = header_list(picks);
            let fields = borrowed(&list);
            let block = enc.encode(&fields);
            prop_assert_eq!(&block, &old_enc.encode(&fields));
            let decoded = dec.decode(&block).map(|l| owned(&l));
            prop_assert_eq!(&decoded, &old_dec.decode(&block));
            let want: Vec<(String, String)> =
                list.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
            prop_assert_eq!(decoded, Some(want));
        }
    }

    #[test]
    fn edited_blocks_decode_like_the_reference(
        lists in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..NAMES.len(), 0usize..VALUES.len() + 2, any::<u16>()), 0..6),
                0u8..4,
                any::<u16>(),
                (any::<bool>(), 0u64..70, 0usize..NAMES.len(), 0usize..VALUES.len()),
                any::<u16>(),
            ),
            1..12,
        ),
    ) {
        let mut enc = reference::HpackEncoder::new();
        let (mut dec, mut old_dec) = (HpackDecoder::new(), reference::HpackDecoder::new());
        for (picks, edit, size, (never, name_idx, name, value), cut) in &lists {
            let list = header_list(picks);
            let mut block = enc.encode(&borrowed(&list));
            match edit {
                // A dynamic table size update in front.
                0 => {
                    let mut update = Vec::new();
                    reference::encode_int(&mut update, 0x20, 5, *size as u64 % 4200);
                    block.splice(0..0, update);
                }
                // A literal without indexing or never indexed behind.
                1 => block.extend(unindexed_literal(*never, *name_idx, NAMES[*name], VALUES[*value])),
                // Truncated anywhere.
                2 => block.truncate(*cut as usize % (block.len() + 1)),
                _ => {}
            }
            let decoded = dec.decode(&block).map(|l| owned(&l));
            prop_assert_eq!(decoded, old_dec.decode(&block));
        }
    }
}

#[test]
fn truncated_blocks_fail_in_both() {
    let mut enc = reference::HpackEncoder::new();
    let block = enc.encode(&[
        ("x-trace", "abcdef"),
        (":authority", "dns.example.net"),
        (":path", "/dns-query"),
    ]);
    for cut in 1..block.len() {
        let (mut dec, mut old_dec) = (HpackDecoder::new(), reference::HpackDecoder::new());
        let new = dec.decode(&block[..cut]);
        assert_eq!(new.map(|l| owned(&l)), old_dec.decode(&block[..cut]));
    }
    // A cut inside a literal string fails.
    let mut dec = HpackDecoder::new();
    assert!(dec.decode(&block[..block.len() - 1]).is_none());
    assert!(reference::HpackDecoder::new()
        .decode(&block[..block.len() - 1])
        .is_none());
}
