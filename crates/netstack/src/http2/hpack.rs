//! HPACK header compression (RFC 7541) without Huffman coding: integer
//! prefix encoding, the full 61-entry static table, and a dynamic table
//! with incremental indexing. Huffman would shave ~25% off literal
//! strings; we account headers at their literal size, which keeps the
//! DoH byte numbers honest to within a few percent while keeping the
//! codec transparent.

/// The RFC 7541 Appendix A static table.
pub const STATIC_TABLE: &[(&str, &str)] = &[
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

/// Encode an integer with an `n`-bit prefix into `out`, OR-ing the
/// prefix bits of the first byte with `first`.
fn encode_int(out: &mut Vec<u8>, first: u8, n: u8, mut value: u64) {
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

/// Bytes `encode_int` writes for `value` with an `n`-bit prefix.
fn int_len(n: u8, value: u64) -> usize {
    let max = (1u64 << n) - 1;
    if value < max {
        return 1;
    }
    let mut len = 2;
    let mut rest = (value - max) / 128;
    while rest > 0 {
        len += 1;
        rest /= 128;
    }
    len
}

fn encode_string(out: &mut Vec<u8>, s: &str) {
    encode_int(out, 0, 7, s.len() as u64); // H bit = 0 (no Huffman)
    out.extend_from_slice(s.as_bytes());
}

/// Bytes `encode_string` writes for `s`.
fn string_len(s: &str) -> usize {
    int_len(7, s.len() as u64) + s.len()
}

/// A string literal, borrowed from the block.
fn decode_string<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let huffman = buf.get(*pos)? & 0x80 != 0;
    let len = decode_int(buf, pos, 7)? as usize;
    if huffman {
        return None; // we never emit Huffman
    }
    let bytes = buf.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    std::str::from_utf8(bytes).ok()
}

/// Entry size per RFC 7541 §4.1.
fn entry_size(name: &str, value: &str) -> usize {
    name.len() + value.len() + 32
}

/// Where a dynamic-table entry's name and value lie in the arena:
/// `start..split` and `split..end`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: usize,
    split: usize,
    end: usize,
}

/// The dynamic table (RFC 7541 §2.3.2). Every entry's name and value
/// live back to back in one arena, oldest first; eviction only moves
/// the front of the live bytes, and the dead prefix is dropped when the
/// arena would otherwise grow. A size update takes effect at the next
/// insertion.
#[derive(Debug)]
struct DynamicTable {
    arena: String,
    /// Bytes of evicted entries at the front of `arena`.
    dead: usize,
    /// Newest first, as HPACK indexes them.
    entries: std::collections::VecDeque<Entry>,
    size: usize,
    max_size: usize,
}

impl DynamicTable {
    fn new() -> Self {
        DynamicTable {
            arena: String::new(),
            dead: 0,
            entries: std::collections::VecDeque::new(),
            size: 0,
            max_size: 4096,
        }
    }

    fn field(&self, entry: &Entry) -> (&str, &str) {
        (
            &self.arena[entry.start..entry.split],
            &self.arena[entry.split..entry.end],
        )
    }

    fn insert(&mut self, name: &str, value: &str) {
        let size = entry_size(name, value);
        if size > self.max_size {
            // RFC 7541 §4.4: the table empties and the entry is not added.
            self.entries.clear();
            self.arena.clear();
            self.dead = 0;
            self.size = 0;
            return;
        }
        let len = name.len() + value.len();
        if self.dead > 0 && self.arena.len() + len > self.arena.capacity() {
            self.arena.drain(..self.dead);
            for entry in &mut self.entries {
                entry.start -= self.dead;
                entry.split -= self.dead;
                entry.end -= self.dead;
            }
            self.dead = 0;
        }
        let start = self.arena.len();
        self.arena.push_str(name);
        self.arena.push_str(value);
        self.entries.push_front(Entry {
            start,
            split: start + name.len(),
            end: start + len,
        });
        self.size += size;
        while self.size > self.max_size {
            let oldest = self.entries.pop_back().expect("the new entry fits alone");
            let (name, value) = self.field(&oldest);
            self.size -= entry_size(name, value);
            self.dead = oldest.end;
        }
    }

    /// Absolute HPACK index of the first entry `matches` accepts.
    fn position(&self, matches: impl Fn(&str, &str) -> bool) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| {
                let (n, v) = self.field(e);
                matches(n, v)
            })
            .map(|i| STATIC_TABLE.len() + 1 + i)
    }

    /// Absolute HPACK index of an exact (name, value) match.
    fn find(&self, name: &str, value: &str) -> Option<usize> {
        self.position(|n, v| n == name && v == value)
    }

    fn find_name(&self, name: &str) -> Option<usize> {
        self.position(|n, _| n == name)
    }

    fn get(&self, index: usize) -> Option<(&str, &str)> {
        let entry = self.entries.get(index - STATIC_TABLE.len() - 1)?;
        Some(self.field(entry))
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

fn table_get(dynamic: &DynamicTable, index: usize) -> Option<(&str, &str)> {
    if index == 0 {
        return None;
    }
    if index <= STATIC_TABLE.len() {
        Some(STATIC_TABLE[index - 1])
    } else {
        dynamic.get(index)
    }
}

/// One message's decoded header fields: every name and value in one
/// string, and where each field ends in it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderList {
    text: String,
    /// Per field, the ends of its name and of its value in `text`; a
    /// name starts where the previous field's value ends.
    ends: Vec<(u32, u32)>,
}

impl HeaderList {
    fn with_capacity(text: usize, fields: usize) -> Self {
        HeaderList {
            text: String::with_capacity(text),
            ends: Vec::with_capacity(fields),
        }
    }

    fn push(&mut self, name: &str, value: &str) {
        self.text.push_str(name);
        let name_end = self.text.len() as u32;
        self.text.push_str(value);
        self.ends.push((name_end, self.text.len() as u32));
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The fields in the order they were sent.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&(name_end, value_end)| {
            let (name_end, value_end) = (name_end as usize, value_end as usize);
            let field = (&self.text[start..name_end], &self.text[name_end..value_end]);
            start = value_end;
            field
        })
    }

    /// The value of the first field named `name` (ASCII case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }
}

/// Header-block encoder with a dynamic table.
#[derive(Debug)]
pub struct HpackEncoder {
    dynamic: DynamicTable,
}

impl Default for HpackEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl HpackEncoder {
    pub fn new() -> Self {
        HpackEncoder {
            dynamic: DynamicTable::new(),
        }
    }

    /// An upper bound on the block [`encode_into`](Self::encode_into)
    /// writes for `headers`: every field a literal with a literal name.
    pub(crate) fn max_block_len(headers: &[(&str, &str)]) -> usize {
        headers
            .iter()
            .map(|(name, value)| 1 + string_len(name) + string_len(value))
            .sum()
    }

    pub fn encode(&mut self, headers: &[(&str, &str)]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(headers, &mut out);
        out
    }

    /// Append the header block for `headers` to `out`.
    pub fn encode_into(&mut self, headers: &[(&str, &str)], out: &mut Vec<u8>) {
        for &(name, value) in headers {
            // Fully indexed?
            if let Some(idx) = static_find(name, value).or_else(|| self.dynamic.find(name, value)) {
                encode_int(out, 0x80, 7, idx as u64);
                continue;
            }
            // Literal with incremental indexing; name indexed if known.
            let name_idx = static_find_name(name).or_else(|| self.dynamic.find_name(name));
            match name_idx {
                Some(idx) => encode_int(out, 0x40, 6, idx as u64),
                None => {
                    encode_int(out, 0x40, 6, 0);
                    encode_string(out, name);
                }
            }
            encode_string(out, value);
            self.dynamic.insert(name, value);
        }
    }
}

/// The most text a decoded list is sized for up front: the header list
/// size the SETTINGS frame advertises.
const LIST_HINT_CAP: usize = 65_536;

/// Header-block decoder with a dynamic table.
#[derive(Debug)]
pub struct HpackDecoder {
    dynamic: DynamicTable,
    /// The largest list decoded so far (text bytes, fields), up to
    /// [`LIST_HINT_CAP`]: each new list is sized to it, so a
    /// connection's lists stop growing after its first messages.
    largest: (usize, usize),
}

impl Default for HpackDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl HpackDecoder {
    pub fn new() -> Self {
        HpackDecoder {
            dynamic: DynamicTable::new(),
            largest: (0, 0),
        }
    }

    /// Decode one header block; `None` when it is malformed or
    /// truncated (entries it indexed before that point stay indexed).
    pub fn decode(&mut self, block: &[u8]) -> Option<HeaderList> {
        let mut list = HeaderList::with_capacity(self.largest.0, self.largest.1);
        let mut pos = 0;
        while pos < block.len() {
            let b = block[pos];
            if b & 0x80 != 0 {
                // Indexed header field.
                let idx = decode_int(block, &mut pos, 7)? as usize;
                let (name, value) = table_get(&self.dynamic, idx)?;
                list.push(name, value);
            } else if b & 0x40 != 0 {
                // Literal with incremental indexing.
                let idx = decode_int(block, &mut pos, 6)? as usize;
                self.literal(block, &mut pos, idx, &mut list)?;
                let (name, value) = list.iter().last().expect("a field was just pushed");
                self.dynamic.insert(name, value);
            } else if b & 0x20 != 0 {
                // Dynamic table size update.
                let size = decode_int(block, &mut pos, 5)? as usize;
                self.dynamic.max_size = size;
            } else {
                // Literal without indexing / never indexed (4-bit prefix).
                let idx = decode_int(block, &mut pos, 4)? as usize;
                self.literal(block, &mut pos, idx, &mut list)?;
            }
        }
        // Each field counts at least 32 bytes towards a list's size.
        self.largest = (
            self.largest.0.max(list.text.len()).min(LIST_HINT_CAP),
            self.largest.1.max(list.len()).min(LIST_HINT_CAP / 32),
        );
        Some(list)
    }

    /// Push a literal field onto `list`: its name from table index
    /// `idx`, or a string literal when `idx` is 0, then its value.
    fn literal(
        &self,
        block: &[u8],
        pos: &mut usize,
        idx: usize,
        list: &mut HeaderList,
    ) -> Option<()> {
        let name = if idx == 0 {
            decode_string(block, pos)?
        } else {
            table_get(&self.dynamic, idx)?.0
        };
        let value = decode_string(block, pos)?;
        list.push(name, value);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(headers: &[(&str, &str)]) -> (usize, HeaderList) {
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        let block = enc.encode(headers);
        let out = dec.decode(&block).expect("decodes");
        (block.len(), out)
    }

    fn fields(list: &HeaderList) -> Vec<(&str, &str)> {
        list.iter().collect()
    }

    #[test]
    fn static_table_has_61_entries() {
        assert_eq!(STATIC_TABLE.len(), 61);
        assert_eq!(STATIC_TABLE[1], (":method", "GET"));
        assert_eq!(STATIC_TABLE[2], (":method", "POST"));
        assert_eq!(STATIC_TABLE[7], (":status", "200"));
    }

    #[test]
    fn fully_indexed_static_pairs_are_one_byte() {
        let mut enc = HpackEncoder::new();
        let block = enc.encode(&[
            (":method", "POST"),
            (":scheme", "https"),
            (":status", "200"),
        ]);
        assert_eq!(block.len(), 3);
    }

    #[test]
    fn roundtrip_doh_headers() {
        let headers = [
            (":method", "POST"),
            (":scheme", "https"),
            (":authority", "dns.example.net"),
            (":path", "/dns-query"),
            ("accept", "application/dns-message"),
            ("content-type", "application/dns-message"),
            ("content-length", "47"),
        ];
        let (_, out) = roundtrip(&headers);
        assert_eq!(fields(&out), headers);
    }

    #[test]
    fn repeat_encoding_uses_dynamic_table() {
        let headers = [
            (":authority", "dns.example.net"),
            ("content-type", "application/dns-message"),
        ];
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        let first = enc.encode(&headers);
        let second = enc.encode(&headers);
        assert!(
            second.len() < first.len() / 3,
            "{} vs {}",
            second.len(),
            first.len()
        );
        assert_eq!(fields(&dec.decode(&first).unwrap()), headers);
        assert_eq!(fields(&dec.decode(&second).unwrap()), headers);
    }

    #[test]
    fn unknown_names_roundtrip() {
        let headers = [("x-custom-header", "some value"), ("x-another", "")];
        let (_, out) = roundtrip(&headers);
        assert_eq!(fields(&out), headers);
    }

    #[test]
    fn integer_encoding_rfc_example() {
        // RFC 7541 C.1.1: encoding 10 with a 5-bit prefix -> 0b01010.
        let mut out = Vec::new();
        encode_int(&mut out, 0, 5, 10);
        assert_eq!(out, vec![0x0A]);
        // C.1.2: 1337 with 5-bit prefix -> 1F 9A 0A.
        let mut out = Vec::new();
        encode_int(&mut out, 0, 5, 1337);
        assert_eq!(out, vec![0x1F, 0x9A, 0x0A]);
        let mut pos = 0;
        assert_eq!(decode_int(&[0x1F, 0x9A, 0x0A], &mut pos, 5), Some(1337));
    }

    #[test]
    fn eviction_keeps_table_bounded() {
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        for i in 0..200 {
            let name = format!("x-header-{i}");
            let value = "v".repeat(100);
            let headers = [(name.as_str(), value.as_str())];
            let block = enc.encode(&headers);
            assert_eq!(fields(&dec.decode(&block).unwrap()), headers);
        }
        assert!(enc.dynamic.size <= enc.dynamic.max_size);
        assert!(dec.dynamic.size <= dec.dynamic.max_size);
        // Evicted bytes are reclaimed instead of growing the arena.
        assert!(enc.dynamic.arena.capacity() <= 2 * enc.dynamic.max_size);
        assert!(dec.dynamic.arena.capacity() <= 2 * dec.dynamic.max_size);
    }

    #[test]
    fn an_entry_larger_than_the_table_empties_it() {
        let mut enc = HpackEncoder::new();
        enc.encode(&[("x-small", "v")]);
        let huge = "v".repeat(5000);
        enc.encode(&[("x-huge", huge.as_str())]);
        assert!(enc.dynamic.entries.is_empty());
        assert_eq!((enc.dynamic.size, enc.dynamic.arena.len()), (0, 0));
    }

    #[test]
    fn the_block_bound_holds_for_literal_names_and_long_strings() {
        let long = "x".repeat(20_000);
        for headers in [
            vec![("x-custom", "value")],
            vec![(":method", "GET"), (":path", "/a/b/c")],
            vec![(long.as_str(), long.as_str()), ("y", long.as_str())],
        ] {
            let block = HpackEncoder::new().encode(&headers);
            assert!(block.len() <= HpackEncoder::max_block_len(&headers));
        }
        let literal = [("x-custom", "value")];
        assert_eq!(
            HpackEncoder::new().encode(&literal).len(),
            HpackEncoder::max_block_len(&literal)
        );
    }

    #[test]
    fn int_len_counts_what_encode_int_writes() {
        for n in [4, 5, 6, 7] {
            for value in [
                0,
                1,
                14,
                15,
                16,
                62,
                63,
                126,
                127,
                128,
                254,
                255,
                1337,
                1 << 20,
            ] {
                let mut out = Vec::new();
                encode_int(&mut out, 0, n, value);
                assert_eq!(int_len(n, value), out.len(), "n {n}, value {value}");
            }
        }
    }

    #[test]
    fn header_lists_look_fields_up_case_insensitively() {
        let (_, list) = roundtrip(&[("Content-Type", "a"), ("content-type", "b"), ("x", "")]);
        assert_eq!(list.len(), 3);
        assert_eq!(list.get("content-TYPE"), Some("a"));
        assert_eq!(list.get("x"), Some(""));
        assert_eq!(list.get("y"), None);
    }

    #[test]
    fn truncated_blocks_fail_gracefully() {
        let mut enc = HpackEncoder::new();
        let block = enc.encode(&[(":authority", "dns.example.net")]);
        let mut dec = HpackDecoder::new();
        assert!(dec.decode(&block[..block.len() - 1]).is_none());
    }

    #[test]
    fn invalid_index_fails() {
        let mut dec = HpackDecoder::new();
        // Indexed field 100 with an empty dynamic table.
        let mut block = Vec::new();
        encode_int(&mut block, 0x80, 7, 100);
        assert!(dec.decode(&block).is_none());
    }
}
