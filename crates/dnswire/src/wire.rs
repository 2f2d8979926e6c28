//! Low-level wire reading and writing.
//!
//! [`WireWriter`] appends big-endian integers and byte slices to a
//! growable buffer and compresses the names written through
//! [`Name::encode`](crate::Name::encode). It keeps no dictionary of
//! suffixes: it records the offset of every label it writes, and finds a
//! suffix by walking the bytes already written from each recorded offset
//! (following its own earlier pointers, comparing case-insensitively).
//! [`WireReader`] is a bounds-checked cursor over received bytes; all
//! failures surface as [`WireError`] — malformed input can never panic.

/// Decoding / encoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// A label exceeded 63 bytes or a name exceeded 255 bytes.
    NameTooLong,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A label length byte used the reserved 0x40/0x80 prefixes.
    BadLabelType,
    /// A count field disagreed with the message contents.
    BadCount,
    /// Any other structural violation, with a short description.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::NameTooLong => write!(f, "name or label too long"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadLabelType => write!(f, "reserved label type"),
            WireError::BadCount => write!(f, "section count mismatch"),
            WireError::Invalid(what) => write!(f, "invalid message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Compression pointers address only the first 16 KiB: two of their 16
/// bits are the pointer tag.
const POINTER_LIMIT: usize = 0x4000;

/// Growable output buffer that compresses the names written into it.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Offsets of the labels written by [`put_compressed_name`], in
    /// writing (so ascending) order: each starts a name suffix a later
    /// name may point at. Offsets a pointer cannot reach are not kept.
    ///
    /// [`put_compressed_name`]: WireWriter::put_compressed_name
    name_starts: Vec<u16>,
}

impl WireWriter {
    /// An empty writer; allocates nothing until written to.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// An empty writer whose buffer holds `capacity` bytes before it
    /// grows.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(capacity),
            name_starts: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrite two bytes at `at` (used to patch RDLENGTH after the
    /// RDATA, whose compressed size is not known in advance).
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Write a name given as its uncompressed wire form without the
    /// root byte, compressed: at each label boundary, emit a pointer to
    /// the first place the same suffix was written (ignoring ASCII
    /// case); otherwise write the label and record where it starts.
    pub(crate) fn put_compressed_name(&mut self, name: &[u8]) {
        let mut rest = name;
        while let Some(&len) = rest.first() {
            if let Some(at) = self.find_suffix(rest) {
                self.put_u16(0xC000 | at);
                return;
            }
            if self.buf.len() < POINTER_LIMIT {
                self.name_starts.push(self.buf.len() as u16);
            }
            let (label, tail) = rest.split_at(1 + len as usize);
            self.put_slice(label);
            rest = tail;
        }
        self.put_u8(0); // root
    }

    /// The first recorded offset from which the written name equals
    /// `suffix` (a well-formed wire form without the root byte).
    fn find_suffix(&self, suffix: &[u8]) -> Option<u16> {
        self.name_starts
            .iter()
            .copied()
            .find(|&at| self.written_name_is(at as usize, suffix))
    }

    /// Whether the name written at `at`, read through this writer's own
    /// pointers, equals `suffix` ignoring ASCII case. The walk reads only
    /// what `put_compressed_name` wrote, whose pointers all point back;
    /// it still gives up on anything else rather than loop or panic.
    fn written_name_is(&self, mut at: usize, mut suffix: &[u8]) -> bool {
        loop {
            let Some(&len) = self.buf.get(at) else {
                return false;
            };
            if len & 0xC0 == 0xC0 {
                let Some(&lo) = self.buf.get(at + 1) else {
                    return false;
                };
                let target = usize::from(len & 0x3F) << 8 | usize::from(lo);
                if target >= at {
                    return false;
                }
                at = target;
                continue;
            }
            let Some((&want, tail)) = suffix.split_first() else {
                return len == 0;
            };
            let (label, tail) = tail.split_at(want as usize);
            let end = at + 1 + label.len();
            if len != want
                || !self
                    .buf
                    .get(at + 1..end)
                    .is_some_and(|written| written.eq_ignore_ascii_case(label))
            {
                return false;
            }
            suffix = tail;
            at = end;
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked cursor over an input buffer.
///
/// The reader always retains a view of the *whole* message so that
/// compression pointers can jump backwards.
#[derive(Debug, Clone, Copy)]
pub struct WireReader<'a> {
    full: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { full: buf, pos: 0 }
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Jump to an absolute offset (used for compression pointers).
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.full.len() {
            return Err(WireError::Truncated);
        }
        self.pos = pos;
        Ok(())
    }

    pub fn remaining(&self) -> usize {
        self.full.len() - self.pos
    }

    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.full.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let s = self.get_slice(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let s = self.get_slice(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub fn get_slice(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated);
        }
        let s = &self.full[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_primitives() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_slice(&[1, 2]);
        assert_eq!(
            w.finish(),
            vec![0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2]
        );
    }

    #[test]
    fn patch_u16_overwrites_in_place() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(9);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.finish(), vec![0xBE, 0xEF, 9]);
    }

    #[test]
    fn reader_primitives_roundtrip() {
        let buf = [0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_slice(2).unwrap(), &[1, 2]);
        assert!(r.is_at_end());
    }

    #[test]
    fn reader_rejects_overrun() {
        let mut r = WireReader::new(&[1]);
        assert_eq!(r.get_u16(), Err(WireError::Truncated));
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u8(), Err(WireError::Truncated));
    }

    #[test]
    fn seek_bounds() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert!(r.seek(3).is_ok());
        assert!(r.is_at_end());
        assert_eq!(r.seek(4), Err(WireError::Truncated));
    }

    #[test]
    fn compression_first_offset_wins() {
        // The same suffix written twice, the second time by hand so the
        // writer records it again: pointers still target the first.
        let mut w = WireWriter::new();
        w.put_slice(&[0; 12]);
        w.put_compressed_name(b"\x07example\x03com");
        w.put_slice(&[0; 15]);
        let second = w.len();
        w.name_starts.push(second as u16);
        w.put_slice(b"\x07EXAMPLE\x03com\x00");
        assert_eq!(w.find_suffix(b"\x07example\x03com"), Some(12));
        let before = w.len();
        w.put_compressed_name(b"\x07Example\x03COM");
        assert_eq!(&w.as_slice()[before..], b"\xC0\x0C");
    }

    #[test]
    fn compression_ignores_unreachable_offsets() {
        // A name written at 0x4000 cannot be pointed at: its second
        // occurrence is written out again.
        let mut w = WireWriter::new();
        w.put_slice(&vec![0; POINTER_LIMIT]);
        w.put_compressed_name(b"\x01x");
        assert!(w.name_starts.is_empty());
        let before = w.len();
        w.put_compressed_name(b"\x01x");
        assert_eq!(&w.as_slice()[before..], b"\x01x\x00");
    }

    #[test]
    fn the_suffix_walk_gives_up_on_bytes_it_did_not_write() {
        let mut w = WireWriter::new();
        w.put_slice(b"\xC0\x00\xC0\x05\x01");
        // A self-pointer, a forward pointer, a label running off the end.
        assert!(!w.written_name_is(0, b"\x01a"));
        assert!(!w.written_name_is(2, b"\x01a"));
        assert!(!w.written_name_is(4, b"\x01a"));
        assert!(!w.written_name_is(9, b"\x01a"));
    }
}
