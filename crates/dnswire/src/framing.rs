//! Two-byte length-prefixed framing for DNS over stream transports
//! (RFC 1035 §4.2.2; used by DoTCP, DoT, and the `doq-i03`+ / RFC 9250
//! DoQ stream mapping).

/// Prefix `msg` with its big-endian 16-bit length.
pub fn frame(msg: &[u8]) -> Vec<u8> {
    assert!(
        msg.len() <= u16::MAX as usize,
        "DNS message too large to frame"
    );
    let mut out = Vec::with_capacity(2 + msg.len());
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(msg);
    out
}

/// The first message of `buf`, once its length prefix and every byte
/// it announces are there.
pub fn unframe(buf: &[u8]) -> Option<&[u8]> {
    let len = u16::from_be_bytes([*buf.first()?, *buf.get(1)?]) as usize;
    buf.get(2..2 + len)
}

/// Incremental de-framer: feed arbitrary byte chunks, take out complete
/// messages. Stream transports deliver bytes with no message alignment,
/// so a reader must tolerate split length prefixes and coalesced
/// messages. Messages are read in place from an offset into the buffer,
/// which drops the messages already taken once per [`push`](Self::push).
#[derive(Debug, Default)]
pub struct LengthPrefixedReader {
    buf: Vec<u8>,
    /// Start of the first message not yet taken.
    pos: usize,
}

impl LengthPrefixedReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(data);
    }

    /// The next complete message, if one is buffered, borrowed from the
    /// reader until the next call.
    pub fn next_message(&mut self) -> Option<&[u8]> {
        let len = unframe(&self.buf[self.pos..])?.len();
        let start = self.pos + 2;
        self.pos = start + len;
        Some(&self.buf[start..self.pos])
    }

    /// Bytes buffered but not yet forming a complete message.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_prepends_length() {
        assert_eq!(frame(&[1, 2, 3]), vec![0, 3, 1, 2, 3]);
        assert_eq!(frame(&[]), vec![0, 0]);
    }

    #[test]
    fn unframe_waits_for_the_whole_message() {
        let framed = frame(b"hello");
        assert_eq!(unframe(&framed), Some(&b"hello"[..]));
        for cut in 0..framed.len() {
            assert_eq!(unframe(&framed[..cut]), None, "{cut} bytes");
        }
        assert_eq!(unframe(&[0, 0, 9]), Some(&[][..]));
    }

    #[test]
    fn single_message_roundtrip() {
        let mut r = LengthPrefixedReader::new();
        r.push(&frame(b"hello"));
        assert_eq!(r.next_message(), Some(&b"hello"[..]));
        assert_eq!(r.next_message(), None);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn split_across_arbitrary_chunks() {
        let wire = frame(b"abcdef");
        for split in 0..wire.len() {
            let mut r = LengthPrefixedReader::new();
            r.push(&wire[..split]);
            assert_eq!(r.next_message(), None, "split at {split}");
            r.push(&wire[split..]);
            assert_eq!(r.next_message(), Some(&b"abcdef"[..]));
        }
    }

    #[test]
    fn coalesced_messages() {
        let mut wire = frame(b"one");
        wire.extend(frame(b"two"));
        wire.extend(frame(b""));
        let mut r = LengthPrefixedReader::new();
        r.push(&wire);
        assert_eq!(r.next_message(), Some(&b"one"[..]));
        assert_eq!(r.next_message(), Some(&b"two"[..]));
        assert_eq!(r.next_message(), Some(&[][..]));
        assert_eq!(r.next_message(), None);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_message_panics() {
        frame(&vec![0; 70_000]);
    }
}
