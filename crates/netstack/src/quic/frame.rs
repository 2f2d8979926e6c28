//! QUIC frames (RFC 9000 §19). The subset a DoQ connection exercises:
//! PADDING, PING, ACK (with ranges), CRYPTO, NEW_TOKEN, STREAM,
//! PATH_CHALLENGE, PATH_RESPONSE, CONNECTION_CLOSE and HANDSHAKE_DONE.
//!
//! Frames borrow their bytes. A decoded frame points into the packet
//! payload it was read from, ACK ranges included; a frame to send
//! points into the sender's buffers. Neither direction copies frame
//! data anywhere but to its destination.

use super::varint::{read_varint, varint_len, write_varint};

/// A frame; its data, token and reason are borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// `n` bytes of padding (run-length encoded here; one byte each on
    /// the wire).
    Padding(usize),
    Ping,
    Ack {
        ranges: AckRanges<'a>,
        delay: u64,
    },
    Crypto {
        offset: u64,
        data: &'a [u8],
    },
    NewToken {
        token: &'a [u8],
    },
    Stream {
        id: u64,
        offset: u64,
        data: &'a [u8],
        fin: bool,
    },
    /// Path validation probe (RFC 9000 §19.17): 8 opaque bytes the
    /// peer must echo in a PATH_RESPONSE on the same path.
    PathChallenge([u8; 8]),
    /// Echo of a received PATH_CHALLENGE (RFC 9000 §19.18).
    PathResponse([u8; 8]),
    ConnectionClose {
        error_code: u64,
        reason: &'a [u8],
    },
    HandshakeDone,
}

/// The acknowledged packet-number ranges of an ACK frame: inclusive
/// `(hi, lo)` pairs, highest first, with at least one unacknowledged
/// number between neighbours. A frame to send lists them; a decoded
/// frame reads them from its own encoding as they are iterated.
#[derive(Clone, Copy)]
pub struct AckRanges<'a>(Ranges<'a>);

#[derive(Clone, Copy)]
enum Ranges<'a> {
    List(&'a [(u64, u64)]),
    /// A decoded frame's largest acknowledged number, first range
    /// length, and the `(gap, length)` varint pairs after them, checked
    /// on decode to stay at or above packet number zero.
    Wire {
        largest: u64,
        first: u64,
        pairs: u64,
        rest: &'a [u8],
    },
}

impl<'a> AckRanges<'a> {
    /// Ranges to send; `ranges` must be non-empty, highest first and
    /// disjoint with gaps between them.
    pub fn new(ranges: &'a [(u64, u64)]) -> Self {
        AckRanges(Ranges::List(ranges))
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        match self.0 {
            Ranges::List(list) => list.len(),
            Ranges::Wire { pairs, .. } => pairs as usize + 1,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ranges, highest first.
    pub fn iter(&self) -> AckRangeIter<'a> {
        AckRangeIter(match self.0 {
            Ranges::List(list) => RangeIter::List(list.iter()),
            Ranges::Wire {
                largest,
                first,
                rest,
                ..
            } => RangeIter::Wire {
                next: Some((largest, largest - first)),
                rest,
                pos: 0,
            },
        })
    }

    /// Read the ranges of an ACK frame at `buf[*pos..]` (just past its
    /// largest and delay fields), advancing `pos` past them. `None` if
    /// truncated or if a range would fall below packet number zero.
    fn decode(buf: &'a [u8], pos: &mut usize, largest: u64) -> Option<Self> {
        let pairs = read_varint(buf, pos)?;
        let first = read_varint(buf, pos)?;
        let mut lo = largest.checked_sub(first)?;
        let start = *pos;
        for _ in 0..pairs {
            lo = next_range(buf, pos, lo)?.1;
        }
        Some(AckRanges(Ranges::Wire {
            largest,
            first,
            pairs,
            rest: &buf[start..*pos],
        }))
    }
}

/// The range after one ending at `lo`, from the `(gap, length)` pair at
/// `buf[*pos..]`.
fn next_range(buf: &[u8], pos: &mut usize, lo: u64) -> Option<(u64, u64)> {
    let gap = read_varint(buf, pos)?;
    let len = read_varint(buf, pos)?;
    let hi = lo.checked_sub(gap + 2)?;
    Some((hi, hi.checked_sub(len)?))
}

/// Iterator over [`AckRanges`], highest range first.
pub struct AckRangeIter<'a>(RangeIter<'a>);

enum RangeIter<'a> {
    List(std::slice::Iter<'a, (u64, u64)>),
    Wire {
        next: Option<(u64, u64)>,
        rest: &'a [u8],
        pos: usize,
    },
}

impl Iterator for AckRangeIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        match &mut self.0 {
            RangeIter::List(list) => list.next().copied(),
            RangeIter::Wire { next, rest, pos } => {
                let range = next.take()?;
                if *pos < rest.len() {
                    *next = next_range(rest, pos, range.1);
                }
                Some(range)
            }
        }
    }
}

impl PartialEq for AckRanges<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for AckRanges<'_> {}

impl std::fmt::Debug for AckRanges<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> Frame<'a> {
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Padding(_) | Frame::Ack { .. } | Frame::ConnectionClose { .. }
        )
    }

    /// Encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            Frame::Padding(n) => *n,
            Frame::Ping => 1,
            Frame::Ack { ranges, delay } => {
                let mut it = ranges.iter();
                let (largest, mut prev_lo) = it.next().expect("ACK needs at least one range");
                let mut len = 1
                    + varint_len(largest)
                    + varint_len(*delay)
                    + varint_len(ranges.len() as u64 - 1)
                    + varint_len(largest - prev_lo);
                for (hi, lo) in it {
                    len += varint_len(prev_lo - hi - 2) + varint_len(hi - lo);
                    prev_lo = lo;
                }
                len
            }
            Frame::Crypto { offset, data } => {
                1 + varint_len(*offset) + varint_len(data.len() as u64) + data.len()
            }
            Frame::NewToken { token } => 1 + varint_len(token.len() as u64) + token.len(),
            Frame::Stream {
                id, offset, data, ..
            } => {
                1 + varint_len(*id)
                    + varint_len(*offset)
                    + varint_len(data.len() as u64)
                    + data.len()
            }
            Frame::PathChallenge(_) | Frame::PathResponse(_) => 1 + 8,
            Frame::ConnectionClose { error_code, reason } => {
                1 + varint_len(*error_code)
                    + varint_len(0)
                    + varint_len(reason.len() as u64)
                    + reason.len()
            }
            Frame::HandshakeDone => 1,
        }
    }

    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Padding(n) => out.resize(out.len() + n, 0),
            Frame::Ping => out.push(0x01),
            Frame::Ack { ranges, delay } => {
                let mut it = ranges.iter();
                let (largest, mut prev_lo) = it.next().expect("ACK needs at least one range");
                out.push(0x02);
                write_varint(out, largest);
                write_varint(out, *delay);
                write_varint(out, ranges.len() as u64 - 1);
                write_varint(out, largest - prev_lo);
                for (hi, lo) in it {
                    // gap = number of unacked packets between ranges - 1
                    write_varint(out, prev_lo - hi - 2);
                    write_varint(out, hi - lo);
                    prev_lo = lo;
                }
            }
            Frame::Crypto { offset, data } => {
                out.push(0x06);
                write_varint(out, *offset);
                write_varint(out, data.len() as u64);
                out.extend_from_slice(data);
            }
            Frame::NewToken { token } => {
                out.push(0x07);
                write_varint(out, token.len() as u64);
                out.extend_from_slice(token);
            }
            Frame::Stream {
                id,
                offset,
                data,
                fin,
            } => {
                // 0x08 | OFF(0x04) | LEN(0x02) | FIN(0x01); we always set
                // OFF and LEN for a self-delimiting encoding.
                out.push(0x08 | 0x04 | 0x02 | (*fin as u8));
                write_varint(out, *id);
                write_varint(out, *offset);
                write_varint(out, data.len() as u64);
                out.extend_from_slice(data);
            }
            Frame::PathChallenge(data) => {
                out.push(0x1A);
                out.extend_from_slice(data);
            }
            Frame::PathResponse(data) => {
                out.push(0x1B);
                out.extend_from_slice(data);
            }
            Frame::ConnectionClose { error_code, reason } => {
                out.push(0x1C);
                write_varint(out, *error_code);
                write_varint(out, 0); // offending frame type
                write_varint(out, reason.len() as u64);
                out.extend_from_slice(reason);
            }
            Frame::HandshakeDone => out.push(0x1E),
        }
    }

    /// Decode the frame at `buf[*pos..]`, advancing `pos` past it.
    /// `None` if it is malformed. A run of PADDING bytes is one frame.
    pub(crate) fn decode(buf: &'a [u8], pos: &mut usize) -> Option<Frame<'a>> {
        let ftype = *buf.get(*pos)?;
        *pos += 1;
        let frame = match ftype {
            0x00 => {
                let start = *pos - 1;
                while *pos < buf.len() && buf[*pos] == 0 {
                    *pos += 1;
                }
                Frame::Padding(*pos - start)
            }
            0x01 => Frame::Ping,
            0x02 | 0x03 => {
                let largest = read_varint(buf, pos)?;
                let delay = read_varint(buf, pos)?;
                let ranges = AckRanges::decode(buf, pos, largest)?;
                Frame::Ack { ranges, delay }
            }
            0x06 => {
                let offset = read_varint(buf, pos)?;
                let len = read_varint(buf, pos)? as usize;
                Frame::Crypto {
                    offset,
                    data: take(buf, pos, len)?,
                }
            }
            0x07 => {
                let len = read_varint(buf, pos)? as usize;
                Frame::NewToken {
                    token: take(buf, pos, len)?,
                }
            }
            0x08..=0x0F => {
                let fin = ftype & 0x01 != 0;
                let has_len = ftype & 0x02 != 0;
                let has_off = ftype & 0x04 != 0;
                let id = read_varint(buf, pos)?;
                let offset = if has_off { read_varint(buf, pos)? } else { 0 };
                let len = if has_len {
                    read_varint(buf, pos)? as usize
                } else {
                    buf.len() - *pos
                };
                Frame::Stream {
                    id,
                    offset,
                    data: take(buf, pos, len)?,
                    fin,
                }
            }
            0x1A | 0x1B => {
                let data: [u8; 8] = take(buf, pos, 8)?.try_into().ok()?;
                if ftype == 0x1A {
                    Frame::PathChallenge(data)
                } else {
                    Frame::PathResponse(data)
                }
            }
            0x1C | 0x1D => {
                let error_code = read_varint(buf, pos)?;
                if ftype == 0x1C {
                    let _frame_type = read_varint(buf, pos)?;
                }
                let len = read_varint(buf, pos)? as usize;
                Frame::ConnectionClose {
                    error_code,
                    reason: take(buf, pos, len)?,
                }
            }
            0x1E => Frame::HandshakeDone,
            _ => return None,
        };
        Some(frame)
    }

    /// The frames of a packet payload, decoded in place one at a time;
    /// `None` if any of them is malformed, so a payload is acted on
    /// whole or not at all.
    pub fn parse(payload: &'a [u8]) -> Option<Frames<'a>> {
        let mut pos = 0;
        while pos < payload.len() {
            Frame::decode(payload, &mut pos)?;
        }
        Some(Frames { payload, pos: 0 })
    }
}

/// `len` bytes at `buf[*pos..]`, advancing `pos` past them.
fn take<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    let bytes = buf.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(bytes)
}

/// The frames of a well-formed payload, in order (see
/// [`Frame::parse`]).
pub struct Frames<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        if self.pos >= self.payload.len() {
            return None;
        }
        Frame::decode(self.payload, &mut self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(buf: &[u8]) -> Option<Vec<Frame<'_>>> {
        Frame::parse(buf).map(Iterator::collect)
    }

    fn roundtrip(frames: &[Frame]) {
        let mut buf = Vec::new();
        for f in frames {
            let before = buf.len();
            f.encode(&mut buf);
            assert_eq!(buf.len() - before, f.wire_len(), "wire_len of {f:?}");
        }
        assert_eq!(decode_all(&buf).as_deref(), Some(frames));
    }

    #[test]
    fn simple_frames_roundtrip() {
        roundtrip(&[
            Frame::Ping,
            Frame::Crypto {
                offset: 0,
                data: &[1, 2, 3],
            },
            Frame::NewToken { token: &[9; 32] },
            Frame::HandshakeDone,
            Frame::ConnectionClose {
                error_code: 0,
                reason: b"bye",
            },
        ]);
    }

    #[test]
    fn padding_merges() {
        roundtrip(&[Frame::Padding(100)]);
        let mut buf = vec![0u8; 10];
        buf.push(0x01);
        assert_eq!(
            decode_all(&buf),
            Some(vec![Frame::Padding(10), Frame::Ping])
        );
    }

    #[test]
    fn single_range_ack() {
        roundtrip(&[Frame::Ack {
            ranges: AckRanges::new(&[(7, 3)]),
            delay: 25,
        }]);
        roundtrip(&[Frame::Ack {
            ranges: AckRanges::new(&[(0, 0)]),
            delay: 0,
        }]);
    }

    #[test]
    fn multi_range_ack() {
        // Acked: 10-8, 5-5, 2-0.
        let ranges = [(10, 8), (5, 5), (2, 0)];
        roundtrip(&[Frame::Ack {
            ranges: AckRanges::new(&ranges),
            delay: 0,
        }]);
        // Read in place, the ranges come back highest first.
        let mut buf = Vec::new();
        Frame::Ack {
            ranges: AckRanges::new(&ranges),
            delay: 300,
        }
        .encode(&mut buf);
        let Some(Frame::Ack {
            ranges: read,
            delay,
        }) = Frame::decode(&buf, &mut 0)
        else {
            panic!("an ACK frame");
        };
        assert_eq!((read.len(), delay), (3, 300));
        assert!(read.iter().eq(ranges));
    }

    #[test]
    fn ack_ranges_below_zero_are_malformed() {
        // Largest 1, first range 1 (1-0), then a gap past zero.
        assert_eq!(decode_all(&[0x02, 1, 0, 1, 1, 0, 0]), None);
        // A first range longer than the largest acknowledged.
        assert_eq!(decode_all(&[0x02, 1, 0, 0, 2]), None);
    }

    #[test]
    fn stream_frames_with_fin() {
        roundtrip(&[
            Frame::Stream {
                id: 0,
                offset: 0,
                data: b"query",
                fin: true,
            },
            Frame::Stream {
                id: 4,
                offset: 100,
                data: &[],
                fin: true,
            },
            Frame::Stream {
                id: 8,
                offset: 5,
                data: &[7; 50],
                fin: false,
            },
        ]);
    }

    #[test]
    fn stream_without_length_takes_rest() {
        // Type 0x0C = OFF, no LEN: extends to end of payload.
        let mut buf = vec![0x0C];
        write_varint(&mut buf, 4); // id
        write_varint(&mut buf, 0); // offset
        buf.extend_from_slice(b"rest");
        assert_eq!(
            decode_all(&buf),
            Some(vec![Frame::Stream {
                id: 4,
                offset: 0,
                data: b"rest",
                fin: false
            }])
        );
    }

    #[test]
    fn malformed_frames_rejected() {
        assert_eq!(decode_all(&[0xFF]), None); // unknown type
        assert_eq!(decode_all(&[0x06, 0x00]), None); // truncated crypto
        let mut buf = vec![0x06];
        write_varint(&mut buf, 0);
        write_varint(&mut buf, 100); // claims 100 bytes, has none
        assert_eq!(decode_all(&buf), None);
        // A malformed frame after a good one rejects the whole payload.
        assert!(Frame::parse(&[0x01, 0xFF]).is_none());
    }

    #[test]
    fn path_frames_roundtrip() {
        roundtrip(&[
            Frame::PathChallenge([1, 2, 3, 4, 5, 6, 7, 8]),
            Frame::PathResponse([1, 2, 3, 4, 5, 6, 7, 8]),
            Frame::PathChallenge([0; 8]),
        ]);
        // Truncated probe data is malformed.
        assert_eq!(decode_all(&[0x1A, 1, 2, 3]), None);
        assert_eq!(decode_all(&[0x1B]), None);
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(Frame::Ping.is_ack_eliciting());
        // Path probes must elicit ACKs (RFC 9000 §9.3 probing packets).
        assert!(Frame::PathChallenge([0; 8]).is_ack_eliciting());
        assert!(Frame::PathResponse([0; 8]).is_ack_eliciting());
        assert!(Frame::Crypto {
            offset: 0,
            data: &[]
        }
        .is_ack_eliciting());
        assert!(!Frame::Padding(1).is_ack_eliciting());
        assert!(!Frame::Ack {
            ranges: AckRanges::new(&[(0, 0)]),
            delay: 0
        }
        .is_ack_eliciting());
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            reason: &[]
        }
        .is_ack_eliciting());
    }
}
