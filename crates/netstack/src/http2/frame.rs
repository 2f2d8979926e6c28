//! HTTP/2 frame layer (RFC 9113 §4): 9-byte header — 24-bit length,
//! type, flags, 31-bit stream id — followed by the payload.

const FLAG_ACK: u8 = 0x01; // SETTINGS / PING
const FLAG_END_STREAM: u8 = 0x01; // HEADERS / DATA
const FLAG_END_HEADERS: u8 = 0x04;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum H2FrameType {
    Data,
    Headers,
    RstStream,
    Settings,
    Ping,
    GoAway,
    WindowUpdate,
    Other(u8),
}

impl H2FrameType {
    fn to_u8(self) -> u8 {
        match self {
            H2FrameType::Data => 0x0,
            H2FrameType::Headers => 0x1,
            H2FrameType::RstStream => 0x3,
            H2FrameType::Settings => 0x4,
            H2FrameType::Ping => 0x6,
            H2FrameType::GoAway => 0x7,
            H2FrameType::WindowUpdate => 0x8,
            H2FrameType::Other(v) => v,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0x0 => H2FrameType::Data,
            0x1 => H2FrameType::Headers,
            0x3 => H2FrameType::RstStream,
            0x4 => H2FrameType::Settings,
            0x6 => H2FrameType::Ping,
            0x7 => H2FrameType::GoAway,
            0x8 => H2FrameType::WindowUpdate,
            other => H2FrameType::Other(other),
        }
    }
}

/// A non-ACK SETTINGS payload: a realistic set of six settings
/// (36 bytes), like common implementations send — 6 x (u16 id,
/// u32 value).
const SETTINGS_PAYLOAD: [u8; 36] = [
    0, 1, 0, 0, 0x10, 0, // header table size: 4096
    0, 2, 0, 0, 0, 0, // enable push: 0
    0, 3, 0, 0, 0, 100, // max concurrent streams: 100
    0, 4, 0, 0x10, 0, 0, // initial window: 1 MiB
    0, 5, 0, 0, 0x40, 0, // max frame size: 16,384
    0, 6, 0, 1, 0, 0, // max header list size: 65,536
];

/// One HTTP/2 frame. The payload is borrowed: a frame is encoded
/// straight into the output buffer and decoded in place from the input
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H2Frame<'a> {
    pub ftype: H2FrameType,
    pub flags: u8,
    pub stream_id: u32,
    pub payload: &'a [u8],
}

impl<'a> H2Frame<'a> {
    /// Bytes in a frame header: 24-bit length, type, flags, stream id.
    pub const HEADER_LEN: usize = 9;

    /// A SETTINGS frame; a non-ACK one carries six settings (36 bytes).
    pub fn settings(ack: bool) -> H2Frame<'static> {
        H2Frame {
            ftype: H2FrameType::Settings,
            flags: if ack { FLAG_ACK } else { 0 },
            stream_id: 0,
            payload: if ack { &[] } else { &SETTINGS_PAYLOAD },
        }
    }

    pub fn headers(stream_id: u32, block: &'a [u8], end_stream: bool) -> H2Frame<'a> {
        H2Frame {
            ftype: H2FrameType::Headers,
            flags: FLAG_END_HEADERS | if end_stream { FLAG_END_STREAM } else { 0 },
            stream_id,
            payload: block,
        }
    }

    pub fn data(stream_id: u32, payload: &'a [u8], end_stream: bool) -> H2Frame<'a> {
        H2Frame {
            ftype: H2FrameType::Data,
            flags: if end_stream { FLAG_END_STREAM } else { 0 },
            stream_id,
            payload,
        }
    }

    pub fn ping_ack(payload: &'a [u8]) -> H2Frame<'a> {
        H2Frame {
            ftype: H2FrameType::Ping,
            flags: FLAG_ACK,
            stream_id: 0,
            payload,
        }
    }

    pub fn goaway() -> H2Frame<'static> {
        // last stream id (4) + error code (4).
        H2Frame {
            ftype: H2FrameType::GoAway,
            flags: 0,
            stream_id: 0,
            payload: &[0; 8],
        }
    }

    pub fn flags_ack(&self) -> bool {
        self.flags & FLAG_ACK != 0
    }

    pub fn flags_end_stream(&self) -> bool {
        matches!(self.ftype, H2FrameType::Data | H2FrameType::Headers)
            && self.flags & FLAG_END_STREAM != 0
    }

    /// Append the header and the payload to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(Self::HEADER_LEN + self.payload.len());
        let len = self.payload.len() as u32;
        out.extend_from_slice(&len.to_be_bytes()[1..]);
        out.push(self.ftype.to_u8());
        out.push(self.flags);
        out.extend_from_slice(&(self.stream_id & 0x7FFF_FFFF).to_be_bytes());
        out.extend_from_slice(self.payload);
    }

    /// Append a HEADERS frame whose block `write_block` appends straight
    /// after the frame header; the header's length is set afterwards.
    pub(crate) fn encode_headers(
        out: &mut Vec<u8>,
        stream_id: u32,
        end_stream: bool,
        write_block: impl FnOnce(&mut Vec<u8>),
    ) {
        let start = out.len();
        H2Frame::headers(stream_id, &[], end_stream).encode(out);
        write_block(out);
        let len = (out.len() - start - Self::HEADER_LEN) as u32;
        out[start..start + 3].copy_from_slice(&len.to_be_bytes()[1..]);
    }

    /// Parse one frame from the front of `buf`, borrowing its payload;
    /// `None` if incomplete.
    pub fn decode(buf: &'a [u8]) -> Option<(H2Frame<'a>, usize)> {
        if buf.len() < Self::HEADER_LEN {
            return None;
        }
        let len = u32::from_be_bytes([0, buf[0], buf[1], buf[2]]) as usize;
        let end = Self::HEADER_LEN + len;
        if buf.len() < end {
            return None;
        }
        let frame = H2Frame {
            ftype: H2FrameType::from_u8(buf[3]),
            flags: buf[4],
            stream_id: u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]) & 0x7FFF_FFFF,
            payload: &buf[Self::HEADER_LEN..end],
        };
        Some((frame, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(frame: H2Frame<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        frame.encode(&mut out);
        out
    }

    #[test]
    fn roundtrip_all_constructors() {
        for frame in [
            H2Frame::settings(false),
            H2Frame::settings(true),
            H2Frame::headers(1, &[1, 2, 3], true),
            H2Frame::headers(3, &[], false),
            H2Frame::data(1, b"body", true),
            H2Frame::ping_ack(&[0; 8]),
            H2Frame::goaway(),
        ] {
            let wire = wire(frame);
            let (back, used) = H2Frame::decode(&wire).unwrap();
            assert_eq!(used, wire.len());
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn a_block_written_in_place_matches_a_borrowed_one() {
        let mut in_place = Vec::new();
        H2Frame::encode_headers(&mut in_place, 5, true, |out| {
            out.extend_from_slice(&[7; 300])
        });
        assert_eq!(in_place, wire(H2Frame::headers(5, &[7; 300], true)));
    }

    #[test]
    fn settings_frame_is_realistic_size() {
        assert_eq!(wire(H2Frame::settings(false)).len(), 9 + 36);
        assert_eq!(wire(H2Frame::settings(true)).len(), 9);
    }

    #[test]
    fn end_stream_flag_only_on_data_and_headers() {
        let mut s = H2Frame::settings(true);
        s.flags = 0x01;
        assert!(!s.flags_end_stream());
        assert!(s.flags_ack());
        let d = H2Frame::data(1, &[], true);
        assert!(d.flags_end_stream());
    }

    #[test]
    fn incomplete_frames_wait() {
        let wire = wire(H2Frame::data(1, &[9; 100], false));
        for cut in [0, 5, 9, 50] {
            assert!(H2Frame::decode(&wire[..cut]).is_none());
        }
    }

    #[test]
    fn reserved_bit_is_masked() {
        let mut wire = wire(H2Frame::data(1, &[], false));
        wire[5] |= 0x80; // set the reserved bit
        let (frame, _) = H2Frame::decode(&wire).unwrap();
        assert_eq!(frame.stream_id, 1);
    }
}
