//! TCP segment wire format (RFC 793 §3.1) with the option kinds a
//! modern stack emits, so that on-wire sizes match what the paper's
//! Table 1 measures (a SYN with MSS + SACK-permitted + timestamps +
//! window scale is 40 bytes; a data/ACK segment with timestamps is 32).

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
    pub psh: bool,
}

impl TcpFlags {
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    fn to_bits(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_bits(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP Fast Open cookie (RFC 7413 §4.1.1), kept inline: at most 16
/// bytes. An empty cookie is a client's request for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TfoCookie {
    len: u8,
    bytes: [u8; TfoCookie::MAX_LEN],
}

impl TfoCookie {
    /// The longest cookie RFC 7413 allows.
    pub const MAX_LEN: usize = 16;

    /// `bytes` as a cookie; `None` when longer than [`Self::MAX_LEN`].
    pub fn new(bytes: &[u8]) -> Option<TfoCookie> {
        let mut cookie = TfoCookie::default();
        cookie.bytes.get_mut(..bytes.len())?.copy_from_slice(bytes);
        cookie.len = bytes.len() as u8;
        Some(cookie)
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The timestamps option (kind 8): the sender's clock and the echo of
/// the peer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timestamps {
    pub value: u32,
    pub echo: u32,
}

/// A segment's options, kept inline. Only the kinds that affect size or
/// behaviour in this workspace are modelled (SACK blocks are not: loss
/// recovery uses duplicate-ACK counting); each kind appears at most
/// once and is encoded in field order. Decoding keeps the first valid
/// occurrence of a kind and skips unknown kinds, malformed lengths of
/// known ones and cookies longer than [`TfoCookie::MAX_LEN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpOptions {
    /// Kind 2, 4 bytes.
    pub mss: Option<u16>,
    /// Kind 4, 2 bytes.
    pub sack_permitted: bool,
    /// Kind 8, 10 bytes.
    pub timestamps: Option<Timestamps>,
    /// Kind 3, 3 bytes.
    pub window_scale: Option<u8>,
    /// Kind 34 (TCP Fast Open, RFC 7413), 2 bytes plus the cookie.
    pub fast_open: Option<TfoCookie>,
}

impl TcpOptions {
    /// Encoded length before NOP padding.
    fn encoded_len(&self) -> usize {
        self.mss.map_or(0, |_| 4)
            + if self.sack_permitted { 2 } else { 0 }
            + self.timestamps.map_or(0, |_| 10)
            + self.window_scale.map_or(0, |_| 3)
            + self.fast_open.map_or(0, |c| 2 + c.as_slice().len())
    }

    fn encode(&self, out: &mut Vec<u8>) {
        if let Some(mss) = self.mss {
            out.extend_from_slice(&[2, 4]);
            out.extend_from_slice(&mss.to_be_bytes());
        }
        if self.sack_permitted {
            out.extend_from_slice(&[4, 2]);
        }
        if let Some(ts) = self.timestamps {
            out.extend_from_slice(&[8, 10]);
            out.extend_from_slice(&ts.value.to_be_bytes());
            out.extend_from_slice(&ts.echo.to_be_bytes());
        }
        if let Some(shift) = self.window_scale {
            out.extend_from_slice(&[3, 3, shift]);
        }
        if let Some(cookie) = self.fast_open {
            let cookie = cookie.as_slice();
            out.extend_from_slice(&[34, 2 + cookie.len() as u8]);
            out.extend_from_slice(cookie);
        }
    }

    /// Record option `kind` with `body` unless an earlier one of its
    /// kind was kept.
    fn decode_one(&mut self, kind: u8, body: &[u8]) {
        match (kind, body) {
            (2, &[a, b]) => {
                self.mss.get_or_insert(u16::from_be_bytes([a, b]));
            }
            (4, []) => self.sack_permitted = true,
            (8, &[v0, v1, v2, v3, e0, e1, e2, e3]) => {
                self.timestamps.get_or_insert(Timestamps {
                    value: u32::from_be_bytes([v0, v1, v2, v3]),
                    echo: u32::from_be_bytes([e0, e1, e2, e3]),
                });
            }
            (3, &[shift]) => {
                self.window_scale.get_or_insert(shift);
            }
            (34, cookie) if self.fast_open.is_none() => self.fast_open = TfoCookie::new(cookie),
            _ => {} // unknown options are skipped
        }
    }
}

/// A TCP segment, its payload borrowed: decoded in place from a received
/// packet, or encoded straight into one. `encode` produces the full
/// header + options + payload so that `Packet::ip_payload_len` is
/// exactly the segment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment<'a> {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    pub options: TcpOptions,
    pub payload: &'a [u8],
}

/// Base TCP header length.
pub const TCP_HEADER_LEN: usize = 20;

impl<'a> TcpSegment<'a> {
    /// Sequence space consumed: payload bytes, plus one for SYN and one
    /// for FIN.
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// Header length: the base header plus the options, padded to a
    /// 4-byte boundary with NOPs.
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + ((self.options.encoded_len() + 3) & !3)
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Write the wire encoding to `out` (cleared first).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.header_len() + self.payload.len());
        self.encode_header(out);
        out.extend_from_slice(self.payload);
    }

    /// Append the header and the options, without the payload: a sender
    /// writes the payload after it from wherever the bytes live.
    pub(crate) fn encode_header(&self, out: &mut Vec<u8>) {
        let header_len = self.header_len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(((header_len / 4) as u8) << 4);
        out.push(self.flags.to_bits());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum (not modelled)
        out.extend_from_slice(&[0, 0]); // urgent pointer
        self.options.encode(out);
        let padding = header_len - TCP_HEADER_LEN - self.options.encoded_len();
        out.extend_from_slice(&[1, 1, 1][..padding]); // NOP padding
    }

    /// Parse a segment, borrowing its payload from `buf`.
    pub fn decode(buf: &'a [u8]) -> Option<TcpSegment<'a>> {
        if buf.len() < TCP_HEADER_LEN {
            return None;
        }
        let src_port = u16::from_be_bytes([buf[0], buf[1]]);
        let dst_port = u16::from_be_bytes([buf[2], buf[3]]);
        let seq = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
        let ack = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]);
        let header_len = ((buf[12] >> 4) as usize) * 4;
        if header_len < TCP_HEADER_LEN || header_len > buf.len() {
            return None;
        }
        let flags = TcpFlags::from_bits(buf[13]);
        let window = u16::from_be_bytes([buf[14], buf[15]]);
        let mut options = TcpOptions::default();
        let mut i = TCP_HEADER_LEN;
        while i < header_len {
            match buf[i] {
                0 => break,  // end of options
                1 => i += 1, // NOP
                kind => {
                    if i + 1 >= header_len {
                        return None;
                    }
                    let len = buf[i + 1] as usize;
                    if len < 2 || i + len > header_len {
                        return None;
                    }
                    options.decode_one(kind, &buf[i + 2..i + len]);
                    i += len;
                }
            }
        }
        Some(TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            options,
            payload: &buf[header_len..],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn_options() -> TcpOptions {
        TcpOptions {
            mss: Some(1460),
            sack_permitted: true,
            timestamps: Some(Timestamps { value: 1, echo: 0 }),
            window_scale: Some(7),
            fast_open: None,
        }
    }

    fn syn() -> TcpSegment<'static> {
        TcpSegment {
            src_port: 40000,
            dst_port: 853,
            seq: 1000,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            options: syn_options(),
            payload: &[],
        }
    }

    fn timestamps(value: u32, echo: u32) -> TcpOptions {
        TcpOptions {
            timestamps: Some(Timestamps { value, echo }),
            ..TcpOptions::default()
        }
    }

    #[test]
    fn syn_is_40_bytes() {
        // 20 header + 4+2+10+3=19 options padded to 20.
        assert_eq!(syn().encode().len(), 40);
        assert_eq!(syn().header_len(), 40);
    }

    #[test]
    fn data_segment_with_timestamps_is_32_plus_payload() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 5,
            ack: 6,
            flags: TcpFlags::ACK,
            window: 65535,
            options: timestamps(9, 8),
            payload: &[0; 100],
        };
        assert_eq!(seg.encode().len(), 132);
    }

    #[test]
    fn roundtrip() {
        let seg = syn();
        let wire = seg.encode();
        assert_eq!(TcpSegment::decode(&wire).unwrap(), seg);
    }

    #[test]
    fn roundtrip_with_payload_and_fin() {
        let seg = TcpSegment {
            src_port: 9,
            dst_port: 10,
            seq: 0xFFFF_FFF0,
            ack: 77,
            flags: TcpFlags {
                fin: true,
                ack: true,
                psh: true,
                ..TcpFlags::default()
            },
            window: 1024,
            options: timestamps(3, 4),
            payload: b"data",
        };
        let wire = seg.encode();
        assert_eq!(TcpSegment::decode(&wire).unwrap(), seg);
    }

    #[test]
    fn tfo_cookie_roundtrip() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            options: TcpOptions {
                fast_open: TfoCookie::new(&[1, 2, 3, 4, 5, 6, 7, 8]),
                ..TcpOptions::default()
            },
            payload: b"early",
        };
        let wire = seg.encode();
        let back = TcpSegment::decode(&wire).unwrap();
        assert_eq!(back.options, seg.options);
        assert_eq!(back.payload, seg.payload);
    }

    #[test]
    fn cookies_hold_at_most_sixteen_bytes() {
        assert_eq!(TfoCookie::new(&[7; 16]).unwrap().as_slice(), &[7; 16]);
        assert!(TfoCookie::new(&[7; 17]).is_none());
        assert!(TfoCookie::default().is_empty());
    }

    #[test]
    fn the_header_is_written_apart_from_the_payload() {
        let seg = TcpSegment {
            payload: b"abc",
            ..syn()
        };
        let mut wire = Vec::new();
        seg.encode_header(&mut wire);
        assert_eq!(wire.len(), seg.header_len());
        wire.extend_from_slice(b"abc");
        assert_eq!(wire, seg.encode());
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut seg = syn();
        assert_eq!(seg.seq_len(), 1);
        seg.flags = TcpFlags::ACK;
        seg.payload = &[0; 10];
        assert_eq!(seg.seq_len(), 10);
        seg.flags = TcpFlags::FIN_ACK;
        assert_eq!(seg.seq_len(), 11);
    }

    #[test]
    fn decode_rejects_short_or_corrupt() {
        assert!(TcpSegment::decode(&[0; 10]).is_none());
        let mut buf = syn().encode();
        buf[12] = 0x20; // header length 8 < 20
        assert!(TcpSegment::decode(&buf).is_none());
        let mut buf2 = syn().encode();
        buf2[12] = 0xF0; // header length 60 > buffer
        assert!(TcpSegment::decode(&buf2).is_none());
    }

    #[test]
    fn decode_skips_unknown_options() {
        // kind 99, len 4.
        let mut raw = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 100,
            options: TcpOptions::default(),
            payload: &[],
        }
        .encode();
        raw[12] = 0x60; // 24-byte header
        raw.extend_from_slice(&[99, 4, 0, 0]);
        let seg = TcpSegment::decode(&raw).unwrap();
        assert_eq!(seg.options, TcpOptions::default());
        assert!(seg.payload.is_empty());
    }
}
