//! TCP segment wire format (RFC 793 §3.1) with the option kinds a
//! modern stack emits, so that on-wire sizes match what the paper's
//! Table 1 measures (a SYN with MSS + SACK-permitted + timestamps +
//! window scale is 40 bytes; a data/ACK segment with timestamps is 32).

use doqlab_simnet::PayloadBuf;

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

/// TCP options. Only the kinds that affect size or behaviour in this
/// workspace are given structure; SACK blocks are not modelled (loss
/// recovery uses duplicate-ACK counting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// Kind 2, 4 bytes.
    Mss(u16),
    /// Kind 4, 2 bytes ("SACK permitted").
    SackPermitted,
    /// Kind 8, 10 bytes.
    Timestamps { value: u32, echo: u32 },
    /// Kind 3, 3 bytes.
    WindowScale(u8),
    /// Kind 34 (TCP Fast Open, RFC 7413). An empty cookie is a request.
    FastOpenCookie(Vec<u8>),
}

impl TcpOption {
    fn encoded_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::WindowScale(_) => 3,
            TcpOption::FastOpenCookie(c) => 2 + c.len(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TcpOption::Mss(v) => {
                out.extend_from_slice(&[2, 4]);
                out.extend_from_slice(&v.to_be_bytes());
            }
            TcpOption::SackPermitted => out.extend_from_slice(&[4, 2]),
            TcpOption::Timestamps { value, echo } => {
                out.extend_from_slice(&[8, 10]);
                out.extend_from_slice(&value.to_be_bytes());
                out.extend_from_slice(&echo.to_be_bytes());
            }
            TcpOption::WindowScale(s) => out.extend_from_slice(&[3, 3, *s]),
            TcpOption::FastOpenCookie(c) => {
                out.push(34);
                out.push(2 + c.len() as u8);
                out.extend_from_slice(c);
            }
        }
    }
}

/// A TCP segment. `encode` produces the full header + options + payload
/// so that `Packet::ip_payload_len` is exactly the segment size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    pub options: Vec<TcpOption>,
    pub payload: Vec<u8>,
}

/// Base TCP header length.
pub const TCP_HEADER_LEN: usize = 20;

impl TcpSegment {
    /// Sequence space consumed: payload bytes, plus one for SYN and one
    /// for FIN.
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode into a pooled packet payload — the zero-allocation send
    /// path once the per-thread buffer pool is warm.
    pub fn encode_payload(&self) -> PayloadBuf {
        let mut out = PayloadBuf::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the wire encoding to `out` (cleared first).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let opt_len: usize = self.options.iter().map(|o| o.encoded_len()).sum();
        // Options are padded to a 4-byte boundary with NOPs.
        let padded = (opt_len + 3) & !3;
        let data_offset_words = (TCP_HEADER_LEN + padded) / 4;
        out.reserve(TCP_HEADER_LEN + padded + self.payload.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((data_offset_words as u8) << 4);
        out.push(self.flags.to_bits());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum (not modelled)
        out.extend_from_slice(&[0, 0]); // urgent pointer
        for opt in &self.options {
            opt.encode(out);
        }
        out.extend(std::iter::repeat_n(1u8, padded - opt_len)); // NOP padding
        out.extend_from_slice(&self.payload);
    }

    pub fn decode(buf: &[u8]) -> Option<TcpSegment> {
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
        let mut options = Vec::new();
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
                    let body = &buf[i + 2..i + len];
                    match kind {
                        2 if body.len() == 2 => {
                            options.push(TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])));
                        }
                        4 if body.is_empty() => options.push(TcpOption::SackPermitted),
                        8 if body.len() == 8 => options.push(TcpOption::Timestamps {
                            value: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                            echo: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                        }),
                        3 if body.len() == 1 => options.push(TcpOption::WindowScale(body[0])),
                        34 => options.push(TcpOption::FastOpenCookie(body.to_vec())),
                        _ => {} // unknown options are skipped
                    }
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
            payload: buf[header_len..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn() -> TcpSegment {
        TcpSegment {
            src_port: 40000,
            dst_port: 853,
            seq: 1000,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            options: vec![
                TcpOption::Mss(1460),
                TcpOption::SackPermitted,
                TcpOption::Timestamps { value: 1, echo: 0 },
                TcpOption::WindowScale(7),
            ],
            payload: vec![],
        }
    }

    #[test]
    fn syn_is_40_bytes() {
        // 20 header + 4+2+10+3=19 options padded to 20.
        assert_eq!(syn().encode().len(), 40);
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
            options: vec![TcpOption::Timestamps { value: 9, echo: 8 }],
            payload: vec![0; 100],
        };
        assert_eq!(seg.encode().len(), 132);
    }

    #[test]
    fn roundtrip() {
        let seg = syn();
        let decoded = TcpSegment::decode(&seg.encode()).unwrap();
        assert_eq!(decoded, seg);
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
            options: vec![TcpOption::Timestamps { value: 3, echo: 4 }],
            payload: b"data".to_vec(),
        };
        assert_eq!(TcpSegment::decode(&seg.encode()).unwrap(), seg);
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
            options: vec![TcpOption::FastOpenCookie(vec![1, 2, 3, 4, 5, 6, 7, 8])],
            payload: b"early".to_vec(),
        };
        let back = TcpSegment::decode(&seg.encode()).unwrap();
        assert_eq!(back.options, seg.options);
        assert_eq!(back.payload, seg.payload);
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut seg = syn();
        assert_eq!(seg.seq_len(), 1);
        seg.flags = TcpFlags::ACK;
        seg.payload = vec![0; 10];
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
            options: vec![],
            payload: vec![],
        }
        .encode();
        raw[12] = 0x60; // 24-byte header
        raw.extend_from_slice(&[99, 4, 0, 0]);
        let seg = TcpSegment::decode(&raw).unwrap();
        assert!(seg.options.is_empty());
        assert!(seg.payload.is_empty());
    }
}
