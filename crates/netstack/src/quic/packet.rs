//! QUIC packet headers (RFC 9000 §17): long headers for
//! Initial/0-RTT/Handshake/Retry, the short header for 1-RTT, and the
//! Version Negotiation packet — including its use as the stateless
//! response to the version-0 probe the paper's scanner sends.

use super::varint::{read_varint, varint_len, write_varint};
use super::PACKET_TAG_LEN;

/// Connection IDs are fixed at 8 bytes in this implementation.
pub const CID_LEN: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketType {
    Initial,
    ZeroRtt,
    Handshake,
    Retry,
    /// Short header.
    OneRtt,
}

/// A packet whose token and payload are borrowed: a decoded packet
/// points into the datagram it was read from. Protected packet payloads
/// carry a modelled 16-byte AEAD tag on the wire which is stripped on
/// decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet<'a> {
    pub ptype: PacketType,
    pub version: u32,
    pub dcid: [u8; CID_LEN],
    pub scid: [u8; CID_LEN],
    /// Initial and Retry only.
    pub token: &'a [u8],
    pub packet_number: u64,
    /// Frame bytes (plaintext).
    pub payload: &'a [u8],
}

impl<'a> Packet<'a> {
    pub fn new(
        ptype: PacketType,
        version: u32,
        dcid: [u8; CID_LEN],
        scid: [u8; CID_LEN],
        packet_number: u64,
        payload: &'a [u8],
    ) -> Self {
        Packet {
            ptype,
            version,
            dcid,
            scid,
            token: &[],
            packet_number,
            payload,
        }
    }

    fn type_bits(ptype: PacketType) -> u8 {
        match ptype {
            PacketType::Initial => 0,
            PacketType::ZeroRtt => 1,
            PacketType::Handshake => 2,
            PacketType::Retry => 3,
            PacketType::OneRtt => unreachable!("short header"),
        }
    }

    /// Size this packet will occupy on the wire.
    pub fn wire_len(&self) -> usize {
        self.len_with_payload(self.payload.len())
    }

    /// Size on the wire of this packet's header with a payload of
    /// `payload_len` bytes in place of its own (a Retry has none).
    pub(crate) fn len_with_payload(&self, payload_len: usize) -> usize {
        let header = match self.ptype {
            PacketType::OneRtt => 1 + CID_LEN + 4,
            PacketType::Retry => {
                return 1 + 4 + 2 * (1 + CID_LEN) + self.token.len() + PACKET_TAG_LEN
            }
            ptype => {
                let mut n = 1 + 4 + 2 * (1 + CID_LEN) + 4;
                if ptype == PacketType::Initial {
                    n += varint_len(self.token.len() as u64) + self.token.len();
                }
                n + varint_len(Self::length_field(payload_len))
            }
        };
        header + payload_len + PACKET_TAG_LEN
    }

    /// A long header's Length: packet number (4 bytes) + payload + tag.
    fn length_field(payload_len: usize) -> u64 {
        (4 + payload_len + PACKET_TAG_LEN) as u64
    }

    /// Append the encoded packet.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_header(self.payload.len(), out);
        if self.ptype != PacketType::Retry {
            out.extend_from_slice(self.payload);
        }
        encode_tag(out);
    }

    /// Append everything in front of a payload of `payload_len` bytes,
    /// which the caller writes next and follows with [`encode_tag`]. A
    /// Retry's header is its whole packet but the tag.
    pub(crate) fn encode_header(&self, payload_len: usize, out: &mut Vec<u8>) {
        match self.ptype {
            PacketType::OneRtt => {
                out.push(0x40); // short header: form=0, fixed=1
                out.extend_from_slice(&self.dcid);
                out.extend_from_slice(&(self.packet_number as u32).to_be_bytes());
            }
            ptype => {
                out.push(0xC0 | (Self::type_bits(ptype) << 4));
                out.extend_from_slice(&self.version.to_be_bytes());
                out.push(CID_LEN as u8);
                out.extend_from_slice(&self.dcid);
                out.push(CID_LEN as u8);
                out.extend_from_slice(&self.scid);
                if ptype == PacketType::Initial {
                    write_varint(out, self.token.len() as u64);
                    out.extend_from_slice(self.token);
                }
                if ptype == PacketType::Retry {
                    // Retry: token runs to the end (plus integrity tag).
                    out.extend_from_slice(self.token);
                    return;
                }
                write_varint(out, Self::length_field(payload_len));
                out.extend_from_slice(&(self.packet_number as u32).to_be_bytes());
            }
        }
    }

    /// Parse the packet at `buf[*pos..]`, advancing `pos` past it.
    /// Short-header packets consume the rest of the datagram.
    pub fn decode(buf: &'a [u8], pos: &mut usize) -> Option<Packet<'a>> {
        let first = *buf.get(*pos)?;
        if first & 0x80 == 0 {
            // Short header.
            *pos += 1;
            if *pos + CID_LEN + 4 > buf.len() {
                return None;
            }
            let mut dcid = [0u8; CID_LEN];
            dcid.copy_from_slice(&buf[*pos..*pos + CID_LEN]);
            *pos += CID_LEN;
            let pn = u32::from_be_bytes(buf[*pos..*pos + 4].try_into().ok()?) as u64;
            *pos += 4;
            let rest = &buf[*pos..];
            if rest.len() < PACKET_TAG_LEN {
                return None;
            }
            *pos = buf.len();
            return Some(Packet {
                ptype: PacketType::OneRtt,
                version: 0,
                dcid,
                scid: [0; CID_LEN],
                token: &[],
                packet_number: pn,
                payload: &rest[..rest.len() - PACKET_TAG_LEN],
            });
        }
        // Long header.
        *pos += 1;
        if *pos + 4 > buf.len() {
            return None;
        }
        let version = u32::from_be_bytes(buf[*pos..*pos + 4].try_into().ok()?);
        *pos += 4;
        let dcid_len = *buf.get(*pos)? as usize;
        *pos += 1;
        if dcid_len != CID_LEN || *pos + CID_LEN > buf.len() {
            return None;
        }
        let mut dcid = [0u8; CID_LEN];
        dcid.copy_from_slice(&buf[*pos..*pos + CID_LEN]);
        *pos += CID_LEN;
        let scid_len = *buf.get(*pos)? as usize;
        *pos += 1;
        if scid_len != CID_LEN || *pos + CID_LEN > buf.len() {
            return None;
        }
        let mut scid = [0u8; CID_LEN];
        scid.copy_from_slice(&buf[*pos..*pos + CID_LEN]);
        *pos += CID_LEN;
        let ptype = match (first >> 4) & 0x03 {
            0 => PacketType::Initial,
            1 => PacketType::ZeroRtt,
            2 => PacketType::Handshake,
            _ => PacketType::Retry,
        };
        let mut token: &[u8] = &[];
        if ptype == PacketType::Initial {
            let tlen = read_varint(buf, pos)? as usize;
            if *pos + tlen > buf.len() {
                return None;
            }
            token = &buf[*pos..*pos + tlen];
            *pos += tlen;
        }
        if ptype == PacketType::Retry {
            let rest = &buf[*pos..];
            if rest.len() < PACKET_TAG_LEN {
                return None;
            }
            *pos = buf.len();
            return Some(Packet {
                ptype,
                version,
                dcid,
                scid,
                token: &rest[..rest.len() - PACKET_TAG_LEN],
                packet_number: 0,
                payload: &[],
            });
        }
        let length = read_varint(buf, pos)? as usize;
        if length < 4 + PACKET_TAG_LEN || *pos + length > buf.len() {
            return None;
        }
        let pn = u32::from_be_bytes(buf[*pos..*pos + 4].try_into().ok()?) as u64;
        let payload = &buf[*pos + 4..*pos + length - PACKET_TAG_LEN];
        *pos += length;
        Some(Packet {
            ptype,
            version,
            dcid,
            scid,
            token,
            packet_number: pn,
            payload,
        })
    }

    /// Peek the version field of a long-header packet without full
    /// parsing (what a server does to decide on Version Negotiation).
    pub fn peek_long_header_version(buf: &[u8]) -> Option<u32> {
        if buf.len() < 5 || buf[0] & 0x80 == 0 {
            return None;
        }
        Some(u32::from_be_bytes(buf[1..5].try_into().ok()?))
    }
}

/// Append the modelled AEAD tag that ends every protected packet (and
/// the integrity tag that ends a Retry).
pub(crate) fn encode_tag(out: &mut Vec<u8>) {
    out.resize(out.len() + PACKET_TAG_LEN, 0);
}

/// A Version Negotiation packet (version field = 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionNegotiation {
    pub dcid: [u8; CID_LEN],
    pub scid: [u8; CID_LEN],
    pub supported: Vec<u32>,
}

impl VersionNegotiation {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0x80];
        out.extend_from_slice(&0u32.to_be_bytes());
        out.push(CID_LEN as u8);
        out.extend_from_slice(&self.dcid);
        out.push(CID_LEN as u8);
        out.extend_from_slice(&self.scid);
        for v in &self.supported {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out
    }

    /// Parse a datagram as Version Negotiation. Returns `None` unless
    /// the version field is zero.
    pub fn decode(buf: &[u8]) -> Option<VersionNegotiation> {
        if buf.len() < 5 || buf[0] & 0x80 == 0 {
            return None;
        }
        if u32::from_be_bytes(buf[1..5].try_into().ok()?) != 0 {
            return None;
        }
        let mut pos = 5usize;
        let dcid_len = *buf.get(pos)? as usize;
        pos += 1;
        if dcid_len != CID_LEN {
            return None;
        }
        let mut dcid = [0u8; CID_LEN];
        dcid.copy_from_slice(buf.get(pos..pos + CID_LEN)?);
        pos += CID_LEN;
        let scid_len = *buf.get(pos)? as usize;
        pos += 1;
        if scid_len != CID_LEN {
            return None;
        }
        let mut scid = [0u8; CID_LEN];
        scid.copy_from_slice(buf.get(pos..pos + CID_LEN)?);
        pos += CID_LEN;
        let mut supported = Vec::new();
        while pos + 4 <= buf.len() {
            supported.push(u32::from_be_bytes(buf[pos..pos + 4].try_into().ok()?));
            pos += 4;
        }
        Some(VersionNegotiation {
            dcid,
            scid,
            supported,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quic::QUIC_V1;

    fn cid(b: u8) -> [u8; CID_LEN] {
        [b; CID_LEN]
    }

    #[test]
    fn initial_roundtrip_with_token() {
        let mut p = Packet::new(
            PacketType::Initial,
            QUIC_V1,
            cid(1),
            cid(2),
            7,
            &[6, 0, 5, 1, 2, 3, 4, 9],
        );
        p.token = &[0xAA; 24];
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), p.wire_len());
        let mut pos = 0;
        let back = Packet::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back, p);
    }

    #[test]
    fn handshake_and_zero_rtt_roundtrip() {
        for ptype in [PacketType::Handshake, PacketType::ZeroRtt] {
            let p = Packet::new(ptype, QUIC_V1, cid(3), cid(4), 0, &[1; 100]);
            let mut buf = Vec::new();
            p.encode(&mut buf);
            assert_eq!(buf.len(), p.wire_len());
            let mut pos = 0;
            assert_eq!(Packet::decode(&buf, &mut pos).unwrap(), p);
        }
    }

    #[test]
    fn short_header_roundtrip() {
        let p = Packet::new(PacketType::OneRtt, 0, cid(5), cid(0), 42, b"stream");
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut pos = 0;
        let back = Packet::decode(&buf, &mut pos).unwrap();
        assert_eq!(back.ptype, PacketType::OneRtt);
        assert_eq!(back.packet_number, 42);
        assert_eq!(back.payload, b"stream");
        assert_eq!(back.dcid, cid(5));
    }

    #[test]
    fn coalesced_packets_parse_sequentially() {
        // Initial + Handshake + 1-RTT in one datagram, like a server's
        // first flight.
        let mut buf = Vec::new();
        Packet::new(PacketType::Initial, QUIC_V1, cid(1), cid(2), 0, &[2; 10]).encode(&mut buf);
        Packet::new(PacketType::Handshake, QUIC_V1, cid(1), cid(2), 0, &[3; 20]).encode(&mut buf);
        Packet::new(PacketType::OneRtt, 0, cid(1), cid(0), 0, &[4; 30]).encode(&mut buf);
        let mut pos = 0;
        let a = Packet::decode(&buf, &mut pos).unwrap();
        let b = Packet::decode(&buf, &mut pos).unwrap();
        let c = Packet::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(
            (a.ptype, b.ptype, c.ptype),
            (
                PacketType::Initial,
                PacketType::Handshake,
                PacketType::OneRtt
            )
        );
        assert_eq!(c.payload.len(), 30);
    }

    #[test]
    fn protected_packets_carry_tag_overhead() {
        let p = Packet::new(PacketType::OneRtt, 0, cid(1), cid(0), 0, &[0; 10]);
        // 1 first byte + 8 dcid + 4 pn + 10 payload + 16 tag.
        assert_eq!(p.wire_len(), 1 + 8 + 4 + 10 + 16);
    }

    #[test]
    fn retry_roundtrip() {
        let mut p = Packet::new(PacketType::Retry, QUIC_V1, cid(1), cid(2), 0, &[]);
        p.token = &[7; 40];
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut pos = 0;
        let back = Packet::decode(&buf, &mut pos).unwrap();
        assert_eq!(back.ptype, PacketType::Retry);
        assert_eq!(back.token, [7; 40]);
        assert_eq!(buf.len(), p.wire_len());
    }

    #[test]
    fn version_negotiation_roundtrip() {
        let vn = VersionNegotiation {
            dcid: cid(9),
            scid: cid(8),
            supported: vec![QUIC_V1, crate::quic::draft_version(29)],
        };
        let buf = vn.encode();
        assert_eq!(VersionNegotiation::decode(&buf), Some(vn));
        // A version-1 packet is not VN.
        let p = Packet::new(PacketType::Initial, QUIC_V1, cid(1), cid(2), 0, &[1; 30]);
        let mut pbuf = Vec::new();
        p.encode(&mut pbuf);
        assert_eq!(VersionNegotiation::decode(&pbuf), None);
    }

    #[test]
    fn peek_version() {
        let p = Packet::new(
            PacketType::Initial,
            0xff00_0022,
            cid(1),
            cid(2),
            0,
            &[1; 30],
        );
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(Packet::peek_long_header_version(&buf), Some(0xff00_0022));
        let short = Packet::new(PacketType::OneRtt, 0, cid(1), cid(0), 0, &[]);
        let mut sbuf = Vec::new();
        short.encode(&mut sbuf);
        assert_eq!(Packet::peek_long_header_version(&sbuf), None);
    }

    #[test]
    fn truncated_packets_rejected() {
        let p = Packet::new(PacketType::Initial, QUIC_V1, cid(1), cid(2), 0, &[1; 30]);
        let mut buf = Vec::new();
        p.encode(&mut buf);
        for cut in [1, 5, 10, buf.len() - 1] {
            let mut pos = 0;
            assert!(
                Packet::decode(&buf[..cut], &mut pos).is_none(),
                "cut = {cut}"
            );
        }
    }
}
