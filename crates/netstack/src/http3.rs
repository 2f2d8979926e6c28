//! The slice of HTTP/3 (RFC 9114) that DoH3 exercises — the paper's §4
//! future work ("we will extend our work with an in-depth comparison
//! to DNS over HTTP/3").
//!
//! Structure follows the RFC: each endpoint opens a unidirectional
//! control stream (stream type 0x00) carrying a SETTINGS frame;
//! requests are client-initiated bidirectional streams carrying
//! HEADERS + DATA frames with varint type/length framing. Header
//! blocks use QPACK with an *empty dynamic table* (required insert
//! count 0) and literal field lines — a legal, minimal QPACK that many
//! early HTTP/3 stacks shipped; it makes DoH3 headers slightly larger
//! than DoH's HPACK after warm-up, which is part of the size
//! comparison the future-work experiment reports.
//!
//! This module is transport-agnostic over "streams": the DoH3 client
//! and server glue it to [`crate::quic::QuicConnection`] streams.

use crate::http2::{self, doh_request_fields, Decimal};
use crate::quic::{read_varint, write_varint};

/// HTTP/3 frame types (RFC 9114 §7.2).
pub const FRAME_DATA: u64 = 0x0;
pub const FRAME_HEADERS: u64 = 0x1;
pub const FRAME_SETTINGS: u64 = 0x4;
pub const FRAME_GOAWAY: u64 = 0x7;

/// Unidirectional stream types (RFC 9114 §6.2).
pub const STREAM_TYPE_CONTROL: u64 = 0x00;

/// One HTTP/3 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H3Frame {
    pub ftype: u64,
    pub payload: Vec<u8>,
}

impl H3Frame {
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.ftype);
        write_varint(out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
    }

    /// Parse one frame from `buf[*pos..]`; `None` if incomplete.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<H3Frame> {
        let start = *pos;
        let Some(ftype) = read_varint(buf, pos) else {
            *pos = start;
            return None;
        };
        let Some(len) = read_varint(buf, pos) else {
            *pos = start;
            return None;
        };
        if *pos + len as usize > buf.len() {
            *pos = start;
            return None;
        }
        let payload = buf[*pos..*pos + len as usize].to_vec();
        *pos += len as usize;
        Some(H3Frame { ftype, payload })
    }
}

/// The control-stream preamble: stream type + SETTINGS.
pub fn control_stream_preamble() -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, STREAM_TYPE_CONTROL);
    // A realistic SETTINGS: QPACK max table capacity 0 (we run without
    // a dynamic table), max field section size, ...
    let mut settings = Vec::new();
    for (id, value) in [(0x01u64, 0u64), (0x06, 65_536), (0x07, 0)] {
        write_varint(&mut settings, id);
        write_varint(&mut settings, value);
    }
    H3Frame {
        ftype: FRAME_SETTINGS,
        payload: settings,
    }
    .encode(&mut out);
    out
}

// ---- QPACK (RFC 9204), empty-dynamic-table subset ------------------------

/// Encode a field section: 2-byte prefix (required insert count 0,
/// base 0) + literal field lines with literal names.
pub fn qpack_encode(headers: &[(&str, &str)]) -> Vec<u8> {
    let mut out = vec![0x00, 0x00]; // RIC = 0, S=0 base = 0
    for (name, value) in headers {
        // Literal field line with literal name (RFC 9204 §4.5.6):
        // 0010 N H=0 + name length (3-bit prefix), then value.
        encode_prefixed_int(&mut out, 0x20, 3, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        encode_prefixed_int(&mut out, 0x00, 7, value.len() as u64);
        out.extend_from_slice(value.as_bytes());
    }
    out
}

/// Decode a field section produced by [`qpack_encode`].
pub fn qpack_decode(block: &[u8]) -> Option<Vec<(String, String)>> {
    if block.len() < 2 {
        return None;
    }
    let mut pos = 2usize; // skip the prefix
    let mut headers = Vec::new();
    while pos < block.len() {
        let first = block[pos];
        if first & 0xE0 != 0x20 {
            return None; // only literal-with-literal-name is emitted
        }
        let name_len = decode_prefixed_int(block, &mut pos, 3)? as usize;
        let name = std::str::from_utf8(block.get(pos..pos + name_len)?).ok()?;
        pos += name_len;
        let value_len = decode_prefixed_int(block, &mut pos, 7)? as usize;
        let value = std::str::from_utf8(block.get(pos..pos + value_len)?).ok()?;
        pos += value_len;
        headers.push((name.to_string(), value.to_string()));
    }
    Some(headers)
}

fn encode_prefixed_int(out: &mut Vec<u8>, first_bits: u8, n: u8, mut value: u64) {
    let max = (1u64 << n) - 1;
    if value < max {
        out.push(first_bits | value as u8);
        return;
    }
    out.push(first_bits | max as u8);
    value -= max;
    while value >= 128 {
        out.push((value % 128) as u8 | 0x80);
        value /= 128;
    }
    out.push(value as u8);
}

fn decode_prefixed_int(buf: &[u8], pos: &mut usize, n: u8) -> Option<u64> {
    let max = (1u64 << n) - 1;
    let first = (*buf.get(*pos)? & max as u8) as u64;
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

// ---- request/response stream handling -------------------------------------

/// One assembled HTTP/3 message (request or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H3Message {
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl H3Message {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serialize as HEADERS + DATA stream bytes.
    pub fn encode(&self) -> Vec<u8> {
        let refs: Vec<(&str, &str)> = self
            .headers
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        let mut out = Vec::new();
        H3Frame {
            ftype: FRAME_HEADERS,
            payload: qpack_encode(&refs),
        }
        .encode(&mut out);
        if !self.body.is_empty() {
            H3Frame {
                ftype: FRAME_DATA,
                payload: self.body.clone(),
            }
            .encode(&mut out);
        }
        out
    }

    /// Parse the complete stream contents of a request/response stream.
    pub fn decode(stream: &[u8]) -> Option<H3Message> {
        let mut pos = 0usize;
        let mut headers = None;
        let mut body = Vec::new();
        while pos < stream.len() {
            let frame = H3Frame::decode(stream, &mut pos)?;
            match frame.ftype {
                FRAME_HEADERS => headers = Some(qpack_decode(&frame.payload)?),
                FRAME_DATA => body.extend_from_slice(&frame.payload),
                _ => {} // unknown frames are ignored (greasing)
            }
        }
        Some(H3Message {
            headers: headers?,
            body,
        })
    }
}

/// Standard DoH3 request headers (RFC 8484 over HTTP/3): the fields DoH
/// sends.
pub fn doh3_request(authority: &str, body: Vec<u8>) -> H3Message {
    let length = Decimal::new(body.len());
    H3Message {
        headers: http2::owned(&doh_request_fields(authority, length.as_str())),
        body,
    }
}

/// Standard DoH3 response.
pub fn doh3_response(body: Vec<u8>) -> H3Message {
    H3Message {
        headers: vec![
            (":status".into(), "200".into()),
            ("content-type".into(), "application/dns-message".into()),
            ("content-length".into(), body.len().to_string()),
        ],
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let f = H3Frame {
            ftype: FRAME_HEADERS,
            payload: vec![1, 2, 3],
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let mut pos = 0;
        assert_eq!(H3Frame::decode(&buf, &mut pos), Some(f));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn incomplete_frames_rewind() {
        let f = H3Frame {
            ftype: FRAME_DATA,
            payload: vec![9; 50],
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        for cut in [0, 1, 10, buf.len() - 1] {
            let mut pos = 0;
            assert_eq!(H3Frame::decode(&buf[..cut], &mut pos), None);
            assert_eq!(pos, 0, "decoder must rewind on incomplete input");
        }
    }

    #[test]
    fn qpack_roundtrip() {
        let headers = [
            (":method", "POST"),
            ("content-type", "application/dns-message"),
        ];
        let block = qpack_encode(&headers);
        assert_eq!(block[0], 0, "required insert count 0");
        let out = qpack_decode(&block).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (":method".to_string(), "POST".to_string()));
    }

    #[test]
    fn qpack_rejects_garbage() {
        assert!(qpack_decode(&[0, 0, 0xFF, 1, 2]).is_none());
        assert!(qpack_decode(&[0]).is_none());
    }

    #[test]
    fn message_roundtrip() {
        let req = doh3_request("dns.example", b"querybytes".to_vec());
        let wire = req.encode();
        let back = H3Message::decode(&wire).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.header(":path"), Some("/dns-query"));
        assert_eq!(back.body, b"querybytes");
    }

    #[test]
    fn response_roundtrip() {
        let resp = doh3_response(vec![7; 63]);
        let back = H3Message::decode(&resp.encode()).unwrap();
        assert_eq!(back.header(":status"), Some("200"));
        assert_eq!(back.body.len(), 63);
    }

    #[test]
    fn control_preamble_shape() {
        let pre = control_stream_preamble();
        assert_eq!(pre[0], 0x00, "control stream type");
        let mut pos = 1;
        let settings = H3Frame::decode(&pre, &mut pos).unwrap();
        assert_eq!(settings.ftype, FRAME_SETTINGS);
        assert!(!settings.payload.is_empty());
    }

    #[test]
    fn prefixed_int_boundaries() {
        for v in [0u64, 6, 7, 8, 300, 100_000] {
            let mut out = Vec::new();
            encode_prefixed_int(&mut out, 0x20, 3, v);
            let mut pos = 0;
            assert_eq!(decode_prefixed_int(&out, &mut pos, 3), Some(v));
        }
    }
}
