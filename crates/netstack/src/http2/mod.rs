//! The slice of HTTP/2 (RFC 7540/9113) that DoH exercises: connection
//! preface, SETTINGS exchange, HPACK-compressed HEADERS and DATA frames
//! on client-initiated streams. Flow control runs with effectively
//! unlimited windows (DoH messages are far below the 64 KiB default);
//! server push, priorities and CONTINUATION are not modelled.
//!
//! The first request on a connection carries full literal headers and
//! populates the HPACK dynamic tables; subsequent requests compress to
//! a few bytes — which is exactly why the paper observes that re-using
//! a DoH connection amortizes slower than re-using a DoQ one (Table 1's
//! DoH query/response sizes embed the HTTP/2 framing and header
//! overhead).

mod frame;
mod hpack;

pub use frame::{H2Frame, H2FrameType};
pub use hpack::{HeaderList, HpackDecoder, HpackEncoder};

use std::collections::HashMap;

/// The 24-byte client connection preface.
pub const PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// Largest DATA payload per frame: the default SETTINGS_MAX_FRAME_SIZE.
const MAX_FRAME_SIZE: usize = 16_384;

/// Most body bytes reserved up front from a `content-length`; a larger
/// body grows past it as DATA arrives.
const MAX_BODY_RESERVE: usize = 1 << 20;

/// One HTTP message (request or response) assembled from frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H2Message {
    pub stream_id: u32,
    pub headers: HeaderList,
    pub body: Vec<u8>,
}

impl H2Message {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Client,
    Server,
}

#[derive(Debug, Default)]
struct StreamAssembly {
    headers: HeaderList,
    body: Vec<u8>,
    headers_done: bool,
}

/// An HTTP/2 connection endpoint (sans-I/O byte-stream interface).
#[derive(Debug)]
pub struct H2Connection {
    role: Role,
    out: Vec<u8>,
    in_buf: Vec<u8>,
    preface_seen: bool,
    settings_acked: bool,
    next_stream_id: u32,
    encoder: HpackEncoder,
    decoder: HpackDecoder,
    assembling: HashMap<u32, StreamAssembly>,
    complete: Vec<H2Message>,
    goaway: bool,
}

impl H2Connection {
    pub fn client() -> Self {
        let mut c = Self::new(Role::Client);
        c.out.extend_from_slice(PREFACE);
        H2Frame::settings(false).encode(&mut c.out);
        c
    }

    pub fn server() -> Self {
        let mut s = Self::new(Role::Server);
        H2Frame::settings(false).encode(&mut s.out);
        s
    }

    fn new(role: Role) -> Self {
        H2Connection {
            role,
            out: Vec::new(),
            in_buf: Vec::new(),
            preface_seen: role == Role::Client, // clients don't expect one
            settings_acked: false,
            next_stream_id: 1,
            encoder: HpackEncoder::new(),
            decoder: HpackDecoder::new(),
            assembling: HashMap::new(),
            complete: Vec::new(),
            goaway: false,
        }
    }

    /// Send a request; returns the stream id. (Client only.)
    pub fn send_request(&mut self, headers: &[(&str, &str)], body: &[u8]) -> u32 {
        assert_eq!(self.role, Role::Client);
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        self.send_message(id, headers, body);
        id
    }

    /// Send a response on `stream_id`. (Server only.)
    pub fn send_response(&mut self, stream_id: u32, headers: &[(&str, &str)], body: &[u8]) {
        assert_eq!(self.role, Role::Server);
        self.send_message(stream_id, headers, body);
    }

    /// Encode the message's frames straight into `out`, sized once: the
    /// header block is written in place after its frame header.
    fn send_message(&mut self, id: u32, headers: &[(&str, &str)], body: &[u8]) {
        let data_frames = body.len().div_ceil(MAX_FRAME_SIZE);
        self.out.reserve(
            H2Frame::HEADER_LEN * (1 + data_frames)
                + HpackEncoder::max_block_len(headers)
                + body.len(),
        );
        let encoder = &mut self.encoder;
        H2Frame::encode_headers(&mut self.out, id, body.is_empty(), |out| {
            encoder.encode_into(headers, out)
        });
        for (i, chunk) in body.chunks(MAX_FRAME_SIZE).enumerate() {
            H2Frame::data(id, chunk, i + 1 == data_frames).encode(&mut self.out);
        }
    }

    /// Feed received bytes; complete messages appear via
    /// [`H2Connection::take_messages`]. Frames are decoded in place; the
    /// consumed prefix is dropped once per call.
    pub fn read_wire(&mut self, data: &[u8]) {
        let mut buf = std::mem::take(&mut self.in_buf);
        buf.extend_from_slice(data);
        let mut pos = 0;
        if !self.preface_seen && buf.len() >= PREFACE.len() {
            // Tolerant: any 24 bytes are accepted as the preface (we
            // never interoperate with non-doqlab peers).
            pos = PREFACE.len();
            self.preface_seen = true;
        }
        if self.preface_seen {
            while let Some((frame, used)) = H2Frame::decode(&buf[pos..]) {
                pos += used;
                self.on_frame(frame);
            }
        }
        buf.drain(..pos);
        self.in_buf = buf;
    }

    fn on_frame(&mut self, frame: H2Frame<'_>) {
        match frame.ftype {
            H2FrameType::Settings => {
                if !frame.flags_ack() {
                    H2Frame::settings(true).encode(&mut self.out);
                } else {
                    self.settings_acked = true;
                }
            }
            H2FrameType::Headers => {
                let end = frame.flags_end_stream();
                if let Some(headers) = self.decoder.decode(frame.payload) {
                    let entry = self.assembling.entry(frame.stream_id).or_default();
                    // Size the body once from its declared length.
                    let declared = headers.get("content-length").and_then(|v| v.parse().ok());
                    if let Some(len) = declared {
                        entry.body.reserve_exact(MAX_BODY_RESERVE.min(len));
                    }
                    entry.headers = headers;
                    entry.headers_done = true;
                } else {
                    self.assembling.entry(frame.stream_id).or_default();
                }
                if end {
                    self.finish_stream(frame.stream_id);
                }
            }
            H2FrameType::Data => {
                let entry = self.assembling.entry(frame.stream_id).or_default();
                entry.body.extend_from_slice(frame.payload);
                if frame.flags_end_stream() {
                    self.finish_stream(frame.stream_id);
                }
            }
            H2FrameType::GoAway => self.goaway = true,
            H2FrameType::Ping => {
                if !frame.flags_ack() {
                    H2Frame::ping_ack(frame.payload).encode(&mut self.out);
                }
            }
            H2FrameType::WindowUpdate | H2FrameType::RstStream | H2FrameType::Other(_) => {}
        }
    }

    fn finish_stream(&mut self, id: u32) {
        if let Some(asm) = self.assembling.remove(&id) {
            self.complete.push(H2Message {
                stream_id: id,
                headers: asm.headers,
                body: asm.body,
            });
        }
    }

    /// Drain the completed requests (server) or responses (client); the
    /// queue keeps its capacity.
    pub fn take_messages(&mut self) -> std::vec::Drain<'_, H2Message> {
        self.complete.drain(..)
    }

    /// Bytes to hand to the transport.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    pub fn received_goaway(&self) -> bool {
        self.goaway
    }

    /// Send GOAWAY (graceful shutdown).
    pub fn go_away(&mut self) {
        H2Frame::goaway().encode(&mut self.out);
    }
}

/// The media type of a DoH body (RFC 8484 §6).
const DNS_MESSAGE: &str = "application/dns-message";

/// The DoH request header fields (RFC 8484 §4.1, POST style) for a body
/// whose length is `content_length` in decimal; DoH and DoH3 both send
/// these.
pub fn doh_request_fields<'a>(
    authority: &'a str,
    content_length: &'a str,
) -> [(&'a str, &'a str); 7] {
    [
        (":method", "POST"),
        (":scheme", "https"),
        (":authority", authority),
        (":path", "/dns-query"),
        ("accept", DNS_MESSAGE),
        ("content-type", DNS_MESSAGE),
        ("content-length", content_length),
    ]
}

/// The DoH response header fields for a body whose length is
/// `content_length` in decimal.
pub fn doh_response_fields(content_length: &str) -> [(&str, &str); 4] {
    [
        (":status", "200"),
        ("content-type", DNS_MESSAGE),
        ("content-length", content_length),
        ("cache-control", "max-age=300"),
    ]
}

/// Header fields as owned pairs.
pub(crate) fn owned(fields: &[(&str, &str)]) -> Vec<(String, String)> {
    fields
        .iter()
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .collect()
}

/// [`doh_request_fields`], owned.
pub fn doh_request_headers(authority: &str, body_len: usize) -> Vec<(String, String)> {
    owned(&doh_request_fields(
        authority,
        Decimal::new(body_len).as_str(),
    ))
}

/// [`doh_response_fields`], owned.
pub fn doh_response_headers(body_len: usize) -> Vec<(String, String)> {
    owned(&doh_response_fields(Decimal::new(body_len).as_str()))
}

/// A number in decimal, formatted on the stack: a `content-length`
/// value without a `String`.
#[derive(Debug, Clone, Copy)]
pub struct Decimal {
    digits: [u8; 20],
    start: usize,
}

impl Decimal {
    pub fn new(n: usize) -> Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut rest = n as u64;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                return Decimal { digits, start };
            }
        }
    }

    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.digits[self.start..]).expect("ASCII digits")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuttle(c: &mut H2Connection, s: &mut H2Connection) {
        for _ in 0..10 {
            let co = c.take_output();
            let so = s.take_output();
            if co.is_empty() && so.is_empty() {
                break;
            }
            s.read_wire(&co);
            c.read_wire(&so);
        }
    }

    fn hdrs(pairs: &[(String, String)]) -> Vec<(&str, &str)> {
        pairs
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect()
    }

    #[test]
    fn request_response_roundtrip() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        let req_headers = doh_request_headers("dns.example", 5);
        let id = c.send_request(&hdrs(&req_headers), b"query");
        assert_eq!(id, 1);
        shuttle(&mut c, &mut s);
        let reqs: Vec<_> = s.take_messages().collect();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].stream_id, 1);
        assert_eq!(reqs[0].body, b"query");
        assert_eq!(reqs[0].header(":method"), Some("POST"));
        assert_eq!(reqs[0].header(":path"), Some("/dns-query"));
        assert_eq!(
            reqs[0].header("content-type"),
            Some("application/dns-message")
        );

        let resp_headers = doh_response_headers(6);
        s.send_response(1, &hdrs(&resp_headers), b"answer");
        shuttle(&mut c, &mut s);
        let resps: Vec<_> = c.take_messages().collect();
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].body, b"answer");
        assert_eq!(resps[0].header(":status"), Some("200"));
    }

    #[test]
    fn multiple_requests_use_odd_stream_ids() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        let h = doh_request_headers("dns.example", 1);
        let a = c.send_request(&hdrs(&h), b"a");
        let b = c.send_request(&hdrs(&h), b"b");
        assert_eq!((a, b), (1, 3));
        shuttle(&mut c, &mut s);
        let reqs: Vec<_> = s.take_messages().collect();
        assert_eq!(reqs.len(), 2);
    }

    #[test]
    fn second_request_is_smaller_thanks_to_hpack() {
        let mut c = H2Connection::client();
        let h = doh_request_headers("dns.example", 40);
        c.send_request(&hdrs(&h), &[0; 40]);
        let first = c.take_output().len();
        c.send_request(&hdrs(&h), &[0; 40]);
        let second = c.take_output().len();
        // First request includes preface+settings and literal headers;
        // the repeat compresses to table references.
        assert!(second < first / 2, "first {first}, second {second}");
        assert!(second < 80, "second request should be tiny, was {second}");
    }

    #[test]
    fn empty_body_request_ends_stream_on_headers() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        let h = vec![(":method".to_string(), "GET".to_string())];
        c.send_request(&hdrs(&h), b"");
        shuttle(&mut c, &mut s);
        let reqs: Vec<_> = s.take_messages().collect();
        assert_eq!(reqs.len(), 1);
        assert!(reqs[0].body.is_empty());
    }

    #[test]
    fn large_body_spans_data_frames() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        let body = vec![7u8; 100_000];
        let h = doh_request_headers("dns.example", body.len());
        c.send_request(&hdrs(&h), &body);
        shuttle(&mut c, &mut s);
        let reqs: Vec<_> = s.take_messages().collect();
        assert_eq!(reqs[0].body, body);
    }

    #[test]
    fn settings_are_acked() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        shuttle(&mut c, &mut s);
        assert!(c.settings_acked);
        assert!(s.settings_acked);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        let h = doh_request_headers("dns.example", 3);
        c.send_request(&hdrs(&h), b"abc");
        for b in c.take_output() {
            s.read_wire(&[b]);
        }
        let reqs: Vec<_> = s.take_messages().collect();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].body, b"abc");
    }

    #[test]
    fn goaway_is_visible() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        shuttle(&mut c, &mut s);
        s.go_away();
        shuttle(&mut c, &mut s);
        assert!(c.received_goaway());
    }
}
