//! TLS handshake messages and the record layer.
//!
//! Handshake messages use the real TLS framing — a 1-byte type and a
//! 24-bit length — but their bodies are a structured simulation payload
//! padded to the byte sizes a real implementation produces (a
//! ClientHello with a PSK extension is ~380 bytes, a certificate chain
//! ~2.4 KB, ...). This keeps every size-sensitive behaviour honest: the
//! QUIC amplification limit, Table 1's byte accounting, and TCP
//! segmentation of the certificate flight.

use crate::tls::engine::TlsError;
use crate::tls::session::SessionTicket;
#[cfg(test)]
use doqlab_simnet::Duration;
#[cfg(test)]
use doqlab_simnet::SimTime;

/// Negotiable protocol versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlsVersion {
    Tls12,
    Tls13,
}

impl TlsVersion {
    pub fn wire(self) -> u16 {
        match self {
            TlsVersion::Tls12 => 0x0303,
            TlsVersion::Tls13 => 0x0304,
        }
    }

    pub fn from_wire(v: u16) -> Option<Self> {
        match v {
            0x0303 => Some(TlsVersion::Tls12),
            0x0304 => Some(TlsVersion::Tls13),
            _ => None,
        }
    }
}

/// Byte overhead of an "encrypted" record beyond its plaintext: the
/// TLS 1.3 inner content-type byte plus a 16-byte AEAD tag.
pub const RECORD_OVERHEAD: usize = 17;

/// Maximum plaintext per record (RFC 8446 §5.1: 2^14 bytes).
pub const MAX_RECORD_PLAINTEXT: usize = 16_384;

/// Record-layer content types.
const CT_CHANGE_CIPHER_SPEC: u8 = 20;
const CT_ALERT: u8 = 21;
const CT_HANDSHAKE: u8 = 22;
const CT_APPLICATION_DATA: u8 = 23;

/// A record-layer record. `Encrypted` wraps an inner content type and
/// carries the AEAD overhead on the wire (outer type 23), mirroring how
/// TLS 1.3 protects everything after the ServerHello. Payloads are
/// borrowed: a record is encoded straight into the output buffer and
/// decoded in place from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsRecord<'a> {
    PlainHandshake(&'a [u8]),
    ChangeCipherSpec,
    Alert {
        fatal: bool,
        code: u8,
    },
    /// Encrypted content: (inner content type, plaintext bytes).
    Encrypted {
        inner_type: u8,
        plaintext: &'a [u8],
    },
}

impl<'a> TlsRecord<'a> {
    pub fn encrypted_handshake(plaintext: &'a [u8]) -> TlsRecord<'a> {
        TlsRecord::Encrypted {
            inner_type: CT_HANDSHAKE,
            plaintext,
        }
    }

    /// Append `data` to `out` as application-data records of at most
    /// 16 KiB of plaintext each, sizing `out` once.
    pub fn encode_app_data(data: &[u8], out: &mut Vec<u8>) {
        let records = data.len().div_ceil(MAX_RECORD_PLAINTEXT);
        out.reserve(data.len() + records * (5 + RECORD_OVERHEAD));
        for chunk in data.chunks(MAX_RECORD_PLAINTEXT) {
            TlsRecord::Encrypted {
                inner_type: CT_APPLICATION_DATA,
                plaintext: chunk,
            }
            .encode(out);
        }
    }

    /// Serialize with the 5-byte record header.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let alert;
        let (ctype, body, inner_type) = match *self {
            TlsRecord::PlainHandshake(p) => (CT_HANDSHAKE, p, None),
            TlsRecord::ChangeCipherSpec => (CT_CHANGE_CIPHER_SPEC, &[1u8][..], None),
            TlsRecord::Alert { fatal, code } => {
                alert = [if fatal { 2 } else { 1 }, code];
                (CT_ALERT, &alert[..], None)
            }
            TlsRecord::Encrypted {
                inner_type,
                plaintext,
            } => (CT_APPLICATION_DATA, plaintext, Some(inner_type)),
        };
        let len = body.len() + inner_type.map_or(0, |_| RECORD_OVERHEAD);
        assert!(
            len <= MAX_RECORD_PLAINTEXT + RECORD_OVERHEAD,
            "record exceeds RFC 8446 size limit; chunk before encoding"
        );
        out.reserve(5 + len);
        out.push(ctype);
        out.extend_from_slice(&0x0303u16.to_be_bytes()); // legacy version
        out.extend_from_slice(&(len as u16).to_be_bytes());
        out.extend_from_slice(body);
        if let Some(inner_type) = inner_type {
            out.push(inner_type);
            out.extend_from_slice(&[0u8; RECORD_OVERHEAD - 1]); // AEAD tag
        }
    }

    /// Parse one record from the front of `buf`, borrowing its payload:
    /// the record and bytes consumed, `Ok(None)` while the record is
    /// incomplete, or an error for bytes that cannot be a record (an
    /// unknown content type, an encrypted record shorter than its AEAD
    /// overhead).
    pub fn decode(buf: &'a [u8]) -> Result<Option<(TlsRecord<'a>, usize)>, TlsError> {
        if buf.len() < 5 {
            return Ok(None);
        }
        let ctype = buf[0];
        let len = u16::from_be_bytes([buf[3], buf[4]]) as usize;
        if buf.len() < 5 + len {
            return Ok(None);
        }
        let payload = &buf[5..5 + len];
        let rec = match ctype {
            CT_HANDSHAKE => TlsRecord::PlainHandshake(payload),
            CT_CHANGE_CIPHER_SPEC => TlsRecord::ChangeCipherSpec,
            CT_ALERT => TlsRecord::Alert {
                fatal: payload.first() == Some(&2),
                code: payload.get(1).copied().unwrap_or(0),
            },
            CT_APPLICATION_DATA => {
                if payload.len() < RECORD_OVERHEAD {
                    return Err(TlsError::Malformed("record shorter than its AEAD overhead"));
                }
                let plaintext_end = payload.len() - RECORD_OVERHEAD;
                TlsRecord::Encrypted {
                    inner_type: payload[plaintext_end],
                    plaintext: &payload[..plaintext_end],
                }
            }
            _ => return Err(TlsError::Malformed("record content type")),
        };
        Ok(Some((rec, 5 + len)))
    }
}

/// Typed handshake payloads. Sizes are controlled by per-message
/// padding so the wire image matches real TLS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakePayload {
    ClientHello {
        /// Versions the client offers, most preferred first.
        versions: Vec<TlsVersion>,
        alpn: Vec<Vec<u8>>,
        /// Resumption ticket (the PSK extension).
        psk: Option<SessionTicket>,
        /// The client intends to send 0-RTT data under the PSK.
        early_data: bool,
        /// Extra bytes modelling additional extensions (QUIC transport
        /// parameters when carried over QUIC, SNI length, ...).
        pad: u16,
    },
    ServerHello {
        version: TlsVersion,
        /// Echoed in TLS 1.2 abbreviated handshakes.
        resumed: bool,
    },
    EncryptedExtensions {
        alpn: Option<Vec<u8>>,
        early_data_accepted: bool,
    },
    Certificate {
        chain_len: u16,
    },
    CertificateVerify,
    Finished,
    NewSessionTicket {
        ticket: SessionTicket,
    },
    /// TLS 1.2 only.
    ServerHelloDone,
    /// TLS 1.2 only.
    ClientKeyExchange,
}

/// Handshake message type codes (RFC 8446 §4 / RFC 5246 §7.4).
impl HandshakePayload {
    fn type_code(&self) -> u8 {
        match self {
            HandshakePayload::ClientHello { .. } => 1,
            HandshakePayload::ServerHello { .. } => 2,
            HandshakePayload::NewSessionTicket { .. } => 4,
            HandshakePayload::EncryptedExtensions { .. } => 8,
            HandshakePayload::Certificate { .. } => 11,
            HandshakePayload::ServerHelloDone => 14,
            HandshakePayload::ClientKeyExchange => 16,
            HandshakePayload::CertificateVerify => 15,
            HandshakePayload::Finished => 20,
        }
    }

    /// Bytes a real implementation would need for this message beyond
    /// our structural encoding; appended as padding.
    fn size_model(&self) -> usize {
        match self {
            // random + cipher suites + key_share + SNI + misc exts.
            HandshakePayload::ClientHello { psk, pad, .. } => {
                200 + *pad as usize + if psk.is_some() { 110 } else { 0 }
            }
            // random + key_share.
            HandshakePayload::ServerHello { .. } => 76,
            HandshakePayload::EncryptedExtensions { .. } => 6,
            HandshakePayload::Certificate { chain_len } => *chain_len as usize,
            HandshakePayload::CertificateVerify => 260,
            HandshakePayload::Finished => 32,
            HandshakePayload::NewSessionTicket { .. } => 30,
            HandshakePayload::ServerHelloDone => 0,
            HandshakePayload::ClientKeyExchange => 66,
        }
    }
}

/// A framed handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeMessage {
    pub payload: HandshakePayload,
}

impl HandshakeMessage {
    pub fn new(payload: HandshakePayload) -> Self {
        HandshakeMessage { payload }
    }

    /// Append: 1-byte type, 24-bit length, structured body + padding.
    /// The body goes straight into `out`; its length is filled in after.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.payload.type_code());
        let len_at = out.len();
        out.extend_from_slice(&[0; 3]);
        self.encode_body(out);
        out.resize(out.len() + self.payload.size_model(), 0);
        let len = (out.len() - len_at - 3) as u32;
        out[len_at..len_at + 3].copy_from_slice(&len.to_be_bytes()[1..]);
    }

    fn encode_body(&self, b: &mut Vec<u8>) {
        fn put_bytes(b: &mut Vec<u8>, s: &[u8]) {
            b.extend_from_slice(&(s.len() as u16).to_be_bytes());
            b.extend_from_slice(s);
        }
        /// A 16-bit length, then the ticket; the length is filled in
        /// after.
        fn put_ticket(b: &mut Vec<u8>, t: &SessionTicket) {
            let len_at = b.len();
            b.extend_from_slice(&[0; 2]);
            t.encode(b);
            let len = (b.len() - len_at - 2) as u16;
            b[len_at..len_at + 2].copy_from_slice(&len.to_be_bytes());
        }
        match &self.payload {
            HandshakePayload::ClientHello {
                versions,
                alpn,
                psk,
                early_data,
                pad,
            } => {
                b.push(versions.len() as u8);
                for v in versions {
                    b.extend_from_slice(&v.wire().to_be_bytes());
                }
                b.push(alpn.len() as u8);
                for a in alpn {
                    put_bytes(b, a);
                }
                match psk {
                    None => b.push(0),
                    Some(t) => {
                        b.push(1);
                        put_ticket(b, t);
                    }
                }
                b.push(*early_data as u8);
                b.extend_from_slice(&pad.to_be_bytes());
            }
            HandshakePayload::ServerHello { version, resumed } => {
                b.extend_from_slice(&version.wire().to_be_bytes());
                b.push(*resumed as u8);
            }
            HandshakePayload::EncryptedExtensions {
                alpn,
                early_data_accepted,
            } => {
                match alpn {
                    None => b.push(0),
                    Some(a) => {
                        b.push(1);
                        put_bytes(b, a);
                    }
                }
                b.push(*early_data_accepted as u8);
            }
            HandshakePayload::Certificate { chain_len } => {
                b.extend_from_slice(&chain_len.to_be_bytes());
            }
            HandshakePayload::NewSessionTicket { ticket } => put_ticket(b, ticket),
            HandshakePayload::CertificateVerify
            | HandshakePayload::Finished
            | HandshakePayload::ServerHelloDone
            | HandshakePayload::ClientKeyExchange => {}
        }
    }

    /// Parse one message from the front of `buf`: the message and bytes
    /// consumed, `Ok(None)` while it is incomplete, or an error for a
    /// whole message that does not parse.
    pub fn decode(buf: &[u8]) -> Result<Option<(HandshakeMessage, usize)>, TlsError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let typ = buf[0];
        let len = u32::from_be_bytes([0, buf[1], buf[2], buf[3]]) as usize;
        if buf.len() < 4 + len {
            return Ok(None);
        }
        let body = &buf[4..4 + len];
        let payload =
            Self::decode_body(typ, body).ok_or(TlsError::Malformed("handshake message"))?;
        Ok(Some((HandshakeMessage { payload }, 4 + len)))
    }

    fn decode_body(typ: u8, b: &[u8]) -> Option<HandshakePayload> {
        struct R<'a>(&'a [u8], usize);
        impl<'a> R<'a> {
            fn u8(&mut self) -> Option<u8> {
                let v = *self.0.get(self.1)?;
                self.1 += 1;
                Some(v)
            }
            fn u16(&mut self) -> Option<u16> {
                let v = u16::from_be_bytes([*self.0.get(self.1)?, *self.0.get(self.1 + 1)?]);
                self.1 += 2;
                Some(v)
            }
            fn bytes(&mut self) -> Option<Vec<u8>> {
                let len = self.u16()? as usize;
                if self.1 + len > self.0.len() {
                    return None;
                }
                let v = self.0[self.1..self.1 + len].to_vec();
                self.1 += len;
                Some(v)
            }
        }
        let mut r = R(b, 0);
        Some(match typ {
            1 => {
                let nv = r.u8()? as usize;
                let mut versions = Vec::new();
                for _ in 0..nv {
                    versions.push(TlsVersion::from_wire(r.u16()?)?);
                }
                let na = r.u8()? as usize;
                let mut alpn = Vec::new();
                for _ in 0..na {
                    alpn.push(r.bytes()?);
                }
                let psk = if r.u8()? == 1 {
                    Some(SessionTicket::decode(&r.bytes()?)?)
                } else {
                    None
                };
                let early_data = r.u8()? == 1;
                let pad = r.u16()?;
                HandshakePayload::ClientHello {
                    versions,
                    alpn,
                    psk,
                    early_data,
                    pad,
                }
            }
            2 => HandshakePayload::ServerHello {
                version: TlsVersion::from_wire(r.u16()?)?,
                resumed: r.u8()? == 1,
            },
            4 => HandshakePayload::NewSessionTicket {
                ticket: SessionTicket::decode(&r.bytes()?)?,
            },
            8 => {
                let alpn = if r.u8()? == 1 { Some(r.bytes()?) } else { None };
                HandshakePayload::EncryptedExtensions {
                    alpn,
                    early_data_accepted: r.u8()? == 1,
                }
            }
            11 => HandshakePayload::Certificate {
                chain_len: r.u16()?,
            },
            14 => HandshakePayload::ServerHelloDone,
            15 => HandshakePayload::CertificateVerify,
            16 => HandshakePayload::ClientKeyExchange,
            20 => HandshakePayload::Finished,
            _ => return None,
        })
    }
}

/// Incremental parser for a stream of handshake messages (used for
/// CRYPTO-frame reassembly in QUIC and record payloads in TLS).
#[derive(Debug, Default)]
pub struct HandshakeReader {
    buf: Vec<u8>,
}

impl HandshakeReader {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// The next whole message, `Ok(None)` until one is buffered, or the
    /// error of one that does not parse.
    pub fn next_message(&mut self) -> Result<Option<HandshakeMessage>, TlsError> {
        let Some((msg, used)) = HandshakeMessage::decode(&self.buf)? else {
            return Ok(None);
        };
        self.buf.drain(..used);
        Ok(Some(msg))
    }
}

/// Convenience: standard ticket for tests in this module tree.
#[cfg(test)]
pub fn test_ticket(now: SimTime) -> SessionTicket {
    SessionTicket {
        server_id: 42,
        version: TlsVersion::Tls13,
        alpn: b"doq".to_vec(),
        issued_at: now,
        lifetime: Duration::from_secs(7 * 24 * 3600),
        allows_early_data: false,
        opaque_len: 120,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: HandshakeMessage) -> HandshakeMessage {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let (out, used) = HandshakeMessage::decode(&buf).unwrap().expect("whole");
        assert_eq!(used, buf.len());
        out
    }

    #[test]
    fn client_hello_roundtrip_and_size() {
        let ch = HandshakeMessage::new(HandshakePayload::ClientHello {
            versions: vec![TlsVersion::Tls13, TlsVersion::Tls12],
            alpn: vec![b"dot".to_vec()],
            psk: None,
            early_data: false,
            pad: 0,
        });
        assert_eq!(roundtrip(ch.clone()), ch);
        let mut buf = Vec::new();
        ch.encode(&mut buf);
        // A full ClientHello should be in the 200-300 byte range.
        assert!((200..320).contains(&buf.len()), "CH = {}", buf.len());
    }

    #[test]
    fn psk_client_hello_is_bigger() {
        let plain = HandshakeMessage::new(HandshakePayload::ClientHello {
            versions: vec![TlsVersion::Tls13],
            alpn: vec![b"dot".to_vec()],
            psk: None,
            early_data: false,
            pad: 0,
        });
        let psk = HandshakeMessage::new(HandshakePayload::ClientHello {
            versions: vec![TlsVersion::Tls13],
            alpn: vec![b"dot".to_vec()],
            psk: Some(test_ticket(SimTime::ZERO)),
            early_data: true,
            pad: 0,
        });
        let len = |m: &HandshakeMessage| {
            let mut b = Vec::new();
            m.encode(&mut b);
            b.len()
        };
        assert!(
            len(&psk) > len(&plain) + 150,
            "{} vs {}",
            len(&psk),
            len(&plain)
        );
        assert_eq!(roundtrip(psk.clone()), psk);
    }

    #[test]
    fn certificate_size_follows_chain_len() {
        let cert = HandshakeMessage::new(HandshakePayload::Certificate { chain_len: 2400 });
        let mut buf = Vec::new();
        cert.encode(&mut buf);
        assert!(buf.len() >= 2400);
        assert!(buf.len() < 2450);
        assert_eq!(roundtrip(cert.clone()), cert);
    }

    #[test]
    fn all_message_types_roundtrip() {
        let msgs = vec![
            HandshakePayload::ServerHello {
                version: TlsVersion::Tls13,
                resumed: true,
            },
            HandshakePayload::EncryptedExtensions {
                alpn: Some(b"h2".to_vec()),
                early_data_accepted: true,
            },
            HandshakePayload::CertificateVerify,
            HandshakePayload::Finished,
            HandshakePayload::NewSessionTicket {
                ticket: test_ticket(SimTime::ZERO),
            },
            HandshakePayload::ServerHelloDone,
            HandshakePayload::ClientKeyExchange,
        ];
        for p in msgs {
            let m = HandshakeMessage::new(p);
            assert_eq!(roundtrip(m.clone()), m);
        }
    }

    #[test]
    fn record_roundtrip_plain_and_encrypted() {
        for rec in [
            TlsRecord::PlainHandshake(&[1, 2, 3]),
            TlsRecord::ChangeCipherSpec,
            TlsRecord::Alert {
                fatal: true,
                code: 40,
            },
            TlsRecord::encrypted_handshake(&[9; 50]),
            TlsRecord::Encrypted {
                inner_type: CT_APPLICATION_DATA,
                plaintext: b"dns",
            },
        ] {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let (out, used) = TlsRecord::decode(&buf).unwrap().expect("whole");
            assert_eq!(used, buf.len());
            assert_eq!(out, rec);
        }
    }

    #[test]
    fn encrypted_record_carries_aead_overhead() {
        let mut buf = Vec::new();
        TlsRecord::encode_app_data(&[0; 100], &mut buf);
        assert_eq!(buf.len(), 5 + 100 + RECORD_OVERHEAD);
    }

    #[test]
    fn record_decode_incomplete_returns_none() {
        let mut buf = Vec::new();
        TlsRecord::encode_app_data(&[0; 100], &mut buf);
        for cut in [0, 3, 50, buf.len() - 1] {
            assert_eq!(TlsRecord::decode(&buf[..cut]), Ok(None), "cut = {cut}");
        }
    }

    #[test]
    fn handshake_reader_reassembles_split_messages() {
        let mut wire = Vec::new();
        HandshakeMessage::new(HandshakePayload::Finished).encode(&mut wire);
        HandshakeMessage::new(HandshakePayload::ServerHelloDone).encode(&mut wire);
        let mut reader = HandshakeReader::new();
        let mid = wire.len() / 2;
        reader.push(&wire[..mid]);
        let first = reader.next_message().unwrap();
        reader.push(&wire[mid..]);
        let mut got = Vec::new();
        if let Some(m) = first {
            got.push(m);
        }
        while let Some(m) = reader.next_message().unwrap() {
            got.push(m);
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, HandshakePayload::Finished);
        assert_eq!(got[1].payload, HandshakePayload::ServerHelloDone);
    }

    #[test]
    fn garbage_is_malformed_not_incomplete() {
        assert!(HandshakeMessage::decode(&[255, 0, 0, 1, 7]).is_err());
        assert!(TlsRecord::decode(&[99, 3, 3, 0, 1, 0]).is_err());
        assert!(TlsRecord::decode(&[23, 3, 3, 0, 1, 0]).is_err());
    }
}
