//! The DNS message codec: header, question, and the four record
//! sections, plus convenience builders for queries and responses.

use crate::edns::OptRecord;
use crate::name::Name;
use crate::record::ResourceRecord;
use crate::types::{Opcode, Rcode, RecordClass, RecordType};
use crate::wire::{WireError, WireReader, WireWriter};

/// The 12-byte message header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    pub id: u16,
    /// QR: false = query, true = response.
    pub response: bool,
    pub opcode: Opcode,
    pub authoritative: bool,
    pub truncated: bool,
    pub recursion_desired: bool,
    pub recursion_available: bool,
    pub authentic_data: bool,
    pub checking_disabled: bool,
    pub rcode: Rcode,
}

impl Default for Header {
    fn default() -> Self {
        Header {
            id: 0,
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::NoError,
        }
    }
}

impl Header {
    fn flags(&self) -> u16 {
        let mut f = 0u16;
        if self.response {
            f |= 0x8000;
        }
        f |= (self.opcode.to_u8() as u16) << 11;
        if self.authoritative {
            f |= 0x0400;
        }
        if self.truncated {
            f |= 0x0200;
        }
        if self.recursion_desired {
            f |= 0x0100;
        }
        if self.recursion_available {
            f |= 0x0080;
        }
        if self.authentic_data {
            f |= 0x0020;
        }
        if self.checking_disabled {
            f |= 0x0010;
        }
        f | self.rcode.to_u8() as u16
    }

    fn from_flags(id: u16, f: u16) -> Header {
        Header {
            id,
            response: f & 0x8000 != 0,
            opcode: Opcode::from_u8((f >> 11) as u8),
            authoritative: f & 0x0400 != 0,
            truncated: f & 0x0200 != 0,
            recursion_desired: f & 0x0100 != 0,
            recursion_available: f & 0x0080 != 0,
            authentic_data: f & 0x0020 != 0,
            checking_disabled: f & 0x0010 != 0,
            rcode: Rcode::from_u8(f as u8),
        }
    }
}

/// An entry of the question section.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    pub name: Name,
    pub rtype: RecordType,
    pub class: RecordClass,
}

impl Question {
    pub fn new(name: Name, rtype: RecordType) -> Self {
        Question {
            name,
            rtype,
            class: RecordClass::In,
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        self.name.encode(w);
        w.put_u16(self.rtype.to_u16());
        w.put_u16(self.class.to_u16());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Question {
            name: Name::decode(r)?,
            rtype: RecordType::from_u16(r.get_u16()?),
            class: RecordClass::from_u16(r.get_u16()?),
        })
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    pub header: Header,
    pub questions: Vec<Question>,
    pub answers: Vec<ResourceRecord>,
    pub authorities: Vec<ResourceRecord>,
    pub additionals: Vec<ResourceRecord>,
}

impl Message {
    /// Build a recursive query for `name`/`rtype` with an EDNS(0) OPT
    /// record (as every modern stub does).
    pub fn query(id: u16, name: Name, rtype: RecordType) -> Message {
        let mut msg = Message {
            header: Header {
                id,
                ..Header::default()
            },
            questions: vec![Question::new(name, rtype)],
            ..Message::default()
        };
        msg.additionals.push(OptRecord::default().to_record());
        msg
    }

    /// Build a response to `query` carrying `answers`.
    pub fn response_to(query: &Message, answers: Vec<ResourceRecord>) -> Message {
        Message {
            header: Header {
                id: query.header.id,
                response: true,
                opcode: query.header.opcode,
                recursion_desired: query.header.recursion_desired,
                recursion_available: true,
                rcode: Rcode::NoError,
                ..Header::default()
            },
            questions: query.questions.clone(),
            answers,
            authorities: Vec::new(),
            additionals: vec![OptRecord::default().to_record()],
        }
    }

    /// Build an error response to `query`.
    pub fn error_response_to(query: &Message, rcode: Rcode) -> Message {
        let mut m = Message::response_to(query, Vec::new());
        m.header.rcode = rcode;
        m
    }

    /// The EDNS OPT record, if present.
    pub fn opt(&self) -> Option<OptRecord> {
        self.additionals
            .iter()
            .find(|rr| rr.rtype == RecordType::Opt)
            .and_then(|rr| OptRecord::from_record(rr).ok())
    }

    /// The EDNS version the sender asked for, if it sent an OPT record.
    /// RFC 6891 §6.1.3: a server must answer anything above 0 with
    /// BADVERS, not a normal response.
    pub fn edns_version(&self) -> Option<u8> {
        self.opt().map(|o| o.version)
    }

    /// Build the RFC 6891 §6.1.3 BADVERS response. BADVERS is extended
    /// rcode 16: OPT `extended_rcode` 1 with the 4-bit header rcode
    /// left at 0. No answers — the query was not processed.
    pub fn badvers_response_to(query: &Message) -> Message {
        let mut m = Message::response_to(query, Vec::new());
        m.additionals.clear();
        m.additionals.push(
            OptRecord {
                extended_rcode: 1,
                ..OptRecord::default()
            }
            .to_record(),
        );
        m
    }

    /// First question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// The message's wire length with no name compressed: an upper
    /// bound on the length of [`encode`](Message::encode)'s output.
    pub fn uncompressed_len(&self) -> usize {
        let questions: usize = self.questions.iter().map(|q| q.name.wire_len() + 4).sum();
        let records: usize = self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
            .map(ResourceRecord::uncompressed_len)
            .sum();
        12 + questions + records
    }

    /// Encode into a buffer sized once, by
    /// [`uncompressed_len`](Message::uncompressed_len).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.uncompressed_len());
        w.put_u16(self.header.id);
        w.put_u16(self.header.flags());
        w.put_u16(self.questions.len() as u16);
        w.put_u16(self.answers.len() as u16);
        w.put_u16(self.authorities.len() as u16);
        w.put_u16(self.additionals.len() as u16);
        for q in &self.questions {
            q.encode(&mut w);
        }
        for rr in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            rr.encode(&mut w);
        }
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        let mut r = WireReader::new(buf);
        let id = r.get_u16()?;
        let flags = r.get_u16()?;
        let qd = r.get_u16()? as usize;
        let an = r.get_u16()? as usize;
        let ns = r.get_u16()? as usize;
        let ar = r.get_u16()? as usize;
        let mut msg = Message {
            header: Header::from_flags(id, flags),
            ..Message::default()
        };
        for _ in 0..qd {
            msg.questions.push(Question::decode(&mut r)?);
        }
        for _ in 0..an {
            msg.answers.push(ResourceRecord::decode(&mut r)?);
        }
        for _ in 0..ns {
            msg.authorities.push(ResourceRecord::decode(&mut r)?);
        }
        for _ in 0..ar {
            msg.additionals.push(ResourceRecord::decode(&mut r)?);
        }
        if !r.is_at_end() {
            return Err(WireError::Invalid("trailing bytes"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RData;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn query_shape() {
        let q = Message::query(0x1234, name("google.com"), RecordType::A);
        assert_eq!(q.header.id, 0x1234);
        assert!(!q.header.response);
        assert!(q.header.recursion_desired);
        assert_eq!(q.questions.len(), 1);
        assert!(q.opt().is_some());
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(7, name("google.com"), RecordType::A);
        let buf = q.encode();
        assert_eq!(Message::decode(&buf).unwrap(), q);
    }

    #[test]
    fn a_query_wire_size_is_realistic() {
        // A google.com A query with EDNS: 12 header + 16 question +
        // 11 OPT = 39 bytes. The paper's measured DoUDP query is 59
        // bytes of IP payload = 51 of DNS + 8 UDP; their client adds
        // a cookie — ours can too via padding, checked elsewhere.
        let q = Message::query(7, name("google.com"), RecordType::A);
        assert_eq!(q.encode().len(), 39);
    }

    #[test]
    fn response_roundtrip() {
        let q = Message::query(9, name("google.com"), RecordType::A);
        let resp = Message::response_to(
            &q,
            vec![ResourceRecord::new(
                name("google.com"),
                300,
                RData::A([8, 8, 8, 8]),
            )],
        );
        let buf = resp.encode();
        let back = Message::decode(&buf).unwrap();
        assert_eq!(back, resp);
        assert!(back.header.response);
        assert!(back.header.recursion_available);
        assert_eq!(back.header.id, 9);
        assert_eq!(back.answers.len(), 1);
    }

    #[test]
    fn response_compresses_answer_names() {
        let q = Message::query(9, name("some.long.domain.example"), RecordType::A);
        let resp = Message::response_to(
            &q,
            vec![ResourceRecord::new(
                name("some.long.domain.example"),
                300,
                RData::A([1, 1, 1, 1]),
            )],
        );
        let buf = resp.encode();
        // The answer's owner name must be a 2-byte pointer to the
        // question name: name(26) would otherwise repeat.
        let uncompressed_estimate = 12 + (26 + 4) + (26 + 14) + 11;
        assert!(buf.len() < uncompressed_estimate);
        assert_eq!(Message::decode(&buf).unwrap(), resp);
    }

    #[test]
    fn error_response() {
        let q = Message::query(3, name("nxdomain.test"), RecordType::A);
        let e = Message::error_response_to(&q, Rcode::NxDomain);
        assert_eq!(e.header.rcode, Rcode::NxDomain);
        assert_eq!(Message::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn badvers_response_carries_extended_rcode_16() {
        let mut q = Message::query(3, name("example.org"), RecordType::A);
        // Bump the requested EDNS version to 1.
        let opt = OptRecord {
            version: 1,
            ..OptRecord::default()
        };
        q.additionals.clear();
        q.additionals.push(opt.to_record());
        assert_eq!(q.edns_version(), Some(1));
        let resp = Message::badvers_response_to(&q);
        let back = Message::decode(&resp.encode()).unwrap();
        assert!(back.header.response);
        assert!(back.answers.is_empty());
        let opt = back.opt().expect("BADVERS carries an OPT");
        // extended rcode = extended_rcode << 4 | header rcode = 16.
        assert_eq!(opt.extended_rcode, 1);
        assert_eq!(back.header.rcode, Rcode::NoError);
        assert_eq!(opt.version, 0, "we answer with the version we speak");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Message::query(1, name("a.b"), RecordType::A).encode();
        buf.push(0);
        assert_eq!(
            Message::decode(&buf),
            Err(WireError::Invalid("trailing bytes"))
        );
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(Message::decode(&[0; 11]), Err(WireError::Truncated));
    }

    #[test]
    fn count_beyond_content_rejected() {
        let mut buf = Message::query(1, name("a.b"), RecordType::A).encode();
        buf[5] = 9; // claim 9 questions
        assert!(Message::decode(&buf).is_err());
    }

    #[test]
    fn flags_roundtrip_exhaustive_bits() {
        for bits in 0..64u16 {
            let h = Header {
                id: 1,
                response: bits & 1 != 0,
                opcode: Opcode::Query,
                authoritative: bits & 2 != 0,
                truncated: bits & 4 != 0,
                recursion_desired: bits & 8 != 0,
                recursion_available: bits & 16 != 0,
                authentic_data: bits & 32 != 0,
                checking_disabled: false,
                rcode: Rcode::NoError,
            };
            let m = Message {
                header: h.clone(),
                ..Message::default()
            };
            assert_eq!(Message::decode(&m.encode()).unwrap().header, h);
        }
    }

    #[test]
    fn multi_record_message_roundtrip() {
        let mut m = Message::query(1, name("example.org"), RecordType::Txt);
        m.header.response = true;
        m.answers = vec![
            ResourceRecord::new(name("example.org"), 60, RData::Txt(vec![b"hi".to_vec()])),
            ResourceRecord::new(name("example.org"), 60, RData::A([1, 2, 3, 4])),
        ];
        m.authorities = vec![ResourceRecord::new(
            name("example.org"),
            3600,
            RData::Ns(name("ns1.example.org")),
        )];
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }
}
