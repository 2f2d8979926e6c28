//! EDNS(0) (RFC 6891): the OPT pseudo-record and the options the paper
//! cares about.
//!
//! The paper checks whether resolvers honour `edns-tcp-keepalive`
//! (RFC 7828) — none did, which is why DoTCP pays a fresh 2-RTT cost per
//! query. The Padding option (RFC 7830) is what encrypted transports use
//! to round message sizes; it also lets our calibration match the
//! paper's observed single-query sizes.

use crate::name::Name;
use crate::record::{RData, ResourceRecord};
use crate::types::{RecordClass, RecordType};
use crate::wire::{WireError, WireReader, WireWriter};

/// An EDNS(0) option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdnsOption {
    /// RFC 7828. The timeout is in units of 100 ms; a client sends the
    /// option empty (None), a server answers with a timeout.
    TcpKeepalive(Option<u16>),
    /// RFC 7830: `len` zero bytes of padding.
    Padding(u16),
    /// Client cookie (RFC 7873), fixed 8 bytes from the client.
    Cookie(Vec<u8>),
    Unknown(u16, Vec<u8>),
}

impl EdnsOption {
    pub(crate) fn code(&self) -> u16 {
        match self {
            EdnsOption::Cookie(_) => 10,
            EdnsOption::TcpKeepalive(_) => 11,
            EdnsOption::Padding(_) => 12,
            EdnsOption::Unknown(c, _) => *c,
        }
    }

    fn encode_value(&self, w: &mut WireWriter) {
        match self {
            EdnsOption::TcpKeepalive(None) => {}
            EdnsOption::TcpKeepalive(Some(t)) => w.put_u16(*t),
            EdnsOption::Padding(len) => {
                for _ in 0..*len {
                    w.put_u8(0);
                }
            }
            EdnsOption::Cookie(c) | EdnsOption::Unknown(_, c) => w.put_slice(c),
        }
    }

    fn decode(code: u16, value: &[u8]) -> Result<EdnsOption, WireError> {
        match code {
            10 => Ok(EdnsOption::Cookie(value.to_vec())),
            11 => match value.len() {
                0 => Ok(EdnsOption::TcpKeepalive(None)),
                2 => Ok(EdnsOption::TcpKeepalive(Some(u16::from_be_bytes([
                    value[0], value[1],
                ])))),
                _ => Err(WireError::Invalid("tcp-keepalive length")),
            },
            // RFC 7830 §3: the message sender SHOULD pad with zero
            // bytes. We only ever emit zeros, so `Padding(len)` is a
            // lossless model *iff* the input pad is all-zero; anything
            // else would be silently rewritten to zeros on re-encode,
            // breaking decode→encode byte fidelity. Reject it instead.
            12 => {
                if value.iter().any(|&b| b != 0) {
                    return Err(WireError::Invalid("non-zero padding bytes"));
                }
                Ok(EdnsOption::Padding(value.len() as u16))
            }
            c => Ok(EdnsOption::Unknown(c, value.to_vec())),
        }
    }
}

/// Decoded view of an OPT pseudo-record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptRecord {
    /// Requestor's maximum UDP payload size.
    pub udp_payload_size: u16,
    pub extended_rcode: u8,
    pub version: u8,
    /// The DO (DNSSEC OK) bit.
    pub dnssec_ok: bool,
    pub options: Vec<EdnsOption>,
}

impl Default for OptRecord {
    fn default() -> Self {
        OptRecord {
            udp_payload_size: 1232, // the DNS-flag-day recommendation
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
            options: Vec::new(),
        }
    }
}

impl OptRecord {
    pub fn option(&self, matcher: impl Fn(&EdnsOption) -> bool) -> Option<&EdnsOption> {
        self.options.iter().find(|o| matcher(o))
    }

    pub fn tcp_keepalive(&self) -> Option<&EdnsOption> {
        self.option(|o| matches!(o, EdnsOption::TcpKeepalive(_)))
    }

    /// Render to a resource record for inclusion in the additional
    /// section. The OPT record abuses the class field for the UDP
    /// payload size and the TTL for flags (RFC 6891 §6.1.3).
    pub fn to_record(&self) -> ResourceRecord {
        let mut w = WireWriter::new();
        for opt in &self.options {
            w.put_u16(opt.code());
            let len_at = w.len();
            w.put_u16(0);
            let before = w.len();
            opt.encode_value(&mut w);
            w.patch_u16(len_at, (w.len() - before) as u16);
        }
        let ttl = ((self.extended_rcode as u32) << 24)
            | ((self.version as u32) << 16)
            | if self.dnssec_ok { 0x8000 } else { 0 };
        ResourceRecord {
            name: Name::root(),
            rtype: RecordType::Opt,
            class: RecordClass::Unknown(self.udp_payload_size),
            ttl,
            rdata: RData::Opt(w.finish()),
        }
    }

    /// Parse from a resource record of type OPT.
    pub fn from_record(rr: &ResourceRecord) -> Result<OptRecord, WireError> {
        if rr.rtype != RecordType::Opt {
            return Err(WireError::Invalid("not an OPT record"));
        }
        let RData::Opt(raw) = &rr.rdata else {
            return Err(WireError::Invalid("OPT rdata shape"));
        };
        let mut options = Vec::new();
        let mut r = WireReader::new(raw);
        while !r.is_at_end() {
            let code = r.get_u16()?;
            let len = r.get_u16()? as usize;
            let value = r.get_slice(len)?;
            options.push(EdnsOption::decode(code, value)?);
        }
        Ok(OptRecord {
            udp_payload_size: rr.class.to_u16(),
            extended_rcode: (rr.ttl >> 24) as u8,
            version: (rr.ttl >> 16) as u8,
            dnssec_ok: rr.ttl & 0x8000 != 0,
            options,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_flag_day_size() {
        assert_eq!(OptRecord::default().udp_payload_size, 1232);
    }

    #[test]
    fn roundtrip_plain() {
        let opt = OptRecord::default();
        let rr = opt.to_record();
        assert_eq!(OptRecord::from_record(&rr).unwrap(), opt);
    }

    #[test]
    fn roundtrip_with_options() {
        let opt = OptRecord {
            udp_payload_size: 4096,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: true,
            options: vec![
                EdnsOption::TcpKeepalive(None),
                EdnsOption::Padding(12),
                EdnsOption::Cookie(vec![1, 2, 3, 4, 5, 6, 7, 8]),
                EdnsOption::Unknown(42, vec![0xFF]),
            ],
        };
        let rr = opt.to_record();
        let back = OptRecord::from_record(&rr).unwrap();
        assert_eq!(back, opt);
        assert!(back.dnssec_ok);
        assert!(back.tcp_keepalive().is_some());
    }

    #[test]
    fn keepalive_with_timeout() {
        let opt = OptRecord {
            options: vec![EdnsOption::TcpKeepalive(Some(100))],
            ..OptRecord::default()
        };
        let back = OptRecord::from_record(&opt.to_record()).unwrap();
        assert_eq!(
            back.tcp_keepalive(),
            Some(&EdnsOption::TcpKeepalive(Some(100)))
        );
    }

    #[test]
    fn padding_adds_exact_bytes() {
        let small = OptRecord::default().to_record();
        let padded = OptRecord {
            options: vec![EdnsOption::Padding(100)],
            ..OptRecord::default()
        }
        .to_record();
        let len = |rr: &ResourceRecord| {
            let mut w = WireWriter::new();
            rr.encode(&mut w);
            w.len()
        };
        assert_eq!(len(&padded), len(&small) + 4 + 100);
    }

    #[test]
    fn zero_padding_survives_decode_encode_roundtrip() {
        let opt = OptRecord {
            options: vec![EdnsOption::Padding(37)],
            ..OptRecord::default()
        };
        let rr = opt.to_record();
        let back = OptRecord::from_record(&rr).unwrap();
        assert_eq!(back, opt);
        // Byte-identical re-encode: what PacketTap fidelity relies on.
        let wire = |rr: &ResourceRecord| {
            let mut w = WireWriter::new();
            rr.encode(&mut w);
            w.finish()
        };
        assert_eq!(wire(&back.to_record()), wire(&rr));
    }

    #[test]
    fn nonzero_padding_bytes_rejected() {
        // Hand-build OPT rdata: option 12, length 3, one non-zero byte.
        let rr = ResourceRecord {
            name: Name::root(),
            rtype: RecordType::Opt,
            class: RecordClass::Unknown(1232),
            ttl: 0,
            rdata: RData::Opt(vec![0, 12, 0, 3, 0, 0xAB, 0]),
        };
        assert!(OptRecord::from_record(&rr).is_err());
    }

    #[test]
    fn from_record_rejects_wrong_type() {
        let rr = ResourceRecord::new(Name::parse("x.y").unwrap(), 0, RData::A([1, 2, 3, 4]));
        assert!(OptRecord::from_record(&rr).is_err());
    }

    #[test]
    fn bad_keepalive_length_rejected() {
        let rr = ResourceRecord {
            name: Name::root(),
            rtype: RecordType::Opt,
            class: RecordClass::Unknown(1232),
            ttl: 0,
            rdata: RData::Opt(vec![0, 11, 0, 1, 9]), // 1-byte keepalive
        };
        assert!(OptRecord::from_record(&rr).is_err());
    }
}
