//! Session tickets (RFC 8446 §4.6.1).
//!
//! Every resolver the paper measured supported Session Resumption and
//! issued tickets with the maximum 7-day lifetime; none accepted 0-RTT.
//! Tickets here carry the issuing server's identity (standing in for
//! the ticket-encryption key check a real server performs), the
//! negotiated version/ALPN, and an opaque length that models the real
//! ticket blob for size accounting.

use crate::tls::messages::TlsVersion;
use doqlab_simnet::{Duration, SimTime};

/// The RFC 8446 maximum (and the value every measured resolver used).
pub const MAX_TICKET_LIFETIME: Duration = Duration::from_secs(7 * 24 * 3600);

/// A resumption ticket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTicket {
    /// Identity of the issuing server; a server only accepts its own
    /// tickets (standing in for the ticket key).
    pub server_id: u64,
    pub version: TlsVersion,
    /// ALPN the original session negotiated; resumption must match.
    pub alpn: Vec<u8>,
    pub issued_at: SimTime,
    pub lifetime: Duration,
    /// Whether the server permits 0-RTT under this ticket
    /// (max_early_data_size > 0).
    pub allows_early_data: bool,
    /// Size of the opaque ticket blob on the wire.
    pub opaque_len: u16,
}

impl SessionTicket {
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        now < self.issued_at + self.lifetime
    }

    /// Append the serialized ticket (fields + opaque blob) to `b`.
    pub fn encode(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.server_id.to_be_bytes());
        b.extend_from_slice(&self.version.wire().to_be_bytes());
        b.extend_from_slice(&(self.alpn.len() as u16).to_be_bytes());
        b.extend_from_slice(&self.alpn);
        b.extend_from_slice(&self.issued_at.as_nanos().to_be_bytes());
        b.extend_from_slice(&(self.lifetime.as_secs()).to_be_bytes());
        b.push(self.allows_early_data as u8);
        b.extend_from_slice(&self.opaque_len.to_be_bytes());
        b.resize(b.len() + self.opaque_len as usize, 0);
    }

    pub fn decode(b: &[u8]) -> Option<SessionTicket> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            if *pos + n > b.len() {
                return None;
            }
            let s = &b[*pos..*pos + n];
            *pos += n;
            Some(s)
        };
        let server_id = u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let version =
            TlsVersion::from_wire(u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?))?;
        let alpn_len = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
        let alpn = take(&mut pos, alpn_len)?.to_vec();
        let issued_at =
            SimTime::from_nanos(u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?));
        let lifetime = Duration::from_secs(u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?));
        let allows_early_data = take(&mut pos, 1)?[0] == 1;
        let opaque_len = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?);
        take(&mut pos, opaque_len as usize)?;
        Some(SessionTicket {
            server_id,
            version,
            alpn,
            issued_at,
            lifetime,
            allows_early_data,
            opaque_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket() -> SessionTicket {
        SessionTicket {
            server_id: 7,
            version: TlsVersion::Tls13,
            alpn: b"doq".to_vec(),
            issued_at: SimTime::from_secs(100),
            lifetime: MAX_TICKET_LIFETIME,
            allows_early_data: true,
            opaque_len: 120,
        }
    }

    fn encoded(t: &SessionTicket) -> Vec<u8> {
        let mut b = Vec::new();
        t.encode(&mut b);
        b
    }

    #[test]
    fn roundtrip() {
        let t = ticket();
        assert_eq!(SessionTicket::decode(&encoded(&t)), Some(t));
    }

    #[test]
    fn validity_window() {
        let t = ticket();
        assert!(!t.is_valid_at(SimTime::from_secs(100) + MAX_TICKET_LIFETIME));
        assert!(t.is_valid_at(SimTime::from_secs(100)));
        assert!(
            t.is_valid_at(SimTime::from_secs(100) + MAX_TICKET_LIFETIME - Duration::from_secs(1))
        );
    }

    #[test]
    fn encoded_size_includes_opaque_blob() {
        let t = ticket();
        assert!(encoded(&t).len() > 120);
    }

    #[test]
    fn truncated_decode_fails() {
        let enc = encoded(&ticket());
        assert!(SessionTicket::decode(&enc[..enc.len() - 1]).is_none());
        assert!(SessionTicket::decode(&[]).is_none());
    }
}
