//! QUIC (RFC 9000/9001/9002 subset) — the transport under DoQ.
//!
//! Implemented, because the paper's results depend on them:
//!
//! * the combined transport+crypto handshake (1 RTT; with Session
//!   Resumption no certificate is sent, which keeps the server's first
//!   flight under the anti-amplification limit);
//! * the **3x anti-amplification limit** (RFC 9000 §8.1) — the effect
//!   that made ~40% of DoQ handshakes one RTT slower in the authors'
//!   preliminary study, reproduced here as an ablation;
//! * client Initial datagrams padded to **1200 bytes** (§14.1) — the
//!   reason DoQ's handshake transfers ~2x the bytes of DoT/DoH in
//!   Table 1;
//! * **Version Negotiation** (§6), including the version-0 probe the
//!   paper's ZMap scan uses to find QUIC endpoints statelessly;
//! * **Retry / NEW_TOKEN address validation** (§8): tokens from a
//!   previous connection ride in the next Initial, as the DoQ RFC
//!   recommends in union with Session Resumption;
//! * client-initiated bidirectional **streams** (one DNS query each,
//!   per RFC 9250), CRYPTO/ACK/STREAM frames with offset reassembly,
//!   and PTO-based loss recovery with a 1 s initial timeout.
//!
//! Header protection and packet AEAD are modelled as the 16-byte tag
//! they add to every protected packet (DESIGN.md).

mod connection;
mod frame;
mod packet;
mod varint;

pub use connection::{QuicConfig, QuicConnection, QuicError, QuicServer};
pub use frame::{AckRangeIter, AckRanges, Frame, Frames};
pub use packet::{Packet as QuicPacket, PacketType, VersionNegotiation};
pub use varint::{read_varint, write_varint};

/// QUIC version 1 (RFC 9000).
pub const QUIC_V1: u32 = 0x0000_0001;

/// IETF draft version `n` (e.g. 29 -> 0xff00001d).
pub const fn draft_version(n: u8) -> u32 {
    0xff00_0000 | n as u32
}

/// Minimum client Initial datagram size (RFC 9000 §14.1).
pub const MIN_INITIAL_SIZE: usize = 1200;

/// Anti-amplification factor (RFC 9000 §8.1).
pub const AMPLIFICATION_FACTOR: usize = 3;

/// Modelled AEAD tag length per protected packet.
pub const PACKET_TAG_LEN: usize = 16;
