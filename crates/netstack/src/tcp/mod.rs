//! TCP: segments, the connection state machine, and a listener that
//! demultiplexes incoming segments onto per-peer sockets.

mod segment;
mod socket;

pub use segment::{TcpFlags, TcpOptions, TcpSegment, TfoCookie, Timestamps};
pub use socket::{TcpConfig, TcpFailure, TcpListener, TcpSocket, TcpState};
