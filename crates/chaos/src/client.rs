//! The fault classes of the server tests' chaos client.
//!
//! The client itself (`crates/server/tests/common/chaos_client.rs`) needs
//! the server's request encoder, so it lives with the server's tests; its
//! schedule lives here, beside the other adapters of [`draw`].

use crate::draw;

/// One client-side misbehavior, drawn per request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientFault {
    /// Well-formed GET or POST; expects `200`.
    Healthy,
    /// Valid request written in 7-byte sips with sub-millisecond pauses —
    /// slow but *under* the request deadline; still expects `200`.
    TrickleHeaders,
    /// Valid POST whose body straddles two writes with a pause between;
    /// expects `200`.
    StraddleBody,
    /// Bytes that are not HTTP; expects a structured `400` and close.
    PipelinedGarbage,
    /// Connect and close without sending a byte.
    HalfOpen,
    /// POST that announces a body, sends half, and disconnects.
    MidBodyAbort,
    /// `Content-Length` above the server's body cap, no body sent;
    /// expects `413` before any body byte is read.
    OversizeAnnounce,
    /// `Content-Length` *shorter* than the bytes sent: the tail bytes
    /// desync the keep-alive stream into a garbage next request —
    /// expects `200` then `400`.
    LyingLength,
    /// Header block above the server's header cap; expects `431`.
    HugeHeaders,
}

impl ClientFault {
    pub const ALL: [ClientFault; 9] = [
        ClientFault::Healthy,
        ClientFault::TrickleHeaders,
        ClientFault::StraddleBody,
        ClientFault::PipelinedGarbage,
        ClientFault::HalfOpen,
        ClientFault::MidBodyAbort,
        ClientFault::OversizeAnnounce,
        ClientFault::LyingLength,
        ClientFault::HugeHeaders,
    ];

    /// Draw weights in percent, [`ClientFault::ALL`] order; sum 100.
    const PCTS: [u8; 9] = [40, 8, 8, 10, 6, 7, 7, 7, 7];

    pub fn name(self) -> &'static str {
        match self {
            ClientFault::Healthy => "healthy",
            ClientFault::TrickleHeaders => "trickle",
            ClientFault::StraddleBody => "straddle",
            ClientFault::PipelinedGarbage => "garbage",
            ClientFault::HalfOpen => "halfopen",
            ClientFault::MidBodyAbort => "abort",
            ClientFault::OversizeAnnounce => "oversize",
            ClientFault::LyingLength => "lyinglen",
            ClientFault::HugeHeaders => "hugehdrs",
        }
    }

    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&f| f == self).expect("in ALL")
    }

    /// The scheduled misbehavior of request `req` on connection `conn`.
    pub fn draw(seed: u64, conn: u64, req: u64) -> ClientFault {
        Self::ALL[draw(seed, [conn, req, 0xfa], &Self::PCTS).unwrap_or(0)]
    }
}
