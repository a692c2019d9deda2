//! Pluggable endpoint transport.

use super::EndpointId;

/// One subquery dispatch to one endpoint.
#[derive(Copy, Clone, Debug)]
pub struct TransportRequest<'a> {
    pub endpoint: EndpointId,
    /// Rendered `SELECT * WHERE { ... }` subquery text.
    pub query: &'a str,
    /// 1-based attempt number within the current execution (retries
    /// increment it).
    pub attempt: u32,
    /// Remaining deadline budget in virtual nanoseconds. Real transports
    /// should give up once this is spent; the executor treats any reply
    /// whose latency meets or exceeds it as a timeout.
    pub budget_nanos: u64,
}

/// Transport-level failure classification, which drives retry policy.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TransportError {
    /// Worth retrying (connection reset, 503, overload shedding, ...).
    Transient,
    /// Retrying cannot help (malformed endpoint, auth refusal, 4xx, ...).
    Permanent,
}

impl TransportError {
    #[inline]
    pub fn is_transient(self) -> bool {
        self == TransportError::Transient
    }

    #[inline]
    pub fn is_permanent(self) -> bool {
        self == TransportError::Permanent
    }
}

/// Retry classification of an HTTP status code, per the taxonomy the real
/// transport and the chaos soak gate share: 2xx is success (`None`);
/// 408/425/429 and every 5xx are load or availability signals worth
/// retrying; everything else (including 3xx — the transport does not
/// follow redirects) indicates a request or endpoint problem retries
/// cannot fix.
pub fn classify_http_status(status: u16) -> Option<TransportError> {
    match status {
        200..=299 => None,
        408 | 425 | 429 | 500..=599 => Some(TransportError::Transient),
        _ => Some(TransportError::Permanent),
    }
}

/// Retry classification of a socket-level error kind: connection-shaped
/// failures (refusal, reset, abort, premature EOF, broken pipe) are
/// transient peer conditions; address/configuration failures are
/// permanent; anything unrecognized defaults to transient so a flaky
/// kernel edge never permanently blacklists an endpoint.
pub fn classify_io_error(kind: std::io::ErrorKind) -> TransportError {
    use std::io::ErrorKind as K;
    match kind {
        K::AddrNotAvailable | K::InvalidInput | K::Unsupported => TransportError::Permanent,
        _ => TransportError::Transient,
    }
}

/// What came back: how long the attempt took (virtual nanoseconds) and
/// either the response payload or a classified error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransportReply {
    pub latency_nanos: u64,
    pub payload: Result<String, TransportError>,
}

/// How subqueries reach endpoints. Implementations must be shareable
/// across the executor's callers and dispatch lanes. The shipped
/// implementation is [`HttpTransport`](super::HttpTransport), SPARQL over
/// HTTP/1.1; the tests' seeded mock transport implements it too.
pub trait EndpointTransport: Send + Sync {
    fn execute(&self, req: &TransportRequest<'_>) -> TransportReply;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_status_classification_matches_the_documented_taxonomy() {
        assert_eq!(classify_http_status(200), None);
        assert_eq!(classify_http_status(204), None);
        for s in [408u16, 425, 429, 500, 502, 503, 504, 599] {
            assert_eq!(
                classify_http_status(s),
                Some(TransportError::Transient),
                "status {s}"
            );
        }
        for s in [301u16, 400, 401, 403, 404, 410, 418] {
            assert_eq!(
                classify_http_status(s),
                Some(TransportError::Permanent),
                "status {s}"
            );
        }
    }

    #[test]
    fn io_error_kinds_classify_conservatively() {
        use std::io::ErrorKind as K;
        for k in [
            K::ConnectionRefused,
            K::ConnectionReset,
            K::ConnectionAborted,
            K::UnexpectedEof,
            K::BrokenPipe,
            K::TimedOut,
            K::WouldBlock,
            K::Other,
        ] {
            assert!(classify_io_error(k).is_transient(), "{k:?}");
        }
        for k in [K::AddrNotAvailable, K::InvalidInput, K::Unsupported] {
            assert!(classify_io_error(k).is_permanent(), "{k:?}");
        }
    }
}
