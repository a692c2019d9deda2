//! SPARQL-protocol request parsing over the shared `httpcore` framing
//! primitives.
//!
//! The reader accepts the two protocol bindings the SPARQL 1.1 Protocol
//! defines for queries: `GET <route>?query=<urlencoded>` and
//! `POST <route>` with either an `application/sparql-query` body (the
//! query verbatim) or an `application/x-www-form-urlencoded` body
//! carrying `query=`. Everything else — and every way a request can be
//! malformed, oversized, slow, or truncated — degrades to a
//! [`RequestError`] that maps onto exactly one HTTP status and one
//! per-class counter. There is deliberately no "unknown error" class:
//! a failure the taxonomy cannot name is a bug the malformed-request
//! battery should catch, not a 500.
//!
//! All parsing state lives in the caller-owned [`RequestScratch`], so a
//! keep-alive connection loop reads request after request with zero heap
//! allocations once the scratch buffers are warm (the chunked-body path
//! is the one exception and is not on the healthy-traffic profile).

use std::io::BufRead;
use std::str;

use sparql_rewrite_core::httpcore::{
    read_chunked_body_into, read_headers, read_line_bounded, trim_ascii, HeaderFraming, HttpError,
    HttpLimits,
};

/// Every way one request can fail, each with a fixed response status
/// ([`RequestError::status`]) and a stable counter slot
/// ([`RequestError::index`]). `Closed` is the one class with no status:
/// the peer is gone (or died mid-message), so there is nobody to answer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RequestError {
    /// Request line was not `METHOD SP target SP HTTP/1.<0|1>`, or a GET
    /// declared a body.
    BadRequestLine,
    /// Header without a colon, or an obs-fold with nothing to extend.
    BadHeader,
    /// Request line + headers exceeded [`HttpLimits::max_header_bytes`].
    HeadersTooLarge,
    /// Declared or decoded body exceeded [`HttpLimits::max_body_bytes`].
    BodyTooLarge,
    /// Unparseable or self-contradictory `Content-Length`.
    InvalidContentLength,
    /// Malformed chunked transfer coding.
    InvalidChunk,
    /// POST with neither `Content-Length` nor chunked framing.
    LengthRequired,
    /// A method other than GET or POST.
    MethodNotAllowed,
    /// POST body with a `Content-Type` that is neither SPARQL binding.
    UnsupportedMediaType,
    /// Target path is not the configured query route.
    NotFound,
    /// No `query` parameter (GET query string / form body).
    MissingQuery,
    /// Broken percent-encoding or non-UTF-8 query text.
    BadEncoding,
    /// Framing was fine; the SPARQL text did not parse. The connection
    /// stays usable — this is the only error class that keeps it.
    QueryUnparseable,
    /// The per-request deadline expired mid-read (slow loris, stalled
    /// peer): answered `408` and closed.
    Timeout,
    /// Peer disconnected before completing the request; no response.
    Closed,
}

/// Number of [`RequestError`] classes (sizing for counter arrays).
pub const ERROR_CLASSES: usize = 15;

impl RequestError {
    /// Stable counter slot for this class.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Counter label, also used as the error-response body.
    pub fn label(self) -> &'static str {
        match self {
            RequestError::BadRequestLine => "bad_request_line",
            RequestError::BadHeader => "bad_header",
            RequestError::HeadersTooLarge => "headers_too_large",
            RequestError::BodyTooLarge => "body_too_large",
            RequestError::InvalidContentLength => "invalid_content_length",
            RequestError::InvalidChunk => "invalid_chunk",
            RequestError::LengthRequired => "length_required",
            RequestError::MethodNotAllowed => "method_not_allowed",
            RequestError::UnsupportedMediaType => "unsupported_media_type",
            RequestError::NotFound => "not_found",
            RequestError::MissingQuery => "missing_query",
            RequestError::BadEncoding => "bad_encoding",
            RequestError::QueryUnparseable => "query_unparseable",
            RequestError::Timeout => "timeout",
            RequestError::Closed => "closed",
        }
    }

    /// All labels in [`RequestError::index`] order.
    pub fn labels() -> [&'static str; ERROR_CLASSES] {
        [
            RequestError::BadRequestLine,
            RequestError::BadHeader,
            RequestError::HeadersTooLarge,
            RequestError::BodyTooLarge,
            RequestError::InvalidContentLength,
            RequestError::InvalidChunk,
            RequestError::LengthRequired,
            RequestError::MethodNotAllowed,
            RequestError::UnsupportedMediaType,
            RequestError::NotFound,
            RequestError::MissingQuery,
            RequestError::BadEncoding,
            RequestError::QueryUnparseable,
            RequestError::Timeout,
            RequestError::Closed,
        ]
        .map(RequestError::label)
    }

    /// Response status for this class; `None` means the peer is gone and
    /// no response is written.
    pub fn status(self) -> Option<u16> {
        match self {
            RequestError::BadRequestLine
            | RequestError::BadHeader
            | RequestError::InvalidContentLength
            | RequestError::InvalidChunk
            | RequestError::MissingQuery
            | RequestError::BadEncoding
            | RequestError::QueryUnparseable => Some(400),
            RequestError::NotFound => Some(404),
            RequestError::MethodNotAllowed => Some(405),
            RequestError::Timeout => Some(408),
            RequestError::LengthRequired => Some(411),
            RequestError::BodyTooLarge => Some(413),
            RequestError::UnsupportedMediaType => Some(415),
            RequestError::HeadersTooLarge => Some(431),
            RequestError::Closed => None,
        }
    }
}

/// Map a framing-layer failure onto the request taxonomy.
fn lift(e: HttpError) -> RequestError {
    match e {
        HttpError::MalformedHeader => RequestError::BadHeader,
        HttpError::HeadersTooLarge => RequestError::HeadersTooLarge,
        HttpError::BodyTooLarge => RequestError::BodyTooLarge,
        HttpError::InvalidContentLength => RequestError::InvalidContentLength,
        HttpError::InvalidChunk => RequestError::InvalidChunk,
        HttpError::Truncated => RequestError::Closed,
        e if e.is_timeout() => RequestError::Timeout,
        HttpError::Io(_) => RequestError::Closed,
        // Response-side classes can't come out of the request readers.
        HttpError::MalformedStatusLine | HttpError::BadAddress | HttpError::Status(_) => {
            RequestError::BadRequestLine
        }
    }
}

/// Which server surface a request addressed. The query route is the
/// configured SPARQL path; `/healthz` and `/stats` are fixed read-only
/// observability routes that accept `GET` only.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Route {
    /// The configured SPARQL query route (default `/sparql`).
    Query,
    /// `GET /healthz` — readiness probe.
    Health,
    /// `GET /stats` — JSON counters snapshot.
    Stats,
}

impl Route {
    /// Stable slot for per-route arrays (latency histograms).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Number of [`Route`] variants (sizing for per-route arrays).
pub const N_ROUTES: usize = 3;

/// One successfully framed request; for [`Route::Query`] the query text
/// is in [`RequestScratch::query`].
#[derive(Copy, Clone, Debug)]
pub struct Request {
    /// HTTP/1.1 default, `Connection` tokens applied (`close` wins over
    /// `keep-alive`).
    pub keep_alive: bool,
    /// Which surface the request addressed.
    pub route: Route,
}

/// Caller-owned buffers for [`read_request`]; reuse across requests for
/// an allocation-free steady state.
pub struct RequestScratch {
    line: Vec<u8>,
    pending: Vec<u8>,
    target: Vec<u8>,
    body: Vec<u8>,
    decode: Vec<u8>,
    content_type: Vec<u8>,
    /// Decoded SPARQL query text of the last successful read.
    pub query: String,
}

impl Default for RequestScratch {
    fn default() -> RequestScratch {
        RequestScratch::new()
    }
}

impl RequestScratch {
    pub fn new() -> RequestScratch {
        RequestScratch {
            line: Vec::new(),
            pending: Vec::new(),
            target: Vec::new(),
            body: Vec::new(),
            decode: Vec::new(),
            content_type: Vec::new(),
            query: String::new(),
        }
    }
}

/// Read and decode one SPARQL-protocol request from `r`. On success the
/// query text is in `scratch.query`; on failure the connection state is
/// unspecified and (except [`RequestError::QueryUnparseable`], which this
/// function never returns — SPARQL parsing happens in the engine) the
/// caller must close after responding.
pub fn read_request<R: BufRead>(
    r: &mut R,
    limits: &HttpLimits,
    route: &[u8],
    scratch: &mut RequestScratch,
) -> Result<Request, RequestError> {
    let RequestScratch {
        line,
        pending,
        target,
        body,
        decode,
        content_type,
        query,
    } = scratch;
    query.clear();
    body.clear();
    content_type.clear();

    let mut budget = limits.max_header_bytes;
    read_line_bounded(r, line, &mut budget, HttpError::HeadersTooLarge).map_err(lift)?;
    let (is_post, http11) = {
        let mut parts = line.splitn(3, |&b| b == b' ');
        let method = parts.next().unwrap_or(&[]);
        let tgt = parts.next().unwrap_or(&[]);
        let version = parts.next().unwrap_or(&[]);
        let http11 = match version {
            b"HTTP/1.1" => true,
            b"HTTP/1.0" => false,
            _ => return Err(RequestError::BadRequestLine),
        };
        if tgt.is_empty() {
            return Err(RequestError::BadRequestLine);
        }
        let is_post = match method {
            b"GET" => false,
            b"POST" => true,
            m if !m.is_empty() && m.iter().all(u8::is_ascii_uppercase) => {
                return Err(RequestError::MethodNotAllowed)
            }
            _ => return Err(RequestError::BadRequestLine),
        };
        target.clear();
        target.extend_from_slice(tgt);
        (is_post, http11)
    };

    let mut framing = HeaderFraming::default();
    read_headers(
        r,
        line,
        pending,
        &mut budget,
        &mut framing,
        &mut |name, value| {
            if name.eq_ignore_ascii_case(b"content-type") {
                content_type.clear();
                content_type.extend_from_slice(value);
            }
        },
    )
    .map_err(lift)?;
    let keep_alive = if framing.close {
        false
    } else if http11 {
        true
    } else {
        framing.keep_alive
    };

    let (path, query_string) = match target.iter().position(|&b| b == b'?') {
        Some(p) => (&target[..p], Some(&target[p + 1..])),
        None => (&target[..], None),
    };
    let route_kind = if path == route {
        Route::Query
    } else if path == b"/healthz" {
        Route::Health
    } else if path == b"/stats" {
        Route::Stats
    } else {
        return Err(RequestError::NotFound);
    };

    if !is_post {
        // A GET that declares a body would desynchronize keep-alive
        // framing; reject rather than guess.
        if framing.chunked || framing.content_length.is_some_and(|n| n > 0) {
            return Err(RequestError::BadRequestLine);
        }
        if route_kind != Route::Query {
            // Observability routes take no query parameter.
            return Ok(Request {
                keep_alive,
                route: route_kind,
            });
        }
        let raw = query_string
            .and_then(|qs| find_param(qs, b"query"))
            .ok_or(RequestError::MissingQuery)?;
        percent_decode_into(raw, decode).map_err(|()| RequestError::BadEncoding)?;
        let text = str::from_utf8(decode).map_err(|_| RequestError::BadEncoding)?;
        query.push_str(text);
        return Ok(Request {
            keep_alive,
            route: Route::Query,
        });
    }
    if route_kind != Route::Query {
        // The observability surface is read-only; refuse before the body
        // read so a POST flood cannot buy body-sized work from it.
        return Err(RequestError::MethodNotAllowed);
    }

    // POST: read the framed body, then decode per Content-Type.
    if framing.chunked {
        read_chunked_body_into(r, limits, body).map_err(lift)?;
    } else if let Some(n) = framing.content_length {
        if n > limits.max_body_bytes as u64 {
            return Err(RequestError::BodyTooLarge);
        }
        body.resize(n as usize, 0);
        r.read_exact(body)
            .map_err(|e| lift(HttpError::from_io(&e)))?;
    } else {
        return Err(RequestError::LengthRequired);
    }

    let essence = media_essence(content_type);
    if essence.is_empty() || essence.eq_ignore_ascii_case(b"application/sparql-query") {
        let text = str::from_utf8(body).map_err(|_| RequestError::BadEncoding)?;
        query.push_str(text);
    } else if essence.eq_ignore_ascii_case(b"application/x-www-form-urlencoded") {
        let raw = find_param(body, b"query").ok_or(RequestError::MissingQuery)?;
        percent_decode_into(raw, decode).map_err(|()| RequestError::BadEncoding)?;
        let text = str::from_utf8(decode).map_err(|_| RequestError::BadEncoding)?;
        query.push_str(text);
    } else {
        return Err(RequestError::UnsupportedMediaType);
    }
    Ok(Request {
        keep_alive,
        route: Route::Query,
    })
}

/// The media type without parameters: `application/sparql-query;
/// charset=utf-8` → `application/sparql-query`.
fn media_essence(content_type: &[u8]) -> &[u8] {
    let essence = match content_type.iter().position(|&b| b == b';') {
        Some(p) => &content_type[..p],
        None => content_type,
    };
    trim_ascii(essence)
}

/// First `name=value` pair in an `application/x-www-form-urlencoded`
/// byte string; pairs without `=` are skipped.
fn find_param<'a>(qs: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    qs.split(|&b| b == b'&').find_map(|pair| {
        let eq = pair.iter().position(|&b| b == b'=')?;
        (&pair[..eq] == name).then(|| &pair[eq + 1..])
    })
}

/// URL-decode `src` into `out` (cleared first): `+` → space, `%XX` → byte.
/// Errors on truncated or non-hex escapes.
#[allow(clippy::result_unit_err)] // sole caller maps Err to RequestError::BadEncoding
pub fn percent_decode_into(src: &[u8], out: &mut Vec<u8>) -> Result<(), ()> {
    out.clear();
    let mut i = 0;
    while i < src.len() {
        match src[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                if i + 2 >= src.len() {
                    return Err(());
                }
                let hi = hex_val(src[i + 1]).ok_or(())?;
                let lo = hex_val(src[i + 2]).ok_or(())?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    Ok(())
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encode `text` as a `query=` parameter value into `out`
/// (appending). The inverse of [`percent_decode_into`] for client use —
/// the tests' chaos client renders GET requests with it.
pub fn percent_encode_into(text: &str, out: &mut Vec<u8>) {
    for &b in text.as_bytes() {
        match b {
            b' ' => out.push(b'+'),
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => out.push(b),
            _ => {
                const HEX: &[u8; 16] = b"0123456789ABCDEF";
                out.push(b'%');
                out.push(HEX[(b >> 4) as usize]);
                out.push(HEX[(b & 0xf) as usize]);
            }
        }
    }
}
