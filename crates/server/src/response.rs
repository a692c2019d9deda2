//! The response renderer: every byte the server writes back, from the
//! `200` hot path to the acceptor's prebuilt shed `503`, goes through
//! [`render_with`].

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// The one response renderer: status line, `Content-Type`, optional
/// `Retry-After`, extra headers, `Content-Length`, optional
/// `Connection: close`, body. Allocation-free once `buf` has capacity —
/// the 200 hot path reuses one buffer per worker.
pub(crate) fn render_with(
    buf: &mut Vec<u8>,
    status: u16,
    body: &[u8],
    content_type: &str,
    close: bool,
    retry_after_secs: Option<u64>,
    extra: &[(&str, &[u8])],
) {
    buf.clear();
    buf.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(buf, status as u64);
    buf.push(b' ');
    buf.extend_from_slice(reason(status).as_bytes());
    buf.extend_from_slice(b"\r\nContent-Type: ");
    buf.extend_from_slice(content_type.as_bytes());
    if let Some(secs) = retry_after_secs {
        buf.extend_from_slice(b"\r\nRetry-After: ");
        push_decimal(buf, secs);
    }
    for (name, value) in extra {
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(b": ");
        buf.extend_from_slice(value);
    }
    buf.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(buf, body.len() as u64);
    if close {
        buf.extend_from_slice(b"\r\nConnection: close");
    }
    buf.extend_from_slice(b"\r\n\r\n");
    buf.extend_from_slice(body);
}

/// Render a plain response (no `Retry-After`, no extra headers).
pub(crate) fn render_response(
    buf: &mut Vec<u8>,
    status: u16,
    body: &[u8],
    content_type: &str,
    close: bool,
) {
    render_with(buf, status, body, content_type, close, None, &[]);
}

/// The prebuilt overload response the acceptor writes on the shed path.
pub(crate) fn render_shed(retry_after_secs: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(160);
    render_with(
        &mut buf,
        503,
        b"overloaded\n",
        "text/plain",
        true,
        Some(retry_after_secs),
        &[],
    );
    buf
}

fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&tmp[i..]);
}
