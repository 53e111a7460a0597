//! A minimal, dependency-free HTTP/1.1 layer over `std::net`.
//!
//! Exactly the subset a JSON service needs: request line, headers,
//! `Content-Length` bodies, keep-alive. No chunked encoding (a head
//! that carries `Transfer-Encoding` is refused), no TLS, no pipelining
//! beyond the sequential keep-alive loop. Requests are size-capped so a
//! misbehaving client cannot balloon server memory.

use std::io::{self, BufRead, Read, Write};

/// Largest accepted request body (64 MiB — fit requests carry inline
/// datasets).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Largest accepted head (request line + headers + blank line). No
/// separate cap on the header count: 64 KiB already bounds it.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// The path split on `/`, empty segments dropped:
    /// `/tenants/acme/fit` → `["tenants", "acme", "fit"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Reads one request off `reader`. Returns `Ok(None)` on a clean EOF
/// (client closed between requests). The head cap holds *while*
/// reading — a peer that never sends `\n` costs at most
/// `MAX_HEAD_BYTES + 1` bytes — and the body is allocated only after
/// its declared length passed the [`MAX_BODY_BYTES`] check.
///
/// # Errors
///
/// Returns an I/O error on malformed request lines, heads whose body
/// framing is not one agreed `Content-Length` (a `Transfer-Encoding`
/// header, or `Content-Length` headers that disagree), oversized heads
/// or bodies, or a socket failure.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let mut budget = MAX_HEAD_BYTES;
    let mut line = String::new();
    if read_head_line(reader, &mut budget, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !target.starts_with('/') || !version.starts_with("HTTP/1.") {
        return Err(bad("malformed request line"));
    }
    let path = target.split('?').next().unwrap_or("/").to_string();

    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive; `Connection: close` opts out.
    let mut keep_alive = !version.ends_with("1.0");
    let mut header = String::new();
    loop {
        if read_head_line(reader, &mut budget, &mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                let length = value.parse().map_err(|_| bad("bad content-length"))?;
                // RFC 9112 §6.3: disagreeing lengths leave the framing
                // unknown, so the request cannot be read.
                if content_length.is_some_and(|seen| seen != length) {
                    return Err(bad("conflicting content-length"));
                }
                content_length = Some(length);
            }
            // Only `Content-Length` framing is implemented; reading a
            // chunked body as the next request would desync the stream.
            "transfer-encoding" => return Err(bad("transfer-encoding is not supported")),
            "connection" => {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
            _ => {}
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Reads one head line into `line` (cleared first) through a `take` of
/// what is left of the head budget plus one byte, so an over-long line
/// is refused after that one byte instead of after its `\n`.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
    line: &mut String,
) -> io::Result<usize> {
    line.clear();
    let n = reader.take(*budget as u64 + 1).read_line(line)?;
    *budget = budget
        .checked_sub(n)
        .ok_or_else(|| bad("header block too large"))?;
    Ok(n)
}

/// Writes one `application/json` response.
///
/// # Errors
///
/// Returns any socket write error.
pub fn write_response(
    mut stream: impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        507 => "Insufficient Storage",
        _ => "",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Whether an I/O error is a socket timeout. Unix reports an expired
/// `SO_RCVTIMEO` as `WouldBlock`, Windows as `TimedOut`; both mean the
/// peer stalled past the configured deadline.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}
