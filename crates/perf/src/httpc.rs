//! A thin HTTP/1.1 client over `std::net`: pre-rendered requests out,
//! `(status, body)` back. Harness and server share one process and two
//! cores, so the generator does as little as possible per request —
//! bytes are rendered in set-up and responses are parsed after the
//! clock stops.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a client waits on the server before calling the request
/// failed. Far above any latency this benchmark should ever see.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Renders a complete request (head and body) ready to be written.
pub fn render(method: &str, path: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: perf\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One client connection, reusable across requests while the server
/// keeps it alive.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle off (small requests, latency measured).
    ///
    /// # Errors
    ///
    /// Returns the connect or socket-option error.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Writes one pre-rendered request and reads the whole response.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on a refused, reset, timed-out or malformed
    /// exchange.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(request)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// One request on a connection of its own (`connection: close` must be
/// in the pre-rendered bytes).
///
/// # Errors
///
/// Same as [`Conn::connect`] and [`Conn::exchange`].
pub fn one_shot(addr: SocketAddr, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    Conn::connect(addr)?.exchange(request)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
