//! A lean keep-alive HTTP/1.1 client for the load generator: one
//! outstanding request per connection, buffers reused across requests,
//! so the generator's own CPU stays a small share of the machine.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    out: Vec<u8>,
    buf: Vec<u8>,
    scratch: Box<[u8]>,
    body_start: usize,
}

impl Client {
    /// A client for `addr`; the connection opens on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            stream: None,
            out: Vec::with_capacity(512),
            buf: Vec::with_capacity(16 * 1024),
            scratch: vec![0; 16 * 1024].into_boxed_slice(),
            body_start: 0,
        }
    }

    /// Opens the connection now (so setup, not the first measured
    /// request, pays for the handshake).
    pub fn connect(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
        }
        Ok(())
    }

    /// Closes the connection; the next request opens a new one.
    pub fn close(&mut self) {
        self.stream = None;
    }

    /// Sends `GET target` and reads the whole response; returns the
    /// status code. The body is then in [`Client::body`] and the raw
    /// response in [`Client::raw`]. On any error the connection is
    /// dropped, and the next call reconnects.
    pub fn get(&mut self, target: &str) -> io::Result<u16> {
        let result = self.exchange(target);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// The last response's body.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }

    /// The last response, head and body, as received.
    pub fn raw(&self) -> &[u8] {
        &self.buf
    }

    fn exchange(&mut self, target: &str) -> io::Result<u16> {
        self.connect()?;
        let stream = self.stream.as_mut().expect("connected above");
        self.out.clear();
        self.out.extend_from_slice(b"GET ");
        self.out.extend_from_slice(target.as_bytes());
        self.out
            .extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n\r\n");
        stream.write_all(&self.out)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                break end + 4;
            }
            read_more(stream, &mut self.buf, &mut self.scratch)?;
        };
        let (status, len) = parse_head(&self.buf[..head_end])?;
        let total = head_end + len;
        while self.buf.len() < total {
            read_more(stream, &mut self.buf, &mut self.scratch)?;
        }
        if self.buf.len() > total {
            return Err(bad("bytes after the response body"));
        }
        self.body_start = head_end;
        Ok(status)
    }
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>, scratch: &mut [u8]) -> io::Result<()> {
    match stream.read(scratch)? {
        0 => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
        n => {
            buf.extend_from_slice(&scratch[..n]);
            Ok(())
        }
    }
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let text = std::str::from_utf8(head).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| bad("response without Content-Length"))?;
    Ok((status, len))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_length() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\ncontent-length: 12\r\n\r\n";
        assert_eq!(parse_head(head).unwrap(), (200, 12));
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
    }
}
