//! A minimal HTTP/1.1 client for the served workload: one request per
//! connection (the server closes after each response), with the arrival
//! time of the first byte and of every NDJSON frame recorded.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long the client waits on a silent server before giving up.
const TIMEOUT: Duration = Duration::from_secs(120);

/// One received response.
pub struct Response {
    pub status: u16,
    /// When the status line arrived.
    pub first_byte: Instant,
    /// Body lines with their arrival times.
    pub lines: Vec<(Instant, String)>,
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok(stream)
}

/// Send a request and read the response to the end of the stream.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let stream = send(addr, method, path, body)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let first_byte = Instant::now();
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {line:?}"),
            )
        })?;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
    }
    let mut lines = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let text = line.trim_end();
        if !text.is_empty() {
            lines.push((Instant::now(), text.to_owned()));
        }
    }
    Ok(Response {
        status,
        first_byte,
        lines,
    })
}

/// The `frame` tag of an NDJSON frame line (`""` if absent).
pub fn frame_kind(line: &str) -> &str {
    line.split_once("\"frame\":")
        .and_then(|(_, rest)| rest.trim_start().strip_prefix('"'))
        .and_then(|rest| rest.split_once('"'))
        .map_or("", |(kind, _)| kind)
}

#[cfg(test)]
mod tests {
    use super::frame_kind;

    #[test]
    fn frame_kind_reads_the_tag() {
        assert_eq!(frame_kind(r#"{"frame":"done","request":1}"#), "done");
        assert_eq!(frame_kind(r#"{"frame": "report"}"#), "report");
        assert_eq!(frame_kind("ok"), "");
    }
}
