//! Benchmark-owned loopback member endpoint: keep-alive HTTP/1.1, answers
//! every POST with a fixed 256-byte `200` (or, in echo mode, with the
//! request body, so the correctness cases can see the subquery the
//! mediator actually sent). Zero service delay: the mediator's own
//! overhead is then the whole latency.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub const STUB_BODY_LEN: usize = 256;

/// The fixed reply body: an empty SPARQL-results document padded to
/// [`STUB_BODY_LEN`] bytes.
pub fn stub_body() -> Vec<u8> {
    let mut body = br#"{"head":{"vars":[]},"results":{"bindings":[]}}"#.to_vec();
    body.resize(STUB_BODY_LEN, b' ');
    body
}

/// The full reply as it crosses the wire (what `read_response` replays).
pub fn stub_reply(body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

pub struct Stub {
    pub authority: String,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Stub {
    pub fn spawn(echo: bool) -> io::Result<Stub> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let authority = listener.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (stop, handlers) = (Arc::clone(&stop), Arc::clone(&handlers));
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(conn) = conn else { continue };
                    let stop = Arc::clone(&stop);
                    let h = std::thread::spawn(move || {
                        let _ = serve_connection(&conn, echo, &stop);
                    });
                    handlers.lock().expect("no panic holds this lock").push(h);
                }
            })
        };
        Ok(Stub {
            authority,
            stop,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// Stop accepting and wait for every thread to end.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(&self.authority);
        if let Some(h) = self.acceptor.take() {
            h.join().expect("stub acceptor panicked");
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("threads are joined"));
        for h in handlers {
            h.join().expect("stub connection thread panicked");
        }
    }
}

fn serve_connection(conn: &TcpStream, echo: bool, stop: &AtomicBool) -> io::Result<()> {
    conn.set_nodelay(true)?;
    // The timeout only bounds how long shutdown waits for an idle peer;
    // `patiently` retries every read it interrupts.
    conn.set_read_timeout(Some(Duration::from_millis(100)))?;
    let fixed = stub_reply(&stub_body());
    let mut r = BufReader::with_capacity(16 * 1024, conn);
    let mut line = String::new();
    let mut body = Vec::new();
    loop {
        // Head: request line + headers, only Content-Length matters.
        let mut content_length = 0usize;
        loop {
            line.clear();
            if patiently(stop, || r.read_line(&mut line))? == 0 {
                return Ok(());
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((name, value)) = l.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        body.resize(content_length, 0);
        let mut got = 0;
        while got < content_length {
            match patiently(stop, || r.read(&mut body[got..]))? {
                0 => return Ok(()),
                n => got += n,
            }
        }
        let mut w = conn;
        if echo {
            w.write_all(&stub_reply(&body))?;
        } else {
            w.write_all(&fixed)?;
        }
    }
}

/// Run `read` until it returns something other than a timeout. Partial
/// data a timed-out `read_line` already appended stays in its buffer, so
/// retrying loses nothing. Reports EOF (`0`) once `stop` is set.
fn patiently(stop: &AtomicBool, mut read: impl FnMut() -> io::Result<usize>) -> io::Result<usize> {
    loop {
        match read() {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(0);
                }
            }
            other => return other,
        }
    }
}
