//! Seeded client-side chaos for the server soak: a single-threaded HTTP
//! client that misbehaves on a deterministic schedule.
//!
//! Where the federation `http_soak` injects faults on the *server* side
//! (chaos proxies) to harden the client transport, this is the mirror
//! image: nine client-side fault classes — half-open connects, trickled
//! headers, aborted bodies, lying `Content-Length`, oversized frames —
//! thrown at the real [`sparql_rewrite_server`] front end over loopback
//! TCP. Every draw comes from `mix_chain(seed, [conn, req, salt])`, so
//! two runs with the same seed produce byte-identical fault schedules,
//! and the soak can gate on byte-identical outcome transcripts.
//!
//! Transcript lines record outcome *classes* (`200`, `400`, `closed`,
//! `200+400`), never wall-clock timings — real sockets make timings
//! noisy, and the whole point is that the *behavior* replays exactly.

use std::fmt::Write as _;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use sparql_rewrite_core::httpcore::{read_response, HttpLimits, HttpResponse};
use sparql_rewrite_core::mix_chain;
use sparql_rewrite_server::request::percent_encode_into;

/// Number of client fault classes (indexes [`ClientFault::ALL`]).
pub const N_FAULTS: usize = 9;

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
    pub const ALL: [ClientFault; N_FAULTS] = [
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
    const PCTS: [u8; N_FAULTS] = [40, 8, 8, 10, 6, 7, 7, 7, 7];

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

    fn draw(roll: u8) -> ClientFault {
        let mut acc = 0u8;
        for (i, &p) in Self::PCTS.iter().enumerate() {
            acc += p;
            if roll < acc {
                return Self::ALL[i];
            }
        }
        ClientFault::Healthy
    }
}

/// The seeded chaos client. One instance drives one soak run; fault
/// counts accumulate in [`ChaosClient::injected`].
pub struct ChaosClient {
    addr: SocketAddr,
    seed: u64,
    /// The server's parse limits — oversize faults are sized just past
    /// them, so the boundary is exercised no matter how it is tuned.
    limits: HttpLimits,
    /// Per-class injection counts, [`ClientFault::ALL`] order.
    pub injected: [u64; N_FAULTS],
    req: Vec<u8>,
}

/// What one request attempt observed (a transcript token).
enum Outcome {
    Status(u16),
    /// Two pipelined responses (the `LyingLength` desync).
    Pair(u16, u16),
    /// Connection ended without a (parseable) response.
    Closed,
}

impl ChaosClient {
    pub fn new(addr: SocketAddr, seed: u64, limits: HttpLimits) -> ChaosClient {
        ChaosClient {
            addr,
            seed,
            limits,
            injected: [0; N_FAULTS],
            req: Vec::with_capacity(4096),
        }
    }

    /// Run one connection's deterministic request schedule (1–3 requests,
    /// cut short by any fault that closes the stream). Appends one
    /// transcript line per attempt; returns the number of attempts.
    pub fn run_connection(
        &mut self,
        conn: u64,
        queries: &[String],
        transcript: &mut String,
    ) -> u64 {
        let stream = match TcpStream::connect(self.addr) {
            Ok(s) => s,
            Err(_) => {
                let _ = writeln!(transcript, "c{conn} connect refused");
                return 0;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut reader = BufReader::new(stream.try_clone().expect("stream clone"));

        let n_reqs = 1 + mix_chain(self.seed, &[conn, 0x0c]) % 3;
        let mut attempts = 0u64;
        for req_no in 0..n_reqs {
            let fault =
                ClientFault::draw((mix_chain(self.seed, &[conn, req_no, 0xfa]) % 100) as u8);
            self.injected[fault.index()] += 1;
            attempts += 1;
            let query = &queries
                [(mix_chain(self.seed, &[conn, req_no, 0x9e]) % queries.len() as u64) as usize];
            let use_post = mix_chain(self.seed, &[conn, req_no, 0x6e]) & 1 == 1;

            let (outcome, closes) = self.attempt(&stream, &mut reader, fault, query, use_post);
            let _ = write!(transcript, "c{conn} r{req_no} {} ", fault.name());
            match outcome {
                Outcome::Status(s) => {
                    let _ = writeln!(transcript, "{s}");
                }
                Outcome::Pair(a, b) => {
                    let _ = writeln!(transcript, "{a}+{b}");
                }
                Outcome::Closed => {
                    let _ = writeln!(transcript, "closed");
                }
            }
            if closes {
                break;
            }
        }
        attempts
    }

    /// Execute one fault against the live connection. Returns the
    /// observed outcome and whether the connection is now unusable.
    fn attempt(
        &mut self,
        stream: &TcpStream,
        reader: &mut BufReader<TcpStream>,
        fault: ClientFault,
        query: &str,
        use_post: bool,
    ) -> (Outcome, bool) {
        match fault {
            ClientFault::Healthy => {
                self.render_request(query, use_post);
                if write_all(stream, &self.req).is_err() {
                    return (Outcome::Closed, true);
                }
                finish_read(reader)
            }
            ClientFault::TrickleHeaders => {
                self.render_request(query, use_post);
                for chunk in self.req.chunks(7) {
                    if write_all(stream, chunk).is_err() {
                        return (Outcome::Closed, true);
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                finish_read(reader)
            }
            ClientFault::StraddleBody => {
                self.render_request(query, true);
                let split = self.req.len() - query.len() / 2;
                if write_all(stream, &self.req[..split]).is_err() {
                    return (Outcome::Closed, true);
                }
                std::thread::sleep(Duration::from_millis(2));
                if write_all(stream, &self.req[split..]).is_err() {
                    return (Outcome::Closed, true);
                }
                finish_read(reader)
            }
            ClientFault::PipelinedGarbage => {
                let _ = write_all(stream, b"~~ not http at all ~~\r\n\r\n");
                let (outcome, _) = finish_read(reader);
                (outcome, true)
            }
            ClientFault::HalfOpen => {
                // Close without a byte; the server's idle path absorbs it.
                (Outcome::Closed, true)
            }
            ClientFault::MidBodyAbort => {
                self.render_request(query, true);
                let cut = self.req.len() - query.len() / 2;
                let _ = write_all(stream, &self.req[..cut]);
                let _ = stream.shutdown(Shutdown::Write);
                // The server sees EOF mid-body: no response possible.
                let (outcome, _) = finish_read(reader);
                (outcome, true)
            }
            ClientFault::OversizeAnnounce => {
                self.req.clear();
                self.req.extend_from_slice(
                    b"POST /sparql HTTP/1.1\r\nHost: soak\r\nContent-Type: application/sparql-query\r\nContent-Length: ",
                );
                self.req
                    .extend_from_slice((self.limits.max_body_bytes + 1).to_string().as_bytes());
                self.req.extend_from_slice(b"\r\n\r\n");
                let _ = write_all(stream, &self.req);
                let (outcome, _) = finish_read(reader);
                (outcome, true)
            }
            ClientFault::LyingLength => {
                // Announce only the query, then append trailing garbage:
                // the server serves the query, reads the tail as a new
                // request line, and answers a structured 400.
                self.render_request(query, true);
                self.req.extend_from_slice(b"<<desync tail>>\r\n\r\n");
                if write_all(stream, &self.req).is_err() {
                    return (Outcome::Closed, true);
                }
                let first = match read_one(reader) {
                    Some(r) => r.status,
                    None => return (Outcome::Closed, true),
                };
                match read_one(reader) {
                    Some(r) => (Outcome::Pair(first, r.status), true),
                    None => (Outcome::Status(first), true),
                }
            }
            ClientFault::HugeHeaders => {
                self.req.clear();
                self.req
                    .extend_from_slice(b"GET /sparql?query=x HTTP/1.1\r\nHost: soak\r\nX-Pad: ");
                self.req
                    .resize(self.req.len() + self.limits.max_header_bytes + 2048, b'a');
                self.req.extend_from_slice(b"\r\n\r\n");
                let _ = write_all(stream, &self.req);
                let (outcome, _) = finish_read(reader);
                (outcome, true)
            }
        }
    }

    /// Render a well-formed keep-alive GET (percent-encoded query string)
    /// or POST (`application/sparql-query` body) into the scratch buffer.
    fn render_request(&mut self, query: &str, use_post: bool) {
        self.req.clear();
        if use_post {
            self.req.extend_from_slice(
                b"POST /sparql HTTP/1.1\r\nHost: soak\r\nContent-Type: application/sparql-query\r\nContent-Length: ",
            );
            self.req
                .extend_from_slice(query.len().to_string().as_bytes());
            self.req.extend_from_slice(b"\r\n\r\n");
            self.req.extend_from_slice(query.as_bytes());
        } else {
            self.req.extend_from_slice(b"GET /sparql?query=");
            percent_encode_into(query, &mut self.req);
            self.req
                .extend_from_slice(b" HTTP/1.1\r\nHost: soak\r\n\r\n");
        }
    }
}

fn write_all(mut s: &TcpStream, buf: &[u8]) -> io::Result<()> {
    s.write_all(buf)
}

/// Read one response and fold it into an outcome + close decision.
fn finish_read(reader: &mut BufReader<TcpStream>) -> (Outcome, bool) {
    match read_one(reader) {
        Some(resp) => (Outcome::Status(resp.status), resp.close),
        None => (Outcome::Closed, true),
    }
}

fn read_one(reader: &mut BufReader<TcpStream>) -> Option<HttpResponse> {
    read_response(reader, &HttpLimits::default()).ok()
}
