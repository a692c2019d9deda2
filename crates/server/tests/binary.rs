//! The shipped `server` binary end to end: start it on an ephemeral port,
//! read the address it prints, rewrite the built-in demo's 1:2 `member`
//! split over a real socket, then close stdin and require a clean drain
//! and the shutdown report. On Linux it also requires the listening binary
//! to be under 8 MiB resident: its rewrite cache commits memory as entries
//! land, not at startup.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use sparql_rewrite_server::request::percent_encode_into;

/// Wait for `child` to exit, killing it after `limit`.
fn wait_bounded(child: &mut Child, limit: Duration) -> ExitStatus {
    let t0 = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll server binary") {
            return status;
        }
        if t0.elapsed() > limit {
            let _ = child.kill();
            panic!("server binary did not exit within {limit:?} of stdin EOF");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `VmRSS` of process `pid` in kB. The binary builds its engine's rewrite
/// cache (≈16 MiB of value pool at the default config) before it prints
/// the listening line; only pages that hold entries may be resident.
#[cfg(target_os = "linux")]
fn child_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmRSS line in kB")
}

#[test]
fn demo_binary_rewrites_over_http_and_drains_on_stdin_eof() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_server"))
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("start server binary");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening line");
    let Some(addr) = line
        .trim_end()
        .strip_prefix("listening on http://")
        .and_then(|rest| rest.strip_suffix("/sparql"))
    else {
        let _ = child.kill();
        panic!("first stdout line is not the listening line: {line:?}");
    };
    #[cfg(target_os = "linux")]
    {
        let rss = child_rss_kb(child.id());
        if rss >= 8 * 1024 {
            let _ = child.kill();
            panic!("the listening binary is {rss} kB resident, want under 8 MiB");
        }
    }

    let query = "SELECT * WHERE { ?s <http://src.example.org/onto/member> ?o }";
    let mut req = b"GET /sparql?query=".to_vec();
    percent_encode_into(query, &mut req);
    req.extend_from_slice(b" HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let mut stream = TcpStream::connect(addr).expect("connect to the binary");
    stream.write_all(&req).expect("request write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response read");
    let text = String::from_utf8(raw).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert_eq!(
        body,
        "SELECT * WHERE {\n  {\n    ?s <http://tgt.example.org/onto/memberOf> ?o .\n  }\n  \
         UNION\n  {\n    ?s <http://tgt.example.org/onto/affiliatedWith> ?o .\n  }\n}",
        "the demo's member split must rewrite to a 2-branch UNION"
    );

    drop(child.stdin.take()); // EOF: the binary drains and reports.
    let status = wait_bounded(&mut child, Duration::from_secs(10));
    let mut report = String::new();
    stdout.read_to_string(&mut report).expect("read report");
    assert!(status.success(), "exit status {status}, report:\n{report}");
    assert!(
        report
            .lines()
            .any(|l| l.starts_with("accepted 1 | served 1 |")),
        "no `served 1` report line:\n{report}"
    );
}
