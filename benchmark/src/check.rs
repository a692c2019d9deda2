//! Correctness, in the same command as the timing: hand-written cases on
//! the workload's own path, then one pass over every distinct request
//! that records the expected response and checks the invariants.

use std::sync::Arc;

use sparql_rewrite_core::{
    parse_query, AlignmentStore, CacheConfig, ExecutorConfig, FederationPlanner, HttpConfig,
    Interner, RewriteLimits, ServeEngine, Term,
};
use sparql_rewrite_server::{EndpointRoute, FederationConfig, Server, ServerConfig};

use crate::client::{get_request, post_request, HttpClient};
use crate::json::Json;
use crate::load::load_rules;
use crate::stats::Fnv;
use crate::stub::Stub;
use crate::workload::{Inputs, Kind, Path};

struct Case {
    name: String,
    query: String,
    expect: String,
    /// Subquery the mediator must send the (single) member endpoint.
    fed: Option<String>,
}

/// `expected/cases.txt`: `rule:` lines (generator rule format with ` ;; `
/// for the tabs), then `case:` / `query:` / `expect:` / optional `fed:`,
/// one line each, a line break in an expected text written `\n`.
fn parse_cases(text: &str) -> Result<(String, Vec<Case>), String> {
    let mut rules = String::new();
    let mut cases: Vec<Case> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("cases.txt line {}: no key", n + 1))?;
        let value = value.trim();
        let last = cases.last_mut();
        match (key, last) {
            ("rule", _) => {
                rules.push_str(&value.replace(" ;; ", "\t"));
                rules.push('\n');
            }
            ("case", _) => cases.push(Case {
                name: value.to_string(),
                query: String::new(),
                expect: String::new(),
                fed: None,
            }),
            ("query", Some(c)) => c.query = value.to_string(),
            ("expect", Some(c)) => c.expect = value.replace("\\n", "\n"),
            ("fed", Some(c)) => c.fed = Some(value.replace("\\n", "\n")),
            _ => return Err(format!("cases.txt line {}: unexpected {key:?}", n + 1)),
        }
    }
    Ok((rules, cases))
}

fn expect_eq(case: &Case, path: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let one_line = |s: &str| s.replace('\n', "\\n");
    Err(format!(
        "case {:?} on {path}:\n  query:    {}\n  expected: {}\n  got:      {}",
        case.name,
        case.query,
        one_line(want),
        one_line(got)
    ))
}

/// Push every hand-written case through the path `kind` measures. Returns
/// how many comparisons were made.
pub fn check_cases(text: &str, kind: Kind) -> Result<usize, String> {
    let (rules, cases) = parse_cases(text)?;
    let mut interner = Interner::new();
    let mut store = AlignmentStore::new();
    load_rules(&rules, &mut interner, &mut store)?;
    let mut checked = 0;
    match kind {
        Kind::Lib => {
            let engine = ServeEngine::with_cache(store, interner, Some(CacheConfig::default()));
            let mut scratch = engine.scratch();
            for case in &cases {
                for path in ["in-process (cold)", "in-process (cached)"] {
                    let got = engine
                        .serve(&case.query, &mut scratch)
                        .map_err(|e| format!("case {:?}: {e}", case.name))?;
                    expect_eq(case, path, got, &case.expect)?;
                    checked += 1;
                }
            }
        }
        Kind::Http => {
            let engine = ServeEngine::with_cache(store, interner, Some(CacheConfig::default()));
            let server = Server::spawn(Arc::new(engine), ServerConfig::default(), "127.0.0.1:0")
                .map_err(|e| e.to_string())?;
            let outcome: Result<(), String> = (|| {
                let mut client =
                    HttpClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
                for case in &cases {
                    for (path, request) in [
                        ("HTTP GET", get_request(&case.query)),
                        ("HTTP POST", post_request(&case.query)),
                    ] {
                        let reply = client.roundtrip(&request).map_err(|e| e.to_string())?;
                        if reply.status != 200 {
                            return Err(format!(
                                "case {:?} on {path}: status {}",
                                case.name, reply.status
                            ));
                        }
                        let got = String::from_utf8_lossy(client.body(&reply)).into_owned();
                        expect_eq(case, path, &got, &case.expect)?;
                        checked += 1;
                    }
                }
                Ok(())
            })();
            server.shutdown();
            outcome?;
        }
        Kind::Fed => {
            // One member, answering with the subquery it was sent.
            let stub = Stub::spawn(true).map_err(|e| e.to_string())?;
            let iri = "http://member.example.org/sparql";
            let term = Term::iri(interner.intern(iri));
            store.build_dense_index(interner.symbol_bound());
            let mut planner = FederationPlanner::new();
            planner.add_endpoint(term, Arc::new(store));
            planner.enable_partition_cache(CacheConfig::default());
            let fed = FederationConfig {
                planner,
                interner,
                routes: vec![EndpointRoute {
                    iri: iri.to_string(),
                    authority: stub.authority.clone(),
                    path: "/sparql".to_string(),
                }],
                executor: ExecutorConfig::default(),
                http: HttpConfig::default(),
                limits: RewriteLimits::default(),
                record_outcomes: false,
            };
            let server = Server::spawn_federated(fed, ServerConfig::default(), "127.0.0.1:0")
                .map_err(|e| e.to_string())?;
            let outcome: Result<(), String> = (|| {
                let mut client =
                    HttpClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
                for case in &cases {
                    let Some(want) = &case.fed else { continue };
                    let reply = client
                        .roundtrip(&post_request(&case.query))
                        .map_err(|e| e.to_string())?;
                    let body = String::from_utf8_lossy(client.body(&reply)).into_owned();
                    let envelope = Json::parse(&body)?;
                    check_envelope(&envelope)
                        .map_err(|e| format!("case {:?} on federated envelope: {e}", case.name))?;
                    let rows = envelope
                        .get("endpoints")
                        .map_or(&[][..], Json::arr)
                        .first()
                        .and_then(|ep| ep.get("rows"))
                        .and_then(Json::str)
                        .unwrap_or("");
                    expect_eq(case, "federated envelope", rows, want)?;
                    checked += 1;
                }
                Ok(())
            })();
            server.shutdown();
            stub.shutdown();
            outcome?;
        }
    }
    Ok(checked)
}

/// A federated `200` must be complete: `"partial":false`, every member
/// `served`.
fn check_envelope(envelope: &Json) -> Result<(), String> {
    if envelope.get("partial") != Some(&Json::Bool(false)) {
        return Err("envelope is partial".into());
    }
    for ep in envelope.get("endpoints").map_or(&[][..], Json::arr) {
        if ep.get("outcome").and_then(Json::str) != Some("served") {
            return Err("an endpoint was not served".into());
        }
    }
    Ok(())
}

pub struct Verified {
    /// Body length every later response to `queries[i]` must have.
    pub expected_len: Vec<u32>,
    /// Bytes that response takes on the wire (0 in process).
    pub wire_len: Vec<u32>,
    /// FNV-1a over every distinct request's response, in order.
    pub digest: u64,
    /// Responses that were re-parsed (0 unless `reparse`).
    pub reparsed: usize,
}

/// Send every distinct request twice (first/repeat; GET/POST on the socket
/// paths; cold/cached in process) and require: a response each time, the
/// repeat byte-equal to the first, every spelling of one logical query
/// byte-equal, and — with `reparse` — each response well-formed (SPARQL
/// that `parse_query` accepts, or a complete federated envelope).
pub fn verify<P: Path>(
    path: &mut P,
    inputs: &Inputs,
    kind: Kind,
    reparse: bool,
) -> Result<Verified, String> {
    let mut fnv = Fnv::new();
    let mut expected_len = Vec::with_capacity(inputs.queries.len());
    let mut wire_len = Vec::with_capacity(inputs.queries.len());
    let mut reparsed = 0;
    let mut interner = Interner::new();
    let mut first = Vec::new();
    let mut prev: Option<(u32, Vec<u8>)> = None;
    for idx in 0..inputs.queries.len() {
        for pos in 0..2 {
            let body = path
                .request(pos, idx)
                .ok_or_else(|| format!("request {idx} failed during verification"))?;
            if pos == 0 {
                first.clear();
                first.extend_from_slice(body);
            } else if body != first.as_slice() {
                return Err(format!("request {idx}: repeat differs from first response"));
            }
        }
        let logical = inputs.logical[idx];
        match &prev {
            Some((l, body)) if *l == logical => {
                if body != &first {
                    return Err(format!(
                        "request {idx}: spellings of one query rewrite differently"
                    ));
                }
            }
            _ => prev = Some((logical, first.clone())),
        }
        if reparse {
            let text = std::str::from_utf8(&first).map_err(|e| format!("request {idx}: {e}"))?;
            if kind == Kind::Fed {
                check_envelope(&Json::parse(text)?).map_err(|e| format!("request {idx}: {e}"))?;
            } else {
                parse_query(text, &mut interner)
                    .map_err(|e| format!("request {idx}: response does not re-parse: {e}"))?;
            }
            reparsed += 1;
        }
        fnv.feed(&first);
        fnv.feed(&[0xff]);
        expected_len.push(first.len() as u32);
        wire_len.push(path.last_wire_len() as u32);
    }
    Ok(Verified {
        expected_len,
        wire_len,
        digest: fnv.0,
        reparsed,
    })
}
