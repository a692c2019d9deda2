//! Federated serving, the mediator side of the federation: each worker
//! parses the query, the planner splits it into one subquery per member
//! endpoint, the executor dispatches them over HTTP (the wrappers), and
//! the per-endpoint outcomes map onto one response — the JSON envelope,
//! `X-Endpoint-Status` and the outcome vocabulary both share.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use sparql_rewrite_core::{
    parse_query_into, EndpointId, EndpointOutcome, FederatedExecutor, FederatedResult,
    FederationPlanner, HttpEndpoint, HttpTransport, Interner, ParseScratch, RewriteLimits,
};

use crate::request::RequestError;
use crate::response::{render_response, render_with};
use crate::{FederationConfig, FederationConfigError, Shared, OUTCOME_CLASSES};

fn outcome_class(o: &EndpointOutcome) -> usize {
    match o {
        EndpointOutcome::Served { .. } => 0,
        EndpointOutcome::TimedOut { .. } => 1,
        EndpointOutcome::CircuitOpen { .. } => 2,
        EndpointOutcome::ExhaustedRetries { .. } => 3,
    }
}

fn outcome_attempts(o: &EndpointOutcome) -> u32 {
    match *o {
        EndpointOutcome::Served { attempts, .. }
        | EndpointOutcome::TimedOut { attempts, .. }
        | EndpointOutcome::CircuitOpen { attempts }
        | EndpointOutcome::ExhaustedRetries { attempts, .. } => attempts,
    }
}

/// Federated-mode serving state shared across workers.
pub(crate) struct FederationRuntime {
    planner: FederationPlanner,
    pub(crate) executor: FederatedExecutor<HttpTransport>,
    interner: Interner,
    limits: RewriteLimits,
    /// Per-endpoint outcome tallies, [`OUTCOME_CLASSES`] order.
    pub(crate) outcome_counts: [AtomicU64; 4],
    pub(crate) complete_responses: AtomicU64,
    pub(crate) partial_responses: AtomicU64,
    pub(crate) gateway_unavailable: AtomicU64,
    pub(crate) gateway_timeouts: AtomicU64,
    /// Endpoint executions that overshot `deadline + backoff.max_nanos`.
    pub(crate) deadline_breaches: AtomicU64,
    /// Request sequence for transcript lines.
    seq: AtomicU64,
    pub(crate) transcript: Option<Mutex<String>>,
}

/// Validate a [`FederationConfig`] against its planner and build the
/// shared runtime. Every malformation is a structured error, never a
/// panic.
pub(crate) fn build_federation(
    fed: FederationConfig,
) -> Result<FederationRuntime, FederationConfigError> {
    let n = fed.planner.n_endpoints();
    if n == 0 || fed.routes.is_empty() {
        return Err(FederationConfigError::NoEndpoints);
    }
    let mut slots: Vec<Option<HttpEndpoint>> = (0..n).map(|_| None).collect();
    for route in &fed.routes {
        let id = (0..n).find(|&e| {
            let term = fed.planner.endpoint_term(EndpointId(e as u32));
            fed.interner.resolve(term.symbol()) == route.iri
        });
        let Some(id) = id else {
            return Err(FederationConfigError::UnknownEndpointIri(route.iri.clone()));
        };
        if slots[id].is_some() {
            return Err(FederationConfigError::DuplicateEndpoint(route.iri.clone()));
        }
        slots[id] = Some(HttpEndpoint::new(
            route.authority.clone(),
            route.path.clone(),
        ));
    }
    let mut endpoints = Vec::with_capacity(n);
    for (e, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(ep) => endpoints.push(ep),
            None => {
                let term = fed.planner.endpoint_term(EndpointId(e as u32));
                return Err(FederationConfigError::MissingRoute(
                    fed.interner.resolve(term.symbol()).to_string(),
                ));
            }
        }
    }
    let transport = HttpTransport::new(endpoints, fed.http);
    let executor = FederatedExecutor::new(transport, n, fed.executor);
    Ok(FederationRuntime {
        planner: fed.planner,
        executor,
        interner: fed.interner,
        limits: fed.limits,
        outcome_counts: std::array::from_fn(|_| AtomicU64::new(0)),
        complete_responses: AtomicU64::new(0),
        partial_responses: AtomicU64::new(0),
        gateway_unavailable: AtomicU64::new(0),
        gateway_timeouts: AtomicU64::new(0),
        deadline_breaches: AtomicU64::new(0),
        seq: AtomicU64::new(0),
        transcript: fed.record_outcomes.then(|| Mutex::new(String::new())),
    })
}

/// Federated-mode per-worker buffers: a serve handle on the planner's
/// interner (parsing resolves to the planner's symbols without writing
/// them, and holds one request's terms), parse scratch, and
/// response-building buffers.
pub(crate) struct FedScratch {
    interner: Interner,
    parse: ParseScratch,
    body: String,
    status_header: String,
}

impl FedScratch {
    pub(crate) fn new(fed: &FederationRuntime) -> FedScratch {
        FedScratch {
            interner: fed.interner.clone(),
            parse: ParseScratch::new(),
            body: String::new(),
            status_header: String::new(),
        }
    }
}

/// Federated serve: parse → plan per endpoint → dispatch over HTTP → map
/// the per-endpoint outcomes onto one response.
///
/// * every endpoint served → `200`, envelope `"partial":false`
/// * some served → `200`, `"partial":true` + `X-Endpoint-Status` detail
/// * none served → `502` (`504` if any endpoint timed out) with
///   `Retry-After` from the soonest breaker half-open ETA
pub(crate) fn serve_federated(
    shared: &Shared,
    fed: &FederationRuntime,
    query: &str,
    fs: &mut FedScratch,
    resp: &mut Vec<u8>,
    close: bool,
) {
    let seq = fed.seq.fetch_add(1, Ordering::Relaxed);
    let planned = parse_query_into(query, &mut fs.interner, &mut fs.parse)
        .ok()
        .and_then(|()| {
            fed.planner
                .plan_for_dispatch(fs.parse.query_ref(), &fs.interner, fed.limits)
                .ok()
        });
    let Some(plan) = planned else {
        let e = RequestError::QueryUnparseable;
        shared.stats.count(e);
        if let Some(t) = &fed.transcript {
            let mut t = t.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writeln!(t, "r{seq} reject query_unparseable");
        }
        render_response(resp, 400, e.label().as_bytes(), "text/plain", close);
        return;
    };
    let result = fed.executor.execute(&plan.endpoints);

    let ceiling = {
        let c = fed.executor.config();
        c.deadline_nanos.saturating_add(c.backoff.max_nanos)
    };
    let mut any_timeout = false;
    for report in &result.reports {
        fed.outcome_counts[outcome_class(&report.outcome)].fetch_add(1, Ordering::Relaxed);
        let elapsed = match report.outcome {
            EndpointOutcome::Served { latency_nanos, .. } => latency_nanos,
            EndpointOutcome::TimedOut { elapsed_nanos, .. } => {
                any_timeout = true;
                elapsed_nanos
            }
            _ => 0,
        };
        if elapsed > ceiling {
            fed.deadline_breaches.fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Some(t) = &fed.transcript {
        let mut t = t.lock().unwrap_or_else(PoisonError::into_inner);
        for report in &result.reports {
            // Outcome classes, attempts, and row payloads only — never
            // wall-clock nanos — so two same-seed runs compare bytewise.
            let _ = writeln!(
                t,
                "r{seq} ep={} {} a={} rows={}",
                report.endpoint.0,
                OUTCOME_CLASSES[outcome_class(&report.outcome)],
                outcome_attempts(&report.outcome),
                report.rows.as_deref().unwrap_or("-"),
            );
        }
    }

    let n = result.reports.len();
    let served = result.served_count();
    render_envelope(
        fed,
        &result,
        plan.n_residual_patterns,
        served < n,
        &mut fs.body,
    );
    if served == n {
        fed.complete_responses.fetch_add(1, Ordering::Relaxed);
        shared.stats.served.fetch_add(1, Ordering::Relaxed);
        render_response(resp, 200, fs.body.as_bytes(), "application/json", close);
    } else {
        endpoint_status_header(&result, &mut fs.status_header);
        let extra = [("X-Endpoint-Status", fs.status_header.as_bytes())];
        let body = fs.body.as_bytes();
        if served > 0 {
            fed.partial_responses.fetch_add(1, Ordering::Relaxed);
            shared.stats.served.fetch_add(1, Ordering::Relaxed);
            render_with(resp, 200, body, "application/json", close, None, &extra);
        } else {
            let status = if any_timeout { 504 } else { 502 };
            let counter = if any_timeout {
                &fed.gateway_timeouts
            } else {
                &fed.gateway_unavailable
            };
            counter.fetch_add(1, Ordering::Relaxed);
            let retry = Some(shared.retry_after_secs());
            render_with(resp, status, body, "application/json", close, retry, &extra);
        }
    }
}

/// Hand-rolled JSON result envelope. Byte-deterministic for a fixed
/// outcome sequence: no latency or timestamp fields.
fn render_envelope(
    fed: &FederationRuntime,
    result: &FederatedResult,
    n_residual_patterns: usize,
    partial: bool,
    out: &mut String,
) {
    out.clear();
    let _ = write!(
        out,
        "{{\"partial\":{partial},\"residual_patterns\":{n_residual_patterns},\"endpoints\":["
    );
    for (i, report) in result.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let iri = fed
            .interner
            .resolve(fed.planner.endpoint_term(report.endpoint).symbol());
        let _ = write!(out, "{{\"id\":{},\"iri\":\"", report.endpoint.0);
        push_json_escaped(out, iri);
        let _ = write!(
            out,
            "\",\"outcome\":\"{}\",\"attempts\":{}",
            OUTCOME_CLASSES[outcome_class(&report.outcome)],
            outcome_attempts(&report.outcome),
        );
        if let Some(rows) = &report.rows {
            out.push_str(",\"rows\":\"");
            push_json_escaped(out, rows);
            out.push('"');
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// `X-Endpoint-Status` value: `ep0=served,ep1=timed-out,…` in plan order.
fn endpoint_status_header(result: &FederatedResult, out: &mut String) {
    out.clear();
    for (i, report) in result.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "ep{}={}",
            report.endpoint.0,
            OUTCOME_CLASSES[outcome_class(&report.outcome)]
        );
    }
}

/// Minimal JSON string escape: quote, backslash, and control bytes.
fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}
