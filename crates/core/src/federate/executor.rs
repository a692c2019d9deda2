//! Concurrent federated execution with deadlines, retries, and breakers.
//!
//! [`FederatedExecutor::execute`] dispatches one [`EndpointPlan`] per
//! endpoint with **no thread spawned on the request path** (no async
//! runtime either). The executor starts `min(n_threads, n_endpoints) - 1`
//! helper threads — *dispatch lanes* — once, in
//! [`new`](FederatedExecutor::new), and joins them when it is dropped.
//! An execution publishes its plans as one batch on a mutex + condvar
//! queue and then works on that batch itself: the calling thread runs the
//! first endpoint, keeps claiming the rest off the batch's atomic cursor
//! alongside whichever lanes are free, and only when nothing is left to
//! claim waits for the endpoints a lane is still running. Progress
//! therefore never depends on a lane being free, up to
//! [`ExecutorConfig::n_threads`] subqueries of one execution are in
//! flight at once, and a one-endpoint plan (or `n_threads == 1`) never
//! touches another thread.
//!
//! A thread holds at most one endpoint's runtime lock at a time and never
//! takes the queue's or a batch's lock while it does, so callers and lanes
//! cannot deadlock however many executions overlap.
//!
//! Each endpoint call runs the full resilience ladder on a **virtual
//! clock** (see the module docs on [`super`]): the breaker is consulted,
//! then attempts alternate with seeded jittered backoff until the reply is
//! served, the deadline budget runs out, retries exhaust, or the breaker
//! trips mid-retry. The remaining budget is propagated into every
//! [`TransportRequest`] so well-behaved transports can give up early. The
//! virtual clock makes the deadline contract exact: an execution's
//! recorded elapsed time never exceeds [`ExecutorConfig::deadline_nanos`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use super::{
    mix_chain, BackoffPolicy, BreakerConfig, BreakerState, CircuitBreaker, EndpointOutcome,
    EndpointPlan, EndpointReport, EndpointTransport, FederatedResult, TransportError,
    TransportReply, TransportRequest,
};

/// Executor tuning knobs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ExecutorConfig {
    /// Most subqueries of one execution in flight at once: the calling
    /// thread plus `n_threads - 1` dispatch lanes (clamped to the number
    /// of endpoints, min 1).
    pub n_threads: usize,
    /// Overall per-endpoint deadline for one execution, in virtual
    /// nanoseconds; attempts and backoff must fit inside it.
    pub deadline_nanos: u64,
    /// Virtual time that passes on an endpoint between successive
    /// executions (request inter-arrival). This is what lets an *open*
    /// breaker's cooldown elapse — fast-failed calls consume no attempt
    /// time, but the stream of arrivals still moves the clock.
    pub inter_request_nanos: u64,
    pub backoff: BackoffPolicy,
    pub breaker: BreakerConfig,
    /// Seed for backoff jitter. Identical seeds (with an identical
    /// transport schedule) replay executions bit-identically.
    pub seed: u64,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            n_threads: 4,
            deadline_nanos: 200_000_000,
            inter_request_nanos: 5_000_000,
            backoff: BackoffPolicy::default(),
            breaker: BreakerConfig::default(),
            seed: 0x5eed,
        }
    }
}

/// Per-endpoint mutable state, persistent across executions so breakers
/// and fault history carry over a whole query stream.
struct EndpointRuntime {
    breaker: CircuitBreaker,
    /// The endpoint's virtual clock, in nanoseconds.
    clock: u64,
    /// Executions issued to this endpoint (indexes the jitter stream).
    calls: u64,
}

/// A lock whose holders leave the data valid at every step (the runtime,
/// batch and queue updates are each a handful of plain stores), so a panic
/// elsewhere in a holder must not condemn every later request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The plans of one execution that the caller shares with the lanes (all
/// but the first, which the caller runs itself).
struct Batch {
    plans: Vec<EndpointPlan>,
    /// Claim cursor: index of the next plan nobody has started.
    next: AtomicUsize,
    progress: Mutex<BatchProgress>,
    /// Signalled when `outstanding` reaches zero; only the caller waits.
    done: Condvar,
}

struct BatchProgress {
    /// One slot per plan, filled as its endpoint finishes.
    reports: Vec<Option<EndpointReport>>,
    /// Plans not yet finished (claimed or not).
    outstanding: usize,
}

impl Batch {
    fn new(plans: &[EndpointPlan]) -> Batch {
        Batch {
            plans: plans.to_vec(),
            next: AtomicUsize::new(0),
            progress: Mutex::new(BatchProgress {
                reports: vec![None; plans.len()],
                outstanding: plans.len(),
            }),
            done: Condvar::new(),
        }
    }

    /// Claim the next unstarted plan. `Relaxed` suffices: the cursor only
    /// hands out distinct indexes; plans reach a lane through the queue
    /// lock and reports reach the caller through the progress lock.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.plans.len()).then_some(i)
    }

    /// Run claimed plan `i` and book it as finished.
    fn run<T: EndpointTransport>(&self, i: usize, shared: &Shared<T>) {
        let mut finished = Finished {
            batch: self,
            slot: i,
            report: None,
        };
        finished.report = Some(shared.run_endpoint(&self.plans[i]));
    }

    /// Block until every plan has finished and take the reports, in plan
    /// order.
    fn wait(&self) -> Vec<EndpointReport> {
        let mut progress = lock(&self.progress);
        while progress.outstanding > 0 {
            progress = self
                .done
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut progress.reports)
            .into_iter()
            .map(|r| r.expect("a dispatch lane panicked outside the transport boundary"))
            .collect()
    }
}

/// Books a claimed plan as finished when dropped — with its report, or
/// with none if `run_endpoint` unwound (a bug outside the transport's
/// `catch_unwind`), so the waiting caller is released either way instead
/// of hanging on a lost lane.
struct Finished<'a> {
    batch: &'a Batch,
    slot: usize,
    report: Option<EndpointReport>,
}

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        let mut progress = lock(&self.batch.progress);
        progress.reports[self.slot] = self.report.take();
        progress.outstanding -= 1;
        if progress.outstanding == 0 {
            self.batch.done.notify_one();
        }
    }
}

/// Batches with unclaimed plans, oldest first.
struct LaneQueue {
    batches: VecDeque<Arc<Batch>>,
    /// Set once, by the executor's `Drop`.
    shutdown: bool,
}

/// Everything a dispatch needs, shared between the executor handle and its
/// lanes.
struct Shared<T> {
    transport: T,
    config: ExecutorConfig,
    runtimes: Vec<Mutex<EndpointRuntime>>,
    /// Transport panics contained at the dispatch boundary (see
    /// [`FederatedExecutor::caught_panics`]).
    panics: AtomicU64,
    queue: Mutex<LaneQueue>,
    /// Signalled when a batch is queued and at shutdown.
    work: Condvar,
}

/// Dispatches planned subqueries concurrently and degrades gracefully.
/// `&self`-only on the hot path: endpoint runtimes sit behind per-endpoint
/// locks, and distinct endpoints never contend.
pub struct FederatedExecutor<T> {
    shared: Arc<Shared<T>>,
    lanes: Vec<JoinHandle<()>>,
}

impl<T: EndpointTransport + 'static> FederatedExecutor<T> {
    /// `n_endpoints` must cover every [`EndpointId`](super::EndpointId)
    /// the planner can emit (ids are dense registration indexes). Starts
    /// the dispatch lanes; dropping the executor stops and joins them.
    pub fn new(transport: T, n_endpoints: usize, config: ExecutorConfig) -> FederatedExecutor<T> {
        let runtimes = (0..n_endpoints)
            .map(|_| {
                Mutex::new(EndpointRuntime {
                    breaker: CircuitBreaker::new(config.breaker),
                    clock: 0,
                    calls: 0,
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            transport,
            config,
            runtimes,
            panics: AtomicU64::new(0),
            queue: Mutex::new(LaneQueue {
                batches: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let lanes = (1..config.n_threads.min(n_endpoints))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("fed-lane-{i}"))
                    .spawn(move || shared.lane())
                    .expect("spawning a dispatch lane")
            })
            .collect();
        FederatedExecutor { shared, lanes }
    }

    pub fn transport(&self) -> &T {
        &self.shared.transport
    }

    pub fn config(&self) -> &ExecutorConfig {
        &self.shared.config
    }

    /// Transport panics caught at the dispatch boundary and degraded to
    /// structured outcomes instead of poisoning the endpoint's runtime
    /// lock. A real transport should never panic, so the chaos soak gates
    /// this at zero.
    pub fn caught_panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Current breaker state per endpoint — the soak gate's convergence
    /// signal.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.shared
            .runtimes
            .iter()
            .map(|rt| lock(rt).breaker.state())
            .collect()
    }

    /// Soonest half-open ETA across all *open* breakers, in virtual
    /// nanoseconds from each endpoint's own clock: how long until at least
    /// one tripped endpoint would admit a probe again. `None` when no
    /// breaker is open. This is what an HTTP front end converts into a
    /// `Retry-After` when a whole execution degrades to breaker fast-fails.
    pub fn soonest_half_open_nanos(&self) -> Option<u64> {
        self.shared
            .runtimes
            .iter()
            .filter_map(|rt| {
                let rt = lock(rt);
                rt.breaker.cooldown_remaining(rt.clock)
            })
            .min()
    }

    /// Execute every planned subquery, concurrently, and return one report
    /// per endpoint in plan order. Never panics on endpoint failure — every
    /// fault degrades to a structured [`EndpointOutcome`].
    pub fn execute(&self, plans: &[EndpointPlan]) -> FederatedResult {
        let shared = &*self.shared;
        let Some((first, rest)) = plans.split_first() else {
            return FederatedResult::default();
        };
        if rest.is_empty() || self.lanes.is_empty() {
            return FederatedResult {
                reports: plans.iter().map(|p| shared.run_endpoint(p)).collect(),
            };
        }
        let batch = Arc::new(Batch::new(rest));
        shared.publish(&batch, rest.len().min(self.lanes.len()));
        let mut reports = Vec::with_capacity(plans.len());
        reports.push(shared.run_endpoint(first));
        while let Some(i) = batch.claim() {
            batch.run(i, shared);
        }
        shared.retire(&batch);
        reports.extend(batch.wait());
        FederatedResult { reports }
    }
}

impl<T> Drop for FederatedExecutor<T> {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.work.notify_all();
        for lane in self.lanes.drain(..) {
            // A lane that died of a panic already surfaced it: the
            // execution it was serving panicked in `Batch::wait`.
            let _ = lane.join();
        }
    }
}

impl<T: EndpointTransport> Shared<T> {
    /// Queue `batch` and wake up to `lanes` idle lanes for it. A busy lane
    /// needs no wake-up: it looks at the queue again when it finishes.
    fn publish(&self, batch: &Arc<Batch>, lanes: usize) {
        lock(&self.queue).batches.push_back(Arc::clone(batch));
        for _ in 0..lanes {
            self.work.notify_one();
        }
    }

    /// Unqueue a batch whose plans are all claimed, unless a lane that saw
    /// it exhausted already has: the queue never outgrows the executions
    /// in progress.
    fn retire(&self, batch: &Arc<Batch>) {
        lock(&self.queue)
            .batches
            .retain(|queued| !Arc::ptr_eq(queued, batch));
    }

    /// A dispatch lane: run claimed plans until shutdown.
    fn lane(&self) {
        while let Some((batch, i)) = self.next_claim() {
            batch.run(i, self);
        }
    }

    /// Claim a plan off the oldest batch that has one, sleeping while the
    /// queue is empty; `None` at shutdown.
    fn next_claim(&self) -> Option<(Arc<Batch>, usize)> {
        let mut queue = lock(&self.queue);
        loop {
            while let Some(front) = queue.batches.front() {
                if let Some(i) = front.claim() {
                    return Some((Arc::clone(front), i));
                }
                queue.batches.pop_front();
            }
            if queue.shutdown {
                return None;
            }
            queue = self
                .work
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One endpoint's full resilience ladder. Holds the endpoint's runtime
    /// lock for the duration — calls to the *same* endpoint serialize,
    /// which is exactly what keeps its breaker window, virtual clock, and
    /// fault stream deterministic.
    fn run_endpoint(&self, plan: &EndpointPlan) -> EndpointReport {
        let e = plan.endpoint.0 as usize;
        let mut rt = lock(&self.runtimes[e]);
        rt.clock = rt.clock.saturating_add(self.config.inter_request_nanos);
        let call = rt.calls;
        rt.calls += 1;
        let start = rt.clock;
        let deadline = start.saturating_add(self.config.deadline_nanos);
        let mut attempts = 0u32;
        let mut rows = None;
        let outcome = if !rt.breaker.allow(start) {
            EndpointOutcome::CircuitOpen { attempts: 0 }
        } else {
            loop {
                let budget = deadline.saturating_sub(rt.clock);
                if budget == 0 {
                    // Never dispatched: if `allow` above claimed a
                    // half-open probe slot, release it or the endpoint
                    // wedges in fast-fail forever.
                    rt.breaker.abandon_probe();
                    break EndpointOutcome::TimedOut {
                        attempts,
                        elapsed_nanos: rt.clock - start,
                    };
                }
                attempts += 1;
                // The dispatch boundary: a panicking transport must not poison
                // this endpoint's runtime lock and condemn every later
                // request. Contain it and degrade to a transient failure,
                // which the normal retry/breaker ladder absorbs.
                let reply = catch_unwind(AssertUnwindSafe(|| {
                    self.transport.execute(&TransportRequest {
                        endpoint: plan.endpoint,
                        query: &plan.subquery,
                        attempt: attempts,
                        budget_nanos: budget,
                    })
                }))
                .unwrap_or_else(|_| {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    TransportReply {
                        latency_nanos: 0,
                        payload: Err(TransportError::Transient),
                    }
                });
                if reply.latency_nanos >= budget {
                    // The attempt stalled past the deadline: the caller
                    // stops waiting at the deadline, not at the reply.
                    rt.clock = deadline;
                    rt.breaker.record(deadline, false);
                    break EndpointOutcome::TimedOut {
                        attempts,
                        elapsed_nanos: deadline - start,
                    };
                }
                rt.clock += reply.latency_nanos;
                let now = rt.clock;
                match reply.payload {
                    Ok(r) => {
                        rt.breaker.record(now, true);
                        rows = Some(r);
                        break EndpointOutcome::Served {
                            attempts,
                            latency_nanos: rt.clock - start,
                        };
                    }
                    Err(err) => {
                        rt.breaker.record(now, false);
                        let permanent = err.is_permanent();
                        if permanent || attempts > self.config.backoff.max_retries {
                            break EndpointOutcome::ExhaustedRetries {
                                attempts,
                                permanent,
                            };
                        }
                        let draw = mix_chain(self.config.seed, &[e as u64, call, attempts as u64]);
                        let delay = self.config.backoff.delay_nanos(attempts, draw);
                        if delay >= deadline.saturating_sub(rt.clock) {
                            rt.clock = deadline;
                            break EndpointOutcome::TimedOut {
                                attempts,
                                elapsed_nanos: deadline - start,
                            };
                        }
                        rt.clock += delay;
                        let resumed = rt.clock;
                        // The breaker may have tripped on this very
                        // failure: stop burning budget on a known-bad peer.
                        if !rt.breaker.allow(resumed) {
                            break EndpointOutcome::CircuitOpen { attempts };
                        }
                    }
                }
            }
        };
        EndpointReport {
            endpoint: plan.endpoint,
            outcome,
            rows,
            breaker: rt.breaker.state(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::EndpointId;
    use super::*;
    use crate::term::Term;

    fn plan_for(e: u32) -> EndpointPlan {
        EndpointPlan {
            endpoint: EndpointId(e),
            endpoint_term: Term::iri(crate::term::Symbol(e)),
            subquery: format!("SELECT * WHERE {{ ?s <http://ep{e}/p> ?o . }}"),
            selectivity: 1,
            n_patterns: 1,
        }
    }

    #[test]
    fn panicking_transport_degrades_without_poisoning_the_endpoint() {
        use std::sync::atomic::AtomicU64;

        /// Panics on the first `panic_for` calls, healthy afterwards.
        struct PanickingTransport {
            panic_for: u64,
            calls: AtomicU64,
        }
        impl EndpointTransport for PanickingTransport {
            fn execute(&self, req: &TransportRequest<'_>) -> TransportReply {
                if self.calls.fetch_add(1, Ordering::Relaxed) < self.panic_for {
                    panic!("transport bug");
                }
                TransportReply {
                    latency_nanos: 1_000_000,
                    payload: Ok(format!("rows for {}", req.query.len())),
                }
            }
        }

        let cfg = ExecutorConfig::default();
        // Enough panics to exhaust the first execution's retries entirely.
        let ex = FederatedExecutor::new(
            PanickingTransport {
                panic_for: (cfg.backoff.max_retries + 1) as u64,
                calls: AtomicU64::new(0),
            },
            1,
            cfg,
        );
        let result = ex.execute(&[plan_for(0)]);
        assert_eq!(
            result.reports[0].outcome,
            EndpointOutcome::ExhaustedRetries {
                attempts: cfg.backoff.max_retries + 1,
                permanent: false,
            },
            "panics must degrade to a structured transient outcome"
        );
        assert_eq!(ex.caught_panics(), (cfg.backoff.max_retries + 1) as u64);
        // The endpoint's mutex survived: the next execution over the
        // now-healthy transport serves normally.
        let result = ex.execute(&[plan_for(0)]);
        assert!(
            result.reports[0].outcome.is_served(),
            "endpoint unusable after contained panics: {:?}",
            result.reports[0].outcome
        );
    }

    #[test]
    fn a_lane_lost_to_a_panic_fails_its_execution_instead_of_hanging_it() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        use std::time::Duration;

        /// Endpoint 0 answers only once endpoint 1 has been asked, so the
        /// caller (which always runs the first plan) stays busy until a
        /// lane has worked through the plans in between.
        struct Gated {
            asked: Mutex<Sender<()>>,
            gate: Mutex<Receiver<()>>,
        }
        impl EndpointTransport for Gated {
            fn execute(&self, req: &TransportRequest<'_>) -> TransportReply {
                match req.endpoint.0 {
                    0 => lock(&self.gate)
                        .recv_timeout(Duration::from_secs(10))
                        .expect("endpoint 1 was never dispatched"),
                    _ => lock(&self.asked).send(()).expect("gate receiver is alive"),
                }
                TransportReply {
                    latency_nanos: 1_000,
                    payload: Ok(String::new()),
                }
            }
        }

        let (asked, gate) = channel();
        let ex = FederatedExecutor::new(
            Gated {
                asked: Mutex::new(asked),
                gate: Mutex::new(gate),
            },
            3,
            ExecutorConfig {
                n_threads: 3,
                ..ExecutorConfig::default()
            },
        );
        // Endpoint 7 does not exist: indexing its runtime panics before the
        // ladder's `catch_unwind`. It is claimed before `plan_for(1)`, and
        // the caller is gated on that one — so a lane takes the panic.
        let plans = [plan_for(0), plan_for(7), plan_for(1)];
        let outcome = catch_unwind(AssertUnwindSafe(|| ex.execute(&plans)));
        assert!(outcome.is_err(), "a lost report must not pass for a result");
        assert_eq!(ex.caught_panics(), 0, "not a transport panic");
        // The surviving lane and the caller still serve, and drop joins
        // the dead lane without hanging.
        let result = ex.execute(&[plan_for(0), plan_for(1)]);
        assert!(result.is_complete());
    }
}
