//! The tier kernel: what the server, the cluster router and the edge
//! share.
//!
//! Each tier implements [`Tier`] — its name, its request and error
//! counters, its phase histograms, its trace ring, history recorder and
//! event log, its own metric families and its route table — and runs
//! behind one [`Front`]: the accept loop, the worker pool running the
//! keep-alive connection loop, the history sampler and the one
//! stop/drain path. Every request goes through [`handle`], the one
//! request middleware:
//!
//! * adopt the caller's trace (`x-antruss-trace`/`-span`) or originate
//!   one;
//! * count the request, and the error when the status is 4xx/5xx;
//! * answer the ops routes every tier serves (`/readyz`, `/metrics`,
//!   `/metrics/history`, `/debug/traces`, `/debug/prof`,
//!   `GET /events`) and hand everything else to [`Tier::route`];
//! * build this tier's hop, append it to the downstream
//!   `x-antruss-hops`, and fold the downstream `x-antruss-cost` into its
//!   own spend;
//! * record the request's own cost under its [`EndpointClass`] label;
//! * keep the slowest timelines this tier originated, except for ops
//!   paths.
//!
//! `/healthz` stays with each tier, because each reports different
//! state; [`slo_health`] supplies the SLO part of its body. The
//! forwarding tiers rebuild upstream replies with [`relay`].

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use antruss_core::json;
use antruss_obs::slo::{self, Objective, SloReport, SloSources};
use antruss_obs::trace::{self, AssembledTrace};
use antruss_obs::{self as obs, prof, Hop, Recorder, Registry, SlowTraces, TraceContext};

use crate::client::ClientResponse;
use crate::events::EventLog;
use crate::http::{read_request_expecting, ReadError, Request, Response};
use crate::metrics::{EndpointClass, Phase, Phases};
use crate::server::{epoch_now, sigint_received};

/// How many worst-case traces each tier's `/debug/traces` ring keeps.
pub const SLOW_TRACE_CAP: usize = 16;

/// One serving tier, as the shared middleware and ops routes see it.
pub trait Tier {
    /// The tier's name on hop records and in `/debug/prof`.
    const NAME: &'static str;
    /// The `(requests, errors)` counters the middleware bumps.
    fn counters(&self) -> (&AtomicU64, &AtomicU64);
    /// The ring of the slowest timelines this tier originated.
    fn traces(&self) -> &SlowTraces;
    /// The metrics-history ring behind `/metrics/history` and the SLOs.
    fn recorder(&self) -> &Recorder;
    /// The tier's phase histograms; the connection loop records
    /// `queue_wait`, `accept_wait`, `parse` and `write` into them.
    fn phases(&self) -> &Phases;
    /// The event log served at `GET /events`.
    fn events(&self) -> &EventLog;
    /// Set once the tier starts stopping: `/readyz` answers 503, the
    /// acceptor, the sampler and the tier's own background threads
    /// exit, and keep-alive connections close after their current
    /// request.
    fn draining(&self) -> &AtomicBool;
    /// The configured objectives (empty: `/healthz` always says `ok`).
    fn objectives(&self) -> &[Objective];
    /// Which recorder series the objectives read.
    fn slo_sources(&self) -> SloSources;
    /// The tier's own metric families; [`registry`] adds the SLO and
    /// profiler families every tier exports.
    fn families(&self) -> Registry;
    /// Routes one request that is not an ops route.
    fn route(&self, req: &Request) -> Response;
    /// Records one request's latency in the tier's own histograms.
    fn observe(&self, req: &Request, elapsed: Duration);
    /// Serves one request read off a connection; the server overrides
    /// it to count the request in flight.
    fn serve(&self, req: &Request) -> Response
    where
        Self: Sized,
    {
        handle(self, req)
    }
    /// Where a SIGINT drain writes its snapshots (`None`: stderr).
    fn drain_dir(&self) -> Option<&Path> {
        None
    }
    /// Runs once when the tier stops, after its threads are joined.
    fn on_stop(&self) {}
}

/// Paths whose traces never enter the slow ring: scrapes and polls
/// would crowd out the requests worth debugging.
fn untraced(path: &str) -> bool {
    matches!(
        path,
        "/healthz" | "/readyz" | "/events" | "/cluster/overview"
    ) || path.starts_with("/metrics")
        || path.starts_with("/debug/")
}

/// Serves one parsed request through the tier middleware (see the
/// module docs) and stamps the reply with `x-antruss-trace`, the hop
/// chain and the cumulative cost.
pub fn handle<T: Tier>(tier: &T, req: &Request) -> Response {
    let started = Instant::now();
    let cost = prof::begin_cost();
    let (ctx, originated) = TraceContext::from_headers(
        req.header(trace::TRACE_HEADER),
        req.header(trace::SPAN_HEADER),
    );
    trace::begin_request(ctx);
    let (requests, errors) = tier.counters();
    requests.fetch_add(1, Ordering::Relaxed);
    let mut resp = ops_route(tier, req).unwrap_or_else(|| tier.route(req));
    if resp.status >= 400 {
        errors.fetch_add(1, Ordering::Relaxed);
    }
    let elapsed = started.elapsed();
    tier.observe(req, elapsed);
    let (own_cpu_us, own_alloc_bytes) = cost.finish();
    prof::observe_request_cost(
        "endpoint",
        EndpointClass::of(&req.method, &req.path).label(),
        own_cpu_us,
        own_alloc_bytes,
    );
    let hop = Hop {
        tier: T::NAME.to_string(),
        span: ctx.span,
        parent: ctx.parent,
        us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        op: format!("{} {}", req.method, req.path),
        phases: trace::take_phases()
            .into_iter()
            .map(|(n, us)| (n.to_string(), us))
            .collect(),
        cpu_us: own_cpu_us,
        alloc_bytes: own_alloc_bytes,
        costs: trace::take_costs()
            .into_iter()
            .map(|(n, c, b)| (n.to_string(), c, b))
            .collect(),
    };
    // a relayed reply carries the downstream tiers' trace headers: pull
    // them out so this tier appends its hop to one combined chain, folds
    // their spend into its own, and stamps the trace id exactly once
    let downstream = take_header(&mut resp, trace::HOPS_HEADER).unwrap_or_default();
    take_header(&mut resp, trace::TRACE_HEADER);
    let (mut cpu_us, mut alloc_bytes) = (own_cpu_us, own_alloc_bytes);
    if let Some((dc, db)) =
        take_header(&mut resp, prof::COST_HEADER).and_then(|v| prof::parse_cost(&v))
    {
        cpu_us += dc;
        alloc_bytes += db;
    }
    if originated && !untraced(&req.path) {
        tier.traces()
            .record(AssembledTrace::assemble(&ctx, hop.clone(), &downstream));
    }
    resp.with_header(trace::TRACE_HEADER, &ctx.trace_hex())
        .with_header(
            trace::HOPS_HEADER,
            &trace::append_hop(Some(&downstream), &hop),
        )
        .with_header(prof::COST_HEADER, &prof::format_cost(cpu_us, alloc_bytes))
}

/// Removes the first `name` header from `resp`, returning its value.
fn take_header(resp: &mut Response, name: &str) -> Option<String> {
    let i = resp.extra_headers.iter().position(|(n, _)| n == name)?;
    Some(resp.extra_headers.remove(i).1)
}

/// The ops routes every tier serves identically; `None` for any other
/// request.
fn ops_route<T: Tier>(tier: &T, req: &Request) -> Option<Response> {
    if req.method != "GET" {
        return None;
    }
    Some(match req.path.as_str() {
        "/readyz" => readyz(tier.draining().load(Ordering::SeqCst) || sigint_received()),
        "/metrics" => Response::text(200, registry(tier).render()),
        "/metrics/history" => metrics_history(tier.recorder(), req),
        "/debug/traces" => Response::json(200, tier.traces().to_json()),
        "/debug/prof" => Response::json(200, prof::debug_json(T::NAME)),
        "/events" => events_feed(tier.events(), req),
        _ => return None,
    })
}

/// `GET /readyz` — readiness, as opposed to `/healthz` liveness: 503
/// while draining so load balancers and routers rotate traffic away
/// *before* the listener goes down, 200 otherwise.
fn readyz(draining: bool) -> Response {
    if draining {
        Response::json(503, "{\"status\":\"draining\"}".to_string())
    } else {
        Response::json(200, "{\"status\":\"ready\"}".to_string())
    }
}

/// `GET /metrics/history?series=<name>&since=<ts>`.
fn metrics_history(recorder: &Recorder, req: &Request) -> Response {
    let since = match req.query_param("since") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t.is_finite() => Some(t),
            _ => return Response::error(400, "\"since\" must be a finite timestamp"),
        },
    };
    Response::json(200, recorder.render_json(req.query_param("series"), since))
}

/// `GET /events?since=S[&epoch=E][&wait=MS]` — the tier's event stream
/// (a backend's catalog events, a router's cluster writes, an edge's
/// mirror of its upstream). `since` is the subscriber's cursor (the
/// last seq it has applied; 0 on first contact), `epoch` its idea of
/// the log identity (omit or 0 on first contact), `wait` an optional
/// long-poll budget in milliseconds (capped at
/// [`crate::events::MAX_WAIT_MS`]). The response is an
/// [`crate::events::EventBatch`]: `reset: true` means the cursor was
/// unserveable and the subscriber must drop derived state and restart
/// from `head`. One contract on every tier is what lets edges chain.
fn events_feed(log: &EventLog, req: &Request) -> Response {
    let mut params = [0u64; 3];
    for (slot, name) in params.iter_mut().zip(["since", "epoch", "wait"]) {
        if let Some(v) = req.query_param(name) {
            match v.parse::<u64>() {
                Ok(n) => *slot = n,
                Err(_) => {
                    return Response::error(
                        400,
                        &format!("\"{name}\" must be a non-negative integer"),
                    )
                }
            }
        }
    }
    let [since, epoch, wait] = params;
    let batch = if wait == 0 {
        log.since(since, Some(epoch))
    } else {
        log.wait_since(since, Some(epoch), Duration::from_millis(wait))
    };
    Response::json(200, batch.render())
}

/// The full registry a `/metrics` scrape renders and the history
/// sampler records: the tier's families, the `antruss_slo_*` gauges
/// when objectives are configured, and the `antruss_prof_*` families.
pub fn registry<T: Tier>(tier: &T) -> Registry {
    let mut reg = tier.families();
    if !tier.objectives().is_empty() {
        slo_report(tier).register(&mut reg);
    }
    prof::register_metrics(&mut reg);
    reg
}

/// Evaluates the tier's objectives over its history ring, anchored at
/// the last recorded sample (so synthetic-time tests and the live
/// sampler agree on "now"). Empty — always `ok` — without objectives.
pub fn slo_report<T: Tier>(tier: &T) -> SloReport {
    let recorder = tier.recorder();
    let now = recorder.last_ts().unwrap_or_else(epoch_now);
    slo::evaluate(tier.objectives(), recorder, &tier.slo_sources(), now)
}

/// Samples the tier's registry into its history ring at unix second
/// `ts` (the sampler thread passes the wall clock; tests pass
/// synthetic trajectories).
pub fn record_history<T: Tier>(tier: &T, ts: f64) {
    tier.recorder().record(ts, &registry(tier));
}

/// Starts the tier's history sampler (none when `interval_ms` is 0):
/// every `interval_ms` it records [`registry`] at the wall clock, in
/// short sleeps so that draining stops it promptly.
fn spawn_sampler<T>(tier: &Arc<T>, interval_ms: u64) -> std::io::Result<Option<JoinHandle<()>>>
where
    T: Tier + Send + Sync + 'static,
{
    if interval_ms == 0 {
        return Ok(None);
    }
    let tier = Arc::clone(tier);
    let name = format!("antruss-{}-sampler", T::NAME);
    let sampler = prof::spawn(&name, "sampler", move || {
        let interval = Duration::from_millis(interval_ms);
        let step = Duration::from_millis(interval_ms.min(25));
        let mut next = Instant::now() + interval;
        while !tier.draining().load(Ordering::SeqCst) {
            thread::sleep(step);
            if Instant::now() >= next {
                record_history(&*tier, epoch_now());
                next = Instant::now() + interval;
            }
        }
    })?;
    Ok(Some(sampler))
}

/// The SLO part of a `/healthz` body: the `"status":…` member (plus
/// `"burning":…` while an objective burns) and, with objectives
/// configured, a `,"slo":{…}` member to close the body with. Without
/// objectives the status is always `ok`.
pub fn slo_health<T: Tier>(tier: &T) -> (String, String) {
    if tier.objectives().is_empty() {
        return ("\"status\":\"ok\"".to_string(), String::new());
    }
    let report = slo_report(tier);
    let mut status = format!("\"status\":{}", json::quoted(report.level().as_str()));
    if let Some(burning) = report.burning() {
        status.push_str(&format!(",\"burning\":{}", json::quoted(burning.name)));
    }
    (status, format!(",\"slo\":{}", report.to_json()))
}

/// Rebuilds a local reply from an upstream tier's response: its status,
/// its content type and every `x-antruss-*` header. [`handle`] folds the
/// relayed trace headers into this tier's own; a tier that stamps a
/// header of its own over a relayed one uses [`Response::set_header`].
pub fn relay(up: &ClientResponse) -> Response {
    let text_plain = up
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain"));
    let mut resp = if text_plain {
        Response::text(up.status, up.body.clone())
    } else {
        Response::json(up.status, up.body.clone())
    };
    for (name, value) in &up.headers {
        if name.starts_with("x-antruss-") {
            resp = resp.with_header(name, value);
        }
    }
    resp
}

/// Resolves a configured thread count (`0` = one per core, capped at 8).
pub fn resolve_threads(configured: usize) -> usize {
    match configured {
        0 => thread::available_parallelism()
            .map_or(4, |n| n.get())
            .min(8),
        n => n,
    }
}

/// A running tier: a non-blocking accept loop feeding a bounded
/// `crossbeam` channel drained by a fixed worker pool (backpressure
/// when every worker is busy), each worker running the keep-alive
/// connection loop; the history sampler; and any background threads
/// the tier adds with [`Front::keep`]. [`Front::stop`] runs at most
/// once, and dropping the front stops it.
pub struct Front<T: Tier + Send + Sync + 'static> {
    tier: Arc<T>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl<T: Tier + Send + Sync + 'static> Front<T> {
    /// Binds `addr` and starts `threads` workers (0 = one per core,
    /// capped at 8) that accept bodies up to `max_body` bytes, plus the
    /// history sampler every `sampler_ms` (0: none).
    pub fn start(
        tier: Arc<T>,
        addr: &str,
        threads: usize,
        max_body: usize,
        sampler_ms: u64,
    ) -> std::io::Result<Front<T>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = resolve_threads(threads);
        let name = format!("antruss-{}", T::NAME);

        let (tx, rx) = crossbeam::channel::bounded::<(TcpStream, Instant)>(workers * 4);
        let mut handles = Vec::with_capacity(workers + 2);
        for i in 0..workers {
            let rx = rx.clone();
            let tier = Arc::clone(&tier);
            handles.push(prof::spawn(
                &format!("{name}-worker-{i}"),
                "worker",
                move || {
                    while let Ok((stream, accepted)) = rx.recv() {
                        serve_connection(&*tier, stream, accepted, max_body);
                    }
                },
            )?);
        }
        drop(rx);

        let acceptor_tier = Arc::clone(&tier);
        handles.push(prof::spawn(
            &format!("{name}-acceptor"),
            "accept",
            move || {
                // `tx` lives in this thread; dropping it on exit is what
                // releases the workers from `recv`
                while !acceptor_tier.draining().load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let _ = stream.set_nonblocking(false);
                            if tx.send((stream, Instant::now())).is_err() {
                                break;
                            }
                        }
                        Err(_) => thread::sleep(Duration::from_millis(10)),
                    }
                }
            },
        )?);
        let mut front = Front {
            tier,
            addr,
            threads: handles,
            stopped: false,
        };
        // from here on a failure drops `front`, which stops what started
        front
            .threads
            .extend(spawn_sampler(&front.tier, sampler_ms)?);
        Ok(front)
    }

    /// Adds a background thread for [`Front::stop`] to join; it must
    /// exit once [`Tier::draining`] is set.
    pub fn keep(&mut self, thread: JoinHandle<()>) {
        self.threads.push(thread);
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tier's shared state.
    pub fn tier(&self) -> &Arc<T> {
        &self.tier
    }

    /// Stops accepting, lets the workers finish the request they are
    /// on, joins every thread and runs [`Tier::on_stop`]. On a SIGINT
    /// drain it then writes the final metrics, profile and slow-trace
    /// snapshots. Only the first call does anything.
    pub fn stop(&mut self) {
        if std::mem::replace(&mut self.stopped, true) {
            return;
        }
        self.tier.draining().store(true, Ordering::SeqCst);
        for thread in self.threads.drain(..) {
            if thread.join().is_err() {
                obs::warn!(T::NAME, "a {} thread panicked before the stop", T::NAME);
            }
        }
        self.tier.on_stop();
        if sigint_received() {
            drain_snapshot(&*self.tier);
        }
    }
}

impl<T: Tier + Send + Sync + 'static> Drop for Front<T> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Emits the final observability snapshot of a SIGINT drain: the full
/// metrics document, the profile and the slow-trace dump — into the
/// tier's [`Tier::drain_dir`] (`final_metrics.prom`, `final_prof.json`,
/// `slow_traces.json`) when it has one, to stderr otherwise, so the last
/// state of a stopping process is never lost with it.
fn drain_snapshot<T: Tier>(tier: &T) {
    let metrics = registry(tier).render();
    let profile = prof::debug_json(T::NAME);
    if let Some(dir) = tier.drain_dir() {
        if std::fs::write(dir.join("final_metrics.prom"), &metrics).is_ok()
            && std::fs::write(dir.join("slow_traces.json"), tier.traces().to_json()).is_ok()
            && std::fs::write(dir.join("final_prof.json"), &profile).is_ok()
        {
            obs::info!(
                T::NAME,
                "drain: wrote final_metrics.prom, slow_traces.json and final_prof.json to {}",
                dir.display()
            );
            return;
        }
    }
    eprintln!("--- final metrics snapshot ---\n{metrics}");
    eprintln!("--- final profile snapshot ---\n{profile}");
    if !tier.traces().is_empty() {
        eprintln!("--- slowest traces ---\n{}", tier.traces().render_text());
    }
}

/// Per-read inactivity timeout. Short enough that shutdown (polled
/// between reads) completes promptly; keep-alive connections survive any
/// number of idle periods.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Keep-alive connections idle longer than this are closed. A worker
/// serves one connection at a time, so without a deadline a handful of
/// idle-but-open clients (monitoring agents, browsers) would pin the
/// whole pool and starve new connections.
const IDLE_DEADLINE: Duration = Duration::from_secs(30);

/// Runs the HTTP/1.1 keep-alive loop on one accepted connection
/// (`accepted` is when the acceptor took it), serving every parsed
/// request through [`Tier::serve`]: read timeouts, the idle deadline,
/// `100 Continue`, and `Connection: close` once the tier drains. Records
/// `queue_wait` (first request only: keep-alive follow-ups were never
/// queued), `accept_wait` (the idle read-timeout ticks before each
/// request), `parse` and `write`, and counts each 413/400 protocol
/// failure as a request and an error.
fn serve_connection<T: Tier>(tier: &T, mut stream: TcpStream, accepted: Instant, max_body: usize) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    let phases = tier.phases();
    let mut queued = Some(accepted.elapsed());
    let mut carry = Vec::new();
    let max_idle_ticks = (IDLE_DEADLINE.as_millis() / READ_TIMEOUT.as_millis()).max(1) as u32;
    let mut idle_ticks = 0u32;
    let mut waited = Duration::ZERO;
    // the loop ends early on close, EOF or a transport error, and breaks
    // with the reply to a request-level protocol failure
    let failure = loop {
        // `100 Continue` interim responses go through a clone of the
        // stream: the read side is mid-request in `read_request_expecting`
        let mut writer = stream.try_clone().ok();
        let mut send_continue = || {
            if let Some(w) = writer.as_mut() {
                let _ = w.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
                let _ = w.flush();
            }
        };
        let read_started = Instant::now();
        match read_request_expecting(&mut stream, &mut carry, max_body, &mut send_continue) {
            Ok(req) => {
                idle_ticks = 0;
                if let Some(q) = queued.take() {
                    phases.observe(Phase::QueueWait, q);
                }
                phases.observe(Phase::AcceptWait, std::mem::take(&mut waited));
                phases.observe(Phase::Parse, read_started.elapsed());
                let resp = tier.serve(&req);
                let close = req.wants_close() || tier.draining().load(Ordering::SeqCst);
                let write_started = Instant::now();
                let written = resp.write_to(&mut stream, close);
                phases.observe(Phase::Write, write_started.elapsed());
                if written.is_err() || close {
                    return;
                }
            }
            Err(ReadError::Idle) => {
                idle_ticks += 1;
                waited += read_started.elapsed();
                if tier.draining().load(Ordering::SeqCst) || idle_ticks >= max_idle_ticks {
                    return;
                }
            }
            Err(ReadError::Eof | ReadError::Io(_)) => return,
            Err(ReadError::TooLarge { limit }) => {
                break Response::error(413, &format!("body exceeds {limit} bytes"))
            }
            Err(ReadError::Bad(msg)) => break Response::error(400, &msg),
        }
    };
    let (requests, errors) = tier.counters();
    requests.fetch_add(1, Ordering::Relaxed);
    errors.fetch_add(1, Ordering::Relaxed);
    let _ = failure.write_to(&mut stream, true);
}
