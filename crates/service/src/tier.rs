//! The tier kernel: what the server, the cluster router and the edge
//! share.
//!
//! Each tier implements [`Tier`] — its name, its request and error
//! counters, its trace ring, history recorder and event log, its own
//! metric families and its route table — and runs every request
//! through [`handle`], the one request middleware:
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
//! state; [`slo_health`] supplies the SLO part of its body.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use antruss_core::json;
use antruss_obs::slo::{self, Objective, SloReport, SloSources};
use antruss_obs::trace::{self, AssembledTrace};
use antruss_obs::{prof, Hop, Recorder, Registry, SlowTraces, TraceContext};

use crate::events::EventLog;
use crate::http::{Request, Response};
use crate::metrics::EndpointClass;
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
    /// The event log served at `GET /events`.
    fn events(&self) -> &EventLog;
    /// Whether the tier is shutting down (`/readyz` answers 503).
    fn draining(&self) -> bool;
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
        "/readyz" => readyz(tier.draining() || sigint_received()),
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
pub fn spawn_sampler<T>(tier: &Arc<T>, interval_ms: u64) -> Option<JoinHandle<()>>
where
    T: Tier + Send + Sync + 'static,
{
    if interval_ms == 0 {
        return None;
    }
    let tier = Arc::clone(tier);
    let name = format!("antruss-{}-sampler", T::NAME);
    let sampler = prof::spawn(&name, "sampler", move || {
        let interval = Duration::from_millis(interval_ms);
        let step = Duration::from_millis(interval_ms.min(25));
        let mut next = Instant::now() + interval;
        while !tier.draining() {
            thread::sleep(step);
            if Instant::now() >= next {
                record_history(&*tier, epoch_now());
                next = Instant::now() + interval;
            }
        }
    });
    Some(sampler.expect("spawn history sampler"))
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
