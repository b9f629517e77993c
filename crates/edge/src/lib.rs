//! `antruss edge`: a read-replica edge tier in front of a serving
//! node (or cluster router, or another edge).
//!
//! The edge serves `/solve` from a warm local outcome cache, forwards
//! misses upstream, and subscribes to the upstream's `/events` feed on
//! a background thread so a mutation invalidates exactly the touched
//! graph's entries — no TTLs, no polling of graph state. When the
//! upstream becomes unreachable the edge keeps answering every read it
//! has cached (offline mode), flagging responses with `x-antruss-stale`
//! and reporting the staleness age in `/metrics`; when the upstream
//! returns, the subscriber resumes from its cursor, so no re-warm is
//! needed unless the upstream's history actually diverged.
//!
//! Edges daisy-chain: the mirror re-serves the upstream event sequence
//! verbatim on this edge's own `/events`, so `--upstream` can point at
//! another edge. Writes are refused with `421 Misdirected Request`
//! naming the upstream — the edge is structurally incapable of
//! mutating anything.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use antruss_core::json;
use antruss_obs::prof;
use antruss_obs::slo::{Objective, SloSources};
use antruss_obs::trace;
use antruss_obs::{Histogram, Recorder, Registry, SlowTraces};
use antruss_service::http::{encode_component, Request, Response};
use antruss_service::metrics::{Phase, Phases};
use antruss_service::server::subresource;
use antruss_service::tier::{self, relay, Front, Tier, SLOW_TRACE_CAP};
use antruss_service::{parse_solve, ClientResponse, EventLog, OutcomeCache, Pool};

mod sync;

pub use sync::parse_upstream;

/// Everything configurable about one edge.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Bind address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Upstream to forward misses to and subscribe to events from —
    /// a serving node, a cluster router, or another edge.
    pub upstream: String,
    /// Worker threads (0 = one per core, capped).
    pub threads: usize,
    /// Outcome-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Long-poll budget per `/events` request, milliseconds.
    pub poll_wait_ms: u64,
    /// Backoff between subscriber attempts when the upstream is
    /// unreachable, milliseconds.
    pub retry_ms: u64,
    /// Cadence of the metrics-history sampler, milliseconds (0 disables
    /// it — tests then drive [`EdgeState::record_history`] by hand with
    /// synthetic timestamps).
    pub metrics_interval_ms: u64,
    /// Service-level objectives evaluated over the history ring
    /// (empty = no SLO engine; `/healthz` keeps reporting `ok`).
    pub slos: Vec<Objective>,
}

impl Default for EdgeConfig {
    fn default() -> EdgeConfig {
        EdgeConfig {
            addr: "127.0.0.1:0".to_string(),
            upstream: "127.0.0.1:7171".to_string(),
            threads: 2,
            cache_capacity: 1024,
            max_body_bytes: 1024 * 1024,
            poll_wait_ms: 2_000,
            retry_ms: 200,
            metrics_interval_ms: 5000,
            slos: Vec::new(),
        }
    }
}

/// Edge-level counters (the cache keeps its own in
/// [`antruss_service::CacheStats`]).
#[derive(Default)]
pub struct EdgeMetrics {
    /// HTTP requests accepted (any endpoint, any status).
    pub requests: AtomicU64,
    /// Responses with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Requests forwarded upstream (any outcome with a response).
    pub forwarded: AtomicU64,
    /// Forward attempts that failed at the transport (upstream down).
    pub forward_failures: AtomicU64,
    /// Write requests refused with 421.
    pub writes_rejected: AtomicU64,
    /// Upstream events applied to the cache.
    pub events_applied: AtomicU64,
    /// Times the subscriber was reset (cursor unserveable upstream).
    pub event_resets: AtomicU64,
    /// Cache hits served while the upstream was unreachable.
    pub stale_serves: AtomicU64,
}

/// The phases the edge records, in exposition order: time queued
/// behind the worker pool, idle keep-alive wait, request parse, local
/// cache lookup, upstream forward, response write.
const EDGE_PHASES: [Phase; 6] = [
    Phase::QueueWait,
    Phase::AcceptWait,
    Phase::Parse,
    Phase::CacheLookup,
    Phase::Forward,
    Phase::Write,
];

/// Shared state behind every edge connection and the subscriber.
pub struct EdgeState {
    /// The configuration the edge was started with.
    pub config: EdgeConfig,
    /// Resolved upstream address.
    pub upstream: SocketAddr,
    upstream_display: String,
    /// The gated outcome cache, in the upstream's event epoch.
    pub cache: OutcomeCache,
    /// The mirror of the upstream event log this edge re-serves.
    pub mirror: EventLog,
    /// Edge counters.
    pub metrics: EdgeMetrics,
    upstream_up: AtomicBool,
    last_contact: Mutex<Instant>,
    last_upstream_head: AtomicU64,
    /// Last-known-good listing bodies (`/graphs`, `/solvers`) for
    /// offline fallback.
    listing: Mutex<HashMap<&'static str, Arc<String>>>,
    /// Keep-alive connections to the upstream.
    pool: Pool,
    /// End-to-end latency of every edge request.
    pub request_hist: Histogram,
    /// Per-phase latency (the [`EDGE_PHASES`] are exported).
    phases: Phases,
    /// The slowest request timelines this edge originated (usually the
    /// full edge→router→backend chain), served at `GET /debug/traces`
    /// and dumped on SIGINT drain.
    pub traces: SlowTraces,
    /// Bounded metrics-history ring behind `GET /metrics/history`,
    /// sampled from [`tier::registry`] every `metrics_interval_ms` and
    /// feeding the SLO burn-rate windows.
    pub recorder: Recorder,
    shutdown: AtomicBool,
    started: Instant,
}

impl EdgeState {
    /// Builds the state, resolving the upstream address.
    pub fn new(config: EdgeConfig) -> io::Result<Arc<EdgeState>> {
        let upstream = parse_upstream(&config.upstream)?;
        Ok(Arc::new(EdgeState {
            cache: OutcomeCache::new(config.cache_capacity),
            // epoch 0 = "no upstream adopted yet"; the subscriber's
            // first batch adopts the real identity
            mirror: EventLog::new(0),
            metrics: EdgeMetrics::default(),
            upstream_up: AtomicBool::new(false),
            last_contact: Mutex::new(Instant::now()),
            last_upstream_head: AtomicU64::new(0),
            listing: Mutex::new(HashMap::new()),
            pool: Pool::new(upstream),
            request_hist: Histogram::new(),
            phases: Phases::default(),
            traces: SlowTraces::new(SLOW_TRACE_CAP),
            recorder: Recorder::new(config.metrics_interval_ms as f64 / 1000.0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            upstream_display: config.upstream.clone(),
            upstream,
            config,
        }))
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Whether the upstream answered the most recent attempt.
    pub fn upstream_up(&self) -> bool {
        self.upstream_up.load(Ordering::SeqCst)
    }

    pub(crate) fn mark_contact(&self) {
        self.upstream_up.store(true, Ordering::SeqCst);
        *self.last_contact.lock().unwrap() = Instant::now();
    }

    pub(crate) fn mark_down(&self) {
        self.upstream_up.store(false, Ordering::SeqCst);
    }

    /// Seconds since the upstream last answered; 0 while it's up.
    pub fn staleness_seconds(&self) -> u64 {
        if self.upstream_up() {
            return 0;
        }
        self.last_contact.lock().unwrap().elapsed().as_secs()
    }

    /// Samples the edge's registry into the history ring at unix second
    /// `ts` (the sampler thread passes the wall clock; tests pass
    /// synthetic trajectories).
    pub fn record_history(&self, ts: f64) {
        tier::record_history(self, ts)
    }

    /// Forwards one request upstream over a pooled keep-alive
    /// connection, tracking upstream reachability. The current
    /// request's trace context (if any) rides along, so a miss
    /// forwarded through router to backend comes back with the full
    /// hop chain.
    fn forward(&self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<ClientResponse> {
        let headers = trace::current().map_or_else(Vec::new, |ctx| ctx.headers().to_vec());
        let started = Instant::now();
        let result = self.pool.send(method, path, body, &headers);
        let took = started.elapsed();
        self.phases.observe(Phase::Forward, took);
        trace::note_phase("forward", took);
        match result {
            Ok(resp) => {
                self.mark_contact();
                self.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
                Ok(resp)
            }
            Err(e) => {
                self.mark_down();
                self.metrics
                    .forward_failures
                    .fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

/// Reassembles the request target (path + query) for forwarding.
fn forward_target(req: &Request) -> String {
    let mut target: String = req
        .path
        .split('/')
        .map(encode_component)
        .collect::<Vec<_>>()
        .join("/");
    for (i, (k, v)) in req.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(&encode_component(k));
        target.push('=');
        target.push_str(&encode_component(v));
    }
    target
}

impl Tier for EdgeState {
    const NAME: &'static str = "edge";

    fn counters(&self) -> (&AtomicU64, &AtomicU64) {
        (&self.metrics.requests, &self.metrics.errors)
    }

    fn traces(&self) -> &SlowTraces {
        &self.traces
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The mirror of the upstream log — identical contract to the
    /// serving node's feed, which is what lets edges daisy-chain.
    fn events(&self) -> &EventLog {
        &self.mirror
    }

    fn phases(&self) -> &Phases {
        &self.phases
    }

    fn draining(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn objectives(&self) -> &[Objective] {
        &self.config.slos
    }

    /// The edge's own request and error counters, and the per-interval
    /// p99 the recorder derives from the request histogram.
    fn slo_sources(&self) -> SloSources {
        SloSources {
            requests: "antruss_edge_requests_total".to_string(),
            errors: "antruss_edge_http_errors_total".to_string(),
            p99: "antruss_edge_request_seconds{q=\"0.99\"}".to_string(),
        }
    }

    fn families(&self) -> Registry {
        families(self)
    }

    fn route(&self, req: &Request) -> Response {
        route(self, req)
    }

    fn observe(&self, _req: &Request, elapsed: Duration) {
        self.request_hist.observe(elapsed);
    }
}

/// Routes one parsed request through the tier middleware
/// ([`tier::handle`]). Public so in-process tests can drive an edge
/// without a socket. The edge is usually the outermost tier, so it is
/// usually the one assembling the full timeline into its slow-trace
/// ring.
pub fn handle(state: &EdgeState, req: &Request) -> Response {
    tier::handle(state, req)
}

fn route(state: &EdgeState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("POST", "/solve") => solve(state, req),
        ("GET", "/graphs") => listing(state, "/graphs"),
        ("GET", "/solvers") => listing(state, "/solvers"),
        ("GET", "/cache/dump") => passthrough_get(state, req),
        ("GET", p) if subresource(p, "/edges").is_some() => passthrough_get(state, req),
        ("POST", "/graphs" | "/cache/load" | "/cache/purge") => reject_write(state),
        ("POST", p) if subresource(p, "/mutate").is_some() => reject_write(state),
        ("DELETE", p) if p.strip_prefix("/graphs/").is_some_and(|n| !n.is_empty()) => {
            reject_write(state)
        }
        ("GET" | "POST" | "DELETE", _) => {
            Response::error(404, &format!("no route for {}", req.path))
        }
        _ => Response::error(405, &format!("method {} not allowed", req.method)),
    }
}

fn healthz(state: &EdgeState) -> Response {
    let (status, slo_json) = tier::slo_health(state);
    Response::json(
        200,
        format!(
            "{{{status},\"role\":\"edge\",\"upstream\":{{\"addr\":{},\"up\":{}}},\
             \"events\":{{\"epoch\":{},\"head\":{}}}{slo_json}}}",
            json::quoted(&state.upstream_display),
            state.upstream_up(),
            json::quoted(&state.mirror.epoch().to_string()),
            state.mirror.head()
        ),
    )
}

/// The edge's own metric families.
fn families(state: &EdgeState) -> Registry {
    let m = &state.metrics;
    let c = state.cache.stats();
    let head = state.mirror.head();
    let upstream_head = state.last_upstream_head.load(Ordering::Relaxed);
    let mut reg = Registry::new();
    reg.gauge(
        "antruss_edge_uptime_seconds",
        state.started.elapsed().as_secs() as f64,
    );
    reg.counter(
        "antruss_edge_requests_total",
        m.requests.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_edge_http_errors_total",
        m.errors.load(Ordering::Relaxed),
    );
    reg.counter("antruss_edge_cache_hits_total", c.hits);
    reg.counter("antruss_edge_cache_misses_total", c.misses);
    reg.counter("antruss_edge_cache_evictions_total", c.evictions);
    reg.counter("antruss_edge_cache_refused_inserts_total", c.stale_refused);
    reg.counter("antruss_edge_cache_invalidated_entries_total", c.purged);
    reg.gauge("antruss_edge_cache_entries", c.entries as f64);
    reg.gauge("antruss_edge_cache_capacity", c.capacity as f64);
    reg.gauge("antruss_edge_cache_resident_bytes", c.resident_bytes as f64);
    reg.counter(
        "antruss_edge_forwarded_total",
        m.forwarded.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_edge_forward_failures_total",
        m.forward_failures.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_edge_writes_rejected_total",
        m.writes_rejected.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_edge_events_applied_total",
        m.events_applied.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_edge_event_resets_total",
        m.event_resets.load(Ordering::Relaxed),
    );
    reg.gauge_u64("antruss_edge_events_epoch", state.mirror.epoch());
    reg.gauge_u64("antruss_edge_events_head_seq", head);
    reg.gauge_u64(
        "antruss_edge_event_lag_seq",
        upstream_head.saturating_sub(head),
    );
    reg.gauge(
        "antruss_edge_upstream_up",
        u64::from(state.upstream_up()) as f64,
    );
    reg.counter(
        "antruss_edge_stale_serves_total",
        m.stale_serves.load(Ordering::Relaxed),
    );
    reg.gauge(
        "antruss_edge_staleness_seconds",
        state.staleness_seconds() as f64,
    );
    let request = state.request_hist.snapshot();
    reg.histogram("antruss_edge_request_seconds", &[], &request);
    reg.quantiles("antruss_edge_request_quantile_seconds", &[], &request);
    state
        .phases
        .register(&mut reg, "antruss_edge_request_phase", &EDGE_PHASES);
    reg
}

fn reject_write(state: &EdgeState) -> Response {
    state
        .metrics
        .writes_rejected
        .fetch_add(1, Ordering::Relaxed);
    Response::error(
        421,
        &format!(
            "this is a read-only edge; send writes to the upstream at {}",
            state.upstream_display
        ),
    )
}

fn solve(state: &EdgeState, req: &Request) -> Response {
    // only bodies the upstream would accept verbatim are keyed, by the
    // upstream's own parser; anything else is forwarded, uncached
    let key = parse_solve(&req.body).ok().map(|parsed| parsed.key);
    if let Some(key) = &key {
        let lookup = Instant::now();
        let cached = state.cache.get_stamped(key);
        let took = lookup.elapsed();
        state.phases.observe(Phase::CacheLookup, took);
        trace::note_phase("cache", took);
        if let Some(hit) = cached {
            let mut resp = Response::json(200, hit.body.as_bytes().to_vec())
                .with_header("x-antruss-cache", "hit")
                .with_header("x-antruss-edge", "hit")
                .with_header("x-antruss-events-head", &hit.stamp.to_string())
                .with_header("x-antruss-events-epoch", &hit.epoch.to_string());
            if !state.upstream_up() {
                state.metrics.stale_serves.fetch_add(1, Ordering::Relaxed);
                resp = resp.with_header("x-antruss-stale", &state.staleness_seconds().to_string());
            }
            return resp;
        }
    }
    match state.forward("POST", "/solve", Some(&req.body)) {
        Ok(up) => {
            if up.status == 200 {
                if let Some(key) = key {
                    // admit only when the upstream told us the body's
                    // freshness bound — the gate defeats solve/mutate
                    // races and epoch changes
                    let bound = up
                        .header("x-antruss-events-head")
                        .and_then(|v| v.parse::<u64>().ok());
                    let epoch = up
                        .header("x-antruss-events-epoch")
                        .and_then(|v| v.parse::<u64>().ok());
                    if let (Some(stamp), Some(epoch), Ok(body)) =
                        (bound, epoch, String::from_utf8(up.body.clone()))
                    {
                        state.cache.insert_in(epoch, key, Arc::new(body), stamp);
                    }
                }
            }
            relay(&up).set_header("x-antruss-edge", "miss")
        }
        Err(_) => Response::error(
            503,
            "upstream unreachable and this outcome is not cached at the edge",
        ),
    }
}

/// `GET /graphs` / `GET /solvers`: forward when the upstream is
/// reachable, remember the last good body, and fall back to it
/// (flagged stale) when it isn't.
fn listing(state: &EdgeState, path: &'static str) -> Response {
    match state.forward("GET", path, None) {
        Ok(up) => {
            if up.status == 200 {
                if let Ok(body) = String::from_utf8(up.body.clone()) {
                    state.listing.lock().unwrap().insert(path, Arc::new(body));
                }
            }
            relay(&up)
        }
        Err(_) => match state.listing.lock().unwrap().get(path) {
            Some(last) => Response::json(200, last.as_bytes().to_vec())
                .with_header("x-antruss-stale", &state.staleness_seconds().to_string()),
            None => Response::error(503, "upstream unreachable and no cached listing"),
        },
    }
}

/// Endpoints with no edge-side cache (`/cache/dump`, graph edge
/// listings): pure passthrough, 503 when offline.
fn passthrough_get(state: &EdgeState, req: &Request) -> Response {
    match state.forward("GET", &forward_target(req), None) {
        Ok(up) => relay(&up),
        Err(_) => Response::error(503, "upstream unreachable"),
    }
}

/// A running edge; dropping it shuts it down and joins every thread.
pub struct Edge {
    front: Front<EdgeState>,
}

impl Edge {
    /// Binds, starts the worker pool and the event subscriber.
    pub fn start(config: EdgeConfig) -> io::Result<Edge> {
        let state = EdgeState::new(config)?;
        let config = &state.config;
        let mut front = Front::start(
            Arc::clone(&state),
            &config.addr,
            config.threads,
            config.max_body_bytes,
            config.metrics_interval_ms,
        )?;
        let subscriber = Arc::clone(&state);
        front.keep(prof::spawn("antruss-edge-sync", "subscriber", move || {
            sync::run(subscriber)
        })?);
        Ok(Edge { front })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The shared state (for tests and metrics scraping in-process).
    pub fn state(&self) -> &Arc<EdgeState> {
        self.front.tier()
    }

    /// Stops accepting, joins the workers and the subscriber; a
    /// SIGINT-driven shutdown also prints the drain snapshot (the edge
    /// keeps no data dir). Calling it again does nothing.
    pub fn shutdown(&mut self) {
        self.front.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antruss_service::Client;

    fn edge_state() -> Arc<EdgeState> {
        // port 9 (discard) is never listened on locally: forwards fail
        // fast with ECONNREFUSED, which is exactly the offline case
        EdgeState::new(EdgeConfig {
            upstream: "127.0.0.1:9".to_string(),
            ..EdgeConfig::default()
        })
        .unwrap()
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn header<'r>(resp: &'r Response, name: &str) -> Option<&'r str> {
        resp.extra_headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn writes_are_misdirected_to_the_upstream() {
        let state = edge_state();
        for (method, path) in [
            ("POST", "/graphs"),
            ("POST", "/graphs/g/mutate"),
            ("POST", "/cache/load"),
            ("POST", "/cache/purge"),
            ("DELETE", "/graphs/g"),
        ] {
            let resp = handle(&state, &request(method, path, "{}"));
            assert_eq!(resp.status, 421, "{method} {path}");
            let body = String::from_utf8(resp.body.clone()).unwrap();
            assert!(body.contains("127.0.0.1:9"), "{body}");
        }
        assert_eq!(state.metrics.writes_rejected.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn healthz_and_metrics_answer_without_an_upstream() {
        let state = edge_state();
        let health = handle(&state, &request("GET", "/healthz", ""));
        assert_eq!(health.status, 200);
        let body = String::from_utf8(health.body).unwrap();
        assert!(body.contains("\"role\":\"edge\""), "{body}");
        assert!(body.contains("\"up\":false"), "{body}");

        let metrics = handle(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).unwrap();
        for name in [
            "antruss_edge_requests_total 2",
            "antruss_edge_cache_capacity 1024",
            "antruss_edge_upstream_up 0",
            "antruss_edge_event_lag_seq 0",
            "antruss_edge_writes_rejected_total 0",
        ] {
            assert!(text.contains(name), "missing {name} in {text}");
        }
    }

    #[test]
    fn cached_outcomes_survive_the_upstream_being_down() {
        let state = edge_state();
        state.cache.set_epoch(7, 0);
        let key = parse_solve(br#"{"graph":"g","b":2}"#).ok().unwrap().key;
        assert!(state
            .cache
            .insert_in(7, key, Arc::new("{\"outcome\":1}".to_string()), 3));
        let hit = handle(&state, &request("POST", "/solve", r#"{"graph":"g","b":2}"#));
        assert_eq!(hit.status, 200);
        assert_eq!(header(&hit, "x-antruss-edge"), Some("hit"));
        assert_eq!(header(&hit, "x-antruss-events-head"), Some("3"));
        assert_eq!(header(&hit, "x-antruss-events-epoch"), Some("7"));
        assert!(header(&hit, "x-antruss-stale").is_some(), "upstream down");
        assert_eq!(state.metrics.stale_serves.load(Ordering::Relaxed), 1);

        // an uncached identity has nowhere to go
        let miss = handle(&state, &request("POST", "/solve", r#"{"graph":"g","b":9}"#));
        assert_eq!(miss.status, 503);
    }

    #[test]
    fn events_feed_validates_params_and_serves_the_mirror() {
        let state = edge_state();
        let bad = handle(
            &state,
            &Request {
                query: vec![("since".to_string(), "x".to_string())],
                ..request("GET", "/events", "")
            },
        );
        assert_eq!(bad.status, 400);

        state.mirror.adopt(9, 4);
        let resp = handle(&state, &request("GET", "/events", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"epoch\":\"9\""), "{body}");
        assert!(body.contains("\"head\":4"), "{body}");
        assert!(body.contains("\"reset\":true"), "cursor 0 is stale: {body}");
    }

    #[test]
    fn unknown_routes_and_methods_are_refused_locally() {
        let state = edge_state();
        assert_eq!(handle(&state, &request("GET", "/nope", "")).status, 404);
        assert_eq!(handle(&state, &request("PUT", "/solve", "{}")).status, 405);
    }

    #[test]
    fn forward_targets_are_re_encoded() {
        let req = Request {
            query: vec![("graph".to_string(), "a b".to_string())],
            ..request("GET", "/graphs/a b/edges", "")
        };
        assert_eq!(forward_target(&req), "/graphs/a%20b/edges?graph=a%20b");
    }

    #[test]
    fn edge_starts_serves_and_shuts_down_over_tcp() {
        let mut edge = Edge::start(EdgeConfig {
            upstream: "127.0.0.1:9".to_string(),
            poll_wait_ms: 50,
            retry_ms: 20,
            ..EdgeConfig::default()
        })
        .unwrap();
        let mut client = Client::new(edge.addr());
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        let refused = client.post("/graphs", "application/json", b"{}").unwrap();
        assert_eq!(refused.status, 421);
        edge.shutdown();
    }

    #[test]
    fn readyz_and_metrics_history_respond() {
        let state = edge_state();
        let ready = handle(&state, &request("GET", "/readyz", ""));
        assert_eq!(ready.status, 200);
        handle(&state, &request("GET", "/healthz", ""));
        state.record_history(100.0);
        handle(&state, &request("GET", "/healthz", ""));
        state.record_history(105.0);
        let resp = handle(&state, &request("GET", "/metrics/history", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        let parsed = antruss_core::json::parse(&body).expect("history is valid JSON");
        assert!(parsed.get("interval_seconds").is_some(), "{body}");
        assert!(
            body.contains("\"name\":\"antruss_edge_requests_total\""),
            "{body}"
        );
        assert!(body.contains("q=\\\"0.99\\\""), "{body}");
        state.shutdown.store(true, Ordering::SeqCst);
        assert_eq!(handle(&state, &request("GET", "/readyz", "")).status, 503);
    }

    #[test]
    fn slo_level_flows_into_edge_healthz_and_metrics() {
        let state = EdgeState::new(EdgeConfig {
            upstream: "127.0.0.1:9".to_string(),
            slos: antruss_obs::slo::parse_slos("availability=99.0").unwrap(),
            ..EdgeConfig::default()
        })
        .unwrap();
        state.record_history(0.0);
        handle(&state, &request("GET", "/healthz", ""));
        state.record_history(5.0);
        let health =
            String::from_utf8(handle(&state, &request("GET", "/healthz", "")).body).unwrap();
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"slo\":{"), "{health}");
        // deliberate 404s are edge errors; enough of them burn the
        // availability budget
        for _ in 0..50 {
            handle(&state, &request("GET", "/no/such/route", ""));
        }
        state.record_history(10.0);
        let burned =
            String::from_utf8(handle(&state, &request("GET", "/healthz", "")).body).unwrap();
        assert!(burned.contains("\"status\":\"critical\""), "{burned}");
        assert!(burned.contains("\"burning\":\"availability\""), "{burned}");
        let text = String::from_utf8(handle(&state, &request("GET", "/metrics", "")).body).unwrap();
        assert!(text.contains("antruss_slo_health 2"), "{text}");
    }
}
