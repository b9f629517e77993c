//! The resident anchoring server: accept loop, worker pool, router.
//!
//! Architecture (all std + the vendored crossbeam channel):
//!
//! ```text
//! TcpListener (non-blocking accept loop, one thread)
//!      │ crossbeam::channel::bounded  — backpressure when all busy
//!      ▼
//! worker pool (--threads) ── keep-alive connection loop
//!      │ read_request ──► handle() ──► Response
//!      ▼
//! ServiceState: Catalog (Arc-shared CSR graphs)
//!               OutcomeCache (LRU over serialized outcomes)
//!               Metrics (counters + latency window)
//!               registry() (the solver engine)
//! ```
//!
//! Shutdown is graceful: the flag flips (SIGINT or
//! [`Server::shutdown`]), the acceptor stops and drops the channel,
//! workers finish the request they are on, answer it with
//! `Connection: close`, and drain.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use antruss_core::engine::{registry, RunConfig, Solver};
use antruss_core::json::{self, Value};
use antruss_core::ReusePolicy;
use antruss_datasets::DatasetId;
use antruss_store::{FsyncPolicy, Store};

use antruss_obs::slo::{Objective, SloSources};
use antruss_obs::{self as obs, prof, trace, Recorder, Registry, SlowTraces};

use crate::cache::{CacheKey, OutcomeCache};
use crate::catalog::{Catalog, CatalogError};
use crate::events::EventLog;
use crate::http::{Request, Response};
use crate::metrics::{EndpointClass, InFlight, Metrics, Phase, Phases};
use crate::tier::{self, Front, Tier, SLOW_TRACE_CAP};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` = ephemeral port).
    pub addr: String,
    /// Worker threads (0 = one per available core, capped at 8).
    pub threads: usize,
    /// Outcome-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Largest accepted `b` per request (the service-side safety valve).
    pub max_budget: usize,
    /// Per-request cap on `exact` enumeration (0 = exhaustive allowed).
    pub exact_cap: u64,
    /// Per-request wall-clock cap for `base`, seconds (0 = unbounded).
    pub base_timeout_secs: u64,
    /// Largest per-solve thread count a request may ask for.
    pub max_solve_threads: usize,
    /// Shard id when this backend is part of a cluster (`None` for a
    /// standalone `serve`); surfaced in `/metrics` as `antruss_shard_id`.
    pub shard: Option<u32>,
    /// Durable data directory (`--data-dir`): when set, every
    /// successful catalog write is WAL-logged before it is
    /// acknowledged, the WAL compacts into per-graph snapshots, the
    /// catalog recovers from disk at startup, and the outcome cache is
    /// dumped on graceful shutdown for a warm restart. `None` keeps the
    /// catalog purely in memory.
    pub data_dir: Option<String>,
    /// When WAL appends reach stable storage (`--fsync`).
    pub fsync: FsyncPolicy,
    /// History sampler period in milliseconds (`--metrics-interval`,
    /// default 5000). 0 disables the sampler thread — history then only
    /// grows when something calls [`ServiceState::record_history`]
    /// explicitly (what tests and the metrics lint do).
    pub metrics_interval_ms: u64,
    /// SLO objectives evaluated over the history ring (`--slo`). Empty
    /// (the default) keeps `/healthz` always `ok` — existing traffic
    /// deliberately probes 4xx paths and must not degrade a node that
    /// never opted into an availability objective.
    pub slos: Vec<Objective>,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port, 4 workers, a 256-entry cache, 8 MiB
    /// bodies, and the CLI's interactive safety valves (`exact` capped at
    /// 100 000 sets, `base` at 60 s).
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            cache_capacity: 256,
            max_body_bytes: 8 * 1024 * 1024,
            max_budget: 1024,
            exact_cap: 100_000,
            base_timeout_secs: 60,
            max_solve_threads: 8,
            shard: None,
            data_dir: None,
            fsync: FsyncPolicy::default(),
            metrics_interval_ms: 5000,
            slos: Vec::new(),
        }
    }
}

/// Wall-clock seconds since the unix epoch — the timestamp scale every
/// live history sampler records in (tests record synthetic time
/// instead; the recorder only ever compares timestamps).
pub fn epoch_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Everything the request handlers share. Separated from [`Server`] so
/// handlers are unit-testable without sockets.
pub struct ServiceState {
    /// The configuration the server started with.
    pub config: ServerConfig,
    /// Named graphs in `Arc`-shared CSR form.
    pub catalog: Catalog,
    /// The LRU over serialized outcomes.
    pub cache: OutcomeCache,
    /// Service counters.
    pub metrics: Metrics,
    /// The durable store behind the catalog (`None` without
    /// `data_dir`).
    pub store: Option<Arc<Store>>,
    /// The worst request timelines this tier originated
    /// (`GET /debug/traces`).
    pub traces: SlowTraces,
    /// The bounded metrics-history ring behind `GET /metrics/history`
    /// and the SLO burn-rate evaluation.
    pub recorder: Recorder,
    /// Debug fault injection (`POST /debug/delay?ms=`): artificial
    /// solver latency in milliseconds, applied to every cache-missing
    /// solve. 0 (the default) injects nothing.
    pub solve_delay_ms: AtomicU64,
    /// Flipped once; workers observe it between requests.
    pub shutdown: AtomicBool,
}

impl ServiceState {
    /// Fresh state for `config`. Panics if `config.data_dir` is set but
    /// unusable — use [`ServiceState::open`] to handle that error.
    pub fn new(config: ServerConfig) -> ServiceState {
        ServiceState::open(config).expect("open service state")
    }

    /// Fresh state for `config`, recovering the catalog (snapshots +
    /// WAL tail) and the persisted outcome-cache dump from
    /// `config.data_dir` when one is configured.
    pub fn open(config: ServerConfig) -> std::io::Result<ServiceState> {
        let catalog = Catalog::new();
        let cache = OutcomeCache::new(config.cache_capacity);
        let metrics = Metrics::new();
        let mut store = None;
        if let Some(dir) = &config.data_dir {
            let recovery_started = Instant::now();
            let (opened, recovered) = Store::open(dir, config.fsync)?;
            let opened = Arc::new(opened);
            for (name, graph) in recovered.graphs {
                catalog.install_recovered(&name, Arc::new(graph));
            }
            for op in &recovered.ops {
                catalog.apply_recovered(op);
            }
            // re-point the event log at the durable history *before*
            // the listener answers: the replayed WAL tail becomes the
            // serveable event window, so a subscriber's cursor from
            // before the restart resumes without a reset
            catalog.reseed_events_from_recovery(&opened, &recovered.ops);
            // attach only now: replayed operations are already logged
            catalog.attach_store(Arc::clone(&opened));
            if let Some(dump) = opened.take_cache()? {
                // a dropped WAL tail means the recovered catalog is
                // older than the shutdown that wrote this dump — the
                // cached outcomes may describe graphs we no longer
                // have; recompute rather than serve stale bytes
                if opened.stats().dropped_bytes > 0 {
                    obs::warn!("store", "discarding the cache dump (WAL tail was dropped)");
                } else {
                    match parse_dump_entries(&dump) {
                        Ok(entries) => {
                            let n = entries.len() as u64;
                            // the dump was written at graceful shutdown
                            // with no WAL tail dropped, so its entries
                            // are fresh at the recovered events head
                            let stamp = catalog.events().head();
                            for (key, body) in entries {
                                cache.insert(key, body, stamp);
                            }
                            metrics.warmed_entries.fetch_add(n, Ordering::Relaxed);
                        }
                        Err(e) => obs::warn!("store", "dropping stale cache dump: {e}"),
                    }
                }
            }
            opened.note_recovery_ms(recovery_started.elapsed().as_millis() as u64);
            store = Some(opened);
        }
        Ok(ServiceState {
            cache,
            catalog,
            metrics,
            store,
            traces: SlowTraces::new(SLOW_TRACE_CAP),
            recorder: Recorder::new(config.metrics_interval_ms as f64 / 1000.0),
            solve_delay_ms: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            config,
        })
    }

    /// Samples the current registry into the history ring at `ts`
    /// (seconds — the sampler thread passes [`epoch_now`], tests pass
    /// synthetic time).
    pub fn record_history(&self, ts: f64) {
        tier::record_history(self, ts)
    }
}

impl Tier for ServiceState {
    const NAME: &'static str = "server";

    fn counters(&self) -> (&AtomicU64, &AtomicU64) {
        (&self.metrics.requests, &self.metrics.errors)
    }

    fn traces(&self) -> &SlowTraces {
        &self.traces
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn phases(&self) -> &Phases {
        &self.metrics.phases
    }

    fn events(&self) -> &EventLog {
        self.catalog.events()
    }

    fn draining(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn objectives(&self) -> &[Objective] {
        &self.config.slos
    }

    /// Overall request and error counters, and the per-interval p99 of
    /// the solve endpoint class.
    fn slo_sources(&self) -> SloSources {
        SloSources {
            requests: "antruss_requests_total".to_string(),
            errors: "antruss_http_errors_total".to_string(),
            p99: "antruss_endpoint_latency_seconds{endpoint=\"solve\",q=\"0.99\"}".to_string(),
        }
    }

    fn families(&self) -> Registry {
        let events = self.catalog.events();
        self.metrics.registry(
            &self.cache.stats(),
            self.catalog.len(),
            self.config.shard,
            self.store.as_deref().map(Store::stats).as_ref(),
            Some((events.epoch(), events.head())),
        )
    }

    fn route(&self, req: &Request) -> Response {
        let resp = route(self, req);
        if resp.status < 400 {
            note_cluster_cursor(self, req);
        }
        resp
    }

    fn observe(&self, req: &Request, elapsed: Duration) {
        self.metrics
            .observe_endpoint(EndpointClass::of(&req.method, &req.path), elapsed);
    }

    fn serve(&self, req: &Request) -> Response {
        handle(self, req)
    }

    /// A SIGINT drain writes its snapshots beside the durable state.
    fn drain_dir(&self) -> Option<&Path> {
        self.config.data_dir.as_deref().map(Path::new)
    }

    /// Graceful shutdown persists the outcome cache for a warm restart;
    /// a crash simply skips this and the cache re-warms from peers or
    /// recomputes.
    fn on_stop(&self) {
        if let Some(store) = &self.store {
            let dump = format!("[{}]", render_dump(&self.cache.dump()));
            if let Err(e) = store.persist_cache(&dump) {
                obs::warn!("store", "could not persist the outcome cache: {e}");
            }
        }
    }
}

fn policy_from_str(s: &str) -> Option<(&'static str, ReusePolicy)> {
    match s {
        "paper" => Some(("paper", ReusePolicy::PaperExact)),
        "conservative" => Some(("conservative", ReusePolicy::Conservative)),
        "off" => Some(("off", ReusePolicy::Off)),
        _ => None,
    }
}

/// Routes one parsed request through the tier middleware
/// ([`tier::handle`]) while the in-flight gauge counts it.
pub fn handle(state: &ServiceState, req: &Request) -> Response {
    let _in_flight = InFlight::enter(&state.metrics);
    tier::handle(state, req)
}

fn route(state: &ServiceState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let events = state.catalog.events();
            let (status, slo) = tier::slo_health(state);
            // always HTTP 200: a degraded node is alive — readiness
            // and LB rotation act on /readyz and the status field
            Response::json(
                200,
                format!(
                    "{{{status},\"events\":{{\"epoch\":{},\"head\":{}}}{slo}}}",
                    json::quoted(&events.epoch().to_string()),
                    events.head()
                ),
            )
        }
        ("POST", "/debug/delay") => {
            let ms = match req.query_param("ms") {
                Some(v) => match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => return Response::error(400, "\"ms\" must be a non-negative integer"),
                },
                None => return Response::error(400, "\"ms\" query parameter required"),
            };
            state.solve_delay_ms.store(ms, Ordering::SeqCst);
            Response::json(200, format!("{{\"solve_delay_ms\":{ms}}}"))
        }
        ("GET", "/solvers") => list_solvers(),
        ("GET", "/graphs") => list_graphs(state),
        ("POST", "/graphs") => register_graph(state, req),
        ("POST", "/solve") => solve(state, req),
        ("GET", "/cache/dump") => dump_cache(state, req),
        ("POST", "/cache/load") => load_cache(state, req),
        ("POST", "/cache/purge") => purge_cache(state, req),
        ("POST", p) if subresource(p, "/mutate").is_some() => {
            mutate_graph(state, req, subresource(p, "/mutate").unwrap())
        }
        ("GET", p) if subresource(p, "/edges").is_some() => {
            graph_edges(state, subresource(p, "/edges").unwrap())
        }
        ("DELETE", p) if p.strip_prefix("/graphs/").is_some_and(|n| !n.is_empty()) => {
            delete_graph(state, p.strip_prefix("/graphs/").unwrap())
        }
        ("GET" | "POST" | "DELETE", _) => {
            Response::error(404, &format!("no route for {}", req.path))
        }
        _ => Response::error(405, &format!("method {} not allowed", req.method)),
    }
}

/// Persists the router-stamped cluster cursor (`x-antruss-cluster-seq`
/// / `x-antruss-cluster-epoch` headers on fanned-out lifecycle writes)
/// so a restarting backend can advertise how far through the cluster's
/// event sequence its durable state already is — the router then
/// catches it up from the event tail instead of re-streaming the whole
/// cache. Best-effort: a failed write only costs the faster warm path.
fn note_cluster_cursor(state: &ServiceState, req: &Request) {
    let (Some(seq), Some(epoch)) = (
        req.header("x-antruss-cluster-seq"),
        req.header("x-antruss-cluster-epoch"),
    ) else {
        return;
    };
    let (Ok(seq), Ok(epoch)) = (seq.parse::<u64>(), epoch.parse::<u64>()) else {
        return;
    };
    if let Some(store) = &state.store {
        if let Err(e) = store.save_cluster_cursor(epoch, seq) {
            obs::warn!("store", "could not persist the cluster cursor: {e}");
        }
    }
}

/// Extracts `{name}` from `/graphs/{name}{suffix}` (e.g. `/mutate`,
/// `/edges`); `None` when the path has a different shape or an empty
/// name. Shared with the cluster router so backend and router route the
/// same paths identically.
pub fn subresource<'p>(path: &'p str, suffix: &str) -> Option<&'p str> {
    let name = path.strip_prefix("/graphs/")?.strip_suffix(suffix)?;
    (!name.is_empty() && !name.contains('/')).then_some(name)
}

fn list_solvers() -> Response {
    let mut body = String::from("[");
    for (i, s) in registry().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"name\":{},\"description\":{}}}",
            json::quoted(s.name()),
            json::quoted(s.description())
        ));
    }
    body.push(']');
    Response::json(200, body)
}

fn list_graphs(state: &ServiceState) -> Response {
    let mut body = String::from("{\"loaded\":[");
    for (i, e) in state.catalog.entries().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        // the checksum rides as a hex string: u64 does not survive a
        // round-trip through JSON's f64 number space
        body.push_str(&format!(
            "{{\"name\":{},\"vertices\":{},\"edges\":{},\"source\":{},\"checksum\":{}}}",
            json::quoted(&e.name),
            e.vertices,
            e.edges,
            json::quoted(e.source),
            json::quoted(&format!("{:016x}", e.checksum))
        ));
    }
    body.push_str("],\"datasets\":[");
    for (i, slug) in DatasetId::slugs().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&json::quoted(slug));
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn register_graph(state: &ServiceState, req: &Request) -> Response {
    let Some(name) = req.query_param("name") else {
        return Response::error(400, "missing ?name= query parameter");
    };
    match state.catalog.register(name, &req.body) {
        Ok(g) => Response::json(
            201,
            format!(
                "{{\"name\":{},\"vertices\":{},\"edges\":{}}}",
                json::quoted(&name.trim().to_ascii_lowercase()),
                g.num_vertices(),
                g.num_edges()
            ),
        ),
        Err(e @ CatalogError::Duplicate(_)) => Response::error(409, &e.to_string()),
        Err(e @ CatalogError::Full) => Response::error(429, &e.to_string()),
        Err(e @ CatalogError::Storage(_)) => Response::error(500, &e.to_string()),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Serializes cache keys + bodies as comma-separated dump entries.
fn render_dump(entries: &[(CacheKey, Arc<String>)]) -> String {
    let mut out = String::new();
    for (i, (key, body)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"graph\":{},\"solver\":{},\"b\":{},\"k\":{},\"seed\":{},\"trials\":{},\
             \"policy\":{},\"body\":{}}}",
            json::quoted(&key.graph),
            json::quoted(&key.solver),
            key.budget,
            key.k.map_or("null".to_string(), |k| k.to_string()),
            key.seed,
            key.trials,
            json::quoted(key.policy),
            json::quoted(body),
        ));
    }
    out
}

/// `GET /cache/dump[?offset=O&limit=L]` — resident outcomes for replica
/// warm-up. Without paging parameters the whole cache is returned as a
/// bare JSON array (the original contract); with `offset`/`limit` a
/// stable-ordered page comes back in an envelope
/// `{"total":T,"offset":O,"entries":[…]}`, so a consumer can stream a
/// large cache page by page instead of buffering it whole. The order is
/// the dump's deterministic sort, so concatenating pages reproduces the
/// buffered dump byte-for-byte (modulo entries that changed between
/// pages — the router's warm-up fence re-runs the pass in that case).
fn dump_cache(state: &ServiceState, req: &Request) -> Response {
    let entries = state.cache.dump();
    let paged = req.query_param("offset").is_some() || req.query_param("limit").is_some();
    if !paged {
        return Response::json(200, format!("[{}]", render_dump(&entries)));
    }
    macro_rules! page_param {
        ($name:literal, $default:expr) => {
            match req.query_param($name) {
                None => $default,
                Some(v) => match v.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        return Response::error(
                            400,
                            concat!("\"", $name, "\" must be a non-negative integer"),
                        )
                    }
                },
            }
        };
    }
    let offset = page_param!("offset", 0);
    let limit = page_param!("limit", entries.len());
    let start = offset.min(entries.len());
    let end = start.saturating_add(limit).min(entries.len());
    Response::json(
        200,
        format!(
            "{{\"total\":{},\"offset\":{offset},\"entries\":[{}]}}",
            entries.len(),
            render_dump(&entries[start..end])
        ),
    )
}

/// Parses a `/cache/dump` payload (the whole dump or one streamed
/// chunk) into validated cache entries. Shared by `POST /cache/load`
/// and the startup load of the graceful-shutdown dump; all-or-nothing,
/// so a bad entry rejects the payload instead of leaving an uncounted
/// partial prefix resident.
pub fn parse_dump_entries(text: &str) -> Result<Vec<(CacheKey, Arc<String>)>, String> {
    let parsed = json::parse(text).map_err(|e| e.to_string())?;
    let Some(entries) = parsed.as_array() else {
        return Err("body must be a JSON array of dump entries".to_string());
    };
    let mut validated: Vec<(CacheKey, Arc<String>)> = Vec::with_capacity(entries.len());
    for entry in entries {
        macro_rules! field {
            ($name:literal, $conv:ident) => {
                match entry.get($name).and_then(Value::$conv) {
                    Some(v) => v,
                    None => {
                        return Err(
                            concat!("dump entry missing or mistyped field \"", $name, "\"")
                                .to_string(),
                        )
                    }
                }
            };
        }
        let graph = field!("graph", as_str);
        let solver = field!("solver", as_str);
        let budget = field!("b", as_u64) as usize;
        let seed = field!("seed", as_u64);
        let trials = field!("trials", as_u64) as usize;
        let body = field!("body", as_str);
        let k = match entry.get("k") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => match v.as_u64() {
                Some(n) if n <= u32::MAX as u64 => Some(n as u32),
                _ => return Err("dump entry field \"k\" must be null or u32".to_string()),
            },
        };
        let Some((policy, _)) = entry
            .get("policy")
            .and_then(Value::as_str)
            .and_then(policy_from_str)
        else {
            return Err("dump entry field \"policy\" must be paper|conservative|off".to_string());
        };
        validated.push((
            CacheKey {
                graph: crate::catalog::canonical_key(graph),
                solver: solver.to_string(),
                budget,
                k,
                seed,
                trials,
                policy,
            },
            Arc::new(body.to_string()),
        ));
    }
    Ok(validated)
}

/// `POST /cache/load[?stamp=S][&mode=fill]` — accept a (chunk of a)
/// `/cache/dump` payload into the local cache. Entries are validated
/// field-by-field; the body is stored verbatim, so a warmed hit replays
/// the peer's exact bytes. `stamp` pins the entries' freshness bound to
/// an event seq the loader observed *before* reading the source dump —
/// a mutation racing the replay then gates the now-stale bodies out
/// (its purge seq outranks the stamp); without it, entries are stamped
/// fresh as of now, which is what the router's fingerprint-fenced full
/// warm relies on. `mode=fill` keeps any already-resident entry instead
/// of overwriting it (catch-up replay around a surviving warm cache).
fn load_cache(state: &ServiceState, req: &Request) -> Response {
    let Some(text) = req.body_utf8() else {
        return Response::error(400, "body is not UTF-8");
    };
    let stamp = match req.query_param("stamp") {
        None => state.catalog.events().head(),
        Some(v) => match v.parse::<u64>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "\"stamp\" must be a non-negative integer"),
        },
    };
    let fill = match req.query_param("mode") {
        None => false,
        Some("fill") => true,
        Some(_) => return Response::error(400, "\"mode\" must be \"fill\""),
    };
    let validated = match parse_dump_entries(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e),
    };
    let loaded = validated.len() as u64;
    for (key, body) in validated {
        if fill {
            state.cache.fill(key, body, stamp);
        } else {
            state.cache.insert(key, body, stamp);
        }
    }
    state
        .metrics
        .warmed_entries
        .fetch_add(loaded, Ordering::Relaxed);
    Response::json(200, format!("{{\"loaded\":{loaded}}}"))
}

/// `POST /cache/purge[?graph=…]` — drop one graph's cached outcomes, or
/// everything when no graph is named. The purge is journaled as a
/// catalog event (so edge replicas drop their copies too); the entries
/// leave the local cache before the event publishes, keeping the
/// subscriber invariant — by the time an event is observable, its
/// effect is.
fn purge_cache(state: &ServiceState, req: &Request) -> Response {
    let graph = req.query_param("graph");
    // gate future inserts at the pre-publish head: solves that resolved
    // their graph before this purge keep their (still-correct) bodies
    // admissible, while anything a later mutation invalidates is handled
    // by that mutation's own higher gate
    let gate = state.catalog.events().head();
    let purged = match graph {
        Some(g) => state
            .cache
            .purge_graph(&crate::catalog::canonical_key(g), gate),
        None => state.cache.purge_all(gate),
    };
    if let Err(e) = state.catalog.note_purge(graph) {
        return Response::error(500, &e.to_string());
    }
    Response::json(200, format!("{{\"purged\":{purged}}}"))
}

/// The fields `POST /graphs/{name}/mutate` accepts.
const MUTATE_FIELDS: &[&str] = &["insert", "delete"];

/// Parses a mutate-body member (`"insert"`/`"delete"`) into vertex pairs.
fn edge_pairs(body: &Value, member: &str) -> Result<Vec<(u64, u64)>, String> {
    let Some(v) = body.get(member) else {
        return Ok(Vec::new());
    };
    let Some(items) = v.as_array() else {
        return Err(format!("\"{member}\" must be an array of [u, v] pairs"));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let pair = item.as_array().and_then(|p| match p {
            [a, b] => Some((a.as_u64()?, b.as_u64()?)),
            _ => None,
        });
        match pair {
            Some(p) => out.push(p),
            None => {
                return Err(format!(
                    "\"{member}\" entries must be two-element arrays of non-negative integers"
                ))
            }
        }
    }
    Ok(out)
}

/// `POST /graphs/{name}/mutate` — apply an edge insert/delete batch via
/// incremental truss maintenance, then purge the graph's cached
/// outcomes (they were computed on edges that no longer exist).
fn mutate_graph(state: &ServiceState, req: &Request, name: &str) -> Response {
    let Some(text) = req.body_utf8() else {
        return Response::error(400, "body is not UTF-8");
    };
    let body = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let Value::Obj(members) = &body else {
        return Response::error(400, "body must be a JSON object");
    };
    if let Some(unknown) = members
        .keys()
        .find(|k| !MUTATE_FIELDS.contains(&k.as_str()))
    {
        return Response::error(
            400,
            &format!("unknown field {unknown:?} (expected {MUTATE_FIELDS:?})"),
        );
    }
    let (inserts, deletes) = match (edge_pairs(&body, "insert"), edge_pairs(&body, "delete")) {
        (Ok(i), Ok(d)) => (i, d),
        (Err(e), _) | (_, Err(e)) => return Response::error(400, &e),
    };
    if inserts.is_empty() && deletes.is_empty() {
        return Response::error(
            400,
            "empty batch: provide \"insert\" and/or \"delete\" pairs",
        );
    }
    match state.catalog.mutate(name, &inserts, &deletes) {
        Ok(o) => {
            let key = crate::catalog::canonical_key(name);
            // the mutation's event is published by now, so the current
            // head gates out any straggling pre-mutation solve insert
            let purged = state.cache.purge_graph(&key, state.catalog.events().head());
            state.metrics.mutations.fetch_add(1, Ordering::Relaxed);
            Response::json(
                200,
                format!(
                    "{{\"graph\":{},\"inserted\":{},\"deleted\":{},\"ignored\":{},\
                     \"vertices\":{},\"edges\":{},\"k_max\":{},\"changed\":{},\
                     \"recomputed\":{},\"purged\":{}}}",
                    json::quoted(&key),
                    o.inserted,
                    o.deleted,
                    o.ignored,
                    o.vertices,
                    o.edges,
                    o.k_max,
                    o.changed,
                    o.recomputed,
                    purged
                ),
            )
        }
        Err(e @ CatalogError::Unknown(_)) => Response::error(404, &e.to_string()),
        Err(e @ CatalogError::BuiltIn(_)) => Response::error(409, &e.to_string()),
        Err(e @ CatalogError::Storage(_)) => Response::error(500, &e.to_string()),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// `GET /graphs/{name}/edges` — the resident graph as a SNAP edge list
/// (what a recovering replica re-registers from). Resident-only: this
/// never triggers dataset generation.
fn graph_edges(state: &ServiceState, name: &str) -> Response {
    match state.catalog.lookup(name) {
        Some((graph, _)) => {
            let mut out = Vec::with_capacity(graph.num_edges() * 8);
            match antruss_graph::io::write_edge_list(&graph, &mut out) {
                Ok(()) => Response::text(200, out),
                Err(e) => Response::error(500, &format!("serializing {name:?}: {e}")),
            }
        }
        None => Response::error(404, &format!("graph {name:?} is not resident")),
    }
}

/// `DELETE /graphs/{name}` — drop a registered graph and its cached
/// outcomes. 404 for unknown names, 409 for built-in dataset analogues.
fn delete_graph(state: &ServiceState, name: &str) -> Response {
    match state.catalog.remove(name) {
        Ok(()) => {
            let key = crate::catalog::canonical_key(name);
            let purged = state.cache.purge_graph(&key, state.catalog.events().head());
            Response::json(
                200,
                format!("{{\"deleted\":{},\"purged\":{purged}}}", json::quoted(&key)),
            )
        }
        Err(e @ CatalogError::Unknown(_)) => Response::error(404, &e.to_string()),
        Err(e @ CatalogError::BuiltIn(_)) => Response::error(409, &e.to_string()),
        Err(e @ CatalogError::Storage(_)) => Response::error(500, &e.to_string()),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// The fields `/solve` accepts; anything else in the body is a 400 (typos
/// like `"bugdet"` should fail loudly, not silently use a default).
const SOLVE_FIELDS: &[&str] = &[
    "graph", "solver", "b", "seed", "trials", "threads", "k", "policy",
];

/// A validated `/solve` body.
pub struct SolveRequest {
    /// The outcome's cache identity (canonical graph and solver names).
    pub key: CacheKey,
    /// The solver `key.solver` names.
    pub solver: &'static dyn Solver,
    /// Requested solver threads (not part of the key: outcomes are
    /// thread-count-invariant).
    pub threads: usize,
    /// The reuse policy `key.policy` names.
    pub policy: ReusePolicy,
}

/// Parses and validates one `/solve` body into its cache identity. This
/// is the one definition of the solve contract: the server answers the
/// `Err` response, and the edge keys its cache with the same function,
/// so it keys exactly the identities the upstream would serve and
/// forwards everything else uncached. The per-server `b` cap is checked
/// by the caller.
pub fn parse_solve(body: &[u8]) -> Result<SolveRequest, Response> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(Response::error(400, "body is not UTF-8"));
    };
    let body = json::parse(text).map_err(|e| Response::error(400, &e.to_string()))?;
    let Value::Obj(members) = &body else {
        return Err(Response::error(400, "body must be a JSON object"));
    };
    if let Some(unknown) = members.keys().find(|k| !SOLVE_FIELDS.contains(&k.as_str())) {
        return Err(Response::error(
            400,
            &format!("unknown field {unknown:?} (expected {SOLVE_FIELDS:?})"),
        ));
    }

    let Some(graph_spec) = body.get("graph").and_then(Value::as_str) else {
        return Err(Response::error(400, "missing string field \"graph\""));
    };
    let solver_name = match body.get("solver") {
        None => "gas",
        Some(v) => v
            .as_str()
            .ok_or_else(|| Response::error(400, "\"solver\" must be a string"))?,
    };
    let Some(solver) = registry().get(solver_name) else {
        return Err(Response::error(
            404,
            &format!(
                "unknown solver {solver_name:?} (available: {})",
                registry().names().join(", ")
            ),
        ));
    };
    let uint_field = |name: &str, default: u64| match body.get(name) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            Response::error(400, &format!("\"{name}\" must be a non-negative integer"))
        }),
    };

    let budget = uint_field("b", 10)? as usize;
    if budget == 0 {
        return Err(Response::error(400, "\"b\" must be at least 1"));
    }
    let seed = uint_field("seed", 1)?;
    let trials = uint_field("trials", 20)? as usize;
    let threads = uint_field("threads", 1)? as usize;
    let k = match body.get("k") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(n) if n <= u32::MAX as u64 => Some(n as u32),
            _ => return Err(Response::error(400, "\"k\" must be a non-negative integer")),
        },
    };
    let (policy_name, policy) = match body.get("policy") {
        None => ("paper", ReusePolicy::PaperExact),
        Some(v) => v
            .as_str()
            .and_then(policy_from_str)
            .ok_or_else(|| Response::error(400, "\"policy\" must be paper|conservative|off"))?,
    };
    Ok(SolveRequest {
        key: CacheKey {
            graph: crate::catalog::canonical_key(graph_spec),
            solver: solver.name().to_string(),
            budget,
            k,
            seed,
            trials,
            policy: policy_name,
        },
        solver,
        threads,
        policy,
    })
}

fn solve(state: &ServiceState, req: &Request) -> Response {
    let SolveRequest {
        key,
        solver,
        threads,
        policy,
    } = match parse_solve(&req.body) {
        Ok(parsed) => parsed,
        Err(resp) => return resp,
    };
    if key.budget > state.config.max_budget {
        return Response::error(
            400,
            &format!(
                "\"b\" {} exceeds this server's cap of {}",
                key.budget, state.config.max_budget
            ),
        );
    }
    let threads = threads.min(state.config.max_solve_threads);

    // the freshness bound for this response: the events head *before*
    // the graph is resolved. If a mutation publishes seq N afterwards,
    // this solve may have raced it and `events_head < N` tells an edge
    // replica the body cannot be trusted past event N — which is
    // exactly right, because the edge drops its copies at N.
    let events_head = state.catalog.events().head();
    let events_epoch = state.catalog.events().epoch();
    let graph = match state.catalog.get(&key.graph) {
        Ok(g) => g,
        Err(e) => return Response::error(404, &e.to_string()),
    };
    let lookup_started = Instant::now();
    let lookup_cost = prof::begin_cost();
    let cached = state.cache.get_stamped(&key);
    let (lookup_cpu, lookup_bytes) = lookup_cost.finish();
    let lookup = lookup_started.elapsed();
    state.metrics.phases.observe(Phase::CacheLookup, lookup);
    trace::note_phase("cache", lookup);
    trace::note_phase_cost("cache", lookup_cpu, lookup_bytes);
    if let Some(hit) = cached {
        state.metrics.solves.fetch_add(1, Ordering::Relaxed);
        // a hit replays the *computing* request's freshness bound, not
        // the current head: the entry may have been inserted by a solve
        // that raced a mutation whose purge has not landed yet
        return Response::json(200, hit.body.as_str())
            .with_header("x-antruss-cache", "hit")
            .with_header("x-antruss-events-head", &hit.stamp.to_string())
            .with_header("x-antruss-events-epoch", &events_epoch.to_string());
    }

    let mut cfg = RunConfig::new(key.budget)
        .threads(threads.max(1))
        .seed(key.seed)
        .trials(key.trials)
        .reuse(policy);
    if let Some(k) = key.k {
        cfg = cfg.k(k);
    }
    if state.config.exact_cap > 0 {
        cfg = cfg.exact_cap(state.config.exact_cap);
    }
    if state.config.base_timeout_secs > 0 {
        cfg = cfg.time_budget(Duration::from_secs(state.config.base_timeout_secs));
    }

    let started = Instant::now();
    // debug fault injection (POST /debug/delay?ms=): makes the solve
    // phase — and therefore the SLO latency objective — controllably
    // slow, which is what the degraded-then-recovered e2e drives
    let injected_ms = state.solve_delay_ms.load(Ordering::Relaxed);
    if injected_ms > 0 {
        thread::sleep(Duration::from_millis(injected_ms));
    }
    let solve_cost = prof::begin_cost();
    match solver.run(&graph, &cfg) {
        Ok(outcome) => {
            let solved = started.elapsed();
            let (solve_cpu, solve_bytes) = solve_cost.finish();
            state.metrics.observe_solve(solved);
            trace::note_phase("solve", solved);
            trace::note_phase_cost("solve", solve_cpu, solve_bytes);
            prof::observe_request_cost("solver", solver.name(), solve_cpu, solve_bytes);
            let serialize_started = Instant::now();
            let serialize_cost = prof::begin_cost();
            let serialized = Arc::new(outcome.to_json());
            let (ser_cpu, ser_bytes) = serialize_cost.finish();
            let serialized_in = serialize_started.elapsed();
            state
                .metrics
                .phases
                .observe(Phase::Serialize, serialized_in);
            trace::note_phase("serialize", serialized_in);
            trace::note_phase_cost("serialize", ser_cpu, ser_bytes);
            // the graph may have been mutated or deleted *while* this
            // solver ran. If the mutation's purge landed first, its gate
            // (the mutation's event seq) exceeds our pre-resolve
            // `events_head` and the cache refuses this insert; if we
            // land first, the purge sweeps the entry. Either way the
            // cache never retains a stale body.
            state
                .cache
                .insert(key.clone(), Arc::clone(&serialized), events_head);
            Response::json(200, serialized.as_str())
                .with_header("x-antruss-cache", "miss")
                .with_header("x-antruss-events-head", &events_head.to_string())
                .with_header("x-antruss-events-epoch", &events_epoch.to_string())
        }
        Err(e) => Response::error(400, &format!("{}: {e}", solver.name())),
    }
}

/// A running server; dropping it shuts it down and joins every thread.
pub struct Server {
    front: Front<ServiceState>,
    started: Instant,
}

impl Server {
    /// Binds and starts accepting; returns once the listener is live
    /// (and, with a `data_dir`, once the catalog has recovered from
    /// disk — so the first routed request already sees the durable
    /// state).
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let state = Arc::new(ServiceState::open(config)?);
        let config = &state.config;
        let front = Front::start(
            Arc::clone(&state),
            &config.addr,
            config.threads,
            config.max_body_bytes,
            config.metrics_interval_ms,
        )?;
        Ok(Server {
            front,
            started: Instant::now(),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The shared state (handy for in-process inspection in tests).
    pub fn state(&self) -> &Arc<ServiceState> {
        self.front.tier()
    }

    /// Stops accepting, drains in-flight work, joins every thread and
    /// reports totals.
    pub fn shutdown(mut self) -> String {
        self.front.stop();
        let state = self.state();
        format!(
            "served {} request(s) ({} solve(s), {} cache hit(s), {} error(s)) in {:.1}s",
            state.metrics.requests.load(Ordering::Relaxed),
            state.metrics.solves.load(Ordering::Relaxed),
            state.cache.stats().hits,
            state.metrics.errors.load(Ordering::Relaxed),
            self.started.elapsed().as_secs_f64()
        )
    }

    /// Blocks until SIGINT (ctrl-c), then shuts down gracefully. On
    /// platforms without the handler the flag can still be flipped via
    /// [`ServiceState::shutdown`] from another thread.
    pub fn run_until_sigint(self) -> String {
        install_sigint_handler();
        while !sigint_received() && !self.state().shutdown.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(100));
        }
        self.shutdown()
    }
}

static SIGINT: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT arrived since [`install_sigint_handler`] (shared with
/// the cluster supervisor, which fronts several servers with one
/// handler).
pub fn sigint_received() -> bool {
    SIGINT.load(Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn on_sigint(_sig: i32) {
    // async-signal-safe: a single atomic store
    SIGINT.store(true, Ordering::SeqCst);
}

/// Installs the process-wide SIGINT handler behind [`sigint_received`].
/// Idempotent; a no-op on non-unix platforms.
#[cfg(unix)]
pub fn install_sigint_handler() {
    extern "C" {
        // libc is already linked by std; SIGINT = 2 everywhere we run
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler: extern "C" fn(i32) = on_sigint;
    unsafe {
        signal(2, handler as usize);
    }
}

/// Installs the process-wide SIGINT handler behind [`sigint_received`].
/// Idempotent; a no-op on non-unix platforms.
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServiceState {
        ServiceState::new(ServerConfig::default())
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn body_str(r: &Response) -> String {
        String::from_utf8(r.body.clone()).unwrap()
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let st = state();
        assert_eq!(handle(&st, &get("/healthz")).status, 200);
        let m = handle(&st, &get("/metrics"));
        assert_eq!(m.status, 200);
        assert!(body_str(&m).contains("antruss_requests_total"));
    }

    #[test]
    fn readyz_flips_to_503_while_draining() {
        let st = state();
        let ready = handle(&st, &get("/readyz"));
        assert_eq!(ready.status, 200);
        assert!(body_str(&ready).contains("\"status\":\"ready\""));
        st.shutdown.store(true, Ordering::SeqCst);
        let draining = handle(&st, &get("/readyz"));
        assert_eq!(draining.status, 503);
        assert!(body_str(&draining).contains("\"status\":\"draining\""));
        // liveness stays 200 throughout the drain
        assert_eq!(handle(&st, &get("/healthz")).status, 200);
    }

    #[test]
    fn metrics_history_serves_recorded_samples() {
        let st = state();
        handle(&st, &get("/healthz"));
        st.record_history(100.0);
        handle(&st, &get("/healthz"));
        st.record_history(105.0);
        let resp = handle(&st, &get("/metrics/history"));
        assert_eq!(resp.status, 200);
        let body = body_str(&resp);
        let parsed = json::parse(&body).expect("history is valid JSON");
        assert!(parsed.get("interval_seconds").is_some(), "{body}");
        assert!(
            body.contains("\"name\":\"antruss_requests_total\""),
            "{body}"
        );
        assert!(body.contains("\"rate\":"), "{body}");
        // the per-interval quantile series derived from the phase hists
        assert!(body.contains("antruss_endpoint_latency_seconds"), "{body}");
        assert!(body.contains("q=\\\"0.99\\\""), "{body}");
        // ?series= filters to one family
        let mut filtered = get("/metrics/history");
        filtered.query = vec![("series".to_string(), "antruss_cache_entries".to_string())];
        let one = body_str(&handle(&st, &filtered));
        assert!(one.contains("antruss_cache_entries"), "{one}");
        assert!(!one.contains("antruss_requests_total"), "{one}");
        // bad ?since= is a 400
        let mut bad = get("/metrics/history");
        bad.query = vec![("since".to_string(), "banana".to_string())];
        assert_eq!(handle(&st, &bad).status, 400);
    }

    #[test]
    fn slo_objectives_flow_into_healthz_and_metrics() {
        let config = ServerConfig {
            slos: antruss_obs::slo::parse_slos("availability=99.0,p99_ms=5").unwrap(),
            ..ServerConfig::default()
        };
        let st = ServiceState::new(config);
        // clean history: two samples with zero errors
        st.record_history(0.0);
        handle(&st, &get("/healthz"));
        st.record_history(5.0);
        let health = body_str(&handle(&st, &get("/healthz")));
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"slo\":{"), "{health}");
        assert!(
            health.contains("\"objective\":\"availability\""),
            "{health}"
        );
        let metrics = body_str(&handle(&st, &get("/metrics")));
        for needle in [
            "antruss_slo_health 0",
            "antruss_slo_target{objective=\"availability\"} 99",
            "antruss_slo_burn_rate{objective=\"p99_ms\",window=\"5m\"}",
        ] {
            assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
        }
        // heavy errors flip the status (deliberate 404s are errors)
        for _ in 0..50 {
            handle(&st, &get("/no/such/route"));
        }
        st.record_history(10.0);
        let burned = body_str(&handle(&st, &get("/healthz")));
        assert!(burned.contains("\"status\":\"critical\""), "{burned}");
        assert!(burned.contains("\"burning\":\"availability\""), "{burned}");
        // without --slo the same traffic stays ok (the seed contract)
        let plain = state();
        for _ in 0..50 {
            handle(&plain, &get("/no/such/route"));
        }
        plain.record_history(0.0);
        plain.record_history(5.0);
        assert!(body_str(&handle(&plain, &get("/healthz"))).contains("\"status\":\"ok\""));
    }

    #[test]
    fn debug_delay_injects_solve_latency() {
        let st = state();
        let mut set = post("/debug/delay", "");
        set.query = vec![("ms".to_string(), "30".to_string())];
        assert_eq!(handle(&st, &set).status, 200);
        let started = Instant::now();
        let resp = handle(
            &st,
            &post("/solve", r#"{"graph":"college:0.05","solver":"gas","b":2}"#),
        );
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        assert!(started.elapsed() >= Duration::from_millis(30));
        // clearing restores fast solves (cache hit path skips the delay)
        let mut clear = post("/debug/delay", "");
        clear.query = vec![("ms".to_string(), "0".to_string())];
        assert_eq!(handle(&st, &clear).status, 200);
        assert_eq!(st.solve_delay_ms.load(Ordering::SeqCst), 0);
        let no_ms = post("/debug/delay", "");
        assert_eq!(handle(&st, &no_ms).status, 400);
    }

    #[test]
    fn solvers_lists_the_registry() {
        let resp = handle(&state(), &get("/solvers"));
        assert_eq!(resp.status, 200);
        let parsed = json::parse(&body_str(&resp)).unwrap();
        let names: Vec<&str> = parsed
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names.len(), registry().len());
        assert!(names.contains(&"gas"));
    }

    #[test]
    fn solve_runs_and_caches() {
        let st = state();
        let req = post("/solve", r#"{"graph":"college:0.05","solver":"gas","b":2}"#);
        let first = handle(&st, &req);
        assert_eq!(first.status, 200, "{}", body_str(&first));
        assert!(first
            .extra_headers
            .iter()
            .any(|(n, v)| n == "x-antruss-cache" && v == "miss"));
        let second = handle(&st, &req);
        assert_eq!(second.status, 200);
        assert!(second
            .extra_headers
            .iter()
            .any(|(n, v)| n == "x-antruss-cache" && v == "hit"));
        assert_eq!(first.body, second.body, "hit must be byte-identical");
        assert_eq!(st.cache.stats().hits, 1);
    }

    #[test]
    fn equivalent_graph_specs_share_the_cache() {
        let st = state();
        let a = handle(&st, &post("/solve", r#"{"graph":"college:0.05","b":2}"#));
        assert_eq!(a.status, 200, "{}", body_str(&a));
        let b = handle(&st, &post("/solve", r#"{"graph":" College:0.050","b":2}"#));
        assert_eq!(a.body, b.body);
        assert!(
            b.extra_headers
                .iter()
                .any(|(n, v)| n == "x-antruss-cache" && v == "hit"),
            "spelling variants must canonicalize to one cache key"
        );
        assert_eq!(st.catalog.len(), 1, "and to one resident graph");
    }

    fn solve_key(body: &str) -> Option<CacheKey> {
        parse_solve(body.as_bytes()).ok().map(|s| s.key)
    }

    #[test]
    fn solve_key_defaults_match_explicit_spellings() {
        let implicit = solve_key(r#"{"graph":"tri"}"#).unwrap();
        let explicit = solve_key(
            r#"{"graph":" Tri ","solver":"gas","b":10,"seed":1,"trials":20,"policy":"paper"}"#,
        )
        .unwrap();
        assert_eq!(implicit, explicit);
        assert_eq!(implicit.graph, "tri");
    }

    #[test]
    fn solve_key_folds_solver_case_and_ignores_threads() {
        let a = solve_key(r#"{"graph":"g","threads":1}"#).unwrap();
        let b = solve_key(r#"{"graph":"g","threads":8}"#).unwrap();
        assert_eq!(a, b);
        // one solve identity, one key: the registry lookup is
        // case-insensitive and the key holds its canonical name
        let upper = solve_key(r#"{"graph":"g","solver":"GAS"}"#).unwrap();
        assert_eq!(upper, a);
        assert_eq!(upper.solver, "gas");
    }

    #[test]
    fn distinct_solve_identities_get_distinct_keys() {
        let base = solve_key(r#"{"graph":"g","b":2}"#).unwrap();
        for other in [
            r#"{"graph":"h","b":2}"#,
            r#"{"graph":"g","b":3}"#,
            r#"{"graph":"g","b":2,"solver":"lazy"}"#,
            r#"{"graph":"g","b":2,"seed":9}"#,
            r#"{"graph":"g","b":2,"trials":5}"#,
            r#"{"graph":"g","b":2,"k":4}"#,
            r#"{"graph":"g","b":2,"policy":"off"}"#,
        ] {
            assert_ne!(solve_key(other).unwrap(), base, "{other}");
        }
    }

    #[test]
    fn solve_bodies_the_server_rejects_are_not_keyed() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"solver":"gas"}"#,                 // missing graph
            r#"{"graph":"g","bugdet":3}"#,         // unknown field
            r#"{"graph":"g","b":0}"#,              // zero budget
            r#"{"graph":"g","b":-1}"#,             // negative
            r#"{"graph":"g","seed":"one"}"#,       // wrong type
            r#"{"graph":"g","k":null}"#,           // null k is a 400
            r#"{"graph":"g","k":99999999999999}"#, // k beyond u32
            r#"{"graph":"g","threads":"many"}"#,   // mistyped threads
            r#"{"graph":"g","policy":"fast"}"#,    // unknown policy
            r#"{"graph":"g","solver":"nope"}"#,    // unknown solver
            r#"{"graph":123}"#,                    // wrong type
        ] {
            assert!(solve_key(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn unknown_solver_is_404_listing_names() {
        let resp = handle(
            &state(),
            &post("/solve", r#"{"graph":"college:0.05","solver":"nope"}"#),
        );
        assert_eq!(resp.status, 404);
        let msg = body_str(&resp);
        assert!(msg.contains("gas") && msg.contains("rand:sup"), "{msg}");
    }

    #[test]
    fn unknown_graph_is_404() {
        let resp = handle(&state(), &post("/solve", r#"{"graph":"missingno"}"#));
        assert_eq!(resp.status, 404);
        assert!(body_str(&resp).contains("missingno"));
    }

    #[test]
    fn malformed_solve_bodies_are_400() {
        let st = state();
        for bad in [
            "not json at all",
            "[1,2,3]",
            r#"{"solver":"gas"}"#,                         // missing graph
            r#"{"graph":"college:0.05","bugdet":3}"#,      // typo'd field
            r#"{"graph":"college:0.05","b":0}"#,           // zero budget
            r#"{"graph":"college:0.05","b":-3}"#,          // negative budget
            r#"{"graph":"college:0.05","b":1e18}"#,        // over the cap
            r#"{"graph":"college:0.05","seed":"one"}"#,    // wrong type
            r#"{"graph":"college:0.05","policy":"fast"}"#, // bad policy
            r#"{"graph":123}"#,                            // wrong type
        ] {
            let resp = handle(&st, &post("/solve", bad));
            assert_eq!(resp.status, 400, "{bad} -> {}", body_str(&resp));
        }
    }

    #[test]
    fn graph_registration_status_paths() {
        let st = state();
        let mut req = post("/graphs", "0 1\n1 2\n2 0\n");
        assert_eq!(handle(&st, &req).status, 400); // missing ?name=
        req.query = vec![("name".to_string(), "tri".to_string())];
        assert_eq!(handle(&st, &req).status, 201);
        assert_eq!(handle(&st, &req).status, 409); // duplicate
        let solve = handle(&st, &post("/solve", r#"{"graph":"tri","b":1}"#));
        assert_eq!(solve.status, 200, "{}", body_str(&solve));
        let listing = body_str(&handle(&st, &get("/graphs")));
        assert!(listing.contains("\"tri\""), "{listing}");
        assert!(listing.contains("\"college\""), "{listing}");
    }

    #[test]
    fn unknown_route_and_method() {
        assert_eq!(handle(&state(), &get("/nope")).status, 404);
        // DELETE is routed (graph deletion) but has no other resources
        let mut del = get("/healthz");
        del.method = "DELETE".to_string();
        assert_eq!(handle(&state(), &del).status, 404);
        let mut put = get("/healthz");
        put.method = "PUT".to_string();
        assert_eq!(handle(&state(), &put).status, 405);
    }

    fn delete(path: &str) -> Request {
        let mut r = get(path);
        r.method = "DELETE".to_string();
        r
    }

    fn register_triangle(st: &ServiceState, name: &str) {
        let mut req = post("/graphs", "0 1\n1 2\n2 0\n");
        req.query = vec![("name".to_string(), name.to_string())];
        assert_eq!(handle(st, &req).status, 201);
    }

    #[test]
    fn delete_graph_contract() {
        let st = state();
        register_triangle(&st, "tri");
        // cache an outcome so deletion has something to purge
        assert_eq!(
            handle(&st, &post("/solve", r#"{"graph":"tri","b":1}"#)).status,
            200
        );
        assert_eq!(handle(&st, &delete("/graphs/missing")).status, 404);
        assert_eq!(handle(&st, &delete("/graphs/college")).status, 409);
        let ok = handle(&st, &delete("/graphs/tri"));
        assert_eq!(ok.status, 200, "{}", body_str(&ok));
        assert!(body_str(&ok).contains("\"purged\":1"), "{}", body_str(&ok));
        assert_eq!(handle(&st, &delete("/graphs/tri")).status, 404, "gone now");
        assert_eq!(
            handle(&st, &post("/solve", r#"{"graph":"tri","b":1}"#)).status,
            404,
            "deleted graphs are unsolvable"
        );
    }

    #[test]
    fn mutate_applies_purges_and_reports_maintenance_stats() {
        let st = state();
        register_triangle(&st, "tri");
        let solve = post("/solve", r#"{"graph":"tri","b":1}"#);
        assert_eq!(handle(&st, &solve).status, 200);
        // grow the triangle into K4: insert vertex 3 connected to all
        let resp = handle(
            &st,
            &post("/graphs/tri/mutate", r#"{"insert":[[0,3],[1,3],[2,3]]}"#),
        );
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        let parsed = json::parse(&body_str(&resp)).unwrap();
        assert_eq!(parsed.get("inserted").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("edges").unwrap().as_u64(), Some(6));
        assert_eq!(parsed.get("k_max").unwrap().as_u64(), Some(4));
        assert_eq!(parsed.get("purged").unwrap().as_u64(), Some(1));
        // the stale cached outcome is gone: this is a fresh miss
        let fresh = handle(&st, &solve);
        assert!(fresh
            .extra_headers
            .iter()
            .any(|(n, v)| n == "x-antruss-cache" && v == "miss"));
        // delete an edge again and check the 409/404 contract
        let resp = handle(&st, &post("/graphs/tri/mutate", r#"{"delete":[[0,3]]}"#));
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        assert_eq!(
            handle(
                &st,
                &post("/graphs/college/mutate", r#"{"insert":[[0,1]]}"#)
            )
            .status,
            409
        );
        assert_eq!(
            handle(
                &st,
                &post("/graphs/missing/mutate", r#"{"insert":[[0,1]]}"#)
            )
            .status,
            404
        );
        for bad in [
            "{}",                                 // empty batch
            r#"{"insert":[[0]]}"#,                // not a pair
            r#"{"insert":[[0,1,2]]}"#,            // too long
            r#"{"inserts":[[0,1]]}"#,             // typo'd field
            r#"{"insert":[["a","b"]]}"#,          // wrong type
            r#"{"insert":[[0,99999999999999]]}"#, // far beyond the universe
        ] {
            let resp = handle(&st, &post("/graphs/tri/mutate", bad));
            assert_eq!(resp.status, 400, "{bad} -> {}", body_str(&resp));
        }
    }

    #[test]
    fn cache_dump_load_round_trip() {
        let st = state();
        register_triangle(&st, "tri");
        let solve = post("/solve", r#"{"graph":"tri","b":1,"solver":"lazy"}"#);
        let first = handle(&st, &solve);
        assert_eq!(first.status, 200);
        let dump = handle(&st, &get("/cache/dump"));
        assert_eq!(dump.status, 200);
        let dump_body = body_str(&dump);
        assert!(dump_body.contains("\"solver\":\"lazy\""), "{dump_body}");

        // replay the dump into a fresh server: the entry must hit there
        let st2 = state();
        let loaded = handle(&st2, &post("/cache/load", &dump_body));
        assert_eq!(loaded.status, 200, "{}", body_str(&loaded));
        assert!(body_str(&loaded).contains("\"loaded\":1"));
        register_triangle(&st2, "tri");
        let warmed = handle(&st2, &solve);
        assert!(
            warmed
                .extra_headers
                .iter()
                .any(|(n, v)| n == "x-antruss-cache" && v == "hit"),
            "warmed entry must hit"
        );
        assert_eq!(warmed.body, first.body, "and replay the peer's bytes");
        assert_eq!(st2.metrics.warmed_entries.load(Ordering::Relaxed), 1);

        for bad in [
            "not json",
            "{}",                 // not an array
            r#"[{"graph":"g"}]"#, // missing fields
            r#"[{"graph":"g","solver":"gas","b":1,"seed":1,"trials":1,"policy":"fast","body":"x"}]"#,
        ] {
            assert_eq!(handle(&st2, &post("/cache/load", bad)).status, 400, "{bad}");
        }
    }

    #[test]
    fn paged_cache_dump_concatenates_to_the_buffered_dump() {
        let st = state();
        for name in ["a", "b", "c"] {
            register_triangle(&st, name);
            let solve = post("/solve", &format!("{{\"graph\":\"{name}\",\"b\":1}}"));
            assert_eq!(handle(&st, &solve).status, 200);
        }
        let full = body_str(&handle(&st, &get("/cache/dump")));
        // page through with limit 1 and rebuild the array
        let mut pieces = Vec::new();
        let mut offset = 0usize;
        loop {
            let mut req = get("/cache/dump");
            req.query = vec![
                ("offset".to_string(), offset.to_string()),
                ("limit".to_string(), "1".to_string()),
            ];
            let resp = handle(&st, &req);
            assert_eq!(resp.status, 200);
            let parsed = json::parse(&body_str(&resp)).unwrap();
            assert_eq!(parsed.get("total").unwrap().as_u64(), Some(3));
            let entries = parsed.get("entries").unwrap().as_array().unwrap();
            if entries.is_empty() {
                break;
            }
            pieces.extend(entries.iter().map(|e| e.to_json()));
            offset += entries.len();
        }
        let paged = format!("[{}]", pieces.join(","));
        // byte-for-byte identical modulo JSON re-serialization: compare
        // parsed values to be robust to key ordering, then the raw
        // concatenation against a re-render of the buffered dump
        assert_eq!(
            json::parse(&paged).unwrap(),
            json::parse(&full).unwrap(),
            "paged dump must reproduce the buffered dump"
        );
        // an out-of-range page is empty, not an error
        let mut req = get("/cache/dump");
        req.query = vec![("offset".to_string(), "99".to_string())];
        let resp = handle(&st, &req);
        assert!(body_str(&resp).contains("\"entries\":[]"));
        // malformed paging parameters are 400
        let mut req = get("/cache/dump");
        req.query = vec![("limit".to_string(), "-1".to_string())];
        assert_eq!(handle(&st, &req).status, 400);
    }

    #[test]
    fn cache_load_is_atomic_on_invalid_entries() {
        let st = state();
        // one valid entry followed by an invalid one: nothing may load
        let payload = r#"[
            {"graph":"g","solver":"gas","b":1,"k":null,"seed":1,"trials":20,"policy":"paper","body":"{}"},
            {"graph":"h","solver":"gas","b":1}
        ]"#;
        assert_eq!(handle(&st, &post("/cache/load", payload)).status, 400);
        assert_eq!(st.cache.stats().entries, 0, "partial loads must not stick");
        assert_eq!(st.metrics.warmed_entries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cache_purge_selective_and_full() {
        let st = state();
        register_triangle(&st, "a");
        register_triangle(&st, "b");
        assert_eq!(
            handle(&st, &post("/solve", r#"{"graph":"a","b":1}"#)).status,
            200
        );
        assert_eq!(
            handle(&st, &post("/solve", r#"{"graph":"b","b":1}"#)).status,
            200
        );
        let mut purge_a = post("/cache/purge", "");
        purge_a.query = vec![("graph".to_string(), "a".to_string())];
        assert!(body_str(&handle(&st, &purge_a)).contains("\"purged\":1"));
        assert!(body_str(&handle(&st, &post("/cache/purge", ""))).contains("\"purged\":1"));
        assert_eq!(st.cache.stats().entries, 0);
        assert_eq!(st.cache.stats().purged, 2);
    }

    #[test]
    fn graph_edges_round_trips_through_registration() {
        let st = state();
        register_triangle(&st, "tri");
        let resp = handle(&st, &get("/graphs/tri/edges"));
        assert_eq!(resp.status, 200);
        let edges = body_str(&resp);
        let st2 = state();
        let mut req = post("/graphs", &edges);
        req.query = vec![("name".to_string(), "tri2".to_string())];
        assert_eq!(handle(&st2, &req).status, 201);
        let (a, _) = st.catalog.lookup("tri").unwrap();
        let (b, _) = st2.catalog.lookup("tri2").unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        // resident-only: a dataset spec that was never solved is a 404
        assert_eq!(handle(&st, &get("/graphs/college/edges")).status, 404);
    }

    #[test]
    fn error_responses_bump_the_error_counter() {
        let st = state();
        handle(&st, &get("/nope"));
        handle(&st, &get("/healthz"));
        assert_eq!(st.metrics.errors.load(Ordering::Relaxed), 1);
        assert_eq!(st.metrics.requests.load(Ordering::Relaxed), 2);
    }

    fn header<'r>(resp: &'r Response, name: &str) -> Option<&'r str> {
        resp.extra_headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn events_feed_tracks_catalog_writes() {
        let st = state();
        register_triangle(&st, "tri");
        let resp = handle(&st, &get("/events"));
        assert_eq!(resp.status, 200);
        let batch = crate::events::EventBatch::parse(&body_str(&resp)).unwrap();
        assert!(!batch.reset);
        assert_eq!(batch.head, 1);
        assert_eq!(batch.events[0].kind, crate::events::EventKind::Register);
        assert_eq!(batch.events[0].graph, "tri");

        // mutate + delete extend the stream; a cursor past the register
        // sees exactly the tail
        assert_eq!(
            handle(
                &st,
                &post("/graphs/tri/mutate", r#"{"insert":[[0,3],[1,3],[2,3]]}"#)
            )
            .status,
            200
        );
        assert_eq!(handle(&st, &delete("/graphs/tri")).status, 200);
        let mut req = get("/events");
        req.query = vec![
            ("since".to_string(), "1".to_string()),
            ("epoch".to_string(), batch.epoch.to_string()),
        ];
        let tail = crate::events::EventBatch::parse(&body_str(&handle(&st, &req))).unwrap();
        assert!(!tail.reset);
        assert_eq!(
            tail.events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![
                crate::events::EventKind::Mutate,
                crate::events::EventKind::Delete
            ]
        );
        // a wrong epoch resets
        let mut req = get("/events");
        req.query = vec![
            ("since".to_string(), "1".to_string()),
            ("epoch".to_string(), "12345".to_string()),
        ];
        assert!(
            crate::events::EventBatch::parse(&body_str(&handle(&st, &req)))
                .unwrap()
                .reset
        );
        // malformed cursors are 400
        let mut req = get("/events");
        req.query = vec![("since".to_string(), "nope".to_string())];
        assert_eq!(handle(&st, &req).status, 400);
        // healthz and metrics surface the head
        assert!(body_str(&handle(&st, &get("/healthz"))).contains("\"head\":3"));
        assert!(body_str(&handle(&st, &get("/metrics"))).contains("antruss_events_head_seq 3"));
    }

    #[test]
    fn purge_publishes_an_event() {
        let st = state();
        register_triangle(&st, "tri");
        let mut purge = post("/cache/purge", "");
        purge.query = vec![("graph".to_string(), "tri".to_string())];
        assert_eq!(handle(&st, &purge).status, 200);
        assert_eq!(handle(&st, &post("/cache/purge", "")).status, 200);
        let batch =
            crate::events::EventBatch::parse(&body_str(&handle(&st, &get("/events")))).unwrap();
        assert_eq!(batch.head, 3);
        assert_eq!(batch.events[1].kind, crate::events::EventKind::Purge);
        assert_eq!(batch.events[1].graph, "tri");
        assert_eq!(batch.events[2].graph, "", "purge-all has an empty graph");
    }

    #[test]
    fn solve_responses_carry_their_freshness_bound() {
        let st = state();
        register_triangle(&st, "tri");
        let solve = post("/solve", r#"{"graph":"tri","b":1}"#);
        let miss = handle(&st, &solve);
        assert_eq!(header(&miss, "x-antruss-events-head"), Some("1"));
        let hit = handle(&st, &solve);
        assert_eq!(header(&hit, "x-antruss-cache"), Some("hit"));
        assert_eq!(
            header(&hit, "x-antruss-events-head"),
            Some("1"),
            "a hit replays the computing request's bound"
        );
        // after a mutation the fresh miss carries the advanced head
        assert_eq!(
            handle(
                &st,
                &post("/graphs/tri/mutate", r#"{"insert":[[0,3],[1,3],[2,3]]}"#)
            )
            .status,
            200
        );
        let fresh = handle(&st, &solve);
        assert_eq!(header(&fresh, "x-antruss-cache"), Some("miss"));
        assert_eq!(header(&fresh, "x-antruss-events-head"), Some("2"));
    }

    #[test]
    fn cluster_cursor_headers_are_persisted() {
        let dir =
            std::env::temp_dir().join(format!("antruss-server-cursor-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let st = ServiceState::new(ServerConfig {
                data_dir: Some(dir.to_string_lossy().into_owned()),
                ..ServerConfig::default()
            });
            let mut req = post("/graphs", "0 1\n1 2\n2 0\n");
            req.query = vec![("name".to_string(), "tri".to_string())];
            req.headers = vec![
                ("x-antruss-cluster-seq".to_string(), "42".to_string()),
                ("x-antruss-cluster-epoch".to_string(), "9".to_string()),
            ];
            assert_eq!(handle(&st, &req).status, 201);
            assert_eq!(
                st.store.as_ref().unwrap().load_cluster_cursor(),
                Some((9, 42))
            );
            // failed writes must not advance the cursor
            let mut dup = req.clone();
            dup.headers = vec![
                ("x-antruss-cluster-seq".to_string(), "50".to_string()),
                ("x-antruss-cluster-epoch".to_string(), "9".to_string()),
            ];
            assert_eq!(handle(&st, &dup).status, 409);
            assert_eq!(
                st.store.as_ref().unwrap().load_cluster_cursor(),
                Some((9, 42))
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn events_survive_a_durable_restart() {
        let dir =
            std::env::temp_dir().join(format!("antruss-server-events-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServerConfig {
            data_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        };
        let epoch;
        {
            let st = ServiceState::new(config());
            register_triangle(&st, "tri");
            assert_eq!(
                handle(&st, &post("/graphs/tri/mutate", r#"{"insert":[[0,3]]}"#)).status,
                200
            );
            epoch = st.catalog.events().epoch();
            assert_eq!(st.catalog.events().head(), 2);
        }
        {
            let st = ServiceState::new(config());
            assert_eq!(st.catalog.events().epoch(), epoch, "epoch is durable");
            // a subscriber cursor from before the restart resumes
            // without a reset and sees the missed tail
            let mut req = get("/events");
            req.query = vec![
                ("since".to_string(), "1".to_string()),
                ("epoch".to_string(), epoch.to_string()),
            ];
            let batch = crate::events::EventBatch::parse(&body_str(&handle(&st, &req))).unwrap();
            assert!(!batch.reset, "{batch:?}");
            assert_eq!(batch.head, 2);
            assert_eq!(batch.events.len(), 1);
            assert_eq!(batch.events[0].kind, crate::events::EventKind::Mutate);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn solve_threads_are_capped_but_results_unchanged() {
        let st = state();
        let a = handle(
            &st,
            &post("/solve", r#"{"graph":"college:0.05","b":2,"threads":1}"#),
        );
        // threads is not part of the cache key, so this second request —
        // differing only in thread count — must be a byte-identical hit
        let b = handle(
            &st,
            &post("/solve", r#"{"graph":"college:0.05","b":2,"threads":9999}"#),
        );
        assert_eq!(a.body, b.body);
        assert!(b
            .extra_headers
            .iter()
            .any(|(n, v)| n == "x-antruss-cache" && v == "hit"));
    }
}
