//! The cluster front end: a router that places graphs on backends via
//! the consistent-hash ring, forwards requests over the service's
//! blocking client, fails over to replicas when a backend dies, warms
//! recovering replicas from healthy peers — and, since the membership
//! subsystem, grows and shrinks its backend set at runtime.
//!
//! ```text
//!                        ┌────────────┐   /healthz poll + warm-up
//!            ┌──────────►│ backend 0  │◄──────────────┐
//!            │           └────────────┘               │
//!  client ───┤  Router: ring.replicas(graph, R)  [health thread]
//!            │           ┌────────────┐               │
//!            ├──────────►│ backend 1  │◄──────────────┤
//!            │           └────────────┘               │
//!            │           ┌────────────┐     POST /members + heartbeats
//!            └──────────►│ backend 2  │  (antruss serve --join)
//!                        └────────────┘
//! ```
//!
//! Routing rules:
//!
//! * `/solve` goes to the graph's replicas in ring order; the first
//!   backend that answers wins, transport failures mark the backend
//!   unhealthy and fail over to the next replica;
//! * graph lifecycle (`POST /graphs`, `DELETE /graphs/{name}`,
//!   `POST /graphs/{name}/mutate`) fans out to **every** replica of the
//!   graph *concurrently* (scatter-gather over the pooled connections:
//!   the operation costs ~the slowest replica, not the sum), which is
//!   what keeps replicas interchangeable and kills cached outcomes
//!   everywhere the moment a graph changes. Every replica is attempted
//!   even when an earlier one fails; per-replica statuses ride in
//!   `x-antruss-replicas`;
//! * `/cache/purge` fans out to every backend, concurrently;
//! * `/graphs` merges every healthy backend's catalog (fetched
//!   concurrently); `/solvers` and unknown graph reads proxy to any
//!   healthy backend;
//! * `POST /members`, `POST /members/heartbeat`, `GET /members` and
//!   `DELETE /members/{addr}` are the membership protocol: external
//!   backends join, heartbeat, and leave at runtime; a dynamic member
//!   that misses its heartbeat deadline is evicted and its graphs
//!   re-placed onto the survivors (re-warmed from surviving replicas
//!   via the dump/load path, with `/cache/dump` pulled in pages so a
//!   big cache is never buffered whole on the router).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use antruss_core::json::{self, Value};
use antruss_obs::prof::{self, ProfRwLock};
use antruss_obs::slo::{Objective, SloSources};
use antruss_obs::trace;
use antruss_obs::{Histogram, Recorder, Registry, SlowTraces};
use antruss_service::events::random_epoch;
use antruss_service::http::{encode_component, Request, Response};
use antruss_service::metrics::{Phase, Phases};
use antruss_service::server::{epoch_now, subresource};
use antruss_service::tier::{self, relay, Front, Tier, SLOW_TRACE_CAP};
use antruss_service::{canonical_key, Client, ClientResponse, Event, EventKind, EventLog, Pool};
use antruss_store::store::{read_events_meta, write_events_meta};
use antruss_store::OpLog;
use bytes::Bytes;

use crate::membership::{Clock, MemberOp, MemberOpKind, Membership, MembershipConfig, SystemClock};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Tunables of one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`"127.0.0.1:0"` = ephemeral port).
    pub addr: String,
    /// Router worker threads (0 = one per available core, capped at 8).
    pub threads: usize,
    /// Seed backend addresses (static members: health-checked but never
    /// heartbeat-evicted). May be empty — external backends can join at
    /// runtime via `POST /members`.
    pub backends: Vec<SocketAddr>,
    /// Replica factor R: how many backends own each graph.
    pub replication: usize,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Health-check + membership-tick cadence, in milliseconds (0
    /// disables the background thread — failover then relies purely on
    /// forward errors, nothing is warmed automatically, and evictions
    /// only happen when [`Router::tick`] is called by hand, which is
    /// exactly what the deterministic test harness wants).
    pub health_interval_ms: u64,
    /// Expected heartbeat cadence for dynamic members, milliseconds.
    pub heartbeat_ms: u64,
    /// Missed-heartbeat intervals tolerated before eviction.
    pub miss_threshold: u32,
    /// Cadence of the metrics-history sampler, milliseconds (0 disables
    /// it — tests then drive [`RouterState::record_history`] by hand
    /// with synthetic timestamps).
    pub metrics_interval_ms: u64,
    /// Service-level objectives evaluated over the history ring
    /// (empty = no SLO engine; `/healthz` keeps its `ok`/`down` body).
    pub slos: Vec<Objective>,
    /// Peer router addresses to gossip the dynamic member table with on
    /// every supervision tick (empty = standalone router, no gossip).
    /// Re-pointable at runtime via [`RouterState::set_peers`] — the
    /// test harness wires ephemeral-port peers after they bind.
    pub peers: Vec<SocketAddr>,
    /// Data directory for the router's durable control-plane state: the
    /// `members.log` op log (dynamic member table) and `events.meta`
    /// (event-stream epoch + head). `None` = memory only; a restart
    /// then waits out re-joins instead of recovering from disk.
    pub data_dir: Option<String>,
}

impl Default for RouterConfig {
    /// Loopback ephemeral port, R=2, 256 vnodes, 8 MiB bodies, 500 ms
    /// health cadence, 1 s heartbeats with a 3-miss eviction threshold —
    /// and no backends, which the caller supplies (or lets join).
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            backends: Vec::new(),
            replication: 2,
            vnodes: DEFAULT_VNODES,
            max_body_bytes: 8 * 1024 * 1024,
            health_interval_ms: 500,
            heartbeat_ms: 1000,
            miss_threshold: 3,
            metrics_interval_ms: 5000,
            slos: Vec::new(),
            peers: Vec::new(),
            data_dir: None,
        }
    }
}

/// `/cache/dump` page size during warm-up replay: peers are drained
/// `offset`/`limit` page by page, so the router holds at most one page
/// of a peer's cache in memory instead of the whole dump.
const DUMP_PAGE: usize = 64;

/// Live view of one backend.
pub struct BackendState {
    /// The backend's address.
    pub addr: SocketAddr,
    /// The member's stable ring id (surfaced as `x-antruss-shard`).
    pub ring_id: u32,
    /// Cleared on transport failure or failed health check; set after a
    /// successful check (plus warm-up when it was down).
    pub healthy: AtomicBool,
    /// Requests this backend answered for the router.
    pub forwarded: AtomicU64,
    /// Times this backend was skipped or failed mid-forward.
    pub failovers: AtomicU64,
    /// Cache entries pushed into this backend by warm-up.
    pub warmed: AtomicU64,
    /// Keep-alive connections for forwards.
    pool: Pool,
}

impl BackendState {
    fn new(addr: SocketAddr, ring_id: u32) -> BackendState {
        BackendState {
            addr,
            ring_id,
            healthy: AtomicBool::new(true),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            warmed: AtomicU64::new(0),
            pool: Pool::new(addr),
        }
    }
}

/// An immutable snapshot of the live membership: the placement ring plus
/// the member states, in stable membership order. Requests operate on
/// one snapshot end to end; membership changes swap in a new one.
pub struct RouterView {
    /// The placement ring over the live members' ring ids.
    pub ring: HashRing,
    /// Per-member health and counters (position matches the ring's).
    pub backends: Vec<Arc<BackendState>>,
}

impl RouterView {
    /// The positions (into [`RouterView::backends`]) owning `graph`, in
    /// preference order.
    pub fn placement(&self, graph: &str, replication: usize) -> Vec<usize> {
        self.ring
            .replicas(&canonical_key(graph), replication.max(1))
    }

    /// The position of the member at `addr`, if it is live.
    pub fn position_of(&self, addr: SocketAddr) -> Option<usize> {
        self.backends.iter().position(|b| b.addr == addr)
    }
}

/// The phases the router records, in exposition order: time queued
/// behind the worker pool, idle keep-alive wait, request parse,
/// downstream forwards (single-backend and fan-out alike), and the
/// response write.
const ROUTER_PHASES: [Phase; 5] = [
    Phase::QueueWait,
    Phase::AcceptWait,
    Phase::Parse,
    Phase::Forward,
    Phase::Write,
];

/// What the health tick learned about one member the last time it
/// visited: readiness, SLO status, and the key series `GET
/// /cluster/overview` federates. One summary per member address,
/// refreshed every tick; a member the tick cannot reach keeps its last
/// summary with `status = "down"` so the overview still names it.
#[derive(Debug, Clone)]
pub struct MemberSummary {
    /// `/readyz` verdict: `Some(true)` ready, `Some(false)` draining,
    /// `None` when the member predates `/readyz` or was unreachable.
    pub ready: Option<bool>,
    /// The member's own health verdict: `ok`/`degraded`/`critical`
    /// from its `/healthz` body, or `down` when unreachable.
    pub status: String,
    /// The objective the member reported as burning, if any.
    pub burning: Option<String>,
    /// Lifetime `antruss_requests_total` at the last probe.
    pub requests: f64,
    /// Requests/second between the two most recent probes.
    pub throughput: f64,
    /// Lifetime `antruss_http_errors_total` at the last probe.
    pub errors: f64,
    /// The member's lifetime solve p99, seconds.
    pub p99_seconds: f64,
    /// Cache hits / (hits + misses), or 0 before any lookup.
    pub hit_ratio: f64,
    /// The member's catalog event head seq (its own seq space).
    pub events_head: u64,
    /// Cumulative CPU seconds by thread role, federated from the
    /// member's `antruss_prof_cpu_seconds_total` series (empty when the
    /// member predates profiling).
    pub cpu_by_role: Vec<(String, f64)>,
    /// The member's worst lock by total wait: `(name, wait_seconds)`.
    pub top_lock: Option<(String, f64)>,
    /// Unix seconds when this summary was last refreshed.
    pub updated_ts: f64,
}

/// Everything the router's request handlers share.
pub struct RouterState {
    /// The configuration the router started with.
    pub config: RouterConfig,
    /// The membership table (joins, heartbeats, eviction policy).
    pub membership: Membership,
    view: ProfRwLock<Arc<RouterView>>,
    /// Requests accepted (any route, any status).
    pub requests: AtomicU64,
    /// Responses with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Total failover events (a replica answered after an earlier one
    /// could not).
    pub failovers: AtomicU64,
    /// Graphs re-registered into recovering/joining backends by warm-up.
    pub warmed_graphs: AtomicU64,
    /// Graphs warm-up did **not** transfer because the joining backend
    /// already held a byte-identical copy — the disk-first recovery
    /// path (`antruss serve --data-dir`): a restarted member replays
    /// its local WAL + snapshots, and only diverged graphs and the
    /// outcome-cache delta cross the network.
    pub warm_skipped_graphs: AtomicU64,
    /// Dynamic members registered over the router's lifetime.
    pub joins: AtomicU64,
    /// Joins served by the event-tail catch-up path (the member
    /// advertised a usable cluster cursor) instead of a full re-warm.
    pub catchup_joins: AtomicU64,
    /// Dynamic members evicted for missing heartbeats.
    pub evictions: AtomicU64,
    /// The router's own event log: one event per successful cluster
    /// write (register / mutate / delete / purge), in the order the
    /// router completed them. This is the cluster-level analogue of the
    /// catalog event stream a single backend serves: edge replicas
    /// subscribe to it via `GET /events`, and rejoining members replay
    /// its tail to catch up instead of re-warming from scratch. Seqs
    /// live in *router* space — they are unrelated to any backend's own
    /// catalog seqs.
    pub events: EventLog,
    /// Flipped once; the acceptor, workers and health thread observe it.
    pub shutdown: AtomicBool,
    /// End-to-end latency of every routed request.
    pub request_hist: Histogram,
    /// Per-phase latency (the [`ROUTER_PHASES`] are exported).
    phases: Phases,
    /// The slowest request timelines this router originated, served at
    /// `GET /debug/traces` and dumped on SIGINT drain.
    pub traces: SlowTraces,
    /// Bounded metrics-history ring behind `GET /metrics/history`,
    /// sampled from [`tier::registry`] every `metrics_interval_ms` and
    /// feeding the SLO burn-rate windows.
    pub recorder: Recorder,
    /// Last-known per-member summaries, refreshed by [`tick_state`] and
    /// served at `GET /cluster/overview`.
    overview: Mutex<BTreeMap<SocketAddr, MemberSummary>>,
    /// Peer routers gossiped with on every tick (see
    /// [`RouterState::set_peers`]).
    peers: Mutex<Vec<SocketAddr>>,
    /// The durable member-op log (`--router-data-dir`): every dynamic
    /// membership transition — minted locally or absorbed from a peer —
    /// is appended (fsync'd) before the next tick, and a restart
    /// recovers the member table from it instead of waiting out
    /// re-joins.
    member_log: Option<OpLog>,
    /// Outbound gossip exchanges attempted (one per peer per tick).
    pub gossip_rounds: AtomicU64,
    /// Ops absorbed from peers that changed this router's member table.
    pub gossip_applied: AtomicU64,
    /// Outbound gossip exchanges that failed at the transport or HTTP
    /// level.
    pub gossip_failures: AtomicU64,
    /// Peer evictions vetoed because the member was fresh here (the
    /// eviction/gossip race: a member heartbeating this router must not
    /// flap just because a partitioned peer stopped hearing it).
    pub gossip_vetoes: AtomicU64,
    /// Dynamic members recovered from the durable op log at startup.
    pub members_recovered: AtomicU64,
    started: Instant,
}

impl RouterState {
    /// Fresh state for `config`, on the wall clock. Panics when the
    /// configured data dir cannot be opened — use
    /// [`RouterState::try_with_clock`] to surface the error.
    pub fn new(config: RouterConfig) -> RouterState {
        RouterState::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// Fresh state reading time from `clock` (the deterministic test
    /// harness injects a [`crate::membership::ManualClock`] here).
    /// Panics when the configured data dir cannot be opened.
    pub fn with_clock(config: RouterConfig, clock: Arc<dyn Clock>) -> RouterState {
        RouterState::try_with_clock(config, clock).expect("open router state")
    }

    /// Like [`RouterState::with_clock`], surfacing data-dir errors
    /// (unreadable disk, a second router already holding the dir lock)
    /// instead of panicking. With a data dir configured, the dynamic
    /// member table is recovered from `members.log` — recovered members
    /// start with a full heartbeat deadline, and zero re-join
    /// round-trips are needed — and the event-stream identity (epoch +
    /// head) from `events.meta`, so cursors persisted by backends
    /// before the restart stay serveable.
    pub fn try_with_clock(
        config: RouterConfig,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<RouterState> {
        let membership = Membership::new(
            MembershipConfig {
                heartbeat_ms: config.heartbeat_ms,
                miss_threshold: config.miss_threshold,
            },
            clock,
        );
        membership.seed_static(&config.backends);
        let mut member_log = None;
        let mut event_meta = None;
        if let Some(dir) = &config.data_dir {
            let (log, payloads) = OpLog::open(dir, "members.log")?;
            let ops: Vec<MemberOp> = payloads.into_iter().filter_map(MemberOp::decode).collect();
            membership.recover(&ops);
            // superseded records accumulate across restarts; keep only
            // each address's surviving op on disk
            let latest: Vec<Bytes> = membership.ops().iter().map(MemberOp::encode).collect();
            if (latest.len() as u64) < log.records() {
                log.compact(&latest)?;
            }
            event_meta = read_events_meta(Path::new(dir));
            member_log = Some(log);
        }
        let recovered_members = membership.members().iter().filter(|m| !m.is_static).count() as u64;
        let events = EventLog::new(random_epoch());
        if let Some((epoch, head)) = event_meta {
            events.reseed(epoch, head, Vec::new());
        } else if let Some(dir) = &config.data_dir {
            // persist the fresh identity now, so even a router that
            // restarts before its first publish keeps one epoch
            write_events_meta(Path::new(dir), events.epoch(), 0)?;
        }
        let state = RouterState {
            membership,
            events,
            member_log,
            peers: Mutex::new(config.peers.clone()),
            gossip_rounds: AtomicU64::new(0),
            gossip_applied: AtomicU64::new(0),
            gossip_failures: AtomicU64::new(0),
            gossip_vetoes: AtomicU64::new(0),
            members_recovered: AtomicU64::new(recovered_members),
            view: ProfRwLock::new(
                "router_view",
                Arc::new(RouterView {
                    ring: HashRing::new(0, config.vnodes),
                    backends: Vec::new(),
                }),
            ),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            warmed_graphs: AtomicU64::new(0),
            warm_skipped_graphs: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            catchup_joins: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            request_hist: Histogram::new(),
            phases: Phases::default(),
            traces: SlowTraces::new(SLOW_TRACE_CAP),
            recorder: Recorder::new(config.metrics_interval_ms as f64 / 1000.0),
            overview: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
            config,
        };
        state.rebuild_view();
        Ok(state)
    }

    /// The current membership snapshot.
    pub fn view(&self) -> Arc<RouterView> {
        Arc::clone(&self.view.read().unwrap())
    }

    /// The peer routers currently gossiped with.
    pub fn peers(&self) -> Vec<SocketAddr> {
        self.peers.lock().unwrap().clone()
    }

    /// Re-points the gossip peer set (the test harness starts routers
    /// on ephemeral ports and wires them together afterwards).
    pub fn set_peers(&self, peers: Vec<SocketAddr>) {
        *self.peers.lock().unwrap() = peers;
    }

    /// Appends one member op to the durable log (no-op without a data
    /// dir). Failures are reported, not fatal: a router that cannot
    /// persist keeps serving — it just recovers less after a restart.
    fn persist_op(&self, op: &MemberOp) {
        if let Some(log) = &self.member_log {
            if let Err(e) = log.append(&op.encode()) {
                eprintln!("antruss-router: failed to log member op: {e}");
            }
        }
    }

    /// Persists ops the membership table minted on its own (join /
    /// leave / eviction paths mint internally; the latest per-address
    /// op is what must survive a restart).
    fn persist_latest_op(&self, addr: SocketAddr) {
        if self.member_log.is_some() {
            if let Some(op) = self.membership.last_op(addr) {
                self.persist_op(&op);
            }
        }
    }

    /// Rebuilds the snapshot from the membership table, carrying over
    /// the state (health flag, counters, connection pool) of members
    /// that persist across the change. The write lock is held across
    /// the read-compute-write, so two concurrent membership changes can
    /// never publish a view computed from a stale member list (which
    /// would silently drop the later change from routing).
    pub fn rebuild_view(&self) {
        self.rebuild_view_with(None);
    }

    /// Like [`RouterState::rebuild_view`], but a member appearing in
    /// the view for the first time at `join_unhealthy` starts with
    /// `healthy = false` — it joins the ring immediately but healthy
    /// replicas are preferred over it until its warm-up finishes, so a
    /// registered graph never 404s off a not-yet-warmed newcomer.
    pub fn rebuild_view_with(&self, join_unhealthy: Option<SocketAddr>) {
        let mut guard = self.view.write().unwrap();
        let members = self.membership.members();
        let old = Arc::clone(&guard);
        let backends: Vec<Arc<BackendState>> = members
            .iter()
            .map(|m| {
                old.backends
                    .iter()
                    .find(|b| b.addr == m.addr && b.ring_id == m.ring_id)
                    .cloned()
                    .unwrap_or_else(|| {
                        let b = BackendState::new(m.addr, m.ring_id);
                        if join_unhealthy == Some(m.addr) {
                            b.healthy.store(false, Ordering::Relaxed);
                        }
                        Arc::new(b)
                    })
            })
            .collect();
        let ids: Vec<u32> = members.iter().map(|m| m.ring_id).collect();
        let ring = HashRing::with_ids(&ids, self.config.vnodes);
        *guard = Arc::new(RouterView { ring, backends });
    }

    /// The positions owning `graph` in the current snapshot.
    pub fn placement(&self, graph: &str) -> Vec<usize> {
        self.view().placement(graph, self.config.replication)
    }

    /// Samples the router's registry into the history ring at unix
    /// second `ts` (the sampler thread passes the wall clock; tests
    /// pass synthetic trajectories).
    pub fn record_history(&self, ts: f64) {
        tier::record_history(self, ts)
    }

    /// The last-known summary for `addr`, if the health tick has
    /// visited it.
    pub fn member_summary(&self, addr: SocketAddr) -> Option<MemberSummary> {
        self.overview.lock().unwrap().get(&addr).cloned()
    }
}

impl Tier for RouterState {
    const NAME: &'static str = "router";

    fn counters(&self) -> (&AtomicU64, &AtomicU64) {
        (&self.requests, &self.errors)
    }

    fn traces(&self) -> &SlowTraces {
        &self.traces
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn phases(&self) -> &Phases {
        &self.phases
    }

    fn events(&self) -> &EventLog {
        &self.events
    }

    fn draining(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn objectives(&self) -> &[Objective] {
        &self.config.slos
    }

    /// The router's own request and error counters, and the
    /// per-interval p99 the recorder derives from the request histogram.
    fn slo_sources(&self) -> SloSources {
        SloSources {
            requests: "antruss_router_requests_total".to_string(),
            errors: "antruss_router_errors_total".to_string(),
            p99: "antruss_router_request_seconds{q=\"0.99\"}".to_string(),
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

/// One forwarded exchange with a backend over its connection pool.
/// Forwards issued on a request worker thread carry the request's trace
/// context downstream; background forwards (health probes, warm-up)
/// have no context and go out bare.
fn forward(
    backend: &BackendState,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> std::io::Result<ClientResponse> {
    let trace_headers = trace::current().map_or_else(Vec::new, |ctx| ctx.headers().to_vec());
    backend.pool.send(method, path, body, &trace_headers)
}

/// The cursor headers riding every fanned-out cluster write. The seq is
/// the head *before* the write's own event publishes (the event is only
/// assigned after the fan-out completes), so a member's persisted
/// cursor undercounts by exactly the in-flight write — catch-up then
/// replays one extra event's graph, which is safe and idempotent.
fn cursor_headers(state: &RouterState) -> Vec<(String, String)> {
    vec![
        (
            "x-antruss-cluster-seq".to_string(),
            state.events.head().to_string(),
        ),
        (
            "x-antruss-cluster-epoch".to_string(),
            state.events.epoch().to_string(),
        ),
    ]
}

/// Runs `op(0..n)` concurrently (one scoped thread per task beyond the
/// first) and returns the results **in input order** — the
/// scatter-gather primitive behind every replica fan-out. With `n <= 1`
/// it runs inline, so single-replica operations pay no thread cost.
fn scatter<R: Send>(n: usize, op: impl Fn(usize) -> R + Send + Sync) -> Vec<R> {
    if n <= 1 {
        return (0..n).map(op).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    thread::scope(|s| {
        let op = &op;
        // tasks 1..n on spawned threads, task 0 on the caller's thread
        // (which would otherwise idle in join)
        let handles: Vec<_> = (1..n).map(|i| s.spawn(move || op(i))).collect();
        out[0] = Some(op(0));
        for (slot, h) in out[1..].iter_mut().zip(handles) {
            *slot = Some(h.join().expect("scatter worker panicked"));
        }
    });
    out.into_iter().map(|r| r.unwrap()).collect()
}

/// Relays a backend reply, tagged with the ring id of the member that
/// answered.
fn relay_from(resp: &ClientResponse, ring_id: u32) -> Response {
    relay(resp).set_header("x-antruss-shard", &ring_id.to_string())
}

/// Routes one parsed request through the tier middleware
/// ([`tier::handle`]), which appends the router's hop record after
/// whatever hops the backend echoed back through [`relay_from`].
pub fn handle(state: &RouterState, req: &Request) -> Response {
    tier::handle(state, req)
}

fn route(state: &RouterState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/cluster/overview") => cluster_overview(state),
        ("GET", "/ring") => ring_info(state, req),
        ("GET", "/members") => members_list(state),
        ("POST", "/members") => members_join(state, req),
        ("POST", "/members/heartbeat") => members_heartbeat(state, req),
        ("POST", "/gossip") => gossip_exchange(state, req),
        ("DELETE", p) if p.strip_prefix("/members/").is_some_and(|a| !a.is_empty()) => {
            members_leave(state, p.strip_prefix("/members/").unwrap())
        }
        ("GET", "/solvers") => proxy_any(state, "GET", "/solvers", None),
        ("GET", "/graphs") => merged_graphs(state),
        ("POST", "/solve") => route_solve(state, req),
        ("POST", "/graphs") => fan_out_register(state, req),
        ("POST", "/cache/purge") => fan_out_purge(state, req),
        ("POST", p) if subresource(p, "/mutate").is_some() => {
            fan_out_graph_op(state, req, subresource(p, "/mutate").unwrap())
        }
        ("DELETE", p) if p.strip_prefix("/graphs/").is_some_and(|n| !n.is_empty()) => {
            fan_out_graph_op(state, req, p.strip_prefix("/graphs/").unwrap())
        }
        ("GET" | "POST" | "DELETE", _) => {
            Response::error(404, &format!("no route for {}", req.path))
        }
        _ => Response::error(405, &format!("method {} not allowed", req.method)),
    }
}

fn healthz(state: &RouterState) -> Response {
    let view = state.view();
    let healthy = view
        .backends
        .iter()
        .filter(|b| b.healthy.load(Ordering::Relaxed))
        .count();
    // a member-less router is still a healthy router: it is up and
    // waiting for backends to join
    let ok = healthy > 0 || view.backends.is_empty();
    // reachability is necessary but not sufficient: with objectives
    // configured the verdict of a reachable router is the SLO burn level
    let (status, slo_json) = if ok {
        tier::slo_health(state)
    } else {
        ("\"status\":\"down\"".to_string(), String::new())
    };
    let mut body = format!("{{{status},\"backends\":[");
    for (i, b) in view.backends.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"shard\":{},\"addr\":{},\"healthy\":{}}}",
            b.ring_id,
            json::quoted(&b.addr.to_string()),
            b.healthy.load(Ordering::Relaxed)
        ));
    }
    body.push(']');
    body.push_str(&slo_json);
    body.push('}');
    Response::json(if ok { 200 } else { 503 }, body)
}

/// `GET /cluster/overview` — the federated view the health tick
/// maintains: the router's own SLO verdict and throughput, plus one
/// entry per member with its health level, request rate, solve p99,
/// cache hit ratio, event head, and how stale that summary is. Members
/// the tick has not visited yet (or a router running with
/// `health_interval_ms = 0` and no manual ticks) report an empty list.
fn cluster_overview(state: &RouterState) -> Response {
    let now = epoch_now();
    let view = state.view();
    let members = state.membership.members();
    let summaries = state.overview.lock().unwrap().clone();
    let mut body = String::from("{");
    // the router's own summary, from its history ring
    let throughput = state
        .recorder
        .latest("antruss_router_requests_total")
        .and_then(|p| p.rate)
        .unwrap_or(0.0);
    let p99 = state
        .recorder
        .latest("antruss_router_request_seconds{q=\"0.99\"}")
        .map(|p| p.value)
        .unwrap_or(0.0);
    let status = if state.config.slos.is_empty() {
        "ok".to_string()
    } else {
        tier::slo_report(state).level().as_str().to_string()
    };
    body.push_str(&format!(
        "\"router\":{{\"status\":{},\"requests\":{},\"throughput\":{throughput:.3},\
         \"p99_seconds\":{p99:.6},\"events_head\":{},\"replication\":{}}}",
        json::quoted(&status),
        state.requests.load(Ordering::Relaxed),
        state.events.head(),
        state.config.replication,
    ));
    body.push_str(",\"members\":[");
    for (i, m) in members.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let healthy = view
            .position_of(m.addr)
            .map(|p| view.backends[p].healthy.load(Ordering::Relaxed))
            .unwrap_or(false);
        body.push_str(&format!(
            "{{\"shard\":{},\"addr\":{},\"static\":{},\"healthy\":{healthy}",
            m.ring_id,
            json::quoted(&m.addr.to_string()),
            m.is_static,
        ));
        match summaries.get(&m.addr) {
            Some(s) => {
                let ready = match s.ready {
                    Some(true) => "\"ready\"",
                    Some(false) => "\"draining\"",
                    None => "\"unknown\"",
                };
                body.push_str(&format!(
                    ",\"ready\":{ready},\"status\":{},\"requests\":{},\
                     \"throughput\":{:.3},\"errors\":{},\"p99_seconds\":{:.6},\
                     \"hit_ratio\":{:.4},\"events_head\":{},\"staleness_seconds\":{:.1}",
                    json::quoted(&s.status),
                    s.requests as u64,
                    s.throughput,
                    s.errors as u64,
                    s.p99_seconds,
                    s.hit_ratio,
                    s.events_head,
                    (now - s.updated_ts).max(0.0),
                ));
                if let Some(burning) = &s.burning {
                    body.push_str(&format!(",\"burning\":{}", json::quoted(burning)));
                }
                if !s.cpu_by_role.is_empty() {
                    body.push_str(",\"cpu_by_role\":{");
                    for (j, (role, secs)) in s.cpu_by_role.iter().enumerate() {
                        if j > 0 {
                            body.push(',');
                        }
                        body.push_str(&format!("{}:{secs:.3}", json::quoted(role)));
                    }
                    body.push('}');
                }
                if let Some((lock, wait)) = &s.top_lock {
                    body.push_str(&format!(
                        ",\"top_lock\":{{\"lock\":{},\"wait_seconds\":{wait:.6}}}",
                        json::quoted(lock)
                    ));
                }
            }
            None => body.push_str(",\"ready\":\"unknown\",\"status\":\"unknown\""),
        }
        body.push('}');
    }
    body.push_str(&format!("],\"ts\":{now:.1}}}"));
    Response::json(200, body)
}

/// The router's own metric families.
fn families(state: &RouterState) -> Registry {
    let view = state.view();
    let members = state.membership.members();
    let dynamic = members.iter().filter(|m| !m.is_static).count();
    let mut reg = Registry::new();
    reg.gauge(
        "antruss_router_uptime_seconds",
        state.started.elapsed().as_secs_f64(),
    );
    reg.counter(
        "antruss_router_requests_total",
        state.requests.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_errors_total",
        state.errors.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_failovers_total",
        state.failovers.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_warmed_graphs_total",
        state.warmed_graphs.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_warm_skipped_graphs_total",
        state.warm_skipped_graphs.load(Ordering::Relaxed),
    );
    reg.gauge("antruss_router_backends", view.backends.len() as f64);
    reg.gauge("antruss_router_dynamic_members", dynamic as f64);
    reg.counter(
        "antruss_router_joins_total",
        state.joins.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_catchup_joins_total",
        state.catchup_joins.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_evictions_total",
        state.evictions.load(Ordering::Relaxed),
    );
    reg.gauge(
        "antruss_router_gossip_peers",
        state.peers.lock().unwrap().len() as f64,
    );
    reg.counter(
        "antruss_router_gossip_rounds_total",
        state.gossip_rounds.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_gossip_ops_applied_total",
        state.gossip_applied.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_gossip_failures_total",
        state.gossip_failures.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_gossip_vetoes_total",
        state.gossip_vetoes.load(Ordering::Relaxed),
    );
    reg.counter(
        "antruss_router_member_recover_total",
        state.members_recovered.load(Ordering::Relaxed),
    );
    reg.gauge_u64("antruss_router_events_epoch", state.events.epoch());
    reg.gauge_u64("antruss_router_events_head_seq", state.events.head());
    reg.gauge(
        "antruss_router_replication",
        state.config.replication as f64,
    );
    for b in &view.backends {
        let shard = b.ring_id.to_string();
        let addr = b.addr.to_string();
        let labels: [(&str, &str); 2] = [("shard", &shard), ("addr", &addr)];
        reg.gauge_with(
            "antruss_router_shard_healthy",
            &labels,
            b.healthy.load(Ordering::Relaxed) as u8 as f64,
        );
        reg.counter_with(
            "antruss_router_shard_requests_total",
            &labels,
            b.forwarded.load(Ordering::Relaxed),
        );
        reg.counter_with(
            "antruss_router_shard_failovers_total",
            &labels,
            b.failovers.load(Ordering::Relaxed),
        );
        reg.counter_with(
            "antruss_router_shard_warmed_entries_total",
            &labels,
            b.warmed.load(Ordering::Relaxed),
        );
    }
    let request = state.request_hist.snapshot();
    reg.histogram("antruss_router_request_seconds", &[], &request);
    reg.quantiles("antruss_router_request_quantile_seconds", &[], &request);
    state
        .phases
        .register(&mut reg, "antruss_router_request_phase", &ROUTER_PHASES);
    reg
}

/// `GET /ring?graph=N` — where a graph lives; `GET /ring` without a
/// graph — the whole membership as the ring sees it (debugging, tests,
/// ops, and the acceptance check that a joined backend "appears in
/// /ring").
fn ring_info(state: &RouterState, req: &Request) -> Response {
    let view = state.view();
    let Some(graph) = req.query_param("graph") else {
        let members = state.membership.members();
        let mut body = String::from("{\"members\":[");
        for (i, m) in members.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let healthy = view
                .position_of(m.addr)
                .map(|p| view.backends[p].healthy.load(Ordering::Relaxed))
                .unwrap_or(false);
            body.push_str(&format!(
                "{{\"shard\":{},\"addr\":{},\"static\":{},\"healthy\":{healthy}}}",
                m.ring_id,
                json::quoted(&m.addr.to_string()),
                m.is_static
            ));
        }
        body.push_str(&format!(
            "],\"replication\":{},\"vnodes\":{}}}",
            state.config.replication, state.config.vnodes
        ));
        return Response::json(200, body);
    };
    let key = canonical_key(graph);
    let replicas = view.placement(graph, state.config.replication);
    let mut body = format!("{{\"graph\":{},\"replicas\":[", json::quoted(&key));
    for (i, r) in replicas.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"shard\":{},\"addr\":{}}}",
            view.backends[*r].ring_id,
            json::quoted(&view.backends[*r].addr.to_string())
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// Parses the `{"addr":"host:port"}` body of the membership endpoints.
fn member_addr(req: &Request) -> Result<SocketAddr, Response> {
    let Some(text) = req.body_utf8() else {
        return Err(Response::error(400, "body is not UTF-8"));
    };
    let parsed = json::parse(text).map_err(|e| Response::error(400, &e.to_string()))?;
    let Some(addr) = parsed.get("addr").and_then(Value::as_str) else {
        return Err(Response::error(400, "missing string field \"addr\""));
    };
    addr.parse::<SocketAddr>()
        .map_err(|e| Response::error(400, &format!("bad member address {addr:?}: {e}")))
}

/// The optional cluster cursor a joining member advertises:
/// `"cursor": <seq>` plus `"epoch": "<decimal-string>"` (a string, like
/// the event wire format — a u64 epoch does not survive a float JSON
/// number). `None` when absent or malformed — malformed just means the
/// slower full re-warm. Epoch 0 is treated as absent: the event log
/// reads a 0 hint as "first contact, never a mismatch", which would let
/// a cursor from a different router's history slip through.
fn member_cursor(req: &Request) -> Option<(u64, u64)> {
    let parsed = json::parse(req.body_utf8()?).ok()?;
    let cursor = parsed.get("cursor")?.as_u64()?;
    let epoch: u64 = parsed.get("epoch")?.as_str()?.parse().ok()?;
    (epoch != 0).then_some((epoch, cursor))
}

/// `POST /members` — an external backend registers itself. The member
/// is placed on the ring immediately and warmed synchronously, so by
/// the time the join response arrives the new backend can serve its
/// share of the keyspace. Idempotent: a re-join refreshes the heartbeat
/// and keeps the ring id.
///
/// Two warm paths:
///
/// * **catch-up** — the member advertised a cluster cursor (persisted
///   from the `x-antruss-cluster-seq` headers riding fanned-out writes)
///   that this router's event log can still replay: only the graphs
///   touched by the missed tail are re-synced and only their cached
///   outcomes purged — the member's disk-recovered catalog and warm
///   cache survive. A purge-all event in the tail, an epoch mismatch
///   (cursor from a previous router life) or a cursor outside retention
///   all fall back to the full path;
/// * **full** — no usable cursor: the member's state is unknown, so its
///   cache is purged and everything is rebuilt from the live peers
///   (dump/load remains the cold-start fallback).
fn members_join(state: &RouterState, req: &Request) -> Response {
    let addr = match member_addr(req) {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    let advertised = member_cursor(req);
    let (ring_id, rejoin) = state.membership.join(addr);
    state.persist_latest_op(addr);
    if !rejoin {
        state.joins.fetch_add(1, Ordering::Relaxed);
    }
    // the newcomer goes on the ring immediately but unhealthy, so
    // healthy replicas out-rank it until it is warmed — a solve routed
    // during the warm-up window fails over instead of 404ing off the
    // still-empty backend
    state.rebuild_view_with(Some(addr));
    // the missed event tail, when the advertised cursor is serveable
    let tail = advertised.and_then(|(epoch, cursor)| {
        let batch = state.events.since(cursor, Some(epoch));
        let purge_all = batch
            .events
            .iter()
            .any(|e| e.kind == EventKind::Purge && e.graph.is_empty());
        (!batch.reset && !purge_all).then_some(batch.events)
    });
    let (graphs, entries, warm) = match tail {
        Some(events) => {
            state.catchup_joins.fetch_add(1, Ordering::Relaxed);
            let (g, e) = catch_up_backend(state, addr, &events);
            (g, e, "catchup")
        }
        None => {
            let (g, e) = warm_backend(state, addr, true);
            (g, e, "full")
        }
    };
    let view = state.view();
    if let Some(idx) = view.position_of(addr) {
        view.backends[idx].healthy.store(true, Ordering::Relaxed);
    }
    let cfg = state.membership.config();
    Response::json(
        if rejoin { 200 } else { 201 },
        format!(
            "{{\"addr\":{},\"shard\":{ring_id},\"rejoin\":{rejoin},\
             \"heartbeat_ms\":{},\"miss_threshold\":{},\"warm\":{},\
             \"warmed_graphs\":{graphs},\"warmed_entries\":{entries}}}",
            json::quoted(&addr.to_string()),
            cfg.heartbeat_ms,
            cfg.miss_threshold,
            json::quoted(warm)
        ),
    )
}

/// `POST /members/heartbeat` — a dynamic member proves liveness. 404
/// tells an evicted (or never-joined) member to re-join.
fn members_heartbeat(state: &RouterState, req: &Request) -> Response {
    let addr = match member_addr(req) {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    if state.membership.heartbeat(addr) {
        Response::json(200, "{\"status\":\"ok\"}")
    } else {
        Response::error(404, &format!("{addr} is not a member; re-join"))
    }
}

/// `GET /members` — the membership table with per-member silence.
fn members_list(state: &RouterState) -> Response {
    let view = state.view();
    let now = state.membership.now_ms();
    let cfg = state.membership.config();
    let mut body = format!(
        "{{\"heartbeat_ms\":{},\"miss_threshold\":{},\"members\":[",
        cfg.heartbeat_ms, cfg.miss_threshold
    );
    for (i, m) in state.membership.members().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let healthy = view
            .position_of(m.addr)
            .map(|p| view.backends[p].healthy.load(Ordering::Relaxed))
            .unwrap_or(false);
        body.push_str(&format!(
            "{{\"addr\":{},\"shard\":{},\"static\":{},\"healthy\":{healthy},\
             \"silent_ms\":{}}}",
            json::quoted(&m.addr.to_string()),
            m.ring_id,
            m.is_static,
            now.saturating_sub(m.last_heartbeat_ms)
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// Renders this router's full gossip state: its per-address latest ops,
/// each Join carrying the member's heartbeat silence (relative
/// milliseconds, so the claim composes across per-process clock epochs).
fn render_gossip_body(state: &RouterState) -> String {
    let freshness: BTreeMap<SocketAddr, u64> = state.membership.freshness().into_iter().collect();
    let mut body = format!("{{\"from\":{},\"ops\":[", json::quoted(&state.config.addr));
    for (i, op) in state.membership.ops().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let silent = if op.kind == MemberOpKind::Join {
            freshness.get(&op.addr).copied()
        } else {
            None
        };
        body.push_str(&op.render_json(silent));
    }
    body.push_str("]}");
    body
}

/// Absorbs one batch of peer ops into the member table; returns how
/// many took effect. Two deviations from blind last-writer-wins:
///
/// * **eviction veto** — an Evict that would supersede our state for a
///   member that is *fresh here* (heartbeating inside its deadline) is
///   refused: the peer was partitioned from the member, not the member
///   dead. The refusal mints a refresh Join above the evict's seq, so
///   the bidirectional exchange carries the veto back and the member
///   never flaps off any ring;
/// * **freshness adoption** — a Join's `silent_ms` claim advances our
///   heartbeat view of the member when the peer heard it more recently,
///   so a member heartbeating only its primary router survives the
///   other routers' deadlines too.
fn absorb_gossip(state: &RouterState, ops: &[(MemberOp, Option<u64>)]) -> u64 {
    let mut applied = 0u64;
    for &(op, silent_ms) in ops {
        let supersedes = state
            .membership
            .last_op(op.addr)
            .is_none_or(|prev| op.supersedes(&prev));
        if op.kind == MemberOpKind::Evict && supersedes && state.membership.is_fresh(op.addr) {
            state.membership.observe_seq(op.seq);
            if let Some(refresh) = state.membership.mint_refresh(op.addr) {
                state.persist_op(&refresh);
                state.gossip_vetoes.fetch_add(1, Ordering::Relaxed);
            }
            continue;
        }
        if state.membership.apply_op(op) {
            state.persist_op(&op);
            applied += 1;
        }
        if op.kind == MemberOpKind::Join {
            if let Some(ms) = silent_ms {
                state.membership.observe_freshness(op.addr, ms);
            }
        }
    }
    if applied > 0 {
        state.gossip_applied.fetch_add(applied, Ordering::Relaxed);
        state.rebuild_view();
        rebalance(state);
    }
    applied
}

/// Parses a gossip body (`{"from":...,"ops":[...]}`) into ops with
/// their freshness claims.
fn parse_gossip_body(text: &str) -> Option<Vec<(MemberOp, Option<u64>)>> {
    let parsed = json::parse(text).ok()?;
    let ops = parsed.get("ops")?.as_array()?;
    ops.iter().map(MemberOp::parse_json).collect()
}

/// `POST /gossip` — one half of a bidirectional anti-entropy exchange:
/// absorb the sender's per-address latest ops, answer with ours. Both
/// sides converge to the identical member table (and therefore the
/// identical ring placement) after one successful round trip.
fn gossip_exchange(state: &RouterState, req: &Request) -> Response {
    let Some(text) = req.body_utf8() else {
        return Response::error(400, "body is not UTF-8");
    };
    let Some(ops) = parse_gossip_body(text) else {
        return Response::error(400, "malformed gossip body");
    };
    absorb_gossip(state, &ops);
    Response::json(200, render_gossip_body(state))
}

/// The outbound half, run on every supervision tick *before* eviction
/// decisions: push our op table to every peer, absorb each reply. A
/// peer that cannot be reached counts a failure and is retried next
/// tick — gossip is idempotent, so missed rounds only delay
/// convergence.
fn gossip_peers(state: &RouterState) {
    let peers = state.peers();
    if peers.is_empty() {
        return;
    }
    let body = render_gossip_body(state);
    for peer in peers {
        state.gossip_rounds.fetch_add(1, Ordering::Relaxed);
        let mut client = Client::new(peer);
        let reply = client
            .post("/gossip", "application/json", body.as_bytes())
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| parse_gossip_body(&r.body_string()));
        match reply {
            Some(ops) => {
                absorb_gossip(state, &ops);
            }
            None => {
                state.gossip_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// `DELETE /members/{addr}` — graceful leave: the member comes off the
/// ring and its graphs are re-placed onto (and re-warmed on) the
/// survivors before the response returns.
fn members_leave(state: &RouterState, raw: &str) -> Response {
    let Ok(addr) = raw.parse::<SocketAddr>() else {
        return Response::error(400, &format!("bad member address {raw:?}"));
    };
    if !state.membership.leave(addr) {
        return Response::error(404, &format!("{addr} is not a member"));
    }
    state.persist_latest_op(addr);
    state.rebuild_view();
    let (graphs, entries) = rebalance(state);
    Response::json(
        200,
        format!(
            "{{\"left\":{},\"replaced_graphs\":{graphs},\"replayed_entries\":{entries}}}",
            json::quoted(&addr.to_string())
        ),
    )
}

/// Forwards to the first healthy backend (any will do — e.g. `/solvers`
/// is identical everywhere).
fn proxy_any(state: &RouterState, method: &str, path: &str, body: Option<&[u8]>) -> Response {
    let view = state.view();
    let order: Vec<usize> = (0..view.backends.len()).collect();
    try_in_order(state, &view, &order, method, path, body)
}

/// Forwards to `order`'s backends until one answers; transport failures
/// mark the backend unhealthy and move on.
fn try_in_order(
    state: &RouterState,
    view: &RouterView,
    order: &[usize],
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Response {
    let mut skipped_any = false;
    let mut tried = vec![false; view.backends.len()];
    // healthy backends first (in the given order), then a last-resort
    // pass over not-yet-tried unhealthy ones — they may have just come
    // back and the health thread not noticed yet
    let passes: [bool; 2] = [true, false];
    for &want_healthy in &passes {
        for &i in order {
            let b = &view.backends[i];
            if tried[i] || b.healthy.load(Ordering::Relaxed) != want_healthy {
                continue;
            }
            tried[i] = true;
            let attempt = Instant::now();
            let result = forward(b, method, path, body);
            let took = attempt.elapsed();
            state.phases.observe(Phase::Forward, took);
            trace::note_phase("forward", took);
            match result {
                Ok(resp) => {
                    b.forwarded.fetch_add(1, Ordering::Relaxed);
                    // an unhealthy backend that answers is NOT marked
                    // healthy here: it may have restarted empty, and only
                    // the health loop's warm-up restores its graphs and
                    // cache before re-admitting it
                    if skipped_any {
                        state.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return relay_from(&resp, b.ring_id);
                }
                Err(_) => {
                    b.healthy.store(false, Ordering::Relaxed);
                    b.failovers.fetch_add(1, Ordering::Relaxed);
                    skipped_any = true;
                }
            }
        }
    }
    Response::error(
        502,
        &format!(
            "no backend answered {method} {path} (tried {})",
            order.len()
        ),
    )
}

/// `POST /solve` — consistent-hash placement + replica failover.
fn route_solve(state: &RouterState, req: &Request) -> Response {
    let Some(text) = req.body_utf8() else {
        return Response::error(400, "body is not UTF-8");
    };
    let parsed = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let Some(graph) = parsed.get("graph").and_then(Value::as_str) else {
        return Response::error(400, "missing string field \"graph\"");
    };
    let view = state.view();
    let order = view.placement(graph, state.config.replication);
    if order.is_empty() {
        return Response::error(503, "router has no backends");
    }
    // the freshness bound in *router* event space, read before the
    // forward: a cluster write that completes later publishes a higher
    // seq, so an edge subscribed to this router gates exactly as it
    // would against a single backend. Sound for backend cache hits too,
    // because a backend's gated insert (see the service cache) never
    // retains a body that predates a completed cluster write.
    let events_head = state.events.head();
    let events_epoch = state.events.epoch();
    // replace the backend's own stamps: an edge gates on the first one
    try_in_order(state, &view, &order, "POST", "/solve", Some(&req.body))
        .set_header("x-antruss-events-head", &events_head.to_string())
        .set_header("x-antruss-events-epoch", &events_epoch.to_string())
}

/// Publishes one cluster event and (with a data dir) persists the
/// stream's epoch + head, so a restarted router reseeds its event log
/// where it left off and members' persisted cursors stay serveable —
/// catch-up joins survive router restarts, not just member restarts.
fn publish_event(state: &RouterState, kind: EventKind, graph: &str, checksum: Option<u64>) -> u64 {
    let seq = state.events.publish(kind, graph, checksum);
    if let Some(dir) = &state.config.data_dir {
        if let Err(e) = write_events_meta(Path::new(dir), state.events.epoch(), seq) {
            eprintln!("antruss-router: failed to persist event cursor: {e}");
        }
    }
    seq
}

/// `POST /graphs?name=N` — register on every replica of `N`, so losing
/// any single backend loses no graph.
fn fan_out_register(state: &RouterState, req: &Request) -> Response {
    let Some(name) = req.query_param("name") else {
        return Response::error(400, "missing ?name= query parameter");
    };
    let view = state.view();
    let order = view.placement(name, state.config.replication);
    if order.is_empty() {
        return Response::error(503, "router has no backends");
    }
    let path = format!("/graphs?name={}", encode_component(name));
    let resp = fan_out(
        state,
        &view,
        &order,
        "POST",
        &path,
        Some(&req.body),
        &cursor_headers(state),
    );
    if resp.status < 400 {
        publish_event(state, EventKind::Register, &canonical_key(name), None);
    }
    resp
}

/// `POST /graphs/{name}/mutate` and `DELETE /graphs/{name}` — applied on
/// every replica so they stay interchangeable; each backend purges its
/// own cached outcomes for the graph as part of the operation.
fn fan_out_graph_op(state: &RouterState, req: &Request, name: &str) -> Response {
    let view = state.view();
    let order = view.placement(name, state.config.replication);
    if order.is_empty() {
        return Response::error(503, "router has no backends");
    }
    let (body, path, kind) = if req.method == "POST" {
        (
            Some(&req.body[..]),
            format!("/graphs/{}/mutate", encode_component(name)),
            EventKind::Mutate,
        )
    } else {
        (
            None,
            format!("/graphs/{}", encode_component(name)),
            EventKind::Delete,
        )
    };
    let resp = fan_out(
        state,
        &view,
        &order,
        req.method.as_str(),
        &path,
        body,
        &cursor_headers(state),
    );
    // the event publishes only after every replica was attempted and at
    // least one applied the write: a solve that read the head before
    // this point can never be stamped fresher than this mutation
    if resp.status < 400 {
        publish_event(state, kind, &canonical_key(name), None);
    }
    resp
}

/// `POST /cache/purge` — every backend drops the named graph's entries
/// (or everything).
fn fan_out_purge(state: &RouterState, req: &Request) -> Response {
    let view = state.view();
    let order: Vec<usize> = (0..view.backends.len()).collect();
    if order.is_empty() {
        return Response::error(503, "router has no backends");
    }
    let graph = req.query_param("graph");
    let path = match graph {
        Some(g) => format!("/cache/purge?graph={}", encode_component(g)),
        None => "/cache/purge".to_string(),
    };
    let resp = fan_out(
        state,
        &view,
        &order,
        "POST",
        &path,
        None,
        &cursor_headers(state),
    );
    if resp.status < 400 {
        // an empty graph name is the purge-all marker, as in the
        // catalog's own event stream
        let key = graph.map(canonical_key).unwrap_or_default();
        publish_event(state, EventKind::Purge, &key, None);
    }
    resp
}

/// Sends one operation to every listed backend **concurrently**
/// (scatter-gather: total latency ≈ the slowest replica, not the sum).
/// Every replica is attempted even when others fail, so partial
/// failures never leave a replica silently unattempted. The relayed
/// reply is the *best* one (lowest status) — e.g. a register that
/// succeeds on one replica and 409s on another (already present from a
/// previous life) reports the success; per-replica results ride in
/// `x-antruss-replicas` as `shard:status` pairs in placement order.
/// Backends that fail at transport level are marked unhealthy and
/// reported as status 0.
fn fan_out(
    state: &RouterState,
    view: &RouterView,
    order: &[usize],
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    headers: &[(String, String)],
) -> Response {
    // the scatter workers run on scoped threads where the request's
    // thread-local trace context is invisible — capture it here and ride
    // it on the explicit headers instead
    let mut headers = headers.to_vec();
    if let Some(ctx) = trace::current() {
        headers.extend(ctx.headers());
    }
    let headers = &headers[..];
    let started = Instant::now();
    let results: Vec<Option<ClientResponse>> = scatter(order.len(), |j| {
        let b = &view.backends[order[j]];
        match b.pool.send(method, path, body, headers) {
            Ok(resp) => {
                b.forwarded.fetch_add(1, Ordering::Relaxed);
                Some(resp)
            }
            Err(_) => {
                b.healthy.store(false, Ordering::Relaxed);
                b.failovers.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    });
    let mut statuses: Vec<(u32, u16)> = Vec::with_capacity(order.len());
    let mut best: Option<(u32, &ClientResponse)> = None;
    for (j, result) in results.iter().enumerate() {
        let ring_id = view.backends[order[j]].ring_id;
        match result {
            Some(resp) => {
                statuses.push((ring_id, resp.status));
                let better = match &best {
                    None => true,
                    Some((_, cur)) => resp.status < cur.status,
                };
                if better {
                    best = Some((ring_id, resp));
                }
            }
            None => statuses.push((ring_id, 0)),
        }
    }
    let took = started.elapsed();
    state.phases.observe(Phase::Forward, took);
    trace::note_phase("fanout", took);
    match best {
        Some((ring_id, resp)) => {
            let detail = statuses
                .iter()
                .map(|(i, s)| format!("{i}:{s}"))
                .collect::<Vec<_>>()
                .join(",");
            relay_from(resp, ring_id).with_header("x-antruss-replicas", &detail)
        }
        None => Response::error(
            502,
            &format!(
                "no replica answered {method} {path} (tried {})",
                order.len()
            ),
        ),
    }
}

/// `GET /graphs` — the union of every healthy backend's catalog,
/// fetched concurrently. Shards hold disjoint (except for replication)
/// registered sets, so the cluster-level listing is the merge,
/// deduplicated by name; the dataset-slug section is identical
/// everywhere and taken from the first backend that answers.
fn merged_graphs(state: &RouterState) -> Response {
    let view = state.view();
    // as in fan_out: the trace context must be captured before the
    // scatter threads, which cannot see this request's thread-local
    let trace_headers = trace::current().map_or_else(Vec::new, |ctx| ctx.headers().to_vec());
    let started = Instant::now();
    let listings: Vec<Option<String>> = scatter(view.backends.len(), |i| {
        let b = &view.backends[i];
        if !b.healthy.load(Ordering::Relaxed) {
            return None;
        }
        match b.pool.send("GET", "/graphs", None, &trace_headers) {
            Ok(resp) => Some(resp.body_string()),
            Err(_) => {
                b.healthy.store(false, Ordering::Relaxed);
                None
            }
        }
    });
    let took = started.elapsed();
    state.phases.observe(Phase::Forward, took);
    trace::note_phase("fanout", took);
    let mut by_name: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    let mut datasets: Option<String> = None;
    let mut answered = 0usize;
    for listing in listings.into_iter().flatten() {
        answered += 1;
        let Ok(parsed) = json::parse(&listing) else {
            continue;
        };
        if let Some(loaded) = parsed.get("loaded").and_then(Value::as_array) {
            for entry in loaded {
                if let Some(name) = entry.get("name").and_then(Value::as_str) {
                    by_name
                        .entry(name.to_string())
                        .or_insert_with(|| entry.to_json());
                }
            }
        }
        if datasets.is_none() {
            if let Some(d) = parsed.get("datasets") {
                datasets = Some(d.to_json());
            }
        }
    }
    if answered == 0 {
        return Response::error(502, "no backend answered GET /graphs");
    }
    let loaded = by_name.values().cloned().collect::<Vec<_>>().join(",");
    Response::json(
        200,
        format!(
            "{{\"loaded\":[{loaded}],\"datasets\":{}}}",
            datasets.unwrap_or_else(|| "[]".to_string())
        ),
    )
}

/// A snapshot of the peers' write activity (mutations applied, entries
/// purged, catalog size), used to detect graph lifecycle operations
/// that raced a warm-up pass.
fn peer_write_fingerprint(view: &RouterView, idx: usize) -> Vec<(usize, u64, u64, u64)> {
    let mut out = Vec::new();
    for (peer_idx, peer) in view.backends.iter().enumerate() {
        if peer_idx == idx || !peer.healthy.load(Ordering::Relaxed) {
            continue;
        }
        let Ok(resp) = forward(peer, "GET", "/metrics", None) else {
            continue;
        };
        let text = resp.body_string();
        let read = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        out.push((
            peer_idx,
            read("antruss_mutations_total"),
            read("antruss_cache_purged_entries_total"),
            read("antruss_catalog_graphs"),
        ));
    }
    out
}

/// Re-warms the backend at `addr` (recovery and join both land here).
/// Warm-up reads peer state (graph listings, paged cache dumps) over
/// several requests, so a mutation or deletion landing mid-pass could
/// be clobbered with stale pre-mutation data; each pass is therefore
/// fenced by a [`peer_write_fingerprint`] and retried (bounded) until
/// no write activity raced it. Returns `(graphs, entries)` restored by
/// the last pass.
fn warm_backend(state: &RouterState, addr: SocketAddr, purge_first: bool) -> (u64, u64) {
    const MAX_PASSES: u32 = 3;
    let mut restored = SyncOutcome::default();
    let mut target_idx = None;
    for _ in 0..MAX_PASSES {
        // re-resolve the view each pass: membership may have changed
        let view = state.view();
        let Some(idx) = view.position_of(addr) else {
            return (0, 0);
        };
        target_idx = Some(idx);
        let before = peer_write_fingerprint(&view, idx);
        restored = sync_backend_once(state, &view, idx, purge_first);
        if peer_write_fingerprint(&view, idx) == before {
            break;
        }
        // a lifecycle operation raced this pass; re-pull everything
        // (a purge_first pass starts with a full purge, so redoing it
        // replaces any stale data the race let through)
    }
    state
        .warmed_graphs
        .fetch_add(restored.graphs, Ordering::Relaxed);
    state
        .warm_skipped_graphs
        .fetch_add(restored.skipped, Ordering::Relaxed);
    if let Some(idx) = target_idx {
        let view = state.view();
        if let Some(b) = view.backends.get(idx) {
            b.warmed.fetch_add(restored.entries, Ordering::Relaxed);
        }
    }
    (restored.graphs, restored.entries)
}

/// Catch-up warm for a rejoining member that advertised a usable
/// cluster cursor: only the graphs named by the missed event tail are
/// touched. Per touched graph the member's cached outcomes are purged
/// (they may predate the missed writes) and, when the ring still
/// places the graph on the member, its copy is re-synced from a
/// healthy peer — with the same content-checksum skip as the full warm
/// path, so a `--data-dir` member whose disk already replayed the
/// write transfers nothing. Everything the tail does *not* name is
/// left alone: that is the entire point — the member's warm cache and
/// resident catalog survive the rejoin.
///
/// Fenced and retried like [`warm_backend`]: a write racing the pass
/// re-runs it (each pass is idempotent). A final *fill* pass replays
/// the peers' cached outcomes around whatever the member kept — a
/// graceful restart reloads its own dump and keeps it (resident
/// entries win), while a SIGKILLed member, whose cache died with the
/// process, gets the peers' copies back without a full re-warm.
fn catch_up_backend(state: &RouterState, addr: SocketAddr, events: &[Event]) -> (u64, u64) {
    const MAX_PASSES: u32 = 3;
    let mut touched: Vec<String> = Vec::new();
    for ev in events {
        if !touched.contains(&ev.graph) {
            touched.push(ev.graph.clone());
        }
    }
    let mut outcome = SyncOutcome::default();
    if !touched.is_empty() {
        for _ in 0..MAX_PASSES {
            let view = state.view();
            let Some(idx) = view.position_of(addr) else {
                return (0, 0);
            };
            let before = peer_write_fingerprint(&view, idx);
            outcome = catch_up_once(state, &view, idx, &touched);
            if peer_write_fingerprint(&view, idx) == before {
                break;
            }
        }
        state
            .warmed_graphs
            .fetch_add(outcome.graphs, Ordering::Relaxed);
        state
            .warm_skipped_graphs
            .fetch_add(outcome.skipped, Ordering::Relaxed);
    }
    let view = state.view();
    if let Some(idx) = view.position_of(addr) {
        outcome.entries += fill_cache_delta(&view, idx, state.config.replication);
    }
    (outcome.graphs, outcome.entries)
}

/// Replays the healthy peers' cached outcomes belonging to the member
/// at `idx` through `POST /cache/load?mode=fill&stamp=H`, where `H` is
/// the member's event head read *before* any peer dump. Resident
/// entries win — the member's surviving cache is at least as fresh as
/// a peer's copy of the same key — and a write fanned out mid-replay
/// gates the now-stale bodies out (its purge seq outranks `H`), the
/// same admission discipline edge replicas use, so unlike the full
/// warm path this needs no fingerprint fence. Returns the entries
/// offered to the member.
fn fill_cache_delta(view: &RouterView, idx: usize, replication: usize) -> u64 {
    let target = &view.backends[idx];
    // a from-the-future cursor is answered with a reset batch carrying
    // the current head — the cheapest way to read it over the wire
    let head_probe = format!("/events?since={}", u64::MAX);
    let head = match forward(target, "GET", &head_probe, None) {
        Ok(resp) if resp.status == 200 => {
            match antruss_service::EventBatch::parse(&resp.body_string()) {
                Some(batch) => batch.head,
                None => return 0,
            }
        }
        _ => return 0,
    };
    let mut offered: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (peer_idx, peer) in view.backends.iter().enumerate() {
        if peer_idx == idx || !peer.healthy.load(Ordering::Relaxed) {
            continue;
        }
        let mut offset = 0usize;
        loop {
            let page = format!("/cache/dump?offset={offset}&limit={DUMP_PAGE}");
            let Ok(dump) = forward(peer, "GET", &page, None) else {
                break;
            };
            if dump.status != 200 {
                break;
            }
            let Ok(parsed) = json::parse(&dump.body_string()) else {
                break;
            };
            let total = parsed.get("total").and_then(Value::as_u64).unwrap_or(0) as usize;
            let Some(entries) = parsed.get("entries").and_then(Value::as_array) else {
                break;
            };
            let fetched = entries.len();
            let mine: Vec<String> = entries
                .iter()
                .filter(|e| {
                    e.get("graph")
                        .and_then(Value::as_str)
                        .is_some_and(|g| view.placement(g, replication).contains(&idx))
                })
                .map(|e| e.to_json())
                .filter(|serialized| !offered.contains(serialized))
                .collect();
            if !mine.is_empty() {
                let payload = format!("[{}]", mine.join(","));
                let path = format!("/cache/load?mode=fill&stamp={head}");
                if forward(target, "POST", &path, Some(payload.as_bytes()))
                    .is_ok_and(|r| r.status == 200)
                {
                    offered.extend(mine);
                }
            }
            offset += fetched;
            if fetched == 0 || offset >= total {
                break;
            }
        }
    }
    offered.len() as u64
}

/// One catch-up pass over the `touched` graphs (canonical names from
/// the missed event tail) for the member at `view.backends[idx]`.
fn catch_up_once(
    state: &RouterState,
    view: &RouterView,
    idx: usize,
    touched: &[String],
) -> SyncOutcome {
    let target = &view.backends[idx];
    let replication = state.config.replication;
    // name → (checksum, source) listings; the target's tells us what a
    // disk recovery already restored, the peers' what is current
    let listing_of =
        |b: &BackendState| -> Option<std::collections::HashMap<String, (String, String)>> {
            let resp = forward(b, "GET", "/graphs", None).ok()?;
            let parsed = json::parse(&resp.body_string()).ok()?;
            let loaded = parsed.get("loaded").and_then(Value::as_array)?;
            let mut out = std::collections::HashMap::new();
            for entry in loaded {
                let Some(name) = entry.get("name").and_then(Value::as_str) else {
                    continue;
                };
                let sum = entry
                    .get("checksum")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                let source = entry
                    .get("source")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                out.insert(name.to_string(), (sum, source));
            }
            Some(out)
        };
    // graph name -> (checksum, source) as reported by a backend's /graphs
    type Listing = std::collections::HashMap<String, (String, String)>;
    let present = listing_of(target).unwrap_or_default();
    let peer_listings: Vec<(usize, Listing)> = view
        .backends
        .iter()
        .enumerate()
        .filter(|(peer_idx, peer)| *peer_idx != idx && peer.healthy.load(Ordering::Relaxed))
        .filter_map(|(peer_idx, peer)| listing_of(peer).map(|l| (peer_idx, l)))
        .collect();
    let mut outcome = SyncOutcome::default();
    for name in touched {
        let encoded = encode_component(name);
        // outcomes cached on the member for this graph may predate the
        // missed writes: always drop them
        let _ = forward(
            target,
            "POST",
            &format!("/cache/purge?graph={encoded}"),
            None,
        );
        if !view.placement(name, replication).contains(&idx) {
            continue; // no longer this member's graph
        }
        // the current registered copy, from the first peer that has one
        // (generated datasets are materialized locally and never synced)
        let current = peer_listings.iter().find_map(|(peer_idx, listing)| {
            listing
                .get(name)
                .filter(|(_, source)| source != "generated")
                .map(|(sum, _)| (*peer_idx, sum.clone()))
        });
        match current {
            Some((_, peer_sum))
                if !peer_sum.is_empty()
                    && present.get(name).map(|(sum, _)| sum.as_str())
                        == Some(peer_sum.as_str()) =>
            {
                // the member's disk recovery already replayed this write
                outcome.skipped += 1;
            }
            Some((peer_idx, _)) => {
                let peer = &view.backends[peer_idx];
                let Ok(edges) = forward(peer, "GET", &format!("/graphs/{encoded}/edges"), None)
                else {
                    continue;
                };
                if edges.status != 200 {
                    continue;
                }
                let _ = forward(target, "DELETE", &format!("/graphs/{encoded}"), None);
                if forward(
                    target,
                    "POST",
                    &format!("/graphs?name={encoded}"),
                    Some(&edges.body),
                )
                .is_ok_and(|r| r.status == 201)
                {
                    outcome.graphs += 1;
                }
            }
            // no peer lists the graph: it was deleted cluster-wide while
            // the member was away — drop any stale registered copy (but
            // only when at least one peer listing was readable, so a
            // blind pass never deletes real data)
            None if !peer_listings.is_empty()
                && present
                    .get(name)
                    .is_some_and(|(_, source)| source != "generated") =>
            {
                let _ = forward(target, "DELETE", &format!("/graphs/{encoded}"), None);
            }
            None => {}
        }
    }
    outcome
}

/// After a member leaves or is evicted, every graph it replicated needs
/// a copy on whichever survivor the ring now places it on: sync every
/// live backend **concurrently** against its peers (additive — nothing
/// is purged). Returns summed `(graphs, entries)` restored.
fn rebalance(state: &RouterState) -> (u64, u64) {
    let view = state.view();
    let results = scatter(view.backends.len(), |idx| {
        if !view.backends[idx].healthy.load(Ordering::Relaxed) {
            return SyncOutcome::default();
        }
        sync_backend_once(state, &view, idx, false)
    });
    let mut total = (0u64, 0u64);
    for (idx, sync) in results.into_iter().enumerate() {
        total.0 += sync.graphs;
        total.1 += sync.entries;
        view.backends[idx]
            .warmed
            .fetch_add(sync.entries, Ordering::Relaxed);
    }
    state.warmed_graphs.fetch_add(total.0, Ordering::Relaxed);
    total
}

/// What one [`sync_backend_once`] pass did.
#[derive(Debug, Default, Clone, Copy)]
struct SyncOutcome {
    /// Graphs transferred from peers (edge dump → re-register).
    graphs: u64,
    /// Cache entries replayed into the target.
    entries: u64,
    /// Graphs the target already held byte-identically (matching
    /// content checksum) — typically recovered from its own `--data-dir`
    /// — so no transfer was needed.
    skipped: u64,
}

/// One sync pass for the backend at `view.backends[idx]`:
///
/// 1. with `purge_first` (recovery/join: the target's *cache* may
///    predate mutations it missed) the target's outcome cache is
///    purged and rebuilt from peers; without it (rebalance of a live
///    survivor) the cache is only added to;
/// 2. every replicated graph the ring places on the target is
///    re-registered from a healthy peer's edge dump — **unless** the
///    target already holds a copy with the same content checksum (a
///    restarted `--data-dir` member recovers its graphs from local
///    disk before joining, so warm-up only transfers what actually
///    diverged: O(cache delta) instead of O(graph bytes));
/// 3. the peers' cache entries belonging to the target are replayed
///    through `POST /cache/load`, pulled via **paged** `/cache/dump`
///    requests (`offset`/`limit`) so no whole-cache payload is ever
///    buffered on the router.
///
/// **Every** healthy peer is consulted — with R < N, different graphs
/// live on different peer subsets, so no single peer holds everything
/// the target needs; restored graphs and entries are deduplicated
/// across peers.
fn sync_backend_once(
    state: &RouterState,
    view: &RouterView,
    idx: usize,
    purge_first: bool,
) -> SyncOutcome {
    let target = &view.backends[idx];
    if purge_first {
        let _ = forward(target, "POST", "/cache/purge", None);
    }
    // what the target already holds, by content checksum: a matching
    // checksum means its copy (usually disk-recovered) is current and
    // need not be transferred; a mismatch means it missed mutations
    // and must be replaced
    let mut present: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    match forward(target, "GET", "/graphs", None) {
        Ok(listing) => {
            if let Ok(parsed) = json::parse(&listing.body_string()) {
                if let Some(loaded) = parsed.get("loaded").and_then(Value::as_array) {
                    for entry in loaded {
                        if let Some(name) = entry.get("name").and_then(Value::as_str) {
                            let sum = entry
                                .get("checksum")
                                .and_then(Value::as_str)
                                .unwrap_or("")
                                .to_string();
                            present.insert(name.to_string(), sum);
                        }
                    }
                }
            }
        }
        Err(_) if !purge_first => return SyncOutcome::default(),
        Err(_) => {} // unreadable target listing: fall back to full copy
    }
    let replication = state.config.replication;
    let mut skipped: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut graphs_restored: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut entries_restored: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (peer_idx, peer) in view.backends.iter().enumerate() {
        if peer_idx == idx || !peer.healthy.load(Ordering::Relaxed) {
            continue;
        }
        let Ok(listing) = forward(peer, "GET", "/graphs", None) else {
            continue;
        };
        let Ok(parsed) = json::parse(&listing.body_string()) else {
            continue;
        };
        // 1) graphs: anything uploaded/mutated whose replica set includes
        // the target is re-registered from the peer's edge dump
        if let Some(loaded) = parsed.get("loaded").and_then(Value::as_array) {
            for entry in loaded {
                let (Some(name), Some(source)) = (
                    entry.get("name").and_then(Value::as_str),
                    entry.get("source").and_then(Value::as_str),
                ) else {
                    continue;
                };
                if source == "generated"
                    || graphs_restored.contains(name)
                    || skipped.contains(name)
                    || !view.placement(name, replication).contains(&idx)
                {
                    continue;
                }
                match present.get(name) {
                    // byte-identical copy already resident (checksums
                    // are content fingerprints): disk recovery beat the
                    // network — nothing to transfer
                    Some(target_sum)
                        if !target_sum.is_empty()
                            && entry.get("checksum").and_then(Value::as_str)
                                == Some(target_sum) =>
                    {
                        skipped.insert(name.to_string());
                        continue;
                    }
                    // additive rebalance leaves any resident copy alone
                    // (a live survivor's copy is current by definition)
                    Some(_) if !purge_first => continue,
                    _ => {}
                }
                let encoded = encode_component(name);
                let Ok(edges) = forward(peer, "GET", &format!("/graphs/{encoded}/edges"), None)
                else {
                    continue;
                };
                if edges.status != 200 {
                    continue;
                }
                // an existing copy answers 409, which is fine: replace it
                // via delete + register so mutated peers win. Both go
                // over the pooled connection — a fresh connection here
                // would queue behind the idle pooled ones pinning the
                // target's workers
                let _ = forward(target, "DELETE", &format!("/graphs/{encoded}"), None);
                if forward(
                    target,
                    "POST",
                    &format!("/graphs?name={encoded}"),
                    Some(&edges.body),
                )
                .is_ok_and(|r| r.status == 201)
                {
                    graphs_restored.insert(name.to_string());
                }
            }
        }
        // 2) cache entries owned by the target, replayed page by page
        // (dedup by the entry's full serialized key+body: peers
        // replicating the same outcome hold identical bytes)
        let mut offset = 0usize;
        loop {
            let page = format!("/cache/dump?offset={offset}&limit={DUMP_PAGE}");
            let Ok(dump) = forward(peer, "GET", &page, None) else {
                break;
            };
            if dump.status != 200 {
                break;
            }
            let Ok(parsed) = json::parse(&dump.body_string()) else {
                break;
            };
            let total = parsed.get("total").and_then(Value::as_u64).unwrap_or(0) as usize;
            let Some(entries) = parsed.get("entries").and_then(Value::as_array) else {
                break;
            };
            let fetched = entries.len();
            let mine: Vec<String> = entries
                .iter()
                .filter(|e| {
                    e.get("graph")
                        .and_then(Value::as_str)
                        .is_some_and(|g| view.placement(g, replication).contains(&idx))
                })
                .map(|e| e.to_json())
                .filter(|serialized| !entries_restored.contains(serialized))
                .collect();
            if !mine.is_empty() {
                let payload = format!("[{}]", mine.join(","));
                if forward(target, "POST", "/cache/load", Some(payload.as_bytes()))
                    .is_ok_and(|r| r.status == 200)
                {
                    for serialized in mine {
                        entries_restored.insert(serialized);
                    }
                }
            }
            offset += fetched;
            if fetched == 0 || offset >= total {
                break;
            }
        }
    }
    SyncOutcome {
        graphs: graphs_restored.len() as u64,
        entries: entries_restored.len() as u64,
        skipped: skipped.len() as u64,
    }
}

/// One supervision pass: health-check every member (warming members
/// that recovered), then evict dynamic members that blew the heartbeat
/// deadline and re-place their graphs. The health thread runs this
/// every interval; the deterministic test harness calls it directly via
/// [`Router::tick`].
pub fn tick_state(state: &RouterState) {
    // 0) gossip: exchange member-op tables with every peer router
    // first, so a peer's freshness claims (a member heartbeating *it*,
    // not us) land before this tick's own eviction decisions
    gossip_peers(state);
    // 1) health: probe, mark, warm recoveries — and pull each member's
    // summary (SLO verdict + key series) into the overview while we're
    // already visiting it
    let view = state.view();
    let mut draining: Vec<SocketAddr> = Vec::new();
    for b in view.backends.iter() {
        let was_healthy = b.healthy.load(Ordering::Relaxed);
        // readiness first: an explicit 503 from `/readyz` means the
        // member is draining — believe it over raw miss counts instead
        // of waiting out the heartbeat deadline (404 = member predates
        // `/readyz`; transport error = let the health probe decide)
        let ready = match forward(b, "GET", "/readyz", None) {
            Ok(r) if r.status == 200 => Some(true),
            Ok(r) if r.status == 503 => Some(false),
            _ => None,
        };
        let healthz_ok = probe_member(state, b, ready);
        let ok = healthz_ok && ready != Some(false);
        match (was_healthy, ok) {
            (true, false) => b.healthy.store(false, Ordering::Relaxed),
            (false, true) => {
                warm_backend(state, b.addr, true);
                b.healthy.store(true, Ordering::Relaxed);
            }
            _ => {}
        }
        if ready == Some(false) {
            draining.push(b.addr);
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
    // 2) readiness eviction: a draining *dynamic* member is rotated out
    // now rather than after miss_threshold silent heartbeats (static
    // seeds stay listed — they were marked unhealthy above and resume
    // on recovery)
    let mut left = 0u64;
    for addr in draining {
        let dynamic = state
            .membership
            .members()
            .iter()
            .any(|m| m.addr == addr && !m.is_static);
        if dynamic && state.membership.leave(addr) {
            state.persist_latest_op(addr);
            left += 1;
        }
    }
    if left > 0 {
        state.evictions.fetch_add(left, Ordering::Relaxed);
        state.rebuild_view();
        rebalance(state);
    }
    // 3) membership: evict the silent, re-place their graphs
    let evicted = state.membership.evict_overdue();
    if !evicted.is_empty() {
        for m in &evicted {
            state.persist_latest_op(m.addr);
        }
        state
            .evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        state.rebuild_view();
        rebalance(state);
    }
}

/// Refreshes the overview entry for one member: its `/healthz` verdict
/// (status level and burning objective, if its own SLO engine reports
/// one) and the key series federated from its `/metrics` text —
/// lifetime requests/errors, cache hit ratio, catalog event head, and
/// solve p99. Throughput is the request-counter delta against the
/// previous visit. Returns whether `/healthz` answered 200; an
/// unreachable member keeps its last numbers with `status = "down"` so
/// the overview still names it (and its staleness keeps growing).
fn probe_member(state: &RouterState, b: &BackendState, ready: Option<bool>) -> bool {
    let now = epoch_now();
    let prev = state.overview.lock().unwrap().get(&b.addr).cloned();
    let health = forward(b, "GET", "/healthz", None).ok();
    let healthz_ok = health.as_ref().is_some_and(|r| r.status == 200);
    let (status, burning) = match &health {
        None => ("down".to_string(), None),
        Some(r) => {
            let parsed = json::parse(&r.body_string()).ok();
            let status = parsed
                .as_ref()
                .and_then(|v| v.get("status"))
                .and_then(|s| s.as_str())
                .map(str::to_string)
                .unwrap_or_else(|| if healthz_ok { "ok" } else { "down" }.to_string());
            let burning = parsed
                .as_ref()
                .and_then(|v| v.get("burning"))
                .and_then(|s| s.as_str())
                .map(str::to_string);
            (status, burning)
        }
    };
    let mut summary = MemberSummary {
        ready,
        status,
        burning,
        requests: 0.0,
        throughput: 0.0,
        errors: 0.0,
        p99_seconds: 0.0,
        hit_ratio: 0.0,
        events_head: 0,
        cpu_by_role: Vec::new(),
        top_lock: None,
        updated_ts: now,
    };
    match forward(b, "GET", "/metrics", None) {
        Ok(resp) => {
            let text = resp.body_string();
            let read = |name: &str| -> f64 {
                text.lines()
                    .find_map(|l| l.strip_prefix(&format!("{name} ")))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0)
            };
            summary.requests = read("antruss_requests_total");
            summary.errors = read("antruss_http_errors_total");
            let hits = read("antruss_cache_hits_total");
            let misses = read("antruss_cache_misses_total");
            if hits + misses > 0.0 {
                summary.hit_ratio = hits / (hits + misses);
            }
            summary.events_head = read("antruss_events_head_seq") as u64;
            summary.p99_seconds =
                read("antruss_endpoint_latency_quantile_seconds{endpoint=\"solve\",q=\"0.99\"}");
            // federate the member's profiling picture: CPU seconds per
            // thread role, and its worst lock by total wait
            let labeled = |prefix: &str| -> Vec<(String, f64)> {
                text.lines()
                    .filter_map(|l| l.strip_prefix(prefix))
                    .filter_map(|rest| {
                        let (label, value) = rest.split_once("\"} ")?;
                        Some((label.to_string(), value.trim().parse().ok()?))
                    })
                    .collect()
            };
            summary.cpu_by_role = labeled("antruss_prof_cpu_seconds_total{role=\"");
            summary.top_lock = labeled("antruss_prof_lock_wait_seconds_sum{lock=\"")
                .into_iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            if let Some(p) = &prev {
                let dt = now - p.updated_ts;
                if dt > 0.0 && summary.requests >= p.requests {
                    summary.throughput = (summary.requests - p.requests) / dt;
                }
            }
        }
        Err(_) => {
            if let Some(p) = prev {
                summary = MemberSummary {
                    ready,
                    status: "down".to_string(),
                    burning: None,
                    throughput: 0.0,
                    ..p
                };
            }
        }
    }
    state.overview.lock().unwrap().insert(b.addr, summary);
    healthz_ok
}

/// The health thread body: run [`tick_state`] every interval.
fn health_loop(state: &RouterState, interval: Duration) {
    while !state.shutdown.load(Ordering::SeqCst) {
        tick_state(state);
        // sleep in small ticks so shutdown stays prompt
        let mut slept = Duration::ZERO;
        while slept < interval && !state.shutdown.load(Ordering::SeqCst) {
            let tick = Duration::from_millis(50).min(interval - slept);
            thread::sleep(tick);
            slept += tick;
        }
    }
}

/// A running router; dropping it shuts it down and joins every thread.
pub struct Router {
    front: Front<RouterState>,
    started: Instant,
}

impl Router {
    /// Binds and starts routing; returns once the listener is live. An
    /// empty backend list is valid: the router answers 503 until the
    /// first member joins via `POST /members`.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        Router::start_with_state(RouterState::try_with_clock(
            config,
            Arc::new(SystemClock::new()),
        )?)
    }

    /// Like [`Router::start`], but over a pre-built state (the test
    /// harness builds one with an injected [`crate::membership::ManualClock`]).
    pub fn start_with_state(state: RouterState) -> std::io::Result<Router> {
        let state = Arc::new(state);
        let config = &state.config;
        let mut front = Front::start(
            Arc::clone(&state),
            &config.addr,
            config.threads,
            config.max_body_bytes,
            config.metrics_interval_ms,
        )?;
        if config.health_interval_ms > 0 {
            let health_state = Arc::clone(&state);
            let interval = Duration::from_millis(config.health_interval_ms);
            front.keep(prof::spawn("antruss-router-health", "health", move || {
                health_loop(&health_state, interval)
            })?);
        }
        Ok(Router {
            front,
            started: Instant::now(),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The shared state (handy for in-process inspection in tests).
    pub fn state(&self) -> &Arc<RouterState> {
        self.front.tier()
    }

    /// Runs one supervision pass (health + heartbeat evictions) on the
    /// caller's thread. With `health_interval_ms = 0` this is the
    /// *only* driver of evictions, which makes membership sequences
    /// fully deterministic under the test harness's manual clock.
    pub fn tick(&self) {
        tick_state(self.state());
    }

    /// Stops accepting, drains in-flight work, joins every thread and
    /// reports totals.
    pub fn shutdown(mut self) -> String {
        self.front.stop();
        let state = self.state();
        format!(
            "routed {} request(s) ({} failover(s), {} error(s)) across {} backend(s) \
             ({} join(s), {} eviction(s)) in {:.1}s",
            state.requests.load(Ordering::Relaxed),
            state.failovers.load(Ordering::Relaxed),
            state.errors.load(Ordering::Relaxed),
            state.view().backends.len(),
            state.joins.load(Ordering::Relaxed),
            state.evictions.load(Ordering::Relaxed),
            self.started.elapsed().as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn dead_addrs(n: usize) -> Vec<SocketAddr> {
        // bind-and-drop: the freed ephemeral ports have no listener, so
        // forwards fail fast with ECONNREFUSED
        (0..n)
            .map(|_| {
                std::net::TcpListener::bind("127.0.0.1:0")
                    .unwrap()
                    .local_addr()
                    .unwrap()
            })
            .collect()
    }

    fn state_with_dead_backends(n: usize) -> RouterState {
        RouterState::new(RouterConfig {
            backends: dead_addrs(n),
            ..RouterConfig::default()
        })
    }

    #[test]
    fn placement_uses_canonical_graph_keys() {
        let st = state_with_dead_backends(4);
        assert_eq!(st.placement("College:0.050"), st.placement("college:0.05"));
        assert_eq!(st.placement("g").len(), 2, "R=2");
    }

    #[test]
    fn solve_with_all_backends_dead_is_502() {
        let st = state_with_dead_backends(2);
        let resp = handle(
            &st,
            &req("POST", "/solve", r#"{"graph":"college:0.05","b":1}"#),
        );
        assert_eq!(resp.status, 502);
        assert_eq!(st.errors.load(Ordering::Relaxed), 1);
        // both replicas were tried and marked unhealthy
        assert!(st
            .view()
            .backends
            .iter()
            .any(|b| !b.healthy.load(Ordering::Relaxed)));
    }

    #[test]
    fn solve_with_no_members_is_503() {
        let st = RouterState::new(RouterConfig::default());
        let resp = handle(
            &st,
            &req("POST", "/solve", r#"{"graph":"college:0.05","b":1}"#),
        );
        assert_eq!(resp.status, 503);
    }

    #[test]
    fn malformed_solve_bodies_fail_fast_without_forwarding() {
        let st = state_with_dead_backends(2);
        for bad in ["not json", "[1]", r#"{"solver":"gas"}"#] {
            let resp = handle(&st, &req("POST", "/solve", bad));
            assert_eq!(resp.status, 400, "{bad}");
        }
        let fwd: u64 = st
            .view()
            .backends
            .iter()
            .map(|b| b.forwarded.load(Ordering::Relaxed))
            .sum();
        assert_eq!(fwd, 0, "malformed requests must not reach backends");
    }

    #[test]
    fn ring_endpoint_reports_placement_and_membership() {
        let st = state_with_dead_backends(3);
        let mut r = req("GET", "/ring", "");
        r.query = vec![("graph".to_string(), "mygraph".to_string())];
        let resp = handle(&st, &r);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"replicas\""), "{body}");
        // without ?graph the endpoint now lists the membership
        let resp = handle(&st, &req("GET", "/ring", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"members\""), "{body}");
        assert!(body.contains("\"static\":true"), "{body}");
    }

    #[test]
    fn members_join_heartbeat_and_leave_lifecycle() {
        let st = state_with_dead_backends(1);
        let addr = dead_addrs(1)[0];
        let body = format!("{{\"addr\":\"{addr}\"}}");
        let resp = handle(&st, &req("POST", "/members", &body));
        assert_eq!(
            resp.status,
            201,
            "{}",
            String::from_utf8(resp.body).unwrap()
        );
        assert_eq!(st.view().backends.len(), 2);
        assert_eq!(st.joins.load(Ordering::Relaxed), 1);
        // re-join is idempotent (200, same ring id)
        let resp = handle(&st, &req("POST", "/members", &body));
        assert_eq!(resp.status, 200);
        assert_eq!(st.joins.load(Ordering::Relaxed), 1);
        // heartbeat known vs unknown
        assert_eq!(
            handle(&st, &req("POST", "/members/heartbeat", &body)).status,
            200
        );
        assert_eq!(
            handle(
                &st,
                &req("POST", "/members/heartbeat", "{\"addr\":\"127.0.0.1:1\"}")
            )
            .status,
            404
        );
        // leave removes the member from the view
        let resp = handle(&st, &req("DELETE", &format!("/members/{addr}"), ""));
        assert_eq!(resp.status, 200);
        assert_eq!(st.view().backends.len(), 1);
        assert_eq!(
            handle(&st, &req("DELETE", &format!("/members/{addr}"), "")).status,
            404
        );
    }

    #[test]
    fn malformed_member_bodies_are_400() {
        let st = state_with_dead_backends(1);
        for bad in ["not json", "{}", "{\"addr\":42}", "{\"addr\":\"nope\"}"] {
            assert_eq!(
                handle(&st, &req("POST", "/members", bad)).status,
                400,
                "{bad}"
            );
        }
        assert_eq!(
            handle(&st, &req("DELETE", "/members/not-an-addr", "")).status,
            400
        );
    }

    #[test]
    fn healthz_reflects_backend_state() {
        let st = state_with_dead_backends(2);
        assert_eq!(handle(&st, &req("GET", "/healthz", "")).status, 200);
        for b in st.view().backends.iter() {
            b.healthy.store(false, Ordering::Relaxed);
        }
        assert_eq!(handle(&st, &req("GET", "/healthz", "")).status, 503);
        // a member-less router is up, not down
        let empty = RouterState::new(RouterConfig::default());
        assert_eq!(handle(&empty, &req("GET", "/healthz", "")).status, 200);
    }

    #[test]
    fn metrics_render_per_shard_series() {
        let st = state_with_dead_backends(2);
        let resp = handle(&st, &req("GET", "/metrics", ""));
        let text = String::from_utf8(resp.body).unwrap();
        for series in [
            "antruss_router_requests_total",
            "antruss_router_failovers_total",
            "antruss_router_backends 2",
            "antruss_router_dynamic_members 0",
            "antruss_router_joins_total 0",
            "antruss_router_evictions_total 0",
            "antruss_router_replication 2",
            "antruss_router_shard_healthy{shard=\"0\"",
            "antruss_router_shard_requests_total{shard=\"1\"",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }

    #[test]
    fn unknown_routes_and_methods() {
        let st = state_with_dead_backends(1);
        assert_eq!(handle(&st, &req("GET", "/nope", "")).status, 404);
        assert_eq!(handle(&st, &req("PUT", "/solve", "")).status, 405);
    }

    #[test]
    fn events_feed_serves_the_router_log() {
        let st = state_with_dead_backends(2);
        let resp = handle(&st, &req("GET", "/events", ""));
        assert_eq!(resp.status, 200);
        let batch =
            antruss_service::EventBatch::parse(&String::from_utf8(resp.body).unwrap()).unwrap();
        assert_eq!(batch.head, 0);
        assert_eq!(batch.epoch, st.events.epoch());
        assert!(!batch.reset);
        // a write that fails on every replica publishes no event — a
        // subscriber must never be told to invalidate for a write that
        // did not happen
        let mut r = req("POST", "/graphs", "1 2\n2 3\n");
        r.query = vec![("name".to_string(), "g".to_string())];
        assert_eq!(handle(&st, &r).status, 502);
        assert_eq!(st.events.head(), 0);
        let mut bad = req("GET", "/events", "");
        bad.query = vec![("since".to_string(), "x".to_string())];
        assert_eq!(handle(&st, &bad).status, 400);
    }

    #[test]
    fn solve_responses_carry_router_event_stamps() {
        let st = state_with_dead_backends(2);
        st.events.publish(EventKind::Register, "g", None);
        let resp = handle(&st, &req("POST", "/solve", r#"{"graph":"g","b":1}"#));
        assert_eq!(resp.status, 502);
        let stamp = resp
            .extra_headers
            .iter()
            .find(|(n, _)| n == "x-antruss-events-head")
            .map(|(_, v)| v.as_str());
        assert_eq!(stamp, Some("1"));
        let epoch = resp
            .extra_headers
            .iter()
            .find(|(n, _)| n == "x-antruss-events-epoch")
            .map(|(_, v)| v.as_str());
        assert_eq!(epoch, Some(st.events.epoch().to_string().as_str()));
    }

    #[test]
    fn join_cursor_picks_the_warm_path() {
        let st = state_with_dead_backends(1);
        let epoch = st.events.epoch();
        let addr = dead_addrs(1)[0];
        let warm_of = |resp: Response| -> String {
            let text = String::from_utf8(resp.body).unwrap();
            let v = json::parse(&text).unwrap();
            v.get("warm").and_then(Value::as_str).unwrap().to_string()
        };
        // no cursor → full re-warm
        let body = format!("{{\"addr\":\"{addr}\"}}");
        assert_eq!(
            warm_of(handle(&st, &req("POST", "/members", &body))),
            "full"
        );
        // a cursor from another router life (wrong epoch) → full
        let body = format!("{{\"addr\":\"{addr}\",\"epoch\":\"12345\",\"cursor\":0}}");
        assert_eq!(
            warm_of(handle(&st, &req("POST", "/members", &body))),
            "full"
        );
        assert_eq!(st.catchup_joins.load(Ordering::Relaxed), 0);
        // epoch 0 reads as "no cursor", never as a wildcard match
        let body = format!("{{\"addr\":\"{addr}\",\"epoch\":\"0\",\"cursor\":0}}");
        assert_eq!(
            warm_of(handle(&st, &req("POST", "/members", &body))),
            "full"
        );
        // the right epoch with a current cursor → catch-up (empty tail)
        let body = format!("{{\"addr\":\"{addr}\",\"epoch\":\"{epoch}\",\"cursor\":0}}");
        assert_eq!(
            warm_of(handle(&st, &req("POST", "/members", &body))),
            "catchup"
        );
        assert_eq!(st.catchup_joins.load(Ordering::Relaxed), 1);
        // a cursor ahead of the head is unserveable → full
        let body = format!("{{\"addr\":\"{addr}\",\"epoch\":\"{epoch}\",\"cursor\":99}}");
        assert_eq!(
            warm_of(handle(&st, &req("POST", "/members", &body))),
            "full"
        );
        // a purge-all in the missed tail invalidates everything the
        // member holds → full, even with a valid cursor
        st.events.publish(EventKind::Purge, "", None);
        let body = format!("{{\"addr\":\"{addr}\",\"epoch\":\"{epoch}\",\"cursor\":0}}");
        assert_eq!(
            warm_of(handle(&st, &req("POST", "/members", &body))),
            "full"
        );
        // a plain graph tail is serveable → catch-up
        st.events.publish(EventKind::Mutate, "g", None);
        let body = format!("{{\"addr\":\"{addr}\",\"epoch\":\"{epoch}\",\"cursor\":1}}");
        assert_eq!(
            warm_of(handle(&st, &req("POST", "/members", &body))),
            "catchup"
        );
        assert_eq!(st.catchup_joins.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fanned_out_writes_carry_the_cluster_cursor() {
        let st = state_with_dead_backends(1);
        st.events.publish(EventKind::Register, "g", None);
        let headers = cursor_headers(&st);
        assert_eq!(
            headers[0],
            (
                "x-antruss-cluster-seq".to_string(),
                st.events.head().to_string()
            )
        );
        assert_eq!(
            headers[1],
            (
                "x-antruss-cluster-epoch".to_string(),
                st.events.epoch().to_string()
            )
        );
    }

    #[test]
    fn router_metrics_include_event_series() {
        let st = state_with_dead_backends(1);
        st.events.publish(EventKind::Register, "g", None);
        let text = String::from_utf8(handle(&st, &req("GET", "/metrics", "")).body).unwrap();
        for series in [
            "antruss_router_events_head_seq 1",
            &format!("antruss_router_events_epoch {}", st.events.epoch()),
            "antruss_router_catchup_joins_total 0",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }

    #[test]
    fn readyz_and_metrics_history_routes_respond() {
        let st = RouterState::new(RouterConfig::default());
        let ready = handle(&st, &req("GET", "/readyz", ""));
        assert_eq!(ready.status, 200);
        assert!(String::from_utf8(ready.body).unwrap().contains("ready"));
        handle(&st, &req("GET", "/healthz", ""));
        st.record_history(100.0);
        handle(&st, &req("GET", "/healthz", ""));
        st.record_history(105.0);
        let resp = handle(&st, &req("GET", "/metrics/history", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        let parsed = json::parse(&body).expect("history is valid JSON");
        assert!(parsed.get("interval_seconds").is_some(), "{body}");
        assert!(
            body.contains("\"name\":\"antruss_router_requests_total\""),
            "{body}"
        );
        // the per-interval p99 series the SLO engine reads
        assert!(body.contains("antruss_router_request_seconds"), "{body}");
        assert!(body.contains("q=\\\"0.99\\\""), "{body}");
        // draining flips readiness
        st.shutdown.store(true, Ordering::SeqCst);
        assert_eq!(handle(&st, &req("GET", "/readyz", "")).status, 503);
    }

    #[test]
    fn slo_level_flows_into_router_healthz_and_metrics() {
        let st = RouterState::new(RouterConfig {
            slos: antruss_obs::slo::parse_slos("availability=99.0").unwrap(),
            ..RouterConfig::default()
        });
        st.record_history(0.0);
        handle(&st, &req("GET", "/healthz", ""));
        st.record_history(5.0);
        let health = String::from_utf8(handle(&st, &req("GET", "/healthz", "")).body).unwrap();
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"slo\":{"), "{health}");
        // deliberate 404s are router errors; enough of them burn the
        // availability budget
        for _ in 0..50 {
            handle(&st, &req("GET", "/no/such/route", ""));
        }
        st.record_history(10.0);
        let burned = String::from_utf8(handle(&st, &req("GET", "/healthz", "")).body).unwrap();
        assert!(burned.contains("\"status\":\"critical\""), "{burned}");
        assert!(burned.contains("\"burning\":\"availability\""), "{burned}");
        let metrics = String::from_utf8(handle(&st, &req("GET", "/metrics", "")).body).unwrap();
        for needle in [
            "antruss_slo_health 2",
            "antruss_slo_target{objective=\"availability\"} 99",
            "antruss_slo_burn_rate{objective=\"availability\",window=\"5m\"}",
        ] {
            assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
        }
    }

    #[test]
    fn cluster_overview_names_unvisited_and_dead_members() {
        let st = state_with_dead_backends(2);
        let before =
            String::from_utf8(handle(&st, &req("GET", "/cluster/overview", "")).body).unwrap();
        let parsed = json::parse(&before).expect("overview is valid JSON");
        assert_eq!(
            parsed
                .get("members")
                .and_then(Value::as_array)
                .map(<[_]>::len),
            Some(2),
            "{before}"
        );
        assert!(before.contains("\"status\":\"unknown\""), "{before}");
        // after a tick the dead members are visited and reported down
        tick_state(&st);
        let after =
            String::from_utf8(handle(&st, &req("GET", "/cluster/overview", "")).body).unwrap();
        json::parse(&after).expect("overview is valid JSON");
        assert!(after.contains("\"status\":\"down\""), "{after}");
        assert!(after.contains("\"router\":{"), "{after}");
        assert!(after.contains("\"throughput\":"), "{after}");
    }
}
