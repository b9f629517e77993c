//! Command implementations for the `antruss` CLI.
//!
//! Each command is a function from parsed arguments to a report string, so
//! they are unit-testable without spawning processes. The thin `main`
//! dispatches and prints.
//!
//! Anchoring commands dispatch through
//! [`antruss_core::engine::registry`], so every algorithm the paper
//! evaluates is reachable by name (`--solver gas|base|base+|exact|rand|`
//! `rand:sup|rand:tur|akt|edge-del|lazy`), and `--json` serializes the
//! unified [`Outcome`](antruss_core::engine::Outcome) for
//! machine-readable pipelines.

#![warn(missing_docs)]

use antruss_bench::args::Args;
use antruss_bench::table::Table;
use antruss_core::engine::{registry, Outcome, RunConfig};
use antruss_core::route::{route_sizes, route_stats};
use antruss_core::stability::{decay_simulation, resilience_gain};
use antruss_core::{AtrState, ReusePolicy};
use antruss_datasets::DatasetId;
use antruss_graph::stats::graph_stats;
use antruss_graph::{io, CsrGraph, EdgeSet};
use antruss_kcore::{core_decompose, AnchoredCoreness};
use antruss_obs as obs;
use antruss_truss::{decompose, hull_sizes};
use std::fmt::Write as _;

/// CLI usage text.
pub const USAGE: &str = "antruss — Anchor Trussness Reinforcement toolkit

USAGE:
  antruss stats      <edges.txt | dataset-slug> [--scale F]
  antruss anchor     <edges.txt | dataset-slug> [--b N] [--solver NAME] [--policy paper|conservative|off]
                     [--threads N] [--trials N] [--k K] [--exact-cap N] [--base-timeout S]
                     [--scale F] [--json]
  antruss compare    <edges.txt | dataset-slug> [--b N] [--solvers a,b,c] [--trials N] [--threads N]
                     [--scale F] [--json]
  antruss solvers
  antruss serve      [--addr HOST:PORT] [--threads N] [--cache N] [--max-body-mb N]
                     [--exact-cap N] [--base-timeout S] [--max-b N]
                     [--data-dir DIR] [--fsync always|interval:MS|never]
                     [--join ROUTER:PORT[,ROUTER:PORT...]] [--advertise HOST:PORT] [--heartbeat-ms MS]
                     [--metrics-interval SECS] [--slo availability=99.9,p99_ms=5]
                     [--log-level error|warn|info|debug] [--log-json]
  antruss cluster    [--backends N | --backend-addrs A:P,B:P,...] [--replicas R]
                     [--addr HOST:PORT] [--vnodes V] [--health-ms MS]
                     [--heartbeat-ms MS] [--miss-threshold N] [--threads N]
                     [--cache N] [--max-body-mb N] [--exact-cap N]
                     [--base-timeout S] [--max-b N] [--data-dir DIR]
                     [--fsync always|interval:MS|never]
                     [--peers ROUTER:PORT,...] [--router-data-dir DIR]
                     [--metrics-interval SECS] [--slo availability=99.9,p99_ms=5]
                     [--log-level error|warn|info|debug] [--log-json]
  antruss edge       --upstream HOST:PORT [--addr HOST:PORT] [--threads N] [--cache N]
                     [--max-body-mb N] [--poll-wait-ms MS] [--retry-ms MS]
                     [--metrics-interval SECS] [--slo availability=99.9,p99_ms=5]
                     [--log-level error|warn|info|debug] [--log-json]
  antruss top        <HOST:PORT> [--interval SECS] [--once]
  antruss routes     <edges.txt | dataset-slug> [--scale F]
  antruss kcore      <edges.txt | dataset-slug> [--b N] [--scale F]
  antruss resilience <edges.txt | dataset-slug> [--b N] [--scale F]
  antruss community  <edges.txt | dataset-slug> --q VERTEX [--k K] [--scale F]
  antruss gen        <dataset-slug> --out FILE [--scale F]

Solvers are dispatched by registry name (see `antruss solvers`). Inputs
are SNAP-style edge lists; dataset slugs (college, facebook, …, pokec)
generate the built-in synthetic analogues.

`antruss serve` starts the resident anchoring service: graphs stay
loaded in a shared catalog, repeated /solve requests are answered from
an LRU outcome cache, and ctrl-c drains in-flight work before exiting
(see the README's Serving section for the endpoints and curl examples).
With --data-dir DIR the catalog is durable: every register/mutate/
delete is appended to a checksummed write-ahead log before it is
acknowledged, the WAL compacts into per-graph binary snapshots, and a
restart (even after kill -9) replays snapshot + WAL tail; --fsync
picks the durability/latency trade-off (default interval:100).
With --join ROUTER:PORT the backend registers with a running `antruss
cluster` router, heartbeats, and deregisters on ctrl-c; --advertise
overrides the address the router dials back (required when the bind
address is not routable from the router's host). Against a replicated
control plane, --join takes the whole router list (comma-separated):
the backend heartbeats one router and fails over to the next when it
becomes unreachable.

`antruss cluster` starts the sharded serving tier: N backend serve
processes (or, with --backend-addrs, external backends it does not
spawn) behind a consistent-hash router that places each graph on R
replicas, fails over when a backend dies, warms joining/re-joining
replicas from surviving peers, evicts backends that miss
--miss-threshold heartbeats in a row, and fans graph mutations out to
every replica concurrently (see the README's Cluster section). With
--peers the router replicates the control plane: it gossips the
dynamic member table with the listed peer routers on every health
tick, so any router can take joins, heartbeats, and evictions for all
of them; --router-data-dir makes the member table durable, so a
restarted router recovers its dynamic members and event cursor from
disk instead of waiting out re-joins (see the README's Replicated
routers section).

`antruss edge` starts a read-only edge replica in front of --upstream
(a serve node, a cluster router, or another edge — edges daisy-chain):
/solve is answered from a warm local outcome cache, misses are
forwarded, and a background subscription to the upstream's /events
feed invalidates exactly the graphs that changed. When the upstream is
unreachable the edge keeps serving every cached read (responses gain
x-antruss-stale); writes are always refused with 421 naming the
upstream (see the README's Edge tier section).

All serving commands log to stderr; --log-level gates verbosity
(default info) and --log-json switches to one JSON object per line for
log shippers. Each tier also serves GET /metrics (Prometheus text,
including per-phase latency histograms), GET /metrics/history (a
bounded ring of recent samples, taken every --metrics-interval),
GET /readyz (503 while draining, for load balancers), GET
/debug/traces (the slowest recent request traces) and GET /debug/prof
(the always-on profile: allocator totals, per-role thread CPU,
lock-wait histograms, per-request cost quantiles; every /solve reply
also carries its own cost in the x-antruss-cost header). With --slo the tier
evaluates its objectives as multi-window burn rates over that history
and /healthz reports ok|degraded|critical naming the burning
objective; the router additionally federates every member's summary at
GET /cluster/overview (see the README's Observability section).

`antruss top HOST:PORT` renders a live dashboard over any tier's
telemetry: pointed at a router it polls /cluster/overview (per-member
health, throughput, p99, cache hit ratio, staleness); pointed at a
serve node or edge it falls back to /healthz + /metrics/history. When
the tier serves /debug/prof the frame gains a profiling panel (CPU by
thread role, live allocator bytes, worst lock waits); older tiers
without the endpoint just render without it.
--once prints a single frame for scripts.";

/// Loads a graph from a file path or dataset slug.
pub fn load_input(spec: &str, scale: f64) -> Result<CsrGraph, String> {
    if let Some(id) = DatasetId::from_slug(spec) {
        return Ok(antruss_datasets::generate(id, scale.clamp(0.001, 1.0)));
    }
    io::read_edge_list_path(spec).map_err(|e| format!("cannot load {spec:?}: {e}"))
}

/// Builds a [`RunConfig`] from the shared CLI flags.
///
/// Interactive defaults differ from the library's in two safety valves:
/// `exact` is capped at 100 000 enumerated sets (`--exact-cap N`,
/// `0` = exhaustive) and `base` at 60 s wall-clock (`--base-timeout S`,
/// `0` = unbounded), so a mistyped solver name cannot wedge a terminal
/// for hours.
pub fn run_config(args: &Args) -> Result<RunConfig, String> {
    let mut cfg = RunConfig::new(args.get("b", 10))
        .threads(args.get("threads", 1))
        .trials(args.get("trials", 20))
        .seed(args.get("seed", 1));
    let base_timeout = args.get("base-timeout", 60u64);
    if base_timeout > 0 {
        cfg = cfg.time_budget(std::time::Duration::from_secs(base_timeout));
    }
    let exact_cap = args.get("exact-cap", 100_000u64);
    if exact_cap > 0 {
        cfg = cfg.exact_cap(exact_cap);
    }
    if let Some(p) = args.get_str("policy") {
        cfg = cfg.reuse(parse_policy(p)?);
    }
    if let Some(k) = args.get_str("k") {
        cfg = cfg.k(k.parse::<u32>().map_err(|e| format!("bad --k: {e}"))?);
    }
    Ok(cfg)
}

/// Resolves a solver name against the registry with a helpful error.
fn solver_by_name(name: &str) -> Result<&'static dyn antruss_core::Solver, String> {
    registry().get(name).ok_or_else(|| {
        format!(
            "unknown solver {name:?} (available: {})",
            registry().names().join(", ")
        )
    })
}

/// `antruss stats` — structural + truss statistics.
pub fn cmd_stats(g: &CsrGraph) -> String {
    let s = graph_stats(g);
    let info = decompose(g);
    let mut out = String::new();
    let _ = writeln!(out, "vertices        {}", s.vertices);
    let _ = writeln!(out, "edges           {}", s.edges);
    let _ = writeln!(out, "max degree      {}", s.max_degree);
    let _ = writeln!(out, "avg degree      {:.2}", s.avg_degree);
    let _ = writeln!(out, "triangles       {}", s.triangles);
    let _ = writeln!(out, "max support     {}", s.max_support);
    let _ = writeln!(out, "clustering      {:.4}", s.clustering);
    let _ = writeln!(out, "k_max           {}", info.k_max);
    let _ = writeln!(out, "\ntruss profile (non-empty hulls):");
    let mut t = Table::new(["k", "|H_k|"]);
    for (k, c) in hull_sizes(&info).iter().enumerate() {
        if *c > 0 {
            t.row([k.to_string(), c.to_string()]);
        }
    }
    out.push_str(&t.render());
    out
}

/// `antruss kcore` — core decomposition summary and the anchored-coreness
/// comparator (the vertex/core counterpart of `anchor`).
pub fn cmd_kcore(g: &CsrGraph, b: usize) -> String {
    let info = core_decompose(g);
    let mut out = String::new();
    let _ = writeln!(out, "core k_max      {}", info.k_max);
    let _ = writeln!(out, "total coreness  {}", info.total_coreness());
    let mut shell = vec![0usize; info.k_max as usize + 1];
    for v in g.vertices() {
        let c = info.c(v);
        if c != antruss_kcore::ANCHOR_CORENESS {
            shell[c as usize] += 1;
        }
    }
    let _ = writeln!(out, "\ncore shells (non-empty):");
    let mut t = Table::new(["k", "|shell_k|"]);
    for (k, c) in shell.iter().enumerate() {
        if *c > 0 {
            t.row([k.to_string(), c.to_string()]);
        }
    }
    out.push_str(&t.render());
    let cor = AnchoredCoreness::new(g).run(b);
    let _ = writeln!(
        out,
        "\nanchored coreness (b = {b}): {} vertices anchored, coreness gain {}",
        cor.anchors.len(),
        cor.total_gain
    );
    out
}

/// `antruss resilience` — decay simulation before/after GAS anchoring.
pub fn cmd_resilience(g: &CsrGraph, b: usize) -> Result<String, String> {
    let outcome = solver_by_name("gas")?
        .run(g, &RunConfig::new(b))
        .map_err(|e| e.to_string())?;
    let anchors = EdgeSet::from_iter(g.num_edges(), outcome.edge_anchors());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "anchored {} edge(s); trussness gain {}; resilience gain {}",
        outcome.anchors.len(),
        outcome.total_gain,
        resilience_gain(g, &anchors)
    );
    let _ = writeln!(out, "\ndecay thresholds (k, survivors before, after):");
    let mut t = Table::new(["k", "before", "after", "delta"]);
    for (k, before, after) in decay_simulation(g, &anchors) {
        if before > 0 || after > 0 {
            t.row([
                k.to_string(),
                before.to_string(),
                after.to_string(),
                format!("+{}", after.saturating_sub(before)),
            ]);
        }
    }
    out.push_str(&t.render());
    Ok(out)
}

/// `antruss community` — TCP-index k-truss community search around a
/// query vertex (defaults to the vertex's maximum cohesion level).
pub fn cmd_community(g: &CsrGraph, q: u32, k: Option<u32>) -> Result<String, String> {
    use antruss_graph::VertexId;
    if q as usize >= g.num_vertices() {
        return Err(format!(
            "vertex {q} out of range (graph has {} vertices)",
            g.num_vertices()
        ));
    }
    let qv = VertexId(q);
    let info = decompose(g);
    let k = match k {
        Some(k) => k,
        None => g
            .neighbor_edges(qv)
            .iter()
            .map(|&e| info.t(e))
            .max()
            .unwrap_or(0),
    };
    if k < 3 {
        return Ok(format!("vertex {q} touches no triangle (k = {k})"));
    }
    let index = antruss_truss::TcpIndex::build(g, &info);
    let communities = index.communities_of(g, &info, qv, k);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} {k}-truss communit{} containing vertex {q}:",
        communities.len(),
        if communities.len() == 1 { "y" } else { "ies" }
    );
    let mut t = Table::new(["#", "edges", "vertices", "sample members"]);
    for (i, c) in communities.iter().enumerate() {
        let sample: Vec<String> = c.vertices.iter().take(8).map(|v| v.to_string()).collect();
        t.row([
            (i + 1).to_string(),
            c.size().to_string(),
            c.vertices.len().to_string(),
            sample.join(" "),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Renders one unified [`Outcome`] as the human-readable anchor report.
fn render_outcome(g: &CsrGraph, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "[{}] selected {} anchor(s); total trussness gain {}; claimed {}; {:.3}s",
        outcome.solver,
        outcome.anchors.len(),
        outcome.total_gain,
        outcome.claimed_gain,
        outcome.elapsed.as_secs_f64()
    );
    if outcome.rounds.is_empty() {
        let anchors: Vec<String> = outcome
            .anchors
            .iter()
            .map(|a| match a {
                antruss_core::engine::Anchor::Edge(e) => {
                    let (u, v) = g.endpoints(*e);
                    format!("{e}=({u},{v})")
                }
                antruss_core::engine::Anchor::Vertex(v) => format!("v{v}"),
            })
            .collect();
        let _ = writeln!(out, "anchors: {}", anchors.join(" "));
    } else {
        let mut t = Table::new([
            "round",
            "anchor",
            "endpoints",
            "gain",
            "recomputed",
            "scan ms",
            "refresh ms",
        ]);
        for r in &outcome.rounds {
            let (anchor_cell, endpoints_cell) = match r.chosen {
                antruss_core::engine::Anchor::Edge(e) => {
                    let (u, v) = g.endpoints(e);
                    (format!("{e}"), format!("({u}, {v})"))
                }
                antruss_core::engine::Anchor::Vertex(v) => (format!("v{v}"), "-".to_string()),
            };
            t.row([
                r.round.to_string(),
                anchor_cell,
                endpoints_cell,
                r.gain.to_string(),
                r.recomputed.to_string(),
                format!("{:.1}", r.scan.as_secs_f64() * 1e3),
                format!("{:.1}", r.refresh.as_secs_f64() * 1e3),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// `antruss anchor` — run any registry solver and report its anchor set.
pub fn cmd_anchor(
    g: &CsrGraph,
    solver: &str,
    cfg: &RunConfig,
    json: bool,
) -> Result<String, String> {
    let outcome = solver_by_name(solver)?
        .run(g, cfg)
        .map_err(|e| e.to_string())?;
    if json {
        return Ok(outcome.to_json());
    }
    Ok(render_outcome(g, &outcome))
}

/// `antruss routes` — Table-IV style upward-route statistics.
pub fn cmd_routes(g: &CsrGraph) -> String {
    let st = AtrState::new(g);
    let sizes = route_sizes(&st);
    let stats = route_stats(&sizes);
    format!(
        "edges      {}\nmin size   {}\nmax size   {}\nsum size   {}\navg size   {:.2}\n",
        g.num_edges(),
        stats.min,
        stats.max,
        stats.sum,
        stats.avg
    )
}

/// Default solver line-up of `antruss compare`.
pub const DEFAULT_COMPARE: &[&str] = &["gas", "rand:tur", "rand", "rand:sup"];

/// `antruss compare` — any set of registry solvers side by side on one
/// graph, consuming only the unified [`Outcome`] type.
pub fn cmd_compare(
    g: &CsrGraph,
    solvers: &[&str],
    cfg: &RunConfig,
    json: bool,
) -> Result<String, String> {
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(solvers.len());
    for (i, name) in solvers.iter().enumerate() {
        // each solver draws from its own stream (base seed + position),
        // so identically-pooled randomized solvers don't collapse into
        // the same draws
        let cfg = cfg.clone().seed(cfg.seed + i as u64);
        outcomes.push(
            solver_by_name(name)?
                .run(g, &cfg)
                .map_err(|e| format!("{name}: {e}"))?,
        );
    }
    if json {
        let body: Vec<String> = outcomes.iter().map(|o| o.to_json()).collect();
        return Ok(format!("[{}]", body.join(",")));
    }
    let mut t = Table::new(["solver", "gain", "anchors", "time"]);
    for o in &outcomes {
        t.row([
            o.solver.clone(),
            o.total_gain.to_string(),
            o.anchors.len().to_string(),
            format!("{:.3}s", o.elapsed.as_secs_f64()),
        ]);
    }
    Ok(t.render())
}

/// Parses the shared telemetry flags: `--metrics-interval SECS`
/// (history sampler cadence, fractional seconds accepted, 0 disables)
/// and `--slo KEY=VALUE[,KEY=VALUE...]` (service-level objectives).
pub fn telemetry_flags(
    args: &Args,
    default_interval_ms: u64,
) -> Result<(u64, Vec<obs::slo::Objective>), String> {
    let secs = args.get("metrics-interval", default_interval_ms as f64 / 1000.0);
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("--metrics-interval: bad value {secs}"));
    }
    let slos = match args.get_str("slo") {
        None => Vec::new(),
        Some(raw) => obs::slo::parse_slos(raw).map_err(|e| format!("--slo: {e}"))?,
    };
    Ok(((secs * 1000.0).round() as u64, slos))
}

/// Builds the service configuration from the `serve` flags
/// (`--data-dir DIR` makes the catalog durable; `--fsync` picks the
/// WAL flush policy and rejects unknown spellings loudly).
pub fn serve_config(args: &Args) -> Result<antruss_service::ServerConfig, String> {
    let defaults = antruss_service::ServerConfig::default();
    let fsync = match args.get_str("fsync") {
        None => defaults.fsync,
        Some(raw) => antruss_store::FsyncPolicy::parse(raw).map_err(|e| format!("--fsync: {e}"))?,
    };
    let (metrics_interval_ms, slos) = telemetry_flags(args, defaults.metrics_interval_ms)?;
    Ok(antruss_service::ServerConfig {
        addr: args.get_str("addr").unwrap_or("127.0.0.1:7171").to_string(),
        threads: args.get("threads", defaults.threads),
        cache_capacity: args.get("cache", defaults.cache_capacity),
        max_body_bytes: args
            .get("max-body-mb", defaults.max_body_bytes / (1024 * 1024))
            .saturating_mul(1024 * 1024),
        max_budget: args.get("max-b", defaults.max_budget),
        exact_cap: args.get("exact-cap", defaults.exact_cap),
        base_timeout_secs: args.get("base-timeout", defaults.base_timeout_secs),
        max_solve_threads: defaults.max_solve_threads,
        shard: None,
        data_dir: args.get_str("data-dir").map(String::from),
        fsync,
        metrics_interval_ms,
        slos,
    })
}

/// Resolves one `HOST:PORT` (hostname or IP literal) to a socket
/// address — cross-host deployments name backends by hostname, so a
/// bare `SocketAddr` parse would reject every documented example.
pub fn resolve_addr(raw: &str) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs as _;
    raw.to_socket_addrs()
        .map_err(|e| format!("bad address {raw:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("bad address {raw:?}: resolved to nothing"))
}

/// Parses a comma-separated `HOST:PORT[,HOST:PORT...]` list.
pub fn parse_addr_list(raw: &str) -> Result<Vec<std::net::SocketAddr>, String> {
    raw.split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(resolve_addr)
        .collect()
}

/// Builds the cluster topology from the `cluster` flags. Backend safety
/// valves reuse the `serve` flags (`--cache`, `--max-b`, `--exact-cap`,
/// `--base-timeout`, `--max-body-mb`). Without `--backend-addrs` the
/// supervisor spawns `--backends` in-process servers on ephemeral
/// loopback ports; with it, the router fronts those external processes
/// instead (and more can join at runtime via `antruss serve --join`).
pub fn cluster_config(args: &Args) -> Result<antruss_cluster::ClusterConfig, String> {
    let defaults = antruss_cluster::ClusterConfig::default();
    let backend_addrs = match args.get_str("backend-addrs") {
        Some(raw) => {
            let addrs = parse_addr_list(raw)?;
            if addrs.is_empty() {
                return Err("cluster: --backend-addrs lists no addresses".to_string());
            }
            addrs
        }
        None => Vec::new(),
    };
    Ok(antruss_cluster::ClusterConfig {
        backends: args.get("backends", defaults.backends).max(1),
        backend_addrs,
        replication: args.get("replicas", defaults.replication).max(1),
        vnodes: args.get("vnodes", defaults.vnodes).max(1),
        router_addr: args.get_str("addr").unwrap_or("127.0.0.1:7171").to_string(),
        router_threads: args.get("threads", defaults.router_threads),
        health_interval_ms: args.get("health-ms", defaults.health_interval_ms),
        heartbeat_ms: args.get("heartbeat-ms", defaults.heartbeat_ms).max(1),
        miss_threshold: args.get("miss-threshold", defaults.miss_threshold).max(1),
        backend: serve_config(args)?,
        peers: match args.get_str("peers") {
            Some(raw) => {
                let peers =
                    parse_addr_list(raw).map_err(|e| format!("cluster: bad --peers: {e}"))?;
                if peers.is_empty() {
                    return Err("cluster: --peers lists no addresses".to_string());
                }
                peers
            }
            None => Vec::new(),
        },
        router_data_dir: args.get_str("router-data-dir").map(String::from),
    })
}

/// `antruss cluster` — run the sharded serving tier until ctrl-c: N
/// backend serve processes (or external `--backend-addrs`) behind a
/// consistent-hash router.
pub fn cmd_cluster(args: &Args) -> Result<String, String> {
    let cfg = cluster_config(args)?;
    let cluster = antruss_cluster::Cluster::start(cfg.clone())
        .map_err(|e| format!("cluster: cannot start on {}: {e}", cfg.router_addr))?;
    let external = !cfg.backend_addrs.is_empty();
    let fronted = if external {
        cfg.backend_addrs.len()
    } else {
        cfg.backends
    };
    obs::info!(
        "cluster",
        "router on http://{} fronting {} {} backend(s) (R={}, {} vnodes, \
         heartbeat {} ms x{}) — ctrl-c to stop",
        cluster.router_addr(),
        fronted,
        if external { "external" } else { "spawned" },
        cfg.replication.min(fronted),
        cfg.vnodes,
        cfg.heartbeat_ms,
        cfg.miss_threshold,
    );
    if external {
        for (i, addr) in cfg.backend_addrs.iter().enumerate() {
            obs::info!("cluster", "shard {i}: http://{addr} (external)");
        }
    } else {
        for (i, addr) in cluster.backend_addrs().iter().enumerate() {
            obs::info!("cluster", "shard {i}: http://{addr}");
        }
    }
    Ok(cluster.run_until_sigint())
}

/// `antruss serve` — run the resident anchoring service until ctrl-c.
/// With `--join ROUTER:PORT` the backend also registers with a cluster
/// router, heartbeats while it runs, and deregisters on shutdown.
pub fn cmd_serve(args: &Args) -> Result<String, String> {
    let cfg = serve_config(args)?;
    let server = antruss_service::Server::start(cfg.clone())
        .map_err(|e| format!("serve: cannot bind {}: {e}", cfg.addr))?;
    obs::info!(
        "serve",
        "listening on http://{} ({} worker thread(s), cache {} entries) — ctrl-c to stop",
        server.addr(),
        if cfg.threads == 0 {
            "auto".to_string()
        } else {
            cfg.threads.to_string()
        },
        cfg.cache_capacity
    );
    if let Some(store) = server.state().store.as_deref() {
        let s = store.stats();
        obs::info!(
            "serve",
            "durable catalog in {} (fsync {}; recovered {} graph(s) + {} op(s) in {} ms)",
            store.dir().display(),
            store.policy(),
            s.recovered_graphs,
            s.recovered_ops,
            s.recovery_ms
        );
    }
    let heartbeat = match args.get_str("join") {
        None => None,
        Some(raw) => {
            let routers = parse_addr_list(raw).map_err(|e| format!("serve: bad --join: {e}"))?;
            if routers.is_empty() {
                return Err("serve: --join lists no addresses".to_string());
            }
            let advertise = match args.get_str("advertise") {
                Some(a) => resolve_addr(a).map_err(|e| format!("serve: bad --advertise: {e}"))?,
                None => server.addr(),
            };
            let interval = args
                .get_str("heartbeat-ms")
                .map(|_| args.get("heartbeat-ms", 1000u64));
            // a durable backend advertises its persisted cluster cursor
            // on every (re-)join, so the router can catch it up from the
            // event tail instead of a full dump/load re-warm
            let cursor_store = server.state().store.clone();
            let cursor: antruss_service::CursorSource =
                std::sync::Arc::new(move || cursor_store.as_ref()?.load_cluster_cursor());
            let hb = antruss_service::HeartbeatClient::start_multi(
                routers.clone(),
                advertise,
                interval,
                cursor,
            )
            .map_err(|e| format!("serve: cannot join {raw}: {e}"))?;
            obs::info!(
                "serve",
                "joined cluster router(s) {raw} as {advertise} ({} failover spare(s))",
                routers.len() - 1
            );
            Some(hb)
        }
    };
    let report = server.run_until_sigint();
    if let Some(hb) = heartbeat {
        let left = hb.leave();
        obs::info!(
            "serve",
            "{} the cluster router",
            if left {
                "deregistered from"
            } else {
                "could not deregister from"
            }
        );
    }
    Ok(report)
}

/// Builds the edge configuration from the `edge` flags. `--upstream`
/// is required — an edge with nothing behind it can serve nothing.
pub fn edge_config(args: &Args) -> Result<antruss_edge::EdgeConfig, String> {
    let defaults = antruss_edge::EdgeConfig::default();
    let upstream = args
        .get_str("upstream")
        .ok_or("edge: missing --upstream HOST:PORT")?;
    // resolve eagerly so a typo fails before the edge binds
    antruss_edge::parse_upstream(upstream).map_err(|e| format!("edge: bad --upstream: {e}"))?;
    let (metrics_interval_ms, slos) = telemetry_flags(args, defaults.metrics_interval_ms)?;
    Ok(antruss_edge::EdgeConfig {
        addr: args.get_str("addr").unwrap_or("127.0.0.1:7272").to_string(),
        upstream: upstream.to_string(),
        threads: args.get("threads", defaults.threads),
        cache_capacity: args.get("cache", defaults.cache_capacity),
        max_body_bytes: args
            .get("max-body-mb", defaults.max_body_bytes / (1024 * 1024))
            .saturating_mul(1024 * 1024),
        poll_wait_ms: args.get("poll-wait-ms", defaults.poll_wait_ms),
        retry_ms: args.get("retry-ms", defaults.retry_ms).max(1),
        metrics_interval_ms,
        slos,
    })
}

/// `antruss edge` — run the read-replica edge tier until ctrl-c.
pub fn cmd_edge(args: &Args) -> Result<String, String> {
    let cfg = edge_config(args)?;
    let mut edge = antruss_edge::Edge::start(cfg.clone())
        .map_err(|e| format!("edge: cannot bind {}: {e}", cfg.addr))?;
    obs::info!(
        "edge",
        "listening on http://{} (upstream http://{}, cache {} entries) — ctrl-c to stop",
        edge.addr(),
        cfg.upstream,
        cfg.cache_capacity
    );
    antruss_service::server::install_sigint_handler();
    while !antruss_service::server::sigint_received() && !edge.state().is_shutdown() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let state = std::sync::Arc::clone(edge.state());
    edge.shutdown();
    let cache = state.cache.stats();
    Ok(format!(
        "served {} request(s) ({} cache hit(s), {} forwarded, {} stale serve(s), {} write(s) refused)",
        state.metrics.requests.load(std::sync::atomic::Ordering::Relaxed),
        cache.hits,
        state.metrics.forwarded.load(std::sync::atomic::Ordering::Relaxed),
        state.metrics.stale_serves.load(std::sync::atomic::Ordering::Relaxed),
        state.metrics.writes_rejected.load(std::sync::atomic::Ordering::Relaxed),
    ))
}

/// ANSI color for a health level (`ok` green, `degraded` yellow,
/// everything else — `critical`, `down`, `unknown` — red).
fn level_color(level: &str) -> &'static str {
    match level {
        "ok" | "ready" => "\x1b[32m",
        "degraded" | "unknown" | "draining" => "\x1b[33m",
        _ => "\x1b[31m",
    }
}

fn colored(level: &str) -> String {
    format!("{}{level}\x1b[0m", level_color(level))
}

fn num(v: Option<&antruss_core::json::Value>) -> f64 {
    v.and_then(antruss_core::json::Value::as_f64).unwrap_or(0.0)
}

fn text<'v>(v: Option<&'v antruss_core::json::Value>, default: &'v str) -> &'v str {
    v.and_then(antruss_core::json::Value::as_str)
        .unwrap_or(default)
}

/// Renders one dashboard frame from a router's `/cluster/overview`
/// body: the router's own summary line plus one table row per member.
pub fn render_overview_frame(addr: &str, body: &str) -> Result<String, String> {
    let v = antruss_core::json::parse(body).map_err(|e| format!("top: bad overview JSON: {e}"))?;
    let mut out = String::new();
    let router = v.get("router");
    let status = text(router.and_then(|r| r.get("status")), "unknown");
    let _ = writeln!(out, "antruss top — {addr} (cluster overview)");
    let _ = writeln!(
        out,
        "router  status {}  requests {}  throughput {:.1}/s  p99 {:.1} ms  events {}",
        colored(status),
        num(router.and_then(|r| r.get("requests"))) as u64,
        num(router.and_then(|r| r.get("throughput"))),
        num(router.and_then(|r| r.get("p99_seconds"))) * 1000.0,
        num(router.and_then(|r| r.get("events_head"))) as u64,
    );
    let mut t = Table::new([
        "shard", "addr", "health", "ready", "req/s", "p99 ms", "hit %", "events", "stale s",
    ]);
    for m in v
        .get("members")
        .and_then(antruss_core::json::Value::as_array)
        .unwrap_or(&[])
    {
        let status = text(m.get("status"), "unknown");
        let ready = text(m.get("ready"), "unknown");
        t.row([
            format!("{}", num(m.get("shard")) as u64),
            text(m.get("addr"), "?").to_string(),
            colored(status),
            colored(ready),
            format!("{:.1}", num(m.get("throughput"))),
            format!("{:.1}", num(m.get("p99_seconds")) * 1000.0),
            format!("{:.1}", num(m.get("hit_ratio")) * 100.0),
            format!("{}", num(m.get("events_head")) as u64),
            format!("{:.1}", num(m.get("staleness_seconds"))),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Renders one dashboard frame for a single tier (serve or edge) from
/// its `/healthz` and `/metrics/history` bodies: the health verdict
/// plus the latest point of each key counter/latency series.
pub fn render_tier_frame(addr: &str, healthz: &str, history: &str) -> Result<String, String> {
    let h = antruss_core::json::parse(healthz).map_err(|e| format!("top: bad healthz: {e}"))?;
    let status = text(h.get("status"), "unknown");
    let mut out = String::new();
    let _ = writeln!(out, "antruss top — {addr} (single tier)");
    let mut line = format!("status {}", colored(status));
    if let Some(burning) = h.get("burning").and_then(antruss_core::json::Value::as_str) {
        let _ = write!(line, "  burning {}", colored(burning));
    }
    let _ = writeln!(out, "{line}");
    let v = antruss_core::json::parse(history).map_err(|e| format!("top: bad history: {e}"))?;
    let mut t = Table::new(["series", "latest", "rate/s"]);
    for s in v
        .get("series")
        .and_then(antruss_core::json::Value::as_array)
        .unwrap_or(&[])
    {
        let name = text(s.get("name"), "?");
        let labels = text(s.get("labels"), "");
        let counter = [
            "requests_total",
            "errors_total",
            "cache_hits_total",
            "cache_misses_total",
        ]
        .iter()
        .any(|suffix| name.ends_with(suffix));
        let p99 = labels.contains("q=\"0.99\"")
            && (labels == "{q=\"0.99\"}" || labels.contains("endpoint=\"solve\""));
        if !counter && !p99 {
            continue;
        }
        let Some(last) = s
            .get("points")
            .and_then(antruss_core::json::Value::as_array)
            .and_then(<[_]>::last)
        else {
            continue;
        };
        let rate = last
            .get("rate")
            .and_then(antruss_core::json::Value::as_f64)
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "-".to_string());
        let value = num(last.get("value"));
        t.row([
            format!("{name}{labels}"),
            if p99 {
                format!("{:.1} ms", value * 1000.0)
            } else {
                format!("{value:.0}")
            },
            rate,
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Renders the profiling panel of an `antruss top` frame from a tier's
/// `GET /debug/prof` body: CPU seconds by thread role, allocator
/// totals, and the locks with the most accumulated wait. Returns
/// `None` when the body is not the expected shape, so the caller can
/// hide the panel instead of failing the whole frame.
pub fn render_prof_panel(body: &str) -> Option<String> {
    let v = antruss_core::json::parse(body).ok()?;
    let alloc = v.get("alloc")?;
    let mut out = String::new();
    let mut cpu = String::from("prof    cpu");
    let mut roles: Vec<(String, f64)> = v
        .get("cpu")
        .and_then(|c| c.get("by_role"))
        .and_then(antruss_core::json::Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            (
                text(r.get("role"), "?").to_string(),
                num(r.get("cpu_seconds")),
            )
        })
        .collect();
    roles.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (role, seconds) in &roles {
        let _ = write!(cpu, "  {role} {seconds:.1}s");
    }
    let _ = writeln!(out, "{cpu}");
    let _ = writeln!(
        out,
        "        alloc live {:.1} MiB ({} alloc(s), {} free(s), {:.1} MiB total)",
        num(alloc.get("live_bytes")) / (1024.0 * 1024.0),
        num(alloc.get("allocs")) as u64,
        num(alloc.get("deallocs")) as u64,
        num(alloc.get("alloc_bytes")) / (1024.0 * 1024.0),
    );
    let mut locks: Vec<&antruss_core::json::Value> = v
        .get("locks")
        .and_then(antruss_core::json::Value::as_array)
        .unwrap_or(&[])
        .iter()
        .collect();
    locks.sort_by(|a, b| {
        num(b.get("wait_seconds_total")).total_cmp(&num(a.get("wait_seconds_total")))
    });
    for l in locks.iter().take(3) {
        let _ = writeln!(
            out,
            "        lock {}  wait {:.3}s total  p99 {:.0} us  max {:.0} us  ({} acq)",
            text(l.get("lock"), "?"),
            num(l.get("wait_seconds_total")),
            num(l.get("wait_p99_us")),
            num(l.get("wait_max_us")),
            num(l.get("acquisitions")) as u64,
        );
    }
    Some(out)
}

/// Fetches and renders one `antruss top` frame: `/cluster/overview`
/// when the address is a router, falling back to `/healthz` +
/// `/metrics/history` for a serve node or an edge. Either way the
/// frame gains a profiling panel when the tier answers `/debug/prof`
/// (tiers that predate the endpoint 404 and the panel is just hidden).
pub fn top_frame(addr: std::net::SocketAddr) -> Result<String, String> {
    let mut client = antruss_service::Client::new(addr);
    let overview = client
        .get("/cluster/overview")
        .map_err(|e| format!("top: cannot reach {addr}: {e}"))?;
    let mut frame = if overview.status == 200 {
        render_overview_frame(&addr.to_string(), &overview.body_string())?
    } else {
        let healthz = client
            .get("/healthz")
            .map_err(|e| format!("top: cannot reach {addr}: {e}"))?;
        let history = client
            .get("/metrics/history")
            .map_err(|e| format!("top: cannot reach {addr}: {e}"))?;
        if history.status != 200 {
            return Err(format!(
                "top: {addr} serves neither /cluster/overview nor /metrics/history \
                 (is it an antruss tier with history enabled?)"
            ));
        }
        render_tier_frame(
            &addr.to_string(),
            &healthz.body_string(),
            &history.body_string(),
        )?
    };
    if let Ok(prof) = client.get("/debug/prof") {
        if prof.status == 200 {
            if let Some(panel) = render_prof_panel(&prof.body_string()) {
                frame.push_str(&panel);
            }
        }
    }
    Ok(frame)
}

/// `antruss top <addr>` — a live ANSI dashboard over a tier's
/// telemetry, polling every `--interval` seconds until ctrl-c
/// (`--once` prints a single frame and exits, for scripts and tests).
pub fn cmd_top(args: &Args) -> Result<String, String> {
    let pos = args.positional();
    let raw = pos.get(1).ok_or("top: missing address (HOST:PORT)")?;
    let addr = resolve_addr(raw).map_err(|e| format!("top: {e}"))?;
    if args.flag("once") {
        return top_frame(addr);
    }
    let interval = args.get("interval", 2.0f64).max(0.1);
    antruss_service::server::install_sigint_handler();
    let mut frames = 0u64;
    while !antruss_service::server::sigint_received() {
        match top_frame(addr) {
            // \x1b[2J\x1b[H = clear screen + home, the classic top(1) dance
            Ok(frame) => print!("\x1b[2J\x1b[H{frame}"),
            Err(e) => print!("\x1b[2J\x1b[H{e}\n(retrying)"),
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        frames += 1;
        let mut slept = 0.0;
        while slept < interval && !antruss_service::server::sigint_received() {
            std::thread::sleep(std::time::Duration::from_millis(100));
            slept += 0.1;
        }
    }
    Ok(format!("rendered {frames} frame(s)"))
}

/// `antruss solvers` — the registry line-up.
pub fn cmd_solvers() -> String {
    let mut t = Table::new(["name", "algorithm"]);
    for s in registry().iter() {
        t.row([s.name().to_string(), s.description().to_string()]);
    }
    t.render()
}

/// Parses a reuse policy flag.
pub fn parse_policy(s: &str) -> Result<ReusePolicy, String> {
    match s {
        "paper" => Ok(ReusePolicy::PaperExact),
        "conservative" => Ok(ReusePolicy::Conservative),
        "off" => Ok(ReusePolicy::Off),
        other => Err(format!(
            "unknown policy {other:?} (expected paper|conservative|off)"
        )),
    }
}

/// Applies the shared `--log-level` / `--log-json` flags to the
/// process-wide logger. A typo'd level is a loud error, not a silent
/// fallback to the default.
pub fn init_logging(args: &Args) -> Result<(), String> {
    let level = match args.get_str("log-level") {
        Some(raw) => obs::log::parse_level(raw)?,
        None => obs::log::Level::Info,
    };
    obs::log::init(level, args.flag("log-json"));
    Ok(())
}

/// Top-level dispatch; returns the report or an error message.
pub fn run(args: &Args) -> Result<String, String> {
    let pos = args.positional();
    let cmd = pos.first().map(String::as_str).unwrap_or("help");
    let scale = args.get("scale", 1.0f64);
    init_logging(args)?;
    match cmd {
        "help" | "--help" => Ok(USAGE.to_string()),
        "stats" => {
            let spec = pos.get(1).ok_or("stats: missing input")?;
            Ok(cmd_stats(&load_input(spec, scale)?))
        }
        "anchor" => {
            let spec = pos.get(1).ok_or("anchor: missing input")?;
            let cfg = run_config(args)?;
            cmd_anchor(
                &load_input(spec, scale)?,
                args.get_str("solver").unwrap_or("gas"),
                &cfg,
                args.flag("json"),
            )
        }
        "solvers" => Ok(cmd_solvers()),
        "serve" => cmd_serve(args),
        "cluster" => cmd_cluster(args),
        "edge" => cmd_edge(args),
        "top" => cmd_top(args),
        "kcore" => {
            let spec = pos.get(1).ok_or("kcore: missing input")?;
            Ok(cmd_kcore(&load_input(spec, scale)?, args.get("b", 10)))
        }
        "resilience" => {
            let spec = pos.get(1).ok_or("resilience: missing input")?;
            cmd_resilience(&load_input(spec, scale)?, args.get("b", 10))
        }
        "community" => {
            let spec = pos.get(1).ok_or("community: missing input")?;
            let q = args
                .get_str("q")
                .ok_or("community: missing --q VERTEX")?
                .parse::<u32>()
                .map_err(|e| format!("community: bad --q: {e}"))?;
            let k = args.get_str("k").map(|s| {
                s.parse::<u32>()
                    .map_err(|e| format!("community: bad --k: {e}"))
            });
            let k = match k {
                Some(Ok(k)) => Some(k),
                Some(Err(e)) => return Err(e),
                None => None,
            };
            cmd_community(&load_input(spec, scale)?, q, k)
        }
        "routes" => {
            let spec = pos.get(1).ok_or("routes: missing input")?;
            Ok(cmd_routes(&load_input(spec, scale)?))
        }
        "compare" => {
            let spec = pos.get(1).ok_or("compare: missing input")?;
            let cfg = run_config(args)?;
            let listed = args.get_str("solvers").map(|s| {
                s.split(',')
                    .map(|p| p.trim())
                    .filter(|p| !p.is_empty())
                    .collect::<Vec<&str>>()
            });
            if listed.as_ref().is_some_and(|l| l.is_empty()) {
                return Err("compare: --solvers lists no solver names".to_string());
            }
            let solvers = listed.unwrap_or_else(|| DEFAULT_COMPARE.to_vec());
            cmd_compare(&load_input(spec, scale)?, &solvers, &cfg, args.flag("json"))
        }
        "gen" => {
            let spec = pos.get(1).ok_or("gen: missing dataset slug")?;
            let id =
                DatasetId::from_slug(spec).ok_or_else(|| format!("unknown dataset {spec:?}"))?;
            let out_path = args.get_str("out").ok_or("gen: missing --out FILE")?;
            let g = antruss_datasets::generate(id, scale.clamp(0.001, 1.0));
            io::write_edge_list_path(&g, out_path).map_err(|e| e.to_string())?;
            Ok(format!(
                "wrote {} ({} vertices, {} edges)",
                out_path,
                g.num_vertices(),
                g.num_edges()
            ))
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&args("help")).unwrap().contains("USAGE"));
        assert!(run(&args("frobnicate")).is_err());
    }

    #[test]
    fn bad_log_level_is_a_loud_error() {
        let err = run(&args("help --log-level loud")).unwrap_err();
        assert!(err.contains("unknown log level"), "got: {err}");
        // a valid spelling still dispatches the command
        assert!(run(&args("help --log-level info")).is_ok());
    }

    #[test]
    fn stats_on_slug() {
        let report = run(&args("stats college --scale 0.05")).unwrap();
        assert!(report.contains("k_max"));
        assert!(report.contains("truss profile"));
    }

    #[test]
    fn anchor_on_slug() {
        let report = run(&args("anchor college --scale 0.05 --b 3")).unwrap();
        assert!(report.contains("[gas]"));
        assert!(report.contains("gain"));
    }

    #[test]
    fn anchor_dispatches_every_registry_solver() {
        for name in registry().names() {
            let report = run(&args(&format!(
                "anchor college --scale 0.05 --b 2 --trials 3 --exact-cap 500 --solver {name}"
            )))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.contains(&format!("[{name}]")), "{name}: {report}");
        }
        assert!(run(&args("anchor college --scale 0.05 --solver nope")).is_err());
    }

    #[test]
    fn anchor_json_is_machine_readable() {
        let j = run(&args("anchor college --scale 0.05 --b 2 --json")).unwrap();
        assert!(j.starts_with("{\"solver\":\"gas\""), "{j}");
        assert!(j.contains("\"total_gain\":"), "{j}");
        assert!(j.contains("\"rounds\":["), "{j}");
    }

    #[test]
    fn routes_and_compare() {
        let r = run(&args("routes college --scale 0.05")).unwrap();
        assert!(r.contains("avg size"));
        let c = run(&args("compare college --scale 0.05 --b 2 --trials 3")).unwrap();
        assert!(c.contains("gas"), "{c}");
        assert!(c.contains("rand:sup"), "{c}");
    }

    #[test]
    fn compare_accepts_custom_solver_list_and_json() {
        let c = run(&args(
            "compare college --scale 0.05 --b 2 --trials 3 --solvers gas,lazy,edge-del",
        ))
        .unwrap();
        assert!(c.contains("lazy"), "{c}");
        assert!(c.contains("edge-del"), "{c}");
        let j = run(&args(
            "compare college --scale 0.05 --b 2 --trials 3 --solvers gas,lazy --json",
        ))
        .unwrap();
        assert!(j.starts_with("[{\"solver\":\"gas\""), "{j}");
        assert!(j.contains("{\"solver\":\"lazy\""), "{j}");
        assert!(j.ends_with(']'), "{j}");
        assert!(run(&args("compare college --scale 0.05 --solvers gas,nope")).is_err());
        assert!(run(&args("compare college --scale 0.05 --solvers ,,")).is_err());
    }

    #[test]
    fn solvers_lists_the_registry() {
        let s = run(&args("solvers")).unwrap();
        for name in registry().names() {
            assert!(s.contains(name), "{s}");
        }
    }

    #[test]
    fn community_search() {
        let r = run(&args("community college --scale 0.1 --q 0")).unwrap();
        assert!(r.contains("communit"), "got: {r}");
        let explicit = run(&args("community college --scale 0.1 --q 0 --k 3")).unwrap();
        assert!(explicit.contains("3-truss") || explicit.contains("no triangle"));
        assert!(run(&args("community college --scale 0.1 --q 99999999")).is_err());
        assert!(run(&args("community college --scale 0.1")).is_err());
    }

    #[test]
    fn kcore_and_resilience() {
        let k = run(&args("kcore college --scale 0.05 --b 2")).unwrap();
        assert!(k.contains("core k_max"));
        assert!(k.contains("anchored coreness"));
        let r = run(&args("resilience college --scale 0.05 --b 2")).unwrap();
        assert!(r.contains("resilience gain"));
        assert!(r.contains("decay thresholds"));
    }

    #[test]
    fn anchor_threaded_matches_serial() {
        let a1 = run(&args("anchor college --scale 0.05 --b 2")).unwrap();
        let a2 = run(&args("anchor college --scale 0.05 --b 2 --threads 4")).unwrap();
        // timing differs; compare everything except the elapsed suffix,
        // the per-stage timing columns and the rule under the header
        let strip = |s: &str| {
            let cut = s.lines().find_map(|l| l.find("scan ms")).unwrap();
            s.lines()
                .filter(|l| !l.starts_with('-'))
                .map(|l| match l.contains("; ") {
                    true => l.split("; ").take(3).collect::<Vec<_>>().join("; "),
                    false => l.get(..cut).unwrap_or(l).to_string(),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&a1),
            strip(&a2),
            "thread count must not change results"
        );
    }

    #[test]
    fn serve_config_reads_flags() {
        let cfg = serve_config(&args(
            "serve --addr 0.0.0.0:9000 --threads 2 --cache 16 --max-body-mb 1 --max-b 8 \
             --data-dir /tmp/antruss-data --fsync always",
        ))
        .unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:9000");
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.cache_capacity, 16);
        assert_eq!(cfg.max_body_bytes, 1024 * 1024);
        assert_eq!(cfg.max_budget, 8);
        assert_eq!(cfg.data_dir.as_deref(), Some("/tmp/antruss-data"));
        assert_eq!(cfg.fsync, antruss_store::FsyncPolicy::Always);
        let defaults = serve_config(&args("serve")).unwrap();
        assert_eq!(defaults.addr, "127.0.0.1:7171");
        assert_eq!(defaults.cache_capacity, 256);
        assert_eq!(defaults.data_dir, None);
        assert_eq!(defaults.fsync, antruss_store::FsyncPolicy::Interval(100));
        let interval = serve_config(&args("serve --fsync interval:250")).unwrap();
        assert_eq!(interval.fsync, antruss_store::FsyncPolicy::Interval(250));
        // bad policies are loud errors, on serve and cluster alike
        assert!(serve_config(&args("serve --fsync sometimes"))
            .unwrap_err()
            .contains("--fsync"));
        assert!(cluster_config(&args("cluster --fsync nope")).is_err());
    }

    #[test]
    fn serve_with_data_dir_recovers_across_runs() {
        let dir = std::env::temp_dir().join(format!("antruss-cli-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = serve_config(&Args::parse(vec![
            "serve".to_string(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--data-dir".to_string(),
            dir.display().to_string(),
        ]))
        .unwrap();
        let server = antruss_service::Server::start(cfg.clone()).unwrap();
        let addr = server.addr();
        let mut client = antruss_service::Client::new(addr);
        assert_eq!(
            client
                .post("/graphs?name=tri", "text/plain", b"0 1\n1 2\n2 0\n")
                .unwrap()
                .status,
            201
        );
        server.shutdown();
        // same data dir, fresh process state: the graph is back
        let server = antruss_service::Server::start(cfg).unwrap();
        let listing = antruss_service::Client::new(server.addr())
            .get("/graphs")
            .unwrap()
            .body_string();
        assert!(listing.contains("\"tri\""), "not recovered: {listing}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_reports_bind_failures() {
        // an unresolvable bind address must fail fast with a clean error
        // (never start the accept loop)
        let err = run(&args("serve --addr 999.999.999.999:1")).unwrap_err();
        assert!(err.contains("cannot bind"), "{err}");
    }

    #[test]
    fn usage_mentions_serve() {
        assert!(USAGE.contains("antruss serve"), "{USAGE}");
        assert!(USAGE.contains("antruss cluster"), "{USAGE}");
        assert!(USAGE.contains("antruss edge"), "{USAGE}");
        assert!(USAGE.contains("antruss top"), "{USAGE}");
        assert!(USAGE.contains("--slo"), "{USAGE}");
    }

    #[test]
    fn telemetry_flags_parse_and_reject() {
        let cfg = serve_config(&args(
            "serve --metrics-interval 1.5 --slo availability=99.9",
        ))
        .unwrap();
        assert_eq!(cfg.metrics_interval_ms, 1500);
        assert_eq!(cfg.slos.len(), 1);
        let defaults = serve_config(&args("serve")).unwrap();
        assert_eq!(defaults.metrics_interval_ms, 5000);
        assert!(defaults.slos.is_empty());
        // 0 disables the sampler; bad objectives are loud errors
        assert_eq!(
            serve_config(&args("serve --metrics-interval 0"))
                .unwrap()
                .metrics_interval_ms,
            0
        );
        assert!(serve_config(&args("serve --slo latency=fast"))
            .unwrap_err()
            .contains("--slo"));
        // the same flags flow into the edge and cluster configs
        let edge = edge_config(&args(
            "edge --upstream 127.0.0.1:7171 --metrics-interval 2 --slo p99_ms=5",
        ))
        .unwrap();
        assert_eq!(edge.metrics_interval_ms, 2000);
        assert_eq!(edge.slos.len(), 1);
        let cluster = cluster_config(&args("cluster --slo availability=99.9")).unwrap();
        assert_eq!(cluster.backend.slos.len(), 1);
    }

    #[test]
    fn top_renders_overview_and_tier_frames() {
        let overview = r#"{"router":{"status":"ok","requests":120,"throughput":4.5,
            "p99_seconds":0.0021,"events_head":7,"replication":2},
            "members":[{"shard":0,"addr":"127.0.0.1:9001","static":true,"healthy":true,
            "ready":"ready","status":"ok","requests":60,"throughput":2.2,"errors":1,
            "p99_seconds":0.0018,"hit_ratio":0.93,"events_head":5,"staleness_seconds":0.4},
            {"shard":1,"addr":"127.0.0.1:9002","static":false,"healthy":false,
            "ready":"draining","status":"down"}],"ts":100.0}"#;
        let frame = render_overview_frame("127.0.0.1:7171", overview).unwrap();
        assert!(frame.contains("cluster overview"), "{frame}");
        assert!(frame.contains("127.0.0.1:9001"), "{frame}");
        assert!(frame.contains("draining"), "{frame}");
        assert!(frame.contains("93.0"), "hit ratio as percent: {frame}");

        let healthz = r#"{"status":"degraded","burning":"availability"}"#;
        let history = r#"{"interval_seconds":5,"series":[
            {"name":"antruss_requests_total","labels":"","kind":"counter",
             "points":[{"ts":0,"value":10},{"ts":5,"value":20,"rate":2.0}]},
            {"name":"antruss_endpoint_latency_seconds","labels":"{endpoint=\"solve\",q=\"0.99\"}",
             "kind":"window_quantile","points":[{"ts":5,"value":0.004}]},
            {"name":"antruss_uptime_seconds","labels":"","kind":"gauge",
             "points":[{"ts":5,"value":5}]}]}"#;
        let frame = render_tier_frame("127.0.0.1:7171", healthz, history).unwrap();
        assert!(frame.contains("degraded"), "{frame}");
        assert!(frame.contains("availability"), "{frame}");
        assert!(frame.contains("antruss_requests_total"), "{frame}");
        assert!(frame.contains("4.0 ms"), "{frame}");
        assert!(!frame.contains("antruss_uptime_seconds"), "{frame}");

        // bad bodies are errors, not panics
        assert!(render_overview_frame("x", "nope").is_err());
        assert!(render_tier_frame("x", "nope", "{}").is_err());
    }

    #[test]
    fn top_prof_panel_renders_or_hides() {
        let prof = r#"{"tier":"server",
            "alloc":{"allocs":1000,"alloc_bytes":4194304,"deallocs":900,
                     "dealloc_bytes":3145728,"live_bytes":1048576},
            "cpu":{"by_role":[{"role":"worker","cpu_seconds":2.5},
                              {"role":"accept","cpu_seconds":0.1}],"threads":[]},
            "locks":[{"lock":"catalog_write","acquisitions":12,
                      "wait_seconds_total":0.004,"wait_p99_us":310.0,"wait_max_us":500.0}],
            "costs":[]}"#;
        let panel = render_prof_panel(prof).unwrap();
        assert!(panel.contains("worker 2.5s"), "{panel}");
        assert!(panel.contains("catalog_write"), "{panel}");
        assert!(panel.contains("1.0 MiB"), "live bytes in MiB: {panel}");
        // a body without the prof shape hides the panel instead of erroring
        assert!(render_prof_panel("nope").is_none());
        assert!(render_prof_panel("{\"status\":\"ok\"}").is_none());
    }

    #[test]
    fn top_command_validates_its_address() {
        assert!(run(&args("top")).unwrap_err().contains("missing address"));
        assert!(run(&args("top not-an-addr --once")).is_err());
    }

    #[test]
    fn top_once_renders_a_live_server_frame() {
        let server = antruss_service::Server::start(antruss_service::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_interval_ms: 0, // sample by hand below
            ..antruss_service::ServerConfig::default()
        })
        .unwrap();
        let state = server.state();
        state.record_history(100.0);
        state.record_history(105.0);
        let frame = run(&args(&format!("top {} --once", server.addr()))).unwrap();
        assert!(frame.contains("single tier"), "{frame}");
        assert!(frame.contains("antruss_requests_total"), "{frame}");
        server.shutdown();
    }

    #[test]
    fn edge_config_reads_flags() {
        let cfg = edge_config(&args(
            "edge --upstream 127.0.0.1:7171 --addr 0.0.0.0:9300 --threads 3 --cache 64 \
             --max-body-mb 2 --poll-wait-ms 500 --retry-ms 50",
        ))
        .unwrap();
        assert_eq!(cfg.upstream, "127.0.0.1:7171");
        assert_eq!(cfg.addr, "0.0.0.0:9300");
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.cache_capacity, 64);
        assert_eq!(cfg.max_body_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.poll_wait_ms, 500);
        assert_eq!(cfg.retry_ms, 50);
        // http:// spellings are accepted, like every documented example
        let cfg = edge_config(&args("edge --upstream http://127.0.0.1:7171/")).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:7272");
        // a missing or unresolvable upstream fails before binding
        assert!(edge_config(&args("edge"))
            .unwrap_err()
            .contains("--upstream"));
        assert!(edge_config(&args("edge --upstream nonsense")).is_err());
    }

    #[test]
    fn edge_reports_bind_failures() {
        let err = run(&args(
            "edge --upstream 127.0.0.1:7171 --addr 999.999.999.999:1",
        ))
        .unwrap_err();
        assert!(err.contains("cannot bind"), "{err}");
    }

    #[test]
    fn cluster_config_reads_flags() {
        let cfg = cluster_config(&args(
            "cluster --backends 5 --replicas 3 --vnodes 64 --addr 0.0.0.0:9100 \
             --health-ms 250 --cache 32 --heartbeat-ms 400 --miss-threshold 5",
        ))
        .unwrap();
        assert_eq!(cfg.backends, 5);
        assert_eq!(cfg.replication, 3);
        assert_eq!(cfg.vnodes, 64);
        assert_eq!(cfg.router_addr, "0.0.0.0:9100");
        assert_eq!(cfg.health_interval_ms, 250);
        assert_eq!(cfg.backend.cache_capacity, 32);
        assert_eq!(cfg.heartbeat_ms, 400);
        assert_eq!(cfg.miss_threshold, 5);
        assert!(cfg.backend_addrs.is_empty());
        let defaults = cluster_config(&args("cluster")).unwrap();
        assert_eq!(defaults.backends, 3);
        assert_eq!(defaults.replication, 2);
        assert_eq!(defaults.router_addr, "127.0.0.1:7171");
        assert_eq!(defaults.heartbeat_ms, 1000);
        assert_eq!(defaults.miss_threshold, 3);
        // degenerate values are clamped, not crashes
        assert_eq!(
            cluster_config(&args("cluster --backends 0"))
                .unwrap()
                .backends,
            1
        );
        assert_eq!(
            cluster_config(&args("cluster --replicas 0"))
                .unwrap()
                .replication,
            1
        );
    }

    #[test]
    fn cluster_config_parses_external_backend_addrs() {
        let cfg = cluster_config(&args(
            "cluster --backend-addrs 127.0.0.1:9001,127.0.0.1:9002",
        ))
        .unwrap();
        assert_eq!(cfg.backend_addrs.len(), 2);
        assert_eq!(cfg.backend_addrs[0], "127.0.0.1:9001".parse().unwrap());
        // malformed and empty lists are loud errors
        assert!(cluster_config(&args("cluster --backend-addrs nope")).is_err());
        assert!(cluster_config(&args("cluster --backend-addrs ,,")).is_err());
    }

    #[test]
    fn serve_join_rejects_bad_addresses() {
        let err = run(&args("serve --addr 127.0.0.1:0 --join not-an-addr")).unwrap_err();
        assert!(err.contains("--join"), "{err}");
        // an unreachable router is reported as a join failure, not a hang
        let err = run(&args("serve --addr 127.0.0.1:0 --join 127.0.0.1:1")).unwrap_err();
        assert!(err.contains("cannot join"), "{err}");
        // with a router list, *every* router must refuse before the join
        // fails — and the error names the whole list
        let err = run(&args(
            "serve --addr 127.0.0.1:0 --join 127.0.0.1:1,127.0.0.1:2",
        ))
        .unwrap_err();
        assert!(err.contains("cannot join 127.0.0.1:1,127.0.0.1:2"), "{err}");
        assert!(run(&args("serve --addr 127.0.0.1:0 --join ,,")).is_err());
    }

    #[test]
    fn cluster_config_parses_peers_and_router_data_dir() {
        let cfg = cluster_config(&args(
            "cluster --peers 127.0.0.1:9101,127.0.0.1:9102 --router-data-dir /tmp/antruss-router",
        ))
        .unwrap();
        assert_eq!(cfg.peers.len(), 2);
        assert_eq!(cfg.peers[0], "127.0.0.1:9101".parse().unwrap());
        assert_eq!(cfg.router_data_dir.as_deref(), Some("/tmp/antruss-router"));
        let defaults = cluster_config(&args("cluster")).unwrap();
        assert!(defaults.peers.is_empty());
        assert_eq!(defaults.router_data_dir, None);
        // malformed and empty peer lists are loud errors
        assert!(cluster_config(&args("cluster --peers nope")).is_err());
        assert!(cluster_config(&args("cluster --peers ,,")).is_err());
    }

    #[test]
    fn cluster_reports_bind_failures() {
        let err = run(&args("cluster --backends 1 --addr 999.999.999.999:1")).unwrap_err();
        assert!(err.contains("cannot start"), "{err}");
    }

    #[test]
    fn policy_parse() {
        assert!(parse_policy("paper").is_ok());
        assert!(parse_policy("conservative").is_ok());
        assert!(parse_policy("off").is_ok());
        assert!(parse_policy("x").is_err());
    }

    #[test]
    fn gen_roundtrip() {
        let dir = std::env::temp_dir().join("antruss-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("college.txt");
        let msg = run(&args(&format!(
            "gen college --scale 0.05 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(msg.contains("wrote"));
        let report = run(&Args::parse(vec![
            "stats".to_string(),
            path.display().to_string(),
        ]))
        .unwrap();
        assert!(report.contains("vertices"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_input_errors() {
        assert!(run(&args("stats")).is_err());
        assert!(run(&args("stats /no/such/file.txt")).is_err());
        assert!(run(&args("gen college")).is_err());
    }
}
