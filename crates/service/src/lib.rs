//! # antruss-service
//!
//! `antruss serve`: the resident anchoring service. The ROADMAP's north
//! star is a system that serves heavy repeated traffic, and the paper's
//! reuse results (Fig. 10) show repeated queries against the same graph
//! are the common case — so instead of the CLI's load → decompose → solve
//! per invocation, this crate keeps everything resident:
//!
//! * [`catalog::Catalog`] — named graphs in `Arc`-shared CSR form,
//!   dataset analogues generated lazily, uploads via `POST /graphs`;
//! * [`cache::OutcomeCache`] — an LRU over *serialized* outcomes keyed by
//!   `(graph, solver, b, k, seed, trials, policy)`, with hit / miss /
//!   eviction counters: a repeated query returns byte-identical JSON
//!   without re-running the solver (the edge tier keeps the same cache,
//!   keyed by the same [`server::parse_solve`]);
//! * [`tier`] — the request middleware and ops routes (`/readyz`,
//!   `/metrics`, `/metrics/history`, `/debug/*`, `/events`) that the
//!   server, the cluster router and the edge all run;
//! * [`server::Server`] — a hand-rolled HTTP/1.1 server
//!   (`std::net::TcpListener` + a `crossbeam::channel` worker pool; no
//!   external dependencies) with bounded request bodies, per-request
//!   safety valves mirroring the CLI's (`exact` enumeration and `base`
//!   wall-clock caps), and graceful SIGINT shutdown that drains in-flight
//!   work;
//! * [`client::Client`] — the minimal blocking client used by the
//!   `loadgen` bin, the e2e tests and `examples/service_client.rs`;
//! * [`heartbeat::HeartbeatClient`] — `antruss serve --join`: registers
//!   a standalone backend with a cluster router, heartbeats on a
//!   background thread, re-joins after eviction and deregisters on
//!   graceful shutdown;
//! * durability (`antruss serve --data-dir`, the `antruss-store`
//!   crate) — every successful catalog write is WAL-logged before it is
//!   acknowledged, the WAL compacts into per-graph binary snapshots,
//!   startup replays snapshot + WAL tail (tolerating a torn tail), and
//!   graceful shutdown dumps the outcome cache for a warm restart;
//!   `/metrics` grows an `antruss_store_*` section and `/graphs` a
//!   per-graph content `checksum` the cluster tier uses to prefer
//!   disk-recovered state over peer transfer.
//!
//! ## Endpoints
//!
//! | route | behaviour |
//! |---|---|
//! | `POST /solve` | run (or replay from cache) a solver; body `{"graph","solver","b","seed","trials","threads","k","policy"}`; the response body is exactly the unified outcome JSON, with `x-antruss-cache: hit\|miss` |
//! | `GET /solvers` | the engine registry as JSON |
//! | `GET /graphs` | loaded graphs + the built-in dataset slugs |
//! | `POST /graphs?name=N` | register a SNAP edge-list body under `N` (201 / 400 / 409) |
//! | `DELETE /graphs/{name}` | drop a registered graph and its cached outcomes (200 / 404 unknown / 409 built-in) |
//! | `GET /graphs/{name}/edges` | the resident graph as a SNAP edge list (what a recovering replica re-registers from) |
//! | `POST /graphs/{name}/mutate` | apply `{"insert":[[u,v],…],"delete":[[u,v],…]}` through incremental truss maintenance and purge the graph's cached outcomes |
//! | `GET /cache/dump[?offset=O&limit=L]` | resident outcomes with their full keys, for replica warm-up; with `offset`/`limit` a stable-ordered page in a `{"total",…,"entries"}` envelope so big caches stream instead of buffering |
//! | `POST /cache/load` | accept a (chunk of a) dump into the local cache |
//! | `POST /cache/purge[?graph=N]` | drop one graph's cached outcomes, or everything |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | plain-text counters: requests, cache hits/misses/evictions/resident-bytes, purges, mutations, p50/p99 solve latency, in-flight, shard id |
//!
//! The `cache/*`, `mutate`, `edges` and shard-metric hooks exist for the
//! cluster tier (`antruss cluster`, the `antruss-cluster` crate): a
//! consistent-hash router places graphs on backends, replays `/cache/dump`
//! into joining replicas, and fans `mutate` out to every replica of a
//! graph so cached outcomes die everywhere the moment the graph changes.

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod client;
pub mod events;
pub mod heartbeat;
pub mod http;
pub mod metrics;
pub mod server;
pub mod tier;

pub use cache::{CacheKey, CacheStats, OutcomeCache};
pub use catalog::{canonical_key, Catalog, CatalogError, MutationOutcome};
pub use client::{Client, ClientResponse, Pool};
pub use events::{Event, EventBatch, EventKind, EventLog};
pub use heartbeat::{CursorSource, HeartbeatClient};
pub use server::{
    handle, parse_dump_entries, parse_solve, Server, ServerConfig, ServiceState, SolveRequest,
};
