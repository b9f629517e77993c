//! Service counters, phase-attributed latency histograms, and the
//! `/metrics` rendering through the shared [`antruss_obs::Registry`].
//!
//! Counters are lock-free atomics. Latencies go into
//! [`antruss_obs::Histogram`]s — log2-bucket, one atomic per bucket, no
//! lock, no sampling window — recorded twice over: once per request
//! **phase** (accept wait, worker-queue wait, parse, cache lookup, solve
//! compute, serialize, socket write), so a p99 can be *attributed*, and
//! once per **endpoint class** (solve, mutation, warm, events long-poll,
//! graph reads, everything else), so no endpoint is invisible. The
//! rendering preserves every pre-registry series name (`docs/metrics.md`
//! is the reference table).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use antruss_obs::{Histogram, Registry};
use antruss_store::StoreStats;

use crate::cache::CacheStats;

/// The per-request phases the tiers attribute latency to; each tier
/// exports the subset it records (see `docs/metrics.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Keep-alive idle time before the request's bytes arrived: the
    /// connection loop's whole read-timeout ticks (client think time
    /// counts here, not against the tier).
    AcceptWait = 0,
    /// The accepted connection sat in the acceptor→worker channel;
    /// recorded once per connection, at its first request.
    QueueWait = 1,
    /// Reading + parsing the request head and body.
    Parse = 2,
    /// Outcome-cache lookup.
    CacheLookup = 3,
    /// Solver compute.
    Solve = 4,
    /// Serializing the outcome to JSON.
    Serialize = 5,
    /// Exchanges with the tier below (on the router, fan-outs too).
    Forward = 6,
    /// Writing the response to the socket.
    Write = 7,
}

impl Phase {
    /// The exposition label (`accept_wait`, `queue_wait`, …).
    pub fn label(self) -> &'static str {
        match self {
            Phase::AcceptWait => "accept_wait",
            Phase::QueueWait => "queue_wait",
            Phase::Parse => "parse",
            Phase::CacheLookup => "cache_lookup",
            Phase::Solve => "solve",
            Phase::Serialize => "serialize",
            Phase::Forward => "forward",
            Phase::Write => "write",
        }
    }
}

/// One latency histogram per [`Phase`].
#[derive(Default)]
pub struct Phases([Histogram; 8]);

impl Phases {
    /// The histogram recording `phase`.
    pub fn get(&self, phase: Phase) -> &Histogram {
        &self.0[phase as usize]
    }

    /// Records one duration against `phase`.
    pub fn observe(&self, phase: Phase, d: Duration) {
        self.0[phase as usize].observe(d);
    }

    /// Registers the histograms of `phases`, in that order, as the
    /// `{family}_seconds` histogram and `{family}_quantile_seconds`
    /// gauges, labelled by `phase`.
    pub fn register(&self, reg: &mut Registry, family: &str, phases: &[Phase]) {
        let (hist, quantiles) = (
            format!("{family}_seconds"),
            format!("{family}_quantile_seconds"),
        );
        for &phase in phases {
            let snap = self.get(phase).snapshot();
            let labels = [("phase", phase.label())];
            reg.histogram(&hist, &labels, &snap);
            reg.quantiles(&quantiles, &labels, &snap);
        }
    }
}

/// The phases a backend records, in exposition order.
const SERVER_PHASES: [Phase; 7] = [
    Phase::AcceptWait,
    Phase::QueueWait,
    Phase::Parse,
    Phase::CacheLookup,
    Phase::Solve,
    Phase::Serialize,
    Phase::Write,
];

/// The endpoint classes whose latency is tracked separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointClass {
    /// `POST /solve`.
    Solve = 0,
    /// Catalog writes: register, mutate, delete.
    Mutate = 1,
    /// Replication warm-up: cache dump/load/purge.
    Warm = 2,
    /// `GET /events` (long-poll durations show up here by design).
    Events = 3,
    /// Catalog reads: `/graphs`, `/graphs/{name}/edges`, `/solvers`.
    Graphs = 4,
    /// Everything else (`/healthz`, `/metrics`, debug, 404s).
    Other = 5,
}

/// Every endpoint class with its exposition label.
pub const ENDPOINTS: [(EndpointClass, &str); 6] = [
    (EndpointClass::Solve, "solve"),
    (EndpointClass::Mutate, "mutate"),
    (EndpointClass::Warm, "warm"),
    (EndpointClass::Events, "events"),
    (EndpointClass::Graphs, "graphs"),
    (EndpointClass::Other, "other"),
];

impl EndpointClass {
    /// The exposition label (`solve`, `mutate`, …) every tier records
    /// request latency and cost under.
    pub fn label(self) -> &'static str {
        ENDPOINTS[self as usize].1
    }

    /// Classifies one request by method and path.
    pub fn of(method: &str, path: &str) -> EndpointClass {
        match (method, path) {
            (_, "/solve") => EndpointClass::Solve,
            ("POST" | "DELETE", p) if p == "/graphs" || p.starts_with("/graphs/") => {
                EndpointClass::Mutate
            }
            (_, p) if p.starts_with("/cache/") => EndpointClass::Warm,
            (_, "/events") => EndpointClass::Events,
            (_, p) if p == "/graphs" || p == "/solvers" || p.starts_with("/graphs/") => {
                EndpointClass::Graphs
            }
            _ => EndpointClass::Other,
        }
    }
}

/// All service-level counters and histograms (share via `Arc`).
pub struct Metrics {
    started: Instant,
    /// HTTP requests accepted (any endpoint, any status).
    pub requests: AtomicU64,
    /// `/solve` requests (hits and misses both).
    pub solves: AtomicU64,
    /// Responses with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Requests currently being handled.
    pub in_flight: AtomicU64,
    /// Graph mutation batches applied (`POST /graphs/{name}/mutate`).
    pub mutations: AtomicU64,
    /// Cache entries accepted via `/cache/load` (replication warm-up).
    pub warmed_entries: AtomicU64,
    /// Per-phase latency.
    pub phases: Phases,
    endpoints: [Histogram; ENDPOINTS.len()],
}

impl Metrics {
    /// Fresh counters; uptime starts now.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            warmed_entries: AtomicU64::new(0),
            phases: Phases::default(),
            endpoints: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Records one request's total handler latency against its endpoint
    /// class.
    pub fn observe_endpoint(&self, class: EndpointClass, d: Duration) {
        self.endpoints[class as usize].observe(d);
    }

    /// Records one solve's compute wall-clock time.
    pub fn observe_solve(&self, elapsed: Duration) {
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.phases.observe(Phase::Solve, elapsed);
    }

    /// Builds the full metrics [`Registry`] — shared by the `/metrics`
    /// renderer and the history sampler, so the trajectory records
    /// exactly what a scrape would have seen. `shard` is the backend's
    /// shard id when it runs as part of a cluster (`None` for a
    /// standalone `serve`); `store` is the durable-store section,
    /// present only when the backend runs with `--data-dir`; `events`
    /// is the catalog event stream's `(epoch, head seq)` — what a
    /// subscriber polls `/events` against.
    pub fn registry(
        &self,
        cache: &CacheStats,
        catalog_graphs: usize,
        shard: Option<u32>,
        store: Option<&StoreStats>,
        events: Option<(u64, u64)>,
    ) -> Registry {
        let mut r = Registry::new();
        r.gauge(
            "antruss_uptime_seconds",
            self.started.elapsed().as_secs_f64(),
        );
        r.counter(
            "antruss_requests_total",
            self.requests.load(Ordering::Relaxed),
        );
        r.counter(
            "antruss_solve_requests_total",
            self.solves.load(Ordering::Relaxed),
        );
        r.counter(
            "antruss_http_errors_total",
            self.errors.load(Ordering::Relaxed),
        );
        r.gauge(
            "antruss_in_flight_requests",
            self.in_flight.load(Ordering::Relaxed) as f64,
        );
        r.counter("antruss_cache_hits_total", cache.hits);
        r.counter("antruss_cache_misses_total", cache.misses);
        r.counter("antruss_cache_evictions_total", cache.evictions);
        r.gauge("antruss_cache_entries", cache.entries as f64);
        r.gauge("antruss_cache_capacity", cache.capacity as f64);
        r.gauge("antruss_cache_resident_bytes", cache.resident_bytes as f64);
        r.counter(
            "antruss_cache_stale_inserts_refused_total",
            cache.stale_refused,
        );
        r.counter("antruss_cache_purged_entries_total", cache.purged);
        r.counter(
            "antruss_cache_warmed_entries_total",
            self.warmed_entries.load(Ordering::Relaxed),
        );
        r.counter(
            "antruss_mutations_total",
            self.mutations.load(Ordering::Relaxed),
        );
        r.gauge("antruss_catalog_graphs", catalog_graphs as f64);
        if let Some((epoch, head)) = events {
            r.gauge_u64("antruss_events_epoch", epoch);
            r.gauge_u64("antruss_events_head_seq", head);
        }
        if let Some(shard) = shard {
            r.gauge("antruss_shard_id", shard as f64);
        }
        if let Some(s) = store {
            r.gauge("antruss_store_wal_bytes", s.wal_bytes as f64);
            r.gauge("antruss_store_wal_records", s.wal_records as f64);
            r.gauge("antruss_store_snapshots", s.snapshots as f64);
            r.counter("antruss_store_compactions_total", s.compactions);
            r.gauge(
                "antruss_store_last_compaction_ms",
                s.last_compaction_ms as f64,
            );
            r.gauge("antruss_store_recovery_ms", s.recovery_ms as f64);
            r.gauge("antruss_store_recovered_graphs", s.recovered_graphs as f64);
            r.gauge("antruss_store_recovered_ops", s.recovered_ops as f64);
            r.gauge("antruss_store_dropped_wal_bytes", s.dropped_bytes as f64);
        }
        self.phases
            .register(&mut r, "antruss_request_phase", &SERVER_PHASES);
        for (class, label) in ENDPOINTS {
            let snap = self.endpoints[class as usize].snapshot();
            r.histogram(
                "antruss_endpoint_latency_seconds",
                &[("endpoint", label)],
                &snap,
            );
            r.quantiles(
                "antruss_endpoint_latency_quantile_seconds",
                &[("endpoint", label)],
                &snap,
            );
        }
        // the historical summary gauges, now derived from the solve
        // phase histogram (cumulative since start, no longer windowed)
        let solve = self.phases.get(Phase::Solve).snapshot();
        r.gauge(
            "antruss_solve_latency_p50_seconds",
            solve.quantile_seconds(0.5),
        );
        r.gauge(
            "antruss_solve_latency_p99_seconds",
            solve.quantile_seconds(0.99),
        );
        r
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

/// RAII in-flight gauge: increments on creation, decrements on drop (so
/// panics and early returns both release the slot).
pub struct InFlight<'a>(&'a Metrics);

impl<'a> InFlight<'a> {
    /// Marks one request in flight on `m`.
    pub fn enter(m: &'a Metrics) -> InFlight<'a> {
        m.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlight(m)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CacheStats {
        CacheStats {
            hits: 3,
            misses: 7,
            evictions: 1,
            entries: 2,
            capacity: 64,
            resident_bytes: 4096,
            stale_refused: 1,
            purged: 9,
        }
    }

    #[test]
    fn percentiles_over_a_known_stream() {
        let m = Metrics::new();
        for ms in 1..=100u64 {
            m.observe_solve(Duration::from_millis(ms));
        }
        // log2 buckets: the estimate is within a factor of two of the
        // exact order statistic
        let solve = m.phases.get(Phase::Solve).snapshot();
        let p50 = solve.quantile_seconds(0.5);
        assert!((0.025..=0.100).contains(&p50), "{p50}");
        let p99 = solve.quantile_seconds(0.99);
        assert!((0.0495..=0.198).contains(&p99), "{p99}");
        let empty = Metrics::new().phases.get(Phase::Solve).snapshot();
        assert_eq!(empty.quantile_seconds(0.5), 0.0);
    }

    #[test]
    fn histograms_are_cumulative_not_windowed() {
        // the old Mutex<Ring> forgot everything past 1024 samples; the
        // histogram keeps the whole lifetime, so an early stall stays
        // visible in the tail
        let m = Metrics::new();
        m.observe_solve(Duration::from_secs(10));
        for _ in 0..2000 {
            m.observe_solve(Duration::from_millis(1));
        }
        assert_eq!(m.solves.load(Ordering::Relaxed), 2001);
        assert_eq!(m.phases.get(Phase::Solve).snapshot().count(), 2001);
        assert!(
            m.phases
                .get(Phase::Solve)
                .snapshot()
                .quantile_seconds(0.9999)
                > 5.0
        );
    }

    #[test]
    fn endpoint_classification() {
        assert_eq!(EndpointClass::of("POST", "/solve"), EndpointClass::Solve);
        assert_eq!(EndpointClass::of("POST", "/graphs"), EndpointClass::Mutate);
        assert_eq!(
            EndpointClass::of("POST", "/graphs/tri/mutate"),
            EndpointClass::Mutate
        );
        assert_eq!(
            EndpointClass::of("DELETE", "/graphs/tri"),
            EndpointClass::Mutate
        );
        assert_eq!(EndpointClass::of("GET", "/cache/dump"), EndpointClass::Warm);
        assert_eq!(
            EndpointClass::of("POST", "/cache/load"),
            EndpointClass::Warm
        );
        assert_eq!(EndpointClass::of("GET", "/events"), EndpointClass::Events);
        assert_eq!(EndpointClass::of("GET", "/graphs"), EndpointClass::Graphs);
        assert_eq!(
            EndpointClass::of("GET", "/graphs/tri/edges"),
            EndpointClass::Graphs
        );
        assert_eq!(EndpointClass::of("GET", "/solvers"), EndpointClass::Graphs);
        assert_eq!(EndpointClass::of("GET", "/healthz"), EndpointClass::Other);
        assert_eq!(EndpointClass::of("GET", "/metrics"), EndpointClass::Other);
        for (class, label) in ENDPOINTS {
            assert_eq!(class.label(), label);
        }
    }

    #[test]
    fn render_lists_every_series() {
        let m = Metrics::new();
        m.requests.fetch_add(5, Ordering::Relaxed);
        m.mutations.fetch_add(2, Ordering::Relaxed);
        m.observe_solve(Duration::from_millis(2));
        m.observe_endpoint(EndpointClass::Events, Duration::from_millis(250));
        let text = m.registry(&stats(), 4, None, None, Some((77, 12))).render();
        for series in [
            "antruss_uptime_seconds",
            "antruss_requests_total 5",
            "antruss_solve_requests_total 1",
            "antruss_http_errors_total 0",
            "antruss_in_flight_requests 0",
            "antruss_cache_hits_total 3",
            "antruss_cache_misses_total 7",
            "antruss_cache_evictions_total 1",
            "antruss_cache_entries 2",
            "antruss_cache_capacity 64",
            "antruss_cache_resident_bytes 4096",
            "antruss_cache_stale_inserts_refused_total 1",
            "antruss_cache_purged_entries_total 9",
            "antruss_cache_warmed_entries_total 0",
            "antruss_mutations_total 2",
            "antruss_catalog_graphs 4",
            "antruss_events_epoch 77",
            "antruss_events_head_seq 12",
            "antruss_solve_latency_p50_seconds",
            "antruss_solve_latency_p99_seconds",
            // the new phase + endpoint families, with TYPE lines
            "# TYPE antruss_request_phase_seconds histogram",
            "antruss_request_phase_seconds_count{phase=\"solve\"} 1",
            "antruss_request_phase_quantile_seconds{phase=\"solve\",q=\"0.99\"}",
            "# TYPE antruss_endpoint_latency_seconds histogram",
            "antruss_endpoint_latency_seconds_count{endpoint=\"events\"} 1",
            "antruss_endpoint_latency_quantile_seconds{endpoint=\"solve\",q=\"0.5\"}",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        assert!(
            !text.contains("antruss_shard_id"),
            "standalone has no shard"
        );
        assert!(
            !text.contains("antruss_store_"),
            "storeless metrics have no store section"
        );
        let sharded = m.registry(&stats(), 4, Some(3), None, None).render();
        assert!(
            !sharded.contains("antruss_events_"),
            "no events section without an event log"
        );
        assert!(sharded.contains("antruss_shard_id 3"), "{sharded}");
    }

    #[test]
    fn store_section_renders_when_durable() {
        let m = Metrics::new();
        let store = StoreStats {
            wal_bytes: 1024,
            wal_records: 7,
            snapshots: 2,
            compactions: 1,
            last_compaction_ms: 12,
            recovery_ms: 34,
            recovered_graphs: 2,
            recovered_ops: 5,
            dropped_bytes: 9,
        };
        let text = m.registry(&stats(), 4, None, Some(&store), None).render();
        for series in [
            "antruss_store_wal_bytes 1024",
            "antruss_store_wal_records 7",
            "antruss_store_snapshots 2",
            "antruss_store_compactions_total 1",
            "antruss_store_last_compaction_ms 12",
            "antruss_store_recovery_ms 34",
            "antruss_store_recovered_graphs 2",
            "antruss_store_recovered_ops 5",
            "antruss_store_dropped_wal_bytes 9",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }

    #[test]
    fn in_flight_guard_releases_on_drop() {
        let m = Metrics::new();
        {
            let _a = InFlight::enter(&m);
            let _b = InFlight::enter(&m);
            assert_eq!(m.in_flight.load(Ordering::Relaxed), 2);
        }
        assert_eq!(m.in_flight.load(Ordering::Relaxed), 0);
    }
}
