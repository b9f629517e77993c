//! Tier conformance: one request set sent to a server, to a router in
//! front of it and to an edge in front of that. Every tier runs the same
//! middleware and ops routes, so the ops replies (including their 400
//! bodies) are identical, every `/solve` reply carries the trace id, a
//! hop per tier it crossed and a cost folded over those hops, no ops
//! path ever lands in a tier's slow-trace ring, no reply carries an
//! `x-antruss-*` header twice, and each tier's `/metrics` exports exactly
//! its documented request phases.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use antruss::atr::json::{self, Value};
use antruss::cluster::{Router, RouterConfig};
use antruss::edge::{Edge, EdgeConfig};
use antruss::obs::prof::{parse_cost, COST_HEADER};
use antruss::obs::trace::{parse_hops, HOPS_HEADER, TRACE_HEADER};
use antruss::service::{Client, ClientResponse, EventBatch, Server, ServerConfig};

/// A relaying tier stamps its own `x-antruss-*` headers over the ones
/// it relays (an edge gates on the first events stamp it finds), so no
/// reply may carry one name twice.
fn assert_no_repeated_headers(what: &str, resp: &ClientResponse) {
    let mut seen = BTreeSet::new();
    for (name, _) in &resp.headers {
        if name.starts_with("x-antruss-") {
            assert!(
                seen.insert(name),
                "{what}: {name} twice in {:?}",
                resp.headers
            );
        }
    }
}

fn get(addr: SocketAddr, path: &str) -> ClientResponse {
    let resp = Client::new(addr).get(path).expect("GET");
    assert_no_repeated_headers(&format!("GET {path}"), &resp);
    resp
}

fn solve(addr: SocketAddr, body: &str) -> ClientResponse {
    let resp = Client::new(addr)
        .post("/solve", "application/json", body.as_bytes())
        .expect("POST /solve");
    assert_eq!(resp.status, 200, "{}", resp.body_string());
    assert_no_repeated_headers(&format!("POST /solve {body}"), &resp);
    resp
}

/// The `phase` labels of the `{family}_seconds` histogram and the
/// `{family}_quantile_seconds` gauges in a `/metrics` document.
fn phase_labels(metrics: &str, family: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let labels = |prefix: String| -> BTreeSet<String> {
        metrics
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .filter_map(|l| l.split("phase=\"").nth(1))
            .filter_map(|rest| rest.split('"').next())
            .map(String::from)
            .collect()
    };
    (
        labels(format!("{family}_seconds")),
        labels(format!("{family}_quantile_seconds")),
    )
}

/// The ops paths every tier answers without tracing them (the router's
/// `/cluster/overview` included; the other tiers answer it with 404).
const OPS_PATHS: &[&str] = &[
    "/healthz",
    "/readyz",
    "/metrics",
    "/metrics/history",
    "/events?since=0",
    "/debug/traces",
    "/debug/prof",
    "/cluster/overview",
];

#[test]
fn every_tier_serves_the_same_middleware_and_ops_routes() {
    let server = Server::start(ServerConfig {
        threads: 4,
        metrics_interval_ms: 0,
        ..ServerConfig::default()
    })
    .expect("server");
    let router = Router::start(RouterConfig {
        backends: vec![server.addr()],
        replication: 1,
        health_interval_ms: 0,
        metrics_interval_ms: 0,
        ..RouterConfig::default()
    })
    .expect("router");
    let edge = Edge::start(EdgeConfig {
        upstream: router.addr().to_string(),
        threads: 4,
        poll_wait_ms: 200,
        retry_ms: 20,
        metrics_interval_ms: 0,
        ..EdgeConfig::default()
    })
    .expect("edge");
    // (tier name, address, hops a solve crosses)
    let tiers = [
        ("server", server.addr(), 1),
        ("router", router.addr(), 2),
        ("edge", edge.addr(), 3),
    ];

    // identical ops replies, including the 400s
    for path in ["/readyz", "/events?since=x", "/metrics/history?since=nan"] {
        let replies: Vec<(u16, String)> = tiers
            .iter()
            .map(|(_, addr, _)| {
                let r = get(*addr, path);
                (r.status, r.body_string())
            })
            .collect();
        assert!(
            replies.iter().all(|r| *r == replies[0]),
            "{path} differs across tiers: {replies:?}"
        );
    }
    assert_eq!(get(server.addr(), "/readyz").status, 200);
    assert_eq!(get(server.addr(), "/events?since=x").status, 400);
    assert_eq!(get(server.addr(), "/metrics/history?since=nan").status, 400);

    for (name, addr, _) in tiers {
        let health = get(addr, "/healthz");
        assert_eq!(health.status, 200, "{name}: {}", health.body_string());
        assert!(
            health.body_string().starts_with("{\"status\":\"ok\""),
            "{name}: {}",
            health.body_string()
        );
        let events = get(addr, "/events?since=0");
        assert_eq!(events.status, 200, "{name}");
        assert!(
            EventBatch::parse(&events.body_string()).is_some(),
            "{name}: {}",
            events.body_string()
        );
        let traces = get(addr, "/debug/traces");
        assert_eq!(traces.status, 200, "{name}");
        assert!(json::parse(&traces.body_string()).is_ok(), "{name}");
        let prof = json::parse(&get(addr, "/debug/prof").body_string()).expect("prof JSON");
        assert_eq!(prof.get("tier").and_then(Value::as_str), Some(name));
    }

    // wait until the edge has adopted the router's event epoch (the
    // cache adopts it before the mirror healthz reports), so its miss
    // below is admitted and the repeat is a local hit
    let deadline = Instant::now() + Duration::from_secs(5);
    while get(edge.addr(), "/healthz")
        .body_string()
        .contains("\"epoch\":\"0\"")
    {
        assert!(Instant::now() < deadline, "edge never reached the router");
        std::thread::sleep(Duration::from_millis(20));
    }

    // one solve per tier, each a miss at that tier so it crosses every
    // tier below: a trace id, one hop per tier, and a cost that is the
    // sum of the hops' own spend — so no tier reports less than the
    // tier below it
    for (seed, (name, addr, depth)) in tiers.into_iter().enumerate() {
        let resp = solve(
            addr,
            &format!(r#"{{"graph":"college:0.05","b":2,"seed":{}}}"#, seed + 1),
        );
        let trace = resp.header(TRACE_HEADER).expect("trace header");
        assert_eq!(trace.len(), 16, "{name}: {trace}");
        let hops = parse_hops(resp.header(HOPS_HEADER).expect("hops header"));
        let order: Vec<&str> = hops.iter().map(|h| h.tier.as_str()).collect();
        assert_eq!(
            order,
            ["server", "router", "edge"][..depth],
            "{name}: hops run downstream first"
        );
        let (cpu_us, alloc_bytes) =
            parse_cost(resp.header(COST_HEADER).expect("cost header")).expect("cost");
        assert_eq!(cpu_us, hops.iter().map(|h| h.cpu_us).sum::<u64>(), "{name}");
        assert_eq!(
            alloc_bytes,
            hops.iter().map(|h| h.alloc_bytes).sum::<u64>(),
            "{name}"
        );
    }

    // a backend hit relayed by the router (and the edge's miss of it)
    // carries the backend's events stamps too, which the router replaces
    for addr in [router.addr(), edge.addr()] {
        let again = solve(addr, r#"{"graph":"college:0.05","b":2,"seed":1}"#);
        assert_eq!(again.header("x-antruss-cache"), Some("hit"));
    }

    let hit = solve(edge.addr(), r#"{"graph":"college:0.05","b":2,"seed":3}"#);
    assert_eq!(hit.header("x-antruss-edge"), Some("hit"));
    let hops = parse_hops(hit.header(HOPS_HEADER).expect("hops header"));
    assert_eq!(hops.len(), 1, "a hit never leaves the edge");

    // ops paths never crowd the slow-trace rings; the solves do land
    for (_, addr, _) in tiers {
        for path in OPS_PATHS {
            get(addr, path);
        }
    }
    // each tier exports exactly its documented phases (docs/metrics.md)
    let documented = [
        (
            "antruss_request_phase",
            &[
                "accept_wait",
                "queue_wait",
                "parse",
                "cache_lookup",
                "solve",
                "serialize",
                "write",
            ][..],
        ),
        (
            "antruss_router_request_phase",
            &["accept_wait", "queue_wait", "parse", "forward", "write"][..],
        ),
        (
            "antruss_edge_request_phase",
            &[
                "accept_wait",
                "queue_wait",
                "parse",
                "cache_lookup",
                "forward",
                "write",
            ][..],
        ),
    ];
    for ((name, addr, _), (family, phases)) in tiers.into_iter().zip(documented) {
        let metrics = get(addr, "/metrics").body_string();
        let want: BTreeSet<String> = phases.iter().map(|p| p.to_string()).collect();
        let (hist, quantiles) = phase_labels(&metrics, family);
        assert_eq!(hist, want, "{name}: {family}_seconds");
        assert_eq!(quantiles, want, "{name}: {family}_quantile_seconds");
    }

    for (name, addr, _) in tiers {
        let ring = json::parse(&get(addr, "/debug/traces").body_string()).expect("ring JSON");
        let ops: Vec<&str> = ring
            .get("traces")
            .and_then(Value::as_array)
            .expect("ring lists its traces")
            .iter()
            .filter_map(|t| t.get("op").and_then(Value::as_str))
            .collect();
        assert!(ops.contains(&"POST /solve"), "{name}: {ops:?}");
        for op in &ops {
            let path = op.split_once(' ').map_or(*op, |(_, p)| p);
            assert!(
                !OPS_PATHS.iter().any(|p| p.split('?').next() == Some(path)),
                "{name} traced the ops path {op}"
            );
        }
    }
}
