//! Per-layer metrics measured from outside: timed calls into each
//! crate's public functions, on the workload's own graph, each call
//! wrapped in a layer span.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use antruss_core::engine::{registry, RunConfig};
use antruss_core::{AtrState, FollowerSearch, Gas, GasConfig, TrussTree};
use antruss_edge::{Edge, EdgeConfig};
use antruss_graph::{CsrGraph, EdgeId, VertexId};
use antruss_service::http::{read_request, Request, Response};
use antruss_service::server::ServerConfig;
use antruss_service::{CacheKey, Catalog, Client, ServiceState};
use antruss_store::{CatalogOp, FsyncPolicy, Store};
use antruss_truss::DynamicTruss;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spans::Tracer;
use crate::stats::median;
use crate::sut::Proc;
use crate::workloads::{mutation, pick_batches, reference, Batch};
use crate::{Ctx, Report};

/// What the layer measurements run on.
pub struct Probe<'a> {
    pub graph: &'a CsrGraph,
    pub b: usize,
    /// The graph as an edge list (what registration parses).
    pub edge_list: Option<Vec<u8>>,
    /// Mutation batches over the *registered* graph's vertex ids;
    /// picked from the seed when empty.
    pub batches: Vec<Batch>,
    pub router: SocketAddr,
    pub backend: SocketAddr,
    /// A solve body the live cluster answers (for hop and edge timings).
    pub live_body: String,
}

impl<'a> Probe<'a> {
    pub fn new(graph: &'a CsrGraph, b: usize, cluster: &Proc, live_body: &str) -> Probe<'a> {
        Probe {
            graph,
            b,
            edge_list: None,
            batches: Vec::new(),
            router: cluster.addr,
            backend: cluster.backend.expect("cluster backend"),
            live_body: live_body.to_string(),
        }
    }
}

/// Times `f` `reps` times, one layer span per call; median in µs.
fn timed<T>(tracer: Option<&Tracer>, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        let end = Instant::now();
        if let Some(tr) = tracer {
            tr.layer(name, t, end);
        }
        us.push((end - t).as_secs_f64() * 1e6);
    }
    median(&us)
}

fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /solve HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn parse(bytes: &[u8]) -> Request {
    read_request(&mut Cursor::new(bytes), &mut Vec::new(), 1 << 20).expect("canned request parses")
}

fn header<'r>(resp: &'r Response, name: &str) -> Option<&'r str> {
    resp.extra_headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

pub fn measure(
    ctx: &Ctx,
    p: &Probe,
    r: &mut Report,
    low_rung_us: Option<f64>,
) -> Result<(), String> {
    let t = ctx.tracer.as_ref();
    let g = p.graph;
    let b = p.b;

    // graph, truss and the paper's algorithm
    r.layer(
        "graph.support_ms",
        timed(t, "graph.support", 5, || {
            antruss_graph::triangles::support(g, None)
        }) / 1e3,
    );
    r.layer(
        "truss.decompose_ms",
        timed(t, "truss.decompose", 5, || antruss_truss::decompose(g)) / 1e3,
    );
    let st = AtrState::new(g);
    r.layer(
        "core.tree_build_ms",
        timed(t, "core.tree_build", 5, || {
            TrussTree::build(g, &st.t, &st.anchors)
        }) / 1e3,
    );
    let (mut round1, mut rest, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let mut gas = Gas::new(g, GasConfig::default());
        if let Some(tr) = t {
            tr.layer("core.gas_new", start, Instant::now());
        }
        reports.clear();
        let mut steps = Vec::new();
        for _ in 0..b {
            let s = Instant::now();
            let Some(report) = gas.step() else { break };
            let e = Instant::now();
            if let Some(tr) = t {
                tr.layer("core.gas_step", s, e);
            }
            steps.push((e - s).as_secs_f64() * 1e3);
            reports.push(report);
        }
        total.push(start.elapsed().as_secs_f64() * 1e3);
        round1.push(steps.first().copied().unwrap_or(0.0));
        rest.push(steps.iter().skip(1).sum::<f64>());
    }
    r.layer("core.round1_ms", median(&round1));
    r.layer("core.rounds_rest_ms", median(&rest));
    let m = g.num_edges();
    // round 1 computes every candidate that can have followers (edges
    // with a non-empty seed set); later rounds recompute a share of them
    let scanned = reports.first().map_or(0, |x| x.recomputed);
    let later = reports.iter().filter(|x| x.round >= 2);
    let (recomputed, rounds) = later
        .clone()
        .fold((0, 0), |(rc, n), x| (rc + x.recomputed, n + 1));
    r.layer(
        "core.recomputed_share",
        recomputed as f64 / (scanned * rounds).max(1) as f64,
    );
    let classes = later
        .filter_map(|x| x.reuse_classes)
        .fold((0, 0, 0), |(f, p, n), c| {
            (f + c.fully, p + c.partially, n + c.non)
        });
    r.layer("core.reuse_fully", classes.0 as f64);
    r.layer("core.reuse_partially", classes.1 as f64);
    r.layer("core.reuse_non", classes.2 as f64);
    let base_plus = timed(t, "core.base_plus", 3, || reference(g, "base+", b)) / 1e3;
    r.layer("core.reuse_speedup", base_plus / median(&total));

    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0xf0110);
    let sample: Vec<EdgeId> = (0..64)
        .map(|_| EdgeId(rng.gen_range(0..m) as u32))
        .collect();
    let mut search = FollowerSearch::new(m);
    let mut per_call = Vec::new();
    for &e in sample.iter().cycle().take(3 * sample.len()) {
        per_call.push(timed(t, "core.follower_search", 1, || {
            search.followers(&st, e).followers.len()
        }));
    }
    r.layer("core.follower_search_us", median(&per_call));
    let outcome = registry()
        .get("gas")
        .expect("gas")
        .run(g, &RunConfig::new(b))
        .map_err(|e| e.to_string())?;
    r.layer(
        "core.serialize_us",
        timed(t, "core.serialize", 200, || outcome.to_json()),
    );

    // service: the request path on a warm in-process state
    let edge_list = match &p.edge_list {
        Some(bytes) => bytes.clone(),
        None => {
            let mut out = Vec::new();
            antruss_graph::io::write_edge_list(g, &mut out).map_err(|e| e.to_string())?;
            out
        }
    };
    let state = ServiceState::new(ServerConfig {
        metrics_interval_ms: 0,
        ..ServerConfig::default()
    });
    state
        .catalog
        .register("probe", &edge_list)
        .map_err(|e| e.to_string())?;
    let bytes = request_bytes(&format!(
        "{{\"graph\":\"probe\",\"solver\":\"gas\",\"b\":{b}}}"
    ));
    r.layer(
        "service.parse_us",
        timed(t, "service.parse", 2000, || parse(&bytes)),
    );
    let req = parse(&bytes);
    antruss_service::handle(&state, &req);
    let hit = antruss_service::handle(&state, &req);
    if header(&hit, "x-antruss-cache") != Some("hit") {
        return Err("the in-process service did not cache its solve".into());
    }
    r.layer(
        "service.handle_hit_us",
        timed(t, "service.handle_hit", 2000, || {
            antruss_service::handle(&state, &req)
        }),
    );
    let key = CacheKey {
        graph: "probe".into(),
        solver: "gas".into(),
        budget: b,
        k: None,
        seed: 1,
        trials: 20,
        policy: "paper",
    };
    if state.cache.get_stamped(&key).is_none() {
        return Err("the probe cache key does not match the service's".into());
    }
    r.layer(
        "service.cache_get_us",
        timed(t, "service.cache_get", 2000, || {
            state.cache.get_stamped(&key)
        }),
    );
    let mut out = Vec::with_capacity(hit.body.len() + 1024);
    r.layer(
        "service.write_us",
        timed(t, "service.write", 2000, || {
            out.clear();
            hit.write_to(&mut out, false).expect("writing into memory")
        }),
    );

    // writes: catalog, truss maintenance, store
    let catalog = Catalog::new();
    let registered = catalog
        .register("probe", &edge_list)
        .map_err(|e| e.to_string())?;
    let batches = if p.batches.is_empty() {
        pick_batches(&registered, &mut rng)
    } else {
        p.batches.clone()
    };
    let mut mutate_ms = Vec::new();
    let (mut recomputed, mut edges) = (0, 0);
    for i in 0..8 {
        let (ins, del) = mutation(&batches, i);
        let s = Instant::now();
        let o = catalog
            .mutate("probe", &ins, &del)
            .map_err(|e| e.to_string())?;
        if let Some(tr) = t {
            tr.layer("service.catalog_mutate", s, Instant::now());
        }
        mutate_ms.push(s.elapsed().as_secs_f64() * 1e3);
        recomputed += o.recomputed;
        edges += o.edges;
    }
    r.layer("service.catalog_mutate_ms", median(&mutate_ms));
    if !r.has_layer("truss.maintain_recomputed_share") {
        r.layer(
            "truss.maintain_recomputed_share",
            recomputed as f64 / edges.max(1) as f64,
        );
    }
    let mut dt = DynamicTruss::new(&registered);
    let mut maintain = Vec::new();
    for batch in batches.iter().take(4) {
        let ids: Vec<EdgeId> = batch
            .iter()
            .filter_map(|&(u, v)| registered.edge_between(VertexId(u as u32), VertexId(v as u32)))
            .collect();
        maintain.push(timed(t, "truss.remove_edges", 1, || {
            dt.remove_edges(ids.iter().copied())
        }));
        maintain.push(timed(t, "truss.insert_edges", 1, || {
            dt.insert_edges(ids.iter().copied())
        }));
    }
    r.layer("truss.maintain_ms", median(&maintain) / 1e3);
    let op = CatalogOp::Mutate {
        name: "probe".into(),
        inserts: Vec::new(),
        deletes: batches[0].clone(),
    };
    let append = |policy: FsyncPolicy, tag: &str, reps: usize| -> Result<f64, String> {
        let dir = ctx.tmp.join(format!("store-{tag}"));
        let (store, _) = Store::open(&dir, policy).map_err(|e| e.to_string())?;
        let us = timed(t, &format!("store.append.{tag}"), reps, || {
            store.append(&op).expect("WAL append")
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(us)
    };
    r.layer(
        "store.append_us",
        append(FsyncPolicy::Interval(100), "interval", 400)?,
    );
    let always = append(FsyncPolicy::Always, "always", 40)?;
    let never = append(FsyncPolicy::Never, "never", 400)?;
    r.layer("store.fsync_us", always - never);

    // cluster: one hop through the router versus straight to the backend
    let mut via_router = Client::new(p.router);
    let mut direct = Client::new(p.backend);
    let solve = |c: &mut Client| -> Result<f64, String> {
        let s = Instant::now();
        let resp = c
            .post("/solve", "application/json", p.live_body.as_bytes())
            .map_err(|e| e.to_string())?;
        let us = s.elapsed().as_secs_f64() * 1e6;
        if resp.status != 200 {
            return Err(format!("hop probe: status {}", resp.status));
        }
        Ok(if resp.header("x-antruss-cache") == Some("hit") {
            us
        } else {
            f64::NAN
        })
    };
    solve(&mut via_router)?;
    let (mut hop_r, mut hop_d) = (Vec::new(), Vec::new());
    for _ in 0..300 {
        hop_r.push(solve(&mut via_router)?);
        hop_d.push(solve(&mut direct)?);
    }
    if hop_r.iter().chain(&hop_d).any(|x| x.is_nan()) {
        return Err("hop probe: a warm key missed".into());
    }
    r.layer("cluster.router_hop_us", median(&hop_r) - median(&hop_d));
    drop((via_router, direct));

    // edge: the hit path on an in-process edge in front of the router
    let mut edge = Edge::start(EdgeConfig {
        upstream: p.router.to_string(),
        metrics_interval_ms: 0,
        ..EdgeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let state: Arc<_> = Arc::clone(edge.state());
    let ereq = parse(&request_bytes(&p.live_body));
    let deadline = Instant::now() + Duration::from_secs(10);
    while header(&antruss_edge::handle(&state, &ereq), "x-antruss-edge") != Some("hit") {
        if Instant::now() > deadline {
            edge.shutdown();
            return Err("the in-process edge never cached the probe key".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let edge_us = timed(t, "edge.handle_hit", 2000, || {
        antruss_edge::handle(&state, &ereq)
    });
    edge.shutdown();
    r.layer("edge.handle_hit_us", edge_us);
    if let Some(client_us) = low_rung_us {
        r.layer("edge.socket_us", client_us - edge_us);
    }
    Ok(())
}
