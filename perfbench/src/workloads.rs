//! The four workloads. Each one sets the system up several times (the
//! median set-up is `setup_s`), keeps the last topology, checks every
//! timed answer against its oracle, and reads the tiers' own `/metrics`
//! counters just before and just after the timed phase.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use antruss_core::engine::{registry, RunConfig};
use antruss_graph::CsrGraph;
use antruss_service::{Catalog, Client, ClientResponse};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Probe};
use crate::load::{self, open_loop, solve_info, Info, Req, Sample};
use crate::prom::{delta, delta_quantile, Scrape};
use crate::stats::{median, quantile};
use crate::sut::{post_ok, scrape, wait_ready, Proc};
use crate::{Ctx, Report};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Each cold run times at least this many misses, so its p90 has ten
/// samples beyond it.
const MIN_MISSES: usize = 100;
/// `write_mix`: calibration samples taken before and after its open
/// loop, which keeps both benchmark threads busy.
const MIX_CALIB: usize = 10;
/// `hot_hits`: the open-loop rate the traced run measures hits at, the
/// first rung of the rate ladder, and the latency limit
/// `edge.hit_max_rps` holds the tail percentile to.
const HIT_RATE: f64 = 5_000.0;
const LOW_RATE: f64 = 2_000.0;
const HIT_LIMIT_MS: f64 = 1.0;
/// `hot_hits` reports the median over one-second windows.
const HIT_WINDOW: Duration = Duration::from_secs(1);
/// The open-loop tail percentile `edge.hit_max_rps` holds to the limit.
/// The p99 of sub-millisecond hits is set by stalls of the 2-core host
/// (4-8 ms even at 250 req/s in noisy periods, 0.2 ms in quiet ones);
/// it is reported per layer as `edge.hit_p99_ms`.
const HIT_TAIL_Q: f64 = 0.9;
/// `hot_hits`: untimed closed-loop hits before the timed phase.
const HIT_WARM: Duration = Duration::from_secs(1);

/// The graph a dataset spec (`slug:scale`) names, generated in-process.
pub fn generate(spec: &str) -> CsrGraph {
    let (id, scale) =
        antruss_datasets::DatasetId::from_spec(spec).expect("a built-in dataset spec");
    antruss_datasets::generate(id, scale)
}

fn solve_body(graph: &str, b: usize) -> String {
    format!("{{\"graph\":\"{graph}\",\"solver\":\"gas\",\"b\":{b}}}")
}

/// The answer a registry solver gives on `g`, with the service's own
/// defaults for everything a request leaves out.
pub fn reference(g: &CsrGraph, solver: &str, b: usize) -> (Vec<u64>, u64) {
    let out = registry()
        .get(solver)
        .expect("registered solver")
        .run(
            g,
            &RunConfig::new(b)
                .exact_cap(100_000)
                .time_budget(Duration::from_secs(60)),
        )
        .expect("reference solve");
    (
        out.edge_anchors().iter().map(|e| e.0 as u64).collect(),
        out.total_gain,
    )
}

/// Runs the set-up `SETUPS` times, keeping the last topology. `once`
/// returns the topology and its processes' summed peak RSS after the
/// warm-up; the result carries one `(seconds, MiB)` pair per set-up.
fn set_up<T>(
    mut once: impl FnMut(usize) -> Result<(T, f64), String>,
) -> Result<(T, Vec<(f64, f64)>), String> {
    let mut runs = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let (topology, rss) = once(i)?;
        runs.push((t.elapsed().as_secs_f64(), rss));
        kept = Some(topology);
    }
    Ok((kept.expect("at least one set-up"), runs))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn lat(samples: &[&Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_ms()).collect()
}

/// The `q`-quantile of latency in each `window` of the schedule, then
/// the median over windows: a stall that lands in one window moves one
/// window's figure, not the run's.
fn windowed(samples: &[&Sample], window: Duration, q: f64) -> f64 {
    let Some(first) = samples.iter().map(|s| s.due).min() else {
        return 0.0;
    };
    let mut groups: Vec<Vec<f64>> = Vec::new();
    for s in samples {
        let w =
            (s.due.saturating_duration_since(first).as_secs_f64() / window.as_secs_f64()) as usize;
        if groups.len() <= w {
            groups.resize(w + 1, Vec::new());
        }
        groups[w].push(s.latency_ms());
    }
    median(
        &groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| quantile(g, q))
            .collect::<Vec<_>>(),
    )
}

/// The per-layer `client.*` metrics: the whole distribution of the
/// requests `latency_ms` is taken from.
fn client_layers(r: &mut Report, latencies: &[f64]) {
    r.layer("client.p50_ms", median(latencies));
    r.layer("client.p90_ms", quantile(latencies, 0.9));
    r.layer("client.p99_ms", quantile(latencies, 0.99));
}

fn late_p99(samples: &[Sample]) -> f64 {
    quantile(
        &samples.iter().map(|s| ms(s.late)).collect::<Vec<_>>(),
        0.99,
    )
}

/// p50 of the `x-antruss-cost` headers over `infos`.
fn cost_p50(infos: &[&Info]) -> (f64, f64) {
    let costs: Vec<(u64, u64)> = infos.iter().filter_map(|i| i.cost).collect();
    (
        median(&costs.iter().map(|c| c.0 as f64).collect::<Vec<_>>()),
        median(&costs.iter().map(|c| c.1 as f64).collect::<Vec<_>>()),
    )
}

/// Backend misses beyond one per distinct (key, graph version) the
/// timed misses answered.
fn duplicate_solves(before: &Scrape, after: &Scrape, misses: &[(usize, u64)]) -> f64 {
    let distinct: HashSet<&(usize, u64)> = misses.iter().collect();
    delta(before, after, "antruss_cache_misses_total") - distinct.len() as f64
}

/// Counter-derived layer metrics shared by every workload: the backend
/// and router of one cluster process, scraped around the timed phase.
struct Scrapes {
    backend: (Scrape, Scrape),
    router: (Scrape, Scrape),
}

impl Scrapes {
    fn before(c: &Proc) -> Result<(Scrape, Scrape), String> {
        Ok((
            scrape(c.backend.expect("cluster backend"))?,
            scrape(c.addr)?,
        ))
    }

    fn after(c: &Proc, before: (Scrape, Scrape)) -> Result<Scrapes, String> {
        let (b, r) = Scrapes::before(c)?;
        Ok(Scrapes {
            backend: (before.0, b),
            router: (before.1, r),
        })
    }

    fn into_layers(self, r: &mut Report) {
        let (b0, b1) = &self.backend;
        let (r0, r1) = &self.router;
        r.layer(
            "service.queue_wait_us_p99",
            1e6 * delta_quantile(
                b0,
                b1,
                "antruss_request_phase_seconds",
                "phase=\"queue_wait\"",
                0.99,
            ),
        );
        let hits = delta(b0, b1, "antruss_cache_hits_total");
        let misses = delta(b0, b1, "antruss_cache_misses_total");
        r.layer(
            "service.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        r.layer(
            "cluster.forward_us_p99",
            1e6 * delta_quantile(
                r0,
                r1,
                "antruss_router_request_phase_seconds",
                "phase=\"forward\"",
                0.99,
            ),
        );
        // one backend in the process, so the process-wide lock stats
        // are that backend's
        r.layer(
            "obs.catalog_lock_wait_us_p99",
            1e6 * delta_quantile(
                b0,
                b1,
                "antruss_prof_lock_wait_seconds",
                "lock=\"catalog_write\"",
                0.99,
            ),
        );
    }
}

/// `cold_lowreuse` / `cold_highreuse`: a closed loop on one connection
/// through the router; a purge (timed on its own, as the per-layer
/// `cluster.purge_ms_p50`) before every solve makes every timed solve a
/// miss.
pub fn cold(ctx: &Ctx, spec: &str) -> Result<Report, String> {
    const B: usize = 5;
    let body = solve_body(spec, B);
    let purge = format!("/cache/purge?graph={spec}");
    let (cluster, setups) = set_up(|_| {
        let c = Proc::cluster(&ctx.bin, None)?;
        wait_ready(c.addr)?;
        // warm-up: generates the graph and runs the solver once
        let mut client = Client::new(c.addr);
        post_ok(&mut client, "/solve", &body)?;
        post_ok(&mut client, &purge, "")?;
        let rss = c.peak_rss_mb();
        Ok((c, rss))
    })?;
    let g = generate(spec);
    let oracle = reference(&g, "base+", B);
    let mut r = Report::new(setups);

    let before = Scrapes::before(&cluster)?;
    let (purge_req, solve_req) = (
        Req {
            path: purge,
            body: String::new(),
        },
        Req {
            path: "/solve".into(),
            body,
        },
    );
    let mut client = Client::new(cluster.addr);
    let mut solves: Vec<f64> = Vec::new();
    let mut purges: Vec<f64> = Vec::new();
    let mut infos: Vec<Info> = Vec::new();
    let mut calib_ms: Vec<f64> = Vec::new();
    let mut untraced_p50 = 0.0;
    // the traced run times one untraced half, then one traced half
    let halves: &[(f64, usize, bool)] = if ctx.trace {
        &[(0.5, MIN_MISSES / 2, false), (0.5, MIN_MISSES / 2, true)]
    } else {
        &[(1.0, MIN_MISSES, false)]
    };
    for &(share, min, traced) in halves {
        let tracer = if traced { ctx.tracer.as_ref() } else { None };
        let t0 = Instant::now();
        let first = solves.len();
        while t0.elapsed().as_secs_f64() < share * ctx.seconds || solves.len() - first < min {
            let (sent, resp) = load::send(&mut client, &purge_req, tracer);
            purges.push(ms(sent.elapsed()));
            r.attempt(matches!(&resp, Ok(p) if p.status / 100 == 2));
            let (sent, resp) = load::send(&mut client, &solve_req, tracer);
            solves.push(ms(sent.elapsed()));
            let ok = match &resp {
                Ok(s) if s.status == 200 => {
                    let info = solve_info(s);
                    let right = info.miss && info.answer.as_ref() == Some(&oracle);
                    infos.push(info);
                    right
                }
                _ => false,
            };
            r.attempt(ok);
            // the backend is idle until the next purge
            calib_ms.push(ctx.calib.sample());
        }
        if !traced {
            untraced_p50 = median(&solves);
        } else {
            let p50 = median(&solves[first..]);
            r.layer(
                "obs.trace_overhead_pct",
                100.0 * (p50 - untraced_p50) / untraced_p50,
            );
        }
    }
    drop(client);
    let scrapes = Scrapes::after(&cluster, before)?;

    r.latency(&solves, &calib_ms);
    if ctx.trace {
        client_layers(&mut r, &solves);
        r.layer("sut.peak_rss_after_run_mb", cluster.peak_rss_mb());
        r.layer("cluster.purge_ms_p50", median(&purges));
        let misses: Vec<(usize, u64)> = infos
            .iter()
            .filter(|i| i.miss)
            .map(|i| (0, i.stamp))
            .collect();
        r.layer(
            "service.duplicate_solves",
            duplicate_solves(&scrapes.backend.0, &scrapes.backend.1, &misses),
        );
        let (cpu, bytes) = cost_p50(&infos.iter().collect::<Vec<_>>());
        r.layer("service.cpu_us_per_request", cpu);
        r.layer("service.alloc_bytes_per_request", bytes);
        scrapes.into_layers(&mut r);
        // no store, no mutations, no edge process and no open loop here
        for absent in [
            "store.wal_bytes_per_mutate",
            "edge.hit_ratio",
            "edge.socket_us",
            "edge.hit_max_rps",
            "edge.hit_p99_ms",
            "edge.open_hit_ms_p50",
            "service.mutate_ms_p50",
            "generator.late_ms_p99",
        ] {
            r.layer(absent, 0.0);
        }
        let probe = Probe::new(&g, B, &cluster, &solve_req.body);
        layers::measure(ctx, &probe, &mut r, None)?;
    }
    Ok(r)
}

/// The 8 keys `hot_hits` replays.
fn hit_keys() -> Vec<String> {
    ["college:0.05", "brightkite:0.05"]
        .iter()
        .flat_map(|g| (1..=4).map(move |b| solve_body(g, b)))
        .collect()
}

/// An evenly spaced schedule at `rate` per second for `secs`, each slot
/// given a key drawn from `rng`.
fn even_schedule(
    rate: f64,
    secs: f64,
    keys: usize,
    rng: &mut SmallRng,
) -> (Vec<Duration>, Vec<usize>) {
    let n = (rate * secs).round().max(1.0) as usize;
    let at = (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect();
    (at, (0..n).map(|_| rng.gen_range(0..keys)).collect())
}

/// `hot_hits`: a closed loop of edge cache hits on one connection; every
/// timed request must be an edge hit with the warm-up's exact bytes. The
/// traced run adds an open loop at `HIT_RATE` on 2 connections and the
/// rate ladder of `edge.hit_max_rps`.
pub fn hot(ctx: &Ctx) -> Result<Report, String> {
    let keys = hit_keys();
    let ((cluster, edge, warm), setups) = set_up(|_| {
        let c = Proc::cluster(&ctx.bin, None)?;
        wait_ready(c.addr)?;
        let e = Proc::edge(&ctx.bin, c.addr)?;
        wait_ready(e.addr)?;
        let mut client = Client::new(e.addr);
        let mut warm = Vec::new();
        for k in &keys {
            warm.push(post_ok(&mut client, "/solve", k)?.body);
            // the edge caches once its event subscriber has adopted the
            // upstream's log: repeat until the key is an edge hit
            let deadline = Instant::now() + Duration::from_secs(10);
            while post_ok(&mut client, "/solve", k)?.header("x-antruss-edge") != Some("hit") {
                if Instant::now() > deadline {
                    return Err(format!("the edge never cached {k}"));
                }
                thread::sleep(Duration::from_millis(5));
            }
        }
        let rss = c.peak_rss_mb() + e.peak_rss_mb();
        Ok(((c, e, warm), rss))
    })?;
    let mut r = Report::new(setups);
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let check_hit = |k: usize, resp: Result<&ClientResponse, &str>| match resp {
        Ok(x) => (
            x.status == 200 && x.header("x-antruss-edge") == Some("hit") && x.body == warm[k],
            Info {
                cost: load::cost_of(x),
                ..Info::default()
            },
        ),
        Err(_) => (false, Info::default()),
    };
    // a seeded key mix, cycled by the closed loop
    let cycle: Vec<usize> = (0..4096).map(|_| rng.gen_range(0..keys.len())).collect();
    let closed = |secs: f64, pause: &mut dyn FnMut()| {
        let make = |i: usize| Req {
            path: "/solve".into(),
            body: keys[cycle[i % cycle.len()]].clone(),
        };
        let check =
            |i: usize, resp: Result<&ClientResponse, &str>| check_hit(cycle[i % cycle.len()], resp);
        load::closed_loop(edge.addr, secs, &make, &check, pause)
    };
    // untimed, but every answer is checked all the same
    for s in closed(HIT_WARM.as_secs_f64(), &mut || {}) {
        r.attempt(s.ok);
    }
    let edge_scrape = scrape(edge.addr)?;
    let before = Scrapes::before(&cluster)?;

    let rung = |rate: f64, secs: f64, traced: bool, rng: &mut SmallRng| -> Vec<Sample> {
        let (at, key_of) = even_schedule(rate, secs, keys.len(), rng);
        let make = |i: usize| Req {
            path: "/solve".into(),
            body: keys[key_of[i]].clone(),
        };
        let check = |i: usize, resp: Result<&ClientResponse, &str>| check_hit(key_of[i], resp);
        open_loop(
            edge.addr,
            &at,
            2,
            if traced { ctx.tracer.as_ref() } else { None },
            &make,
            &check,
        )
    };
    // the traced run spends 60% of the run in the open loop
    let open_secs = if ctx.trace { 0.6 * ctx.seconds } else { 0.0 };
    let mut open = Vec::new();
    if ctx.trace {
        let off = rung(HIT_RATE, open_secs / 2.0, false, &mut rng);
        let on = rung(HIT_RATE, open_secs / 2.0, true, &mut rng);
        let p50 = |s: &[Sample]| median(&s.iter().map(Sample::latency_ms).collect::<Vec<_>>());
        r.layer(
            "obs.trace_overhead_pct",
            100.0 * (p50(&on) - p50(&off)) / p50(&off),
        );
        r.layer(
            "edge.hit_p99_ms",
            windowed(&off.iter().collect::<Vec<_>>(), HIT_WINDOW, 0.99),
        );
        open.extend(off);
        open.extend(on);
    }
    let mut calib_ms = Vec::new();
    let low = closed(ctx.seconds - open_secs, &mut || {
        calib_ms.push(ctx.calib.sample())
    });
    let late = late_p99(&open);
    let edge_after = scrape(edge.addr)?;
    let scrapes = Scrapes::after(&cluster, before)?;

    for s in open.iter().chain(&low) {
        r.attempt(s.ok);
    }
    let open_ref: Vec<&Sample> = open.iter().collect();
    let low_ref: Vec<&Sample> = low.iter().collect();
    let low_lat = lat(&low_ref);
    r.latency(&low_lat, &calib_ms);
    if ctx.trace {
        r.mark_late(late, 0.5 * 2.0 / HIT_RATE * 1e3);
        client_layers(&mut r, &low_lat);
        r.layer("edge.open_hit_ms_p50", windowed(&open_ref, HIT_WINDOW, 0.5));
        r.layer(
            "sut.peak_rss_after_run_mb",
            cluster.peak_rss_mb() + edge.peak_rss_mb(),
        );
        r.layer("generator.late_ms_p99", late);
        let hits = delta(&edge_scrape, &edge_after, "antruss_edge_cache_hits_total");
        let misses = delta(&edge_scrape, &edge_after, "antruss_edge_cache_misses_total");
        r.layer("edge.hit_ratio", hits / (hits + misses).max(1.0));
        let infos: Vec<&Info> = open.iter().chain(&low).map(|s| &s.info).collect();
        let (cpu, bytes) = cost_p50(&infos);
        r.layer("service.cpu_us_per_request", cpu);
        r.layer("service.alloc_bytes_per_request", bytes);
        r.layer(
            "service.duplicate_solves",
            duplicate_solves(&scrapes.backend.0, &scrapes.backend.1, &[]),
        );
        scrapes.into_layers(&mut r);
        for absent in [
            "store.wal_bytes_per_mutate",
            "cluster.purge_ms_p50",
            "service.mutate_ms_p50",
        ] {
            r.layer(absent, 0.0);
        }
        r.layer("edge.hit_max_rps", max_rate(&rung, &mut rng));
        let g = generate("college:0.05");
        let probe = Probe::new(&g, 4, &cluster, &keys[3]);
        layers::measure(ctx, &probe, &mut r, Some(median(&low_lat) * 1e3))?;
    }
    Ok(r)
}

/// The highest offered rate whose hit tail (the p90 per one-second
/// window, medianed) stays within the limit with no
/// growing backlog: up the rate ladder, then three bisection steps.
fn max_rate(
    rung: &dyn Fn(f64, f64, bool, &mut SmallRng) -> Vec<Sample>,
    rng: &mut SmallRng,
) -> f64 {
    let passes = |rate: f64, rng: &mut SmallRng| {
        let s = rung(rate, 3.0, false, rng);
        let tail = windowed(&s.iter().collect::<Vec<_>>(), HIT_WINDOW, HIT_TAIL_Q);
        // backlog: how far behind schedule the last tenth was sent
        let behind = median(
            &s[s.len() * 9 / 10..]
                .iter()
                .map(|x| ms(x.sent.saturating_duration_since(x.due)))
                .collect::<Vec<_>>(),
        );
        let all_ok = s.iter().all(|x| x.ok);
        eprintln!("perfbench: hot_hits rung {rate}/s: p90 {tail:.3} ms, backlog {behind:.3} ms, all ok {all_ok}");
        all_ok && tail <= HIT_LIMIT_MS && behind < HIT_LIMIT_MS
    };
    let (mut good, mut bad) = (0.0, f64::NAN);
    for rate in [LOW_RATE, HIT_RATE, 10_000.0, 20_000.0, 40_000.0] {
        if passes(rate, rng) {
            good = rate;
        } else {
            bad = rate;
            break;
        }
    }
    if bad.is_nan() {
        return good;
    }
    for _ in 0..3 {
        let mid = (good + bad) / 2.0;
        if passes(mid, rng) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    good
}

/// Vertex-id pairs of one mutation batch.
pub type Batch = Vec<(u64, u64)>;

/// The mutated graph's name in `write_mix`.
const MUT_GRAPH: &str = "college-mut";
const MUT_BATCHES: usize = 16;
const MUT_BATCH_EDGES: usize = 4;

/// `write_mix`: 1 mutate batch/s beside 100 reads/s over 8 keys, open
/// loop through the router to a durable backend. (At 2 batches/s the
/// two connections sit at the knee: 30% of reads queue behind misses,
/// and read and mutate p50 varied by 0.3 of their median across seeds.)
pub fn write_mix(ctx: &Ctx) -> Result<Report, String> {
    let tmp = ctx.tmp.clone();
    let ((cluster, edge_list), setups) = set_up(|i| {
        let dir = tmp.join(format!("setup-{i}"));
        let file = dir.join("college-0.2.txt");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let status = Command::new(&ctx.bin)
            .args(["gen", "college", "--scale", "0.2", "--out"])
            .arg(&file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err("antruss gen failed".into());
        }
        let edge_list = std::fs::read(&file).map_err(|e| e.to_string())?;
        let c = Proc::cluster(&ctx.bin, Some(&dir.join("data")))?;
        wait_ready(c.addr)?;
        let mut client = Client::new(c.addr);
        let reg = client
            .post(
                &format!("/graphs?name={MUT_GRAPH}"),
                "text/plain",
                &edge_list,
            )
            .map_err(|e| e.to_string())?;
        if reg.status != 201 {
            return Err(format!("registering {MUT_GRAPH}: status {}", reg.status));
        }
        for k in read_keys() {
            post_ok(&mut client, "/solve", &solve_body(&k.0, k.1))?;
        }
        let rss = c.peak_rss_mb();
        Ok(((c, edge_list), rss))
    })?;
    let mut r = Report::new(setups);
    let mut rng = SmallRng::seed_from_u64(ctx.seed);

    // the mutation cycle and every graph version it passes through,
    // built by the same catalog code in-process; references untimed
    let catalog = Catalog::new();
    let g0 = catalog
        .register(MUT_GRAPH, &edge_list)
        .map_err(|e| e.to_string())?;
    let batches = pick_batches(&g0, &mut rng);
    // an even count, so the cycle ends on a re-insert
    let n_mut = 2 * (ctx.seconds / 2.0).floor().max(1.0) as usize;
    let mut versions = vec![antruss_graph::io_binary::fingerprint(&g0)];
    let mut graphs: HashMap<u64, std::sync::Arc<CsrGraph>> =
        HashMap::from([(versions[0], g0.clone())]);
    for i in 0..n_mut {
        let (ins, del) = mutation(&batches, i);
        catalog
            .mutate(MUT_GRAPH, &ins, &del)
            .map_err(|e| e.to_string())?;
        let g = catalog.lookup(MUT_GRAPH).expect("registered").0;
        let fp = antruss_graph::io_binary::fingerprint(&g);
        versions.push(fp);
        graphs.entry(fp).or_insert(g);
    }
    let small = generate("college:0.05");
    let mut jobs: Vec<(u64, &CsrGraph, usize)> = graphs
        .iter()
        .flat_map(|(fp, g)| (1..=4).map(move |b| (*fp, &**g, b)))
        .collect();
    jobs.extend((1..=4).map(|b| (0, &small, b)));
    let refs = solve_all(&jobs);

    // schedule: a read every 10 ms, a mutation every second between them
    #[derive(Clone, Copy)]
    enum Op {
        Read(usize),
        Mutate(usize),
    }
    let keys = read_keys();
    let n_reads = (100.0 * ctx.seconds) as usize;
    let mut plan: Vec<(Duration, Op)> = (0..n_reads)
        .map(|i| {
            (
                Duration::from_micros(5_000 + 10_000 * i as u64),
                Op::Read(rng.gen_range(0..keys.len())),
            )
        })
        .collect();
    plan.extend((0..n_mut).map(|j| {
        (
            Duration::from_micros(500_000 + 1_000_000 * j as u64),
            Op::Mutate(j),
        )
    }));
    plan.sort_by_key(|p| p.0);
    let at: Vec<Duration> = plan.iter().map(|p| p.0).collect();
    let mutated_done = AtomicUsize::new(0);
    let make = |i: usize| match plan[i].1 {
        Op::Read(k) => Req {
            path: "/solve".into(),
            body: solve_body(&keys[k].0, keys[k].1),
        },
        Op::Mutate(j) => {
            // mutations never overlap, so the served graph is always the
            // cycle's G0 or G0 minus one batch
            while mutated_done.load(Ordering::SeqCst) < j {
                thread::sleep(Duration::from_micros(50));
            }
            let (ins, del) = mutation(&batches, j);
            Req {
                path: format!("/graphs/{MUT_GRAPH}/mutate"),
                body: mutate_body(&ins, &del),
            }
        }
    };
    let check = |i: usize, resp: Result<&ClientResponse, &str>| -> (bool, Info) {
        match (plan[i].1, resp) {
            (Op::Read(_), Ok(x)) if x.status == 200 => (true, solve_info(x)),
            (Op::Mutate(_), resp) => {
                mutated_done.fetch_add(1, Ordering::SeqCst);
                let reply = resp.ok().filter(|x| x.status == 200).and_then(|x| {
                    let v = antruss_core::json::parse(&x.body_string()).ok()?;
                    Some((v.get("edges")?.as_u64()?, v.get("recomputed")?.as_u64()?))
                });
                (
                    reply.is_some(),
                    Info {
                        repeel: reply,
                        ..Info::default()
                    },
                )
            }
            _ => (false, Info::default()),
        }
    };

    let mut calib_ms: Vec<f64> = (0..MIX_CALIB).map(|_| ctx.calib.sample()).collect();
    let before = Scrapes::before(&cluster)?;
    let mut samples = Vec::new();
    if ctx.trace {
        // untraced first half, traced second half, on one schedule
        let half = at.len() / 2;
        let off = open_loop(cluster.addr, &at[..half], 2, None, &make, &check);
        let shifted: Vec<Duration> = at[half..].iter().map(|d| *d - at[half]).collect();
        let on = open_loop(
            cluster.addr,
            &shifted,
            2,
            ctx.tracer.as_ref(),
            &|i| make(i + half),
            &|i, x| check(i + half, x),
        );
        let p50 = |s: &[Sample], plan_off: usize| {
            median(
                &s.iter()
                    .filter(|x| matches!(plan[x.idx + plan_off].1, Op::Read(_)))
                    .map(Sample::latency_ms)
                    .collect::<Vec<_>>(),
            )
        };
        r.layer(
            "obs.trace_overhead_pct",
            100.0 * (p50(&on, half) - p50(&off, 0)) / p50(&off, 0),
        );
        samples.extend(off);
        samples.extend(on.into_iter().map(|mut s| {
            s.idx += half;
            s
        }));
    } else {
        samples = open_loop(cluster.addr, &at, 2, None, &make, &check);
    }
    let late = late_p99(&samples);
    let scrapes = Scrapes::after(&cluster, before)?;

    // which graph versions each read may reflect: every mutation acked
    // before it was sent, plus any mutation in flight while it was
    let muts: Vec<&Sample> = samples
        .iter()
        .filter(|s| matches!(plan[s.idx].1, Op::Mutate(_)))
        .collect();
    let mut reads = Vec::new();
    let mut miss_keys = Vec::new();
    for s in &samples {
        let Op::Read(k) = plan[s.idx].1 else { continue };
        let (graph, b) = &keys[k];
        let (applied, maybe) = if graph == MUT_GRAPH {
            (
                muts.iter().filter(|m| m.done < s.sent).count(),
                muts.iter()
                    .filter(|m| m.sent < s.done && m.done >= s.sent)
                    .count(),
            )
        } else {
            (0, 0)
        };
        let version = |v: usize| if graph == MUT_GRAPH { versions[v] } else { 0 };
        let ok = s.ok
            && (applied..=applied + maybe)
                .any(|v| s.info.answer.as_ref() == refs.get(&(version(v), *b)));
        r.attempt_why(ok, || {
            format!(
                "read {graph} b={b} after {applied} (+{maybe} in flight) mutations: got {:?}, expected {:?}",
                s.info.answer,
                (applied..=applied + maybe).map(|v| refs.get(&(version(v), *b))).collect::<Vec<_>>()
            )
        });
        if s.info.miss {
            miss_keys.push((k, s.info.stamp));
        }
        reads.push(s);
    }
    for m in &muts {
        r.attempt_why(m.ok, || format!("mutation {} failed", m.idx));
    }
    // the cycle ends on a re-insert: the graph must be G0 again
    let last = final_edges(cluster.backend.expect("cluster backend"))?;
    let g0_edges = edge_set(&g0);
    r.attempt_why(last == g0_edges, || {
        format!(
            "final graph has {} edges, G0 {}; {} missing, {} extra",
            last.len(),
            g0_edges.len(),
            g0_edges.difference(&last).count(),
            last.difference(&g0_edges).count()
        )
    });

    let read_lat = lat(&reads);
    let mut_lat = lat(&muts);
    calib_ms.extend((0..MIX_CALIB).map(|_| ctx.calib.sample()));
    r.latency(&read_lat, &calib_ms);
    r.mark_late(late, 0.5 * 2.0 / (at.len() as f64 / ctx.seconds) * 1e3);
    if ctx.trace {
        client_layers(&mut r, &read_lat);
        r.layer("service.mutate_ms_p50", median(&mut_lat));
        r.layer("sut.peak_rss_after_run_mb", cluster.peak_rss_mb());
        r.layer("generator.late_ms_p99", late);
        let (b0, b1) = &scrapes.backend;
        r.layer(
            "service.duplicate_solves",
            duplicate_solves(b0, b1, &miss_keys),
        );
        r.layer(
            "store.wal_bytes_per_mutate",
            delta(b0, b1, "antruss_store_wal_bytes") / muts.len().max(1) as f64,
        );
        let (cpu, bytes) = cost_p50(&reads.iter().map(|s| &s.info).collect::<Vec<_>>());
        r.layer("service.cpu_us_per_request", cpu);
        r.layer("service.alloc_bytes_per_request", bytes);
        let (edges, recomputed) = muts
            .iter()
            .filter_map(|m| m.info.repeel)
            .fold((0, 0), |(e, r), (edges, rec)| (e + edges, r + rec));
        r.layer(
            "truss.maintain_recomputed_share",
            recomputed as f64 / edges.max(1) as f64,
        );
        scrapes.into_layers(&mut r);
        for absent in [
            "edge.hit_ratio",
            "edge.socket_us",
            "edge.hit_max_rps",
            "edge.hit_p99_ms",
            "edge.open_hit_ms_p50",
            "cluster.purge_ms_p50",
        ] {
            r.layer(absent, 0.0);
        }
        let body = solve_body(MUT_GRAPH, 4);
        let mut probe = Probe::new(&g0, 4, &cluster, &body);
        probe.batches = batches.clone();
        probe.edge_list = Some(edge_list.clone());
        layers::measure(ctx, &probe, &mut r, None)?;
    }
    Ok(r)
}

/// `write_mix` reads: 4 keys on the mutated graph, 4 on `college:0.05`.
fn read_keys() -> Vec<(String, usize)> {
    [MUT_GRAPH, "college:0.05"]
        .iter()
        .flat_map(|g| (1..=4).map(move |b| (g.to_string(), b)))
        .collect()
}

/// `MUT_BATCHES` disjoint batches of existing edges, as the vertex-id
/// pairs a mutate request names.
pub fn pick_batches(g: &CsrGraph, rng: &mut SmallRng) -> Vec<Batch> {
    let mut chosen = BTreeSet::new();
    let mut order = Vec::new();
    while order.len() < MUT_BATCHES * MUT_BATCH_EDGES {
        let e = rng.gen_range(0..g.num_edges());
        if chosen.insert(e) {
            order.push(e);
        }
    }
    order
        .chunks(MUT_BATCH_EDGES)
        .map(|c| {
            c.iter()
                .map(|&e| {
                    let (u, v) = g.endpoints(antruss_graph::EdgeId(e as u32));
                    (u.0 as u64, v.0 as u64)
                })
                .collect()
        })
        .collect()
}

/// Mutation `i` of the cycle: `2j` deletes batch `j`, `2j+1` re-inserts
/// it. Returns `(inserts, deletes)`.
pub fn mutation(batches: &[Batch], i: usize) -> (Batch, Batch) {
    let batch = batches[(i / 2) % batches.len()].clone();
    if i.is_multiple_of(2) {
        (Vec::new(), batch)
    } else {
        (batch, Vec::new())
    }
}

fn mutate_body(ins: &[(u64, u64)], del: &[(u64, u64)]) -> String {
    let pairs = |p: &[(u64, u64)]| {
        p.iter()
            .map(|(u, v)| format!("[{u},{v}]"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"insert\":[{}],\"delete\":[{}]}}",
        pairs(ins),
        pairs(del)
    )
}

/// GAS answers for every `(version, graph, b)` job, on two threads.
fn solve_all(jobs: &[(u64, &CsrGraph, usize)]) -> HashMap<(u64, usize), (Vec<u64>, u64)> {
    let next = AtomicUsize::new(0);
    let out = std::sync::Mutex::new(HashMap::new());
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(fp, g, b)) = jobs.get(i) else {
                    break;
                };
                let answer = reference(g, "gas", b);
                out.lock()
                    .expect("reference map poisoned")
                    .insert((fp, b), answer);
            });
        }
    });
    out.into_inner().expect("reference map poisoned")
}

fn edge_set(g: &CsrGraph) -> BTreeSet<(u64, u64)> {
    g.edges()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            (u.0.min(v.0) as u64, u.0.max(v.0) as u64)
        })
        .collect()
}

/// The served graph's edge set, from the backend's (the router does
/// not route it) `GET /graphs/{name}/edges`.
fn final_edges(addr: SocketAddr) -> Result<BTreeSet<(u64, u64)>, String> {
    let r = Client::new(addr)
        .get(&format!("/graphs/{MUT_GRAPH}/edges"))
        .map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!(
            "GET /graphs/{MUT_GRAPH}/edges: status {}",
            r.status
        ));
    }
    // the dump names the catalog's own vertex ids; reading it back as a
    // graph would relabel them, so compare the raw pairs
    Ok(r.body_string()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace().map(|x| x.parse::<u64>().ok());
            let (u, v) = (f.next()??, f.next()??);
            Some((u.min(v), u.max(v)))
        })
        .collect())
}

/// Removes a run's scratch directory.
pub fn clean(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
