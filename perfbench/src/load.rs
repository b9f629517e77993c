//! The open-loop request generator: a fixed schedule of due times, sent
//! on whichever of the timed connections is free, each request timed
//! from when it was *due* (so a stall also charges the requests queued
//! behind it).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use antruss_obs::trace::{HOPS_HEADER, SPAN_HEADER, TRACE_HEADER};
use antruss_service::{Client, ClientResponse};

use crate::spans::Tracer;

/// One request: `POST path` with a JSON body.
pub struct Req {
    pub path: String,
    pub body: String,
}

/// What one timed request did.
pub struct Sample {
    /// Index into the schedule.
    pub idx: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// How late the generator itself woke: past the due time *and* past
    /// the moment its connection became free.
    pub late: Duration,
    /// Status, output checks and headers all passed.
    pub ok: bool,
    pub info: Info,
}

impl Sample {
    /// Latency from the intended send time, milliseconds, less the
    /// generator's own lateness: a wait for a busy connection (the
    /// system's backlog) counts, the generator oversleeping does not.
    pub fn latency_ms(&self) -> f64 {
        (self
            .done
            .saturating_duration_since(self.due)
            .saturating_sub(self.late))
        .as_secs_f64()
            * 1e3
    }
}

/// The facts a workload's checker keeps from a response.
#[derive(Default, Clone, Debug)]
pub struct Info {
    /// `x-antruss-cache: miss` (the backend solved).
    pub miss: bool,
    /// `x-antruss-events-head`: the graph version the answer reflects.
    pub stamp: u64,
    /// `x-antruss-cost` as `(cpu_us, alloc_bytes)`.
    pub cost: Option<(u64, u64)>,
    /// Anchors and total gain of a solve.
    pub answer: Option<(Vec<u64>, u64)>,
    /// `(edges, recomputed)` of a mutate reply.
    pub repeel: Option<(u64, u64)>,
}

/// A workload's answer check: whether response `i` (or its transport
/// error) is right, plus the facts worth keeping.
pub type Check<'a> = dyn Fn(usize, Result<&ClientResponse, &str>) -> (bool, Info) + Sync + 'a;

/// Sends one request on `client`, as a traced request when `tracer` is
/// set.
pub fn send(
    client: &mut Client,
    req: &Req,
    tracer: Option<&Tracer>,
) -> (Instant, Result<ClientResponse, String>) {
    let sent = Instant::now();
    let r = match tracer {
        None => client.post(&req.path, "application/json", req.body.as_bytes()),
        Some(t) => {
            let ids = (t.fresh_id(), t.fresh_id());
            let headers = [
                (TRACE_HEADER.to_string(), format!("{:016x}", ids.0)),
                (SPAN_HEADER.to_string(), format!("{:016x}", ids.1)),
            ];
            let r = client.post_with_headers(
                &req.path,
                "application/json",
                req.body.as_bytes(),
                &headers,
            );
            let hops = r.as_ref().ok().and_then(|r| r.header(HOPS_HEADER));
            t.request(
                ids,
                &format!("POST {}", req.path),
                sent,
                Instant::now(),
                hops,
            );
            r
        }
    };
    (sent, r.map_err(|e| e.to_string()))
}

/// Runs `schedule` (offsets from the start, one per request) on `conns`
/// connections to `addr`. `make(i)` builds request `i` (it may block, to
/// order requests that must not overlap); `check(i, response)` returns
/// whether the answer is right plus the facts worth keeping.
pub fn open_loop(
    addr: SocketAddr,
    schedule: &[Duration],
    conns: usize,
    tracer: Option<&Tracer>,
    make: &(dyn Fn(usize) -> Req + Sync),
    check: &Check,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(schedule.len()));
    // a little lead so both connections are open before the first due time
    let start = Instant::now() + Duration::from_millis(20);
    thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut client = Client::new(addr);
                let mut free = start;
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= schedule.len() {
                        break;
                    }
                    let due = start + schedule[i];
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let late = Instant::now().saturating_duration_since(due.max(free));
                    let req = make(i);
                    let (sent, r) = send(&mut client, &req, tracer);
                    let done = Instant::now();
                    free = done;
                    let (ok, info) = match &r {
                        Ok(resp) => check(i, Ok(resp)),
                        Err(e) => check(i, Err(e)),
                    };
                    mine.push(Sample {
                        idx: i,
                        due,
                        sent,
                        done,
                        late,
                        ok,
                        info,
                    });
                }
                out.lock().expect("sample buffer poisoned").extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().expect("sample buffer poisoned");
    samples.sort_by_key(|s| s.idx);
    samples
}

/// Sends requests back to back on one connection for `secs`: request
/// `i` goes out the moment answer `i - 1` is in (a closed loop, so
/// each sample is due when it is sent). `pause` runs after every
/// `PAUSE_EVERY` requests, between two of them, outside every sample:
/// counted in requests, not seconds, so that a slow stretch of the run
/// weighs as much in what `pause` measures as in the samples.
pub fn closed_loop(
    addr: SocketAddr,
    secs: f64,
    make: &dyn Fn(usize) -> Req,
    check: &Check,
    pause: &mut dyn FnMut(),
) -> Vec<Sample> {
    const PAUSE_EVERY: usize = 8192;
    let mut client = Client::new(addr);
    let start = Instant::now();
    let mut out = Vec::new();
    while start.elapsed().as_secs_f64() < secs {
        if !out.is_empty() && out.len() % PAUSE_EVERY == 0 {
            pause();
        }
        let i = out.len();
        let (sent, r) = send(&mut client, &make(i), None);
        let done = Instant::now();
        let (ok, info) = match &r {
            Ok(resp) => check(i, Ok(resp)),
            Err(e) => check(i, Err(e)),
        };
        out.push(Sample {
            idx: i,
            due: sent,
            sent,
            done,
            late: Duration::ZERO,
            ok,
            info,
        });
    }
    out
}

/// Parses `x-antruss-cost: cpu_us=N;alloc_bytes=M`.
pub fn cost_of(resp: &ClientResponse) -> Option<(u64, u64)> {
    antruss_obs::prof::parse_cost(resp.header(antruss_obs::prof::COST_HEADER)?)
}

/// Parses a solve body's anchors and total gain.
pub fn answer_of(body: &str) -> Option<(Vec<u64>, u64)> {
    let v = antruss_core::json::parse(body).ok()?;
    let anchors = match v.get("anchors")? {
        antruss_core::json::Value::Arr(items) => items
            .iter()
            .map(|a| a.get("edge").and_then(|e| e.as_u64()))
            .collect::<Option<Vec<u64>>>()?,
        _ => return None,
    };
    Some((anchors, v.get("total_gain")?.as_u64()?))
}

/// The common facts of a solve response.
pub fn solve_info(resp: &ClientResponse) -> Info {
    Info {
        miss: resp.header("x-antruss-cache") == Some("miss"),
        stamp: resp
            .header("x-antruss-events-head")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        cost: cost_of(resp),
        answer: answer_of(&resp.body_string()),
        repeel: None,
    }
}
