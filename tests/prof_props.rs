//! Property and e2e tests for the continuous profiler (`obs::prof`).
//!
//! The profiler's one hard promise is that it never lies by omission:
//! the counting allocator is lossless under concurrency, phase-scoped
//! cost spans never attribute more than the thread actually spent, the
//! `/proc` stat parser survives every comm the kernel can hand it
//! (thread names may contain spaces and parens), and the lock-wait
//! instrumentation charges the locks that were actually taken — a
//! mutate-heavy workload shows catalog-write wait, a read-only one
//! shows none.

use antruss::obs::prof::{self, parse_stat_line};
use antruss::service::{Client, Server, ServerConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The counting allocator is lossless under concurrent alloc/free:
    /// each thread sees at least its own deliberate allocations in its
    /// own slot, every deliberate byte is counted on both sides, and
    /// the deliberate churn nets out to zero live bytes.
    #[test]
    fn counting_alloc_is_lossless_under_concurrency(
        sizes in prop::collection::vec(1usize..4096, 1..40),
        threads in 1usize..5,
    ) {
        let results: Vec<(u64, u64, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let sizes = sizes.clone();
                    scope.spawn(move || {
                        // warm up thread-local slot assignment and any
                        // lazy runtime allocation before snapshotting
                        drop(Vec::<u8>::with_capacity(1));
                        let before = prof::thread_allocs();
                        for &size in &sizes {
                            // Vec<u8>::with_capacity is one allocation
                            // of exactly `size` bytes, freed on drop
                            drop(Vec::<u8>::with_capacity(size));
                        }
                        let after = prof::thread_allocs();
                        (
                            after.allocs - before.allocs,
                            after.alloc_bytes - before.alloc_bytes,
                            after.deallocs - before.deallocs,
                            after.dealloc_bytes - before.dealloc_bytes,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expected_bytes: u64 = sizes.iter().map(|&s| s as u64).sum();
        for (allocs, alloc_bytes, deallocs, dealloc_bytes) in results {
            prop_assert!(allocs >= sizes.len() as u64,
                "thread saw {allocs} alloc(s), made at least {}", sizes.len());
            prop_assert!(alloc_bytes >= expected_bytes,
                "thread saw {alloc_bytes}B allocated, asked for {expected_bytes}B");
            prop_assert!(deallocs >= sizes.len() as u64);
            prop_assert!(dealloc_bytes >= expected_bytes);
            // everything deliberately allocated was freed, so the two
            // sides must net out (the thread slot only moves when this
            // thread allocates, and it allocated nothing persistent)
            prop_assert_eq!(alloc_bytes, dealloc_bytes,
                "deliberate churn must net to zero live bytes");
        }
    }

    /// The `/proc/*/stat` parser anchors on the *last* `)`, so comms
    /// containing spaces, parens, and digits all round-trip, and the
    /// reported ticks are exactly utime + stime.
    #[test]
    fn stat_parser_round_trips_arbitrary_comms(
        comm_bytes in prop::collection::vec(32u8..127, 1..16),
        utime in 0u64..1_000_000,
        stime in 0u64..1_000_000,
    ) {
        // any printable ASCII comm, spaces and parens included
        let comm: String = comm_bytes.iter().map(|&b| b as char).collect();
        let line = format!(
            "12345 ({comm}) S 1 12345 12345 0 -1 4194304 100 0 0 0 {utime} {stime} \
             0 0 20 0 1 0 100 1000000 10 18446744073709551615"
        );
        let parsed = parse_stat_line(&line);
        prop_assert_eq!(parsed, Some((comm.to_string(), utime + stime)));
    }

    /// Phase-scoped attribution can never exceed what the thread
    /// actually spent: the sum of the cost spans' allocated bytes is
    /// bounded by the thread's total between the same two snapshots.
    #[test]
    fn phase_costs_sum_to_at_most_the_thread_total(
        phase_sizes in prop::collection::vec(1usize..2048, 1..8),
    ) {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                drop(Vec::<u8>::with_capacity(1)); // warm the slot
                antruss::obs::trace::take_costs(); // a clean request
                let request = prof::begin_cost();
                let mut keep = Vec::new();
                for &size in &phase_sizes {
                    let span = prof::cost_span("phase");
                    keep.push(Vec::<u8>::with_capacity(size));
                    drop(span);
                }
                let (_, total_bytes) = request.finish();
                // same-name spans coalesce into one accumulated entry
                let phases = antruss::obs::trace::take_costs();
                assert_eq!(phases.len(), 1);
                let attributed: u64 = phases.iter().map(|&(_, _, b)| b).sum();
                assert!(
                    attributed <= total_bytes,
                    "phases attribute {attributed}B, thread only spent {total_bytes}B"
                );
                // the deliberate allocations alone account for this much
                let deliberate: u64 = phase_sizes.iter().map(|&s| s as u64).sum();
                assert!(attributed >= deliberate,
                    "phases attribute {attributed}B, deliberately allocated {deliberate}B");
            }).join().unwrap();
        });
    }
}

/// A malformed stat line (no parens, parens reversed, too few fields)
/// parses to `None`, never panics.
#[test]
fn stat_parser_rejects_malformed_lines() {
    for bad in [
        "",
        "123",
        "123 comm S 1",
        "123 )comm( S 1 2 3",
        "123 (comm) S",
        "123 (comm",
    ] {
        assert_eq!(parse_stat_line(bad), None, "{bad:?}");
    }
}

fn start_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        cache_capacity: 64,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// This server's own catalog-write lock: the process-wide
/// `catalog_write` entry also counts sibling tests' servers.
fn catalog_write_stats(server: &Server) -> (u64, f64) {
    let l = server.state().catalog.write_lock_snapshot();
    (l.acquisitions, l.wait_seconds)
}

/// The lock-wait instrumentation charges the locks a workload actually
/// takes: a mutate-heavy run accumulates catalog-write acquisitions and
/// nonzero wait, while a read-only run over the same server adds no
/// catalog-write acquisitions at all.
#[test]
fn mutate_heavy_traffic_shows_catalog_lock_wait_reads_do_not() {
    let server = start_server();
    let addr = server.addr();

    // register a couple of graphs to mutate (these do take the lock —
    // that's fine, they happen before the baselines below)
    let mut client = Client::new(addr);
    for name in ["prof-a", "prof-b"] {
        let resp = client
            .post(
                &format!("/graphs?name={name}"),
                "text/plain",
                b"0 1\n1 2\n2 0\n0 3\n3 4\n4 0\n1 3\n2 4\n",
            )
            .expect("register");
        assert_eq!(resp.status, 201, "{}", resp.body_string());
    }

    // read-only phase: solves never touch the catalog write lock
    let (acq_before_reads, _) = catalog_write_stats(&server);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                let mut c = Client::new(addr);
                for seed in 0..10 {
                    let body = format!("{{\"graph\":\"prof-a\",\"b\":1,\"seed\":{seed}}}");
                    let resp = c
                        .post("/solve", "application/json", body.as_bytes())
                        .expect("solve");
                    assert_eq!(resp.status, 200, "{}", resp.body_string());
                }
            });
        }
    });
    let (acq_after_reads, _) = catalog_write_stats(&server);
    assert_eq!(
        acq_after_reads, acq_before_reads,
        "read-only traffic must not take the catalog write lock"
    );

    // mutate-heavy phase: concurrent mutations serialize on the lock
    let (acq_before, wait_before) = catalog_write_stats(&server);
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                let mut c = Client::new(addr);
                let graph = if t % 2 == 0 { "prof-a" } else { "prof-b" };
                for i in 0..10u32 {
                    let v = 5 + t * 10 + i;
                    let body = format!("{{\"insert\":[[0,{v}]]}}");
                    let resp = c
                        .post(
                            &format!("/graphs/{graph}/mutate"),
                            "application/json",
                            body.as_bytes(),
                        )
                        .expect("mutate");
                    assert_eq!(resp.status, 200, "{}", resp.body_string());
                }
            });
        }
    });
    let (acq_after, wait_after) = catalog_write_stats(&server);
    assert!(
        acq_after >= acq_before + 40,
        "40 mutations must take the catalog write lock: {acq_before} -> {acq_after}"
    );
    assert!(
        wait_after > wait_before,
        "mutate-heavy traffic must accumulate lock wait: {wait_before} -> {wait_after}"
    );

    // and the accumulated wait is visible where operators look for it
    let prof = client.get("/debug/prof").expect("/debug/prof");
    assert_eq!(prof.status, 200);
    let body = prof.body_string();
    assert!(body.contains("\"catalog_write\""), "{body}");

    server.shutdown();
}

/// Every `/solve` reply carries the request's own cost: the
/// `x-antruss-cost` header parses, and a cache miss (which runs the
/// solver) reports more allocated bytes than zero.
#[test]
fn solve_replies_carry_a_parseable_cost_header() {
    let server = start_server();
    let mut client = Client::new(server.addr());
    let resp = client
        .post(
            "/graphs?name=prof-cost",
            "text/plain",
            b"0 1\n1 2\n2 0\n0 3\n",
        )
        .expect("register");
    assert_eq!(resp.status, 201);
    let resp = client
        .post(
            "/solve",
            "application/json",
            br#"{"graph":"prof-cost","b":1,"seed":0}"#,
        )
        .expect("solve");
    assert_eq!(resp.status, 200);
    let header = resp
        .header(prof::COST_HEADER)
        .expect("every /solve reply carries x-antruss-cost");
    let (_cpu_us, alloc_bytes) = prof::parse_cost(header).expect("cost header parses");
    assert!(
        alloc_bytes > 0,
        "a solver run allocates: {header:?} reports zero bytes"
    );
    server.shutdown();
}
