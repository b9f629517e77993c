//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_lowreuse|cold_highreuse|hot_hits|write_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the `antruss` binary from this checkout, starts it as the
//! system under test, drives one workload from this process (at most 2
//! threads and 2 timed connections), checks every timed answer, and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `perfbench/README.md` says why each workload exists and
//! which end-to-end metric each layer metric should move.

mod calib;
mod layers;
mod load;
mod prom;
mod spans;
mod stats;
mod sut;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use spans::Tracer;
use stats::{median, trimmed_mean};

/// End-to-end metrics: every workload reports each one.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("latency_norm", "ratio"),
];

/// Per-layer metrics, from the traced run.
const PER_LAYER: [(&str, &str); 46] = [
    ("graph.support_ms", "ms"),
    ("truss.decompose_ms", "ms"),
    ("core.tree_build_ms", "ms"),
    ("core.round1_ms", "ms"),
    ("core.rounds_rest_ms", "ms"),
    ("core.recomputed_share", "ratio"),
    ("core.reuse_fully", "count"),
    ("core.reuse_partially", "count"),
    ("core.reuse_non", "count"),
    ("core.reuse_speedup", "ratio"),
    ("core.follower_search_us", "us"),
    ("core.serialize_us", "us"),
    ("service.parse_us", "us"),
    ("service.write_us", "us"),
    ("service.handle_hit_us", "us"),
    ("service.cache_get_us", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.hit_ratio", "ratio"),
    ("service.duplicate_solves", "count"),
    ("service.cpu_us_per_request", "us"),
    ("service.alloc_bytes_per_request", "bytes"),
    ("service.catalog_mutate_ms", "ms"),
    ("service.mutate_ms_p50", "ms"),
    ("truss.maintain_ms", "ms"),
    ("truss.maintain_recomputed_share", "ratio"),
    ("store.append_us", "us"),
    ("store.fsync_us", "us"),
    ("store.wal_bytes_per_mutate", "bytes"),
    ("cluster.router_hop_us", "us"),
    ("cluster.forward_us_p99", "us"),
    ("cluster.purge_ms_p50", "ms"),
    ("edge.handle_hit_us", "us"),
    ("edge.socket_us", "us"),
    ("edge.hit_ratio", "ratio"),
    ("edge.hit_max_rps", "1/s"),
    ("edge.hit_p99_ms", "ms"),
    ("edge.open_hit_ms_p50", "ms"),
    ("client.p50_ms", "ms"),
    ("client.p90_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.mean_ms", "ms"),
    ("host.calib_ms", "ms"),
    ("obs.catalog_lock_wait_us_p99", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("generator.late_ms_p99", "ms"),
    ("sut.peak_rss_after_run_mb", "MiB"),
];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `antruss` binary under test.
    pub bin: PathBuf,
    /// This run's scratch directory (removed at exit).
    pub tmp: PathBuf,
    /// Spans, in the traced run only.
    pub tracer: Option<Tracer>,
    /// The host-speed probe `latency_norm` divides by.
    pub calib: calib::Calib,
}

/// What one run measured.
pub struct Report {
    attempted: u64,
    failed: u64,
    /// `(seconds, peak RSS MiB)` of each set-up.
    setups: Vec<(f64, f64)>,
    e2e: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
    /// The open-loop generator's own lateness p99 and the limit past
    /// which it fell behind its schedule (ms).
    late_ms: (f64, f64),
    /// What `latency_norm` divides: the interdecile mean latency and
    /// the median calibration time (ms).
    latency_ms: f64,
    calib_ms: f64,
}

impl Report {
    pub fn new(setups: Vec<(f64, f64)>) -> Report {
        Report {
            attempted: 0,
            failed: 0,
            setups,
            e2e: Vec::new(),
            layers: Vec::new(),
            late_ms: (0.0, f64::INFINITY),
            latency_ms: 0.0,
            calib_ms: 0.0,
        }
    }

    /// Counts one timed request (or final-state check).
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one timed request, describing it on stderr if it failed
    /// (the first few only).
    pub fn attempt_why(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok && self.failed < 5 {
            eprintln!("perfbench: failed check: {}", why());
        }
        self.attempt(ok);
    }

    pub fn e2e(&mut self, name: &'static str, v: f64) {
        self.e2e.push((name, v));
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layers.push((name, v));
    }

    /// `latency_norm`: the interdecile mean of the timed `latencies`
    /// over the median of the calibration samples taken between them.
    pub fn latency(&mut self, latencies: &[f64], calib_ms: &[f64]) {
        self.latency_ms = trimmed_mean(latencies, 0.1);
        self.calib_ms = median(calib_ms);
        self.e2e("latency_norm", self.latency_ms / self.calib_ms);
        self.layer("client.mean_ms", self.latency_ms);
        self.layer("host.calib_ms", self.calib_ms);
    }

    pub fn has_layer(&self, name: &str) -> bool {
        self.layers.iter().any(|(n, _)| *n == name)
    }

    /// The open-loop generator's wake-up lateness (p99, ms) and the
    /// limit past which the run is invalid: half the mean gap between
    /// the requests one connection is due to send.
    pub fn mark_late(&mut self, late_ms: f64, limit_ms: f64) {
        self.late_ms = (late_ms, limit_ms);
    }

    fn finish(mut self) -> Report {
        let setup = median(&self.setups.iter().map(|s| s.0).collect::<Vec<_>>());
        let rss = median(&self.setups.iter().map(|s| s.1).collect::<Vec<_>>());
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.e2e.push(("setup_s", setup));
        self.e2e.push(("ok_ratio", ok));
        self.e2e.push(("peak_rss_mb", rss));
        self
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <cold_lowreuse|cold_highreuse|hot_hits|write_mix> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> (String, u64, f64, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage());
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let seed = get("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = get("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        usage();
    }
    (get("--workload"), seed, seconds, trace)
}

/// Builds `antruss` from this checkout and returns the binary's path.
fn build_binary() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "antruss-cli",
            "--bin",
            "antruss",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building antruss failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| "target".into());
    Ok(target.join("release").join("antruss"))
}

/// The git revision, or — in a checkout without `.git` — a digest of
/// the sources the binaries are built from.
fn revision() -> String {
    if let Ok(out) = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
    {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    for d in ["src", "crates", "vendor", "perfbench/src"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for byte in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-fnv64-{h:016x}")
}

fn metrics_json(names: &[(&str, &str)], values: &[(&'static str, f64)]) -> Result<String, String> {
    let mut s = String::from("{");
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a number ({v})"));
        }
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push('}');
    Ok(s)
}

fn main() {
    let (workload, seed, seconds, trace) = parse_args();
    if !["cold_lowreuse", "cold_highreuse", "hot_hits", "write_mix"].contains(&workload.as_str()) {
        usage();
    }
    let bin = build_binary().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1)
    });
    let tmp = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&tmp).and_then(|_| std::fs::create_dir_all(&out_dir)) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        bin,
        tmp,
        tracer: trace.then(|| Tracer::new(seed)),
        calib: calib::Calib::new(),
    };
    let result = match workload.as_str() {
        "cold_lowreuse" => workloads::cold(&ctx, "college:1.0"),
        "cold_highreuse" => workloads::cold(&ctx, "gowalla:0.1"),
        "hot_hits" => workloads::hot(&ctx),
        _ => workloads::write_mix(&ctx),
    };
    workloads::clean(&ctx.tmp);
    let report = match result {
        Ok(r) => r.finish(),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1)
        }
    };
    let metrics = if trace {
        metrics_json(&PER_LAYER, &report.layers)
    } else {
        metrics_json(&END_TO_END, &report.e2e)
    };
    let metrics = metrics.unwrap_or_else(|e| {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1)
    });
    let tag = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let (late_ms, late_limit_ms) = report.late_ms;
    let valid = late_ms <= late_limit_ms;
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let setup_runs: Vec<String> = report
        .setups
        .iter()
        .map(|(s, mib)| format!("[{s}, {mib}]"))
        .collect();
    let record = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"rev\": \"{}\", \"valid\": {valid}, \"generator_late_ms_p99\": {}, \
         \"latency_ms\": {}, \"calib_ms\": {}, \"setup_runs_s_mib\": [{}], \"metrics\": {metrics}}}",
        revision(),
        late_ms,
        report.latency_ms,
        report.calib_ms,
        setup_runs.join(", "),
    );
    let _ = std::fs::write(out_dir.join(format!("{tag}.json")), format!("{record}\n"));
    if let Some(tracer) = &ctx.tracer {
        let _ = std::fs::write(out_dir.join(format!("{tag}-spans.json")), tracer.to_json());
    }
    if !valid {
        eprintln!(
            "perfbench: {workload}: INVALID run: the generator's own lateness p99 was \
             {late_ms:.3} ms (limit {late_limit_ms:.3} ms)"
        );
    }
    println!("{record}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
}
