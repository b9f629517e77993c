//! The system under test: real `antruss` processes, started fresh for
//! every set-up, found by the addresses they log, and stopped (and
//! waited for) before the run ends.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt as _;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use antruss_service::{Client, ClientResponse};

use crate::prom::Scrape;

/// One spawned `antruss` process.
pub struct Proc {
    child: Child,
    /// The address clients talk to (the router, or the edge).
    pub addr: SocketAddr,
    /// `cluster` only: the backend's own address.
    pub backend: Option<SocketAddr>,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// `antruss cluster --backends 1 --replicas 1` with the CLI's
    /// default thread counts, on an ephemeral port.
    pub fn cluster(bin: &Path, data_dir: Option<&Path>) -> Result<Proc, String> {
        let mut args = vec![
            "cluster",
            "--backends",
            "1",
            "--replicas",
            "1",
            "--addr",
            "127.0.0.1:0",
        ];
        let dir;
        if let Some(d) = data_dir {
            dir = d.to_string_lossy().into_owned();
            args.extend(["--data-dir", dir.as_str()]);
        }
        Proc::spawn(bin, &args, &["router on http://", "shard 0: http://"])
    }

    /// `antruss edge --upstream <router>` with default threads.
    pub fn edge(bin: &Path, upstream: SocketAddr) -> Result<Proc, String> {
        let up = upstream.to_string();
        Proc::spawn(
            bin,
            &["edge", "--upstream", &up, "--addr", "127.0.0.1:0"],
            &["listening on http://"],
        )
    }

    fn spawn(bin: &Path, args: &[&str], markers: &[&str]) -> Result<Proc, String> {
        let mut cmd = Command::new(bin);
        // SAFETY: `prctl(PR_SET_PDEATHSIG)` only sets a flag on the
        // child; it allocates nothing and touches no lock, so it is
        // async-signal-safe between fork and exec.
        unsafe {
            cmd.pre_exec(|| {
                die_with_parent();
                Ok(())
            });
        }
        let mut child = cmd
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut found: Vec<Option<SocketAddr>> = vec![None; markers.len()];
        let mut line = String::new();
        while found.iter().any(Option::is_none) {
            line.clear();
            if lines.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("antruss {} exited before it listened", args[0]));
            }
            for (slot, marker) in found.iter_mut().zip(markers) {
                if let Some(rest) = line.split(marker).nth(1) {
                    let addr: String = rest.chars().take_while(|c| !c.is_whitespace()).collect();
                    *slot = addr.parse().ok();
                }
            }
        }
        let drain = thread::spawn(move || drain(lines));
        Ok(Proc {
            child,
            addr: found[0].expect("marker found"),
            backend: found.get(1).copied().flatten(),
            drain: Some(drain),
        })
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }
}

impl Drop for Proc {
    /// Kills the process and waits for it (and for its log drain), so a
    /// run that fails part-way still leaves nothing behind.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Asks the kernel to kill the calling process when its parent (the
/// benchmark thread that spawned it) dies, so a benchmark killed from outside
/// leaves no system under test behind.
fn die_with_parent() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: plain integer arguments; the call cannot touch memory.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
    }
}

fn drain(mut lines: BufReader<ChildStderr>) {
    let mut sink = String::new();
    while lines.read_line(&mut sink).unwrap_or(0) > 0 {
        sink.clear();
    }
}

/// Polls `GET /readyz` until it answers 200.
pub fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(r) = Client::new(addr).get("/readyz") {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        thread::sleep(Duration::from_millis(2));
    }
}

/// One `/metrics` scrape on a connection of its own, closed on return.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let r = Client::new(addr)
        .get("/metrics")
        .map_err(|e| format!("scraping {addr}: {e}"))?;
    Ok(Scrape::parse(&r.body_string()))
}

/// `POST` with a JSON body on `client`, requiring a 2xx status.
pub fn post_ok(client: &mut Client, path: &str, body: &str) -> Result<ClientResponse, String> {
    let r = client
        .post(path, "application/json", body.as_bytes())
        .map_err(|e| format!("POST {path}: {e}"))?;
    if r.status / 100 != 2 {
        return Err(format!(
            "POST {path}: status {} {}",
            r.status,
            r.body_string()
        ));
    }
    Ok(r)
}
