//! The SIGINT drain runs once per tier, with the real binary: ctrl-c on
//! `antruss serve` prints one final metrics snapshot and one final
//! profile snapshot, and on `antruss cluster --backends 1` the router
//! and the backend print one of each.

#![cfg(unix)]

use std::io::BufRead as _;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use antruss_service::Client;

/// A spawned `antruss` subcommand, the address it reported on stderr,
/// and the thread collecting the rest of its stderr.
struct Spawned {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Spawned {
    /// Starts `antruss args…` and waits for the stderr line naming its
    /// client-facing address (the text right after `marker`).
    fn start(args: &[&str], marker: &'static str) -> Spawned {
        let mut child = Command::new(env!("CARGO_BIN_EXE_antruss"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn antruss");
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel::<SocketAddr>();
        let stderr = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in std::io::BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split(marker).nth(1) {
                    if let Some(addr) = rest.split_whitespace().next().and_then(|a| a.parse().ok())
                    {
                        let _ = tx.send(addr);
                    }
                }
                lines.push(line);
            }
            lines
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("process never reported its address");
        Spawned {
            child,
            addr,
            stderr: Some(stderr),
        }
    }

    /// Sends SIGINT, waits for a clean exit and returns all of stderr.
    fn interrupt(mut self) -> String {
        extern "C" {
            // libc is already linked by std
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGINT: i32 = 2;
        let pid = i32::try_from(self.child.id()).expect("pid fits i32");
        // SAFETY: kill(2) takes two integers and reads no memory of
        // this process; the pid is our own child's
        assert_eq!(unsafe { kill(pid, SIGINT) }, 0, "kill -INT {pid}");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("wait") {
                break status;
            }
            assert!(Instant::now() < deadline, "no exit within 30 s of SIGINT");
            std::thread::sleep(Duration::from_millis(50));
        };
        assert!(status.success(), "exit status {status}");
        let lines = self.stderr.take().unwrap().join().expect("stderr reader");
        lines.join("\n")
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The drain blocks on stderr as `(heading, body)` pairs, split at the
/// `--- heading ---` lines.
fn drain_blocks(stderr: &str) -> Vec<(String, String)> {
    let mut blocks: Vec<(String, String)> = Vec::new();
    for line in stderr.lines() {
        if let Some(heading) = line
            .strip_prefix("--- ")
            .and_then(|l| l.strip_suffix(" ---"))
        {
            blocks.push((heading.to_string(), String::new()));
        } else if let Some((_, body)) = blocks.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    blocks
}

/// How many `heading` blocks contain `needle`.
fn count(blocks: &[(String, String)], heading: &str, needle: &str) -> usize {
    blocks
        .iter()
        .filter(|(h, body)| h == heading && body.contains(needle))
        .count()
}

/// The block headings, in order (for failure messages).
fn headings(blocks: &[(String, String)]) -> Vec<&str> {
    blocks.iter().map(|(h, _)| h.as_str()).collect()
}

const METRICS: &str = "final metrics snapshot";
const PROFILE: &str = "final profile snapshot";

fn solve(addr: SocketAddr) {
    let resp = Client::new(addr)
        .post(
            "/solve",
            "application/json",
            br#"{"graph":"college:0.05","b":1}"#,
        )
        .expect("POST /solve");
    assert_eq!(resp.status, 200, "{}", resp.body_string());
}

#[test]
fn serve_drains_once_on_sigint() {
    let serve = Spawned::start(
        &["serve", "--addr", "127.0.0.1:0", "--threads", "2"],
        "listening on http://",
    );
    solve(serve.addr);
    let blocks = drain_blocks(&serve.interrupt());
    assert_eq!(count(&blocks, METRICS, ""), 1, "{:?}", headings(&blocks));
    assert_eq!(count(&blocks, PROFILE, ""), 1, "{:?}", headings(&blocks));
    assert_eq!(count(&blocks, METRICS, "antruss_solve_requests_total 1"), 1);
    assert_eq!(count(&blocks, PROFILE, "\"tier\":\"server\""), 1);
}

#[test]
fn cluster_drains_each_tier_once_on_sigint() {
    let cluster = Spawned::start(
        &[
            "cluster",
            "--backends",
            "1",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ],
        "router on http://",
    );
    solve(cluster.addr);
    let blocks = drain_blocks(&cluster.interrupt());
    assert_eq!(count(&blocks, METRICS, ""), 2, "{:?}", headings(&blocks));
    assert_eq!(count(&blocks, PROFILE, ""), 2, "{:?}", headings(&blocks));
    // one of each per tier: the router's families and the backend's
    assert_eq!(count(&blocks, METRICS, "antruss_router_requests_total"), 1);
    assert_eq!(count(&blocks, METRICS, "antruss_solve_requests_total"), 1);
    for tier in ["router", "server"] {
        let needle = format!("\"tier\":\"{tier}\"");
        assert_eq!(count(&blocks, PROFILE, &needle), 1, "{tier}");
    }
}
