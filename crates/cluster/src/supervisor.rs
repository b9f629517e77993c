//! The cluster supervisor behind `antruss cluster`: starts N backend
//! servers on ephemeral loopback ports — or routes to *external*
//! backend addresses (`--backend-addrs`) it does not own — fronts them
//! with a [`Router`], and tears the whole topology down in order
//! (router first, so no request is routed into a dying backend).

use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use antruss_service::server::{install_sigint_handler, sigint_received};
use antruss_service::tier::resolve_threads;
use antruss_service::{Server, ServerConfig};

use crate::ring::DEFAULT_VNODES;
use crate::router::{Router, RouterConfig};

/// Topology of one supervised cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Backend count N to spawn in-process (ignored when
    /// `backend_addrs` is non-empty).
    pub backends: usize,
    /// External backend addresses: when non-empty the supervisor spawns
    /// nothing and the router routes to these processes instead (they
    /// typically run `antruss serve` on other hosts; more can join at
    /// runtime via `antruss serve --join`).
    pub backend_addrs: Vec<SocketAddr>,
    /// Replica factor R (each placement is naturally capped at the
    /// live member count; at least 1).
    pub replication: usize,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Router bind address (`"127.0.0.1:0"` = ephemeral port).
    pub router_addr: String,
    /// Router worker threads.
    pub router_threads: usize,
    /// Health-check + membership-tick cadence, milliseconds.
    pub health_interval_ms: u64,
    /// Expected heartbeat cadence for dynamic members, milliseconds.
    pub heartbeat_ms: u64,
    /// Missed-heartbeat intervals tolerated before eviction.
    pub miss_threshold: u32,
    /// Template for every spawned backend. `addr` is overridden with an
    /// ephemeral loopback port and `shard` with the backend's index;
    /// `data_dir`, when set, is treated as a *base* directory and each
    /// backend gets its own `shard-N` subdirectory under it (shards
    /// must never share a WAL).
    pub backend: ServerConfig,
    /// Peer router addresses this cluster's router gossips the dynamic
    /// member table with (`--peers`): run two `antruss cluster`
    /// processes pointed at each other and either router can admit,
    /// heartbeat, or evict a member for both.
    pub peers: Vec<SocketAddr>,
    /// Data directory for the *router's* control-plane state
    /// (`--router-data-dir`): the durable member-op log plus the event
    /// cursor, recovered on restart.
    pub router_data_dir: Option<String>,
}

impl Default for ClusterConfig {
    /// 3 spawned backends, R=2, default ring and backend settings,
    /// router on an ephemeral port, 1 s heartbeats with a 3-miss
    /// eviction threshold.
    fn default() -> ClusterConfig {
        ClusterConfig {
            backends: 3,
            backend_addrs: Vec::new(),
            replication: 2,
            vnodes: DEFAULT_VNODES,
            router_addr: "127.0.0.1:0".to_string(),
            router_threads: 4,
            health_interval_ms: 500,
            heartbeat_ms: 1000,
            miss_threshold: 3,
            backend: ServerConfig::default(),
            peers: Vec::new(),
            router_data_dir: None,
        }
    }
}

/// A running cluster: N backend [`Server`]s plus the fronting
/// [`Router`].
pub struct Cluster {
    backends: Vec<Server>,
    router: Router,
}

impl Cluster {
    /// Starts the backends (unless external addresses were given), then
    /// the router over the live addresses.
    pub fn start(config: ClusterConfig) -> std::io::Result<Cluster> {
        if config.backends == 0 && config.backend_addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cluster needs at least one backend (spawned or --backend-addrs)",
            ));
        }
        let mut backends = Vec::new();
        let router_backends: Vec<SocketAddr> = if config.backend_addrs.is_empty() {
            // every open router connection pins one backend worker, so a
            // backend must be able to hold one connection per router
            // worker plus the health checker and a couple of concurrent
            // warm-up syncs — otherwise a traffic burst queues behind
            // idle connections
            let backend_threads = resolve_threads(config.backend.threads)
                .max(resolve_threads(config.router_threads) + 4);
            for shard in 0..config.backends {
                let backend_cfg = ServerConfig {
                    addr: "127.0.0.1:0".to_string(),
                    threads: backend_threads,
                    shard: Some(shard as u32),
                    data_dir: config
                        .backend
                        .data_dir
                        .as_ref()
                        .map(|base| format!("{base}/shard-{shard}")),
                    ..config.backend.clone()
                };
                backends.push(Server::start(backend_cfg)?);
            }
            backends.iter().map(Server::addr).collect()
        } else {
            config.backend_addrs.clone()
        };
        let router = Router::start(RouterConfig {
            addr: config.router_addr.clone(),
            threads: config.router_threads,
            // NOT clamped to the starting backend count: members join at
            // runtime, and the ring already caps each placement at the
            // live member count — a clamp here would freeze R at however
            // many backends existed at startup
            replication: config.replication.max(1),
            backends: router_backends,
            vnodes: config.vnodes,
            max_body_bytes: config.backend.max_body_bytes,
            health_interval_ms: config.health_interval_ms,
            heartbeat_ms: config.heartbeat_ms,
            miss_threshold: config.miss_threshold,
            // one --metrics-interval / --slo flag configures every tier
            // of a supervised cluster: the router samples and evaluates
            // on the same cadence and objectives as its backends
            metrics_interval_ms: config.backend.metrics_interval_ms,
            slos: config.backend.slos.clone(),
            peers: config.peers.clone(),
            data_dir: config.router_data_dir.clone(),
        })?;
        Ok(Cluster { backends, router })
    }

    /// The router's bound address — the cluster's client-facing door.
    pub fn router_addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Backend addresses in shard order.
    pub fn backend_addrs(&self) -> Vec<SocketAddr> {
        self.backends.iter().map(Server::addr).collect()
    }

    /// The fronting router (for in-process inspection in tests).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Stops the router, then every backend; reports per-component
    /// totals.
    pub fn shutdown(self) -> String {
        let mut report = self.router.shutdown();
        for (i, b) in self.backends.into_iter().enumerate() {
            report.push_str(&format!("\nshard {i}: {}", b.shutdown()));
        }
        report
    }

    /// Blocks until SIGINT (ctrl-c), then shuts the topology down
    /// gracefully.
    pub fn run_until_sigint(self) -> String {
        install_sigint_handler();
        while !sigint_received() {
            thread::sleep(Duration::from_millis(100));
        }
        self.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antruss_service::Client;

    #[test]
    fn cluster_starts_serves_and_shuts_down() {
        let cluster = Cluster::start(ClusterConfig {
            backends: 2,
            health_interval_ms: 0, // no health thread in this smoke test
            ..ClusterConfig::default()
        })
        .expect("cluster starts");
        assert_eq!(cluster.backend_addrs().len(), 2);

        let mut client = Client::new(cluster.router_addr());
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        let solvers = client.get("/solvers").unwrap();
        assert_eq!(solvers.status, 200);
        assert!(solvers.body_string().contains("gas"));

        let report = cluster.shutdown();
        assert!(report.contains("shard 1:"), "{report}");
    }

    #[test]
    fn spawned_backends_get_per_shard_data_dirs() {
        let base =
            std::env::temp_dir().join(format!("antruss-supervisor-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let cluster = Cluster::start(ClusterConfig {
            backends: 2,
            health_interval_ms: 0,
            backend: ServerConfig {
                data_dir: Some(base.display().to_string()),
                ..ServerConfig::default()
            },
            ..ClusterConfig::default()
        })
        .expect("cluster starts durable");
        for shard in 0..2 {
            let wal = base.join(format!("shard-{shard}")).join("wal.log");
            assert!(wal.is_file(), "missing {}", wal.display());
        }
        cluster.shutdown();
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn zero_backends_is_an_error() {
        assert!(Cluster::start(ClusterConfig {
            backends: 0,
            ..ClusterConfig::default()
        })
        .is_err());
    }

    #[test]
    fn external_backend_addrs_are_routed_not_spawned() {
        // two externally-owned backends (what `antruss serve` would be
        // on other hosts) fronted via --backend-addrs
        let ext: Vec<Server> = (0..2)
            .map(|_| Server::start(ServerConfig::default()).expect("bind external backend"))
            .collect();
        let cluster = Cluster::start(ClusterConfig {
            backends: 0,
            backend_addrs: ext.iter().map(Server::addr).collect(),
            health_interval_ms: 0,
            ..ClusterConfig::default()
        })
        .expect("cluster starts over external backends");
        assert!(
            cluster.backend_addrs().is_empty(),
            "external mode must spawn nothing"
        );
        let mut client = Client::new(cluster.router_addr());
        let solvers = client.get("/solvers").unwrap();
        assert_eq!(solvers.status, 200);
        assert!(solvers.body_string().contains("gas"));
        let ring = client.get("/ring").unwrap().body_string();
        for s in &ext {
            assert!(
                ring.contains(&s.addr().to_string()),
                "external backend missing from /ring: {ring}"
            );
        }
        cluster.shutdown();
        for s in ext {
            s.shutdown();
        }
    }
}
