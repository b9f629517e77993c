//! The graph catalog: every graph the service can solve on, loaded once
//! and shared as `Arc<CsrGraph>` across worker threads.
//!
//! Two namespaces coexist:
//!
//! * **dataset specs** — any slug from
//!   [`DatasetId::slugs`](antruss_datasets::DatasetId::slugs), optionally
//!   with a `:scale` suffix (`"college"`, `"gowalla:0.1"`). These are
//!   generated lazily on first use and then cached, so the expensive
//!   generation + CSR build happens once per spec, not per request;
//! * **registered graphs** — arbitrary names uploaded via
//!   `POST /graphs` with a SNAP edge-list body.
//!
//! With a [`Store`] attached (`antruss serve --data-dir`), every
//! successful register / mutate / delete is appended to the write-ahead
//! log **before** the method returns — so an acknowledged catalog write
//! is recoverable — and the WAL is periodically compacted into
//! per-graph binary snapshots. Dataset analogues are never persisted:
//! they regenerate pristine from their spec.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use antruss_obs::prof::{LockSnapshot, ProfMutex};

use antruss_datasets::DatasetId;
use antruss_graph::{io, io_binary, CsrGraph, EdgeId, EdgeSet, GraphBuilder, VertexId};
use antruss_store::{CatalogOp, Store};
use antruss_truss::DynamicTruss;

use crate::events::{self, EventKind, EventLog};

/// Registered (not generated) graphs beyond this are refused — the
/// catalog is resident memory.
pub const MAX_REGISTERED: usize = 128;

/// A mutation batch may grow the vertex universe by at most this many
/// new ids beyond the current `n` (a bounds check, not a feature: dense
/// ids mean a single huge label would allocate the whole range).
pub const MAX_NEW_VERTICES: u64 = 1 << 20;

/// Why a catalog operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The name is neither registered nor a dataset spec.
    Unknown(String),
    /// A graph with this name already exists.
    Duplicate(String),
    /// The registration limit was reached.
    Full,
    /// The name contains characters outside `[a-z0-9_.-]` or is empty.
    BadName(String),
    /// The uploaded edge list failed to parse.
    BadEdgeList(String),
    /// The target is a built-in dataset analogue, which is immutable and
    /// undeletable (it would regenerate pristine on next use anyway).
    BuiltIn(String),
    /// A mutation batch referenced vertex ids far beyond the graph.
    BadMutation(String),
    /// The write-ahead log rejected the operation (disk full, I/O
    /// error); the catalog is unchanged and the client must not treat
    /// the operation as applied. A 500 at the HTTP layer.
    Storage(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Unknown(n) => write!(
                f,
                "unknown graph {n:?} (register it via POST /graphs or use a dataset spec \
                 like {:?})",
                DatasetId::slugs()[0]
            ),
            CatalogError::Duplicate(n) => write!(f, "graph {n:?} already registered"),
            CatalogError::Full => write!(f, "catalog full ({MAX_REGISTERED} registered graphs)"),
            CatalogError::BadName(n) => write!(
                f,
                "bad graph name {n:?} (use lower-case letters, digits, `_`, `.`, `-`; \
                 must not start with `.`)"
            ),
            CatalogError::BadEdgeList(e) => write!(f, "bad edge list: {e}"),
            CatalogError::BuiltIn(n) => write!(
                f,
                "graph {n:?} is a built-in dataset analogue (immutable; register a copy \
                 under another name to mutate or delete it)"
            ),
            CatalogError::BadMutation(e) => write!(f, "bad mutation: {e}"),
            CatalogError::Storage(e) => write!(f, "durable store refused the write: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// One catalog listing row.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The lookup name.
    pub name: String,
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
    /// `"registered"`, `"mutated"` or `"generated"`.
    pub source: &'static str,
    /// Stable content fingerprint ([`io_binary::fingerprint`]): two
    /// replicas hold the same graph iff these match, which is how the
    /// cluster warm path decides whether a disk-recovered copy is
    /// current.
    pub checksum: u64,
}

struct Loaded {
    graph: Arc<CsrGraph>,
    source: &'static str,
    checksum: u64,
}

impl Loaded {
    fn new(graph: Arc<CsrGraph>, source: &'static str) -> Loaded {
        let checksum = io_binary::fingerprint(&graph);
        Loaded {
            graph,
            source,
            checksum,
        }
    }
}

/// The canonical catalog key for `spec`: dataset specs normalize through
/// [`DatasetId::from_spec`] so that equivalent spellings (`"college"`,
/// `"College:1.0"`, `"gowalla:0.50"` vs `"gowalla:0.5"`) share one
/// resident graph and one outcome-cache keyspace; registered names just
/// trim and lowercase.
pub fn canonical_key(spec: &str) -> String {
    let key = spec.trim().to_ascii_lowercase();
    match DatasetId::from_spec(&key) {
        Some((id, scale)) if (scale - 1.0).abs() < f64::EPSILON => id.slug().to_string(),
        Some((id, scale)) => format!("{}:{}", id.slug(), scale),
        None => key,
    }
}

/// What one `mutate` batch did, including the incremental-maintenance
/// telemetry from [`DynamicTruss`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Edge pairs actually inserted (new, non-loop, deduplicated).
    pub inserted: usize,
    /// Edge pairs actually deleted (present before the batch).
    pub deleted: usize,
    /// Pairs that were no-ops: self loops, duplicates, already-present
    /// inserts, missing deletes.
    pub ignored: usize,
    /// Vertex count after the batch.
    pub vertices: usize,
    /// Edge count after the batch.
    pub edges: usize,
    /// Maximum trussness after the batch.
    pub k_max: u32,
    /// Edges whose trussness changed across the batch.
    pub changed: usize,
    /// Edges re-peeled by the bounded maintenance passes (the affected
    /// strata — a superset of `changed`, and typically far smaller than
    /// the whole graph).
    pub recomputed: usize,
}

/// The shared graph catalog (interior mutability; share via `Arc`).
pub struct Catalog {
    loaded: RwLock<HashMap<String, Loaded>>,
    /// Serializes every namespace *write* (register, remove, mutate).
    /// Mutation is a long read-modify-write — decompose, re-peel,
    /// rebuild — and publishing its result unconditionally could
    /// otherwise resurrect a concurrently-deleted graph or clobber a
    /// concurrent re-registration under the same name. Reads (`get`,
    /// `lookup`) never take this lock.
    write_lock: ProfMutex<()>,
    /// The durable store, attached once at startup (after recovery
    /// replay, so replayed operations are not re-logged). `None` for an
    /// in-memory catalog.
    store: OnceLock<Arc<Store>>,
    /// The catalog event stream (`GET /events`). Every successful
    /// write publishes exactly one event, inside the write lock and
    /// *after* the new state is visible in `loaded` — so a subscriber
    /// that acts on an event always observes the post-event catalog —
    /// and in lockstep with the WAL, so event seqs *are* WAL op seqs.
    events: EventLog,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog {
            loaded: RwLock::default(),
            write_lock: ProfMutex::new("catalog_write", ()),
            store: OnceLock::new(),
            // a diskless catalog's history dies with the process: a
            // fresh epoch per construction forces subscribers to resync
            events: EventLog::new(events::random_epoch()),
        }
    }
}

impl Catalog {
    /// An empty catalog; dataset specs load lazily.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Wait accounting of this catalog's write lock alone (the
    /// process-wide `catalog_write` entry sums every catalog).
    pub fn write_lock_snapshot(&self) -> LockSnapshot {
        self.write_lock.snapshot()
    }

    /// The catalog's event stream.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Attaches the durable store: from here on, every successful
    /// register / mutate / delete is WAL-logged before it returns.
    /// Call **after** replaying recovered state, or replay would be
    /// logged twice. Panics on a second attach.
    pub fn attach_store(&self, store: Arc<Store>) {
        self.store
            .set(store)
            .unwrap_or_else(|_| panic!("catalog store attached twice"));
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.get()
    }

    /// Appends `op` to the WAL when a store is attached. Called with
    /// the write lock held, after validation but before publication:
    /// an `Err` means nothing was applied and nothing was logged.
    fn log(&self, op: &CatalogOp) -> Result<(), CatalogError> {
        match self.store.get() {
            Some(store) => store
                .append(op)
                .map_err(|e| CatalogError::Storage(e.to_string())),
            None => Ok(()),
        }
    }

    /// Folds the WAL into snapshots when it has outgrown its
    /// thresholds. Called with the write lock held (so the snapshot
    /// set is consistent with the log position) but *after* the
    /// operation published; a compaction failure is logged and
    /// retried on the next write rather than failing the request —
    /// the operation itself is already durable in the WAL.
    fn maybe_compact(&self) {
        let Some(store) = self.store.get() else {
            return;
        };
        if !store.should_compact() {
            return;
        }
        if let Err(e) = store.compact(&self.persisted_entries()) {
            eprintln!("antruss store: compaction failed (will retry): {e}");
        }
    }

    /// Every graph the store persists (everything but dataset
    /// analogues, which regenerate from their spec), sorted by name.
    pub fn persisted_entries(&self) -> Vec<(String, Arc<CsrGraph>)> {
        let loaded = self.loaded.read().unwrap();
        let mut out: Vec<(String, Arc<CsrGraph>)> = loaded
            .iter()
            .filter(|(_, l)| l.source != "generated")
            .map(|(name, l)| (name.clone(), Arc::clone(&l.graph)))
            .collect();
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Installs a recovered graph under `name` without logging,
    /// replacing any resident copy (recovery replay is last-writer-wins).
    pub fn install_recovered(&self, name: &str, graph: Arc<CsrGraph>) {
        let _serialize = self.write_lock.lock().unwrap();
        self.loaded
            .write()
            .unwrap()
            .insert(name.to_string(), Loaded::new(graph, "registered"));
    }

    /// Replays one recovered WAL operation, leniently: operations are
    /// last-writer-wins, so a register overwrites, a mutate of a
    /// missing graph is skipped, a delete of a missing name is a no-op.
    /// (A WAL suffix may overlap state already restored from a snapshot
    /// when a crash interrupted compaction; ordered lenient replay
    /// converges — see [`antruss_store::wal`].) Never logs.
    pub fn apply_recovered(&self, op: &CatalogOp) {
        match op {
            CatalogOp::Register { name, graph } => match io_binary::from_bytes(graph.clone()) {
                Ok(g) => self.install_recovered(name, Arc::new(g)),
                Err(e) => {
                    eprintln!("antruss store: dropping unreadable WAL register of {name:?}: {e}")
                }
            },
            CatalogOp::Mutate {
                name,
                inserts,
                deletes,
            } => {
                let _serialize = self.write_lock.lock().unwrap();
                let Some((old, _)) = self.lookup(name) else {
                    return;
                };
                match apply_edge_batch(&old, inserts, deletes) {
                    Ok((mutated, _)) => {
                        self.loaded
                            .write()
                            .unwrap()
                            .insert(name.clone(), Loaded::new(Arc::new(mutated), "mutated"));
                    }
                    Err(e) => {
                        eprintln!(
                            "antruss store: dropping unreplayable WAL mutate of {name:?}: {e}"
                        )
                    }
                }
            }
            CatalogOp::Delete { name } => {
                let _serialize = self.write_lock.lock().unwrap();
                self.loaded.write().unwrap().remove(name);
            }
            // a recovered purge touched only the (non-durable) outcome
            // cache; it holds its WAL seq but replays as a catalog no-op
            CatalogOp::Purge { .. } => {}
        }
    }

    /// Re-points the event stream at the store's durable history:
    /// epoch from `events.meta`, the replayed WAL tail as the retained
    /// event window (op `i` carries seq `base + i + 1`). Call after
    /// recovery replay and before serving — a subscriber that was
    /// tailing this data dir before the restart then resumes from its
    /// cursor with no gap and no reset. Recovered register/mutate
    /// events carry the *post-replay* checksum of their graph (the
    /// per-op intermediates are gone), which is exactly what a
    /// catching-up consumer needs anyway.
    pub fn reseed_events_from_recovery(&self, store: &Store, ops: &[CatalogOp]) {
        let base = store.event_base_seq();
        let loaded = self.loaded.read().unwrap();
        let events = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let (kind, name) = match op {
                    CatalogOp::Register { name, .. } => (EventKind::Register, name),
                    CatalogOp::Mutate { name, .. } => (EventKind::Mutate, name),
                    CatalogOp::Delete { name } => (EventKind::Delete, name),
                    CatalogOp::Purge { name } => (EventKind::Purge, name),
                };
                let checksum = match kind {
                    EventKind::Register | EventKind::Mutate => {
                        loaded.get(name.as_str()).map(|l| l.checksum)
                    }
                    _ => None,
                };
                events::Event {
                    seq: base + i as u64 + 1,
                    kind,
                    graph: name.clone(),
                    checksum,
                }
            })
            .collect();
        drop(loaded);
        self.events.reseed(store.event_epoch(), base, events);
    }

    /// Resolves `spec` to a shared graph, generating and caching dataset
    /// analogues on first use. Specs are canonicalized first (see
    /// [`canonical_key`]), so equivalent spellings share one entry.
    pub fn get(&self, spec: &str) -> Result<Arc<CsrGraph>, CatalogError> {
        let key = canonical_key(spec);
        if let Some(l) = self.loaded.read().unwrap().get(&key) {
            return Ok(Arc::clone(&l.graph));
        }
        let (id, scale) =
            DatasetId::from_spec(&key).ok_or_else(|| CatalogError::Unknown(key.clone()))?;
        // generate outside the lock: a slow generation must not block
        // readers of already-loaded graphs
        let graph = Arc::new(antruss_datasets::generate(id, scale));
        let mut loaded = self.loaded.write().unwrap();
        // two threads may race to generate the same spec; first insert wins
        let entry = loaded
            .entry(key)
            .or_insert_with(|| Loaded::new(graph, "generated"));
        Ok(Arc::clone(&entry.graph))
    }

    /// Registers an uploaded edge list under `name`. Names must not
    /// start with `.`: a leading dot is reserved for the store's
    /// temp-file discipline, so allowing it would create catalog
    /// entries the durable snapshot layer cannot persist.
    pub fn register(&self, name: &str, edge_list: &[u8]) -> Result<Arc<CsrGraph>, CatalogError> {
        let name = name.trim().to_ascii_lowercase();
        if name.is_empty()
            || name.starts_with('.')
            || !name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b"_.-".contains(&b))
        {
            return Err(CatalogError::BadName(name));
        }
        if DatasetId::from_spec(&name).is_some() {
            return Err(CatalogError::Duplicate(name));
        }
        let graph =
            io::read_edge_list(edge_list).map_err(|e| CatalogError::BadEdgeList(e.to_string()))?;
        let _serialize = self.write_lock.lock().unwrap();
        {
            let loaded = self.loaded.read().unwrap();
            if loaded.contains_key(&name) {
                return Err(CatalogError::Duplicate(name));
            }
            if loaded.values().filter(|l| l.source == "registered").count() >= MAX_REGISTERED {
                return Err(CatalogError::Full);
            }
        }
        let graph = Arc::new(graph);
        // log before publish — if the WAL refuses, the client sees the
        // failure and the catalog stays unchanged — and log *between*
        // the read guard and the write guard: the append may fsync, and
        // holding the loaded lock across disk I/O would stall every
        // concurrent read. `write_lock` (held) serializes writers, and
        // `get` can only insert dataset-spec keys (rejected above), so
        // nothing can slip in between the check and the insert.
        self.log(&CatalogOp::Register {
            name: name.clone(),
            graph: io_binary::to_bytes(&graph),
        })?;
        let entry = Loaded::new(Arc::clone(&graph), "registered");
        let checksum = entry.checksum;
        self.loaded.write().unwrap().insert(name.clone(), entry);
        self.events
            .publish(EventKind::Register, &name, Some(checksum));
        self.maybe_compact();
        Ok(graph)
    }

    /// The graph under `name` **if it is already resident** — no dataset
    /// generation side effect. Returns the graph and its source tag.
    pub fn lookup(&self, name: &str) -> Option<(Arc<CsrGraph>, &'static str)> {
        let key = canonical_key(name);
        self.loaded
            .read()
            .unwrap()
            .get(&key)
            .map(|l| (Arc::clone(&l.graph), l.source))
    }

    /// Deletes the registered (or mutated) graph under `name`. Built-in
    /// dataset analogues are refused ([`CatalogError::BuiltIn`], a 409 at
    /// the HTTP layer): deleting one would only free memory until the
    /// next request regenerates it.
    pub fn remove(&self, name: &str) -> Result<(), CatalogError> {
        let key = canonical_key(name);
        if DatasetId::from_spec(&key).is_some() {
            return Err(CatalogError::BuiltIn(key));
        }
        let _serialize = self.write_lock.lock().unwrap();
        if !self.loaded.read().unwrap().contains_key(&key) {
            return Err(CatalogError::Unknown(key));
        }
        self.log(&CatalogOp::Delete { name: key.clone() })?;
        self.loaded.write().unwrap().remove(&key);
        self.events.publish(EventKind::Delete, &key, None);
        self.maybe_compact();
        Ok(())
    }

    /// Records a cache purge in the operation stream: WAL-logged (so
    /// the event's sequence number survives a restart) and published to
    /// `/events` subscribers, who drop their entries for `graph` (or
    /// everything, on `None`). The caller purges the local cache;
    /// this only makes the purge observable. Returns the event seq.
    pub fn note_purge(&self, graph: Option<&str>) -> Result<u64, CatalogError> {
        let name = graph.map(canonical_key).unwrap_or_default();
        let _serialize = self.write_lock.lock().unwrap();
        self.log(&CatalogOp::Purge { name: name.clone() })?;
        let seq = self.events.publish(EventKind::Purge, &name, None);
        self.maybe_compact();
        Ok(seq)
    }

    /// Applies an edge insert/delete batch to the graph under `name`.
    ///
    /// Vertex ids refer to the graph's dense ids (`0..n`, as reported by
    /// `/graphs` and solve outcomes); inserts may mint new vertices up to
    /// [`MAX_NEW_VERTICES`] beyond `n`. The batch is routed through
    /// [`DynamicTruss`]: a fixed universe graph (old edges ∪ inserts) is
    /// decomposed once, then the insert and delete batches each trigger
    /// one *bounded* re-peel of the affected stratum — the
    /// [`MutationOutcome::recomputed`] count shows how local the update
    /// was. The mutated graph replaces the old one under the same name;
    /// callers must purge that graph's cached outcomes.
    ///
    /// Built-in dataset analogues are immutable ([`CatalogError::BuiltIn`]):
    /// a replica that re-joins the cluster reconstructs registered graphs
    /// from a peer's edge dump, which cannot resurrect a mutated built-in
    /// whose name would regenerate pristine.
    pub fn mutate(
        &self,
        name: &str,
        inserts: &[(u64, u64)],
        deletes: &[(u64, u64)],
    ) -> Result<MutationOutcome, CatalogError> {
        let key = canonical_key(name);
        if DatasetId::from_spec(&key).is_some() {
            return Err(CatalogError::BuiltIn(key));
        }
        let _serialize = self.write_lock.lock().unwrap();
        let old = self
            .lookup(&key)
            .map(|(g, _)| g)
            .ok_or_else(|| CatalogError::Unknown(key.clone()))?;
        let (mutated, outcome) = apply_edge_batch(&old, inserts, deletes)?;
        // log the *request* (not the result): replaying the raw batch
        // through this same deterministic code reproduces the result
        self.log(&CatalogOp::Mutate {
            name: key.clone(),
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
        })?;
        let entry = Loaded::new(Arc::new(mutated), "mutated");
        let checksum = entry.checksum;
        self.loaded.write().unwrap().insert(key.clone(), entry);
        self.events.publish(EventKind::Mutate, &key, Some(checksum));
        self.maybe_compact();
        Ok(outcome)
    }
}

/// The mutation core: applies an edge insert/delete batch to `old` via
/// bounded incremental truss maintenance, returning the materialized
/// post-batch graph and the batch telemetry. Pure (no catalog state),
/// shared by the client-facing [`Catalog::mutate`] and WAL replay.
fn apply_edge_batch(
    old: &CsrGraph,
    inserts: &[(u64, u64)],
    deletes: &[(u64, u64)],
) -> Result<(CsrGraph, MutationOutcome), CatalogError> {
    let n = old.num_vertices() as u64;
    let limit = n + MAX_NEW_VERTICES;
    for &(u, v) in inserts.iter().chain(deletes) {
        if u >= limit || v >= limit {
            return Err(CatalogError::BadMutation(format!(
                "vertex id {} is beyond the allowed universe of {limit} \
                     (graph has {n} vertices)",
                u.max(v)
            )));
        }
    }

    // The fixed universe: every old edge plus every inserted pair.
    // Dense mode keeps vertex ids stable; `ensure_vertex` preserves
    // isolated vertices so ids never shift under deletion.
    let mut b = GraphBuilder::dense();
    for v in 0..n {
        b.ensure_vertex(v);
    }
    for e in old.edges() {
        let (u, v) = old.endpoints(e);
        b.add_edge(u.0 as u64, v.0 as u64);
    }
    for &(u, v) in inserts {
        if u != v {
            b.add_edge(u, v);
        }
    }
    let universe = b
        .try_build()
        .map_err(|e| CatalogError::BadMutation(e.to_string()))?;

    // Old edges are alive; inserts start dead and toggle in.
    let mut alive = EdgeSet::new(universe.num_edges());
    for e in old.edges() {
        let (u, v) = old.endpoints(e);
        let eid = universe
            .edge_between(VertexId(u.0), VertexId(v.0))
            .expect("old edge exists in universe");
        alive.insert(eid);
    }
    let mut ignored = 0usize;
    let mut fresh: Vec<EdgeId> = Vec::new();
    let mut seen_fresh = EdgeSet::new(universe.num_edges());
    for &(u, v) in inserts {
        let eid = if u == v {
            None
        } else {
            universe.edge_between(VertexId(u as u32), VertexId(v as u32))
        };
        match eid {
            Some(e) if !alive.contains(e) && seen_fresh.insert(e) => fresh.push(e),
            _ => ignored += 1, // self loop, duplicate, or already present
        }
    }
    let mut dead: Vec<EdgeId> = Vec::new();
    let mut seen_dead = EdgeSet::new(universe.num_edges());
    for &(u, v) in deletes {
        let out_of_range = u.max(v) >= universe.num_vertices() as u64;
        let eid = if u == v || out_of_range {
            None
        } else {
            universe.edge_between(VertexId(u as u32), VertexId(v as u32))
        };
        match eid {
            Some(e) if (alive.contains(e) || seen_fresh.contains(e)) && seen_dead.insert(e) => {
                dead.push(e)
            }
            _ => ignored += 1, // not present (or already deleted in this batch)
        }
    }

    let mut dt = DynamicTruss::with_alive(&universe, alive);
    let (mut changed, mut recomputed) = (0usize, 0usize);
    if let Some(s) = dt.insert_edges(fresh.iter().copied()) {
        changed += s.changed;
        recomputed += s.recomputed;
    }
    if let Some(s) = dt.remove_edges(dead.iter().copied()) {
        changed += s.changed;
        recomputed += s.recomputed;
    }
    let k_max = dt.info().k_max;

    // Materialize the post-batch graph (the alive subset) for the
    // solver engine, which wants a plain CsrGraph.
    let mut b = GraphBuilder::dense();
    for v in 0..universe.num_vertices() as u64 {
        b.ensure_vertex(v);
    }
    for e in dt.alive().iter() {
        let (u, v) = universe.endpoints(e);
        b.add_edge(u.0 as u64, v.0 as u64);
    }
    let mutated = b
        .try_build()
        .map_err(|e| CatalogError::BadMutation(e.to_string()))?;
    let outcome = MutationOutcome {
        inserted: fresh.len(),
        deleted: dead.len(),
        ignored,
        vertices: mutated.num_vertices(),
        edges: mutated.num_edges(),
        k_max,
        changed,
        recomputed,
    };
    Ok((mutated, outcome))
}

impl Catalog {
    /// Everything loaded so far, sorted by name.
    pub fn entries(&self) -> Vec<CatalogEntry> {
        let loaded = self.loaded.read().unwrap();
        let mut out: Vec<CatalogEntry> = loaded
            .iter()
            .map(|(name, l)| CatalogEntry {
                name: name.clone(),
                vertices: l.graph.num_vertices(),
                edges: l.graph.num_edges(),
                source: l.source,
                checksum: l.checksum,
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Loaded graph count.
    pub fn len(&self) -> usize {
        self.loaded.read().unwrap().len()
    }

    /// Whether nothing is loaded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antruss_store::FsyncPolicy;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("antruss-catalog-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_catalog(dir: &std::path::Path) -> Catalog {
        let (store, recovered) = Store::open(dir, FsyncPolicy::Always).unwrap();
        let c = Catalog::new();
        for (name, graph) in recovered.graphs {
            c.install_recovered(&name, Arc::new(graph));
        }
        for op in &recovered.ops {
            c.apply_recovered(op);
        }
        c.reseed_events_from_recovery(&store, &recovered.ops);
        c.attach_store(Arc::new(store));
        c
    }

    fn comparable(c: &Catalog) -> Vec<(String, usize, usize, u64)> {
        c.entries()
            .into_iter()
            .map(|e| (e.name, e.vertices, e.edges, e.checksum))
            .collect()
    }

    #[test]
    fn durable_catalog_recovers_register_mutate_delete() {
        let dir = tmp("recover");
        let before = {
            let c = durable_catalog(&dir);
            c.register("tri", b"0 1\n1 2\n2 0\n").unwrap();
            c.register("gone", b"0 1\n").unwrap();
            c.mutate("tri", &[(0, 3), (1, 3), (2, 3)], &[(0, 1)])
                .unwrap();
            c.remove("gone").unwrap();
            comparable(&c)
        };
        let c2 = durable_catalog(&dir);
        assert_eq!(comparable(&c2), before, "recovery must equal live state");
        assert!(c2.lookup("gone").is_none());
        // the recovered graph is mutable and its history keeps logging
        c2.mutate("tri", &[(0, 1)], &[]).unwrap();
        let after = comparable(&c2);
        drop(c2); // release the data-dir lock before reopening
        let c3 = durable_catalog(&dir);
        assert_eq!(comparable(&c3), after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_recovery_and_drops_deleted_snapshots() {
        let dir = tmp("compaction");
        let before = {
            let c = durable_catalog(&dir);
            c.store().unwrap().set_compaction_thresholds(2, u64::MAX);
            for i in 0..4 {
                c.register(&format!("g{i}"), b"0 1\n1 2\n2 0\n").unwrap();
            }
            c.mutate("g0", &[(0, 3)], &[]).unwrap();
            c.remove("g3").unwrap();
            assert!(
                c.store().unwrap().stats().compactions >= 1,
                "thresholds of 2 records must have forced a compaction"
            );
            comparable(&c)
        };
        let c2 = durable_catalog(&dir);
        assert_eq!(comparable(&c2), before);
        assert!(
            c2.store().unwrap().stats().recovered_graphs >= 1,
            "at least one graph must come back from a snapshot"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn events_track_writes_and_cursors_survive_restart() {
        use crate::events::EventKind;
        let dir = tmp("events");
        let (epoch, head) = {
            let c = durable_catalog(&dir);
            c.register("tri", b"0 1\n1 2\n2 0\n").unwrap();
            c.mutate("tri", &[(0, 3)], &[]).unwrap();
            c.note_purge(Some("tri")).unwrap();
            c.remove("tri").unwrap();
            let batch = c.events().since(0, None);
            assert_eq!(
                batch.events.iter().map(|e| e.kind).collect::<Vec<_>>(),
                vec![
                    EventKind::Register,
                    EventKind::Mutate,
                    EventKind::Purge,
                    EventKind::Delete
                ]
            );
            assert_eq!(batch.head, 4);
            assert!(batch.events[0].checksum.is_some());
            // event seqs are WAL op seqs: the store agrees on the head
            let store = c.store().unwrap();
            assert_eq!(
                store.event_base_seq() + store.stats().wal_records,
                batch.head
            );
            (batch.epoch, batch.head)
        };
        // restart: same epoch, a mid-stream cursor resumes with no gap
        let c2 = durable_catalog(&dir);
        let batch = c2.events().since(2, Some(epoch));
        assert!(!batch.reset, "durable cursor must survive the restart");
        assert_eq!(batch.head, head);
        assert_eq!(
            batch.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // and new writes continue the same sequence
        c2.register("tri", b"0 1\n").unwrap();
        assert_eq!(c2.events().head(), head + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn event_is_published_only_after_the_new_state_is_visible() {
        // the stale-cache regression (satellite): a subscriber that
        // acts on a mutate event must observe the post-mutation
        // catalog. If publication ever moved before the `loaded`
        // insert, the checksum read on event receipt would lag the
        // event's own checksum.
        use crate::events::EventKind;
        use std::sync::atomic::{AtomicBool, Ordering};
        let c = Arc::new(Catalog::new());
        c.register("g", b"0 1\n1 2\n2 0\n").unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let subscriber = {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut cursor = c.events().head();
                let mut checked = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let batch =
                        c.events()
                            .wait_since(cursor, None, std::time::Duration::from_millis(200));
                    for e in &batch.events {
                        if e.kind != EventKind::Mutate {
                            continue;
                        }
                        // the catalog we see now must be at least as
                        // new as the event we were just told about
                        let seen = c
                            .entries()
                            .into_iter()
                            .find(|en| en.name == e.graph)
                            .map(|en| en.checksum);
                        let current = c.events().since(e.seq, None);
                        let superseded = current.events.iter().any(|later| later.graph == e.graph);
                        assert!(
                            superseded || seen == e.checksum,
                            "event seq {} published before its state was visible",
                            e.seq
                        );
                        checked += 1;
                    }
                    cursor = batch.head;
                }
                checked
            })
        };
        for i in 0..100u64 {
            c.mutate("g", &[(0, 3 + i)], &[]).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        let checked = subscriber.join().unwrap();
        assert!(checked > 0, "subscriber never observed a mutate event");
    }

    #[test]
    fn generated_graphs_are_never_persisted() {
        let dir = tmp("generated");
        {
            let c = durable_catalog(&dir);
            c.get("college:0.05").unwrap();
            c.register("tri", b"0 1\n1 2\n2 0\n").unwrap();
            assert_eq!(c.persisted_entries().len(), 1);
        }
        let c2 = durable_catalog(&dir);
        assert_eq!(c2.len(), 1, "only the registered graph comes back");
        assert!(c2.lookup("tri").is_some());
        assert!(c2.lookup("college:0.05").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dataset_specs_load_lazily_and_cache() {
        let c = Catalog::new();
        assert!(c.is_empty());
        let a = c.get("college:0.05").unwrap();
        let b = c.get("COLLEGE:0.05").unwrap(); // case-insensitive, same entry
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(c.len(), 1);
        assert_eq!(c.entries()[0].source, "generated");
    }

    #[test]
    fn equivalent_spec_spellings_share_one_entry() {
        let c = Catalog::new();
        let a = c.get("college:0.05").unwrap();
        let b = c.get(" College:0.050 ").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "0.05 and 0.050 must canonicalize");
        let full_a = c.get("college").unwrap();
        let full_b = c.get("college:1.0").unwrap();
        assert!(Arc::ptr_eq(&full_a, &full_b), "bare slug == :1.0");
        assert_eq!(c.len(), 2);
        assert_eq!(canonical_key("GOWALLA:0.50"), "gowalla:0.5");
        assert_eq!(canonical_key("my-graph"), "my-graph");
    }

    #[test]
    fn unknown_specs_error() {
        let c = Catalog::new();
        assert!(matches!(c.get("nope"), Err(CatalogError::Unknown(_))));
        assert!(matches!(c.get("college:9"), Err(CatalogError::Unknown(_))));
        assert!(c.get("nope").unwrap_err().to_string().contains("college"));
    }

    #[test]
    fn registration_round_trips() {
        let c = Catalog::new();
        let g = c.register("tri", b"0 1\n1 2\n2 0\n").unwrap();
        assert_eq!(g.num_edges(), 3);
        let again = c.get("tri").unwrap();
        assert!(Arc::ptr_eq(&g, &again));
        assert_eq!(c.entries()[0].source, "registered");
    }

    #[test]
    fn remove_contract() {
        let c = Catalog::new();
        c.register("tri", b"0 1\n1 2\n2 0\n").unwrap();
        assert!(matches!(c.remove("nope"), Err(CatalogError::Unknown(_))));
        assert!(matches!(
            c.remove("college:0.05"),
            Err(CatalogError::BuiltIn(_))
        ));
        c.remove("tri").unwrap();
        assert!(matches!(c.remove("tri"), Err(CatalogError::Unknown(_))));
        assert!(c.lookup("tri").is_none());
        // the name is reusable after deletion
        c.register("tri", b"0 1\n").unwrap();
    }

    #[test]
    fn lookup_is_resident_only() {
        let c = Catalog::new();
        assert!(
            c.lookup("college:0.05").is_none(),
            "no generation side effect"
        );
        c.get("college:0.05").unwrap();
        assert_eq!(c.lookup("College:0.050").unwrap().1, "generated");
    }

    #[test]
    fn mutate_grows_triangle_to_k4_and_back() {
        let c = Catalog::new();
        c.register("tri", b"0 1\n1 2\n2 0\n").unwrap();
        let o = c.mutate("tri", &[(0, 3), (1, 3), (2, 3)], &[]).unwrap();
        assert_eq!((o.inserted, o.deleted, o.ignored), (3, 0, 0));
        assert_eq!((o.vertices, o.edges, o.k_max), (4, 6, 4));
        assert!(o.changed >= 3, "trussness rose on the old edges too: {o:?}");
        assert_eq!(c.lookup("tri").unwrap().1, "mutated");

        // ignored accounting: re-insert an existing edge, delete a
        // missing one, self loop
        let o = c
            .mutate("tri", &[(0, 1), (2, 2)], &[(0, 9), (1, 3)])
            .unwrap();
        assert_eq!((o.inserted, o.deleted, o.ignored), (0, 1, 3));
        assert_eq!(o.edges, 5);

        // the mutated graph is what `get` now serves
        let g = c.get("tri").unwrap();
        assert_eq!(g.num_edges(), 5);
        assert!(g.edge_between(VertexId(1), VertexId(3)).is_none());
    }

    #[test]
    fn mutate_matches_scratch_decomposition() {
        let c = Catalog::new();
        // two 4-cliques sharing nothing, then bridge them densely
        let mut edges = String::new();
        for base in [0u32, 4] {
            for u in base..base + 4 {
                for v in (u + 1)..base + 4 {
                    edges.push_str(&format!("{u} {v}\n"));
                }
            }
        }
        c.register("g", edges.as_bytes()).unwrap();
        let o = c
            .mutate("g", &[(0, 4), (0, 5), (1, 4), (1, 5), (2, 4)], &[(2, 3)])
            .unwrap();
        let g = c.get("g").unwrap();
        let scratch = antruss_truss::decompose(&g);
        assert_eq!(o.k_max, scratch.k_max, "incremental k_max must be exact");
        assert_eq!(g.num_edges(), 12 + 5 - 1);
    }

    #[test]
    fn mutate_rejects_builtins_unknowns_and_absurd_ids() {
        let c = Catalog::new();
        assert!(matches!(
            c.mutate("college", &[(0, 1)], &[]),
            Err(CatalogError::BuiltIn(_))
        ));
        assert!(matches!(
            c.mutate("nope", &[(0, 1)], &[]),
            Err(CatalogError::Unknown(_))
        ));
        c.register("tri", b"0 1\n1 2\n2 0\n").unwrap();
        assert!(matches!(
            c.mutate("tri", &[(0, u64::MAX)], &[]),
            Err(CatalogError::BadMutation(_))
        ));
        // refused mutations leave the graph untouched
        assert_eq!(c.get("tri").unwrap().num_edges(), 3);
    }

    #[test]
    fn registration_rejects_bad_input() {
        let c = Catalog::new();
        assert!(matches!(
            c.register("", b"0 1\n"),
            Err(CatalogError::BadName(_))
        ));
        assert!(matches!(
            c.register("no spaces", b"0 1\n"),
            Err(CatalogError::BadName(_))
        ));
        // leading dots are reserved for the store's temp files: a
        // catalog entry the snapshot layer cannot persist must not exist
        assert!(matches!(
            c.register(".hidden", b"0 1\n"),
            Err(CatalogError::BadName(_))
        ));
        assert!(c.register("not.hidden", b"0 1\n").is_ok());
        assert!(matches!(
            c.register("college", b"0 1\n"),
            Err(CatalogError::Duplicate(_))
        ));
        c.register("ok", b"0 1\n").unwrap();
        assert!(matches!(
            c.register("ok", b"0 1\n"),
            Err(CatalogError::Duplicate(_))
        ));
        assert!(matches!(
            c.register("badlist", b"zero one\n"),
            Err(CatalogError::BadEdgeList(_))
        ));
    }
}
