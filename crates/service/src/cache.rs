//! The outcome cache: an LRU over serialized solve responses, shared by
//! the serving node and the edge tier.
//!
//! Truss decomposition and follower search dominate a `/solve`; the
//! paper's reuse experiments (Fig. 10) show repeated queries on the same
//! graph are the common case, so the service memoizes the *serialized*
//! outcome keyed by everything that determines it. Solvers are
//! deterministic for a fixed `(graph, solver, b, k, seed, trials,
//! policy)` — thread count is deliberately *not* part of the key because
//! selections are thread-count-invariant — so a hit returns
//! byte-identical JSON without re-running the solver.
//!
//! Every entry carries a freshness stamp (an event seq) and every insert
//! passes an admission gate, so a body computed before a mutation can
//! never enter the cache after that mutation's purge. An edge also keys
//! its entries by the upstream's event *epoch*: inserts from another
//! epoch are refused and adopting a new epoch drops everything. The
//! epoch check, the gate check and the insert happen under one lock,
//! and a lookup returns body, stamp and epoch under that same lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use antruss_obs::prof::ProfMutex;

/// Everything that determines a solve outcome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical (lower-cased) graph spec or registered name.
    pub graph: String,
    /// Canonical solver registry name.
    pub solver: String,
    /// Anchor budget `b`.
    pub budget: usize,
    /// `akt` truss level (`None` = `k_max`).
    pub k: Option<u32>,
    /// Randomized-solver seed.
    pub seed: u64,
    /// Randomized-solver trial count.
    pub trials: usize,
    /// GAS reuse policy flag (`"paper"`, `"conservative"`, `"off"`).
    pub policy: &'static str,
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the solver.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity (0 = caching disabled).
    pub capacity: usize,
    /// Serialized outcome bytes currently resident (body bytes only, the
    /// dominant term — keys are a few dozen bytes each).
    pub resident_bytes: u64,
    /// Inserts refused by the admission gate: their freshness stamp
    /// predated a purge of the same graph (a solve that raced a mutation
    /// and lost), or they came from another epoch.
    pub stale_refused: u64,
    /// Entries dropped by purges and epoch changes — distinct from LRU
    /// evictions.
    pub purged: u64,
}

/// One cache hit: the body with the freshness stamp it was admitted at
/// and the epoch the cache was in, read under one lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped {
    /// The serialized outcome.
    pub body: Arc<String>,
    /// The event seq the body is known fresh at.
    pub stamp: u64,
    /// The epoch of `stamp`'s seq space.
    pub epoch: u64,
}

struct Entry {
    body: Arc<String>,
    /// The events head observed *before* the computing request resolved
    /// its graph — the freshness bound an edge replica gates on (see
    /// `x-antruss-events-head`). An entry computed before a mutation at
    /// seq `N` always carries a stamp `< N`, so a stale body can never
    /// masquerade as post-mutation.
    stamp: u64,
    last_used: u64,
}

/// One dump row: the full cache key plus the shared serialized body.
pub type DumpEntry = (CacheKey, Arc<String>);

/// A thread-safe LRU keyed by [`CacheKey`].
pub struct OutcomeCache {
    capacity: usize,
    inner: ProfMutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_refused: AtomicU64,
    purged: AtomicU64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    resident_bytes: u64,
    /// The epoch entries belong to. [`OutcomeCache::insert_in`] refuses
    /// any other; [`OutcomeCache::set_epoch`] drops everything.
    epoch: u64,
    /// Per-graph admission gates: the event seq each graph was last
    /// purged at. An insert whose stamp is below its graph's gate was
    /// computed before that purge's mutation and is refused outright —
    /// this closes the window where a solve racing a mutation could
    /// briefly park a stale body (see [`OutcomeCache::insert`]).
    gates: HashMap<String, u64>,
    /// The purge-all gate: a floor under every graph's gate.
    floor: u64,
    /// The last dump, reused verbatim until the next insert/purge
    /// invalidates it — paged `/cache/dump` readers issue many requests
    /// over one stable cache, and recloning + resorting the whole map
    /// per page would make a full paged replay quadratic. Eagerly
    /// cleared (rather than version-checked) so purged bodies are not
    /// kept alive by a stale snapshot.
    snapshot: Option<Arc<Vec<DumpEntry>>>,
}

impl Inner {
    /// Drops every entry, returning how many there were.
    fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.resident_bytes = 0;
        self.snapshot = None;
        n
    }
}

impl OutcomeCache {
    /// A cache holding at most `capacity` serialized outcomes
    /// (`capacity == 0` disables caching: every lookup misses and
    /// nothing is stored). Starts in epoch 0.
    pub fn new(capacity: usize) -> OutcomeCache {
        OutcomeCache {
            capacity,
            inner: ProfMutex::new("outcome_cache", Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_refused: AtomicU64::new(0),
            purged: AtomicU64::new(0),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit. The hit carries
    /// the entry's freshness stamp (the events head recorded at insert)
    /// and the cache's epoch, read under the same lock — so a
    /// concurrent [`OutcomeCache::set_epoch`] can never pair an old
    /// epoch's stamp with the new epoch.
    pub fn get_stamped(&self, key: &CacheKey) -> Option<Stamped> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let epoch = inner.epoch;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Stamped {
                    body: Arc::clone(&entry.body),
                    stamp: entry.stamp,
                    epoch,
                })
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a freshly computed body, evicting the least-recently-used
    /// entry when at capacity. Concurrent solvers racing on the same key
    /// simply overwrite each other with identical bytes. `stamp` is the
    /// catalog events head the body is known fresh at (see
    /// [`OutcomeCache::get_stamped`]); callers without an event log
    /// pass 0.
    ///
    /// The insert is *gated*: if `key.graph` was purged at an event seq
    /// greater than `stamp` (see [`OutcomeCache::purge_graph`]), the
    /// body was computed against a graph that has since changed and the
    /// insert is refused. Gate check and insert are atomic under the
    /// cache lock, so a mutation's purge can never interleave between
    /// them — combined with the purge sweeping anything inserted
    /// earlier, the cache can never retain a stale body, even
    /// transiently. That invariant is what lets a cluster router stamp
    /// relayed hits with its own event cursor.
    pub fn insert(&self, key: CacheKey, body: Arc<String>, stamp: u64) {
        self.admit(None, key, body, stamp, false);
    }

    /// Like [`OutcomeCache::insert`], but only while the cache is in
    /// `epoch`: a stamp from another epoch's seq space means nothing
    /// against this one's gates. Returns whether the entry was stored.
    pub fn insert_in(&self, epoch: u64, key: CacheKey, body: Arc<String>, stamp: u64) -> bool {
        self.admit(Some(epoch), key, body, stamp, false)
    }

    /// Like [`OutcomeCache::insert`], but an already-resident entry
    /// wins: warm replay *fills* around what the local cache kept — a
    /// member's surviving entries are at least as fresh as any peer's
    /// copy of the same key — instead of overwriting it.
    pub fn fill(&self, key: CacheKey, body: Arc<String>, stamp: u64) {
        self.admit(None, key, body, stamp, true);
    }

    fn admit(
        &self,
        epoch: Option<u64>,
        key: CacheKey,
        body: Arc<String>,
        stamp: u64,
        keep_existing: bool,
    ) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut inner = self.inner.lock().unwrap();
        if keep_existing && inner.map.contains_key(&key) {
            return false;
        }
        let gate = inner
            .gates
            .get(&key.graph)
            .copied()
            .unwrap_or(0)
            .max(inner.floor);
        if epoch.is_some_and(|e| e != inner.epoch) || stamp < gate {
            self.stale_refused.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            // O(n) scan: capacities are small (hundreds), so a linked
            // list buys nothing over this under a mutex
            if let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(old) = inner.map.remove(&lru) {
                    inner.resident_bytes -= old.body.len() as u64;
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.resident_bytes += body.len() as u64;
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                body,
                stamp,
                last_used: tick,
            },
        ) {
            inner.resident_bytes -= old.body.len() as u64;
        }
        inner.snapshot = None;
        true
    }

    /// Every resident entry, for replication warm-up (`GET /cache/dump`).
    /// A point-in-time copy: concurrent inserts after the snapshot are
    /// simply not in it, which is fine — the router re-warms from a live
    /// peer, not from a quiesced one. The sorted snapshot is cached and
    /// reused until the next insert/purge, so a paged reader walking the
    /// dump `offset` by `offset` pays the clone + sort once, not per
    /// page.
    pub fn dump(&self) -> Arc<Vec<DumpEntry>> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(snap) = &inner.snapshot {
            return Arc::clone(snap);
        }
        let mut out: Vec<DumpEntry> = inner
            .map
            .iter()
            .map(|(k, e)| (k.clone(), Arc::clone(&e.body)))
            .collect();
        // deterministic order so dumps are diffable and tests are stable
        out.sort_by(|(a, _), (b, _)| {
            (
                &a.graph, &a.solver, a.budget, a.seed, a.trials, a.k, a.policy,
            )
                .cmp(&(
                    &b.graph, &b.solver, b.budget, b.seed, b.trials, b.k, b.policy,
                ))
        });
        let snap = Arc::new(out);
        inner.snapshot = Some(Arc::clone(&snap));
        snap
    }

    /// Drops every entry whose canonical graph key equals `graph`,
    /// returning how many were purged. This is the mutation-driven
    /// invalidation hook: a graph changed, so every outcome computed on
    /// its old edges is garbage. `seq` is the event seq of the purge's
    /// cause (the mutation/delete/purge event, or the current events
    /// head): it becomes the graph's admission gate, so an in-flight
    /// solve that started before the purge cannot re-insert its stale
    /// result afterwards.
    pub fn purge_graph(&self, graph: &str, seq: u64) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let gate = inner.gates.entry(graph.to_string()).or_insert(0);
        *gate = (*gate).max(seq);
        let doomed: Vec<CacheKey> = inner
            .map
            .keys()
            .filter(|k| k.graph == graph)
            .cloned()
            .collect();
        for k in &doomed {
            if let Some(e) = inner.map.remove(k) {
                inner.resident_bytes -= e.body.len() as u64;
            }
        }
        if !doomed.is_empty() {
            inner.snapshot = None;
        }
        self.purged
            .fetch_add(doomed.len() as u64, Ordering::Relaxed);
        doomed.len()
    }

    /// Drops everything, returning how many entries were purged (used
    /// for purge-all events and when a recovered replica re-joins:
    /// anything it cached before dying may predate mutations it missed).
    /// `seq` becomes a floor under every graph's admission gate, exactly
    /// as in [`OutcomeCache::purge_graph`].
    pub fn purge_all(&self, seq: u64) -> usize {
        let mut inner = self.inner.lock().unwrap();
        inner.floor = inner.floor.max(seq);
        // per-graph gates at or below the new floor are subsumed by it
        inner.gates.retain(|_, g| *g > seq);
        let n = inner.clear();
        self.purged.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Adopts a new epoch (an edge's first contact with its upstream, or
    /// a reset): drops everything and from now on admits only stamps
    /// under `epoch` at or past `head`.
    pub fn set_epoch(&self, epoch: u64, head: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.epoch = epoch;
        inner.floor = head;
        inner.gates.clear();
        let n = inner.clear();
        self.purged.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            capacity: self.capacity,
            resident_bytes: inner.resident_bytes,
            stale_refused: self.stale_refused.load(Ordering::Relaxed),
            purged: self.purged.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body `key` maps to, if resident.
    fn get(c: &OutcomeCache, key: &CacheKey) -> Option<Arc<String>> {
        c.get_stamped(key).map(|hit| hit.body)
    }

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    fn key(graph: &str, seed: u64) -> CacheKey {
        CacheKey {
            graph: graph.to_string(),
            solver: "gas".to_string(),
            budget: 2,
            k: None,
            seed,
            trials: 20,
            policy: "paper",
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = OutcomeCache::new(4);
        assert!(get(&c, &key("g", 1)).is_none());
        c.insert(key("g", 1), Arc::new("body".to_string()), 0);
        assert_eq!(get(&c, &key("g", 1)).unwrap().as_str(), "body");
        assert!(get(&c, &key("g", 2)).is_none()); // differing seed = differing key
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn stamps_ride_with_entries_and_overwrite() {
        let c = OutcomeCache::new(4);
        c.insert(key("g", 1), Arc::new("v1".to_string()), 7);
        assert_eq!(c.get_stamped(&key("g", 1)).unwrap().stamp, 7);
        c.insert(key("g", 1), Arc::new("v2".to_string()), 9);
        let hit = c.get_stamped(&key("g", 1)).unwrap();
        assert_eq!((hit.body.as_str(), hit.stamp), ("v2", 9));
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let c = OutcomeCache::new(2);
        c.insert(key("a", 0), Arc::new("A".into()), 0);
        c.insert(key("b", 0), Arc::new("B".into()), 0);
        get(&c, &key("a", 0)); // refresh a; b is now coldest
        c.insert(key("c", 0), Arc::new("C".into()), 0);
        assert!(get(&c, &key("a", 0)).is_some());
        assert!(get(&c, &key("b", 0)).is_none());
        assert!(get(&c, &key("c", 0)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let c = OutcomeCache::new(2);
        c.insert(key("a", 0), Arc::new("A".into()), 0);
        c.insert(key("b", 0), Arc::new("B".into()), 0);
        c.insert(key("a", 0), Arc::new("A2".into()), 0);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(get(&c, &key("a", 0)).unwrap().as_str(), "A2");
    }

    #[test]
    fn resident_bytes_track_insert_overwrite_evict_purge() {
        let c = OutcomeCache::new(2);
        c.insert(key("a", 0), Arc::new("1234".into()), 0);
        assert_eq!(c.stats().resident_bytes, 4);
        c.insert(key("a", 0), Arc::new("12".into()), 0); // overwrite shrinks
        assert_eq!(c.stats().resident_bytes, 2);
        c.insert(key("b", 0), Arc::new("123456".into()), 0);
        assert_eq!(c.stats().resident_bytes, 8);
        c.insert(key("c", 0), Arc::new("1".into()), 0); // evicts the coldest (a)
        assert_eq!(c.stats().resident_bytes, 7);
        assert_eq!(c.purge_all(0), 2);
        assert_eq!(c.stats().resident_bytes, 0);
    }

    #[test]
    fn purge_graph_is_selective() {
        let c = OutcomeCache::new(8);
        c.insert(key("a", 0), Arc::new("A0".into()), 0);
        c.insert(key("a", 1), Arc::new("A1".into()), 0);
        c.insert(key("b", 0), Arc::new("B0".into()), 0);
        assert_eq!(c.purge_graph("a", 0), 2);
        assert_eq!(c.purge_graph("a", 0), 0);
        assert!(get(&c, &key("a", 0)).is_none());
        assert!(get(&c, &key("b", 0)).is_some());
        assert_eq!(c.stats().resident_bytes, 2);
    }

    #[test]
    fn purge_gates_refuse_stale_inserts() {
        let c = OutcomeCache::new(8);
        // a mutation at seq 5 purges graph a; a straggling solve that
        // read the events head before the mutation (stamp 4) must not
        // re-park its stale body afterwards
        c.purge_graph("a", 5);
        c.insert(key("a", 0), Arc::new("stale".into()), 4);
        assert!(get(&c, &key("a", 0)).is_none());
        assert_eq!(c.stats().stale_refused, 1);
        // a solve that resolved the graph after the mutation is fine
        c.insert(key("a", 0), Arc::new("fresh".into()), 5);
        assert_eq!(get(&c, &key("a", 0)).unwrap().as_str(), "fresh");
        // other graphs are not gated
        c.insert(key("b", 0), Arc::new("B".into()), 0);
        assert!(get(&c, &key("b", 0)).is_some());
        // gates only ratchet upward
        c.purge_graph("a", 3);
        c.insert(key("a", 1), Arc::new("old".into()), 4);
        assert!(get(&c, &key("a", 1)).is_none());
        assert_eq!(c.stats().stale_refused, 2);
    }

    #[test]
    fn purge_all_floors_every_graph_gate() {
        let c = OutcomeCache::new(8);
        c.purge_graph("a", 9);
        c.purge_all(6);
        c.insert(key("b", 0), Arc::new("B".into()), 5); // below the floor
        assert!(get(&c, &key("b", 0)).is_none());
        c.insert(key("b", 0), Arc::new("B".into()), 6);
        assert!(get(&c, &key("b", 0)).is_some());
        // a's higher per-graph gate survives the lower floor
        c.insert(key("a", 0), Arc::new("A".into()), 8);
        assert!(get(&c, &key("a", 0)).is_none());
        c.insert(key("a", 0), Arc::new("A".into()), 9);
        assert!(get(&c, &key("a", 0)).is_some());
    }

    #[test]
    fn dump_is_sorted_and_complete() {
        let c = OutcomeCache::new(8);
        c.insert(key("b", 0), Arc::new("B".into()), 0);
        c.insert(key("a", 1), Arc::new("A1".into()), 0);
        c.insert(key("a", 0), Arc::new("A0".into()), 0);
        let dump = c.dump();
        let graphs: Vec<(String, u64)> = dump
            .iter()
            .map(|(k, _)| (k.graph.clone(), k.seed))
            .collect();
        assert_eq!(
            graphs,
            vec![
                ("a".to_string(), 0),
                ("a".to_string(), 1),
                ("b".to_string(), 0)
            ]
        );
        assert_eq!(dump[2].1.as_str(), "B");
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let c = OutcomeCache::new(0);
        c.insert(key("a", 0), Arc::new("A".into()), 0);
        assert!(get(&c, &key("a", 0)).is_none());
        c.set_epoch(7, 0);
        assert!(!c.insert_in(7, key("a", 0), body("A"), 1));
        assert!(get(&c, &key("a", 0)).is_none());
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().capacity, 0);
    }

    #[test]
    fn nothing_is_admitted_before_an_epoch_is_adopted() {
        let c = OutcomeCache::new(4);
        assert!(!c.insert_in(7, key("g", 0), body("b"), 5));
        c.set_epoch(7, 0);
        assert!(c.insert_in(7, key("g", 0), body("b"), 5));
        assert_eq!(c.get_stamped(&key("g", 0)).unwrap().stamp, 5);
        assert_eq!(c.stats().stale_refused, 1);
    }

    #[test]
    fn invalidation_drops_entries_and_gates_stale_bounds() {
        let c = OutcomeCache::new(8);
        c.set_epoch(7, 0);
        assert!(c.insert_in(7, key("a", 1), body("A1"), 3));
        assert!(c.insert_in(7, key("b", 1), body("B1"), 3));
        assert_eq!(c.purge_graph("a", 4), 1);
        assert!(get(&c, &key("a", 1)).is_none());
        assert!(get(&c, &key("b", 1)).is_some(), "other graphs untouched");
        // a response computed before event 4 must not re-enter
        assert!(!c.insert_in(7, key("a", 1), body("A1"), 3));
        // one computed at or after event 4 may
        assert!(c.insert_in(7, key("a", 1), body("A1'"), 4));
        assert_eq!(c.stats().purged, 1);
    }

    #[test]
    fn purge_all_raises_the_floor_for_every_graph() {
        let c = OutcomeCache::new(8);
        c.set_epoch(7, 0);
        assert!(c.insert_in(7, key("a", 1), body("A"), 3));
        assert_eq!(c.purge_all(5), 1);
        assert!(!c.insert_in(7, key("b", 1), body("B"), 4));
        assert!(c.insert_in(7, key("b", 1), body("B"), 5));
    }

    #[test]
    fn epoch_change_drops_and_refuses_old_epoch_bounds() {
        let c = OutcomeCache::new(8);
        c.set_epoch(7, 0);
        assert!(c.insert_in(7, key("a", 1), body("A"), 100));
        c.set_epoch(9, 2);
        assert!(get(&c, &key("a", 1)).is_none());
        assert_eq!(c.stats().purged, 1, "adopting an epoch counts as a purge");
        // an old-epoch bound is numerically huge but meaningless now
        assert!(!c.insert_in(7, key("a", 1), body("A"), 100));
        assert!(c.insert_in(9, key("a", 1), body("A"), 2));
    }

    #[test]
    fn lru_eviction_and_byte_accounting() {
        let c = OutcomeCache::new(2);
        c.set_epoch(7, 0);
        assert!(c.insert_in(7, key("a", 0), body("aa"), 1));
        assert!(c.insert_in(7, key("b", 0), body("bbbb"), 1));
        assert_eq!(c.stats().resident_bytes, 6);
        get(&c, &key("a", 0));
        assert!(c.insert_in(7, key("c", 0), body("c"), 1));
        assert!(get(&c, &key("b", 0)).is_none(), "coldest entry evicted");
        assert!(get(&c, &key("a", 0)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().resident_bytes, 3);
    }

    #[test]
    fn lookups_report_the_epoch_their_entry_was_admitted_under() {
        let c = OutcomeCache::new(8);
        c.set_epoch(7, 0);
        assert!(c.insert_in(7, key("g", 0), body("e7"), 3));
        let hit = c.get_stamped(&key("g", 0)).unwrap();
        assert_eq!((hit.stamp, hit.epoch), (3, 7));
        c.set_epoch(9, 1);
        assert!(c.get_stamped(&key("g", 0)).is_none());
        assert!(c.insert_in(9, key("g", 0), body("e9"), 1));
        assert_eq!(c.get_stamped(&key("g", 0)).unwrap().epoch, 9);

        // race epoch adoption against lookups: every hit must name the
        // epoch its body was admitted under, never the one adopted
        // between reading the entry and reading the epoch
        let c = Arc::new(OutcomeCache::new(8));
        std::thread::scope(|s| {
            let flipper = Arc::clone(&c);
            s.spawn(move || {
                for epoch in 1..=2000u64 {
                    flipper.set_epoch(epoch, 0);
                    flipper.insert_in(epoch, key("g", 0), body(&format!("e{epoch}")), 0);
                }
            });
            for _ in 0..20_000 {
                if let Some(hit) = c.get_stamped(&key("g", 0)) {
                    assert_eq!(*hit.body, format!("e{}", hit.epoch));
                }
            }
        });
    }
}
