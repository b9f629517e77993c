//! Always-on continuous profiling and per-request cost accounting.
//!
//! Four pieces, all cheap enough to leave on in production:
//!
//! * [`CountingAlloc`] — a `#[global_allocator]` wrapper over the
//!   system allocator keeping **lossless** per-thread alloc/dealloc
//!   counts and byte totals. Each thread owns a slot in a fixed static
//!   table, so the counting path is two relaxed atomic adds and never
//!   allocates (no recursion, no locks, no sampling loss).
//! * **Thread roles** — [`register_thread`] maps a thread's name (the
//!   kernel `comm`, truncated to 15 bytes) to a role (`worker`,
//!   `solver`, `gossip`, …). [`cpu_report`] reads per-thread CPU from
//!   `/proc/self/task/*/stat` and aggregates it by role, retiring the
//!   ticks of exited threads so `antruss_prof_cpu_seconds_total{role=}`
//!   is monotone even across thread churn.
//! * **Lock-wait accounting** — [`ProfMutex`] / [`ProfRwLock`] are
//!   drop-in wrappers over the std primitives that time every
//!   acquisition into a process-wide named histogram
//!   (`antruss_prof_lock_wait_seconds{lock=}`), so "waiters queued on
//!   the catalog mutate lock" is a scrape, not a guess.
//! * **Request costs** — [`begin_cost`] / [`CostSpan`] snapshot the
//!   handling thread's CPU clock and allocation counters around a
//!   request (or one phase of it); the deltas ride the
//!   [`COST_HEADER`] response header, feed per-endpoint cost
//!   histograms, and land in the slow-trace ring via
//!   [`crate::trace::note_phase_cost`].
//!
//! Everything surfaces in one place per tier: [`debug_json`] renders
//! the `GET /debug/prof` body and [`register_metrics`] registers the
//! `antruss_prof_*` families into a tier's scrape registry.
//!
//! Caveats, by design: per-thread attribution covers the handling
//! thread only (a parallel solver's helper threads show up in role CPU,
//! not in the request's cost header), and a process hosting several
//! in-process tiers (tests, `loadgen --edge`) reports the same
//! process-wide profile from every tier's endpoint.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::registry::Registry;
use crate::trace;

/// Response header carrying a request's accumulated resource cost as
/// `cpu_us=<n>;alloc_bytes=<n>`. Tiers on a forwarding path fold the
/// downstream value into their own, so the client sees the whole
/// chain's spend.
pub const COST_HEADER: &str = "x-antruss-cost";

// ---------------------------------------------------------------------
// CountingAlloc: lossless per-thread allocation counters
// ---------------------------------------------------------------------

/// Per-thread allocation counters. Slot 0 is the shared overflow slot:
/// threads beyond [`MAX_THREAD_SLOTS`] and allocations during TLS
/// teardown count there, so process totals stay lossless even when
/// per-thread attribution degrades.
struct AllocSlot {
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    deallocs: AtomicU64,
    dealloc_bytes: AtomicU64,
}

/// How many threads get a private counter slot before falling back to
/// the shared overflow slot. Slots are never recycled (an exited
/// thread's totals must keep counting toward the process totals).
pub const MAX_THREAD_SLOTS: usize = 1024;

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: AllocSlot = AllocSlot {
    allocs: AtomicU64::new(0),
    alloc_bytes: AtomicU64::new(0),
    deallocs: AtomicU64::new(0),
    dealloc_bytes: AtomicU64::new(0),
};
static SLOTS: [AllocSlot; MAX_THREAD_SLOTS] = [EMPTY_SLOT; MAX_THREAD_SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// This thread's slot index; `usize::MAX` = not yet assigned.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn slot_index() -> usize {
    // try_with: the allocator runs during TLS destruction too, when the
    // cell is gone — those late frees land in the overflow slot
    MY_SLOT
        .try_with(|s| {
            let i = s.get();
            if i != usize::MAX {
                return i;
            }
            let next = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
            let i = if next < MAX_THREAD_SLOTS { next } else { 0 };
            s.set(i);
            i
        })
        .unwrap_or(0)
}

/// The index just past the highest assigned slot.
fn slot_watermark() -> usize {
    NEXT_SLOT.load(Ordering::Relaxed).min(MAX_THREAD_SLOTS)
}

/// A `#[global_allocator]` wrapper over [`System`] that counts every
/// allocation and deallocation against the calling thread's slot. The
/// counting path never allocates, so there is no reentrancy to guard.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let s = &SLOTS[slot_index()];
            s.allocs.fetch_add(1, Ordering::Relaxed);
            s.alloc_bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            let s = &SLOTS[slot_index()];
            s.allocs.fetch_add(1, Ordering::Relaxed);
            s.alloc_bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        let s = &SLOTS[slot_index()];
        s.deallocs.fetch_add(1, Ordering::Relaxed);
        s.dealloc_bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // a grow-or-move counts as one free of the old block and one
            // allocation of the new, keeping byte totals exact
            let s = &SLOTS[slot_index()];
            s.deallocs.fetch_add(1, Ordering::Relaxed);
            s.dealloc_bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
            s.allocs.fetch_add(1, Ordering::Relaxed);
            s.alloc_bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        p
    }
}

/// The process-wide counting allocator. Living in the library means
/// every binary linking any tier gets always-on allocation accounting
/// without per-binary opt-in.
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// A point-in-time copy of allocation counters (one thread's, or the
/// whole process's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations (including the alloc half of every realloc).
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Deallocations.
    pub deallocs: u64,
    /// Bytes freed.
    pub dealloc_bytes: u64,
}

impl AllocSnapshot {
    /// Bytes currently live (allocated minus freed), clamped at zero —
    /// a thread view can go "negative" when it frees blocks other
    /// threads allocated.
    pub fn live_bytes(&self) -> u64 {
        self.alloc_bytes.saturating_sub(self.dealloc_bytes)
    }
}

fn read_slot(s: &AllocSlot) -> AllocSnapshot {
    AllocSnapshot {
        allocs: s.allocs.load(Ordering::Relaxed),
        alloc_bytes: s.alloc_bytes.load(Ordering::Relaxed),
        deallocs: s.deallocs.load(Ordering::Relaxed),
        dealloc_bytes: s.dealloc_bytes.load(Ordering::Relaxed),
    }
}

/// The calling thread's own allocation counters (plus any overflow
/// sharing, if the process exceeded [`MAX_THREAD_SLOTS`] threads).
pub fn thread_allocs() -> AllocSnapshot {
    read_slot(&SLOTS[slot_index()])
}

/// Process-wide allocation totals: the sum over every thread slot,
/// including slots of threads that have exited.
pub fn process_allocs() -> AllocSnapshot {
    let mut total = AllocSnapshot::default();
    // the overflow slot (0) always counts; assigned slots start at 1
    for s in SLOTS.iter().take(slot_watermark().max(1)) {
        let v = read_slot(s);
        total.allocs += v.allocs;
        total.alloc_bytes += v.alloc_bytes;
        total.deallocs += v.deallocs;
        total.dealloc_bytes += v.dealloc_bytes;
    }
    total
}

// ---------------------------------------------------------------------
// Thread registry: comm -> role
// ---------------------------------------------------------------------

/// `(comm, role)` pairs; comm is the thread name truncated to the 15
/// bytes the kernel keeps, so `/proc` task entries match registrations.
static ROLES: Mutex<Vec<(String, &'static str)>> = Mutex::new(Vec::new());

/// `(tid, role)` pairs — exact, unlike comm matching, which collapses
/// names sharing a 15-byte prefix (`antruss-router-worker-0` and
/// `antruss-router-health` are the same comm). [`spawn`] registers the
/// tid from inside the new thread; pruned when the CPU tracker retires
/// the tid.
static TID_ROLES: Mutex<Vec<(u64, &'static str)>> = Mutex::new(Vec::new());

/// The calling thread's kernel task id (what `/proc/self/task` lists).
#[cfg(target_os = "linux")]
fn current_tid() -> u64 {
    extern "C" {
        fn gettid() -> i32;
    }
    unsafe { gettid() as u64 }
}

#[cfg(not(target_os = "linux"))]
fn current_tid() -> u64 {
    0
}

/// Registers the *calling* thread's tid under `role`.
fn register_tid(role: &'static str) {
    let tid = current_tid();
    if tid == 0 {
        return;
    }
    let mut tids = TID_ROLES.lock().unwrap();
    match tids.iter_mut().find(|(t, _)| *t == tid) {
        Some(slot) => slot.1 = role,
        None => tids.push((tid, role)),
    }
}

fn role_of_tid(tid: u64) -> Option<&'static str> {
    TID_ROLES
        .lock()
        .unwrap()
        .iter()
        .find(|(t, _)| *t == tid)
        .map(|(_, r)| *r)
}

fn forget_tid(tid: u64) {
    TID_ROLES.lock().unwrap().retain(|(t, _)| *t != tid);
}

/// The kernel's `comm` field: the first 15 bytes of the thread name.
fn comm_of(name: &str) -> &str {
    let end = name
        .char_indices()
        .map(|(i, c)| i + c.len_utf8())
        .take_while(|&e| e <= 15)
        .last()
        .unwrap_or(0);
    &name[..end]
}

/// Registers the *current* thread under `role` — by exact tid and by
/// comm — call at the top of a thread's run function (or use
/// [`spawn`], which does both).
pub fn register_thread(role: &'static str) {
    register_tid(role);
    let name = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string();
    register_thread_named(&name, role);
}

/// Registers a thread *name* under `role` before or after the thread
/// exists — spawners call this so the mapping is in place by the time
/// the CPU sampler first sees the task.
pub fn register_thread_named(name: &str, role: &'static str) {
    let comm = comm_of(name).to_string();
    let mut roles = ROLES.lock().unwrap();
    match roles.iter_mut().find(|(c, _)| *c == comm) {
        Some(slot) => slot.1 = role,
        None => roles.push((comm, role)),
    }
}

/// The role a `/proc` comm maps to; unregistered threads are `other`.
pub fn role_of_comm(comm: &str) -> &'static str {
    ROLES
        .lock()
        .unwrap()
        .iter()
        .find(|(c, _)| c == comm)
        .map(|(_, r)| *r)
        .unwrap_or("other")
}

/// Spawns a named thread registered under `role`, propagating the
/// Builder error instead of swallowing it. The new thread registers
/// its own tid before running `f`, so its role survives 15-byte comm
/// truncation collisions; the name registration stays as a fallback
/// for threads the tid registry has never seen.
pub fn spawn<T, F>(
    name: &str,
    role: &'static str,
    f: F,
) -> std::io::Result<std::thread::JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    register_thread_named(name, role);
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            register_tid(role);
            f()
        })
}

// ---------------------------------------------------------------------
// Per-thread CPU accounting from /proc/self/task/*/stat
// ---------------------------------------------------------------------

/// Linux `USER_HZ`: the unit of utime/stime in `/proc/*/stat`. Fixed at
/// 100 on every mainstream architecture (the kernel exports a scaled
/// value precisely so userspace can hard-code it without `sysconf`).
const CLK_TCK: f64 = 100.0;

/// One task's CPU usage as read from `/proc/self/task/<tid>/stat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCpu {
    /// Kernel task id (the directory name).
    pub tid: u64,
    /// The task's `comm` (thread name truncated to 15 bytes).
    pub comm: String,
    /// `utime + stime`, in clock ticks.
    pub ticks: u64,
}

/// Parses one `/proc/*/stat` line into `(comm, utime + stime ticks)`.
///
/// The comm field is parenthesized and may itself contain spaces and
/// parens (`(a b) c)` is a legal thread name), so the parse anchors on
/// the *last* `)` in the line; fields count from there.
pub fn parse_stat_line(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line.get(open + 1..close)?.to_string();
    // after ") ": state(3) ppid(4) ... utime(14) stime(15)
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// Reads every live task's CPU ticks from `/proc/self/task`. Returns an
/// empty vec on platforms without procfs — callers degrade to "no CPU
/// panel", not an error.
pub fn sample_tasks() -> Vec<TaskCpu> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let name = entry.file_name();
        let Some(tid) = name.to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue; // the task exited mid-walk
        };
        if let Some((comm, ticks)) = parse_stat_line(&stat) {
            out.push(TaskCpu { tid, comm, ticks });
        }
    }
    out
}

/// Tracks per-task CPU so role totals stay monotone across thread
/// churn: a task's ticks are remembered at the role it had when first
/// seen, and moved into `retired` when the task disappears (or its tid
/// is reused).
#[derive(Default)]
struct CpuTracker {
    /// tid -> (comm, role-at-first-sight, last ticks).
    live: HashMap<u64, (String, &'static str, u64)>,
    /// Ticks of exited threads, by role.
    retired: HashMap<&'static str, u64>,
}

static CPU: Mutex<Option<CpuTracker>> = Mutex::new(None);

/// One thread's row in a [`CpuReport`].
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    /// Kernel task id.
    pub tid: u64,
    /// Thread name as the kernel sees it (15 bytes).
    pub comm: String,
    /// The registered role (`other` when unregistered).
    pub role: &'static str,
    /// Cumulative CPU seconds (user + system).
    pub seconds: f64,
}

/// Per-thread and per-role CPU usage; see [`cpu_report`].
#[derive(Debug, Clone, Default)]
pub struct CpuReport {
    /// Live threads, sorted by descending CPU.
    pub threads: Vec<ThreadCpu>,
    /// Cumulative CPU seconds by role (live + retired), sorted by
    /// descending CPU. Monotone between calls.
    pub by_role: Vec<(String, f64)>,
}

/// Samples `/proc/self/task`, updates the churn tracker, and returns
/// the per-thread and per-role CPU picture.
pub fn cpu_report() -> CpuReport {
    let tasks = sample_tasks();
    let mut guard = CPU.lock().unwrap();
    let tracker = guard.get_or_insert_with(CpuTracker::default);

    let mut seen: HashMap<u64, &TaskCpu> = HashMap::new();
    for t in &tasks {
        seen.insert(t.tid, t);
    }
    // retire tasks that vanished (or whose tid was reused by a new
    // thread — detectable as a ticks regression or a comm change)
    let gone: Vec<u64> = tracker
        .live
        .iter()
        .filter(|(tid, (comm, _, ticks))| match seen.get(tid) {
            None => true,
            Some(t) => t.ticks < *ticks || t.comm != *comm,
        })
        .map(|(tid, _)| *tid)
        .collect();
    for tid in gone {
        if let Some((_, role, ticks)) = tracker.live.remove(&tid) {
            *tracker.retired.entry(role).or_insert(0) += ticks;
        }
        forget_tid(tid);
    }
    for t in &tasks {
        tracker
            .live
            .entry(t.tid)
            .and_modify(|(_, _, ticks)| *ticks = t.ticks)
            .or_insert_with(|| {
                // exact tid registration wins; comm matching is the
                // fallback (names sharing a 15-byte prefix collide)
                let role = role_of_tid(t.tid).unwrap_or_else(|| role_of_comm(&t.comm));
                (t.comm.clone(), role, t.ticks)
            });
    }

    let mut threads: Vec<ThreadCpu> = tracker
        .live
        .iter()
        .map(|(tid, (comm, role, ticks))| ThreadCpu {
            tid: *tid,
            comm: comm.clone(),
            role,
            seconds: *ticks as f64 / CLK_TCK,
        })
        .collect();
    threads.sort_by(|a, b| {
        b.seconds
            .partial_cmp(&a.seconds)
            .unwrap()
            .then(a.tid.cmp(&b.tid))
    });

    let mut by_role: HashMap<&'static str, f64> = HashMap::new();
    for (role, ticks) in &tracker.retired {
        *by_role.entry(role).or_insert(0.0) += *ticks as f64 / CLK_TCK;
    }
    for t in &threads {
        *by_role.entry(t.role).or_insert(0.0) += t.seconds;
    }
    let mut by_role: Vec<(String, f64)> = by_role
        .into_iter()
        .map(|(r, s)| (r.to_string(), s))
        .collect();
    by_role.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    CpuReport { threads, by_role }
}

/// The calling thread's cumulative CPU time in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`) — cheap enough to read per request.
#[cfg(unix)]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    (ts.sec as u64).saturating_mul(1_000_000_000) + ts.nsec as u64
}

/// Non-unix fallback: no thread CPU clock; costs report zero CPU.
#[cfg(not(unix))]
pub fn thread_cpu_ns() -> u64 {
    0
}

// ---------------------------------------------------------------------
// Lock-wait accounting
// ---------------------------------------------------------------------

/// Wait-time accounting for one named lock. The process-wide entry is
/// shared by every instance registered under the same name (a test may
/// build many caches; they are one "outcome_cache" lock to the
/// profile); each instance also keeps its own, so one server's waits
/// can be read apart from a sibling's in the same process.
#[derive(Debug)]
pub struct LockStats {
    name: &'static str,
    wait: Histogram,
    max_wait_ns: AtomicU64,
}

impl LockStats {
    fn new(name: &'static str) -> LockStats {
        LockStats {
            name,
            wait: Histogram::new(),
            max_wait_ns: AtomicU64::new(0),
        }
    }

    fn observe(&self, wait: Duration) {
        let ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
        self.wait.observe_ns(ns);
        self.max_wait_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LockSnapshot {
        let hist = self.wait.snapshot();
        LockSnapshot {
            name: self.name,
            acquisitions: hist.count(),
            wait_seconds: hist.sum_seconds(),
            p99_us: hist.quantile_ns(0.99) / 1e3,
            max_us: self.max_wait_ns.load(Ordering::Relaxed) as f64 / 1e3,
            hist,
        }
    }
}

/// The two accounts one lock instance charges: the process-wide entry
/// for its name and its own.
#[derive(Debug)]
struct LockAccounts {
    shared: &'static LockStats,
    own: LockStats,
}

impl LockAccounts {
    fn new(name: &'static str) -> LockAccounts {
        LockAccounts {
            shared: lock_stats(name),
            own: LockStats::new(name),
        }
    }

    fn observe(&self, wait: Duration) {
        self.shared.observe(wait);
        self.own.observe(wait);
    }
}

static LOCKS: Mutex<Vec<&'static LockStats>> = Mutex::new(Vec::new());

/// The shared stats for `name`, registering (and leaking — locks are
/// process-lifetime) on first use.
fn lock_stats(name: &'static str) -> &'static LockStats {
    let mut locks = LOCKS.lock().unwrap();
    if let Some(s) = locks.iter().find(|s| s.name == name) {
        return s;
    }
    let s: &'static LockStats = Box::leak(Box::new(LockStats::new(name)));
    locks.push(s);
    s
}

/// One named lock's wait picture, for `/debug/prof` and the overview.
#[derive(Debug, Clone)]
pub struct LockSnapshot {
    /// The lock's registered name.
    pub name: &'static str,
    /// Acquisitions observed.
    pub acquisitions: u64,
    /// Total seconds spent waiting to acquire.
    pub wait_seconds: f64,
    /// p99 wait in microseconds.
    pub p99_us: f64,
    /// Worst single wait in microseconds.
    pub max_us: f64,
    /// The underlying wait histogram (nanosecond observations).
    pub hist: crate::hist::HistSnapshot,
}

/// Every registered lock's wait snapshot, worst total wait first.
pub fn lock_snapshots() -> Vec<LockSnapshot> {
    let locks = LOCKS.lock().unwrap();
    let mut out: Vec<LockSnapshot> = locks.iter().map(|s| s.snapshot()).collect();
    out.sort_by(|a, b| b.wait_seconds.partial_cmp(&a.wait_seconds).unwrap());
    out
}

/// A [`Mutex`] whose every acquisition records its wait against a
/// process-wide named histogram and against the instance's own.
/// Drop-in: `lock()` keeps the std signature, so `.lock().unwrap()`
/// call sites don't change.
#[derive(Debug)]
pub struct ProfMutex<T> {
    stats: LockAccounts,
    inner: Mutex<T>,
}

impl<T> ProfMutex<T> {
    /// Wraps `value` in a mutex accounted under `name`.
    pub fn new(name: &'static str, value: T) -> ProfMutex<T> {
        ProfMutex {
            stats: LockAccounts::new(name),
            inner: Mutex::new(value),
        }
    }

    /// This instance's waits alone, without other locks of its name.
    pub fn snapshot(&self) -> LockSnapshot {
        self.stats.own.snapshot()
    }

    /// Acquires the lock, recording the time spent waiting for it.
    pub fn lock(&self) -> std::sync::LockResult<std::sync::MutexGuard<'_, T>> {
        let started = Instant::now();
        let guard = self.inner.lock();
        self.stats.observe(started.elapsed());
        guard
    }
}

/// An [`std::sync::RwLock`] with the same wait accounting as
/// [`ProfMutex`]; reader and writer waits share the lock's histogram
/// (it is the *contention* on the lock that matters, and the writer
/// holding it is what makes readers wait).
#[derive(Debug)]
pub struct ProfRwLock<T> {
    stats: LockAccounts,
    inner: std::sync::RwLock<T>,
}

impl<T> ProfRwLock<T> {
    /// Wraps `value` in a rwlock accounted under `name`.
    pub fn new(name: &'static str, value: T) -> ProfRwLock<T> {
        ProfRwLock {
            stats: LockAccounts::new(name),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// This instance's waits alone, without other locks of its name.
    pub fn snapshot(&self) -> LockSnapshot {
        self.stats.own.snapshot()
    }

    /// Acquires a read guard, recording the wait.
    pub fn read(&self) -> std::sync::LockResult<std::sync::RwLockReadGuard<'_, T>> {
        let started = Instant::now();
        let guard = self.inner.read();
        self.stats.observe(started.elapsed());
        guard
    }

    /// Acquires the write guard, recording the wait.
    pub fn write(&self) -> std::sync::LockResult<std::sync::RwLockWriteGuard<'_, T>> {
        let started = Instant::now();
        let guard = self.inner.write();
        self.stats.observe(started.elapsed());
        guard
    }
}

// ---------------------------------------------------------------------
// Per-request / per-phase cost attribution
// ---------------------------------------------------------------------

/// A snapshot of the handling thread's CPU clock and allocation bytes
/// at request entry; [`RequestCost::finish`] turns it into the
/// request's spend.
#[derive(Debug, Clone, Copy)]
pub struct RequestCost {
    cpu_ns: u64,
    alloc_bytes: u64,
}

/// Starts cost accounting for the current thread's request.
pub fn begin_cost() -> RequestCost {
    RequestCost {
        cpu_ns: thread_cpu_ns(),
        alloc_bytes: thread_allocs().alloc_bytes,
    }
}

impl RequestCost {
    /// The `(cpu_us, alloc_bytes)` the thread spent since
    /// [`begin_cost`].
    pub fn finish(&self) -> (u64, u64) {
        let cpu_us = thread_cpu_ns().saturating_sub(self.cpu_ns) / 1_000;
        let bytes = thread_allocs().alloc_bytes.saturating_sub(self.alloc_bytes);
        (cpu_us, bytes)
    }
}

/// RAII guard attributing one phase's CPU and allocations: snapshot on
/// construction, delta into [`trace::note_phase_cost`] on drop.
#[derive(Debug)]
pub struct CostSpan {
    name: &'static str,
    at: RequestCost,
}

/// Opens a cost span for `name` — pair it with the wall-clock
/// `note_phase` the handler already records.
pub fn cost_span(name: &'static str) -> CostSpan {
    CostSpan {
        name,
        at: begin_cost(),
    }
}

impl Drop for CostSpan {
    fn drop(&mut self) {
        let (cpu_us, bytes) = self.at.finish();
        trace::note_phase_cost(self.name, cpu_us, bytes);
    }
}

/// Formats the [`COST_HEADER`] value.
pub fn format_cost(cpu_us: u64, alloc_bytes: u64) -> String {
    format!("cpu_us={cpu_us};alloc_bytes={alloc_bytes}")
}

/// Parses a [`COST_HEADER`] value back into `(cpu_us, alloc_bytes)`.
pub fn parse_cost(v: &str) -> Option<(u64, u64)> {
    let mut cpu_us = None;
    let mut bytes = None;
    for field in v.split(';') {
        match field.trim().split_once('=') {
            Some(("cpu_us", n)) => cpu_us = n.parse().ok(),
            Some(("alloc_bytes", n)) => bytes = n.parse().ok(),
            _ => {} // unknown fields from a newer peer
        }
    }
    Some((cpu_us?, bytes?))
}

/// One labeled request-cost accumulator (CPU ns + allocated bytes).
struct CostFamily {
    dim: &'static str,
    label: String,
    cpu: Histogram,
    bytes: Histogram,
}

static COST_FAMILIES: Mutex<Vec<&'static CostFamily>> = Mutex::new(Vec::new());

/// Accumulates one finished request's cost under a labeled family —
/// `dim` is the label key (`endpoint`, `solver`), `label` its value.
/// The label set is small and process-lifetime, so families leak.
pub fn observe_request_cost(dim: &'static str, label: &str, cpu_us: u64, alloc_bytes: u64) {
    let fams = COST_FAMILIES.lock().unwrap();
    if let Some(f) = fams.iter().find(|f| f.dim == dim && f.label == label) {
        f.cpu.observe_ns(cpu_us.saturating_mul(1_000));
        f.bytes.observe_ns(alloc_bytes);
        return;
    }
    drop(fams);
    let f: &'static CostFamily = Box::leak(Box::new(CostFamily {
        dim,
        label: label.to_string(),
        cpu: Histogram::new(),
        bytes: Histogram::new(),
    }));
    f.cpu.observe_ns(cpu_us.saturating_mul(1_000));
    f.bytes.observe_ns(alloc_bytes);
    let mut fams = COST_FAMILIES.lock().unwrap();
    // a racing registration of the same label is tolerated: both ends up
    // in the list, the registry merges them at render time
    if let Some(existing) = fams.iter().find(|e| e.dim == dim && e.label == label) {
        existing.cpu.merge_from(&f.cpu);
        existing.bytes.merge_from(&f.bytes);
    } else {
        fams.push(f);
    }
}

/// One labeled cost family's snapshot, for `/debug/prof`.
#[derive(Debug, Clone)]
pub struct CostSnapshot {
    /// Label key (`endpoint`, `solver`).
    pub dim: &'static str,
    /// Label value (`solve`, `gas`, …).
    pub label: String,
    /// Requests observed.
    pub count: u64,
    /// CPU-microsecond histogram (stored as ns).
    pub cpu: crate::hist::HistSnapshot,
    /// Allocated-bytes histogram (raw units).
    pub bytes: crate::hist::HistSnapshot,
}

/// Every labeled cost family's snapshot, in registration order.
pub fn cost_snapshots() -> Vec<CostSnapshot> {
    COST_FAMILIES
        .lock()
        .unwrap()
        .iter()
        .map(|f| {
            let cpu = f.cpu.snapshot();
            CostSnapshot {
                dim: f.dim,
                label: f.label.clone(),
                count: cpu.count(),
                cpu,
                bytes: f.bytes.snapshot(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Export: registry families and the /debug/prof body
// ---------------------------------------------------------------------

/// Registers the process-wide `antruss_prof_*` families into a tier's
/// scrape registry: allocation totals, CPU seconds by role, lock-wait
/// histograms and per-label request-cost histograms.
pub fn register_metrics(reg: &mut Registry) {
    let a = process_allocs();
    reg.counter("antruss_prof_allocs_total", a.allocs);
    reg.counter("antruss_prof_alloc_bytes_total", a.alloc_bytes);
    reg.counter("antruss_prof_deallocs_total", a.deallocs);
    reg.counter("antruss_prof_dealloc_bytes_total", a.dealloc_bytes);
    reg.gauge("antruss_prof_live_bytes", a.live_bytes() as f64);

    for (role, seconds) in &cpu_report().by_role {
        reg.counter_f64_with(
            "antruss_prof_cpu_seconds_total",
            &[("role", role)],
            *seconds,
        );
    }

    for lock in lock_snapshots() {
        reg.histogram(
            "antruss_prof_lock_wait_seconds",
            &[("lock", lock.name)],
            &lock.hist,
        );
        reg.quantiles(
            "antruss_prof_lock_wait_quantile_seconds",
            &[("lock", lock.name)],
            &lock.hist,
        );
    }

    for cost in cost_snapshots() {
        reg.histogram(
            "antruss_prof_request_cpu_seconds",
            &[(cost.dim, &cost.label)],
            &cost.cpu,
        );
        reg.raw_histogram(
            "antruss_prof_request_alloc_bytes",
            &[(cost.dim, &cost.label)],
            &cost.bytes,
        );
        reg.raw_quantiles(
            "antruss_prof_request_alloc_bytes_quantile",
            &[(cost.dim, &cost.label)],
            &cost.bytes,
        );
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the `GET /debug/prof` JSON body for `tier`: allocation
/// totals, per-thread and per-role CPU, lock waits and request costs.
pub fn debug_json(tier: &str) -> String {
    let a = process_allocs();
    let cpu = cpu_report();
    let threads: Vec<String> = cpu
        .threads
        .iter()
        .map(|t| {
            format!(
                "{{\"tid\":{},\"name\":\"{}\",\"role\":\"{}\",\"cpu_seconds\":{:.3}}}",
                t.tid,
                json_escape(&t.comm),
                json_escape(t.role),
                t.seconds
            )
        })
        .collect();
    let by_role: Vec<String> = cpu
        .by_role
        .iter()
        .map(|(role, s)| {
            format!(
                "{{\"role\":\"{}\",\"cpu_seconds\":{s:.3}}}",
                json_escape(role)
            )
        })
        .collect();
    let locks: Vec<String> = lock_snapshots()
        .iter()
        .map(|l| {
            format!(
                "{{\"lock\":\"{}\",\"acquisitions\":{},\"wait_seconds_total\":{:.6},\
                 \"wait_p99_us\":{:.1},\"wait_max_us\":{:.1}}}",
                json_escape(l.name),
                l.acquisitions,
                l.wait_seconds,
                l.p99_us,
                l.max_us
            )
        })
        .collect();
    let costs: Vec<String> = cost_snapshots()
        .iter()
        .map(|c| {
            format!(
                "{{\"dim\":\"{}\",\"label\":\"{}\",\"count\":{},\
                 \"cpu_us_p50\":{:.1},\"cpu_us_p99\":{:.1},\
                 \"alloc_bytes_p50\":{:.0},\"alloc_bytes_p99\":{:.0}}}",
                json_escape(c.dim),
                json_escape(&c.label),
                c.count,
                c.cpu.quantile_ns(0.5) / 1e3,
                c.cpu.quantile_ns(0.99) / 1e3,
                c.bytes.quantile_ns(0.5),
                c.bytes.quantile_ns(0.99)
            )
        })
        .collect();
    format!(
        "{{\"tier\":\"{}\",\"alloc\":{{\"allocs\":{},\"alloc_bytes\":{},\"deallocs\":{},\
         \"dealloc_bytes\":{},\"live_bytes\":{}}},\
         \"cpu\":{{\"by_role\":[{}],\"threads\":[{}]}},\
         \"locks\":[{}],\"costs\":[{}]}}",
        json_escape(tier),
        a.allocs,
        a.alloc_bytes,
        a.deallocs,
        a.dealloc_bytes,
        a.live_bytes(),
        by_role.join(","),
        threads.join(","),
        locks.join(","),
        costs.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_alloc_sees_this_thread() {
        let before = thread_allocs();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let after = thread_allocs();
        drop(v);
        let freed = thread_allocs();
        assert!(after.allocs > before.allocs, "{after:?} vs {before:?}");
        assert!(after.alloc_bytes >= before.alloc_bytes + 4096);
        assert!(freed.dealloc_bytes >= after.dealloc_bytes + 4096);
        let total = process_allocs();
        assert!(total.allocs >= after.allocs);
    }

    #[test]
    fn stat_parser_survives_kernel_comm_quirks() {
        // plain
        let (comm, ticks) = parse_stat_line(
            "1234 (worker-0) S 1 1 1 0 -1 4194304 100 0 0 0 7 3 0 0 20 0 1 0 100 0 0",
        )
        .unwrap();
        assert_eq!(comm, "worker-0");
        assert_eq!(ticks, 10);
        // comm with spaces and a nested paren — anchor on the LAST ')'
        let (comm, ticks) =
            parse_stat_line("99 (a b) c) R 1 1 1 0 -1 0 0 0 0 0 42 8 0 0 20 0 1 0 0 0 0").unwrap();
        assert_eq!(comm, "a b) c");
        assert_eq!(ticks, 50);
        // truncated / garbage lines fail closed
        assert!(parse_stat_line("1234 (x) S 1 2").is_none());
        assert!(parse_stat_line("no parens here").is_none());
    }

    #[test]
    fn roles_map_by_truncated_comm() {
        register_thread_named("antruss-prof-test-worker-7", "test-worker");
        // the kernel sees only the first 15 bytes
        assert_eq!(role_of_comm("antruss-prof-te"), "test-worker");
        assert_eq!(role_of_comm("never-registered"), "other");
    }

    #[test]
    fn cpu_report_is_monotone_and_sees_live_threads() {
        let first = cpu_report();
        // burn CPU on a named, registered thread
        let t = spawn("prof-burn", "burner", || {
            let mut x = 0u64;
            let until = Instant::now() + Duration::from_millis(30);
            while Instant::now() < until {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(x)
        })
        .unwrap();
        t.join().unwrap();
        let second = cpu_report();
        assert!(!second.threads.is_empty());
        let total = |r: &CpuReport| r.by_role.iter().map(|(_, s)| s).sum::<f64>();
        assert!(total(&second) >= total(&first), "role CPU went backwards");
        // burner's ticks survive its exit, under its role
        let third = cpu_report();
        let burned = |r: &CpuReport| {
            r.by_role
                .iter()
                .find(|(role, _)| role == "burner")
                .map(|(_, s)| *s)
        };
        // 10ms tick granularity: a 30ms burn may still round to 0
        if let (Some(b2), Some(b3)) = (burned(&second), burned(&third)) {
            assert!(b3 >= b2);
        }
    }

    /// Thread names sharing a 15-byte prefix collapse to one kernel
    /// comm, but exact tid registration keeps their roles distinct.
    #[cfg(target_os = "linux")]
    #[test]
    fn colliding_comms_keep_distinct_roles_via_tid() {
        use std::sync::mpsc;
        // both names truncate to the comm "prof-collision-"
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let (ready_tx, ready_rx) = mpsc::channel::<u64>();
        let ready2 = ready_tx.clone();
        let a = spawn("prof-collision-alpha", "alpha", move || {
            ready_tx.send(current_tid()).unwrap();
            std::thread::sleep(Duration::from_millis(200));
        })
        .unwrap();
        let b = spawn("prof-collision-beta", "beta", move || {
            ready2.send(current_tid()).unwrap();
            hold_rx.recv().ok();
        })
        .unwrap();
        let (tid1, tid2) = (ready_rx.recv().unwrap(), ready_rx.recv().unwrap());
        let report = cpu_report();
        let role_of = |tid: u64| report.threads.iter().find(|t| t.tid == tid).map(|t| t.role);
        let mut seen: Vec<&str> = [role_of(tid1), role_of(tid2)]
            .into_iter()
            .flatten()
            .collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            ["alpha", "beta"],
            "tid registration must win over comm"
        );
        drop(hold_tx);
        a.join().unwrap();
        b.join().unwrap();
    }

    #[test]
    fn thread_cpu_clock_advances_under_load() {
        let before = thread_cpu_ns();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(i | 1);
        }
        std::hint::black_box(x);
        let after = thread_cpu_ns();
        assert!(after > before, "CLOCK_THREAD_CPUTIME_ID did not advance");
    }

    #[test]
    fn prof_locks_account_waits() {
        let m = ProfMutex::new("prof_test_mutex", 0u64);
        for _ in 0..10 {
            *m.lock().unwrap() += 1;
        }
        let l = ProfRwLock::new("prof_test_rwlock", ());
        drop(l.read().unwrap());
        drop(l.write().unwrap());
        let snaps = lock_snapshots();
        let m_snap = snaps.iter().find(|s| s.name == "prof_test_mutex").unwrap();
        assert!(m_snap.acquisitions >= 10);
        let rw = snaps.iter().find(|s| s.name == "prof_test_rwlock").unwrap();
        assert!(rw.acquisitions >= 2);
        // two locks under one name share one accounting entry
        let again = ProfMutex::new("prof_test_mutex", 0u64);
        drop(again.lock().unwrap());
        let snaps = lock_snapshots();
        assert_eq!(
            snaps.iter().filter(|s| s.name == "prof_test_mutex").count(),
            1
        );
        // while each instance still reads its own acquisitions alone
        assert_eq!(again.snapshot().acquisitions, 1);
        assert_eq!(m.snapshot().acquisitions, 10);
        assert_eq!(l.snapshot().acquisitions, 2);
    }

    #[test]
    fn cost_header_round_trips() {
        let v = format_cost(1234, 98765);
        assert_eq!(v, "cpu_us=1234;alloc_bytes=98765");
        assert_eq!(parse_cost(&v), Some((1234, 98765)));
        assert_eq!(parse_cost("cpu_us=5;alloc_bytes=6;future=7"), Some((5, 6)));
        assert_eq!(parse_cost("garbage"), None);
    }

    #[test]
    fn request_costs_accumulate_per_label() {
        observe_request_cost("endpoint", "prof-test-solve", 500, 10_000);
        observe_request_cost("endpoint", "prof-test-solve", 1500, 30_000);
        let snap = cost_snapshots()
            .into_iter()
            .find(|c| c.label == "prof-test-solve")
            .unwrap();
        assert_eq!(snap.count, 2);
        assert!(snap.cpu.quantile_ns(0.99) >= 500_000.0, "{snap:?}");
        assert!(snap.bytes.quantile_ns(0.99) >= 10_000.0, "{snap:?}");
    }

    #[test]
    fn cost_spans_feed_the_trace_costs() {
        trace::begin_request(trace::TraceContext::originate());
        {
            let _span = cost_span("prof-span-test");
            let v: Vec<u8> = Vec::with_capacity(64 * 1024);
            std::hint::black_box(&v);
        }
        let costs = trace::take_costs();
        trace::take_phases();
        let (name, _cpu, bytes) = costs
            .into_iter()
            .find(|(n, _, _)| *n == "prof-span-test")
            .unwrap();
        assert_eq!(name, "prof-span-test");
        assert!(bytes >= 64 * 1024, "span missed the allocation: {bytes}");
    }

    #[test]
    fn debug_json_has_the_documented_shape() {
        let m = ProfMutex::new("prof_json_lock", ());
        drop(m.lock().unwrap());
        observe_request_cost("endpoint", "prof-json", 10, 100);
        let body = debug_json("server");
        for key in [
            "\"tier\":\"server\"",
            "\"alloc\":{\"allocs\":",
            "\"live_bytes\":",
            "\"by_role\":[",
            "\"threads\":[",
            "\"locks\":[",
            "\"costs\":[",
            "\"lock\":\"prof_json_lock\"",
            "\"label\":\"prof-json\"",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
    }
}
