//! The traced run's spans: kept in memory, written out once at the end.
//!
//! Request spans wrap each HTTP call; the per-tier hop records in the
//! response's `x-antruss-hops` header become its child spans, and each
//! hop's phases their grandchildren. Layer spans wrap each direct call
//! into a crate's public functions.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use antruss_obs::trace::parse_hops;

/// Spans kept per run; later spans are counted, not stored.
const MAX_SPANS: usize = 200_000;

struct Span {
    trace: u64,
    id: u64,
    parent: u64,
    name: String,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(seed: u64) -> Tracer {
        Tracer {
            t0: Instant::now(),
            // ids are unique within a run; the seed keeps runs apart
            next: AtomicU64::new((seed << 32) | 1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn fresh_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A layer span: one direct call into a crate, its own trace.
    pub fn layer(&self, name: &str, start: Instant, end: Instant) {
        let id = self.fresh_id();
        self.push(Span {
            trace: id,
            id,
            parent: 0,
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
        });
    }

    /// A request span `(trace, span)` sent as `x-antruss-trace` /
    /// `x-antruss-span`, plus the tier hops the response reported.
    /// Hop spans start with the request (the header carries durations,
    /// not offsets); phases are laid end to end inside their hop.
    pub fn request(
        &self,
        ids: (u64, u64),
        name: &str,
        start: Instant,
        end: Instant,
        hops: Option<&str>,
    ) {
        let (trace, id) = ids;
        let start_us = self.us(start);
        self.push(Span {
            trace,
            id,
            parent: 0,
            name: name.to_string(),
            start_us,
            end_us: self.us(end),
        });
        for hop in hops.map(parse_hops).unwrap_or_default() {
            // the outermost tier adopted our span as its parent
            let parent = if hop.parent == 0 { id } else { hop.parent };
            self.push(Span {
                trace,
                id: hop.span,
                parent,
                name: hop.tier.clone(),
                start_us,
                end_us: start_us + hop.us as f64,
            });
            let mut at = start_us;
            for (phase, us) in &hop.phases {
                self.push(Span {
                    trace,
                    id: self.fresh_id(),
                    parent: hop.span,
                    name: format!("{}.{phase}", hop.tier),
                    start_us: at,
                    end_us: at + *us as f64,
                });
                at += *us as f64;
            }
        }
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut s = String::with_capacity(96 * spans.len() + 64);
        let _ = write!(
            s,
            "{{\"dropped\":{},\"spans\":[",
            self.dropped.load(Ordering::Relaxed)
        );
        for (i, sp) in spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                sp.trace,
                sp.id,
                sp.parent,
                antruss_core::json::quoted(&sp.name),
                sp.start_us,
                sp.end_us
            );
        }
        s.push_str("]}");
        s
    }
}
