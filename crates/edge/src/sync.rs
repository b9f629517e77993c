//! The upstream subscriber: one background thread long-polling
//! `GET /events`, turning each event into cache invalidation, and
//! re-publishing it into the edge's mirror log — at the *original*
//! sequence numbers, so a daisy-chained edge subscribed to this one
//! observes exactly the upstream history.
//!
//! Ordering matters: the cache is invalidated *before* the event
//! reaches the mirror. A downstream edge that has seen event `N` can
//! therefore forward a miss through this edge without ever being
//! handed a body this edge should already have dropped.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use antruss_obs as obs;
use antruss_service::{Client, Event, EventBatch, EventKind};

use crate::EdgeState;

/// Resolves an `--upstream` spelling — `host:port`, tolerating an
/// `http://` prefix and a trailing slash — to a socket address.
pub fn parse_upstream(s: &str) -> std::io::Result<SocketAddr> {
    let trimmed = s.strip_prefix("http://").unwrap_or(s).trim_end_matches('/');
    trimmed.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("upstream {s:?} resolved to no address"),
        )
    })
}

/// Sleeps the configured retry backoff in small increments so shutdown
/// is never delayed by a full backoff.
fn sleep_retry(state: &EdgeState) {
    let mut left = state.config.retry_ms;
    while left > 0 && !state.is_shutdown() {
        let step = left.min(20);
        std::thread::sleep(Duration::from_millis(step));
        left -= step;
    }
}

/// Applies one upstream event: invalidate the touched entries (purge
/// with an empty graph name means purge-all), then mirror it for
/// downstream subscribers.
fn apply_event(state: &EdgeState, ev: Event) {
    match ev.kind {
        EventKind::Purge if ev.graph.is_empty() => {
            state.cache.purge_all(ev.seq);
        }
        _ => {
            state.cache.purge_graph(&ev.graph, ev.seq);
        }
    }
    state.metrics.events_applied.fetch_add(1, Ordering::Relaxed);
    state.mirror.mirror(ev);
}

/// The subscriber loop. Owns the edge's event cursor; exits when the
/// edge shuts down.
pub(crate) fn run(state: Arc<EdgeState>) {
    let mut client: Option<Client> = None;
    let mut cursor: u64 = 0;
    let mut epoch: u64 = 0;
    while !state.is_shutdown() {
        let c = client.get_or_insert_with(|| Client::new(state.upstream));
        // while the upstream is marked down, probe with wait=0: a long
        // poll would connect and then sit silent for the full wait
        // before `mark_contact`, keeping the edge needlessly in offline
        // mode after the upstream is already back
        let wait = if state.upstream_up() {
            state.config.poll_wait_ms
        } else {
            0
        };
        let path = format!("/events?since={cursor}&epoch={epoch}&wait={wait}");
        match c.get(&path) {
            Ok(resp) if resp.status == 200 => {
                state.mark_contact();
                let Some(batch) = EventBatch::parse(&resp.body_string()) else {
                    // an unparseable feed is a broken peer: reconnect
                    obs::warn!(
                        "edge-sync",
                        "unparseable /events body from {}; reconnecting",
                        state.upstream
                    );
                    client = None;
                    sleep_retry(&state);
                    continue;
                };
                state
                    .last_upstream_head
                    .store(batch.head, Ordering::Relaxed);
                if batch.reset {
                    // the upstream can't replay our cursor (restart,
                    // epoch change, fell out of retention): drop all
                    // derived state and restart from its head
                    state.metrics.event_resets.fetch_add(1, Ordering::Relaxed);
                    obs::warn!(
                        "edge-sync",
                        "upstream cannot replay cursor {cursor} (epoch {epoch}); \
                         resetting to epoch {} head {}",
                        batch.epoch,
                        batch.head
                    );
                    state.cache.set_epoch(batch.epoch, batch.head);
                    state.mirror.adopt(batch.epoch, batch.head);
                    epoch = batch.epoch;
                    cursor = batch.head;
                    continue;
                }
                if epoch != batch.epoch {
                    // first contact: adopt the upstream identity at our
                    // cursor, then replay the batch on top
                    state.cache.set_epoch(batch.epoch, cursor);
                    state.mirror.adopt(batch.epoch, cursor);
                    epoch = batch.epoch;
                }
                for ev in batch.events {
                    cursor = ev.seq;
                    apply_event(&state, ev);
                }
                cursor = cursor.max(batch.head);
            }
            Ok(_) => {
                // the upstream answered — it's up, just unhappy
                state.mark_contact();
                sleep_retry(&state);
            }
            Err(e) => {
                if state.upstream_up() {
                    obs::warn!(
                        "edge-sync",
                        "upstream {} unreachable ({e}); serving cached reads offline",
                        state.upstream
                    );
                }
                client = None;
                state.mark_down();
                sleep_retry(&state);
            }
        }
    }
}
