//! The host's speed, measured in this process beside the system under
//! test: a fixed amount of work that shares no code with `antruss`.
//!
//! The host moves between speed levels that last from seconds to
//! minutes: one deterministic `college:1.0` miss averaged 390-400 ms
//! over six minutes of runs and 230-290 ms over the next ten, and an
//! edge hit 0.08 ms against 0.05 ms over the same runs. No statistic
//! over one run can remove that, so the bounded latency metric is the
//! latency divided by the time this work took in the same run, sampled
//! between the timed requests. A change to the program moves the
//! latency and not the calibration; a change of host speed moves both.
//!
//! The work is two pointer walks: one through a cycle larger than a
//! core's private caches (memory-bound, as a graph solve is) and one
//! through a cycle that fits in them (bound by the core's clock, as a
//! cache hit's parse-and-write path is). Over six seeds the first alone
//! followed the cold misses and the second alone the edge hits; their
//! sum follows both.

use std::hint::black_box;
use std::time::Instant;

/// The memory-bound walk: 4 MiB of `u32` slots.
const BIG_SLOTS: usize = 1 << 20;
const BIG_STEPS: usize = 1 << 17;
/// The cache-resident walk: 256 KiB of `u32` slots.
const SMALL_SLOTS: usize = 1 << 16;
const SMALL_STEPS: usize = 1 << 21;

/// Two fixed random cycles, built once per run.
pub struct Calib {
    big: Vec<u32>,
    small: Vec<u32>,
}

/// One cycle through `n` slots (Sattolo's shuffle), the same in every
/// run: the LCG has a fixed seed.
fn cycle(n: usize, x: &mut u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((*x >> 33) % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

fn walk(next: &[u32], steps: usize) {
    let (mut i, mut h) = (0u32, 0xcbf2_9ce4_8422_2325u64);
    for _ in 0..steps {
        i = next[i as usize];
        h = (h ^ u64::from(i)).wrapping_mul(0x100_0000_01b3);
    }
    black_box(h);
}

impl Calib {
    pub fn new() -> Calib {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        Calib {
            big: cycle(BIG_SLOTS, &mut x),
            small: cycle(SMALL_SLOTS, &mut x),
        }
    }

    /// Runs the fixed work once (about 30 ms on the development VM);
    /// its time in milliseconds.
    pub fn sample(&self) -> f64 {
        let t = Instant::now();
        walk(&self.small, SMALL_STEPS);
        walk(&self.big, BIG_STEPS);
        t.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_walk_is_one_cycle_through_every_slot() {
        let c = Calib::new();
        for next in [&c.big, &c.small] {
            let (mut i, mut steps) = (0u32, 0usize);
            loop {
                i = next[i as usize];
                steps += 1;
                if i == 0 {
                    break;
                }
            }
            assert_eq!(steps, next.len());
        }
        assert!(c.sample() > 0.0);
    }
}
