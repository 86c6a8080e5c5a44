//! Host-speed reference for the end-to-end operation metrics.
//!
//! The benchmark's host is shared, and its speed drifts: the same binary
//! on the same seed has read up to half again as slow for minutes at a
//! time, in its set-up and its operations alike. So a fixed compute loop,
//! defined here and calling nothing in the workspace (no change to the
//! crates can move it), is timed in short bursts between operations all
//! through a run. Its median is the run's reference time, and the
//! operation metrics are reported as multiples of it.
//!
//! The loop runs on the benchmark thread alone. A version that spawned one
//! thread per kernel thread, as the kernels do per call, followed slow
//! thread start-up too but overshot it (in one slow spell the reference
//! slowed by 60% and the `update` cycle by 30%), and its threads raised
//! the peak resident set of `dist-compress` by a fifth.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Seconds between bursts.
const INTERVAL: f64 = 0.05;

/// Loop timings per burst.
const BURST: usize = 3;

/// Iterations of one timing (about a millisecond on a 2-3 GHz core).
const ITERS: u64 = 300_000;

#[derive(Default)]
struct State {
    last: Option<Instant>,
    samples: Vec<f64>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Seconds one run of the reference loop takes: a xorshift chain feeding a
/// fused multiply-add chain, in registers only.
fn reference_loop() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = black_box(1.0f64);
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999_9, (x >> 40) as f64 * 1e-12);
    }
    black_box((x, acc));
    t.elapsed().as_secs_f64()
}

fn burst(s: &mut State) {
    for _ in 0..BURST {
        s.samples.push(reference_loop());
    }
    s.last = Some(Instant::now());
}

/// Forget the samples of this thread.
pub fn reset() {
    STATE.with(|s| *s.borrow_mut() = State::default());
}

/// Time a burst of the reference loop if [`INTERVAL`] has passed since the
/// last one. Call it between operations, outside their timed regions.
pub fn tick() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.last.is_none_or(|t| t.elapsed().as_secs_f64() >= INTERVAL) {
            burst(&mut s);
        }
    });
}

/// Every timing of the reference loop since the last [`reset`], in
/// seconds; at least one burst.
pub fn samples() -> Vec<f64> {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.samples.is_empty() {
            burst(&mut s);
        }
        s.samples.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_sample_at_most_once_per_interval() {
        reset();
        tick();
        tick();
        assert_eq!(samples().len(), BURST);
        std::thread::sleep(std::time::Duration::from_secs_f64(INTERVAL));
        tick();
        assert_eq!(samples().len(), 2 * BURST);
        assert!(samples().iter().all(|&s| s > 0.0));
        reset();
        assert_eq!(samples().len(), BURST);
    }
}
