//! How fast the host is running right now, from a fixed piece of work
//! that touches no engine code.
//!
//! The 2-core sandbox changes speed by 30–40 % for minutes at a time (the
//! same binary on the same inputs; a bare `clock_gettime` loop slows by the
//! same factor), which no amount of repetition inside one run averages
//! out. So the driver samples [`reference_work`] between waves and every
//! reported time is scaled to a host on which that work takes
//! [`NOMINAL_US`]: times compare across runs and commits, and read as the
//! sandbox's when it is quiet. Measured on `booking`: rep time ÷ reference
//! time stays within 4.1–4.5 while rep time itself moves from 3.7 s to
//! 5.3 s with the host.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What [`reference_work`] takes on the sandbox when it is quiet.
pub const NOMINAL_US: f64 = 850.0;
/// The driver takes one sample after every this many waves.
pub const SAMPLE_EVERY_WAVES: usize = 8;

/// Hash-map scans, point lookups, a sort and some formatting over a
/// 2 048-entry map: the instruction mix of the engine's own bookkeeping,
/// small enough (about a millisecond, under 100 KiB) not to evict the
/// engine's working set when it runs between waves.
fn reference_work() -> Duration {
    let mut map: HashMap<u64, u64> = (0..2048).map(|k| (k, k / 2)).collect();
    let t0 = Instant::now();
    let mut acc = 0u64;
    for round in 0..16u64 {
        let mut keys: Vec<u64> = map.keys().copied().collect();
        for k in &keys {
            acc = acc.wrapping_add(map[k]);
        }
        keys.sort_unstable();
        let text = format!(
            "UPDATE Reserve SET fid={} WHERE uid={}",
            acc % 2000,
            keys[0]
        );
        map.insert(2048 + round, text.len() as u64);
    }
    black_box(acc);
    t0.elapsed()
}

/// Host-speed samples taken next to something that was timed: reference
/// times in µs.
#[derive(Debug, Clone, Default)]
pub struct Speed(Vec<f64>);

impl Speed {
    pub fn sample(&mut self) {
        self.0.push(reference_work().as_secs_f64() * 1e6);
    }

    /// Mean reference time over the samples, in µs ([`NOMINAL_US`] when
    /// there are none).
    pub fn reference_us(&self) -> f64 {
        if self.0.is_empty() {
            NOMINAL_US
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// Multiply a time measured next to the samples by this to get what
    /// it would have been on the nominal host.
    pub fn to_nominal(&self) -> f64 {
        NOMINAL_US / self.reference_us()
    }

    /// `samples` samples before `timed` and as many after; what `timed`
    /// returned and the factor that scales its duration to nominal.
    pub fn around<T>(samples: usize, timed: impl FnOnce() -> T) -> (T, f64) {
        let mut speed = Speed::default();
        (0..samples).for_each(|_| speed.sample());
        let out = timed();
        (0..samples).for_each(|_| speed.sample());
        (out, speed.to_nominal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_mean_of_the_samples() {
        assert_eq!(Speed::default().to_nominal(), 1.0);
        // A host at nominal speed, then half as fast.
        let speed = Speed(vec![NOMINAL_US, 2.0 * NOMINAL_US]);
        assert_eq!(speed.reference_us(), 1.5 * NOMINAL_US);
        assert_eq!(speed.to_nominal(), 1.0 / 1.5);
        let ((), factor) = Speed::around(2, || ());
        assert!(factor > 0.0 && factor.is_finite());
    }
}
