//! Order statistics over timing samples, and the units they are kept in.

use std::time::{Duration, Instant};

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the two
/// nearest ranks. Panics on an empty sample, which is a harness bug.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Whether one more operation, as long as the mean of the `done` so far,
/// still ends inside the `window` that began at `t0`; always true before
/// the first. Timing loops stop on it, so a run's window does not
/// overrun `--seconds` by most of an operation.
pub fn fits_another(t0: Instant, done: usize, window: Duration) -> bool {
    let elapsed = t0.elapsed();
    done == 0 || elapsed + elapsed / done as u32 <= window
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }
}
