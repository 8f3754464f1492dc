//! Robust summary statistics for hand-rolled benchmark loops — the
//! part of `criterion` the workspace still uses.
//!
//! Benchmarks that do their own sampling (campaign trials/sec in
//! `bench_faults`, request rates in `casted-client bench`) report the
//! per-sample **median** and **MAD** (median absolute deviation),
//! which are robust to scheduler noise:
//!
//! ```no_run
//! use casted_util::bench::median_mad;
//!
//! let mut rates = vec![710.0, 702.5, 731.9, 698.0, 715.2];
//! let (median, mad) = median_mad(&mut rates);
//! println!("median {median:.1}/s  mad {mad:.1}");
//! ```

/// Median and median-absolute-deviation of a sample set (sorts `xs`
/// in place).
pub fn median_mad(xs: &mut [f64]) -> (f64, f64) {
    let med = median(xs);
    let mut devs: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    (med, median(&mut devs))
}

fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust() {
        let mut xs = vec![10.0, 11.0, 9.0, 10.0, 1000.0];
        let (med, mad) = median_mad(&mut xs);
        assert_eq!(med, 10.0);
        assert_eq!(mad, 1.0);
    }
}
