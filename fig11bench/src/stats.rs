//! Summary statistics over timing samples.

/// Sorts a copy of `samples` ascending (NaN-free input assumed).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method).
/// `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The nearest-rank percentile `per_mille`/1000: the smallest sample with
/// at least that share of the samples at or below it; 0 for no samples.
pub fn nearest_rank(samples: &[f64], per_mille: usize) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n => v[(per_mille * n).div_ceil(1000).clamp(1, n) - 1],
    }
}

/// The percentiles a tail is reported at, in per mille, highest last
/// (integer so ranks are exact).
const TAIL_LADDER: [usize; 4] = [900, 950, 990, 999];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// strictly beyond it, as `(percentile, value)` by the nearest-rank rule;
/// `None` when even p90 has fewer than ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    // Everything ranked above the nearest-rank sample lies beyond it.
    let beyond = |pm: usize| n - (pm * n).div_ceil(1000);
    let pm = TAIL_LADDER.into_iter().rev().find(|&pm| n > 0 && beyond(pm) >= 10)?;
    Some((pm as f64 / 10.0, nearest_rank(samples, pm)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0, 5.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 500), 5.0);
        assert_eq!(nearest_rank(&ten, 990), 10.0);
        assert_eq!(nearest_rank(&ten, 0), 1.0);
        assert_eq!(nearest_rank(&[], 500), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let n99: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&n99), None, "p90 of 99 leaves only 9 beyond");
        let n100: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&n100), Some((90.0, 90.0)));
        let n200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&n200), Some((95.0, 190.0)));
        let n1000: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&n1000), Some((99.0, 990.0)));
        let n10k: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&n10k), Some((99.9, 9990.0)));
    }
}
