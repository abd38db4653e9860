//! Small statistics helpers: medians, percentiles, log-log slopes, and
//! the seeded permutation that orders a pass.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in `[0, 1]`. `NaN` for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `k` of a
/// cost that grows like `x^k`. Points with a non-positive coordinate
/// are skipped; fewer than two usable points give `NaN`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return f64::NAN;
    }
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        f64::NAN
    } else {
        sxy / sxx
    }
}

/// splitmix64: a tiny, well-mixed generator for seeded orderings.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E4B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A permutation of `0..n` drawn from `seed` (Fisher-Yates). `salt`
/// separates independent orderings drawn from the same seed.
pub fn permutation(n: usize, seed: u64, salt: u64) -> Vec<usize> {
    let mut state = seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn slope_recovers_the_exponent() {
        let quad: Vec<(f64, f64)> = [256.0, 512.0, 1024.0]
            .iter()
            .map(|&x| (x, 3.0e-7 * x * x))
            .collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
        let flat = [(256.0, 1.0), (1024.0, 1.0)];
        assert_eq!(loglog_slope(&flat), 0.0);
        assert!(loglog_slope(&[(1.0, 1.0)]).is_nan());
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(18, 7, 0);
        assert_eq!(a, permutation(18, 7, 0));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        assert!((0..32).any(|s| permutation(18, s, 0) != a));
    }
}
