//! Order statistics for rep timings. Rep counts are small (n < 20), so the
//! benchmark reports median, min, max and the inter-quartile range and
//! claims no tail percentile for them.

/// Median / min / max / IQR / n of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub iqr: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Q3 − Q1 with the quartiles Python's `statistics.quantiles(v, n=4)`
/// returns (exclusive method), so the spread printed here is the spread the
/// acceptance check computes.
pub fn iqr(values: &[f64]) -> f64 {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    quartile(3) - quartile(1)
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        median: median(&v),
        min: v.first().copied().unwrap_or(0.0),
        max: v.last().copied().unwrap_or(0.0),
        iqr: iqr(&v),
        n: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5).abs() < 1e-12);
        assert_eq!(iqr(&[7.0]), 0.0);
    }
}
