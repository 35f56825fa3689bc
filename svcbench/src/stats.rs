//! Order statistics for latency samples: nearest-rank percentiles, the
//! tail percentile rule and per-class latency bands.

/// The tail percentile is the highest one with at least this many samples
/// strictly beyond it ...
pub const MIN_BEYOND: usize = 10;

/// ... but never above this one.  Higher up, a run of 100 µs cache hits
/// (hundreds of thousands of samples) reaches the host's scheduler
/// preemptions, and a run of drift recompiles reaches the one request in a
/// hundred that follows a recalibration restart, too few per run to be
/// steady.
pub const MAX_TAIL_PERCENTILE: f64 = 95.0;

/// Nearest-rank percentile of an ascending, non-empty slice: the smallest
/// sample with at least `p` percent of all samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// An ascending copy of `values` (which must hold no NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    v
}

/// The tail of a latency sample: the highest nearest-rank percentile, at
/// most [`MAX_TAIL_PERCENTILE`], that still has [`MIN_BEYOND`] samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// The percentile itself (100 · rank / samples).
    pub percentile: f64,
    /// Samples ranked beyond it (fewer than [`MIN_BEYOND`] only when the
    /// whole sample is that small, in which case the tail is the maximum).
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Applies the tail rule to an ascending, non-empty slice.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    // Nearest rank of the capped percentile, and the rank that leaves
    // MIN_BEYOND samples above it; the tail is the lower of the two.
    let capped = ((MAX_TAIL_PERCENTILE / 100.0) * n as f64).ceil() as usize;
    let index = if n > MIN_BEYOND {
        (n - 1 - MIN_BEYOND).min(capped.max(1) - 1)
    } else {
        n - 1
    };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: n - 1 - index,
        samples: n,
    }
}

/// Minimum, median and maximum of one class's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Sample count.
    pub samples: usize,
    /// Smallest sample.
    pub min: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Largest sample.
    pub max: f64,
}

impl Band {
    /// The band of a non-empty sample.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Band {
            samples: s.len(),
            min: s[0],
            p50: percentile(&s, 50.0),
            max: s[s.len() - 1],
        }
    }

    /// Whether `value` lies inside `[min, max]`.
    pub fn contains(&self, value: f64) -> bool {
        self.min <= value && value <= self.max
    }
}

/// Splits `values` by their class index (`classes[i]` is the class of
/// `values[i]`, below `num_classes`) and returns each class's band, `None`
/// for classes without samples.
pub fn bands(classes: &[usize], values: &[f64], num_classes: usize) -> Vec<Option<Band>> {
    assert_eq!(classes.len(), values.len(), "one class per sample");
    let mut split = vec![Vec::new(); num_classes];
    for (&c, &v) in classes.iter().zip(values) {
        split[c].push(v);
    }
    split
        .iter()
        .map(|v| (!v.is_empty()).then(|| Band::of(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);

        let s: Vec<f64> = (1..=150).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.value, t.beyond), (140.0, 10));
    }

    #[test]
    fn tail_stops_at_p95_on_large_samples() {
        let s: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.value, t.beyond), (95_000.0, 5000));
        assert!((t.percentile - 95.0).abs() < 1e-12);
        let s: Vec<f64> = (1..=1500).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.value, t.beyond), (1425.0, 75));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[1.0, 2.0, 3.0]);
        assert_eq!((t.value, t.beyond, t.samples), (3.0, 0, 3));
        assert_eq!(t.percentile, 100.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven);
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn bands_split_by_class() {
        let classes = [0, 1, 0, 1, 0, 2];
        let values = [5.0, 50.0, 1.0, 70.0, 3.0, 9.0];
        let b = bands(&classes, &values, 4);
        assert_eq!(
            b[0],
            Some(Band {
                samples: 3,
                min: 1.0,
                p50: 3.0,
                max: 5.0
            })
        );
        assert_eq!(b[1].map(|b| (b.min, b.max)), Some((50.0, 70.0)));
        assert_eq!(b[2].map(|b| b.samples), Some(1));
        assert_eq!(b[3], None);
        assert!(b[1].unwrap().contains(60.0));
        assert!(!b[1].unwrap().contains(49.0));
    }
}
