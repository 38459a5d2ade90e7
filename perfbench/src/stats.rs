//! Order statistics over timing samples.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a reported tail must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A percentile of a sample set, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the set holds.
    pub samples: usize,
    /// Sets the value is the median over (1 for a single set).
    pub groups: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Index of the nearest-rank `pct` percentile in a sorted set of `n`.
fn rank(pct: f64, n: usize) -> usize {
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile; 0 for an empty set.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    v[rank(pct, v.len())]
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The median of the groups' medians (empty groups skipped). Host stalls
/// that cover fewer than half the groups leave it in place, where they
/// would shift the median of the pooled samples.
pub fn median_of_medians(groups: &[Vec<f64>]) -> f64 {
    median(&groups.iter().filter(|g| !g.is_empty()).map(|g| median(g)).collect::<Vec<_>>())
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it (the median when the set is too small for any).
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && n - 1 - rank(p, n) >= TAIL_BEYOND)
        .unwrap_or(50.0);
    Tail { pct, value: percentile(samples, pct), samples: n, groups: 1 }
}

/// The tail of a run made of repeated, equal-sized groups of samples. When
/// every group is big enough for a p75 or higher of its own, the value is
/// the median of the per-group tails, so one burst of host stalls moves one
/// group rather than the run's tail. Otherwise it is the tail of all the
/// samples pooled.
pub fn grouped_tail(groups: &[Vec<f64>]) -> Tail {
    let own: Vec<Tail> = groups.iter().map(|g| tail(g)).collect();
    let same_pct = own.windows(2).all(|w| w[0].pct == w[1].pct);
    match own.first() {
        Some(first) if first.pct >= 75.0 && same_pct => Tail {
            pct: first.pct,
            value: median(&own.iter().map(|t| t.value).collect::<Vec<_>>()),
            samples: first.samples,
            groups: own.len(),
        },
        _ => tail(&groups.concat()),
    }
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.samples), (90.0, 90.0, 100));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 99.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).pct, 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn median_of_medians_ignores_a_minority_of_slow_groups() {
        let group = |shift: f64| (1..=9).map(|x| f64::from(x) + shift).collect::<Vec<_>>();
        let groups = [group(0.0), group(100.0), group(1.0), Vec::new(), group(2.0)];
        assert_eq!(median_of_medians(&groups), 6.0);
        assert_eq!(median_of_medians(&[]), 0.0);
    }

    #[test]
    fn grouped_tail_takes_the_median_of_big_groups_only() {
        let group = |shift: f64| (1..=200).map(|x| f64::from(x) + shift).collect::<Vec<_>>();
        let t = grouped_tail(&[group(0.0), group(1000.0), group(2.0)]);
        assert_eq!((t.pct, t.value, t.samples, t.groups), (95.0, 192.0, 200, 3));
        let t = grouped_tail(&[group(0.0)[..40].to_vec(), group(5.0)[..40].to_vec()]);
        assert_eq!((t.pct, t.value, t.samples, t.groups), (75.0, 30.0, 40, 2));
        let small = |shift: f64| (1..=20).map(|x| f64::from(x) + shift).collect::<Vec<_>>();
        let t = grouped_tail(&[small(0.0), small(20.0), small(40.0), small(60.0), small(80.0)]);
        assert_eq!((t.pct, t.samples, t.groups), (90.0, 100, 1));
    }
}
