//! Order statistics with the benchmark's percentile rule.

/// Percentiles the rule may report, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile as reported: its value, which percentile it is, and the
/// number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// The percentile actually reported.
    pub pct: f64,
    /// Samples in the distribution.
    pub n: usize,
    /// Consecutive blocks the samples were cut into, the value being the
    /// median of the blocks' percentiles, or chunks pooled (1 for a plain
    /// percentile).
    pub blocks: usize,
}

/// Nearest-rank index (0-based) of percentile `pct` among `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Percentile `want`, or, when fewer than ten samples lie beyond it, the
/// highest percentile of the ladder (99.9, 99, 95, 90, 75, 50) that has
/// at least ten beyond it. Below twenty samples no percentile qualifies
/// and the median is reported. `None` for no samples.
pub fn percentile(samples: &[f64], want: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let pct = LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| n - 1 - rank(p, n) >= 10)
        .unwrap_or(50.0);
    Some(Pct {
        value: sorted[rank(pct, n)],
        pct,
        n,
        blocks: 1,
    })
}

/// Percentile `want` of samples in time order, robust to a stall in part
/// of a run: the samples are cut into as many consecutive equal blocks
/// (at most `max_blocks`) as keep ten samples beyond `want` in each, and
/// the median of the blocks' [`percentile`]s is reported.
pub fn block_percentile(samples: &[f64], want: f64, max_blocks: usize) -> Option<Pct> {
    let n = samples.len();
    let beyond = (1.0 - want / 100.0) * n as f64;
    let blocks = ((beyond / 10.0) as usize).clamp(1, max_blocks.max(1));
    let per: Vec<Pct> = (0..blocks)
        .filter_map(|b| percentile(&samples[b * n / blocks..(b + 1) * n / blocks], want))
        .collect();
    let values: Vec<f64> = per.iter().map(|p| p.value).collect();
    Some(Pct {
        value: median(&values),
        pct: per.iter().map(|p| p.pct).reduce(f64::min)?,
        n,
        blocks,
    })
}

/// Each position's smallest value over passes of one schedule. Every pass
/// sends the same requests in the same order, so a stall of the host that
/// lifted a send in one pass is left out unless it lifted that send in
/// every pass. Positions past the shortest pass are dropped.
pub fn fastest_of_passes<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut passes = passes.into_iter();
    let first = passes.next().unwrap_or_default().to_vec();
    passes.fold(first, |fastest, pass| {
        fastest.iter().zip(pass).map(|(a, b)| a.min(*b)).collect()
    })
}

/// Percentile `pct` of `samples` by nearest rank, however few samples lie
/// beyond it; `None` for no samples.
pub fn quantile(samples: &[f64], pct: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(pct, sorted.len())])
}

/// The smallest sample; 0 when empty. It is taken as the time of a piece
/// of work repeated over a run, such as a set-up: every repetition does the
/// same work, and other tenants of a shared host only ever slow one down.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
