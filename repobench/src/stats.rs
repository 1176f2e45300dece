//! Order statistics and the metric-table rules the report must obey.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// Most end-to-end metrics one report may carry.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics one report may carry.
pub const MAX_PER_LAYER: usize = 128;
/// Longest metric name.
pub const MAX_NAME_LEN: usize = 64;

/// The median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, `100 · (n − beyond) / n`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The tail of `samples`: the value at nearest rank `n − 10`, which is the
/// highest rank with ten samples beyond it. `None` with fewer than eleven
/// samples, where no such percentile exists.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based nearest rank
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        beyond: TAIL_BEYOND,
        samples: n,
    })
}

/// Answers per block of [`quiet`].
pub const BLOCK: usize = 50;

/// Latency statistics over the quieter half of a run.
///
/// The run is cut into blocks of about [`BLOCK`] consecutive answers, and
/// the half of the blocks with the lowest median latency is kept. On a
/// shared host of two vCPUs, other tenants slow the program for seconds at
/// a time; the quieter half is what the program does when it has the
/// machine, as the fastest of several timings is. A slowdown of the
/// program itself moves every block and so still moves both figures.
///
/// Within a kept block, the tail sits at rank `n − 10`, about p80. A slow
/// mode that holds more than ten of a block's answers moves it; rarer
/// stalls, such as the retransmit timeouts of `exact_tcp_n32`, move the
/// block's tail by a rank or two and show in the whole-run [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    /// Median of the answers in the kept blocks.
    pub p50: f64,
    /// Median of the kept blocks' [`tail`]s.
    pub tail: f64,
    /// Mean percentile of the kept blocks' tails.
    pub percentile: f64,
    /// Blocks kept.
    pub kept: usize,
    /// Blocks in the run.
    pub blocks: usize,
    /// Samples in the kept blocks.
    pub samples: usize,
}

/// The [`Quiet`] statistics of `samples` in arrival order; `None` with
/// fewer than eleven samples. Runs with fewer than `2 · BLOCK` samples
/// form one block, which is kept: then `p50` is the median and `tail` the
/// [`tail`] of the whole run.
pub fn quiet(samples: &[f64]) -> Option<Quiet> {
    let n = samples.len();
    let blocks = (n / BLOCK).max(1);
    let mut cut: Vec<&[f64]> = (0..blocks)
        .map(|b| &samples[b * n / blocks..(b + 1) * n / blocks])
        .collect();
    cut.sort_by(|a, b| median(a).total_cmp(&median(b)));
    cut.truncate(blocks.div_ceil(2));
    let tails: Vec<Tail> = cut.iter().map(|b| tail(b)).collect::<Option<_>>()?;
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Quiet {
        p50: median(&cut.concat()),
        tail: median(&values),
        percentile: tails.iter().map(|t| t.percentile).sum::<f64>() / cut.len() as f64,
        kept: cut.len(),
        blocks,
        samples: cut.iter().map(|b| b.len()).sum(),
    })
}

/// The median of the higher half of `values` (the faster half of a run's
/// cycles, for a rate), on the grounds given at [`Quiet`].
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_of_higher_half(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(|a, b| b.total_cmp(a));
    s.truncate(s.len().div_ceil(2));
    median(&s)
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= MAX_NAME_LEN
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks a metric table: legal, distinct names and at most `limit` rows.
pub fn check_table(names: &[&str], limit: usize) -> Result<(), String> {
    if names.is_empty() || names.len() > limit {
        return Err(format!("{} metrics, allowed 1..={limit}", names.len()));
    }
    for (i, name) in names.iter().enumerate() {
        if !valid_name(name) {
            return Err(format!("illegal metric name `{name}`"));
        }
        if names[..i].contains(name) {
            return Err(format!("metric `{name}` listed twice"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_and_reports_the_count() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples have no tail");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples have a tail");
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));

        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).expect("tail exists");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let beyond = hundred.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        assert_eq!(t.samples, 100);

        let t = tail(&(1..=1000).map(f64::from).collect::<Vec<_>>()).expect("tail exists");
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
    }

    #[test]
    fn quiet_keeps_the_half_of_the_blocks_with_the_lowest_medians() {
        assert_eq!(quiet(&[1.0; 10]), None);
        // Under two blocks' worth, one block: the plain median and tail.
        let few: Vec<f64> = (1..=75).map(f64::from).collect();
        let q = quiet(&few).expect("tail exists");
        let t = tail(&few).expect("tail exists");
        assert_eq!(
            (q.p50, q.tail, q.percentile, q.kept, q.blocks),
            (median(&few), t.value, t.percentile, 1, 1)
        );

        // Four blocks of 50: two quiet ones (0..50), a loaded one (every
        // answer +100) and one with 15 stalls of 450. The loaded block
        // and the stalled block (median 37.5 > 24.5) are dropped.
        let base: Vec<f64> = (0..50).map(f64::from).collect();
        let mut s = [base.clone(), base.clone(), base.clone(), base.clone()].concat();
        for v in &mut s[50..100] {
            *v += 100.0;
        }
        for v in s[150..200].iter_mut().step_by(3).take(15) {
            *v = 450.0;
        }
        let run = tail(&s).expect("tail exists");
        assert_eq!(run.value, 450.0, "the whole-run tail sits in the stalls");
        let q = quiet(&s).expect("tail exists");
        assert_eq!((q.kept, q.blocks, q.samples), (2, 4, 100));
        assert_eq!((q.p50, q.tail, q.percentile), (24.5, 39.0, 80.0));

        // An odd block count keeps the larger half.
        let q = quiet(&s[..150]).expect("tail exists");
        assert_eq!((q.kept, q.blocks), (2, 3));
    }

    #[test]
    fn median_of_higher_half_drops_the_slower_half() {
        assert_eq!(median_of_higher_half(&[7.0]), 7.0);
        assert_eq!(median_of_higher_half(&[1.0, 4.0, 2.0, 3.0]), 3.5);
        assert_eq!(median_of_higher_half(&[5.0, 1.0, 4.0, 2.0, 3.0]), 4.0);
    }

    #[test]
    fn names_follow_the_metric_alphabet() {
        for ok in [
            "setup_s",
            "sim.bytes.delta",
            "a-b",
            "9lives",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok} should pass");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad} should fail");
        }
    }

    #[test]
    fn tables_respect_limits_and_uniqueness() {
        let names: Vec<String> = (0..129).map(|i| format!("m{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        assert!(check_table(&refs[..16], MAX_END_TO_END).is_ok());
        assert!(check_table(&refs[..17], MAX_END_TO_END).is_err());
        assert!(check_table(&refs[..128], MAX_PER_LAYER).is_ok());
        assert!(check_table(&refs, MAX_PER_LAYER).is_err());
        assert!(check_table(&[], MAX_END_TO_END).is_err());
        assert!(check_table(&["a", "a"], MAX_END_TO_END).is_err());
        assert!(check_table(&["a b"], MAX_END_TO_END).is_err());
    }
}
