//! Order statistics and process accounting: everything numeric the benchmark
//! reports goes through here, so the selection rules are tested once.

/// Median of `values` (mean of the two middle elements for even counts).
/// Panics on an empty slice: every caller reports at least one repeat.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 99th percentile as a band estimate: the mean of the order statistics
/// ranked between the 98.5th and the 99.5th percentile.
///
/// Latency under a group-commit pipeline is quantised in whole commit batches
/// (2.4 ms steps on `hot_update_sync`), and the share of transactions beyond
/// the fourth step sits close to 1 %: a single order statistic then flips
/// between two steps from run to run (7.4 ms or 9.8 ms).  Averaging a band
/// around the rank turns that flip into a value that moves with the tail's
/// mass, and is still bounded by order statistics, so one stalled transaction
/// cannot move it.
pub fn p99_band(sorted: &[u64]) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len() as f64;
    let lo = ((0.985 * n) as usize).min(sorted.len() - 1);
    let hi = ((0.995 * n).ceil() as usize).clamp(lo + 1, sorted.len());
    let band = &sorted[lo..hi];
    band.iter().sum::<u64>() as f64 / band.len() as f64
}

/// How far apart the repeats in the middle of a set lie, as a share of the
/// set's median: the two whose mean is the median for an even count, half the
/// distance between the median's two neighbours for an odd one; 0 for a
/// single repeat.
///
/// This is the doubt about the value the report prints, a median of repeats,
/// measured on the repeats that make it.  Two cold or stalled repeats out of
/// six leave the middle pair alone, as they leave the median; a set split
/// between two modes has the pair straddle them, and its median would
/// average the modes away.
pub fn median_gap(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let gap = if sorted.len() % 2 == 1 {
        (sorted[mid + 1] - sorted[mid - 1]) / 2.0
    } else {
        sorted[mid] - sorted[mid - 1]
    };
    let median = median(values);
    if median == 0.0 {
        0.0
    } else {
        gap / median.abs()
    }
}

/// User + system CPU ticks of this process from the text of
/// `/proc/self/stat`.  The command name (field 2) may contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_proc_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Resident set size in KiB from the text of `/proc/self/statm` (second
/// field, in pages).
pub fn parse_statm_rss_kb(statm: &str) -> Option<u64> {
    let pages: u64 = statm.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(pages * PAGE_KB)
}

/// Linux reports `/proc/self/stat` times in `USER_HZ` ticks, which is 100 on
/// every supported architecture, and x86-64/aarch64 sandboxes use 4 KiB pages.
const TICK_US: f64 = 10_000.0;
const PAGE_KB: u64 = 4;

/// CPU microseconds this process has consumed so far (0 where `/proc` is
/// missing, which makes `cpu_us_per_txn` read 0 instead of failing the run).
pub fn process_cpu_us() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_proc_stat_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * TICK_US)
}

/// Resident set size of this process in KiB (0 where `/proc` is missing).
pub fn process_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| parse_statm_rss_kb(&s))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_or_averages_the_two_middles() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // An outlier repeat does not move the reported value.
        assert_eq!(median(&[10.0, 11.0, 10.5, 99.0, 10.2]), 10.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        // 2 000 samples leave 20 beyond the 99th percentile.
        let many: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile_sorted(&many, 0.99), 1980);
    }

    #[test]
    fn p99_band_blends_steps_and_ignores_the_extreme_tail() {
        // 2 000 samples: the band is ranks 1971..=1990.
        let ramp: Vec<u64> = (1..=2000).collect();
        assert_eq!(p99_band(&ramp), 1980.5);
        // Two latency steps with the upper one holding the top 1.2 %: a plain
        // p99 reads 400; the band reads 70 % of the way from 300 to 400.
        let mut steps = vec![300u64; 1976];
        steps.extend([400; 23]);
        steps.push(1_000_000); // one stalled transaction
        assert_eq!(percentile_sorted(&steps, 0.99), 400);
        assert_eq!(p99_band(&steps), 370.0);
        assert_eq!(p99_band(&[7]), 7.0);
        assert_eq!(p99_band(&[1, 2, 3]), 3.0);
    }

    #[test]
    fn median_gap_shrugs_off_two_outliers_and_sees_two_modes() {
        assert_eq!(median_gap(&[3.0]), 0.0);
        assert_eq!(median_gap(&[1.0, 3.0]), 1.0);
        assert_eq!(median_gap(&[1.0, 2.0, 4.0]), 0.75);
        // A cold first repeat and a stalled one: the middle pair is 100, 100.5.
        let two_off = [170.0, 101.0, 99.0, 100.5, 100.0, 140.0];
        assert!(median_gap(&two_off) < 0.01, "{}", median_gap(&two_off));
        // Three repeats in each mode, in any order: the pair straddles them.
        let two_modes = [100.0, 100.0, 76.0, 100.0, 76.0, 76.0];
        assert!(median_gap(&two_modes) > 0.25, "{}", median_gap(&two_modes));
    }

    #[test]
    fn proc_stat_parser_survives_hostile_command_names() {
        let plain = "4242 (txsql-benchmark) S 1 4242 4242 0 -1 4194304 913 0 0 0 \
                     137 21 0 0 20 0 3 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_proc_stat_ticks(plain), Some(158));
        let hostile = "7 (a b) c) R 1 7 7 0 -1 0 0 0 0 0 9 4 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_proc_stat_ticks(hostile), Some(13));
        assert_eq!(parse_proc_stat_ticks("garbage"), None);
        assert_eq!(parse_proc_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn statm_parser_reads_resident_pages() {
        assert_eq!(parse_statm_rss_kb("5000 1200 300 10 0 800 0"), Some(4800));
        assert_eq!(parse_statm_rss_kb("5000"), None);
    }
}
