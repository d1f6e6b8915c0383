//! Small numeric and `/proc` helpers: percentiles, medians, `VmHWM`
//! parsing and a stable string hash.

/// The `p`-th percentile (`0.0..=100.0`) of `values` by the
/// nearest-rank method: the smallest value with at least `p` percent of
/// the samples at or below it. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values`: the mean of the two middle values for an even
/// count. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Reads a `kB` field such as `VmHWM` or `VmRSS` out of the text of
/// `/proc/<pid>/status` and returns it in MiB.
pub fn status_field_mib(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let kib: u64 = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kib as f64 / 1024.0)
    })
}

/// This process's `field` from `/proc/self/status`, in MiB.
pub fn self_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field_mib(&status, field)
}

/// 64-bit FNV-1a of `bytes`: a hash that is the same on every platform
/// and toolchain, for recording expected outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}
