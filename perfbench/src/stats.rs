//! Summary statistics, process memory, host metadata and the memcpy
//! roofline.

use std::time::Instant;

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), linearly interpolated
/// between order statistics; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Memory-copy bandwidth in bytes per second: the best of several
/// copies of a buffer larger than the last-level cache.
pub fn memcpy_bytes_per_s() -> f64 {
    const WORDS: usize = 1 << 22; // 32 MiB per buffer
    let src: Vec<u64> = (0..WORDS as u64).collect();
    let mut dst = vec![0u64; WORDS];
    dst.copy_from_slice(&src); // fault the pages in before timing
    let mut best = f64::MAX;
    for _ in 0..8 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (WORDS * std::mem::size_of::<u64>()) as f64 / best
}

/// Records per second the memcpy roofline allows for a route that
/// makes `passes` passes over the data, each moving every record twice
/// (once into memory, once back to disk).
pub fn roofline_records_per_s(memcpy_bytes_per_s: f64, passes: f64) -> f64 {
    memcpy_bytes_per_s / std::mem::size_of::<u64>() as f64 / (2.0 * passes)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The trimmed standard output of `program args`, or `"unknown"` when
/// it cannot run or fails. `output` waits for the child to exit.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    command_output("rustc", &["-V"])
}

/// The commit being measured: `git rev-parse HEAD` when the working
/// directory is a git checkout, else `"unknown"`.
pub fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    command_output("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}
