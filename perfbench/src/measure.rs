//! Latency summaries, byte counters, process memory and output files.
//! Host files are reached through the repository's `RealVfs` seam.

use std::path::Path;
use std::time::Duration;

use iva_file::vfs::{write_vec, RealVfs, Vfs};
use iva_file::IoStats;

/// Nearest-rank percentile of `samples` (`0 < p <= 1`), in the samples'
/// unit. Returns 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The 5th, 10th, ..., 95th percentiles, rounded to 0.1, for context.
pub fn vigintiles(samples: &[f64]) -> String {
    let v: Vec<f64> = (1..20)
        .map(|i| (percentile(samples, i as f64 / 20.0) * 10.0).round() / 10.0)
        .collect();
    format!("{v:?}")
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bytes written through `io` so far.
pub fn bytes_written(io: &IoStats) -> u64 {
    io.snapshot().bytes_written
}

/// Write `bytes` to `path`, creating its directory.
pub fn write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        RealVfs.create_dir_all(dir)?;
    }
    write_vec(&RealVfs, path, bytes)
}

/// Read a `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let file = RealVfs.open(Path::new("/proc/self/status")).ok()?;
    let mut buf = vec![0u8; 64 * 1024];
    let n = file.read_at(&mut buf, 0).ok()?;
    let status = std::str::from_utf8(buf.get(..n)?).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident memory since [`RssMark::reset`], net of the memory
/// resident at the reset (the generated inputs).
#[derive(Debug, Clone, Copy)]
pub struct RssMark {
    base: u64,
}

impl RssMark {
    /// Reset the kernel's high-water mark and remember current residency.
    /// Without `/proc/self/clear_refs` the mark keeps whatever peak input
    /// generation reached, which only overstates the figure.
    pub fn reset() -> Self {
        if let Ok(f) = RealVfs.open(Path::new("/proc/self/clear_refs")) {
            let _ = f.write_at(b"5", 0);
        }
        Self {
            base: status_bytes("VmRSS:").unwrap_or(0),
        }
    }

    /// Peak growth over the reset point, in MiB.
    pub fn peak_mb(&self) -> f64 {
        let hwm = status_bytes("VmHWM:").unwrap_or(0);
        hwm.saturating_sub(self.base) as f64 / (1024.0 * 1024.0)
    }
}
