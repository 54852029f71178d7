//! What the benchmark knows about the machine it ran on: the fingerprint
//! every output carries, peak resident memory, and a measured memory
//! bandwidth to read the kernels' computed rates against.

use std::time::Instant;

use crate::json::Value;
use crate::stats::median;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Size in bytes of the highest-level cache of cpu0, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let Some(bytes) = parse_cache_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

fn parse_cache_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint. `run.sh` passes what only the build knows
/// (`rustc -V`, the rustflags, the git SHA) through the environment.
pub fn fingerprint(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("nproc".into(), Value::Num(nproc as f64)),
        (
            "llc_bytes".into(),
            llc_bytes().map_or(Value::Null, |b| Value::Num(b as f64)),
        ),
        (
            "rustc".into(),
            Value::Str(env_or_unknown("SWCAM_BENCH_RUSTC")),
        ),
        (
            "rustflags".into(),
            Value::Str(env_or_unknown("SWCAM_BENCH_RUSTFLAGS")),
        ),
        (
            "git_sha".into(),
            Value::Str(env_or_unknown("SWCAM_BENCH_GIT_SHA")),
        ),
        ("seed".into(), Value::Num(seed as f64)),
    ])
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = read("/proc/self/status").expect("/proc/self/status is readable on Linux");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// STREAM triad result.
pub struct Triad {
    pub gbps: f64,
    pub array_bytes: u64,
    pub llc_bytes: u64,
}

impl Triad {
    /// The line every traced run prints: the rate and both sizes.
    pub fn note(&self) -> String {
        format!(
            "  triad: {:.2} GB/s on 3 arrays of {} MiB (LLC {} MiB)",
            self.gbps,
            self.array_bytes >> 20,
            self.llc_bytes >> 20
        )
    }
}

/// The three triad arrays together stay under this, whatever the LLC is.
const TRIAD_TOTAL_CAP: u64 = 512 << 20;
/// Assumed when sysfs does not say (a container without cache topology).
const LLC_FALLBACK: u64 = 32 << 20;

/// Single-threaded STREAM triad `a = b + s c` over arrays of four times the
/// last-level cache each, capped so the three together fit in 512 MiB. The
/// rate counts 24 bytes per element (two reads, one write) and is the
/// median of `passes` sweeps.
pub fn triad(passes: usize) -> Triad {
    let llc = llc_bytes().unwrap_or(LLC_FALLBACK);
    let array_bytes = (4 * llc).min(TRIAD_TOTAL_CAP / 3) & !7;
    let n = (array_bytes / 8) as usize;
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];
    let s = std::hint::black_box(3.0);
    let mut rates = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        std::hint::black_box(&mut a);
        rates.push(24.0 * n as f64 / t0.elapsed().as_secs_f64() * 1e-9);
    }
    assert_eq!(
        a[n / 2],
        1.5 + 3.0 * 0.25,
        "triad computed the wrong values"
    );
    Triad {
        gbps: median(&rates),
        array_bytes,
        llc_bytes: llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_and_without_suffix() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("4096"), Some(4096));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("xK"), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 1.0);
    }
}
