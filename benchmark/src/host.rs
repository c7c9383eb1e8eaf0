//! The host fingerprint stamped into every result, and process memory.
//!
//! Numbers taken on different hosts are not comparable, so every run
//! prints what it ran on: core count, the executor width, the resolved
//! SIMD tier, the DGEMM tile plan, the cache sizes the kernel reports
//! and the CPU model.

use serde::Value;

use hpceval_kernels::simd;
use hpceval_kernels::tile::TilePlan;

/// The fingerprint as a JSON object.
pub fn fingerprint() -> Value {
    let plan = TilePlan::active();
    let caches = cache_sizes()
        .into_iter()
        .map(|(level, size)| (level, Value::Str(size)))
        .collect();
    Value::Map(vec![
        (
            "available_parallelism".to_string(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("threads".to_string(), Value::UInt(rayon::current_num_threads() as u64)),
        ("simd".to_string(), Value::Str(simd::mode().label().to_string())),
        ("tile".to_string(), Value::Str(format!("{}x{}x{}", plan.mc, plan.kc, plan.nc))),
        ("caches".to_string(), Value::Map(caches)),
        ("cpu".to_string(), Value::Str(cpu_model())),
    ])
}

/// Data and unified cache sizes of cpu0 as sysfs reports them, keyed
/// `L1d`, `L2`, `L3`.
fn cache_sizes() -> Vec<(String, String)> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &std::path::Path, file: &str| {
        std::fs::read_to_string(dir.join(file)).map(|s| s.trim().to_string()).ok()
    };
    let mut out = Vec::new();
    for index in 0.. {
        let dir = base.join(format!("index{index}"));
        let (Some(level), Some(kind), Some(size)) =
            (read(&dir, "level"), read(&dir, "type"), read(&dir, "size"))
        else {
            break;
        };
        match kind.as_str() {
            "Data" => out.push((format!("L{level}d"), size)),
            "Unified" => out.push((format!("L{level}"), size)),
            _ => {}
        }
    }
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process, in kB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_every_field() {
        let v = fingerprint();
        for key in ["available_parallelism", "threads", "simd", "tile", "caches", "cpu"] {
            assert!(v.get(key).is_some(), "fingerprint lacks {key}");
        }
        assert!(v.get("available_parallelism").and_then(Value::as_u64).unwrap() >= 1);
    }

    #[test]
    fn peak_rss_reads_proc() {
        let held = std::hint::black_box(vec![1u8; 8 << 20]);
        let peak = peak_rss_kb().unwrap();
        assert!(peak >= 8 << 10, "VmHWM {peak} kB while holding 8 MiB");
        drop(std::hint::black_box(held));
    }
}
