//! Host fingerprint, stated cost model, and peak memory.
//!
//! Wall-clock metrics describe this host running the real code; compare
//! them only between records with the same fingerprint. Simulated-time
//! metrics describe the protocol under the cost model below.

use mams_core::{CpuModel, MdsTiming};
use mams_sim::{Duration, LatencyModel};
use mams_storage::DiskModel;

pub fn fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("cpus={cpus}; cpu_model={model}; rustc={}", env!("PERFBENCH_RUSTC"))
}

fn us(d: Duration) -> u64 {
    d.micros()
}

pub fn cost_model() -> String {
    let lan = LatencyModel::lan();
    let cpu = CpuModel::default();
    let per_standby = MdsTiming::default().sync_cpu_per_standby;
    let (journal, image) = (DiskModel::journal_disk(), DiskModel::image_disk());
    format!(
        "latency=LatencyModel::lan {}us+U[0,{}]us one way; \
         cpu=CpuModel::default read {}us, mutation {}us, +{}us per standby; \
         pool disks=journal {}us+{}B/s, image {}us+{}B/s",
        us(lan.base),
        us(lan.jitter),
        us(cpu.read),
        us(cpu.mutation),
        us(per_standby),
        us(journal.op_overhead),
        journal.bytes_per_sec,
        us(image.op_overhead),
        image.bytes_per_sec,
    )
}

/// `VmHWM` of this process in MB (0 when the kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
