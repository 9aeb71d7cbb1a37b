//! Commit-latency benchmark of the simulated cluster: client-observed
//! p50/p99/p999 under two offered loads — a single think-time client
//! (idle: every op rides an empty batch) and a closed-loop fleet (loaded:
//! batches fill and queueing dominates) — once with the fixed
//! `flush_interval` cadence and once with the adaptive group-commit
//! controller. The claim under test is that adaptive pacing improves loaded
//! p99 without regressing idle latency.
//!
//! Every figure is simulated time under `CpuModel::default()`, so it is
//! deterministic in the seed and the same on every host; no host
//! fingerprint is recorded. Wall-clock measurement of the real flush path
//! is `perfbench`'s job.
//!
//! Run from the repo root: `cargo run --release --bin bench_hotpath`
//! (writes the `latency` section of `BENCH_hotpath.json`) or
//! `-- --latency` (short smoke, no file write) or `-- --latency --guard
//! [pct]` (rerun the baseline's latency window and fail when loaded p99
//! regressed more than `pct` percent, default 5, vs the checked-in
//! `BENCH_hotpath.json`).

use mams_cluster::deploy::{self, DeploySpec};
use mams_cluster::{Metrics, Workload};
use mams_core::MdsTiming;
use mams_sim::{Duration, Sim, SimConfig};

const SEED: u64 = 0x4d41_4d53; // "MAMS"

/// The cost model every latency figure is measured under.
fn cost_model() -> String {
    let cpu = MdsTiming::default().cpu;
    format!(
        "simulated time, CpuModel::default() (read {}us, mutation {}us)",
        cpu.read.micros(),
        cpu.mutation.micros()
    )
}

/// One latency case: offered load + commit policy.
#[derive(Debug, Clone, Copy)]
struct LatencyCase {
    load: &'static str,
    clients: u32,
    think_ms: u64,
    adaptive: bool,
}

#[derive(Debug, Clone, Copy)]
struct LatencyResult {
    case: LatencyCase,
    ops: usize,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
}

/// The idle case: one client with think time, so every op arrives at an
/// empty batch and latency is pure commit-path overhead.
const IDLE_CLIENTS: u32 = 1;
const IDLE_THINK_MS: u64 = 5;
/// The loaded case: a closed-loop fleet with no think time hammering the
/// group, so batch fill and queueing dominate.
const LOAD_CLIENTS: u32 = 64;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one simulated-cluster latency case and return commit-latency
/// percentiles over the post-warmup window. Deterministic in the case.
fn run_latency_case(case: LatencyCase, run_secs: u64, warmup_secs: u64) -> LatencyResult {
    let mut sim = Sim::new(SimConfig { seed: SEED ^ 0x1a7e, ..SimConfig::default() });
    let timing = MdsTiming { adaptive_commit: case.adaptive, ..MdsTiming::default() };
    let spec = DeploySpec { groups: 1, standbys_per_group: 2, timing, ..DeploySpec::default() };
    let mut d = deploy::build(&mut sim, spec);
    let metrics = Metrics::new(true);
    for i in 0..case.clients {
        let think = Duration::from_millis(case.think_ms);
        d.add_client_with(&mut sim, Workload::mixed(i), metrics.clone(), move |mut c| {
            c.think = think;
            c
        });
    }
    sim.run_for(Duration::from_secs(run_secs));

    let mut lat: Vec<u64> = metrics
        .completions()
        .iter()
        .filter(|c| c.ok && c.issued_us >= warmup_secs * 1_000_000)
        .map(|c| c.latency_us())
        .collect();
    lat.sort_unstable();
    LatencyResult {
        case,
        ops: lat.len(),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        p999_us: percentile(&lat, 0.999),
    }
}

/// All four latency cases (idle/loaded x fixed/adaptive), in print order.
fn latency_cases() -> [LatencyCase; 4] {
    let mk = |load, clients, think_ms, adaptive| LatencyCase { load, clients, think_ms, adaptive };
    [
        mk("idle", IDLE_CLIENTS, IDLE_THINK_MS, false),
        mk("idle", IDLE_CLIENTS, IDLE_THINK_MS, true),
        mk("loaded", LOAD_CLIENTS, 0, false),
        mk("loaded", LOAD_CLIENTS, 0, true),
    ]
}

fn run_latency(run_secs: u64, warmup_secs: u64) -> Vec<LatencyResult> {
    latency_cases()
        .iter()
        .map(|&case| {
            let r = run_latency_case(case, run_secs, warmup_secs);
            println!(
                "latency[{}/{}]: {} ops p50 {}us p99 {}us p999 {}us",
                r.case.load,
                if r.case.adaptive { "adaptive" } else { "fixed" },
                r.ops,
                r.p50_us,
                r.p99_us,
                r.p999_us,
            );
            r
        })
        .collect()
}

/// Extract `"key": <digits>` from one baseline JSON line. The vendored
/// serde_json stand-in cannot parse, so the guard matches the latency case
/// lines of `BENCH_hotpath.json` by hand.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Hold the loaded-p99 results against the checked-in baseline. The latency
/// run is simulated — deterministic in the seed — so any drift beyond `pct`
/// percent is a real commit-path regression, not host noise.
fn guard_latency(results: &[LatencyResult], pct: f64) {
    let baseline = std::fs::read_to_string("BENCH_hotpath.json")
        .expect("BENCH_hotpath.json baseline at the repo root (run the full bench to create it)");
    println!("guard cost model: {}", cost_model());
    let mut failed = false;
    for r in results.iter().filter(|r| r.case.load == "loaded") {
        let policy = if r.case.adaptive { "adaptive" } else { "fixed" };
        let base_p99 = baseline
            .lines()
            .filter(|l| {
                l.contains("\"load\": \"loaded\"")
                    && l.contains(&format!("\"policy\": \"{policy}\""))
            })
            .find_map(|l| json_u64_field(l, "p99_us"))
            .unwrap_or_else(|| panic!("no loaded/{policy} p99_us case in BENCH_hotpath.json"));
        let limit = base_p99 as f64 * (1.0 + pct / 100.0);
        let ok = r.p99_us as f64 <= limit;
        if !ok {
            failed = true;
        }
        println!(
            "guard[loaded/{policy}]: p99 {}us vs baseline {}us (limit {:.0}us): {}",
            r.p99_us,
            base_p99,
            limit,
            if ok { "ok" } else { "REGRESSION" },
        );
    }
    if failed {
        eprintln!("latency guard: loaded p99 regressed more than {pct}% vs baseline: FAIL");
        std::process::exit(1);
    }
    println!("latency guard: loaded p99 within {pct}% of baseline: PASS");
}

fn latency_json(results: &[LatencyResult]) -> String {
    let mut rows = String::new();
    for (i, r) in results.iter().enumerate() {
        rows.push_str(&format!(
            "      {{ \"load\": \"{}\", \"policy\": \"{}\", \"clients\": {}, \
             \"think_ms\": {}, \"ops\": {}, \"p50_us\": {}, \"p99_us\": {}, \
             \"p999_us\": {} }}{}",
            r.case.load,
            if r.case.adaptive { "adaptive" } else { "fixed" },
            r.case.clients,
            r.case.think_ms,
            r.ops,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            if i + 1 < results.len() { ",\n" } else { "\n" },
        ));
    }
    let by = |load: &str, adaptive: bool| {
        results.iter().find(|r| r.case.load == load && r.case.adaptive == adaptive)
    };
    let p99_gain = match (by("loaded", false), by("loaded", true)) {
        (Some(f), Some(a)) if a.p99_us > 0 => f.p99_us as f64 / a.p99_us as f64,
        _ => 1.0,
    };
    format!(
        "  \"latency\": {{\n    \"cost_model\": \"{}\",\n    \"cases\": [\n{rows}    ],\n    \
         \"loaded_p99_fixed_over_adaptive\": {p99_gain:.3}\n  }}",
        cost_model()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--latency") {
        if let Some(i) = args.iter().position(|a| a == "--guard") {
            // Guard mode (CI): rerun the baseline's exact (run, warmup)
            // window and fail if loaded p99 regressed beyond the threshold.
            let pct: f64 = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(5.0);
            let results = run_latency(20, 4);
            guard_latency(&results, pct);
        } else {
            // Latency smoke (CI): short simulated runs, report only.
            run_latency(8, 2);
        }
        return;
    }

    let latency = run_latency(20, 4);
    let doc = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"seed\": {SEED},\n{}\n}}\n",
        latency_json(&latency)
    );
    let out = "BENCH_hotpath.json";
    std::fs::write(out, doc).expect("write BENCH_hotpath.json");
    println!("saved {out} ({})", cost_model());
}
