//! End-to-end benchmark of the real MAMS cluster.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_mostly --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one thread: `MdsServer` actives and standbys, `PoolNode`s,
//! the `CoordServer`, `DataServer`s and 48 or 64 closed-loop `FsClient`s
//! run on the deterministic `mams-sim` kernel. The workload
//! (`read_mostly`, `write_xg`, `failover_renew`, or `all`) is described in
//! `workloads.rs`.
//!
//! A run repeats rounds until `--seconds` have passed. A round builds and
//! pre-populates a fresh cluster (timed as `setup_s`), runs the same
//! fixed-work scripts as its measured window, lets the cluster settle, and
//! checks it (see `round.rs`). Wall-clock metrics are medians over rounds.
//! Simulated-time metrics measure the protocol under the cost model
//! printed with every record; on one group they repeat exactly for a seed,
//! and the run fails if two rounds disagree.
//!
//! With `--trace 0` the final line carries the end-to-end metrics; with
//! `--trace 1` rounds alternate untraced and traced, the final line
//! carries the per-layer metrics (`layers.rs`), and the spans of the first
//! traced round are written to `perfbench/out/`. The process exits
//! non-zero when any check fails.

mod cluster;
mod host;
mod layers;
mod round;
mod stages;
mod workloads;
mod wrap;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use layers::Metric;
use round::{percentile_ms, run_round, Round, PERCENTILES};
use workloads::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What one workload's run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rounds.iter().map(f).collect::<Vec<_>>())
}

fn sim_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0C10_75F5
}

fn print_metric(m: &Metric, note: &str) {
    println!("  {:<30} {:>16.6} {:<12}{note}", m.name, m.value, m.unit);
}

/// The end-to-end metrics of a set of untraced rounds.
fn end_to_end(rounds: &[Round], w: &Workload) -> Vec<(Metric, String)> {
    let mut out = Vec::new();
    let mut push = |name, unit, value, note: String| out.push((Metric { name, unit, value }, note));
    push(
        "wall_ops_per_s",
        "ops/s",
        median_of(rounds, |r| r.answered() as f64 / r.wall_s),
        format!("median of {} rounds (wall)", rounds.len()),
    );
    push(
        "sim_ops_per_s",
        "ops/s",
        median_of(rounds, |r| r.answered() as f64 * 1e6 / r.sim.window_us.max(1) as f64),
        "sim".into(),
    );
    let samples = rounds[0].sim.latencies_us.len();
    for (i, (name, p)) in PERCENTILES.into_iter().enumerate() {
        let beyond = percentile_ms(&rounds[0].sim.latencies_us, p).1;
        push(
            name,
            "ms",
            median_of(rounds, |r| r.pct_ms[i]),
            format!("sim; {samples} samples, {beyond} above"),
        );
    }
    let attempted: u64 = rounds.iter().map(|r| r.sim.attempted).sum();
    let missed: u64 = rounds.iter().map(|r| r.sim.failed + r.sim.outstanding).sum();
    push(
        "fail_frac",
        "ratio",
        missed as f64 / attempted as f64,
        format!("{missed} of {attempted} ops answered with an error or unanswered"),
    );
    // Defined on the failover workload only; 0 elsewhere.
    let secs = |us: Option<u64>| us.map_or(0.0, |us| us as f64 / 1e6);
    let note = if w.fault.is_some() { "sim" } else { "sim; this workload injects no fault" };
    push("mttr_s", "s", median_of(rounds, |r| secs(r.sim.mttr_us)), note.into());
    push("renew_sim_s", "s", median_of(rounds, |r| secs(r.sim.renew_us)), note.into());
    push("setup_s", "s", median_of(rounds, |r| r.setup_s), "wall, median of rounds".into());
    push("peak_rss_mb", "MB", host::peak_rss_mb(), "VmHWM".into());
    out
}

/// Metrics reported on the final line of a `--trace 0` run: the ones
/// defined on every workload that repeat from run to run within their
/// bounds. `fail_frac`, `mttr_s` and `renew_sim_s` are printed above it
/// and carried by the traced record, and so is `wall_ops_per_s`: on a
/// host shared with other tenants its median over a run moves by 10-35%
/// between runs of the same code.
const HEADLINE: [&str; 6] =
    ["sim_ops_per_s", "sim_p50_ms", "sim_p99_ms", "sim_p999_ms", "setup_s", "peak_rss_mb"];

fn write_spans(w: &Workload, seed: u64, round: &Round) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.csv", w.name));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let rec = round.trace.as_ref().expect("traced round");
    writeln!(out, "# workload={} seed={seed}; {}", w.name, host::fingerprint())?;
    writeln!(out, "# {}", host::cost_model())?;
    writeln!(
        out,
        "# cause: (1<<63)|client<<38|seq for client ops, (1<<62)|sn for journal batches"
    )?;
    writeln!(out, "span,node,role,kind,start_ns,end_ns,cause")?;
    for (id, s) in rec.spans.iter().enumerate() {
        writeln!(
            out,
            "{id},{},{},{},{},{},{}",
            s.node,
            s.who.label(),
            s.kind.label(),
            s.start_ns,
            s.start_ns + u64::from(s.dur_ns),
            s.cause
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

fn bench(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let exact = w.topo.groups == 1;
    println!("workload {} seed {} trace {}", w.name, args.seed, u8::from(args.trace));
    println!("  host: {}", host::fingerprint());
    println!("  cost model: {}", host::cost_model());
    println!(
        "  sim metrics: {}",
        if exact {
            "exact per seed (one group; checked across in-process rounds)"
        } else {
            "spread-bounded (multi-group paths iterate HashMaps in per-process order)"
        }
    );
    let plan = w.plan(args.seed);
    if w.plan(args.seed.wrapping_add(1)).digest() == plan.digest() {
        return Err("another seed left the scripts unchanged".into());
    }
    let reference = plan.reference_fingerprint();
    let sim_seed = sim_seed(args.seed);
    let round = |traced| run_round(w, &plan, sim_seed, reference, traced);
    let same_sim = |a: &Round, b: &Round, what: &str| {
        if exact && a.sim != b.sim {
            Err(format!("simulated results differ between {what} of one seed"))
        } else {
            Ok(())
        }
    };

    let mut untraced: Vec<Round> = Vec::new();
    if !args.trace {
        while untraced.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
            let mut r = round(false)?;
            if let Some(first) = untraced.first() {
                same_sim(first, &r, "two rounds")?;
                // Only the first round's latencies are read again; keeping
                // every round's would make peak memory grow with the
                // number of rounds.
                r.sim.latencies_us = Vec::new();
            }
            untraced.push(r);
        }
        let metrics = end_to_end(&untraced, w);
        let per_round = |f: &dyn Fn(&Round) -> f64| {
            untraced.iter().map(|r| format!("{:.0}", f(r))).collect::<Vec<_>>().join(" ")
        };
        println!("  rounds: wall ops/s {}", per_round(&|r| r.answered() as f64 / r.wall_s));
        println!("  rounds: setup ms {}", per_round(&|r| r.setup_s * 1e3));
        let shown = untraced.iter().filter(|r| r.rename_defect == Some(true)).count();
        if !exact {
            println!(
                "  known defect: a file renamed to a path another group owns is not found \
                 there; shown in {shown} of {} rounds",
                untraced.len()
            );
        }
        println!("  end-to-end ({} rounds of {} ops):", untraced.len(), plan.load_ops());
        for (m, note) in &metrics {
            print_metric(m, note);
        }
        let attempted = untraced.iter().map(|r| r.sim.attempted).sum();
        let failed = untraced.iter().map(|r| r.sim.failed + r.sim.outstanding).sum();
        let metrics = metrics.into_iter().map(|(m, _)| m).filter(|m| HEADLINE.contains(&m.name));
        return Ok(Outcome { attempted, failed, metrics: metrics.collect() });
    }

    let mut layer_runs: Vec<Vec<Metric>> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut stages = None;
    while layer_runs.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let mut u = round(false)?;
        let t = round(true)?;
        same_sim(&u, &t, "the traced and untraced rounds")?;
        if !untraced.is_empty() {
            u.sim.latencies_us = Vec::new();
        }
        if stages.is_none() {
            stages =
                Some(stages::probe(t.journal.as_deref().expect("traced rounds keep the journal"))?);
            let path = write_spans(w, args.seed, &t).map_err(|e| format!("writing spans: {e}"))?;
            println!(
                "  spans: {} written to {path}",
                t.trace.as_ref().map_or(0, |r| r.spans.len())
            );
        }
        layer_runs.push(layers::per_layer(&t, stages.as_ref().expect("set")));
        traced_walls.push(t.wall_s);
        untraced.push(u);
    }
    let mut metrics: Vec<Metric> = (0..layer_runs[0].len())
        .map(|i| Metric {
            name: layer_runs[0][i].name,
            unit: layer_runs[0][i].unit,
            value: median(&mut layer_runs.iter().map(|run| run[i].value).collect::<Vec<_>>()),
        })
        .collect();
    metrics.push(Metric {
        name: "trace.overhead_ratio",
        unit: "ratio",
        value: median(&mut traced_walls) / median_of(&untraced, |r| r.wall_s),
    });
    for (m, _) in end_to_end(&untraced, w) {
        if matches!(m.name, "wall_ops_per_s" | "fail_frac" | "mttr_s" | "renew_sim_s") {
            metrics.push(m);
        }
    }
    println!("  per-layer (median of {} traced rounds):", layer_runs.len());
    for m in &metrics {
        print_metric(m, "");
    }
    let attempted = untraced.iter().map(|r| r.sim.attempted).sum();
    let failed = untraced.iter().map(|r| r.sim.failed + r.sim.outstanding).sum();
    Ok(Outcome { attempted, failed, metrics })
}

/// The result line: `metrics` as `(name, unit, value)`.
fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                Workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { Workload::NAMES.to_vec() } else { vec![&args.workload] };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut all = Vec::new();
    for name in &names {
        let Some(w) = Workload::by_name(name) else {
            eprintln!("unknown workload {name}; expected one of {}", Workload::NAMES.join(", "));
            return ExitCode::from(2);
        };
        match bench(&w, &args) {
            Ok(o) => {
                let named = |prefix: &str| -> Vec<(String, &str, f64)> {
                    o.metrics
                        .iter()
                        .map(|m| (format!("{prefix}{}", m.name), m.unit, m.value))
                        .collect()
                };
                if names.len() > 1 {
                    println!("{}", json_line(true, o.attempted, o.failed, &named("")));
                    all.extend(named(&format!("{name}.")));
                } else {
                    all = named("");
                }
                attempted += o.attempted;
                failed += o.failed;
            }
            Err(e) => {
                println!("  CHECK FAILED: {e}");
                correct = false;
                break;
            }
        }
    }
    println!("{}", json_line(correct, attempted.max(1), failed, &all));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
