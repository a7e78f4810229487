//! `swperf` — the runtime's benchmark.
//!
//! ```text
//! swperf --workload <g500-shm|bfs-socket|serve-zipf> --seed N --seconds S --trace 0|1
//! swperf --selftest
//! ```
//!
//! Runs one workload, checks every output against the benchmark's own
//! oracle, and prints as its last line one JSON object: `correct`,
//! `attempted`, `failed` and the metrics by name and unit (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`).
//! Exit codes: 0 all operations correct, 1 some operation failed,
//! 2 the run could not be made (bad arguments, environment, set-up).

mod bfs;
mod oracle;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use oracle::Tally;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("restart_ms", "ms"),
];

/// Per-layer metrics: every traced run reports each of them; a layer
/// the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.store_persist_s", "s"),
    ("graph.store_map_ms", "ms"),
    ("core.build_s", "s"),
    ("core.warmup_ms", "ms"),
    ("core.levels", "count"),
    ("core.edges_scanned", "count"),
    ("core.gen_ms", "ms"),
    ("core.handle_ms", "ms"),
    ("core.hub_gather_ms", "ms"),
    ("core.exchange_ms", "ms"),
    ("core.wire_wait_ms", "ms"),
    ("core.exchange.messages", "count"),
    ("core.exchange.bytes", "bytes"),
    ("core.exchange.record_hops", "count"),
    ("core.pool.allocs", "count"),
    ("core.kernel.words_scanned", "count"),
    ("core.kernel.words_skipped", "count"),
    ("net.frames", "count"),
    ("net.wire_bytes", "bytes"),
    ("algos.msbfs64_ms", "ms"),
    ("algos.rounds_per_sweep", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.roots_per_sweep", "count"),
    ("serve.sweeps_per_kq", "count"),
    ("serve.coalesced_per_kq", "count"),
    ("serve.sweep_ms.p50", "ms"),
    ("serve.server_ms.p50", "ms"),
    ("serve.server_ms.p99", "ms"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.client_wire_ms.p50", "ms"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["g500-shm", "bfs-socket", "serve-zipf"];

/// Metric values by name, as a workload measured them.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What one workload run produced.
pub struct Run {
    pub tally: Tally,
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--selftest") {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed takes an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 3600.0)
                        .ok_or("--seconds takes a number in (0, 3600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

/// `SW_POOL_THREADS` and `SW_LIVE` change the program being measured:
/// record them, and refuse anything but their defaults.
fn check_environment() -> Result<(), String> {
    let show = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let (pool, live) = (show("SW_POOL_THREADS"), show("SW_LIVE"));
    println!("environment: SW_POOL_THREADS={pool} SW_LIVE={live}");
    if !matches!(pool.trim(), "unset" | "1") {
        return Err(format!(
            "SW_POOL_THREADS={pool}: the benchmark measures the default pool of 1"
        ));
    }
    if !matches!(live.as_str(), "unset" | "" | "0") {
        return Err(format!(
            "SW_LIVE={live}: the benchmark measures the disarmed live plane"
        ));
    }
    Ok(())
}

fn json_line(run: &Run, table: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = run.metrics.0.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number ({v})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let t = &run.tally;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.correct(),
        t.attempted,
        t.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match oracle::self_test() {
                Ok(()) => {
                    println!("checker self-test passed: a corrupted tree and a wrong answer counted as failed and wrong, BUSY and Timeout as failed only");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("checker self-test FAILED: {e}");
                    ExitCode::from(1)
                }
            };
        }
        Err(e) => {
            eprintln!("swperf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_environment().and_then(|()| oracle::self_test()) {
        eprintln!("swperf: {e}");
        return ExitCode::from(2);
    }
    // Stores, sockets and traces live under the working directory.
    let out = PathBuf::from("swperf").join("out");
    let work = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("swperf: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    // Unix sockets of the rank fabric and the server go here too.
    std::env::set_var("TMPDIR", &work);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = match args.workload.as_str() {
        "g500-shm" => bfs::run(&bfs::G500_SHM, args.seed, args.seconds, args.trace, &work),
        "bfs-socket" => bfs::run(&bfs::BFS_SOCKET, args.seed, args.seconds, args.trace, &work),
        _ => serve::run(args.seed, args.seconds, args.trace, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("swperf: {e}");
            return ExitCode::from(2);
        }
    };
    run.metrics.set("peak_rss_mb", stats::peak_rss_mb());
    for note in &run.tally.notes {
        println!("  FAILED {note}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in table {
        let v = run.metrics.0.get(name).copied().unwrap_or(0.0);
        println!("  {name:<28} {v:>16.4} {unit}");
    }
    match json_line(&run, table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("swperf: {e}");
            return ExitCode::from(2);
        }
    }
    if run.tally.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).unwrap();
        let compact: String = text.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{w}\"")), "{w}");
        }
    }
}
