//! The repository benchmark's runner. `perfbench/run.py` builds and
//! runs it:
//!
//! ```text
//! imr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload's settings are fixed in [`run`].
//!
//! It prints progress and every measured metric by name, then, as the
//! last line, one JSON object with the verdict and the end-to-end
//! (`--trace 0`) or per-layer (`--trace 1`) metrics.
//!
//! For the TCP workload the binary re-executes itself as the worker
//! processes: `<addr> <pair> <generation> <job-id> --worker-job sssp`.

mod counted;
mod graph;
mod jobs_open;
mod replay;
mod rss;
mod stats;

use stats::{MetricTable, Report};
use std::collections::HashMap;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: MetricTable = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("edges_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: MetricTable = &[
    ("graph.generate_s", "s"),
    ("dfs.load_s", "s"),
    ("dfs.load_bytes", "bytes"),
    ("algorithms.map_calls", "count"),
    ("algorithms.map_emits", "count"),
    ("algorithms.map_busy_s", "s"),
    ("algorithms.reduce_calls", "count"),
    ("algorithms.reduce_values", "count"),
    ("algorithms.reduce_busy_s", "s"),
    ("algorithms.distance_busy_s", "s"),
    ("records.partition_ns", "ns"),
    ("records.sort_ns", "ns"),
    ("records.encode_ns", "ns"),
    ("records.decode_ns", "ns"),
    ("records.merge_ns", "ns"),
    ("records.group_ns", "ns"),
    ("records.segment_bytes", "bytes"),
    ("native.map_s", "s"),
    ("native.map_p99_ms", "ms"),
    ("native.reduce_s", "s"),
    ("native.reduce_p99_ms", "ms"),
    ("native.handoff_s", "s"),
    ("native.barrier_wait_s", "s"),
    ("native.checkpoint_write_s", "s"),
    ("native.phase_coverage", "ratio"),
    ("native.map_input_records", "count"),
    ("native.reduce_input_records", "count"),
    ("net.frame_rt_us", "us"),
    ("net.frame_mb_s", "MB/s"),
    ("net.shuffle_bytes", "bytes"),
    ("net.tcp_overhead_ms_per_iter", "ms"),
    ("net.corrupt_frames", "count"),
    ("net.reconnect_attempts", "count"),
    ("dfs.put_atomic_us", "us"),
    ("dfs.read_us", "us"),
    ("dfs.checkpoint_bytes", "bytes"),
    ("core.rounds", "count"),
    ("core.deltas_sent", "count"),
    ("core.deltas_per_round", "count"),
    ("core.termination_checks", "count"),
    ("jobs.submit_us_p50", "us"),
    ("jobs.submit_us_p99", "us"),
    ("jobs.admit_wait_ms_p99", "ms"),
    ("jobs.run_ms_p50", "ms"),
    ("jobs.backlog_max", "count"),
    ("jobs.generator_lag_ms", "ms"),
    ("jobs.dlq_entries", "count"),
    ("jobs.latency_samples", "count"),
    ("jobs.latency_p99_ms", "ms"),
    ("jobs.hold_ms_p99", "ms"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.overhead_frac_iqr", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// `--workload --seed --seconds --trace`, the runner's only flags.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = match flag.as_str() {
                "--workload" | "--seed" | "--seconds" | "--trace" => &flag[2..],
                _ => return Err(format!("unexpected argument {flag}")),
            };
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(name, value.as_str());
        }
        fn get<T: std::str::FromStr>(map: &HashMap<&str, &str>, name: &str) -> Result<T, String> {
            let raw = map.get(name).ok_or_else(|| format!("missing --{name}"))?;
            raw.parse().map_err(|_| format!("bad --{name} {raw}"))
        }
        Ok(Args {
            workload: get(&map, "workload")?,
            seed: get(&map, "seed")?,
            seconds: get(&map, "seconds")?,
            trace: get::<u8>(&map, "trace")? == 1,
        })
    }
}

/// Graphs per run of a graph workload, generated from the seed.
const GRAPHS: usize = 10;

/// Each workload's settings; `perfbench/spec.json` describes them.
fn run(a: &Args, report: &mut Report) -> Result<(), String> {
    let graph = |kind, dataset, scale, iters, checkpoint, eps| graph::Params {
        kind,
        dataset,
        scale,
        pairs: 2,
        iters,
        checkpoint,
        eps,
        graphs: GRAPHS,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
    };
    match a.workload.as_str() {
        "pagerank-threads" => graph::run(
            &graph(graph::Kind::PageRankThreads, "PageRank-s", 0.1, 10, 0, 0.0),
            report,
        ),
        "sssp-tcp" => graph::run(
            &graph(graph::Kind::SsspTcp, "SSSP-s", 0.1, 10, 3, 0.0),
            report,
        ),
        "pagerank-delta" => graph::run(
            &graph(graph::Kind::PageRankDelta, "Google", 0.08, 400, 0, 1e-7),
            report,
        ),
        "jobs-open" => jobs_open::run(
            &jobs_open::Params {
                seed: a.seed,
                seconds: a.seconds,
                trace: a.trace,
                rate: 8.0,
                slots: 2,
                scale: 10_000,
                iters: 6,
            },
            report,
        ),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.get(4).is_some_and(|a| a == "--worker-job") {
        let mut worker = argv[..4].to_vec();
        worker.extend(argv[5..].iter().cloned());
        std::process::exit(match serve_worker(&worker) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("imr-perfbench worker: {e}");
                2
            }
        });
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("imr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("imr-perfbench: {e}");
        std::process::exit(1);
    }
    println!(
        "{} of {} runs/jobs failed; metrics:",
        report.failed, report.attempted
    );
    report.print_human(table);
    match report.result_line(table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("imr-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Worker-process mode: `<addr> <pair> <generation> <job-id> <job>`.
fn serve_worker(args: &[String]) -> Result<(), String> {
    let [addr, pair, generation, job_id, job] = args else {
        return Err(format!("bad worker arguments {args:?}"));
    };
    let num = |s: &str| s.parse::<u64>().map_err(|e| format!("bad number {s}: {e}"));
    match job.as_str() {
        "sssp" => imr_native::serve_worker_accum(
            &imr_algorithms::sssp::SsspIter,
            addr,
            num(pair)? as usize,
            num(generation)?,
            num(job_id)?,
        ),
        other => Err(format!("unknown worker job {other}")),
    }
}
