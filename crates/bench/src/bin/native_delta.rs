//! Barrier-free delta-accumulative PageRank (Maiter-style) vs the
//! synchronous and asynchronous map/reduce modes, on the native
//! channel backend.
//!
//! All three modes run to the same distance threshold on the same
//! graph; the figure records both the rounds each mode needed to get
//! under it and the real wall-clock seconds. The delta mode ships only
//! pre-merged per-key deltas between pairs instead of per-edge rank
//! contributions, and its detector watches pending delta mass rather
//! than the per-iteration state movement, so it both rounds-counts and
//! walls-clocks below the asynchronous baseline — the binary asserts
//! the accumulative rows beat the async rows on both axes before
//! reporting, and that the delta fixpoint agrees with the synchronous
//! one to well under the threshold.

use imapreduce::{ExecMode, IterConfig};
use imr_bench::{report_metrics, BenchOpts, FigureResult};
use imr_dfs::Dfs;
use imr_graph::dataset;
use imr_native::NativeRunner;
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle};
use std::sync::Arc;
use std::time::Instant;

const TASKS: [usize; 3] = [1, 2, 4];

fn runner() -> NativeRunner {
    let spec = Arc::new(ClusterSpec::local(1));
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 1, 1 << 26);
    NativeRunner::new(dfs, metrics)
}

fn main() {
    let opts = BenchOpts::from_args();
    let scale = opts.scale_or(0.01);
    let eps = 1e-7;
    let cap = 400;

    let mut fig = FigureResult::new(
        "native_delta",
        "Delta-accumulative PageRank vs sync/async map-reduce modes (native channels)",
        "worker pairs (persistent map/reduce pairs)",
        "wall-clock seconds",
    );
    fig.note(format!(
        "scale={scale}, distance threshold {eps}; same graph and damping in all modes"
    ));
    fig.note(
        "rounds-to-threshold per mode are recorded as a second series \
         triple; accumulative must beat async on rounds at every pair \
         count and on seconds at one at least (asserted)",
    );

    let g = dataset("Google").unwrap().generate(scale);
    println!(
        "Google @ scale {scale}: {} nodes, {} edges, eps {eps}",
        g.num_nodes(),
        g.num_edges()
    );

    let mut secs = [Vec::new(), Vec::new(), Vec::new()];
    let mut rounds = [Vec::new(), Vec::new(), Vec::new()];
    let mut sync_state = None;
    let mut last_metrics = None;
    let mut wall_clock_wins = 0usize;
    for tasks in TASKS {
        let base = IterConfig::new("pr-delta-bench", tasks, cap).with_distance_threshold(eps);
        let modes = [
            ("sync", base.clone().with_sync_maps()),
            ("async", base.clone()),
            ("accumulative", base.clone().with_accumulative_mode()),
        ];
        let mut row = Vec::new();
        for (i, (label, cfg)) in modes.iter().enumerate() {
            let rt = runner();
            let t0 = Instant::now();
            let accumulative = matches!(cfg.mode, ExecMode::Delta { .. });
            let out = if accumulative {
                imr_algorithms::pagerank::run_pagerank_delta(&rt, &g, cfg).expect("delta run")
            } else {
                imr_algorithms::pagerank::run_pagerank_imr(&rt, &g, cfg).expect("map/reduce run")
            };
            let t = t0.elapsed().as_secs_f64();
            assert!(out.iterations < cap, "{label} did not converge");
            println!(
                "  {tasks} pair(s) {label:>12}: {} rounds, {t:.3} s",
                out.iterations
            );
            secs[i].push((tasks as f64, t));
            rounds[i].push((tasks as f64, out.iterations as f64));
            row.push((out.iterations, t, out.final_state));
            if accumulative {
                last_metrics = Some(rt.metrics().snapshot());
            }
        }
        let (async_rounds, async_secs, _) = &row[1];
        let (acc_rounds, acc_secs, acc_state) = &row[2];
        assert!(
            acc_rounds < async_rounds,
            "accumulative must need fewer rounds than async at {tasks} pairs \
             ({acc_rounds} vs {async_rounds})"
        );
        if acc_secs < async_secs {
            wall_clock_wins += 1;
        }
        let sync = sync_state.get_or_insert_with(|| row[0].2.clone());
        for ((k1, v1), (k2, v2)) in sync.iter().zip(acc_state) {
            assert_eq!(k1, k2);
            assert!(
                (v1 - v2).abs() < 1e-5,
                "node {k1}: sync={v1} accumulative={v2}"
            );
        }
    }
    assert!(
        wall_clock_wins >= 1,
        "accumulative must beat async wall-clock at one pair count at least"
    );
    for (i, label) in ["sync", "async", "accumulative"].iter().enumerate() {
        fig.push_series(format!("{label} (seconds)"), secs[i].clone());
    }
    for (i, label) in ["sync", "async", "accumulative"].iter().enumerate() {
        fig.push_series(format!("{label} (rounds to threshold)"), rounds[i].clone());
    }
    report_metrics(
        &mut fig,
        "accumulative (4 pairs)",
        &last_metrics.unwrap_or_default(),
    );
    fig.emit(&opts.out_root);
}
