//! Recovery overhead on the native multi-threaded backend, in the
//! spirit of the paper's Fig. 20: PageRank on 4 worker threads, wall
//! clock for (a) a failure-free run at each checkpoint interval and
//! (b) the same run with one scripted worker failure mid-job, which the
//! supervisor rolls back to the last snapshot and replays.
//!
//! Smaller intervals checkpoint more often (higher failure-free
//! overhead) but replay less on failure; the two series expose that
//! trade-off in real seconds. A no-checkpoint baseline is printed for
//! reference. Every configuration must produce the same final ranks —
//! recovery is invisible in results — and the binary asserts this.
//!
//! All repetitions share one runner and one metrics registry (the
//! long-lived daemon shape): `Metrics::reset_all` runs before each
//! repetition so the per-repetition counters — and the fault-counter
//! note in the JSON artifact — describe exactly one run instead of
//! accumulating across the sweep. Each repetition also gets its own
//! DFS directory so state never collides.

use imapreduce::{FaultEvent, IterConfig};
use imr_algorithms::pagerank::{self, PageRankIter};
use imr_bench::{report_metrics, BenchOpts, FigureResult};
use imr_dfs::Dfs;
use imr_graph::dataset;
use imr_graph::Graph;
use imr_native::NativeRunner;
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle, MetricsSnapshot, NodeId};
use std::sync::Arc;
use std::time::Instant;

const THREADS: usize = 4;
const INTERVALS: [usize; 3] = [1, 2, 4];

fn runner() -> NativeRunner {
    // local(4), not local(1): failure events name nodes, and each pair
    // must map to a real node for the scripted kill to find it.
    let spec = Arc::new(ClusterSpec::local(THREADS));
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 1, 1 << 26);
    NativeRunner::new(dfs, metrics)
}

fn run_once(
    r: &NativeRunner,
    g: &Graph,
    rep: usize,
    iters: usize,
    interval: usize,
    failures: &[FaultEvent],
) -> (f64, Vec<(u32, f64)>, u64, MetricsSnapshot) {
    // Shared registry, per-repetition counters: reset before the run so
    // the snapshot taken after it covers this repetition alone.
    r.metrics().reset_all();
    let state = format!("/pr{rep}/state");
    let stat = format!("/pr{rep}/static");
    let out_dir = format!("/pr{rep}/out");
    pagerank::load_pagerank_imr(r, g, THREADS, &state, &stat).expect("load");
    let job = PageRankIter::new(g.num_nodes() as u64);
    let cfg = IterConfig::new("pr-recovery", THREADS, iters).with_checkpoint_interval(interval);
    let start = Instant::now();
    let out = r
        .run(&job, &cfg, &state, &stat, &out_dir, failures)
        .expect("pagerank run");
    let snapshot = r.metrics().snapshot();
    assert_eq!(
        snapshot.recoveries, out.recoveries,
        "reset_all between repetitions must keep the registry in step \
         with the run's own recovery count"
    );
    (
        start.elapsed().as_secs_f64(),
        out.final_state,
        out.recoveries,
        snapshot,
    )
}

fn main() {
    let opts = BenchOpts::from_args();
    let scale = opts.scale_or(0.02);
    let iters = opts.iters_or(8);
    let fail_at = (iters / 2).max(1);

    let mut fig = FigureResult::new(
        "native_recovery",
        "Native checkpoint/rollback recovery overhead (PageRank, 4 threads)",
        "checkpoint interval (iterations)",
        "wall-clock seconds",
    );
    fig.note(format!(
        "scale={scale}, iterations={iters}; one scripted failure after iteration {fail_at}; \
         host wall-clock, not virtual time"
    ));

    let g = dataset("PageRank-s").unwrap().generate(scale);
    println!(
        "PageRank-s @ scale {scale}: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    let r = runner();
    let mut rep = 0;
    let mut next_rep = || {
        rep += 1;
        rep
    };

    let (base_secs, baseline, _, _) = run_once(&r, &g, next_rep(), iters, 0, &[]);
    println!("  no checkpointing, no failure: {base_secs:.3} s");
    fig.note(format!(
        "no-checkpoint failure-free baseline: {base_secs:.3} s"
    ));

    let failure = [FaultEvent::Kill {
        node: NodeId(1),
        at_iteration: fail_at,
    }];
    let mut clean_pts = Vec::new();
    let mut failed_pts = Vec::new();
    let mut last_failed = MetricsSnapshot::default();
    for interval in INTERVALS {
        let (clean_secs, clean_state, _, clean_m) =
            run_once(&r, &g, next_rep(), iters, interval, &[]);
        let (failed_secs, failed_state, recoveries, failed_m) =
            run_once(&r, &g, next_rep(), iters, interval, &failure);
        println!(
            "  interval {interval}: clean {clean_secs:.3} s, \
             with failure {failed_secs:.3} s (recoveries={recoveries})"
        );
        assert_eq!(
            clean_state, baseline,
            "checkpointing changed the PageRank result"
        );
        assert_eq!(
            failed_state, baseline,
            "recovery changed the PageRank result"
        );
        assert_eq!(clean_m.recoveries, 0, "failure-free run recovered");
        assert_eq!(failed_m.recoveries, 1, "scripted failure recovers once");
        clean_pts.push((interval as f64, clean_secs));
        failed_pts.push((interval as f64, failed_secs));
        last_failed = failed_m;
    }
    fig.push_series("no failure", clean_pts);
    fig.push_series(format!("failure after iteration {fail_at}"), failed_pts);
    report_metrics(
        &mut fig,
        &format!("failure run, interval {}", INTERVALS[INTERVALS.len() - 1]),
        &last_failed,
    );

    fig.emit(&opts.out_root);
}
