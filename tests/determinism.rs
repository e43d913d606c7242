//! Reproducibility: the virtual timeline is a pure function of the
//! inputs — identical across repeated runs, engines included — and the
//! metrics snapshots match exactly.

use imapreduce::{FaultEvent, GraphDelta, IterConfig, IterOutcome, WatchdogConfig};
use imr_algorithms::concomp::ConCompIter;
use imr_algorithms::incremental::{converge_and_preserve, run_incremental_ns, unweighted_statics};
use imr_algorithms::pagerank::PageRankIter;
use imr_algorithms::testutil::{imr_runner, imr_runner_on, mr_runner_on};
use imr_algorithms::{pagerank, sssp};
use imr_graph::dataset;
use imr_simcluster::{ClusterSpec, MetricsSnapshot, NodeId, VInstant};

fn imr_run() -> (VInstant, Vec<VInstant>, MetricsSnapshot) {
    let g = dataset("Google").unwrap().generate(0.002);
    let r = imr_runner_on(ClusterSpec::ec2(10));
    let cfg = IterConfig::new("pr", 10, 5).with_distance_threshold(1e-7);
    let out = pagerank::run_pagerank_imr(&r, &g, &cfg).unwrap();
    (
        out.report.finished,
        out.report.iteration_done,
        out.report.metrics,
    )
}

fn mr_run() -> (VInstant, Vec<VInstant>, MetricsSnapshot) {
    let g = dataset("Google").unwrap().generate(0.002);
    let r = mr_runner_on(ClusterSpec::ec2(10));
    let out = pagerank::run_pagerank_mr(&r, &g, 10, 5, None).unwrap();
    (
        out.report.finished,
        out.report.iteration_done,
        out.report.metrics,
    )
}

#[test]
fn imapreduce_timeline_is_bit_reproducible() {
    assert_eq!(imr_run(), imr_run());
}

#[test]
fn mapreduce_timeline_is_bit_reproducible() {
    assert_eq!(mr_run(), mr_run());
}

/// The mixed fault schedule both faulted-timeline tests replay: a
/// delay, a watchdog-detected hang and a kill.
const FAULTS: [FaultEvent; 3] = [
    FaultEvent::Delay {
        node: NodeId(2),
        at_iteration: 2,
        millis: 40,
    },
    FaultEvent::Hang {
        node: NodeId(5),
        at_iteration: 3,
    },
    FaultEvent::Kill {
        node: NodeId(1),
        at_iteration: 5,
    },
];

fn faulted_outcome(faults: &[FaultEvent]) -> IterOutcome<u32, f64> {
    let g = dataset("Google").unwrap().generate(0.002);
    let r = imr_runner_on(ClusterSpec::ec2(10));
    let cfg = IterConfig::new("pr", 10, 6)
        .with_checkpoint_interval(2)
        .with_watchdog(WatchdogConfig::default());
    pagerank::load_pagerank_imr(&r, &g, 10, "/s", "/t").unwrap();
    let job = PageRankIter::new(g.num_nodes() as u64);
    r.run(&job, &cfg, "/s", "/t", "/o", faults).unwrap()
}

fn faulted_run(faults: &[FaultEvent]) -> (VInstant, Vec<VInstant>, MetricsSnapshot) {
    let out = faulted_outcome(faults);
    (
        out.report.finished,
        out.report.iteration_done,
        out.report.metrics,
    )
}

/// The fault timeline is part of the pure function: a schedule mixing a
/// delay, a watchdog-detected hang and a kill shifts virtual time in a
/// bit-reproducible way — and strictly costs more virtual time than the
/// undisturbed run.
#[test]
fn faulted_timeline_is_bit_reproducible() {
    let a = faulted_run(&FAULTS);
    let b = faulted_run(&FAULTS);
    assert_eq!(a, b);
    let clean = faulted_run(&[]);
    assert!(a.0 > clean.0, "faults must cost virtual time");
}

/// A simulator timeline reduced to plain integers: finish and
/// per-iteration completion instants in nanoseconds, distance bit
/// patterns, and the counter values in `COUNTER_NAMES` order.
#[derive(Debug, PartialEq)]
struct Timeline {
    finished: u64,
    iteration_done: Vec<u64>,
    distances: Vec<u64>,
    metrics: [u64; 23],
}

impl Timeline {
    fn of<K, S>(out: &IterOutcome<K, S>) -> Timeline {
        Timeline {
            finished: out.report.finished.as_nanos(),
            iteration_done: out
                .report
                .iteration_done
                .iter()
                .map(|t| t.as_nanos())
                .collect(),
            distances: out.distances.iter().map(|d| d.to_bits()).collect(),
            metrics: out.report.metrics.values(),
        }
    }
}

/// Barrier-free delta-accumulative PageRank with priority batching and
/// checkpoints.
fn accumulative_pagerank() -> Timeline {
    let g = dataset("Google").unwrap().generate(0.002);
    let r = imr_runner_on(ClusterSpec::ec2(10));
    let cfg = IterConfig::new("prd", 10, 60)
        .with_accumulative_mode()
        .with_distance_threshold(1e-6)
        .with_delta_batch(64)
        .with_check_every(2)
        .with_checkpoint_interval(3);
    Timeline::of(&pagerank::run_pagerank_delta(&r, &g, &cfg).unwrap())
}

/// Connected components: cold converge, preserve the fixpoint, then an
/// incremental warm start after a split + bridge delta.
fn incremental_concomp() -> Timeline {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let n = g.num_nodes() as u32;
    let job = ConCompIter;
    let base = unweighted_statics(&g);
    let rm = (1..n).find(|&u| !g.neighbors(u).is_empty()).unwrap();
    let mut delta = GraphDelta::new();
    delta
        .remove_edge(rm, g.neighbors(rm)[0])
        .insert_edge(n - 1, n / 2, 1.0);
    let cfg = IterConfig::new("icc", 3, 200)
        .with_accumulative_mode()
        .with_distance_threshold(0.5);
    let sim = imr_runner(3);
    let (_, fix) = converge_and_preserve(&sim, &job, &base, &cfg, "/i").unwrap();
    let warm = run_incremental_ns(&sim, &job, &cfg, &fix, "/i", &delta).unwrap();
    Timeline::of(&warm.outcome)
}

/// The kill + hang + delay schedule of `faulted_timeline_is_bit_reproducible`.
fn faulted_pagerank() -> Timeline {
    Timeline::of(&faulted_outcome(&FAULTS))
}

/// A named run and the timeline it must reproduce.
type Pinned = (&'static str, fn() -> Timeline, Timeline);

/// Literal timelines for the simulator modes no paper-figure output
/// covers. Any change to the per-iteration data path or its cost
/// charges that shifts virtual time, a distance or a counter shows up
/// here as a diff against the pinned numbers.
#[test]
fn uncovered_sim_timelines_are_pinned() {
    let table: [Pinned; 3] = [
        (
            "accumulative pagerank",
            accumulative_pagerank,
            Timeline {
                finished: 13291541144,
                iteration_done: vec![
                    12098097487,
                    12184078514,
                    12272998205,
                    12337013247,
                    12413543481,
                    12502819268,
                    12573292437,
                    12644203214,
                    12720753858,
                    12811783011,
                    12896023301,
                    12962062868,
                    13031418713,
                    13123971114,
                    13198516517,
                    13281329688,
                ],
                distances: vec![
                    4591475624961730370,
                    4585956956831832246,
                    4580844476205878224,
                    4575978617779068232,
                    4570710921753593061,
                    4565710579640185128,
                    4560366887209979799,
                    4555110879005450283,
                    4549979211377313444,
                    4544882363704332779,
                    4539870202215067918,
                    4534978357634521142,
                    4529357827508627303,
                    4524150352844672686,
                    4519019413922995127,
                    4513795409319292489,
                ],
                metrics: [
                    1470516, 158304, 0, 79799, 570190, 0, 0, 366600, 1, 20, 0, 0, 0, 0, 0, 135735,
                    36901, 160, 0, 0, 0, 0, 0,
                ],
            },
        ),
        (
            "incremental concomp",
            incremental_concomp,
            Timeline {
                finished: 4210470004,
                iteration_done: vec![
                    4051065800, 4076975692, 4102527518, 4128097202, 4153278958, 4175947342,
                    4193465542, 4199348282, 4201048200,
                ],
                distances: vec![
                    4688731924921843712,
                    4681256654602240000,
                    4674540150385016832,
                    4666314154141810688,
                    4657652201538191360,
                    4648955064562483200,
                    4637722453773123584,
                    4618441417868443648,
                    0,
                ],
                metrics: [
                    149512, 75744, 0, 102208, 218292, 0, 0, 44736, 2, 12, 0, 0, 0, 0, 0, 28157, 0,
                    54, 0, 0, 0, 0, 0,
                ],
            },
        ),
        (
            "faulted pagerank",
            faulted_pagerank,
            Timeline {
                finished: 19762581149,
                iteration_done: vec![
                    12221561389,
                    12471468330,
                    16918077088,
                    17117319541,
                    19531403326,
                    19751369693,
                ],
                distances: vec![],
                metrics: [
                    1029564, 313476, 15886, 119387, 291574, 175968, 0, 87984, 1, 24, 0, 1, 2,
                    14664, 111920, 0, 0, 0, 0, 0, 0, 0, 0,
                ],
            },
        ),
    ];
    for (name, run, want) in table {
        assert_eq!(run(), want, "{name}");
    }
}

#[test]
fn sssp_results_do_not_depend_on_cluster_size() {
    // Timing depends on the cluster; *data* must not.
    let g = dataset("DBLP").unwrap().generate(0.003);
    let mut results = Vec::new();
    for n in [2usize, 4, 8] {
        let r = imr_runner_on(ClusterSpec::local(n));
        let cfg = IterConfig::new("sssp", n, 5);
        let out = sssp::run_sssp_imr(&r, &g, 0, &cfg).unwrap();
        results.push(out.final_state);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

#[test]
fn sync_and_async_runs_share_straggler_patterns() {
    // The straggler model is keyed by (iteration, task), not wall
    // time, so the sync/async comparison is a paired experiment: the
    // async run can never be slower than sync by more than the hand-off
    // overhead.
    let g = dataset("DBLP").unwrap().generate(0.005);
    let run = |sync: bool| {
        let r = imr_runner_on(ClusterSpec::local(4));
        let mut cfg = IterConfig::new("sssp", 4, 8);
        if sync {
            cfg = cfg.with_sync_maps();
        }
        sssp::run_sssp_imr(&r, &g, 0, &cfg).unwrap().report.finished
    };
    let sync_t = run(true);
    let async_t = run(false);
    assert!(
        async_t <= sync_t,
        "async {async_t} slower than sync {sync_t}"
    );
}
