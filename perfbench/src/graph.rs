//! The three graph workloads: a closed loop, one client, that loads a
//! generated graph into a fresh engine, solves, and verifies the result
//! against a sequential reference, again and again for the run's time.

use crate::counted::{AlgoTotals, Counted};
use crate::replay::{self, RecordCosts};
use crate::rss;
use crate::stats::{median, percentile, quartiles, Report};
use imapreduce::{Accumulative, EngineError, IterConfig, IterOutcome, IterativeJob};
use imr_algorithms::pagerank::{load_pagerank_imr, reference_pagerank, PageRankIter};
use imr_algorithms::sssp::{load_sssp_imr, reference_sssp_rounds, SsspIter};
use imr_dfs::Dfs;
use imr_graph::{dataset, generate_graph, generate_weighted_graph, sssp_weight_dist, Graph};
use imr_native::{NativeRunner, WorkerSpec};
use imr_records::encode_pairs;
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle, MetricsSnapshot};
use imr_telemetry::{HistSnapshot, Phase, Telemetry, NUM_PHASES};
use imr_trace::TraceBuffer;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// PageRank damping, as in the paper and `PageRankIter::new`.
const DAMPING: f64 = 0.85;
/// Fewest measured cycles per run, however slow they are.
const MIN_CYCLES: usize = 3;
/// Set-ups per untraced cycle: the cycle's own and extra ones of the
/// same graph. One set-up takes under 0.2 s, so the host's steal bursts
/// move each by up to ±20%; more of them keep `setup_s` steady.
const SETUPS_PER_CYCLE: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// PageRank, fixed iterations, persistent pairs on channels.
    PageRankThreads,
    /// SSSP, fixed iterations, worker processes over TCP, checkpoints.
    SsspTcp,
    /// Accumulative PageRank on channels, run to a distance threshold.
    PageRankDelta,
}

/// One graph workload's shape and run settings.
#[derive(Debug, Clone)]
pub struct Params {
    pub kind: Kind,
    /// Catalog data set whose size and degree distribution the
    /// generated graph takes (`PageRank-s`, `SSSP-s`, `Google`).
    pub dataset: &'static str,
    pub scale: f64,
    pub pairs: usize,
    /// Iterations (fixed-iteration workloads) or the round cap.
    pub iters: usize,
    /// Checkpoint interval in iterations; 0 = none.
    pub checkpoint: usize,
    /// Distance threshold of the accumulative workload.
    pub eps: f64,
    /// Graphs per run, generated from the seed; cycles rotate over them
    /// so one graph's quirks (where the heaviest nodes land) weigh less.
    pub graphs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Threads,
    Tcp,
}

/// How much instrumentation a cycle carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Instr {
    Off,
    Telemetry,
    /// Telemetry, a trace ring and (on threads) the counting job.
    Full,
}

/// One of the run's graphs: its index, SSSP source and reference
/// result. The graph itself is generated anew in every cycle.
struct Input {
    j: usize,
    source: u32,
    reference: Vec<f64>,
}

struct Cycle {
    /// Set-up: generation and partitioned DFS load.
    gen_s: f64,
    load_s: f64,
    load_bytes: u64,
    /// Edges x iterations (or rounds) of the solve.
    work: f64,
    solve_s: f64,
    cycle_s: f64,
    iterations: usize,
    hists: Option<[HistSnapshot; NUM_PHASES]>,
    algo: Option<AlgoTotals>,
    metrics: MetricsSnapshot,
}

/// Bytes stored in `dfs` (one replica).
pub fn stored_bytes(dfs: &Dfs) -> u64 {
    dfs.list("/").iter().filter_map(|f| dfs.len(f).ok()).sum()
}

/// Per-layer metrics of the job service, which the graph workloads do
/// not use.
const JOBS_METRICS: [&str; 9] = [
    "jobs.submit_us_p50",
    "jobs.submit_us_p99",
    "jobs.admit_wait_ms_p99",
    "jobs.run_ms_p50",
    "jobs.backlog_max",
    "jobs.generator_lag_ms",
    "jobs.dlq_entries",
    "jobs.latency_samples",
    "jobs.hold_ms_p99",
];

/// A thread-engine runner over a fresh single-node in-memory DFS.
pub fn runner() -> NativeRunner {
    let spec = Arc::new(ClusterSpec::local(1));
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 1, 1 << 26);
    NativeRunner::new(dfs, metrics)
}

impl Params {
    fn primary(&self) -> Engine {
        match self.kind {
            Kind::SsspTcp => Engine::Tcp,
            _ => Engine::Threads,
        }
    }

    /// Generates the run's `j`-th graph from the run's seed.
    fn generate(&self, j: usize) -> Graph {
        let spec = dataset(self.dataset).expect("known data set");
        let (n, e) = (spec.nodes_at(self.scale), spec.edges_at(self.scale));
        let seed = self.seed * self.graphs as u64 + j as u64;
        match self.kind {
            Kind::SsspTcp => {
                generate_weighted_graph(n, e, spec.degree_dist, sssp_weight_dist(), seed)
            }
            _ => generate_graph(n, e, spec.degree_dist, seed),
        }
    }

    fn load(&self, rt: &NativeRunner, g: &Graph, source: u32) -> Result<(), EngineError> {
        match self.kind {
            Kind::SsspTcp => load_sssp_imr(rt, g, source, self.pairs, "/s", "/t"),
            _ => load_pagerank_imr(rt, g, self.pairs, "/s", "/t"),
        }
    }

    fn config(&self, engine: Engine) -> IterConfig {
        let mut cfg = IterConfig::new("perfbench", self.pairs, self.iters);
        if self.checkpoint > 0 {
            cfg = cfg.with_checkpoint_interval(self.checkpoint);
        }
        if self.kind == Kind::PageRankDelta {
            cfg = cfg
                .with_distance_threshold(self.eps)
                .with_accumulative_mode();
        }
        if engine == Engine::Tcp {
            cfg = cfg.with_tcp_transport();
        }
        cfg
    }

    /// The sequential reference the engine's result must match.
    fn reference(&self, g: &Graph, source: u32) -> Vec<f64> {
        match self.kind {
            Kind::PageRankThreads => reference_pagerank(g, DAMPING, self.iters),
            Kind::SsspTcp => reference_sssp_rounds(g, source, self.iters),
            // Converged: the power iteration's L1 error shrinks by
            // DAMPING per step, so 150 steps leave < 3e-11.
            Kind::PageRankDelta => reference_pagerank(g, DAMPING, 150),
        }
    }

    fn verify(&self, out: &IterOutcome<u32, f64>, reference: &[f64]) -> Result<(), String> {
        let n = reference.len();
        if out.final_state.len() != n {
            return Err(format!(
                "{} keys in the result, {n} expected",
                out.final_state.len()
            ));
        }
        if let Some((i, (k, _))) = out
            .final_state
            .iter()
            .enumerate()
            .find(|(i, (k, _))| *k as usize != *i)
        {
            return Err(format!("key {k} at position {i}"));
        }
        let got = out.final_state.iter().map(|(_, v)| *v);
        match self.kind {
            Kind::PageRankThreads | Kind::SsspTcp if out.iterations != self.iters => Err(format!(
                "{} iterations run, {} expected",
                out.iterations, self.iters
            )),
            Kind::PageRankThreads => {
                for (k, (a, b)) in got.zip(reference).enumerate() {
                    if (a - b).abs() > 1e-9 * b.abs() + 1e-15 {
                        return Err(format!("rank of node {k}: {a} vs reference {b}"));
                    }
                }
                Ok(())
            }
            Kind::SsspTcp => match got.zip(reference).position(|(a, b)| a != *b) {
                Some(k) => Err(format!(
                    "distance of node {k}: {} vs reference {}",
                    out.final_state[k].1, reference[k]
                )),
                None => Ok(()),
            },
            Kind::PageRankDelta => {
                if out.iterations >= self.iters {
                    return Err(format!("no convergence within {} rounds", self.iters));
                }
                // Pending delta mass below eps bounds the L1 error by
                // eps * d / (1 - d); 1e-10 covers the reference's own.
                let l1: f64 = got.zip(reference).map(|(a, b)| (a - b).abs()).sum();
                let tol = self.eps * DAMPING / (1.0 - DAMPING) + 1e-10;
                if l1 > tol {
                    return Err(format!("L1 error {l1:e} above tolerance {tol:e}"));
                }
                Ok(())
            }
        }
    }

    fn worker_spec() -> Result<WorkerSpec, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        Ok(WorkerSpec::new(
            exe,
            vec!["--worker-job".into(), "sssp".into()],
        ))
    }

    fn solve<J: Accumulative<K = u32, S = f64>>(
        &self,
        rt: &NativeRunner,
        job: &J,
        engine: Engine,
    ) -> Result<IterOutcome<u32, f64>, String> {
        let cfg = self.config(engine);
        let r = match (engine, self.kind) {
            (Engine::Threads, Kind::PageRankDelta) => {
                rt.run_accumulative(job, &cfg, "/s", "/t", "/o", &[])
            }
            (Engine::Threads, _) => rt.run(job, &cfg, "/s", "/t", "/o", &[]),
            (Engine::Tcp, _) => {
                rt.run_remote(job, &Self::worker_spec()?, &cfg, "/s", "/t", "/o", &[])
            }
        };
        r.map_err(|e| format!("engine: {e}"))
    }

    /// Solves with the real job, or with it wrapped in [`Counted`].
    fn solve_with<J: Accumulative<K = u32, S = f64>>(
        &self,
        rt: &NativeRunner,
        job: J,
        engine: Engine,
        counted: bool,
    ) -> Result<(IterOutcome<u32, f64>, Option<AlgoTotals>), String> {
        if counted {
            let c = Counted::new(job);
            let out = self.solve(rt, &c, engine)?;
            Ok((out, Some(c.totals())))
        } else {
            Ok((self.solve(rt, &job, engine)?, None))
        }
    }

    /// Generates `input`'s graph and loads it into a fresh engine;
    /// returns the seconds taken.
    fn set_up(&self, input: &Input) -> Result<f64, String> {
        let t0 = Instant::now();
        let g = self.generate(input.j);
        self.load(&runner(), &g, input.source)
            .map_err(|e| format!("load: {e}"))?;
        Ok(t0.elapsed().as_secs_f64())
    }

    /// One closed-loop cycle: generate, load into a fresh engine, solve,
    /// verify.
    fn cycle(&self, input: &Input, engine: Engine, instr: Instr) -> Result<Cycle, String> {
        let start = Instant::now();
        let g = &self.generate(input.j);
        let generated = Instant::now();
        let mut rt = runner();
        let tel = (instr != Instr::Off).then(|| Arc::new(Telemetry::default()));
        if let Some(t) = &tel {
            rt = rt.with_telemetry(Arc::clone(t));
        }
        if instr == Instr::Full {
            rt = rt.with_trace(Arc::new(TraceBuffer::with_capacity(1 << 16)));
        }
        self.load(&rt, g, input.source)
            .map_err(|e| format!("load: {e}"))?;
        let load_s = generated.elapsed().as_secs_f64();
        let load_bytes = stored_bytes(rt.dfs());
        let counted = instr == Instr::Full && engine == Engine::Threads;
        let t0 = Instant::now();
        let (out, algo) = match self.kind {
            Kind::SsspTcp => self.solve_with(&rt, SsspIter, engine, counted)?,
            _ => self.solve_with(
                &rt,
                PageRankIter::new(g.num_nodes() as u64),
                engine,
                counted,
            )?,
        };
        self.verify(&out, &input.reference)?;
        let solve_s = t0.elapsed().as_secs_f64();
        let metrics = rt.metrics().snapshot();
        if metrics.retries_exhausted > 0 {
            return Err(format!(
                "{} net retry budgets exhausted",
                metrics.retries_exhausted
            ));
        }
        if let (Kind::PageRankThreads, Some(a)) = (self.kind, &algo) {
            // Every node maps once per iteration and emits its retained
            // share to itself plus one share per out-edge.
            let (n, e, it) = (
                g.num_nodes() as u64,
                g.num_edges() as u64,
                self.iters as u64,
            );
            if a.map_calls != n * it || a.map_emits != (n + e) * it {
                return Err(format!(
                    "counted {} map calls / {} emits, expected {} / {}",
                    a.map_calls,
                    a.map_emits,
                    n * it,
                    (n + e) * it
                ));
            }
        }
        Ok(Cycle {
            gen_s: (generated - start).as_secs_f64(),
            load_s,
            load_bytes,
            work: (g.num_edges() * out.iterations) as f64,
            solve_s,
            cycle_s: start.elapsed().as_secs_f64(),
            iterations: out.iterations,
            hists: tel.map(|t| t.hist_snapshots()),
            algo,
            metrics,
        })
    }
}

/// Runs the workload for `p.seconds` and fills `report`.
pub fn run(p: &Params, report: &mut Report) -> Result<(), String> {
    // ---- Inputs: each graph's SSSP source and reference result -------
    let mut inputs = Vec::new();
    for j in 0..p.graphs {
        let g = p.generate(j);
        // SSSP starts from the highest out-degree node, so every graph
        // has a large reachable set.
        let source = (0..g.num_nodes() as u32)
            .max_by_key(|&u| (g.out_degree(u), std::cmp::Reverse(u)))
            .unwrap_or(0);
        if j == 0 {
            println!(
                "{:?}: {} graphs of {} nodes, ~{} edges ({} at scale {}), {} pairs, seed {}",
                p.kind,
                p.graphs,
                g.num_nodes(),
                g.num_edges(),
                p.dataset,
                p.scale,
                p.pairs,
                p.seed
            );
        }
        inputs.push(Input {
            j,
            source,
            reference: p.reference(&g, source),
        });
    }

    // ---- Warm-up cycle: verified and counted, not timed -------------
    let warm = p.cycle(&inputs[0], p.primary(), Instr::Off);
    report.outcome("warm-up", warm.map(|_| ()));
    rss::reset_peak()?;

    // ---- Measured cycles, rotating through `variants` ----------------
    let variants: Vec<(Engine, Instr)> = match (p.trace, p.kind) {
        (false, _) => vec![(p.primary(), Instr::Off)],
        (true, Kind::SsspTcp) => vec![
            (Engine::Tcp, Instr::Off),
            (Engine::Tcp, Instr::Telemetry),
            (Engine::Tcp, Instr::Full),
            (Engine::Threads, Instr::Off),
            (Engine::Threads, Instr::Full),
        ],
        (true, _) => vec![
            (Engine::Threads, Instr::Off),
            (Engine::Threads, Instr::Telemetry),
            (Engine::Threads, Instr::Full),
        ],
    };
    let mut done: Vec<Vec<Cycle>> = variants.iter().map(|_| Vec::new()).collect();
    let mut setup_s = Vec::new();
    let window = Instant::now();
    let mut i = 0;
    while window.elapsed().as_secs_f64() < p.seconds || i < MIN_CYCLES * variants.len() {
        let v = i % variants.len();
        let (engine, instr) = variants[v];
        let input = &inputs[i / variants.len() % inputs.len()];
        for _ in 1..if p.trace { 1 } else { SETUPS_PER_CYCLE } {
            match p.set_up(input) {
                Ok(s) => setup_s.push(s),
                Err(err) => report.outcome("set-up", Err(err)),
            }
        }
        let c = p.cycle(input, engine, instr);
        let what = format!("cycle {i} ({engine:?}, {instr:?})");
        match c {
            Ok(c) => {
                report.outcome(&what, Ok(()));
                done[v].push(c);
            }
            Err(err) => report.outcome(&what, Err(err)),
        }
        i += 1;
    }
    let mut peak_mb = rss::peak_mb()?;
    if p.primary() == Engine::Tcp {
        peak_mb += p.pairs as f64 * rss::largest_child_mb()?;
    }
    let solves = |v: usize| done[v].iter().map(|c| c.solve_s).collect::<Vec<_>>();
    let all = || done.iter().flatten();
    setup_s.extend(all().map(|c| c.gen_s + c.load_s));

    if !p.trace {
        let solve_s = median(&solves(0));
        let cycles: Vec<f64> = done[0].iter().map(|c| c.cycle_s).collect();
        let rates: Vec<f64> = done[0].iter().map(|c| c.work / c.solve_s).collect();
        report.set("setup_s", median(&setup_s));
        report.set("solve_s", solve_s);
        report.set("edges_per_s", median(&rates));
        report.set("jobs_per_s", 1.0 / median(&cycles));
        report.set("job_latency_p90_ms", percentile(&cycles, 0.9) * 1e3);
        report.set("peak_rss_mb", peak_mb);
        let iters: Vec<f64> = done[0].iter().map(|c| c.iterations as f64).collect();
        println!(
            "{} cycles; solve median {solve_s:.4} s; iterations median {}",
            cycles.len(),
            median(&iters)
        );
        return Ok(());
    }

    // ---- Per-layer metrics from the traced cycles --------------------
    for name in JOBS_METRICS {
        report.set(name, 0.0);
    }
    let cycles: Vec<f64> = all().map(|c| c.cycle_s).collect();
    report.set("jobs.latency_p99_ms", percentile(&cycles, 0.99) * 1e3);
    report.set(
        "graph.generate_s",
        median(&all().map(|c| c.gen_s).collect::<Vec<_>>()),
    );
    report.set(
        "dfs.load_s",
        median(&all().map(|c| c.load_s).collect::<Vec<_>>()),
    );
    report.set(
        "dfs.load_bytes",
        median(&all().map(|c| c.load_bytes as f64).collect::<Vec<_>>()),
    );

    let plain = median(&solves(0));
    let full_idx = 2;
    let full = &done[full_idx];
    report.set(
        "trace.overhead_frac",
        median(&solves(full_idx)) / plain - 1.0,
    );
    let tel_pairs: Vec<f64> = done[0]
        .iter()
        .zip(&done[1])
        .map(|(a, b)| b.solve_s / a.solve_s - 1.0)
        .collect();
    let (q1, q3) = quartiles(&tel_pairs);
    report.set("telemetry.overhead_frac", median(&tel_pairs));
    report.set("telemetry.overhead_frac_iqr", q3 - q1);

    let counted: &[Cycle] = match p.kind {
        Kind::SsspTcp => &done[4],
        _ => full,
    };
    let algo: Vec<AlgoTotals> = counted.iter().filter_map(|c| c.algo).collect();
    set_algorithms(report, &algo);
    set_native(report, full, p.pairs);
    let last = &full.last().ok_or("no traced cycle completed")?.metrics;
    set_counters(
        report,
        last,
        full.last().map_or(0, |c| c.iterations) as f64,
        1.0,
    );
    report.set(
        "net.tcp_overhead_ms_per_iter",
        match p.kind {
            Kind::SsspTcp => (plain - median(&solves(3))) * 1e3 / p.iters as f64,
            _ => 0.0,
        },
    );

    // ---- Replays at this workload's types and volumes ----------------
    let g = &p.generate(0);
    let n = g.num_nodes();
    let init = 1.0 / n as f64;
    let (costs, part_bytes) = match p.kind {
        Kind::SsspTcp => {
            let state: Vec<(u32, f64)> = inputs[0]
                .reference
                .iter()
                .copied()
                .enumerate()
                .map(|(k, d)| (k as u32, d))
                .collect();
            let emitted = replay::map_outputs(&SsspIter, &state, &g.weighted_records(), p.pairs);
            let costs = replay::replay_records(&emitted, |k, m| SsspIter.partition(k, m), 3);
            (costs, encode_pairs(&state).len() / p.pairs)
        }
        _ => {
            let job = PageRankIter::new(n as u64);
            let state: Vec<(u32, f64)> = (0..n as u32).map(|k| (k, init)).collect();
            let adj = g.adjacency_records();
            let emitted = if p.kind == Kind::PageRankDelta {
                replay::extract_outputs(&job, &state, &adj, p.pairs)
            } else {
                replay::map_outputs(&job, &state, &adj, p.pairs)
            };
            let costs = replay::replay_records(&emitted, |k, m| job.partition(k, m), 3);
            (costs, encode_pairs(&state).len() / p.pairs)
        }
    };
    set_records(report, &costs);
    set_io(report, costs.segment_bytes as usize, part_bytes)?;
    Ok(())
}

pub fn set_records(report: &mut Report, c: &RecordCosts) {
    report.set("records.partition_ns", c.partition_ns);
    report.set("records.sort_ns", c.sort_ns);
    report.set("records.encode_ns", c.encode_ns);
    report.set("records.decode_ns", c.decode_ns);
    report.set("records.merge_ns", c.merge_ns);
    report.set("records.group_ns", c.group_ns);
    report.set("records.segment_bytes", c.segment_bytes);
}

/// Frame round trip at `segment` bytes and DFS put/read at `part`
/// bytes.
pub fn set_io(report: &mut Report, segment: usize, part: usize) -> Result<(), String> {
    let (rt_us, mb_s) = replay::frame_round_trip(segment, Duration::from_millis(400))?;
    report.set("net.frame_rt_us", rt_us);
    report.set("net.frame_mb_s", mb_s);
    let (put_us, read_us) = replay::dfs_ops(part, Duration::from_millis(200))?;
    report.set("dfs.put_atomic_us", put_us);
    report.set("dfs.read_us", read_us);
    Ok(())
}

/// `algorithms.*`: medians over the counted solves.
pub fn set_algorithms(report: &mut Report, algo: &[AlgoTotals]) {
    let med = |f: fn(&AlgoTotals) -> f64| median(&algo.iter().map(f).collect::<Vec<_>>());
    report.set("algorithms.map_calls", med(|a| a.map_calls as f64));
    report.set("algorithms.map_emits", med(|a| a.map_emits as f64));
    report.set("algorithms.map_busy_s", med(|a| a.map_busy_s));
    report.set("algorithms.reduce_calls", med(|a| a.reduce_calls as f64));
    report.set("algorithms.reduce_values", med(|a| a.reduce_values as f64));
    report.set("algorithms.reduce_busy_s", med(|a| a.reduce_busy_s));
    report.set("algorithms.distance_busy_s", med(|a| a.distance_busy_s));
}

/// `native.*` from the phase histograms: per-solve phase totals summed
/// over pairs, p99 of one phase instance, and the share of
/// `pairs × solve_s` the phases cover.
fn set_native(report: &mut Report, cycles: &[Cycle], pairs: usize) {
    let hists: Vec<([HistSnapshot; NUM_PHASES], f64)> = cycles
        .iter()
        .filter_map(|c| c.hists.clone().map(|h| (h, pairs as f64 * c.solve_s)))
        .collect();
    set_phases(report, &hists);
}

/// `native.*` over `(histograms, capacity_s)` samples, where capacity is
/// the pair-seconds the phases could have covered.
pub fn set_phases(report: &mut Report, hists: &[([HistSnapshot; NUM_PHASES], f64)]) {
    let med = |f: &dyn Fn(&[HistSnapshot; NUM_PHASES], f64) -> f64| {
        median(&hists.iter().map(|(h, s)| f(h, *s)).collect::<Vec<_>>())
    };
    let sum_s =
        |p: Phase| move |h: &[HistSnapshot; NUM_PHASES], _: f64| h[p.index()].sum() as f64 / 1e9;
    let p99_ms =
        |p: Phase| move |h: &[HistSnapshot; NUM_PHASES], _: f64| h[p.index()].p99() as f64 / 1e6;
    report.set("native.map_s", med(&sum_s(Phase::Map)));
    report.set("native.map_p99_ms", med(&p99_ms(Phase::Map)));
    report.set("native.reduce_s", med(&sum_s(Phase::Reduce)));
    report.set("native.reduce_p99_ms", med(&p99_ms(Phase::Reduce)));
    report.set("native.handoff_s", med(&sum_s(Phase::Handoff)));
    report.set("native.barrier_wait_s", med(&sum_s(Phase::BarrierWait)));
    report.set(
        "native.checkpoint_write_s",
        med(&sum_s(Phase::CheckpointWrite)),
    );
    report.set(
        "native.phase_coverage",
        med(&|h, cap| h.iter().map(|x| x.sum() as f64 / 1e9).sum::<f64>() / cap),
    );
}

/// Engine counters of `per` solves, divided down to one solve.
pub fn set_counters(report: &mut Report, m: &MetricsSnapshot, rounds: f64, per: f64) {
    let one = |c: u64| c as f64 / per;
    report.set(
        "net.shuffle_bytes",
        one(m.shuffle_local_bytes + m.shuffle_remote_bytes),
    );
    report.set("net.corrupt_frames", one(m.corrupt_frames));
    report.set("net.reconnect_attempts", one(m.reconnect_attempts));
    report.set("dfs.checkpoint_bytes", one(m.checkpoint_bytes));
    report.set("native.map_input_records", one(m.map_input_records));
    report.set("native.reduce_input_records", one(m.reduce_input_records));
    report.set("core.rounds", rounds);
    report.set("core.deltas_sent", one(m.deltas_sent));
    report.set(
        "core.deltas_per_round",
        one(m.deltas_sent) / rounds.max(1.0),
    );
    report.set("core.termination_checks", one(m.termination_checks));
}
