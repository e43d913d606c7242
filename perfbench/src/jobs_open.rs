//! The job-service workload: an open loop of small mixed jobs arriving
//! at a fixed rate into a `JobService` with a fixed slot count.
//!
//! One thread submits arrivals and drives the service's scheduler
//! (`run_until_idle`), sleeping until the next arrival while the service
//! is idle; a second polls for completions. A job's latency runs from
//! its due time to the first poll that sees it completed.
//! Throughput comes from closed bursts after the open loop, which keep
//! every slot busy.

use crate::counted::{AlgoTotals, Counted};
use crate::graph::{
    runner, set_algorithms, set_counters, set_io, set_phases, set_records, stored_bytes,
};
use crate::replay;
use crate::rss;
use crate::stats::{median, percentile, quartiles, Report};
use imapreduce::{load_partitioned, IterConfig, IterativeJob};
use imr_algorithms::pagerank::{load_pagerank_imr, reference_pagerank, PageRankIter};
use imr_algorithms::sssp::{load_sssp_imr, reference_sssp_rounds, SsspIter};
use imr_graph::{
    generate_graph, generate_weighted_graph, pagerank_degree_dist, sssp_degree_dist,
    sssp_weight_dist, Graph,
};
use imr_jobs::{AlgoSpec, EngineSel, Halve, JobPhase, JobService, JobSpec, ServiceConfig};
use imr_native::NativeRunner;
use imr_records::{decode_pairs, encode_pairs};
use imr_simcluster::TaskClock;
use imr_telemetry::{HistSnapshot, Telemetry, NUM_PHASES};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cold starts (construction + one job) before and again after the
/// open loop; `setup_s` is the median of all of them.
const SETUPS: usize = 24;
/// Closed bursts after the open loop, and jobs per burst (two blocks
/// of the mix); `jobs_per_s` and `edges_per_s` are medians over them.
const BURSTS: usize = 8;
const BURST: u64 = 12;
/// Completion poll interval of the watcher.
const POLL: Duration = Duration::from_micros(500);
/// Length of the alternating untraced/traced segments of a traced run.
const SEGMENT: f64 = 1.0;

/// The workload's settings.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Arrivals per second.
    pub rate: f64,
    /// Fleet task slots.
    pub slots: usize,
    /// Keys of a halve job; nodes of a PageRank or SSSP job.
    pub scale: usize,
    pub iters: usize,
}

#[derive(Debug, Clone, Copy)]
struct Planned {
    algo: AlgoSpec,
    tasks: usize,
    seed: u64,
}

/// splitmix64: the job mix is a pure function of the run's seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Params {
    /// Arrival `i`'s job. Every block of six arrivals holds each
    /// (algorithm, width) pair once, in a seeded order, so the mix is
    /// the same on every seed and only the order and inputs vary.
    fn plan(&self, i: u64) -> Planned {
        let block = i / 6;
        let mut order = [0u64, 1, 2, 3, 4, 5];
        for j in (1..6).rev() {
            let k = mix(self.seed, block * 6 + j as u64) % (j as u64 + 1);
            order.swap(j, k as usize);
        }
        let combo = order[(i % 6) as usize];
        Planned {
            algo: [AlgoSpec::Halve, AlgoSpec::PageRank, AlgoSpec::Sssp][(combo % 3) as usize],
            tasks: 1 + (combo / 3) as usize,
            seed: mix(self.seed ^ 0x5EED, i) >> 16,
        }
    }

    fn spec(&self, i: u64, j: Planned) -> JobSpec {
        JobSpec::new(format!("open-{i}"), j.algo, EngineSel::Threads, j.seed)
            .with_scale(self.scale)
            .with_tasks(j.tasks)
            .with_max_iters(self.iters)
    }

    /// The generated graph a job runs on, exactly as the service
    /// generates it.
    fn graph(&self, j: Planned) -> Option<Graph> {
        let n = self.scale;
        match j.algo {
            AlgoSpec::PageRank => Some(generate_graph(
                n,
                (n * 4) as u64,
                pagerank_degree_dist(),
                j.seed,
            )),
            AlgoSpec::Sssp => Some(generate_weighted_graph(
                n,
                (n * 4) as u64,
                sssp_degree_dist(),
                sssp_weight_dist(),
                j.seed,
            )),
            _ => None,
        }
    }

    /// Checks a completed job's journaled result against a sequential
    /// reference.
    fn verify(&self, svc: &JobService, id: u64, j: Planned) -> Result<(), String> {
        let rec = svc
            .result(id)
            .map_err(|e| format!("result read: {e}"))?
            .ok_or("completed without a result")?;
        if rec.iterations != self.iters as u64 {
            return Err(format!(
                "{} iterations, {} expected",
                rec.iterations, self.iters
            ));
        }
        let state: Vec<(u32, f64)> =
            decode_pairs(rec.state).map_err(|e| format!("result decode: {e}"))?;
        let reference: Vec<f64> = match j.algo {
            AlgoSpec::Halve => vec![1024.0 / f64::powi(2.0, self.iters as i32); self.scale],
            AlgoSpec::PageRank => {
                reference_pagerank(&self.graph(j).expect("graph job"), 0.85, self.iters)
            }
            _ => reference_sssp_rounds(&self.graph(j).expect("graph job"), 0, self.iters),
        };
        if state.len() != reference.len() {
            return Err(format!(
                "{} keys, {} expected",
                state.len(),
                reference.len()
            ));
        }
        for (i, ((k, a), b)) in state.iter().zip(&reference).enumerate() {
            let exact = j.algo != AlgoSpec::PageRank;
            let bad = *k as usize != i
                || if exact {
                    a != b
                } else {
                    (a - b).abs() > 1e-9 * b.abs() + 1e-15
                };
            if bad {
                return Err(format!("key {k}: {a} vs reference {b}"));
            }
        }
        Ok(())
    }
}

#[derive(Default, Clone, Copy)]
struct Seen {
    running: Option<Instant>,
    done: Option<Instant>,
}

/// What the watcher thread saw: per job (by submission index), when it
/// was first seen running and completed.
#[derive(Default)]
struct Watch {
    ids: HashMap<u64, usize>,
    seen: Vec<Seen>,
    backlog_max: usize,
    submitted: usize,
    finished: usize,
    stop: bool,
}

/// Polls the service for completions (and, in traced segments,
/// admissions) until told to stop, with one last poll after that.
fn watch(svc: &JobService, w: &Mutex<Watch>, traced: impl Fn(Instant) -> bool) {
    let mut cursor = 0;
    loop {
        let stopping = w.lock().expect("watch lock").stop;
        let order = svc.completion_order();
        let now = Instant::now();
        let status = traced(now).then(|| svc.status());
        {
            let mut w = w.lock().expect("watch lock");
            for id in &order[cursor..] {
                let i = w.ids[id];
                w.seen[i].done = Some(now);
            }
            w.finished += order.len() - cursor;
            for row in status.iter().flatten() {
                if row.phase == JobPhase::Running {
                    if let Some(&i) = w.ids.get(&row.id) {
                        w.seen[i].running.get_or_insert(now);
                    }
                }
            }
            w.backlog_max = w.backlog_max.max(w.submitted - w.finished);
        }
        if stopping {
            return;
        }
        cursor = order.len();
        std::thread::sleep(POLL);
    }
}

/// Runs the workload for `p.seconds` and fills `report`.
///
/// `JobService::submit` must not race `run_until_idle` (a submit in
/// flight while the scheduler journals or decides it is idle can fail
/// or strand the job), so one thread does both in turn: it submits every
/// arrival that is due, drains the service, and sleeps until the next
/// arrival. Arrivals that fall due while the service is busy wait in
/// the benchmark until the drain ends; their latency counts that wait.
pub fn run(p: &Params, report: &mut Report) -> Result<(), String> {
    let cfg = ServiceConfig::default().with_slots(p.slots);
    let mut setup_s = Vec::new();
    let cold_starts = |setup_s: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUPS {
            let k = setup_s.len() as u64;
            let t0 = Instant::now();
            let svc = JobService::new(cfg.clone());
            let spec = p.spec(
                u64::MAX - k,
                Planned {
                    algo: AlgoSpec::Halve,
                    tasks: 1,
                    seed: k,
                },
            );
            svc.submit(spec)
                .map_err(|e| format!("cold-start submit: {e}"))?;
            svc.run_until_idle()
                .map_err(|e| format!("cold start: {e}"))?;
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        Ok(())
    };
    cold_starts(&mut setup_s)?;
    rss::reset_peak()?;
    let svc = JobService::new(cfg.clone());
    let total = (p.seconds * p.rate).round().max(1.0) as usize;
    println!(
        "jobs-open: {total} jobs at {} jobs/s into {} slots, seed {}",
        p.rate, p.slots, p.seed
    );

    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / p.rate);
    let traced_at = |t: Instant| p.trace && ((t - start).as_secs_f64() / SEGMENT) as u64 % 2 == 1;
    let w = Mutex::new(Watch {
        seen: vec![Seen::default(); total],
        ..Watch::default()
    });
    let (mut submit_us, mut lag_ms, mut hold_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut errors = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| watch(&svc, &w, traced_at));
        let mut next = 0;
        while next < total {
            let wake = Instant::now();
            if wake < due(next) {
                std::thread::sleep(due(next) - wake);
                lag_ms.push((Instant::now() - due(next)).as_secs_f64() * 1e3);
            }
            while next < total && due(next) <= Instant::now() {
                let t0 = Instant::now();
                match svc.submit(p.spec(next as u64, p.plan(next as u64))) {
                    Ok(id) => {
                        submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        hold_ms.push((t0 - due(next)).as_secs_f64() * 1e3);
                        let mut w = w.lock().expect("watch lock");
                        w.ids.insert(id, next);
                        w.submitted += 1;
                    }
                    Err(e) => errors.push(format!("submit of arrival {next}: {e}")),
                }
                next += 1;
            }
            if let Err(e) = svc.run_until_idle() {
                errors.push(format!("scheduler: {e}"));
            }
        }
        w.lock().expect("watch lock").stop = true;
    });
    let peak_mb = rss::peak_mb()?;
    for e in errors {
        report.outcome("service call", Err(e));
    }
    let w = w.into_inner().expect("watch lock");

    // ---- Verdicts --------------------------------------------------
    for row in &svc.status() {
        let i = w.ids[&row.id];
        let j = p.plan(i as u64);
        let verdict = match row.phase {
            JobPhase::Completed if w.seen[i].done.is_none() => {
                Err("completion never observed".into())
            }
            JobPhase::Completed => p.verify(&svc, row.id, j),
            other => Err(format!("ended {other:?}: {}", row.reason)),
        };
        report.outcome(&format!("job {} ({:?})", row.id, j.algo), verdict);
    }
    let dlq = svc.dlq().map_err(|e| format!("dlq read: {e}"))?;
    report.outcome(
        "dead-letter queue",
        if dlq.is_empty() {
            Ok(())
        } else {
            Err(format!("{} entries", dlq.len()))
        },
    );
    let m = svc.metrics().snapshot();
    if m.retries_exhausted > 0 {
        report.outcome(
            "net retries",
            Err(format!("{} budgets exhausted", m.retries_exhausted)),
        );
    }

    let lat = |traced: bool| -> Vec<f64> {
        (0..total)
            .filter(|&i| traced_at(due(i)) == traced)
            .filter_map(|i| Some((w.seen[i].done? - due(i)).as_secs_f64()))
            .collect()
    };
    // The mean over the six job kinds of each kind's median latency:
    // robust to stragglers, and unlike the overall median it does not
    // jump between kinds when their latencies shift past each other.
    let kind_median = |traced: bool| -> f64 {
        let mut by_kind: HashMap<(u8, usize), Vec<f64>> = HashMap::new();
        for i in (0..total).filter(|&i| traced_at(due(i)) == traced) {
            if let Some(done) = w.seen[i].done {
                let j = p.plan(i as u64);
                let kind = (j.algo != AlgoSpec::Halve) as u8 + (j.algo == AlgoSpec::Sssp) as u8;
                by_kind
                    .entry((kind, j.tasks))
                    .or_default()
                    .push((done - due(i)).as_secs_f64());
            }
        }
        by_kind.values().map(|v| median(v)).sum::<f64>() / by_kind.len().max(1) as f64
    };
    let latency = lat(false);
    let completed = w.seen.iter().filter(|s| s.done.is_some()).count();
    let (p50, p90, p99) = (
        median(&latency),
        percentile(&latency, 0.9),
        percentile(&latency, 0.99),
    );
    println!(
        "{} latency samples: mean of per-kind medians {:.2} ms, p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms; held for a busy service: p50 {:.2} ms, max {:.2} ms; generator lag max {:.3} ms",
        latency.len(),
        kind_median(false) * 1e3,
        p50 * 1e3,
        p90 * 1e3,
        p99 * 1e3,
        median(&hold_ms),
        hold_ms.iter().copied().fold(0.0, f64::max),
        lag_ms.iter().copied().fold(0.0, f64::max)
    );

    if !p.trace {
        let rates = bursts(p, &cfg, report);
        println!(
            "{BURSTS} closed bursts of {BURST} jobs: jobs/s {:?}",
            rates.iter().map(|r| r.0.round()).collect::<Vec<_>>()
        );
        cold_starts(&mut setup_s)?;
        report.set("setup_s", median(&setup_s));
        report.set("solve_s", kind_median(false));
        report.set(
            "edges_per_s",
            median(&rates.iter().map(|r| r.1).collect::<Vec<_>>()),
        );
        report.set(
            "jobs_per_s",
            median(&rates.iter().map(|r| r.0).collect::<Vec<_>>()),
        );
        report.set("job_latency_p90_ms", p90 * 1e3);
        report.set("peak_rss_mb", peak_mb);
        return Ok(());
    }

    // ---- Per-layer metrics ------------------------------------------
    let traced = lat(true);
    report.set(
        "trace.overhead_frac",
        kind_median(true) / kind_median(false) - 1.0,
    );
    let (mut admit_ms, mut run_ms) = (Vec::new(), Vec::new());
    for i in (0..total).filter(|&i| traced_at(due(i))) {
        if let (Some(r), Some(c)) = (w.seen[i].running, w.seen[i].done) {
            admit_ms.push((r.max(due(i)) - due(i)).as_secs_f64() * 1e3);
            run_ms.push((c.max(r) - r).as_secs_f64() * 1e3);
        }
    }
    report.set("jobs.submit_us_p50", median(&submit_us));
    report.set("jobs.submit_us_p99", percentile(&submit_us, 0.99));
    report.set("jobs.admit_wait_ms_p99", percentile(&admit_ms, 0.99));
    report.set("jobs.run_ms_p50", median(&run_ms));
    report.set("jobs.hold_ms_p99", percentile(&hold_ms, 0.99));
    report.set("jobs.backlog_max", w.backlog_max as f64);
    report.set(
        "jobs.generator_lag_ms",
        lag_ms.iter().copied().fold(0.0, f64::max),
    );
    report.set("jobs.dlq_entries", dlq.len() as f64);
    report.set(
        "jobs.latency_samples",
        (latency.len() + traced.len()) as f64,
    );
    report.set("jobs.latency_p99_ms", p99 * 1e3);

    // Phase histograms per job; capacity = its slots × its run time.
    let hists: Vec<([HistSnapshot; NUM_PHASES], f64)> = svc
        .job_telemetry()
        .into_iter()
        .filter_map(|(id, tel)| {
            let i = w.ids[&id];
            let s = w.seen[i];
            let run = (s.done? - s.running?).as_secs_f64();
            Some((tel.hist_snapshots(), p.plan(i as u64).tasks as f64 * run))
        })
        .collect();
    set_phases(report, &hists);
    set_counters(report, &m, p.iters as f64, completed.max(1) as f64);
    report.set("net.tcp_overhead_ms_per_iter", 0.0);

    layer_replays(p, report)
}

/// Drains [`BURSTS`] closed bursts of [`BURST`] jobs, each submitted
/// all at once, through a fresh service and verifies every job; returns
/// each burst's (jobs/s, nominal edge-iterations/s). The open loop runs
/// far below capacity, so its own throughput would only read back the
/// arrival rate; a burst keeps both slots busy.
fn bursts(p: &Params, cfg: &ServiceConfig, report: &mut Report) -> Vec<(f64, f64)> {
    let svc = JobService::new(cfg.clone());
    let mut jobs = Vec::new();
    let mut rates = Vec::new();
    for b in 0..BURSTS as u64 {
        // Arrival indices past the open loop's, starting on a block of
        // the mix, so every burst holds each job kind twice.
        let first = 6_000_000 + b * BURST;
        let t0 = Instant::now();
        let mut graph_jobs = 0;
        for i in first..first + BURST {
            let j = p.plan(i);
            match svc.submit(p.spec(i, j)) {
                Ok(id) => jobs.push((id, j)),
                Err(e) => report.outcome("burst submit", Err(e.to_string())),
            }
            graph_jobs += (j.algo != AlgoSpec::Halve) as usize;
        }
        if let Err(e) = svc.run_until_idle() {
            report.outcome("burst scheduler", Err(e.to_string()));
        }
        let s = t0.elapsed().as_secs_f64();
        rates.push((
            BURST as f64 / s,
            (graph_jobs * p.scale * 4 * p.iters) as f64 / s,
        ));
    }
    let phases: HashMap<u64, (JobPhase, String)> = svc
        .status()
        .into_iter()
        .map(|row| (row.id, (row.phase, row.reason)))
        .collect();
    for (id, j) in jobs {
        let verdict = match &phases[&id] {
            (JobPhase::Completed, _) => p.verify(&svc, id, j),
            (other, reason) => Err(format!("ended {other:?}: {reason}")),
        };
        report.outcome(&format!("burst job {id} ({:?})", j.algo), verdict);
    }
    report.outcome(
        "burst dead-letter queue",
        match svc.dlq() {
            Ok(dlq) if dlq.is_empty() => Ok(()),
            Ok(dlq) => Err(format!("{} entries", dlq.len())),
            Err(e) => Err(format!("dlq read: {e}")),
        },
    );
    rates
}

/// The job mix's algorithm work, instrumentation cost, set-up layers,
/// shuffle and I/O, replayed outside the service on the same inputs
/// and engine.
fn layer_replays(p: &Params, report: &mut Report) -> Result<(), String> {
    let kinds = [AlgoSpec::Halve, AlgoSpec::PageRank, AlgoSpec::Sssp];
    let plan = |algo| Planned {
        algo,
        tasks: p.slots,
        seed: p.seed,
    };
    let (mut gen_s, mut load_s, mut load_bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..5 {
        let t0 = Instant::now();
        let g = p.graph(plan(AlgoSpec::PageRank)).expect("graph job");
        let t1 = Instant::now();
        let rt = runner();
        load_pagerank_imr(&rt, &g, p.slots, "/s", "/t").map_err(|e| format!("load: {e}"))?;
        gen_s.push((t1 - t0).as_secs_f64());
        load_s.push(t1.elapsed().as_secs_f64());
        load_bytes = stored_bytes(rt.dfs());
    }
    report.set("graph.generate_s", median(&gen_s));
    report.set("dfs.load_s", median(&load_s));
    report.set("dfs.load_bytes", load_bytes as f64);

    // One job of each kind with the counting wrapper, then plain and
    // telemetry-only runs in alternating pairs for about a second.
    let mut algo = Vec::new();
    for &k in &kinds {
        algo.push(
            run_small(p, plan(k), Mode::Counted)?
                .1
                .expect("counted run"),
        );
    }
    let per_job = |f: fn(&AlgoTotals) -> u64| algo.iter().map(f).sum::<u64>() / algo.len() as u64;
    let per_job_s = |f: fn(&AlgoTotals) -> f64| algo.iter().map(f).sum::<f64>() / algo.len() as f64;
    set_algorithms(
        report,
        &[AlgoTotals {
            map_calls: per_job(|a| a.map_calls),
            map_emits: per_job(|a| a.map_emits),
            map_busy_s: per_job_s(|a| a.map_busy_s),
            reduce_calls: per_job(|a| a.reduce_calls),
            reduce_values: per_job(|a| a.reduce_values),
            reduce_busy_s: per_job_s(|a| a.reduce_busy_s),
            distance_busy_s: per_job_s(|a| a.distance_busy_s),
        }],
    );
    let mut ratios = Vec::new();
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed() < Duration::from_secs(1) || ratios.len() < 5 {
        let j = plan(kinds[i % kinds.len()]);
        let plain = run_small(p, j, Mode::Plain)?.0;
        let tel = run_small(p, j, Mode::Telemetry)?.0;
        ratios.push(tel / plain - 1.0);
        i += 1;
    }
    let (q1, q3) = quartiles(&ratios);
    report.set("telemetry.overhead_frac", median(&ratios));
    report.set("telemetry.overhead_frac_iqr", q3 - q1);

    let g = p.graph(plan(AlgoSpec::PageRank)).expect("graph job");
    let job = PageRankIter::new(g.num_nodes() as u64);
    let state: Vec<(u32, f64)> = (0..g.num_nodes() as u32)
        .map(|k| (k, 1.0 / g.num_nodes() as f64))
        .collect();
    let emitted = replay::map_outputs(&job, &state, &g.adjacency_records(), p.slots);
    let costs = replay::replay_records(&emitted, |k, m| job.partition(k, m), 21);
    set_records(report, &costs);
    // A job's result record is its whole encoded state.
    set_io(
        report,
        costs.segment_bytes as usize,
        encode_pairs(&state).len(),
    )
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Telemetry,
    Counted,
}

/// One job of the mix on the thread engine, outside the service, with
/// the service's configuration: `(solve seconds, counted totals)`.
fn run_small(p: &Params, j: Planned, mode: Mode) -> Result<(f64, Option<AlgoTotals>), String> {
    let mut rt = runner();
    if mode == Mode::Telemetry {
        rt = rt.with_telemetry(Arc::new(Telemetry::default()));
    }
    let cfg = IterConfig::new("small", j.tasks, p.iters).with_checkpoint_interval(2);
    fn err(e: impl std::fmt::Display) -> String {
        format!("load: {e}")
    }
    match j.algo {
        AlgoSpec::Halve => {
            let keys = 0..p.scale as u32;
            let mut clock = TaskClock::default();
            let part = |k: &u32, n: usize| Halve.partition(k, n);
            load_partitioned(
                rt.dfs(),
                "/s",
                keys.clone().map(|k| (k, 1024.0)).collect(),
                j.tasks,
                part,
                &mut clock,
            )
            .map_err(err)?;
            load_partitioned(
                rt.dfs(),
                "/t",
                keys.map(|k| (k, ())).collect(),
                j.tasks,
                part,
                &mut clock,
            )
            .map_err(err)?;
            timed(&rt, Halve, &cfg, mode)
        }
        AlgoSpec::PageRank => {
            let g = p.graph(j).expect("graph job");
            load_pagerank_imr(&rt, &g, j.tasks, "/s", "/t").map_err(err)?;
            timed(&rt, PageRankIter::new(g.num_nodes() as u64), &cfg, mode)
        }
        _ => {
            let g = p.graph(j).expect("graph job");
            load_sssp_imr(&rt, &g, 0, j.tasks, "/s", "/t").map_err(err)?;
            timed(&rt, SsspIter, &cfg, mode)
        }
    }
}

fn timed<J: IterativeJob>(
    rt: &NativeRunner,
    job: J,
    cfg: &IterConfig,
    mode: Mode,
) -> Result<(f64, Option<AlgoTotals>), String> {
    let t0 = Instant::now();
    if mode == Mode::Counted {
        let c = Counted::new(job);
        rt.run(&c, cfg, "/s", "/t", "/o", &[])
            .map_err(|e| e.to_string())?;
        Ok((t0.elapsed().as_secs_f64(), Some(c.totals())))
    } else {
        rt.run(&job, cfg, "/s", "/t", "/o", &[])
            .map_err(|e| e.to_string())?;
        Ok((t0.elapsed().as_secs_f64(), None))
    }
}
