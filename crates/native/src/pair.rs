//! The per-iteration loop of one persistent map/reduce pair, shared by
//! the in-process thread backend and the multi-process TCP backend.
//!
//! The data work of an iteration is the core crate's step functions
//! (`map_step`/`reduce_step`, `delta_send_step`/`delta_merge_step`) —
//! the same ones the simulation engine drives, here with the no-op cost
//! observer. This module owns what the native engines add around them:
//! moving segments over the transport, barriers, and the supervision
//! surface. The two iteration bodies — map/reduce iterations
//! ([`pair_loop`]) and delta-accumulative check epochs
//! ([`delta_loop`]) — run under one driver, which owns the shared
//! per-iteration tail: emulated slowdowns, the iteration-end record and
//! heartbeat, the distance exchange, checkpoints, finishing and the
//! scripted kill/crash/hang.
//!
//! All interaction with the rest of the job — the shuffle fabric, the
//! barrier, the one2all broadcast, termination voting, DFS access for
//! loads and checkpoints, heartbeats and the hang primitive — goes
//! through the [`PairEnv`] trait, so the exact same loop runs on a
//! thread over channels and shared slots, or in a separate OS process
//! over a TCP connection to the coordinator.
//!
//! Determinism note: collective payloads cross [`PairEnv`] as
//! `encode_pairs` bytes. The workspace codec is lossless (f64 travels
//! as its full 8-byte pattern), so decode∘encode is the identity and
//! the broadcast state both backends reassemble is bit-identical to
//! the simulation engine's typed hand-off.

use crate::setup::{PairCfg, PairDirs, PairPlan};
use bytes::Bytes;
use imapreduce::{
    delta_merge_step, delta_send_step, map_step, reduce_step, Accumulative, DeltaStore, ExecMode,
    IterativeJob,
};
use imr_dfs::snapshot_dir;
use imr_mapreduce::EngineError;
use imr_net::{Closed, IterCounts, Transport};
use imr_records::{decode_pairs, encode_pairs, sort_run, CodecError};
use imr_simcluster::{Metrics, MetricsHandle};
use imr_telemetry::{Gauge, Phase};
use imr_trace::{TraceEvent, TraceKind};
use std::time::{Duration, Instant};

/// How one pair's generation ended. `Finished` carries the pair's
/// final partition already encoded, so the variant crosses the process
/// boundary unchanged.
pub(crate) enum PairOutcome {
    /// Ran to termination; carries the encoded final partition (sorted)
    /// and the absolute iteration the job stopped at.
    Finished {
        final_data: Bytes,
        iterations: usize,
    },
    /// A scripted kill fired right after completing this iteration.
    Induced { at_iteration: usize },
    /// A scripted hang fired after this iteration; the pair went silent
    /// until the generation was poisoned.
    Stalled { at_iteration: usize },
    /// A peer died first: the transport closed or the generation was
    /// poisoned under us.
    Aborted,
    /// The crash hook fired: the caller must terminate the process
    /// abruptly, without reporting any outcome.
    Vanish,
}

/// Why a pair stopped early: either the generation is being torn down
/// (recoverable; the pair aborts), or a real storage/codec failure
/// (fatal; the run errors out).
pub(crate) enum EnvFail {
    Closed,
    Error(EngineError),
}

impl From<EngineError> for EnvFail {
    fn from(e: EngineError) -> Self {
        EnvFail::Error(e)
    }
}

impl From<imr_dfs::DfsError> for EnvFail {
    fn from(e: imr_dfs::DfsError) -> Self {
        EnvFail::Error(e.into())
    }
}

impl From<CodecError> for EnvFail {
    fn from(e: CodecError) -> Self {
        EnvFail::Error(e.into())
    }
}

impl From<Closed> for EnvFail {
    fn from(_: Closed) -> Self {
        EnvFail::Closed
    }
}

/// Everything one pair's generation runs with.
pub(crate) struct PairCtx<'a> {
    pub q: usize,
    pub cfg: &'a PairCfg,
    pub dirs: &'a PairDirs,
    pub plan: &'a PairPlan,
    /// The checkpoint epoch this generation starts from.
    pub epoch: usize,
    pub metrics: &'a MetricsHandle,
    /// The run's start: trace and sample stamps are offsets from it.
    pub started: Instant,
}

impl PairCtx<'_> {
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Tags `event` with this pair and iteration `it` (the environment
    /// stamps node and generation).
    fn tag(&self, event: TraceEvent, it: usize) -> TraceEvent {
        event.tagged(0, self.q as u32, it as u32, 0)
    }
}

/// What a pair records as it runs, for the supervisor.
#[derive(Default)]
pub(crate) struct PairLog {
    /// Per-iteration `(local_distance, had_previous_snapshot)`, one
    /// entry per iteration the pair *completed* this generation.
    pub local_dist: Vec<(f64, bool)>,
    /// Wall-clock offset of each completed iteration's reduce, from job
    /// start (monotone across generations).
    pub iter_done: Vec<Duration>,
    /// The last iteration whose snapshot this pair fully wrote to the
    /// DFS (the generation's start epoch if it wrote none).
    pub last_ckpt: usize,
}

/// One completed iteration, reported once to the environment.
pub(crate) struct Beat {
    pub iteration: usize,
    /// When the iteration ended, in nanoseconds since `started`.
    pub stamp_nanos: u64,
    /// Compute time including emulated slowdowns: the load signal the
    /// watchdog and the balancer key on.
    pub busy_secs: f64,
    /// The iteration's local distance sample.
    pub d: f64,
    pub has_prev: bool,
    /// The iteration's data-path counters.
    pub counts: IterCounts,
}

/// Folds one iteration's data-path counters into a metrics registry.
pub(crate) fn add_counts(metrics: &Metrics, c: &IterCounts) {
    metrics.map_input_records.add(c.map_input_records);
    metrics.reduce_input_records.add(c.reduce_input_records);
    metrics.state_handoff_bytes.add(c.state_handoff_bytes);
    metrics.deltas_sent.add(c.deltas_sent);
    metrics.priority_preemptions.add(c.priority_preemptions);
    metrics.termination_checks.add(c.termination_checks);
}

/// Everything a pair needs from the outside world, beyond the shuffle
/// [`Transport`] it inherits.
pub(crate) trait PairEnv: Transport {
    /// Has the generation been poisoned for teardown?
    fn is_poisoned(&self) -> bool;
    /// One round of the global synchronization barrier.
    fn barrier_wait(&mut self) -> Result<(), Closed>;
    /// Contribute our encoded reduce output; receive every pair's
    /// contribution in task order (one2all state exchange, two rallies
    /// in the thread backend, one collective on the coordinator).
    fn exchange_broadcast(&mut self, mine: Bytes) -> Result<Vec<Bytes>, Closed>;
    /// Contribute our local distance; receive the task-ordered global
    /// sum and whether any pair had a previous snapshot.
    fn exchange_distance(&mut self, d: f64, has_prev: bool) -> Result<(f64, bool), Closed>;
    /// Read the raw bytes of `<dir>/part-<part>`.
    fn read_part(&mut self, dir: &str, part: usize) -> Result<Bytes, EnvFail>;
    /// Persist the encoded snapshot of `iteration` atomically, together
    /// with this pair's generation-local distance history through
    /// `iteration` (the environment prepends any committed prefix from
    /// earlier generations before persisting, so a freshly restarted
    /// coordinator can rebuild full per-iteration records on resume).
    fn write_checkpoint(
        &mut self,
        iteration: usize,
        payload: Bytes,
        hist: &[(f64, bool)],
    ) -> Result<(), EnvFail>;
    /// Report a completed iteration, once: the heartbeat for the
    /// watchdog/balancer, the iteration's data-path counters for the
    /// authoritative metrics registry, and one telemetry sample stamped
    /// at its end (the environment fills the worker/generation tags and
    /// the counter columns; the sample is dropped when telemetry is
    /// off). The local distance sample lets the coordinator side
    /// rebuild per-iteration records for pairs whose process dies
    /// before reporting (the thread backend reads the worker's vectors
    /// directly).
    fn beat(&mut self, beat: &Beat);
    /// Go silent until the generation is poisoned (scripted hang).
    fn hang(&mut self);
    /// Record a structured trace event. The loop fills the task,
    /// iteration and timestamps (nanoseconds since the run's `started`
    /// instant); the environment stamps its node and generation tags
    /// before recording, and drops the event when tracing is off.
    fn trace(&mut self, _event: TraceEvent) {}
    /// Record one phase-latency observation into the telemetry
    /// histograms (dropped when telemetry is off).
    fn phase(&mut self, _phase: Phase, _nanos: u64) {}
    /// Set a telemetry gauge (dropped when telemetry is off).
    fn gauge(&mut self, _gauge: Gauge, _value: u64) {}
    /// Segments queued on this pair's inbound shuffle/handoff channels,
    /// awaiting receive. 0 where the transport can't observe depth.
    fn inbound_backlog(&self) -> u64 {
        0
    }
    /// Send one encoded delta segment to `dest` (accumulative mode).
    /// Defaults to the shuffle transport — the two traffic classes
    /// never coexist in one run; the TCP environment overrides this to
    /// tag the frame as delta traffic.
    fn send_delta(&mut self, dest: usize, seg: Bytes) -> Result<(), Closed> {
        self.send(dest, seg)
    }
    /// Receive one delta segment from `src` (accumulative mode).
    fn recv_delta(&mut self, src: usize) -> Result<Bytes, Closed> {
        self.recv(src)
    }
    /// Verify the epoch-0 warm-start patch part against the
    /// coordinator's expectation (incremental mode). The thread backend
    /// shares memory with the coordinator, so nothing can diverge and
    /// the default is a no-op; the TCP environment overrides this to
    /// wait for the `Patch` frame, compare length + digest, and echo a
    /// `PatchStats` frame back.
    fn patch_verify(&mut self, _raw: &Bytes, _keys: usize) -> Result<(), EnvFail> {
        Ok(())
    }
}

/// One completed iteration, handed to the shared tail.
struct Work {
    /// Compute time, emulated slowdowns included (see [`slow_down`]).
    busy_secs: f64,
    /// Local distance sample and whether a previous snapshot existed.
    d: f64,
    has_prev: bool,
    counts: IterCounts,
}

/// One pair's mode-specific iteration body; [`drive`] runs it through
/// the shared per-iteration tail.
trait PairBody<E: PairEnv> {
    /// Runs iteration `it`: its data path, its transport exchanges and
    /// its emulated slowdown.
    fn step(&mut self, it: usize, ctx: &PairCtx<'_>, env: &mut E) -> Result<Work, EnvFail>;
    /// The encoded checkpoint snapshot at the end of an iteration.
    fn snapshot(&self) -> Bytes;
    /// The encoded final partition.
    fn finish(self) -> Bytes
    where
        Self: Sized,
    {
        self.snapshot()
    }
}

/// Emulated slowdowns, shared by both bodies. A node speed below 1.0
/// stretches this pair's compute time proportionally (heterogeneous
/// hardware); a scripted Delay adds a fixed pause at its iteration.
/// Returns the stretched busy figure, so the balancer and watchdog see
/// the stretched load.
fn slow_down(plan: &PairPlan, it: usize, busy: Duration) -> f64 {
    let mut busy_secs = busy.as_secs_f64();
    if plan.speed < 1.0 {
        let extra = busy.as_secs_f64() * (1.0 / plan.speed - 1.0);
        std::thread::sleep(Duration::from_secs_f64(extra));
        busy_secs += extra;
    }
    for &(at, millis) in &plan.delays {
        if at == it {
            let pause = Duration::from_millis(millis);
            std::thread::sleep(pause);
            busy_secs += pause.as_secs_f64();
        }
    }
    busy_secs
}

/// The per-iteration loop: map/reduce iterations until termination.
/// `Err` carries real failures (DFS, codec); scripted exits and
/// peer-death unwinds come back as `Ok` outcomes.
pub(crate) fn pair_loop<J: IterativeJob, E: PairEnv>(
    job: &J,
    ctx: &PairCtx<'_>,
    env: &mut E,
    log: &mut PairLog,
) -> Result<PairOutcome, EngineError> {
    drive(ctx, env, log, |env| MapReduce::load(job, ctx, env))
}

/// The barrier-free delta-accumulative loop (Maiter-style), sharing
/// `pair_loop`'s environment contract and supervision surface.
///
/// One "iteration" here is a termination-check epoch of
/// `check_every` rounds. Each round the pair applies its
/// highest-priority pending deltas, sends exactly one (possibly empty)
/// ⊕-merged delta segment to EVERY peer — the same send-all/recv-all
/// pattern the shuffle uses, so the buffered transport cannot deadlock
/// — and merges the segments received from every peer in source order.
/// With zero in-flight data at each round boundary and commutative ⊕,
/// the whole mode is deterministic: every engine computes bit-identical
/// stores.
///
/// The check epoch is also the unit of supervision: heartbeats,
/// checkpoints (the encoded `(key, (value, delta))` store), scripted
/// faults and the rollback protocol all count checks, which is what
/// lets `supervise` drive this loop unchanged.
pub(crate) fn delta_loop<J: Accumulative, E: PairEnv>(
    job: &J,
    ctx: &PairCtx<'_>,
    env: &mut E,
    log: &mut PairLog,
) -> Result<PairOutcome, EngineError> {
    drive(ctx, env, log, |env| Delta::load(job, ctx, env))
}

/// Loads a body, then runs it from `ctx.epoch + 1` to a terminal
/// outcome through the shared per-iteration tail.
fn drive<E: PairEnv, B: PairBody<E>>(
    ctx: &PairCtx<'_>,
    env: &mut E,
    log: &mut PairLog,
    load: impl FnOnce(&mut E) -> Result<B, EnvFail>,
) -> Result<PairOutcome, EngineError> {
    ctx.metrics.tasks_launched.add(2);
    match load(env).and_then(|body| iterate(body, ctx, env, log)) {
        Ok(outcome) => Ok(outcome),
        Err(EnvFail::Closed) => Ok(PairOutcome::Aborted),
        Err(EnvFail::Error(e)) => Err(e),
    }
}

fn iterate<E: PairEnv, B: PairBody<E>>(
    mut body: B,
    ctx: &PairCtx<'_>,
    env: &mut E,
    log: &mut PairLog,
) -> Result<PairOutcome, EnvFail> {
    let (cfg, plan) = (ctx.cfg, ctx.plan);
    for it in (ctx.epoch + 1)..=cfg.max_iters {
        // A poisoned environment means the generation is being torn
        // down (peer death or a monitor intervention). In async mode no
        // barrier wait may be reached before the next blocking shuffle
        // op, so check explicitly: the unwind must cascade even when
        // this pair's own links are still healthy.
        if env.is_poisoned() {
            return Err(EnvFail::Closed);
        }
        let work = body.step(it, ctx, env)?;
        log.local_dist.push((work.d, work.has_prev));
        let end = ctx.started.elapsed();
        log.iter_done.push(end);
        env.trace(ctx.tag(
            TraceEvent::new(TraceKind::IterEnd).at(end.as_nanos() as u64),
            it,
        ));
        env.gauge(Gauge::HandoffDepth, env.inbound_backlog());
        env.beat(&Beat {
            iteration: it,
            stamp_nanos: end.as_nanos() as u64,
            busy_secs: work.busy_secs,
            d: work.d,
            has_prev: work.has_prev,
            counts: work.counts,
        });

        // ---- Termination check (§3.1.2) ------------------------------
        // Every pair evaluates the same verdict over the same
        // task-ordered float sum, so all pairs stop at the same
        // iteration without a master round-trip.
        let mut converged = false;
        if let Some(eps) = cfg.threshold {
            let (total, any_prev) = env.exchange_distance(work.d, work.has_prev)?;
            converged = any_prev && total < eps;
        }
        let done = converged || it == cfg.max_iters;

        // ---- Checkpointing (§3.4.1) ----------------------------------
        // Written atomically, so a crash mid-checkpoint leaves the
        // previous epoch intact. Same gating as the simulation engine:
        // never on the final iteration.
        if !done && cfg.checkpoint_interval > 0 && it.is_multiple_of(cfg.checkpoint_interval) {
            let payload = body.snapshot();
            ctx.metrics.checkpoint_bytes.add(payload.len() as u64);
            let ckpt_start = Instant::now();
            env.write_checkpoint(it, payload, &log.local_dist)?;
            log.last_ckpt = it;
            env.phase(
                Phase::CheckpointWrite,
                ckpt_start.elapsed().as_nanos() as u64,
            );
            env.trace(ctx.tag(
                TraceEvent::new(TraceKind::Checkpoint { epoch: it as u64 }).at(ctx.now_ns()),
                it,
            ));
        }
        if done {
            return Ok(PairOutcome::Finished {
                final_data: body.finish(),
                iterations: it,
            });
        }

        // ---- Scripted faults (fault injection) -----------------------
        // Same decision point as the simulation engine: a pair dies
        // right after completing iteration `it`, never on the final
        // iteration (the done-check above fires first). A kill exits
        // immediately; a crash hook exits *abruptly* (no outcome report
        // — the caller terminates the process); a hang goes silent —
        // links held open, no heartbeats — until the watchdog poisons
        // the generation.
        if plan.kills.contains(&it) {
            return Ok(PairOutcome::Induced { at_iteration: it });
        }
        if plan.crash_after == Some(it) {
            return Ok(PairOutcome::Vanish);
        }
        if plan.hangs.contains(&it) {
            env.hang();
            return Ok(PairOutcome::Stalled { at_iteration: it });
        }
    }

    // Only reachable when the epoch already sits at max_iters (a
    // failure scripted for the final iteration never fires, so the
    // loop above always terminates through the done-check).
    unreachable!("pair {} left the iteration loop without finishing", ctx.q);
}

/// Map/reduce iterations (§3.2).
struct MapReduce<'j, J: IterativeJob> {
    job: &'j J,
    one2all: bool,
    stat: Vec<(J::K, J::T)>,
    /// The map side's state: this pair's part under one2one, the full
    /// broadcast state under one2all.
    state: Vec<(J::K, J::S)>,
    /// One2all: this pair's previous reduce output (the distance
    /// baseline, the checkpoint snapshot and the final output).
    prev_out: Option<Vec<(J::K, J::S)>>,
}

impl<'j, J: IterativeJob> MapReduce<'j, J> {
    /// One-time load: the static partition plus the state at the
    /// generation's epoch. Epoch 0 is the job's initial input; epoch
    /// e > 0 is the snapshot the pairs wrote at the end of iteration e
    /// (one part per pair).
    fn load<E: PairEnv>(job: &'j J, ctx: &PairCtx<'_>, env: &mut E) -> Result<Self, EnvFail> {
        let (q, cfg) = (ctx.q, ctx.cfg);
        let stat = decode_pairs(env.read_part(&ctx.dirs.static_dir, q)?)?;
        let (dir, parts) = if ctx.epoch == 0 {
            (ctx.dirs.state_dir.clone(), cfg.num_state_parts)
        } else {
            (snapshot_dir(&ctx.dirs.output_dir, ctx.epoch), cfg.n)
        };
        let mut state: Vec<(J::K, J::S)> = Vec::new();
        let mut prev_out = None;
        let one2all = cfg.mode == ExecMode::One2All;
        if one2all {
            // Every map task holds the full (small) broadcast state. In
            // a snapshot, part i is pair i's reduce output at the epoch
            // iteration; the broadcast state is their task-ordered
            // concatenation, exactly as the live hand-off rebuilds it.
            for i in 0..parts {
                let part: Vec<(J::K, J::S)> = decode_pairs(env.read_part(&dir, i)?)?;
                if ctx.epoch > 0 && i == q {
                    prev_out = Some(part.clone());
                }
                state.extend(part);
            }
            sort_run(&mut state);
        } else {
            state = decode_pairs(env.read_part(&dir, q)?)?;
        }
        Ok(MapReduce {
            job,
            one2all,
            stat,
            state,
            prev_out,
        })
    }
}

impl<J: IterativeJob, E: PairEnv> PairBody<E> for MapReduce<'_, J> {
    fn step(&mut self, it: usize, ctx: &PairCtx<'_>, env: &mut E) -> Result<Work, EnvFail> {
        let (n, one2all) = (ctx.cfg.n, self.one2all);
        let mut counts = IterCounts::default();
        if ctx.cfg.mode.is_sync() {
            let wait_start = Instant::now();
            env.barrier_wait()?;
            env.phase(Phase::BarrierWait, wait_start.elapsed().as_nanos() as u64);
        }
        // Busy time = compute only (map + reduce spans), excluding
        // shuffle blocking — the load signal §3.4.2's balancer keys on.
        let iter_start_ns = ctx.now_ns();
        env.trace(ctx.tag(TraceEvent::new(TraceKind::IterStart).at(iter_start_ns), it));
        let map_start = Instant::now();
        let out = map_step(
            self.job,
            ctx.q,
            &self.stat,
            &self.state,
            one2all,
            n,
            &mut (),
        );
        counts.map_input_records = out.records_in;
        let mut busy = map_start.elapsed();
        let map_end_ns = ctx.now_ns();
        env.trace(ctx.tag(
            TraceEvent::new(TraceKind::MapPhase).spanning(iter_start_ns, map_end_ns),
            it,
        ));
        env.phase(Phase::Map, map_end_ns.saturating_sub(iter_start_ns));
        // Sends sit outside the busy span: a blocked send is
        // back-pressure from a slow consumer, not this pair's load.
        for (dest, seg) in out.segments.into_iter().enumerate() {
            ctx.metrics.shuffle_local_bytes.add(seg.len() as u64);
            env.send(dest, seg)?;
        }
        // Drain peers in task order: merge_runs breaks key ties by run
        // index, so the run order must match the simulation engine's.
        // Blocking receives stay outside the busy span.
        let segs = (0..n)
            .map(|src| env.recv(src))
            .collect::<Result<Vec<Bytes>, Closed>>()?;
        let reduce_start_ns = ctx.now_ns();
        let reduce_start = Instant::now();
        let prev = match ctx.cfg.threshold {
            None => None,
            Some(_) if one2all => self.prev_out.as_deref(),
            Some(_) => Some(&self.state[..]),
        };
        let carry = (!one2all).then_some(&self.state[..]);
        let out = reduce_step(self.job, segs, carry, prev, &mut ())?;
        counts.reduce_input_records = out.records_in;
        busy += reduce_start.elapsed();
        // The emulated stretch is compute time on the slow node, so it
        // lands inside the reduce span — mirroring the simulation
        // engine, whose cost model stretches the reduce work directly.
        let busy_secs = slow_down(ctx.plan, it, busy);
        let reduce_end_ns = ctx.now_ns();
        env.trace(ctx.tag(
            TraceEvent::new(TraceKind::ReducePhase).spanning(reduce_start_ns, reduce_end_ns),
            it,
        ));
        env.phase(Phase::Reduce, reduce_end_ns.saturating_sub(reduce_start_ns));

        // ---- State hand-off back to the map side ---------------------
        let handoff_start = Instant::now();
        if one2all {
            let payload = encode_pairs(&out.state);
            let bytes = payload.len() as u64;
            let peers = ctx.cfg.n as u64 - 1;
            ctx.metrics.broadcast_bytes.add(bytes * peers);
            let parts = env.exchange_broadcast(payload)?;
            env.trace(ctx.tag(
                TraceEvent::new(TraceKind::Broadcast { bytes }).at(ctx.now_ns()),
                it,
            ));
            // Task-ordered concatenation + stable sort: identical to
            // the simulation engine's broadcast reassembly.
            self.state.clear();
            for part in parts {
                self.state.extend(decode_pairs::<J::K, J::S>(part)?);
            }
            sort_run(&mut self.state);
            self.prev_out = Some(out.state);
        } else {
            let bytes = encode_pairs(&out.state).len() as u64;
            counts.state_handoff_bytes = bytes;
            self.state = out.state;
            env.trace(ctx.tag(
                TraceEvent::new(TraceKind::StateHandoff { bytes }).at(ctx.now_ns()),
                it,
            ));
        }
        env.phase(Phase::Handoff, handoff_start.elapsed().as_nanos() as u64);
        Ok(Work {
            busy_secs,
            d: out.distance.unwrap_or(0.0),
            has_prev: out.distance.is_some(),
            counts,
        })
    }

    /// The reduce-side state at the end of the iteration: the
    /// carried-forward partition under one2one, the pair's own reduce
    /// output under one2all (the broadcast state is reassembled from
    /// all parts on reload).
    fn snapshot(&self) -> Bytes {
        if self.one2all {
            encode_pairs(self.prev_out.as_deref().unwrap_or_default())
        } else {
            encode_pairs(&self.state)
        }
    }
}

/// A delta-accumulative check epoch of `check_every` rounds.
struct Delta<'j, J: Accumulative> {
    job: &'j J,
    stat: Vec<(J::K, J::T)>,
    store: DeltaStore<J::K, J::S>,
    /// Pending keys applied per round (0 = all).
    batch: usize,
    /// Rounds per termination check.
    check_every: usize,
}

impl<'j, J: Accumulative> Delta<'j, J> {
    /// One-time load: the static partition plus the delta store. Epoch
    /// 0 seeds the store from the initial state part (or restores an
    /// incremental warm start); epoch e > 0 restores the full
    /// `(key, (value, delta))` snapshot written at check `e`.
    fn load<E: PairEnv>(job: &'j J, ctx: &PairCtx<'_>, env: &mut E) -> Result<Self, EnvFail> {
        let ExecMode::Delta { batch, check_every } = ctx.cfg.mode else {
            unreachable!("delta_loop runs only in delta mode")
        };
        let q = ctx.q;
        let stat: Vec<(J::K, J::T)> = decode_pairs(env.read_part(&ctx.dirs.static_dir, q)?)?;
        let store = if ctx.epoch > 0 {
            let snap = snapshot_dir(&ctx.dirs.output_dir, ctx.epoch);
            DeltaStore::decode(env.read_part(&snap, q)?)?
        } else if ctx.cfg.warm {
            // Warm start: the part holds the planner's
            // (key, (value, pending)) entries. Verify against the
            // coordinator's Patch expectation before restoring.
            let raw = env.read_part(&ctx.dirs.state_dir, q)?;
            let entries = decode_pairs::<J::K, (J::S, J::S)>(raw.clone())?;
            env.patch_verify(&raw, entries.len())?;
            DeltaStore::restore(entries)
        } else {
            let raw = env.read_part(&ctx.dirs.state_dir, q)?;
            DeltaStore::seed(job, &decode_pairs::<J::K, J::S>(raw)?)
        };
        assert_eq!(
            store.len(),
            stat.len(),
            "state/static co-partitioning broken at pair {q}"
        );
        Ok(Delta {
            job,
            stat,
            store,
            batch,
            check_every: check_every.get(),
        })
    }
}

impl<J: Accumulative, E: PairEnv> PairBody<E> for Delta<'_, J> {
    fn step(&mut self, it: usize, ctx: &PairCtx<'_>, env: &mut E) -> Result<Work, EnvFail> {
        let n = ctx.cfg.n;
        let mut counts = IterCounts::default();
        let mut busy = Duration::ZERO;
        env.trace(ctx.tag(TraceEvent::new(TraceKind::IterStart).at(ctx.now_ns()), it));
        for _round in 0..self.check_every {
            // ---- Round phase A: select, apply, extract, send ---------
            let round_start_ns = ctx.now_ns();
            let work_start = Instant::now();
            let out = delta_send_step(
                self.job,
                &mut self.store,
                &self.stat,
                self.batch,
                n,
                &mut (),
            );
            counts.deltas_sent += out.sent;
            counts.priority_preemptions += out.deferred;
            busy += work_start.elapsed();
            let round_end_ns = ctx.now_ns();
            env.trace(
                ctx.tag(
                    TraceEvent::new(TraceKind::DeltaRound { deltas: out.sent })
                        .spanning(round_start_ns, round_end_ns),
                    it,
                ),
            );
            // A delta round's select/apply/send half is the
            // accumulative analogue of the map phase.
            env.phase(Phase::Map, round_end_ns.saturating_sub(round_start_ns));
            // Sends sit outside the busy span (back-pressure, not load).
            for (dest, seg) in out.segments.into_iter().enumerate() {
                ctx.metrics.shuffle_local_bytes.add(seg.len() as u64);
                env.send_delta(dest, seg)?;
            }
            // ---- Round phase B: receive from every peer, merge in
            // source order ---------------------------------------------
            let segs = (0..n)
                .map(|src| env.recv_delta(src))
                .collect::<Result<Vec<Bytes>, Closed>>()?;
            let merge_start = Instant::now();
            delta_merge_step(self.job, &mut self.store, segs, &mut ())?;
            let merge_elapsed = merge_start.elapsed();
            busy += merge_elapsed;
            // The receive/merge half plays the reduce role.
            env.phase(Phase::Reduce, merge_elapsed.as_nanos() as u64);
        }
        // ---- Global accumulated-progress termination check -----------
        counts.termination_checks = 1;
        let progress = self.store.pending_progress(self.job);
        let busy_secs = slow_down(ctx.plan, it, busy);
        env.trace(
            ctx.tag(
                TraceEvent::new(TraceKind::TerminationCheck {
                    progress_bits: progress.to_bits(),
                })
                .at(ctx.now_ns()),
                it,
            ),
        );
        env.gauge(Gauge::PendingDeltaMass, progress.to_bits());
        Ok(Work {
            busy_secs,
            d: progress,
            has_prev: true,
            counts,
        })
    }

    /// The full `(value, delta)` store.
    fn snapshot(&self) -> Bytes {
        self.store.encode()
    }

    /// The values with any residual pending delta folded in: the
    /// fixpoint the detector certified.
    fn finish(self) -> Bytes {
        encode_pairs(&self.store.final_values(self.job))
    }
}
