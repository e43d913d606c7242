//! The iMapReduce runtime (paper §3).
//!
//! One job = `num_tasks` *persistent* map/reduce task pairs. Each pair
//! is launched once, holds its static data partition locally, and loops
//! over iterations: join state with static → map → shuffle state →
//! reduce → hand the new state straight back to the paired map task
//! over a local persistent connection. Map tasks activate
//! asynchronously (as soon as *their* reduce finished) unless the job
//! forces synchronous execution or uses one2all broadcast.
//!
//! The loop also implements the paper's runtime support: per-iteration
//! termination checks merged at the master (§3.1.2), checkpoint-based
//! fault tolerance with rollback (§3.4.1), and migration-based load
//! balancing (§3.4.2).

use crate::api::IterativeJob;
use crate::config::{Activation, ExecMode, FaultEvent, IterConfig};
use crate::step::{delta_merge_step, delta_send_step, map_step, reduce_step, SimCost};
use bytes::Bytes;
use imr_dfs::Dfs;
use imr_mapreduce::io::{num_parts, part_path, read_part};
use imr_mapreduce::EngineError;
use imr_records::{encode_pairs, sort_run, Key, Value};
use imr_simcluster::{
    ClusterSpec, MetricsHandle, NodeId, RunReport, TaskClock, VDuration, VInstant,
};
use imr_telemetry::{Gauge, Phase, TelemetryHandle};
use imr_trace::{TraceEvent, TraceHandle, TraceKind, COORD};
use std::sync::Arc;

/// The outcome of one iMapReduce run.
#[derive(Debug, Clone)]
pub struct IterOutcome<K, S> {
    /// Virtual-time report (per-iteration completion, total, metrics).
    pub report: RunReport,
    /// Final state, sorted by key (also committed to the output dir).
    pub final_state: Vec<(K, S)>,
    /// Iterations executed (rolled-back iterations not counted twice).
    pub iterations: usize,
    /// Global distance measured after each iteration (`INFINITY` while
    /// no previous snapshot exists or no threshold is set).
    pub distances: Vec<f64>,
    /// Task-pair migrations performed by load balancing.
    pub migrations: u64,
    /// Failure recoveries performed.
    pub recoveries: u64,
}

/// Executes [`IterativeJob`]s over one simulated cluster + DFS.
#[derive(Clone)]
pub struct IterativeRunner {
    cluster: Arc<ClusterSpec>,
    dfs: Dfs,
    metrics: MetricsHandle,
    trace: Option<TraceHandle>,
    telemetry: Option<TelemetryHandle>,
}

/// Checkpoint snapshot kept by the master for rollback.
struct Checkpoint<K, S> {
    iter: usize,
    state: Vec<Vec<(K, S)>>,
    global_state: Vec<(K, S)>,
    prev_out: Vec<Option<Vec<(K, S)>>>,
    dfs_dir: Option<String>,
}

impl IterativeRunner {
    /// A runner over the given substrate handles.
    pub fn new(cluster: Arc<ClusterSpec>, dfs: Dfs, metrics: MetricsHandle) -> Self {
        IterativeRunner {
            cluster,
            dfs,
            metrics,
            trace: None,
            telemetry: None,
        }
    }

    /// Attaches a trace ring: subsequent runs record per-task iteration
    /// spans (virtual-time timestamps) and fault-path events into it,
    /// and fault recovery dumps a flight-recorder artifact to the DFS.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The attached trace ring, if any.
    pub fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    /// Attaches a telemetry registry: subsequent runs record phase
    /// latencies into its histograms and push one sample per pair per
    /// iteration, stamped with virtual time — so the sampled series is
    /// bit-identical across runs of the same job.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&TelemetryHandle> {
        self.telemetry.as_ref()
    }

    fn record(&self, event: TraceEvent) {
        if let Some(trace) = &self.trace {
            trace.record(event);
        }
    }

    fn phase(&self, phase: Phase, nanos: u64) {
        if let Some(tel) = &self.telemetry {
            tel.record_phase(phase, nanos);
        }
    }

    fn sample(&self, stamp: u64, worker: u32, generation: u32, iteration: u64) {
        if let Some(tel) = &self.telemetry {
            tel.sample(
                stamp,
                worker,
                generation,
                iteration,
                &self.metrics.snapshot(),
            );
        }
    }

    /// Dump the trailing `window` events to the DFS flight-recorder
    /// artifact `seq` for this run (no-op without a trace ring).
    fn flight_dump(
        &self,
        output_dir: &str,
        seq: usize,
        window: usize,
        node: NodeId,
    ) -> Result<(), EngineError> {
        let Some(trace) = &self.trace else {
            return Ok(());
        };
        let lines = imr_trace::flight_lines(&trace.tail(window));
        let mut off_path = TaskClock::default();
        self.dfs.put_atomic(
            &imr_trace::flight_path(output_dir, seq),
            Bytes::from(lines.into_bytes()),
            node,
            &mut off_path,
        )?;
        Ok(())
    }

    /// The cluster this runner schedules on.
    pub fn cluster(&self) -> &Arc<ClusterSpec> {
        &self.cluster
    }

    /// The DFS this runner reads and writes.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Maximum number of persistent task pairs this cluster can host
    /// (every pair needs a map slot and a reduce slot for the whole
    /// run, §3.1.1).
    pub fn pair_capacity(&self) -> usize {
        self.cluster.pair_capacity()
    }

    fn node_pair_capacity(&self, node: NodeId) -> usize {
        self.cluster.node_pair_capacity(node)
    }

    /// Runs `job` to termination under a scripted fault schedule.
    ///
    /// * `state_dir` — `mapred.iterjob.statepath`: initial state parts,
    ///   partitioned with the job's partition function;
    /// * `static_dir` — `mapred.iterjob.staticpath`: static data parts,
    ///   co-partitioned with the state;
    /// * `output_dir` — final state parts are committed here;
    /// * `faults` — scripted faults ([`FaultEvent`]): kills recover
    ///   through checkpoint rollback, delays charge lost processing time
    ///   on the affected node's pairs, and hangs model watchdog
    ///   detection — the stalled pair is declared failed only after the
    ///   configured `stall_timeout` of virtual-time silence, then
    ///   recovered the same way a kill is.
    pub fn run<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        cfg.validate_entry(faults, false)?;
        let n = cfg.num_tasks;
        self.check_launch(n, static_dir);
        let cost = &self.cluster.cost;
        let one2all = cfg.mode == ExecMode::One2All;

        // ---- One-time initialization (persistent task launch + load) --
        let job_start = VInstant::EPOCH + cost.job_setup;
        // Round-robin placement over nodes, shared with the native
        // backend so failure events name the same pairs in both engines.
        let mut assignment: Vec<NodeId> = self.cluster.assign_pairs(n);

        let mut static_store: Vec<Vec<(J::K, J::T)>> = Vec::with_capacity(n);
        let mut static_bytes: Vec<u64> = Vec::with_capacity(n);
        let mut state_store: Vec<Vec<(J::K, J::S)>> = Vec::with_capacity(n);
        let mut state_bytes: Vec<u64> = Vec::with_capacity(n);
        let mut state_ready: Vec<VInstant> = Vec::with_capacity(n);
        let mut global_state: Vec<(J::K, J::S)> = Vec::new();
        let state_parts = num_parts(&self.dfs, state_dir);

        for p in 0..n {
            let node = assignment[p];
            let speed = self.cluster.speed(node);
            let (stat, sbytes, mut clock) =
                self.launch_pair::<J>(static_dir, p, node, job_start)?;
            static_store.push(stat);
            static_bytes.push(sbytes);

            if one2all {
                // Every map task loads the full (small) initial state.
                let mut all: Vec<(J::K, J::S)> = Vec::new();
                let mut total = 0u64;
                for i in 0..state_parts {
                    all.extend(read_part::<J::K, J::S>(
                        &self.dfs, state_dir, i, node, &mut clock,
                    )?);
                    total += self.dfs.len(&part_path(state_dir, i))?;
                }
                sort_run(&mut all);
                clock.advance(cost.serde_per_byte * total);
                if p == 0 {
                    global_state = all;
                }
                state_store.push(Vec::new());
                state_bytes.push(total);
            } else {
                assert_eq!(
                    state_parts, n,
                    "one2one state must be pre-partitioned into num_tasks parts"
                );
                let st: Vec<(J::K, J::S)> = read_part(&self.dfs, state_dir, p, node, &mut clock)?;
                let bytes = self.dfs.len(&part_path(state_dir, p))?;
                clock.advance(cost.serde_per_byte * bytes);
                clock.advance(cost.sort_time(st.len() as u64, speed));
                state_store.push(st);
                state_bytes.push(bytes);
            }
            state_ready.push(clock.now());
        }

        // With eager hand-off, `state_ready` is when the map may START
        // consuming the chunked stream; `state_complete` is when the
        // last chunk exists — the map cannot finish before it.
        let mut state_complete: Vec<VInstant> = state_ready.clone();

        // Previous reduce outputs (for distance under one2all and as
        // the "two consecutive iterations" snapshot of §3.1.2).
        let mut prev_out: Vec<Option<Vec<(J::K, J::S)>>> = vec![None; n];

        // Checkpoint 0: the initial data (recovery with no later
        // checkpoint restarts the iterative process from scratch).
        let mut ckpt = Checkpoint {
            iter: 0,
            state: state_store.clone(),
            global_state: global_state.clone(),
            prev_out: prev_out.clone(),
            dfs_dir: None,
        };

        let mut report = RunReport {
            label: cfg.mode.label("iMapReduce"),
            ..RunReport::default()
        };
        let mut distances: Vec<f64> = Vec::new();
        // Kills and hangs are consumed once recovery handles them;
        // delays stay scripted for the whole run so a rolled-back
        // iteration replays them identically (determinism).
        let mut pending_failures: Vec<FaultEvent> = faults
            .iter()
            .filter(|f| !matches!(f, FaultEvent::Delay { .. }))
            .copied()
            .collect();
        pending_failures.sort_by_key(|f| f.at_iteration());
        let delays: Vec<FaultEvent> = faults
            .iter()
            .filter(|f| matches!(f, FaultEvent::Delay { .. }))
            .copied()
            .collect();
        let mut migrations = 0u64;
        let mut recoveries = 0u64;
        let max_iters = cfg.termination.max_iterations;
        let mut iter = 1usize;
        let mut last_reduce_done: Vec<VInstant> = vec![job_start; n];
        let mut decision_time = job_start;
        // Trace coordinates: the generation bumps on every rollback
        // (failure recovery or migration); flight-recorder dumps are
        // numbered per run.
        let mut generation = 0u32;
        let mut flight_seq = 0usize;

        while iter <= max_iters {
            // Per-pair busy time this iteration (compute only, no
            // barrier waits) — the "processing time" reduce tasks put
            // in their §3.4.2 iteration completion reports.
            let mut pair_busy = vec![0.0f64; n];
            // ---- Map phase -------------------------------------------
            let sync_gate = state_ready.iter().copied().max().unwrap_or(job_start);
            let mut map_done: Vec<VInstant> = Vec::with_capacity(n);
            let mut segments: Vec<Vec<Bytes>> = Vec::with_capacity(n);
            for p in 0..n {
                let activation = if cfg.mode.is_sync() {
                    sync_gate
                } else {
                    state_ready[p]
                };
                let node = assignment[p];
                let speed = self.cluster.speed(node);
                let mut clock = TaskClock::starting_at(activation);

                let state: &[(J::K, J::S)] = if one2all {
                    &global_state
                } else {
                    &state_store[p]
                };
                let mut obs = SimCost::new(&mut clock, cost, speed)
                    .with_input_bytes(state_bytes[p] + static_bytes[p]);
                let out = map_step(job, p, &static_store[p], state, one2all, n, &mut obs);
                self.metrics.map_input_records.add(out.records_in);
                // Deterministic straggler slowdown, keyed by iteration
                // and task so sync/async variants face the same pattern.
                let busy = clock.now().duration_since(activation);
                clock.advance(busy * cost.straggler(iter as u64, p as u64, 1));
                pair_busy[p] += clock.now().duration_since(activation).as_secs_f64();
                // Pipelined consumption cannot outrun its producer.
                map_done.push(clock.now().max(state_complete[p]));
                segments.push(out.segments);
                self.record(
                    TraceEvent::new(TraceKind::IterStart)
                        .at(activation.as_nanos())
                        .tagged(node.index() as u32, p as u32, iter as u32, generation),
                );
                self.record(
                    TraceEvent::new(TraceKind::MapPhase)
                        .spanning(activation.as_nanos(), map_done[p].as_nanos())
                        .tagged(node.index() as u32, p as u32, iter as u32, generation),
                );
                if cfg.mode.is_sync() {
                    self.phase(
                        Phase::BarrierWait,
                        sync_gate
                            .as_nanos()
                            .saturating_sub(state_ready[p].as_nanos()),
                    );
                }
                self.phase(
                    Phase::Map,
                    map_done[p].as_nanos().saturating_sub(activation.as_nanos()),
                );
            }

            // ---- Reduce phase ----------------------------------------
            let mut new_states: Vec<Vec<(J::K, J::S)>> = Vec::with_capacity(n);
            let mut new_state_bytes: Vec<u64> = Vec::with_capacity(n);
            let mut reduce_done: Vec<VInstant> = Vec::with_capacity(n);
            let mut reduce_work_start: Vec<VInstant> = Vec::with_capacity(n);
            let mut iter_distance = 0.0f64;
            let mut any_prev = false;

            for q in 0..n {
                let node = assignment[q];
                let speed = self.cluster.speed(node);
                let mut clock = TaskClock::default();
                let mut arrivals = Vec::with_capacity(n);
                for p in 0..n {
                    let bytes = segments[p][q].len() as u64;
                    arrivals
                        .push(map_done[p] + self.cluster.transfer_time(assignment[p], node, bytes));
                    if assignment[p] == node {
                        self.metrics.shuffle_local_bytes.add(bytes);
                    } else {
                        self.metrics.shuffle_remote_bytes.add(bytes);
                    }
                }
                clock.barrier(arrivals);
                let work_start = clock.now();
                reduce_work_start.push(work_start);
                // Local distance vs the previous snapshot (§3.1.2).
                let prev: Option<&[(J::K, J::S)]> = match cfg.termination.distance_threshold {
                    None => None,
                    Some(_) if one2all => prev_out[q].as_deref(),
                    Some(_) => Some(&state_store[q]),
                };
                let carry = (!one2all).then_some(&state_store[q][..]);
                let out = reduce_step(
                    job,
                    segments.iter().map(|row| row[q].clone()),
                    carry,
                    prev,
                    &mut SimCost::new(&mut clock, cost, speed),
                )?;
                self.metrics.reduce_input_records.add(out.records_in);
                if let Some(d) = out.distance {
                    any_prev = true;
                    iter_distance += d;
                }
                let new_state = out.state;

                let bytes = encode_pairs(&new_state).len() as u64;
                clock.advance(cost.serde_per_byte * bytes);
                let busy = clock.now().duration_since(work_start);
                clock.advance(busy * cost.straggler(iter as u64, q as u64, 2));
                pair_busy[q] += clock.now().duration_since(work_start).as_secs_f64();
                // Scripted slowdown (FaultEvent::Delay): the node loses
                // processing time but keeps progressing, so it shows up
                // in the §3.4.2 completion reports without any recovery.
                for d in &delays {
                    if let FaultEvent::Delay {
                        node: slow,
                        at_iteration,
                        millis,
                    } = *d
                    {
                        if at_iteration == iter && slow == node {
                            let extra = VDuration::from_millis(millis);
                            clock.advance(extra);
                            pair_busy[q] += extra.as_secs_f64();
                        }
                    }
                }
                reduce_done.push(clock.now());
                new_states.push(new_state);
                new_state_bytes.push(bytes);
                self.record(
                    TraceEvent::new(TraceKind::ReducePhase)
                        .spanning(work_start.as_nanos(), clock.now().as_nanos())
                        .tagged(node.index() as u32, q as u32, iter as u32, generation),
                );
                self.phase(
                    Phase::Reduce,
                    clock.now().as_nanos().saturating_sub(work_start.as_nanos()),
                );
            }

            let iter_done = reduce_done.iter().copied().max().unwrap_or(job_start);
            report.iteration_done.push(iter_done);
            last_reduce_done.clone_from(&reduce_done);

            // ---- State hand-off back to the map side -----------------
            if one2all {
                // Broadcast: every reduce ships its output to all map
                // tasks; each map's next activation is the barrier over
                // all broadcasts.
                let mut next_global: Vec<(J::K, J::S)> = Vec::new();
                for q in 0..n {
                    next_global.extend(new_states[q].iter().cloned());
                }
                sort_run(&mut next_global);
                let total: u64 = new_state_bytes.iter().sum();
                for p in 0..n {
                    let mut gate = VInstant::EPOCH;
                    for q in 0..n {
                        let arr = reduce_done[q]
                            + cost.handoff_flush
                            + self.cluster.transfer_time(
                                assignment[q],
                                assignment[p],
                                new_state_bytes[q],
                            );
                        gate = gate.max(arr);
                        if assignment[q] != assignment[p] {
                            self.metrics.broadcast_bytes.add(new_state_bytes[q]);
                        }
                    }
                    state_ready[p] = gate;
                    state_complete[p] = gate;
                    state_bytes[p] = total;
                }
                for q in 0..n {
                    let at = (reduce_done[q] + cost.handoff_flush).as_nanos();
                    let tags = (assignment[q].index() as u32, q as u32, iter as u32);
                    self.record(
                        TraceEvent::new(TraceKind::Broadcast {
                            bytes: new_state_bytes[q],
                        })
                        .at(at)
                        .tagged(tags.0, tags.1, tags.2, generation),
                    );
                    self.record(
                        TraceEvent::new(TraceKind::IterEnd)
                            .at(at)
                            .tagged(tags.0, tags.1, tags.2, generation),
                    );
                    self.phase(Phase::Handoff, at - reduce_done[q].as_nanos());
                    self.sample(at, q as u32, generation, iter as u64);
                }
                prev_out = new_states.iter().cloned().map(Some).collect();
                global_state = next_global;
            } else {
                for q in 0..n {
                    // Persistent local socket to the paired map task.
                    let complete = reduce_done[q]
                        + cost.handoff_flush
                        + cost.local_transfer_time(new_state_bytes[q]);
                    state_complete[q] = complete;
                    state_ready[q] = if cfg.mode == ExecMode::One2One(Activation::Eager) {
                        // First buffer flush: right after the reduce
                        // cleared its shuffle barrier (§3.3's eager
                        // sending; the buffer amortizes the context
                        // switches, modelled by one flush charge).
                        (reduce_work_start[q] + cost.handoff_flush).max(state_ready[q])
                    } else {
                        complete
                    };
                    self.metrics.state_handoff_bytes.add(new_state_bytes[q]);
                    state_bytes[q] = new_state_bytes[q];
                    let tags = (assignment[q].index() as u32, q as u32, iter as u32);
                    self.record(
                        TraceEvent::new(TraceKind::StateHandoff {
                            bytes: new_state_bytes[q],
                        })
                        .at(complete.as_nanos())
                        .tagged(tags.0, tags.1, tags.2, generation),
                    );
                    self.record(
                        TraceEvent::new(TraceKind::IterEnd)
                            .at(complete.as_nanos())
                            .tagged(tags.0, tags.1, tags.2, generation),
                    );
                    self.phase(
                        Phase::Handoff,
                        complete
                            .as_nanos()
                            .saturating_sub(reduce_done[q].as_nanos()),
                    );
                    self.sample(complete.as_nanos(), q as u32, generation, iter as u64);
                }
                prev_out = state_store.iter().cloned().map(Some).collect();
                state_store = new_states;
            }

            // ---- Master: termination check ---------------------------
            decision_time = iter_done + cost.net_latency;
            if cfg.termination.distance_threshold.is_some() {
                distances.push(if any_prev {
                    iter_distance
                } else {
                    f64::INFINITY
                });
            }
            let converged = match cfg.termination.distance_threshold {
                Some(eps) => any_prev && iter_distance < eps,
                None => false,
            };
            let done = converged || iter == max_iters;

            // ---- Checkpointing (parallel with computation) -----------
            if !done && cfg.checkpoint_interval > 0 && iter.is_multiple_of(cfg.checkpoint_interval)
            {
                let dir = imr_dfs::snapshot_dir(output_dir, iter);
                let parts = state_store.iter().enumerate().map(|(q, part)| {
                    encode_pairs(if one2all && q == 0 {
                        &global_state
                    } else {
                        part
                    })
                });
                self.write_checkpoint(&dir, parts, &assignment, iter_done, iter, generation)?;
                if let Some(old) = ckpt.dfs_dir.take() {
                    imr_mapreduce::io::delete_dir(&self.dfs, &old);
                }
                ckpt = Checkpoint {
                    iter,
                    state: state_store.clone(),
                    global_state: global_state.clone(),
                    prev_out: prev_out.clone(),
                    dfs_dir: Some(dir),
                };
            }
            if done {
                break;
            }

            // ---- Failure injection + recovery ------------------------
            let fault = pending_failures
                .iter()
                .position(|f| f.at_iteration() == iter);
            let rollback = if let Some(pos) = fault {
                let fault = pending_failures.remove(pos);
                let detected_at = match fault {
                    // A crash is noticed at the master's next decision
                    // point (lost heartbeat / closed socket).
                    FaultEvent::Kill { .. } => decision_time,
                    // A hung pair never exits: the watchdog declares it
                    // failed only after `stall_timeout` of silence.
                    FaultEvent::Hang { .. } => {
                        self.metrics.stalls_detected.add(1);
                        let wd = cfg.watchdog.expect("validate: hang requires watchdog");
                        decision_time + VDuration::from_secs_f64(wd.stall_timeout.as_secs_f64())
                    }
                    FaultEvent::Delay { .. } => unreachable!("delays never pend"),
                };
                recoveries += 1;
                self.metrics.recoveries.add(1);
                if matches!(fault, FaultEvent::Hang { .. }) {
                    self.record(
                        TraceEvent::new(TraceKind::StallDetected)
                            .at(decision_time.as_nanos())
                            .tagged(fault.node().index() as u32, COORD, iter as u32, generation),
                    );
                }
                self.record(
                    TraceEvent::new(TraceKind::Rollback {
                        epoch: ckpt.iter as u64,
                    })
                    .at(detected_at.as_nanos())
                    .tagged(
                        fault.node().index() as u32,
                        COORD,
                        iter as u32,
                        generation,
                    ),
                );
                let recover_at = self.recover_from_failure::<J>(
                    fault.node(),
                    detected_at,
                    &mut assignment,
                    &ckpt,
                    static_dir,
                    &mut static_store,
                    &mut static_bytes,
                )?;
                Some((recover_at, assignment[0]))
            } else {
                // ---- Load balancing (§3.4.2) -------------------------
                let pick = cfg
                    .load_balance
                    .filter(|lb| migrations < lb.max_migrations as u64 && n > 1)
                    .and_then(|lb| {
                        self.cluster
                            .pick_migration(&assignment, &pair_busy, lb.deviation)
                    });
                match pick {
                    None => None,
                    Some((slow_pair, fast_node)) => {
                        migrations += 1;
                        self.metrics.migrations.add(1);
                        // Record the migration epoch next to the
                        // snapshots (post-mortem parity with native).
                        let marker = imr_dfs::migration_marker(output_dir, migrations, ckpt.iter);
                        let mut off_path = TaskClock::default();
                        self.dfs.put_atomic(
                            &marker,
                            Bytes::from_static(b"migrated"),
                            fast_node,
                            &mut off_path,
                        )?;
                        self.record(
                            TraceEvent::new(TraceKind::Migration {
                                from: assignment[slow_pair].index() as u32,
                                to: fast_node.index() as u32,
                            })
                            .at(decision_time.as_nanos())
                            .tagged(
                                assignment[slow_pair].index() as u32,
                                slow_pair as u32,
                                iter as u32,
                                generation,
                            ),
                        );
                        let recover_at = self.relaunch_pair::<J>(
                            slow_pair,
                            fast_node,
                            decision_time,
                            &mut assignment,
                            static_dir,
                            &mut static_store,
                            &mut static_bytes,
                        )?;
                        Some((recover_at, fast_node))
                    }
                }
            };
            let Some((recover_at, dump_node)) = rollback else {
                iter += 1;
                continue;
            };
            // Everyone rolls back to the latest checkpoint.
            state_store = ckpt.state.clone();
            global_state = ckpt.global_state.clone();
            prev_out = ckpt.prev_out.clone();
            for p in 0..n {
                state_ready[p] = recover_at;
                state_complete[p] = recover_at;
                let state = if one2all {
                    &global_state
                } else {
                    &state_store[p]
                };
                state_bytes[p] = encode_pairs(state).len() as u64;
            }
            self.flight_dump(output_dir, flight_seq, cfg.flight_window, dump_node)?;
            flight_seq += 1;
            generation += 1;
            report.iteration_done.truncate(ckpt.iter);
            distances.truncate(ckpt.iter);
            iter = ckpt.iter + 1;
        }

        let iterations = report.iteration_done.len();

        let outputs = (0..n).map(|q| {
            let start = last_reduce_done[q].max(decision_time);
            let data = if one2all {
                prev_out[q].take().unwrap_or_default()
            } else {
                std::mem::take(&mut state_store[q])
            };
            (start, data)
        });
        let (final_state, finished) = self.commit_output(output_dir, &assignment, outputs)?;
        report.finished = finished;
        report.metrics = self.metrics.snapshot();

        Ok(IterOutcome {
            report,
            final_state,
            iterations,
            distances,
            migrations,
            recoveries,
        })
    }

    /// Runs an [`Accumulative`](crate::Accumulative) job in the
    /// barrier-free delta-accumulative mode on the simulated cluster.
    ///
    /// The simulator executes the mode as deterministic lock-step
    /// rounds in virtual time: each round every task applies its
    /// highest-priority pending deltas, exchanges exactly one (possibly
    /// empty) delta segment with every peer, and merges received
    /// segments in source order. That data flow is identical to the
    /// native backends' round protocol, so `final_state`, `distances`
    /// and the canonical trace-kind sequence match across engines, and
    /// repeated simulated runs are bit-reproducible.
    ///
    /// `iterations` counts termination-check epochs (`check_every`
    /// rounds each). Fault injection is rejected here — the mode's
    /// recovery path is supervised re-execution, exercised on the
    /// native backends. `warm` as in `IterEngine::run_delta`, the
    /// trait method that reaches this.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_delta<J: crate::Accumulative>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
        warm: bool,
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        use crate::accum::DeltaStore;

        cfg.validate_entry(faults, true)?;
        let ExecMode::Delta { batch, check_every } = cfg.mode else {
            unreachable!("validate_entry: run_accumulative needs delta mode")
        };
        if !faults.is_empty() {
            return Err(EngineError::Config(
                "fault injection under accumulative mode requires the native backend".into(),
            ));
        }
        let n = cfg.num_tasks;
        self.check_launch(n, static_dir);
        assert_eq!(
            num_parts(&self.dfs, state_dir),
            n,
            "one2one state must be pre-partitioned into num_tasks parts"
        );
        let cost = &self.cluster.cost;

        // ---- One-time initialization: load + seed the delta stores ---
        let job_start = VInstant::EPOCH + cost.job_setup;
        let assignment: Vec<NodeId> = self.cluster.assign_pairs(n);
        let mut static_store: Vec<Vec<(J::K, J::T)>> = Vec::with_capacity(n);
        let mut stores: Vec<DeltaStore<J::K, J::S>> = Vec::with_capacity(n);
        let mut now: Vec<VInstant> = Vec::with_capacity(n);
        for p in 0..n {
            let node = assignment[p];
            let (stat, _, mut clock) = self.launch_pair::<J>(static_dir, p, node, job_start)?;
            let bytes = self.dfs.len(&part_path(state_dir, p))?;
            let store = if warm {
                // Warm start: the state part already holds the planned
                // (key, (value, pending)) entries — decode, don't seed.
                DeltaStore::restore(read_part(&self.dfs, state_dir, p, node, &mut clock)?)
            } else {
                let st: Vec<(J::K, J::S)> = read_part(&self.dfs, state_dir, p, node, &mut clock)?;
                DeltaStore::seed(job, &st)
            };
            assert_eq!(
                store.len(),
                stat.len(),
                "state/static co-partitioning broken at pair {p}"
            );
            clock.advance(cost.serde_per_byte * bytes);
            stores.push(store);
            static_store.push(stat);
            now.push(clock.now());
        }

        let eps = cfg
            .termination
            .distance_threshold
            .expect("validate: accumulative mode needs a threshold");
        let max_checks = cfg.termination.max_iterations;
        let mut report = RunReport {
            label: cfg.mode.label("iMapReduce"),
            ..RunReport::default()
        };
        let mut distances: Vec<f64> = Vec::new();
        let mut last_snapshot: Option<String> = None;
        let generation = 0u32;

        for check in 1..=max_checks {
            for p in 0..n {
                self.record(
                    TraceEvent::new(TraceKind::IterStart)
                        .at(now[p].as_nanos())
                        .tagged(
                            assignment[p].index() as u32,
                            p as u32,
                            check as u32,
                            generation,
                        ),
                );
            }
            for _round in 0..check_every.get() {
                // ---- Round phase A: select, apply, extract, send -----
                let mut outgoing: Vec<Vec<Bytes>> = Vec::with_capacity(n);
                let mut send_done: Vec<VInstant> = Vec::with_capacity(n);
                for p in 0..n {
                    let node = assignment[p];
                    let speed = self.cluster.speed(node);
                    let mut clock = TaskClock::starting_at(now[p]);
                    let round_start = clock.now();
                    let out = delta_send_step(
                        job,
                        &mut stores[p],
                        &static_store[p],
                        batch,
                        n,
                        &mut SimCost::new(&mut clock, cost, speed),
                    );
                    self.metrics.deltas_sent.add(out.sent);
                    self.metrics.priority_preemptions.add(out.deferred);
                    self.record(
                        TraceEvent::new(TraceKind::DeltaRound { deltas: out.sent })
                            .spanning(round_start.as_nanos(), clock.now().as_nanos())
                            .tagged(node.index() as u32, p as u32, check as u32, generation),
                    );
                    // A delta round's select/apply/send half is the
                    // accumulative analogue of the map phase.
                    self.phase(
                        Phase::Map,
                        clock
                            .now()
                            .as_nanos()
                            .saturating_sub(round_start.as_nanos()),
                    );
                    send_done.push(clock.now());
                    outgoing.push(out.segments);
                }
                // ---- Round phase B: receive from every peer, merge in
                // source order (the only order the native round protocol
                // guarantees) ------------------------------------------
                for q in 0..n {
                    let node = assignment[q];
                    let speed = self.cluster.speed(node);
                    let mut clock = TaskClock::default();
                    let mut arrivals = Vec::with_capacity(n);
                    for p in 0..n {
                        let b = outgoing[p][q].len() as u64;
                        arrivals.push(
                            send_done[p] + self.cluster.transfer_time(assignment[p], node, b),
                        );
                        if assignment[p] == node {
                            self.metrics.shuffle_local_bytes.add(b);
                        } else {
                            self.metrics.shuffle_remote_bytes.add(b);
                        }
                    }
                    clock.barrier(arrivals);
                    let merge_start = clock.now();
                    delta_merge_step(
                        job,
                        &mut stores[q],
                        outgoing.iter().map(|row| row[q].clone()),
                        &mut SimCost::new(&mut clock, cost, speed),
                    )?;
                    // The receive/merge half plays the reduce role.
                    self.phase(
                        Phase::Reduce,
                        clock
                            .now()
                            .as_nanos()
                            .saturating_sub(merge_start.as_nanos()),
                    );
                    now[q] = clock.now();
                }
            }

            // ---- Global accumulated-progress termination check -------
            let locals: Vec<f64> = stores.iter().map(|s| s.pending_progress(job)).collect();
            let total: f64 = locals.iter().sum();
            self.metrics.termination_checks.add(n as u64);
            let decision = now.iter().copied().max().unwrap_or(job_start) + cost.net_latency;
            for q in 0..n {
                let tags = (assignment[q].index() as u32, q as u32, check as u32);
                self.record(
                    TraceEvent::new(TraceKind::TerminationCheck {
                        progress_bits: locals[q].to_bits(),
                    })
                    .at(decision.as_nanos())
                    .tagged(tags.0, tags.1, tags.2, generation),
                );
                self.record(
                    TraceEvent::new(TraceKind::IterEnd)
                        .at(decision.as_nanos())
                        .tagged(tags.0, tags.1, tags.2, generation),
                );
                if let Some(tel) = &self.telemetry {
                    tel.set_gauge(Gauge::PendingDeltaMass, locals[q].to_bits());
                }
                self.sample(decision.as_nanos(), q as u32, generation, check as u64);
                now[q] = decision;
            }
            report.iteration_done.push(decision);
            distances.push(total);
            let converged = total < eps;
            let done = converged || check == max_checks;

            // ---- Checkpointing (parallel with computation) -----------
            if !done && cfg.checkpoint_interval > 0 && check.is_multiple_of(cfg.checkpoint_interval)
            {
                let dir = imr_dfs::snapshot_dir(output_dir, check);
                let parts = stores.iter().map(DeltaStore::encode);
                self.write_checkpoint(&dir, parts, &assignment, decision, check, generation)?;
                if let Some(old) = last_snapshot.replace(dir) {
                    imr_mapreduce::io::delete_dir(&self.dfs, &old);
                }
            }
            if done {
                break;
            }
        }

        let iterations = report.iteration_done.len();

        // Fold any residual (sub-threshold) pending deltas into the values
        // so the output is the fixpoint the detector certified.
        let outputs = stores
            .into_iter()
            .zip(&now)
            .map(|(store, &start)| (start, store.final_values(job)));
        let (final_state, finished) = self.commit_output(output_dir, &assignment, outputs)?;
        report.finished = finished;
        report.metrics = self.metrics.snapshot();

        Ok(IterOutcome {
            report,
            final_state,
            iterations,
            distances,
            migrations: 0,
            recoveries: 0,
        })
    }

    /// Checks a job's shape against the cluster and counts its launch:
    /// every pair needs dedicated slots, and the static data must come
    /// pre-partitioned into one part per pair.
    pub(crate) fn check_launch(&self, n: usize, static_dir: &str) {
        assert!(
            n <= self.pair_capacity(),
            "persistent tasks need dedicated slots: {} pairs > capacity {}",
            n,
            self.pair_capacity()
        );
        assert_eq!(
            num_parts(&self.dfs, static_dir),
            n,
            "static data must be pre-partitioned into num_tasks parts"
        );
        self.metrics.jobs_launched.add(1);
    }

    /// Launches pair `p`'s two persistent tasks on `node` at `start` —
    /// concurrently, so one launch charge — and loads its static part.
    /// Returns the part, its stored size and the pair's clock after the
    /// load.
    pub(crate) fn launch_pair<J: IterativeJob>(
        &self,
        static_dir: &str,
        p: usize,
        node: NodeId,
        start: VInstant,
    ) -> Result<(Vec<(J::K, J::T)>, u64, TaskClock), EngineError> {
        let cost = &self.cluster.cost;
        let mut clock = TaskClock::starting_at(start + cost.task_launch);
        self.metrics.tasks_launched.add(2);
        let stat: Vec<(J::K, J::T)> = read_part(&self.dfs, static_dir, p, node, &mut clock)?;
        let bytes = self.dfs.len(&part_path(static_dir, p))?;
        clock.advance(cost.serde_per_byte * bytes);
        clock.advance(cost.sort_time(stat.len() as u64, self.cluster.speed(node)));
        Ok((stat, bytes, clock))
    }

    /// Commits each pair's final partition to `output_dir`, once, at
    /// termination (Fig. 1b); pair `q` writes from its start instant
    /// on. Returns the key-sorted final state and when the last write
    /// finished.
    pub(crate) fn commit_output<K: Key, S: Value>(
        &self,
        output_dir: &str,
        assignment: &[NodeId],
        outputs: impl Iterator<Item = (VInstant, Vec<(K, S)>)>,
    ) -> Result<(Vec<(K, S)>, VInstant), EngineError> {
        let mut finished = VInstant::EPOCH;
        let mut final_state = Vec::new();
        for (q, (start, data)) in outputs.enumerate() {
            let mut clock = TaskClock::starting_at(start);
            let payload = encode_pairs(&data);
            self.dfs.put(
                &part_path(output_dir, q),
                payload,
                assignment[q],
                &mut clock,
            )?;
            finished = finished.max(clock.now());
            final_state.extend(data);
        }
        sort_run(&mut final_state);
        Ok((final_state, finished))
    }

    /// Writes checkpoint `epoch`, one part per pair, to `dir` on a
    /// throwaway clock: the paper performs checkpointing in parallel
    /// with the iterative process, so it costs bytes (counted, and
    /// observed as their modelled disk time) but no critical-path time.
    /// Records each pair's `Checkpoint` event at `at`.
    fn write_checkpoint(
        &self,
        dir: &str,
        parts: impl Iterator<Item = Bytes>,
        assignment: &[NodeId],
        at: VInstant,
        epoch: usize,
        generation: u32,
    ) -> Result<(), EngineError> {
        let before = self.metrics.dfs_write_bytes.get();
        for (q, payload) in parts.enumerate() {
            let mut off_path = TaskClock::default();
            self.dfs
                .put_atomic(&part_path(dir, q), payload, assignment[q], &mut off_path)?;
        }
        let written = self.metrics.dfs_write_bytes.get() - before;
        self.metrics.checkpoint_bytes.add(written);
        let disk = self.cluster.cost.disk_time(written);
        self.phase(Phase::CheckpointWrite, disk.as_nanos());
        for (q, node) in assignment.iter().enumerate() {
            self.record(
                TraceEvent::new(TraceKind::Checkpoint {
                    epoch: epoch as u64,
                })
                .at(at.as_nanos())
                .tagged(node.index() as u32, q as u32, epoch as u32, generation),
            );
        }
        Ok(())
    }

    /// Handles a worker failure: marks the node dead in the DFS,
    /// reassigns its pairs to surviving nodes with spare capacity and
    /// charges the relaunch + static reload. Returns the instant all
    /// tasks may resume from the checkpoint.
    #[allow(clippy::too_many_arguments)]
    fn recover_from_failure<J: IterativeJob>(
        &self,
        dead: NodeId,
        detected_at: VInstant,
        assignment: &mut [NodeId],
        ckpt: &Checkpoint<J::K, J::S>,
        static_dir: &str,
        static_store: &mut [Vec<(J::K, J::T)>],
        static_bytes: &mut [u64],
    ) -> Result<VInstant, EngineError> {
        self.dfs.fail_node(dead);
        let n = assignment.len();
        let mut per_node = vec![0usize; self.cluster.len()];
        for node in assignment.iter().filter(|&&node| node != dead) {
            per_node[node.index()] += 1;
        }
        let mut resume = detected_at;
        for p in 0..n {
            if assignment[p] != dead {
                // Survivors roll back: reload checkpointed state from
                // DFS (paper §3.4.2 rollback), charged below uniformly.
                continue;
            }
            // Pick the fastest surviving node with spare pair capacity.
            let target = self
                .cluster
                .node_ids()
                .filter(|&nid| nid != dead)
                .filter(|&nid| per_node[nid.index()] < self.node_pair_capacity(nid))
                .max_by(|a, b| {
                    self.cluster
                        .speed(*a)
                        .partial_cmp(&self.cluster.speed(*b))
                        .unwrap()
                        .then(b.0.cmp(&a.0))
                })
                .expect("no surviving node has capacity for recovery");
            per_node[target.index()] += 1;
            let relaunched = self.relaunch_pair::<J>(
                p,
                target,
                detected_at,
                assignment,
                static_dir,
                static_store,
                static_bytes,
            )?;
            resume = resume.max(relaunched);
        }
        // Rolled-back tasks (all of them) reload the checkpointed state
        // from DFS; charge the slowest reload.
        if let Some(dir) = &ckpt.dfs_dir {
            for p in 0..n {
                let mut clock = TaskClock::starting_at(detected_at);
                let _: Vec<(J::K, J::S)> =
                    read_part(&self.dfs, dir, p, assignment[p], &mut clock).unwrap_or_default();
                resume = resume.max(clock.now());
            }
        }
        Ok(resume)
    }

    /// Relaunches `pair`'s persistent tasks on `target` (a failed
    /// pair's replacement, or the middle step of §3.4.2's three-step
    /// migration) and reloads its static part from DFS. Returns the
    /// instant the relaunched pair is ready.
    #[allow(clippy::too_many_arguments)]
    fn relaunch_pair<J: IterativeJob>(
        &self,
        pair: usize,
        target: NodeId,
        detected_at: VInstant,
        assignment: &mut [NodeId],
        static_dir: &str,
        static_store: &mut [Vec<(J::K, J::T)>],
        static_bytes: &mut [u64],
    ) -> Result<VInstant, EngineError> {
        assignment[pair] = target;
        self.metrics.tasks_launched.add(2);
        let mut clock = TaskClock::starting_at(detected_at + self.cluster.cost.task_launch);
        let stat: Vec<(J::K, J::T)> = read_part(&self.dfs, static_dir, pair, target, &mut clock)?;
        static_bytes[pair] = self.dfs.len(&part_path(static_dir, pair))?;
        static_store[pair] = stat;
        Ok(clock.now())
    }
}
