//! Job configuration: the Rust equivalent of the paper's
//! `JobConf` parameters (`mapred.iterjob.*`).

use imr_mapreduce::EngineError;
use imr_net::{ChaosConfig, NetPolicy};
use imr_simcluster::NodeId;
use std::num::NonZeroUsize;
use std::time::Duration;

/// Termination rule (paper §3.1.2): a fixed iteration cap, optionally
/// tightened by a distance threshold between consecutive iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Termination {
    /// `mapred.iterjob.maxiter` — hard upper bound on iterations.
    pub max_iterations: usize,
    /// `mapred.iterjob.disthresh` — stop once the accumulated
    /// `distance()` between consecutive iterations drops below this.
    pub distance_threshold: Option<f64>,
}

/// Load-balancing policy (paper §3.4.2): after each iteration the
/// master compares per-task iteration times and migrates the slowest
/// worker's map/reduce pair to the fastest worker when the deviation
/// exceeds a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBalance {
    /// Migrate when `slowest / average > 1 + deviation`.
    pub deviation: f64,
    /// Upper bound on total migrations (guards against the paper's
    /// "large partition keeps moving around" pathology).
    pub max_migrations: usize,
}

impl Default for LoadBalance {
    fn default() -> Self {
        LoadBalance {
            deviation: 0.25,
            max_migrations: 8,
        }
    }
}

/// A scripted runtime fault, used by fault-tolerance tests and the
/// recovery experiments: a crash ([`FaultEvent::Kill`]) and the two
/// degraded-but-alive modes a watchdog must distinguish — a bounded
/// slowdown ([`FaultEvent::Delay`], which healthy recovery must *not*
/// react to) and an indefinite stall ([`FaultEvent::Hang`], which only
/// stall detection can turn back into a recoverable failure).
///
/// All three fire deterministically: the named node misbehaves once
/// iteration `at_iteration` has completed on its pairs. Both engines
/// place pair `p` on `ClusterSpec::assign_pairs(n)[p]`, so an event
/// naming a node hits the same task pairs everywhere; on the native
/// backend a killed node's pairs exit at that exact point and the
/// supervisor replays from the last complete checkpoint epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The node crashes.
    Kill {
        /// The node that fails.
        node: NodeId,
        /// The iteration after which it fails (1-based).
        at_iteration: usize,
    },
    /// The node's pairs lose `millis` of processing time during this
    /// iteration but keep making progress. A correctly tuned watchdog
    /// leaves delays alone; delays are therefore *not* consumed on
    /// recovery and re-apply identically on replay.
    Delay {
        /// The node that slows down.
        node: NodeId,
        /// The iteration during which it is slow (1-based).
        at_iteration: usize,
        /// Extra busy time per hosted pair, in milliseconds.
        millis: u64,
    },
    /// The node's pairs stop responding after the iteration completes,
    /// without exiting. Nothing but the watchdog's stall detection can
    /// recover the job, so [`IterConfig::validate`] requires a watchdog
    /// whenever a hang is scripted.
    Hang {
        /// The node that hangs.
        node: NodeId,
        /// The iteration after which it hangs (1-based).
        at_iteration: usize,
    },
}

impl FaultEvent {
    /// The node this fault targets.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultEvent::Kill { node, .. }
            | FaultEvent::Delay { node, .. }
            | FaultEvent::Hang { node, .. } => node,
        }
    }

    /// The 1-based iteration at which this fault fires.
    pub fn at_iteration(&self) -> usize {
        match *self {
            FaultEvent::Kill { at_iteration, .. }
            | FaultEvent::Delay { at_iteration, .. }
            | FaultEvent::Hang { at_iteration, .. } => at_iteration,
        }
    }
}

/// Supervisor watchdog policy: how unscripted stalls are detected.
///
/// Workers publish a heartbeat after every completed iteration; the
/// supervisor polls the heartbeats every `poll` and declares a pair
/// failed when *no* active pair has progressed for `stall_timeout`
/// (a pair that is merely slow keeps the run alive because the others
/// block on it at the iteration barrier and their own heartbeats stop
/// advancing too — only a global freeze marks a genuine stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How often the supervisor samples worker heartbeats.
    pub poll: Duration,
    /// No heartbeat for this long ⇒ the least-advanced pair is
    /// declared failed and recovery starts.
    pub stall_timeout: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            poll: Duration::from_millis(25),
            stall_timeout: Duration::from_secs(2),
        }
    }
}

/// Which shuffle fabric the native backend runs the reduce→map
/// connections over (paper §3.2's persistent socket connections).
///
/// Both transports present the same `Transport` contract — per-link
/// FIFO order and a bounded number of in-flight segments — so a job
/// produces bit-identical results on either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process bounded channels between worker threads (default).
    #[default]
    Channel,
    /// Length-prefixed frames over persistent localhost TCP
    /// connections, with each pair in its own OS process and the
    /// supervisor acting as coordinator. Requires the multi-process
    /// entry point (`NativeRunner::run_remote`).
    Tcp,
}

/// When a one2one map task may start its next iteration (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// As soon as its own paired reduce handed its output over: no
    /// global barrier (the paper's default asynchronous maps).
    Async,
    /// Like `Async`, but the reduce streams its output to the paired
    /// map in buffer-sized chunks as it is produced (§3.3's eager
    /// sending with a buffer), so the map's sorted join starts right
    /// after the reduce's shuffle barrier instead of after its last
    /// record. Only the virtual-time cost model sees the difference;
    /// the native backends run it as `Async`.
    Eager,
    /// After *all* reduce tasks of the previous iteration
    /// (`mapred.iterjob.sync`; the paper's "iMapReduce (sync.)" curve).
    Sync,
}

/// How a job executes: the paper's `mapred.iterjob.mapping` and
/// `mapred.iterjob.sync`, plus the delta-accumulative mode. Each
/// variant carries only the knobs that apply to it, so no rejected
/// combination can be written down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Each reduce task feeds exactly its paired map task
    /// (`mapred.iterjob.mapping = one2one`; graph algorithms).
    One2One(Activation),
    /// Every reduce task broadcasts its output to all map tasks
    /// (`mapred.iterjob.mapping = one2all`; K-means-like jobs). Maps
    /// are always synchronous.
    One2All,
    /// Barrier-free delta-accumulative execution (Maiter-style, DESIGN.md
    /// §11). Needs an [`Accumulative`](crate::Accumulative) job, the
    /// `run_accumulative` entry point and a `distance_threshold` (the
    /// accumulated-progress detector); no load balancing or `resume`.
    Delta {
        /// Pending keys one task applies per round, picked
        /// largest-progress-first; `0` applies every pending key, a
        /// smaller batch defers the rest and counts them as
        /// `priority_preemptions`.
        batch: usize,
        /// Rounds of delta propagation between two global
        /// accumulated-progress termination checks. The check epoch is
        /// the mode's unit of supervision: heartbeats, checkpoints and
        /// `max_iterations` all count checks.
        check_every: NonZeroUsize,
    },
}

impl ExecMode {
    /// Whether every map task waits for all reduce tasks of the
    /// previous iteration (one2all, or one2one with `Sync` activation).
    pub fn is_sync(self) -> bool {
        matches!(
            self,
            ExecMode::One2One(Activation::Sync) | ExecMode::One2All
        )
    }

    /// The report label of a run of `engine` in this mode: the paper's
    /// legend names, e.g. `"iMapReduce (sync.)"` for the synchronous
    /// one2one variant, `"iMapReduce (delta)"` for delta-accumulative
    /// runs, the bare engine name otherwise.
    pub fn label(self, engine: &str) -> String {
        let suffix = match self {
            ExecMode::One2One(Activation::Sync) => " (sync.)",
            ExecMode::Delta { .. } => " (delta)",
            _ => "",
        };
        format!("{engine}{suffix}")
    }

    /// The delta knobs, or the defaults (every pending key, one round
    /// per check) outside delta mode.
    fn delta_knobs(self) -> (usize, NonZeroUsize) {
        match self {
            ExecMode::Delta { batch, check_every } => (batch, check_every),
            _ => (0, NonZeroUsize::MIN),
        }
    }
}

/// Full configuration of one iMapReduce job.
#[derive(Debug, Clone)]
pub struct IterConfig {
    /// Job name (used in DFS paths and reports).
    pub name: String,
    /// Number of persistent map/reduce task pairs. Must not exceed the
    /// cluster's task slots (§3.1.1 requires every persistent task to
    /// hold a slot for the whole run).
    pub num_tasks: usize,
    /// Termination rule.
    pub termination: Termination,
    /// Execution mode: one2one (with its map activation), one2all or
    /// delta-accumulative.
    pub mode: ExecMode,
    /// Dump reduce-side state to DFS every this many iterations
    /// (checkpointing, §3.4.1). 0 disables checkpointing.
    pub checkpoint_interval: usize,
    /// Optional migration-based load balancing.
    pub load_balance: Option<LoadBalance>,
    /// Optional supervisor watchdog for unscripted-stall detection.
    pub watchdog: Option<WatchdogConfig>,
    /// Shuffle fabric for the native backend (ignored by the
    /// simulation engine, which models its own network).
    pub transport: TransportKind,
    /// How many trailing trace events the flight recorder dumps to a
    /// DFS artifact when a rollback or migration fires (only relevant
    /// when the runner carries a trace buffer).
    pub flight_window: usize,
    /// Resume a previously interrupted run from the newest complete
    /// checkpoint snapshot under the output directory instead of
    /// starting at iteration 0. Used by the job service to pick an
    /// in-flight job back up after a coordinator crash; requires
    /// `checkpoint_interval > 0` and is a no-op when no snapshot
    /// exists yet.
    pub resume: bool,
    /// Unified network policy for the TCP backend: connect/handshake
    /// deadlines, teardown grace, the supervisor's no-progress retry
    /// budget and the worker connect loop's jittered exponential
    /// backoff. The coordinator exports it to spawned workers via
    /// `IMR_NET_*` environment variables so the whole fleet agrees.
    pub net: NetPolicy,
    /// Deterministic network-chaos injection on the coordinator's TCP
    /// links (seeded frame drops/corruption/duplicates/resets and read
    /// stalls with a shared fault budget). `None` leaves the wire
    /// clean. Requires the TCP transport, checkpointing and a watchdog
    /// — see [`IterConfig::validate`].
    pub chaos: Option<ChaosConfig>,
}

impl IterConfig {
    /// A one2one async config with `num_tasks` pairs and a fixed
    /// iteration count — the common graph-algorithm setup.
    pub fn new(name: impl Into<String>, num_tasks: usize, max_iterations: usize) -> Self {
        assert!(num_tasks > 0, "need at least one task pair");
        assert!(max_iterations > 0, "need at least one iteration");
        IterConfig {
            name: name.into(),
            num_tasks,
            termination: Termination {
                max_iterations,
                distance_threshold: None,
            },
            mode: ExecMode::One2One(Activation::Async),
            checkpoint_interval: 5,
            load_balance: None,
            watchdog: None,
            transport: TransportKind::Channel,
            flight_window: 64,
            resume: false,
            net: NetPolicy::default(),
            chaos: None,
        }
    }

    /// Sets the unified network policy for the TCP backend.
    pub fn with_net_policy(mut self, net: NetPolicy) -> Self {
        self.net = net;
        self
    }

    /// Enables deterministic network-chaos injection on the TCP
    /// coordinator links.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the flight-recorder window (trailing events per dump).
    pub fn with_flight_window(mut self, events: usize) -> Self {
        self.flight_window = events;
        self
    }

    /// Switches to one2one with eager chunked reduce→map hand-off
    /// (§3.3 buffer; [`Activation::Eager`]).
    pub fn with_eager_handoff(mut self) -> Self {
        self.mode = ExecMode::One2One(Activation::Eager);
        self
    }

    /// Sets a distance threshold (`disthresh`).
    pub fn with_distance_threshold(mut self, eps: f64) -> Self {
        self.termination.distance_threshold = Some(eps);
        self
    }

    /// Switches to one2all broadcast mapping (synchronous maps).
    pub fn with_one2all(mut self) -> Self {
        self.mode = ExecMode::One2All;
        self
    }

    /// Switches to one2one with synchronous map execution (the paper's
    /// sync. variant; [`Activation::Sync`]).
    pub fn with_sync_maps(mut self) -> Self {
        self.mode = ExecMode::One2One(Activation::Sync);
        self
    }

    /// Sets the checkpoint interval (0 disables).
    pub fn with_checkpoint_interval(mut self, every: usize) -> Self {
        self.checkpoint_interval = every;
        self
    }

    /// Enables load balancing with the given policy.
    pub fn with_load_balance(mut self, lb: LoadBalance) -> Self {
        self.load_balance = Some(lb);
        self
    }

    /// Enables the supervisor watchdog with the given policy.
    pub fn with_watchdog(mut self, wd: WatchdogConfig) -> Self {
        self.watchdog = Some(wd);
        self
    }

    /// Selects the TCP multi-process shuffle fabric.
    pub fn with_tcp_transport(mut self) -> Self {
        self.transport = TransportKind::Tcp;
        self
    }

    /// Resumes from the newest complete snapshot under the output
    /// directory (if any) instead of restarting at iteration 0.
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Switches to barrier-free delta-accumulative execution
    /// ([`ExecMode::Delta`]), keeping any delta knobs already set.
    /// Requires an `Accumulative` job, the `run_accumulative` entry
    /// point and a distance threshold (the accumulated-progress
    /// termination detector).
    pub fn with_accumulative_mode(mut self) -> Self {
        let (batch, check_every) = self.mode.delta_knobs();
        self.mode = ExecMode::Delta { batch, check_every };
        self
    }

    /// Delta mode with at most `batch` pending keys applied per round,
    /// largest-progress-first (0 = all pending keys).
    pub fn with_delta_batch(mut self, batch: usize) -> Self {
        let (_, check_every) = self.mode.delta_knobs();
        self.mode = ExecMode::Delta { batch, check_every };
        self
    }

    /// Delta mode with `rounds` delta-propagation rounds between two
    /// global termination checks.
    pub fn with_check_every(mut self, rounds: usize) -> Self {
        let check_every =
            NonZeroUsize::new(rounds).expect("need at least one round between termination checks");
        let (batch, _) = self.mode.delta_knobs();
        self.mode = ExecMode::Delta { batch, check_every };
        self
    }

    /// [`IterConfig::validate`], plus the check that the entry point
    /// matches the mode: `accumulative` says whether the caller runs
    /// the barrier-free delta loop (`run_accumulative`) or map/reduce
    /// iterations (`run`).
    pub fn validate_entry(
        &self,
        faults: &[FaultEvent],
        accumulative: bool,
    ) -> Result<(), EngineError> {
        self.validate(faults)?;
        match (matches!(self.mode, ExecMode::Delta { .. }), accumulative) {
            (true, false) => Err(EngineError::Config(
                "cfg is in delta-accumulative mode: use run_accumulative for \
                 barrier-free delta-accumulative execution"
                    .into(),
            )),
            (false, true) => Err(EngineError::Config(
                "run_accumulative needs cfg.with_accumulative_mode()".into(),
            )),
            _ => Ok(()),
        }
    }

    /// Checks this configuration against a fault schedule. Both engines
    /// call this before starting, so a bad combination is the same
    /// [`EngineError::Config`] everywhere instead of an engine-specific
    /// panic, deadlock, or silent fallback:
    ///
    /// * kills and hangs need `checkpoint_interval > 0` — recovery
    ///   replays from a checkpoint epoch;
    /// * load balancing needs `checkpoint_interval > 0` — migration
    ///   happens by rolling back to a checkpoint under a new placement;
    /// * a scripted hang needs a watchdog — nothing else can detect it;
    /// * thresholds and timeouts must be positive and finite.
    ///
    /// Delay faults alone are fine without checkpoints: a delayed pair
    /// still completes.
    pub fn validate(&self, faults: &[FaultEvent]) -> Result<(), EngineError> {
        if let ExecMode::Delta { .. } = self.mode {
            if self.load_balance.is_some() {
                return Err(EngineError::Config(
                    "accumulative mode does not support load balancing yet: \
                     the priority scheduler owns task placement"
                        .into(),
                ));
            }
            if self.resume {
                return Err(EngineError::Config(
                    "accumulative mode does not support durable resume: \
                     delta-store snapshots are generation-local"
                        .into(),
                ));
            }
            if self.termination.distance_threshold.is_none() {
                return Err(EngineError::Config(
                    "accumulative mode needs a distance_threshold: \
                     termination is the accumulated-progress detector"
                        .into(),
                ));
            }
        }
        let needs_recovery = faults
            .iter()
            .any(|f| !matches!(f, FaultEvent::Delay { .. }));
        if needs_recovery && self.checkpoint_interval == 0 {
            return Err(EngineError::Config(
                "kill/hang fault injection requires checkpoint_interval > 0 \
                 (recovery replays from a checkpoint epoch)"
                    .into(),
            ));
        }
        if let Some(lb) = &self.load_balance {
            if self.checkpoint_interval == 0 {
                return Err(EngineError::Config(
                    "load balancing requires checkpoint_interval > 0 \
                     (migration rolls back to a checkpoint epoch)"
                        .into(),
                ));
            }
            if !lb.deviation.is_finite() || lb.deviation <= 0.0 {
                return Err(EngineError::Config(format!(
                    "load-balance deviation must be positive and finite, got {}",
                    lb.deviation
                )));
            }
        }
        if let Some(wd) = &self.watchdog {
            if wd.poll.is_zero() || wd.stall_timeout.is_zero() {
                return Err(EngineError::Config(
                    "watchdog poll and stall_timeout must be non-zero".into(),
                ));
            }
        }
        if self.resume && self.checkpoint_interval == 0 {
            return Err(EngineError::Config(
                "resume requires checkpoint_interval > 0 \
                 (there is no snapshot to resume from otherwise)"
                    .into(),
            ));
        }
        if faults.iter().any(|f| matches!(f, FaultEvent::Hang { .. })) && self.watchdog.is_none() {
            return Err(EngineError::Config(
                "hang fault injection requires a watchdog (with_watchdog): \
                 a hung pair never exits, so only stall detection recovers it"
                    .into(),
            ));
        }
        self.net
            .validate()
            .map_err(|msg| EngineError::Config(format!("net policy: {msg}")))?;
        if let Some(chaos) = &self.chaos {
            chaos
                .validate()
                .map_err(|msg| EngineError::Config(format!("chaos config: {msg}")))?;
            if self.transport != TransportKind::Tcp {
                return Err(EngineError::Config(
                    "chaos injection targets the TCP transport \
                     (with_tcp_transport): the channel fabric has no wire"
                        .into(),
                ));
            }
            if chaos.is_active() {
                if self.checkpoint_interval == 0 {
                    return Err(EngineError::Config(
                        "chaos injection requires checkpoint_interval > 0: \
                         a torn-down connection replays from a checkpoint epoch"
                            .into(),
                    ));
                }
                if self.watchdog.is_none() {
                    return Err(EngineError::Config(
                        "chaos injection requires a watchdog (with_watchdog): \
                         a stalled or wedged connection is only recovered by \
                         stall detection"
                            .into(),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_sets_fields() {
        let c = IterConfig::new("pagerank", 8, 20)
            .with_distance_threshold(0.01)
            .with_checkpoint_interval(3)
            .with_load_balance(LoadBalance::default());
        assert_eq!(c.num_tasks, 8);
        assert_eq!(c.termination.max_iterations, 20);
        assert_eq!(c.termination.distance_threshold, Some(0.01));
        assert_eq!(c.checkpoint_interval, 3);
        assert!(c.load_balance.is_some());
        assert!(!c.mode.is_sync());
    }

    #[test]
    fn flight_window_defaults_and_overrides() {
        assert_eq!(IterConfig::new("sssp", 2, 3).flight_window, 64);
        let c = IterConfig::new("sssp", 2, 3).with_flight_window(256);
        assert_eq!(c.flight_window, 256);
    }

    #[test]
    fn transport_defaults_to_channel() {
        let c = IterConfig::new("sssp", 2, 3);
        assert_eq!(c.transport, TransportKind::Channel);
        assert_eq!(TransportKind::default(), TransportKind::Channel);
        let t = c.with_tcp_transport();
        assert_eq!(t.transport, TransportKind::Tcp);
    }

    #[test]
    fn eager_handoff_flag() {
        let c = IterConfig::new("sssp", 2, 3).with_eager_handoff();
        assert_eq!(c.mode, ExecMode::One2One(Activation::Eager));
        assert_eq!(
            IterConfig::new("sssp", 2, 3).mode,
            ExecMode::One2One(Activation::Async)
        );
    }

    #[test]
    fn one2all_implies_sync() {
        let c = IterConfig::new("kmeans", 4, 10).with_one2all();
        assert_eq!(c.mode, ExecMode::One2All);
        assert!(c.mode.is_sync());
    }

    #[test]
    fn sync_flag_alone_keeps_one2one() {
        let c = IterConfig::new("sssp", 4, 10).with_sync_maps();
        assert_eq!(c.mode, ExecMode::One2One(Activation::Sync));
        assert!(c.mode.is_sync());
    }

    fn is_config_err<T>(r: Result<T, EngineError>, needle: &str) -> bool {
        matches!(r, Err(EngineError::Config(msg)) if msg.contains(needle))
    }

    #[test]
    fn validate_accepts_clean_and_delay_only_runs_without_checkpoints() {
        let c = IterConfig::new("sssp", 2, 3).with_checkpoint_interval(0);
        assert!(c.validate(&[]).is_ok());
        let delay = FaultEvent::Delay {
            node: NodeId(0),
            at_iteration: 1,
            millis: 5,
        };
        assert!(c.validate(&[delay]).is_ok());
    }

    #[test]
    fn validate_rejects_kill_or_hang_without_checkpoints() {
        let c = IterConfig::new("sssp", 2, 3)
            .with_checkpoint_interval(0)
            .with_watchdog(WatchdogConfig::default());
        let kill = FaultEvent::Kill {
            node: NodeId(0),
            at_iteration: 1,
        };
        let hang = FaultEvent::Hang {
            node: NodeId(0),
            at_iteration: 1,
        };
        assert!(is_config_err(c.validate(&[kill]), "checkpoint_interval"));
        assert!(is_config_err(c.validate(&[hang]), "checkpoint_interval"));
    }

    #[test]
    fn validate_rejects_load_balance_without_checkpoints() {
        let c = IterConfig::new("sssp", 2, 3)
            .with_checkpoint_interval(0)
            .with_load_balance(LoadBalance::default());
        assert!(is_config_err(c.validate(&[]), "checkpoint_interval"));
    }

    #[test]
    fn validate_rejects_bad_deviation_and_zero_watchdog_timeouts() {
        let bad_dev = IterConfig::new("sssp", 2, 3).with_load_balance(LoadBalance {
            deviation: 0.0,
            max_migrations: 1,
        });
        assert!(is_config_err(bad_dev.validate(&[]), "deviation"));
        let bad_wd = IterConfig::new("sssp", 2, 3).with_watchdog(WatchdogConfig {
            poll: Duration::ZERO,
            stall_timeout: Duration::from_secs(1),
        });
        assert!(is_config_err(bad_wd.validate(&[]), "watchdog"));
    }

    #[test]
    fn validate_rejects_resume_without_checkpoints() {
        let c = IterConfig::new("sssp", 2, 3)
            .with_checkpoint_interval(0)
            .with_resume();
        assert!(is_config_err(c.validate(&[]), "resume"));
        assert!(IterConfig::new("sssp", 2, 3)
            .with_resume()
            .validate(&[])
            .is_ok());
    }

    #[test]
    fn validate_rejects_hang_without_watchdog() {
        let c = IterConfig::new("sssp", 2, 3);
        let hang = FaultEvent::Hang {
            node: NodeId(0),
            at_iteration: 1,
        };
        assert!(is_config_err(c.validate(&[hang]), "watchdog"));
    }

    #[test]
    fn fault_event_accessors() {
        let f = FaultEvent::Kill {
            node: NodeId(3),
            at_iteration: 7,
        };
        assert_eq!(f.node(), NodeId(3));
        assert_eq!(f.at_iteration(), 7);
    }

    #[test]
    fn accumulative_builders_set_fields() {
        let c = IterConfig::new("pr", 4, 50)
            .with_accumulative_mode()
            .with_delta_batch(16)
            .with_check_every(3)
            .with_distance_threshold(1e-9);
        assert_eq!(
            c.mode,
            ExecMode::Delta {
                batch: 16,
                check_every: NonZeroUsize::new(3).unwrap()
            }
        );
        assert!(c.validate(&[]).is_ok());
        let d = IterConfig::new("pr", 4, 50).with_accumulative_mode();
        assert_eq!(
            d.mode,
            ExecMode::Delta {
                batch: 0,
                check_every: NonZeroUsize::MIN
            }
        );
    }

    #[test]
    fn delta_setters_keep_each_others_knobs() {
        let c = IterConfig::new("pr", 4, 50)
            .with_check_every(3)
            .with_delta_batch(16)
            .with_accumulative_mode();
        assert_eq!(
            c.mode,
            ExecMode::Delta {
                batch: 16,
                check_every: NonZeroUsize::new(3).unwrap()
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_check_every_rejected() {
        let _ = IterConfig::new("pr", 2, 5).with_check_every(0);
    }

    #[test]
    fn labels_follow_the_mode() {
        let label = |c: IterConfig| c.mode.label("iMapReduce");
        let c = || IterConfig::new("x", 2, 5);
        assert_eq!(label(c()), "iMapReduce");
        assert_eq!(label(c().with_eager_handoff()), "iMapReduce");
        assert_eq!(label(c().with_one2all()), "iMapReduce");
        assert_eq!(label(c().with_sync_maps()), "iMapReduce (sync.)");
        assert_eq!(label(c().with_accumulative_mode()), "iMapReduce (delta)");
    }

    #[test]
    fn validate_accumulative_needs_threshold() {
        let c = IterConfig::new("pr", 2, 5).with_accumulative_mode();
        assert!(is_config_err(c.validate(&[]), "distance_threshold"));
    }

    #[test]
    fn validate_accumulative_rejects_unsupported_combos() {
        let base = IterConfig::new("pr", 2, 5)
            .with_accumulative_mode()
            .with_distance_threshold(1e-9);
        assert!(is_config_err(
            base.clone()
                .with_load_balance(LoadBalance::default())
                .validate(&[]),
            "load balancing"
        ));
        assert!(is_config_err(
            base.clone().with_resume().validate(&[]),
            "resume"
        ));
        // The shared fault rules still apply under accumulative mode.
        let kill = FaultEvent::Kill {
            node: NodeId(0),
            at_iteration: 1,
        };
        assert!(is_config_err(
            base.clone().with_checkpoint_interval(0).validate(&[kill]),
            "checkpoint_interval"
        ));
        let hang = FaultEvent::Hang {
            node: NodeId(0),
            at_iteration: 1,
        };
        assert!(is_config_err(base.validate(&[hang]), "watchdog"));
    }

    #[test]
    fn validate_rejects_bad_net_policy() {
        let mut c = IterConfig::new("sssp", 2, 3);
        c.net.retry_budget = 0;
        assert!(is_config_err(c.validate(&[]), "retry_budget"));
    }

    #[test]
    fn validate_chaos_requirements() {
        let chaos = ChaosConfig::seeded(7).with_drop_rate(0.05);
        // Chaos off the TCP transport is rejected.
        let on_channel = IterConfig::new("sssp", 2, 3).with_chaos(chaos);
        assert!(is_config_err(on_channel.validate(&[]), "TCP"));
        // Active chaos needs checkpoints and a watchdog.
        let no_ckpt = IterConfig::new("sssp", 2, 3)
            .with_tcp_transport()
            .with_checkpoint_interval(0)
            .with_watchdog(WatchdogConfig::default())
            .with_chaos(chaos);
        assert!(is_config_err(no_ckpt.validate(&[]), "checkpoint_interval"));
        let no_wd = IterConfig::new("sssp", 2, 3)
            .with_tcp_transport()
            .with_chaos(chaos);
        assert!(is_config_err(no_wd.validate(&[]), "watchdog"));
        // The full combination passes, as does inert chaos (all rates 0).
        let ok = IterConfig::new("sssp", 2, 3)
            .with_tcp_transport()
            .with_watchdog(WatchdogConfig::default())
            .with_chaos(chaos);
        assert!(ok.validate(&[]).is_ok());
        let inert = IterConfig::new("sssp", 2, 3)
            .with_tcp_transport()
            .with_chaos(ChaosConfig::seeded(7));
        assert!(inert.validate(&[]).is_ok());
        // Over-the-maximum rates are caught here too.
        let too_hot = IterConfig::new("sssp", 2, 3)
            .with_tcp_transport()
            .with_watchdog(WatchdogConfig::default())
            .with_chaos(ChaosConfig::seeded(7).with_drop_rate(0.9));
        assert!(is_config_err(too_hot.validate(&[]), "chaos"));
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_rejected() {
        let _ = IterConfig::new("bad", 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = IterConfig::new("bad", 1, 0);
    }
}
