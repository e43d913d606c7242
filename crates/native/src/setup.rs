//! What one pair runs with, and the setup frame that carries it to a
//! TCP worker process.
//!
//! The thread backend hands a [`PairCfg`], [`PairDirs`] and
//! [`PairPlan`] to each worker thread directly; the TCP coordinator
//! encodes the same three values, plus the generation's start epoch,
//! into the body of the first frame on every connection
//! (`ToWorker::Setup`), and the worker decodes them back. `imr-net`
//! only sees the body as opaque bytes (it cannot depend on the core
//! crate's [`ExecMode`]), so this module is the one codec for it.

use bytes::{Bytes, BytesMut};
use imapreduce::{Activation, ExecMode, IterConfig};
use imr_net::proto::ToWorker;
use imr_records::{Codec, CodecError, CodecResult};
use std::num::NonZeroUsize;

/// The per-pair slice of the job configuration, identical across
/// backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCfg {
    /// Number of map/reduce pairs in the job.
    pub n: usize,
    /// The job's execution mode, unchanged from its `IterConfig`.
    pub mode: ExecMode,
    /// Distance threshold for termination, if any.
    pub threshold: Option<f64>,
    /// Iteration (or, in delta mode, termination-check) cap.
    pub max_iters: usize,
    /// Checkpoint every this many iterations (0 disables).
    pub checkpoint_interval: usize,
    /// Number of `part-*` files under the state directory (one2all
    /// epoch-0 loads read them all).
    pub num_state_parts: usize,
    /// Incremental warm start: epoch-0 state parts hold the planner's
    /// `(key, (value, pending))` entries to restore, not initial values
    /// to seed. Set only by the incremental entry points.
    pub warm: bool,
}

impl PairCfg {
    /// The slice of `cfg` every pair runs with; `warm` as in
    /// [`PairCfg::warm`].
    pub fn from_config(cfg: &IterConfig, num_state_parts: usize, warm: bool) -> Self {
        PairCfg {
            n: cfg.num_tasks,
            mode: cfg.mode,
            threshold: cfg.termination.distance_threshold,
            max_iters: cfg.termination.max_iterations,
            checkpoint_interval: cfg.checkpoint_interval,
            num_state_parts,
            warm,
        }
    }
}

/// The DFS directory layout a pair reads from and writes to.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDirs {
    /// Initial state parts (epoch 0).
    pub state_dir: String,
    /// Static data parts, co-partitioned with the state.
    pub static_dir: String,
    /// Final output, and the checkpoint snapshots under it.
    pub output_dir: String,
}

/// One pair's resolved fault script and emulated node speed for one
/// generation, derived from the pending fault events and the pair's
/// current placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPlan {
    /// Iterations after which this pair crashes (scripted kills).
    pub kills: Vec<usize>,
    /// Iterations after which this pair hangs until poisoned.
    pub hangs: Vec<usize>,
    /// `(iteration, millis)` scripted slowdowns during that iteration.
    pub delays: Vec<(usize, u64)>,
    /// Relative speed of the hosting node; below 1.0 the pair sleeps
    /// `busy · (1/speed − 1)` per iteration to emulate slow hardware.
    pub speed: f64,
    /// Test hook (TCP backend): vanish — exit the process abruptly with
    /// no outcome report — right after this iteration, emulating an
    /// unscripted worker crash / dropped connection.
    pub crash_after: Option<usize>,
}

/// Everything a TCP worker process needs to run its pair for one
/// generation: the body of the coordinator's setup frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Setup {
    /// The checkpoint epoch the generation starts from (0 on a fresh
    /// run).
    pub epoch: usize,
    /// The job configuration slice.
    pub cfg: PairCfg,
    /// The DFS layout (the coordinator proxies every read).
    pub dirs: PairDirs,
    /// This pair's fault script and speed.
    pub plan: PairPlan,
}

impl Setup {
    /// The setup frame carrying `self`.
    pub fn frame(&self) -> ToWorker {
        let mut buf = BytesMut::new();
        self.epoch.encode(&mut buf);
        let PairCfg {
            n,
            mode,
            threshold,
            max_iters,
            checkpoint_interval,
            num_state_parts,
            warm,
        } = self.cfg;
        encode_mode(mode, &mut buf);
        threshold.encode(&mut buf);
        max_iters.encode(&mut buf);
        checkpoint_interval.encode(&mut buf);
        num_state_parts.encode(&mut buf);
        warm.encode(&mut buf);
        self.dirs.state_dir.encode(&mut buf);
        self.dirs.static_dir.encode(&mut buf);
        self.dirs.output_dir.encode(&mut buf);
        self.plan.kills.encode(&mut buf);
        self.plan.hangs.encode(&mut buf);
        self.plan.delays.encode(&mut buf);
        self.plan.speed.encode(&mut buf);
        self.plan.crash_after.encode(&mut buf);
        ToWorker::Setup {
            num_tasks: n,
            body: buf.freeze(),
        }
    }

    /// Decodes the body of a setup frame for a job of `num_tasks`
    /// pairs. Hostile bytes — truncation, an unknown mode tag, trailing
    /// garbage — are a typed [`CodecError`], never a panic.
    pub fn decode(num_tasks: usize, mut body: Bytes) -> CodecResult<Setup> {
        let buf = &mut body;
        let epoch = usize::decode(buf)?;
        let cfg = PairCfg {
            n: num_tasks,
            mode: decode_mode(buf)?,
            threshold: Option::<f64>::decode(buf)?,
            max_iters: usize::decode(buf)?,
            checkpoint_interval: usize::decode(buf)?,
            num_state_parts: usize::decode(buf)?,
            warm: bool::decode(buf)?,
        };
        let dirs = PairDirs {
            state_dir: String::decode(buf)?,
            static_dir: String::decode(buf)?,
            output_dir: String::decode(buf)?,
        };
        let plan = PairPlan {
            kills: Vec::<usize>::decode(buf)?,
            hangs: Vec::<usize>::decode(buf)?,
            delays: Vec::<(usize, u64)>::decode(buf)?,
            speed: f64::decode(buf)?,
            crash_after: Option::<usize>::decode(buf)?,
        };
        if !buf.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes after setup"));
        }
        Ok(Setup {
            epoch,
            cfg,
            dirs,
            plan,
        })
    }
}

fn encode_mode(mode: ExecMode, buf: &mut BytesMut) {
    match mode {
        ExecMode::One2One(Activation::Async) => 0u8.encode(buf),
        ExecMode::One2One(Activation::Eager) => 1u8.encode(buf),
        ExecMode::One2One(Activation::Sync) => 2u8.encode(buf),
        ExecMode::One2All => 3u8.encode(buf),
        ExecMode::Delta { batch, check_every } => {
            4u8.encode(buf);
            batch.encode(buf);
            check_every.get().encode(buf);
        }
    }
}

fn decode_mode(buf: &mut Bytes) -> CodecResult<ExecMode> {
    Ok(match u8::decode(buf)? {
        0 => ExecMode::One2One(Activation::Async),
        1 => ExecMode::One2One(Activation::Eager),
        2 => ExecMode::One2One(Activation::Sync),
        3 => ExecMode::One2All,
        4 => ExecMode::Delta {
            batch: usize::decode(buf)?,
            check_every: NonZeroUsize::new(usize::decode(buf)?)
                .ok_or(CodecError::Corrupt("zero check_every"))?,
        },
        _ => return Err(CodecError::Corrupt("unknown execution mode")),
    })
}
