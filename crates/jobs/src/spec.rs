//! Typed job specifications: what a tenant submits to the service.
//!
//! A [`JobSpec`] pins everything needed to (re)run a job
//! deterministically — algorithm, generated input (seed + scale),
//! engine selection, iteration/checkpoint budget, priority and fault
//! policy — and is itself `Codec`-encodable, so the catalog journals it
//! to the DFS at submission and a restarted coordinator can rebuild the
//! exact job from storage alone.

use bytes::{Bytes, BytesMut};
use imr_records::{Codec, CodecError, CodecResult};

/// Which algorithm a job runs. The input is always generated
/// deterministically from [`InputSpec`], so the pair
/// `(algo, input)` fully determines the job's data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoSpec {
    /// The halving micro-job (one2one): every state is halved each
    /// iteration. `scale` keys, initial value 1024.
    Halve,
    /// Single-source shortest path from node 0 over a generated
    /// weighted graph of `scale` nodes.
    Sssp,
    /// PageRank over a generated graph of `scale` nodes.
    PageRank,
    /// K-means (one2all) over `scale` generated 2-D points, 3 true
    /// clusters.
    Kmeans,
    /// A job whose reduce panics deterministically on every attempt:
    /// the dead-letter-queue test vehicle. Thread engine only.
    PoisonPill,
}

impl AlgoSpec {
    /// Catalog name (also the worker-binary job argument where one
    /// exists).
    pub fn name(&self) -> &'static str {
        match self {
            AlgoSpec::Halve => "halve",
            AlgoSpec::Sssp => "sssp",
            AlgoSpec::PageRank => "pagerank",
            AlgoSpec::Kmeans => "kmeans",
            AlgoSpec::PoisonPill => "poison",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            AlgoSpec::Halve => 0,
            AlgoSpec::Sssp => 1,
            AlgoSpec::PageRank => 2,
            AlgoSpec::Kmeans => 3,
            AlgoSpec::PoisonPill => 4,
        }
    }

    fn from_tag(tag: u8) -> CodecResult<Self> {
        Ok(match tag {
            0 => AlgoSpec::Halve,
            1 => AlgoSpec::Sssp,
            2 => AlgoSpec::PageRank,
            3 => AlgoSpec::Kmeans,
            4 => AlgoSpec::PoisonPill,
            _ => return Err(CodecError::Corrupt("unknown algorithm tag")),
        })
    }
}

/// Which engine executes the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSel {
    /// The virtual-time simulation engine (`IterativeRunner`).
    Sim,
    /// The native thread backend (`NativeRunner::run`).
    Threads,
    /// The native multi-process TCP backend
    /// (`NativeRunner::run_remote`); needs a worker binary.
    Tcp,
}

impl EngineSel {
    fn tag(&self) -> u8 {
        match self {
            EngineSel::Sim => 0,
            EngineSel::Threads => 1,
            EngineSel::Tcp => 2,
        }
    }

    fn from_tag(tag: u8) -> CodecResult<Self> {
        Ok(match tag {
            0 => EngineSel::Sim,
            1 => EngineSel::Threads,
            2 => EngineSel::Tcp,
            _ => return Err(CodecError::Corrupt("unknown engine tag")),
        })
    }
}

/// Deterministic input generation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputSpec {
    /// RNG seed for the generators.
    pub seed: u64,
    /// Problem size (keys, graph nodes, or points, per algorithm).
    pub scale: usize,
}

/// How many times the service re-runs a failing job before
/// dead-lettering it. `max_retries = 2` means up to 3 attempts total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Retry budget after the first failed attempt.
    pub max_retries: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { max_retries: 2 }
    }
}

/// A complete, journalable job description.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human-readable label (also the `IterConfig` job name).
    pub name: String,
    /// Algorithm to run.
    pub algo: AlgoSpec,
    /// Deterministic input parameters.
    pub input: InputSpec,
    /// Engine selection.
    pub engine: EngineSel,
    /// Number of persistent map/reduce pairs (= task slots consumed
    /// while running).
    pub tasks: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Checkpoint every this many iterations (0 disables snapshots —
    /// and with them durable resume).
    pub checkpoint_interval: usize,
    /// Distance-based termination threshold, if any (§3.1.2).
    pub distance_threshold: Option<f64>,
    /// Admission priority: higher runs first; ties in submission order.
    pub priority: u8,
    /// Retry budget before the dead-letter queue.
    pub fault: FaultPolicy,
}

impl JobSpec {
    /// A spec with service-friendly defaults: 2 tasks, 6 iterations,
    /// checkpoint every 2, priority 0, 2 retries.
    pub fn new(name: impl Into<String>, algo: AlgoSpec, engine: EngineSel, seed: u64) -> Self {
        JobSpec {
            name: name.into(),
            algo,
            input: InputSpec { seed, scale: 64 },
            engine,
            tasks: 2,
            max_iters: 6,
            checkpoint_interval: 2,
            distance_threshold: None,
            priority: 0,
            fault: FaultPolicy::default(),
        }
    }

    /// Sets the problem scale.
    pub fn with_scale(mut self, scale: usize) -> Self {
        self.input.scale = scale;
        self
    }

    /// Sets the pair count (slot footprint).
    pub fn with_tasks(mut self, tasks: usize) -> Self {
        self.tasks = tasks;
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Sets the checkpoint interval.
    pub fn with_checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the distance-based termination threshold.
    pub fn with_distance_threshold(mut self, eps: f64) -> Self {
        self.distance_threshold = Some(eps);
        self
    }

    /// Sets the admission priority (higher runs first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.fault = FaultPolicy { max_retries };
        self
    }
}

impl Codec for JobSpec {
    fn encode(&self, buf: &mut BytesMut) {
        self.name.encode(buf);
        self.algo.tag().encode(buf);
        self.input.seed.encode(buf);
        self.input.scale.encode(buf);
        self.engine.tag().encode(buf);
        self.tasks.encode(buf);
        self.max_iters.encode(buf);
        self.checkpoint_interval.encode(buf);
        self.distance_threshold.encode(buf);
        self.priority.encode(buf);
        self.fault.max_retries.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        let name = String::decode(buf)?;
        let algo = AlgoSpec::from_tag(u8::decode(buf)?)?;
        let seed = u64::decode(buf)?;
        let scale = usize::decode(buf)?;
        let engine = EngineSel::from_tag(u8::decode(buf)?)?;
        let tasks = usize::decode(buf)?;
        let max_iters = usize::decode(buf)?;
        let checkpoint_interval = usize::decode(buf)?;
        let distance_threshold = Option::<f64>::decode(buf)?;
        let priority = u8::decode(buf)?;
        let max_retries = u32::decode(buf)?;
        Ok(JobSpec {
            name,
            algo,
            input: InputSpec { seed, scale },
            engine,
            tasks,
            max_iters,
            checkpoint_interval,
            distance_threshold,
            priority,
            fault: FaultPolicy { max_retries },
        })
    }

    fn encoded_len(&self) -> usize {
        self.name.encoded_len()
            + self.algo.tag().encoded_len()
            + self.input.seed.encoded_len()
            + self.input.scale.encoded_len()
            + self.engine.tag().encoded_len()
            + self.tasks.encoded_len()
            + self.max_iters.encoded_len()
            + self.checkpoint_interval.encoded_len()
            + self.distance_threshold.encoded_len()
            + self.priority.encoded_len()
            + self.fault.max_retries.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_the_codec() {
        let specs = vec![
            JobSpec::new("a", AlgoSpec::Halve, EngineSel::Threads, 1),
            JobSpec::new("b", AlgoSpec::Sssp, EngineSel::Tcp, 2)
                .with_scale(200)
                .with_tasks(3)
                .with_max_iters(9)
                .with_checkpoint_interval(3)
                .with_distance_threshold(1e-9)
                .with_priority(7)
                .with_max_retries(0),
            JobSpec::new("c", AlgoSpec::PoisonPill, EngineSel::Sim, 3),
            JobSpec::new("d", AlgoSpec::Kmeans, EngineSel::Threads, 4),
            JobSpec::new("e", AlgoSpec::PageRank, EngineSel::Threads, 5),
        ];
        for spec in specs {
            let bytes = spec.to_bytes();
            assert_eq!(bytes.len(), spec.encoded_len());
            let mut buf = bytes;
            let back = JobSpec::decode(&mut buf).unwrap();
            assert!(buf.is_empty());
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut spec = JobSpec::new("x", AlgoSpec::Halve, EngineSel::Sim, 0);
        spec.name = "t".into();
        let mut buf = BytesMut::new();
        spec.name.encode(&mut buf);
        99u8.encode(&mut buf); // bogus algo tag
        let mut bytes = buf.freeze();
        assert!(JobSpec::decode(&mut bytes).is_err());
    }
}
