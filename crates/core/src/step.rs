//! The per-iteration data path every engine runs (paper §3.2).
//!
//! One persistent map/reduce pair does the same data work each
//! iteration whatever schedules it: join the state with the static
//! partition and map it, partition + sort (+ combine) + encode the
//! emitted pairs into one segment per reduce task; then decode the
//! received segments, merge them in source order, group, reduce, carry
//! untouched keys forward and measure the distance to the previous
//! snapshot. The delta-accumulative mode splits a round the same way:
//! select + apply + partition + encode, then decode + ⊕-merge.
//!
//! These steps are that work, written once. The simulator drives them
//! between its virtual-time scheduling decisions; the thread and TCP
//! backends drive them between transport calls. Each step reports the
//! work it did to a [`CostObserver`]: the simulator's [`SimCost`]
//! charges a [`TaskClock`] from the cluster's cost model, the native
//! engines pass `&mut ()`, whose empty methods compile away.

use crate::accum::{partition_deltas, Accumulative, DeltaStore};
use crate::api::{Emitter, IterativeJob, StateInput};
use bytes::Bytes;
use imr_mapreduce::EngineError;
use imr_records::{decode_pairs, encode_pairs, group_sorted, merge_runs, sort_run};
use imr_simcluster::{CostModel, TaskClock};

/// Receives the work a step did, at the granularity the simulator's
/// cost model charges it. Every method defaults to doing nothing.
pub trait CostObserver {
    /// The map function ran over `records` inputs and emitted `emitted`
    /// pairs (or a delta batch applied `records` keys).
    fn mapped(&mut self, _records: u64, _emitted: u64) {}
    /// One partition of `records` pairs was sorted.
    fn sorted(&mut self, _records: u64) {}
    /// A user function folded `records` values (one combine group, a
    /// distance pass, a delta merge).
    fn computed(&mut self, _records: u64) {}
    /// `bytes` of records were encoded or decoded.
    fn coded(&mut self, _bytes: u64) {}
    /// `bytes` of map output were spilled to local disk.
    fn spilled(&mut self, _bytes: u64) {}
    /// `records` pairs were k-way merged from `runs` sorted runs.
    fn merged(&mut self, _records: u64, _runs: usize) {}
    /// The reduce function folded one key group of `values` values.
    fn reduced(&mut self, _values: u64) {}
}

/// The native engines' observer: wall-clock time is the cost.
impl CostObserver for () {}

/// The simulator's observer: charges each reported piece of work to a
/// task's virtual clock through the cluster's [`CostModel`].
pub(crate) struct SimCost<'a> {
    clock: &'a mut TaskClock,
    cost: &'a CostModel,
    speed: f64,
    /// Bytes of map input (state + static) charged with the map call.
    input_bytes: u64,
    /// Whether the reduce-side k-way merge costs comparisons.
    merge_cmps: bool,
}

impl<'a> SimCost<'a> {
    /// Charges `clock` on a node of relative `speed`.
    pub(crate) fn new(clock: &'a mut TaskClock, cost: &'a CostModel, speed: f64) -> Self {
        SimCost {
            clock,
            cost,
            speed,
            input_bytes: 0,
            merge_cmps: true,
        }
    }

    /// Charges `bytes` of map input along with the map call.
    pub(crate) fn with_input_bytes(mut self, bytes: u64) -> Self {
        self.input_bytes = bytes;
        self
    }

    /// Leaves the reduce-side merge uncharged (the auxiliary-phase
    /// runner's cost accounting).
    pub(crate) fn without_merge_cmps(mut self) -> Self {
        self.merge_cmps = false;
        self
    }
}

impl CostObserver for SimCost<'_> {
    fn mapped(&mut self, records: u64, emitted: u64) {
        let d = self
            .cost
            .compute_time(records + emitted, self.input_bytes, self.speed);
        self.clock.advance(d);
    }
    fn sorted(&mut self, records: u64) {
        self.clock.advance(self.cost.sort_time(records, self.speed));
    }
    fn computed(&mut self, records: u64) {
        self.clock
            .advance(self.cost.compute_time(records, 0, self.speed));
    }
    fn coded(&mut self, bytes: u64) {
        self.clock.advance(self.cost.serde_per_byte * bytes);
    }
    fn spilled(&mut self, bytes: u64) {
        self.clock.advance(self.cost.disk_time(bytes));
    }
    fn merged(&mut self, records: u64, runs: usize) {
        if self.merge_cmps && runs > 1 && records > 0 {
            let cmps = records as f64 * (runs as f64).log2();
            self.clock
                .advance(self.cost.sort_per_cmp * cmps.round() as u64 * (1.0 / self.speed));
        }
    }
    fn reduced(&mut self, values: u64) {
        self.clock
            .advance(self.cost.compute_time(values.div_ceil(3), 0, self.speed));
    }
}

/// What one map step produced.
pub struct MapOut {
    /// One encoded, key-sorted segment per reduce task.
    pub segments: Vec<Bytes>,
    /// Input records the map function consumed.
    pub records_in: u64,
}

/// The map half of an iteration for pair `q`: run the map function over
/// the static partition joined with the state — the full broadcast
/// state under one2all, the co-partitioned state part under one2one —
/// then partition the emitted pairs over `n` reduce tasks, sort each
/// partition, combine it when the job has a combiner, and encode it.
pub fn map_step<J: IterativeJob, O: CostObserver>(
    job: &J,
    q: usize,
    stat: &[(J::K, J::T)],
    state: &[(J::K, J::S)],
    one2all: bool,
    n: usize,
    obs: &mut O,
) -> MapOut {
    let mut emitter = Emitter::new();
    if one2all {
        for (k, t) in stat {
            job.map(k, StateInput::All(state), t, &mut emitter);
        }
    } else {
        // Eager sorted join of the state stream with the local static
        // store (§3.2.2). Both are key-sorted and co-partitioned, so
        // they zip exactly.
        assert_eq!(
            state.len(),
            stat.len(),
            "state/static co-partitioning broken at pair {q}"
        );
        for ((ks, s), (kt, t)) in state.iter().zip(stat) {
            assert!(ks == kt, "state/static keys diverged at pair {q}");
            job.map(ks, StateInput::One(s), t, &mut emitter);
        }
    }
    let records_in = stat.len() as u64;
    obs.mapped(records_in, emitter.len() as u64);

    let mut partitions: Vec<Vec<(J::K, J::S)>> = (0..n).map(|_| Vec::new()).collect();
    for (k, v) in emitter.into_pairs() {
        let t = job.partition(&k, n);
        partitions[t].push((k, v));
    }
    let mut spill = 0u64;
    let segments: Vec<Bytes> = partitions
        .into_iter()
        .map(|mut part| {
            sort_run(&mut part);
            obs.sorted(part.len() as u64);
            if job.has_combiner() {
                let mut combined = Vec::new();
                for (k, vals) in group_sorted(part) {
                    let nv = vals.len() as u64;
                    for v in job.combine(&k, vals) {
                        combined.push((k.clone(), v));
                    }
                    obs.computed(nv);
                }
                part = combined;
            }
            let seg = encode_pairs(&part);
            spill += seg.len() as u64;
            seg
        })
        .collect();
    // iMapReduce keeps intermediate data in files (§6).
    obs.coded(spill);
    obs.spilled(spill);
    MapOut {
        segments,
        records_in,
    }
}

/// What one reduce step produced.
pub struct ReduceOut<K, S> {
    /// The pair's new state partition, key-sorted.
    pub state: Vec<(K, S)>,
    /// Records received across all segments.
    pub records_in: u64,
    /// Local distance to the previous snapshot, when one was given.
    pub distance: Option<f64>,
}

/// The reduce half of an iteration: decode the segments received from
/// every map task — in task order, since `merge_runs` breaks key ties
/// by run index — merge, group and reduce them. Keys that received no
/// value keep their `carry` state (one2one; `None` under one2all, where
/// the state space is whatever the reducers produce). With a `prev`
/// snapshot, also sums the job's distance to it (§3.1.2).
pub fn reduce_step<J: IterativeJob, O: CostObserver>(
    job: &J,
    segments: impl IntoIterator<Item = Bytes>,
    carry: Option<&[(J::K, J::S)]>,
    prev: Option<&[(J::K, J::S)]>,
    obs: &mut O,
) -> Result<ReduceOut<J::K, J::S>, EngineError> {
    let mut runs: Vec<Vec<(J::K, J::S)>> = Vec::new();
    let mut fetched = 0u64;
    for seg in segments {
        fetched += seg.len() as u64;
        runs.push(decode_pairs(seg)?);
    }
    obs.coded(fetched);
    let records_in: u64 = runs.iter().map(|r| r.len() as u64).sum();
    obs.merged(records_in, runs.len());
    let merged = merge_runs(runs);
    let mut reduced: Vec<(J::K, J::S)> = Vec::new();
    for (k, vals) in group_sorted(merged) {
        let nv = vals.len() as u64;
        let s = job.reduce(&k, vals);
        obs.reduced(nv);
        reduced.push((k, s));
    }
    let state = match carry {
        Some(previous) => carry_forward(reduced, previous),
        None => reduced,
    };
    let distance = prev.map(|prev| {
        let d = distance_sorted(job, prev, &state);
        obs.computed(state.len() as u64);
        d
    });
    Ok(ReduceOut {
        state,
        records_in,
        distance,
    })
}

/// What the send half of one delta round produced.
pub struct DeltaOut {
    /// One encoded, key-sorted, ⊕-pre-merged segment per task.
    pub segments: Vec<Bytes>,
    /// Deltas sent across all segments.
    pub sent: u64,
    /// Pending keys the batch limit deferred to a later round.
    pub deferred: u64,
}

/// The send half of a delta round: apply the up-to-`batch`
/// highest-priority pending deltas, then partition the induced deltas
/// over `n` tasks, ⊕-merging duplicate keys, and encode one segment per
/// task.
pub fn delta_send_step<J: Accumulative, O: CostObserver>(
    job: &J,
    store: &mut DeltaStore<J::K, J::S>,
    stat: &[(J::K, J::T)],
    batch: usize,
    n: usize,
    obs: &mut O,
) -> DeltaOut {
    let batch = store.select_batch(job, stat, batch);
    obs.mapped(batch.applied as u64, batch.emitted.len() as u64);
    let dests = partition_deltas(job, batch.emitted, n);
    let mut sent = 0u64;
    let mut spill = 0u64;
    let segments: Vec<Bytes> = dests
        .iter()
        .map(|dest| {
            sent += dest.len() as u64;
            obs.sorted(dest.len() as u64);
            let seg = encode_pairs(dest);
            spill += seg.len() as u64;
            seg
        })
        .collect();
    obs.coded(spill);
    DeltaOut {
        segments,
        sent,
        deferred: batch.deferred as u64,
    }
}

/// The receive half of a delta round: decode the segments received from
/// every task and ⊕-merge them into the store in source order.
pub fn delta_merge_step<J: Accumulative, O: CostObserver>(
    job: &J,
    store: &mut DeltaStore<J::K, J::S>,
    segments: impl IntoIterator<Item = Bytes>,
    obs: &mut O,
) -> Result<(), EngineError> {
    let mut fetched = 0u64;
    let mut merged = 0u64;
    for seg in segments {
        fetched += seg.len() as u64;
        let pairs: Vec<(J::K, J::S)> = decode_pairs(seg)?;
        merged += store.merge_segment(job, &pairs) as u64;
    }
    obs.coded(fetched);
    obs.computed(merged);
    Ok(())
}

/// Merges reduce output with the carried-forward previous state: keys
/// absent from `reduced` keep their old value. Both inputs are sorted;
/// output is sorted.
fn carry_forward<K: Ord + Clone, S: Clone>(
    reduced: Vec<(K, S)>,
    previous: &[(K, S)],
) -> Vec<(K, S)> {
    let mut out = Vec::with_capacity(previous.len().max(reduced.len()));
    let mut prev = previous.iter().peekable();
    for (k, s) in reduced {
        while let Some((pk, ps)) = prev.peek() {
            if *pk < k {
                out.push((pk.clone(), ps.clone()));
                prev.next();
            } else {
                break;
            }
        }
        if let Some((pk, _)) = prev.peek() {
            if *pk == k {
                prev.next();
            }
        }
        out.push((k, s));
    }
    for (pk, ps) in prev {
        out.push((pk.clone(), ps.clone()));
    }
    out
}

/// Sums the job's per-key distance over two sorted snapshots (keys
/// present in only one snapshot contribute nothing). Summation order is
/// key order, which keeps floating-point accumulation identical across
/// engines.
fn distance_sorted<J: IterativeJob>(job: &J, prev: &[(J::K, J::S)], cur: &[(J::K, J::S)]) -> f64 {
    let mut total = 0.0;
    let mut pi = 0usize;
    for (k, s) in cur {
        while pi < prev.len() && prev[pi].0 < *k {
            pi += 1;
        }
        if pi < prev.len() && prev[pi].0 == *k {
            total += job.distance(k, &prev[pi].1, s);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carry_forward_fills_gaps() {
        let prev = vec![(1u32, 10), (2, 20), (3, 30), (5, 50)];
        let reduced = vec![(2u32, 99), (4, 44)];
        let merged = carry_forward(reduced, &prev);
        assert_eq!(merged, vec![(1, 10), (2, 99), (3, 30), (4, 44), (5, 50)]);
    }

    #[test]
    fn carry_forward_with_empty_sides() {
        let prev = vec![(1u32, 1)];
        assert_eq!(carry_forward(vec![], &prev), prev);
        let merged = carry_forward(vec![(2u32, 2)], &[]);
        assert_eq!(merged, vec![(2, 2)]);
    }
}
