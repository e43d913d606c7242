//! A wrapper job that counts and times every call into the user
//! map/reduce/distance functions and delegates to the real job.
//!
//! Counters live in per-thread slots (one cache line each) so the pair
//! threads never contend on them; [`Counted::totals`] sums the slots.

use imapreduce::{Accumulative, Emitter, IterativeJob, StateInput};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

const SLOTS: usize = 16;

#[derive(Default)]
#[repr(align(128))]
struct Slot {
    map_calls: AtomicU64,
    map_emits: AtomicU64,
    map_ns: AtomicU64,
    reduce_calls: AtomicU64,
    reduce_values: AtomicU64,
    reduce_ns: AtomicU64,
    distance_ns: AtomicU64,
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS;
}

/// Summed call counts and busy time of the user functions.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlgoTotals {
    pub map_calls: u64,
    pub map_emits: u64,
    pub map_busy_s: f64,
    pub reduce_calls: u64,
    pub reduce_values: u64,
    pub reduce_busy_s: f64,
    pub distance_busy_s: f64,
}

/// `J` with every user-function call counted and timed.
pub struct Counted<J> {
    inner: J,
    slots: Vec<Slot>,
}

impl<J> Counted<J> {
    pub fn new(inner: J) -> Self {
        Counted {
            inner,
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }
    }

    fn slot(&self) -> &Slot {
        &self.slots[SLOT.with(|s| *s)]
    }

    /// Totals since construction.
    pub fn totals(&self) -> AlgoTotals {
        let sum = |f: fn(&Slot) -> &AtomicU64| -> u64 {
            self.slots.iter().map(|s| f(s).load(Relaxed)).sum()
        };
        AlgoTotals {
            map_calls: sum(|s| &s.map_calls),
            map_emits: sum(|s| &s.map_emits),
            map_busy_s: sum(|s| &s.map_ns) as f64 / 1e9,
            reduce_calls: sum(|s| &s.reduce_calls),
            reduce_values: sum(|s| &s.reduce_values),
            reduce_busy_s: sum(|s| &s.reduce_ns) as f64 / 1e9,
            distance_busy_s: sum(|s| &s.distance_ns) as f64 / 1e9,
        }
    }

    fn timed_map<K, S>(&self, out: &mut Emitter<K, S>, f: impl FnOnce(&mut Emitter<K, S>)) {
        let before = out.len();
        let t0 = Instant::now();
        f(out);
        let ns = t0.elapsed().as_nanos() as u64;
        let s = self.slot();
        s.map_calls.fetch_add(1, Relaxed);
        s.map_emits.fetch_add((out.len() - before) as u64, Relaxed);
        s.map_ns.fetch_add(ns, Relaxed);
    }

    fn timed_reduce<T>(&self, values: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let s = self.slot();
        s.reduce_calls.fetch_add(1, Relaxed);
        s.reduce_values.fetch_add(values as u64, Relaxed);
        s.reduce_ns.fetch_add(ns, Relaxed);
        r
    }

    fn timed_distance<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.slot().distance_ns.fetch_add(ns, Relaxed);
        r
    }
}

impl<J: IterativeJob> IterativeJob for Counted<J> {
    type K = J::K;
    type S = J::S;
    type T = J::T;

    fn map(
        &self,
        key: &J::K,
        state: StateInput<'_, J::K, J::S>,
        stat: &J::T,
        out: &mut Emitter<J::K, J::S>,
    ) {
        self.timed_map(out, |o| self.inner.map(key, state, stat, o))
    }

    fn reduce(&self, key: &J::K, values: Vec<J::S>) -> J::S {
        self.timed_reduce(values.len(), || self.inner.reduce(key, values))
    }

    fn distance(&self, key: &J::K, prev: &J::S, cur: &J::S) -> f64 {
        self.timed_distance(|| self.inner.distance(key, prev, cur))
    }

    fn has_combiner(&self) -> bool {
        self.inner.has_combiner()
    }

    fn combine(&self, key: &J::K, values: Vec<J::S>) -> Vec<J::S> {
        self.inner.combine(key, values)
    }

    fn partition(&self, key: &J::K, n: usize) -> usize {
        self.inner.partition(key, n)
    }
}

/// In accumulative mode `extract` plays the map role, each ⊕ fold the
/// reduce role (one value folded per call) and `progress` the distance
/// role.
impl<J: Accumulative> Accumulative for Counted<J> {
    fn identity(&self) -> J::S {
        self.inner.identity()
    }

    fn combine_delta(&self, a: &J::S, b: &J::S) -> J::S {
        self.timed_reduce(1, || self.inner.combine_delta(a, b))
    }

    fn seed(&self, key: &J::K, loaded: &J::S) -> (J::S, J::S) {
        self.inner.seed(key, loaded)
    }

    fn extract(&self, key: &J::K, delta: &J::S, stat: &J::T, out: &mut Emitter<J::K, J::S>) {
        self.timed_map(out, |o| self.inner.extract(key, delta, stat, o))
    }

    fn progress(&self, key: &J::K, value: &J::S, delta: &J::S) -> f64 {
        self.timed_distance(|| self.inner.progress(key, value, delta))
    }
}
