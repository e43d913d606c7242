//! Layer timings measured from outside: one iteration's shuffle replayed
//! through the public `imr_records` functions, a frame round trip over
//! loopback TCP, and DFS writes/reads, each at a workload's own record
//! types and volumes.

use crate::stats::median;
use bytes::Bytes;
use imapreduce::{Accumulative, Emitter, IterativeJob, StateInput};
use imr_dfs::Dfs;
use imr_net::frame::{FrameReader, FrameWriter};
use imr_records::{decode_pairs, encode_pairs, group_sorted, merge_runs, sort_run, Key, Value};
use imr_simcluster::{ClusterSpec, Metrics, NodeId, TaskClock};
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-record costs of one iteration's shuffle, in nanoseconds, and the
/// median encoded segment size.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecordCosts {
    pub partition_ns: f64,
    pub sort_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub merge_ns: f64,
    pub group_ns: f64,
    pub segment_bytes: f64,
}

/// What each of `n` map tasks emits in one iteration: `state` and
/// `stat` are key-sorted and co-keyed, split into tasks by the job's
/// partition function like the engine's load step.
pub fn map_outputs<J: IterativeJob>(
    job: &J,
    state: &[(J::K, J::S)],
    stat: &[(J::K, J::T)],
    n: usize,
) -> Vec<Vec<(J::K, J::S)>> {
    let mut outs: Vec<Emitter<J::K, J::S>> = (0..n).map(|_| Emitter::new()).collect();
    for ((k, s), (_, t)) in state.iter().zip(stat) {
        job.map(k, StateInput::One(s), t, &mut outs[job.partition(k, n)]);
    }
    outs.into_iter().map(Emitter::into_pairs).collect()
}

/// The deltas each of `n` tasks emits in the first accumulative round,
/// when every key applies its seed delta.
pub fn extract_outputs<J: Accumulative>(
    job: &J,
    state: &[(J::K, J::S)],
    stat: &[(J::K, J::T)],
    n: usize,
) -> Vec<Vec<(J::K, J::S)>> {
    let mut outs: Vec<Emitter<J::K, J::S>> = (0..n).map(|_| Emitter::new()).collect();
    for ((k, s), (_, t)) in state.iter().zip(stat) {
        let (_, delta) = job.seed(k, s);
        job.extract(k, &delta, t, &mut outs[job.partition(k, n)]);
    }
    outs.into_iter().map(Emitter::into_pairs).collect()
}

/// Replays the map-side partition/sort/encode and the reduce-side
/// decode/merge/group of one iteration whose map tasks emitted
/// `emitted`, `reps` times, and returns the median cost of each step
/// per record.
pub fn replay_records<K: Key, V: Value>(
    emitted: &[Vec<(K, V)>],
    partition: impl Fn(&K, usize) -> usize,
    reps: usize,
) -> RecordCosts {
    let n = emitted.len();
    let records = emitted.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    let mut steps: [Vec<f64>; 6] = Default::default();
    let mut seg_sizes = Vec::new();
    for _ in 0..reps {
        let input: Vec<Vec<(K, V)>> = emitted.to_vec();
        let mut lap = Lap::new();

        let mut parts: Vec<Vec<Vec<(K, V)>>> = Vec::with_capacity(n);
        for out in input {
            let mut p: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
            for (k, v) in out {
                let t = partition(&k, n);
                p[t].push((k, v));
            }
            parts.push(p);
        }
        steps[0].push(lap.next());

        for p in &mut parts {
            for run in p.iter_mut() {
                sort_run(run);
            }
        }
        steps[1].push(lap.next());

        let segs: Vec<Vec<Bytes>> = parts
            .iter()
            .map(|p| p.iter().map(|run| encode_pairs(run)).collect())
            .collect();
        steps[2].push(lap.next());
        drop(parts);
        seg_sizes = segs.iter().flatten().map(|s| s.len() as f64).collect();

        let mut lap = Lap::new();
        let inbound: Vec<Vec<Vec<(K, V)>>> = (0..n)
            .map(|r| {
                segs.iter()
                    .map(|row| decode_pairs(row[r].clone()).expect("replayed segment decodes"))
                    .collect()
            })
            .collect();
        steps[3].push(lap.next());

        let merged: Vec<Vec<(K, V)>> = inbound.into_iter().map(merge_runs).collect();
        steps[4].push(lap.next());

        for m in merged {
            black_box(group_sorted(m));
        }
        steps[5].push(lap.next());
    }
    let per_rec = |i: usize| median(&steps[i]) * 1e9 / records;
    RecordCosts {
        partition_ns: per_rec(0),
        sort_ns: per_rec(1),
        encode_ns: per_rec(2),
        decode_ns: per_rec(3),
        merge_ns: per_rec(4),
        group_ns: per_rec(5),
        segment_bytes: median(&seg_sizes),
    }
}

struct Lap(Instant);

impl Lap {
    fn new() -> Self {
        Lap(Instant::now())
    }

    /// Seconds since the previous lap.
    fn next(&mut self) -> f64 {
        let now = Instant::now();
        let s = (now - self.0).as_secs_f64();
        self.0 = now;
        s
    }
}

/// A `FrameWriter`/`FrameReader` round trip of a `bytes`-long payload
/// through an echo peer over loopback TCP: the median round trip in
/// microseconds and the payload throughput (both directions) in MB/s.
/// Runs for about `budget`.
pub fn frame_round_trip(bytes: usize, budget: Duration) -> Result<(f64, f64), String> {
    let err = |e: &dyn std::fmt::Display| format!("frame round trip: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| err(&e))?;
    let addr = listener.local_addr().map_err(|e| err(&e))?;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (stream, _) = listener.accept().map_err(|e| err(&e))?;
        stream.set_nodelay(true).map_err(|e| err(&e))?;
        let mut reader = FrameReader::new(stream.try_clone().map_err(|e| err(&e))?);
        reader.expect_preamble().map_err(|e| err(&e))?;
        let mut writer = FrameWriter::new(BufWriter::new(stream)).map_err(|e| err(&e))?;
        writer.get_mut().flush().map_err(|e| err(&e))?;
        // EOF from the client ends the echo.
        while let Ok(frame) = reader.read() {
            writer.write(&frame).map_err(|e| err(&e))?;
            writer.get_mut().flush().map_err(|e| err(&e))?;
        }
        Ok(())
    });
    let stream = TcpStream::connect(addr).map_err(|e| err(&e))?;
    let timed = (|| -> Result<Vec<f64>, String> {
        stream.set_nodelay(true).map_err(|e| err(&e))?;
        let mut reader = FrameReader::new(stream.try_clone().map_err(|e| err(&e))?);
        let mut writer = FrameWriter::new(BufWriter::new(stream.try_clone().map_err(|e| err(&e))?))
            .map_err(|e| err(&e))?;
        writer.get_mut().flush().map_err(|e| err(&e))?;
        reader.expect_preamble().map_err(|e| err(&e))?;
        let payload: Vec<u8> = (0..bytes).map(|i| (i * 31 % 251) as u8).collect();
        let mut rts = Vec::new();
        let start = Instant::now();
        while rts.len() < 5 || (start.elapsed() < budget && rts.len() < 2000) {
            let t0 = Instant::now();
            writer.write(&payload).map_err(|e| err(&e))?;
            writer.get_mut().flush().map_err(|e| err(&e))?;
            let back = reader.read().map_err(|e| err(&e))?;
            rts.push(t0.elapsed().as_secs_f64());
            if back.len() != bytes {
                return Err(format!("echo returned {} of {bytes} bytes", back.len()));
            }
        }
        Ok(rts)
    })();
    // Closing the connection ends the echo, whatever happened above.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())??;
    let rt = median(&timed?);
    Ok((rt * 1e6, 2.0 * bytes as f64 / rt / 1e6))
}

/// Median `Dfs::put_atomic` and `Dfs::read` latency, in microseconds,
/// of a `bytes`-long file on a fresh single-node DFS.
pub fn dfs_ops(bytes: usize, budget: Duration) -> Result<(f64, f64), String> {
    let spec = Arc::new(ClusterSpec::local(1));
    let dfs = Dfs::with_block_size(spec, Arc::new(Metrics::default()), 1, 1 << 26);
    let blob = Bytes::from((0..bytes).map(|i| (i % 253) as u8).collect::<Vec<u8>>());
    let mut clock = TaskClock::default();
    let (mut puts, mut reads) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while puts.len() < 5 || (start.elapsed() < budget && puts.len() < 2000) {
        let t0 = Instant::now();
        dfs.put_atomic("/ckpt/part-00000", blob.clone(), NodeId(0), &mut clock)
            .map_err(|e| format!("put_atomic: {e}"))?;
        puts.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let back = dfs
            .read("/ckpt/part-00000", NodeId(0), &mut clock)
            .map_err(|e| format!("read: {e}"))?;
        reads.push(t0.elapsed().as_secs_f64());
        if back.len() != bytes {
            return Err(format!("read {} of {bytes} bytes", back.len()));
        }
    }
    Ok((median(&puts) * 1e6, median(&reads) * 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_echoes() {
        let (rt_us, mb_s) = frame_round_trip(100_000, Duration::from_millis(20)).unwrap();
        assert!(rt_us > 0.0 && mb_s > 0.0);
    }
}
