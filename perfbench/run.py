#!/usr/bin/env python3
"""The repository benchmark: builds the `imr-perfbench` runner from the
workspace sources and runs one workload, or checks how steady the
end-to-end metrics are over repeated runs.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload pagerank-threads --seed 1 --seconds 15 --trace 0

prints progress and every metric by name with its unit; the last line of
stdout is the JSON result (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).

Steadiness mode:

    python3 perfbench/run.py --steady --runs 10 [--sets 2] [--workloads a,b] [--seconds 15]

runs each workload --runs times per set with a different seed each time
and prints, per end-to-end metric, the median, quartiles and whether the
quartile spread fits the metric's bound in BENCHMARK.json (and, with two
sets, whether the second median is within the bound of the first).

Workload settings (graph sizes, pairs, arrival rate) are fixed in the
runner (perfbench/src/main.rs) and described in perfbench/spec.json.
Run from the repository root. The build goes to $CARGO_TARGET_DIR,
default .bench_build.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Builds the runner; returns its path, or exits non-zero."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "imr-perfbench")


def runner_args(binary, workload, seed, seconds, trace):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_once(args, capture):
    """Runs the runner in its own process group; kills the whole group
    (TCP worker processes included) if it overruns."""
    p = subprocess.Popen(args, cwd=ROOT, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1, ""
    return p.returncode, out or ""


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def steady(binary, bench, opts):
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for w in workloads:
        medians = []
        for s in range(opts.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(opts.runs):
                seed = 1000 * s + i + 1
                code, out = run_once(runner_args(binary, w, seed, opts.seconds, 0), True)
                lines = out.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    print(f"{w} seed {seed}: no result (exit {code})")
                    ok = False
                    continue
                if code != 0 or not result["correct"] or result["failed"]:
                    print(f"{w} seed {seed}: exit {code}, {result['failed']} of {result['attempted']} failed")
                    ok = False
                for m in metrics:
                    got = result["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        print(f"{w} seed {seed}: metric {m['name']} missing or in the wrong unit")
                        ok = False
                    else:
                        values[m["name"]].append(got["value"])
            print(f"\n{w}, set {s + 1}: {opts.runs} runs of {opts.seconds} s")
            print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
            set_medians = {}
            for m in metrics:
                vals = values[m["name"]]
                if not vals:
                    continue
                med, q1, q3, sp = spread(vals)
                set_medians[m["name"]] = med
                if sp <= m["bound"] / 3:
                    verdict = "steady (< bound/3)"
                elif sp <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                print(f"  {m['name']:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp:>8.4f} {m['bound']:>6}  {verdict}")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            print(f"  set {s + 1} vs set 1:")
            for m in metrics:
                a, b = medians[0].get(m["name"]), medians[s].get(m["name"])
                if a is None or b is None:
                    continue
                worse = worse_by(m, a, b)
                fits = worse <= m["bound"]
                ok &= fits
                print(f"    {m['name']:<20} worse by {worse:+.4f} (bound {m['bound']}) {'ok' if fits else 'REGRESSED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads")
    opts = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if opts.seconds is None:
        opts.seconds = bench["run_seconds"]
    if not opts.steady and opts.workload not in names:
        sys.exit(f"perfbench: --workload must be one of {', '.join(names)}")
    binary = build()
    if opts.steady:
        return steady(binary, bench, opts)
    code, _ = run_once(runner_args(binary, opts.workload, opts.seed, opts.seconds, opts.trace), False)
    return code


if __name__ == "__main__":
    sys.exit(main())
