"""klrlab benchmark: end-to-end metrics per workload, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload {module,hom,reduce,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a klrlab checkout; it imports the program from ./src and reads
the workloads and metrics from BENCHMARK.json.  A run is a sequence of rounds.  Each
round is a fresh interpreter (perfbench/worker.py) that imports klrlab with every
module-level memo empty, generates the seed's inputs, issues them one op at a time as a
single closed-loop caller (no threads), and checks every result against its reference.
Every round of a run issues the same ops, so rounds are repeated measurements of one
workload draw.  A run makes round(S / ROUND_SECONDS) rounds, at least one: a fixed
count, so that a slow spell of the machine does not also change how many rounds a run
makes.  A round issues at least 100 distinct inputs, so that p90 has ten samples
beyond it.

Each op's latency is the least of its issues over the run's rounds.  On a shared
machine, spells of interference only ever add time; the least of repeated identical
measurements is the one such a spell touched least (the convention of Python's
timeit).  The per-op figures take the first issue of every input; the second issue of
a kept input (see workloads.Op) feeds only warm_p50_ms.  Every time is divided by the
slowdown measured next to it (perfbench/speed.py), so that the CPU's changes of speed
under other tenants' load do not move it.

Set-up time is measured from spawning a round to its "ready" line (import, input
generation and cache-directory creation), several times per run: once per round plus
SETUP_PROBES set-up-only spawns; the median is reported.

With --trace 1 the run first makes one untraced round, then traced rounds, and reports
the per-layer metrics: exact work counts from the first traced round (every traced
round must repeat them) and self times as the median over traced rounds.
`trace.overhead_share` compares the traced rounds' op time with the untraced round's.

Scratch files (cache directories, element documents) live in .bench_build/ inside the
checkout and are removed at exit.  The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# The workloads and the metrics with their units are declared in BENCHMARK.json.
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_PROBES = 5
MIN_OPS = 100
# Time of one round of each workload on the 2-core machine the benchmark was written on.
ROUND_SECONDS = {"module": 25.0, "hom": 5.0, "reduce": 11.0, "cli": 1.2}
# Every run must end within 180 s; a round still going at this point is killed.
HARD_LIMIT_S = 170.0


def load_spec():
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class RoundError(RuntimeError):
    pass


class Runner:
    """Spawns the rounds of one run, one at a time, and keeps their set-up times, each
    scaled by the CPU's slowdown measured just before its spawn (see speed.py)."""

    def __init__(self, args, checkout):
        self.args = args
        self.checkout = checkout
        self.scratch = os.path.join(checkout, ".bench_build", f"perfbench-{os.getpid()}")
        self.started = time.perf_counter()
        self.spawned = 0
        self.setups = []

    def elapsed(self):
        return time.perf_counter() - self.started

    def round(self, trace=False, setup_only=False, keep_setup=True):
        slowdown = speed.sample(3) / speed.KERNEL_REF_S
        self.spawned += 1
        workdir = os.path.join(self.scratch, f"round-{self.spawned}")
        cmd = [sys.executable, WORKER, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--workdir", workdir]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        # KLRLAB_CACHE points into the round's own directory, so no round reads the
        # user's cache or an earlier round's entries.  Fixed hashing keeps the traced
        # work counts identical across runs.
        env = dict(os.environ, KLRLAB_CACHE=os.path.join(workdir, "cache"), PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=self.checkout)
        watchdog = threading.Timer(max(1.0, HARD_LIMIT_S - self.elapsed()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            shutil.rmtree(workdir, ignore_errors=True)
        if ready.strip() != "ready" or code != 0:
            raise RoundError(f"round {self.spawned} exited with {code} before finishing")
        if keep_setup:
            self.setups.append(setup / slowdown)
        if setup_only:
            return None
        lines = rest.strip().splitlines()
        if not lines:
            raise RoundError(f"round {self.spawned} printed no result")
        return json.loads(lines[-1])

    def rounds(self, trace=False):
        count = max(1, round(self.args.seconds / ROUND_SECONDS[self.args.workload]))
        return [self.round(trace=trace) for _ in range(count)]


def _scaled(result):
    """A round's op latencies, each divided by the slowdown measured next to it."""
    return [x / s for x, s in zip(result["latencies"], result["slowdowns"])]


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(runner):
    runner.round(setup_only=True, keep_setup=False)  # first import writes the bytecode cache
    for _ in range(SETUP_PROBES):
        runner.round(setup_only=True)
    rounds = runner.rounds()
    if any(r["classes"] != rounds[0]["classes"] for r in rounds):
        raise RoundError("rounds of one seed issued different ops")
    least = [min(issues) * 1000.0 for issues in zip(*(_scaled(r) for r in rounds))]
    by_class = {"cold": [], "warm": [], "once": []}
    for x, cls in zip(least, rounds[0]["classes"]):
        by_class[cls].append(x)
    # The per-op figures take every distinct input once; repeats only feed warm_p50_ms.
    lat = by_class["cold"] + by_class["once"]
    if len(lat) < MIN_OPS or not by_class["cold"] or not by_class["warm"]:
        raise RoundError(f"a round needs {MIN_OPS} first issues, kept ones among them")
    values = {
        "setup_s": statistics.median(runner.setups),
        "ops_per_s": len(lat) / (sum(lat) / 1000.0),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": _p90(lat),
        "cold_p50_ms": statistics.median(by_class["cold"]),
        "warm_p50_ms": statistics.median(by_class["warm"]),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in rounds) / 1024.0,
    }
    slowdowns = [x for r in rounds for x in r["slowdowns"]]
    print(f"{runner.args.workload}: {len(rounds)} rounds of {len(least)} issues "
          f"({len(by_class['cold'])} cold, {len(by_class['warm'])} warm, "
          f"{len(by_class['once'])} once), {len(runner.setups)} set-ups; "
          f"op slowdown median {statistics.median(slowdowns):.3f}, "
          f"range {min(slowdowns):.3f}-{max(slowdowns):.3f}")
    return rounds, values


def per_layer(runner, names):
    base = runner.round()
    traced = runner.rounds(trace=True)
    counts = {k: v for k, v in traced[0]["layers"].items() if not k.endswith(".self_s")}
    for r in traced[1:]:
        again = {k: v for k, v in r["layers"].items() if not k.endswith(".self_s")}
        if again != counts:
            raise RoundError("traced rounds of one seed disagree on their work counts")
    values = {name: counts.get(name, 0) for name in names}
    for name in names:
        if name.endswith(".self_s"):
            values[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
    base_s = sum(_scaled(base))
    traced_s = statistics.median(sum(_scaled(r)) for r in traced)
    values["trace.overhead_share"] = (traced_s - base_s) / base_s
    print(f"{runner.args.workload}: 1 untraced and {len(traced)} traced rounds, "
          f"{len(traced[0]['latencies'])} ops each")
    return [base] + traced, values


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "klrlab", "__init__.py")):
        print("error: run from the root of a klrlab checkout (src/klrlab not found)",
              file=sys.stderr)
        return 2

    # Every process of the run, the rounds included, runs on one CPU: the CPUs of a
    # shared machine change speed independently, and the kernel samples must be taken
    # on the CPU whose speed they stand for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    declared = spec["per_layer" if args.trace else "end_to_end"]
    runner = Runner(args, checkout)
    try:
        if args.trace:
            rounds, values = per_layer(runner, [m["name"] for m in declared])
        else:
            rounds, values = end_to_end(runner)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise RoundError(f"declared metrics not measured: {', '.join(missing)}")
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(runner.scratch))
        except OSError:
            pass
    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for message in sorted({m for r in rounds for m in r["failures"]}):
        print(f"failure: {message}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"  fail_share = {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
