"""One benchmark round, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py --workload hom --seed 1 --workdir DIR [--trace] [--setup-only]

The round imports klrlab from ./src, generates its inputs from the seed and creates its
cache directory, then prints "ready" (run.py times set-up up to that line).  It issues
every op of the round in order, one at a time, reads its peak RSS, checks the results
against their references, and prints one JSON line with the op latencies, classes and
slowdowns, the failures, the peak RSS and, with --trace, the per-layer counts and self
times.  Between ops it times the speed kernel (speed.py) every SAMPLE_EVERY_S; an op's
slowdown comes from the samples taken next to it.

An issue's class is "cold" for the first issue of a kept key (see workloads.Op),
"warm" for its second and "once" for an op whose answer the program does not keep.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def _import_program(checkout):
    src = os.path.join(checkout, "src")
    sys.path.insert(0, src)
    import klrlab
    from klrlab import cache, cli, combi, cyclo, klr, qint, uqmod  # noqa: F401

    if os.path.dirname(os.path.abspath(klrlab.__file__)) != os.path.join(src, "klrlab"):
        raise SystemExit(f"klrlab imported from {klrlab.__file__}, not from {src}")


def _rewrite_steps():
    klr = sys.modules["klrlab.klr"]
    counter = getattr(klr, "rewrite_step_count", None)
    return counter() if counter is not None else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program(os.getcwd())
    import speed
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir)
    ops = workload.prepare(args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = workloads.load_reference()
    check_span = tracer.suspend if tracer is not None else contextlib.nullcontext
    clock = time.perf_counter
    sampler = speed.Sampler(clock)
    sampler.take()
    seen = set()
    spans = []
    latencies = []
    classes = []
    records = []
    done = []
    failures = []
    steps = 0
    for op in ops:
        before = _rewrite_steps() if tracer is not None else None
        start = clock()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # an op that raises is counted as failed, the round goes on
            error = exc
        end = clock()
        latencies.append(end - start)
        spans.append((start, end))
        sampler.maybe_take()
        if before is not None:
            steps += _rewrite_steps() - before
        classes.append("once" if not op.kept else ("warm" if op.key in seen else "cold"))
        seen.add(op.key)
        if error is not None:
            failures.append(f"{op.name} {op.key}: raised {error!r}")
            continue
        with check_span():
            records.append(op.capture(result))
        done.append(op)
    sampler.take()

    # Read before the checks, whose reference computations fill memos of their own.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = len(failures)
    with check_span():
        wrong = {}
        for index, message in workload.check(done, records, reference):
            wrong.setdefault(index, message)
    failures.extend(wrong.values())
    out = {
        "latencies": latencies,
        "slowdowns": sampler.slowdowns(spans),
        "classes": classes,
        "failed": failed + len(wrong),
        "failures": failures[:20],
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        layers = {}
        for name, count in tracer.calls.items():
            layers[f"{name}.calls"] = count
            layers[f"{name}.self_s"] = tracer.self_s[name]
        layers.update({f"cyclo.{k}": v for k, v in tracing.cyclo_counts(tracer.contexts).items()})
        layers["klr.rewrite_steps"] = steps if _rewrite_steps() is not None else None
        gets = tracer.calls["cache.get"]
        layers["cache.hit_ratio"] = tracer.cache_hits / gets if gets else 0.0
        layers["cache.bytes_written"] = tracer.bytes_written
        layers.update(workload.layer_counts(done, records))
        out["layers"] = layers
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
