"""Record the reference results the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are the reference.  It runs
the build ops of the module workload and the pool ops of the reduce workload once and
writes perfbench/reference.json: the E/F digest of every module in the module family
and the result digest of every input in the reduce pool.  The other checks need no
stored reference: hom results are compared with the contravariant form and with graded
symmetry, and cli output with a direct library call.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402


def _results(workload, wanted):
    with tempfile.TemporaryDirectory() as workdir:
        for op in workload.prepare(0, workdir):
            if op.key[0] in wanted:
                yield op, op.capture(op.call())


def main():
    module = {str(list(op.key[1])): rec["ef"]
              for op, rec in _results(workloads.ModuleWorkload(), {"build"})}
    reduce = {op.key[2]: workloads.digest(rec)
              for op, rec in _results(workloads.ReduceWorkload(), {"reduce", "pi"})}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"module": module, "reduce": reduce}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(module)} modules, {len(reduce)} reduce inputs")


if __name__ == "__main__":
    main()
