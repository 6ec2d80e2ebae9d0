"""Checks on the benchmark itself: the repeatability of the traced work counts, its
refusal to run outside a klrlab checkout, and the defect that keeps inputs out of a
workload.

    python -m pytest perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from klrlab import cyclo, uqmod  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# cli touches every layer but acceptance; hom adds a quotient context shared by many
# ops.  module and reduce rounds take too long for a test run.
@pytest.mark.parametrize("workload", ["cli", "hom"])
def test_two_traced_runs_at_one_seed_count_the_same_work(workload):
    results = []
    for _ in range(2):
        done = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    first, second = ({k: v["value"] for k, v in r["metrics"].items()
                      if not k.endswith(".self_s") and k != "trace.overhead_share"}
                     for r in results)
    assert first == second
    assert results[0]["failed"] == results[1]["failed"]
    assert first["klr.rewrite_steps"] > 0 and first["cyclo.rows_fed"] > 0
    if workload == "cli":
        assert first["cache.get.calls"] > 0 and first["qint.solve_linear.calls"] > 0
    assert all(r["correct"] for r in results)


# The hom family leaves these pairs out because gdim_hom gets them wrong.  Once the
# degree sweep is certified this test passes, fails as strict, and the pairs go back
# into the family.
@pytest.mark.xfail(strict=True, reason="gdim_hom stops after two zero degrees (ROADMAP item 4)")
@pytest.mark.parametrize("lam,a,b", sorted(workloads.HOM_KNOWN_WRONG))
def test_pairs_left_out_of_hom_match_the_form(lam, a, b):
    pairs, status = cyclo.gdim_hom(a, b, cyclo.make_context(lam))
    assert status == cyclo.EXACT
    assert pairs.to_pairs() == uqmod.gram_entry(workloads._hw_of(lam), a, b).to_pairs()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "hom", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
