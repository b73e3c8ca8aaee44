"""Self-checks of the benchmark.

Run from the root of a checkout (takes a few minutes; it runs the
benchmark several times):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def counters(res):
    return {
        name: res["metrics"][name]["value"]
        for name in tracer.COUNTERS + ["rewrite.rules_per_step"]
    }


def test_closed_form_homology_of_cyclic_nerves():
    # H_*(BZ/2) through degree 3 plus the partial top: rank C_4 = 1,
    # rank d_4 = 1, so the top kernel is 0.
    assert oracles.bz_homology(2, 4) == {
        0: (1, (), True), 1: (0, (2,), True), 2: (0, (), True),
        3: (0, (2,), True), 4: (0, (), False),
    }
    # Z/3 at window 0..8: 2^8 - 86 = 170 free generators on top.
    assert oracles.bz_homology(3, 8)[8] == (170, (), False)


def test_loop_group_rank_formula():
    # The minimal 2-sphere: levels 0, 1, 2 have ranks 0, 1, 2.
    assert oracles.loop_group_ranks([1, 0, 1], 2) == [0, 1, 2]


def test_character_oracle_rejects_a_wrong_rule():
    # g -> 2 over F_3 with g^2 = 1: the rule g*g -> 1 holds, g -> 1 not.
    chars = [[2]]
    assert oracles.check_characters([(1, (0, 0), {(): 1})], chars, 3) is None
    assert oracles.check_characters([(1, (0,), {(): 1})], chars, 3)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counters_repeat_and_metrics_match_spec(workload):
    first = result(workload, 5, 1)
    second = result(workload, 5, 1)
    assert first["correct"] and second["correct"]
    assert counters(first) == counters(second)
    assert sorted(first["metrics"]) == sorted(
        m["name"] for m in SPEC["per_layer"]
    )
    for m in SPEC["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]


def test_untraced_run_reports_end_to_end_metrics():
    res = result("bar-certify", 5, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert sorted(res["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"]
    )
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("bar-certify", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
