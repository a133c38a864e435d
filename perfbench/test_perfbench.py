"""Self-tests of the benchmark (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMALL = {"bracket-lift": 3, "lift-dense": 1, "script": 3}


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_match_and_carry_units():
    bench = _benchmark()
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert len(declared) == len(bench["end_to_end"]) + len(bench["per_layer"])
    for name, unit in declared.items():
        assert NAME_RE.fullmatch(name), name
        assert UNIT_RE.fullmatch(unit), (name, unit)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_known_answers_hold_and_corruption_is_caught(workload, tmp_path):
    clean = worker.measure(workload, 42, 0, str(tmp_path), size=SMALL[workload])
    assert clean["correct"] and clean["attempted"] > 0
    assert clean["attempted"] == clean["items_per_pass"]  # distinct items
    if workload != "script":  # script failures may reproduce a ROADMAP defect
        assert clean["failed"] == 0, clean["failures"]
    bad = worker.measure(workload, 42, 0, str(tmp_path), corrupt=True,
                         size=SMALL[workload])
    assert bad["failed"] > clean["failed"]
    assert bad["failed"] / bad["attempted"] > 0
    assert not bad["correct"]
    # several passes count each item once, so the counts do not depend on time
    again = worker.measure(workload, 42, 0.3, str(tmp_path), corrupt=True,
                           size=SMALL[workload])
    assert again["passes"] > 1
    assert (again["attempted"], again["failed"]) == (bad["attempted"], bad["failed"])


def _namespace_snapshot() -> dict:
    return {(id(owner), attr): value for owner in tracer.gradcalc_namespaces()
            for attr, value in vars(owner).items()}


def test_tracer_wraps_every_binding_and_restores_it():
    import gradcalc
    from gradcalc import calculus, checkers, dsl, poly
    before = _namespace_snapshot()
    original = calculus.lie_bracket
    tr = tracer.Tracer()
    tr.install()
    try:
        for namespace in (calculus, checkers, dsl, gradcalc):
            assert namespace.lie_bracket is not original
        assert vars(poly.Poly)["__mul__"] is vars(poly.Poly)["__rmul__"]
        assert vars(poly.Poly)["__mul__"].__wrapped__ is not None
    finally:
        tr.uninstall()
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_traced_run_restores_originals_and_counts_repeat(workload, tmp_path):
    before = _namespace_snapshot()
    first = worker.traced(workload, 7, str(tmp_path), None, size=SMALL[workload])
    after = _namespace_snapshot()
    assert all(before[k] is after[k] for k in before)
    second = worker.traced(workload, 7, str(tmp_path), None, size=SMALL[workload])
    counted = [k for k, unit in tracer.PER_LAYER_UNITS.items()
               if unit in ("count", "bytes", "fraction") and k in first["metrics"]]
    assert counted
    assert {k: first["metrics"][k] for k in counted} == \
        {k: second["metrics"][k] for k in counted}
    expected = set(tracer.PER_LAYER_UNITS) - {"trace.overhead_ratio"}
    assert set(first["metrics"]) == expected
    assert all(first["metrics"][k]["unit"] == tracer.PER_LAYER_UNITS[k] for k in expected)


def test_lifts_assignment_count_matches_enumeration():
    from itertools import product
    for slots in range(4):
        for r in range(1, 4):
            for lam in range(r + 1):
                brute = sum(1 for a in product(range(r + 1), repeat=slots)
                            if 0 <= lam - sum(a) <= r)
                assert tracer._useful_assignments(slots, r, lam) == brute


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "script",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
@pytest.mark.parametrize("seed", [42, 1729])
def test_default_and_held_out_seed_digests_match(workload, seed, tmp_path):
    recorded = worker.recorded_digest(workload, seed)
    assert recorded is not None
    wl = worker.load(workload)
    cases = wl.build(seed, workdir=str(tmp_path))
    results = worker.run_pass(wl, cases)[0]
    assert worker.digest(wl, cases, results) == recorded
    failures = worker.check_pass(wl, cases, results, None)
    failures.update(wl.verify(cases, results))
    assert all(v.defect for v in failures.values()), \
        [v.detail for v in failures.values() if not v.defect]
