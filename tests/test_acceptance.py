"""Acceptance battery: one test per shipped criterion.

Each test runs the corresponding criterion from the built-in
verification suite at the release seed and prints its one-line verdict,
so `pytest -v tests/test_acceptance.py` reads as a pass/fail table.
Criteria with a stated time budget assert it.
"""

import hashlib
import inspect
import os
import subprocess
import sys
import time

from gradcalc import suite
from gradcalc.render import render_tensor
from gradcalc.tensor import coordinate_vector_field

SEED = 42
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(fn, number, budget_s=None):
    t0 = time.perf_counter()
    res = fn(SEED)
    elapsed = time.perf_counter() - t0
    mark = "PASS" if res.ok else "FAIL"
    print(f"criterion {number} ({res.label}): {mark} "
          f"[{res.cases} cases, {elapsed:.2f} s] {res.detail}")
    assert res.ok, f"criterion {number} ({res.label}): {res.detail}"
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.1f} s, budget {budget_s} s")
    return res


def test_criterion_01_lift_displays():
    res = _run(suite.criterion_lift_displays, 1, budget_s=1.0)
    assert res.cases == 10


def test_criterion_02_bracket_lift_battery():
    res = _run(suite.criterion_bracket_battery, 2, budget_s=120.0)
    assert res.cases >= 200 * 7


def test_criterion_03_lift_degrees():
    _run(suite.criterion_lift_degrees, 3)


def test_criterion_04_weight_field_commute():
    _run(suite.criterion_weight_commute, 4)


def test_criterion_05_poisson_lifts():
    res = _run(suite.criterion_poisson_lifts, 5)
    assert res.cases == 10


def test_criterion_06_complex_structure_lifts():
    _run(suite.criterion_endomorphism_lifts, 6)


def test_criterion_07_distribution_lifts():
    _run(suite.criterion_distribution_lifts, 7)


def test_criterion_08_connection_lifts():
    _run(suite.criterion_connection_lifts, 8)


def test_criterion_09_concomitant_dual_path():
    res = _run(suite.criterion_concomitant, 9)
    assert res.cases >= 200


def test_criterion_10_function_lift_oracle():
    res = _run(suite.criterion_function_lifts, 10)
    assert res.cases == 500



def test_every_criterion_is_a_case_generator_listed_once():
    made_by_criterion = suite._criterion("probe")(lambda seed: iter(())).__code__
    criteria = [fn for name, fn in vars(suite).items() if name.startswith("criterion_")]
    for fn in criteria:
        assert fn.__code__ is made_by_criterion, fn.__name__
        assert inspect.isgeneratorfunction(fn.__wrapped__), fn.__name__
        assert suite._CRITERIA.count(fn) == 1, fn.__name__
    assert len(suite._CRITERIA) == len(criteria)
    labels = [fn.label for fn in suite._CRITERIA]
    assert len(set(labels)) == len(labels)


def _broken_on_call(k, real, break_result):
    """real, except that call k returns break_result(real's result)."""
    calls = []

    def broken(*args):
        calls.append(args)
        out = real(*args)
        return break_result(out) if len(calls) == k else out
    return broken, calls


def test_a_failing_case_ends_its_criterion(monkeypatch):
    broken, calls = _broken_on_call(3, render_tensor, lambda text: "broken")
    monkeypatch.setattr(suite, "render_tensor", broken)
    res = suite.criterion_lift_displays(SEED)
    assert (res.label, res.ok, res.cases) == ("lift-displays", False, 3)
    assert res.detail == "a^(0) at r=1: 'broken' != 'x*dy'"
    assert len(calls) == 3


def test_a_failing_case_in_a_nested_check_ends_its_criterion(monkeypatch):
    # call 1 is the base derivative, calls 2.. the lifted pairs (lambda, mu)
    broken, calls = _broken_on_call(
        4, suite.covariant_derivative,
        lambda t: t + coordinate_vector_field(t.chart, 0))
    monkeypatch.setattr(suite, "covariant_derivative", broken)
    res = suite.criterion_connection_lifts(SEED)
    assert (res.ok, res.cases) == (False, 3)
    assert res.detail == "one-symbol r=1 lambda=1 mu=0"
    assert len(calls) == 4


def test_text_table_pinned():
    # the default format of `gradcalc check-suite`: labels padded to the
    # longest, then the verdict, the case count, the time and the detail
    table = suite.render_table([
        suite.CriterionResult("lift-displays", True, 12, "all displays match", 3.0),
        suite.CriterionResult("oracle", False, 3, "a^(0) at r=1: 'broken' != 'x*dy'", 1234.5),
    ])
    assert table.split("\n") == [
        "lift-displays  PASS     12 cases       3.0 ms  all displays match",
        "oracle         FAIL      3 cases    1234.5 ms  a^(0) at r=1: 'broken' != 'x*dy'",
        "1/2 criteria passed",
    ]


def _suite_json(seed: int) -> bytes:
    """stdout of `gradcalc check-suite --format json` from the checkout's
    own package, not whatever `gradcalc` is installed."""
    cmd = [sys.executable, "-m", "gradcalc.cli", "check-suite",
           "--seed", str(seed), "--format", "json"]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(cmd, capture_output=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_11_cli_deterministic():
    outs = []
    for _ in range(2):
        t0 = time.perf_counter()
        outs.append(_suite_json(SEED))
        assert time.perf_counter() - t0 < 300.0
    assert outs[0] == outs[1], "check-suite JSON differs between runs"
    print(f"criterion 11 (cli-deterministic): PASS "
          f"[{len(outs[0])} bytes, byte-identical across two runs]")


# SHA-256 of the suite JSON; a change to any criterion's verdict, count or
# detail text must update these on purpose.  The document names its seed,
# so each seed pins its own bytes.
SUITE_SHA256 = {
    42: "5f428a70f3443dc2aa460c80b8d42ef73c9a9f4b7cb2794db939743b75d7517d",
    1729: "4d2d61d61a395ef58aec678801d3c400b07b15b6d289512865ae1a85321cbf92",
}


def test_suite_json_pinned():
    for seed, want in SUITE_SHA256.items():
        assert hashlib.sha256(_suite_json(seed)).hexdigest() == want, seed
