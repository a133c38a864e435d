"""Oracle paths: Taylor lift, exact point evaluation, Koszul concomitant."""

import random
import re
from fractions import Fraction

import pytest

import gradcalc.oracle as oracle_module
from gradcalc.calculus import concomitant
from gradcalc.charts import make_chart
from gradcalc.errors import ChartMismatchError, GradcalcError, ValenceError
from gradcalc.lifts import LiftContext, lift_function
from gradcalc.oracle import (
    SamplePlan,
    evaluate_tensor_at,
    identity_spot_check,
    koszul_concomitant_oracle,
    taylor_lift_oracle,
)
from gradcalc.poly import Poly
from gradcalc.sampling import (MAX_SAMPLES, random_multivector, random_one_form, random_poly,
                               random_tensor)
from gradcalc.tensor import (
    TensorField,
    coordinate_one_form,
    coordinate_vector_field,
    identity_tensor,
    insert_form,
    tensor_product,
    wedge,
)

E2 = make_chart(["x", "y"], [0, 0])
E3 = make_chart(["x", "y", "z"], [0, 0, 0])


def test_sample_plan():
    with pytest.raises(GradcalcError):
        SamplePlan(seed=0, count=0)
    assert SamplePlan(seed=0, count=MAX_SAMPLES).count == MAX_SAMPLES
    with pytest.raises(GradcalcError, match=f"sample count must be at most {MAX_SAMPLES}"):
        SamplePlan(seed=0, count=MAX_SAMPLES + 1)
    # a count is an int, as a chart's weights and indices are
    for bad in (True, 2.5, "3"):
        with pytest.raises(GradcalcError, match=f"^sample count must be an integer, not {bad!r}$"):
            SamplePlan(seed=0, count=bad)
    plan = SamplePlan(seed=7, count=5)
    pts = plan.points(E3)
    assert len(pts) == 5
    for pt in pts:
        assert set(pt) == {0, 1, 2}
        assert all(isinstance(v, Fraction) and v != 0 for v in pt.values())
    assert pts == SamplePlan(seed=7, count=5).points(E3)
    assert pts != SamplePlan(seed=8, count=5).points(E3)


def test_taylor_matches_lift():
    rng = random.Random(30)
    for r in (1, 2, 3):
        ctx = LiftContext(E2, r)
        for _ in range(10):
            f = random_poly(rng, E2, max_terms=3, max_degree=3)
            for lam in range(r + 1):
                assert taylor_lift_oracle(f, lam, ctx) == lift_function(f, lam, ctx)


def test_taylor_rejects_bad_input():
    ctx = LiftContext(E2, 1)
    f = Poly.variable(E2, 0)
    with pytest.raises(GradcalcError):
        taylor_lift_oracle(f, 2, ctx)
    with pytest.raises(GradcalcError):
        taylor_lift_oracle(f, -1, ctx)
    with pytest.raises(ChartMismatchError):
        taylor_lift_oracle(Poly.variable(E3, 0), 0, ctx)


def test_evaluate_tensor_at():
    x = Poly.variable(E2, 0)
    t = (tensor_product(coordinate_vector_field(E2, "x"), coordinate_one_form(E2, "y")) * x
         + tensor_product(coordinate_vector_field(E2, "y"), coordinate_one_form(E2, "y")) * 2)
    got = evaluate_tensor_at(t, {0: Fraction(1, 2), 1: 3})
    assert got == {((0,), (1,)): Fraction(1, 2), ((1,), (1,)): Fraction(2)}
    assert evaluate_tensor_at(t, {"x": Fraction(1, 2), "y": 3}) == got
    # zero components are dropped entirely
    assert evaluate_tensor_at(t, {0: 0, 1: 0}) == {((1,), (1,)): Fraction(2)}
    w = wedge(coordinate_one_form(E2, "x"), coordinate_one_form(E2, "y"))
    assert evaluate_tensor_at(w, {0: 1, 1: 1}) == {
        ((), (0, 1)): Fraction(1), ((), (1, 0)): Fraction(-1)}
    with pytest.raises(GradcalcError, match="misses variables: y"):
        evaluate_tensor_at(t, {0: 1})


def test_identity_spot_check():
    plan = SamplePlan(seed=4, count=6)
    rng = random.Random(31)
    a = random_one_form(rng, E2, max_terms=2, max_degree=2)
    b = random_one_form(rng, E2, max_terms=2, max_degree=2)
    lhs = wedge(a, b)
    rhs = tensor_product(a, b) - tensor_product(b, a)
    r = identity_spot_check(lhs, rhs, plan)
    assert r.verdict and r.probabilistic and r.seed == 4
    x = coordinate_vector_field(E2, "x")
    bad = identity_spot_check(x * Poly.variable(E2, 0),
                              x * Poly.variable(E2, 1), plan)
    assert not bad.verdict
    assert "component (x;)" in bad.witness and " vs " in bad.witness
    with pytest.raises(ValenceError):
        identity_spot_check(x, coordinate_one_form(E2, "x"), plan)
    with pytest.raises(ChartMismatchError):
        identity_spot_check(x, coordinate_vector_field(E3, "x"), plan)


def test_koszul_oracle_matches_concomitant():
    rng = random.Random(32)
    for chart in (E2, E3):
        for _ in range(10):
            lam = random_multivector(rng, chart, 2, max_terms=2, max_degree=2)
            n = random_tensor(rng, chart, 1, 1, max_terms=2, max_degree=2)
            alpha = random_one_form(rng, chart, max_terms=2, max_degree=2)
            beta = random_one_form(rng, chart, max_terms=2, max_degree=2)
            direct = insert_form(tensor_product(alpha, beta), concomitant(lam, n))
            assert koszul_concomitant_oracle(lam, n, alpha, beta) == direct


def test_koszul_oracle_identity_collapse():
    rng = random.Random(33)
    for _ in range(8):
        lam = random_multivector(rng, E3, 2, max_terms=2, max_degree=2)
        alpha = random_one_form(rng, E3, max_terms=2, max_degree=2)
        beta = random_one_form(rng, E3, max_terms=2, max_degree=2)
        assert koszul_concomitant_oracle(lam, identity_tensor(E3),
                                         alpha, beta).is_zero()


def test_koszul_oracle_frozen_case():
    y = Poly.variable(E2, 1)
    lam = wedge(coordinate_vector_field(E2, "x"), coordinate_vector_field(E2, "y"))
    n = tensor_product(coordinate_vector_field(E2, "x"),
                       coordinate_one_form(E2, "x")) * y
    dx = coordinate_one_form(E2, "x")
    dy = coordinate_one_form(E2, "y")
    got = koszul_concomitant_oracle(lam, n, dx, dy)
    # C(lam, n) = -d/dx ox d/dy ox dy, so pairing with dx ox dy leaves -dy
    assert got == -dy
    assert koszul_concomitant_oracle(lam, n, dx, dx).is_zero()
    with pytest.raises(ValenceError):
        koszul_concomitant_oracle(n, n, dx, dy)
    with pytest.raises(ValenceError):
        koszul_concomitant_oracle(lam, lam, dx, dy)
    with pytest.raises(ChartMismatchError):
        koszul_concomitant_oracle(lam, n, coordinate_one_form(E3, "x"), dy)


def test_oracle_module_is_independent():
    """The oracle may share the polynomial kernel and plain data types, but
    must not import any bracket, derivative, or lift computation."""
    with open(oracle_module.__file__) as fh:
        src = fh.read()
    assert "from .calculus" not in src and "import calculus" not in src
    lift_imports = re.findall(r"from \.lifts import ([^\n]+)", src)
    assert lift_imports == ["LiftContext"]
    checker_imports = re.findall(r"from \.checkers import ([^\n]+)", src)
    assert checker_imports == ["CheckReport"]
    for banned in ("lift_function", "lift_tensor", "lie_derivative(",
                   "schouten_bracket", "fn_bracket", "exterior_derivative"):
        assert banned not in src
