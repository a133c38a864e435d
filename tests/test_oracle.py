"""Oracle paths: Taylor lift, exact point evaluation, Koszul concomitant."""

import inspect
import random
import re
from fractions import Fraction

import pytest

import gradcalc.oracle as oracle_module
from gradcalc import sampling
from gradcalc.calculus import concomitant
from gradcalc.charts import make_chart
from gradcalc.errors import ChartMismatchError, GradcalcError, ValenceError
from gradcalc.lifts import LiftContext, lift_function
from gradcalc.oracle import (
    _spot_points,
    evaluate_tensor_at,
    identity_spot_check,
    koszul_concomitant_oracle,
    taylor_lift_oracle,
)
from gradcalc.poly import Poly
from gradcalc.sampling import random_multivector, random_one_form, random_poly, random_tensor
from gradcalc.tensor import (
    TensorField,
    coordinate_one_form,
    coordinate_vector_field,
    identity_tensor,
    insert_form,
    scalar_field,
    tensor_product,
    wedge,
)

E2 = make_chart(["x", "y"], [0, 0])
E3 = make_chart(["x", "y", "z"], [0, 0, 0])


def test_spot_points_are_pinned():
    # the spot check's SAMPLES points: per point and variable a numerator
    # from -5..5 (0 becomes 1), then a denominator from 1..3
    assert sampling.SAMPLES == 8
    assert _spot_points(E2, 7) == [
        {0: Fraction(1), 1: Fraction(1, 3)},
        {0: Fraction(-5), 1: Fraction(3)},
        {0: Fraction(1, 3), 1: Fraction(-5, 3)},
        {0: Fraction(-2), 1: Fraction(-2)},
        {0: Fraction(1), 1: Fraction(-2)},
        {0: Fraction(3, 2), 1: Fraction(-5, 3)},
        {0: Fraction(-4), 1: Fraction(5, 3)},
        {0: Fraction(4), 1: Fraction(4, 3)}]
    assert _spot_points(make_chart([], []), 7) == [{}] * sampling.SAMPLES
    assert _spot_points(E3, 8) != _spot_points(E3, 7)
    # the spot check shares the sampled checkers' signature and default
    params = inspect.signature(identity_spot_check).parameters
    assert list(params) == ["lhs", "rhs", "seed"]
    assert params["seed"].default == 0


def test_taylor_matches_lift():
    rng = random.Random(30)
    for r in (1, 2, 3):
        ctx = LiftContext(E2, r)
        for _ in range(10):
            f = random_poly(rng, E2, max_terms=3, max_degree=3)
            for lam in range(r + 1):
                assert taylor_lift_oracle(f, lam, ctx) == lift_function(f, lam, ctx)


def test_taylor_takes_a_chart_with_a_variable_named_like_its_parameter():
    # the deformation parameter is renamed until it is free: _s_ here
    chart = make_chart(["_s", "y"], [0, 0])
    ctx = LiftContext(chart, 2)
    f = Poly.variable(chart, "_s") ** 2 * Poly.variable(chart, "y") + Poly.variable(chart, 0)
    for lam in range(3):
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


# Arguments the oracles refuse: (call, error, message).  An evaluation
# point reads each key through chart.index; before, {0: 1, "x": 5, 1: 1}
# used x = 5, {0: 1, True: 3} took True for y, and 7 or -1 were ignored.
# The Taylor oracle checks its level as lift_function does: True gave the
# level-1 lift.
_T = scalar_field(E2, Poly.variable(E2, 0) + 2 * Poly.variable(E2, 1))
_BIVECTOR = wedge(coordinate_vector_field(E2, "x"), coordinate_vector_field(E2, "y"))
_FX = coordinate_one_form(E2, "x")
ORACLE_REFUSALS = {
    "point-gives-x-twice": (lambda: evaluate_tensor_at(_T, {0: 1, "x": 5, 1: 1}),
                            GradcalcError, "evaluation point gives variable x twice"),
    "point-key-bool": (lambda: evaluate_tensor_at(_T, {0: 1, True: 3}),
                       GradcalcError, "variable index must be an integer, not True"),
    "point-key-7": (lambda: evaluate_tensor_at(_T, {0: 1, 1: 1, 7: 1}),
                    GradcalcError, "variable index 7 outside 0..1"),
    "point-key-minus-1": (lambda: evaluate_tensor_at(_T, {0: 1, 1: 1, -1: 1}),
                          GradcalcError, "variable index -1 outside 0..1"),
    "taylor-level-bool": (lambda: taylor_lift_oracle(Poly.variable(E2, 0), True,
                                                     LiftContext(E2, 1)),
                          GradcalcError, "lift level must be an integer, not True"),
    "koszul-second-not-11": (lambda: koszul_concomitant_oracle(_BIVECTOR, _FX, _FX, _FX),
                             ValenceError, "second argument must be a (1,1) tensor"),
    "koszul-pairing-a-vector": (lambda: koszul_concomitant_oracle(
        _BIVECTOR, identity_tensor(E2), _FX, coordinate_vector_field(E2, "x")),
        ValenceError, "pairing arguments must be one-forms"),
}


@pytest.mark.parametrize("call,error,message", ORACLE_REFUSALS.values(), ids=ORACLE_REFUSALS)
def test_oracles_refuse_bad_arguments(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_identity_spot_check():
    rng = random.Random(31)
    a = random_one_form(rng, E2, max_terms=2, max_degree=2)
    b = random_one_form(rng, E2, max_terms=2, max_degree=2)
    lhs = wedge(a, b)
    rhs = tensor_product(a, b) - tensor_product(b, a)
    r = identity_spot_check(lhs, rhs, seed=4)
    assert r.verdict and r.probabilistic and r.seed == 4
    assert identity_spot_check(lhs, rhs).seed == 0
    x = coordinate_vector_field(E2, "x")
    bad = identity_spot_check(x * Poly.variable(E2, 0),
                              x * Poly.variable(E2, 1), seed=4)
    assert not bad.verdict and bad.seed == 4
    assert "component (x;)" in bad.witness and " vs " in bad.witness
    with pytest.raises(ValenceError):
        identity_spot_check(x, coordinate_one_form(E2, "x"))
    with pytest.raises(ChartMismatchError):
        identity_spot_check(x, coordinate_vector_field(E3, "x"))


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
