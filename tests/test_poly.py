"""Exact polynomial kernel: ring laws, calculus, grading."""

import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcalc.charts import make_chart
from gradcalc.errors import ChartMismatchError, GradcalcError
from gradcalc.poly import (ANY_DEGREE, Poly, _acc, _cleared, _coef, degree_matches,
                           degree_of_function, homogeneous_components,
                           mono_mul, mono_total_degree, weight_of_monomial)
from gradcalc.checkers import rational_rank
from gradcalc.lifts import tangent_connection
from gradcalc.oracle import evaluate_tensor_at
from gradcalc.tensor import TensorField, scalar_field, vector_field

M = make_chart(["x", "y", "z"], [1, 2, 0], label="M")
x, y, z = (Poly.variable(M, i) for i in range(3))

# The message of the one number rule (poly._coef), up to the refused value.
NUMBER_RULE = "a number must be an int or a Fraction, not "


def rand_coef(rng, whole=False):
    """A rational coefficient; whole ones come as int or as Fraction(2n, 2)."""
    if not whole:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    n = rng.randint(-6, 6)
    return n if rng.random() < 0.5 else Fraction(2 * n, 2)


def rand_poly(rng, chart=M, terms=4, deg=3, whole=False):
    entries = []
    for _ in range(rng.randint(0, terms)):
        counts = {}
        for _ in range(rng.randint(0, deg)):
            v = rng.randrange(chart.dim)
            counts[v] = counts.get(v, 0) + 1
        entries.append((tuple(sorted(counts.items())), rand_coef(rng, whole)))
    return Poly.from_terms(chart, entries)


polys = st.integers(min_value=0, max_value=10 ** 9).map(
    lambda s: rand_poly(random.Random(s)))


def test_constructors():
    assert Poly.zero(M).is_zero()
    assert Poly.const(M, 0).is_zero()
    assert Poly.const(M, Fraction(2, 3)).constant_value() == Fraction(2, 3)
    assert Poly.variable(M, "y") == y
    with pytest.raises(GradcalcError):
        Poly.variable(M, 7)


def test_from_terms_merges_and_drops_zeros():
    p = Poly.from_terms(M, [(((0, 1),), 2), (((0, 1),), -2), ((), 5)])
    assert p == Poly.const(M, 5)
    assert () in p.terms and len(p.terms) == 1


def test_mono_helpers():
    m = mono_mul(((0, 1), (2, 2)), ((0, 2),))
    assert m == ((0, 3), (2, 2))
    assert mono_total_degree(m) == 5
    assert weight_of_monomial(((0, 1), (1, 1)), M) == 3
    assert weight_of_monomial((), M) == 0


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Poly.zero(M)
    assert a + Poly.zero(M) == a
    assert a * Poly.const(M, 1) == a


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_diff_is_a_derivation(a, b):
    for v in range(M.dim):
        assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


def test_diff_by_name_and_constants():
    p = x ** 2 * y + z
    assert p.diff("x") == x * y * 2
    assert p.diff("z") == Poly.const(M, 1)
    assert Poly.const(M, 3).diff(0).is_zero()


# Each of these returned 1 or 0 instead of naming the bad index: True
# and 1.0 stood for y, and 5 and -1 matched no variable of any monomial.
@pytest.mark.parametrize("var, message", [
    (True, "variable index must be an integer, not True"),
    (1.0, "variable index must be an integer, not 1.0"),
    (1.5, "variable index must be an integer, not 1.5"),
    (5, "variable index 5 outside 0..2"),
    (-1, "variable index -1 outside 0..2"),
    ("q", "chart has no variable named 'q'"),
])
def test_diff_rejects_a_bad_index(var, message):
    # also after d/dy is kept: True == 1 as a dict key, so the check comes first
    p = x + y
    assert p.diff(1) == Poly.const(M, 1)
    with pytest.raises(GradcalcError, match=f"^{re.escape(message)}$"):
        p.diff(var)


def test_power():
    assert (x + y) ** 2 == x ** 2 + x * y * 2 + y ** 2
    assert (x + y) ** 0 == Poly.const(M, 1)
    with pytest.raises(GradcalcError):
        (x + y) ** -1


@pytest.mark.parametrize("n", [-1, -(10 ** 30), True, False, 2.0, Fraction(2), "2", None])
@pytest.mark.parametrize("base", [x, x + y])
def test_power_rejects_an_exponent_that_is_not_a_nonnegative_int(base, n):
    # a bool is not an int here, as nowhere else (x ** True returned x)
    with pytest.raises(GradcalcError, match="^exponent must be a nonnegative integer$"):
        base ** n


@pytest.mark.parametrize("coef", [1, -3, Fraction(-2, 3), Fraction(5, 2)])
def test_monomial_power_makes_no_product(coef, monkeypatch):
    base = Poly.from_terms(M, [(((0, 2), (1, 1)), coef)])
    expected = [Poly.const(M, 1)]
    for _ in range(20):
        expected.append(expected[-1] * base)
    huge = x ** (10 ** 4000)
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for n, want in enumerate(expected):
        got = base ** n
        assert got.terms == want.terms
        assert [type(c) for c in got.terms.values()] == \
            [type(c) for c in want.terms.values()]
    assert (huge ** 2).terms == {((0, 2 * 10 ** 4000),): 1}
    assert calls == []


def test_evaluate():
    p = x ** 2 * y - z + Poly.const(M, Fraction(1, 2))
    pt = {0: Fraction(2), 1: Fraction(-1), 2: Fraction(1, 3)}
    assert p.evaluate(pt) == Fraction(4) * -1 - Fraction(1, 3) + Fraction(1, 2)
    with pytest.raises(GradcalcError):
        p.evaluate({0: Fraction(1)})


def test_substitute_composes():
    # p(x -> x + y) evaluated equals p evaluated at shifted point
    p = x ** 2 - y * z
    q = p.substitute({0: x + y, 1: y, 2: z})
    pt = {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}
    shifted = dict(pt)
    shifted[0] = pt[0] + pt[1]
    assert q.evaluate(pt) == p.evaluate(shifted)


def test_substitute_requires_all_used_variables():
    with pytest.raises(GradcalcError):
        (x * y).substitute({0: x})


def test_substitute_to_other_chart():
    n = make_chart(["u", "v"], [0, 0], label="N")
    u, v = Poly.variable(n, 0), Poly.variable(n, 1)
    p = x * y + z
    q = p.substitute({0: u, 1: v, 2: u * v}, target=n)
    assert q == u * v + u * v
    with pytest.raises(ChartMismatchError):
        (x * y).substitute({0: u, 1: y})


def test_reindex_by_name():
    n = make_chart(["z", "x", "y"], [0, 1, 2], label="N")
    p = x * y - z
    q = p.reindex(n)
    xn, yn = Poly.variable(n, "x"), Poly.variable(n, "y")
    zn = Poly.variable(n, "z")
    assert q == xn * yn - zn
    missing = make_chart(["x"], [1], label="X")
    with pytest.raises(GradcalcError):
        p.reindex(missing)


def test_degree_of_function():
    # weights: x -> 1, y -> 2, z -> 0
    assert degree_of_function(x * y) == 3
    assert degree_of_function(x ** 2 + y) == 2
    assert degree_of_function(x + y) is None
    assert degree_of_function(Poly.zero(M)) is ANY_DEGREE
    assert degree_of_function(z) == 0
    assert degree_matches(ANY_DEGREE, 17)
    assert degree_matches(3, 3) and not degree_matches(3, 2)
    assert not degree_matches(None, 0)


def test_grading_component_is_checked():
    c = make_chart(["x", "y"], [(1, 0), (0, 3)])
    f = Poly.variable(c, 1)
    assert degree_of_function(f, 1) == 3
    for bad in (-1, 2):
        for split in (degree_of_function, homogeneous_components):
            with pytest.raises(GradcalcError, match="no such grading component"):
                split(f, bad)


def test_homogeneous_components_sum_back():
    rng = random.Random(7)
    for _ in range(20):
        p = rand_poly(rng)
        parts = homogeneous_components(p)
        total = Poly.zero(M)
        for d, part in parts.items():
            assert degree_of_function(part) == d
            total = total + part
        assert total == p


def test_sorted_terms_is_stable_display_order():
    p = x + x ** 2 + y
    monos = [m for m, _ in p.sorted_terms()]
    assert monos[0] == ((0, 2),) or monos[0] == ((1, 1),)
    # same polynomial, same order
    assert monos == [m for m, _ in (x ** 2 + y + x).sorted_terms()]


def test_chart_mismatch_rejected():
    n = make_chart(["u"], [0], label="N")
    with pytest.raises(ChartMismatchError):
        x + Poly.variable(n, 0)


# -- the coefficient invariant: whole numbers stored as int, never a float ----

def all_fraction(p):
    """The same polynomial with every coefficient stored as a Fraction."""
    return Poly(p.chart, {m: Fraction(c) for m, c in p.terms.items()})


def apply_op(op, a, b, k):
    """One step of a random expression in a, b and a small integer k."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        divisor = Fraction(k, 3) if k % 2 else k + 1  # never zero
        return a / (Poly.const(M, divisor) if k < 0 else divisor)
    if op == "pow":
        return a ** (k % 3)
    if op == "diff":
        return a.diff(k % M.dim)
    images = {v: Poly.variable(M, v) for v in range(M.dim)}
    images[k % M.dim] = b
    return a.substitute(images)


OPS = ("add", "sub", "mul", "div", "pow", "diff", "substitute")


@given(st.integers(0, 10 ** 9), st.booleans(), st.booleans(),
       st.lists(st.tuples(st.sampled_from(OPS), st.integers(-3, 3)), max_size=3))
@settings(max_examples=80, deadline=None)
def test_int_coefficients_match_all_fraction_reference(seed, a_whole, b_whole, steps):
    rng = random.Random(seed)
    a = rand_poly(rng, whole=a_whole)
    b = rand_poly(rng, whole=b_whole)
    ref_a, ref_b = all_fraction(a), all_fraction(b)
    ints_only = a_whole and b_whole
    for op, k in steps:
        a, ref_a = apply_op(op, a, b, k), apply_op(op, ref_a, ref_b, k)
        ints_only = ints_only and op != "div"
        assert a == ref_a and ref_a == a
        assert repr(a) == repr(ref_a)
        for c in a.terms.values():
            assert type(c) in (int, Fraction)
            if ints_only:
                assert type(c) is int
    assert a.evaluate({0: 2, 1: -1, 2: Fraction(1, 3)}) == \
        ref_a.evaluate({0: 2, 1: -1, 2: Fraction(1, 3)})


def test_constructors_store_whole_coefficients_as_int():
    for value in (3, -7, Fraction(4, 2)):
        c = Poly.const(M, value).terms[()]
        assert type(c) is int and c == value
    # the float and bool formats are gone: the number rule refuses them
    for value in (2.0, True):
        with pytest.raises(GradcalcError, match=NUMBER_RULE):
            Poly.const(M, value)
    with pytest.raises(GradcalcError, match=NUMBER_RULE):
        Poly.from_terms(M, [(((1, 1),), 0.25)])
    # an int subclass other than bool is an int, stored as a plain one
    big = Poly.const(M, type("Big", (int,), {})(5)).terms[()]
    assert type(big) is int and big == 5
    assert type(Poly.variable(M, "x").terms[((0, 1),)]) is int
    p = Poly.from_terms(M, [(((0, 1),), Fraction(6, 3)), ((), Fraction(1, 2)),
                            (((1, 1),), Fraction(1, 4))])
    assert {m: type(c) for m, c in p.terms.items()} == {
        ((0, 1),): int, (): Fraction, ((1, 1),): Fraction}
    assert p.terms[((1, 1),)] == Fraction(1, 4)
    assert repr(Poly.const(M, Fraction(4, 2))) == "2"
    half = x / 2
    assert half.terms == {((0, 1),): Fraction(1, 2)}
    assert type(half.terms[((0, 1),)]) is Fraction
    assert half / Fraction(1, 2) == x
    assert (half * Fraction(6, 3)).terms == x.terms
    assert type((x * Fraction(6, 3)).terms[((0, 1),)]) is int


# Every way a number enters the engine, as a function of the number.
NUMBER_ENTRY_POINTS = {
    "Poly.const": lambda v: Poly.const(M, v),
    "Poly.from_terms": lambda v: Poly.from_terms(M, [(((0, 1),), v)]),
    "Poly /": lambda v: x / v,
    "scalar_field": lambda v: scalar_field(M, v),
    "vector_field": lambda v: vector_field(M, {"x": v}),
    "TensorField.from_components": lambda v: TensorField.from_components(
        M, 1, 0, {((0,), ()): v}),
    "tangent_connection": lambda v: tangent_connection(M, {(0, 0, 0): v}),
    "Poly.evaluate": lambda v: x.evaluate({0: v}),
    "evaluate_tensor_at": lambda v: evaluate_tensor_at(scalar_field(M, x), {0: v, 1: 1, 2: 1}),
    "rational_rank": lambda v: rational_rank([[1, v]]),
}
REFUSED_NUMBERS = {"0.1": 0.1, "2.0": 2.0, "'1/3'": "1/3", "True": True, "None": None}


@pytest.mark.parametrize("entry", NUMBER_ENTRY_POINTS.values(), ids=NUMBER_ENTRY_POINTS)
@pytest.mark.parametrize("text,value", REFUSED_NUMBERS.items(), ids=REFUSED_NUMBERS)
def test_every_number_entry_point_refuses_what_is_not_int_or_fraction(entry, text, value):
    with pytest.raises(GradcalcError) as ei:
        entry(value)
    assert ei.value.args == (NUMBER_RULE + text,)


def test_tensor_scaling_follows_the_number_rule():
    t = scalar_field(M, x)
    for value in (0.1, "1/3", None):
        with pytest.raises(TypeError):
            t * value
    for scale in (lambda: t * True, lambda: True * t):
        with pytest.raises(GradcalcError) as ei:
            scale()
        assert ei.value.args == (NUMBER_RULE + "True",)


def test_equality_with_a_non_number_is_false_and_never_raises():
    zero, one, t = Poly.zero(M), Poly.const(M, 1), scalar_field(M, 1)
    for value in (*REFUSED_NUMBERS.values(), False, 0.0, 1.0, "x", object()):
        assert (x == value) is False and (value == x) is False
        assert (one == value) is False and (zero == value) is False
        assert (t == value) is False
    assert (x != True) is True
    assert one == 1 and one == Fraction(1) and zero == 0


def test_constant_value_and_evaluate_return_fraction():
    for p in (Poly.zero(M), Poly.const(M, 3), Poly.const(M, Fraction(1, 2))):
        assert type(p.constant_value()) is Fraction
        assert type(p.evaluate({})) is Fraction
    v = (x * 2 + y).evaluate({0: 3, 1: 1, 2: 5})
    assert type(v) is Fraction and v == 7
    assert Poly.const(M, 3).constant_value() == 3


# -- integer evaluation against the Fraction loop ------------------------------

def evaluate_by_fractions(p: Poly, point) -> Fraction:
    """Poly.evaluate as it was: one Fraction operation per step."""
    used = p.variables_used()
    missing = used - set(point.keys())
    if missing:
        names = ", ".join(p.chart.names[v] for v in sorted(missing))
        raise GradcalcError(f"evaluation point misses variables: {names}")
    at = {var: Fraction(point[var]) for var in used}
    total = Fraction(0)
    for m, c in p.terms.items():
        v = c
        for var, e in m:
            v *= at[var] ** e
        total += v
    return total


# A coefficient is an int, a true Fraction or a whole Fraction (as
# arithmetic can leave one); Poly() takes it as stored, unnormalised.
eval_coefs = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(-9, 9).map(Fraction)).filter(bool)
eval_polys = st.dictionaries(
    st.lists(st.integers(0, 6), min_size=3, max_size=3).map(
        lambda es: tuple((v, e) for v, e in enumerate(es) if e)),
    eval_coefs, max_size=6).map(lambda terms: Poly(M, terms))
eval_coords = st.one_of(
    st.just(0), st.integers(-9, 9), st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=9))


@given(eval_polys, st.fixed_dictionaries({v: eval_coords for v in range(3)}),
       st.sets(st.integers(0, 2)))
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_fraction_reference(p, point, dropped):
    v = p.evaluate(point)
    assert type(v) is Fraction and v == evaluate_by_fractions(p, point)
    partial = {k: c for k, c in point.items() if k not in dropped}
    try:
        want = evaluate_by_fractions(p, partial)
    except GradcalcError as e:
        with pytest.raises(GradcalcError) as ei:
            p.evaluate(partial)
        assert ei.value.args == e.args
    else:
        assert p.evaluate(partial) == want
    # a used coordinate written as a str or a float is refused, not read
    for v in p.variables_used():
        for written in (str(point[v]), float(point[v])):
            with pytest.raises(GradcalcError, match=NUMBER_RULE):
                p.evaluate({**point, v: written})


def test_evaluate_spot_values():
    half = Fraction(1, 2)
    p = Poly(M, {((0, 3), (1, 1)): Fraction(2, 3), ((2, 2),): -5, (): Fraction(7, 4)})
    for pt in ({0: half, 1: -3, 2: Fraction(-2, 5)}, {0: 0, 1: 0, 2: 0}):
        assert p.evaluate(pt) == evaluate_by_fractions(p, pt)
    for pt in ({0: "1/2", 1: -3, 2: 0}, {0: half, 1: -3.0, 2: 0}, {0: half, 1: -3, 2: -0.4}):
        with pytest.raises(GradcalcError, match=NUMBER_RULE):
            p.evaluate(pt)
    assert p.evaluate({0: half, 1: -3, 2: 0}) == Fraction(2, 3) * Fraction(1, 8) * -3 + \
        Fraction(7, 4)
    # unused coordinates are not read, whatever their type
    assert (x * 3).evaluate({0: Fraction(1, 3), 1: object()}) == 1
    with pytest.raises(GradcalcError, match="evaluation point misses variables: y, z"):
        (x * y * z).evaluate({0: 1})


# Sparse polynomials of high degree: a few terms, exponents up to 3,000.
sparse_polys = st.dictionaries(
    st.lists(st.integers(0, 3000), min_size=3, max_size=3).map(
        lambda es: tuple((v, e) for v, e in enumerate(es) if e)),
    eval_coefs, max_size=4).map(lambda terms: Poly(M, terms))
sparse_coords = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5))


@given(sparse_polys, st.fixed_dictionaries({v: sparse_coords for v in range(3)}))
@settings(max_examples=60, deadline=None)
def test_evaluate_sparse_high_degree(p, point):
    assert p.evaluate(point) == evaluate_by_fractions(p, point)


def test_evaluate_builds_only_the_powers_that_occur():
    # a table of every exponent up to 30,000 took 0.74 s and 177 MB
    f = x ** 30000 + y
    start = time.perf_counter()
    v = f.evaluate({0: Fraction(3, 2), 1: 1})
    assert time.perf_counter() - start < 0.05
    assert v == Fraction(3, 2) ** 30000 + 1


def test_evaluate_bounds_powers_before_building_them():
    big = Poly(M, {((0, 10 ** 20),): 1})
    with pytest.raises(GradcalcError, match="may have 100000000000000000000 bits, "
                                            "which exceeds the limit 4194304"):
        big.evaluate({0: 2})
    with pytest.raises(GradcalcError, match="may have 200000000000000000000 bits"):
        big.evaluate({0: Fraction(1, 3)})
    # the bound is on the size of num^e * den^(top - e): a unit needs no bits
    assert big.evaluate({0: -1}) == 1 and big.evaluate({0: 0}) == 0
    # the bits add over the variables of a term: 2^4,000,000 * 2^200,000 is over
    with pytest.raises(GradcalcError, match="may have 4200000 bits"):
        Poly(M, {((0, 4_000_000), (1, 200_000)): 1}).evaluate({0: 2, 1: 2})


def test_cleared_spot_values():
    assert _cleared([]) == (1, [])
    assert _cleared([3, -4, 0]) == (1, [3, -4, 0])
    # a whole Fraction, as arithmetic can leave one, clears to its int
    d, ints = _cleared([Fraction(1, 2), 3, Fraction(-2, 3), Fraction(8, 4)])
    assert d == 6 and ints == [3, 18, -4, 12]
    assert all(type(n) is int for n in ints)
    # a dict view is read twice, as Poly.evaluate passes its coefficients
    assert _cleared({(): Fraction(3, 4), ((0, 1),): Fraction(5, 6)}.values()) == (12, [9, 10])


@given(st.lists(eval_coefs | st.just(0), max_size=8))
def test_cleared_is_the_least_common_denominator(values):
    d, ints = _cleared(values)
    assert all(type(n) is int for n in ints)
    assert [Fraction(n, d) for n in ints] == values
    assert d == math.lcm(*(Fraction(c).denominator for c in values))


# -- products and derivatives against the plain loops ---------------------------

def mul_by_loops(a: Poly, b: Poly) -> Poly:
    """Poly.__mul__ as one double loop over the terms."""
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            _acc(out, mono_mul(ma, mb), ca * cb)
    return Poly(a.chart, out)


def diff_by_loops(p: Poly, var: int) -> Poly:
    """Poly.diff as a scan of every monomial, storing c * e."""
    out: dict = {}
    for m, c in p.terms.items():
        for pos, (v, e) in enumerate(m):
            if v == var:
                nm = m[:pos] + m[pos + 1:] if e == 1 else \
                    m[:pos] + ((v, e - 1),) + m[pos + 1:]
                out[nm] = c * e
    return Poly(p.chart, out)


def stored(p: Poly) -> list:
    """Terms in stored order with each coefficient's type."""
    return [(m, c, type(c)) for m, c in p.terms.items()]


mul_coefs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-4, 4).map(lambda n: Fraction(2 * n, 2))).filter(bool)
mul_monos = st.one_of(
    st.just(()),
    st.lists(st.integers(0, 3), min_size=3, max_size=3).map(
        lambda es: tuple((v, e) for v, e in enumerate(es) if e)))


def polys_of_size(n: int):
    return st.dictionaries(mul_monos, mul_coefs, min_size=n, max_size=n).map(
        lambda terms: Poly(M, terms))


# one-term operands against one-term and many-term ones, and no term at all
mul_shapes = st.sampled_from([(1, 1), (1, 0), (0, 1), (1, 2), (1, 4), (2, 1), (4, 1),
                              (3, 3)]).flatmap(
    lambda ab: st.tuples(polys_of_size(ab[0]), polys_of_size(ab[1])))


@given(mul_shapes, mul_coefs | st.just(0) | st.just(Fraction(0)))
@settings(max_examples=150, deadline=None)
def test_mul_matches_reference_loop(operands, k):
    a, b = operands
    assert stored(a * b) == stored(mul_by_loops(a, b))
    assert stored(b * a) == stored(mul_by_loops(b, a))
    scaled = {} if not k else {m: c * _coef(k) for m, c in a.terms.items()}
    assert stored(a * k) == stored(k * a) == stored(Poly(M, scaled))
    for v in range(M.dim):
        assert stored(a.diff(v)) == stored(diff_by_loops(a, v))


def test_mul_spot_values():
    one = Poly.const(M, 1)
    assert (x * y).terms == {((0, 1), (1, 1)): 1}
    assert (one * x).terms == x.terms and (x * one).terms == x.terms
    third = Poly.const(M, Fraction(1, 3))
    assert (third * (x * 3)).terms == {((0, 1),): 1}
    for zero in (0, Fraction(0), Poly.zero(M)):
        assert (x * zero).is_zero() and (zero * x).is_zero()
    # a TensorField operand is left to TensorField.__rmul__
    f = scalar_field(M, y)
    assert x.__mul__(f) is NotImplemented
    assert (x * f).scalar_part() == x * y


def test_mul_checks_charts_on_every_path():
    n = make_chart(["u", "v"], [0, 0], label="N")
    u = Poly.variable(n, 0)
    for a, b in [(x, u), (x + 1, u), (x, u + 1), (x + y, u + Poly.const(n, 2))]:
        for left, right in [(a, b), (b, a)]:
            with pytest.raises(ChartMismatchError,
                               match="polynomials live on different charts"):
                left * right
            with pytest.raises(ChartMismatchError,
                               match="polynomials live on different charts"):
                left + right


# -- kept derivatives -------------------------------------------------------------

def test_diff_is_kept():
    f = x ** 2 * y + y * z * 3 + z
    for v, name in enumerate(M.names):
        d = f.diff(v)
        assert f.diff(v) is d and f.diff(name) is d
    assert stored(f.diff(0)) == stored(diff_by_loops(f, 0))


diff_orders = st.lists(st.lists(st.sampled_from([0, 1, 2, "x", "y", "z"]),
                                min_size=1, max_size=3), max_size=8)


@given(polys, diff_orders)
@settings(max_examples=100, deadline=None)
def test_kept_derivatives_match_a_fresh_copy(f, orders):
    # each derivative, in any order of calls and up to third order, equals
    # the one taken on a copy of f that has no kept derivative
    for order in orders:
        kept, fresh = f, Poly(f.chart, dict(f.terms))
        for v in order:
            kept, fresh = kept.diff(v), fresh.diff(v)
            assert stored(kept) == stored(fresh)


def accumulated(a, b):
    store = {"k": a}
    _acc(store, "k", b)
    return store["k"]


N3 = make_chart(["z", "y", "x"], [0, 2, 1], label="N3")
ops = [lambda d: d + d, lambda d: d + x, lambda d: x + d, lambda d: d + 1,
       lambda d: d - y, lambda d: y - d, lambda d: d - d, lambda d: -d,
       lambda d: d * d, lambda d: d * x, lambda d: x * d, lambda d: d * 3,
       lambda d: d * Fraction(2, 3), lambda d: d / 2, lambda d: d ** 2, lambda d: d ** 3,
       lambda d: d.substitute({0: y + 1, 1: z, 2: x * x}), lambda d: d.reindex(N3),
       lambda d: accumulated(d, x), lambda d: accumulated(x, d)]


def test_arithmetic_leaves_a_kept_derivative_unchanged():
    # a derivative f keeps is shared by every later f.diff(v) call
    f = x ** 3 * y + y ** 2 * z * Fraction(1, 2) + x * z
    for v in range(M.dim):
        d = f.diff(v)
        before = dict(d.terms)
        fresh = Poly(M, dict(before))
        assert [stored(op(d)) for op in ops] == [stored(op(fresh)) for op in ops]
        assert f.diff(v) is d and d.terms == before


# -- kept variable sets -----------------------------------------------------------

def variables_by_loop(p: Poly) -> set:
    """variables_used() as it was: a new set, filled term by term."""
    used = set()
    for m in p.terms:
        for v, _ in m:
            used.add(v)
    return used


def test_variables_used_is_kept():
    for f in (Poly.zero(M), Poly.const(M, 3), x, x ** 2 * y + z):
        used = f.variables_used()
        assert type(used) is frozenset
        assert f.variables_used() is used
        assert used == variables_by_loop(f)
    assert (x ** 2 * y + z).variables_used() == {0, 1, 2}


# Indices past a set's first table of 8 slots collide, so the iteration
# order of a set depends on the order its elements went in.
W = make_chart([f"w{i}" for i in range(24)], [0] * 24, label="W")
wide_polys = st.integers(min_value=0, max_value=10 ** 9).map(
    lambda s: rand_poly(random.Random(s), chart=W, terms=6, deg=4))


def check_kept_set(p: Poly) -> None:
    used = p.variables_used()
    assert used == {v for m in p.terms for v, _ in m}
    assert list(used) == list(variables_by_loop(p))
    assert p.variables_used() is used


@given(wide_polys, wide_polys, st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_kept_variable_sets_match_the_loop(a, b, seed):
    # asked before and after arithmetic, on the operands and the results:
    # the kept set equals a fresh one and iterates in the loop's order
    rng = random.Random(seed)
    check_kept_set(a)
    results = [a * b, a + b, a - b, b - a, -a]
    results += [a.diff(v) for v in range(W.dim)]
    images = {v: rand_poly(rng, chart=W, terms=3, deg=2) for v in a.variables_used()}
    results.append(a.substitute(images))
    for p in results + [a, b]:
        check_kept_set(p)


# What Poly's operators refuse: (call, the exception it raises, or the
# value it returns).  An operand that is not a number or a Poly gets
# NotImplemented, so Python can ask the other operand.
_X = Poly.variable(M, "x")
POLY_REFUSALS = {
    "constant-value-of-x": (lambda: _X.constant_value(),
                            GradcalcError("polynomial is not constant")),
    "divide-by-0": (lambda: _X / 0, ZeroDivisionError("division by zero")),
    "divide-by-x": (lambda: _X / _X, GradcalcError("can only divide by a nonzero constant")),
    "eq-a-number": (lambda: (_X == 1, Poly.const(M, 2) == 2, _X * 0 == 0), (False, True, True)),
    "eq-a-str": (lambda: _X.__eq__("x"), NotImplemented),
    "add-a-str": (lambda: _X.__add__("1"), NotImplemented),
    "sub-a-str": (lambda: _X.__sub__("1"), NotImplemented),
    "rsub-a-str": (lambda: _X.__rsub__("1"), NotImplemented),
    # a number on the left is taken, not refused
    "rsub-a-number": (lambda: [(1 - _X).terms, (Fraction(1, 2) - _X).terms],
                      [{(): 1, ((0, 1),): -1}, {(): Fraction(1, 2), ((0, 1),): -1}]),
    "mul-a-float": (lambda: _X.__mul__(0.5), NotImplemented),
    # a bool is an int to Python, so it reaches the number rule
    "mul-a-bool": (lambda: _X * True, GradcalcError(NUMBER_RULE + "True")),
    "radd-a-bool": (lambda: True + _X, GradcalcError(NUMBER_RULE + "True")),
    "sub-a-bool": (lambda: _X - False, GradcalcError(NUMBER_RULE + "False")),
    "divide-by-zero-poly": (lambda: _X / Poly.zero(M), ZeroDivisionError("division by zero")),
}


@pytest.mark.parametrize("call,outcome", POLY_REFUSALS.values(), ids=POLY_REFUSALS)
def test_operators_refuse_what_they_cannot_take(call, outcome):
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome), match=f"^{re.escape(str(outcome))}$"):
            call()
    else:
        assert call() == outcome
