"""Structure checks: weighted tensors, Poisson/Nijenhuis, distributions,
contact forms, sections, the induced algebroid bracket."""

import json
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcalc import checkers
from gradcalc.calculus import lie_bracket, lie_derivative, nijenhuis_torsion
from gradcalc.charts import cotangent_chart, make_chart, vb_split
from gradcalc.checkers import (
    BundleMap,
    CheckReport,
    Distribution,
    Section,
    algebroid_bracket,
    flat_map,
    is_almost_complex,
    is_almost_product,
    is_almost_tangent,
    is_involutive,
    is_nijenhuis,
    is_poisson,
    is_weighted_contact,
    is_weighted_distribution,
    is_weighted_nijenhuis,
    is_weighted_pn,
    is_weighted_poisson,
    is_weighted_tensor,
    rank_at_point,
    rational_rank,
    section_degree,
    sharp_map,
)
from gradcalc.errors import GradcalcError, ValenceError
from gradcalc.poly import ANY_DEGREE, Poly
from gradcalc.sampling import (SAMPLES, random_fraction, random_multivector, random_poly,
                               sample_points)
from gradcalc.tensor import (
    TensorField,
    coordinate_one_form,
    coordinate_vector_field,
    identity_tensor,
    wedge,
    weight_vector_field,
)

E2 = make_chart(["x", "y"], [0, 0])
E3 = make_chart(["x", "y", "z"], [0, 0, 0])
W2 = make_chart(["x", "y"], [1, 2])


def dvf(chart, name):
    return coordinate_vector_field(chart, name)


def test_check_report():
    with pytest.raises(GradcalcError):
        CheckReport(False)
    r = CheckReport(True, degrees={"t": ANY_DEGREE, "u": 2})
    assert bool(r)
    doc = r.to_json()
    assert doc["verdict"] == "pass"
    assert doc["degrees"] == {"t": repr(ANY_DEGREE), "u": 2}
    assert doc["probabilistic"] is False
    f = CheckReport(False, witness="w", seed=3)
    assert not f
    assert f.to_json() == {"verdict": "fail", "witness": "w",
                           "probabilistic": True, "seed": 3}


def test_distribution_validation():
    with pytest.raises(ValenceError):
        Distribution(E2, (coordinate_one_form(E2, "x"),))
    with pytest.raises(Exception):
        Distribution(E2, (dvf(E3, "x"),))


def test_is_weighted_tensor():
    x = Poly.variable(W2, 0)
    biv = wedge(dvf(W2, "x"), dvf(W2, "y"))
    good = biv * x
    r = is_weighted_tensor(good, 2)
    assert r.verdict
    assert r.degrees == {"expected": -2, "computed": "-2"}
    bad = is_weighted_tensor(biv, 2)
    assert not bad.verdict
    assert bad.witness.startswith("component (x,y;)")
    assert bad.degrees["computed"] == "-3"
    with pytest.raises(GradcalcError):
        is_weighted_tensor(biv, 5)


def _poly(chart, draw, max_terms=2, variables=None):
    """A drawn polynomial: up to max_terms monomials in variables."""
    variables = range(chart.dim) if variables is None else variables
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple((v, e) for v in variables
                     if (e := draw(st.integers(0, 2))))
        terms[mono] = terms.get(mono, 0) + draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    return Poly(chart, {m: c for m, c in terms.items() if c})


@st.composite
def graded_tensors(draw):
    """(tensor, component) on a chart with 1-2 gradings and weights -2..3,
    tagged none, sym or antisym; about half are cut down to the monomials
    of combined degree -(q-1)k, so both verdicts occur."""
    n, g = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    chart = make_chart(list("xyz"[:n]), [tuple(draw(st.integers(-2, 3)) for _ in range(g))
                                         for _ in range(n)])
    q, p = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    tag = draw(st.sampled_from(("none", "sym", "antisym")))
    c = draw(st.integers(0, g - 1))
    want = -(q - 1) * chart.degree(c)
    homogeneous = draw(st.booleans())
    ws = chart.component_weights(c)
    comps = {}
    for _ in range(draw(st.integers(1, 3))):
        up = tuple(draw(st.integers(0, n - 1)) for _ in range(q))
        down = tuple(draw(st.integers(0, n - 1)) for _ in range(p))
        if tag != "none":
            up = tuple(sorted(up)) if q >= 2 else up
            down = tuple(sorted(down)) if p >= 2 else down
            if tag == "antisym" and (len(set(up)) < q or len(set(down)) < p):
                continue
        coef = _poly(chart, draw)
        if homogeneous:
            shift = sum(ws[j] for j in down) - sum(ws[i] for i in up)
            coef = Poly(chart, {m: a for m, a in coef.terms.items()
                                if sum(ws[v] * e for v, e in m) + shift == want})
        comps[(up, down)] = comps.get((up, down), Poly.zero(chart)) + coef
    comps = {key: a for key, a in comps.items() if a}
    return TensorField(chart, q, p, comps, tag, tag), c


@given(graded_tensors())
@settings(max_examples=300, deadline=None)
def test_weighted_verdict_is_the_euler_identity(case):
    # the degree decision agrees with L_D t == want t, and a FAIL names
    # the first component of that residue
    t, c = case
    k = t.chart.degree(c)
    want = -(t.q - 1) * k
    residue = lie_derivative(weight_vector_field(t.chart, c), t) - t * want
    rep = is_weighted_tensor(t, k, c)
    assert rep.verdict == residue.is_zero()
    if not rep.verdict:
        assert rep.witness == checkers._first_component(residue)


def poisson_bracket(lam, f, g):
    out = Poly.zero(lam.chart)
    for ((i, j), _), c in lam.expand().items():
        di = f.diff(i)
        if di:
            dj = g.diff(j)
            if dj:
                out = out + c * di * dj
    return out


def test_is_poisson_matches_cyclic_jacobi():
    rng = random.Random(20)
    x, y, z = (Poly.variable(E3, i) for i in range(3))
    for _ in range(25):
        lam = random_multivector(rng, E3, 2, max_terms=2, max_degree=1)
        if lam.is_zero():
            continue
        cyc = (poisson_bracket(lam, x, poisson_bracket(lam, y, z))
               + poisson_bracket(lam, y, poisson_bracket(lam, z, x))
               + poisson_bracket(lam, z, poisson_bracket(lam, x, y)))
        assert bool(is_poisson(lam)) == (not cyc)


def test_is_poisson_cases():
    assert is_poisson(wedge(dvf(E2, "x"), dvf(E2, "y"))).verdict
    x, y, z = (Poly.variable(E3, i) for i in range(3))
    so3 = (wedge(dvf(E3, "x"), dvf(E3, "y")) * z
           + wedge(dvf(E3, "y"), dvf(E3, "z")) * x
           + wedge(dvf(E3, "z"), dvf(E3, "x")) * y)
    assert is_poisson(so3).verdict
    plain = TensorField.from_components(E3, 2, 0, {((0, 1), ()): 1})
    with pytest.raises(ValenceError):
        is_poisson(plain)
    with pytest.raises(ValenceError):
        is_poisson(identity_tensor(E3))


def test_is_weighted_poisson():
    m = make_chart(["x", "y", "z"], [1, 1, 2])
    x = Poly.variable(m, 0)
    lam = wedge(dvf(m, "x"), dvf(m, "y")) + wedge(dvf(m, "x"), dvf(m, "z")) * x
    r = is_weighted_poisson(lam, 2)
    assert not r.verdict
    assert r.witness == "Jacobi fails: component (x,y,z;) = 2"
    ok = wedge(dvf(m, "x"), dvf(m, "z")) * x
    assert is_weighted_poisson(ok, 2).verdict
    y2 = Poly.variable(W2, 1)
    degenerate = wedge(dvf(W2, "x"), dvf(W2, "y")) * y2
    w = is_weighted_poisson(degenerate, 2)
    assert not w.verdict
    assert w.witness == "component (x,y;) = y"


def test_nijenhuis_checks():
    j = TensorField.from_components(
        E2, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): -1})
    assert is_nijenhuis(j).verdict
    x = Poly.variable(E2, 0)
    torsionful = TensorField.from_components(
        E2, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): x})
    r = is_nijenhuis(torsionful)
    assert not r.verdict
    assert r.witness.startswith("torsion: ")
    assert is_weighted_nijenhuis(identity_tensor(W2)).verdict
    y = Poly.variable(W2, 1)
    heavy = TensorField.from_components(W2, 1, 1, {((0,), (0,)): y})
    w = is_weighted_nijenhuis(heavy)
    assert not w.verdict
    assert w.witness == "degree is 2, not 0"



def test_weighted_nijenhuis_forms_the_torsion_only_after_the_degree_test(monkeypatch):
    calls = []
    monkeypatch.setattr(checkers, "nijenhuis_torsion",
                        lambda n: calls.append(n) or nijenhuis_torsion(n))
    heavy = TensorField.from_components(W2, 1, 1, {((0,), (0,)): Poly.variable(W2, 1)})
    assert is_weighted_nijenhuis(heavy).witness == "degree is 2, not 0"
    assert calls == []
    assert is_weighted_nijenhuis(identity_tensor(W2)).verdict
    assert len(calls) == 1

def test_almost_family():
    j = TensorField.from_components(
        E2, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): -1})
    assert is_almost_complex(j).verdict
    assert not is_almost_product(j).verdict
    refl = TensorField.from_components(
        E2, 1, 1, {((0,), (0,)): 1, ((1,), (1,)): -1})
    assert is_almost_product(refl).verdict
    assert not is_almost_complex(refl).witness is None
    shift = TensorField.from_components(E2, 1, 1, {((0,), (1,)): 1})
    assert is_almost_tangent(shift).verdict
    assert not is_almost_tangent(identity_tensor(E2)).verdict
    with pytest.raises(ValenceError):
        is_almost_complex(dvf(E2, "x"))


def test_weighted_pn_pass_and_branches():
    m = make_chart(["x", "y", "z"], [0, 0, 1])
    z = Poly.variable(m, 2)
    lam = wedge(dvf(m, "x"), dvf(m, "z"))
    ok = is_weighted_pn(lam, identity_tensor(m), 1)
    assert ok.verdict
    assert ok.degrees == {"expected": -1, "computed": "-1"}

    heavy = wedge(dvf(m, "x"), dvf(m, "z")) * z
    r = is_weighted_pn(heavy, identity_tensor(m), 1)
    assert not r.verdict and r.witness.startswith("weighted Poisson fails: ")

    zi = identity_tensor(m) * z
    r = is_weighted_pn(lam, zi, 1)
    assert not r.verdict and r.witness == "weighted Nijenhuis fails: degree is 1, not 0"

    w = make_chart(["x", "y"], [0, 1])
    yw = Poly.variable(w, 1)
    lam2 = wedge(dvf(w, "x"), dvf(w, "y"))
    skewless = identity_tensor(w) + TensorField.from_components(
        w, 1, 1, {((1,), (0,)): yw})
    r = is_weighted_pn(lam2, skewless, 1)
    assert not r.verdict
    assert r.witness == "N applied to the bivector is not skew at (y,y)"

    incompatible = identity_tensor(m) + TensorField.from_components(
        m, 1, 1, {((2,), (1,)): z})
    r = is_weighted_pn(lam, incompatible, 1)
    assert not r.verdict
    assert r.witness == "concomitant: component (x,z;y) = 1"


PINNED_FAILS = [
    # weighted: off by one degree, and inhomogeneous
    ("weighted", lambda c: is_weighted_tensor(c["heavy"], 2),
     '{"verdict": "fail", "witness": "component (x,y;) = y", "degrees": '
     '{"expected": -2, "computed": "-1"}, "probabilistic": false}'),
    ("weighted", lambda c: is_weighted_tensor(c["mixed"], 2),
     '{"verdict": "fail", "witness": "component (x,y;) = y - 1", "degrees": '
     '{"expected": -2, "computed": "inhomogeneous"}, "probabilistic": false}'),
    ("poisson", lambda c: is_poisson(c["jacobi"]),
     '{"verdict": "fail", "witness": "component (x,y,z;) = 2", "probabilistic": false}'),
    ("weighted-poisson", lambda c: is_weighted_poisson(c["jacobi"], 2),
     '{"verdict": "fail", "witness": "Jacobi fails: component (x,y,z;) = 2", '
     '"degrees": {"expected": -2, "computed": "-2"}, "probabilistic": false}'),
    ("weighted-poisson", lambda c: is_weighted_poisson(c["heavy"], 2),
     '{"verdict": "fail", "witness": "component (x,y;) = y", "degrees": '
     '{"expected": -2, "computed": "-1"}, "probabilistic": false}'),
    ("nijenhuis", lambda c: is_nijenhuis(c["torsionful"]),
     '{"verdict": "fail", "witness": "torsion: component (y;x,y) = -2", '
     '"probabilistic": false}'),
    ("weighted-nijenhuis", lambda c: is_weighted_nijenhuis(c["heavy11"]),
     '{"verdict": "fail", "witness": "degree is 2, not 0", "degrees": '
     '{"expected": 0, "computed": "2"}, "probabilistic": false}'),
    ("weighted-nijenhuis", lambda c: is_weighted_nijenhuis(c["torsionful"]),
     '{"verdict": "fail", "witness": "torsion: component (y;x,y) = -2", "degrees": '
     '{"expected": 0, "computed": "0"}, "probabilistic": false}'),
    ("almost-complex", lambda c: is_almost_complex(c["shift"]),
     '{"verdict": "fail", "witness": "component (x;x) = 1", "probabilistic": false}'),
    ("almost-product", lambda c: is_almost_product(c["shift"]),
     '{"verdict": "fail", "witness": "component (x;x) = -1", "probabilistic": false}'),
    ("almost-tangent", lambda c: is_almost_tangent(c["torsionful"]),
     '{"verdict": "fail", "witness": "component (x;x) = x", "probabilistic": false}'),
    # pn, one FAIL per step: Poisson (degree and Jacobi), Nijenhuis, skew, concomitant
    ("pn", lambda c: is_weighted_pn(c["lam"] * c["z"], c["id"], 1),
     '{"verdict": "fail", "witness": "weighted Poisson fails: component (x,z;) = z", '
     '"degrees": {"expected": -1, "computed": "0"}, "probabilistic": false}'),
    ("pn", lambda c: is_weighted_pn(c["pn_jacobi"], c["id"], 1),
     '{"verdict": "fail", "witness": "weighted Poisson fails: Jacobi fails: '
     'component (x,y,z;) = 2", "degrees": {"expected": -1, "computed": "inhomogeneous"}, '
     '"probabilistic": false}'),
    ("pn", lambda c: is_weighted_pn(c["lam"], c["pn_torsion"], 1),
     '{"verdict": "fail", "witness": "weighted Nijenhuis fails: torsion: component '
     '(y;x,y) = -2", "degrees": {"expected": 0, "computed": "0"}, "probabilistic": false}'),
    ("pn", lambda c: is_weighted_pn(c["lam2"], c["skewless"], 1),
     '{"verdict": "fail", "witness": "N applied to the bivector is not skew at (y,y)", '
     '"degrees": {"expected": -1, "computed": "-1"}, "probabilistic": false}'),
    ("pn", lambda c: is_weighted_pn(c["lam"], c["incompatible"], 1),
     '{"verdict": "fail", "witness": "concomitant: component (x,z;y) = 1", "degrees": '
     '{"expected": -1, "computed": "-1"}, "probabilistic": false}'),
]


def _planted():
    m = make_chart(["x", "y", "z"], [1, 1, 2])
    heavy = wedge(dvf(W2, "x"), dvf(W2, "y")) * Poly.variable(W2, 1)
    p = make_chart(["x", "y", "z"], [0, 0, 1])
    w = make_chart(["x", "y"], [0, 1])
    z = Poly.variable(p, 2)
    return {
        "heavy": heavy,
        "mixed": heavy + wedge(dvf(W2, "x"), dvf(W2, "y")),
        "jacobi": wedge(dvf(m, "x"), dvf(m, "y"))
        + wedge(dvf(m, "x"), dvf(m, "z")) * Poly.variable(m, 0),
        "torsionful": TensorField.from_components(
            E2, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): Poly.variable(E2, 0)}),
        "heavy11": TensorField.from_components(W2, 1, 1, {((0,), (0,)): Poly.variable(W2, 1)}),
        "shift": TensorField.from_components(E2, 1, 1, {((0,), (1,)): 1}),
        "lam": wedge(dvf(p, "x"), dvf(p, "z")),
        "z": z,
        "id": identity_tensor(p),
        "pn_jacobi": wedge(dvf(p, "x"), dvf(p, "y"))
        + wedge(dvf(p, "x"), dvf(p, "z")) * Poly.variable(p, 0),
        "pn_torsion": TensorField.from_components(
            p, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): Poly.variable(p, 0)}),
        "lam2": wedge(dvf(w, "x"), dvf(w, "y")),
        "skewless": identity_tensor(w) + TensorField.from_components(
            w, 1, 1, {((1,), (0,)): Poly.variable(w, 1)}),
        "incompatible": identity_tensor(p) + TensorField.from_components(
            p, 1, 1, {((2,), (1,)): z}),
    }


def test_check_reports_pinned():
    # the whole to_json() of one planted FAIL per vanishing path and prefix
    cases = _planted()
    for kind, check, want in PINNED_FAILS:
        assert json.dumps(check(cases).to_json()) == want, kind


def test_sharp_map():
    w = make_chart(["x", "y"], [0, 1])
    lam = wedge(dvf(w, "x"), dvf(w, "y"))
    bm = sharp_map(lam)
    assert isinstance(bm, BundleMap) and bm.report is None
    assert bm.matrix[0][1] == Poly.const(w, 1)
    assert bm.matrix[1][0] == Poly.const(w, -1)
    assert not bm.matrix[0][0]
    graded = sharp_map(lam, k=1)
    assert graded.report.verdict
    assert graded.report.degrees == {"x": "0", "y": "1"}
    y = Poly.variable(w, 1)
    off = sharp_map(lam * y, k=1)
    assert not off.report.verdict
    assert "expected" in off.report.witness
    with pytest.raises(ValenceError):
        sharp_map(identity_tensor(w))


def test_flat_map():
    w = make_chart(["x", "y"], [0, 1])
    om = wedge(coordinate_one_form(w, "x"), coordinate_one_form(w, "y"))
    bm = flat_map(om, k=1)
    assert bm.matrix[0][1] == Poly.const(w, 1)
    assert bm.report.verdict
    assert bm.report.degrees == {"x": "1", "y": "0"}
    with pytest.raises(ValenceError):
        flat_map(dvf(w, "x"))
    # the tangent chart has one more component than w; -1 must not reach it
    for bad in (1, -1):
        with pytest.raises(GradcalcError, match="no such grading component"):
            flat_map(om, k=1, component=bad)


def test_rational_linear_algebra():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([]) == 0
    assert rational_rank([[0, 0], [0, 0]]) == 0
    # rows of unequal length are no matrix
    with pytest.raises(GradcalcError, match="^matrix rows differ in length: 2 and 1$"):
        rational_rank([[1, 0], [0]])
    with pytest.raises(GradcalcError, match="^matrix rows differ in length: 1 and 2$"):
        rational_rank([[0], [0, 1]])


def test_rank_at_point():
    x = Poly.variable(E3, 0)
    d = Distribution(E3, (dvf(E3, "x"), dvf(E3, "y") * x))
    assert rank_at_point(d, {0: Fraction(1), 1: Fraction(5), 2: Fraction(2)}) == 2
    assert rank_at_point(d, {0: Fraction(0), 1: Fraction(1), 2: Fraction(1)}) == 1


def test_is_involutive():
    x = Poly.variable(E3, 0)
    good = Distribution(E3, (dvf(E3, "x"), dvf(E3, "y") * x))
    r = is_involutive(good, seed=5)
    assert r.verdict and r.probabilistic and r.seed == 5
    bad = Distribution(E3, (dvf(E3, "x"), dvf(E3, "z") * x + dvf(E3, "y")))
    r = is_involutive(bad, seed=5)
    assert not r.verdict
    assert "generators 0,1" in r.witness and "leaves the span at" in r.witness


def test_random_poly_on_a_chart_without_variables_is_constant():
    point = make_chart([], [], label="P")
    polys = [random_poly(random.Random(seed), point, max_terms=3, max_degree=3)
             for seed in range(20)]
    assert all(set(f.terms) <= {()} for f in polys) and any(f.terms for f in polys)
    assert all(repr(f) == str(f.terms.get((), 0)) for f in polys)


def test_sample_points_are_seeded_nonzero_integers():
    # SAMPLES points of nonzero integers in -5..5, one stream per seed
    pts = sample_points(E3, 0)
    assert len(pts) == SAMPLES
    assert all(set(pt) == {0, 1, 2} for pt in pts)
    assert all(v.denominator == 1 and 1 <= abs(v) <= 5 for pt in pts for v in pt.values())
    assert sample_points(E3, 0) == pts and sample_points(E3, 1) != pts
    assert sample_points(make_chart([], []), 0) == [{}] * SAMPLES


class _FiniteRng:
    """Draws 0 from randint, and fails the test instead of looping forever."""

    def __init__(self):
        self.calls = 0

    def randint(self, low, high):
        self.calls += 1
        if self.calls > 100:
            raise AssertionError("random_fraction kept drawing")
        return 0


def test_random_fraction_needs_a_nonzero_integer():
    # (0, 0) looped forever and (3, 1) raised a bare ValueError in randint
    for low, high in ((0, 0), (3, 1), (1, 0)):
        rng = _FiniteRng()
        with pytest.raises(GradcalcError, match=rf"^no nonzero integer in \[{low}, {high}\]$"):
            random_fraction(rng, low, high)
        assert rng.calls == 0
    rng = random.Random(3)
    assert {random_fraction(rng, 0, 1) for _ in range(20)} == {1}
    assert {random_fraction(rng, -1, 0) for _ in range(20)} == {-1}


def test_is_weighted_distribution():
    good = Distribution(W2, (dvf(W2, "x"),))
    assert is_weighted_distribution(good, seed=2).verdict
    y = Poly.variable(W2, 1)
    bad = Distribution(W2, (dvf(W2, "x") + dvf(W2, "y") * y,))
    r = is_weighted_distribution(bad, seed=2)
    assert not r.verdict
    assert r.witness.startswith("weight-field bracket of generator 0")


def test_distribution_reports_pinned(monkeypatch):
    # the whole to_json() of both span checks, witness text and key order included
    x = Poly.variable(E3, 0)
    good = Distribution(E3, (dvf(E3, "x"), dvf(E3, "y") * x))
    bad = Distribution(E3, (dvf(E3, "x"), dvf(E3, "x") * 2,
                            dvf(E3, "y") + dvf(E3, "z") * x))
    w3 = make_chart(["x", "y", "z"], [1, 2, 0])
    weighted = Distribution(w3, (dvf(w3, "x"),))
    unweighted = Distribution(w3, (dvf(w3, "x"),
                                   dvf(w3, "y") + dvf(w3, "z") * Poly.variable(w3, 0)))
    calls = []
    monkeypatch.setattr(checkers, "lie_bracket",
                        lambda a, b: calls.append(1) or lie_bracket(a, b))
    reports = [
        (is_involutive(good, seed=5),
         '{"verdict": "pass", "probabilistic": true, "seed": 5}'),
        (is_involutive(bad, seed=5),
         '{"verdict": "fail", "witness": "bracket of generators 0,2 leaves the span '
         'at (x=4, y=-1, z=5)", "probabilistic": true, "seed": 5}'),
        (is_involutive(bad, seed=3),
         '{"verdict": "fail", "witness": "bracket of generators 0,2 leaves the span '
         'at (x=-2, y=4, z=3)", "probabilistic": true, "seed": 3}'),
        (is_weighted_distribution(weighted, seed=2),
         '{"verdict": "pass", "probabilistic": true, "seed": 2}'),
        (is_weighted_distribution(unweighted, seed=2),
         '{"verdict": "fail", "witness": "weight-field bracket of generator 1 leaves '
         'the span at (x=-5, y=-4, z=-4)", "probabilistic": true, "seed": 2}'),
    ]
    for rep, want in reports:
        assert json.dumps(rep.to_json()) == want
    # one bracket for good; (0,1) and (0,2) for bad, none after the failure
    assert len(calls) == 1 + 2 + 2 + 1 + 2
    # the component is checked before any point is drawn
    with pytest.raises(GradcalcError, match="no such grading component"):
        is_weighted_distribution(weighted, component=1)


def test_is_weighted_contact():
    c3 = make_chart(["x", "y", "z"], [1, 1, 2])
    x = Poly.variable(c3, 0)
    alpha = coordinate_one_form(c3, "z") + coordinate_one_form(c3, "y") * x
    r = is_weighted_contact(alpha, 2, 1)
    assert r.verdict
    assert r.degrees == {"alpha": "2", "expected": 2}
    wrong = is_weighted_contact(alpha, 1, 1)
    assert not wrong.verdict
    assert wrong.witness == "form degree is 2, expected 1"
    flatd = is_weighted_contact(coordinate_one_form(c3, "z"), 2, 1)
    assert not flatd.verdict
    assert flatd.witness == "alpha ^^ (d alpha)^n vanishes identically"
    with pytest.raises(GradcalcError):
        is_weighted_contact(alpha, 2, 2)
    with pytest.raises(ValenceError):
        is_weighted_contact(dvf(c3, "x"), 2, 1)


def test_section_degree():
    e = make_chart(["x", "u", "v"], [(1, 0), (2, 1), (3, 1)])
    x = Poly.variable(e, 0)
    assert section_degree(Section(e, 1, {1: x * x, 2: x ** 3})) == 0
    assert section_degree(Section(e, 1, {1: x ** 3})) == 1
    assert section_degree(Section(e, 1, {1: x * x, 2: x})) is None
    assert section_degree(Section(e, 1, {})) is ANY_DEGREE
    with pytest.raises(GradcalcError):
        section_degree(Section(e, 1, {0: x}))
    u = Poly.variable(e, 1)
    with pytest.raises(GradcalcError):
        section_degree(Section(e, 1, {1: u}))
    with pytest.raises(GradcalcError, match="no such grading component"):
        section_degree(Section(e, 1, {1: x * x}, graded_component=-1))
    # the VB component is no graded component, whatever the section
    for values in ({}, {1: x * x, 2: x}, {1: x ** 3}):
        with pytest.raises(GradcalcError, match="graded_component must name a grading "
                                                "component other than the VB one"):
            section_degree(Section(e, 1, values, graded_component=1))


def test_algebroid_bracket_recovers_lie():
    ct = cotangent_chart(E2)
    vb = ct.grading_count - 1
    lam = (wedge(dvf(ct, "p_x"), dvf(ct, "x"))
           + wedge(dvf(ct, "p_y"), dvf(ct, "y")))
    rng = random.Random(22)
    for _ in range(10):
        fs = [random_poly(rng, E2, max_terms=2, max_degree=2) for _ in range(4)]
        x = dvf(E2, "x") * fs[0] + dvf(E2, "y") * fs[1]
        y = dvf(E2, "x") * fs[2] + dvf(E2, "y") * fs[3]
        want = lie_bracket(x, y)
        got = algebroid_bracket(lam, vb,
                                [f.reindex(ct) for f in fs[:2]],
                                [f.reindex(ct) for f in fs[2:]])
        assert got == [want.component((i,), ()).reindex(ct) for i in range(2)]


def test_algebroid_bracket_rejects_bad_input():
    ct = cotangent_chart(E2)
    vb = ct.grading_count - 1
    px = Poly.variable(ct, 2)
    one = Poly.const(ct, 1)
    lam = wedge(dvf(ct, "p_x"), dvf(ct, "x"))
    # (tensor, sections, error, message); a fibre-fibre tensor sends linear
    # functions to base functions
    for t, xs, ys, error, message in (
            (dvf(ct, "x"), [one, one], [one, one], ValenceError,
             "expected a bivalent contravariant tensor"),
            (lam * (px * px), [one, one], [one, one], GradcalcError,
             "tensor is not linear in the fibre variables"),
            (lam, [one], [one, one], GradcalcError, "section needs 2 components"),
            (lam, [px, one], [one, one], GradcalcError,
             "section component must depend on base variables only"),
            (wedge(dvf(ct, "p_x"), dvf(ct, "p_y")), [one, one], [Poly.variable(ct, 0), one],
             GradcalcError, "bracket of linear functions is not fibrewise linear; "
                            "tensor is malformed")):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            algebroid_bracket(t, vb, xs, ys)


def algebroid_bracket_reference(lam, vb_component, xs, ys):
    """The bracket by counting fibre exponents monomial by monomial: the
    linear functions of the sections, their lam-bracket through the
    expanded table, and the coefficient of each fibre variable read off."""
    chart = lam.chart
    _, fibre = vb_split(chart, vb_component)
    for c in lam.components.values():
        for mono in c.terms:
            if sum(e for v, e in mono if v in fibre) > 1:
                raise GradcalcError("tensor is not linear in the fibre variables")
    iota_x = Poly.zero(chart)
    iota_y = Poly.zero(chart)
    for f, vx, vy in zip(fibre, xs, ys):
        iota_x = iota_x + Poly.variable(chart, f) * vx
        iota_y = iota_y + Poly.variable(chart, f) * vy
    h = poisson_bracket(lam, iota_x, iota_y)
    out = [Poly.zero(chart) for _ in fibre]
    for mono, coef in h.terms.items():
        hits = [(v, e) for v, e in mono if v in fibre]
        if len(hits) != 1 or hits[0][1] != 1:
            raise GradcalcError(
                "bracket of linear functions is not fibrewise linear; tensor is malformed")
        f = hits[0][0]
        rest = tuple(pair for pair in mono if pair[0] != f)
        out[fibre.index(f)] = out[fibre.index(f)] + Poly(chart, {rest: coef})
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GradcalcError as e:
        return ("raises", e.args[0])


@st.composite
def algebroid_inputs(draw):
    """A bivector on base x, y (nonzero graded weights) and fibre u, v, with
    two sections.  Well formed, it is linear Poisson-shaped: base-fibre
    entries are base polynomials, fibre-fibre entries are fibre-linear
    and there is no base-base entry.  Malformed, any entry may gain a term
    of the wrong fibre degree (0, 1 or 2): a fibre-fibre entry with a base
    coefficient, say, or a fibre-quadratic term."""
    nonzero = st.sampled_from((-2, -1, 1, 2, 3))
    chart = make_chart(["x", "y", "u", "v"],
                       [(draw(nonzero), 0), (draw(nonzero), 0),
                        (draw(st.integers(-2, 3)), 1), (draw(st.integers(-2, 3)), 1)])
    base, fibre = (0, 1), (2, 3)
    malformed = draw(st.booleans())

    def part(degree):
        """A base polynomial times a monomial of that fibre degree."""
        out = _poly(chart, draw, variables=base)
        for _ in range(degree):
            out = out * Poly.variable(chart, draw(st.sampled_from(fibre)))
        return out

    comps = {}
    for i, j in combinations(range(4), 2):
        right = (j in fibre) + (i in fibre) - 1     # -1 (none), 0 or 1
        coef = part(right) if right >= 0 else Poly.zero(chart)
        if malformed and draw(st.integers(0, 3)) == 0:
            coef = coef + part(draw(st.sampled_from([d for d in (0, 1, 2) if d != right])))
        if coef:
            comps[((i, j), ())] = coef
    lam = TensorField(chart, 2, 0, comps, "antisym")
    xs, ys = ([_poly(chart, draw, variables=base) for _ in range(2)] for _ in range(2))
    return lam, xs, ys


@given(algebroid_inputs())
@settings(max_examples=200, deadline=None)
def test_algebroid_bracket_matches_reference(case):
    lam, xs, ys = case
    assert _outcome(algebroid_bracket, lam, 1, xs, ys) == \
        _outcome(algebroid_bracket_reference, lam, 1, xs, ys)


# -- fraction-free rank against the Fraction elimination ------------------------

def rank_by_fractions(rows: list) -> int:
    """rational_rank as it was: Gauss-Jordan elimination in Fractions."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


rank_entries = st.one_of(st.integers(-6, 6), st.integers(-10 ** 12, 10 ** 12),
                         st.fractions(min_value=-4, max_value=4, max_denominator=7))


@st.composite
def rank_matrices(draw):
    """Rows of int/Fraction entries with zero rows, zero columns and rows
    that are combinations of earlier ones, in any order."""
    ncols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(rank_entries, min_size=ncols, max_size=ncols),
                         max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            coefs = draw(st.lists(rank_entries, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(ncols)])
        if draw(st.booleans()):
            rows.append([0] * ncols)
    for j in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)):
        for r in rows:
            if j < ncols:
                r[j] = 0
    return draw(st.permutations(rows))


@given(rank_matrices())
@settings(max_examples=400, deadline=None)
def test_rational_rank_matches_fraction_reference(rows):
    want = rank_by_fractions(rows)
    assert rational_rank(rows) == want
    assert rational_rank([[Fraction(a) for a in r] for r in rows]) == want
    # rows written as str are refused, not read
    if any(rows):
        with pytest.raises(GradcalcError, match="a number must be an int or a Fraction"):
            rational_rank([[str(a) for a in r] for r in rows])


def test_rational_rank_spot_values():
    assert rational_rank([[0, 1], [1, 0]]) == 2        # needs a row swap
    assert rational_rank([[0, 0, 3], [0, 2, 1], [5, 0, 0]]) == 3
    assert rational_rank([[0, 2, 4], [0, 1, 2], [0, 0, 0], [0, 3, 7]]) == 2
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    assert rational_rank([[Fraction(1, 2), 0], [0, Fraction(-2, 3)]]) == 2
    assert rational_rank([[], []]) == 0
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3), Fraction(2)]]) == 1
    # 0.1 would become 3602879701896397/36028797018963968, and these two
    # proportional rows would have rank 2
    for rows in ([[0.1, 1], [1, 10]], [[Fraction(1, 2), "1/3"]], [[True, 0]]):
        with pytest.raises(GradcalcError, match="a number must be an int or a Fraction"):
            rational_rank(rows)


# seed -> y of the witness point (x = 1 there), from the Fraction elimination
RANK_DROP_FAILS = {0: 1, 1: 1, 2: 5, 6: 3, 7: -4, 8: 5, 9: -3, 10: 2, 12: -5, 14: 1,
                   15: -1, 17: -1, 19: 3, 20: -4, 21: 5, 23: 3, 24: 4, 25: -5, 27: -3,
                   29: -5, 30: 5, 35: -1, 38: -4, 39: -5}


def test_rank_drop_verdicts_pinned():
    # span(d/dx, (x-1)*d/dy) is involutive where its rank is generic, but a
    # sample point on x = 1 drops the rank and gives a definite FAIL: the
    # known defect stays visible until distribution checks decide over Q(x).
    x = Poly.variable(E2, 0)
    d = Distribution(E2, (dvf(E2, "x"), dvf(E2, "y") * (x - 1)))
    for seed in range(40):
        r = is_involutive(d, seed=seed)
        assert r.probabilistic and r.seed == seed
        if seed in RANK_DROP_FAILS:
            assert not r.verdict
            assert r.witness == "bracket of generators 0,1 leaves the span at " \
                f"(x=1, y={RANK_DROP_FAILS[seed]})"
        else:
            assert r.verdict and r.witness is None
    assert len(RANK_DROP_FAILS) == 24


def test_span_check_ranks_each_point_once(monkeypatch):
    calls = []
    monkeypatch.setattr(checkers, "rational_rank",
                        lambda rows: calls.append(len(rows)) or rational_rank(rows))
    x = Poly.variable(E3, 0)
    d = Distribution(E3, (dvf(E3, "x"), dvf(E3, "y") * x, dvf(E3, "z") * x))
    assert is_involutive(d, seed=1).verdict        # two nonzero brackets
    assert sorted(calls) == [3] * SAMPLES + [4] * (2 * SAMPLES)
