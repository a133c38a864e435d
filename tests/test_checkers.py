"""Structure checks: weighted tensors, Poisson/Nijenhuis, distributions,
contact forms, sections, the induced algebroid bracket."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcalc import checkers
from gradcalc.calculus import lie_bracket
from gradcalc.charts import cotangent_chart, make_chart
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
from gradcalc.sampling import MAX_SAMPLES, random_multivector, random_poly, sample_points
from gradcalc.tensor import (
    TensorField,
    coordinate_one_form,
    coordinate_vector_field,
    identity_tensor,
    wedge,
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


def test_sampled_checks_reject_empty_samples():
    # samples < 1 used to give a vacuous PASS for this non-involutive span
    x = Poly.variable(E3, 0)
    bad = Distribution(E3, (dvf(E3, "x"), dvf(E3, "y") + dvf(E3, "z") * x))
    assert not is_involutive(bad, samples=8).verdict
    for samples in (0, -1):
        with pytest.raises(GradcalcError, match="sample count"):
            is_involutive(bad, samples=samples)
        with pytest.raises(GradcalcError, match="sample count"):
            is_weighted_distribution(bad, samples=samples)


def test_sample_points_validation():
    with pytest.raises(GradcalcError, match="sample count"):
        sample_points(E2, 0, count=0)
    with pytest.raises(GradcalcError, match=f"sample count must be at most {MAX_SAMPLES}, "
                                            f"got {MAX_SAMPLES + 1}"):
        sample_points(E2, 0, count=MAX_SAMPLES + 1)
    x = Poly.variable(E3, 0)
    d = Distribution(E3, (dvf(E3, "x"), dvf(E3, "y") * x))
    with pytest.raises(GradcalcError, match="at most"):
        is_involutive(d, samples=10 ** 8)
    with pytest.raises(GradcalcError, match="at most"):
        is_weighted_distribution(d, samples=10 ** 8)


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
        (is_involutive(bad, seed=3, samples=2),
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
    # the component is checked before the sample count
    with pytest.raises(GradcalcError, match="no such grading component"):
        is_weighted_distribution(weighted, component=1, samples=0)


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
    quad = wedge(dvf(ct, "p_x"), dvf(ct, "x")) * (px * px)
    one = Poly.const(ct, 1)
    with pytest.raises(GradcalcError):
        algebroid_bracket(quad, vb, [one, one], [one, one])
    lam = wedge(dvf(ct, "p_x"), dvf(ct, "x"))
    with pytest.raises(GradcalcError):
        algebroid_bracket(lam, vb, [one], [one, one])
    with pytest.raises(GradcalcError):
        algebroid_bracket(lam, vb, [px, one], [one, one])
    # a fibre-fibre tensor sends linear functions to base functions
    broken = wedge(dvf(ct, "p_x"), dvf(ct, "p_y"))
    with pytest.raises(GradcalcError):
        algebroid_bracket(broken, vb, [one, one],
                          [Poly.variable(ct, 0), one])


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
    assert rational_rank([[str(a) for a in r] for r in rows]) == want


def test_rational_rank_spot_values():
    assert rational_rank([[0, 1], [1, 0]]) == 2        # needs a row swap
    assert rational_rank([[0, 0, 3], [0, 2, 1], [5, 0, 0]]) == 3
    assert rational_rank([[0, 2, 4], [0, 1, 2], [0, 0, 0], [0, 3, 7]]) == 2
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    assert rational_rank([[Fraction(1, 2), 0], [0, Fraction(-2, 3)]]) == 2
    assert rational_rank([[], []]) == 0
    assert rational_rank([[0.5, "1/3", Fraction(2)]]) == 1


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
    assert is_involutive(d, seed=1, samples=5).verdict        # two nonzero brackets
    assert sorted(calls) == [3] * 5 + [4] * 10
