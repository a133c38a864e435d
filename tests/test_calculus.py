"""Exterior derivative, Lie/Schouten/vv-form brackets, torsion, concomitant."""

import contextlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcalc.calculus import (
    concomitant,
    exterior_derivative,
    fn_bracket,
    lie_bracket,
    lie_derivative,
    nijenhuis_torsion,
    nr_bracket,
    schouten_bracket,
    vf_apply,
)
from gradcalc.charts import make_chart
from gradcalc.errors import ChartMismatchError, ValenceError
from gradcalc.lifts import LiftContext, lift_tensor
from gradcalc.poly import Poly, _acc
from gradcalc.render import render_tensor
from gradcalc.sampling import (
    random_form,
    random_multivector,
    random_poly,
    random_tensor,
    random_vector_field,
    random_vv_form,
)
from gradcalc.tensor import (
    TensorField,
    _from_expanded,
    _sort_with_parity,
    compose_11,
    coordinate_one_form,
    coordinate_vector_field,
    identity_tensor,
    insert_multivector,
    scalar_field,
    tensor_product,
    wedge,
)
from test_tensor import assert_same_storage, canonical_key, fraction_tensor

E2 = make_chart(["x", "y"], [0, 0])
E3 = make_chart(["x", "y", "z"], [0, 0, 0])
OPTS = dict(max_terms=2, max_degree=2)


def nonzero(make, *args):
    while True:
        t = make(*args)
        if not t.is_zero():
            return t


def rmv(rng, deg):
    return nonzero(lambda: random_multivector(rng, E3, deg, **OPTS))


def rform(rng, deg):
    if deg == 0:
        return scalar_field(E3, random_poly(rng, E3, **OPTS))
    return nonzero(lambda: random_form(rng, E3, deg, **OPTS))


def rvv(rng, deg):
    return nonzero(lambda: random_vv_form(rng, E3, deg, **OPTS))


def apply_11(n, v):
    return insert_multivector(v, n)


def test_exterior_derivative_frozen():
    x = Poly.variable(E2, 0)
    dx = coordinate_one_form(E2, "x")
    dy = coordinate_one_form(E2, "y")
    assert exterior_derivative(dy * x) == wedge(dx, dy)
    df = exterior_derivative(scalar_field(E2, x * x))
    assert df == dx * (x * 2)
    assert exterior_derivative(dx).is_zero()
    with pytest.raises(ValenceError):
        exterior_derivative(coordinate_vector_field(E2, "x"))
    flat = TensorField.from_components(E3, 0, 2, {((), (0, 1)): 1})
    with pytest.raises(ValenceError):
        exterior_derivative(flat)


def test_d_squared_zero():
    rng = random.Random(1)
    for deg in (0, 1, 2):
        for _ in range(10):
            w = rform(rng, deg)
            assert exterior_derivative(exterior_derivative(w)).is_zero()


def test_d_leibniz_on_scaled_forms():
    rng = random.Random(2)
    for deg in (1, 2):
        for _ in range(10):
            f = random_poly(rng, E3, **OPTS)
            w = rform(rng, deg)
            df = exterior_derivative(scalar_field(E3, f))
            assert exterior_derivative(w * f) == wedge(df, w) + exterior_derivative(w) * f


def test_lie_bracket_frozen():
    x, y = Poly.variable(E2, 0), Poly.variable(E2, 1)
    a = coordinate_vector_field(E2, "y") * x
    b = coordinate_vector_field(E2, "x") * y
    assert lie_bracket(a, b) == (coordinate_vector_field(E2, "x") * x
                                 - coordinate_vector_field(E2, "y") * y)
    assert lie_bracket(a, a).is_zero()
    with pytest.raises(ValenceError):
        lie_bracket(a, coordinate_one_form(E2, "x"))


def test_lie_bracket_jacobi():
    rng = random.Random(3)
    for _ in range(15):
        x = random_vector_field(rng, E3, **OPTS)
        y = random_vector_field(rng, E3, **OPTS)
        z = random_vector_field(rng, E3, **OPTS)
        total = (lie_bracket(lie_bracket(x, y), z)
                 + lie_bracket(lie_bracket(y, z), x)
                 + lie_bracket(lie_bracket(z, x), y))
        assert total.is_zero()


def test_vf_apply():
    x, y = Poly.variable(E2, 0), Poly.variable(E2, 1)
    a = coordinate_vector_field(E2, "y") * x
    assert vf_apply(a, y * y) == x * y * 2
    assert not vf_apply(a, x)
    with pytest.raises(ValenceError):
        vf_apply(coordinate_one_form(E2, "x"), x)
    # a chart with E2's table is still another chart, whatever f reads
    other = make_chart(["x", "y"], [0, 0])
    for f in (Poly.variable(other, 0), Poly.variable(other, 1), Poly.const(other, 2)):
        with pytest.raises(ChartMismatchError, match="function lives on a different chart"):
            vf_apply(coordinate_vector_field(E2, "x"), f)


def test_lie_derivative_cases():
    rng = random.Random(4)
    for _ in range(10):
        x = random_vector_field(rng, E3, **OPTS)
        f = random_poly(rng, E3, **OPTS)
        assert lie_derivative(x, scalar_field(E3, f)).scalar_part() == vf_apply(x, f)
        y = random_vector_field(rng, E3, **OPTS)
        assert lie_derivative(x, y) == lie_bracket(x, y)
        s = random_tensor(rng, E3, 1, 0, **OPTS)
        t = random_tensor(rng, E3, 0, 1, **OPTS)
        assert lie_derivative(x, tensor_product(s, t)) == (
            tensor_product(lie_derivative(x, s), t)
            + tensor_product(s, lie_derivative(x, t)))


def test_lie_derivative_commutes_with_d():
    rng = random.Random(5)
    for deg in (0, 1, 2):
        for _ in range(8):
            x = random_vector_field(rng, E3, **OPTS)
            w = rform(rng, deg)
            assert lie_derivative(x, exterior_derivative(w)) == \
                exterior_derivative(lie_derivative(x, w))


def test_cartan_magic_formula():
    rng = random.Random(6)
    for deg in (1, 2):
        for _ in range(10):
            x = random_vector_field(rng, E3, **OPTS)
            w = rform(rng, deg)
            assert lie_derivative(x, w) == (
                insert_multivector(x, exterior_derivative(w))
                + exterior_derivative(insert_multivector(x, w)))


def test_lie_derivative_keeps_tags():
    rng = random.Random(7)
    w = rform(rng, 2)
    x = random_vector_field(rng, E3, **OPTS)
    assert lie_derivative(x, w).cov_sym == "antisym"


def test_schouten_graded_antisymmetry():
    rng = random.Random(8)
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            for _ in range(5):
                a, b = rmv(rng, k), rmv(rng, l)
                sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
                assert (schouten_bracket(a, b) + schouten_bracket(b, a) * sign).is_zero()


def test_schouten_leibniz():
    rng = random.Random(9)
    for k in (1, 2):
        for db in (1, 2):
            for _ in range(5):
                a, b, c = rmv(rng, k), rmv(rng, db), rmv(rng, 1)
                sign = -1 if ((k - 1) * db) % 2 else 1
                assert schouten_bracket(a, wedge(b, c)) == (
                    wedge(schouten_bracket(a, b), c)
                    + wedge(b, schouten_bracket(a, c)) * sign)


def test_schouten_on_vectors_is_lie():
    rng = random.Random(10)
    for _ in range(10):
        x = random_vector_field(rng, E3, **OPTS)
        y = random_vector_field(rng, E3, **OPTS)
        assert schouten_bracket(x, y) == lie_bracket(x, y)
    with pytest.raises(ValenceError):
        schouten_bracket(x, scalar_field(E3, 1))
    with pytest.raises(ValenceError):
        schouten_bracket(x, coordinate_one_form(E3, "x"))


def test_fn_on_vectors_is_lie():
    rng = random.Random(11)
    for _ in range(10):
        x = random_vector_field(rng, E3, **OPTS)
        y = random_vector_field(rng, E3, **OPTS)
        assert fn_bracket(x, y) == lie_bracket(x, y)


def test_fn_graded_antisymmetry():
    rng = random.Random(12)
    for k in (0, 1, 2):
        for l in (0, 1, 2):
            for _ in range(4):
                a, b = rvv(rng, k), rvv(rng, l)
                sign = -1 if (k * l) % 2 else 1
                assert (fn_bracket(a, b) + fn_bracket(b, a) * sign).is_zero()


def test_torsion_is_twice_classical():
    rng = random.Random(13)
    for _ in range(6):
        n = random_tensor(rng, E3, 1, 1, **OPTS)
        x = random_vector_field(rng, E3, **OPTS)
        y = random_vector_field(rng, E3, **OPTS)
        t2 = nijenhuis_torsion(n)
        assert t2 == fn_bracket(n, n)
        paired = insert_multivector(y, insert_multivector(x, t2))
        nx, ny = apply_11(n, x), apply_11(n, y)
        classical = (lie_bracket(nx, ny)
                     - apply_11(n, lie_bracket(nx, y))
                     - apply_11(n, lie_bracket(x, ny))
                     + apply_11(n, apply_11(n, lie_bracket(x, y))))
        assert paired == classical * 2
    with pytest.raises(ValenceError):
        nijenhuis_torsion(coordinate_vector_field(E3, "x"))


def test_complex_structure_has_no_torsion():
    j = TensorField.from_components(
        E2, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): -1})
    assert nijenhuis_torsion(j).is_zero()
    assert nijenhuis_torsion(identity_tensor(E3)).is_zero()


def test_nr_graded_antisymmetry():
    rng = random.Random(14)
    for k, l in ((1, 1), (1, 2), (2, 1), (2, 2), (0, 1), (1, 0)):
        for _ in range(4):
            a, b = rvv(rng, k), rvv(rng, l)
            sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
            assert (nr_bracket(a, b) + nr_bracket(b, a) * sign).is_zero()
    with pytest.raises(ValenceError):
        nr_bracket(coordinate_vector_field(E3, "x"),
                   coordinate_vector_field(E3, "y"))


def test_nr_on_11_is_composition_commutator():
    rng = random.Random(15)
    for _ in range(8):
        k = random_tensor(rng, E3, 1, 1, **OPTS)
        l = random_tensor(rng, E3, 1, 1, **OPTS)
        assert nr_bracket(k, l) == compose_11(l, k) - compose_11(k, l)
    j = TensorField.from_components(
        E2, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): -1})
    assert nr_bracket(j, j).is_zero()


def test_concomitant_frozen():
    lam = wedge(coordinate_vector_field(E2, "x"), coordinate_vector_field(E2, "y"))
    n = TensorField.from_components(E2, 1, 1, {((0,), (0,)): Poly.variable(E2, 1)})
    c = concomitant(lam, n)
    assert c == TensorField.from_components(E2, 2, 1, {((0, 1), (1,)): -1})
    with pytest.raises(ValenceError):
        concomitant(n, n)
    with pytest.raises(ValenceError):
        concomitant(lam, coordinate_vector_field(E2, "x"))


def test_concomitant_vanishes_on_identity():
    rng = random.Random(16)
    for _ in range(8):
        lam = rmv(rng, 2)
        assert concomitant(lam, identity_tensor(E3)).is_zero()


def _jacobi_holds(bracket, a, b, c, sign):
    return bracket(a, bracket(b, c)) == (bracket(bracket(a, b), c)
                                         + bracket(b, bracket(a, c)) * sign)


def test_schouten_graded_jacobi():
    rng = random.Random(17)
    for case in range(216):
        k, l, m = 1 + case % 3, 1 + case // 3 % 3, 1 + case // 9 % 3
        a, b, c = rmv(rng, k), rmv(rng, l), rmv(rng, m)
        sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
        assert _jacobi_holds(schouten_bracket, a, b, c, sign)


def test_fn_graded_jacobi():
    rng = random.Random(18)
    for case in range(216):
        k, l, m = case % 3, case // 3 % 3, case // 9 % 3
        a, b, c = rvv(rng, k), rvv(rng, l), rvv(rng, m)
        sign = -1 if (k * l) % 2 else 1
        assert _jacobi_holds(fn_bracket, a, b, c, sign)


def test_nr_graded_jacobi():
    rng = random.Random(19)
    for case in range(216):
        k, l, m = 1 + case % 3, 1 + case // 3 % 3, case // 9 % 3
        a, b, c = rvv(rng, k), rvv(rng, l), rvv(rng, m)
        sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
        assert _jacobi_holds(nr_bracket, a, b, c, sign)


def test_schouten_of_bivector_from_partials():
    # [L,L]^{ijk} = 2 sum_l (L^{il} d_l L^{jk} + L^{jl} d_l L^{ki} + L^{kl} d_l L^{ij})
    rng = random.Random(20)
    for _ in range(25):
        lam = rmv(rng, 2)
        ll = schouten_bracket(lam, lam)
        entry = {(i, j): lam.component((i, j), ()) for i in range(3) for j in range(3)}
        for i, j, k in itertools.permutations(range(3)):
            want = Poly.zero(E3)
            for s in range(3):
                want = (want + entry[i, s] * entry[j, k].diff(s)
                        + entry[j, s] * entry[k, i].diff(s)
                        + entry[k, s] * entry[i, j].diff(s))
            assert ll.component((i, j, k), ()) == want * 2


def test_bracket_results_frozen():
    x, y, z = (Poly.variable(E3, i) for i in range(3))
    lam = TensorField.from_components(
        E3, 2, 0, {((0, 1), ()): z, ((1, 2), ()): x * y}, contra_sym="antisym")
    s = schouten_bracket(lam, lam)
    assert render_tensor(s) == "2*x*z*d/dx ^^ d/dy ^^ d/dz"
    assert (s.q, s.p, s.contra_sym, s.cov_sym) == (3, 0, "antisym", "none")
    n = TensorField.from_components(
        E3, 1, 1, {((0,), (2,)): y, ((2,), (1,)): x * x, ((1,), (1,)): z})
    t = fn_bracket(n, n)
    assert render_tensor(t) == (
        "-4*x*y*d/dx ox dx ^^ dy + 2*z*d/dx ox dy ^^ dz + 2*z*d/dy ox dy ^^ dz"
        " + (2*x^2 - 4*x*y)*d/dz ox dy ^^ dz")
    assert (t.q, t.p, t.contra_sym, t.cov_sym) == (1, 2, "none", "antisym")
    w = TensorField.from_components(
        E3, 1, 2, {((1,), (0, 2)): x, ((0,), (1, 2)): y * z}, cov_sym="antisym")
    u = nr_bracket(w, n)
    assert render_tensor(u) == (
        "-y*z^2*d/dx ox dy ^^ dz - x^3*d/dy ox dx ^^ dy + x*z*d/dy ox dx ^^ dz"
        " + x^3*d/dz ox dx ^^ dz")
    assert (u.q, u.p, u.contra_sym, u.cov_sym) == (1, 2, "none", "antisym")


def test_brackets_take_no_derivative_of_a_dropped_term(monkeypatch):
    # every term of these brackets repeats an index, so none needs d_v
    x, y = (Poly.variable(E2, i) for i in range(2))
    lam = TensorField.from_components(E2, 2, 0, {((0, 1), ()): y},
                                      contra_sym="antisym")
    n = TensorField.from_components(E2, 1, 1, {((0,), (0,)): x})
    taken = []
    diff = Poly.diff
    monkeypatch.setattr(Poly, "diff",
                        lambda self, var: taken.append(var) or diff(self, var))
    assert schouten_bracket(lam, lam).is_zero()
    assert fn_bracket(n, n).is_zero()
    assert taken == []


# -- reference loops ----------------------------------------------------------
# concomitant and lie_bracket as they were written before each became one
# pass: one double loop per term of the formula over expanded tables, with
# every coefficient differentiated in every variable; lie_derivative as it
# was before its derivatives were gated on the variables a factor uses

def concomitant_by_terms(lam, n):
    le, ne, dim = lam.expand(), n.expand(), lam.chart.dim
    out: dict = {}
    for ((l, j), _), a in le.items():
        for ((i,), (s,)), b in ne.items():
            d = b.diff(l)
            if d:
                _acc(out, ((i, j), (s,)), a * d)          # L^{lj} d_l N^i_s
    for ((i, l), _), a in le.items():
        for ((j,), (s,)), b in ne.items():
            d = b.diff(l)
            if d:
                _acc(out, ((i, j), (s,)), a * d)          # L^{il} d_l N^j_s
    for ((i, j), _), a in le.items():
        for ((l,), (s,)), b in ne.items():
            d = a.diff(l)
            if d:
                _acc(out, ((i, j), (s,)), -(b * d))       # - N^l_s d_l L^{ij}
    for ((i, l), _), a in le.items():
        for ((j,), (l2,)), b in ne.items():
            if l2 == l:
                for s in range(dim):
                    d = a.diff(s)
                    if d:
                        _acc(out, ((i, j), (s,)), b * d)  # N^j_l d_s L^{il}
    for ((l, j), _), a in le.items():
        for ((i,), (l2,)), b in ne.items():
            if l2 == l:
                for s in range(dim):
                    d = b.diff(s)
                    if d:
                        _acc(out, ((i, j), (s,)), -(a * d))  # - L^{lj} d_s N^i_l
    return TensorField(lam.chart, 2, 1, out)


def lie_bracket_by_loops(x, y):
    out: dict = {}
    for ((j,), _), xj in x.components.items():
        for ((k,), _), yk in y.components.items():
            d = yk.diff(j)
            if d:
                _acc(out, ((k,), ()), xj * d)
    for ((j,), _), yj in y.components.items():
        for ((k,), _), xk in x.components.items():
            d = xk.diff(j)
            if d:
                _acc(out, ((k,), ()), -(yj * d))
    return TensorField(x.chart, 1, 0, out)


def lie_derivative_by_loops(x, t):
    xc = {i: c for ((i,), _), c in x.components.items()}
    out: dict = {}
    for (up, down), coef in t.expand().items():
        for j, xj in xc.items():
            d = coef.diff(j)
            if d:
                _acc(out, (up, down), xj * d)
        for a, l in enumerate(up):
            for i, xi in xc.items():
                d = xi.diff(l)
                if d:
                    _acc(out, (up[:a] + (i,) + up[a + 1:], down), -(coef * d))
        for b, s in enumerate(down):
            xs = xc.get(s)
            if xs is not None:
                for j in xs.variables_used():
                    _acc(out, (up, down[:b] + (j,) + down[b + 1:]), coef * xs.diff(j))
    return _from_expanded(t.chart, t.q, t.p, out, t.contra_sym, t.cov_sym)


CHARTS = [make_chart(list("xyzw"[:dim]), [0] * dim) for dim in range(1, 5)]


@given(st.integers(0, 10 ** 9), st.sampled_from(CHARTS), st.booleans(),
       st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_one_pass_formulas_match_reference_loops(seed, chart, antisym, size):
    # untagged bivectors and (1,1) tensors repeat indices, as (x, x) or N^y_y
    rng = random.Random(seed)
    opts = dict(max_components=size, max_terms=3, max_degree=3)
    if antisym:
        lam = random_multivector(rng, chart, 2, **opts)
    else:
        lam = random_tensor(rng, chart, 2, 0, **opts)
    n = random_tensor(rng, chart, 1, 1, **opts)
    c = concomitant(lam, n)
    assert c == concomitant_by_terms(lam, n)
    assert all(coef for coef in c.components.values())
    x, y = (random_vector_field(rng, chart, **opts) for _ in range(2))
    assert lie_bracket(x, y) == lie_bracket_by_loops(x, y)
    assert lie_bracket(x, x).is_zero()


def test_concomitant_term_keys():
    # single-component operands on every index pair of N, so each term of
    # the formula is checked on its own key and guard, not only in sums
    x, y, z = (Poly.variable(E3, i) for i in range(3))
    for up, coef in [((0, 1), z), ((0, 2), y), ((1, 0), x), ((2, 2), x * y)]:
        lam = TensorField.from_components(E3, 2, 0, {(up, ()): coef})
        for i, s in itertools.product(range(3), repeat=2):
            for b in (x, y * z, Poly.const(E3, 1)):
                n = TensorField.from_components(E3, 1, 1, {((i,), (s,)): b})
                assert concomitant(lam, n) == concomitant_by_terms(lam, n)


@st.composite
def lie_derivative_inputs(draw):
    """X with 1-4 components and t with either block tagged none, sym or
    antisym, on dims 1-4; none and sym blocks repeat indices freely."""
    chart = draw(st.sampled_from(CHARTS))
    rng = random.Random(draw(st.integers(0, 10 ** 9)))

    def poly():
        return random_poly(rng, chart, max_terms=3, max_degree=3)

    slots = st.integers(0, chart.dim - 1)
    x_idx = draw(st.lists(slots, min_size=1, max_size=4, unique=True))
    x = TensorField.from_components(chart, 1, 0, {((i,), ()): poly() for i in x_idx})
    q, p = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    syms = st.sampled_from(("none", "sym", "antisym"))
    contra_sym, cov_sym = draw(syms), draw(syms)
    comps = {}
    for _ in range(draw(st.integers(1, 4))):
        up = canonical_key(tuple(draw(slots) for _ in range(q)), contra_sym)
        down = canonical_key(tuple(draw(slots) for _ in range(p)), cov_sym)
        if up is not None and down is not None:
            comps[(up, down)] = poly()
    return x, TensorField.from_components(chart, q, p, comps, contra_sym, cov_sym)


@given(lie_derivative_inputs())
@settings(max_examples=200, deadline=None)
def test_lie_derivative_matches_reference_loop(inputs):
    x, t = inputs
    assert_same_storage(lie_derivative(x, t), lie_derivative_by_loops(x, t))


# Every kernel in its own loop order, summing whole polynomials with Poly *,
# unary - and _acc, as each did before it summed term by term: the kernels
# must store their results exactly as these do.

def _acc_sorted_by_loops(out, up, idx, c, sign=1):
    # sign * c at (up, idx sorted), signed by the sorting permutation
    s, down = _sort_with_parity(idx)
    if s:
        _acc(out, (up, down), c if s * sign == 1 else -c)


def exterior_derivative_by_loops(w):
    out: dict = {}
    for (_, down), coef in w.components.items():
        for var in coef.variables_used():
            if var not in down:
                _acc_sorted_by_loops(out, (), (var,) + down, coef.diff(var))
    return TensorField(w.chart, 0, w.p + 1, out, cov_sym="antisym")


def lie_bracket_by_one_loop(x, y):
    out: dict = {}
    for ((j,), _), xj in x.components.items():
        for ((k,), _), yk in y.components.items():
            if j in yk.variables_used():
                _acc(out, ((k,), ()), xj * yk.diff(j))
            if k in xj.variables_used():
                _acc(out, ((j,), ()), -(yk * xj.diff(k)))
    return TensorField(x.chart, 1, 0, out)


def schouten_bracket_by_loops(a, b):
    k = a.q
    out: dict = {}
    for (ua, _), f in a.components.items():
        for (ub, _), g in b.components.items():
            for i, v in enumerate(ua):
                if v in g.variables_used():
                    _acc_sorted_by_loops(out, (), ua[:i] + ua[i + 1:] + ub,
                                         f * g.diff(v), (-1) ** (i + k - 1))
            for j, v in enumerate(ub):
                if v in f.variables_used():
                    _acc_sorted_by_loops(out, (), ua + ub[:j] + ub[j + 1:],
                                         g * f.diff(v), -(-1) ** j)
    return TensorField(a.chart, k + b.q - 1, 0, {(up, ()): c for (_, up), c in out.items()},
                       contra_sym="antisym")


def fn_bracket_by_loops(a, b):
    eps = (-1) ** a.p
    out: dict = {}
    for ((m,), da), f in a.components.items():
        for ((n,), db), g in b.components.items():
            if m in g.variables_used():
                _acc_sorted_by_loops(out, (n,), da + db, f * g.diff(m))
            if n in f.variables_used():
                _acc_sorted_by_loops(out, (m,), da + db, f.diff(n) * g, -1)
            if m in db:
                p = db.index(m)
                for s in f.variables_used():
                    _acc_sorted_by_loops(out, (n,), (s,) + da + db[:p] + db[p + 1:],
                                         f.diff(s) * g, eps * (-1) ** p)
            if n in da:
                p = da.index(n)
                for s in g.variables_used():
                    _acc_sorted_by_loops(out, (m,), da[:p] + da[p + 1:] + (s,) + db,
                                         f * g.diff(s), eps * (-1) ** p)
    return TensorField(a.chart, 1, a.p + b.p, out, cov_sym="antisym")


def nr_bracket_by_loops(a, b):
    out: dict = {}
    for ((m,), da), f in a.components.items():
        for ((n,), db), g in b.components.items():
            if m in db:
                p = db.index(m)
                _acc_sorted_by_loops(out, (n,), da + db[:p] + db[p + 1:], f * g, (-1) ** p)
            if n in da:
                p = da.index(n)
                _acc_sorted_by_loops(out, (m,), da[:p] + da[p + 1:] + db, f * g,
                                     (-1) ** (a.p + p))
    return TensorField(a.chart, 1, a.p + b.p - 1, out, cov_sym="antisym")


def concomitant_by_one_loop(lam, n):
    out: dict = {}
    for ((u, v), _), a in lam.expand().items():
        a_vars = a.variables_used()
        for ((i,), (s,)), b in n.components.items():
            b_vars = b.variables_used()
            if u in b_vars:
                _acc(out, ((i, v), (s,)), a * b.diff(u))
            if v in b_vars:
                _acc(out, ((u, i), (s,)), a * b.diff(v))
            if i in a_vars:
                _acc(out, ((u, v), (s,)), -(b * a.diff(i)))
            if s == v:
                for w in a_vars:
                    _acc(out, ((u, i), (w,)), b * a.diff(w))
            if s == u:
                for w in b_vars:
                    _acc(out, ((i, v), (w,)), -(a * b.diff(w)))
    return TensorField(lam.chart, 2, 1, out)


@given(st.integers(0, 10 ** 9), st.sampled_from(CHARTS))
@settings(max_examples=150, deadline=None)
def test_kernels_store_as_the_polynomial_loops_did(seed, chart):
    # true fractions and whole Fractions; [X, X], d(d w), [K, K] and the
    # other brackets of an operand with itself cancel terms and whole keys
    rng = random.Random(seed)
    dim = chart.dim

    def tensor(q, p, sym="none", size=3):
        return fraction_tensor(rng, chart, q, p, sym if q >= 2 else "none",
                               sym if p >= 2 else "none", size)

    x, y = tensor(1, 0), tensor(1, 0)
    a, b = (tensor(rng.randint(1, min(3, dim)), 0, "antisym") for _ in range(2))
    u, v = (tensor(1, rng.randint(0, min(2, dim)), "antisym") for _ in range(2))
    k = tensor(1, 1, size=4)
    lam = tensor(2, 0, rng.choice(("none", "antisym")))
    w = tensor(0, rng.randint(0, min(2, dim)), "antisym")
    t = tensor(rng.randint(0, 2), rng.randint(0, 2), rng.choice(("none", "sym", "antisym")))
    pairs = [(exterior_derivative, exterior_derivative_by_loops, (w,)),
             (exterior_derivative, exterior_derivative_by_loops, (exterior_derivative(w),)),
             (lie_bracket, lie_bracket_by_one_loop, (x, y)),
             (lie_bracket, lie_bracket_by_one_loop, (x, x)),
             (schouten_bracket, schouten_bracket_by_loops, (a, b)),
             (schouten_bracket, schouten_bracket_by_loops, (a, a)),
             (fn_bracket, fn_bracket_by_loops, (u, v)),
             (fn_bracket, fn_bracket_by_loops, (u, u)),
             (fn_bracket, fn_bracket_by_loops, (k, k)),
             (nr_bracket, nr_bracket_by_loops, (k, k)),
             (concomitant, concomitant_by_one_loop, (lam, k)),
             (lie_derivative, lie_derivative_by_loops, (x, t)),
             (lie_derivative, lie_derivative_by_loops, (x, k))]
    if u.p + v.p >= 1:
        pairs.append((nr_bracket, nr_bracket_by_loops, (u, v)))
    for kernel, by_loops, args in pairs:
        assert_same_storage(kernel(*args), by_loops(*args))
    assert lie_bracket(x, x).is_zero() and exterior_derivative(exterior_derivative(w)).is_zero()


def test_brackets_of_lifts_build_no_polynomial_on_the_way(monkeypatch):
    # fn_bracket and lie_derivative of lifted (1,1) tensors add each term
    # product straight into a term dict: no Poly arithmetic runs
    ctx = LiftContext(E2, 2)
    x, y = (Poly.variable(E2, i) for i in range(2))
    k = TensorField.from_components(E2, 1, 1, {((0,), (0,)): x * y - 1, ((0,), (1,)): y * y,
                                               ((1,), (0,)): x * Fraction(1, 2)})
    field = TensorField.from_components(E2, 1, 0, {((0,), ()): y, ((1,), ()): x * x})
    lk, lk2, lfield = lift_tensor(k, 1, ctx), lift_tensor(k, 2, ctx), lift_tensor(field, 1, ctx)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Poly, name, lambda *args, _name=name, _op=getattr(Poly, name):
                            calls.append(_name) or _op(*args))
    results = [fn_bracket(lk, lk2), fn_bracket(lk, lk), lie_derivative(lfield, lk),
               lie_derivative(lfield, lk2)]
    monkeypatch.undo()
    assert calls == []
    assert all(results)
    assert results[0] == lift_tensor(fn_bracket(k, k), 1, ctx)
    assert results[2] == lift_tensor(lie_derivative(field, k), 0, ctx)


@contextlib.contextmanager
def zero_derivatives():
    """Record every Poly.diff call that returns zero while the block runs."""
    zeros = []
    diff = Poly.diff

    def recording(self, var):
        d = diff(self, var)
        if not d:
            zeros.append((self, var))
        return d

    Poly.diff = recording
    try:
        yield zeros
    finally:
        Poly.diff = diff


@given(st.integers(0, 10 ** 9), st.sampled_from(CHARTS), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_kernels_take_no_zero_derivative(seed, chart, size):
    # every kernel differentiates a factor only in a variable it uses
    rng = random.Random(seed)
    opts = dict(max_components=size, max_terms=3, max_degree=3)
    x, y = (random_vector_field(rng, chart, **opts) for _ in range(2))
    a, b = (random_multivector(rng, chart, rng.randint(1, min(2, chart.dim)), **opts)
            for _ in range(2))
    u, v = (random_vv_form(rng, chart, rng.randint(0, min(2, chart.dim)), **opts)
            for _ in range(2))
    lam = (random_multivector(rng, chart, 2, **opts) if rng.random() < 0.5
           else random_tensor(rng, chart, 2, 0, **opts))
    n = random_tensor(rng, chart, 1, 1, **opts)
    t = random_tensor(rng, chart, rng.randint(0, 2), rng.randint(0, 2), **opts)
    w = random_form(rng, chart, rng.randint(0, min(2, chart.dim)), **opts)
    for kernel, args in [(lie_bracket, (x, y)), (lie_derivative, (x, t)),
                         (lie_derivative, (x, u)), (schouten_bracket, (a, b)),
                         (fn_bracket, (u, v)), (concomitant, (lam, n)),
                         (exterior_derivative, (w,))]:
        with zero_derivatives() as zeros:
            kernel(*args)
        assert zeros == [], kernel.__name__


# Each valence check of the kernels, called with an argument it refuses:
# (call, message of its ValenceError).
_DX, _FX = coordinate_vector_field(E2, "x"), coordinate_one_form(E2, "x")
VALENCE_REFUSALS = {
    "schouten-of-a-form": (lambda: schouten_bracket(_FX, _DX),
                           "expected a multivector field (purely contravariant)"),
    "schouten-untagged": (lambda: schouten_bracket(TensorField(E2, 2, 0, {}), _DX),
                          "multivectors of degree >= 2 must be antisym-tagged"),
    "fn-of-a-form": (lambda: fn_bracket(_FX, _DX),
                     "expected a vector-valued form (one contravariant slot)"),
    "nr-untagged": (lambda: nr_bracket(TensorField(E2, 1, 2, {}), _DX),
                    "vector-valued forms of degree >= 2 must be antisym-tagged"),
    "liederiv-along-a-form": (lambda: lie_derivative(_FX, _DX),
                              "first argument must be a vector field"),
}


@pytest.mark.parametrize("call,message", VALENCE_REFUSALS.values(), ids=VALENCE_REFUSALS)
def test_kernels_refuse_a_bad_valence(call, message):
    with pytest.raises(ValenceError, match=f"^{re.escape(message)}$"):
        call()
