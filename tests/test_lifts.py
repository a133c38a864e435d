"""Prolongation lifts of functions, tensors, distributions, connections."""

import random
import re
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gradcalc import lifts
from gradcalc.calculus import lie_bracket, lie_derivative, nijenhuis_torsion, vf_apply
from gradcalc.charts import (Chart, cotangent_chart, make_chart,
                             phase_shifted_cotangent_chart, tangent_chart)
from gradcalc.checkers import Distribution, is_weighted_nijenhuis, is_weighted_poisson
from gradcalc.errors import ChartMismatchError, GradcalcError, ValenceError
from gradcalc.lifts import (
    LiftContext,
    LinearConnection,
    covariant_derivative,
    horizontal_fields,
    lift_distribution,
    lift_function,
    lift_function_jets,
    lift_linear_connection,
    lift_tensor,
    tangent_connection,
)
from gradcalc.oracle import taylor_lift_oracle
from gradcalc.poly import Poly, degree_matches, homogeneous_components, mono_mul
from gradcalc.render import render_tensor
from gradcalc.sampling import (random_form, random_multivector, random_poly,
                               random_tensor, random_vector_field, random_vv_form)
from gradcalc.tensor import (
    TensorField,
    coordinate_one_form,
    coordinate_vector_field,
    degree_of_tensor,
    scalar_field,
    tagged,
    tensor_product,
    vector_field,
    wedge,
    weight_vector_field,
)
from test_tensor import assert_canonical, assert_same_storage, fraction_poly, fraction_tensor, sym_power_sum

E1 = make_chart(["x"], [0])
E2 = make_chart(["x", "y"], [0, 0])


def names_of(conn):
    chart = conn.chart
    return {(chart.names[k], chart.names[a], chart.names[b])
            for (k, a, b) in conn.gamma}


def test_context_basics():
    ctx = LiftContext(E2, 2)
    assert ctx.total.names == ("x", "y", "x_1", "y_1", "x_2", "y_2")
    assert ctx.var(1, 2) == 5
    with pytest.raises(GradcalcError):
        ctx.var(0, 3)
    # a base index outside the chart would alias another variable or level
    for i, mu in ((2, 0), (-1, 1), (5, 2)):
        with pytest.raises(GradcalcError, match=f"base variable index {i} outside 0..1$"):
            ctx.var(i, mu)
    for i, mu in ((0, True), (True, 0), (1.0, 0), (0, 1.0), ("0", 0)):
        with pytest.raises(GradcalcError, match="must be an integer"):
            ctx.var(i, mu)
    with pytest.raises(GradcalcError):
        LiftContext(E2, -1)
    # no chart variable name is reserved
    assert LiftContext(make_chart(["_t"], [0]), 1).total.names == ("_t", "_t_1")


def test_lift_function_frozen():
    ctx = LiftContext(E1, 2)
    x, x1, x2 = (Poly.variable(ctx.total, i) for i in range(3))
    f = Poly.variable(E1, 0) ** 2
    jets = lift_function_jets(f, ctx)
    assert jets[0] == x * x
    assert jets[1] == x * x1 * 2
    assert jets[2] == x1 * x1 + x * x2 * 2
    assert lift_function(f, 1, ctx) == jets[1]
    assert not lift_function(f, 3, ctx)
    assert not lift_function(f, -1, ctx)
    for lam in (-1, 0, 3):
        # the chart is checked before the level range
        with pytest.raises(ChartMismatchError):
            lift_function(Poly.variable(E2, 0), lam, ctx)
    with pytest.raises(ChartMismatchError, match="^function does not live on the context's"):
        lift_function_jets(Poly.variable(E2, 0), ctx)


def test_order_zero_lift_is_identity():
    ctx = LiftContext(E2, 0)
    rng = random.Random(0)
    for _ in range(10):
        f = random_poly(rng, E2, max_terms=3, max_degree=3)
        assert lift_function(f, 0, ctx) == f.reindex(ctx.total)


def test_lift_product_convolution():
    rng = random.Random(1)
    for r in (1, 2):
        ctx = LiftContext(E2, r)
        for _ in range(10):
            f = random_poly(rng, E2, max_terms=2, max_degree=2)
            g = random_poly(rng, E2, max_terms=2, max_degree=2)
            fj = lift_function_jets(f, ctx)
            gj = lift_function_jets(g, ctx)
            for lam in range(r + 1):
                conv = Poly.zero(ctx.total)
                for mu in range(lam + 1):
                    conv = conv + fj[mu] * gj[lam - mu]
                assert lift_function(f * g, lam, ctx) == conv


def test_basis_rules():
    for r in (1, 2, 3):
        ctx = LiftContext(E2, r)
        for i in range(2):
            for lam in range(r + 1):
                assert lift_tensor(coordinate_one_form(E2, i), lam, ctx) == \
                    coordinate_one_form(ctx.total, ctx.var(i, lam))
                assert lift_tensor(coordinate_vector_field(E2, i), lam, ctx) == \
                    coordinate_vector_field(ctx.total, ctx.var(i, r - lam))


def test_lift_displays_frozen():
    ctx = LiftContext(E2, 1)
    x = Poly.variable(E2, 0)
    vf = coordinate_vector_field(E2, "y") * x
    assert render_tensor(lift_tensor(vf, 1, ctx)) == "x*d/dy + x_1*d/dy_1"
    assert render_tensor(lift_tensor(vf, 0, ctx)) == "x*d/dy_1"
    a = coordinate_one_form(E2, "y") * x
    assert render_tensor(lift_tensor(a, 1, ctx)) == "x_1*dy + x*dy_1"
    assert render_tensor(lift_tensor(a, 0, ctx)) == "x*dy"


def test_lift_tensor_range_and_tags():
    rng = random.Random(2)
    ctx = LiftContext(E2, 1)
    w = random_form(rng, E2, 2, max_terms=1, max_degree=1)
    lifted = lift_tensor(w, 1, ctx)
    assert lifted.cov_sym == "antisym"
    gone = lift_tensor(w, 5, ctx)
    assert gone.is_zero() and gone.chart is ctx.total and gone.cov_sym == "antisym"
    with pytest.raises(ChartMismatchError):
        lift_tensor(coordinate_vector_field(E1, 0), 0, ctx)


def test_lift_bracket_shift_spot():
    # the bracket of lifts sits at the level shifted down by r
    rng = random.Random(3)
    ctx = LiftContext(E2, 2)
    x = random_vector_field(rng, E2, max_terms=2, max_degree=2)
    y = random_vector_field(rng, E2, max_terms=2, max_degree=2)
    for lam in range(3):
        for mu in range(3):
            lhs = lie_bracket(lift_tensor(x, lam, ctx),
                              lift_tensor(y, mu, ctx))
            assert lhs == lift_tensor(lie_bracket(x, y), lam + mu - 2, ctx)


def test_weight_field_lift():
    # the prolonged chart gives every level the base weight, so the top lift
    # of the base weight field is the total chart's weight field, also with
    # two gradings and a negative weight
    for b in (make_chart(["x", "y"], [1, 2]),
              make_chart(["x", "y", "z"], [(1, 0), (-2, 1), (0, 3)])):
        ctx = LiftContext(b, 2)
        for c in range(b.grading_count):
            assert lift_tensor(weight_vector_field(b, c), 2, ctx) == \
                weight_vector_field(ctx.total, c)


def test_lift_distribution():
    x = Poly.variable(E2, 0)
    d = Distribution(E2, (coordinate_vector_field(E2, "x"),
                          coordinate_vector_field(E2, "y") * x))
    ctx = LiftContext(E2, 1)
    dl = lift_distribution(d, ctx)
    assert dl.chart is ctx.total
    assert len(dl.generators) == 4
    assert dl.generators[0] == lift_tensor(d.generators[0], 0, ctx)
    assert dl.generators[3] == lift_tensor(d.generators[1], 1, ctx)
    other = LiftContext(E1, 1)
    with pytest.raises(ChartMismatchError):
        lift_distribution(d, other)


def test_tangent_connection_structure():
    conn = tangent_connection(E2, {(0, 1, 0): 1})
    assert conn.chart.names == ("x", "y", "x_dot", "y_dot")
    assert conn.base == (0, 1)
    assert conn.fibre == (2, 3)
    assert names_of(conn) == {("x", "y_dot", "x_dot")}
    with pytest.raises(GradcalcError):
        LinearConnection(conn.chart, conn.vb_component, {(2, 3, 2): 1})
    xdot = Poly.variable(conn.chart, 2)
    with pytest.raises(GradcalcError):
        LinearConnection(conn.chart, conn.vb_component, {(0, 3, 2): xdot})


TANGENT_E2 = tangent_chart(E2)


@pytest.mark.parametrize("make, index, message", [
    # a negative index would alias another variable, a large one raises
    # IndexError, and a bool would pass as 0 or 1
    (tangent_connection, (-1, 0, 0), "Christoffel index -1 outside 0..1"),
    (tangent_connection, (5, 0, 0), "Christoffel index 5 outside 0..1"),
    (tangent_connection, (0, 2, 0), "Christoffel index 2 outside 0..1"),
    (tangent_connection, (0, 0, True), "Christoffel index must be an integer, not True"),
    (tangent_connection, (0, 1.0, 0), "Christoffel index must be an integer, not 1.0"),
    (LinearConnection, (-1, 2, 2), "Christoffel index -1 outside 0..3"),
    (LinearConnection, (0, 4, 2), "Christoffel index 4 outside 0..3"),
    (LinearConnection, (0, 2, True), "Christoffel index must be an integer, not True"),
    (LinearConnection, ("x", 2, 2), "Christoffel index must be an integer, not 'x'"),
])
def test_connections_reject_a_bad_index(make, index, message):
    with pytest.raises(GradcalcError, match=f"^{re.escape(message)}$"):
        if make is tangent_connection:
            tangent_connection(E2, {index: 1})
        else:
            LinearConnection(TANGENT_E2, E2.grading_count, {index: 1})


def test_covariant_derivative():
    conn = tangent_connection(E2, {(0, 1, 0): 1})
    dx = coordinate_vector_field(E2, "x")
    dy = coordinate_vector_field(E2, "y")
    assert covariant_derivative(conn, dx, dx) == dy
    assert covariant_derivative(conn, dy, dx).is_zero()
    rng = random.Random(4)
    for _ in range(8):
        f = random_poly(rng, E2, max_terms=2, max_degree=2)
        x = random_vector_field(rng, E2, max_terms=2, max_degree=2)
        y = random_vector_field(rng, E2, max_terms=2, max_degree=2)
        assert covariant_derivative(conn, x * f, y) == covariant_derivative(conn, x, y) * f
        assert covariant_derivative(conn, x, y * f) == \
            y * vf_apply(x, f) + covariant_derivative(conn, x, y) * f
    stray = vector_field(conn.chart, {"x_dot": 1})
    with pytest.raises(GradcalcError):
        covariant_derivative(conn, stray, stray)


# Each argument check of connections and covariant derivatives that no
# other test reaches: (call, error, message).  The chart _E2U carries a
# rank-one bundle over a two-dimensional base, so it is not a tangent bundle.
_E2U = make_chart(["x", "y", "u"], [(0, 0), (0, 0), (0, 1)])
_DX = coordinate_vector_field(E2, "x")
CONNECTION_REFUSALS = {
    "fibre-index-in-the-base": (
        lambda: LinearConnection(TANGENT_E2, E2.grading_count, {(0, 0, 2): 1}),
        GradcalcError, "Christoffel fibre index is not a fibre variable"),
    "covd-not-tangent": (
        lambda: covariant_derivative(LinearConnection(_E2U, 1, {}), _DX, _DX),
        GradcalcError, "connection bundle is not a tangent bundle"),
    "covd-of-a-form": (
        lambda: covariant_derivative(tangent_connection(E2, {}), _DX,
                                     coordinate_one_form(E2, "x")),
        ValenceError, "covariant_derivative needs two vector fields"),
}


@pytest.mark.parametrize("call,error,message", CONNECTION_REFUSALS.values(),
                         ids=CONNECTION_REFUSALS)
def test_connections_refuse_bad_arguments(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_horizontal_fields():
    conn = tangent_connection(E2, {(0, 1, 0): 1})
    h = horizontal_fields(conn)
    assert len(h) == 2
    chart = conn.chart
    xdot = Poly.variable(chart, 2)
    assert h[0] == (coordinate_vector_field(chart, "x")
                    - coordinate_vector_field(chart, "y_dot") * xdot)
    assert h[1] == coordinate_vector_field(chart, "y")


def test_lift_linear_connection_frozen():
    conn = tangent_connection(E2, {(0, 1, 0): 1})
    ctx = LiftContext(conn.chart, 1)
    lifted = lift_linear_connection(conn, ctx)
    assert names_of(lifted) == {
        ("x", "y_dot", "x_dot"),
        ("x", "y_dot_1", "x_dot_1"),
        ("x_1", "y_dot_1", "x_dot"),
    }
    assert all(g == Poly.const(ctx.total, 1) for g in lifted.gamma.values())
    with pytest.raises(ChartMismatchError):
        lift_linear_connection(conn, LiftContext(E2, 1))


def test_lifted_connection_commutation_spot():
    # fields lift over the base chart, the connection over its tangent chart
    conn = tangent_connection(E2, {(0, 1, 0): Poly.variable(E2, 1)})
    ctx_vb = LiftContext(conn.chart, 1)
    ctx = LiftContext(E2, 1)
    lifted = lift_linear_connection(conn, ctx_vb)
    rng = random.Random(5)
    opts = dict(max_components=2, max_terms=2, max_degree=2)
    for _ in range(5):
        x = random_vector_field(rng, E2, **opts)
        y = random_vector_field(rng, E2, **opts)
        nab = covariant_derivative(conn, x, y)
        for lam in (0, 1):
            for mu in (0, 1):
                got = covariant_derivative(lifted,
                                           lift_tensor(x, lam, ctx),
                                           lift_tensor(y, mu, ctx))
                assert got == lift_tensor(nab, lam + mu - 1, ctx)


# -- the truncated-jet kernel against the Taylor oracle ------------------------

CHARTS = {n: make_chart(["x", "y", "z"][:n], [0] * n) for n in (1, 2, 3)}


@st.composite
def base_polys(draw):
    """A polynomial of total degree <= 6 with exponents up to 5."""
    dim = draw(st.integers(1, 3))
    chart = CHARTS[dim]
    exps = st.lists(st.integers(0, 5), min_size=dim, max_size=dim).filter(
        lambda es: sum(es) <= 6)
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    entries = draw(st.lists(st.tuples(exps, coefs), max_size=3))
    return Poly.from_terms(chart, [
        (tuple((v, e) for v, e in enumerate(es) if e), c) for es, c in entries])


@settings(max_examples=40, deadline=None)
@given(base_polys(), st.integers(0, 4))
def test_jets_match_taylor_oracle(f, r):
    ctx = LiftContext(f.chart, r)
    jets = lift_function_jets(f, ctx)
    assert len(jets) == r + 1
    for lam in range(r + 1):
        assert jets[lam] == taylor_lift_oracle(f, lam, ctx)


@st.composite
def connections(draw):
    """An affine connection of dim 1-3 with 1-3 nonzero symbols of degree <= 3."""
    dim = draw(st.integers(1, 3))
    chart = CHARTS[dim]
    index = st.integers(0, dim - 1)
    exps = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).filter(
        lambda es: sum(es) <= 3)
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    symbol = st.lists(st.tuples(exps, coefs), min_size=1, max_size=2).map(
        lambda entries: Poly.from_terms(chart, [
            (tuple((v, e) for v, e in enumerate(es) if e), c) for es, c in entries]))
    return tangent_connection(chart, draw(st.dictionaries(
        st.tuples(index, index, index), symbol.filter(bool), min_size=1, max_size=3)))


@settings(max_examples=30, deadline=None)
@given(connections(), st.integers(0, 4))
def test_connection_lift_matches_taylor_oracle(conn, r):
    # the symbol at base level lev_k, fibre levels rho (target) and lev_b
    # (source) is the e-lift of the base symbol, e = rho - lev_k - lev_b
    ctx = LiftContext(conn.chart, r)
    lifted = lift_linear_connection(conn, ctx)
    assert (lifted.chart, lifted.vb_component) == (ctx.total, conn.vb_component)
    want = {}
    for (k, a, b), g in conn.gamma.items():
        jets = [taylor_lift_oracle(g, e, ctx) for e in range(r + 1)]
        for lev_k, lev_b, rho in product(range(r + 1), repeat=3):
            e = rho - lev_k - lev_b
            if 0 <= e <= r and jets[e]:
                key = (ctx.var(k, lev_k), ctx.var(a, rho), ctx.var(b, lev_b))
                assert key not in want
                want[key] = jets[e]
    assert lifted.gamma == want


def oracle_lift_table(t, lam, ctx):
    """Expanded lambda-lift of t rebuilt from oracle-lifted coefficients."""
    r = ctx.r
    out = {}
    for (up, down), coef in t.expand().items():
        coef_lifts = [taylor_lift_oracle(coef, mu0, ctx) for mu0 in range(lam + 1)]
        for assign in product(range(r + 1), repeat=len(up) + len(down)):
            mu0 = lam - sum(assign)
            if not 0 <= mu0 <= r:
                continue
            nup = tuple(ctx.var(i, r - v) for i, v in zip(up, assign))
            ndown = tuple(ctx.var(j, k) for j, k in zip(down, assign[len(up):]))
            key = (nup, ndown)
            out[key] = out.get(key, Poly.zero(ctx.total)) + coef_lifts[mu0]
    return {k: v for k, v in out.items() if v}


def random_tensor_of_kind(rng, chart, kind):
    opts = dict(max_terms=2, max_degree=3)
    small = dict(max_terms=1, max_degree=1)    # for kinds with many expanded keys
    if kind == "form":
        return random_form(rng, chart, 2, **opts)
    if kind == "multivector":
        return random_multivector(rng, chart, 2, **opts)
    if kind == "vv_form":
        return random_vv_form(rng, chart, 2, **opts)
    if kind == "sym":
        # a sym block with repeated base indices, alone or beside an antisym block
        t = sym_power_sum(rng, chart, rng.randint(2, 3), rng.random() < 0.5, **small)
        if t.q == 2 and rng.random() < 0.5:
            t = tensor_product(t, random_form(rng, chart, 2, **small))
        return t
    if kind == "antisym_both":
        return (tensor_product(random_multivector(rng, chart, 2, **small),
                               random_form(rng, chart, 2, **small))
                + tensor_product(random_multivector(rng, chart, 2, **small),
                                 random_form(rng, chart, 2, **small)))
    if kind == "degree3":
        if rng.random() < 0.5:
            return random_form(rng, chart, 3, max_components=3, **opts)
        return random_multivector(rng, chart, 3, max_components=3, **opts)
    return random_tensor(rng, chart, rng.randint(0, 2), rng.randint(0, 2), **opts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 3), st.integers(0, 3),
       st.sampled_from(["form", "multivector", "vv_form", "plain",
                        "sym", "antisym_both", "degree3"]))
@example(seed=1, dim=2, r=2, kind="sym")
@example(seed=2, dim=3, r=2, kind="sym")
@example(seed=3, dim=3, r=2, kind="antisym_both")
@example(seed=4, dim=3, r=2, kind="degree3")
def test_lift_tensor_matches_oracle_table(seed, dim, r, kind):
    chart = CHARTS[dim]
    t = random_tensor_of_kind(random.Random(seed), chart, kind)
    ctx = LiftContext(chart, r)
    for lam in range(r + 1):
        lifted = lift_tensor(t, lam, ctx)
        assert (lifted.contra_sym, lifted.cov_sym) == (t.contra_sym, t.cov_sym)
        assert_canonical(lifted)
        assert lifted.expand() == oracle_lift_table(t, lam, ctx)


@pytest.mark.parametrize("contra", [False, True])
def test_sym_lift_counts_the_diagonal_once(contra):
    # (dx ox dx)^(1) = dx_0 ox dx_1 + dx_1 ox dx_0 at r = 1: one stored key,
    # coefficient 1, though both level orders of (x, x) sort to it
    basis = coordinate_vector_field if contra else coordinate_one_form
    v = basis(E1, "x")
    sq = tensor_product(v, v)
    sq = tagged(sq, contra_sym="sym") if contra else tagged(sq, cov_sym="sym")
    ctx = LiftContext(E1, 1)
    key = ((0, 1), ()) if contra else ((), (0, 1))
    assert lift_tensor(sq, 1, ctx).components == {key: Poly.const(ctx.total, 1)}


def lift_table(t):
    # chart-free view, so lifts on distinct contexts compare
    return {k: p.terms for k, p in t.expand().items()}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 3))
def test_tensor_jet_reuse_never_goes_stale(seed, r):
    rng = random.Random(seed)
    t1 = random_tensor_of_kind(rng, E2, "plain")
    t2 = random_tensor_of_kind(rng, E2, "form")
    ctx = LiftContext(E2, r)
    for t in (t1, t2, t1):
        for lam in range(r + 1):
            fresh = lift_tensor(t, lam, LiftContext(E2, r))
            assert lift_table(lift_tensor(t, lam, ctx)) == lift_table(fresh)


TAGS = ("none", "sym", "antisym")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 3), st.integers(1, 3),
       st.sampled_from([(2, 0), (0, 2), (2, 1), (1, 2), (2, 2), (3, 0)]), st.data())
def test_index_cache_never_leaks_between_tensors(seed, dim, r, valence, data):
    # tensors on one context share stored keys, among them sym keys with a
    # repeated index, but differ in tags: the lifted keys of a pattern must
    # depend on its tags and its level sum, whatever order lambda comes in
    rng = random.Random(seed)
    chart = CHARTS[dim]
    q, p = valence
    ups = list(combinations_with_replacement(range(dim), q))
    downs = list(combinations_with_replacement(range(dim), p))
    keys = rng.sample(list(product(ups, downs)), min(4, len(ups) * len(downs)))
    coefs = {key: random_poly(rng, chart, max_terms=2, max_degree=2) for key in keys}

    def repeats(block):
        return len(set(block)) < len(block)

    tensors = []
    for csym, dsym in data.draw(st.lists(st.tuples(st.sampled_from(TAGS), st.sampled_from(TAGS)),
                                         min_size=2, max_size=4)):
        entries = {(up, down): c for (up, down), c in coefs.items()
                   if not (csym == "antisym" and q >= 2 and repeats(up))
                   and not (dsym == "antisym" and p >= 2 and repeats(down))}
        tensors.append(TensorField.from_components(chart, q, p, entries, csym, dsym))
    steps = data.draw(st.lists(st.tuples(st.integers(0, len(tensors) - 1), st.integers(0, r)),
                               min_size=1, max_size=12))
    ctx = LiftContext(chart, r)
    for i, lam in steps:
        t = tensors[i]
        lifted = lift_tensor(t, lam, ctx)
        fresh = lift_tensor(t, lam, LiftContext(chart, r))
        assert_canonical(lifted)
        assert (lifted.contra_sym, lifted.cov_sym) == (fresh.contra_sym, fresh.cov_sym)
        assert ({k: c.terms for k, c in lifted.components.items()}
                == {k: c.terms for k, c in fresh.components.items()})


def filtered_rows(ctx, block, sym, contra):
    """A block's lifted keys by level sum, from the filtered full product."""
    r = ctx.r
    rows = [[] for _ in range(len(block) * r + 1)]
    for levels in product(range(r + 1), repeat=len(block)):
        mus = [r - v for v in levels] if contra else levels
        sign, key = lifts._lifted_block(tuple(ctx.var(i, mu) for i, mu in zip(block, mus)),
                                        block, sym)
        if sign:
            rows[sum(levels)].append((key, sign))
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(TAGS), st.sampled_from(TAGS), st.integers(0, 10 ** 9))
def test_block_tables_partition_every_lift(r, q, p, csym, dsym, seed):
    # each block table is the filtered product grouped by sum, and the
    # stored keys' up rows times down rows write every lifted key once
    rng = random.Random(seed)
    chart = CHARTS[3]

    def block(length, sym):
        if sym == "antisym":
            return tuple(sorted(rng.sample(range(3), length)))
        idx = tuple(rng.randrange(3) for _ in range(length))
        return tuple(sorted(idx)) if sym == "sym" else idx

    entries = {(block(q, csym), block(p, dsym)): random_poly(rng, chart, max_terms=2, max_degree=2)
               for _ in range(3)}
    t = TensorField.from_components(chart, q, p, entries, csym, dsym)
    ctx = LiftContext(chart, r)
    rows = {}
    for up, down in t.components:
        for blk, sym, contra in ((up, t.contra_sym, True), (down, t.cov_sym, False)):
            want = rows[(blk, contra)] = filtered_rows(ctx, blk, sym, contra)
            assert [list(row) for row in ctx._block_table(blk, sym, contra)] == want
    for lam in range(r + 1):
        writes = []
        for (up, down), coef in t.components.items():
            jets = lift_function_jets(coef, ctx)
            for a, ups in enumerate(rows[(up, True)]):
                for b, downs in enumerate(rows[(down, False)]):
                    if 0 <= lam - a - b <= r and jets[lam - a - b]:
                        writes += [((nup, ndown), jets[lam - a - b] * (su * sd))
                                   for nup, su in ups for ndown, sd in downs]
        assert len({key for key, _ in writes}) == len(writes)
        assert lift_tensor(t, lam, ctx).components == dict(writes)


def test_block_tables_are_shared_between_tensors(monkeypatch):
    # (d/dx ^ d/dy) ox dx and (d/dx ^ d/dy) ox dy share their up block
    calls = []
    lifted_block = lifts._lifted_block
    monkeypatch.setattr(lifts, "_lifted_block",
                        lambda key, base, sym: calls.append(base) or lifted_block(key, base, sym))
    r = 2
    ctx = LiftContext(E2, r)
    one = Poly.const(E2, 1)
    t1, t2 = (TensorField.from_components(E2, 2, 1, {((0, 1), (j,)): one}, "antisym")
              for j in (0, 1))
    for t in (t1, t2):
        for lam in range(r + 1):
            lift_tensor(t, lam, ctx)
    assert calls.count((0, 1)) == (r + 1) ** 2
    assert calls.count((0,)) == calls.count((1,)) == r + 1
    calls.clear()
    for t in (t1, t2, t1):
        for lam in range(r + 1):
            lift_tensor(t, lam, ctx)
    assert calls == []


# -- the per-context monomial-jet cache ------------------------------------------

def jet_terms(jets):
    # chart-free view, so jets on distinct contexts compare
    return [p.terms for p in jets]


def test_monomial_jet_cache_holds_no_coefficient():
    chart = CHARTS[3]
    mono = ((0, 2), (1, 1))
    ctx = LiftContext(chart, 3)
    for coef in (1, -3, Fraction(5, 7)):
        f = Poly.from_terms(chart, [(mono, coef)])
        jets = lift_function_jets(f, ctx)
        assert jet_terms(jets) == jet_terms(lift_function_jets(f, LiftContext(chart, 3)))
        for lam in range(4):
            assert jets[lam] == taylor_lift_oracle(f, lam, ctx)


def test_monomials_sharing_factors_lift_on_one_context():
    # powers and products met in any order: the cache tells x^3 from x and x*y from x*z
    chart = CHARTS[3]
    ctx = LiftContext(chart, 2)
    monos = [((0, 3),), ((0, 1),), ((0, 2), (1, 1)), ((0, 2),), ((0, 2), (1, 2)),
             ((1, 2),), ((0, 1), (1, 1), (2, 1)), ((0, 1), (2, 1)), ((0, 1), (1, 1)),
             ((2, 4),), ()]
    for mono in monos:
        f = Poly.from_terms(chart, [(mono, 2), (((1, 1),), -1)])
        for lam in range(3):
            assert lift_function(f, lam, ctx) == taylor_lift_oracle(f, lam, ctx)


def test_seen_monomial_lifts_without_jet_products():
    chart = CHARTS[3]
    ctx = LiftContext(chart, 3)
    x2y = ((0, 2), (1, 1))
    lift_function_jets(Poly.from_terms(chart, [(x2y, 1)]), ctx)
    # x^2 and y were cached on the way to x^2 * y
    cached = dict(ctx._jets)
    assert set(cached) == {(), x2y, ((0, 2),), ((1, 1),)}
    lift_function_jets(Poly.from_terms(chart, [(x2y, Fraction(-5, 2))]), ctx)
    lift_function_jets(Poly.from_terms(chart, [(((0, 2),), 3), (((1, 1),), 1), ((), 4)]), ctx)
    for mono, jet in cached.items():
        assert ctx._monomial_jet(mono) is jet
    assert ctx._jets == cached


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_product_of_many_variables_lifts_without_recursing_per_variable():
    # x0*x1*...*x199 combines its factors' jets in a loop: 50 frames above
    # this one are ample, where a call per variable would need 200
    n = 200
    chart = make_chart([f"x{i}" for i in range(n)], [0] * n)
    f = Poly.from_terms(chart, [(tuple((i, 1) for i in range(n)), 1)])
    ctx = LiftContext(chart, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        jets = lift_function_jets(f, ctx)
    finally:
        sys.setrecursionlimit(limit)
    assert [len(p.terms) for p in jets] == lift_terms(scalar_field(chart, f), 1) == [1, n]
    # the product and its n factors are cached, no prefix of it
    assert len(ctx._jets) == n + 2
    # level 1 replaces one x_i by its level-1 variable n + i
    assert jets[1].terms == {tuple(sorted((j + n * (j == i), 1) for j in range(n))): 1
                             for i in range(n)}


def test_power_jet_of_a_huge_exponent():
    chart = CHARTS[1]
    e = 10 ** 6
    jets = lift_function_jets(Poly.from_terms(chart, [(((0, e),), 1)]), LiftContext(chart, 1))
    x0, x1 = (Poly.variable(jets[0].chart, i) for i in range(2))
    assert jets == [x0 ** e, x0 ** (e - 1) * x1 * e]


def test_unit_jet_terms_cost_no_fraction_product(monkeypatch):
    # every term of the jet of x*y*z has coefficient 1: the lift stores 5/7
    chart = CHARTS[3]
    f = Poly.from_terms(chart, [(((0, 1), (1, 1), (2, 1)), Fraction(5, 7))])
    ctx = LiftContext(chart, 3)
    calls = []
    for name in ("__mul__", "__rmul__"):
        def counted(a, b, mul=getattr(Fraction, name)):
            calls.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    jets = lift_function_jets(f, ctx)
    monkeypatch.undo()
    assert calls == []
    for lam in range(4):
        assert jets[lam] == taylor_lift_oracle(f, lam, ctx)


def test_jet_products_are_one_per_distinct_multinomial(monkeypatch):
    # the jets of x^3 at r = 4 have 11 terms with multinomials 1, 3 and 6; an
    # antisym form also needs the jets of the negated coefficient
    chart = E2
    x = Poly.variable(chart, 0)
    form = wedge(coordinate_one_form(chart, 0), coordinate_one_form(chart, 1)) * (x ** 3 * Fraction(5, 7))
    ctx = LiftContext(chart, 4)
    assert sorted({c for p in ctx._monomial_jet(((0, 3),)).values() for c in p.values()}) == [1, 3, 6]
    calls = []
    for name in ("__mul__", "__rmul__", "__neg__"):
        def counted(*args, op=getattr(Fraction, name)):
            calls.append(args)
            return op(*args)

        monkeypatch.setattr(Fraction, name, counted)
    lifted = [lift_tensor(form, lam, ctx) for lam in range(5)]
    monkeypatch.undo()
    # at most two calls per distinct multinomial; a product per non-unit jet
    # term and a negation per jet term make 9 + 11
    assert len(calls) <= 2 * 3
    for lam, t in enumerate(lifted):
        assert t.expand() == oracle_lift_table(form, lam, ctx)


def jets_by_loop(f, ctx):
    # one product per non-unit jet term, as the kernel formed them before
    # its per-term memo of products
    levels = [{} for _ in range(ctx.r + 1)]
    for mono, coef in f.terms.items():
        for k, p in ctx._monomial_jet(mono).items():
            for m, c in p.items():
                levels[k][m] = coef if c == 1 else coef * c
    return [Poly(ctx.total, terms) for terms in levels]


def lift_tensor_by_loop(t, lam, ctx):
    # lift_tensor with jets_by_loop and negatives taken by Poly.__neg__
    out = {}
    for (up, down), coef in t.components.items() if 0 <= lam <= ctx.r else ():
        jets = jets_by_loop(coef, ctx)
        ups = ctx._block_table(up, t.contra_sym, True)
        downs = ctx._block_table(down, t.cov_sym, False)
        for a, up_row in enumerate(ups):
            for b, down_row in enumerate(downs):
                e = lam - a - b
                if 0 <= e <= ctx.r and jets[e]:
                    for nup, su in up_row:
                        for ndown, sd in down_row:
                            out[(nup, ndown)] = jets[e] if su == sd else -jets[e]
    return TensorField(ctx.total, t.q, t.p, out, t.contra_sym, t.cov_sym)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 2), st.integers(0, 2), st.sampled_from(TAGS), st.sampled_from(TAGS))
def test_lifts_store_as_the_per_term_loop_did(seed, dim, r, q, p, csym, dsym):
    rng = random.Random(seed)
    chart = CHARTS[dim]
    t = fraction_tensor(rng, chart, q, p, csym if q > 1 else "none", dsym if p > 1 else "none")
    ctx = LiftContext(chart, r)
    for lam in range(-1, r + 2):
        assert_same_storage(lift_tensor(t, lam, ctx), lift_tensor_by_loop(t, lam, ctx))
    conn = tangent_connection(chart, {(rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)):
                                      fraction_poly(rng, chart) for _ in range(3)})
    cctx = LiftContext(conn.chart, r)
    lifted = lift_linear_connection(conn, cctx).gamma
    christoffel = TensorField(conn.chart, 1, 2, {((a,), (k, b)): g
                                                 for (k, a, b), g in conn.gamma.items()})
    want = lift_tensor_by_loop(christoffel, r, cctx).components
    assert list(lifted) == [(k, a, b) for ((a,), (k, b)) in want]
    assert [[(m, c, type(c)) for m, c in g.terms.items()] for g in lifted.values()] == \
        [[(m, c, type(c)) for m, c in g.terms.items()] for g in want.values()]


def test_lifts_assign_without_accumulating(monkeypatch):
    # a monomial's jet is built on first use: warm up first
    chart = CHARTS[3]
    x, y, z = (Poly.variable(chart, i) for i in range(3))
    f = x * y * Fraction(-5, 7) + z * 3 + 1
    t = tensor_product(vector_field(chart, {"x": f, "z": y}),
                       coordinate_one_form(chart, "y") * 2)
    conn = tangent_connection(chart, {(0, 1, 2): f, (2, 0, 0): x * z})
    ctx, cctx = LiftContext(chart, 2), LiftContext(conn.chart, 2)

    def lift_all():
        return (lift_function_jets(f, ctx), [lift_tensor(t, lam, ctx) for lam in range(3)],
                lift_linear_connection(conn, cctx).gamma)

    want = lift_all()
    assert len(want[0][2].terms) == 4 and all(want[1]) and want[2]
    calls = []
    for name in ("_acc_poly", "_acc_product"):
        acc = getattr(lifts, name)
        monkeypatch.setattr(lifts, name,
                            lambda *args, acc=acc: calls.append(args) or acc(*args))
    assert lift_all() == want
    assert calls == []


@pytest.mark.parametrize("call, bad", [
    *(("lift_tensor", bad) for bad in (2.5, 1.0, Fraction(1), True)),
    *(("lift_function", bad) for bad in (1.0, 0.5, False)),
    *(("LiftContext", bad) for bad in (1.5, 2.0, True, "2")),
])
def test_lifts_reject_an_order_or_level_that_is_not_an_int(call, bad):
    calls = {
        "lift_tensor": lambda: lift_tensor(coordinate_vector_field(E2, "x"), bad, LiftContext(E2, 2)),
        "lift_function": lambda: lift_function(Poly.variable(E2, 0), bad, LiftContext(E2, 2)),
        "LiftContext": lambda: LiftContext(E2, bad),
    }
    with pytest.raises(GradcalcError, match=f"must be an integer, not {re.escape(repr(bad))}$"):
        calls[call]()


def cauchy_product(a: dict, b: dict, r: int) -> dict:
    # truncated product of two jets {level: {monomial: int}}: level k <= r
    # sums the term products of every level pair i + j = k
    out: dict = {}
    for i, ai in a.items():
        for j, bj in b.items():
            if i + j <= r:
                acc = out.setdefault(i + j, {})
                for ma, ca in ai.items():
                    for mb, cb in bj.items():
                        m = mono_mul(ma, mb)
                        acc[m] = acc.get(m, 0) + ca * cb
    return out


@pytest.mark.parametrize("r", range(5))
def test_power_jets_match_repeated_products(r):
    # every power up to 12, met in an order that leaves gaps in the cache
    chart = CHARTS[2]
    ctx = LiftContext(chart, r)
    for e in (7, 12, 1, 5, 2, 11, 3, 10, 4, 9, 6, 8):
        for v in range(2):
            x = {mu: {((ctx.var(v, mu), 1),): 1} for mu in range(r + 1)}
            want = x
            for _ in range(e - 1):
                want = cauchy_product(want, x, r)
            assert ctx._monomial_jet(((v, e),)) == want


def test_monomial_jets_are_plain_term_dicts(monkeypatch):
    # the cache holds {level: {monomial: positive int}}, no Poly and no zero,
    # building it constructs no Poly, and every cached jet, factors
    # included, is the monomial's lift
    chart = CHARTS[2]
    r = 4
    ctx = LiftContext(chart, r)
    built = []
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    ctx._monomial_jet(((0, 5), (1, 2)))
    monkeypatch.undo()
    assert built == []
    assert set(ctx._jets) == {(), ((0, 5), (1, 2)), ((0, 5),), ((1, 2),)}
    for mono, jet in ctx._jets.items():
        assert type(jet) is dict and set(jet) <= set(range(r + 1))
        for terms in jet.values():
            assert type(terms) is dict and terms
            assert all(type(c) is int and c > 0 for c in terms.values())
        one = Poly.from_terms(chart, [(mono, 1)])
        for lam in range(r + 1):
            assert Poly(ctx.total, jet.get(lam, {})) == taylor_lift_oracle(one, lam, ctx)


# -- the size estimate that bounds a script's lifts ---------------------------

def terms_of(t: TensorField) -> int:
    return sum(len(c.terms) for c in t.components.values())


def entries_of(t: TensorField) -> int:
    """What a tensor's terms store: each monomial's variables and its key's indices."""
    return sum(len(m) + t.q + t.p for c in t.components.values() for m in c.terms)


def lift_terms(t, r: int) -> list:
    return [n for n, _ in lifts._lift_sizes(t, r)]


def test_lift_terms_spot_values():
    # the top lift of x^3*y^3*z^3 + x*y*z at r = lambda = 5, 10, 15, 20;
    # lift_function returns that many terms (checked at every level to r=10)
    chart = CHARTS[3]
    x, y, z = (Poly.variable(chart, i) for i in range(3))
    f = scalar_field(chart, x ** 3 * y ** 3 * z ** 3 + x * y * z)
    for r, want in ((5, 117), (10, 1527), (15, 10728), (20, 51198)):
        assert lift_terms(f, r)[r] == want
    for r in (5, 10):
        jets = lift_function_jets(f.scalar_part(), LiftContext(chart, r))
        assert lift_terms(f, r) == [len(j.terms) for j in jets]
    # x^3*y^3*z^3 lifts to at most 3 + 3 + 3 variables a term, x*y*z to 3
    assert sum(k for _, k in lifts._lift_sizes(f, 20)) == 1673148
    assert lifts._lift_sizes(f, 1) == [(2, 9), (6, 27)]


@settings(max_examples=40, deadline=None)
@given(base_polys(), st.integers(0, 4), st.integers(0, 10 ** 9),
       st.sampled_from(["form", "multivector", "vv_form", "plain", "sym", "degree3"]))
def test_lift_terms_bound_every_lift(f, r, seed, kind):
    # exact but for a sym block, whose duplicate level orders it counts
    chart = f.chart
    ctx = LiftContext(chart, r)
    sizes = lifts._lift_sizes(scalar_field(chart, f), r)
    jets = lift_function_jets(f, ctx)
    assert [len(j.terms) for j in jets] == [n for n, _ in sizes]
    # the entries bound what each level stores
    assert all(sum(map(len, j.terms)) <= k for j, (_, k) in zip(jets, sizes))
    for mono, coef in f.terms.items():
        one = Poly.from_terms(chart, [(mono, coef)])
        assert lift_terms(scalar_field(chart, one), r) == \
            [len(j.terms) for j in lift_function_jets(one, ctx)]
    t = random_tensor_of_kind(random.Random(seed), chart, kind) * f
    sizes = lifts._lift_sizes(t, r)
    lifted = [lift_tensor(t, lam, ctx) for lam in range(r + 1)]
    got = [terms_of(u) for u in lifted]
    if "sym" in (t.contra_sym, t.cov_sym):
        assert all(n <= e for n, (e, _) in zip(got, sizes))
    else:
        assert got == [n for n, _ in sizes]
    assert all(entries_of(u) <= k for u, (_, k) in zip(lifted, sizes))
    # a connection's symbols lift like coefficients with two basis slots;
    # a lifted symbol's fibre target level is its level rho
    conn = tangent_connection(chart, {(0, chart.dim - 1, 0): f})
    cctx = LiftContext(conn.chart, r)
    per_level = [0] * (r + 1)
    for (_, a, _), g in lift_linear_connection(conn, cctx).gamma.items():
        per_level[a // conn.chart.dim] += len(g.terms)
    assert per_level == lift_terms(conn, r)


# -- the paper's lift theorems on graded bases ----------------------------------

@st.composite
def graded_bases(draw):
    """A chart of dim 1-2 with 1-2 gradings and weights in -2..3, as it is,
    as its cotangent chart, or as T*[k] in one component with k from that
    component's top weight to the top weight + 2."""
    dim = draw(st.integers(1, 2))
    gradings = draw(st.integers(1, 2))
    weights = [tuple(draw(st.integers(-2, 3)) for _ in range(gradings))
               for _ in range(dim)]
    base = make_chart(["x", "y"][:dim], weights)
    kind = draw(st.sampled_from(["base", "cotangent", "shifted"]))
    if kind == "cotangent":
        return cotangent_chart(base)
    if kind == "shifted":
        c = draw(st.integers(0, gradings - 1))
        top = max(w[c] for w in weights)
        return phase_shifted_cotangent_chart(base, draw(st.integers(top, top + 2)), c)
    return base


def homogeneous_tensor_parts(t, component):
    """{degree: the terms of t of that degree in one component}."""
    ws = t.chart.weights
    parts = {}
    for (up, down), coef in t.components.items():
        shift = sum(ws[j][component] for j in down) - sum(ws[i][component] for i in up)
        for w, part in homogeneous_components(coef, component).items():
            parts.setdefault(w + shift, {})[(up, down)] = part
    return {d: TensorField(t.chart, t.q, t.p, comps) for d, comps in parts.items()}


def draw_homogeneous_tensor(chart, q, p, seed, data):
    """A random (q, p) tensor cut down to one homogeneous part in one
    drawn component (the zero tensor, which has no part, as it is)."""
    t = random_tensor(random.Random(seed), chart, q, p)
    parts = homogeneous_tensor_parts(
        t, data.draw(st.integers(0, chart.grading_count - 1), label="component"))
    if parts:
        t = parts[data.draw(st.sampled_from(sorted(parts)), label="degree")]
    return t


@settings(max_examples=150, deadline=None)
@given(graded_bases(), st.integers(0, 2), st.integers(0, 2), st.integers(1, 3),
       st.integers(0, 10 ** 9), st.data())
def test_lifts_keep_base_degrees_and_have_jet_degree(chart, q, p, r, seed, data):
    # every nonzero lambda-lift of a (q, p) tensor t keeps t's degree in
    # each base component where t is homogeneous, and has degree
    # lambda - q*r in the jet component that prolongation adds
    t = draw_homogeneous_tensor(chart, q, p, seed, data)
    degrees = {c: degree_of_tensor(t, c) for c in range(chart.grading_count)}
    ctx = LiftContext(chart, r)
    for lam in range(r + 1):
        lifted = lift_tensor(t, lam, ctx)
        if lifted.is_zero():
            continue
        for c, d in degrees.items():
            if d is not None:
                assert degree_of_tensor(lifted, c) == d, (c, lam)
        assert degree_of_tensor(lifted, chart.grading_count) == lam - q * r


@settings(max_examples=150, deadline=None)
@given(graded_bases(), st.integers(0, 2), st.integers(0, 2), st.integers(1, 3),
       st.integers(0, 10 ** 9), st.data())
def test_lifts_satisfy_the_euler_identity(chart, q, p, r, seed, data):
    # L_Delta t^(lambda) = d t^(lambda) for the weight vector field Delta
    # of each component of the prolonged chart, base and jet, in which
    # the lift has a degree d
    t = draw_homogeneous_tensor(chart, q, p, seed, data)
    ctx = LiftContext(chart, r)
    fields = [weight_vector_field(ctx.total, c) for c in range(ctx.total.grading_count)]
    for lam in range(r + 1):
        lifted = lift_tensor(t, lam, ctx)
        if lifted.is_zero():
            continue
        for c, euler in enumerate(fields):
            d = degree_of_tensor(lifted, c)
            if d is not None:
                assert lie_derivative(euler, lifted) == lifted * d, (c, lam)


@st.composite
def weighted_poisson_bivectors(draw):
    """(Lambda, c, k): Lambda = f d/di ^^ d/dj on a graded_bases() chart
    of dim >= 2, weighted Poisson of degree -k in the drawn component c,
    k the chart's degree there.  f sums 1-3 monomials of total degree
    <= 3 whose weight in c makes Lambda's degree -k; a rank-2 bivector
    f X ^^ Y of commuting coordinate fields is Poisson for every f."""
    chart = draw(graded_bases())
    assume(chart.dim >= 2)
    c = draw(st.integers(0, chart.grading_count - 1))
    k = chart.degree(c)
    i, j = draw(st.sampled_from(list(combinations(range(chart.dim), 2))))
    ws = chart.weights
    target = ws[i][c] + ws[j][c] - k
    monomials = [m for n in range(4)
                 for m in combinations_with_replacement(range(chart.dim), n)
                 if sum(ws[v][c] for v in m) == target]
    assume(monomials)
    f = Poly.zero(chart)
    for m in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True)):
        term = Poly.const(chart, draw(st.sampled_from([-2, -1, 1, 3])))
        for v in m:
            term = term * Poly.variable(chart, v)
        f = f + term
    lam = wedge(coordinate_vector_field(chart, i), coordinate_vector_field(chart, j)) * f
    return lam, c, k


@settings(max_examples=100, deadline=None)
@given(weighted_poisson_bivectors(), st.integers(1, 3))
def test_weighted_poisson_bivectors_lift_to_weighted_poisson(drawn, r):
    # every lambda-lift of a weighted Poisson bivector of degree -k in a
    # base component is weighted Poisson of degree -k in that component,
    # keeps its degree in every base component where it has one, and has
    # jet degree lambda - 2r
    lam, c, k = drawn
    chart = lam.chart
    assert is_weighted_poisson(lam, k, c).verdict
    degrees = {b: degree_of_tensor(lam, b) for b in range(chart.grading_count)}
    ctx = LiftContext(chart, r)
    for level in range(r + 1):
        lifted = lift_tensor(lam, level, ctx)
        report = is_weighted_poisson(lifted, k, c)
        assert report.verdict, (level, report.witness)
        if lifted.is_zero():
            continue
        for b, d in degrees.items():
            if d is not None:
                assert degree_of_tensor(lifted, b) == d, (b, level)
        assert degree_of_tensor(lifted, chart.grading_count) == level - 2 * r


@st.composite
def weighted_nijenhuis_tensors(draw):
    """(N, c): N = sum_i f_i(x_i) d/dx_i ox dx^i on a graded_bases() chart,
    each f_i of weight 0 in the drawn component c (a constant when x_i has
    a nonzero weight there), plus 0-2 constant entries N^i_j between
    variables of equal weight in c.  So N has degree 0 in c; only the
    draws whose torsion vanishes are kept."""
    chart = draw(graded_bases())
    c = draw(st.integers(0, chart.grading_count - 1))
    ws = chart.weights
    comps = {}
    for i in range(chart.dim):
        top = 3 if ws[i][c] == 0 else 0
        f = Poly.zero(chart)
        for e in draw(st.lists(st.integers(0, top), min_size=1, max_size=2, unique=True)):
            f = f + Poly.variable(chart, i) ** e * draw(st.sampled_from([-2, -1, 1, 3]))
        comps[((i,), (i,))] = f
    pairs = [(i, j) for i in range(chart.dim) for j in range(chart.dim)
             if i != j and ws[i][c] == ws[j][c]]
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)):
            comps[((i,), (j,))] = Poly.const(chart, draw(st.sampled_from([-1, 1, 2])))
    n = TensorField.from_components(chart, 1, 1, comps)
    assume(is_weighted_nijenhuis(n, c).verdict)
    return n, c


@settings(max_examples=75, deadline=None)
@given(weighted_nijenhuis_tensors())
def test_weighted_nijenhuis_tensors_lift_to_weighted_nijenhuis(drawn):
    # [N^(lambda), N^(lambda)] = [N, N]^(2 lambda - r) = 0, so every
    # lambda-lift of N has zero torsion; it has degree 0 in c and jet
    # degree lambda - r, so the lift at lambda = r is weighted Nijenhuis
    # in c and in the jet component
    n, c = drawn
    jet = n.chart.grading_count
    for r in range(1, 4):
        ctx = LiftContext(n.chart, r)
        for lam in range(r + 1):
            lifted = lift_tensor(n, lam, ctx)
            assert nijenhuis_torsion(lifted).is_zero(), (r, lam)
            assert degree_matches(degree_of_tensor(lifted, c), 0), (r, lam)
            assert degree_matches(degree_of_tensor(lifted, jet), lam - r), (r, lam)
            if lam == r:
                for component in (c, jet):
                    report = is_weighted_nijenhuis(lifted, component)
                    assert report.verdict, (r, component, report.witness)
