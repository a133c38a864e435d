"""Tensor storage, symmetry tags, products, insertions, degrees, rendering."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcalc.calculus import (concomitant, exterior_derivative, fn_bracket, lie_bracket,
                               lie_derivative, nr_bracket, schouten_bracket, vf_apply)
from gradcalc.charts import Chart, cotangent_chart, make_chart
from gradcalc.checkers import Distribution, Section, algebroid_bracket, section_degree
from gradcalc.errors import ChartMismatchError, GradcalcError, ValenceError
from gradcalc.lifts import (LiftContext, LinearConnection, covariant_derivative,
                            horizontal_fields, lift_distribution, lift_tensor,
                            tangent_connection)
from gradcalc.poly import ANY_DEGREE, Poly, _acc
from gradcalc.render import (chart_to_json, poly_to_json, render_poly, render_tensor,
                             tensor_to_json)
from gradcalc.sampling import (random_form, random_multivector, random_one_form,
                               random_poly, random_tensor, random_vector_field,
                               random_vv_form)
from gradcalc.tensor import (
    TensorField,
    _SYMS,
    _block_expansion,
    _expanded_size,
    _from_expanded,
    _sort_with_parity,
    _sum,
    _swap,
    compose_11,
    contract,
    coordinate_one_form,
    coordinate_vector_field,
    degree_of_tensor,
    identity_tensor,
    insert_form,
    insert_multivector,
    scalar_field,
    tagged,
    tensor_product,
    vector_field,
    wedge,
    wedge_list,
    weight_vector_field,
)


M = make_chart(["x", "y"], [1, 2], label="M")
E3 = make_chart(["x", "y", "z"], [0, 0, 0], label="E3")


def p(chart, i):
    return Poly.variable(chart, i)


def test_from_components_validates_keys():
    with pytest.raises(ValenceError):
        TensorField.from_components(M, 1, 0, {((0, 1), ()): 1})
    with pytest.raises(GradcalcError):
        TensorField.from_components(M, 1, 0, {((7,), ()): 1})
    other = Poly.variable(E3, 0)
    with pytest.raises(ChartMismatchError):
        TensorField.from_components(M, 1, 0, {((0,), ()): other})


def test_from_components_requires_canonical_keys():
    with pytest.raises(ValenceError):
        TensorField.from_components(E3, 0, 2, {((), (1, 0)): 1}, cov_sym="antisym")
    with pytest.raises(ValenceError):
        TensorField.from_components(E3, 0, 2, {((), (0, 0)): 1}, cov_sym="antisym")
    with pytest.raises(ValenceError):
        TensorField.from_components(E3, 2, 0, {((2, 0), ()): 1}, contra_sym="sym")
    # same keys are fine untagged
    t = TensorField.from_components(E3, 0, 2, {((), (1, 0)): 1})
    assert t.component((), (1, 0)) == Poly.const(E3, 1)


def test_from_components_merges_and_coerces():
    t = TensorField.from_components(
        M, 1, 0, [(((0,), ()), 2), (((0,), ()), Fraction(1, 2))])
    assert t.component((0,), ()) == Poly.const(M, Fraction(5, 2))
    z = TensorField.from_components(M, 1, 0, [(((0,), ()), 1), (((0,), ()), -1)])
    assert z.is_zero()
    assert not z


def test_low_arity_tags_collapse():
    t = TensorField(M, 1, 0, {((0,), ()): Poly.const(M, 1)}, contra_sym="antisym")
    assert t.contra_sym == "none"
    with pytest.raises(ValenceError):
        TensorField(M, 1, 0, {}, contra_sym="skew")


def test_unknown_symmetry_tag_is_named():
    with pytest.raises(ValenceError) as ei:
        TensorField(E3, 2, 0, {}, contra_sym="skew")
    assert str(ei.value) == "unknown symmetry tag 'skew'; expected one of none, sym, antisym"
    with pytest.raises(ValenceError, match="tag 'Sym', 'alt';"):
        TensorField.zero(E3, 2, 2, "Sym", "alt")
    with pytest.raises(ValenceError, match="tag 'symmetric';"):
        tagged(TensorField.zero(E3, 0, 2), cov_sym="symmetric")


def test_scalar_part():
    f = scalar_field(M, 3)
    assert f.scalar_part() == Poly.const(M, 3)
    assert scalar_field(M, 0).is_zero()
    with pytest.raises(ValenceError):
        coordinate_vector_field(M, "x").scalar_part()


def test_component_resolves_symmetry():
    w = wedge(coordinate_one_form(E3, "x"), coordinate_one_form(E3, "y"))
    assert w.component((), (0, 1)) == Poly.const(E3, 1)
    assert w.component((), (1, 0)) == Poly.const(E3, -1)
    assert w.component((), (0, 0)).is_zero()
    s = tagged(TensorField.from_components(
        E3, 0, 2, {((), (0, 1)): 1, ((), (1, 0)): 1}), cov_sym="sym")
    assert s.cov_sym == "sym"
    assert s.component((), (1, 0)) == Poly.const(E3, 1)


def test_addition_across_tags():
    a = wedge(coordinate_one_form(E3, "x"), coordinate_one_form(E3, "y"))
    b = TensorField.from_components(E3, 0, 2, {((), (0, 1)): 1, ((), (1, 0)): -1})
    assert a == b
    assert (a + b).component((), (0, 1)) == Poly.const(E3, 2)
    assert (a - b).is_zero()
    assert (a + a).cov_sym == "antisym"


def test_scalar_multiplication():
    x = coordinate_vector_field(M, "x")
    assert (x * 2).component((0,), ()) == Poly.const(M, 2)
    assert (Fraction(1, 3) * x).component((0,), ()) == Poly.const(M, Fraction(1, 3))
    assert (x * p(M, 1)).component((0,), ()) == p(M, 1)
    with pytest.raises(ChartMismatchError):
        x * Poly.variable(E3, 0)
    y = coordinate_vector_field(E3, "x")
    with pytest.raises(ChartMismatchError):
        x + y
    with pytest.raises(ValenceError):
        x + coordinate_one_form(M, "x")


def _vf(chart):
    return coordinate_vector_field(chart, "x")


def _bivector(chart):
    return wedge(coordinate_vector_field(chart, "x"), coordinate_vector_field(chart, "y"))


# Every binary tensor operation, with an argument builder per operand.
SAME_CHART_OPS = {
    "TensorField._check": (lambda a, b: a + b, _vf, _vf),
    "tensor_product": (tensor_product, _vf, _vf),
    "wedge": (wedge, _vf, _vf),
    "insert_multivector": (insert_multivector, _vf,
                           lambda c: coordinate_one_form(c, "x")),
    "insert_form": (insert_form, lambda c: coordinate_one_form(c, "x"), _vf),
    "compose_11": (compose_11, identity_tensor, identity_tensor),
    "lie_bracket": (lie_bracket, _vf, _vf),
    "lie_derivative": (lie_derivative, _vf, _vf),
    "schouten_bracket": (schouten_bracket, _vf, _vf),
    "fn_bracket": (fn_bracket, identity_tensor, identity_tensor),
    "nr_bracket": (nr_bracket, identity_tensor, identity_tensor),
    "concomitant": (concomitant, _bivector, identity_tensor),
    "covariant_derivative": (lambda a, b: covariant_derivative(
        tangent_connection(a.chart, {}), a, b), _vf, _vf),
}


@pytest.mark.parametrize("name", sorted(SAME_CHART_OPS))
def test_binary_operations_need_one_chart(name):
    op, first, second = SAME_CHART_OPS[name]
    a_chart = make_chart(["x", "y"], [1, 2], label="M")
    b_chart = make_chart(["x", "y"], [1, 2], label="M")
    op(first(a_chart), second(a_chart))     # one chart: the operation runs
    with pytest.raises(ChartMismatchError, match="^tensors live on different charts$"):
        op(first(a_chart), second(b_chart))


def test_wedge_equals_alternating_sum():
    rng = random.Random(7)
    for _ in range(20):
        a = random_one_form(rng, E3)
        b = random_one_form(rng, E3)
        lhs = wedge(a, b)
        rhs = tensor_product(a, b) - tensor_product(b, a)
        assert lhs == rhs
        assert wedge(b, a) == -lhs
    dx = coordinate_one_form(E3, "x")
    assert wedge(dx, dx).is_zero()


def test_tagged_verifies():
    j = TensorField.from_components(
        E3, 0, 2, {((), (0, 1)): 1, ((), (1, 0)): -1})
    assert tagged(j, cov_sym="antisym").cov_sym == "antisym"
    bad = TensorField.from_components(E3, 0, 2, {((), (0, 1)): 1})
    with pytest.raises(ValenceError):
        tagged(bad, cov_sym="antisym")
    diag = TensorField.from_components(E3, 0, 2, {((), (0, 0)): 1})
    with pytest.raises(ValenceError):
        tagged(diag, cov_sym="antisym")
    assert tagged(diag, cov_sym="sym").component((), (0, 0)) == Poly.const(E3, 1)


def test_tensor_product_tags_and_scalars():
    w = wedge(coordinate_one_form(E3, "x"), coordinate_one_form(E3, "y"))
    x = coordinate_vector_field(E3, "z")
    vv = tensor_product(w, x)
    assert (vv.q, vv.p) == (1, 2)
    assert vv.cov_sym == "antisym"
    assert vv.contra_sym == "none"
    # two covariant blocks merge untagged
    both = tensor_product(w, coordinate_one_form(E3, "z"))
    assert both.cov_sym == "none"
    f = scalar_field(E3, Poly.variable(E3, 0))
    assert tensor_product(f, x) == x * Poly.variable(E3, 0)
    assert tensor_product(x, f) == tensor_product(f, x)


def test_wedge_rejects_bad_operands():
    flat = TensorField.from_components(E3, 0, 2, {((), (0, 1)): 1})
    dx = coordinate_one_form(E3, "x")
    with pytest.raises(ValenceError):
        wedge(flat, dx)
    with pytest.raises(ValenceError):
        wedge(dx, coordinate_vector_field(E3, "y"))
    mixed = tensor_product(coordinate_vector_field(E3, "x"), dx)
    with pytest.raises(ValenceError):
        wedge(mixed, dx)
    with pytest.raises(ValenceError):
        wedge_list([])


def test_wedge_list_and_pairings():
    forms = [coordinate_one_form(E3, n) for n in ("x", "y", "z")]
    top = wedge_list(forms)
    assert top.components == {((), (0, 1, 2)): Poly.const(E3, 1)}
    bi = wedge(*[coordinate_vector_field(E3, n) for n in ("x", "y")])
    # unnormalized pairing of a 2-vector with a 2-form
    val = insert_multivector(bi, wedge(forms[0], forms[1]))
    assert val.scalar_part() == Poly.const(E3, 2)


def test_contract():
    assert contract(identity_tensor(E3), 0, 0).scalar_part() == Poly.const(E3, 3)
    j = TensorField.from_components(
        E3, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): -1})
    assert contract(j, 0, 0).is_zero()
    x = coordinate_vector_field(M, "x")
    a = coordinate_one_form(M, "x") * p(M, 1)
    assert contract(tensor_product(x, a), 0, 0).scalar_part() == p(M, 1)
    with pytest.raises(ValenceError):
        contract(x, 0, 0)


def test_insert_multivector_leading_cov_slots():
    dx = coordinate_one_form(E3, "x")
    dy = coordinate_one_form(E3, "y")
    w = wedge(dx, dy)
    assert insert_multivector(coordinate_vector_field(E3, "x"), w) == dy
    assert insert_multivector(coordinate_vector_field(E3, "y"), w) == -dx
    f = scalar_field(E3, 2)
    assert insert_multivector(f, w) == w * 2
    with pytest.raises(ValenceError):
        insert_multivector(wedge_list(
            [coordinate_vector_field(E3, n) for n in ("x", "y", "z")]), w)
    with pytest.raises(ValenceError):
        insert_multivector(dx, w)


def test_insert_form_leading_contra_slots():
    j = TensorField.from_components(
        E3, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): -1})
    dx = coordinate_one_form(E3, "x")
    dy = coordinate_one_form(E3, "y")
    assert insert_form(dy, j) == dx
    assert insert_form(dx, j) == -dy
    with pytest.raises(ValenceError):
        insert_form(coordinate_vector_field(E3, "x"), j)
    with pytest.raises(ValenceError):
        insert_form(wedge(dx, dy), j)


def test_compose_11():
    j = TensorField.from_components(
        E3, 1, 1, {((1,), (0,)): 1, ((0,), (1,)): -1})
    i = identity_tensor(E3)
    # j only acts on the x,y block, so j.j = -1 there and 0 on z
    sq = compose_11(j, j)
    assert sq.component((0,), (0,)) == Poly.const(E3, -1)
    assert sq.component((2,), (2,)).is_zero()
    assert compose_11(j, i) == j
    assert compose_11(i, j) == j
    with pytest.raises(ValenceError):
        compose_11(j, coordinate_vector_field(E3, "x"))


def test_builders():
    v = vector_field(M, {"x": 1, 1: p(M, 0)})
    assert v.component((0,), ()) == Poly.const(M, 1)
    assert v.component((1,), ()) == p(M, 0)
    assert coordinate_vector_field(M, "y") == coordinate_vector_field(M, 1)
    assert identity_tensor(M).component((1,), (1,)) == Poly.const(M, 1)


# -- one coefficient rule -------------------------------------------------------

# VB: base x, fibre u and v in the VB component 1.  CT: the cotangent
# chart of x, y, whose fibre p_x, p_y is its last component.
VB = make_chart(["x", "u", "v"], [(1, 0), (2, 1), (3, 1)], label="VB")
CT = cotangent_chart(make_chart(["x", "y"], [0, 0]))
CT_LAM = (wedge(coordinate_vector_field(CT, "p_x"), coordinate_vector_field(CT, "x"))
          + wedge(coordinate_vector_field(CT, "p_y"), coordinate_vector_field(CT, "y")))


def _gamma_terms(conn):
    # tangent_connection builds a new tangent chart on every call
    return {k: g.terms for k, g in conn.gamma.items()}


# name: (chart, build(coefficient) -> a comparable result, whether a number
# is accepted, a fibre variable when the coefficient must be a base function)
COEFFICIENT_BUILDERS = {
    "from_components": (M, lambda c: TensorField.from_components(M, 1, 0, {((0,), ()): c}),
                        True, None),
    "mul": (M, lambda c: coordinate_vector_field(M, "x") * c, True, None),
    "rmul": (M, lambda c: c * coordinate_vector_field(M, "x"), True, None),
    "scalar_field": (M, lambda c: scalar_field(M, c), True, None),
    "vector_field": (M, lambda c: vector_field(M, {"y": c}), True, None),
    "LinearConnection": (VB, lambda c: LinearConnection(VB, 1, {(0, 1, 2): c}).gamma,
                         True, 1),
    "tangent_connection": (M, lambda c: _gamma_terms(tangent_connection(M, {(0, 1, 0): c})),
                           True, None),
    "section_degree": (VB, lambda c: section_degree(Section(VB, 1, {1: c})), False, 2),
    "algebroid_bracket": (CT, lambda c: algebroid_bracket(CT_LAM, CT.grading_count - 1,
                                                          [c, 1], [Poly.variable(CT, 0), 0]),
                          True, 2),
}


@pytest.mark.parametrize("name", sorted(COEFFICIENT_BUILDERS))
def test_builders_refuse_a_coefficient_on_another_chart(name):
    # charts compare by identity: a twin with the same table is another chart
    chart, build, _, _ = COEFFICIENT_BUILDERS[name]
    twin = Chart(chart.names, chart.weights, chart.grading_count, chart.label)
    with pytest.raises(ChartMismatchError, match="lives on a different chart$"):
        build(Poly.variable(twin, 0))


@pytest.mark.parametrize("name", sorted(n for n, row in COEFFICIENT_BUILDERS.items()
                                        if row[2]))
def test_builders_take_a_number_as_the_constant(name):
    chart, build, _, _ = COEFFICIENT_BUILDERS[name]
    for number in (3, Fraction(-2, 3)):
        assert build(number) == build(Poly.const(chart, number))


@pytest.mark.parametrize("name", sorted(n for n, row in COEFFICIENT_BUILDERS.items()
                                        if row[3] is not None))
def test_builders_refuse_a_fibre_variable(name):
    chart, build, _, fibre = COEFFICIENT_BUILDERS[name]
    build(Poly.variable(chart, 0))          # a base variable is fine
    with pytest.raises(GradcalcError, match="must depend on base variables only$"):
        build(Poly.variable(chart, fibre))


def test_section_degree_refuses_a_number():
    with pytest.raises(GradcalcError, match="^section component 3 is not a polynomial$"):
        section_degree(Section(VB, 1, {1: 3}))


@pytest.mark.parametrize("key,message", [
    (7, "section key 7 outside 0..2"),
    (-1, "section key -1 outside 0..2"),
    (True, "section key must be an integer, not True"),
    (0, "x is not a fibre variable"),
])
def test_section_degree_checks_each_key(key, message):
    with pytest.raises(GradcalcError, match=f"^{message}$"):
        section_degree(Section(VB, 1, {key: Poly.variable(VB, 0)}))


@pytest.mark.parametrize("q,p", [(-1, 0), (0, -2), (1.0, 0), (True, 0), (0, "1")])
def test_from_components_refuses_a_bad_valence(q, p):
    with pytest.raises(ValenceError, match="must be two nonnegative integers$"):
        TensorField.from_components(M, q, p, {})


@pytest.mark.parametrize("q,p", [(-1, 0), (0, -2), (1.0, 0), (True, 0), (0, "1"), (True, 0.5)])
def test_zero_refuses_a_bad_valence_as_from_components_does(q, p):
    # zero(M, -1, 0) built a (-1, 0) tensor that printed 0
    with pytest.raises(ValenceError) as zero_error:
        TensorField.zero(M, q, p)
    with pytest.raises(ValenceError) as components_error:
        TensorField.from_components(M, q, p, {})
    assert str(zero_error.value) == str(components_error.value) == \
        f"valence ({q!r},{p!r}) must be two nonnegative integers"


def test_weight_vector_field():
    w = weight_vector_field(M)
    assert w.component((0,), ()) == p(M, 0)
    assert w.component((1,), ()) == p(M, 1) * 2
    two = make_chart(["u", "v"], [(1, 0), (0, 3)])
    assert weight_vector_field(two, 1).component((1,), ()) == Poly.variable(two, 1) * 3
    assert weight_vector_field(two, 1).component((0,), ()).is_zero()
    with pytest.raises(GradcalcError):
        weight_vector_field(M, 5)


def test_degree_of_tensor():
    # deg(coef) + weights of lower indices - weights of upper indices
    t = tensor_product(coordinate_vector_field(M, "x") * p(M, 1),
                       coordinate_one_form(M, "y"))
    assert degree_of_tensor(t) == 2 + 2 - 1
    mixed = coordinate_vector_field(M, "x") + coordinate_vector_field(M, "y")
    assert degree_of_tensor(mixed) is None
    assert degree_of_tensor(TensorField.zero(M, 1, 1)) is ANY_DEGREE
    assert degree_of_tensor(weight_vector_field(M)) == 0
    with pytest.raises(GradcalcError):
        degree_of_tensor(t, component=3)


def test_degree_per_component():
    two = make_chart(["u", "v"], [(1, 0), (0, 3)])
    t = coordinate_one_form(two, "v") * Poly.variable(two, 0)
    assert degree_of_tensor(t, component=0) == 1
    assert degree_of_tensor(t, component=1) == 3


def test_render_frozen():
    x, y = p(M, 0), p(M, 1)
    v = coordinate_vector_field(M, "x") * x - coordinate_vector_field(M, "y") * y
    assert render_tensor(v) == "x*d/dx - y*d/dy"
    assert render_tensor(wedge(coordinate_one_form(E3, "x"),
                               coordinate_one_form(E3, "y"))) == "dx ^^ dy"
    t = tensor_product(coordinate_vector_field(M, "x"), coordinate_one_form(M, "y"))
    assert render_tensor(t * (x + Poly.const(M, 1))) == "(x + 1)*d/dx ox dy"
    assert render_tensor(t * -2) == "-2*d/dx ox dy"
    assert render_tensor(TensorField.zero(M, 1, 1)) == "0"
    assert render_tensor(scalar_field(M, x * x)) == "x^2"
    # a sym block prints as its distinct index orders, in lexicographic order
    s = TensorField.from_components(M, 0, 3, {((), (0, 0, 1)): 1}, cov_sym="sym")
    assert render_tensor(s) == "dx ox dx ox dy + dx ox dy ox dx + dy ox dx ox dx"


def test_json_forms():
    doc = tensor_to_json(wedge(coordinate_one_form(E3, "x"),
                               coordinate_one_form(E3, "y")))
    assert doc["valence"] == [0, 2]
    assert doc["cov_sym"] == "antisym"
    assert doc["components"] == [{"up": [], "down": ["x", "y"], "coef": "1"}]
    assert doc["text"] == "dx ^^ dy"
    assert poly_to_json(p(M, 0)) == {"type": "poly", "text": "x"}
    cd = chart_to_json(M)
    assert cd["label"] == "M"
    assert cd["vars"][1] == {"name": "y", "weights": [2]}


def test_random_antisym_inputs_stay_tagged():
    rng = random.Random(11)
    for _ in range(15):
        w = random_form(rng, E3, 2)
        if w.is_zero():
            continue
        assert w.cov_sym == "antisym"
        assert wedge(w, coordinate_one_form(E3, "z")).cov_sym == "antisym"
        assert insert_multivector(random_vector_field(rng, E3), w).p == 1


def _canonical_block(idx: tuple, sym: str) -> bool:
    steps = list(zip(idx, idx[1:]))
    if sym == "antisym":
        return all(a < b for a, b in steps)
    if sym == "sym":
        return all(a <= b for a, b in steps)
    return sym == "none"


def assert_canonical(t: TensorField) -> None:
    """Stored keys fit the tags, no component is zero, and every Poly is
    canonical with int or Fraction coefficients."""
    if t.q < 2:
        assert t.contra_sym == "none"
    if t.p < 2:
        assert t.cov_sym == "none"
    for (up, down), coef in t.components.items():
        assert len(up) == t.q and len(down) == t.p
        assert all(0 <= i < t.chart.dim for i in up + down)
        assert _canonical_block(up, t.contra_sym), (up, t.contra_sym)
        assert _canonical_block(down, t.cov_sym), (down, t.cov_sym)
        assert coef.chart is t.chart and coef.terms
        for mono, c in coef.terms.items():
            assert all(e >= 1 for _, e in mono)
            assert [v for v, _ in mono] == sorted({v for v, _ in mono})
            assert type(c) in (int, Fraction) and c != 0


def assert_rendered_once(t: TensorField) -> None:
    """The JSON text is the canonical text, and each JSON component is its
    stored coefficient rendered as a polynomial, in sorted key order."""
    doc = tensor_to_json(t)
    assert doc["text"] == render_tensor(t)
    names = t.chart.names
    assert doc["components"] == [
        {"up": [names[i] for i in up], "down": [names[j] for j in down],
         "coef": render_poly(t.components[(up, down)])}
        for up, down in sorted(t.components)]


_OPTS = dict(max_terms=2, max_degree=2)


def sym_power_sum(rng, chart, degree: int, contra: bool = False,
                  **poly_opts) -> TensorField:
    """a ox ... ox a + b ox ... ox b (degree factors each), tagged sym: a
    sym tensor whose stored keys repeat base indices."""
    make = random_vector_field if contra else random_one_form
    out = TensorField.zero(chart, degree if contra else 0, 0 if contra else degree)
    for _ in range(2):
        a = make(rng, chart, **(poly_opts or _OPTS))
        power = a
        for _ in range(degree - 1):
            power = tensor_product(power, a)
        out = out + power
    return tagged(out, **{"contra_sym" if contra else "cov_sym": "sym"})


def untag(t: TensorField) -> TensorField:
    # adding a zero of other tags stores the expanded table, untagged
    return t + TensorField.zero(t.chart, t.q, t.p)


# per valence, makers of tensors with every tag that valence can carry
EQ_MAKERS = {
    (0, 2): [lambda rng: random_form(rng, E3, 2, **_OPTS),
             lambda rng: random_tensor(rng, E3, 0, 2, **_OPTS),
             lambda rng: sym_power_sum(rng, E3, 2)],
    (2, 0): [lambda rng: random_multivector(rng, E3, 2, **_OPTS),
             lambda rng: random_tensor(rng, E3, 2, 0, **_OPTS),
             lambda rng: sym_power_sum(rng, E3, 2, contra=True)],
    (0, 3): [lambda rng: random_form(rng, E3, 3, max_components=3, **_OPTS),
             lambda rng: random_tensor(rng, E3, 0, 3, **_OPTS),
             lambda rng: sym_power_sum(rng, E3, 3)],
    (2, 2): [lambda rng: tensor_product(random_multivector(rng, E3, 2, **_OPTS),
                                        random_form(rng, E3, 2, **_OPTS)),
             lambda rng: tensor_product(sym_power_sum(rng, E3, 2, contra=True),
                                        random_form(rng, E3, 2, **_OPTS)),
             lambda rng: random_tensor(rng, E3, 2, 2, **_OPTS)],
    (1, 2): [lambda rng: random_vv_form(rng, E3, 2, **_OPTS),
             lambda rng: random_tensor(rng, E3, 1, 2, **_OPTS)],
}


@given(st.integers(0, 10 ** 9), st.sampled_from(sorted(EQ_MAKERS)))
@settings(max_examples=60, deadline=None)
def test_eq_agrees_with_expanded_tables(seed, valence):
    # == compares stored components when the tags agree and expanded tables
    # otherwise; both must give the answer of comparing expanded tables
    rng = random.Random(seed)
    makers = EQ_MAKERS[valence]
    a, b, c = (rng.choice(makers)(rng) for _ in range(3))
    forms_of_a = [a, untag(a), tagged(untag(a), a.contra_sym, a.cov_sym)]
    pairs = [(u, v) for u in forms_of_a for v in forms_of_a]
    pairs += [(u, v) for u in forms_of_a for v in (b, a + c, untag(a + c), a * 2)]
    for u, v in pairs:
        assert (u == v) == (u.expand() == v.expand())
        assert (v == u) == (u == v)
    assert all(u == a for u in forms_of_a)
    if c:
        # a nonzero perturbation, of a's tags or of others, is seen
        assert a != a + c and untag(a) != a + c and a != untag(a + c)


@given(st.integers(0, 10 ** 9), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(_SYMS), st.sampled_from(_SYMS))
@settings(max_examples=80, deadline=None)
def test_expanded_size_counts_the_expanded_table(seed, q, p, contra_sym, cov_sym):
    # counted from the stored keys, repeated sym indices included, then
    # read off the built table
    t = fraction_tensor(random.Random(seed), E3, q, p, contra_sym, cov_sym, size=4)
    n = _expanded_size(t)
    assert t._expanded is None
    assert n == len(t.expand()) == _expanded_size(t)


EIGHT = make_chart([f"v{i}" for i in range(8)], [0] * 8, label="V")


@given(st.sampled_from(_SYMS), st.lists(st.integers(0, 7), max_size=7))
@settings(max_examples=150, deadline=None)
def test_block_expansion_lists_each_order_once_in_lexicographic_order(sym, drawn):
    # a stored key: strictly increasing under antisym, sorted with repeats
    # under sym, and as drawn, repeats included, untagged
    idx = tuple(sorted(set(drawn)) if sym == "antisym" else
                sorted(drawn) if sym == "sym" else drawn)
    pairs = _block_expansion(idx, sym)
    # the reference: every permutation, deduplicated and sorted
    orders = [order for _, order in pairs]
    assert orders == ([idx] if sym == "none" else sorted(set(itertools.permutations(idx))))
    for sign, order in pairs:
        assert sign == (_sort_with_parity(order)[0] if sym == "antisym" else 1)
    t = TensorField.from_components(EIGHT, len(idx), 0, {(idx, ()): 1}, contra_sym=sym)
    assert _expanded_size(t) == len(pairs)


def test_block_expansion_of_equal_indices_is_one_order():
    # 12! permutations, one distinct order
    idx = (3,) * 12
    assert _block_expansion(idx, "sym") == [(1, idx)]


@given(st.integers(0, 10 ** 9), st.sampled_from(sorted(EQ_MAKERS)), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_n_ary_sum_equals_the_fold_of_plus_and_minus(seed, valence, n):
    # operands of random tags, zeros of random tags, and repeats of earlier
    # operands, which cancel or double them under random signs
    rng = random.Random(seed)
    operands = []
    for _ in range(n):
        roll = rng.random()
        if operands and roll < 0.3:
            t = rng.choice(operands)[1]
        elif roll < 0.45:
            t = TensorField.zero(E3, *valence, rng.choice(_SYMS), rng.choice(_SYMS))
        else:
            t = rng.choice(EQ_MAKERS[valence])(rng)
        operands.append((rng.choice((1, -1)), t))
    fold = operands[0][1] if operands[0][0] == 1 else -operands[0][1]
    for sign, t in operands[1:]:
        fold = fold + t if sign == 1 else fold - t
    total = _sum([t if sign == 1 else -t for sign, t in operands])
    table: dict = {}
    for sign, t in operands:
        for k, v in t.expand().items():
            table[k] = table.get(k, 0) + sign * v
    assert total.expand() == {k: v for k, v in table.items() if v}
    assert total.components == fold.components
    assert (total.contra_sym, total.cov_sym) == (fold.contra_sym, fold.cov_sym)
    assert_canonical(total)


# -- storage ------------------------------------------------------------------
# The products and sums below add their terms into term dicts (poly._acc_product,
# poly._acc_poly); each must store its result exactly as the same loop did when
# it summed whole polynomials with Poly *, unary - and _acc.

def assert_same_storage(a, b):
    # equal tags, the same keys in the same order, and in each component the
    # same terms in the same order with coefficients of the same types, so
    # both are stored alike and render and serialise to the same bytes
    assert (a.q, a.p, a.contra_sym, a.cov_sym) == (b.q, b.p, b.contra_sym, b.cov_sym)
    assert list(a.components) == list(b.components)
    assert [[(m, c, type(c)) for m, c in f.terms.items()] for f in a.components.values()] == \
        [[(m, c, type(c)) for m, c in f.terms.items()] for f in b.components.values()]


STORAGE_COEFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3))
STORAGE_CHARTS = [make_chart(list("xyzw"[:dim]), [0] * dim) for dim in range(1, 5)]


def fraction_poly(rng, chart) -> Poly:
    """A nonzero Poly of 1-3 terms of degree <= 2 with int and true Fraction
    coefficients; in one of four every coefficient is stored as a Fraction,
    so the whole ones are whole Fractions, as Fraction(1, 2) * 2 leaves them."""
    terms: dict = {}
    while not terms:
        for _ in range(rng.randint(1, 3)):
            counts = Counter(rng.randrange(chart.dim) for _ in range(rng.randint(0, 2)))
            _acc(terms, tuple(sorted(counts.items())), rng.choice(STORAGE_COEFS))
    if rng.random() < 0.25:
        terms = {m: Fraction(c) for m, c in terms.items()}
    return Poly(chart, terms)


def canonical_key(idx, sym):
    # a drawn index block in the stored form of its tag; None when an
    # antisym block repeats an index
    if sym == "none":
        return idx
    key = tuple(sorted(idx))
    if sym == "antisym" and len(set(key)) < len(key):
        return None
    return key


def fraction_tensor(rng, chart, q, p, contra_sym="none", cov_sym="none",
                    size=3) -> TensorField:
    """Up to size components of fraction_poly, at random keys stored as the
    tags store them; an antisym key that repeats an index is skipped."""
    comps: dict = {}
    for _ in range(rng.randint(1, size)):
        up = canonical_key(tuple(rng.randrange(chart.dim) for _ in range(q)), contra_sym)
        down = canonical_key(tuple(rng.randrange(chart.dim) for _ in range(p)), cov_sym)
        if up is not None and down is not None:
            _acc(comps, (up, down), fraction_poly(rng, chart))
    return TensorField(chart, q, p, comps, contra_sym, cov_sym)


def scale_by_loops(t, s):
    out: dict = {}
    for k, v in t.components.items():
        _acc(out, k, v * s)
    return TensorField(t.chart, t.q, t.p, out, t.contra_sym, t.cov_sym)


def tensor_product_by_loops(a, b):
    cs = a.contra_sym if b.q == 0 else (b.contra_sym if a.q == 0 else "none")
    ps = a.cov_sym if b.p == 0 else (b.cov_sym if a.p == 0 else "none")
    out: dict = {}
    for (ua, da), ca in a.expand().items():
        for (ub, db), cb in b.expand().items():
            _acc(out, (ua + ub, da + db), ca * cb)
    return _from_expanded(a.chart, a.q + b.q, a.p + b.p, out, cs, ps)


def wedge_by_loops(a, b):
    if a.q == 0 and a.p == 0:
        return scale_by_loops(b, a.scalar_part())
    if b.q == 0 and b.p == 0:
        return scale_by_loops(a, b.scalar_part())
    block = 0 if a.q else 1
    out: dict = {}
    for ka, ca in a.components.items():
        for kb, cb in b.components.items():
            sign, key = _sort_with_parity(ka[block] + kb[block])
            if sign:
                coef = ca * cb
                _acc(out, (key, ()) if block == 0 else ((), key),
                     coef if sign == 1 else -coef)
    deg = a.q + a.p + b.q + b.p
    if block == 0:
        return TensorField(a.chart, deg, 0, out, contra_sym="antisym")
    return TensorField(a.chart, 0, deg, out, cov_sym="antisym")


def insert_multivector_by_loops(x, t):
    xe, l = x.expand(), x.q
    out: dict = {}
    for (up, down), coef in t.expand().items():
        xv = xe.get((down[:l], ()))
        if xv is not None:
            _acc(out, (up, down[l:]), coef * xv)
    return _from_expanded(t.chart, t.q, t.p - l, out, t.contra_sym, t.cov_sym)


def compose_11_by_loops(a, b):
    out: dict = {}
    for ((i,), (l,)), ca in a.components.items():
        for ((l2,), (j,)), cb in b.components.items():
            if l == l2:
                _acc(out, ((i,), (j,)), ca * cb)
    return TensorField(a.chart, 1, 1, out)


def sum_by_loops(tensors):
    tags = {(t.contra_sym, t.cov_sym) for t in tensors}
    tags = tags.pop() if len(tags) == 1 else ()
    out: dict = {}
    for t in tensors:
        for k, v in (t.components if tags else t.expand()).items():
            _acc(out, k, v)
    first = tensors[0]
    return TensorField(first.chart, first.q, first.p, out, *tags)


@given(st.integers(0, 10 ** 9), st.sampled_from(STORAGE_CHARTS))
@settings(max_examples=150, deadline=None)
def test_products_store_as_the_polynomial_loops_did(seed, chart):
    # true fractions, whole Fractions, scalar operands, repeated indices
    # and operands met with themselves, whose terms cancel
    rng = random.Random(seed)
    dim = chart.dim

    def form(deg, contra=False):
        if deg == 0:
            return fraction_tensor(rng, chart, 0, 0)
        sym = "antisym" if deg >= 2 else "none"
        if contra:
            return fraction_tensor(rng, chart, deg, 0, contra_sym=sym)
        return fraction_tensor(rng, chart, 0, deg, cov_sym=sym)

    t = fraction_tensor(rng, chart, rng.randint(0, 2), rng.randint(0, 2),
                        rng.choice(_SYMS), rng.choice(_SYMS))
    s = fraction_tensor(rng, chart, rng.randint(0, 1), rng.randint(0, 2))
    w, v = form(rng.randint(0, min(3, dim))), form(rng.randint(0, min(2, dim)))
    a, b = form(rng.randint(1, min(2, dim)), True), form(rng.randint(0, min(2, dim)), True)
    k, l = (fraction_tensor(rng, chart, 1, 1, size=4) for _ in range(2))
    pairs = [(tensor_product, tensor_product_by_loops, (t, s)),
             (tensor_product, tensor_product_by_loops, (s, t)),
             (tensor_product, tensor_product_by_loops, (w, w)),
             (wedge, wedge_by_loops, (w, v)), (wedge, wedge_by_loops, (v, w)),
             (wedge, wedge_by_loops, (w, w)), (wedge, wedge_by_loops, (a, b)),
             (compose_11, compose_11_by_loops, (k, l)),
             (compose_11, compose_11_by_loops, (k, k))]
    if a.q <= t.p:
        pairs.append((insert_multivector, insert_multivector_by_loops, (a, t)))
    if b.q <= w.p:
        pairs.append((insert_multivector, insert_multivector_by_loops, (b, w)))
    for kernel, by_loops, args in pairs:
        assert_same_storage(kernel(*args), by_loops(*args))
    f = fraction_poly(rng, chart)
    for c in (f, Fraction(2, 3), 0):
        assert_same_storage(t * c, scale_by_loops(t, c))


@given(st.integers(0, 10 ** 9), st.sampled_from(sorted(EQ_MAKERS)), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_n_ary_sum_stores_as_the_polynomial_loop_did(seed, valence, n):
    # operands of random tags with true and whole Fractions, repeated
    # and negated repeats, so shared keys double, cancel and come back
    rng = random.Random(seed)
    operands: list = []
    for _ in range(n):
        if operands and rng.random() < 0.4:
            t = rng.choice(operands)
            operands.append(-t if rng.random() < 0.5 else t)
        else:
            operands.append(fraction_tensor(rng, E3, *valence, rng.choice(_SYMS),
                                            rng.choice(_SYMS), size=4))
    assert_same_storage(_sum(operands), sum_by_loops(operands))
    fold = operands[0]
    for t in operands[1:]:
        fold = fold + t
    assert_same_storage(_sum(operands), fold)


@given(st.integers(0, 10 ** 9), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_public_results_are_canonical(seed, r):
    # Fraction(1, 2) scalings and t - t cancellations reach every path;
    # every result also renders its text and JSON from the same parts
    rng = random.Random(seed)
    m = make_chart(["x", "y", "z"], [1, 0, 2], label="W")
    opts = dict(max_terms=2, max_degree=2)
    half = Fraction(1, 2)
    x = random_vector_field(rng, m, **opts) * half
    y = random_vector_field(rng, m, **opts)
    a = random_multivector(rng, m, 2, **opts)
    b = random_multivector(rng, m, rng.randint(1, 2), **opts) * half
    w = random_form(rng, m, 2, **opts)
    alpha = random_one_form(rng, m, **opts) * half
    k = random_vv_form(rng, m, 1, **opts)
    l = random_vv_form(rng, m, rng.randint(0, 2), **opts) * half
    t = random_tensor(rng, m, 1, 2, **opts)
    untagged = tensor_product(alpha, random_one_form(rng, m, **opts))
    f = p(m, 0) * half - 1
    results = [
        x + y, x - y, x - x, w + untagged, w - untagged, untagged - untagged,
        w * f, w * half, w * 0, t * p(m, 2),
        tensor_product(x, w), tensor_product(t, alpha),
        wedge(alpha, w), wedge(x, y), wedge(a, b),
        insert_multivector(x, w), insert_multivector(a, t),
        insert_form(alpha, a), insert_form(alpha, t),
        contract(t, 0, 0), contract(t, 0, 1),
        lie_derivative(x, t), lie_derivative(x, w), lie_derivative(y, a),
        exterior_derivative(w), exterior_derivative(alpha),
        exterior_derivative(scalar_field(m, f)),
        lie_bracket(x, y), lie_bracket(x, x), schouten_bracket(a, b),
        schouten_bracket(a, a), fn_bracket(k, l), nr_bracket(k, l),
    ]
    # scalars, zero scalars, a sym tag and constant coefficients +-1 and
    # fractions, which render without a coefficient or as a bare number
    dx, dy = coordinate_one_form(m, "x"), coordinate_one_form(m, "y")
    sym = tagged(tensor_product(dx, dx) + tensor_product(alpha, alpha), cov_sym="sym")
    results += [
        scalar_field(m, f), scalar_field(m, f) - scalar_field(m, f),
        scalar_field(m, Poly.const(m, rng.choice((-1, 1, half)))),
        sym,
        coordinate_vector_field(m, "z") - coordinate_vector_field(m, "x"),
        wedge(dx, dy) * -half + wedge(dy, coordinate_one_form(m, "z")),
    ]
    # the raw TensorField(...) producers outside the arithmetic above
    conn = tangent_connection(m, {(0, 1, 2): f, (2, 1, 1): half})
    results += [
        compose_11(k, l if l.p == 1 else k * half), compose_11(k, identity_tensor(m)),
        identity_tensor(m), weight_vector_field(m, 0),
        covariant_derivative(conn, x, y), *horizontal_fields(conn),
    ]
    ctx = LiftContext(m, r)
    results += [weight_vector_field(ctx.total, 0),
                *lift_distribution(Distribution(m, (x, y)), ctx).generators]
    for u in (x, a, w, t, untagged, k, sym, sym_power_sum(rng, m, 3, contra=True)):
        results += [lift_tensor(u, lam, ctx) for lam in range(-1, r + 2)]
    # the block-swapped insertion, on a sym block with repeated indices too
    sym_up = sym_power_sum(rng, m, 2, contra=True)
    results += [
        insert_form(alpha, sym_up), insert_form(w, sym_up), insert_form(sym, sym_up),
        insert_form(scalar_field(m, f), t), insert_form(w, tensor_product(a, alpha)),
    ]
    # scalar operands take the general paths of these operations
    s = scalar_field(m, f)
    results += [
        tensor_product(s, w), tensor_product(sym_up, s), tensor_product(s, s),
        tensor_product(s * 0, a), insert_multivector(s, sym), insert_multivector(s, t),
        lie_derivative(x, s), lie_derivative(x, scalar_field(m, half)),
    ]
    for res in results:
        assert_canonical(res)
        assert_rendered_once(res)
    assert (x - x).is_zero() and (untagged - untagged).is_zero()


@given(st.integers(0, 10 ** 9))
@settings(max_examples=30, deadline=None)
def test_scalar_operands_scale(seed):
    # a scalar factor scales the other operand and keeps its tags
    rng = random.Random(seed)
    f = random_poly(rng, E3, **_OPTS)
    x = random_vector_field(rng, E3, **_OPTS)
    for g in (f, f * 0, Poly.const(E3, Fraction(-1, 2))):
        s = scalar_field(E3, g)
        for t in (random_form(rng, E3, 2, **_OPTS), random_multivector(rng, E3, 3, **_OPTS),
                  sym_power_sum(rng, E3, 2), random_tensor(rng, E3, 1, 2, **_OPTS), s):
            for res in (tensor_product(s, t), tensor_product(t, s),
                        insert_multivector(s, t)):
                assert res == t * g
                assert (res.contra_sym, res.cov_sym) == (t.contra_sym, t.cov_sym)
        assert lie_derivative(x, s) == scalar_field(E3, vf_apply(x, g))


def insert_form_by_expansion(w: TensorField, t: TensorField) -> TensorField:
    """insert_form as a loop over expanded tables, as it was written before
    it became insert_multivector between two block swaps."""
    if w.p == 0:
        return t * w.scalar_part()
    u = w.p
    we = w.expand()
    out: dict = {}
    for (up, down), coef in t.expand().items():
        wv = we.get(((), up[:u]))
        if wv is not None:
            _acc(out, (up[u:], down), coef * wv)
    return tagged(TensorField(t.chart, t.q - u, t.p, out), t.contra_sym, t.cov_sym)


# contravariant operands with every tag: antisym, none, and sym with a
# repeated index; and covariant arguments of every degree and tag
INSERT_TARGETS = [
    lambda rng: random_multivector(rng, E3, 2, **_OPTS),
    lambda rng: random_tensor(rng, E3, 2, 1, **_OPTS),
    lambda rng: sym_power_sum(rng, E3, 2, contra=True),
    lambda rng: sym_power_sum(rng, E3, 3, contra=True),
    lambda rng: tensor_product(sym_power_sum(rng, E3, 2, contra=True),
                               random_form(rng, E3, 2, **_OPTS)),
    lambda rng: random_vv_form(rng, E3, 2, **_OPTS),
]
INSERT_ARGS = [
    lambda rng, u: random_form(rng, E3, u, **_OPTS),
    lambda rng, u: random_tensor(rng, E3, 0, u, **_OPTS),
    lambda rng, u: sym_power_sum(rng, E3, u) if u >= 2 else random_one_form(rng, E3, **_OPTS),
]


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_insert_form_matches_expanded_loop(seed):
    rng = random.Random(seed)
    t = rng.choice(INSERT_TARGETS)(rng)
    w = rng.choice(INSERT_ARGS)(rng, rng.randint(0, min(2, t.q)))
    got = insert_form(w, t)
    assert got == insert_form_by_expansion(w, t)
    assert (got.contra_sym, got.cov_sym) == (t.contra_sym if t.q - w.p >= 2 else "none",
                                             t.cov_sym)
    assert_canonical(got)


@given(st.integers(0, 10 ** 9), st.sampled_from(sorted(EQ_MAKERS)))
@settings(max_examples=40, deadline=None)
def test_swap_exchanges_blocks_and_tags(seed, valence):
    rng = random.Random(seed)
    t = rng.choice(EQ_MAKERS[valence])(rng)
    s = _swap(t)
    assert (s.q, s.p, s.contra_sym, s.cov_sym) == (t.p, t.q, t.cov_sym, t.contra_sym)
    assert s.expand() == {(down, up): c for (up, down), c in t.expand().items()}
    back = _swap(s)
    assert back == t
    assert (back.components, back.contra_sym, back.cov_sym) == \
        (t.components, t.contra_sym, t.cov_sym)
    assert_canonical(s)


# renders of the generators, each from a fresh Random(seed), and the next
# draw of that Random afterwards: a generator that draws differently shows
RANDOM_DRAWS = {
    ("vector_field", 5): ("-d/dx - 3*z*d/dy", 601820),
    ("one_form", 5): ("-dx - 3*z*dy", 601820),
    ("form 0", 5): ("z^2 - z + 3", 488240),
    ("form 2", 5): ("(-3*z^2 + 2*x + 3*z)*dx ^^ dy - 3*dx ^^ dz + (x + 1)*dy ^^ dz", 261442),
    ("multivector 0", 5): ("z^2 - z + 3", 488240),
    ("multivector 2", 5): ("(-3*z^2 + 2*x + 3*z)*d/dx ^^ d/dy - 3*d/dx ^^ d/dz"
                           " + (x + 1)*d/dy ^^ d/dz", 261442),
    ("vector_field", 1729): ("(2*x*y - 2)*d/dx + (-3*y*z - 2*y + 3)*d/dy"
                             " + (3*z^2 - y)*d/dz", 430543),
    ("one_form", 1729): ("(2*x*y - 2)*dx + (-3*y*z - 2*y + 3)*dy + (3*z^2 - y)*dz", 430543),
    ("form 0", 1729): ("2*x - 1", 910170),
    ("form 2", 1729): ("(-2*y^2 + 3)*dx ^^ dy + (2*x*y - 2)*dx ^^ dz"
                       " + (x*y + 3*z^2 - y)*dy ^^ dz", 430543),
    ("multivector 0", 1729): ("2*x - 1", 910170),
    ("multivector 2", 1729): ("(-2*y^2 + 3)*d/dx ^^ d/dy + (2*x*y - 2)*d/dx ^^ d/dz"
                              " + (x*y + 3*z^2 - y)*d/dy ^^ d/dz", 430543),
}
DRAW_MAKERS = {
    "vector_field": lambda rng: random_vector_field(rng, E3, max_components=3),
    "one_form": lambda rng: random_one_form(rng, E3, max_components=3),
    "form 0": lambda rng: random_form(rng, E3, 0),
    "form 2": lambda rng: random_form(rng, E3, 2, max_components=3),
    "multivector 0": lambda rng: random_multivector(rng, E3, 0),
    "multivector 2": lambda rng: random_multivector(rng, E3, 2, max_components=3),
}


@pytest.mark.parametrize("name,seed", sorted(RANDOM_DRAWS))
def test_random_generator_draws_frozen(name, seed):
    rng = random.Random(seed)
    text = render_tensor(DRAW_MAKERS[name](rng))
    assert (text, rng.randrange(10 ** 6)) == RANDOM_DRAWS[(name, seed)]


def sort_by_inversions(idx: tuple) -> tuple:
    """(sign, sorted key): the sign of a permutation is (-1)^inversions, 0
    when an index repeats."""
    if len(set(idx)) < len(idx):
        return 0, tuple(sorted(idx))
    inversions = sum(1 for i, j in itertools.combinations(range(len(idx)), 2)
                     if idx[i] > idx[j])
    return (-1) ** inversions, tuple(sorted(idx))


def test_sort_with_parity_matches_inversion_count():
    # every key of length 0-5 over indices 0..4, short keys included
    for n in range(6):
        for idx in itertools.product(range(5), repeat=n):
            sign, key = _sort_with_parity(idx)
            assert (sign, key) == sort_by_inversions(idx), idx
            assert type(key) is tuple


# What TensorField's operators refuse: (call, the value it returns).  A
# tensor equals no other object and no tensor on another chart, and an
# operand that is not a tensor (or, for *, a scalar) gets NotImplemented.
_DX = coordinate_vector_field(M, "x")
TENSOR_REFUSALS = {
    "eq-a-number": (lambda: (_DX.__eq__(1), _DX == 1), (NotImplemented, False)),
    "eq-across-charts": (lambda: (_DX == coordinate_vector_field(E3, "x"),
                                  TensorField(M, 1, 0, {}) == TensorField(E3, 1, 0, {})),
                         (False, False)),
    "add-a-number": (lambda: _DX.__add__(1), NotImplemented),
    "sub-a-number": (lambda: _DX.__sub__(1), NotImplemented),
    "mul-a-str": (lambda: _DX.__mul__("2"), NotImplemented),
}


@pytest.mark.parametrize("call,outcome", TENSOR_REFUSALS.values(), ids=TENSOR_REFUSALS)
def test_operators_refuse_what_they_cannot_take(call, outcome):
    assert call() == outcome
