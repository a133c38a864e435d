"""Chart construction and the derived chart builders."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcalc.charts import (Chart, cotangent_chart, make_chart,
                             phase_shifted_cotangent_chart, prolong_chart,
                             prolonged_base_name, prolonged_names,
                             shifted_dual_grl_chart, tangent_chart, vb_split)
from gradcalc.errors import GradcalcError
from gradcalc.lifts import LiftContext, lift_function
from gradcalc.poly import Poly
from gradcalc.render import chart_to_json
from gradcalc.tensor import (TensorField, coordinate_one_form,
                             coordinate_vector_field, vector_field,
                             weight_vector_field)


def test_make_chart_basics():
    m = make_chart(["x", "y"], [0, 2], label="M")
    assert m.dim == 2
    assert m.grading_count == 1
    assert m.weights == ((0,), (2,))
    assert m.index("y") == 1
    assert m.weights[1] == (2,)
    assert m.degree() == 2
    assert m.component_weights() == (0, 2)
    assert m.n_graded == (True,)


def test_component_out_of_range_raises():
    m = make_chart(["x", "y"], [0, 2])
    for bad in (1, -1):
        for call in (lambda: m.degree(bad), lambda: m.check_component(bad),
                     lambda: m.component_weights(bad)):
            with pytest.raises(GradcalcError, match="no such grading component"):
                call()
    assert make_chart([], []).degree() == 0



# Each of these was accepted, or failed with a bare TypeError or
# IndexError, before the builders shared Chart.index/check_component:
# -1 aliased y, True passed as 1 and a float slipped into a key.
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda m: coordinate_one_form(m, -1),
                 "variable index -1 outside 0..1", id="one-form-negative"),
    pytest.param(lambda m: coordinate_vector_field(m, 5),
                 "variable index 5 outside 0..1", id="vector-field-too-large"),
    pytest.param(lambda m: vector_field(m, {True: 1}),
                 "variable index must be an integer, not True", id="vector-field-bool"),
    pytest.param(lambda m: Poly.variable(m, True),
                 "variable index must be an integer, not True", id="variable-bool"),
    pytest.param(lambda m: Poly.variable(m, 1.0),
                 "variable index must be an integer, not 1.0", id="variable-float"),
    pytest.param(lambda m: TensorField.from_components(m, 1, 0, {((1.0,), ()): 1}),
                 "variable index must be an integer, not 1.0", id="from-components-float"),
    pytest.param(lambda m: coordinate_one_form(m, "q"),
                 "chart has no variable named 'q'", id="unknown-name"),
    pytest.param(lambda m: weight_vector_field(m, True),
                 "grading component must be an integer, not True", id="weight-field-bool"),
    pytest.param(lambda m: m.degree(1.0),
                 "grading component must be an integer, not 1.0", id="degree-float"),
])
def test_builders_reject_a_bad_index(build, message):
    m = make_chart(["x", "y"], [(0, 1), (1, 0)])
    with pytest.raises(GradcalcError, match=f"^{re.escape(message)}$"):
        build(m)


def test_builders_take_a_variable_by_name_or_index():
    m = make_chart(["x", "y"], [0, 1])
    assert coordinate_one_form(m, "y") == coordinate_one_form(m, 1)
    assert coordinate_vector_field(m, "x") == coordinate_vector_field(m, 0)
    assert vector_field(m, {"y": 2}) == vector_field(m, {1: 2})
    assert Poly.variable(m, "y") == Poly.variable(m, 1)
    assert m.index(1) == m.index("y") == 1

def test_make_chart_multi_component_and_z_grading():
    m = make_chart(["a", "b"], [(1, 0), (-1, 1)])
    assert m.grading_count == 2
    # a negative weight anywhere makes that component Z-graded
    assert m.n_graded == (False, True)


_E = make_chart(["x", "u"], [(0, 0), (1, 1)])


# Each of these built a chart, or failed with a bare TypeError, before
# Chart checked every chart it builds: "12" gave two gradings, 1.5
# became 1, True was kept as a bool, Chart itself took any names, and
# the derived charts took a float or bool order, shift or component.
# An empty weight row gave a chart with no grading, whose degree() raised.
# Chart kept a bool grading count and a str of names, and a non-int count
# or a bare-int row raised a bare TypeError.  make_chart split a str of
# names into one variable per letter, and Chart took any label.
@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_chart(["x"], ["12"]), id="weight-str"),
    pytest.param(lambda: make_chart(["x"], [(1.5,)]), id="weight-float"),
    pytest.param(lambda: make_chart(["x"], [True]), id="weight-bool"),
    pytest.param(lambda: make_chart(["x"], [()]), id="no-grading"),
    pytest.param(lambda: Chart((), (), 0), id="empty-no-grading"),
    pytest.param(lambda: make_chart(["x", "y"], [(0, 0), (1, False)]), id="weight-bool-in-row"),
    pytest.param(lambda: Chart((1,), ((0,),), 1), id="name-not-str"),
    pytest.param(lambda: Chart(("x-y",), ((0,),), 1), id="name-not-identifier"),
    pytest.param(lambda: Chart(("\u00e9",), ((0,),), 1), id="name-not-ascii"),
    pytest.param(lambda: Chart(("x", "x"), ((0,), (0,)), 1), id="name-repeated"),
    pytest.param(lambda: Chart(("x", "y"), ((0,),), 1), id="weights-names-mismatch"),
    pytest.param(lambda: Chart(("x",), ((0,),), True), id="grading-count-bool"),
    pytest.param(lambda: Chart(("x",), ((0,),), "1"), id="grading-count-str"),
    pytest.param(lambda: Chart(("x",), ((0,),), None), id="grading-count-none"),
    pytest.param(lambda: Chart(("x",), (0,), 1), id="row-bare-int"),
    pytest.param(lambda: Chart(("x",), 0, 1), id="weights-bare-int"),
    pytest.param(lambda: Chart("xy", ((0,), (0,)), 1), id="names-str"),
    pytest.param(lambda: make_chart("xy", [0, 1]), id="make-chart-names-str"),
    pytest.param(lambda: Chart(("x",), ((0,),), 1, 5), id="label-int"),
    pytest.param(lambda: Chart(("x",), ((0,),), 1, None), id="label-none"),
    pytest.param(lambda: phase_shifted_cotangent_chart(_E, 1.5), id="shifted-float"),
    pytest.param(lambda: phase_shifted_cotangent_chart(_E, True), id="shifted-bool"),
    pytest.param(lambda: prolong_chart(_E, True), id="prolong-bool"),
    pytest.param(lambda: prolong_chart(_E, 2.5), id="prolong-float"),
    pytest.param(lambda: shifted_dual_grl_chart(_E, 1.5, 1, 0), id="dual-float"),
    pytest.param(lambda: shifted_dual_grl_chart(_E, 1, 1, False), id="dual-bool-component"),
])
def test_every_chart_is_checked(build):
    with pytest.raises(GradcalcError):
        build()


def test_chart_from_lists_stores_tuples():
    # list names and rows were kept as lists, so every derived chart failed
    # on "can only concatenate list (not "tuple") to list"
    m = Chart(["x", "y"], [[0], [1]], 1, "M")
    assert m.names == ("x", "y") and m.weights == ((0,), (1,))
    assert prolong_chart(m, 1).names == ("x", "y", "x_1", "y_1")
    assert tangent_chart(m).weights == ((0, 0), (1, 0), (0, 1), (1, 1))
    ctx = LiftContext(m, 2)
    x = Poly.variable(m, 0)
    x0, x1 = Poly.variable(ctx.total, "x"), Poly.variable(ctx.total, "x_1")
    assert lift_function(x * x, 1, ctx) == x0 * x1 * 2


def test_make_chart_rejects_bad_input():
    with pytest.raises(GradcalcError, match="^variable name 'x' collides with an existing one$"):
        make_chart(["x", "x"], [0, 0])
    with pytest.raises(GradcalcError):
        make_chart(["3x"], [0])
    with pytest.raises(GradcalcError):
        make_chart(["x", "y"], [(0, 1), (0,)])


def test_index_unknown_name():
    m = make_chart(["x"], [0])
    with pytest.raises(GradcalcError):
        m.index("q")


def test_prolong_chart_layout():
    m = make_chart(["x", "y"], [1, 3], label="M")
    t2 = prolong_chart(m, 2)
    assert t2.names == ("x", "y", "x_1", "y_1", "x_2", "y_2")
    # level mu of variable i sits at mu*dim + i
    assert t2.names[1 * 2 + 0] == "x_1"
    assert t2.weights[t2.index("y_2")] == (3, 2)
    assert t2.weights[t2.index("x")] == (1, 0)
    assert t2.grading_count == 2
    assert t2.n_graded == (True, True)
    assert t2.label == "M^T2"
    assert prolong_chart(m, 0).names == m.names


def test_prolonged_base_name_inverts_prolonged_names():
    # a base name may itself end in _digits, as on a prolonged chart
    base = ["x", "y_1", "z_"]
    tails = [f"_{mu}" for mu in range(14)] + ["", "_", "_00", "_01", "_010", "_1_1",
                                              "_x", "_-1", "_\u0661"]
    candidates = [n + t for n in base + ["", "y", "w"] for t in tails]
    for r in range(-1, 13):
        named = {c for c in candidates if prolonged_base_name(c, r) in base}
        assert named == set(prolonged_names(base, r))
        for name in prolonged_names(base, r):
            assert prolonged_base_name(name, r) == name.rpartition("_")[0]
    assert prolonged_base_name("x_99999999", 10 ** 8) == "x"
    assert prolonged_base_name("x_" + "9" * 5000, 10 ** 8) is None


def test_prolong_rejects_collisions_and_bad_order():
    m = make_chart(["x", "x_1"], [0, 0])
    with pytest.raises(GradcalcError, match="^variable name 'x_1' collides with an existing one$"):
        prolong_chart(m, 1)
    with pytest.raises(GradcalcError, match="^prolongation order must be >= 0$"):
        prolong_chart(make_chart(["x"], [0]), -1)


def test_tangent_chart():
    m = make_chart(["x", "y"], [1, 2], label="M")
    tm = tangent_chart(m)
    assert tm.names == ("x", "y", "x_dot", "y_dot")
    assert tm.weights == ((1, 0), (2, 0), (1, 1), (2, 1))
    assert tm.label == "TM"
    base, fibre = vb_split(tm, 1)
    assert base == (0, 1) and fibre == (2, 3)


def test_cotangent_chart_negates_weights():
    m = make_chart(["x", "y"], [1, 2], label="M")
    cm = cotangent_chart(m)
    assert cm.names == ("x", "y", "p_x", "p_y")
    assert cm.weights == ((1, 0), (2, 0), (-1, 1), (-2, 1))
    # the original component now holds -1, -2: Z-graded
    assert cm.n_graded == (False, True)


def test_phase_shifted_cotangent_chart():
    m = make_chart(["x", "y"], [1, 2], label="M")
    pm = phase_shifted_cotangent_chart(m, 2)
    assert pm.weights == ((1, 0), (2, 0), (1, 1), (0, 1))
    assert pm.n_graded == (True, True)
    assert pm.label == "T*[2]M"
    with pytest.raises(GradcalcError):
        phase_shifted_cotangent_chart(m, 1)
    with pytest.raises(GradcalcError):
        phase_shifted_cotangent_chart(m, 2, component=3)


def test_vb_split_requires_zero_one_weights():
    m = make_chart(["x", "y"], [(0, 0), (0, 2)])
    with pytest.raises(GradcalcError):
        vb_split(m, 1)
    with pytest.raises(GradcalcError):
        vb_split(m, 5)


def test_shifted_dual_is_an_involution_on_weights():
    m = make_chart(["x", "u", "v"], [(0, 0), (1, 1), (3, 1)], label="E")
    d = shifted_dual_grl_chart(m, 3, vb_component=1, graded_component=0)
    assert d.names == ("x", "p_u", "p_v")
    assert d.weights == ((0, 0), (2, 1), (0, 1))
    dd = shifted_dual_grl_chart(d, 3, vb_component=1, graded_component=0)
    assert dd.weights == m.weights
    assert dd.names == ("x", "p_p_u", "p_p_v")
    with pytest.raises(GradcalcError):
        shifted_dual_grl_chart(m, 3, vb_component=1, graded_component=1)
    # a dual name may take the place of the fibre variable it replaces,
    # but not of a variable that stays
    z = make_chart(["x", "z", "p_z"], [(0, 0), (0, 1), (0, 1)])
    assert shifted_dual_grl_chart(z, 0, 1).names == ("x", "p_z", "p_p_z")
    with pytest.raises(GradcalcError, match="^variable name 'p_u' collides"):
        shifted_dual_grl_chart(make_chart(["p_u", "u"], [(0, 0), (1, 1)]), 1, 1)


def test_charts_compare_by_identity():
    a = make_chart(["x"], [0])
    b = make_chart(["x"], [0])
    assert a is not b
    assert (a == b) is False or a != b  # no structural equality


def _chart_json(label, rows, n_graded):
    return {"type": "chart", "label": label,
            "vars": [{"name": n, "weights": list(w)} for n, w in rows],
            "n_graded": n_graded}


_E_ROWS = [("x", (1, 0, 0)), ("u", (-1, 1, 0)), ("v", (2, 1, 0))]

# Each derived chart of E = {x:(1,0), u:(-1,1), v:(2,1)} (component 0
# Z-graded, component 1 a vector-bundle grading) as (repr, chart_to_json).
DERIVED_FROZEN = [
    (lambda e: prolong_chart(e, 1),
     "<E^T1 {x:(1, 0, 0), u:(-1, 1, 0), v:(2, 1, 0), x_1:(1, 0, 1), "
     "u_1:(-1, 1, 1), v_1:(2, 1, 1)}>",
     _chart_json("E^T1", _E_ROWS + [("x_1", (1, 0, 1)), ("u_1", (-1, 1, 1)),
                                    ("v_1", (2, 1, 1))], [False, True, True])),
    (tangent_chart,
     "<TE {x:(1, 0, 0), u:(-1, 1, 0), v:(2, 1, 0), x_dot:(1, 0, 1), "
     "u_dot:(-1, 1, 1), v_dot:(2, 1, 1)}>",
     _chart_json("TE", _E_ROWS + [("x_dot", (1, 0, 1)), ("u_dot", (-1, 1, 1)),
                                  ("v_dot", (2, 1, 1))], [False, True, True])),
    (cotangent_chart,
     "<T*E {x:(1, 0, 0), u:(-1, 1, 0), v:(2, 1, 0), p_x:(-1, 0, 1), "
     "p_u:(1, -1, 1), p_v:(-2, -1, 1)}>",
     _chart_json("T*E", _E_ROWS + [("p_x", (-1, 0, 1)), ("p_u", (1, -1, 1)),
                                   ("p_v", (-2, -1, 1))], [False, False, True])),
    (lambda e: phase_shifted_cotangent_chart(e, 2),
     "<T*[2]E {x:(1, 0, 0), u:(-1, 1, 0), v:(2, 1, 0), p_x:(1, 0, 1), "
     "p_u:(3, -1, 1), p_v:(0, -1, 1)}>",
     _chart_json("T*[2]E", _E_ROWS + [("p_x", (1, 0, 1)), ("p_u", (3, -1, 1)),
                                      ("p_v", (0, -1, 1))], [False, False, True])),
    (lambda e: shifted_dual_grl_chart(e, 3, vb_component=1, graded_component=0),
     "<(E)*[3] {x:(1, 0), p_u:(4, 1), p_v:(1, 1)}>",
     _chart_json("(E)*[3]", [("x", (1, 0)), ("p_u", (4, 1)), ("p_v", (1, 1))],
                 [True, True])),
]


@pytest.mark.parametrize("build,text,doc", DERIVED_FROZEN)
def test_derived_charts_frozen(build, text, doc):
    c = build(make_chart(["x", "u", "v"], [(1, 0), (-1, 1), (2, 1)], label="E"))
    assert repr(c) == text
    assert chart_to_json(c) == doc


# One step of a constructor chain: (name, grading components it adds).
_STEPS = (("prolong", 1), ("tangent", 1), ("cotangent", 1), ("shifted", 1),
          ("dual", 0))


def _step(chart, name, arg):
    if name == "prolong":
        return prolong_chart(chart, arg % 3)
    if name == "tangent":
        return tangent_chart(chart)
    if name == "cotangent":
        return cotangent_chart(chart)
    c = arg % chart.grading_count
    if name == "shifted":
        return phase_shifted_cotangent_chart(chart, chart.degree(c) + arg % 2, c)
    # the last component of a fibred or prolonged chart is a VB grading
    # only when its weights lie in {0, 1}; otherwise skip the dual
    vb = chart.grading_count - 1
    if vb == 0 or any(w not in (0, 1) for w in chart.component_weights(vb)):
        return None
    return shifted_dual_grl_chart(chart, arg, vb, c if c != vb else 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 3), min_size=1, max_size=2),
                min_size=1, max_size=2),
       st.integers(1, 2),
       st.lists(st.tuples(st.sampled_from(_STEPS), st.integers(0, 5)),
                max_size=3))
def test_chain_flags_follow_weights(rows, d, steps):
    # n_graded says "no negative weight in the component", and each
    # prolongation, tangent or cotangent step adds one grading component
    names = ["x", "y"][:len(rows)]
    chart = make_chart(names, [(r * d)[:d] for r in rows])
    for (name, added), arg in steps:
        try:
            nxt = _step(chart, name, arg)
        except GradcalcError as e:      # x_1 of a second prolongation
            assert "collides" in str(e)
            continue
        if nxt is None:
            continue
        assert nxt.grading_count == chart.grading_count + added
        chart = nxt
        assert len(set(chart.names)) == chart.dim
        assert all(n.isascii() and n.isidentifier() for n in chart.names)
        assert all(len(w) == chart.grading_count and
                   all(type(c) is int for c in w) for w in chart.weights)
        assert chart.n_graded == tuple(
            all(w[c] >= 0 for w in chart.weights)
            for c in range(chart.grading_count))
