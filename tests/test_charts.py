"""Chart construction and the derived chart builders."""

import pytest

from gradcalc.charts import (cotangent_chart, make_chart,
                             phase_shifted_cotangent_chart, prolong_chart,
                             shifted_dual_grl_chart, tangent_chart, vb_split)
from gradcalc.errors import GradcalcError


def test_make_chart_basics():
    m = make_chart(["x", "y"], [0, 2], label="M")
    assert m.dim == 2
    assert m.grading_count == 1
    assert m.weights == ((0,), (2,))
    assert m.index("y") == 1
    assert m.weight(1) == 2
    assert m.degree() == 2
    assert m.component_weights() == (0, 2)
    assert m.n_graded == (True,)


def test_component_out_of_range_raises():
    m = make_chart(["x", "y"], [0, 2])
    for bad in (1, -1):
        for call in (lambda: m.degree(bad), lambda: m.weight(0, bad),
                     lambda: m.component_weights(bad)):
            with pytest.raises(GradcalcError, match="no such grading component"):
                call()
    assert make_chart([], []).degree() == 0


def test_make_chart_multi_component_and_z_grading():
    m = make_chart(["a", "b"], [(1, 0), (-1, 1)])
    assert m.grading_count == 2
    # a negative weight anywhere makes that component Z-graded
    assert m.n_graded == (False, True)
    explicit = make_chart(["a"], [(1,)], n_graded=[False])
    assert explicit.n_graded == (False,)


def test_make_chart_rejects_bad_input():
    with pytest.raises(GradcalcError):
        make_chart(["x", "x"], [0, 0])
    with pytest.raises(GradcalcError):
        make_chart(["3x"], [0])
    with pytest.raises(GradcalcError):
        make_chart(["x", "y"], [(0, 1), (0,)])
    with pytest.raises(GradcalcError):
        make_chart(["x"], [0], n_graded=[True, True])


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


def test_prolong_rejects_collisions_and_bad_order():
    m = make_chart(["x", "x_1"], [0, 0])
    with pytest.raises(GradcalcError):
        prolong_chart(m, 1)
    with pytest.raises(GradcalcError):
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


def test_charts_compare_by_identity():
    a = make_chart(["x"], [0])
    b = make_chart(["x"], [0])
    assert a is not b
    assert (a == b) is False or a != b  # no structural equality
