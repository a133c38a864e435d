"""Differential operators and classical brackets.

Everything here is computed componentwise in one chart with exact
rational coefficients.  Each bracket is a direct formula over the stored
components of its arguments, so it is an independent code path and not
a reduction to another bracket.  Every kernel differentiates a factor
only in a variable that factor uses (its variables_used()), so no
derivative taken here is zero.  The Poly keeps that set, so it is built
once per polynomial, not recomputed per component or per call.  A
kernel asks for a component's derivative once per partner component,
but Poly.diff keeps what it computes, so each derivative is computed
once per polynomial, not per use.  Each kernel adds sign * f * g term
by term into one term dict per output key (poly._acc_product) and
wraps each surviving dict in a Poly once at the end, so no Poly is
built per term of a formula.  A stored (1, k) component is
written f d_m ox dx^I (key ((m,), I), I increasing), a stored
multivector component f d_I; every index sequence below is sorted
with the sign of its permutation, and a sequence with a repeated index
gives zero.  Removing m from position p of J (0-based) is written J - m
and costs the sign (-1)^p; d_v f is the partial derivative.

* d(f dx^I) = sum_v d_v f dx^(v, I), the unnormalized wedge df ^^ dx^I;
* [X, Y] = X(Y^k) d/dk - Y(X^k) d/dk;
* Schouten: f d_I (degree k) against g d_J gives
    (-1)^(k-1) sum_i f d_{I_i}g d_(I - I_i, J) - sum_j g d_{J_j}f d_(I, J - J_j);
* the differential-graded (Frolicher-Nijenhuis) bracket of f d_m ox dx^I
  (degree k) and g d_n ox dx^J, with eps = (-1)^k, is
    f d_m(g) d_n ox dx^(I, J) - d_n(f) g d_m ox dx^(I, J)
      + eps sum_s d_s(f) g d_n ox dx^(s, I, J - m)
      + eps sum_s f d_s(g) d_m ox dx^(I - n, s, J),
  the last two terms only when m is in J, resp. n is in I; on
  decomposables this is mu^^nu ox [X,Y] + mu^^L_X(nu) ox Y
  - L_Y(mu)^^nu ox X + (-1)^k (d(mu)^^i_X(nu) ox Y + i_Y(mu)^^d(nu) ox X);
* the algebraic (Nijenhuis-Richardson) bracket of the same data is
    f g d_n ox dx^(I, J - m) + eps f g d_m ox dx^(I - n, J),
  each term only when m is in J, resp. n is in I; on decomposables this
  is mu^^i_X(nu) ox Y + (-1)^k i_Y(mu)^^nu ox X.
"""

from __future__ import annotations

from .errors import ChartMismatchError, ValenceError
from .poly import Poly, _acc_poly, _acc_product, _polys
from .tensor import TensorField, _from_expanded, _same_chart, _sort_with_parity

__all__ = [
    "exterior_derivative", "lie_bracket", "lie_derivative", "vf_apply",
    "schouten_bracket", "fn_bracket", "nr_bracket",
    "nijenhuis_torsion", "concomitant",
]


def _acc_sorted(out: dict, up: tuple, idx: tuple, f: Poly, g: Poly, sign: int = 1,
                f_var: int | None = None, g_var: int | None = None) -> None:
    """Add sign * f * g at (up, idx sorted), signed by the sorting permutation,
    into an accumulator store of poly._acc_product.

    f_var / g_var, when given, replace f / g by its partial derivative in
    that variable; callers pass only variables the factor uses, so the
    derivative is nonzero.  A repeated index in idx makes the term zero
    and drops it before any derivative or the product f * g is formed.
    """
    s, down = _sort_with_parity(idx)
    if not s:
        return
    if f_var is not None:
        f = f.diff(f_var)
    if g_var is not None:
        g = g.diff(g_var)
    _acc_product(out, (up, down), f, g, s * sign)


def _require_form(w: TensorField) -> None:
    if w.q != 0:
        raise ValenceError("expected a differential form (purely covariant)")
    if w.p >= 2 and w.cov_sym != "antisym":
        raise ValenceError("forms of degree >= 2 must be antisym-tagged")


def _require_multivector(a: TensorField) -> None:
    if a.p != 0:
        raise ValenceError("expected a multivector field (purely contravariant)")
    if a.q >= 2 and a.contra_sym != "antisym":
        raise ValenceError("multivectors of degree >= 2 must be antisym-tagged")


def _require_vvform(a: TensorField) -> None:
    if a.q != 1:
        raise ValenceError("expected a vector-valued form (one contravariant slot)")
    if a.p >= 2 and a.cov_sym != "antisym":
        raise ValenceError("vector-valued forms of degree >= 2 must be antisym-tagged")


def exterior_derivative(w: TensorField) -> TensorField:
    """Exterior derivative of a (0, p) antisymmetric form."""
    _require_form(w)
    out: dict = {}
    for (_, down), coef in w.components.items():
        for var in coef.variables_used():
            if var in down:
                continue  # dx^var ^^ dx^down repeats an index
            s, idx = _sort_with_parity((var,) + down)
            d = coef.diff(var)
            _acc_poly(out, ((), idx), d if s == 1 else -d)
    return TensorField(w.chart, 0, w.p + 1, _polys(w.chart, out), cov_sym="antisym")


def lie_bracket(x: TensorField, y: TensorField) -> TensorField:
    """Commutator of two vector fields."""
    _same_chart(x, y)
    if (x.q, x.p) != (1, 0) or (y.q, y.p) != (1, 0):
        raise ValenceError("lie_bracket needs two vector fields")
    out: dict = {}
    ys = [(k, yk, yk.variables_used()) for ((k,), _), yk in y.components.items()]
    for ((j,), _), xj in x.components.items():
        x_vars = xj.variables_used()
        for k, yk, y_vars in ys:
            if j in y_vars:
                _acc_product(out, ((k,), ()), xj, yk.diff(j))      # X^j d_j Y^k
            if k in x_vars:
                _acc_product(out, ((j,), ()), yk, xj.diff(k), -1)  # - Y^k d_k X^j
    return TensorField(x.chart, 1, 0, _polys(x.chart, out))


def vf_apply(x: TensorField, f: Poly) -> Poly:
    """Directional derivative X(f)."""
    if x.chart is not f.chart:
        raise ChartMismatchError("function lives on a different chart than the vector field")
    if (x.q, x.p) != (1, 0):
        raise ValenceError("expected a vector field")
    f_vars = f.variables_used()
    return Poly.from_terms(f.chart, (mc for ((j,), _), xj in x.components.items()
                                     if j in f_vars for mc in (xj * f.diff(j)).terms.items()))


def lie_derivative(x: TensorField, t: TensorField) -> TensorField:
    """Lie derivative of an arbitrary (q, p) tensor along a vector field.

    Componentwise: X(K^I_J) minus one derivative-of-X term per
    contravariant slot plus one per covariant slot.  Symmetry tags of t
    are preserved.
    """
    _same_chart(x, t)
    if (x.q, x.p) != (1, 0):
        raise ValenceError("first argument must be a vector field")
    xc = {i: (c, c.variables_used()) for ((i,), _), c in x.components.items()}
    out: dict = {}
    for (up, down), coef in t.expand().items():
        coef_vars = coef.variables_used()
        for j, (xj, _) in xc.items():
            if j in coef_vars:
                _acc_product(out, (up, down), xj, coef.diff(j))
        # each derivative-of-X term lands on a key with one index replaced
        for a, l in enumerate(up):
            for i, (xi, xi_vars) in xc.items():
                if l in xi_vars:
                    _acc_product(out, (up[:a] + (i,) + up[a + 1:], down), coef, xi.diff(l), -1)
        for b, s in enumerate(down):
            if s in xc:
                xs, xs_vars = xc[s]
                for j in xs_vars:
                    _acc_product(out, (up, down[:b] + (j,) + down[b + 1:]), coef, xs.diff(j))
    return _from_expanded(t.chart, t.q, t.p, _polys(t.chart, out), t.contra_sym, t.cov_sym)


def schouten_bracket(a: TensorField, b: TensorField) -> TensorField:
    """Schouten bracket of multivector fields (degrees k, l >= 1).

    Component formula in the module docstring.  Output degree k + l - 1.
    """
    _same_chart(a, b)
    _require_multivector(a)
    _require_multivector(b)
    k, l = a.q, b.q
    if k < 1 or l < 1:
        raise ValenceError("schouten_bracket needs multivector degrees >= 1")
    out: dict = {}
    bs = [(ub, g, g.variables_used()) for (ub, _), g in b.components.items()]
    for (ua, _), f in a.components.items():
        f_vars = f.variables_used()
        for ub, g, g_vars in bs:
            for i, v in enumerate(ua):
                if v in g_vars:
                    _acc_sorted(out, (), ua[:i] + ua[i + 1:] + ub, f, g,
                                (-1) ** (i + k - 1), g_var=v)
            for j, v in enumerate(ub):
                if v in f_vars:
                    _acc_sorted(out, (), ua + ub[:j] + ub[j + 1:], g, f,
                                -(-1) ** j, g_var=v)
    return TensorField(a.chart, k + l - 1, 0,
                       {(up, ()): c for (_, up), c in _polys(a.chart, out).items()},
                       contra_sym="antisym")


def fn_bracket(a: TensorField, b: TensorField) -> TensorField:
    """Differential-graded bracket of vector-valued forms.

    Component formula in the module docstring; on vector fields
    (k = l = 0) this is the commutator.  Output degree k + l.
    """
    _same_chart(a, b)
    _require_vvform(a)
    _require_vvform(b)
    eps = (-1) ** a.p
    out: dict = {}
    bs = [(n, db, g, g.variables_used()) for ((n,), db), g in b.components.items()]
    for ((m,), da), f in a.components.items():
        f_vars = f.variables_used()
        for n, db, g, g_vars in bs:
            if m in g_vars:
                _acc_sorted(out, (n,), da + db, f, g, g_var=m)
            if n in f_vars:
                _acc_sorted(out, (m,), da + db, f, g, -1, f_var=n)
            if m in db:
                p = db.index(m)
                rest = db[:p] + db[p + 1:]
                for s in f_vars:
                    _acc_sorted(out, (n,), (s,) + da + rest, f, g,
                                eps * (-1) ** p, f_var=s)
            if n in da:
                p = da.index(n)
                rest = da[:p] + da[p + 1:]
                for s in g_vars:
                    _acc_sorted(out, (m,), rest + (s,) + db, f, g,
                                eps * (-1) ** p, g_var=s)
    return TensorField(a.chart, 1, a.p + b.p, _polys(a.chart, out), cov_sym="antisym")


def nr_bracket(a: TensorField, b: TensorField) -> TensorField:
    """Algebraic bracket of vector-valued forms.

    Component formula in the module docstring.  Output degree k + l - 1.
    """
    _same_chart(a, b)
    _require_vvform(a)
    _require_vvform(b)
    k, l = a.p, b.p
    if k + l < 1:
        raise ValenceError("algebraic bracket of two vector fields is zero-degree; need k + l >= 1")
    out: dict = {}
    for ((m,), da), f in a.components.items():
        for ((n,), db), g in b.components.items():
            if m in db:
                p = db.index(m)
                _acc_sorted(out, (n,), da + db[:p] + db[p + 1:], f, g, (-1) ** p)
            if n in da:
                p = da.index(n)
                _acc_sorted(out, (m,), da[:p] + da[p + 1:] + db, f, g,
                            (-1) ** (k + p))
    return TensorField(a.chart, 1, k + l - 1, _polys(a.chart, out), cov_sym="antisym")


def nijenhuis_torsion(n: TensorField) -> TensorField:
    """Torsion of a (1,1) tensor: half the defect of N from integrability,
    computed as the bracket of N with itself (a vector-valued 2-form)."""
    if (n.q, n.p) != (1, 1):
        raise ValenceError("nijenhuis_torsion needs a (1,1) tensor")
    return fn_bracket(n, n)


def concomitant(lam: TensorField, n: TensorField) -> TensorField:
    """Compatibility concomitant of a bivector and a (1,1) tensor.

    Returns the (2,1) tensor with components

      C^{ij}_s = L^{lj} d_l N^i_s + L^{il} d_l N^j_s - N^l_s d_l L^{ij}
                 + N^j_l d_s L^{il} - L^{lj} d_s N^i_l

    (sum over l; d_l is the partial derivative).  Vanishes identically
    when N is the identity.
    """
    _same_chart(lam, n)
    if (lam.q, lam.p) != (2, 0):
        raise ValenceError("first argument must be a bivector")
    if (n.q, n.p) != (1, 1):
        raise ValenceError("second argument must be a (1,1) tensor")
    out: dict = {}
    ns = [(i, s, b, b.variables_used()) for ((i,), (s,)), b in n.components.items()]
    for ((u, v), _), a in lam.expand().items():
        a_vars = a.variables_used()
        for i, s, b, b_vars in ns:
            if u in b_vars:
                _acc_product(out, ((i, v), (s,)), a, b.diff(u))       # L^{lj} d_l N^i_s
            if v in b_vars:
                _acc_product(out, ((u, i), (s,)), a, b.diff(v))       # L^{il} d_l N^j_s
            if i in a_vars:
                _acc_product(out, ((u, v), (s,)), b, a.diff(i), -1)   # - N^l_s d_l L^{ij}
            if s == v:
                for w in a_vars:
                    _acc_product(out, ((u, i), (w,)), b, a.diff(w))   # N^j_l d_s L^{il}
            if s == u:
                for w in b_vars:
                    _acc_product(out, ((i, v), (w,)), a, b.diff(w), -1)  # - L^{lj} d_s N^i_l
    return TensorField(lam.chart, 2, 1, _polys(lam.chart, out))
