"""Independent cross-check paths for lifts and brackets.

Nothing here calls the bracket or lift implementations: the Taylor
oracle recomputes lifts by repeated symbolic differentiation in the
deformation parameter, the point oracle evaluates tensors exactly at
rational points (the spot check draws sampling.SAMPLES of them from
`seed`, as every sampled check does), and the bracket-difference
oracle recomputes the compatibility concomitant from a Koszul bracket
of one-forms built out of raw partial derivatives.  Agreement of an oracle with the main
code path is therefore a genuine two-implementation check.

Koszul conventions used by the bracket oracle (frozen after calibration
against the coordinate display of the concomitant; the sharp pairs the
second contravariant slot, the one choice that makes the two paths agree
identically):

* sharp(P, alpha)^i = P^{ij} alpha_j;
* the scalar term is read through the sharp, <beta, sharp(P, alpha)>;
* [alpha, beta]_P = L_{sharp(P,alpha)} beta - L_{sharp(P,beta)} alpha
                    - d <beta, sharp(P, alpha)>  for skew P;
* the composite tensor is (LN)^{uw} = Lambda^{ul} N^w_l, and its bracket
  transports each one-form along the sharp image of the other, with no
  index scatter, then adds the contraction of both forms with the plain
  coordinate derivative of the composite:

      [alpha, beta]_{LN, s} = (sharp(LN, alpha))^k d_k beta_s
                            - (sharp(LN, beta))^k d_k alpha_s
                            + d_s((LN)^{uw}) alpha_w beta_u.

  For N = id this collapses to the skew bracket of Lambda, so the
  concomitant with the identity vanishes by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .charts import Chart, _check_int
from .checkers import CheckReport
from .errors import ChartMismatchError, GradcalcError, ValenceError
from .lifts import LiftContext
from .poly import Poly, _coef
from .render import key_text, point_text
from .sampling import SAMPLES
from .tensor import TensorField

__all__ = [
    "taylor_lift_oracle", "evaluate_tensor_at", "identity_spot_check",
    "koszul_concomitant_oracle",
]


def taylor_lift_oracle(f: Poly, lam: int, ctx: LiftContext) -> Poly:
    """Lift of a function by differentiating the deformed function.

    Substitutes the level expansion into f, takes d^lam/dt^lam of the
    result symbolically, divides by lam factorial and sets t = 0.  The
    main lift path reads each monomial's t^lam coefficient off its
    multinomial expansion and never substitutes, so the two only agree
    if both are right.
    """
    if f.chart is not ctx.base:
        raise ChartMismatchError("function does not live on the context's base chart")
    _check_int(lam, "lift level")
    if lam < 0 or lam > ctx.r:
        raise GradcalcError(f"lift order {lam} outside 0..{ctx.r}")
    total = ctx.total
    tname = "_s"
    while tname in total.names:
        tname += "_"
    scratch = Chart(total.names + (tname,),
                    total.weights + ((0,) * total.grading_count,),
                    total.grading_count, "taylor scratch")
    t = total.dim
    images = {}
    for i in range(ctx.base.dim):
        acc = Poly.zero(scratch)
        for mu in range(ctx.r + 1):
            acc = acc + Poly.variable(scratch, ctx.var(i, mu)) * \
                Poly.variable(scratch, t) ** mu
        images[i] = acc
    g = f.substitute(images, target=scratch)
    for _ in range(lam):
        g = g.diff(t)
    at_zero = {m: c for m, c in g.terms.items() if all(v != t for v, _ in m)}
    return Poly(scratch, at_zero).reindex(total) / factorial(lam)


def evaluate_tensor_at(k: TensorField, point: dict) -> dict:
    """Exact values of all expanded components at one rational point.

    point maps each variable (index or name) once to a number (an int or a
    Fraction, by poly._coef, the input check this oracle shares) and must
    cover the whole chart.  Returns {(up, down): Fraction}, zeros dropped.
    """
    chart = k.chart
    pt = {}
    for key, v in point.items():
        i = chart.index(key)
        if i in pt:
            raise GradcalcError(f"evaluation point gives variable {chart.names[i]} twice")
        pt[i] = _coef(v)
    missing = set(range(chart.dim)) - set(pt)
    if missing:
        names = ", ".join(chart.names[i] for i in sorted(missing))
        raise GradcalcError(f"evaluation point misses variables: {names}")
    out = {}
    for key, coef in k.expand().items():
        v = coef.evaluate(pt)
        if v:
            out[key] = v
    return out


def _spot_points(chart: Chart, seed: int) -> list:
    """SAMPLES seeded rational points of the chart: numerators from
    -5..5 (0 becomes 1), denominators from 1..3."""
    rng = random.Random(seed)
    return [{i: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
             for i in range(chart.dim)} for _ in range(SAMPLES)]


def identity_spot_check(lhs: TensorField, rhs: TensorField, seed: int = 0) -> CheckReport:
    """Compare two tensors numerically at SAMPLES seeded rational points.

    A symbolic equality check subsumes this; it exists as a second line
    of defense with a concrete witness point on failure.
    """
    lhs._check(rhs)
    names = lhs.chart.names
    for pt in _spot_points(lhs.chart, seed):
        a = evaluate_tensor_at(lhs, pt)
        b = evaluate_tensor_at(rhs, pt)
        if a != b:
            key = sorted(set(a) | set(b), key=lambda k0: (a.get(k0, 0) == b.get(k0, 0), k0))[0]
            return CheckReport(
                False, seed=seed,
                witness=f"component {key_text(names, key)} is {a.get(key, 0)} vs "
                        f"{b.get(key, 0)} at {point_text(names, pt)}")
    return CheckReport(True, seed=seed)


# -- Koszul-bracket path to the concomitant -----------------------------------
#
# One-forms and vector fields are handled as plain {index: Poly} tables so
# this path shares only the polynomial kernel with the rest of the engine.

def _add(out: dict, key, v: Poly) -> None:
    """out[key] += v; a key whose sum is zero leaves out"""
    prev = out.get(key)
    acc = v if prev is None else prev + v
    if acc:
        out[key] = acc
    elif prev is not None:
        del out[key]


def _d_fun(chart: Chart, f: Poly) -> dict:
    out = {}
    for s in f.variables_used():
        d = f.diff(s)
        if d:
            out[s] = d
    return out


def _lie_form(chart: Chart, x: dict, beta: dict) -> dict:
    # (L_X beta)_s = X^i d_i beta_s + beta_i d_s X^i
    out: dict = {}
    for s in range(chart.dim):
        acc = Poly.zero(chart)
        bs = beta.get(s)
        if bs is not None:
            for i, xi in x.items():
                d = bs.diff(i)
                if d:
                    acc = acc + xi * d
        for i, bi in beta.items():
            xi = x.get(i)
            if xi is not None:
                d = xi.diff(s)
                if d:
                    acc = acc + bi * d
        if acc:
            out[s] = acc
    return out


def _sharp(p: dict, alpha: dict) -> dict:
    # sharp(P, alpha)^i = P^{ij} alpha_j
    out: dict = {}
    for (i, j), pij in p.items():
        aj = alpha.get(j)
        if aj is not None:
            _add(out, i, pij * aj)
    return out


def _pair(chart: Chart, p: dict, alpha: dict, beta: dict) -> Poly:
    # <beta, sharp(P, alpha)> = P^{ij} beta_i alpha_j
    acc = Poly.zero(chart)
    for (i, j), pij in p.items():
        bi = beta.get(i)
        aj = alpha.get(j)
        if bi is not None and aj is not None:
            acc = acc + pij * bi * aj
    return acc


def _koszul(chart: Chart, p: dict, alpha: dict, beta: dict) -> dict:
    left = _lie_form(chart, _sharp(p, alpha), beta)
    right = _lie_form(chart, _sharp(p, beta), alpha)
    mid = _d_fun(chart, _pair(chart, p, alpha, beta))
    out: dict = {}
    for s in set(left) | set(right) | set(mid):
        acc = left.get(s, Poly.zero(chart)) - right.get(s, Poly.zero(chart)) \
            - mid.get(s, Poly.zero(chart))
        if acc:
            out[s] = acc
    return out


def _form_acc(out: dict, form: dict, sign: int) -> None:
    for s, v in form.items():
        _add(out, s, v * sign)


def koszul_concomitant_oracle(lam: TensorField, n: TensorField,
                              alpha: TensorField, beta: TensorField) -> TensorField:
    """Concomitant paired with two one-forms, via bracket differences.

    Computes [alpha, beta]_{N Lambda} - [N^t alpha, beta]_Lambda
    - [alpha, N^t beta]_Lambda + N^t [alpha, beta]_Lambda with the
    conventions in the module docstring, and returns the one-form.  It
    must equal the coordinate concomitant with alpha and beta inserted
    into the contravariant slots.
    """
    chart = lam.chart
    for t in (n, alpha, beta):
        if t.chart is not chart:
            raise ChartMismatchError("arguments live on different charts")
    if (lam.q, lam.p) != (2, 0):
        raise ValenceError("first argument must be a bivector")
    if (n.q, n.p) != (1, 1):
        raise ValenceError("second argument must be a (1,1) tensor")
    if (alpha.q, alpha.p) != (0, 1) or (beta.q, beta.p) != (0, 1):
        raise ValenceError("pairing arguments must be one-forms")
    lam_m = {(i, j): c for ((i, j), _), c in lam.expand().items()}
    n_m = {(i, s): c for ((i,), (s,)), c in n.expand().items()}
    a = {s: c for (_, (s,)), c in alpha.components.items()}
    b = {s: c for (_, (s,)), c in beta.components.items()}

    def n_transpose(form: dict) -> dict:
        # (N^t w)_s = w_i N^i_s
        out: dict = {}
        for (i, s), nis in n_m.items():
            wi = form.get(i)
            if wi is not None:
                _add(out, s, nis * wi)
        return out

    comp = {}
    for (u, l), lul in lam_m.items():
        for (w, l2), nwl in n_m.items():
            if l2 == l:
                _add(comp, (u, w), lul * nwl)

    def transport(x: dict, form: dict) -> dict:
        # componentwise derivative along x, no index scatter
        out: dict = {}
        for s, fs in form.items():
            acc = Poly.zero(chart)
            for i, xi in x.items():
                d = fs.diff(i)
                if d:
                    acc = acc + xi * d
            if acc:
                out[s] = acc
        return out

    nlam_bracket: dict = {}
    _form_acc(nlam_bracket, transport(_sharp(comp, a), b), 1)
    _form_acc(nlam_bracket, transport(_sharp(comp, b), a), -1)
    for (u, w), ruw in comp.items():
        aw = a.get(w)
        bu = b.get(u)
        if aw is None or bu is None:
            continue
        grad = {}
        for s in ruw.variables_used():
            d = ruw.diff(s)
            if d:
                grad[s] = d * aw * bu
        _form_acc(nlam_bracket, grad, 1)

    out: dict = {}
    _form_acc(out, nlam_bracket, 1)
    _form_acc(out, _koszul(chart, lam_m, n_transpose(a), b), -1)
    _form_acc(out, _koszul(chart, lam_m, a, n_transpose(b)), -1)
    _form_acc(out, n_transpose(_koszul(chart, lam_m, a, b)), 1)
    comps = {((), (s,)): v for s, v in out.items()}
    return TensorField(chart, 0, 1, comps)
