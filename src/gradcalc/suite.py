"""Built-in verification battery behind `gradcalc check-suite`.

Each criterion is a generator of its cases, written as
`@_criterion(label)` over `def criterion_...(seed)` and listed in
`_CRITERIA`.  A case yields None when it passes and its failure text when
it fails; a check that is not counted as a case (a precondition on the
base, criterion 8's key placement) yields only its failure.  The
generator's return value is the detail of a pass.  The wrapper turns the
generator into a `seed -> CriterionResult` function: it counts the
cases, ends the criterion at the first failure (whose text becomes the
detail) and times the run.  So a FAIL's `cases` counts the cases run up
to and including the first failure.

Every random choice is drawn from the master seed, so the battery is
deterministic: the same seed gives byte-identical JSON.  The criteria
that draw their own cases seed a generator with a per-criterion string
(_rng).  Criterion 7 does not: it passes the master seed itself to
is_involutive and is_weighted_distribution, and it draws the points of
its rank cases with sample_points(ctx.total, seed + r).  Timings are
reported in the text table only.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from functools import wraps
from itertools import combinations_with_replacement

from .calculus import (concomitant, exterior_derivative, fn_bracket,
                       lie_bracket, lie_derivative, nijenhuis_torsion,
                       nr_bracket, schouten_bracket)
from .charts import make_chart
from .checkers import (Distribution, is_involutive, is_poisson,
                       is_weighted_distribution, is_weighted_poisson,
                       rank_at_point)
from .lifts import (LiftContext, covariant_derivative, lift_distribution,
                    lift_function, lift_linear_connection, lift_tensor,
                    tangent_connection)
from .oracle import koszul_concomitant_oracle, taylor_lift_oracle
from .poly import Poly, _acc_poly, _polys
from .render import json_document, render_tensor
from .sampling import (random_form, random_multivector, random_one_form,
                       random_poly, random_tensor, random_vector_field,
                       random_vv_form, sample_points)
from .tensor import (coordinate_one_form, coordinate_vector_field, compose_11,
                     degree_of_tensor, identity_tensor, insert_form,
                     insert_multivector, tensor_product, wedge,
                     weight_vector_field)

__all__ = ["CriterionResult", "run_check_suite", "render_table",
           "suite_to_json"]


class CriterionResult(namedtuple("CriterionResult", "label ok cases detail ms",
                                 defaults=(0.0,))):
    __slots__ = ()

    def to_json(self) -> dict:
        return {"label": self.label, "ok": self.ok, "cases": self.cases,
                "detail": self.detail}


def _criterion(label: str):
    """Turn a generator of cases into a criterion `seed -> CriterionResult`.

    The generator yields once per case: None for a pass, the failure text
    for a fail.  The first failure ends the run and is the detail; if no
    case fails, the generator's return value is.
    """
    def wrap(cases_of):
        @wraps(cases_of)
        def criterion(seed: int) -> CriterionResult:
            t0 = time.perf_counter()
            cases = cases_of(seed)
            n, failure = 0, None
            try:
                while failure is None:
                    failure = next(cases)
                    n += 1
            except StopIteration as done:
                ok, detail = True, done.value
            else:
                ok, detail = False, failure
            return CriterionResult(label, ok, n, detail,
                                   (time.perf_counter() - t0) * 1000.0)
        criterion.label = label
        return criterion
    return wrap


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _trivial_chart(dim: int):
    return make_chart([f"x{i}" for i in range(dim)] if dim > 3
                      else ["x", "y", "z"][:dim], [0] * dim, label="M")


# -- 1: frozen lift displays ----------------------------------------------------

_DISPLAYS = {
    (1, "X", 1): "x*d/dy + x_1*d/dy_1",
    (1, "X", 0): "x*d/dy_1",
    (1, "a", 1): "x_1*dy + x*dy_1",
    (1, "a", 0): "x*dy",
    (2, "X", 2): "x*d/dy + x_1*d/dy_1 + x_2*d/dy_2",
    (2, "X", 1): "x*d/dy_1 + x_1*d/dy_2",
    (2, "X", 0): "x*d/dy_2",
    (2, "a", 2): "x_2*dy + x_1*dy_1 + x*dy_2",
    (2, "a", 1): "x_1*dy + x*dy_1",
    (2, "a", 0): "x*dy",
}


@_criterion("lift-displays")
def criterion_lift_displays(seed: int):
    """Canonical text of every lift of X = x d/dy and a = x dy, r = 1, 2."""
    m = make_chart(["x", "y"], [0, 0], label="M")
    x = Poly.variable(m, 0)
    objs = {"X": coordinate_vector_field(m, "y") * x,
            "a": coordinate_one_form(m, "y") * x}
    for r in (1, 2):
        ctx = LiftContext(m, r)
        for name, t in objs.items():
            for lam in range(r + 1):
                got = render_tensor(lift_tensor(t, lam, ctx))
                want = _DISPLAYS[(r, name, lam)]
                yield (None if got == want
                       else f"{name}^({lam}) at r={r}: {got!r} != {want!r}")
    return "all lift displays match the frozen text"


# -- 2: bracket and derivation identities under lifts ---------------------------

@_criterion("bracket-lift-battery")
def criterion_bracket_battery(seed: int):
    """Seven identities, each once per random input at every (lambda, mu)."""
    rng = _rng(seed, "bracket-battery")
    opts = dict(max_components=1, max_terms=1, max_degree=2)
    counts = dict.fromkeys(
        ("lie", "schouten", "insert", "d", "liederiv", "nr", "fn"), 0)
    for case in range(200):
        dim = 1 + case % 3
        r = 1 + case % 3
        m = _trivial_chart(dim)
        ctx = LiftContext(m, r)
        x = random_vector_field(rng, m, **opts)
        y = random_vector_field(rng, m, **opts)
        a = random_multivector(rng, m, min(2, dim), **opts)
        b = random_multivector(rng, m, 1, **opts)
        w = random_form(rng, m, min(2, dim), **opts)
        k = random_vv_form(rng, m, 1, **opts)
        l = random_vv_form(rng, m, 1, **opts)
        t = random_tensor(rng, m, 1, 1, **opts)

# keyed by (input slot, level); inputs live for the whole case
        lifts = {(i, lam): lift_tensor(obj, lam, ctx)
                 for i, obj in enumerate((x, y, a, b, w, k, l, t))
                 for lam in range(r + 1)}

        for lam in range(r + 1):
            got = exterior_derivative(lifts[(4, lam)])
            counts["d"] += 1
            yield (None if got == lift_tensor(exterior_derivative(w), lam, ctx)
                   else f"d at dim={dim} r={r} lambda={lam}")
            for mu in range(r + 1):
                nu = lam + mu - r
                checks = (
                    ("lie", lie_bracket, 0, 1, x, y),
                    ("schouten", schouten_bracket, 2, 3, a, b),
                    ("insert", insert_multivector, 0, 4, x, w),
                    ("liederiv", lie_derivative, 0, 7, x, t),
                    ("nr", nr_bracket, 5, 6, k, l),
                    ("fn", fn_bracket, 5, 6, k, l),
                )
                for name, op, iu, iv, u, v in checks:
                    got = op(lifts[(iu, lam)], lifts[(iv, mu)])
                    counts[name] += 1
                    yield (None if got == lift_tensor(op(u, v), nu, ctx)
                           else f"{name} at dim={dim} r={r} lambda={lam} mu={mu}")
    return "exact zero for " + ", ".join(f"{k}:{v}" for k, v in counts.items())


# -- 3: homogeneity degree of lifts ---------------------------------------------

@_criterion("lift-degrees")
def criterion_lift_degrees(seed: int):
    """Jet-grading degree of any lift is lambda - q r."""
    rng = _rng(seed, "lift-degrees")
    for case in range(120):
        dim = 1 + case % 3
        r = 1 + case % 3
        m = _trivial_chart(dim)
        ctx = LiftContext(m, r)
        q = rng.randrange(3)
        p = rng.randrange(3)
        t = random_tensor(rng, m, q, p)
        jet = m.grading_count
        for lam in range(r + 1):
            lifted = lift_tensor(t, lam, ctx)
            # a zero lift is homogeneous of every degree
            d = lam - q * r if lifted.is_zero() else degree_of_tensor(lifted, jet)
            yield (None if d == lam - q * r
                   else f"(q,p)=({q},{p}) r={r} lambda={lam}: degree {d}")
    return "degree equals lambda - q*r in every case"


# -- 4: weight fields commute ---------------------------------------------------

@_criterion("weight-field-commute")
def criterion_weight_commute(seed: int):
    """Prolonged weight field commutes with the lifted base weight field."""
    for dim in (1, 2, 3):
        for ws in combinations_with_replacement((0, 1, 2, 3), dim):
            m = make_chart([f"x{i}" for i in range(dim)], list(ws), label="M")
            nabla = weight_vector_field(m, 0)
            for r in (1, 2, 3):
                ctx = LiftContext(m, r)
                total_weight = (weight_vector_field(ctx.total, 0)
                                + weight_vector_field(ctx.total, 1))
                br = lie_bracket(total_weight, lift_tensor(nabla, r, ctx))
                yield None if br.is_zero() else f"weights {ws} r={r}"
    return "zero bracket on every chart and order"


# -- 5: Poisson bivector lifts --------------------------------------------------

@_criterion("poisson-lifts")
def criterion_poisson_lifts(seed: int):
    """Complete lifts of five fixed Poisson structures stay weighted Poisson."""
    m2 = make_chart(["x", "y"], [0, 0], label="M")
    m3 = make_chart(["x", "y", "z"], [0, 0, 0], label="M")
    ex2, ey2 = (coordinate_vector_field(m2, v) for v in "xy")
    ex3, ey3, ez3 = (coordinate_vector_field(m3, v) for v in "xyz")
    x2, y2 = Poly.variable(m2, 0), Poly.variable(m2, 1)
    x3, y3, z3 = (Poly.variable(m3, i) for i in range(3))
    structures = [
        ("constant", wedge(ex2, ey2)),
        ("linear", wedge(ex2, ey2) * x2),
        ("symplectic-deformed", wedge(ex2, ey2) * (Poly.const(m2, 1) + x2 * y2)),
        ("so3-linear", wedge(ex3, ey3) * z3 + wedge(ey3, ez3) * x3
         + wedge(ez3, ex3) * y3),
        ("heisenberg-linear", wedge(ex3, ey3) * z3),
    ]
    for name, lam in structures:
        if not is_poisson(lam).verdict:
            yield f"{name} is not Poisson on the base"
        jet = lam.chart.grading_count
        for r in (1, 2):
            ctx = LiftContext(lam.chart, r)
            rep = is_weighted_poisson(lift_tensor(lam, r, ctx), r, component=jet)
            yield None if rep.verdict else f"{name} r={r}: {rep.witness}"
    return "all five lifts are weighted Poisson of weight r"


# -- 6: complex structure and endomorphism lifts --------------------------------

@_criterion("complex-structure-lifts")
def criterion_endomorphism_lifts(seed: int):
    """Complete lift preserves N.N = -I, torsion, and constant products."""
    rng = _rng(seed, "endomorphism-lifts")
    m = make_chart(["x", "y"], [0, 0], label="M")
    n_std = (tensor_product(coordinate_vector_field(m, "y"),
                            coordinate_one_form(m, "x"))
             - tensor_product(coordinate_vector_field(m, "x"),
                              coordinate_one_form(m, "y")))
    for r in (1, 2):
        ctx = LiftContext(m, r)
        nc = lift_tensor(n_std, r, ctx)
        yield (None if compose_11(nc, nc) == -identity_tensor(ctx.total)
               else f"square at r={r}")
        yield None if nijenhuis_torsion(nc).is_zero() else f"torsion at r={r}"
        for _ in range(50):
            n1 = random_tensor(rng, m, 1, 1, max_components=3, max_degree=0)
            n2 = random_tensor(rng, m, 1, 1, max_components=3, max_degree=0)
            lhs = lift_tensor(compose_11(n1, n2), r, ctx)
            yield (None if lhs == compose_11(lift_tensor(n1, r, ctx),
                                             lift_tensor(n2, r, ctx))
                   else f"product at r={r}")
    return "square, torsion and constant-coefficient products all preserved"


# -- 7: distribution lifts ------------------------------------------------------

@_criterion("distribution-lifts")
def criterion_distribution_lifts(seed: int):
    """Lift of an involutive rank-2 distribution keeps rank and involutivity."""
    m = make_chart(["x", "y", "z"], [0, 0, 0], label="M")
    d = Distribution(m, (coordinate_vector_field(m, "x"),
                         coordinate_vector_field(m, "y") * Poly.variable(m, 0)))
    if not is_involutive(d, seed=seed).verdict:
        yield "base distribution fails involutivity"
    for r in (1, 2):
        ctx = LiftContext(m, r)
        dl = lift_distribution(d, ctx)
        want = (r + 1) * 2
        for pt in sample_points(ctx.total, seed + r):
            got = rank_at_point(dl, pt)
            yield None if got == want else f"rank {got} != {want} at r={r}"
        yield (None if is_involutive(dl, seed=seed).verdict
               else f"lift at r={r} fails involutivity")
        yield (None if is_weighted_distribution(dl, component=1, seed=seed).verdict
               else f"lift at r={r} is not weighted")
    return "rank (r+1)*2, involutive and weighted at r=1,2"


# -- 8: connection lifts --------------------------------------------------------

_ONE_SYMBOL_LIFTED_KEYS = {
    ("x", "y_dot", "x_dot"),
    ("x", "y_dot_1", "x_dot_1"),
    ("x_1", "y_dot_1", "x_dot"),
}


@_criterion("connection-lifts")
def criterion_connection_lifts(seed: int):
    """Lifted covariant derivative of lifts is the lift of the derivative."""
    rng = _rng(seed, "connection-lifts")

    def check(m, gamma, tag):
        conn = tangent_connection(m, gamma)
        for r in (1, 2):
            ctx_vb = LiftContext(conn.chart, r)
            ctx = LiftContext(m, r)
            lifted = lift_linear_connection(conn, ctx_vb)
            if tag == "one-symbol" and r == 1:
                names = ctx_vb.total.names
                keys = {(names[k], names[a], names[b])
                        for (k, a, b) in lifted.gamma}
                if keys != _ONE_SYMBOL_LIFTED_KEYS:
                    yield f"one-symbol key placement: {sorted(keys)}"
            x = random_vector_field(rng, m, max_components=2)
            y = random_vector_field(rng, m, max_components=2)
            base = covariant_derivative(conn, x, y)
            for lam in range(r + 1):
                xl = lift_tensor(x, lam, ctx)
                for mu in range(r + 1):
                    got = covariant_derivative(lifted, xl,
                                               lift_tensor(y, mu, ctx))
                    yield (None if got == lift_tensor(base, lam + mu - r, ctx)
                           else f"{tag} r={r} lambda={lam} mu={mu}")

    m2 = make_chart(["x", "y"], [0, 0], label="M")
    yield from check(m2, {(0, 1, 0): Poly.const(m2, 1)}, "one-symbol")
    for case in range(20):
        dim = 2 + case % 2
        m = _trivial_chart(dim)
        gamma = {}
        for _ in range(rng.randint(1, 3)):
            key = tuple(rng.randrange(dim) for _ in range(3))
            _acc_poly(gamma, key, random_poly(rng, m))
        yield from check(m, _polys(m, gamma), f"random-{case}")
    return "identity exact for the one-symbol and 20 random connections"


# -- 9: concomitant dual path ---------------------------------------------------

@_criterion("concomitant-dual-path")
def criterion_concomitant(seed: int):
    """Coordinate concomitant equals the bracket-difference oracle."""
    rng = _rng(seed, "concomitant")
    for case in range(100):
        dim = 2 + case % 2
        m = _trivial_chart(dim)
        lam = random_multivector(rng, m, 2)
        nn = random_tensor(rng, m, 1, 1, max_components=2)
        alpha = random_one_form(rng, m, max_components=2)
        beta = random_one_form(rng, m, max_components=2)
        direct = insert_form(tensor_product(alpha, beta), concomitant(lam, nn))
        yield (None if direct == koszul_concomitant_oracle(lam, nn, alpha, beta)
               else f"dual path disagrees at case {case} (dim {dim})")
        yield (None if concomitant(lam, identity_tensor(m)).is_zero()
               else f"identity concomitant nonzero at case {case}")
    return "both paths agree exactly; identity concomitant vanishes"


# -- 10: function lift oracle ---------------------------------------------------

@_criterion("function-lift-oracle")
def criterion_function_lifts(seed: int):
    """Coefficient-extraction lift equals the derivative-based oracle."""
    rng = _rng(seed, "function-lifts")
    contexts: dict = {}
    for case in range(500):
        dim = 1 + case % 3
        r = 1 + case % 3
        key = (dim, r)
        if key not in contexts:
            contexts[key] = LiftContext(_trivial_chart(dim), r)
        ctx = contexts[key]
        f = random_poly(rng, ctx.base, max_terms=3, max_degree=3)
        lam = rng.randint(0, r)
        yield (None if lift_function(f, lam, ctx) == taylor_lift_oracle(f, lam, ctx)
               else f"case {case}: dim={dim} r={r} lambda={lam}")
    return "both lift paths agree on every sample"


_CRITERIA = (
    criterion_lift_displays,
    criterion_bracket_battery,
    criterion_lift_degrees,
    criterion_weight_commute,
    criterion_poisson_lifts,
    criterion_endomorphism_lifts,
    criterion_distribution_lifts,
    criterion_connection_lifts,
    criterion_concomitant,
    criterion_function_lifts,
)


def run_check_suite(seed: int = 42):
    """Run the whole battery; returns (results, exit_code)."""
    results = [criterion(seed) for criterion in _CRITERIA]
    return results, (0 if all(r.ok for r in results) else 1)


def render_table(results: list) -> str:
    width = max(len(r.label) for r in results)
    lines = []
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.label:<{width}}  {mark}  {r.cases:>5} cases  "
                     f"{r.ms:8.1f} ms  {r.detail}")
    n_ok = sum(1 for r in results if r.ok)
    lines.append(f"{n_ok}/{len(results)} criteria passed")
    return "\n".join(lines)


def suite_to_json(results: list, seed: int) -> dict:
    return json_document(seed=seed, suite=[r.to_json() for r in results])
