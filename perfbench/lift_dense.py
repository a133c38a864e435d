"""Workload `lift-dense`: every lambda-lift of dense rational tensors.

Random (q, p) tensors with q, p <= 2 on dim 2-4 and order r 1-4, whose
coefficients have 3-4 terms of degree <= 3 and true fractions
(denominator > 1), are lifted at every lambda = 0..r.  Each (dim, r) also
lifts one random linear connection with rational Christoffel symbols.
One LiftContext is reused per (dim, r), as check-suite does.  One input
lifted at all its levels (or one connection lifted) is one item.

Known answers are checked after timing: every lifted component is
rebuilt from taylor_lift_oracle, an independent derivative-based path,
and every nonzero lift must have jet degree lambda - q*r.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import gradcalc as gc

from itemtypes import OK, Case, Item, Verdict

DIMS = (2, 3, 4)
ORDERS = (1, 2, 3, 4)
TENSORS_PER_CONTEXT = 27


def _chart(dim: int):
    return gc.make_chart(["x", "y", "z", "w"][:dim], [0] * dim, label="M")


def _fraction(rng: random.Random) -> Fraction:
    while True:
        c = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                     rng.randint(2, 6))
        if c.denominator > 1:
            return c


def _rational_poly(design: random.Random, rng: random.Random, chart, perm: list):
    """3-4 terms of degree <= 3: monomial shapes from the design, variables
    through the seed's relabelling, true-fraction coefficients from the seed."""
    entries = []
    for _ in range(design.randint(3, 4)):
        counts: dict = {}
        for _ in range(design.randint(0, 3)):
            v = perm[design.randrange(chart.dim)]
            counts[v] = counts.get(v, 0) + 1
        entries.append((tuple(sorted(counts.items())), _fraction(rng)))
    return gc.Poly.from_terms(chart, entries)


def _block(design: random.Random, perm: list, n: int, sym: str) -> tuple:
    if sym == "antisym":
        return tuple(sorted(perm[i] for i in design.sample(range(len(perm)), n)))
    return tuple(perm[design.randrange(len(perm))] for _ in range(n))


def _random_tensor(design: random.Random, rng: random.Random, chart, perm: list,
                   q: int, p: int, components: int):
    cs = "antisym" if q == 2 and design.random() < 0.5 else "none"
    ps = "antisym" if p == 2 and design.random() < 0.5 else "none"
    comps = {}
    for _ in range(components):
        key = (_block(design, perm, q, cs), _block(design, perm, p, ps))
        comps[key] = _rational_poly(design, rng, chart, perm)
    return gc.TensorField.from_components(chart, q, p, comps, cs, ps)


def _random_connection(design: random.Random, rng: random.Random, chart, perm: list):
    gamma = {}
    for _ in range(design.randint(2, 3)):
        key = tuple(perm[design.randrange(chart.dim)] for _ in range(3))
        gamma[key] = _rational_poly(design, rng, chart, perm)
    return gc.tangent_connection(chart, gamma)


def build(seed: int, size: int = TENSORS_PER_CONTEXT, workdir: str | None = None) -> list:
    """size tensors per (dim, r) plus one connection.

    The shape of every input ((q, p), tags, index keys and monomials, up
    to relabelling) comes from a fixed design, so every seed does nearly
    the same amount of work; tensor i of a context has (q, p) =
    divmod(i % 9, 3).  The seed picks the relabelling of the variables in
    each context and every coefficient.
    """
    design = random.Random("lift-dense-design")
    rng = random.Random(f"{seed}:lift-dense")
    out = []
    for dim in DIMS:
        for r in ORDERS:
            m = _chart(dim)
            perm = rng.sample(range(dim), dim)
            ctx = gc.LiftContext(m, r)
            conn = _random_connection(design, rng, m, perm)
            ctx_vb = gc.LiftContext(conn.chart, r)
            case = Case(f"dim={dim} r={r}", (ctx, ctx_vb))
            for i in range(size):
                q, p = divmod(i % 9, 3)
                t = _random_tensor(design, rng, m, perm, q, p, 1 + (i // 9) % 2)
                # known answer: jet degree of the lambda-lift is lambda - q*r
                case.items.append(Item(f"{case.label} ({t.q},{t.p}) #{i}",
                                       ("tensor", t), expected=-t.q * r))
            case.items.append(Item(f"{case.label} connection", ("connection", conn)))
            out.append(case)
    return out


def prologue(case: Case):
    return None


def run(case: Case, item: Item, state):
    ctx, ctx_vb = case.data
    kind, obj = item.spec
    if kind == "tensor":
        return [gc.lift_tensor(obj, lam, ctx) for lam in range(ctx.r + 1)]
    return gc.lift_linear_connection(obj, ctx_vb)


def check(case: Case, item: Item, result, reference) -> Verdict:
    """Later passes must reproduce the first pass's text exactly (each pass
    has its own charts, which compare by identity)."""
    if reference is None or canonical(case, item, result) == canonical(case, item, reference):
        return OK
    return Verdict(False, f"{item.label}: differs from the first pass")


def canonical(case: Case, item: Item, result) -> str:
    if item.spec[0] == "tensor":
        return f"{item.label}\t" + "\t".join(gc.render_tensor(t) for t in result)
    names = result.chart.names
    rows = [f"{names[k]} {names[a]} {names[b]} = {gc.render_poly(g)}"
            for (k, a, b), g in sorted(result.gamma.items())]
    return f"{item.label}\t" + "\t".join(rows)


class _Oracle:
    """Memoised taylor_lift_oracle calls, keyed by coefficient identity."""

    def __init__(self):
        self.memo: dict = {}

    def __call__(self, f, lam: int, ctx):
        key = (id(f), lam, id(ctx))
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = (f, gc.taylor_lift_oracle(f, lam, ctx))
        return got[1]


def _acc(table: dict, key, value) -> None:
    prev = table.get(key)
    table[key] = value if prev is None else prev + value


def _expected_tensor_lift(t, lam: int, ctx, oracle) -> dict:
    """Expanded table of t^(lambda) from oracle-lifted coefficients."""
    r = ctx.r
    table: dict = {}
    for (up, down), coef in t.expand().items():
        for levels in product(range(r + 1), repeat=len(up) + len(down)):
            mu0 = lam - sum(levels)
            if not 0 <= mu0 <= r:
                continue
            nu, kappa = levels[:len(up)], levels[len(up):]
            key = (tuple(ctx.var(i, r - v) for i, v in zip(up, nu)),
                   tuple(ctx.var(j, k) for j, k in zip(down, kappa)))
            _acc(table, key, oracle(coef, mu0, ctx))
    return {k: v for k, v in table.items() if v}


def _expected_connection_lift(conn, ctx, oracle) -> dict:
    r = ctx.r
    table: dict = {}
    for (k, a, b), g in conn.gamma.items():
        for lev_k, lev_b, rho in product(range(r + 1), repeat=3):
            e = rho - lev_k - lev_b
            if 0 <= e <= r:
                _acc(table, (ctx.var(k, lev_k), ctx.var(a, rho), ctx.var(b, lev_b)),
                     oracle(g, e, ctx))
    return {k: v for k, v in table.items() if v}


def _verify_item(case: Case, item: Item, result, oracle) -> Verdict:
    ctx, ctx_vb = case.data
    kind, obj = item.spec
    if kind == "connection":
        if result.gamma != _expected_connection_lift(obj, ctx_vb, oracle):
            return Verdict(False, f"{item.label}: lifted symbols differ from "
                           "the Taylor oracle")
        return OK
    jet = ctx.total.grading_count - 1
    for lam, lifted in enumerate(result):
        if lifted.expand() != _expected_tensor_lift(obj, lam, ctx, oracle):
            return Verdict(False, f"{item.label} lambda={lam}: differs from "
                           "the Taylor oracle")
        got = gc.degree_of_tensor(lifted, jet)
        if not lifted.is_zero() and got != lam + item.expected:
            return Verdict(False, f"{item.label} lambda={lam}: jet degree "
                           f"{got}, known answer {lam + item.expected}")
    return OK


def verify(cases: list, results: list) -> dict:
    """Oracle and degree-law checks of the first pass: {item index: Verdict}."""
    oracle = _Oracle()
    failures = {}
    items = [(case, item) for case in cases for item in case.items]
    for n, ((case, item), result) in enumerate(zip(items, results)):
        verdict = _verify_item(case, item, result, oracle)
        if not verdict.ok:
            failures[n] = verdict
    return failures


def corrupt(cases: list) -> None:
    """Shift the first known degree by one (self-test of the checking path)."""
    item = cases[0].items[0]
    item.expected += 1
