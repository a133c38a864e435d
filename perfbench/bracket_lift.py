"""Workload `bracket-lift`: the check-suite bracket-lift battery, item by item.

This rebuilds criterion 2 of `gradcalc check-suite` from public calls.
Each case draws eight tiny one-component, one-term inputs with integer
coefficients of degree <= 2 on dim 1-3 and order r 1-3 (the shapes
criterion 2 draws with gradcalc.sampling), lifts them at every level once
(the case prologue), and then checks seven identities at every
(lambda, mu):

    op(u^(lambda), v^(mu)) == (op(u, v))^(lambda + mu - r)

for op in lie, schouten, insert, liederiv, nr, fn, and d(w^(lambda)) ==
(dw)^(lambda).  One identity check is one item.

Negative controls: about one item in eight gets its right-hand side
perturbed by a nonzero constant component, so its known answer is
"unequal".  A TensorField.__eq__ broken into a fast "equal" fails them.
"""

from __future__ import annotations

import random

import gradcalc as gc

from itemtypes import OK, Case, Item, Verdict

CASES = 54
PLANT_SHARE = 0.125

# name, gradcalc function, input slots (u, v) among x y a b w k l t
_IDENTITIES = (
    ("lie", "lie_bracket", 0, 1),
    ("schouten", "schouten_bracket", 2, 3),
    ("insert", "insert_multivector", 0, 4),
    ("liederiv", "lie_derivative", 0, 7),
    ("nr", "nr_bracket", 5, 6),
    ("fn", "fn_bracket", 5, 6),
)


def _chart(dim: int):
    return gc.make_chart(["x", "y", "z"][:dim], [0] * dim, label="M")


def _one_term(design: random.Random, rng: random.Random, chart, perm: list):
    """coefficient * monomial of degree <= 2, as sampling.random_poly draws
    them with max_terms=1; the monomial's shape comes from the design, its
    variables through the seed's relabelling, the coefficient (nonzero, in
    -3..3) from the seed."""
    counts: dict = {}
    for _ in range(design.randint(0, 2)):
        v = perm[design.randrange(chart.dim)]
        counts[v] = counts.get(v, 0) + 1
    coef = rng.choice((-3, -2, -1, 1, 2, 3))
    return gc.Poly.from_terms(chart, [(tuple(sorted(counts.items())), coef)])


def _inputs(design: random.Random, rng: random.Random, m) -> tuple:
    """x, y, a, b, w, k, l, t: one component each, as criterion 2 draws them."""
    dim = m.dim
    perm = rng.sample(range(dim), dim)

    def index() -> int:
        return perm[design.randrange(dim)]

    def pair() -> tuple:
        return tuple(sorted(perm[i] for i in design.sample(range(dim), min(2, dim))))

    f = [_one_term(design, rng, m, perm) for _ in range(8)]
    up2, down2 = pair(), pair()
    tf = gc.TensorField.from_components
    anti = "antisym" if dim >= 2 else "none"
    return (
        tf(m, 1, 0, {((index(),), ()): f[0]}),
        tf(m, 1, 0, {((index(),), ()): f[1]}),
        tf(m, len(up2), 0, {(up2, ()): f[2]}, contra_sym=anti),
        tf(m, 1, 0, {((index(),), ()): f[3]}),
        tf(m, 0, len(down2), {((), down2): f[4]}, cov_sym=anti),
        tf(m, 1, 1, {((index(),), (index(),)): f[5]}),
        tf(m, 1, 1, {((index(),), (index(),)): f[6]}),
        tf(m, 1, 1, {((index(),), (index(),)): f[7]}),
    )


def build(seed: int, size: int = CASES, workdir: str | None = None) -> list:
    """size cases; case c has dim 1 + c % 3 and r 1 + (c // 3) % 3.

    The shape of every input (degrees, which variables a monomial uses and
    which index keys carry it, up to relabelling) comes from a fixed design,
    so every seed does nearly the same amount of work.  The seed picks the
    relabelling of the variables in each case, every coefficient and the
    planted controls.
    """
    design = random.Random("bracket-lift-design")
    rng = random.Random(f"{seed}:bracket-lift")
    out = []
    for c in range(size):
        dim = 1 + c % 3
        r = 1 + (c // 3) % 3
        m = _chart(dim)
        ctx = gc.LiftContext(m, r)
        case = Case(f"dim={dim} r={r} #{c}", (ctx, _inputs(design, rng, m)))
        for lam in range(r + 1):
            planted = rng.random() < PLANT_SHARE
            case.items.append(Item(f"{case.label} d lambda={lam}",
                                   ("d", None, 4, 4, lam, lam, planted),
                                   expected=not planted))
            for mu in range(r + 1):
                for name, fn, iu, iv in _IDENTITIES:
                    planted = rng.random() < PLANT_SHARE
                    case.items.append(Item(
                        f"{case.label} {name} lambda={lam} mu={mu}",
                        (name, fn, iu, iv, lam, mu, planted),
                        expected=not planted))
        out.append(case)
    return out


def prologue(case: Case):
    ctx, inputs = case.data
    return {(i, lam): gc.lift_tensor(obj, lam, ctx)
            for i, obj in enumerate(inputs) for lam in range(ctx.r + 1)}


def _bump(t):
    """A nonzero constant tensor of t's valence on t's chart."""
    key = (tuple(range(t.q)), tuple(range(t.p)))
    return gc.TensorField.from_components(
        t.chart, t.q, t.p, {key: 1},
        contra_sym="antisym" if t.q >= 2 else "none",
        cov_sym="antisym" if t.p >= 2 else "none")


def run(case: Case, item: Item, lifts: dict):
    ctx, inputs = case.data
    name, fn, iu, iv, lam, mu, planted = item.spec
    if name == "d":
        got = gc.exterior_derivative(lifts[(4, lam)])
        want = gc.lift_tensor(gc.exterior_derivative(inputs[4]), lam, ctx)
    else:
        op = getattr(gc, fn)
        got = op(lifts[(iu, lam)], lifts[(iv, mu)])
        want = gc.lift_tensor(op(inputs[iu], inputs[iv]), lam + mu - ctx.r, ctx)
    if planted:
        want = want + _bump(want)
    return got == want, got


def check(case: Case, item: Item, result, reference) -> Verdict:
    equal, _ = result
    if equal != item.expected:
        return Verdict(False, f"{item.label}: compared "
                       f"{'equal' if equal else 'unequal'}, known answer "
                       f"{'equal' if item.expected else 'unequal'}")
    return OK


def canonical(case: Case, item: Item, result) -> str:
    equal, got = result
    return f"{item.label}\t{equal}\t{gc.render_tensor(got)}"


def verify(cases: list, results: list) -> dict:
    return {}


def corrupt(cases: list) -> None:
    """Flip the first known answer (self-test of the checking path)."""
    item = cases[0].items[0]
    item.expected = not item.expected
